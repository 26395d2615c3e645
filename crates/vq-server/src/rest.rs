//! Qdrant-compatible REST routes over [`crate::http`].
//!
//! Implemented surface (the endpoints the paper's harness drives):
//!
//! * `PUT /collections/{name}` — create a collection
//!   (`{"vectors":{"size":D,"distance":"Cosine"}}`)
//! * `PUT /collections/{name}/points` — upsert a points batch
//!   (`{"points":[{"id":1,"vector":[...],"payload":{...}}]}`)
//! * `POST /collections/{name}/points/search` — k-NN search
//!   (`{"vector":[...],"limit":K,"with_payload":true}`)
//! * `GET /collections/{name}` — collection info
//! * `GET /collections` — list collections
//! * `GET /healthz` — liveness
//! * `GET /metrics` — Prometheus text from the vq-obs registry
//!
//! Responses use Qdrant's envelope:
//! `{"result":...,"status":"ok","time":seconds}` on success and
//! `{"status":{"error":"..."},"time":seconds}` on failure.
//!
//! JSON *output* is written by hand (field order fixed, floats via
//! Rust's shortest round-trip formatting) so responses are
//! deterministic byte-for-byte; *input* is parsed through
//! `serde_json::Value` accessors.

use std::sync::Arc;
use std::time::Instant;

use vq_collection::{CollectionConfig, SearchRequest};
use vq_core::{Distance, Payload, PayloadValue, Point, PointBlock, ScoredPoint, VqError};

use crate::backend::Registry;
use crate::http::{HttpRequest, HttpResponse};

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

/// Append a JSON string literal.
pub fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a float with shortest round-trip formatting (`null` for
/// non-finite values, which JSON cannot carry).
pub fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

fn json_payload(payload: &Payload, out: &mut String) {
    out.push('{');
    for (i, (k, v)) in payload.0.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape(k, out);
        out.push(':');
        match v {
            PayloadValue::Str(s) => json_escape(s, out),
            PayloadValue::Int(n) => out.push_str(&n.to_string()),
            PayloadValue::Float(f) => json_f64(*f, out),
            PayloadValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            PayloadValue::Keywords(words) => {
                out.push('[');
                for (j, w) in words.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    json_escape(w, out);
                }
                out.push(']');
            }
        }
    }
    out.push('}');
}

fn json_hits(hits: &[ScoredPoint], out: &mut String) {
    out.push('[');
    for (i, hit) in hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        out.push_str(&hit.id.to_string());
        out.push_str(",\"score\":");
        json_f64(hit.score as f64, out);
        if let Some(payload) = &hit.payload {
            out.push_str(",\"payload\":");
            json_payload(payload, out);
        }
        out.push('}');
    }
    out.push(']');
}

fn envelope_ok(result: &str, started: Instant) -> HttpResponse {
    let mut body = String::with_capacity(result.len() + 48);
    body.push_str("{\"result\":");
    body.push_str(result);
    body.push_str(",\"status\":\"ok\",\"time\":");
    json_f64(started.elapsed().as_secs_f64(), &mut body);
    body.push('}');
    HttpResponse::json(200, body)
}

fn envelope_err(status: u16, message: &str, started: Instant) -> HttpResponse {
    let mut body = String::with_capacity(message.len() + 48);
    body.push_str("{\"status\":{\"error\":");
    json_escape(message, &mut body);
    body.push_str("},\"time\":");
    json_f64(started.elapsed().as_secs_f64(), &mut body);
    body.push('}');
    HttpResponse::json(status, body)
}

fn error_status(e: &VqError) -> u16 {
    match e {
        VqError::CollectionNotFound(_) | VqError::PointNotFound(_) => 404,
        VqError::InvalidRequest(_) | VqError::DimensionMismatch { .. } => 400,
        _ => 500,
    }
}

// ---------------------------------------------------------------------------
// Request parsing (through serde_json::Value accessors only)
// ---------------------------------------------------------------------------

fn parse_body(body: &[u8]) -> Result<serde_json::Value, String> {
    serde_json::from_slice::<serde_json::Value>(body).map_err(|e| format!("invalid JSON: {e}"))
}

fn parse_distance(name: &str) -> Result<Distance, String> {
    match name.to_ascii_lowercase().as_str() {
        "cosine" => Ok(Distance::Cosine),
        "dot" => Ok(Distance::Dot),
        "euclid" => Ok(Distance::Euclid),
        "manhattan" => Ok(Distance::Manhattan),
        other => Err(format!("unknown distance `{other}`")),
    }
}

fn parse_vector(value: &serde_json::Value) -> Result<Vec<f32>, String> {
    let items = value.as_array().ok_or("`vector` must be an array")?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(item.as_f64().ok_or("vector elements must be numbers")? as f32);
    }
    Ok(out)
}

fn parse_payload(value: &serde_json::Value) -> Result<Payload, String> {
    let object = value.as_object().ok_or("`payload` must be an object")?;
    let mut payload = Payload::new();
    for (key, v) in object.iter() {
        if let Some(s) = v.as_str() {
            payload.insert(key.clone(), s.to_string());
        } else if let Some(b) = v.as_bool() {
            payload.insert(key.clone(), b);
        } else if let Some(i) = v.as_i64() {
            payload.insert(key.clone(), i);
        } else if let Some(f) = v.as_f64() {
            payload.insert(key.clone(), f);
        } else if let Some(items) = v.as_array() {
            let mut words = Vec::with_capacity(items.len());
            for item in items {
                words.push(
                    item.as_str()
                        .ok_or("payload arrays must contain strings")?
                        .to_string(),
                );
            }
            payload
                .0
                .insert(key.clone(), PayloadValue::Keywords(words));
        } else {
            return Err(format!("unsupported payload value for key `{key}`"));
        }
    }
    Ok(payload)
}

fn parse_point(value: &serde_json::Value) -> Result<Point, String> {
    let id = value
        .get("id")
        .and_then(|v| v.as_u64())
        .ok_or("point needs a numeric `id`")?;
    let vector = parse_vector(value.get("vector").ok_or("point needs a `vector`")?)?;
    let payload = match value.get("payload") {
        Some(p) if !p.is_null() => parse_payload(p)?,
        _ => Payload::new(),
    };
    Ok(Point::with_payload(id, vector, payload))
}

fn parse_search(value: &serde_json::Value) -> Result<SearchRequest, String> {
    let vector = parse_vector(value.get("vector").ok_or("search needs a `vector`")?)?;
    let k = value
        .get("limit")
        .and_then(|v| v.as_u64())
        .ok_or("search needs a numeric `limit`")? as usize;
    let mut request = SearchRequest::new(vector, k);
    if let Some(with_payload) = value.get("with_payload").and_then(|v| v.as_bool()) {
        request.with_payload = with_payload;
    }
    if let Some(params) = value.get("params") {
        if let Some(ef) = params.get("hnsw_ef").and_then(|v| v.as_u64()) {
            request.ef = Some(ef as usize);
        }
        if let Some(exact) = params.get("exact").and_then(|v| v.as_bool()) {
            request.params.exact = exact;
        }
        if let Some(depth) = params.get("rerank_depth").and_then(|v| v.as_u64()) {
            request.params.rerank_depth = Some(depth as usize);
        }
    }
    Ok(request)
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// Dispatch one parsed HTTP request against the collection registry.
///
/// When tracing is installed this opens a `rest_edge` root span around
/// the whole dispatch (adopting the caller's trace id from the
/// `x-vq-trace-id` header when present), echoes the id back in the
/// same response header, and stamps it into the JSON envelope so the
/// client can correlate a slow response with a server-side trace.
pub fn route(registry: &Arc<Registry>, request: &HttpRequest) -> HttpResponse {
    let Some(root) = begin_edge_trace(request) else {
        return route_inner(registry, request);
    };
    let scope = vq_obs::TraceScope::enter(root);
    let edge_started = Instant::now();
    let response = route_inner(registry, request);
    drop(scope);
    vq_obs::trace_finish(&root, "rest_edge", 0, edge_started.elapsed().as_secs_f64());
    attach_trace_id(response, root.trace_id)
}

fn begin_edge_trace(request: &HttpRequest) -> Option<vq_obs::TraceContext> {
    if !vq_obs::tracing_enabled() {
        return None;
    }
    let requested = request
        .header("x-vq-trace-id")
        .and_then(|v| u64::from_str_radix(v.trim(), 16).ok());
    vq_obs::trace_begin_root(requested)
}

/// Echo the trace id in the `x-vq-trace-id` header and, for JSON
/// envelope bodies, as a top-level `"trace_id"` field.
fn attach_trace_id(mut response: HttpResponse, trace_id: u64) -> HttpResponse {
    let id = format!("{trace_id:016x}");
    if response.content_type.starts_with("application/json") && response.body.ends_with(b"}") {
        response.body.truncate(response.body.len() - 1);
        response
            .body
            .extend_from_slice(format!(",\"trace_id\":\"{id}\"}}").as_bytes());
    }
    response.with_header("x-vq-trace-id", id)
}

fn route_inner(registry: &Arc<Registry>, request: &HttpRequest) -> HttpResponse {
    let started = Instant::now();
    let segments: Vec<&str> = request
        .path
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", []) => envelope_ok("{\"title\":\"vq\",\"version\":\"0.1.0\"}", started),
        ("GET", ["healthz"]) => {
            HttpResponse::text(200, "healthz check passed\n".to_string())
        }
        ("GET", ["metrics"]) => {
            let text = vq_obs::snapshot()
                .map(|s| s.to_prometheus())
                .unwrap_or_default();
            HttpResponse::text(200, text)
        }
        ("GET", ["collections"]) => {
            let mut result = String::from("{\"collections\":[");
            for (i, name) in registry.names().iter().enumerate() {
                if i > 0 {
                    result.push(',');
                }
                result.push_str("{\"name\":");
                json_escape(name, &mut result);
                result.push('}');
            }
            result.push_str("]}");
            envelope_ok(&result, started)
        }
        ("PUT", ["collections", name]) => put_collection(registry, name, request, started),
        ("GET", ["collections", name]) => get_collection(registry, name, started),
        ("PUT", ["collections", name, "points"]) => {
            put_points(registry, name, request, started)
        }
        ("POST", ["collections", name, "points", "search"]) => {
            post_search(registry, name, request, started)
        }
        ("GET", _) | ("PUT", _) | ("POST", _) => {
            envelope_err(404, &format!("no route for {}", request.path), started)
        }
        _ => envelope_err(405, &format!("method {} not allowed", request.method), started),
    }
}

fn put_collection(
    registry: &Arc<Registry>,
    name: &str,
    request: &HttpRequest,
    started: Instant,
) -> HttpResponse {
    let body = match parse_body(&request.body) {
        Ok(b) => b,
        Err(e) => return envelope_err(400, &e, started),
    };
    let vectors = match body.get("vectors") {
        Some(v) => v,
        None => return envelope_err(400, "missing `vectors` config", started),
    };
    let dim = match vectors.get("size").and_then(|v| v.as_u64()) {
        Some(d) if d > 0 => d as usize,
        _ => return envelope_err(400, "`vectors.size` must be a positive integer", started),
    };
    let metric = match vectors
        .get("distance")
        .and_then(|v| v.as_str())
        .map(parse_distance)
        .unwrap_or(Ok(Distance::Cosine))
    {
        Ok(m) => m,
        Err(e) => return envelope_err(400, &e, started),
    };
    match registry.create(name, CollectionConfig::new(dim, metric)) {
        Ok(_created) => envelope_ok("true", started),
        Err(e) => envelope_err(error_status(&e), &e.to_string(), started),
    }
}

fn get_collection(registry: &Arc<Registry>, name: &str, started: Instant) -> HttpResponse {
    let Some(backend) = registry.get(name) else {
        return envelope_err(404, &format!("collection `{name}` not found"), started);
    };
    let config = backend.config();
    let stats = match backend.stats() {
        Ok(s) => s,
        Err(e) => return envelope_err(error_status(&e), &e.to_string(), started),
    };
    let mut result = String::from("{\"status\":\"green\",\"points_count\":");
    result.push_str(&stats.live_points.to_string());
    result.push_str(",\"segments_count\":");
    result.push_str(&stats.segments.to_string());
    result.push_str(",\"config\":{\"params\":{\"vectors\":{\"size\":");
    result.push_str(&config.dim.to_string());
    result.push_str(",\"distance\":");
    json_escape(&format!("{:?}", config.metric), &mut result);
    result.push_str("}}}}");
    envelope_ok(&result, started)
}

fn put_points(
    registry: &Arc<Registry>,
    name: &str,
    request: &HttpRequest,
    started: Instant,
) -> HttpResponse {
    let Some(backend) = registry.get(name) else {
        return envelope_err(404, &format!("collection `{name}` not found"), started);
    };
    let body = match parse_body(&request.body) {
        Ok(b) => b,
        Err(e) => return envelope_err(400, &e, started),
    };
    let Some(items) = body.get("points").and_then(|v| v.as_array()) else {
        return envelope_err(400, "missing `points` array", started);
    };
    let mut points = Vec::with_capacity(items.len());
    for item in items.iter() {
        match parse_point(item) {
            Ok(p) => points.push(p),
            Err(e) => return envelope_err(400, &e, started),
        }
    }
    // Row-wise JSON points become one columnar block here; below the
    // API boundary a write is always a `PointBlock`.
    let written = PointBlock::from_points(&points)
        .and_then(|block| backend.upsert_block(Arc::new(block)));
    match written {
        Ok(n) => {
            vq_obs::count("server.rest_points_upserted", n as u64);
            envelope_ok(
                "{\"operation_id\":0,\"status\":\"completed\"}",
                started,
            )
        }
        Err(e) => envelope_err(error_status(&e), &e.to_string(), started),
    }
}

fn post_search(
    registry: &Arc<Registry>,
    name: &str,
    request: &HttpRequest,
    started: Instant,
) -> HttpResponse {
    let Some(backend) = registry.get(name) else {
        return envelope_err(404, &format!("collection `{name}` not found"), started);
    };
    let body = match parse_body(&request.body) {
        Ok(b) => b,
        Err(e) => return envelope_err(400, &e, started),
    };
    let search = match parse_search(&body) {
        Ok(s) => s,
        Err(e) => return envelope_err(400, &e, started),
    };
    match backend.search(search) {
        Ok(hits) => {
            vq_obs::count("server.rest_searches", 1);
            let mut result = String::new();
            json_hits(&hits, &mut result);
            envelope_ok(&result, started)
        }
        Err(e) => envelope_err(error_status(&e), &e.to_string(), started),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;

    #[test]
    fn json_escape_handles_specials() {
        let mut out = String::new();
        json_escape("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_f64_roundtrips_f32_exactly() {
        for v in [0.125f32, -3.75, 1.0e-7, 6.02e23, f32::MIN_POSITIVE] {
            let mut out = String::new();
            json_f64(v as f64, &mut out);
            let back: f64 = out.parse().expect("parses");
            assert_eq!(back as f32, v, "{out}");
        }
    }

    #[test]
    fn parse_point_reads_id_vector_payload() {
        let value = serde_json::from_str::<serde_json::Value>(
            "{\"id\":7,\"vector\":[1.0,2.5],\"payload\":{\"kind\":\"doc\",\"year\":2024,\"terms\":[\"a\",\"b\"]}}",
        )
        .unwrap();
        let point = parse_point(&value).expect("parses");
        assert_eq!(point.id, 7);
        assert_eq!(point.vector, vec![1.0, 2.5]);
        assert_eq!(
            point.payload.get("kind"),
            Some(&PayloadValue::Str("doc".into()))
        );
        assert_eq!(point.payload.get("year"), Some(&PayloadValue::Int(2024)));
        assert_eq!(
            point.payload.get("terms"),
            Some(&PayloadValue::Keywords(vec!["a".into(), "b".into()]))
        );
    }

    #[test]
    fn parse_search_reads_limit_and_params() {
        let value = serde_json::from_str::<serde_json::Value>(
            "{\"vector\":[0.5],\"limit\":3,\"with_payload\":true,\"params\":{\"hnsw_ef\":64,\"exact\":true}}",
        )
        .unwrap();
        let search = parse_search(&value).expect("parses");
        assert_eq!(search.k, 3);
        assert_eq!(search.ef, Some(64));
        assert!(search.with_payload);
        assert!(search.params.exact);
    }

    #[test]
    fn route_adopts_and_echoes_trace_id() {
        let _guard = crate::test_support::TRACE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let registry = Arc::new(Registry::new());
        let request = HttpRequest {
            method: "GET".to_string(),
            path: "/".to_string(),
            query: String::new(),
            headers: vec![("x-vq-trace-id".to_string(), "00000000000000ab".to_string())],
            body: Vec::new(),
        };

        // Without a tracer installed the response is untouched.
        let response = route(&registry, &request);
        assert!(response.extra_headers.is_empty());

        let obs =
            vq_obs::ObsGuard::install_default().with_tracer(vq_obs::TraceConfig::default());
        let response = route(&registry, &request);
        let echoed = response
            .extra_headers
            .iter()
            .find(|(k, _)| k == "x-vq-trace-id")
            .map(|(_, v)| v.as_str())
            .expect("trace id header echoed");
        assert_eq!(echoed, "00000000000000ab");
        let body = String::from_utf8(response.body.clone()).unwrap();
        assert!(body.contains("\"trace_id\":\"00000000000000ab\""), "{body}");
        let finished = obs.tracer().expect("tracer installed").finished();
        assert!(finished
            .iter()
            .any(|t| t.trace_id == 0xab && t.root_name == "rest_edge"));
    }

    #[test]
    fn put_points_rejects_bad_dims_and_writes_nothing() {
        let cluster = vq_cluster::Cluster::start(
            vq_cluster::ClusterConfig::new(2).shards(4),
            CollectionConfig::new(3, Distance::Euclid),
        )
        .expect("cluster start");
        let backend = Arc::new(crate::ClusterBackend::new(cluster.clone()));
        let registry = Arc::new(Registry::new());
        registry.insert("c", backend.clone());
        let put = |rows: Vec<String>| {
            route(
                &registry,
                &HttpRequest {
                    method: "PUT".to_string(),
                    path: "/collections/c/points".to_string(),
                    query: String::new(),
                    headers: Vec::new(),
                    body: format!("{{\"points\":[{}]}}", rows.join(",")).into_bytes(),
                },
            )
        };
        let rows = |ids: std::ops::RangeInclusive<u64>, dim: usize| -> Vec<String> {
            ids.map(|id| format!("{{\"id\":{id},\"vector\":{:?}}}", vec![1.0f32; dim]))
                .collect()
        };
        // Every row the wrong dim; a bad row after good ones (which land
        // on other shards); a bad row first.
        for batch in [
            rows(1..=8, 2),
            [rows(1..=8, 3), rows(9..=9, 2)].concat(),
            [rows(9..=9, 2), rows(1..=8, 3)].concat(),
        ] {
            let response = put(batch);
            assert_eq!(response.status, 400);
            let body = String::from_utf8(response.body).unwrap();
            assert!(body.contains("dimension mismatch"), "{body}");
            assert_eq!(backend.count().unwrap(), 0, "a rejected batch writes nothing");
        }
        assert_eq!(put(rows(1..=8, 3)).status, 200);
        assert_eq!(backend.count().unwrap(), 8);
        cluster.shutdown();
    }

    #[test]
    fn hits_serialize_deterministically() {
        let hits = vec![
            ScoredPoint::new(1, 0.5),
            ScoredPoint {
                id: 2,
                score: 0.25,
                payload: Some(Payload::from_pairs([("k", "v")])),
            },
        ];
        let mut out = String::new();
        json_hits(&hits, &mut out);
        assert_eq!(
            out,
            "[{\"id\":1,\"score\":0.5},{\"id\":2,\"score\":0.25,\"payload\":{\"k\":\"v\"}}]"
        );
    }
}
