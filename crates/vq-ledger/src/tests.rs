//! Tests that cross modules: the declared benchmark against the code,
//! the stand-in codecs on workspace types, and the `--smoke` scale end to
//! end.

use crate::{compare, ladder, metrics, report, run, spec};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'v>(entry: &'v Value, key: &str) -> &'v str {
    entry[key]
        .as_str()
        .unwrap_or_else(|| panic!("`{key}` is a string in {entry}"))
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let bench = benchmark_json();
    assert_eq!(bench["paths"], Value::from(vec!["crates/vq-ledger"]));
    assert_eq!(
        bench["command"],
        Value::from(vec!["bash", "crates/vq-ledger/run.sh"])
    );

    let workloads = bench["workloads"].as_array().expect("workloads");
    assert_eq!(workloads.len(), spec::SPECS.len());
    for (declared, spec) in workloads.iter().zip(&spec::SPECS) {
        assert_eq!(field(declared, "name"), spec.name);
        assert_eq!(field(declared, "why"), spec.why);
        assert!(
            spec.why.len() <= 200,
            "{}: why is {} characters",
            spec.name,
            spec.why.len()
        );
    }

    let declared_e2e = bench["end_to_end"].as_array().expect("end_to_end");
    let expected_e2e: Vec<_> = metrics::END_TO_END
        .iter()
        .filter(|m| m.every_workload)
        .collect();
    assert_eq!(declared_e2e.len(), expected_e2e.len());
    for (declared, def) in declared_e2e.iter().zip(expected_e2e) {
        assert_eq!(field(declared, "name"), def.name);
        assert_eq!(field(declared, "unit"), def.unit);
        assert_eq!(field(declared, "better"), def.better.name());
        assert_eq!(declared["bound"].as_f64(), Some(def.bound));
        assert!(
            def.bound > 0.0 && def.bound <= 0.25,
            "{}: bound {}",
            def.name,
            def.bound
        );
    }
    // Set-up time carries the largest bound any metric has.
    let largest = metrics::END_TO_END
        .iter()
        .map(|m| m.bound)
        .fold(0.0, f64::max);
    assert!(metrics::END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.every_workload && m.bound == largest));

    let declared_layers = bench["per_layer"].as_array().expect("per_layer");
    let expected_layers: Vec<_> = metrics::PER_LAYER
        .iter()
        .filter(|m| m.every_workload)
        .collect();
    assert_eq!(declared_layers.len(), expected_layers.len());
    for (declared, def) in declared_layers.iter().zip(expected_layers) {
        assert_eq!(field(declared, "name"), def.name);
        assert_eq!(field(declared, "unit"), def.unit);
        assert_eq!(field(declared, "better"), def.better.name());
    }
}

#[test]
fn json_and_vbin_round_trip_workspace_types() {
    // Exercises the derive on a struct with nested structs, enums, an
    // `Option` and `#[serde(default)]` — through whichever serde built this.
    let config = spec::by_name("quantized_tiered")
        .expect("a known workload")
        .collection_config();
    let text = serde_json::to_string(&config).expect("config serializes");
    let back: vq_collection::CollectionConfig = serde_json::from_str(&text).expect("config parses");
    assert_eq!(back, config);
    // A manifest written before `quantization` existed still loads.
    let mut value: Value = serde_json::from_str(&text).expect("config parses as a Value");
    value
        .as_object_mut()
        .expect("an object")
        .remove("quantization");
    let old: vq_collection::CollectionConfig =
        serde_json::from_str(&serde_json::to_string(&value).expect("a Value serializes"))
            .expect("old manifest parses");
    assert_eq!(old.quantization, None);
    assert_eq!(old.dim, config.dim);

    let request = vq_collection::SearchRequest::new(vec![0.25, -1.5, 3.0e-7], 10)
        .with_payload()
        .rerank_depth(100);
    let message = vq_cluster::ClusterMsg::Request {
        reply_to: 7,
        tag: u64::MAX,
        trace: None,
        body: vq_cluster::messages::Request::SearchBatch {
            queries: vec![request.clone()].into(),
        },
    };
    let bytes = vq_net::wire::to_bytes(&message).expect("message encodes");
    let decoded: vq_cluster::ClusterMsg =
        vq_net::wire::from_bytes(&bytes).expect("message decodes");
    assert_eq!(decoded, message);
    let via_json: vq_collection::SearchRequest =
        serde_json::from_str(&serde_json::to_string(&request).expect("request serializes"))
            .expect("request parses");
    assert_eq!(via_json, request);
}

/// The committed `--smoke` scale, every workload, untraced and traced
/// (one traced: they share the ladder), and a set compared with itself.
#[test]
fn smoke_scale_runs_end_to_end() {
    let mut runs = Vec::new();
    for spec in &spec::SPECS {
        let result =
            run::run(&spec.smoke(), 1, 0.5, &[], None).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        for check in &result.checks {
            assert!(
                check.passed,
                "{}: {} — {}",
                spec.name, check.name, check.detail
            );
        }
        assert_eq!(result.failed(), 0, "{}: failed operations", spec.name);
        let declared =
            report::contract_end_to_end(&result).expect("every declared metric is reported");
        assert!(
            declared
                .iter()
                .all(|m| m.value.is_finite() && m.value != 0.0),
            "{}: {declared:?}",
            spec.name
        );
        let line = report::contract_line(
            result.correct(),
            result.attempted(),
            result.failed(),
            &declared,
        );
        let parsed: Value = serde_json::from_str(&line).expect("the contract line is JSON");
        let keys: Vec<&String> = parsed.as_object().expect("an object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            parsed["metrics"].as_object().expect("metrics").len(),
            declared.len()
        );
        runs.push(report::run_object(&result));
    }
    let mut set = serde_json::Map::new();
    set.insert("fingerprint".into(), crate::fingerprint::collect());
    set.insert("runs".into(), Value::Array(runs));
    let set = Value::Object(set);
    let comparison = compare::compare(&set, &set);
    assert!(!comparison.failed(false));
    assert_eq!(comparison.unresolved(), 0);
    assert!(comparison.rows.len() >= 4 * 8);

    let traced = ladder::run(
        &spec::by_name("quantized_tiered")
            .expect("a known workload")
            .smoke(),
        1,
    )
    .expect("the traced run completes");
    for check in &traced.checks {
        assert!(check.passed, "traced: {} — {}", check.name, check.detail);
    }
    assert_eq!(traced.failed, 0);
    for def in metrics::PER_LAYER.iter() {
        let measured = traced.layers.iter().any(|m| m.name == def.name);
        assert!(
            measured || !def.every_workload,
            "{} was not measured",
            def.name
        );
    }
    // Every child span closed inside its parent.
    for span in &traced.spans {
        assert!(
            span.dur_us.is_finite(),
            "{} (op {}) was never closed",
            span.name,
            span.op
        );
        if let Some(parent) = span.parent {
            let parent = &traced.spans[parent as usize];
            assert_eq!(parent.op, span.op);
            assert!(parent.start_us <= span.start_us);
            assert!(span.start_us + span.dur_us <= parent.start_us + parent.dur_us + 1e-3);
        }
    }
}
