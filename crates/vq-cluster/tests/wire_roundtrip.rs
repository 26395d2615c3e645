//! Property tests for the cluster protocol's wire codec.
//!
//! Every [`ClusterMsg`] variant must survive `to_bytes` → `from_bytes`
//! bit-exactly (including `UpsertBlock` columnar slabs and the
//! `SearchParams { rerank_depth, exact }` knobs), torn or corrupted
//! frames must be rejected rather than misread, and the
//! `approx_wire_bytes` estimate — which the cost model and
//! `fabric_bytes` accounting consume — must track the real encoded size
//! within ±25 % for every vector-bearing message shape.

use proptest::prelude::*;
use proptest::strategy::Union;
use std::sync::Arc;
use vq_cluster::{ClusterMsg, Request, Response, TraceContext, WorkerInfo};
use vq_collection::{CollectionStats, SearchParams, SearchRequest};
use vq_core::{Filter, Payload, PayloadValue, Point, PointBlock, ScoredPoint, VqError};
use vq_net::wire::{encode_frame, from_bytes, read_frame, to_bytes};
use vq_storage::SegmentSnapshot;

fn finite_f32() -> impl Strategy<Value = f32> {
    -1.0e6f32..1.0e6f32
}

fn payload_value() -> impl Strategy<Value = PayloadValue> {
    prop_oneof![
        "[a-z]{0,12}".prop_map(PayloadValue::Str),
        any::<i64>().prop_map(PayloadValue::Int),
        (-1.0e12f64..1.0e12).prop_map(PayloadValue::Float),
        any::<bool>().prop_map(PayloadValue::Bool),
        prop::collection::vec("[a-z]{1,8}", 0..3).prop_map(PayloadValue::Keywords),
    ]
}

fn payload() -> impl Strategy<Value = Payload> {
    prop::collection::btree_map("[a-z]{1,6}", payload_value(), 0..3).prop_map(Payload)
}

fn point_of_dim(dim: usize) -> impl Strategy<Value = Point> {
    (
        any::<u64>(),
        prop::collection::vec(finite_f32(), dim),
        payload(),
    )
        .prop_map(|(id, vector, payload)| Point::with_payload(id, vector, payload))
}

fn point() -> impl Strategy<Value = Point> {
    (1usize..8).prop_flat_map(point_of_dim)
}

fn point_block() -> impl Strategy<Value = Arc<PointBlock>> {
    (1usize..8, 1usize..10, any::<bool>()).prop_flat_map(|(dim, n, gather)| {
        prop::collection::vec(point_of_dim(dim), n).prop_map(move |pts| {
            let block = PointBlock::from_points(&pts).unwrap();
            if gather && block.len() > 1 {
                // A select view: non-contiguous rows exercise the codec's
                // per-row slab fallback.
                let rows: Vec<u32> = (0..block.len() as u32).step_by(2).collect();
                Arc::new(block.select(&rows))
            } else {
                Arc::new(block)
            }
        })
    })
}

fn filter() -> impl Strategy<Value = Filter> {
    prop::collection::vec(("[a-z]{1,6}", payload_value()), 0..3)
        .prop_map(|must| Filter { must })
}

fn search_request() -> impl Strategy<Value = SearchRequest> {
    (
        prop::collection::vec(finite_f32(), 1..16),
        1usize..32,
        prop::option::of(1usize..256),
        prop::option::of(filter()),
        any::<bool>(),
        prop::option::of(0usize..512),
        any::<bool>(),
    )
        .prop_map(
            |(vector, k, ef, filter, with_payload, rerank_depth, exact)| SearchRequest {
                vector,
                k,
                ef,
                filter,
                with_payload,
                params: SearchParams {
                    rerank_depth,
                    exact,
                },
            },
        )
}

fn queries() -> impl Strategy<Value = Arc<[SearchRequest]>> {
    prop::collection::vec(search_request(), 1..4).prop_map(Arc::from)
}

fn scored_point() -> impl Strategy<Value = ScoredPoint> {
    (any::<u64>(), finite_f32(), prop::option::of(payload())).prop_map(
        |(id, score, payload)| ScoredPoint {
            id,
            score,
            payload,
        },
    )
}

fn result_lists() -> impl Strategy<Value = Vec<Vec<ScoredPoint>>> {
    prop::collection::vec(prop::collection::vec(scored_point(), 0..5), 0..3)
}

fn segment_snapshot() -> impl Strategy<Value = SegmentSnapshot> {
    (1usize..6, any::<bool>(), 0usize..5).prop_flat_map(|(dim, sealed, rows)| {
        (
            prop::collection::vec(finite_f32(), rows * dim),
            prop::collection::vec(
                (any::<u64>(), any::<u32>(), any::<bool>(), any::<u64>()),
                rows,
            ),
            prop::collection::vec(payload(), rows),
        )
            .prop_map(move |(vectors, ids, payloads)| SegmentSnapshot {
                dim,
                sealed,
                vectors,
                ids,
                payloads,
            })
    })
}

fn vq_error() -> impl Strategy<Value = VqError> {
    prop_oneof![
        (1usize..4096, 1usize..4096)
            .prop_map(|(expected, got)| VqError::DimensionMismatch { expected, got }),
        any::<u64>().prop_map(VqError::PointNotFound),
        "[a-z]{0,10}".prop_map(VqError::CollectionNotFound),
        any::<u32>().prop_map(VqError::ShardNotFound),
        Just(VqError::NoAvailableWorker),
        "[a-z]{0,10}".prop_map(VqError::InvalidRequest),
        "[a-z]{0,10}".prop_map(VqError::Corruption),
        "[a-z]{0,10}".prop_map(VqError::Network),
        "[a-z]{0,10}".prop_map(|device| VqError::OutOfMemory { device }),
        Just(VqError::Timeout),
    ]
}

fn worker_info() -> impl Strategy<Value = WorkerInfo> {
    (
        (any::<u32>(), any::<u32>(), prop::collection::vec(any::<u32>(), 0..5)),
        prop::collection::vec(any::<u64>(), 9),
    )
        .prop_map(|((worker, node, shards), c)| WorkerInfo {
            worker,
            node,
            shards,
            upsert_batches: c[0],
            points_written: c[1],
            search_batches: c[2],
            queries_served: c[3],
            coordinations: c[4],
            coordinator_saturations: c[5],
            upsert_nanos: c[6],
            search_nanos: c[7],
            coordination_nanos: c[8],
        })
}

fn collection_stats() -> impl Strategy<Value = CollectionStats> {
    prop::collection::vec(0usize..1 << 40, 11).prop_map(|v| CollectionStats {
        segments: v[0],
        sealed_segments: v[1],
        indexed_segments: v[2],
        live_points: v[3],
        total_offsets: v[4],
        indexed_points: v[5],
        approx_bytes: v[6],
        quantized_segments: v[7],
        quantized_resident_bytes: v[8],
        quantized_full_bytes: v[9],
        ..Default::default()
    })
}

fn request() -> impl Strategy<Value = Request> {
    let arms: Vec<BoxedStrategy<Request>> = vec![
        (any::<u32>(), point_block())
            .prop_map(|(shard, block)| Request::UpsertBlock { shard, block })
            .boxed(),
        (any::<u32>(), any::<u64>())
            .prop_map(|(shard, id)| Request::Delete { shard, id })
            .boxed(),
        (any::<u32>(), any::<u64>())
            .prop_map(|(shard, id)| Request::Get { shard, id })
            .boxed(),
        queries()
            .prop_map(|queries| Request::SearchBatch { queries })
            .boxed(),
        queries()
            .prop_map(|queries| Request::LocalSearchBatch { queries })
            .boxed(),
        (prop::option::of(any::<u32>()), prop::option::of(filter()))
            .prop_map(|(shard, filter)| Request::Count { shard, filter })
            .boxed(),
        (
            prop::option::of(any::<u64>()),
            0usize..1 << 40,
            prop::option::of(filter()),
        )
            .prop_map(|(after, limit, filter)| Request::Scroll {
                after,
                limit,
                filter,
            })
            .boxed(),
        Just(Request::SealAll).boxed(),
        Just(Request::BuildIndexes).boxed(),
        Just(Request::Quantize).boxed(),
        Just(Request::Stats).boxed(),
        Just(Request::WorkerInfo).boxed(),
        (any::<u32>(), any::<u32>())
            .prop_map(|(shard, to)| Request::TransferShard { shard, to })
            .boxed(),
        any::<u32>().prop_map(|shard| Request::DropShard { shard }).boxed(),
        any::<u32>().prop_map(|shard| Request::ExportShard { shard }).boxed(),
        (any::<u32>(), prop::collection::vec(segment_snapshot(), 0..3))
            .prop_map(|(shard, segments)| Request::InstallShard { shard, segments })
            .boxed(),
        Just(Request::Ping).boxed(),
        Just(Request::Shutdown).boxed(),
    ];
    Union::new(arms)
}

fn response() -> impl Strategy<Value = Response> {
    let arms: Vec<BoxedStrategy<Response>> = vec![
        Just(Response::Ok).boxed(),
        prop::option::of(point()).prop_map(Response::Point).boxed(),
        (result_lists(), prop::collection::vec(any::<u32>(), 0..3))
            .prop_map(|(results, degraded)| Response::Results { results, degraded })
            .boxed(),
        result_lists().prop_map(Response::Partials).boxed(),
        (0usize..1 << 40).prop_map(Response::Built).boxed(),
        collection_stats().prop_map(Response::Stats).boxed(),
        worker_info().prop_map(Response::WorkerInfo).boxed(),
        prop::collection::vec(segment_snapshot(), 0..3)
            .prop_map(Response::Segments)
            .boxed(),
        (0usize..1 << 40).prop_map(Response::Count).boxed(),
        prop::collection::vec(point(), 0..5).prop_map(Response::Points).boxed(),
        vq_error().prop_map(Response::Error).boxed(),
    ];
    Union::new(arms)
}

fn trace_context() -> impl Strategy<Value = Option<TraceContext>> {
    prop::option::of((any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
        |(trace_id, span_id, sampled)| TraceContext {
            trace_id,
            span_id,
            sampled,
        },
    ))
}

fn cluster_msg() -> impl Strategy<Value = ClusterMsg> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), trace_context(), request()).prop_map(
            |(reply_to, tag, trace, body)| ClusterMsg::Request {
                reply_to,
                tag,
                trace,
                body,
            }
        ),
        (any::<u64>(), response())
            .prop_map(|(tag, body)| ClusterMsg::Response { tag, body }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(worker, seq)| ClusterMsg::Heartbeat { worker, seq }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_cluster_msg_roundtrips(msg in cluster_msg()) {
        let bytes = to_bytes(&msg).unwrap();
        let back: ClusterMsg = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn frames_roundtrip_and_reject_damage(msg in cluster_msg(), cut in any::<prop::sample::Index>()) {
        let payload = to_bytes(&msg).unwrap();
        let frame = encode_frame(&payload);

        // The intact frame decodes to the identical message.
        let mut r = std::io::Cursor::new(frame.clone());
        let got = read_frame(&mut r).unwrap().expect("one frame present");
        let back: ClusterMsg = from_bytes(&got).unwrap();
        prop_assert_eq!(&back, &msg);
        // ...and the stream is cleanly empty afterwards.
        prop_assert!(read_frame(&mut r).unwrap().is_none());

        // Torn anywhere strictly inside the frame: an error, never a
        // misread message.
        let cut = 1 + cut.index(frame.len() - 1);
        let mut torn = std::io::Cursor::new(frame[..cut].to_vec());
        prop_assert!(read_frame(&mut torn).is_err());

        // Garbage prefix (corrupted magic) is rejected up front.
        let mut bad_magic = frame.clone();
        bad_magic[0] ^= 0xFF;
        prop_assert!(read_frame(&mut std::io::Cursor::new(bad_magic)).is_err());

        // A flipped payload byte fails the CRC.
        let mut bad_crc = frame.clone();
        let last = bad_crc.len() - 1;
        bad_crc[last] ^= 0x01;
        prop_assert!(read_frame(&mut std::io::Cursor::new(bad_crc)).is_err());
    }
}

/// `approx_wire_bytes` must stay within ±25 % of the real encoded size
/// for every vector-bearing message shape (the doc-comment contract on
/// `ClusterMsg::approx_wire_bytes`).
#[test]
fn approx_wire_bytes_tracks_real_encoding() {
    let dim = 256;
    let points: Vec<Point> = (0..32)
        .map(|i| Point::new(i, vec![0.25 + i as f32; dim]))
        .collect();
    let block = Arc::new(PointBlock::from_points(&points).unwrap());
    let queries: Arc<[SearchRequest]> = (0..8)
        .map(|i| SearchRequest::new(vec![i as f32; dim], 10))
        .collect::<Vec<_>>()
        .into();
    let hits: Vec<Vec<ScoredPoint>> = (0u32..4)
        .map(|q| {
            (0u32..32)
                .map(|i| ScoredPoint::new(u64::from(q * 32 + i), 0.5 + i as f32))
                .collect()
        })
        .collect();
    let segments = vec![SegmentSnapshot {
        dim: 64,
        sealed: true,
        vectors: vec![0.5; 64 * 64],
        ids: (0u32..64).map(|i| (u64::from(i), i, true, 1)).collect(),
        payloads: vec![Payload::new(); 64],
    }];

    let req = |body| ClusterMsg::Request {
        reply_to: 9,
        tag: 7,
        trace: Some(TraceContext {
            trace_id: 0xDEAD_BEEF_0042,
            span_id: 3,
            sampled: true,
        }),
        body,
    };
    let cases: Vec<(&str, ClusterMsg)> = vec![
        (
            "upsert_block",
            req(Request::UpsertBlock {
                shard: 0,
                block: block.clone(),
            }),
        ),
        (
            "search_batch",
            req(Request::SearchBatch {
                queries: queries.clone(),
            }),
        ),
        (
            "install_shard",
            req(Request::InstallShard {
                shard: 1,
                segments: segments.clone(),
            }),
        ),
        (
            "results",
            ClusterMsg::Response {
                tag: 7,
                body: Response::Results {
                    results: hits.clone(),
                    degraded: vec![],
                },
            },
        ),
        (
            "points_page",
            ClusterMsg::Response {
                tag: 7,
                body: Response::Points(points.clone()),
            },
        ),
    ];
    for (name, msg) in cases {
        let real = to_bytes(&msg).unwrap().len() as f64;
        let approx = msg.approx_wire_bytes() as f64;
        let ratio = approx / real;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "{name}: approx {approx} vs real {real} (ratio {ratio:.3})"
        );
    }
}

/// The trace-context envelope field survives the full frame path —
/// encode, frame, read, decode — with ids intact, and a torn frame
/// carrying a traced request is rejected rather than misread.
#[test]
fn trace_context_survives_framing_and_rejects_torn_frames() {
    let msg = ClusterMsg::Request {
        reply_to: 3,
        tag: 41,
        trace: Some(TraceContext {
            trace_id: 0x1234_5678_9ABC_DEF0,
            span_id: 77,
            sampled: true,
        }),
        body: Request::SearchBatch {
            queries: vec![SearchRequest::new(vec![0.5; 64], 10)].into(),
        },
    };
    let payload = to_bytes(&msg).unwrap();
    let frame = encode_frame(&payload);

    let mut r = std::io::Cursor::new(frame.clone());
    let got = read_frame(&mut r).unwrap().expect("one frame");
    let back: ClusterMsg = from_bytes(&got).unwrap();
    match &back {
        ClusterMsg::Request { trace, .. } => {
            let trace = trace.expect("trace context survives the wire");
            assert_eq!(trace.trace_id, 0x1234_5678_9ABC_DEF0);
            assert_eq!(trace.span_id, 77);
            assert!(trace.sampled);
        }
        other => panic!("decoded wrong variant: {other:?}"),
    }
    assert_eq!(back, msg);

    // Torn mid-trace-context (and everywhere else inside the frame):
    // an error, never a silently trace-less request.
    for cut in 1..frame.len() {
        let mut torn = std::io::Cursor::new(frame[..cut].to_vec());
        assert!(read_frame(&mut torn).is_err(), "cut at {cut} must fail");
    }
}

/// Heartbeat beacons survive the full frame path bit-exactly, and the
/// size estimate the fabric accounting charges for a beacon stays in
/// the right ballpark.
#[test]
fn heartbeat_roundtrips_through_a_frame() {
    use vq_net::wire::WIRE_VERSION;

    let msg = ClusterMsg::Heartbeat {
        worker: 2,
        seq: 0xFEED_5EED,
    };
    let payload = to_bytes(&msg).unwrap();
    let frame = encode_frame(&payload);
    assert_eq!(frame[4], WIRE_VERSION);

    let mut r = std::io::Cursor::new(frame);
    let got = read_frame(&mut r).unwrap().expect("one frame");
    let back: ClusterMsg = from_bytes(&got).unwrap();
    assert_eq!(back, msg);

    // Beacons are tiny and constant-size: the estimate must not be off
    // by more than 2x in either direction, or per-edge fabric-byte
    // attribution would drown in heartbeat noise.
    let real = payload.len() as f64;
    let approx = msg.approx_wire_bytes() as f64;
    let ratio = approx / real;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "heartbeat: approx {approx} vs real {real} (ratio {ratio:.3})"
    );
}

/// A request envelope with no `trace` entry in its map still decodes:
/// the field falls back to `None` via `#[serde(default)]` (the codec
/// encodes structs field-by-name).
#[test]
fn envelope_without_trace_field_decodes() {
    #[derive(serde::Serialize)]
    enum TracelessClusterMsg {
        Request {
            reply_to: u32,
            tag: u64,
            body: Request,
        },
    }

    let payload = to_bytes(&TracelessClusterMsg::Request {
        reply_to: 5,
        tag: 99,
        body: Request::Ping,
    })
    .unwrap();
    let back: ClusterMsg = from_bytes(&payload).unwrap();
    assert_eq!(
        back,
        ClusterMsg::Request {
            reply_to: 5,
            tag: 99,
            trace: None,
            body: Request::Ping,
        }
    );
}
