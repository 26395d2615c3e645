//! Property-based equivalence of block granularity: for arbitrary
//! point sets (duplicate ids, ragged final segments, every metric), a
//! collection fed one point per `upsert` and one fed the same points as
//! a single columnar `upsert_block` must hold *bit-identical* segment
//! state — same segment boundaries, same arena bytes, same id
//! rows, same payload columns — and answer searches identically both on
//! the flat path (unsealed scan) and through HNSW after an index build.
//!
//! This is the proof obligation of the ingest path: a block is a
//! wire/WAL/arena representation, never a change of semantics — how
//! rows are grouped into blocks must not be observable.

use proptest::prelude::*;
use vq_collection::{CollectionConfig, LocalCollection, SearchRequest};
use vq_core::{Distance, Payload, Point, PointBlock};

fn arb_points(dim: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0u64..24, prop::collection::vec(-8.0f32..8.0, dim), 0i64..100),
        0..60,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(id, v, tag)| {
                let mut p = Point::new(id, v);
                p.payload = Payload::from_pairs([("tag", tag)]);
                p
            })
            .collect()
    })
}

fn arb_metric() -> impl Strategy<Value = Distance> {
    prop_oneof![
        Just(Distance::Euclid),
        Just(Distance::Cosine),
        Just(Distance::Dot),
    ]
}

/// Assert two collections hold bit-identical segment state.
fn assert_same_segments(a: &LocalCollection, b: &LocalCollection) {
    let sa = a.export_segments();
    let sb = b.export_segments();
    assert_eq!(sa.len(), sb.len(), "segment count");
    for (i, (x, y)) in sa.iter().zip(&sb).enumerate() {
        assert_eq!(x.dim, y.dim, "segment {i} dim");
        assert_eq!(x.sealed, y.sealed, "segment {i} sealed");
        let xb: Vec<u32> = x.vectors.iter().map(|f| f.to_bits()).collect();
        let yb: Vec<u32> = y.vectors.iter().map(|f| f.to_bits()).collect();
        assert_eq!(xb, yb, "segment {i} arena bytes");
        assert_eq!(x.ids, y.ids, "segment {i} id rows");
        assert_eq!(x.payloads, y.payloads, "segment {i} payloads");
    }
}

/// Assert two collections answer `queries` identically (ids and score
/// bits).
fn assert_same_results(a: &LocalCollection, b: &LocalCollection, queries: &[Vec<f32>], k: usize) {
    for (qi, q) in queries.iter().enumerate() {
        let req = SearchRequest::new(q.clone(), k);
        let ra = a.search(&req).unwrap();
        let rb = b.search(&req).unwrap();
        let ka: Vec<(u64, u32)> = ra.iter().map(|h| (h.id, h.score.to_bits())).collect();
        let kb: Vec<(u64, u32)> = rb.iter().map(|h| (h.id, h.score.to_bits())).collect();
        assert_eq!(ka, kb, "query {qi}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn block_and_one_point_ingest_are_bit_identical(
        dim in 2usize..5,
        seg in 3usize..17,
        metric in arb_metric(),
        points in arb_points(4),
    ) {
        // `arb_points` generated at dim 4; truncate rows to the sampled
        // dim so segment-roll and metric behavior vary independently of
        // the value stream.
        let points: Vec<Point> = points
            .into_iter()
            .map(|mut p| {
                p.vector.truncate(dim);
                p
            })
            .collect();
        let config = CollectionConfig::new(dim, metric).max_segment_points(seg);

        let per_point = LocalCollection::new(config);
        for p in &points {
            per_point.upsert(p.clone()).unwrap();
        }

        let block = PointBlock::from_points(&points).unwrap();
        let columnar = LocalCollection::new(config);
        // (Empty blocks are a no-op regardless of their placeholder dim.)
        columnar.upsert_block(&block).unwrap();

        prop_assert_eq!(per_point.len(), columnar.len());
        assert_same_segments(&per_point, &columnar);

        // Flat path: unsealed segments are scanned exactly.
        let queries: Vec<Vec<f32>> = points.iter().take(6).map(|p| p.vector.clone()).collect();
        assert_same_results(&per_point, &columnar, &queries, 5);

        // HNSW path: seal everything, force index builds, search again.
        per_point.seal_active();
        columnar.seal_active();
        let built_a = per_point.build_all_indexes().unwrap();
        let built_b = columnar.build_all_indexes().unwrap();
        prop_assert_eq!(built_a, built_b, "same segments must build the same indexes");
        assert_same_segments(&per_point, &columnar);
        assert_same_results(&per_point, &columnar, &queries, 5);
    }
}
