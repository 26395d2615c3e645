//! Property-based tests for storage: WAL codec totality, replay-equals-
//! live-state, id-tracker-vs-model, arena-vs-Vec.

use proptest::prelude::*;
use vq_core::{Payload, PayloadValue, Point, PointBlock, PointId};
use vq_storage::{PagedArena, SegmentStore, Wal, WalRecord};

fn arb_payload_value() -> impl Strategy<Value = PayloadValue> {
    prop_oneof![
        ".{0,12}".prop_map(PayloadValue::Str),
        any::<i64>().prop_map(PayloadValue::Int),
        (-1e9f64..1e9).prop_map(PayloadValue::Float),
        any::<bool>().prop_map(PayloadValue::Bool),
        prop::collection::vec("[a-z]{0,6}", 0..4).prop_map(PayloadValue::Keywords),
    ]
}

fn arb_point(dim: usize) -> impl Strategy<Value = Point> {
    (
        0u64..50,
        prop::collection::vec(-100.0f32..100.0, dim),
        prop::collection::btree_map("[a-e]{1,3}", arb_payload_value(), 0..4),
    )
        .prop_map(|(id, vector, kv)| Point::with_payload(id, vector, Payload(kv)))
}

/// The WAL record for one upserted point: a one-row block.
fn upsert_record(p: &Point) -> WalRecord {
    WalRecord::UpsertBlock(PointBlock::from_points(std::slice::from_ref(p)).unwrap())
}

/// A random mutation against a segment store.
#[derive(Debug, Clone)]
enum Op {
    Upsert(Point),
    Delete(PointId),
}

fn arb_op(dim: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_point(dim).prop_map(Op::Upsert),
        1 => (0u64..50).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wal_record_codec_total(p in arb_point(7)) {
        for rec in [
            upsert_record(&p),
            WalRecord::Delete(p.id),
            WalRecord::SealSegment { segment_seq: p.id },
            WalRecord::IndexBuilt { segment_seq: p.id },
        ] {
            let enc = rec.encode();
            prop_assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
        }
    }

    #[test]
    fn wal_decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary payloads must either decode or error — never panic.
        let _ = WalRecord::decode(&bytes);
    }

    #[test]
    fn replay_equals_live_state(ops in prop::collection::vec(arb_op(5), 0..60)) {
        let mut wal = Wal::in_memory();
        let mut live = SegmentStore::new(5);
        for op in &ops {
            let rec = match op {
                Op::Upsert(p) => upsert_record(p),
                Op::Delete(id) => WalRecord::Delete(*id),
            };
            // Apply to live state first; journal only successful ops
            // (deletes of absent ids fail and must not be replayed).
            if live.apply(rec.clone()).is_ok() {
                wal.append(&rec).unwrap();
            }
        }
        let mut recovered = SegmentStore::new(5);
        for rec in wal.replay().unwrap() {
            recovered.apply(rec).unwrap();
        }
        prop_assert_eq!(recovered.live_count(), live.live_count());
        prop_assert_eq!(recovered.total_offsets(), live.total_offsets());
        for id in 0..50u64 {
            prop_assert_eq!(recovered.get(id), live.get(id), "id {}", id);
        }
    }

    #[test]
    fn snapshot_restore_equals_source(ops in prop::collection::vec(arb_op(4), 0..60)) {
        let mut live = SegmentStore::new(4);
        for op in ops {
            let _ = match op {
                Op::Upsert(p) => live.upsert(p),
                Op::Delete(id) => live.delete(id),
            };
        }
        let restored = SegmentStore::restore(&live.snapshot()).unwrap();
        prop_assert_eq!(restored.live_count(), live.live_count());
        for id in 0..50u64 {
            prop_assert_eq!(restored.get(id), live.get(id), "id {}", id);
        }
    }

    #[test]
    fn id_tracker_matches_hashmap_model(ops in prop::collection::vec(arb_op(1), 0..80)) {
        use std::collections::HashMap;
        let mut store = SegmentStore::new(1);
        let mut model: HashMap<PointId, Vec<f32>> = HashMap::new();
        for op in ops {
            match op {
                Op::Upsert(p) => {
                    let id = p.id;
                    let v = p.vector.clone();
                    if store.upsert(p).is_ok() {
                        model.insert(id, v);
                    }
                }
                Op::Delete(id) => {
                    let ours = store.delete(id);
                    let theirs = model.remove(&id);
                    prop_assert_eq!(ours.is_ok(), theirs.is_some(), "delete {}", id);
                }
            }
        }
        prop_assert_eq!(store.live_count(), model.len());
        for (id, v) in &model {
            prop_assert_eq!(&store.get(*id).unwrap().vector, v);
        }
    }

    #[test]
    fn arena_matches_vec_model(
        vectors in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 3), 0..50),
        page in 1usize..8
    ) {
        let mut arena = PagedArena::with_page_vectors(3, page);
        for v in &vectors {
            arena.push(v).unwrap();
        }
        prop_assert_eq!(arena.len(), vectors.len());
        for (i, v) in vectors.iter().enumerate() {
            prop_assert_eq!(arena.get(i as u32), v.as_slice());
        }
        // Flat roundtrip preserves everything.
        let rebuilt = PagedArena::from_flat(3, &arena.to_flat()).unwrap();
        for i in 0..vectors.len() as u32 {
            prop_assert_eq!(rebuilt.get(i), arena.get(i));
        }
    }

    #[test]
    fn flat_search_over_pages_equals_dense(
        vectors in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 5), 1..60),
        query in prop::collection::vec(-10.0f32..10.0, 5),
        page in 1usize..9,
        k in 1usize..12
    ) {
        // End-to-end check of the blocked scoring path: a flat scan over
        // a PagedArena (blocks end at page boundaries, the last one
        // usually partial) must return exactly what a scan over the same
        // data in one dense slab returns. Exercises
        // `contiguous_block` stitching across arbitrary page sizes.
        use vq_index::{source::DenseVectors, FlatIndex, VectorSource};
        let mut arena = PagedArena::with_page_vectors(5, page);
        let mut dense = DenseVectors::new(5);
        for v in &vectors {
            arena.push(v).unwrap();
            dense.push(v);
        }
        prop_assert_eq!(arena.len(), dense.len());
        for metric in [
            vq_core::Distance::Dot,
            vq_core::Distance::Euclid,
            vq_core::Distance::Manhattan,
        ] {
            let idx = FlatIndex::new(metric);
            let got = idx.search(&arena, &query, k, None);
            let want = idx.search(&dense, &query, k, None);
            prop_assert_eq!(got, want, "metric {} page {}", metric, page);
        }
    }

    #[test]
    fn wal_survives_torn_tails(
        points in prop::collection::vec(arb_point(3), 1..10),
        cut in 1usize..64
    ) {
        // Re-create the framing independently (this doubles as a check
        // of the on-disk format), truncate mid-frame, and replay: the
        // result must be a prefix of the appended records — never an
        // error or a phantom record.
        use vq_storage::wal::{MemBackend, WalBackend};
        let records: Vec<WalRecord> = points.iter().map(upsert_record).collect();
        let mut full = Vec::new();
        for r in &records {
            let payload = r.encode();
            full.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            full.extend_from_slice(&vq_storage::crc::crc32(&payload).to_le_bytes());
            full.extend_from_slice(&payload);
        }
        let cut_at = full.len().saturating_sub(cut % full.len().max(1));
        let mut torn = MemBackend::new();
        torn.append(&full[..cut_at]).unwrap();
        let replayed = Wal::with_backend(Box::new(torn)).replay().unwrap();
        prop_assert!(replayed.len() <= records.len());
        for (got, want) in replayed.iter().zip(&records) {
            prop_assert_eq!(got, want);
        }
    }
}
