//! Segment storage: the durable state of one segment.
//!
//! A segment store composes the vector arena, the id tracker, and the
//! payload column, and applies logical mutations ([`WalRecord`]s) to them
//! in one place — both on the live write path and during WAL replay, so
//! recovery is by construction the same code as normal operation.
//!
//! Snapshots serialize the whole store into a [`SegmentSnapshot`] (a serde
//! manifest plus a flat vector blob); restoring one and replaying the WAL
//! tail reproduces the exact pre-crash state.

use crate::arena::PagedArena;
use crate::id_tracker::IdTracker;
use crate::payload_index::PayloadIndex;
use crate::payload_store::PayloadStore;
use crate::wal::WalRecord;
use serde::{Deserialize, Serialize};
use vq_core::{Payload, Point, PointBlock, PointId, VqError, VqResult};

/// Storage of one segment (vectors + ids + payloads + payload index).
#[derive(Debug)]
pub struct SegmentStore {
    arena: PagedArena,
    ids: IdTracker,
    payloads: PayloadStore,
    payload_index: PayloadIndex,
    sealed: bool,
}

impl SegmentStore {
    /// Empty store for `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        SegmentStore {
            arena: PagedArena::new(dim),
            ids: IdTracker::new(),
            payloads: PayloadStore::new(),
            payload_index: PayloadIndex::new(),
            sealed: false,
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.arena.dim()
    }

    /// Live point count.
    pub fn live_count(&self) -> usize {
        self.ids.live_count()
    }

    /// Total offsets (live + tombstoned) — the size indexes see.
    pub fn total_offsets(&self) -> usize {
        self.ids.total_offsets()
    }

    /// Whether the segment has been sealed (no further writes).
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Seal the segment: subsequent mutations are rejected.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Fraction of tombstoned offsets.
    pub fn tombstone_ratio(&self) -> f64 {
        self.ids.tombstone_ratio()
    }

    /// Approximate stored bytes (vectors live+dead, plus payloads).
    pub fn approx_bytes(&self) -> usize {
        self.arena.len() * self.dim() * 4 + self.payloads.approx_bytes()
    }

    /// Insert or replace one point: the storage-level reference
    /// [`Self::upsert_block`] is tested against (and what segment
    /// rewrites use); collection writes arrive as blocks.
    pub fn upsert(&mut self, point: Point) -> VqResult<()> {
        if self.sealed {
            return Err(VqError::InvalidRequest("segment is sealed".into()));
        }
        let offset = self.arena.push(&point.vector)?;
        self.payload_index.insert(offset, &point.payload);
        let pay_offset = self.payloads.push(point.payload);
        debug_assert_eq!(offset, pay_offset);
        self.ids.bind(point.id, offset)?;
        Ok(())
    }

    /// Bulk insert-or-replace a columnar block: one page-granular arena
    /// copy (when the view is contiguous), one reserved extension of the
    /// payload column, one bulk id bind. The resulting state is
    /// row-for-row identical to calling [`Self::upsert`] with each of the
    /// block's points in view order. Returns the offset of the block's
    /// first row.
    pub fn upsert_block(&mut self, block: &PointBlock) -> VqResult<u32> {
        if self.sealed {
            return Err(VqError::InvalidRequest("segment is sealed".into()));
        }
        let first = self.arena.len() as u32;
        if block.is_empty() {
            return Ok(first);
        }
        if block.dim() != self.dim() {
            return Err(VqError::DimensionMismatch {
                expected: self.dim(),
                got: block.dim(),
            });
        }
        match block.as_contiguous() {
            Some(slab) => {
                self.arena.extend_from_slab(slab)?;
            }
            None => {
                for i in 0..block.len() {
                    self.arena.push(block.vector(i))?;
                }
            }
        }
        let mut ids = Vec::with_capacity(block.len());
        for i in 0..block.len() {
            let offset = first + i as u32;
            let payload = block.payload(i);
            self.payload_index.insert(offset, payload);
            let pay_offset = self.payloads.push(payload.clone());
            debug_assert_eq!(offset, pay_offset);
            ids.push(block.id(i));
        }
        let bound_first = self.ids.bind_block(&ids)?;
        debug_assert_eq!(first, bound_first);
        Ok(first)
    }

    /// Normalize the stored vectors at offsets `[first, first + n)` in
    /// place. The cosine ingest path bulk-copies raw block slabs and then
    /// fixes them up here, row by row, so the resulting bits do not
    /// depend on how rows were grouped into blocks.
    pub fn normalize_range(&mut self, first: u32, n: usize) -> VqResult<()> {
        if self.sealed {
            return Err(VqError::InvalidRequest("segment is sealed".into()));
        }
        for offset in first..first + n as u32 {
            vq_core::vector::normalize_in_place(self.arena.vector_mut(offset)?);
        }
        Ok(())
    }

    /// The inverted payload index (prefiltered search).
    pub fn payload_index(&self) -> &PayloadIndex {
        &self.payload_index
    }

    /// Delete a point by id. Allowed on sealed segments too: a tombstone
    /// does not grow storage, so sealing (which freezes the vector arena)
    /// does not block it.
    pub fn delete(&mut self, id: PointId) -> VqResult<()> {
        self.ids.delete(id)?;
        Ok(())
    }

    /// Apply a logical WAL record (live path and replay share this).
    pub fn apply(&mut self, record: WalRecord) -> VqResult<()> {
        match record {
            WalRecord::UpsertBlock(b) => self.upsert_block(&b).map(|_| ()),
            WalRecord::Delete(id) => self.delete(id),
            // Segment-lifecycle markers are interpreted a level up (the
            // shard); storage ignores them.
            WalRecord::SealSegment { .. } | WalRecord::IndexBuilt { .. } => Ok(()),
        }
    }

    /// Fetch a live point by id.
    pub fn get(&self, id: PointId) -> Option<Point> {
        let offset = self.ids.offset_of(id)?;
        Some(Point::with_payload(
            id,
            self.arena.get(offset).to_vec(),
            self.payloads.get(offset).clone(),
        ))
    }

    /// Payload at a storage offset (for filters during search).
    pub fn payload_at(&self, offset: u32) -> &Payload {
        self.payloads.get(offset)
    }

    /// Id at a storage offset.
    pub fn id_at(&self, offset: u32) -> Option<PointId> {
        self.ids.id_at(offset)
    }

    /// Whether the offset holds the live copy of its point.
    pub fn is_live(&self, offset: u32) -> bool {
        self.ids.is_live(offset)
    }

    /// The vector arena (the [`vq_index::VectorSource`] indexes build over).
    pub fn arena(&self) -> &PagedArena {
        &self.arena
    }

    /// Iterate live points (id order = offset order).
    pub fn iter_live(&self) -> impl Iterator<Item = (PointId, u32)> + '_ {
        self.ids.iter_live()
    }

    /// Serialize to a snapshot.
    pub fn snapshot(&self) -> SegmentSnapshot {
        SegmentSnapshot {
            dim: self.dim(),
            sealed: self.sealed,
            vectors: self.arena.to_flat(),
            ids: self.ids.export(),
            payloads: self.payloads.export().to_vec(),
        }
    }

    /// Restore from a snapshot.
    pub fn restore(snapshot: &SegmentSnapshot) -> VqResult<Self> {
        let arena = PagedArena::from_flat(snapshot.dim, &snapshot.vectors)?;
        let ids = IdTracker::import(&snapshot.ids)?;
        if ids.total_offsets() != arena.len() || snapshot.payloads.len() != arena.len() {
            return Err(VqError::Corruption(format!(
                "snapshot column mismatch: {} vectors, {} ids, {} payloads",
                arena.len(),
                ids.total_offsets(),
                snapshot.payloads.len()
            )));
        }
        // The inverted index is derived data: rebuild it from the column.
        let mut payload_index = PayloadIndex::new();
        for (offset, payload) in snapshot.payloads.iter().enumerate() {
            payload_index.insert(offset as u32, payload);
        }
        Ok(SegmentStore {
            arena,
            ids,
            payloads: PayloadStore::import(snapshot.payloads.clone()),
            payload_index,
            sealed: snapshot.sealed,
        })
    }
}

/// Serialized form of a [`SegmentStore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentSnapshot {
    /// Vector dimensionality.
    pub dim: usize,
    /// Seal state.
    pub sealed: bool,
    /// Flat vector blob, offset-major.
    pub vectors: Vec<f32>,
    /// Id tracker rows `(id, offset, live, version)`.
    pub ids: Vec<(PointId, u32, bool, u64)>,
    /// Payload column in offset order.
    pub payloads: Vec<Payload>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Wal;

    /// A one-row block record.
    fn upsert_record(p: Point) -> WalRecord {
        WalRecord::UpsertBlock(vq_core::PointBlock::from_points(&[p]).unwrap())
    }

    fn point(id: PointId, x: f32) -> Point {
        Point::with_payload(
            id,
            vec![x, x + 1.0],
            Payload::from_pairs([("x", x as f64)]),
        )
    }

    #[test]
    fn upsert_get_delete() {
        let mut s = SegmentStore::new(2);
        s.upsert(point(1, 0.0)).unwrap();
        s.upsert(point(2, 5.0)).unwrap();
        assert_eq!(s.live_count(), 2);
        assert_eq!(s.get(1).unwrap().vector, vec![0.0, 1.0]);
        s.delete(1).unwrap();
        assert_eq!(s.get(1), None);
        assert_eq!(s.live_count(), 1);
        assert_eq!(s.total_offsets(), 2);
    }

    #[test]
    fn upsert_replaces_vector() {
        let mut s = SegmentStore::new(2);
        s.upsert(point(1, 0.0)).unwrap();
        s.upsert(point(1, 9.0)).unwrap();
        assert_eq!(s.get(1).unwrap().vector, vec![9.0, 10.0]);
        assert_eq!(s.live_count(), 1);
        assert_eq!(s.total_offsets(), 2);
        assert!(s.tombstone_ratio() > 0.0);
    }

    #[test]
    fn sealed_rejects_upserts_but_allows_deletes() {
        let mut s = SegmentStore::new(2);
        s.upsert(point(1, 0.0)).unwrap();
        s.seal();
        assert!(s.is_sealed());
        assert!(s.upsert(point(2, 1.0)).is_err());
        assert!(s.get(1).is_some(), "reads still work");
        s.delete(1).unwrap();
        assert_eq!(s.get(1), None, "tombstoning a sealed segment is allowed");
    }

    #[test]
    fn upsert_block_matches_per_point_upserts() {
        let points: Vec<Point> = (0..10).map(|i| point(i, i as f32)).collect();
        // Include an in-block upsert (duplicate id) to exercise tombstones.
        let mut points = points;
        points.push(point(3, 99.0));
        let block = vq_core::PointBlock::from_points(&points).unwrap();

        let mut via_block = SegmentStore::new(2);
        via_block.upsert(point(3, -1.0)).unwrap(); // pre-existing id 3
        assert_eq!(via_block.upsert_block(&block).unwrap(), 1);

        let mut via_points = SegmentStore::new(2);
        via_points.upsert(point(3, -1.0)).unwrap();
        for p in &points {
            via_points.upsert(p.clone()).unwrap();
        }

        let a = via_block.snapshot();
        let b = via_points.snapshot();
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.payloads, b.payloads);
        assert_eq!(via_block.get(3).unwrap().vector, vec![99.0, 100.0]);
    }

    #[test]
    fn upsert_block_gather_view_and_errors() {
        let points: Vec<Point> = (0..6).map(|i| point(i, i as f32)).collect();
        let block = vq_core::PointBlock::from_points(&points).unwrap();
        let mut s = SegmentStore::new(2);
        // Gather view takes the non-contiguous fallback path.
        s.upsert_block(&block.select(&[4, 0, 2])).unwrap();
        assert_eq!(s.live_count(), 3);
        assert_eq!(s.get(4).unwrap().vector, vec![4.0, 5.0]);
        assert_eq!(s.id_at(0), Some(4));
        // Wrong dimensionality is all-or-nothing.
        let bad = vq_core::PointBlock::from_points(&[Point::new(9, vec![0.0; 3])]).unwrap();
        assert!(matches!(
            s.upsert_block(&bad),
            Err(VqError::DimensionMismatch { expected: 2, got: 3 })
        ));
        assert_eq!(s.total_offsets(), 3, "failed block must not grow columns");
        // Sealed segments reject blocks like they reject points.
        s.seal();
        assert!(s.upsert_block(&block).is_err());
        // Empty blocks are a no-op even with a foreign dim.
        let mut open = SegmentStore::new(2);
        let empty = vq_core::PointBlock::from_points(&[]).unwrap();
        assert_eq!(open.upsert_block(&empty).unwrap(), 0);
        assert_eq!(open.total_offsets(), 0);
    }

    #[test]
    fn normalize_range_matches_pre_normalized_ingest() {
        let raw = vec![
            Point::new(1, vec![3.0, 4.0]),
            Point::new(2, vec![0.0, 0.0]), // zero vector stays untouched
            Point::new(3, vec![-5.0, 12.0]),
        ];
        // Reference: normalize each vector, then upsert per point.
        let mut reference = SegmentStore::new(2);
        for p in &raw {
            let mut q = p.clone();
            vq_core::vector::normalize_in_place(&mut q.vector);
            reference.upsert(q).unwrap();
        }
        // Block path: bulk copy raw slab, then fix up in place.
        let mut bulk = SegmentStore::new(2);
        let block = vq_core::PointBlock::from_points(&raw).unwrap();
        let first = bulk.upsert_block(&block).unwrap();
        bulk.normalize_range(first, block.len()).unwrap();
        assert_eq!(bulk.snapshot().vectors, reference.snapshot().vectors);
        assert!(bulk.normalize_range(2, 5).is_err(), "range past end");
    }

    #[test]
    fn wal_replay_reconstructs_state() {
        let points: Vec<Point> = (1..=4).map(|i| point(i, i as f32)).collect();
        let block = vq_core::PointBlock::from_points(&points).unwrap();
        let mut wal = Wal::in_memory();
        let mut live = SegmentStore::new(2);
        for rec in [
            WalRecord::UpsertBlock(block),
            WalRecord::Delete(1),
            upsert_record(point(5, 2.0)),
            upsert_record(point(2, 7.0)), // replaces a row of the block
        ] {
            wal.append(&rec).unwrap();
            live.apply(rec).unwrap();
        }
        // "Crash" and recover from the log alone.
        let mut recovered = SegmentStore::new(2);
        for rec in wal.replay().unwrap() {
            recovered.apply(rec).unwrap();
        }
        let a = recovered.snapshot();
        let b = live.snapshot();
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.payloads, b.payloads);
        assert_eq!(recovered.get(1), None);
        assert_eq!(recovered.live_count(), 4);
        assert_eq!(recovered.get(2).unwrap().vector, vec![7.0, 8.0]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = SegmentStore::new(2);
        s.upsert(point(1, 0.0)).unwrap();
        s.upsert(point(2, 1.0)).unwrap();
        s.delete(2).unwrap();
        s.upsert(point(1, 4.0)).unwrap();
        s.seal();
        let snap = s.snapshot();
        let r = SegmentStore::restore(&snap).unwrap();
        assert_eq!(r.live_count(), 1);
        assert_eq!(r.get(1).unwrap().vector, vec![4.0, 5.0]);
        assert_eq!(r.get(2), None);
        assert!(r.is_sealed());
        assert_eq!(r.total_offsets(), 3);
    }

    #[test]
    fn snapshot_is_serde_serializable() {
        let mut s = SegmentStore::new(1);
        s.upsert(Point::new(1, vec![0.5])).unwrap();
        let json = serde_json::to_string(&s.snapshot()).unwrap();
        let snap: SegmentSnapshot = serde_json::from_str(&json).unwrap();
        let r = SegmentStore::restore(&snap).unwrap();
        assert_eq!(r.get(1).unwrap().vector, vec![0.5]);
    }

    #[test]
    fn restore_rejects_column_mismatch() {
        let mut s = SegmentStore::new(1);
        s.upsert(Point::new(1, vec![0.5])).unwrap();
        let mut snap = s.snapshot();
        snap.payloads.clear();
        assert!(matches!(
            SegmentStore::restore(&snap),
            Err(VqError::Corruption(_))
        ));
    }

    #[test]
    fn dimension_mismatch_surfaces() {
        let mut s = SegmentStore::new(3);
        assert!(matches!(
            s.upsert(Point::new(1, vec![0.0; 2])),
            Err(VqError::DimensionMismatch { .. })
        ));
        // Failed upsert must not corrupt column lockstep.
        assert_eq!(s.total_offsets(), 0);
        s.upsert(Point::new(1, vec![0.0; 3])).unwrap();
        assert_eq!(s.live_count(), 1);
    }

    #[test]
    fn offset_level_accessors() {
        let mut s = SegmentStore::new(1);
        s.upsert(point_with_payload(9)).unwrap();
        assert_eq!(s.id_at(0), Some(9));
        assert!(s.is_live(0));
        assert_eq!(
            s.payload_at(0).get("tag"),
            Some(&vq_core::PayloadValue::Str("t".into()))
        );
    }

    fn point_with_payload(id: PointId) -> Point {
        Point::with_payload(id, vec![1.0], Payload::from_pairs([("tag", "t")]))
    }
}
