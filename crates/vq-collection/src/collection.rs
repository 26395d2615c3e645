//! The local collection: one worker's shard state.
//!
//! A [`LocalCollection`] is an active growable segment plus a list of
//! sealed segments, the id→segment routing table, and (optionally) a WAL.
//! Searches fan out across segments — as pool tasks when the caller
//! brings an [`vq_core::ExecPool`] — and merge with the same rank order
//! used by the cluster layer, so local and distributed results are
//! bit-identical for the same data.

use crate::config::{CollectionConfig, IndexingPolicy};
use crate::segment::Segment;
use crate::stats::CollectionStats;
use crate::SearchRequest;
use parking_lot::RwLock;
use std::collections::HashMap;
use vq_core::{point::merge_top_k, Point, PointBlock, PointId, ScoredPoint, VqError, VqResult};
use vq_storage::{Wal, WalRecord};

struct Inner {
    /// `segments[0..n-1]` sealed, `segments[n-1]` active (unless sealed
    /// by an explicit seal call).
    segments: Vec<Segment>,
    /// id → index into `segments` holding its live copy.
    routing: HashMap<PointId, usize>,
    next_seq: u64,
}

/// One shard's collection state on one worker.
///
/// ```
/// use vq_collection::{CollectionConfig, LocalCollection, SearchRequest};
/// use vq_core::{Distance, Point};
///
/// let collection = LocalCollection::new(CollectionConfig::new(2, Distance::Euclid));
/// for i in 0..50u64 {
///     collection.upsert(Point::new(i, vec![i as f32, 0.0])).unwrap();
/// }
/// collection.delete(30).unwrap();
/// let hits = collection.search(&SearchRequest::new(vec![30.2, 0.0], 2)).unwrap();
/// assert_eq!(hits[0].id, 31, "tombstoned 30 must not surface");
/// ```
pub struct LocalCollection {
    config: CollectionConfig,
    inner: RwLock<Inner>,
    wal: Option<parking_lot::Mutex<Wal>>,
}

impl LocalCollection {
    /// Create an empty collection. With [`CollectionConfig::journal`] set,
    /// every mutation is framed through an in-memory WAL, so durability
    /// syncs are counted and timed (`phase.wal_sync`) without disk I/O.
    pub fn new(config: CollectionConfig) -> Self {
        LocalCollection {
            config,
            inner: RwLock::new(Inner {
                segments: vec![Segment::new(0, &config)],
                routing: HashMap::new(),
                next_seq: 1,
            }),
            wal: config.journal.then(|| parking_lot::Mutex::new(Wal::in_memory())),
        }
    }

    /// Create an empty collection journaling to `wal`.
    pub fn with_wal(config: CollectionConfig, wal: Wal) -> Self {
        let mut c = Self::new(config);
        c.wal = Some(parking_lot::Mutex::new(wal));
        c
    }

    /// Attach (or replace) the journal: subsequent mutations are framed
    /// through `wal`. Used when a freshly installed shard (restored from
    /// segments, so journal-less) must journal durably from here on.
    pub fn set_wal(&mut self, wal: Wal) {
        self.wal = Some(parking_lot::Mutex::new(wal));
    }

    /// Rebuild a collection from a WAL's records.
    pub fn recover(config: CollectionConfig, wal: Wal) -> VqResult<Self> {
        Self::recover_with_snapshot(config, Vec::new(), wal)
    }

    /// Rebuild a collection from a snapshot checkpoint plus the WAL
    /// records appended after it — the worker-restart path.
    ///
    /// The snapshot restores through [`Self::from_segments`] and every
    /// WAL record goes through the same apply code as live traffic, so
    /// recovery is by construction the normal write path. The replay is
    /// recorded as a `phase.wal_replay` span.
    pub fn recover_with_snapshot(
        config: CollectionConfig,
        snapshots: Vec<vq_storage::SegmentSnapshot>,
        wal: Wal,
    ) -> VqResult<Self> {
        let stamp = vq_obs::enabled().then(std::time::Instant::now);
        let records = wal.replay()?;
        let mut c = if snapshots.is_empty() {
            Self::new(config)
        } else {
            Self::from_segments(config, snapshots)?
        };
        c.wal = Some(parking_lot::Mutex::new(wal));
        for record in records {
            match record {
                WalRecord::UpsertBlock(b) => c.apply_block(&b)?,
                WalRecord::Delete(id) => c.apply_delete(id)?,
                WalRecord::SealSegment { .. } => c.seal_active(),
                WalRecord::IndexBuilt { segment_seq } => {
                    // Rebuild the index for that segment eagerly: the graph
                    // itself is not journaled (it is derived data).
                    let inner = c.inner.read();
                    let seg = inner.segments.iter().find(|s| s.seq() == segment_seq);
                    let built = seg.map(|s| s.build_index(&c.config));
                    drop(inner);
                    if let Some(index) = built {
                        let mut inner = c.inner.write();
                        if let Some(s) =
                            inner.segments.iter_mut().find(|s| s.seq() == segment_seq)
                        {
                            s.install_index(index);
                        }
                    }
                }
            }
        }
        if let Some(stamp) = stamp {
            vq_obs::record_phase("wal_replay", 0, stamp.elapsed().as_secs_f64());
        }
        Ok(c)
    }

    /// Collection configuration.
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Insert or replace a point: a one-row [`Self::upsert_block`].
    pub fn upsert(&self, point: Point) -> VqResult<()> {
        self.upsert_batch(vec![point])
    }

    /// Insert or replace a batch of row-wise points: laid out as one
    /// [`PointBlock`] and taken by [`Self::upsert_block`].
    pub fn upsert_batch(&self, points: Vec<Point>) -> VqResult<()> {
        self.upsert_block(&PointBlock::from_points(&points)?)
    }

    /// Insert or replace a whole columnar block — the one write path: one
    /// WAL record (group commit — a single durability sync), one
    /// write-lock acquisition, and page-granular arena copies.
    ///
    /// The resulting collection state — segment boundaries, tombstones,
    /// routing, vector bits — is identical to upserting the block's rows
    /// one at a time; the property tests pin the equivalence.
    pub fn upsert_block(&self, block: &PointBlock) -> VqResult<()> {
        if block.is_empty() {
            return Ok(());
        }
        if block.dim() != self.config.dim {
            return Err(VqError::DimensionMismatch {
                expected: self.config.dim,
                got: block.dim(),
            });
        }
        self.journal(|| WalRecord::UpsertBlock(block.clone()))?;
        self.apply_block(block)
    }

    fn apply_block(&self, block: &PointBlock) -> VqResult<()> {
        let mut inner = self.inner.write();
        Self::upsert_block_locked(&self.config, &mut inner, block)
    }

    /// The locked half of the ingest path. Splits the block at
    /// segment-roll boundaries (so a block and its rows upserted one at a
    /// time lay out the same segments), tombstones cross-segment previous
    /// copies, bulk-copies each chunk's slab, and normalizes in place
    /// afterwards for metrics that normalize on ingest (the block itself
    /// is shared and immutable).
    fn upsert_block_locked(
        config: &CollectionConfig,
        inner: &mut Inner,
        block: &PointBlock,
    ) -> VqResult<()> {
        let mut row = 0;
        while row < block.len() {
            // Roll the active segment if full — before the stale-copy
            // check, so "previous copy in the active segment" cannot be
            // invalidated by the roll itself.
            let active_idx = {
                let active = inner.segments.last().expect("always one segment");
                if active.store().total_offsets() >= config.max_segment_points
                    || active.is_sealed()
                {
                    let seq = inner.next_seq;
                    inner.next_seq += 1;
                    inner.segments.last_mut().expect("nonempty").seal();
                    vq_obs::count("collection.segments_sealed", 1);
                    inner.segments.push(Segment::new(seq, config));
                }
                inner.segments.len() - 1
            };
            let capacity = config
                .max_segment_points
                .saturating_sub(inner.segments[active_idx].store().total_offsets())
                .max(1);
            let take = capacity.min(block.len() - row);
            let chunk = block.slice(row..row + take);
            // Tombstone previous copies living in other segments. Routing
            // is pre-announced to the active segment so an id repeated
            // within the chunk is only cross-tombstoned once (the active
            // segment's own bind handles in-segment replacement).
            for i in 0..chunk.len() {
                let id = chunk.id(i);
                if let Some(&seg_idx) = inner.routing.get(&id) {
                    if seg_idx != active_idx {
                        inner.segments[seg_idx].store_mut().delete(id)?;
                    }
                }
                inner.routing.insert(id, active_idx);
            }
            let store = inner.segments[active_idx].store_mut();
            let first = store.upsert_block(&chunk)?;
            if config.metric.normalizes_on_ingest() {
                store.normalize_range(first, chunk.len())?;
            }
            row += take;
        }
        Ok(())
    }

    /// Delete a point.
    pub fn delete(&self, id: PointId) -> VqResult<()> {
        self.journal(|| WalRecord::Delete(id))?;
        self.apply_delete(id)
    }

    fn apply_delete(&self, id: PointId) -> VqResult<()> {
        let mut inner = self.inner.write();
        let seg_idx = *inner
            .routing
            .get(&id)
            .ok_or(VqError::PointNotFound(id))?;
        inner.segments[seg_idx].store_mut().delete(id)?;
        inner.routing.remove(&id);
        Ok(())
    }

    /// Fetch a point by id.
    pub fn get(&self, id: PointId) -> Option<Point> {
        let inner = self.inner.read();
        let &seg_idx = inner.routing.get(&id)?;
        inner.segments[seg_idx].get(id)
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .segments
            .iter()
            .map(Segment::live_count)
            .sum()
    }

    /// Whether the collection has no live points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Top-`k` search across all segments, on the calling thread.
    pub fn search(&self, request: &SearchRequest) -> VqResult<Vec<ScoredPoint>> {
        self.search_ctx(request, &vq_core::ExecCtx::Serial)
    }

    /// Top-`k` search on an explicit execution context.
    ///
    /// On a [`vq_core::ExecPool`] context segments fan out as pool tasks
    /// (the calling thread participates, so a single-segment collection
    /// pays no dispatch) and the context reaches every segment's chunked
    /// scans underneath; [`vq_core::ExecCtx::Serial`] walks the segments
    /// in place. Results are bit-identical across contexts — every path
    /// selects under [`ScoredPoint`]'s total order and merges
    /// deterministically.
    pub fn search_ctx(
        &self,
        request: &SearchRequest,
        ctx: &vq_core::ExecCtx,
    ) -> VqResult<Vec<ScoredPoint>> {
        if request.vector.len() != self.config.dim {
            return Err(VqError::DimensionMismatch {
                expected: self.config.dim,
                got: request.vector.len(),
            });
        }
        if request.k == 0 {
            return Err(VqError::InvalidRequest("k must be positive".into()));
        }
        let mut query = request.vector.clone();
        if self.config.metric.normalizes_on_ingest() {
            vq_core::vector::normalize_in_place(&mut query);
        }
        let ef = request.ef.unwrap_or(self.config.ef_search);
        let inner = self.inner.read();
        let run = |seg: &Segment| {
            seg.search_with_params_ctx(
                &self.config,
                &query,
                request.k,
                ef,
                request.filter.as_ref(),
                request.with_payload,
                &request.params,
                ctx,
            )
        };
        let partials: Vec<Vec<ScoredPoint>> = match ctx {
            vq_core::ExecCtx::Pool(pool) if inner.segments.len() > 1 => {
                pool.scope_map(inner.segments.len(), |i| run(&inner.segments[i]))
            }
            _ => inner.segments.iter().map(run).collect(),
        };
        Ok(merge_top_k(partials, request.k))
    }

    /// Delete every live point matching `filter`. Returns how many were
    /// removed. Uses the payload index to enumerate candidates where
    /// possible; falls back to a scan otherwise.
    pub fn delete_by_filter(&self, filter: &vq_core::Filter) -> VqResult<usize> {
        // Collect the doomed ids under the read lock, then delete through
        // the normal (journaled) path.
        let doomed: Vec<PointId> = {
            let inner = self.inner.read();
            let mut ids = Vec::new();
            for seg in &inner.segments {
                let store = seg.store();
                let mut check = |offset: u32| {
                    if store.is_live(offset) && filter.matches(store.payload_at(offset)) {
                        if let Some(id) = store.id_at(offset) {
                            ids.push(id);
                        }
                    }
                };
                match store.payload_index().candidates(filter) {
                    Some(cands) => cands.into_iter().for_each(&mut check),
                    None => (0..store.total_offsets() as u32).for_each(&mut check),
                }
            }
            ids
        };
        let mut removed = 0;
        for id in doomed {
            // A concurrent delete may have won the race; tolerate it.
            if self.delete(id).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Count live points, optionally restricted to a filter. Uses the
    /// payload index when the filter is indexable.
    pub fn count(&self, filter: Option<&vq_core::Filter>) -> usize {
        let inner = self.inner.read();
        match filter {
            None => inner.segments.iter().map(Segment::live_count).sum(),
            Some(f) => inner
                .segments
                .iter()
                .map(|seg| {
                    let store = seg.store();
                    match store.payload_index().candidates(f) {
                        Some(cands) => cands
                            .into_iter()
                            .filter(|&o| {
                                store.is_live(o) && f.matches(store.payload_at(o))
                            })
                            .count(),
                        None => (0..store.total_offsets() as u32)
                            .filter(|&o| {
                                store.is_live(o) && f.matches(store.payload_at(o))
                            })
                            .count(),
                    }
                })
                .sum(),
        }
    }

    /// Paginated id-ordered listing: up to `limit` live points with id
    /// strictly greater than `after` (pass `None` to start). The last
    /// returned id is the cursor for the next page.
    pub fn scroll(
        &self,
        after: Option<PointId>,
        limit: usize,
        filter: Option<&vq_core::Filter>,
    ) -> Vec<Point> {
        let inner = self.inner.read();
        let floor = after.map_or(0, |a| a.saturating_add(1));
        let mut ids: Vec<(PointId, usize)> = inner
            .routing
            .iter()
            .filter(|(&id, _)| id >= floor)
            .map(|(&id, &seg)| (id, seg))
            .collect();
        ids.sort_unstable_by_key(|&(id, _)| id);
        let mut out = Vec::with_capacity(limit.min(ids.len()));
        for (id, seg_idx) in ids {
            if out.len() == limit {
                break;
            }
            let Some(point) = inner.segments[seg_idx].get(id) else {
                continue;
            };
            if let Some(f) = filter {
                if !f.matches(&point.payload) {
                    continue;
                }
            }
            out.push(point);
        }
        out
    }

    /// Recommend points near positive examples and away from negative
    /// ones (average-vector strategy). Example ids never appear in the
    /// results.
    pub fn recommend(
        &self,
        request: &crate::RecommendRequest,
    ) -> VqResult<Vec<ScoredPoint>> {
        let fetch = |ids: &[PointId]| -> VqResult<Vec<Vec<f32>>> {
            ids.iter()
                .map(|&id| {
                    self.get(id)
                        .map(|p| p.vector)
                        .ok_or(VqError::PointNotFound(id))
                })
                .collect()
        };
        let positives = fetch(&request.positives)?;
        let negatives = fetch(&request.negatives)?;
        let target = crate::RecommendRequest::target_vector(&positives, &negatives)?;
        let exclude: std::collections::HashSet<PointId> = request
            .positives
            .iter()
            .chain(&request.negatives)
            .copied()
            .collect();
        let mut search = SearchRequest::new(target, request.k + exclude.len());
        search.ef = request.ef;
        search.filter = request.filter.clone();
        search.with_payload = request.with_payload;
        let mut hits = self.search(&search)?;
        hits.retain(|h| !exclude.contains(&h.id));
        hits.truncate(request.k);
        Ok(hits)
    }

    /// Seal the active segment (bulk-upload boundary, snapshot prep).
    pub fn seal_active(&self) {
        let mut inner = self.inner.write();
        let seq = inner.next_seq;
        let active = inner.segments.last_mut().expect("always one segment");
        if active.store().total_offsets() == 0 {
            return; // nothing to seal
        }
        active.seal();
        vq_obs::count("collection.segments_sealed", 1);
        inner.next_seq = seq + 1;
        let config = self.config;
        inner.segments.push(Segment::new(seq, &config));
    }

    /// Observable state.
    pub fn stats(&self) -> CollectionStats {
        let inner = self.inner.read();
        let mut stats = CollectionStats::default();
        for seg in &inner.segments {
            stats.segments += 1;
            stats.live_points += seg.live_count();
            stats.total_offsets += seg.store().total_offsets();
            stats.approx_bytes += seg.store().approx_bytes();
            if seg.is_sealed() {
                stats.sealed_segments += 1;
            }
            if seg.is_indexed() {
                stats.indexed_segments += 1;
                stats.indexed_points += seg.store().total_offsets();
            }
            if let Some(q) = seg.quantized() {
                stats.quantized_segments += 1;
                stats.quantized_resident_bytes += q.resident_bytes();
                stats.quantized_full_bytes += q.full_bytes() as usize;
            }
        }
        stats
    }

    /// Run one optimizer pass inline: seal-and-roll is handled by upsert;
    /// this builds at most one missing index (cheapest-first) and vacuums
    /// at most one tombstone-heavy segment. Returns `true` if it did work.
    ///
    /// Background behaviour lives in [`crate::optimizer::OptimizerThread`],
    /// which calls this in a loop.
    pub fn optimize_once(&self) -> VqResult<bool> {
        // 1. Vacuum: replace the worst sealed segment over the threshold.
        let vacuum_target = {
            let inner = self.inner.read();
            inner
                .segments
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.is_sealed() && s.store().tombstone_ratio() > self.config.vacuum_threshold
                })
                .max_by(|a, b| {
                    a.1.store()
                        .tombstone_ratio()
                        .total_cmp(&b.1.store().tombstone_ratio())
                })
                .map(|(i, _)| i)
        };
        if let Some(idx) = vacuum_target {
            // Build the replacement outside the write lock.
            let (fresh, _dropped) = {
                let inner = self.inner.read();
                inner.segments[idx].vacuumed(&self.config)?
            };
            let rebuilt = if self.config.indexing == IndexingPolicy::OnSeal
                && fresh.store().total_offsets() > 0
            {
                let index = fresh.build_index(&self.config);
                let mut fresh = fresh;
                fresh.install_index(index);
                fresh
            } else {
                fresh
            };
            let mut inner = self.inner.write();
            // Re-route ids to the same index (the segment slot is reused).
            inner.segments[idx] = rebuilt;
            return Ok(true);
        }

        // 2. Index: build the smallest sealed unindexed segment.
        if self.config.indexing != IndexingPolicy::Deferred && self.build_one_index()? {
            return Ok(true);
        }

        // 3. Quantize: convert the smallest sealed unquantized segment to
        // quantized-resident form (codes in RAM, vectors in the tier).
        self.build_one_quantized()
    }

    /// Build indexes for every sealed unindexed segment (the explicit
    /// rebuild of the paper's bulk-upload flow, §3.3). Returns how many
    /// indexes were built.
    pub fn build_all_indexes(&self) -> VqResult<usize> {
        let mut built = 0;
        while self.build_one_index()? {
            built += 1;
        }
        Ok(built)
    }

    fn build_one_index(&self) -> VqResult<bool> {
        let target = {
            let inner = self.inner.read();
            inner
                .segments
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.is_sealed() && !s.is_indexed() && s.store().total_offsets() > 0
                })
                .min_by_key(|(_, s)| s.store().total_offsets())
                .map(|(i, s)| (i, s.seq()))
        };
        let Some((idx, seq)) = target else {
            return Ok(false);
        };
        // Long build under the read lock only (sealed arena is immutable).
        let stamp = vq_obs::enabled().then(std::time::Instant::now);
        let index = {
            let inner = self.inner.read();
            inner.segments[idx].build_index(&self.config)
        };
        if let Some(stamp) = stamp {
            vq_obs::record_phase("index_build", seq, stamp.elapsed().as_secs_f64());
        }
        vq_obs::count("collection.indexes_built", 1);
        {
            let mut inner = self.inner.write();
            // The segment vector may only have grown; `idx` still points at
            // the same sealed segment (slots are stable except vacuum, which
            // clears the index anyway — guard by seq).
            if inner.segments[idx].seq() == seq && !inner.segments[idx].is_indexed() {
                inner.segments[idx].install_index(index);
            }
        }
        self.journal(|| WalRecord::IndexBuilt { segment_seq: seq })?;
        Ok(true)
    }

    /// Quantize every eligible sealed segment (the bulk conversion the
    /// repro harness runs after ingest). Returns how many were built.
    pub fn build_all_quantized(&self) -> VqResult<usize> {
        let mut built = 0;
        while self.build_one_quantized()? {
            built += 1;
        }
        Ok(built)
    }

    fn build_one_quantized(&self) -> VqResult<bool> {
        if self.config.quantization.is_none() {
            return Ok(false);
        }
        let target = {
            let inner = self.inner.read();
            inner
                .segments
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.is_sealed() && !s.is_quantized() && s.store().total_offsets() > 0
                })
                .min_by_key(|(_, s)| s.store().total_offsets())
                .map(|(i, s)| (i, s.seq()))
        };
        let Some((idx, seq)) = target else {
            return Ok(false);
        };
        // Train + encode + spill under the read lock only, like index
        // builds: the sealed arena is immutable.
        let stamp = vq_obs::enabled().then(std::time::Instant::now);
        let quantized = {
            let inner = self.inner.read();
            inner.segments[idx].build_quantized(&self.config)
        };
        let Some(quantized) = quantized else {
            // Not quantizable (dim ∤ m); don't retry this segment forever.
            return Ok(false);
        };
        if let Some(stamp) = stamp {
            vq_obs::record_phase("quantize_build", seq, stamp.elapsed().as_secs_f64());
        }
        vq_obs::count("collection.segments_quantized", 1);
        {
            let mut inner = self.inner.write();
            if inner.segments[idx].seq() == seq && !inner.segments[idx].is_quantized() {
                inner.segments[idx].install_quantized(quantized);
            }
        }
        Ok(true)
    }

    /// Export every segment as a snapshot (shard transfer, backups).
    /// Indexes are derived data and are not exported.
    pub fn export_segments(&self) -> Vec<vq_storage::SegmentSnapshot> {
        let inner = self.inner.read();
        inner.segments.iter().map(|s| s.store().snapshot()).collect()
    }

    /// Export segments together with their HNSW adjacency (when built) —
    /// the full-fidelity form disk persistence uses, so a reload skips
    /// the index rebuild.
    pub fn export_segments_with_indexes(
        &self,
    ) -> Vec<(vq_storage::SegmentSnapshot, Option<Vec<Vec<Vec<u32>>>>)> {
        let inner = self.inner.read();
        inner
            .segments
            .iter()
            .map(|s| (s.store().snapshot(), s.export_index_links()))
            .collect()
    }

    /// Rebuild from snapshots plus optional pre-built HNSW adjacency
    /// (inverse of [`Self::export_segments_with_indexes`]).
    pub fn from_segments_with_indexes(
        config: CollectionConfig,
        parts: Vec<(vq_storage::SegmentSnapshot, Option<Vec<Vec<Vec<u32>>>>)>,
    ) -> VqResult<Self> {
        let (snapshots, links): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
        let collection = Self::from_segments(config, snapshots)?;
        {
            let mut inner = collection.inner.write();
            for (segment, links) in inner.segments.iter_mut().zip(links) {
                if let Some(links) = links {
                    if links.len() != segment.store().total_offsets() {
                        return Err(VqError::Corruption(format!(
                            "index covers {} offsets, segment has {}",
                            links.len(),
                            segment.store().total_offsets()
                        )));
                    }
                    segment.install_imported_index(links, &collection.config);
                }
            }
        }
        Ok(collection)
    }

    /// Rebuild a collection from exported segment snapshots.
    ///
    /// Segment order is preserved; the last snapshot becomes the active
    /// segment if it was not sealed. Indexes are rebuilt lazily by the
    /// optimizer (or [`Self::build_all_indexes`]).
    pub fn from_segments(
        config: CollectionConfig,
        snapshots: Vec<vq_storage::SegmentSnapshot>,
    ) -> VqResult<Self> {
        let mut segments = Vec::with_capacity(snapshots.len().max(1));
        let mut routing = HashMap::new();
        for (i, snap) in snapshots.iter().enumerate() {
            let store = vq_storage::SegmentStore::restore(snap)?;
            for (id, _) in store.iter_live() {
                routing.insert(id, i);
            }
            segments.push(Segment::from_store(i as u64, store));
        }
        let needs_active = segments.last().map_or(true, Segment::is_sealed);
        let next_seq = segments.len() as u64 + u64::from(needs_active);
        if needs_active {
            segments.push(Segment::new(segments.len() as u64, &config));
        }
        Ok(LocalCollection {
            config,
            inner: RwLock::new(Inner {
                segments,
                routing,
                next_seq,
            }),
            wal: None,
        })
    }

    fn journal(&self, record: impl FnOnce() -> WalRecord) -> VqResult<()> {
        if let Some(wal) = &self.wal {
            wal.lock().append(&record())?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for LocalCollection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("LocalCollection")
            .field("dim", &self.config.dim)
            .field("metric", &self.config.metric)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vq_core::{Distance, Payload};

    fn small_config() -> CollectionConfig {
        CollectionConfig::new(2, Distance::Euclid).max_segment_points(10)
    }

    fn fill(c: &LocalCollection, n: usize) {
        for i in 0..n {
            c.upsert(Point::new(i as PointId, vec![i as f32, 0.0])).unwrap();
        }
    }

    #[test]
    fn upsert_search_roundtrip() {
        let c = LocalCollection::new(small_config());
        fill(&c, 25);
        assert_eq!(c.len(), 25);
        let hits = c.search(&SearchRequest::new(vec![12.3, 0.0], 3)).unwrap();
        let ids: Vec<PointId> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![12, 13, 11]);
    }

    #[test]
    fn quantized_collection_end_to_end() {
        let config = small_config()
            .quantization(crate::config::QuantizationConfig::with_m(2).ks(16));
        let c = LocalCollection::new(config);
        fill(&c, 35);
        let built = c.build_all_quantized().unwrap();
        assert!(built >= 2, "sealed segments should quantize: {built}");
        let stats = c.stats();
        assert_eq!(stats.quantized_segments, built);
        assert!(stats.quantized_full_bytes > 0);
        assert!(
            stats.quantized_resident_bytes < stats.quantized_full_bytes,
            "{stats:?}"
        );
        // Deep rerank reproduces the exact result; `exact()` agrees.
        let deep = c
            .search(&SearchRequest::new(vec![12.3, 0.0], 3).rerank_depth(35))
            .unwrap();
        let exact = c
            .search(&SearchRequest::new(vec![12.3, 0.0], 3).exact())
            .unwrap();
        let ids = |hits: &[ScoredPoint]| hits.iter().map(|h| h.id).collect::<Vec<_>>();
        assert_eq!(ids(&deep), vec![12, 13, 11]);
        assert_eq!(ids(&exact), vec![12, 13, 11]);
    }

    #[test]
    fn optimizer_pass_quantizes_sealed_segments() {
        let config = small_config()
            .indexing(IndexingPolicy::Deferred)
            .quantization(crate::config::QuantizationConfig::with_m(2).ks(16));
        let c = LocalCollection::new(config);
        fill(&c, 25);
        let mut passes = 0;
        while c.optimize_once().unwrap() {
            passes += 1;
            assert!(passes < 100, "optimizer must converge");
        }
        let stats = c.stats();
        assert_eq!(stats.quantized_segments, stats.sealed_segments);
        assert!(stats.quantized_segments >= 2, "{stats:?}");
    }

    #[test]
    fn segment_rollover() {
        let c = LocalCollection::new(small_config());
        fill(&c, 25);
        let stats = c.stats();
        assert!(stats.segments >= 3, "25 points / 10 per segment: {stats:?}");
        assert_eq!(stats.live_points, 25);
        assert!(stats.sealed_segments >= 2);
    }

    #[test]
    fn upsert_across_segments_keeps_one_live_copy() {
        let c = LocalCollection::new(small_config());
        fill(&c, 15); // id 3 now lives in a sealed segment
        c.upsert(Point::new(3, vec![100.0, 0.0])).unwrap();
        assert_eq!(c.len(), 15);
        assert_eq!(c.get(3).unwrap().vector, vec![100.0, 0.0]);
        let hits = c.search(&SearchRequest::new(vec![3.0, 0.0], 2)).unwrap();
        assert!(hits.iter().all(|h| h.id != 3), "old copy must not surface");
    }

    #[test]
    fn delete_across_segments() {
        let c = LocalCollection::new(small_config());
        fill(&c, 15);
        c.delete(2).unwrap();
        c.delete(12).unwrap();
        assert_eq!(c.len(), 13);
        assert_eq!(c.get(2), None);
        assert!(matches!(c.delete(2), Err(VqError::PointNotFound(2))));
        let hits = c.search(&SearchRequest::new(vec![2.0, 0.0], 15)).unwrap();
        assert!(hits.iter().all(|h| h.id != 2 && h.id != 12));
    }

    #[test]
    fn search_validates_request() {
        let c = LocalCollection::new(small_config());
        fill(&c, 5);
        assert!(matches!(
            c.search(&SearchRequest::new(vec![0.0; 3], 1)),
            Err(VqError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            c.search(&SearchRequest::new(vec![0.0; 2], 0)),
            Err(VqError::InvalidRequest(_))
        ));
    }

    #[test]
    fn cosine_collections_normalize() {
        let config = CollectionConfig::new(2, Distance::Cosine);
        let c = LocalCollection::new(config);
        c.upsert(Point::new(1, vec![10.0, 0.0])).unwrap();
        c.upsert(Point::new(2, vec![0.0, 0.1])).unwrap();
        // A query along +x must prefer point 1 regardless of magnitudes.
        let hits = c.search(&SearchRequest::new(vec![0.5, 0.01], 2)).unwrap();
        assert_eq!(hits[0].id, 1);
        assert!((hits[0].score - 1.0).abs() < 0.01, "normalized dot ≈ cos");
    }

    #[test]
    fn optimize_builds_indexes_on_seal_policy() {
        let c = LocalCollection::new(small_config());
        fill(&c, 35);
        let before = c.stats();
        assert_eq!(before.indexed_segments, 0);
        while c.optimize_once().unwrap() {}
        let after = c.stats();
        assert_eq!(after.indexed_segments, after.sealed_segments);
        assert!(after.indexed_segments >= 3);
        // Search still correct through the indexes.
        let hits = c.search(&SearchRequest::new(vec![20.2, 0.0], 3)).unwrap();
        assert_eq!(hits[0].id, 20);
    }

    #[test]
    fn deferred_policy_builds_nothing_until_asked() {
        let config = small_config().indexing(IndexingPolicy::Deferred);
        let c = LocalCollection::new(config);
        fill(&c, 35);
        assert!(!c.optimize_once().unwrap());
        assert_eq!(c.stats().indexed_segments, 0);
        let built = c.build_all_indexes().unwrap();
        assert!(built >= 3);
        assert_eq!(c.stats().indexed_segments, c.stats().sealed_segments);
    }

    #[test]
    fn vacuum_replaces_tombstone_heavy_segment() {
        let mut config = small_config();
        config.vacuum_threshold = 0.4;
        let c = LocalCollection::new(config);
        fill(&c, 10); // fills exactly one segment
        c.upsert(Point::new(100, vec![100.0, 0.0])).unwrap(); // seals seg 0
        for id in 0..6 {
            c.delete(id).unwrap();
        }
        let before = c.stats();
        assert!(before.total_offsets >= 11);
        assert!(c.optimize_once().unwrap(), "vacuum should trigger");
        let after = c.stats();
        assert!(after.total_offsets < before.total_offsets);
        assert_eq!(after.live_points, 5);
        // Remaining points still searchable.
        let hits = c.search(&SearchRequest::new(vec![8.0, 0.0], 2)).unwrap();
        assert_eq!(hits[0].id, 8);
    }

    fn payload_points(n: usize, offset: u64) -> Vec<Point> {
        (0..n as u64)
            .map(|i| {
                Point::with_payload(
                    offset + i,
                    vec![(offset + i) as f32, 1.0],
                    Payload::from_pairs([("n", (offset + i) as i64)]),
                )
            })
            .collect()
    }

    /// The same rows, one upsert each: what a block must be equivalent to.
    fn one_at_a_time(config: CollectionConfig, points: &[Point]) -> LocalCollection {
        let c = LocalCollection::new(config);
        for p in points {
            c.upsert(p.clone()).unwrap();
        }
        c
    }

    #[test]
    fn upsert_block_matches_sequential_upserts_across_rolls() {
        // 25 points over max_segment_points = 10 forces two mid-block
        // rolls; ids 3..11 come again (previous copies in sealed
        // segments), and id 30 is repeated inside the block, once within
        // a segment and once across a roll.
        let mut points = payload_points(25, 0);
        points.extend(payload_points(8, 3));
        points.extend(payload_points(1, 30));
        points.extend(payload_points(1, 30));
        points.extend(payload_points(6, 40));
        points.extend(payload_points(1, 30));
        let via_points = one_at_a_time(small_config(), &points);
        let via_block = LocalCollection::new(small_config());
        via_block
            .upsert_block(&PointBlock::from_points(&points).unwrap())
            .unwrap();

        let a = via_points.export_segments();
        let b = via_block.export_segments();
        assert_eq!(a.len(), b.len(), "segment boundaries must match");
        assert!(a.len() >= 5, "rolls land mid-block: {}", a.len());
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.vectors, sb.vectors);
            assert_eq!(sa.ids, sb.ids);
            assert_eq!(sa.payloads, sb.payloads);
            assert_eq!(sa.sealed, sb.sealed);
        }
        assert_eq!(via_points.len(), via_block.len());
        let qa = via_points.search(&SearchRequest::new(vec![7.2, 1.0], 5)).unwrap();
        let qb = via_block.search(&SearchRequest::new(vec![7.2, 1.0], 5)).unwrap();
        assert_eq!(qa, qb);
    }

    #[test]
    fn upsert_block_cosine_is_bit_identical_to_sequential_upserts() {
        let config = CollectionConfig::new(2, Distance::Cosine).max_segment_points(7);
        let points: Vec<Point> = (0..20u64)
            .map(|i| Point::new(i, vec![i as f32 + 0.5, -(i as f32) * 3.0]))
            .collect();
        let via_points = one_at_a_time(config, &points);
        let via_block = LocalCollection::new(config);
        via_block
            .upsert_block(&PointBlock::from_points(&points).unwrap())
            .unwrap();
        let a = via_points.export_segments();
        let b = via_block.export_segments();
        assert_eq!(a.len(), b.len());
        for (sa, sb) in a.iter().zip(&b) {
            // Bit-level equality: in-place normalization of a whole
            // chunk must equal normalizing each row as it arrives.
            assert_eq!(sa.vectors, sb.vectors);
        }
    }

    #[test]
    fn upsert_block_validates_dim_and_tolerates_empty() {
        let c = LocalCollection::new(small_config());
        let bad = PointBlock::from_points(&[Point::new(1, vec![0.0; 3])]).unwrap();
        assert!(matches!(
            c.upsert_block(&bad),
            Err(VqError::DimensionMismatch { expected: 2, got: 3 })
        ));
        c.upsert_block(&PointBlock::from_points(&[]).unwrap()).unwrap();
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn block_ingest_group_commits_one_sync_per_block() {
        let c = LocalCollection::with_wal(small_config(), Wal::in_memory());
        // A row-wise batch is laid out as one block: one sync.
        c.upsert_batch(payload_points(12, 0)).unwrap();
        assert_eq!(c.wal.as_ref().unwrap().lock().synced_batches(), 1);
        // Three blocks cost exactly three more syncs — the sync count
        // tracks blocks, not points.
        for b in 0..3u64 {
            let block = PointBlock::from_points(&payload_points(12, 100 * (b + 1))).unwrap();
            c.upsert_block(&block).unwrap();
        }
        assert_eq!(c.wal.as_ref().unwrap().lock().synced_batches(), 4);
        assert_eq!(c.len(), 48);
    }

    #[test]
    fn wal_recovery_reproduces_state() {
        let config = small_config();
        let c = LocalCollection::with_wal(config, Wal::in_memory());
        // A block that rolls mid-way, a delete, a one-row overwrite.
        c.upsert_block(&PointBlock::from_points(&payload_points(15, 0)).unwrap())
            .unwrap();
        c.delete(4).unwrap();
        c.upsert(Point::new(7, vec![70.0, 0.0])).unwrap();
        // Steal the WAL bytes to build a "recovered" instance.
        let records = c.wal.as_ref().unwrap().lock().replay().unwrap();
        let mut wal2 = Wal::in_memory();
        for r in &records {
            wal2.append(r).unwrap();
        }
        let r = LocalCollection::recover(config, wal2).unwrap();
        assert_eq!(r.len(), c.len());
        assert_eq!(r.get(4), None);
        assert_eq!(r.get(7).unwrap().vector, vec![70.0, 0.0]);
        let a = c.export_segments();
        let b = r.export_segments();
        assert_eq!(a.len(), b.len());
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.vectors, sb.vectors);
            assert_eq!(sa.ids, sb.ids);
        }
        let q = SearchRequest::new(vec![9.0, 0.0], 5);
        assert_eq!(c.search(&q).unwrap(), r.search(&q).unwrap());
    }

    #[test]
    fn snapshot_plus_wal_recovery_reproduces_state() {
        // The worker-restart shape: a snapshot checkpoint truncates the
        // WAL, later writes land only in the WAL, then the "worker" dies
        // and a replacement recovers from snapshot + replay.
        let config = small_config();
        let shared = vq_storage::SharedBackend::new();
        let c = LocalCollection::with_wal(config, Wal::with_backend(Box::new(shared.clone())));
        fill(&c, 20);
        c.delete(3).unwrap();
        let snapshot = c.export_segments();
        c.wal.as_ref().unwrap().lock().checkpoint().unwrap();
        // Post-checkpoint writes live only in the WAL.
        c.upsert(Point::new(100, vec![100.0, 0.0])).unwrap();
        c.delete(5).unwrap();
        drop(c); // crash
        let r = LocalCollection::recover_with_snapshot(
            config,
            snapshot,
            Wal::with_backend(Box::new(shared)),
        )
        .unwrap();
        assert_eq!(r.len(), 19); // 20 - deleted(3,5) + upserted(100)
        assert_eq!(r.get(3), None);
        assert_eq!(r.get(5), None);
        assert_eq!(r.get(100).unwrap().vector, vec![100.0, 0.0]);
        let hits = r.search(&SearchRequest::new(vec![100.0, 0.0], 1)).unwrap();
        assert_eq!(hits[0].id, 100);
    }

    #[test]
    fn filtered_search_via_payload() {
        let c = LocalCollection::new(small_config());
        for i in 0..20 {
            c.upsert(Point::with_payload(
                i,
                vec![i as f32, 0.0],
                Payload::from_pairs([("kind", if i < 10 { "virus" } else { "host" })]),
            ))
            .unwrap();
        }
        let req = SearchRequest::new(vec![9.0, 0.0], 5)
            .filter(vq_core::Filter::must_match("kind", "host"))
            .with_payload();
        let hits = c.search(&req).unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.id >= 10), "{hits:?}");
        assert!(hits[0].payload.is_some());
    }

    #[test]
    fn delete_by_filter_removes_exactly_the_matches() {
        let c = LocalCollection::new(small_config());
        for i in 0..40u64 {
            c.upsert(Point::with_payload(
                i,
                vec![i as f32, 0.0],
                Payload::from_pairs([("bucket", (i % 4) as i64)]),
            ))
            .unwrap();
        }
        let f = vq_core::Filter::must_match("bucket", 2i64);
        let removed = c.delete_by_filter(&f).unwrap();
        assert_eq!(removed, 10);
        assert_eq!(c.len(), 30);
        assert_eq!(c.count(Some(&f)), 0);
        // Other buckets untouched, searches clean.
        assert_eq!(c.count(Some(&vq_core::Filter::must_match("bucket", 1i64))), 10);
        let hits = c.search(&SearchRequest::new(vec![6.0, 0.0], 40)).unwrap();
        assert!(hits.iter().all(|h| h.id % 4 != 2));
        // Idempotent.
        assert_eq!(c.delete_by_filter(&f).unwrap(), 0);
    }

    #[test]
    fn count_with_and_without_filter() {
        let c = LocalCollection::new(small_config());
        for i in 0..20u64 {
            c.upsert(Point::with_payload(
                i,
                vec![i as f32, 0.0],
                Payload::from_pairs([("even", (i % 2 == 0) as i64)]),
            ))
            .unwrap();
        }
        c.delete(4).unwrap();
        assert_eq!(c.count(None), 19);
        let evens = vq_core::Filter::must_match("even", 1i64);
        assert_eq!(c.count(Some(&evens)), 9, "10 evens minus deleted 4");
        let absent = vq_core::Filter::must_match("missing", "x");
        assert_eq!(c.count(Some(&absent)), 0);
    }

    #[test]
    fn scroll_paginates_in_id_order() {
        let c = LocalCollection::new(small_config());
        fill(&c, 25);
        c.delete(3).unwrap();
        let page1 = c.scroll(None, 10, None);
        let ids1: Vec<PointId> = page1.iter().map(|p| p.id).collect();
        assert_eq!(ids1, vec![0, 1, 2, 4, 5, 6, 7, 8, 9, 10]);
        let cursor = page1.last().unwrap().id;
        let page2 = c.scroll(Some(cursor), 10, None);
        let ids2: Vec<PointId> = page2.iter().map(|p| p.id).collect();
        assert_eq!(ids2, (11..21).collect::<Vec<_>>());
        // Tail page is short; scrolling past the end is empty.
        let page3 = c.scroll(Some(20), 10, None);
        assert_eq!(page3.len(), 4);
        assert!(c.scroll(Some(24), 10, None).is_empty());
    }

    #[test]
    fn scroll_with_filter() {
        let c = LocalCollection::new(small_config());
        for i in 0..30u64 {
            c.upsert(Point::with_payload(
                i,
                vec![i as f32, 0.0],
                Payload::from_pairs([("mod3", (i % 3) as i64)]),
            ))
            .unwrap();
        }
        let f = vq_core::Filter::must_match("mod3", 1i64);
        let page = c.scroll(None, 5, Some(&f));
        let ids: Vec<PointId> = page.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![1, 4, 7, 10, 13]);
    }

    #[test]
    fn recommend_positive_only() {
        let c = LocalCollection::new(small_config());
        fill(&c, 30);
        // Positives near x = 10 and 12 → recommendations around x = 11,
        // excluding the examples themselves.
        let req = crate::RecommendRequest::new(vec![10, 12], 3);
        let hits = c.recommend(&req).unwrap();
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|h| h.id != 10 && h.id != 12), "{hits:?}");
        assert_eq!(hits[0].id, 11, "midpoint is the best non-example hit");
    }

    #[test]
    fn recommend_with_negatives_shifts_away() {
        let c = LocalCollection::new(small_config());
        fill(&c, 30);
        // Positive at 10, negative at 5: target = 10 + (10 − 5) = 15.
        let req = crate::RecommendRequest::new(vec![10], 1).negatives(vec![5]);
        let hits = c.recommend(&req).unwrap();
        assert_eq!(hits[0].id, 15, "{hits:?}");
    }

    #[test]
    fn recommend_validates_examples() {
        let c = LocalCollection::new(small_config());
        fill(&c, 5);
        let req = crate::RecommendRequest::new(vec![99], 3);
        assert!(matches!(
            c.recommend(&req),
            Err(VqError::PointNotFound(99))
        ));
        let req = crate::RecommendRequest::new(vec![], 3);
        assert!(matches!(
            c.recommend(&req),
            Err(VqError::InvalidRequest(_))
        ));
    }

    #[test]
    fn seal_active_allows_explicit_boundaries() {
        let c = LocalCollection::new(small_config());
        fill(&c, 3);
        c.seal_active();
        let stats = c.stats();
        assert_eq!(stats.sealed_segments, 1);
        fill(&c, 3); // goes into the fresh active segment
        assert_eq!(c.len(), 3, "same ids re-upserted");
        c.seal_active();
        // Sealing an empty active segment is a no-op.
        c.seal_active();
        assert_eq!(c.stats().sealed_segments, 2);
    }
}
