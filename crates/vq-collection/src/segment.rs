//! A searchable segment: storage plus an optional HNSW graph.
//!
//! Mirrors Qdrant's segment anatomy: vector storage, id tracker, payload
//! column (all in [`SegmentStore`]), and a per-segment index. While the
//! index is absent — a growing segment, or a sealed one whose build the
//! optimizer deferred — searches fall back to an exact scan, which is why
//! bulk-loaded data is queryable (slowly) before any index exists.

use crate::config::{CollectionConfig, TierKind};
use crate::SearchParams;
use vq_core::{Filter, Point, PointId, ScoredPoint, VqResult};
use vq_index::pq::{PqCodec, PqConfig};
use vq_index::rerank::rerank;
use vq_index::{FlatIndex, HnswIndex};
use vq_storage::tier::{
    FileTierBackend, FullPrecisionTier, SharedTierBackend, TierBackend, TierConfig,
};
use vq_storage::SegmentStore;

/// Quantized-resident form of a sealed segment: PQ codes stay in RAM,
/// full-precision vectors live in a demand-paged [`FullPrecisionTier`].
/// Searches against it run coarse-scan (quantized) + exact-rerank.
pub struct QuantizedSegment {
    codec: PqCodec,
    tier: FullPrecisionTier,
}

impl QuantizedSegment {
    /// Bytes this segment actually keeps in memory: the PQ code slab plus
    /// whatever the tier's bounded page cache currently holds.
    pub fn resident_bytes(&self) -> usize {
        self.codec.code_slab().len() + self.tier.resident_bytes()
    }

    /// Full-precision bytes spilled to the tier backend (what would be
    /// resident without quantization).
    pub fn full_bytes(&self) -> u64 {
        self.tier.full_bytes()
    }

    /// The quantized codec.
    pub fn codec(&self) -> &PqCodec {
        &self.codec
    }

    /// The demand-paged full-precision tier.
    pub fn tier(&self) -> &FullPrecisionTier {
        &self.tier
    }
}

impl std::fmt::Debug for QuantizedSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedSegment")
            .field("vectors", &self.codec.len())
            .field("code_bytes", &self.codec.code_bytes())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

/// One segment of a shard.
#[derive(Debug)]
pub struct Segment {
    store: SegmentStore,
    index: Option<HnswIndex>,
    quantized: Option<QuantizedSegment>,
    /// Monotonic sequence number within the owning shard.
    seq: u64,
}

impl Segment {
    /// Fresh growable segment.
    pub fn new(seq: u64, config: &CollectionConfig) -> Self {
        Segment {
            store: SegmentStore::new(config.dim),
            index: None,
            quantized: None,
            seq,
        }
    }

    /// Wrap an existing store as a segment (snapshot restore path).
    pub(crate) fn from_store(seq: u64, store: SegmentStore) -> Self {
        Segment {
            store,
            index: None,
            quantized: None,
            seq,
        }
    }

    /// Sequence number within the shard.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Underlying store.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Mutable store access (collection-internal).
    pub(crate) fn store_mut(&mut self) -> &mut SegmentStore {
        &mut self.store
    }

    /// Whether an index is installed.
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// Whether the segment is sealed.
    pub fn is_sealed(&self) -> bool {
        self.store.is_sealed()
    }

    /// Seal the segment; upserts stop, index construction may begin.
    pub fn seal(&mut self) {
        self.store.seal();
    }

    /// Live point count.
    pub fn live_count(&self) -> usize {
        self.store.live_count()
    }

    /// Install a built index. The graph must cover exactly the segment's
    /// offsets (enforced by debug assertion; the optimizer guarantees it).
    pub fn install_index(&mut self, index: HnswIndex) {
        debug_assert_eq!(index.len(), self.store.total_offsets());
        self.index = Some(index);
    }

    /// Drop the index (vacuum rebuilds storage and invalidates offsets).
    pub fn clear_index(&mut self) {
        self.index = None;
        self.quantized = None;
    }

    /// Whether the segment serves the quantized two-stage path.
    pub fn is_quantized(&self) -> bool {
        self.quantized.is_some()
    }

    /// The quantized form, if built.
    pub fn quantized(&self) -> Option<&QuantizedSegment> {
        self.quantized.as_ref()
    }

    /// Install a built quantized form (must cover the segment's offsets).
    pub fn install_quantized(&mut self, q: QuantizedSegment) {
        debug_assert_eq!(q.codec.len(), self.store.total_offsets());
        self.quantized = Some(q);
    }

    /// Build the quantized-resident form of this segment *without*
    /// installing it (same `&self` pattern as [`Segment::build_index`]:
    /// sealed arenas are immutable, so builds run under a read lock).
    ///
    /// Returns `None` when quantization is not configured, the segment is
    /// empty, or `dim` is not divisible by the configured `m`.
    pub fn build_quantized(&self, config: &CollectionConfig) -> Option<QuantizedSegment> {
        let q = config.quantization?;
        if self.store.total_offsets() == 0 || config.dim % q.m != 0 {
            return None;
        }
        let pq_cfg = PqConfig {
            m: q.m,
            ks: q.ks,
            seed: self.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..PqConfig::default()
        };
        let codec = PqCodec::build(self.store.arena(), config.metric, pq_cfg);
        let backend: Box<dyn TierBackend> = match q.tier {
            TierKind::SharedMem => Box::new(SharedTierBackend::new()),
            // Diskless hosts degrade to the shared-mem fallback rather
            // than failing the optimizer pass.
            TierKind::TempFile => match FileTierBackend::create_temp(&format!("seg{}", self.seq))
            {
                Ok(b) => Box::new(b),
                Err(_) => Box::new(SharedTierBackend::new()),
            },
        };
        let tier =
            FullPrecisionTier::from_source(self.store.arena(), backend, TierConfig::default())
                .ok()?;
        Some(QuantizedSegment { codec, tier })
    }

    /// Export the HNSW adjacency, if an index is installed.
    pub fn export_index_links(&self) -> Option<Vec<Vec<Vec<u32>>>> {
        self.index.as_ref().map(HnswIndex::export_links)
    }

    /// Install an index from exported adjacency (disk restore path).
    pub(crate) fn install_imported_index(
        &mut self,
        links: Vec<Vec<Vec<u32>>>,
        config: &CollectionConfig,
    ) {
        let mut hnsw_cfg = config.hnsw;
        hnsw_cfg.seed = hnsw_cfg.seed ^ (self.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.index = Some(HnswIndex::import_links(links, config.metric, hnsw_cfg));
    }

    /// Build an HNSW index for this segment *without* installing it.
    ///
    /// Takes `&self`: the arena of a sealed segment is immutable, so the
    /// optimizer can run builds while searches proceed, then install the
    /// result under a short write lock.
    pub fn build_index(&self, config: &CollectionConfig) -> HnswIndex {
        let mut hnsw_cfg = config.hnsw;
        // Derive a per-segment seed so two segments never share level
        // sequences (which would correlate their graphs).
        hnsw_cfg.seed = hnsw_cfg.seed ^ (self.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        HnswIndex::build(self.store.arena(), config.metric, hnsw_cfg)
    }

    /// Search this segment.
    ///
    /// Predicated searches pick between two strategies (the trade-off the
    /// paper's §2.1 footnote describes):
    ///
    /// * **prefilter** — when the payload index can enumerate the
    ///   filter's candidates and they are a small fraction of the
    ///   segment, score exactly those offsets (exact results, cost
    ///   proportional to selectivity);
    /// * **post-filter** — otherwise, search the HNSW graph with a
    ///   widened beam and drop non-matching hits.
    ///
    /// Quantized segments take a third route unless `params.exact` is
    /// set: a PQ coarse scan over the resident code slab keeps the top
    /// `rerank_depth` candidates (`k × rerank_mult` by default), then the
    /// exact rerank stage rescores them from the demand-paged tier. Both
    /// stages emit vq-obs phase spans (`phase.coarse_scan`,
    /// `phase.rerank`) tagged with the segment `seq`.
    pub fn search(
        &self,
        config: &CollectionConfig,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Option<&Filter>,
        with_payload: bool,
    ) -> Vec<ScoredPoint> {
        self.search_with_params(
            config,
            query,
            k,
            ef,
            filter,
            with_payload,
            &SearchParams::default(),
        )
    }

    /// [`Segment::search`] with explicit two-stage knobs, on the calling
    /// thread.
    #[allow(clippy::too_many_arguments)]
    pub fn search_with_params(
        &self,
        config: &CollectionConfig,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Option<&Filter>,
        with_payload: bool,
        params: &SearchParams,
    ) -> Vec<ScoredPoint> {
        self.search_with_params_ctx(
            config,
            query,
            k,
            ef,
            filter,
            with_payload,
            params,
            &vq_core::ExecCtx::Serial,
        )
    }

    /// [`Segment::search_with_params`] on an explicit execution context.
    ///
    /// The context reaches the chunked scans underneath — the PQ coarse
    /// scan and the flat fallback — so their chunk sizing matches the
    /// pool actually running the query. Graph (HNSW) and prefiltered scans are inherently
    /// sequential per query and ignore it.
    #[allow(clippy::too_many_arguments)]
    pub fn search_with_params_ctx(
        &self,
        config: &CollectionConfig,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Option<&Filter>,
        with_payload: bool,
        params: &SearchParams,
        ctx: &vq_core::ExecCtx,
    ) -> Vec<ScoredPoint> {
        if self.store.total_offsets() == 0 || k == 0 {
            return Vec::new();
        }
        // Only live offsets that satisfy the payload filter may surface.
        let accept = |offset: u32| -> bool {
            if !self.store.is_live(offset) {
                return false;
            }
            match filter {
                Some(f) => f.matches(self.store.payload_at(offset)),
                None => true,
            }
        };
        // Prefilter path: exact scoring of the candidate list.
        let prefiltered = filter.and_then(|f| {
            let candidates = self.store.payload_index().candidates(f)?;
            // Worth it when the candidate set is much smaller than the
            // graph search would visit; with no index at all, candidates
            // always beat a full scan.
            let beats_graph = candidates.len() * 4 < self.store.total_offsets()
                || self.index.is_none();
            beats_graph.then_some(candidates)
        });
        let quantized = (!params.exact).then_some(()).and(self.quantized.as_ref());
        let hits = match (&self.index, prefiltered) {
            (_, Some(candidates)) => {
                let mut top = vq_core::TopK::new(k);
                for offset in candidates {
                    if !accept(offset) {
                        continue; // tombstoned, or non-indexed condition
                    }
                    let score = config
                        .metric
                        .score(query, self.store.arena().get(offset));
                    top.offer(ScoredPoint::new(offset as u64, score));
                }
                top.into_sorted()
                    .into_iter()
                    .map(|p| (p.id as u32, p.score))
                    .collect()
            }
            _ if quantized.is_some() => {
                let q = quantized.expect("guard");
                let mult = config
                    .quantization
                    .map(|c| c.rerank_mult.max(1))
                    .unwrap_or(4);
                let depth = params.rerank_depth.unwrap_or(k * mult).max(k);
                // With no payload filter and no tombstones every offset
                // is acceptable — skip the per-row liveness closure so
                // the coarse scan stays on the pure blocked-kernel path.
                let unfiltered =
                    filter.is_none() && self.store.live_count() == self.store.total_offsets();
                let stamp = vq_obs::enabled().then(std::time::Instant::now);
                let coarse = if unfiltered {
                    q.codec.search_ctx(query, depth, None, None, ctx)
                } else {
                    q.codec.search_ctx(query, depth, None, Some(&accept), ctx)
                };
                if let Some(stamp) = stamp {
                    vq_obs::record_phase("coarse_scan", self.seq, stamp.elapsed().as_secs_f64());
                }
                let stamp = vq_obs::enabled().then(std::time::Instant::now);
                let exact = rerank(&q.tier, config.metric, query, &coarse, k);
                if let Some(stamp) = stamp {
                    vq_obs::record_phase("rerank", self.seq, stamp.elapsed().as_secs_f64());
                }
                exact
            }
            (Some(hnsw), None) => {
                // Widen the beam when filtering: accepted results shrink
                // after the fact, so ask the graph for more candidates.
                let ef = if filter.is_some() { ef.max(k * 4) } else { ef };
                hnsw.search(self.store.arena(), query, k, ef, Some(&accept))
            }
            (None, None) => FlatIndex::new(config.metric).search_ctx(
                self.store.arena(),
                query,
                k,
                Some(&accept),
                ctx,
            ),
        };
        hits.into_iter()
            .map(|(offset, score)| {
                let id = self
                    .store
                    .id_at(offset)
                    .expect("offset came from this store");
                ScoredPoint {
                    id,
                    score,
                    payload: with_payload.then(|| self.store.payload_at(offset).clone()),
                }
            })
            .collect()
    }

    /// Exact distance computations a flat search of this segment costs.
    pub fn flat_scan_cost(&self) -> u64 {
        self.store.total_offsets() as u64
    }

    /// Rebuild the segment without tombstones (vacuum). Returns the new
    /// segment (same `seq`, no index) and how many tombstones were
    /// dropped.
    pub fn vacuumed(&self, config: &CollectionConfig) -> VqResult<(Segment, usize)> {
        let mut fresh = Segment::new(self.seq, config);
        let mut dropped = self.store.total_offsets();
        for (id, offset) in self.store.iter_live() {
            fresh.store.upsert(Point::with_payload(
                id,
                self.store.arena().get(offset).to_vec(),
                self.store.payload_at(offset).clone(),
            ))?;
            dropped -= 1;
        }
        if self.is_sealed() {
            fresh.seal();
        }
        Ok((fresh, dropped))
    }

    /// Fetch a live point by id.
    pub fn get(&self, id: PointId) -> Option<Point> {
        self.store.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vq_core::{Distance, Payload};

    fn cfg() -> CollectionConfig {
        CollectionConfig::new(2, Distance::Euclid)
    }

    fn filled_segment(n: usize) -> Segment {
        let config = cfg();
        let mut s = Segment::new(0, &config);
        for i in 0..n {
            s.store_mut()
                .upsert(Point::with_payload(
                    i as PointId,
                    vec![i as f32, 0.0],
                    Payload::from_pairs([("parity", (i % 2) as i64)]),
                ))
                .unwrap();
        }
        s
    }

    #[test]
    fn unindexed_search_is_exact() {
        let s = filled_segment(20);
        let hits = s.search(&cfg(), &[7.2, 0.0], 3, 50, None, false);
        let ids: Vec<PointId> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![7, 8, 6]);
        assert!(!s.is_indexed());
    }

    #[test]
    fn indexed_search_matches_flat_on_small_segment() {
        let config = cfg();
        let mut s = filled_segment(50);
        s.seal();
        let index = s.build_index(&config);
        s.install_index(index);
        assert!(s.is_indexed());
        let flat = filled_segment(50).search(&config, &[13.4, 0.0], 5, 100, None, false);
        let hnsw = s.search(&config, &[13.4, 0.0], 5, 100, None, false);
        assert_eq!(
            flat.iter().map(|h| h.id).collect::<Vec<_>>(),
            hnsw.iter().map(|h| h.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tombstoned_points_never_surface() {
        let config = cfg();
        let mut s = filled_segment(10);
        s.store_mut().delete(3).unwrap();
        let hits = s.search(&config, &[3.0, 0.0], 3, 50, None, false);
        assert!(hits.iter().all(|h| h.id != 3));
        // Same through an index.
        s.seal();
        let index = s.build_index(&config);
        s.install_index(index);
        let hits = s.search(&config, &[3.0, 0.0], 3, 50, None, false);
        assert!(hits.iter().all(|h| h.id != 3));
    }

    #[test]
    fn payload_filter_applies() {
        let s = filled_segment(20);
        let f = Filter::must_match("parity", 0i64);
        let hits = s.search(&cfg(), &[5.0, 0.0], 4, 50, Some(&f), false);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.id % 2 == 0), "{hits:?}");
    }

    #[test]
    fn with_payload_attaches() {
        let s = filled_segment(5);
        let hits = s.search(&cfg(), &[1.0, 0.0], 1, 10, None, true);
        let p = hits[0].payload.as_ref().expect("payload requested");
        assert!(p.get("parity").is_some());
        let hits = s.search(&cfg(), &[1.0, 0.0], 1, 10, None, false);
        assert!(hits[0].payload.is_none());
    }

    #[test]
    fn prefilter_and_postfilter_agree() {
        // Differential: a selective filter through the indexed (prefilter)
        // path must return exactly what the post-filter path returns.
        let config = cfg();
        let mut s = filled_segment(200);
        s.seal();
        let index = s.build_index(&config);
        s.install_index(index);
        // "parity = 0" matches half the segment → post-filter path;
        // rebuild a rarer predicate via a fresh segment where only a few
        // points carry a marker.
        let mut rare = Segment::new(1, &config);
        for i in 0..200u64 {
            let mut payload = Payload::from_pairs([("parity", (i % 2) as i64)]);
            if i % 37 == 0 {
                payload.insert("marker", true);
            }
            rare.store_mut()
                .upsert(Point::with_payload(i, vec![i as f32, 0.0], payload))
                .unwrap();
        }
        rare.seal();
        let idx = rare.build_index(&config);
        rare.install_index(idx);
        let f = Filter::must_match("marker", true);
        // 6 of 200 points match → prefilter triggers (6*4 < 200).
        let hits = rare.search(&config, &[100.0, 0.0], 10, 64, Some(&f), false);
        let mut got: Vec<u64> = hits.iter().map(|h| h.id).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 37, 74, 111, 148, 185], "exact candidate set");
        // Scores descend from the point nearest 100.
        assert_eq!(hits[0].id, 111);
    }

    #[test]
    fn prefilter_respects_tombstones() {
        let config = cfg();
        let mut s = Segment::new(0, &config);
        for i in 0..50u64 {
            let mut payload = Payload::new();
            if i < 5 {
                payload.insert("rare", true);
            }
            s.store_mut()
                .upsert(Point::with_payload(i, vec![i as f32, 0.0], payload))
                .unwrap();
        }
        s.store_mut().delete(2).unwrap();
        let f = Filter::must_match("rare", true);
        let hits = s.search(&config, &[0.0, 0.0], 10, 64, Some(&f), false);
        let ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        assert!(!ids.contains(&2), "tombstone must not surface: {ids:?}");
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn vacuum_drops_tombstones() {
        let config = cfg();
        let mut s = filled_segment(10);
        for id in [1, 3, 5] {
            s.store_mut().delete(id).unwrap();
        }
        s.seal();
        let (fresh, dropped) = s.vacuumed(&config).unwrap();
        assert_eq!(dropped, 3);
        assert_eq!(fresh.live_count(), 7);
        assert_eq!(fresh.store().total_offsets(), 7);
        assert!(fresh.is_sealed());
        assert!(!fresh.is_indexed());
        assert_eq!(fresh.get(1), None);
        assert!(fresh.get(2).is_some());
    }

    #[test]
    fn empty_segment_searches_empty() {
        let s = Segment::new(0, &cfg());
        assert!(s.search(&cfg(), &[0.0, 0.0], 5, 10, None, false).is_empty());
    }

    fn quant_cfg() -> CollectionConfig {
        cfg().quantization(crate::config::QuantizationConfig::with_m(2).ks(16))
    }

    #[test]
    fn quantized_two_stage_full_depth_matches_exact() {
        let config = quant_cfg();
        let mut s = filled_segment(100);
        s.seal();
        let q = s.build_quantized(&config).expect("quantizable");
        s.install_quantized(q);
        assert!(s.is_quantized());
        let ids = |hits: &[ScoredPoint]| hits.iter().map(|h| h.id).collect::<Vec<_>>();
        let want = ids(&filled_segment(100).search(&cfg(), &[31.4, 0.0], 5, 50, None, false));
        // Depth covering every offset → two-stage ≡ exact.
        let full = SearchParams {
            rerank_depth: Some(100),
            exact: false,
        };
        let got = s.search_with_params(&config, &[31.4, 0.0], 5, 50, None, false, &full);
        assert_eq!(ids(&got), want);
        // `exact` bypasses the quantized path and agrees too.
        let exact = SearchParams {
            rerank_depth: None,
            exact: true,
        };
        let got = s.search_with_params(&config, &[31.4, 0.0], 5, 50, None, false, &exact);
        assert_eq!(ids(&got), want);
        // Resident form is strictly smaller than the raw vectors.
        let quant = s.quantized().unwrap();
        assert!(quant.full_bytes() > 0);
        assert!((quant.codec().code_bytes() as u64) < 2 * 4);
    }

    #[test]
    fn quantized_respects_tombstones_and_filters() {
        let config = quant_cfg();
        let mut s = filled_segment(50);
        s.store_mut().delete(3).unwrap();
        s.seal();
        let q = s.build_quantized(&config).expect("quantizable");
        s.install_quantized(q);
        let deep = SearchParams {
            rerank_depth: Some(50),
            exact: false,
        };
        let hits = s.search_with_params(&config, &[3.0, 0.0], 5, 50, None, false, &deep);
        assert!(hits.iter().all(|h| h.id != 3), "{hits:?}");
        let f = Filter::must_match("parity", 0i64);
        let hits = s.search_with_params(&config, &[5.0, 0.0], 4, 50, Some(&f), false, &deep);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.id % 2 == 0), "{hits:?}");
    }

    #[test]
    fn quantized_skipped_when_dim_indivisible() {
        let config = CollectionConfig::new(3, Distance::Euclid)
            .quantization(crate::config::QuantizationConfig::with_m(2));
        let mut s = Segment::new(0, &config);
        s.store_mut()
            .upsert(Point::new(1, vec![1.0, 2.0, 3.0]))
            .unwrap();
        s.seal();
        assert!(s.build_quantized(&config).is_none());
    }
}
