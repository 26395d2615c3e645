//! Exact brute-force ("flat") search.
//!
//! Scores the query against every stored vector. O(n·d) per query but
//! exact; it serves three roles in `vq`:
//!
//! 1. the search path for segments whose HNSW build the optimizer has
//!    deferred (the paper's bulk-upload flow searches unindexed segments
//!    this way),
//! 2. the ground-truth oracle for recall measurements, and
//! 3. the baseline in the index-family ablation.
//!
//! Scans on a pool context fan out with a per-chunk [`TopK`] and a
//! final merge, which is the textbook reduction for top-k selection.

use crate::source::VectorSource;
use crate::{OffsetFilter, OffsetHit};
use vq_core::{Distance, ExecCtx, ScoredPoint, TopK};

/// Minimum number of vectors before a scan fans out; below this the
/// dispatch overhead exceeds the scan cost.
const PARALLEL_THRESHOLD: usize = 4096;

/// Exact scan "index". Stateless: it is a strategy over a [`VectorSource`].
#[derive(Debug, Clone, Copy)]
pub struct FlatIndex {
    metric: Distance,
}

impl FlatIndex {
    /// Create a flat scanner for the given metric.
    pub fn new(metric: Distance) -> Self {
        FlatIndex { metric }
    }

    /// Metric used for scoring.
    pub fn metric(&self) -> Distance {
        self.metric
    }

    /// Exact top-`k` search over `source`, optionally filtered, on the
    /// calling thread. Callers wanting fan-out pass a pool to
    /// [`FlatIndex::search_ctx`].
    pub fn search<S: VectorSource>(
        &self,
        source: &S,
        query: &[f32],
        k: usize,
        filter: Option<OffsetFilter<'_>>,
    ) -> Vec<OffsetHit> {
        self.search_ctx(source, query, k, filter, &ExecCtx::Serial)
    }

    /// Exact top-`k` search on an explicit execution context.
    ///
    /// Chunk sizing uses the *context's* width — a scan dispatched onto a
    /// 2-thread shard pool cuts the data in 2, not in one piece per core
    /// of the node. Results are bit-identical across contexts and chunk
    /// widths: every chunk keeps a total-order [`TopK`] and the final
    /// `merge_top_k` breaks score ties by id.
    pub fn search_ctx<S: VectorSource>(
        &self,
        source: &S,
        query: &[f32],
        k: usize,
        filter: Option<OffsetFilter<'_>>,
        ctx: &ExecCtx,
    ) -> Vec<OffsetHit> {
        let n = source.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        debug_assert_eq!(query.len(), source.dim());
        let width = ctx.width_hint();
        let pool = match ctx {
            ExecCtx::Pool(pool) if n >= PARALLEL_THRESHOLD && width > 1 => pool,
            _ => return self.scan_range(source, query, k, filter, 0, n),
        };
        // Chunked parallel scan; each chunk keeps its own top-k, the
        // partials are merged at the end.
        let chunk = n.div_ceil(width);
        let partials: Vec<Vec<OffsetHit>> = pool.scope_map(n.div_ceil(chunk), |i| {
            let start = i * chunk;
            self.scan_range(source, query, k, filter, start, (start + chunk).min(n))
        });
        let lists: Vec<Vec<ScoredPoint>> = partials
            .into_iter()
            .map(|hits| {
                hits.into_iter()
                    .map(|(o, s)| ScoredPoint::new(o as u64, s))
                    .collect()
            })
            .collect();
        vq_core::point::merge_top_k(lists, k)
            .into_iter()
            .map(|p| (p.id as u32, p.score))
            .collect()
    }

    /// Number of distance computations an unfiltered scan performs
    /// (used by the cost model: flat search work is linear in segment size).
    pub fn scan_cost<S: VectorSource>(&self, source: &S) -> u64 {
        source.len() as u64
    }

    fn scan_range<S: VectorSource>(
        &self,
        source: &S,
        query: &[f32],
        k: usize,
        filter: Option<OffsetFilter<'_>>,
        start: usize,
        end: usize,
    ) -> Vec<OffsetHit> {
        let dim = source.dim();
        let mut top = TopK::new(k);
        let mut scores: Vec<f32> = Vec::new();
        let mut offset = start;
        // Walk contiguous blocks (whole pages for paged storage, the
        // entire range for dense storage) and score each with one blocked
        // kernel call. The filter is applied at offer time: scoring is
        // branch-free and vectorized, so computing a score that a filter
        // then discards is cheaper than breaking the block apart.
        while offset < end {
            let block = source.contiguous_block(offset as u32);
            let rows = (block.len() / dim).min(end - offset);
            scores.resize(rows, 0.0);
            self.metric
                .score_block(query, &block[..rows * dim], &mut scores[..rows]);
            for (r, &score) in scores[..rows].iter().enumerate() {
                let o = (offset + r) as u32;
                if let Some(f) = filter {
                    if !f(o) {
                        continue;
                    }
                }
                top.offer(ScoredPoint::new(o as u64, score));
            }
            offset += rows;
        }
        top.into_sorted()
            .into_iter()
            .map(|p| (p.id as u32, p.score))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DenseVectors;
    use rand::{Rng, SeedableRng};

    fn grid_source() -> DenseVectors {
        // Points at x = 0, 1, 2, ..., 9 on a line.
        DenseVectors::from_flat(2, (0..10).flat_map(|i| [i as f32, 0.0]).collect())
    }

    #[test]
    fn finds_nearest_under_euclid() {
        let s = grid_source();
        let idx = FlatIndex::new(Distance::Euclid);
        let hits = idx.search(&s, &[3.2, 0.0], 3, None);
        let ids: Vec<u32> = hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, vec![3, 4, 2]);
    }

    #[test]
    fn respects_filter() {
        let s = grid_source();
        let idx = FlatIndex::new(Distance::Euclid);
        let even = |o: u32| o % 2 == 0;
        let hits = idx.search(&s, &[3.0, 0.0], 2, Some(&even));
        let ids: Vec<u32> = hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, vec![2, 4]);
    }

    #[test]
    fn empty_and_zero_k() {
        let s = DenseVectors::new(2);
        let idx = FlatIndex::new(Distance::Dot);
        assert!(idx.search(&s, &[1.0, 0.0], 5, None).is_empty());
        let s = grid_source();
        assert!(idx.search(&s, &[1.0, 0.0], 0, None).is_empty());
    }

    #[test]
    fn parallel_path_matches_sequential() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let n = PARALLEL_THRESHOLD * 2 + 17;
        let dim = 16;
        let mut s = DenseVectors::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let idx = FlatIndex::new(Distance::Cosine);
        let pool = vq_core::ExecPool::new(vq_core::PoolConfig::new(3));
        let par = idx.search_ctx(&s, &q, 10, None, &ExecCtx::pool(pool.clone()));
        pool.shutdown();
        let seq = idx.scan_range(&s, &q, 10, None, 0, n);
        assert_eq!(par, seq);
    }

    /// A source with artificially tiny pages, so scans must stitch
    /// many page-boundary-straddling blocks together.
    struct PagedStub {
        dim: usize,
        page_rows: usize,
        pages: Vec<Vec<f32>>,
        len: usize,
    }

    impl PagedStub {
        fn from_dense(dense: &DenseVectors, page_rows: usize) -> Self {
            let dim = dense.dim();
            let len = dense.len();
            let mut pages = Vec::new();
            for start in (0..len).step_by(page_rows) {
                let mut page = Vec::new();
                for o in start..(start + page_rows).min(len) {
                    page.extend_from_slice(dense.vector(o as u32));
                }
                pages.push(page);
            }
            PagedStub {
                dim,
                page_rows,
                pages,
                len,
            }
        }
    }

    impl VectorSource for PagedStub {
        fn dim(&self) -> usize {
            self.dim
        }
        fn len(&self) -> usize {
            self.len
        }
        fn vector(&self, offset: u32) -> &[f32] {
            let page = offset as usize / self.page_rows;
            let slot = offset as usize % self.page_rows;
            &self.pages[page][slot * self.dim..(slot + 1) * self.dim]
        }
        fn contiguous_block(&self, offset: u32) -> &[f32] {
            let page = offset as usize / self.page_rows;
            let slot = offset as usize % self.page_rows;
            &self.pages[page][slot * self.dim..]
        }
    }

    #[test]
    fn paged_blocks_match_dense_scan() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let dim = 7;
        let mut dense = DenseVectors::new(dim);
        for _ in 0..103 {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            dense.push(&v);
        }
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for metric in [Distance::Dot, Distance::Euclid, Distance::Manhattan] {
            let idx = FlatIndex::new(metric);
            let want = idx.search(&dense, &q, 12, None);
            for page_rows in [1, 3, 8, 200] {
                let paged = PagedStub::from_dense(&dense, page_rows);
                let got = idx.search(&paged, &q, 12, None);
                assert_eq!(got, want, "metric {metric} page_rows {page_rows}");
            }
        }
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let s = grid_source();
        let idx = FlatIndex::new(Distance::Euclid);
        let hits = idx.search(&s, &[0.0, 0.0], 100, None);
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn scan_cost_is_len() {
        let s = grid_source();
        assert_eq!(FlatIndex::new(Distance::Dot).scan_cost(&s), 10);
    }
}
