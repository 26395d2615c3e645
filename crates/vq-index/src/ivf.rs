//! Inverted-file (IVF) index.
//!
//! The classic coarse-quantizer family (paper §2.1: "inverted file
//! structures often paired with product quantization"). Vectors are
//! assigned to the nearest of `nlist` k-means centroids; a query probes
//! the `nprobe` nearest lists and scores only their members — exact
//! scoring here, or ADC scoring when composed with [`crate::pq`].
//!
//! Training uses Lloyd's algorithm with k-means++ seeding; assignment
//! steps run under rayon.

use crate::source::VectorSource;
use crate::{OffsetFilter, OffsetHit};
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use vq_core::{seed_rng, Distance, ExecCtx, ScoredPoint, TopK};

/// IVF parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IvfConfig {
    /// Number of coarse clusters (inverted lists).
    pub nlist: usize,
    /// Lloyd iterations during training.
    pub train_iters: usize,
    /// Lists probed per query.
    pub nprobe: usize,
    /// Training sample cap: k-means trains on at most this many vectors.
    pub train_sample: usize,
    /// Seed for k-means++ initialization.
    pub seed: u64,
}

/// Minimum total probed members before a pool-context probe scan forks
/// one task per list; below this the fork overhead exceeds the scan.
const PROBE_PARALLEL_THRESHOLD: usize = 2048;

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig {
            nlist: 64,
            train_iters: 10,
            nprobe: 8,
            train_sample: 50_000,
            seed: 0,
        }
    }
}

impl IvfConfig {
    /// Config with a given list count.
    pub fn with_nlist(nlist: usize) -> Self {
        IvfConfig {
            nlist,
            ..Default::default()
        }
    }

    /// Builder-style setter for `nprobe`.
    pub fn nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe;
        self
    }

    /// Builder-style setter for the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A trained IVF index over a [`VectorSource`].
pub struct IvfIndex {
    config: IvfConfig,
    metric: Distance,
    dim: usize,
    /// `nlist` centroids, flattened row-major.
    centroids: Vec<f32>,
    /// `lists[c]` = offsets assigned to centroid `c`.
    lists: Vec<Vec<u32>>,
}

impl IvfIndex {
    /// Train centroids on (a sample of) `source` and assign every vector.
    pub fn build<S: VectorSource>(source: &S, metric: Distance, config: IvfConfig) -> Self {
        let n = source.len();
        let dim = source.dim();
        let nlist = config.nlist.max(1).min(n.max(1));
        let centroids = if n == 0 {
            Vec::new()
        } else {
            train_kmeans(source, nlist, &config)
        };
        let mut lists = vec![Vec::new(); nlist];
        if n > 0 {
            let assignments: Vec<u32> = (0..n as u32)
                .into_par_iter()
                .map(|o| nearest_centroid(&centroids, dim, source.vector(o)).0)
                .collect();
            for (o, &c) in assignments.iter().enumerate() {
                lists[c as usize].push(o as u32);
            }
        }
        IvfIndex {
            config: IvfConfig { nlist, ..config },
            metric,
            dim,
            centroids,
            lists,
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured parameters.
    pub fn config(&self) -> &IvfConfig {
        &self.config
    }

    /// The trained centroid for list `c`.
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// Sizes of all inverted lists (for balance diagnostics).
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(Vec::len).collect()
    }

    /// Offsets in list `c` (for composition with PQ storage).
    pub fn list(&self, c: usize) -> &[u32] {
        &self.lists[c]
    }

    /// Top-`k` search probing `nprobe` lists (from `config` if `None`).
    pub fn search<S: VectorSource>(
        &self,
        source: &S,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
        filter: Option<OffsetFilter<'_>>,
    ) -> Vec<OffsetHit> {
        self.search_ctx(source, query, k, nprobe, filter, &ExecCtx::Serial)
    }

    /// Top-`k` search on an explicit execution context.
    ///
    /// A probe scan is sequential by default (list members are
    /// scattered, and one query's probes rarely justify a fork). On a
    /// [`vq_core::ExecPool`] context with enough probed members, each
    /// probed list is scanned as its own task with a
    /// private [`TopK`] and the partials merge deterministically — the
    /// result is bit-identical to the sequential scan because both
    /// select under the same total order.
    pub fn search_ctx<S: VectorSource>(
        &self,
        source: &S,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
        filter: Option<OffsetFilter<'_>>,
        ctx: &ExecCtx,
    ) -> Vec<OffsetHit> {
        if self.centroids.is_empty() || k == 0 {
            return Vec::new();
        }
        let nprobe = nprobe.unwrap_or(self.config.nprobe).max(1);
        let probed = self.nearest_lists(query, nprobe);
        if let ExecCtx::Pool(pool) = ctx {
            let members: usize = probed
                .iter()
                .map(|&c| self.lists[c as usize].len())
                .sum();
            if pool.width() > 1 && probed.len() > 1 && members >= PROBE_PARALLEL_THRESHOLD {
                let partials = pool.scope_map(probed.len(), |i| {
                    let mut top = TopK::new(k);
                    self.scan_list(source, query, probed[i], filter, &mut top);
                    top.into_sorted()
                });
                return vq_core::point::merge_top_k(partials, k)
                    .into_iter()
                    .map(|p| (p.id as u32, p.score))
                    .collect();
            }
        }
        let mut top = TopK::new(k);
        for c in probed {
            self.scan_list(source, query, c, filter, &mut top);
        }
        top.into_sorted()
            .into_iter()
            .map(|p| (p.id as u32, p.score))
            .collect()
    }

    /// Score every member of list `c` into `top`.
    fn scan_list<S: VectorSource>(
        &self,
        source: &S,
        query: &[f32],
        c: u32,
        filter: Option<OffsetFilter<'_>>,
        top: &mut TopK,
    ) {
        let list = &self.lists[c as usize];
        for (i, &o) in list.iter().enumerate() {
            // List members are scattered offsets: prefetch the next
            // one's vector while the kernel scores this one.
            if let Some(&next) = list.get(i + 1) {
                vq_core::simd::prefetch_read(source.vector(next).as_ptr() as *const u8);
            }
            if let Some(f) = filter {
                if !f(o) {
                    continue;
                }
            }
            let score = self.metric.score(query, source.vector(o));
            top.offer(ScoredPoint::new(o as u64, score));
        }
    }

    /// The `nprobe` centroid ids nearest to `query`, best first.
    pub fn nearest_lists(&self, query: &[f32], nprobe: usize) -> Vec<u32> {
        let nlist = self.lists.len();
        let mut top = TopK::new(nprobe.min(nlist));
        // Centroids are one contiguous row-major block: score them all
        // with a single blocked kernel call. Coarse assignment always
        // uses L2 geometry, matching faiss.
        let mut d = vec![0.0f32; nlist];
        vq_core::simd::l2_squared_block(query, &self.centroids, &mut d);
        for (c, &dist) in d.iter().enumerate() {
            top.offer(ScoredPoint::new(c as u64, -dist));
        }
        top.into_sorted().into_iter().map(|p| p.id as u32).collect()
    }
}

/// k-means++ + Lloyd training over a deterministic sample of `source`.
fn train_kmeans<S: VectorSource>(source: &S, nlist: usize, config: &IvfConfig) -> Vec<f32> {
    let n = source.len();
    let dim = source.dim();
    let mut rng = seed_rng(config.seed, KMEANS_STREAM);
    // Deterministic sample of training vectors.
    let sample: Vec<u32> = if n <= config.train_sample {
        (0..n as u32).collect()
    } else {
        let step = n as f64 / config.train_sample as f64;
        (0..config.train_sample)
            .map(|i| ((i as f64 * step) as usize).min(n - 1) as u32)
            .collect()
    };

    // k-means++ seeding on the sample.
    let mut centroids = Vec::with_capacity(nlist * dim);
    let first = sample[rng.gen_range(0..sample.len())];
    centroids.extend_from_slice(source.vector(first));
    let mut d2: Vec<f32> = sample
        .iter()
        .map(|&o| vq_core::distance::l2_squared(source.vector(o), &centroids[..dim]))
        .collect();
    while centroids.len() < nlist * dim {
        let total: f64 = d2.iter().map(|&d| d as f64).sum();
        let pick = if total <= 0.0 {
            sample[rng.gen_range(0..sample.len())]
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = sample[sample.len() - 1];
            for (i, &o) in sample.iter().enumerate() {
                target -= d2[i] as f64;
                if target <= 0.0 {
                    chosen = o;
                    break;
                }
            }
            chosen
        };
        let start = centroids.len();
        centroids.extend_from_slice(source.vector(pick));
        let new_c = &centroids[start..start + dim];
        for (i, &o) in sample.iter().enumerate() {
            let d = vq_core::distance::l2_squared(source.vector(o), new_c);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }

    // Lloyd iterations (parallel assignment, sequential update).
    for _ in 0..config.train_iters {
        let assign: Vec<u32> = sample
            .par_iter()
            .map(|&o| nearest_centroid(&centroids, dim, source.vector(o)).0)
            .collect();
        let mut sums = vec![0.0f64; nlist * dim];
        let mut counts = vec![0u64; nlist];
        for (&o, &c) in sample.iter().zip(&assign) {
            counts[c as usize] += 1;
            let v = source.vector(o);
            let row = &mut sums[c as usize * dim..(c as usize + 1) * dim];
            for (s, &x) in row.iter_mut().zip(v) {
                *s += x as f64;
            }
        }
        for c in 0..nlist {
            if counts[c] == 0 {
                // Empty cluster: reseed from a random sample vector.
                let o = sample[rng.gen_range(0..sample.len())];
                centroids[c * dim..(c + 1) * dim].copy_from_slice(source.vector(o));
            } else {
                let inv = 1.0 / counts[c] as f64;
                for d in 0..dim {
                    centroids[c * dim + d] = (sums[c * dim + d] * inv) as f32;
                }
            }
        }
    }
    centroids
}

/// `(index, squared distance)` of the centroid nearest to `v`.
///
/// Scores centroids through the blocked kernel in stack-buffered chunks
/// (no per-call heap allocation: this runs once per vector inside the
/// rayon assignment loops). Strict `<` keeps the first-minimum
/// tie-break, and the blocked kernel is bit-identical to the pairwise
/// one, so assignments match the previous per-centroid scan exactly.
fn nearest_centroid(centroids: &[f32], dim: usize, v: &[f32]) -> (u32, f32) {
    const CHUNK: usize = 32;
    let nlist = centroids.len() / dim;
    let mut best = (0u32, f32::MAX);
    let mut buf = [0.0f32; CHUNK];
    let mut c = 0;
    while c < nlist {
        let rows = (nlist - c).min(CHUNK);
        vq_core::simd::l2_squared_block(v, &centroids[c * dim..(c + rows) * dim], &mut buf[..rows]);
        for (r, &d) in buf[..rows].iter().enumerate() {
            if d < best.1 {
                best = ((c + r) as u32, d);
            }
        }
        c += rows;
    }
    best
}

/// Stream discriminant for the k-means RNG ("kmeans" in ASCII).
const KMEANS_STREAM: u64 = 0x6B6D_6561_6E73;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::recall::recall_at_k;
    use crate::source::DenseVectors;
    use rand::{Rng, SeedableRng};

    fn clustered_source(clusters: usize, per: usize, dim: usize, seed: u64) -> DenseVectors {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut s = DenseVectors::new(dim);
        for c in 0..clusters {
            let center: Vec<f32> = (0..dim).map(|_| (c as f32) * 3.0 + rng.gen_range(-0.1..0.1)).collect();
            for _ in 0..per {
                let v: Vec<f32> = center.iter().map(|&x| x + rng.gen_range(-0.3..0.3)).collect();
                s.push(&v);
            }
        }
        s
    }

    #[test]
    fn builds_and_assigns_everything() {
        let s = clustered_source(4, 50, 6, 1);
        let idx = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(4).seed(2));
        assert_eq!(idx.len(), 200);
        let sizes = idx.list_sizes();
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes.iter().sum::<usize>(), 200);
    }

    #[test]
    fn full_probe_is_exact() {
        let s = clustered_source(4, 40, 6, 3);
        let idx = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(8).seed(4));
        let flat = FlatIndex::new(Distance::Euclid);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        for _ in 0..10 {
            let q: Vec<f32> = (0..6).map(|_| rng.gen_range(0.0f32..9.0)).collect();
            let got: Vec<u32> = idx
                .search(&s, &q, 5, Some(8), None)
                .iter()
                .map(|h| h.0)
                .collect();
            let want: Vec<u32> = flat.search(&s, &q, 5, None).iter().map(|h| h.0).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn low_probe_recall_reasonable_on_clustered_data() {
        let s = clustered_source(8, 100, 8, 6);
        let idx = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(8).seed(7));
        let flat = FlatIndex::new(Distance::Euclid);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(8);
        let mut recall = 0.0;
        for _ in 0..30 {
            // Queries near cluster centres.
            let c = rng.gen_range(0..8) as f32;
            let q: Vec<f32> = (0..8).map(|_| c * 3.0 + rng.gen_range(-0.3f32..0.3)).collect();
            let got: Vec<u32> = idx.search(&s, &q, 10, Some(2), None).iter().map(|h| h.0).collect();
            let want: Vec<u32> = flat.search(&s, &q, 10, None).iter().map(|h| h.0).collect();
            recall += recall_at_k(&got, &want);
        }
        assert!(recall / 30.0 > 0.8, "recall {}", recall / 30.0);
    }

    #[test]
    fn more_probes_do_not_hurt_recall() {
        let s = clustered_source(6, 80, 8, 9);
        let idx = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(12).seed(10));
        let flat = FlatIndex::new(Distance::Euclid);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let (mut lo, mut hi) = (0.0, 0.0);
        for _ in 0..20 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(0.0f32..18.0)).collect();
            let want: Vec<u32> = flat.search(&s, &q, 5, None).iter().map(|h| h.0).collect();
            let a: Vec<u32> = idx.search(&s, &q, 5, Some(1), None).iter().map(|h| h.0).collect();
            let b: Vec<u32> = idx.search(&s, &q, 5, Some(12), None).iter().map(|h| h.0).collect();
            lo += recall_at_k(&a, &want);
            hi += recall_at_k(&b, &want);
        }
        assert!(hi >= lo);
    }

    #[test]
    fn empty_source() {
        let s = DenseVectors::new(4);
        let idx = IvfIndex::build(&s, Distance::Euclid, IvfConfig::default());
        assert!(idx.is_empty());
        assert!(idx.search(&s, &[0.0; 4], 3, None, None).is_empty());
    }

    #[test]
    fn nlist_clamped_to_n() {
        let mut s = DenseVectors::new(2);
        s.push(&[0.0, 0.0]);
        s.push(&[1.0, 1.0]);
        let idx = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(64));
        assert_eq!(idx.config().nlist, 2);
    }

    #[test]
    fn filter_respected() {
        let s = clustered_source(3, 30, 4, 12);
        let idx = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(3).seed(13));
        let f = |o: u32| o < 30;
        let hits = idx.search(&s, &[0.0; 4], 50, Some(3), Some(&f));
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|&(o, _)| o < 30));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let s = clustered_source(4, 40, 6, 14);
        let a = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(4).seed(15));
        let b = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(4).seed(15));
        assert_eq!(a.list_sizes(), b.list_sizes());
        assert_eq!(a.centroids, b.centroids);
    }
}
