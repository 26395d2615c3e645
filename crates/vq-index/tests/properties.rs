//! Property-based tests for the index family: structural invariants on
//! arbitrary data, agreement with the exact reference, codec totality,
//! and execution-context equivalence (pool scans bit-identical to the
//! serial path at any width).

use proptest::prelude::*;
use vq_core::{Distance, ExecCtx, ExecPool, PoolConfig};
use vq_index::{
    recall_at_k, DenseVectors, FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex,
    PqCodec, PqConfig, SourceRerank, VectorSource,
};

/// Deterministic tie-heavy dataset: values quantized to half-integer
/// steps so many vectors score identically and the merge's id tie-break
/// is actually exercised. An LCG keeps generation cheap enough for
/// sizes above the parallel-scan thresholds.
fn tie_heavy_source(n: usize, dim: usize, seed: u64) -> DenseVectors {
    let mut s = DenseVectors::new(dim);
    let mut state = seed | 1;
    let mut v = vec![0.0f32; dim];
    for _ in 0..n {
        for x in v.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // 8 distinct values per coordinate → plenty of exact ties.
            *x = ((state >> 33) % 8) as f32 * 0.5 - 2.0;
        }
        s.push(&v);
    }
    s
}

/// Assert two hit lists are bit-identical: same offsets in the same
/// order, and scores equal to the bit.
fn assert_bit_identical(got: &[(u32, f32)], want: &[(u32, f32)], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: lengths diverged");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.0, w.0, "{label}: offsets diverged");
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "{label}: score bits diverged at offset {}",
            g.0
        );
    }
}

fn arb_source(dim: usize, max_n: usize) -> impl Strategy<Value = DenseVectors> {
    prop::collection::vec(
        prop::collection::vec(-10.0f32..10.0, dim),
        0..max_n,
    )
    .prop_map(move |vs| {
        let mut s = DenseVectors::new(dim);
        for v in &vs {
            s.push(v);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flat_results_sorted_and_unique(
        s in arb_source(6, 120),
        q in prop::collection::vec(-10.0f32..10.0, 6),
        k in 1usize..20
    ) {
        let hits = FlatIndex::new(Distance::Euclid).search(&s, &q, k, None);
        prop_assert!(hits.len() <= k.min(s.len()));
        for w in hits.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "scores must descend");
            prop_assert_ne!(w[0].0, w[1].0, "offsets must be unique");
        }
        prop_assert_eq!(hits.len(), k.min(s.len()));
    }

    #[test]
    fn hnsw_structure_invariants(s in arb_source(4, 150), m in 3usize..12) {
        let cfg = HnswConfig::with_m(m).seed(7);
        let idx = HnswIndex::build(&s, Distance::Euclid, cfg);
        prop_assert_eq!(idx.len(), s.len());
        for (offset, layers) in idx.export_links().into_iter().enumerate() {
            prop_assert_eq!(layers.len() - 1, idx.node_level(offset as u32));
            for (layer, links) in layers.iter().enumerate() {
                let cap = if layer == 0 { cfg.m0 } else { cfg.m };
                prop_assert!(links.len() <= cap);
                let mut seen = std::collections::HashSet::new();
                for &nb in links {
                    prop_assert!((nb as usize) < s.len(), "dangling link");
                    prop_assert_ne!(nb as usize, offset, "self link");
                    prop_assert!(seen.insert(nb), "duplicate link");
                    prop_assert!(idx.node_level(nb) >= layer);
                }
            }
        }
    }

    #[test]
    fn hnsw_finds_exact_self_match(s in arb_source(4, 100)) {
        prop_assume!(s.len() > 0);
        let idx = HnswIndex::build(&s, Distance::Euclid, HnswConfig::default().seed(3));
        // Querying with a stored vector must return a perfect-score hit
        // (itself or an identical duplicate).
        for offset in [0u32, (s.len() / 2) as u32, (s.len() - 1) as u32] {
            let q = s.vector(offset).to_vec();
            let hits = idx.search(&s, &q, 1, s.len().max(16), None);
            prop_assert_eq!(hits.len(), 1);
            prop_assert!(hits[0].1 >= -1e-6, "self-query score {}", hits[0].1);
        }
    }

    #[test]
    fn hnsw_recall_not_catastrophic(s in arb_source(8, 300), qs in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 8), 1..6)) {
        prop_assume!(s.len() >= 20);
        let idx = HnswIndex::build(&s, Distance::Euclid, HnswConfig::default().seed(5));
        let flat = FlatIndex::new(Distance::Euclid);
        let mut total = 0.0;
        for q in &qs {
            let truth: Vec<u32> = flat.search(&s, q, 5, None).iter().map(|h| h.0).collect();
            let got: Vec<u32> = idx
                .search(&s, q, 5, 200, None)
                .iter()
                .map(|h| h.0)
                .collect();
            total += recall_at_k(&got, &truth);
        }
        // With ef=200 ≥ most dataset sizes here, recall should be high on
        // ANY input — even adversarial duplicates.
        prop_assert!(total / qs.len() as f64 > 0.6, "recall {}", total / qs.len() as f64);
    }

    #[test]
    fn ivf_partitions_all_offsets(s in arb_source(5, 200), nlist in 1usize..20) {
        let idx = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(nlist).seed(9));
        let sizes = idx.list_sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), s.len());
        // Every offset in exactly one list.
        let mut seen = std::collections::HashSet::new();
        for c in 0..sizes.len() {
            for &o in idx.list(c) {
                prop_assert!(seen.insert(o), "offset {} in two lists", o);
            }
        }
        prop_assert_eq!(seen.len(), s.len());
    }

    #[test]
    fn ivf_full_probe_equals_flat(
        s in arb_source(5, 150),
        q in prop::collection::vec(-10.0f32..10.0, 5),
        nlist in 1usize..10
    ) {
        prop_assume!(s.len() > 0);
        let idx = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(nlist).seed(2));
        let nl = idx.config().nlist;
        let got: Vec<u32> = idx.search(&s, &q, 7, Some(nl), None).iter().map(|h| h.0).collect();
        let want: Vec<u32> = FlatIndex::new(Distance::Euclid)
            .search(&s, &q, 7, None)
            .iter()
            .map(|h| h.0)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn pq_codec_totality(
        s in arb_source(8, 120),
        v in prop::collection::vec(-10.0f32..10.0, 8),
        m in prop::sample::select(vec![1usize, 2, 4, 8]),
        ks in 2usize..32
    ) {
        prop_assume!(s.len() >= 1);
        let pq = PqCodec::build(&s, Distance::Euclid, PqConfig::with_m(m).ks(ks).seed(4));
        // Encode/decode any vector of the right dim without panicking;
        // codes stay within the codebook.
        let code = pq.encode(&v);
        prop_assert_eq!(code.len(), m);
        for &c in &code {
            prop_assert!((c as usize) < pq.config().ks);
        }
        let recon = pq.decode(&code);
        prop_assert_eq!(recon.len(), 8);
        // ADC score of a stored code equals the reconstruction score.
        let table = pq.adc_table(&v);
        for o in 0..s.len().min(5) as u32 {
            let adc = pq.adc_score(&table, o);
            let direct = -vq_core::distance::l2_squared(&v, &pq.decode(pq.code(o)));
            prop_assert!((adc - direct).abs() < 1e-2 * (1.0 + direct.abs()), "{adc} vs {direct}");
        }
    }

    #[test]
    fn pq_two_stage_full_depth_equals_flat(
        s in arb_source(8, 120),
        q in prop::collection::vec(-10.0f32..10.0, 8),
        m in prop::sample::select(vec![1usize, 2, 4]),
        ks in 2usize..24,
        k in 1usize..15
    ) {
        prop_assume!(s.len() >= 1);
        let pq = PqCodec::build(&s, Distance::Euclid, PqConfig::with_m(m).ks(ks).seed(9));
        // With rerank depth covering every stored code, the quantized
        // coarse scan only selects candidates (all of them) and the
        // exact rerank decides — so two-stage must equal the flat scan
        // exactly, offsets and scores both.
        let got = pq.search_rerank(&SourceRerank(&s), &q, k, s.len(), None);
        let want = FlatIndex::new(Distance::Euclid).search(&s, &q, k, None);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.0, w.0, "offset order diverged");
            prop_assert_eq!(g.1.to_bits(), w.1.to_bits(), "scores diverged");
        }
    }

    #[test]
    fn pq_rerank_respects_filters_and_depth(
        s in arb_source(6, 100),
        q in prop::collection::vec(-10.0f32..10.0, 6),
        modulo in 2u32..5,
        depth in 1usize..40
    ) {
        prop_assume!(s.len() >= 1);
        let pq = PqCodec::build(&s, Distance::Euclid, PqConfig::with_m(2).ks(8).seed(3));
        let pass = |o: u32| o % modulo == 0;
        let hits = pq.search_rerank(&SourceRerank(&s), &q, 5, depth, Some(&pass));
        prop_assert!(hits.len() <= 5);
        prop_assert!(hits.iter().all(|&(o, _)| pass(o)), "filter leaked");
        for w in hits.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "rerank output must stay sorted");
        }
    }

    #[test]
    fn filters_never_leak(
        s in arb_source(4, 100),
        q in prop::collection::vec(-10.0f32..10.0, 4),
        modulo in 2u32..5
    ) {
        prop_assume!(s.len() > 0);
        let pass = |o: u32| o % modulo == 0;
        let flat_hits = FlatIndex::new(Distance::Euclid).search(&s, &q, 50, Some(&pass));
        prop_assert!(flat_hits.iter().all(|&(o, _)| pass(o)));
        let idx = HnswIndex::build(&s, Distance::Euclid, HnswConfig::default().seed(6));
        let hnsw_hits = idx.search(&s, &q, 10, 64, Some(&pass));
        prop_assert!(hnsw_hits.iter().all(|&(o, _)| pass(o)));
    }
}

// Execution-context equivalence: the per-shard pool path must return
// results bit-identical (offsets, order, score bits) to the serial
// path, at every pool width and under advertised-width overrides — the
// invariant the paradox experiment's colocated/partitioned comparison
// rests on. Datasets sit above the
// parallel-scan thresholds so the pool paths genuinely fork, and are
// tie-heavy so the id tie-break carries real weight. Both kernel
// dispatch tiers are covered: CI runs this suite again under
// `VQ_FORCE_SCALAR=1`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn flat_pool_path_bit_identical(
        seed in any::<u64>(),
        width in 2usize..6,
        k in 1usize..48
    ) {
        // Above flat's PARALLEL_THRESHOLD (4096) so the scan chunks.
        let s = tie_heavy_source(4100 + (seed % 257) as usize, 8, seed);
        let q: Vec<f32> = (0..8).map(|i| (i as f32 * 0.25) - 1.0).collect();
        let flat = FlatIndex::new(Distance::Euclid);
        let want = flat.search_ctx(&s, &q, k, None, &ExecCtx::Serial);
        let pool = ExecPool::new(PoolConfig::new(width));
        let got = flat.search_ctx(&s, &q, k, None, &ExecCtx::pool(pool.clone()));
        assert_bit_identical(&got, &want, "flat pool vs serial");
        // Mis-advertised width changes chunk sizing, never results.
        let wide = ExecPool::new(PoolConfig::new(width).advertised_width(width * 4));
        let got = flat.search_ctx(&s, &q, k, None, &ExecCtx::pool(wide.clone()));
        assert_bit_identical(&got, &want, "flat over-advertised pool vs serial");
        // Filtered scans chunk the same way.
        let pass = |o: u32| o % 3 != 1;
        let want = flat.search_ctx(&s, &q, k, Some(&pass), &ExecCtx::Serial);
        let got = flat.search_ctx(&s, &q, k, Some(&pass), &ExecCtx::pool(pool.clone()));
        assert_bit_identical(&got, &want, "flat filtered pool vs serial");
        pool.shutdown();
        wide.shutdown();
    }

    #[test]
    fn ivf_pool_path_bit_identical(
        seed in any::<u64>(),
        width in 2usize..6,
        nlist in 4usize..10
    ) {
        // Probing every list keeps total members (4096+) above the
        // probe-parallel threshold, so the pool path forks per list.
        let s = tie_heavy_source(4096, 6, seed);
        let q: Vec<f32> = (0..6).map(|i| (i as f32 * 0.5) - 1.5).collect();
        let idx = IvfIndex::build(&s, Distance::Euclid, IvfConfig::with_nlist(nlist).seed(11));
        let nl = idx.config().nlist;
        let want = idx.search_ctx(&s, &q, 13, Some(nl), None, &ExecCtx::Serial);
        let pool = ExecPool::new(PoolConfig::new(width));
        let got = idx.search_ctx(&s, &q, 13, Some(nl), None, &ExecCtx::pool(pool.clone()));
        assert_bit_identical(&got, &want, "ivf pool vs serial");
        let pass = |o: u32| o % 2 == 0;
        let want = idx.search_ctx(&s, &q, 13, Some(nl), Some(&pass), &ExecCtx::Serial);
        let got = idx.search_ctx(&s, &q, 13, Some(nl), Some(&pass), &ExecCtx::pool(pool.clone()));
        assert_bit_identical(&got, &want, "ivf filtered pool vs serial");
        pool.shutdown();
    }

    #[test]
    fn pq_pool_path_bit_identical(
        seed in any::<u64>(),
        width in 2usize..6,
        k in 1usize..32
    ) {
        // Above 2 × SCAN_BLOCK_ROWS (1024) so the coarse scan chunks
        // into whole kernel blocks.
        let s = tie_heavy_source(1600 + (seed % 129) as usize, 8, seed);
        let q: Vec<f32> = (0..8).map(|i| (i as f32 * 0.3) - 1.0).collect();
        let pq = PqCodec::build(&s, Distance::Euclid, PqConfig::with_m(4).ks(16).seed(7));
        let want = pq.search_ctx(&q, k, None, None, &ExecCtx::Serial);
        let pool = ExecPool::new(PoolConfig::new(width));
        let got = pq.search_ctx(&q, k, None, None, &ExecCtx::pool(pool.clone()));
        assert_bit_identical(&got, &want, "pq pool vs serial");
        let wide = ExecPool::new(PoolConfig::new(width).advertised_width(16));
        let got = pq.search_ctx(&q, k, None, None, &ExecCtx::pool(wide.clone()));
        assert_bit_identical(&got, &want, "pq over-advertised pool vs serial");
        // Two-stage rerank on a pool context stays exact.
        let want = pq.search_rerank_ctx(&SourceRerank(&s), &q, k, s.len(), None, &ExecCtx::Serial);
        let got = pq.search_rerank_ctx(&SourceRerank(&s), &q, k, s.len(), None, &ExecCtx::pool(pool.clone()));
        assert_bit_identical(&got, &want, "pq rerank pool vs serial");
        pool.shutdown();
        wide.shutdown();
    }
}
