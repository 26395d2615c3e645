//! Quantized-resident search micro-benchmarks: SIMD PQ LUT kernels and
//! the two-stage filter-then-rerank pipeline (quantized ISSUE).
//!
//! Three angles:
//!
//! * `lut_build` — per-query ADC table construction cost per kernel tier
//!   (`scalar` vs whatever `vq_core::simd::backend()` dispatched);
//! * `coarse_scan` — blocked LUT-gather over the packed code slab vs the
//!   full-precision flat scan it replaces, at the dimensionalities where
//!   the resident-set argument matters (512, 2560);
//! * `two_stage` — end-to-end `search_rerank` at increasing rerank
//!   depths, against the exact flat baseline, so the recall-vs-latency
//!   trade the acceptance criteria pin is visible in one group.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use vq_core::{simd, Distance};
use vq_index::{DenseVectors, FlatIndex, PqCodec, PqConfig, SourceRerank};

const ROWS: usize = 10_000;

fn source(dim: usize, rows: usize, seed: u64) -> DenseVectors {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut s = DenseVectors::new(dim);
    for _ in 0..rows {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        s.push(&v);
    }
    s
}

fn query(dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Per-query LUT construction, scalar vs dispatched, per dimension.
fn bench_lut_build(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("pq_lut/build/{}", simd::backend()));
    for dim in [512usize, 2560] {
        let m = dim / 8;
        let ks = 256usize;
        let s = source(dim, 2_000, 5);
        let pq = PqCodec::build(&s, Distance::Euclid, PqConfig::with_m(m).ks(ks).seed(7));
        let q = query(dim, 11);
        let mut lut = vec![0.0f32; m * ks];
        group.throughput(Throughput::Elements((m * ks) as u64));
        group.bench_with_input(BenchmarkId::new("dispatched", dim), &dim, |b, _| {
            b.iter(|| pq.adc_table_into(black_box(&q), black_box(&mut lut)))
        });
    }
    group.finish();
}

/// Quantized coarse scan (blocked LUT-gather over the code slab) against
/// the full-precision flat scan it displaces.
fn bench_coarse_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("pq_lut/coarse_scan/{}", simd::backend()));
    for dim in [512usize, 2560] {
        let s = source(dim, ROWS, 13);
        let pq = PqCodec::build(&s, Distance::Euclid, PqConfig::with_m(dim / 8).ks(256).seed(3));
        let flat = FlatIndex::new(Distance::Euclid);
        let q = query(dim, 17);
        group.throughput(Throughput::Elements(ROWS as u64));
        group.bench_with_input(BenchmarkId::new("quantized", dim), &dim, |b, _| {
            b.iter(|| pq.search(black_box(&q), 100, None, None))
        });
        group.bench_with_input(BenchmarkId::new("flat_exact", dim), &dim, |b, _| {
            b.iter(|| flat.search(&s, black_box(&q), 100, None))
        });
    }
    group.finish();
}

/// End-to-end two-stage search at increasing rerank depth vs exact flat.
fn bench_two_stage(c: &mut Criterion) {
    let dim = 512usize;
    let s = source(dim, ROWS, 29);
    let pq = PqCodec::build(&s, Distance::Euclid, PqConfig::with_m(dim / 8).ks(256).seed(19));
    let flat = FlatIndex::new(Distance::Euclid);
    let q = query(dim, 23);
    let mut group = c.benchmark_group(format!("pq_lut/two_stage/{}", simd::backend()));
    for depth in [10usize, 40, 100, 400] {
        group.bench_with_input(BenchmarkId::new("rerank_depth", depth), &depth, |b, &d| {
            b.iter(|| pq.search_rerank(&SourceRerank(&s), black_box(&q), 10, d, None))
        });
    }
    group.bench_function("flat_exact", |b| {
        b.iter(|| flat.search(&s, black_box(&q), 10, None))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_lut_build, bench_coarse_scan, bench_two_stage
}
criterion_main!(benches);
