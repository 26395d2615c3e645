//! Storage-path benchmarks: WAL framing throughput, arena appends,
//! segment upserts — the per-row server-side costs behind the insert
//! experiments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vq_core::{Point, PointBlock};
use vq_storage::{PagedArena, SegmentStore, Wal, WalRecord};

fn point(id: u64, dim: usize) -> Point {
    Point::new(id, vec![0.25; dim])
}

/// The WAL record for one row: a one-row block.
fn upsert_record(id: u64, dim: usize) -> WalRecord {
    WalRecord::UpsertBlock(PointBlock::from_points(&[point(id, dim)]).unwrap())
}

fn bench_storage(c: &mut Criterion) {
    // WAL append+replay at the paper's vector size.
    let mut group = c.benchmark_group("storage/wal");
    for dim in [256usize, 2560] {
        let bytes = (dim * 4 + 16) as u64;
        group.throughput(Throughput::Bytes(bytes));
        group.bench_with_input(BenchmarkId::new("append", dim), &dim, |b, &dim| {
            let rec = upsert_record(1, dim);
            let mut wal = Wal::in_memory();
            b.iter(|| wal.append(&rec).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("encode_decode", dim), &dim, |b, &dim| {
            let rec = upsert_record(1, dim);
            b.iter(|| {
                let enc = rec.encode();
                WalRecord::decode(&enc).unwrap()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("storage/replay_1k_records");
    group.sample_size(20);
    group.bench_function("dim256", |b| {
        let mut wal = Wal::in_memory();
        for i in 0..1000 {
            wal.append(&upsert_record(i, 256)).unwrap();
        }
        b.iter(|| wal.replay().unwrap())
    });
    group.finish();

    // Arena append at Qwen3 dims.
    let mut group = c.benchmark_group("storage/arena_push");
    for dim in [256usize, 2560] {
        group.throughput(Throughput::Bytes((dim * 4) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, &dim| {
            let v = vec![0.5f32; dim];
            let mut arena = PagedArena::new(dim);
            b.iter(|| arena.push(&v).unwrap())
        });
    }
    group.finish();

    // Whole-segment upsert path (arena + ids + payload).
    let mut group = c.benchmark_group("storage/segment_upsert");
    group.sample_size(20);
    group.bench_function("dim2560", |b| {
        let mut store = SegmentStore::new(2560);
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            store.upsert(point(id, 2560)).unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_storage
}
criterion_main!(benches);
