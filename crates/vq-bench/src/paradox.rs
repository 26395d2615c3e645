//! The scaling-paradox sweep (`repro paradox`).
//!
//! "When More Cores Hurts" (PAPERS.md) measures distributed vector
//! search *losing* throughput as workers and threads are added past the
//! node's core count — the regime the paper's Fig. 3 first hints at with
//! its 1.27× speedup for 1→4 co-located workers. This module sweeps
//! workers × threads-per-worker on both runtimes and measures whether
//! the execution layer (per-worker [`vq_core::ExecPool`]s, core
//! affinity, contention-aware placement) removes the hurt:
//!
//! * **Live sweep** — a real in-process cluster per sweep point, two
//!   arms each: `colocated` (per-worker pools, but unpinned and
//!   advertising the node-wide width — every worker sizing its chunks
//!   as if the whole node were its own), and `partitioned` (threads
//!   clamped to the worker's fair core share, pinned to
//!   disjoint core slices, shards spread across nodes). Wall-clock
//!   noise on shared CI boxes is tamed with best-of-`reps` timing and
//!   two decorrelated passes over the grid (see [`live_sweep`]).
//! * **Virtual sweep** — the same grid through
//!   [`vq_hpc::MalleableCpu::with_oversubscription`], where the
//!   oversubscription penalty is explicit and the curves are exactly
//!   reproducible: the *before* arm submits every worker's scan at its
//!   configured thread cap, the *after* arm clamps to the fair share.
//!
//! The deterministic virtual curves carry the shape claims (the paradox
//! exists before, is gone after); the live sweep pins the same claims on
//! real hardware with tolerances. `results/paradox.json` records both.

use serde::Serialize;
use vq_cluster::{Cluster, ClusterConfig, SearchExec};
use vq_collection::{CollectionConfig, SearchRequest};
use vq_core::Distance;
use vq_hpc::{Engine, MalleableCpu, NodeTopology};
use vq_workload::{CorpusSpec, DatasetSpec, EmbeddingModel};

/// The sweep grid: co-located workers × configured threads per worker.
pub const LIVE_WORKERS: [u32; 2] = [1, 2];
/// Threads-per-worker axis of the live grid.
pub const LIVE_THREADS: [usize; 3] = [1, 2, 4];

/// Virtual grid: workers per 32-core node.
pub const VIRTUAL_WORKERS: [u32; 4] = [1, 2, 4, 8];
/// Virtual grid: threads per worker.
pub const VIRTUAL_THREADS: [u32; 3] = [8, 16, 32];
/// Modeled node width for the virtual sweep (Polaris: 32 cores).
pub const VIRTUAL_CORES: f64 = 32.0;
/// Oversubscription penalty calibrated to the follow-up paper's
/// degradation shape (throughput ∝ 1 / (1 + p·overload)).
pub const VIRTUAL_PENALTY: f64 = 0.4;

/// Live workload sizing (already scaled by the caller).
#[derive(Debug, Clone, Copy)]
pub struct LiveScale {
    /// Vectors uploaded per sweep point.
    pub points: u64,
    /// Vector dimensionality.
    pub dim: usize,
    /// Queries per timed burst.
    pub queries: usize,
    /// Timed bursts per arm; the fastest is kept (noise floor).
    pub reps: usize,
}

/// One live sweep point: both arms on the same workload.
#[derive(Debug, Clone, Serialize)]
pub struct LivePoint {
    /// Co-located workers.
    pub workers: u32,
    /// Configured threads per worker (the *colocated* arm runs exactly
    /// this many; the *partitioned* arm clamps to the fair core share).
    pub threads_per_worker: usize,
    /// workers × threads_per_worker — the oversubscription axis.
    pub total_threads: usize,
    /// Threads per worker the partitioned arm actually ran.
    pub partitioned_threads: usize,
    /// Per-worker pools, unpinned, node-wide advertised width (the
    /// chunk mis-sizing reproduction).
    pub colocated_qps: f64,
    /// Per-worker pools, fair-share clamp, core pinning,
    /// contention-spread placement.
    pub partitioned_qps: f64,
    /// `pool.injected` delta during the partitioned arm. This is the
    /// deterministic dispatch signal: the *caller* bumps it once per
    /// scope ticket, whereas `pool.tasks` only counts work a pool
    /// thread won the race to execute (the caller participates in
    /// fork–join, so on small scopes it can legitimately drain
    /// everything itself).
    pub pool_injected: u64,
    /// `pool.tasks` delta during the partitioned arm.
    pub pool_tasks: u64,
    /// `pool.steals` delta during the partitioned arm.
    pub pool_steals: u64,
    /// `pool.pinned_threads` delta during the partitioned arm (0 where
    /// `sched_setaffinity` is unsupported or denied).
    pub pool_pinned: u64,
}

/// One virtual sweep point (throughput normalized to the 1-worker
/// full-node ideal = 1.0).
#[derive(Debug, Clone, Serialize)]
pub struct VirtualPoint {
    /// Workers on the modeled node.
    pub workers: u32,
    /// Configured threads per worker.
    pub threads_per_worker: u32,
    /// workers × threads_per_worker.
    pub total_threads: u32,
    /// Normalized throughput with every worker demanding its configured
    /// thread count (the paradox curve).
    pub before_throughput: f64,
    /// Normalized throughput with threads clamped to the fair share.
    pub after_throughput: f64,
}

/// Makespan of `workers` equal scan tasks capped at `threads` cores each
/// on one oversubscription-penalized node.
fn virtual_makespan(workers: u32, threads: f64, total_work: f64) -> f64 {
    let cpu = MalleableCpu::with_oversubscription(VIRTUAL_CORES, VIRTUAL_PENALTY);
    let mut engine = Engine::new();
    for _ in 0..workers {
        cpu.submit(
            &mut engine,
            total_work / f64::from(workers),
            threads,
            |_, _| {},
        );
    }
    engine.run_until_idle().as_secs_f64()
}

/// Run the deterministic virtual sweep.
pub fn virtual_sweep() -> Vec<VirtualPoint> {
    // One node-hour of scan work; only ratios matter.
    let total_work = VIRTUAL_CORES * 60.0;
    let ideal = virtual_makespan(1, VIRTUAL_CORES, total_work);
    let mut out = Vec::new();
    for &w in &VIRTUAL_WORKERS {
        for &t in &VIRTUAL_THREADS {
            let before = virtual_makespan(w, f64::from(t), total_work);
            let fair = (VIRTUAL_CORES / f64::from(w)).min(f64::from(t)).max(1.0);
            let after = virtual_makespan(w, fair, total_work);
            out.push(VirtualPoint {
                workers: w,
                threads_per_worker: t,
                total_threads: w * t,
                before_throughput: ideal / before,
                after_throughput: ideal / after,
            });
        }
    }
    out
}

/// Snapshot one vq-obs counter (0 when the recorder is disabled).
fn obs_counter(name: &str) -> u64 {
    vq_obs::snapshot().map_or(0, |s| s.counter(name))
}

/// Queries-per-second of one cluster arm on `dataset`, best of
/// `scale.reps` bursts.
fn run_live_arm(
    workers: u32,
    exec: SearchExec,
    dataset: &DatasetSpec,
    scale: &LiveScale,
) -> f64 {
    let mut config = ClusterConfig::new(workers).shards(workers).exec(exec);
    // One "node" = this whole machine, so fair shares and core slices
    // divide the real core count among the co-located workers.
    config.workers_per_node = workers;
    let cluster = Cluster::start(config, CollectionConfig::new(scale.dim, Distance::Cosine))
        .expect("paradox cluster start");
    let mut client = cluster.client();
    client
        .upsert_batch(dataset.points_in(0..scale.points))
        .expect("paradox upload");

    let probe = |i: usize| dataset.point((i as u64 * 13) % scale.points).vector;
    for i in 0..4 {
        client
            .search(SearchRequest::new(probe(i), 10))
            .expect("warmup search");
    }
    let mut best = f64::INFINITY;
    for _ in 0..scale.reps.max(1) {
        let t0 = std::time::Instant::now();
        for i in 0..scale.queries {
            client
                .search(SearchRequest::new(probe(i), 10))
                .expect("timed search");
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    cluster.shutdown();
    scale.queries as f64 / best.max(1e-9)
}

/// Run the live sweep: every grid point, two arms each.
///
/// The grid is visited in TWO full passes minutes apart, keeping the
/// best throughput per arm per point (counter deltas accumulate). One
/// visit per point would let a low-frequency noise episode (co-tenant
/// CPU, frequency scaling) bias *cross-point* comparisons — exactly
/// what the `--check` regression gate computes; best-of within a single
/// visit's back-to-back bursts cannot decorrelate that.
pub fn live_sweep(scale: &LiveScale) -> Vec<LivePoint> {
    let corpus = CorpusSpec::small(scale.points);
    let model = EmbeddingModel::small(&corpus, scale.dim);
    let dataset = DatasetSpec::with_vectors(corpus, model, scale.points);
    let cores = NodeTopology::detect().cores;

    let mut out: Vec<LivePoint> = Vec::new();
    for pass in 0..2 {
        let mut idx = 0;
        for &w in &LIVE_WORKERS {
            for &t in &LIVE_THREADS {
                // "Before": per-worker pools at the configured width,
                // chunks sized as if the whole node were theirs.
                let colocated = SearchExec {
                    threads_per_worker: Some(t),
                    advertised_width: Some((w as usize * t).max(1)),
                    ..SearchExec::default()
                };
                let colocated_qps = run_live_arm(w, colocated, &dataset, scale);

                // "After": fair-share clamp + affinity + spread placement.
                let fair = (cores / w as usize).max(1).min(t);
                let partitioned = SearchExec {
                    threads_per_worker: Some(fair),
                    pin_cores: true,
                    contention_spread: true,
                    ..SearchExec::default()
                };
                let injected0 = obs_counter("pool.injected");
                let tasks0 = obs_counter("pool.tasks");
                let steals0 = obs_counter("pool.steals");
                let pinned0 = obs_counter("pool.pinned_threads");
                let partitioned_qps = run_live_arm(w, partitioned, &dataset, scale);
                let injected = obs_counter("pool.injected").saturating_sub(injected0);
                let tasks = obs_counter("pool.tasks").saturating_sub(tasks0);
                let steals = obs_counter("pool.steals").saturating_sub(steals0);
                let pinned = obs_counter("pool.pinned_threads").saturating_sub(pinned0);

                if pass == 0 {
                    out.push(LivePoint {
                        workers: w,
                        threads_per_worker: t,
                        total_threads: w as usize * t,
                        partitioned_threads: fair,
                        colocated_qps,
                        partitioned_qps,
                        pool_injected: injected,
                        pool_tasks: tasks,
                        pool_steals: steals,
                        pool_pinned: pinned,
                    });
                } else {
                    let p = &mut out[idx];
                    p.colocated_qps = p.colocated_qps.max(colocated_qps);
                    p.partitioned_qps = p.partitioned_qps.max(partitioned_qps);
                    p.pool_injected += injected;
                    p.pool_tasks += tasks;
                    p.pool_steals += steals;
                    p.pool_pinned += pinned;
                }
                idx += 1;
            }
        }
    }
    out
}

/// The most oversubscribed live point (max total threads, ties broken by
/// worker count — the configuration the paradox punishes hardest).
pub fn worst_point(points: &[LivePoint]) -> &LivePoint {
    points
        .iter()
        .max_by_key(|p| (p.total_threads, p.workers))
        .expect("non-empty sweep")
}

/// For each point, the best partitioned-arm throughput among strictly
/// smaller (fewer total threads) points of the same worker count whose
/// *effective* partitioned configuration differs, when one exists.
/// Returns `(point_index, best_smaller_qps)` pairs.
///
/// Same-worker-count only: the thread axis is what the fair-share clamp
/// addresses, whereas comparing across worker counts conflates
/// scheduling with per-cluster sharding overhead. Identical effective
/// configs (same workers, same clamped thread count — common once the
/// clamp engages, and universal on a 1-core host) are excluded: the
/// partitioned arm runs the same configuration at both points, so the
/// comparison would measure run-to-run noise and nothing else.
pub fn best_smaller(points: &[LivePoint]) -> Vec<(usize, f64)> {
    points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            points
                .iter()
                .filter(|q| {
                    q.workers == p.workers
                        && q.total_threads < p.total_threads
                        && q.partitioned_threads != p.partitioned_threads
                })
                .map(|q| q.partitioned_qps)
                .reduce(f64::max)
                .map(|best| (i, best))
        })
        .collect()
}
