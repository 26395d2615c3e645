//! The unified driver pipeline: batching and concurrency logic, once.
//!
//! Every client driver in `vq` — the live multi-threaded uploader, the
//! live query runner, and all the discrete-event simulations — executes
//! the *same* plan through the *same* window accounting. This module is
//! the single place that logic lives:
//!
//! * [`Plan`] — how a run of `n` items splits into lanes (one per client
//!   process) and fixed-size batches. The lane partition rule is
//!   identical to [`vq_workload::DatasetSpec::partition`], so a plan's
//!   batch boundaries match what a live uploader feeds the cluster.
//! * [`PipelinePolicy`] — the executor semantics of the paper's §3.2
//!   expressed as policy, not code: asyncio is *one* lane with an
//!   in-flight window (CPU-bound conversion serializes on the event
//!   loop); multiprocessing is one lane *per worker*, each with its own
//!   window.
//! * [`WindowState`] — issue/outstanding/done accounting for one lane's
//!   in-flight window. Both runtimes ([`crate::runtime::WallClock`] with
//!   real threads, [`crate::runtime::VirtualClock`] on the DES engine)
//!   decide "may the next batch be issued?" exclusively through
//!   [`WindowState::try_issue`].
//! * [`PipelineTrace`] — the realized per-batch request structure, used
//!   by the live/virtual cross-validation test to prove both clocks run
//!   the same protocol.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use vq_core::{Point, PointBlock, ScoredPoint, VqError, VqResult};

/// Which client executor a pipeline models (the paper's §3.2 executors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Python-asyncio-like single-threaded loop with an in-flight window.
    Asyncio {
        /// Max outstanding RPCs.
        in_flight: usize,
    },
    /// One process per worker, each an asyncio loop with the given
    /// window.
    MultiProcess {
        /// In-flight window within each process.
        in_flight: usize,
    },
}

/// What a pipeline run does per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Convert and upsert points.
    Upload,
    /// Build and dispatch a search batch.
    Query,
}

/// How an upload pipeline materializes each batch for the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPath {
    /// `Vec<Point>` per request — the per-point reference implementation
    /// (the shape the paper's Python client sends).
    #[default]
    PerPoint,
    /// One columnar [`PointBlock`] per request, converted on the rayon
    /// pool via [`convert_block`] and sent behind an `Arc`: shard routing
    /// and replication share the slab instead of deep-copying vectors.
    Block,
}

/// The columnar conversion stage: lay `points` out as one contiguous
/// [`PointBlock`], copying vector rows into the slab in parallel on the
/// rayon pool.
///
/// This is the client-side half of the zero-copy ingest path. The rayon
/// pool does the CPU-bound row copies *off the issuing lane's thread* —
/// the structural opposite of the paper's asyncio client, whose §3.2
/// conversion (45.64 ms per 32-batch) serializes on the event loop and
/// caps its concurrency speedup at 1.31×. The resulting block's slab is
/// contiguous, so every downstream layer (wire, WAL, arena) takes its
/// bulk fast path.
///
/// All points must share one dimension; ragged input is rejected with
/// the same error the per-point ingest path would raise server-side.
pub fn convert_block(points: &[Point]) -> VqResult<PointBlock> {
    let Some(first) = points.first() else {
        return PointBlock::from_points(points);
    };
    let dim = first.vector.len();
    for p in points {
        if p.vector.len() != dim {
            return Err(VqError::DimensionMismatch {
                expected: dim,
                got: p.vector.len(),
            });
        }
    }
    let mut slab = vec![0.0f32; points.len() * dim];
    let rows: Vec<(&mut [f32], &Point)> = slab.chunks_mut(dim.max(1)).zip(points).collect();
    rows.into_par_iter()
        .for_each(|(row, p)| row.copy_from_slice(&p.vector));
    let ids: Vec<vq_core::PointId> = points.iter().map(|p| p.id).collect();
    let payloads: Vec<vq_core::Payload> = points.iter().map(|p| p.payload.clone()).collect();
    PointBlock::from_columns(dim, ids.into(), slab.into(), payloads.into())
}

/// Lane/window shape of a run: [`ExecutorKind`] semantics as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelinePolicy {
    /// Independent client lanes (processes/threads).
    pub lanes: u32,
    /// In-flight window within each lane.
    pub window: usize,
}

impl PipelinePolicy {
    /// Single-lane asyncio pipeline with `in_flight` outstanding batches.
    pub fn asyncio(in_flight: usize) -> Self {
        PipelinePolicy {
            lanes: 1,
            window: in_flight.max(1),
        }
    }

    /// `lanes` independent client processes, each with its own window.
    pub fn multi_process(lanes: u32, in_flight: usize) -> Self {
        PipelinePolicy {
            lanes: lanes.max(1),
            window: in_flight.max(1),
        }
    }

    /// Map an executor (and the deployment's worker count) to a policy:
    /// asyncio drives all work down one lane; multiprocessing runs one
    /// lane per worker (the paper's one-client-per-worker layout).
    pub fn from_executor(executor: ExecutorKind, workers: u32) -> Self {
        match executor {
            ExecutorKind::Asyncio { in_flight } => PipelinePolicy::asyncio(in_flight),
            ExecutorKind::MultiProcess { in_flight } => {
                PipelinePolicy::multi_process(workers, in_flight)
            }
        }
    }
}

/// One planned batch: a contiguous item range within one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchSpec {
    /// Lane issuing the batch.
    pub lane: u32,
    /// Zero-based position within the lane's issue order.
    pub index_in_lane: u64,
    /// Zero-based position in the plan-wide enumeration (lane-major).
    pub global_index: u64,
    /// First item (inclusive).
    pub start: u64,
    /// Last item (exclusive).
    pub end: u64,
}

impl BatchSpec {
    /// Items in the batch.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the batch is empty (never true for planned batches).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// One lane's contiguous share of the items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LanePlan {
    /// Lane id (0-based).
    pub lane: u32,
    /// First item of the lane's range (inclusive).
    pub start: u64,
    /// Last item of the lane's range (exclusive).
    pub end: u64,
    /// Batch size the lane steps by.
    pub batch_size: usize,
    /// Global index of the lane's first batch.
    pub first_global: u64,
}

impl LanePlan {
    /// Items assigned to the lane.
    pub fn items(&self) -> u64 {
        self.end - self.start
    }

    /// Batches the lane will issue.
    pub fn batch_count(&self) -> u64 {
        self.items().div_ceil(self.batch_size as u64)
    }

    /// The lane's `index`-th batch (the last one may be ragged).
    pub fn batch(&self, index: u64) -> BatchSpec {
        debug_assert!(index < self.batch_count());
        let start = self.start + index * self.batch_size as u64;
        BatchSpec {
            lane: self.lane,
            index_in_lane: index,
            global_index: self.first_global + index,
            start,
            end: (start + self.batch_size as u64).min(self.end),
        }
    }
}

/// A complete run plan: items split into lanes, lanes into batches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plan {
    /// Total items the plan covers.
    pub items: u64,
    /// Points/queries per batch.
    pub batch_size: usize,
    lanes: Vec<LanePlan>,
}

impl Plan {
    /// Split `items` into `lanes` contiguous shares, batched by
    /// `batch_size`.
    ///
    /// The partition rule matches [`vq_workload::DatasetSpec::partition`]
    /// exactly: `items / lanes` each, with the first `items % lanes`
    /// lanes taking one extra — so a plan's batch boundaries are the
    /// boundaries a live uploader sends over the wire.
    pub fn contiguous(items: u64, batch_size: usize, lanes: u32) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let lanes = lanes.max(1);
        let per = items / lanes as u64;
        let rem = items % lanes as u64;
        let mut out = Vec::with_capacity(lanes as usize);
        let mut start = 0u64;
        let mut first_global = 0u64;
        for lane in 0..lanes {
            let extra = if (lane as u64) < rem { 1 } else { 0 };
            let end = start + per + extra;
            let plan = LanePlan {
                lane,
                start,
                end,
                batch_size,
                first_global,
            };
            first_global += plan.batch_count();
            out.push(plan);
            start = end;
        }
        Plan {
            items,
            batch_size,
            lanes: out,
        }
    }

    /// The per-lane plans, in lane order.
    pub fn lanes(&self) -> &[LanePlan] {
        &self.lanes
    }

    /// Batches across all lanes.
    pub fn total_batches(&self) -> u64 {
        self.lanes.iter().map(LanePlan::batch_count).sum()
    }

    /// The largest per-lane batch count (the lane that ends the run when
    /// lanes are independent and identically paced).
    pub fn max_lane_batches(&self) -> u64 {
        self.lanes.iter().map(LanePlan::batch_count).max().unwrap_or(0)
    }
}

/// In-flight window accounting for one lane.
///
/// This is the *only* place issue decisions are made: a batch may be
/// issued iff the lane has batches left and fewer than `window`
/// outstanding. The wall-clock runtime consults it under a mutex from
/// its slot threads; the virtual runtime consults it from engine
/// callbacks. Neither reimplements the rule.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowState {
    issued: u64,
    outstanding: u64,
    done: u64,
    total: u64,
    call_time_sum: f64,
}

impl WindowState {
    /// Fresh accounting for a lane with `total` batches.
    pub fn new(total: u64) -> Self {
        WindowState {
            issued: 0,
            outstanding: 0,
            done: 0,
            total,
            call_time_sum: 0.0,
        }
    }

    /// Issue the next batch if the window allows; returns its index
    /// within the lane.
    pub fn try_issue(&mut self, window: usize) -> Option<u64> {
        if self.issued >= self.total || self.outstanding >= window as u64 {
            return None;
        }
        let index = self.issued;
        self.issued += 1;
        self.outstanding += 1;
        Some(index)
    }

    /// Record a batch completion with its client-observed call time.
    pub fn complete(&mut self, call_secs: f64) {
        debug_assert!(self.outstanding > 0);
        self.outstanding -= 1;
        self.done += 1;
        self.call_time_sum += call_secs;
    }

    /// Batches completed so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Batches issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Batches currently in flight (issued, not yet complete) — the
    /// lane-occupancy gauge both runtimes export.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Whether an issue attempt would be refused *because the window is
    /// full* (rather than the lane being out of batches) — the
    /// batch-window wait the client metrics count.
    pub fn window_full(&self, window: usize) -> bool {
        self.issued < self.total && self.outstanding >= window as u64
    }

    /// Sum of recorded call times, seconds.
    pub fn call_time_sum(&self) -> f64 {
        self.call_time_sum
    }

    /// Whether every batch has completed.
    pub fn is_complete(&self) -> bool {
        self.done == self.total
    }
}

/// The realized request structure of one batch (what actually went over
/// the wire / through the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Lane that issued the batch.
    pub lane: u32,
    /// Issue position within the lane.
    pub index_in_lane: u64,
    /// First item (inclusive).
    pub start: u64,
    /// Last item (exclusive).
    pub end: u64,
}

/// The realized request structure of a whole run.
///
/// Records are appended at *issue* time. Within a lane, issue order is
/// the batch-index order on every substrate; across lanes, interleaving
/// is substrate-dependent (thread scheduling vs event order), so
/// structural comparison is per-lane.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineTrace {
    /// All issued batches, in observation order.
    pub records: Vec<BatchRecord>,
}

impl PipelineTrace {
    /// Batches recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The lane's records, in observation order.
    pub fn lane(&self, lane: u32) -> Vec<BatchRecord> {
        self.records.iter().copied().filter(|r| r.lane == lane).collect()
    }

    /// Structural equality with another trace: same per-lane batch
    /// sequences (count, order, boundaries) for every lane in
    /// `0..lanes`. Timing-free — this is what must be identical between
    /// the wall and virtual clocks.
    pub fn same_structure(&self, other: &PipelineTrace, lanes: u32) -> bool {
        self.len() == other.len()
            && (0..lanes).all(|lane| self.lane(lane) == other.lane(lane))
    }
}

/// Outcome of one pipeline run, on either clock.
#[derive(Debug, Clone, Default)]
pub struct PipelineRun {
    /// Wall (or virtual-wall) seconds for the whole run.
    pub wall_secs: f64,
    /// Batches completed.
    pub batches: u64,
    /// Mean client-observed per-batch call time (submit → response),
    /// seconds.
    pub mean_batch_call_secs: f64,
    /// Per-batch call times: in plan (global-index) order on the wall
    /// clock, in completion order on the virtual clock.
    pub batch_call_secs: Vec<f64>,
    /// Realized request structure.
    pub trace: PipelineTrace,
    /// Per-query result lists in query order (query runs against a live
    /// service only; empty otherwise).
    pub results: Vec<Vec<ScoredPoint>>,
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in
/// `0..=100`); `None` when empty.
pub fn percentile_nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partition_matches_dataset_partition() {
        use vq_workload::{CorpusSpec, DatasetSpec, EmbeddingModel};
        let corpus = CorpusSpec::small(10_000);
        let model = EmbeddingModel::small(&corpus, 16);
        for (n, lanes) in [(101u64, 3u32), (500, 2), (1000, 4), (7, 16), (0, 3)] {
            let d = DatasetSpec::with_vectors(corpus.clone(), model.clone(), n);
            let plan = Plan::contiguous(n, 16, lanes);
            let parts = d.partition(lanes);
            assert_eq!(plan.lanes().len(), parts.len());
            for (lane, part) in plan.lanes().iter().zip(&parts) {
                assert_eq!(lane.start..lane.end, part.clone(), "n={n} lanes={lanes}");
            }
        }
    }

    #[test]
    fn lane_batches_are_contiguous_and_ragged_only_at_the_end() {
        let plan = Plan::contiguous(101, 16, 3);
        assert_eq!(plan.total_batches(), 3 + 3 + 3); // 34, 34, 33 items
        for lane in plan.lanes() {
            let mut expected_start = lane.start;
            for i in 0..lane.batch_count() {
                let b = lane.batch(i);
                assert_eq!(b.start, expected_start);
                assert!(b.len() <= 16);
                if i + 1 < lane.batch_count() {
                    assert_eq!(b.len(), 16, "only the last batch may be ragged");
                }
                expected_start = b.end;
            }
            assert_eq!(expected_start, lane.end, "batches tile the lane");
        }
    }

    #[test]
    fn global_indexes_enumerate_lane_major() {
        let plan = Plan::contiguous(100, 32, 2); // lanes of 50 → 2 batches each
        let all: Vec<u64> = plan
            .lanes()
            .iter()
            .flat_map(|l| (0..l.batch_count()).map(|i| l.batch(i).global_index))
            .collect();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn policy_maps_executors() {
        let a = PipelinePolicy::from_executor(ExecutorKind::Asyncio { in_flight: 4 }, 8);
        assert_eq!(a, PipelinePolicy { lanes: 1, window: 4 });
        let m = PipelinePolicy::from_executor(ExecutorKind::MultiProcess { in_flight: 2 }, 8);
        assert_eq!(m, PipelinePolicy { lanes: 8, window: 2 });
        assert_eq!(PipelinePolicy::asyncio(0).window, 1, "window floors at 1");
    }

    #[test]
    fn window_state_enforces_the_window() {
        let mut w = WindowState::new(3);
        assert_eq!(w.try_issue(2), Some(0));
        assert_eq!(w.try_issue(2), Some(1));
        assert_eq!(w.try_issue(2), None, "window full");
        w.complete(0.5);
        assert_eq!(w.try_issue(2), Some(2));
        assert_eq!(w.try_issue(2), None, "exhausted");
        w.complete(0.25);
        w.complete(0.25);
        assert!(w.is_complete());
        assert_eq!(w.done(), 3);
        assert!((w.call_time_sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_structure_comparison_ignores_cross_lane_interleaving() {
        let r = |lane, index_in_lane, start, end| BatchRecord {
            lane,
            index_in_lane,
            start,
            end,
        };
        let a = PipelineTrace {
            records: vec![r(0, 0, 0, 8), r(1, 0, 16, 24), r(0, 1, 8, 16)],
        };
        let b = PipelineTrace {
            records: vec![r(1, 0, 16, 24), r(0, 0, 0, 8), r(0, 1, 8, 16)],
        };
        assert!(a.same_structure(&b, 2));
        let c = PipelineTrace {
            records: vec![r(0, 0, 0, 8), r(0, 1, 8, 16), r(1, 0, 16, 25)],
        };
        assert!(!a.same_structure(&c, 2), "boundary drift must be caught");
    }

    #[test]
    fn convert_block_matches_from_points() {
        use vq_core::Payload;
        let points: Vec<Point> = (0..17)
            .map(|i| {
                let mut p = Point::new(i, vec![i as f32; 24]);
                p.payload = Payload::from_pairs([("i", i as i64)]);
                p
            })
            .collect();
        let parallel = convert_block(&points).unwrap();
        let reference = PointBlock::from_points(&points).unwrap();
        assert_eq!(parallel, reference);
        assert!(
            parallel.as_contiguous().is_some(),
            "converted blocks must expose the contiguous-slab fast path"
        );
        assert!(convert_block(&[]).unwrap().is_empty());
    }

    #[test]
    fn convert_block_rejects_ragged_batches() {
        let points = vec![Point::new(0, vec![0.0; 8]), Point::new(1, vec![0.0; 9])];
        assert!(convert_block(&points).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_nearest_rank(&xs, 50.0), Some(2.0));
        assert_eq!(percentile_nearest_rank(&xs, 100.0), Some(4.0));
        assert_eq!(percentile_nearest_rank(&xs, 0.0), Some(1.0));
        assert_eq!(percentile_nearest_rank(&[], 50.0), None);
    }
}
