//! The fixed metric names: what each measures, its unit, which way is
//! better, and how far it may worsen before `compare` calls it a
//! regression. `BENCHMARK.json` at the repo root declares the same names
//! (`tests` keep the two in step).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
    /// Every workload reports it, so `BENCHMARK.json` can declare it; the
    /// rest are reported by the workloads that exercise them and gated by
    /// `ledger compare` only.
    pub every_workload: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    every_workload: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        every_workload,
    }
}

/// Timings carry the widest bound the benchmark contract allows, because
/// this host drifts by that much (baseline/FINDINGS.md §4). What repeats
/// from run to run is held to what the issue fixed, or close to it.
pub const END_TO_END: [EndToEnd; 12] = [
    // Input generation + ground truth + cluster/server start + load +
    // seal/build/quantize; median of the run's set-ups.
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    // Completed searches per second, median over the one-second windows of
    // the measured phase (on ingest_churn: the reader, beside the writer).
    e2e("search_qps", "1/s", Better::Higher, 0.25, true),
    e2e("search_p50_ms", "ms", Better::Lower, 0.25, true),
    // Median of the five per-fifth p99s when each fifth has >= 1000
    // samples, else whole-phase.
    e2e("search_p99_ms", "ms", Better::Lower, 0.25, true),
    // Mean recall@10 of the workload's `recall_queries` fixed queries
    // against exact truth (after churn: over the final live set).
    e2e("recall_at_10", "ratio", Better::Higher, 0.02, true),
    // Acknowledged points per second through the workload's load path;
    // median of the run's set-ups.
    e2e("insert_pts_per_s", "1/s", Better::Higher, 0.25, true),
    // CollectionStats: quantized_resident_bytes (its peak over the recall
    // pass) / live_points where quantized, else approx_bytes / live_points.
    e2e("resident_bytes_per_point", "B", Better::Lower, 0.01, true),
    // VmHWM of the workload's process.
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, true),
    // seal_all + build_indexes()/quantize() call to return; median of the
    // run's set-ups.
    e2e("index_build_s", "s", Better::Lower, 0.25, false),
    // p99 of update-block latency during churn, from each block's due time.
    e2e("upsert_p99_ms", "ms", Better::Lower, 0.25, false),
    // restart_worker(0) after kill_worker(0): snapshot + WAL replay +
    // catch-up.
    e2e("recover_s", "s", Better::Lower, 0.25, false),
    // Failed or refused operations / attempted, all phases; any increase
    // is a regression.
    e2e("error_rate", "ratio", Better::Lower, 0.0, false),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Measured on every workload (and so declared in `BENCHMARK.json`).
    pub every_workload: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    every_workload: bool,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        every_workload,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 51] = [
    layer("server.rest_search_self_us", "us", Lower, true),
    layer("server.bin_search_self_us", "us", Lower, true),
    layer("server.rest_upsert_self_us_per_batch", "us", Lower, true),
    layer("server.bin_upsert_self_us_per_batch", "us", Lower, true),
    layer("server.json_encode_us_per_batch", "us", Lower, true),
    layer("server.rest_bytes_per_point", "B", Lower, true),
    layer("server.bin_bytes_per_point", "B", Lower, true),
    layer("net.tcp_extra_us_per_query", "us", Lower, true),
    layer("net.encode_us_per_msg", "us", Lower, true),
    layer("net.decode_us_per_msg", "us", Lower, true),
    layer("net.frame_us_per_msg", "us", Lower, true),
    layer("net.bytes_per_query", "B", Lower, true),
    layer("net.msgs_per_query", "count", Lower, true),
    layer("net.block_encode_mb_per_s", "MB/s", Higher, true),
    layer("cluster.search_self_us", "us", Lower, true),
    layer("cluster.upsert_self_us_per_batch", "us", Lower, true),
    layer("cluster.search_retries", "count", Lower, true),
    layer("cluster.failovers", "count", Lower, true),
    layer("cluster.coordination_share", "ratio", Lower, true),
    layer("collection.search_total_us", "us", Lower, true),
    layer("collection.search_critical_us", "us", Lower, true),
    layer("collection.search_self_us", "us", Lower, true),
    layer("collection.upsert_block_us_per_batch", "us", Lower, true),
    layer("collection.segments", "count", Lower, true),
    layer("collection.indexed_frac", "ratio", Higher, true),
    layer("collection.tombstone_frac", "ratio", Lower, true),
    layer("collection.build_s", "s", Lower, false),
    layer("collection.quantize_build_s", "s", Lower, false),
    layer("index.search_total_us", "us", Lower, true),
    layer("index.distance_evals_per_query", "count", Lower, true),
    layer("index.hnsw_build_s", "s", Lower, false),
    layer("index.pq_train_s", "s", Lower, false),
    layer("index.coarse_scan_us", "us", Lower, false),
    layer("index.rerank_us", "us", Lower, false),
    layer("index.rerank_candidates_per_query", "count", Lower, false),
    layer("storage.wal_append_us_per_batch", "us", Lower, true),
    layer("storage.wal_bytes_per_point", "B", Lower, true),
    layer("storage.wal_syncs_per_batch", "count", Lower, true),
    layer("storage.arena_extend_us_per_batch", "us", Lower, true),
    layer("storage.tier_faults_per_query", "count", Lower, false),
    layer("storage.tier_read_us_per_vector", "us", Lower, false),
    layer("storage.tier_resident_bytes", "B", Lower, false),
    layer("core.score_block_ns_per_row", "ns", Lower, true),
    layer("core.pq_score_ns_per_row", "ns", Lower, false),
    layer("core.lut_build_us", "us", Lower, false),
    layer("core.block_convert_us_per_batch", "us", Lower, true),
    layer("core.pool_dispatch_us", "us", Lower, true),
    layer("obs.recorder_on_slowdown", "ratio", Lower, true),
    layer("obs.trace_on_slowdown", "ratio", Lower, true),
    layer("ladder.inversions", "count", Lower, true),
    layer("ladder.top_rung_vs_e2e", "ratio", Lower, true),
];
