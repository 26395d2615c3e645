//! The four workloads: sizes, configuration and the reason each exists.
//!
//! Everything not named here runs on `ClusterConfig` / `CollectionConfig`
//! defaults, so a change that improves a default shows in the numbers.

use vq_cluster::{ClusterConfig, Durability};
use vq_collection::{CollectionConfig, IndexingPolicy, QuantizationConfig};
use vq_core::Distance;

/// How requests reach the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// `RestClient` → `VqServer` (JSON over HTTP/1.1).
    Rest,
    /// `BinClient` → `VqServer` binary port (`vbin` frames).
    Bin,
    /// `ClusterClient` in the ledger's own process.
    InProc,
}

impl Edge {
    pub fn name(self) -> &'static str {
        match self {
            Edge::Rest => "rest",
            Edge::Bin => "bin",
            Edge::InProc => "in-proc",
        }
    }
}

/// What makes the loaded data ready to search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ready {
    /// Nothing: the active segments are scanned exactly.
    FlatScan,
    /// `seal_all` + `build_indexes` (HNSW).
    BuildHnsw,
    /// `seal_all` + `quantize` (PQ codes resident, vectors tiered).
    Quantize,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub points: usize,
    pub dim: usize,
    pub payload: bool,
    pub workers: u32,
    pub shards: u32,
    pub load_edge: Edge,
    pub search_edge: Edge,
    /// Points per upsert.
    pub batch: usize,
    pub ready: Ready,
    pub indexing: Option<IndexingPolicy>,
    pub pq_m: Option<usize>,
    pub rerank_depth: Option<usize>,
    /// Every second search asks for payloads.
    pub alternate_payload: bool,
    pub durable: bool,
    /// Writes run beside the reads in the measured phase.
    pub churn: bool,
    /// Queries of the recall pass, the first of the pool.
    pub recall_queries: usize,
    /// `recall_at_10` below this fails the run.
    pub recall_floor: f64,
    /// The same after `restart_worker` (durable workloads). Lower than
    /// `recall_floor`: at this commit a restarted worker answers worse
    /// than it did before the kill (baseline/FINDINGS.md).
    pub recall_floor_after_restart: f64,
}

pub const K: usize = 10;
/// Set-ups per run, all but the last in a process of their own; `setup_s`,
/// `insert_pts_per_s` and `index_build_s` are their medians.
pub const SETUP_REPEATS: usize = 3;
/// Distinct queries cycled through the measured phase.
pub const QUERY_POOL: usize = 2_000;
/// Queries compared bit for bit across REST, binary and in-proc.
pub const CONSISTENCY_QUERIES: usize = 256;

/// Churn: one update block and a few deletes per tick.
pub const CHURN_TICK_MS: u64 = 10;
pub const CHURN_UPDATES_PER_TICK: usize = 16;
pub const CHURN_DELETES_PER_TICK: usize = 4;
/// Ids sampled after churn for the deleted / updated checks.
pub const CHURN_SAMPLE: usize = 1_000;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "edge_small_hnsw",
        why: "small dim-32 HNSW data behind the REST server: JSON, HTTP, serving and coordination cost own the latency, kernels and index do not",
        points: 10_000,
        dim: 32,
        payload: true,
        workers: 2,
        shards: 4,
        load_edge: Edge::Rest,
        search_edge: Edge::Rest,
        batch: 500,
        ready: Ready::BuildHnsw,
        indexing: None,
        pq_m: None,
        rerank_depth: None,
        alternate_payload: true,
        durable: false,
        churn: false,
        recall_queries: 500,
        recall_floor: 0.95,
        recall_floor_after_restart: 0.0,
    },
    Spec {
        name: "scan_wide_flat",
        why: "exact flat scan of dim-512 vectors in-process, no server and no sockets: distance kernels, scan chunking and the exec pool own the time",
        points: 48_000,
        dim: 512,
        payload: false,
        workers: 2,
        shards: 2,
        load_edge: Edge::InProc,
        search_edge: Edge::InProc,
        batch: 512,
        ready: Ready::FlatScan,
        indexing: Some(IndexingPolicy::Deferred),
        pq_m: None,
        rerank_depth: None,
        alternate_payload: false,
        durable: false,
        churn: false,
        recall_queries: 500,
        recall_floor: 1.0,
        recall_floor_after_restart: 0.0,
    },
    Spec {
        name: "quantized_tiered",
        why: "PQ codes resident, full vectors demand-paged through a tier cache smaller than the data: coarse scan, rerank and paging trade memory against latency and recall",
        points: 16_000,
        dim: 256,
        payload: false,
        workers: 2,
        shards: 2,
        load_edge: Edge::Bin,
        search_edge: Edge::Bin,
        batch: 512,
        ready: Ready::Quantize,
        indexing: None,
        pq_m: Some(32),
        rerank_depth: Some(100),
        alternate_payload: false,
        durable: false,
        churn: false,
        // Recall is about 0.82 here, so 500 queries leave the mean 0.8 % either
        // side from one seed to the next on sampling alone; the whole pool
        // halves that.
        recall_queries: QUERY_POOL,
        recall_floor: 0.70,
        recall_floor_after_restart: 0.0,
    },
    Spec {
        name: "ingest_churn",
        why: "block ingest, index build, then searches beside a paced stream of updates and deletes, then a worker restart: read and write cost trade on the same cores and lock",
        points: 40_000,
        dim: 128,
        payload: true,
        workers: 2,
        shards: 4,
        load_edge: Edge::Bin,
        search_edge: Edge::InProc,
        batch: 512,
        ready: Ready::BuildHnsw,
        indexing: Some(IndexingPolicy::Deferred),
        pq_m: None,
        rerank_depth: None,
        alternate_payload: false,
        durable: true,
        churn: true,
        recall_queries: 500,
        recall_floor: 0.90,
        recall_floor_after_restart: 0.70,
    },
];

pub fn by_name(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The committed `--smoke` scale: a tenth of the points, same shape.
    pub fn smoke(mut self) -> Spec {
        self.points = (self.points / 10).max(2_000);
        self
    }

    pub fn cluster_config(&self) -> ClusterConfig {
        let config = ClusterConfig::new(self.workers).shards(self.shards);
        if self.durable {
            // WAL encode + CRC are exercised, nothing is fsynced: sandbox
            // disks are too noisy to gate on. This is the stated flush
            // policy; `recover_s` reads under it.
            config.durability(Durability::SharedMem)
        } else {
            config
        }
    }

    pub fn collection_config(&self) -> CollectionConfig {
        let mut config = CollectionConfig::new(self.dim, Distance::Cosine);
        if let Some(policy) = self.indexing {
            config = config.indexing(policy);
        }
        if let Some(m) = self.pq_m {
            config = config.quantization(QuantizationConfig::with_m(m));
        }
        config
    }
}
