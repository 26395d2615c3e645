//! The traced run: per-layer numbers, measured from outside.
//!
//! A fixed prefix of a workload's operations is replayed down a ladder of
//! public entry points over the same data — edge client, cluster client
//! on sockets, cluster client on the in-process fabric, per-shard
//! collections, bare indexes, distance kernels. Each call is wrapped in a
//! span kept by the ledger's own recorder; no span or counter is added
//! inside any other crate. A rung's *self* time is its median minus the
//! rung below it; a negative self time is counted in `ladder.inversions`,
//! not hidden.

use crate::inputs::{self, Batch, Inputs};
use crate::run::{check, metric, Check, Metric};
use crate::spec::{self, Edge, Ready, Spec};
use crate::stack::{self, Client, COLLECTION};
use crate::stats::median;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vq_cluster::messages::{Request, Response};
use vq_cluster::{Cluster, ClusterConfig, ClusterMsg, Deadlines, Placement};
use vq_collection::{CollectionConfig, LocalCollection, SearchRequest};
use vq_core::point::merge_top_k;
use vq_core::simd::pq_score_block;
use vq_core::{
    Distance, ExecCtx, ExecPool, Point, PointBlock, PoolConfig, ScoredPoint, VqError, VqResult,
};
use vq_index::{rerank, DenseVectors, FlatIndex, HnswIndex, PqCodec, PqConfig, VectorSource};
use vq_net::{wire, TcpTransport, Transport};
use vq_server::{client::points_body, BinRequest};
use vq_storage::{FullPrecisionTier, PagedArena, SharedTierBackend, TierConfig, Wal, WalRecord};

/// Searches replayed down the ladder. One rung crosses the TCP fabric,
/// where every coordinated search leaves ≈ 3 descriptors and a thread
/// behind (baseline/FINDINGS.md); this length keeps that far below the
/// process's limits.
pub const SEARCH_PREFIX: usize = 500;
/// Ingest batches replayed down the ladder.
pub const INGEST_PREFIX: usize = 24;
/// Churn ticks applied (unpaced) to read the after-churn collection shape.
pub const CHURN_TICKS: usize = 500;
/// Queries each `obs.*_slowdown` mode (off, recorder, recorder + tracer)
/// answers, in `OBS_ROUNDS` turns.
pub const OBS_SLICE: usize = 500;
pub const OBS_ROUNDS: usize = 6;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the replayed operation this span belongs to.
    pub op: u32,
    pub start_us: f64,
    pub dur_us: f64,
    /// Index (in the recorder) of the span that caused this one.
    pub parent: Option<u32>,
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str, op: usize, parent: Option<u32>) -> u32 {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op: op as u32,
            start_us,
            dur_us: f64::NAN,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) -> f64 {
        let dur_us = self.now_us() - self.spans[id as usize].start_us;
        self.spans[id as usize].dur_us = dur_us;
        dur_us
    }

    /// Time one call as a span; returns its result and duration in µs.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, op, parent);
        let result = f();
        (result, self.close(id))
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Ladder arithmetic
// ---------------------------------------------------------------------------

/// Self time of a rung: its median minus the median of the rung below.
/// Negative when the lower rung measured slower — an inversion.
pub fn self_time(rung_us: f64, below_us: f64) -> f64 {
    rung_us - below_us
}

/// Per-operation shard times folded two ways: `total` = Σ shards (what
/// the operation costs in CPU, bounds throughput once every core is
/// busy), `critical` = the slowest worker's Σ over its own shards (what
/// the caller waits for, since workers run side by side).
pub fn fold_shards(shard_us: &[f64], owner_of_shard: &[u32]) -> (f64, f64) {
    let total = shard_us.iter().sum();
    let mut per_worker: BTreeMap<u32, f64> = BTreeMap::new();
    for (us, owner) in shard_us.iter().zip(owner_of_shard) {
        *per_worker.entry(*owner).or_default() += us;
    }
    let critical = per_worker.values().copied().fold(0.0, f64::max);
    (total, critical)
}

pub fn count_inversions(self_times: &[f64]) -> usize {
    self_times.iter().filter(|t| **t < 0.0).count()
}

// ---------------------------------------------------------------------------
// Shadows of the cluster's shards
// ---------------------------------------------------------------------------

/// The rows of `block` each shard receives, in block order — the routing
/// `ClusterClient::upsert_block` does.
fn route(block: &Arc<PointBlock>, placement: &Placement) -> BTreeMap<u32, Arc<PointBlock>> {
    let mut rows: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for row in 0..block.len() {
        rows.entry(placement.shard_of(block.id(row)))
            .or_default()
            .push(row as u32);
    }
    rows.into_iter()
        .map(|(shard, rows)| {
            let view = if rows.len() == block.len() {
                block.clone()
            } else {
                Arc::new(block.select(&rows))
            };
            (shard, view)
        })
        .collect()
}

/// One shard outside any worker: the collection a worker would hold and
/// the same vectors as a bare `DenseVectors`.
struct Shadow {
    owner: u32,
    collection: LocalCollection,
    vectors: DenseVectors,
}

fn shadows(
    spec: &Spec,
    config: CollectionConfig,
    placement: &Placement,
    batches: &[Batch],
) -> VqResult<Vec<Shadow>> {
    let mut out: Vec<Shadow> = (0..placement.shard_count())
        .map(|shard| {
            Ok(Shadow {
                owner: placement.primary_of(shard)?,
                collection: LocalCollection::new(config),
                vectors: DenseVectors::new(spec.dim),
            })
        })
        .collect::<VqResult<_>>()?;
    for batch in batches {
        for (shard, view) in route(&batch.block, placement) {
            let shadow = &mut out[shard as usize];
            shadow.collection.upsert_block(&view)?;
            for row in 0..view.len() {
                shadow
                    .vectors
                    .push(&vq_core::vector::normalized(view.vector(row)));
            }
        }
    }
    Ok(out)
}

/// A bare index over one shard's vectors, of the kind the workload uses.
enum BareIndex {
    Flat,
    Hnsw(HnswIndex),
    Pq {
        codec: PqCodec,
        tier: FullPrecisionTier,
    },
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

pub struct Traced {
    pub workload: &'static str,
    pub seed: u64,
    /// Per-layer metrics, every one this workload could measure.
    pub layers: Vec<Metric>,
    /// Shares of the operation the separation criteria are judged on.
    pub shares: Vec<Metric>,
    pub checks: Vec<Check>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
}

impl Traced {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }
}

fn load<T: Transport<ClusterMsg>>(
    spec: &Spec,
    cluster: &Arc<Cluster<T>>,
    batches: &[Batch],
) -> VqResult<()> {
    let mut client = cluster.client();
    for batch in batches {
        client.upsert_block(&batch.block)?;
    }
    stack::make_ready(spec, &mut client).map(|_| ())
}

/// `batch` with every id moved into a range of its own, so each ingest
/// rung inserts fresh points.
fn rebased(batch: &Batch, rung: u64, points_total: u64) -> Batch {
    let points: Vec<Point> = batch
        .points
        .iter()
        .map(|p| {
            Point::with_payload(
                p.id + (rung + 1) * points_total,
                p.vector.clone(),
                p.payload.clone(),
            )
        })
        .collect();
    let block = Arc::new(PointBlock::from_points(&points).expect("uniform dimension"));
    Batch { points, block }
}

/// The per-layer metrics of one traced run, in the order measured.
#[derive(Default)]
struct Layers(Vec<Metric>);

impl Layers {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(metric(name, value, unit));
    }
}

struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn search(&mut self, outcome: VqResult<Vec<ScoredPoint>>) -> Vec<ScoredPoint> {
        self.attempted += 1;
        match outcome {
            Ok(hits) if hits.len() == spec::K => hits,
            Ok(hits) => {
                self.failed += 1;
                hits
            }
            Err(_) => {
                self.failed += 1;
                Vec::new()
            }
        }
    }

    fn write(&mut self, outcome: VqResult<()>) {
        self.attempted += 1;
        if outcome.is_err() {
            self.failed += 1;
        }
    }
}

fn worker_pool(spec: &Spec) -> Arc<ExecPool> {
    // What `ClusterConfig` gives each worker by default: its fair share of
    // the node's cores.
    let per_node = spec.cluster_config().workers_per_node.max(1) as usize;
    ExecPool::new(PoolConfig::new(
        vq_hpc::NodeTopology::detect().fair_threads(per_node),
    ))
}

pub fn run(spec: &Spec, seed: u64) -> VqResult<Traced> {
    let inputs = inputs::generate(spec, seed, true);
    let (cluster_config, config) = (spec.cluster_config(), spec.collection_config());
    let mut recorder = Recorder::new();
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    let mut layers = Layers::default();
    let mut shares = Vec::new();
    let mut checks = Vec::new();
    let mut self_times = Vec::new();

    // ---- the same data three ways ------------------------------------------
    // The server fronts the in-process cluster, as in the untraced runs.
    // The TCP twin serves one rung only, on short deadlines: a gather
    // that stalls on it (it happens, see baseline/FINDINGS.md) then costs
    // seconds and a failed operation, not the run.
    let sb = Cluster::start(cluster_config.clone(), config)?;
    let mut server = stack::serve(&sb)?;
    load(spec, &sb, &inputs.batches)?;
    let tcp_config = cluster_config.clone().deadlines(Deadlines {
        request: Duration::from_secs(10),
        gather: Duration::from_secs(5),
        ..Deadlines::default()
    });
    let tcp = Cluster::start_on(TcpTransport::new(), tcp_config.clone(), config)?;
    load(spec, &tcp, &inputs.batches)?;
    let placement = sb.placement();
    let mut shards = shadows(spec, config, &placement, &inputs.batches)?;
    let owners: Vec<u32> = shards.iter().map(|s| s.owner).collect();

    // Shadow builds, timed per shard; workers build side by side, so the
    // build a caller waits for is the slowest worker's.
    let mut build_us = Vec::new();
    for shadow in &mut shards {
        let began = Instant::now();
        match spec.ready {
            Ready::FlatScan => {}
            Ready::BuildHnsw => {
                shadow.collection.seal_active();
                shadow.collection.build_all_indexes()?;
            }
            Ready::Quantize => {
                shadow.collection.seal_active();
                shadow.collection.build_all_quantized()?;
            }
        }
        build_us.push(began.elapsed().as_secs_f64() * 1e6);
    }
    // (collection metric, bare-index metric) the builds are reported as.
    let build_names = match spec.ready {
        Ready::FlatScan => None,
        Ready::BuildHnsw => Some(("collection.build_s", "index.hnsw_build_s")),
        Ready::Quantize => Some(("collection.quantize_build_s", "index.pq_train_s")),
    };
    if let Some((name, _)) = build_names {
        layers.put(name, fold_shards(&build_us, &owners).1 / 1e6, "s");
    }

    let mut bare_build_us = Vec::new();
    let bare: Vec<BareIndex> = shards
        .iter()
        .enumerate()
        .map(|(shard, shadow)| {
            let began = Instant::now();
            let index = match spec.ready {
                Ready::FlatScan => BareIndex::Flat,
                Ready::BuildHnsw => BareIndex::Hnsw(HnswIndex::build(
                    &shadow.vectors,
                    Distance::Cosine,
                    config.hnsw,
                )),
                Ready::Quantize => {
                    let q = config
                        .quantization
                        .expect("a quantized workload configures quantization");
                    let pq = PqConfig {
                        m: q.m,
                        ks: q.ks,
                        ..PqConfig::default()
                    };
                    let codec = PqCodec::build(&shadow.vectors, Distance::Cosine, pq);
                    let tier = FullPrecisionTier::from_source(
                        &shadow.vectors,
                        Box::new(SharedTierBackend::new()),
                        TierConfig::default(),
                    )
                    .unwrap_or_else(|e| panic!("tier for shard {shard}: {e}"));
                    BareIndex::Pq { codec, tier }
                }
            };
            bare_build_us.push(began.elapsed().as_secs_f64() * 1e6);
            index
        })
        .collect();
    if let Some((_, name)) = build_names {
        layers.put(name, fold_shards(&bare_build_us, &owners).1 / 1e6, "s");
    }

    // ---- search ladder -----------------------------------------------------
    let requests = &inputs.queries[..SEARCH_PREFIX.min(inputs.queries.len())];
    let plain: Vec<SearchRequest> = requests
        .iter()
        .map(|r| {
            let mut plain = SearchRequest::new(r.vector.clone(), r.k);
            plain.with_payload = r.with_payload;
            plain
        })
        .collect();
    // REST cannot carry `rerank_depth`; where the workload sets one, REST
    // sends the plain request and is compared against the cluster
    // answering that same plain request.
    let rest_sends_plain = !requests.iter().all(stack::rest_can_express);
    let rest_requests: &[SearchRequest] = if rest_sends_plain { &plain } else { requests };
    let top_requests = if spec.search_edge == Edge::Rest {
        rest_requests
    } else {
        requests
    };

    let mut rest = Client::connect(Edge::Rest, &sb, Some(&server))?;
    let mut bin = Client::connect(Edge::Bin, &sb, Some(&server))?;
    let mut tcp_client = Client::connect(Edge::InProc, &tcp, None)?;
    let mut sb_client = Client::connect(Edge::InProc, &sb, None)?;
    // The workload's own way in, on a connection of its own: the untraced
    // reference and the vq-obs passes go through it.
    let mut top = Client::connect(spec.search_edge, &sb, Some(&server))?;

    // Warm every path once.
    for request in &requests[..requests.len().min(16)] {
        let _ = rest.search(request);
        let _ = bin.search(request);
        let _ = tcp_client.search(request);
        let _ = sb_client.search(request);
    }
    // The edge rungs take turns on each operation rather than a pass
    // each: whatever drifts over the run (the TCP rung leaves a thread
    // behind per search) then drifts under all of them alike. The
    // untraced reference — the workload's own way in, timed without the
    // recorder — takes its turn too.
    let (mut net_bytes, mut net_messages) = (0u64, 0u64);
    let mut untraced_top = Vec::with_capacity(requests.len());
    let (mut bin_results, mut tcp_results, mut sb_results) = (Vec::new(), Vec::new(), Vec::new());
    for (op, request) in requests.iter().enumerate() {
        // Before the traced rungs on even operations, after them on odd
        // ones: whoever goes first meets the query cold.
        let mut reference = || {
            let began = Instant::now();
            let _ = top.search(&top_requests[op]);
            untraced_top.push(began.elapsed().as_secs_f64() * 1e6);
        };
        if op % 2 == 0 {
            reference();
        }

        let (outcome, _) =
            recorder.time("rest.search", op, None, || rest.search(&rest_requests[op]));
        tally.search(outcome);
        let (outcome, _) = recorder.time("bin.search", op, None, || bin.search(request));
        bin_results.push(tally.search(outcome));
        let before = tcp.network_stats();
        let (outcome, _) = recorder.time("cluster_tcp.search", op, None, || {
            tcp_client.search(request)
        });
        let after = tcp.network_stats();
        net_bytes += after.bytes - before.bytes;
        net_messages += after.messages - before.messages;
        tcp_results.push(tally.search(outcome));
        let (outcome, _) =
            recorder.time("cluster_sb.search", op, None, || sb_client.search(request));
        sb_results.push(tally.search(outcome));
        if rest_sends_plain {
            let (outcome, _) = recorder.time("cluster_sb.search_plain", op, None, || {
                sb_client.search(&plain[op])
            });
            tally.search(outcome);
        }
        if op % 2 == 1 {
            reference();
        }
    }
    let untraced_top_us = median(&untraced_top);
    let rung = |name: &str| median(&recorder.durations(name));
    let (rest_us, bin_us, tcp_us, sb_us) = (
        rung("rest.search"),
        rung("bin.search"),
        rung("cluster_tcp.search"),
        rung("cluster_sb.search"),
    );
    let rest_below_us = if rest_sends_plain {
        rung("cluster_sb.search_plain")
    } else {
        sb_us
    };

    // Per-shard collections: one child span per shard under the op's span.
    let ctx = ExecCtx::pool(worker_pool(spec));
    let (mut collection_total, mut collection_critical) = (Vec::new(), Vec::new());
    let mut shadow_differs = 0;
    for (op, request) in requests.iter().enumerate() {
        let parent = recorder.open("collection.search", op, None);
        let mut shard_us = Vec::with_capacity(shards.len());
        let mut partials = Vec::with_capacity(shards.len());
        for shadow in &shards {
            let (outcome, us) = recorder.time("collection.search_shard", op, Some(parent), || {
                shadow.collection.search_ctx(request, &ctx)
            });
            shard_us.push(us);
            partials.push(outcome?);
        }
        recorder.close(parent);
        let (total, critical) = fold_shards(&shard_us, &owners);
        collection_total.push(total);
        collection_critical.push(critical);
        // Only exact searches are comparable: a shadow's HNSW graph or PQ
        // codebook is built apart from the worker's.
        if spec.ready == Ready::FlatScan && merge_top_k(partials, request.k) != sb_results[op] {
            shadow_differs += 1;
        }
    }
    let (collection_total_us, collection_critical_us) =
        (median(&collection_total), median(&collection_critical));

    // Bare indexes over the same vectors.
    let ef = config.ef_search;
    let depth = spec.rerank_depth.unwrap_or(spec::K * 4);
    let (mut index_total, mut index_critical) = (Vec::new(), Vec::new());
    let (mut coarse_total, mut rerank_total, mut two_stage_critical) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut evals, mut rerank_candidates, mut faults) = (0u64, 0u64, 0u64);
    for (op, request) in requests.iter().enumerate() {
        let query = vq_core::vector::normalized(&request.vector);
        let parent = recorder.open("index.search", op, None);
        let (mut shard_us, mut coarse_us, mut rerank_us) = (Vec::new(), 0.0, 0.0);
        let mut two_stage_us = Vec::new();
        for (shadow, index) in shards.iter().zip(&bare) {
            let began = recorder.open("index.search_shard", op, Some(parent));
            match index {
                BareIndex::Flat => {
                    FlatIndex::new(Distance::Cosine).search_ctx(
                        &shadow.vectors,
                        &query,
                        request.k,
                        None,
                        &ctx,
                    );
                    evals += shadow.vectors.len() as u64;
                }
                BareIndex::Hnsw(hnsw) => {
                    let before = hnsw.stats().distance_computations;
                    hnsw.search(&shadow.vectors, &query, request.k, ef, None);
                    evals += hnsw.stats().distance_computations - before;
                }
                BareIndex::Pq { codec, tier } => {
                    let faults_before = tier.page_faults();
                    let (coarse, scan_us) =
                        recorder.time("index.coarse_scan", op, Some(began), || {
                            codec.search_ctx(&query, depth, None, None, &ctx)
                        });
                    coarse_us += scan_us;
                    let (_, exact_us) = recorder.time("index.rerank", op, Some(began), || {
                        rerank(tier, Distance::Cosine, &query, &coarse, request.k)
                    });
                    rerank_us += exact_us;
                    two_stage_us.push(scan_us + exact_us);
                    evals += codec.len() as u64 + coarse.len() as u64;
                    rerank_candidates += coarse.len() as u64;
                    faults += tier.page_faults() - faults_before;
                }
            }
            shard_us.push(recorder.close(began));
        }
        recorder.close(parent);
        let (total, critical) = fold_shards(&shard_us, &owners);
        index_total.push(total);
        index_critical.push(critical);
        coarse_total.push(coarse_us);
        rerank_total.push(rerank_us);
        if two_stage_us.len() == owners.len() {
            two_stage_critical.push(fold_shards(&two_stage_us, &owners).1);
        }
    }
    let index_total_us = median(&index_total);
    let n_ops = requests.len() as f64;

    // Kernels over the rows those searches scanned.
    let evals_per_query = evals as f64 / n_ops;
    let mut scores = Vec::new();
    let (mut kernel_total, mut kernel_critical, mut kernel_rows) = (Vec::new(), Vec::new(), 0u64);
    for (op, request) in requests.iter().enumerate() {
        let query = vq_core::vector::normalized(&request.vector);
        let mut shard_us = Vec::with_capacity(shards.len());
        for (shadow, index) in shards.iter().zip(&bare) {
            // Exact rows per shard: the whole shard for a flat scan, the
            // graph's average visit count for HNSW, the rerank depth for PQ.
            let rows = match index {
                BareIndex::Flat => shadow.vectors.len(),
                BareIndex::Hnsw(_) => (evals_per_query / shards.len() as f64) as usize,
                BareIndex::Pq { .. } => depth,
            }
            .min(shadow.vectors.len());
            let block = &shadow.vectors.contiguous_block(0)[..rows * spec.dim];
            scores.resize(rows, 0.0);
            let (_, us) = recorder.time("core.score_block", op, None, || {
                Distance::Cosine.score_block(&query, block, &mut scores);
                std::hint::black_box(&scores);
            });
            shard_us.push(us);
            kernel_rows += rows as u64;
        }
        let (total, critical) = fold_shards(&shard_us, &owners);
        kernel_total.push(total);
        kernel_critical.push(critical);
    }
    let kernel_us = median(&kernel_total);
    let score_block_ns_per_row = recorder.durations("core.score_block").iter().sum::<f64>() * 1e3
        / kernel_rows.max(1) as f64;

    // ---- what the ladder says ------------------------------------------------
    let rest_self = self_time(rest_us, rest_below_us);
    let bin_self = self_time(bin_us, sb_us);
    let tcp_extra = self_time(tcp_us, sb_us);
    let cluster_self = self_time(sb_us, collection_critical_us);
    let collection_self = self_time(collection_total_us, index_total_us);
    let index_self = self_time(index_total_us, kernel_us);
    self_times.extend([
        rest_self,
        bin_self,
        tcp_extra,
        cluster_self,
        collection_self,
        index_self,
    ]);
    layers.put("server.rest_search_self_us", rest_self, "us");
    layers.put("server.bin_search_self_us", bin_self, "us");
    layers.put("net.tcp_extra_us_per_query", tcp_extra, "us");
    layers.put("cluster.search_self_us", cluster_self, "us");
    layers.put("collection.search_total_us", collection_total_us, "us");
    layers.put(
        "collection.search_critical_us",
        collection_critical_us,
        "us",
    );
    layers.put("collection.search_self_us", collection_self, "us");
    layers.put("index.search_total_us", index_total_us, "us");
    layers.put("index.distance_evals_per_query", evals_per_query, "count");
    layers.put("core.score_block_ns_per_row", score_block_ns_per_row, "ns");
    layers.put("net.bytes_per_query", net_bytes as f64 / n_ops, "B");
    layers.put("net.msgs_per_query", net_messages as f64 / n_ops, "count");
    if spec.ready == Ready::Quantize {
        layers.put("index.coarse_scan_us", median(&coarse_total), "us");
        layers.put("index.rerank_us", median(&rerank_total), "us");
        layers.put(
            "index.rerank_candidates_per_query",
            rerank_candidates as f64 / n_ops,
            "count",
        );
        layers.put(
            "storage.tier_faults_per_query",
            faults as f64 / n_ops,
            "count",
        );
        let resident: usize = bare
            .iter()
            .map(|i| match i {
                BareIndex::Pq { tier, .. } => tier.resident_bytes(),
                _ => 0,
            })
            .sum();
        layers.put("storage.tier_resident_bytes", resident as f64, "B");
        quantized_kernels(spec, &shards, &bare, requests, depth, &mut layers);
    }

    let info = sb.client().worker_info()?;
    let coordination: u64 = info.iter().map(|w| w.coordination_nanos).sum();
    let searching: u64 = info.iter().map(|w| w.search_nanos).sum();
    layers.put(
        "cluster.coordination_share",
        coordination as f64 / (coordination + searching).max(1) as f64,
        "ratio",
    );
    wire_codec(requests, &sb_results, &mut layers)?;
    obs_cost(&mut top, top_requests, &mut layers);
    pool_dispatch(spec, &mut layers);
    drop((top, rest, bin, tcp_client, sb_client));

    let (ingest_retries, ingest_failovers) = ingest_ladder(
        spec,
        &inputs,
        config,
        (cluster_config, tcp_config),
        &placement,
        &mut recorder,
        &mut tally,
        &mut layers,
        &mut self_times,
    )?;

    // ---- collection shape, after churn where the workload churns -------------
    let mut admin = sb.client();
    if spec.churn {
        let before = admin.stats()?;
        layers.put(
            "collection.indexed_frac_before_churn",
            before.index_coverage(),
            "ratio",
        );
        layers.put(
            "collection.tombstone_frac_before_churn",
            tombstone_frac(&before),
            "ratio",
        );
        let plan = inputs::ChurnPlan::generate(&inputs, seed, CHURN_TICKS);
        for tick in &plan.ticks {
            tally.write(admin.upsert_block(&tick.update));
            for &id in &tick.deletes {
                tally.write(admin.delete(id));
            }
        }
    }
    let after = admin.stats()?;
    layers.put("collection.segments", after.segments as f64, "count");
    layers.put("collection.indexed_frac", after.index_coverage(), "ratio");
    layers.put("collection.tombstone_frac", tombstone_frac(&after), "ratio");
    let retries = tcp.search_retry_count() + sb.search_retry_count() + ingest_retries;
    let failovers = tcp.failover_count() + sb.failover_count() + ingest_failovers;
    layers.put("cluster.search_retries", retries as f64, "count");
    layers.put("cluster.failovers", failovers as f64, "count");

    // ---- ladder summary --------------------------------------------------------
    let top_us = match spec.search_edge {
        Edge::Rest => rest_us,
        Edge::Bin => bin_us,
        Edge::InProc => sb_us,
    };
    layers.put(
        "ladder.inversions",
        count_inversions(&self_times) as f64,
        "count",
    );
    layers.put("ladder.top_rung_vs_e2e", top_us / untraced_top_us, "ratio");

    // The workload's own blocking path, rung by rung, as shares of the op.
    let serving = cluster_self
        + match spec.search_edge {
            Edge::Rest => rest_self,
            Edge::Bin => bin_self,
            Edge::InProc => 0.0,
        };
    let share = |us: f64| us / top_us;
    shares.push(metric("share.server_net_cluster", share(serving), "ratio"));
    shares.push(metric(
        "share.collection_critical",
        share(collection_critical_us),
        "ratio",
    ));
    shares.push(metric(
        "share.index_critical",
        share(median(&index_critical)),
        "ratio",
    ));
    shares.push(metric(
        "share.kernel_critical",
        share(median(&kernel_critical)),
        "ratio",
    ));
    if spec.ready == Ready::Quantize {
        shares.push(metric(
            "share.coarse_plus_rerank_critical",
            share(median(&two_stage_critical)),
            "ratio",
        ));
    }
    shares.push(metric("top_rung_us", top_us, "us"));
    shares.push(metric("untraced_top_rung_us", untraced_top_us, "us"));

    checks.push(check(
        "edges_agree_in_ladder",
        bin_results == sb_results,
        "binary results against in-proc results on the cluster the server fronts".into(),
    ));
    // The two fabrics hold the same points, but each built its own
    // graphs and codebooks; only exact searches can be held to equality.
    let tcp_differs = tcp_results
        .iter()
        .zip(&sb_results)
        .filter(|(t, s)| t != s)
        .count();
    checks.push(check(
        "fabrics_agree",
        spec.ready != Ready::FlatScan || tcp_differs == 0,
        format!(
            "{tcp_differs} of {} searches answer differently over TCP and in-process",
            sb_results.len()
        ),
    ));
    checks.push(check(
        "shadow_shards_agree",
        shadow_differs == 0,
        format!(
            "{shadow_differs} exact searches differ between merged shadow shards and the cluster"
        ),
    ));
    checks.push(check(
        "no_retries_or_failovers",
        retries == 0 && failovers == 0,
        format!("{retries} search retries, {failovers} failovers"),
    ));

    drop(admin);
    server.shutdown();
    tcp.shutdown();
    sb.shutdown();

    Ok(Traced {
        workload: spec.name,
        seed,
        layers: layers.0,
        shares,
        checks,
        spans: recorder.spans,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}

/// Wire codec cost on the workload's own request and response.
fn wire_codec(
    requests: &[SearchRequest],
    results: &[Vec<ScoredPoint>],
    layers: &mut Layers,
) -> VqResult<()> {
    let (mut encode_us, mut decode_us, mut frame_us) = (Vec::new(), Vec::new(), Vec::new());
    for (request, hits) in requests.iter().zip(results) {
        let messages = [
            ClusterMsg::Request {
                reply_to: 0,
                tag: 0,
                trace: None,
                body: Request::SearchBatch {
                    queries: vec![request.clone()].into(),
                },
            },
            ClusterMsg::Response {
                tag: 0,
                body: Response::Results {
                    results: vec![hits.clone()],
                    degraded: Vec::new(),
                },
            },
        ];
        for message in &messages {
            let began = Instant::now();
            let bytes = wire::to_bytes(message)?;
            encode_us.push(began.elapsed().as_secs_f64() * 1e6);
            let began = Instant::now();
            let frame = wire::encode_frame(&bytes);
            frame_us.push(began.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(&frame);
            let began = Instant::now();
            let back: ClusterMsg = wire::from_bytes(&bytes)?;
            decode_us.push(began.elapsed().as_secs_f64() * 1e6);
            if &back != message {
                return Err(VqError::Corruption(
                    "vbin round trip changed a message".into(),
                ));
            }
        }
    }
    layers.put("net.encode_us_per_msg", median(&encode_us), "us");
    layers.put("net.decode_us_per_msg", median(&decode_us), "us");
    layers.put("net.frame_us_per_msg", median(&frame_us), "us");

    Ok(())
}

/// The cost of switching vq-obs on, on the workload's own way in. The
/// three modes (off, recorder, recorder + tracer) take turns over short
/// rounds, so drift over the run lands on all of them.
fn obs_cost<T: Transport<ClusterMsg>>(
    top: &mut Client<T>,
    requests: &[SearchRequest],
    layers: &mut Layers,
) {
    let round_len = (OBS_SLICE / OBS_ROUNDS)
        .min(requests.len() / OBS_ROUNDS)
        .max(1);
    let mut mode_seconds = [0.0f64; 3];
    for round in 0..OBS_ROUNDS {
        let range = round * round_len..(round + 1) * round_len;
        // Whichever mode goes first in a round meets its queries cold, so
        // the lead rotates.
        for turn in 0..3 {
            let mode = (round + turn) % 3;
            let spent = &mut mode_seconds[mode];
            let _guard = match mode {
                0 => None,
                1 => Some(vq_obs::ObsGuard::install_default()),
                _ => Some(
                    vq_obs::ObsGuard::install_default().with_tracer(vq_obs::TraceConfig::default()),
                ),
            };
            let began = Instant::now();
            for request in &requests[range.clone()] {
                let _ = top.search(request);
            }
            *spent += began.elapsed().as_secs_f64();
        }
    }
    layers.put(
        "obs.recorder_on_slowdown",
        mode_seconds[1] / mode_seconds[0],
        "ratio",
    );
    layers.put(
        "obs.trace_on_slowdown",
        mode_seconds[2] / mode_seconds[0],
        "ratio",
    );
}

/// `ExecPool::scope_map` of no-op tasks at a worker's width.
fn pool_dispatch(spec: &Spec, layers: &mut Layers) {
    let pool = worker_pool(spec);
    let tasks = pool.width().max(2);
    let dispatch: Vec<f64> = (0..2_000)
        .map(|_| {
            let began = Instant::now();
            std::hint::black_box(pool.scope_map(tasks, |i| i));
            began.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layers.put("core.pool_dispatch_us", median(&dispatch), "us");
}

/// The ingest ladder: a prefix of the workload's batches through REST,
/// binary, both fabrics, fresh per-shard collections, the WAL, the arena
/// and the codecs, on clusters of its own. Returns the search retries and
/// failovers those clusters counted.
#[allow(clippy::too_many_arguments)]
fn ingest_ladder(
    spec: &Spec,
    inputs: &Inputs,
    config: CollectionConfig,
    configs: (ClusterConfig, ClusterConfig),
    placement: &Placement,
    recorder: &mut Recorder,
    tally: &mut Tally,
    layers: &mut Layers,
    self_times: &mut Vec<f64>,
) -> VqResult<(u64, u64)> {
    // ---- ingest ladder -------------------------------------------------------
    let ingest = &inputs.batches[..INGEST_PREFIX.min(inputs.batches.len())];
    let points_total = inputs.dataset.len();
    let (cluster_config, tcp_config) = configs;
    let tcp_in = Cluster::start_on(TcpTransport::new(), tcp_config, config)?;
    let sb_in = Cluster::start(cluster_config, config)?;
    let mut server_in = stack::serve(&sb_in)?;
    let mut rest_in = Client::connect(Edge::Rest, &sb_in, Some(&server_in))?;
    let mut bin_in = Client::connect(Edge::Bin, &sb_in, Some(&server_in))?;
    let mut tcp_in_client = Client::connect(Edge::InProc, &tcp_in, None)?;
    let mut sb_in_client = Client::connect(Edge::InProc, &sb_in, None)?;
    let fresh: Vec<LocalCollection> = (0..placement.shard_count())
        .map(|_| LocalCollection::new(config))
        .collect();
    let mut wal = Wal::in_memory();
    let mut arena = PagedArena::new(spec.dim);
    let (mut rest_bytes, mut bin_bytes, mut block_bytes, mut points_in) =
        (0usize, 0usize, 0usize, 0usize);
    let mut collection_upsert = Vec::new();
    for (op, batch) in ingest.iter().enumerate() {
        let via_rest = rebased(batch, 0, points_total);
        let (outcome, _) = recorder.time("rest.upsert", op, None, || rest_in.upsert(&via_rest));
        tally.write(outcome);
        let via_bin = rebased(batch, 1, points_total);
        let (outcome, _) = recorder.time("bin.upsert", op, None, || bin_in.upsert(&via_bin));
        tally.write(outcome);
        let via_sb = rebased(batch, 2, points_total);
        let (outcome, _) = recorder.time("cluster_sb.upsert", op, None, || {
            sb_in_client.upsert(&via_sb)
        });
        tally.write(outcome);
        let (outcome, _) = recorder.time("cluster_tcp.upsert", op, None, || {
            tcp_in_client.upsert(batch)
        });
        tally.write(outcome);

        let parent = recorder.open("collection.upsert_block", op, None);
        let mut shard_us = Vec::new();
        for (shard, view) in route(&batch.block, placement) {
            let (outcome, us) =
                recorder.time("collection.upsert_block_shard", op, Some(parent), || {
                    fresh[shard as usize].upsert_block(&view)
                });
            outcome?;
            shard_us.push(us);
        }
        recorder.close(parent);
        collection_upsert.push(shard_us.iter().sum::<f64>());

        let record = WalRecord::UpsertBlock(PointBlock::clone(&batch.block));
        let (outcome, _) = recorder.time("storage.wal_append", op, None, || wal.append(&record));
        outcome?;
        let slab = batch
            .block
            .as_contiguous()
            .expect("a freshly built block is contiguous");
        let (outcome, _) = recorder.time("storage.arena_extend", op, None, || {
            arena.extend_from_slab(slab)
        });
        outcome?;
        let (block, _) = recorder.time("core.block_convert", op, None, || {
            PointBlock::from_points(&batch.points)
        });
        std::hint::black_box(block?);
        let (body, _) = recorder.time("server.json_encode", op, None, || {
            points_body(&batch.points)
        });
        rest_bytes += body.len();
        let (encoded, _) = recorder.time("net.block_encode", op, None, || {
            wire::to_bytes(&*batch.block)
        });
        block_bytes += encoded?.len();
        let framed = BinRequest::Upsert {
            collection: COLLECTION.to_string(),
            block: PointBlock::clone(&batch.block),
        };
        bin_bytes += wire::encode_frame(&wire::to_bytes(&framed)?).len();
        points_in += batch.points.len();
    }
    let med = |name: &str| median(&recorder.durations(name));
    let (rest_up, bin_up, tcp_up, sb_up) = (
        med("rest.upsert"),
        med("bin.upsert"),
        med("cluster_tcp.upsert"),
        med("cluster_sb.upsert"),
    );
    let collection_up = median(&collection_upsert);
    let upsert_selfs = [
        self_time(rest_up, sb_up),
        self_time(bin_up, sb_up),
        self_time(sb_up, collection_up),
    ];
    layers.put("net.tcp_extra_us_per_batch", self_time(tcp_up, sb_up), "us");
    self_times.extend(upsert_selfs);
    layers.put(
        "server.rest_upsert_self_us_per_batch",
        upsert_selfs[0],
        "us",
    );
    layers.put("server.bin_upsert_self_us_per_batch", upsert_selfs[1], "us");
    layers.put("cluster.upsert_self_us_per_batch", upsert_selfs[2], "us");
    layers.put("collection.upsert_block_us_per_batch", collection_up, "us");
    layers.put(
        "server.json_encode_us_per_batch",
        med("server.json_encode"),
        "us",
    );
    layers.put(
        "server.rest_bytes_per_point",
        rest_bytes as f64 / points_in as f64,
        "B",
    );
    layers.put(
        "server.bin_bytes_per_point",
        bin_bytes as f64 / points_in as f64,
        "B",
    );
    layers.put(
        "storage.wal_append_us_per_batch",
        med("storage.wal_append"),
        "us",
    );
    layers.put(
        "storage.wal_bytes_per_point",
        wal.bytes() as f64 / points_in as f64,
        "B",
    );
    layers.put(
        "storage.wal_syncs_per_batch",
        wal.synced_batches() as f64 / ingest.len() as f64,
        "count",
    );
    layers.put(
        "storage.arena_extend_us_per_batch",
        med("storage.arena_extend"),
        "us",
    );
    layers.put(
        "core.block_convert_us_per_batch",
        med("core.block_convert"),
        "us",
    );
    let encode_s: f64 = recorder.durations("net.block_encode").iter().sum::<f64>() / 1e6;
    layers.put(
        "net.block_encode_mb_per_s",
        block_bytes as f64 / 1e6 / encode_s,
        "MB/s",
    );

    drop((rest_in, bin_in, tcp_in_client, sb_in_client));
    server_in.shutdown();
    let counts = (
        tcp_in.search_retry_count() + sb_in.search_retry_count(),
        tcp_in.failover_count() + sb_in.failover_count(),
    );
    tcp_in.shutdown();
    sb_in.shutdown();
    Ok(counts)
}

fn tombstone_frac(stats: &vq_collection::CollectionStats) -> f64 {
    1.0 - stats.live_points as f64 / stats.total_offsets.max(1) as f64
}

/// The quantized path's own kernels: LUT build, code scoring, tier reads.
fn quantized_kernels(
    spec: &Spec,
    shards: &[Shadow],
    bare: &[BareIndex],
    requests: &[SearchRequest],
    depth: usize,
    layers: &mut Layers,
) {
    let (mut lut_us, mut score_ns, mut rows_scored) = (Vec::new(), 0.0, 0u64);
    let (mut read_us, mut vectors_read) = (0.0, 0u64);
    let mut scores = Vec::new();
    let mut buffer = vec![0.0f32; spec.dim];
    for request in requests {
        let query = vq_core::vector::normalized(&request.vector);
        for (shadow, index) in shards.iter().zip(bare) {
            let BareIndex::Pq { codec, tier } = index else {
                continue;
            };
            let began = Instant::now();
            let lut = codec.adc_table(&query);
            lut_us.push(began.elapsed().as_secs_f64() * 1e6);
            scores.resize(codec.len(), 0.0);
            let began = Instant::now();
            pq_score_block(&lut, codec.config().ks, codec.code_slab(), &mut scores);
            score_ns += began.elapsed().as_secs_f64() * 1e9;
            rows_scored += codec.len() as u64;
            std::hint::black_box(&scores);
            // The rerank's access pattern: `depth` offsets spread over the
            // shard, ascending.
            let stride = (shadow.vectors.len() / depth.max(1)).max(1);
            let began = Instant::now();
            for offset in (0..shadow.vectors.len()).step_by(stride).take(depth) {
                tier.read_into(offset as u32, &mut buffer);
            }
            read_us += began.elapsed().as_secs_f64() * 1e6;
            vectors_read += depth.min(shadow.vectors.len()) as u64;
        }
    }
    layers.put("core.lut_build_us", median(&lut_us), "us");
    layers.put(
        "core.pq_score_ns_per_row",
        score_ns / rows_scored.max(1) as f64,
        "ns",
    );
    layers.put(
        "storage.tier_read_us_per_vector",
        read_us / vectors_read.max(1) as f64,
        "us",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_difference_and_may_be_negative() {
        assert_eq!(self_time(159.0, 120.0), 39.0);
        // BENCH_NET's shape: the binary edge measured slower than REST
        // over the same cluster call shows up as a negative number.
        assert_eq!(self_time(120.0, 193.0), -73.0);
        assert_eq!(count_inversions(&[39.0, -73.0, 0.0, -0.5]), 2);
    }

    #[test]
    fn critical_path_is_the_slowest_worker_total_is_the_sum() {
        // Shards 0 and 2 on worker 0, shards 1 and 3 on worker 1.
        let (total, critical) = fold_shards(&[10.0, 40.0, 15.0, 5.0], &[0, 1, 0, 1]);
        assert_eq!(total, 70.0);
        assert_eq!(critical, 45.0);
        // One worker holding everything waits for the whole sum.
        let (total, critical) = fold_shards(&[10.0, 40.0], &[7, 7]);
        assert_eq!((total, critical), (50.0, 50.0));
        assert_eq!(fold_shards(&[], &[]), (0.0, 0.0));
    }

    #[test]
    fn recorder_keeps_parent_links_and_durations() {
        let mut recorder = Recorder::new();
        let parent = recorder.open("outer", 3, None);
        let ((), inner_us) = recorder.time("inner", 3, Some(parent), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_us = recorder.close(parent);
        assert!(inner_us >= 2_000.0 && outer_us >= inner_us);
        assert_eq!(recorder.spans.len(), 2);
        assert_eq!(recorder.spans[1].parent, Some(parent));
        assert_eq!(recorder.spans[1].op, 3);
        assert_eq!(recorder.durations("inner"), vec![inner_us]);
    }
}
