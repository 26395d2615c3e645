//! One untraced run of one workload: set up, measure, check the outputs,
//! report the end-to-end metrics.

use crate::inputs::{self, ChurnPlan, Inputs};
use crate::quiet::{QuietLog, Settled};
use crate::spec::{self, Edge, Spec};
use crate::stack::{self, Client};
use crate::stats;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vq_cluster::{Cluster, ClusterClient, ClusterMsg};
use vq_collection::SearchRequest;
use vq_core::{PointId, ScoredPoint, VqResult};
use vq_net::Transport;
use vq_server::VqServer;

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Attempted / failed operations of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseOps {
    pub phase: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// One correctness check and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

pub fn check(name: &'static str, passed: bool, detail: String) -> Check {
    Check {
        name,
        passed,
        detail,
    }
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub points: usize,
    pub metrics: Vec<Metric>,
    /// Context for the metrics that is not itself gated (sample counts,
    /// which p99 rule applied, how late the paced writer ran, ...).
    pub notes: Vec<Metric>,
    pub phases: Vec<PhaseOps>,
    pub checks: Vec<Check>,
}

impl RunResult {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.checks.iter().all(|c| c.passed)
    }
}

/// What bringing one loaded, searchable system up cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupCost {
    pub setup_s: f64,
    pub insert_pts_per_s: f64,
    /// seal + build / quantize, call to return.
    pub ready_s: f64,
}

/// A loaded, searchable system and what bringing it up cost.
struct Stack<T: Transport<ClusterMsg>> {
    inputs: Inputs,
    cluster: Arc<Cluster<T>>,
    server: Option<VqServer>,
    cost: SetupCost,
    load: PhaseOps,
}

impl<T: Transport<ClusterMsg>> Stack<T> {
    fn shutdown(mut self) {
        if let Some(server) = &mut self.server {
            server.shutdown();
        }
        self.cluster.shutdown();
    }
}

fn set_up<T: Transport<ClusterMsg>>(
    spec: &Spec,
    seed: u64,
    start: &dyn Fn() -> VqResult<Arc<Cluster<T>>>,
) -> VqResult<Stack<T>> {
    let began = Instant::now();
    let inputs = inputs::generate(spec, seed, spec.load_edge == Edge::Rest);
    let cluster = start()?;
    let needs_server = spec.load_edge != Edge::InProc || spec.search_edge != Edge::InProc;
    let server = if needs_server {
        Some(stack::serve(&cluster)?)
    } else {
        None
    };

    let mut loader = Client::connect(spec.load_edge, &cluster, server.as_ref())?;
    let load_began = Instant::now();
    let mut load = PhaseOps {
        phase: "load",
        attempted: 0,
        failed: 0,
    };
    for batch in &inputs.batches {
        load.attempted += 1;
        if loader.upsert(batch).is_err() {
            load.failed += 1;
        }
    }
    let load_s = load_began.elapsed().as_secs_f64();
    drop(loader);

    let ready_began = Instant::now();
    stack::make_ready(spec, &mut cluster.client())?;
    let ready_s = ready_began.elapsed().as_secs_f64();

    Ok(Stack {
        cost: SetupCost {
            setup_s: began.elapsed().as_secs_f64(),
            insert_pts_per_s: inputs.dataset.len() as f64 / load_s,
            ready_s,
        },
        inputs,
        cluster,
        server,
        load,
    })
}

fn ids(hits: &[ScoredPoint]) -> Vec<PointId> {
    hits.iter().map(|h| h.id).collect()
}

/// What the closed-loop reader saw.
struct ReaderOutcome {
    /// Per-search latency in ms, in issue order.
    latencies_ms: Vec<f64>,
    /// When each search completed, in seconds since the phase began.
    completed_s: Vec<f64>,
    /// Searches that failed or came back short.
    failed: u64,
}

/// Closed loop: one search after another through the query pool until
/// `deadline`.
fn search_until<T: Transport<ClusterMsg>>(
    client: &mut Client<T>,
    queries: &[SearchRequest],
    phase_began: Instant,
    deadline: Instant,
) -> ReaderOutcome {
    let mut outcome = ReaderOutcome {
        latencies_ms: Vec::new(),
        completed_s: Vec::new(),
        failed: 0,
    };
    let mut i = 0;
    while Instant::now() < deadline {
        let request = &queries[i % queries.len()];
        let began = Instant::now();
        let hits = client.search(request);
        outcome
            .latencies_ms
            .push(began.elapsed().as_secs_f64() * 1e3);
        outcome
            .completed_s
            .push(phase_began.elapsed().as_secs_f64());
        if !matches!(hits, Ok(hits) if hits.len() == spec::K) {
            outcome.failed += 1;
        }
        i += 1;
    }
    outcome
}

/// Searches per second as the median over equal windows of the phase,
/// one per second and never fewer than five: a stall, or a slow stretch
/// shorter than half the phase, moves a whole-phase rate and does not move
/// this.
fn windowed_qps(completed_s: &[f64], seconds: f64) -> f64 {
    let windows = (seconds as usize).max(5);
    let width = seconds / windows as f64;
    let mut counts = vec![0usize; windows];
    for at in completed_s {
        // A search that straddles the deadline completes just after it.
        counts[((at / width) as usize).min(windows - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    stats::median(&rates)
}

/// The state the acknowledged writes must have left: the live count, a
/// sample of deleted ids unreadable, a sample of updated ids holding their
/// last write. `names` labels the three checks.
fn written_state_checks<T: Transport<ClusterMsg>>(
    admin: &mut ClusterClient<T>,
    inputs: &Inputs,
    deleted: &[PointId],
    updated: &HashMap<PointId, Vec<f32>>,
    names: [&'static str; 3],
) -> VqResult<Vec<Check>> {
    let expected_live = inputs.dataset.len() as usize - deleted.len();
    let live = admin.count(None)?;
    let mut resurrected = 0;
    for &id in deleted.iter().take(spec::CHURN_SAMPLE) {
        if admin.get(id)?.is_some() {
            resurrected += 1;
        }
    }
    let mut sampled: Vec<_> = updated.iter().collect();
    sampled.sort_by_key(|(id, _)| **id);
    sampled.truncate(spec::CHURN_SAMPLE);
    let mut stale = 0;
    for (&id, vector) in &sampled {
        let stored = admin.get(id)?.map(|p| p.vector);
        if stored.as_deref() != Some(vq_core::vector::normalized(vector).as_slice()) {
            stale += 1;
        }
    }
    Ok(vec![
        check(
            names[0],
            live == expected_live,
            format!("{live} live points, the acknowledged writes leave {expected_live}"),
        ),
        check(
            names[1],
            resurrected == 0,
            format!(
                "{resurrected} of {} sampled deleted ids readable",
                deleted.len().min(spec::CHURN_SAMPLE)
            ),
        ),
        check(
            names[2],
            stale == 0,
            format!(
                "{stale} of {} sampled updated ids do not hold their last write",
                sampled.len()
            ),
        ),
    ])
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What the paced writer did.
struct ChurnOutcome {
    ticks_done: usize,
    upsert_ms: Vec<f64>,
    lag_ms_max: f64,
    failed: u64,
}

fn churn_writer<T: Transport<ClusterMsg>>(
    mut client: ClusterClient<T>,
    plan: &ChurnPlan,
    began: Instant,
    deadline: Instant,
) -> ChurnOutcome {
    let mut outcome = ChurnOutcome {
        ticks_done: 0,
        upsert_ms: Vec::new(),
        lag_ms_max: 0.0,
        failed: 0,
    };
    for (t, tick) in plan.ticks.iter().enumerate() {
        let due = began + Duration::from_millis(spec::CHURN_TICK_MS * t as u64);
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        // Open loop: the clock of a tick starts when it was due, so a
        // stall shows up in every tick it delayed.
        let lag = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        outcome.lag_ms_max = outcome.lag_ms_max.max(lag);
        if client.upsert_block(&tick.update).is_err() {
            outcome.failed += 1;
        }
        outcome.upsert_ms.push(due.elapsed().as_secs_f64() * 1e3);
        for &id in &tick.deletes {
            if client.delete(id).is_err() {
                outcome.failed += 1;
            }
        }
        outcome.ticks_done = t + 1;
    }
    outcome
}

/// Longest one probe of the machine's speed lasts; a fifth of the measured
/// phase when that is shorter. The warm-up before it lasts a third of that.
const PROBE_SECONDS: f64 = 3.0;

fn measure<T: Transport<ClusterMsg>>(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    stack: &Stack<T>,
    quiet: Option<&QuietLog>,
) -> VqResult<RunResult> {
    let Stack {
        inputs,
        cluster,
        server,
        ..
    } = stack;
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let mut phases = vec![stack.load];
    let mut checks = Vec::new();
    let mut admin = cluster.client();

    // ---- measured phase ---------------------------------------------------
    let plan = spec.churn.then(|| {
        let ticks = (seconds * 1e3 / spec::CHURN_TICK_MS as f64).ceil() as usize + 1;
        ChurnPlan::generate(inputs, seed, ticks)
    });
    let mut reader = Client::connect(spec.search_edge, cluster, server.as_ref())?;

    // Warm-up: the searches that fault pages in and fill caches are not
    // timed. After them, the same searches are the probe `quiet` judges
    // the machine by.
    let mut warm_up = PhaseOps {
        phase: "warm_up",
        attempted: 0,
        failed: 0,
    };
    let mut searches_per_s = |span: Duration| {
        let began = Instant::now();
        let outcome = search_until(&mut reader, &inputs.queries, began, began + span);
        warm_up.attempted += outcome.latencies_ms.len() as u64;
        warm_up.failed += outcome.failed;
        outcome.latencies_ms.len() as f64 / began.elapsed().as_secs_f64()
    };
    let probe_for = Duration::from_secs_f64((seconds / 5.0).min(PROBE_SECONDS));
    searches_per_s(probe_for / 3);
    let mut probe = || searches_per_s(probe_for);
    let settled = match quiet {
        Some(log) => log.settle(spec.name, &mut probe),
        None => Settled {
            probe_qps: probe(),
            waited_s: 0.0,
        },
    };
    phases.push(warm_up);
    notes.push(metric("quiet_probe_qps", settled.probe_qps, "1/s"));
    notes.push(metric("quiet_wait_s", settled.waited_s, "s"));

    // One closed-loop reader on this thread; on `ingest_churn` the paced
    // writer beside it. Two client threads are all this machine's cores.
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(seconds);
    let (searched, churn) = std::thread::scope(|scope| {
        let writer = plan.as_ref().map(|plan| {
            let client = cluster.client();
            scope.spawn(move || churn_writer(client, plan, began, deadline))
        });
        let searched = search_until(&mut reader, &inputs.queries, began, deadline);
        (
            searched,
            writer.map(|w| w.join().expect("writer thread panicked")),
        )
    });
    drop(reader);

    phases.push(PhaseOps {
        phase: "search",
        attempted: searched.latencies_ms.len() as u64,
        failed: searched.failed,
    });
    let latency = stats::latency(&searched.latencies_ms);
    metrics.push(metric(
        "search_qps",
        windowed_qps(&searched.completed_s, seconds),
        "1/s",
    ));
    metrics.push(metric("search_p50_ms", latency.p50_ms, "ms"));
    metrics.push(metric("search_p99_ms", latency.p99_ms, "ms"));
    notes.push(metric("search_samples", latency.samples as f64, "count"));
    // The shape of the tail around the gated p99.
    let mut sorted = searched.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    for (name, p) in [
        ("search_p90_ms", 90.0),
        ("search_p95_ms", 95.0),
        ("search_p995_ms", 99.5),
    ] {
        notes.push(metric(name, stats::percentile(&sorted, p), "ms"));
    }
    notes.push(metric(
        &format!("search_p99_rule.{}", latency.rule.name()),
        latency.samples as f64,
        "count",
    ));

    let ticks_done = churn.as_ref().map_or(0, |c| c.ticks_done);
    if let Some(churn) = &churn {
        let writes = ticks_done * (1 + spec::CHURN_DELETES_PER_TICK);
        phases.push(PhaseOps {
            phase: "churn_write",
            attempted: writes as u64,
            failed: churn.failed,
        });
        let upsert = stats::latency(&churn.upsert_ms);
        metrics.push(metric("upsert_p99_ms", upsert.p99_ms, "ms"));
        notes.push(metric("upsert_p50_ms", upsert.p50_ms, "ms"));
        notes.push(metric("upsert_samples", upsert.samples as f64, "count"));
        notes.push(metric("writer_lag_ms_max", churn.lag_ms_max, "ms"));
    }

    // ---- quiescent checks -------------------------------------------------
    let mut searcher = Client::connect(spec.search_edge, cluster, server.as_ref())?;
    let mut recall_failed = 0;
    let mut got = Vec::with_capacity(spec.recall_queries);
    // A tier's page cache holds whichever pages the last queries touched,
    // short tail pages among them, so one reading of the resident bytes
    // moves by several per cent with nothing changed. The peak over the
    // recall pass does not, and it is what a memory budget has to cover.
    let mut quantized_resident_peak = 0;
    for request in &inputs.queries[..spec.recall_queries] {
        match searcher.search(request) {
            Ok(hits) => got.push(ids(&hits)),
            Err(_) => {
                recall_failed += 1;
                got.push(Vec::new());
            }
        }
        if spec.ready == spec::Ready::Quantize {
            quantized_resident_peak =
                quantized_resident_peak.max(admin.stats()?.quantized_resident_bytes);
        }
    }
    phases.push(PhaseOps {
        phase: "recall",
        attempted: spec.recall_queries as u64,
        failed: recall_failed,
    });
    let truth = match &plan {
        Some(plan) => inputs::truth_after_churn(inputs, plan, ticks_done, spec.recall_queries),
        None => inputs::truth_ids(&inputs.truth, spec.recall_queries),
    };
    let recall = inputs::mean_recall(&truth, &got);
    metrics.push(metric("recall_at_10", recall, "ratio"));
    checks.push(check(
        "recall_floor",
        recall >= spec.recall_floor,
        format!(
            "recall_at_10 {recall:.4} against a floor of {}",
            spec.recall_floor
        ),
    ));

    if let Some(server) = server {
        // The same query must come back bit-identical over every way in.
        let sample = &inputs.queries[..spec::CONSISTENCY_QUERIES];
        let mut rest = Client::<T>::connect(Edge::Rest, cluster, Some(server))?;
        let mut bin = Client::<T>::connect(Edge::Bin, cluster, Some(server))?;
        let (mut differing, mut over_rest) = (0, 0);
        for request in sample {
            let direct = admin.search(request.clone())?;
            if bin.search(request)? != direct {
                differing += 1;
            }
            if stack::rest_can_express(request) {
                over_rest += 1;
                if rest.search(request)? != direct {
                    differing += 1;
                }
            }
        }
        checks.push(check(
            "edges_bit_identical",
            differing == 0,
            format!(
                "{differing} differing results over {} binary and {over_rest} REST comparisons against in-proc",
                sample.len()
            ),
        ));
    }

    let churned = plan
        .as_ref()
        .filter(|_| churn.is_some())
        .map(|plan| plan.expected(ticks_done));
    if let Some((deleted, updated)) = &churned {
        checks.extend(written_state_checks(
            &mut admin,
            inputs,
            deleted,
            updated,
            [
                "churn_live_count",
                "churn_deletes_stay_deleted",
                "churn_updates_visible",
            ],
        )?);
    }

    let stats = admin.stats()?;
    let resident = if stats.quantized_segments > 0 {
        quantized_resident_peak.max(stats.quantized_resident_bytes)
    } else {
        stats.approx_bytes
    };
    metrics.push(metric(
        "resident_bytes_per_point",
        resident as f64 / stats.live_points.max(1) as f64,
        "B",
    ));
    notes.push(metric("segments", stats.segments as f64, "count"));
    notes.push(metric("indexed_frac", stats.index_coverage(), "ratio"));
    notes.push(metric(
        "tombstone_frac",
        1.0 - stats.live_points as f64 / stats.total_offsets.max(1) as f64,
        "ratio",
    ));

    if spec.durable {
        // Ack ⇒ durable: every write acknowledged before the kill is there
        // after the restart, under the stated flush policy. Answers are
        // held to a recall floor, not to equality: the restarted worker
        // rebuilds its HNSW graphs, and that build is not deterministic.
        cluster.kill_worker(0)?;
        let restart = Instant::now();
        cluster.restart_worker(0)?;
        metrics.push(metric("recover_s", restart.elapsed().as_secs_f64(), "s"));
        phases.push(PhaseOps {
            phase: "recover",
            attempted: 1,
            failed: 0,
        });
        let (none, nothing) = (Vec::new(), HashMap::new());
        let (deleted, updated) = churned.as_ref().map_or((&none, &nothing), |(d, u)| (d, u));
        checks.extend(written_state_checks(
            &mut admin,
            inputs,
            deleted,
            updated,
            [
                "recover_live_count",
                "recover_deletes_stay_deleted",
                "recover_updates_visible",
            ],
        )?);
        let after: Vec<Vec<PointId>> = inputs.queries[..spec.recall_queries]
            .iter()
            .map(|q| admin.search(q.clone()).map(|hits| ids(&hits)))
            .collect::<VqResult<_>>()?;
        let recall = inputs::mean_recall(&truth, &after);
        notes.push(metric("recall_at_10_after_restart", recall, "ratio"));
        checks.push(check(
            "recover_recall_floor",
            recall >= spec.recall_floor_after_restart,
            format!(
                "recall_at_10 {recall:.4} after the restart against a floor of {}",
                spec.recall_floor_after_restart
            ),
        ));
    }

    let (retries, failovers) = (cluster.search_retry_count(), cluster.failover_count());
    checks.push(check(
        "no_retries_or_failovers",
        retries == 0 && failovers == 0,
        format!("{retries} search retries, {failovers} failovers"),
    ));

    Ok(RunResult {
        workload: spec.name,
        seed,
        seconds,
        points: inputs.dataset.len() as usize,
        metrics,
        notes,
        phases,
        checks,
    })
}

fn cluster_start(spec: &Spec) -> impl Fn() -> VqResult<Arc<Cluster>> {
    let (cluster_config, collection_config) = (spec.cluster_config(), spec.collection_config());
    move || Cluster::start(cluster_config.clone(), collection_config)
}

/// Set `spec` up once, tear it down, and say what the set-up cost.
pub fn set_up_only(spec: &Spec, seed: u64) -> Result<SetupCost, String> {
    let stack = set_up(spec, seed, &cluster_start(spec)).map_err(|e| e.to_string())?;
    let (cost, load) = (stack.cost, stack.load);
    stack.shutdown();
    if load.failed > 0 {
        return Err(format!(
            "{} of {} load batches failed",
            load.failed, load.attempted
        ));
    }
    Ok(cost)
}

/// Run `spec` once: set up, measure for `seconds`, then the correctness
/// checks. `setup_s`, `insert_pts_per_s` and `index_build_s` are medians
/// over this set-up and the `earlier` ones. With a `quiet` log the run
/// waits for a quiet machine before it measures.
///
/// The earlier ones come from processes of their own: a second set-up in
/// a process that has torn one down finds the allocator as that left it,
/// and loads at anything from the fresh rate to a quarter of it.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    earlier: &[SetupCost],
    quiet: Option<&QuietLog>,
) -> VqResult<RunResult> {
    let stack = set_up(spec, seed, &cluster_start(spec))?;
    let mut result = measure(spec, seed, seconds, &stack, quiet)?;
    let mut costs = earlier.to_vec();
    costs.push(stack.cost);
    stack.shutdown();

    let median = |f: fn(&SetupCost) -> f64| stats::median(&costs.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![
        metric("setup_s", median(|c| c.setup_s), "s"),
        metric("insert_pts_per_s", median(|c| c.insert_pts_per_s), "1/s"),
    ];
    if spec.ready != spec::Ready::FlatScan {
        metrics.push(metric("index_build_s", median(|c| c.ready_s), "s"));
    }
    metrics.append(&mut result.metrics);
    metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    let (attempted, failed) = (result.attempted(), result.failed());
    metrics.push(metric(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    result.metrics = metrics;
    result
        .notes
        .push(metric("setups", costs.len() as f64, "count"));
    Ok(result)
}
