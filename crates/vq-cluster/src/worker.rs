//! A worker node.
//!
//! Each worker runs a serve loop on its own OS thread: it owns a set of
//! shards (each a [`LocalCollection`]) and answers protocol requests from
//! the transport. Client-facing `SearchBatch` requests are handed to a
//! small bounded *coordinator pool* (with one-off overflow threads when
//! the pool's queue is full, counted as saturations), each coordination
//! using an ephemeral reply endpoint — so two workers coordinating
//! queries that fan out to each other can never deadlock their serve
//! loops. This is the scatter–gather pattern every broadcast–reduce
//! vector database implements.

use crate::cluster::Deadlines;
use crate::messages::{ClusterMsg, Request, Response};
use crate::placement::{Placement, ShardId, WorkerId};
use crate::recovery::WalStore;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use vq_collection::{CollectionConfig, CollectionStats, LocalCollection, SearchRequest};
use vq_core::{point::merge_top_k, ScoredPoint, VqError, VqResult};
use vq_net::{Switchboard, Transport, TransportEndpoint};

/// Ephemeral (scatter-gather reply) endpoints live above this id.
const EPHEMERAL_BASE: u32 = 1 << 20;
static NEXT_EPHEMERAL: AtomicU32 = AtomicU32::new(EPHEMERAL_BASE);

/// Reserved endpoint id the cluster's heartbeat monitor listens on (just
/// below the ephemeral range, far above any worker id). Workers aim their
/// [`ClusterMsg::Heartbeat`] beacons here; on clusters without healing the
/// endpoint never exists and beats are never emitted.
pub(crate) const MONITOR_ID: u32 = EPHEMERAL_BASE - 1;

/// Standing coordinator threads per worker.
const COORDINATOR_POOL_SIZE: usize = 4;
/// Queued coordinations the pool accepts before overflowing to one-off
/// threads.
const COORDINATOR_QUEUE_DEPTH: usize = 64;

/// Allocate a process-unique ephemeral endpoint id.
pub(crate) fn alloc_ephemeral_id() -> u32 {
    NEXT_EPHEMERAL.fetch_add(1, Ordering::Relaxed)
}

/// One coordination handed from the serve loop to the pool.
struct CoordJob {
    reply_to: u32,
    tag: u64,
    /// Requester's trace context (from the envelope), if tracing.
    trace: Option<crate::messages::TraceContext>,
    /// When the serve loop enqueued the job — the `queue_wait` span.
    enqueued: std::time::Instant,
    queries: Arc<[SearchRequest]>,
}

struct WorkerState<T: Transport<ClusterMsg>> {
    id: WorkerId,
    node: u32,
    config: CollectionConfig,
    deadlines: Deadlines,
    wal_store: Arc<WalStore>,
    shards: RwLock<HashMap<ShardId, Arc<LocalCollection>>>,
    placement: Arc<RwLock<Placement>>,
    transport: T,
    /// Where this worker's local searches execute: its dedicated
    /// work-stealing pool.
    exec: vq_core::ExecCtx,
    /// In-flight outbound shard copies: internal tag → (requester,
    /// requester's tag). The install confirmation from the receiver is
    /// forwarded to the original requester.
    pending_transfers: parking_lot::Mutex<HashMap<u64, (u32, u64)>>,
    next_internal_tag: std::sync::atomic::AtomicU64,
    /// Job queue feeding the coordinator pool. Taken (dropped) when the
    /// serve loop exits so the pool threads unblock and terminate.
    coordinator_tx: parking_lot::Mutex<Option<crossbeam::channel::Sender<CoordJob>>>,
    /// Emit a liveness beacon to [`MONITOR_ID`] this often (`None` on
    /// clusters without self-healing — the legacy silent worker).
    heartbeat: Option<std::time::Duration>,
    counters: Counters,
}

/// Per-worker registry handles (`worker.upsert_batches{worker="3"}`,
/// …). With a recorder installed these live in the global registry and
/// show up in snapshots/Prometheus; without one they are private atomics,
/// so `WorkerInfo` keeps working in tests that never install a recorder.
/// Per-phase wall time (nanoseconds) is surfaced through WorkerInfo so
/// executor sweeps can read cluster-side cost, not just client-side
/// latency.
struct Counters {
    upsert_batches: Arc<vq_obs::Counter>,
    points_written: Arc<vq_obs::Counter>,
    search_batches: Arc<vq_obs::Counter>,
    queries_served: Arc<vq_obs::Counter>,
    coordinations: Arc<vq_obs::Counter>,
    coordinator_saturations: Arc<vq_obs::Counter>,
    upsert_nanos: Arc<vq_obs::Counter>,
    search_nanos: Arc<vq_obs::Counter>,
    coordination_nanos: Arc<vq_obs::Counter>,
    /// Coordinator-pool queue occupancy after the latest handoff.
    queue_depth: Arc<vq_obs::Gauge>,
}

impl Counters {
    fn for_worker(id: WorkerId) -> Self {
        let c = |name: &str| {
            vq_obs::handle_counter(&vq_obs::labeled(name, "worker", u64::from(id)))
        };
        Counters {
            upsert_batches: c("worker.upsert_batches"),
            points_written: c("worker.points_written"),
            search_batches: c("worker.search_batches"),
            queries_served: c("worker.queries_served"),
            coordinations: c("worker.coordinations"),
            coordinator_saturations: c("worker.coordinator_saturations"),
            upsert_nanos: c("worker.upsert_nanos"),
            search_nanos: c("worker.search_nanos"),
            coordination_nanos: c("worker.coordination_nanos"),
            queue_depth: vq_obs::handle_gauge(&vq_obs::labeled(
                "worker.queue_depth",
                "worker",
                u64::from(id),
            )),
        }
    }
}

/// A running worker (serve thread + state handle), generic over the
/// transport carrying its protocol frames (in-proc [`Switchboard`] by
/// default, a real socket transport in serving deployments).
pub struct Worker<T: Transport<ClusterMsg> = Switchboard<ClusterMsg>> {
    state: Arc<WorkerState<T>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl<T: Transport<ClusterMsg>> Worker<T> {
    /// Spawn a worker with endpoint `id` on `node`, hosting its share of
    /// `placement`'s shards. With a durable `wal_store` each shard is
    /// *recovered* (snapshot restore + WAL replay through the normal
    /// apply path) rather than created empty, so respawning a killed id
    /// brings its acknowledged writes back. `exec` decides where the
    /// worker's local searches run (see
    /// [`crate::cluster::SearchExec`]); the cluster resolves it per
    /// worker so co-located workers get disjoint pools. With `heartbeat`
    /// set the serve loop additionally emits a liveness beacon to the
    /// cluster's monitor endpoint on that cadence — beacons stop the
    /// moment the serve loop stops, which is exactly the signal the
    /// failure detector feeds on.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        id: WorkerId,
        node: u32,
        config: CollectionConfig,
        placement: Arc<RwLock<Placement>>,
        transport: T,
        deadlines: Deadlines,
        wal_store: Arc<WalStore>,
        exec: vq_core::ExecCtx,
        heartbeat: Option<std::time::Duration>,
    ) -> VqResult<Self> {
        let endpoint = transport.register(id, node);
        let mut shards: HashMap<ShardId, Arc<LocalCollection>> = HashMap::new();
        for s in placement.read().shards_of(id) {
            shards.insert(s, Arc::new(open_shard(&wal_store, id, s, config)?));
        }
        let (coord_tx, coord_rx) = crossbeam::channel::bounded::<CoordJob>(COORDINATOR_QUEUE_DEPTH);
        let state = Arc::new(WorkerState {
            id,
            node,
            config,
            deadlines,
            wal_store,
            shards: RwLock::new(shards),
            placement,
            transport,
            exec,
            pending_transfers: parking_lot::Mutex::new(HashMap::new()),
            next_internal_tag: std::sync::atomic::AtomicU64::new(1),
            coordinator_tx: parking_lot::Mutex::new(Some(coord_tx)),
            heartbeat,
            counters: Counters::for_worker(id),
        });
        for i in 0..COORDINATOR_POOL_SIZE {
            let state = state.clone();
            let rx = coord_rx.clone();
            std::thread::Builder::new()
                .name(format!("vq-coord-{id}-{i}"))
                .spawn(move || {
                    // Terminates when the serve loop drops the sender.
                    while let Ok(job) = rx.recv() {
                        coordinate_search(
                            &state,
                            job.reply_to,
                            job.tag,
                            job.trace,
                            job.enqueued,
                            job.queries,
                        );
                    }
                })
                .expect("spawn coordinator thread");
        }
        let state2 = state.clone();
        let handle = std::thread::Builder::new()
            .name(format!("vq-worker-{id}"))
            .spawn(move || serve_loop(state2, endpoint))
            .expect("spawn worker thread");
        Ok(Worker {
            state,
            handle: Some(handle),
        })
    }

    /// Worker id.
    pub fn id(&self) -> WorkerId {
        self.state.id
    }

    /// Node hosting this worker.
    pub fn node(&self) -> u32 {
        self.state.node
    }

    /// Wait for the serve loop to exit (after a `Shutdown` request).
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Open one shard through the WAL store: recover from durable state when
/// there is any, otherwise start empty (journaling durably if the store
/// is durable, so a *future* restart can recover).
fn open_shard(
    wal_store: &WalStore,
    worker: WorkerId,
    shard: ShardId,
    config: CollectionConfig,
) -> VqResult<LocalCollection> {
    match wal_store.open_wal(worker, shard)? {
        Some(wal) => {
            let snapshots = wal_store.snapshot(worker, shard).unwrap_or_default();
            LocalCollection::recover_with_snapshot(config, snapshots, wal)
        }
        None => Ok(LocalCollection::new(config)),
    }
}

fn serve_loop<T: Transport<ClusterMsg>>(state: Arc<WorkerState<T>>, endpoint: T::Endpoint) {
    serve_requests(&state, &endpoint);
    // Drop the coordinator pool's sender on every exit path so the pool
    // threads see a disconnected channel and terminate.
    state.coordinator_tx.lock().take();
}

fn serve_requests<T: Transport<ClusterMsg>>(state: &Arc<WorkerState<T>>, endpoint: &T::Endpoint) {
    let mut beat_seq: u64 = 0;
    let mut next_beat = state
        .heartbeat
        .map(|every| std::time::Instant::now() + every);
    loop {
        // With heartbeats enabled the serve loop doubles as the emitter:
        // it beats on cadence between (and around) requests, from the
        // worker's own endpoint. No separate emitter thread means the
        // beacons stop exactly when the serve loop does — a crashed or
        // wedged worker cannot keep advertising liveness.
        let env = if let (Some(every), Some(due)) = (state.heartbeat, next_beat.as_mut()) {
            let now = std::time::Instant::now();
            if now >= *due {
                beat_seq += 1;
                let beat = ClusterMsg::Heartbeat {
                    worker: state.id,
                    seq: beat_seq,
                };
                let bytes = beat.approx_wire_bytes();
                // The monitor may not be up yet (bring-up order) or may be
                // gone (teardown); a failed beacon is not the worker's
                // problem — silence is the signal.
                let _ = endpoint.send_sized(MONITOR_ID, beat, bytes);
                *due = now + every;
            }
            let wait = due.saturating_duration_since(std::time::Instant::now());
            match endpoint.recv_timeout(wait) {
                Ok(env) => env,
                Err(VqError::Timeout) => continue, // beat again, keep serving
                Err(_) => return,                  // transport gone
            }
        } else {
            let Ok(env) = endpoint.recv() else {
                return; // transport gone
            };
            env
        };
        let (reply_to, tag, trace, body) = match env.payload {
            ClusterMsg::Request {
                reply_to,
                tag,
                trace,
                body,
            } => (reply_to, tag, trace, body),
            ClusterMsg::Response { tag, body } => {
                // Install confirmation for an outbound shard copy:
                // forward the outcome to the original requester.
                let pending = state.pending_transfers.lock().remove(&tag);
                if let Some((orig_reply_to, orig_tag)) = pending {
                    let _ = endpoint.send(orig_reply_to, ClusterMsg::Response {
                        tag: orig_tag,
                        body,
                    });
                }
                continue;
            }
            // A stray beacon (misrouted or late) is noise to a worker.
            ClusterMsg::Heartbeat { .. } => continue,
        };
        let shutdown = matches!(body, Request::Shutdown);
        if shutdown {
            // Unhook from the transport BEFORE acking: the moment the
            // client sees the Ok it may issue a search, and a coordinator
            // that can still reach this endpoint would scatter into a
            // queue nobody will ever drain (a 60s gather timeout).
            state.transport.deregister(state.id);
        }
        match body {
            Request::SearchBatch { queries } => {
                // Hand off to the coordinator pool; keep serving. The
                // serve loop must never block here: a full queue on two
                // workers fanning out to each other would deadlock both,
                // so overflow falls back to a one-off thread (counted as
                // a saturation — the signal to grow the pool).
                state.counters.coordinations.add(1);
                let job = CoordJob {
                    reply_to,
                    tag,
                    trace,
                    enqueued: std::time::Instant::now(),
                    queries,
                };
                let sent = match &*state.coordinator_tx.lock() {
                    Some(tx) => {
                        let res = match tx.try_send(job) {
                            Ok(()) => Ok(()),
                            Err(crossbeam::channel::TrySendError::Full(job)) => {
                                state.counters.coordinator_saturations.add(1);
                                Err(job)
                            }
                            Err(crossbeam::channel::TrySendError::Disconnected(job)) => Err(job),
                        };
                        if vq_obs::enabled() {
                            state.counters.queue_depth.set(tx.len() as i64);
                        }
                        res
                    }
                    None => Err(job),
                };
                if let Err(job) = sent {
                    let state = state.clone();
                    std::thread::spawn(move || {
                        coordinate_search(
                            &state,
                            job.reply_to,
                            job.tag,
                            job.trace,
                            job.enqueued,
                            job.queries,
                        );
                    });
                }
                continue;
            }
            body => {
                // Enter the requester's trace scope for the duration of
                // the handler: every record_phase inside (upsert, search,
                // shard spans) attaches to the sender's open span.
                let _scope = trace
                    .filter(|_| vq_obs::tracing_enabled())
                    .map(|t| vq_obs::TraceScope::enter(t.to_obs()));
                let response = handle_local(&state, &endpoint, reply_to, tag, body);
                if let Some(response) = response {
                    let _ = endpoint.send(reply_to, ClusterMsg::Response {
                        tag,
                        body: response,
                    });
                }
            }
        }
        if shutdown {
            return;
        }
    }
}

/// Handle every request kind except the coordinated `SearchBatch`.
/// Returns `None` when the handler forwarded responsibility elsewhere
/// (shard transfer).
fn handle_local<T: Transport<ClusterMsg>>(
    state: &Arc<WorkerState<T>>,
    endpoint: &T::Endpoint,
    reply_to: u32,
    tag: u64,
    body: Request,
) -> Option<Response> {
    Some(match body {
        Request::UpsertBlock { shard, block } => {
            let n = block.len() as u64;
            match state.shards.read().get(&shard) {
                Some(c) => {
                    let t0 = std::time::Instant::now();
                    let result = c.upsert_block(&block);
                    let dur = t0.elapsed();
                    state.counters.upsert_nanos.add(dur.as_nanos() as u64);
                    vq_obs::record_phase("upsert", u64::from(state.id), dur.as_secs_f64());
                    match result {
                        Ok(()) => {
                            state.counters.upsert_batches.add(1);
                            state.counters.points_written.add(n);
                            Response::Ok
                        }
                        Err(e) => Response::Error(e),
                    }
                }
                None => Response::Error(VqError::ShardNotFound(shard)),
            }
        }
        Request::Delete { shard, id } => match state.shards.read().get(&shard) {
            Some(c) => match c.delete(id) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Error(e),
            },
            None => Response::Error(VqError::ShardNotFound(shard)),
        },
        Request::Get { shard, id } => match state.shards.read().get(&shard) {
            Some(c) => Response::Point(c.get(id)),
            None => Response::Error(VqError::ShardNotFound(shard)),
        },
        Request::LocalSearchBatch { queries } => {
            state.counters.search_batches.add(1);
            state.counters.queries_served.add(queries.len() as u64);
            let t0 = std::time::Instant::now();
            let result = local_search(state, &queries);
            let dur = t0.elapsed();
            state.counters.search_nanos.add(dur.as_nanos() as u64);
            vq_obs::record_phase("search", u64::from(state.id), dur.as_secs_f64());
            match result {
                Ok(partials) => Response::Partials(partials),
                Err(e) => Response::Error(e),
            }
        }
        Request::Count { shard, filter } => match shard {
            Some(shard) => match state.shards.read().get(&shard) {
                Some(c) => Response::Count(c.count(filter.as_ref())),
                None => Response::Error(VqError::ShardNotFound(shard)),
            },
            None => {
                let total: usize = state
                    .shards
                    .read()
                    .values()
                    .map(|c| c.count(filter.as_ref()))
                    .sum();
                Response::Count(total)
            }
        },
        Request::Scroll {
            after,
            limit,
            filter,
        } => {
            // Merge the per-shard id-ordered pages into one local page.
            let mut merged: Vec<vq_core::Point> = Vec::new();
            for c in state.shards.read().values() {
                merged.extend(c.scroll(after, limit, filter.as_ref()));
            }
            merged.sort_unstable_by_key(|p| p.id);
            merged.truncate(limit);
            Response::Points(merged)
        }
        Request::SealAll => {
            for c in state.shards.read().values() {
                c.seal_active();
            }
            Response::Ok
        }
        Request::BuildIndexes => {
            let shards: Vec<Arc<LocalCollection>> =
                state.shards.read().values().cloned().collect();
            let mut built = 0;
            let mut error = None;
            for c in shards {
                c.seal_active();
                match c.build_all_indexes() {
                    Ok(n) => built += n,
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            match error {
                Some(e) => Response::Error(e),
                None => Response::Built(built),
            }
        }
        Request::Quantize => {
            let shards: Vec<Arc<LocalCollection>> =
                state.shards.read().values().cloned().collect();
            let mut built = 0;
            let mut error = None;
            for c in shards {
                c.seal_active();
                match c.build_all_quantized() {
                    Ok(n) => built += n,
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            match error {
                Some(e) => Response::Error(e),
                None => Response::Built(built),
            }
        }
        Request::Stats => {
            let mut total = CollectionStats::default();
            for c in state.shards.read().values() {
                let s = c.stats();
                total.segments += s.segments;
                total.sealed_segments += s.sealed_segments;
                total.indexed_segments += s.indexed_segments;
                total.live_points += s.live_points;
                total.total_offsets += s.total_offsets;
                total.indexed_points += s.indexed_points;
                total.approx_bytes += s.approx_bytes;
                total.quantized_segments += s.quantized_segments;
                total.quantized_resident_bytes += s.quantized_resident_bytes;
                total.quantized_full_bytes += s.quantized_full_bytes;
            }
            Response::Stats(total)
        }
        Request::WorkerInfo => {
            let mut shards: Vec<crate::placement::ShardId> =
                state.shards.read().keys().copied().collect();
            shards.sort_unstable();
            // Wire shape unchanged: the registry handles are the source of
            // truth, WorkerInfo is a snapshot of them.
            Response::WorkerInfo(crate::messages::WorkerInfo {
                worker: state.id,
                node: state.node,
                shards,
                upsert_batches: state.counters.upsert_batches.get(),
                points_written: state.counters.points_written.get(),
                search_batches: state.counters.search_batches.get(),
                queries_served: state.counters.queries_served.get(),
                coordinations: state.counters.coordinations.get(),
                coordinator_saturations: state.counters.coordinator_saturations.get(),
                upsert_nanos: state.counters.upsert_nanos.get(),
                search_nanos: state.counters.search_nanos.get(),
                coordination_nanos: state.counters.coordination_nanos.get(),
            })
        }
        Request::TransferShard { shard, to } => {
            // Copy while continuing to serve the shard; the donor drops
            // its copy only on a later DropShard (after the requester has
            // published the new placement).
            let collection = state.shards.read().get(&shard).cloned();
            match collection {
                Some(c) => {
                    let segments = c.export_segments();
                    let internal_tag = state
                        .next_internal_tag
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    state
                        .pending_transfers
                        .lock()
                        .insert(internal_tag, (reply_to, tag));
                    let msg = ClusterMsg::Request {
                        reply_to: state.id,
                        tag: internal_tag,
                        // Forward the requester's context (this handler
                        // runs inside its scope) so the install lands in
                        // the same trace.
                        trace: crate::messages::TraceContext::current(),
                        body: Request::InstallShard { shard, segments },
                    };
                    let bytes = msg.approx_wire_bytes();
                    match endpoint.send_sized(to, msg, bytes) {
                        // The install confirmation comes back to this
                        // worker's endpoint and is forwarded from there.
                        Ok(()) => return None,
                        Err(e) => {
                            state.pending_transfers.lock().remove(&internal_tag);
                            Response::Error(e)
                        }
                    }
                }
                None => Response::Error(VqError::ShardNotFound(shard)),
            }
        }
        Request::DropShard { shard } => {
            if state.shards.write().remove(&shard).is_some() {
                // The shard moved away: a later restart of this worker
                // must not resurrect it from a stale WAL.
                state.wal_store.forget(state.id, shard);
                Response::Ok
            } else {
                Response::Error(VqError::ShardNotFound(shard))
            }
        }
        Request::ExportShard { shard } => match state.shards.read().get(&shard) {
            Some(c) => Response::Segments(c.export_segments()),
            None => Response::Error(VqError::ShardNotFound(shard)),
        },
        Request::InstallShard { shard, segments } => {
            // Installed data becomes the shard's durable checkpoint: the
            // WAL restarts empty past it, and future writes journal
            // through a freshly attached WAL.
            let install = || -> VqResult<LocalCollection> {
                if state.wal_store.is_durable() {
                    state.wal_store.checkpoint(state.id, shard, segments.clone())?;
                }
                let mut c = LocalCollection::from_segments(state.config, segments)?;
                if let Some(wal) = state.wal_store.open_wal(state.id, shard)? {
                    c.set_wal(wal);
                }
                Ok(c)
            };
            match install() {
                Ok(c) => {
                    state.shards.write().insert(shard, Arc::new(c));
                    Response::Ok
                }
                Err(e) => Response::Error(e),
            }
        }
        Request::Ping => Response::Ok,
        Request::Shutdown => Response::Ok,
        Request::SearchBatch { .. } => unreachable!("handled by serve_loop"),
    })
}

/// Search this worker's shards: one merged partial list per query.
/// Queries run in parallel on the worker's pool — each one is an
/// independent top-k scan, so batch latency tracks the slowest query
/// rather than the sum.
fn local_search<T: Transport<ClusterMsg>>(
    state: &WorkerState<T>,
    queries: &[SearchRequest],
) -> VqResult<Vec<Vec<ScoredPoint>>> {
    let shards: Vec<(ShardId, Arc<LocalCollection>)> = state
        .shards
        .read()
        .iter()
        .map(|(s, c)| (*s, c.clone()))
        .collect();
    // Capture the request's trace context by value: queries dispatch to
    // pool threads, which do not inherit this thread's TraceScope.
    let trace_ctx = vq_obs::trace_current();
    let worker = u64::from(state.id);
    let shard_search = |shard: ShardId,
                        c: &LocalCollection,
                        q: &SearchRequest|
     -> VqResult<Vec<ScoredPoint>> {
        let Some(child) = trace_ctx.as_ref().and_then(vq_obs::trace_child) else {
            return c.search_ctx(q, &state.exec);
        };
        // One span per shard, tagged worker + shard; phases recorded on
        // this thread underneath (sequential coarse_scan/rerank) become
        // its children. Spans from a nested segment fan-out land on pool
        // threads outside the scope and are not attached — a documented
        // limitation, not lost time (the shard span still covers it).
        let _scope = vq_obs::TraceScope::enter(child);
        let t0 = std::time::Instant::now();
        let result = c.search_ctx(q, &state.exec);
        if let Some(t) = vq_obs::tracer() {
            let dur = t0.elapsed().as_secs_f64();
            let at = (t.wall_now_secs() - dur).max(0.0);
            t.record(&child, "shard_search", worker, Some(u64::from(shard)), at, dur);
        }
        result
    };
    let run_query = |q: &SearchRequest| -> VqResult<Vec<ScoredPoint>> {
        let per_shard: VqResult<Vec<Vec<ScoredPoint>>> = shards
            .iter()
            .map(|(s, c)| shard_search(*s, c, q))
            .collect();
        Ok(merge_top_k(per_shard?, q.k))
    };
    match &state.exec {
        // Queries dispatch to this worker's own pool; nested scans
        // underneath size their chunks by the same pool's width.
        vq_core::ExecCtx::Pool(pool) => {
            let stamp = vq_obs::enabled().then(std::time::Instant::now);
            let results = pool.scope_map(queries.len(), |i| run_query(&queries[i]));
            if let Some(stamp) = stamp {
                vq_obs::record_phase(
                    "pool_dispatch",
                    u64::from(state.id),
                    stamp.elapsed().as_secs_f64(),
                );
            }
            results.into_iter().collect()
        }
        vq_core::ExecCtx::Serial => queries.iter().map(run_query).collect(),
    }
}

/// The broadcast–reduce coordinator (§3.4): scatter `LocalSearchBatch` to
/// every peer, search own shards, gather, merge, reply to the client.
fn coordinate_search<T: Transport<ClusterMsg>>(
    state: &Arc<WorkerState<T>>,
    reply_to: u32,
    tag: u64,
    trace: Option<crate::messages::TraceContext>,
    enqueued: std::time::Instant,
    queries: Arc<[SearchRequest]>,
) {
    let coord_t0 = std::time::Instant::now();
    // The coordination is one child span of the requester's context; the
    // scope makes every phase recorded on this thread (queue_wait,
    // search, pool_dispatch, gather) its child, and the scatter envelope
    // carries it so peer-side spans attach to it too.
    let coord_ctx = trace.and_then(|t| vq_obs::trace_child(&t.to_obs()));
    let scope = coord_ctx.map(vq_obs::TraceScope::enter);
    vq_obs::record_phase(
        "queue_wait",
        u64::from(state.id),
        enqueued.elapsed().as_secs_f64(),
    );
    let peers: Vec<WorkerId> = state
        .placement
        .read()
        .workers()
        .iter()
        .copied()
        .filter(|&w| w != state.id)
        .collect();
    // Ephemeral endpoint for gathering partials.
    let eph_id = alloc_ephemeral_id();
    let eph = state.transport.register(eph_id, state.node);

    // Scatter. A peer whose send fails (dead endpoint) is excluded from
    // the gather up front instead of costing a timeout.
    let mut scattered: Vec<WorkerId> = Vec::with_capacity(peers.len());
    for &peer in &peers {
        let msg = ClusterMsg::Request {
            reply_to: eph_id,
            tag: peer as u64,
            // Peers parent their spans onto the coordination span; when
            // this worker is not tracing, the client's context (if any)
            // passes through untouched.
            trace: coord_ctx.map(Into::into).or(trace),
            // Refcount bump, not a deep copy of every query vector.
            body: Request::LocalSearchBatch {
                queries: queries.clone(),
            },
        };
        let bytes = msg.approx_wire_bytes();
        if eph.send_sized(peer, msg, bytes).is_ok() {
            scattered.push(peer);
        }
    }

    // Local partials while peers work.
    state.counters.search_batches.add(1);
    state.counters.queries_served.add(queries.len() as u64);
    let search_t0 = std::time::Instant::now();
    let local = local_search(state, &queries);
    let search_dur = search_t0.elapsed();
    state.counters.search_nanos.add(search_dur.as_nanos() as u64);
    vq_obs::record_phase("search", u64::from(state.id), search_dur.as_secs_f64());

    // Gather under one overall deadline. Peers that miss it (or never
    // received the scatter) become coverage gaps, not a failed search:
    // the reduce proceeds with whatever answered and reports the shards
    // left uncovered. Only a local failure or a peer-*returned* error
    // fails the whole search.
    let mut partials_per_query: Vec<Vec<Vec<ScoredPoint>>> =
        vec![Vec::with_capacity(scattered.len() + 1); queries.len()];
    let mut failure: Option<VqError> = None;
    match local {
        Ok(lists) => {
            for (q, list) in lists.into_iter().enumerate() {
                partials_per_query[q].push(list);
            }
        }
        Err(e) => failure = Some(e),
    }
    let gather_t0 = std::time::Instant::now();
    let deadline = gather_t0 + state.deadlines.gather;
    let mut responded: std::collections::HashSet<WorkerId> = std::collections::HashSet::new();
    while responded.len() < scattered.len() {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            // A gather stall is exactly what tracing is for: dump the
            // failing request's trace id and *that trace's* spans —
            // bounded output, instead of drowning the post-mortem in the
            // whole flight ring. The ring dump remains the fallback when
            // the request is untraced.
            let waiting: Vec<WorkerId> = scattered
                .iter()
                .copied()
                .filter(|p| !responded.contains(p))
                .collect();
            let trace_dump = coord_ctx
                .as_ref()
                .and_then(|c| vq_obs::trace_dump_for(c.trace_id));
            match (trace_dump, coord_ctx.as_ref()) {
                (Some(dump), Some(ctx)) => eprintln!(
                    "worker {}: gather deadline ({:?}) hit still waiting on peers \
                     {waiting:?}; trace {:016x}:\n{dump}",
                    state.id, state.deadlines.gather, ctx.trace_id,
                ),
                _ => {
                    if let Some(dump) = vq_obs::flight_dump_text() {
                        eprintln!(
                            "worker {}: gather deadline ({:?}) hit still waiting on peers \
                             {waiting:?}; flight recorder:\n{dump}",
                            state.id, state.deadlines.gather,
                        );
                    }
                }
            }
            break;
        }
        let Ok(env) = eph.recv_timeout(remaining) else {
            // Timed out: loop back so the zero-remaining branch reports
            // the stall (with the flight recorder) and ends the gather.
            continue;
        };
        let ClusterMsg::Response { tag, body } = env.payload else {
            continue;
        };
        let peer = tag as WorkerId;
        match body {
            Response::Partials(lists) => {
                // A faulty transport can duplicate frames; count each
                // peer's partials once.
                if !responded.insert(peer) {
                    continue;
                }
                for (q, list) in lists.into_iter().enumerate() {
                    if q < partials_per_query.len() {
                        partials_per_query[q].push(list);
                    }
                }
            }
            Response::Error(e) => {
                responded.insert(peer);
                failure = Some(e);
            }
            _ => {}
        }
    }
    vq_obs::record_phase("gather", u64::from(state.id), gather_t0.elapsed().as_secs_f64());

    // Coverage: a shard is degraded when none of its owners contributed
    // partials (the coordinator itself counts as having contributed).
    // A shard whose primary is missing but which a replica covered is a
    // failover, made observable through `cluster.failovers`.
    let mut degraded: Vec<ShardId> = Vec::new();
    {
        let placement = state.placement.read();
        for shard in 0..placement.shard_count() {
            let Ok(owners) = placement.owners_of(shard) else {
                continue;
            };
            let covered =
                |w: &WorkerId| *w == state.id || responded.contains(w);
            if !owners.iter().any(covered) {
                degraded.push(shard);
            } else if !covered(&owners[0]) {
                vq_obs::count("cluster.failovers", 1);
            }
        }
    }
    let body = match failure {
        Some(e) => Response::Error(e),
        None => {
            let results = queries
                .iter()
                .zip(partials_per_query)
                .map(|(q, partials)| {
                    // Merge, then drop replica duplicates (same id from two
                    // owners of a replicated shard), keeping best rank.
                    let merged = merge_top_k(partials, q.k * 2);
                    let mut seen = std::collections::HashSet::new();
                    let mut out = Vec::with_capacity(q.k);
                    for p in merged {
                        if seen.insert(p.id) {
                            out.push(p);
                            if out.len() == q.k {
                                break;
                            }
                        }
                    }
                    out
                })
                .collect();
            Response::Results { results, degraded }
        }
    };
    let msg = ClusterMsg::Response { tag, body };
    let bytes = msg.approx_wire_bytes();
    // Leave the scope first: "coordination" is the coordinate span
    // itself (recorded explicitly below), not a child of it. The span
    // must land *before* the reply leaves — the requester closes the
    // trace when the response arrives, and spans pushed after the root
    // finishes are dropped.
    drop(scope);
    if let Some(ctx) = coord_ctx {
        vq_obs::trace_record(
            &ctx,
            "coordinate",
            u64::from(state.id),
            coord_t0.elapsed().as_secs_f64(),
        );
    }
    let _ = eph.send_sized(reply_to, msg, bytes);
    state.transport.deregister(eph_id);
    let coord_dur = coord_t0.elapsed();
    state.counters.coordination_nanos.add(coord_dur.as_nanos() as u64);
    vq_obs::record_phase("coordination", u64::from(state.id), coord_dur.as_secs_f64());
}
