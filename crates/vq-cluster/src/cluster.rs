//! Cluster bring-up and the client handle.
//!
//! [`Cluster`] spawns worker threads, wires them through a
//! [`Switchboard`], and owns the shared placement. [`ClusterClient`] is
//! the application's handle: it routes upserts to shard owners
//! (client-side routing by id hash, like Qdrant's client SDK), submits
//! searches to *one* worker that then coordinates the broadcast–reduce,
//! and drives administrative actions (seal, index builds, rebalance,
//! shutdown).

use crate::detector::{FailureDetector, HealConfig, WorkerHealth};
use crate::messages::{ClusterMsg, Request, Response};
use crate::placement::{Placement, ShardId, WorkerId};
use crate::recovery::{Durability, WalStore};
use crate::worker::{alloc_ephemeral_id, Worker, MONITOR_ID};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use vq_collection::{CollectionConfig, CollectionStats, SearchRequest};
use vq_core::{Point, PointBlock, PointId, ScoredPoint, VqError, VqResult};
use vq_net::{FaultPlan, NetworkModel, Switchboard, Transport, TransportEndpoint};

/// Per-request time budgets, configured instead of hard-coded (the old
/// fixed 120 s client / 60 s gather / 600 s build constants meant a dead
/// worker stalled callers for the full constant regardless of deployment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlines {
    /// Overall budget for one client request (send → matching response).
    pub request: Duration,
    /// Coordinator-side budget for gathering scatter partials; peers that
    /// miss it are reported as degraded coverage, not an error.
    pub gather: Duration,
    /// Budget for a cluster-wide index build.
    pub index_build: Duration,
    /// Initial pause before a search retry; doubles per attempt (capped
    /// at one second).
    pub retry_backoff: Duration,
}

impl Default for Deadlines {
    fn default() -> Self {
        Deadlines {
            request: Duration::from_secs(120),
            gather: Duration::from_secs(60),
            index_build: Duration::from_secs(600),
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// How each worker's search pool is sized and placed: the
/// scaling-paradox control knob. Every worker runs its searches on a
/// dedicated work-stealing [`vq_core::ExecPool`]; queries dispatch to
/// the owning worker's pool and every nested scan sizes its chunks by
/// that pool's width.
#[derive(Debug, Clone, Default)]
pub struct SearchExec {
    /// Pool threads per worker. `None` = the worker's fair share of the
    /// node (`cores / workers_per_node`, floored at 1), so co-located
    /// workers never oversubscribe the machine by default.
    pub threads_per_worker: Option<usize>,
    /// Pin each worker's pool threads to a disjoint core slice of the
    /// node ([`vq_hpc::NodeTopology::core_slices`]). Best-effort: on
    /// platforms without `sched_setaffinity` the pools run unpinned.
    pub pin_cores: bool,
    /// Override the width pool scans size their chunks for. Normally
    /// `None` (= the pool's real thread count); the paradox experiment's
    /// `colocated` arm sets it to the node-wide thread total to reproduce
    /// whole-node chunk mis-sizing on a narrow pool.
    pub advertised_width: Option<usize>,
    /// Use contention-aware shard placement
    /// ([`Placement::contention_spread`]) instead of plain round-robin.
    pub contention_spread: bool,
}

/// How a cluster is laid out.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of workers.
    pub workers: u32,
    /// Workers packed per node (the paper deploys 4 per Polaris node).
    pub workers_per_node: u32,
    /// Shards (defaults to one per worker when `None`).
    pub shards: Option<u32>,
    /// Replication factor.
    pub replication: u32,
    /// Optional network model imposing modeled delays on the transport.
    pub network: Option<NetworkModel>,
    /// Per-request time budgets.
    pub deadlines: Deadlines,
    /// Where shard WALs live (volatile by default: worker death loses
    /// the shard, as in the paper's stateful architecture).
    pub durability: Durability,
    /// Seeded fault plan installed on the transport at start.
    pub faults: Option<FaultPlan>,
    /// Sizing and placement of the per-worker search pools.
    pub exec: SearchExec,
    /// Self-healing configuration. `None` (the default) keeps the legacy
    /// operator-driven behavior: a failed send marks the worker dead until
    /// `restart_worker`. `Some` turns on heartbeats, the phi-accrual
    /// failure detector, and the background stabilizer.
    pub heal: Option<HealConfig>,
}

impl ClusterConfig {
    /// `workers` workers, one shard each, unreplicated, instant network.
    pub fn new(workers: u32) -> Self {
        ClusterConfig {
            workers,
            workers_per_node: 4,
            shards: None,
            replication: 1,
            network: None,
            deadlines: Deadlines::default(),
            durability: Durability::Volatile,
            faults: None,
            exec: SearchExec::default(),
            heal: None,
        }
    }

    /// Builder-style setter for replication.
    pub fn replication(mut self, r: u32) -> Self {
        self.replication = r;
        self
    }

    /// Builder-style setter for the shard count.
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Builder-style setter for a modeled network.
    pub fn network(mut self, model: NetworkModel) -> Self {
        self.network = Some(model);
        self
    }

    /// Builder-style setter for request deadlines.
    pub fn deadlines(mut self, deadlines: Deadlines) -> Self {
        self.deadlines = deadlines;
        self
    }

    /// Builder-style setter for shard durability.
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Builder-style setter for a seeded transport fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builder-style setter for the search-pool shape.
    pub fn exec(mut self, exec: SearchExec) -> Self {
        self.exec = exec;
        self
    }

    /// Builder-style setter enabling self-healing (heartbeat failure
    /// detection + background stabilizer).
    pub fn heal(mut self, heal: HealConfig) -> Self {
        self.heal = Some(heal);
        self
    }

    /// Build worker `id`'s execution context on this machine: a dedicated
    /// work-stealing pool sized to the worker's fair share of the node,
    /// optionally pinned to its disjoint core slice.
    pub(crate) fn build_exec_ctx(&self, id: WorkerId) -> vq_core::ExecCtx {
        let topo = vq_hpc::NodeTopology::detect();
        let per_node = self.workers_per_node.max(1) as usize;
        let threads = self
            .exec
            .threads_per_worker
            .unwrap_or_else(|| topo.fair_threads(per_node));
        let mut pool = vq_core::PoolConfig::new(threads);
        if let Some(w) = self.exec.advertised_width {
            pool = pool.advertised_width(w);
        }
        if self.exec.pin_cores {
            let slot = id as usize % per_node;
            pool = pool.pin_cores(topo.core_slices(per_node)[slot].clone());
        }
        vq_core::ExecCtx::pool(vq_core::ExecPool::new(pool))
    }
}

/// A running cluster of worker threads, generic over the transport its
/// protocol frames travel on: the in-process [`Switchboard`] by default
/// (the simulation mode every experiment uses), or any other
/// [`Transport`] — e.g. [`vq_net::TcpTransport`] for real loopback
/// sockets under a serving deployment.
pub struct Cluster<T: Transport<ClusterMsg> = Switchboard<ClusterMsg>> {
    transport: T,
    placement: Arc<RwLock<Placement>>,
    workers: RwLock<Vec<Worker<T>>>,
    collection_config: CollectionConfig,
    cluster_config: ClusterConfig,
    wal_store: Arc<WalStore>,
    /// Per-worker liveness state; a worker absent from the map is
    /// [`WorkerHealth::Alive`]. Without healing only `Dead` entries ever
    /// appear (the legacy "failed send ⇒ dead until `restart_worker`"
    /// behavior); with healing the full
    /// alive → suspect → dead → rejoining machine runs.
    health: RwLock<HashMap<WorkerId, WorkerHealth>>,
    /// Heartbeat arrival histories (fed by the monitor thread).
    detector: Mutex<FailureDetector>,
    /// Pending shard rebuilds `(owner, shard)` the stabilizer drains at a
    /// bounded rate (`HealConfig::rebuilds_per_tick`).
    rebuild_queue: Mutex<VecDeque<(WorkerId, ShardId)>>,
    /// Tells the monitor and stabilizer threads to wind down.
    heal_stop: Arc<AtomicBool>,
    heal_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    rr_worker: AtomicU64,
    search_retries: AtomicU64,
    failovers: AtomicU64,
    worker_restarts: AtomicU64,
    suspicions: AtomicU64,
    autonomous_restarts: AtomicU64,
    rebuilds_queued: AtomicU64,
    rebuilds_completed: AtomicU64,
    rebuilds_failed: AtomicU64,
}

impl Cluster {
    /// Start a cluster on an in-process [`Switchboard`], shaped by the
    /// config's [`NetworkModel`] when one is set.
    pub fn start(
        cluster_config: ClusterConfig,
        collection_config: CollectionConfig,
    ) -> VqResult<Arc<Self>> {
        let switchboard = match cluster_config.network.clone() {
            Some(model) => Switchboard::with_model(model),
            None => Switchboard::new(),
        };
        Self::start_on(switchboard, cluster_config, collection_config)
    }
}

impl<T: Transport<ClusterMsg>> Cluster<T> {
    /// Start a cluster on an explicit transport (an in-proc
    /// [`Switchboard`], a loopback [`vq_net::TcpTransport`], …).
    ///
    /// The config's `network` model is *not* applied here — a
    /// caller-built transport is taken as already configured (pass the
    /// model to the transport's constructor) — but the config's fault
    /// plan is installed on it, so chaos experiments run unchanged over
    /// any transport.
    pub fn start_on(
        transport: T,
        cluster_config: ClusterConfig,
        collection_config: CollectionConfig,
    ) -> VqResult<Arc<Self>> {
        let worker_ids: Vec<WorkerId> = (0..cluster_config.workers).collect();
        let shards = cluster_config.shards.unwrap_or(cluster_config.workers);
        let placement = if cluster_config.exec.contention_spread {
            Placement::contention_spread(
                shards,
                &worker_ids,
                cluster_config.replication,
                cluster_config.workers_per_node,
            )?
        } else {
            Placement::round_robin(shards, &worker_ids, cluster_config.replication)?
        };
        let placement = Arc::new(RwLock::new(placement));
        if let Some(plan) = cluster_config.faults.clone() {
            transport.install_faults(plan);
        }
        let wal_store = Arc::new(WalStore::new(cluster_config.durability.clone()));
        let heal = cluster_config.heal;
        // Register the monitor inbox before any worker spawns so the very
        // first beacons have somewhere to land.
        let monitor_endpoint = heal.map(|_| transport.register(MONITOR_ID, u32::MAX));
        let heartbeat_every = heal.map(|h| h.heartbeat_every);
        let workers = worker_ids
            .iter()
            .map(|&id| {
                let node = id / cluster_config.workers_per_node.max(1);
                Worker::spawn(
                    id,
                    node,
                    collection_config,
                    placement.clone(),
                    transport.clone(),
                    cluster_config.deadlines,
                    wal_store.clone(),
                    cluster_config.build_exec_ctx(id),
                    heartbeat_every,
                )
            })
            .collect::<VqResult<Vec<_>>>()?;
        let expected = heartbeat_every.unwrap_or(Duration::from_millis(15));
        let cluster = Arc::new(Cluster {
            transport,
            placement,
            workers: RwLock::new(workers),
            collection_config,
            cluster_config,
            wal_store,
            health: RwLock::new(HashMap::new()),
            detector: Mutex::new(FailureDetector::new(expected, 64)),
            rebuild_queue: Mutex::new(VecDeque::new()),
            heal_stop: Arc::new(AtomicBool::new(false)),
            heal_threads: Mutex::new(Vec::new()),
            rr_worker: AtomicU64::new(0),
            search_retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            suspicions: AtomicU64::new(0),
            autonomous_restarts: AtomicU64::new(0),
            rebuilds_queued: AtomicU64::new(0),
            rebuilds_completed: AtomicU64::new(0),
            rebuilds_failed: AtomicU64::new(0),
        });
        if let (Some(heal), Some(endpoint)) = (heal, monitor_endpoint) {
            {
                let mut det = cluster.detector.lock();
                let now = Instant::now();
                for &id in &worker_ids {
                    det.register(id, now);
                }
            }
            let monitor = {
                let weak = Arc::downgrade(&cluster);
                let stop = cluster.heal_stop.clone();
                std::thread::spawn(move || monitor_loop(weak, endpoint, heal, stop))
            };
            let stabilizer = {
                let weak = Arc::downgrade(&cluster);
                let stop = cluster.heal_stop.clone();
                std::thread::spawn(move || stabilizer_loop(weak, heal, stop))
            };
            cluster.heal_threads.lock().extend([monitor, stabilizer]);
        }
        Ok(cluster)
    }

    /// Current placement snapshot.
    pub fn placement(&self) -> Placement {
        self.placement.read().clone()
    }

    /// Collection parameters this cluster hosts.
    pub fn collection_config(&self) -> &CollectionConfig {
        &self.collection_config
    }

    /// Worker count.
    pub fn worker_count(&self) -> usize {
        self.workers.read().len()
    }

    /// Aggregate transport traffic (messages, bytes, fabric bytes) since
    /// the cluster started — the broadcast–reduce communication overhead
    /// §3.4 discusses, made observable.
    pub fn network_stats(&self) -> vq_net::TransportStats {
        self.transport.stats()
    }

    /// The transport this cluster runs on (serving layers register their
    /// own protocol endpoints through it).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Create a client handle. Clients are cheap; one per driver thread.
    pub fn client(self: &Arc<Self>) -> ClusterClient<T> {
        // Client endpoints share the ephemeral id space (above worker ids).
        let id = alloc_ephemeral_id();
        // Clients run on a notional "client node" beyond every worker node:
        // the paper runs all clients on one separate compute node (§3.2).
        let client_node = u32::MAX;
        let endpoint = self.transport.register(id, client_node);
        ClusterClient {
            cluster: self.clone(),
            endpoint,
            id,
            next_tag: 0,
        }
    }

    /// Cluster layout (deadlines, durability, replication).
    pub fn config(&self) -> &ClusterConfig {
        &self.cluster_config
    }

    /// Workers currently marked dead (sorted).
    pub fn dead_workers(&self) -> Vec<WorkerId> {
        let health = self.health.read();
        let mut v: Vec<WorkerId> = health
            .iter()
            .filter(|(_, h)| **h == WorkerHealth::Dead)
            .map(|(w, _)| *w)
            .collect();
        v.sort_unstable();
        v
    }

    /// Dead set for routing decisions.
    fn routing_dead(&self) -> HashSet<WorkerId> {
        self.health
            .read()
            .iter()
            .filter(|(_, h)| **h == WorkerHealth::Dead)
            .map(|(w, _)| *w)
            .collect()
    }

    /// Liveness state of one worker (workers the detector has no verdict
    /// on are [`WorkerHealth::Alive`]).
    pub fn worker_health(&self, id: WorkerId) -> WorkerHealth {
        self.health
            .read()
            .get(&id)
            .copied()
            .unwrap_or(WorkerHealth::Alive)
    }

    /// Health of every placement worker, sorted by id.
    pub fn health(&self) -> Vec<(WorkerId, WorkerHealth)> {
        let health = self.health.read();
        let mut workers = self.placement.read().workers().to_vec();
        workers.sort_unstable();
        workers
            .into_iter()
            .map(|w| (w, health.get(&w).copied().unwrap_or(WorkerHealth::Alive)))
            .collect()
    }

    /// Current phi suspicion level for `id` (0.0 when healing is off or
    /// the worker is unknown to the detector).
    pub fn suspicion(&self, id: WorkerId) -> f64 {
        self.detector.lock().phi(id, Instant::now())
    }

    fn set_health(&self, id: WorkerId, state: WorkerHealth) {
        let mut health = self.health.write();
        if state == WorkerHealth::Alive {
            health.remove(&id);
        } else {
            health.insert(id, state);
        }
    }

    /// Record `id` as Dead (idempotent), counting the transition.
    fn declare_dead(&self, id: WorkerId) {
        let mut health = self.health.write();
        if health.insert(id, WorkerHealth::Dead) != Some(WorkerHealth::Dead) {
            vq_obs::count("cluster.worker_deaths", 1);
        }
    }

    /// Record `id` as Suspect (idempotent from Alive only), counting the
    /// transition.
    fn declare_suspect(&self, id: WorkerId) {
        let mut health = self.health.write();
        if health.get(&id).is_none() {
            health.insert(id, WorkerHealth::Suspect);
            drop(health);
            self.suspicions.fetch_add(1, Ordering::Relaxed);
            vq_obs::count("cluster.suspicions", 1);
        }
    }

    /// Mark a worker unreachable for routing purposes. Called
    /// automatically when a request to it fails at the transport; also
    /// callable by harnesses that learn of a death out of band.
    ///
    /// Without healing this is the legacy judgement: dead until
    /// `restart_worker`. With healing a single failed send is only
    /// *suspicion* — the stabilizer re-probes the worker and either
    /// clears it (transient refusal/partition) or escalates it to Dead
    /// and restarts it autonomously.
    pub fn mark_worker_dead(&self, id: WorkerId) {
        if self.cluster_config.heal.is_some() {
            self.declare_suspect(id);
        } else {
            self.declare_dead(id);
        }
    }

    /// Workers crashed by the installed fault plan's `KillAfter` rules so
    /// far (empty without a plan). A chaos harness polls this to learn
    /// which workers to `restart_worker`.
    pub fn fault_killed(&self) -> Vec<WorkerId> {
        self.transport.fault_killed()
    }

    /// Search retries clients performed because a first contact was
    /// unreachable (mirrors the `cluster.search_retries` counter).
    pub fn search_retry_count(&self) -> u64 {
        self.search_retries.load(Ordering::Relaxed)
    }

    /// Failovers: requests that succeeded on a replica after their
    /// preferred worker failed (mirrors `cluster.failovers`).
    pub fn failover_count(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Workers brought back by [`Self::restart_worker`] (mirrors
    /// `cluster.worker_restarts`).
    pub fn worker_restart_count(&self) -> u64 {
        self.worker_restarts.load(Ordering::Relaxed)
    }

    /// Alive → Suspect transitions so far (mirrors `cluster.suspicions`).
    pub fn suspicion_count(&self) -> u64 {
        self.suspicions.load(Ordering::Relaxed)
    }

    /// Workers the stabilizer restarted without an operator (mirrors
    /// `cluster.autonomous_restarts`).
    pub fn autonomous_restart_count(&self) -> u64 {
        self.autonomous_restarts.load(Ordering::Relaxed)
    }

    /// Rebuild-queue lifetime counters `(queued, completed, failed)`
    /// (mirrors `cluster.rebuilds_{queued,completed,failed}`).
    pub fn rebuild_counts(&self) -> (u64, u64, u64) {
        (
            self.rebuilds_queued.load(Ordering::Relaxed),
            self.rebuilds_completed.load(Ordering::Relaxed),
            self.rebuilds_failed.load(Ordering::Relaxed),
        )
    }

    /// Rebuilds still waiting in the stabilizer's queue.
    pub fn pending_rebuilds(&self) -> usize {
        self.rebuild_queue.lock().len()
    }

    /// Kill a worker abruptly: its transport endpoint is yanked with no
    /// deregister/ack handshake (messages already queued still drain, as
    /// on a real crash where the kernel delivers what it buffered). The
    /// worker thread exits when it sees the transport gone; its volatile
    /// shard state is lost. Durable WALs (see [`Durability`]) survive in
    /// the cluster's [`WalStore`] for [`Self::restart_worker`].
    pub fn kill_worker(&self, id: WorkerId) -> VqResult<()> {
        let worker = {
            let mut workers = self.workers.write();
            let pos = workers
                .iter()
                .position(|w| w.id() == id)
                .ok_or(VqError::NodeNotFound(id))?;
            workers.remove(pos)
        };
        self.transport.crash(id);
        // The killer *knows* the worker is gone, so skip the suspicion
        // ladder even under healing (the stabilizer still notices the
        // Dead entry and restarts it autonomously).
        self.declare_dead(id);
        worker.join();
        Ok(())
    }

    /// Crash a worker *without telling the cluster*: the endpoint is
    /// yanked and the thread reaped, but no health state changes — the
    /// failure detector has to notice the silence on its own. This is the
    /// honest way to measure detection latency in the heal soak
    /// (`kill_worker` would hand the detector the answer).
    pub fn crash_worker(&self, id: WorkerId) -> VqResult<()> {
        let worker = {
            let mut workers = self.workers.write();
            let pos = workers
                .iter()
                .position(|w| w.id() == id)
                .ok_or(VqError::NodeNotFound(id))?;
            workers.remove(pos)
        };
        self.transport.crash(id);
        worker.join();
        Ok(())
    }

    /// Bring a replacement worker up under a previously killed id:
    /// recover each owned shard from the [`WalStore`] (snapshot restore
    /// plus WAL replay through the normal apply path — volatile mode
    /// recovers empty shards), re-register with the switchboard, and
    /// resume shard ownership. The id must belong to the placement.
    pub fn restart_worker(self: &Arc<Self>, id: WorkerId) -> VqResult<()> {
        if !self.placement.read().workers().contains(&id) {
            return Err(VqError::NodeNotFound(id));
        }
        // Reap a live (or fault-killed but still tracked) incumbent.
        let incumbent = {
            let mut workers = self.workers.write();
            workers
                .iter()
                .position(|w| w.id() == id)
                .map(|pos| workers.remove(pos))
        };
        if let Some(w) = incumbent {
            self.transport.crash(id);
            w.join();
        }
        let node = id / self.cluster_config.workers_per_node.max(1);
        let worker = Worker::spawn(
            id,
            node,
            self.collection_config,
            self.placement.clone(),
            self.transport.clone(),
            self.cluster_config.deadlines,
            self.wal_store.clone(),
            self.cluster_config.build_exec_ctx(id),
            self.cluster_config.heal.map(|h| h.heartbeat_every),
        )?;
        self.workers.write().push(worker);
        {
            // Fresh incarnation: reset both the health verdict and the
            // heartbeat history (pre-crash intervals must not skew the
            // new cadence estimate).
            let mut det = self.detector.lock();
            det.forget(id);
            det.register(id, Instant::now());
        }
        self.set_health(id, WorkerHealth::Alive);
        // The replacement's own WAL ends at the kill: writes a replica
        // acknowledged while this worker was down exist only on that
        // replica. Catch up by pulling each shard from a live co-owner —
        // the same donor path rebalancing uses. The install checkpoints
        // the shard (snapshot + WAL truncate) and re-journals from there,
        // so a second crash still recovers the caught-up state. Shards
        // with no live co-owner (replication 1, or every replica dead)
        // keep their WAL-replayed copy.
        let shards = self.placement.read().shards_of(id);
        let mut client = self.client();
        for shard in shards {
            let donor = {
                let placement = self.placement.read();
                let dead = self.routing_dead();
                placement
                    .owners_of(shard)?
                    .iter()
                    .copied()
                    .find(|w| *w != id && !dead.contains(w))
            };
            if let Some(donor) = donor {
                match client.request(donor, Request::TransferShard { shard, to: id })? {
                    Response::Ok => {}
                    Response::Error(e) => return Err(e),
                    other => {
                        return Err(VqError::Internal(format!(
                            "unexpected catch-up transfer response: {other:?}"
                        )))
                    }
                }
            }
        }
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
        vq_obs::count("cluster.worker_restarts", 1);
        Ok(())
    }

    fn pick_first_contact_excluding(&self, excluded: &HashSet<WorkerId>) -> VqResult<WorkerId> {
        let placement = self.placement.read();
        let workers = placement.workers();
        let health = self.health.read();
        let state =
            |w: &WorkerId| health.get(w).copied().unwrap_or(WorkerHealth::Alive);
        let live: Vec<WorkerId> = workers
            .iter()
            .copied()
            .filter(|w| state(w) == WorkerHealth::Alive && !excluded.contains(w))
            .collect();
        // Prefer confirmed-healthy workers; then anything not declared
        // dead (suspects and rejoiners still serve); if every one of
        // those was already tried this query, fall back to anything not
        // yet tried (a "dead" worker may have recovered).
        let pool = if !live.is_empty() {
            live
        } else {
            let not_dead: Vec<WorkerId> = workers
                .iter()
                .copied()
                .filter(|w| state(w) != WorkerHealth::Dead && !excluded.contains(w))
                .collect();
            if !not_dead.is_empty() {
                not_dead
            } else {
                workers
                    .iter()
                    .copied()
                    .filter(|w| !excluded.contains(w))
                    .collect()
            }
        };
        if pool.is_empty() {
            return Err(VqError::NoAvailableWorker);
        }
        let i = self.rr_worker.fetch_add(1, Ordering::Relaxed) as usize % pool.len();
        Ok(pool[i])
    }

    fn pick_first_contact(&self) -> VqResult<WorkerId> {
        self.pick_first_contact_excluding(&HashSet::new())
    }

    /// Grow the cluster by `extra` workers and rebalance shards onto them
    /// (the expensive stateful-architecture step of §2.2). Returns the
    /// number of shards moved.
    pub fn scale_out(self: &Arc<Self>, extra: u32) -> VqResult<usize> {
        let new_ids: Vec<WorkerId> = {
            let workers = self.workers.read();
            let max_id = workers.iter().map(Worker::id).max().unwrap_or(0);
            (max_id + 1..=max_id + extra).collect()
        };
        // Spawn the new workers first (empty).
        {
            let mut workers = self.workers.write();
            for &id in &new_ids {
                let node = id / self.cluster_config.workers_per_node.max(1);
                workers.push(Worker::spawn(
                    id,
                    node,
                    self.collection_config,
                    self.placement.clone(),
                    self.transport.clone(),
                    self.cluster_config.deadlines,
                    self.wal_store.clone(),
                    self.cluster_config.build_exec_ctx(id),
                    self.cluster_config.heal.map(|h| h.heartbeat_every),
                )?);
            }
        }
        if self.cluster_config.heal.is_some() {
            let mut det = self.detector.lock();
            let now = Instant::now();
            for &id in &new_ids {
                det.register(id, now);
            }
        }
        // Compute the new placement and the moves it requires.
        let all_ids: Vec<WorkerId> = self.workers.read().iter().map(Worker::id).collect();
        let (next, moves) = self.placement.read().rebalanced(&all_ids)?;
        // Three-phase handoff so reads never observe a gap:
        //   1. copy each moving shard (donor keeps serving; the
        //      broadcast–reduce dedupe makes dual ownership read-safe);
        //   2. publish the new placement (writes now route to the new
        //      owners);
        //   3. drop the donor copies.
        // Writes issued against a *moving* shard during phase 1–2 are not
        // diff-shipped (no update streaming); callers should quiesce
        // ingest while rebalancing — the same advice the paper gives for
        // stateful architectures (§2.2).
        let mut client = self.client();
        for mv in &moves {
            let from = mv.from.ok_or_else(|| {
                VqError::Internal("rebalance from empty placement".into())
            })?;
            client.transfer_shard(mv.shard, from, mv.to)?;
        }
        *self.placement.write() = next;
        for mv in &moves {
            let from = mv.from.expect("checked above");
            client.drop_shard(mv.shard, from)?;
        }
        Ok(moves.len())
    }

    /// Stop the monitor and stabilizer threads (idempotent; no-op when
    /// healing is off).
    fn stop_healing(&self) {
        self.heal_stop.store(true, Ordering::Relaxed);
        if self.cluster_config.heal.is_some() {
            // Unblock the monitor's recv.
            self.transport.crash(MONITOR_ID);
        }
        let handles: Vec<_> = self.heal_threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Stop every worker and wait for their threads.
    pub fn shutdown(self: &Arc<Self>) {
        // Heal threads first, or the stabilizer would fight the shutdown
        // by restarting workers as they go down.
        self.stop_healing();
        let mut client = self.client();
        let workers: Vec<WorkerId> = self.workers.read().iter().map(Worker::id).collect();
        for w in workers {
            let _ = client.request(w, Request::Shutdown);
        }
        let mut workers = self.workers.write();
        for w in workers.drain(..) {
            // A worker the fault plan (or a crash) cut off never saw the
            // Shutdown request: yank its endpoint so the serve loop exits
            // instead of blocking the join forever. Workers that did ack
            // already deregistered themselves — this is a no-op for them.
            self.transport.crash(w.id());
            w.join();
        }
    }

    /// Re-evaluate phi for every placement worker, moving Alive workers
    /// whose suspicion crossed the threshold to Suspect. Recovery out of
    /// Suspect is *probe-driven* (see [`Self::stabilize`]) so the
    /// regression surface — "was this worker actually re-contacted?" —
    /// is explicit rather than inferred from beacon timing.
    fn evaluate_suspicions(&self, heal: &HealConfig) {
        let workers = self.placement.read().workers().to_vec();
        let now = Instant::now();
        let suspicious: Vec<WorkerId> = {
            let det = self.detector.lock();
            workers
                .iter()
                .copied()
                .filter(|&w| det.phi(w, now) > heal.phi_suspect)
                .collect()
        };
        for w in suspicious {
            // declare_suspect only transitions Alive → Suspect, so
            // Dead/Rejoining workers are untouched here.
            self.declare_suspect(w);
        }
    }

    /// One stabilizer tick: probe suspects, restart the dead, drain the
    /// rebuild queue at a bounded rate, promote rejoiners whose rebuilds
    /// finished, and periodically diff desired vs actual shard placement.
    fn stabilize(
        self: &Arc<Self>,
        heal: &HealConfig,
        probe_failures: &mut HashMap<WorkerId, u32>,
        tick_no: u64,
    ) {
        // 1. Re-probe suspects: a transient refusal or partition clears
        //    itself here; persistent silence escalates to Dead.
        let suspects: Vec<WorkerId> = {
            let health = self.health.read();
            health
                .iter()
                .filter(|(_, h)| **h == WorkerHealth::Suspect)
                .map(|(w, _)| *w)
                .collect()
        };
        probe_failures.retain(|w, _| suspects.contains(w));
        if !suspects.is_empty() {
            let mut client = self.client();
            for w in suspects {
                match client.request_with_deadline(w, Request::Ping, heal.probe_timeout) {
                    Ok(Response::Ok) => {
                        probe_failures.remove(&w);
                        // Probe answered: the worker is reachable again.
                        // Stamp an arrival so stale silence accrued while
                        // Suspect does not immediately re-trip phi.
                        self.detector.lock().record(w, Instant::now());
                        self.set_health(w, WorkerHealth::Alive);
                        vq_obs::count("cluster.reprobe_recoveries", 1);
                    }
                    _ => {
                        let n = probe_failures.entry(w).or_insert(0);
                        *n += 1;
                        if *n >= heal.probe_failures {
                            probe_failures.remove(&w);
                            self.declare_dead(w);
                        }
                    }
                }
            }
        }
        // 2. Restart dead placement workers autonomously.
        let deads: Vec<WorkerId> = {
            let health = self.health.read();
            let members = self.placement.read().workers().to_vec();
            members
                .into_iter()
                .filter(|w| health.get(w) == Some(&WorkerHealth::Dead))
                .collect()
        };
        for w in deads {
            if let Err(e) = self.autonomous_restart(w) {
                vq_obs::count("cluster.autonomous_restart_failures", 1);
                let _ = e;
            }
        }
        // 3. Drain the rebuild queue, bounded per tick so re-replication
        //    cannot starve foreground traffic of donor bandwidth.
        for _ in 0..heal.rebuilds_per_tick {
            let next = self.rebuild_queue.lock().pop_front();
            let Some((owner, shard)) = next else { break };
            self.process_rebuild(owner, shard);
        }
        // 4. Rejoining → Alive once nothing is queued for the worker.
        let rejoining: Vec<WorkerId> = {
            let health = self.health.read();
            health
                .iter()
                .filter(|(_, h)| **h == WorkerHealth::Rejoining)
                .map(|(w, _)| *w)
                .collect()
        };
        if !rejoining.is_empty() {
            let queue = self.rebuild_queue.lock();
            let drained: Vec<WorkerId> = rejoining
                .into_iter()
                .filter(|w| !queue.iter().any(|(owner, _)| owner == w))
                .collect();
            drop(queue);
            for w in drained {
                self.set_health(w, WorkerHealth::Alive);
            }
        }
        // 5. Every ~64 ticks, diff desired placement against what each
        //    alive worker actually hosts and queue the gaps (catches
        //    divergence no crash path reported, e.g. a failed transfer).
        if tick_no % 64 == 0 {
            self.diff_placement(heal);
        }
    }

    /// Restart a dead worker without an operator: reap the incumbent
    /// thread, respawn under the same id (recovering durable WALs), mark
    /// it Rejoining, and queue a rebuild of each owned shard from live
    /// replicas.
    fn autonomous_restart(self: &Arc<Self>, id: WorkerId) -> VqResult<()> {
        let incumbent = {
            let mut workers = self.workers.write();
            workers
                .iter()
                .position(|w| w.id() == id)
                .map(|pos| workers.remove(pos))
        };
        if let Some(w) = incumbent {
            self.transport.crash(id);
            w.join();
        }
        let node = id / self.cluster_config.workers_per_node.max(1);
        let worker = Worker::spawn(
            id,
            node,
            self.collection_config,
            self.placement.clone(),
            self.transport.clone(),
            self.cluster_config.deadlines,
            self.wal_store.clone(),
            self.cluster_config.build_exec_ctx(id),
            self.cluster_config.heal.map(|h| h.heartbeat_every),
        )?;
        self.workers.write().push(worker);
        {
            let mut det = self.detector.lock();
            det.forget(id);
            det.register(id, Instant::now());
        }
        self.set_health(id, WorkerHealth::Rejoining);
        self.autonomous_restarts.fetch_add(1, Ordering::Relaxed);
        vq_obs::count("cluster.autonomous_restarts", 1);
        let shards = self.placement.read().shards_of(id);
        self.queue_rebuilds(id, &shards);
        Ok(())
    }

    /// A replicated write failed over: `owner` acked nothing for `shard`
    /// while a co-owner did, so its copy has silently diverged. Under
    /// healing the stabilizer re-syncs it from the surviving replica once
    /// the worker answers probes again; the legacy stack repairs this
    /// implicitly when the operator calls [`Self::restart_worker`].
    pub(crate) fn note_write_divergence(&self, owner: WorkerId, shard: ShardId) {
        if self.cluster_config.heal.is_some() {
            self.queue_rebuilds(owner, &[shard]);
        }
    }

    /// Queue `(owner, shard)` rebuilds, skipping duplicates already
    /// pending.
    fn queue_rebuilds(&self, owner: WorkerId, shards: &[ShardId]) {
        let mut queue = self.rebuild_queue.lock();
        for &shard in shards {
            if !queue.iter().any(|e| *e == (owner, shard)) {
                queue.push_back((owner, shard));
                self.rebuilds_queued.fetch_add(1, Ordering::Relaxed);
                vq_obs::count("cluster.rebuilds_queued", 1);
            }
        }
    }

    /// Rebuild one shard on `owner` by pulling it from a live co-owner
    /// (the `TransferShard` donor path operator restarts already use).
    /// No live donor means the copy cannot be rebuilt right now — counted
    /// failed; the periodic placement diff re-queues it later.
    fn process_rebuild(self: &Arc<Self>, owner: WorkerId, shard: ShardId) {
        // An unreachable target cannot receive an install; leave the entry
        // queued. Escalation resolves the wait either way: a probe revives
        // the worker, or a restart re-queues all its shards (deduped).
        if matches!(
            self.worker_health(owner),
            WorkerHealth::Suspect | WorkerHealth::Dead
        ) {
            self.rebuild_queue.lock().push_back((owner, shard));
            return;
        }
        let t0 = Instant::now();
        let donor = {
            let health = self.health.read();
            self.placement
                .read()
                .owners_of(shard)
                .ok()
                .and_then(|owners| {
                    owners.iter().copied().find(|w| {
                        *w != owner
                            && health.get(w).copied().unwrap_or(WorkerHealth::Alive)
                                == WorkerHealth::Alive
                    })
                })
        };
        let ok = match donor {
            Some(donor) => {
                let mut client = self.client();
                matches!(
                    client.request(donor, Request::TransferShard { shard, to: owner }),
                    Ok(Response::Ok)
                )
            }
            None => false,
        };
        let dur = t0.elapsed().as_secs_f64();
        vq_obs::record_phase("rebuild", u64::from(owner), dur);
        if let Some(root) = vq_obs::trace_begin_root(None) {
            vq_obs::trace_finish(&root, "phase.rebuild", u64::from(shard), dur);
        }
        if ok {
            self.rebuilds_completed.fetch_add(1, Ordering::Relaxed);
            vq_obs::count("cluster.rebuilds_completed", 1);
        } else {
            self.rebuilds_failed.fetch_add(1, Ordering::Relaxed);
            vq_obs::count("cluster.rebuilds_failed", 1);
        }
    }

    /// Desired-vs-actual reconciliation (after sorock's stabilizer): ask
    /// each Alive worker what it hosts and queue rebuilds for any
    /// placement-assigned shard it is missing.
    fn diff_placement(self: &Arc<Self>, heal: &HealConfig) {
        let alive: Vec<WorkerId> = self
            .health()
            .into_iter()
            .filter(|(_, h)| *h == WorkerHealth::Alive)
            .map(|(w, _)| w)
            .collect();
        if alive.is_empty() {
            return;
        }
        let mut client = self.client();
        for w in alive {
            let Ok(Response::WorkerInfo(info)) =
                client.request_with_deadline(w, Request::WorkerInfo, heal.probe_timeout)
            else {
                // Unreachable or busy: the suspicion machinery owns that
                // judgement; reconciliation just skips the worker.
                continue;
            };
            let desired = self.placement.read().shards_of(w);
            let missing: Vec<ShardId> = desired
                .into_iter()
                .filter(|s| !info.shards.contains(s))
                .collect();
            if !missing.is_empty() {
                self.queue_rebuilds(w, &missing);
            }
        }
    }
}

/// Monitor thread: drains heartbeat beacons into the failure detector
/// and re-evaluates suspicion levels. Holds only a [`Weak`] cluster
/// reference so an abandoned cluster can drop.
fn monitor_loop<T: Transport<ClusterMsg>>(
    cluster: Weak<Cluster<T>>,
    endpoint: T::Endpoint,
    heal: HealConfig,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Relaxed) {
        let beat = match endpoint.recv_timeout(heal.tick) {
            Ok(env) => match env.payload {
                ClusterMsg::Heartbeat { worker, .. } => Some(worker),
                _ => None,
            },
            Err(VqError::Timeout) => None,
            // Endpoint crashed: the cluster is shutting down.
            Err(_) => break,
        };
        let Some(cluster) = cluster.upgrade() else { break };
        if let Some(worker) = beat {
            cluster.detector.lock().record(worker, Instant::now());
        }
        cluster.evaluate_suspicions(&heal);
    }
}

/// Stabilizer thread: the reconciliation loop that turns detector
/// verdicts into repair — probe suspects, restart the dead, rebuild
/// shards from live replicas — with no operator in the loop.
fn stabilizer_loop<T: Transport<ClusterMsg>>(
    cluster: Weak<Cluster<T>>,
    heal: HealConfig,
    stop: Arc<AtomicBool>,
) {
    let mut probe_failures: HashMap<WorkerId, u32> = HashMap::new();
    let mut tick_no: u64 = 0;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(heal.tick);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Some(cluster) = cluster.upgrade() else { break };
        tick_no += 1;
        cluster.stabilize(&heal, &mut probe_failures, tick_no);
    }
}

/// Outcome of a batch search: the merged results plus which shards (if
/// any) had no live owner during the gather. `degraded` empty means every
/// shard contributed; non-empty means results may be missing points from
/// the listed shards (the stateful architecture's partial-answer mode
/// when a worker and all its replicas are down).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// One merged, deduplicated result list per query.
    pub results: Vec<Vec<ScoredPoint>>,
    /// Shards not covered by any responding worker.
    pub degraded: Vec<ShardId>,
}

/// Application handle to the cluster, generic over its transport.
pub struct ClusterClient<T: Transport<ClusterMsg> = Switchboard<ClusterMsg>> {
    cluster: Arc<Cluster<T>>,
    endpoint: T::Endpoint,
    id: u32,
    next_tag: u64,
}

impl<T: Transport<ClusterMsg>> ClusterClient<T> {
    /// This client's endpoint id (diagnostics).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Send `body` to `worker` and wait for the matching response, within
    /// the configured request deadline.
    pub fn request(&mut self, worker: WorkerId, body: Request) -> VqResult<Response> {
        let timeout = self.cluster.cluster_config.deadlines.request;
        self.request_with_deadline(worker, body, timeout)
    }

    /// Like [`Self::request`] with an explicit overall budget. The budget
    /// covers the whole exchange: stale responses drained from earlier
    /// timed-out requests do not reset it (the old fixed-timeout loop
    /// restarted its 120 s wait on every stale frame).
    pub fn request_with_deadline(
        &mut self,
        worker: WorkerId,
        body: Request,
        timeout: Duration,
    ) -> VqResult<Response> {
        let tag = self.next_tag;
        self.next_tag += 1;
        let msg = ClusterMsg::Request {
            reply_to: self.endpoint.id(),
            tag,
            // The calling thread's trace context (if tracing) rides the
            // envelope, so worker-side spans attach to this request.
            trace: crate::messages::TraceContext::current(),
            body,
        };
        let bytes = msg.approx_wire_bytes();
        self.endpoint.send_sized(worker, msg, bytes)?;
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(VqError::Timeout);
            }
            let env = self.endpoint.recv_timeout(remaining)?;
            if let ClusterMsg::Response { tag: t, body } = env.payload {
                if t == tag {
                    return Ok(body);
                }
                // Stale response from a timed-out request; drop it.
            }
        }
    }

    /// Upsert row-wise points: laid out as one [`PointBlock`] and sent
    /// by [`Self::upsert_block`].
    pub fn upsert_batch(&mut self, points: Vec<Point>) -> VqResult<()> {
        self.upsert_block(&Arc::new(PointBlock::from_points(&points)?))
    }

    /// Upsert a columnar block, routed to shard owners (all replicas).
    ///
    /// Routing carves per-shard views out of the shared block instead of
    /// deep-copying points: a shard that owns every row (the single-shard
    /// case) receives the block `Arc` itself, preserving the contiguous
    /// slab for the storage fast path; scattered membership gets a gather
    /// view whose only allocation is the `u32` row list. Replicas bump
    /// refcounts — the vector slab is never cloned client-side.
    pub fn upsert_block(&mut self, block: &Arc<PointBlock>) -> VqResult<()> {
        // Group view rows by (worker, shard), preserving row order.
        let mut grouped: HashMap<(WorkerId, ShardId), Vec<u32>> = HashMap::new();
        {
            let placement = self.cluster.placement.read();
            for row in 0..block.len() {
                let shard = placement.shard_of(block.id(row));
                for owner in placement.owners_of(shard)? {
                    grouped.entry((*owner, shard)).or_default().push(row as u32);
                }
            }
        }
        let writes = grouped
            .into_iter()
            .map(|((worker, shard), rows)| {
                // Rows are collected in ascending order, so a full-length
                // group is exactly the whole block.
                let view = if rows.len() == block.len() {
                    Arc::clone(block)
                } else {
                    Arc::new(block.select(&rows))
                };
                (worker, shard, Request::UpsertBlock { shard, block: view })
            })
            .collect();
        self.flush_replicated_writes(writes)
    }

    /// Delete a point on every replica.
    pub fn delete(&mut self, id: PointId) -> VqResult<()> {
        let (shard, owners) = {
            let placement = self.cluster.placement.read();
            let shard = placement.shard_of(id);
            (shard, placement.owners_of(shard)?.to_vec())
        };
        let writes = owners
            .into_iter()
            .map(|owner| (owner, shard, Request::Delete { shard, id }))
            .collect();
        self.flush_replicated_writes(writes)
    }

    /// Send one prepared write per `(worker, shard)` group and apply the
    /// replicated-write acknowledgement rule: a shard's write is acked
    /// when at least one replica applied it. Transport failures on the
    /// remaining replicas are tolerated (and mark the worker dead for
    /// routing) — this is what lets the chaos soak promise "every acked
    /// write is durable somewhere". Errors *returned by* a live worker
    /// (dimension mismatch, missing shard, …) always propagate: those are
    /// data problems, not availability problems.
    fn flush_replicated_writes(
        &mut self,
        writes: Vec<(WorkerId, ShardId, Request)>,
    ) -> VqResult<()> {
        let mut acked: HashMap<ShardId, usize> = HashMap::new();
        let mut failed: Vec<(WorkerId, ShardId, VqError)> = Vec::new();
        for (worker, shard, request) in writes {
            match self.request(worker, request) {
                Ok(Response::Ok) => *acked.entry(shard).or_default() += 1,
                Ok(Response::Error(e)) => return Err(e),
                Ok(other) => {
                    return Err(VqError::Internal(format!(
                        "unexpected response to write: {other:?}"
                    )))
                }
                Err(e) if e.is_retriable() => {
                    if matches!(e, VqError::Network(_)) {
                        self.cluster.mark_worker_dead(worker);
                    }
                    failed.push((worker, shard, e));
                }
                Err(e) => return Err(e),
            }
        }
        for (worker, shard, e) in failed {
            if acked.get(&shard).copied().unwrap_or(0) == 0 {
                return Err(e);
            }
            self.cluster.failovers.fetch_add(1, Ordering::Relaxed);
            vq_obs::count("cluster.failovers", 1);
            // The replica that missed this write needs a re-sync before it
            // can serve the shard again (no-op without healing).
            self.cluster.note_write_divergence(worker, shard);
        }
        Ok(())
    }

    /// Fetch a point from its shard's primary.
    pub fn get(&mut self, id: PointId) -> VqResult<Option<Point>> {
        let (shard, primary) = {
            let placement = self.cluster.placement.read();
            let shard = placement.shard_of(id);
            (shard, placement.primary_of(shard)?)
        };
        match self.request(primary, Request::Get { shard, id })? {
            Response::Point(p) => Ok(p),
            Response::Error(e) => Err(e),
            other => Err(VqError::Internal(format!(
                "unexpected response to get: {other:?}"
            ))),
        }
    }

    /// Batch search through one first-contact worker (round-robin), which
    /// coordinates the broadcast–reduce (§3.4). An unreachable first
    /// contact is retried — with exponential backoff, never through a
    /// worker already observed dead this query — before giving up.
    /// Returns both the merged results and the shards no live owner
    /// covered, so callers can distinguish full from partial answers.
    pub fn search_batch_outcome(
        &mut self,
        queries: Vec<SearchRequest>,
    ) -> VqResult<SearchOutcome> {
        // When tracing, the whole search (retries included) is one
        // "client_search" span: the root of the trace when this client
        // is the entry point, a child when an edge (REST/bin server)
        // already opened one. The scope makes the coordinator fan-out
        // attach underneath via the request envelope.
        let Some((ctx, is_root)) = vq_obs::trace_begin_here() else {
            return self.search_batch_attempts(queries);
        };
        let scope = vq_obs::TraceScope::enter(ctx);
        let t0 = Instant::now();
        let result = self.search_batch_attempts(queries);
        let dur = t0.elapsed().as_secs_f64();
        drop(scope);
        if is_root {
            vq_obs::trace_finish(&ctx, "client_search", 0, dur);
        } else {
            vq_obs::trace_record(&ctx, "client_search", 0, dur);
        }
        result
    }

    fn search_batch_attempts(
        &mut self,
        queries: Vec<SearchRequest>,
    ) -> VqResult<SearchOutcome> {
        // One conversion up front; retries bump a refcount instead of
        // deep-copying every query vector per attempt.
        let queries: Arc<[SearchRequest]> = queries.into();
        let attempts = self.cluster.placement.read().workers().len().max(1);
        let mut excluded: HashSet<WorkerId> = HashSet::new();
        let mut backoff = self.cluster.cluster_config.deadlines.retry_backoff;
        let mut last_err = VqError::NoAvailableWorker;
        for attempt in 0..attempts {
            let first_contact = match self.cluster.pick_first_contact_excluding(&excluded) {
                Ok(w) => w,
                Err(_) => break, // every worker tried this query
            };
            match self.request(first_contact, Request::SearchBatch { queries: queries.clone() })
            {
                Ok(Response::Results { results, degraded }) => {
                    if attempt > 0 {
                        self.cluster.failovers.fetch_add(1, Ordering::Relaxed);
                        vq_obs::count("cluster.failovers", 1);
                    }
                    return Ok(SearchOutcome { results, degraded });
                }
                Ok(Response::Error(e)) => return Err(e),
                Ok(other) => {
                    return Err(VqError::Internal(format!(
                        "unexpected response to search: {other:?}"
                    )))
                }
                Err(e) if e.is_retriable() => {
                    // Never re-send the query to this worker; a transport
                    // failure also marks it dead cluster-wide so other
                    // queries stop picking it. A timeout only excludes it
                    // for *this* query — a busy worker is not a dead one.
                    excluded.insert(first_contact);
                    if matches!(e, VqError::Network(_)) {
                        self.cluster.mark_worker_dead(first_contact);
                    }
                    self.cluster.search_retries.fetch_add(1, Ordering::Relaxed);
                    vq_obs::count("cluster.search_retries", 1);
                    last_err = e;
                    if attempt + 1 < attempts && !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_secs(1));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// Batch search returning only the merged results (coverage gaps from
    /// dead workers are silently partial; use
    /// [`Self::search_batch_outcome`] to observe them).
    pub fn search_batch(
        &mut self,
        queries: Vec<SearchRequest>,
    ) -> VqResult<Vec<Vec<ScoredPoint>>> {
        Ok(self.search_batch_outcome(queries)?.results)
    }

    /// Single-query convenience over [`Self::search_batch`].
    pub fn search(&mut self, query: SearchRequest) -> VqResult<Vec<ScoredPoint>> {
        Ok(self
            .search_batch(vec![query])?
            .pop()
            .unwrap_or_default())
    }

    /// Recommend points near positive example ids and away from negative
    /// ones (the client fetches example vectors from their shards,
    /// combines them with the average-vector strategy, and runs a normal
    /// broadcast–reduce search excluding the examples).
    pub fn recommend(
        &mut self,
        request: vq_collection::RecommendRequest,
    ) -> VqResult<Vec<ScoredPoint>> {
        let mut fetch = |ids: &[PointId]| -> VqResult<Vec<Vec<f32>>> {
            ids.iter()
                .map(|&id| {
                    self.get(id)?
                        .map(|p| p.vector)
                        .ok_or(VqError::PointNotFound(id))
                })
                .collect()
        };
        let positives = fetch(&request.positives)?;
        let negatives = fetch(&request.negatives)?;
        let target =
            vq_collection::RecommendRequest::target_vector(&positives, &negatives)?;
        let exclude: std::collections::HashSet<PointId> = request
            .positives
            .iter()
            .chain(&request.negatives)
            .copied()
            .collect();
        let mut search = SearchRequest::new(target, request.k + exclude.len());
        search.ef = request.ef;
        search.filter = request.filter.clone();
        search.with_payload = request.with_payload;
        let mut hits = self.search(search)?;
        hits.retain(|h| !exclude.contains(&h.id));
        hits.truncate(request.k);
        Ok(hits)
    }

    /// Seal all active segments cluster-wide.
    pub fn seal_all(&mut self) -> VqResult<()> {
        for worker in self.worker_ids() {
            match self.request(worker, Request::SealAll)? {
                Response::Ok => {}
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }

    /// Build every missing index cluster-wide (the explicit rebuild of
    /// §3.3); workers build in parallel. Returns total indexes built.
    pub fn build_indexes(&mut self) -> VqResult<usize> {
        // Fire all requests first so builds overlap across workers,
        // then gather.
        let workers = self.worker_ids();
        let mut tags = Vec::with_capacity(workers.len());
        for &worker in &workers {
            let tag = self.next_tag;
            self.next_tag += 1;
            let msg = ClusterMsg::Request {
                reply_to: self.endpoint.id(),
                tag,
                trace: crate::messages::TraceContext::current(),
                body: Request::BuildIndexes,
            };
            self.endpoint.send(worker, msg)?;
            tags.push(tag);
        }
        let mut built = 0;
        let deadline = Instant::now() + self.cluster.cluster_config.deadlines.index_build;
        let mut remaining: std::collections::HashSet<u64> = tags.into_iter().collect();
        while !remaining.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(VqError::Timeout);
            }
            let env = self.endpoint.recv_timeout(left)?;
            if let ClusterMsg::Response { tag, body } = env.payload {
                if remaining.remove(&tag) {
                    match body {
                        Response::Built(n) => built += n,
                        Response::Error(e) => return Err(e),
                        _ => {}
                    }
                }
            }
        }
        Ok(built)
    }

    /// Quantize every eligible sealed segment cluster-wide: each worker
    /// converts its shards to quantized-resident form (PQ codes in RAM,
    /// full-precision tier behind them), so subsequent fan-out searches
    /// run the coarse scan + exact rerank per shard before the gather.
    /// Returns the total segments quantized.
    pub fn quantize(&mut self) -> VqResult<usize> {
        let workers = self.worker_ids();
        let mut tags = Vec::with_capacity(workers.len());
        for &worker in &workers {
            let tag = self.next_tag;
            self.next_tag += 1;
            let msg = ClusterMsg::Request {
                reply_to: self.endpoint.id(),
                tag,
                trace: crate::messages::TraceContext::current(),
                body: Request::Quantize,
            };
            self.endpoint.send(worker, msg)?;
            tags.push(tag);
        }
        let mut built = 0;
        let deadline = Instant::now() + self.cluster.cluster_config.deadlines.index_build;
        let mut remaining: std::collections::HashSet<u64> = tags.into_iter().collect();
        while !remaining.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(VqError::Timeout);
            }
            let env = self.endpoint.recv_timeout(left)?;
            if let ClusterMsg::Response { tag, body } = env.payload {
                if remaining.remove(&tag) {
                    match body {
                        Response::Built(n) => built += n,
                        Response::Error(e) => return Err(e),
                        _ => {}
                    }
                }
            }
        }
        Ok(built)
    }

    /// Aggregated stats across workers.
    pub fn stats(&mut self) -> VqResult<CollectionStats> {
        let mut total = CollectionStats::default();
        for worker in self.worker_ids() {
            match self.request(worker, Request::Stats)? {
                Response::Stats(s) => {
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
                Response::Error(e) => return Err(e),
                _ => {}
            }
        }
        Ok(total)
    }

    /// Count live points cluster-wide. Each shard is counted on exactly
    /// one owner (primary preferred, replicas as failover), so the result
    /// is exact regardless of the replication factor and survives a dead
    /// replica. Errors only when some shard has no reachable owner.
    pub fn count(&mut self, filter: Option<vq_core::Filter>) -> VqResult<usize> {
        let shard_count = self.cluster.placement.read().shard_count();
        let mut total = 0;
        for shard in 0..shard_count {
            let owners = self.cluster.placement.read().owners_of(shard)?.to_vec();
            let dead: HashSet<WorkerId> = self.cluster.routing_dead();
            let mut counted = false;
            let mut last_err = VqError::NoAvailableWorker;
            for &owner in owners.iter().filter(|w| !dead.contains(w)) {
                let req = Request::Count {
                    shard: Some(shard),
                    filter: filter.clone(),
                };
                match self.request(owner, req) {
                    Ok(Response::Count(n)) => {
                        total += n;
                        counted = true;
                        if owner != owners[0] {
                            // Served by a replica, not the primary.
                            self.cluster.failovers.fetch_add(1, Ordering::Relaxed);
                            vq_obs::count("cluster.failovers", 1);
                        }
                        break;
                    }
                    Ok(Response::Error(e)) => return Err(e),
                    Ok(other) => {
                        return Err(VqError::Internal(format!(
                            "unexpected response to count: {other:?}"
                        )))
                    }
                    Err(e) if e.is_retriable() => {
                        if matches!(e, VqError::Network(_)) {
                            self.cluster.mark_worker_dead(owner);
                        }
                        last_err = e;
                    }
                    Err(e) => return Err(e),
                }
            }
            if !counted {
                return Err(last_err);
            }
        }
        Ok(total)
    }

    /// Id-ordered page of live points across the whole cluster: up to
    /// `limit` points with id > `after`. The last id returned is the
    /// cursor for the next page. Replica copies dedupe by point id, so a
    /// dead worker is tolerated as long as every shard it owned has
    /// another live owner; otherwise the page would silently miss that
    /// shard's points and the call errors instead.
    pub fn scroll(
        &mut self,
        after: Option<PointId>,
        limit: usize,
        filter: Option<vq_core::Filter>,
    ) -> VqResult<Vec<Point>> {
        let mut merged: Vec<Point> = Vec::new();
        let mut failed: HashSet<WorkerId> = self.cluster.routing_dead();
        for worker in self.worker_ids() {
            if failed.contains(&worker) {
                continue;
            }
            match self.request(
                worker,
                Request::Scroll {
                    after,
                    limit,
                    filter: filter.clone(),
                },
            ) {
                Ok(Response::Points(page)) => merged.extend(page),
                Ok(Response::Error(e)) => return Err(e),
                Ok(other) => {
                    return Err(VqError::Internal(format!(
                        "unexpected response to scroll: {other:?}"
                    )))
                }
                Err(e) if e.is_retriable() => {
                    if matches!(e, VqError::Network(_)) {
                        self.cluster.mark_worker_dead(worker);
                    }
                    failed.insert(worker);
                }
                Err(e) => return Err(e),
            }
        }
        // Every shard must have been answered by some live owner.
        {
            let placement = self.cluster.placement.read();
            for shard in 0..placement.shard_count() {
                if placement.owners_of(shard)?.iter().all(|w| failed.contains(w)) {
                    return Err(VqError::NoAvailableWorker);
                }
            }
        }
        merged.sort_unstable_by_key(|p| p.id);
        merged.dedup_by_key(|p| p.id); // replicas
        merged.truncate(limit);
        Ok(merged)
    }

    /// Export one shard's segments from its primary.
    pub fn export_shard(
        &mut self,
        shard: ShardId,
    ) -> VqResult<Vec<vq_storage::SegmentSnapshot>> {
        let primary = self.cluster.placement.read().primary_of(shard)?;
        match self.request(primary, Request::ExportShard { shard })? {
            Response::Segments(s) => Ok(s),
            Response::Error(e) => Err(e),
            other => Err(VqError::Internal(format!(
                "unexpected response to export: {other:?}"
            ))),
        }
    }

    /// Snapshot the whole cluster to `dir` (one subdirectory per shard,
    /// in the `vq_collection::persist` format). Returns shards saved.
    pub fn save_to_dir(&mut self, dir: &std::path::Path) -> VqResult<usize> {
        let shard_count = self.cluster.placement.read().shard_count();
        let config = *self.cluster.collection_config();
        for shard in 0..shard_count {
            let segments = self.export_shard(shard)?;
            vq_collection::persist::save_snapshots_to_dir(
                &config,
                &segments,
                &dir.join(format!("shard-{shard}")),
            )?;
        }
        Ok(shard_count as usize)
    }

    /// Restore a cluster snapshot taken with [`Self::save_to_dir`] into
    /// this (same-shard-count) cluster: each shard's data is installed on
    /// its current primary, replacing whatever it held.
    pub fn load_from_dir(&mut self, dir: &std::path::Path) -> VqResult<usize> {
        let shard_count = self.cluster.placement.read().shard_count();
        let mut loaded = 0;
        for shard in 0..shard_count {
            let path = dir.join(format!("shard-{shard}"));
            if !path.exists() {
                return Err(VqError::InvalidRequest(format!(
                    "snapshot missing shard {shard} at {path:?}"
                )));
            }
            let (_, segments) = vq_collection::persist::load_snapshots_from_dir(&path)?;
            let owners = self.cluster.placement.read().owners_of(shard)?.to_vec();
            for owner in owners {
                match self.request(
                    owner,
                    Request::InstallShard {
                        shard,
                        segments: segments.clone(),
                    },
                )? {
                    Response::Ok => loaded += 1,
                    Response::Error(e) => return Err(e),
                    _ => {}
                }
            }
        }
        Ok(loaded)
    }

    /// Operational info for every worker (shards hosted, counters).
    pub fn worker_info(&mut self) -> VqResult<Vec<crate::messages::WorkerInfo>> {
        let mut out = Vec::new();
        for worker in self.worker_ids() {
            match self.request(worker, Request::WorkerInfo)? {
                Response::WorkerInfo(info) => out.push(info),
                Response::Error(e) => return Err(e),
                other => {
                    return Err(VqError::Internal(format!(
                        "unexpected response to worker info: {other:?}"
                    )))
                }
            }
        }
        Ok(out)
    }

    /// Drop a worker's copy of a shard (rebalancing step 3).
    pub fn drop_shard(&mut self, shard: ShardId, from: WorkerId) -> VqResult<()> {
        match self.request(from, Request::DropShard { shard })? {
            Response::Ok => Ok(()),
            Response::Error(e) => Err(e),
            other => Err(VqError::Internal(format!(
                "unexpected response to drop: {other:?}"
            ))),
        }
    }

    /// Copy one shard between workers (rebalancing step 1: the donor
    /// keeps serving until [`Self::drop_shard`]).
    pub fn transfer_shard(
        &mut self,
        shard: ShardId,
        from: WorkerId,
        to: WorkerId,
    ) -> VqResult<()> {
        match self.request(from, Request::TransferShard { shard, to })? {
            Response::Ok => Ok(()),
            Response::Error(e) => Err(e),
            other => Err(VqError::Internal(format!(
                "unexpected response to transfer: {other:?}"
            ))),
        }
    }

    fn worker_ids(&self) -> Vec<WorkerId> {
        self.cluster.placement.read().workers().to_vec()
    }
}

impl<T: Transport<ClusterMsg>> Drop for ClusterClient<T> {
    fn drop(&mut self) {
        self.cluster.transport.deregister(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vq_core::Distance;

    fn small_collection() -> CollectionConfig {
        CollectionConfig::new(4, Distance::Euclid).max_segment_points(64)
    }

    fn line_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as PointId, vec![i as f32, 0.0, 0.0, 0.0]))
            .collect()
    }

    #[test]
    fn quantized_fanout_search_matches_exact() {
        let config = small_collection()
            .quantization(vq_collection::QuantizationConfig::with_m(2).ks(16));
        let cluster = Cluster::start(ClusterConfig::new(3), config).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(300)).unwrap();
        let quantized = client.quantize().unwrap();
        assert!(quantized > 0, "sealed shard segments should quantize");
        let stats = client.stats().unwrap();
        assert_eq!(stats.quantized_segments, quantized);
        assert!(stats.quantized_resident_bytes < stats.quantized_full_bytes);
        // Params ride the wire: a deep rerank reproduces the exact result
        // on every shard before the coordinator gathers.
        let deep = client
            .search(SearchRequest::new(vec![42.3, 0.0, 0.0, 0.0], 3).rerank_depth(300))
            .unwrap();
        let exact = client
            .search(SearchRequest::new(vec![42.3, 0.0, 0.0, 0.0], 3).exact())
            .unwrap();
        let ids = |hits: &[ScoredPoint]| hits.iter().map(|h| h.id).collect::<Vec<_>>();
        assert_eq!(ids(&deep), vec![42, 43, 41]);
        assert_eq!(ids(&exact), vec![42, 43, 41]);
        cluster.shutdown();
    }

    #[test]
    fn pool_shape_never_changes_results() {
        // Pinned 2-thread pools with contention-aware placement against
        // the default fair-share pools: same shards, same queries,
        // bit-identical hits — with dispatch counters to show the pools
        // actually ran.
        // The recorder is process-global: leaving it installed would make
        // every later cluster in this test binary register its WorkerInfo
        // counters in the shared registry, so per-cluster traffic sums
        // (`worker_info_reflects_traffic`) would accumulate across tests.
        // The guard uninstalls on every exit path, including panics.
        let _obs = vq_obs::ObsGuard::install_default();
        let points = line_points(400);
        let shaped_exec = SearchExec {
            threads_per_worker: Some(2),
            pin_cores: true,
            contention_spread: true,
            ..SearchExec::default()
        };
        let shaped = Cluster::start(
            ClusterConfig::new(4).shards(4).exec(shaped_exec),
            small_collection(),
        )
        .unwrap();
        let default =
            Cluster::start(ClusterConfig::new(4).shards(4), small_collection()).unwrap();
        let mut sc = shaped.client();
        let mut dc = default.client();
        sc.upsert_batch(points.clone()).unwrap();
        dc.upsert_batch(points).unwrap();
        for probe in [0.3f32, 57.9, 199.2, 399.0] {
            let q = SearchRequest::new(vec![probe, 0.0, 0.0, 0.0], 7);
            let a = sc.search(q.clone()).unwrap();
            let b = dc.search(q).unwrap();
            assert_eq!(a.len(), 7, "probe {probe}");
            assert_eq!(a, b, "probe {probe}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "probe {probe}");
            }
        }
        // `pool.injected` is the caller-side dispatch counter and is
        // deterministic; `pool.tasks` and `pool.steals` only count work
        // pool threads won the race to run, and may be 0.
        let snap = vq_obs::snapshot().expect("recorder installed");
        assert!(snap.counter("pool.injected") > 0, "pool dispatch must be counted");
        shaped.shutdown();
        default.shutdown();
    }

    #[test]
    fn single_worker_roundtrip() {
        // One worker, one shard: routing passes the whole block through
        // (slab fast path), not a gather view.
        let cluster = Cluster::start(ClusterConfig::new(1), small_collection()).unwrap();
        let mut client = cluster.client();
        let block = Arc::new(PointBlock::from_points(&line_points(100)).unwrap());
        assert!(block.as_contiguous().is_some());
        client.upsert_block(&block).unwrap();
        let hits = client
            .search(SearchRequest::new(vec![42.3, 0.0, 0.0, 0.0], 3))
            .unwrap();
        let ids: Vec<PointId> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![42, 43, 41]);
        assert_eq!(client.stats().unwrap().live_points, 100);
        assert_eq!(
            client.get(17).unwrap().unwrap().vector,
            vec![17.0, 0.0, 0.0, 0.0]
        );
        cluster.shutdown();
    }

    #[test]
    fn block_upsert_matches_sequential_point_upserts() {
        // 120 rows over 4 shards of 8-point segments: every shard rolls
        // several times inside the one block. Ids 5 and 70 come again
        // later in the block (their first copies sealed by then), id 119
        // twice in a row.
        let mut points = line_points(120);
        for id in [5u64, 70, 119, 119] {
            points.push(Point::new(id, vec![id as f32, 1.0, 0.0, 0.0]));
        }
        let config = small_collection().max_segment_points(8);
        let block = Arc::new(PointBlock::from_points(&points).unwrap());

        let via_points = Cluster::start(ClusterConfig::new(4), config).unwrap();
        let mut pc = via_points.client();
        for p in points {
            pc.upsert_batch(vec![p]).unwrap();
        }

        let via_block = Cluster::start(ClusterConfig::new(4), config).unwrap();
        let mut bc = via_block.client();
        bc.upsert_block(&block).unwrap();

        let (ps, bs) = (pc.stats().unwrap(), bc.stats().unwrap());
        assert_eq!(bs.live_points, 120);
        assert_eq!(
            (ps.live_points, ps.total_offsets, ps.segments, ps.sealed_segments),
            (bs.live_points, bs.total_offsets, bs.segments, bs.sealed_segments)
        );
        assert!(bs.segments > 4 * 3, "shards must roll mid-block: {bs:?}");
        for id in [5u64, 70, 119] {
            assert_eq!(pc.get(id).unwrap(), bc.get(id).unwrap());
            assert_eq!(bc.get(id).unwrap().unwrap().vector[1], 1.0, "last write wins");
        }
        for probe in [0usize, 33, 77, 119] {
            let q = SearchRequest::new(vec![probe as f32, 0.0, 0.0, 0.0], 3);
            let a = pc.search(q.clone()).unwrap();
            let b = bc.search(q).unwrap();
            assert_eq!(a, b, "probe {probe}");
        }
        // Per-worker write accounting counts rows.
        let written: u64 = bc.worker_info().unwrap().iter().map(|i| i.points_written).sum();
        assert_eq!(written, 124);
        via_points.shutdown();
        via_block.shutdown();
    }

    #[test]
    fn multi_worker_search_covers_all_shards() {
        let cluster = Cluster::start(ClusterConfig::new(4), small_collection()).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(200)).unwrap();
        // Every point findable regardless of owning shard.
        for probe in [0usize, 57, 123, 199] {
            let hits = client
                .search(SearchRequest::new(vec![probe as f32, 0.0, 0.0, 0.0], 1))
                .unwrap();
            assert_eq!(hits[0].id, probe as PointId, "probe {probe}");
        }
        cluster.shutdown();
    }

    #[test]
    fn batch_search_matches_singles() {
        let cluster = Cluster::start(ClusterConfig::new(3), small_collection()).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(150)).unwrap();
        let queries: Vec<SearchRequest> = (0..10)
            .map(|i| SearchRequest::new(vec![i as f32 * 13.0, 0.0, 0.0, 0.0], 2))
            .collect();
        let batched = client.search_batch(queries.clone()).unwrap();
        for (q, want) in queries.into_iter().zip(&batched) {
            let single = client.search(q).unwrap();
            assert_eq!(
                single.iter().map(|h| h.id).collect::<Vec<_>>(),
                want.iter().map(|h| h.id).collect::<Vec<_>>()
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn get_and_delete_route_to_owner() {
        let cluster = Cluster::start(ClusterConfig::new(4), small_collection()).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(50)).unwrap();
        assert_eq!(
            client.get(17).unwrap().unwrap().vector,
            vec![17.0, 0.0, 0.0, 0.0]
        );
        client.delete(17).unwrap();
        assert_eq!(client.get(17).unwrap(), None);
        let hits = client
            .search(SearchRequest::new(vec![17.0, 0.0, 0.0, 0.0], 1))
            .unwrap();
        assert_ne!(hits[0].id, 17);
        cluster.shutdown();
    }

    #[test]
    fn deferred_build_indexes_cluster_wide() {
        let config = small_collection().indexing(vq_collection::IndexingPolicy::Deferred);
        let cluster = Cluster::start(ClusterConfig::new(2), config).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(300)).unwrap();
        let before = client.stats().unwrap();
        assert_eq!(before.indexed_segments, 0, "deferred: nothing indexed yet");
        let built = client.build_indexes().unwrap();
        assert!(built > 0);
        let after = client.stats().unwrap();
        assert_eq!(after.indexed_segments, after.sealed_segments);
        // Searches still exact on this small set.
        let hits = client
            .search(SearchRequest::new(vec![123.0, 0.0, 0.0, 0.0], 1))
            .unwrap();
        assert_eq!(hits[0].id, 123);
        cluster.shutdown();
    }

    #[test]
    fn replicated_cluster_dedupes_results() {
        let config = small_collection();
        let cluster =
            Cluster::start(ClusterConfig::new(3).replication(2), config).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(60)).unwrap();
        // Each point stored twice; stats see both copies...
        assert_eq!(client.stats().unwrap().live_points, 120);
        // ...but search returns each id once.
        let hits = client
            .search(SearchRequest::new(vec![30.0, 0.0, 0.0, 0.0], 5))
            .unwrap();
        let mut ids: Vec<PointId> = hits.iter().map(|h| h.id).collect();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate ids in {ids:?}");
        assert_eq!(hits[0].id, 30);
        // A delete reaches both replicas.
        client.delete(30).unwrap();
        assert_eq!(client.get(30).unwrap(), None);
        cluster.shutdown();
    }

    #[test]
    fn scale_out_moves_shards_and_keeps_data() {
        let cluster = Cluster::start(
            ClusterConfig::new(2).shards(8),
            small_collection(),
        )
        .unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(120)).unwrap();
        let moved = cluster.scale_out(2).unwrap();
        assert!(moved > 0, "growing 2→4 workers must move shards");
        assert_eq!(cluster.worker_count(), 4);
        // All data still reachable after rebalancing.
        assert_eq!(client.stats().unwrap().live_points, 120);
        for probe in [0usize, 61, 119] {
            let hits = client
                .search(SearchRequest::new(vec![probe as f32, 0.0, 0.0, 0.0], 1))
                .unwrap();
            assert_eq!(hits[0].id, probe as PointId);
        }
        cluster.shutdown();
    }

    #[test]
    fn count_and_scroll_cluster_wide() {
        let cluster = Cluster::start(ClusterConfig::new(3), small_collection()).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(50)).unwrap();
        client.delete(10).unwrap();
        assert_eq!(client.count(None).unwrap(), 49);

        // Full pagination covers every live id exactly once, in order.
        let mut seen = Vec::new();
        let mut cursor = None;
        loop {
            let page = client.scroll(cursor, 7, None).unwrap();
            if page.is_empty() {
                break;
            }
            cursor = Some(page.last().unwrap().id);
            seen.extend(page.iter().map(|p| p.id));
        }
        let expected: Vec<PointId> = (0..50).filter(|&i| i != 10).collect();
        assert_eq!(seen, expected);
        cluster.shutdown();
    }

    #[test]
    fn count_and_scroll_with_replication() {
        let cluster = Cluster::start(
            ClusterConfig::new(3).replication(2),
            small_collection(),
        )
        .unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(30)).unwrap();
        // Count resolves each shard on one owner: exact despite two
        // copies of every point. Scroll dedupes ids.
        assert_eq!(client.count(None).unwrap(), 30);
        let page = client.scroll(None, 100, None).unwrap();
        let ids: Vec<PointId> = page.iter().map(|p| p.id).collect();
        assert_eq!(ids, (0..30).collect::<Vec<_>>());
        cluster.shutdown();
    }

    #[test]
    fn cluster_snapshot_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vq-cluster-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cluster = Cluster::start(ClusterConfig::new(3), small_collection()).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(120)).unwrap();
        client.delete(60).unwrap();
        let saved = client.save_to_dir(&dir).unwrap();
        assert_eq!(saved, 3);
        cluster.shutdown();

        // A fresh, empty cluster with the same shard count restores it.
        let fresh = Cluster::start(ClusterConfig::new(3), small_collection()).unwrap();
        let mut client = fresh.client();
        assert_eq!(client.stats().unwrap().live_points, 0);
        client.load_from_dir(&dir).unwrap();
        assert_eq!(client.stats().unwrap().live_points, 119);
        assert_eq!(client.get(60).unwrap(), None);
        let hits = client
            .search(SearchRequest::new(vec![77.0, 0.0, 0.0, 0.0], 1))
            .unwrap();
        assert_eq!(hits[0].id, 77);
        fresh.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_info_reflects_traffic() {
        let cluster = Cluster::start(ClusterConfig::new(3), small_collection()).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(90)).unwrap();
        for i in 0..5 {
            client
                .search(SearchRequest::new(vec![i as f32, 0.0, 0.0, 0.0], 1))
                .unwrap();
        }
        let infos = client.worker_info().unwrap();
        assert_eq!(infos.len(), 3);
        let total_written: u64 = infos.iter().map(|i| i.points_written).sum();
        assert_eq!(total_written, 90);
        // Every search is coordinated by exactly one worker but served
        // locally by all three.
        let coords: u64 = infos.iter().map(|i| i.coordinations).sum();
        assert_eq!(coords, 5);
        let served: u64 = infos.iter().map(|i| i.queries_served).sum();
        assert_eq!(served, 15, "each query answered by all 3 workers");
        // Shard inventories are disjoint and complete.
        let mut all_shards: Vec<u32> = infos.iter().flat_map(|i| i.shards.clone()).collect();
        all_shards.sort_unstable();
        assert_eq!(all_shards, vec![0, 1, 2]);
        for info in &infos {
            assert!(info.node <= 1, "3 workers pack onto nodes 0..=0 at 4/node");
        }
        cluster.shutdown();
    }

    #[test]
    fn recommend_across_shards() {
        let cluster = Cluster::start(ClusterConfig::new(4), small_collection()).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(100)).unwrap();
        // Positives at 20 and 24 (likely on different shards) → best
        // non-example hit is 22.
        let req = vq_collection::RecommendRequest::new(vec![20, 24], 3);
        let hits = client.recommend(req).unwrap();
        assert_eq!(hits[0].id, 22, "{hits:?}");
        assert!(hits.iter().all(|h| h.id != 20 && h.id != 24));
        // Unknown example surfaces a clean error.
        let bad = vq_collection::RecommendRequest::new(vec![5000], 3);
        assert!(matches!(
            client.recommend(bad),
            Err(VqError::PointNotFound(5000))
        ));
        cluster.shutdown();
    }

    #[test]
    fn search_degrades_gracefully_when_a_worker_dies() {
        let cluster = Cluster::start(ClusterConfig::new(3), small_collection()).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(90)).unwrap();
        // Kill worker 2 without going through Cluster::shutdown.
        match client.request(2, Request::Shutdown).unwrap() {
            Response::Ok => {}
            other => panic!("unexpected {other:?}"),
        }
        // Searches still answer from the survivors; points on the dead
        // worker's shard are simply missing (stateful architecture: the
        // data went down with the worker).
        let placement = cluster.placement();
        let hits = client
            .search(SearchRequest::new(vec![45.0, 0.0, 0.0, 0.0], 90))
            .unwrap();
        assert!(!hits.is_empty());
        for h in &hits {
            let shard = placement.shard_of(h.id);
            assert_ne!(
                placement.primary_of(shard).unwrap(),
                2,
                "id {} lives on the dead worker and must not surface",
                h.id
            );
        }
        // Roughly a third of the data is gone.
        let frac = hits.len() as f64 / 90.0;
        assert!((0.4..0.95).contains(&frac), "{} of 90 survived", hits.len());
        // Round-robin will eventually pick the dead worker as first
        // contact; the client must fail over to a live one.
        for _ in 0..6 {
            let hits = client
                .search(SearchRequest::new(vec![3.0, 0.0, 0.0, 0.0], 1))
                .unwrap();
            assert!(!hits.is_empty());
        }
        cluster.shutdown();
    }

    #[test]
    fn replicated_cluster_survives_worker_death_with_full_results() {
        let cluster = Cluster::start(
            ClusterConfig::new(3).replication(2),
            small_collection(),
        )
        .unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(60)).unwrap();
        client.request(1, Request::Shutdown).unwrap();
        // Every point has a second replica: full coverage despite the
        // dead worker.
        let hits = client
            .search(SearchRequest::new(vec![30.0, 0.0, 0.0, 0.0], 60))
            .unwrap();
        let mut ids: Vec<PointId> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..60).collect::<Vec<_>>(), "replication covers the gap");
        cluster.shutdown();
    }

    #[test]
    fn count_and_scroll_survive_a_dead_replica() {
        let cluster = Cluster::start(
            ClusterConfig::new(3).replication(2),
            small_collection(),
        )
        .unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(30)).unwrap();
        cluster.kill_worker(1).unwrap();
        // Every shard still has one live owner: count stays exact and
        // scroll still covers every id (dedupe by point id, as search).
        assert_eq!(client.count(None).unwrap(), 30);
        let page = client.scroll(None, 100, None).unwrap();
        let ids: Vec<PointId> = page.iter().map(|p| p.id).collect();
        assert_eq!(ids, (0..30).collect::<Vec<_>>());
        assert!(cluster.failover_count() > 0, "replica served a shard");
        cluster.shutdown();
    }

    #[test]
    fn killed_worker_bounds_query_latency_to_the_deadline() {
        // Worker 2 is unreachable (every frame to it is dropped on the
        // wire), but the drop is silent: senders think the scatter
        // succeeded. The gather must give up at the configured deadline
        // and report the uncovered shard — not stall for the old fixed
        // 60 s / 120 s constants.
        let deadlines = Deadlines {
            request: Duration::from_secs(2),
            gather: Duration::from_millis(250),
            index_build: Duration::from_secs(10),
            retry_backoff: Duration::from_millis(5),
        };
        let plan = FaultPlan::new(7).drop_on(None, Some(2), 1.0);
        let cluster = Cluster::start(
            ClusterConfig::new(3).deadlines(deadlines).faults(plan),
            small_collection(),
        )
        .unwrap();
        let mut client = cluster.client();
        // Upsert only ids owned by live workers (writes to worker 2
        // would be silently dropped and time out).
        let placement = cluster.placement();
        let points: Vec<Point> = line_points(90)
            .into_iter()
            .filter(|p| placement.primary_of(placement.shard_of(p.id)).unwrap() != 2)
            .collect();
        client.upsert_batch(points).unwrap();
        let t0 = Instant::now();
        let outcome = client
            .search_batch_outcome(vec![SearchRequest::new(vec![4.0, 0.0, 0.0, 0.0], 5)])
            .unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(200),
            "gather must wait out its deadline, finished in {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(10),
            "query latency must be deadline-bounded, took {elapsed:?}"
        );
        assert_eq!(outcome.degraded, vec![2], "worker 2's shard is uncovered");
        assert!(!outcome.results[0].is_empty());
        cluster.shutdown();
    }

    #[test]
    fn search_retries_go_to_a_different_replica() {
        let cluster = Cluster::start(
            ClusterConfig::new(2).replication(2),
            small_collection(),
        )
        .unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(40)).unwrap();
        // Polite shutdown (not kill_worker): the cluster does not know
        // worker 0 is gone, so round-robin still offers it as first
        // contact and the retry path must route around it.
        client.request(0, Request::Shutdown).unwrap();
        for i in 0..6 {
            let outcome = client
                .search_batch_outcome(vec![SearchRequest::new(
                    vec![i as f32, 0.0, 0.0, 0.0],
                    40,
                )])
                .unwrap();
            // Replication 2: the survivor holds every shard.
            assert_eq!(outcome.results[0].len(), 40, "full coverage");
            assert!(outcome.degraded.is_empty());
        }
        let retries = cluster.search_retry_count();
        assert!(
            (1..=2).contains(&retries),
            "first pick of the dead worker retries on the replica, after \
             which it is marked dead and skipped (got {retries})"
        );
        assert_eq!(cluster.dead_workers(), vec![0]);
        cluster.shutdown();
    }

    #[test]
    fn restart_worker_recovers_acked_writes_from_the_wal() {
        let cluster = Cluster::start(
            ClusterConfig::new(2).durability(Durability::SharedMem),
            small_collection(),
        )
        .unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(80)).unwrap();
        client.delete(5).unwrap();
        cluster.kill_worker(1).unwrap();
        assert_eq!(cluster.worker_count(), 1);
        cluster.restart_worker(1).unwrap();
        assert_eq!(cluster.worker_count(), 2);
        assert_eq!(cluster.worker_restart_count(), 1);
        assert!(cluster.dead_workers().is_empty(), "restart clears the mark");
        // Everything acknowledged before the kill is back: the shard was
        // rebuilt from its durable WAL through the normal apply path.
        assert_eq!(client.count(None).unwrap(), 79);
        assert_eq!(client.get(5).unwrap(), None, "delete replayed in order");
        let outcome = client
            .search_batch_outcome(vec![SearchRequest::new(vec![41.0, 0.0, 0.0, 0.0], 80)])
            .unwrap();
        assert!(outcome.degraded.is_empty());
        let mut ids: Vec<PointId> = outcome.results[0].iter().map(|h| h.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..80).filter(|&i| i != 5).collect::<Vec<_>>());
        cluster.shutdown();
    }

    #[test]
    fn restart_catches_up_from_a_live_replica() {
        // The replacement's own WAL ends at the kill: writes acked by the
        // surviving replica during the outage must reach the restarted
        // worker too, or count/get (which prefer the primary) see a stale
        // shard. Volatile durability on purpose — catch-up alone must
        // rebuild the copy from the donor.
        let cluster = Cluster::start(
            ClusterConfig::new(2).replication(2),
            small_collection(),
        )
        .unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(40)).unwrap();
        cluster.kill_worker(1).unwrap();
        // Acked by worker 0 alone while 1 is down.
        client
            .upsert_batch(
                (40..80)
                    .map(|i| Point::new(i as PointId, vec![i as f32, 0.0, 0.0, 0.0]))
                    .collect(),
            )
            .unwrap();
        cluster.restart_worker(1).unwrap();
        assert_eq!(client.count(None).unwrap(), 80, "no stale primary copy");
        for probe in [0u64, 39, 40, 79] {
            assert!(
                client.get(probe).unwrap().is_some(),
                "acked point {probe} findable after catch-up"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn restart_without_durability_comes_back_empty() {
        let cluster = Cluster::start(ClusterConfig::new(2), small_collection()).unwrap();
        let mut client = cluster.client();
        client.upsert_batch(line_points(40)).unwrap();
        let placement = cluster.placement();
        let survivors = (0..40)
            .filter(|&i| placement.primary_of(placement.shard_of(i)).unwrap() == 0)
            .count();
        cluster.kill_worker(1).unwrap();
        cluster.restart_worker(1).unwrap();
        // Volatile shards die with the worker (the paper's stateful
        // default); the replacement serves its shard empty.
        assert_eq!(client.count(None).unwrap(), survivors);
        assert!(matches!(
            cluster.restart_worker(99),
            Err(VqError::NodeNotFound(99))
        ));
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clients_do_not_deadlock() {
        let cluster = Cluster::start(ClusterConfig::new(4), small_collection()).unwrap();
        let mut seed_client = cluster.client();
        seed_client.upsert_batch(line_points(200)).unwrap();
        // Many clients search simultaneously: every search coordinates a
        // broadcast across all 4 workers.
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cluster = cluster.clone();
                std::thread::spawn(move || {
                    let mut client = cluster.client();
                    for i in 0..20 {
                        let x = ((t * 20 + i) % 200) as f32;
                        let hits = client
                            .search(SearchRequest::new(vec![x, 0.0, 0.0, 0.0], 1))
                            .unwrap();
                        assert_eq!(hits[0].id, x as PointId);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        cluster.shutdown();
    }
}
