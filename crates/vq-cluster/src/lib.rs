//! # vq-cluster
//!
//! The distributed half of `vq`: a stateful, sharded cluster in the mold
//! of Qdrant's (paper §2.1, "approach 1" in Figure 1 — each worker owns
//! and serves a portion of the dataset):
//!
//! * [`placement`] — the shard map: shards assigned to workers
//!   round-robin with optional replication; points hash to shards.
//! * [`messages`] — the worker RPC protocol (upsert, delete, local and
//!   fan-out search, index builds, shard transfer, stats).
//! * [`recovery`] — durable per-shard WALs and snapshot checkpoints
//!   owned by the cluster, so a killed worker can be restarted and
//!   recover its shards (snapshot restore + WAL replay).
//! * [`worker`] — a worker node: one OS thread serving its shards'
//!   requests over the [`vq_net`] transport, spawning a coordinator
//!   thread per fan-out search so scatter–gather never deadlocks the
//!   serve loop.
//! * [`detector`] — heartbeat failure detection: a phi-accrual suspicion
//!   model over per-worker beacon arrival histories, plus the
//!   [`HealConfig`] knobs for the cluster's self-healing machinery
//!   (monitor + stabilizer threads in [`cluster`]).
//! * [`cluster`] — cluster bring-up/teardown and [`ClusterClient`], the
//!   handle applications use: routed upserts, broadcast–reduce searches
//!   (client contacts *one* worker; that worker broadcasts to the rest
//!   and merges partial results — exactly the execution model §3.4
//!   describes), deferred index builds, live rebalancing.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cluster;
pub mod detector;
pub mod messages;
pub mod placement;
pub mod recovery;
pub mod worker;

pub use cluster::{
    Cluster, ClusterClient, ClusterConfig, Deadlines, SearchExec, SearchOutcome,
};
pub use detector::{FailureDetector, HealConfig, WorkerHealth};
pub use messages::{ClusterMsg, Request, Response, TraceContext, WorkerInfo};
pub use placement::{Placement, ShardId, WorkerId};
pub use recovery::{Durability, WalStore};
pub use worker::Worker;
