//! Worker RPC protocol.
//!
//! Messages travel between endpoints through the in-process transport.
//! Every [`Request`] carries the endpoint to answer (`reply_to`) and an
//! opaque correlation tag chosen by the requester, echoed in the
//! [`Response`] — coordinators use it to match scattered partials.

use crate::placement::ShardId;
use std::sync::Arc;
use vq_collection::{CollectionStats, SearchRequest};
use vq_core::{Point, PointBlock, PointId, ScoredPoint, VqError};
use vq_storage::SegmentSnapshot;

/// A search carried over the wire (SearchRequest minus the non-Send parts
/// — which there are none of; alias kept for protocol clarity).
pub type WireSearch = SearchRequest;

/// Trace context as it travels in the request envelope: the requester's
/// trace id, its open span (the remote side parents onto it), and the
/// head-sampling verdict. This is the serde-visible mirror of
/// [`vq_obs::TraceContext`] — vq-obs stays dependency-free, so the wire
/// shape lives here, next to the envelope that carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TraceContext {
    /// Trace (request) identity.
    pub trace_id: u64,
    /// The sender's open span — the receiver's spans become its children.
    pub span_id: u64,
    /// Head-sampling verdict made at the root.
    pub sampled: bool,
}

impl TraceContext {
    /// Capture the calling thread's current trace context for the wire,
    /// if tracing is active.
    pub fn current() -> Option<Self> {
        vq_obs::trace_current().map(Self::from)
    }

    /// Reconstruct the in-process context on the receiving side.
    pub fn to_obs(self) -> vq_obs::TraceContext {
        vq_obs::TraceContext::remote(self.trace_id, self.span_id, self.sampled)
    }
}

impl From<vq_obs::TraceContext> for TraceContext {
    fn from(ctx: vq_obs::TraceContext) -> Self {
        TraceContext {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            sampled: ctx.sampled,
        }
    }
}

/// Request bodies.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Request {
    /// Insert/replace a columnar block into one shard this worker owns.
    ///
    /// The block travels behind an `Arc`: shard routing on the client
    /// carves per-shard views out of one converted batch and every
    /// replica send bumps a refcount — no vector data is deep-copied
    /// anywhere between client conversion and the worker's arena.
    UpsertBlock {
        /// Target shard.
        shard: ShardId,
        /// Columnar rows to write (a view of the client's batch block).
        block: Arc<PointBlock>,
    },
    /// Delete a point from a shard.
    Delete {
        /// Target shard.
        shard: ShardId,
        /// Point to delete.
        id: PointId,
    },
    /// Fetch a point from a shard.
    Get {
        /// Target shard.
        shard: ShardId,
        /// Point to fetch.
        id: PointId,
    },
    /// Client-facing batch search: the receiving worker coordinates the
    /// broadcast–reduce across all workers and replies with merged
    /// results per query. Queries travel behind an `Arc`: client
    /// retries and the coordinator's per-peer scatter bump a refcount
    /// instead of deep-copying every query vector.
    SearchBatch {
        /// Queries to answer.
        queries: Arc<[WireSearch]>,
    },
    /// Coordinator-internal: search only the shards local to this worker
    /// and return per-query partials.
    LocalSearchBatch {
        /// Queries to answer locally.
        queries: Arc<[WireSearch]>,
    },
    /// Count live points, optionally filtered. With `shard: Some(_)` only
    /// that shard is counted (the client routes one count per shard to a
    /// live owner so replicas are never double-counted); `None` sums every
    /// local shard.
    Count {
        /// Restrict the count to one shard.
        shard: Option<ShardId>,
        /// Conjunctive payload filter.
        filter: Option<vq_core::Filter>,
    },
    /// Id-ordered page of live points across local shards.
    Scroll {
        /// Exclusive lower bound on ids (cursor).
        after: Option<PointId>,
        /// Page size.
        limit: usize,
        /// Conjunctive payload filter.
        filter: Option<vq_core::Filter>,
    },
    /// Seal active segments of all local shards (bulk-upload boundary).
    SealAll,
    /// Build every missing index on local shards (the explicit rebuild of
    /// §3.3). Replies with the number of indexes built.
    BuildIndexes,
    /// Convert every eligible sealed local segment to quantized-resident
    /// form (PQ codes in RAM, full-precision vectors in the demand-paged
    /// tier). Replies with the number of segments quantized. Subsequent
    /// searches run coarse-scan + exact-rerank per shard, honoring the
    /// `params` carried by each [`WireSearch`].
    Quantize,
    /// Collection stats aggregated over local shards.
    Stats,
    /// Per-worker operational info (shards hosted, request counters).
    WorkerInfo,
    /// Copy one shard's data to another worker (rebalancing step 1).
    /// The donor *keeps serving* its copy until a later
    /// [`Request::DropShard`]; broadcast–reduce deduplication makes the
    /// dual-ownership window safe for reads.
    TransferShard {
        /// Shard to copy.
        shard: ShardId,
        /// Receiving worker.
        to: u32,
    },
    /// Drop a local shard copy (rebalancing step 3, after the new
    /// placement is visible).
    DropShard {
        /// Shard to drop.
        shard: ShardId,
    },
    /// Export a shard's segment snapshots to the requester (cluster
    /// snapshots; unlike `TransferShard` the data goes to the client).
    ExportShard {
        /// Shard to export.
        shard: ShardId,
    },
    /// Install a shard received from a donor.
    InstallShard {
        /// Shard being installed.
        shard: ShardId,
        /// Segment snapshots composing the shard.
        segments: Vec<SegmentSnapshot>,
    },
    /// Liveness probe.
    Ping,
    /// Stop serving after replying.
    Shutdown,
}

/// Response bodies.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Point fetched (or absent).
    Point(Option<Point>),
    /// Merged results, one list per query (SearchBatch).
    Results {
        /// One merged, deduplicated list per query.
        results: Vec<Vec<ScoredPoint>>,
        /// Shards no live owner answered for during the gather: the
        /// results may be missing those shards' points. Empty means full
        /// coverage.
        degraded: Vec<ShardId>,
    },
    /// Per-query partials from one worker (LocalSearchBatch).
    Partials(Vec<Vec<ScoredPoint>>),
    /// Indexes built.
    Built(usize),
    /// Aggregated local stats.
    Stats(CollectionStats),
    /// Per-worker operational info.
    WorkerInfo(WorkerInfo),
    /// Exported shard segments.
    Segments(Vec<SegmentSnapshot>),
    /// Count result.
    Count(usize),
    /// A scroll page (id-ordered).
    Points(Vec<Point>),
    /// The request failed.
    Error(VqError),
}

/// Operational snapshot of one worker.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkerInfo {
    /// Worker id.
    pub worker: u32,
    /// Node hosting the worker.
    pub node: u32,
    /// Shards currently hosted.
    pub shards: Vec<ShardId>,
    /// Upsert batches served.
    pub upsert_batches: u64,
    /// Points written.
    pub points_written: u64,
    /// Local search batches served (including coordinator-issued).
    pub search_batches: u64,
    /// Queries answered locally.
    pub queries_served: u64,
    /// Fan-out searches this worker coordinated.
    pub coordinations: u64,
    /// `SearchBatch` arrivals that found the coordinator pool's queue
    /// full and fell back to a one-off thread.
    pub coordinator_saturations: u64,
    /// Cumulative wall time spent inside the upsert write path, ns.
    pub upsert_nanos: u64,
    /// Cumulative wall time spent searching local shards, ns (both
    /// client-issued and coordinator-issued local searches).
    pub search_nanos: u64,
    /// Cumulative wall time spent coordinating broadcast–reduce fan-outs
    /// (scatter + own search + gather + merge), ns. Compared against
    /// `search_nanos` this separates "doing the search" from "waiting on
    /// peers" — the per-phase split the §3.4 saturation analysis needs.
    pub coordination_nanos: u64,
}

/// What actually moves through the transport.
///
/// Over the in-proc transport these move by value; over TCP they encode
/// through [`vq_net::wire`] (every variant derives the serde traits, with
/// `PointBlock` contributing its custom columnar-slab codec).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ClusterMsg {
    /// A request, with reply routing info.
    Request {
        /// Endpoint to send the [`ClusterMsg::Response`] to.
        reply_to: u32,
        /// Correlation tag echoed in the response.
        tag: u64,
        /// Distributed-trace context, when the requester is tracing
        /// (absent means untraced).
        #[serde(default)]
        trace: Option<TraceContext>,
        /// Body.
        body: Request,
    },
    /// A response to an earlier request.
    Response {
        /// Correlation tag from the request.
        tag: u64,
        /// Body.
        body: Response,
    },
    /// Periodic liveness beacon a worker emits to the cluster's monitor
    /// endpoint, which only exists on clusters that enabled healing.
    Heartbeat {
        /// Emitting worker.
        worker: u32,
        /// Monotonic per-worker beacon counter (gap diagnostics).
        seq: u64,
    },
}

impl ClusterMsg {
    /// Approximate wire size in bytes, used for modeled-latency transports.
    ///
    /// Pinned against the real [`vq_net::wire`] encoding by a regression
    /// test (`tests/wire_roundtrip.rs`): for every vector-bearing message
    /// the estimate must stay within ±25 % of the actual encoded frame —
    /// the cost model and `fabric_bytes` accounting both consume this
    /// number. The constants mirror the codec's per-value overheads:
    /// ~40 B per row-oriented point (struct keys + tags), ~16 B per
    /// columnar block row (id + payload framing only; the slab is raw),
    /// ~112 B per search request (its knob fields), ~40 B per scored hit.
    pub fn approx_wire_bytes(&self) -> u64 {
        fn points_bytes(points: &[Point]) -> u64 {
            points
                .iter()
                .map(|p| 40 + 4 * p.vector.len() as u64 + p.payload.approx_bytes() as u64)
                .sum()
        }
        fn results_bytes(lists: &[Vec<ScoredPoint>]) -> u64 {
            lists
                .iter()
                .flat_map(|l| l.iter())
                .map(|h| 40 + h.payload.as_ref().map_or(0, |p| p.approx_bytes() as u64))
                .sum()
        }
        fn segments_bytes(segments: &[SegmentSnapshot]) -> u64 {
            segments
                .iter()
                .map(|s| 64 + 4 * s.vectors.len() as u64 + 32 * s.ids.len() as u64)
                .sum()
        }
        match self {
            ClusterMsg::Request { body, trace, .. } => {
                // The envelope's trace field: ~70 B encoded when present
                // (three named scalar fields), ~11 B for the absent marker.
                let trace_bytes: u64 = if trace.is_some() { 70 } else { 11 };
                trace_bytes
                    + match body {
                        Request::UpsertBlock { block, .. } => {
                            64 + block.approx_bytes() as u64 + 8 * block.len() as u64
                        }
                        Request::SearchBatch { queries }
                        | Request::LocalSearchBatch { queries } => {
                            64 + queries
                                .iter()
                                .map(|q| 4 * q.vector.len() as u64 + 112)
                                .sum::<u64>()
                        }
                        Request::InstallShard { segments, .. } => 64 + segments_bytes(segments),
                        _ => 64,
                    }
            }
            ClusterMsg::Response { body, .. } => match body {
                Response::Results { results: r, .. } | Response::Partials(r) => {
                    64 + results_bytes(r)
                }
                Response::Point(Some(p)) => {
                    64 + 40 + 4 * p.vector.len() as u64 + p.payload.approx_bytes() as u64
                }
                Response::Points(points) => 64 + points_bytes(points),
                Response::Segments(segments) => 64 + segments_bytes(segments),
                _ => 64,
            },
            // Variant name + two named integer fields.
            ClusterMsg::Heartbeat { .. } => 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_scales_with_payload() {
        let small = ClusterMsg::Request {
            reply_to: 0,
            tag: 0,
            trace: None,
            body: Request::Ping,
        };
        let big = ClusterMsg::Request {
            reply_to: 0,
            tag: 0,
            trace: None,
            body: Request::UpsertBlock {
                shard: 0,
                block: Arc::new(
                    PointBlock::from_points(&vec![Point::new(1, vec![0.0; 2560]); 8]).unwrap(),
                ),
            },
        };
        assert!(big.approx_wire_bytes() > 8 * 4 * 2560);
        assert!(small.approx_wire_bytes() < 100);
    }

    #[test]
    fn search_wire_size_counts_queries() {
        let one = ClusterMsg::Request {
            reply_to: 0,
            tag: 0,
            trace: None,
            body: Request::SearchBatch {
                queries: vec![SearchRequest::new(vec![0.0; 128], 10)].into(),
            },
        };
        let four = ClusterMsg::Request {
            reply_to: 0,
            tag: 0,
            trace: None,
            body: Request::SearchBatch {
                queries: vec![SearchRequest::new(vec![0.0; 128], 10); 4].into(),
            },
        };
        assert!(four.approx_wire_bytes() > 3 * one.approx_wire_bytes());
    }

    #[test]
    fn heartbeat_wire_size_is_tiny() {
        let beat = ClusterMsg::Heartbeat {
            worker: 7,
            seq: u64::MAX,
        };
        // The detector rides on frequent beacons; the estimate (and the
        // real encoding, pinned by tests/wire_roundtrip.rs) must stay far
        // below even the smallest request envelope.
        assert!(beat.approx_wire_bytes() <= 64);
    }
}
