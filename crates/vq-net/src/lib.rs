//! # vq-net
//!
//! The interconnect layer, in two halves:
//!
//! * [`cost`] — an analytic network **cost model**: per-hop latency,
//!   per-link bandwidth, and topology-dependent hop counts (flat crossbar
//!   or a Dragonfly like Polaris's Slingshot 11). The discrete-event
//!   simulation asks this model "how long does moving N bytes from node A
//!   to node B take?" — it never moves real bytes.
//! * [`transport`] — a real in-process **message transport** built on
//!   crossbeam channels, used when the distributed engine actually runs
//!   (worker threads exchanging real requests). The transport can
//!   optionally impose the cost model's delays on delivery so live runs
//!   exhibit HPC-like latency ratios.
//! * [`fault`] — a seeded, deterministic **fault plan** the transport can
//!   evaluate on every send: per-edge drop / delay / duplicate plus
//!   kill-after-N-messages crashes, so chaos soaks are reproducible.
//! * [`wire`] — the **binary codec**: a compact serde Serializer /
//!   Deserializer plus CRC-checked length-prefixed framing, shared by
//!   every component that moves real bytes.
//! * [`tcp`] — a **socket transport** implementing the same
//!   [`Transport`] contract as the in-proc switchboard over real
//!   `TcpStream`s, with per-peer writer threads and
//!   reconnect-on-broken-pipe.
//!
//! The cluster compiles against the [`Transport`] / [`TransportEndpoint`]
//! traits, so the in-proc and TCP fabrics are interchangeable; the fault
//! injector and cost model apply uniformly to both. Keeping cost and
//! transport separate means the same model constants drive both the
//! simulator and the live engine.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cost;
pub mod fault;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use cost::{LinkModel, NetworkModel, Topology};
pub use fault::{FaultAction, FaultPlan, FaultRule};
pub use tcp::{TcpEndpoint, TcpTransport};
pub use transport::{
    Endpoint, Envelope, Switchboard, Transport, TransportEndpoint, TransportStats,
};
pub use wire::WIRE_VERSION;
