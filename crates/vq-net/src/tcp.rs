//! Real-socket transport: the same [`Transport`] contract as the
//! in-process [`Switchboard`](crate::transport::Switchboard), but every
//! message crosses a `std::net::TcpStream` as a CRC-framed
//! [`wire`](crate::wire) payload.
//!
//! Topology: each registered endpoint binds its own loopback listener; an
//! in-process registry maps endpoint id → socket address (the analog of a
//! cluster membership service — frames are real network bytes, discovery
//! is not yet distributed). Senders keep one writer thread per peer, so a
//! slow or dead peer never blocks sends to healthy ones, and writes to a
//! given peer stay FIFO. A broken pipe triggers exactly one reconnect
//! attempt against the *current* registered address, which is how a
//! restarted worker (same id, new listener) is picked up transparently.
//!
//! Fault injection ([`FaultPlan`]) and the latency/bandwidth
//! [`NetworkModel`] are applied on the send path before any bytes move,
//! by the same rules as the in-proc transport — the chaos soak runs
//! against both and must not be able to tell them apart.

use crate::cost::NetworkModel;
use crate::fault::{FaultPlan, FaultState};
use crate::transport::{Envelope, Transport, TransportEndpoint, TransportStats};
use crate::wire;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;
use vq_core::{VqError, VqResult};

/// How long a fatal (`KillAfter`) delivery waits for its flush
/// acknowledgement before crashing the destination anyway.
const FLUSH_ACK_TIMEOUT: Duration = Duration::from_secs(1);

/// How often an idle writer checks that its peer is still registered.
/// Coordinated searches register and drop an ephemeral gather endpoint
/// each; a writer toward one must not outlive it by more than this.
const WRITER_IDLE_CHECK: Duration = Duration::from_millis(100);

/// Message bounds for moving `M` over a socket.
pub trait WireMsg: Clone + Send + Serialize + DeserializeOwned + 'static {}
impl<M: Clone + Send + Serialize + DeserializeOwned + 'static> WireMsg for M {}

/// Controls the accept loop and reader threads of one listener.
struct ListenerCtl {
    addr: SocketAddr,
    closing: AtomicBool,
    /// A clone of every accepted stream whose reader is still running,
    /// by connection number, kept so teardown can shut readers down
    /// mid-`read` (dropping a `TcpStream` elsewhere does not wake a
    /// blocked reader). A reader removes its entry when it exits.
    accepted: Mutex<HashMap<u64, TcpStream>>,
}

impl ListenerCtl {
    /// Stop the accept loop and sever every accepted connection.
    fn close(&self) {
        self.closing.store(true, Relaxed);
        for (_, stream) in self.accepted.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Wake the acceptor so it observes `closing`.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Live endpoint bookkeeping in the registry.
struct Registration {
    addr: SocketAddr,
    ctl: Arc<ListenerCtl>,
}

struct Shared {
    registry: RwLock<HashMap<u32, Registration>>,
    /// Node id of each endpoint (for the cost model; survives crashes,
    /// like the switchboard's placement map).
    placement: RwLock<HashMap<u32, u32>>,
    model: Option<NetworkModel>,
    faults: RwLock<Option<Arc<FaultState>>>,
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    fabric_bytes: AtomicU64,
}

/// TCP-backed [`Transport`]. Clone freely; clones share the registry.
pub struct TcpTransport {
    shared: Arc<Shared>,
}

impl Clone for TcpTransport {
    fn clone(&self) -> Self {
        TcpTransport {
            shared: self.shared.clone(),
        }
    }
}

impl TcpTransport {
    /// Transport with no artificial delays.
    pub fn new() -> Self {
        Self::with_options(None)
    }

    /// Transport that additionally sleeps the modeled transfer time per
    /// send (on top of whatever the real loopback stack costs).
    pub fn with_model(model: NetworkModel) -> Self {
        Self::with_options(Some(model))
    }

    fn with_options(model: Option<NetworkModel>) -> Self {
        TcpTransport {
            shared: Arc::new(Shared {
                registry: RwLock::new(HashMap::new()),
                placement: RwLock::new(HashMap::new()),
                model,
                faults: RwLock::new(None),
                messages_sent: AtomicU64::new(0),
                bytes_sent: AtomicU64::new(0),
                fabric_bytes: AtomicU64::new(0),
            }),
        }
    }

    /// Register endpoint `id` on `node`: binds a fresh loopback listener
    /// and starts accepting frames into the returned endpoint's inbox.
    pub fn register<M: WireMsg>(&self, id: u32, node: u32) -> TcpEndpoint<M> {
        // A replacement endpoint (worker restart) tears the old listener
        // down first so stray frames cannot land in a stale inbox.
        if let Some(old) = self.shared.registry.write().remove(&id) {
            old.ctl.close();
        }
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener addr");
        let ctl = Arc::new(ListenerCtl {
            addr,
            closing: AtomicBool::new(false),
            accepted: Mutex::new(HashMap::new()),
        });
        let (tx, rx) = unbounded::<Envelope<M>>();
        {
            let ctl = ctl.clone();
            std::thread::Builder::new()
                .name(format!("vq-tcp-accept-{id}"))
                .spawn(move || accept_loop(listener, ctl, tx))
                .expect("spawn acceptor");
        }
        self.shared
            .registry
            .write()
            .insert(id, Registration { addr, ctl });
        self.shared.placement.write().insert(id, node);
        if let Some(faults) = self.shared.faults.read().as_ref() {
            faults.revive(id);
        }
        TcpEndpoint {
            id,
            rx,
            shared: self.shared.clone(),
            links: Mutex::new(HashMap::new()),
        }
    }

    /// Remove an endpoint; future sends to it fail.
    pub fn deregister(&self, id: u32) {
        if let Some(reg) = self.shared.registry.write().remove(&id) {
            reg.ctl.close();
        }
        self.shared.placement.write().remove(&id);
    }

    /// Crash endpoint `id`: listener and connections are severed without
    /// a handshake. Messages already in its inbox drain; then `recv`
    /// reports the transport gone, and senders fail like against a dead
    /// host. Placement survives for cost modeling, as in-proc.
    pub fn crash(&self, id: u32) {
        if let Some(reg) = self.shared.registry.write().remove(&id) {
            reg.ctl.close();
        }
    }

    /// Install (or replace) a fault plan; subsequent sends evaluate it.
    pub fn install_faults(&self, plan: FaultPlan) {
        *self.shared.faults.write() = Some(Arc::new(FaultState::new(plan)));
    }

    /// Remove the fault plan; the network runs clean again.
    pub fn clear_faults(&self) {
        *self.shared.faults.write() = None;
    }

    /// Endpoints currently dead from a `KillAfter` fault, ascending.
    pub fn fault_killed(&self) -> Vec<u32> {
        self.shared
            .faults
            .read()
            .as_ref()
            .map(|f| f.killed())
            .unwrap_or_default()
    }

    /// Aggregate traffic counters since creation. `bytes` counts the
    /// caller-declared payload sizes (same convention as in-proc, so the
    /// two transports' dashboards are comparable), not frame overhead.
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            messages: self.shared.messages_sent.load(Relaxed),
            bytes: self.shared.bytes_sent.load(Relaxed),
            fabric_bytes: self.shared.fabric_bytes.load(Relaxed),
        }
    }

    /// Ids of all registered endpoints, ascending.
    pub fn endpoints(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.shared.registry.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

/// Accept connections for one endpoint and pump their frames inbox-ward.
fn accept_loop<M: WireMsg>(listener: TcpListener, ctl: Arc<ListenerCtl>, tx: Sender<Envelope<M>>) {
    for conn in 0u64.. {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if ctl.closing.load(Relaxed) {
                    return;
                }
                continue;
            }
        };
        if ctl.closing.load(Relaxed) {
            return;
        }
        if let Ok(clone) = stream.try_clone() {
            ctl.accepted.lock().insert(conn, clone);
        }
        let tx = tx.clone();
        let ctl = ctl.clone();
        std::thread::Builder::new()
            .name("vq-tcp-read".into())
            .spawn(move || {
                read_loop(stream, &ctl, tx);
                ctl.accepted.lock().remove(&conn);
            })
            .expect("spawn reader");
    }
}

/// Decode frames off one connection until EOF, error, or teardown.
fn read_loop<M: WireMsg>(mut stream: TcpStream, ctl: &ListenerCtl, tx: Sender<Envelope<M>>) {
    loop {
        match wire::read_frame(&mut stream) {
            Ok(Some(payload)) => match wire::from_bytes::<(u32, u32, M)>(&payload) {
                Ok((from, to, msg)) => {
                    if tx
                        .send(Envelope {
                            from,
                            to,
                            payload: msg,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                Err(_) => {
                    // Framing held but the payload is not one of ours:
                    // protocol confusion. Drop the connection.
                    vq_obs::count("net.frame_rejects", 1);
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            },
            Ok(None) => return, // clean EOF
            Err(_) => {
                // Torn frame, bad magic, CRC mismatch, version skew — or
                // our own teardown severing the socket mid-read. Only the
                // former are protocol rejects.
                if !ctl.closing.load(Relaxed) {
                    vq_obs::count("net.frame_rejects", 1);
                }
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

/// One frame handed to a peer's writer thread.
struct WriteJob {
    frame: Vec<u8>,
    /// For fatal (`KillAfter`) deliveries: the sender blocks on this until
    /// the frame has hit the socket, so the kill cannot outrun the
    /// message it rides on.
    ack: Option<Sender<bool>>,
}

/// Per-peer writer handle.
struct PeerLink {
    tx: Sender<WriteJob>,
    dead: Arc<AtomicBool>,
}

/// Writer thread: owns the connection to one peer, connecting lazily and
/// reconnecting once per job on a broken pipe. Exits (marking the link
/// dead, so the next send replaces it) when a write fails or when it
/// finds itself idle with the peer no longer registered.
fn write_loop(shared: Arc<Shared>, peer: u32, jobs: Receiver<WriteJob>, dead: Arc<AtomicBool>) {
    use crossbeam::channel::RecvTimeoutError;
    let mut stream: Option<(SocketAddr, TcpStream)> = None;
    loop {
        let job = match jobs.recv_timeout(WRITER_IDLE_CHECK) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) if shared.registry.read().contains_key(&peer) => {
                continue;
            }
            Err(RecvTimeoutError::Timeout) => {
                dead.store(true, Relaxed);
                return;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let mut ok = false;
        for _attempt in 0..2 {
            let addr = shared.registry.read().get(&peer).map(|r| r.addr);
            let Some(addr) = addr else {
                // No route; re-resolving within this job won't help.
                break;
            };
            // A changed address means the peer restarted with a fresh
            // listener: writing into the stale socket could silently
            // buffer into a dead connection, so reconnect eagerly.
            if stream.as_ref().is_some_and(|(a, _)| *a != addr) {
                stream = None;
            }
            if stream.is_none() {
                stream = TcpStream::connect(addr).ok().map(|s| (addr, s));
            }
            if let Some((_, s)) = stream.as_mut() {
                if wire::write_frame(s, &job.frame).is_ok() {
                    ok = true;
                    break;
                }
                // Broken pipe: drop the connection and retry once against
                // the currently-registered address.
                stream = None;
            }
        }
        if let Some(ack) = job.ack {
            let _ = ack.send(ok);
        }
        if !ok {
            dead.store(true, Relaxed);
            return;
        }
    }
}

/// Endpoint of a [`TcpTransport`]: sends encode through the wire codec
/// into per-peer writer threads; receives drain the frames the acceptor's
/// readers decoded.
pub struct TcpEndpoint<M> {
    id: u32,
    rx: Receiver<Envelope<M>>,
    shared: Arc<Shared>,
    links: Mutex<HashMap<u32, PeerLink>>,
}

impl<M: WireMsg> TcpEndpoint<M> {
    /// This endpoint's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Enqueue one encoded frame for `to`, standing up or replacing the
    /// writer thread as needed. Returns the flush-ack receiver if one was
    /// requested.
    fn enqueue(&self, to: u32, frame: Vec<u8>, want_ack: bool) -> VqResult<Option<Receiver<bool>>> {
        let mut links = self.links.lock();
        // Links whose writer gave up (failed write, peer deregistered) are
        // dropped here, whichever peer they were for.
        links.retain(|_, l| !l.dead.load(Relaxed));
        let link = links.entry(to).or_insert_with(|| {
            let (tx, rx) = unbounded();
            let dead = Arc::new(AtomicBool::new(false));
            let shared = self.shared.clone();
            let flag = dead.clone();
            std::thread::Builder::new()
                .name(format!("vq-tcp-write-{}-{to}", self.id))
                .spawn(move || write_loop(shared, to, rx, flag))
                .expect("spawn writer");
            PeerLink { tx, dead }
        });
        let (ack_tx, ack_rx) = if want_ack {
            let (tx, rx) = crossbeam::channel::bounded(1);
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        link.tx
            .send(WriteJob {
                frame,
                ack: ack_tx,
            })
            .map_err(|_| VqError::Network(format!("endpoint {to} unreachable")))?;
        Ok(ack_rx)
    }

    /// Send `payload` to endpoint `to` (zero-sized for the cost model).
    pub fn send(&self, to: u32, payload: M) -> VqResult<()> {
        self.send_sized(to, payload, 0)
    }

    /// Send `payload`, declaring its wire size for the cost model. Fault
    /// and model semantics match the in-proc transport exactly; see
    /// [`Endpoint::send_sized`](crate::transport::Endpoint::send_sized).
    pub fn send_sized(&self, to: u32, payload: M, bytes: u64) -> VqResult<()> {
        let (src, dst) = {
            let placement = self.shared.placement.read();
            (
                placement.get(&self.id).copied(),
                placement.get(&to).copied(),
            )
        };
        self.shared.messages_sent.fetch_add(1, Relaxed);
        self.shared.bytes_sent.fetch_add(bytes, Relaxed);
        if let (Some(a), Some(b)) = (src, dst) {
            if a != b {
                self.shared.fabric_bytes.fetch_add(bytes, Relaxed);
            }
        }
        if let Some(model) = &self.shared.model {
            if let (Some(a), Some(b)) = (src, dst) {
                let secs = model.transfer_secs(a, b, bytes);
                if secs > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(secs));
                }
            }
        }
        let faults = self.shared.faults.read().clone();
        let verdict = faults.as_ref().map(|f| f.on_send(self.id, to));
        if let Some(v) = &verdict {
            if v.extra_delay > Duration::ZERO {
                std::thread::sleep(v.extra_delay);
            }
            if !v.deliver {
                if v.dest_dead {
                    if let Some(reg) = self.shared.registry.write().remove(&to) {
                        reg.ctl.close();
                    }
                    return Err(VqError::Network(format!("endpoint {to} crashed")));
                }
                if v.refused {
                    // Connection refused/reset: sender-visible failure,
                    // destination stays registered and serving.
                    return Err(VqError::Network(format!(
                        "connection to endpoint {to} refused"
                    )));
                }
                return Ok(());
            }
        }
        if !self.shared.registry.read().contains_key(&to) {
            return Err(VqError::Network(format!("endpoint {to} not registered")));
        }
        let frame = wire::to_bytes(&(self.id, to, payload))?;
        let copies = verdict.as_ref().map_or(1, |v| v.copies);
        for _ in 1..copies {
            let _ = self.enqueue(to, frame.clone(), false);
        }
        let kill = verdict.as_ref().is_some_and(|v| v.kill_after_delivery);
        let ack = self.enqueue(to, frame, kill)?;
        if kill {
            // Wait for the fatal frame to hit the socket, then crash the
            // destination — the message must be readable from its inbox,
            // exactly like the in-proc kill-after semantics.
            if let Some(ack) = ack {
                let _ = ack.recv_timeout(FLUSH_ACK_TIMEOUT);
            }
            // Give the destination's reader a moment to drain the frame
            // off the socket into the inbox before the teardown severs it.
            std::thread::sleep(Duration::from_millis(20));
            if let Some(reg) = self.shared.registry.write().remove(&to) {
                reg.ctl.close();
            }
        }
        Ok(())
    }

    /// Block for the next message.
    pub fn recv(&self) -> VqResult<Envelope<M>> {
        self.rx
            .recv()
            .map_err(|_| VqError::Network("transport shut down".into()))
    }

    /// Block for the next message up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> VqResult<Envelope<M>> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => VqError::Timeout,
            crossbeam::channel::RecvTimeoutError::Disconnected => {
                VqError::Network("transport shut down".into())
            }
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.rx.try_recv().ok()
    }
}

impl<M: WireMsg> TransportEndpoint<M> for TcpEndpoint<M> {
    fn id(&self) -> u32 {
        TcpEndpoint::id(self)
    }

    fn send(&self, to: u32, payload: M) -> VqResult<()> {
        TcpEndpoint::send(self, to, payload)
    }

    fn send_sized(&self, to: u32, payload: M, bytes: u64) -> VqResult<()> {
        TcpEndpoint::send_sized(self, to, payload, bytes)
    }

    fn recv(&self) -> VqResult<Envelope<M>> {
        TcpEndpoint::recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> VqResult<Envelope<M>> {
        TcpEndpoint::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Option<Envelope<M>> {
        TcpEndpoint::try_recv(self)
    }
}

impl<M: WireMsg> Transport<M> for TcpTransport {
    type Endpoint = TcpEndpoint<M>;

    fn register(&self, id: u32, node: u32) -> TcpEndpoint<M> {
        TcpTransport::register(self, id, node)
    }

    fn deregister(&self, id: u32) {
        TcpTransport::deregister(self, id)
    }

    fn crash(&self, id: u32) {
        TcpTransport::crash(self, id)
    }

    fn install_faults(&self, plan: FaultPlan) {
        TcpTransport::install_faults(self, plan)
    }

    fn clear_faults(&self) {
        TcpTransport::clear_faults(self)
    }

    fn fault_killed(&self) -> Vec<u32> {
        TcpTransport::fault_killed(self)
    }

    fn stats(&self) -> TransportStats {
        TcpTransport::stats(self)
    }

    fn endpoints(&self) -> Vec<u32> {
        TcpTransport::endpoints(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poll `cond` for up to ~2 s; real sockets make delivery asynchronous
    /// where the in-proc transport was instantaneous.
    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..200 {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    #[test]
    fn point_to_point_over_loopback() {
        let net = TcpTransport::new();
        let a = net.register::<String>(1, 0);
        let b = net.register::<String>(2, 0);
        a.send(2, "hello".into()).unwrap();
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.from, 1);
        assert_eq!(env.to, 2);
        assert_eq!(env.payload, "hello");
        // Reply over the reverse direction (fresh connection).
        b.send(1, "world".into()).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().payload, "world");
    }

    #[test]
    fn send_to_unknown_endpoint_fails() {
        let net = TcpTransport::new();
        let a = net.register::<u32>(1, 0);
        assert!(matches!(a.send(99, 0), Err(VqError::Network(_))));
    }

    #[test]
    fn fifo_order_per_pair_across_sockets() {
        let net = TcpTransport::new();
        let a = net.register::<u32>(1, 0);
        let b = net.register::<u32>(2, 0);
        for i in 0..200 {
            a.send(2, i).unwrap();
        }
        for i in 0..200 {
            assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().payload, i);
        }
    }

    #[test]
    fn crash_drains_then_errors() {
        let net = TcpTransport::new();
        let a = net.register::<u32>(1, 0);
        let b = net.register::<u32>(2, 0);
        a.send(2, 7).unwrap();
        // Let the frame land in the inbox before the crash severs it.
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.payload, 7);
        net.crash(2);
        assert!(b.recv_timeout(Duration::from_secs(5)).is_err());
        assert!(eventually(|| a.send(2, 8).is_err()));
        assert_eq!(net.endpoints(), vec![1]);
    }

    #[test]
    fn restarted_endpoint_is_reachable_again() {
        let net = TcpTransport::new();
        let a = net.register::<u32>(1, 0);
        let b = net.register::<u32>(2, 0);
        a.send(2, 1).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().payload, 1);
        net.crash(2);
        assert!(eventually(|| a.send(2, 2).is_err()));
        // Same id comes back with a fresh listener on a new port; the
        // writer link reconnects against the new address.
        let b2 = net.register::<u32>(2, 0);
        assert!(eventually(|| a.send(2, 3).is_ok()));
        let env = b2.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.payload, 3);
    }

    #[test]
    fn faults_apply_identically_to_tcp() {
        let net = TcpTransport::new();
        net.install_faults(FaultPlan::new(5).drop_on(Some(1), Some(2), 1.0));
        let a = net.register::<u32>(1, 0);
        let b = net.register::<u32>(2, 0);
        a.send(2, 7).unwrap(); // dropped on the wire, sender sees success
        b.send(1, 9).unwrap(); // reverse edge is clean
        assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().payload, 9);
        assert!(b.try_recv().is_none());
        net.clear_faults();
        a.send(2, 8).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().payload, 8);
    }

    #[test]
    fn fault_kill_after_crashes_destination_with_message_delivered() {
        let net = TcpTransport::new();
        net.install_faults(FaultPlan::new(5).kill_after(2, 2));
        let a = net.register::<u32>(1, 0);
        let b = net.register::<u32>(2, 0);
        a.send(2, 1).unwrap();
        a.send(2, 2).unwrap(); // fatal delivery
        assert_eq!(net.fault_killed(), vec![2]);
        // Queued messages drain, then the transport is gone.
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().payload, 1);
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().payload, 2);
        assert!(b.recv_timeout(Duration::from_secs(5)).is_err());
        assert!(eventually(|| a.send(2, 3).is_err()));
        // Re-registering revives the id with a fresh budget.
        let b2 = net.register::<u32>(2, 0);
        assert!(net.fault_killed().is_empty());
        assert!(eventually(|| a.send(2, 4).is_ok()));
        assert_eq!(b2.recv_timeout(Duration::from_secs(5)).unwrap().payload, 4);
    }

    #[test]
    fn structured_payloads_cross_the_socket() {
        #[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Blob {
            id: u64,
            vector: Vec<f32>,
            tag: Option<String>,
        }
        let net = TcpTransport::new();
        let a = net.register::<Blob>(1, 0);
        let b = net.register::<Blob>(2, 0);
        let blob = Blob {
            id: 42,
            vector: (0..256).map(|i| i as f32 * 0.5).collect(),
            tag: Some("shard-3".into()),
        };
        a.send_sized(2, blob.clone(), 1024).unwrap();
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.payload, blob);
        let stats = net.stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 1024);
    }

    #[test]
    fn garbage_on_the_binary_port_is_rejected() {
        let net = TcpTransport::new();
        let b = net.register::<u32>(2, 0);
        let addr = net.shared.registry.read().get(&2).unwrap().addr;
        // An HTTP request is the classic cross-protocol accident.
        let mut s = TcpStream::connect(addr).unwrap();
        use std::io::Write as _;
        s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        // The reader must reject the garbage and drop the connection
        // without delivering anything or wedging the endpoint.
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(200)),
            Err(VqError::Timeout)
        ));
        // The endpoint still works for well-formed traffic.
        let a = net.register::<u32>(1, 0);
        a.send(2, 5).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().payload, 5);
    }
}
