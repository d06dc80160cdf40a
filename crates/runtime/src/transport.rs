//! Transports for the live cluster.
//!
//! The runtime runs one OS thread per machine; threads exchange binary
//! frames either over in-process crossbeam channels ([`ChannelTransport`])
//! or over real localhost TCP sockets ([`TcpTransport`]) — the "local
//! multi-process evaluation" substitute for the paper's Ethernet LAN. Both
//! present the same [`Mailbox`] / [`Postman`] interface to the node loop.
//!
//! A TCP frame is a varint length prefix followed by a paso-wire encoded
//! [`Envelope`] — the same codec the simulator charges `α + β·|m|` for, so
//! live bytes-on-the-wire match simulated message sizes.
//!
//! ## Event-driven I/O core
//!
//! All TCP sockets — listeners, inbound, outbound — are driven by a
//! fixed pool of poller threads (the [`reactor`](crate::reactor) module:
//! a thin hand-rolled `poll(2)` loop, no async runtime), so one node
//! talking to hundreds of peers costs [`TransportTuning::poller_threads`]
//! I/O threads plus one background dialer instead of threads per
//! connection. The paper's `α` (per-message overhead) is what this buys
//! down: sends are a lock-free-ish queue push, writes are vectored
//! batches of refcounted frames with zero per-send payload copies, reads
//! are incremental into one reusable buffer per connection.
//!
//! ## Failure path and fault injection
//!
//! Every `(sender, receiver)` link owns a *bounded* frame queue
//! ([`reactor::OutConn`](crate::reactor)). Dialing happens on the
//! background dialer with capped exponential backoff, so a dead or
//! blackholed peer can never head-of-line-block sends to healthy peers;
//! the send path only ever performs a non-blocking push. Frames that
//! don't fit the bounded queue are dropped and **accounted** in
//! [`NetStats::msgs_dropped`] — nothing is silently swallowed. The
//! owning poller coalesces queued frames into one `writev` syscall,
//! capped at [`TransportTuning::max_batch_bytes`] /
//! [`TransportTuning::max_batch_frames`] so one slow reader cannot
//! balloon memory, and `bytes_sent` counts only frames fully written to
//! a live, connected socket.
//!
//! Both transports consult a [`FaultPlan`] (shared with `paso-simnet`'s
//! fault module) on every **network** envelope: per-link drop probability,
//! per-link delay distribution, and partition sets. Controller traffic
//! (crash/recover/membership, i.e. the oracle) always passes — the paper's
//! failure detector is assumed reliable. The pass-through plan takes a
//! single lock-and-check per send and consumes no randomness, so fault
//! injection is pay-for-what-you-use.

use std::collections::{BinaryHeap, HashMap};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use paso_simnet::{FaultPlan, LinkFate, NodeId};
use paso_telemetry::{Histogram, Telemetry, TraceBuf, TraceKind};
use paso_vsync::NetMsg;
use paso_wire::{Reader as WireReader, Wire, WireError};

use crate::reactor::{Frame, HistSlot, NetHists, OutConn, Reactor};

/// An envelope routed between nodes (or from the cluster controller).
#[derive(Debug, Clone)]
pub enum Envelope {
    /// Network traffic from a peer node.
    Net {
        /// Sender.
        from: NodeId,
        /// Payload.
        msg: NetMsg,
    },
    /// Controller command: crash this node (erase state).
    Crash,
    /// Controller command: recover this node (fresh state, rejoin).
    Recover,
    /// Membership-oracle notification.
    PeerCrashed(
        /// The crashed peer.
        NodeId,
    ),
    /// Membership-oracle notification.
    PeerRecovered(
        /// The recovered peer.
        NodeId,
    ),
    /// Controller command: exit the node thread.
    Shutdown,
}

impl Wire for Envelope {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Envelope::Net { from, msg } => {
                out.push(0);
                from.encode(out);
                msg.encode(out);
            }
            Envelope::Crash => out.push(1),
            Envelope::Recover => out.push(2),
            Envelope::PeerCrashed(n) => {
                out.push(3);
                n.encode(out);
            }
            Envelope::PeerRecovered(n) => {
                out.push(4);
                n.encode(out);
            }
            Envelope::Shutdown => out.push(5),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Envelope::Net {
                from: NodeId::decode(r)?,
                msg: NetMsg::decode(r)?,
            },
            1 => Envelope::Crash,
            2 => Envelope::Recover,
            3 => Envelope::PeerCrashed(NodeId::decode(r)?),
            4 => Envelope::PeerRecovered(NodeId::decode(r)?),
            5 => Envelope::Shutdown,
            tag => {
                return Err(WireError::InvalidTag {
                    ty: "Envelope",
                    tag,
                })
            }
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Envelope::Net { from, msg } => from.encoded_len() + msg.encoded_len(),
            Envelope::PeerCrashed(n) | Envelope::PeerRecovered(n) => n.encoded_len(),
            Envelope::Crash | Envelope::Recover | Envelope::Shutdown => 0,
        }
    }
}

/// Receiving side owned by one node thread.
pub trait Mailbox: Send {
    /// Blocks up to `timeout` for the next envelope.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope>;
}

/// Message-path counters a transport exposes. All counters are
/// monotonic; `bytes_sent` covers only frames actually handed to a live
/// writer, so bytes and delivered/dropped counts reconcile exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Bytes handed to a live, connected writer (TCP) or a mailbox
    /// (channel transport). Network envelopes only.
    pub bytes_sent: u64,
    /// Frames handed off for delivery.
    pub msgs_delivered: u64,
    /// Frames dropped by the *failure path*: missing port, bounded queue
    /// overflow, or loss with a dying connection.
    pub msgs_dropped: u64,
    /// Frames dropped by *injected* faults (lossy link or partition).
    pub msgs_faulted: u64,
    /// Frames that took the injected-delay line before delivery.
    pub msgs_delayed: u64,
    /// I/O errors the reactor absorbed instead of panicking: mid-frame
    /// peer death, corrupt length prefixes, failed dials it could not
    /// make non-blocking. Each one killed at most a connection, never a
    /// poller thread.
    pub poll_errors: u64,
}

/// Sending side, cloneable, shared by all node threads and the controller.
pub trait Postman: Send + Sync {
    /// Delivers an envelope to `to`'s mailbox. Delivery to a live node is
    /// reliable and per-sender FIFO (absent injected faults); failures are
    /// *accounted* in [`Postman::net_stats`] rather than silently
    /// swallowed (a crashed node drops traffic, exactly as the
    /// simulator's bus does).
    fn send(&self, to: NodeId, envelope: Envelope);

    /// Delivers one envelope to several mailboxes (a gcast fan-out). The
    /// default clones per target; transports that serialize override this
    /// to encode the frame **once** and share the bytes across all copies.
    fn send_shared(&self, targets: &[NodeId], envelope: Envelope) {
        for &to in targets {
            self.send(to, envelope.clone());
        }
    }

    /// Bytes-on-the-wire estimate for stats.
    fn bytes_sent(&self) -> u64;

    /// Installs (replaces) the fault-injection plan consulted on every
    /// network envelope. The default transport ignores plans.
    fn set_fault_plan(&self, _plan: FaultPlan) {}

    /// Attaches a trace sink: injected drops/delays become
    /// `TraceKind::NetDrop`/`NetDelay` events stamped with monotonic
    /// micros since `epoch`. The default transport records nothing.
    fn set_trace_sink(&self, _trace: Arc<TraceBuf>, _epoch: Instant) {}

    /// Attaches the unified metrics registry. Transports with internal
    /// I/O machinery (the TCP reactor) resolve their histogram handles —
    /// `net.poll.wakeups`, `net.writev.batch_frames`,
    /// `net.writev.batch_bytes` — from it; the default transport records
    /// nothing.
    fn set_telemetry(&self, _telemetry: &Telemetry) {}

    /// Message-path counters. The default reports bytes only.
    fn net_stats(&self) -> NetStats {
        NetStats {
            bytes_sent: self.bytes_sent(),
            ..NetStats::default()
        }
    }
}

/// Tuning for the live transports' failure path.
#[derive(Debug, Clone)]
pub struct TransportTuning {
    /// Depth of each per-connection bounded send queue; overflow frames
    /// are dropped and counted, never buffered without bound.
    pub queue_depth: usize,
    /// First retry delay after a failed dial.
    pub backoff_base: Duration,
    /// Ceiling for the exponential dial backoff.
    pub backoff_cap: Duration,
    /// Max bytes one writer batch may coalesce before issuing the write
    /// (a stalled reader can no longer balloon sender memory).
    pub max_batch_bytes: usize,
    /// Max frames one vectored write may gather from a connection's
    /// queue (bounds the iovec and the header scratch buffer).
    pub max_batch_frames: usize,
    /// Number of reactor poller threads sharing every socket the
    /// transport owns. This is the whole I/O thread budget regardless of
    /// peer count (plus one background dialer).
    pub poller_threads: usize,
    /// Artificial latency added to every dial — emulates a SYN blackhole
    /// (firewalled peer) in tests. Zero in production.
    pub dial_stall: Duration,
    /// Seed for the fault-injection RNG, so injected drop/delay schedules
    /// replay identically.
    pub fault_seed: u64,
}

impl Default for TransportTuning {
    fn default() -> Self {
        TransportTuning {
            queue_depth: 1024,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            max_batch_bytes: 256 << 10,
            max_batch_frames: 64,
            poller_threads: 2,
            dial_stall: Duration::ZERO,
            fault_seed: 0,
        }
    }
}

/// Shared atomic counters behind [`NetStats`]. The reactor updates
/// `bytes`/`delivered` as frames fully cross a live socket and `dropped`
/// on mid-write failures; everything else is the transport's.
#[derive(Debug, Default)]
pub(crate) struct NetCounters {
    pub(crate) bytes: AtomicU64,
    pub(crate) delivered: AtomicU64,
    pub(crate) dropped: AtomicU64,
    faulted: AtomicU64,
    delayed: AtomicU64,
    /// Counted error paths on the poller/dialer hot loops (see
    /// [`NetStats::poll_errors`]).
    pub(crate) errors: AtomicU64,
}

/// Trace sink for fault-injection events on the live transports.
#[derive(Clone, Debug)]
struct TraceSink {
    trace: Arc<TraceBuf>,
    epoch: Instant,
}

impl TraceSink {
    fn dropped(&self, from: NodeId, to: NodeId) {
        self.trace.record(
            self.epoch.elapsed().as_micros() as u64,
            from.0,
            TraceKind::NetDrop { to: to.0 },
        );
    }

    fn delayed(&self, from: NodeId, to: NodeId, micros: u64) {
        self.trace.record(
            self.epoch.elapsed().as_micros() as u64,
            from.0,
            TraceKind::NetDelay { to: to.0, micros },
        );
    }
}

/// Shared optional sink slot (set once at cluster start, read on the
/// rarely-taken fault path).
type SinkSlot = Mutex<Option<TraceSink>>;

impl NetCounters {
    pub(crate) fn snapshot(&self) -> NetStats {
        NetStats {
            bytes_sent: self.bytes.load(Ordering::SeqCst),
            msgs_delivered: self.delivered.load(Ordering::SeqCst),
            msgs_dropped: self.dropped.load(Ordering::SeqCst),
            msgs_faulted: self.faulted.load(Ordering::SeqCst),
            msgs_delayed: self.delayed.load(Ordering::SeqCst),
            poll_errors: self.errors.load(Ordering::SeqCst),
        }
    }
}

/// One item waiting in a [`DelayLine`].
struct Pending<T> {
    at: Instant,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the earliest deadline is the BinaryHeap maximum.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

enum DelayCmd<T> {
    Item(Instant, T),
    Shutdown,
}

/// A single background thread holding injected-delay frames until their
/// release time, then handing them to `deliver`. Items due at the same
/// instant release in submission order.
struct DelayLine<T: Send + 'static> {
    tx: Sender<DelayCmd<T>>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<T: Send + 'static> std::fmt::Debug for DelayLine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DelayLine")
    }
}

impl<T: Send + 'static> DelayLine<T> {
    fn start(deliver: impl Fn(T) + Send + 'static) -> Self {
        let (tx, rx) = unbounded::<DelayCmd<T>>();
        let handle = std::thread::spawn(move || {
            let mut seq = 0u64;
            let mut heap: BinaryHeap<Pending<T>> = BinaryHeap::new();
            loop {
                let now = Instant::now();
                while heap.peek().is_some_and(|p| p.at <= now) {
                    deliver(heap.pop().expect("peeked").item);
                }
                let cmd = match heap.peek() {
                    Some(p) => match rx.recv_timeout(p.at.saturating_duration_since(now)) {
                        Ok(cmd) => cmd,
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                        Err(_) => return,
                    },
                    None => match rx.recv() {
                        Ok(cmd) => cmd,
                        Err(_) => return,
                    },
                };
                match cmd {
                    DelayCmd::Item(at, item) => {
                        heap.push(Pending { at, seq, item });
                        seq += 1;
                    }
                    DelayCmd::Shutdown => return,
                }
            }
        });
        DelayLine {
            tx,
            handle: Mutex::new(Some(handle)),
        }
    }

    fn defer(&self, delay: Duration, item: T) {
        let _ = self.tx.send(DelayCmd::Item(Instant::now() + delay, item));
    }

    /// Stops and joins the delay thread (pending items are discarded —
    /// callers only shut down when the whole transport is going away).
    fn shutdown(&self) {
        let _ = self.tx.send(DelayCmd::Shutdown);
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

/// Lazily-started delay line, shared behind the transport handle.
type DelaySlot<T> = Mutex<Option<Arc<DelayLine<T>>>>;

/// A TCP frame parked by the fault gate: (from, to, encoded frame).
type DelayedFrame = (NodeId, NodeId, Arc<[u8]>);

/// Injected-latency histogram handles, cached once at cluster start.
/// Same metric names the simulator's engine records, so dashboards read
/// either driver unchanged.
struct LinkHists {
    latency: Arc<Histogram>,
    jitter: Arc<Histogram>,
}

impl std::fmt::Debug for LinkHists {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LinkHists")
    }
}

/// The fault layer shared by both transports: a swappable plan plus the
/// seeded RNG feeding its coin flips.
#[derive(Debug)]
struct FaultGate {
    plan: Mutex<FaultPlan>,
    rng: Mutex<ChaCha8Rng>,
    hists: Mutex<Option<LinkHists>>,
}

impl FaultGate {
    fn new(seed: u64) -> Self {
        FaultGate {
            plan: Mutex::new(FaultPlan::none()),
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed)),
            hists: Mutex::new(None),
        }
    }

    /// Decides one network frame's fate. Pass-through plans never touch
    /// the RNG lock. Injected delays are recorded under the link-latency
    /// histograms (`net.link.latency_micros` / `net.link.jitter_micros`)
    /// when telemetry is attached — the jitter component separately, so a
    /// dashboard can tell a slow link from a noisy one.
    fn fate(&self, from: NodeId, to: NodeId) -> LinkFate {
        let plan = self.plan.lock();
        if plan.is_pass_through() {
            return LinkFate::Deliver;
        }
        let decision = plan.decide_detailed(from, to, &mut *self.rng.lock());
        if let LinkFate::Delay(micros) = decision.fate {
            if let Some(h) = self.hists.lock().as_ref() {
                h.latency.record(micros);
                h.jitter.record(decision.jitter_micros);
            }
        }
        decision.fate
    }

    fn set_telemetry(&self, telemetry: &Telemetry) {
        *self.hists.lock() = Some(LinkHists {
            latency: telemetry.histogram("net.link.latency_micros"),
            jitter: telemetry.histogram("net.link.jitter_micros"),
        });
    }
}

/// In-process channel transport.
#[derive(Debug)]
pub struct ChannelTransport {
    senders: Vec<Sender<Envelope>>,
    counters: Arc<NetCounters>,
    gate: FaultGate,
    delay: DelaySlot<(NodeId, Envelope)>,
    sink: SinkSlot,
}

/// Mailbox for [`ChannelTransport`].
#[derive(Debug)]
pub struct ChannelMailbox {
    rx: Receiver<Envelope>,
}

impl ChannelTransport {
    /// Creates mailboxes for `n` nodes plus the shared postman.
    pub fn new(n: usize) -> (Arc<Self>, Vec<ChannelMailbox>) {
        Self::with_tuning(n, TransportTuning::default())
    }

    /// As [`ChannelTransport::new`] with explicit tuning (only the fault
    /// seed applies to the in-process transport).
    pub fn with_tuning(n: usize, tuning: TransportTuning) -> (Arc<Self>, Vec<ChannelMailbox>) {
        let mut senders = Vec::with_capacity(n);
        let mut mailboxes = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            mailboxes.push(ChannelMailbox { rx });
        }
        (
            Arc::new(ChannelTransport {
                senders,
                counters: Arc::new(NetCounters::default()),
                gate: FaultGate::new(tuning.fault_seed),
                delay: Mutex::new(None),
                sink: Mutex::new(None),
            }),
            mailboxes,
        )
    }

    fn deliver_now(
        senders: &[Sender<Envelope>],
        counters: &NetCounters,
        to: NodeId,
        envelope: Envelope,
    ) {
        if let Envelope::Net { .. } = &envelope {
            // The exact binary size — the same |m| the simulator charges.
            counters
                .bytes
                .fetch_add(envelope.encoded_len() as u64, Ordering::SeqCst);
            counters.delivered.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(tx) = senders.get(to.index()) {
            let _ = tx.send(envelope);
        }
    }

    fn delay_line(&self) -> Arc<DelayLine<(NodeId, Envelope)>> {
        let mut slot = self.delay.lock();
        if let Some(line) = slot.as_ref() {
            return Arc::clone(line);
        }
        let senders = self.senders.clone();
        let counters = Arc::clone(&self.counters);
        let line = Arc::new(DelayLine::start(move |(to, env)| {
            ChannelTransport::deliver_now(&senders, &counters, to, env);
        }));
        *slot = Some(Arc::clone(&line));
        line
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        if let Some(line) = self.delay.lock().take() {
            line.shutdown();
        }
    }
}

impl Mailbox for ChannelMailbox {
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.rx.recv_timeout(timeout).ok()
    }
}

impl Postman for ChannelTransport {
    fn send(&self, to: NodeId, envelope: Envelope) {
        if let Envelope::Net { from, .. } = &envelope {
            match self.gate.fate(*from, to) {
                LinkFate::Deliver => {}
                LinkFate::Drop => {
                    self.counters.faulted.fetch_add(1, Ordering::SeqCst);
                    if let Some(sink) = self.sink.lock().as_ref() {
                        sink.dropped(*from, to);
                    }
                    return;
                }
                LinkFate::Delay(micros) => {
                    self.counters.delayed.fetch_add(1, Ordering::SeqCst);
                    if let Some(sink) = self.sink.lock().as_ref() {
                        sink.delayed(*from, to, micros);
                    }
                    self.delay_line()
                        .defer(Duration::from_micros(micros), (to, envelope));
                    return;
                }
            }
        }
        ChannelTransport::deliver_now(&self.senders, &self.counters, to, envelope);
    }

    fn bytes_sent(&self) -> u64 {
        self.counters.bytes.load(Ordering::SeqCst)
    }

    fn set_fault_plan(&self, plan: FaultPlan) {
        *self.gate.plan.lock() = plan;
    }

    fn set_trace_sink(&self, trace: Arc<TraceBuf>, epoch: Instant) {
        *self.sink.lock() = Some(TraceSink { trace, epoch });
    }

    fn set_telemetry(&self, telemetry: &Telemetry) {
        self.gate.set_telemetry(telemetry);
    }

    fn net_stats(&self) -> NetStats {
        self.counters.snapshot()
    }
}

/// Frames a connection refuses to accept (corrupt length prefix guard).
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Appends one `[varint length][envelope bytes]` frame to `batch` — the
/// exact wire format of the TCP transport. Public so benches and tests
/// can produce byte-identical frames (e.g. a thread-per-connection
/// baseline sender in `exp_saturation`).
pub fn push_frame(batch: &mut Vec<u8>, envelope: &Envelope) {
    paso_wire::put_varint(batch, envelope.encoded_len() as u64);
    envelope.encode(batch);
}

/// Localhost TCP transport: every node listens on `127.0.0.1:port_i`;
/// senders keep persistent connections. All sockets are driven by the
/// reactor's fixed poller pool — accepts, frame reads into the node's
/// channel, and vectored zero-copy writes — so the node loop is identical
/// for both transports and the thread count is independent of the peer
/// count.
///
/// Outbound frames land in a bounded per-link queue; a background dialer
/// connects (capped exponential backoff) off the send path; see the
/// module docs for the failure path.
#[derive(Debug)]
pub struct TcpTransport {
    shared: Arc<TcpShared>,
}

/// State shared between the send path, the reactor, and the delay line.
#[derive(Debug)]
struct TcpShared {
    ports: Vec<u16>,
    tuning: TransportTuning,
    /// Outbound connections keyed by (sender, receiver) identity. Frames
    /// are refcounted so one encoded gcast payload sits in every member's
    /// queue without being copied per connection.
    conns: Mutex<HashMap<(NodeId, NodeId), Arc<OutConn>>>,
    counters: Arc<NetCounters>,
    shutdown: Arc<AtomicBool>,
    reactor: Reactor,
    hists: Arc<HistSlot>,
    gate: FaultGate,
    delay: DelaySlot<DelayedFrame>,
    sink: SinkSlot,
}

impl TcpTransport {
    /// Binds `n` listeners on free ports and returns the transport plus
    /// the mailboxes. All I/O runs on the reactor's poller pool.
    ///
    /// # Panics
    ///
    /// Panics if binding a listener fails.
    pub fn new(n: usize) -> (Arc<Self>, Vec<ChannelMailbox>) {
        Self::with_tuning(n, TransportTuning::default())
    }

    /// As [`TcpTransport::new`] with explicit failure-path tuning.
    ///
    /// # Panics
    ///
    /// Panics if binding a listener fails.
    pub fn with_tuning(n: usize, tuning: TransportTuning) -> (Arc<Self>, Vec<ChannelMailbox>) {
        let mut ports = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        let mut mailboxes = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
            let port = listener.local_addr().expect("local addr").port();
            ports.push(port);
            let (tx, rx) = unbounded::<Envelope>();
            mailboxes.push(ChannelMailbox { rx });
            listeners.push((listener, tx));
        }
        let transport = Self::over_ports(ports, tuning);
        for (i, (listener, tx)) in listeners.into_iter().enumerate() {
            transport.shared.reactor.add_listener(i, listener, tx);
        }
        (transport, mailboxes)
    }

    /// Builds a transport that *sends* toward the given ports without
    /// binding listeners of its own — the harness for dead-peer tests
    /// (a port with no listener dials and backs off forever).
    fn over_ports(ports: Vec<u16>, tuning: TransportTuning) -> Arc<Self> {
        let counters = Arc::new(NetCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let hists = Arc::new(HistSlot::new());
        let reactor = Reactor::start(
            tuning.clone(),
            Arc::clone(&counters),
            Arc::clone(&hists),
            Arc::clone(&shutdown),
        );
        Arc::new(TcpTransport {
            shared: Arc::new(TcpShared {
                gate: FaultGate::new(tuning.fault_seed),
                ports,
                tuning,
                conns: Mutex::new(HashMap::new()),
                counters,
                shutdown,
                reactor,
                hists,
                delay: Mutex::new(None),
                sink: Mutex::new(None),
            }),
        })
    }

    /// The transport's fixed I/O thread budget: reactor pollers (the
    /// background dialer rides on top). Independent of peer count.
    pub fn io_threads(&self) -> usize {
        self.shared.reactor.pollers()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(line) = self.shared.delay.lock().take() {
            line.shutdown();
        }
        // Joins every poller and the dialer; dropping their entries
        // closes every socket fd (asserted by the lifecycle leak test).
        self.shared.reactor.shutdown();
    }
}

impl TcpShared {
    /// Queues one already-encoded frame toward `to`. Never blocks: the
    /// dialer connects in the background, and a full queue drops the
    /// frame with accounting instead of waiting.
    fn enqueue(&self, from: NodeId, to: NodeId, frame: Frame) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(&port) = self.ports.get(to.index()) else {
            self.counters.dropped.fetch_add(1, Ordering::SeqCst);
            return;
        };
        let conn = {
            let mut conns = self.conns.lock();
            match conns.entry((from, to)) {
                std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let conn = Arc::new(OutConn::new(port, self.tuning.queue_depth));
                    e.insert(Arc::clone(&conn));
                    self.reactor.dial(Arc::clone(&conn));
                    conn
                }
            }
        };
        match conn.try_push(frame) {
            // Empty→nonempty: the owning poller may be parked in poll(2)
            // with no write interest; poke it.
            Ok(true) => self.reactor.wake_owner(&conn),
            Ok(false) => {}
            Err(_) => {
                // Bounded-queue overflow: the peer is unreachable or
                // reading too slowly. Accounted, not buffered.
                self.counters.dropped.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

impl TcpTransport {
    fn delay_line(&self) -> Arc<DelayLine<DelayedFrame>> {
        let mut slot = self.shared.delay.lock();
        if let Some(line) = slot.as_ref() {
            return Arc::clone(line);
        }
        let shared = Arc::clone(&self.shared);
        let line = Arc::new(DelayLine::start(move |(from, to, frame)| {
            shared.enqueue(from, to, frame);
        }));
        *slot = Some(Arc::clone(&line));
        line
    }

    /// Routes one network frame through the fault gate, then the queue.
    fn dispatch_net(&self, from: NodeId, to: NodeId, frame: Arc<[u8]>) {
        match self.shared.gate.fate(from, to) {
            LinkFate::Deliver => self.shared.enqueue(from, to, frame),
            LinkFate::Drop => {
                self.shared.counters.faulted.fetch_add(1, Ordering::SeqCst);
                if let Some(sink) = self.shared.sink.lock().as_ref() {
                    sink.dropped(from, to);
                }
            }
            LinkFate::Delay(micros) => {
                self.shared.counters.delayed.fetch_add(1, Ordering::SeqCst);
                if let Some(sink) = self.shared.sink.lock().as_ref() {
                    sink.delayed(from, to, micros);
                }
                self.delay_line()
                    .defer(Duration::from_micros(micros), (from, to, frame));
            }
        }
    }
}

/// The connection slot controller traffic uses (no sending node).
fn conn_slot(envelope: &Envelope) -> NodeId {
    match envelope {
        Envelope::Net { from, .. } => *from,
        _ => NodeId(u32::MAX),
    }
}

impl Postman for TcpTransport {
    fn send(&self, to: NodeId, envelope: Envelope) {
        let net = matches!(envelope, Envelope::Net { .. });
        let from = conn_slot(&envelope);
        // The frame carries the envelope body only — the owning poller
        // prepends the varint header from its per-connection scratch
        // buffer at write time (`bytes_sent` still counts header+body).
        let frame: Frame = paso_wire::encode_to_vec(&envelope).into();
        if net {
            self.dispatch_net(from, to, frame);
        } else {
            // Controller traffic: the membership oracle is reliable.
            self.shared.enqueue(from, to, frame);
        }
    }

    fn send_shared(&self, targets: &[NodeId], envelope: Envelope) {
        // The frame is target-independent, so one encoding serves the
        // whole fan-out; each queue holds a refcount, not a copy, and
        // the writers read the payload bytes in place.
        let net = matches!(envelope, Envelope::Net { .. });
        let frame: Frame = paso_wire::encode_to_vec(&envelope).into();
        let from = conn_slot(&envelope);
        for &to in targets {
            if net {
                self.dispatch_net(from, to, frame.clone());
            } else {
                self.shared.enqueue(from, to, frame.clone());
            }
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.shared.counters.bytes.load(Ordering::SeqCst)
    }

    fn set_fault_plan(&self, plan: FaultPlan) {
        *self.shared.gate.plan.lock() = plan;
    }

    fn set_trace_sink(&self, trace: Arc<TraceBuf>, epoch: Instant) {
        *self.shared.sink.lock() = Some(TraceSink { trace, epoch });
    }

    fn set_telemetry(&self, telemetry: &Telemetry) {
        self.shared.hists.set(NetHists {
            wakeups: telemetry.histogram("net.poll.wakeups"),
            batch_frames: telemetry.histogram("net.writev.batch_frames"),
            batch_bytes: telemetry.histogram("net.writev.batch_bytes"),
        });
        self.shared.gate.set_telemetry(telemetry);
    }

    fn net_stats(&self) -> NetStats {
        self.shared.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpStream;

    fn net(from: u32) -> Envelope {
        Envelope::Net {
            from: NodeId(from),
            msg: NetMsg::App(vec![1, 2, 3]),
        }
    }

    /// Polls until `cond` holds or the deadline passes; asserts it held.
    fn eventually(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(cond(), "timed out waiting for: {what}");
    }

    #[test]
    fn envelope_variants_round_trip() {
        for env in [
            net(4),
            Envelope::Crash,
            Envelope::Recover,
            Envelope::PeerCrashed(NodeId(2)),
            Envelope::PeerRecovered(NodeId(300)),
            Envelope::Shutdown,
        ] {
            let bytes = paso_wire::encode_to_vec(&env);
            assert_eq!(bytes.len(), env.encoded_len());
            let back: Envelope = paso_wire::decode_exact(&bytes).unwrap();
            // Envelope has no PartialEq (NetMsg payloads are opaque);
            // compare re-encodings.
            assert_eq!(paso_wire::encode_to_vec(&back), bytes);
            // Every truncation must error out, never panic.
            for cut in 0..bytes.len() {
                assert!(paso_wire::decode_exact::<Envelope>(&bytes[..cut]).is_err());
            }
        }
        assert!(paso_wire::decode_exact::<Envelope>(&[99]).is_err());
    }

    #[test]
    fn channel_transport_routes() {
        let (postman, mailboxes) = ChannelTransport::new(3);
        postman.send(NodeId(1), net(0));
        postman.send(NodeId(2), Envelope::Crash);
        let got = mailboxes[1]
            .recv_timeout(Duration::from_millis(100))
            .unwrap();
        assert!(matches!(
            got,
            Envelope::Net {
                from: NodeId(0),
                ..
            }
        ));
        let got = mailboxes[2]
            .recv_timeout(Duration::from_millis(100))
            .unwrap();
        assert!(matches!(got, Envelope::Crash));
        assert!(mailboxes[0]
            .recv_timeout(Duration::from_millis(10))
            .is_none());
        assert!(postman.bytes_sent() > 0);
    }

    #[test]
    fn channel_transport_is_fifo_per_sender() {
        let (postman, mailboxes) = ChannelTransport::new(2);
        for i in 0..50u8 {
            postman.send(
                NodeId(1),
                Envelope::Net {
                    from: NodeId(0),
                    msg: NetMsg::App(vec![i]),
                },
            );
        }
        for i in 0..50u8 {
            let got = mailboxes[1]
                .recv_timeout(Duration::from_millis(100))
                .unwrap();
            match got {
                Envelope::Net {
                    msg: NetMsg::App(b),
                    ..
                } => assert_eq!(b, vec![i]),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn tcp_transport_round_trip() {
        let (postman, mailboxes) = TcpTransport::new(2);
        postman.send(NodeId(1), net(0));
        let got = mailboxes[1]
            .recv_timeout(Duration::from_secs(2))
            .expect("frame must arrive over TCP");
        assert!(matches!(
            got,
            Envelope::Net {
                from: NodeId(0),
                msg: NetMsg::App(_)
            }
        ));
        assert!(postman.bytes_sent() > 0);
    }

    #[test]
    fn send_shared_reaches_every_target() {
        // Channel transport: default per-target clone path.
        let (postman, mailboxes) = ChannelTransport::new(4);
        postman.send_shared(&[NodeId(1), NodeId(2), NodeId(3)], net(0));
        for mailbox in &mailboxes[1..] {
            let got = mailbox
                .recv_timeout(Duration::from_millis(100))
                .expect("fan-out copy must arrive");
            assert!(matches!(
                got,
                Envelope::Net {
                    from: NodeId(0),
                    ..
                }
            ));
        }

        // TCP transport: single-encode path, one frame refcounted across
        // all connection queues.
        let (postman, mailboxes) = TcpTransport::new(3);
        postman.send_shared(&[NodeId(1), NodeId(2)], net(0));
        for mailbox in &mailboxes[1..] {
            let got = mailbox
                .recv_timeout(Duration::from_secs(2))
                .expect("fan-out frame must arrive over TCP");
            assert!(matches!(
                got,
                Envelope::Net {
                    from: NodeId(0),
                    ..
                }
            ));
        }
        // Wire accounting charges every copy, even though one was encoded.
        let one = {
            let env = net(0);
            let mut frame = Vec::new();
            push_frame(&mut frame, &env);
            frame.len() as u64
        };
        eventually(
            "fan-out byte accounting settles",
            Duration::from_secs(2),
            || postman.bytes_sent() == 2 * one,
        );
        let stats = postman.net_stats();
        assert_eq!(stats.msgs_delivered, 2);
        assert_eq!(stats.msgs_dropped, 0);
        assert_eq!(stats.msgs_faulted, 0);
    }

    #[test]
    fn tcp_transport_many_messages_in_order() {
        let (postman, mailboxes) = TcpTransport::new(2);
        for i in 0..100u8 {
            postman.send(
                NodeId(1),
                Envelope::Net {
                    from: NodeId(0),
                    msg: NetMsg::App(vec![i]),
                },
            );
        }
        for i in 0..100u8 {
            let got = mailboxes[1].recv_timeout(Duration::from_secs(2)).unwrap();
            match got {
                Envelope::Net {
                    msg: NetMsg::App(b),
                    ..
                } => assert_eq!(b, vec![i]),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn tcp_reader_drops_connection_on_corrupt_frame_then_recovers() {
        let (postman, mailboxes) = TcpTransport::new(2);
        // Handshake a healthy frame first so the port is known good.
        postman.send(NodeId(1), net(0));
        assert!(mailboxes[1].recv_timeout(Duration::from_secs(2)).is_some());
        // A raw connection spewing garbage must not take the node down.
        let port = postman.shared.ports[1];
        {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            // frame of length 3 with an invalid tag
            let _ = s.write_all(&[3, 99, 0, 0]);
        }
        // The legit connection still delivers.
        postman.send(NodeId(1), net(0));
        assert!(mailboxes[1].recv_timeout(Duration::from_secs(2)).is_some());
    }

    /// Satellite regression for the unwrap sweep: a peer dying *mid
    /// frame* (header promised more bytes than ever arrive) was one of
    /// the paths that used to `unwrap()` inside the poller thread —
    /// aborting the poller took every connection it owned down with it.
    /// The poller must absorb the death as a counted error
    /// (`net.poll.errors`) and keep serving its other sockets.
    #[test]
    fn mid_frame_peer_death_kills_the_peer_not_the_poller() {
        // One poller thread: the victim connection and the healthy one
        // are guaranteed to share it.
        let tuning = TransportTuning {
            poller_threads: 1,
            ..TransportTuning::default()
        };
        let (postman, mailboxes) = TcpTransport::with_tuning(2, tuning);
        postman.send(NodeId(1), net(0));
        assert!(mailboxes[1].recv_timeout(Duration::from_secs(2)).is_some());
        let errors_before = postman.net_stats().poll_errors;

        let port = postman.shared.ports[1];
        {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            // Varint header promising a 100-byte frame, then 10 bytes,
            // then a hard close: EOF lands mid-frame.
            let _ = s.write_all(&[100]);
            let _ = s.write_all(&[0u8; 10]);
        }
        eventually(
            "mid-frame death is a counted error",
            Duration::from_secs(2),
            || postman.net_stats().poll_errors > errors_before,
        );
        // The poller that absorbed it still drives the healthy pair.
        for _ in 0..10 {
            postman.send(NodeId(1), net(0));
            assert!(
                mailboxes[1].recv_timeout(Duration::from_secs(2)).is_some(),
                "poller died with the peer"
            );
        }
    }

    /// Satellite regression: a peer whose dial fails (port with no
    /// listener — the dialer keeps backing off) must not delay sends to a
    /// healthy peer. Pre-PR-4, `enqueue` held the `conns` lock across
    /// `TcpStream::connect`, so one dead peer stalled everyone; on the
    /// reactor, dead dials live in the dialer's deadline heap.
    #[test]
    fn dead_peer_does_not_block_live_sends() {
        // A port that refuses connections: bind, grab the port, drop.
        let dead_port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        // A live receiver transport feeding a real mailbox.
        let (receiver, mailboxes) = TcpTransport::new(1);
        let live_port = receiver.shared.ports[0];

        let postman =
            TcpTransport::over_ports(vec![live_port, dead_port], TransportTuning::default());
        // Prod the dead peer first so its dial is failing/backing off.
        for _ in 0..4 {
            postman.send(NodeId(1), net(0));
        }
        let start = Instant::now();
        postman.send(NodeId(0), net(0));
        let got = mailboxes[0].recv_timeout(Duration::from_millis(100));
        assert!(
            got.is_some(),
            "send to the healthy peer must deliver while the dead peer dials"
        );
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "healthy-peer delivery took {:?}",
            start.elapsed()
        );
        // The dead peer's frames were never counted as sent.
        let one = {
            let mut f = Vec::new();
            push_frame(&mut f, &net(0));
            f.len() as u64
        };
        eventually("only live frame counted", Duration::from_secs(1), || {
            postman.net_stats().bytes_sent == one
        });
    }

    /// Zero-copy fan-out, end to end: `send_shared` encodes once, and the
    /// *same allocation* (pointer identity) sits in every peer's send
    /// queue, holding the bare envelope body the writer will prefix from
    /// its scratch buffer.
    #[test]
    fn send_shared_queues_the_same_allocation_for_every_peer() {
        let mut dead_ports = Vec::new();
        for _ in 0..2 {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            dead_ports.push(l.local_addr().unwrap().port());
        }
        // Stall dialing so the frames stay observable in the queues.
        let tuning = TransportTuning {
            dial_stall: Duration::from_secs(5),
            ..TransportTuning::default()
        };
        let postman = TcpTransport::over_ports(dead_ports, tuning);
        let env = net(7);
        postman.send_shared(&[NodeId(0), NodeId(1)], env);
        let conns = postman.shared.conns.lock();
        let frames: Vec<Frame> = conns.values().flat_map(|c| c.queued_frames()).collect();
        assert_eq!(frames.len(), 2, "one frame queued per target");
        assert!(
            Arc::ptr_eq(&frames[0], &frames[1]),
            "fan-out must share one allocation across queues"
        );
        assert_eq!(
            frames[0].as_ref(),
            paso_wire::encode_to_vec(&net(7)).as_slice(),
            "queued frame is the bare envelope body (header added at write time)"
        );
    }

    /// A peer that accepts but never reads: sender memory stays bounded
    /// (queue depth × frame size plus the kernel socket buffer), the
    /// overflow is dropped *and counted*, and
    /// `delivered + dropped + queued` reconciles exactly with the number
    /// of sends.
    #[test]
    fn slow_reader_bounds_memory_and_accounts_drops() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        // Accept and hold the socket open without ever reading it.
        let held = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let tuning = TransportTuning {
            queue_depth: 16,
            ..TransportTuning::default()
        };
        let postman = TcpTransport::over_ports(vec![port], tuning);
        let total = 64u64;
        for _ in 0..total {
            postman.send(
                NodeId(0),
                Envelope::Net {
                    from: NodeId(0),
                    msg: NetMsg::App(vec![0u8; 256 << 10]),
                },
            );
        }
        let _socket = held.join().unwrap().expect("accept");
        eventually(
            "delivered + dropped + queued == sent",
            Duration::from_secs(5),
            || {
                let stats = postman.net_stats();
                let queued: u64 = postman
                    .shared
                    .conns
                    .lock()
                    .values()
                    .map(|c| c.queued() as u64)
                    .sum();
                stats.msgs_delivered + stats.msgs_dropped + queued == total
            },
        );
        let stats = postman.net_stats();
        assert!(
            stats.msgs_dropped > 0,
            "overflow past the bounded queue must be dropped and counted"
        );
        let queued: u64 = postman
            .shared
            .conns
            .lock()
            .values()
            .map(|c| c.queued() as u64)
            .sum();
        assert!(queued <= 16, "queue depth bounds sender memory");
    }

    /// Satellite regression: a *hanging* dial (SYN blackhole, emulated by
    /// `dial_stall`) happens off the send path — `send` returns
    /// immediately even though the connection cannot establish.
    #[test]
    fn hanging_dial_never_blocks_the_send_path() {
        let tuning = TransportTuning {
            dial_stall: Duration::from_secs(5),
            ..TransportTuning::default()
        };
        let (postman, _mailboxes) = TcpTransport::with_tuning(2, tuning);
        let start = Instant::now();
        for _ in 0..16 {
            postman.send(NodeId(1), net(0));
        }
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "sends blocked for {:?} behind a stalled dial",
            start.elapsed()
        );
        // Nothing handed to a live writer yet: the dial is still stalled.
        assert_eq!(postman.net_stats().bytes_sent, 0);
    }

    /// Bounded queues: overflow while the peer is unreachable is dropped
    /// and accounted, not buffered without bound.
    #[test]
    fn bounded_queue_overflow_drops_and_counts() {
        let dead_port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let tuning = TransportTuning {
            queue_depth: 8,
            // Long enough that the worker can't drain during the test.
            dial_stall: Duration::from_secs(5),
            ..TransportTuning::default()
        };
        let postman = TcpTransport::over_ports(vec![dead_port], tuning);
        for _ in 0..20 {
            postman.send(NodeId(0), net(0));
        }
        let stats = postman.net_stats();
        assert_eq!(stats.bytes_sent, 0, "nothing reached a live writer");
        assert!(
            stats.msgs_dropped >= 11,
            "expected ≥ 11 overflow drops, got {}",
            stats.msgs_dropped
        );
    }

    #[test]
    fn fault_plan_drop_all_suppresses_net_but_not_controller_traffic() {
        let (postman, mailboxes) = ChannelTransport::new(2);
        postman.set_fault_plan(FaultPlan::none().drop_all(1.0));
        postman.send(NodeId(1), net(0));
        assert!(
            mailboxes[1]
                .recv_timeout(Duration::from_millis(30))
                .is_none(),
            "net frame must be dropped by the plan"
        );
        postman.send(NodeId(1), Envelope::Crash);
        assert!(
            matches!(
                mailboxes[1].recv_timeout(Duration::from_millis(100)),
                Some(Envelope::Crash)
            ),
            "controller traffic bypasses the fault layer"
        );
        let stats = postman.net_stats();
        assert_eq!(stats.msgs_faulted, 1);
        assert_eq!(stats.bytes_sent, 0, "dropped frames are not charged");
    }

    #[test]
    fn fault_plan_delay_holds_then_delivers_over_tcp() {
        let (postman, mailboxes) = TcpTransport::new(2);
        postman.set_fault_plan(FaultPlan::none().delay_all(paso_simnet::DelayDist::fixed(60_000)));
        let sent = Instant::now();
        postman.send(NodeId(1), net(0));
        let got = mailboxes[1].recv_timeout(Duration::from_secs(2));
        assert!(got.is_some(), "delayed frame must still deliver");
        assert!(
            sent.elapsed() >= Duration::from_millis(55),
            "frame arrived after only {:?}",
            sent.elapsed()
        );
        assert_eq!(postman.net_stats().msgs_delayed, 1);
    }

    #[test]
    fn fault_plan_partition_heals_on_replacement() {
        let (postman, mailboxes) = TcpTransport::new(2);
        let cells: [&[NodeId]; 2] = [&[NodeId(0)], &[NodeId(1)]];
        postman.set_fault_plan(FaultPlan::none().partition(&cells));
        postman.send(NodeId(1), net(0));
        assert!(mailboxes[1]
            .recv_timeout(Duration::from_millis(30))
            .is_none());
        postman.set_fault_plan(FaultPlan::none());
        postman.send(NodeId(1), net(0));
        assert!(mailboxes[1].recv_timeout(Duration::from_secs(2)).is_some());
        assert_eq!(postman.net_stats().msgs_faulted, 1);
    }
}
