//! # paso-proxy
//!
//! The serving tier: a **stateless front-end gateway** that terminates
//! many cheap client TCP connections and pipelines their operations into
//! the cluster's binary wire protocol (ROADMAP item 3, DESIGN.md §6h).
//!
//! The paper's adaptive algorithms tolerate λ faulty *servers*; the
//! proxy deliberately holds nothing the λ-argument would have to cover.
//! Every piece of its state — auth status, pipelining windows, the
//! class-summary routing table — is either per-connection and dies with
//! the connection, or a soft cache rebuilt from the next gossip round.
//! Losing a proxy loses connections, never data or A1–A3 legality.
//!
//! One proxy is one [`Proxy`]: a reactor-backed [`FrameServer`] accepting
//! clients, a [`GatewayLink`] slot on the cluster fabric, and a single
//! logic thread marrying the two:
//!
//! * **Auth** — first client frame must be a
//!   [`ProxyClientFrame::Hello`] carrying `auth_token(tenant, secret)`;
//!   anything else is answered [`ProxyServerFrame::Denied`] and the
//!   connection is closed (the denial is flushed first). Tenant
//!   cardinality feeds a HyperLogLog → the `proxy.tenants` gauge.
//! * **Pipelining** — each connection may keep `proxy_pipeline_depth`
//!   ops outstanding; excess ops bounce with
//!   [`ProxyServerFrame::Busy`] instead of queueing unboundedly.
//! * **Batching** — admitted ops accumulate per target server and flush
//!   as one [`AppMsg::ClientBatch`] frame when `proxy_batch_bytes`
//!   accumulate or the event loop goes idle, so 10k trickling clients
//!   become a few dense wire frames.
//! * **Routing** — servers gossip per-class [`ClassSummary`]s
//!   (PR 3); the proxy keeps the latest set per server and routes reads
//!   toward servers whose summaries may match. Summaries are advisory:
//!   any server can execute any op via macro expansion, so a stale
//!   route costs extra hops, never a wrong result.
//! * **Retries** — timed-out idempotent ops (inserts, non-blocking
//!   reads) are re-sent under the same op id to the same server, where
//!   the PR 4 `recent_done` dedup cache (sized for exactly this retry
//!   horizon, `PasoConfig::dedup_cache_ops`) replays instead of
//!   re-executing.
//!
//! Ops flowing through a proxy land in the *same* `client.op.*`
//! counters and A1–A3 trace stream as ops issued through the in-process
//! `Cluster` API — the proxy differential test holds the two paths to
//! identical totals and legality.

#![warn(missing_docs)]

mod client;

pub use client::{read_frame, write_frame, ProxyClient, MAX_FRAME_BYTES};

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paso_core::{
    auth_token, encode, try_decode, AppMsg, ClientOp, ClientRequest, ClientResult,
    ProxyClientFrame, ProxyServerFrame,
};
use paso_runtime::{ClientEvent, ClientId, FrameServer, GatewayLink, TransportTuning};
use paso_simnet::NodeId;
use paso_storage::ClassSummary;
use paso_telemetry::{hash64, HyperLogLog, OpKind, TraceKind};
use paso_types::ClassId;

/// Tuning for one proxy instance. Defaults mirror the `PasoConfig`
/// proxy knobs; construct via [`ProxyOptions::from_config`] to stay in
/// sync with the cluster's derived dedup-cache sizing.
#[derive(Debug, Clone)]
pub struct ProxyOptions {
    /// Shared deployment secret clients must prove knowledge of
    /// (`auth_token(tenant, secret)`).
    pub secret: u64,
    /// Max ops outstanding per client connection before `Busy`.
    pub pipeline_depth: usize,
    /// Flush an [`AppMsg::ClientBatch`] once this many encoded bytes
    /// accumulate for one server.
    pub batch_bytes: usize,
    /// Per-op deadline before the proxy answers `TimedOut` (sliced
    /// across retries exactly like the in-process client API).
    pub op_timeout: Duration,
    /// Idempotent re-sends per op (same op id, same server — the
    /// server's dedup cache absorbs duplicates).
    pub retry_budget: u32,
    /// Cap on a single client frame; connections exceeding it are cut.
    pub max_client_frame: usize,
}

impl Default for ProxyOptions {
    fn default() -> Self {
        ProxyOptions {
            secret: 0,
            pipeline_depth: 32,
            batch_bytes: 16 << 10,
            op_timeout: Duration::from_secs(10),
            retry_budget: 2,
            max_client_frame: 1 << 20,
        }
    }
}

impl ProxyOptions {
    /// Derives the options from the cluster's own configuration so the
    /// proxy's retry horizon matches the servers' dedup-cache sizing.
    pub fn from_config(cfg: &paso_core::PasoConfig, secret: u64) -> Self {
        ProxyOptions {
            secret,
            pipeline_depth: cfg.proxy_pipeline_depth,
            batch_bytes: cfg.proxy_batch_bytes,
            retry_budget: cfg.client_retry_budget,
            ..ProxyOptions::default()
        }
    }
}

/// Floor on the per-attempt wait, mirroring the in-process client API:
/// however the budget slices `op_timeout`, every attempt gets at least
/// this long before the re-send (or the final `TimedOut`) fires.
const MIN_RETRY_SLICE: Duration = Duration::from_millis(1);

/// How long the logic thread parks on the gateway mailbox per loop pass
/// when there is nothing else to do. Bounds idle wakeups without adding
/// meaningful latency under load (any traffic wakes it immediately).
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Per-connection state. Everything here dies with the connection.
struct ConnState {
    /// `Some(tenant)` once the `Hello` was accepted.
    tenant: Option<u64>,
    /// Op ids outstanding on this connection (the pipelining window).
    inflight: BTreeSet<u64>,
}

/// One admitted operation in flight toward the cluster.
struct OpState {
    client: ClientId,
    /// The client's connection-local sequence number, echoed in `Done`.
    seq: u64,
    /// Target server — retries go to the *same* server so its dedup
    /// cache sees the duplicate.
    server: u32,
    /// The request, kept verbatim for idempotent re-sends.
    req: ClientRequest,
    kind: OpKind,
    retryable: bool,
    issued: Instant,
    /// Re-sends performed so far.
    attempts_used: u32,
}

/// A running proxy: accept loop, logic thread, gateway slot.
///
/// Dropping the proxy (or calling [`Proxy::shutdown`]) closes every
/// client connection and joins the logic thread; the gateway slot's
/// mailbox drains with it.
pub struct Proxy {
    port: u16,
    node: NodeId,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proxy")
            .field("port", &self.port)
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl Proxy {
    /// Binds a client listener and starts serving through the given
    /// gateway slot.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn start(link: GatewayLink, opts: ProxyOptions) -> io::Result<Proxy> {
        let server = FrameServer::bind(TransportTuning::default(), opts.max_client_frame)?;
        let port = server.port();
        let node = link.node_id();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("paso-proxy-{}", node.0))
            .spawn(move || Core::new(link, server, opts, flag).run())
            .expect("spawn proxy thread");
        Ok(Proxy {
            port,
            node,
            stop,
            handle: Some(handle),
        })
    }

    /// The client-facing TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The proxy's address on the cluster fabric.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Stops the logic thread, closing every client connection.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The logic thread: owns the frame server, the gateway link, and every
/// map. Single-threaded on purpose — the proxy is a pipeline stage, not
/// a lock hierarchy.
struct Core {
    link: GatewayLink,
    server: FrameServer,
    opts: ProxyOptions,
    stop: Arc<AtomicBool>,
    conns: HashMap<ClientId, ConnState>,
    ops: HashMap<u64, OpState>,
    /// Deadline index: earliest next retry/timeout first.
    deadlines: BTreeSet<(Instant, u64)>,
    /// Per-server pending batch (requests, encoded bytes so far).
    batches: Vec<(Vec<ClientRequest>, usize)>,
    /// Latest gossiped summaries per server — the routing table.
    routes: HashMap<u32, Vec<(ClassId, ClassSummary)>>,
    /// Round-robin cursor for unrouted ops.
    rr: u64,
    /// Connection-lifetime-unique op ids: `(gateway NodeId) << 40 | ctr`,
    /// disjoint from the in-process client API's 0-based counter.
    next_op: u64,
    tenants: HyperLogLog,
    /// Per-attempt wait before a re-send or the final `TimedOut`.
    slice: Duration,
}

impl Core {
    fn new(
        link: GatewayLink,
        server: FrameServer,
        opts: ProxyOptions,
        stop: Arc<AtomicBool>,
    ) -> Core {
        let servers = link.servers();
        let attempts = opts.retry_budget + 1;
        let slice = (opts.op_timeout / attempts).max(MIN_RETRY_SLICE);
        Core {
            link,
            server,
            opts,
            stop,
            conns: HashMap::new(),
            ops: HashMap::new(),
            deadlines: BTreeSet::new(),
            batches: vec![(Vec::new(), 0); servers],
            routes: HashMap::new(),
            rr: 0,
            next_op: 0,
            tenants: HyperLogLog::new(),
            slice,
        }
    }

    fn run(mut self) {
        // Subscription ping: an empty batch teaches every server this
        // gateway's address so summary gossip starts flowing our way.
        for s in 0..self.link.servers() as u32 {
            self.link.send(s, &AppMsg::ClientBatch(Vec::new()));
        }
        while !self.stop.load(Ordering::SeqCst) {
            // 1. Drain client-side events without blocking.
            while let Some(ev) = self.server.try_recv() {
                self.on_client_event(ev);
            }
            // 2. Ship what accumulated.
            self.flush_all();
            // 3. Fire expired deadlines (retries / TimedOut answers).
            self.fire_deadlines();
            // 4. Drain the gateway mailbox without blocking.
            while let Some((from, msg)) = self.link.recv_timeout(Duration::ZERO) {
                self.on_net(from, msg);
            }
            // 5. Park on whichever side wakes the loop next. With ops in
            //    flight their completions arrive on the mailbox; with
            //    none, the only urgent traffic is new client frames
            //    (auth handshakes are latency-sensitive — a connect
            //    storm must not pay the park per Hello). The idle side
            //    tolerates one IDLE_PARK of staleness.
            if self.ops.is_empty() {
                if let Some(ev) = self.server.recv_timeout(IDLE_PARK) {
                    self.on_client_event(ev);
                }
            } else if let Some((from, msg)) = self.link.recv_timeout(IDLE_PARK) {
                self.on_net(from, msg);
            }
        }
    }

    // ---- client side ----------------------------------------------

    fn on_client_event(&mut self, ev: ClientEvent) {
        match ev {
            ClientEvent::Connected(id) => {
                self.conns.insert(
                    id,
                    ConnState {
                        tenant: None,
                        inflight: BTreeSet::new(),
                    },
                );
                self.count("proxy.clients.accepted", 1.0);
                self.set_gauge("proxy.clients.open", self.conns.len() as f64);
            }
            ClientEvent::Disconnected(id) => {
                // In-flight ops keep running; their completions find the
                // client gone and are dropped at the send.
                self.conns.remove(&id);
                self.count("proxy.clients.closed", 1.0);
                self.set_gauge("proxy.clients.open", self.conns.len() as f64);
            }
            ClientEvent::Frame(id, bytes) => {
                self.count("proxy.frames.in", 1.0);
                match try_decode::<ProxyClientFrame>(&bytes) {
                    Ok(frame) => self.on_client_frame(id, frame),
                    Err(_) => {
                        self.count("wire.decode.error", 1.0);
                        self.deny(id);
                    }
                }
            }
        }
    }

    fn on_client_frame(&mut self, id: ClientId, frame: ProxyClientFrame) {
        match frame {
            ProxyClientFrame::Hello { tenant, token } => {
                let authed = self.conns.get(&id).is_some_and(|c| c.tenant.is_some());
                if authed || token != auth_token(tenant, self.opts.secret) {
                    self.deny(id);
                    return;
                }
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.tenant = Some(tenant);
                }
                self.tenants.insert(hash64(tenant));
                self.set_gauge("proxy.tenants", self.tenants.estimate());
                self.reply(id, &ProxyServerFrame::Welcome);
            }
            ProxyClientFrame::Op { seq, op } => {
                let (authed, window_full) = match self.conns.get(&id) {
                    Some(c) => (
                        c.tenant.is_some(),
                        c.inflight.len() >= self.opts.pipeline_depth,
                    ),
                    None => return,
                };
                if !authed {
                    // Ops before Hello are an auth failure, not traffic.
                    self.deny(id);
                    return;
                }
                if window_full {
                    self.count("proxy.backpressure", 1.0);
                    self.reply(id, &ProxyServerFrame::Busy { seq });
                    return;
                }
                self.admit(id, seq, op);
            }
        }
    }

    /// Admits one op: assigns its cluster-wide id, does the issue-time
    /// accounting (identical to the in-process client API), routes it,
    /// and queues it for the next batch flush.
    fn admit(&mut self, id: ClientId, seq: u64, op: ClientOp) {
        let op_id = (u64::from(self.link.node_id().0) << 40) | self.next_op;
        self.next_op += 1;
        let kind = op.trace_kind();
        self.count(kind.issued_counter(), 1.0);
        self.link.trace_buf().record(
            self.link.now_micros(),
            self.link.node_id().0,
            op.trace_begin(op_id),
        );
        let retryable = matches!(
            op,
            ClientOp::Insert { .. }
                | ClientOp::Read {
                    blocking: false,
                    ..
                }
        );
        let server = self.route(&op);
        let req = ClientRequest { op_id, op };
        let now = Instant::now();
        let st = OpState {
            client: id,
            seq,
            server,
            req,
            kind,
            retryable,
            issued: now,
            attempts_used: 0,
        };
        self.enqueue(server, st.req.clone());
        self.deadlines.insert((now + self.slice_of(&st), op_id));
        self.ops.insert(op_id, st);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inflight.insert(op_id);
        }
    }

    /// Picks a target server. Reads prefer servers whose gossiped class
    /// summaries may hold a match; everything else (and every insert)
    /// round-robins. Purely advisory — a miss costs hops, not answers.
    fn route(&mut self, op: &ClientOp) -> u32 {
        let servers = self.link.servers() as u64;
        self.rr += 1;
        let sc = match op {
            ClientOp::Read { sc, .. } | ClientOp::ReadDel { sc, .. } => sc,
            ClientOp::Insert { .. } => return (self.rr % servers) as u32,
        };
        let candidates: Vec<u32> = self
            .routes
            .iter()
            .filter(|(_, summaries)| {
                summaries
                    .iter()
                    .any(|(_, s)| !s.is_empty() && s.may_match(sc))
            })
            .map(|(server, _)| *server)
            .collect();
        if candidates.is_empty() {
            (self.rr % servers) as u32
        } else {
            let mut picked: Vec<u32> = candidates;
            picked.sort_unstable();
            picked[(self.rr % picked.len() as u64) as usize]
        }
    }

    // ---- batching --------------------------------------------------

    fn enqueue(&mut self, server: u32, req: ClientRequest) {
        self.count("proxy.ops.forwarded", 1.0);
        let bytes = paso_wire::Wire::encoded_len(&req);
        let slot = &mut self.batches[server as usize];
        slot.0.push(req);
        slot.1 += bytes;
        if slot.1 >= self.opts.batch_bytes {
            self.flush(server);
        }
    }

    fn flush(&mut self, server: u32) {
        let (reqs, bytes) = std::mem::take(&mut self.batches[server as usize]);
        if reqs.is_empty() {
            return;
        }
        self.count("proxy.batch.flushes", 1.0);
        self.record("proxy.batch.ops", reqs.len() as u64);
        self.record("proxy.batch.bytes", bytes as u64);
        self.link.send(server, &AppMsg::ClientBatch(reqs));
    }

    fn flush_all(&mut self) {
        for s in 0..self.batches.len() as u32 {
            self.flush(s);
        }
    }

    // ---- cluster side ----------------------------------------------

    fn on_net(&mut self, from: NodeId, msg: AppMsg) {
        match msg {
            AppMsg::Done(done) => self.on_done(done.op_id, done.result),
            AppMsg::SummaryGossip { summaries } => {
                self.count("proxy.gossip.recv", 1.0);
                self.routes.insert(from.0, summaries);
            }
            // Anything else addressed at a gateway is a stray.
            _ => self.count("wire.decode.error", 1.0),
        }
    }

    fn on_done(&mut self, op_id: u64, result: ClientResult) {
        let Some(st) = self.ops.remove(&op_id) else {
            // A retry's duplicate answer — the first one already went
            // back to the client.
            self.count("client.dup_answers", 1.0);
            return;
        };
        self.deadlines.remove(&(
            st.issued + self.slice_of(&st) * (st.attempts_used + 1),
            op_id,
        ));
        self.finish(st, result);
    }

    /// The per-attempt wait for one op: retryable ops slice the deadline
    /// across their budget (as the in-process client API does),
    /// exactly-once ops get the whole timeout for their single attempt.
    fn slice_of(&self, st: &OpState) -> Duration {
        if st.retryable {
            self.slice
        } else {
            self.opts.op_timeout.max(MIN_RETRY_SLICE)
        }
    }

    /// Completes one op toward the client: latency + trace + reply.
    fn finish(&mut self, st: OpState, result: ClientResult) {
        self.count("proxy.ops.completed", 1.0);
        let lat = st.issued.elapsed().as_micros() as u64;
        self.record("proxy.op.latency_micros", lat);
        self.record(st.kind.latency_histogram(), lat);
        self.link.trace_buf().record(
            self.link.now_micros(),
            self.link.node_id().0,
            TraceKind::OpEnd {
                op_id: st.req.op_id,
                op: st.kind,
                outcome: result.trace_outcome(),
            },
        );
        if let Some(conn) = self.conns.get_mut(&st.client) {
            conn.inflight.remove(&st.req.op_id);
        }
        self.reply(
            st.client,
            &ProxyServerFrame::Done {
                seq: st.seq,
                result,
            },
        );
    }

    // ---- deadlines -------------------------------------------------

    fn fire_deadlines(&mut self) {
        let now = Instant::now();
        loop {
            let Some(&(at, op_id)) = self.deadlines.iter().next() else {
                return;
            };
            if at > now {
                return;
            }
            self.deadlines.remove(&(at, op_id));
            let Some(st) = self.ops.get_mut(&op_id) else {
                continue; // already completed
            };
            if st.retryable && st.attempts_used < self.opts.retry_budget {
                st.attempts_used += 1;
                let server = st.server;
                let req = st.req.clone();
                let next = st.issued + self.slice * (st.attempts_used + 1);
                self.deadlines.insert((next, op_id));
                self.count("proxy.retries", 1.0);
                self.count("client.retries", 1.0);
                // Same op id, same server: the dedup cache turns a
                // merely-slow first execution into a replay.
                self.enqueue(server, req);
            } else {
                let st = self.ops.remove(&op_id).expect("checked above");
                self.finish(st, ClientResult::TimedOut);
            }
        }
    }

    // ---- plumbing --------------------------------------------------

    /// Sends a denial and kicks the connection; the kick-drain ordering
    /// in the reactor guarantees the denial still reaches the wire.
    fn deny(&mut self, id: ClientId) {
        self.count("proxy.auth.denied", 1.0);
        self.reply(id, &ProxyServerFrame::Denied);
        self.server.kick(id);
    }

    fn reply(&mut self, id: ClientId, frame: &ProxyServerFrame) {
        let _ = self.server.send(id, encode(frame));
    }

    fn count(&self, name: &'static str, delta: f64) {
        self.link.telemetry().count(name, delta);
    }

    fn set_gauge(&self, name: &'static str, value: f64) {
        self.link.telemetry().gauge(name).set(value);
    }

    fn record(&self, name: &'static str, value: u64) {
        self.link.telemetry().record(name, value);
    }
}
