//! The simulated PASO system: machines + servers + vsync + faults, under
//! one deterministic harness.
//!
//! [`SimSystem`] is the top-level entry point for experiments and tests:
//! it wires a [`MemoryServer`] per machine into the virtual-synchrony
//! layer, runs them over the discrete-event bus LAN, injects client
//! operations, collects results, and records everything in a
//! [`RunLog`] for the semantics checker.

use std::collections::BTreeMap;
use std::sync::Arc;

use paso_durable::{DurabilityHub, DurableConfig};
use paso_simnet::{Engine, EngineConfig, FaultScript, MachineStatus, NodeId, SimTime, Stats};
use paso_telemetry::{Telemetry, TraceBuf, TraceEvent, TraceKind};
use paso_types::{ClassId, Classifier, ObjectId, PasoObject, ProcessId, SearchCriterion, Value};
use paso_vsync::{VsyncConfig, VsyncNode};

use crate::config::PasoConfig;
use crate::groups::{assign_basic_support, initial_groups, wg_group};
use crate::semantics::{check_run, RunLog, SemanticsReport};
use crate::server::MemoryServer;
use crate::wire::{encode, AppMsg, ClientDone, ClientOp, ClientRequest, ClientResult};

/// Per-class snapshot of replication state (observability).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// The class.
    pub class: paso_types::ClassId,
    /// Machines currently replicating the class (holding its store).
    pub replicas: Vec<u32>,
    /// The configured basic support `B(C)`.
    pub basic: Vec<u32>,
    /// Live objects in the class (as seen by the first replica).
    pub live: usize,
}

/// A whole-system snapshot: replication state per class plus machine
/// health — what an operator's dashboard would show.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemReport {
    /// Per-class state.
    pub classes: Vec<ClassReport>,
    /// Machines currently up.
    pub up: Vec<u32>,
    /// Does the §4.1 fault-tolerance condition hold?
    pub fault_tolerance_ok: bool,
}

/// Pre-registers the durability metric family on a telemetry registry so
/// both substrates (simnet and live) expose the identical schema — every
/// `wal.*` / `join.*` name, with its counter-vs-histogram kind — even
/// before the first crash or join exercises it.
pub fn register_durability_metrics(telemetry: &Telemetry) {
    for c in [
        "wal.compactions",
        "wal.recovered_records",
        "join.delta_hit",
        "join.full_xfer",
    ] {
        telemetry.counter(c);
    }
    telemetry.counter("wal.append_bytes");
    for h in [
        "wal.fsync_micros",
        "join.transfer_bytes",
        "join.latency_micros",
    ] {
        telemetry.histogram(h);
    }
}

/// Pre-registers the proxy-tier metric family (`proxy.*`) so both
/// substrates expose the identical schema whenever gateway slots are
/// configured — the simulator has no live proxies, but dashboards built
/// against either driver must read the other unchanged (same contract as
/// [`register_durability_metrics`]).
pub fn register_proxy_metrics(telemetry: &Telemetry) {
    for c in [
        "proxy.clients.accepted",
        "proxy.clients.closed",
        "proxy.auth.denied",
        "proxy.frames.in",
        "proxy.ops.forwarded",
        "proxy.ops.completed",
        "proxy.retries",
        "proxy.backpressure",
        "proxy.batch.flushes",
        "proxy.gossip.recv",
    ] {
        telemetry.counter(c);
    }
    for g in ["proxy.clients.open", "proxy.tenants"] {
        telemetry.gauge(g);
    }
    for h in [
        "proxy.batch.ops",
        "proxy.batch.bytes",
        "proxy.op.latency_micros",
    ] {
        telemetry.histogram(h);
    }
}

impl std::fmt::Display for SystemReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "up: {:?}  fault-tolerance: {}",
            self.up,
            if self.fault_tolerance_ok {
                "OK"
            } else {
                "VIOLATED"
            }
        )?;
        for c in &self.classes {
            writeln!(
                f,
                "  {}: ℓ={} replicas={:?} basic={:?}",
                c.class, c.live, c.replicas, c.basic
            )?;
        }
        Ok(())
    }
}

/// A complete simulated PASO deployment.
///
/// # Examples
///
/// ```
/// use paso_core::{PasoConfig, SimSystem};
/// use paso_types::{SearchCriterion, Template, Value};
///
/// let mut sys = SimSystem::new(PasoConfig::builder(4, 1).build());
/// sys.insert(0, vec![Value::symbol("job"), Value::Int(1)]);
/// let sc = SearchCriterion::from(Template::exact(vec![
///     Value::symbol("job"),
///     Value::Int(1),
/// ]));
/// let got = sys.read(2, sc).expect("object is visible from any machine");
/// assert_eq!(got.field(1), Some(&Value::Int(1)));
/// assert!(sys.check_semantics().ok());
/// ```
pub struct SimSystem {
    engine: Engine<VsyncNode<MemoryServer>>,
    cfg: Arc<PasoConfig>,
    hub: Option<Arc<DurabilityHub>>,
    classifier: Box<dyn Classifier>,
    next_op: u64,
    next_obj: u64,
    log: RunLog,
    done: BTreeMap<u64, ClientResult>,
}

impl std::fmt::Debug for SimSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSystem")
            .field("n", &self.cfg.n)
            .field("now", &self.engine.now())
            .field("ops_issued", &self.next_op)
            .finish_non_exhaustive()
    }
}

impl SimSystem {
    /// Builds and starts the system.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn new(cfg: PasoConfig) -> Self {
        cfg.validate().expect("invalid PasoConfig");
        let cfg = Arc::new(cfg);
        let classifier = cfg.classifier.build();
        let classes = classifier.classes();
        let support = assign_basic_support(cfg.n, cfg.lambda, &classes);
        let groups = initial_groups(&support);
        let basic: BTreeMap<ClassId, Vec<NodeId>> = support.into_iter().collect();
        let vcfg = VsyncConfig {
            initial_groups: groups,
            log_horizon: cfg.log_horizon,
            ..VsyncConfig::default()
        };
        let engine_cfg = EngineConfig {
            n: cfg.n,
            cost_model: cfg.cost_model,
            seed: cfg.seed,
            init_min: cfg.init_min,
            init_max: cfg.init_max,
            record_trace: false,
            net: cfg.net_model.clone(),
            fault_plan: cfg.fault_plan.clone(),
            churn: cfg.churn,
            membership_oracle: cfg.membership_oracle,
        };
        // Simulated deployments always use the in-memory WAL medium:
        // crash-survival is modeled (a crashed actor is rebuilt but its
        // hub-held log persists), and fsync cost comes from the
        // deterministic model in `paso-durable`.
        let hub = cfg.durable.then(|| {
            DurabilityHub::new_mem(DurableConfig {
                durability_interval_micros: cfg.durability_interval_micros,
                snapshot_every: cfg.wal_snapshot_every,
            })
        });
        let cfg_for_factory = Arc::clone(&cfg);
        let hub_for_factory = hub.clone();
        let engine = Engine::new(engine_cfg, move |id| {
            let node = VsyncNode::new(
                id,
                vcfg.clone(),
                MemoryServer::new(id, Arc::clone(&cfg_for_factory), basic.clone()),
            );
            match &hub_for_factory {
                Some(h) => node.with_wal(h.handle(id.0)),
                None => node,
            }
        });
        if hub.is_some() {
            register_durability_metrics(engine.telemetry());
        }
        if cfg.proxy_slots > 0 {
            register_proxy_metrics(engine.telemetry());
        }
        SimSystem {
            engine,
            cfg,
            hub,
            classifier,
            next_op: 0,
            next_obj: 0,
            log: RunLog::new(),
            done: BTreeMap::new(),
        }
    }

    /// The shared durability hub, when `cfg.durable` is set — exposes
    /// per-node WAL byte accounting for experiments.
    pub fn durability_hub(&self) -> Option<&Arc<DurabilityHub>> {
        self.hub.as_ref()
    }

    /// The configuration in force.
    pub fn config(&self) -> &PasoConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Simulation statistics (message cost, work, faults…).
    pub fn stats(&self) -> &Stats {
        self.engine.stats()
    }

    /// The run log for semantics checking.
    pub fn run_log(&self) -> &RunLog {
        &self.log
    }

    /// The unified metrics registry (same metric names as the live
    /// runtime's `Cluster::telemetry()`).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.engine.telemetry()
    }

    /// The structured trace stream, stamped with sim-time micros.
    pub fn trace_buf(&self) -> &Arc<TraceBuf> {
        self.engine.trace_buf()
    }

    /// Copy of the recorded trace events — feed to
    /// [`paso_telemetry::check_trace`] for an A1–A3 verdict.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.engine.trace_buf().events()
    }

    /// The memory server on `node` (for state assertions).
    pub fn server(&self, node: u32) -> &MemoryServer {
        self.engine.actor(NodeId(node)).app()
    }

    /// The classifier (the global `obj-clss` / `sc-list`).
    pub fn classifier(&self) -> &dyn Classifier {
        self.classifier.as_ref()
    }

    /// Machine status (up / crashed / initializing).
    pub fn status(&self, node: u32) -> MachineStatus {
        self.engine.status(NodeId(node))
    }

    fn inject_request(&mut self, node: u32, op: ClientOp) -> u64 {
        assert!(
            self.engine.status(NodeId(node)).is_up(),
            "m{node} is down: processes on crashed machines are halted (§3.1) and cannot issue requests"
        );
        let op_id = self.next_op;
        self.next_op += 1;
        self.log
            .issued(op_id, NodeId(node), op.clone(), self.engine.now());
        self.engine
            .telemetry()
            .count(op.trace_kind().issued_counter(), 1.0);
        self.engine
            .trace_buf()
            .record(self.engine.now().as_micros(), node, op.trace_begin(op_id));
        let req = ClientRequest { op_id, op };
        self.engine.inject(
            self.engine.now(),
            NodeId(node),
            paso_vsync::NetMsg::App(encode(&AppMsg::Client(req))),
        );
        op_id
    }

    /// Issues an `insert` of a fresh object with the given fields from a
    /// process on `node`; returns `(op id, object id)`.
    pub fn issue_insert(&mut self, node: u32, fields: Vec<Value>) -> (u64, ObjectId) {
        let id = ObjectId::new(ProcessId(node as u64), self.next_obj);
        self.next_obj += 1;
        let object = PasoObject::new(id, fields);
        (self.inject_request(node, ClientOp::Insert { object }), id)
    }

    /// Issues a non-blocking (or blocking) `read`.
    pub fn issue_read(&mut self, node: u32, sc: SearchCriterion, blocking: bool) -> u64 {
        self.inject_request(node, ClientOp::Read { sc, blocking })
    }

    /// Issues a non-blocking (or blocking) `read&del`.
    pub fn issue_read_del(&mut self, node: u32, sc: SearchCriterion, blocking: bool) -> u64 {
        self.inject_request(node, ClientOp::ReadDel { sc, blocking })
    }

    /// Re-injects an already-issued request under the **same** op id —
    /// what a timed-out client's retry (or a proxy's idempotent
    /// re-forward) puts on the wire. The server must recognise the id in
    /// its `recent_done` dedup cache and replay the cached result; if
    /// the id has been evicted, the request executes again, which for an
    /// insert duplicates the object. No `client.op.*` counter or
    /// `OpBegin` trace is recorded: a retry is the *same* op.
    ///
    /// # Panics
    ///
    /// Panics if `op` was never issued or its machine is down.
    pub fn resend(&mut self, op: u64) {
        let rec = self.log.get(op).expect("resend of an op never issued");
        let (node, body) = (rec.node, rec.op.clone());
        assert!(
            self.engine.status(node).is_up(),
            "m{} is down: a halted machine cannot re-issue requests",
            node.0
        );
        self.engine.telemetry().count("client.retries", 1.0);
        let req = ClientRequest {
            op_id: op,
            op: body,
        };
        self.engine.inject(
            self.engine.now(),
            node,
            paso_vsync::NetMsg::App(encode(&AppMsg::Client(req))),
        );
    }

    fn pump(&mut self) {
        for (time, _node, ClientDone { op_id, result }) in self.engine.take_outputs() {
            if let Some(rec) = self.log.get(op_id) {
                if rec.returned.is_some() {
                    // A retry's duplicate answer: the op already
                    // returned to the client. Dropped and counted, the
                    // same way the live cluster's done-map eviction
                    // discards answers nobody is waiting for.
                    self.engine.telemetry().count("client.dup_answers", 1.0);
                    continue;
                }
                let kind = rec.op.trace_kind();
                let lat = time.saturating_since(rec.issued).as_micros();
                self.engine
                    .telemetry()
                    .record(kind.latency_histogram(), lat);
                self.engine.trace_buf().record(
                    time.as_micros(),
                    rec.node.0,
                    TraceKind::OpEnd {
                        op_id,
                        op: kind,
                        outcome: result.trace_outcome(),
                    },
                );
            }
            self.log.returned(op_id, result.clone(), time);
            self.done.insert(op_id, result);
        }
    }

    /// Has `op` completed? Returns its result if so.
    pub fn poll(&mut self, op: u64) -> Option<ClientResult> {
        self.pump();
        self.done.get(&op).cloned()
    }

    /// Steps the simulation until `op` completes. Returns `None` if the
    /// event queue drains or `max_events` are processed first (which, for
    /// a non-blocking op, indicates a protocol bug).
    pub fn wait(&mut self, op: u64, max_events: u64) -> Option<ClientResult> {
        let mut processed = 0u64;
        loop {
            self.pump();
            if let Some(r) = self.done.get(&op) {
                return Some(r.clone());
            }
            if processed >= max_events || !self.engine.step() {
                self.pump();
                return self.done.get(&op).cloned();
            }
            processed += 1;
        }
    }

    /// Synchronous `insert`: issues and waits.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not complete (protocol bug).
    pub fn insert(&mut self, node: u32, fields: Vec<Value>) -> ObjectId {
        let cost0 = self.engine.stats().total_msg_cost;
        let (op, id) = self.issue_insert(node, fields);
        let r = self.wait(op, 1_000_000).expect("insert must complete");
        assert!(matches!(r, ClientResult::Inserted), "insert failed: {r:?}");
        self.record_op_cost("op.insert.msg_cost", cost0);
        id
    }

    /// Attributes the marginal bus cost since `cost0` to one synchronous
    /// operation (the Figure 1 per-primitive measurement: ops are
    /// serialized, so the delta is exactly this op's expansion).
    fn record_op_cost(&mut self, hist: &'static str, cost0: f64) {
        let delta = self.engine.stats().total_msg_cost - cost0;
        self.engine.telemetry().record(hist, delta.round() as u64);
    }

    /// Synchronous non-blocking `read`.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not complete.
    pub fn read(&mut self, node: u32, sc: SearchCriterion) -> Option<PasoObject> {
        let cost0 = self.engine.stats().total_msg_cost;
        let op = self.issue_read(node, sc, false);
        let r = self.wait(op, 1_000_000).expect("read must complete");
        self.record_op_cost("op.read.msg_cost", cost0);
        match r {
            ClientResult::Found(o) => Some(o),
            _ => None,
        }
    }

    /// Synchronous non-blocking `read&del`.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not complete.
    pub fn read_del(&mut self, node: u32, sc: SearchCriterion) -> Option<PasoObject> {
        let cost0 = self.engine.stats().total_msg_cost;
        let op = self.issue_read_del(node, sc, false);
        let r = self.wait(op, 1_000_000).expect("read&del must complete");
        self.record_op_cost("op.readdel.msg_cost", cost0);
        match r {
            ClientResult::Found(o) => Some(o),
            _ => None,
        }
    }

    /// Runs the simulation for `d` of simulated time.
    pub fn run_for(&mut self, d: SimTime) {
        let until = self.engine.now() + d;
        self.engine.run_until(until);
        self.pump();
    }

    /// Runs until the event queue drains (panics after `max_events`).
    pub fn settle(&mut self, max_events: u64) {
        self.engine.run_to_quiescence(max_events);
        self.pump();
    }

    /// Crashes a machine now (memory erased, §3.1).
    pub fn crash(&mut self, node: u32) {
        self.engine.crash_now(NodeId(node));
    }

    /// Repairs a machine now; it rejoins after its initialization phase.
    pub fn repair(&mut self, node: u32) {
        self.engine.repair_now(NodeId(node));
    }

    /// Applies a pre-built fault script.
    pub fn apply_faults(&mut self, script: &FaultScript) {
        self.engine.apply_faults(script);
    }

    /// Checks the recorded run against the §2 semantics (Theorem 1,
    /// executable).
    pub fn check_semantics(&self) -> SemanticsReport {
        check_run(&self.log)
    }

    /// Takes a whole-system observability snapshot.
    pub fn report(&self) -> SystemReport {
        let up: Vec<u32> = (0..self.cfg.n as u32)
            .filter(|m| self.engine.status(NodeId(*m)).is_up())
            .collect();
        let classes = self
            .classifier
            .classes()
            .into_iter()
            .map(|class| {
                let replicas: Vec<u32> = up
                    .iter()
                    .copied()
                    .filter(|m| self.engine.actor(NodeId(*m)).is_member_of(wg_group(class)))
                    .collect();
                let live = replicas
                    .first()
                    .map_or(0, |m| self.server(*m).store_len(class));
                let basic: Vec<u32> = (0..self.cfg.n as u32)
                    .filter(|m| self.server(*m).is_basic(class))
                    .collect();
                ClassReport {
                    class,
                    replicas,
                    basic,
                    live,
                }
            })
            .collect();
        SystemReport {
            classes,
            up,
            fault_tolerance_ok: self.fault_tolerance_ok(),
        }
    }

    /// Verifies the fault-tolerance condition (§4.1) for every class, as
    /// seen by the lowest live machine: with `k` failed machines, every
    /// write group must keep more than `λ − k` live members.
    pub fn fault_tolerance_ok(&self) -> bool {
        let up: Vec<NodeId> = (0..self.cfg.n as u32)
            .map(NodeId)
            .filter(|m| self.engine.status(*m).is_up())
            .collect();
        let failed = self.cfg.n - up.len();
        if failed > self.cfg.lambda {
            return true; // outside the model's assumption; vacuous
        }
        for class in self.classifier.classes() {
            // Observe the view from a live *member* — non-members hold
            // only stale contact caches.
            let group = wg_group(class);
            let live = up
                .iter()
                .find(|m| self.engine.actor(**m).is_member_of(group))
                .map_or(0, |observer| {
                    self.engine
                        .actor(*observer)
                        .view_of(group)
                        .map_or(0, |v| v.members().filter(|m| up.contains(m)).count())
                });
            if live + failed <= self.cfg.lambda {
                return false;
            }
        }
        true
    }
}
