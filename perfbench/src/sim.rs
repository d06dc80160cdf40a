//! The simulated stack: `SimSystem` with churn on a switched fabric,
//! stepped on one thread. Each repetition replays the same seeded run,
//! so every count repeats exactly and only wall-clock time varies.
//!
//! On the current program this workload's gate trips on every seed tried
//! (1–3), so `BENCHMARK.json` does not register it:
//! - `check_semantics` reports `IllegalFail` (a read misses an object
//!   that was live throughout) on 0.2–0.7% of ops. It needs only
//!   concurrent ops and adaptive replication: it shows without churn and
//!   goes away with `adaptive(false)` or with one op in flight at a time.
//! - `check_trace` reports `ReadBeforeInsert` for objects whose insert
//!   was lost with its crashed issuer: the insert took effect, but its
//!   `OpBegin` has no `OpEnd`, so the checker never learns of it.
//! - Some seeds leave an op unanswered on a live machine with the event
//!   queue empty (seed 3).

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use paso_adaptive::Event;
use paso_core::{ClassifierKind, PasoConfig, SimSystem};
use paso_simnet::{ChurnModel, DelayDist, LatencyModel, NetModel, SimTime};
use paso_telemetry::TraceKind;
use paso_types::ClassId;
use paso_wire::mini_json::Json;

use crate::gen::{GenOp, Mix, OpGen, Shape};
use crate::layers::{self, Delta};
use crate::spans::Spans;
use crate::stats::{median, per_op, ratio, Quantiles};
use crate::tally::{judge, Tally, Verdict};
use crate::{Args, Outcome};

const N: usize = 8;
const LAMBDA: usize = 2;
const CLASSES: u32 = 16;
const SHAPE: Shape = Shape::Keyed;
const MIX: Mix = Mix {
    read: 50,
    insert: 25,
    read_del: 25,
};
/// Objects across all classes (32 per class).
const STORE: usize = 512;
/// Ops issued per repetition, one every `OP_GAP_MICROS` of sim time.
const OPS: u64 = 12_000;
const OP_GAP_MICROS: u64 = 500;
/// Sim time the drain may take before an unanswered op is a hang.
const DRAIN_CAP_MS: u64 = 30_000;
const DRAIN_STEP_MS: u64 = 10;
/// Fewest repetitions an untraced run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

fn latency_model() -> LatencyModel {
    LatencyModel::uniform(DelayDist::uniform(50, 150)).with_jitter(DelayDist::uniform(0, 50))
}

fn churn() -> ChurnModel {
    ChurnModel::new(0.5, SimTime::from_millis(200), LAMBDA)
}

fn config(seed: u64) -> PasoConfig {
    PasoConfig::builder(N, LAMBDA)
        .seed(seed)
        .classifier(ClassifierKind::FirstField(CLASSES))
        .durable(true)
        .net_model(NetModel::Switched(latency_model()))
        .churn(churn())
        .build()
}

/// What one repetition measured.
struct Rep {
    sys: SimSystem,
    setup_s: f64,
    drive_s: f64,
    tally: Tally,
    lat_ms: Vec<f64>,
    /// Registry before the measured drive (after set-up).
    before: paso_telemetry::Snapshot,
    events_before: u64,
    trace_mark: usize,
    sequences: Vec<Vec<Event>>,
    hangs: u64,
    prefill: Tally,
}

struct Pending {
    op: GenOp,
    node: u32,
    issued: SimTime,
}

/// Issues `ops` on the sim-time schedule from random up machines, then
/// drains. Ops whose machine crashes before they return are lost with
/// it and counted as failed.
struct SimClient<'a> {
    sys: &'a mut SimSystem,
    rng: crate::gen::Rng,
    pending: HashMap<u64, Pending>,
    tally: Tally,
    lat_ms: Vec<f64>,
    classes: BTreeMap<ClassId, Vec<u32>>,
    sequences: BTreeMap<ClassId, Vec<Event>>,
    record_model: bool,
}

impl SimClient<'_> {
    fn issue(&mut self, op: GenOp) {
        let up: Vec<u32> = (0..N as u32)
            .filter(|m| self.sys.status(*m).is_up())
            .collect();
        let node = up[self.rng.below(up.len() as u64) as usize];
        let issued = self.sys.now();
        if self.record_model {
            let class = self.sys.classifier().classify(&SHAPE.object(op.key()));
            let failed = self.classes[&class]
                .iter()
                .filter(|m| !self.sys.status(**m).is_up())
                .count() as u64;
            self.sequences
                .entry(class)
                .or_default()
                .push(layers::model_event(op, failed));
        }
        let id = match op {
            GenOp::Insert(k) => self.sys.issue_insert(node, SHAPE.fields(k)).0,
            GenOp::Read(k) => self.sys.issue_read(node, SHAPE.criterion(k), false),
            GenOp::ReadDel(k) => self.sys.issue_read_del(node, SHAPE.criterion(k), false),
        };
        self.tally.attempted += 1;
        self.pending.insert(id, Pending { op, node, issued });
    }

    /// Collects answers; drops ops whose machine is down (lost with it).
    fn collect(&mut self) {
        let ids: Vec<u64> = self.pending.keys().copied().collect();
        for id in ids {
            if let Some(result) = self.sys.poll(id) {
                let p = self.pending.remove(&id).expect("pending op");
                let v = judge(SHAPE, p.op, &result);
                if v == Verdict::Ok {
                    let ret = self
                        .sys
                        .run_log()
                        .get(id)
                        .and_then(|r| r.returned)
                        .expect("returned op");
                    self.lat_ms
                        .push(ret.saturating_since(p.issued).as_micros() as f64 / 1e3);
                }
                self.tally.count(v);
            } else if !self.sys.status(self.pending[&id].node).is_up() {
                self.pending.remove(&id);
                self.tally.count(Verdict::Failed);
            }
        }
    }

    fn drive(&mut self, ops: impl Iterator<Item = GenOp>, spans: &Spans, phase: Option<usize>) {
        let mut due = self.sys.now();
        for (i, op) in ops.enumerate() {
            due += SimTime::from_micros(OP_GAP_MICROS);
            let step = due.saturating_since(self.sys.now());
            spans.time("sim.step", i as u64, phase, || self.sys.run_for(step));
            self.collect();
            spans.time("sim.issue", i as u64, phase, || self.issue(op));
        }
        let cap = self.sys.now() + SimTime::from_millis(DRAIN_CAP_MS);
        while !self.pending.is_empty() && self.sys.now() < cap {
            let before = self.sys.now();
            self.sys.run_for(SimTime::from_millis(DRAIN_STEP_MS));
            self.collect();
            if self.sys.now() == before {
                break; // no events left: nothing can answer what is pending
            }
        }
    }

    /// Ops still pending after the drain whose machine crashed (and came
    /// back) meanwhile are lost too; any other is a hang.
    fn settle_lost(&mut self) -> u64 {
        let mut crashes: HashMap<u32, Vec<u64>> = HashMap::new();
        for ev in self.sys.trace_events() {
            if ev.kind == TraceKind::Crash {
                crashes.entry(ev.node).or_default().push(ev.at_micros);
            }
        }
        let mut hangs = 0;
        for (_, p) in self.pending.drain() {
            let lost = crashes
                .get(&p.node)
                .is_some_and(|c| c.iter().any(|t| *t >= p.issued.as_micros()));
            if lost {
                self.tally.count(Verdict::Failed);
            } else {
                hangs += 1;
            }
        }
        hangs
    }
}

fn repetition(seed: u64, spans: &Spans) -> Rep {
    let t = Instant::now();
    let mut sys = SimSystem::new(config(seed));
    let classes: BTreeMap<ClassId, Vec<u32>> = sys
        .classifier()
        .classes()
        .into_iter()
        .map(|c| {
            (
                c,
                (0..N as u32)
                    .filter(|m| sys.server(*m).is_basic(c))
                    .collect(),
            )
        })
        .collect();
    let mut gen = OpGen::new(seed, MIX, STORE);
    let fill_ops: Vec<GenOp> = (0..STORE).map(|_| gen.insert()).collect();
    let ops: Vec<GenOp> = (0..OPS).map(|_| gen.next_op()).collect();
    let (prefill, fill_hangs);
    {
        let mut d = SimClient {
            sys: &mut sys,
            rng: crate::gen::Rng::new(seed ^ 1),
            pending: HashMap::new(),
            tally: Tally::default(),
            lat_ms: Vec::new(),
            classes: classes.clone(),
            sequences: BTreeMap::new(),
            record_model: false,
        };
        d.drive(fill_ops.into_iter(), &Spans::new(false), None);
        fill_hangs = d.settle_lost();
        prefill = d.tally;
    }
    let setup_s = t.elapsed().as_secs_f64();

    let before = sys.telemetry().snapshot();
    let events_before = sys.stats().events_processed;
    let trace_mark = sys.trace_buf().len();
    let t = Instant::now();
    let phase = spans.open("phase.sim");
    let mut d = SimClient {
        sys: &mut sys,
        rng: crate::gen::Rng::new(seed ^ 2),
        pending: HashMap::new(),
        tally: Tally::default(),
        lat_ms: Vec::new(),
        classes,
        sequences: BTreeMap::new(),
        record_model: true,
    };
    d.drive(ops.into_iter(), spans, phase);
    let drive_s = t.elapsed().as_secs_f64();
    spans.close(phase);
    let hangs = d.settle_lost() + fill_hangs;
    let (tally, lat_ms) = (d.tally, std::mem::take(&mut d.lat_ms));
    let sequences = std::mem::take(&mut d.sequences).into_values().collect();
    Rep {
        sys,
        setup_s,
        drive_s,
        tally,
        lat_ms,
        before,
        events_before,
        trace_mark,
        sequences,
        hangs,
        prefill,
    }
}

fn ops_per_s(rep: &Rep) -> f64 {
    ratio(rep.tally.ok as f64, rep.drive_s)
}

pub fn run(args: &Args) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let spans = Spans::new(args.trace);
    let quiet = Spans::new(false);
    let sim_seed = args.seed;

    let first = repetition(sim_seed, &quiet);
    let mut reps = vec![first];
    let t = Instant::now();
    if args.trace {
        reps.push(repetition(sim_seed, &spans));
    } else {
        while reps.len() < MIN_REPS
            || t.elapsed().as_secs_f64() + reps[0].setup_s + reps[0].drive_s < args.seconds
        {
            reps.push(repetition(sim_seed, &quiet));
        }
    }
    // Every repetition is the same seeded run: identical counts.
    for r in &reps[1..] {
        if r.sys.stats().events_processed != reps[0].sys.stats().events_processed
            || r.tally.ok != reps[0].tally.ok
        {
            out.fail("repetitions of one seed diverged".into());
        }
    }

    let rep = reps.last().expect("one repetition");
    let sys = &rep.sys;
    let events = sys.trace_events();
    let window = &events[rep.trace_mark.min(events.len())..];
    let lat = Quantiles::new(rep.lat_ms.clone());
    let cfg = sys.config();
    let (basic, bound) = layers::basic_ratio(&rep.sequences, cfg.lambda as u64, cfg.k_join);

    if args.trace {
        let delta = Delta {
            before: rep.before.clone(),
            after: sys.telemetry().snapshot(),
        };
        let ops = rep.tally.ok;
        layers::from_registry(&mut out.metrics, &delta, window, ops);
        let sim_events = (sys.stats().events_processed - rep.events_before) as f64;
        out.metrics
            .set("sim.events_per_op", ratio(sim_events, ops as f64));
        out.metrics
            .set("sim.ns_per_event", ratio(rep.drive_s * 1e9, sim_events));
        out.metrics.set(
            "trace.overhead_ratio",
            ratio(ops_per_s(rep), ops_per_s(&reps[0])),
        );
        for name in [
            "proxy.edge_p50_us",
            "proxy.ops_per_flush",
            "proxy.retries_per_kop",
            "proxy.busy_ratio",
            "runtime.direct_p50_us",
            "runtime.direct_p99_us",
            "gen.late_ms_max",
        ] {
            out.metrics.set(name, 0.0);
        }
        out.metrics.set("adaptive.basic_ratio", basic);
        let per_class = STORE / CLASSES as usize;
        layers::storage_replay(&mut out.metrics, &spans, SHAPE, args.seed, per_class, MIX);
        layers::wire_replay(&mut out.metrics, &spans, SHAPE, args.seed, per_class, MIX);
    } else {
        let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        let rates: Vec<f64> = reps.iter().map(ops_per_s).collect();
        // Latency here is simulated time from issue to return. The
        // simulator runs on this one thread, so its wall time per
        // completed op is its CPU time per op.
        let pct = |p: f64| lat.at(p).map_or(Json::Null, |x| Json::Num(x.value));
        out.record.push((
            "timing",
            Json::obj([
                ("sim_lat_p50_ms", pct(0.5)),
                ("sim_lat_p99_ms", pct(0.99)),
                ("cpu_us_per_op", Json::Num(1e6 / median(&rates))),
            ]),
        ));
        out.metrics.set("setup_s", median(&setups));
        let delta = Delta {
            before: rep.before.clone(),
            after: sys.telemetry().snapshot(),
        };
        let ops = rep.tally.ok;
        out.metrics
            .set("msgs_per_op", per_op(delta.counter("net.msgs_sent"), ops));
        out.metrics
            .set("bytes_per_op", per_op(delta.counter("net.bytes_sent"), ops));
        out.metrics
            .set("work_per_op", per_op(delta.counter("work.total"), ops));
        out.record.push((
            "setup_s",
            Json::Arr(setups.iter().map(|s| Json::Num(*s)).collect()),
        ));
        out.record.push((
            "ops_per_s",
            Json::Arr(rates.iter().map(|s| Json::Num(*s)).collect()),
        ));
    }

    // Correctness gate.
    let (check_ms, checked) = out.gate_trace(&events, sys.trace_buf().dropped(), &spans);
    if args.trace {
        out.metrics.set(
            "telemetry.check_trace_ms_per_kop",
            ratio(check_ms, checked as f64 / 1e3),
        );
    }
    let semantics = sys.check_semantics();
    if !semantics.ok() {
        let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
        for v in &semantics.violations {
            let kind = format!("{v:?}");
            *kinds
                .entry(kind[..kind.find([' ', '{']).unwrap_or(kind.len())].to_string())
                .or_default() += 1;
        }
        out.fail(format!(
            "check_semantics: {kinds:?} in {} ops; first: {}",
            semantics.ops_checked, semantics.violations[0]
        ));
    }
    if rep.hangs > 0 {
        out.fail(format!(
            "{} ops never returned on a live machine",
            rep.hangs
        ));
    }
    if basic > bound {
        out.fail(format!("Basic/OPT = {basic} exceeds 3 + λ/K = {bound}"));
    }
    out.gate_tally(&rep.tally);
    out.gate_tally(&rep.prefill);
    out.tally = rep.tally;

    out.record.push((
        "config",
        Json::obj([
            ("paso_config", Json::Str(format!("{cfg:?}"))),
            ("sim_seed", Json::UInt(sim_seed)),
            ("ops", Json::UInt(OPS)),
            ("op_gap_sim_micros", Json::UInt(OP_GAP_MICROS)),
            ("store_objects", Json::UInt(STORE as u64)),
            ("classes", Json::UInt(u64::from(CLASSES))),
            (
                "message_delay",
                Json::Str(format!("switched fabric: {:?}", latency_model())),
            ),
            ("churn", Json::Str(format!("{:?}", churn()))),
        ]),
    ));
    out.record.push((
        "sim",
        Json::obj([
            ("repetitions", Json::UInt(reps.len() as u64)),
            ("events", Json::UInt(sys.stats().events_processed)),
            ("lost_with_machine", Json::UInt(rep.tally.failed)),
            ("basic_ratio", Json::Num(basic)),
            ("basic_bound", Json::Num(bound)),
            (
                "lat_sim_ms_p50",
                lat.at(0.5).map_or(Json::Null, |p| Json::Num(p.value)),
            ),
            (
                "lat_sim_ms_p99",
                lat.at(0.99).map_or(Json::Null, |p| Json::Num(p.value)),
            ),
            ("trace_events", Json::UInt(events.len() as u64)),
        ]),
    ));
    if args.trace {
        spans.write_jsonl(std::path::Path::new("perfbench/out/spans-sim-churn.jsonl"))?;
    }
    Ok(out)
}
