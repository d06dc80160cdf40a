//! Per-layer measurement from outside the program: registry deltas,
//! trace-derived vsync counts, and timed replays of the workload's own
//! inputs through each layer's public functions.

use paso_adaptive::{measure, BasicStrategy, Event, ModelParams};
use paso_core::{encode, try_decode, PasoConfig, ProxyClientFrame, SimSystem};
use paso_storage::{ClassStore, Rank, ScanStore};
use paso_telemetry::{Snapshot, TraceEvent, TraceKind};

use crate::gen::{GenOp, Mix, OpGen, Shape};
use crate::spans::Spans;
use crate::stats::{median, per_kop, per_op, ratio};

/// The per-layer metrics, by name, with their units. Every traced run
/// reports each of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("proxy.edge_p50_us", "us"),
    ("proxy.ops_per_flush", "ops"),
    ("proxy.retries_per_kop", "count/kop"),
    ("proxy.busy_ratio", "fraction"),
    ("runtime.direct_p50_us", "us"),
    ("runtime.direct_p99_us", "us"),
    ("net.msgs_per_op", "msgs/op"),
    ("net.bytes_per_op", "B/op"),
    ("net.frames_per_writev", "frames"),
    ("net.wakeups_per_op", "count/op"),
    ("core.work_per_op", "units/op"),
    ("core.read_local_ratio", "fraction"),
    ("core.gcasts_per_op", "count/op"),
    ("vsync.gcasts_per_op", "count/op"),
    ("vsync.targets_per_gcast", "count"),
    ("vsync.gcast_bytes_per_op", "B/op"),
    ("vsync.view_changes_per_kop", "count/kop"),
    ("adaptive.joins_per_kop", "count/kop"),
    ("adaptive.leaves_per_kop", "count/kop"),
    ("adaptive.bytes_per_join", "B"),
    ("adaptive.join_ms_mean", "ms"),
    ("adaptive.delta_hit_ratio", "fraction"),
    ("adaptive.basic_ratio", "ratio"),
    ("storage.match_us", "us"),
    ("storage.apply_us", "us"),
    ("wal.bytes_per_op", "B/op"),
    ("wal.fsyncs_per_op", "count/op"),
    ("wal.fsync_us_mean", "us"),
    ("wal.compactions_per_kop", "count/kop"),
    ("wire.encode_ns_per_op", "ns"),
    ("wire.decode_ns_per_op", "ns"),
    ("sim.events_per_op", "count/op"),
    ("sim.ns_per_event", "ns"),
    ("telemetry.check_trace_ms_per_kop", "ms/kop"),
    ("trace.events_per_op", "count/op"),
    ("gen.late_ms_max", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Named metric values collected during a run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Registry change over a measured window.
pub struct Delta {
    pub before: Snapshot,
    pub after: Snapshot,
}

impl Delta {
    pub fn counter(&self, name: &str) -> f64 {
        self.after.counter(name) - self.before.counter(name)
    }

    /// `(count, sum)` of the samples a histogram took in the window.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let (a, b) = (self.after.hist(name), self.before.hist(name));
        (
            a.count.wrapping_sub(b.count) as f64,
            a.sum.wrapping_sub(b.sum) as f64,
        )
    }

    fn hist_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.hist(name);
        ratio(sum, count)
    }
}

/// Registry- and trace-derived layer costs over a window in which `ops`
/// client ops completed; `events` is the trace recorded in that window.
pub fn from_registry(m: &mut Metrics, d: &Delta, events: &[TraceEvent], ops: u64) {
    m.set("proxy.ops_per_flush", d.hist_mean("proxy.batch.ops"));
    m.set(
        "proxy.retries_per_kop",
        per_kop(d.counter("proxy.retries"), ops),
    );
    m.set("net.msgs_per_op", per_op(d.counter("net.msgs_sent"), ops));
    m.set("net.bytes_per_op", per_op(d.counter("net.bytes_sent"), ops));
    m.set(
        "net.frames_per_writev",
        d.hist_mean("net.writev.batch_frames"),
    );
    m.set(
        "net.wakeups_per_op",
        per_op(d.hist("net.poll.wakeups").0, ops),
    );
    m.set("core.work_per_op", per_op(d.counter("work.total"), ops));
    let local = d.counter("op.read.local");
    m.set(
        "core.read_local_ratio",
        ratio(local, local + d.counter("op.read.remote")),
    );
    m.set(
        "core.gcasts_per_op",
        per_op(
            d.counter("op.insert.gcast") + d.counter("op.readdel.gcast"),
            ops,
        ),
    );
    m.set(
        "adaptive.joins_per_kop",
        per_kop(d.counter("adaptive.join"), ops),
    );
    m.set(
        "adaptive.leaves_per_kop",
        per_kop(d.counter("adaptive.leave"), ops),
    );
    m.set(
        "adaptive.bytes_per_join",
        d.hist_mean("join.transfer_bytes"),
    );
    m.set(
        "adaptive.join_ms_mean",
        d.hist_mean("join.latency_micros") / 1e3,
    );
    let delta_hits = d.counter("join.delta_hit");
    m.set(
        "adaptive.delta_hit_ratio",
        ratio(delta_hits, delta_hits + d.counter("join.full_xfer")),
    );
    m.set(
        "wal.bytes_per_op",
        per_op(d.counter("wal.append_bytes"), ops),
    );
    m.set(
        "wal.fsyncs_per_op",
        per_op(d.hist("wal.fsync_micros").0, ops),
    );
    m.set("wal.fsync_us_mean", d.hist_mean("wal.fsync_micros"));
    m.set(
        "wal.compactions_per_kop",
        per_kop(d.counter("wal.compactions"), ops),
    );

    let (mut gcasts, mut targets, mut bytes, mut views) = (0.0, 0.0, 0.0, 0.0);
    for ev in events {
        match ev.kind {
            TraceKind::Gcast {
                targets: t,
                bytes: b,
                ..
            } => {
                gcasts += 1.0;
                targets += f64::from(t);
                bytes += b as f64 * f64::from(t);
            }
            TraceKind::ViewChange { .. } => views += 1.0,
            _ => {}
        }
    }
    m.set("vsync.gcasts_per_op", per_op(gcasts, ops));
    m.set("vsync.targets_per_gcast", ratio(targets, gcasts));
    m.set("vsync.gcast_bytes_per_op", per_op(bytes, ops));
    m.set("vsync.view_changes_per_kop", per_kop(views, ops));
    m.set("trace.events_per_op", per_op(events.len() as f64, ops));
}

/// Ops replayed through the store and codec per traced run.
const REPLAY_OPS: usize = 2_000;

/// Replays the workload's op sequence against one store of the
/// workload's size: `storage.match` spans around lookups, and
/// `storage.apply` spans around inserts and removes.
pub fn storage_replay(
    m: &mut Metrics,
    spans: &Spans,
    shape: Shape,
    seed: u64,
    store: usize,
    mix: Mix,
) {
    let phase = spans.open("replay.storage");
    let mut gen = OpGen::new(seed, mix, store);
    let mut s = ScanStore::new();
    let mut rank = 0u64;
    for _ in 0..store {
        rank += 1;
        s.store_ranked(shape.object(gen.fresh_key()), Rank::new(rank, 0));
    }
    for i in 0..REPLAY_OPS as u64 {
        match gen.next_op() {
            GenOp::Insert(k) => {
                rank += 1;
                let o = shape.object(k);
                spans.time("storage.apply", i, phase, || {
                    s.store_ranked(o, Rank::new(rank, 0))
                });
            }
            GenOp::Read(k) => {
                let sc = shape.criterion(k);
                let (found, _) = spans.time("storage.match", i, phase, || s.mem_read(&sc));
                assert!(
                    found.is_some_and(|o| shape.carries(&o, k)),
                    "replayed read lost key {k}"
                );
            }
            GenOp::ReadDel(k) => {
                let sc = shape.criterion(k);
                let (found, _) = spans.time("storage.apply", i, phase, || s.remove(&sc));
                assert!(
                    found.is_some_and(|o| shape.carries(&o, k)),
                    "replayed take lost key {k}"
                );
            }
        }
    }
    spans.close(phase);
    m.set(
        "storage.match_us",
        median_or_zero(&spans.micros_of("storage.match")),
    );
    m.set(
        "storage.apply_us",
        median_or_zero(&spans.micros_of("storage.apply")),
    );
}

/// Encodes and decodes the workload's client frames, one span per batch.
pub fn wire_replay(
    m: &mut Metrics,
    spans: &Spans,
    shape: Shape,
    seed: u64,
    store: usize,
    mix: Mix,
) {
    let phase = spans.open("replay.wire");
    let mut gen = OpGen::new(seed, mix, store);
    let frames: Vec<ProxyClientFrame> = (0..REPLAY_OPS as u64)
        .map(|seq| ProxyClientFrame::Op {
            seq,
            op: gen.next_op().client_op(shape),
        })
        .collect();
    let mut enc_ns = Vec::new();
    let mut dec_ns = Vec::new();
    for round in 0..5u64 {
        let t = std::time::Instant::now();
        let bytes: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| encode(std::hint::black_box(f)))
            .collect();
        let mid = std::time::Instant::now();
        spans.record("wire.encode", round, phase, t, mid);
        let decoded: Vec<ProxyClientFrame> = bytes
            .iter()
            .map(|b| {
                try_decode::<ProxyClientFrame>(std::hint::black_box(b)).expect("own frame decodes")
            })
            .collect();
        let end = std::time::Instant::now();
        spans.record("wire.decode", round, phase, mid, end);
        assert!(
            decoded == frames,
            "frames changed in an encode/decode round trip"
        );
        enc_ns.push((mid - t).as_nanos() as f64 / frames.len() as f64);
        dec_ns.push((end - mid).as_nanos() as f64 / frames.len() as f64);
    }
    spans.close(phase);
    m.set("wire.encode_ns_per_op", median(&enc_ns));
    m.set("wire.decode_ns_per_op", median(&dec_ns));
}

/// Longest per-class sequence handed to the exact (quadratic) optimum.
const MAX_MODEL_EVENTS: usize = 2_000;

/// Theorem 2 on the workload's own request sequences: Basic's total
/// cost over the exact optimum's, summed over the given per-class
/// sequences. Returns `(ratio, bound)`.
pub fn basic_ratio(sequences: &[Vec<Event>], lambda: u64, k: u64) -> (f64, f64) {
    let params = ModelParams::uniform(lambda, k);
    let mut basic = BasicStrategy::new(params);
    let (mut online, mut opt) = (0u64, 0u64);
    for seq in sequences.iter().filter(|s| !s.is_empty()) {
        let seq = &seq[..seq.len().min(MAX_MODEL_EVENTS)];
        let r = measure(&mut basic, seq, &params);
        online += r.online;
        opt += r.opt;
    }
    let ratio = if opt == 0 {
        1.0
    } else {
        online as f64 / opt as f64
    };
    (ratio, params.competitive_bound())
}

/// The §5 model event for one generated op, `failed` basic-support
/// machines down at issue.
pub fn model_event(op: GenOp, failed: u64) -> Event {
    match op {
        GenOp::Insert(_) => Event::Insert,
        GenOp::Read(_) => Event::Read { failed },
        GenOp::ReadDel(_) => Event::Delete,
    }
}

/// Replays the workload's op sequence through `SimSystem` under the
/// workload's configuration, one op at a time (the simulator's own
/// synchronous API): simulator events per op and wall time per event.
pub fn sim_replay(
    m: &mut Metrics,
    spans: &Spans,
    cfg: PasoConfig,
    shape: Shape,
    seed: u64,
    store: usize,
    mix: Mix,
) {
    let phase = spans.open("replay.sim");
    let n = cfg.n as u64;
    let mut sys = SimSystem::new(cfg);
    let mut gen = OpGen::new(seed, mix, store);
    for i in 0..store as u64 {
        sys.insert((i % n) as u32, shape.fields(gen.fresh_key()));
    }
    let events0 = sys.stats().events_processed;
    let t = std::time::Instant::now();
    for i in 0..REPLAY_OPS as u64 {
        let node = (i % n) as u32;
        spans.time("sim.op", i, phase, || match gen.next_op() {
            GenOp::Insert(k) => drop(sys.insert(node, shape.fields(k))),
            GenOp::Read(k) => drop(sys.read(node, shape.criterion(k))),
            GenOp::ReadDel(k) => drop(sys.read_del(node, shape.criterion(k))),
        });
    }
    let wall_ns = t.elapsed().as_nanos() as f64;
    spans.close(phase);
    let events = (sys.stats().events_processed - events0) as f64;
    m.set("sim.events_per_op", events / REPLAY_OPS as f64);
    m.set("sim.ns_per_event", ratio(wall_ns, events));
}

pub fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}
