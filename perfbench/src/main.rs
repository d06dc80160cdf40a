//! One benchmark for the PASO stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-mixed|serve-durable|serve-lossy|sim-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics with no spans recorded; with `--trace 1` it is a
//! separate run that records spans around each layer boundary (written
//! to `perfbench/out/spans-<workload>.jsonl`) and reports the per-layer
//! metrics. Both modes run the correctness gate; a run whose gate trips
//! exits 1. The last stdout line is the result object; the line before it
//! is the run record (host, seed, configuration, per-segment figures).
//!
//! The end-to-end metrics are set-up time and the costs per completed op
//! (messages, bytes, work). Latency percentiles and CPU per op go to the
//! run record: on a shared host they follow the host's load more than the
//! program's (see `live::untraced`).
//!
//! `BENCHMARK.json` registers `serve-mixed` and `serve-durable`.
//! `serve-lossy` and `sim-churn` run the same way but are not registered:
//! lossy drops make a varying number of ops fail by design, and
//! `sim-churn`'s gate trips on the current program (see `sim.rs`).

mod gen;
mod layers;
mod live;
mod sim;
mod spans;
mod stats;
mod tally;

use std::time::Instant;

use paso_telemetry::{check_trace, TraceEvent};
use paso_wire::mini_json::Json;

use crate::layers::{Metrics, PER_LAYER};
use crate::spans::Spans;
use crate::tally::Tally;

/// The end-to-end metrics, by name, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("msgs_per_op", "msgs/op"),
    ("bytes_per_op", "B/op"),
    ("work_per_op", "units/op"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {key}"))
    };
    let num =
        |key: &str| -> Result<u64, String> { get(key)?.parse().map_err(|e| format!("{key}: {e}")) };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace takes 0 or 1, not {t}")),
        },
    })
}

/// What a run produced: metrics, the gate's findings, the client tally,
/// and the run record.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub failures: Vec<String>,
    pub tally: Tally,
    pub record: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// The whole trace kept (`dropped` is the trace buffer's count of
    /// events it lost) and A1–A3-legal. Returns `check_trace`'s wall time
    /// in ms, also recorded as a span, and the ops it checked.
    pub fn gate_trace(
        &mut self,
        events: &[TraceEvent],
        dropped: u64,
        spans: &Spans,
    ) -> (f64, usize) {
        let t = Instant::now();
        let report = spans.time("telemetry.check_trace", 0, None, || check_trace(events));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if dropped != 0 {
            self.fail(format!("trace dropped {dropped} events"));
        }
        if !report.ok() {
            let shown = &report.violations[..report.violations.len().min(5)];
            self.fail(format!("check_trace: {shown:?}"));
        }
        (ms, report.ops_checked)
    }

    /// Every attempted op answered exactly once, and no wrong answer.
    pub fn gate_tally(&mut self, t: &Tally) {
        if !t.balanced() {
            self.fail(format!(
                "attempted {} != ok {} + failed {} + wrong {}",
                t.attempted, t.ok, t.failed, t.wrong
            ));
        }
        if t.wrong > 0 {
            self.fail(format!("{} answers did not carry the queried key", t.wrong));
        }
    }
}

fn host_record() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu", Json::Str(cpu)),
        (
            "git_rev",
            Json::Str(git_rev().unwrap_or_else(|| "unknown".into())),
        ),
    ])
}

/// `(steal, total)` CPU jiffies since boot. A virtual machine's host may
/// take CPU time away while a run measures; the run record reports the
/// share it took, so a noisy figure can be told from a slow program.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// A point to measure the host's CPU steal from.
#[derive(Debug, Clone, Copy)]
pub struct StealMark(Option<(u64, u64)>);

impl StealMark {
    pub fn now() -> Self {
        StealMark(cpu_steal())
    }

    /// The share of CPU time the host took since this mark, if it
    /// reports steal and any time has passed.
    pub fn share_since(self) -> Option<f64> {
        match (self.0, cpu_steal()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Some((s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => None,
        }
    }
}

/// CPU time, in seconds, this process's threads have run so far: the
/// cluster's, the proxy's and the client's. A virtual machine's kernel
/// leaves out time the host stole, so CPU per op does not grow when the
/// host is busy, where ops per wall-clock second fall.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// The checked-out commit, read from `.git` when the tree has one.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let steal = StealMark::now();
    let result = match args.workload.as_str() {
        "serve-mixed" => live::run(&live::SERVE_MIXED, &args),
        "serve-durable" => live::run(&live::SERVE_DURABLE, &args),
        "serve-lossy" => live::run(&live::SERVE_LOSSY, &args),
        "sim-churn" => sim::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in catalog {
        match out.metrics.get(name) {
            Some(value) => metrics.push((
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )),
            None => out.fail(format!("metric {name} could not be measured")),
        }
    }
    let steal_share = steal.share_since().map_or(Json::Null, Json::Num);
    let mut record = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host_record()),
        ("host_cpu_steal_share", steal_share),
        ("busy", Json::UInt(out.tally.busy)),
        (
            "failures",
            Json::Arr(out.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
    ];
    record.extend(out.record);
    println!("{}", Json::obj(record).render());
    for f in &out.failures {
        eprintln!("perfbench: correctness gate: {f}");
    }
    if metrics.len() < catalog.len() {
        std::process::exit(1);
    }
    let correct = out.failures.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(out.tally.attempted)),
        ("failed", Json::UInt(out.tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_match_the_benchmark_description() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let desc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(desc.contains(&entry), "{name} ({unit}) is not described");
        }
        let described = desc.matches("\"unit\":").count();
        assert_eq!(described, END_TO_END.len() + PER_LAYER.len());
    }
}
