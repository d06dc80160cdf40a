//! Executable PASO semantics (§2) — the Theorem 1 checker.
//!
//! A [`RunLog`] records the issue and return of every PASO operation with
//! simulated timestamps. [`check_run`] replays it through the workspace's
//! one A1–A3 engine, [`AxiomTracker`] (insert-before-read, consume exactly
//! once, no resurrection), and then makes the two checks that need object
//! payloads:
//!
//! - **matching** — returned objects satisfy the search criterion;
//! - **fail legality** — a `read`/`read&del` "may return fail only when
//!   there is no object that satisfies the search criterion and is
//!   consistently alive from the time the read is issued until the read
//!   returns": an object *certainly continuously live* through
//!   `[issue, return]` (inserted-and-returned before, not yet being
//!   deleted after) makes the fail illegal.
//!
//! Both are sound (never flag a legal run): live windows are bounded
//! outward by issue/return times, exactly as §2's interval semantics
//! allows.

use std::collections::BTreeMap;
use std::fmt;

use paso_simnet::{NodeId, SimTime};
use paso_telemetry::{AxiomTracker, AxiomViolation, TraceEvent, TraceKind};
use paso_types::{ObjectId, SearchCriterion};

use crate::wire::{ClientOp, ClientResult};

/// One operation's recorded lifetime.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The operation id.
    pub op_id: u64,
    /// The machine whose server executed it.
    pub node: NodeId,
    /// The operation.
    pub op: ClientOp,
    /// Issue time.
    pub issued: SimTime,
    /// Return time (`None` while outstanding).
    pub returned: Option<SimTime>,
    /// The result (`None` while outstanding).
    pub result: Option<ClientResult>,
}

/// A recorded run: every operation issued against the memory.
#[derive(Debug, Clone, Default)]
pub struct RunLog {
    ops: BTreeMap<u64, OpRecord>,
}

impl RunLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RunLog::default()
    }

    /// Records an operation issue.
    pub fn issued(&mut self, op_id: u64, node: NodeId, op: ClientOp, at: SimTime) {
        self.ops.insert(
            op_id,
            OpRecord {
                op_id,
                node,
                op,
                issued: at,
                returned: None,
                result: None,
            },
        );
    }

    /// Records an operation return.
    ///
    /// # Panics
    ///
    /// Panics if the op was never issued or returns twice.
    pub fn returned(&mut self, op_id: u64, result: ClientResult, at: SimTime) {
        let rec = self.ops.get_mut(&op_id).expect("return of unknown op");
        assert!(rec.returned.is_none(), "op {op_id} returned twice");
        rec.returned = Some(at);
        rec.result = Some(result);
    }

    /// All records, by op id.
    pub fn records(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.values()
    }

    /// Looks up one operation's record.
    pub fn get(&self, op_id: u64) -> Option<&OpRecord> {
        self.ops.get(&op_id)
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Response-time statistics over completed operations (the paper's third
/// cost measure, §5: "Response time is a valid concern").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Completed operations measured.
    pub count: usize,
    /// Mean latency in microseconds.
    pub mean_micros: f64,
    /// Median (p50) latency in microseconds.
    pub p50_micros: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_micros: u64,
    /// Maximum latency in microseconds.
    pub max_micros: u64,
}

impl RunLog {
    /// Computes response-time statistics over completed operations,
    /// optionally filtered by operation kind (`"insert"`, `"read"`,
    /// `"readdel"`, or `None` for all). Blocking operations are included;
    /// filter them out upstream if undesired.
    pub fn latency_stats(&self, kind: Option<&str>) -> LatencyStats {
        let mut lats: Vec<u64> = self
            .ops
            .values()
            .filter(|r| {
                matches!(
                    (kind, &r.op),
                    (None, _)
                        | (Some("insert"), ClientOp::Insert { .. })
                        | (Some("read"), ClientOp::Read { .. })
                        | (Some("readdel"), ClientOp::ReadDel { .. })
                )
            })
            .filter_map(|r| Some(r.returned?.saturating_since(r.issued).as_micros()))
            .collect();
        lats.sort_unstable();
        let count = lats.len();
        if count == 0 {
            return LatencyStats {
                count: 0,
                mean_micros: 0.0,
                p50_micros: 0,
                p99_micros: 0,
                max_micros: 0,
            };
        }
        let sum: u64 = lats.iter().sum();
        let pct = |p: f64| lats[(((count - 1) as f64) * p).round() as usize];
        LatencyStats {
            count,
            mean_micros: sum as f64 / count as f64,
            p50_micros: pct(0.50),
            p99_micros: pct(0.99),
            max_micros: *lats.last().unwrap(),
        }
    }
}

/// A violation of the PASO semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// An A1–A3 violation found by the [`AxiomTracker`].
    Axiom(AxiomViolation),
    /// A returned object does not satisfy the criterion.
    CriterionMismatch {
        /// The op.
        op: u64,
        /// The object.
        object: ObjectId,
    },
    /// A fail was returned although a matching object was continuously
    /// live throughout the operation — i.e. **data loss or a missed
    /// object**.
    IllegalFail {
        /// The failing op.
        op: u64,
        /// A witness object that was continuously live.
        witness: ObjectId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Axiom(v) => v.fmt(f),
            Violation::CriterionMismatch { op, object } => {
                write!(
                    f,
                    "op {op} returned object {object} that does not match its criterion"
                )
            }
            Violation::IllegalFail { op, witness } => {
                write!(f, "op {op} failed although {witness} was continuously live")
            }
        }
    }
}

/// Summary of a semantics check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SemanticsReport {
    /// Operations checked.
    pub ops_checked: usize,
    /// Successful reads/read&dels.
    pub found: usize,
    /// Fails checked for legality.
    pub fails: usize,
    /// All discovered violations.
    pub violations: Vec<Violation>,
}

impl SemanticsReport {
    /// Did the run satisfy the semantics?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl RunLog {
    /// The log as `OpBegin`/`OpEnd` trace events, one pair per returned op
    /// and a lone `OpBegin` per outstanding one.
    fn trace_events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(2 * self.ops.len());
        for rec in self.ops.values() {
            events.push(TraceEvent {
                at_micros: rec.issued.as_micros(),
                node: rec.node.0,
                kind: rec.op.trace_begin(rec.op_id),
            });
            if let (Some(at), Some(result)) = (rec.returned, &rec.result) {
                events.push(TraceEvent {
                    at_micros: at.as_micros(),
                    node: rec.node.0,
                    kind: TraceKind::OpEnd {
                        op_id: rec.op_id,
                        op: rec.op.trace_kind(),
                        outcome: result.trace_outcome(),
                    },
                });
            }
        }
        events
    }
}

/// Checks a completed run against the §2 semantics.
pub fn check_run(log: &RunLog) -> SemanticsReport {
    let tracker = AxiomTracker::replay(&log.trace_events());
    let axioms = tracker.report();
    let mut report = SemanticsReport {
        ops_checked: axioms.ops_checked,
        found: axioms.found,
        fails: 0,
        violations: axioms
            .violations
            .iter()
            .cloned()
            .map(Violation::Axiom)
            .collect(),
    };
    // read&dels whose outcome is unknown (still outstanding, or gave up
    // with `TimedOut`/`Unavailable`) may have consumed any object they
    // match.
    let in_doubt: Vec<(SimTime, &SearchCriterion)> = log
        .records()
        .filter_map(|rec| match (&rec.op, &rec.result) {
            (
                ClientOp::ReadDel { sc, .. },
                None | Some(ClientResult::TimedOut | ClientResult::Unavailable),
            ) => Some((rec.issued, sc)),
            _ => None,
        })
        .collect();
    for rec in log.records() {
        let (Some(result), Some(ret)) = (&rec.result, rec.returned) else {
            continue; // outstanding ops are not judged
        };
        let sc = match &rec.op {
            ClientOp::Read { sc, .. } | ClientOp::ReadDel { sc, .. } => sc,
            ClientOp::Insert { .. } => continue,
        };
        match result {
            ClientResult::Found(obj) if !sc.matches(obj) => {
                report.violations.push(Violation::CriterionMismatch {
                    op: rec.op_id,
                    object: obj.id(),
                });
            }
            ClientResult::Fail => {
                report.fails += 1;
                // A witness CERTAINLY continuously live through
                // [issued, ret]: its insert returned before the op was
                // issued, any consuming read&del was issued after the op
                // returned, and no read&del of unknown outcome issued
                // before the op returned could have taken it.
                let witness = tracker.lives().find_map(|life| {
                    let inserted_before = life.insert_end? <= rec.issued.as_micros();
                    let alive_after = life
                        .consume
                        .is_none_or(|(_, consume_begin, _)| consume_begin >= ret.as_micros());
                    if !(inserted_before && alive_after) {
                        return None;
                    }
                    let ClientOp::Insert { object } = &log.get(life.insert_op)?.op else {
                        return None;
                    };
                    let certain = sc.matches(object)
                        && !in_doubt
                            .iter()
                            .any(|&(issued, d)| issued < ret && d.matches(object));
                    certain.then(|| object.id())
                });
                if let Some(witness) = witness {
                    report.violations.push(Violation::IllegalFail {
                        op: rec.op_id,
                        witness,
                    });
                }
            }
            // Found (matching) / Inserted / TimedOut / Unavailable carry
            // no further obligations here (TimedOut is a blocking
            // deadline, not a semantic fail; Unavailable means >λ faults,
            // outside the model).
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{ObjectId, PasoObject, ProcessId, Template, Value};

    fn obj(seq: u64, v: i64) -> PasoObject {
        PasoObject::new(ObjectId::new(ProcessId(1), seq), vec![Value::Int(v)])
    }

    fn sc(v: i64) -> SearchCriterion {
        SearchCriterion::from(Template::exact(vec![Value::Int(v)]))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn legal_base() -> RunLog {
        let mut log = RunLog::new();
        log.issued(1, NodeId(0), ClientOp::Insert { object: obj(1, 5) }, t(0));
        log.returned(1, ClientResult::Inserted, t(10));
        log
    }

    #[test]
    fn legal_read_passes() {
        let mut log = legal_base();
        log.issued(
            2,
            NodeId(1),
            ClientOp::Read {
                sc: sc(5),
                blocking: false,
            },
            t(20),
        );
        log.returned(2, ClientResult::Found(obj(1, 5)), t(30));
        let r = check_run(&log);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.found, 1);
    }

    #[test]
    fn duplicate_insert_detected() {
        let mut log = legal_base();
        log.issued(2, NodeId(0), ClientOp::Insert { object: obj(1, 5) }, t(20));
        log.returned(2, ClientResult::Inserted, t(30));
        let r = check_run(&log);
        assert!(matches!(
            r.violations[0],
            Violation::Axiom(AxiomViolation::DuplicateInsert { .. })
        ));
    }

    #[test]
    fn double_consume_detected() {
        let mut log = legal_base();
        for (op, t0) in [(2u64, 20u64), (3, 40)] {
            log.issued(
                op,
                NodeId(1),
                ClientOp::ReadDel {
                    sc: sc(5),
                    blocking: false,
                },
                t(t0),
            );
            log.returned(op, ClientResult::Found(obj(1, 5)), t(t0 + 5));
        }
        let r = check_run(&log);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Axiom(AxiomViolation::DoubleConsume { .. }))));
    }

    #[test]
    fn read_after_consume_detected() {
        let mut log = legal_base();
        log.issued(
            2,
            NodeId(1),
            ClientOp::ReadDel {
                sc: sc(5),
                blocking: false,
            },
            t(20),
        );
        log.returned(2, ClientResult::Found(obj(1, 5)), t(25));
        // Read strictly after the consume completed.
        log.issued(
            3,
            NodeId(2),
            ClientOp::Read {
                sc: sc(5),
                blocking: false,
            },
            t(50),
        );
        log.returned(3, ClientResult::Found(obj(1, 5)), t(60));
        let r = check_run(&log);
        assert!(r.violations.iter().any(|v| matches!(
            v,
            Violation::Axiom(AxiomViolation::Resurrection { op: 3, .. })
        )));
    }

    #[test]
    fn concurrent_read_and_consume_is_legal() {
        let mut log = legal_base();
        // Read overlaps the read&del: both may return the object.
        log.issued(
            2,
            NodeId(1),
            ClientOp::ReadDel {
                sc: sc(5),
                blocking: false,
            },
            t(20),
        );
        log.returned(2, ClientResult::Found(obj(1, 5)), t(40));
        log.issued(
            3,
            NodeId(2),
            ClientOp::Read {
                sc: sc(5),
                blocking: false,
            },
            t(25),
        );
        log.returned(3, ClientResult::Found(obj(1, 5)), t(35));
        let r = check_run(&log);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn returned_uninserted_detected() {
        let mut log = RunLog::new();
        log.issued(
            1,
            NodeId(0),
            ClientOp::Read {
                sc: sc(5),
                blocking: false,
            },
            t(0),
        );
        log.returned(1, ClientResult::Found(obj(9, 5)), t(10));
        let r = check_run(&log);
        assert!(matches!(
            r.violations[0],
            Violation::Axiom(AxiomViolation::ReadBeforeInsert { .. })
        ));
    }

    #[test]
    fn criterion_mismatch_detected() {
        let mut log = legal_base();
        log.issued(
            2,
            NodeId(1),
            ClientOp::Read {
                sc: sc(7),
                blocking: false,
            },
            t(20),
        );
        log.returned(2, ClientResult::Found(obj(1, 5)), t(30));
        let r = check_run(&log);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CriterionMismatch { .. })));
    }

    #[test]
    fn illegal_fail_detected() {
        let mut log = legal_base();
        // Object 5 live since t=10, never consumed; a read at t=100 fails.
        log.issued(
            2,
            NodeId(1),
            ClientOp::Read {
                sc: sc(5),
                blocking: false,
            },
            t(100),
        );
        log.returned(2, ClientResult::Fail, t(110));
        let r = check_run(&log);
        assert!(matches!(
            r.violations[0],
            Violation::IllegalFail { op: 2, .. }
        ));
    }

    #[test]
    fn fail_during_racy_insert_is_legal() {
        let mut log = RunLog::new();
        // Insert completes at t=30; read runs t=0..10 and fails: legal.
        log.issued(1, NodeId(0), ClientOp::Insert { object: obj(1, 5) }, t(5));
        log.returned(1, ClientResult::Inserted, t(30));
        log.issued(
            2,
            NodeId(1),
            ClientOp::Read {
                sc: sc(5),
                blocking: false,
            },
            t(0),
        );
        log.returned(2, ClientResult::Fail, t(10));
        let r = check_run(&log);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn fail_overlapping_consume_is_legal() {
        let mut log = legal_base();
        // read&del issued at t=20 (may have deleted the object early);
        // another read at t=25..35 fails: legal because the object was not
        // continuously live (its deletion was already in flight).
        log.issued(
            2,
            NodeId(1),
            ClientOp::ReadDel {
                sc: sc(5),
                blocking: false,
            },
            t(20),
        );
        log.returned(2, ClientResult::Found(obj(1, 5)), t(40));
        log.issued(
            3,
            NodeId(2),
            ClientOp::Read {
                sc: sc(5),
                blocking: false,
            },
            t(25),
        );
        log.returned(3, ClientResult::Fail, t(35));
        let r = check_run(&log);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn fail_after_a_read_del_of_unknown_outcome_is_legal() {
        // A matching read&del issued at t=20 that is still outstanding, or
        // that gave up, may have consumed object 5; a later fail is legal.
        for outcome in [None, Some(ClientResult::TimedOut)] {
            let mut log = legal_base();
            log.issued(
                2,
                NodeId(1),
                ClientOp::ReadDel {
                    sc: sc(5),
                    blocking: true,
                },
                t(20),
            );
            if let Some(result) = outcome.clone() {
                log.returned(2, result, t(25));
            }
            log.issued(
                3,
                NodeId(2),
                ClientOp::Read {
                    sc: sc(5),
                    blocking: false,
                },
                t(30),
            );
            log.returned(3, ClientResult::Fail, t(40));
            let r = check_run(&log);
            assert!(r.ok(), "{outcome:?}: {:?}", r.violations);
        }
        // A read&del that cannot match object 5 does not excuse the fail.
        let mut log = legal_base();
        log.issued(
            2,
            NodeId(1),
            ClientOp::ReadDel {
                sc: sc(7),
                blocking: true,
            },
            t(20),
        );
        log.issued(
            3,
            NodeId(2),
            ClientOp::Read {
                sc: sc(5),
                blocking: false,
            },
            t(30),
        );
        log.returned(3, ClientResult::Fail, t(40));
        let r = check_run(&log);
        assert!(matches!(
            r.violations[..],
            [Violation::IllegalFail { op: 3, .. }]
        ));
    }

    #[test]
    fn timed_out_is_never_a_violation() {
        let mut log = legal_base();
        log.issued(
            2,
            NodeId(1),
            ClientOp::Read {
                sc: sc(5),
                blocking: true,
            },
            t(20),
        );
        log.returned(2, ClientResult::TimedOut, t(1000));
        let r = check_run(&log);
        assert!(r.ok());
    }

    #[test]
    fn outstanding_ops_are_skipped() {
        let mut log = legal_base();
        log.issued(
            2,
            NodeId(1),
            ClientOp::Read {
                sc: sc(5),
                blocking: true,
            },
            t(20),
        );
        let r = check_run(&log);
        assert!(r.ok());
        assert_eq!(r.ops_checked, 1, "only the insert completed");
    }

    #[test]
    fn report_counts() {
        let mut log = legal_base();
        log.issued(
            2,
            NodeId(1),
            ClientOp::Read {
                sc: sc(9),
                blocking: false,
            },
            t(20),
        );
        log.returned(2, ClientResult::Fail, t(25));
        let r = check_run(&log);
        assert!(r.ok());
        assert_eq!(r.fails, 1);
        assert_eq!(r.ops_checked, 2);
        assert!(!log.is_empty());
        assert_eq!(log.len(), 2);
    }
}
