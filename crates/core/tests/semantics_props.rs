//! Property tests for the Theorem 1 checker: runs produced by a sequential
//! reference tuple space are always accepted, and targeted corruptions of
//! those runs are always caught. A checker that flags nothing — or
//! everything — would pass no other test in this repo; this one pins its
//! discrimination.

use proptest::prelude::*;

use paso_core::{check_run, ClientOp, ClientResult, RunLog, Violation};
use paso_simnet::{NodeId, SimTime};
use paso_telemetry::AxiomViolation;
use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};

#[derive(Debug, Clone)]
enum RefOp {
    Insert(i64),
    Read(i64),
    ReadAny,
    Take(i64),
    TakeAny,
}

fn arb_op() -> impl Strategy<Value = RefOp> {
    let v = -2i64..3;
    prop_oneof![
        3 => v.clone().prop_map(RefOp::Insert),
        2 => v.clone().prop_map(RefOp::Read),
        1 => Just(RefOp::ReadAny),
        2 => v.prop_map(RefOp::Take),
        1 => Just(RefOp::TakeAny),
    ]
}

fn sc_eq(v: i64) -> SearchCriterion {
    SearchCriterion::from(Template::exact(vec![Value::Int(v)]))
}

fn sc_any() -> SearchCriterion {
    SearchCriterion::from(Template::wildcard(1))
}

/// Executes ops sequentially against an in-memory reference tuple space,
/// producing a RunLog that is legal *by construction*.
fn reference_run(ops: &[RefOp]) -> RunLog {
    let mut log = RunLog::new();
    let mut space: Vec<PasoObject> = Vec::new();
    let mut t = 0u64;
    let mut seq = 0u64;
    for (op_id, op) in ops.iter().enumerate() {
        let op_id = op_id as u64;
        let issue = SimTime::from_micros(t);
        let ret = SimTime::from_micros(t + 5);
        t += 10;
        match op {
            RefOp::Insert(v) => {
                let obj = PasoObject::new(ObjectId::new(ProcessId(1), seq), vec![Value::Int(*v)]);
                seq += 1;
                log.issued(
                    op_id,
                    NodeId(0),
                    ClientOp::Insert {
                        object: obj.clone(),
                    },
                    issue,
                );
                log.returned(op_id, ClientResult::Inserted, ret);
                space.push(obj);
            }
            RefOp::Read(_) | RefOp::ReadAny => {
                let sc = match op {
                    RefOp::Read(v) => sc_eq(*v),
                    _ => sc_any(),
                };
                log.issued(
                    op_id,
                    NodeId(0),
                    ClientOp::Read {
                        sc: sc.clone(),
                        blocking: false,
                    },
                    issue,
                );
                let found = space.iter().find(|o| sc.matches(o)).cloned();
                log.returned(
                    op_id,
                    found.map_or(ClientResult::Fail, ClientResult::Found),
                    ret,
                );
            }
            RefOp::Take(_) | RefOp::TakeAny => {
                let sc = match op {
                    RefOp::Take(v) => sc_eq(*v),
                    _ => sc_any(),
                };
                log.issued(
                    op_id,
                    NodeId(0),
                    ClientOp::ReadDel {
                        sc: sc.clone(),
                        blocking: false,
                    },
                    issue,
                );
                let pos = space.iter().position(|o| sc.matches(o));
                let result = match pos {
                    Some(i) => ClientResult::Found(space.remove(i)),
                    None => ClientResult::Fail,
                };
                log.returned(op_id, result, ret);
            }
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reference_runs_are_always_legal(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let log = reference_run(&ops);
        let report = check_run(&log);
        prop_assert!(report.ok(), "false positive: {:?}", report.violations);
    }

    #[test]
    fn duplicated_consume_is_always_caught(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let log = reference_run(&ops);
        // Find a consuming take and replay its result as a second take.
        let consumed: Vec<(u64, PasoObject, SearchCriterion)> = log
            .records()
            .filter_map(|r| match (&r.op, &r.result) {
                (
                    ClientOp::ReadDel { sc, .. },
                    Some(ClientResult::Found(o)),
                ) => Some((r.op_id, o.clone(), sc.clone())),
                _ => None,
            })
            .collect();
        prop_assume!(!consumed.is_empty());
        let (_, obj, sc) = consumed[0].clone();
        let mut corrupted = log.clone();
        let late = SimTime::from_secs(100);
        corrupted.issued(
            9_999,
            NodeId(1),
            ClientOp::ReadDel { sc, blocking: false },
            late,
        );
        corrupted.returned(9_999, ClientResult::Found(obj), late + SimTime::from_micros(1));
        let report = check_run(&corrupted);
        prop_assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Axiom(AxiomViolation::DoubleConsume { .. }))),
            "missed double consume: {:?}",
            report.violations
        );
    }

    #[test]
    fn phantom_objects_are_always_caught(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut log = reference_run(&ops);
        let phantom = PasoObject::new(ObjectId::new(ProcessId(9), 999), vec![Value::Int(0)]);
        let late = SimTime::from_secs(100);
        log.issued(9_999, NodeId(1), ClientOp::Read { sc: sc_any(), blocking: false }, late);
        log.returned(9_999, ClientResult::Found(phantom), late + SimTime::from_micros(1));
        let report = check_run(&log);
        let caught = report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Axiom(AxiomViolation::ReadBeforeInsert { .. })));
        prop_assert!(caught, "phantom not flagged");
    }

    #[test]
    fn fabricated_fails_are_caught_when_a_witness_lives(
        ops in proptest::collection::vec(arb_op(), 0..40),
    ) {
        let log = reference_run(&ops);
        // A fail on sc_any() issued after everything completed is illegal
        // iff some object is still live at the end.
        let mut live: Vec<ObjectId> = Vec::new();
        for r in log.records() {
            match (&r.op, &r.result) {
                (ClientOp::Insert { object }, _) => live.push(object.id()),
                (_, Some(ClientResult::Found(o))) if matches!(r.op, ClientOp::ReadDel { .. }) => {
                    live.retain(|id| *id != o.id());
                }
                _ => {}
            }
        }
        let mut corrupted = log.clone();
        let late = SimTime::from_secs(100);
        corrupted.issued(9_999, NodeId(1), ClientOp::Read { sc: sc_any(), blocking: false }, late);
        corrupted.returned(9_999, ClientResult::Fail, late + SimTime::from_micros(1));
        let report = check_run(&corrupted);
        let flagged = report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::IllegalFail { op: 9_999, .. }));
        prop_assert_eq!(
            flagged,
            !live.is_empty(),
            "fail legality must mirror whether a witness survives (live: {:?})",
            live
        );
    }

    #[test]
    fn criterion_mismatch_is_always_caught(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let log = reference_run(&ops);
        // Re-answer a read with an object that cannot match its criterion.
        let inserted: Vec<PasoObject> = log
            .records()
            .filter_map(|r| match &r.op {
                ClientOp::Insert { object } => Some(object.clone()),
                _ => None,
            })
            .collect();
        prop_assume!(!inserted.is_empty());
        let mut corrupted = log.clone();
        let late = SimTime::from_secs(100);
        corrupted.issued(
            9_999,
            NodeId(1),
            // Criterion the object cannot match: wrong arity.
            ClientOp::Read { sc: SearchCriterion::from(Template::wildcard(3)), blocking: false },
            late,
        );
        corrupted.returned(
            9_999,
            ClientResult::Found(inserted[0].clone()),
            late + SimTime::from_micros(1),
        );
        let report = check_run(&corrupted);
        let caught = report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CriterionMismatch { op: 9_999, .. }));
        prop_assert!(caught, "criterion mismatch not flagged");
    }
}
