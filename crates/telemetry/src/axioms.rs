//! The A1–A3 axiom checker (§2 of the paper) — the workspace's one
//! implementation of them.
//!
//! [`AxiomTracker`] absorbs `OpBegin`/`OpEnd` events one at a time, using
//! only interval reasoning over op windows, so it is sound under true
//! concurrency and needs no object payloads:
//!
//! - **A1 (insert-before-read)** — an object returned by a read/read&del
//!   must have an insert that began no later than the return: a returned
//!   object with no insert at all, or whose insert began only after the
//!   returning op ended, is flagged.
//! - **A2 (consume exactly once)** — at most one insert per object and at
//!   most one `read&del` may return (consume) it.
//! - **A3 (no resurrection)** — once a consuming `read&del` has returned,
//!   an operation issued strictly later may not return the object.  Reads
//!   overlapping the consume are legal, exactly as the paper's interval
//!   semantics allows.
//!
//! The checker never flags a legal run: live windows are bounded outward
//! by begin/end timestamps (`[insert.begin, consume.end]`).  Every caller
//! goes through the tracker: [`check_trace`] replays a recorded trace of
//! either driver (simulator or live runtime), `paso_core::check_run`
//! replays a simulator run log and adds the payload checks (criterion
//! matching, fail legality), and the campaign driver checkpoints a
//! tracker alongside the engine.

use std::collections::BTreeMap;
use std::fmt;

use crate::trace::{ObjRef, OpKind, Outcome, TraceEvent, TraceKind};

/// A violation of axioms A1–A3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxiomViolation {
    /// A1: op returned an object that was never inserted, or whose insert
    /// began only after the op had already returned.
    ReadBeforeInsert { op: u64, object: ObjRef },
    /// A2: the same object was inserted by two different ops.
    DuplicateInsert { object: ObjRef, ops: (u64, u64) },
    /// A2: the same object was consumed by two `read&del`s.
    DoubleConsume { object: ObjRef, ops: (u64, u64) },
    /// A3: an op issued strictly after the consuming `read&del` returned
    /// still returned the object.
    Resurrection {
        op: u64,
        object: ObjRef,
        consumed_by: u64,
    },
}

impl fmt::Display for AxiomViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxiomViolation::ReadBeforeInsert { op, object } => {
                write!(
                    f,
                    "A1: op {op} returned {object:?} before/without its insert"
                )
            }
            AxiomViolation::DuplicateInsert { object, ops } => {
                write!(f, "A2: {object:?} inserted by ops {} and {}", ops.0, ops.1)
            }
            AxiomViolation::DoubleConsume { object, ops } => {
                write!(f, "A2: {object:?} consumed by ops {} and {}", ops.0, ops.1)
            }
            AxiomViolation::Resurrection {
                op,
                object,
                consumed_by,
            } => write!(
                f,
                "A3: op {op} returned {object:?} after op {consumed_by} consumed it"
            ),
        }
    }
}

/// Summary of an axiom check over one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AxiomReport {
    /// Completed operations reconstructed from the trace.
    pub ops_checked: usize,
    /// Inserts seen.
    pub inserts: usize,
    /// Reads / read&dels that returned an object.
    pub found: usize,
    /// Consuming read&dels.
    pub consumes: usize,
    /// All discovered violations.
    pub violations: Vec<AxiomViolation>,
}

impl AxiomReport {
    /// Did the trace satisfy A1–A3?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks a recorded trace against axioms A1–A3.
///
/// Only `OpBegin`/`OpEnd` events participate; everything else (gcasts,
/// view changes, faults) is ignored.  The events are replayed in time
/// order (see [`AxiomTracker::replay`]), so the verdict does not depend on
/// record order, which for a live trace interleaves threads.  Ops still in
/// flight when the trace was captured are not judged, but an in-flight
/// insert's object counts as inserted from its begin: its issuer may have
/// crashed after the insert took effect.
pub fn check_trace(events: &[TraceEvent]) -> AxiomReport {
    AxiomTracker::replay(events).report
}

/// One begun-but-not-yet-ended operation inside an [`AxiomTracker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingOp {
    /// The op id pairing begin with end.
    pub op_id: u64,
    /// Begin timestamp (micros).
    pub begin: u64,
    /// Operation kind recorded at begin.
    pub op: OpKind,
    /// Object being inserted (inserts only).
    pub obj: Option<ObjRef>,
}

/// The tracked lifetime of one object: insert window and (at most one
/// legal) consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjLife {
    /// The object.
    pub obj: ObjRef,
    /// The op that inserted it.
    pub insert_op: u64,
    /// When that insert began.
    pub insert_begin: u64,
    /// When that insert returned (`None` while it is in flight).
    pub insert_end: Option<u64>,
    /// The consuming `read&del`, as `(op_id, begin_micros, end_micros)`.
    pub consume: Option<(u64, u64, u64)>,
}

/// The complete, externally serializable state of an [`AxiomTracker`].
///
/// Plain data with public fields so a checkpointing layer above this crate
/// (which deliberately has no codec dependency) can encode it however it
/// likes and rebuild an identical tracker with
/// [`AxiomTracker::from_state`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AxiomTrackerState {
    /// In-flight ops, ascending by op id.
    pub pending: Vec<PendingOp>,
    /// Object lifetimes, ascending by object.
    pub lives: Vec<ObjLife>,
    /// The running report (violations in discovery order).
    pub report: AxiomReport,
}

/// Incremental A1–A3 checker, one event at a time.
///
/// Two properties make it the right shape for checkpoint bisection:
///
/// - **Monotone.** Violations only accumulate: once `ok()` is false it
///   stays false no matter what is absorbed next, so "first event after
///   which the tracker is not ok" is well-defined and binary-searchable.
///   To get that, an insert's object is registered when its *begin* is
///   absorbed (the object is known at begin), so a read overlapping an
///   in-flight insert is legal at every prefix.
/// - **Resumable.** [`save_state`](Self::save_state) /
///   [`from_state`](Self::from_state) round-trip the full tracker, so a
///   campaign can checkpoint the checker alongside the engine and resume
///   either from any boundary.
///
/// Fed a time-ordered trace, it agrees with the whole-trace three-pass
/// reference kept in this module's tests (same counters, same violation
/// multiset) whenever every begun insert eventually ends; on an insert
/// that never ends it is the more accurate of the two.
#[derive(Debug, Clone, Default)]
pub struct AxiomTracker {
    pending: BTreeMap<u64, (u64, OpKind, Option<ObjRef>)>,
    lives: BTreeMap<ObjRef, ObjLife>,
    report: AxiomReport,
}

impl AxiomTracker {
    /// A fresh tracker that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracker that has absorbed `events` in time order: sorted by
    /// timestamp, an `OpBegin` ahead of an `OpEnd` at the same instant, and
    /// remaining ties by op id, so any permutation of one trace gives the
    /// same tracker.  Events other than `OpBegin`/`OpEnd` are skipped.
    pub fn replay(events: &[TraceEvent]) -> Self {
        let mut ops: Vec<((u64, bool, u64), &TraceEvent)> = events
            .iter()
            .filter_map(|ev| match ev.kind {
                TraceKind::OpBegin { op_id, .. } => Some(((ev.at_micros, false, op_id), ev)),
                TraceKind::OpEnd { op_id, .. } => Some(((ev.at_micros, true, op_id), ev)),
                _ => None,
            })
            .collect();
        ops.sort_by_key(|&(key, _)| key);
        let mut tracker = Self::new();
        for (_, ev) in ops {
            tracker.absorb(ev);
        }
        tracker
    }

    /// Rebuilds a tracker from a previously saved state.
    pub fn from_state(state: AxiomTrackerState) -> Self {
        AxiomTracker {
            pending: state
                .pending
                .into_iter()
                .map(|p| (p.op_id, (p.begin, p.op, p.obj)))
                .collect(),
            lives: state.lives.into_iter().map(|l| (l.obj, l)).collect(),
            report: state.report,
        }
    }

    /// Serializes the tracker into plain data (see [`AxiomTrackerState`]).
    pub fn save_state(&self) -> AxiomTrackerState {
        AxiomTrackerState {
            pending: self
                .pending
                .iter()
                .map(|(&op_id, &(begin, op, obj))| PendingOp {
                    op_id,
                    begin,
                    op,
                    obj,
                })
                .collect(),
            lives: self.lives.values().cloned().collect(),
            report: self.report.clone(),
        }
    }

    /// The running report. `violations` is append-only across absorbs.
    pub fn report(&self) -> &AxiomReport {
        &self.report
    }

    /// No violations so far?
    pub fn ok(&self) -> bool {
        self.report.violations.is_empty()
    }

    /// Every object lifetime tracked so far, ascending by object.
    pub fn lives(&self) -> impl Iterator<Item = &ObjLife> {
        self.lives.values()
    }

    /// The earliest violation discovered, if any.
    pub fn first_violation(&self) -> Option<&AxiomViolation> {
        self.report.violations.first()
    }

    /// Absorbs a batch in order; returns violations added.
    pub fn absorb_all(&mut self, events: &[TraceEvent]) -> usize {
        events.iter().map(|ev| self.absorb(ev)).sum()
    }

    /// Absorbs one trace event; returns the number of violations this
    /// event added (0 almost always).
    pub fn absorb(&mut self, ev: &TraceEvent) -> usize {
        let before = self.report.violations.len();
        match &ev.kind {
            TraceKind::OpBegin { op_id, op, obj } => {
                self.pending.insert(*op_id, (ev.at_micros, *op, *obj));
                if *op == OpKind::Insert {
                    if let Some(o) = obj {
                        // Register the life at begin (duplicates are
                        // flagged when the second insert *ends*: A2 is
                        // judged on completed inserts only).
                        self.lives.entry(*o).or_insert(ObjLife {
                            obj: *o,
                            insert_op: *op_id,
                            insert_begin: ev.at_micros,
                            insert_end: None,
                            consume: None,
                        });
                    }
                }
            }
            TraceKind::OpEnd { op_id, op, outcome } => {
                if let Some((begin, _, obj)) = self.pending.remove(op_id) {
                    self.finish_op(*op_id, *op, begin, ev.at_micros, *outcome, obj);
                }
            }
            _ => {}
        }
        self.report.violations.len() - before
    }

    fn finish_op(
        &mut self,
        op_id: u64,
        op: OpKind,
        begin: u64,
        end: u64,
        outcome: Outcome,
        inserted_obj: Option<ObjRef>,
    ) {
        self.report.ops_checked += 1;
        if op == OpKind::Insert {
            self.report.inserts += 1;
            // The life was registered at this insert's begin, or earlier
            // by another insert of the same object.
            if let Some(life) = inserted_obj.and_then(|o| self.lives.get_mut(&o)) {
                if life.insert_op == op_id {
                    life.insert_end = Some(end);
                } else {
                    // A2: the first insert to begin owns the life.
                    self.report
                        .violations
                        .push(AxiomViolation::DuplicateInsert {
                            object: life.obj,
                            ops: (life.insert_op, op_id),
                        });
                }
            }
            return;
        }
        let Outcome::Found(obj) = outcome else {
            return;
        };
        self.report.found += 1;
        if op == OpKind::ReadDel {
            self.report.consumes += 1;
        }
        let Some(life) = self.lives.get_mut(&obj) else {
            // A1: returned an object with no insert at all.
            self.report
                .violations
                .push(AxiomViolation::ReadBeforeInsert {
                    op: op_id,
                    object: obj,
                });
            return;
        };
        if op == OpKind::ReadDel {
            match life.consume {
                Some((other, _, _)) => {
                    // A2: consumed twice.
                    self.report.violations.push(AxiomViolation::DoubleConsume {
                        object: obj,
                        ops: (other, op_id),
                    });
                }
                None => life.consume = Some((op_id, begin, end)),
            }
        }
        // A1: the op's return must not precede the insert's begin.
        if end < life.insert_begin {
            self.report
                .violations
                .push(AxiomViolation::ReadBeforeInsert {
                    op: op_id,
                    object: obj,
                });
        }
        // A3: issued strictly after the consume returned, yet still saw
        // the object (and is not the consumer itself).
        if let Some((consumer, _, consume_end)) = life.consume {
            if consumer != op_id && begin > consume_end {
                self.report.violations.push(AxiomViolation::Resurrection {
                    op: op_id,
                    object: obj,
                    consumed_by: consumer,
                });
            }
        }
    }
}

/// The whole-trace three-pass A1–A3 checker that [`AxiomTracker`]
/// replaced, kept as the reference the tracker is tested against.  It pairs
/// begin with end in record order and sees completed ops only, so an insert
/// that never ends is invisible to it.
#[cfg(test)]
mod oracle {
    use std::collections::BTreeMap;

    use super::{AxiomReport, AxiomViolation};
    use crate::trace::{ObjRef, OpKind, Outcome, TraceEvent, TraceKind};

    /// One reconstructed operation interval.
    #[derive(Debug, Clone)]
    struct OpInterval {
        op_id: u64,
        op: OpKind,
        begin: u64,
        end: u64,
        outcome: Outcome,
        inserted_obj: Option<ObjRef>,
    }

    pub(super) fn batch_check(events: &[TraceEvent]) -> AxiomReport {
        let mut report = AxiomReport::default();

        // Pair up begin/end by op id.
        let mut begins: BTreeMap<u64, (u64, OpKind, Option<ObjRef>)> = BTreeMap::new();
        let mut ops: Vec<OpInterval> = Vec::new();
        for ev in events {
            match &ev.kind {
                TraceKind::OpBegin { op_id, op, obj } => {
                    begins.insert(*op_id, (ev.at_micros, *op, *obj));
                }
                TraceKind::OpEnd { op_id, op, outcome } => {
                    if let Some((begin, bk, obj)) = begins.remove(op_id) {
                        debug_assert_eq!(bk, *op, "op {op_id} kind changed between begin and end");
                        ops.push(OpInterval {
                            op_id: *op_id,
                            op: *op,
                            begin,
                            end: ev.at_micros,
                            outcome: *outcome,
                            inserted_obj: obj,
                        });
                    }
                }
                _ => {}
            }
        }
        report.ops_checked = ops.len();

        // Pass 1: inserts — A2 uniqueness of insertion.
        struct Life {
            insert_op: u64,
            insert_begin: u64,
            consume: Option<(u64, u64, u64)>, // (op, begin, end)
        }
        let mut lives: BTreeMap<ObjRef, Life> = BTreeMap::new();
        for op in ops.iter().filter(|o| o.op == OpKind::Insert) {
            report.inserts += 1;
            let Some(obj) = op.inserted_obj else { continue };
            if let Some(prev) = lives.get(&obj) {
                report.violations.push(AxiomViolation::DuplicateInsert {
                    object: obj,
                    ops: (prev.insert_op, op.op_id),
                });
            } else {
                lives.insert(
                    obj,
                    Life {
                        insert_op: op.op_id,
                        insert_begin: op.begin,
                        consume: None,
                    },
                );
            }
        }

        // Pass 2: consuming read&dels — A2 consume-exactly-once.
        for op in ops.iter().filter(|o| o.op == OpKind::ReadDel) {
            let Outcome::Found(obj) = op.outcome else {
                continue;
            };
            report.consumes += 1;
            match lives.get_mut(&obj) {
                None => report.violations.push(AxiomViolation::ReadBeforeInsert {
                    op: op.op_id,
                    object: obj,
                }),
                Some(life) => {
                    if let Some((other, _, _)) = life.consume {
                        report.violations.push(AxiomViolation::DoubleConsume {
                            object: obj,
                            ops: (other, op.op_id),
                        });
                    } else {
                        life.consume = Some((op.op_id, op.begin, op.end));
                    }
                }
            }
        }

        // Pass 3: every returning op against the object's live window
        // [insert.begin, consume.end] — A1 on the left edge, A3 on the right.
        for op in &ops {
            let Outcome::Found(obj) = op.outcome else {
                continue;
            };
            report.found += 1;
            let Some(life) = lives.get(&obj) else {
                // Read of a never-inserted object; read&dels were already
                // flagged in pass 2.
                if op.op != OpKind::ReadDel {
                    report.violations.push(AxiomViolation::ReadBeforeInsert {
                        op: op.op_id,
                        object: obj,
                    });
                }
                continue;
            };
            // A1: the op's return must not precede the insert's begin.
            if op.end < life.insert_begin {
                report.violations.push(AxiomViolation::ReadBeforeInsert {
                    op: op.op_id,
                    object: obj,
                });
            }
            // A3: an op issued strictly after the consume returned cannot
            // still see the object (unless it *is* the consumer).
            if let Some((consumer, _, consume_end)) = life.consume {
                if consumer != op.op_id && op.begin > consume_end {
                    report.violations.push(AxiomViolation::Resurrection {
                        op: op.op_id,
                        object: obj,
                        consumed_by: consumer,
                    });
                }
            }
        }

        report
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::batch_check;
    use super::*;

    fn ev(at: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at_micros: at,
            node: 0,
            kind,
        }
    }

    fn obj(seq: u64) -> ObjRef {
        ObjRef { origin: 1, seq }
    }

    fn insert(at: (u64, u64), op_id: u64, o: ObjRef) -> [TraceEvent; 2] {
        [
            ev(
                at.0,
                TraceKind::OpBegin {
                    op_id,
                    op: OpKind::Insert,
                    obj: Some(o),
                },
            ),
            ev(
                at.1,
                TraceKind::OpEnd {
                    op_id,
                    op: OpKind::Insert,
                    outcome: Outcome::Inserted,
                },
            ),
        ]
    }

    fn found(at: (u64, u64), op_id: u64, kind: OpKind, o: ObjRef) -> [TraceEvent; 2] {
        [
            ev(
                at.0,
                TraceKind::OpBegin {
                    op_id,
                    op: kind,
                    obj: None,
                },
            ),
            ev(
                at.1,
                TraceKind::OpEnd {
                    op_id,
                    op: kind,
                    outcome: Outcome::Found(o),
                },
            ),
        ]
    }

    #[test]
    fn legal_insert_read_consume_passes() {
        let mut t = Vec::new();
        t.extend(insert((0, 10), 1, obj(1)));
        t.extend(found((20, 30), 2, OpKind::Read, obj(1)));
        t.extend(found((40, 50), 3, OpKind::ReadDel, obj(1)));
        let r = check_trace(&t);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.inserts, 1);
        assert_eq!(r.found, 2);
        assert_eq!(r.consumes, 1);
    }

    #[test]
    fn read_overlapping_consume_is_legal() {
        let mut t = Vec::new();
        t.extend(insert((0, 10), 1, obj(1)));
        t.extend(found((20, 40), 2, OpKind::ReadDel, obj(1)));
        t.extend(found((25, 35), 3, OpKind::Read, obj(1)));
        assert!(check_trace(&t).ok());
    }

    #[test]
    fn double_consume_flagged() {
        let mut t = Vec::new();
        t.extend(insert((0, 10), 1, obj(1)));
        t.extend(found((20, 25), 2, OpKind::ReadDel, obj(1)));
        t.extend(found((30, 35), 3, OpKind::ReadDel, obj(1)));
        let r = check_trace(&t);
        assert_eq!(
            r.violations,
            vec![
                AxiomViolation::DoubleConsume {
                    object: obj(1),
                    ops: (2, 3)
                },
                AxiomViolation::Resurrection {
                    op: 3,
                    object: obj(1),
                    consumed_by: 2
                }
            ]
        );
    }

    #[test]
    fn read_of_dead_object_flagged() {
        let mut t = Vec::new();
        t.extend(insert((0, 10), 1, obj(1)));
        t.extend(found((20, 25), 2, OpKind::ReadDel, obj(1)));
        t.extend(found((30, 40), 3, OpKind::Read, obj(1)));
        let r = check_trace(&t);
        assert_eq!(
            r.violations,
            vec![AxiomViolation::Resurrection {
                op: 3,
                object: obj(1),
                consumed_by: 2
            }]
        );
    }

    #[test]
    fn insert_reordered_after_read_flagged() {
        let mut t = Vec::new();
        // Read returns at t=5, but the insert only begins at t=20.
        t.extend(found((0, 5), 2, OpKind::Read, obj(1)));
        t.extend(insert((20, 30), 1, obj(1)));
        let r = check_trace(&t);
        assert_eq!(
            r.violations,
            vec![AxiomViolation::ReadBeforeInsert {
                op: 2,
                object: obj(1)
            }]
        );
    }

    #[test]
    fn read_of_never_inserted_object_flagged() {
        let t: Vec<_> = found((0, 5), 2, OpKind::Read, obj(9)).into();
        let r = check_trace(&t);
        assert_eq!(
            r.violations,
            vec![AxiomViolation::ReadBeforeInsert {
                op: 2,
                object: obj(9)
            }]
        );
    }

    #[test]
    fn duplicate_insert_flagged() {
        let mut t = Vec::new();
        t.extend(insert((0, 10), 1, obj(1)));
        t.extend(insert((20, 30), 2, obj(1)));
        let r = check_trace(&t);
        assert_eq!(
            r.violations,
            vec![AxiomViolation::DuplicateInsert {
                object: obj(1),
                ops: (1, 2)
            }]
        );
    }

    #[test]
    fn in_flight_ops_are_skipped() {
        let t = vec![ev(
            0,
            TraceKind::OpBegin {
                op_id: 1,
                op: OpKind::Read,
                obj: None,
            },
        )];
        let r = check_trace(&t);
        assert!(r.ok());
        assert_eq!(r.ops_checked, 0);
    }

    #[test]
    fn read_overlapping_insert_is_legal() {
        // Read returns at t=15, insert began at t=10: windows intersect.
        let mut t = Vec::new();
        t.extend(insert((10, 30), 1, obj(1)));
        t.extend(found((5, 15), 2, OpKind::Read, obj(1)));
        assert!(check_trace(&t).ok());
    }

    /// An insert whose issuer crashed before it returned may still have
    /// taken effect, so a read returning its object is legal.
    #[test]
    fn read_of_in_flight_insert_is_legal() {
        let mut t = vec![ev(
            0,
            TraceKind::OpBegin {
                op_id: 1,
                op: OpKind::Insert,
                obj: Some(obj(1)),
            },
        )];
        t.extend(found((5, 9), 2, OpKind::Read, obj(1)));
        let r = check_trace(&t);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!((r.ops_checked, r.found), (1, 1));
    }

    // ------------------------------------------------------------------
    // Incremental tracker
    // ------------------------------------------------------------------

    /// Every batch-checker scenario above, absorbed one event at a time,
    /// must land on the identical report.
    #[test]
    fn tracker_matches_batch_on_fixed_scenarios() {
        let scenarios: Vec<Vec<TraceEvent>> = vec![
            // legal insert/read/consume
            {
                let mut t = Vec::new();
                t.extend(insert((0, 10), 1, obj(1)));
                t.extend(found((20, 30), 2, OpKind::Read, obj(1)));
                t.extend(found((40, 50), 3, OpKind::ReadDel, obj(1)));
                t
            },
            // read overlapping consume
            {
                let mut t = Vec::new();
                t.extend(insert((0, 10), 1, obj(1)));
                t.extend(found((20, 40), 2, OpKind::ReadDel, obj(1)));
                t.extend(found((25, 35), 3, OpKind::Read, obj(1)));
                t
            },
            // double consume + resurrection
            {
                let mut t = Vec::new();
                t.extend(insert((0, 10), 1, obj(1)));
                t.extend(found((20, 25), 2, OpKind::ReadDel, obj(1)));
                t.extend(found((30, 35), 3, OpKind::ReadDel, obj(1)));
                t
            },
            // read of dead object
            {
                let mut t = Vec::new();
                t.extend(insert((0, 10), 1, obj(1)));
                t.extend(found((20, 25), 2, OpKind::ReadDel, obj(1)));
                t.extend(found((30, 40), 3, OpKind::Read, obj(1)));
                t
            },
            // read of never-inserted object
            found((0, 5), 2, OpKind::Read, obj(9)).into(),
            // sequential duplicate insert
            {
                let mut t = Vec::new();
                t.extend(insert((0, 10), 1, obj(1)));
                t.extend(insert((20, 30), 2, obj(1)));
                t
            },
        ];
        for t in scenarios {
            let batch = batch_check(&t);
            let mut tracker = AxiomTracker::new();
            tracker.absorb_all(&t);
            assert_eq!(tracker.report(), &batch, "trace: {t:?}");
        }
    }

    /// The property bisection depends on: a read whose object's insert is
    /// still in flight is legal at *every prefix* — the tracker registers
    /// the insert at its begin, so violations never appear and then
    /// retroactively vanish.
    #[test]
    fn tracker_is_monotone_across_in_flight_inserts() {
        let mut t = Vec::new();
        t.extend(insert((10, 30), 1, obj(1)));
        t.extend(found((5, 15), 2, OpKind::Read, obj(1)));
        // Interleave: insert begin, read begin, read end, insert end.
        t.sort_by_key(|e| e.at_micros);
        let mut tracker = AxiomTracker::new();
        for ev in &t {
            let added = tracker.absorb(ev);
            assert_eq!(added, 0, "prefix flagged a legal overlap: {ev:?}");
        }
        assert!(tracker.ok());
        assert_eq!(tracker.report().found, 1);
    }

    #[test]
    fn tracker_reports_violation_at_the_breaking_event() {
        let mut t = Vec::new();
        t.extend(insert((0, 10), 1, obj(1)));
        t.extend(found((20, 25), 2, OpKind::ReadDel, obj(1)));
        t.extend(found((30, 35), 3, OpKind::ReadDel, obj(1)));
        let mut tracker = AxiomTracker::new();
        // Everything before the second consume's end is clean.
        for ev in &t[..5] {
            assert_eq!(tracker.absorb(ev), 0);
        }
        // The second consume's OpEnd adds DoubleConsume + Resurrection.
        assert_eq!(tracker.absorb(&t[5]), 2);
        assert_eq!(
            tracker.first_violation(),
            Some(&AxiomViolation::DoubleConsume {
                object: obj(1),
                ops: (2, 3)
            })
        );
    }

    #[test]
    fn tracker_state_roundtrip_preserves_everything() {
        let mut t = Vec::new();
        t.extend(insert((0, 10), 1, obj(1)));
        t.extend(insert((12, 40), 4, obj(2))); // left in flight below
        t.extend(found((20, 25), 2, OpKind::ReadDel, obj(1)));
        t.extend(found((30, 35), 3, OpKind::Read, obj(1)));
        // Split mid-stream: absorb a prefix, round-trip, absorb the rest.
        for split in 0..=t.len() {
            let mut whole = AxiomTracker::new();
            whole.absorb_all(&t);
            let mut first = AxiomTracker::new();
            first.absorb_all(&t[..split]);
            let mut resumed = AxiomTracker::from_state(first.save_state());
            resumed.absorb_all(&t[split..]);
            assert_eq!(resumed.report(), whole.report(), "split at {split}");
            assert_eq!(resumed.save_state(), whole.save_state(), "split at {split}");
        }
    }
}

#[cfg(test)]
mod tracker_proptests {
    use super::oracle::batch_check;
    use super::*;
    use proptest::prelude::*;

    /// One sequential (non-overlapping) operation in a generated history.
    #[derive(Debug, Clone, Copy)]
    struct GenOp {
        kind: u8, // 0 insert, 1 read, 2 read&del
        obj_seq: u64,
        len: u64,
        gap: u64,
        /// For reads: return Found even if we could know better (the
        /// generator doesn't model a store — illegal histories are the
        /// point).
        hit: bool,
    }

    fn gen_ops() -> impl Strategy<Value = Vec<GenOp>> {
        proptest::collection::vec(
            (0u8..3, 0u64..6, 0u64..20, 0u64..10, any::<bool>()).prop_map(
                |(kind, obj_seq, len, gap, hit)| GenOp {
                    kind,
                    obj_seq,
                    len,
                    gap,
                    hit,
                },
            ),
            0..60,
        )
    }

    /// Renders a generated history into a trace: ops run back to back
    /// (non-overlapping), so batch and incremental semantics coincide
    /// exactly, while duplicate inserts, double consumes, resurrections
    /// and ghost reads all arise freely. The one shape excluded is a read
    /// returning an object whose *only* insert comes later in the
    /// history: the batch checker retroactively adopts that read into the
    /// future object's lifetime (it can see the whole trace), which a
    /// stream-order checker by design does not — both still flag the read
    /// itself as A1-illegal.
    fn render(ops: &[GenOp]) -> Vec<TraceEvent> {
        let mut first_insert = std::collections::BTreeMap::new();
        for (i, g) in ops.iter().enumerate() {
            if g.kind == 0 {
                first_insert.entry(g.obj_seq).or_insert(i);
            }
        }
        let mut t = Vec::new();
        let mut clock = 0u64;
        for (i, g) in ops.iter().enumerate() {
            let op_id = i as u64 + 1;
            let o = ObjRef {
                origin: 7,
                seq: g.obj_seq,
            };
            let (kind, begin_obj) = match g.kind {
                0 => (OpKind::Insert, Some(o)),
                1 => (OpKind::Read, None),
                _ => (OpKind::ReadDel, None),
            };
            t.push(TraceEvent {
                at_micros: clock,
                node: 0,
                kind: TraceKind::OpBegin {
                    op_id,
                    op: kind,
                    obj: begin_obj,
                },
            });
            clock += g.len;
            let hit = g.hit && first_insert.get(&g.obj_seq).is_none_or(|&j| j < i);
            let outcome = match kind {
                OpKind::Insert => Outcome::Inserted,
                _ if hit => Outcome::Found(o),
                _ => Outcome::Fail,
            };
            t.push(TraceEvent {
                at_micros: clock,
                node: 0,
                kind: TraceKind::OpEnd {
                    op_id,
                    op: kind,
                    outcome,
                },
            });
            clock += g.gap + 1;
        }
        t
    }

    /// Overlapping ops at random instants; about one in eight never ends.
    fn gen_concurrent() -> impl Strategy<Value = Vec<TraceEvent>> {
        proptest::collection::vec(
            (0u8..3, 0u64..4, 0u64..50, 0u64..20, any::<bool>(), 0u8..8),
            0..40,
        )
        .prop_map(|ops| {
            let mut t = Vec::new();
            for (i, (kind, seq, begin, len, hit, end_roll)) in ops.into_iter().enumerate() {
                let op_id = i as u64 + 1;
                let o = ObjRef { origin: 7, seq };
                let (op, obj) = match kind {
                    0 => (OpKind::Insert, Some(o)),
                    1 => (OpKind::Read, None),
                    _ => (OpKind::ReadDel, None),
                };
                t.push(TraceEvent {
                    at_micros: begin,
                    node: 0,
                    kind: TraceKind::OpBegin { op_id, op, obj },
                });
                if end_roll == 0 {
                    continue;
                }
                let outcome = match op {
                    OpKind::Insert => Outcome::Inserted,
                    _ if hit => Outcome::Found(o),
                    _ => Outcome::Fail,
                };
                t.push(TraceEvent {
                    at_micros: begin + len,
                    node: 0,
                    kind: TraceKind::OpEnd { op_id, op, outcome },
                });
            }
            t
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Incremental ≡ batch on complete histories: identical counters
        /// and the identical violation multiset (the batch checker orders
        /// violations by pass, the tracker by stream position).
        #[test]
        fn tracker_equals_batch_checker(ops in gen_ops()) {
            let t = render(&ops);
            let batch = batch_check(&t);
            let mut tracker = AxiomTracker::new();
            tracker.absorb_all(&t);
            let inc = tracker.report();
            prop_assert_eq!(inc.ops_checked, batch.ops_checked);
            prop_assert_eq!(inc.inserts, batch.inserts);
            prop_assert_eq!(inc.found, batch.found);
            prop_assert_eq!(inc.consumes, batch.consumes);
            let sorted = |r: &AxiomReport| {
                let mut v: Vec<String> =
                    r.violations.iter().map(|x| format!("{x:?}")).collect();
                v.sort();
                v
            };
            prop_assert_eq!(sorted(inc), sorted(&batch));
        }

        /// `check_trace` replays in time order, so the record order of its
        /// input (thread interleaving, for a live trace) cannot change the
        /// report.
        #[test]
        fn check_trace_ignores_record_order(t in gen_concurrent(), seed in any::<u64>()) {
            let mut shuffled = t.clone();
            let mut x = seed;
            for i in (1..shuffled.len()).rev() {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                shuffled.swap(i, (x >> 33) as usize % (i + 1));
            }
            prop_assert_eq!(check_trace(&shuffled), check_trace(&t));
        }

        /// Violations are monotone, and save/resume at any boundary is
        /// invisible.
        #[test]
        fn tracker_is_monotone_and_resumable(ops in gen_ops(), split_frac in 0.0f64..1.0) {
            let t = render(&ops);
            let split = ((t.len() as f64) * split_frac) as usize;

            let mut whole = AxiomTracker::new();
            let mut last = 0usize;
            for ev in &t {
                whole.absorb(ev);
                let now = whole.report().violations.len();
                prop_assert!(now >= last, "violations shrank");
                last = now;
            }

            let mut first = AxiomTracker::new();
            first.absorb_all(&t[..split]);
            let mut resumed = AxiomTracker::from_state(first.save_state());
            resumed.absorb_all(&t[split..]);
            prop_assert_eq!(resumed.report(), whole.report());
        }
    }
}
