//! Wire serialization for telemetry trace/axiom types.
//!
//! `paso-telemetry` sits below `paso-wire` in the dependency graph and must
//! stay dependency-light, so it cannot implement [`Wire`] itself — and the
//! orphan rule forbids this crate from implementing a foreign trait for
//! foreign types.  The campaign artifacts (checkpointed invariant states,
//! repro traces) therefore serialize through these free functions.  Tags
//! are `u8`; integers are varints via the `Wire` impls on `u64`/`u32`.

use paso_telemetry::{
    AxiomReport, AxiomTrackerState, AxiomViolation, ObjLife, ObjRef, OpKind, Outcome, PendingOp,
    TraceEvent, TraceKind,
};
use paso_wire::{Reader, Wire, WireError};

pub fn encode_obj_ref(o: &ObjRef, out: &mut Vec<u8>) {
    o.origin.encode(out);
    o.seq.encode(out);
}

pub fn decode_obj_ref(r: &mut Reader<'_>) -> Result<ObjRef, WireError> {
    Ok(ObjRef {
        origin: u64::decode(r)?,
        seq: u64::decode(r)?,
    })
}

fn encode_op_kind(k: OpKind, out: &mut Vec<u8>) {
    out.push(match k {
        OpKind::Insert => 0,
        OpKind::Read => 1,
        OpKind::ReadDel => 2,
    });
}

fn decode_op_kind(r: &mut Reader<'_>) -> Result<OpKind, WireError> {
    match r.u8()? {
        0 => Ok(OpKind::Insert),
        1 => Ok(OpKind::Read),
        2 => Ok(OpKind::ReadDel),
        tag => Err(WireError::InvalidTag { ty: "OpKind", tag }),
    }
}

fn encode_outcome(o: &Outcome, out: &mut Vec<u8>) {
    match o {
        Outcome::Inserted => out.push(0),
        Outcome::Found(obj) => {
            out.push(1);
            encode_obj_ref(obj, out);
        }
        Outcome::Fail => out.push(2),
        Outcome::Error => out.push(3),
    }
}

fn decode_outcome(r: &mut Reader<'_>) -> Result<Outcome, WireError> {
    match r.u8()? {
        0 => Ok(Outcome::Inserted),
        1 => Ok(Outcome::Found(decode_obj_ref(r)?)),
        2 => Ok(Outcome::Fail),
        3 => Ok(Outcome::Error),
        tag => Err(WireError::InvalidTag { ty: "Outcome", tag }),
    }
}

pub fn encode_trace_kind(k: &TraceKind, out: &mut Vec<u8>) {
    match k {
        TraceKind::OpBegin { op_id, op, obj } => {
            out.push(0);
            op_id.encode(out);
            encode_op_kind(*op, out);
            match obj {
                Some(o) => {
                    out.push(1);
                    encode_obj_ref(o, out);
                }
                None => out.push(0),
            }
        }
        TraceKind::OpEnd { op_id, op, outcome } => {
            out.push(1);
            op_id.encode(out);
            encode_op_kind(*op, out);
            encode_outcome(outcome, out);
        }
        TraceKind::Gcast {
            group,
            targets,
            bytes,
        } => {
            out.push(2);
            group.encode(out);
            targets.encode(out);
            bytes.encode(out);
        }
        TraceKind::ViewChange {
            group,
            view,
            members,
        } => {
            out.push(3);
            group.encode(out);
            view.encode(out);
            members.encode(out);
        }
        TraceKind::Crash => out.push(4),
        TraceKind::Recover => out.push(5),
        TraceKind::NetDrop { to } => {
            out.push(6);
            to.encode(out);
        }
        TraceKind::NetDelay { to, micros } => {
            out.push(7);
            to.encode(out);
            micros.encode(out);
        }
    }
}

pub fn decode_trace_kind(r: &mut Reader<'_>) -> Result<TraceKind, WireError> {
    match r.u8()? {
        0 => {
            let op_id = u64::decode(r)?;
            let op = decode_op_kind(r)?;
            let obj = match r.u8()? {
                0 => None,
                1 => Some(decode_obj_ref(r)?),
                tag => return Err(WireError::InvalidTag { ty: "Option", tag }),
            };
            Ok(TraceKind::OpBegin { op_id, op, obj })
        }
        1 => Ok(TraceKind::OpEnd {
            op_id: u64::decode(r)?,
            op: decode_op_kind(r)?,
            outcome: decode_outcome(r)?,
        }),
        2 => Ok(TraceKind::Gcast {
            group: u64::decode(r)?,
            targets: u32::decode(r)?,
            bytes: u64::decode(r)?,
        }),
        3 => Ok(TraceKind::ViewChange {
            group: u64::decode(r)?,
            view: u64::decode(r)?,
            members: u32::decode(r)?,
        }),
        4 => Ok(TraceKind::Crash),
        5 => Ok(TraceKind::Recover),
        6 => Ok(TraceKind::NetDrop {
            to: u32::decode(r)?,
        }),
        7 => Ok(TraceKind::NetDelay {
            to: u32::decode(r)?,
            micros: u64::decode(r)?,
        }),
        tag => Err(WireError::InvalidTag {
            ty: "TraceKind",
            tag,
        }),
    }
}

pub fn encode_trace_event(ev: &TraceEvent, out: &mut Vec<u8>) {
    ev.at_micros.encode(out);
    ev.node.encode(out);
    encode_trace_kind(&ev.kind, out);
}

pub fn decode_trace_event(r: &mut Reader<'_>) -> Result<TraceEvent, WireError> {
    Ok(TraceEvent {
        at_micros: u64::decode(r)?,
        node: u32::decode(r)?,
        kind: decode_trace_kind(r)?,
    })
}

pub fn encode_trace(events: &[TraceEvent], out: &mut Vec<u8>) {
    (events.len() as u64).encode(out);
    for ev in events {
        encode_trace_event(ev, out);
    }
}

pub fn decode_trace(r: &mut Reader<'_>) -> Result<Vec<TraceEvent>, WireError> {
    let n = u64::decode(r)? as usize;
    // A length sanity cap: each event is ≥ 4 bytes on the wire, so a count
    // exceeding the remaining bytes is corrupt, not just large.
    if n > r.remaining() {
        return Err(WireError::LengthOverrun {
            claimed: n,
            available: r.remaining(),
        });
    }
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(decode_trace_event(r)?);
    }
    Ok(events)
}

fn encode_violation(v: &AxiomViolation, out: &mut Vec<u8>) {
    match v {
        AxiomViolation::ReadBeforeInsert { op, object } => {
            out.push(0);
            op.encode(out);
            encode_obj_ref(object, out);
        }
        AxiomViolation::DuplicateInsert { object, ops } => {
            out.push(1);
            encode_obj_ref(object, out);
            ops.0.encode(out);
            ops.1.encode(out);
        }
        AxiomViolation::DoubleConsume { object, ops } => {
            out.push(2);
            encode_obj_ref(object, out);
            ops.0.encode(out);
            ops.1.encode(out);
        }
        AxiomViolation::Resurrection {
            op,
            object,
            consumed_by,
        } => {
            out.push(3);
            op.encode(out);
            encode_obj_ref(object, out);
            consumed_by.encode(out);
        }
    }
}

fn decode_violation(r: &mut Reader<'_>) -> Result<AxiomViolation, WireError> {
    match r.u8()? {
        0 => Ok(AxiomViolation::ReadBeforeInsert {
            op: u64::decode(r)?,
            object: decode_obj_ref(r)?,
        }),
        1 => Ok(AxiomViolation::DuplicateInsert {
            object: decode_obj_ref(r)?,
            ops: (u64::decode(r)?, u64::decode(r)?),
        }),
        2 => Ok(AxiomViolation::DoubleConsume {
            object: decode_obj_ref(r)?,
            ops: (u64::decode(r)?, u64::decode(r)?),
        }),
        3 => Ok(AxiomViolation::Resurrection {
            op: u64::decode(r)?,
            object: decode_obj_ref(r)?,
            consumed_by: u64::decode(r)?,
        }),
        tag => Err(WireError::InvalidTag {
            ty: "AxiomViolation",
            tag,
        }),
    }
}

fn encode_report(rep: &AxiomReport, out: &mut Vec<u8>) {
    (rep.ops_checked as u64).encode(out);
    (rep.inserts as u64).encode(out);
    (rep.found as u64).encode(out);
    (rep.consumes as u64).encode(out);
    (rep.violations.len() as u64).encode(out);
    for v in &rep.violations {
        encode_violation(v, out);
    }
}

fn decode_report(r: &mut Reader<'_>) -> Result<AxiomReport, WireError> {
    let ops_checked = u64::decode(r)? as usize;
    let inserts = u64::decode(r)? as usize;
    let found = u64::decode(r)? as usize;
    let consumes = u64::decode(r)? as usize;
    let n = u64::decode(r)? as usize;
    if n > r.remaining() {
        return Err(WireError::LengthOverrun {
            claimed: n,
            available: r.remaining(),
        });
    }
    let mut violations = Vec::with_capacity(n);
    for _ in 0..n {
        violations.push(decode_violation(r)?);
    }
    Ok(AxiomReport {
        ops_checked,
        inserts,
        found,
        consumes,
        violations,
    })
}

/// Serializes a saved [`paso_telemetry::AxiomTracker`] state.
pub fn encode_tracker_state(state: &AxiomTrackerState, out: &mut Vec<u8>) {
    (state.pending.len() as u64).encode(out);
    for p in &state.pending {
        p.op_id.encode(out);
        p.begin.encode(out);
        encode_op_kind(p.op, out);
        match &p.obj {
            Some(o) => {
                out.push(1);
                encode_obj_ref(o, out);
            }
            None => out.push(0),
        }
    }
    (state.lives.len() as u64).encode(out);
    for l in &state.lives {
        encode_obj_ref(&l.obj, out);
        l.insert_op.encode(out);
        l.insert_begin.encode(out);
        l.insert_end.encode(out);
        match l.consume {
            Some((op, begin, end)) => {
                out.push(1);
                op.encode(out);
                begin.encode(out);
                end.encode(out);
            }
            None => out.push(0),
        }
    }
    encode_report(&state.report, out);
}

/// Inverse of [`encode_tracker_state`].
pub fn decode_tracker_state(r: &mut Reader<'_>) -> Result<AxiomTrackerState, WireError> {
    let np = u64::decode(r)? as usize;
    if np > r.remaining() {
        return Err(WireError::LengthOverrun {
            claimed: np,
            available: r.remaining(),
        });
    }
    let mut pending = Vec::with_capacity(np);
    for _ in 0..np {
        let op_id = u64::decode(r)?;
        let begin = u64::decode(r)?;
        let op = decode_op_kind(r)?;
        let obj = match r.u8()? {
            0 => None,
            1 => Some(decode_obj_ref(r)?),
            tag => return Err(WireError::InvalidTag { ty: "Option", tag }),
        };
        pending.push(PendingOp {
            op_id,
            begin,
            op,
            obj,
        });
    }
    let nl = u64::decode(r)? as usize;
    if nl > r.remaining() {
        return Err(WireError::LengthOverrun {
            claimed: nl,
            available: r.remaining(),
        });
    }
    let mut lives = Vec::with_capacity(nl);
    for _ in 0..nl {
        let obj = decode_obj_ref(r)?;
        let insert_op = u64::decode(r)?;
        let insert_begin = u64::decode(r)?;
        let insert_end = Option::<u64>::decode(r)?;
        let consume = match r.u8()? {
            0 => None,
            1 => Some((u64::decode(r)?, u64::decode(r)?, u64::decode(r)?)),
            tag => return Err(WireError::InvalidTag { ty: "Option", tag }),
        };
        lives.push(ObjLife {
            obj,
            insert_op,
            insert_begin,
            insert_end,
            consume,
        });
    }
    let report = decode_report(r)?;
    Ok(AxiomTrackerState {
        pending,
        lives,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_telemetry::AxiomTracker;

    fn ev(at: u64, node: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at_micros: at,
            node,
            kind,
        }
    }

    fn sample_trace() -> Vec<TraceEvent> {
        let obj = ObjRef { origin: 3, seq: 7 };
        vec![
            ev(
                1,
                0,
                TraceKind::OpBegin {
                    op_id: 1,
                    op: OpKind::Insert,
                    obj: Some(obj),
                },
            ),
            ev(
                2,
                0,
                TraceKind::OpEnd {
                    op_id: 1,
                    op: OpKind::Insert,
                    outcome: Outcome::Inserted,
                },
            ),
            ev(
                3,
                1,
                TraceKind::OpBegin {
                    op_id: 2,
                    op: OpKind::ReadDel,
                    obj: None,
                },
            ),
            ev(
                4,
                1,
                TraceKind::OpEnd {
                    op_id: 2,
                    op: OpKind::ReadDel,
                    outcome: Outcome::Found(obj),
                },
            ),
            ev(
                5,
                2,
                TraceKind::Gcast {
                    group: 9,
                    targets: 4,
                    bytes: 128,
                },
            ),
            ev(
                6,
                2,
                TraceKind::ViewChange {
                    group: 9,
                    view: 2,
                    members: 5,
                },
            ),
            ev(7, 3, TraceKind::Crash),
            ev(8, 3, TraceKind::Recover),
            ev(9, 0, TraceKind::NetDrop { to: 2 }),
            ev(10, 0, TraceKind::NetDelay { to: 1, micros: 250 }),
            ev(
                11,
                1,
                TraceKind::OpEnd {
                    op_id: 3,
                    op: OpKind::Read,
                    outcome: Outcome::Fail,
                },
            ),
            ev(
                12,
                1,
                TraceKind::OpEnd {
                    op_id: 4,
                    op: OpKind::Read,
                    outcome: Outcome::Error,
                },
            ),
        ]
    }

    #[test]
    fn trace_round_trips_every_kind() {
        let trace = sample_trace();
        let mut out = Vec::new();
        encode_trace(&trace, &mut out);
        let mut r = Reader::new(&out);
        let back = decode_trace(&mut r).unwrap();
        assert_eq!(back, trace);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn tracker_state_round_trips_through_wire() {
        // Build a tracker mid-stream (one op in flight, one life consumed,
        // one violation) so every field of the state is exercised.
        let obj = ObjRef { origin: 3, seq: 7 };
        let mut trace = sample_trace();
        // Second consume of the same object → DoubleConsume on record.
        trace.push(ev(
            13,
            2,
            TraceKind::OpBegin {
                op_id: 9,
                op: OpKind::ReadDel,
                obj: None,
            },
        ));
        trace.push(ev(
            14,
            2,
            TraceKind::OpEnd {
                op_id: 9,
                op: OpKind::ReadDel,
                outcome: Outcome::Found(obj),
            },
        ));
        trace.push(ev(
            15,
            2,
            TraceKind::OpBegin {
                op_id: 10,
                op: OpKind::Insert,
                obj: Some(ObjRef { origin: 5, seq: 1 }),
            },
        ));
        let mut tracker = AxiomTracker::new();
        tracker.absorb_all(&trace);
        let state = tracker.save_state();
        assert!(!state.report.violations.is_empty());
        assert!(!state.pending.is_empty());

        let mut out = Vec::new();
        encode_tracker_state(&state, &mut out);
        let mut r = Reader::new(&out);
        let back = decode_tracker_state(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back, state);
    }

    #[test]
    fn truncated_state_errors_instead_of_panicking() {
        let mut tracker = AxiomTracker::new();
        tracker.absorb_all(&sample_trace());
        let mut out = Vec::new();
        encode_tracker_state(&tracker.save_state(), &mut out);
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            assert!(
                decode_tracker_state(&mut r).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
