//! Client-side accounting shared by the live and simulated loads: what was attempted,
//! what completed, what failed, and whether each answer was right.

use paso_core::ClientResult;

use crate::gen::{GenOp, Shape};

/// How one answered op counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Completed: inserted, found the queried key, or a legal miss.
    Ok,
    /// Refused or failed: `Busy`, `TimedOut`, `Unavailable`, transport
    /// error, or lost with its issuing machine.
    Failed,
    /// A wrong answer: an object without the queried key, or a result
    /// of the wrong kind for the primitive.
    Wrong,
}

pub fn judge(shape: Shape, op: GenOp, result: &ClientResult) -> Verdict {
    match (op, result) {
        (_, ClientResult::TimedOut | ClientResult::Unavailable) => Verdict::Failed,
        (GenOp::Insert(_), ClientResult::Inserted) => Verdict::Ok,
        (GenOp::Read(_) | GenOp::ReadDel(_), ClientResult::Fail) => Verdict::Ok,
        (GenOp::Read(k) | GenOp::ReadDel(k), ClientResult::Found(o)) if shape.carries(o, k) => {
            Verdict::Ok
        }
        _ => Verdict::Wrong,
    }
}

/// Counts over one phase (or a whole run, by [`Tally::add`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Of `failed`: refused by the proxy's pipelining window.
    pub busy: u64,
}

impl Tally {
    pub fn count(&mut self, v: Verdict) {
        match v {
            Verdict::Ok => self.ok += 1,
            Verdict::Failed => self.failed += 1,
            Verdict::Wrong => self.wrong += 1,
        }
    }

    pub fn refused(&mut self) {
        self.busy += 1;
        self.failed += 1;
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.busy += o.busy;
    }

    /// Every attempted op was answered, and every answer was counted once.
    pub fn balanced(&self) -> bool {
        self.attempted == self.ok + self.failed + self.wrong
    }
}
