//! Seeded input generation: every op a run issues comes from here, so
//! one seed gives one op sequence whatever the timing.

use paso_core::ClientOp;
use paso_types::{FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};

/// SplitMix64: small, fast, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x05EE_D0FB_E7C4)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Percentages of each primitive in a workload's mix (sum to 100).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub read: u64,
    pub insert: u64,
    pub read_del: u64,
}

/// How a workload lays out its objects. `Task` is the bag-of-tasks shape
/// `(:task, key, payload)`, one class under the default `Arity(4)`
/// classifier; `Keyed` is `(key, payload)`, spread over classes by a
/// `FirstField` classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Task,
    Keyed,
}

/// The process id the benchmark's clients insert under: disjoint from
/// the servers' own ids, so client objects never collide with objects a
/// `Cluster` or `SimSystem` numbers itself.
const CLIENT_PID: u64 = 1 << 32;

impl Shape {
    fn key_field(self) -> usize {
        match self {
            Shape::Task => 1,
            Shape::Keyed => 0,
        }
    }

    pub fn fields(self, key: i64) -> Vec<Value> {
        let payload = Value::Str(format!("{key:016x}{:016x}", key.wrapping_mul(31)));
        match self {
            Shape::Task => vec![Value::symbol("task"), Value::Int(key), payload],
            Shape::Keyed => vec![Value::Int(key), payload],
        }
    }

    pub fn object(self, key: i64) -> PasoObject {
        PasoObject::new(
            ObjectId::new(ProcessId(CLIENT_PID), key as u64),
            self.fields(key),
        )
    }

    pub fn criterion(self, key: i64) -> SearchCriterion {
        let m = match self {
            Shape::Task => vec![
                FieldMatcher::Exact(Value::symbol("task")),
                FieldMatcher::Exact(Value::Int(key)),
                FieldMatcher::Any,
            ],
            Shape::Keyed => vec![FieldMatcher::Exact(Value::Int(key)), FieldMatcher::Any],
        };
        SearchCriterion::from(Template::new(m))
    }

    /// Does a returned object carry the key its query asked for?
    pub fn carries(self, object: &PasoObject, key: i64) -> bool {
        object.field(self.key_field()) == Some(&Value::Int(key))
    }
}

/// One generated operation, by key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenOp {
    Insert(i64),
    Read(i64),
    ReadDel(i64),
}

impl GenOp {
    pub fn key(self) -> i64 {
        match self {
            GenOp::Insert(k) | GenOp::Read(k) | GenOp::ReadDel(k) => k,
        }
    }

    pub fn client_op(self, shape: Shape) -> ClientOp {
        match self {
            GenOp::Insert(k) => ClientOp::Insert {
                object: shape.object(k),
            },
            GenOp::Read(k) => ClientOp::Read {
                sc: shape.criterion(k),
                blocking: false,
            },
            GenOp::ReadDel(k) => ClientOp::ReadDel {
                sc: shape.criterion(k),
                blocking: false,
            },
        }
    }
}

/// Generates the op stream: fresh keys for inserts, reads and read&dels
/// of keys its own sequential model holds live. The model keeps the
/// store within 10% of `target` by turning an insert into a read&del (or
/// back) at the edges, so the mix holds while the store size stays put.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    mix: Mix,
    target: usize,
    live: Vec<i64>,
    next_key: i64,
}

impl OpGen {
    pub fn new(seed: u64, mix: Mix, target: usize) -> Self {
        assert_eq!(
            mix.read + mix.insert + mix.read_del,
            100,
            "mix must sum to 100"
        );
        OpGen {
            rng: Rng::new(seed),
            mix,
            target,
            live: Vec::new(),
            next_key: (seed % 1_000) as i64 * 1_000_000_000,
        }
    }

    /// A fresh key, now held live (used to prefill the store).
    pub fn fresh_key(&mut self) -> i64 {
        let key = self.next_key;
        self.next_key += 1;
        self.live.push(key);
        key
    }

    /// An insert of a fresh key.
    pub fn insert(&mut self) -> GenOp {
        GenOp::Insert(self.fresh_key())
    }

    pub fn next_op(&mut self) -> GenOp {
        let roll = self.rng.below(100);
        let slack = (self.target / 10).max(1);
        let want_read = roll < self.mix.read;
        let mut want_insert = !want_read && roll < self.mix.read + self.mix.insert;
        if !want_read {
            if want_insert && self.live.len() >= self.target + slack {
                want_insert = false;
            } else if !want_insert && self.live.len() + slack <= self.target {
                want_insert = true;
            }
        }
        if self.live.is_empty() || want_insert {
            return self.insert();
        }
        let at = self.rng.below(self.live.len() as u64) as usize;
        if want_read {
            GenOp::Read(self.live[at])
        } else {
            GenOp::ReadDel(self.live.swap_remove(at))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: Mix = Mix {
        read: 50,
        insert: 25,
        read_del: 25,
    };

    #[test]
    fn same_seed_gives_the_same_ops() {
        let mut a = OpGen::new(7, MIXED, 100);
        let mut b = OpGen::new(7, MIXED, 100);
        let ops_a: Vec<GenOp> = (0..1_000).map(|_| a.next_op()).collect();
        let ops_b: Vec<GenOp> = (0..1_000).map(|_| b.next_op()).collect();
        assert_eq!(ops_a, ops_b);
        let mut c = OpGen::new(8, MIXED, 100);
        let ops_c: Vec<GenOp> = (0..1_000).map(|_| c.next_op()).collect();
        assert_ne!(ops_a, ops_c);
    }

    #[test]
    fn store_stays_near_target_and_reads_hit_live_keys() {
        let mut g = OpGen::new(3, MIXED, 200);
        for _ in 0..200 {
            g.insert();
        }
        let mut live: std::collections::BTreeSet<i64> = g.live.iter().copied().collect();
        let mut reads = 0;
        for _ in 0..20_000 {
            match g.next_op() {
                GenOp::Insert(k) => assert!(live.insert(k), "insert keys are fresh"),
                GenOp::Read(k) => {
                    reads += 1;
                    assert!(live.contains(&k));
                }
                GenOp::ReadDel(k) => assert!(live.remove(&k)),
            }
            assert!(
                (180..=220).contains(&live.len()),
                "store drifted to {}",
                live.len()
            );
        }
        assert!((9_000..11_000).contains(&reads), "{reads} reads of 20000");
    }

    #[test]
    fn returned_objects_are_checked_against_the_queried_key() {
        for shape in [Shape::Task, Shape::Keyed] {
            let o = shape.object(42);
            assert!(shape.criterion(42).matches(&o));
            assert!(shape.carries(&o, 42));
            assert!(!shape.carries(&o, 43));
        }
    }
}
