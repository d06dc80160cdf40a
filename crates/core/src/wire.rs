//! Wire formats: client requests, replicated operations, responses.
//!
//! All message types use the compact binary codec from `paso-wire`: one
//! tag byte per enum variant, varints for integers and lengths. The
//! encoded size *is* the `|m|` the `α + β·|m|` cost model charges, and
//! [`encode`]/[`try_decode`] are the only serialization entry points on
//! the message path.

use paso_simnet::NodeId;
use paso_storage::{ClassSummary, Rank};
use paso_telemetry::{ObjRef, OpKind, Outcome, TraceKind};
use paso_types::{ClassId, PasoObject, SearchCriterion};
use paso_wire::{put_varint, Reader, Wire, WireError};

/// A PASO operation issued by a compute process (§2's primitives).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// `insert(o)`.
    Insert {
        /// The object to insert (with its unique id already assigned).
        object: PasoObject,
    },
    /// `read(sc)`; `blocking` selects the §4.3 blocking variant.
    Read {
        /// The search criterion.
        sc: SearchCriterion,
        /// Blocking or non-blocking semantics.
        blocking: bool,
    },
    /// `read&del(sc)`.
    ReadDel {
        /// The search criterion.
        sc: SearchCriterion,
        /// Blocking or non-blocking semantics.
        blocking: bool,
    },
}

impl ClientOp {
    /// The trace's name for this operation.
    pub fn trace_kind(&self) -> OpKind {
        match self {
            ClientOp::Insert { .. } => OpKind::Insert,
            ClientOp::Read { .. } => OpKind::Read,
            ClientOp::ReadDel { .. } => OpKind::ReadDel,
        }
    }

    /// The `OpBegin` trace event of this op issued under `op_id`; an
    /// insert names its object.
    pub fn trace_begin(&self, op_id: u64) -> TraceKind {
        let obj = match self {
            ClientOp::Insert { object } => Some(trace_obj(object)),
            ClientOp::Read { .. } | ClientOp::ReadDel { .. } => None,
        };
        TraceKind::OpBegin {
            op_id,
            op: self.trace_kind(),
            obj,
        }
    }
}

/// Maps an object onto the trace's driver-neutral `(origin, seq)` pair.
fn trace_obj(object: &PasoObject) -> ObjRef {
    let id = object.id();
    ObjRef {
        origin: id.creator.0,
        seq: id.seq,
    }
}

impl Wire for ClientOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientOp::Insert { object } => {
                out.push(0);
                object.encode(out);
            }
            ClientOp::Read { sc, blocking } => {
                out.push(1);
                sc.encode(out);
                blocking.encode(out);
            }
            ClientOp::ReadDel { sc, blocking } => {
                out.push(2);
                sc.encode(out);
                blocking.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => ClientOp::Insert {
                object: PasoObject::decode(r)?,
            },
            1 => ClientOp::Read {
                sc: SearchCriterion::decode(r)?,
                blocking: bool::decode(r)?,
            },
            2 => ClientOp::ReadDel {
                sc: SearchCriterion::decode(r)?,
                blocking: bool::decode(r)?,
            },
            tag => {
                return Err(WireError::InvalidTag {
                    ty: "ClientOp",
                    tag,
                })
            }
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ClientOp::Insert { object } => object.encoded_len(),
            ClientOp::Read { sc, .. } | ClientOp::ReadDel { sc, .. } => sc.encoded_len() + 1,
        }
    }
}

/// A request injected at a machine's memory server.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRequest {
    /// Operation id, unique per system run.
    pub op_id: u64,
    /// The operation.
    pub op: ClientOp,
}

impl Wire for ClientRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.op_id);
        self.op.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ClientRequest {
            op_id: r.varint()?,
            op: ClientOp::decode(r)?,
        })
    }

    fn encoded_len(&self) -> usize {
        paso_wire::varint_len(self.op_id) + self.op.encoded_len()
    }
}

/// Result of a client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientResult {
    /// The insert was applied at every write-group member.
    Inserted,
    /// A matching object (read or read&del).
    Found(PasoObject),
    /// Non-blocking read/read&del found nothing.
    Fail,
    /// Blocking operation hit its deadline.
    TimedOut,
    /// The write group was unreachable (fault-tolerance condition
    /// violated — more than λ failures).
    Unavailable,
}

impl ClientResult {
    /// The returned object, if any.
    pub fn object(&self) -> Option<&PasoObject> {
        match self {
            ClientResult::Found(o) => Some(o),
            _ => None,
        }
    }

    /// Did the operation conclusively succeed?
    pub fn is_success(&self) -> bool {
        matches!(self, ClientResult::Inserted | ClientResult::Found(_))
    }

    /// How this result reads in the trace: a deadline or an unreachable
    /// write group is an `Error`.
    pub fn trace_outcome(&self) -> Outcome {
        match self {
            ClientResult::Inserted => Outcome::Inserted,
            ClientResult::Found(o) => Outcome::Found(trace_obj(o)),
            ClientResult::Fail => Outcome::Fail,
            ClientResult::TimedOut | ClientResult::Unavailable => Outcome::Error,
        }
    }
}

impl Wire for ClientResult {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientResult::Inserted => out.push(0),
            ClientResult::Found(o) => {
                out.push(1);
                o.encode(out);
            }
            ClientResult::Fail => out.push(2),
            ClientResult::TimedOut => out.push(3),
            ClientResult::Unavailable => out.push(4),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => ClientResult::Inserted,
            1 => ClientResult::Found(PasoObject::decode(r)?),
            2 => ClientResult::Fail,
            3 => ClientResult::TimedOut,
            4 => ClientResult::Unavailable,
            tag => {
                return Err(WireError::InvalidTag {
                    ty: "ClientResult",
                    tag,
                })
            }
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ClientResult::Found(o) => o.encoded_len(),
            _ => 0,
        }
    }
}

/// A completed operation, emitted by the memory server as simulation
/// output (and sent back to clients in the live runtime).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientDone {
    /// The operation id.
    pub op_id: u64,
    /// The outcome.
    pub result: ClientResult,
}

impl Wire for ClientDone {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.op_id);
        self.result.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ClientDone {
            op_id: r.varint()?,
            result: ClientResult::decode(r)?,
        })
    }

    fn encoded_len(&self) -> usize {
        paso_wire::varint_len(self.op_id) + self.result.encoded_len()
    }
}

/// Replicated operations, carried as gcast payloads to write/read groups
/// (the `store`/`mem-read`/`remove` messages of §4.3's macro expansions).
#[derive(Debug, Clone, PartialEq)]
pub enum ReplOp {
    /// Store an object at every member, under a globally agreed age rank.
    Store {
        /// The object class (precomputed by the origin).
        class: ClassId,
        /// The object.
        object: PasoObject,
        /// Global age rank.
        rank: Rank,
    },
    /// `mem-read(sc, C)`: respond with some matching object.
    MemRead {
        /// The class to search.
        class: ClassId,
        /// The criterion.
        sc: SearchCriterion,
    },
    /// `remove(sc, C)`: delete and respond with the oldest match.
    Remove {
        /// The class to search.
        class: ClassId,
        /// The criterion.
        sc: SearchCriterion,
    },
    /// Leave a read-marker: members will notify `origin` when a matching
    /// object is stored (blocking-read support, §4.3).
    PlaceMarker {
        /// The class to watch.
        class: ClassId,
        /// The criterion to match.
        sc: SearchCriterion,
        /// The machine waiting.
        origin: NodeId,
        /// The blocked operation.
        op_id: u64,
        /// Absolute expiry (µs of simulated time).
        expires_micros: u64,
    },
}

impl Wire for ReplOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReplOp::Store {
                class,
                object,
                rank,
            } => {
                out.push(0);
                class.encode(out);
                object.encode(out);
                rank.encode(out);
            }
            ReplOp::MemRead { class, sc } => {
                out.push(1);
                class.encode(out);
                sc.encode(out);
            }
            ReplOp::Remove { class, sc } => {
                out.push(2);
                class.encode(out);
                sc.encode(out);
            }
            ReplOp::PlaceMarker {
                class,
                sc,
                origin,
                op_id,
                expires_micros,
            } => {
                out.push(3);
                class.encode(out);
                sc.encode(out);
                origin.encode(out);
                put_varint(out, *op_id);
                put_varint(out, *expires_micros);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => ReplOp::Store {
                class: ClassId::decode(r)?,
                object: PasoObject::decode(r)?,
                rank: Rank::decode(r)?,
            },
            1 => ReplOp::MemRead {
                class: ClassId::decode(r)?,
                sc: SearchCriterion::decode(r)?,
            },
            2 => ReplOp::Remove {
                class: ClassId::decode(r)?,
                sc: SearchCriterion::decode(r)?,
            },
            3 => ReplOp::PlaceMarker {
                class: ClassId::decode(r)?,
                sc: SearchCriterion::decode(r)?,
                origin: NodeId::decode(r)?,
                op_id: r.varint()?,
                expires_micros: r.varint()?,
            },
            tag => return Err(WireError::InvalidTag { ty: "ReplOp", tag }),
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ReplOp::Store {
                class,
                object,
                rank,
            } => class.encoded_len() + object.encoded_len() + rank.encoded_len(),
            ReplOp::MemRead { class, sc } | ReplOp::Remove { class, sc } => {
                class.encoded_len() + sc.encoded_len()
            }
            ReplOp::PlaceMarker {
                class,
                sc,
                origin,
                op_id,
                expires_micros,
            } => {
                class.encoded_len()
                    + sc.encoded_len()
                    + origin.encoded_len()
                    + paso_wire::varint_len(*op_id)
                    + paso_wire::varint_len(*expires_micros)
            }
        }
    }
}

/// Response to a [`ReplOp::MemRead`] / [`ReplOp::Remove`]: the §2 "object
/// or fail" result.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResponse {
    /// The object found, if any.
    pub object: Option<PasoObject>,
    /// Piggybacked `|F(C)|` — the §5.1 mechanism by which non-members
    /// learn the current failure count for their counter updates.
    pub failed: u64,
}

impl Wire for OpResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        self.object.encode(out);
        put_varint(out, self.failed);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OpResponse {
            object: Option::<PasoObject>::decode(r)?,
            failed: r.varint()?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.object.encoded_len() + paso_wire::varint_len(self.failed)
    }
}

/// Application-level messages between servers (non-gcast traffic).
#[derive(Debug, Clone, PartialEq)]
pub enum AppMsg {
    /// A client request (injected at this machine by a local process).
    Client(ClientRequest),
    /// A marker fired at a server: a matching object was inserted, retry.
    MarkerWake {
        /// The blocked operation to retry.
        op_id: u64,
    },
    /// Anycast-mode point query to a single read-group member.
    RemoteRead {
        /// The origin's operation awaiting this answer.
        op_id: u64,
        /// The class to search.
        class: ClassId,
        /// The criterion.
        sc: SearchCriterion,
    },
    /// Answer to a [`AppMsg::RemoteRead`].
    RemoteReadResp {
        /// The operation being answered.
        op_id: u64,
        /// Whether the answering server was an authoritative (installed)
        /// member; if false the origin falls back to a group cast.
        served: bool,
        /// The object found, if any.
        found: Option<PasoObject>,
        /// Piggybacked `|F(C)|` (§5.1).
        failed: u64,
    },
    /// Periodic digest of the classes a server hosts, for client-side
    /// `sc-list` pruning (the PR 3 fast read path). Summaries may
    /// false-positive but never false-negative, so a receiver can safely
    /// demote — never skip — classes whose digests rule a criterion out.
    SummaryGossip {
        /// Per-class constant-size summaries of the sender's stores.
        summaries: Vec<(ClassId, ClassSummary)>,
    },
    /// A completed operation, sent back to the *originating* gateway
    /// (the proxy tier's reply path). Requests injected locally keep
    /// using the in-process output channel instead.
    Done(ClientDone),
    /// A pipelined batch of client requests from a gateway, flushed as
    /// one frame (`proxy_batch_bytes`). An *empty* batch is a gateway
    /// subscription ping: it teaches the server the gateway's address
    /// (for summary gossip) without enqueuing work.
    ClientBatch(Vec<ClientRequest>),
}

impl Wire for AppMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AppMsg::Client(req) => {
                out.push(0);
                req.encode(out);
            }
            AppMsg::MarkerWake { op_id } => {
                out.push(1);
                put_varint(out, *op_id);
            }
            AppMsg::RemoteRead { op_id, class, sc } => {
                out.push(2);
                put_varint(out, *op_id);
                class.encode(out);
                sc.encode(out);
            }
            AppMsg::RemoteReadResp {
                op_id,
                served,
                found,
                failed,
            } => {
                out.push(3);
                put_varint(out, *op_id);
                served.encode(out);
                found.encode(out);
                put_varint(out, *failed);
            }
            AppMsg::SummaryGossip { summaries } => {
                out.push(4);
                put_varint(out, summaries.len() as u64);
                for (class, summary) in summaries {
                    class.encode(out);
                    summary.encode(out);
                }
            }
            AppMsg::Done(done) => {
                out.push(5);
                done.encode(out);
            }
            AppMsg::ClientBatch(reqs) => {
                out.push(6);
                put_varint(out, reqs.len() as u64);
                for req in reqs {
                    req.encode(out);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => AppMsg::Client(ClientRequest::decode(r)?),
            1 => AppMsg::MarkerWake { op_id: r.varint()? },
            2 => AppMsg::RemoteRead {
                op_id: r.varint()?,
                class: ClassId::decode(r)?,
                sc: SearchCriterion::decode(r)?,
            },
            3 => AppMsg::RemoteReadResp {
                op_id: r.varint()?,
                served: bool::decode(r)?,
                found: Option::<PasoObject>::decode(r)?,
                failed: r.varint()?,
            },
            4 => {
                let n = r.varint()? as usize;
                let mut summaries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    summaries.push((ClassId::decode(r)?, ClassSummary::decode(r)?));
                }
                AppMsg::SummaryGossip { summaries }
            }
            5 => AppMsg::Done(ClientDone::decode(r)?),
            6 => {
                let n = r.varint()? as usize;
                let mut reqs = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    reqs.push(ClientRequest::decode(r)?);
                }
                AppMsg::ClientBatch(reqs)
            }
            tag => return Err(WireError::InvalidTag { ty: "AppMsg", tag }),
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            AppMsg::Client(req) => req.encoded_len(),
            AppMsg::MarkerWake { op_id } => paso_wire::varint_len(*op_id),
            AppMsg::RemoteRead { op_id, class, sc } => {
                paso_wire::varint_len(*op_id) + class.encoded_len() + sc.encoded_len()
            }
            AppMsg::RemoteReadResp {
                op_id,
                found,
                failed,
                ..
            } => {
                paso_wire::varint_len(*op_id)
                    + 1
                    + found.encoded_len()
                    + paso_wire::varint_len(*failed)
            }
            AppMsg::SummaryGossip { summaries } => {
                paso_wire::varint_len(summaries.len() as u64)
                    + summaries
                        .iter()
                        .map(|(c, s)| c.encoded_len() + s.encoded_len())
                        .sum::<usize>()
            }
            AppMsg::Done(done) => done.encoded_len(),
            AppMsg::ClientBatch(reqs) => {
                paso_wire::varint_len(reqs.len() as u64)
                    + reqs.iter().map(Wire::encoded_len).sum::<usize>()
            }
        }
    }
}

/// A frame from an external client to a front-end proxy. Client
/// connections carry a varint length prefix followed by one of these —
/// deliberately *thinner* than the inter-server protocol so terminating
/// 10k+ connections stays cheap (no ranks, no classes, no group state).
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyClientFrame {
    /// First frame on every connection: identify the tenant and prove
    /// knowledge of the shared secret. Anything else before a `Hello`
    /// (or a bad token) is answered with `Denied` and the connection is
    /// closed.
    Hello {
        /// Tenant identity (feeds the per-tenant cardinality gauge).
        tenant: u64,
        /// `auth_token(tenant, secret)` — a keyed FNV-1a MAC.
        token: u64,
    },
    /// One pipelined operation. `seq` is connection-local and echoed in
    /// the matching `Done`/`Busy`; clients may keep up to the proxy's
    /// `proxy_pipeline_depth` of these outstanding.
    Op {
        /// Connection-local sequence number (echoed back).
        seq: u64,
        /// The operation.
        op: ClientOp,
    },
}

impl Wire for ProxyClientFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ProxyClientFrame::Hello { tenant, token } => {
                out.push(0);
                put_varint(out, *tenant);
                put_varint(out, *token);
            }
            ProxyClientFrame::Op { seq, op } => {
                out.push(1);
                put_varint(out, *seq);
                op.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => ProxyClientFrame::Hello {
                tenant: r.varint()?,
                token: r.varint()?,
            },
            1 => ProxyClientFrame::Op {
                seq: r.varint()?,
                op: ClientOp::decode(r)?,
            },
            tag => {
                return Err(WireError::InvalidTag {
                    ty: "ProxyClientFrame",
                    tag,
                })
            }
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ProxyClientFrame::Hello { tenant, token } => {
                paso_wire::varint_len(*tenant) + paso_wire::varint_len(*token)
            }
            ProxyClientFrame::Op { seq, op } => paso_wire::varint_len(*seq) + op.encoded_len(),
        }
    }
}

/// A frame from a proxy back to an external client.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyServerFrame {
    /// The `Hello` was accepted; ops may now be pipelined.
    Welcome,
    /// Authentication failed (or an op arrived before `Hello`). The
    /// proxy closes the connection after sending this.
    Denied,
    /// The pipelining window (`proxy_pipeline_depth`) is full; the op
    /// was *not* forwarded. Back off and re-issue.
    Busy {
        /// The rejected op's sequence number.
        seq: u64,
    },
    /// The operation completed (or conclusively failed/timed out).
    Done {
        /// The completed op's sequence number.
        seq: u64,
        /// The outcome, verbatim from the cluster.
        result: ClientResult,
    },
}

impl Wire for ProxyServerFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ProxyServerFrame::Welcome => out.push(0),
            ProxyServerFrame::Denied => out.push(1),
            ProxyServerFrame::Busy { seq } => {
                out.push(2);
                put_varint(out, *seq);
            }
            ProxyServerFrame::Done { seq, result } => {
                out.push(3);
                put_varint(out, *seq);
                result.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => ProxyServerFrame::Welcome,
            1 => ProxyServerFrame::Denied,
            2 => ProxyServerFrame::Busy { seq: r.varint()? },
            3 => ProxyServerFrame::Done {
                seq: r.varint()?,
                result: ClientResult::decode(r)?,
            },
            tag => {
                return Err(WireError::InvalidTag {
                    ty: "ProxyServerFrame",
                    tag,
                })
            }
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ProxyServerFrame::Welcome | ProxyServerFrame::Denied => 0,
            ProxyServerFrame::Busy { seq } => paso_wire::varint_len(*seq),
            ProxyServerFrame::Done { seq, result } => {
                paso_wire::varint_len(*seq) + result.encoded_len()
            }
        }
    }
}

/// The keyed MAC a client presents in [`ProxyClientFrame::Hello`]:
/// FNV-1a over the tenant id and the deployment's shared secret. Not
/// cryptographic — it gates accidental cross-deployment traffic, not a
/// determined adversary (DESIGN.md §6h).
pub fn auth_token(tenant: u64, secret: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in tenant
        .to_le_bytes()
        .iter()
        .chain(secret.to_le_bytes().iter())
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Encodes any wire message into gcast/app payload bytes.
pub fn encode<T: Wire>(msg: &T) -> Vec<u8> {
    paso_wire::encode_to_vec(msg)
}

/// Decodes payload bytes, reporting *why* a decode failed so callers can
/// surface corruption (see the `wire.decode.error` counter in the memory
/// server) instead of dropping it silently.
pub fn try_decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    paso_wire::decode_exact(bytes)
}

/// Decodes payload bytes, discarding the error cause. Prefer
/// [`try_decode`] on the message path.
pub fn decode<T: Wire>(bytes: &[u8]) -> Option<T> {
    try_decode(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{ObjectId, ProcessId, Template, Value};

    fn obj() -> PasoObject {
        PasoObject::new(ObjectId::new(ProcessId(7), 1), vec![Value::Int(3)])
    }

    #[test]
    fn result_accessors() {
        assert!(ClientResult::Inserted.is_success());
        assert!(ClientResult::Found(obj()).is_success());
        assert!(!ClientResult::Fail.is_success());
        assert!(!ClientResult::TimedOut.is_success());
        assert!(ClientResult::Found(obj()).object().is_some());
        assert!(ClientResult::Fail.object().is_none());
    }

    #[test]
    fn round_trip_all_wire_types() {
        let sc = SearchCriterion::from(Template::wildcard(1));
        let msgs = vec![
            ReplOp::Store {
                class: ClassId(1),
                object: obj(),
                rank: Rank::new(5, 2),
            },
            ReplOp::MemRead {
                class: ClassId(1),
                sc: sc.clone(),
            },
            ReplOp::Remove {
                class: ClassId(1),
                sc: sc.clone(),
            },
            ReplOp::PlaceMarker {
                class: ClassId(1),
                sc: sc.clone(),
                origin: NodeId(3),
                op_id: 9,
                expires_micros: 100,
            },
        ];
        for m in msgs {
            let bytes = encode(&m);
            assert_eq!(bytes.len(), m.encoded_len());
            let back: ReplOp = decode(&bytes).unwrap();
            assert_eq!(m, back);
        }
        let req = ClientRequest {
            op_id: 4,
            op: ClientOp::Read { sc, blocking: true },
        };
        let back: ClientRequest = decode(&encode(&AppMsg::Client(req.clone())))
            .map(|m: AppMsg| match m {
                AppMsg::Client(r) => r,
                _ => panic!(),
            })
            .unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn anycast_messages_round_trip() {
        let sc = SearchCriterion::from(Template::wildcard(2));
        for m in [
            AppMsg::RemoteRead {
                op_id: 3,
                class: ClassId(1),
                sc,
            },
            AppMsg::RemoteReadResp {
                op_id: 3,
                served: true,
                found: Some(obj()),
                failed: 1,
            },
            AppMsg::RemoteReadResp {
                op_id: 4,
                served: false,
                found: None,
                failed: 0,
            },
            AppMsg::MarkerWake { op_id: 9 },
        ] {
            let bytes = encode(&m);
            assert_eq!(bytes.len(), m.encoded_len());
            let back: AppMsg = decode(&bytes).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn summary_gossip_round_trips() {
        let mut summary = ClassSummary::new();
        summary.note_insert(&obj());
        for m in [
            AppMsg::SummaryGossip { summaries: vec![] },
            AppMsg::SummaryGossip {
                summaries: vec![(ClassId(3), summary), (ClassId(9), ClassSummary::new())],
            },
        ] {
            let bytes = encode(&m);
            assert_eq!(bytes.len(), m.encoded_len());
            let back: AppMsg = decode(&bytes).unwrap();
            assert_eq!(m, back);
            for cut in 0..bytes.len() {
                assert!(try_decode::<AppMsg>(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn client_ops_and_results_round_trip() {
        let sc = SearchCriterion::from(Template::exact(vec![Value::Int(1)]));
        for op in [
            ClientOp::Insert { object: obj() },
            ClientOp::Read {
                sc: sc.clone(),
                blocking: false,
            },
            ClientOp::ReadDel { sc, blocking: true },
        ] {
            let bytes = encode(&op);
            assert_eq!(decode::<ClientOp>(&bytes).unwrap(), op);
        }
        for res in [
            ClientResult::Inserted,
            ClientResult::Found(obj()),
            ClientResult::Fail,
            ClientResult::TimedOut,
            ClientResult::Unavailable,
        ] {
            let done = ClientDone {
                op_id: 88,
                result: res,
            };
            let bytes = encode(&done);
            assert_eq!(bytes.len(), done.encoded_len());
            assert_eq!(decode::<ClientDone>(&bytes).unwrap(), done);
        }
    }

    #[test]
    fn gateway_messages_round_trip() {
        let sc = SearchCriterion::from(Template::wildcard(1));
        for m in [
            AppMsg::Done(ClientDone {
                op_id: (7 << 48) | 3,
                result: ClientResult::Found(obj()),
            }),
            AppMsg::ClientBatch(vec![]),
            AppMsg::ClientBatch(vec![
                ClientRequest {
                    op_id: 1,
                    op: ClientOp::Insert { object: obj() },
                },
                ClientRequest {
                    op_id: 2,
                    op: ClientOp::Read {
                        sc,
                        blocking: false,
                    },
                },
            ]),
        ] {
            let bytes = encode(&m);
            assert_eq!(bytes.len(), m.encoded_len());
            let back: AppMsg = decode(&bytes).unwrap();
            assert_eq!(m, back);
            for cut in 0..bytes.len() {
                assert!(try_decode::<AppMsg>(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn proxy_frames_round_trip() {
        let sc = SearchCriterion::from(Template::exact(vec![Value::Int(9)]));
        for f in [
            ProxyClientFrame::Hello {
                tenant: 42,
                token: auth_token(42, 0xBEEF),
            },
            ProxyClientFrame::Op {
                seq: 300,
                op: ClientOp::Insert { object: obj() },
            },
            ProxyClientFrame::Op {
                seq: 0,
                op: ClientOp::ReadDel {
                    sc,
                    blocking: false,
                },
            },
        ] {
            let bytes = encode(&f);
            assert_eq!(bytes.len(), f.encoded_len());
            let back: ProxyClientFrame = decode(&bytes).unwrap();
            assert_eq!(f, back);
            for cut in 0..bytes.len() {
                assert!(try_decode::<ProxyClientFrame>(&bytes[..cut]).is_err());
            }
        }
        for f in [
            ProxyServerFrame::Welcome,
            ProxyServerFrame::Denied,
            ProxyServerFrame::Busy { seq: 77 },
            ProxyServerFrame::Done {
                seq: 78,
                result: ClientResult::Found(obj()),
            },
            ProxyServerFrame::Done {
                seq: 79,
                result: ClientResult::TimedOut,
            },
        ] {
            let bytes = encode(&f);
            assert_eq!(bytes.len(), f.encoded_len());
            let back: ProxyServerFrame = decode(&bytes).unwrap();
            assert_eq!(f, back);
            for cut in 0..bytes.len() {
                assert!(try_decode::<ProxyServerFrame>(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn auth_token_is_keyed() {
        assert_eq!(auth_token(1, 2), auth_token(1, 2));
        assert_ne!(auth_token(1, 2), auth_token(1, 3), "secret must matter");
        assert_ne!(auth_token(1, 2), auth_token(2, 2), "tenant must matter");
    }

    #[test]
    fn decode_rejects_garbage_and_reports_cause() {
        assert!(decode::<ReplOp>(&[200, 2, 3]).is_none());
        assert!(matches!(
            try_decode::<ReplOp>(&[200, 2, 3]),
            Err(WireError::InvalidTag { ty: "ReplOp", .. })
        ));
        // Truncation at every prefix is an error, never a panic.
        let bytes = encode(&AppMsg::MarkerWake { op_id: 300 });
        for cut in 0..bytes.len() {
            assert!(try_decode::<AppMsg>(&bytes[..cut]).is_err());
        }
        // Trailing bytes are rejected too (frames must be exact).
        let mut padded = bytes;
        padded.push(0);
        assert!(matches!(
            try_decode::<AppMsg>(&padded),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn op_response_round_trip() {
        let r = OpResponse {
            object: Some(obj()),
            failed: 2,
        };
        let back: OpResponse = decode(&encode(&r)).unwrap();
        assert_eq!(r, back);
    }
}
