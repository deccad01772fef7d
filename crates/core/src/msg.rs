//! Typed layer-management messages, carried as CDAP over management PDUs.
//!
//! Everything the paper's *IPC Management* task says to a peer is one of
//! these: neighbor hellos, enrollment (§5.2), flow allocation (§5.3), and
//! RIEP object dissemination. [`MgmtBody`] gives each a typed form and maps
//! it onto the generic CDAP envelope from `rina-wire`.

use crate::naming::AppName;
use crate::qos::QosSpec;
use bytes::Bytes;
use rina_rib::{DigestTable, EncodedObject, EncodedSummary};
use rina_wire::codec::{Reader, Writer};
use rina_wire::{Addr, CdapMsg, CepId, OpCode, WireError};

/// Object class names used on the wire.
mod class {
    pub const HELLO: &str = "hello";
    pub const ENROLL: &str = "enrollment";
    pub const FLOW: &str = "flow";
    pub const RIB_SYNC: &str = "rib-sync";
    pub const DIR: &str = "dir-lookup";
}

/// A typed management message body.
#[derive(Clone, Debug, PartialEq)]
pub enum MgmtBody {
    /// Periodic link-local announcement over an (N-1) port: who is on the
    /// other side. Also serves as keepalive, and carries the sender's
    /// per-subtree RIB [`DigestTable`] for anti-entropy: a neighbor whose
    /// table differs from ours missed an update (RIEP dissemination is
    /// unreliable) and the mismatched *subtrees* — not the whole RIB —
    /// get a targeted [`MgmtBody::RibDeltaRequest`] exchange.
    Hello {
        /// Sender's IPC-process application name.
        name: AppName,
        /// Sender's DIF-internal address (0 if not yet enrolled).
        addr: Addr,
        /// Address of the sender's up peer in the DIF's spanning tree
        /// (0 when it has none): the receiver that finds its own address
        /// here counts the port as a tree port.
        up: Addr,
        /// Per-subtree `(object_count, digest)` summary of the sender's
        /// RIB (tombstones included).
        digests: DigestTable,
    },
    /// Request to join the DIF (sent to a member over an (N-1) flow).
    EnrollRequest {
        /// Joiner's IPC-process application name.
        name: AppName,
        /// Credential for the DIF's [`crate::dif::AuthPolicy`].
        credential: String,
        /// Address the joiner proposes (0 = sponsor chooses). Statically
        /// planned networks propose to avoid races between concurrent
        /// sponsors; the sponsor still verifies uniqueness.
        proposed_addr: Addr,
        /// Top of the address block `[proposed_addr, proposed_hi]` the
        /// joiner proposes to sponsor its own subtree from (the planner
        /// derives blocks from spanning-subtree sizes so sibling blocks
        /// never overlap). Below `proposed_addr`, no usable proposal.
        proposed_hi: Addr,
        /// The joiner's RIB digest table. Empty for a fresh joiner; a
        /// retrying or re-enrolling joiner advertises what it already
        /// holds, and the sponsor syncs only the mismatched subtrees —
        /// O(missing) instead of O(RIB).
        digests: DigestTable,
    },
    /// Enrollment outcome. On success grants the joiner its address and
    /// block. It carries no RIB: the sponsor streams the sync set as
    /// [`MgmtBody::RibDeltaResponse`] batches on the same port *ahead* of
    /// this response, so whatever the RIB's size the joiner has learned
    /// the DIF before it starts writing as a member.
    EnrollResponse {
        /// Address assigned to the joiner (0 on failure).
        addr: Addr,
        /// Top of the address block `[addr, hi]` delegated to the joiner
        /// for sub-sponsorship (`addr` for a singleton). Below `addr`, no
        /// grant.
        hi: Addr,
    },
    /// Ask the member hosting the destination application to create a flow
    /// (the request "continues to the identified IPC process to ensure that
    /// the application is really there and that the requester has access to
    /// it", §5.3).
    FlowRequest {
        /// Requesting application.
        src_app: AppName,
        /// Destination application.
        dst_app: AppName,
        /// Requested properties.
        spec: QosSpec,
        /// Requester's member address.
        src_addr: Addr,
        /// Requester's connection endpoint.
        src_cep: CepId,
    },
    /// Flow allocation outcome.
    FlowResponse {
        /// Responder's connection endpoint (0 on failure).
        dst_cep: CepId,
        /// QoS cube the flow was bound to.
        qos_id: u8,
    },
    /// The sender ended its endpoint of a flow, in whatever phase: the
    /// receiver ends the flow bound to exactly that endpoint.
    FlowTeardown {
        /// The sender's own endpoint; with the PDU's source address it
        /// names the receiver's flow.
        cep: CepId,
    },
    /// Anti-entropy pull: "here is the version summary of my `subtree`
    /// for names in `[from, upto)`; send me whatever I lack or hold
    /// older". Big subtrees are requested in several name-range chunks so
    /// each request fits one (N-1) MTU.
    RibDeltaRequest {
        /// Subtree being synchronized (a [`rina_rib::subtree_of`] value).
        subtree: String,
        /// Lower name bound of this chunk, inclusive (empty = start).
        from: String,
        /// Upper name bound of this chunk, exclusive (empty = end).
        upto: String,
        /// The requester's `(name, version, origin)` triples in range.
        summary: EncodedSummary,
    },
    /// A batch of RIB objects (full values, each in wire form — on
    /// receipt a slice of the arriving frame), under the MTU: the answer
    /// to a [`MgmtBody::RibDeltaRequest`], an enrollment sync stream, or
    /// an ordinary flood burst (flooding is batch-preserving — objects
    /// applied in one pass re-flood as one batch per port). Each object
    /// is version-guarded at the receiver, so batches are idempotent
    /// like any RIEP update.
    RibDeltaResponse {
        /// Subtree being synchronized (empty for flood batches).
        subtree: String,
        /// Missing/newer objects for the requested range.
        objects: Vec<EncodedObject>,
    },
    /// On-demand resolution of an **owner-held** directory entry (one whose
    /// subtree has local replication scope, so it is not in every member's
    /// RIB). Forwarded along the DIF's spanning tree until it reaches the
    /// member authoritative for `name`, and accepted only on a tree port:
    /// it crosses only edges both ends count, which form no cycle while
    /// the tree is consistent, so forwarding needs no
    /// duplicate-suppression state (DESIGN.md §11).
    DirLookupRequest {
        /// Full RIB name being resolved (e.g. `/dir/echo.h3`).
        name: String,
        /// Requester's member address — the authoritative owner unicasts
        /// its [`MgmtBody::DirLookupResponse`] back to this address.
        origin: Addr,
    },
    /// Authoritative answer to a [`MgmtBody::DirLookupRequest`], sent by
    /// the entry's owner straight to the requester; the name it carries
    /// matches it to the request. Only a live entry is answered — no
    /// negative answer is ever sent. Carries the entry's version so
    /// stale answers in flight lose to newer tombstones.
    DirLookupResponse {
        /// The RIB name that was resolved.
        name: String,
        /// Member address the entry maps to.
        addr: Addr,
        /// Version of the entry at the owner.
        version: u64,
    },
}

impl MgmtBody {
    /// Wrap into a CDAP message with the given invoke id and result code.
    pub fn into_cdap(self, invoke_id: u32, result: i32) -> CdapMsg {
        let (op, cls, name, value) = match self {
            MgmtBody::Hello { name, addr, up, digests } => {
                let mut w = Writer::new();
                w.string(&name.key()).varint(addr).varint(up);
                digests.encode_into(&mut w);
                (OpCode::Write, class::HELLO, "/neighbors/self".to_string(), w.finish())
            }
            MgmtBody::EnrollRequest { name, credential, proposed_addr, proposed_hi, digests } => {
                let mut w = Writer::new();
                w.string(&name.key()).string(&credential);
                w.varint(proposed_addr).varint(proposed_hi);
                digests.encode_into(&mut w);
                (OpCode::Connect, class::ENROLL, "/enrollment".to_string(), w.finish())
            }
            MgmtBody::EnrollResponse { addr, hi } => {
                let mut w = Writer::new();
                w.varint(addr).varint(hi);
                (OpCode::ConnectR, class::ENROLL, "/enrollment".to_string(), w.finish())
            }
            MgmtBody::FlowRequest { src_app, dst_app, spec, src_addr, src_cep } => {
                let mut w = Writer::new();
                w.string(&src_app.key()).string(&dst_app.key());
                spec.encode_into(&mut w);
                w.varint(src_addr).varint(src_cep as u64);
                (OpCode::Create, class::FLOW, format!("/flows/{}", dst_app.key()), w.finish())
            }
            MgmtBody::FlowResponse { dst_cep, qos_id } => {
                let mut w = Writer::new();
                w.varint(dst_cep as u64).u8(qos_id);
                (OpCode::CreateR, class::FLOW, "/flows".to_string(), w.finish())
            }
            MgmtBody::FlowTeardown { cep } => {
                let mut w = Writer::new();
                w.varint(cep as u64);
                (OpCode::Delete, class::FLOW, "/flows".to_string(), w.finish())
            }
            MgmtBody::RibDeltaRequest { subtree, from, upto, summary } => {
                let mut w = Writer::new();
                w.string(&from).string(&upto).raw(summary.wire());
                (OpCode::Read, class::RIB_SYNC, subtree, w.finish())
            }
            MgmtBody::RibDeltaResponse { subtree, objects } => {
                let mut w = Writer::new();
                w.varint(objects.len() as u64);
                for o in &objects {
                    w.bytes(o.wire());
                }
                (OpCode::ReadR, class::RIB_SYNC, subtree, w.finish())
            }
            MgmtBody::DirLookupRequest { name, origin } => {
                let mut w = Writer::new();
                w.varint(origin);
                (OpCode::Read, class::DIR, name, w.finish())
            }
            MgmtBody::DirLookupResponse { name, addr, version } => {
                let mut w = Writer::new();
                w.varint(addr).varint(version);
                (OpCode::ReadR, class::DIR, name, w.finish())
            }
        };
        CdapMsg { op, invoke_id, obj_class: cls.to_string(), obj_name: name, result, value }
    }

    /// Parse a CDAP message back into a typed body. RIB objects and
    /// version summaries are checked but stay in wire form, as slices of
    /// `m.value` (itself a slice of the arriving frame): the handler
    /// reads them through borrowed views.
    pub fn from_cdap(m: &CdapMsg) -> Result<MgmtBody, WireError> {
        let mut r = Reader::new(&m.value);
        match (m.op, m.obj_class.as_str()) {
            (OpCode::Write, class::HELLO) => {
                let name = AppName::from_key(r.string()?);
                let (addr, up) = (r.varint()?, r.varint()?);
                let digests = DigestTable::decode_from(&mut r)?;
                r.expect_end()?;
                Ok(MgmtBody::Hello { name, addr, up, digests })
            }
            (OpCode::Connect, class::ENROLL) => {
                let name = AppName::from_key(r.string()?);
                let credential = r.string()?.to_string();
                let proposed_addr = r.varint()?;
                let proposed_hi = r.varint()?;
                let digests = DigestTable::decode_from(&mut r)?;
                r.expect_end()?;
                Ok(MgmtBody::EnrollRequest {
                    name,
                    credential,
                    proposed_addr,
                    proposed_hi,
                    digests,
                })
            }
            (OpCode::ConnectR, class::ENROLL) => {
                let addr = r.varint()?;
                let hi = r.varint()?;
                r.expect_end()?;
                Ok(MgmtBody::EnrollResponse { addr, hi })
            }
            (OpCode::Create, class::FLOW) => {
                let src_app = AppName::from_key(r.string()?);
                let dst_app = AppName::from_key(r.string()?);
                let spec = QosSpec::decode_from(&mut r)?;
                let src_addr = r.varint()?;
                let src_cep = cep(r.varint()?)?;
                r.expect_end()?;
                Ok(MgmtBody::FlowRequest { src_app, dst_app, spec, src_addr, src_cep })
            }
            (OpCode::CreateR, class::FLOW) => {
                let dst_cep = cep(r.varint()?)?;
                let qos_id = r.u8()?;
                r.expect_end()?;
                Ok(MgmtBody::FlowResponse { dst_cep, qos_id })
            }
            (OpCode::Delete, class::FLOW) => {
                let c = cep(r.varint()?)?;
                r.expect_end()?;
                Ok(MgmtBody::FlowTeardown { cep: c })
            }
            (OpCode::Read, class::RIB_SYNC) => {
                let from = r.string()?.to_string();
                let upto = r.string()?.to_string();
                let summary = EncodedSummary::parse(m.value.slice_ref(r.rest()))?;
                Ok(MgmtBody::RibDeltaRequest { subtree: m.obj_name.clone(), from, upto, summary })
            }
            (OpCode::ReadR, class::RIB_SYNC) => {
                let n = r.varint()? as usize;
                let mut objects = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    objects.push(EncodedObject::parse(m.value.slice_ref(r.bytes()?))?);
                }
                r.expect_end()?;
                Ok(MgmtBody::RibDeltaResponse { subtree: m.obj_name.clone(), objects })
            }
            (OpCode::Read, class::DIR) => {
                let origin = r.varint()?;
                r.expect_end()?;
                Ok(MgmtBody::DirLookupRequest { name: m.obj_name.clone(), origin })
            }
            (OpCode::ReadR, class::DIR) => {
                let addr = r.varint()?;
                let version = r.varint()?;
                r.expect_end()?;
                Ok(MgmtBody::DirLookupResponse { name: m.obj_name.clone(), addr, version })
            }
            _ => Err(WireError::Invalid("mgmt op/class")),
        }
    }

    /// Encode straight to bytes (CDAP envelope included).
    pub fn encode(self, invoke_id: u32, result: i32) -> Bytes {
        self.into_cdap(invoke_id, result).encode()
    }

    /// Encode a [`MgmtBody::RibDeltaResponse`] from a borrowed slice of
    /// objects, byte-identical to the typed path: the flooding hot path
    /// holds each object once (as encoded or as received) and shares the
    /// bytes across every port's batch.
    pub fn encode_delta_batch(subtree: &str, encoded: &[EncodedObject]) -> Bytes {
        let mut w =
            Writer::with_capacity(8 + encoded.iter().map(|e| e.wire().len() + 4).sum::<usize>());
        w.varint(encoded.len() as u64);
        for e in encoded {
            w.bytes(e.wire());
        }
        CdapMsg {
            op: OpCode::ReadR,
            invoke_id: 0,
            obj_class: class::RIB_SYNC.to_string(),
            obj_name: subtree.to_string(),
            result: 0,
            value: w.finish(),
        }
        .encode()
    }
}

fn cep(v: u64) -> Result<CepId, WireError> {
    CepId::try_from(v).map_err(|_| WireError::Invalid("cep id"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rina_rib::{ObjVer, RibObject};

    fn roundtrip(body: MgmtBody) {
        let cd = body.clone().into_cdap(42, 0);
        let b = cd.encode();
        let back = CdapMsg::decode(&b).unwrap();
        assert_eq!(back.invoke_id, 42);
        assert_eq!(MgmtBody::from_cdap(&back).unwrap(), body);
    }

    fn table() -> DigestTable {
        DigestTable::from_entries(vec![
            ("/dir".into(), 3, 0xAB),
            ("/lsa".into(), 12, 0xDEAD_BEEF_CAFE_F00D),
        ])
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(MgmtBody::Hello {
            name: AppName::new("net.r1"),
            addr: 7,
            up: 0,
            digests: table(),
        });
        roundtrip(MgmtBody::Hello {
            name: AppName::with_instance("net", "2"),
            addr: 0,
            up: 0,
            digests: DigestTable::default(),
        });
    }

    /// A hello naming its sender's up peer carries the address through,
    /// a wide one included.
    #[test]
    fn hello_with_an_up_peer_roundtrips() {
        let hello =
            |up| MgmtBody::Hello { name: AppName::new("net.r1"), addr: 9, up, digests: table() };
        roundtrip(hello(3));
        roundtrip(hello((1 << 41) - 1));
        let bytes = |up| hello(up).into_cdap(1, 0).value;
        assert_ne!(bytes(3), bytes(4), "the up peer is on the wire");
    }

    #[test]
    fn enroll_roundtrip() {
        roundtrip(MgmtBody::EnrollRequest {
            name: AppName::new("net.h1"),
            credential: "s3cret".into(),
            proposed_addr: 4,
            proposed_hi: 9,
            digests: table(),
        });
        roundtrip(MgmtBody::EnrollResponse { addr: 9, hi: 14 });
        roundtrip(MgmtBody::EnrollResponse { addr: 0, hi: 0 });
    }

    /// Regression pin for the wave-parallel enrollment fields: subtree
    /// prefix blocks on both directions must survive the codec
    /// byte-exactly.
    #[test]
    fn enroll_admission_and_prefix_fields_roundtrip() {
        // A dynamic joiner proposes nothing: address and block top stay
        // 0 and the digest table is empty (fresh RIB).
        roundtrip(MgmtBody::EnrollRequest {
            name: AppName::new("net.dyn"),
            credential: String::new(),
            proposed_addr: 0,
            proposed_hi: 0,
            digests: DigestTable::default(),
        });
        // A planned joiner proposes the block its subtree will occupy; a
        // retrying joiner also advertises what it already synced.
        roundtrip(MgmtBody::EnrollRequest {
            name: AppName::new("net.h9"),
            credential: "k".into(),
            proposed_addr: 17,
            proposed_hi: 40,
            digests: table(),
        });
        // A block whose top lies below its base travels as sent: refusing
        // it is the receiver's call, not the codec's.
        roundtrip(MgmtBody::EnrollRequest {
            name: AppName::new("net.h9"),
            credential: "k".into(),
            proposed_addr: 17,
            proposed_hi: 16,
            digests: DigestTable::default(),
        });
        roundtrip(MgmtBody::EnrollResponse { addr: 9, hi: 3 });
        // Large block bounds exercise multi-byte varints.
        roundtrip(MgmtBody::EnrollResponse { addr: 1 << 40, hi: (1 << 41) - 1 });
    }

    #[test]
    fn flow_roundtrip() {
        roundtrip(MgmtBody::FlowRequest {
            src_app: AppName::new("client"),
            dst_app: AppName::new("server"),
            spec: QosSpec::reliable(),
            src_addr: 3,
            src_cep: 11,
        });
        roundtrip(MgmtBody::FlowResponse { dst_cep: 12, qos_id: 1 });
        roundtrip(MgmtBody::FlowTeardown { cep: 12 });
    }

    /// Codec pins for the incremental-sync messages: subtree, name-range
    /// chunk bounds, version summaries, and batched objects must survive
    /// the wire byte-exactly.
    #[test]
    fn rib_delta_roundtrip() {
        roundtrip(MgmtBody::RibDeltaRequest {
            subtree: "/lsa".into(),
            from: String::new(),
            upto: String::new(),
            summary: EncodedSummary::of(&[]),
        });
        roundtrip(MgmtBody::RibDeltaRequest {
            subtree: "/dir".into(),
            from: "/dir/b".into(),
            upto: "/dir/k".into(),
            summary: EncodedSummary::of(&[
                ObjVer { name: "/dir/b", version: 3, origin: 9 },
                ObjVer { name: "/dir/c", version: 1 << 40, origin: u64::MAX },
            ]),
        });
        roundtrip(MgmtBody::RibDeltaResponse { subtree: "/lsa".into(), objects: vec![] });
        roundtrip(MgmtBody::RibDeltaResponse {
            subtree: "/members".into(),
            objects: vec![
                EncodedObject::of(&RibObject {
                    name: "/members/net.a".into(),
                    class: "member".into(),
                    value: Bytes::from_static(b"\x05"),
                    version: 2,
                    origin: 1,
                    deleted: false,
                }),
                EncodedObject::of(&RibObject {
                    name: "/members/net.b".into(),
                    class: "member".into(),
                    value: Bytes::new(),
                    version: 7,
                    origin: 3,
                    deleted: true,
                }),
            ],
        });
    }

    /// Codec pins for the on-demand directory resolution pair: the RIB
    /// name rides the CDAP `obj_name`, and the requester's address plus
    /// the owner's version (stale-response guard) must survive
    /// byte-exactly.
    #[test]
    fn dir_lookup_roundtrip() {
        roundtrip(MgmtBody::DirLookupRequest { name: "/dir/echo.h3".into(), origin: 7 });
        // Multi-byte varints on every numeric field.
        roundtrip(MgmtBody::DirLookupRequest { name: "/dir/ping.h1.h2".into(), origin: 1 << 40 });
        roundtrip(MgmtBody::DirLookupResponse {
            name: "/dir/echo.h3".into(),
            addr: 19,
            version: 4,
        });
        roundtrip(MgmtBody::DirLookupResponse {
            name: "/dir/far".into(),
            addr: (1 << 41) - 1,
            version: 1 << 33,
        });
    }

    /// The `dir-lookup` class must not shadow the `rib-sync` arms that
    /// share its opcodes: dispatch is on `(op, class)` pairs.
    #[test]
    fn dir_lookup_class_does_not_collide_with_rib_sync() {
        let req = MgmtBody::DirLookupRequest { name: "/dir/x".into(), origin: 2 }.into_cdap(1, 0);
        assert_eq!(req.obj_class, class::DIR);
        let sync = MgmtBody::RibDeltaRequest {
            subtree: "/dir/x".into(),
            from: String::new(),
            upto: String::new(),
            summary: EncodedSummary::of(&[]),
        }
        .into_cdap(1, 0);
        assert_eq!(sync.obj_class, class::RIB_SYNC);
        assert_eq!(req.op, sync.op);
        assert!(matches!(MgmtBody::from_cdap(&req).unwrap(), MgmtBody::DirLookupRequest { .. }));
        assert!(matches!(MgmtBody::from_cdap(&sync).unwrap(), MgmtBody::RibDeltaRequest { .. }));
    }

    /// The pre-encoded fast path must be byte-identical to the typed
    /// encoder — a divergence would be an undecodable flood batch.
    #[test]
    fn delta_batch_fast_path_matches_typed_encoding() {
        let objs = [
            RibObject {
                name: "/lsa/3".into(),
                class: "lsa".into(),
                value: Bytes::from_static(b"\x01\x02"),
                version: 4,
                origin: 3,
                deleted: false,
            },
            RibObject {
                name: "/dir/echo".into(),
                class: "dir".into(),
                value: Bytes::new(),
                version: 1,
                origin: 9,
                deleted: true,
            },
        ];
        let encs: Vec<EncodedObject> = objs.iter().map(EncodedObject::of).collect();
        let fast = MgmtBody::encode_delta_batch("/lsa", &encs);
        let typed =
            MgmtBody::RibDeltaResponse { subtree: "/lsa".into(), objects: encs }.encode(0, 0);
        assert_eq!(fast, typed);
    }

    /// A batch is checked whole on decode — one object that does not
    /// decode refuses the message, so nothing of it is applied — and what
    /// is accepted is handed on as slices of the message, not copies.
    #[test]
    fn batch_objects_are_checked_slices_of_the_message() {
        let obj = EncodedObject::of(&RibObject {
            name: "/lsa/3".into(),
            class: "lsa".into(),
            value: Bytes::from_static(b"\x01\x02"),
            version: 4,
            origin: 3,
            deleted: false,
        });
        let wire =
            MgmtBody::RibDeltaResponse { subtree: String::new(), objects: vec![obj.clone()] }
                .encode(0, 0);
        let back = MgmtBody::from_cdap(&CdapMsg::decode(&wire).unwrap()).unwrap();
        let MgmtBody::RibDeltaResponse { objects, .. } = back else { panic!("wrong variant") };
        assert_eq!(objects, vec![obj.clone()]);
        let (base, at) = (wire.as_ptr() as usize, objects[0].wire().as_ptr() as usize);
        assert!(at > base && at + objects[0].wire().len() <= base + wire.len(), "copied");

        let mut w = Writer::new();
        w.varint(2).bytes(obj.wire()).bytes(b"\xff");
        let bad = CdapMsg {
            op: OpCode::ReadR,
            invoke_id: 0,
            obj_class: class::RIB_SYNC.into(),
            obj_name: String::new(),
            result: 0,
            value: w.finish(),
        };
        assert!(MgmtBody::from_cdap(&bad).is_err());
    }

    #[test]
    fn unknown_combination_rejected() {
        let m = CdapMsg::request(OpCode::Stop, 1, "bogus", "/x", Bytes::new());
        assert!(MgmtBody::from_cdap(&m).is_err());
    }

    /// The sample of `b`'s variant. No `_` arm, and a constant index past
    /// the array's end does not compile: a new variant needs a sample.
    fn sample_of<'a>(samples: &'a [MgmtBody; 10], b: &MgmtBody) -> &'a MgmtBody {
        match b {
            MgmtBody::Hello { .. } => &samples[0],
            MgmtBody::EnrollRequest { .. } => &samples[1],
            MgmtBody::EnrollResponse { .. } => &samples[2],
            MgmtBody::FlowRequest { .. } => &samples[3],
            MgmtBody::FlowResponse { .. } => &samples[4],
            MgmtBody::FlowTeardown { .. } => &samples[5],
            MgmtBody::RibDeltaRequest { .. } => &samples[6],
            MgmtBody::RibDeltaResponse { .. } => &samples[7],
            MgmtBody::DirLookupRequest { .. } => &samples[8],
            MgmtBody::DirLookupResponse { .. } => &samples[9],
        }
    }

    /// Codec symmetry for every variant at once (DESIGN.md §9, W1).
    #[test]
    fn every_variant_roundtrips() {
        let obj = |name: &str, deleted| {
            EncodedObject::of(&RibObject {
                name: name.into(),
                class: "lsa".into(),
                value: Bytes::from_static(b"\x01\x02\x03"),
                version: 8,
                origin: 4,
                deleted,
            })
        };
        let samples = [
            MgmtBody::Hello { name: AppName::new("net.r1"), addr: 7, up: 2, digests: table() },
            MgmtBody::EnrollRequest {
                name: AppName::new("net.h9"),
                credential: "k".into(),
                proposed_addr: 17,
                proposed_hi: 40,
                digests: table(),
            },
            MgmtBody::EnrollResponse { addr: 1 << 40, hi: (1 << 41) - 1 },
            MgmtBody::FlowRequest {
                src_app: AppName::new("client"),
                dst_app: AppName::new("server"),
                spec: QosSpec::reliable(),
                src_addr: 3,
                src_cep: 11,
            },
            MgmtBody::FlowResponse { dst_cep: 12, qos_id: 1 },
            MgmtBody::FlowTeardown { cep: 12 },
            MgmtBody::RibDeltaRequest {
                subtree: "/dir".into(),
                from: "/dir/b".into(),
                upto: "/dir/k".into(),
                summary: EncodedSummary::of(&[ObjVer { name: "/dir/b", version: 3, origin: 9 }]),
            },
            MgmtBody::RibDeltaResponse {
                subtree: "/lsa".into(),
                objects: vec![obj("/lsa/4", false), obj("/lsa/5", true)],
            },
            MgmtBody::DirLookupRequest { name: "/dir/echo.h3".into(), origin: 1 << 40 },
            MgmtBody::DirLookupResponse {
                name: "/dir/far".into(),
                addr: (1 << 41) - 1,
                version: 1 << 33,
            },
        ];
        for b in &samples {
            assert!(std::ptr::eq(sample_of(&samples, b), b), "misfiled: {b:?}");
            roundtrip(b.clone());
        }
    }
}
