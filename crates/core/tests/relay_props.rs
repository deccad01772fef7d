//! Property tests for the relay path of [`Ipcp::on_frame`] (offline
//! `proptest` shim: 64 deterministic cases per property).
//!
//! A relay never decodes a transit frame: it peeks the header, patches
//! the TTL byte and the CRC trailer in the arrival buffer and sends the
//! same bytes on. The reference it must agree with is the textbook relay
//! — `Pdu::decode` → `decrement_ttl` → `encode` — which no longer exists
//! in the library and is rebuilt here from `rina-wire`'s public API:
//!
//! 1. for any encoder-produced frame and any TTL in 1..=255 the relayed
//!    bytes equal the reference's, and the shared arrival buffer is
//!    left untouched;
//! 2. a non-local frame with TTL 0 emits nothing and counts one
//!    `ttl_drops`;
//! 3. arbitrary bytes never panic a member — shim or not — and a frame
//!    the peek declines counts exactly one `decode_errors`; a decodable
//!    data or control frame addressed to the member, for a CEP nobody
//!    owns, counts exactly one `no_flow_drops` and emits nothing;
//! 4. a shim relays by the same path and finds nothing to relay to: a
//!    frame addressed to a third member books `(relayed, no_route) =
//!    (1, 1)` and emits nothing.

use bytes::Bytes;
use proptest::prelude::*;
use rina::dif::DifConfig;
use rina::ipcp::{Ipcp, IpcpOut, N1Kind};
use rina::msg::MgmtBody;
use rina::naming::AppName;
use rina_rib::DigestTable;
use rina_sim::Time;
use rina_wire::efcp::WIRE_VERSION;
use rina_wire::{CtrlKind, CtrlPdu, DataPdu, MgmtPdu, Pdu, PduView};

/// A link-local hello from the member `name` at `addr`.
fn hello_from(name: &str, addr: u64) -> Bytes {
    let digests = DigestTable::default();
    let body = MgmtBody::Hello { name: AppName::new(name), addr, up: 0, digests };
    Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: addr, ttl: 1, payload: body.encode(0, 0) }).encode()
}

/// A bootstrapped member at address 1 whose port 0 leads to a peer at
/// address `u64::MAX` and whose port 1 leads to a peer at `next_hop`.
fn relay_toward(next_hop: u64) -> Ipcp {
    let mut r = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.r"));
    r.bootstrap(1);
    r.add_n1(N1Kind::Phys { iface: 0 });
    r.add_n1(N1Kind::Phys { iface: 1 });
    r.on_frame(0, hello_from("net.a", u64::MAX), Time::ZERO);
    r.on_frame(1, hello_from("net.b", next_hop), Time::ZERO);
    r.take_out();
    r
}

/// End 1 of a physical link, before any flow is allocated over it.
fn shim() -> Ipcp {
    Ipcp::shim(0, DifConfig::new("shim"), AppName::new("shim.a"), 0, 1)
}

/// One of the three PDU types from flat draws, addressed to `dest_addr`.
#[allow(clippy::too_many_arguments)]
fn build_pdu(
    k: u8,
    dest_addr: u64,
    src_addr: u64,
    qos_id: u8,
    dest_cep: u32,
    src_cep: u32,
    seq: u64,
    flags: u8,
    ttl: u8,
    payload: Vec<u8>,
) -> Pdu {
    match k % 3 {
        0 => Pdu::Data(DataPdu {
            dest_addr,
            src_addr,
            qos_id,
            dest_cep,
            src_cep,
            seq,
            flags,
            ttl,
            payload: Bytes::from(payload),
        }),
        1 => Pdu::Ctrl(CtrlPdu {
            dest_addr,
            src_addr,
            qos_id,
            dest_cep,
            src_cep,
            ttl,
            kind: match flags % 2 {
                0 => CtrlKind::Nack { seq },
                _ => CtrlKind::AckCredit { seq, rwe: seq.wrapping_add(src_cep as u64) },
            },
        }),
        _ => Pdu::Mgmt(MgmtPdu { dest_addr, src_addr, ttl, payload: Bytes::from(payload) }),
    }
}

/// The frames `i` wants transmitted, with the port each leaves on.
fn tx_frames(i: &mut Ipcp) -> Vec<(usize, Bytes)> {
    i.take_out()
        .into_iter()
        .filter_map(|o| match o {
            IpcpOut::TxPhys { n1, frame, .. } => Some((n1, frame)),
            _ => None,
        })
        .collect()
}

proptest! {
    /// Invariant 1: the in-place patch is the textbook relay, byte for
    /// byte, down to the last hop a frame may cross (TTL 1 → 0).
    #[test]
    fn relayed_bytes_equal_decode_decrement_encode(
        k in 0u8..3, dest_addr in 2u64..u64::MAX, src_addr in any::<u64>(),
        qos_id in any::<u8>(), dest_cep in any::<u32>(), src_cep in any::<u32>(),
        seq in any::<u64>(), flags in 0u8..8, ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let pdu =
            build_pdu(k, dest_addr, src_addr, qos_id, dest_cep, src_cep, seq, flags, ttl, payload);
        let arrival = pdu.encode();
        let mut r = relay_toward(dest_addr);
        r.on_frame(0, arrival.clone(), Time::ZERO);
        let s = r.stats;
        prop_assert_eq!(
            (s.relayed, s.relay_fast, s.no_route, s.ttl_drops, s.decode_errors),
            (1, 1, 0, 0, 0)
        );
        let out = tx_frames(&mut r);
        prop_assert_eq!(out.len(), 1, "exactly one frame leaves: {:?}", out);
        let (n1, relayed) = &out[0];
        prop_assert_eq!(*n1, 1, "out the port toward the destination");
        let mut reference = Pdu::decode(&arrival).unwrap();
        prop_assert!(reference.decrement_ttl());
        prop_assert_eq!(&relayed[..], &reference.encode()[..]);
        // Copy-on-write: the buffer the relay shares with the sender's
        // queue still reads as sent.
        prop_assert_eq!(&arrival[..], &pdu.encode()[..]);
    }

    /// Invariant 2: a spent TTL dies at the relay, counted, whatever the
    /// PDU type and however routable its destination.
    #[test]
    fn spent_ttl_emits_nothing_and_is_counted(
        k in 0u8..3, dest_addr in 2u64..u64::MAX, src_addr in any::<u64>(),
        qos_id in any::<u8>(), dest_cep in any::<u32>(), src_cep in any::<u32>(),
        seq in any::<u64>(), flags in 0u8..8,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let pdu =
            build_pdu(k, dest_addr, src_addr, qos_id, dest_cep, src_cep, seq, flags, 0, payload);
        let mut r = relay_toward(dest_addr);
        r.on_frame(0, pdu.encode(), Time::ZERO);
        let s = r.stats;
        prop_assert_eq!((s.ttl_drops, s.relayed, s.relay_fast, s.no_route), (1, 0, 0, 0));
        prop_assert!(r.take_out().is_empty(), "an expired frame emits nothing");
    }

    /// Invariant 3: whatever arrives, a member survives it and books it
    /// at most once; what the peek declines is a decode error.
    #[test]
    fn garbage_never_panics_and_is_counted_once(
        data in proptest::collection::vec(any::<u8>(), 0..96),
        steer in 0u8..2,
    ) {
        // Steer half the cases past the version and type-tag checks so
        // the relay and terminate branches see malformed input too.
        let mut data = data;
        if steer == 1 && data.len() >= 2 {
            data[0] = WIRE_VERSION;
            data[1] = 0x81 + (data[1] % 3);
        }
        let frame = Bytes::from(data);
        let declined = PduView::peek(&frame).is_none();
        let undecodable = Pdu::decode(&frame).is_err();
        for mut member in [relay_toward(2), shim()] {
            member.on_frame(0, frame.clone(), Time::ZERO);
            let s = member.stats;
            prop_assert!(
                s.decode_errors + s.relayed + s.ttl_drops + s.no_flow_drops <= 1,
                "booked more than once: {:?}", s
            );
            if declined {
                prop_assert_eq!(s.decode_errors, 1);
            }
            if undecodable && s.relayed == 0 {
                prop_assert!(member.take_out().is_empty(), "a dead frame emits nothing");
            }
        }
    }

    /// Invariant 3, the decodable half: a data or control PDU that
    /// reaches its destination member after its flow is gone (or before
    /// it ever existed) dies there, booked exactly once, on a member and
    /// on a shim alike.
    #[test]
    fn an_unowned_cep_is_booked_once_and_emits_nothing(
        k in 0u8..2, src_addr in any::<u64>(), qos_id in any::<u8>(),
        dest_cep in any::<u32>(), src_cep in any::<u32>(), seq in any::<u64>(),
        flags in 0u8..8, ttl in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // Both members answer to address 1 and own no flow at all.
        let pdu = build_pdu(k, 1, src_addr, qos_id, dest_cep, src_cep, seq, flags, ttl, payload);
        for mut member in [relay_toward(2), shim()] {
            member.on_frame(0, pdu.encode(), Time::ZERO);
            let s = member.stats;
            prop_assert_eq!(
                (s.no_flow_drops, s.decode_errors, s.relayed, s.ttl_drops, s.no_route),
                (1, 0, 0, 0, 0)
            );
            prop_assert!(member.take_out().is_empty(), "a dropped PDU emits nothing");
        }
    }

    /// Invariant 4: a correct peer never sends a shim a frame for a third
    /// member; one that arrives anyway finds no route, since a shim's
    /// table is empty and its relay index holds only the peer.
    #[test]
    fn a_shim_books_a_third_members_frame_as_no_route(
        k in 0u8..3, dest_addr in 3u64..u64::MAX, src_addr in any::<u64>(),
        qos_id in any::<u8>(), dest_cep in any::<u32>(), src_cep in any::<u32>(),
        seq in any::<u64>(), flags in 0u8..8, ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let pdu =
            build_pdu(k, dest_addr, src_addr, qos_id, dest_cep, src_cep, seq, flags, ttl, payload);
        let mut s = shim();
        s.on_frame(0, pdu.encode(), Time::ZERO);
        prop_assert_eq!((s.stats.relayed, s.stats.no_route), (1, 1));
        prop_assert!(s.take_out().is_empty(), "a frame with no route emits nothing");
    }
}
