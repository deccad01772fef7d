//! Unit tests that drive one [`Ipcp`] as a whole (several task sets at
//! once); tests of a single task's struct sit beside it in its file.

use super::*;
use crate::dif::AuthPolicy;
use crate::routing::{Lsa, LSA_CLASS};
use rina_rib::{DigestTable, EncodedObject, Rib, RibObject};

/// `obj` arrives from the wire on port `from_n1`.
fn reflood(i: &mut Ipcp, obj: RibObject, from_n1: usize) {
    i.apply_and_reflood(&EncodedObject::of(&obj), from_n1);
}

fn mk(name: &str) -> Ipcp {
    Ipcp::new(0, DifConfig::new("net"), AppName::new(name))
}

/// Attach a physical port on `iface` whose peer is up and known at
/// `peer_addr`, a child of `i` in the spanning tree or not.
fn live_port(i: &mut Ipcp, iface: u32, peer_addr: Addr, child: bool) -> usize {
    let n1 = i.add_n1(N1Kind::Phys { iface });
    i.transfer.n1[n1].peer_addr = peer_addr;
    i.neighbors.peers[n1].child = child;
    i.transfer.rebuild_peer_index();
    n1
}

/// An enrollment request from `name` arrives on `n1`, proposing the
/// block `[addr, hi]`, with an open-DIF (empty) credential.
fn enroll_req(s: &mut Ipcp, n1: usize, name: &str, (addr, hi): Proposal, invoke: u32) {
    let none = DigestTable::default();
    s.handle_enroll_request(n1, AppName::new(name), String::new(), addr, hi, none, invoke);
}

/// What a joiner proposes: an address and the top of the block it
/// starts.
type Proposal = (Addr, Addr);

/// A joiner that proposes nothing.
const NO_PROPOSAL: Proposal = (0, 0);

/// The enrolled member `name` at `addr`, with no up peer, says hello on
/// `n1` at `now`.
fn hello_from(s: &mut Ipcp, n1: usize, name: &str, addr: Addr, now: Time) {
    hello_with(s, n1, name, addr, DigestTable::default(), now);
}

/// The same hello, advertising `digests`.
fn hello_with(s: &mut Ipcp, n1: usize, name: &str, addr: Addr, digests: DigestTable, now: Time) {
    hello_up(s, n1, name, (addr, 0), digests, now);
}

/// The same hello from the member at `addr` whose up peer is `up`.
fn hello_up(
    s: &mut Ipcp,
    n1: usize,
    name: &str,
    (addr, up): (Addr, Addr),
    digests: DigestTable,
    now: Time,
) {
    let hello = MgmtBody::Hello { name: AppName::new(name), addr, up, digests };
    let pdu =
        Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: addr, ttl: 1, payload: hello.encode(0, 0) });
    s.on_frame(n1, pdu.encode(), now);
}

/// The LSA of member `owner` with no neighbors — the liveness record
/// directory answers are checked against.
fn owner_lsa(owner: Addr, version: u64, deleted: bool) -> RibObject {
    lsa_obj(owner, &[], version, deleted)
}

#[test]
fn bootstrap_writes_member_object() {
    let mut a = mk("net.a");
    a.bootstrap(1);
    assert!(a.is_enrolled());
    assert_eq!(a.addr, 1);
    assert!(a.rib.get("/members/net.a").is_some());
}

#[test]
fn dir_register_and_lookup() {
    let mut a = mk("net.a");
    a.bootstrap(1);
    a.dir_register(&AppName::new("web"));
    assert_eq!(a.dir_lookup(&AppName::new("web")), Some(1));
    assert_eq!(a.dir_lookup(&AppName::new("nope")), None);
    a.dir_unregister(&AppName::new("web"));
    assert_eq!(a.dir_lookup(&AppName::new("web")), None);
}

#[test]
fn shim_directory_points_at_peer() {
    let s = Ipcp::shim(0, DifConfig::new("shim"), AppName::new("shim.a"), 0, 1);
    assert_eq!(s.dir_lookup(&AppName::new("anything")), Some(2));
}

/// A registration made before the process is a member is recorded and
/// written nowhere; the enrollment response that makes it a member
/// writes it to `/dir`.
#[test]
fn registration_before_enrollment_is_written_on_enrolling() {
    let mut j = mk("net.j");
    j.add_n1(N1Kind::Phys { iface: 0 });
    j.dir_register(&AppName::new("web"));
    assert_eq!(j.rib.object_count(), 0, "not a member: nothing written");
    j.handle_enroll_response(5, 5, 0);
    assert_eq!(j.dir_lookup(&AppName::new("web")), Some(5));
}

/// What reaches a process before it is a member — its sponsor's sync
/// set, streamed ahead of the response — is stored and goes no further:
/// nothing is queued for any other port, and no route recomputation is
/// asked for, since routes are rooted at an address it does not hold
/// yet. The response that makes it a member computes them once.
#[test]
fn a_non_member_applies_the_sync_set_and_forwards_nothing() {
    let mut j = mk("net.j");
    live_port(&mut j, 0, 1, true);
    live_port(&mut j, 1, 7, false);
    reflood(&mut j, lsa_obj(1, &[(7, 1)], 1, false), 0);
    reflood(&mut j, lsa_obj(7, &[(1, 1)], 1, false), 0);
    assert!(j.rib.get("/lsa/1").is_some() && j.rib.get("/lsa/7").is_some());
    assert_eq!(j.dissemination.flush_wanted(), None, "nothing queued to flood");
    j.arm_deferred(Time::ZERO);
    let asked = j.take_out();
    assert!(asked.is_empty(), "{asked:?}");
    assert_eq!(j.route_stats().spf_full, 0);
    j.handle_enroll_response(5, 5, 0);
    assert_eq!(j.route_stats().spf_full, 1);
}

/// A relay at address 1 with live ports toward peers 2 and 3.
fn mk_relay() -> Ipcp {
    let mut r = mk("net.r");
    r.bootstrap(1);
    live_port(&mut r, 0, 2, false);
    live_port(&mut r, 1, 3, false);
    r.take_out();
    r
}

fn transit_data(ttl: u8) -> Pdu {
    Pdu::Data(rina_wire::DataPdu {
        dest_addr: 3,
        src_addr: 2,
        qos_id: 0,
        dest_cep: 7,
        src_cep: 9,
        seq: 42,
        flags: 0,
        ttl,
        payload: Bytes::from_static(b"some payload"),
    })
}

#[test]
fn relay_patches_ttl_in_place() {
    // TTL 1 is the last hop a frame may still cross: it leaves with
    // TTL 0 and the next relay drops it.
    for ttl in [4u8, 1] {
        let mut r = mk_relay();
        let original = transit_data(ttl).encode();
        r.on_frame(0, original.clone(), Time::ZERO);
        assert_eq!((r.stats.relayed, r.stats.relay_fast, r.stats.ttl_drops), (1, 1, 0));
        let out = r.take_out();
        let [IpcpOut::TxPhys { n1, frame, .. }] = &out[..] else {
            panic!("one forwarded frame expected, got {out:?}");
        };
        assert_eq!(*n1, 1, "forwarded toward the destination's port");
        // The patched buffer is byte-identical to decode, decrement
        // TTL, re-encode.
        let mut reference = Pdu::decode(&original).unwrap();
        assert!(reference.decrement_ttl());
        assert_eq!(frame.as_ref(), reference.encode().as_ref());
        // And the arriving buffer was not mutated in place (it is shared).
        assert_eq!(Pdu::decode(&original).unwrap().ttl(), ttl);
    }
}

#[test]
fn alloc_flow_unknown_dest_fails_immediately() {
    let mut a = mk("net.a");
    a.bootstrap(1);
    a.alloc_flow(10, AppName::new("c"), AppName::new("ghost"), QosSpec::reliable(), Time::ZERO);
    let out = a.take_out();
    assert!(matches!(&out[..], [IpcpOut::FlowGone { port: 10, failed: Some(_) }]));
}

#[test]
fn enroll_request_rejected_on_bad_secret() {
    let mut sponsor = Ipcp::new(
        0,
        DifConfig::new("net").with_auth(AuthPolicy::Secret("sesame".into())),
        AppName::new("net.sponsor"),
    );
    sponsor.bootstrap(1);
    sponsor.add_n1(N1Kind::Phys { iface: 0 });
    sponsor.handle_enroll_request(
        0,
        AppName::new("net.x"),
        "wrong".into(),
        0,
        0,
        DigestTable::default(),
        5,
    );
    // The response effect is a TxPhys frame; decode it and check result.
    let out = sponsor.take_out();
    let frame = out
        .iter()
        .find_map(|o| match o {
            IpcpOut::TxPhys { frame, .. } => Some(frame.clone()),
            _ => None,
        })
        .expect("a response frame");
    let pdu = Pdu::decode(&frame).unwrap();
    let Pdu::Mgmt(m) = pdu else { panic!("mgmt expected") };
    let cdap = CdapMsg::decode(&m.payload).unwrap();
    assert_eq!(cdap.result, -2);
    // And no member object was written.
    assert!(sponsor.rib.get("/members/net.x").is_none());
}

#[test]
fn sponsor_assigns_sequential_addresses() {
    let mut sponsor = mk("net.s");
    sponsor.bootstrap(1);
    sponsor.add_n1(N1Kind::Phys { iface: 0 });
    sponsor.add_n1(N1Kind::Phys { iface: 1 });
    enroll_req(&mut sponsor, 0, "net.x", NO_PROPOSAL, 1);
    enroll_req(&mut sponsor, 1, "net.y", NO_PROPOSAL, 2);
    let x = decode_addr(sponsor.rib.get("/members/net.x").unwrap().value).unwrap();
    let y = decode_addr(sponsor.rib.get("/members/net.y").unwrap().value).unwrap();
    assert_eq!((x, y), (2, 3));
}

/// Decode the EnrollResponse a sponsor just emitted (among whatever
/// RIB floods followed it).
fn last_enroll_response(i: &mut Ipcp) -> (i32, Addr, Addr) {
    i.take_out()
        .iter()
        .filter_map(|o| match o {
            IpcpOut::TxPhys { frame, .. } => Some(frame.clone()),
            _ => None,
        })
        .find_map(|frame| {
            let Pdu::Mgmt(m) = Pdu::decode(&frame).ok()? else { return None };
            let cdap = CdapMsg::decode(&m.payload).ok()?;
            match MgmtBody::from_cdap(&cdap).ok()? {
                MgmtBody::EnrollResponse { addr, hi } => Some((cdap.result, addr, hi)),
                _ => None,
            }
        })
        .expect("an EnrollResponse frame")
}

/// A sponsor at address 1 holding block `[1, 100]`, with `ports` ports, and
/// the joiners `net.j0 … net.j8` with the disjoint ten-address blocks
/// they propose.
fn sponsor_and_joiners(ports: u32) -> (Ipcp, Vec<(String, Proposal)>) {
    let mut sponsor = mk("net.s");
    sponsor.bootstrap(1);
    sponsor.set_block(100);
    for iface in 0..ports {
        sponsor.add_n1(N1Kind::Phys { iface });
    }
    let joiners = (0..9u64).map(|k| (format!("net.j{k}"), (2 + 10 * k, 11 + 10 * k)));
    (sponsor, joiners.collect())
}

/// Nothing paces admission: nine joiners asking at once each get the
/// grant they proposed, in the one round their requests arrive in.
#[test]
fn a_sponsor_grants_every_concurrent_joiner() {
    let (mut sponsor, joiners) = sponsor_and_joiners(9);
    for (k, (name, proposal)) in joiners.iter().enumerate() {
        enroll_req(&mut sponsor, k, name, *proposal, k as u32 + 1);
        let (r, a, b) = last_enroll_response(&mut sponsor);
        assert_eq!((r, (a, b)), (0, *proposal), "{name}");
    }
    assert_eq!(sponsor.stats.enrollments_sponsored, 9);
}

/// A joiner whose grant was lost asks again and gets the same grant
/// back from the record its admission wrote — a planned joiner its
/// proposal, an unplanned one its carved block — and the sponsor writes
/// no second version of that record, so the re-grant floods nothing.
#[test]
fn admitted_retry_regrants_same_address_without_a_second_slot() {
    // Seven joiners are admitted and not yet up; then the planned
    // net.j7 and the unplanned net.x ask.
    let (mut sponsor, joiners) = sponsor_and_joiners(9);
    for (k, (name, proposal)) in joiners[..7].iter().enumerate() {
        enroll_req(&mut sponsor, k, name, *proposal, k as u32 + 1);
    }
    sponsor.take_out();
    let (planned, plan) = &joiners[7];
    let version = |s: &Ipcp, name: &str| s.rib.get(&format!("/members/{name}")).map(|o| o.version);
    for (n1, name, proposal, grant) in
        [(7, planned.as_str(), *plan, *plan), (8, "net.x", NO_PROPOSAL, (82, 91))]
    {
        enroll_req(&mut sponsor, n1, name, proposal, 10);
        let (r, a, hi) = last_enroll_response(&mut sponsor);
        assert_eq!((r, (a, hi)), (0, grant), "{name}");
        let written = version(&sponsor, name);
        // The response was lost; the joiner retries and gets the same grant.
        enroll_req(&mut sponsor, n1, name, proposal, 11);
        assert_eq!(last_enroll_response(&mut sponsor), (0, a, hi), "{name}");
        assert_eq!(version(&sponsor, name), written, "{name}: one record version");
    }
}

/// A proposal may nest *inside* an ancestor's block, but never
/// swallow an existing delegation — otherwise two sponsors would
/// both believe they own the swallowed range.
#[test]
fn block_proposal_swallowing_a_sibling_is_refused_and_carved() {
    let mut sponsor = mk("net.s");
    sponsor.bootstrap(1);
    sponsor.set_block(50);
    sponsor.add_n1(N1Kind::Phys { iface: 0 });
    sponsor.add_n1(N1Kind::Phys { iface: 1 });
    enroll_req(&mut sponsor, 0, "net.a", (20, 30), 1);
    let (_, a, hi) = last_enroll_response(&mut sponsor);
    assert_eq!((a, hi), (20, 30));
    // net.b proposes [11, 40]: strictly *contains* net.a's [20, 30] —
    // inward nesting is fine, swallowing a delegation is not.
    enroll_req(&mut sponsor, 1, "net.b", (11, 40), 2);
    let (r, a2, hi2) = last_enroll_response(&mut sponsor);
    assert_eq!(r, 0);
    // The refused proposal is replaced by a carve from the
    // sponsor's own block: the largest free gap is [31, 50], the
    // joiner gets its first address and its first half.
    assert_eq!((a2, hi2), (31, 40));
}

#[test]
fn partially_overlapping_block_proposal_gets_a_carved_block() {
    let mut sponsor = mk("net.s");
    sponsor.bootstrap(1);
    sponsor.set_block(50);
    sponsor.add_n1(N1Kind::Phys { iface: 0 });
    sponsor.add_n1(N1Kind::Phys { iface: 1 });
    enroll_req(&mut sponsor, 0, "net.a", (2, 20), 1);
    let (_, a, hi) = last_enroll_response(&mut sponsor);
    assert_eq!((a, hi), (2, 20));
    // net.b claims [15, 30]: straddles net.a's block — rejected
    // proposal, replaced by a carve of the free [21, 50] gap.
    enroll_req(&mut sponsor, 1, "net.b", (15, 30), 2);
    let (r, a2, hi2) = last_enroll_response(&mut sponsor);
    assert_eq!(r, 0);
    assert_eq!((a2, hi2), (21, 35));
}

#[test]
fn ttl_expiry_drops() {
    // A spent TTL is dropped before the route lookup, for every PDU
    // type, even with a live port toward the destination.
    let mut r = mk_relay();
    let mgmt = Pdu::Mgmt(MgmtPdu { dest_addr: 3, src_addr: 2, ttl: 0, payload: Bytes::new() });
    r.on_frame(0, mgmt.encode(), Time::ZERO);
    r.on_frame(0, transit_data(0).encode(), Time::ZERO);
    assert_eq!((r.stats.ttl_drops, r.stats.relayed, r.stats.no_route), (2, 0, 0));
    assert!(r.take_out().is_empty(), "an expired frame emits nothing");
}

#[test]
fn no_route_counted() {
    let mut r = mk_relay();
    let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 99, src_addr: 50, ttl: 8, payload: Bytes::new() });
    r.on_frame(0, pdu.encode(), Time::ZERO);
    assert_eq!((r.stats.relayed, r.stats.no_route, r.stats.relay_fast), (1, 1, 0));
    assert!(r.take_out().is_empty());
}

#[test]
fn garbage_frame_counted_not_panicking() {
    let mut r = mk("net.r");
    r.bootstrap(1);
    r.add_n1(N1Kind::Phys { iface: 0 });
    r.on_frame(0, Bytes::from_static(b"\xde\xad\xbe\xef"), Time::ZERO);
    assert_eq!(r.stats.decode_errors, 1);
}

fn lsa_obj(addr: Addr, neighbors: &[(Addr, u32)], version: u64, deleted: bool) -> RibObject {
    RibObject {
        name: Lsa::object_name(addr),
        class: LSA_CLASS.into(),
        value: if deleted { Bytes::new() } else { Lsa { neighbors: neighbors.to_vec() }.encode() },
        version,
        origin: addr,
        deleted,
    }
}

/// Anti-entropy pulls at every hello whose digest table differs from
/// ours, and at no other: one hello period after a pull on a port, a
/// fresh divergence is pulled at once.
#[test]
fn each_hello_that_differs_pulls() {
    let ms = Time::from_millis;
    let mut a = mk("net.a");
    a.bootstrap(1);
    let n1 = live_port(&mut a, 0, 2, true);
    // The first hello names the peer, and `a` advertises it in its LSA.
    hello_from(&mut a, n1, "net.b", 2, Time::ZERO);
    for tick in 1..=4 {
        a.tick_hello(ms(tick * 500));
    }
    let mut peer = Rib::new(2);
    for o in a.rib.snapshot() {
        peer.apply_ref(&o.view());
    }
    let before = a.stats.delta_requests;
    hello_with(&mut a, n1, "net.b", 2, peer.digest_table(), ms(2_000));
    assert_eq!(a.stats.delta_requests, before, "a hello that matches pulls nothing");
    let first = lsa_obj(2, &[(1, 1)], 1, false);
    peer.apply_remote(first.clone());
    hello_with(&mut a, n1, "net.b", 2, peer.digest_table(), ms(2_000));
    let pulled = a.stats.delta_requests;
    assert!(pulled > before, "a hello that differs pulls");
    // The answer arrives; one hello period later the peer differs again.
    reflood(&mut a, first, n1);
    a.tick_hello(ms(2_500));
    peer.apply_remote(lsa_obj(3, &[(2, 1)], 1, false));
    hello_with(&mut a, n1, "net.b", 2, peer.digest_table(), ms(2_500));
    assert!(a.stats.delta_requests > pulled, "the next hello that differs pulls");
}

/// A batch of `objs` arrives from the member at `src` on `n1`: a flood
/// when `subtree` is empty, else the answer to a pull of `subtree`.
fn batch_from(s: &mut Ipcp, n1: usize, src: Addr, subtree: &str, objs: &[RibObject]) {
    let objects = objs.iter().map(EncodedObject::of).collect();
    let body = MgmtBody::RibDeltaResponse { subtree: subtree.into(), objects };
    let pdu =
        Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: src, ttl: 1, payload: body.encode(0, 0) });
    s.on_frame(n1, pdu.encode(), Time::ZERO);
}

/// Flush the flood queues: the ports the flood batches leave on.
fn flood_ports(s: &mut Ipcp) -> Vec<usize> {
    s.flush_floods();
    tx_mgmt(&s.take_out())
        .into_iter()
        .filter_map(|(n1, _, b)| match b {
            MgmtBody::RibDeltaResponse { subtree, .. } if subtree.is_empty() => Some(n1),
            _ => None,
        })
        .collect()
}

/// A member at 1, the lowest address, with two cross ports (to 2 and
/// 3): it has no up port, and no hello named it anyone's up peer yet.
fn lowest_with_two_cross_ports() -> Ipcp {
    let mut a = mk("net.a");
    a.bootstrap(1);
    live_port(&mut a, 0, 2, false);
    live_port(&mut a, 1, 3, false);
    a.take_out();
    a
}

/// A local write floods out the member's up port — the port toward the
/// lowest address it routes to — and skips the other cross port.
#[test]
fn a_local_write_floods_out_the_root_ward_port() {
    let mut a = mk("net.a");
    a.bootstrap(5);
    live_port(&mut a, 0, 2, false);
    live_port(&mut a, 1, 7, false);
    a.write_lsa_now();
    reflood(&mut a, lsa_obj(2, &[(5, 1)], 1, false), 0);
    reflood(&mut a, lsa_obj(7, &[(5, 1)], 1, false), 1);
    recompute(&mut a);
    assert_eq!(a.fwd().destinations().collect::<Vec<_>>(), [2, 7]);
    assert_eq!(a.up_port(), Some(0));
    flood_ports(&mut a);
    let skipped = a.stats.flood_suppressed;
    a.dir_register(&AppName::new("web"));
    assert_eq!(flood_ports(&mut a), [0], "toward 2, below 5; not toward 7");
    assert_eq!(a.stats.flood_suppressed, skipped + 1);
}

/// Before routes, the up port is the live port a member enrolled
/// through; the hello names its peer there, and a sponsor counts the
/// port it sponsored over as a child's from the start.
#[test]
fn before_routes_the_up_port_is_the_enrollment_port() {
    let mut j = mk("net.j");
    live_port(&mut j, 0, 7, false);
    live_port(&mut j, 1, 9, false);
    assert_eq!(j.up_port(), None);
    j.start_enroll(1, "", 0, 0, Time::ZERO);
    assert_eq!(j.up_port(), Some(1));
    let hellos: Vec<Addr> = tx_mgmt(&j.take_out())
        .into_iter()
        .filter_map(|(_, _, b)| match b {
            MgmtBody::Hello { up, .. } => Some(up),
            _ => None,
        })
        .collect();
    assert_eq!(hellos, [9], "the hello names the sponsor as up peer");
    let mut s = mk("net.s");
    s.bootstrap(1);
    live_port(&mut s, 0, 0, false);
    enroll_req(&mut s, 0, "net.j", NO_PROPOSAL, 1);
    s.take_out();
    assert_eq!(s.tree_ports().collect::<Vec<_>>(), [0], "the joiner is a child");
}

/// A hello naming this member as the sender's up peer makes its port a
/// child's: floods go out it from then on. A hello naming anyone else
/// takes that back, and a port that goes down forgets it.
#[test]
fn a_hello_naming_this_member_makes_a_child_port() {
    let mut a = lowest_with_two_cross_ports();
    a.dir_register(&AppName::new("web"));
    assert!(flood_ports(&mut a).is_empty(), "no tree port yet");
    hello_up(&mut a, 0, "net.b", (2, 1), DigestTable::default(), Time::ZERO);
    a.dir_register(&AppName::new("mail"));
    assert_eq!(flood_ports(&mut a), [0]);
    hello_up(&mut a, 0, "net.b", (2, 3), DigestTable::default(), Time::ZERO);
    a.dir_register(&AppName::new("ftp"));
    assert!(flood_ports(&mut a).is_empty(), "the child moved its up port");
    hello_up(&mut a, 1, "net.c", (3, 1), DigestTable::default(), Time::ZERO);
    assert_eq!(a.tree_ports().collect::<Vec<_>>(), [1]);
    a.n1_down(1, Time::ZERO);
    assert_eq!(a.tree_ports().count(), 0, "a port going down forgets its child");
}

/// Neither a flood batch nor the answer to a pull makes a tree port:
/// only the peer's own hello says where its up port leads.
#[test]
fn a_flood_batch_makes_no_tree_port() {
    let mut a = lowest_with_two_cross_ports();
    batch_from(&mut a, 0, 2, "", &[lsa_obj(2, &[(1, 1)], 1, false)]);
    batch_from(&mut a, 1, 3, "/lsa", &[lsa_obj(3, &[(1, 1)], 1, false)]);
    flood_ports(&mut a);
    a.dir_register(&AppName::new("web"));
    assert!(flood_ports(&mut a).is_empty());
}

/// A member whose up port moves sends its hello at once on the old and
/// the new one when the route repair that moved it runs, so both ends of
/// each edge agree within a link latency.
#[test]
fn a_moved_up_port_is_announced_at_once_on_both_ports() {
    let mut a = mk("net.a");
    a.bootstrap(9);
    live_port(&mut a, 0, 7, false);
    live_port(&mut a, 1, 5, false);
    a.write_lsa_now();
    reflood(&mut a, lsa_obj(7, &[(9, 1)], 1, false), 0);
    reflood(&mut a, lsa_obj(5, &[(9, 1)], 1, false), 1);
    let announced = |a: &mut Ipcp| -> Vec<(usize, Addr)> {
        recompute(a);
        let hellos = tx_mgmt(&a.take_out()).into_iter();
        hellos
            .filter_map(|(n1, _, b)| match b {
                MgmtBody::Hello { up, .. } => Some((n1, up)),
                _ => None,
            })
            .collect()
    };
    assert_eq!(announced(&mut a), [(1, 5)], "toward 5, the lowest address it reaches");
    assert!(announced(&mut a).is_empty(), "unchanged: nothing sent");
    // 7 comes to reach 3, below 5: the up port moves to 7's.
    reflood(&mut a, lsa_obj(7, &[(3, 1), (9, 1)], 2, false), 0);
    reflood(&mut a, lsa_obj(3, &[(7, 1)], 1, false), 0);
    assert_eq!(announced(&mut a), [(1, 7), (0, 7)], "old and new up port, naming 7");
}

/// A live neighbor below the lowest address the routes reach — an
/// adjacency that just formed, whose LSAs have not arrived — is the
/// up peer until they do: a member whose routes lag a healed edge
/// joins the tree across it.
#[test]
fn a_lower_neighbor_is_the_up_peer_while_routes_lag() {
    let mut a = mk("net.a");
    a.bootstrap(9);
    live_port(&mut a, 0, 7, false);
    a.write_lsa_now();
    reflood(&mut a, lsa_obj(7, &[(9, 1)], 1, false), 0);
    recompute(&mut a);
    assert_eq!(a.up_port(), Some(0));
    live_port(&mut a, 1, 2, false);
    assert_eq!(a.fwd().destinations().collect::<Vec<_>>(), [7], "no route to 2 yet");
    assert_eq!(a.up_port(), Some(1), "2 is below 7");
}

/// A member that hears a hello adopting it as up peer answers with its
/// own hello on that port, once: what it flooded before the child came
/// shows in the answer's digests, and the child pulls it.
#[test]
fn a_new_child_is_answered_with_a_hello() {
    let mut a = lowest_with_two_cross_ports();
    let hellos = |a: &mut Ipcp| -> Vec<usize> {
        let sent = tx_mgmt(&a.take_out()).into_iter();
        sent.filter_map(|(n1, _, b)| matches!(b, MgmtBody::Hello { .. }).then_some(n1)).collect()
    };
    hello_up(&mut a, 1, "net.c", (3, 1), DigestTable::default(), Time::ZERO);
    assert_eq!(hellos(&mut a), [1]);
    hello_up(&mut a, 1, "net.c", (3, 1), DigestTable::default(), Time::ZERO);
    assert!(hellos(&mut a).is_empty(), "already a child: no answer");
}

/// Run the deferred route recomputation, as the node's timer would.
fn recompute(i: &mut Ipcp) {
    i.run_deferred(Deferred::Routes, Time::ZERO);
}

/// Regression: a member whose LSA is *removed* must leave every
/// peer's route graph — through whichever path the tombstone (or a
/// local deletion) reaches the RIB. Before the watch-hook funnel,
/// only the wire apply paths maintained the graph, so a locally
/// deleted LSA lingered and kept routing traffic at a dead member.
#[test]
fn lsa_deletion_propagates_through_the_delta_hook() {
    let mut a = mk("net.a");
    a.bootstrap(1);
    // Line 1 - 2 - 3: own LSA written locally, peers' applied as if
    // flooded.
    a.rib.write_local(&Lsa::object_name(1), LSA_CLASS, Lsa { neighbors: vec![(2, 1)] }.encode());
    assert!(a.rib.apply_remote_silent(lsa_obj(2, &[(1, 1), (3, 1)], 1, false)));
    assert!(a.rib.apply_remote_silent(lsa_obj(3, &[(2, 1)], 1, false)));
    recompute(&mut a);
    assert_eq!(a.fwd().route(3), Some(&[2][..]));
    assert_eq!(a.routes.engine.lsa_count(), 3);

    // A tombstone arrives over the wire (delta response / re-flood).
    assert!(a.rib.apply_remote_silent(lsa_obj(3, &[], 2, true)));
    assert!(a.deferred_wanted(Deferred::Routes).is_some(), "the delta hook saw the deletion");
    recompute(&mut a);
    assert_eq!(a.fwd().route(3), None, "deleted LSA must not linger in the graph");
    assert_eq!(a.routes.engine.lsa_count(), 2);

    // The purely local deletion path (no wire apply involved).
    a.rib.delete_local(&Lsa::object_name(2));
    recompute(&mut a);
    assert_eq!(a.fwd().route(2), None);
    assert_eq!(a.routes.engine.lsa_count(), 1, "only our own LSA remains");
}

/// A live LSA whose value does not decode (truncated, or listing a
/// neighbor twice) must not be treated as a withdrawal: the engine
/// keeps the last good advertisement (one
/// corrupt or future-format update must not cause an outage). A
/// foreign-class object squatting under `/lsa/` is ignored entirely.
#[test]
fn undecodable_lsa_value_keeps_last_good_mirror_entry() {
    let mut a = mk("net.a");
    a.bootstrap(1);
    a.rib.write_local(&Lsa::object_name(1), LSA_CLASS, Lsa { neighbors: vec![(2, 1)] }.encode());
    assert!(a.rib.apply_remote_silent(lsa_obj(2, &[(1, 1)], 1, false)));
    recompute(&mut a);
    assert_eq!(a.fwd().route(2), Some(&[2][..]));
    // A newer version with a truncated (undecodable) value arrives.
    let mut bad = lsa_obj(2, &[], 2, false);
    bad.value = Bytes::from_static(b"\xff");
    assert!(a.rib.apply_remote_silent(bad));
    recompute(&mut a);
    assert_eq!(a.fwd().route(2), Some(&[2][..]), "last good LSA still routes");
    assert_eq!(a.routes.engine.lsa_count(), 2);
    // So does one that lists a neighbor twice.
    assert!(a.rib.apply_remote_silent(lsa_obj(2, &[(1, 1), (3, 1), (1, 5)], 3, false)));
    recompute(&mut a);
    assert_eq!(a.fwd().route(2), Some(&[2][..]), "still the last good LSA");
    assert_eq!(a.routes.engine.lsa_count(), 2);
    // A non-lsa-class object under the /lsa/ prefix never reaches
    // the engine.
    let mut alien = lsa_obj(9, &[(1, 1)], 1, false);
    alien.class = "dir".into();
    assert!(a.rib.apply_remote_silent(alien));
    recompute(&mut a);
    assert_eq!(a.routes.engine.lsa_count(), 2, "foreign class ignored by the engine");
}

/// Joiners with no usable proposal get nested sub-ranges carved out
/// of the sponsor's own block — disjoint, in-block, and halving —
/// instead of fragmenting singletons.
#[test]
fn carving_gives_unplanned_joiners_nested_aggregatable_blocks() {
    let mut sponsor = mk("net.s");
    sponsor.bootstrap(1);
    sponsor.set_block(64);
    for i in 0..3 {
        sponsor.add_n1(N1Kind::Phys { iface: i });
    }
    let mut grants = Vec::new();
    for (i, name) in ["net.a", "net.b", "net.c"].iter().enumerate() {
        enroll_req(&mut sponsor, i, name, NO_PROPOSAL, i as u32 + 1);
        let (r, a, b) = last_enroll_response(&mut sponsor);
        assert_eq!(r, 0);
        grants.push((a, b));
    }
    assert_eq!(grants, vec![(2, 33), (34, 49), (50, 57)]);
    for &(lo, hi) in &grants {
        assert!(1 < lo && lo <= hi && hi <= 64, "carves stay inside the sponsor's block");
    }
    for (i, &x) in grants.iter().enumerate() {
        for &y in &grants[i + 1..] {
            assert!(x.1 < y.0 || y.1 < x.0, "carved blocks stay disjoint");
        }
    }
}

/// A member that failed (losing all its state) and re-enrolls under
/// the same name gets its recorded address and block back instead
/// of colliding with its own stale records.
#[test]
fn failed_member_re_enrolls_with_its_old_grant() {
    let mut sponsor = mk("net.s");
    sponsor.bootstrap(1);
    sponsor.set_block(64);
    sponsor.add_n1(N1Kind::Phys { iface: 0 });
    enroll_req(&mut sponsor, 0, "net.x", NO_PROPOSAL, 1);
    let (_, first_addr, first_hi) = last_enroll_response(&mut sponsor);
    // The joiner came up (enrolled hello), then crashed and lost its
    // state entirely: its fresh incarnation proposes nothing.
    hello_from(&mut sponsor, 0, "net.x", first_addr, Time::ZERO);
    sponsor.take_out();
    enroll_req(&mut sponsor, 0, "net.x", NO_PROPOSAL, 2);
    let (r, again_addr, again_hi) = last_enroll_response(&mut sponsor);
    assert_eq!(r, 0);
    assert_eq!((again_addr, again_hi), (first_addr, first_hi), "identity reuse");
    let rec = decode_member(sponsor.rib.get("/members/net.x").unwrap().value).unwrap();
    assert_eq!(rec, (first_addr, first_hi), "one member record, unchanged");
}

/// A block whose top lies below its base is no grant, whichever way it
/// travels: the sponsor treats such a proposal as none (identity reuse,
/// then a carve), and the joiner refuses such a grant and keeps retrying.
#[test]
fn a_block_below_its_base_is_refused_both_ways() {
    let mut sponsor = mk("net.s");
    sponsor.bootstrap(1);
    sponsor.set_block(64);
    sponsor.add_n1(N1Kind::Phys { iface: 0 });
    enroll_req(&mut sponsor, 0, "net.x", (10, 9), 1);
    let (r, a, hi) = last_enroll_response(&mut sponsor);
    assert_eq!((r, a, hi), (0, 2, 33), "carved, as for no proposal");
    hello_from(&mut sponsor, 0, "net.x", 2, Time::ZERO);
    sponsor.take_out();
    enroll_req(&mut sponsor, 0, "net.x", (40, 39), 2);
    let (r, a, hi) = last_enroll_response(&mut sponsor);
    assert_eq!((r, a, hi), (0, 2, 33), "identity reuse");

    let mut j = mk("net.j");
    j.add_n1(N1Kind::Phys { iface: 0 });
    j.start_enroll(0, "", 0, 0, Time::ZERO);
    j.take_out();
    j.handle_enroll_response(5, 4, 0);
    assert!(!j.is_enrolled(), "a grant below its base is refused");
    j.on_timer(IpcpTimer::EnrollRetry, Time::from_millis(300));
    let asks = tx_mgmt(&j.take_out());
    assert!(asks.iter().any(|(_, _, b)| matches!(b, MgmtBody::EnrollRequest { .. })), "retried");
    j.handle_enroll_response(5, 5, 0);
    assert_eq!((j.is_enrolled(), j.block()), (true, (5, 5)));
}

/// A joiner whose enrollment path comes up twice before it is a member
/// (a flap mid-enrollment) runs one retry chain: the second start asks
/// again at once but arms no second timer, and the one chain retries
/// through the port it enrolls through last.
#[test]
fn two_enrollment_starts_arm_one_retry() {
    let mut j = mk("net.j");
    j.add_n1(N1Kind::Phys { iface: 0 });
    j.add_n1(N1Kind::Phys { iface: 1 });
    let retries = |out: &[IpcpOut]| {
        out.iter()
            .filter(|o| matches!(o, IpcpOut::Arm { timer: IpcpTimer::EnrollRetry, .. }))
            .count()
    };
    let asks = |out: &[IpcpOut]| -> Vec<usize> {
        let sent = tx_mgmt(out).into_iter();
        sent.filter_map(|(n1, _, b)| matches!(b, MgmtBody::EnrollRequest { .. }).then_some(n1))
            .collect()
    };
    j.start_enroll(0, "", 0, 0, Time::ZERO);
    j.start_enroll(1, "", 0, 0, Time::from_millis(100));
    let out = j.take_out();
    assert_eq!(asks(&out), [0, 1]);
    assert_eq!(retries(&out), 1, "one retry chain");
    j.on_timer(IpcpTimer::EnrollRetry, Time::from_millis(300));
    let out = j.take_out();
    assert_eq!((asks(&out), retries(&out)), (vec![1], 1));
}

/// A sponsor with a 2 s failure-GC grace that has admitted `net.x` over
/// its only port; returns it with the address it granted.
fn sponsor_of_x() -> (Ipcp, Addr) {
    let cfg = DifConfig::new("net").with_member_gc_grace_ms(2_000);
    let mut sponsor = Ipcp::new(0, cfg, AppName::new("net.s"));
    sponsor.bootstrap(1);
    sponsor.set_block(64);
    sponsor.add_n1(N1Kind::Phys { iface: 0 });
    enroll_req(&mut sponsor, 0, "net.x", NO_PROPOSAL, 1);
    let (_, addr, _) = last_enroll_response(&mut sponsor);
    (sponsor, addr)
}

/// Sponsor-side failure GC: a sponsored member that goes silent past
/// the grace has its member record and LSA tombstoned; any
/// sign of life within the grace cancels the purge.
#[test]
fn sponsor_purges_a_silent_sponsored_member_after_grace() {
    let (mut sponsor, addr) = sponsor_of_x();
    hello_from(&mut sponsor, 0, "net.x", addr, Time::from_millis(100));
    // The member also flooded an LSA before dying.
    assert!(sponsor.rib.apply_remote_silent(lsa_obj(addr, &[(1, 1)], 1, false)));
    // Silence: hellos expire the adjacency (3 misses × 500 ms),
    // arming the watch; the grace later runs out and the purge
    // fires.
    let mut purged_at = None;
    for ms in (500..=6_000).step_by(500) {
        sponsor.tick_hello(Time::from_millis(ms));
        sponsor.take_out();
        if sponsor.stats.members_purged > 0 {
            purged_at = Some(ms);
            break;
        }
    }
    let purged_at = purged_at.expect("the purge fired");
    assert!(purged_at >= 3_500, "expiry (~1.5 s) plus grace (2 s), got {purged_at} ms");
    assert!(sponsor.rib.get("/members/net.x").is_none());
    assert!(sponsor.rib.get(&Lsa::object_name(addr)).is_none());
    assert!(sponsor.rib.live_of_origin(addr).is_empty());

    // Same scenario, but the member hellos again inside the grace:
    // nothing is purged.
    let (mut sponsor2, addr2) = sponsor_of_x();
    assert_eq!(addr2, addr);
    hello_from(&mut sponsor2, 0, "net.x", addr, Time::from_millis(100));
    for ms in (500..=2_500).step_by(500) {
        sponsor2.tick_hello(Time::from_millis(ms));
    }
    // Alive after all: the returning hellos cancel the watch and
    // keep the adjacency from re-expiring.
    for ms in (3_000..=8_000).step_by(500) {
        hello_from(&mut sponsor2, 0, "net.x", addr, Time::from_millis(ms));
        sponsor2.tick_hello(Time::from_millis(ms));
        sponsor2.take_out();
    }
    assert_eq!(sponsor2.stats.members_purged, 0, "the flap was not a failure");
    assert!(sponsor2.rib.get("/members/net.x").is_some());
}

/// Run `s`'s hello cadence from `from_ms` to `to_ms`, every 500 ms.
fn tick_until(s: &mut Ipcp, from_ms: u64, to_ms: u64) {
    for ms in (from_ms..=to_ms).step_by(500) {
        s.tick_hello(Time::from_millis(ms));
        s.take_out();
    }
}

/// A joiner admitted and then never heard from — its grant was lost with
/// it — is watched like any member whose record the sponsor wrote: once
/// its adjacency expires and the grace runs out, its record is purged.
#[test]
fn an_admitted_joiner_never_heard_from_is_purged_after_grace() {
    let (mut sponsor, _) = sponsor_of_x();
    // The joiner's hello cadence before it hears the grant, then silence.
    hello_from(&mut sponsor, 0, "net.x", 0, Time::from_millis(100));
    tick_until(&mut sponsor, 500, 3_500);
    assert_eq!(sponsor.stats.members_purged, 0, "expiry (~1.5 s) plus grace (2 s)");
    tick_until(&mut sponsor, 4_000, 6_000);
    assert_eq!(sponsor.stats.members_purged, 1);
    assert!(sponsor.rib.get("/members/net.x").is_none());
}

/// Failure-GC duty is a RIB fact, not a map the sponsor's process holds:
/// a sponsor that leaves and rejoins, or crashes and re-enrolls, under
/// its old address finds the records it wrote at admission in the RIB it
/// syncs, so a member it admitted that then falls silent is still
/// purged after the grace.
#[test]
fn a_sponsor_that_rejoins_purges_a_silent_member_it_admitted() {
    for leaves in [true, false] {
        let cfg = DifConfig::new("net").with_member_gc_grace_ms(2_000);
        let mut sponsor = Ipcp::new(0, cfg, AppName::new("net.s"));
        // Port 0 leads to the sponsor's own sponsor, port 1 to net.x.
        let ports = |s: &mut Ipcp| {
            for iface in 0..2 {
                s.add_n1(N1Kind::Phys { iface });
            }
        };
        ports(&mut sponsor);
        sponsor.start_enroll(0, "", 2, 50, Time::ZERO);
        sponsor.handle_enroll_response(2, 50, 0);
        enroll_req(&mut sponsor, 1, "net.x", NO_PROPOSAL, 1);
        let (_, addr, _) = last_enroll_response(&mut sponsor);
        hello_from(&mut sponsor, 1, "net.x", addr, Time::from_millis(100));
        if leaves {
            sponsor.announce_leave(Time::from_secs(1));
        }
        // The sponsor's fresh process re-enrolls under its old grant,
        // learning the DIF's RIB as any joiner does.
        let mut fresh = sponsor.respawned();
        ports(&mut fresh);
        for o in sponsor.rib.snapshot() {
            fresh.apply_and_reflood(&o, 0);
        }
        fresh.handle_enroll_response(2, 50, 0);
        hello_from(&mut fresh, 1, "net.x", addr, Time::from_secs(2));
        // net.x falls silent: its adjacency expires at 4 s, the grace
        // runs out after 6 s.
        tick_until(&mut fresh, 2_500, 6_000);
        assert_eq!(fresh.stats.members_purged, 0, "leaves {leaves}: not past the grace yet");
        tick_until(&mut fresh, 6_500, 7_000);
        assert_eq!(fresh.stats.members_purged, 1, "leaves {leaves}: the duty survived");
        assert!(fresh.rib.get("/members/net.x").is_none());
        assert!(fresh.rib.live_of_origin(addr).is_empty());
    }
}

/// A crash-restart keeps the purges its sponsor made: they happened to
/// the DIF, so the DIF-wide total must not fall when that sponsor later
/// crashes. Every other counter starts afresh.
#[test]
fn a_respawned_sponsor_keeps_its_purges() {
    let (mut sponsor, addr) = sponsor_of_x();
    hello_from(&mut sponsor, 0, "net.x", addr, Time::from_millis(100));
    for ms in (500..=6_000).step_by(500) {
        sponsor.tick_hello(Time::from_millis(ms));
    }
    assert_eq!(sponsor.stats.members_purged, 1, "the purge fired");
    let fresh = sponsor.respawned();
    assert!(!fresh.is_enrolled());
    assert_eq!(fresh.stats.members_purged, 1, "the respawn dropped the purge");
    assert_eq!(fresh.stats.hello_tx, 0);
}

/// A wrong purge (the member was alive behind a partition) is
/// healed in one round: the owner rewrites its objects at a higher
/// version than the tombstone.
#[test]
fn wrong_purge_is_reasserted_by_the_owner() {
    let mut a = mk("net.a");
    a.bootstrap(1);
    a.dir_register(&AppName::new("web"));
    a.take_out();
    for name in ["/members/net.a", "/dir/web"] {
        let cur = a.rib.get(name).expect("live before the purge");
        let tomb = RibObject {
            name: name.into(),
            class: cur.class.to_string(),
            value: Bytes::new(),
            version: cur.version + 1,
            origin: 9,
            deleted: true,
        };
        reflood(&mut a, tomb, 0);
    }
    assert_eq!(a.stats.reasserts, 2);
    let rec = a.rib.get("/members/net.a").expect("reasserted");
    assert_eq!(decode_addr(rec.value), Some(1));
    assert_eq!(a.dir_lookup(&AppName::new("web")), Some(1));
    // An unregistered app's tombstone is accepted, not fought.
    a.dir_unregister(&AppName::new("web"));
    assert_eq!(a.dir_lookup(&AppName::new("web")), None);
}

/// Graceful leave tombstones everything the member owns and stops
/// it from originating new state while it lingers.
#[test]
fn announce_leave_tombstones_every_owned_object() {
    let mut a = mk("net.a");
    a.bootstrap(1);
    a.dir_register(&AppName::new("web"));
    a.add_n1(N1Kind::Phys { iface: 0 });
    a.rib.write_local(&Lsa::object_name(1), LSA_CLASS, Lsa { neighbors: vec![(2, 1)] }.encode());
    a.take_out();
    a.announce_leave(Time::from_secs(1));
    assert!(a.is_departed());
    assert!(a.rib.get("/members/net.a").is_none());
    assert!(a.rib.get("/dir/web").is_none());
    assert!(a.rib.get(&Lsa::object_name(1)).is_none());
    assert!(a.rib.live_of_origin(1).is_empty());
    // Neither an LSA refresh nor a reassert resurrects it.
    a.write_lsa_now();
    assert!(a.rib.get(&Lsa::object_name(1)).is_none());
    let cur_v = a.rib.iter_all().find(|o| o.name == "/members/net.a").unwrap().version;
    let tomb = RibObject {
        name: "/members/net.a".into(),
        class: "member".into(),
        value: Bytes::new(),
        version: cur_v + 1,
        origin: 9,
        deleted: true,
    };
    reflood(&mut a, tomb, 0);
    assert_eq!(a.stats.reasserts, 0, "a departed member does not reassert");
    assert!(a.rib.get("/members/net.a").is_none());
}

fn mk_scoped(name: &str) -> Ipcp {
    Ipcp::new(0, DifConfig::new("net").with_scoped_dir(true), AppName::new(name))
}

/// Decode every management body this process transmitted, with the
/// (N-1) port it left on and the PDU's destination address.
fn tx_mgmt(out: &[IpcpOut]) -> Vec<(usize, Addr, MgmtBody)> {
    out.iter()
        .filter_map(|o| match o {
            IpcpOut::TxPhys { n1, frame, .. } => Some((*n1, frame.clone())),
            _ => None,
        })
        .filter_map(|(n1, frame)| {
            let Pdu::Mgmt(m) = Pdu::decode(&frame).ok()? else { return None };
            let cdap = CdapMsg::decode(&m.payload).ok()?;
            Some((n1, m.dest_addr, MgmtBody::from_cdap(&cdap).ok()?))
        })
        .collect()
}

#[test]
fn scoped_dir_leaves_the_hello_digest_surface() {
    let mut a = mk_scoped("net.a");
    a.bootstrap(1);
    a.dir_register(&AppName::new("web"));
    // The owner still resolves its own registration...
    assert_eq!(a.dir_lookup(&AppName::new("web")), Some(1));
    // ...but advertises nothing about /dir to its neighbors.
    let table = a.rib.digest_table();
    assert!(table.entries().iter().all(|e| e.0 != "/dir"));
    assert!(a.rib.snapshot().iter().all(|o| !o.view().name.starts_with("/dir/")));
}

#[test]
fn scoped_owner_answers_lookup_requests_authoritatively() {
    let mut owner = mk_scoped("net.o");
    owner.bootstrap(5);
    live_port(&mut owner, 0, 9, true); // the requester is a child
    owner.dir_register(&AppName::new("web"));
    owner.take_out();
    let req = MgmtBody::DirLookupRequest { name: "/dir/web".into(), origin: 9 }.encode(0, 0);
    let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: 9, ttl: 1, payload: req });
    owner.on_frame(0, pdu.encode(), Time::ZERO);
    let out = owner.take_out();
    let answers: Vec<_> = tx_mgmt(&out)
        .into_iter()
        .filter_map(|(_, dest, b)| match b {
            MgmtBody::DirLookupResponse { name, addr, version } => {
                Some((dest, name, addr, version))
            }
            _ => None,
        })
        .collect();
    assert_eq!(answers, vec![(9, "/dir/web".to_string(), 5, 1)]);
    assert_eq!(owner.stats.dir_lookups_answered, 1);
}

/// A lookup leaves by the tree ports other than the one it came in on,
/// with one tree edge less of budget; one that arrives on a port this
/// member does not count as a tree port, or with its budget spent, goes
/// nowhere: it crosses only edges both ends count, and a bounded number.
#[test]
fn scoped_member_forwards_lookups_down_the_tree_only() {
    let mut relay = mk_scoped("net.r");
    relay.bootstrap(2);
    live_port(&mut relay, 0, 10, true); // ingress
    live_port(&mut relay, 1, 11, true); // the only forwarding target
    live_port(&mut relay, 2, 12, false); // cross edge: lookups never ride it
    let forwards = |relay: &mut Ipcp, n1: usize, ttl: u8| -> Vec<(usize, u8)> {
        let req = MgmtBody::DirLookupRequest { name: "/dir/web".into(), origin: 9 }.encode(0, 0);
        let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: 10, ttl, payload: req });
        relay.on_frame(n1, pdu.encode(), Time::ZERO);
        let out = relay.take_out();
        let sent = out.iter().filter_map(|o| match o {
            IpcpOut::TxPhys { n1, frame, .. } => Some((*n1, frame)),
            _ => None,
        });
        sent.filter_map(|(n1, frame)| {
            let Pdu::Mgmt(m) = Pdu::decode(frame).ok()? else { return None };
            let body = MgmtBody::from_cdap(&CdapMsg::decode(&m.payload).ok()?).ok()?;
            matches!(body, MgmtBody::DirLookupRequest { .. }).then_some((n1, m.ttl))
        })
        .collect()
    };
    assert_eq!(forwards(&mut relay, 0, 5), [(1, 4)], "tree-only, ingress excluded");
    assert!(forwards(&mut relay, 2, 5).is_empty(), "not accepted off the tree");
    assert!(forwards(&mut relay, 0, 1).is_empty(), "the last edge of its budget");
    assert_eq!(relay.stats.ttl_drops, 1);
}

#[test]
fn scoped_lookup_resolves_waiting_allocation_and_caches() {
    let mut a = mk_scoped("net.a");
    a.bootstrap(1);
    live_port(&mut a, 0, 7, true); // owner is a direct tree neighbor
                                   // The owner's LSA is known DIF-wide (liveness guard).
    assert!(a.rib.apply_remote_silent(owner_lsa(7, 1, false)));
    a.alloc_flow(10, AppName::new("c"), AppName::new("web"), QosSpec::reliable(), Time::ZERO);
    let out = a.take_out();
    assert!(
        !out.iter().any(|o| matches!(o, IpcpOut::FlowGone { failed: Some(_), .. })),
        "the allocation parks behind the lookup instead of failing"
    );
    assert!(tx_mgmt(&out).iter().any(|(_, _, b)| matches!(b, MgmtBody::DirLookupRequest { .. })));
    assert_eq!((a.stats.dir_cache_misses, a.stats.dir_lookups_sent), (1, 1));
    // The owner's answer arrives, addressed to us.
    let resp =
        MgmtBody::DirLookupResponse { name: "/dir/web".into(), addr: 7, version: 1 }.encode(0, 0);
    let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 1, src_addr: 7, ttl: 4, payload: resp });
    a.on_frame(0, pdu.encode(), Time::ZERO);
    let out = a.take_out();
    let reqs: Vec<_> = tx_mgmt(&out)
        .into_iter()
        .filter_map(|(_, dest, b)| match b {
            MgmtBody::FlowRequest { dst_app, .. } => Some((dest, dst_app.key())),
            _ => None,
        })
        .collect();
    assert_eq!(reqs, vec![(7, "web".to_string())], "the parked allocation continued");
    // A second allocation hits the cache — no new lookup.
    a.alloc_flow(11, AppName::new("c"), AppName::new("web"), QosSpec::reliable(), Time::ZERO);
    assert_eq!((a.stats.dir_cache_hits, a.stats.dir_lookups_sent), (1, 1));
    assert!(a.rib.get("/dir/web").is_none(), "cached, never stored in the RIB");
}

#[test]
fn scoped_non_owner_never_stores_foreign_dir_objects() {
    let mut a = mk_scoped("net.a");
    a.bootstrap(1);
    reflood(
        &mut a,
        RibObject {
            name: "/dir/web".into(),
            class: "dir".into(),
            value: encode_addr(7),
            version: 1,
            origin: 7,
            deleted: false,
        },
        0,
    );
    assert!(a.rib.get("/dir/web").is_none());
    assert!(a.rib.iter_all().all(|o| !o.name.starts_with("/dir/")));
}

#[test]
fn dir_tombstone_invalidates_cache_and_blocks_stale_answers() {
    let mut a = mk_scoped("net.a");
    a.bootstrap(1);
    live_port(&mut a, 0, 7, true);
    live_port(&mut a, 1, 8, true);
    assert!(a.rib.apply_remote_silent(owner_lsa(7, 1, false)));
    // Seed the cache through a lookup answer.
    a.handle_dir_lookup_response("/dir/web".into(), 7, 1);
    a.alloc_flow(10, AppName::new("c"), AppName::new("web"), QosSpec::reliable(), Time::ZERO);
    assert_eq!(a.stats.dir_cache_hits, 1);
    a.take_out();
    // The owner unregisters: its tombstone floods in on port 0.
    reflood(
        &mut a,
        RibObject {
            name: "/dir/web".into(),
            class: "dir".into(),
            value: Bytes::new(),
            version: 2,
            origin: 7,
            deleted: true,
        },
        0,
    );
    assert_eq!(a.stats.dir_invalidations, 1);
    a.run_deferred(Deferred::Flood, Time::ZERO);
    let out = a.take_out();
    let fwd: Vec<usize> = tx_mgmt(&out)
        .into_iter()
        .filter_map(|(n1, _, b)| match b {
            MgmtBody::RibDeltaResponse { objects, .. }
                if objects.iter().any(|o| o.view().name == "/dir/web" && o.view().deleted) =>
            {
                Some(n1)
            }
            _ => None,
        })
        .collect();
    assert_eq!(fwd, vec![1], "tombstone forwarded down the tree, ingress excluded");
    // A stale in-flight answer (version 1 < tombstone 2) is refused…
    a.handle_dir_lookup_response("/dir/web".into(), 7, 1);
    a.alloc_flow(11, AppName::new("c"), AppName::new("web"), QosSpec::reliable(), Time::ZERO);
    assert_eq!(a.stats.dir_cache_hits, 1, "no stale hit");
    // …while the re-registered entry (version 3) is accepted again.
    a.handle_dir_lookup_response("/dir/web".into(), 7, 3);
    a.alloc_flow(12, AppName::new("c"), AppName::new("web"), QosSpec::reliable(), Time::ZERO);
    assert_eq!(a.stats.dir_cache_hits, 2);
}

#[test]
fn lsa_tombstone_drops_cached_answers_for_departed_owner() {
    let mut a = mk_scoped("net.a");
    a.bootstrap(1);
    assert!(a.rib.apply_remote_silent(owner_lsa(7, 1, false)));
    a.handle_dir_lookup_response("/dir/web".into(), 7, 1);
    a.handle_dir_lookup_response("/dir/ssh".into(), 7, 1);
    a.handle_dir_lookup_response("/dir/ftp".into(), 8, 1);
    // /dir/ftp points elsewhere and needs its own liveness record.
    assert_eq!(a.directory.cache.len(), 2, "owner 8 has no LSA: not cached");
    assert!(a.rib.apply_remote_silent(owner_lsa(8, 1, false)));
    a.handle_dir_lookup_response("/dir/ftp".into(), 8, 1);
    assert_eq!(a.directory.cache.len(), 3);
    // Member 7 departs: its LSA tombstone arrives over the wire.
    reflood(&mut a, owner_lsa(7, 2, true), 0);
    assert_eq!(a.stats.dir_invalidations, 2, "both answers pointing at 7 dropped");
    assert_eq!(a.directory.cache.len(), 1, "the unrelated answer survives");
    // A late answer from the departed owner is refused outright.
    a.handle_dir_lookup_response("/dir/web".into(), 7, 5);
    assert_eq!(a.directory.cache.len(), 1);
}

/// An allocation parked behind a lookup nobody answers ends at its one
/// deadline, 1 s after it was asked for. The lookup is asked once — one
/// request out each tree port — and never resent, however many
/// hello ticks pass: the deadline is its retry. It fails the allocation
/// and takes the lookup along with its last waiter.
#[test]
fn the_deadline_fails_a_waiting_allocation() {
    let ms = Time::from_millis;
    let mut a = mk_scoped("net.a");
    a.bootstrap(1);
    live_port(&mut a, 0, 2, true);
    live_port(&mut a, 1, 3, true);
    live_port(&mut a, 2, 4, false); // cross edge: lookups never ride it
    let lookups = |out: &[IpcpOut]| -> Vec<usize> {
        let asks = tx_mgmt(out).into_iter();
        asks.filter_map(|(n1, _, b)| matches!(b, MgmtBody::DirLookupRequest { .. }).then_some(n1))
            .collect()
    };
    a.alloc_flow(10, AppName::new("c"), AppName::new("ghost"), QosSpec::reliable(), Time::ZERO);
    let out = a.take_out();
    assert_eq!(lookups(&out), [0, 1], "one request per tree port");
    let armed = out.iter().find_map(|o| match *o {
        IpcpOut::Arm { at, timer: IpcpTimer::Alloc { port: 10 } } => Some(at),
        _ => None,
    });
    assert_eq!(armed, Some(ms(1000)));
    for tick in 1..=16 {
        a.tick_hello(ms(tick * 50));
        let out = a.take_out();
        assert!(lookups(&out).is_empty(), "resent at tick {tick}");
        assert!(!out.iter().any(|o| matches!(o, IpcpOut::FlowGone { .. })), "failed early");
    }
    assert_eq!(a.stats.dir_lookups_sent, 1, "one lookup");
    a.on_timer(IpcpTimer::Alloc { port: 10 }, ms(1000));
    let out = a.take_out();
    let [IpcpOut::FlowGone { port: 10, failed }] = &out[..] else { panic!("{out:?}") };
    assert_eq!(*failed, Some("allocation timed out"));
    assert!(a.directory.pending.is_empty(), "the lookup went with its last waiter");
}

/// Allocations that keep joining a lookup cannot keep a lost request
/// pending for ever: once the allocation that asked is gone, the next
/// allocation to the name asks again, while one joining in time does
/// not.
#[test]
fn a_lookup_is_asked_again_once_its_asker_is_gone() {
    let ms = Time::from_millis;
    let mut a = mk_scoped("net.a");
    a.bootstrap(1);
    live_port(&mut a, 0, 2, true);
    let alloc = |a: &mut Ipcp, port, at| {
        a.alloc_flow(port, AppName::new("c"), AppName::new("ghost"), QosSpec::reliable(), at);
    };
    alloc(&mut a, 10, ms(0));
    alloc(&mut a, 11, ms(500));
    assert_eq!(a.stats.dir_lookups_sent, 1, "the second joins the first");
    a.on_timer(IpcpTimer::Alloc { port: 10 }, ms(1000));
    alloc(&mut a, 12, ms(1200));
    assert_eq!(a.stats.dir_lookups_sent, 2, "the asker is gone: asked again");
    alloc(&mut a, 13, ms(1300));
    assert_eq!(a.stats.dir_lookups_sent, 2);
}

/// An allocation parked behind a directory lookup is released (its
/// application closed it, or its deadline ran out): the lookup goes with
/// its last waiter, and the owner's late answer still caches but resumes
/// nothing — no flow request leaves for a port the node has dropped, so
/// neither end keeps a flow nobody owns.
#[test]
fn a_port_released_while_its_lookup_is_pending_never_resumes() {
    let mut a = mk_scoped("net.a");
    a.bootstrap(1);
    live_port(&mut a, 0, 7, true);
    assert!(a.rib.apply_remote_silent(owner_lsa(7, 1, false)));
    a.alloc_flow(10, AppName::new("c"), AppName::new("web"), QosSpec::reliable(), Time::ZERO);
    a.take_out();
    a.dealloc_port(10);
    assert!(a.take_out().is_empty(), "nothing to tell a peer");
    assert!(a.directory.pending.is_empty(), "no waiter, no lookup");
    a.handle_dir_lookup_response("/dir/web".into(), 7, 1);
    let out = a.take_out();
    let requests = tx_mgmt(&out)
        .into_iter()
        .filter(|(_, _, b)| matches!(b, MgmtBody::FlowRequest { .. }))
        .count();
    assert_eq!(requests, 0, "the released port's allocation resumed");
    let sdu = Bytes::from_static(b"sdu");
    assert_eq!(a.write_port(10, sdu, Time::ZERO, None), Err("no such flow"));
    assert_eq!(a.dir_cache_entries(), vec![("/dir/web".to_string(), 7, 1)]);
    assert_eq!(a.stats.dir_lookups_sent, 1);
}

#[test]
fn dir_cache_evicts_least_recently_used_beyond_capacity() {
    let mut a = mk_scoped("net.a");
    a.bootstrap(1);
    for owner in [7u64, 8, 9] {
        assert!(a.rib.apply_remote_silent(owner_lsa(owner, 1, false)));
    }
    a.handle_dir_lookup_response("/dir/one".into(), 7, 1);
    a.handle_dir_lookup_response("/dir/two".into(), 8, 1);
    // 126 more answers fill the cache to its capacity of 128.
    for k in 0..126 {
        a.handle_dir_lookup_response(format!("/dir/filler{k}"), 8, 1);
    }
    assert_eq!(a.directory.cache.len(), 128);
    // Touch /dir/one so /dir/two becomes the LRU victim.
    assert_eq!(a.resolve_dir_local(&AppName::new("one")), Some(7));
    a.handle_dir_lookup_response("/dir/three".into(), 9, 1);
    assert_eq!(a.directory.cache.len(), 128);
    assert!(a.directory.cache.contains_key("/dir/one"));
    assert!(a.directory.cache.contains_key("/dir/three"));
    assert!(!a.directory.cache.contains_key("/dir/two"), "LRU victim evicted");
}

/// A previous incarnation's departure tombstone — same name, same
/// origin address — arriving after the member rejoined is fought
/// like any other wrongful clobber. Without this, a leave-rejoin
/// under the old address can leave the rejoiner's LSA tombstoned
/// DIF-wide: nothing re-marks it dirty (the neighbor set still
/// matches `advertised`), so the member stays unroutable until its
/// next adjacency change.
#[test]
fn stale_incarnations_own_origin_tombstone_is_reasserted() {
    let mut a = mk("net.a");
    a.bootstrap(1);
    live_port(&mut a, 0, 2, false);
    a.write_lsa_now();
    a.take_out();
    let cur = a.rib.get(&Lsa::object_name(1)).expect("own LSA live");
    let tomb = RibObject {
        name: Lsa::object_name(1),
        class: cur.class.to_string(),
        value: Bytes::new(),
        version: cur.version + 1,
        origin: 1, // authored by our own previous incarnation
        deleted: true,
    };
    reflood(&mut a, tomb, 0);
    assert_eq!(a.stats.reasserts, 1, "own-origin clobber must be fought");
    let healed = a.rib.get(&Lsa::object_name(1)).expect("LSA reasserted");
    assert_eq!(Lsa::decode(healed.value).unwrap().neighbors, vec![(2, 1)]);
}
