//! Enrollment convergence when the sponsor link loses management PDUs.
//!
//! Management traffic over a shim rides raw frames — no EFCP — so a lost
//! `EnrollResponse` must be repaired by the joiner's enrollment-retry
//! timer (`IpcpTimer::EnrollRetry`), and the retried requests must not
//! leak `Pending::Enroll` entries once the joiner finally gets in.

use rina::dif::DifConfig;
use rina::invariants;
use rina::ipcp::{Deferred, Ipcp, IpcpOut, IpcpTimer, N1Kind};
use rina::msg::MgmtBody;
use rina::naming::AppName;
use rina::prelude::*;
use rina::scenario::Topology;
use rina_sim::LossModel;
use rina_wire::{CdapMsg, Pdu};

fn tx_frames(i: &mut Ipcp) -> Vec<Bytes> {
    i.take_out()
        .into_iter()
        .filter_map(|o| match o {
            IpcpOut::TxPhys { frame, .. } => Some(frame),
            _ => None,
        })
        .collect()
}

/// Deterministic unit-level reproduction: the very first
/// `EnrollResponse` is dropped on the floor; the retry converges and the
/// `Pending::Enroll` entry of the lost round is garbage-collected.
#[test]
fn dropped_first_enroll_response_converges_without_leaking_pending() {
    let t = Time::ZERO;
    let mut sponsor = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.s"));
    sponsor.bootstrap(1);
    sponsor.set_block(8);
    sponsor.add_n1(N1Kind::Phys { iface: 0 });
    let mut joiner = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.j"));
    joiner.add_n1(N1Kind::Phys { iface: 0 });

    joiner.start_enroll(0, "", 2, 4, t);
    for f in tx_frames(&mut joiner) {
        sponsor.on_frame(0, f, t);
    }
    // The sponsor answered — drop everything it sent (lossy link).
    let dropped = tx_frames(&mut sponsor);
    assert!(!dropped.is_empty(), "the sponsor did respond");
    assert!(!joiner.is_enrolled());
    assert_eq!(joiner.pending_enrolls(), 1, "one request in flight");

    // The retry timer fires; this time the link delivers.
    joiner.on_timer(IpcpTimer::EnrollRetry, t);
    assert_eq!(joiner.pending_enrolls(), 2, "retry adds a second in-flight request");
    for f in tx_frames(&mut joiner) {
        sponsor.on_frame(0, f, t);
    }
    for f in tx_frames(&mut sponsor) {
        joiner.on_frame(0, f, t);
    }
    assert!(joiner.is_enrolled(), "retry converged");
    assert_eq!(joiner.addr, 2, "the sponsor re-granted the same address");
    assert_eq!(joiner.block(), (2, 4), "and the same block");
    assert_eq!(
        joiner.pending_enrolls(),
        0,
        "success garbage-collects every outstanding Pending::Enroll"
    );
}

/// The management body a link-local frame carries.
fn body_of(frame: &Bytes) -> MgmtBody {
    let Ok(Pdu::Mgmt(m)) = Pdu::decode(frame) else { panic!("not a management PDU") };
    MgmtBody::from_cdap(&CdapMsg::decode(&m.payload).unwrap()).unwrap()
}

/// Hand everything each side sent to the other, flushing flood queues
/// as the node's timer would, until both fall quiet.
fn exchange(a: &mut Ipcp, b: &mut Ipcp, t: Time) {
    loop {
        for i in [&mut *a, &mut *b] {
            i.on_timer(IpcpTimer::Deferred(Deferred::Flood), t);
        }
        let (to_b, to_a) = (tx_frames(a), tx_frames(b));
        if to_b.is_empty() && to_a.is_empty() {
            return;
        }
        for f in to_b {
            b.on_frame(0, f, t);
        }
        for f in to_a {
            a.on_frame(0, f, t);
        }
    }
}

/// The sponsor initializes a joiner's RIB before it grants the address:
/// the frames answering one enrollment request are the sync set's
/// `RibDeltaResponse` batches, then the `EnrollResponse`, on one port.
/// If the batches are lost and the response arrives, the joiner is a
/// member with an empty RIB, and the same hello-driven anti-entropy that
/// repairs any lost batch brings its digest table level with the
/// sponsor's within two hello exchanges.
#[test]
fn a_lost_sync_stream_is_repaired_by_the_hello_exchange() {
    let mut t = Time::ZERO;
    let mut sponsor = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.s"));
    sponsor.bootstrap(1);
    sponsor.set_block(8);
    sponsor.add_n1(N1Kind::Phys { iface: 0 });
    for k in 0..60 {
        sponsor.dir_register(&AppName::new(&format!("app-{k:02}")));
    }
    sponsor.take_out();
    let mut joiner = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.j"));
    joiner.add_n1(N1Kind::Phys { iface: 0 });

    joiner.start_enroll(0, "", 2, 4, t);
    for f in tx_frames(&mut joiner) {
        sponsor.on_frame(0, f, t);
    }
    let mut answer = tx_frames(&mut sponsor);
    let response = answer.pop().expect("the sponsor answered");
    assert!(matches!(body_of(&response), MgmtBody::EnrollResponse { addr: 2, .. }));
    assert!(answer.len() >= 2, "a 60-registration RIB streams as several batches");
    for f in &answer {
        let body = body_of(f);
        assert!(matches!(body, MgmtBody::RibDeltaResponse { .. }), "not a batch: {body:?}");
    }

    // Only the response arrives.
    joiner.on_frame(0, response, t);
    assert!(joiner.is_enrolled());
    assert_ne!(joiner.rib.digest_table(), sponsor.rib.digest_table());

    let hello_period = DifConfig::new("net").hello_period;
    for _ in 0..2 {
        t += hello_period;
        sponsor.tick_hello(t);
        joiner.tick_hello(t);
        exchange(&mut sponsor, &mut joiner, t);
    }
    assert_eq!(joiner.rib.digest_table(), sponsor.rib.digest_table());
}

/// Over links with a 2,304-byte MTU — the wireless one — a 32-member
/// line DIF assembles and no frame is refused. While a RIB of up to 64
/// objects rode inline in the `EnrollResponse`, this DIF stopped at 30
/// members: the link refused every later response. The cap counted
/// objects, not bytes, so where the wall stood moved with the length of
/// the names the objects carry: longer node names, fewer members. The
/// links here are lossless, so the test is about size alone.
#[test]
fn a_line_over_a_wireless_mtu_assembles_without_refusing_a_frame() {
    let mut b = NetBuilder::new(11);
    let nodes: Vec<NodeH> = (0..32).map(|i| b.node(&format!("mobile-node-{i:02}"))).collect();
    let link = LinkCfg::wired().with_mtu(2304);
    let links: Vec<LinkH> = nodes.windows(2).map(|w| b.link(w[0], w[1], link.clone())).collect();
    let dif = b.dif(DifConfig::new("wireless-access"));
    for &n in &nodes {
        b.join(dif, n);
    }
    for (w, &l) in nodes.windows(2).zip(&links) {
        b.adjacency_over_link(dif, w[0], w[1], l);
    }
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(20), Dur::ZERO);
    for &n in &nodes {
        assert_eq!(net.node(n).tx_refused, 0, "{} refused frames", net.node(n).name);
    }
}

/// A DIF whose enrollment sync sets stream as many batched subtree
/// deltas (33 members + their LSAs ≈ 66 RIB objects), over links that
/// lose 10% of frames: dropped stream batches must be repaired by the
/// hello digest-table anti-entropy, so every member eventually holds the
/// whole membership and full routes.
#[test]
fn lossy_streamed_snapshots_repaired_by_digest_anti_entropy() {
    let n = 33;
    let mut b = NetBuilder::new(5);
    let lossy = LinkCfg::wired().with_loss(LossModel::Bernoulli(0.1));
    let fab = Topology::line(n).with_link(lossy).materialize(&mut b);
    let ipcps = fab.member_ipcps(&b);
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(180), Dur::ZERO);
    // Anti-entropy runs on the hello cadence; give it room, then demand
    // a healthy DIF: full membership and full reachability at every
    // member.
    let left = invariants::settle(&mut net, &ipcps, 120);
    assert!(left.is_empty(), "not healthy despite anti-entropy: {left:?}");
}

/// The tentpole scale case: a 100-member scale-free DIF whose every
/// link loses 10% of frames. Enrollment syncs stream as batched subtree
/// deltas, floods skip every port off the spanning tree (DESIGN.md §6) —
/// so convergence *depends* on the digest-table anti-entropy localizing
/// each loss to a subtree and pulling exactly the missing objects.
/// Demanded outcome: every member holds the full membership and can
/// route to all 99 others.
#[test]
fn hundred_member_scale_free_converges_via_subtree_deltas_under_loss() {
    let n = 100;
    let mut b = NetBuilder::new(41);
    let lossy = LinkCfg::wired().with_loss(LossModel::Bernoulli(0.1));
    let fab = Topology::barabasi_albert(n, 2, 41).with_link(lossy).materialize(&mut b);
    let ipcps = fab.member_ipcps(&b);
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(300), Dur::ZERO);
    let left = invariants::settle(&mut net, &ipcps, 120);
    assert!(left.is_empty(), "not healthy despite anti-entropy: {left:?}");
    let delta_requests: u64 = ipcps.iter().map(|&h| net.ipcp(h).stats.delta_requests).sum();
    assert!(delta_requests > 0, "losses at 10% must have exercised the delta machinery");
}

/// A lost flow response leaves the responder's end of the lower flow
/// with no requester: the planned end asks again on a new flow. The
/// responder binds that flow to the port the first one had, releasing
/// the first, so a 2 % lossy assembly ends with every port live.
#[test]
fn a_lossy_assembly_leaves_every_port_live() {
    let mut b = NetBuilder::new(7);
    let lossy = LinkCfg::wired().with_loss(LossModel::Bernoulli(0.02));
    let fab = Topology::barabasi_albert(32, 2, 7).with_link(lossy).materialize(&mut b);
    let ipcps = fab.member_ipcps(&b);
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(120), Dur::ZERO);
    net.run_for(Dur::from_secs(5));
    for &h in &ipcps {
        let ip = net.ipcp(h);
        let ports = ip.n1_ports().iter().enumerate();
        let dead: Vec<usize> = ports.filter(|(_, p)| !p.live()).map(|(i, _)| i).collect();
        assert!(dead.is_empty(), "{} holds dead ports {dead:?}", ip.name);
    }
}

/// Full-stack version: a line whose links lose 20% of frames. The
/// adjacency and enrollment retry timers must still assemble the DIF, healthy, and no
/// member may be left holding `Pending::Enroll` state.
#[test]
fn lossy_sponsor_links_still_assemble_via_retry_timers() {
    let mut b = NetBuilder::new(77);
    let lossy = LinkCfg::wired().with_loss(LossModel::Bernoulli(0.2));
    let fab = Topology::line(4).with_link(lossy).materialize(&mut b);
    let ipcps = fab.member_ipcps(&b);
    let mut net = b.build();
    // Generous limit: each hop may need several retry rounds.
    net.run_until_assembled(Dur::from_secs(120), Dur::from_millis(300));
    // Every member enrolled, addresses unique under retries and re-grants.
    let left = invariants::settle(&mut net, &ipcps, 120);
    assert!(left.is_empty(), "not healthy after lossy enrollment: {left:?}");
    for &h in &ipcps {
        let ip = net.ipcp(h);
        assert_eq!(ip.pending_enrolls(), 0, "{} leaked Pending::Enroll entries", ip.name);
    }
}
