//! Integration tests across the whole DIF stack: the scenarios of the
//! paper's Figures 1–4 as assertions, written against the typed handle
//! API ([`rina::net`]) and, where a generator fits, [`rina::scenario`].

use rina::apps::{EchoApp, PingApp, SinkApp, SourceApp};
use rina::ipcp::{IpcpOut, IpcpTimer};
use rina::msg::MgmtBody;
use rina::prelude::*;
use rina_wire::{CdapMsg, Pdu};

/// Figure 1: two hosts, one link, one DIF; flow by name; data flows.
#[test]
fn fig1_two_hosts_one_dif() {
    let mut b = NetBuilder::new(1);
    let h1 = b.node("h1");
    let h2 = b.node("h2");
    let l = b.link(h1, h2, LinkCfg::wired());
    let d = b.dif(DifConfig::new("net"));
    b.join(d, h1);
    b.join(d, h2);
    b.adjacency_over_link(d, h1, h2, l);
    let sink = b.app(h2, AppName::new("sink"), d, SinkApp::default());
    let src = b.app(
        h1,
        AppName::new("src"),
        d,
        SourceApp::new(AppName::new("sink"), QosSpec::reliable(), 512, 50, Dur::from_millis(1)),
    );
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(10), Dur::from_millis(100));
    net.run_for(Dur::from_secs(3));
    assert!(net.app(src).completed);
    assert_eq!(net.app(sink).received, 50);
    assert_eq!(net.app(sink).bytes, 50 * 512);
    assert!(net.app(sink).latency.mean() > 0.0);
}

/// Reliable flows survive a lossy medium (EFCP at work end to end).
#[test]
fn reliable_flow_over_lossy_link() {
    let mut b = NetBuilder::new(2);
    let fab = Topology::line(2)
        .with_link(LinkCfg::wired().with_loss(LossModel::Bernoulli(0.10)))
        .materialize(&mut b);
    let traffic = Workload::sources_to_sink(
        &mut b,
        fab.dif,
        fab.node(1),
        &[fab.node(0)],
        QosSpec::reliable(),
        256,
        100,
        Dur::from_millis(2),
    );
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(30), Dur::from_millis(100));
    net.run_for(Dur::from_secs(20));
    assert_eq!(traffic.received(&net), 100, "every SDU recovered despite 10% loss");
}

/// Figure 2: two hosts joined by a router; the DIF spans three members and
/// the router's IPC process relays.
#[test]
fn fig2_relay_through_router() {
    let mut b = NetBuilder::new(3);
    let h1 = b.node("h1");
    let r = b.node("r");
    let h2 = b.node("h2");
    let l1 = b.link(h1, r, LinkCfg::wired());
    let l2 = b.link(r, h2, LinkCfg::wired());
    let d = b.dif(DifConfig::new("net"));
    b.join(d, r); // bootstrap at the router
    b.join(d, h1);
    b.join(d, h2);
    b.adjacency_over_link(d, h1, r, l1);
    b.adjacency_over_link(d, r, h2, l2);
    b.app(h2, AppName::new("echo"), d, EchoApp::default());
    let ping = b.app(
        h1,
        AppName::new("ping"),
        d,
        PingApp::new(AppName::new("echo"), QosSpec::reliable(), 5, 100),
    );
    let r_ipcp = b.ipcp_of(d, r);
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(10), Dur::from_millis(200));
    net.run_for(Dur::from_secs(3));
    let p = net.app(ping);
    assert!(p.done(), "got {} rtts", p.rtts.len());
    // RTT across two 1ms links: at least 4ms.
    assert!(p.rtts[0] >= 0.004, "rtt {}", p.rtts[0]);
    assert!(net.ipcp(r_ipcp).stats.relayed > 0, "router relayed");
}

/// A pinger whose reply never comes (the service under its target name
/// only sinks) gives its flow up at the reply deadline, 130 s after the
/// ping, and pings again on a fresh flow: a half-open flow, whose peer's
/// teardown was lost, cannot hang it.
#[test]
fn a_pinger_without_a_reply_allocates_again() {
    let mut b = NetBuilder::new(5);
    let fab = Topology::line(2).materialize(&mut b);
    let sink = b.app(fab.node(1), AppName::new("echo"), fab.dif, SinkApp::default());
    let ping = b.app(
        fab.node(0),
        AppName::new("ping"),
        fab.dif,
        PingApp::new(AppName::new("echo"), QosSpec::reliable(), 1, 16),
    );
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(10), Dur::from_millis(100));
    net.run_for(Dur::from_secs(129));
    assert_eq!(net.app(sink).received, 1);
    net.run_for(Dur::from_secs(2));
    assert_eq!(net.app(sink).received, 2, "a second flow carries a second ping");
    assert!(!net.app(ping).done());
}

/// Three-layer recursion: a host-to-host DIF rides a regional DIF which
/// rides the shims (Figure 3's structure).
#[test]
fn three_layer_stack() {
    let mut b = NetBuilder::new(4);
    let h1 = b.node("h1");
    let r1 = b.node("r1");
    let r2 = b.node("r2");
    let h2 = b.node("h2");
    let l0 = b.link(h1, r1, LinkCfg::wired());
    let l1 = b.link(r1, r2, LinkCfg::wired());
    let l2 = b.link(r2, h2, LinkCfg::wired());
    // Regional DIF over the middle links.
    let region = b.dif(DifConfig::new("region"));
    b.join(region, r1);
    b.join(region, r2);
    b.adjacency_over_link(region, r1, r2, l1);
    // Top DIF: hosts + the two border routers; the r1-r2 adjacency rides
    // the regional DIF.
    let top = b.dif(DifConfig::new("top"));
    b.join(top, r1);
    b.join(top, h1);
    b.join(top, r2);
    b.join(top, h2);
    b.adjacency_over_link(top, h1, r1, l0);
    b.adjacency_over_dif(top, r1, r2, region, QosSpec::datagram());
    b.adjacency_over_link(top, r2, h2, l2);

    b.app(h2, AppName::new("echo"), top, EchoApp::default());
    let ping = b.app(
        h1,
        AppName::new("ping"),
        top,
        PingApp::new(AppName::new("echo"), QosSpec::reliable(), 5, 64),
    );
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(20), Dur::from_millis(300));
    net.run_for(Dur::from_secs(5));
    let p = net.app(ping);
    assert!(p.done(), "got {} rtts through 3 layers", p.rtts.len());
}

/// §6.1: a DIF with a pre-shared secret refuses impostors.
#[test]
fn enrollment_auth_rejects_wrong_secret() {
    let build = |impostor: bool, seed| {
        let mut b = NetBuilder::new(seed);
        let h1 = b.node("h1");
        let h2 = b.node("h2");
        let l = b.link(h1, h2, LinkCfg::wired());
        let d = b.dif(DifConfig::new("private").with_auth(AuthPolicy::Secret("sesame".into())));
        b.join(d, h1);
        b.join(d, h2);
        if impostor {
            b.join_credential(d, h2, "wrong-secret");
        }
        b.adjacency_over_link(d, h1, h2, l);
        let mut net = b.build();
        let t = net.sim.now() + Dur::from_secs(5);
        net.sim.run_until(t);
        net.assembled()
    };
    assert!(build(false, 5), "legitimate member enrolls");
    assert!(!build(true, 6), "impostor must not become a member");
}

/// §5.3 access control: the destination application can refuse a flow.
#[test]
fn destination_app_refuses_flow() {
    let mut b = NetBuilder::new(7);
    let h1 = b.node("h1");
    let h2 = b.node("h2");
    let l = b.link(h1, h2, LinkCfg::wired());
    let d = b.dif(DifConfig::new("net"));
    b.join(d, h1);
    b.join(d, h2);
    b.adjacency_over_link(d, h1, h2, l);
    let sink =
        b.app(h2, AppName::new("guarded"), d, SinkApp::rejecting(vec![AppName::new("attacker")]));
    let atk = b.app(
        h1,
        AppName::new("attacker"),
        d,
        SourceApp::new(AppName::new("guarded"), QosSpec::reliable(), 64, 5, Dur::ZERO),
    );
    let ok = b.app(
        h1,
        AppName::new("friend"),
        d,
        SourceApp::new(AppName::new("guarded"), QosSpec::reliable(), 64, 5, Dur::ZERO),
    );
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(10), Dur::from_millis(100));
    net.run_for(Dur::from_secs(3));
    assert_eq!(net.app(atk).sent, 0, "attacker never got a flow");
    assert!(net.app(atk).alloc_failures > 0);
    assert!(net.app(ok).completed, "legitimate peer unaffected");
    assert_eq!(net.app(sink).received, 5);
    assert!(net.app(sink).rejected >= 1);
}

/// Figure 4 / §6.3: a dual-homed destination keeps its flow through a PoA
/// failure — the two-step forwarding rebinds to the surviving path.
#[test]
fn multihoming_failover() {
    let mut b = NetBuilder::new(8);
    let src = b.node("src");
    let r1 = b.node("r1");
    let r2 = b.node("r2");
    let dst = b.node("dst");
    let l_s1 = b.link(src, r1, LinkCfg::wired());
    let l_s2 = b.link(src, r2, LinkCfg::wired());
    let l_1d = b.link(r1, dst, LinkCfg::wired());
    let l_2d = b.link(r2, dst, LinkCfg::wired());
    let d = b.dif(DifConfig::new("net").with_hello_period(Dur::from_millis(50)));
    b.join(d, r1);
    b.join(d, src);
    b.join(d, r2);
    b.join(d, dst);
    b.adjacency_over_link(d, src, r1, l_s1);
    b.adjacency_over_link(d, src, r2, l_s2);
    b.adjacency_over_link(d, r1, dst, l_1d);
    b.adjacency_over_link(d, r2, dst, l_2d);
    let sink = b.app(dst, AppName::new("sink"), d, SinkApp::default());
    let s = b.app(
        src,
        AppName::new("src"),
        d,
        SourceApp::new(AppName::new("sink"), QosSpec::reliable(), 256, 2000, Dur::from_millis(2)),
    );
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(10), Dur::from_millis(300));
    // Let traffic run, then kill the primary path mid-flow.
    net.run_for(Dur::from_secs(2));
    let before = net.app(sink).received;
    assert!(before > 0);
    net.set_link_up(l_1d, false);
    net.set_link_up(l_s1, false);
    net.run_for(Dur::from_secs(5));
    assert!(net.app(s).completed, "sent {}", net.app(s).sent);
    assert_eq!(net.app(sink).received, 2000, "flow survived the PoA failure");
}

/// Flow deallocation notifies the peer.
#[test]
fn deallocation_closes_peer() {
    struct Closer {
        flow: Option<FlowH>,
        sent: bool,
    }
    impl AppProcess for Closer {
        fn on_start(&mut self, api: &mut IpcApi<'_, '_, '_>) {
            api.timer_in(Dur::from_millis(100), 1);
        }
        fn on_timer(&mut self, key: u64, api: &mut IpcApi<'_, '_, '_>) {
            match key {
                1 => {
                    api.allocate_flow(&AppName::new("watcher"), QosSpec::reliable());
                }
                2 => {
                    if let Some(f) = self.flow {
                        api.deallocate(f);
                    }
                }
                _ => {}
            }
        }
        fn on_flow_allocated(
            &mut self,
            origin: FlowOrigin,
            flow: FlowH,
            _p: &AppName,
            api: &mut IpcApi<'_, '_, '_>,
        ) {
            assert!(!origin.is_inbound(), "this app only requests flows");
            assert_eq!(origin.handle(), Some(flow), "requested flows keep their handle");
            self.flow = Some(flow);
            self.sent = true;
            let _ = api.write(flow, Bytes::from_static(b"bye soon"));
            api.timer_in(Dur::from_millis(200), 2);
        }
        fn on_flow_failed(&mut self, _o: FlowOrigin, _r: &str, api: &mut IpcApi<'_, '_, '_>) {
            // The network may not have assembled yet; try again.
            api.timer_in(Dur::from_millis(200), 1);
        }
    }
    #[derive(Default)]
    struct Watcher {
        got: u64,
        closed: u64,
        inbound: u64,
    }
    impl AppProcess for Watcher {
        fn on_flow_allocated(
            &mut self,
            origin: FlowOrigin,
            _f: FlowH,
            _n: &AppName,
            _a: &mut IpcApi<'_, '_, '_>,
        ) {
            if origin.is_inbound() {
                self.inbound += 1;
            }
        }
        fn on_sdu(&mut self, _f: FlowH, _s: Bytes, _a: &mut IpcApi<'_, '_, '_>) {
            self.got += 1;
        }
        fn on_flow_closed(&mut self, _f: FlowH, _a: &mut IpcApi<'_, '_, '_>) {
            self.closed += 1;
        }
    }

    let mut b = NetBuilder::new(9);
    let h1 = b.node("h1");
    let h2 = b.node("h2");
    let l = b.link(h1, h2, LinkCfg::wired());
    let d = b.dif(DifConfig::new("net"));
    b.join(d, h1);
    b.join(d, h2);
    b.adjacency_over_link(d, h1, h2, l);
    let w = b.app(h2, AppName::new("watcher"), d, Watcher::default());
    b.app(h1, AppName::new("closer"), d, Closer { flow: None, sent: false });
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(10), Dur::from_millis(100));
    net.run_for(Dur::from_secs(2));
    assert_eq!(net.app(w).got, 1);
    assert_eq!(net.app(w).closed, 1, "teardown reached the peer");
    assert_eq!(net.app(w).inbound, 1, "the flow arrived as FlowOrigin::Inbound");
}

/// A five-hop line from the generator: everything still assembles and
/// routes.
#[test]
fn five_node_line_end_to_end() {
    let mut b = NetBuilder::new(10);
    let fab = Topology::line(5).materialize(&mut b);
    let cs = Workload::client_server(&mut b, fab.dif, &[fab.node(0)], fab.node(4), 3, 32);
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(20), Dur::from_millis(300));
    net.run_for(Dur::from_secs(3));
    let p = net.app(cs.clients[0]);
    assert!(p.done());
    // 4 hops of >=1ms each way: RTT >= 8ms.
    assert!(p.rtts[0] >= 0.008, "rtt {}", p.rtts[0]);
}

/// A generator-driven scale test: a 60-node Barabási–Albert internetwork
/// assembles as one DIF, and flows run between low-degree periphery
/// nodes through the hubs.
#[test]
fn barabasi_albert_sixty_nodes_assemble_and_route() {
    let mut b = NetBuilder::new(14);
    let fab = Topology::barabasi_albert(60, 2, 99).with_prefix("ba").materialize(&mut b);
    // Ping between the two newest (lowest-degree, most peripheral) nodes.
    let mesh = Workload::ping_mesh(&mut b, fab.dif, &[fab.node(58), fab.node(59)], 2, 32);
    let hub_ipcp = b.ipcp_of(fab.dif, fab.hub());
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(120), Dur::from_millis(500));
    net.run_for(Dur::from_secs(5));
    assert!(mesh.all_done(&net), "rtts: {:?}", mesh.rtts(&net));
    // The hub carries state for the whole 60-member scope.
    assert!(net.ipcp(hub_ipcp).fwd().len() >= 30, "hub fwd {}", net.ipcp(hub_ipcp).fwd().len());
}

/// A shim's medium goes down and comes back, and the shim is told at
/// the instant of each change. While the link is down the shim knows no
/// peer: an allocation fails at once and sends nothing. At the instant
/// the link is back, with no wait, an allocation's request leaves over it.
#[test]
fn a_shims_medium_goes_down_and_comes_back() {
    let mut b = NetBuilder::new(15);
    let (h1, h2) = (b.node("h1"), b.node("h2"));
    let l = b.link(h1, h2, LinkCfg::wired());
    let mut net = b.build();
    net.run_for(Dur::from_millis(250));
    let (src, dst) = (AppName::new("a"), AppName::new("b"));
    net.set_link_up(l, false);
    net.run_for(Dur::ZERO);
    let down = net.sim.now();
    let shim = net.node_mut(h1).ipcp_mut(0);
    shim.alloc_flow(90, src.clone(), dst.clone(), QosSpec::datagram(), down);
    let out = shim.take_out();
    let [IpcpOut::FlowGone { port: 90, failed }] = &out[..] else { panic!("{out:?}") };
    assert_eq!(*failed, Some("destination unknown in DIF"));
    net.run_for(Dur::from_millis(150));
    let back = net.sim.now();
    net.set_link_up(l, true);
    net.run_for(Dur::ZERO);
    assert_eq!(net.sim.now(), back, "no wait");
    let shim = net.node_mut(h1).ipcp_mut(0);
    shim.alloc_flow(91, src, dst, QosSpec::datagram(), back);
    let out = shim.take_out();
    let [IpcpOut::TxPhys { n1: 0, frame, .. }, IpcpOut::Arm { timer, .. }] = &out[..] else {
        panic!("{out:?}")
    };
    assert_eq!(*timer, IpcpTimer::Alloc { port: 91 }, "and its deadline is armed");
    let Ok(Pdu::Mgmt(m)) = Pdu::decode(frame) else { panic!("a management frame") };
    let body = CdapMsg::decode(&m.payload).ok().and_then(|c| MgmtBody::from_cdap(&c).ok());
    assert!(matches!(body, Some(MgmtBody::FlowRequest { .. })), "{body:?}");
}

/// A medium with nothing above it carries nothing: a shim arms no hello
/// timer, so two nodes joined by one link and no DIF fire no timer and
/// exchange no frame in 10 s.
#[test]
fn an_idle_link_carries_nothing() {
    let mut b = NetBuilder::new(16);
    let (h1, h2) = (b.node("h1"), b.node("h2"));
    let l = b.link(h1, h2, LinkCfg::wired());
    let mut net = b.build();
    net.run_for(Dur::from_secs(10));
    let st = net.sim.link_stats(net.link_id(l));
    assert_eq!((st.delivered, st.drops_loss, st.drops_overflow), (0, 0, 0), "{st:?}");
    assert_eq!(net.sim.events().timer, 0, "{:?}", net.sim.events());
}

/// Both ends of a medium learn its state at the instant it changes: the
/// shims' ports go down when the link does, and come back live, each
/// with the other end as its peer, when it is back up.
#[test]
fn both_shims_follow_their_medium_at_the_instant_it_changes() {
    let mut b = NetBuilder::new(17);
    let (h1, h2) = (b.node("h1"), b.node("h2"));
    let l = b.link(h1, h2, LinkCfg::wired());
    let mut net = b.build();
    net.run_for(Dur::from_millis(40));
    let ports = |net: &Net| {
        [h1, h2].map(|h| {
            let p = &net.node(h).ipcp(0).n1_ports()[0];
            (p.up, p.peer_addr)
        })
    };
    assert_eq!(ports(&net), [(true, 2), (true, 1)]);
    for (up, expected) in [(false, [(false, 0), (false, 0)]), (true, [(true, 2), (true, 1)])] {
        let at = net.sim.now();
        net.set_link_up(l, up);
        net.run_for(Dur::ZERO);
        assert_eq!(net.sim.now(), at);
        assert_eq!(ports(&net), expected, "link up: {up}");
        net.run_for(Dur::from_secs(1));
        assert_eq!(ports(&net), expected, "link up: {up}, a second later");
    }
}

/// Applications never see addresses — nor raw integers: the API surface
/// carries only names and the opaque typed flow handle (compile-time
/// property made explicit).
#[test]
fn api_exposes_no_addresses() {
    // QosSpec + AppName in; FlowH out. The assertion is the signature of
    // IpcApi::allocate_flow itself; here we just confirm FlowH is opaque:
    // it renders, compares, and hashes, but cannot be fabricated from an
    // integer outside the crate (its field is pub(crate)).
    fn takes_only_flow_handles(f: FlowH) -> String {
        format!("{f}")
    }
    let _ = takes_only_flow_handles;
    assert!(std::mem::size_of::<FlowH>() <= 8, "handles stay copy-cheap");
}

/// A reliable stream over a 9-node line keeps its one-way latency now
/// that the receiver acks every second PDU: 64-byte SDUs every 400 µs
/// across eight 1 ms hops, the relay-line8 benchmark's farthest source
/// alone. The SDUs queued while the flow was being allocated drain
/// through slow start, which sets the tail; the quick acks of the first
/// 64 PDUs keep it where acking every PDU had it. Holding the second ack
/// while the sender's window is two or three PDUs costs the tail 2 ms.
#[test]
fn a_reliable_stream_over_a_line_keeps_its_tail_latency() {
    let mut b = NetBuilder::new(9);
    let fab = Topology::line(9).materialize(&mut b);
    let traffic = Workload::sources_to_sink(
        &mut b,
        fab.dif,
        fab.last(),
        &[fab.node(0)],
        QosSpec::reliable(),
        64,
        2_000,
        Dur::from_micros(400),
    );
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(10), Dur::from_millis(100));
    net.run_for(Dur::from_secs(3));
    let sink = net.app(traffic.sink);
    assert_eq!(sink.received, 2_000);
    let us = |q: f64| (sink.latency.quantile(q) * 1e6).round() as u64;
    assert_eq!((us(0.5), us(0.99)), (8_006, 57_655), "one-way p50 and p99, µs");
}
