//! Figure 5 / §6.4: mobility as dynamic multihoming. A mobile host's
//! point of attachment changes; its DIF address — and therefore its flows
//! — do not.

use rina::apps::{SinkApp, SourceApp};
use rina::prelude::*;

struct Cells {
    net: Net,
    l_m1: LinkH,
    l_m2: LinkH,
    sink: AppH<SinkApp>,
    src: AppH<SourceApp>,
    mobile: IpcpH,
}

/// Server + two access points + one mobile, all in one DIF with fast
/// hellos. The mobile reaches each AP over its own wireless link.
fn build_cells(seed: u64, count: u64, size: usize) -> Cells {
    let mut b = NetBuilder::new(seed);
    let s = b.node("server");
    let ap1 = b.node("ap1");
    let ap2 = b.node("ap2");
    let m = b.node("mobile");
    let l_s1 = b.link(s, ap1, LinkCfg::wired());
    let l_s2 = b.link(s, ap2, LinkCfg::wired());
    let l_m1 = b.link(m, ap1, LinkCfg::wireless(0.0));
    let l_m2 = b.link(m, ap2, LinkCfg::wireless(0.0));
    let d = b.dif(DifConfig::new("net").with_hello_period(Dur::from_millis(50)));
    b.join(d, s);
    b.join(d, ap1);
    b.join(d, ap2);
    b.join(d, m);
    b.adjacency_over_link(d, s, ap1, l_s1);
    b.adjacency_over_link(d, s, ap2, l_s2);
    b.adjacency_over_link(d, m, ap1, l_m1);
    b.adjacency_over_link(d, m, ap2, l_m2);
    let sink = b.app(s, AppName::new("sink"), d, SinkApp::default());
    let src = b.app(
        m,
        AppName::new("cam"),
        d,
        SourceApp::new(AppName::new("sink"), QosSpec::reliable(), size, count, Dur::from_millis(2)),
    );
    let mobile = b.ipcp_of(d, m);
    Cells { net: b.build(), l_m1, l_m2, sink, src, mobile }
}

/// The mobile M detaches from access point AP1 and attaches to AP2 while
/// streaming to a server. The flow survives; only routing inside the DIF
/// updates.
#[test]
fn handoff_preserves_flow() {
    let Cells { mut net, l_m1, l_m2, sink, src, .. } = build_cells(11, 3000, 256);
    // M starts attached to AP1 only.
    net.set_link_up(l_m2, false);
    net.run_for(Dur::from_secs(3));
    let before = net.app(sink).received;
    assert!(before > 200, "traffic flowing via ap1: {before}");
    let fails_before = net.app(src).alloc_failures;

    // Hard handoff: leave AP1, arrive at AP2 (break before make).
    net.set_link_up(l_m1, false);
    net.run_for(Dur::from_millis(40));
    net.set_link_up(l_m2, true);
    net.run_for(Dur::from_secs(8));

    assert!(net.app(src).completed, "sent {}", net.app(src).sent);
    assert_eq!(net.app(sink).received, 3000, "no SDU lost across the handoff");
    assert_eq!(
        net.app(src).alloc_failures,
        fails_before,
        "the flow itself never needed re-allocation"
    );
}

/// Moving back and forth works repeatedly (re-attachment to a previously
/// used point of attachment).
#[test]
fn repeated_handoffs() {
    let Cells { mut net, l_m1, l_m2, sink, .. } = build_cells(12, 6000, 128);
    net.set_link_up(l_m2, false);
    net.run_for(Dur::from_secs(2));
    // Ping-pong between the two cells.
    for i in 0..4 {
        let (down, up) = if i % 2 == 0 { (l_m1, l_m2) } else { (l_m2, l_m1) };
        net.set_link_up(down, false);
        net.run_for(Dur::from_millis(30));
        net.set_link_up(up, true);
        net.run_for(Dur::from_secs(2));
    }
    net.run_for(Dur::from_secs(10));
    assert_eq!(net.app(sink).received, 6000, "all SDUs across 4 handoffs");
}

/// The mobile plans both its adjacencies (one per access point), so each
/// handoff rebinds the port of the access point it returns to: after six
/// handoffs it holds two ports, the one toward its current access point
/// live.
#[test]
fn handoffs_rebind_the_mobiles_two_ports() {
    let Cells { mut net, l_m1, l_m2, mobile, .. } = build_cells(13, 2000, 64);
    net.set_link_up(l_m2, false);
    net.run_for(Dur::from_secs(2));
    for i in 0..6 {
        let (down, up) = if i % 2 == 0 { (l_m1, l_m2) } else { (l_m2, l_m1) };
        net.set_link_up(down, false);
        net.run_for(Dur::from_millis(30));
        net.set_link_up(up, true);
        net.run_for(Dur::from_secs(2));
    }
    let ports = net.ipcp(mobile).n1_ports();
    assert_eq!(ports.len(), 2, "one port per access point");
    assert_eq!(ports.iter().filter(|p| p.up && p.peer_addr != 0).count(), 1);
}
