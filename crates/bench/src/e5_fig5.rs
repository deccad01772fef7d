//! E5 (Figure 5, §6.4): mobility as dynamic multihoming.
//!
//! A mobile streams to a server while detaching from one access point and
//! attaching to another. RINA: routing updates stay inside the DIF, the
//! flow survives, update traffic is local. Baseline: Mobile-IP home-agent
//! registration plus triangle routing through the home agent.

use crate::inet_apps::{CountServer, RedialSource};
use crate::report::{Col, Scalar};
use crate::{row, GapSampler, Scenario, Totals};
use inet::{Cidr, InetNode, IpAddr, MobileCfg};
use rina::apps::{SinkApp, SourceApp};
use rina::prelude::*;

row! {
    /// Result of one mobility run.
    pub struct Fig5Row {
        /// Which stack/mechanism.
        stack: &'static str,
        /// Longest delivery gap around the handoff (s).
        handoff_gap_s: f64,
        /// Did the transport flow survive the handoff?
        flow_survived: bool,
        /// Routing/registration messages attributable to the handoff.
        update_msgs: u64,
        /// Messages delivered in total (of 3000).
        delivered: u64,
    }
}

/// The E5 table of the `experiments` binary.
pub const TABLE: &[Col<Fig5Row>] = &[
    ("stack", |r| r.stack.cell()),
    ("handoff gap (s)", |r| r.handoff_gap_s.cell()),
    ("flow survived", |r| r.flow_survived.cell()),
    ("update/tunnel msgs", |r| r.update_msgs.cell()),
    ("delivered/3000", |r| r.delivered.cell()),
];

/// RINA side: the mobility scenario, instrumented.
pub fn run_rina(seed: u64) -> Fig5Row {
    let mut b = Scenario::new("fig5-rina", seed);
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
        SourceApp::new(AppName::new("sink"), QosSpec::reliable(), 256, 3000, Dur::from_millis(2)),
    );
    let members: Vec<IpcpH> = [s, ap1, ap2, m].iter().map(|&n| b.ipcp_of(d, n)).collect();
    let mut run = b.launch();
    run.net.set_link_up(l_m2, false);
    run.run_for(Dur::from_secs(3));
    let fails_before = run.net.app(src).alloc_failures;
    let rib_before = Totals::of(&run.net, &members, &[]).rib_tx;

    // Hard handoff.
    run.net.set_link_up(l_m1, false);
    run.run_for(Dur::from_millis(40));
    run.net.set_link_up(l_m2, true);
    let mut gaps = GapSampler::new(run.net.app(sink).received, run.net.sim.now());
    run.run_until(Dur::from_millis(50), 400, |net| {
        gaps.observe(net.app(sink).received, net.sim.now());
        net.app(sink).received >= 3000
    });
    let rib_after = Totals::of(&run.net, &members, &[]).rib_tx;
    let src_app = run.net.app(src);
    Fig5Row {
        stack: "rina",
        handoff_gap_s: gaps.gap(),
        flow_survived: src_app.alloc_failures == fails_before,
        update_msgs: rib_after - rib_before,
        delivered: run.net.app(sink).received,
    }
}

/// Mobile-IP baseline: the mobile keeps its home address; the home agent
/// tunnels; handoff = re-registration through the new foreign agent.
///
/// Topology: server — ha — {fa1, fa2}; the mobile moves from fa1 to fa2.
pub fn run_inet(seed: u64) -> Fig5Row {
    let ip = IpAddr::new;
    let net24 = |a, b, c| Cidr::new(ip(a, b, c, 0), 24);
    let mut sim = rina_sim::Sim::new(seed);
    let mut sv = InetNode::new("server", false);
    let mut ha = InetNode::new("ha", true);
    let mut fa1 = InetNode::new("fa1", true);
    let mut fa2 = InetNode::new("fa2", true);
    let mut mob = InetNode::new("mobile", false);

    sv.add_iface(ip(10, 0, 9, 1), net24(10, 0, 9));
    sv.add_route(Cidr::default_route(), 0, 0);
    ha.add_iface(ip(10, 0, 9, 2), net24(10, 0, 9));
    ha.add_iface(ip(10, 0, 50, 1), net24(10, 0, 50));
    ha.add_iface(ip(10, 0, 51, 1), net24(10, 0, 51));
    ha.add_route(net24(10, 0, 60), 1, 0);
    ha.add_route(net24(10, 0, 61), 2, 0);
    ha.set_home_agent_for(ip(10, 0, 1, 9));
    fa1.add_iface(ip(10, 0, 50, 2), net24(10, 0, 50));
    fa1.add_iface(ip(10, 0, 60, 1), net24(10, 0, 60));
    fa1.add_route(Cidr::default_route(), 0, 0);
    fa2.add_iface(ip(10, 0, 51, 2), net24(10, 0, 51));
    fa2.add_iface(ip(10, 0, 61, 1), net24(10, 0, 61));
    fa2.add_route(Cidr::default_route(), 0, 0);
    mob.add_iface(ip(10, 0, 1, 9), net24(10, 0, 60));
    mob.add_iface(ip(10, 0, 1, 9), net24(10, 0, 61));
    mob.add_route(Cidr::default_route(), 0, 0);
    mob.add_route(Cidr::default_route(), 1, 1);
    mob.set_mobile(MobileCfg {
        home_addr: ip(10, 0, 1, 9),
        home_agent: ip(10, 0, 9, 2),
        fa_of_iface: vec![Some(ip(10, 0, 60, 1)), Some(ip(10, 0, 61, 1))],
    });
    let m_app = mob.add_app(RedialSource::new(ip(10, 0, 9, 1), 3000, Dur::from_millis(200)));
    let s_app = sv.add_app(CountServer::default());

    let ns = sim.add_node(sv);
    let nh = sim.add_node(ha);
    let nf1 = sim.add_node(fa1);
    let nf2 = sim.add_node(fa2);
    let nm = sim.add_node(mob);
    sim.connect(ns, nh, LinkCfg::wired());
    sim.connect(nh, nf1, LinkCfg::wired());
    sim.connect(nh, nf2, LinkCfg::wired());
    let (l_m1, _, _) = sim.connect(nm, nf1, LinkCfg::wireless(0.0));
    let (l_m2, _, _) = sim.connect(nm, nf2, LinkCfg::wireless(0.0));

    sim.set_link_up(l_m2, false);
    sim.run_until(Time::from_secs(3));
    let tunneled_before = sim.agent::<InetNode>(nh).stats.tunneled;

    // Handoff.
    sim.set_link_up(l_m1, false);
    let t1 = sim.now() + Dur::from_millis(40);
    sim.run_until(t1);
    sim.set_link_up(l_m2, true);
    let mut gaps =
        GapSampler::new(sim.agent::<InetNode>(ns).app::<CountServer>(s_app).received, sim.now());
    for _ in 0..1200 {
        let t = sim.now() + Dur::from_millis(50);
        sim.run_until(t);
        gaps.observe(sim.agent::<InetNode>(ns).app::<CountServer>(s_app).received, sim.now());
        if sim.agent::<InetNode>(nm).app::<RedialSource>(m_app).acked >= 3000 {
            break;
        }
    }
    let mobapp = sim.agent::<InetNode>(nm).app::<RedialSource>(m_app);
    let tunneled_after = sim.agent::<InetNode>(nh).stats.tunneled;
    Fig5Row {
        stack: "inet(mobile-ip)",
        handoff_gap_s: gaps.gap(),
        flow_survived: mobapp.failures == 0,
        // Registration messages are few; the real cost is every data packet
        // tunneling through the HA (triangle routing) — report that.
        update_msgs: tunneled_after - tunneled_before,
        delivered: sim.agent::<InetNode>(ns).app::<CountServer>(s_app).received.min(3000),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn rina_handoff_is_local_and_survives() {
        let r = super::run_rina(41);
        assert!(r.flow_survived);
        assert_eq!(r.delivered, 3000);
        assert!(r.handoff_gap_s < 2.0, "gap {}", r.handoff_gap_s);
    }

    #[test]
    fn mobile_ip_pays_triangle_tax() {
        let i = super::run_inet(42);
        assert!(i.delivered > 1000, "delivered {}", i.delivered);
        assert!(i.update_msgs > 500, "every packet tunnels: {}", i.update_msgs);
    }
}
