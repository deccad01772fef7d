//! E4 (Figure 4, §6.3): multihoming failover.
//!
//! A dual-homed destination loses its primary point of attachment
//! mid-flow. RINA: the node address never changes, forwarding rebinds to
//! the surviving (N-1) path, the flow lives. Baseline: the TCP connection
//! is bound to the dead interface address; it must fail and be re-dialed.

use crate::inet_apps::{CountServer, RedialSource};
use crate::report::{Col, Scalar};
use crate::{row, GapSampler, Scenario};
use inet::{Cidr, InetNode, IpAddr};
use rina::apps::{SinkApp, SourceApp};
use rina::prelude::*;

row! {
    /// Result of one failover run.
    pub struct Fig4Row {
        /// Which stack.
        stack: &'static str,
        /// Did the original flow/connection survive the PoA failure?
        flow_survived: bool,
        /// Longest delivery gap around the failure (s).
        outage_s: f64,
        /// Messages delivered in total (of 2000).
        delivered: u64,
        /// Application-visible connection failures.
        conn_failures: u64,
    }
}

/// The E4 table of the `experiments` binary.
pub const TABLE: &[Col<Fig4Row>] = &[
    ("stack", |r| r.stack.cell()),
    ("flow survived", |r| r.flow_survived.cell()),
    ("outage (s)", |r| r.outage_s.cell()),
    ("delivered/2000", |r| r.delivered.cell()),
    ("conn failures", |r| r.conn_failures.cell()),
];

/// RINA side: the multihoming scenario of the stack tests, measured.
pub fn run_rina(seed: u64) -> Fig4Row {
    let mut b = Scenario::new("fig4-rina", seed);
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
    let mut run = b.assemble(Dur::from_secs(10), Dur::from_millis(300));
    run.run_for(Dur::from_secs(2));
    let fails_before = run.net.app(s).alloc_failures;
    run.net.set_link_up(l_1d, false);
    run.net.set_link_up(l_s1, false);
    // Sample arrivals to find the outage gap.
    let mut gaps = GapSampler::new(run.net.app(sink).received, run.net.sim.now());
    run.run_until(Dur::from_millis(50), 240, |net| {
        gaps.observe(net.app(sink).received, net.sim.now());
        net.app(s).completed && net.app(sink).received >= 2000
    });
    let src_app = run.net.app(s);
    Fig4Row {
        stack: "rina",
        flow_survived: src_app.alloc_failures == fails_before,
        outage_s: gaps.gap(),
        delivered: run.net.app(sink).received,
        conn_failures: src_app.alloc_failures - fails_before,
    }
}

/// Baseline side: same square topology, dual-homed *client* whose primary
/// interface dies.
pub fn run_inet(seed: u64) -> Fig4Row {
    let ip = IpAddr::new;
    let net24 = |a, b, c| Cidr::new(ip(a, b, c, 0), 24);
    let mut sim = rina_sim::Sim::new(seed);
    let mut ch = InetNode::new("client", false);
    let mut r1 = InetNode::new("r1", true);
    let mut r2 = InetNode::new("r2", true);
    let mut sv = InetNode::new("server", false);
    ch.add_iface(ip(10, 0, 1, 1), net24(10, 0, 1));
    ch.add_iface(ip(10, 0, 3, 1), net24(10, 0, 3));
    ch.add_route(Cidr::default_route(), 0, 0);
    ch.add_route(Cidr::default_route(), 1, 1);
    r1.add_iface(ip(10, 0, 1, 2), net24(10, 0, 1));
    r1.add_iface(ip(10, 0, 2, 3), net24(10, 0, 2));
    r2.add_iface(ip(10, 0, 3, 2), net24(10, 0, 3));
    r2.add_iface(ip(10, 0, 2, 4), net24(10, 0, 2));
    sv.add_iface(ip(10, 0, 2, 1), net24(10, 0, 2));
    sv.add_route(net24(10, 0, 1), 0, 0);
    sv.add_route(net24(10, 0, 3), 0, 0);
    let c_app = ch.add_app(RedialSource::new(ip(10, 0, 2, 1), 2000, Dur::from_millis(10)));
    let s_app = sv.add_app(CountServer::default());
    let nc = sim.add_node(ch);
    let n1 = sim.add_node(r1);
    let n2 = sim.add_node(r2);
    let ns = sim.add_node(sv);
    let (l_primary, _, _) = sim.connect(nc, n1, LinkCfg::wired());
    sim.connect(nc, n2, LinkCfg::wired());
    sim.connect(n1, ns, LinkCfg::wired());
    sim.connect(n2, n1, LinkCfg::wired());
    sim.agent_mut::<InetNode>(n2).add_route(net24(10, 0, 2), 2, 0);
    sim.agent_mut::<InetNode>(n1).add_route(net24(10, 0, 3), 2, 0);

    sim.run_until(Time::from_secs(2));
    sim.set_link_up(l_primary, false);
    let mut gaps =
        GapSampler::new(sim.agent::<InetNode>(ns).app::<CountServer>(s_app).received, sim.now());
    for _ in 0..1200 {
        let t = sim.now() + Dur::from_millis(50);
        sim.run_until(t);
        gaps.observe(sim.agent::<InetNode>(ns).app::<CountServer>(s_app).received, sim.now());
        let cl = sim.agent::<InetNode>(nc).app::<RedialSource>(c_app);
        if cl.acked >= 2000 {
            break;
        }
    }
    let cl = sim.agent::<InetNode>(nc).app::<RedialSource>(c_app);
    Fig4Row {
        stack: "inet(tcp)",
        flow_survived: cl.failures == 0,
        outage_s: gaps.gap(),
        delivered: sim.agent::<InetNode>(ns).app::<CountServer>(s_app).received.min(2000),
        conn_failures: cl.failures,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn rina_survives_inet_does_not() {
        let r = super::run_rina(31);
        assert!(r.flow_survived);
        assert_eq!(r.delivered, 2000);
        let i = super::run_inet(31);
        assert!(!i.flow_survived, "TCP must break: {i:?}");
        assert!(i.outage_s > r.outage_s, "baseline outage {} vs rina {}", i.outage_s, r.outage_s);
    }
}
