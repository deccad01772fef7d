//! E7 (§6.1): attack surface.
//!
//! Baseline: an attacker host scans a server's address across a port
//! range; every closed port answers RST, every open port answers SYN-ACK —
//! the infrastructure itself leaks reachability because addresses are
//! public. RINA: the attacker (a) cannot enroll in a private DIF without
//! the credential, and (b) even inside an open DIF, flow allocation
//! continues *to the destination application*, which refuses (§5.3).

use crate::report::{Col, Scalar};
use crate::{row, Scenario};
use inet::{Cidr, InetApi, InetApp, InetNode, IpAddr, SockId};
use rina::apps::{SinkApp, SourceApp};
use rina::prelude::*;

row! {
    /// Result of the attack-surface comparison.
    pub struct SecurityRow {
        /// Which stack / policy.
        stack: &'static str,
        /// Probes the attacker sent.
        probes: u64,
        /// Responses that leaked existence/reachability information.
        leaks: u64,
        /// Application data the attacker managed to deliver.
        payloads_delivered: u64,
    }
}

/// The E7 table of the `experiments` binary.
pub const TABLE: &[Col<SecurityRow>] = &[
    ("stack", |r| r.stack.cell()),
    ("probes", |r| r.probes.cell()),
    ("information leaks", |r| r.leaks.cell()),
    ("attacker payloads delivered", |r| r.payloads_delivered.cell()),
];

/// A port scanner.
struct Scanner {
    target: IpAddr,
    ports: std::ops::Range<u16>,
    pub syn_acks: u64,
    pub rsts: u64,
    pub opened: Vec<u16>,
    next: u16,
}
impl InetApp for Scanner {
    fn on_start(&mut self, api: &mut InetApi<'_, '_, '_>) {
        self.next = self.ports.start;
        api.timer_in(rina_sim::Dur::from_millis(10), 1);
    }
    fn on_timer(&mut self, _k: u64, api: &mut InetApi<'_, '_, '_>) {
        if self.next < self.ports.end {
            let _ = api.connect(self.target, self.next);
            self.next += 1;
            api.timer_in(rina_sim::Dur::from_millis(1), 1);
        }
    }
    fn on_connected(&mut self, sock: SockId, peer: (IpAddr, u16), api: &mut InetApi<'_, '_, '_>) {
        self.syn_acks += 1;
        self.opened.push(peer.1);
        api.close(sock);
    }
    fn on_conn_failed(&mut self, _s: SockId, _api: &mut InetApi<'_, '_, '_>) {
        self.rsts += 1;
    }
}

/// A victim server with a couple of open ports.
#[derive(Default)]
struct Victim;
impl InetApp for Victim {
    fn on_start(&mut self, api: &mut InetApi<'_, '_, '_>) {
        api.listen(22);
        api.listen(80);
    }
}

/// Baseline: scan 64 ports on a reachable server.
pub fn run_inet(seed: u64) -> SecurityRow {
    let ip = IpAddr::new;
    let net24 = |a, b, c| Cidr::new(ip(a, b, c, 0), 24);
    let mut sim = rina_sim::Sim::new(seed);
    let mut atk = InetNode::new("attacker", false);
    let mut r = InetNode::new("r", true);
    let mut sv = InetNode::new("victim", false);
    atk.add_iface(ip(10, 0, 1, 1), net24(10, 0, 1));
    atk.add_route(Cidr::default_route(), 0, 0);
    r.add_iface(ip(10, 0, 1, 2), net24(10, 0, 1));
    r.add_iface(ip(10, 0, 2, 2), net24(10, 0, 2));
    sv.add_iface(ip(10, 0, 2, 1), net24(10, 0, 2));
    sv.add_route(Cidr::default_route(), 0, 0);
    let a_app = atk.add_app(Scanner {
        target: ip(10, 0, 2, 1),
        ports: 20..84,
        syn_acks: 0,
        rsts: 0,
        opened: vec![],
        next: 0,
    });
    sv.add_app(Victim);
    let na = sim.add_node(atk);
    let nr = sim.add_node(r);
    let ns = sim.add_node(sv);
    sim.connect(na, nr, LinkCfg::wired());
    sim.connect(nr, ns, LinkCfg::wired());
    sim.run_until(Time::from_secs(10));
    let sc = sim.agent::<InetNode>(na).app::<Scanner>(a_app);
    SecurityRow {
        stack: "inet(open ports)",
        probes: 64,
        // Every RST and every SYN-ACK tells the scanner something.
        leaks: sc.syn_acks + sc.rsts,
        payloads_delivered: 0,
    }
}

/// The shared three-node wire: attacker — router — victim, one DIF.
struct AttackNet {
    s: Scenario,
    a: NodeH,
    r: NodeH,
    v: NodeH,
    d: DifH,
}

fn attack_net(seed: u64, cfg: DifConfig) -> AttackNet {
    let mut s = Scenario::new("e7-attack", seed);
    let a = s.node("attacker");
    let r = s.node("r");
    let v = s.node("victim");
    let l1 = s.link(a, r, LinkCfg::wired());
    let l2 = s.link(r, v, LinkCfg::wired());
    let d = s.dif(cfg);
    s.join(d, r);
    s.join(d, a);
    s.join(d, v);
    s.adjacency_over_link(d, a, r, l1);
    s.adjacency_over_link(d, r, v, l2);
    AttackNet { s, a, r, v, d }
}

/// RINA with application access control: attacker is *in* the DIF but the
/// victim refuses its flows; nothing else on the victim even exists to
/// probe — there are no ports to scan, only names to ask for.
pub fn run_rina_access_control(seed: u64) -> SecurityRow {
    let AttackNet { mut s, a, v, d, .. } = attack_net(seed, DifConfig::new("open"));
    let sink =
        s.app(v, AppName::new("payroll"), d, SinkApp::rejecting(vec![AppName::new("scanner")]));
    let atk = s.app(
        a,
        AppName::new("scanner"),
        d,
        SourceApp::new(AppName::new("payroll"), QosSpec::reliable(), 64, 10, Dur::ZERO),
    );
    let v_ipcp = s.ipcp_of(d, v);
    let mut run = s.assemble(Dur::from_secs(10), Dur::from_millis(200));
    run.run_for(Dur::from_secs(5));
    let net = &run.net;
    let sc = net.app(atk);
    let victim_sink = net.app(sink);
    SecurityRow {
        stack: "rina(open DIF, app access control)",
        probes: sc.alloc_failures.max(1),
        // The only information the attacker gets: "refused".
        leaks: net.ipcp(v_ipcp).stats.flow_reqs_in.min(victim_sink.rejected),
        payloads_delivered: victim_sink.received.min(sc.sent),
    }
}

/// RINA private DIF: the attacker's node cannot even enroll — nothing
/// inside is addressable from outside the facility.
pub fn run_rina_private(seed: u64) -> SecurityRow {
    let AttackNet { mut s, a, r, v, d } =
        attack_net(seed, DifConfig::new("private").with_auth(AuthPolicy::Secret("s3cret".into())));
    s.join_credential(d, a, "guessed-wrong");
    s.app(v, AppName::new("payroll"), d, SinkApp::default());
    let atk = s.app(
        a,
        AppName::new("scanner"),
        d,
        SourceApp::new(AppName::new("payroll"), QosSpec::reliable(), 64, 10, Dur::ZERO),
    );
    let a_ipcp = s.ipcp_of(d, a);
    let r_ipcp = s.ipcp_of(d, r);
    // Assembly is *expected* to fail — the attacker never enrolls.
    let mut run = s.launch();
    run.run_for(Dur::from_secs(8));
    let net = &run.net;
    let sc = net.app(atk);
    SecurityRow {
        stack: "rina(private DIF)",
        probes: net.ipcp(r_ipcp).stats.enrollments_sponsored.max(1),
        leaks: 0,
        payloads_delivered: sc.sent.min(if net.ipcp(a_ipcp).is_enrolled() { 1 } else { 0 }),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn surfaces_ranked_as_predicted() {
        let i = super::run_inet(61);
        assert!(i.leaks >= 60, "scan leaked {} of 64", i.leaks);
        let ac = super::run_rina_access_control(62);
        assert_eq!(ac.payloads_delivered, 0, "access control held");
        let pv = super::run_rina_private(63);
        assert_eq!(pv.payloads_delivered, 0, "attacker never enrolled");
        assert_eq!(pv.leaks, 0);
    }
}
