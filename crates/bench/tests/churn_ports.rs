//! A port lives exactly as long as its lower flow, at the scale of the
//! churn benchmark: a 100-member scale-free DIF rides out a graceful
//! leave, a crash-restart, a link flap and a partition, settles, and must
//! then hold the (N-1) ports it held before the churn, all live, say
//! hello at the rate it did, and leave no shim a hello to drop for a
//! flow its far end gave up.

use rina::invariants;
use rina::prelude::*;

/// The members' (N-1) ports, and how many of them are live.
fn ports(net: &Net, members: &[IpcpH]) -> (usize, usize) {
    let all: Vec<_> = members.iter().flat_map(|&h| net.ipcp(h).n1_ports()).collect();
    (all.len(), all.iter().filter(|p| p.live()).count())
}

/// Over the next 10 s: hellos the members sent, and data PDUs for no
/// flow the shims dropped.
fn next_ten_seconds(net: &mut Net, fab: &Fabric, members: &[IpcpH]) -> (u64, u64) {
    let count = |net: &Net| {
        let hellos = members.iter().map(|&h| net.ipcp(h).stats.hello_tx).sum::<u64>();
        let shims = fab.nodes.iter().flat_map(|&n| net.node(n).ipcps());
        let drops = shims.filter(|ip| ip.cfg.name.0.starts_with("shim"));
        (hellos, drops.map(|ip| ip.stats.no_flow_drops).sum::<u64>())
    };
    let (hellos, drops) = count(net);
    net.run_for(Dur::from_secs(10));
    let (hellos_after, drops_after) = count(net);
    (hellos_after - hellos, drops_after - drops)
}

#[test]
fn churn_at_one_hundred_members_leaves_no_dead_port() {
    let mut b = NetBuilder::new(1100);
    let cfg = DifConfig::new("as").with_member_gc_grace_ms(2_000);
    let fab =
        Topology::barabasi_albert(100, 2, 1100).with_dif(cfg).with_prefix("as").materialize(&mut b);
    let members = fab.member_ipcps(&b);
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(600), Dur::from_secs(1));
    assert_eq!(ports(&net, &members), (394, 394), "one live port per adjacency end");
    let (hellos, _) = next_ten_seconds(&mut net, &fab, &members);
    assert_eq!(hellos, 7_880, "one hello per port per 500 ms period");

    let plan = Churn::new(1100)
        .with_counts(1, 1, 1, 1)
        .with_pacing(Dur::from_secs(12), Dur::from_secs(4), Dur::from_millis(1_200))
        .plan(&fab);
    ChurnRunner::new(plan, &net, members.clone()).finish(&mut net, Dur::ZERO);
    let left = invariants::settle(&mut net, &members, 240);
    assert!(left.is_empty(), "never settled: {left:?}");
    net.run_for(Dur::from_secs(5));
    assert_eq!(ports(&net, &members), (394, 394), "no port outlived its adjacency");
    assert_eq!(next_ten_seconds(&mut net, &fab, &members), (7_880, 0));
}
