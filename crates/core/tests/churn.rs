//! Continuous-dynamics integration: the [`Churn`] workload against live
//! DIFs.
//!
//! The invariants under churn (DESIGN.md §10):
//! - a graceful leaver's RIB objects are tombstoned DIF-wide before it
//!   disconnects, and a rejoiner gets a **carved, aggregatable** block
//!   from its sponsor (not a fragmenting `max+1` singleton);
//! - a crashed member that stays silent past the sponsor's grace is
//!   garbage-collected (deletion floods), and one that returns quickly
//!   re-enrolls under its old identity with nothing purged;
//! - flaps and partitions reroute and heal without purging or leaking
//!   any member's state;
//! - at quiescence the DIF is healthy by [`rina::invariants::check`]:
//!   among the rest, every live RIB object's origin is a current member —
//!   departed state never outlives its owner;
//! - a member's (N-1) ports live exactly as long as its adjacencies: once
//!   the churn settles it holds the ports it held before, all live, and
//!   says hello at the rate it did;
//! - the whole timeline is deterministic in its seeds.

use rina::invariants;
use rina::prelude::*;

/// An `n`-member Barabási–Albert DIF with the given failure-GC grace,
/// assembled and settled. Returns the runnable net, the fabric, and the
/// member IPC process per vertex.
fn build(n: usize, seed: u64, grace_ms: u64) -> (Net, Fabric, Vec<IpcpH>) {
    let mut b = NetBuilder::new(seed);
    let cfg = DifConfig::new("churn").with_member_gc_grace_ms(grace_ms);
    let fab = Topology::barabasi_albert(n, 2, seed).with_dif(cfg).materialize(&mut b);
    let members = fab.member_ipcps(&b);
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(120), Dur::from_secs(1));
    (net, fab, members)
}

/// Run until the DIF is healthy again ([`invariants::settle`]).
fn wait_quiescent(net: &mut Net, members: &[IpcpH]) {
    let left = invariants::settle(net, members, 120);
    assert!(left.is_empty(), "never quiesced: {left:?}");
}

fn agg_sum(net: &Net, members: &[IpcpH]) -> usize {
    members.iter().map(|&h| net.ipcp(h).fwd().aggregated_len()).sum()
}

/// How many (N-1) ports the members hold, and how many of them are up
/// with a peer.
fn ports(net: &Net, members: &[IpcpH]) -> (usize, usize) {
    let all: Vec<_> = members.iter().flat_map(|&h| net.ipcp(h).n1_ports()).collect();
    (all.len(), all.iter().filter(|p| p.up && p.peer_addr != 0).count())
}

/// Hellos the members send over the next `d`.
fn hellos_over(net: &mut Net, members: &[IpcpH], d: Dur) -> u64 {
    let sent = |net: &Net| members.iter().map(|&h| net.ipcp(h).stats.hello_tx).sum::<u64>();
    let before = sent(net);
    net.run_for(d);
    sent(net) - before
}

/// Run `plan` to its end, let the DIF settle and run 5 s more; the
/// members must then hold the ports they held before, all live, and say
/// hello at the rate they did.
fn ports_track_adjacencies(mut net: Net, plan: ChurnPlan, members: &[IpcpH], held: usize) {
    assert_eq!(ports(&net, members), (held, held), "one live port per adjacency end");
    let rate = hellos_over(&mut net, members, Dur::from_secs(10));
    ChurnRunner::new(plan, &net, members.to_vec()).finish(&mut net, Dur::ZERO);
    wait_quiescent(&mut net, members);
    net.run_for(Dur::from_secs(5));
    assert_eq!(ports(&net, members), (held, held), "no port outlived its adjacency");
    assert_eq!(hellos_over(&mut net, members, Dur::from_secs(10)), rate);
}

/// A leave, a crash-restart, a flap and a partition: every adjacency
/// they cut comes back on the ports it had.
#[test]
fn churn_leaves_each_adjacency_end_one_live_port() {
    let (net, fab, members) = build(30, 5, 2_000);
    let plan = Churn::new(5)
        .with_counts(1, 1, 1, 1)
        .with_pacing(Dur::from_secs(12), Dur::from_secs(4), Dur::from_millis(1_200))
        .plan(&fab);
    ports_track_adjacencies(net, plan, &members, 114);
}

/// A single flap: both ends' ports over the link expire and release the
/// flow, and the planned end's next flow comes back on the same ports.
#[test]
fn a_flap_rebinds_the_ports_it_took_down() {
    let (net, fab, members) = build(10, 44, 10_000);
    let plan = Churn::new(17)
        .with_counts(0, 0, 1, 0)
        .with_pacing(Dur::from_secs(5), Dur::from_millis(2_500), Dur::from_secs(1))
        .plan(&fab);
    ports_track_adjacencies(net, plan, &members, 34);
}

#[test]
fn graceful_leave_is_tombstoned_everywhere_and_rejoin_stays_aggregated() {
    let (mut net, fab, members) = build(10, 41, 10_000);
    let agg_before = agg_sum(&net, &members);
    let plan = Churn::new(7)
        .with_counts(1, 0, 0, 0)
        .with_pacing(Dur::from_secs(6), Dur::from_secs(3), Dur::from_millis(1200))
        .plan(&fab);
    let victim = plan
        .events
        .iter()
        .find_map(|(_, a)| match a {
            ChurnAction::Leave(m) => Some(*m),
            _ => None,
        })
        .expect("plan has a leave");
    let old_addr = net.ipcp(members[victim]).addr;
    let mut runner = ChurnRunner::new(plan, &net, members.clone());

    // Past announce + linger (leave at 6 s, disconnect at 7.2 s): the
    // deletion floods must already have drained through the still-up
    // links — every remaining member has tombstoned the leaver.
    runner.advance(&mut net, Dur::from_secs(8));
    for (i, &h) in members.iter().enumerate() {
        if i == victim {
            continue;
        }
        let live = net.ipcp(h).rib.live_of_origin(old_addr);
        assert!(live.is_empty(), "member {i} still holds {live:?} of the leaver");
    }

    // Heal + rejoin: the fresh process re-enrolls and the DIF quiesces.
    runner.finish(&mut net, Dur::from_secs(2));
    wait_quiescent(&mut net, &members);

    // The rejoiner's grant was carved from its sponsor's block, so the
    // aggregated tables stay at their pre-churn size (± ECMP jitter) —
    // a `max_addr + 1` singleton would add a non-aggregatable range to
    // every member's table.
    let agg_after = agg_sum(&net, &members);
    assert!(
        agg_after <= agg_before + 2,
        "rejoin fragmented the tables: aggregated {agg_before} -> {agg_after}"
    );
}

#[test]
fn crashed_member_is_purged_after_grace_and_rejoins_cleanly() {
    // Grace well below the downtime: the sponsor must declare the silent
    // member failed and flood the deletions before it returns.
    let (mut net, fab, members) = build(10, 42, 1_500);
    let plan = Churn::new(11)
        .with_counts(0, 1, 0, 0)
        .with_pacing(Dur::from_secs(8), Dur::from_secs(6), Dur::from_secs(1))
        .plan(&fab);
    let victim = plan
        .events
        .iter()
        .find_map(|(_, a)| match a {
            ChurnAction::Respawn(m) => Some(*m),
            _ => None,
        })
        .expect("plan has a fail");
    let old_addr = net.ipcp(members[victim]).addr;
    let mut runner = ChurnRunner::new(plan, &net, members.clone());

    // Just before the heal (fail at 8 s, heal at 14 s): adjacency expiry
    // (~1.5 s) plus the 1.5 s grace has long passed — the sponsor purged
    // the crashed member's objects DIF-wide.
    runner.advance(&mut net, Dur::from_millis(13_500));
    let purged: u64 = members.iter().map(|&h| net.ipcp(h).stats.members_purged).sum();
    assert!(purged >= 1, "no sponsor purged the silent member");
    for (i, &h) in members.iter().enumerate() {
        if i == victim {
            continue;
        }
        let live = net.ipcp(h).rib.live_of_origin(old_addr);
        assert!(live.is_empty(), "member {i} still holds {live:?} after the purge");
    }

    runner.finish(&mut net, Dur::from_secs(2));
    wait_quiescent(&mut net, &members);
}

#[test]
fn fast_rejoin_reuses_identity_and_is_never_purged() {
    // Grace far above the downtime: the member returns before the
    // sponsor gives up on it, re-enrolls under its old name, and gets
    // its old address back — no purge, no reassert churn.
    let (mut net, fab, members) = build(10, 43, 10_000);
    let plan = Churn::new(13)
        .with_counts(0, 1, 0, 0)
        .with_pacing(Dur::from_secs(6), Dur::from_secs(3), Dur::from_secs(1))
        .plan(&fab);
    let victim = plan
        .events
        .iter()
        .find_map(|(_, a)| match a {
            ChurnAction::Respawn(m) => Some(*m),
            _ => None,
        })
        .expect("plan has a fail");
    let old_addr = net.ipcp(members[victim]).addr;
    let mut runner = ChurnRunner::new(plan, &net, members.clone());
    runner.finish(&mut net, Dur::from_secs(2));
    wait_quiescent(&mut net, &members);

    assert_eq!(
        net.ipcp(members[victim]).addr,
        old_addr,
        "a fast rejoiner keeps its address (identity reuse)"
    );
    let purged: u64 = members.iter().map(|&h| net.ipcp(h).stats.members_purged).sum();
    assert_eq!(purged, 0, "nothing should be purged inside the grace");
}

#[test]
fn flaps_and_partitions_heal_with_no_purges_or_address_changes() {
    let (mut net, fab, members) = build(10, 44, 10_000);
    let addrs_before: Vec<u64> = members.iter().map(|&h| net.ipcp(h).addr).collect();
    let plan = Churn::new(17)
        .with_counts(0, 0, 2, 1)
        .with_pacing(Dur::from_secs(5), Dur::from_millis(2_500), Dur::from_secs(1))
        .plan(&fab);
    let mut runner = ChurnRunner::new(plan, &net, members.clone());
    runner.finish(&mut net, Dur::from_secs(2));
    wait_quiescent(&mut net, &members);

    let addrs_after: Vec<u64> = members.iter().map(|&h| net.ipcp(h).addr).collect();
    assert_eq!(addrs_before, addrs_after, "links flapped, membership did not");
    let purged: u64 = members.iter().map(|&h| net.ipcp(h).stats.members_purged).sum();
    assert_eq!(purged, 0, "a flap or partition must never purge a member");
}

/// An `n`-machine line whose last machine hosts `sink`, assembled and
/// settled: the net with the members of the last machine's neighbour,
/// its sponsor, and of the last machine, the joiner.
fn line_with_sink(n: usize) -> (Net, IpcpH, IpcpH) {
    let mut b = NetBuilder::new(46);
    let fab = Topology::line(n).materialize(&mut b);
    let (s, j) = (fab.node(n - 2), fab.last());
    b.app(j, AppName::new("sink"), fab.dif, SinkApp::default());
    let (sponsor, joiner) = (b.ipcp_of(fab.dif, s), b.ipcp_of(fab.dif, j));
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(30), Dur::from_secs(1));
    (net, sponsor, joiner)
}

/// Crash-restart `joiner` and run until the fresh process has enrolled
/// again and the DIF has settled.
fn respawn_and_reassemble(net: &mut Net, joiner: IpcpH) {
    net.respawn_ipcp(joiner);
    net.run_for(Dur::from_millis(10));
    assert!(!net.ipcp(joiner).is_enrolled(), "the fresh process starts outside the DIF");
    net.run_until_assembled(Dur::from_secs(10), Dur::from_secs(1));
}

/// A crash-restart forgets nothing the joiner's applications asked for:
/// the fresh process registers `sink` again, and the sponsor holds the
/// new registration, live and pointing at the joiner. The fresh process
/// has learned the DIF — its predecessor's registration included — before
/// it writes, so its write lands above the old version whatever the
/// RIB's size: at 2 members, and at 40, where the sync set takes many
/// batches.
#[test]
fn registration_survives_a_crash_restart() {
    for n in [2, 40] {
        let (mut net, sponsor, joiner) = line_with_sink(n);
        let sink = AppName::new("sink");
        let entry = |net: &Net| {
            let version = net.ipcp(sponsor).rib.get("/dir/sink").map(|o| o.version);
            (net.ipcp(sponsor).dir_lookup(&sink), version)
        };
        let (at, before) = entry(&net);
        assert_eq!(at, Some(net.ipcp(joiner).addr));
        respawn_and_reassemble(&mut net, joiner);
        let (at, after) = entry(&net);
        assert_eq!(at, Some(net.ipcp(joiner).addr));
        assert!(after > before, "{n} members: not written again: {before:?} -> {after:?}");
    }
}

/// A name the joiner unregistered stays unregistered when its process
/// restarts: the fresh process carries the registrations its
/// predecessor held, not every name ever registered on the node.
#[test]
fn an_unregistered_name_stays_gone_across_a_crash_restart() {
    let (mut net, sponsor, joiner) = line_with_sink(2);
    let sink = AppName::new("sink");
    net.ipcp_mut(joiner).dir_unregister(&sink);
    net.run_for(Dur::from_secs(1));
    assert_eq!(net.ipcp(sponsor).dir_lookup(&sink), None, "the tombstone reached the sponsor");
    respawn_and_reassemble(&mut net, joiner);
    assert!(net.ipcp(joiner).is_enrolled());
    assert_eq!(net.ipcp(sponsor).dir_lookup(&sink), None);
}

#[test]
fn churn_runs_are_deterministic_in_their_seeds() {
    let fingerprint = || {
        let (mut net, fab, members) = build(9, 45, 2_000);
        let plan = Churn::new(19)
            .with_counts(1, 1, 1, 1)
            .with_pacing(Dur::from_secs(6), Dur::from_secs(3), Dur::from_secs(1))
            .plan(&fab);
        let mut runner = ChurnRunner::new(plan, &net, members.clone());
        runner.finish(&mut net, Dur::from_secs(4));
        net.run_for(Dur::from_secs(10));
        members
            .iter()
            .map(|&h| {
                let i = net.ipcp(h);
                (i.addr, i.rib.object_count(), i.rib.digest())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(fingerprint(), fingerprint(), "same seeds, same final state");
}
