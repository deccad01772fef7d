//! Property tests for enrollment invariants over random topologies and
//! wave schedules (offline `proptest` shim: 64 deterministic cases per
//! property, reproducible from the fixed per-test seed stream).
//!
//! The invariants guard the wave-parallel enrollment machinery: whatever
//! graph the planner spans and however admission interleaves, the DIF
//! must end healthy ([`invariants::check`]: every member enrolled, unique
//! addresses, blocks nested or disjoint), planner addresses must be the
//! DFS preorder 1..=n, the member records must name the blocks the
//! members hold, and the final outcome must be independent of the event
//! interleaving the schedule produces.

mod common;

use common::topology;
use proptest::prelude::*;
use rina::invariants;
use rina::ipcp::decode_member;
use rina::prelude::*;
use rina::scenario::Topology;
use std::collections::{BTreeMap, BTreeSet};

/// Deterministic schedule from a selector (intervals kept short so the
/// sequential baseline does not dominate test wall-clock).
fn schedule(kind: u8) -> EnrollSchedule {
    match kind % 2 {
        0 => EnrollSchedule::Waves { interval: Dur::from_millis(50) },
        _ => EnrollSchedule::Sequential { interval: Dur::from_millis(60) },
    }
}

struct Assembled {
    net: Net,
    ipcps: Vec<IpcpH>,
}

/// Build `top` under `sched` and run until the whole facility holds.
fn assemble(top: &Topology, sched: EnrollSchedule, seed: u64) -> Assembled {
    let mut b = NetBuilder::new(seed);
    b.set_enroll_schedule(sched);
    let fab = top.materialize(&mut b);
    let ipcps = fab.member_ipcps(&b);
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(60), Dur::from_millis(200));
    Assembled { net, ipcps }
}

/// The spanning DIF's member map (name → address), read from one
/// member's RIB.
fn member_map(a: &Assembled) -> BTreeMap<String, u64> {
    a.net
        .ipcp(a.ipcps[0])
        .rib
        .iter_prefix("/members/")
        .map(|o| {
            let addr = rina_wire::codec::Reader::new(o.value).varint().expect("member addr");
            (o.name.to_string(), addr)
        })
        .collect()
}

/// Every delegated block `[addr, hi]`, read from the member records in
/// one member's RIB, by address.
fn block_map(a: &Assembled) -> BTreeMap<u64, (u64, u64)> {
    a.net
        .ipcp(a.ipcps[0])
        .rib
        .iter_prefix("/members/")
        .map(|o| {
            let (addr, hi) = decode_member(o.value).expect("member record");
            (addr, (addr, hi))
        })
        .collect()
}

/// The block each member holds, by its address.
fn own_blocks(a: &Assembled) -> BTreeMap<u64, (u64, u64)> {
    a.ipcps.iter().map(|&h| (a.net.ipcp(h).addr, a.net.ipcp(h).block())).collect()
}

/// Run until the DIF of `a` is healthy, or fail with what is still wrong.
fn settle(a: &mut Assembled) {
    let left = invariants::settle(&mut a.net, &a.ipcps, 120);
    assert!(left.is_empty(), "not healthy: {left:?}");
}

/// One RIB object, flattened for ordering: (name, class, value, version,
/// origin).
type ObjKey = (String, String, Vec<u8>, u64, u64);

/// Full-RIB fingerprint of every member, order-normalized.
fn rib_fingerprint(a: &Assembled) -> Vec<Vec<ObjKey>> {
    a.ipcps
        .iter()
        .map(|&h| {
            let mut objs: Vec<_> = a
                .net
                .ipcp(h)
                .rib
                .snapshot()
                .iter()
                .map(|o| o.view())
                .map(|o| (o.name.into(), o.class.into(), o.value.to_vec(), o.version, o.origin))
                .collect();
            objs.sort();
            objs
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DIF ends healthy, and the planner's proposed addresses survive
    /// admission as exactly the range 1..=n.
    #[test]
    fn every_member_enrolls_with_unique_addresses(
        kind in 0u8..5,
        n in 4usize..11,
        sched in 0u8..2,
        seed in 0u64..1 << 32,
    ) {
        let top = topology(kind, n, seed);
        let mut a = assemble(&top, schedule(sched), seed);
        settle(&mut a);
        let addrs: BTreeSet<u64> = a.ipcps.iter().map(|&h| a.net.ipcp(h).addr).collect();
        let expect: BTreeSet<u64> = (1..=top.node_count() as u64).collect();
        prop_assert_eq!(addrs, expect);
    }

    /// Subtree prefix blocks nest or are disjoint — sibling subtrees
    /// never overlap — each member owns its block's first address, the
    /// bootstrap's block is the whole range, and the RIB records exactly
    /// the block each member holds.
    #[test]
    fn subtree_blocks_never_overlap(
        kind in 0u8..5,
        n in 4usize..11,
        sched in 0u8..2,
        seed in 0u64..1 << 32,
    ) {
        let top = topology(kind, n, seed);
        let mut a = assemble(&top, schedule(sched), seed);
        settle(&mut a);
        let blocks = own_blocks(&a);
        prop_assert_eq!(blocks.get(&1), Some(&(1, top.node_count() as u64)));
        prop_assert_eq!(block_map(&a), blocks);
    }

    /// The final membership is independent of event interleaving: the
    /// wave-parallel and sequential schedules converge to the same
    /// member addresses and the same delegated blocks.
    #[test]
    fn final_rib_independent_of_schedule(
        kind in 0u8..5,
        n in 4usize..10,
        seed in 0u64..1 << 32,
    ) {
        let top = topology(kind, n, seed);
        let waves = assemble(&top, schedule(0), seed);
        let seq = assemble(&top, schedule(1), seed);
        prop_assert_eq!(member_map(&waves), member_map(&seq), "waves vs sequential membership");
        prop_assert_eq!(block_map(&waves), block_map(&seq), "waves vs sequential blocks");
    }

    /// Churn preserves every standing invariant: after a random mix of
    /// graceful leaves, crash-fails (with rejoin), link flaps, and a
    /// partition-and-heal over a random topology, the DIF is healthy
    /// again — every member enrolled under a unique address inside the
    /// root block, every delegated block nested-or-disjoint with its
    /// base owned by its member, and **no live RIB object owned by a
    /// departed origin** — and the RIB records one block per member, the
    /// one it holds.
    #[test]
    fn churn_sequences_requiesce_with_nested_blocks_and_no_stale_state(
        kind in 0u8..5,
        n in 5usize..9,
        seed in 0u64..1 << 32,
    ) {
        let top = topology(kind, n, seed);
        let mut b = NetBuilder::new(seed);
        // Grace below the fail downtime, so crash-fails exercise the
        // sponsor-side GC path, not only identity reuse.
        let cfg = DifConfig::new("churned").with_member_gc_grace_ms(1_500);
        let fab = top.clone().with_dif(cfg).materialize(&mut b);
        let ipcps = fab.member_ipcps(&b);
        let mut net = b.build();
        net.run_until_assembled(Dur::from_secs(60), Dur::from_millis(500));

        let plan = Churn::new(seed ^ 0x5eed)
            .with_counts(1, 1, 1, 1)
            .with_pacing(Dur::from_secs(5), Dur::from_millis(2_500), Dur::from_secs(1))
            .plan(&fab);
        let mut runner = ChurnRunner::new(plan, &net, ipcps.clone());
        runner.finish(&mut net, Dur::from_secs(2));
        let mut a = Assembled { net, ipcps };
        settle(&mut a);
        prop_assert_eq!(block_map(&a), own_blocks(&a));
    }

    /// Same seed ⇒ identical final RIB: two runs of the same scenario
    /// produce byte-identical RIBs at every member.
    #[test]
    fn same_seed_same_final_rib(
        kind in 0u8..5,
        n in 4usize..10,
        sched in 0u8..2,
        seed in 0u64..1 << 32,
    ) {
        let top = topology(kind, n, seed);
        let one = assemble(&top, schedule(sched), seed);
        let two = assemble(&top, schedule(sched), seed);
        prop_assert_eq!(rib_fingerprint(&one), rib_fingerprint(&two));
    }
}
