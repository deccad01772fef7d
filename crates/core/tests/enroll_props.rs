//! Property tests for enrollment invariants over random topologies and
//! wave schedules (offline `proptest` shim: 64 deterministic cases per
//! property, reproducible from the fixed per-test seed stream).
//!
//! The invariants guard the wave-parallel enrollment machinery: whatever
//! graph the planner spans and however admission interleaves, every
//! member must end enrolled, planner addresses must be the unique DFS
//! preorder 1..=n, sibling subtree blocks must never overlap, and the
//! final outcome must be independent of the event interleaving the
//! schedule produces.

use proptest::prelude::*;
use rina::ipcp::{decode_block, BLOCK_PREFIX};
use rina::prelude::*;
use rina::scenario::Topology;
use std::collections::{BTreeMap, BTreeSet};

/// Run in hello-period steps until the stack holds again after churn
/// (bounded; the caller asserts the stronger invariants afterwards).
fn requiesce(net: &mut Net) {
    for _ in 0..120 {
        net.run_for(Dur::from_millis(500));
        if net.assembled() {
            net.run_for(Dur::from_secs(3));
            return;
        }
    }
}

/// Deterministic topology from a (kind, size, seed) triple. Sizes stay
/// small so 64 debug-mode assemblies per property stay fast.
fn topology(kind: u8, n: usize, seed: u64) -> Topology {
    match kind % 5 {
        0 => Topology::line(n),
        1 => Topology::star(n),
        2 => Topology::ring(n.max(3)),
        3 => Topology::tree(2 + (n % 2), 2),
        _ => Topology::barabasi_albert(n.max(4), 2, seed),
    }
}

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
            let addr = rina_wire::codec::Reader::new(&o.value).varint().expect("member addr");
            (o.name.clone(), addr)
        })
        .collect()
}

/// Every delegated block, read from one member's RIB: (owner address
/// parsed from the object name, `[lo, hi]`).
fn block_map(a: &Assembled) -> Vec<(u64, (u64, u64))> {
    a.net
        .ipcp(a.ipcps[0])
        .rib
        .iter_prefix(BLOCK_PREFIX)
        .map(|o| {
            let owner = o.name[BLOCK_PREFIX.len()..].parse::<u64>().expect("block owner");
            (owner, decode_block(&o.value).expect("block value"))
        })
        .collect()
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
                .into_iter()
                .map(|o| (o.name, o.class, o.value.to_vec(), o.version, o.origin))
                .collect();
            objs.sort();
            objs
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every member ends enrolled, and the planner's proposed addresses
    /// survive admission as exactly the unique range 1..=n.
    #[test]
    fn every_member_enrolls_with_unique_addresses(
        kind in 0u8..5,
        n in 4usize..11,
        sched in 0u8..2,
        seed in 0u64..1 << 32,
    ) {
        let top = topology(kind, n, seed);
        let a = assemble(&top, schedule(sched), seed);
        let members = top.node_count();
        let mut addrs = BTreeSet::new();
        for &h in &a.ipcps {
            let ip = a.net.ipcp(h);
            prop_assert!(ip.is_enrolled(), "{} not enrolled", ip.name);
            prop_assert!(addrs.insert(ip.addr), "duplicate address {}", ip.addr);
        }
        let expect: BTreeSet<u64> = (1..=members as u64).collect();
        prop_assert_eq!(addrs, expect);
    }

    /// Subtree prefix blocks nest or are disjoint — sibling subtrees
    /// never overlap — and each member owns its block's first address.
    #[test]
    fn subtree_blocks_never_overlap(
        kind in 0u8..5,
        n in 4usize..11,
        sched in 0u8..2,
        seed in 0u64..1 << 32,
    ) {
        let top = topology(kind, n, seed);
        let a = assemble(&top, schedule(sched), seed);
        let members = top.node_count() as u64;
        let blocks = block_map(&a);
        prop_assert_eq!(blocks.len(), a.ipcps.len(), "one block per member");
        for &(owner, (lo, hi)) in &blocks {
            prop_assert!(lo <= hi && lo >= 1 && hi <= members, "block ({lo},{hi})/{members}");
            prop_assert_eq!(owner, lo, "a member sits at its block's base");
        }
        for (i, &(_, (a0, a1))) in blocks.iter().enumerate() {
            for &(_, (b0, b1)) in &blocks[i + 1..] {
                let disjoint = a1 < b0 || b1 < a0;
                let nested = (a0 >= b0 && a1 <= b1) || (b0 >= a0 && b1 <= a1);
                prop_assert!(
                    disjoint || nested,
                    "blocks ({a0},{a1}) and ({b0},{b1}) partially overlap"
                );
            }
        }
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
        let sort = |mut v: Vec<(u64, (u64, u64))>| {
            v.sort();
            v
        };
        prop_assert_eq!(
            sort(block_map(&waves)),
            sort(block_map(&seq)),
            "waves vs sequential blocks"
        );
    }

    /// Churn preserves every standing invariant: after a random mix of
    /// graceful leaves, crash-fails (with rejoin), link flaps, and a
    /// partition-and-heal over a random topology, the facility
    /// re-quiesces with every member enrolled under a unique in-range
    /// address, every delegated block nested-or-disjoint with its base
    /// owned by its member, and **no live RIB object owned by a departed
    /// origin** — departed state never outlives its owner.
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
        requiesce(&mut net);

        let members = top.node_count() as u64;
        let mut addrs = BTreeSet::new();
        for &h in &ipcps {
            let ip = net.ipcp(h);
            prop_assert!(ip.is_enrolled(), "{} not enrolled after churn", ip.name);
            prop_assert!(
                ip.addr >= 1 && ip.addr <= members,
                "address {} escaped the root block 1..={members}",
                ip.addr
            );
            prop_assert!(addrs.insert(ip.addr), "duplicate address {}", ip.addr);
        }
        let a = Assembled { net, ipcps };
        let blocks = block_map(&a);
        prop_assert_eq!(blocks.len(), a.ipcps.len(), "one live block per member: {:?}", blocks);
        for &(owner, (lo, hi)) in &blocks {
            prop_assert!(lo <= hi && lo >= 1 && hi <= members, "block ({lo},{hi})/{members}");
            prop_assert_eq!(owner, lo, "a member sits at its block's base");
        }
        for (i, &(_, (a0, a1))) in blocks.iter().enumerate() {
            for &(_, (b0, b1)) in &blocks[i + 1..] {
                let disjoint = a1 < b0 || b1 < a0;
                let nested = (a0 >= b0 && a1 <= b1) || (b0 >= a0 && b1 <= a1);
                prop_assert!(
                    disjoint || nested,
                    "blocks ({a0},{a1}) and ({b0},{b1}) partially overlap after churn"
                );
            }
        }
        // No member holds a live object from a departed origin.
        for (i, &h) in a.ipcps.iter().enumerate() {
            for o in a.net.ipcp(h).rib.iter_prefix("/") {
                prop_assert!(
                    o.origin == 0 || addrs.contains(&o.origin),
                    "member {i} holds stale {} of departed origin {}",
                    o.name,
                    o.origin
                );
            }
        }
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
