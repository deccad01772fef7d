//! Property tests for partial RIB replication: the scoped `/dir`
//! policy over whole networks (offline `proptest` shim: 64
//! deterministic cases per property).
//!
//! The invariants pin the scope boundary itself:
//!
//! 1. a non-replicated object never appears in a non-owner's RIB — not
//!    at rest, not after arbitrary churn;
//! 2. resolving through the on-demand cache is equivalent to asking
//!    the owner (cached answers always match the owner's authoritative
//!    entry);
//! 3. after an owner departs, no member serves a stale cached answer
//!    past the member-GC grace;
//! 4. the whole machinery is deterministic: same seed ⇒ identical
//!    cache hit/miss/lookup counters, whatever host thread runs it.

mod common;

use common::topology;
use proptest::prelude::*;
use rina::invariants;
use rina::prelude::*;
use rina::scenario::Topology;
use std::collections::BTreeSet;

/// The spanning DIF with owner-held `/dir`, grace short enough for the
/// churn property to cross it inside a test-sized run.
fn scoped_cfg() -> DifConfig {
    DifConfig::new("scoped").with_scoped_dir(true).with_member_gc_grace_ms(1_500)
}

struct ScopedNet {
    net: Net,
    ipcps: Vec<IpcpH>,
    mesh: rina::scenario::PingMesh,
}

/// Build `top` as a scoped-/dir facility with echo responders on every
/// node and a seed-derived sampled ping workload, and run until the
/// whole facility holds.
fn assemble(top: &Topology, seed: u64) -> ScopedNet {
    let mut b = NetBuilder::new(seed);
    let fab = top.clone().with_dif(scoped_cfg()).materialize(&mut b);
    let ipcps = fab.member_ipcps(&b);
    let mesh = Workload::ping_sampled(&mut b, fab.dif, &fab.nodes, 2, seed, 1, 16);
    let mut net = b.build();
    net.run_until_assembled(Dur::from_secs(60), Dur::from_millis(200));
    net.run_for(Dur::from_secs(4));
    ScopedNet { net, ipcps, mesh }
}

/// Invariant 1 at one instant: every `/dir` object any member holds is
/// its own registration — foreign directory state never lands.
fn assert_dir_owner_held(net: &Net, ipcps: &[IpcpH]) {
    for &h in ipcps {
        let ip = net.ipcp(h);
        for o in ip.rib.iter_prefix("/dir/") {
            assert_eq!(
                o.origin, ip.addr,
                "{} holds foreign directory object {} of origin {}",
                ip.name, o.name, o.origin
            );
        }
    }
}

/// Invariant 2 at one instant: every cached answer anywhere matches
/// the owner's authoritative entry — same address, never ahead of the
/// owner's version.
fn assert_cache_matches_owners(net: &Net, ipcps: &[IpcpH]) {
    for &h in ipcps {
        for (name, addr, version) in net.ipcp(h).dir_cache_entries() {
            let owner = ipcps
                .iter()
                .find(|&&o| net.ipcp(o).addr == addr)
                .unwrap_or_else(|| panic!("cached answer {name} points at unknown member {addr}"));
            let obj =
                net.ipcp(*owner).rib.get(&name).unwrap_or_else(|| {
                    panic!("cached {name} has no authoritative entry at {addr}")
                });
            assert!(!obj.deleted, "cached {name} is tombstoned at its owner");
            assert_eq!(obj.origin, addr, "owner entry {name} not self-originated");
            let auth = rina_wire::codec::Reader::new(obj.value).varint().expect("dir addr");
            assert_eq!(auth, addr, "cache and owner disagree on {name}");
            assert!(
                version <= obj.version,
                "cache of {name} is ahead of its owner ({version} > {})",
                obj.version
            );
        }
    }
}

/// The per-member directory counters that must be bit-identical run to
/// run: (hits, misses, lookups sent, lookups answered, invalidations).
fn dir_counters(net: &Net, ipcps: &[IpcpH]) -> Vec<(u64, u64, u64, u64, u64)> {
    ipcps
        .iter()
        .map(|&h| {
            let s = &net.ipcp(h).stats;
            (
                s.dir_cache_hits,
                s.dir_cache_misses,
                s.dir_lookups_sent,
                s.dir_lookups_answered,
                s.dir_invalidations,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: after assembly, a random churn mix (graceful leave,
    /// crash-fail, link flap, partition-and-heal) and the DIF healthy
    /// again, no member holds a foreign `/dir` object, and every cached
    /// answer points at a live member.
    #[test]
    fn foreign_dir_state_never_lands_even_under_churn(
        kind in 0u8..5,
        n in 5usize..9,
        seed in 0u64..1 << 32,
    ) {
        let top = topology(kind, n, seed);
        let mut b = NetBuilder::new(seed);
        let fab = top.clone().with_dif(scoped_cfg()).materialize(&mut b);
        let ipcps = fab.member_ipcps(&b);
        let _mesh = Workload::ping_stride(&mut b, fab.dif, &fab.nodes, 1, 1, 16);
        let mut net = b.build();
        net.run_until_assembled(Dur::from_secs(60), Dur::from_millis(500));
        net.run_for(Dur::from_secs(2));

        let plan = Churn::new(seed ^ 0xd1f)
            .with_counts(1, 1, 1, 1)
            .with_pacing(Dur::from_secs(5), Dur::from_millis(2_500), Dur::from_secs(1))
            .plan(&fab);
        let mut runner = ChurnRunner::new(plan, &net, ipcps.clone());
        runner.finish(&mut net, Dur::from_secs(2));
        let left = invariants::settle(&mut net, &ipcps, 120);
        prop_assert!(left.is_empty(), "not healthy after churn: {left:?}");

        assert_dir_owner_held(&net, &ipcps);
        let live: BTreeSet<u64> = ipcps.iter().map(|&h| net.ipcp(h).addr).collect();
        for &h in &ipcps {
            for (name, addr, _) in net.ipcp(h).dir_cache_entries() {
                prop_assert!(
                    live.contains(&addr),
                    "cached {name} points at departed member {addr}"
                );
            }
        }
    }

    /// Invariant 2: lookup-through-cache ≡ lookup-at-owner. The pings
    /// all complete (resolution works end to end) and every cached
    /// answer anywhere equals the owner's authoritative entry.
    #[test]
    fn cached_resolution_matches_the_owner(
        kind in 0u8..5,
        n in 4usize..10,
        seed in 0u64..1 << 32,
    ) {
        let top = topology(kind, n, seed);
        let a = assemble(&top, seed);
        prop_assert!(a.mesh.all_done(&a.net), "pings did not all resolve and complete");
        assert_dir_owner_held(&a.net, &a.ipcps);
        assert_cache_matches_owners(&a.net, &a.ipcps);
        // The workload exercised the machinery, not just registered it.
        let total: u64 =
            a.ipcps.iter().map(|&h| a.net.ipcp(h).stats.dir_lookups_sent).sum();
        prop_assert!(total > 0, "no on-demand lookup ever left a member");
    }

    /// Invariant 3: once an owner departs gracefully, no member still
    /// holds a cached answer pointing at it past the member-GC grace,
    /// and its directory entries are gone DIF-wide.
    #[test]
    fn departed_owner_is_never_served_past_grace(
        kind in 0u8..5,
        n in 4usize..9,
        seed in 0u64..1 << 32,
    ) {
        let top = topology(kind, n, seed);
        let a = assemble(&top, seed);
        let mut net = a.net;
        // Deterministic victim; vertex 0 (bootstrap) stays.
        let v = 1 + (seed as usize) % (top.node_count() - 1);
        let victim_addr = net.ipcp(a.ipcps[v]).addr;
        net.announce_leave(a.ipcps[v]);
        // Past linger + grace + a reconvergence margin.
        net.run_for(Dur::from_secs(4));
        for (i, &h) in a.ipcps.iter().enumerate() {
            if i == v {
                continue;
            }
            let ip = net.ipcp(h);
            for (name, addr, _) in ip.dir_cache_entries() {
                prop_assert!(
                    addr != victim_addr,
                    "{} still serves {} from departed owner {}",
                    ip.name, name, victim_addr
                );
            }
            prop_assert!(
                ip.rib.iter_prefix("/dir/").all(|o| o.origin != victim_addr),
                "departed owner's directory entries survive at {}",
                ip.name
            );
        }
    }

    /// Invariant 4: same seed ⇒ identical directory counters at any
    /// thread count — the run on the main thread and runs on spawned
    /// host threads produce bit-identical hit/miss/lookup statistics.
    #[test]
    fn dir_counters_deterministic_across_threads(
        kind in 0u8..5,
        n in 4usize..8,
        seed in 0u64..1 << 32,
    ) {
        let run = move || {
            let top = topology(kind, n, seed);
            let a = assemble(&top, seed);
            dir_counters(&a.net, &a.ipcps)
        };
        let base = run();
        #[expect(
            clippy::disallowed_methods,
            reason = "the property under test is that host threads cannot change a run: whole sims move to spawned threads and are joined before comparing"
        )]
        let threads: Vec<_> = (0..2).map(|_| std::thread::spawn(run)).collect();
        for t in threads {
            let theirs = t.join().expect("worker run panicked");
            prop_assert_eq!(&theirs, &base, "counters diverged across host threads");
        }
    }
}
