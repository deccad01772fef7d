//! E11 (new): continuous dynamics — churn, failure, and partition on a
//! live scale-free DIF.
//!
//! The paper's architecture claims its strongest ground under *change*:
//! enrollment (§5.2) is an ordinary operation, not an exceptional one,
//! so members joining, leaving, crashing, and partitioning should cost
//! routine mechanism — deletion floods and digest anti-entropy for
//! state, delta-classified SPF repairs for routes — and leave no scars.
//! This experiment runs a [`Churn`] timeline (graceful leaves with
//! rejoin, crash-fails past the sponsor's GC grace, link flaps, a
//! partition-and-heal) against an assembled Barabási–Albert DIF and
//! measures exactly the two things that historically rot under churn:
//!
//! * **Forwarding-table fragmentation** — a rejoiner granted a
//!   `max_addr + 1` singleton adds one non-aggregatable range to every
//!   member's table, forever. With sponsors carving rejoin grants from
//!   their own prefix blocks, the aggregated size must return to its
//!   pre-churn figure.
//! * **Stale state** — departed members' RIB objects (blocks, LSAs,
//!   directory entries) must be tombstoned DIF-wide, not linger until
//!   they mislead routing or admission.
//!
//! Reachability is sampled between disturbances by walking the live
//! forwarding tables over a seeded rotation ring (every member sources
//! and receives one probe per sample, [`Tables::ring`]), masked by the
//! plan's disturbance windows plus a reconvergence margin. What counts
//! as re-converged is [`rina::invariants`]' one definition of a healthy
//! DIF.

use crate::report::{Col, Scalar};
use crate::{row, timed, ExperimentRun, Scenario, Totals};
use rina::invariants::{self, Tables};
use rina::prelude::*;

row! {
    /// Result of one churn run.
    pub struct ChurnRow {
        /// DIF size (members).
        members: usize,
        /// Disturbance counts: graceful leaves (with rejoin).
        leaves: usize,
        /// Crash-fails (downtime beyond the sponsor's GC grace).
        fails: usize,
        /// Single-link flaps.
        flaps: usize,
        /// Partition-and-heal events.
        partitions: usize,
        /// Enrollment makespan of the initial assembly (virtual s).
        assemble_s: f64,
        /// Length of the disturbance timeline (virtual s).
        churn_s: f64,
        /// Virtual time from the last heal until the DIF was healthy again
        /// ([`rina::invariants::check`] found nothing).
        reconverge_s: f64,
        /// Reachability samples taken outside disturbance windows.
        calm_samples: usize,
        /// Worst sampled reachability fraction outside disturbance windows.
        reach_min: f64,
        /// Σ aggregated forwarding entries DIF-wide before churn.
        agg_before: usize,
        /// Σ aggregated forwarding entries DIF-wide at quiescence — bounded
        /// by `agg_before` (± ECMP jitter) when rejoin grants aggregate.
        agg_after: usize,
        /// Largest Σ aggregated entries sampled outside disturbance windows.
        agg_peak_calm: usize,
        /// Live RIB objects of departed origins anywhere at quiescence
        /// (must be zero).
        stale_final: usize,
        /// Members declared failed and garbage-collected by their sponsors.
        purged: u64,
        /// Own objects re-asserted over wrongful tombstones.
        reasserts: u64,
        /// Wall-clock cost of the whole run (s).
        wall_s: f64,
        /// The DIF re-quiesced within the measurement budget.
        converged: bool,
    }
}

/// The E11 table of the `experiments` binary.
pub const TABLE: &[Col<ChurnRow>] = &[
    ("members", |r| r.members.cell()),
    ("leaves", |r| r.leaves.cell()),
    ("fails", |r| r.fails.cell()),
    ("flaps", |r| r.flaps.cell()),
    ("parts", |r| r.partitions.cell()),
    ("assemble (s)", |r| r.assemble_s.cell()),
    ("churn (s)", |r| r.churn_s.cell()),
    ("reconverge (s)", |r| r.reconverge_s.cell()),
    ("reach min", |r| r.reach_min.cell()),
    ("agg before", |r| r.agg_before.cell()),
    ("agg after", |r| r.agg_after.cell()),
    ("agg peak", |r| r.agg_peak_calm.cell()),
    ("stale", |r| r.stale_final.cell()),
    ("purged", |r| r.purged.cell()),
    ("converged", |r| r.converged.cell()),
];

/// Run the default mixed workload (two of each disturbance, one
/// partition) against an `n`-member Barabási–Albert DIF.
pub fn run(n: usize, seed: u64) -> ChurnRow {
    run_with_cfg(n, seed, (2, 2, 2, 1), false)
}

/// What one churn timeline measured (the shared part of an E11 row and
/// a sweep churn cell).
#[derive(Clone, Copy, Debug)]
pub struct ChurnOutcome {
    /// Length of the disturbance timeline (virtual s).
    pub churn_s: f64,
    /// Virtual time from the last heal until the DIF re-quiesced.
    pub reconverge_s: f64,
    /// Reachability samples taken outside disturbance windows.
    pub calm_samples: usize,
    /// Worst sampled reachability fraction outside disturbance windows.
    pub reach_min: f64,
    /// Largest Σ aggregated entries sampled outside disturbance windows
    /// (at least the pre-churn figure).
    pub agg_peak_calm: usize,
    /// The DIF re-quiesced within the measurement budget.
    pub converged: bool,
}

/// The continuous-dynamics phase, written once for E11 and the sweep's
/// churn cells: plan a seeded [`Churn`] timeline of `counts` (leaves,
/// fails, flaps, partitions) against the assembled `fab`, advance it in
/// half-second slices sampling reachability and table size in the calm
/// stretches, apply what remains, then step until the facility
/// is healthy again ([`invariants::settle`]).
pub fn churn_phase(
    run: &mut ExperimentRun,
    fab: &Fabric,
    members: &[IpcpH],
    seed: u64,
    (leaves, fails, flaps, partitions): (usize, usize, usize, usize),
) -> ChurnOutcome {
    // 12 s epochs leave a measurable calm window between one heal's
    // convergence margin and the next disturbance. A 5 s downtime
    // outlasts failure detection plus the 2 s GC grace whatever the
    // phase: the victim's last hello is at most one 500 ms period old
    // when it crashes, its port expires after 3 missed periods on the
    // next tick (by 2.0 s), and the grace is checked on the same tick
    // (by 2.5 s more), so a crash-fail is purged by 4.5 s, before the
    // member comes back.
    let plan = Churn::new(seed ^ 0x00c4_u64)
        .with_counts(leaves, fails, flaps, partitions)
        .with_pacing(Dur::from_secs(12), Dur::from_secs(5), Dur::from_millis(1_200))
        .plan(fab);
    let horizon = plan.horizon();
    // Convergence margin after each heal before steady-state sampling
    // resumes: adjacency expiry (~1.5 s), re-enrollment rounds, and the
    // reassert round-trips when a rejoin races an in-flight purge flood.
    let margin = Dur::from_secs(5);
    let mut runner = ChurnRunner::new(plan, &run.net, members.to_vec());

    let mut out = ChurnOutcome {
        churn_s: horizon.as_secs_f64(),
        reconverge_s: 0.0,
        calm_samples: 0,
        reach_min: 1.0,
        agg_peak_calm: Totals::of(&run.net, members, &[]).agg_len,
        converged: false,
    };
    let mut tick = 0u64;
    while runner.elapsed(&run.net) < horizon {
        runner.advance(&mut run.net, Dur::from_millis(500));
        tick += 1;
        // "Calm" = outside every disturbance window (plus margin) *and*
        // re-assembled: while a rejoiner's flows are still re-allocating
        // the DIF is by definition inside a convergence window.
        if !runner.disturbed(&run.net, margin) && run.net.assembled() {
            out.reach_min = out.reach_min.min(Tables::of(&run.net, members).ring(tick));
            out.calm_samples += 1;
            out.agg_peak_calm = out.agg_peak_calm.max(Totals::of(&run.net, members, &[]).agg_len);
        }
    }
    runner.finish(&mut run.net, Dur::ZERO);

    let heal_at = run.net.sim.now();
    out.converged = invariants::settle(&mut run.net, members, 240).is_empty();
    out.reconverge_s = run.net.sim.now().since(heal_at).as_secs_f64();
    out
}

/// Run a churn timeline with explicit disturbance `counts` (leaves,
/// fails, flaps, partitions), optionally under the partial-replication
/// policy (owner-held `/dir` resolved on demand). The scoped variant
/// also places a stride ping workload so real flows resolve names
/// through the directory machinery while the disturbances land.
pub fn run_with_cfg(
    n: usize,
    seed: u64,
    counts: (usize, usize, usize, usize),
    scoped_dir: bool,
) -> ChurnRow {
    let (row, wall_s) = timed(|| {
        let mut s = Scenario::new("e11-churn", seed);
        // Grace well below the fail downtime (see `churn_phase`): crashes
        // are garbage-collected by their sponsors, not ridden out.
        let cfg = DifConfig::new("as").with_member_gc_grace_ms(2_000).with_scoped_dir(scoped_dir);
        let fab = Topology::barabasi_albert(n, 2, seed)
            .with_dif(cfg)
            .with_prefix("as")
            .materialize(&mut s);
        let members = fab.member_ipcps(&s);
        if scoped_dir {
            let _ = Workload::ping_stride(&mut s, fab.dif, &fab.nodes, 1, 1, 16);
        }
        let limit = Dur::from_secs(600) * (1 + n as u64 / 500);
        let mut run = s.assemble(limit, Dur::from_secs(1));
        let agg_before = Totals::of(&run.net, &members, &[]).agg_len;
        let churn = churn_phase(&mut run, &fab, &members, seed, counts);

        let net = &run.net;
        let t = Totals::of(net, &members, &[]);
        ChurnRow {
            members: n,
            leaves: counts.0,
            fails: counts.1,
            flaps: counts.2,
            partitions: counts.3,
            assemble_s: run.assemble_secs(),
            churn_s: churn.churn_s,
            reconverge_s: churn.reconverge_s,
            calm_samples: churn.calm_samples,
            reach_min: churn.reach_min,
            agg_before,
            agg_after: t.agg_len,
            agg_peak_calm: churn.agg_peak_calm,
            stale_final: invariants::stale_objects(net, &members).len(),
            purged: t.purged,
            reasserts: t.reasserts,
            wall_s: 0.0,
            converged: churn.converged,
        }
    });
    ChurnRow { wall_s, ..row }
}

#[cfg(test)]
mod tests {
    /// The acceptance scenario at debug-friendly scale: a 30-member DIF
    /// rides out the full mixed workload and re-quiesces clean.
    #[test]
    fn thirty_member_dif_survives_mixed_churn() {
        let r = super::run(30, 71);
        assert!(r.converged, "never re-quiesced: {r:?}");
        assert!(r.calm_samples > 0, "no calm window was ever sampled: {r:?}");
        assert_eq!(r.stale_final, 0, "departed state leaked: {r:?}");
        assert!(r.purged >= 1, "the crash-fails never hit sponsor GC: {r:?}");
        // Rejoin grants are carved from sponsor blocks, so the tables
        // return to their pre-churn aggregated size (± ECMP jitter).
        assert!(
            r.agg_after <= r.agg_before + r.members / 10,
            "churn fragmented the tables: {} -> {}",
            r.agg_before,
            r.agg_after
        );
        assert!(r.reach_min >= 0.99, "reachability dipped outside disturbance windows: {r:?}");
    }

    /// The table's 30-member row heals within one hello period of the
    /// last heal: the spanning tree heals with the routes, and anti-entropy
    /// pulls at the first hello that differs.
    #[test]
    fn thirty_member_table_row_reconverges_within_half_a_second() {
        let r = super::run(30, 1130);
        assert!(r.converged, "never re-quiesced: {r:?}");
        assert!(r.reconverge_s <= 0.5, "reconvergence took {} s", r.reconverge_s);
    }

    /// Satellite regression for partial RIB replication: the E11 flap
    /// scenario rerun with owner-held `/dir` and a live ping workload
    /// resolving names on demand. Scoping the directory must not
    /// reopen the holes churn historically carved: zero stale objects
    /// at quiescence, full sampled reachability in every calm window,
    /// and no foreign directory state landing anywhere.
    #[test]
    fn flap_churn_with_scoped_dir_stays_clean_and_fully_reachable() {
        let r = super::run_with_cfg(30, 71, (0, 0, 2, 0), true);
        assert!(r.converged, "never re-quiesced: {r:?}");
        assert!(r.calm_samples > 0, "no calm window was ever sampled: {r:?}");
        assert_eq!(r.stale_final, 0, "scoped /dir leaked departed state: {r:?}");
        assert_eq!(r.reach_min, 1.0, "reachability dipped under scoped /dir: {r:?}");
    }

    /// Scoped `/dir` stays live through the whole churn plan: at 30
    /// members, one leave, one crash-fail, one flap and one partition
    /// with a flow-churn population allocating throughout. Over 20 s
    /// from one allocation deadline after the heal, every directory
    /// lookup a member starts is answered by the name's owner — lookups
    /// and tombstones ride the spanning tree routing repairs — and no
    /// allocation fails.
    #[test]
    fn scoped_dir_answers_every_lookup_after_the_full_churn_plan() {
        use crate::Scenario;
        use rina::prelude::*;
        let seed = 71;
        let mut s = Scenario::new("e11-scoped-liveness", seed);
        let cfg = DifConfig::new("as").with_member_gc_grace_ms(2_000).with_scoped_dir(true);
        let fab = Topology::barabasi_albert(30, 2, seed)
            .with_dif(cfg)
            .with_prefix("as")
            .materialize(&mut s);
        let churn_cfg = FlowChurnCfg::new(seed)
            .with_pacing(
                (Dur::from_secs(1), Dur::from_secs(3)),
                (Dur::from_millis(100), Dur::from_millis(400)),
            )
            .with_traffic(32, Dur::from_millis(50));
        let sinks = fab.lowest_degree(2);
        let flows = Workload::flow_churn(&mut s, fab.dif, &fab.nodes, &sinks, &churn_cfg);
        let members = fab.member_ipcps(&s);
        let sink_ipcps: Vec<IpcpH> = sinks.iter().map(|&n| s.ipcp_of(fab.dif, n)).collect();
        let mut run = s.assemble(Dur::from_secs(600), Dur::from_secs(1));
        let out = super::churn_phase(&mut run, &fab, &members, seed, (1, 1, 1, 1));
        assert!(out.converged, "never re-quiesced: {out:?}");
        // Every allocation asked before the heal ends within its 1 s
        // deadline; the window counts those asked after it. The sinks
        // then register anew: their tombstones empty every member's
        // cache, so the window resolves each name again.
        run.run_for(Dur::from_secs(1));
        for &h in &sink_ipcps {
            let sink = run.net.ipcp_mut(h);
            let own = sink.rib.iter_prefix("/dir/").map(|o| o.name["/dir/".len()..].to_string());
            for name in own.collect::<Vec<_>>().iter().map(|k| AppName::from_key(k)) {
                sink.dir_unregister(&name);
                sink.dir_register(&name);
            }
        }
        let lookups = |net: &Net| {
            let stats = members.iter().map(|&h| net.ipcp(h).stats);
            stats.fold((0, 0), |(s, a), st| (s + st.dir_lookups_sent, a + st.dir_lookups_answered))
        };
        let (fails, (sent, answered)) = (flows.alloc_failures(&run.net), lookups(&run.net));
        run.run_for(Dur::from_secs(20));
        let (sent, answered) = (lookups(&run.net).0 - sent, lookups(&run.net).1 - answered);
        assert!(sent > 0, "the window resolved no name");
        assert_eq!(answered, sent, "lookups went unanswered");
        assert_eq!(flows.alloc_failures(&run.net) - fails, 0, "allocations failed");
    }

    /// CI smoke at 200 members (release-only): the E11 acceptance gate —
    /// ≥99% sampled reachability outside convergence windows, bounded
    /// aggregated tables, zero departed-state leaks at quiescence.
    #[cfg(not(debug_assertions))]
    #[test]
    fn e11_two_hundred_smoke_reconverges_bounded_and_clean() {
        let r = super::run(200, 29);
        assert!(r.converged, "never re-quiesced: {r:?}");
        assert!(r.calm_samples > 0, "no calm window was ever sampled: {r:?}");
        assert_eq!(r.stale_final, 0, "departed state leaked: {r:?}");
        assert!(r.reach_min >= 0.99, "reachability dipped: {r:?}");
        assert!(
            r.agg_after <= r.agg_before + r.members / 10,
            "churn fragmented the tables: {} -> {}",
            r.agg_before,
            r.agg_after
        );
        assert!(r.reconverge_s <= 0.5, "reconvergence took {} s", r.reconverge_s);
        assert!(r.wall_s < 120.0, "200-member churn took {:.1} s wall clock", r.wall_s);
    }

    /// The table's 200-member row (release-only) heals within one hello
    /// period of the last heal, like the smaller rows.
    #[cfg(not(debug_assertions))]
    #[test]
    fn two_hundred_member_table_row_reconverges_within_half_a_second() {
        let r = super::run(200, 1300);
        assert!(r.converged, "never re-quiesced: {r:?}");
        assert_eq!(r.stale_final, 0, "departed state leaked: {r:?}");
        assert!(r.reconverge_s <= 0.5, "reconvergence took {} s", r.reconverge_s);
    }
}
