//! E10 (new): enrollment and routing at scale on a scale-free
//! internetwork.
//!
//! Real internetworks grow by preferential attachment: new networks peer
//! with already-well-connected providers, producing hub-dominated,
//! scale-free graphs. [`Topology::barabasi_albert`] stamps one out as a
//! single DIF; we measure what the paper's §5.2/§6.5 machinery does with
//! it — the **enrollment makespan** (how long the facility takes to
//! self-assemble) under wave-parallel vs sequential scheduling, what the
//! management traffic totals, and how much the per-member routing state
//! shrinks when prefix-block addresses let contiguous subtrees aggregate
//! into single forwarding ranges.
//!
//! The wave-parallel schedule ([`EnrollSchedule::waves`], the default)
//! staggers joiners by spanning-tree depth and every sponsor admits
//! whoever asks, so makespan tracks tree depth — sublinear in members.
//! The [`EnrollSchedule::sequential`] baseline enrolls one member at a
//! time and grows linearly; it is kept behind the `schedule` parameter
//! for comparison.

use crate::report::{Col, Scalar};
use crate::{row, timed, Scenario, Totals};
use rina::prelude::*;

row! {
    /// Result of one scale-free run.
    pub struct ScaleFreeRow {
        /// DIF size (members).
        members: usize,
        /// Edges per arriving member (the BA `m` parameter).
        attach_degree: usize,
        /// Enrollment schedule ("waves" or "sequential").
        schedule: &'static str,
        /// Enrollment makespan: virtual time until the whole facility
        /// assembled (s).
        assemble_s: f64,
        /// Wall-clock cost of the whole run (assembly + reachability), in
        /// seconds — the simulator-efficiency metric the RIB-sync work
        /// optimizes (virtual makespan alone hides flooding cost).
        wall_s: f64,
        /// Management PDUs per member during assembly.
        mgmt_per_member: f64,
        /// RIEP object PDUs sent DIF-wide over the whole run (flooding,
        /// resync streams, and delta responses).
        rib_pdus: u64,
        /// Live ports floods skipped (off the spanning tree).
        flood_suppressed: u64,
        /// From-scratch SPF runs DIF-wide (bootstrap + own-LSA changes +
        /// fallbacks) — with the incremental engine this tracks local
        /// adjacency churn, not remote joins.
        spf_full: u64,
        /// Incremental SPF repairs DIF-wide (delta-classified LSA changes).
        spf_incremental: u64,
        /// Forwarding-table entries updated via the delta path DIF-wide.
        ft_delta: u64,
        /// Degree of the largest hub.
        hub_degree: usize,
        /// Destinations the largest hub can reach (≈ scope size).
        hub_fwd: usize,
        /// Range entries the hub actually stores after prefix aggregation.
        hub_fwd_agg: usize,
        /// Mean reachable destinations across members.
        fwd_mean: f64,
        /// Mean stored range entries across members (the routing-table-size
        /// metric: with per-subtree address blocks this stays near the local
        /// degree instead of the member count).
        fwd_agg_mean: f64,
        /// PDUs relayed by the hub while the sampled pings ran.
        hub_relayed: u64,
        /// Transit PDUs forwarded (TTL and CRC patched in place) DIF-wide.
        relay_fast: u64,
        /// All O(n) sampled-reachability pings completed.
        e2e_ok: bool,
    }
}

/// The E10 table of the `experiments` binary: the routing-state view
/// (hub and mean table sizes before and after aggregation).
pub const TABLE: &[Col<ScaleFreeRow>] = &[
    ("members", |r| r.members.cell()),
    ("m", |r| r.attach_degree.cell()),
    ("schedule", |r| r.schedule.cell()),
    ("makespan (s)", |r| r.assemble_s.cell()),
    ("wall (s)", |r| r.wall_s.cell()),
    ("mgmt/member", |r| r.mgmt_per_member.cell()),
    ("rib PDUs", |r| r.rib_pdus.cell()),
    ("hub degree", |r| r.hub_degree.cell()),
    ("hub fwd", |r| r.hub_fwd.cell()),
    ("hub agg", |r| r.hub_fwd_agg.cell()),
    ("fwd mean", |r| r.fwd_mean.cell()),
    ("agg mean", |r| r.fwd_agg_mean.cell()),
    ("e2e ok", |r| r.e2e_ok.cell()),
];

/// The table of the `e10` scaling binary: the flooding and SPF view.
pub const SWEEP_TABLE: &[Col<ScaleFreeRow>] = &[
    ("members", |r| r.members.cell()),
    ("schedule", |r| r.schedule.cell()),
    ("makespan (s)", |r| r.assemble_s.cell()),
    ("wall (s)", |r| r.wall_s.cell()),
    ("mgmt/member", |r| r.mgmt_per_member.cell()),
    ("rib PDUs", |r| r.rib_pdus.cell()),
    ("suppressed", |r| r.flood_suppressed.cell()),
    ("spf full", |r| r.spf_full.cell()),
    ("spf incr", |r| r.spf_incremental.cell()),
    ("ft delta", |r| r.ft_delta.cell()),
    ("e2e ok", |r| r.e2e_ok.cell()),
];

/// Assemble an `n`-member Barabási–Albert DIF (attachment degree `m`)
/// under the default wave-parallel schedule.
pub fn run(n: usize, m: usize, seed: u64) -> ScaleFreeRow {
    run_with(n, m, seed, EnrollSchedule::waves())
}

/// Assemble an `n`-member Barabási–Albert DIF under `schedule` and
/// verify reachability with an O(n) sampled ping: a random-permutation
/// ring, so every member sources *and* receives exactly one ping.
pub fn run_with(n: usize, m: usize, seed: u64, schedule: EnrollSchedule) -> ScaleFreeRow {
    let (row, wall_s) = timed(|| {
        let mut s = Scenario::new("e10-scalefree", seed);
        s.set_enroll_schedule(schedule);
        let fab = Topology::barabasi_albert(n, m, seed).with_prefix("as").materialize(&mut s);
        // O(n) reachability over a seed-shuffled permutation ring: coverage
        // is guaranteed, and random pairs cross the hubs.
        let mesh = Workload::ping_sampled(&mut s, fab.dif, &fab.nodes, 0, seed, 1, 64);
        let hub = fab.hub();
        let hub_degree =
            fab.degrees()[fab.nodes.iter().position(|&x| x == hub).expect("hub in fabric")];
        let hub_ipcp = s.ipcp_of(fab.dif, hub);
        let ipcps = fab.member_ipcps(&s);

        let limit = Dur::from_secs(600) * (1 + n as u64 / 500);
        let (run, assembled) = s.assemble_and_ping(limit, &ipcps, &mesh, 120);

        let net = &run.net;
        let t = Totals::of(net, &ipcps, &[]);
        let hub = net.ipcp(hub_ipcp);
        ScaleFreeRow {
            members: n,
            attach_degree: m,
            schedule: match schedule {
                EnrollSchedule::Sequential { .. } => "sequential",
                EnrollSchedule::Waves { .. } => "waves",
            },
            assemble_s: run.assemble_secs(),
            wall_s: 0.0,
            mgmt_per_member: assembled.mgmt_tx as f64 / n as f64,
            rib_pdus: t.rib_tx,
            flood_suppressed: t.flood_suppressed,
            spf_full: t.spf_full,
            spf_incremental: t.spf_incremental,
            ft_delta: t.ft_delta,
            hub_degree,
            hub_fwd: hub.fwd().len(),
            hub_fwd_agg: hub.fwd().aggregated_len(),
            fwd_mean: t.fwd_len as f64 / n as f64,
            fwd_agg_mean: t.agg_len as f64 / n as f64,
            hub_relayed: hub.stats.relayed,
            relay_fast: t.relay_fast,
            e2e_ok: mesh.all_done(net),
        }
    });
    ScaleFreeRow { wall_s, ..row }
}

#[cfg(test)]
mod tests {
    use rina::prelude::EnrollSchedule;

    /// The acceptance scenario: a ≥50-node generator-driven internetwork
    /// assembles and routes end to end.
    #[test]
    fn fifty_node_scale_free_assembles_and_routes() {
        let r = super::run(50, 2, 91);
        assert!(r.e2e_ok, "sampled pings completed: {r:?}");
        assert!(r.assemble_s < 300.0, "assembled in {}", r.assemble_s);
        // Scale-free shape: the hub dwarfs the attachment degree.
        assert!(r.hub_degree >= 8, "hub degree {}", r.hub_degree);
        // The hub knows (almost) the whole scope...
        assert!(r.hub_fwd >= r.members / 2, "hub fwd {}", r.hub_fwd);
        // ...and the routing engine actually ran its delta paths: remote
        // joins classify as incremental repairs that patch the table.
        // (Dominance over the full fallback is a *scale* property — at 50
        // members the per-member enrollment and own-LSA fulls still
        // rival the deltas; the 200-member smoke asserts the ratio.)
        assert!(r.spf_incremental > 0, "no incremental repairs ran: {r:?}");
        assert!(r.ft_delta > 0, "delta path never patched the table: {r:?}");
        // ...but prefix-block addressing aggregates the stored state.
        assert!(
            r.fwd_agg_mean < r.fwd_mean,
            "aggregation shrinks tables: {} vs {}",
            r.fwd_agg_mean,
            r.fwd_mean
        );
    }

    /// Wave-parallel enrollment beats the sequential baseline on the
    /// same graph — the whole point of the schedule.
    #[test]
    fn waves_assemble_faster_than_sequential_baseline() {
        let w = super::run_with(40, 2, 17, EnrollSchedule::waves());
        let s = super::run_with(40, 2, 17, EnrollSchedule::sequential());
        assert!(w.e2e_ok && s.e2e_ok, "waves {w:?} sequential {s:?}");
        assert!(
            w.assemble_s < s.assemble_s,
            "waves {} vs sequential {}",
            w.assemble_s,
            s.assemble_s
        );
    }

    /// CI smoke at 200 members guarding *both* scaling regressions:
    /// wall clock (event storms, quadratic recomputation) and flooded
    /// object count (a suppression or batching regression re-amplifies
    /// RIEP traffic long before it shows up in wall clock). Release-only
    /// — the debug-mode tier-1 run skips it.
    #[cfg(not(debug_assertions))]
    #[test]
    fn e10_two_hundred_smoke_within_wall_clock_and_flood_budget() {
        let r = super::run(200, 2, 23);
        assert!(r.e2e_ok, "{r:?}");
        // Virtual makespan stays near the 50-node figure (sublinear):
        // tree depth, not member count.
        assert!(r.assemble_s < 15.0, "makespan {} s (virtual)", r.assemble_s);
        assert!(r.wall_s < 60.0, "200-member run took {:.1} s of wall clock", r.wall_s);
        // ~300k with tree-preferred flooding + digest suppression; the
        // pre-suppression figure was ~730k. Headroom for seed jitter,
        // hard stop well before the old regime.
        assert!(r.rib_pdus < 450_000, "{} RIEP object sends — flooding regressed", r.rib_pdus);
        assert!(r.flood_suppressed > 0, "suppression machinery never engaged: {r:?}");
        // At this scale incremental SPF must carry the assembly: joins
        // are remote for almost every member, so delta-classified
        // repairs outnumber the full-recompute fallback.
        assert!(
            r.spf_incremental > r.spf_full,
            "incremental SPF should dominate at 200: {} incremental vs {} full",
            r.spf_incremental,
            r.spf_full
        );
    }

    /// Waves assemble in the time the spanning tree's depth `D` takes and
    /// no longer, because no joiner waits for another. The bound:
    ///
    /// * a member at tree depth `d` first asks at `(d - 1) × I`
    ///   (`I` = 100 ms, [`EnrollSchedule::waves`]), so the last wave asks
    ///   at `(D - 1) × I`;
    /// * its sponsor, at depth `d - 1`, asked one interval earlier, and
    ///   one enrollment round is far shorter than `I`, so every sponsor
    ///   is a member before its joiners ask and no request is refused
    ///   into the 300 ms retry;
    /// * one round — the shim flow to the sponsor, the request, the sync
    ///   set streamed ahead of the response, the first hellos — is a few
    ///   round trips over 1 ms, 1 Gbit/s links, and assembly is read
    ///   every 50 ms, so the round counts as one 50 ms look.
    ///
    /// So the makespan is at most `(D - 1) × 100 ms + 50 ms`. The
    /// planner's tree is a BFS tree from the bootstrap (vertex 0), so `D`
    /// is vertex 0's eccentricity in the generated graph. Release-only.
    #[cfg(not(debug_assertions))]
    #[test]
    fn waves_assemble_within_tree_depth_intervals_plus_one_round() {
        for n in [100, 200] {
            let seed = 900 + n as u64; // the E10 table's seed
            let edges = rina::prelude::Topology::barabasi_albert(n, 2, seed).edges();
            let mut depth = vec![u64::MAX; n];
            depth[0] = 0;
            let mut queue = std::collections::VecDeque::from([0]);
            while let Some(u) = queue.pop_front() {
                for &(a, b) in &edges {
                    let v = if a == u {
                        b
                    } else if b == u {
                        a
                    } else {
                        continue;
                    };
                    if depth[v] == u64::MAX {
                        depth[v] = depth[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            let d = depth.into_iter().max().expect("non-empty graph");
            let bound_ms = (d - 1) * 100 + 50;
            let r = super::run(n, 2, seed);
            assert!(r.e2e_ok, "{r:?}");
            let makespan_ms = (r.assemble_s * 1000.0).round() as u64;
            assert!(makespan_ms <= bound_ms, "n={n}: depth {d}, {makespan_ms} ms > {bound_ms} ms");
        }
    }
}
