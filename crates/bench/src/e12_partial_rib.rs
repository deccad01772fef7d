//! E12 (new): partial RIB replication at scale — breaking the
//! full-replication floor.
//!
//! Every earlier experiment replicates the whole RIB to every member, so
//! per-member state grows O(members × registrations) no matter what the
//! forwarding table does. With **replication scopes** the `/dir` subtree
//! becomes owner-held: each member stores only its own registrations and
//! resolves foreign names on demand over the spanning tree
//! (`DirLookupRequest`/`DirLookupResponse`), caching answers in a small
//! LRU. `/members` and `/lsa` stay DIF-wide — enrollment, routing and
//! liveness still need every member's record and the full graph — so
//! what a member holds is one record and one LSA per member plus its
//! share of `/dir`: 2n + own registrations scoped, 2n + every
//! registration in full.
//!
//! This experiment assembles the same scale-free internetwork as E10 with
//! and without scoped `/dir` and measures the per-member **directory
//! share** of the RIB: under full replication the widest member holds
//! every registration in the DIF (O(n)); under scoping it holds only its
//! own (O(1) in the member count), with the sampled ping workload
//! verifying that on-demand resolution still completes end to end.

use crate::report::{Col, Scalar};
use crate::{rib_footprint, row, timed, Scenario, Totals};
use rina::prelude::*;

row! {
    /// Result of one partial-replication run.
    pub struct PartialRibRow {
        /// DIF size (members).
        members: usize,
        /// Whether `/dir` was owner-held (`true`) or DIF-wide (`false`).
        scoped: bool,
        /// Enrollment makespan: virtual time until the facility assembled (s).
        assemble_s: f64,
        /// Wall-clock cost of the whole run, in seconds.
        wall_s: f64,
        /// Largest total RIB object count any member holds (live +
        /// tombstoned), the full-replication-floor metric.
        rib_objects_max: u64,
        /// Largest encoded RIB footprint any member holds, in bytes.
        rib_bytes_max: u64,
        /// Largest `/dir` object count any member holds — the directory
        /// share. O(n) under full replication, O(own registrations) scoped.
        dir_objects_max: u64,
        /// Mean `/dir` object count across members.
        dir_objects_mean: f64,
        /// On-demand directory lookups sent DIF-wide (0 when unscoped).
        dir_lookups: u64,
        /// Directory cache hits DIF-wide (0 when unscoped).
        dir_cache_hits: u64,
        /// RIEP object PDUs sent DIF-wide over the whole run.
        rib_pdus: u64,
        /// All O(n) sampled-reachability pings completed.
        e2e_ok: bool,
    }
}

/// The table of the `e12` binary.
pub const TABLE: &[Col<PartialRibRow>] = &[
    ("members", |r| r.members.cell()),
    ("/dir", |r| if r.scoped { "scoped" } else { "full" }.into()),
    ("rib obj max", |r| r.rib_objects_max.cell()),
    ("rib bytes max", |r| r.rib_bytes_max.cell()),
    ("dir obj max", |r| r.dir_objects_max.cell()),
    ("dir obj mean", |r| r.dir_objects_mean.cell()),
    ("lookups", |r| r.dir_lookups.cell()),
    ("cache hits", |r| r.dir_cache_hits.cell()),
    ("rib PDUs", |r| r.rib_pdus.cell()),
    ("makespan (s)", |r| r.assemble_s.cell()),
    ("wall (s)", |r| r.wall_s.cell()),
    ("e2e ok", |r| r.e2e_ok.cell()),
];

/// Assemble an `n`-member Barabási–Albert DIF (attachment degree 2) with
/// `/dir` owner-held iff `scoped`, run an O(n) sampled ping workload so
/// every member resolves at least one foreign name, and measure the
/// per-member RIB footprint.
pub fn run(n: usize, seed: u64, scoped: bool) -> PartialRibRow {
    let (row, wall_s) = timed(|| {
        let mut s = Scenario::new("e12-partial-rib", seed);
        let mut cfg = DifConfig::new("as");
        if scoped {
            cfg = cfg.with_scoped_dir(true);
        }
        let fab = Topology::barabasi_albert(n, 2, seed)
            .with_prefix("as")
            .with_dif(cfg)
            .materialize(&mut s);
        let mesh = Workload::ping_sampled(&mut s, fab.dif, &fab.nodes, 0, seed, 1, 64);
        let ipcps = fab.member_ipcps(&s);

        let limit = Dur::from_secs(600) * (1 + n as u64 / 500);
        let (run, _) = s.assemble_and_ping(limit, &ipcps, &mesh, 240);

        let net = &run.net;
        let t = Totals::of(net, &ipcps, &[]);
        let (rib_objects_max, rib_bytes_max) = rib_footprint(net, &ipcps);
        let dir_counts: Vec<u64> =
            ipcps.iter().map(|&h| net.ipcp(h).rib.iter_prefix("/dir/").count() as u64).collect();
        PartialRibRow {
            members: n,
            scoped,
            assemble_s: run.assemble_secs(),
            wall_s: 0.0,
            rib_objects_max,
            rib_bytes_max,
            dir_objects_max: dir_counts.iter().copied().max().unwrap_or(0),
            dir_objects_mean: dir_counts.iter().sum::<u64>() as f64 / n as f64,
            dir_lookups: t.dir_lookups,
            dir_cache_hits: t.dir_cache_hits,
            rib_pdus: t.rib_tx,
            e2e_ok: mesh.all_done(net),
        }
    });
    PartialRibRow { wall_s, ..row }
}

#[cfg(test)]
mod tests {
    /// The scope boundary at debug scale: the scoped facility still
    /// routes end to end through on-demand resolution, while the
    /// directory share of every member's RIB collapses from O(members)
    /// to O(own registrations).
    #[test]
    fn scoped_dir_collapses_the_directory_share_and_still_routes() {
        let full = super::run(24, 12, false);
        let part = super::run(24, 12, true);
        assert!(full.e2e_ok && part.e2e_ok, "full {full:?} part {part:?}");
        // Full replication: the widest member holds every registration
        // (one echo app per member plus the ping sources).
        assert!(
            full.dir_objects_max >= full.members as u64,
            "full-replication floor missing: {full:?}"
        );
        // Scoped: nobody holds more than its own few registrations.
        assert!(part.dir_objects_max <= 4, "scoped member hoards directory: {part:?}");
        assert!(part.rib_objects_max < full.rib_objects_max, "no RIB shrink: {part:?}");
        // Beside `/dir`, a member holds one record and one LSA per member.
        for r in [&full, &part] {
            assert_eq!(r.rib_objects_max, 2 * r.members as u64 + r.dir_objects_max, "{r:?}");
        }
        assert!(part.rib_bytes_max < full.rib_bytes_max, "no byte shrink: {part:?}");
        // The machinery was exercised, not bypassed.
        assert!(part.dir_lookups > 0, "no on-demand lookup ran: {part:?}");
        assert_eq!(full.dir_lookups, 0, "unscoped run sent lookups: {full:?}");
    }

    /// Determinism: same seed ⇒ byte-identical row (modulo wall clock).
    #[test]
    fn e12_reproduces_bit_identically() {
        let a = super::run(16, 7, true);
        let b = super::run(16, 7, true);
        assert_eq!(a.rib_objects_max, b.rib_objects_max);
        assert_eq!(a.rib_bytes_max, b.rib_bytes_max);
        assert_eq!(a.dir_lookups, b.dir_lookups);
        assert_eq!(a.dir_cache_hits, b.dir_cache_hits);
        assert_eq!(a.rib_pdus, b.rib_pdus);
    }

    /// CI smoke at 500 members, release-only: the directory share stays
    /// O(1) in the member count (the sublinearity claim at a scale where
    /// the full-replication floor would be ≥ 500), and resolution still
    /// completes everywhere within the wall-clock budget.
    #[cfg(not(debug_assertions))]
    #[test]
    fn e12_five_hundred_smoke_directory_share_stays_constant() {
        let r = super::run(500, 29, true);
        assert!(r.e2e_ok, "{r:?}");
        assert!(r.dir_objects_max <= 4, "directory share grew with the DIF: {r:?}");
        assert!(r.dir_lookups >= 500, "resolution barely exercised: {r:?}");
        assert!(r.wall_s < 120.0, "500-member scoped run took {:.1} s", r.wall_s);
    }
}
