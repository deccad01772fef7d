//! # rina-bench — the experiment harness
//!
//! One module per experiment in DESIGN.md §4. Each builds its scenario
//! through the typed [`rina::net`] / [`rina::scenario`] API inside a
//! [`Scenario`], runs its measurement phase as an [`ExperimentRun`], and
//! returns a typed result row. A row type is declared once with
//! [`row!`] and each printed view of it is one `const` column list
//! ([`report`]); the phases experiments share — the DIF-wide sums
//! ([`Totals`]), the assemble-then-ping opening
//! ([`Scenario::assemble_and_ping`]), the churn loop
//! ([`e11_churn::churn_phase`]), the wall column ([`timed`]) — are
//! written once here and called from every experiment and sweep cell.
//! The `experiments` binary prints every table (the source of
//! EXPERIMENTS.md) and writes `results.json`.
//!
//! The paper is a position paper: its "figures" are architecture diagrams
//! and its claims are qualitative. What we reproduce is the predicted
//! *shape* — who wins, where, and why — with the current-Internet
//! architecture (`inet`) as baseline under identical physical conditions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rina::prelude::*;
use rina::scenario::PingMesh;
use rina::LANES;
use rina_sim::EventCounts;

pub mod compare;
pub mod e10_scalefree;
pub mod e11_churn;
pub mod e12_partial_rib;
pub mod e13_flows;
pub mod e1_fig1;
pub mod e3_fig3;
pub mod e4_fig4;
pub mod e5_fig5;
pub mod e6_scale;
pub mod e7_security;
pub mod e8_enroll;
pub mod e9_util;
mod inet_apps;
pub mod report;
pub mod sweep;

/// An experiment scenario under construction: a named, seeded
/// [`NetBuilder`] (usable as one via deref). When the wiring is done,
/// [`Scenario::assemble`] moves to the measurement phase.
pub struct Scenario {
    /// Scenario name (labels panics and reports).
    pub name: &'static str,
    builder: NetBuilder,
}

impl Scenario {
    /// Start describing a scenario with a deterministic seed.
    pub fn new(name: &'static str, seed: u64) -> Self {
        Scenario { name, builder: NetBuilder::new(seed) }
    }

    /// Build the network and run until the whole stack has assembled,
    /// then `settle` more for dissemination. `assembled_at` records the
    /// moment assembly held (before settling); the measurement clock
    /// starts after it. Panics — naming the scenario — if assembly
    /// exceeds `limit` of virtual time.
    pub fn assemble(self, limit: Dur, settle: Dur) -> ExperimentRun {
        let mut net = self.builder.build();
        let at = net.run_until_assembled_labeled(self.name, limit, settle);
        let t0 = net.sim.now();
        ExperimentRun { net, assembled_at: Some(at), t0 }
    }

    /// The shared opening of E10, E12 and every sweep cell: assemble
    /// without settling, snapshot the assembly-instant [`Totals`] of
    /// `members` (so management cost covers assembly only, comparable
    /// with E8), then give the sampled pings of `mesh` one virtual
    /// second plus up to `steps` half-second slices to complete.
    pub fn assemble_and_ping(
        self,
        limit: Dur,
        members: &[IpcpH],
        mesh: &PingMesh,
        steps: usize,
    ) -> (ExperimentRun, Totals) {
        let mut run = self.assemble(limit, Dur::ZERO);
        let assembled = Totals::of(&run.net, members, &[]);
        run.run_for(Dur::from_secs(1));
        run.run_until(Dur::from_millis(500), steps, |net| mesh.all_done(net));
        (run, assembled)
    }

    /// Build the network *without* waiting for assembly — for scenarios
    /// where assembly is expected to fail (impostor enrollment) or where
    /// links start down.
    pub fn launch(self) -> ExperimentRun {
        let net = self.builder.build();
        let t0 = net.sim.now();
        ExperimentRun { net, assembled_at: None, t0 }
    }
}

impl std::ops::Deref for Scenario {
    type Target = NetBuilder;
    fn deref(&self) -> &NetBuilder {
        &self.builder
    }
}

impl std::ops::DerefMut for Scenario {
    fn deref_mut(&mut self) -> &mut NetBuilder {
        &mut self.builder
    }
}

/// The measurement phase of an experiment: the built [`Net`] plus the
/// phase clock.
pub struct ExperimentRun {
    /// The running network.
    pub net: Net,
    /// When assembly completed, if [`Scenario::assemble`] ran it.
    pub assembled_at: Option<Time>,
    t0: Time,
}

impl ExperimentRun {
    /// Run the network for `d` of virtual time.
    pub fn run_for(&mut self, d: Dur) {
        self.net.run_for(d);
    }

    /// Run in `step` increments until `done(&mut net)` or `max_steps`
    /// have elapsed, evaluating `done` *after* each step so observers in
    /// the closure (e.g. a [`GapSampler`]) always see the final window.
    /// Returns the number of steps taken.
    pub fn run_until(
        &mut self,
        step: Dur,
        max_steps: usize,
        mut done: impl FnMut(&mut Net) -> bool,
    ) -> usize {
        for i in 0..max_steps {
            self.net.run_for(step);
            if done(&mut self.net) {
                return i + 1;
            }
        }
        max_steps
    }

    /// The enrollment makespan: virtual seconds until assembly held.
    /// Panics on a [`Scenario::launch`]ed run, which never waited for it.
    pub fn assemble_secs(&self) -> f64 {
        self.assembled_at.expect("assemble() ran").as_secs_f64()
    }

    /// Seconds of virtual time since the measurement clock started.
    pub fn measured_secs(&self) -> f64 {
        self.net.sim.now().since(self.t0).as_secs_f64()
    }

    /// Seconds from the measurement clock to `until` (e.g. a sink's last
    /// arrival), floored at a tiny positive value for safe division.
    pub fn secs_until(&self, until: Time) -> f64 {
        until.since(self.t0).as_secs_f64().max(1e-9)
    }

    /// `bytes` delivered over the measured phase, in Mbit/s.
    pub fn goodput_mbps(&self, bytes: u64) -> f64 {
        let secs = self.measured_secs();
        if secs > 0.0 {
            bytes as f64 * 8.0 / secs / 1e6
        } else {
            0.0
        }
    }
}

/// Tracks the longest gap between delivery-progress observations — the
/// shared metric of the failover (E4) and mobility (E5) experiments, for
/// both stacks.
pub struct GapSampler {
    last_count: u64,
    last_progress: Time,
    gap: f64,
}

impl GapSampler {
    /// Start observing from `count` delivered at time `now`.
    pub fn new(count: u64, now: Time) -> Self {
        GapSampler { last_count: count, last_progress: now, gap: 0.0 }
    }

    /// Record an observation: `count` delivered in total at `now`.
    pub fn observe(&mut self, count: u64, now: Time) {
        if count > self.last_count {
            self.gap = self.gap.max(now.since(self.last_progress).as_secs_f64());
            self.last_count = count;
            self.last_progress = now;
        }
    }

    /// The longest observed progress gap, in seconds.
    pub fn gap(&self) -> f64 {
        self.gap
    }
}

/// DIF-wide sums at one instant: every counter an experiment row adds
/// up over a member set, computed in one pass — so a counter is summed
/// in one place, and a new one is one field here plus one line in
/// [`Totals::of`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Management PDUs sent.
    pub mgmt_tx: u64,
    /// RIEP object PDUs sent (flooding, resync streams, delta responses).
    pub rib_tx: u64,
    /// Floods skipped (digest-covered or rate-limited).
    pub flood_suppressed: u64,
    /// The rate-limited share of `flood_suppressed`.
    pub flood_throttled: u64,
    /// PDUs relayed.
    pub relayed: u64,
    /// Transit PDUs forwarded with TTL and CRC patched in place.
    pub relay_fast: u64,
    /// Members declared failed and garbage-collected by their sponsors.
    pub purged: u64,
    /// Own objects re-asserted over wrongful tombstones.
    pub reasserts: u64,
    /// On-demand directory lookups sent.
    pub dir_lookups: u64,
    /// Directory cache hits.
    pub dir_cache_hits: u64,
    /// From-scratch SPF runs.
    pub spf_full: u64,
    /// Incremental SPF repairs.
    pub spf_incremental: u64,
    /// Forwarding-table entries updated via the delta path.
    pub ft_delta: u64,
    /// Σ reachable destinations over the members' forwarding tables.
    pub fwd_len: usize,
    /// Largest single forwarding table (reachable destinations).
    pub fwd_max: usize,
    /// Σ stored range entries after prefix aggregation.
    pub agg_len: usize,
    /// RMT lane counters merged over every (N-1)-port queue of the
    /// given nodes.
    pub lanes: [LaneStats; LANES],
    /// The engine's events dispatched so far, by kind (the whole net's,
    /// whatever `members` and `nodes` are).
    pub events: EventCounts,
}

impl Totals {
    /// Sum over the IPC processes `members` and the RMT queues of
    /// `nodes` (pass `&[]` where the lanes are not reported).
    pub fn of(net: &Net, members: &[IpcpH], nodes: &[NodeH]) -> Totals {
        let mut t = Totals::default();
        for &h in members {
            let ip = net.ipcp(h);
            let (s, r, fwd) = (&ip.stats, ip.route_stats(), ip.fwd().len());
            t.mgmt_tx += s.mgmt_tx;
            t.rib_tx += s.rib_tx;
            t.flood_suppressed += s.flood_suppressed;
            t.flood_throttled += s.flood_throttled;
            t.relayed += s.relayed;
            t.relay_fast += s.relay_fast;
            t.purged += s.members_purged;
            t.reasserts += s.reasserts;
            t.dir_lookups += s.dir_lookups_sent;
            t.dir_cache_hits += s.dir_cache_hits;
            t.spf_full += r.spf_full;
            t.spf_incremental += r.spf_incremental;
            t.ft_delta += r.ft_delta;
            t.fwd_len += fwd;
            t.fwd_max = t.fwd_max.max(fwd);
            t.agg_len += ip.fwd().aggregated_len();
        }
        for &n in nodes {
            for (lane, st) in t.lanes.iter_mut().zip(net.node(n).rmt_lane_stats()) {
                lane.merge(&st);
            }
        }
        t.events = net.sim.events();
        t
    }
}

/// The widest per-member RIB over `members` as `(objects, encoded
/// bytes)`, live and tombstoned — the full-replication-floor metric of
/// E12 and the sweep's scoped cells. Walks every stored object, so it
/// is kept out of [`Totals::of`].
pub fn rib_footprint(net: &Net, members: &[IpcpH]) -> (u64, u64) {
    let ribs = || members.iter().map(|&h| &net.ipcp(h).rib);
    let objects = ribs().map(|r| r.iter_all().count() as u64).max();
    let bytes = ribs().map(|r| r.iter_all().map(|o| o.wire().len() as u64).sum::<u64>()).max();
    (objects.unwrap_or(0), bytes.unwrap_or(0))
}

/// Run `f` and return its result with the host wall-clock seconds it
/// took: the `wall_s` column of every row and the bins' progress lines.
/// The one place the harness reads a wall clock.
#[expect(
    clippy::disallowed_types,
    reason = "harness wall-clock around a deterministic sim run; reported as host elapsed time, never fed back into simulation state"
)]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set of this process so far, MiB (`VmHWM` from
/// `/proc/self/status`; 0 where that cannot be read).
pub fn rss_peak_mb() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Format a floating value compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_sampler_tracks_longest_stall() {
        let mut g = GapSampler::new(0, Time::ZERO);
        g.observe(1, Time::from_millis(100));
        g.observe(1, Time::from_millis(900)); // no progress: not a gap yet
        g.observe(2, Time::from_millis(1000)); // 900ms since last progress
        g.observe(3, Time::from_millis(1050));
        assert!((g.gap() - 0.9).abs() < 1e-9, "gap {}", g.gap());
    }

    #[test]
    fn scenario_assembles_like_a_netbuilder() {
        let mut s = Scenario::new("two-hosts", 42);
        let fab = Topology::line(2).materialize(&mut s);
        let traffic = Workload::sources_to_sink(
            &mut s,
            fab.dif,
            fab.node(1),
            &[fab.node(0)],
            QosSpec::reliable(),
            64,
            5,
            Dur::from_millis(1),
        );
        let mut run = s.assemble(Dur::from_secs(10), Dur::from_millis(100));
        assert!(run.assembled_at.is_some());
        run.run_for(Dur::from_secs(2));
        assert_eq!(traffic.received(&run.net), 5);
        assert!(run.measured_secs() >= 2.0);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(1.5), "1.50");
        assert_eq!(fmt(0.0123), "0.0123");
    }
}
