//! E13 (ROADMAP item 4): data-plane scale under flow churn.
//!
//! Thousands of concurrent EFCP flows cycle open → hold → close on one
//! scale-free DIF while their data converges on a handful of leaf sinks,
//! congesting the sink access links. The flow-churn workload
//! ([`Workload::flow_churn`]) exercises the whole §5.3 allocation path
//! continuously — allocation throughput and latency are first-class
//! metrics — and the congested relays exercise the per-hop RMT queues:
//! with FIFO multiplexing the interactive cube's latency collapses with
//! the bulk classes, while priority or weighted (DRR) scheduling across
//! QoS cubes holds it, at the cost the per-cube drop counters make
//! visible. The whole run — churn schedule, queue occupancy, drops —
//! is a pure function of the seed, byte-identical at any thread count.

use crate::report::{Col, Scalar};
use crate::{row, timed, Scenario, Totals};
use rina::prelude::*;

/// Mix indices (the class bytes drivers stamp and sinks account).
pub const CLASS_INTERACTIVE: usize = 0;
/// Reliable bulk (EFCP retransmission).
pub const CLASS_RELIABLE: usize = 1;
/// Unreliable bulk.
pub const CLASS_DATAGRAM: usize = 2;

row! {
    /// One cell of the flow-churn experiment.
    pub struct FlowsRow {
        /// DIF size (members).
        members: usize,
        /// Churn drivers placed (each cycles one flow at a time).
        drivers: usize,
        /// RMT scheduling discipline ("fifo" / "priority" / "wrr").
        sched: &'static str,
        /// Peak concurrent flows over the sampled measurement window.
        concurrent_peak: u64,
        /// Minimum concurrent flows over the second half of the window —
        /// the *sustained* concurrency level.
        concurrent_sustained: u64,
        /// Completed flow allocations during the measurement window.
        allocs: u64,
        /// Allocation failures during the measurement window (each retried;
        /// pre-assembly refusals during the ramp are excluded).
        alloc_failures: u64,
        /// Established flows that died mid-life during the window (EFCP gave
        /// up under sustained loss) — congestion shedding, not refusals.
        flow_deaths: u64,
        /// Flow allocations completed per virtual second.
        allocs_per_s: f64,
        /// Allocation latency p99 (ms of virtual time).
        alloc_p99_ms: f64,
        /// Interactive-class one-way data latency p99 (ms).
        inter_p99_ms: f64,
        /// Bulk (datagram) one-way data latency p99 (ms).
        bulk_p99_ms: f64,
        /// SDUs written by all drivers.
        sdus_sent: u64,
        /// SDUs received by all sinks.
        sdus_received: u64,
        /// RMT shed load (tail drops + push-out evictions), interactive
        /// lane, summed over every queue.
        rmt_drops_inter: u64,
        /// RMT shed load, bulk lanes (reliable + datagram).
        rmt_drops_bulk: u64,
        /// RMT bytes transmitted (dequeued) across every queue.
        rmt_deq_bytes: u64,
        /// Widest single-queue backlog observed anywhere (bytes).
        rmt_backlog_peak: u64,
        /// Transit PDUs forwarded (TTL and CRC patched in place), summed
        /// over every member.
        relay_fast: u64,
        /// Wall-clock seconds for the cell (machine-dependent).
        wall_s: f64,
    }
}

/// The table of the `e13` binary.
pub const TABLE: &[Col<FlowsRow>] = &[
    ("members", |r| r.members.cell()),
    ("drivers", |r| r.drivers.cell()),
    ("sched", |r| r.sched.cell()),
    ("sustained", |r| r.concurrent_sustained.cell()),
    ("peak", |r| r.concurrent_peak.cell()),
    ("allocs/s", |r| r.allocs_per_s.cell()),
    ("alloc p99 (ms)", |r| r.alloc_p99_ms.cell()),
    ("deaths", |r| r.flow_deaths.cell()),
    ("inter p99 (ms)", |r| r.inter_p99_ms.cell()),
    ("bulk p99 (ms)", |r| r.bulk_p99_ms.cell()),
    ("drops inter", |r| r.rmt_drops_inter.cell()),
    ("drops bulk", |r| r.rmt_drops_bulk.cell()),
    ("relay fast", |r| r.relay_fast.cell()),
    ("wall (s)", |r| r.wall_s.cell()),
];

/// The sched token of a policy.
pub fn sched_key(sched: SchedPolicy) -> &'static str {
    match sched {
        SchedPolicy::Fifo => "fifo",
        SchedPolicy::Priority => "priority",
        SchedPolicy::Wrr => "wrr",
    }
}

/// Congestion profile of a cell: how much capacity the sink access
/// links offer against the churn population's demand.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// Physical link bandwidth (bit/s) — every link, so the low-degree
    /// sink access links are the bottleneck.
    pub bw_bps: u64,
    /// Sink count; sinks land on the lowest-degree members (leaves of
    /// the scale-free graph), so sink access links — not the hubs —
    /// become the congestion points, exactly where per-cube
    /// multiplexing policy matters.
    pub sinks: usize,
    /// Per-port RMT queue capacity (bytes): congestion must shed load
    /// by per-cube tail-drop, not build seconds of standing buffer.
    pub queue_cap: usize,
    /// Measurement window of virtual time (after the ramp).
    pub measure: Dur,
}

impl Default for Profile {
    fn default() -> Self {
        Profile { bw_bps: 12_000_000, sinks: 8, queue_cap: 128 * 1024, measure: Dur::from_secs(25) }
    }
}

/// Run one cell at the default congestion profile: `n` members,
/// `drivers_per_node` churn drivers per non-sink node.
pub fn run(n: usize, drivers_per_node: usize, sched: SchedPolicy, seed: u64) -> FlowsRow {
    run_with(n, drivers_per_node, sched, seed, Profile::default())
}

/// Run one cell under an explicit congestion [`Profile`].
pub fn run_with(
    n: usize,
    drivers_per_node: usize,
    sched: SchedPolicy,
    seed: u64,
    profile: Profile,
) -> FlowsRow {
    let (row, wall_s) = timed(|| {
        let mut s = Scenario::new("e13-flows", seed);
        s.set_shim_sched(sched);
        s.set_shim_queue_cap(profile.queue_cap);
        let link = LinkCfg::wired().with_bandwidth(profile.bw_bps).with_delay(Dur::from_millis(2));
        let dif_cfg = DifConfig::new("flows").with_cube_set(CubeSet::Standard);
        let fab = Topology::barabasi_albert(n, 2, seed)
            .with_link(link)
            .with_dif(dif_cfg)
            .with_prefix("fl")
            .materialize(&mut s);

        let sink_nodes = fab.lowest_degree(profile.sinks);

        let churn_cfg = FlowChurnCfg::new(seed ^ 0x00f1)
            .with_drivers_per_node(drivers_per_node)
            .with_pacing(
                (Dur::from_secs(8), Dur::from_secs(16)),
                (Dur::from_millis(300), Dur::from_millis(1_200)),
            )
            .with_traffic(360, Dur::from_millis(25))
            .with_mix(vec![
                (QosSpec::interactive(), 1),
                (QosSpec::reliable(), 1),
                (QosSpec::datagram(), 2),
            ]);
        let churn = Workload::flow_churn(&mut s, fab.dif, &fab.all(), &sink_nodes, &churn_cfg);
        let drivers = churn.drivers.len();
        let ipcps = fab.member_ipcps(&s);

        let limit = Dur::from_secs(600) * (1 + n as u64 / 500);
        let mut run = s.assemble(limit, Dur::from_millis(500));

        // Ramp: let the churn population reach its duty-cycle steady state
        // (every driver has opened and most holds are in flight).
        run.run_for(Dur::from_secs(4));
        let allocs0 = churn.allocs(&run.net);
        let failures0 = churn.alloc_failures(&run.net);
        let deaths0 = churn.flow_deaths(&run.net);

        // Measurement window, sampled at fixed virtual-time points.
        let step = Dur::from_millis(500);
        let steps = (profile.measure.nanos() / step.nanos()).max(1);
        let mut peak = 0u64;
        let mut sustained = u64::MAX;
        for i in 0..steps {
            run.run_for(step);
            let c = churn.concurrent(&run.net) as u64;
            peak = peak.max(c);
            if i >= steps / 2 {
                sustained = sustained.min(c);
            }
        }
        let measured_s = (steps * step.nanos()) as f64 / 1e9;

        let net = &run.net;
        let allocs = churn.allocs(net) - allocs0;
        let t = Totals::of(net, &ipcps, &fab.nodes);
        let lane = &t.lanes;
        FlowsRow {
            members: n,
            drivers,
            sched: sched_key(sched),
            concurrent_peak: peak,
            concurrent_sustained: if sustained == u64::MAX { 0 } else { sustained },
            allocs,
            alloc_failures: churn.alloc_failures(net) - failures0,
            flow_deaths: churn.flow_deaths(net) - deaths0,
            allocs_per_s: allocs as f64 / measured_s,
            alloc_p99_ms: churn.alloc_latency(net).quantile(0.99) * 1e3,
            inter_p99_ms: churn.latency_of_class(net, CLASS_INTERACTIVE).quantile(0.99) * 1e3,
            bulk_p99_ms: churn.latency_of_class(net, CLASS_DATAGRAM).quantile(0.99) * 1e3,
            sdus_sent: churn.sent(net),
            sdus_received: churn.received(net),
            rmt_drops_inter: lane[2].drops + lane[2].evict,
            rmt_drops_bulk: lane[1].drops + lane[1].evict + lane[3].drops + lane[3].evict,
            rmt_deq_bytes: lane.iter().map(|s| s.deq_bytes).sum(),
            rmt_backlog_peak: lane.iter().map(|s| s.backlog_peak_bytes).max().unwrap_or(0),
            relay_fast: t.relay_fast,
            wall_s: 0.0,
        }
    });
    FlowsRow { wall_s, ..row }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tight profile for small graphs: one leaf sink and narrow links,
    /// so a 24-member population genuinely oversubscribes the sink
    /// access links and the scheduling discipline matters.
    fn tight(measure_s: u64) -> Profile {
        Profile {
            bw_bps: 4_000_000,
            sinks: 1,
            queue_cap: 64 * 1024,
            measure: Dur::from_secs(measure_s),
        }
    }

    /// Small-scale shape check: the churn population sustains flows, the
    /// allocator keeps up, and per-cube scheduling protects interactive
    /// latency under the same congestion that collapses FIFO.
    #[test]
    fn priority_protects_interactive_under_churn_congestion() {
        let fifo = run_with(24, 4, SchedPolicy::Fifo, 37, tight(10));
        let prio = run_with(24, 4, SchedPolicy::Priority, 37, tight(10));
        assert!(prio.concurrent_sustained > 0, "{prio:?}");
        assert!(prio.allocs > 0 && prio.sdus_received > 0, "{prio:?}");
        // The congestion is real: the bulk lanes shed load somewhere.
        assert!(fifo.rmt_drops_inter + fifo.rmt_drops_bulk > 0, "{fifo:?}");
        assert!(
            prio.inter_p99_ms < fifo.inter_p99_ms / 2.0,
            "priority p99 {} ms vs fifo {} ms",
            prio.inter_p99_ms,
            fifo.inter_p99_ms
        );
    }

    /// WRR serves bulk without starving it while still holding the
    /// interactive class far below FIFO's collapse.
    #[test]
    fn wrr_shares_without_starving_bulk() {
        let fifo = run_with(24, 4, SchedPolicy::Fifo, 37, tight(10));
        let wrr = run_with(24, 4, SchedPolicy::Wrr, 37, tight(10));
        assert!(wrr.sdus_received > 0, "{wrr:?}");
        // Weighted sharing: interactive held well below the FIFO figure…
        assert!(
            wrr.inter_p99_ms < fifo.inter_p99_ms / 2.0,
            "wrr inter p99 {} ms vs fifo {} ms",
            wrr.inter_p99_ms,
            fifo.inter_p99_ms
        );
        // …while the bulk class still progresses (no starvation).
        let by_class = wrr.rmt_deq_bytes;
        assert!(by_class > 0, "queues actually carried traffic: {wrr:?}");
        assert!(
            wrr.bulk_p99_ms.is_finite() && wrr.sdus_received > wrr.sdus_sent / 4,
            "bulk starved: {wrr:?}"
        );
    }

    /// The churned flows cross relays: transit traffic is forwarded.
    #[test]
    fn relays_carry_the_transit_traffic() {
        let base = run_with(24, 4, SchedPolicy::Priority, 37, tight(10));
        assert!(base.relay_fast > 0, "nothing was relayed: {base:?}");
    }

    /// Determinism: an identical cell reproduces every counter exactly.
    #[test]
    fn cell_reproduces_exactly() {
        let a = run_with(16, 3, SchedPolicy::Wrr, 5, tight(6));
        let b = run_with(16, 3, SchedPolicy::Wrr, 5, tight(6));
        assert_eq!(a.allocs, b.allocs);
        assert_eq!(a.alloc_failures, b.alloc_failures);
        assert_eq!(a.flow_deaths, b.flow_deaths);
        assert_eq!(a.sdus_sent, b.sdus_sent);
        assert_eq!(a.sdus_received, b.sdus_received);
        assert_eq!(a.rmt_drops_inter, b.rmt_drops_inter);
        assert_eq!(a.rmt_drops_bulk, b.rmt_drops_bulk);
        assert_eq!(a.rmt_deq_bytes, b.rmt_deq_bytes);
        assert_eq!(a.concurrent_peak, b.concurrent_peak);
    }

    /// The acceptance bound (release-only: the full 500-member cell):
    /// ≥ 2,000 flows sustained on a 500-member scale-free DIF with the
    /// interactive cube's p99 held under congestion.
    #[cfg(not(debug_assertions))]
    #[test]
    fn e13_five_hundred_sustains_two_thousand_flows() {
        let r = run(500, 5, SchedPolicy::Priority, 1300);
        assert!(
            r.concurrent_sustained >= 2_000,
            "sustained {} concurrent flows of {} drivers: {r:?}",
            r.concurrent_sustained,
            r.drivers
        );
        assert!(r.alloc_failures * 20 < r.allocs, "allocator kept up: {r:?}");
        assert!(
            r.inter_p99_ms < 200.0,
            "interactive p99 {} ms collapsed under congestion: {r:?}",
            r.inter_p99_ms
        );
    }
}
