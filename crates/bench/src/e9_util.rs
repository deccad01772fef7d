//! E9 (intro item 5, §6.2/§6.6): operating near capacity with per-scope
//! multiplexing policy.
//!
//! Three application classes share one bottleneck link: interactive
//! (urgent, small), and two bulk flows. With a FIFO best-effort relay
//! (the current-Internet shape) interactive latency collapses as offered
//! load approaches capacity. With the DIF's priority multiplexing the
//! interactive class keeps its latency while the link still runs near
//! full utilization — the "more resource management options than just
//! over-provision" claim, and the basis of QoS-differentiated IPC
//! services (§6.6's marketplace).

use crate::report::{Col, Scalar};
use crate::{row, Scenario};
use rina::apps::{SinkApp, SourceApp};
use rina::prelude::*;

row! {
    /// One row of the utilization sweep.
    pub struct UtilRow {
        /// Offered load as a fraction of bottleneck capacity.
        offered_load: f64,
        /// Relay scheduling policy.
        sched: &'static str,
        /// Achieved bottleneck utilization (delivered bits / capacity).
        utilization: f64,
        /// Interactive-class mean one-way latency (s).
        inter_lat_mean_s: f64,
        /// Interactive-class p99 one-way latency (s).
        inter_lat_p99_s: f64,
        /// Bulk goodput (Mbit/s).
        bulk_mbps: f64,
    }
}

/// The E9 table of the `experiments` binary.
pub const TABLE: &[Col<UtilRow>] = &[
    ("offered load", |r| r.offered_load.cell()),
    ("sched", |r| r.sched.cell()),
    ("utilization", |r| r.utilization.cell()),
    ("inter lat mean (s)", |r| r.inter_lat_mean_s.cell()),
    ("inter lat p99 (s)", |r| r.inter_lat_p99_s.cell()),
    ("bulk (Mb/s)", |r| r.bulk_mbps.cell()),
];

/// Run one cell: two senders behind one 10 Mbit/s bottleneck.
pub fn run(offered_load: f64, priority: bool, seed: u64) -> UtilRow {
    let cap_bps = 10_000_000u64;
    let sched = if priority { SchedPolicy::Priority } else { SchedPolicy::Fifo };
    let mut b = Scenario::new("e9-util", seed);
    b.set_shim_sched(sched);
    let src = b.node("src");
    let gw = b.node("gw");
    let dst = b.node("dst");
    let l_in = b.link(src, gw, LinkCfg::wired());
    let l_bottle =
        b.link(gw, dst, LinkCfg::wired().with_bandwidth(cap_bps).with_delay(Dur::from_millis(5)));
    let d = b.dif(DifConfig::new("net"));
    b.join(d, gw);
    b.join(d, src);
    b.join(d, dst);
    b.adjacency_over_link(d, src, gw, l_in);
    b.adjacency_over_link(d, gw, dst, l_bottle);

    // NOTE: `set_shim_sched` above is what schedules: the shim at each end
    // of a link owns that link's transmit queue, so the policy applies at
    // the bottleneck. The member DIF relays into the shims and owns none.
    let isink = b.app(dst, AppName::new("inter-sink"), d, SinkApp::default());
    let bsink = b.app(dst, AppName::new("bulk-sink"), d, SinkApp::default());

    // Interactive: 200-byte SDUs at 200/s = 0.32 Mbit/s.
    let inter = SourceApp::new(
        AppName::new("inter-sink"),
        QosSpec::interactive(),
        200,
        10_000,
        Dur::from_millis(5),
    );
    b.app(src, AppName::new("inter"), d, inter);
    // Bulk: fill the remainder of the offered load.
    let bulk_bps = (offered_load * cap_bps as f64 - 320_000.0).max(100_000.0);
    let sdu = 1200usize;
    let interval_ns = (sdu as f64 * 8.0 / bulk_bps * 1e9) as u64;
    let bulk = SourceApp::new(
        AppName::new("bulk-sink"),
        QosSpec::datagram(),
        sdu,
        1_000_000,
        Dur::from_nanos(interval_ns.max(1)),
    );
    b.app(src, AppName::new("bulk"), d, bulk);

    let mut run = b.assemble(Dur::from_secs(10), Dur::from_millis(300));
    run.run_for(Dur::from_secs(10));
    let secs = run.measured_secs();

    let net = &run.net;
    let delivered_bits = (net.app(isink).bytes + net.app(bsink).bytes) as f64 * 8.0;
    UtilRow {
        offered_load,
        sched: if priority { "priority" } else { "fifo" },
        utilization: delivered_bits / (cap_bps as f64 * secs),
        inter_lat_mean_s: net.app(isink).latency.mean(),
        inter_lat_p99_s: net.app(isink).latency.quantile(0.99),
        bulk_mbps: run.goodput_mbps(net.app(bsink).bytes),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn priority_protects_interactive_at_high_load() {
        let fifo = super::run(1.1, false, 81);
        let prio = super::run(1.1, true, 81);
        assert!(
            prio.inter_lat_p99_s < fifo.inter_lat_p99_s,
            "prio p99 {} vs fifo {}",
            prio.inter_lat_p99_s,
            fifo.inter_lat_p99_s
        );
        assert!(prio.utilization > 0.7, "still well utilized: {}", prio.utilization);
    }
}
