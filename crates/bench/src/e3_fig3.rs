//! E3 (Figure 3): repeating the layer over a narrow scope.
//!
//! A four-node chain whose middle segment is lossy wireless. Two
//! configurations over identical physics:
//!
//! * **e2e-only** — the host-to-host DIF rides the wireless shim directly;
//!   only end-to-end EFCP retransmits, over the full-path feedback loop.
//! * **scoped** — an extra DIF is instantiated over just the wireless
//!   segment ("2nd level DIF tailored to the wireless component"), with a
//!   reliable short-feedback-loop transit flow. Losses are repaired
//!   locally; the end-to-end layer rarely notices.
//!
//! The paper predicts the scoped configuration wins, increasingly so with
//! loss (§6.2: proxies made unnecessary by structure).
//!
//! The lossy cells are chaotic in the seed: one frame more or fewer
//! anywhere reshuffles the shared RNG's loss draws, and a single seed's
//! row can move either way. So each cell runs at every seed of [`SEEDS`]
//! and is reported as the median and range over them ([`Fig3Spread`]).

use crate::report::{Col, Scalar, Spread};
use crate::{row, Scenario};
use rina::apps::{SinkApp, SourceApp};
use rina::prelude::*;

row! {
    /// One row of the Figure-3 sweep.
    pub struct Fig3Row {
        /// Wireless badness parameter (Gilbert–Elliott stationary P(bad)).
        p_bad: f64,
        /// Layering configuration.
        config: &'static str,
        /// SDUs delivered within the run.
        delivered: u64,
        /// Goodput in Mbit/s.
        goodput_mbps: f64,
        /// Mean one-way latency (s).
        latency_mean_s: f64,
        /// 99th-percentile one-way latency (s).
        latency_p99_s: f64,
        /// End-to-end retransmissions at the source.
        e2e_retx: u64,
    }
}

/// The seeds every cell of the `experiments` table runs at.
pub const SEEDS: std::ops::Range<u64> = 200..210;

row! {
    /// One cell of the Figure-3 sweep over [`SEEDS`]: each metric of
    /// [`Fig3Row`] as its median and range.
    pub struct Fig3Spread {
        /// Wireless badness parameter (Gilbert–Elliott stationary P(bad)).
        p_bad: f64,
        /// Layering configuration.
        config: &'static str,
        /// Seeds run.
        seeds: u64,
        /// SDUs delivered within the run.
        delivered: Spread,
        /// Goodput in Mbit/s.
        goodput_mbps: Spread,
        /// Mean one-way latency (s).
        latency_mean_s: Spread,
        /// 99th-percentile one-way latency (s).
        latency_p99_s: Spread,
        /// End-to-end retransmissions at the source.
        e2e_retx: Spread,
    }
}

/// The E3 table of the `experiments` binary.
pub const TABLE: &[Col<Fig3Spread>] = &[
    ("P(bad)", |r| r.p_bad.cell()),
    ("config", |r| r.config.cell()),
    ("delivered", |r| r.delivered.cell()),
    ("goodput (Mb/s)", |r| r.goodput_mbps.cell()),
    ("lat mean (s)", |r| r.latency_mean_s.cell()),
    ("lat p99 (s)", |r| r.latency_p99_s.cell()),
];

/// Fold the runs of one cell at several seeds into its [`Fig3Spread`].
pub fn spread(runs: &[Fig3Row]) -> Fig3Spread {
    let of = |f: fn(&Fig3Row) -> f64| Spread::of(runs.iter().map(f));
    let first = runs.first();
    Fig3Spread {
        p_bad: first.map_or(f64::NAN, |r| r.p_bad),
        config: first.map_or("", |r| r.config),
        seeds: runs.len() as u64,
        delivered: of(|r| r.delivered as f64),
        goodput_mbps: of(|r| r.goodput_mbps),
        latency_mean_s: of(|r| r.latency_mean_s),
        latency_p99_s: of(|r| r.latency_p99_s),
        e2e_retx: of(|r| r.e2e_retx as f64),
    }
}

/// Run one cell of the sweep.
pub fn run(p_bad: f64, scoped: bool, seed: u64) -> Fig3Row {
    let mut s = Scenario::new("fig3-scoped-layers", seed);
    let h1 = s.node("h1");
    let r1 = s.node("r1");
    let r2 = s.node("r2");
    let h2 = s.node("h2");
    let l0 = s.link(h1, r1, LinkCfg::wired());
    let lw = s.link(r1, r2, LinkCfg::wireless(p_bad));
    let l2 = s.link(r2, h2, LinkCfg::wired());

    let top = s.dif(DifConfig::new("top"));
    s.join(top, r1);
    s.join(top, h1);
    s.join(top, r2);
    s.join(top, h2);
    s.adjacency_over_link(top, h1, r1, l0);
    s.adjacency_over_link(top, r2, h2, l2);
    if scoped {
        // The extra, scope-tailored layer: a wireless DIF whose reliable
        // cube has a short feedback loop; the top DIF's r1–r2 adjacency
        // rides a *reliable* flow in it.
        let wdif = s.dif(DifConfig::wireless("wless"));
        s.join(wdif, r1);
        s.join(wdif, r2);
        s.adjacency_over_link(wdif, r1, r2, lw);
        s.adjacency_over_dif(top, r1, r2, wdif, QosSpec::reliable());
    } else {
        s.adjacency_over_link(top, r1, r2, lw);
    }

    let sink = s.app(h2, AppName::new("sink"), top, SinkApp::default());
    let count = 3000u64;
    s.app(
        h1,
        AppName::new("src"),
        top,
        SourceApp::new(AppName::new("sink"), QosSpec::reliable(), 1000, count, Dur::from_millis(1)),
    );
    let src_ipcp = s.ipcp_of(top, h1);
    let mut run = s.assemble(Dur::from_secs(30), Dur::from_millis(300));
    run.run_for(Dur::from_secs(12));

    let sk = run.net.app(sink);
    let dur = run.secs_until(sk.last_arrival);
    let e2e_retx = run.net.ipcp(src_ipcp).conn_stats_sum().retransmissions;
    Fig3Row {
        p_bad,
        config: if scoped { "scoped(+wireless DIF)" } else { "e2e-only" },
        delivered: sk.received,
        goodput_mbps: sk.bytes as f64 * 8.0 / dur / 1e6,
        latency_mean_s: sk.latency.mean(),
        latency_p99_s: sk.latency.quantile(0.99),
        e2e_retx,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_layer_wins_under_loss() {
        let e2e = super::run(0.25, false, 7);
        let scoped = super::run(0.25, true, 7);
        assert!(
            scoped.delivered >= e2e.delivered,
            "scoped {} vs e2e {}",
            scoped.delivered,
            e2e.delivered
        );
        assert!(
            scoped.latency_p99_s <= e2e.latency_p99_s * 1.5,
            "scoped p99 {} vs e2e {}",
            scoped.latency_p99_s,
            e2e.latency_p99_s
        );
    }
}
