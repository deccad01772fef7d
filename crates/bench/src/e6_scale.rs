//! E6 (§6.5): scalability by repeating private address spaces.
//!
//! The same physical ISP-tree is covered either by **one flat DIF** (every
//! router and host in a single routing scope — the current-Internet shape)
//! or **hierarchically**: one small DIF per region, a backbone DIF over
//! the region borders, and a host-facing internet DIF whose adjacencies
//! ride the lower DIFs. The paper predicts the repeating structure keeps
//! per-member routing state and update traffic bounded by the *scope*, not
//! the internetwork (§6.5).

use crate::report::{Col, Scalar};
use crate::{row, ExperimentRun, Scenario, Totals};
use rina::apps::{EchoApp, PingApp};
use rina::prelude::*;

row! {
    /// Result of one scalability cell.
    pub struct ScaleRow {
        /// Regions × hosts-per-region.
        regions: usize,
        /// Hosts per region.
        hosts_per_region: usize,
        /// Layering.
        config: &'static str,
        /// Mean forwarding-table entries per IPC process (non-shim).
        fwd_mean: f64,
        /// Largest forwarding table anywhere.
        fwd_max: usize,
        /// Total RIEP messages sent during assembly + settle.
        rib_msgs: u64,
        /// Cross-internetwork reachability verified.
        e2e_ok: bool,
    }
}

/// The E6 table of the `experiments` binary.
pub const TABLE: &[Col<ScaleRow>] = &[
    ("regions×hosts", |r| format!("{}×{}", r.regions, r.hosts_per_region)),
    ("config", |r| r.config.cell()),
    ("fwd mean", |r| r.fwd_mean.cell()),
    ("fwd max", |r| r.fwd_max.cell()),
    ("RIEP msgs", |r| r.rib_msgs.cell()),
    ("e2e ok", |r| r.e2e_ok.cell()),
];

struct Built {
    run: ExperimentRun,
    ipcps: Vec<IpcpH>,
    ping: AppH<PingApp>,
}

/// Physical topology: `regions` stars of `hosts` leaves, region routers
/// chained as a backbone line — [`Topology::layered`] materialized
/// either flat (one DIF) or hierarchically (region + backbone +
/// internet DIFs over identical wires).
fn build(regions: usize, hosts: usize, flat: bool, seed: u64) -> Built {
    let mut b = Scenario::new("e6-scale", seed);
    let layered = Topology::line(regions).with_prefix("r").layered(hosts);
    let (ipcps, top_dif, echo_node, ping_node) = if flat {
        let fab = layered.materialize_flat(&mut b);
        let ipcps = fab.member_ipcps(&b);
        // Node order: routers first, then hosts region by region.
        let first_host = fab.node(regions);
        (ipcps, fab.dif, first_host, fab.last())
    } else {
        let fab = layered.materialize(&mut b);
        let ipcps = fab.member_ipcps(&b);
        let last = fab.host(regions - 1, hosts - 1);
        (ipcps, fab.inet, fab.host(0, 0), last)
    };
    b.app(echo_node, AppName::new("echo"), top_dif, EchoApp::default());
    let ping = b.app(
        ping_node,
        AppName::new("ping"),
        top_dif,
        PingApp::new(AppName::new("echo"), QosSpec::reliable(), 3, 32),
    );
    let run = b.assemble(Dur::from_secs(120), Dur::from_secs(1));
    Built { run, ipcps, ping }
}

/// Run one cell.
pub fn run(regions: usize, hosts: usize, flat: bool, seed: u64) -> ScaleRow {
    let Built { mut run, ipcps, ping } = build(regions, hosts, flat, seed);
    run.run_for(Dur::from_secs(3));
    let net = &run.net;
    let t = Totals::of(net, &ipcps, &[]);
    ScaleRow {
        regions,
        hosts_per_region: hosts,
        config: if flat { "flat" } else { "hierarchical" },
        fwd_mean: t.fwd_len as f64 / ipcps.len() as f64,
        fwd_max: t.fwd_max,
        rib_msgs: t.rib_tx,
        e2e_ok: net.app(ping).done(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn hierarchy_bounds_state() {
        let flat = super::run(3, 4, true, 51);
        let hier = super::run(3, 4, false, 51);
        assert!(flat.e2e_ok && hier.e2e_ok);
        // Flat: every member's table covers the whole internetwork.
        assert!(flat.fwd_max >= 3 + 3 * 4 - 1);
        // Hierarchical: the *largest* table still sees internet members
        // (the internet DIF), but the mean drops because regional and
        // backbone members are scoped.
        assert!(hier.fwd_mean < flat.fwd_mean, "hier {} flat {}", hier.fwd_mean, flat.fwd_mean);
    }
}
