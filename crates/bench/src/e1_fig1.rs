//! E1 (Figure 1) + E2 (Figure 2): the elemental scenarios.
//!
//! Two hosts on one wire (Fig 1), then two hosts joined by a relaying
//! router (Fig 2). Reported: flow-allocation latency (by *name*), RTT,
//! goodput, relay activity, and per-PDU header overhead per layer.

use crate::report::{Col, Scalar};
use crate::{row, Scenario, Totals};
use rina::apps::{EchoApp, PingApp, SinkApp, SourceApp};
use rina::prelude::*;

row! {
    /// Result of the two-system / relay scenarios.
    pub struct Fig1Row {
        /// Scenario name.
        scenario: &'static str,
        /// Number of relaying members on the path.
        relays: usize,
        /// Time from allocation request to flow active (seconds).
        alloc_latency_s: f64,
        /// Mean application RTT (seconds).
        rtt_mean_s: f64,
        /// Bulk goodput (Mbit/s) over the transfer.
        goodput_mbps: f64,
        /// PDUs relayed by intermediate members.
        relayed_pdus: u64,
        /// Wire overhead per data PDU at the top DIF (bytes).
        overhead_bytes: usize,
    }
}

/// The E1/E2 table of the `experiments` binary.
pub const TABLE: &[Col<Fig1Row>] = &[
    ("scenario", |r| r.scenario.cell()),
    ("relays", |r| r.relays.cell()),
    ("alloc latency (s)", |r| r.alloc_latency_s.cell()),
    ("RTT mean (s)", |r| r.rtt_mean_s.cell()),
    ("goodput (Mb/s)", |r| r.goodput_mbps.cell()),
    ("relayed PDUs", |r| r.relayed_pdus.cell()),
    ("hdr overhead (B)", |r| r.overhead_bytes.cell()),
];

/// Run Figure 1 (relays = 0) or Figure 2 (relays = 1) style chains.
pub fn run(relays: usize, seed: u64) -> Fig1Row {
    let mut s = Scenario::new("fig1-chain", seed);
    let fab = Topology::line(relays + 2).materialize(&mut s);
    let (first, last) = (fab.node(0), fab.last());
    s.app(last, AppName::new("echo"), fab.dif, EchoApp::default());
    let ping = s.app(
        first,
        AppName::new("ping"),
        fab.dif,
        PingApp::new(AppName::new("echo"), QosSpec::reliable(), 20, 64),
    );
    let src = s.app(
        first,
        AppName::new("src"),
        fab.dif,
        SourceApp::new(AppName::new("sink"), QosSpec::reliable(), 1200, 2000, Dur::ZERO),
    );
    let sink = s.app(last, AppName::new("sink"), fab.dif, SinkApp::default());
    let relay_ipcps: Vec<IpcpH> = (1..=relays).map(|i| s.ipcp_of(fab.dif, fab.node(i))).collect();

    let mut run = s.assemble(Dur::from_secs(30), Dur::from_millis(200));
    run.run_for(Dur::from_secs(20));
    let net = &run.net;

    let p = net.app(ping);
    let alloc = match (p.alloc_requested, p.alloc_done) {
        (Some(a), Some(b)) => b.since(a).as_secs_f64(),
        _ => f64::NAN,
    };
    let rtt =
        if p.rtts.is_empty() { f64::NAN } else { p.rtts.iter().sum::<f64>() / p.rtts.len() as f64 };
    let sk = net.app(sink);
    let dur = sk.last_arrival.since(net.app(src).flow_up_at.unwrap_or(Time::ZERO)).as_secs_f64();
    let goodput = if dur > 0.0 { sk.bytes as f64 * 8.0 / dur / 1e6 } else { 0.0 };

    // Header + trailer overhead of a representative top-DIF data PDU.
    const PAYLOAD: usize = 64;
    let pdu = rina_wire::Pdu::Data(rina_wire::DataPdu {
        dest_addr: 2,
        src_addr: 1,
        qos_id: 1,
        dest_cep: 3,
        src_cep: 4,
        seq: 1000,
        flags: 0,
        ttl: 64,
        payload: bytes::Bytes::from_static(&[0u8; PAYLOAD]),
    });

    Fig1Row {
        scenario: if relays == 0 { "fig1-two-hosts" } else { "fig2-relay" },
        relays,
        alloc_latency_s: alloc,
        rtt_mean_s: rtt,
        goodput_mbps: goodput,
        relayed_pdus: Totals::of(net, &relay_ipcps, &[]).relayed,
        overhead_bytes: pdu.encode().len() - PAYLOAD,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig1_and_fig2_shapes() {
        let r0 = super::run(0, 1);
        assert!(r0.alloc_latency_s < 0.1, "alloc {}", r0.alloc_latency_s);
        assert!(r0.rtt_mean_s > 0.002 && r0.rtt_mean_s < 0.1);
        assert!(r0.goodput_mbps > 1.0);
        assert_eq!(r0.relayed_pdus, 0);
        let r1 = super::run(1, 2);
        assert!(r1.relayed_pdus > 0, "router relayed");
        assert!(r1.rtt_mean_s > r0.rtt_mean_s, "extra hop adds delay");
    }
}
