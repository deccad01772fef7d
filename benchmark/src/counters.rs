//! Deterministic layer counters, read from the public stats the layers
//! already export — nothing here touches host time, so two runs of one
//! seed must agree byte for byte.

use rina::prelude::*;

/// Named counts in a fixed order (the order [`collect`] lists them).
pub type Counts = Vec<(&'static str, u64)>;

/// The value of `name`, or 0 when `counts` is empty (a rep that died
/// before collecting).
pub fn get(counts: &Counts, name: &str) -> u64 {
    counts.iter().find(|&&(n, _)| n == name).map_or(0, |&(_, v)| v)
}

/// State sizes that cost a walk over every member's RIB and table to
/// read: taken once at the end of a rep, not at every window edge.
pub fn gauges(net: &Net, members: &[IpcpH]) -> Counts {
    let ipcps = || members.iter().map(|&h| net.ipcp(h));
    vec![
        ("rib.objects_max", ipcps().map(|i| i.rib.len() as u64).max().unwrap_or(0)),
        ("routing.fwd_agg_sum", ipcps().map(|i| i.fwd().aggregated_len() as u64).sum()),
    ]
}

/// Sum every layer's public counters over the DIF.
///
/// `efcp.*` comes from `Ipcp::conn_stats_sum`, which covers the flows
/// open at this instant only: on a workload that closes flows the sums
/// can fall between two samples.
pub fn collect(net: &Net, fab: &Fabric, members: &[IpcpH]) -> Counts {
    let mut link = rina_sim::LinkStats::default();
    for &l in &fab.links {
        let s = net.sim.link_stats(net.link_id(l));
        link.delivered += s.delivered;
        link.delivered_bytes += s.delivered_bytes;
        link.drops_overflow += s.drops_overflow;
        link.drops_loss += s.drops_loss;
    }
    let mut lane = LaneStats::default();
    for &n in &fab.nodes {
        for s in net.node(n).rmt_lane_stats().iter() {
            lane.merge(s);
        }
    }
    let mut ip = rina::ipcp::IpcpStats::default();
    let mut conn = rina_efcp::ConnStats::default();
    let mut route = rina::routing::EngineStats::default();
    for &h in members {
        let i = net.ipcp(h);
        let (s, c, r) = (&i.stats, i.conn_stats_sum(), i.route_stats());
        ip.relayed += s.relayed;
        ip.relay_fast += s.relay_fast;
        ip.decode_errors += s.decode_errors;
        ip.rib_tx += s.rib_tx;
        ip.flood_suppressed += s.flood_suppressed;
        ip.delta_requests += s.delta_requests;
        ip.mgmt_tx += s.mgmt_tx;
        ip.enrollments_deferred += s.enrollments_deferred;
        ip.flow_reqs_in += s.flow_reqs_in;
        ip.no_route += s.no_route;
        ip.ttl_drops += s.ttl_drops;
        ip.dir_lookups_sent += s.dir_lookups_sent;
        ip.members_purged += s.members_purged;
        ip.reasserts += s.reasserts;
        conn.pdus_sent += c.pdus_sent;
        conn.retransmissions += c.retransmissions;
        conn.timeouts += c.timeouts;
        conn.acks_sent += c.acks_sent;
        conn.dup_pdus += c.dup_pdus;
        conn.ooo_pdus += c.ooo_pdus;
        conn.rcv_dropped += c.rcv_dropped;
        conn.cong_backoffs += c.cong_backoffs;
        route.spf_full += r.spf_full;
        route.spf_incremental += r.spf_incremental;
        route.ft_delta += r.ft_delta;
    }
    vec![
        ("sim.frames", link.delivered),
        ("sim.frame_bytes", link.delivered_bytes),
        ("sim.link_drops", link.drops_overflow + link.drops_loss),
        ("wire.relay_ops", ip.relayed),
        ("wire.relay_fast", ip.relay_fast),
        ("wire.decode_errors", ip.decode_errors),
        ("efcp.pdus_sent", conn.pdus_sent),
        ("efcp.retx", conn.retransmissions),
        ("efcp.timeouts", conn.timeouts),
        ("efcp.acks_sent", conn.acks_sent),
        ("efcp.dup_pdus", conn.dup_pdus),
        ("efcp.ooo_pdus", conn.ooo_pdus),
        ("efcp.rcv_dropped", conn.rcv_dropped),
        ("efcp.cong_backoffs", conn.cong_backoffs),
        ("rmt.enq", lane.enq),
        ("rmt.deq", lane.deq),
        ("rmt.drops", lane.drops),
        ("rmt.evict", lane.evict),
        ("rmt.wait_vns_sum", lane.lat_ns_sum),
        ("rmt.backlog_peak_bytes", lane.backlog_peak_bytes),
        ("rib.tx", ip.rib_tx),
        ("rib.flood_suppressed", ip.flood_suppressed),
        ("rib.delta_requests", ip.delta_requests),
        ("routing.spf_full", route.spf_full),
        ("routing.spf_incremental", route.spf_incremental),
        ("routing.ft_delta", route.ft_delta),
        ("ipcp.mgmt_tx", ip.mgmt_tx),
        ("ipcp.enroll_deferred", ip.enrollments_deferred),
        ("ipcp.flow_reqs", ip.flow_reqs_in),
        ("ipcp.no_route", ip.no_route),
        ("ipcp.ttl_drops", ip.ttl_drops),
        ("ipcp.dir_lookups", ip.dir_lookups_sent),
        ("ipcp.purged", ip.members_purged),
        ("ipcp.reasserts", ip.reasserts),
    ]
}
