//! The benchmark's contract in one place: workloads and why they exist,
//! every metric with unit, direction and bound. `benchmark spec` prints
//! `BENCHMARK.json` from these tables and a test pins the checked-in
//! file to them.

use crate::json::Json;
use crate::workloads::Workload;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// One reported metric.
pub struct Metric {
    /// Name, prefixed with its layer for per-layer metrics.
    pub name: &'static str,
    /// Unit tag.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better: "lower", bound }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: "lower", bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: "higher", bound: 0.0 }
}

/// What a user of the system sees; same names on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("rss_peak_mb", "MiB", 0.10),
];

/// Metrics of single layers: counts read from public stats, kernel
/// ns/op timed in isolation, and the share of `wall_s` the two imply.
/// Direction is what a leaner run looks like; none carries a bound.
pub const PER_LAYER: &[Metric] = &[
    lower("sim.frames", "count"),
    lower("sim.frame_bytes", "B"),
    lower("sim.link_drops", "count"),
    lower("sim.heap_depth_peak", "count"),
    lower("sim.ns_per_frame", "ns"),
    lower("sim.timer_ns", "ns"),
    lower("sim.deliver_ns", "ns"),
    lower("sim.est_share", "share"),
    lower("wire.relay_ops", "count"),
    higher("wire.fast_share", "share"),
    lower("wire.decode_errors", "count"),
    lower("wire.encode_ns", "ns"),
    lower("wire.decode_ns", "ns"),
    lower("wire.peek_ns", "ns"),
    lower("wire.patch_ns", "ns"),
    lower("wire.crc32_ns_per_kib", "ns/KiB"),
    lower("wire.est_share", "share"),
    lower("efcp.pdus_sent", "count"),
    lower("efcp.retx", "count"),
    lower("efcp.retx_share", "share"),
    lower("efcp.timeouts", "count"),
    lower("efcp.acks_sent", "count"),
    lower("efcp.dup_pdus", "count"),
    lower("efcp.ooo_pdus", "count"),
    lower("efcp.rcv_dropped", "count"),
    lower("efcp.cong_backoffs", "count"),
    lower("efcp.pump_ns", "ns"),
    lower("efcp.est_share", "share"),
    lower("rmt.enq", "count"),
    lower("rmt.deq", "count"),
    lower("rmt.drops", "count"),
    lower("rmt.evict", "count"),
    lower("rmt.shed_share", "share"),
    lower("rmt.backlog_peak_bytes", "B"),
    lower("rmt.wait_mean_vus", "us"),
    lower("rmt.pushpop_ns", "ns"),
    lower("rmt.est_share", "share"),
    lower("rib.tx", "count"),
    higher("rib.flood_suppressed", "count"),
    higher("rib.suppressed_share", "share"),
    lower("rib.delta_requests", "count"),
    lower("rib.objects_max", "count"),
    lower("rib.apply_ns", "ns"),
    lower("rib.digest_ns", "ns"),
    lower("rib.est_share", "share"),
    lower("routing.spf_full", "count"),
    lower("routing.spf_incremental", "count"),
    lower("routing.ft_delta", "count"),
    lower("routing.fwd_agg_mean", "count"),
    lower("routing.spf_full_ns", "ns"),
    lower("routing.spf_delta_ns", "ns"),
    lower("routing.est_share", "share"),
    lower("ipcp.mgmt_tx", "count"),
    lower("ipcp.mgmt_per_member", "count"),
    lower("ipcp.enroll_deferred", "count"),
    lower("ipcp.flow_reqs", "count"),
    lower("ipcp.no_route", "count"),
    lower("ipcp.ttl_drops", "count"),
    lower("ipcp.dir_lookups", "count"),
    lower("ipcp.purged", "count"),
    lower("ipcp.reasserts", "count"),
    lower("scenario.nodes", "count"),
    lower("scenario.links", "count"),
    lower("scenario.build_s", "s"),
    lower("app.makespan_vs", "s"),
    higher("app.ops", "count"),
    lower("app.fail_share", "share"),
    higher("app.lat_samples", "count"),
    lower("app.lat_p50_vms", "ms"),
    lower("app.lat_tail_vms", "ms"),
    higher("app.lat_tail_pct", "%"),
    higher("app.allocs", "count"),
    lower("app.alloc_p99_vms", "ms"),
    higher("app.goodput_vmbps", "Mbit/s"),
    lower("app.reconverge_vs", "s"),
    lower("phase.assemble_s", "s"),
    lower("phase.run_s", "s"),
    lower("phase.collect_s", "s"),
    lower("phase.window_ns_p50", "ns"),
    lower("phase.window_ns_p99", "ns"),
    lower("host.speed_factor", "ratio"),
    lower("host.wall_raw_s", "s"),
    lower("host.cpu_user_s", "s"),
    lower("host.cpu_sys_s", "s"),
    lower("host.minor_faults", "count"),
    lower("host.rep_spread", "share"),
    higher("host.reps", "count"),
    lower("host.trace_overhead_share", "share"),
    lower("host.trace_self_share", "share"),
    lower("host.unattributed_share", "share"),
];

/// Why each workload was chosen (one line each, as `BENCHMARK.json` wants).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::Assemble => "200-member scale-free DIF enrols in waves, then a permutation-ring ping: management plane only (enrolment, RIB flooding, SPF growth), almost no data plane",
        Workload::Flows => "100-member DIF, 12 Mbit/s links, 480 flow-churn drivers to 4 leaf sinks under priority RMT: congested data plane (fast-path relay, push-out, flow allocation, EFCP timers, deep event heap)",
        Workload::Relay => "9-node line, 4 sources send 64-byte reliable SDUs 400 us apart over 1 Gbit/s: bare forwarding of the smallest PDU with empty queues, the same layers as flows used the other way",
        Workload::Churn => "100-member DIF through a leave, a crash, a link flap and a partition, then to quiescence: management plane shrinking and repairing (tombstones, anti-entropy, SPF withdraw, idle hello timers)",
    }
}

fn metric_json(m: &Metric, bounded: bool) -> Json {
    let mut o = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better)),
    ];
    if bounded {
        o.push(("bound", Json::Num(m.bound)));
    }
    Json::obj(o)
}

/// The contents of the root `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|&w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(why(w)))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(|m| metric_json(m, true)).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(|m| metric_json(m, false)).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// The limits the driver checks before a single run.
    #[test]
    fn tables_are_inside_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(well_formed(n, 64, "_.-") && n.as_bytes()[0].is_ascii_alphanumeric(), "{n}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.unit, 16, "_/%.-"), "unit of {}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
        for w in Workload::ALL {
            assert!(why(w).len() <= 200 && !why(w).contains('\n'), "why of {}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(benchmark_json().to_string().len() < 64 * 1024);
    }
}
