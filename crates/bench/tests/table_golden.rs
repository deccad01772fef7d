//! Golden strings for every printed table view: header line, separator,
//! one rendered row and the row's JSON object, from a fixed synthetic
//! row of each of the 13 row types (14 views — E10 has two, and E12's
//! `/dir` column is rendered both ways). Captured from the hand-written
//! `println!` lists the column tables replaced, so a column or field
//! that moves, renames or reformats fails here before it reaches
//! EXPERIMENTS.md or a report consumer.

use rina_bench::report::{markdown, Col, Row};
use rina_bench::*;

/// One view: the table of the single `row` must be exactly
/// `header\nsep\nline\n` and the row's JSON exactly `json`.
fn check<R: Row>(view: &str, cols: &[Col<R>], row: R, [header, sep, line, json]: [&str; 4]) {
    let table = markdown(cols, std::slice::from_ref(&row));
    assert_eq!(table, format!("{header}\n{sep}\n{line}\n"), "{view}: table");
    assert_eq!(row.to_json(), json, "{view}: json");
}

fn fig1() -> e1_fig1::Fig1Row {
    e1_fig1::Fig1Row {
        scenario: "fig2-relay",
        relays: 1,
        alloc_latency_s: 0.012345,
        rtt_mean_s: f64::NAN,
        goodput_mbps: 87.654,
        relayed_pdus: 4_061,
        overhead_bytes: 37,
    }
}

fn fig3() -> e3_fig3::Fig3Row {
    e3_fig3::Fig3Row {
        p_bad: 0.25,
        config: "scoped(+wireless DIF)",
        delivered: 3_000,
        goodput_mbps: 2.5,
        latency_mean_s: 0.04321,
        latency_p99_s: 1.23456,
        e2e_retx: 12,
    }
}

fn fig4() -> e4_fig4::Fig4Row {
    e4_fig4::Fig4Row {
        stack: "inet(tcp)",
        flow_survived: false,
        outage_s: 3.2,
        delivered: 2_000,
        conn_failures: 1,
    }
}

fn fig5() -> e5_fig5::Fig5Row {
    e5_fig5::Fig5Row {
        stack: "rina",
        handoff_gap_s: 0.15,
        flow_survived: true,
        update_msgs: 42,
        delivered: 3_000,
    }
}

fn scale() -> e6_scale::ScaleRow {
    e6_scale::ScaleRow {
        regions: 6,
        hosts_per_region: 12,
        config: "hierarchical",
        fwd_mean: 13.5,
        fwd_max: 77,
        rib_msgs: 9_876,
        e2e_ok: true,
    }
}

fn security() -> e7_security::SecurityRow {
    e7_security::SecurityRow {
        stack: "rina(open DIF, app access control)",
        probes: 10,
        leaks: 1,
        payloads_delivered: 0,
    }
}

fn enroll() -> e8_enroll::EnrollRow {
    e8_enroll::EnrollRow {
        members: 32,
        assemble_s: 123.456,
        mgmt_msgs: 7_040,
        mgmt_per_member: 220.0,
    }
}

fn util() -> e9_util::UtilRow {
    e9_util::UtilRow {
        offered_load: 1.1,
        sched: "priority",
        utilization: 0.9876,
        inter_lat_mean_s: 0.0061,
        inter_lat_p99_s: 0.0125,
        bulk_mbps: 9.5,
    }
}

fn scale_free() -> e10_scalefree::ScaleFreeRow {
    e10_scalefree::ScaleFreeRow {
        members: 1000,
        attach_degree: 2,
        schedule: "waves",
        assemble_s: 8.4321,
        wall_s: 31.25,
        mgmt_per_member: 412.5,
        rib_pdus: 1_234_567,
        flood_suppressed: 98_765,
        spf_full: 4_321,
        spf_incremental: 87_654,
        ft_delta: 345_678,
        hub_degree: 93,
        hub_fwd: 999,
        hub_fwd_agg: 120,
        fwd_mean: 998.75,
        fwd_agg_mean: 7.0625,
        hub_relayed: 555,
        relay_fast: 4_444,
        e2e_ok: true,
    }
}

fn churn() -> e11_churn::ChurnRow {
    e11_churn::ChurnRow {
        members: 200,
        leaves: 2,
        fails: 2,
        flaps: 2,
        partitions: 1,
        assemble_s: 6.75,
        churn_s: 84.0,
        reconverge_s: 2.5,
        calm_samples: 61,
        reach_min: 0.995,
        agg_before: 1_405,
        agg_after: 1_398,
        agg_peak_calm: 1_420,
        stale_final: 0,
        purged: 2,
        reasserts: 3,
        wall_s: 12.125,
        converged: true,
    }
}

fn partial_rib(scoped: bool) -> e12_partial_rib::PartialRibRow {
    e12_partial_rib::PartialRibRow {
        members: 500,
        scoped,
        assemble_s: 7.5,
        wall_s: 0.75,
        rib_objects_max: 2_003,
        rib_bytes_max: 91_234,
        dir_objects_max: 3,
        dir_objects_mean: 2.004,
        dir_lookups: 1_000,
        dir_cache_hits: 250,
        rib_pdus: 456_789,
        e2e_ok: true,
    }
}

fn flows() -> e13_flows::FlowsRow {
    e13_flows::FlowsRow {
        members: 500,
        drivers: 2_460,
        sched: "priority",
        concurrent_peak: 2_301,
        concurrent_sustained: 2_207,
        allocs: 5_120,
        alloc_failures: 4,
        flow_deaths: 9,
        allocs_per_s: 204.8,
        alloc_p99_ms: 61.5,
        inter_p99_ms: 18.25,
        bulk_p99_ms: 950.0,
        sdus_sent: 1_000_000,
        sdus_received: 912_345,
        rmt_drops_inter: 0,
        rmt_drops_bulk: 54_321,
        rmt_deq_bytes: 3_000_000_000,
        rmt_backlog_peak: 131_072,
        relay_fast: 2_222_222,
        wall_s: 140.5,
    }
}

fn sweep_row() -> sweep::SweepRow {
    sweep::SweepRow {
        id: "ba2-n96-waves-l0.02-f64".into(),
        size: 96,
        topology: "ba2",
        schedule: "waves".into(),
        loss: 0.02,
        flood_rate: 64,
        makespan_s: 5.125,
        mgmt_pdus: 20_480,
        rib_pdus: 16_000,
        flood_suppressed: 1_234,
        flood_throttled: 1_200,
        spf_full: 300,
        spf_incremental: 4_000,
        ft_delta: 9_000,
        reachable: true,
        agg_len: 640,
        stale_rib: 0,
        invariants: 0,
        half_open: 2,
        churn_reach: 1.0,
        rib_objects_max: 400,
        rib_bytes_max: 18_000,
        flow_allocs: 0,
        flow_alloc_fail: 0,
        flow_sdus: 0,
        flow_recv: 0,
        rmt_drops: 0,
        rmt_deq_bytes: 2_345_678,
        relay_fast: 1_111,
        events: 654_321,
        wall_s: 0.123456,
    }
}

#[test]
fn every_table_view_matches_its_golden_strings() {
    check(
        "E1/E2",
        e1_fig1::TABLE,
        fig1(),
        [
            "| scenario | relays | alloc latency (s) | RTT mean (s) | goodput (Mb/s) | relayed PDUs | hdr overhead (B) |",
            "|---|---|---|---|---|---|---|",
            "| fig2-relay | 1 | 0.0123 | NaN | 87.65 | 4061 | 37 |",
            r#"{"scenario": "fig2-relay", "relays": 1, "alloc_latency_s": 0.012345, "rtt_mean_s": null, "goodput_mbps": 87.654, "relayed_pdus": 4061, "overhead_bytes": 37}"#,
        ],
    );
    check(
        "E3",
        e3_fig3::TABLE,
        fig3(),
        [
            "| P(bad) | config | delivered | goodput (Mb/s) | lat mean (s) | lat p99 (s) |",
            "|---|---|---|---|---|---|",
            "| 0.2500 | scoped(+wireless DIF) | 3000 | 2.50 | 0.0432 | 1.23 |",
            r#"{"p_bad": 0.25, "config": "scoped(+wireless DIF)", "delivered": 3000, "goodput_mbps": 2.5, "latency_mean_s": 0.04321, "latency_p99_s": 1.23456, "e2e_retx": 12}"#,
        ],
    );
    check(
        "E4",
        e4_fig4::TABLE,
        fig4(),
        [
            "| stack | flow survived | outage (s) | delivered/2000 | conn failures |",
            "|---|---|---|---|---|",
            "| inet(tcp) | false | 3.20 | 2000 | 1 |",
            r#"{"stack": "inet(tcp)", "flow_survived": false, "outage_s": 3.2, "delivered": 2000, "conn_failures": 1}"#,
        ],
    );
    check(
        "E5",
        e5_fig5::TABLE,
        fig5(),
        [
            "| stack | handoff gap (s) | flow survived | update/tunnel msgs | delivered/3000 |",
            "|---|---|---|---|---|",
            "| rina | 0.1500 | true | 42 | 3000 |",
            r#"{"stack": "rina", "handoff_gap_s": 0.15, "flow_survived": true, "update_msgs": 42, "delivered": 3000}"#,
        ],
    );
    check(
        "E6",
        e6_scale::TABLE,
        scale(),
        [
            "| regions×hosts | config | fwd mean | fwd max | RIEP msgs | e2e ok |",
            "|---|---|---|---|---|---|",
            "| 6×12 | hierarchical | 13.50 | 77 | 9876 | true |",
            r#"{"regions": 6, "hosts_per_region": 12, "config": "hierarchical", "fwd_mean": 13.5, "fwd_max": 77, "rib_msgs": 9876, "e2e_ok": true}"#,
        ],
    );
    check(
        "E7",
        e7_security::TABLE,
        security(),
        [
            "| stack | probes | information leaks | attacker payloads delivered |",
            "|---|---|---|---|",
            "| rina(open DIF, app access control) | 10 | 1 | 0 |",
            r#"{"stack": "rina(open DIF, app access control)", "probes": 10, "leaks": 1, "payloads_delivered": 0}"#,
        ],
    );
    check(
        "E8",
        e8_enroll::TABLE,
        enroll(),
        [
            "| members | assemble (s) | mgmt msgs | per member |",
            "|---|---|---|---|",
            "| 32 | 123 | 7040 | 220 |",
            r#"{"members": 32, "assemble_s": 123.456, "mgmt_msgs": 7040, "mgmt_per_member": 220}"#,
        ],
    );
    check(
        "E9",
        e9_util::TABLE,
        util(),
        [
            "| offered load | sched | utilization | inter lat mean (s) | inter lat p99 (s) | bulk (Mb/s) |",
            "|---|---|---|---|---|---|",
            "| 1.10 | priority | 0.9876 | 0.0061 | 0.0125 | 9.50 |",
            r#"{"offered_load": 1.1, "sched": "priority", "utilization": 0.9876, "inter_lat_mean_s": 0.0061, "inter_lat_p99_s": 0.0125, "bulk_mbps": 9.5}"#,
        ],
    );
    check(
        "E10",
        e10_scalefree::TABLE,
        scale_free(),
        [
            "| members | m | schedule | makespan (s) | wall (s) | mgmt/member | rib PDUs | hub degree | hub fwd | hub agg | fwd mean | agg mean | e2e ok |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
            "| 1000 | 2 | waves | 8.43 | 31.25 | 412 | 1234567 | 93 | 999 | 120 | 999 | 7.06 | true |",
            r#"{"members": 1000, "attach_degree": 2, "schedule": "waves", "assemble_s": 8.4321, "wall_s": 31.25, "mgmt_per_member": 412.5, "rib_pdus": 1234567, "flood_suppressed": 98765, "spf_full": 4321, "spf_incremental": 87654, "ft_delta": 345678, "hub_degree": 93, "hub_fwd": 999, "hub_fwd_agg": 120, "fwd_mean": 998.75, "fwd_agg_mean": 7.0625, "hub_relayed": 555, "relay_fast": 4444, "e2e_ok": true}"#,
        ],
    );
    check(
        "E11",
        e11_churn::TABLE,
        churn(),
        [
            "| members | leaves | fails | flaps | parts | assemble (s) | churn (s) | reconverge (s) | reach min | agg before | agg after | agg peak | stale | purged | converged |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|",
            "| 200 | 2 | 2 | 2 | 1 | 6.75 | 84.00 | 2.50 | 0.9950 | 1405 | 1398 | 1420 | 0 | 2 | true |",
            r#"{"members": 200, "leaves": 2, "fails": 2, "flaps": 2, "partitions": 1, "assemble_s": 6.75, "churn_s": 84, "reconverge_s": 2.5, "calm_samples": 61, "reach_min": 0.995, "agg_before": 1405, "agg_after": 1398, "agg_peak_calm": 1420, "stale_final": 0, "purged": 2, "reasserts": 3, "wall_s": 12.125, "converged": true}"#,
        ],
    );
    check(
        "e10 bin",
        e10_scalefree::SWEEP_TABLE,
        scale_free(),
        [
            "| members | schedule | makespan (s) | wall (s) | mgmt/member | rib PDUs | suppressed | spf full | spf incr | ft delta | e2e ok |",
            "|---|---|---|---|---|---|---|---|---|---|---|",
            "| 1000 | waves | 8.43 | 31.25 | 412 | 1234567 | 98765 | 4321 | 87654 | 345678 | true |",
            r#"{"members": 1000, "attach_degree": 2, "schedule": "waves", "assemble_s": 8.4321, "wall_s": 31.25, "mgmt_per_member": 412.5, "rib_pdus": 1234567, "flood_suppressed": 98765, "spf_full": 4321, "spf_incremental": 87654, "ft_delta": 345678, "hub_degree": 93, "hub_fwd": 999, "hub_fwd_agg": 120, "fwd_mean": 998.75, "fwd_agg_mean": 7.0625, "hub_relayed": 555, "relay_fast": 4444, "e2e_ok": true}"#,
        ],
    );
    check(
        "e12 bin (scoped)",
        e12_partial_rib::TABLE,
        partial_rib(true),
        [
            "| members | /dir | rib obj max | rib bytes max | dir obj max | dir obj mean | lookups | cache hits | rib PDUs | makespan (s) | wall (s) | e2e ok |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|",
            "| 500 | scoped | 2003 | 91234 | 3 | 2.00 | 1000 | 250 | 456789 | 7.50 | 0.7500 | true |",
            r#"{"members": 500, "scoped": true, "assemble_s": 7.5, "wall_s": 0.75, "rib_objects_max": 2003, "rib_bytes_max": 91234, "dir_objects_max": 3, "dir_objects_mean": 2.004, "dir_lookups": 1000, "dir_cache_hits": 250, "rib_pdus": 456789, "e2e_ok": true}"#,
        ],
    );
    check(
        "e12 bin (full)",
        e12_partial_rib::TABLE,
        partial_rib(false),
        [
            "| members | /dir | rib obj max | rib bytes max | dir obj max | dir obj mean | lookups | cache hits | rib PDUs | makespan (s) | wall (s) | e2e ok |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|",
            "| 500 | full | 2003 | 91234 | 3 | 2.00 | 1000 | 250 | 456789 | 7.50 | 0.7500 | true |",
            r#"{"members": 500, "scoped": false, "assemble_s": 7.5, "wall_s": 0.75, "rib_objects_max": 2003, "rib_bytes_max": 91234, "dir_objects_max": 3, "dir_objects_mean": 2.004, "dir_lookups": 1000, "dir_cache_hits": 250, "rib_pdus": 456789, "e2e_ok": true}"#,
        ],
    );
    check(
        "e13 bin",
        e13_flows::TABLE,
        flows(),
        [
            "| members | drivers | sched | sustained | peak | allocs/s | alloc p99 (ms) | deaths | inter p99 (ms) | bulk p99 (ms) | drops inter | drops bulk | relay fast | wall (s) |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|",
            "| 500 | 2460 | priority | 2207 | 2301 | 205 | 61.50 | 9 | 18.25 | 950 | 0 | 54321 | 2222222 | 140 |",
            r#"{"members": 500, "drivers": 2460, "sched": "priority", "concurrent_peak": 2301, "concurrent_sustained": 2207, "allocs": 5120, "alloc_failures": 4, "flow_deaths": 9, "allocs_per_s": 204.8, "alloc_p99_ms": 61.5, "inter_p99_ms": 18.25, "bulk_p99_ms": 950, "sdus_sent": 1000000, "sdus_received": 912345, "rmt_drops_inter": 0, "rmt_drops_bulk": 54321, "rmt_deq_bytes": 3000000000, "rmt_backlog_peak": 131072, "relay_fast": 2222222, "wall_s": 140.5}"#,
        ],
    );
    check(
        "sweep bin",
        sweep::TABLE,
        sweep_row(),
        [
            "| cell | makespan (s) | mgmt PDUs | rib PDUs | suppressed | reachable | wall (s) |",
            "|---|---|---|---|---|---|---|",
            "| ba2-n96-waves-l0.02-f64 | 5.12 | 20480 | 16000 | 1234 | true | 0.123 |",
            r#"{"id": "ba2-n96-waves-l0.02-f64", "size": 96, "topology": "ba2", "schedule": "waves", "loss": 0.02, "flood_rate": 64, "makespan_s": 5.125, "mgmt_pdus": 20480, "rib_pdus": 16000, "flood_suppressed": 1234, "flood_throttled": 1200, "spf_full": 300, "spf_incremental": 4000, "ft_delta": 9000, "reachable": true, "agg_len": 640, "stale_rib": 0, "invariants": 0, "half_open": 2, "churn_reach": 1, "rib_objects_max": 400, "rib_bytes_max": 18000, "flow_allocs": 0, "flow_alloc_fail": 0, "flow_sdus": 0, "flow_recv": 0, "rmt_drops": 0, "rmt_deq_bytes": 2345678, "relay_fast": 1111, "events": 654321, "wall_s": 0.123456}"#,
        ],
    );
}
