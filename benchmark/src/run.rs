//! One run of one workload: a warm-up rep, then timed reps until
//! `--seconds` have passed, every metric the median over the reps.
//!
//! Rep `i` of a run draws its scenario from a sub-seed of `--seed`, so a
//! run's medians average over several topologies and two seeds disagree
//! by sampling noise only. The warm-up rep repeats rep 0's sub-seed: the
//! two must produce the same [`Outcome`] byte for byte. A traced run
//! pairs every untraced rep with a traced rep of the same sub-seed; the
//! pair must agree too, and their wall ratio is the tracing overhead.

use crate::counters;
use crate::host::{self, Cost};
use crate::json::Json;
use crate::kernels::{self, Kernels, Shape};
use crate::spec::{self, Metric};
use crate::stats::{median, quartiles};
use crate::trace::{Pacer, Trace};
use crate::workloads::{self, Outcome, Workload};
use rina::prelude::SchedPolicy;
use std::path::PathBuf;
use std::time::Instant;

/// What `--workload … --seed … --seconds … --trace …` asked for.
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds to keep starting timed reps for.
    pub seconds: f64,
    /// Report per-layer metrics from traced reps instead of end-to-end.
    pub traced: bool,
    /// Run the small scale the package's tests use.
    pub smoke: bool,
    /// Directory for the full record (and the spans of a traced run).
    pub out: Option<PathBuf>,
}

/// Fewest timed reps a run reports medians over.
const MIN_REPS: usize = 3;
/// Host seconds after which no further rep starts, whatever `--seconds`.
const HARD_STOP_S: f64 = 100.0;

struct Rep {
    /// How much slower than nominal the box ran during the rep.
    speed: f64,
    setup_s: f64,
    /// Host seconds inside the tracer's own code (0 when untraced).
    tracing_s: f64,
    cost: Cost,
    outcome: Outcome,
    edges: Vec<(usize, usize)>,
    nodes: usize,
}

/// splitmix64: rep `i`'s scenario seed.
fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rep(cfg: &Config, i: u64, trace: Option<&mut Trace>) -> Rep {
    let mut pacer = Pacer::new(trace);
    let mut built =
        pacer.build(|| workloads::build(cfg.workload, sub_seed(cfg.seed, i), cfg.smoke));
    let outcome = workloads::run(&mut built, &mut pacer);
    Rep {
        speed: pacer.speed_factor(),
        setup_s: pacer.setup_s(),
        tracing_s: pacer.tracing_s(),
        cost: pacer.measured(),
        outcome,
        edges: built.scene.fab.edges.clone(),
        nodes: built.scene.fab.nodes.len(),
    }
}

/// A named value with the samples behind it.
struct Value {
    metric: &'static Metric,
    value: f64,
    samples: Vec<f64>,
}

fn lookup(table: &'static [Metric], name: &str) -> &'static Metric {
    table.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{name} is not in spec.rs"))
}

fn end_to_end(reps: &[Rep]) -> Vec<Value> {
    let of = |name: &str, f: &dyn Fn(&Rep) -> f64| {
        let samples: Vec<f64> = reps.iter().map(f).collect();
        Value { metric: lookup(spec::END_TO_END, name), value: median(&samples), samples }
    };
    let rss = host::rss_peak_mb();
    vec![
        of("wall_s", &|r| r.cost.wall_s / r.speed),
        of("cpu_s", &|r| r.cost.cpu_s / r.speed),
        of("setup_s", &|r| r.setup_s / r.speed),
        Value { metric: lookup(spec::END_TO_END, "rss_peak_mb"), value: rss, samples: vec![rss] },
    ]
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced run. Counts are medians over the traced
/// reps; kernels run once, shaped by those medians.
fn per_layer(plain: &[Rep], traced: &[Rep], trace: &Trace) -> Vec<Value> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let norm = |r: &Rep| r.cost.wall_s / r.speed;
    let count = |name: &'static str| med(&|r| counters::get(&r.outcome.counts, name) as f64);
    let wall = med(&|r| r.cost.wall_s);
    let frames = count("sim.frames");
    let last = traced.last().expect("a traced run has reps");
    let shape = Shape {
        frame_bytes: share(count("sim.frame_bytes"), frames).round() as usize,
        heap_depth: trace.heap_depth_peak(),
        policy: SchedPolicy::Priority,
        backlog_bytes: count("rmt.backlog_peak_bytes") as usize,
        rib_objects: count("rib.objects_max") as usize,
        edges: last.edges.clone(),
    };
    let k: Kernels = kernels::run(&shape);
    let reps = traced.len() as f64;
    let walls: Vec<f64> = plain.iter().map(norm).collect();
    let overhead: Vec<f64> =
        plain.iter().zip(traced).map(|(p, t)| share(norm(t), norm(p)) - 1.0).collect();
    let windows = trace.window_ns();

    // Estimated seconds of one rep spent in each layer: op count × the
    // layer's ns/op in isolation. `sim` costs every link frame as one
    // send + deliver (timers are not countable from outside); `wire`
    // costs a relay as peek + patch and every terminating frame as one
    // encode and one decode; `rib` costs every RIEP object as an apply
    // and every management PDU as a hello's digest comparison.
    let relayed = count("wire.relay_ops");
    let est = [
        ("sim.est_share", frames * k.sim_deliver_ns),
        (
            "wire.est_share",
            count("wire.relay_fast") * (k.wire_peek_ns + k.wire_patch_ns)
                + (frames - relayed).max(0.0) * (k.wire_encode_ns + k.wire_decode_ns),
        ),
        ("efcp.est_share", count("efcp.pdus_sent") * k.efcp_pump_ns),
        ("rmt.est_share", count("rmt.enq") * k.rmt_pushpop_ns),
        (
            "rib.est_share",
            count("rib.tx") * k.rib_apply_ns + count("ipcp.mgmt_tx") * k.rib_digest_ns,
        ),
        (
            "routing.est_share",
            count("routing.spf_full") * k.routing_spf_full_ns
                + count("routing.spf_incremental") * k.routing_spf_delta_ns,
        ),
    ]
    .map(|(n, ns)| (n, share(ns / 1e9, wall)));
    let attributed: f64 = est.iter().map(|&(_, s)| s).sum();

    let shed = count("rmt.drops") + count("rmt.evict");
    let mut v: Vec<(&'static str, f64)> = vec![
        ("sim.heap_depth_peak", shape.heap_depth as f64),
        ("sim.ns_per_frame", share(wall * 1e9, frames)),
        ("sim.timer_ns", k.sim_timer_ns),
        ("sim.deliver_ns", k.sim_deliver_ns),
        ("wire.fast_share", share(count("wire.relay_fast"), relayed)),
        ("wire.encode_ns", k.wire_encode_ns),
        ("wire.decode_ns", k.wire_decode_ns),
        ("wire.peek_ns", k.wire_peek_ns),
        ("wire.patch_ns", k.wire_patch_ns),
        ("wire.crc32_ns_per_kib", k.wire_crc32_ns_per_kib),
        ("efcp.retx_share", share(count("efcp.retx"), count("efcp.pdus_sent"))),
        ("efcp.pump_ns", k.efcp_pump_ns),
        ("rmt.shed_share", share(shed, count("rmt.enq") + count("rmt.drops"))),
        ("rmt.wait_mean_vus", share(count("rmt.wait_vns_sum"), count("rmt.deq")) / 1e3),
        ("rmt.pushpop_ns", k.rmt_pushpop_ns),
        (
            "rib.suppressed_share",
            share(count("rib.flood_suppressed"), count("rib.flood_suppressed") + count("rib.tx")),
        ),
        ("rib.apply_ns", k.rib_apply_ns),
        ("rib.digest_ns", k.rib_digest_ns),
        ("routing.fwd_agg_mean", share(count("routing.fwd_agg_sum"), last.nodes as f64)),
        ("routing.spf_full_ns", k.routing_spf_full_ns),
        ("routing.spf_delta_ns", k.routing_spf_delta_ns),
        ("ipcp.mgmt_per_member", share(count("ipcp.mgmt_tx"), last.nodes as f64)),
        ("scenario.nodes", last.nodes as f64),
        ("scenario.links", last.edges.len() as f64),
        ("scenario.build_s", med(&|r| r.setup_s)),
        ("app.makespan_vs", med(&|r| r.outcome.makespan_vs)),
        ("app.ops", med(&|r| r.outcome.attempted as f64)),
        ("app.fail_share", med(&|r| share(r.outcome.failed as f64, r.outcome.attempted as f64))),
        ("app.lat_samples", med(&|r| r.outcome.lat_samples as f64)),
        ("app.lat_p50_vms", med(&|r| r.outcome.lat_p50_vms)),
        ("app.lat_tail_vms", med(&|r| r.outcome.lat_tail_vms)),
        ("app.lat_tail_pct", med(&|r| r.outcome.lat_tail_pct)),
        ("app.allocs", med(&|r| r.outcome.allocs as f64)),
        ("app.alloc_p99_vms", med(&|r| r.outcome.alloc_p99_vms)),
        ("app.goodput_vmbps", med(&|r| r.outcome.goodput_vmbps)),
        ("app.reconverge_vs", med(&|r| r.outcome.reconverge_vs)),
        ("phase.assemble_s", trace.seconds_in("assemble") / reps),
        ("phase.run_s", (trace.seconds_in("run") + trace.seconds_in("drain")) / reps),
        ("phase.collect_s", trace.seconds_in("collect") / reps),
        ("phase.window_ns_p50", windows.quantile(0.5)),
        ("phase.window_ns_p99", windows.quantile(0.99)),
        ("host.speed_factor", med(&|r| r.speed)),
        ("host.wall_raw_s", wall),
        ("host.cpu_user_s", med(&|r| r.cost.user_s)),
        ("host.cpu_sys_s", med(&|r| r.cost.sys_s)),
        ("host.minor_faults", med(&|r| r.cost.minor_faults as f64)),
        (
            "host.rep_spread",
            share(
                walls.iter().copied().fold(0.0, f64::max)
                    - walls.iter().copied().fold(f64::INFINITY, f64::min),
                median(&walls),
            ),
        ),
        ("host.reps", reps),
        ("host.trace_overhead_share", median(&overhead)),
        ("host.trace_self_share", med(&|r| share(r.tracing_s, r.cost.wall_s - r.tracing_s))),
        ("host.unattributed_share", 1.0 - attributed),
    ];
    v.extend(est);
    // Every remaining per-layer name is a raw counter of the same name.
    spec::PER_LAYER
        .iter()
        .map(|m| {
            let value =
                v.iter().find(|&&(n, _)| n == m.name).map_or_else(|| count(m.name), |&(_, x)| x);
            Value { metric: m, value, samples: Vec::new() }
        })
        .collect()
}

/// Everything deterministic about one rep, for the record.
fn outcome_json(o: &Outcome) -> Json {
    let mut m = vec![
        ("makespan_vs", o.makespan_vs),
        ("attempted", o.attempted as f64),
        ("failed", o.failed as f64),
        ("lat_samples", o.lat_samples as f64),
        ("lat_p50_vms", o.lat_p50_vms),
        ("lat_tail_vms", o.lat_tail_vms),
        ("allocs", o.allocs as f64),
        ("alloc_p99_vms", o.alloc_p99_vms),
        ("goodput_vmbps", o.goodput_vmbps),
        ("reconverge_vs", o.reconverge_vs),
    ];
    m.extend(o.counts.iter().map(|&(n, c)| (n, c as f64)));
    Json::obj(m.into_iter().map(|(n, v)| (n, Json::Num(v))))
}

fn spans_json(t: &Trace) -> Json {
    Json::Arr(
        t.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("workload", Json::str(t.workload)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("virt_start_ns", Json::Num(s.virt_ns.0 as f64)),
                    ("virt_end_ns", Json::Num(s.virt_ns.1 as f64)),
                    ("pending", Json::Num(s.pending as f64)),
                    ("deltas", Json::obj(s.deltas.iter().map(|&(n, d)| (n, Json::Num(d as f64))))),
                ])
            })
            .collect(),
    )
}

/// Run, print every metric by name with its unit and the result line,
/// write the record when asked. `Ok(false)` = ran but incorrect.
pub fn run(cfg: &Config) -> Result<bool, String> {
    let name = cfg.workload.name();
    let mut trace = Trace::new(name);
    let mut violations: Vec<String> = Vec::new();
    let mut note = |i: u64, what: &str, v: &[String]| {
        violations.extend(v.iter().map(|v| format!("rep {i} ({what}): {v}")));
    };

    let warm = rep(cfg, 0, None);
    note(0, "warm-up", &warm.outcome.violations);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for i in 0.. {
        let r = rep(cfg, i, None);
        note(i, "timed", &r.outcome.violations);
        if i == 0 && r.outcome != warm.outcome {
            note(0, "timed", &["same seed, different outcome than the warm-up rep".into()]);
        }
        if cfg.traced {
            let t = rep(cfg, i, Some(&mut trace));
            if t.outcome != r.outcome {
                note(i, "traced", &["outcome differs from the untraced rep".into()]);
            }
            traced.push(t);
        }
        plain.push(r);
        let spent = started.elapsed().as_secs_f64();
        if (spent >= cfg.seconds && plain.len() >= MIN_REPS) || spent >= HARD_STOP_S {
            break;
        }
    }
    let values = if cfg.traced { per_layer(&plain, &traced, &trace) } else { end_to_end(&plain) };
    for v in &values {
        if !v.value.is_finite() {
            violations.push(format!("{} is not a finite number", v.metric.name));
        }
    }
    let attempted: u64 = plain.iter().map(|r| r.outcome.attempted).sum();
    let failed: u64 = plain.iter().map(|r| r.outcome.failed).sum();
    let correct = violations.is_empty();

    println!(
        "# {name} seed {} {}: {} reps in {:.1} s",
        cfg.seed,
        if cfg.traced { "traced" } else { "untraced" },
        plain.len(),
        started.elapsed().as_secs_f64()
    );
    for v in &values {
        let (q1, q3) = quartiles(&v.samples);
        let spread =
            if v.samples.len() > 1 { format!("  [q1 {q1} q3 {q3}]") } else { String::new() };
        println!("{:<28} {:>16} {}{spread}", v.metric.name, v.value, v.metric.unit);
    }
    for v in &violations {
        println!("VIOLATION {v}");
    }
    let metrics = Json::obj(values.iter().map(|v| {
        let m = Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.metric.unit))]);
        (v.metric.name, m)
    }));

    if let Some(dir) = &cfg.out {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        let record = Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("smoke", Json::Bool(cfg.smoke)),
            ("traced", Json::Bool(cfg.traced)),
            ("reps", Json::Num(plain.len() as f64)),
            ("correct", Json::Bool(correct)),
            ("violations", Json::Arr(violations.iter().map(|v| Json::str(v)).collect())),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics.clone()),
            (
                "samples",
                Json::obj(
                    values
                        .iter()
                        .filter(|v| !v.samples.is_empty())
                        .map(|v| (v.metric.name, nums(&v.samples))),
                ),
            ),
            ("speed_factor", nums(&plain.iter().map(|r| r.speed).collect::<Vec<_>>())),
            ("wall_raw_s", nums(&plain.iter().map(|r| r.cost.wall_s).collect::<Vec<_>>())),
            // Deterministic: rep i of two runs of one seed must agree.
            ("outcomes", Json::Arr(plain.iter().map(|r| outcome_json(&r.outcome)).collect())),
            ("spans", if cfg.traced { spans_json(&trace) } else { Json::Null }),
        ]);
        let file = format!("{}{name}.s{}.json", if cfg.traced { "trace-" } else { "" }, cfg.seed);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(file);
        std::fs::write(&path, record.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted.max(1) as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}
