//! E13 data-plane scale sweep: flow churn + RMT QoS under congestion.
//!
//! Runs the flow-churn workload at the sizes behind the EXPERIMENTS.md
//! E13 table — under each RMT scheduling discipline — and prints one
//! markdown row per cell: sustained/peak concurrent flows, allocation
//! throughput and p99 latency, per-class data latency, and the per-cube
//! RMT drop/byte counters that show *where* congestion was shed. Cells
//! run concurrently on the sweep thread pool (one independent `Sim`
//! each, largest first); every counter is a pure function of the seed.
//! Writes `reports/e13.json`.
//!
//! Usage: `cargo run --release -p rina-bench --bin e13 -- \
//!           [sizes...] [--threads N] [--sched fifo|priority|wrr]`
//! (default sizes: 50 200 500; default: all three disciplines)

use rina::prelude::SchedPolicy;
use rina_bench::e13_flows;
use rina_bench::sweep::{positional_numbers, report_cells, threads_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_from_args(&args);
    let scheds: Vec<SchedPolicy> = match args.iter().position(|a| a == "--sched") {
        Some(i) => {
            let v = args.get(i + 1).map(String::as_str).unwrap_or("");
            vec![match v {
                "fifo" => SchedPolicy::Fifo,
                "priority" => SchedPolicy::Priority,
                "wrr" => SchedPolicy::Wrr,
                other => panic!("unknown --sched {other:?} (fifo|priority|wrr)"),
            }]
        }
        None => vec![SchedPolicy::Fifo, SchedPolicy::Priority, SchedPolicy::Wrr],
    };
    let mut sizes = positional_numbers(&args, &["--threads", "--sched"]);
    if sizes.is_empty() {
        sizes = vec![50, 200, 500];
    }
    // Largest cells first so the pool starts the stragglers early.
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let cells: Vec<(usize, SchedPolicy)> =
        sizes.iter().flat_map(|&n| scheds.iter().map(move |&s| (n, s))).collect();
    report_cells("e13", "e13_flows", e13_flows::TABLE, threads, cells, |(n, sched)| {
        e13_flows::run(n, 5, sched, 1_300 + n as u64)
    });
}
