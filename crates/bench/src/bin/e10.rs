//! E10 scale sweep with wall-clock and flooding instrumentation.
//!
//! Runs the scale-free assembly at the sizes behind the EXPERIMENTS.md
//! E10 scaling table — under both the wave-parallel schedule and the
//! sequential baseline — and prints one markdown row per cell,
//! including the *wall-clock* cost of the run and the flooded-PDU
//! totals. Cells run concurrently on the sweep thread pool (one
//! independent `Sim` each, largest first), so the whole sweep's wall
//! clock approaches the slowest single cell as `--threads` grows.
//! Writes `reports/e10.json`.
//!
//! Usage: `cargo run --release -p rina-bench --bin e10 -- \
//!           [sizes...] [--threads N] [--waves-only]`
//! (default sizes: 50 100 200 500 1000)

use rina::prelude::EnrollSchedule;
use rina_bench::e10_scalefree;
use rina_bench::sweep::{positional_numbers, report_cells, threads_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_from_args(&args);
    let waves_only = args.iter().any(|a| a == "--waves-only");
    let mut sizes = positional_numbers(&args, &["--threads"]);
    if sizes.is_empty() {
        sizes = vec![50, 100, 200, 500, 1000];
    }
    // Largest cells first so the pool starts the stragglers early.
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let mut cells: Vec<(usize, EnrollSchedule)> = Vec::new();
    for &n in &sizes {
        cells.push((n, EnrollSchedule::waves()));
        if !waves_only {
            cells.push((n, EnrollSchedule::sequential()));
        }
    }
    report_cells(
        "e10",
        "e10_sweep",
        e10_scalefree::SWEEP_TABLE,
        threads,
        cells,
        |(n, schedule)| e10_scalefree::run_with(n, 2, 900 + n as u64, schedule),
    );
}
