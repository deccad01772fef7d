//! E12 partial-RIB-replication sweep: scoped vs full `/dir` at scale.
//!
//! Runs the scale-free assembly at each size **twice** — full
//! replication and owner-held `/dir` — and prints one markdown row per
//! cell with the per-member RIB footprint and directory-share metrics
//! behind the EXPERIMENTS.md E12 table. Cells run concurrently on the
//! sweep thread pool (one independent `Sim` each, largest first).
//! Writes `reports/e12.json`.
//!
//! Usage: `cargo run --release -p rina-bench --bin e12 -- \
//!           [sizes...] [--threads N] [--scoped-only]`
//! (default sizes: 50 200 500 2000)

use rina_bench::e12_partial_rib;
use rina_bench::sweep::{positional_numbers, report_cells, threads_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_from_args(&args);
    let scoped_only = args.iter().any(|a| a == "--scoped-only");
    let mut sizes = positional_numbers(&args, &["--threads"]);
    if sizes.is_empty() {
        sizes = vec![50, 200, 500, 2000];
    }
    // Largest cells first so the pool starts the stragglers early.
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let mut cells: Vec<(usize, bool)> = Vec::new();
    for &n in &sizes {
        cells.push((n, true));
        if !scoped_only {
            cells.push((n, false));
        }
    }
    report_cells("e12", "e12_sweep", e12_partial_rib::TABLE, threads, cells, |(n, scoped)| {
        e12_partial_rib::run(n, 1200 + n as u64, scoped)
    });
}
