//! E11 churn sweep: a live scale-free DIF through leaves, crash-fails,
//! link flaps and a partition, then back to healthy.
//!
//! Runs the churn timeline at the sizes behind the EXPERIMENTS.md E11
//! table, on the seeds the `experiments` binary uses (1100 + size), and
//! prints one markdown row per size with the heal time, the sampled
//! reachability and the table and stale-state figures. Cells run
//! concurrently on the sweep thread pool (one independent `Sim` each,
//! largest first). Writes `reports/e11.json`.
//!
//! Usage: `cargo run --release -p rina-bench --bin e11 -- \
//!           [sizes...] [--threads N]`
//! (default sizes: 200 100 30)

use rina_bench::e11_churn;
use rina_bench::sweep::{positional_numbers, report_cells, threads_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_from_args(&args);
    let mut sizes = positional_numbers(&args, &["--threads"]);
    if sizes.is_empty() {
        sizes = vec![200, 100, 30];
    }
    // Largest cells first so the pool starts the stragglers early.
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    report_cells("e11", "e11_churn", e11_churn::TABLE, threads, sizes, |n| {
        e11_churn::run(n, 1100 + n as u64)
    });
}
