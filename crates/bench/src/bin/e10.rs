//! E10 scale sweep with wall-clock and flooding instrumentation.
//!
//! Runs the scale-free assembly at the sizes behind the EXPERIMENTS.md
//! E10 scaling table — under both the wave-parallel schedule and the
//! sequential baseline — and prints one markdown row per cell,
//! including the *wall-clock* cost of the run and the flooded-PDU
//! totals. Cells run concurrently on the sweep thread pool (one
//! independent `Sim` each, largest first), so the whole sweep's wall
//! clock approaches the slowest single cell as `--threads` grows.
//! At exit it prints the process's peak resident set (`VmHWM`, 0 where
//! `/proc` is unreadable), the memory figure the largest cells are
//! judged by. Writes `reports/e10.json`, the peak beside the rows: like
//! `wall_s`, it is a host measurement, not a result of the run.
//!
//! Usage: `cargo run --release -p rina-bench --bin e10 -- \
//!           [sizes...] [--threads N] [--waves-only]`
//! (default sizes: 50 100 200 500 1000)

use rina::prelude::EnrollSchedule;
use rina_bench::report::{finish_doc, markdown, push_section, Scalar};
use rina_bench::sweep::{par_map, positional_numbers, threads_from_args, write_report};
use rina_bench::{e10_scalefree, rss_peak_mb, timed};

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
    eprintln!("e10: {} cells on {threads} threads", cells.len());
    let (rows, wall) = timed(|| {
        par_map(threads, cells, |(n, schedule)| {
            e10_scalefree::run_with(n, 2, 900 + n as u64, schedule)
        })
    });
    print!("{}", markdown(e10_scalefree::SWEEP_TABLE, &rows));
    let rss = rss_peak_mb();
    println!("\npeak RSS: {rss:.1} MiB");
    let mut doc = Vec::new();
    push_section(&mut doc, "e10_sweep", &rows);
    doc.push(format!("  \"rss_peak_mb\": {}", rss.json()));
    let path = write_report("e10.json", &finish_doc(doc));
    eprintln!("e10: {} cells in {wall:.1}s wall -> {}", rows.len(), path.display());
}
