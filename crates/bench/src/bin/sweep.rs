//! The sweep-grid runner behind the CI perf-regression gate.
//!
//! Runs the scenario matrix (size × topology × schedule × loss) on a
//! thread pool of independent `Sim`s and writes
//! `reports/BENCH_SWEEP.json`. Per-cell results are byte-identical for
//! a given grid at any `--threads` value (only `wall_s` and the `meta`
//! header vary between runs).
//!
//! Usage: `cargo run --release -p rina-bench --bin sweep -- \
//!           [--threads N] [--full] [--out PATH] [--repeat N]`
//!
//! * default grid: [`rina_bench::sweep::SweepGrid::ci`] (what
//!   `BENCH_BASELINE.json` pins and CI gates on)
//! * `--full`: the larger local grid reported in EXPERIMENTS.md
//! * `--out PATH`: write the document somewhere other than
//!   `reports/BENCH_SWEEP.json` (e.g. a fresh baseline)
//! * `--repeat N`: passes over the grid; per-cell `wall_s` is the
//!   minimum across passes (default 3 — sub-second cells jitter ±30%
//!   on a busy box, and the gate compares noise floors, not draws)

use rina_bench::report::markdown;
use rina_bench::sweep::{
    run_grid_best_of, sweep_doc, threads_from_args, write_report, SweepGrid, TABLE,
};
use rina_bench::timed;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_from_args(&args);
    let grid = if args.iter().any(|a| a == "--full") { SweepGrid::full() } else { SweepGrid::ci() };
    let out = match args.iter().position(|a| a == "--out") {
        Some(i) => match args.get(i + 1) {
            Some(p) if !p.starts_with("--") => Some(p.clone()),
            _ => {
                eprintln!("sweep: --out needs a path (e.g. --out BENCH_BASELINE.json)");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let repeat = match args.iter().position(|a| a == "--repeat") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => {
                eprintln!("sweep: --repeat needs a count >= 1 (e.g. --repeat 3)");
                std::process::exit(2);
            }
        },
        None => 3,
    };
    let cells = grid.cells();
    eprintln!("sweep: {} cells on {} threads, best of {repeat}", cells.len(), threads);
    let (rows, wall) = timed(|| run_grid_best_of(&grid, threads, repeat));
    print!("{}", markdown(TABLE, &rows));
    let unreachable = rows.iter().filter(|r| !r.reachable).count();
    let doc = sweep_doc(&rows, threads);
    let path = match out {
        Some(p) => {
            std::fs::write(&p, &doc).expect("write --out");
            std::path::PathBuf::from(p)
        }
        None => write_report("BENCH_SWEEP.json", &doc),
    };
    eprintln!(
        "sweep: {} cells in {:.1}s wall ({} unreachable) -> {}",
        rows.len(),
        wall,
        unreachable,
        path.display()
    );
    if unreachable > 0 {
        std::process::exit(1);
    }
}
