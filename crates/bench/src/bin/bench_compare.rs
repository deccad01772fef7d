//! The CI perf-regression gate: diff a fresh `BENCH_SWEEP.json` against
//! the checked-in `BENCH_BASELINE.json`.
//!
//! Every member of a cell (virtual makespan, PDU counts, reachability,
//! …) is compared exactly, a member on one side only is an error, and
//! `wall_s` alone is compared relatively, with a tolerance, after median
//! machine-speed normalization (see `rina_bench::compare`).
//!
//! Usage: `cargo run --release -p rina-bench --bin bench-compare -- \
//!           [BASELINE] [FRESH] [--wall-tol FRAC]`
//!
//! Defaults: `BENCH_BASELINE.json` vs `reports/BENCH_SWEEP.json`,
//! wall tolerance 0.25 (25%). The markdown diff table goes to stdout
//! and — when the `GITHUB_STEP_SUMMARY` environment variable names a
//! file — is appended there too, so the table lands on the workflow
//! summary page. Exit status: 0 = pass, 1 = regression, 2 = bad input.
//!
//! Intentional behaviour changes (a protocol tweak that moves PDU
//! counts, a new grid dimension) are shipped by refreshing the baseline
//! in the same PR:
//! `cargo run --release -p rina-bench --bin sweep -- --out BENCH_BASELINE.json`

use rina_bench::compare::{compare, parse};
use std::io::Write;

fn read_doc(path: &str) -> rina_bench::compare::Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench-compare: cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse(&text).unwrap_or_else(|e| {
        eprintln!("bench-compare: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wall_tol = 0.25;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--wall-tol" {
            wall_tol = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|t: &f64| (0.0..10.0).contains(t))
                .unwrap_or_else(|| {
                    eprintln!("bench-compare: --wall-tol needs a fraction (e.g. 0.25)");
                    std::process::exit(2);
                });
        } else {
            paths.push(a);
        }
    }
    let baseline = paths.first().map(|s| s.as_str()).unwrap_or("BENCH_BASELINE.json");
    let fresh = paths.get(1).map(|s| s.as_str()).unwrap_or("reports/BENCH_SWEEP.json");

    let cmp = compare(&read_doc(baseline), &read_doc(fresh), wall_tol);
    let md = cmp.to_markdown();
    print!("{md}");
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&summary) {
            let _ = writeln!(f, "{md}");
        }
    }
    if cmp.bad_input {
        eprintln!("bench-compare: bad input — one of the documents is not a sweep document");
        std::process::exit(2);
    }
    if !cmp.ok() {
        eprintln!(
            "bench-compare: regression vs {baseline} — if the change is intentional, refresh \
             the baseline: cargo run --release -p rina-bench --bin sweep -- --out {baseline}"
        );
        std::process::exit(1);
    }
}
