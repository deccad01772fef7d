//! Regenerate every table/figure of the reproduction. Prints markdown
//! tables (the source of EXPERIMENTS.md) and writes
//! `reports/results.json`.
//!
//! Usage: `cargo run --release -p rina-bench --bin experiments -- \
//!           [--quick] [--threads N]`
//!
//! Each section's scenario cells run concurrently on the sweep thread
//! pool (independent `Sim`s, one per cell); rows are printed in the
//! fixed table order whatever the thread count, and every cell keeps
//! its own fixed seed, so the output is reproducible at any `-N`.

use rina::prelude::EnrollSchedule;
use rina_bench::report::{finish_doc, markdown, push_section, Col, Row};
use rina_bench::sweep::{par_map, run_jobs, threads_from_args, write_report};
use rina_bench::*;

/// One rows-returning job for [`run_jobs`].
type Job<R> = Box<dyn FnOnce() -> R + Send>;

/// Print one section — title, then `rows` under the column list `cols`
/// — and file the rows under `key` in the results document.
fn section<R: Row>(doc: &mut Vec<String>, title: &str, key: &str, cols: &[Col<R>], rows: &[R]) {
    println!("{title}\n");
    print!("{}", markdown(cols, rows));
    push_section(doc, key, rows);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads = threads_from_args(&args);
    let mut doc: Vec<String> = Vec::new();

    let rows =
        par_map(threads, vec![0usize, 1, 3], |relays| e1_fig1::run(relays, 100 + relays as u64));
    let title = "## E1/E2 — Figures 1 & 2: two-system and relayed IPC";
    section(&mut doc, title, "e1_fig1", e1_fig1::TABLE, &rows);

    // Every cell at every seed of `e3_fig3::SEEDS`, folded into one row
    // per cell (rows come back in cell order, seeds innermost).
    let pbads: &[f64] = if quick { &[0.0, 0.25] } else { &[0.0, 0.1, 0.2, 0.3] };
    let cells: Vec<(f64, bool, u64)> = pbads
        .iter()
        .flat_map(|&p| [(p, false), (p, true)])
        .flat_map(|(p, scoped)| e3_fig3::SEEDS.map(move |seed| (p, scoped, seed)))
        .collect();
    let runs = par_map(threads, cells, |(p, scoped, seed)| e3_fig3::run(p, scoped, seed));
    let rows: Vec<_> = runs.chunks(e3_fig3::SEEDS.count()).map(e3_fig3::spread).collect();
    let (first, last) = (e3_fig3::SEEDS.start, e3_fig3::SEEDS.end - 1);
    let title = format!(
        "\n## E3 — Figure 3: an extra DIF scoped to the lossy segment\n\n\
         (median [min–max] over seeds {first}–{last})"
    );
    section(&mut doc, &title, "e3_fig3", e3_fig3::TABLE, &rows);

    let jobs: Vec<Job<_>> =
        vec![Box::new(|| e4_fig4::run_rina(300)), Box::new(|| e4_fig4::run_inet(300))];
    let rows = run_jobs(threads, jobs);
    let title = "\n## E4 — Figure 4 / §6.3: multihoming failover";
    section(&mut doc, title, "e4_fig4", e4_fig4::TABLE, &rows);

    let jobs: Vec<Job<_>> =
        vec![Box::new(|| e5_fig5::run_rina(400)), Box::new(|| e5_fig5::run_inet(400))];
    let rows = run_jobs(threads, jobs);
    let title = "\n## E5 — Figure 5 / §6.4: mobility";
    section(&mut doc, title, "e5_fig5", e5_fig5::TABLE, &rows);

    let sizes: &[(usize, usize)] = if quick { &[(3, 4)] } else { &[(3, 4), (4, 8), (6, 12)] };
    let cells: Vec<(usize, usize, bool)> =
        sizes.iter().flat_map(|&(rg, h)| [(rg, h, true), (rg, h, false)]).collect();
    let rows = par_map(threads, cells, |(rg, h, flat)| e6_scale::run(rg, h, flat, 500));
    let title = "\n## E6 — §6.5: routing state, flat vs hierarchical";
    section(&mut doc, title, "e6_scale", e6_scale::TABLE, &rows);

    let jobs: Vec<Job<_>> = vec![
        Box::new(|| e7_security::run_inet(600)),
        Box::new(|| e7_security::run_rina_access_control(601)),
        Box::new(|| e7_security::run_rina_private(602)),
    ];
    let rows = run_jobs(threads, jobs);
    let title = "\n## E7 — §6.1: attack surface";
    section(&mut doc, title, "e7_security", e7_security::TABLE, &rows);

    let ks: Vec<usize> = if quick { vec![4, 8] } else { vec![2, 4, 8, 16, 32] };
    let rows = par_map(threads, ks, |k| e8_enroll::run(k, 700 + k as u64));
    let title = "\n## E8 — §5.2: enrollment cost";
    section(&mut doc, title, "e8_enroll", e8_enroll::TABLE, &rows);

    let loads: &[f64] = if quick { &[0.9, 1.1] } else { &[0.5, 0.8, 0.95, 1.1] };
    let cells: Vec<(f64, bool)> = loads.iter().flat_map(|&l| [(l, false), (l, true)]).collect();
    let rows = par_map(threads, cells, |(load, prio)| e9_util::run(load, prio, 800));
    let title = "\n## E9 — intro item 5 / §6.2 / §6.6: utilization & QoS classes";
    section(&mut doc, title, "e9_util", e9_util::TABLE, &rows);

    // Wave-parallel sweep (the makespan should grow sublinearly in
    // members), with the sequential baseline alongside for comparison.
    // Largest first: the pool starts the 1000-member straggler early.
    let wave_ns: &[usize] = if quick { &[50] } else { &[1000, 100, 50] };
    let seq_ns: &[usize] = if quick { &[50] } else { &[100, 50] };
    let mut cells = Vec::new();
    for &n in wave_ns {
        cells.push((n, EnrollSchedule::waves()));
    }
    for &n in seq_ns {
        cells.push((n, EnrollSchedule::sequential()));
    }
    let rows = par_map(threads, cells, |(n, schedule)| {
        e10_scalefree::run_with(n, 2, 900 + n as u64, schedule)
    });
    let title = "\n## E10 — scale-free internetworks (Barabási–Albert DIFs)";
    section(&mut doc, title, "e10_scalefree", e10_scalefree::TABLE, &rows);

    let churn_ns: &[usize] = if quick { &[30] } else { &[200, 100, 30] };
    let rows = par_map(threads, churn_ns.to_vec(), |n| e11_churn::run(n, 1100 + n as u64));
    let title = "\n## E11 — continuous dynamics: churn, failure, partition";
    section(&mut doc, title, "e11_churn", e11_churn::TABLE, &rows);

    let path = write_report("results.json", &finish_doc(doc));
    println!("\n({} written)", path.display());
}
