//! Sweep-parallelism determinism: the whole point of sharding *whole*
//! `Sim`s (instead of splitting one) is that results cannot depend on
//! scheduling. Same seed grid ⇒ identical JSON — modulo the wall-clock
//! fields, which [`rina_bench::sweep::canonicalize`] strips — at 1, 2,
//! and 8 threads.

use rina::prelude::EnrollSchedule;
use rina_bench::sweep::{canonicalize, run_grid, sweep_doc, SweepGrid, SweepTopology};

/// A miniature grid exercising every dimension (both schedules, loss
/// on/off, all three graph families) at sizes small enough for
/// debug-mode CI.
fn tiny_grid() -> SweepGrid {
    SweepGrid {
        sizes: vec![6, 9],
        topologies: vec![SweepTopology::ScaleFree, SweepTopology::Ring, SweepTopology::Star],
        schedules: vec![EnrollSchedule::waves(), EnrollSchedule::sequential()],
        losses: vec![0.0, 0.05],
        base_seed: 7,
    }
}

#[test]
fn same_grid_same_json_at_any_thread_count() {
    let grid = tiny_grid();
    let docs: Vec<String> =
        [1usize, 2, 8].iter().map(|&t| canonicalize(&sweep_doc(&run_grid(&grid, t), t))).collect();
    assert_eq!(docs[0], docs[1], "1 thread vs 2 threads");
    assert_eq!(docs[1], docs[2], "2 threads vs 8 threads");
    // And the canonical form really did strip the machine-dependent
    // parts — a raw doc from two runs would differ in wall clock.
    assert!(!docs[0].contains("wall_s"));
    assert!(!docs[0].contains("threads"));
}

#[test]
fn rows_come_back_in_grid_order_and_reach() {
    let grid = tiny_grid();
    let rows = run_grid(&grid, 8);
    let ids: Vec<String> = grid.cells().iter().map(|c| c.id()).collect();
    let got: Vec<String> = rows.iter().map(|r| r.id.clone()).collect();
    assert_eq!(ids, got, "row order is grid enumeration order, not completion order");
    for (r, cell) in rows.iter().zip(grid.cells()) {
        assert!(r.reachable, "cell {} failed reachability: {r:?}", r.id);
        assert!(r.makespan_s > 0.0 && r.mgmt_pdus > 0, "cell {} ran: {r:?}", r.id);
        assert_eq!(r.invariants, 0, "cell {} ends unhealthy: {r:?}", r.id);
        if cell.loss == 0.0 && !cell.churn {
            assert_eq!(r.half_open, 0, "lossless static cell {} ends half-open: {r:?}", r.id);
        }
    }
}

#[test]
fn base_seed_changes_results() {
    let grid = tiny_grid();
    let mut other = tiny_grid();
    other.base_seed = 8;
    let a = canonicalize(&sweep_doc(&run_grid(&grid, 4), 4));
    let b = canonicalize(&sweep_doc(&run_grid(&other, 4), 4));
    assert_ne!(a, b, "the base seed feeds every cell's RNG");
}
