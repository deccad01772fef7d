//! Parallel sweep harness: shard independent [`rina_sim::Sim`] runs
//! across OS threads, and the scenario sweep grid built on top of it.
//!
//! Two layers:
//!
//! * [`run_jobs`] — a fixed thread pool over `std::thread` + `mpsc`
//!   channels (the build environment is offline, so no rayon). Jobs are
//!   closures that each build and run one self-contained simulation;
//!   the [`rina_sim::Agent`]`: Send` bound guarantees a whole `Sim` can
//!   move to a worker. Results come back in **submission order**
//!   regardless of which worker finished first, so output is
//!   deterministic at any thread count.
//! * [`SweepGrid`] / [`run_grid`] — the scenario matrix (size ×
//!   topology × enrollment schedule × loss rate × flood config) behind
//!   `BENCH_SWEEP.json` and the CI perf-regression gate. Every cell
//!   derives its seed from its own parameters, so per-cell results are
//!   byte-identical for a given grid at 1 thread or 64.
//!
//! Jobs are popped longest-expected-first (LPT): the grid sorts its
//! cells by descending size before submission, so a straggler 1000-node
//! cell starts first instead of serializing the tail of the run.

use crate::e11_churn::churn_phase;
use crate::report::{finish_doc, markdown, push_section, Col, Obj, Row, Scalar};
use crate::{rib_footprint, row, timed, Scenario, Totals};
use rina::invariants;
use rina::prelude::*;
use rina::scenario::{Topology, Workload};
use rina_sim::LossModel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Parse a `--threads N` argument out of `args`, defaulting to the
/// machine's available parallelism (capped at 8 — sweep cells are
/// memory-hungry). Accepts `--threads N` and `--threads=N`.
pub fn threads_from_args(args: &[String]) -> usize {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                return std::cmp::max(1, n);
            }
        } else if let Some(v) = a.strip_prefix("--threads=") {
            if let Ok(n) = v.parse() {
                return std::cmp::max(1, n);
            }
        }
    }
    default_threads()
}

/// The default worker count: available parallelism, capped at 8.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// The positional numeric arguments of `args`, with every `--flag`
/// (and the value of any flag in `flags_with_value`) stripped first —
/// the one place bins parse sizes, so a flag's value can never be
/// mistaken for a member count.
pub fn positional_numbers(args: &[String], flags_with_value: &[&str]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if flags_with_value.contains(&a.as_str()) {
            let _ = it.next(); // the flag's value is not positional
        } else if a.starts_with("--") {
            // Boolean or `--flag=value` form: nothing extra to skip.
        } else if let Ok(n) = a.parse() {
            out.push(n);
        }
    }
    out
}

/// Run `jobs` on a fixed pool of `threads` workers and return their
/// results **in submission order**. Each job runs exactly once; workers
/// pull from a shared queue, so a long job never blocks the others
/// (work conserving). A panicking job does not poison the pool — the
/// panic is re-raised on the caller's thread after every other job has
/// finished, with the job's index in the message.
#[expect(
    clippy::disallowed_methods,
    reason = "the sweep worker pool is the sanctioned OS-thread site: rows are independent sims joined deterministically by row index"
)]
pub fn run_jobs<R: Send + 'static>(
    threads: usize,
    jobs: Vec<Box<dyn FnOnce() -> R + Send>>,
) -> Vec<R> {
    let n = jobs.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        // Inline fast path: no pool, same ordering semantics.
        return jobs.into_iter().map(|j| j()).collect();
    }
    // Job distribution: one shared receiver behind a mutex (the classic
    // std-only pool shape); results return over a second channel tagged
    // with the submission index.
    let (job_tx, job_rx) = mpsc::channel::<(usize, Box<dyn FnOnce() -> R + Send>)>();
    let (res_tx, res_rx) = mpsc::channel();
    for (i, job) in jobs.into_iter().enumerate() {
        job_tx.send((i, job)).expect("queue open");
    }
    drop(job_tx); // Workers drain until the queue is empty, then exit.
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let job_rx = Arc::clone(&job_rx);
            let res_tx = res_tx.clone();
            std::thread::spawn(move || loop {
                // Hold the lock only to pop; run the job unlocked.
                let next = job_rx.lock().expect("queue lock").recv();
                match next {
                    Ok((i, job)) => {
                        let out = catch_unwind(AssertUnwindSafe(job));
                        if res_tx.send((i, out)).is_err() {
                            return; // Caller gone; nothing left to do.
                        }
                    }
                    Err(_) => return, // Queue drained.
                }
            })
        })
        .collect();
    drop(res_tx);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    for (i, out) in res_rx {
        match out {
            Ok(r) => slots[i] = Some(r),
            Err(p) => panic = Some((i, p)),
        }
    }
    for w in workers {
        let _ = w.join();
    }
    if let Some((i, p)) = panic {
        eprintln!("sweep: job {i} panicked; re-raising");
        std::panic::resume_unwind(p);
    }
    slots.into_iter().map(|r| r.expect("every job reported")).collect()
}

/// Convenience: map `items` through `f` on the pool, preserving order.
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let jobs: Vec<Box<dyn FnOnce() -> R + Send>> = items
        .into_iter()
        .map(|it| {
            let f = Arc::clone(&f);
            Box::new(move || f(it)) as Box<dyn FnOnce() -> R + Send>
        })
        .collect();
    run_jobs(threads, jobs)
}

/// Which graph family a sweep cell stamps out (all sized by the cell's
/// `size` field, unlike [`Topology`] whose tree is sized by shape).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepTopology {
    /// Barabási–Albert scale-free, `m = 2` (the E10 shape).
    ScaleFree,
    /// A ring — worst-case spanning-tree depth (≈ n/2).
    Ring,
    /// A star — worst-case sponsor fan-in (one hub admits everyone).
    Star,
}

impl SweepTopology {
    /// Stable cell-key token.
    pub fn key(self) -> &'static str {
        match self {
            SweepTopology::ScaleFree => "ba2",
            SweepTopology::Ring => "ring",
            SweepTopology::Star => "star",
        }
    }

    fn build(self, n: usize, seed: u64) -> Topology {
        match self {
            SweepTopology::ScaleFree => Topology::barabasi_albert(n, 2, seed),
            SweepTopology::Ring => Topology::ring(n.max(3)),
            SweepTopology::Star => Topology::star(n.max(2)),
        }
    }
}

/// One point of the sweep matrix.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// DIF size (members).
    pub size: usize,
    /// Graph family.
    pub topology: SweepTopology,
    /// Enrollment schedule.
    pub schedule: EnrollSchedule,
    /// Per-link Bernoulli loss probability (0 = lossless).
    pub loss: f64,
    /// Cross-port flood token-bucket rate (objects/s; 0 = unlimited).
    pub flood_rate: u32,
    /// Run the continuous-dynamics phase (a seeded [`Churn`] timeline —
    /// leave/rejoin, crash-fail past GC grace, flap, partition — after
    /// assembly), gating post-churn fragmentation, staleness, and
    /// reachability.
    pub churn: bool,
    /// Partial RIB replication: `/dir` owner-held and resolved on
    /// demand instead of replicated DIF-wide. Gates the per-member RIB
    /// footprint (`rib_objects_max` / `rib_bytes_max`) against the
    /// full-replication floor.
    pub scoped: bool,
    /// Run a flow-churn phase ([`Workload::flow_churn`]) after the
    /// reachability check: drivers cycle EFCP flows against leaf sinks,
    /// gating the allocation-path counters (`flow_allocs` …) and the
    /// per-port RMT queue counters exactly.
    pub flow: bool,
}

impl SweepCell {
    /// Stable schedule token — used by both [`SweepCell::id`] and the
    /// row's `schedule` field, so the two can never disagree.
    pub fn schedule_key(&self) -> &'static str {
        match self.schedule {
            EnrollSchedule::Waves { .. } => "waves",
            EnrollSchedule::Sequential { .. } => "seq",
        }
    }

    /// The stable identifier baselines are matched on: every dimension
    /// of the cell, none of its results.
    pub fn id(&self) -> String {
        format!(
            "{}-n{}-{}-l{}-f{}{}{}{}",
            self.topology.key(),
            self.size,
            self.schedule_key(),
            self.loss,
            self.flood_rate,
            if self.churn { "-churn" } else { "" },
            if self.scoped { "-scoped" } else { "" },
            if self.flow { "-flow" } else { "" }
        )
    }

    /// The cell's RNG seed: a splitmix64 mix of its parameters, so a
    /// cell's behaviour depends only on what the cell *is* — not on grid
    /// position, thread count, or submission order.
    pub fn seed(&self, base: u64) -> u64 {
        let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
        for b in self.id().bytes() {
            h = (h ^ b as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
        }
        h
    }
}

row! {
    /// One row of `BENCH_SWEEP.json`: the cell's parameters plus its
    /// measurements. Every field except `wall_s` is a pure function of the
    /// cell (virtual time, PDU counts, reachability are deterministic under
    /// the seed); `wall_s` is the one machine-dependent field, and the
    /// comparison gate treats it separately.
    #[derive(Clone)]
    pub struct SweepRow {
        /// Stable cell key (see [`SweepCell::id`]).
        id: String,
        /// Members.
        size: usize,
        /// Graph family token.
        topology: &'static str,
        /// Schedule token.
        schedule: String,
        /// Link loss probability.
        loss: f64,
        /// Flood rate limit (objects/s, 0 = unlimited).
        flood_rate: u32,
        /// Virtual-time assembly makespan, seconds.
        makespan_s: f64,
        /// Management PDUs sent DIF-wide during assembly.
        mgmt_pdus: u64,
        /// RIEP object PDUs sent over the whole run.
        rib_pdus: u64,
        /// Floods suppressed (digest-covered or rate-limited).
        flood_suppressed: u64,
        /// The rate-limited share of `flood_suppressed`: floods the
        /// cross-port token bucket refused.
        flood_throttled: u64,
        /// From-scratch SPF runs DIF-wide. The `spf_full` / `spf_incremental`
        /// split records, per grid cell, where the routing engine's full
        /// fallback still fires (deterministic — gated exactly).
        spf_full: u64,
        /// Incremental SPF repairs DIF-wide.
        spf_incremental: u64,
        /// Forwarding-table entries updated via the delta path DIF-wide.
        ft_delta: u64,
        /// All sampled reachability pings completed.
        reachable: bool,
        /// Σ aggregated forwarding-table entries DIF-wide at the end of the
        /// run. In churn cells this is the post-heal figure — growth against
        /// the baseline means rejoin grants stopped aggregating (the
        /// `max_addr + 1` fragmentation bug).
        agg_len: u64,
        /// Live RIB objects of departed origins anywhere at the end of the
        /// run (must be 0: departed state never outlives its owner).
        stale_rib: u64,
        /// Violations [`invariants::check`] still finds after the cell's
        /// closing [`invariants::settle`] (must be 0: the DIF is healthy
        /// when the cell ends).
        invariants: u64,
        /// EFCP endpoints [`invariants::half_open`] finds at the end of
        /// the run: requesting, or naming an endpoint that does not name
        /// them back. 0 without loss or churn; what loss and churn leave
        /// is the residual of the one-shot teardown.
        half_open: u64,
        /// Worst sampled reachability fraction outside churn disturbance
        /// windows (1 in non-churn cells).
        churn_reach: f64,
        /// Largest per-member RIB object count (live + tombstones) at the
        /// end of the run. The partial-replication gate: scoped cells must
        /// hold this below the full-replication floor.
        rib_objects_max: u64,
        /// Largest per-member RIB encoded size (bytes) at the end of the
        /// run.
        rib_bytes_max: u64,
        /// Flow allocations completed by the churn phase (0 outside flow
        /// cells).
        flow_allocs: u64,
        /// Flow-allocation failures during the churn phase (each retried).
        flow_alloc_fail: u64,
        /// SDUs written over churned flows.
        flow_sdus: u64,
        /// SDUs delivered to the churn sinks.
        flow_recv: u64,
        /// RMT tail drops summed over every (N-1)-port queue DIF-wide.
        rmt_drops: u64,
        /// RMT bytes transmitted (dequeued) summed over every queue — in
        /// non-flow cells this counts the management traffic alone, so the
        /// queue accounting is exact-gated in every cell of the grid.
        rmt_deq_bytes: u64,
        /// Transit PDUs forwarded (TTL and CRC patched in place), summed
        /// over every member (deterministic — gated exactly).
        relay_fast: u64,
        /// Events the engine dispatched over the whole cell: frames
        /// delivered, timers fired, link state changes and node starts.
        events: u64,
        /// Wall-clock seconds for the cell (machine-dependent).
        wall_s: f64,
    }
}

/// The progress table of the `sweep` binary (the gate reads the JSON,
/// which carries every field).
pub const TABLE: &[Col<SweepRow>] = &[
    ("cell", |r| r.id.cell()),
    ("makespan (s)", |r| r.makespan_s.cell()),
    ("mgmt PDUs", |r| r.mgmt_pdus.cell()),
    ("rib PDUs", |r| r.rib_pdus.cell()),
    ("suppressed", |r| r.flood_suppressed.cell()),
    ("reachable", |r| r.reachable.cell()),
    ("wall (s)", |r| format!("{:.3}", r.wall_s)),
];

/// The sweep matrix: the cross product of its dimension vectors.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    /// DIF sizes.
    pub sizes: Vec<usize>,
    /// Graph families.
    pub topologies: Vec<SweepTopology>,
    /// Enrollment schedules: the first spans the loss × flood plane,
    /// every further one is a comparison arm with a single cell at the
    /// plane's first point (see [`SweepGrid::cells`]).
    pub schedules: Vec<EnrollSchedule>,
    /// Per-link Bernoulli loss probabilities.
    pub losses: Vec<f64>,
    /// Cross-port flood rates (0 = unlimited).
    pub flood_rates: Vec<u32>,
    /// Base seed mixed into every cell seed.
    pub base_seed: u64,
}

impl SweepGrid {
    /// The CI grid: small enough to run on every PR in release mode,
    /// wide enough that a regression in any dimension (schedule, loss
    /// recovery, flood suppression) moves at least one cell.
    pub fn ci() -> Self {
        SweepGrid {
            sizes: vec![16, 32, 96],
            topologies: vec![SweepTopology::ScaleFree, SweepTopology::Ring, SweepTopology::Star],
            schedules: vec![EnrollSchedule::waves(), EnrollSchedule::sequential()],
            losses: vec![0.0, 0.02],
            flood_rates: vec![64, 0],
            base_seed: 1,
        }
    }

    /// The full local grid (what EXPERIMENTS.md reports): bigger sizes,
    /// same dimensions.
    pub fn full() -> Self {
        SweepGrid { sizes: vec![16, 32, 96, 200], ..SweepGrid::ci() }
    }

    /// Every cell, in deterministic enumeration order (the JSON row
    /// order), largest sizes first so the pool starts stragglers early.
    ///
    /// The static cells of a size × topology are the first schedule
    /// crossed with every loss and flood rate, plus **one** cell per
    /// further schedule at the first loss and flood rate: a comparison
    /// arm shows its makespan there, and its interaction with loss and
    /// flood limiting is the first schedule's, already covered. On top
    /// of the static cells, every size × topology gets
    /// one **churn cell** (wave schedule, lossless, unlimited flood):
    /// the continuous-dynamics phase costs tens of virtual seconds per
    /// cell, so it rides the default config only — the static dimensions
    /// already cover schedule/loss/flood interactions. Every size also
    /// gets one **scoped cell** (scale-free, wave schedule, lossless,
    /// unlimited flood, `/dir` owner-held): the partial-replication
    /// counterpart of the matching static cell, gating the per-member
    /// RIB footprint below the full-replication floor. And every size
    /// gets one **flow cell** (scale-free, wave schedule, lossless,
    /// unlimited flood): a flow-churn phase after assembly, gating the
    /// §5.3 allocation-path counters and the per-port RMT queue
    /// counters exactly.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        let mut sizes = self.sizes.clone();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        for &size in &sizes {
            // The default config the churn, scoped and flow cells ride.
            let plain = SweepCell {
                size,
                topology: SweepTopology::ScaleFree,
                schedule: EnrollSchedule::waves(),
                loss: 0.0,
                flood_rate: 0,
                churn: false,
                scoped: false,
                flow: false,
            };
            for &topology in &self.topologies {
                cells.push(SweepCell { topology, churn: true, ..plain });
                for (arm, &schedule) in self.schedules.iter().enumerate() {
                    // The first schedule gets every (loss, flood) point,
                    // a comparison arm only the first.
                    let plane = if arm == 0 { usize::MAX } else { 1 };
                    for &loss in self.losses.iter().take(plane) {
                        for &flood_rate in self.flood_rates.iter().take(plane) {
                            let cell = SweepCell { topology, schedule, loss, flood_rate, ..plain };
                            cells.push(cell);
                        }
                    }
                }
            }
            cells.push(SweepCell { scoped: true, ..plain });
            cells.push(SweepCell { flow: true, ..plain });
        }
        cells
    }
}

/// Run one cell: stamp the topology, assemble the DIF under the cell's
/// schedule/loss/flood config, verify sampled reachability, settle the
/// DIF healthy, collect the counters. Self-contained — builds its own
/// `Sim` — so any number of cells run concurrently.
pub fn run_cell(cell: &SweepCell, base_seed: u64) -> SweepRow {
    let (row, wall_s) = timed(|| {
        let seed = cell.seed(base_seed);
        let mut s = Scenario::new("sweep-cell", seed);
        s.set_enroll_schedule(cell.schedule);
        let link = if cell.loss > 0.0 {
            LinkCfg::wired().with_loss(LossModel::Bernoulli(cell.loss))
        } else {
            LinkCfg::wired()
        };
        let mut dif_cfg = DifConfig::new("sweep-dif").with_flood_rate(cell.flood_rate);
        if cell.churn {
            // Grace well below the churn plan's downtime (see
            // `churn_phase`): crash-fails get garbage-collected by their
            // sponsors, not ridden out.
            dif_cfg = dif_cfg.with_member_gc_grace_ms(2_000);
        }
        if cell.scoped {
            dif_cfg = dif_cfg.with_scoped_dir(true);
        }
        let fab = cell
            .topology
            .build(cell.size, seed)
            .with_link(link)
            .with_dif(dif_cfg)
            .with_prefix("sw")
            .materialize(&mut s);
        let mesh = Workload::ping_sampled(&mut s, fab.dif, &fab.nodes, 0, seed, 1, 64);
        // Flow cells: place the churn population before the build. Sinks go
        // on the two lowest-degree members; every other node drives.
        let flow = cell.flow.then(|| {
            let cfg = FlowChurnCfg::new(seed ^ 0x00f2)
                .with_drivers_per_node(2)
                .with_pacing(
                    (Dur::from_secs(1), Dur::from_secs(3)),
                    (Dur::from_millis(100), Dur::from_millis(400)),
                )
                .with_traffic(32, Dur::from_millis(50));
            Workload::flow_churn(&mut s, fab.dif, &fab.nodes, &fab.lowest_degree(2), &cfg)
        });
        let ipcps = fab.member_ipcps(&s);
        // Generous limits: lossy sequential rings converge slowly in virtual
        // time; a cell that blows the limit is a real regression and panics
        // (the pool re-raises the panic on the caller's thread). The ping
        // budget scales with size too: big lossy rings route across ~n/2
        // hops and repair dropped floods by hello-driven anti-entropy,
        // which takes real virtual time to converge.
        let limit = Dur::from_secs(600) * (1 + cell.size as u64 / 200);
        let (mut run, assembled) = s.assemble_and_ping(limit, &ipcps, &mesh, 240 + cell.size);

        // Continuous-dynamics phase (churn cells only): one leave/rejoin,
        // one crash-fail past GC grace, one flap, one partition, paced and
        // margined like E11, then step until the DIF re-quiesces.
        let churn_reach = if cell.churn {
            churn_phase(&mut run, &fab, &ipcps, seed, (1, 1, 1, 1)).reach_min
        } else {
            1.0
        };
        // Flow-churn phase: let the population cycle a few hold/gap rounds
        // past the assembly-time opens, so the counters cover steady churn.
        if flow.is_some() {
            run.run_for(Dur::from_secs(8));
        }
        // Every row is read at quiescence: the oracle's own settle, which
        // runs no virtual time when the DIF is already healthy.
        let violations = invariants::settle(&mut run.net, &ipcps, 240).len() as u64;
        let net = &run.net;
        let t = Totals::of(net, &ipcps, &fab.nodes);
        let (rib_objects_max, rib_bytes_max) = rib_footprint(net, &ipcps);
        let (flow_allocs, flow_alloc_fail, flow_sdus, flow_recv) = match &flow {
            Some(f) => (f.allocs(net), f.alloc_failures(net), f.sent(net), f.received(net)),
            None => (0, 0, 0, 0),
        };
        SweepRow {
            id: cell.id(),
            size: cell.size,
            topology: cell.topology.key(),
            schedule: cell.schedule_key().into(),
            loss: cell.loss,
            flood_rate: cell.flood_rate,
            makespan_s: run.assemble_secs(),
            mgmt_pdus: assembled.mgmt_tx,
            rib_pdus: t.rib_tx,
            flood_suppressed: t.flood_suppressed,
            flood_throttled: t.flood_throttled,
            spf_full: t.spf_full,
            spf_incremental: t.spf_incremental,
            ft_delta: t.ft_delta,
            reachable: mesh.all_done(net),
            agg_len: t.agg_len as u64,
            stale_rib: invariants::stale_objects(net, &ipcps).len() as u64,
            invariants: violations,
            half_open: invariants::half_open(net, &ipcps).len() as u64,
            churn_reach,
            rib_objects_max,
            rib_bytes_max,
            flow_allocs,
            flow_alloc_fail,
            flow_sdus,
            flow_recv,
            rmt_drops: t.lanes.iter().map(|l| l.drops).sum(),
            rmt_deq_bytes: t.lanes.iter().map(|l| l.deq_bytes).sum(),
            relay_fast: t.relay_fast,
            events: t.events.total(),
            wall_s: 0.0,
        }
    });
    SweepRow { wall_s, ..row }
}

/// Run every cell of `grid` on `threads` workers. Rows come back in
/// grid enumeration order whatever the thread count.
pub fn run_grid(grid: &SweepGrid, threads: usize) -> Vec<SweepRow> {
    let base = grid.base_seed;
    par_map(threads, grid.cells(), move |cell| run_cell(&cell, base))
}

/// Run the grid `repeat` times and keep, per cell, the minimum `wall_s`
/// across passes. Every other field is a pure function of the cell and
/// seed, so repeated passes change nothing but the wall-clock noise
/// floor — min-of-N is what the perf gate should compare, since a cell
/// can run slow by scheduling accident but never fast by one.
pub fn run_grid_best_of(grid: &SweepGrid, threads: usize, repeat: usize) -> Vec<SweepRow> {
    let mut rows = run_grid(grid, threads);
    for _ in 1..repeat.max(1) {
        for (row, again) in rows.iter_mut().zip(run_grid(grid, threads)) {
            row.wall_s = row.wall_s.min(again.wall_s);
        }
    }
    rows
}

/// Render sweep rows as the `BENCH_SWEEP.json` document. `threads` is
/// recorded so the comparison gate knows whether two documents' wall
/// clocks carry the same pool-contention profile (it skips wall gating
/// when the worker counts differ); cells are matched by id regardless.
pub fn sweep_doc(rows: &[SweepRow], threads: usize) -> String {
    let mut head = Obj::new();
    head.field("schema", &"bench-sweep-v1");
    head.field("threads", &(threads as u64));
    let items: Vec<String> = rows.iter().map(|r| r.to_json()).collect();
    format!(
        "{{\n  \"meta\": {},\n  \"cells\": [\n    {}\n  ]\n}}\n",
        head.finish(),
        items.join(",\n    ")
    )
}

/// Strip machine-dependent fields (the `wall_s` member of every row,
/// wherever it stands, and the `meta` threads line) from a sweep
/// document, leaving only what must be byte-identical across thread
/// counts and runs — the determinism tests compare this.
pub fn canonicalize(doc: &str) -> String {
    const KEY: &str = "\"wall_s\": ";
    doc.lines()
        .filter(|l| !l.contains("\"meta\""))
        .map(|l| match l.find(KEY) {
            // The value is a bare number (or null): it runs to the next
            // delimiter. Take one adjoining ", " with it — the one after
            // if another member follows, else the one before.
            Some(at) => {
                let end = l[at..].find([',', '}']).map_or(l.len(), |e| at + e);
                match l[end..].strip_prefix(", ") {
                    Some(rest) => format!("{}{rest}", &l[..at]),
                    None => format!("{}{}", l[..at].trim_end_matches(", "), &l[end..]),
                }
            }
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The shared body of the per-experiment bins (`e10`, `e12`, `e13`):
/// run `cells` through `run` on the pool, print the table under `cols`,
/// write the rows as section `section` of `reports/<name>.json`, and
/// report progress on stderr.
pub fn report_cells<T, R, F>(
    name: &str,
    section: &str,
    cols: &[Col<R>],
    threads: usize,
    cells: Vec<T>,
    run: F,
) where
    T: Send + 'static,
    R: Row + Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    eprintln!("{name}: {} cells on {threads} threads", cells.len());
    let (rows, wall) = timed(|| par_map(threads, cells, run));
    print!("{}", markdown(cols, &rows));
    let mut doc = Vec::new();
    push_section(&mut doc, section, &rows);
    let path = write_report(&format!("{name}.json"), &finish_doc(doc));
    eprintln!("{name}: {} cells in {wall:.1}s wall -> {}", rows.len(), path.display());
}

/// Write `doc` to `reports/<name>` (creating the directory), the
/// single place every bench artifact lands — CI uploads the directory.
pub fn write_report(name: &str, doc: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("reports");
    std::fs::create_dir_all(dir).expect("create reports/");
    let path = dir.join(name);
    std::fs::write(&path, doc).expect("write report");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_preserves_submission_order() {
        // Reverse-sorted sleep times: late submissions finish first.
        let out = par_map(4, (0..16u64).collect(), |i| {
            std::thread::sleep(std::time::Duration::from_millis((16 - i) % 5));
            i * 2
        });
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_single_thread_matches_multi() {
        let a = par_map(1, (0..8u64).collect(), |i| i * i);
        let b = par_map(8, (0..8u64).collect(), |i| i * i);
        assert_eq!(a, b);
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let r = std::panic::catch_unwind(|| {
            par_map(2, vec![0u32, 1, 2, 3], |i| {
                if i == 2 {
                    panic!("job blew up");
                }
                i
            })
        });
        assert!(r.is_err(), "panic propagates to the caller");
    }

    #[test]
    fn cell_ids_are_stable_and_distinct() {
        let grid = SweepGrid::ci();
        let cells = grid.cells();
        let ids: std::collections::BTreeSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), cells.len(), "cell ids collide");
        // Per size × topology: the first schedule's loss × flood plane,
        // one cell per further schedule and one churn cell; per size, one
        // scoped cell and one flow cell.
        assert_eq!(
            cells.len(),
            grid.sizes.len()
                * grid.topologies.len()
                * (grid.losses.len() * grid.flood_rates.len() + (grid.schedules.len() - 1) + 1)
                + 2 * grid.sizes.len()
        );
        assert_eq!(cells.len(), 60);
        let seq: Vec<String> =
            cells.iter().filter(|c| c.schedule_key() == "seq").map(|c| c.id()).collect();
        assert_eq!(seq.len(), grid.sizes.len() * grid.topologies.len());
        assert!(seq.iter().all(|id| id.ends_with("-seq-l0-f64")), "{seq:?}");
        assert_eq!(
            cells.iter().filter(|c| c.churn).count(),
            grid.sizes.len() * grid.topologies.len()
        );
        assert!(cells.iter().filter(|c| c.churn).all(|c| c.id().ends_with("-churn")));
        assert_eq!(cells.iter().filter(|c| c.scoped).count(), grid.sizes.len());
        assert!(cells.iter().filter(|c| c.scoped).all(|c| c.id().ends_with("-scoped")));
        assert_eq!(cells.iter().filter(|c| c.flow).count(), grid.sizes.len());
        assert!(cells.iter().filter(|c| c.flow).all(|c| c.id().ends_with("-flow")));
        // Every scoped cell has its exact unscoped counterpart in-grid,
        // so the RIB-footprint comparison is like against like.
        for c in cells.iter().filter(|c| c.scoped) {
            let mut twin = c.clone();
            twin.scoped = false;
            assert!(
                cells.iter().any(|o| o.id() == twin.id()),
                "scoped cell {} lacks its unscoped twin",
                c.id()
            );
        }
    }

    #[test]
    fn cell_seed_depends_on_every_dimension() {
        let c = SweepCell {
            size: 16,
            topology: SweepTopology::ScaleFree,
            schedule: EnrollSchedule::waves(),
            loss: 0.0,
            flood_rate: 64,
            churn: false,
            scoped: false,
            flow: false,
        };
        let mut d = c.clone();
        d.loss = 0.02;
        assert_ne!(c.seed(1), d.seed(1));
        assert_ne!(c.seed(1), c.seed(2));
        assert_eq!(c.seed(1), c.seed(1));
        let mut e = c.clone();
        e.churn = true;
        assert_ne!(c.seed(1), e.seed(1), "churn is part of the cell identity");
        let mut f = c.clone();
        f.scoped = true;
        assert_ne!(c.seed(1), f.seed(1), "scope is part of the cell identity");
        let mut g = c.clone();
        g.flow = true;
        assert_ne!(c.seed(1), g.seed(1), "flow is part of the cell identity");
    }

    #[test]
    fn canonicalize_drops_wall_clock_only() {
        let row = SweepRow {
            id: "x".into(),
            size: 4,
            topology: "ring",
            schedule: "waves".into(),
            loss: 0.0,
            flood_rate: 64,
            makespan_s: 1.5,
            mgmt_pdus: 10,
            rib_pdus: 20,
            flood_suppressed: 0,
            flood_throttled: 0,
            spf_full: 4,
            spf_incremental: 9,
            ft_delta: 12,
            reachable: true,
            agg_len: 40,
            stale_rib: 0,
            invariants: 0,
            half_open: 0,
            churn_reach: 1.0,
            rib_objects_max: 9,
            rib_bytes_max: 300,
            flow_allocs: 0,
            flow_alloc_fail: 0,
            flow_sdus: 0,
            flow_recv: 0,
            rmt_drops: 0,
            rmt_deq_bytes: 4_096,
            relay_fast: 7,
            events: 5_000,
            wall_s: 0.123456,
        };
        let doc = sweep_doc(std::slice::from_ref(&row), 4);
        let mut other = row;
        other.wall_s = 9.87;
        let doc2 = sweep_doc(&[other], 1);
        assert_ne!(doc, doc2);
        assert_eq!(canonicalize(&doc), canonicalize(&doc2));
        assert!(canonicalize(&doc).contains("\"makespan_s\": 1.5"));
        assert!(!canonicalize(&doc).contains("wall_s"));
    }

    /// A tiny end-to-end cell: assembles, reaches, and is reproducible.
    #[test]
    fn small_cell_runs_and_reproduces() {
        let cell = SweepCell {
            size: 5,
            topology: SweepTopology::Ring,
            schedule: EnrollSchedule::waves(),
            loss: 0.0,
            flood_rate: 64,
            churn: false,
            scoped: false,
            flow: false,
        };
        let a = run_cell(&cell, 1);
        let b = run_cell(&cell, 1);
        assert!(a.reachable, "{a:?}");
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.mgmt_pdus, b.mgmt_pdus);
        assert_eq!(a.rib_pdus, b.rib_pdus);
        assert_eq!(a.stale_rib, 0);
        assert_eq!(a.invariants, 0, "{a:?}");
        assert_eq!(a.churn_reach, 1.0, "non-churn cells report full reachability");
        // Even without a flow phase the RMT queues carried the mgmt
        // traffic, and the accounting is reproducible.
        assert_eq!(a.flow_allocs, 0);
        assert!(a.rmt_deq_bytes > 0, "{a:?}");
        assert_eq!(a.rmt_deq_bytes, b.rmt_deq_bytes);
        assert_eq!(a.rmt_drops, b.rmt_drops);
    }

    /// A tiny flow cell: the churn phase cycles flows end to end and
    /// every allocation/RMT counter reproduces exactly.
    #[test]
    fn small_flow_cell_cycles_flows_and_reproduces() {
        let cell = SweepCell {
            size: 6,
            topology: SweepTopology::ScaleFree,
            schedule: EnrollSchedule::waves(),
            loss: 0.0,
            flood_rate: 0,
            churn: false,
            scoped: false,
            flow: true,
        };
        let a = run_cell(&cell, 1);
        let b = run_cell(&cell, 1);
        assert!(a.reachable, "{a:?}");
        assert!(a.flow_allocs > 0, "churn never opened a flow: {a:?}");
        assert!(a.flow_recv > 0, "churned flows carried no data: {a:?}");
        assert_eq!(a.flow_allocs, b.flow_allocs);
        assert_eq!(a.flow_alloc_fail, b.flow_alloc_fail);
        assert_eq!(a.flow_sdus, b.flow_sdus);
        assert_eq!(a.flow_recv, b.flow_recv);
        assert_eq!(a.rmt_drops, b.rmt_drops);
        assert_eq!(a.rmt_deq_bytes, b.rmt_deq_bytes);
    }

    /// A tiny churn cell: the continuous-dynamics phase runs, quiesces
    /// clean, and is reproducible.
    #[test]
    fn small_churn_cell_quiesces_clean_and_reproduces() {
        let cell = SweepCell {
            size: 8,
            topology: SweepTopology::ScaleFree,
            schedule: EnrollSchedule::waves(),
            loss: 0.0,
            flood_rate: 0,
            churn: true,
            scoped: false,
            flow: false,
        };
        let a = run_cell(&cell, 1);
        let b = run_cell(&cell, 1);
        assert!(a.reachable, "{a:?}");
        assert_eq!(a.stale_rib, 0, "departed state leaked: {a:?}");
        assert_eq!(a.invariants, 0, "the DIF re-settled unhealthy: {a:?}");
        assert!(a.churn_reach >= 0.99, "reachability dipped in calm windows: {a:?}");
        assert_eq!(a.agg_len, b.agg_len);
        assert_eq!(a.rib_pdus, b.rib_pdus);
        assert_eq!(a.churn_reach, b.churn_reach);
    }

    /// A tiny scoped cell against its unscoped twin: both assemble and
    /// reach, the scoped member RIBs are strictly smaller, and the
    /// scoped run is reproducible.
    #[test]
    fn scoped_cell_shrinks_member_ribs_and_reproduces() {
        let unscoped = SweepCell {
            size: 8,
            topology: SweepTopology::ScaleFree,
            schedule: EnrollSchedule::waves(),
            loss: 0.0,
            flood_rate: 0,
            churn: false,
            scoped: false,
            flow: false,
        };
        let mut scoped = unscoped.clone();
        scoped.scoped = true;
        let u = run_cell(&unscoped, 1);
        let s = run_cell(&scoped, 1);
        let s2 = run_cell(&scoped, 1);
        assert!(u.reachable && s.reachable, "unscoped {u:?} / scoped {s:?}");
        assert_eq!(s.stale_rib, 0, "{s:?}");
        assert!(
            s.rib_objects_max < u.rib_objects_max,
            "scoping did not shrink the widest RIB: {} !< {}",
            s.rib_objects_max,
            u.rib_objects_max
        );
        assert!(
            s.rib_bytes_max < u.rib_bytes_max,
            "scoping did not shrink RIB bytes: {} !< {}",
            s.rib_bytes_max,
            u.rib_bytes_max
        );
        assert_eq!(s.rib_objects_max, s2.rib_objects_max);
        assert_eq!(s.rib_bytes_max, s2.rib_bytes_max);
        assert_eq!(s.rib_pdus, s2.rib_pdus);
    }
}
