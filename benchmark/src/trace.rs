//! Stepping and spans. Every workload advances its `Net` through a
//! [`Pacer`], so a traced rep takes exactly the steps an untraced one
//! takes; tracing only adds, at each window edge, one read of the public
//! counters. Spans are recorded from this package's own code, around
//! the calls into the stack, kept in memory and written at exit.

use crate::counters::{self, Counts};
use crate::host::{Cost, SpeedProbe, Stamp, PROBE_NOMINAL_NS};
use crate::stats::median;
use crate::workloads::{Built, Scene};
use rina::prelude::*;
use rina_sim::Histogram;
use std::time::{Duration, Instant};

/// Virtual time one `window` span covers.
pub const WINDOW: Dur = Dur::from_millis(250);

/// One recorded span.
pub struct Span {
    /// `rep`, `build`, `assemble`, `run`, `drain`, `collect` or `window`.
    pub name: &'static str,
    /// Index of the span that contains this one.
    pub parent: Option<usize>,
    /// Host nanoseconds since the trace began.
    pub start_ns: u64,
    /// Host nanoseconds since the trace began.
    pub end_ns: u64,
    /// Virtual nanoseconds covered.
    pub virt_ns: (u64, u64),
    /// `Sim::pending()` when the span closed.
    pub pending: usize,
    /// Change of every public counter over the span (windows only).
    pub deltas: Vec<(&'static str, i64)>,
}

/// The spans of one traced run of one workload.
pub struct Trace {
    origin: Instant,
    /// The workload id every span of this trace shares.
    pub workload: &'static str,
    /// Spans in the order they opened.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new(workload: &'static str) -> Trace {
        Trace { origin: Instant::now(), workload, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, virt: Time) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: t,
            end_ns: t,
            virt_ns: (virt.nanos(), virt.nanos()),
            pending: 0,
            deltas: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close span `i` at virtual time `virt`.
    pub fn close(&mut self, i: usize, virt: Time, pending: usize) {
        let t = self.now_ns();
        let s = &mut self.spans[i];
        s.end_ns = t;
        s.virt_ns.1 = virt.nanos();
        s.pending = pending;
    }

    /// Host nanoseconds of every `window` span.
    pub fn window_ns(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in self.spans.iter().filter(|s| s.name == "window") {
            h.push((s.end_ns - s.start_ns) as f64);
        }
        h
    }

    /// Largest event-heap depth seen at a window edge.
    pub fn heap_depth_peak(&self) -> usize {
        self.spans.iter().map(|s| s.pending).max().unwrap_or(0)
    }

    /// Host seconds inside spans named `name`.
    pub fn seconds_in(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum::<u64>()
            as f64
            / 1e9
    }
}

struct Tracing<'t> {
    trace: &'t mut Trace,
    rep: usize,
    phase: Option<usize>,
    window: Option<(usize, Time, Counts)>,
    /// Host time spent in this struct's own methods.
    own: Duration,
}

/// Builds per rep: set-up takes a millisecond, so one timing of it is
/// mostly noise.
const SETUPS: usize = 5;

/// Host time between two slices of the speed probe.
const PROBE_EVERY: Duration = Duration::from_millis(10);

/// Drives one rep: advances virtual time, times the measured phase,
/// interleaves the speed probe, and (when tracing) records phase and
/// window spans.
pub struct Pacer<'t> {
    tracing: Option<Tracing<'t>>,
    setup_s: f64,
    started: Stamp,
    measured: Option<Cost>,
    probe: SpeedProbe,
    slices: Vec<f64>,
    last_slice: Instant,
    /// Host time the probe took: not the program's, so not in `measured`.
    probing: Duration,
}

impl<'t> Pacer<'t> {
    /// A pacer for one rep; with `trace`, its spans go under a new `rep`
    /// span.
    pub fn new(trace: Option<&'t mut Trace>) -> Pacer<'t> {
        Pacer {
            tracing: trace.map(|trace| {
                let rep = trace.open("rep", None, Time::ZERO);
                Tracing { trace, rep, phase: None, window: None, own: Duration::ZERO }
            }),
            setup_s: 0.0,
            started: Stamp::now(),
            measured: None,
            probe: SpeedProbe::default(),
            slices: Vec::new(),
            last_slice: Instant::now(),
            probing: Duration::ZERO,
        }
    }

    /// Build the scenario [`SETUPS`] times (the `build` span) and keep
    /// the last; set-up time is the median build. Then start the clocks
    /// of the measured phase.
    pub fn build(&mut self, build: impl Fn() -> Built) -> Built {
        let span = self.tracing.as_mut().map(|t| t.trace.open("build", Some(t.rep), Time::ZERO));
        let (mut times, mut kept) = (Vec::new(), None);
        for _ in 0..SETUPS {
            // Dropping the previous build is not set-up: do it first.
            drop(kept.take());
            let began = Instant::now();
            let built = build();
            times.push(began.elapsed().as_secs_f64());
            kept = Some(built);
        }
        let built = kept.expect("SETUPS > 0");
        self.setup_s = median(&times);
        if let (Some(t), Some(span)) = (&mut self.tracing, span) {
            t.trace.close(span, Time::ZERO, built.scene.net.sim.pending());
        }
        self.started = Stamp::now();
        self.last_slice = Instant::now();
        built
    }

    /// Host seconds [`Pacer::build`] took.
    pub fn setup_s(&self) -> f64 {
        self.setup_s
    }

    /// Host cost from the first dispatched event to the end of the
    /// measured phase (the start of `collect`), as the clocks read it.
    pub fn measured(&self) -> Cost {
        self.measured.unwrap_or_default()
    }

    /// How much slower than its quiet self the box ran during this rep:
    /// the median probe slice over the nominal one.
    pub fn speed_factor(&self) -> f64 {
        median(&self.slices) / PROBE_NOMINAL_NS
    }

    fn probe(&mut self) {
        let began = Instant::now();
        self.slices.push(self.probe.slice());
        self.last_slice = Instant::now();
        self.probing += self.last_slice - began;
    }

    /// Host seconds the tracer itself took inside the measured phase:
    /// reading the counters at window edges and keeping the spans.
    pub fn tracing_s(&self) -> f64 {
        self.tracing.as_ref().map_or(0.0, |t| t.own.as_secs_f64())
    }

    /// Run the network for `d` of virtual time.
    pub fn advance(&mut self, s: &mut Scene, d: Dur) {
        s.net.run_for(d);
        self.after_step(s);
    }

    /// Run the network for `n` windows of virtual time, one step each.
    pub fn advance_windows(&mut self, s: &mut Scene, n: u64) {
        for _ in 0..n {
            self.advance(s, WINDOW);
        }
    }

    /// Run a churn timeline for `d` of virtual time.
    pub fn advance_churn(&mut self, s: &mut Scene, runner: &mut ChurnRunner, d: Dur) {
        runner.advance(&mut s.net, d);
        self.after_step(s);
    }

    fn after_step(&mut self, s: &Scene) {
        if self.last_slice.elapsed() >= PROBE_EVERY {
            self.probe();
        }
        let Some(t) = &mut self.tracing else { return };
        let now = s.net.sim.now();
        if t.window.as_ref().is_some_and(|&(_, since, _)| now.since(since) >= WINDOW) {
            let began = Instant::now();
            let counts = t.close_window(s);
            t.open_window(s, counts);
            t.own += began.elapsed();
        }
    }

    /// Enter the measured phase `name`, closing the previous one.
    pub fn phase(&mut self, name: &'static str, s: &Scene) {
        let Some(t) = &mut self.tracing else { return };
        let began = Instant::now();
        let counts = t.enter(name, s);
        t.open_window(s, counts);
        t.own += began.elapsed();
    }

    /// End the measured phase: stop its clocks and enter `collect`.
    pub fn stop(&mut self, s: &Scene) {
        // At least one slice, however short the rep.
        self.probe();
        let mut cost = self.started.elapsed();
        let probing = self.probing.as_secs_f64();
        cost.wall_s -= probing;
        cost.cpu_s -= probing;
        self.measured = Some(cost);
        if let Some(t) = &mut self.tracing {
            t.enter("collect", s);
        }
    }

    /// Close `collect` and the rep.
    pub fn finish(&mut self, s: &Scene) {
        if let Some(t) = &mut self.tracing {
            let (now, pending) = (s.net.sim.now(), s.net.sim.pending());
            if let Some(p) = t.phase.take() {
                t.trace.close(p, now, pending);
            }
            t.trace.close(t.rep, now, pending);
        }
    }
}

impl Tracing<'_> {
    /// Close the open window, if any, recording how far every counter
    /// moved over it. Returns the counters as they read now.
    fn close_window(&mut self, s: &Scene) -> Counts {
        let counts = counters::collect(&s.net, &s.fab, &s.members);
        if let Some((i, _, before)) = self.window.take() {
            self.trace.close(i, s.net.sim.now(), s.net.sim.pending());
            self.trace.spans[i].deltas = counts
                .iter()
                .zip(&before)
                .map(|(&(n, a), &(_, b))| (n, a as i64 - b as i64))
                .filter(|&(_, d)| d != 0)
                .collect();
        }
        counts
    }

    /// Open a window under the current phase, starting from `counts`.
    fn open_window(&mut self, s: &Scene, counts: Counts) {
        let now = s.net.sim.now();
        self.window = Some((self.trace.open("window", self.phase, now), now, counts));
    }

    /// Close the open window and phase, then open the phase `name`.
    fn enter(&mut self, name: &'static str, s: &Scene) -> Counts {
        let counts = self.close_window(s);
        let now = s.net.sim.now();
        if let Some(p) = self.phase.take() {
            self.trace.close(p, now, s.net.sim.pending());
        }
        self.phase = Some(self.trace.open(name, Some(self.rep), now));
        counts
    }
}
