//! Offline drop-in subset of the `criterion` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the slice of the criterion API its benches use: benchmark groups with
//! `sample_size`/`warm_up_time`/`measurement_time`/`throughput`,
//! `bench_function`, `bench_with_input`, and the
//! `criterion_group!`/`criterion_main!` macros. Statistics are minimal —
//! mean wall-clock per iteration over a bounded sample — but the harness
//! shape and output are compatible enough for `cargo bench` to run every
//! wrapper unchanged.

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "a benchmark timer is a wall clock by definition: it times closures under `cargo bench` and no simulation links it"
)]

use std::time::{Duration, Instant};

/// Benchmark driver handed to `criterion_group!` functions.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("group: {name}");
        BenchmarkGroup {
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_secs(2),
            throughput: None,
        }
    }
}

/// How much work one iteration does (subset: element counts only).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// One iteration processes this many elements.
    Elements(u64),
}

/// Identifier for a parameterized benchmark.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendered from the parameter value alone.
    pub fn from_parameter<P: std::fmt::Display>(p: P) -> Self {
        BenchmarkId(p.to_string())
    }

    /// An id with a function name and a parameter value.
    pub fn new<P: std::fmt::Display>(name: &str, p: P) -> Self {
        BenchmarkId(format!("{name}/{p}"))
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A group of benchmarks sharing sampling settings.
pub struct BenchmarkGroup {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Set the number of measured samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Set the warm-up duration (budget, not a guarantee).
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Set the measurement duration budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Declare the work one iteration of the following benchmarks does;
    /// their report lines gain the time per element. A single timed
    /// iteration of a nanosecond-scale kernel mostly measures the clock,
    /// so such benches loop over a table of inputs and declare its size.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measure a closure.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher { samples: Vec::new() };
        // One warm-up pass, then sample until the size or time budget is hit.
        f(&mut b);
        b.samples.clear();
        let budget = Instant::now();
        while b.samples.len() < self.sample_size && budget.elapsed() < self.measurement_time {
            f(&mut b);
        }
        let n = b.samples.len().max(1);
        let mean = b.samples.iter().sum::<Duration>() / n as u32;
        match self.throughput {
            Some(Throughput::Elements(e)) => {
                let per = mean.as_secs_f64() * 1e9 / e as f64;
                println!("  {name}: {mean:?} mean over {n} samples ({per:.1} ns/elem)");
            }
            None => println!("  {name}: {mean:?} mean over {n} samples"),
        }
        self
    }

    /// Measure a closure with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// End the group.
    pub fn finish(self) {}
}

/// Measures one sample per [`Bencher::iter`] call.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time one execution of `f` (criterion amortizes batches; one
    /// iteration per sample is enough at this fidelity).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let t = Instant::now();
        let out = f();
        self.samples.push(t.elapsed());
        black_box(out);
    }
}

/// Prevent the optimizer from deleting a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Bundle benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $f(&mut c); )+
        }
    };
}

/// Generate `main` running the given group runners.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_counts_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        let mut runs = 0u32;
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_secs(5));
        g.bench_function("count", |b| b.iter(|| runs += 1));
        g.finish();
        assert_eq!(runs, 4, "one warm-up + three samples");
    }
}
