//! Offline micro-benchmark harness with a criterion-compatible API.
//!
//! Implements the subset of criterion this workspace's benches use:
//! `Criterion`, `benchmark_group`, `sample_size`, `throughput`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Throughput`,
//! `Bencher::iter`, and the `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement model: each sample times a batch of iterations (batch size
//! auto-calibrated so one batch takes ≳1 ms), the configured number of
//! samples is collected after a short warm-up, and the *median* ns/iter is
//! reported with its spread — the median absolute deviation of the
//! samples — and the sample count. Results also accumulate in
//! [`Criterion::results`] so callers (e.g. the expansion bench) can
//! serialize them after running.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Throughput annotation attached to a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Hierarchical benchmark name: `function/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Id rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            id: format!("{}/{}", name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { id: s }
    }
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full id: `group/function/parameter`.
    pub id: String,
    /// Median wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Median absolute deviation of the samples' ns/iter from the median.
    pub mad_ns: f64,
    /// Timed samples behind the median.
    pub samples: usize,
    /// Group throughput annotation, if any.
    pub throughput: Option<Throughput>,
}

impl BenchResult {
    /// Throughput in elements (or bytes) per second, if annotated.
    pub fn per_second(&self) -> Option<f64> {
        let n = match self.throughput? {
            Throughput::Elements(n) | Throughput::Bytes(n) => n as f64,
        };
        Some(n * 1e9 / self.ns_per_iter)
    }
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Fresh driver with no recorded results.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            throughput: None,
        }
    }

    /// Benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) {
        let id = id.into();
        let mut group = self.benchmark_group("");
        group.bench_function(id, f);
        group.finish();
    }

    /// All measurements recorded so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// A named collection of benchmarks sharing sample count and throughput.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full_id = if self.name.is_empty() {
            id.id
        } else {
            format!("{}/{}", self.name, id.id)
        };
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        let (ns, mad_ns) = bencher.median_mad_ns();
        let samples = bencher.samples.len();
        eprintln!("bench {full_id:<56} {ns:>14.1} ns/iter (MAD {mad_ns:.1}, n={samples})");
        self.criterion.results.push(BenchResult {
            id: full_id,
            ns_per_iter: ns,
            mad_ns,
            samples,
            throughput: self.throughput,
        });
        self
    }

    /// Run one benchmark that receives an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// End the group (provided for API compatibility).
    pub fn finish(&mut self) {}
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Measure `routine`, called in calibrated batches.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate a batch size so one batch takes roughly >= 1 ms,
        // keeping per-sample timer overhead negligible.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                std_black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) || batch >= 1 << 20 {
                break;
            }
            batch = (batch * 4).min(1 << 20);
        }
        // Warm-up.
        for _ in 0..batch.div_ceil(2).min(1 << 10) {
            std_black_box(routine());
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                std_black_box(routine());
            }
            self.samples
                .push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
    }

    /// Median of the samples and their median absolute deviation from it.
    fn median_mad_ns(&self) -> (f64, f64) {
        assert!(!self.samples.is_empty(), "Bencher::iter was never called");
        let median = |mut s: Vec<f64>| {
            s.sort_unstable_by(f64::total_cmp);
            s[s.len() / 2]
        };
        let mid = median(self.samples.clone());
        let mad = median(self.samples.iter().map(|x| (x - mid).abs()).collect());
        (mid, mad)
    }
}

/// Bundle benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Entry point running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::new();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_to(n: u64) -> u64 {
        (0..n).fold(0, |a, b| a ^ b.wrapping_mul(0x9E37_79B9))
    }

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::new();
        {
            let mut g = c.benchmark_group("demo");
            g.sample_size(3);
            g.throughput(Throughput::Elements(1000));
            g.bench_function(BenchmarkId::new("sum", 1000), |b| {
                b.iter(|| sum_to(black_box(1000)))
            });
            g.finish();
        }
        let results = c.results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, "demo/sum/1000");
        assert!(results[0].ns_per_iter > 0.0);
        assert_eq!(results[0].samples, 3);
        assert!(results[0].mad_ns >= 0.0 && results[0].mad_ns.is_finite());
        assert!(results[0].per_second().unwrap() > 0.0);
    }

    /// The spread is the median absolute deviation from the median.
    #[test]
    fn mad_is_the_median_absolute_deviation() {
        let b = Bencher {
            samples: vec![10.0, 12.0, 11.0, 30.0, 9.0],
            sample_size: 5,
        };
        // Median 11; deviations 1, 1, 0, 19, 2 → median 1.
        assert_eq!(b.median_mad_ns(), (11.0, 1.0));
    }

    #[test]
    fn group_macros_compose() {
        fn bench_a(c: &mut Criterion) {
            c.bench_function("a", |b| b.iter(|| black_box(1u32 + 1)));
        }
        criterion_group!(benches, bench_a);
        let mut c = Criterion::new();
        benches(&mut c);
        assert_eq!(c.results().len(), 1);
    }
}
