//! Offline stand-in for the `criterion` crate.
//!
//! This build environment has no crates.io access, so the workspace
//! vendors the API subset its benches use: `criterion_group!` /
//! `criterion_main!`, [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] and [`Bencher::iter`]. Instead of
//! criterion's statistical engine it runs a fixed warm-up plus
//! `sample_size` timed iterations and prints min / mean / max
//! wall-clock per benchmark — enough to compare engine variants and
//! track regressions.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times closures passed to [`Bencher::iter`].
pub struct Bencher {
    sample_size: usize,
    result: Option<(usize, Duration, Duration, Duration)>,
}

impl Bencher {
    /// Runs `f` once warm-up plus `sample_size` timed iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(f());
            let dt = t0.elapsed();
            total += dt;
            min = min.min(dt);
            max = max.max(dt);
        }
        self.result = Some((self.sample_size, min, total / self.sample_size as u32, max));
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark and prints its `group/name` id with the
    /// min / mean / max iteration time.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Display,
        mut f: F,
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, name);
        let mut b = Bencher {
            sample_size: self.sample_size,
            result: None,
        };
        f(&mut b);
        match b.result {
            Some((samples, min, mean, max)) => println!(
                "bench {id:<44} min {min:>12.3?}  mean {mean:>12.3?}  max {max:>12.3?}  ({samples} samples)"
            ),
            None => eprintln!("bench {id:<44} (no iter() call)"),
        }
        self
    }

    /// Ends the group (kept for API compatibility; measurements are
    /// reported as they complete).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_records() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        let mut calls = 0;
        g.bench_function("count", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 4, "one warm-up plus three timed iterations");
        g.sample_size(0);
        calls = 0;
        g.bench_function("count", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 2, "the sample size is at least 1");
        g.finish();
    }
}
