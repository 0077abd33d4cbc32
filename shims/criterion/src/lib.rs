//! Minimal, API-compatible subset of the `criterion` benchmark harness.
//!
//! The build environment has no registry access, so the workspace vendors the
//! surface its 5 bench targets use: [`Criterion::bench_function`],
//! [`Bencher::iter`], [`criterion_group!`]/[`criterion_main!`] (both the
//! `name = ..; config = ..; targets = ..` and positional forms), and
//! [`black_box`]. Instead of criterion's statistical analysis it runs each
//! routine `sample_size` times after one warm-up and reports min/mean/max
//! wall-clock per iteration. Like criterion, it honours `--test`
//! (`cargo bench .. -- --test`): each routine then runs once, untimed, and
//! its line reads `Success`.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark driver (subset of `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
    /// `--test`: run each routine once, take no samples.
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion::new(std::env::args().any(|a| a == "--test"))
    }
}

impl Criterion {
    fn new(test_mode: bool) -> Criterion {
        Criterion {
            sample_size: 10,
            test_mode,
        }
    }

    /// Set how many timed samples [`Bencher::iter`] collects.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Run one named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            test_mode: self.test_mode,
            samples: Vec::new(),
        };
        f(&mut b);
        b.report(id);
        self
    }
}

/// Timing loop handle (subset of `criterion::Bencher`).
pub struct Bencher {
    sample_size: usize,
    test_mode: bool,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time `routine` once per sample after a warm-up run; in test mode,
    /// run it once and time nothing.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        black_box(routine()); // the warm-up, or test mode's one run
        if self.test_mode {
            return;
        }
        self.samples = (0..self.sample_size)
            .map(|_| {
                let start = Instant::now();
                black_box(routine());
                start.elapsed()
            })
            .collect();
    }

    fn report(&self, id: &str) {
        if self.test_mode {
            println!("{id:<40} Success");
            return;
        }
        if self.samples.is_empty() {
            println!("{id:<40} (no samples)");
            return;
        }
        let min = self.samples.iter().min().expect("non-empty");
        let max = self.samples.iter().max().expect("non-empty");
        let mean = self.samples.iter().sum::<Duration>() / self.samples.len() as u32;
        println!(
            "{id:<40} time: [{} {} {}]  ({} samples)",
            fmt_duration(*min),
            fmt_duration(mean),
            fmt_duration(*max),
            self.samples.len(),
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Declares a benchmark group function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench `main` that runs each group, mirroring `criterion::criterion_main!`.
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
    fn bench_function_runs_routine() {
        let mut calls = 0u32;
        Criterion::new(false)
            .sample_size(3)
            .bench_function("shim/self-test", |b| b.iter(|| calls += 1));
        // 1 warm-up + 3 samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn test_mode_runs_routine_once() {
        let mut calls = 0u32;
        Criterion::new(true)
            .sample_size(3)
            .bench_function("shim/test-mode", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 1);
    }

    #[test]
    fn duration_formatting_covers_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert!(fmt_duration(Duration::from_micros(5)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(5)).ends_with(" s"));
    }
}
