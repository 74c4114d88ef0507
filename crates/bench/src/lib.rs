//! `mck-bench` — microbenchmarks of the simulator's hot paths.
//!
//! This crate ships a minimal, dependency-free benchmarking harness (see
//! [`Bench`]) used by the targets under `benches/`, so the workspace builds
//! fully offline. The harness auto-calibrates an iteration count per
//! benchmark, runs a fixed number of timed batches, and reports mean/min ns
//! per iteration in a plain table. The end-to-end benchmarks that write
//! `BENCH_*.json` artifacts are `mck` commands (`mck sweep-bench`,
//! `mck scale`, ...).
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Fully qualified benchmark name (`group/case`).
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration across batches.
    pub mean_ns: f64,
    /// Fastest batch's nanoseconds per iteration.
    pub min_ns: f64,
    /// Iterations per timed batch (after calibration).
    pub iters_per_batch: u64,
}

/// A tiny fixed-effort benchmark runner.
///
/// ```no_run
/// let mut b = mck_bench::Bench::from_args("demo");
/// b.bench("add", || mck_bench::black_box(1 + 1));
/// b.finish();
/// ```
pub struct Bench {
    suite: String,
    filter: Option<String>,
    rows: Vec<Sample>,
    /// Target wall-clock duration of one timed batch.
    batch_target: Duration,
    /// Number of timed batches per benchmark.
    batches: u32,
}

impl Bench {
    /// Creates a runner, reading an optional substring filter from argv
    /// (flags such as `--bench`, passed by `cargo bench`, are ignored).
    pub fn from_args(suite: &str) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Bench {
            suite: suite.to_string(),
            filter,
            rows: Vec::new(),
            batch_target: Duration::from_millis(20),
            batches: 8,
        }
    }

    /// Runs one benchmark unless it is filtered out.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if let Some(pat) = &self.filter {
            if !name.contains(pat.as_str()) {
                return;
            }
        }
        // Calibrate: time growing probe batches until we can estimate an
        // iteration count that fills the target batch duration.
        let mut probe_iters: u64 = 1;
        let per_iter = loop {
            let t0 = Instant::now();
            for _ in 0..probe_iters {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt > Duration::from_millis(2) || probe_iters >= 1 << 20 {
                break dt.as_nanos() as f64 / probe_iters as f64;
            }
            probe_iters *= 8;
        };
        let iters = ((self.batch_target.as_nanos() as f64 / per_iter.max(0.5)) as u64).max(1);
        let mut per_batch_ns: Vec<f64> = Vec::with_capacity(self.batches as usize);
        for _ in 0..self.batches {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_batch_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        let mean_ns = per_batch_ns.iter().sum::<f64>() / per_batch_ns.len() as f64;
        let min_ns = per_batch_ns.iter().cloned().fold(f64::INFINITY, f64::min);
        let sample = Sample {
            name: name.to_string(),
            mean_ns,
            min_ns,
            iters_per_batch: iters,
        };
        eprintln!(
            "{:<44} {:>14} {:>14}",
            sample.name,
            format_ns(sample.mean_ns),
            format_ns(sample.min_ns)
        );
        self.rows.push(sample);
    }

    /// All samples recorded so far.
    pub fn samples(&self) -> &[Sample] {
        &self.rows
    }

    /// Prints the summary footer and consumes the runner.
    pub fn finish(self) {
        eprintln!(
            "[{}] {} benchmark(s), {} batches each",
            self.suite,
            self.rows.len(),
            self.batches
        );
    }
}

/// Human formatting for a nanosecond figure (`123 ns`, `4.56 µs`, ...).
pub fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_records() {
        let mut b = Bench {
            suite: "test".into(),
            filter: None,
            rows: Vec::new(),
            batch_target: Duration::from_micros(200),
            batches: 2,
        };
        b.bench("noop", || black_box(1u64 + 1));
        assert_eq!(b.samples().len(), 1);
        assert!(b.samples()[0].mean_ns >= 0.0);
        assert!(b.samples()[0].iters_per_batch >= 1);
    }

    #[test]
    fn format_ns_scales() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("µs"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(12_000_000_000.0).ends_with(" s"));
    }
}
