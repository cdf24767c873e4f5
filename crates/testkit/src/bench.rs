//! Micro-benchmark harness (offline `criterion` replacement for
//! `harness = false` bench targets).
//!
//! Each measurement runs a warmup, calibrates an inner iteration count so a
//! sample lasts at least ~1 ms, takes N timed samples, and reports the
//! median and the median absolute deviation (MAD) — robust statistics that
//! do not assume Gaussian noise. Results print as a table and are written
//! to `BENCH_<suite>.json` for machine diffing between PRs.
//!
//! Environment knobs:
//!
//! * `VKSIM_BENCH_QUICK` — smoke mode (1 warmup, 3 samples) for CI.
//! * `VKSIM_BENCH_WARMUP` / `VKSIM_BENCH_SAMPLES` — explicit overrides.
//! * `VKSIM_BENCH_DIR` — output directory for the JSON (default `.`).

use crate::json::escape;
use std::io::Write;
use std::time::Instant;

/// One benchmark's robust timing summary.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark id (`group/name` style).
    pub name: String,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of the per-iteration samples.
    pub mad_ns: f64,
    /// Calibrated inner iterations per sample.
    pub inner_iters: u64,
    /// Raw per-iteration sample times, nanoseconds.
    pub samples_ns: Vec<f64>,
}

/// A benchmark suite: measure with [`Bench::bench`], then [`Bench::finish`]
/// to print the table and write `BENCH_<suite>.json`.
///
/// # Example
///
/// ```no_run
/// use vksim_testkit::{black_box, Bench};
/// let mut b = Bench::new("example");
/// b.bench("sum_1k", || black_box((0..1000u64).sum::<u64>()));
/// b.finish();
/// ```
pub struct Bench {
    suite: String,
    warmup: u64,
    samples: u64,
    results: Vec<BenchResult>,
}

impl Bench {
    /// Creates a suite, reading the `VKSIM_BENCH_*` environment knobs.
    pub fn new(suite: &str) -> Self {
        let quick = std::env::var("VKSIM_BENCH_QUICK").is_ok_and(|v| v != "0");
        let warmup = env_u64("VKSIM_BENCH_WARMUP").unwrap_or(if quick { 1 } else { 3 });
        let samples = env_u64("VKSIM_BENCH_SAMPLES").unwrap_or(if quick { 3 } else { 10 });
        eprintln!("bench suite '{suite}' (warmup {warmup}, samples {samples})");
        Bench {
            suite: suite.to_string(),
            warmup,
            samples: samples.max(1),
            results: Vec::new(),
        }
    }

    /// Measures `f`, recording a robust per-iteration time. The closure's
    /// return value is passed through [`black_box`](crate::black_box) so
    /// the computation cannot be optimized away.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        for _ in 0..self.warmup {
            crate::black_box(f());
        }
        // Calibrate: target >= ~1 ms per sample so Instant resolution noise
        // stays below a tenth of a percent.
        let t0 = Instant::now();
        crate::black_box(f());
        let est_ns = t0.elapsed().as_nanos().max(1) as u64;
        let inner_iters = (1_000_000 / est_ns).clamp(1, 100_000);

        let mut samples_ns = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..inner_iters {
                crate::black_box(f());
            }
            samples_ns.push(t0.elapsed().as_nanos() as f64 / inner_iters as f64);
        }
        let median_ns = median(&samples_ns);
        let deviations: Vec<f64> = samples_ns.iter().map(|s| (s - median_ns).abs()).collect();
        let mad_ns = median(&deviations);
        println!(
            "{:<40} {:>14}  ± {:>12}  ({} samples × {} iters)",
            format!("{}/{}", self.suite, name),
            fmt_ns(median_ns),
            fmt_ns(mad_ns),
            samples_ns.len(),
            inner_iters,
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            median_ns,
            mad_ns,
            inner_iters,
            samples_ns,
        });
    }

    /// Prints the summary and writes `BENCH_<suite>.json` into
    /// `VKSIM_BENCH_DIR` (default: the current directory).
    pub fn finish(self) {
        let dir = std::env::var("VKSIM_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.suite));
        let json = self.to_json();
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
            Ok(()) => eprintln!("bench suite '{}' -> {}", self.suite, path.display()),
            Err(e) => eprintln!(
                "bench suite '{}': failed to write {}: {e}",
                self.suite,
                path.display()
            ),
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"suite\": \"{}\",\n  \"results\": [\n",
            escape(&self.suite)
        ));
        for (i, r) in self.results.iter().enumerate() {
            let samples: Vec<String> = r.samples_ns.iter().map(|s| format!("{s:.1}")).collect();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"mad_ns\": {:.1}, \
                 \"inner_iters\": {}, \"samples_ns\": [{}]}}{}\n",
                escape(&r.name),
                r.median_ns,
                r.mad_ns,
                r.inner_iters,
                samples.join(", "),
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn bench_records_results() {
        std::env::set_var("VKSIM_BENCH_QUICK", "1");
        let mut b = Bench::new("selftest");
        b.bench("noop", || 1 + 1);
        assert_eq!(b.results.len(), 1);
        let r = &b.results[0];
        assert!(r.median_ns >= 0.0);
        assert!(!r.samples_ns.is_empty());
        assert!(r.inner_iters >= 1);
        let json = b.to_json();
        assert!(json.contains("\"suite\": \"selftest\""));
        assert!(json.contains("\"name\": \"noop\""));
    }

    #[test]
    fn json_well_formed_for_multiple_results() {
        std::env::set_var("VKSIM_BENCH_QUICK", "1");
        let mut b = Bench::new("multi");
        b.bench("a", || 0u64);
        b.bench("b", || 0u64);
        let json = b.to_json();
        // Comma between entries, none after the last.
        assert_eq!(json.matches("{\"name\":").count(), 2);
        assert!(json.contains("},\n"));
        assert!(!json.contains("}],"));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert!(fmt_ns(1500.0).ends_with("µs"));
        assert!(fmt_ns(2.5e6).ends_with("ms"));
        assert!(fmt_ns(3.0e9).ends_with(" s"));
    }
}
