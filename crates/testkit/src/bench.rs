//! A tiny wall-clock micro-bench harness for `harness = false` bench
//! binaries.
//!
//! Each benchmark auto-calibrates an inner batch size until one batch
//! takes ≥ 1 ms (so per-call timings are dominated by the workload, not
//! by `Instant` overhead), runs warmup batches, then records N timed
//! batches and reports min/median/p95/mean per call. Results print as
//! one human-readable line per benchmark, plus a machine-readable JSON
//! document on `finish()` when `--json` is passed.
//!
//! Recognized CLI arguments (unknown flags — e.g. cargo's `--bench` —
//! are ignored, so plain `cargo bench` works):
//!
//! * `<filter>` — run only benchmarks whose id contains the substring
//! * `--json` — print a JSON summary after all benchmarks
//! * `--samples N` — timed batches per benchmark (default 30)
//! * `--warmup N` — warmup batches per benchmark (default 3)
//! * `--list` — print benchmark ids without running them

#![expect(
    clippy::disallowed_types,
    reason = "the micro-bench harness is about measuring wall time; DESIGN.md §7"
)]

use std::time::Instant;

/// Summary statistics for one benchmark, in nanoseconds per call.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Benchmark id within the suite.
    pub id: String,
    /// Calls per timed batch (auto-calibrated).
    pub batch: u64,
    /// Number of timed batches.
    pub samples: usize,
    /// Fastest batch, per call.
    pub min_ns: f64,
    /// Median batch, per call.
    pub median_ns: f64,
    /// 95th-percentile batch, per call.
    pub p95_ns: f64,
    /// Mean over all batches, per call.
    pub mean_ns: f64,
}

/// A benchmark suite: construct with [`Bench::from_args`], register
/// closures with [`Bench::bench`], and call [`Bench::finish`].
pub struct Bench {
    suite: String,
    filter: Option<String>,
    json: bool,
    list: bool,
    samples: usize,
    warmup: usize,
    results: Vec<Summary>,
}

impl Bench {
    /// Creates a suite named `suite`, reading options from `std::env::args`.
    #[must_use]
    pub fn from_args(suite: &str) -> Self {
        let mut filter = None;
        let mut json = false;
        let mut list = false;
        let mut samples = 30usize;
        let mut warmup = 3usize;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => json = true,
                "--list" => list = true,
                "--samples" | "--iters" => {
                    if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                        samples = n;
                    }
                }
                "--warmup" => {
                    if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                        warmup = n;
                    }
                }
                other if other.starts_with('-') => {} // cargo's --bench etc.
                other => filter = Some(other.to_string()),
            }
        }
        Bench {
            suite: suite.to_string(),
            filter,
            json,
            list,
            samples: samples.max(1),
            warmup,
            results: Vec::new(),
        }
    }

    /// Runs (or lists/skips) the benchmark `id`, timing `f`.
    pub fn bench<R, F: FnMut() -> R>(&mut self, id: &str, mut f: F) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) && !self.suite.contains(filter.as_str()) {
                return;
            }
        }
        if self.list {
            println!("{}/{}", self.suite, id);
            return;
        }

        // Calibrate: double the batch until it runs for >= 1 ms.
        let mut batch: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed.as_micros() >= 1000 || batch >= 1 << 22 {
                break;
            }
            batch *= 2;
        }
        for _ in 0..self.warmup {
            for _ in 0..batch {
                std::hint::black_box(f());
            }
        }
        let mut per_call: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        per_call.sort_by(|a, b| a.total_cmp(b));
        let pick = |q: f64| per_call[((per_call.len() - 1) as f64 * q).round() as usize];
        let summary = Summary {
            id: id.to_string(),
            batch,
            samples: per_call.len(),
            min_ns: per_call[0],
            median_ns: pick(0.5),
            p95_ns: pick(0.95),
            mean_ns: per_call.iter().sum::<f64>() / per_call.len() as f64,
        };
        println!(
            "{}/{:<28} median {:>12}  p95 {:>12}  min {:>12}  ({} calls × {} samples)",
            self.suite,
            summary.id,
            fmt_ns(summary.median_ns),
            fmt_ns(summary.p95_ns),
            fmt_ns(summary.min_ns),
            summary.batch,
            summary.samples,
        );
        self.results.push(summary);
    }

    /// The summaries collected so far.
    #[must_use]
    pub fn results(&self) -> &[Summary] {
        &self.results
    }

    /// Emits the JSON report if `--json` was passed.
    pub fn finish(self) {
        if !self.json || self.list {
            return;
        }
        let mut out = String::new();
        out.push_str(&format!("{{\"suite\":\"{}\",\"benches\":[", self.suite));
        for (i, s) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"batch\":{},\"samples\":{},\"min_ns\":{:.1},\
                 \"median_ns\":{:.1},\"p95_ns\":{:.1},\"mean_ns\":{:.1}}}",
                s.id.replace('"', "'"),
                s.batch,
                s.samples,
                s.min_ns,
                s.median_ns,
                s.p95_ns,
                s.mean_ns
            ));
        }
        out.push_str("]}");
        println!("{out}");
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
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_bench() -> Bench {
        Bench {
            suite: "t".into(),
            filter: None,
            json: false,
            list: false,
            samples: 5,
            warmup: 1,
            results: Vec::new(),
        }
    }

    #[test]
    fn records_sane_statistics() {
        let mut b = quiet_bench();
        b.bench("noop", || 1 + 1);
        let s = &b.results()[0];
        assert_eq!(s.samples, 5);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.p95_ns);
        assert!(s.batch >= 1);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut b = quiet_bench();
        b.filter = Some("yes".into());
        b.bench("yes-me", || 0);
        b.bench("not-this-one", || 0);
        assert_eq!(b.results().len(), 1);
        assert_eq!(b.results()[0].id, "yes-me");
    }

    #[test]
    fn fmt_ns_scales() {
        assert!(fmt_ns(5.0).ends_with("ns"));
        assert!(fmt_ns(5_000.0).ends_with("µs"));
        assert!(fmt_ns(5_000_000.0).ends_with("ms"));
        assert!(fmt_ns(5e9).ends_with(" s"));
    }
}
