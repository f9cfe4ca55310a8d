//! A lightweight wall-clock bench harness: the in-tree replacement for
//! `criterion`.
//!
//! Each benchmark function is warmed up, then its per-iteration cost is
//! calibrated so one *sample* lasts a few milliseconds; a configurable
//! number of samples is collected and summarized as min/mean/median/p95
//! per-iteration nanoseconds. Results print as a table and are written as
//! JSON to `results/bench/<target>.json` at the workspace root, so two
//! runs can be diffed.
//!
//! Environment knobs:
//!
//! * `SIM_BENCH_FAST=1` — 3 samples, short warmup (for smoke runs/CI).
//! * `SIM_BENCH_OUT=<dir>` — override the JSON output directory.
//! * `SIM_RUN_ID=<id>` — run id stamped into the record manifest
//!   (default `bench-<target>`), tying bench JSON to the telemetry runs
//!   in `results/telemetry/`.
//!
//! Every JSON document carries a `manifest` object (run id, git
//! describe, creation time, fast flag) so a bench record is attributable
//! to the exact tree and run that produced it.
//!
//! The API mirrors the slice of `criterion` the bench targets used:
//!
//! ```no_run
//! use sim_rng::bench::Bench;
//! use sim_rng::{bench_group, bench_main};
//!
//! fn bench_sum(c: &mut Bench) {
//!     let mut group = c.benchmark_group("sums");
//!     group.sample_size(10);
//!     group.bench_function("naive", |b| {
//!         b.iter(|| (0..1000u64).sum::<u64>());
//!     });
//!     group.finish();
//! }
//!
//! bench_group!(benches, bench_sum);
//! bench_main!(benches);
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Default number of timed samples per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 20;
/// Target wall-clock duration of one timed sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);
/// Warmup budget per benchmark.
const WARMUP: Duration = Duration::from_millis(100);

/// One benchmark's summary statistics (per-iteration nanoseconds).
#[derive(Debug, Clone)]
struct Record {
    /// Group name, empty for top-level `bench_function` calls.
    group: String,
    /// Benchmark name within the group.
    name: String,
    /// Fastest sample.
    min_ns: f64,
    /// Arithmetic mean over samples.
    mean_ns: f64,
    /// Median sample — the headline number.
    median_ns: f64,
    /// 95th-percentile sample.
    p95_ns: f64,
    /// Number of timed samples.
    samples: usize,
    /// Iterations per sample (from calibration).
    iters_per_sample: u64,
}

/// The top-level harness handle passed to every benchmark function.
#[derive(Debug)]
pub struct Bench {
    records: Vec<Record>,
    sample_size: usize,
    fast: bool,
}

impl Default for Bench {
    fn default() -> Self {
        Self::new()
    }
}

impl Bench {
    /// Creates a harness, honoring `SIM_BENCH_FAST`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            records: Vec::new(),
            sample_size: DEFAULT_SAMPLE_SIZE,
            fast: std::env::var_os("SIM_BENCH_FAST").is_some(),
        }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            bench: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Runs one top-level benchmark.
    pub fn bench_function(&mut self, name: impl Into<String>, routine: impl FnMut(&mut Bencher)) {
        let sample_size = self.sample_size;
        self.run_one(String::new(), name.into(), sample_size, routine);
    }

    fn run_one(
        &mut self,
        group: String,
        name: String,
        sample_size: usize,
        mut routine: impl FnMut(&mut Bencher),
    ) {
        let samples = if self.fast {
            3.min(sample_size)
        } else {
            sample_size
        };
        let warmup = if self.fast { WARMUP / 10 } else { WARMUP };

        // Warmup + calibration: run single iterations until the budget is
        // spent, tracking the observed per-iteration cost.
        let mut bencher = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        let warmup_start = Instant::now();
        let mut warm_iters = 0u64;
        let mut warm_elapsed = Duration::ZERO;
        loop {
            bencher.elapsed = Duration::ZERO;
            routine(&mut bencher);
            warm_iters += bencher.iters;
            warm_elapsed += bencher.elapsed;
            if warmup_start.elapsed() >= warmup {
                break;
            }
        }
        let per_iter = if warm_iters == 0 {
            Duration::ZERO
        } else {
            warm_elapsed / warm_iters.max(1) as u32
        };
        let iters_per_sample = if per_iter.is_zero() {
            1_000
        } else {
            (TARGET_SAMPLE.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
        };

        let mut per_iter_ns: Vec<f64> = (0..samples)
            .map(|_| {
                bencher.iters = iters_per_sample;
                bencher.elapsed = Duration::ZERO;
                routine(&mut bencher);
                bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64
            })
            .collect();
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));

        let record = Record {
            group,
            name,
            min_ns: per_iter_ns[0],
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
            median_ns: percentile(&per_iter_ns, 50.0),
            p95_ns: percentile(&per_iter_ns, 95.0),
            samples,
            iters_per_sample,
        };
        let label = if record.group.is_empty() {
            record.name.clone()
        } else {
            format!("{}/{}", record.group, record.name)
        };
        println!(
            "bench {label:<50} median {:>12} p95 {:>12} ({} samples x {} iters)",
            format_ns(record.median_ns),
            format_ns(record.p95_ns),
            record.samples,
            record.iters_per_sample,
        );
        self.records.push(record);
    }

    /// Writes the collected records as JSON and returns the path written.
    ///
    /// The output directory is `SIM_BENCH_OUT` if set, otherwise
    /// `results/bench/` under the nearest ancestor directory containing a
    /// `Cargo.lock` (the workspace root), otherwise the current directory.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing.
    pub fn write_json(&self, target: &str) -> std::io::Result<PathBuf> {
        let dir = match std::env::var_os("SIM_BENCH_OUT") {
            Some(dir) => PathBuf::from(dir),
            None => workspace_root().join("results").join("bench"),
        };
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{target}.json"));
        std::fs::write(&path, self.to_json(target))?;
        println!("bench results written to {}", path.display());
        Ok(path)
    }

    /// Renders the records as a JSON document (stable key order).
    ///
    /// The leading `manifest` object stamps the document with the run id
    /// (`SIM_RUN_ID`, default `bench-<target>`), the git description of
    /// the tree, the creation time and the fast-mode flag, so a bench
    /// record is attributable to the exact run that produced it.
    fn to_json(&self, target: &str) -> String {
        let run_id = std::env::var("SIM_RUN_ID").unwrap_or_else(|_| format!("bench-{target}"));
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"target\": {},", json_string(target));
        let _ = writeln!(
            out,
            "  \"manifest\": {{\"run_id\": {}, \"git\": {}, \"created_unix_ms\": {}, \
             \"fast\": {}}},",
            json_string(&run_id),
            json_string(&sim_telemetry::git_describe()),
            sim_telemetry::unix_millis(),
            self.fast,
        );
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"group\": {}, \"name\": {}, \"min_ns\": {:.1}, \"mean_ns\": {:.1}, \
                 \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}",
                json_string(&r.group),
                json_string(&r.name),
                r.min_ns,
                r.mean_ns,
                r.median_ns,
                r.p95_ns,
                r.samples,
                r.iters_per_sample,
            );
            out.push_str(if i + 1 < self.records.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A named group of benchmarks with an optional per-group sample size.
#[derive(Debug)]
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    sample_size: Option<usize>,
}

impl Group<'_> {
    /// Sets the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = Some(samples.max(2));
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function(&mut self, name: impl Into<String>, routine: impl FnMut(&mut Bencher)) {
        let samples = self.sample_size.unwrap_or(self.bench.sample_size);
        self.bench
            .run_one(self.name.clone(), name.into(), samples, routine);
    }

    /// Ends the group (consumes it; records live on the harness).
    pub fn finish(self) {}
}

/// Passed to each benchmark routine; call [`iter`](Self::iter) with the
/// code to measure.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over this sample's iteration count. The return
    /// value is passed through [`std::hint::black_box`] so the computation
    /// cannot be optimized away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed += start.elapsed();
    }
}

/// Nearest ancestor (including cwd) containing `Cargo.lock`, else cwd.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir: &Path = &cwd;
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return cwd,
        }
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Escapes a string for direct inclusion in JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Bundles benchmark functions into one group runner, mirroring
/// `criterion_group!`.
#[macro_export]
macro_rules! bench_group {
    ($name:ident, $($function:path),+ $(,)?) => {
        fn $name(bench: &mut $crate::bench::Bench) {
            $( $function(bench); )+
        }
    };
}

/// Generates `main` for a bench target, mirroring `criterion_main!`: runs
/// every group, prints the table, and writes
/// `results/bench/<target>.json`.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut bench = $crate::bench::Bench::new();
            $( $group(&mut bench); )+
            bench
                .write_json(env!("CARGO_CRATE_NAME"))
                .expect("write bench results JSON");
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_elapsed_per_sample() {
        let mut bench = Bench::new();
        bench.fast = true;
        bench.bench_function("spin", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
        });
        let r = &bench.records[0];
        assert_eq!(r.name, "spin");
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns);
    }

    #[test]
    fn group_sample_size_is_respected() {
        let mut bench = Bench::new();
        bench.fast = false;
        let mut group = bench.benchmark_group("g");
        group.sample_size(4);
        group.bench_function("noop", |b| b.iter(|| 1u64));
        group.finish();
        assert_eq!(bench.records[0].samples, 4);
        assert_eq!(bench.records[0].group, "g");
    }

    #[test]
    fn json_output_is_well_formed_enough() {
        let mut bench = Bench::new();
        bench.fast = true;
        bench.bench_function("a\"quote", |b| b.iter(|| 0u8));
        let json = bench.to_json("unit_test");
        assert!(json.contains("\"target\": \"unit_test\""));
        assert!(json.contains("a\\\"quote"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_output_carries_the_run_manifest() {
        let mut bench = Bench::new();
        bench.fast = true;
        bench.bench_function("noop", |b| b.iter(|| 0u8));
        let json = bench.to_json("unit_test");
        let doc = sim_telemetry::Json::parse(&json).expect("bench JSON parses");
        let manifest = doc.get("manifest").expect("manifest object present");
        let run_id = manifest.str_field("run_id").expect("run_id");
        // Either the SIM_RUN_ID override or the target-derived default.
        assert!(!run_id.is_empty());
        assert!(!manifest.str_field("git").expect("git").is_empty());
        assert!(manifest.u64_field("created_unix_ms").expect("created") > 0);
        assert_eq!(
            manifest.get("fast").and_then(sim_telemetry::Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
    }
}
