//! PR 7 series+status overhead gate: what `--series --status` adds to a
//! chip run, measured so the verdict survives noisy shared runners.
//!
//! Comparing two full ~200 ms runs (one bare, one instrumented) cannot
//! resolve a 2% bound on cgroup-throttled hosts: machine throughput
//! drifts by ±5-10% on second timescales, so the ratio of two
//! sequentially timed like-sized legs swings past the bound in either
//! direction regardless of the true overhead. Instead the group times
//! the *denominator* and the *added work* separately:
//!
//! - `unit` — one bare scaled chip run (`campaign::run_specs` over one
//!   unit spec, one worker, a registry-only observer): what a `(block_bits, scheme)`
//!   unit costs with telemetry on and sidecars off.
//! - `per_unit_overhead` — exactly the recurring instrumentation a
//!   `--series --status` run adds to that unit: `begin_phase` (forced
//!   status rewrite), one rate-limited `phase_progress` call per page,
//!   `set_busy`, `complete_unit` (forced rewrite) and one series
//!   `advance` snapshot at the unit barrier. Sub-millisecond work, so
//!   the harness packs many auto-calibrated iterations into every
//!   sample and the median is stable.
//!
//! The gate requires `per_unit_overhead` at most 2% of `unit` (sample
//! minima — the stable estimate of uncontended runtime under additive
//! throttling noise) — an overhead *fraction* instead of a race between
//! two noisy wall clocks; the expected margin is ~100×, which scheduler
//! noise cannot flip. The per-run fixed costs the micro leg leaves out (status-file
//! creation, the series trailer) are covered by the end-to-end record:
//! `scripts/bench_pr7.sh` times a bare and an instrumented
//! `experiments fig5 --full` back to back and splices both into
//! `fig5_full_wall_clock`, whose `post < pre` check bounds the
//! instrumented run to within 2% of the bare one from the same session
//! (`SIM_FIG5_BARE_SECONDS` / `SIM_FIG5_FULL_SECONDS`; without the bare
//! measurement the pre field falls back to the PR 5 recording). The
//! status-driven switch to the timed pool path is already bounded by
//! the PR 5 tracing gate, whose `enabled` leg runs the same
//! `run_indexed_stats` variant.
//!
//! Output goes to `results/bench/BENCH_pr7.json`, checked by the
//! `bench-gate` binary alongside the PR 3/4/5 documents.

use aegis_core::{AegisPolicy, Rectangle};
use aegis_experiments::campaign::{self, UnitSpec};
use aegis_experiments::runner::{RunObserver, RunOptions};
use aegis_experiments::schemes::Policy;
use sim_rng::bench::{Bench, Record};
use sim_rng::bench_group;
use sim_telemetry::{Registry, SeriesWriter, SharedBuf, StatusWriter};
use std::hint::black_box;

/// `experiments fig5 --full` wall clock recorded (bare, untraced) when
/// the PR 5 observability record landed — the fallback pre-change bar
/// when the bench runs without a same-session bare measurement.
const FIG5_FULL_PR5_SECONDS: f64 = 94.138;

/// Tolerated end-to-end slowdown of an instrumented (`--series
/// --status`) fig5 `--full` run versus the bare wall clock. The gate's
/// wall-clock check requires `post < pre`, so the pre-change field is
/// written as the bare measurement times this factor.
const WALL_CLOCK_TOLERANCE: f64 = 1.02;

fn policy() -> Policy {
    Box::new(AegisPolicy::new(
        Rectangle::new(9, 61, 512).expect("paper formation"),
    ))
}

/// A scaled chip run sized so steady-state page work dominates: 64
/// pages keeps one unit ~200 ms — big enough that the per-unit overhead
/// fraction measured against it is conservative (production units are
/// 2048 pages, so the same added work is amortized 32× further). Pinned
/// to ONE worker: the instrumentation under test runs on the caller
/// thread and a single busy thread keeps the median scheduler-quiet on
/// small shared runners.
fn options() -> RunOptions {
    RunOptions {
        pages: 64,
        seed: 0x7A5E,
        threads: Some(1),
        ..RunOptions::default()
    }
}

/// The one 512-bit campaign unit of [`policy`] over the chip of `opts`.
fn unit(opts: &RunOptions) -> UnitSpec {
    let policy = policy();
    UnitSpec {
        label: policy.name(),
        cfg: opts.sim_config(512),
        policy,
    }
}

fn bench_series_overhead(c: &mut Bench) {
    let mut group = c.benchmark_group("series_overhead_512_9x61");
    group.sample_size(20);
    let opts = options();
    let pages = opts.pages as u64;
    let unit = [unit(&opts)];

    // Denominator: the bare unit, registry-only observer — the plain
    // `--telemetry` path exactly as every pre-PR 7 run paid it.
    let registry = Registry::new();
    group.bench_function("unit", |b| {
        b.iter(|| {
            let observer = RunObserver::with_registry(&registry);
            black_box(campaign::run_specs(&unit, opts.pages, &observer));
        });
    });
    // The registry now carries the mc.* counters a real run accumulates,
    // so the series snapshots below sample realistic state.

    // Numerator: the recurring per-unit instrumentation. Writer setup
    // and teardown stay outside the loop — they are per-*run* costs,
    // amortized over every unit of a campaign and billed end to end by
    // the wall-clock record instead.
    let status_dir =
        std::env::temp_dir().join(format!("aegis-bench-series-{}", std::process::id()));
    let status = StatusWriter::create("bench", &status_dir).expect("status writer in temp dir");
    status.set_total_pages(pages);
    let series =
        SeriesWriter::with_buffer("bench", SharedBuf::default(), 0).expect("in-memory series");
    group.bench_function("per_unit_overhead", |b| {
        b.iter(|| {
            status.begin_phase("mc.Aegis_9x61", 1);
            for page in 1..=pages {
                status.phase_progress(page);
            }
            status.set_busy(0.97);
            let sampled = series.advance(&registry, pages).expect("series advance");
            status.complete_unit(pages);
            black_box(sampled);
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&status_dir);
}

bench_group!(benches, bench_series_overhead);

/// Median of one leg of the overhead group.
fn leg_median(records: &[Record], name: &str) -> f64 {
    records
        .iter()
        .find(|r| r.group == "series_overhead_512_9x61" && r.name == name)
        .map(|r| r.median_ns)
        .expect("overhead leg present in bench records")
}

/// Splices the overhead summary and the end-to-end fig5 `--full`
/// wall-clock record into the bench JSON. The pre-change wall clock is
/// the same-session bare measurement (`SIM_FIG5_BARE_SECONDS`, falling
/// back to the PR 5 recording) plus the tolerated 2%; the post-change
/// field is filled when `SIM_FIG5_FULL_SECONDS` carries the
/// instrumented measurement.
fn with_pr7_records(json: &str, records: &[Record]) -> String {
    let unit = leg_median(records, "unit");
    let overhead = leg_median(records, "per_unit_overhead");
    assert!(unit > 0.0, "unit leg measured a zero median");

    let env_seconds = |name: &str| std::env::var(name).ok().and_then(|s| s.parse::<f64>().ok());
    let bare = env_seconds("SIM_FIG5_BARE_SECONDS").unwrap_or(FIG5_FULL_PR5_SECONDS);
    let post = env_seconds("SIM_FIG5_FULL_SECONDS");
    let body = json
        .trim_end()
        .strip_suffix('}')
        .expect("bench JSON document ends with an object")
        .trim_end()
        .to_string();
    let post_field = match post {
        Some(s) => format!("\"post_change_s\": {s:.3}"),
        None => "\"post_change_s\": null".to_string(),
    };
    let pre = bare * WALL_CLOCK_TOLERANCE;
    format!(
        "{body},\n  \
         \"series_overhead\": {{\"per_unit_overhead_fraction\": {:.6}}},\n  \
         \"fig5_full_wall_clock\": {{\"pre_change_s\": {pre:.3}, {post_field}}}\n}}\n",
        overhead / unit,
    )
}

fn main() {
    let mut bench = Bench::new();
    benches(&mut bench);
    let json = with_pr7_records(&bench.to_json("BENCH_pr7"), bench.records());
    let dir = match std::env::var_os("SIM_BENCH_OUT") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            // Mirror `Bench::write_json`: results/bench/ at the workspace
            // root (nearest ancestor with a Cargo.lock).
            let mut dir = std::env::current_dir().expect("cwd");
            while !dir.join("Cargo.lock").exists() {
                assert!(dir.pop(), "no workspace root found above the bench");
            }
            dir.join("results").join("bench")
        }
    };
    std::fs::create_dir_all(&dir).expect("create bench output dir");
    let path = dir.join("BENCH_pr7.json");
    std::fs::write(&path, json).expect("write BENCH_pr7.json");
    println!("bench results written to {}", path.display());
}
