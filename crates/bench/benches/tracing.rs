//! PR 5 tracing-overhead gate: the hierarchical span collector versus the
//! untraced engine it wraps.
//!
//! One benchmark group, `tracing_overhead_512_9x61`, times three legs of
//! the same scaled chip run (`run_memory_pass`, two pool workers) in the
//! same process:
//!
//! - `off` — no tracer handed to the hooks; the engine takes the plain
//!   `run_indexed` path exactly as every pre-PR 5 caller did.
//! - `disabled` — a [`Tracer::disabled`] handle in the hooks: the engine
//!   checks `is_enabled()` once and falls back to the `off` path. This is
//!   what every default (`--trace`-less) run now pays; the gate holds it
//!   to within 2% of `off` (median).
//! - `enabled` — a live default-capacity tracer: an `mc.<scheme>` phase
//!   span, a per-worker ring recording one `page` span per page, pool
//!   utilization capture, and the final `finish` drain. The gate holds it
//!   to within 10% of `off` (median).
//!
//! Output goes to `results/bench/BENCH_pr5.json` (checked by the
//! `bench-gate` binary alongside the PR 3/PR 4 documents) together with
//! the measured overhead ratios and a per-worker utilization summary from
//! one traced run. If `SIM_FIG5_FULL_SECONDS` is set — as
//! `scripts/bench_pr5.sh` does after timing an untraced
//! `experiments fig5 --full` — the measured wall clock is spliced in
//! against the PR 4 record this PR must stay within 2% of.

use aegis_core::{AegisPolicy, Rectangle};
use pcm_sim::montecarlo::{run_memory_pass, MemoryRun, PassHooks, SimConfig};
use sim_rng::bench::{Bench, Record};
use sim_rng::bench_group;
use sim_telemetry::{escape, Tracer};
use std::hint::black_box;

/// `experiments fig5 --full` wall clock recorded when the PR 4 incremental
/// engine landed (same machine as the recorded baselines; release build,
/// bash `time`, seconds). PR 5 adds observability, not speed, so the bar
/// is "no regression", not "beat it".
const FIG5_FULL_PR4_SECONDS: f64 = 96.140;

/// Tolerated end-to-end slowdown versus the PR 4 wall clock. The gate's
/// wall-clock check requires `post < pre`, so the pre-change field is
/// written as the PR 4 measurement times this factor: staying under it
/// means the untraced pipeline regressed by less than 2%.
const WALL_CLOCK_TOLERANCE: f64 = 1.02;

fn policy() -> AegisPolicy {
    AegisPolicy::new(Rectangle::new(9, 61, 512).expect("paper formation"))
}

/// A scaled chip run large enough that per-page work dominates the pool's
/// fixed startup cost, pinned to two workers so the schedule (and the
/// span volume per worker) is stable across machines.
fn config() -> SimConfig {
    SimConfig {
        threads: Some(2),
        ..SimConfig::scaled(16, 512, 0x7A5E)
    }
}

/// The chip run of `config` for `policy` under `hooks`.
fn run(policy: &AegisPolicy, hooks: &PassHooks<'_>) -> MemoryRun {
    let cfg = config();
    run_memory_pass(&[policy], &cfg, 0, cfg.pages, hooks).remove(0)
}

fn bench_tracing_overhead(c: &mut Bench) {
    let mut group = c.benchmark_group("tracing_overhead_512_9x61");
    group.sample_size(20);
    let policy = policy();

    group.bench_function("off", |b| {
        b.iter(|| black_box(run(&policy, &PassHooks::default())));
    });

    let disabled = Tracer::disabled();
    group.bench_function("disabled", |b| {
        b.iter(|| {
            let hooks = PassHooks {
                tracer: Some(&disabled),
                ..PassHooks::default()
            };
            black_box(run(&policy, &hooks))
        });
    });

    group.bench_function("enabled", |b| {
        b.iter(|| {
            // A fresh tracer per iteration so every run pays the full
            // cost an instrumented `--trace` invocation pays: ring
            // allocation, span recording, and the closing drain.
            let tracer = Tracer::with_default_capacity();
            let hooks = PassHooks {
                tracer: Some(&tracer),
                ..PassHooks::default()
            };
            let traced = run(&policy, &hooks);
            black_box(tracer.finish("bench"));
            black_box(traced)
        });
    });
    group.finish();
}

bench_group!(benches, bench_tracing_overhead);

/// Median of one leg of the overhead group.
fn leg_median(records: &[Record], name: &str) -> f64 {
    records
        .iter()
        .find(|r| r.group == "tracing_overhead_512_9x61" && r.name == name)
        .map(|r| r.median_ns)
        .expect("overhead leg present in bench records")
}

/// One traced run's per-worker pool utilization, as a JSON array. This is
/// the record `telemetry-analyze` renders as a table, summarized here so
/// the bench document carries worker-level occupancy next to the
/// overhead ratios.
fn worker_utilization_json() -> String {
    let tracer = Tracer::with_default_capacity();
    let hooks = PassHooks {
        tracer: Some(&tracer),
        ..PassHooks::default()
    };
    let _ = run(&policy(), &hooks);
    let log = tracer
        .finish("bench-BENCH_pr5")
        .expect("enabled tracer yields a log");
    let mut rows = Vec::new();
    for phase in &log.pool {
        for w in &phase.workers {
            rows.push(format!(
                "{{\"phase\": {}, \"worker\": {}, \"tasks\": {}, \"batches\": {}, \
                 \"busy_ns\": {}, \"idle_ns\": {}, \"occupancy\": {:.6}}}",
                escape(&phase.phase),
                w.worker,
                w.tasks,
                w.batches,
                w.busy_ns,
                w.idle_ns,
                w.occupancy()
            ));
        }
    }
    format!("[{}]", rows.join(", "))
}

/// Splices the overhead summary, the worker-utilization record and the
/// end-to-end fig5 `--full` wall-clock record into the bench JSON. The
/// pre-change wall clock is the PR 4 measurement plus the tolerated 2%,
/// so the gate's `post < pre` check enforces "within 2% of PR 4"; the
/// post-change field is filled when `SIM_FIG5_FULL_SECONDS` carries one.
fn with_pr5_records(json: &str, records: &[Record]) -> String {
    let off = leg_median(records, "off");
    let disabled = leg_median(records, "disabled");
    let enabled = leg_median(records, "enabled");
    assert!(off > 0.0, "off leg measured a zero median");

    let post = std::env::var("SIM_FIG5_FULL_SECONDS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok());
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
    let pre = FIG5_FULL_PR4_SECONDS * WALL_CLOCK_TOLERANCE;
    format!(
        "{body},\n  \
         \"tracing_overhead\": {{\"disabled_over_off\": {:.4}, \"enabled_over_off\": {:.4}}},\n  \
         \"worker_utilization\": {},\n  \
         \"fig5_full_wall_clock\": {{\"pre_change_s\": {pre:.3}, {post_field}}}\n}}\n",
        disabled / off,
        enabled / off,
        worker_utilization_json()
    )
}

fn main() {
    let mut bench = Bench::new();
    benches(&mut bench);
    let json = with_pr5_records(&bench.to_json("BENCH_pr5"), bench.records());
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
    let path = dir.join("BENCH_pr5.json");
    std::fs::write(&path, json).expect("write BENCH_pr5.json");
    println!("bench results written to {}", path.display());
}
