//! PR 4 engine gate: the incremental fault-pair predicates and the
//! work-stealing simulation pool, versus the PR 3 recompute-per-event
//! engine they replace.
//!
//! Benchmark groups, each timing two legs in the same process on the same
//! inputs:
//!
//! - `predicate_incremental_512_9x61` — one recoverability verdict on a
//!   warm 8-fault [`PolicyScratch`] (pair cache populated by
//!   `observe_fault`) vs the stateless `recoverable` recompute the PR 3
//!   engine issued per event.
//! - `safer_predicate_incremental_512` — the same comparison for
//!   SAFER32-ideal, whose recompute walks all 126 partition vectors while
//!   the warm path ORs cached pair masks.
//! - `page_eval_512_9x61` — a full Monte Carlo page evaluation (64
//!   blocks) through `evaluate_block_with_scratch` on each block (incremental engine) vs
//!   a hand-rolled replica of the PR 3 event loop (no observation, full
//!   recompute per split) over the identical pre-sampled timeline.
//! - `scaling_512_9x61` — a scaled chip run through the sim-pool with one
//!   worker vs the machine's available parallelism; same seed, identical
//!   results, wall-clock scaling only.
//!
//! Output goes to `results/bench/BENCH_pr4.json` (checked by the
//! `bench-gate` binary alongside the PR 3 document). If
//! `SIM_FIG5_FULL_SECONDS` is set — as `scripts/bench_pr4.sh` does after
//! timing `experiments fig5 --full` — the measured wall clock is spliced
//! in next to the PR 3 post-change measurement this PR must beat.

use aegis_baselines::{PartitionSearch, SaferPolicy};
use aegis_bench::faulty_block;
use aegis_core::{AegisPolicy, Rectangle};
use pcm_sim::montecarlo::{
    evaluate_block_with_scratch, run_memory, BlockOutcome, FailureCriterion, SimConfig,
};
use pcm_sim::policy::{PolicyScratch, RecoveryPolicy};
use pcm_sim::timeline::{PageTimeline, TimelineSampler};
use pcm_sim::{sample_split_into, Fault};
use sim_rng::bench::Bench;
use sim_rng::bench_group;
use sim_rng::{Rng, SeedableRng, SmallRng};
use std::hint::black_box;

/// `experiments fig5 --full` wall clock recorded when the PR 3 kernel
/// rewrite landed (same machine as the recorded baselines; release build,
/// bash `time`, seconds). PR 4 must beat it.
const FIG5_FULL_PRE_CHANGE_SECONDS: f64 = 113.838;

fn rect() -> Rectangle {
    Rectangle::new(9, 61, 512).expect("paper formation")
}

/// An 8-fault population plus a pool of W/R splits — the exact inputs a
/// Monte Carlo block evaluation feeds the predicate on every event.
fn predicate_inputs() -> (Vec<Fault>, Vec<Vec<bool>>) {
    let (_, faults) = faulty_block(512, 8, 11);
    let mut rng = SmallRng::seed_from_u64(5);
    let splits: Vec<Vec<bool>> = (0..64)
        .map(|_| (0..faults.len()).map(|_| rng.random_bool(0.5)).collect())
        .collect();
    (faults, splits)
}

/// Warms a scratch the way the engine does: one `observe_fault` per
/// arrival prefix.
fn warm_scratch(policy: &dyn RecoveryPolicy, faults: &[Fault]) -> PolicyScratch {
    let mut scratch = PolicyScratch::new();
    policy.forget_block(&mut scratch);
    for n in 1..=faults.len() {
        policy.observe_fault(&faults[..n], &mut scratch);
    }
    scratch
}

fn bench_predicate_incremental(c: &mut Bench) {
    let mut group = c.benchmark_group("predicate_incremental_512_9x61");
    let (faults, splits) = predicate_inputs();
    let policy = AegisPolicy::new(rect());

    let mut scratch = warm_scratch(&policy, &faults);
    let mut i = 0usize;
    group.bench_function("incremental", |b| {
        b.iter(|| {
            i = (i + 1) % splits.len();
            black_box(policy.recoverable_with(black_box(&faults), &splits[i], &mut scratch))
        });
    });

    let mut i = 0usize;
    group.bench_function("recompute", |b| {
        b.iter(|| {
            i = (i + 1) % splits.len();
            black_box(policy.recoverable(black_box(&faults), &splits[i]))
        });
    });
    group.finish();
}

fn bench_safer_predicate(c: &mut Bench) {
    let mut group = c.benchmark_group("safer_predicate_incremental_512");
    let (faults, splits) = predicate_inputs();
    let policy = SaferPolicy::with_search(5, 512, false, PartitionSearch::Exhaustive);

    let mut scratch = warm_scratch(&policy, &faults);
    let mut i = 0usize;
    group.bench_function("incremental", |b| {
        b.iter(|| {
            i = (i + 1) % splits.len();
            black_box(policy.recoverable_with(black_box(&faults), &splits[i], &mut scratch))
        });
    });

    let mut i = 0usize;
    group.bench_function("recompute", |b| {
        b.iter(|| {
            i = (i + 1) % splits.len();
            black_box(policy.recoverable(black_box(&faults), &splits[i]))
        });
    });
    group.finish();
}

/// The PR 3 engine's block loop: no fault observation, a stateless
/// `recoverable` recompute for every sampled split. Retained here as the
/// timing reference the incremental engine is measured against.
fn evaluate_page_recompute(
    policy: &dyn RecoveryPolicy,
    page: &PageTimeline,
    samples: u32,
) -> Vec<BlockOutcome> {
    page.blocks
        .iter()
        .map(|timeline| {
            let mut faults: Vec<Fault> = Vec::new();
            let mut wrong: Vec<bool> = Vec::new();
            for (i, event) in timeline.events.iter().enumerate() {
                faults.push(event.fault);
                let mut rng = SmallRng::seed_from_u64(event.split_seed);
                let survivable = (0..samples).all(|_| {
                    sample_split_into(&mut rng, faults.len(), &mut wrong);
                    policy.recoverable(&faults, &wrong)
                });
                if !survivable {
                    return BlockOutcome {
                        events_survived: i,
                        death_time: Some(event.time),
                    };
                }
            }
            BlockOutcome {
                events_survived: timeline.events.len(),
                death_time: None,
            }
        })
        .collect()
}

fn bench_page_eval(c: &mut Bench) {
    let mut group = c.benchmark_group("page_eval_512_9x61");
    group.sample_size(10);
    let sampler = TimelineSampler::paper_default(512);
    let page = sampler.sample_page(&mut SmallRng::seed_from_u64(17), 64);
    let policy = AegisPolicy::new(rect());
    let criterion = FailureCriterion::default();
    let FailureCriterion::PerEventSplit { samples } = criterion else {
        unreachable!("default criterion is per-event-split")
    };

    // Pin both legs to the same per-block verdicts before timing anything.
    let recompute = evaluate_page_recompute(&policy, &page, samples);
    let mut check = PolicyScratch::new();
    for (block, b) in page.blocks.iter().zip(&recompute) {
        let a = evaluate_block_with_scratch(&policy, block, criterion, None, &mut check);
        assert_eq!(a.events_survived, b.events_survived);
        assert_eq!(a.death_time, b.death_time);
    }

    let mut scratch = PolicyScratch::new();
    group.bench_function("incremental", |b| {
        b.iter(|| {
            for block in &black_box(&page).blocks {
                black_box(evaluate_block_with_scratch(
                    &policy,
                    block,
                    criterion,
                    None,
                    &mut scratch,
                ));
            }
        });
    });

    group.bench_function("recompute", |b| {
        b.iter(|| black_box(evaluate_page_recompute(&policy, black_box(&page), samples)));
    });
    group.finish();
}

fn bench_scaling(c: &mut Bench) {
    let mut group = c.benchmark_group("scaling_512_9x61");
    group.sample_size(10);
    let policy = AegisPolicy::new(rect());
    let parallel = sim_pool::resolve_threads(None).max(2);
    let config = |threads: usize| SimConfig {
        threads: Some(threads),
        ..SimConfig::scaled(16, 512, 0xBE7C)
    };

    group.bench_function("threads1", |b| {
        b.iter(|| black_box(run_memory(&policy, &config(1))));
    });
    group.bench_function("threadsN", |b| {
        b.iter(|| black_box(run_memory(&policy, &config(parallel))));
    });
    group.finish();
}

bench_group!(
    benches,
    bench_predicate_incremental,
    bench_safer_predicate,
    bench_page_eval,
    bench_scaling
);

/// Splices the end-to-end fig5 `--full` wall-clock record into the bench
/// JSON: the recorded PR 3 measurement always, the post-change measurement
/// when `SIM_FIG5_FULL_SECONDS` carries one.
fn with_fig5_wall_clock(json: &str) -> String {
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
    format!(
        "{body},\n  \"fig5_full_wall_clock\": {{\"pre_change_s\": {FIG5_FULL_PRE_CHANGE_SECONDS:.3}, {post_field}}}\n}}\n"
    )
}

fn main() {
    let mut bench = Bench::new();
    benches(&mut bench);
    let json = with_fig5_wall_clock(&bench.to_json("BENCH_pr4"));
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
    let path = dir.join("BENCH_pr4.json");
    std::fs::write(&path, json).expect("write BENCH_pr4.json");
    println!("bench results written to {}", path.display());
}
