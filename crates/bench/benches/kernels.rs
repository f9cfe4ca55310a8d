//! PR 3 kernel gate: word-level hot-path kernels versus the retained
//! scalar references, on the paper's strongest 512-bit formation (9×61).
//!
//! Four benchmark groups, each with a `kernel` and a `scalar` leg timed in
//! the same process on the same inputs:
//!
//! - `encode_512_9x61` — one Aegis write (encode + verify reads) to a
//!   3-fault block; the [`AegisCodec`] mask/popcount path vs
//!   `write_scalar`.
//! - `predicate_512_9x61` — one recoverability verdict on an 8-fault
//!   population; the ROM-backed policy (with a reusable
//!   [`PolicyScratch`]) vs the scalar-mode policy.
//! - `repartition_512_9x61` — a write forced through at least one slope
//!   increment (two colliding faults), fresh codec each iteration.
//! - `fig5_page_512_9x61` — a full Monte Carlo page evaluation over one
//!   pre-sampled paper-default timeline (64 blocks): the unit of work the
//!   fig5–7 sweeps repeat thousands of times.
//!
//! Output goes to `results/bench/BENCH_pr3.json` (the name the PR 3 gate
//! binary, `bench-gate`, checks). If `SIM_FIG5_FULL_SECONDS` is set — as
//! `scripts/bench_pr3.sh` does after timing `experiments fig5 --full` —
//! the measured wall clock is spliced into the document next to the
//! recorded pre-change measurement, so the end-to-end speedup is captured
//! in the same file as the kernel ratios.

use aegis_bench::{faulty_block, random_data};
use aegis_core::{AegisCodec, AegisPolicy, Rectangle};
use pcm_sim::codec::StuckAtCodec;
use pcm_sim::montecarlo::{evaluate_block_with_scratch, FailureCriterion};
use pcm_sim::policy::{PolicyScratch, RecoveryPolicy};
use pcm_sim::timeline::TimelineSampler;
use sim_rng::bench::Bench;
use sim_rng::bench_group;
use sim_rng::{SeedableRng, SmallRng};
use std::hint::black_box;

/// `experiments fig5 --full` wall clock measured on this tree immediately
/// before the kernel rewrite landed (same machine as the recorded
/// baseline; release build, bash `time`, seconds).
const FIG5_FULL_PRE_CHANGE_SECONDS: f64 = 130.214;

fn rect() -> Rectangle {
    Rectangle::new(9, 61, 512).expect("paper formation")
}

/// A pool of data words cycled through by the write benchmarks, so the
/// timed loop measures the codec and not the RNG. The words are small
/// Hamming-distance perturbations of one base word — the low flip rates
/// differential PCM writes are designed around — so the shared cell-wear
/// bookkeeping stays proportionate and the codec logic dominates.
fn data_pool() -> Vec<bitblock::BitBlock> {
    use sim_rng::Rng;
    let base = random_data(512, 1);
    let mut rng = SmallRng::seed_from_u64(2);
    (0..64)
        .map(|_| {
            let mut word = base.clone();
            for _ in 0..8 {
                let offset = rng.random_range(0..512);
                word.set(offset, !word.get(offset));
            }
            word
        })
        .collect()
}

fn bench_encode(c: &mut Bench) {
    let mut group = c.benchmark_group("encode_512_9x61");
    let pool = data_pool();
    let (block, _) = faulty_block(512, 3, 7);

    let mut codec = AegisCodec::new(rect());
    let mut target = block.clone();
    let mut i = 0usize;
    group.bench_function("kernel", |b| {
        b.iter(|| {
            i = (i + 1) % pool.len();
            let _ = black_box(codec.write(black_box(&mut target), &pool[i]));
        });
    });

    let mut codec = AegisCodec::new(rect());
    let mut target = block.clone();
    let mut i = 0usize;
    group.bench_function("scalar", |b| {
        b.iter(|| {
            i = (i + 1) % pool.len();
            let _ = black_box(codec.write_scalar(black_box(&mut target), &pool[i]));
        });
    });
    group.finish();
}

/// A fixed 8-fault population with a pool of W/R splits: the exact inputs
/// a Monte Carlo block evaluation feeds `recoverable` on every event.
fn bench_predicate(c: &mut Bench) {
    let mut group = c.benchmark_group("predicate_512_9x61");
    let (_, faults) = faulty_block(512, 8, 11);
    let mut rng = SmallRng::seed_from_u64(5);
    let splits: Vec<Vec<bool>> = (0..64)
        .map(|_| {
            use sim_rng::Rng;
            (0..faults.len()).map(|_| rng.random_bool(0.5)).collect()
        })
        .collect();

    let kernel = AegisPolicy::new(rect());
    let mut scratch = PolicyScratch::new();
    let mut i = 0usize;
    group.bench_function("kernel", |b| {
        b.iter(|| {
            i = (i + 1) % splits.len();
            black_box(kernel.recoverable_with(black_box(&faults), &splits[i], &mut scratch))
        });
    });

    let scalar = AegisPolicy::scalar(rect());
    let mut i = 0usize;
    group.bench_function("scalar", |b| {
        b.iter(|| {
            i = (i + 1) % splits.len();
            black_box(scalar.recoverable(black_box(&faults), &splits[i]))
        });
    });
    group.finish();
}

fn bench_repartition(c: &mut Bench) {
    let mut group = c.benchmark_group("repartition_512_9x61");
    // Two slope-0 colliding faults force at least one re-partition per
    // fresh codec; both legs replay the identical trial.
    let (mut block, _) = faulty_block(512, 0, 4);
    block.force_stuck(0, true);
    block.force_stuck(1, true);
    let data = random_data(512, 9);

    let r = rect();
    let mut target = block.clone();
    group.bench_function("kernel", |b| {
        b.iter(|| {
            let mut codec = AegisCodec::new(r.clone());
            codec
                .write(black_box(&mut target), black_box(&data))
                .expect("two faults are within hard FTC");
        });
    });
    let mut target = block.clone();
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut codec = AegisCodec::new(r.clone());
            codec
                .write_scalar(black_box(&mut target), black_box(&data))
                .expect("two faults are within hard FTC");
        });
    });
    group.finish();
}

fn bench_fig5_page(c: &mut Bench) {
    let mut group = c.benchmark_group("fig5_page_512_9x61");
    group.sample_size(10);
    // One paper-default page timeline (4 KB page = 64 × 512-bit blocks),
    // sampled once; page evaluation is deterministic given the timeline.
    let sampler = TimelineSampler::paper_default(512);
    let page = sampler.sample_page(&mut SmallRng::seed_from_u64(17), 64);
    let criterion = FailureCriterion::default();

    let kernel = AegisPolicy::new(rect());
    let mut scratch = PolicyScratch::new();
    group.bench_function("kernel", |b| {
        b.iter(|| {
            for block in &black_box(&page).blocks {
                black_box(evaluate_block_with_scratch(
                    &kernel,
                    block,
                    criterion,
                    None,
                    &mut scratch,
                ));
            }
        });
    });

    let scalar = AegisPolicy::scalar(rect());
    let mut scratch = PolicyScratch::new();
    group.bench_function("scalar", |b| {
        b.iter(|| {
            for block in &black_box(&page).blocks {
                black_box(evaluate_block_with_scratch(
                    &scalar,
                    block,
                    criterion,
                    None,
                    &mut scratch,
                ));
            }
        });
    });
    group.finish();
}

bench_group!(
    benches,
    bench_encode,
    bench_predicate,
    bench_repartition,
    bench_fig5_page
);

/// Splices the end-to-end fig5 `--full` wall-clock record into the bench
/// JSON: the recorded pre-change measurement always, the post-change
/// measurement when `SIM_FIG5_FULL_SECONDS` carries one.
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
    let json = with_fig5_wall_clock(&bench.to_json("BENCH_pr3"));
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
    let path = dir.join("BENCH_pr3.json");
    std::fs::write(&path, json).expect("write BENCH_pr3.json");
    println!("bench results written to {}", path.display());
}
