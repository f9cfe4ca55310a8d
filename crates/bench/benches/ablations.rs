//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! 1. failure criterion — per-event split sampling (1/4/16 samples) vs the
//!    strict all-data guarantee;
//! 2. SAFER re-partition — faithful incremental vs idealized exhaustive;
//! 3. fail-cache capacity — Aegis-rw driven through bounded direct-mapped
//!    caches vs the ideal cache.
//!
//! Besides timing, each ablation asserts the directional effect the
//! corresponding discussion predicts, so a regression in behaviour fails
//! the bench before it measures.

use aegis_bench::{bench_options, faulty_block, random_data};
use aegis_core::{AegisRwCodec, Rectangle};
use aegis_experiments::schemes;
use pcm_sim::failcache::{DirectMappedFailCache, FaultOracle, IdealFailCache};
use pcm_sim::montecarlo::{block_outcomes, block_trials, FailureCriterion};
use sim_rng::bench::Bench;
use sim_rng::{bench_group, bench_main};
use std::hint::black_box;

fn bench_failure_criterion(c: &mut Bench) {
    let opts = bench_options();
    let policy = schemes::aegis(9, 61, 512);
    let criteria = [
        ("samples_1", FailureCriterion::PerEventSplit { samples: 1 }),
        ("samples_4", FailureCriterion::PerEventSplit { samples: 4 }),
        (
            "samples_16",
            FailureCriterion::PerEventSplit { samples: 16 },
        ),
        ("guaranteed", FailureCriterion::GuaranteedAllData),
    ];
    // Directional check: stricter criteria tolerate fewer faults.
    let tolerated: Vec<f64> = criteria
        .iter()
        .map(|(_, crit)| {
            let outcomes = block_outcomes(policy.as_ref(), *crit, 200, 3);
            outcomes
                .iter()
                .map(|o| o.events_survived as f64)
                .sum::<f64>()
                / 200.0
        })
        .collect();
    assert!(
        tolerated[0] >= tolerated[2] && tolerated[2] >= tolerated[3],
        "criterion strictness must be monotone: {tolerated:?}"
    );

    let mut group = c.benchmark_group("criterion_ablation_aegis9x61");
    group.sample_size(10);
    for (name, criterion) in criteria {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(block_outcomes(
                    policy.as_ref(),
                    criterion,
                    black_box(opts.trials),
                    opts.seed,
                ))
            });
        });
    }
    group.finish();
}

fn bench_safer_search(c: &mut Bench) {
    let opts = bench_options();
    let incremental = schemes::safer(6, 512, false);
    let exhaustive = schemes::safer_exhaustive(6, 512, false);
    // Directional check on shared blocks: the idealized search tolerates
    // strictly more.
    let mut survived = [0usize; 2];
    block_trials(
        &[incremental.as_ref(), exhaustive.as_ref()],
        FailureCriterion::default(),
        300,
        5,
        None,
        |trial| {
            for (total, outcome) in survived.iter_mut().zip(trial) {
                *total += outcome.events_survived;
            }
        },
    );
    let [incr, exh] = survived.map(|total| total as f64 / 300.0);
    assert!(
        exh > 1.2 * incr,
        "exhaustive SAFER should clearly beat incremental ({exh} vs {incr})"
    );

    let mut group = c.benchmark_group("safer_search_ablation");
    group.sample_size(10);
    for (name, policy) in [("incremental", &incremental), ("exhaustive", &exhaustive)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(block_outcomes(
                    policy.as_ref(),
                    FailureCriterion::default(),
                    black_box(opts.trials),
                    opts.seed,
                ))
            });
        });
    }
    group.finish();
}

fn bench_fail_cache_capacity(c: &mut Bench) {
    // Functional-path ablation (the paper's future work, §2.4): Aegis-rw
    // writes with fault knowledge from caches of varying capacity.
    let rect = Rectangle::new(17, 31, 512).expect("valid formation");
    let mut group = c.benchmark_group("aegis_rw_fail_cache");
    let (block, faults) = faulty_block(512, 8, 21);

    group.bench_function("ideal", |b| {
        let mut codec = AegisRwCodec::new(rect.clone());
        let mut cache = IdealFailCache::new();
        let mut block = block.clone();
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let data = random_data(512, seed);
            let known = cache.known_faults(0, &block);
            black_box(codec.write_with_known(&mut block, &data, &known)).expect("8 faults fit");
        });
    });
    for capacity in [4usize, 16, 64] {
        group.bench_function(format!("direct_mapped_{capacity}"), |b| {
            let mut codec = AegisRwCodec::new(rect.clone());
            let mut cache = DirectMappedFailCache::new(capacity);
            for f in &faults {
                cache.record(0, *f);
            }
            let mut block = block.clone();
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let data = random_data(512, seed);
                let known = cache.known_faults(0, &block);
                if codec.write_with_known(&mut block, &data, &known).is_ok() {
                    // Re-record what the verification reads discovered.
                    for f in block.faults() {
                        cache.record(0, f);
                    }
                }
                black_box(&cache);
            });
        });
    }
    group.finish();
}

fn bench_payg(c: &mut Bench) {
    // The PAYG extension at bench scale: chip-wide event loop with a
    // shared pool, ECP1 vs Aegis local schemes.
    use aegis_payg::run_payg_chip;
    let opts = bench_options();
    let cfg = opts.sim_config(512);
    let ecp1 = schemes::ecp(1, 512);
    let aegis = schemes::aegis(23, 23, 512);
    // Directional check: the PAYG pool must extend ECP1's page lifetimes.
    let bare = pcm_sim::montecarlo::run_memory(ecp1.as_ref(), &cfg);
    let pooled = run_payg_chip(ecp1.as_ref(), 512, &cfg);
    assert!(
        pooled.outcome().mean_lifetime > 1.05 * pcm_sim::stats::mean(&bare.page_lifetimes),
        "the GEC pool should visibly extend ECP1 page lifetimes"
    );

    let mut group = c.benchmark_group("payg_chip");
    group.sample_size(10);
    for (name, policy) in [("ecp1_lec", &ecp1), ("aegis23x23_lec", &aegis)] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_payg_chip(policy.as_ref(), black_box(256), &cfg)));
        });
    }
    group.finish();
}

bench_group!(
    benches,
    bench_failure_criterion,
    bench_safer_search,
    bench_fail_cache_capacity,
    bench_payg
);
bench_main!(benches);
