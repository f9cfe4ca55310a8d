//! Benchmarks the block-failure-CDF pipeline (the paper's Figure 8,
//! `experiments failcdf`): per-block failure CDFs for the cache/no-cache
//! scheme set, one scheme at a time and as the figure runs them — every
//! scheme over each block sampled once.

use aegis_bench::bench_options;
use aegis_experiments::schemes;
use pcm_sim::montecarlo::block_failure_cdfs;
use pcm_sim::policy::RecoveryPolicy;
use sim_rng::bench::Bench;
use sim_rng::{bench_group, bench_main};
use std::hint::black_box;

fn bench_failcdf(c: &mut Bench) {
    let opts = bench_options();
    let set = schemes::failcdf_schemes();
    let policies: Vec<&dyn RecoveryPolicy> = set.iter().map(AsRef::as_ref).collect();
    let mut group = c.benchmark_group("failcdf_block_failure_cdf");
    group.sample_size(10);
    let mut bench = |name: String, policies: &[&dyn RecoveryPolicy]| {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(block_failure_cdfs(
                    policies,
                    opts.criterion,
                    black_box(opts.trials),
                    opts.seed,
                    None,
                ))
            });
        });
    };
    for &policy in &policies {
        bench(policy.name(), &[policy]);
    }
    bench("all_schemes".to_owned(), &policies);
    group.finish();
}

bench_group!(benches, bench_failcdf);
bench_main!(benches);
