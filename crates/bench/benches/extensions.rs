//! Benchmarks of the extension subsystems: wear levelers under adversarial
//! traces, the OS-assist mechanisms, and the per-write cost sweep.

use aegis_bench::bench_options;
use aegis_experiments::schemes;
use pcm_sim::securerefresh::SecurityRefresh;
use pcm_sim::trace::{TraceGenerator, TraceKind};
use pcm_sim::wearlevel::{wear_histogram, RandomizedStartGap, StartGap};
use sim_rng::bench::Bench;
use sim_rng::SeedableRng;
use sim_rng::SmallRng;
use sim_rng::{bench_group, bench_main};
use std::hint::black_box;

fn bench_wear_levelers(c: &mut Bench) {
    let lines = 256usize;
    let mut rng = SmallRng::seed_from_u64(3);
    let stream =
        TraceGenerator::new(TraceKind::Zipf { alpha: 1.0 }, lines).stream(&mut rng, 100_000);
    let mut group = c.benchmark_group("wear_leveler_100k_writes");
    group.bench_function("start_gap", |b| {
        b.iter(|| {
            let mut leveler = StartGap::new(lines, 8);
            black_box(wear_histogram(&mut leveler, stream.iter().copied()))
        });
    });
    group.bench_function("randomized_start_gap", |b| {
        b.iter(|| {
            let mut leveler = RandomizedStartGap::new(lines, 8, 7);
            black_box(wear_histogram(&mut leveler, stream.iter().copied()))
        });
    });
    group.bench_function("security_refresh", |b| {
        b.iter(|| {
            let mut leveler = SecurityRefresh::new(lines, 16, 7);
            black_box(wear_histogram(&mut leveler, stream.iter().copied()))
        });
    });
    group.finish();
}

fn bench_os_assist(c: &mut Bench) {
    use aegis_os_assist::block_death_matrices;
    use aegis_os_assist::freep::run_freep;
    use aegis_os_assist::pairing::run_pairing;
    let opts = bench_options();
    let cfg = opts.sim_config(512);
    let policy = schemes::ecp(4, 512);
    let matrix = || block_death_matrices(&[policy.as_ref()], &cfg).remove(0);
    let deaths = matrix();
    let mut group = c.benchmark_group("os_assist");
    group.sample_size(10);
    group.bench_function("death_matrix", |b| {
        b.iter(|| black_box(matrix()));
    });
    group.bench_function("freep_64_spares", |b| {
        b.iter(|| black_box(run_freep(policy.as_ref(), &deaths, 64, &cfg)));
    });
    group.bench_function("dynamic_pairing", |b| {
        b.iter(|| black_box(run_pairing(&deaths)));
    });
    group.finish();
}

fn bench_trace_generators(c: &mut Bench) {
    let mut group = c.benchmark_group("trace_10k_addresses");
    for (name, kind) in [
        ("uniform", TraceKind::Uniform),
        ("zipf", TraceKind::Zipf { alpha: 1.0 }),
        (
            "hotspot",
            TraceKind::Hotspot {
                hot_fraction: 0.02,
                hot_probability: 0.9,
            },
        ),
    ] {
        let generator = TraceGenerator::new(kind, 4096);
        group.bench_function(name, |b| {
            let mut rng = SmallRng::seed_from_u64(1);
            b.iter(|| black_box(generator.stream(&mut rng, 10_000)));
        });
    }
    group.finish();
}

bench_group!(
    benches,
    bench_wear_levelers,
    bench_os_assist,
    bench_trace_generators
);
bench_main!(benches);
