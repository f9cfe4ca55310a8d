//! The timing wrapper must be invisible to the simulation, and the metric
//! tables must match `BENCHMARK.json` and its naming limits.

use aegis_experiments::schemes::{self, Policy};
use pcm_sim::montecarlo::{block_outcomes, run_memory, FailureCriterion, SimConfig};
use perfbench::metrics::{per_layer, valid_name, END_TO_END};
use perfbench::timed::{PolicyClock, TimedPolicy, FAMILIES};
use sim_telemetry::Json;
use std::sync::Arc;

/// Every scheme the three workloads run, with the partially-stuck
/// fraction to simulate it under.
fn workload_schemes() -> Vec<(Policy, f64)> {
    let fig5 = [256, 512].into_iter().flat_map(schemes::fig5_schemes);
    let failcdf = schemes::failcdf_schemes().into_iter();
    let fig8 = schemes::fig8_schemes().into_iter().map(|p| (p, 0.25));
    fig5.chain(failcdf).map(|p| (p, 0.0)).chain(fig8).collect()
}

#[test]
fn timed_policies_reproduce_the_bare_memory_run_for_every_family() {
    let clock = Arc::new(PolicyClock::default());
    for (bare, partial_fraction) in workload_schemes() {
        let name = bare.name();
        let cfg = SimConfig {
            partial_fraction,
            threads: Some(2),
            ..SimConfig::scaled(2, bare.block_bits(), 17)
        };
        let expected = run_memory(bare.as_ref(), &cfg);
        let timed = TimedPolicy::new(bare, &clock);
        assert_eq!(run_memory(&timed, &cfg), expected, "{name}");
    }
    for (family, totals) in FAMILIES.iter().zip(clock.totals()) {
        assert!(totals.decisions > 0, "{family} was never decided");
        assert!(totals.busy_ns() > 0, "{family} took no time");
        assert_eq!(
            totals.by_faults.iter().sum::<u64>(),
            totals.decisions,
            "{family}: every decision lands in one population-size bucket"
        );
    }
}

#[test]
fn timed_policies_reproduce_the_bare_block_outcomes() {
    let clock = Arc::new(PolicyClock::default());
    for bare in schemes::failcdf_schemes() {
        let name = bare.name();
        let expected = block_outcomes(bare.as_ref(), FailureCriterion::default(), 40, 5);
        let timed = TimedPolicy::new(bare, &clock);
        assert_eq!(
            block_outcomes(&timed, FailureCriterion::default(), 40, 5),
            expected,
            "{name}"
        );
    }
}

#[test]
fn metric_tables_match_the_benchmark_declaration() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let declared = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        declared
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.str_field("name").expect("name").to_owned(),
                    m.str_field("unit").expect("unit").to_owned(),
                )
            })
            .collect()
    };
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(list("end_to_end"), end_to_end);
    assert_eq!(list("per_layer"), layers);
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut names: Vec<&str> = end_to_end
        .iter()
        .chain(&layers)
        .map(|(n, _)| n.as_str())
        .collect();
    for name in &names {
        assert!(valid_name(name), "illegal metric name '{name}'");
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        end_to_end.len() + layers.len(),
        "names are unique"
    );
}

#[test]
fn metric_name_rule_rejects_what_the_format_forbids() {
    assert!(valid_name("policy.aegis.busy_s"));
    assert!(valid_name("1-a_b.c"));
    assert!(!valid_name(""));
    assert!(!valid_name(".lead"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
}
