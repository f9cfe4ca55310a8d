//! Differential pin of the page-major pass behind every straight chip run
//! (fig5/6/7, fig8, fig9, the variants): `run_memory_pass` samples each
//! page once, walks it block by block, and judges every policy on each
//! block with its own arena while all of them read the block's W/R splits
//! off one shared tape. Every policy's [`MemoryRun`] and `mc.<scheme>.*`
//! telemetry must equal a per-policy reference that re-samples each page
//! in full, evaluates each block on a fresh arena, and draws every split
//! itself from the event's seed — the loop the figures ran before the pass
//! and the tape existed, written out here independently of the engine.
//! The reference stops each block's walk at the page's horizon, the
//! earliest block death so far (DESIGN §3), as the engine does, and the
//! pin also checks that its `MemoryRun`s are those of walking every block
//! to its own death.

use aegis_experiments::schemes;
use pcm_sim::montecarlo::{
    evaluate_page_pass, run_memory_pass, FailureCriterion, McTelemetry, MemoryRun, PageArena,
    PageOutcome, PassHooks, SimConfig,
};
use pcm_sim::policy::{PolicyScratch, RecoveryPolicy};
use pcm_sim::timeline::{PageTimeline, TimelineSampler, DEFAULT_WEAK_SUCCESS_Q8};
use pcm_sim::{sample_split_for, Fault};
use sim_rng::prop::{shrink, Runner};
use sim_rng::{prop_assert_eq, Rng, SeedableRng, SmallRng};
use sim_telemetry::{metric_name, strip_volatile, Registry, RunTelemetry, SharedBuf};

/// Each criterion with its page count: the all-data guarantee is
/// exhaustive for RDIS and Aegis-rw-p, so it gets fewer pages.
const CRITERIA: [(FailureCriterion, usize); 3] = [
    (FailureCriterion::PerEventSplit { samples: 1 }, 4),
    (FailureCriterion::PerEventSplit { samples: 3 }, 3),
    (FailureCriterion::GuaranteedAllData, 1),
];

/// Bits per simulated page: small, so a chip of a few pages still spans
/// several blocks at either width.
const PAGE_BITS: usize = 4096;

/// How the reference's walk through one block ended.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Died at the event at this time.
    Died(f64),
    /// Stopped at an event at or after the horizon.
    Horizon,
    /// Survived every event.
    Outlived,
}

/// One block judged alone on a fresh arena, every split drawn from the
/// event's own seed, on the events strictly before `horizon`:
/// `(fate, faults seen, predicate calls)`.
fn reference_block(
    policy: &dyn RecoveryPolicy,
    events: &[pcm_sim::timeline::FaultEvent],
    criterion: FailureCriterion,
    horizon: f64,
) -> (Fate, usize, u64) {
    let mut scratch = PolicyScratch::new();
    let mut faults: Vec<Fault> = Vec::new();
    let mut decisions = 0u64;
    for event in events {
        if event.time >= horizon {
            return (Fate::Horizon, faults.len(), decisions);
        }
        faults.push(event.fault);
        policy.observe_fault(&faults, &mut scratch);
        let survived = match criterion {
            FailureCriterion::PerEventSplit { samples } => {
                let mut rng = SmallRng::seed_from_u64(event.split_seed);
                (0..samples).all(|_| {
                    decisions += 1;
                    let wrong = sample_split_for(&mut rng, &faults);
                    policy.recoverable_with(&faults, &wrong, &mut scratch)
                })
            }
            FailureCriterion::GuaranteedAllData => {
                decisions += 1;
                policy.guaranteed_with(&faults, &mut scratch)
            }
        };
        if !survived {
            return (Fate::Died(event.time), faults.len(), decisions);
        }
    }
    (Fate::Outlived, faults.len(), decisions)
}

/// One page judged by one policy alone, recording the engine's
/// `mc.<label>.*` counters and histograms into `registry` by name. With
/// `horizon` off, every block is walked to its own death.
fn reference_page(
    policy: &dyn RecoveryPolicy,
    label: &str,
    page: &PageTimeline,
    criterion: FailureCriterion,
    registry: &Registry,
    horizon: bool,
) -> PageOutcome {
    // Every handle up front, as the engine's telemetry registers them.
    let counter = |metric: &str| registry.counter(&metric_name("mc", label, metric));
    let histogram = |metric: &str| registry.histogram(&metric_name("mc", label, metric));
    let (pages, fault_events, decisions_seen) = (
        counter("pages"),
        counter("fault_events"),
        counter("policy_decisions"),
    );
    let (deaths_split, deaths_guarantee, outlived_blocks, past_horizon) = (
        counter("block_deaths_split"),
        counter("block_deaths_guarantee"),
        counter("blocks_outlived"),
        counter("blocks_past_horizon"),
    );
    let (arrivals, lifetimes) = (
        histogram("page_fault_arrivals"),
        histogram("page_lifetime_writes"),
    );
    let mut death_time = f64::INFINITY;
    let mut outlived = false;
    for block in &page.blocks {
        let until = if horizon { death_time } else { f64::INFINITY };
        let (fate, seen, decisions) = reference_block(policy, &block.events, criterion, until);
        fault_events.add(seen as u64);
        decisions_seen.add(decisions);
        match (fate, criterion) {
            (Fate::Outlived, _) => {
                outlived = true;
                outlived_blocks.incr();
            }
            (Fate::Horizon, _) => past_horizon.incr(),
            (Fate::Died(t), FailureCriterion::PerEventSplit { .. }) => {
                death_time = death_time.min(t);
                deaths_split.incr();
            }
            (Fate::Died(t), FailureCriterion::GuaranteedAllData) => {
                death_time = death_time.min(t);
                deaths_guarantee.incr();
            }
        }
    }
    let events = || page.blocks.iter().flat_map(|b| &b.events);
    pages.incr();
    arrivals.record(events().count() as u64);
    if death_time.is_finite() {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        lifetimes.record(death_time as u64);
    }
    PageOutcome {
        death_time,
        faults_recovered: events().filter(|e| e.time < death_time).count(),
        capped: outlived
            && page
                .blocks
                .iter()
                .any(|b| b.events.last().is_some_and(|e| e.time < death_time)),
    }
}

/// One policy's chip run, every page re-sampled in full for it alone.
fn reference_run(
    policy: &dyn RecoveryPolicy,
    cfg: &SimConfig,
    registry: &Registry,
    horizon: bool,
) -> MemoryRun {
    let sampler = TimelineSampler::paper_default(cfg.block_bits)
        .with_partial_mix(cfg.partial_fraction, DEFAULT_WEAK_SUCCESS_Q8);
    let mut run = MemoryRun::default();
    for p in 0..cfg.pages {
        let page = sampler.sample_page(
            &mut TimelineSampler::page_rng(cfg.seed, p as u64),
            cfg.blocks_per_page(),
        );
        let outcome = reference_page(
            policy,
            &policy.name(),
            &page,
            cfg.criterion,
            registry,
            horizon,
        );
        run.page_lifetimes.push(outcome.death_time);
        run.unprotected_lifetimes.push(page.first_cell_death());
        run.faults_recovered.push(outcome.faults_recovered);
        run.capped_pages += usize::from(outcome.capped);
    }
    run
}

/// A run's fields with every float as its bit pattern.
fn bits(run: &MemoryRun) -> (Vec<u64>, Vec<u64>, Vec<usize>, usize) {
    (
        run.page_lifetimes.iter().map(|t| t.to_bits()).collect(),
        run.unprotected_lifetimes
            .iter()
            .map(|t| t.to_bits())
            .collect(),
        run.faults_recovered.clone(),
        run.capped_pages,
    )
}

/// `set` through one pass against each of `twins` (the same schemes,
/// built independently) through the per-policy reference.
fn assert_matches_reference(
    set: &[schemes::Policy],
    twins: &[schemes::Policy],
    block_bits: usize,
    partial_fraction: f64,
    label: &str,
) {
    let policies: Vec<&dyn RecoveryPolicy> = set.iter().map(AsRef::as_ref).collect();
    for seed in [1u64, 42] {
        for (criterion, pages) in CRITERIA {
            let cfg = SimConfig {
                pages,
                page_bits: PAGE_BITS,
                block_bits,
                criterion,
                seed,
                threads: None,
                partial_fraction,
            };
            let expected_registry = Registry::new();
            let expected: Vec<MemoryRun> = twins
                .iter()
                .map(|policy| reference_run(policy.as_ref(), &cfg, &expected_registry, true))
                .collect();
            // Every block walked to its own death gives the same runs.
            for (policy, want) in twins.iter().zip(&expected) {
                let own_deaths = reference_run(policy.as_ref(), &cfg, &Registry::disabled(), false);
                assert_eq!(
                    bits(&own_deaths),
                    bits(want),
                    "{label}: {} seed {seed} {criterion:?} without the horizon",
                    policy.name()
                );
            }
            // Some page must die early enough to separate the schemes, or
            // the pin would compare identical verdicts.
            assert!(
                expected
                    .iter()
                    .any(|run| run.page_lifetimes != expected[0].page_lifetimes),
                "{label} seed {seed} {criterion:?}: every scheme agreed"
            );
            for threads in [1, 2] {
                let registry = Registry::new();
                let telemetry: Vec<McTelemetry> = policies
                    .iter()
                    .map(|policy| McTelemetry::for_scheme(&registry, &policy.name()))
                    .collect();
                let hooks = PassHooks {
                    telemetry: &telemetry,
                    ..PassHooks::default()
                };
                let cfg = SimConfig {
                    threads: Some(threads),
                    ..cfg
                };
                let got = run_memory_pass(&policies, &cfg, 0, cfg.pages, &hooks);
                assert_eq!(got.len(), policies.len(), "one run per policy");
                for ((policy, want), have) in policies.iter().zip(&expected).zip(&got) {
                    assert_eq!(
                        bits(have),
                        bits(want),
                        "{label}: {} seed {seed} threads {threads} {criterion:?}",
                        policy.name()
                    );
                }
                assert_eq!(
                    registry.counters(),
                    expected_registry.counters(),
                    "{label}: counters, seed {seed} threads {threads} {criterion:?}"
                );
                // Every block's walk ends one of three ways.
                let counters: std::collections::BTreeMap<String, u64> =
                    registry.counters().into_iter().collect();
                for policy in &policies {
                    let count = |metric: &str| counters[&metric_name("mc", &policy.name(), metric)];
                    assert_eq!(
                        count("block_deaths_split")
                            + count("block_deaths_guarantee")
                            + count("blocks_outlived")
                            + count("blocks_past_horizon"),
                        (cfg.pages * cfg.blocks_per_page()) as u64,
                        "{label}: {} block fates",
                        policy.name()
                    );
                }
                assert_eq!(
                    registry.histograms(),
                    expected_registry.histograms(),
                    "{label}: histograms, seed {seed} threads {threads} {criterion:?}"
                );
            }
        }
    }
}

#[test]
fn fig5_sets_match_the_per_policy_reference() {
    for bits in [256, 512] {
        assert_matches_reference(
            &schemes::fig5_schemes(bits),
            &schemes::fig5_schemes(bits),
            bits,
            0.0,
            &format!("fig5 {bits}-bit"),
        );
    }
}

#[test]
fn fig8_set_matches_the_per_policy_reference_at_half_partial() {
    // Partially stuck cells draw an extra byte per split on disagreement,
    // so the shared tape must replay that longer stream exactly.
    assert_matches_reference(
        &schemes::fig8_schemes(),
        &schemes::fig8_schemes(),
        512,
        0.5,
        "fig8 p50",
    );
}

#[test]
fn fig9_set_matches_the_per_policy_reference() {
    let fig9 = || {
        let mut set = schemes::failcdf_schemes();
        set.push(schemes::unprotected(512));
        set
    };
    assert_matches_reference(&fig9(), &fig9(), 512, 0.0, "fig9");
}

/// The six policy families the Monte Carlo engine ships, built at a
/// property-sized block width.
fn policy_family(index: usize, block_bits: usize) -> schemes::Policy {
    match index {
        0 => schemes::aegis(4, 37, block_bits),
        1 => schemes::aegis_rw(4, 37, block_bits),
        2 => schemes::aegis_rw_p(4, 37, block_bits, 2),
        3 => schemes::ecp(4, block_bits),
        4 => schemes::safer(5, block_bits, false),
        _ => schemes::rdis3(block_bits),
    }
}

/// One pass over random pages: which families share it (in order, with
/// repeats), the page shape, the stuckness mix and the criterion.
#[derive(Debug, Clone)]
struct PassCase {
    families: Vec<usize>,
    blocks: usize,
    pages: usize,
    partial: bool,
    criterion: FailureCriterion,
    seed: u64,
}

fn gen_pass_case(rng: &mut SmallRng) -> PassCase {
    let policies = rng.random_range(1..=5usize);
    PassCase {
        families: (0..policies).map(|_| rng.random_range(0..6usize)).collect(),
        blocks: rng.random_range(1..=6usize),
        pages: rng.random_range(1..=3usize),
        partial: rng.random_bool(0.4),
        criterion: match rng.random_range(0..10u32) {
            0..=2 => FailureCriterion::GuaranteedAllData,
            n => FailureCriterion::PerEventSplit { samples: n % 3 + 1 },
        },
        seed: rng.random(),
    }
}

fn shrink_pass_case(case: &PassCase) -> Vec<PassCase> {
    let mut out: Vec<PassCase> = shrink::vec(&case.families, |_| Vec::new())
        .into_iter()
        .filter(|families| !families.is_empty())
        .map(|families| PassCase {
            families,
            ..case.clone()
        })
        .collect();
    for blocks in shrink::usize_toward(case.blocks, 1) {
        out.push(PassCase {
            blocks,
            ..case.clone()
        });
    }
    for pages in shrink::usize_toward(case.pages, 1) {
        out.push(PassCase {
            pages,
            ..case.clone()
        });
    }
    out
}

/// Random policy mixes on random pages, one arena reused across the
/// pages: every outcome of [`evaluate_page_pass`] equals the reference.
#[test]
fn page_pass_matches_the_reference_on_random_pages() {
    Runner::new("page_pass_matches_the_reference_on_random_pages")
        .cases(64)
        .run(gen_pass_case, shrink_pass_case, |case| {
            const BITS: usize = 128;
            let set: Vec<schemes::Policy> = case
                .families
                .iter()
                .map(|&f| policy_family(f, BITS))
                .collect();
            let policies: Vec<&dyn RecoveryPolicy> = set.iter().map(AsRef::as_ref).collect();
            let mut sampler = TimelineSampler::paper_default(BITS);
            if case.partial {
                sampler = sampler.with_partial_mix(0.3, 128);
            }
            let mut rng = SmallRng::seed_from_u64(case.seed);
            let mut arena = PageArena::new();
            for p in 0..case.pages {
                let page = sampler.sample_page(&mut rng, case.blocks);
                let got = evaluate_page_pass(&policies, &page, case.criterion, &[], &mut arena);
                let scratch = Registry::disabled();
                for (i, (&policy, outcome)) in policies.iter().zip(got).enumerate() {
                    let want = reference_page(policy, "ref", &page, case.criterion, &scratch, true);
                    prop_assert_eq!(
                        outcome.death_time.to_bits(),
                        want.death_time.to_bits(),
                        "page {} policy {} ({})",
                        p,
                        i,
                        policy.name()
                    );
                    prop_assert_eq!(outcome.faults_recovered, want.faults_recovered);
                    prop_assert_eq!(outcome.capped, want.capped);
                }
            }
            Ok(())
        });
}

/// Empty blocks, blocks truncated after one event, and blocks whose
/// policies die on their first event, in one page: every policy still
/// matches the reference, under both criteria.
#[test]
fn empty_truncated_and_early_dying_blocks_match_the_reference() {
    const BITS: usize = 64;
    let set: Vec<schemes::Policy> = (0..6).map(|f| policy_family(f, BITS)).collect();
    let policies: Vec<&dyn RecoveryPolicy> = set.iter().map(AsRef::as_ref).collect();
    let sampler = TimelineSampler::paper_default(BITS);
    let mut page = sampler.sample_page(&mut SmallRng::seed_from_u64(41), 6);
    page.blocks[1].events.clear();
    page.blocks[3].events.truncate(1);
    let mut arena = PageArena::new();
    for criterion in [
        FailureCriterion::PerEventSplit { samples: 2 },
        FailureCriterion::GuaranteedAllData,
    ] {
        let got = evaluate_page_pass(&policies, &page, criterion, &[], &mut arena).to_vec();
        for (&policy, outcome) in policies.iter().zip(&got) {
            let want = reference_page(policy, "ref", &page, criterion, &Registry::disabled(), true);
            assert_eq!(*outcome, want, "{} {criterion:?}", policy.name());
        }
    }
}

/// The deterministic stream a pass feeds is the stream the policies feed
/// one after another: the same counters and histograms, byte for byte.
#[test]
fn pass_telemetry_replays_the_one_policy_stream() {
    const BITS: usize = 128;
    let set: Vec<schemes::Policy> = (0..6).map(|f| policy_family(f, BITS)).collect();
    let policies: Vec<&dyn RecoveryPolicy> = set.iter().map(AsRef::as_ref).collect();
    let cfg = SimConfig {
        pages: 4,
        page_bits: 1024,
        block_bits: BITS,
        criterion: FailureCriterion::PerEventSplit { samples: 1 },
        seed: 977,
        threads: Some(2),
        partial_fraction: 0.25,
    };
    let stream = |passes: &[&[&dyn RecoveryPolicy]]| -> String {
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("pass-prop", buf.clone()).expect("buffer sink");
        for pass in passes {
            let telemetry: Vec<McTelemetry> = pass
                .iter()
                .map(|policy| McTelemetry::for_scheme(run.registry(), &policy.name()))
                .collect();
            let hooks = PassHooks {
                telemetry: &telemetry,
                ..PassHooks::default()
            };
            run_memory_pass(pass, &cfg, 0, cfg.pages, &hooks);
        }
        run.finish().expect("finish");
        strip_volatile(&buf.text())
    };
    let one_at_a_time: Vec<&[&dyn RecoveryPolicy]> =
        policies.iter().map(std::slice::from_ref).collect();
    let alone = stream(&one_at_a_time);
    assert!(
        alone.contains("fault_events"),
        "the stream carries engine counters"
    );
    assert_eq!(stream(&[&policies]), alone);
}
