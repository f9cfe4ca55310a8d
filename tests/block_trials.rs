//! Differential pin of the shared block-trial pass behind `failcdf` and
//! `fig10`: `block_trials` samples each trial's block once and evaluates
//! every policy on it with one arena per worker. Every policy's outcomes
//! must equal a per-scheme reference that re-samples each block from
//! `page_rng(seed, trial)` and evaluates it on a fresh arena — the loop the
//! figures ran before the pass existed.

use aegis_experiments::schemes;
use pcm_sim::montecarlo::{
    block_failure_cdfs, block_outcomes, block_trials, evaluate_block, BlockOutcome,
    FailureCriterion,
};
use pcm_sim::policy::RecoveryPolicy;
use pcm_sim::timeline::TimelineSampler;

/// Each criterion with its trial count: the all-data guarantee is
/// exhaustive for RDIS and Aegis-rw-p, so it gets fewer blocks.
const CRITERIA: [(FailureCriterion, usize); 3] = [
    (FailureCriterion::PerEventSplit { samples: 1 }, 48),
    (FailureCriterion::PerEventSplit { samples: 3 }, 48),
    (FailureCriterion::GuaranteedAllData, 10),
];

/// One policy's outcomes, each block sampled afresh and evaluated alone.
fn reference(
    policy: &dyn RecoveryPolicy,
    criterion: FailureCriterion,
    trials: usize,
    seed: u64,
) -> Vec<BlockOutcome> {
    let sampler = TimelineSampler::paper_default(policy.block_bits());
    (0..trials)
        .map(|i| {
            let mut rng = TimelineSampler::page_rng(seed, i as u64);
            evaluate_block(policy, &sampler.sample_block(&mut rng), criterion)
        })
        .collect()
}

/// The shared pass's outcomes, regrouped per policy.
fn shared(
    policies: &[&dyn RecoveryPolicy],
    criterion: FailureCriterion,
    trials: usize,
    seed: u64,
    threads: usize,
) -> Vec<Vec<BlockOutcome>> {
    let mut columns = vec![Vec::with_capacity(trials); policies.len()];
    let mut visits = 0;
    block_trials(policies, criterion, trials, seed, Some(threads), |trial| {
        assert_eq!(trial.len(), policies.len(), "one outcome per policy");
        for (column, outcome) in columns.iter_mut().zip(trial) {
            column.push(*outcome);
        }
        visits += 1;
    });
    assert_eq!(visits, trials, "one visit per trial");
    columns
}

/// `set` through the shared pass against `twins` (the same schemes, built
/// independently) through the per-scheme reference.
fn assert_matches_reference(set: &[schemes::Policy], twins: &[schemes::Policy], label: &str) {
    let policies: Vec<&dyn RecoveryPolicy> = set.iter().map(AsRef::as_ref).collect();
    for seed in [1u64, 42] {
        for (criterion, trials) in CRITERIA {
            let expected: Vec<Vec<BlockOutcome>> = twins
                .iter()
                .map(|policy| reference(policy.as_ref(), criterion, trials, seed))
                .collect();
            // Some block must die, or the pin would compare empty verdicts.
            assert!(
                expected.iter().flatten().any(|o| o.death_time.is_some()),
                "{label} seed {seed} {criterion:?}: no block died"
            );
            for threads in [1, 2] {
                let got = shared(&policies, criterion, trials, seed, threads);
                for ((policy, want), have) in policies.iter().zip(&expected).zip(&got) {
                    assert_eq!(
                        have,
                        want,
                        "{label}: {} seed {seed} threads {threads} {criterion:?}",
                        policy.name()
                    );
                }
            }
        }
    }
}

#[test]
fn failcdf_schemes_match_the_per_scheme_reference() {
    assert_matches_reference(
        &schemes::failcdf_schemes(),
        &schemes::failcdf_schemes(),
        "failcdf",
    );
}

#[test]
fn fig10_slice_matches_the_per_scheme_reference() {
    // Two formations in fig10's formation-major order, each sweep sharing
    // one set of ROMs: consecutive pointer budgets share a formation,
    // hence every pair collision, and the second formation then inherits
    // the first one's arenas. The reference builds each policy alone.
    let formations = [(17, 31), (8, 71)];
    let set: Vec<schemes::Policy> = formations
        .into_iter()
        .flat_map(|(a, b)| schemes::aegis_rw_p_sweep(a, b, 512, 1..=3))
        .collect();
    let twins: Vec<schemes::Policy> = formations
        .into_iter()
        .flat_map(|(a, b)| (1..=3).map(move |p| schemes::aegis_rw_p(a, b, 512, p)))
        .collect();
    assert_matches_reference(&set, &twins, "fig10");
}

#[test]
fn single_policy_wrappers_agree_with_the_shared_pass() {
    let set = schemes::failcdf_schemes();
    let policies: Vec<&dyn RecoveryPolicy> = set.iter().map(AsRef::as_ref).collect();
    let (criterion, trials) = CRITERIA[0];
    let columns = shared(&policies, criterion, trials, 7, 2);
    let cdfs = block_failure_cdfs(&policies, criterion, trials, 7, Some(1));
    for ((&policy, column), cdf) in policies.iter().zip(&columns).zip(&cdfs) {
        assert_eq!(&block_outcomes(policy, criterion, trials, 7), column);
        let last = cdf.histogram.len() - 1;
        let mut histogram = vec![0; last + 1];
        for outcome in column.iter().filter(|o| o.death_time.is_some()) {
            histogram[(outcome.events_survived + 1).min(last)] += 1;
        }
        assert_eq!(cdf.histogram, histogram, "{}", policy.name());
        assert_eq!(cdf.trials, trials);
    }
}

#[test]
#[should_panic(expected = "protects 256-bit blocks")]
fn mixed_block_widths_are_refused() {
    let wide = schemes::ecp(6, 512);
    let narrow = schemes::ecp(6, 256);
    block_trials(
        &[wide.as_ref(), narrow.as_ref()],
        FailureCriterion::default(),
        1,
        1,
        Some(1),
        |_| {},
    );
}
