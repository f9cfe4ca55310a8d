//! Differential property suite for the PR 4 incremental predicates: for
//! every policy family (Aegis, Aegis-rw, Aegis-rw-p, SAFER in both search
//! and cache modes, RDIS, ECP), a warm [`PolicyScratch`] fed one fault at a
//! time through `observe_fault` must produce `recoverable_with` verdicts
//! identical to a cold-scratch recompute and to the stateless
//! `recoverable` reference — across random fault arrival orders, random
//! W/R splits, and deliberate cache abuse (skipped observations, stale
//! scratch reuse across policies).
//!
//! Failures shrink toward fewer faults and fewer splits via the in-tree
//! `sim_rng::prop` harness; CI runs the suite with `SIM_PROP_CASES=10000`
//! per property (see `scripts/verify.sh`).

use aegis_pcm::aegis::{AegisPolicy, AegisRwPPolicy, AegisRwPolicy, Rectangle};
use aegis_pcm::baselines::{
    EcpPolicy, MaskingPolicy, PartitionSearch, PlbcPolicy, RdisPolicy, SaferPolicy,
};
use aegis_pcm::pcm::policy::{PolicyScratch, RecoveryPolicy};
use aegis_pcm::pcm::Fault;
use sim_rng::prop::{shrink, Runner};
use sim_rng::{prop_assert_eq, Rng, SeedableRng, SmallRng};

/// `(label, block_bits, max_faults)` of every policy configuration the
/// generator draws from; `build_policy` constructs the matching predicate.
/// A case draws at most 8 faults, or — one case in 8 — up to `max_faults`:
/// the Aegis, RDIS and two incremental-SAFER configurations go to 130 so
/// their `u128` masks set bits at and past 64 and 128 (RDIS and SAFER fall
/// back past 128 faults, and a formation's slope masks only fill once
/// every slope has a colliding pair).
const CONFIGS: &[(&str, usize, usize)] = &[
    ("aegis-9x61", 512, 130),
    ("aegis-rw-9x61", 512, 130),
    ("aegis-rw-p-9x61", 512, 8),
    ("aegis-5x7-ragged", 32, 32),
    ("safer32-ideal", 512, 8),
    ("safer32-cache-ideal", 512, 8),
    ("safer32", 512, 8),
    ("safer32-cache", 512, 8),
    ("safer8-cache-ideal", 64, 8),
    ("rdis3-512", 512, 130),
    ("rdis3-64", 64, 64),
    ("ecp6", 512, 8),
    ("mask2-512", 512, 8),
    ("mask2-scalar-512", 512, 8),
    ("mask1-64", 64, 8),
    ("plbc2+2-512", 512, 8),
    ("plbc2+2-scalar-512", 512, 8),
    ("plbc1+1-64", 64, 8),
    ("rdis3-256", 256, 130),
    ("aegis-8x71", 512, 130),
    ("aegis-4x131", 512, 130),
    ("safer128", 512, 130),
    ("safer64-cache", 256, 130),
];

fn build_policy(config: usize, pointers: usize) -> Box<dyn RecoveryPolicy> {
    let r512 = || Rectangle::new(9, 61, 512).expect("valid formation");
    match config {
        0 => Box::new(AegisPolicy::new(r512())),
        1 => Box::new(AegisRwPolicy::new(r512())),
        2 => Box::new(AegisRwPPolicy::new(r512(), pointers)),
        3 => Box::new(AegisPolicy::new(
            Rectangle::new(5, 7, 32).expect("valid formation"),
        )),
        4 => Box::new(SaferPolicy::with_search(
            5,
            512,
            false,
            PartitionSearch::Exhaustive,
        )),
        5 => Box::new(SaferPolicy::with_search(
            5,
            512,
            true,
            PartitionSearch::Exhaustive,
        )),
        6 => Box::new(SaferPolicy::with_search(
            5,
            512,
            false,
            PartitionSearch::Incremental,
        )),
        7 => Box::new(SaferPolicy::with_search(
            5,
            512,
            true,
            PartitionSearch::Incremental,
        )),
        8 => Box::new(SaferPolicy::with_search(
            3,
            64,
            true,
            PartitionSearch::Exhaustive,
        )),
        9 => Box::new(RdisPolicy::rdis3(512)),
        10 => Box::new(RdisPolicy::rdis3(64)),
        11 => Box::new(EcpPolicy::new(6, 512)),
        12 => Box::new(MaskingPolicy::new(2, 512)),
        13 => Box::new(MaskingPolicy::scalar(2, 512)),
        14 => Box::new(MaskingPolicy::new(1, 64)),
        15 => Box::new(PlbcPolicy::new(2, 2, 512)),
        16 => Box::new(PlbcPolicy::scalar(2, 2, 512)),
        17 => Box::new(PlbcPolicy::new(1, 1, 64)),
        18 => Box::new(RdisPolicy::rdis3(256)),
        19 => Box::new(AegisPolicy::new(
            Rectangle::new(8, 71, 512).expect("valid formation"),
        )),
        20 => Box::new(AegisPolicy::new(
            Rectangle::new(4, 131, 512).expect("valid formation"),
        )),
        21 => Box::new(SaferPolicy::with_search(
            7,
            512,
            false,
            PartitionSearch::Incremental,
        )),
        22 => Box::new(SaferPolicy::with_search(
            6,
            256,
            true,
            PartitionSearch::Incremental,
        )),
        _ => unreachable!("generator stays within CONFIGS"),
    }
}

/// One differential trial: a policy configuration, a fault arrival order,
/// split seeds (one W/R split per seed per prefix), and a pointer budget
/// for the rw-p configuration.
#[derive(Debug, Clone)]
struct Case {
    config: usize,
    faults: Vec<Fault>,
    splits: Vec<u64>,
    pointers: usize,
}

fn gen_case(rng: &mut SmallRng) -> Case {
    let config = rng.random_range(0..CONFIGS.len());
    let (_, bits, max_faults) = CONFIGS[config];
    let max = if rng.random_bool(0.125) {
        max_faults
    } else {
        8
    };
    let n = rng.random_range(0..=max.min(bits));
    let mut offsets: Vec<usize> = Vec::with_capacity(n);
    while offsets.len() < n {
        let offset = rng.random_range(0..bits);
        if !offsets.contains(&offset) {
            offsets.push(offset);
        }
    }
    let faults = offsets
        .into_iter()
        .map(|offset| {
            let stuck = rng.random_bool(0.5);
            // A quarter of arrivals are partially stuck: the differential
            // contract must hold for both Stuckness kinds (predicates may
            // only read the kind through the guarantee seeding).
            if rng.random_bool(0.25) {
                Fault::partial(offset, stuck, rng.random::<u8>())
            } else {
                Fault::new(offset, stuck)
            }
        })
        .collect();
    let splits = (0..rng.random_range(1..=3usize))
        .map(|_| rng.random::<u64>())
        .collect();
    let pointers = rng.random_range(1..=4usize);
    Case {
        config,
        faults,
        splits,
        pointers,
    }
}

/// Shrinker: drop faults (preserving arrival order), then drop/simplify
/// split seeds (keeping at least one), then pull the pointer budget down.
/// The configuration is pinned: changing it would invalidate the offsets.
fn shrink_case(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for faults in shrink::vec(&case.faults, shrink::none) {
        out.push(Case {
            faults,
            ..case.clone()
        });
    }
    for splits in shrink::vec(&case.splits, |&s| shrink::u64_down(s)) {
        if !splits.is_empty() {
            out.push(Case {
                splits,
                ..case.clone()
            });
        }
    }
    for pointers in shrink::usize_toward(case.pointers, 1) {
        out.push(Case {
            pointers,
            ..case.clone()
        });
    }
    out
}

/// The W/R split of `len` faults drawn from `seed`. Every fourth seed
/// marks only about one fault in 64 W: with many faults, the sparse
/// splits are the ones Aegis and RDIS can still recover.
fn split_for(seed: u64, len: usize) -> Vec<bool> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let w_rate = if seed % 4 == 3 { 1.0 / 64.0 } else { 0.5 };
    (0..len).map(|_| rng.random_bool(w_rate)).collect()
}

/// The tentpole contract: warm incremental scratch ≡ cold recompute ≡
/// stateless reference, at every prefix of the arrival order.
#[test]
fn incremental_verdicts_match_recompute_at_every_prefix() {
    Runner::new("incremental_verdicts_match_recompute_at_every_prefix")
        .cases(2_000)
        .run(gen_case, shrink_case, |case| {
            let policy = build_policy(case.config, case.pointers);
            let mut warm = PolicyScratch::new();
            policy.forget_block(&mut warm);
            let mut seen: Vec<Fault> = Vec::new();
            for &fault in &case.faults {
                seen.push(fault);
                policy.observe_fault(&seen, &mut warm);
                for &seed in &case.splits {
                    let wrong = split_for(seed, seen.len());
                    let want = policy.recoverable(&seen, &wrong);
                    prop_assert_eq!(
                        policy.recoverable_with(&seen, &wrong, &mut warm),
                        want,
                        "warm {} faults={:?} wrong={:?}",
                        CONFIGS[case.config].0,
                        &seen,
                        &wrong
                    );
                    prop_assert_eq!(
                        policy.recoverable_with(&seen, &wrong, &mut PolicyScratch::new()),
                        want,
                        "cold {} faults={:?} wrong={:?}",
                        CONFIGS[case.config].0,
                        &seen,
                        &wrong
                    );
                }
            }
            Ok(())
        });
}

/// Arrival-order robustness: feeding the same fault set in a different
/// order (observing each prefix) still matches the stateless reference on
/// the reordered slice — the cache is keyed by the exact arrival history,
/// never by assumptions about it.
#[test]
fn shuffled_arrival_orders_still_match_the_reference() {
    Runner::new("shuffled_arrival_orders_still_match_the_reference")
        .cases(1_000)
        .run(gen_case, shrink_case, |case| {
            let policy = build_policy(case.config, case.pointers);
            // Deterministic reorder driven by the first split seed.
            let mut order: Vec<Fault> = case.faults.clone();
            let mut rng = SmallRng::seed_from_u64(case.splits[0] ^ 0x5EED);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            let mut warm = PolicyScratch::new();
            policy.forget_block(&mut warm);
            let mut seen: Vec<Fault> = Vec::new();
            for &fault in &order {
                seen.push(fault);
                policy.observe_fault(&seen, &mut warm);
                let wrong = split_for(case.splits[0], seen.len());
                let want = policy.recoverable(&seen, &wrong);
                prop_assert_eq!(
                    policy.recoverable_with(&seen, &wrong, &mut warm),
                    want,
                    "{} order={:?} wrong={:?}",
                    CONFIGS[case.config].0,
                    &seen,
                    &wrong
                );
            }
            Ok(())
        });
}

/// The configuration whose scratch content the foreign-scratch leg plants
/// under `config`. The three 9x61 Aegis variants rotate among themselves:
/// base Aegis reads Aegis-rw's cache (their layouts differ and must never
/// be mistaken for one another), Aegis-rw reads Aegis-rw-p's (the two
/// share a key, so rw decides from a pair cache rw-p built), and rw-p
/// reads base Aegis's. Every other configuration gets the next one.
fn foreign_config(config: usize) -> usize {
    match config {
        0 => 1,
        1 => 2,
        2 => 0,
        _ => (config + 1) % CONFIGS.len(),
    }
}

/// Cache abuse: observations may be skipped entirely (a fault arrives that
/// the scratch never saw) or the scratch may be left warm from a different
/// policy. Both must self-heal — via the owner/prefix check — to the
/// reference verdict, never to a stale one.
#[test]
fn skipped_observations_and_foreign_scratch_self_heal() {
    Runner::new("skipped_observations_and_foreign_scratch_self_heal")
        .cases(1_000)
        .run(gen_case, shrink_case, |case| {
            let policy = build_policy(case.config, case.pointers);
            let foreign_config = foreign_config(case.config);
            let foreign = build_policy(foreign_config, case.pointers);
            let mut warm = PolicyScratch::new();
            policy.forget_block(&mut warm);
            let mut seen: Vec<Fault> = Vec::new();
            for (i, &fault) in case.faults.iter().enumerate() {
                seen.push(fault);
                // Observe only every other arrival; in between, let the
                // *other* policy stomp the scratch with its own content
                // (bounded by its block width so offsets stay in range).
                if i % 2 == 0 {
                    policy.observe_fault(&seen, &mut warm);
                } else {
                    let bits = CONFIGS[foreign_config].1;
                    let mut decoy: Vec<Fault> = Vec::new();
                    for f in &seen {
                        let offset = f.offset % bits;
                        if !decoy.iter().any(|d: &Fault| d.offset == offset) {
                            decoy.push(Fault::new(offset, f.stuck));
                        }
                    }
                    foreign.observe_fault(&decoy, &mut warm);
                }
                for &seed in &case.splits {
                    let wrong = split_for(seed, seen.len());
                    prop_assert_eq!(
                        policy.recoverable_with(&seen, &wrong, &mut warm),
                        policy.recoverable(&seen, &wrong),
                        "{} i={} faults={:?} wrong={:?}",
                        CONFIGS[case.config].0,
                        i,
                        &seen,
                        &wrong
                    );
                }
            }
            Ok(())
        });
}
