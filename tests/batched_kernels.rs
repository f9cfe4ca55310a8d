//! Differential property suite for the cross-block batched kernels:
//! on random geometries, lane counts, lane occupancies and fault
//! populations,
//!
//! 1. [`predicate_batch`] must agree lane for lane with
//!    [`predicate_single`] *and* with the `O(f²)` pair policies
//!    ([`AegisPolicy`] under [`PairRule::AnyWrong`], [`AegisRwPolicy`]
//!    under [`PairRule::Mixed`]) — three independent formulations of the
//!    same recoverability question;
//! 2. [`encode_batch`] must produce, lane for lane, the codeword of
//!    [`encode_single`] and of a naive scalar reference that XORs the
//!    selected [`ShiftRom`] group masks one at a time.
//!
//! Failures shrink toward fewer lanes and fewer faults via the in-tree
//! `sim_rng::prop` harness; CI runs the suite with
//! `SIM_PROP_CASES=10000` (see `scripts/verify.sh`). The Monte Carlo
//! engine has no batched path: its page-major pass is pinned against a
//! per-policy reference in `tests/page_major.rs`, and the cross-process
//! twin (`SIM_FORCE_SCALAR` through the experiments CLI) lives in
//! `crates/experiments/tests/`.

use aegis_pcm::aegis::batch::{
    encode_batch, encode_single, fault_masks, predicate_batch, predicate_single, FaultBatch,
    PairRule,
};
use aegis_pcm::aegis::rom::ShiftRom;
use aegis_pcm::aegis::{AegisPolicy, AegisRwPolicy, Rectangle};
use aegis_pcm::bitblock::{BatchBitBlock, BitBlock};
use aegis_pcm::pcm::policy::RecoveryPolicy;
use aegis_pcm::pcm::Fault;
use sim_rng::prop::{shrink, Runner};
use sim_rng::{prop_assert_eq, Rng, SeedableRng, SmallRng};

/// Valid `(A, B, bits)` formations the kernel generators draw from —
/// small enough to shrink well, wide enough to cross word boundaries,
/// up through the 512-bit paper formation that the batch bench gates.
const GEOMETRIES: &[(usize, usize, usize)] = &[
    (1, 3, 3),
    (2, 3, 5),
    (3, 5, 13),
    (4, 5, 17),
    (5, 7, 32),
    (5, 7, 35),
    (7, 11, 71),
    (9, 13, 112),
    (9, 61, 512),
];

/// One per-lane fault population: distinct offsets plus a W/R split.
#[derive(Debug, Clone)]
struct LanePopulation {
    faults: Vec<Fault>,
    wrong: Vec<bool>,
}

/// One batched-predicate trial: a formation and one population per lane
/// (possibly empty — random lane occupancy is part of the contract).
#[derive(Debug, Clone)]
struct PredicateCase {
    geometry: usize,
    lanes: Vec<LanePopulation>,
}

fn gen_lane(rng: &mut SmallRng, bits: usize) -> LanePopulation {
    let n = rng.random_range(0..=8usize.min(bits));
    let mut offsets: Vec<usize> = Vec::with_capacity(n);
    while offsets.len() < n {
        let offset = rng.random_range(0..bits);
        if !offsets.contains(&offset) {
            offsets.push(offset);
        }
    }
    let faults: Vec<Fault> = offsets
        .into_iter()
        .map(|offset| Fault::new(offset, rng.random_bool(0.5)))
        .collect();
    let wrong = (0..faults.len()).map(|_| rng.random()).collect();
    LanePopulation { faults, wrong }
}

fn gen_predicate_case(rng: &mut SmallRng) -> PredicateCase {
    let geometry = rng.random_range(0..GEOMETRIES.len());
    let bits = GEOMETRIES[geometry].2;
    // 1..=17 crosses every chunk width (8/4/2) with ragged remainders.
    let lanes = (0..rng.random_range(1..=17usize))
        .map(|_| gen_lane(rng, bits))
        .collect();
    PredicateCase { geometry, lanes }
}

fn shrink_predicate_case(case: &PredicateCase) -> Vec<PredicateCase> {
    let mut out = Vec::new();
    // Fewer lanes first, then fewer faults within each lane.
    for lanes in shrink::vec(&case.lanes, shrink::none) {
        if !lanes.is_empty() {
            out.push(PredicateCase {
                geometry: case.geometry,
                lanes,
            });
        }
    }
    for (l, lane) in case.lanes.iter().enumerate() {
        for keep in (0..lane.faults.len()).rev() {
            let mut lanes = case.lanes.clone();
            lanes[l] = LanePopulation {
                faults: lane.faults[..keep].to_vec(),
                wrong: lane.wrong[..keep].to_vec(),
            };
            out.push(PredicateCase {
                geometry: case.geometry,
                lanes,
            });
        }
    }
    out
}

#[test]
fn batched_predicate_matches_single_and_the_pair_policies() {
    Runner::new("batched_predicate_matches_single_and_the_pair_policies")
        .cases(1_000)
        .run(gen_predicate_case, shrink_predicate_case, |case| {
            let (a, b, bits) = GEOMETRIES[case.geometry];
            let rect = Rectangle::new(a, b, bits).expect("valid formation");
            let shift = ShiftRom::new(&rect);
            let aegis = AegisPolicy::new(rect.clone());
            let aegis_rw = AegisRwPolicy::new(rect);

            let mut batch = FaultBatch::zeros(bits, case.lanes.len());
            for (l, lane) in case.lanes.iter().enumerate() {
                batch.set_lane(l, &lane.faults, &lane.wrong);
            }
            let mut verdicts = vec![false; case.lanes.len()];
            for rule in [PairRule::AnyWrong, PairRule::Mixed] {
                predicate_batch(&shift, &batch, rule, &mut verdicts);
                for (l, lane) in case.lanes.iter().enumerate() {
                    let (f, w) = fault_masks(bits, &lane.faults, &lane.wrong);
                    prop_assert_eq!(
                        verdicts[l],
                        predicate_single(&shift, &f, &w, rule),
                        "lane {} diverged from the single-block kernel under {:?}",
                        l,
                        rule
                    );
                    let policy_verdict = match rule {
                        PairRule::AnyWrong => aegis.recoverable(&lane.faults, &lane.wrong),
                        PairRule::Mixed => aegis_rw.recoverable(&lane.faults, &lane.wrong),
                    };
                    prop_assert_eq!(
                        verdicts[l],
                        policy_verdict,
                        "lane {} diverged from the pair policy under {:?}",
                        l,
                        rule
                    );
                }
            }
            Ok(())
        });
}

/// One batched-encode trial: a formation, a slope, and per-lane
/// inversion vectors plus data words.
#[derive(Debug, Clone)]
struct EncodeCase {
    geometry: usize,
    slope: usize,
    lane_seeds: Vec<u64>,
}

fn gen_encode_case(rng: &mut SmallRng) -> EncodeCase {
    let geometry = rng.random_range(0..GEOMETRIES.len());
    let slopes = GEOMETRIES[geometry].0;
    EncodeCase {
        geometry,
        slope: rng.random_range(0..slopes),
        lane_seeds: (0..rng.random_range(1..=17usize))
            .map(|_| rng.random())
            .collect(),
    }
}

fn shrink_encode_case(case: &EncodeCase) -> Vec<EncodeCase> {
    shrink::vec(&case.lane_seeds, shrink::none)
        .into_iter()
        .filter(|seeds| !seeds.is_empty())
        .map(|lane_seeds| EncodeCase {
            lane_seeds,
            ..case.clone()
        })
        .collect()
}

#[test]
fn batched_encode_matches_single_and_a_naive_rom_reference() {
    Runner::new("batched_encode_matches_single_and_a_naive_rom_reference")
        .cases(1_000)
        .run(gen_encode_case, shrink_encode_case, |case| {
            let (a, b, bits) = GEOMETRIES[case.geometry];
            let rect = Rectangle::new(a, b, bits).expect("valid formation");
            let shift = ShiftRom::new(&rect);
            let lanes = case.lane_seeds.len();

            let mut inversions = BatchBitBlock::zeros(shift.groups(), lanes);
            let mut data = BatchBitBlock::zeros(bits, lanes);
            let mut lane_inversions = Vec::with_capacity(lanes);
            let mut lane_data = Vec::with_capacity(lanes);
            for (l, &seed) in case.lane_seeds.iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(seed);
                let v = BitBlock::random_with_density(&mut rng, shift.groups(), 0.3);
                let d = BitBlock::random(&mut rng, bits);
                inversions.load_lane(l, &v);
                data.load_lane(l, &d);
                lane_inversions.push(v);
                lane_data.push(d);
            }

            let mut out = BatchBitBlock::zeros(bits, lanes);
            encode_batch(&shift, case.slope, &inversions, &data, &mut out);

            let mut single = BitBlock::zeros(bits);
            for l in 0..lanes {
                encode_single(
                    &shift,
                    case.slope,
                    &lane_inversions[l],
                    &lane_data[l],
                    &mut single,
                );
                let got = out.lane(l);
                prop_assert_eq!(
                    got.as_words(),
                    single.as_words(),
                    "lane {} diverged from the single-block kernel",
                    l
                );
                // Naive scalar reference: XOR the selected group masks
                // one at a time.
                let mut naive = lane_data[l].clone();
                for g in lane_inversions[l].ones() {
                    naive.xor_words(shift.mask_words(case.slope, g));
                }
                prop_assert_eq!(
                    got.as_words(),
                    naive.as_words(),
                    "lane {} diverged from the naive ROM reference",
                    l
                );
            }
            Ok(())
        });
}
