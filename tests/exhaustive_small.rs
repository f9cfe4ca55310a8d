//! Exhaustive verification on small geometries: for every rectangle with
//! `B ≤ 7`, every fault placement up to 3 faults, every stuck-value
//! assignment and every data word… is too much — but every *fault/split
//! combination* is not. This file checks the three Aegis predicates
//! against an independently written brute-force oracle (straight from the
//! paper's §2.2/§2.4 prose), and the codecs against the predicates, with
//! no sampling anywhere. RDIS-3's word-parallel verdict is held to its set
//! construction on every fault subset of small grids the same way, and the
//! incremental SAFER, masking and PLBC verdicts to their cold or scalar
//! references on every fault subset of a 15- or 16-bit block.

use aegis_pcm::aegis::{
    AegisCodec, AegisPolicy, AegisRwCodec, AegisRwPPolicy, AegisRwPolicy, Rectangle,
};
use aegis_pcm::baselines::{
    combinations, MaskingCodec, MaskingPolicy, PartitionSearch, PlbcCodec, PlbcPolicy, RdisPolicy,
    RdisScheme, SaferPolicy,
};
use aegis_pcm::bitblock::BitBlock;
use aegis_pcm::codec::StuckAtCodec;
use aegis_pcm::pcm::policy::{PolicyScratch, RecoveryPolicy};
use aegis_pcm::pcm::{Fault, PcmBlock};

/// Brute-force oracle for base Aegis (§2.2): some slope has ≤ 1 W fault
/// per group and no W/R mix; groups computed straight from the definition
/// `y = (b − a·k) mod B`.
fn oracle_base(rect: &Rectangle, faults: &[Fault], wrong: &[bool]) -> bool {
    (0..rect.slopes()).any(|k| {
        let mut w_in = vec![0usize; rect.groups()];
        let mut r_in = vec![0usize; rect.groups()];
        for (fault, &is_wrong) in faults.iter().zip(wrong) {
            let group = rect.group_of(fault.offset, k);
            if is_wrong {
                w_in[group] += 1;
            } else {
                r_in[group] += 1;
            }
        }
        (0..rect.groups()).all(|g| w_in[g] <= 1 && !(w_in[g] >= 1 && r_in[g] >= 1))
    })
}

/// Brute-force oracle for Aegis-rw (§2.4): some slope mixes no group.
fn oracle_rw(rect: &Rectangle, faults: &[Fault], wrong: &[bool]) -> bool {
    (0..rect.slopes()).any(|k| {
        let mut w_in = vec![false; rect.groups()];
        let mut r_in = vec![false; rect.groups()];
        for (fault, &is_wrong) in faults.iter().zip(wrong) {
            let group = rect.group_of(fault.offset, k);
            if is_wrong {
                w_in[group] = true;
            } else {
                r_in[group] = true;
            }
        }
        (0..rect.groups()).all(|g| !(w_in[g] && r_in[g]))
    })
}

/// Brute-force oracle for Aegis-rw-p: a mix-free slope whose W-groups or
/// R-groups fit in `p` pointers.
fn oracle_rw_p(rect: &Rectangle, faults: &[Fault], wrong: &[bool], pointers: usize) -> bool {
    (0..rect.slopes()).any(|k| {
        let mut w_in = vec![false; rect.groups()];
        let mut r_in = vec![false; rect.groups()];
        for (fault, &is_wrong) in faults.iter().zip(wrong) {
            let group = rect.group_of(fault.offset, k);
            if is_wrong {
                w_in[group] = true;
            } else {
                r_in[group] = true;
            }
        }
        if (0..rect.groups()).any(|g| w_in[g] && r_in[g]) {
            return false;
        }
        let w_groups = w_in.iter().filter(|&&x| x).count();
        let r_groups = r_in.iter().filter(|&&x| x).count();
        w_groups.min(r_groups) <= pointers
    })
}

fn small_rectangles() -> Vec<Rectangle> {
    let mut out = Vec::new();
    for b in [3usize, 5, 7] {
        for a in 2..=b {
            for bits in [a * b - 1, a * b] {
                if let Ok(rect) = Rectangle::new(a, b, bits) {
                    out.push(rect);
                }
            }
        }
    }
    out
}

/// Every (offsets ≤ 3, split) combination, exhaustively.
fn for_all_populations<F: FnMut(&Rectangle, &[Fault], &[bool])>(rect: &Rectangle, mut f: F) {
    let n = rect.bits();
    // 1, 2 and 3 faults; stuck values folded into the split choice (the
    // predicates never read `stuck`, and the codec check derives data from
    // the split, so stuck = false loses no generality for them).
    for o1 in 0..n {
        for split in 0..2u8 {
            let faults = [Fault::new(o1, false)];
            let wrong = [split & 1 == 1];
            f(rect, &faults, &wrong);
        }
        for o2 in (o1 + 1)..n {
            for split in 0..4u8 {
                let faults = [Fault::new(o1, false), Fault::new(o2, false)];
                let wrong = [split & 1 == 1, split & 2 == 2];
                f(rect, &faults, &wrong);
            }
            for o3 in (o2 + 1)..n.min(o2 + 6) {
                // Third fault from a window keeps the count tractable
                // while still covering same-group and cross-group trios.
                for split in 0..8u8 {
                    let faults = [
                        Fault::new(o1, false),
                        Fault::new(o2, false),
                        Fault::new(o3, false),
                    ];
                    let wrong = [split & 1 == 1, split & 2 == 2, split & 4 == 4];
                    f(rect, &faults, &wrong);
                }
            }
        }
    }
}

#[test]
fn predicates_match_brute_force_oracles_exhaustively() {
    for rect in small_rectangles() {
        let base = AegisPolicy::new(rect.clone());
        let rw = AegisRwPolicy::new(rect.clone());
        let rw_p: Vec<AegisRwPPolicy> = (1..=3)
            .map(|p| AegisRwPPolicy::new(rect.clone(), p))
            .collect();
        let mut scratch = PolicyScratch::new();
        for_all_populations(&rect, |rect, faults, wrong| {
            let want = oracle_base(rect, faults, wrong);
            assert_eq!(
                base.recoverable(faults, wrong),
                want,
                "base mismatch on {} {faults:?} {wrong:?}",
                rect.formation()
            );
            // The incremental verdict, from per-fault slope masks built
            // one arrival at a time.
            base.forget_block(&mut scratch);
            for n in 1..=faults.len() {
                base.observe_fault(&faults[..n], &mut scratch);
            }
            assert_eq!(
                base.recoverable_with(faults, wrong, &mut scratch),
                want,
                "incremental base mismatch on {} {faults:?} {wrong:?}",
                rect.formation()
            );
            assert_eq!(
                rw.recoverable(faults, wrong),
                oracle_rw(rect, faults, wrong),
                "rw mismatch on {} {faults:?} {wrong:?}",
                rect.formation()
            );
            for (p, policy) in rw_p.iter().enumerate() {
                assert_eq!(
                    policy.recoverable(faults, wrong),
                    oracle_rw_p(rect, faults, wrong, p + 1),
                    "rw-p({}) mismatch on {} {faults:?} {wrong:?}",
                    p + 1,
                    rect.formation()
                );
            }
        });
    }
}

/// RDIS's incremental verdict — per-line fault masks built one arrival at
/// a time — equals [`RdisScheme::build_sets`] on every fault subset of
/// small grids (faults arriving in offset order) under every W/R split,
/// at every recursion depth up to 3.
#[test]
fn rdis_verdicts_match_the_set_construction_on_every_subset() {
    for (rows, cols) in [(3, 3), (2, 4)] {
        for depth in 1..=3 {
            let scheme = RdisScheme::new(rows, cols, depth);
            let policy = RdisPolicy::new(scheme);
            let bits = scheme.block_bits();
            let mut scratch = PolicyScratch::new();
            let (mut recovered, mut died) = (0usize, 0usize);
            for subset in 0u32..1 << bits {
                policy.forget_block(&mut scratch);
                let mut faults = Vec::new();
                for offset in (0..bits).filter(|&o| subset >> o & 1 == 1) {
                    faults.push(Fault::new(offset, false));
                    policy.observe_fault(&faults, &mut scratch);
                }
                let cache = &scratch.pair_cache;
                assert!(cache.matches(cache.owner, &faults));
                for split in 0u32..1 << faults.len() {
                    let wrong: Vec<bool> = (0..faults.len()).map(|i| split >> i & 1 == 1).collect();
                    let want = scheme.build_sets(&faults, &wrong).is_some();
                    assert_eq!(
                        policy.recoverable_with(&faults, &wrong, &mut scratch),
                        want,
                        "RDIS-{depth} {rows}x{cols}: {faults:?} {wrong:?}"
                    );
                    if want {
                        recovered += 1;
                    } else {
                        died += 1;
                    }
                }
            }
            assert!(
                recovered > 0 && died > 0,
                "RDIS-{depth} {rows}x{cols} never changes its verdict"
            );
        }
    }
}

/// The W/R splits the SAFER pin tries on `f` faults (bit `i` set: fault
/// `i` is W): every one of the `2^f` splits up to [`EVERY_SPLIT_FAULTS`]
/// faults; past that, the all-R and all-W splits and every split with
/// exactly one W or exactly one R fault, since all `3^16` (population,
/// split) pairs per order, `m` and cache mode are more than a debug-build
/// suite can afford. The single-W and single-R splits put each fault's
/// group in both mixed states, so every shared group meets the cache-mode
/// "a shared W fault's group holds an R fault" test from both sides.
fn safer_pin_splits(f: usize) -> Vec<u32> {
    if f <= EVERY_SPLIT_FAULTS {
        return (0..1 << f).collect();
    }
    let all = u32::MAX >> (32 - f);
    let single_w = (0..f).map(|i| 1u32 << i);
    let single_r = (0..f).map(move |i| all & !(1u32 << i));
    [0, all]
        .into_iter()
        .chain(single_w)
        .chain(single_r)
        .collect()
}

/// Fault count up to which [`safer_pin_splits`] tries every split.
const EVERY_SPLIT_FAULTS: usize = 6;

/// SAFER's incremental verdict — per-group fault masks grown one arrival
/// at a time — equals the cold replay of the published vector growth on
/// every fault subset of a 16-bit block, fed in offset order and again in
/// reverse, with and without a fail cache, at width `m`: the warm
/// guarantee equals the cold one, and the warm verdict the cold one under
/// every split of up to [`EVERY_SPLIT_FAULTS`] faults and every split with
/// at most one W or at most one R fault past it.
fn check_safer_incremental_on_every_subset(m: usize) {
    const BITS: usize = 16;
    for cache in [false, true] {
        let policy = SaferPolicy::with_search(m, BITS, cache, PartitionSearch::Incremental);
        let name = policy.name();
        let mut scratch = PolicyScratch::new();
        let mut faults = Vec::with_capacity(BITS);
        let mut wrong = Vec::with_capacity(BITS);
        let (mut recovered, mut died) = (0usize, 0usize);
        for subset in 0u32..1 << BITS {
            for reversed in [false, true] {
                let mut offsets: Vec<usize> = (0..BITS).filter(|&o| subset >> o & 1 == 1).collect();
                if reversed {
                    offsets.reverse();
                }
                policy.forget_block(&mut scratch);
                faults.clear();
                for offset in offsets {
                    faults.push(Fault::new(offset, false));
                    policy.observe_fault(&faults, &mut scratch);
                }
                let cache = &scratch.pair_cache;
                assert!(cache.matches(cache.owner, &faults));
                assert_eq!(
                    policy.guaranteed_with(&faults, &mut scratch),
                    policy.guaranteed(&faults),
                    "{name}/{BITS} guarantee: {faults:?}"
                );
                for split in safer_pin_splits(faults.len()) {
                    wrong.clear();
                    wrong.extend((0..faults.len()).map(|i| split >> i & 1 == 1));
                    let want = policy.recoverable(&faults, &wrong);
                    assert_eq!(
                        policy.recoverable_with(&faults, &wrong, &mut scratch),
                        want,
                        "{name}/{BITS}: {faults:?} {wrong:?}"
                    );
                    if want {
                        recovered += 1;
                    } else {
                        died += 1;
                    }
                }
            }
        }
        assert!(
            recovered > 0 && died > 0,
            "{name}/{BITS} never changes its verdict"
        );
    }
}

/// The SAFER-incremental pin at `m = 2`, one test per width so the two
/// widths run in parallel.
#[test]
fn safer_incremental_verdicts_match_the_cold_replay_on_every_subset_at_m2() {
    check_safer_incremental_on_every_subset(2);
}

/// The SAFER-incremental pin at `m = 3`.
#[test]
fn safer_incremental_verdicts_match_the_cold_replay_on_every_subset_at_m3() {
    check_safer_incremental_on_every_subset(3);
}

/// The W/R splits the masking and PLBC pins try on `f` faults: every
/// split up to 3 faults; past that, the all-R and all-W splits and, with
/// `single_w`, every split with exactly one W fault (whose syndrome is that
/// fault's own dependency column). The per-bit scalar references solve
/// one linear system per split — PLBC's one per flip set — so a debug
/// build affords only a few splits per subset on all `2^15` subsets.
fn masking_pin_splits(f: usize, single_w: bool) -> Vec<u32> {
    if f <= 3 {
        return (0..1 << f).collect();
    }
    let mut splits = vec![0, u32::MAX >> (32 - f)];
    if single_w {
        splits.extend((0..f).map(|i| 1u32 << i));
    }
    splits
}

/// Masking's and PLBC's incremental verdicts — dependency columns grown one
/// arrival at a time — equal the per-bit scalar reference on every fault
/// subset of a 15-bit block (one full GF(2^4) field), fed in offset order:
/// the warm verdict equals the reference's under [`masking_pin_splits`],
/// and the warm guarantee the reference's on every population of at most
/// `guarantee_faults` faults.
fn check_masking_family_on_every_subset(
    policy: &dyn RecoveryPolicy,
    reference: &dyn RecoveryPolicy,
    guarantee_faults: usize,
    single_w: bool,
) {
    const BITS: usize = 15;
    let name = policy.name();
    assert_eq!(name, reference.name());
    let mut scratch = PolicyScratch::new();
    let mut faults = Vec::with_capacity(BITS);
    let mut wrong = Vec::with_capacity(BITS);
    let (mut recovered, mut died) = (0usize, 0usize);
    for subset in 0u32..1 << BITS {
        policy.forget_block(&mut scratch);
        faults.clear();
        for offset in (0..BITS).filter(|&o| subset >> o & 1 == 1) {
            faults.push(Fault::new(offset, false));
            policy.observe_fault(&faults, &mut scratch);
        }
        let cache = &scratch.pair_cache;
        assert!(cache.matches(cache.owner, &faults));
        if faults.len() <= guarantee_faults {
            assert_eq!(
                policy.guaranteed_with(&faults, &mut scratch),
                reference.guaranteed(&faults),
                "{name}/{BITS} guarantee: {faults:?}"
            );
        }
        for split in masking_pin_splits(faults.len(), single_w) {
            wrong.clear();
            wrong.extend((0..faults.len()).map(|i| split >> i & 1 == 1));
            let want = reference.recoverable(&faults, &wrong);
            assert_eq!(
                policy.recoverable_with(&faults, &wrong, &mut scratch),
                want,
                "{name}/{BITS}: {faults:?} {wrong:?}"
            );
            if want {
                recovered += 1;
            } else {
                died += 1;
            }
        }
    }
    assert!(
        recovered > 0 && died > 0,
        "{name}/{BITS} never changes its verdict"
    );
}

/// The masking pin at `t = 1`, with the guarantee on every subset (the
/// reference's is a rank test) and every single-W split.
#[test]
fn masking_incremental_verdicts_match_the_scalar_reference_on_every_subset_at_t1() {
    check_masking_family_on_every_subset(
        &MaskingPolicy::new(1, 15),
        &MaskingPolicy::scalar(1, 15),
        15,
        true,
    );
}

/// The masking pin at `t = 2`.
#[test]
fn masking_incremental_verdicts_match_the_scalar_reference_on_every_subset_at_t2() {
    check_masking_family_on_every_subset(
        &MaskingPolicy::new(2, 15),
        &MaskingPolicy::scalar(2, 15),
        15,
        true,
    );
}

/// The PLBC pin at `t = 1`, `e = 1, 2`. The reference's guarantee
/// enumerates `2^f` scalar splits, so it is pinned up to 4 faults (past the
/// rank of `t = 1`'s 4-row matrix, so some populations carry a
/// dependency); a single W fault is always within a pointer's reach, so
/// only the all-R and all-W splits run past 3 faults.
#[test]
fn plbc_incremental_verdicts_match_the_scalar_reference_on_every_subset_at_t1() {
    for e in [1, 2] {
        check_masking_family_on_every_subset(
            &PlbcPolicy::new(1, e, 15),
            &PlbcPolicy::scalar(1, e, 15),
            4,
            false,
        );
    }
}

/// The PLBC pin at `t = 2`, `e = 1, 2`.
#[test]
fn plbc_incremental_verdicts_match_the_scalar_reference_on_every_subset_at_t2() {
    for e in [1, 2] {
        check_masking_family_on_every_subset(
            &PlbcPolicy::new(2, e, 15),
            &PlbcPolicy::scalar(2, e, 15),
            5,
            false,
        );
    }
}

#[test]
fn codecs_match_predicates_exhaustively_on_one_geometry() {
    // Physical round-trips are slower; exhaust one representative
    // rectangle. Stuck values and data are derived from the split
    // (stuck = 0; data bit = wrong at fault offsets, 0 elsewhere).
    let rect = Rectangle::new(4, 5, 20).unwrap();
    let base_policy = AegisPolicy::new(rect.clone());
    let rw_policy = AegisRwPolicy::new(rect.clone());
    for_all_populations(&rect, |rect, faults, wrong| {
        let mut data = BitBlock::zeros(rect.bits());
        let mut block = PcmBlock::pristine(rect.bits());
        for (fault, &is_wrong) in faults.iter().zip(wrong) {
            block.force_stuck(fault.offset, false);
            data.set(fault.offset, is_wrong); // stuck 0: wrong ⇔ data 1
        }
        let mut base = AegisCodec::new(rect.clone());
        assert_eq!(
            base.write(&mut block.clone(), &data).is_ok(),
            base_policy.recoverable(faults, wrong),
            "base codec mismatch {faults:?} {wrong:?}"
        );
        let mut rw = AegisRwCodec::new(rect.clone());
        let mut rw_block = block.clone();
        let rw_ok = rw.write(&mut rw_block, &data).is_ok();
        assert_eq!(
            rw_ok,
            rw_policy.recoverable(faults, wrong),
            "rw codec mismatch {faults:?} {wrong:?}"
        );
        if rw_ok {
            assert_eq!(rw.read(&rw_block), data);
        }
    });
}

/// Injects `offsets` as stuck-at faults: stuck value = bit `i` of
/// `values`, fully stuck when bit `i` of `partial` is clear and partially
/// stuck (weak-write probability 1/2) when set. The functional worst-case
/// model treats both kinds identically, so the codecs must too.
fn inject(block: &mut PcmBlock, offsets: &[usize], values: u32, partial: u32) {
    for (i, &offset) in offsets.iter().enumerate() {
        let value = values >> i & 1 == 1;
        if partial >> i & 1 == 1 {
            block.force_partially_stuck(offset, value, 128);
        } else {
            block.force_stuck(offset, value);
        }
    }
}

/// The additive-masking guarantee, exhaustively: on every block width
/// `n ≤ 8` with `t ∈ {1, 2}` row-blocks, every placement of `u ≤ 2t`
/// stuck cells, every stuck-value assignment, both stuckness kinds and
/// **every** `2^n` data word round-trips through [`MaskingCodec`] — the
/// `u ≤ d − 1 = 2t` capability bound of the BCH construction, with no
/// sampling anywhere.
#[test]
fn masking_codec_round_trips_every_message_under_the_distance_bound() {
    for (n, t) in [(7usize, 1usize), (8, 1), (8, 2)] {
        for u in 0..=(2 * t) {
            for offsets in combinations(n, u) {
                for values in 0..1u32 << u {
                    // All-full and alternating-partial stuckness: partial
                    // cells must be indistinguishable from full ones to
                    // the codec (the worst-case functional model).
                    for partial in [0u32, 0b0101_0101 & ((1 << u) - 1)] {
                        let mut template = PcmBlock::pristine(n);
                        inject(&mut template, &offsets, values, partial);
                        for message in 0..1u32 << n {
                            let data = BitBlock::from_fn(n, |i| message >> i & 1 == 1);
                            let mut block = template.clone();
                            let mut codec = MaskingCodec::new(t, n);
                            codec.write(&mut block, &data).unwrap_or_else(|e| {
                                panic!(
                                    "Mask{t}/{n}: u={u} {offsets:?} v={values:#b} \
                                         p={partial:#b} msg={message:#b} must mask: {e}"
                                )
                            });
                            assert_eq!(
                                codec.read(&block),
                                data,
                                "Mask{t}/{n}: {offsets:?} v={values:#b} msg={message:#b}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The bound is *tight*: at `n = 15` (one full GF(2^4) field, `d = 2t+1`)
/// a placement of `d = 2t + 1` stuck cells and a message exist that
/// Mask-t cannot store. Exhibits a concrete witness for t = 1 and t = 2
/// by exhaustive search over placements and stuck values.
#[test]
fn masking_distance_bound_is_tight_at_one_full_field() {
    let n = 15;
    for t in [1usize, 2] {
        let u = 2 * t + 1;
        let witness = combinations(n, u).into_iter().any(|offsets| {
            (0..1u32 << u).any(|values| {
                let mut block = PcmBlock::pristine(n);
                inject(&mut block, &offsets, values, 0);
                // The all-zeros message suffices: failure only depends on
                // the wrong-cell pattern, and the stuck values sweep it.
                let data = BitBlock::zeros(n);
                let mut codec = MaskingCodec::new(t, n);
                codec.write(&mut block, &data).is_err()
            })
        });
        assert!(witness, "Mask{t}/{n} must fail somewhere at u = {u} = d");
    }
}

/// The partitioned linear code's pointer budget is real capability: on
/// every width `n ≤ 8`, PLC(t, e) round-trips every message under every
/// placement of `u ≤ 2t + e` stuck cells — each pointer repairs one cell
/// outright, the mask guarantees the remaining `2t`. Writes that succeed
/// must also read back exactly, and never spend more than `e` pointers.
#[test]
fn plbc_codec_round_trips_every_message_with_pointer_extension() {
    for (n, t, e) in [(7usize, 1usize, 1usize), (8, 1, 2)] {
        for u in 0..=(2 * t + e) {
            for offsets in combinations(n, u) {
                for values in 0..1u32 << u {
                    for partial in [0u32, 0b0101_0101 & ((1 << u) - 1)] {
                        let mut template = PcmBlock::pristine(n);
                        inject(&mut template, &offsets, values, partial);
                        for message in 0..1u32 << n {
                            let data = BitBlock::from_fn(n, |i| message >> i & 1 == 1);
                            let mut block = template.clone();
                            let mut codec = PlbcCodec::new(t, e, n);
                            codec.write(&mut block, &data).unwrap_or_else(|err| {
                                panic!(
                                    "PLC{t}+{e}/{n}: u={u} {offsets:?} v={values:#b} \
                                         msg={message:#b} must store: {err}"
                                )
                            });
                            assert!(codec.entries_used() <= e);
                            assert_eq!(
                                codec.read(&block),
                                data,
                                "PLC{t}+{e}/{n}: {offsets:?} v={values:#b} msg={message:#b}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Every valid formation whose block fits in one machine word, full and
/// ragged: for each prime `B ≤ 61` and each `A ≤ B`, the complete
/// `A·B`-bit block, the one-bit-ragged block, and — when `A·B > 64` — the
/// 64-bit block (the paper-style truncated rectangle, e.g. 9×61/512's
/// word-sized cousin).
fn single_word_rectangles() -> Vec<Rectangle> {
    let primes = [
        3usize, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    ];
    let mut out = Vec::new();
    for b in primes {
        for a in 1..=b {
            let mut sizes = vec![64];
            if a * b >= 1 {
                sizes.push(a * b);
                sizes.push(a * b - 1);
            }
            sizes.retain(|&bits| (1..=64).contains(&bits) && bits <= a * b);
            sizes.sort_unstable();
            sizes.dedup();
            for bits in sizes {
                if let Ok(rect) = Rectangle::new(a, b, bits) {
                    out.push(rect);
                }
            }
        }
    }
    out
}

/// The precomputed mask ROMs agree with [`Rectangle::group_members`] on
/// every `(slope, group)` of every single-word geometry — the word-level
/// kernels' entire view of the partition, checked against the arithmetic
/// definition with no sampling.
#[test]
fn shift_rom_masks_equal_group_members_on_every_single_word_geometry() {
    use aegis_pcm::aegis::rom::{InversionRom, ShiftRom};
    let rects = single_word_rectangles();
    assert!(rects.len() > 500, "enumeration collapsed: {}", rects.len());
    for rect in &rects {
        let shift = ShiftRom::new(rect);
        let inv_rom = InversionRom::new(rect);
        assert_eq!(shift.bits(), rect.bits());
        assert_eq!(shift.words_per_mask(), 1, "{rect:?} fits one word");
        for slope in 0..rect.slopes() {
            for group in 0..rect.groups() {
                let expect = BitBlock::from_indices(rect.bits(), rect.group_members(slope, group));
                assert_eq!(
                    shift.mask_words(slope, group),
                    expect.as_words(),
                    "ShiftRom mask {}x{}/{} slope {slope} group {group}",
                    rect.a(),
                    rect.b(),
                    rect.bits()
                );
                assert_eq!(
                    inv_rom.group_mask(slope, group),
                    &expect,
                    "InversionRom mask {}x{}/{} slope {slope} group {group}",
                    rect.a(),
                    rect.b(),
                    rect.bits()
                );
            }
        }
    }
}

/// [`ShiftRom::inversion_mask`] round-trips against per-point
/// [`Rectangle::group_of`]: for a set of structured inversion vectors on
/// every single-word geometry (and *all* `2^B` vectors when `B ≤ 7`), the
/// expanded mask selects exactly the offsets whose group bit is set, and
/// the `GroupRom` table agrees with the arithmetic at every offset.
#[test]
fn shift_rom_inversion_masks_round_trip_through_group_of() {
    use aegis_pcm::aegis::rom::{GroupRom, ShiftRom};
    for rect in single_word_rectangles() {
        let shift = ShiftRom::new(&rect);
        let groups_rom = GroupRom::new(&rect);
        let groups = rect.groups();
        let mut vectors: Vec<BitBlock> = vec![
            BitBlock::zeros(groups),
            BitBlock::ones_block(groups),
            BitBlock::from_fn(groups, |g| g % 2 == 0),
            BitBlock::from_fn(groups, |g| g % 3 == 1),
        ];
        if groups <= 7 {
            vectors = (0..1u32 << groups)
                .map(|v| BitBlock::from_fn(groups, |g| (v >> g) & 1 == 1))
                .collect();
        }
        let mut out = BitBlock::zeros(rect.bits());
        for slope in 0..rect.slopes() {
            for inversion in &vectors {
                shift.inversion_mask_into(slope, inversion, &mut out);
                for offset in 0..rect.bits() {
                    let group = rect.group_of(offset, slope);
                    assert_eq!(groups_rom.group_of(offset, slope), group);
                    assert_eq!(
                        out.get(offset),
                        inversion.get(group),
                        "{}x{}/{} slope {slope} offset {offset}",
                        rect.a(),
                        rect.b(),
                        rect.bits()
                    );
                }
                assert_eq!(&shift.inversion_mask(slope, inversion), &out);
            }
        }
    }
}
