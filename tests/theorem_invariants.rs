//! The paper's theorems and guarantees as executable properties, checked
//! over randomly drawn rectangle formations (not just the ones the paper
//! uses).

use aegis_pcm::aegis::primes::{is_prime, next_prime_at_least};
use aegis_pcm::aegis::rom::{CollisionRom, GroupRom, InversionRom};
use aegis_pcm::aegis::{AegisCodec, AegisRwPolicy, Rectangle};
use aegis_pcm::baselines::{MaskingPolicy, PlbcPolicy};
use aegis_pcm::bitblock::BitBlock;
use aegis_pcm::codec::StuckAtCodec;
use aegis_pcm::pcm::policy::RecoveryPolicy;
use aegis_pcm::pcm::{sample_split_for, Fault, PcmBlock, Stuckness};
use sim_rng::prop::{shrink, Runner};
use sim_rng::{prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};

/// Generator: a random valid rectangle — prime B in [5, 61], A in [2, B],
/// bits filling most of it — retrying draws the constructor rejects
/// (mirrors the old `prop_filter_map`).
fn rectangle(rng: &mut SmallRng) -> Rectangle {
    loop {
        let b = next_prime_at_least(rng.random_range(5..62usize));
        let a = 2 + rng.random_range(2..62usize) % (b - 1);
        let slack = rng.random_range(1..30usize);
        let bits = (a * b).saturating_sub(slack % (a * b / 2 + 1)).max(a + 1);
        if let Ok(rect) = Rectangle::new(a, b, bits) {
            return rect;
        }
    }
}

/// Generator: a rectangle plus a data/fault seed for the tests that also
/// draw random offsets and words.
fn rectangle_and_seed(rng: &mut SmallRng) -> (Rectangle, u64) {
    (rectangle(rng), rng.random())
}

/// Theorem 1: under every slope, every bit belongs to exactly one
/// group, and `group_of` agrees with `group_members`.
#[test]
fn theorem1_partition_is_total_and_disjoint() {
    Runner::new("theorem1_partition_is_total_and_disjoint")
        .cases(64)
        .run(rectangle, shrink::none, |rect| {
            for slope in 0..rect.slopes() {
                let mut seen = vec![false; rect.bits()];
                for group in 0..rect.groups() {
                    for offset in rect.group_members(slope, group) {
                        prop_assert!(!seen[offset]);
                        seen[offset] = true;
                        prop_assert_eq!(rect.group_of(offset, slope), group);
                    }
                }
                prop_assert!(seen.into_iter().all(|s| s));
            }
            Ok(())
        });
}

/// Theorem 2: any two bits share a group under at most one slope, and
/// `collision_slope` names exactly that slope.
#[test]
fn theorem2_at_most_one_shared_slope() {
    Runner::new("theorem2_at_most_one_shared_slope")
        .cases(64)
        .run(rectangle_and_seed, shrink::none, |(rect, seed)| {
            let mut rng = SmallRng::seed_from_u64(*seed);
            for _ in 0..64 {
                let o1 = rng.random_range(0..rect.bits());
                let o2 = rng.random_range(0..rect.bits());
                if o1 == o2 {
                    continue;
                }
                let shared: Vec<usize> = (0..rect.slopes())
                    .filter(|&k| rect.group_of(o1, k) == rect.group_of(o2, k))
                    .collect();
                prop_assert!(shared.len() <= 1);
                prop_assert_eq!(rect.collision_slope(o1, o2), shared.first().copied());
            }
            Ok(())
        });
}

/// §2.2: with `f ≤ hard FTC` faults, at most `C(f,2)` slopes can be
/// poisoned, so a collision-free configuration always exists and the
/// codec must accept *any* data word.
#[test]
fn hard_ftc_writes_never_fail() {
    Runner::new("hard_ftc_writes_never_fail").cases(64).run(
        rectangle_and_seed,
        shrink::none,
        |(rect, seed)| {
            let mut rng = SmallRng::seed_from_u64(*seed);
            let f = rect.hard_ftc().min(rect.bits() / 2);
            let mut block = PcmBlock::pristine(rect.bits());
            let mut placed = Vec::new();
            while placed.len() < f {
                let o = rng.random_range(0..rect.bits());
                if !placed.contains(&o) {
                    placed.push(o);
                    block.force_stuck(o, rng.random());
                }
            }
            let mut codec = AegisCodec::new(rect.clone());
            for _ in 0..4 {
                let data = BitBlock::random(&mut rng, rect.bits());
                let report = codec.write(&mut block, &data);
                prop_assert!(
                    report.is_ok(),
                    "hard FTC violated: {f} faults on {}",
                    rect.formation()
                );
                prop_assert_eq!(codec.read(&block), data);
            }
            Ok(())
        },
    );
}

/// §2.4: Aegis-rw needs at most `f_W·f_R + 1` candidate slopes, so any
/// split with `f_W·f_R < B` is recoverable.
#[test]
fn rw_slope_budget_guarantee() {
    Runner::new("rw_slope_budget_guarantee").cases(64).run(
        rectangle_and_seed,
        shrink::none,
        |(rect, seed)| {
            let mut rng = SmallRng::seed_from_u64(*seed);
            let policy = AegisRwPolicy::new(rect.clone());
            // Pick f_W and f_R with product < B.
            let fw = 1 + rng.random_range(0..3usize);
            let max_fr = (rect.b() - 1) / fw;
            let fr = 1 + rng.random_range(0..max_fr.min(4));
            let total = (fw + fr).min(rect.bits());
            let mut offsets = Vec::new();
            while offsets.len() < total {
                let o = rng.random_range(0..rect.bits());
                if !offsets.contains(&o) {
                    offsets.push(o);
                }
            }
            let faults: Vec<Fault> = offsets.iter().map(|&o| Fault::new(o, false)).collect();
            let wrong: Vec<bool> = (0..total).map(|i| i < fw.min(total)).collect();
            prop_assert!(
                policy.recoverable(&faults, &wrong),
                "fw={fw} fr={fr} must be within {}'s rw budget",
                rect.formation()
            );
            Ok(())
        },
    );
}

/// The ROM structures are pure tabulations of the geometry.
#[test]
fn roms_agree_with_geometry() {
    Runner::new("roms_agree_with_geometry")
        .cases(64)
        .run(rectangle, shrink::none, |rect| {
            let group_rom = GroupRom::new(rect);
            let inv_rom = InversionRom::new(rect);
            let coll_rom = CollisionRom::new(rect);
            for slope in 0..rect.slopes() {
                for offset in (0..rect.bits()).step_by(7) {
                    prop_assert_eq!(
                        group_rom.group_of(offset, slope),
                        rect.group_of(offset, slope)
                    );
                }
                // Masks must partition the block.
                let mut union = BitBlock::zeros(rect.bits());
                for group in 0..rect.groups() {
                    union |= inv_rom.group_mask(slope, group);
                }
                prop_assert_eq!(union.count_ones(), rect.bits());
            }
            for o1 in (0..rect.bits()).step_by(5) {
                for o2 in (1..rect.bits()).step_by(11) {
                    if o1 != o2 {
                        prop_assert_eq!(
                            coll_rom.collision_slope(o1, o2),
                            rect.collision_slope(o1, o2)
                        );
                    }
                }
            }
            Ok(())
        });
}

/// Generator: a mixed fully/partially stuck population on a 512-bit block
/// plus a W/R split. The partially-stuck fraction is itself drawn at
/// random (0–100%) so the masking invariants are exercised across the
/// whole fig8 sweep range, not just the endpoints.
fn mixed_population(rng: &mut SmallRng) -> (Vec<Fault>, Vec<bool>) {
    let count = rng.random_range(0..=14usize);
    let partial_percent = rng.random_range(0..=100u32);
    let mut offsets: Vec<usize> = Vec::with_capacity(count);
    while offsets.len() < count {
        let offset = rng.random_range(0..512usize);
        if !offsets.contains(&offset) {
            offsets.push(offset);
        }
    }
    let faults = offsets
        .into_iter()
        .map(|offset| {
            let stuck = rng.random();
            if rng.random_range(0..100u32) < partial_percent {
                Fault::partial(offset, stuck, rng.random())
            } else {
                Fault::new(offset, stuck)
            }
        })
        .collect();
    let wrong = (0..count).map(|_| rng.random()).collect();
    (faults, wrong)
}

/// Generator: a mixed population plus a sampling seed for the tests that
/// replay `sample_split_for` under common random numbers.
fn mixed_population_and_seed(rng: &mut SmallRng) -> (Vec<Fault>, u64) {
    (mixed_population(rng).0, rng.random())
}

/// Masking-redundancy monotonicity: `Mask t ⊆ Mask t+1` on every fault
/// population and split — at any partially-stuck fraction — because the
/// t-row-block mask space is a subspace of the (t+1)-row one. The distance
/// guarantee (`u ≤ 2t` is always accepted) and the pointer extension
/// (`PLC t+e ⊇ Mask t`) are pinned on the same populations.
#[test]
fn masking_redundancy_is_monotone_at_any_partially_stuck_fraction() {
    Runner::new("masking_redundancy_is_monotone_at_any_partially_stuck_fraction")
        .cases(128)
        .run(mixed_population, shrink::none, |(faults, wrong)| {
            let mut previous = false;
            for t in 1..=6usize {
                let now = MaskingPolicy::new(t, 512).recoverable(faults, wrong);
                prop_assert!(
                    !previous || now,
                    "Mask{} accepted a split Mask{t} rejects",
                    t - 1
                );
                if faults.len() <= 2 * t {
                    prop_assert!(now, "distance bound violated at t={t}");
                }
                // A pointer budget only ever widens the accepted set.
                if now {
                    prop_assert!(
                        PlbcPolicy::new(t, 1, 512).recoverable(faults, wrong),
                        "PLC{t}+1 rejected a split Mask{t} accepts"
                    );
                }
                previous = now;
            }
            Ok(())
        });
}

/// The partially-stuck refinement is deterministic under a fixed seed:
/// strengthening the weak write (raising `weak_success_q8`) can only turn
/// W verdicts into R, never the reverse, and fully stuck verdicts are
/// untouched. This is the handle that makes fig8's lifetime ordering
/// monotone in the weak-write strength under common random numbers.
#[test]
fn partial_split_verdicts_are_monotone_in_weak_write_strength() {
    Runner::new("partial_split_verdicts_are_monotone_in_weak_write_strength")
        .cases(128)
        .run(mixed_population_and_seed, shrink::none, |(faults, seed)| {
            let mut deltas = SmallRng::seed_from_u64(seed ^ 0x00D3_17A5);
            let raised: Vec<Fault> = faults
                .iter()
                .map(|f| match f.kind {
                    Stuckness::Full => *f,
                    Stuckness::Partial { weak_success_q8 } => Fault::partial(
                        f.offset,
                        f.stuck,
                        weak_success_q8.saturating_add(deltas.random::<u8>()),
                    ),
                })
                .collect();
            let before = sample_split_for(&mut SmallRng::seed_from_u64(*seed), faults);
            let after = sample_split_for(&mut SmallRng::seed_from_u64(*seed), &raised);
            for (i, (b, a)) in before.iter().zip(&after).enumerate() {
                prop_assert!(*b || !*a, "raising q8 flipped fault {i} from R to W");
                if !faults[i].is_partial() {
                    prop_assert_eq!(*a, *b, "fully stuck verdict {i} drifted");
                }
            }
            Ok(())
        });
}

#[test]
fn primes_infrastructure_is_sound() {
    assert!(is_prime(2));
    assert!(!is_prime(49));
    for n in 0..200 {
        let p = next_prime_at_least(n);
        assert!(p >= n && is_prime(p));
    }
}

/// The counting bound (Kim & Kumar, arXiv:1304.4821): a scheme with `r`
/// overhead bits cannot guarantee more than `r` fully stuck faults in a
/// block, because its `2^k` data words need `2^k ≤ 2^(k−f+r)` encodings
/// once `f` cells are stuck. A fully stuck population grown greedily
/// while the guarantee holds — every offset tried once, in a random
/// order, with a random stuck value — stays within `overhead_bits()` for
/// every scheme the figures and extensions judge: fig5 at both widths,
/// fig8, the §3.3 variants and the PAYG local schemes.
#[test]
fn counting_bound_caps_every_guaranteed_population() {
    use aegis_experiments::schemes;
    use aegis_pcm::pcm::policy::PolicyScratch;
    let mut judged = schemes::fig5_schemes(512);
    judged.extend(schemes::fig5_schemes(256));
    judged.extend(schemes::fig8_schemes());
    judged.extend(schemes::variant_schemes());
    judged.extend([
        schemes::ecp(1, 512),
        schemes::aegis(23, 23, 512),
        schemes::aegis(17, 31, 512),
        schemes::masking(1, 512),
        schemes::plbc(1, 1, 512),
    ]);
    let mut rng = SmallRng::seed_from_u64(0xB0_0D);
    for policy in &judged {
        let r = policy.overhead_bits();
        let mut offsets: Vec<usize> = (0..policy.block_bits()).collect();
        for i in (1..offsets.len()).rev() {
            offsets.swap(i, rng.random_range(0..=i));
        }
        let mut scratch = PolicyScratch::new();
        let mut faults: Vec<Fault> = Vec::new();
        for offset in offsets {
            faults.push(Fault::new(offset, rng.random()));
            policy.forget_block(&mut scratch);
            if !policy.guaranteed_with(&faults, &mut scratch) {
                faults.pop();
            }
            assert!(
                faults.len() <= r,
                "{} guarantees {} stuck faults with {r} overhead bits: {faults:?}",
                policy.name(),
                faults.len()
            );
        }
    }
}
