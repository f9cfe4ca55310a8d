//! Analytic model of Aegis's *soft* fault-tolerance capability.
//!
//! The paper quantifies soft FTC by simulation only. This module derives a
//! closed-form estimate from the geometry, useful for sizing a formation
//! without running the Monte Carlo:
//!
//! - every pair of faults in **different columns** collides on exactly one
//!   slope, approximately uniform over the `B` slopes for random fault
//!   placement; same-column pairs never collide (Theorem 2 / the
//!   `collision_slope` derivation);
//! - a block with `f` faults is survivable by base Aegis (for any data) iff
//!   the collision slopes of its `C(f,2)` pairs do not cover all `B`
//!   slopes — a coupon-collector-style coverage event.
//!
//! With `m` effective pairs the expected number of uncovered slopes is
//! `B·(1 − 1/B)^m`, and treating coverage as Poisson gives
//! `P(survivable) ≈ 1 − exp(−B·(1−1/B)^m)`.
//!
//! This is a *first-order* model: uncovered-slope events are positively
//! correlated (fault sets clustered into few columns leave many slopes
//! uncovered at once), so the Poisson step overestimates survival in the
//! transition region by up to ~0.2 absolute. The expected-value pieces are
//! tight and the knee location is right to within a few faults; the tests
//! cross-check all of this against the exact predicate, and
//! [`simulated_survival_probability`] is there when precision matters.

use crate::{AegisPolicy, Rectangle};
use pcm_sim::policy::RecoveryPolicy;
use pcm_sim::Fault;
use sim_rng::SmallRng;
use sim_rng::{Rng, SeedableRng};

/// Probability that two uniformly random distinct bit offsets of the block
/// fall in the same rectangle column (and thus never collide on any
/// slope). Computed exactly from the column populations.
#[must_use]
pub fn same_column_pair_probability(rect: &Rectangle) -> f64 {
    let mut column_sizes = vec![0u64; rect.a()];
    for offset in 0..rect.bits() {
        column_sizes[rect.point(offset).a] += 1;
    }
    let n = rect.bits() as f64;
    let same: f64 = column_sizes.iter().map(|&c| (c * (c - 1)) as f64).sum();
    same / (n * (n - 1.0))
}

/// Expected number of *colliding* (cross-column) pairs among `f` uniformly
/// placed faults.
#[must_use]
pub fn expected_colliding_pairs(rect: &Rectangle, faults: usize) -> f64 {
    let pairs = (faults * faults.saturating_sub(1)) as f64 / 2.0;
    pairs * (1.0 - same_column_pair_probability(rect))
}

/// Expected number of slopes left uncovered by the collision slopes of `f`
/// random faults: `B·(1 − 1/B)^m` with `m` the expected colliding pairs.
#[must_use]
pub fn expected_uncovered_slopes(rect: &Rectangle, faults: usize) -> f64 {
    let b = rect.b() as f64;
    b * (1.0 - 1.0 / b).powf(expected_colliding_pairs(rect, faults))
}

/// Poisson-approximate probability that a block with `f` uniformly placed
/// faults still has a collision-free slope (base Aegis survivable for any
/// data word).
#[must_use]
pub fn survival_probability(rect: &Rectangle, faults: usize) -> f64 {
    1.0 - (-expected_uncovered_slopes(rect, faults)).exp()
}

/// Smallest `f` at which the analytic survival probability drops below
/// `threshold` — a quick soft-FTC "knee" locator for formation sizing.
///
/// # Panics
///
/// Panics unless `0 < threshold < 1`.
#[must_use]
pub fn soft_ftc_knee(rect: &Rectangle, threshold: f64) -> usize {
    assert!(
        threshold > 0.0 && threshold < 1.0,
        "threshold must be in (0,1)"
    );
    (rect.hard_ftc()..)
        .find(|&f| survival_probability(rect, f) < threshold)
        .expect("survival probability is eventually < any positive threshold")
}

/// Empirical counterpart of [`survival_probability`]: fraction of `trials`
/// random `f`-fault placements that the exact predicate accepts. Used by
/// the validation tests and the `formation_explorer` example.
#[must_use]
pub fn simulated_survival_probability(
    rect: &Rectangle,
    faults: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    let policy = AegisPolicy::new(rect.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut survived = 0usize;
    for _ in 0..trials {
        let mut placed: Vec<Fault> = Vec::with_capacity(faults);
        while placed.len() < faults {
            let offset = rng.random_range(0..rect.bits());
            if !placed.iter().any(|f| f.offset == offset) {
                placed.push(Fault::new(offset, rng.random()));
            }
        }
        if policy.guaranteed(&placed) {
            survived += 1;
        }
    }
    survived as f64 / trials as f64
}

/// A candidate formation with its analytic figures of merit.
#[derive(Debug, Clone, PartialEq)]
pub struct FormationChoice {
    /// The formation.
    pub rect: Rectangle,
    /// Per-block metadata bits (`⌈log₂B⌉ + B`).
    pub overhead_bits: usize,
    /// Guaranteed fault tolerance.
    pub hard_ftc: usize,
    /// Analytic soft-FTC knee: faults at which survival drops below 50%.
    pub soft_knee: usize,
}

/// Every admissible formation for an `n`-bit block with overhead up to
/// `max_overhead_bits`, ascending in `B` (and therefore in overhead and in
/// capability — larger primes strictly dominate on tolerance).
///
/// # Panics
///
/// Panics if `bits == 0`.
#[must_use]
pub fn candidate_formations(bits: usize, max_overhead_bits: usize) -> Vec<FormationChoice> {
    assert!(bits > 0, "block must have at least one bit");
    let mut out = Vec::new();
    let mut b = crate::primes::next_prime_at_least((bits as f64).sqrt().ceil() as usize);
    loop {
        let overhead = crate::cost::ceil_log2(b) + b;
        if overhead > max_overhead_bits {
            break;
        }
        let a = bits.div_ceil(b);
        if let Ok(rect) = Rectangle::new(a, b, bits) {
            out.push(FormationChoice {
                overhead_bits: overhead,
                hard_ftc: rect.hard_ftc(),
                soft_knee: soft_ftc_knee(&rect, 0.5),
                rect,
            });
        }
        b = crate::primes::next_prime_at_least(b + 1);
    }
    out
}

/// The cheapest formation whose analytic soft-FTC knee reaches
/// `target_soft_ftc`, within `max_overhead_bits` — `None` if no admissible
/// formation fits the budget.
///
/// # Examples
///
/// ```
/// use aegis_core::analysis::recommend_formation;
/// // Reaching a ~24-fault soft capability on 512-bit blocks takes a large
/// // prime — 9x59, one notch under the paper's 9x61 pick (the paper only
/// // considers a handful of formations; 59 is admissible and cheaper).
/// let choice = recommend_formation(512, 24, 80).expect("feasible");
/// assert!(choice.soft_knee >= 24);
/// assert_eq!((choice.rect.a(), choice.rect.b()), (9, 59));
/// ```
#[must_use]
pub fn recommend_formation(
    bits: usize,
    target_soft_ftc: usize,
    max_overhead_bits: usize,
) -> Option<FormationChoice> {
    candidate_formations(bits, max_overhead_bits)
        .into_iter()
        .find(|c| c.soft_knee >= target_soft_ftc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect_9x61() -> Rectangle {
        Rectangle::new(9, 61, 512).unwrap()
    }

    #[test]
    fn same_column_probability_is_roughly_one_over_a() {
        let rect = rect_9x61();
        let p = same_column_pair_probability(&rect);
        assert!((p - 1.0 / 9.0).abs() < 0.01, "{p}");
        // A full square rectangle: exactly (A·B·(B−1)) / (n(n−1)).
        let square = Rectangle::new(23, 23, 529).unwrap();
        let p = same_column_pair_probability(&square);
        let exact = (23.0 * 23.0 * 22.0) / (529.0 * 528.0);
        assert!((p - exact).abs() < 1e-12);
    }

    #[test]
    fn survival_is_monotone_decreasing_in_faults() {
        let rect = rect_9x61();
        let mut prev = 1.0;
        for f in 2..40 {
            let p = survival_probability(&rect, f);
            assert!(p <= prev + 1e-12, "f={f}");
            prev = p;
        }
        // Certain at the hard FTC, vanishing far beyond it.
        assert!(survival_probability(&rect, rect.hard_ftc()) > 0.999);
        assert!(survival_probability(&rect, 60) < 0.01);
    }

    #[test]
    fn analytic_model_tracks_simulation() {
        let rect = rect_9x61();
        for f in [12usize, 18, 24, 30, 40] {
            let analytic = survival_probability(&rect, f);
            let simulated = simulated_survival_probability(&rect, f, 2000, 7);
            // First-order model: tight in the saturated regimes, within
            // ~0.25 absolute through the transition (see module docs), and
            // never *under* the simulation by more than noise (the Poisson
            // step biases upward).
            assert!(
                (analytic - simulated).abs() < 0.25,
                "f={f}: analytic {analytic:.3} vs simulated {simulated:.3}"
            );
            assert!(
                analytic > simulated - 0.05,
                "f={f}: model should err on the optimistic side \
                 ({analytic:.3} vs {simulated:.3})"
            );
        }
        // Saturated regimes are tight.
        assert!(
            (survival_probability(&rect, 12) - simulated_survival_probability(&rect, 12, 2000, 7))
                .abs()
                < 0.02
        );
    }

    #[test]
    fn candidates_grow_monotonically_with_b() {
        let candidates = candidate_formations(512, 80);
        assert!(candidates.len() >= 5, "{candidates:?}");
        assert_eq!(candidates[0].rect.b(), 23);
        for pair in candidates.windows(2) {
            assert!(pair[1].overhead_bits > pair[0].overhead_bits);
            assert!(pair[1].soft_knee >= pair[0].soft_knee);
            assert!(pair[1].hard_ftc >= pair[0].hard_ftc);
        }
        // Every paper formation appears.
        for b in [23usize, 31, 61, 71] {
            assert!(candidates.iter().any(|c| c.rect.b() == b), "B={b} missing");
        }
    }

    #[test]
    fn recommendation_is_cheapest_feasible() {
        // A tiny target is satisfied by the minimal formation.
        let minimal = recommend_formation(512, 8, 100).unwrap();
        assert_eq!(minimal.rect.b(), 23);
        // An impossible target within a tight budget yields None.
        assert!(recommend_formation(512, 60, 40).is_none());
    }

    #[test]
    fn knee_sits_between_hard_ftc_and_saturation() {
        let rect = rect_9x61();
        let knee = soft_ftc_knee(&rect, 0.5);
        assert!(knee > rect.hard_ftc(), "knee {knee}");
        assert!(knee < 60, "knee {knee}");
        // The analytic knee lands within a few faults of the simulated one.
        let simulated_knee = (rect.hard_ftc()..)
            .find(|&f| simulated_survival_probability(&rect, f, 1000, 3) < 0.5)
            .unwrap();
        assert!(
            knee.abs_diff(simulated_knee) <= 4,
            "analytic knee {knee} vs simulated {simulated_knee}"
        );
        // A bigger B pushes the knee out.
        let small = Rectangle::new(23, 23, 512).unwrap();
        assert!(soft_ftc_knee(&small, 0.5) < knee);
    }
}
