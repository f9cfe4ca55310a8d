//! Cell endurance model: normally distributed lifetimes and the
//! differential-write wear model.

use sim_rng::Rng;

/// Per-cell lifetime distribution: `Normal(mean, (cv·mean)²)`, truncated to
/// positive values by resampling.
///
/// The paper (§3.1): "this lifetime follows the normal distribution with a
/// mean lifetime of 10^8 and a 25% coefficient of variance. There is no
/// correlation between neighboring cells."
///
/// The offline crate set has no `rand_distr`, so the normal variate is drawn
/// with the exact Box–Muller transform.
///
/// # Examples
///
/// ```
/// use pcm_sim::LifetimeModel;
/// use sim_rng::{SeedableRng, SmallRng};
///
/// let model = LifetimeModel::paper_default();
/// let mut rng = SmallRng::seed_from_u64(42);
/// let sample = model.sample(&mut rng);
/// assert!(sample > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModel {
    mean: f64,
    std_dev: f64,
}

impl LifetimeModel {
    /// Mean cell lifetime used throughout the paper's evaluation.
    pub const PAPER_MEAN: f64 = 1.0e8;
    /// Coefficient of variation used throughout the paper's evaluation.
    pub const PAPER_CV: f64 = 0.25;

    /// Creates a model with the given mean and coefficient of variation
    /// (`std_dev = cv · mean`).
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`, `cv < 0`, or either is not finite.
    #[must_use]
    pub fn new(mean: f64, cv: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        assert!(cv.is_finite() && cv >= 0.0, "cv must be non-negative");
        Self {
            mean,
            std_dev: cv * mean,
        }
    }

    /// The paper's configuration: `Normal(1e8, 25% CV)`.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(Self::PAPER_MEAN, Self::PAPER_CV)
    }

    /// Mean lifetime.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the lifetime.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one cell lifetime (count of actual programming pulses survived).
    ///
    /// Non-positive draws — possible in the far left tail of the normal —
    /// are rejected and resampled, matching the physical constraint that a
    /// cell survives at least its first write.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let (u1, u2) = uniform_pair(rng);
            let draw = self.draw(u1, u2);
            if draw > 0.0 {
                return draw;
            }
        }
    }

    /// One lifetime draw from the uniforms of [`uniform_pair`], *before*
    /// [`sample`](Self::sample)'s rejection of non-positive draws.
    pub(crate) fn draw(&self, u1: f64, u2: f64) -> f64 {
        self.mean + self.std_dev * box_muller(u1, u2)
    }
}

impl Default for LifetimeModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The two uniforms one Box–Muller variate consumes, in stream order:
/// `u1 = 1 − U ∈ (0, 1]` (so the logarithm is finite) and `u2 = U ∈ [0, 1)`.
pub(crate) fn uniform_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (u1, u2)
}

/// One standard-normal variate: the Box–Muller transform of `(u1, u2)`.
/// This is the only place the formula lives, so every caller produces the
/// identical bits.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Whether a Box–Muller variate with second uniform `u2` is certainly
/// non-negative, decided without evaluating it.
///
/// Outside `[0.2499, 0.7501]` the angle `2πu2` stays at least `2π·1e-4`
/// away from `π/2` and `3π/2`, so `cos(2πu2) > 6e-4` — a margin twelve
/// orders of magnitude wider than the rounding error of `TAU * u2` and of
/// `cos`. The variate is then `sqrt(..) · cos(..) ≥ 0`, so the lifetime
/// draw is `≥ mean > 0`: it consumes no resample and, because rounding
/// is monotone, its fault time is `≥ WearModel::fault_time(mean)`.
pub(crate) fn variate_is_non_negative(u2: f64) -> bool {
    !(0.2499..=0.7501).contains(&u2)
}

/// Converts a cell lifetime into a fault-arrival time in *block writes*.
///
/// The paper assumes a read-before-write that excludes each cell from a
/// given write with 50% probability; a cell that survives `L` pulses
/// therefore fails around block write `L / participation`. Using the
/// expectation is exact to within the negligible binomial spread at
/// `L ≈ 1e8` (`σ/μ ≈ 1e-4`).
///
/// # Examples
///
/// ```
/// use pcm_sim::WearModel;
/// let wear = WearModel::paper_default();
/// assert_eq!(wear.fault_time(50.0), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearModel {
    participation: f64,
}

impl WearModel {
    /// Probability that a given cell is actually programmed by a block
    /// write, per the paper: 50%.
    pub const PAPER_PARTICIPATION: f64 = 0.5;

    /// Creates a wear model with the given participation probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < participation <= 1`.
    #[must_use]
    pub fn new(participation: f64) -> Self {
        assert!(
            participation > 0.0 && participation <= 1.0,
            "participation must be in (0, 1]"
        );
        Self { participation }
    }

    /// The paper's 50% differential-write model.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(Self::PAPER_PARTICIPATION)
    }

    /// Per-write participation probability.
    #[must_use]
    pub fn participation(&self) -> f64 {
        self.participation
    }

    /// Block-write count at which a cell of the given lifetime fails.
    #[must_use]
    pub fn fault_time(&self, lifetime: f64) -> f64 {
        lifetime / self.participation
    }
}

impl Default for WearModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rng::{SeedableRng, SmallRng};

    #[test]
    fn sample_mean_and_spread_match_model() {
        let model = LifetimeModel::new(100.0, 0.25);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| model.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
        assert!((var.sqrt() - 25.0).abs() < 1.0, "std {}", var.sqrt());
    }

    #[test]
    fn samples_are_always_positive_even_with_huge_cv() {
        let model = LifetimeModel::new(1.0, 10.0);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..5_000 {
            assert!(model.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn paper_default_matches_constants() {
        let m = LifetimeModel::paper_default();
        assert_eq!(m.mean(), 1.0e8);
        assert_eq!(m.std_dev(), 2.5e7);
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn zero_mean_panics() {
        let _ = LifetimeModel::new(0.0, 0.25);
    }

    #[test]
    fn wear_scales_lifetime() {
        let w = WearModel::new(0.25);
        assert_eq!(w.fault_time(100.0), 400.0);
    }

    #[test]
    #[should_panic(expected = "participation")]
    fn wear_rejects_zero() {
        let _ = WearModel::new(0.0);
    }

    #[test]
    fn non_negative_predicate_only_admits_positive_cosines() {
        use std::f64::consts::TAU;
        // The two edges of the excluded band, their outer f64 neighbours,
        // the ends of [0, 1) and a fine grid over both admitted ranges.
        let edges = [
            0.0,
            0.2499_f64.next_down(),
            0.7501_f64.next_up(),
            1.0_f64.next_down(),
        ];
        let grid = (0..=100_000).map(|i| f64::from(i) / 100_000.0);
        for u2 in edges.into_iter().chain(grid) {
            if variate_is_non_negative(u2) {
                assert!((TAU * u2).cos() > 6e-4, "u2 = {u2}");
            }
        }
        assert!(variate_is_non_negative(0.2499_f64.next_down()));
        assert!(!variate_is_non_negative(0.2499));
        assert!(!variate_is_non_negative(0.7501));
        assert!(variate_is_non_negative(0.7501_f64.next_up()));
    }

    #[test]
    fn box_muller_is_standard_normal() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                let (u1, u2) = uniform_pair(&mut rng);
                box_muller(u1, u2)
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
