//! Stuck-at faults and their per-write W/R classification.

use bitblock::BitBlock;
use sim_rng::Rng;

/// How completely a failed cell has lost programmability.
///
/// The classic PCM failure mode is a *fully* stuck cell: it reads `stuck`
/// no matter what is written. The partially-stuck model (Wachter-Zeh &
/// Yaakobi, arXiv:1505.03281) refines this: the cell still reliably stores
/// its stuck value, but a write of the *opposite* value only succeeds some
/// of the time — the SET/RESET pulse that still works does so weakly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stuckness {
    /// The cell always reads its stuck value; writes of the opposite value
    /// never take.
    Full,
    /// The cell reliably stores its stuck value; a write of the opposite
    /// value succeeds with probability `weak_success_q8 / 256`.
    ///
    /// The probability is quantized to 1/256ths so `Fault` stays `Copy`,
    /// `Eq`, `Hash` and `Ord` (an `f64` field would forfeit all four).
    Partial {
        /// Weak-write success probability in units of 1/256
        /// (`128` ⇒ ½; `0` ⇒ behaves like [`Stuckness::Full`]).
        weak_success_q8: u8,
    },
}

/// A permanent stuck-at fault: the cell at `offset` always reads `stuck`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// Bit offset of the failed cell within its data block.
    pub offset: usize,
    /// The value the cell is permanently stuck at.
    pub stuck: bool,
    /// Whether the cell is fully or only partially stuck.
    pub kind: Stuckness,
}

impl Fault {
    /// Convenience constructor for a fully stuck cell.
    #[must_use]
    pub fn new(offset: usize, stuck: bool) -> Self {
        Self {
            offset,
            stuck,
            kind: Stuckness::Full,
        }
    }

    /// A partially stuck cell: reliably stores `stuck`, stores the opposite
    /// value with probability `weak_success_q8 / 256` per write.
    #[must_use]
    pub fn partial(offset: usize, stuck: bool, weak_success_q8: u8) -> Self {
        Self {
            offset,
            stuck,
            kind: Stuckness::Partial { weak_success_q8 },
        }
    }

    /// Whether the cell is only partially stuck.
    #[must_use]
    pub fn is_partial(&self) -> bool {
        matches!(self.kind, Stuckness::Partial { .. })
    }

    /// Whether this fault is *stuck-at-Wrong* for `data`: the stuck value
    /// disagrees with the bit the write wants to store (paper §2.4).
    ///
    /// A W fault is revealed by the verification read after a plain write; an
    /// R ("stuck-at-Right") fault stores the desired bit for free.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside `data`.
    #[must_use]
    pub fn is_wrong_for(&self, data: &BitBlock) -> bool {
        data.get(self.offset) != self.stuck
    }
}

/// Classifies each fault as W (`true`) or R (`false`) for the given data
/// word, preserving order.
///
/// # Examples
///
/// ```
/// use bitblock::BitBlock;
/// use pcm_sim::{classify_split, Fault};
///
/// let data = BitBlock::from_indices(8, [3usize]);
/// let faults = [Fault::new(3, true), Fault::new(5, true)];
/// // Bit 3 wants 1 and is stuck at 1 (R); bit 5 wants 0 but is stuck at 1 (W).
/// assert_eq!(classify_split(&faults, &data), vec![false, true]);
/// ```
#[must_use]
pub fn classify_split(faults: &[Fault], data: &BitBlock) -> Vec<bool> {
    faults.iter().map(|f| f.is_wrong_for(data)).collect()
}

/// Samples the W/R split induced by a uniformly random data word: each fault
/// is W with probability ½, independently.
///
/// This is the Monte Carlo shortcut for "the write that revealed the fault
/// carries random data" — drawing one bit per fault is equivalent to drawing
/// the whole word, because only the bits at fault offsets matter.
#[must_use]
pub fn sample_split<R: Rng + ?Sized>(rng: &mut R, fault_count: usize) -> Vec<bool> {
    let mut out = Vec::new();
    sample_split_into(rng, fault_count, &mut out);
    out
}

/// [`sample_split`] into a caller-provided buffer, reusing its allocation.
/// Consumes exactly the same entropy, so the two forms are interchangeable
/// under a fixed seed.
pub fn sample_split_into<R: Rng + ?Sized>(rng: &mut R, fault_count: usize, out: &mut Vec<bool>) {
    out.clear();
    out.extend((0..fault_count).map(|_| rng.random::<bool>()));
}

/// Samples the W/R split induced by a uniformly random data word while
/// honouring each fault's [`Stuckness`].
///
/// A fully stuck fault is W with probability ½ exactly as in
/// [`sample_split_into`], and consumes exactly one `bool` of entropy — a
/// population of only [`Stuckness::Full`] faults therefore reproduces
/// `sample_split_into`'s stream bit for bit. A partially stuck fault first
/// draws the same fair coin ("does the data disagree with the stuck
/// value?"); only on disagreement does it draw one extra `u8` for the weak
/// write, which succeeds when the draw lands below `weak_success_q8`. A
/// successful weak write stores the wanted value, so the fault is R for
/// this write.
///
/// Under a fixed seed the verdict is pointwise monotone in
/// `weak_success_q8`: raising it can only turn W entries into R, never the
/// reverse — the deterministic handle the theorem-invariant suite pins.
pub fn sample_split_for_into<R: Rng + ?Sized>(rng: &mut R, faults: &[Fault], out: &mut Vec<bool>) {
    out.clear();
    extend_split_for(rng, faults, out);
}

/// Appends one split drawn exactly as [`sample_split_for_into`] draws it,
/// keeping whatever `out` already holds.
pub(crate) fn extend_split_for<R: Rng + ?Sized>(
    rng: &mut R,
    faults: &[Fault],
    out: &mut Vec<bool>,
) {
    out.extend(faults.iter().map(|fault| {
        let disagrees = rng.random::<bool>();
        match fault.kind {
            Stuckness::Full => disagrees,
            Stuckness::Partial { weak_success_q8 } => {
                disagrees && rng.random::<u8>() >= weak_success_q8
            }
        }
    }));
}

/// [`sample_split_for_into`] into a fresh vector.
#[must_use]
pub fn sample_split_for<R: Rng + ?Sized>(rng: &mut R, faults: &[Fault]) -> Vec<bool> {
    let mut out = Vec::new();
    sample_split_for_into(rng, faults, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rng::{SeedableRng, SmallRng};

    #[test]
    fn w_r_classification() {
        let data = BitBlock::from_indices(16, [1usize, 2]);
        // stuck at 0 where data wants 1 => W
        assert!(Fault::new(1, false).is_wrong_for(&data));
        // stuck at 1 where data wants 1 => R
        assert!(!Fault::new(2, true).is_wrong_for(&data));
        // stuck at 0 where data wants 0 => R
        assert!(!Fault::new(7, false).is_wrong_for(&data));
    }

    #[test]
    fn classify_matches_pointwise() {
        let data = BitBlock::from_indices(32, [0usize, 8, 9]);
        let faults = vec![
            Fault::new(0, false),
            Fault::new(8, true),
            Fault::new(20, true),
        ];
        assert_eq!(classify_split(&faults, &data), vec![true, false, true]);
    }

    #[test]
    fn sample_split_is_seed_deterministic_and_roughly_fair() {
        let a = sample_split(&mut SmallRng::seed_from_u64(5), 1000);
        let b = sample_split(&mut SmallRng::seed_from_u64(5), 1000);
        assert_eq!(a, b);
        let w = a.iter().filter(|&&x| x).count();
        assert!((350..=650).contains(&w), "grossly unfair split: {w}/1000");
    }

    #[test]
    fn full_faults_consume_identical_entropy_either_sampler() {
        let faults: Vec<Fault> = (0..40).map(|o| Fault::new(o, o % 2 == 0)).collect();
        let legacy = sample_split(&mut SmallRng::seed_from_u64(9), faults.len());
        let aware = sample_split_for(&mut SmallRng::seed_from_u64(9), &faults);
        assert_eq!(legacy, aware);
        // And the RNGs end in the same state: drawing more afterwards agrees.
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        let _ = sample_split(&mut a, faults.len());
        let _ = sample_split_for(&mut b, &faults);
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn partial_q8_extremes_bracket_full_behaviour() {
        // q8 = 0: the weak write never succeeds, so the fault behaves like a
        // fully stuck one (same verdicts, though more entropy is consumed).
        let always = vec![Fault::partial(0, false, 0); 200];
        let split = sample_split_for(&mut SmallRng::seed_from_u64(4), &always);
        let w = split.iter().filter(|&&x| x).count();
        assert!((60..=140).contains(&w), "q8=0 should be a fair coin: {w}");
        // q8 = 255: wrong only when the u8 draw is exactly 255 (~0.2%·½).
        let strong = vec![Fault::partial(0, false, 255); 400];
        let split = sample_split_for(&mut SmallRng::seed_from_u64(4), &strong);
        let w = split.iter().filter(|&&x| x).count();
        assert!(w <= 8, "q8=255 should almost never be W: {w}");
    }

    #[test]
    fn partial_verdicts_are_monotone_in_q8_under_a_fixed_seed() {
        let fault = |q8| -> Vec<Fault> { (0..64).map(|o| Fault::partial(o, false, q8)).collect() };
        let mut prev = sample_split_for(&mut SmallRng::seed_from_u64(21), &fault(0));
        for q8 in [32u8, 64, 128, 192, 255] {
            let next = sample_split_for(&mut SmallRng::seed_from_u64(21), &fault(q8));
            for (p, n) in prev.iter().zip(&next) {
                // Raising q8 can only clear W verdicts, never set them.
                assert!(*p || !*n);
            }
            prev = next;
        }
    }

    #[test]
    fn fault_constructors_record_kind() {
        assert_eq!(Fault::new(3, true).kind, Stuckness::Full);
        assert!(!Fault::new(3, true).is_partial());
        let p = Fault::partial(3, true, 77);
        assert_eq!(
            p.kind,
            Stuckness::Partial {
                weak_success_q8: 77
            }
        );
        assert!(p.is_partial());
        // Partial faults still classify W/R by their stuck value.
        let data = BitBlock::from_indices(8, [3usize]);
        assert!(!p.is_wrong_for(&data));
    }

    #[test]
    fn classify_equals_split_of_real_data() {
        // classify_split over random data has the same distribution
        // sample_split models: spot-check the mechanical equivalence.
        let mut rng = SmallRng::seed_from_u64(11);
        let data = BitBlock::random(&mut rng, 64);
        let faults: Vec<Fault> = (0..64).step_by(7).map(|o| Fault::new(o, false)).collect();
        let split = classify_split(&faults, &data);
        for (f, w) in faults.iter().zip(&split) {
            assert_eq!(*w, data.get(f.offset) != f.stuck);
        }
    }
}
