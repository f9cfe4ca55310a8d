//! RDIS: Recursively Defined Invertible Set (Melhem, Maddah, Cho, DSN 2012)
//! — the second partition-and-inversion comparator of the paper.
//!
//! The block is viewed as a 2-D array. Cells whose stuck value disagrees
//! with the data (SA-W) mark their rows and columns; the invertible set
//! `S₁` is the intersection of marked rows and columns, and is stored
//! inverted. That fixes every SA-W cell but breaks SA-R cells inside `S₁`,
//! which become the wrong-set of the next level: `S₂ ⊆ S₁` is the
//! intersection of their rows and columns *within* `S₁`, inverted again —
//! and so on, to a fixed recursion depth (3 for RDIS-3, the configuration
//! its authors recommend and the Aegis paper evaluates).
//!
//! RDIS requires knowing which faults are W and which are R before the
//! write; the Aegis paper "always supplies it with a sufficiently large
//! cache", which is what the codec and policy here do.
//!
//! Metadata: one row mask and one column mask per level (the nesting
//! `R₂ ⊆ R₁`, `C₂ ⊆ C₁` makes membership in `S_l` a simple AND). Our
//! literal cost is `depth·(rows+cols)`; the Aegis paper charges RDIS-3 25%
//! of a 256-bit block (64 bits) and 19% of a 512-bit block (97 bits) — the
//! published description leaves the packed encoding open, so the figure
//! harness annotates RDIS with the paper's numbers and reports ours
//! alongside (see DESIGN.md §4).

use crate::cost::{rdis_overhead, rdis_paper_overhead};
use bitblock::BitBlock;
use pcm_sim::codec::{StuckAtCodec, WriteReport};
use pcm_sim::policy::{
    cache_key, guaranteed_splits_with, PolicyScratch, RecoveryPolicy, MASK_BITS,
};
use pcm_sim::{classify_split, Fault, PcmBlock, UncorrectableError};

/// Grid geometry and recursion depth of an RDIS scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdisScheme {
    rows: usize,
    cols: usize,
    depth: usize,
}

/// Result of the recursive set construction for one write.
#[derive(Debug, Clone)]
pub struct InvertibleSets {
    /// `(row_mask, col_mask)` per level, outermost first; `S_l` is the
    /// intersection of level `l`'s marked rows and columns (masks are
    /// nested across levels).
    pub levels: Vec<(BitBlock, BitBlock)>,
}

impl RdisScheme {
    /// Creates an RDIS scheme on a `rows × cols` grid with the given
    /// recursion depth.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize, depth: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        assert!(depth > 0, "need at least one recursion level");
        Self { rows, cols, depth }
    }

    /// The near-square grid used for a power-of-two block: RDIS-3 on
    /// 16×16 for 256 bits, 16×32 for 512 bits.
    ///
    /// # Panics
    ///
    /// Panics unless `block_bits` is a power of two.
    #[must_use]
    pub fn for_block(block_bits: usize, depth: usize) -> Self {
        assert!(
            block_bits.is_power_of_two(),
            "RDIS grid needs a power-of-two block"
        );
        let half = block_bits.trailing_zeros() as usize / 2;
        let rows = 1 << half;
        let cols = block_bits / rows;
        Self::new(rows, cols, depth)
    }

    /// Grid rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Recursion depth (3 = RDIS-3).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Block width in bits.
    #[must_use]
    pub fn block_bits(&self) -> usize {
        self.rows * self.cols
    }

    /// Row and column of a bit offset (row-major layout).
    #[must_use]
    pub fn coords(&self, offset: usize) -> (usize, usize) {
        (offset / self.cols, offset % self.cols)
    }

    /// Builds the nested invertible sets for a fault population and W/R
    /// split, or `None` when wrong cells survive all `depth` levels.
    ///
    /// `wrong[i]` says fault `i` is SA-W for the data being written.
    #[must_use]
    pub fn build_sets(&self, faults: &[Fault], wrong: &[bool]) -> Option<InvertibleSets> {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        let mut levels: Vec<(BitBlock, BitBlock)> = Vec::with_capacity(self.depth);
        // Wrong-set of the current level: starts as the SA-W faults.
        let mut violators: Vec<usize> = faults
            .iter()
            .zip(wrong)
            .filter(|&(_, &w)| w)
            .map(|(f, _)| f.offset)
            .collect();
        for _level in 0..self.depth {
            if violators.is_empty() {
                break;
            }
            let mut row_mask = BitBlock::zeros(self.rows);
            let mut col_mask = BitBlock::zeros(self.cols);
            for &offset in &violators {
                let (r, c) = self.coords(offset);
                row_mask.set(r, true);
                col_mask.set(c, true);
            }
            levels.push((row_mask, col_mask));
            // Recompute the wrong-set under the sets built so far: a cell
            // reads stuck ⊕ parity and must equal the data bit, so a W
            // fault (stuck ≠ data) needs odd inversion parity and an R
            // fault needs even parity. Every violator found here has
            // membership depth equal to the levels built (see the level-1/2
            // induction in the module docs), so marking it next level does
            // place it inside the next nested set.
            violators = faults
                .iter()
                .zip(wrong)
                .filter(|&(f, &w)| {
                    let needs_odd = w;
                    let has_odd = self.membership_depth(&levels, f.offset) % 2 == 1;
                    needs_odd != has_odd
                })
                .map(|(f, _)| f.offset)
                .collect();
        }
        violators.is_empty().then_some(InvertibleSets { levels })
    }

    /// How many of the nested sets contain `offset` (its inversion count).
    #[must_use]
    pub fn membership_depth(&self, levels: &[(BitBlock, BitBlock)], offset: usize) -> usize {
        let (r, c) = self.coords(offset);
        levels
            .iter()
            .take_while(|(rows, cols)| rows.get(r) && cols.get(c))
            .count()
    }

    /// The block-wide inversion parity mask implied by a set of levels.
    ///
    /// Per-point reference implementation; the codec uses the word-level
    /// [`RdisRom::parity_mask`] kernel, which is tested against this.
    #[must_use]
    pub fn parity_mask(&self, levels: &[(BitBlock, BitBlock)]) -> BitBlock {
        BitBlock::from_fn(self.block_bits(), |offset| {
            self.membership_depth(levels, offset) % 2 == 1
        })
    }
}

/// Word-packed row and column membership masks for an [`RdisScheme`]: the
/// building blocks of the parity-mask kernel.
///
/// `row_masks[r]` marks every offset in grid row `r` and `col_masks[c]`
/// every offset in grid column `c`, so a level's set mask is the OR of its
/// marked rows ANDed with the OR of its marked columns — whole `u64` lanes
/// instead of a per-point membership walk.
#[derive(Debug, Clone)]
pub struct RdisRom {
    row_masks: Vec<BitBlock>,
    col_masks: Vec<BitBlock>,
    bits: usize,
}

impl RdisRom {
    /// Builds the masks for `scheme`.
    #[must_use]
    pub fn new(scheme: &RdisScheme) -> Self {
        let bits = scheme.block_bits();
        let cols = scheme.cols();
        Self {
            row_masks: (0..scheme.rows())
                .map(|r| BitBlock::from_fn(bits, |o| o / cols == r))
                .collect(),
            col_masks: (0..cols)
                .map(|c| BitBlock::from_fn(bits, |o| o % cols == c))
                .collect(),
            bits,
        }
    }

    /// Word-level equivalent of [`RdisScheme::parity_mask`].
    ///
    /// A cell's membership depth is the length of the prefix of levels
    /// containing it, so XOR-accumulating the running prefix intersection
    /// of the per-level set masks yields exactly the depth-parity bit.
    #[must_use]
    pub fn parity_mask(&self, levels: &[(BitBlock, BitBlock)]) -> BitBlock {
        let mut out = BitBlock::zeros(self.bits);
        let mut prefix = BitBlock::ones_block(self.bits);
        let mut level = BitBlock::zeros(self.bits);
        let mut cols_union = BitBlock::zeros(self.bits);
        for (rows, cols) in levels {
            level.clear();
            for r in rows.ones() {
                level.or_words(self.row_masks[r].as_words());
            }
            cols_union.clear();
            for c in cols.ones() {
                cols_union.or_words(self.col_masks[c].as_words());
            }
            level &= &cols_union;
            prefix &= &level;
            out ^= &prefix;
        }
        out
    }
}

/// The RDIS functional codec (fault knowledge from an ideal fail cache).
///
/// # Examples
///
/// ```
/// use aegis_baselines::RdisCodec;
/// use bitblock::BitBlock;
/// use pcm_sim::codec::StuckAtCodec;
/// use pcm_sim::PcmBlock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut codec = RdisCodec::rdis3(512);
/// let mut block = PcmBlock::pristine(512);
/// block.force_stuck(33, true);
/// block.force_stuck(400, false);
/// let data = BitBlock::zeros(512);
/// codec.write(&mut block, &data)?;
/// assert_eq!(codec.read(&block), data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RdisCodec {
    scheme: RdisScheme,
    rom: RdisRom,
    levels: Vec<(BitBlock, BitBlock)>,
}

impl RdisCodec {
    /// Creates a codec for the given scheme.
    #[must_use]
    pub fn new(scheme: RdisScheme) -> Self {
        let rom = RdisRom::new(&scheme);
        Self {
            scheme,
            rom,
            levels: Vec::new(),
        }
    }

    /// RDIS-3 on the standard grid for `block_bits`.
    ///
    /// # Panics
    ///
    /// Panics unless `block_bits` is a power of two.
    #[must_use]
    pub fn rdis3(block_bits: usize) -> Self {
        Self::new(RdisScheme::for_block(block_bits, 3))
    }

    /// The scheme geometry.
    #[must_use]
    pub fn scheme(&self) -> &RdisScheme {
        &self.scheme
    }
}

impl StuckAtCodec for RdisCodec {
    /// # Errors
    ///
    /// [`UncorrectableError`] when wrong cells survive every recursion
    /// level.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    fn write(
        &mut self,
        block: &mut PcmBlock,
        data: &BitBlock,
    ) -> Result<WriteReport, UncorrectableError> {
        assert_eq!(data.len(), self.scheme.block_bits(), "data width mismatch");
        assert_eq!(
            block.len(),
            self.scheme.block_bits(),
            "block width mismatch"
        );
        let mut report = WriteReport::default();
        // Ideal fail cache plus rediscovery of faults born during this very
        // write.
        for _ in 0..=self.scheme.block_bits() {
            let faults = block.faults();
            let wrong = classify_split(&faults, data);
            let Some(sets) = self.scheme.build_sets(&faults, &wrong) else {
                return Err(UncorrectableError::new(
                    self.name(),
                    faults.len(),
                    format!(
                        "wrong cells survive {} recursion levels",
                        self.scheme.depth()
                    ),
                ));
            };
            let target = data ^ &self.rom.parity_mask(&sets.levels);
            report.cell_pulses += block.write_raw(&target);
            report.verify_reads += 1;
            if block.verify(&target).is_empty() {
                self.levels = sets.levels;
                return Ok(report);
            }
            // A cell died while writing: loop with the refreshed fault list.
            report.inversion_writes += 1;
        }
        unreachable!("cannot discover more faults than cells")
    }

    fn read(&self, block: &PcmBlock) -> BitBlock {
        block.read_raw() ^ self.rom.parity_mask(&self.levels)
    }

    fn overhead_bits(&self) -> usize {
        rdis_overhead(self.scheme.rows, self.scheme.cols, self.scheme.depth)
    }

    fn block_bits(&self) -> usize {
        self.scheme.block_bits()
    }

    fn name(&self) -> String {
        format!("RDIS-{}", self.scheme.depth)
    }
}

/// Monte Carlo predicate for RDIS: a write succeeds iff the recursive set
/// construction converges within the depth budget for this W/R split.
#[derive(Debug, Clone, Copy)]
pub struct RdisPolicy {
    scheme: RdisScheme,
    /// Owner key for the per-block line-mask cache; shared across depths
    /// of the same grid (the cached masks depend only on the geometry).
    key: u64,
    /// Whether the word-parallel path applies: grids of at most 64 rows
    /// and 64 columns (every grid the figures use), which bounds the
    /// per-block line masks at 128 words.
    fast: bool,
}

impl RdisPolicy {
    /// Creates the policy for a scheme.
    #[must_use]
    pub fn new(scheme: RdisScheme) -> Self {
        let key = cache_key(&[0xD15, scheme.rows() as u64, scheme.cols() as u64]);
        let fast = scheme.rows() <= 64 && scheme.cols() <= 64;
        Self { scheme, key, fast }
    }

    /// RDIS-3 on the standard grid for `block_bits`.
    ///
    /// # Panics
    ///
    /// Panics unless `block_bits` is a power of two.
    #[must_use]
    pub fn rdis3(block_bits: usize) -> Self {
        Self::new(RdisScheme::for_block(block_bits, 3))
    }
}

impl RecoveryPolicy for RdisPolicy {
    fn name(&self) -> String {
        format!("RDIS-{}", self.scheme.depth)
    }

    /// The paper-quoted overhead where available (figure annotations), our
    /// literal mask cost otherwise.
    fn overhead_bits(&self) -> usize {
        rdis_paper_overhead(self.scheme.block_bits())
            .unwrap_or_else(|| rdis_overhead(self.scheme.rows, self.scheme.cols, self.scheme.depth))
    }

    fn block_bits(&self) -> usize {
        self.scheme.block_bits()
    }

    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        self.scheme.build_sets(faults, wrong).is_some()
    }

    /// Caches each fault's `(row, col)` in `coords` and, in `masks`, one
    /// `u128` per grid line over fault indices: `masks[r]` holds the
    /// faults on row `r`, `masks[rows + c]` those on column `c`. Faults
    /// past the 128th get coordinates but no mask bit; the verdict falls
    /// back to [`RdisScheme::build_sets`] for them.
    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        if !self.fast {
            return;
        }
        let cache = &mut scratch.pair_cache;
        let start = cache.begin(self.key, faults);
        let lines = self.scheme.rows() + self.scheme.cols();
        if cache.masks.len() != lines {
            cache.masks.clear();
            cache.masks.resize(lines, 0);
        }
        for (i, &f) in faults.iter().enumerate().skip(start) {
            let (r, c) = self.scheme.coords(f.offset);
            if i < MASK_BITS {
                cache.masks[r] |= 1u128 << i;
                cache.masks[self.scheme.rows() + c] |= 1u128 << i;
            }
            cache.coords.push((r as u32, c as u32));
            cache.commit(f);
        }
    }

    fn forget_block(&self, scratch: &mut PolicyScratch) {
        scratch.pair_cache.reset();
    }

    /// RDIS has no closed-form guarantee (whether the removal fixed point
    /// converges depends on the split), so it uses the trait's enumeration
    /// discipline; this override replays it with arena-backed splits so
    /// each enumerated split runs the cached mask fast path below.
    fn guaranteed_with(&self, faults: &[Fault], scratch: &mut PolicyScratch) -> bool {
        guaranteed_splits_with(self, faults, scratch)
    }

    /// Word-parallel replay of [`RdisScheme::build_sets`]'s fixed point
    /// over fault indices. Level `l` holds the faults in the rows *and*
    /// columns of the current violators — one OR of cached line masks per
    /// violator. A fault's membership depth is the number of leading
    /// levels holding it, so the running AND of the levels (`inside`) is
    /// the set of faults at depth `≥ l + 1`, and XOR-ing those nested
    /// prefixes leaves each fault's depth parity in `odd`. A W fault needs
    /// odd parity and an R fault even, so the violators are `W ^ odd`.
    /// (Each level's violators lie inside the previous level, so the
    /// levels nest and the AND never drops a fault; it states the
    /// prefix rule of [`RdisScheme::membership_depth`] rather than relying
    /// on that.) The verdict (but not the sets) is all the Monte Carlo
    /// loop needs.
    fn recoverable_with(
        &self,
        faults: &[Fault],
        wrong: &[bool],
        scratch: &mut PolicyScratch,
    ) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        let cache = &scratch.pair_cache;
        if !self.fast || faults.len() > MASK_BITS || !cache.matches(self.key, faults) {
            return self.recoverable(faults, wrong);
        }
        let (row_masks, col_masks) = cache.masks.split_at(self.scheme.rows());
        let w = wrong
            .iter()
            .enumerate()
            .fold(0u128, |m, (i, &is_wrong)| m | (u128::from(is_wrong) << i));
        let mut violators = w;
        let mut inside = u128::MAX;
        let mut odd = 0u128;
        for _ in 0..self.scheme.depth() {
            if violators == 0 {
                break;
            }
            let (mut rows, mut cols) = (0u128, 0u128);
            let mut v = violators;
            while v != 0 {
                let (r, c) = cache.coords[v.trailing_zeros() as usize];
                rows |= row_masks[r as usize];
                cols |= col_masks[c as usize];
                v &= v - 1;
            }
            inside &= rows & cols;
            odd ^= inside;
            violators = w ^ odd;
        }
        violators == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rng::SmallRng;
    use sim_rng::{Rng, SeedableRng};

    #[test]
    fn grid_shapes() {
        let s = RdisScheme::for_block(512, 3);
        assert_eq!((s.rows(), s.cols()), (16, 32));
        let s = RdisScheme::for_block(256, 3);
        assert_eq!((s.rows(), s.cols()), (16, 16));
        assert_eq!(s.coords(17), (1, 1));
    }

    #[test]
    fn no_w_faults_means_no_sets() {
        let s = RdisScheme::for_block(64, 3);
        let faults = vec![Fault::new(5, false)];
        let sets = s.build_sets(&faults, &[false]).unwrap();
        assert!(sets.levels.is_empty());
        assert_eq!(s.parity_mask(&sets.levels).count_ones(), 0);
    }

    #[test]
    fn single_w_fault_inverts_its_intersection() {
        let s = RdisScheme::for_block(64, 3); // 8x8
        let faults = vec![Fault::new(9, true)]; // row 1, col 1
        let sets = s.build_sets(&faults, &[true]).unwrap();
        assert_eq!(sets.levels.len(), 1);
        // S1 = {(1,1)} only: one row and one column marked.
        let mask = s.parity_mask(&sets.levels);
        assert_eq!(mask.ones().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn w_and_r_faults_at_intersections_need_level_two() {
        let s = RdisScheme::for_block(64, 3); // 8x8
                                              // W faults at (0,0) and (1,1); R fault at (0,1) — inside S1.
        let faults = vec![
            Fault::new(0, true),
            Fault::new(9, true),
            Fault::new(1, false),
        ];
        let wrong = vec![true, true, false];
        let sets = s.build_sets(&faults, &wrong).unwrap();
        assert!(sets.levels.len() >= 2);
        // Final parity must satisfy every fault: W odd, R even.
        let mask = s.parity_mask(&sets.levels);
        assert!(mask.get(0) && mask.get(9));
        assert!(!mask.get(1));
    }

    #[test]
    fn guaranteed_three_faults_always_recoverable() {
        // The RDIS paper guarantees 3 faults for RDIS-3; exercise random
        // triples under random splits.
        let s = RdisScheme::for_block(256, 3);
        let p = RdisPolicy::new(s);
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..500 {
            let mut faults = Vec::new();
            while faults.len() < 3 {
                let o: usize = rng.random_range(0..256);
                if !faults.iter().any(|f: &Fault| f.offset == o) {
                    faults.push(Fault::new(o, rng.random()));
                }
            }
            let wrong: Vec<bool> = (0..3).map(|_| rng.random()).collect();
            assert!(p.recoverable(&faults, &wrong), "{faults:?} {wrong:?}");
        }
    }

    #[test]
    fn depth_one_fails_on_protected_r_fault() {
        let s = RdisScheme::new(8, 8, 1);
        // W at (0,0),(1,1); R at (0,1) needs level 2.
        let faults = vec![
            Fault::new(0, true),
            Fault::new(9, true),
            Fault::new(1, false),
        ];
        let wrong = vec![true, true, false];
        assert!(s.build_sets(&faults, &wrong).is_none());
    }

    #[test]
    fn codec_roundtrips_random_fault_sets() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut survived = 0;
        for _ in 0..100 {
            let mut codec = RdisCodec::rdis3(64);
            let mut block = PcmBlock::pristine(64);
            for _ in 0..6 {
                let o: usize = rng.random_range(0..64);
                block.force_stuck(o, rng.random());
            }
            let data = BitBlock::random(&mut rng, 64);
            if codec.write(&mut block, &data).is_ok() {
                assert_eq!(codec.read(&block), data);
                survived += 1;
            }
        }
        assert!(
            survived >= 80,
            "RDIS-3 should absorb most 6-fault sets: {survived}"
        );
    }

    #[test]
    fn policy_matches_codec_on_fixed_cases() {
        let policy = RdisPolicy::rdis3(64);
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..200 {
            let mut block = PcmBlock::pristine(64);
            let mut faults = Vec::new();
            for _ in 0..5 {
                let o: usize = rng.random_range(0..64);
                if !faults.iter().any(|f: &Fault| f.offset == o) {
                    let stuck: bool = rng.random();
                    block.force_stuck(o, stuck);
                    faults.push(Fault::new(o, stuck));
                }
            }
            let data = BitBlock::random(&mut rng, 64);
            let wrong = classify_split(&faults, &data);
            let mut codec = RdisCodec::rdis3(64);
            let codec_ok = codec.write(&mut block, &data).is_ok();
            assert_eq!(codec_ok, policy.recoverable(&faults, &wrong));
            if codec_ok {
                assert_eq!(codec.read(&block), data);
            }
        }
    }

    #[test]
    fn kernel_parity_mask_matches_the_scalar_reference() {
        let mut rng = SmallRng::seed_from_u64(41);
        for &bits in &[64usize, 256, 512] {
            let scheme = RdisScheme::for_block(bits, 3);
            let rom = RdisRom::new(&scheme);
            for _ in 0..60 {
                // Random (not necessarily nested) levels: the kernel must
                // agree with the take_while semantics regardless.
                let depth = rng.random_range(0..=3);
                let levels: Vec<(BitBlock, BitBlock)> = (0..depth)
                    .map(|_| {
                        (
                            BitBlock::random(&mut rng, scheme.rows()),
                            BitBlock::random(&mut rng, scheme.cols()),
                        )
                    })
                    .collect();
                assert_eq!(
                    rom.parity_mask(&levels),
                    scheme.parity_mask(&levels),
                    "bits={bits} levels={levels:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_cache_matches_recompute() {
        let mut rng = SmallRng::seed_from_u64(327);
        let schemes = [
            RdisScheme::for_block(64, 3),
            RdisScheme::for_block(512, 3),
            RdisScheme::new(8, 8, 1),
        ];
        for scheme in schemes {
            let policy = RdisPolicy::new(scheme);
            assert!(policy.fast);
            let mut warm = PolicyScratch::new();
            for _ in 0..40 {
                policy.forget_block(&mut warm);
                let mut faults: Vec<Fault> = Vec::new();
                while faults.len() < 7 {
                    let o: usize = rng.random_range(0..scheme.block_bits());
                    if faults.iter().any(|f| f.offset == o) {
                        continue;
                    }
                    faults.push(Fault::new(o, rng.random()));
                    policy.observe_fault(&faults, &mut warm);
                    assert!(warm.pair_cache.matches(policy.key, &faults));
                    for _ in 0..4 {
                        let wrong: Vec<bool> = faults.iter().map(|_| rng.random()).collect();
                        let warm_verdict = policy.recoverable_with(&faults, &wrong, &mut warm);
                        let cold_verdict =
                            policy.recoverable_with(&faults, &wrong, &mut PolicyScratch::new());
                        let plain = policy.recoverable(&faults, &wrong);
                        assert_eq!(
                            warm_verdict, plain,
                            "warm: {scheme:?} faults={faults:?} wrong={wrong:?}"
                        );
                        assert_eq!(
                            cold_verdict, plain,
                            "cold: {scheme:?} faults={faults:?} wrong={wrong:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn overheads_literal_and_paper() {
        let codec = RdisCodec::rdis3(512);
        assert_eq!(codec.overhead_bits(), 144); // literal masks
        let policy = RdisPolicy::rdis3(512);
        assert_eq!(policy.overhead_bits(), 97); // paper annotation
        assert_eq!(policy.name(), "RDIS-3");
    }
}
