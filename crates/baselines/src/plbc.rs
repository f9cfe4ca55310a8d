//! Redundancy-allocated partitioned linear code (arXiv:1305.3289) — the
//! second information-theoretic comparator family.
//!
//! PLBC splits a fixed metadata budget between two mechanisms: `t_mask`
//! BCH masking row-blocks (exactly the [`masking`](crate::masking)
//! machinery) and `t_ecc` ECP-style pointer entries for residual
//! corrections. A write first looks for a coefficient vector `a` with
//! `a·h_i = c_i` at every stuck cell; when the system is inconsistent it
//! may *give up* on up to `t_ecc` cells — flipping their constraint and
//! repairing them with a pointer after unmasking. Recoverability is a
//! coset-weight condition: project the wrongness pattern onto the
//! dependency space of the fault columns (the syndrome σ) and ask
//! whether σ is a XOR of at most `t_ecc` per-fault dependency columns.
//!
//! At 512 bits a pointer entry costs ⌈log₂ 512⌉ + 1 = 10 bits and a
//! masking row-block costs m = 10 bits, so `PLC4+2` (40 + 20) and
//! `PLC5+1` (50 + 10) both land on 60 bits — matched against `Mask6`
//! and ECP6's 61. The families genuinely trade coverage: the pure mask
//! guarantees more simultaneous faults (`2t` grows faster than
//! `2·t_mask + t_ecc`), while the pointer budget rescues splits whose
//! dependency parities a pure mask cannot satisfy.
//!
//! The kernel path reuses [`MaskSystem`]'s `u64`-column basis and checks
//! the coset condition over `u128` dependency columns, which the
//! incremental path keeps per fault as dependencies appear; the retained
//! scalar reference ([`PlbcPolicy::scalar`]) instead enumerates every
//! flip subset of size ≤ `t_ecc` and re-runs the per-bit Gaussian
//! consistency check — a deliberately independent formulation of the
//! same predicate. [`PlbcCodec`] consults the block's fault oracle
//! (encoder side information), like [`MaskingCodec`].
//!
//! The kernel's guarantee (recoverable for every data word) is exact at
//! any fault count: the split → syndrome map is onto the dependency
//! space, so it asks whether every syndrome is a XOR of at most `t_ecc`
//! dependency columns. The scalar reference keeps the trait's split
//! enumeration, which samples past 14 faults.

use crate::cost::plbc_overhead;
use crate::masking::{
    absorb_columns, cached_syndrome, pack_wrong, scalar_consistent, solve_coefficients, MaskMatrix,
    MaskSystem,
};
use crate::safer::combinations;
use bitblock::BitBlock;
use pcm_sim::codec::{StuckAtCodec, WriteReport};
use pcm_sim::policy::{
    cache_key, guaranteed_splits, guaranteed_splits_with, PolicyScratch, RecoveryPolicy,
};
use pcm_sim::{Fault, PcmBlock, UncorrectableError};

/// Largest pointer budget the subset search supports (`C(f, 3)` stays
/// cheap at the workspace's 128-fault cap; the paper-matched
/// configurations use 1 or 2).
pub const MAX_PLBC_POINTERS: usize = 3;

/// Whether `sigma` is a XOR of at most `budget` of the nonzero columns.
fn coset_fixable(columns: &[u128], sigma: u128, budget: usize) -> bool {
    if sigma == 0 {
        return true;
    }
    if budget == 0 {
        return false;
    }
    columns.iter().enumerate().any(|(i, &column)| {
        column != 0 && coset_fixable(&columns[i + 1..], sigma ^ column, budget - 1)
    })
}

/// The smallest index subset (size ≤ `budget`) whose columns XOR to
/// `sigma`, searched in ascending size then lexicographic order so the
/// choice is deterministic.
fn find_flip_set(columns: &[u128], sigma: u128, budget: usize) -> Option<Vec<usize>> {
    fn exact(
        columns: &[u128],
        start: usize,
        sigma: u128,
        remaining: usize,
        picked: &mut Vec<usize>,
    ) -> bool {
        if remaining == 0 {
            return sigma == 0;
        }
        for i in start..columns.len() {
            if columns[i] == 0 {
                continue;
            }
            picked.push(i);
            if exact(columns, i + 1, sigma ^ columns[i], remaining - 1, picked) {
                return true;
            }
            picked.pop();
        }
        false
    }
    for size in 0..=budget {
        let mut picked = Vec::with_capacity(size);
        if exact(columns, 0, sigma, size, &mut picked) {
            return Some(picked);
        }
    }
    None
}

/// Per-fault dependency-membership columns: bit `d` of column `i` is set
/// iff fault `i` participates in dependency `d`. Flipping `c_i` toggles
/// exactly those syndrome bits.
fn dependency_columns(fault_count: usize, dependencies: &[u128]) -> Vec<u128> {
    (0..fault_count)
        .map(|i| {
            dependencies
                .iter()
                .enumerate()
                .fold(0u128, |acc, (d, &dep)| acc | ((dep >> i & 1) << d))
        })
        .collect()
}

/// Syndrome of a wrongness pattern over the dependency list: bit `d` is
/// the parity of `wrong` over dependency `d`'s support.
fn syndrome(dependencies: &[u128], wrong_mask: u128) -> u128 {
    dependencies
        .iter()
        .enumerate()
        .fold(0u128, |acc, (d, &dep)| {
            acc | (u128::from((dep & wrong_mask).count_ones() % 2 == 1) << d)
        })
}

/// Whether every split of a population is fixable: the exact PLBC
/// guarantee over its `dependencies` (independent supports) and the
/// per-fault dependency `columns`.
///
/// Independent supports make the split → syndrome map onto `F2^d`, so
/// the guarantee holds iff every `σ ∈ F2^d` is a XOR of at most `budget`
/// columns. Zero columns add nothing, so with `n` nonzero columns it fails
/// at once when `Σ_{i ≤ budget} C(n, i) < 2^d`; otherwise the XORs of
/// every such subset are marked in a `2^d`-entry table (`marks`, reused)
/// until all are reached.
fn every_syndrome_fixable(
    columns: &[u128],
    dependencies: usize,
    budget: usize,
    marks: &mut Vec<bool>,
) -> bool {
    if dependencies == 0 {
        return true;
    }
    let nonzero = columns.iter().filter(|&&column| column != 0).count() as u64;
    let (mut subsets, mut size) = (1u64, 1u64);
    for i in 0..budget as u64 {
        size = size * nonzero.saturating_sub(i) / (i + 1);
        subsets += size;
    }
    if dependencies >= 64 || subsets < 1 << dependencies {
        return false;
    }
    let syndromes = 1usize << dependencies;
    marks.clear();
    marks.resize(syndromes, false);
    marks[0] = true;
    let mut unmarked = syndromes - 1;
    mark_xors(columns, 0, budget, marks, &mut unmarked);
    unmarked == 0
}

/// Marks `sigma` XOR every nonempty subset of at most `budget` nonzero
/// `columns`, counting down `unmarked`; stops once it reaches zero.
fn mark_xors(
    columns: &[u128],
    sigma: u128,
    budget: usize,
    marks: &mut [bool],
    unmarked: &mut usize,
) {
    for (i, &column) in columns.iter().enumerate() {
        if *unmarked == 0 {
            return;
        }
        if column == 0 {
            continue;
        }
        let next = sigma ^ column;
        #[allow(clippy::cast_possible_truncation)]
        let mark = &mut marks[next as usize];
        if !*mark {
            *mark = true;
            *unmarked -= 1;
        }
        if budget > 1 {
            mark_xors(&columns[i + 1..], next, budget - 1, marks, unmarked);
        }
    }
}

/// The PLBC Monte Carlo policy (`PLC⟨t_mask⟩+⟨t_ecc⟩`).
#[derive(Debug, Clone)]
pub struct PlbcPolicy {
    matrix: MaskMatrix,
    t_ecc: usize,
    scalar: bool,
    key: u64,
}

impl PlbcPolicy {
    /// Kernel-mode policy with `t_mask` masking row-blocks and `t_ecc`
    /// pointer entries over a `block_bits`-bit block.
    ///
    /// # Panics
    ///
    /// Panics if `t_ecc` exceeds [`MAX_PLBC_POINTERS`]; see also
    /// [`MaskMatrix::new`].
    #[must_use]
    pub fn new(t_mask: usize, t_ecc: usize, block_bits: usize) -> Self {
        Self::with_mode(t_mask, t_ecc, block_bits, false)
    }

    /// The per-bit reference: enumerate every flip subset of size
    /// ≤ `t_ecc` and re-check consistency scalarly. Differentially
    /// pinned against the kernel mode.
    #[must_use]
    pub fn scalar(t_mask: usize, t_ecc: usize, block_bits: usize) -> Self {
        Self::with_mode(t_mask, t_ecc, block_bits, true)
    }

    fn with_mode(t_mask: usize, t_ecc: usize, block_bits: usize, scalar: bool) -> Self {
        assert!(
            t_ecc <= MAX_PLBC_POINTERS,
            "pointer budget {t_ecc} exceeds the supported {MAX_PLBC_POINTERS}"
        );
        let matrix = MaskMatrix::new(t_mask, block_bits);
        let key = cache_key(&[0x91BC, t_mask as u64, t_ecc as u64, block_bits as u64]);
        Self {
            matrix,
            t_ecc,
            scalar,
            key,
        }
    }

    /// Masking row-blocks.
    #[must_use]
    pub fn t_mask(&self) -> usize {
        self.matrix.t()
    }

    /// Pointer entries.
    #[must_use]
    pub fn t_ecc(&self) -> usize {
        self.t_ecc
    }

    fn system_for(&self, faults: &[Fault]) -> MaskSystem {
        let mut system = MaskSystem::new();
        for fault in faults {
            system.absorb(self.matrix.column(fault.offset));
        }
        system
    }

    fn recoverable_kernel(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        if faults.len() <= 2 * self.matrix.t() {
            return true; // BCH distance: no dependencies at all
        }
        let system = self.system_for(faults);
        let dependencies: Vec<u128> = system.dependencies().collect();
        if dependencies.is_empty() {
            return true;
        }
        let sigma = syndrome(&dependencies, pack_wrong(wrong));
        if sigma == 0 {
            return true;
        }
        coset_fixable(
            &dependency_columns(faults.len(), &dependencies),
            sigma,
            self.t_ecc,
        )
    }

    fn recoverable_scalar(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        let mut flipped = wrong.to_vec();
        for size in 0..=self.t_ecc.min(faults.len()) {
            for subset in combinations(faults.len(), size) {
                flipped.copy_from_slice(wrong);
                for &i in &subset {
                    flipped[i] = !flipped[i];
                }
                if scalar_consistent(&self.matrix, faults, &flipped) {
                    return true;
                }
            }
        }
        false
    }
}

impl RecoveryPolicy for PlbcPolicy {
    fn name(&self) -> String {
        format!("PLC{}+{}", self.matrix.t(), self.t_ecc)
    }

    fn overhead_bits(&self) -> usize {
        plbc_overhead(self.matrix.t(), self.t_ecc, self.matrix.block_bits())
    }

    fn block_bits(&self) -> usize {
        self.matrix.block_bits()
    }

    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        if self.scalar {
            self.recoverable_scalar(faults, wrong)
        } else {
            self.recoverable_kernel(faults, wrong)
        }
    }

    fn recoverable_with(
        &self,
        faults: &[Fault],
        wrong: &[bool],
        scratch: &mut PolicyScratch,
    ) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        let cache = &scratch.pair_cache;
        if self.scalar || !cache.matches(self.key, faults) {
            return self.recoverable(faults, wrong);
        }
        let sigma = cached_syndrome(cache, wrong);
        sigma == 0 || coset_fixable(&cache.columns, sigma, self.t_ecc)
    }

    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        if !self.scalar {
            absorb_columns(&self.matrix, self.key, faults, &mut scratch.pair_cache);
        }
    }

    fn explain(&self, faults: &[Fault], wrong: &[bool]) -> Option<String> {
        let name = self.name();
        let count = faults.len();
        let system = self.system_for(faults);
        let dependencies: Vec<u128> = system.dependencies().collect();
        if dependencies.is_empty() {
            return Some(format!(
                "{name}: all {count} fault columns independent — masked with no \
                 pointer spend"
            ));
        }
        let sigma = syndrome(&dependencies, pack_wrong(wrong));
        if sigma == 0 {
            return Some(format!(
                "{name}: {} dependencies, all parities even — masked with no \
                 pointer spend",
                dependencies.len()
            ));
        }
        let columns = dependency_columns(count, &dependencies);
        Some(match find_flip_set(&columns, sigma, self.t_ecc) {
            Some(flips) => {
                let offsets: Vec<usize> = flips.iter().map(|&i| faults[i].offset).collect();
                format!(
                    "{name}: syndrome weight {} fixed by pointer repairs at \
                         offsets {offsets:?} ({} of {} entries)",
                    sigma.count_ones(),
                    flips.len(),
                    self.t_ecc
                )
            }
            None => format!(
                "{name}: syndrome weight {} needs more than {} pointer \
                     repairs — unrecoverable",
                sigma.count_ones(),
                self.t_ecc
            ),
        })
    }

    fn guaranteed(&self, faults: &[Fault]) -> bool {
        // Closed-form bound: within the BCH distance of the mask part the
        // system is consistent for every data word (no pointers needed).
        if faults.len() <= 2 * self.matrix.t() {
            return true;
        }
        // The per-bit reference keeps the shared enumeration discipline
        // (exhaustive up to EXHAUSTIVE_SPLIT_LIMIT faults, then
        // deterministic samples) as an independent formulation.
        if self.scalar {
            return guaranteed_splits(self, faults);
        }
        let system = self.system_for(faults);
        let dependencies: Vec<u128> = system.dependencies().collect();
        every_syndrome_fixable(
            &dependency_columns(faults.len(), &dependencies),
            dependencies.len(),
            self.t_ecc,
            &mut Vec::new(),
        )
    }

    /// The same exact test read off a warm cache when it covers `faults`
    /// (its dependency columns and count), marking syndromes in
    /// `scratch.flags`; the reference replays its enumeration out of the
    /// arena.
    fn guaranteed_with(&self, faults: &[Fault], scratch: &mut PolicyScratch) -> bool {
        if faults.len() <= 2 * self.matrix.t() {
            return true;
        }
        if self.scalar {
            return guaranteed_splits_with(self, faults, scratch);
        }
        let PolicyScratch {
            flags, pair_cache, ..
        } = scratch;
        if !pair_cache.matches(self.key, faults) {
            return self.guaranteed(faults);
        }
        every_syndrome_fixable(&pair_cache.columns, pair_cache.clean, self.t_ecc, flags)
    }
}

/// The PLBC functional codec: masking plus ECP-style residual pointers.
///
/// # Examples
///
/// ```
/// use aegis_baselines::PlbcCodec;
/// use bitblock::BitBlock;
/// use pcm_sim::codec::StuckAtCodec;
/// use pcm_sim::PcmBlock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut codec = PlbcCodec::new(4, 2, 512);
/// let mut block = PcmBlock::pristine(512);
/// for offset in [3usize, 97, 205, 300, 441] {
///     block.force_stuck(offset, offset % 2 == 0);
/// }
/// let data = BitBlock::zeros(512);
/// codec.write(&mut block, &data)?;
/// assert_eq!(codec.read(&block), data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlbcCodec {
    matrix: MaskMatrix,
    t_ecc: usize,
    coefficients: u64,
    entries: Vec<(usize, bool)>,
}

impl PlbcCodec {
    /// Creates a `PLC⟨t_mask⟩+⟨t_ecc⟩` codec for `block_bits`-bit blocks.
    ///
    /// # Panics
    ///
    /// As [`PlbcPolicy::new`].
    #[must_use]
    pub fn new(t_mask: usize, t_ecc: usize, block_bits: usize) -> Self {
        assert!(
            t_ecc <= MAX_PLBC_POINTERS,
            "pointer budget {t_ecc} exceeds the supported {MAX_PLBC_POINTERS}"
        );
        Self {
            matrix: MaskMatrix::new(t_mask, block_bits),
            t_ecc,
            coefficients: 0,
            entries: Vec::new(),
        }
    }

    /// Pointer entries spent on the last successful write.
    #[must_use]
    pub fn entries_used(&self) -> usize {
        self.entries.len()
    }
}

impl StuckAtCodec for PlbcCodec {
    /// # Errors
    ///
    /// [`UncorrectableError`] when the stuck pattern needs more than
    /// `t_ecc` pointer repairs on top of the mask.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    fn write(
        &mut self,
        block: &mut PcmBlock,
        data: &BitBlock,
    ) -> Result<WriteReport, UncorrectableError> {
        assert_eq!(data.len(), self.matrix.block_bits(), "data width mismatch");
        assert_eq!(
            block.len(),
            self.matrix.block_bits(),
            "block width mismatch"
        );
        let faults = block.faults();
        let mut wanted: Vec<bool> = faults
            .iter()
            .map(|fault| fault.stuck != data.get(fault.offset))
            .collect();
        let mut system = MaskSystem::new();
        for fault in &faults {
            system.absorb(self.matrix.column(fault.offset));
        }
        let dependencies: Vec<u128> = system.dependencies().collect();
        let sigma = syndrome(&dependencies, pack_wrong(&wanted));
        let columns = dependency_columns(faults.len(), &dependencies);
        let Some(flips) = find_flip_set(&columns, sigma, self.t_ecc) else {
            return Err(UncorrectableError::new(
                self.name(),
                faults.len(),
                "stuck pattern needs more pointer repairs than allocated",
            ));
        };
        for &i in &flips {
            wanted[i] = !wanted[i];
        }
        let coefficients = solve_coefficients(&self.matrix, &faults, &wanted)
            .expect("flip set makes the masking system consistent");
        self.coefficients = coefficients;
        self.entries = flips
            .iter()
            .map(|&i| (faults[i].offset, data.get(faults[i].offset)))
            .collect();
        let target = data ^ &self.matrix.mask_vector(coefficients);
        let report = WriteReport {
            cell_pulses: block.write_raw(&target),
            verify_reads: 1,
            ..WriteReport::default()
        };
        // The cells given up on read back wrong by construction; anything
        // else would be a model violation.
        let wrong_offsets = block.verify(&target);
        let expected: Vec<usize> = self.entries.iter().map(|&(offset, _)| offset).collect();
        if wrong_offsets != expected {
            return Err(UncorrectableError::new(
                self.name(),
                block.fault_count(),
                "verification failed after masking and pointer repair",
            ));
        }
        Ok(report)
    }

    fn read(&self, block: &PcmBlock) -> BitBlock {
        let mut out = block.read_raw() ^ self.matrix.mask_vector(self.coefficients);
        for &(offset, bit) in &self.entries {
            out.set(offset, bit);
        }
        out
    }

    fn overhead_bits(&self) -> usize {
        plbc_overhead(self.matrix.t(), self.t_ecc, self.matrix.block_bits())
    }

    fn block_bits(&self) -> usize {
        self.matrix.block_bits()
    }

    fn name(&self) -> String {
        format!("PLC{}+{}", self.matrix.t(), self.t_ecc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masking::MaskingPolicy;
    use pcm_sim::classify_split;
    use sim_rng::{Rng, SeedableRng, SmallRng};

    #[test]
    fn overheads_match_the_budget_table() {
        assert_eq!(PlbcPolicy::new(4, 2, 512).overhead_bits(), 60);
        assert_eq!(PlbcPolicy::new(5, 1, 512).overhead_bits(), 60);
        assert_eq!(PlbcCodec::new(4, 2, 512).overhead_bits(), 60);
        assert_eq!(PlbcPolicy::new(4, 2, 512).name(), "PLC4+2");
    }

    #[test]
    fn kernel_and_scalar_policies_agree_everywhere() {
        let mut rng = SmallRng::seed_from_u64(1305);
        for &(t_mask, t_ecc, bits) in &[(1usize, 1usize, 64usize), (2, 1, 64), (2, 2, 64)] {
            let kernel = PlbcPolicy::new(t_mask, t_ecc, bits);
            let scalar = PlbcPolicy::scalar(t_mask, t_ecc, bits);
            for _ in 0..30 {
                let count = rng.random_range(1..=2 * t_mask + t_ecc + 3);
                let mut faults: Vec<Fault> = Vec::new();
                while faults.len() < count {
                    let offset: usize = rng.random_range(0..bits);
                    if !faults.iter().any(|f| f.offset == offset) {
                        faults.push(Fault::new(offset, rng.random()));
                    }
                }
                for _ in 0..8 {
                    let wrong: Vec<bool> = faults.iter().map(|_| rng.random()).collect();
                    assert_eq!(
                        kernel.recoverable(&faults, &wrong),
                        scalar.recoverable(&faults, &wrong),
                        "t={t_mask}+{t_ecc} bits={bits} {faults:?} {wrong:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_cache_matches_recompute() {
        let mut rng = SmallRng::seed_from_u64(21);
        let policy = PlbcPolicy::new(2, 1, 64);
        let mut warm = PolicyScratch::new();
        for _ in 0..25 {
            policy.forget_block(&mut warm);
            let mut faults: Vec<Fault> = Vec::new();
            while faults.len() < 9 {
                let offset: usize = rng.random_range(0..64);
                if faults.iter().any(|f| f.offset == offset) {
                    continue;
                }
                faults.push(Fault::new(offset, rng.random()));
                policy.observe_fault(&faults, &mut warm);
                for _ in 0..6 {
                    let wrong: Vec<bool> = faults.iter().map(|_| rng.random()).collect();
                    let warm_verdict = policy.recoverable_with(&faults, &wrong, &mut warm);
                    let cold_verdict =
                        policy.recoverable_with(&faults, &wrong, &mut PolicyScratch::new());
                    let plain = policy.recoverable(&faults, &wrong);
                    assert_eq!(warm_verdict, plain, "warm: {faults:?} {wrong:?}");
                    assert_eq!(cold_verdict, plain, "cold: {faults:?} {wrong:?}");
                }
            }
        }
    }

    #[test]
    fn pointers_extend_the_pure_mask() {
        // PLC(t, e) accepts a superset of Mask t: any consistent system
        // stays consistent with a zero-flip budget spent. Six faults in a
        // 4-row system (t = 1 at the primitive length 15) force at least
        // two dependencies, so strictness shows up quickly.
        let mask = MaskingPolicy::new(1, 15);
        let plbc = PlbcPolicy::new(1, 1, 15);
        let mut rng = SmallRng::seed_from_u64(33);
        let mut strictly_more = false;
        for _ in 0..200 {
            let mut faults: Vec<Fault> = Vec::new();
            while faults.len() < 6 {
                let offset: usize = rng.random_range(0..15);
                if !faults.iter().any(|f| f.offset == offset) {
                    faults.push(Fault::new(offset, rng.random()));
                }
            }
            let wrong: Vec<bool> = faults.iter().map(|_| rng.random()).collect();
            let mask_ok = mask.recoverable(&faults, &wrong);
            let plbc_ok = plbc.recoverable(&faults, &wrong);
            if mask_ok {
                assert!(plbc_ok, "{faults:?} {wrong:?}");
            }
            strictly_more |= plbc_ok && !mask_ok;
        }
        assert!(strictly_more, "the pointer budget must rescue some split");
    }

    #[test]
    fn guarantee_covers_the_mask_distance() {
        let policy = PlbcPolicy::new(2, 1, 64);
        let faults: Vec<Fault> = (0..4).map(|o| Fault::new(o * 7, false)).collect();
        assert!(policy.guaranteed(&faults)); // 4 = 2·t_mask
    }

    #[test]
    fn exact_guarantee_agrees_between_forms_past_the_exhaustive_limit() {
        // 15–20 faults: past EXHAUSTIVE_SPLIT_LIMIT, where the split
        // enumeration would sample; both forms stay exact, cold from a
        // fresh basis and through a warm cache.
        let mut rng = SmallRng::seed_from_u64(1514);
        let policy = PlbcPolicy::new(2, 1, 64);
        let mut warm = PolicyScratch::new();
        let mut verdicts = [0usize; 2];
        for _ in 0..12 {
            policy.forget_block(&mut warm);
            let count = rng.random_range(15..=20);
            let mut faults: Vec<Fault> = Vec::new();
            while faults.len() < count {
                let offset: usize = rng.random_range(0..64);
                if !faults.iter().any(|f| f.offset == offset) {
                    faults.push(Fault::new(offset, rng.random()));
                    policy.observe_fault(&faults, &mut warm);
                }
            }
            let cold = policy.guaranteed(&faults);
            assert_eq!(
                policy.guaranteed_with(&faults, &mut warm),
                cold,
                "{faults:?}"
            );
            verdicts[usize::from(cold)] += 1;
        }
        assert!(
            verdicts[0] > 0 && verdicts[1] > 0,
            "the populations must both pass and fail the guarantee"
        );
    }

    #[test]
    fn codec_round_trips_and_agrees_with_the_policy() {
        let mut rng = SmallRng::seed_from_u64(77);
        let policy = PlbcPolicy::new(2, 1, 64);
        for _ in 0..60 {
            let mut block = PcmBlock::pristine(64);
            let count = rng.random_range(0..=8);
            let mut offsets: Vec<usize> = Vec::new();
            while offsets.len() < count {
                let offset: usize = rng.random_range(0..64);
                if !offsets.contains(&offset) {
                    offsets.push(offset);
                    let stuck: bool = rng.random();
                    if rng.random() {
                        block.force_partially_stuck(offset, stuck, 200);
                    } else {
                        block.force_stuck(offset, stuck);
                    }
                }
            }
            let data = BitBlock::random(&mut rng, 64);
            let faults = block.faults();
            let wrong = classify_split(&faults, &data);
            let mut codec = PlbcCodec::new(2, 1, 64);
            match codec.write(&mut block, &data) {
                Ok(_) => {
                    assert!(policy.recoverable(&faults, &wrong), "{faults:?} {wrong:?}");
                    assert_eq!(codec.read(&block), data);
                    assert!(codec.entries_used() <= 1);
                }
                Err(_) => {
                    assert!(!policy.recoverable(&faults, &wrong), "{faults:?} {wrong:?}");
                }
            }
        }
    }

    #[test]
    fn explain_agrees_with_the_verdict() {
        let policy = PlbcPolicy::new(1, 1, 15);
        // Three dependent columns exist at the primitive length for t=1.
        let dependent = combinations(15, 3)
            .into_iter()
            .find(|subset| {
                let mut system = MaskSystem::new();
                for &i in subset {
                    system.absorb(MaskMatrix::new(1, 15).column(i));
                }
                !system.is_full_rank()
            })
            .unwrap();
        let faults: Vec<Fault> = dependent.iter().map(|&o| Fault::new(o, false)).collect();
        // One odd dependency: a single pointer fixes it.
        let one_wrong = [true, false, false];
        assert!(policy.recoverable(&faults, &one_wrong));
        let fixed = policy.explain(&faults, &one_wrong).unwrap();
        assert!(fixed.contains("pointer repairs at offsets"), "{fixed}");
        let clean = policy.explain(&faults, &[true, true, false]).unwrap();
        assert!(clean.contains("no pointer spend"), "{clean}");
    }
}
