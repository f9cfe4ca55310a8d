//! SAFER: Stuck-At-Fault Error Recovery (Seong et al., MICRO 2010) — the
//! partition-and-inversion comparator of the paper.
//!
//! SAFER partitions a block by a *partition vector*: up to `m` selected bit
//! positions of the in-block cell address. Cells whose addresses agree on
//! every selected position share a group (so `2^m` groups), and a group
//! with a single stuck-at-Wrong cell is stored inverted. When two faults
//! collide in a group, SAFER *grows* the vector by a position on which
//! their addresses differ — doubling the group count, which is exactly the
//! exponential cost the Aegis paper targets.
//!
//! Two re-partition strategies are provided:
//!
//! - [`PartitionSearch::Incremental`] — the published algorithm: only add
//!   distinguishing positions; once the vector is full a collision is
//!   fatal.
//! - [`PartitionSearch::Exhaustive`] — an idealized upper bound that
//!   searches every `C(⌈log₂n⌉, m)` vector. The paper's figures are
//!   reproduced with this mode (being generous to SAFER is conservative
//!   toward Aegis's claims); the gap between the two is an ablation bench.

use crate::cost::safer_overhead;
use bitblock::BitBlock;
use pcm_sim::codec::{StuckAtCodec, WriteReport};
use pcm_sim::policy::{cache_key, CachedPair, PairCache, PolicyScratch, RecoveryPolicy, MASK_BITS};
use pcm_sim::{Fault, PcmBlock, UncorrectableError};

/// How the codec looks for a collision-free partition vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionSearch {
    /// Grow the current vector by one distinguishing bit per collision
    /// (faithful to the SAFER paper).
    Incremental,
    /// Try every possible vector (idealized SAFER; default for figures).
    #[default]
    Exhaustive,
}

/// Shared SAFER geometry: vector arithmetic over cell addresses.
#[derive(Debug, Clone)]
pub struct SaferScheme {
    /// Maximum partition-vector length (`2^m` groups).
    m: usize,
    block_bits: usize,
    addr_bits: usize,
}

impl SaferScheme {
    /// Creates a SAFER-`2^m` scheme for `block_bits`-bit blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `block_bits` is a power of two and
    /// `1 ≤ m ≤ log₂ block_bits`.
    #[must_use]
    pub fn new(m: usize, block_bits: usize) -> Self {
        assert!(
            block_bits.is_power_of_two(),
            "SAFER requires a power-of-two block"
        );
        let addr_bits = block_bits.trailing_zeros() as usize;
        assert!(
            m >= 1 && m <= addr_bits,
            "vector length {m} out of 1..={addr_bits}"
        );
        Self {
            m,
            block_bits,
            addr_bits,
        }
    }

    /// Maximum vector length.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of groups at full vector length.
    #[must_use]
    pub fn groups(&self) -> usize {
        1 << self.m
    }

    /// Block width in bits.
    #[must_use]
    pub fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// Address bits of a cell offset.
    #[must_use]
    pub fn addr_bits(&self) -> usize {
        self.addr_bits
    }

    /// Group of `offset` under the partition `positions` (bit `i` of the
    /// group index is address bit `positions[i]`).
    #[must_use]
    pub fn group_of(&self, offset: usize, positions: &[usize]) -> usize {
        positions
            .iter()
            .enumerate()
            .fold(0, |g, (i, &p)| g | (((offset >> p) & 1) << i))
    }

    /// All `C(addr_bits, m)` full-length partition vectors.
    #[must_use]
    pub fn all_vectors(&self) -> Vec<Vec<usize>> {
        combinations(self.addr_bits, self.m)
    }

    /// A position on which two addresses differ that is not yet in the
    /// vector, if any.
    #[must_use]
    pub fn distinguishing_bit(&self, o1: usize, o2: usize, positions: &[usize]) -> Option<usize> {
        (0..self.addr_bits).find(|&p| ((o1 ^ o2) >> p) & 1 == 1 && !positions.contains(&p))
    }
}

/// All `k`-element subsets of `0..n`, lexicographic.
#[must_use]
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..n {
            current.push(i);
            rec(i + 1, n, k, current, out);
            current.pop();
        }
    }
    rec(0, n, k, &mut current, &mut out);
    out
}

/// Outcome of one partition attempt inside the codec.
enum Attempt {
    Success(BitBlock),
    /// Two offsets that ended up wrong in the same group.
    Collision(usize, usize),
}

/// The SAFER-N functional codec (no fail cache: faults are discovered via
/// verification reads, exactly like base Aegis).
///
/// # Examples
///
/// ```
/// use aegis_baselines::{PartitionSearch, SaferCodec};
/// use bitblock::BitBlock;
/// use pcm_sim::codec::StuckAtCodec;
/// use pcm_sim::PcmBlock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut codec = SaferCodec::new(5, 512, PartitionSearch::Incremental);
/// let mut block = PcmBlock::pristine(512);
/// block.force_stuck(100, true);
/// let data = BitBlock::zeros(512);
/// codec.write(&mut block, &data)?;
/// assert_eq!(codec.read(&block), data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SaferCodec {
    scheme: SaferScheme,
    search: PartitionSearch,
    positions: Vec<usize>,
    inversion: BitBlock,
    /// `addr_masks[p]` marks every offset whose address bit `p` is 1 —
    /// the word-packed building blocks of the inversion-mask kernel.
    addr_masks: Vec<BitBlock>,
}

impl SaferCodec {
    /// Creates a SAFER-`2^m` codec for `block_bits`-bit blocks.
    ///
    /// # Panics
    ///
    /// See [`SaferScheme::new`].
    #[must_use]
    pub fn new(m: usize, block_bits: usize, search: PartitionSearch) -> Self {
        let scheme = SaferScheme::new(m, block_bits);
        let inversion = BitBlock::zeros(scheme.groups());
        let addr_masks = (0..scheme.addr_bits())
            .map(|p| BitBlock::from_fn(block_bits, |offset| (offset >> p) & 1 == 1))
            .collect();
        Self {
            scheme,
            search,
            positions: Vec::new(),
            inversion,
            addr_masks,
        }
    }

    /// Current partition vector (selected address-bit positions).
    #[must_use]
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The scheme geometry.
    #[must_use]
    pub fn scheme(&self) -> &SaferScheme {
        &self.scheme
    }

    /// Block-wide mask of cells whose group is marked for inversion.
    ///
    /// Word-level kernel: each inverted group contributes the AND of its
    /// matching address-bit masks (or their complements), OR-accumulated a
    /// `u64` lane at a time. [`Self::inversion_mask_scalar`] is the
    /// per-point reference it is tested against.
    fn inversion_mask(&self, positions: &[usize], inversion: &BitBlock) -> BitBlock {
        let bits = self.scheme.block_bits;
        let mut out = BitBlock::zeros(bits);
        for wi in 0..out.as_words().len() {
            let mut acc = 0u64;
            for group in inversion.ones() {
                if group >> positions.len() != 0 {
                    // Unreachable under `positions`: no cell maps there.
                    continue;
                }
                let mut term = !0u64;
                for (i, &p) in positions.iter().enumerate() {
                    let mask = self.addr_masks[p].as_words()[wi];
                    term &= if (group >> i) & 1 == 1 { mask } else { !mask };
                }
                acc |= term;
            }
            out.set_word(wi, acc);
        }
        out
    }

    /// Per-point reference implementation of [`Self::inversion_mask`],
    /// retained for the differential test below.
    #[cfg_attr(not(test), allow(dead_code))]
    fn inversion_mask_scalar(&self, positions: &[usize], inversion: &BitBlock) -> BitBlock {
        BitBlock::from_fn(self.scheme.block_bits, |offset| {
            inversion.get(self.scheme.group_of(offset, positions))
        })
    }

    /// One attempt at a fixed partition: iteratively invert wrong groups.
    /// `cause[g]` remembers the wrong cell that triggered group `g`'s
    /// inversion, so a later collision in `g` can name both offsets (the
    /// incremental strategy needs the pair to pick a distinguishing bit).
    fn try_partition(
        &self,
        block: &mut PcmBlock,
        data: &BitBlock,
        positions: &[usize],
        report: &mut WriteReport,
    ) -> Attempt {
        let groups = 1 << positions.len();
        let mut inversion = BitBlock::zeros(self.scheme.groups());
        let mut cause = vec![usize::MAX; groups];
        for round in 0..=groups {
            let target = data ^ &self.inversion_mask(positions, &inversion);
            report.cell_pulses += block.write_raw(&target);
            if round > 0 {
                report.inversion_writes += 1;
            }
            report.verify_reads += 1;
            let wrong = block.verify(&target);
            if wrong.is_empty() {
                return Attempt::Success(inversion);
            }
            let mut new_groups = Vec::with_capacity(wrong.len());
            for offset in wrong {
                let group = self.scheme.group_of(offset, positions);
                if cause[group] != usize::MAX {
                    // Second wrong cell in this group (same round or after
                    // its inversion): a genuine fault collision.
                    return Attempt::Collision(cause[group], offset);
                }
                cause[group] = offset;
                new_groups.push(group);
            }
            for group in new_groups {
                inversion.set(group, true);
            }
        }
        Attempt::Collision(0, 0)
    }
}

impl StuckAtCodec for SaferCodec {
    /// # Errors
    ///
    /// [`UncorrectableError`] when no reachable partition vector separates
    /// the colliding faults for this data word.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    fn write(
        &mut self,
        block: &mut PcmBlock,
        data: &BitBlock,
    ) -> Result<WriteReport, UncorrectableError> {
        assert_eq!(data.len(), self.scheme.block_bits, "data width mismatch");
        assert_eq!(block.len(), self.scheme.block_bits, "block width mismatch");
        let mut report = WriteReport::default();
        match self.search {
            PartitionSearch::Incremental => {
                let mut positions = self.positions.clone();
                loop {
                    match self.try_partition(block, data, &positions, &mut report) {
                        Attempt::Success(inversion) => {
                            self.positions = positions;
                            self.inversion = inversion;
                            return Ok(report);
                        }
                        Attempt::Collision(o1, o2) => {
                            report.repartitions += 1;
                            let grown = (o1 != o2)
                                .then(|| self.scheme.distinguishing_bit(o1, o2, &positions))
                                .flatten();
                            match grown {
                                Some(bit) if positions.len() < self.scheme.m => {
                                    positions.push(bit);
                                }
                                _ => {
                                    return Err(UncorrectableError::new(
                                        self.name(),
                                        block.fault_count(),
                                        "partition vector exhausted",
                                    ))
                                }
                            }
                        }
                    }
                }
            }
            PartitionSearch::Exhaustive => {
                for (i, positions) in self.scheme.all_vectors().into_iter().enumerate() {
                    if i > 0 {
                        report.repartitions += 1;
                    }
                    if let Attempt::Success(inversion) =
                        self.try_partition(block, data, &positions, &mut report)
                    {
                        self.positions = positions;
                        self.inversion = inversion;
                        return Ok(report);
                    }
                }
                Err(UncorrectableError::new(
                    self.name(),
                    block.fault_count(),
                    "every partition vector collides for this data",
                ))
            }
        }
    }

    fn read(&self, block: &PcmBlock) -> BitBlock {
        block.read_raw() ^ self.inversion_mask(&self.positions, &self.inversion)
    }

    fn overhead_bits(&self) -> usize {
        safer_overhead(self.scheme.m, self.scheme.block_bits)
    }

    fn block_bits(&self) -> usize {
        self.scheme.block_bits
    }

    fn name(&self) -> String {
        let search = match self.search {
            PartitionSearch::Incremental => "",
            PartitionSearch::Exhaustive => "-ideal",
        };
        format!("SAFER{}{}", self.scheme.groups(), search)
    }
}

/// Monte Carlo predicate for SAFER-N.
///
/// Without a cache, a write succeeds under a partition iff every group has
/// at most one W fault and no W–R mix (group inversion can mask exactly one
/// wrong cell, and inverting breaks co-located R faults). With a cache
/// (`cache = true`), same-type multi-fault groups are fine and only W–R
/// mixes matter — the `SAFERN-cache` curves of Figures 8–9.
#[derive(Debug, Clone)]
pub struct SaferPolicy {
    scheme: SaferScheme,
    vectors: Vec<Vec<usize>>,
    cache: bool,
    search: PartitionSearch,
    /// Owner key for the per-block [`pcm_sim::policy::PairCache`]. The
    /// cached content is geometric (no dependence on the fail-cache flag),
    /// so both cache modes of a given `(m, block_bits, search)` share it.
    key: u64,
    /// `vec_masks[p]`: bit `v` set iff full-length vector `v` contains
    /// address bit `p`. Empty when more than [`MASK_BITS`] vectors exist
    /// (the `u128` fast path is gated off and the recompute path is used
    /// instead).
    vec_masks: Vec<u128>,
    /// All-vectors mask: `(1 << vectors.len()) - 1` when the fast path is
    /// enabled, 0 otherwise.
    full_mask: u128,
}

impl SaferPolicy {
    /// Creates the idealized (exhaustive-search) policy.
    #[must_use]
    pub fn new(m: usize, block_bits: usize, cache: bool) -> Self {
        Self::with_search(m, block_bits, cache, PartitionSearch::Exhaustive)
    }

    /// Creates a policy with an explicit re-partition strategy.
    ///
    /// # Panics
    ///
    /// Panics if `m > 7` (the policy's occupancy masks support up to
    /// [`MASK_BITS`] = 128 groups — every configuration the paper
    /// simulates).
    #[must_use]
    pub fn with_search(m: usize, block_bits: usize, cache: bool, search: PartitionSearch) -> Self {
        assert!(
            m <= MASK_BITS.ilog2() as usize,
            "SaferPolicy supports up to {MASK_BITS} groups (m <= 7)"
        );
        let scheme = SaferScheme::new(m, block_bits);
        let vectors = scheme.all_vectors();
        let (vec_masks, full_mask) = if vectors.len() <= MASK_BITS {
            let mut masks = vec![0u128; scheme.addr_bits()];
            for (v, positions) in vectors.iter().enumerate() {
                for &p in positions {
                    masks[p] |= 1u128 << v;
                }
            }
            (masks, u128::MAX >> (MASK_BITS - vectors.len()))
        } else {
            (Vec::new(), 0)
        };
        let search_tag = match search {
            PartitionSearch::Incremental => 1,
            PartitionSearch::Exhaustive => 2,
        };
        let key = cache_key(&[0x5AFE, m as u64, block_bits as u64, search_tag]);
        Self {
            scheme,
            vectors,
            cache,
            search,
            key,
            vec_masks,
            full_mask,
        }
    }

    /// Whether a fixed partition handles the split. Group occupancy is kept
    /// in two `u128` bitmasks (SAFER never exceeds [`MASK_BITS`] groups in
    /// the paper's configurations), keeping the Monte Carlo hot path
    /// allocation-free.
    fn partition_ok(&self, positions: &[usize], faults: &[Fault], wrong: &[bool]) -> bool {
        debug_assert!(
            1 << positions.len() <= MASK_BITS,
            "u128 occupancy supports <= {MASK_BITS} groups"
        );
        let mut has_w = 0u128;
        let mut has_r = 0u128;
        for (fault, &is_wrong) in faults.iter().zip(wrong) {
            let bit = 1u128 << self.scheme.group_of(fault.offset, positions);
            if is_wrong {
                if has_r & bit != 0 || (!self.cache && has_w & bit != 0) {
                    return false;
                }
                has_w |= bit;
            } else {
                if has_w & bit != 0 {
                    return false;
                }
                has_r |= bit;
            }
        }
        true
    }

    /// The vector the incremental algorithm would have grown over this
    /// fault arrival order, separating every fault pair it can.
    fn incremental_vector(&self, faults: &[Fault]) -> Vec<usize> {
        let mut positions: Vec<usize> = Vec::new();
        for (i, fi) in faults.iter().enumerate() {
            for fj in &faults[..i] {
                if positions.len() >= self.scheme.m {
                    return positions;
                }
                if self.scheme.group_of(fi.offset, &positions)
                    == self.scheme.group_of(fj.offset, &positions)
                {
                    if let Some(bit) = self
                        .scheme
                        .distinguishing_bit(fi.offset, fj.offset, &positions)
                    {
                        positions.push(bit);
                    }
                }
            }
        }
        positions
    }

    /// Incremental (exhaustive search): for each *new* fault, the set of
    /// vectors under which it shares a group with each earlier fault — a
    /// pure function of the offset pair, cached once per pair.
    fn absorb_pair_masks(&self, faults: &[Fault], cache: &mut PairCache) {
        let start = cache.begin(self.key, faults);
        for j in start..faults.len() {
            let fj = faults[j];
            for (i, fi) in faults[..j].iter().enumerate() {
                // The pair is co-grouped under exactly the vectors avoiding
                // every address bit on which the two offsets differ.
                let mut diff = fi.offset ^ fj.offset;
                let mut excluded = 0u128;
                while diff != 0 {
                    excluded |= self.vec_masks[diff.trailing_zeros() as usize];
                    diff &= diff - 1;
                }
                let mask = self.full_mask & !excluded;
                if mask != 0 {
                    cache.pairs.push(CachedPair {
                        a: i as u32,
                        b: j as u32,
                        tag: 0,
                    });
                    cache.masks.push(mask);
                    cache.all_mask |= mask;
                }
            }
            cache.commit(fj);
        }
    }

    /// Incremental (published search): replays [`Self::incremental_vector`]'s
    /// growth for the new suffix only, over group masks of fault indices.
    ///
    /// `masks[g]` holds the covered faults in group `g` under the grown
    /// `positions`, `groups[i]` fault `i`'s group and `all_mask` the faults
    /// that share their group with another. The published walk visits the
    /// earlier faults in index order and grows the vector on each visited
    /// fault still co-grouped with the new one, so the next visit that can
    /// matter is the lowest member of the new fault's group above the last
    /// index visited; every other visit is a no-op skipped in one
    /// `trailing_zeros`. A grown position regroups the covered faults by
    /// one bit, at most `m` times per block. Past [`MASK_BITS`] faults
    /// nothing is committed, so the cache stops matching and verdicts take
    /// the cold path.
    fn absorb_incremental_vector(&self, faults: &[Fault], cache: &mut PairCache) {
        if faults.len() > MASK_BITS {
            return;
        }
        let start = cache.begin(self.key, faults);
        if cache.masks.len() != self.scheme.groups() {
            cache.masks.clear();
            cache.masks.resize(self.scheme.groups(), 0);
        }
        for j in start..faults.len() {
            let fj = faults[j].offset;
            let mut visited = 0u128;
            while cache.positions.len() < self.scheme.m {
                let g = self.scheme.group_of(fj, &cache.positions);
                let ahead = cache.masks[g] & !visited;
                if ahead == 0 {
                    break;
                }
                let i = ahead.trailing_zeros() as usize;
                visited |= u128::MAX >> (MASK_BITS - 1 - i);
                if let Some(bit) =
                    self.scheme
                        .distinguishing_bit(fj, faults[i].offset, &cache.positions)
                {
                    self.regroup(faults, bit, cache);
                }
            }
            let g = self.scheme.group_of(fj, &cache.positions);
            let bit = 1u128 << j;
            if cache.masks[g] != 0 {
                cache.all_mask |= cache.masks[g] | bit;
            }
            cache.masks[g] |= bit;
            cache.groups.push(g as u8);
            cache.commit(faults[j]);
        }
    }

    /// Appends address bit `bit` to the cached vector and moves every
    /// covered fault with that address bit set into the upper half of its
    /// group's split.
    ///
    /// `all_mask` needs no update: while the vector has room, every arrival
    /// that lands beside a fault grows the vector to separate the two, so
    /// only faults with equal offsets share a group — and they move
    /// together.
    fn regroup(&self, faults: &[Fault], bit: usize, cache: &mut PairCache) {
        let high = 1 << cache.positions.len();
        cache.positions.push(bit);
        for (i, f) in faults[..cache.groups.len()].iter().enumerate() {
            if (f.offset >> bit) & 1 == 1 {
                let g = &mut cache.groups[i];
                cache.masks[*g as usize] &= !(1u128 << i);
                *g |= high as u8;
                cache.masks[*g as usize] |= 1u128 << i;
            }
        }
    }
}

impl RecoveryPolicy for SaferPolicy {
    fn name(&self) -> String {
        let cache = if self.cache { "-cache" } else { "" };
        // The incremental search is the published algorithm, so it carries
        // the plain name; the exhaustive idealization is marked.
        let search = match self.search {
            PartitionSearch::Incremental => "",
            PartitionSearch::Exhaustive => "-ideal",
        };
        format!("SAFER{}{}{}", self.scheme.groups(), cache, search)
    }

    fn overhead_bits(&self) -> usize {
        safer_overhead(self.scheme.m, self.scheme.block_bits)
    }

    fn block_bits(&self) -> usize {
        self.scheme.block_bits
    }

    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        match self.search {
            PartitionSearch::Exhaustive => self
                .vectors
                .iter()
                .any(|positions| self.partition_ok(positions, faults, wrong)),
            PartitionSearch::Incremental => {
                let positions = self.incremental_vector(faults);
                self.partition_ok(&positions, faults, wrong)
            }
        }
    }

    fn guaranteed(&self, faults: &[Fault]) -> bool {
        // Recoverable for every data word iff some reachable partition puts
        // every fault in its own group. Group occupancy lives in a `u128`
        // bitmask as in `partition_ok` (SAFER never exceeds 128 groups), so
        // the exhaustive scan allocates nothing.
        let injective = |positions: &[usize]| {
            debug_assert!(
                positions.len() <= 7,
                "u128 occupancy supports <= 128 groups"
            );
            let mut seen = 0u128;
            faults.iter().all(|f| {
                let bit = 1u128 << self.scheme.group_of(f.offset, positions);
                let fresh = seen & bit == 0;
                seen |= bit;
                fresh
            })
        };
        match self.search {
            PartitionSearch::Exhaustive => self.vectors.iter().any(|p| injective(p)),
            PartitionSearch::Incremental => injective(&self.incremental_vector(faults)),
        }
    }

    /// Allocation-free twin of [`guaranteed`](RecoveryPolicy::guaranteed)
    /// for the incremental search: `absorb_incremental_vector` already
    /// replayed the vector growth into the cache, so the grown partition is
    /// injective iff no fault shares its group — no vector rebuild, no
    /// allocation.
    fn guaranteed_with(&self, faults: &[Fault], scratch: &mut PolicyScratch) -> bool {
        if self.search == PartitionSearch::Incremental
            && scratch.pair_cache.matches(self.key, faults)
        {
            return scratch.pair_cache.all_mask == 0;
        }
        self.guaranteed(faults)
    }

    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        match self.search {
            PartitionSearch::Exhaustive => {
                if !self.vec_masks.is_empty() {
                    self.absorb_pair_masks(faults, &mut scratch.pair_cache);
                }
            }
            PartitionSearch::Incremental => {
                self.absorb_incremental_vector(faults, &mut scratch.pair_cache);
            }
        }
    }

    fn forget_block(&self, scratch: &mut PolicyScratch) {
        scratch.pair_cache.reset();
    }

    fn recoverable_with(
        &self,
        faults: &[Fault],
        wrong: &[bool],
        scratch: &mut PolicyScratch,
    ) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        let cache = &scratch.pair_cache;
        if !cache.matches(self.key, faults) {
            return self.recoverable(faults, wrong);
        }
        match self.search {
            PartitionSearch::Exhaustive => {
                // Recoverable iff some vector co-groups no *mattering* pair.
                // A vector outside `all_mask` co-groups no pair at all.
                if cache.all_mask != self.full_mask {
                    return true;
                }
                let mut bad = 0u128;
                for (pair, &mask) in cache.pairs.iter().zip(&cache.masks) {
                    let wi = wrong[pair.a as usize];
                    let wj = wrong[pair.b as usize];
                    let matters = if self.cache { wi != wj } else { wi || wj };
                    if matters {
                        bad |= mask;
                        if bad == self.full_mask {
                            return false;
                        }
                    }
                }
                bad != self.full_mask
            }
            PartitionSearch::Incremental => {
                // partition_ok over the cached groups: without a fail cache
                // a W fault must sit alone in its group; with one, only a
                // group holding both a W and an R fault is fatal.
                let w = wrong
                    .iter()
                    .enumerate()
                    .fold(0u128, |m, (i, &is_wrong)| m | (u128::from(is_wrong) << i));
                let mut shared_w = w & cache.all_mask;
                if !self.cache {
                    return shared_w == 0;
                }
                while shared_w != 0 {
                    let members =
                        cache.masks[cache.groups[shared_w.trailing_zeros() as usize] as usize];
                    if members & !w != 0 {
                        return false;
                    }
                    shared_w &= !members;
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rng::SmallRng;
    use sim_rng::{Rng, SeedableRng};

    #[test]
    fn combinations_count_and_order() {
        let c = combinations(4, 2);
        assert_eq!(c.len(), 6);
        assert_eq!(c[0], vec![0, 1]);
        assert_eq!(c[5], vec![2, 3]);
        assert_eq!(combinations(9, 5).len(), 126);
    }

    #[test]
    fn group_of_extracts_selected_bits() {
        let s = SaferScheme::new(3, 64);
        // positions [1, 4]: offset 0b010010 => bits 1 and 4 are 1.
        assert_eq!(s.group_of(0b01_0010, &[1, 4]), 0b11);
        assert_eq!(s.group_of(0b01_0010, &[0, 5]), 0b00);
    }

    #[test]
    fn single_fault_roundtrip_incremental() {
        let mut codec = SaferCodec::new(3, 64, PartitionSearch::Incremental);
        let mut block = PcmBlock::pristine(64);
        block.force_stuck(9, true);
        let data = BitBlock::zeros(64);
        codec.write(&mut block, &data).unwrap();
        assert_eq!(codec.read(&block), data);
    }

    #[test]
    fn collision_grows_the_vector() {
        let mut codec = SaferCodec::new(3, 64, PartitionSearch::Incremental);
        let mut block = PcmBlock::pristine(64);
        block.force_stuck(0, true);
        block.force_stuck(1, true); // differs at address bit 0
        let data = BitBlock::zeros(64);
        codec.write(&mut block, &data).unwrap();
        assert_eq!(codec.read(&block), data);
        assert!(codec.positions().contains(&0));
    }

    #[test]
    fn hard_ftc_is_m_plus_one_incremental() {
        // m = 3: any 4 faults revealed one at a time must be correctable.
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..50 {
            let mut codec = SaferCodec::new(3, 64, PartitionSearch::Incremental);
            let mut block = PcmBlock::pristine(64);
            let mut placed = Vec::new();
            while placed.len() < 4 {
                let o: usize = rng.random_range(0..64);
                if !placed.contains(&o) {
                    placed.push(o);
                    block.force_stuck(o, rng.random());
                    // Reveal faults gradually, as wear would.
                    let data = BitBlock::random(&mut rng, 64);
                    codec
                        .write(&mut block, &data)
                        .unwrap_or_else(|e| panic!("{placed:?}: {e}"));
                    assert_eq!(codec.read(&block), data);
                }
            }
        }
    }

    #[test]
    fn exhaustive_outlives_incremental() {
        // Saturate a tiny SAFER with faults: the exhaustive search must
        // succeed at least as often as the incremental one.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut incr_ok = 0;
        let mut exh_ok = 0;
        for _ in 0..60 {
            let mut faults = Vec::new();
            let mut wrong = Vec::new();
            while faults.len() < 6 {
                let o: usize = rng.random_range(0..64);
                if !faults.iter().any(|f: &Fault| f.offset == o) {
                    faults.push(Fault::new(o, rng.random()));
                    wrong.push(rng.random());
                }
            }
            let incr = SaferPolicy::with_search(3, 64, false, PartitionSearch::Incremental);
            let exh = SaferPolicy::new(3, 64, false);
            incr_ok += usize::from(incr.recoverable(&faults, &wrong));
            exh_ok += usize::from(exh.recoverable(&faults, &wrong));
        }
        assert!(exh_ok >= incr_ok);
    }

    #[test]
    fn cache_mode_accepts_same_type_groups() {
        let no_cache = SaferPolicy::new(1, 64, false); // 2 groups only
        let cache = SaferPolicy::new(1, 64, true);
        // Three W faults: with 2 groups some group has >= 2 W.
        let faults = vec![
            Fault::new(0, true),
            Fault::new(1, true),
            Fault::new(2, true),
        ];
        let wrong = vec![true, true, true];
        assert!(!no_cache.recoverable(&faults, &wrong));
        assert!(cache.recoverable(&faults, &wrong));
        // Mixed W and R in every partition: both reject.
        let wrong_mixed = vec![true, false, true];
        assert_eq!(
            cache.recoverable(&faults, &wrong_mixed),
            // With m=1 there are 6 vectors; mixing may or may not be
            // separable — just ensure no-cache is never *more* permissive.
            cache.recoverable(&faults, &wrong_mixed)
        );
        if no_cache.recoverable(&faults, &wrong_mixed) {
            assert!(cache.recoverable(&faults, &wrong_mixed));
        }
    }

    #[test]
    fn guaranteed_matches_injectivity() {
        let p = SaferPolicy::new(2, 16, false);
        // Offsets 0..4 differ in bits 0-1: the vector [0, 1] separates them.
        let faults: Vec<Fault> = (0..4).map(|o| Fault::new(o, false)).collect();
        assert!(p.guaranteed(&faults));
        // Five faults cannot fit injectively into 4 groups.
        let five: Vec<Fault> = (0..5).map(|o| Fault::new(o, false)).collect();
        assert!(!p.guaranteed(&five));
    }

    #[test]
    fn names_and_overheads_match_paper() {
        assert_eq!(SaferPolicy::new(5, 512, false).name(), "SAFER32-ideal");
        assert_eq!(SaferPolicy::new(6, 512, true).name(), "SAFER64-cache-ideal");
        assert_eq!(
            SaferPolicy::with_search(5, 512, false, PartitionSearch::Incremental).name(),
            "SAFER32"
        );
        assert_eq!(SaferPolicy::new(5, 512, false).overhead_bits(), 55);
        assert_eq!(SaferPolicy::new(6, 512, false).overhead_bits(), 91);
        assert_eq!(SaferPolicy::new(7, 512, false).overhead_bits(), 159);
        assert_eq!(
            SaferCodec::new(5, 512, PartitionSearch::Exhaustive).overhead_bits(),
            55
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_block_panics() {
        let _ = SaferScheme::new(3, 500);
    }

    #[test]
    fn incremental_cache_matches_recompute() {
        let mut rng = SmallRng::seed_from_u64(911);
        let configs = [
            (3usize, 64usize, PartitionSearch::Exhaustive, false, 30),
            (3, 64, PartitionSearch::Exhaustive, true, 30),
            (3, 64, PartitionSearch::Incremental, false, 30),
            (3, 64, PartitionSearch::Incremental, true, 30),
            (5, 512, PartitionSearch::Exhaustive, false, 8),
            (5, 512, PartitionSearch::Incremental, true, 8),
        ];
        for &(m, bits, search, cache, blocks) in &configs {
            let policy = SaferPolicy::with_search(m, bits, cache, search);
            let mut warm = PolicyScratch::new();
            for _ in 0..blocks {
                policy.forget_block(&mut warm);
                let mut faults: Vec<Fault> = Vec::new();
                while faults.len() < m + 3 {
                    let o: usize = rng.random_range(0..bits);
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
                        let ctx = format!(
                            "m={m} bits={bits} {search:?} cache={cache} \
                             faults={faults:?} wrong={wrong:?}"
                        );
                        assert_eq!(warm_verdict, plain, "warm: {ctx}");
                        assert_eq!(cold_verdict, plain, "cold: {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_inversion_mask_matches_the_scalar_reference() {
        let mut rng = SmallRng::seed_from_u64(23);
        for &(m, bits) in &[(1usize, 64usize), (3, 64), (5, 512), (7, 128)] {
            let codec = SaferCodec::new(m, bits, PartitionSearch::Exhaustive);
            for trial in 0..40 {
                // Random partial vectors exercise the incremental path too.
                let len = rng.random_range(0..=m);
                let mut positions: Vec<usize> = Vec::new();
                while positions.len() < len {
                    let p: usize = rng.random_range(0..codec.scheme().addr_bits());
                    if !positions.contains(&p) {
                        positions.push(p);
                    }
                }
                let inversion = if trial % 2 == 0 {
                    BitBlock::random(&mut rng, codec.scheme().groups())
                } else {
                    BitBlock::from_fn(codec.scheme().groups(), |g| {
                        g >> positions.len() == 0 && g % 3 == 0
                    })
                };
                assert_eq!(
                    codec.inversion_mask(&positions, &inversion),
                    codec.inversion_mask_scalar(&positions, &inversion),
                    "m={m} bits={bits} positions={positions:?}"
                );
            }
        }
    }
}
