//! Fast recoverability predicates: the Monte Carlo face of each Aegis
//! variant.
//!
//! These implement [`RecoveryPolicy`] for the engine in
//! [`pcm_sim::montecarlo`]. Each predicate answers exactly the question the
//! corresponding functional codec answers by physically writing cells — an
//! equivalence enforced by property tests in `tests/codec_vs_policy.rs`.
//!
//! Cost for `f` faults: a cold verdict walks all `f²/2` pairs. The engine
//! warms a [`PairCache`] one arrival at a time instead (`O(f)` collision
//! lookups per new fault). On formations with at most [`MASK_BITS`]
//! slopes base Aegis caches only per-fault slope masks and their union, so
//! its verdict is one word compare while a slope is free of colliding
//! pairs and `O(f)` word ORs after; an rw/rw-p verdict (and base Aegis on
//! wider formations) walks the cached colliding pairs.
//!
//! The derivations (see also DESIGN.md §3):
//!
//! - **Aegis**: a write succeeds at slope `k` iff no group holds ≥ 2 W
//!   faults or a W together with an R fault (two wrong bits in one group, or
//!   a wrong bit in an inverted group, is treated as a collision by §2.2's
//!   algorithm). Equivalently, slope `k` is *bad* iff some fault pair that
//!   is not R–R collides on `k`; the write succeeds iff some slope is not
//!   bad.
//! - **Aegis-rw**: only W–R mixed pairs make a slope bad (same-type
//!   multi-fault groups are fine).
//! - **Aegis-rw-p**: additionally, some good slope must have
//!   `min(#W-groups, #R-groups) ≤ p`.

use crate::cost::ceil_log2;
use crate::rom::{CollisionRom, GroupRom};
use crate::Rectangle;
use pcm_sim::policy::{
    cache_key, guaranteed_splits_with, CachedPair, PairCache, PolicyScratch, RecoveryPolicy,
    MASK_BITS,
};
use pcm_sim::Fault;
use std::sync::Arc;

/// Precomputed lookup tables shared by the kernel-mode predicates: the
/// pairwise collision-slope ROM and the (offset, slope) → group ROM.
///
/// Built once per policy; replaces the arithmetic `Rectangle` queries on
/// the Monte Carlo hot path with O(1) table reads. The scalar constructors
/// omit them, keeping the original arithmetic path alive as the reference
/// implementation.
#[derive(Debug, Clone)]
struct PolicyRoms {
    collisions: CollisionRom,
    groups: GroupRom,
}

impl PolicyRoms {
    fn new(rect: &Rectangle) -> Self {
        Self {
            collisions: CollisionRom::new(rect),
            groups: GroupRom::new(rect),
        }
    }
}

/// [`PairCache`] owner key for an Aegis rectangle.
///
/// The cached content is a pure function of the rectangle geometry and is
/// *split-independent* (the split is applied at check time). Aegis-rw and
/// Aegis-rw-p cache the same colliding pairs and share the key tagged
/// [`PAIRS_TAG`]; base Aegis keeps its own layout under [`BASE_TAG`] —
/// per-fault slope masks on formations with at most [`MASK_BITS`] slopes,
/// the pair list on wider ones — so its cache is never read as the pair
/// list or the other way round.
fn aegis_cache_key(tag: u64, rect: &Rectangle) -> u64 {
    cache_key(&[
        tag,
        rect.slopes() as u64,
        rect.groups() as u64,
        rect.bits() as u64,
    ])
}

/// Owner tag of base Aegis's cache.
const BASE_TAG: u64 = 0xA0;

/// Owner tag of the colliding-pair cache Aegis-rw and Aegis-rw-p share.
const PAIRS_TAG: u64 = 0xA1;

/// Extends the Aegis pair cache with every fault the cache has not yet
/// covered: for the `j`-th new fault only its `j-1` pairs hit the
/// collision ROM, so a block's whole lifetime derives each pair exactly
/// once (`O(F²)` total instead of `O(F³)`).
///
/// Maintains per-slope colliding-pair counts and the number of *clean*
/// slopes (no colliding pair at all); a clean slope can never be bad, so
/// its existence decides the base/rw predicates in O(1).
fn observe_pairs(
    owner: u64,
    slopes: usize,
    roms: &PolicyRoms,
    faults: &[Fault],
    cache: &mut PairCache,
) {
    let start = cache.begin(owner, faults);
    if cache.counts.len() != slopes {
        cache.counts.clear();
        cache.counts.resize(slopes, 0);
        cache.clean = slopes;
    }
    for j in start..faults.len() {
        let fj = faults[j];
        for (i, fi) in faults[..j].iter().enumerate() {
            // The ROM is symmetric; reading row `fj` keeps every lookup of
            // this arrival in one table row.
            if let Some(k) = roms.collisions.collision_slope(fj.offset, fi.offset) {
                cache.pairs.push(CachedPair {
                    a: i as u32,
                    b: j as u32,
                    tag: k as u32,
                });
                if cache.counts[k] == 0 {
                    cache.clean -= 1;
                }
                cache.counts[k] += 1;
            }
        }
        cache.commit(fj);
    }
}

/// Extends base Aegis's slope-mask cache (formations with at most
/// [`MASK_BITS`] slopes) with every fault it has not yet covered:
/// `masks[i]` is the `u128` of slopes on which fault `i` collides with any
/// other fault and `all_mask` their union, the slopes holding at least one
/// colliding pair. Same ROM lookups as [`observe_pairs`], but no pair list
/// and no per-slope counts.
fn observe_slope_masks(owner: u64, roms: &PolicyRoms, faults: &[Fault], cache: &mut PairCache) {
    let start = cache.begin(owner, faults);
    for j in start..faults.len() {
        let fj = faults[j];
        let mut slopes_j = 0u128;
        for (i, fi) in faults[..j].iter().enumerate() {
            if let Some(k) = roms.collisions.collision_slope(fj.offset, fi.offset) {
                let bit = 1u128 << k;
                cache.masks[i] |= bit;
                slopes_j |= bit;
            }
        }
        cache.masks.push(slopes_j);
        cache.all_mask |= slopes_j;
        cache.commit(fj);
    }
}

/// Marks every slope holding a cached pair selected by `matters` in `bad`
/// and returns the bad-slope count (early exit once every slope is bad).
///
/// Decision-equivalent to [`bad_slopes_into`] on the same population: the
/// cached walk visits pairs in arrival order rather than `(i, j)`-lex
/// order, but the *set* of `(pair, slope)` entries is identical, and both
/// the bad set and its count are order-independent.
fn bad_slopes_cached<F: Fn(bool, bool) -> bool>(
    slopes: usize,
    cache: &PairCache,
    wrong: &[bool],
    matters: F,
    bad: &mut [bool],
) -> usize {
    let mut count = 0;
    for pair in &cache.pairs {
        if matters(wrong[pair.a as usize], wrong[pair.b as usize]) {
            let k = pair.tag as usize;
            if !bad[k] {
                bad[k] = true;
                count += 1;
                if count == slopes {
                    return count;
                }
            }
        }
    }
    count
}

/// Marks every slope on which a pair selected by `matters` collides and
/// returns the flags (`true` = bad) plus the count of bad slopes.
fn bad_slopes<F: Fn(bool, bool) -> bool>(
    rect: &Rectangle,
    faults: &[Fault],
    wrong: &[bool],
    matters: F,
) -> (Vec<bool>, usize) {
    let slopes = rect.slopes();
    let mut bad = vec![false; slopes];
    let mut count = 0;
    for (i, fi) in faults.iter().enumerate() {
        for (j, fj) in faults.iter().enumerate().skip(i + 1) {
            if matters(wrong[i], wrong[j]) {
                if let Some(k) = rect.collision_slope(fi.offset, fj.offset) {
                    if !bad[k] {
                        bad[k] = true;
                        count += 1;
                        if count == slopes {
                            return (bad, count);
                        }
                    }
                }
            }
        }
    }
    (bad, count)
}

/// [`bad_slopes`], but reading collision slopes from the precomputed ROM
/// and marking bad slopes in a caller-provided buffer (no allocation).
///
/// Iterates fault pairs in exactly the same order as [`bad_slopes`] with
/// the same early exit, so the two agree bit-for-bit on every input.
fn bad_slopes_into<F: Fn(bool, bool) -> bool>(
    slopes: usize,
    roms: &PolicyRoms,
    faults: &[Fault],
    wrong: &[bool],
    matters: F,
    bad: &mut [bool],
) -> usize {
    let mut count = 0;
    for (i, fi) in faults.iter().enumerate() {
        for (j, fj) in faults.iter().enumerate().skip(i + 1) {
            if matters(wrong[i], wrong[j]) {
                if let Some(k) = roms.collisions.collision_slope(fi.offset, fj.offset) {
                    if !bad[k] {
                        bad[k] = true;
                        count += 1;
                        if count == slopes {
                            return count;
                        }
                    }
                }
            }
        }
    }
    count
}

/// [`bad_slopes_into`] under the all-wrong split, where every colliding
/// pair matters: marks every slope holding *any* colliding pair. Same pair
/// order and early exit, so it agrees bit-for-bit with
/// `bad_slopes_into(.., &[true; f], |_, _| true, ..)`.
fn bad_slopes_all_into(
    slopes: usize,
    roms: &PolicyRoms,
    faults: &[Fault],
    bad: &mut [bool],
) -> usize {
    let mut count = 0;
    for (i, fi) in faults.iter().enumerate() {
        for fj in faults.iter().skip(i + 1) {
            if let Some(k) = roms.collisions.collision_slope(fi.offset, fj.offset) {
                if !bad[k] {
                    bad[k] = true;
                    count += 1;
                    if count == slopes {
                        return count;
                    }
                }
            }
        }
    }
    count
}

/// Monte Carlo predicate for base Aegis (§2.2 semantics).
#[derive(Debug, Clone)]
pub struct AegisPolicy {
    rect: Rectangle,
    roms: Option<PolicyRoms>,
    key: u64,
    /// Every slope as one `u128` when the formation has at most
    /// [`MASK_BITS`] slopes (the slope-mask cache applies), `None` on
    /// wider formations, which cache the pair list instead.
    all_slopes: Option<u128>,
}

impl AegisPolicy {
    /// Creates the policy for an `A×B` scheme with the kernel-mode lookup
    /// ROMs built.
    #[must_use]
    pub fn new(rect: Rectangle) -> Self {
        let roms = Some(PolicyRoms::new(&rect));
        Self::with_roms(rect, roms)
    }

    /// Creates the reference-mode policy: decisions are computed with the
    /// original per-pair `Rectangle` arithmetic even under
    /// [`RecoveryPolicy::recoverable_with`].
    #[must_use]
    pub fn scalar(rect: Rectangle) -> Self {
        Self::with_roms(rect, None)
    }

    fn with_roms(rect: Rectangle, roms: Option<PolicyRoms>) -> Self {
        let key = aegis_cache_key(BASE_TAG, &rect);
        let slopes = rect.slopes();
        let all_slopes = (slopes <= MASK_BITS).then(|| u128::MAX >> (MASK_BITS - slopes));
        Self {
            rect,
            roms,
            key,
            all_slopes,
        }
    }

    /// The partition scheme.
    #[must_use]
    pub fn rect(&self) -> &Rectangle {
        &self.rect
    }
}

impl RecoveryPolicy for AegisPolicy {
    fn name(&self) -> String {
        format!("Aegis {}", self.rect.formation())
    }

    fn overhead_bits(&self) -> usize {
        ceil_log2(self.rect.slopes()) + self.rect.groups()
    }

    fn block_bits(&self) -> usize {
        self.rect.bits()
    }

    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        // A pair is harmless only when both faults are stuck-at-Right.
        let (_, count) = bad_slopes(&self.rect, faults, wrong, |wi, wj| wi || wj);
        count < self.rect.slopes()
    }

    fn recoverable_with(
        &self,
        faults: &[Fault],
        wrong: &[bool],
        scratch: &mut PolicyScratch,
    ) -> bool {
        let Some(roms) = &self.roms else {
            return self.recoverable(faults, wrong);
        };
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        let slopes = self.rect.slopes();
        let cache = &scratch.pair_cache;
        if cache.matches(self.key, faults) {
            // Incremental path: a slope with zero colliding pairs can never
            // be bad, so one surviving clean slope decides immediately.
            if let Some(all_slopes) = self.all_slopes {
                if cache.all_mask != all_slopes {
                    return true;
                }
                // A slope is bad iff some pair with a W fault in it
                // collides there, i.e. iff some W fault's slope mask
                // holds it.
                let bad = wrong
                    .iter()
                    .zip(&cache.masks)
                    .filter(|&(&is_wrong, _)| is_wrong)
                    .fold(0u128, |bad, (_, &mask)| bad | mask);
                return bad != all_slopes;
            }
            if cache.clean > 0 {
                return true;
            }
            scratch.flags.clear();
            scratch.flags.resize(slopes, false);
            let PolicyScratch {
                flags, pair_cache, ..
            } = scratch;
            let count = bad_slopes_cached(slopes, pair_cache, wrong, |wi, wj| wi || wj, flags);
            return count < slopes;
        }
        let bad = scratch.flags(slopes);
        let count = bad_slopes_into(slopes, roms, faults, wrong, |wi, wj| wi || wj, bad);
        count < slopes
    }

    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        let Some(roms) = &self.roms else {
            return;
        };
        let cache = &mut scratch.pair_cache;
        if self.all_slopes.is_some() {
            observe_slope_masks(self.key, roms, faults, cache);
        } else {
            observe_pairs(self.key, self.rect.slopes(), roms, faults, cache);
        }
    }

    fn forget_block(&self, scratch: &mut PolicyScratch) {
        scratch.pair_cache.reset();
    }

    /// Exact data-independent guarantee: some slope puts every fault in its
    /// own group (then any data word is writable).
    fn guaranteed(&self, faults: &[Fault]) -> bool {
        let all_wrong = vec![true; faults.len()];
        let (_, count) = bad_slopes(&self.rect, faults, &all_wrong, |_, _| true);
        count < self.rect.slopes()
    }

    /// Allocation-free twin of [`guaranteed`](RecoveryPolicy::guaranteed).
    /// Under the all-wrong split every colliding pair matters, so a slope
    /// is bad iff it carries at least one pair — and the cached verdict is
    /// exactly "a pair-free slope survives": the union of the slope masks
    /// misses a slope (or, on wider formations, a slope's pair count is
    /// zero).
    fn guaranteed_with(&self, faults: &[Fault], scratch: &mut PolicyScratch) -> bool {
        let Some(roms) = &self.roms else {
            return self.guaranteed(faults);
        };
        let cache = &scratch.pair_cache;
        if cache.matches(self.key, faults) {
            return match self.all_slopes {
                Some(all_slopes) => cache.all_mask != all_slopes,
                None => cache.clean > 0,
            };
        }
        let slopes = self.rect.slopes();
        let bad = scratch.flags(slopes);
        let count = bad_slopes_all_into(slopes, roms, faults, bad);
        count < slopes
    }

    fn explain(&self, faults: &[Fault], wrong: &[bool]) -> Option<String> {
        let slopes = self.rect.slopes();
        let (bad, count) = bad_slopes(&self.rect, faults, wrong, |wi, wj| wi || wj);
        if count == slopes {
            return Some(format!("no usable slope ({count}/{slopes} bad)"));
        }
        // count < slopes means no early exit fired, so the flags are exact.
        let slope = bad.iter().position(|&b| !b).expect("a good slope exists");
        Some(format!("slope {slope} usable ({count}/{slopes} bad)"))
    }
}

/// Monte Carlo predicate for Aegis-rw (§2.4 semantics, ideal fail cache).
#[derive(Debug, Clone)]
pub struct AegisRwPolicy {
    rect: Rectangle,
    roms: Option<PolicyRoms>,
    key: u64,
}

impl AegisRwPolicy {
    /// Creates the policy for an `A×B` scheme with the kernel-mode lookup
    /// ROMs built.
    #[must_use]
    pub fn new(rect: Rectangle) -> Self {
        let roms = Some(PolicyRoms::new(&rect));
        let key = aegis_cache_key(PAIRS_TAG, &rect);
        Self { rect, roms, key }
    }

    /// Creates the reference-mode policy (see [`AegisPolicy::scalar`]).
    #[must_use]
    pub fn scalar(rect: Rectangle) -> Self {
        let key = aegis_cache_key(PAIRS_TAG, &rect);
        Self {
            rect,
            roms: None,
            key,
        }
    }

    /// The partition scheme.
    #[must_use]
    pub fn rect(&self) -> &Rectangle {
        &self.rect
    }
}

impl RecoveryPolicy for AegisRwPolicy {
    fn name(&self) -> String {
        format!("Aegis-rw {}", self.rect.formation())
    }

    fn overhead_bits(&self) -> usize {
        ceil_log2(self.rect.slopes()) + self.rect.groups()
    }

    fn block_bits(&self) -> usize {
        self.rect.bits()
    }

    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        let (_, count) = bad_slopes(&self.rect, faults, wrong, |wi, wj| wi != wj);
        count < self.rect.slopes()
    }

    fn recoverable_with(
        &self,
        faults: &[Fault],
        wrong: &[bool],
        scratch: &mut PolicyScratch,
    ) -> bool {
        let Some(roms) = &self.roms else {
            return self.recoverable(faults, wrong);
        };
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        let slopes = self.rect.slopes();
        if scratch.pair_cache.matches(self.key, faults) {
            if scratch.pair_cache.clean > 0 {
                return true;
            }
            scratch.flags.clear();
            scratch.flags.resize(slopes, false);
            let PolicyScratch {
                flags, pair_cache, ..
            } = scratch;
            let count = bad_slopes_cached(slopes, pair_cache, wrong, |wi, wj| wi != wj, flags);
            return count < slopes;
        }
        let bad = scratch.flags(slopes);
        let count = bad_slopes_into(slopes, roms, faults, wrong, |wi, wj| wi != wj, bad);
        count < slopes
    }

    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        if let Some(roms) = &self.roms {
            observe_pairs(
                self.key,
                self.rect.slopes(),
                roms,
                faults,
                &mut scratch.pair_cache,
            );
        }
    }

    fn forget_block(&self, scratch: &mut PolicyScratch) {
        scratch.pair_cache.reset();
    }

    /// The mixed-pair guarantee has no closed form (whether a pair is W–R
    /// depends on the split), so it uses the trait's enumeration
    /// discipline; this override replays the same split stream with
    /// arena-backed buffers, the cached-pair fast path deciding each one.
    fn guaranteed_with(&self, faults: &[Fault], scratch: &mut PolicyScratch) -> bool {
        guaranteed_splits_with(self, faults, scratch)
    }

    fn explain(&self, faults: &[Fault], wrong: &[bool]) -> Option<String> {
        let slopes = self.rect.slopes();
        let (bad, count) = bad_slopes(&self.rect, faults, wrong, |wi, wj| wi != wj);
        if count == slopes {
            return Some(format!("no usable slope ({count}/{slopes} mixed-pair bad)"));
        }
        let slope = bad.iter().position(|&b| !b).expect("a good slope exists");
        Some(format!(
            "slope {slope} usable ({count}/{slopes} mixed-pair bad)"
        ))
    }
}

/// Monte Carlo predicate for Aegis-rw-p (§2.4, `p` group pointers).
///
/// Clones share the lookup ROMs, which depend only on the rectangle.
#[derive(Debug, Clone)]
pub struct AegisRwPPolicy {
    rect: Rectangle,
    pointers: usize,
    roms: Option<Arc<PolicyRoms>>,
    key: u64,
}

impl AegisRwPPolicy {
    /// Creates the policy with `pointers` group pointers and the
    /// kernel-mode lookup ROMs built.
    ///
    /// # Panics
    ///
    /// Panics if `pointers == 0`.
    #[must_use]
    pub fn new(rect: Rectangle, pointers: usize) -> Self {
        assert!(pointers > 0, "need at least one group pointer");
        let roms = Some(Arc::new(PolicyRoms::new(&rect)));
        let key = aegis_cache_key(PAIRS_TAG, &rect);
        Self {
            rect,
            pointers,
            roms,
            key,
        }
    }

    /// The same policy with a `pointers` budget, sharing this one's ROMs:
    /// a pointer sweep then holds one set of tables per rectangle.
    ///
    /// # Panics
    ///
    /// Panics if `pointers == 0`.
    #[must_use]
    pub fn with_pointers(&self, pointers: usize) -> Self {
        assert!(pointers > 0, "need at least one group pointer");
        Self {
            pointers,
            ..self.clone()
        }
    }

    /// Creates the reference-mode policy (see [`AegisPolicy::scalar`]).
    ///
    /// # Panics
    ///
    /// Panics if `pointers == 0`.
    #[must_use]
    pub fn scalar(rect: Rectangle, pointers: usize) -> Self {
        assert!(pointers > 0, "need at least one group pointer");
        let key = aegis_cache_key(PAIRS_TAG, &rect);
        Self {
            rect,
            pointers,
            roms: None,
            key,
        }
    }

    /// The partition scheme.
    #[must_use]
    pub fn rect(&self) -> &Rectangle {
        &self.rect
    }

    /// Pointer budget.
    #[must_use]
    pub fn pointers(&self) -> usize {
        self.pointers
    }
}

impl RecoveryPolicy for AegisRwPPolicy {
    fn name(&self) -> String {
        format!("Aegis-rw-p {} p={}", self.rect.formation(), self.pointers)
    }

    fn overhead_bits(&self) -> usize {
        ceil_log2(self.rect.slopes()) * (1 + self.pointers) + 2
    }

    fn block_bits(&self) -> usize {
        self.rect.bits()
    }

    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        let (bad, count) = bad_slopes(&self.rect, faults, wrong, |wi, wj| wi != wj);
        if count == self.rect.slopes() {
            return false;
        }
        let groups = self.rect.groups();
        // Scratch occupancy per group: 0 = empty, 1 = has W, 2 = has R,
        // 3 = both (impossible on a good slope).
        let mut occupancy = vec![0u8; groups];
        for (slope, &is_bad) in bad.iter().enumerate() {
            if is_bad {
                continue;
            }
            occupancy.fill(0);
            let (mut w_groups, mut r_groups) = (0usize, 0usize);
            for (fault, &is_wrong) in faults.iter().zip(wrong) {
                let g = self.rect.group_of(fault.offset, slope);
                let flag = if is_wrong { 1 } else { 2 };
                if occupancy[g] & flag == 0 {
                    occupancy[g] |= flag;
                    if is_wrong {
                        w_groups += 1;
                    } else {
                        r_groups += 1;
                    }
                }
            }
            if w_groups.min(r_groups) <= self.pointers {
                return true;
            }
        }
        false
    }

    fn recoverable_with(
        &self,
        faults: &[Fault],
        wrong: &[bool],
        scratch: &mut PolicyScratch,
    ) -> bool {
        let Some(roms) = &self.roms else {
            return self.recoverable(faults, wrong);
        };
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        let slopes = self.rect.slopes();
        let groups = self.rect.groups();
        scratch.flags.clear();
        scratch.flags.resize(slopes, false);
        scratch.bytes.clear();
        scratch.bytes.resize(groups, 0);
        let PolicyScratch {
            flags: bad,
            bytes: occupancy,
            pair_cache,
            ..
        } = scratch;
        let count = if pair_cache.matches(self.key, faults) {
            bad_slopes_cached(slopes, pair_cache, wrong, |wi, wj| wi != wj, bad)
        } else {
            bad_slopes_into(slopes, roms, faults, wrong, |wi, wj| wi != wj, bad)
        };
        if count == slopes {
            return false;
        }
        // The pointer-budget walk over good slopes is identical on both
        // paths; it dominates once the pair derivations are cached.
        for (slope, &is_bad) in bad.iter().enumerate() {
            if is_bad {
                continue;
            }
            occupancy.fill(0);
            let (mut w_groups, mut r_groups) = (0usize, 0usize);
            for (fault, &is_wrong) in faults.iter().zip(wrong) {
                let g = roms.groups.group_of(fault.offset, slope);
                let flag = if is_wrong { 1 } else { 2 };
                if occupancy[g] & flag == 0 {
                    occupancy[g] |= flag;
                    if is_wrong {
                        w_groups += 1;
                    } else {
                        r_groups += 1;
                    }
                }
            }
            if w_groups.min(r_groups) <= self.pointers {
                return true;
            }
        }
        false
    }

    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        if let Some(roms) = &self.roms {
            observe_pairs(
                self.key,
                self.rect.slopes(),
                roms,
                faults,
                &mut scratch.pair_cache,
            );
        }
    }

    fn forget_block(&self, scratch: &mut PolicyScratch) {
        scratch.pair_cache.reset();
    }

    /// The mixed-pair guarantee has no closed form (whether a pair is W–R
    /// depends on the split), so it uses the trait's enumeration
    /// discipline; this override replays the same split stream with
    /// arena-backed buffers, the cached-pair fast path deciding each one.
    fn guaranteed_with(&self, faults: &[Fault], scratch: &mut PolicyScratch) -> bool {
        guaranteed_splits_with(self, faults, scratch)
    }

    fn explain(&self, faults: &[Fault], wrong: &[bool]) -> Option<String> {
        let slopes = self.rect.slopes();
        let (bad, count) = bad_slopes(&self.rect, faults, wrong, |wi, wj| wi != wj);
        if count == slopes {
            return Some(format!("no usable slope ({count}/{slopes} mixed-pair bad)"));
        }
        // Re-walk the good slopes exactly as the predicate does, reporting
        // the first slope within budget, or the cheapest one if none fits.
        let groups = self.rect.groups();
        let mut occupancy = vec![0u8; groups];
        let mut best: Option<(usize, usize, usize, usize)> = None;
        for (slope, &is_bad) in bad.iter().enumerate() {
            if is_bad {
                continue;
            }
            occupancy.fill(0);
            let (mut w_groups, mut r_groups) = (0usize, 0usize);
            for (fault, &is_wrong) in faults.iter().zip(wrong) {
                let g = self.rect.group_of(fault.offset, slope);
                let flag = if is_wrong { 1 } else { 2 };
                if occupancy[g] & flag == 0 {
                    occupancy[g] |= flag;
                    if is_wrong {
                        w_groups += 1;
                    } else {
                        r_groups += 1;
                    }
                }
            }
            let cost = w_groups.min(r_groups);
            if cost <= self.pointers {
                return Some(format!(
                    "slope {slope}: {w_groups} W-group(s) vs {r_groups} R-group(s), \
                     cost {cost} within budget {}",
                    self.pointers
                ));
            }
            if best.is_none_or(|(c, ..)| cost < c) {
                best = Some((cost, slope, w_groups, r_groups));
            }
        }
        let (cost, slope, w_groups, r_groups) = best.expect("a good slope exists");
        Some(format!(
            "cheapest slope {slope}: {w_groups} W-group(s) vs {r_groups} R-group(s), \
             cost {cost} exceeds budget {}",
            self.pointers
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect() -> Rectangle {
        Rectangle::new(5, 7, 32).unwrap()
    }

    fn faults(offsets: &[usize]) -> Vec<Fault> {
        offsets.iter().map(|&o| Fault::new(o, false)).collect()
    }

    #[test]
    fn aegis_two_wrong_in_one_column_is_always_fine() {
        // Same-column bits never collide on any slope.
        let p = AegisPolicy::new(rect());
        let fs = faults(&[0, 5, 10]); // column a = 0
        assert!(p.recoverable(&fs, &[true, true, true]));
        assert!(p.guaranteed(&fs));
    }

    #[test]
    fn aegis_r_r_pairs_do_not_poison_slopes() {
        let p = AegisPolicy::new(rect());
        // Offsets 0 and 1 collide on slope 0; as two R faults that is fine.
        let fs = faults(&[0, 1]);
        assert!(p.recoverable(&fs, &[false, false]));
        // As two W faults there is still another slope (B = 7 > 1 bad).
        assert!(p.recoverable(&fs, &[true, true]));
    }

    #[test]
    fn aegis_guaranteed_matches_hard_ftc() {
        // Any hard-FTC-sized fault set must be guaranteed.
        let r = rect();
        let p = AegisPolicy::new(r.clone());
        assert_eq!(r.hard_ftc(), 4); // C(4,2)+1 = 7 <= B = 7
                                     // Exhaustive over all 3-subsets of a sample of offsets.
        let sample: Vec<usize> = (0..32).step_by(3).collect();
        for (i, &a) in sample.iter().enumerate() {
            for (j, &b) in sample.iter().enumerate().skip(i + 1) {
                for &c in sample.iter().skip(j + 1) {
                    assert!(p.guaranteed(&faults(&[a, b, c])), "{a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn rw_accepts_splits_plain_aegis_rejects() {
        let r = Rectangle::new(2, 3, 6).unwrap();
        let plain = AegisPolicy::new(r.clone());
        let rw = AegisRwPolicy::new(r);
        // All six bits stuck; every slope has a multi-W group for the
        // all-wrong split => plain fails.
        let fs = faults(&[0, 1, 2, 3, 4, 5]);
        let all_w = vec![true; 6];
        assert!(!plain.recoverable(&fs, &all_w));
        // For -rw an all-W population has no mixed pair at all.
        assert!(rw.recoverable(&fs, &all_w));
    }

    #[test]
    fn rw_p_needs_pointer_budget() {
        let r = rect();
        // Three W faults in three distinct columns: on every slope they
        // occupy 2-3 distinct groups (at most two can share one group).
        let fs = faults(&[0, 11, 22]);
        let all_w = vec![true; 3];
        let tight = AegisRwPPolicy::new(r.clone(), 1);
        // Case B rescues it: zero R-groups fit any budget.
        assert!(tight.recoverable(&fs, &all_w));
        // Mixed population: 3 W + 3 R spread out, budget 1 can fail.
        let many = faults(&[0, 11, 22, 6, 17, 28]);
        let split = vec![true, true, true, false, false, false];
        let roomy = AegisRwPPolicy::new(r.clone(), 3);
        let rw = AegisRwPolicy::new(r);
        // Sanity: whenever rw-p accepts, plain rw must accept too.
        if tight.recoverable(&many, &split) {
            assert!(rw.recoverable(&many, &split));
        }
        if rw.recoverable(&many, &split) {
            assert!(roomy.recoverable(&many, &split));
        }
    }

    #[test]
    fn rw_p_is_monotone_in_pointers() {
        use sim_rng::SmallRng;
        use sim_rng::{Rng, SeedableRng};
        let r = rect();
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..200 {
            let f: usize = rng.random_range(2..10);
            let mut offsets = Vec::new();
            while offsets.len() < f {
                let o: usize = rng.random_range(0..32);
                if !offsets.contains(&o) {
                    offsets.push(o);
                }
            }
            let fs = faults(&offsets);
            let wrong: Vec<bool> = (0..f).map(|_| rng.random()).collect();
            let mut prev = false;
            for p in 1..=4 {
                let policy = AegisRwPPolicy::new(r.clone(), p);
                let now = policy.recoverable(&fs, &wrong);
                assert!(!prev || now, "more pointers must not hurt");
                prev = now;
            }
        }
    }

    #[test]
    fn kernel_predicates_match_the_scalar_reference() {
        use pcm_sim::policy::PolicyScratch;
        use sim_rng::{Rng, SeedableRng, SmallRng};
        let r = rect();
        let kernel: Vec<Box<dyn RecoveryPolicy>> = vec![
            Box::new(AegisPolicy::new(r.clone())),
            Box::new(AegisRwPolicy::new(r.clone())),
            Box::new(AegisRwPPolicy::new(r.clone(), 2)),
        ];
        let scalar: Vec<Box<dyn RecoveryPolicy>> = vec![
            Box::new(AegisPolicy::scalar(r.clone())),
            Box::new(AegisRwPolicy::scalar(r.clone())),
            Box::new(AegisRwPPolicy::scalar(r.clone(), 2)),
        ];
        let mut rng = SmallRng::seed_from_u64(97);
        let mut scratch = PolicyScratch::new();
        for _ in 0..300 {
            let f: usize = rng.random_range(1..12);
            let mut offsets: Vec<usize> = Vec::new();
            while offsets.len() < f {
                let o: usize = rng.random_range(0..r.bits());
                if !offsets.contains(&o) {
                    offsets.push(o);
                }
            }
            let fs: Vec<Fault> = offsets
                .iter()
                .map(|&o| Fault::new(o, rng.random()))
                .collect();
            let wrong: Vec<bool> = (0..f).map(|_| rng.random()).collect();
            for (k, s) in kernel.iter().zip(&scalar) {
                let want = s.recoverable(&fs, &wrong);
                assert_eq!(k.recoverable(&fs, &wrong), want, "{}", k.name());
                assert_eq!(
                    k.recoverable_with(&fs, &wrong, &mut scratch),
                    want,
                    "{} (kernel)",
                    k.name()
                );
                assert_eq!(
                    s.recoverable_with(&fs, &wrong, &mut scratch),
                    want,
                    "{} (scalar recoverable_with)",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn incremental_pair_cache_matches_recompute() {
        use pcm_sim::policy::PolicyScratch;
        use sim_rng::{Rng, SeedableRng, SmallRng};
        let r = rect();
        // Base Aegis caches slope masks under its own key; rw and rw-p
        // share the pair list under another.
        let policies: Vec<(Box<dyn RecoveryPolicy>, u64)> = vec![
            (
                Box::new(AegisPolicy::new(r.clone())),
                aegis_cache_key(BASE_TAG, &r),
            ),
            (
                Box::new(AegisRwPolicy::new(r.clone())),
                aegis_cache_key(PAIRS_TAG, &r),
            ),
            (
                Box::new(AegisRwPPolicy::new(r.clone(), 2)),
                aegis_cache_key(PAIRS_TAG, &r),
            ),
        ];
        assert_ne!(policies[0].1, policies[1].1);
        let mut rng = SmallRng::seed_from_u64(4242);
        for (policy, key) in &policies {
            let mut warm = PolicyScratch::new();
            for _ in 0..50 {
                policy.forget_block(&mut warm);
                let f: usize = rng.random_range(1..12);
                let mut offsets: Vec<usize> = Vec::new();
                while offsets.len() < f {
                    let o: usize = rng.random_range(0..r.bits());
                    if !offsets.contains(&o) {
                        offsets.push(o);
                    }
                }
                let mut fs: Vec<Fault> = Vec::new();
                for &o in &offsets {
                    // Arrival order: faults accumulate one at a time, as in
                    // the engine, with observe_fault after each arrival.
                    fs.push(Fault::new(o, rng.random()));
                    policy.observe_fault(&fs, &mut warm);
                    assert!(warm.pair_cache.matches(*key, &fs), "{}", policy.name());
                    for _ in 0..4 {
                        let wrong: Vec<bool> = (0..fs.len()).map(|_| rng.random()).collect();
                        let incremental = policy.recoverable_with(&fs, &wrong, &mut warm);
                        // Fresh scratch => cache miss => PR 3 recompute path.
                        let recompute =
                            policy.recoverable_with(&fs, &wrong, &mut PolicyScratch::new());
                        assert_eq!(incremental, recompute, "{}", policy.name());
                        assert_eq!(incremental, policy.recoverable(&fs, &wrong));
                    }
                }
            }
        }
    }

    #[test]
    fn explain_agrees_with_the_verdict() {
        use sim_rng::{Rng, SeedableRng, SmallRng};
        let r = rect();
        let policies: Vec<Box<dyn RecoveryPolicy>> = vec![
            Box::new(AegisPolicy::new(r.clone())),
            Box::new(AegisRwPolicy::new(r.clone())),
            Box::new(AegisRwPPolicy::new(r.clone(), 1)),
        ];
        let mut rng = SmallRng::seed_from_u64(555);
        for _ in 0..200 {
            let f: usize = rng.random_range(1..10);
            let mut offsets: Vec<usize> = Vec::new();
            while offsets.len() < f {
                let o: usize = rng.random_range(0..r.bits());
                if !offsets.contains(&o) {
                    offsets.push(o);
                }
            }
            let fs: Vec<Fault> = offsets
                .iter()
                .map(|&o| Fault::new(o, rng.random()))
                .collect();
            let wrong: Vec<bool> = (0..f).map(|_| rng.random()).collect();
            for policy in &policies {
                let verdict = policy.recoverable(&fs, &wrong);
                let note = policy.explain(&fs, &wrong).expect("aegis always narrates");
                // A recoverable verdict narrates the chosen slope/budget; a
                // death narrates why nothing worked.
                if verdict {
                    assert!(
                        note.contains("usable") || note.contains("within budget"),
                        "{}: {note}",
                        policy.name()
                    );
                } else {
                    assert!(
                        note.contains("no usable slope") || note.contains("exceeds budget"),
                        "{}: {note}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn policies_report_paper_overheads() {
        let r512 = Rectangle::new(9, 61, 512).unwrap();
        assert_eq!(AegisPolicy::new(r512.clone()).overhead_bits(), 67);
        assert_eq!(AegisRwPolicy::new(r512.clone()).overhead_bits(), 67);
        assert_eq!(AegisRwPPolicy::new(r512, 9).overhead_bits(), 62);
    }
}
