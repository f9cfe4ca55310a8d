//! The analytic interface between recovery schemes and the Monte Carlo
//! engine.
//!
//! Simulating ~10^11 individual writes is pointless: the only writes that
//! can change a block's fate are the ones that reveal a *new* fault. A
//! [`RecoveryPolicy`] answers, for a given fault population and a given
//! W/R split (which faults are stuck-at-Wrong for the data being written),
//! whether the scheme's write algorithm succeeds. Each scheme crate provides
//! a policy that is property-tested against its functional
//! [`StuckAtCodec`](crate::codec::StuckAtCodec) implementation, so the fast
//! path provably matches the slow one.

use crate::fault::{sample_split_into, Fault, Stuckness};
use sim_rng::SeedableRng;
use sim_rng::SmallRng;

/// Reusable working memory for [`RecoveryPolicy::recoverable_with`].
///
/// The Monte Carlo engine creates one scratch arena per worker and hands it
/// to every policy decision, so steady-state evaluation allocates nothing:
/// a policy's first call sizes the buffers and every later call reuses
/// them. The fields are deliberately generic (`flags`, `bytes`, `counts`)
/// rather than scheme-specific so one arena serves every policy in a mixed
/// scheme sweep.
#[derive(Debug, Default)]
pub struct PolicyScratch {
    /// Boolean flags, e.g. per-slope "bad" marks.
    pub flags: Vec<bool>,
    /// Byte-wide tallies, e.g. per-group W/R occupancy.
    pub bytes: Vec<u8>,
    /// Word-wide tallies for policies that count rather than flag.
    pub counts: Vec<u32>,
    /// Incremental per-block fault-pair state maintained by
    /// [`RecoveryPolicy::observe_fault`].
    pub pair_cache: PairCache,
    /// W/R split buffer owned by the Monte Carlo driver.
    pub(crate) split: Vec<bool>,
    /// Fault-population buffer owned by the Monte Carlo driver.
    pub(crate) faults: Vec<Fault>,
    /// Split tape of the single-policy entry point,
    /// [`evaluate_block_with_scratch`](crate::montecarlo::evaluate_block_with_scratch).
    /// A page-major pass shares one tape across its policies instead and
    /// leaves this one empty.
    pub(crate) tape: crate::montecarlo::SplitTape,
}

/// One cached fault pair: indices into the covered fault slice plus a
/// scheme-defined tag (Aegis stores the colliding slope here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedPair {
    /// Index of the earlier fault of the pair.
    pub a: u32,
    /// Index of the later fault of the pair.
    pub b: u32,
    /// Scheme-defined payload (e.g. the slope both faults land on).
    pub tag: u32,
}

/// Incremental per-block fault-pair state.
///
/// A block's fault population only ever *grows* during its lifetime, and the
/// expensive part of every per-write recoverability check is a function of
/// fault *pairs* (collision slopes for Aegis, co-grouping vector masks for
/// SAFER, …). The cache lets [`RecoveryPolicy::observe_fault`] derive each
/// pair exactly once — when the `(F+1)`-th fault arrives, only its `F` new
/// pairs are computed — while the per-event split check walks the cached
/// entries.
///
/// The cache trusts its driver: between two resets, every population a
/// driver hands the policy must extend the one before it (the same block,
/// one more arrival). A driver that moves to a population that is not such
/// an extension — a new block, or a population it edited — first calls
/// [`RecoveryPolicy::forget_block`], whose default resets this cache. So
/// [`begin`](PairCache::begin) and [`matches`](PairCache::matches) compare
/// only the owner key and the covered length, in `O(1)`: a foreign owner
/// resets the cache, and a cache shorter than the population (a skipped
/// observation) falls back to the cold recompute. Debug builds also keep
/// the covered faults and assert, at every guard that passes, that they
/// are a prefix of the population, so a driver that breaks the contract
/// panics there instead of deciding from stale state.
///
/// The field set is a deliberately generic union of what the workspace's
/// schemes need (mirroring the `flags`/`bytes`/`counts` design of
/// [`PolicyScratch`]); each policy documents which fields it owns.
#[derive(Debug, Default)]
pub struct PairCache {
    /// Key identifying the policy configuration that built this cache; see
    /// [`cache_key`].
    pub owner: u64,
    /// Length of the fault prefix the cached state describes.
    len: usize,
    /// That prefix itself, kept only to check the driver contract.
    #[cfg(debug_assertions)]
    covered: Vec<Fault>,
    /// Cached pairs in arrival order of the later fault.
    pub pairs: Vec<CachedPair>,
    /// `u128` masks whose layout each owner defines: exhaustive SAFER
    /// keeps one per cached pair, parallel to `pairs` (the partition
    /// vectors the pair rules out); incremental SAFER one per group (the
    /// indices of the faults in it); base Aegis on formations with at most
    /// [`MASK_BITS`] slopes one per covered fault (the slopes on which that
    /// fault collides with any other); RDIS one per grid row, then one per
    /// grid column (the indices of the faults on that line); masking and
    /// PLBC one per pivot row of the reduced column basis, parallel to
    /// `coords` (the indices of the faults that combined into that row).
    pub masks: Vec<u128>,
    /// Per-tag pair counts (Aegis-rw/-rw-p, and base Aegis past
    /// [`MASK_BITS`] slopes: colliding pairs per slope).
    pub counts: Vec<u32>,
    /// Number of tags with a zero count (the `counts` owners: slopes no
    /// pair collides on); masking and PLBC count their dependencies here.
    pub clean: usize,
    /// A summary mask whose meaning each owner defines: exhaustive SAFER
    /// the union of `masks` (vectors hit by at least one pair); incremental
    /// SAFER the indices of the faults that share their group with
    /// another; base Aegis the union of `masks` (slopes holding at least
    /// one colliding pair); masking and PLBC the union of the dependency
    /// supports (the faults whose `columns` entry is nonzero).
    pub all_mask: u128,
    /// Grown partition state (SAFER incremental: the vector positions).
    pub positions: Vec<usize>,
    /// Per-covered-fault group under `positions` (SAFER incremental); for
    /// masking and PLBC, the 64-entry pivot table (leading bit of a
    /// reduced column → index + 1 of its row in `coords`/`masks`, 0 for
    /// none).
    pub groups: Vec<u8>,
    /// Per-covered-fault geometric coordinates for RDIS, each fault's
    /// `(row, col)`; for masking and PLBC, the pivot rows' reduced `u64`
    /// columns split into `(low32, high32)` words.
    pub coords: Vec<(u32, u32)>,
    /// Per-covered-fault `u128` columns whose layout each owner defines:
    /// masking and PLBC keep each fault's dependency column (bit `d` set
    /// iff the fault lies in the support of dependency `d`, numbered in
    /// the order the dependencies were found).
    pub columns: Vec<u128>,
}

impl PairCache {
    /// Whether the cache was built by `owner` for exactly `faults`.
    ///
    /// This is the fast-path guard `recoverable_with` uses before trusting
    /// cached state: `O(1)`, since the driver contract makes a cache of
    /// the population's length a cache of the population itself.
    #[must_use]
    pub fn matches(&self, owner: u64, faults: &[Fault]) -> bool {
        let hit = self.owner == owner && self.len == faults.len();
        #[cfg(debug_assertions)]
        debug_assert!(
            !hit || self.covered == faults,
            "PairCache: population is not the cached one (missing forget_block)"
        );
        hit
    }

    /// Synchronises ownership with `owner`/`faults` and returns the number
    /// of leading faults whose pair state is already cached.
    ///
    /// If the cache belongs to a different owner, or covers more faults
    /// than `faults` holds, all cached state is dropped and 0 is returned;
    /// the caller then absorbs every fault. Otherwise the caller only
    /// absorbs `faults[start..]`, committing each with
    /// [`commit`](PairCache::commit).
    pub fn begin(&mut self, owner: u64, faults: &[Fault]) -> usize {
        if self.owner == owner && self.len <= faults.len() {
            #[cfg(debug_assertions)]
            debug_assert!(
                self.covered == faults[..self.len],
                "PairCache: population does not extend the cached one (missing forget_block)"
            );
        } else {
            self.reset();
            self.owner = owner;
        }
        self.len
    }

    /// Records that the pair state for `fault` is now cached.
    pub fn commit(&mut self, fault: Fault) {
        self.len += 1;
        #[cfg(debug_assertions)]
        self.covered.push(fault);
        #[cfg(not(debug_assertions))]
        let _ = fault;
    }

    /// Drops all cached state (including ownership).
    pub fn reset(&mut self) {
        self.owner = 0;
        self.len = 0;
        #[cfg(debug_assertions)]
        self.covered.clear();
        self.pairs.clear();
        self.masks.clear();
        self.counts.clear();
        self.clean = 0;
        self.all_mask = 0;
        self.positions.clear();
        self.groups.clear();
        self.coords.clear();
        self.columns.clear();
    }
}

/// Hashes a policy configuration into a [`PairCache`] owner key.
///
/// FNV-1a over the caller's scheme tag and geometry parameters. Policies
/// with distinct recoverability predicates must fold in a distinct leading
/// tag so a cache built by one can never be mistaken for another's.
#[must_use]
pub fn cache_key(parts: &[u64]) -> u64 {
    parts.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &p| {
        (h ^ p).wrapping_mul(0x1000_0000_01b3)
    })
}

impl PolicyScratch {
    /// Creates an empty arena; buffers grow on first use and are then
    /// reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears `flags` to `len` `false` entries and returns it.
    pub fn flags(&mut self, len: usize) -> &mut Vec<bool> {
        self.flags.clear();
        self.flags.resize(len, false);
        &mut self.flags
    }

    /// Clears `bytes` to `len` zero entries and returns it.
    pub fn bytes(&mut self, len: usize) -> &mut Vec<u8> {
        self.bytes.clear();
        self.bytes.resize(len, 0);
        &mut self.bytes
    }
}

/// Fast recoverability predicate for one scheme configuration.
///
/// Implementations must be immutable/stateless: feasibility may depend only
/// on the fault population and the split, never on write history. (This
/// holds for every scheme in the paper — e.g. Aegis's slope counter can
/// reach any slope by repeated increments, so history never forecloses a
/// configuration.)
pub trait RecoveryPolicy: Sync {
    /// Scheme name as used in the paper's figures (e.g. `"Aegis 17x31"`).
    fn name(&self) -> String;

    /// Metadata bits per protected block (Table 1 cost).
    fn overhead_bits(&self) -> usize;

    /// Width of the protected data block in bits.
    fn block_bits(&self) -> usize;

    /// Whether a block holding `faults` can absorb a write whose W/R split
    /// is `wrong` (`wrong[i]` ⇔ `faults[i]` is stuck-at-Wrong for the data).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `faults.len() != wrong.len()`.
    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool;

    /// [`recoverable`](Self::recoverable) with caller-provided working
    /// memory.
    ///
    /// The Monte Carlo engine always calls this form, passing a per-worker
    /// [`PolicyScratch`]; policies whose decision needs temporary buffers
    /// override it to borrow them from the arena instead of allocating.
    /// The default ignores the arena and delegates, so allocation-free
    /// operation is an opt-in refinement — the two forms must decide
    /// identically.
    ///
    /// # Panics
    ///
    /// As [`recoverable`](Self::recoverable).
    fn recoverable_with(
        &self,
        faults: &[Fault],
        wrong: &[bool],
        scratch: &mut PolicyScratch,
    ) -> bool {
        let _ = scratch;
        self.recoverable(faults, wrong)
    }

    /// Notifies the policy that the last entry of `faults` just arrived, so
    /// it can extend incremental per-block state in `scratch.pair_cache`.
    ///
    /// Drivers call this once per fault arrival, *before* the per-event
    /// [`recoverable_with`](Self::recoverable_with) calls for that
    /// population, and `faults` must extend the population of the previous
    /// call unless [`forget_block`](Self::forget_block) came in between
    /// (see [`PairCache`]). The default is a no-op: policies without an
    /// incremental path simply keep recomputing, and `recoverable_with`
    /// implementations must treat a non-matching cache (a foreign owner,
    /// or one that missed an arrival) as "recompute".
    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        let _ = (faults, scratch);
    }

    /// Notifies the policy that the next population is not an extension
    /// of the last one — a new block, or one the driver edited — so any
    /// per-block incremental state in `scratch` is stale.
    ///
    /// Every driver calls this at exactly those points: the engine before
    /// each block's event loop, forensics before its replay, and payg's
    /// walk at block start and after each repair. It is what lets
    /// [`PairCache`]'s guards compare lengths instead of fault slices, so
    /// a driver that skips it breaks the contract (debug builds panic).
    /// The default resets `scratch.pair_cache`.
    fn forget_block(&self, scratch: &mut PolicyScratch) {
        scratch.pair_cache.reset();
    }

    /// Human-readable account of how the scheme handles (or fails) the
    /// given fault population and W/R split — e.g. which slope Aegis
    /// settles on, or how many correction pointers SAFER-style schemes
    /// spend. Used by block-death forensics to annotate event traces.
    ///
    /// The default returns `None` (no scheme-specific narration); an
    /// implementation must be a pure function of its arguments so forensic
    /// replays stay deterministic, and must agree with
    /// [`recoverable`](Self::recoverable) about the verdict it describes.
    fn explain(&self, faults: &[Fault], wrong: &[bool]) -> Option<String> {
        let _ = (faults, wrong);
        None
    }

    /// Whether the fault population is recoverable for *every* data word
    /// (the strict, data-independent criterion).
    ///
    /// The default implementation enumerates all `2^f` splits for up to
    /// [`EXHAUSTIVE_SPLIT_LIMIT`] faults and falls back to testing
    /// [`SAMPLED_GUARANTEE_SPLITS`] pseudo-random splits beyond that (a
    /// documented approximation; schemes with a closed-form guarantee —
    /// ECP, base Aegis, SAFER — override this with an exact test).
    fn guaranteed(&self, faults: &[Fault]) -> bool {
        guaranteed_splits(self, faults)
    }

    /// [`guaranteed`](Self::guaranteed) with caller-provided working
    /// memory.
    ///
    /// The Monte Carlo engine always calls this form. The default
    /// delegates to [`guaranteed`](Self::guaranteed), so overriding it is
    /// purely an allocation-free refinement: the two forms must return
    /// identical verdicts on every fault population, and `scratch` may
    /// only hold working buffers, never decision state that outlives the
    /// call. Policies whose `guaranteed` is the trait default override
    /// this with [`guaranteed_splits_with`], which replays the same split
    /// stream out of the arena.
    fn guaranteed_with(&self, faults: &[Fault], scratch: &mut PolicyScratch) -> bool {
        let _ = scratch;
        self.guaranteed(faults)
    }
}

/// Seed for the sampled branch of [`guaranteed_splits`]: a deterministic
/// hash of the fault set, so repeated queries agree. The guarantee criterion treats a partially
/// stuck cell as its fully stuck worst case, but the kind still feeds the
/// seed (only when non-default, so all-Full populations keep their
/// historical hashes).
fn guarantee_sample_seed(faults: &[Fault]) -> u64 {
    faults.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, fa| {
        let mut x = (fa.offset as u64) ^ ((fa.stuck as u64) << 32);
        if let Stuckness::Partial { weak_success_q8 } = fa.kind {
            x ^= (u64::from(weak_success_q8) | 0x100) << 33;
        }
        (h ^ x).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The default [`RecoveryPolicy::guaranteed`] enumeration discipline:
/// every one of the `2^f` W/R splits up to [`EXHAUSTIVE_SPLIT_LIMIT`]
/// faults, then [`SAMPLED_GUARANTEE_SPLITS`] samples seeded by a
/// deterministic hash of the fault set, each decided by
/// [`recoverable`](RecoveryPolicy::recoverable). Policies that narrow the
/// question first (a closed-form bound) call it for the rest.
pub fn guaranteed_splits<P: RecoveryPolicy + ?Sized>(policy: &P, faults: &[Fault]) -> bool {
    enumerate_splits(faults, &mut Vec::new(), |wrong| {
        policy.recoverable(faults, wrong)
    })
}

/// [`guaranteed_splits`] with caller-provided working memory: the same
/// split stream, but the split buffer lives in the arena and each split is
/// decided through [`recoverable_with`](RecoveryPolicy::recoverable_with) —
/// contractually identical to `recoverable`, so the verdict is unchanged
/// while the policy's incremental pair state gets to serve every
/// enumerated split.
pub fn guaranteed_splits_with<P: RecoveryPolicy + ?Sized>(
    policy: &P,
    faults: &[Fault],
    scratch: &mut PolicyScratch,
) -> bool {
    // Detach the driver-owned split buffer so the policy can borrow the
    // arena's own fields during each decision.
    let mut wrong = std::mem::take(&mut scratch.split);
    let verdict = enumerate_splits(faults, &mut wrong, |wrong| {
        policy.recoverable_with(faults, wrong, scratch)
    });
    scratch.split = wrong;
    verdict
}

/// Whether `decide` accepts every split of the guarantee enumeration over
/// `faults`, built one at a time in `wrong`.
fn enumerate_splits(
    faults: &[Fault],
    wrong: &mut Vec<bool>,
    mut decide: impl FnMut(&[bool]) -> bool,
) -> bool {
    let f = faults.len();
    if f <= EXHAUSTIVE_SPLIT_LIMIT {
        wrong.clear();
        wrong.resize(f, false);
        (0u64..(1 << f)).all(|pattern| {
            for (i, w) in wrong.iter_mut().enumerate() {
                *w = (pattern >> i) & 1 == 1;
            }
            decide(wrong)
        })
    } else {
        let mut rng = SmallRng::seed_from_u64(guarantee_sample_seed(faults));
        (0..SAMPLED_GUARANTEE_SPLITS).all(|_| {
            sample_split_into(&mut rng, f, wrong);
            decide(wrong)
        })
    }
}

/// Bits in one word-parallel policy mask (`u128`): the most faults,
/// groups or slopes a policy can track as one bit each. Past it, a policy
/// keeps no mask state and decides with its cold recompute instead.
pub const MASK_BITS: usize = u128::BITS as usize;

/// Largest fault count for which the default [`RecoveryPolicy::guaranteed`]
/// enumerates every split exactly.
pub const EXHAUSTIVE_SPLIT_LIMIT: usize = 14;

/// Number of sampled splits used by the default
/// [`RecoveryPolicy::guaranteed`] beyond the exhaustive limit.
pub const SAMPLED_GUARANTEE_SPLITS: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy policy that tolerates at most `cap` stuck-at-Wrong faults.
    struct AtMostWrong {
        cap: usize,
    }

    impl RecoveryPolicy for AtMostWrong {
        fn name(&self) -> String {
            format!("at-most-{}-wrong", self.cap)
        }
        fn overhead_bits(&self) -> usize {
            0
        }
        fn block_bits(&self) -> usize {
            512
        }
        fn recoverable(&self, _faults: &[Fault], wrong: &[bool]) -> bool {
            wrong.iter().filter(|&&w| w).count() <= self.cap
        }
    }

    fn faults(n: usize) -> Vec<Fault> {
        (0..n).map(|i| Fault::new(i, false)).collect()
    }

    #[test]
    fn default_guaranteed_enumerates_small_sets() {
        let p = AtMostWrong { cap: 2 };
        // 2 faults: worst split has 2 wrong => fine.
        assert!(p.guaranteed(&faults(2)));
        // 3 faults: the all-wrong split exceeds the cap.
        assert!(!p.guaranteed(&faults(3)));
    }

    #[test]
    fn default_guaranteed_sampling_catches_common_failures() {
        // 20 faults with cap 5: a random split has ~10 wrong, far above the
        // cap, so sampling must detect the failure.
        let p = AtMostWrong { cap: 5 };
        assert!(!p.guaranteed(&faults(20)));
    }

    #[test]
    fn sampled_guarantee_is_deterministic() {
        let p = AtMostWrong { cap: 9 };
        let fs = faults(18);
        assert_eq!(p.guaranteed(&fs), p.guaranteed(&fs));
    }

    #[test]
    fn policy_is_object_safe() {
        fn _takes(_: &dyn RecoveryPolicy) {}
    }

    #[test]
    fn recoverable_with_defaults_to_recoverable() {
        let p = AtMostWrong { cap: 1 };
        let fs = faults(3);
        let mut scratch = PolicyScratch::new();
        for pattern in 0u8..8 {
            let wrong: Vec<bool> = (0..3).map(|i| (pattern >> i) & 1 == 1).collect();
            assert_eq!(
                p.recoverable(&fs, &wrong),
                p.recoverable_with(&fs, &wrong, &mut scratch)
            );
        }
    }

    #[test]
    fn scratch_buffers_reset_between_uses() {
        let mut scratch = PolicyScratch::new();
        scratch.flags(4)[2] = true;
        assert_eq!(scratch.flags(4), &vec![false; 4]);
        scratch.bytes(3)[0] = 7;
        assert_eq!(scratch.bytes(5), &vec![0u8; 5]);
    }

    #[test]
    fn observe_defaults_to_a_noop_and_forget_resets_the_cache() {
        let p = AtMostWrong { cap: 1 };
        let key = cache_key(&[1, 9, 61]);
        let fs = faults(2);
        let mut scratch = PolicyScratch::new();
        scratch.pair_cache.begin(key, &fs);
        scratch.pair_cache.commit(fs[0]);
        scratch.pair_cache.commit(fs[1]);
        p.observe_fault(&fs, &mut scratch);
        assert!(scratch.pair_cache.matches(key, &fs));
        p.forget_block(&mut scratch);
        assert!(!scratch.pair_cache.matches(key, &fs));
        assert_eq!(scratch.pair_cache.owner, 0);
    }

    #[test]
    fn pair_cache_begin_absorbs_only_the_new_suffix() {
        let mut cache = PairCache::default();
        let key = cache_key(&[1, 9, 61]);
        let fs = faults(3);

        assert_eq!(cache.begin(key, &fs[..1]), 0);
        cache.pairs.push(CachedPair { a: 0, b: 0, tag: 7 });
        cache.commit(fs[0]);
        assert!(cache.matches(key, &fs[..1]));

        // Growing the population keeps the cached prefix.
        assert_eq!(cache.begin(key, &fs), 1);
        cache.commit(fs[1]);
        cache.commit(fs[2]);
        assert!(cache.matches(key, &fs));
        assert_eq!(cache.pairs.len(), 1);
    }

    #[test]
    fn pair_cache_resets_on_owner_or_length_mismatch() {
        let mut cache = PairCache::default();
        let key_a = cache_key(&[1, 9, 61]);
        let key_b = cache_key(&[2, 9, 61]);
        let fs = faults(2);

        cache.begin(key_a, &fs);
        cache.commit(fs[0]);
        cache.commit(fs[1]);
        cache.pairs.push(CachedPair { a: 0, b: 1, tag: 3 });
        cache.counts.push(1);
        cache.clean = 4;

        // Different owner: full reset.
        assert_eq!(cache.begin(key_b, &fs), 0);
        assert!(cache.pairs.is_empty());
        assert!(cache.counts.is_empty());
        assert_eq!(cache.clean, 0);
        assert!(!cache.matches(key_a, &fs));

        // Same owner, but a population shorter than the cache: reset.
        cache.commit(fs[0]);
        cache.commit(fs[1]);
        assert_eq!(cache.begin(key_b, &fs[..1]), 0);
        assert!(!cache.matches(key_b, &fs));

        // A skipped observation leaves the cache short: no match, and the
        // next `begin` absorbs only the missing suffix.
        cache.commit(fs[0]);
        assert!(!cache.matches(key_b, &fs));
        assert_eq!(cache.begin(key_b, &fs), 1);

        // Another block after a reset starts from nothing.
        cache.reset();
        let other = vec![Fault::new(5, true)];
        assert_eq!(cache.begin(key_b, &other), 0);
        assert!(!cache.matches(key_b, &other));
    }

    /// A same-owner, same-length population that is not the cached one,
    /// reached without a reset, breaks the driver contract: debug builds
    /// catch it at the verdict guard.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "missing forget_block")]
    fn matches_asserts_the_cached_population_in_debug_builds() {
        let mut cache = PairCache::default();
        let key = cache_key(&[1, 9, 61]);
        let fs = faults(2);
        cache.begin(key, &fs);
        cache.commit(fs[0]);
        cache.commit(fs[1]);
        let other = vec![Fault::new(5, true), Fault::new(6, false)];
        let _ = cache.matches(key, &other);
    }

    /// The same contract breach at the absorb guard: a longer population
    /// whose head is not the cached prefix.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "missing forget_block")]
    fn begin_asserts_the_cached_prefix_in_debug_builds() {
        let mut cache = PairCache::default();
        let key = cache_key(&[1, 9, 61]);
        let fs = faults(2);
        cache.begin(key, &fs[..1]);
        cache.commit(fs[0]);
        let other = vec![Fault::new(5, true), Fault::new(6, false)];
        cache.begin(key, &other);
    }

    #[test]
    fn cache_keys_separate_policy_configurations() {
        let a = cache_key(&[1, 9, 61, 512]);
        let b = cache_key(&[2, 9, 61, 512]);
        let c = cache_key(&[1, 17, 31, 512]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
