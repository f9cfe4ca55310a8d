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
    /// Split tape of the single-policy entry points
    /// ([`evaluate_block_with_scratch`](crate::montecarlo::evaluate_block_with_scratch)
    /// and its page form). A page-major pass shares one tape across its
    /// policies instead and leaves this one empty.
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
/// The cache is *self-healing*: every consumer calls
/// [`begin`](PairCache::begin) with its owner key and the current fault
/// slice. If the cache belongs to another policy, or the covered faults are
/// not a prefix of the current population, the cache resets and is rebuilt
/// from scratch; otherwise only the suffix of unseen faults is absorbed.
/// Correctness therefore never depends on `forget_block` being called —
/// the cached content is a pure function of `(owner, covered)`.
///
/// The field set is a deliberately generic union of what the workspace's
/// schemes need (mirroring the `flags`/`bytes`/`counts` design of
/// [`PolicyScratch`]); each policy documents which fields it owns.
#[derive(Debug, Default)]
pub struct PairCache {
    /// Key identifying the policy configuration that built this cache; see
    /// [`cache_key`].
    pub owner: u64,
    /// The exact fault prefix the cached state describes.
    covered: Vec<Fault>,
    /// Cached pairs in arrival order of the later fault.
    pub pairs: Vec<CachedPair>,
    /// Per-pair `u128` masks, parallel to `pairs` when a scheme needs mask
    /// payloads wider than `CachedPair::tag` (SAFER's vector masks).
    pub masks: Vec<u128>,
    /// Per-tag pair counts (Aegis: colliding pairs per slope).
    pub counts: Vec<u32>,
    /// Number of tags with a zero count (Aegis: slopes no pair collides on).
    pub clean: usize,
    /// Union of `masks` (SAFER: vectors hit by at least one pair).
    pub all_mask: u128,
    /// Grown partition state (SAFER incremental: the vector positions).
    pub positions: Vec<usize>,
    /// Per-covered-fault group under `positions` (SAFER incremental).
    pub groups: Vec<u8>,
    /// Per-covered-fault geometric coordinates (RDIS: `(row, col)`).
    pub coords: Vec<(u32, u32)>,
}

impl PairCache {
    /// Whether the cache was built by `owner` for exactly `faults`.
    ///
    /// This is the fast-path guard `recoverable_with` uses before trusting
    /// cached state; the comparison is `O(f)` on fault count.
    #[must_use]
    pub fn matches(&self, owner: u64, faults: &[Fault]) -> bool {
        self.owner == owner && self.covered == faults
    }

    /// Synchronises ownership with `owner`/`faults` and returns the number
    /// of leading faults whose pair state is already cached.
    ///
    /// If the cache belongs to a different owner, or its covered faults are
    /// not a prefix of `faults`, all cached state is dropped and 0 is
    /// returned; the caller then absorbs every fault. Otherwise the caller
    /// only absorbs `faults[start..]`, committing each with
    /// [`commit`](PairCache::commit).
    pub fn begin(&mut self, owner: u64, faults: &[Fault]) -> usize {
        let prefix_ok = self.owner == owner
            && self.covered.len() <= faults.len()
            && self.covered == faults[..self.covered.len()];
        if !prefix_ok {
            self.reset();
            self.owner = owner;
        }
        self.covered.len()
    }

    /// Records that the pair state for `fault` is now cached.
    pub fn commit(&mut self, fault: Fault) {
        self.covered.push(fault);
    }

    /// The faults whose pair state is cached.
    #[must_use]
    pub fn covered(&self) -> &[Fault] {
        &self.covered
    }

    /// Drops all cached state (including ownership).
    pub fn reset(&mut self) {
        self.owner = 0;
        self.covered.clear();
        self.pairs.clear();
        self.masks.clear();
        self.counts.clear();
        self.clean = 0;
        self.all_mask = 0;
        self.positions.clear();
        self.groups.clear();
        self.coords.clear();
    }

    /// Captures a point-in-time copy of the full cache state.
    ///
    /// Together with [`restore`](PairCache::restore) this makes scratch
    /// state serializable for engine snapshots. Note that checkpoints taken
    /// at page boundaries never *need* a non-empty snapshot: the cache is
    /// self-healing (its content is a pure function of `(owner, covered)`),
    /// and every block evaluation re-derives it from the block's own fault
    /// prefix, so a restored-empty cache is semantically identical to a
    /// warm one. The snapshot exists so mid-block suspension (and tests)
    /// can round-trip the exact incremental state.
    #[must_use]
    pub fn snapshot(&self) -> PairCacheSnapshot {
        PairCacheSnapshot {
            owner: self.owner,
            covered: self.covered.clone(),
            pairs: self.pairs.clone(),
            masks: self.masks.clone(),
            counts: self.counts.clone(),
            clean: self.clean,
            all_mask: self.all_mask,
            positions: self.positions.clone(),
            groups: self.groups.clone(),
            coords: self.coords.clone(),
        }
    }

    /// Restores the cache to a previously captured snapshot, replacing all
    /// current state. A restored cache behaves exactly as the snapshotted
    /// one did: [`matches`](PairCache::matches) succeeds for the same
    /// `(owner, faults)` and [`begin`](PairCache::begin) resumes from the
    /// same covered prefix.
    pub fn restore(&mut self, snap: &PairCacheSnapshot) {
        self.owner = snap.owner;
        self.covered.clone_from(&snap.covered);
        self.pairs.clone_from(&snap.pairs);
        self.masks.clone_from(&snap.masks);
        self.counts.clone_from(&snap.counts);
        self.clean = snap.clean;
        self.all_mask = snap.all_mask;
        self.positions.clone_from(&snap.positions);
        self.groups.clone_from(&snap.groups);
        self.coords.clone_from(&snap.coords);
    }
}

/// A point-in-time copy of a [`PairCache`], captured by
/// [`PairCache::snapshot`] and replayed by [`PairCache::restore`].
///
/// Field-for-field mirror of the cache (the `covered` fault prefix is
/// exposed here even though the live cache keeps it private, so snapshots
/// can be serialized and compared by engine-state checkpointing).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PairCacheSnapshot {
    /// [`PairCache::owner`] at capture time.
    pub owner: u64,
    /// The covered fault prefix ([`PairCache::covered`]).
    pub covered: Vec<Fault>,
    /// Cached pairs ([`PairCache::pairs`]).
    pub pairs: Vec<CachedPair>,
    /// Per-pair masks ([`PairCache::masks`]).
    pub masks: Vec<u128>,
    /// Per-tag pair counts ([`PairCache::counts`]).
    pub counts: Vec<u32>,
    /// Zero-count tag total ([`PairCache::clean`]).
    pub clean: usize,
    /// Mask union ([`PairCache::all_mask`]).
    pub all_mask: u128,
    /// Partition positions ([`PairCache::positions`]).
    pub positions: Vec<usize>,
    /// Per-fault groups ([`PairCache::groups`]).
    pub groups: Vec<u8>,
    /// Per-fault coordinates ([`PairCache::coords`]).
    pub coords: Vec<(u32, u32)>,
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
    /// The Monte Carlo engine calls this once per fault arrival, *before*
    /// the per-event [`recoverable_with`](Self::recoverable_with) calls for
    /// that population. The default is a no-op: policies without an
    /// incremental path simply keep recomputing, and `recoverable_with`
    /// implementations must treat a non-matching cache as "recompute"
    /// (the cache is advisory, never load-bearing for correctness).
    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        let _ = (faults, scratch);
    }

    /// Notifies the policy that the block under evaluation changed, so any
    /// per-block incremental state in `scratch` is stale.
    ///
    /// Called by the engine before each block's event loop. Because
    /// [`PairCache::begin`] self-heals on owner/prefix mismatch this is an
    /// optimisation hint (drop state eagerly) rather than a correctness
    /// requirement; the default is a no-op.
    fn forget_block(&self, scratch: &mut PolicyScratch) {
        let _ = scratch;
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
        let f = faults.len();
        if f <= EXHAUSTIVE_SPLIT_LIMIT {
            let mut wrong = vec![false; f];
            (0u64..(1 << f)).all(|pattern| {
                for (i, w) in wrong.iter_mut().enumerate() {
                    *w = (pattern >> i) & 1 == 1;
                }
                self.recoverable(faults, &wrong)
            })
        } else {
            let mut rng = SmallRng::seed_from_u64(guarantee_sample_seed(faults));
            // One reused buffer for all sampled splits; `sample_split_into`
            // consumes exactly the entropy the allocating form did, so the
            // verdict stream is unchanged.
            let mut wrong = Vec::with_capacity(f);
            (0..SAMPLED_GUARANTEE_SPLITS).all(|_| {
                sample_split_into(&mut rng, f, &mut wrong);
                self.recoverable(faults, &wrong)
            })
        }
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

/// Seed for the sampled branch of the default
/// [`RecoveryPolicy::guaranteed`]: a deterministic hash of the fault set,
/// so repeated queries agree. The guarantee criterion treats a partially
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

/// The default [`RecoveryPolicy::guaranteed`] enumeration discipline with
/// caller-provided working memory: the same split stream (exhaustive up to
/// [`EXHAUSTIVE_SPLIT_LIMIT`] faults, then [`SAMPLED_GUARANTEE_SPLITS`]
/// deterministic samples from the same seed), but the split buffer lives
/// in the arena and each split is decided through
/// [`recoverable_with`](RecoveryPolicy::recoverable_with) — contractually
/// identical to `recoverable`, so the verdict is unchanged while the
/// policy's incremental pair state gets to serve every enumerated split.
pub fn guaranteed_splits_with<P: RecoveryPolicy + ?Sized>(
    policy: &P,
    faults: &[Fault],
    scratch: &mut PolicyScratch,
) -> bool {
    let f = faults.len();
    // Detach the driver-owned split buffer so the policy can borrow the
    // arena's own fields during each decision.
    let mut wrong = std::mem::take(&mut scratch.split);
    let verdict = if f <= EXHAUSTIVE_SPLIT_LIMIT {
        wrong.clear();
        wrong.resize(f, false);
        (0u64..(1 << f)).all(|pattern| {
            for (i, w) in wrong.iter_mut().enumerate() {
                *w = (pattern >> i) & 1 == 1;
            }
            policy.recoverable_with(faults, &wrong, scratch)
        })
    } else {
        let mut rng = SmallRng::seed_from_u64(guarantee_sample_seed(faults));
        (0..SAMPLED_GUARANTEE_SPLITS).all(|_| {
            sample_split_into(&mut rng, f, &mut wrong);
            policy.recoverable_with(faults, &wrong, scratch)
        })
    };
    scratch.split = wrong;
    verdict
}

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
    fn observe_and_forget_default_to_noops() {
        let p = AtMostWrong { cap: 1 };
        let mut scratch = PolicyScratch::new();
        p.observe_fault(&faults(2), &mut scratch);
        p.forget_block(&mut scratch);
        assert!(scratch.pair_cache.covered().is_empty());
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
    fn pair_cache_resets_on_owner_or_prefix_mismatch() {
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

        // Same owner but a different block's faults (not a prefix): reset.
        cache.commit(fs[0]);
        cache.commit(fs[1]);
        let other = vec![Fault::new(5, true)];
        assert_eq!(cache.begin(key_b, &other), 0);
        assert!(cache.covered().is_empty());
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

    #[test]
    fn pair_cache_snapshot_round_trips() {
        let mut cache = PairCache::default();
        let key = cache_key(&[1, 9, 61]);
        let fs = faults(3);
        cache.begin(key, &fs);
        for &f in &fs {
            cache.commit(f);
        }
        cache.pairs.push(CachedPair { a: 0, b: 2, tag: 5 });
        cache
            .masks
            .push(0xdead_beef_dead_beef_dead_beef_dead_beefu128);
        cache.counts = vec![0, 1, 0];
        cache.clean = 2;
        cache.all_mask = 0xffu128 << 96;
        cache.positions = vec![3, 1, 4];
        cache.groups = vec![0, 1, 1];
        cache.coords = vec![(0, 7), (1, 3), (2, 9)];

        let snap = cache.snapshot();
        let mut restored = PairCache::default();
        restored.begin(cache_key(&[9, 9, 9]), &fs[..1]);
        restored.restore(&snap);

        // The restored cache is indistinguishable from the original: same
        // ownership guard, same covered prefix, same derived state, and a
        // re-snapshot is equal to the one it came from.
        assert!(restored.matches(key, &fs));
        assert_eq!(restored.begin(key, &fs), fs.len());
        assert_eq!(restored.snapshot(), snap);

        // An empty snapshot restores to the default (self-healing) state.
        restored.restore(&PairCacheSnapshot::default());
        assert_eq!(restored.begin(key, &fs), 0);
        assert!(restored.pairs.is_empty());
    }
}
