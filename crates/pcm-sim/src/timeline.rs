//! Fault timelines: when each cell of a block/page fails, in write-count
//! time.
//!
//! A *timeline* is the complete randomness of one simulated page: every
//! cell's fault-arrival time (derived from its sampled lifetime and the
//! differential-write wear model), the value it sticks at, and one RNG seed
//! per fault event from which the per-write W/R splits are drawn. Policies
//! are evaluated *against* timelines, so every scheme sees exactly the same
//! random world (common random numbers).

use crate::lifetime;
use crate::{Fault, LifetimeModel, WearModel};
use sim_rng::SmallRng;
use sim_rng::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One fault arrival within a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Arrival time, in block writes since the beginning of the block's
    /// life.
    pub time: f64,
    /// The fault that appears at that time.
    pub fault: Fault,
    /// Seed for the W/R split(s) of the write that reveals this fault.
    pub split_seed: u64,
}

/// Fault arrivals of one data block, ascending in time, truncated to the
/// first `max_events` (a block is long dead before most cells fail).
#[derive(Debug, Clone, Default)]
pub struct BlockTimeline {
    /// Events in ascending time order.
    pub events: Vec<FaultEvent>,
}

impl BlockTimeline {
    /// Time of the first cell failure, or `None` for an empty timeline.
    #[must_use]
    pub fn first_fault_time(&self) -> Option<f64> {
        self.events.first().map(|e| e.time)
    }
}

/// Fault arrivals of one memory page (an OS page / "memory block" in the
/// paper): one [`BlockTimeline`] per data block.
#[derive(Debug, Clone, Default)]
pub struct PageTimeline {
    /// Per-data-block timelines.
    pub blocks: Vec<BlockTimeline>,
}

impl PageTimeline {
    /// Time of the very first cell failure anywhere in the page — the death
    /// time of an *unprotected* page.
    #[must_use]
    pub fn first_cell_death(&self) -> f64 {
        self.blocks
            .iter()
            .filter_map(BlockTimeline::first_fault_time)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total fault events recorded across all blocks.
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.blocks.iter().map(|b| b.events.len()).sum()
    }
}

/// Sampler for block and page timelines.
///
/// # Examples
///
/// ```
/// use pcm_sim::timeline::TimelineSampler;
/// use sim_rng::{SeedableRng, SmallRng};
///
/// let sampler = TimelineSampler::paper_default(512);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let tl = sampler.sample_block(&mut rng);
/// assert!(!tl.events.is_empty());
/// // Events are sorted in time.
/// assert!(tl.events.windows(2).all(|w| w[0].time <= w[1].time));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TimelineSampler {
    block_bits: usize,
    lifetime: LifetimeModel,
    wear: WearModel,
    max_events: usize,
    /// Probability that a dying cell sticks at `1`. Under random write
    /// data this is ½ (the default); real devices can be asymmetric (SET
    /// vs RESET failure modes), which the bias ablation explores.
    stuck_one_probability: f64,
    /// Fraction of dying cells that are only *partially* stuck
    /// ([`crate::Stuckness::Partial`]): they still reliably store
    /// their stuck value and accept the opposite value with probability
    /// `weak_success_q8 / 256` per write. `0.0` (the default) reproduces
    /// the classic all-fully-stuck model and consumes identical entropy,
    /// so legacy runs stay byte-identical.
    partial_fraction: f64,
    /// Weak-write success probability assigned to partially stuck cells,
    /// in units of 1/256.
    weak_success_q8: u8,
}

/// Default weak-write success probability for partially stuck cells
/// (½, i.e. the weak pulse takes every other write on average).
pub const DEFAULT_WEAK_SUCCESS_Q8: u8 = 128;

/// Default cap on tracked fault events per block. No scheme in the paper
/// survives anywhere near this many faults in one 512-bit block (the best
/// reach the low thirties), so the truncation is invisible; the Monte Carlo
/// engine still counts any block that outlives its timeline as `capped` so
/// a mis-set cap is loud, not silent.
pub const DEFAULT_MAX_EVENTS_PER_BLOCK: usize = 96;

impl TimelineSampler {
    /// Creates a sampler with explicit models.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` or `max_events` is zero.
    #[must_use]
    pub fn new(
        block_bits: usize,
        lifetime: LifetimeModel,
        wear: WearModel,
        max_events: usize,
    ) -> Self {
        assert!(block_bits > 0, "block must have at least one bit");
        assert!(max_events > 0, "must track at least one event");
        Self {
            block_bits,
            lifetime,
            wear,
            max_events: max_events.min(block_bits),
            stuck_one_probability: 0.5,
            partial_fraction: 0.0,
            weak_success_q8: DEFAULT_WEAK_SUCCESS_Q8,
        }
    }

    /// Sets the probability that a dying cell sticks at `1` (default ½).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[must_use]
    pub fn with_stuck_bias(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.stuck_one_probability = p;
        self
    }

    /// Makes a fraction of dying cells only partially stuck: each new fault
    /// is [`Stuckness::Partial`](crate::Stuckness::Partial) with
    /// probability `fraction`, carrying weak-write success probability
    /// `weak_success_q8 / 256`.
    ///
    /// `fraction = 0.0` is *exactly* the legacy sampler: the kind draw is
    /// skipped entirely, so the RNG stream (and hence every downstream
    /// timeline, split and result) is byte-identical to a sampler built
    /// without this call.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction ≤ 1`.
    #[must_use]
    pub fn with_partial_mix(mut self, fraction: f64, weak_success_q8: u8) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "probability out of range");
        self.partial_fraction = fraction;
        self.weak_success_q8 = weak_success_q8;
        self
    }

    /// Fraction of dying cells sampled as partially stuck.
    #[must_use]
    pub fn partial_fraction(&self) -> f64 {
        self.partial_fraction
    }

    /// The paper's §3.1 configuration for the given block width.
    #[must_use]
    pub fn paper_default(block_bits: usize) -> Self {
        Self::new(
            block_bits,
            LifetimeModel::paper_default(),
            WearModel::paper_default(),
            DEFAULT_MAX_EVENTS_PER_BLOCK,
        )
    }

    /// Block width this sampler generates timelines for.
    #[must_use]
    pub fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// Maximum events kept per block timeline.
    #[must_use]
    pub fn max_events(&self) -> usize {
        self.max_events
    }

    /// Samples the fault timeline of one data block.
    ///
    /// Draws every cell's lifetime in offset order and keeps the
    /// `max_events` earliest failures, ordered by `(time, offset)`; then
    /// draws each kept event's stuck value, kind and split seed in that
    /// order. The kernel selects rather than sorts, and skips the
    /// transcendentals of cells that provably fail no earlier than the
    /// mean (the `SelectScratch` notes say why that is exact).
    pub fn sample_block<R: Rng + ?Sized>(&self, rng: &mut R) -> BlockTimeline {
        self.sample_block_with(rng, &mut SelectScratch::new(self.block_bits))
    }

    /// Samples the fault timeline of a page of `blocks_per_page` data
    /// blocks: the same stream as `blocks_per_page` successive
    /// [`sample_block`](Self::sample_block) calls.
    pub fn sample_page<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        blocks_per_page: usize,
    ) -> PageTimeline {
        let mut scratch = SelectScratch::new(self.block_bits);
        PageTimeline {
            blocks: (0..blocks_per_page)
                .map(|_| self.sample_block_with(rng, &mut scratch))
                .collect(),
        }
    }

    fn sample_block_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut SelectScratch,
    ) -> BlockTimeline {
        let SelectScratch {
            evaluated,
            deferred,
        } = scratch;
        evaluated.clear();
        deferred.clear();
        let k = self.max_events;
        let floor = self.wear.fault_time(self.lifetime.mean());
        let mut below_floor = 0usize;
        for offset in 0..self.block_bits {
            let (u1, u2) = lifetime::uniform_pair(rng);
            if lifetime::variate_is_non_negative(u2) {
                deferred.push((u1, u2, offset));
                continue;
            }
            let draw = self.lifetime.draw(u1, u2);
            // A non-positive draw is resampled from fresh uniforms, exactly
            // as `LifetimeModel::sample` would have.
            let life = if draw > 0.0 {
                draw
            } else {
                self.lifetime.sample(rng)
            };
            let time = self.wear.fault_time(life);
            below_floor += usize::from(time < floor);
            evaluated.push((time, offset));
        }
        if below_floor < k {
            evaluated.extend(deferred.iter().map(|&(u1, u2, offset)| {
                (self.wear.fault_time(self.lifetime.draw(u1, u2)), offset)
            }));
        }
        // Offsets are unique, so this is the order a stable sort by time
        // of the offset-ordered cells would give.
        let by_time_then_offset =
            |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        if evaluated.len() > k {
            evaluated.select_nth_unstable_by(k - 1, by_time_then_offset);
            evaluated.truncate(k);
        }
        evaluated.sort_unstable_by(by_time_then_offset);
        let events = evaluated
            .iter()
            .map(|&(time, offset)| {
                // A cell sticks at whatever it held when it died; under
                // random write data that is a fair coin (bias configurable
                // via `with_stuck_bias`).
                let stuck = rng.random_bool(self.stuck_one_probability);
                // The kind draw is gated on the mix being enabled so a
                // zero-fraction sampler consumes exactly the legacy
                // entropy (stuck value, then split seed).
                let fault = if self.partial_fraction > 0.0 && rng.random_bool(self.partial_fraction)
                {
                    Fault::partial(offset, stuck, self.weak_success_q8)
                } else {
                    Fault::new(offset, stuck)
                };
                FaultEvent {
                    time,
                    fault,
                    split_seed: rng.random(),
                }
            })
            .collect();
        BlockTimeline { events }
    }

    /// Deterministic per-page RNG: every policy evaluated on page `index`
    /// of a run seeded with `master_seed` sees the identical timeline.
    ///
    /// Each page is its own [`sim_rng::substream_seed`] substream of the
    /// master seed, which is what makes page-range sharding and
    /// checkpoint/resume byte-exact: any process that knows `(master_seed,
    /// index)` reconstructs the identical timeline, regardless of which
    /// pages ran before it or in which process they ran.
    #[must_use]
    pub fn page_rng(master_seed: u64, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(sim_rng::substream_seed(master_seed, index))
    }
}

/// Candidate buffers of the select-k block kernel, reused across the
/// blocks of a page.
///
/// Every cell's uniforms are drawn in offset order, as
/// [`LifetimeModel::sample`] would draw them. A cell whose Box–Muller
/// cosine is provably positive has a lifetime `≥ mean`, hence a fault time
/// `≥ floor = WearModel::fault_time(mean)`, and consumes no resample; it is
/// parked in `deferred` unevaluated. Every other cell is evaluated into
/// `evaluated`. If at least `max_events` evaluated cells fail *strictly*
/// before `floor`, every deferred cell sorts after all of them under
/// `(time, offset)` and cannot be kept, so it is never evaluated.
/// Otherwise — zero spread, tiny blocks, or `max_events` near the width —
/// the deferred cells are evaluated too. Either way the RNG stream and the
/// kept events are bit-identical to sorting every cell.
struct SelectScratch {
    /// Evaluated cells: `(fault time, offset)`.
    evaluated: Vec<(f64, usize)>,
    /// Deferred cells: `(u1, u2, offset)`, all failing at or after `floor`.
    deferred: Vec<(f64, f64, usize)>,
}

impl SelectScratch {
    fn new(block_bits: usize) -> Self {
        Self {
            evaluated: Vec::with_capacity(block_bits),
            deferred: Vec::with_capacity(block_bits),
        }
    }
}

/// Default cap on distinct pages a [`TimelineCache`] retains.
pub const DEFAULT_TIMELINE_CACHE_PAGES: usize = 16_384;

/// A shared, thread-safe cache of sampled [`PageTimeline`]s.
///
/// Timelines are the engine's common random numbers: every scheme evaluated
/// under one `(master_seed, page, blocks_per_page, sampler)` tuple sees the
/// *identical* timeline by construction. A page-major pass
/// ([`run_memory_pass`](crate::montecarlo::run_memory_pass)) gets that
/// sharing without a cache: it samples each page once, judges every scheme
/// on it, and drops it. No figure driver builds one. The benchmark harness
/// is the only caller: it prefills a cache so that sampling is timed apart
/// from evaluation, and the engine then hands out `Arc` clones of the
/// cached pages (see [`PassHooks::timelines`]). ROADMAP item 1 removes it.
///
/// [`PassHooks::timelines`]: crate::montecarlo::PassHooks::timelines
///
/// # Determinism
///
/// A cached timeline is a pure function of its key: on a miss the cache
/// derives the same [`TimelineSampler::page_rng`] stream the uncached path
/// uses, so hit and miss return bit-identical events and the per-page RNG
/// is never observable downstream (per-event splits re-seed from
/// [`FaultEvent::split_seed`]). Two workers racing on the same missing key
/// sample the same value; the first insert wins and the loser's copy is
/// dropped. Results are therefore byte-identical with the cache on or off,
/// across thread counts and across processes.
///
/// The capacity is a page-count cap, not an eviction policy: once full, new
/// keys are sampled and returned *uncached* (correct, just not shared).
pub struct TimelineCache {
    map: Mutex<HashMap<CacheKey, Arc<PageTimeline>>>,
    max_pages: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Cache key: the full provenance of one sampled page. The sampler is
/// fingerprinted by its `Debug` rendering, which spells out every model
/// parameter (including exact float values), so samplers that could ever
/// produce different timelines never share an entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    seed: u64,
    page: u64,
    blocks_per_page: usize,
    sampler: String,
}

impl Default for TimelineCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TimelineCache {
    /// An empty cache retaining at most [`DEFAULT_TIMELINE_CACHE_PAGES`]
    /// distinct pages.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TIMELINE_CACHE_PAGES)
    }

    /// An empty cache retaining at most `max_pages` distinct pages
    /// (`0` disables retention entirely — every call samples).
    #[must_use]
    pub fn with_capacity(max_pages: usize) -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            max_pages,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the timeline of `(master_seed, page)` for `sampler`,
    /// sampling and (capacity permitting) retaining it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking thread.
    pub fn get_or_sample(
        &self,
        sampler: &TimelineSampler,
        master_seed: u64,
        page: u64,
        blocks_per_page: usize,
    ) -> Arc<PageTimeline> {
        let key = CacheKey {
            seed: master_seed,
            page,
            blocks_per_page,
            sampler: format!("{sampler:?}"),
        };
        if let Some(hit) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Sample outside the lock: pages are independent substreams, so
        // concurrent misses on different keys sample in parallel.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut rng = TimelineSampler::page_rng(master_seed, page);
        let fresh = Arc::new(sampler.sample_page(&mut rng, blocks_per_page));
        let mut map = self.map.lock().unwrap();
        if let Some(raced) = map.get(&key) {
            // Another worker sampled the identical timeline first; keep the
            // shared copy so every consumer aliases one allocation.
            return Arc::clone(raced);
        }
        if map.len() < self.max_pages {
            map.insert(key, Arc::clone(&fresh));
        }
        fresh
    }

    /// Distinct pages currently retained.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache holds no pages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to sample so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_timeline_is_sorted_and_capped() {
        let sampler = TimelineSampler::new(
            512,
            LifetimeModel::new(1000.0, 0.25),
            WearModel::paper_default(),
            10,
        );
        let mut rng = SmallRng::seed_from_u64(3);
        let tl = sampler.sample_block(&mut rng);
        assert_eq!(tl.events.len(), 10);
        assert!(tl.events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn offsets_are_unique_within_block() {
        let sampler = TimelineSampler::paper_default(256);
        let mut rng = SmallRng::seed_from_u64(4);
        let tl = sampler.sample_block(&mut rng);
        let mut offsets: Vec<usize> = tl.events.iter().map(|e| e.fault.offset).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), tl.events.len());
    }

    #[test]
    fn wear_model_doubles_fault_times() {
        let fast =
            TimelineSampler::new(64, LifetimeModel::new(1000.0, 0.0), WearModel::new(1.0), 1);
        let slow =
            TimelineSampler::new(64, LifetimeModel::new(1000.0, 0.0), WearModel::new(0.5), 1);
        let mut rng = SmallRng::seed_from_u64(5);
        let a = fast.sample_block(&mut rng).events[0].time;
        let b = slow.sample_block(&mut rng).events[0].time;
        assert_eq!(a, 1000.0);
        assert_eq!(b, 2000.0);
    }

    #[test]
    fn equal_fault_times_order_by_offset() {
        // With zero spread every cell fails at the same instant, so no
        // evaluated cell beats the deferral floor: the kernel must fall
        // back to evaluating every cell and break the tie by offset.
        for (bits, k) in [(8, 3), (64, 64), (512, 96)] {
            let sampler = TimelineSampler::new(
                bits,
                LifetimeModel::new(1000.0, 0.0),
                WearModel::paper_default(),
                k,
            );
            let tl = sampler.sample_block(&mut SmallRng::seed_from_u64(14));
            let offsets: Vec<usize> = tl.events.iter().map(|e| e.fault.offset).collect();
            assert_eq!(offsets, (0..k).collect::<Vec<_>>(), "bits {bits}, k {k}");
            assert!(tl.events.iter().all(|e| e.time == 2000.0));
        }
    }

    #[test]
    fn page_first_cell_death_is_min_over_blocks() {
        let sampler = TimelineSampler::paper_default(128);
        let mut rng = SmallRng::seed_from_u64(6);
        let page = sampler.sample_page(&mut rng, 8);
        let manual = page
            .blocks
            .iter()
            .map(|b| b.events[0].time)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(page.first_cell_death(), manual);
        assert_eq!(page.total_events(), 8 * sampler.max_events());
    }

    #[test]
    fn page_rng_is_deterministic_per_index() {
        use sim_rng::Rng;
        let mut a = TimelineSampler::page_rng(7, 3);
        let mut b = TimelineSampler::page_rng(7, 3);
        let mut c = TimelineSampler::page_rng(7, 4);
        let (x, y, z): (u64, u64, u64) = (a.random(), b.random(), c.random());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_block_bits_panics() {
        let _ = TimelineSampler::new(
            0,
            LifetimeModel::paper_default(),
            WearModel::paper_default(),
            1,
        );
    }

    #[test]
    fn stuck_bias_shifts_the_value_distribution() {
        let biased = TimelineSampler::paper_default(512).with_stuck_bias(0.9);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut ones = 0usize;
        let mut total = 0usize;
        for _ in 0..30 {
            for event in biased.sample_block(&mut rng).events {
                ones += usize::from(event.fault.stuck);
                total += 1;
            }
        }
        let fraction = ones as f64 / total as f64;
        assert!((0.85..0.95).contains(&fraction), "{fraction}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_bias_panics() {
        let _ = TimelineSampler::paper_default(64).with_stuck_bias(1.5);
    }

    #[test]
    fn zero_partial_mix_is_stream_identical_to_legacy() {
        let plain = TimelineSampler::paper_default(512);
        let mixed = plain.with_partial_mix(0.0, 200);
        let mut a = SmallRng::seed_from_u64(12);
        let mut b = SmallRng::seed_from_u64(12);
        for _ in 0..5 {
            let ta = plain.sample_block(&mut a);
            let tb = mixed.sample_block(&mut b);
            assert_eq!(ta.events, tb.events);
        }
        // RNG state also agrees afterwards.
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn partial_mix_fraction_shows_up_in_sampled_kinds() {
        let sampler = TimelineSampler::paper_default(512).with_partial_mix(0.4, 99);
        assert_eq!(sampler.partial_fraction(), 0.4);
        let mut rng = SmallRng::seed_from_u64(13);
        let mut partial = 0usize;
        let mut total = 0usize;
        for _ in 0..30 {
            for event in sampler.sample_block(&mut rng).events {
                if let crate::fault::Stuckness::Partial { weak_success_q8 } = event.fault.kind {
                    assert_eq!(weak_success_q8, 99);
                    partial += 1;
                }
                total += 1;
            }
        }
        let fraction = partial as f64 / total as f64;
        assert!((0.33..0.47).contains(&fraction), "{fraction}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_partial_fraction_panics() {
        let _ = TimelineSampler::paper_default(64).with_partial_mix(-0.1, 128);
    }

    fn assert_pages_equal(a: &PageTimeline, b: &PageTimeline) {
        assert_eq!(a.blocks.len(), b.blocks.len());
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.events, y.events);
        }
    }

    #[test]
    fn cache_hits_are_bit_identical_to_uncached_sampling() {
        let sampler = TimelineSampler::paper_default(256);
        let cache = TimelineCache::with_capacity(8);
        for page in [0u64, 3, 7] {
            let cached = cache.get_or_sample(&sampler, 99, page, 4);
            let again = cache.get_or_sample(&sampler, 99, page, 4);
            let mut rng = TimelineSampler::page_rng(99, page);
            let direct = sampler.sample_page(&mut rng, 4);
            assert_pages_equal(&cached, &direct);
            // The second lookup aliases the first allocation.
            assert!(Arc::ptr_eq(&cached, &again));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn cache_keys_separate_samplers_seeds_and_shapes() {
        let a = TimelineSampler::paper_default(256);
        let b = TimelineSampler::paper_default(256).with_partial_mix(0.5, 77);
        let cache = TimelineCache::with_capacity(16);
        let base = cache.get_or_sample(&a, 1, 0, 4);
        // Different sampler parameters, seed, page and page shape all miss.
        assert!(!Arc::ptr_eq(&base, &cache.get_or_sample(&b, 1, 0, 4)));
        assert!(!Arc::ptr_eq(&base, &cache.get_or_sample(&a, 2, 0, 4)));
        assert!(!Arc::ptr_eq(&base, &cache.get_or_sample(&a, 1, 1, 4)));
        assert!(!Arc::ptr_eq(&base, &cache.get_or_sample(&a, 1, 0, 2)));
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 0);
        // And the original key still hits.
        assert!(Arc::ptr_eq(&base, &cache.get_or_sample(&a, 1, 0, 4)));
    }

    #[test]
    fn full_cache_still_serves_correct_uncached_timelines() {
        let sampler = TimelineSampler::paper_default(128);
        let cache = TimelineCache::with_capacity(1);
        let first = cache.get_or_sample(&sampler, 5, 0, 2);
        let overflow = cache.get_or_sample(&sampler, 5, 1, 2);
        assert_eq!(cache.len(), 1, "capacity caps retention");
        let mut rng = TimelineSampler::page_rng(5, 1);
        assert_pages_equal(&overflow, &sampler.sample_page(&mut rng, 2));
        // The retained page keeps hitting; the overflow page keeps missing
        // but stays correct.
        assert!(Arc::ptr_eq(&first, &cache.get_or_sample(&sampler, 5, 0, 2)));
        let overflow_again = cache.get_or_sample(&sampler, 5, 1, 2);
        assert!(!Arc::ptr_eq(&overflow, &overflow_again));
        assert_pages_equal(&overflow, &overflow_again);
    }
}
