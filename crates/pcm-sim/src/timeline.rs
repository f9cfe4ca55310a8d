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
use sim_rng::{Bernoulli, Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
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
    /// The select-k kernel's rank gate, a function of the fields above;
    /// `None` where no cell can be skipped (zero spread, or every cell
    /// kept).
    gate: Option<Gate>,
    /// The rank gate for a block's first [`PREFIX_EVENTS`] events, which
    /// admits fewer cells: the gate of [`sample_block_prefix`] calls that
    /// keep no more than that.
    ///
    /// [`sample_block_prefix`]: Self::sample_block_prefix
    prefix_gate: Option<Gate>,
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

/// Events a chip pass samples of each block up front. Under the page
/// horizon (DESIGN §3) the deepest walk of any fig5 scheme through a block
/// averages 11.0 events at 256 bits and 17.8 at 512, and needs more than
/// 32 for 0.02% and 1.19% of blocks (fig5, 256 pages, seed 1); the pass
/// samples those few blocks again in full.
pub(crate) const PREFIX_EVENTS: usize = 32;

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
        let max_events = max_events.min(block_bits);
        Self {
            block_bits,
            lifetime,
            wear,
            max_events,
            stuck_one_probability: 0.5,
            partial_fraction: 0.0,
            weak_success_q8: DEFAULT_WEAK_SUCCESS_Q8,
            gate: Gate::new(block_bits, max_events, lifetime, wear),
            prefix_gate: Gate::new(block_bits, PREFIX_EVENTS.min(max_events), lifetime, wear),
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
    /// order. The events and the RNG state afterwards are bit-identical to
    /// sampling every lifetime and stably sorting the whole block.
    ///
    /// The kernel does less than that. A rank gate, built once per sampler,
    /// fixes a fault time that at least `max_events` of a block's cells
    /// fail before, bar a 4σ binomial tail, and skips the Box–Muller
    /// transcendentals of every cell whose uniforms alone show that it
    /// fails no earlier and draws no resample. The earliest candidates are
    /// then selected, not sorted, on integer keys. A block in the tail is
    /// replayed from a copy of `rng` with every cell evaluated, hence the
    /// `Clone` bound.
    pub fn sample_block<R: Rng + Clone>(&self, rng: &mut R) -> BlockTimeline {
        self.sample_block_with(rng, &mut SelectScratch::new(self.block_bits))
    }

    /// The first `prefix` events of the block [`sample_block`] samples
    /// from the same `rng`, leaving `rng` exactly where
    /// [`sample_block`] leaves it.
    ///
    /// It is the same kernel keeping fewer events: it selects the
    /// `prefix` earliest failures (through a tighter rank gate when
    /// `prefix` is at most the chip pass's prefix), and still draws the
    /// stuck value, kind and split seed of every event up to `max_events`,
    /// discarding those past the prefix, so the stream goes on unchanged.
    /// Sampling again from a copy of `rng` taken before the call gives the
    /// whole block, whose first `prefix` events are these. A `prefix` of
    /// `max_events` or more is [`sample_block`].
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is zero.
    ///
    /// [`sample_block`]: Self::sample_block
    pub fn sample_block_prefix<R: Rng + Clone>(&self, rng: &mut R, prefix: usize) -> BlockTimeline {
        assert!(prefix > 0, "a prefix keeps at least one event");
        self.sample_prefix_with(rng, &mut SelectScratch::new(self.block_bits), prefix)
    }

    /// Samples the fault timeline of a page of `blocks_per_page` data
    /// blocks: the same stream as `blocks_per_page` successive
    /// [`sample_block`](Self::sample_block) calls.
    pub fn sample_page<R: Rng + Clone>(&self, rng: &mut R, blocks_per_page: usize) -> PageTimeline {
        let mut scratch = SelectScratch::new(self.block_bits);
        PageTimeline {
            blocks: (0..blocks_per_page)
                .map(|_| self.sample_block_with(rng, &mut scratch))
                .collect(),
        }
    }

    /// [`sample_block`](Self::sample_block) on a caller-held scratch, so a
    /// worker sampling many blocks allocates its candidate buffer once.
    pub(crate) fn sample_block_with<R: Rng + Clone>(
        &self,
        rng: &mut R,
        scratch: &mut SelectScratch,
    ) -> BlockTimeline {
        self.sample_prefix_with(rng, scratch, self.max_events)
    }

    /// [`sample_block_prefix`](Self::sample_block_prefix) on a caller-held
    /// scratch: the one block kernel.
    pub(crate) fn sample_prefix_with<R: Rng + Clone>(
        &self,
        rng: &mut R,
        scratch: &mut SelectScratch,
        prefix: usize,
    ) -> BlockTimeline {
        debug_assert!(prefix > 0, "a prefix keeps at least one event");
        self.select(rng, scratch, prefix.min(self.max_events));
        // A cell sticks at whatever it held when it died; under random
        // write data that is a fair coin (bias configurable via
        // `with_stuck_bias`). The kind draw is gated on the mix being
        // enabled so a zero-fraction sampler consumes exactly the legacy
        // entropy (stuck value, then split seed).
        let stuck_one = Bernoulli::new(self.stuck_one_probability);
        let partial = (self.partial_fraction > 0.0).then(|| Bernoulli::new(self.partial_fraction));
        let draw = |rng: &mut R| {
            let stuck = stuck_one.sample(rng);
            let weak = partial.is_some_and(|partial| partial.sample(rng));
            (stuck, weak, rng.random::<u64>())
        };
        let events = scratch
            .keys
            .iter()
            .map(|&key| {
                let (time, offset) = unpack(key);
                let (stuck, weak, split_seed) = draw(rng);
                let fault = if weak {
                    Fault::partial(offset, stuck, self.weak_success_q8)
                } else {
                    Fault::new(offset, stuck)
                };
                FaultEvent {
                    time,
                    fault,
                    split_seed,
                }
            })
            .collect();
        // The events past the prefix draw what they would have drawn.
        for _ in scratch.keys.len()..self.max_events {
            draw(rng);
        }
        BlockTimeline { events }
    }

    /// Leaves the keys of the block's `keep` earliest failures in
    /// `scratch.keys`, ascending, with `rng` past every lifetime draw of
    /// the block; says which path found them. `keep` is at most
    /// `max_events`.
    fn select<R: Rng + Clone>(
        &self,
        rng: &mut R,
        scratch: &mut SelectScratch,
        keep: usize,
    ) -> Selection {
        let keys = &mut scratch.keys;
        keys.clear();
        let mut selection = Selection::Ungated;
        // A gate built for `k` events serves any `keep ≤ k`: it only fixes
        // a time that enough cells fail before.
        let gate = if keep <= PREFIX_EVENTS {
            &self.prefix_gate
        } else {
            &self.gate
        };
        if let Some(gate) = gate {
            let start = rng.clone();
            for offset in 0..self.block_bits {
                let (u1, u2) = lifetime::uniform_pair(rng);
                if gate.skips(u1, u2) {
                    continue;
                }
                let time = self.fault_time(rng, u1, u2);
                if time < gate.time {
                    keys.push(pack(time, offset));
                }
            }
            if keys.len() >= keep {
                keep_first(keys, keep);
                return Selection::Gated;
            }
            *rng = start;
            keys.clear();
            selection = Selection::Fallback;
        }
        for offset in 0..self.block_bits {
            let (u1, u2) = lifetime::uniform_pair(rng);
            keys.push(pack(self.fault_time(rng, u1, u2), offset));
        }
        keep_first(keys, keep);
        selection
    }

    /// Fault time of the cell whose uniforms are `(u1, u2)`. A
    /// non-positive draw is resampled from fresh uniforms, exactly as
    /// `LifetimeModel::sample` would have.
    fn fault_time<R: Rng + ?Sized>(&self, rng: &mut R, u1: f64, u2: f64) -> f64 {
        let draw = self.lifetime.draw(u1, u2);
        let life = if draw > 0.0 {
            draw
        } else {
            self.lifetime.sample(rng)
        };
        self.wear.fault_time(life)
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

/// The candidate buffer of the select-k block kernel, reused across the
/// blocks of a page or of a worker's block trials.
///
/// Every cell's uniforms are drawn in offset order, as
/// [`LifetimeModel::sample`] would draw them, and each candidate is held
/// as one integer key: the fault time's bits above the offset. Fault times
/// are positive, and positive `f64`s order as their bits, so the keys
/// order exactly as `(time, offset)` and select and sort without a
/// comparison closure.
///
/// The sampler's rank gate (see `Gate`) fixes a fault time `T` that at
/// least `max_events` of a block's cells fail before, bar a 4σ binomial
/// tail. A cell whose uniforms the gate skips certainly draws a positive
/// lifetime, so consumes no resample, and fails at or after `T`; it is
/// never evaluated. Every other cell is evaluated in stream order,
/// resample draws included, and becomes a candidate if it fails strictly
/// before `T`. If at least `max_events` candidates do, every cell left
/// out sorts after all of them under `(time, offset)`, so the kept events
/// are exactly the sort-everything sampler's. Otherwise — a block in the
/// tail — the RNG is restored to the block's start and every cell is
/// evaluated. Either way the kept events and the RNG state afterwards are
/// bit-identical to sorting every cell.
pub(crate) struct SelectScratch {
    /// Candidate keys: see [`pack`].
    keys: Vec<u128>,
}

impl SelectScratch {
    /// A scratch for blocks of `block_bits` cells.
    pub(crate) fn new(block_bits: usize) -> Self {
        Self {
            keys: Vec::with_capacity(block_bits),
        }
    }
}

/// Which path [`TimelineSampler::select`] took for a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selection {
    /// The sampler has no gate: every cell was evaluated once.
    Ungated,
    /// The gate held: only the cells it admitted were evaluated.
    Gated,
    /// Too few admitted cells failed before the gate's time: the block
    /// was replayed and every cell evaluated.
    Fallback,
}

/// The candidate key of a cell with positive fault time `time`.
fn pack(time: f64, offset: usize) -> u128 {
    debug_assert!(time > 0.0, "fault times are positive");
    (u128::from(time.to_bits()) << 64) | offset as u128
}

/// The `(time, offset)` a [`pack`]ed key holds.
fn unpack(key: u128) -> (f64, usize) {
    #[allow(clippy::cast_possible_truncation)]
    (f64::from_bits((key >> 64) as u64), key as u64 as usize)
}

/// Keeps the `k` least keys, ascending.
fn keep_first(keys: &mut Vec<u128>, k: usize) {
    if keys.len() > k {
        keys.select_nth_unstable(k - 1);
        keys.truncate(k);
    }
    keys.sort_unstable();
}

/// Buckets of the gate table over the first uniform `u1 ∈ (0, 1]`.
const GATE_BUCKETS: usize = 64;

/// How far below its mean, in binomial standard deviations, a block's
/// count of cells failing before the gate's time must fall before the
/// block needs the fallback.
const GATE_SIGMAS: f64 = 4.0;

/// Absolute margin on the cosine bound, and relative margin on the radius
/// bounds, of the gate table: about seven orders of magnitude above the
/// rounding error of `ln`, `sqrt`, `cos`, `acos` and the products that
/// evaluate a variate.
const GATE_MARGIN: f64 = 1e-9;

/// The rank gate of a [`TimelineSampler`]: which cells the select-k
/// kernel may skip without evaluating their lifetimes.
///
/// A cell's Box–Muller variate is `z = r · cos(2π·u2)` with
/// `r = sqrt(−2 ln u1)`. The gate picks the variate `z*` below which a
/// block's cells fall with probability `p`, where `p` puts `max_events`
/// [`GATE_SIGMAS`] binomial deviations below the expected count
/// `block_bits · p`
/// (`p` is a share of the *positive* draws: non-positive draws are
/// resampled, so they shift the law of the kept lifetimes). Its `time` is
/// the fault time of `z*`, rounded as a cell's draw is, so by monotone
/// rounding every cell whose computed variate is `≥ z*` fails at or after
/// it, and (`at(z*)` being positive) draws a positive lifetime on its
/// first pair.
///
/// The table bounds `z` from below without evaluating it. Bucket `j`
/// holds the cells with `⌊64·u1⌋ = j`, over which `r` lies between the
/// bucket's edge radii. A cell is skipped iff `|u2 − ½| ≥ min_offset[j]`,
/// which is `cos(2π·u2) ≥ c_j` for the cosine `c_j` that makes
/// `r · cos ≥ z*` over the whole radius range: `z*/r_max` if `z* < 0`,
/// `z*/r_min` if `z* > 0`, padded by [`GATE_MARGIN`] on the cosine and on
/// both radii.
#[derive(Clone, Copy)]
struct Gate {
    /// Fault time of `z*`: a skipped cell fails at or after it.
    time: f64,
    /// Per `u1` bucket, the least `|u2 − ½|` of a skipped cell (`∞` where
    /// the bucket skips none).
    min_offset: [f64; GATE_BUCKETS],
}

impl fmt::Debug for Gate {
    /// The table is a function of the sampler's other fields, so only the
    /// gate's time is shown.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate").field("time", &self.time).finish()
    }
}

impl Gate {
    /// The gate for blocks of `block_bits` cells keeping `max_events`, or
    /// `None` where it could skip no cell.
    fn new(
        block_bits: usize,
        max_events: usize,
        lifetime: LifetimeModel,
        wear: WearModel,
    ) -> Option<Self> {
        if lifetime.std_dev() == 0.0 || max_events >= block_bits {
            return None;
        }
        let z = gate_variate(
            block_bits as f64,
            max_events as f64,
            -lifetime.mean() / lifetime.std_dev(),
        );
        let life = lifetime.at(z);
        if life <= 0.0 {
            return None;
        }
        // `abs` turns the −0 of `u1 = 1` into +0, so `z/r_min` is +∞ there.
        let radius = |u1: f64| (-2.0 * u1.ln()).abs().sqrt();
        let min_offset = std::array::from_fn(|j| {
            let r_max = radius(j as f64 / GATE_BUCKETS as f64) * (1.0 + GATE_MARGIN);
            let r_min = radius((j + 1) as f64 / GATE_BUCKETS as f64) * (1.0 - GATE_MARGIN);
            let cosine = if z < 0.0 {
                z / r_max
            } else if z > 0.0 {
                z / r_min
            } else {
                0.0
            } + GATE_MARGIN;
            if cosine > 1.0 {
                f64::INFINITY
            } else if cosine <= -1.0 {
                0.0
            } else {
                // cos(2π·u2) = −cos(2π·|u2 − ½|), decreasing in |u2 − ½|.
                (-cosine).acos() / std::f64::consts::TAU + GATE_MARGIN
            }
        });
        let gate = Self {
            time: wear.fault_time(life),
            min_offset,
        };
        gate.min_offset.iter().any(|&m| m <= 0.5).then_some(gate)
    }

    /// Whether the cell with uniforms `(u1, u2)` certainly fails at or
    /// after [`time`](Self::time) on its first draw.
    #[inline]
    fn skips(&self, u1: f64, u2: f64) -> bool {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bucket = ((u1 * GATE_BUCKETS as f64) as usize).min(GATE_BUCKETS - 1);
        (u2 - 0.5).abs() >= self.min_offset[bucket]
    }
}

/// The gate variate `z*` for `n` cells keeping `k`, when variates at or
/// below `floor` are resampled: the least `z` whose share `p` of the
/// positive draws has `n·p − GATE_SIGMAS·sqrt(n·p·(1 − p)) ≥ k`. That
/// expression dips below zero and then rises to `n > k`, so bisection
/// finds its one upward crossing.
fn gate_variate(n: f64, k: f64, floor: f64) -> f64 {
    let below_floor = normal_cdf(floor);
    let enough = |z: f64| {
        let p = ((normal_cdf(z) - below_floor) / (1.0 - below_floor)).clamp(0.0, 1.0);
        n * p - GATE_SIGMAS * (n * p * (1.0 - p)).sqrt() >= k
    };
    let (mut lo, mut hi) = (floor.max(-40.0), 40.0);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if enough(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The standard normal CDF, to a relative error of about 1e-7 (the
/// Chebyshev fit of `erfc` from *Numerical Recipes*). The gate's exactness
/// does not rest on it: an error here only moves the fallback rate.
fn normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.5 * (x / std::f64::consts::SQRT_2).abs());
    let poly = [
        -1.265_512_23,
        1.000_023_68,
        0.374_091_96,
        0.096_784_18,
        -0.186_288_06,
        0.278_868_07,
        -1.135_203_98,
        1.488_515_87,
        -0.822_152_23,
        0.170_872_77,
    ]
    .iter()
    .rev()
    .fold(0.0, |acc, &c| c + t * acc);
    let y = x / std::f64::consts::SQRT_2;
    let erfc = t * (-y * y + poly).exp();
    if x >= 0.0 {
        1.0 - 0.5 * erfc
    } else {
        0.5 * erfc
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
        // With zero spread every cell fails at the same instant, so the
        // sampler has no gate: the kernel evaluates every cell and breaks
        // the tie by offset.
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

    /// Paper-width samplers at the three spreads the gate must survive:
    /// the paper's, a wide one, and one whose resample bound (`z ≤ −0.1`)
    /// lies inside the gate's admitted range.
    fn gated_samplers() -> Vec<TimelineSampler> {
        let mut samplers = Vec::new();
        for bits in [256, 512] {
            for cv in [0.25, 1.0, 10.0] {
                samplers.push(TimelineSampler::new(
                    bits,
                    LifetimeModel::new(1.0e8, cv),
                    WearModel::paper_default(),
                    DEFAULT_MAX_EVENTS_PER_BLOCK,
                ));
            }
        }
        samplers
    }

    #[test]
    fn gate_skips_only_cells_that_fail_at_or_after_its_time() {
        let mut random = SmallRng::seed_from_u64(27);
        let gates = gated_samplers().into_iter().flat_map(|sampler| {
            [
                (sampler, sampler.gate, sampler.max_events),
                (sampler, sampler.prefix_gate, PREFIX_EVENTS),
            ]
        });
        for (sampler, gate, keep) in gates {
            let gate = gate.expect("paper widths are gated");
            let z = gate_variate(
                sampler.block_bits as f64,
                keep as f64,
                -sampler.lifetime.mean() / sampler.lifetime.std_dev(),
            );
            let mut skipped = 0usize;
            let mut check = |u1: f64, u2: f64| {
                let valid = u1 > 0.0 && u1 <= 1.0 && (0.0..1.0).contains(&u2);
                if !(valid && gate.skips(u1, u2)) {
                    return;
                }
                skipped += 1;
                let draw = sampler.lifetime.draw(u1, u2);
                let at = format!("{sampler:?}: u1 {u1:e}, u2 {u2:e}");
                assert!(lifetime::box_muller(u1, u2) >= z, "variate below z*, {at}");
                assert!(draw > 0.0, "skipped cell would resample, {at}");
                assert!(
                    sampler.wear.fault_time(draw) >= gate.time,
                    "early skip, {at}"
                );
            };
            // Every bucket's edges and their f64 neighbours, against the
            // bucket's u2 threshold and its neighbours on both sides of ½.
            for (j, &offset) in gate.min_offset.iter().enumerate() {
                let lo = j as f64 / GATE_BUCKETS as f64;
                let hi = (j + 1) as f64 / GATE_BUCKETS as f64;
                let u1s = [lo, lo.next_up(), hi.next_down(), hi];
                let edges = [0.5 - offset, 0.5 + offset, 0.0, 1.0_f64.next_down()];
                for u1 in u1s {
                    for edge in edges {
                        for u2 in [edge.next_down(), edge, edge.next_up()] {
                            check(u1, u2);
                        }
                    }
                }
            }
            for _ in 0..170_000 {
                let (u1, u2) = lifetime::uniform_pair(&mut random);
                check(u1, u2);
            }
            assert!(
                skipped > 30_000,
                "{sampler:?}, {keep} kept: skipped only {skipped}"
            );
        }
    }

    #[test]
    fn gated_and_fallback_blocks_match_the_ungated_kernel() {
        // `(block_bits, cv, keep, trial)`: keeping `keep` events, trial
        // `trial` of seed 1 has too few admitted cells before the gate's
        // time and falls back; the trials before it hold the gate. The
        // last three pins are the prefix gate's.
        let pins = [
            (512, 0.25, DEFAULT_MAX_EVENTS_PER_BLOCK, 6_205),
            (256, 0.25, DEFAULT_MAX_EVENTS_PER_BLOCK, 146_523),
            (512, 10.0, DEFAULT_MAX_EVENTS_PER_BLOCK, 68_052),
            (512, 0.25, PREFIX_EVENTS, 239_976),
            (256, 0.25, PREFIX_EVENTS, 428_741),
            (512, 10.0, PREFIX_EVENTS, 192_079),
        ];
        for (bits, cv, keep, fallback) in pins {
            let gated = TimelineSampler::new(
                bits,
                LifetimeModel::new(1.0e8, cv),
                WearModel::paper_default(),
                DEFAULT_MAX_EVENTS_PER_BLOCK,
            );
            let ungated = TimelineSampler {
                gate: None,
                prefix_gate: None,
                ..gated
            };
            let mut scratch = SelectScratch::new(bits);
            let mut reference = SelectScratch::new(bits);
            let (mut held, mut fell_back) = (0, 0);
            for trial in fallback - 16..=fallback {
                let at = format!("{bits} bits, {keep} kept, trial {trial}");
                let mut rng = TimelineSampler::page_rng(1, trial);
                let mut want_rng = rng.clone();
                let selection = gated.select(&mut rng, &mut scratch, keep);
                assert_eq!(
                    ungated.select(&mut want_rng, &mut reference, keep),
                    Selection::Ungated
                );
                assert_eq!(scratch.keys, reference.keys, "{at}");
                assert_eq!(rng, want_rng, "{at}");
                match selection {
                    Selection::Gated => held += 1,
                    Selection::Fallback => fell_back += 1,
                    Selection::Ungated => unreachable!("paper widths are gated"),
                }
                if trial == fallback {
                    assert_eq!(selection, Selection::Fallback, "{at}");
                }
            }
            assert!(
                held > 0 && fell_back > 0,
                "{bits} bits, {keep} kept: {held} held, {fell_back} fell back"
            );
        }
    }

    #[test]
    fn degenerate_samplers_are_ungated() {
        let zero_spread = TimelineSampler::new(
            512,
            LifetimeModel::new(1000.0, 0.0),
            WearModel::paper_default(),
            96,
        );
        let keeps_all = TimelineSampler::new(
            64,
            LifetimeModel::paper_default(),
            WearModel::paper_default(),
            64,
        );
        assert!(zero_spread.gate.is_none());
        assert!(keeps_all.gate.is_none());
        assert!(TimelineSampler::paper_default(512).gate.is_some());
    }
}
