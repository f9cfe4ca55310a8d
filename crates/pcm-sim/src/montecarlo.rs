//! Event-driven Monte Carlo engine.
//!
//! Reproduces the paper's §3.1 methodology: a chip of 4 KB pages, each made
//! of 128–512-bit data blocks, written continuously under perfect wear
//! leveling until every page is dead. Instead of issuing ~10^11 writes, the
//! engine samples per-page fault [timelines](crate::timeline) and asks a
//! scheme's [`RecoveryPolicy`] whether each fault arrival is survivable.
//!
//! The key outputs map one-to-one onto the paper's figures:
//!
//! - [`MemoryRun::mean_faults_recovered`] → Figure 5 / 11 bars;
//! - [`MemoryRun::lifetime_improvement`] → Figure 6 / 12 bars
//!   (and ÷ overhead bits → Figures 7 / 13);
//! - [`block_failure_cdfs`] → Figure 8 curves;
//! - [`survival_curve`] / [`half_lifetime`] → Figure 9 curves.

use crate::fault::extend_split_for;
use crate::policy::{PolicyScratch, RecoveryPolicy};
use crate::timeline::{
    BlockTimeline, FaultEvent, PageTimeline, SelectScratch, TimelineCache, TimelineSampler,
};
use crate::Fault;
use sim_rng::SeedableRng;
use sim_rng::SmallRng;
use sim_telemetry::{
    metric_name, Counter, Histogram, PoolWorkerUtil, Registry, StatusWriter, Tracer, WorkerTracer,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// When is a block considered dead? (See DESIGN.md §3.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCriterion {
    /// At each fault arrival, test the scheme against `samples` random W/R
    /// splits (the split of the revealing write, plus optional extra draws
    /// standing in for nearby writes). `samples = 1` matches the
    /// evaluation style of the SAFER/RDIS/Aegis papers.
    PerEventSplit {
        /// Random splits tested per fault event; the block dies if any
        /// fails.
        samples: u32,
    },
    /// A block survives only while its fault set is recoverable for *every*
    /// data word ([`RecoveryPolicy::guaranteed`]). Stricter; used in
    /// ablations.
    GuaranteedAllData,
}

impl Default for FailureCriterion {
    fn default() -> Self {
        Self::PerEventSplit { samples: 1 }
    }
}

/// The criterion's one label, `per-event-split:<samples>` or
/// `guaranteed-all-data`: run manifests, checkpoint fingerprints and
/// forensics reports record it, and [`FromStr`](std::str::FromStr) parses
/// it back.
impl std::fmt::Display for FailureCriterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PerEventSplit { samples } => write!(f, "{SPLIT_LABEL}{samples}"),
            Self::GuaranteedAllData => f.write_str(GUARANTEED_LABEL),
        }
    }
}

impl std::str::FromStr for FailureCriterion {
    type Err = String;

    /// Parses a criterion's [`Display`](std::fmt::Display) label.
    fn from_str(label: &str) -> Result<Self, String> {
        if label == GUARANTEED_LABEL {
            return Ok(Self::GuaranteedAllData);
        }
        label
            .strip_prefix(SPLIT_LABEL)
            .and_then(|samples| samples.parse().ok())
            .map(|samples| Self::PerEventSplit { samples })
            .ok_or_else(|| format!("malformed failure criterion '{label}'"))
    }
}

/// Label prefix of [`FailureCriterion::PerEventSplit`].
const SPLIT_LABEL: &str = "per-event-split:";
/// Label of [`FailureCriterion::GuaranteedAllData`].
const GUARANTEED_LABEL: &str = "guaranteed-all-data";

/// Telemetry handles for the Monte Carlo layer, named
/// `mc.<scheme>.<metric>`. All handles are no-ops when built from a
/// disabled registry, so the engine's hot path stays unchanged.
#[derive(Clone, Default)]
pub struct McTelemetry {
    pages: Counter,
    fault_events: Counter,
    policy_decisions: Counter,
    block_deaths_split: Counter,
    block_deaths_guarantee: Counter,
    blocks_outlived: Counter,
    page_fault_arrivals: Histogram,
    page_lifetime_writes: Histogram,
    /// Pages executed beyond a worker's fair static share
    /// (`pool.<scheme>.pages_stolen`). Scheduling-dependent, so registered
    /// as a *volatile* counter: present in the JSONL stream but excluded
    /// from the deterministic byte-identity contract.
    pool_pages_stolen: Counter,
    /// Batch pulls from the pool's shared counter
    /// (`pool.<scheme>.worker_batches`). Volatile, like `pool_pages_stolen`.
    pool_worker_batches: Counter,
}

impl McTelemetry {
    /// Handles for `scheme` in `registry`.
    #[must_use]
    pub fn for_scheme(registry: &Registry, scheme: &str) -> McTelemetry {
        let counter = |metric: &str| registry.counter(&metric_name("mc", scheme, metric));
        let histogram = |metric: &str| registry.histogram(&metric_name("mc", scheme, metric));
        let volatile =
            |metric: &str| registry.volatile_counter(&metric_name("pool", scheme, metric));
        McTelemetry {
            pages: counter("pages"),
            fault_events: counter("fault_events"),
            policy_decisions: counter("policy_decisions"),
            block_deaths_split: counter("block_deaths_split"),
            block_deaths_guarantee: counter("block_deaths_guarantee"),
            blocks_outlived: counter("blocks_outlived"),
            page_fault_arrivals: histogram("page_fault_arrivals"),
            page_lifetime_writes: histogram("page_lifetime_writes"),
            pool_pages_stolen: volatile("pages_stolen"),
            pool_worker_batches: volatile("worker_batches"),
        }
    }

    /// Feeds one pool run's scheduling statistics into the volatile
    /// `pool.<scheme>.*` counters.
    fn record_pool(&self, stats: &sim_pool::PoolStats) {
        self.pool_pages_stolen.add(stats.stolen);
        self.pool_worker_batches.add(stats.batches);
    }
}

/// Progress callback of a page-major pass: `(policy index, pages_done,
/// pages_total)`, called once per policy as each page completes. Called
/// from worker threads, so implementations must be `Sync`; page completion
/// order is nondeterministic but every policy's final call reports
/// `(total, total)`.
pub type PassProgressFn<'a> = dyn Fn(usize, usize, usize) + Sync + 'a;

/// Optional observation hooks for a chip run ([`run_memory_pass`],
/// [`map_pages`]); the default observes nothing and adds no work. The
/// hooks never influence the simulation: results are byte-identical with
/// hooks on or off (telemetry totals are order-independent sums).
#[derive(Default, Clone, Copy)]
pub struct PassHooks<'a> {
    /// Metric handles, one per policy in policy order; empty observes
    /// nothing.
    pub telemetry: &'a [McTelemetry],
    /// Called once per policy after each page completes.
    pub progress: Option<&'a PassProgressFn<'a>>,
    /// Wall-clock span collector. When enabled, the pass opens a phase
    /// span — `mc.<scheme>` for one policy, `mc.<first scheme> +<others>`
    /// for several — and each worker records a `page` span per page into
    /// its private ring. With several policies every `page` span gets one
    /// `mc.<scheme>` child per policy holding that policy's share of the
    /// page, so profiles still attribute time per scheme. Per-worker pool
    /// utilization is captured under the phase name. All of it lands on
    /// the volatile trace sidecar, never the deterministic stream.
    pub tracer: Option<&'a Tracer>,
    /// Live heartbeat sink. When enabled, the pass enters a phase named
    /// like its trace span, reports each completed page once per policy as
    /// phase progress (rate-limited rewrites of `<run-id>.status.json`),
    /// and records the pool's worker busy fraction — pure liveness,
    /// outside the determinism contract.
    pub status: Option<&'a StatusWriter>,
    /// Prefilled page-timeline cache. When set, workers fetch pages
    /// through [`TimelineCache::get_or_sample`] instead of sampling them.
    /// The benchmark harness is the only caller: it prefills a cache to
    /// time sampling apart from evaluation. ROADMAP item 1 removes it.
    /// Results are byte-identical with the cache on or off.
    pub timelines: Option<&'a TimelineCache>,
}

/// Outcome of running one policy over one block timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockOutcome {
    /// Fault events survived before death (= faults recovered in this
    /// block).
    pub events_survived: usize,
    /// Time of death in block writes; `None` if the block outlived its
    /// (truncated) timeline.
    pub death_time: Option<f64>,
}

/// Evaluates `policy` over a single block's fault timeline.
pub fn evaluate_block(
    policy: &dyn RecoveryPolicy,
    timeline: &BlockTimeline,
    criterion: FailureCriterion,
) -> BlockOutcome {
    evaluate_block_with_scratch(policy, timeline, criterion, None, &mut PolicyScratch::new())
}

/// [`evaluate_block`] with optional telemetry, reusing a caller-provided
/// [`PolicyScratch`]. Telemetry counts fault events seen, every
/// policy-predicate invocation, and the block's fate (death under which
/// criterion, or outliving its timeline).
///
/// This is the engine's steady-state form: the fault population, the
/// block's W/R split tape, and the policy's working buffers all live in
/// the arena, so evaluating a block allocates nothing after the arena warms
/// up. Results are identical to the allocating form — split sampling
/// consumes the same entropy and policies must decide identically with or
/// without scratch.
pub fn evaluate_block_with_scratch(
    policy: &dyn RecoveryPolicy,
    timeline: &BlockTimeline,
    criterion: FailureCriterion,
    telemetry: Option<&McTelemetry>,
    scratch: &mut PolicyScratch,
) -> BlockOutcome {
    let mut tape = std::mem::take(&mut scratch.tape);
    tape.reset();
    let outcome = finish_block(
        policy,
        &timeline.events,
        criterion,
        telemetry,
        scratch,
        &mut tape,
    );
    scratch.tape = tape;
    outcome
}

/// Outcome of one policy over one page timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageOutcome {
    /// Page death time in page writes (a page write is one write to each of
    /// its blocks): the earliest block death.
    pub death_time: f64,
    /// Fault events (across all blocks) that arrived strictly before death
    /// — the paper's "recoverable faults in a 4KB page".
    pub faults_recovered: usize,
    /// True if some block outlived its truncated timeline, making
    /// `death_time` a lower bound. Should never happen with the default
    /// event cap; surfaced loudly rather than silently.
    pub capped: bool,
}

/// A page's block outcomes folded so far.
#[derive(Debug, Clone, Copy)]
struct PageFold {
    /// Earliest block death.
    death_time: f64,
    /// Whether some block outlived its truncated timeline.
    outlived: bool,
}

impl PageFold {
    /// No block folded yet.
    const OPEN: Self = Self {
        death_time: f64::INFINITY,
        outlived: false,
    };

    fn add(&mut self, outcome: BlockOutcome) {
        match outcome.death_time {
            Some(t) => self.death_time = self.death_time.min(t),
            None => self.outlived = true,
        }
    }

    /// The page's outcome once every block is folded in; records the
    /// page-level telemetry.
    fn close(self, page: &PageTimeline, telemetry: Option<&McTelemetry>) -> PageOutcome {
        let death_time = self.death_time;
        // A block that outlived its truncated timeline only matters if it
        // could have died before the earliest real death; its last tracked
        // event is a lower bound witness.
        let capped = self.outlived
            && page
                .blocks
                .iter()
                .any(|b| b.events.last().is_some_and(|e| e.time < death_time));
        // Each block's events are in ascending time order, so the ones
        // before the death form a prefix.
        let faults_recovered = page
            .blocks
            .iter()
            .map(|b| b.events.partition_point(|e| e.time < death_time))
            .sum();
        if let Some(t) = telemetry {
            t.pages.incr();
            let arrivals = page.blocks.iter().map(|b| b.events.len()).sum::<usize>();
            t.page_fault_arrivals.record(arrivals as u64);
            if death_time.is_finite() && death_time >= 0.0 {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                t.page_lifetime_writes.record(death_time as u64);
            }
        }
        PageOutcome {
            death_time,
            faults_recovered,
            capped,
        }
    }
}

/// Always `1`: the engine walks every block through one per-event body
/// and has no lane width.
///
/// A benchmark-harness shim: it survives only because `perfbench/` still
/// writes it into its provenance line, and goes once the benchmark stops
/// calling it.
#[must_use]
pub fn eval_lanes() -> usize {
    1
}

/// The W/R splits of one block's fault events, drawn once and read back by
/// every policy evaluated on the block.
///
/// Event `j`'s `samples` splits are a pure function of its
/// [`FaultEvent::split_seed`] and of the population `events[..=j]`, so
/// they are the same for every policy that reaches the event. The first
/// policy to reach it draws them; later policies read the same bits.
/// Every policy walks the events in order, so the tape only ever grows at
/// its end. [`reset`](Self::reset) it before each block.
#[derive(Debug, Default)]
pub(crate) struct SplitTape {
    /// Events `0..drawn` of the current block have their splits on the
    /// tape.
    drawn: usize,
    /// Event-major splits: event `j` holds `samples` splits of `j + 1`
    /// entries each, starting at `samples · j(j+1)/2`.
    bits: Vec<bool>,
}

impl SplitTape {
    /// Starts a new block: forgets every drawn split, keeps the buffer.
    fn reset(&mut self) {
        self.drawn = 0;
        self.bits.clear();
    }

    /// The `samples` splits of the event whose arrival made the population
    /// `faults` (event `faults.len() - 1`), drawn from `split_seed` if no
    /// policy reached that event before.
    pub(crate) fn splits(&mut self, split_seed: u64, faults: &[Fault], samples: usize) -> &[bool] {
        let j = faults.len() - 1;
        if j == self.drawn {
            let mut rng = SmallRng::seed_from_u64(split_seed);
            for _ in 0..samples {
                // Fault-aware sampling: fully stuck faults consume exactly
                // one bool (identical stream to the legacy count-based
                // sampler), partially stuck faults get their weak-write
                // chance to land on R.
                extend_split_for(&mut rng, faults, &mut self.bits);
            }
            self.drawn += 1;
        }
        debug_assert!(
            j < self.drawn,
            "event {j} reached before event {}",
            self.drawn
        );
        let start = samples * (j * (j + 1) / 2);
        &self.bits[start..start + samples * faults.len()]
    }
}

/// Advances one policy by one fault event; returns whether the block
/// survived it. This is the engine's one per-event body: single blocks,
/// page-major passes and block trials all run it.
fn step_lane(
    policy: &dyn RecoveryPolicy,
    event: &FaultEvent,
    criterion: FailureCriterion,
    scratch: &mut PolicyScratch,
    tape: &mut SplitTape,
    decisions: &mut u64,
) -> bool {
    // Detach the driver-owned fault buffer so the policy can borrow the
    // arena's own fields (`flags`, `bytes`, `counts`) mutably during the
    // decision. The guarantee branch hands the whole arena to the policy,
    // which may enumerate splits out of `scratch.split` itself.
    let mut faults: Vec<Fault> = std::mem::take(&mut scratch.faults);
    faults.push(event.fault);
    // Let the policy extend its incremental pair state with the new
    // arrival before the split checks for this population run.
    policy.observe_fault(&faults, scratch);
    let survivable = match criterion {
        FailureCriterion::PerEventSplit { samples } => tape
            .splits(event.split_seed, &faults, samples as usize)
            .chunks_exact(faults.len())
            .all(|wrong| {
                *decisions += 1;
                policy.recoverable_with(&faults, wrong, scratch)
            }),
        FailureCriterion::GuaranteedAllData => {
            *decisions += 1;
            policy.guaranteed_with(&faults, scratch)
        }
    };
    scratch.faults = faults;
    survivable
}

/// Whether `policy` survives the write that made its block's population
/// `faults`, judged as the engine judges a fault event: `samples` W/R
/// splits of `faults` drawn from `split_seed` (or the guarantee), each
/// decided by [`RecoveryPolicy::recoverable_with`] on `scratch`. The
/// splits are drawn afresh, so a driver that edits a population (and calls
/// [`RecoveryPolicy::forget_block`] when it does) judges it here.
pub fn survives(
    policy: &dyn RecoveryPolicy,
    faults: &[Fault],
    split_seed: u64,
    criterion: FailureCriterion,
    scratch: &mut PolicyScratch,
) -> bool {
    judge_event(policy, faults, split_seed, criterion, scratch, |_, _| {})
}

/// The engine's event judge: `samples` W/R splits of `faults` drawn from
/// `split_seed`, the draws a [`SplitTape`] makes for the event, each
/// decided by [`RecoveryPolicy::recoverable_with`] on `scratch` until one
/// fails; or, under [`FailureCriterion::GuaranteedAllData`],
/// [`RecoveryPolicy::guaranteed_with`]. `on_split(wrong, verdict)` sees
/// every decided split in order, and an empty `wrong` for the guarantee.
pub(crate) fn judge_event(
    policy: &dyn RecoveryPolicy,
    faults: &[Fault],
    split_seed: u64,
    criterion: FailureCriterion,
    scratch: &mut PolicyScratch,
    mut on_split: impl FnMut(&[bool], bool),
) -> bool {
    let FailureCriterion::PerEventSplit { samples } = criterion else {
        let verdict = policy.guaranteed_with(faults, scratch);
        on_split(&[], verdict);
        return verdict;
    };
    let mut rng = SmallRng::seed_from_u64(split_seed);
    let mut wrong = std::mem::take(&mut scratch.split);
    let verdict = (0..samples).all(|_| {
        crate::fault::sample_split_for_into(&mut rng, faults, &mut wrong);
        let recoverable = policy.recoverable_with(faults, &wrong, scratch);
        on_split(&wrong, recoverable);
        recoverable
    });
    scratch.split = wrong;
    verdict
}

/// Steps one policy through a block's events, from a clean arena, until it
/// dies or runs out of events, reading splits from `tape` (which holds
/// this block's splits so far, or none). Feeds the block's telemetry: fault
/// events seen, every predicate invocation, and the block's fate.
fn finish_block(
    policy: &dyn RecoveryPolicy,
    events: &[FaultEvent],
    criterion: FailureCriterion,
    telemetry: Option<&McTelemetry>,
    scratch: &mut PolicyScratch,
    tape: &mut SplitTape,
) -> BlockOutcome {
    scratch.faults.clear();
    // A new block begins: any incremental pair state in the arena is stale.
    policy.forget_block(scratch);
    let mut decisions = 0u64;
    let mut outcome = BlockOutcome {
        events_survived: events.len(),
        death_time: None,
    };
    for (i, event) in events.iter().enumerate() {
        if !step_lane(policy, event, criterion, scratch, tape, &mut decisions) {
            outcome = BlockOutcome {
                events_survived: i,
                death_time: Some(event.time),
            };
            break;
        }
    }
    if let Some(t) = telemetry {
        t.fault_events.add(scratch.faults.len() as u64);
        t.policy_decisions.add(decisions);
        match (outcome.death_time, criterion) {
            (None, _) => t.blocks_outlived.incr(),
            (Some(_), FailureCriterion::PerEventSplit { .. }) => t.block_deaths_split.incr(),
            (Some(_), FailureCriterion::GuaranteedAllData) => t.block_deaths_guarantee.incr(),
        }
    }
    outcome
}

/// Per-worker arena of a page-major pass: one [`PolicyScratch`] per
/// policy, the W/R split tape they share, and the page's per-policy
/// results. A warm arena evaluates further pages without allocating.
#[derive(Debug, Default)]
pub struct PageArena {
    scratches: Vec<PolicyScratch>,
    tape: SplitTape,
    folds: Vec<PageFold>,
    outcomes: Vec<PageOutcome>,
    /// Nanoseconds each policy spent on the current page (traced passes
    /// only).
    policy_ns: Vec<u64>,
}

impl PageArena {
    /// An empty arena; it grows to the pass's policy count on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-policy scratches to `policies`.
    fn fit(&mut self, policies: usize) {
        if self.scratches.len() < policies {
            self.scratches.resize_with(policies, PolicyScratch::new);
        }
    }

    /// Every policy's outcome on one block, in slice order, read off one
    /// shared tape: what [`evaluate_block`] yields for each alone.
    pub fn block_outcomes(
        &mut self,
        policies: &[&dyn RecoveryPolicy],
        block: &BlockTimeline,
        criterion: FailureCriterion,
    ) -> Vec<BlockOutcome> {
        self.fit(policies.len());
        self.tape.reset();
        policies
            .iter()
            .zip(&mut self.scratches)
            .map(|(&policy, scratch)| {
                finish_block(
                    policy,
                    &block.events,
                    criterion,
                    None,
                    scratch,
                    &mut self.tape,
                )
            })
            .collect()
    }
}

/// Evaluates every policy of `policies` over one page: the body of a
/// page-major pass.
///
/// The page is walked block by block. Each block resets the shared W/R
/// split tape — each event's splits drawn once, by the first policy to
/// reach the event — then every policy runs over it in slice order through
/// the engine's per-event body, on its own [`PolicyScratch`] and reading
/// the block's splits off the tape. Outcome `i`, and the `telemetry[i]`
/// counters when given, are exactly what [`evaluate_block_with_scratch`]
/// yields for `policies[i]` alone on each block, folded into the page's
/// earliest block death.
///
/// # Panics
///
/// Panics if `telemetry` is neither empty nor one handle per policy.
pub fn evaluate_page_pass<'a>(
    policies: &[&dyn RecoveryPolicy],
    page: &PageTimeline,
    criterion: FailureCriterion,
    telemetry: &[McTelemetry],
    arena: &'a mut PageArena,
) -> &'a [PageOutcome] {
    page_pass(policies, page, criterion, telemetry, arena, false)
}

/// [`evaluate_page_pass`], optionally timing each policy's share of the
/// page into `arena.policy_ns`.
fn page_pass<'a>(
    policies: &[&dyn RecoveryPolicy],
    page: &PageTimeline,
    criterion: FailureCriterion,
    telemetry: &[McTelemetry],
    arena: &'a mut PageArena,
    timed: bool,
) -> &'a [PageOutcome] {
    assert!(
        telemetry.is_empty() || telemetry.len() == policies.len(),
        "{} telemetry handles for {} policies",
        telemetry.len(),
        policies.len()
    );
    arena.fit(policies.len());
    let PageArena {
        scratches,
        tape,
        folds,
        outcomes,
        policy_ns,
    } = arena;
    folds.clear();
    folds.resize(policies.len(), PageFold::OPEN);
    policy_ns.clear();
    if timed {
        policy_ns.resize(policies.len(), 0);
    }
    for block in &page.blocks {
        tape.reset();
        for (i, (&policy, scratch)) in policies.iter().zip(scratches.iter_mut()).enumerate() {
            let started = timed.then(Instant::now);
            let outcome = finish_block(
                policy,
                &block.events,
                criterion,
                telemetry.get(i),
                scratch,
                tape,
            );
            if let Some(started) = started {
                #[allow(clippy::cast_possible_truncation)]
                {
                    policy_ns[i] += started.elapsed().as_nanos() as u64;
                }
            }
            folds[i].add(outcome);
        }
    }
    outcomes.clear();
    outcomes.extend(
        folds
            .iter()
            .enumerate()
            .map(|(i, fold)| fold.close(page, telemetry.get(i))),
    );
    outcomes
}

/// Configuration of a chip-level Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Pages simulated (the paper's 8 MB chip has 2048 pages of 4 KB).
    pub pages: usize,
    /// Bits per page (4 KB = 32768).
    pub page_bits: usize,
    /// Bits per protected data block (256 or 512 in the paper).
    pub block_bits: usize,
    /// Death criterion.
    pub criterion: FailureCriterion,
    /// Master seed; every policy evaluated with the same config sees the
    /// identical fault timelines.
    pub seed: u64,
    /// Worker threads; `None` defers to the `SIM_THREADS` environment
    /// variable and then to the machine's available parallelism (see
    /// [`sim_pool::resolve_threads`]). Never affects results, only wall
    /// clock.
    pub threads: Option<usize>,
    /// Fraction of dying cells that are only *partially* stuck (still able
    /// to store one value reliably); `0.0` is the classic all-fully-stuck
    /// model and leaves the RNG streams byte-identical to historical runs.
    /// Partially stuck cells carry the default weak-write success
    /// probability ([`crate::timeline::DEFAULT_WEAK_SUCCESS_Q8`]).
    pub partial_fraction: f64,
}

impl SimConfig {
    /// The paper's full-scale setup: 8 MB of 4 KB pages.
    #[must_use]
    pub fn paper_8mb(block_bits: usize, seed: u64) -> Self {
        Self {
            pages: 2048,
            page_bits: 4096 * 8,
            block_bits,
            criterion: FailureCriterion::default(),
            seed,
            threads: None,
            partial_fraction: 0.0,
        }
    }

    /// A scaled-down setup for quick runs and tests.
    #[must_use]
    pub fn scaled(pages: usize, block_bits: usize, seed: u64) -> Self {
        Self {
            pages,
            page_bits: 4096 * 8,
            block_bits,
            criterion: FailureCriterion::default(),
            seed,
            threads: None,
            partial_fraction: 0.0,
        }
    }

    /// Data blocks per page.
    ///
    /// # Panics
    ///
    /// Panics if the block width does not divide the page width.
    #[must_use]
    pub fn blocks_per_page(&self) -> usize {
        assert_eq!(
            self.page_bits % self.block_bits,
            0,
            "block width must divide page width"
        );
        self.page_bits / self.block_bits
    }
}

/// Results of a chip-level run of one policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryRun {
    /// Per-page death times under the policy, in page writes.
    pub page_lifetimes: Vec<f64>,
    /// Per-page death times without any protection (first cell failure).
    pub unprotected_lifetimes: Vec<f64>,
    /// Per-page recoverable-fault counts.
    pub faults_recovered: Vec<usize>,
    /// Pages whose death time was capped by timeline truncation (expected
    /// 0; a non-zero value means the event cap must be raised).
    pub capped_pages: usize,
}

impl MemoryRun {
    /// Mean recoverable faults per page (Figure 5 / 11 metric).
    #[must_use]
    pub fn mean_faults_recovered(&self) -> f64 {
        crate::stats::mean_usize(&self.faults_recovered)
    }

    /// Mean page lifetime in page writes.
    #[must_use]
    pub fn mean_lifetime(&self) -> f64 {
        crate::stats::mean(&self.page_lifetimes)
    }

    /// Mean unprotected page lifetime in page writes.
    #[must_use]
    pub fn mean_unprotected_lifetime(&self) -> f64 {
        crate::stats::mean(&self.unprotected_lifetimes)
    }

    /// Lifetime improvement factor over the unprotected page
    /// (Figure 6 metric; Figure 12 reports `(x − 1) · 100%`).
    #[must_use]
    pub fn lifetime_improvement(&self) -> f64 {
        self.mean_lifetime() / self.mean_unprotected_lifetime()
    }

    /// Streaming moments over per-page lifetimes, quantized to whole page
    /// writes (the same flooring the `page_lifetime_writes` histogram
    /// applies) so the accumulator keeps the exact integer power sums
    /// that make shard merges and resumed runs bit-identical. Non-finite
    /// death times (capped pages) are skipped, matching the histogram.
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn lifetime_moments(&self) -> sim_telemetry::Moments {
        let mut m = sim_telemetry::Moments::new();
        for &t in &self.page_lifetimes {
            if t.is_finite() && t >= 0.0 {
                m.push(t as u64);
            }
        }
        m
    }

    /// Streaming moments over per-page recoverable-fault counts
    /// (Figure 5 / 8 metric) — exact, the counts are integers already.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn faults_moments(&self) -> sim_telemetry::Moments {
        let mut m = sim_telemetry::Moments::new();
        for &f in &self.faults_recovered {
            m.push(f as u64);
        }
        m
    }
}

/// Runs `policy` over a simulated chip, in parallel across pages: the
/// one-policy [`run_memory_pass`] over every page, with no hooks.
///
/// Timelines are derived deterministically from `cfg.seed` and the page
/// index, so runs with different policies (or thread counts) see identical
/// randomness.
pub fn run_memory(policy: &dyn RecoveryPolicy, cfg: &SimConfig) -> MemoryRun {
    run_memory_pass(&[policy], cfg, 0, cfg.pages, &PassHooks::default())
        .pop()
        .expect("a pass returns one run per policy")
}

/// Runs every policy of `policies` over the global pages `start..end` of
/// one simulated chip in a single page-major pass, returning one
/// [`MemoryRun`] per policy in slice order.
///
/// [`map_pages`] hands each page to a worker once, and the worker judges
/// every policy on it with [`evaluate_page_pass`], so the policies share
/// the page's timeline and each block's W/R splits, and nothing outlives
/// the page. Every run is folded in page order, so the thread count, the
/// stealing order and the other policies of the pass never change a run:
/// run `i` is what a one-policy pass over `start..end` returns for
/// `policies[i]`, and so are its `hooks.telemetry[i]` counters.
///
/// Because every page's randomness is the `substream_seed(cfg.seed,
/// page_idx)` substream (see [`TimelineSampler::page_rng`]), a sub-range
/// yields exactly the per-page results the full run yields for those
/// indices; no RNG state crosses page boundaries. Checkpoint/resume (a
/// resumed run continues from the page high-water mark) and sharding
/// (shard `i` of `K` runs the stripe `[i·P/K, (i+1)·P/K)`) build on this:
/// concatenating the ranges in index order is byte-identical to one pass
/// over `0..cfg.pages`. `cfg.pages` stays the *global* page count, so
/// progress reports describe positions in the full run.
///
/// # Panics
///
/// Panics if `policies` is empty, a policy's block width differs from
/// `cfg.block_bits`, the page range is out of bounds, or `hooks.telemetry`
/// is neither empty nor one handle per policy.
pub fn run_memory_pass(
    policies: &[&dyn RecoveryPolicy],
    cfg: &SimConfig,
    start: usize,
    end: usize,
    hooks: &PassHooks<'_>,
) -> Vec<MemoryRun> {
    assert!(!policies.is_empty(), "a pass needs at least one policy");
    for policy in policies {
        assert_eq!(
            policy.block_bits(),
            cfg.block_bits,
            "policy {} protects {}-bit blocks but the config uses {}-bit blocks",
            policy.name(),
            policy.block_bits(),
            cfg.block_bits
        );
    }
    let done = AtomicUsize::new(0);
    let spans: Vec<String> = policies
        .iter()
        .map(|policy| format!("mc.{}", policy.name()))
        .collect();
    let phase_name = match spans.as_slice() {
        [only] => only.clone(),
        [first, rest @ ..] => format!("{first} +{}", rest.len()),
        [] => unreachable!("a pass has policies"),
    };
    let status = hooks.status.filter(|s| s.is_enabled());
    if let Some(status) = status {
        status.begin_phase(&phase_name, policies.len() as u64);
    }

    let pass = map_pages(
        cfg,
        start,
        end,
        &phase_name,
        hooks,
        PageArena::new,
        |arena, trace, _, page| {
            // One policy's share is the whole page span already; several
            // get a child span each, laid end to end from here.
            let timed = trace.is_some() && policies.len() > 1;
            let evaluating = trace.as_ref().map_or(0, |t| t.now_ns());
            let outcomes: Box<[PageOutcome]> =
                page_pass(policies, page, cfg.criterion, hooks.telemetry, arena, timed).into();
            if let Some(trace) = trace {
                let mut at = evaluating;
                for (name, &ns) in spans.iter().zip(&arena.policy_ns) {
                    trace.record(name, at, ns);
                    at += ns;
                }
            }
            // Advance completion unconditionally so the count can never
            // disagree with the telemetry pages counters, then report it.
            let finished = start + done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(report) = hooks.progress {
                for i in 0..policies.len() {
                    report(i, finished, cfg.pages);
                }
            }
            if let Some(status) = status {
                status.phase_progress((finished * policies.len()) as u64);
            }
            (page.first_cell_death(), outcomes)
        },
    );
    debug_assert_eq!(done.load(Ordering::Relaxed), end - start);
    for telemetry in hooks.telemetry {
        telemetry.record_pool(&pass.stats);
    }

    let mut runs: Vec<MemoryRun> = policies
        .iter()
        .map(|_| MemoryRun {
            page_lifetimes: Vec::with_capacity(end - start),
            unprotected_lifetimes: Vec::with_capacity(end - start),
            faults_recovered: Vec::with_capacity(end - start),
            capped_pages: 0,
        })
        .collect();
    // Fold in page order, whatever order the workers finished in.
    for (unprotected, outcomes) in pass.results {
        for (run, outcome) in runs.iter_mut().zip(outcomes.iter()) {
            run.page_lifetimes.push(outcome.death_time);
            run.unprotected_lifetimes.push(unprotected);
            run.faults_recovered.push(outcome.faults_recovered);
            run.capped_pages += usize::from(outcome.capped);
        }
    }
    runs
}

/// Page `page` of the chip `cfg` describes, exactly as every chip run
/// samples it: from `(cfg.seed, page)` alone, so no RNG state crosses
/// page boundaries. A zero `cfg.partial_fraction` skips the kind draw, so
/// classic configs keep their historical timelines bit for bit.
#[must_use]
pub fn chip_page(cfg: &SimConfig, page: usize) -> PageTimeline {
    sample_chip_page(&chip_sampler(cfg), cfg, page)
}

/// [`chip_page`] with the chip's sampler built once by the caller.
fn sample_chip_page(sampler: &TimelineSampler, cfg: &SimConfig, page: usize) -> PageTimeline {
    let mut rng = TimelineSampler::page_rng(cfg.seed, page as u64);
    sampler.sample_page(&mut rng, cfg.blocks_per_page())
}

/// The sampler of the chip `cfg` describes.
fn chip_sampler(cfg: &SimConfig) -> TimelineSampler {
    TimelineSampler::paper_default(cfg.block_bits).with_partial_mix(
        cfg.partial_fraction,
        crate::timeline::DEFAULT_WEAK_SUCCESS_Q8,
    )
}

/// Hands every page of `start..end` to `visit` on a pool worker: the one
/// page sampler under every chip run ([`run_memory_pass`] and the PAYG
/// and OS-assist extensions).
///
/// Page `p` is the [`chip_page`] of `p` (or comes from `hooks.timelines`),
/// sampled once on the worker that runs it. Pages are scheduled over
/// `cfg.threads` workers by [`sim_pool::run_indexed_scratch`], since page
/// costs vary ~10×. Each worker builds one state with `init` for all its
/// pages, and `visit(state, trace, p, page)` yields page `p`'s result. The
/// run holds the results in page order, whatever the thread count and the
/// stealing order, and each worker's final state, which only an
/// order-independent fold may read.
///
/// Of `hooks`, only `tracer`, `status` and `timelines` apply: a traced run
/// opens a `phase` span, hands `visit` its worker's tracer inside a `page`
/// span per page and records the pool's utilization under `phase`; a
/// status writer gets the pool's busy fraction.
///
/// # Panics
///
/// Panics if the page range is out of bounds for `cfg.pages`.
pub fn map_pages<S: Send, R: Send>(
    cfg: &SimConfig,
    start: usize,
    end: usize,
    phase: &str,
    hooks: &PassHooks<'_>,
    init: impl Fn() -> S + Sync,
    visit: impl Fn(&mut S, Option<&mut WorkerTracer>, usize, &PageTimeline) -> R + Sync,
) -> sim_pool::PoolRun<R, S> {
    assert!(
        start <= end && end <= cfg.pages,
        "page range {start}..{end} out of bounds for {} pages",
        cfg.pages
    );
    let status = hooks.status.filter(|s| s.is_enabled());
    let tracer = hooks.tracer.filter(|t| t.is_enabled());
    let span = tracer.map(|t| t.span(phase));
    let parent = span.as_ref().map(sim_telemetry::TraceSpan::id);
    let sampler = chip_sampler(cfg);
    // Status heartbeats without tracing still need the timed pool variant
    // for the busy fraction; tracing only adds spans around each page.
    // Neither changes what `visit` computes.
    let run = sim_pool::run_indexed_scratch(
        sim_pool::resolve_threads(cfg.threads),
        end - start,
        tracer.is_some() || status.is_some(),
        || (init(), tracer.map(|t| t.worker(parent))),
        |(state, trace), idx| {
            let span = trace.as_mut().map(|t| t.begin("page"));
            let p = start + idx;
            let page = match hooks.timelines {
                Some(cache) => {
                    cache.get_or_sample(&sampler, cfg.seed, p as u64, cfg.blocks_per_page())
                }
                None => Arc::new(sample_chip_page(&sampler, cfg, p)),
            };
            let result = visit(state, trace.as_mut(), p, &page);
            if let (Some(trace), Some(span)) = (trace, span) {
                trace.end(span);
            }
            result
        },
        |(state, _)| state,
    );
    drop(span);
    if let Some(status) = status {
        status.set_busy(sim_pool::busy_fraction(&run.workers));
    }
    if let Some(tracer) = tracer {
        let utils = run.workers.iter().map(|w| PoolWorkerUtil {
            worker: w.worker,
            tasks: w.tasks,
            batches: w.batches,
            busy_ns: w.busy_ns,
            idle_ns: w.idle_ns,
            pull_ns: w.pull_ns.clone(),
        });
        tracer.record_pool(phase, utils.collect());
    }
    run
}

/// Survival curve of a chip under perfect wear leveling over *live* pages.
///
/// Input: per-page intrinsic lifetimes (writes each page can absorb).
/// Output: `(global_writes, surviving_fraction)` breakpoints. Because the
/// write stream spreads over surviving pages only, the global write count at
/// which the `k`-th page dies is `Σ_{i≤k} (N−i+1)·(T(i) − T(i−1))` over the
/// sorted lifetimes — an exact transform, no per-write loop.
#[must_use]
pub fn survival_curve(page_lifetimes: &[f64]) -> Vec<(f64, f64)> {
    let n = page_lifetimes.len();
    if n == 0 {
        return Vec::new();
    }
    let mut sorted = page_lifetimes.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut curve = Vec::with_capacity(n + 1);
    curve.push((0.0, 1.0));
    let mut global = 0.0;
    let mut prev = 0.0;
    for (i, &t) in sorted.iter().enumerate() {
        global += (n - i) as f64 * (t - prev);
        prev = t;
        curve.push((global, (n - i - 1) as f64 / n as f64));
    }
    curve
}

/// Global page writes at which half the pages have died (the paper's "half
/// lifetime" metric from Figure 9).
///
/// # Panics
///
/// Panics on an empty input.
#[must_use]
pub fn half_lifetime(page_lifetimes: &[f64]) -> f64 {
    assert!(!page_lifetimes.is_empty(), "no pages simulated");
    let curve = survival_curve(page_lifetimes);
    curve
        .iter()
        .find(|&&(_, alive)| alive <= 0.5)
        .map(|&(writes, _)| writes)
        .expect("survival curve always reaches 0")
}

/// Distribution of block death fault-counts for Figure 8.
#[derive(Debug, Clone, Default)]
pub struct FailureCdf {
    /// `histogram[f]` = blocks that died exactly upon their `f`-th fault.
    pub histogram: Vec<usize>,
    /// Blocks simulated.
    pub trials: usize,
}

impl FailureCdf {
    /// `P(block has failed | f faults occurred)` for `f = 0..=max`.
    #[must_use]
    pub fn cdf(&self) -> Vec<f64> {
        let mut acc = 0usize;
        self.histogram
            .iter()
            .map(|&h| {
                acc += h;
                acc as f64 / self.trials as f64
            })
            .collect()
    }
}

/// Block outcomes [`block_trials`] holds between two folds, across all
/// policies: bounds its memory whatever the trial count.
const ROUND_OUTCOMES: usize = 1 << 14;

/// Simulates `trials` independent blocks and evaluates every policy on
/// each — the one block-trial path under Figures 8 and 10.
///
/// Trial `i` samples its block once, from
/// [`TimelineSampler::page_rng`]`(seed, i)`, and runs each policy over it
/// in slice order through the engine's per-event body, each on its own
/// [`PolicyScratch`] of the worker's [`PageArena`] and all reading the
/// block's W/R splits off one shared tape. `visit` then sees the trial's
/// outcomes, one per policy in slice order, on the caller's thread and in
/// trial order. Trials run on `threads` workers (`None` defers to
/// `SIM_THREADS`, then available parallelism) in rounds of at most
/// 2¹⁴ outcomes, so neither the thread count nor the round size changes
/// what `visit` sees.
///
/// # Panics
///
/// Panics if `policies` is empty or its policies protect different block
/// widths.
pub fn block_trials(
    policies: &[&dyn RecoveryPolicy],
    criterion: FailureCriterion,
    trials: usize,
    seed: u64,
    threads: Option<usize>,
    mut visit: impl FnMut(&[BlockOutcome]),
) {
    let sampler = trial_sampler(policies);
    let threads = sim_pool::resolve_threads(threads);
    let round = (ROUND_OUTCOMES / policies.len()).max(1);
    for start in (0..trials).step_by(round) {
        let count = round.min(trials - start);
        let (outcomes, _stats) = sim_pool::run_indexed(
            threads,
            count,
            || (PageArena::new(), SelectScratch::new(sampler.block_bits())),
            |(arena, scratch), j| {
                let mut rng = TimelineSampler::page_rng(seed, (start + j) as u64);
                let block = sampler.sample_block_with(&mut rng, scratch);
                arena.block_outcomes(policies, &block, criterion)
            },
        );
        for trial in &outcomes {
            visit(trial);
        }
    }
}

/// The sampler of the one block width all of `policies` protect.
///
/// # Panics
///
/// Panics if `policies` is empty or mixes block widths.
fn trial_sampler(policies: &[&dyn RecoveryPolicy]) -> TimelineSampler {
    let first = policies
        .first()
        .expect("block trials need at least one policy");
    for policy in policies {
        assert_eq!(
            policy.block_bits(),
            first.block_bits(),
            "{} protects {}-bit blocks but {} protects {}-bit blocks",
            policy.name(),
            policy.block_bits(),
            first.name(),
            first.block_bits()
        );
    }
    TimelineSampler::paper_default(first.block_bits())
}

/// Simulates `trials` independent blocks, returning each block's outcome.
///
/// Block `i` is derived deterministically from `(seed, i)`, so different
/// policies evaluated with the same arguments see identical fault
/// timelines (see [`block_trials`]).
pub fn block_outcomes(
    policy: &dyn RecoveryPolicy,
    criterion: FailureCriterion,
    trials: usize,
    seed: u64,
) -> Vec<BlockOutcome> {
    let mut outcomes = Vec::with_capacity(trials);
    block_trials(&[policy], criterion, trials, seed, None, |trial| {
        outcomes.push(trial[0]);
    });
    outcomes
}

/// Simulates `trials` independent blocks shared by all `policies` and
/// records, per policy, the fault count at which each block dies (Figure
/// 8). Sampling, thread and panic rules are those of [`block_trials`].
pub fn block_failure_cdfs(
    policies: &[&dyn RecoveryPolicy],
    criterion: FailureCriterion,
    trials: usize,
    seed: u64,
    threads: Option<usize>,
) -> Vec<FailureCdf> {
    let slots = trial_sampler(policies).max_events() + 1;
    let mut cdfs = vec![
        FailureCdf {
            histogram: vec![0; slots],
            trials,
        };
        policies.len()
    ];
    block_trials(policies, criterion, trials, seed, threads, |trial| {
        for (cdf, outcome) in cdfs.iter_mut().zip(trial) {
            if outcome.death_time.is_some() {
                let slot = (outcome.events_survived + 1).min(slots - 1);
                cdf.histogram[slot] += 1;
            }
        }
    });
    cdfs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::FaultEvent;

    /// Policy that tolerates up to `cap` faults regardless of data.
    struct CapPolicy {
        cap: usize,
        bits: usize,
    }

    impl RecoveryPolicy for CapPolicy {
        fn name(&self) -> String {
            format!("cap{}", self.cap)
        }
        fn overhead_bits(&self) -> usize {
            0
        }
        fn block_bits(&self) -> usize {
            self.bits
        }
        fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
            assert_eq!(faults.len(), wrong.len());
            faults.len() <= self.cap
        }
        fn guaranteed(&self, faults: &[Fault]) -> bool {
            faults.len() <= self.cap
        }
    }

    fn timeline(times: &[f64]) -> BlockTimeline {
        BlockTimeline {
            events: times
                .iter()
                .enumerate()
                .map(|(i, &t)| FaultEvent {
                    time: t,
                    fault: Fault::new(i, false),
                    split_seed: i as u64,
                })
                .collect(),
        }
    }

    #[test]
    fn block_dies_at_capacity_exceeded() {
        let policy = CapPolicy { cap: 2, bits: 512 };
        let outcome = evaluate_block(
            &policy,
            &timeline(&[10.0, 20.0, 30.0, 40.0]),
            FailureCriterion::default(),
        );
        assert_eq!(outcome.events_survived, 2);
        assert_eq!(outcome.death_time, Some(30.0));
    }

    #[test]
    fn block_outliving_timeline_reports_none() {
        let policy = CapPolicy { cap: 10, bits: 512 };
        let outcome = evaluate_block(&policy, &timeline(&[1.0, 2.0]), FailureCriterion::default());
        assert_eq!(outcome.events_survived, 2);
        assert_eq!(outcome.death_time, None);
    }

    #[test]
    fn page_death_is_earliest_block_death() {
        let policy = CapPolicy { cap: 1, bits: 512 };
        let page = PageTimeline {
            blocks: vec![timeline(&[5.0, 50.0]), timeline(&[7.0, 9.0])],
        };
        let outcome = evaluate_page_pass(
            &[&policy],
            &page,
            FailureCriterion::default(),
            &[],
            &mut PageArena::new(),
        )[0];
        // Block 1 dies at 9.0, block 0 at 50.0 => page dies at 9.0 having
        // recovered the faults at 5.0 and 7.0.
        assert_eq!(outcome.death_time, 9.0);
        assert_eq!(outcome.faults_recovered, 2);
        assert!(!outcome.capped);
    }

    #[test]
    fn survival_curve_integrates_wear_leveling() {
        // Two pages with lifetimes 10 and 20 page-writes. Both alive until
        // global 20 (10 each); then the survivor absorbs everything and
        // dies at global 20 + (20-10) = 30.
        let curve = survival_curve(&[10.0, 20.0]);
        assert_eq!(curve, vec![(0.0, 1.0), (20.0, 0.5), (30.0, 0.0)]);
    }

    #[test]
    fn half_lifetime_reads_the_curve() {
        assert_eq!(half_lifetime(&[10.0, 20.0]), 20.0);
        // Four pages of lifetimes [1, 1, 100, 100]: all four absorb writes
        // until the two short-lived pages die at global 4·1 = 4.
        assert_eq!(half_lifetime(&[1.0, 1.0, 100.0, 100.0]), 4.0);
    }

    #[test]
    fn run_moments_quantize_like_the_histogram() {
        let run = MemoryRun {
            page_lifetimes: vec![10.5, 20.0, f64::INFINITY],
            unprotected_lifetimes: vec![5.0, 8.0, 9.0],
            faults_recovered: vec![3, 1, 2],
            capped_pages: 1,
        };
        let lm = run.lifetime_moments();
        assert_eq!(lm.count(), 2, "non-finite death times are skipped");
        assert_eq!(lm.mean(), 15.0, "10.5 floors to 10, like the histogram");
        let fm = run.faults_moments();
        assert_eq!(fm.count(), 3);
        assert_eq!(fm.mean(), 2.0);
    }

    #[test]
    fn criterion_labels_round_trip() {
        for (criterion, label) in [
            (FailureCriterion::default(), "per-event-split:1"),
            (
                FailureCriterion::PerEventSplit { samples: 3 },
                "per-event-split:3",
            ),
            (FailureCriterion::GuaranteedAllData, "guaranteed-all-data"),
        ] {
            assert_eq!(criterion.to_string(), label);
            assert_eq!(label.parse::<FailureCriterion>(), Ok(criterion));
        }
        for bad in ["", "per-event-split:", "per-event-split:x", "guaranteed"] {
            assert!(bad.parse::<FailureCriterion>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn failure_cdf_is_monotone_and_reaches_one() {
        let policy = CapPolicy { cap: 3, bits: 64 };
        let cdfs = block_failure_cdfs(&[&policy], FailureCriterion::default(), 200, 11, None);
        let cdf = cdfs[0].cdf();
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cdf.last().unwrap(), 1.0);
        // Nothing dies at or below the cap.
        assert_eq!(cdf[3], 0.0);
        // Everything is dead by fault 4.
        assert_eq!(cdf[4], 1.0);
    }

    #[test]
    fn block_trials_visit_in_trial_order_across_rounds() {
        // Enough policies that one round holds fewer trials than the run.
        let policies: Vec<CapPolicy> = (0..100)
            .map(|i| CapPolicy {
                cap: i % 9,
                bits: 64,
            })
            .collect();
        let refs: Vec<&dyn RecoveryPolicy> =
            policies.iter().map(|p| p as &dyn RecoveryPolicy).collect();
        let trials = 2 * ROUND_OUTCOMES / refs.len() + 7;
        let sampler = TimelineSampler::paper_default(64);
        let criterion = FailureCriterion::default();
        for threads in [1, 3] {
            let mut next = 0u64;
            block_trials(&refs, criterion, trials, 5, Some(threads), |trial| {
                let block = sampler.sample_block(&mut TimelineSampler::page_rng(5, next));
                for (&policy, outcome) in refs.iter().zip(trial) {
                    assert_eq!(*outcome, evaluate_block(policy, &block, criterion));
                }
                next += 1;
            });
            assert_eq!(next, trials as u64, "threads {threads}");
        }
    }

    #[test]
    fn hooks_observe_without_perturbing_results() {
        let policy = CapPolicy { cap: 4, bits: 512 };
        let cfg = SimConfig {
            pages: 6,
            page_bits: 4096,
            block_bits: 512,
            criterion: FailureCriterion::default(),
            seed: 77,
            threads: None,
            partial_fraction: 0.0,
        };
        let plain = run_memory(&policy, &cfg);

        let registry = Registry::new();
        let progress = std::sync::Mutex::new(Vec::new());
        let record = |policy: usize, done: usize, total: usize| {
            assert_eq!(policy, 0, "a one-policy pass reports policy 0");
            progress.lock().unwrap().push((done, total));
        };
        let telemetry = [McTelemetry::for_scheme(&registry, &policy.name())];
        let hooks = PassHooks {
            telemetry: &telemetry,
            progress: Some(&record),
            ..PassHooks::default()
        };
        let observed = run_memory_pass(&[&policy], &cfg, 0, cfg.pages, &hooks).remove(0);

        assert_eq!(plain.page_lifetimes, observed.page_lifetimes);
        assert_eq!(plain.faults_recovered, observed.faults_recovered);

        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        assert_eq!(counters["mc.cap4.pages"], 6);
        assert!(counters["mc.cap4.policy_decisions"] > 0);
        assert!(counters["mc.cap4.fault_events"] >= counters["mc.cap4.block_deaths_split"]);
        assert_eq!(counters["mc.cap4.block_deaths_guarantee"], 0);

        let mut calls = progress.into_inner().unwrap();
        calls.sort_unstable();
        // `done` advances unconditionally and exactly once per page, so the
        // sorted calls are exactly (1,6)..(6,6) — in particular the final
        // call is pinned to (total, total).
        let expected: Vec<(usize, usize)> = (1..=6).map(|i| (i, 6)).collect();
        assert_eq!(calls, expected);
        assert_eq!(calls.last(), Some(&(6, 6)));
    }

    #[test]
    fn results_are_invariant_under_thread_count() {
        let policy = CapPolicy { cap: 4, bits: 512 };
        let mut cfg = SimConfig {
            pages: 7,
            page_bits: 4096,
            block_bits: 512,
            criterion: FailureCriterion::default(),
            seed: 23,
            threads: Some(1),
            partial_fraction: 0.0,
        };
        let single = run_memory(&policy, &cfg);
        for threads in [2, 3, 8] {
            cfg.threads = Some(threads);
            let multi = run_memory(&policy, &cfg);
            assert_eq!(single.page_lifetimes, multi.page_lifetimes);
            assert_eq!(single.unprotected_lifetimes, multi.unprotected_lifetimes);
            assert_eq!(single.faults_recovered, multi.faults_recovered);
        }
        let trials = |threads| {
            let mut outcomes = Vec::new();
            block_trials(&[&policy], cfg.criterion, 50, 9, Some(threads), |trial| {
                outcomes.extend_from_slice(trial);
            });
            outcomes
        };
        assert_eq!(trials(1), trials(4));
    }

    #[test]
    fn pool_counters_are_volatile_and_observable() {
        let policy = CapPolicy { cap: 4, bits: 512 };
        let cfg = SimConfig {
            pages: 5,
            page_bits: 4096,
            block_bits: 512,
            criterion: FailureCriterion::default(),
            seed: 3,
            threads: Some(2),
            partial_fraction: 0.0,
        };
        let registry = Registry::new();
        let telemetry = [McTelemetry::for_scheme(&registry, "cap4")];
        let hooks = PassHooks {
            telemetry: &telemetry,
            ..PassHooks::default()
        };
        run_memory_pass(&[&policy], &cfg, 0, cfg.pages, &hooks);
        let volatile: std::collections::BTreeMap<String, u64> =
            registry.volatile_counters().into_iter().collect();
        assert!(volatile.contains_key("pool.cap4.pages_stolen"));
        assert!(volatile["pool.cap4.worker_batches"] >= 1);
        // Volatile counters must not leak into the deterministic snapshot.
        let deterministic: Vec<String> = registry.counters().into_iter().map(|(n, _)| n).collect();
        assert!(deterministic.iter().all(|n| !n.starts_with("pool.")));
    }

    #[test]
    fn guaranteed_criterion_attributes_deaths_correctly() {
        let policy = CapPolicy { cap: 1, bits: 512 };
        let registry = Registry::new();
        let telemetry = McTelemetry::for_scheme(&registry, "cap1");
        let outcome = evaluate_block_with_scratch(
            &policy,
            &timeline(&[1.0, 2.0, 3.0]),
            FailureCriterion::GuaranteedAllData,
            Some(&telemetry),
            &mut PolicyScratch::new(),
        );
        assert_eq!(outcome.death_time, Some(2.0));
        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        assert_eq!(counters["mc.cap1.block_deaths_guarantee"], 1);
        assert_eq!(counters["mc.cap1.block_deaths_split"], 0);
        assert_eq!(counters["mc.cap1.policy_decisions"], 2);
    }

    #[test]
    fn tracer_records_spans_without_perturbing_results() {
        let policy = CapPolicy { cap: 4, bits: 512 };
        let cfg = SimConfig {
            pages: 6,
            page_bits: 4096,
            block_bits: 512,
            criterion: FailureCriterion::default(),
            seed: 77,
            threads: Some(2),
            partial_fraction: 0.0,
        };
        let plain = run_memory(&policy, &cfg);

        // The disabled tracer every untraced run carries leaves the
        // results identical and records nothing.
        let disabled = Tracer::disabled();
        let hooks = PassHooks {
            tracer: Some(&disabled),
            ..PassHooks::default()
        };
        let untraced = run_memory_pass(&[&policy], &cfg, 0, cfg.pages, &hooks).remove(0);
        assert_eq!(plain.page_lifetimes, untraced.page_lifetimes);
        assert_eq!(plain.faults_recovered, untraced.faults_recovered);
        assert!(disabled.finish("unit").is_none());

        let tracer = Tracer::new(1024);
        let hooks = PassHooks {
            tracer: Some(&tracer),
            ..PassHooks::default()
        };
        let traced = run_memory_pass(&[&policy], &cfg, 0, cfg.pages, &hooks).remove(0);
        assert_eq!(plain.page_lifetimes, traced.page_lifetimes);
        assert_eq!(plain.faults_recovered, traced.faults_recovered);

        let log = tracer.finish("unit").unwrap();
        let phase = log.spans.iter().find(|s| s.name == "mc.cap4").unwrap();
        let pages: Vec<_> = log.spans.iter().filter(|s| s.name == "page").collect();
        assert_eq!(pages.len(), 6);
        // Every page span hangs off the engine phase and was recorded by
        // a worker collector.
        assert!(pages.iter().all(|s| s.parent == Some(phase.id)));
        assert!(pages.iter().all(|s| s.worker != 0));
        // Pool utilization was captured for the phase, one entry per
        // worker, and the task counts add up to the page count.
        assert_eq!(log.pool.len(), 1);
        assert_eq!(log.pool[0].phase, "mc.cap4");
        let tasks: usize = log.pool[0].workers.iter().map(|w| w.tasks).sum();
        assert_eq!(tasks, 6);
        assert_eq!(log.total_dropped(), 0);
    }

    #[test]
    fn status_hooks_heartbeat_without_perturbing_results() {
        let policy = CapPolicy { cap: 4, bits: 512 };
        let cfg = SimConfig {
            pages: 6,
            page_bits: 4096,
            block_bits: 512,
            criterion: FailureCriterion::default(),
            seed: 77,
            threads: Some(2),
            partial_fraction: 0.0,
        };
        let plain = run_memory(&policy, &cfg);

        let dir = std::env::temp_dir().join(format!("pcm-sim-status-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let status =
            StatusWriter::with_interval("engine", &dir, std::time::Duration::ZERO).unwrap();
        status.set_total_pages(6);
        let hooks = PassHooks {
            status: Some(&status),
            ..PassHooks::default()
        };
        let observed = run_memory_pass(&[&policy], &cfg, 0, cfg.pages, &hooks).remove(0);
        assert_eq!(plain.page_lifetimes, observed.page_lifetimes);
        assert_eq!(plain.faults_recovered, observed.faults_recovered);

        let record = status.record().unwrap();
        assert_eq!(record.phase, "mc.cap4");
        assert_eq!(record.pages_done, 6);
        assert!(record.busy.is_some(), "pool utilization was sampled");
        let text = std::fs::read_to_string(dir.join("engine.status.json")).unwrap();
        let on_disk = sim_telemetry::StatusRecord::parse(&text).unwrap();
        assert_eq!(on_disk.pages_done, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Policy that dies on the first stuck-at-Wrong fault.
    struct NoWrong;

    impl RecoveryPolicy for NoWrong {
        fn name(&self) -> String {
            "no-wrong".into()
        }
        fn overhead_bits(&self) -> usize {
            0
        }
        fn block_bits(&self) -> usize {
            512
        }
        fn recoverable(&self, _faults: &[Fault], wrong: &[bool]) -> bool {
            wrong.iter().all(|&w| !w)
        }
    }

    #[test]
    fn partial_fraction_weakens_faults_and_stays_deterministic() {
        let mut cfg = SimConfig::scaled(12, 512, 41);
        let classic = run_memory(&NoWrong, &cfg);
        cfg.partial_fraction = 1.0;
        let partial = run_memory(&NoWrong, &cfg);
        let partial_again = run_memory(&NoWrong, &cfg);
        // Deterministic per seed and thread-invariant.
        assert_eq!(partial.page_lifetimes, partial_again.page_lifetimes);
        cfg.threads = Some(3);
        let threaded = run_memory(&NoWrong, &cfg);
        assert_eq!(partial.page_lifetimes, threaded.page_lifetimes);
        // Every fault of an all-partial chip has a weak-write escape hatch
        // (W probability ¼ instead of ½), so this split-sensitive policy
        // recovers strictly more faults in aggregate.
        assert!(
            partial.mean_faults_recovered() > classic.mean_faults_recovered(),
            "partial {} vs classic {}",
            partial.mean_faults_recovered(),
            classic.mean_faults_recovered()
        );
    }

    #[test]
    fn page_pass_matches_each_policy_alone() {
        let policies = [
            CapPolicy { cap: 1, bits: 512 },
            CapPolicy { cap: 2, bits: 512 },
            CapPolicy { cap: 3, bits: 512 },
        ];
        let refs: Vec<&dyn RecoveryPolicy> =
            policies.iter().map(|p| p as &dyn RecoveryPolicy).collect();
        let page = PageTimeline {
            blocks: vec![
                timeline(&[5.0, 50.0, 60.0]),
                timeline(&[7.0, 9.0]),
                timeline(&[]),
                timeline(&[1.0, 2.0, 3.0, 4.0]),
            ],
        };
        let mut arena = PageArena::new();
        for criterion in [
            FailureCriterion::PerEventSplit { samples: 2 },
            FailureCriterion::GuaranteedAllData,
        ] {
            let registry = Registry::new();
            let telemetry: Vec<McTelemetry> = policies
                .iter()
                .map(|p| McTelemetry::for_scheme(&registry, &p.name()))
                .collect();
            let got = evaluate_page_pass(&refs, &page, criterion, &telemetry, &mut arena).to_vec();
            let alone = Registry::new();
            for (&policy, outcome) in refs.iter().zip(&got) {
                let t = McTelemetry::for_scheme(&alone, &policy.name());
                let mut scratch = PolicyScratch::new();
                let mut fold = PageFold::OPEN;
                for block in &page.blocks {
                    fold.add(evaluate_block_with_scratch(
                        policy,
                        block,
                        criterion,
                        Some(&t),
                        &mut scratch,
                    ));
                }
                assert_eq!(
                    *outcome,
                    fold.close(&page, Some(&t)),
                    "{} {criterion:?}",
                    policy.name()
                );
            }
            assert_eq!(registry.counters(), alone.counters(), "{criterion:?}");
        }
    }

    #[test]
    fn pass_reports_every_policy_and_attributes_trace_time() {
        let (a, b) = (
            CapPolicy { cap: 1, bits: 512 },
            CapPolicy { cap: 3, bits: 512 },
        );
        let cfg = SimConfig {
            threads: Some(2),
            ..SimConfig::scaled(5, 512, 9)
        };
        let progress = std::sync::Mutex::new(Vec::new());
        let record = |policy: usize, done: usize, total: usize| {
            progress.lock().unwrap().push((policy, done, total));
        };
        let tracer = Tracer::new(1024);
        let hooks = PassHooks {
            progress: Some(&record),
            tracer: Some(&tracer),
            ..PassHooks::default()
        };
        let runs = run_memory_pass(&[&a, &b], &cfg, 0, cfg.pages, &hooks);
        assert_eq!(runs[0], run_memory(&a, &cfg));
        assert_eq!(runs[1], run_memory(&b, &cfg));

        let mut calls = progress.into_inner().unwrap();
        calls.sort_unstable();
        let expected: Vec<(usize, usize, usize)> = (0..2)
            .flat_map(|policy| (1..=5).map(move |done| (policy, done, 5)))
            .collect();
        assert_eq!(calls, expected, "each policy sees every page once");

        let log = tracer.finish("unit").unwrap();
        let phase = log.spans.iter().find(|s| s.name == "mc.cap1 +1").unwrap();
        let pages: Vec<_> = log.spans.iter().filter(|s| s.name == "page").collect();
        assert_eq!(pages.len(), 5);
        assert!(pages.iter().all(|s| s.parent == Some(phase.id)));
        for name in ["mc.cap1", "mc.cap3"] {
            let shares: Vec<_> = log.spans.iter().filter(|s| s.name == name).collect();
            assert_eq!(shares.len(), 5, "{name}: one share per page");
            for share in shares {
                let page = pages.iter().find(|p| Some(p.id) == share.parent).unwrap();
                assert!(
                    share.start_ns >= page.start_ns,
                    "{name} starts inside its page"
                );
                assert!(share.dur_ns <= page.dur_ns, "{name} fits inside its page");
            }
        }
        assert_eq!(log.pool[0].phase, "mc.cap1 +1");
    }

    #[test]
    fn split_tape_replays_each_event_draw() {
        let faults: Vec<Fault> = (0..3).map(|i| Fault::new(i, false)).collect();
        let mut tape = SplitTape::default();
        for j in 0..3 {
            let expected: Vec<bool> = {
                let mut rng = SmallRng::seed_from_u64(100 + j as u64);
                let mut out = Vec::new();
                for _ in 0..2 {
                    let mut one = Vec::new();
                    crate::fault::sample_split_for_into(&mut rng, &faults[..=j], &mut one);
                    out.extend(one);
                }
                out
            };
            let first = tape.splits(100 + j as u64, &faults[..=j], 2).to_vec();
            // A second reader gets the drawn bits back, whatever seed it
            // would have used.
            let again = tape.splits(0, &faults[..=j], 2).to_vec();
            assert_eq!(first, expected, "event {j}");
            assert_eq!(again, expected, "event {j} read back");
        }
        tape.reset();
        let fresh = tape.splits(7, &faults[..1], 2).to_vec();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut want = crate::fault::sample_split_for(&mut rng, &faults[..1]);
        want.extend(crate::fault::sample_split_for(&mut rng, &faults[..1]));
        assert_eq!(fresh, want, "a reset tape draws afresh");
    }

    #[test]
    fn timeline_cache_leaves_chip_results_byte_identical() {
        let policy = CapPolicy { cap: 4, bits: 512 };
        let mut cfg = SimConfig::scaled(6, 512, 123);
        cfg.partial_fraction = 0.25;
        let plain = run_memory(&policy, &cfg);
        let cache = TimelineCache::with_capacity(64);
        let hooks = PassHooks {
            timelines: Some(&cache),
            ..PassHooks::default()
        };
        let cached = || {
            run_memory_pass(&[&policy], &cfg, 0, cfg.pages, &hooks)
                .pop()
                .expect("one run per policy")
        };
        let cached_cold = cached();
        assert_eq!(cache.len(), 6, "every page was retained");
        assert_eq!(cache.hits(), 0);
        let cached_warm = cached();
        assert_eq!(cache.hits(), 6, "second run served entirely from cache");
        for run in [&cached_cold, &cached_warm] {
            assert_eq!(plain.page_lifetimes, run.page_lifetimes);
            assert_eq!(plain.unprotected_lifetimes, run.unprotected_lifetimes);
            assert_eq!(plain.faults_recovered, run.faults_recovered);
        }
    }

    #[test]
    fn run_memory_is_deterministic_and_ordered() {
        let policy = CapPolicy { cap: 4, bits: 512 };
        let cfg = SimConfig {
            pages: 8,
            page_bits: 4096,
            block_bits: 512,
            criterion: FailureCriterion::default(),
            seed: 5,
            threads: None,
            partial_fraction: 0.0,
        };
        let a = run_memory(&policy, &cfg);
        let b = run_memory(&policy, &cfg);
        assert_eq!(a.page_lifetimes, b.page_lifetimes);
        assert_eq!(a.faults_recovered, b.faults_recovered);
        assert_eq!(a.capped_pages, 0);
        // A protected page must outlive the unprotected one.
        for (p, u) in a.page_lifetimes.iter().zip(&a.unprotected_lifetimes) {
            assert!(p >= u);
        }
    }
}
