//! Traced, in-process replays of the benchmark's three workloads.
//!
//! Each replay drives the same public entry points as the `experiments`
//! CLI, with every policy wrapped in a [`TimedPolicy`] and the engine's
//! own tracer attached, and rebuilds the CLI's output files so the
//! untraced runs can be checked byte for byte. Layer times are taken at
//! the calls this module makes (timeline sampling, policy calls, CSV
//! writing, the codec probe) and from the engine's `page` spans and pool
//! records; nothing inside the program is changed.

use crate::timed::{wrap_all, PolicyClock, TimedPolicy, FAMILIES, MAX_FAULTS};
use aegis_experiments::checkpoint::{self, Checkpoint, CheckpointCtl, UnitSpec};
use aegis_experiments::failcdf::{self, SchemeCdf};
use aegis_experiments::fig567::{self, Fig567};
use aegis_experiments::runner::{self, RunObserver, RunOptions};
use aegis_experiments::{fig8, schemes, telemetry};
use pcm_sim::montecarlo::{evaluate_block_with_scratch, FailureCdf, McTelemetry, SimConfig};
use pcm_sim::policy::PolicyScratch;
use pcm_sim::timeline::{
    BlockTimeline, FaultEvent, PageTimeline, TimelineCache, TimelineSampler,
    DEFAULT_WEAK_SUCCESS_Q8,
};
use pcm_sim::{sample_split_for_into, Fault};
use sim_pool::WorkerStats;
use sim_rng::{SeedableRng, SmallRng};
use sim_telemetry::{
    Registry, RunState, RunTelemetry, SeriesWriter, StatusWriter, TraceLog, Tracer,
};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `experiments fig5`: the 18-scheme sweep over both block widths.
    Fig5Sweep,
    /// `experiments failcdf`: independent 512-bit blocks, no timeline cache.
    BlockTrials,
    /// `experiments fig8 --telemetry --series --status --checkpoint-every N`.
    Fig8Campaign,
}

impl Workload {
    /// Parses a workload name as the benchmark's command line spells it.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fig5-sweep" => Some(Self::Fig5Sweep),
            "block-trials" => Some(Self::BlockTrials),
            "fig8-campaign" => Some(Self::Fig8Campaign),
            _ => None,
        }
    }
}

/// One workload at one scale and seed.
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Pages, trials, seed and threads, as given to the CLI.
    pub opts: RunOptions,
    /// `--checkpoint-every` of the fig8 campaign.
    pub every: usize,
}

/// A finished traced replay.
pub struct Traced {
    /// Per-layer metrics by name (the setup and overhead metrics are added
    /// by the caller, which measures them).
    pub layers: BTreeMap<String, f64>,
    /// Output files the CLI writes, relative to its `--out` directory, and
    /// whether each is compared after `strip_volatile`.
    pub outputs: Vec<(String, bool)>,
    /// Host wall clock of the traced replay, seconds.
    pub wall_s: f64,
}

/// Blocks kept from the run's own timelines for the split-sampling replay.
const REPLAY_BLOCKS: usize = 256;
/// Upper bound on replayed split draws.
const REPLAY_CALLS: f64 = 1_000_000.0;

#[allow(clippy::cast_possible_truncation)]
fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

#[allow(clippy::cast_precision_loss)]
fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host bytes one sampled page keeps alive while cached.
fn retained_bytes(page: &PageTimeline) -> u64 {
    let blocks: usize = page
        .blocks
        .iter()
        .map(|b| b.events.capacity() * std::mem::size_of::<FaultEvent>())
        .sum();
    (std::mem::size_of::<PageTimeline>()
        + page.blocks.capacity() * std::mem::size_of::<BlockTimeline>()
        + blocks) as u64
}

/// The sampler the engine builds for a chip configuration.
fn engine_sampler(cfg: &SimConfig) -> TimelineSampler {
    TimelineSampler::paper_default(cfg.block_bits)
        .with_partial_mix(cfg.partial_fraction, DEFAULT_WEAK_SUCCESS_Q8)
}

/// Counts and times gathered across one replay.
#[derive(Default)]
struct Acc {
    blocks_sampled: u64,
    sampled_pages: u64,
    lookups: u64,
    timeline_ns: u64,
    retained_peak: u64,
    events_delivered: u64,
    worker_busy_ns: u64,
    worker_idle_ns: u64,
    batches: u64,
    engine_ns: u64,
    replay: Vec<(Vec<Fault>, Vec<u64>)>,
}

impl Acc {
    fn add_workers(&mut self, workers: &[WorkerStats]) {
        for w in workers {
            self.worker_busy_ns += w.busy_ns;
            self.worker_idle_ns += w.idle_ns;
            self.batches += w.batches;
        }
    }

    fn keep_for_replay(&mut self, block: &BlockTimeline) {
        if self.replay.len() < REPLAY_BLOCKS {
            self.replay.push((
                block.events.iter().map(|e| e.fault).collect(),
                block.events.iter().map(|e| e.split_seed).collect(),
            ));
        }
    }

    /// Samples every page of `cfg` into `cache` on the pool, timing each
    /// lookup; returns the events sampled and the bytes retained.
    fn prefill(&mut self, cache: &TimelineCache, cfg: &SimConfig) -> (u64, u64) {
        let sampler = engine_sampler(cfg);
        let per_page = cfg.blocks_per_page();
        let threads = sim_pool::resolve_threads(cfg.threads);
        let (pages, _, workers) = sim_pool::run_indexed_stats(
            threads,
            cfg.pages,
            || (),
            |(), idx| {
                let started = Instant::now();
                let page = cache.get_or_sample(&sampler, cfg.seed, idx as u64, per_page);
                (nanos(started), page)
            },
        );
        self.add_workers(&workers);
        let (mut events, mut bytes) = (0u64, 0u64);
        for (ns, page) in &pages {
            self.timeline_ns += ns;
            events += page.total_events() as u64;
            bytes += retained_bytes(page);
            for block in &page.blocks {
                self.keep_for_replay(block);
            }
        }
        self.blocks_sampled += (cfg.pages * per_page) as u64;
        self.sampled_pages += cfg.pages as u64;
        (events, bytes)
    }

    /// Folds a cache's lookups in, checking the engine never had to sample
    /// a page the prefill did not (which would hide timeline time inside
    /// engine time).
    fn close_cache(&mut self, cache: &TimelineCache, prefilled: u64) -> io::Result<()> {
        if cache.misses() != prefilled {
            return Err(io::Error::other(format!(
                "timeline cache sampled {} pages but {prefilled} were prefilled",
                cache.misses()
            )));
        }
        self.lookups += cache.hits();
        Ok(())
    }

    fn absorb_trace(&mut self, log: &TraceLog) -> io::Result<()> {
        if log.total_dropped() > 0 {
            return Err(io::Error::other("trace ring overflowed"));
        }
        self.engine_ns += log
            .spans
            .iter()
            .filter(|s| s.name == "page")
            .map(|s| s.dur_ns)
            .sum::<u64>();
        for phase in &log.pool {
            for w in &phase.workers {
                self.worker_busy_ns += w.busy_ns;
                self.worker_idle_ns += w.idle_ns;
                self.batches += w.batches;
            }
        }
        Ok(())
    }

    /// Replays `sample_split_for_into` on the kept blocks with the engine's
    /// distribution of population sizes; returns ns per draw.
    fn split_ns_per_call(&self, by_faults: &[u64]) -> f64 {
        let total: u64 = by_faults.iter().sum();
        if total == 0 || self.replay.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let scale = (REPLAY_CALLS / total as f64).min(1.0);
        let mut wrong = Vec::with_capacity(MAX_FAULTS);
        let mut next = 0usize;
        let mut replayed = 0u64;
        let started = Instant::now();
        for (f, &count) in by_faults.iter().enumerate().skip(1) {
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                clippy::cast_precision_loss
            )]
            let draws = (count as f64 * scale).ceil() as u64;
            for _ in 0..draws {
                let (faults, seeds) = &self.replay[next % self.replay.len()];
                next += 1;
                let f = f.min(faults.len());
                let mut rng = SmallRng::seed_from_u64(seeds[f - 1]);
                sample_split_for_into(&mut rng, &faults[..f], &mut wrong);
                std::hint::black_box(&wrong);
                replayed += 1;
            }
        }
        ratio(nanos(started), replayed)
    }
}

/// Per-layer metrics shared by every workload.
fn common_layers(
    acc: &Acc,
    clock: &PolicyClock,
    counters: &[(String, u64)],
    wall_ns: u64,
) -> BTreeMap<String, f64> {
    let mut layers = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        layers.insert(name.to_owned(), value);
    };
    // Engine totals over every `mc.<scheme>.<metric>` counter.
    let engine = |metric: &str| -> u64 {
        counters
            .iter()
            .filter(|(name, _)| name.starts_with("mc.") && name.rsplit('.').next() == Some(metric))
            .map(|(_, value)| value)
            .sum()
    };
    #[allow(clippy::cast_precision_loss)]
    let count = |n: u64| n as f64;
    let totals = clock.totals();
    let policy_ns: u64 = totals.iter().map(|t| t.busy_ns()).sum();
    let mut by_faults = vec![0u64; MAX_FAULTS + 1];
    for (family, t) in FAMILIES.iter().zip(&totals) {
        set(
            &format!("policy.{family}.observe_calls"),
            count(t.observe_calls),
        );
        set(&format!("policy.{family}.observe_ns"), count(t.observe_ns));
        set(&format!("policy.{family}.decisions"), count(t.decisions));
        set(&format!("policy.{family}.decide_ns"), count(t.decide_ns));
        set(&format!("policy.{family}.busy_s"), secs(t.busy_ns()));
        for (acc, n) in by_faults.iter_mut().zip(&t.by_faults) {
            *acc += n;
        }
    }
    let fault_events = engine("fault_events");
    set("timeline.blocks_sampled", count(acc.blocks_sampled));
    set("timeline.lookups", count(acc.lookups));
    set(
        "timeline.cache_hit_ratio",
        if acc.lookups == 0 {
            0.0
        } else {
            1.0 - ratio(acc.sampled_pages, acc.lookups)
        },
    );
    set("timeline.busy_s", secs(acc.timeline_ns));
    set(
        "timeline.ns_per_block",
        ratio(acc.timeline_ns, acc.blocks_sampled),
    );
    #[allow(clippy::cast_precision_loss)]
    set("timeline.retained_mb", acc.retained_peak as f64 / 1e6);
    set(
        "timeline.events_used_ratio",
        ratio(fault_events, acc.events_delivered),
    );
    set("split.calls", count(by_faults.iter().sum()));
    set("split.ns_per_call", acc.split_ns_per_call(&by_faults));
    set("engine.pages", count(engine("pages")));
    set("engine.fault_events", count(fault_events));
    set("engine.policy_decisions", count(engine("policy_decisions")));
    set("engine.busy_s", secs(acc.engine_ns));
    set(
        "engine.self_s",
        secs(acc.engine_ns.saturating_sub(policy_ns)),
    );
    set(
        "pool.busy_fraction",
        ratio(acc.worker_busy_ns, acc.worker_busy_ns + acc.worker_idle_ns),
    );
    set("pool.idle_s", secs(acc.worker_idle_ns));
    set("pool.batches", count(acc.batches));
    set(
        "trace.coverage_ratio",
        ratio(acc.timeline_ns + acc.engine_ns, acc.worker_busy_ns),
    );
    set("trace.wall_s", secs(wall_ns));
    for name in [
        "campaign.snapshots",
        "campaign.snapshot_s",
        "campaign.snapshot_bytes",
        "telemetry.barrier_s",
        "telemetry.series_bytes",
        "telemetry.stream_events",
        "telemetry.codec_probe_s",
    ] {
        set(name, 0.0);
    }
    layers
}

/// Runs one workload's traced replay, writing the CLI's outputs under
/// `out`.
///
/// # Errors
///
/// Propagates output I/O errors and reports a replay whose attribution
/// would be wrong (an engine-side timeline miss, a trace overflow).
pub fn run(params: &Params, out: &Path) -> io::Result<Traced> {
    std::fs::create_dir_all(out)?;
    match params.workload {
        Workload::Fig5Sweep => fig5_sweep(&params.opts, out),
        Workload::BlockTrials => block_trials(&params.opts, out),
        Workload::Fig8Campaign => fig8_campaign(&params.opts, params.every, out),
    }
}

fn fig5_sweep(opts: &RunOptions, out: &Path) -> io::Result<Traced> {
    let clock = Arc::new(PolicyClock::default());
    let registry = Registry::new();
    let tracer = Tracer::with_default_capacity();
    let mut acc = Acc::default();
    let started = Instant::now();
    let mut by_block = Vec::new();
    for bits in [256usize, 512] {
        let set = wrap_all(schemes::fig5_schemes(bits), &clock);
        let cfg = opts.sim_config(bits);
        // One cache per width, as the sweep itself keeps.
        let cache = TimelineCache::new();
        let (events, bytes) = acc.prefill(&cache, &cfg);
        acc.events_delivered += events * set.len() as u64;
        acc.retained_peak = acc.retained_peak.max(bytes);
        let observer = RunObserver {
            registry: Some(&registry),
            tracer: Some(&tracer),
            timelines: Some(&cache),
            ..RunObserver::default()
        };
        by_block.push((
            bits,
            runner::summarize_schemes_with(&set, bits, opts, &observer),
        ));
        acc.close_cache(&cache, cfg.pages as u64)?;
    }
    let csv_started = Instant::now();
    fig567::write_csvs(&Fig567 { by_block }, out)?;
    let csv_ns = nanos(csv_started);
    let wall_ns = nanos(started);
    acc.absorb_trace(&tracer.finish("perfbench").expect("tracer is enabled"))?;
    let mut layers = common_layers(&acc, &clock, &registry.counters(), wall_ns);
    layers.insert("campaign.csv_s".to_owned(), secs(csv_ns));
    Ok(Traced {
        layers,
        outputs: ["fig5.csv", "fig6.csv", "fig7.csv"]
            .into_iter()
            .map(|f| (f.to_owned(), false))
            .collect(),
        wall_s: secs(wall_ns),
    })
}

/// The failcdf body of `block_failure_cdf_with_threads`, with the block
/// sampling and the block evaluation of every trial timed apart.
fn block_trials(opts: &RunOptions, out: &Path) -> io::Result<Traced> {
    let clock = Arc::new(PolicyClock::default());
    let registry = Registry::new();
    let mut acc = Acc::default();
    let threads = sim_pool::resolve_threads(opts.threads);
    let started = Instant::now();
    let set = wrap_all(schemes::failcdf_schemes(), &clock);
    let mut results = Vec::with_capacity(set.len());
    for policy in &set {
        let sampler = TimelineSampler::paper_default(policy.block_bits());
        let telemetry = McTelemetry::for_scheme(&registry, &policy.name());
        let (trials, _, workers) =
            sim_pool::run_indexed_stats(threads, opts.trials, PolicyScratch::new, |scratch, i| {
                let sampling = Instant::now();
                let mut rng = TimelineSampler::page_rng(opts.seed, i as u64);
                let timeline = sampler.sample_block(&mut rng);
                let evaluating = Instant::now();
                let outcome = evaluate_block_with_scratch(
                    policy.as_ref(),
                    &timeline,
                    opts.criterion,
                    Some(&telemetry),
                    scratch,
                );
                #[allow(clippy::cast_possible_truncation)]
                let sample_ns = (evaluating - sampling).as_nanos() as u64;
                (outcome, sample_ns, nanos(evaluating), timeline.events.len())
            });
        acc.add_workers(&workers);
        let mut histogram = vec![0usize; sampler.max_events() + 1];
        for (outcome, sample_ns, eval_ns, events) in trials {
            acc.timeline_ns += sample_ns;
            acc.engine_ns += eval_ns;
            acc.events_delivered += events as u64;
            if outcome.death_time.is_some() {
                let slot = (outcome.events_survived + 1).min(histogram.len() - 1);
                histogram[slot] += 1;
            }
        }
        acc.blocks_sampled += opts.trials as u64;
        results.push(SchemeCdf {
            name: policy.name(),
            cdf: FailureCdf {
                histogram,
                trials: opts.trials,
            }
            .cdf(),
        });
    }
    let csv_started = Instant::now();
    failcdf::write_csv(&results, out)?;
    let csv_ns = nanos(csv_started);
    let wall_ns = nanos(started);
    let sampler = TimelineSampler::paper_default(512);
    for i in 0..REPLAY_BLOCKS.min(opts.trials) {
        acc.keep_for_replay(
            &sampler.sample_block(&mut TimelineSampler::page_rng(opts.seed, i as u64)),
        );
    }
    let mut layers = common_layers(&acc, &clock, &registry.counters(), wall_ns);
    layers.insert("campaign.csv_s".to_owned(), secs(csv_ns));
    Ok(Traced {
        layers,
        outputs: vec![("failcdf.csv".to_owned(), false)],
        wall_s: secs(wall_ns),
    })
}

/// The checkpoint fingerprint the CLI stores for a default-criterion
/// kernel-mode fig8 run.
fn fig8_fingerprint(opts: &RunOptions) -> Vec<(String, String)> {
    [
        ("command", "fig8".to_owned()),
        ("seed", opts.seed.to_string()),
        ("pages", opts.pages.to_string()),
        ("trials", opts.trials.to_string()),
        ("page_bytes", opts.page_bytes.to_string()),
        ("criterion", "per-event-split:1".to_owned()),
        ("predicate_mode", "kernel".to_owned()),
        ("target_rse", "none".to_owned()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

/// `fig8 --telemetry --series --status --checkpoint-every N` through the
/// chunked campaign driver, with the CLI's sidecars and span skeleton so
/// the deterministic stream and the series sidecar can be compared.
fn fig8_campaign(opts: &RunOptions, every: usize, out: &Path) -> io::Result<Traced> {
    let clock = Arc::new(PolicyClock::default());
    let tracer = Tracer::with_default_capacity();
    let mut acc = Acc::default();
    let dir = telemetry::dir(out);
    let run_id = telemetry::default_run_id("fig8", opts.seed);
    let started = Instant::now();
    let tel = RunTelemetry::create(&run_id, &dir)?;
    let series = SeriesWriter::create(&run_id, &dir, 0)?;
    let status = StatusWriter::create(&run_id, &dir)?;
    status.set_backend(
        bitblock::simd::backend_name(),
        pcm_sim::montecarlo::eval_lanes() as u64,
    );
    let specs: Vec<UnitSpec> = checkpoint::fig8_unit_specs(opts)
        .into_iter()
        .map(|spec| UnitSpec {
            label: spec.label,
            cfg: spec.cfg,
            policy: Box::new(TimedPolicy::new(spec.policy, &clock)),
        })
        .collect();
    status.set_total_pages((specs.len() * opts.pages) as u64);

    // One campaign-wide cache holds every fraction's chip, as the
    // campaign driver's own cache does.
    let cache = TimelineCache::new();
    let mut prefilled = 0u64;
    for percent in fig8::FIG8_PARTIAL_PERCENTS {
        let cfg = opts.sim_config_partial(fig8::FIG8_BLOCK_BITS, percent as f64 / 100.0);
        let (events, bytes) = acc.prefill(&cache, &cfg);
        let schemes = specs
            .iter()
            .filter(|s| s.cfg.partial_fraction.to_bits() == cfg.partial_fraction.to_bits())
            .count();
        acc.events_delivered += events * schemes as u64;
        acc.retained_peak += bytes;
        prefilled += cfg.pages as u64;
    }

    let interrupted = AtomicBool::new(false);
    let ctl = CheckpointCtl {
        path: dir.join(format!("{run_id}.ckpt.json")),
        every,
        interrupted: &interrupted,
        resume: None,
        fingerprint: fig8_fingerprint(opts),
        target_rse: None,
    };
    let observer = RunObserver {
        registry: Some(tel.registry()),
        tracer: Some(&tracer),
        series: Some(&series),
        status: Some(&status),
        timelines: Some(&cache),
        progress: None,
    };
    let units = {
        let _span = tel.span("fig8.montecarlo")?;
        let _campaign = tracer.span("campaign");
        checkpoint::run_units_checkpointed(&specs, opts.pages, &observer, &ctl)?
            .ok_or_else(|| io::Error::other("campaign stopped early"))?
    };
    acc.close_cache(&cache, prefilled)?;
    // The last snapshot written: the registry and series cursor have not
    // moved since, so this is byte for byte what the driver stored.
    let registry = tel.registry();
    let last_snapshot = Checkpoint {
        every: every.max(1),
        fingerprint: ctl.fingerprint.clone(),
        counters: registry.counters(),
        volatile: registry.volatile_counters(),
        histograms: registry.histograms(),
        series: series.cursor(),
        units: units.clone(),
    }
    .to_json()
    .len();
    let runs: Vec<_> = units.into_iter().map(|unit| unit.run).collect();
    let csv_started = Instant::now();
    fig8::write_csv(&fig8::assemble(&runs), out)?;
    let csv_ns = nanos(csv_started);
    let probe_ns = {
        let _span = tel.span("codec-probe")?;
        let probing = Instant::now();
        telemetry::codec_probe(registry, opts.seed);
        nanos(probing)
    };
    let counters = registry.counters();
    series.finish()?;
    status.mark(RunState::Done);
    let manifest = tel.finish()?;
    let wall_ns = nanos(started);

    let log = tracer.finish("perfbench").expect("tracer is enabled");
    acc.absorb_trace(&log)?;
    let gaps = campaign_gaps(&log, opts.pages.div_ceil(every.max(1)));
    let mut layers = common_layers(&acc, &clock, &counters, wall_ns);
    let series_bytes = std::fs::metadata(dir.join(format!("{run_id}.series.jsonl")))?.len();
    #[allow(clippy::cast_precision_loss)]
    for (name, value) in [
        ("campaign.snapshots", gaps.chunks as f64),
        ("campaign.snapshot_s", secs(gaps.snapshot_ns)),
        ("campaign.snapshot_bytes", last_snapshot as f64),
        ("campaign.csv_s", secs(csv_ns)),
        ("telemetry.barrier_s", secs(gaps.barrier_ns)),
        ("telemetry.series_bytes", series_bytes as f64),
        ("telemetry.stream_events", manifest.events as f64),
        ("telemetry.codec_probe_s", secs(probe_ns)),
    ] {
        layers.insert(name.to_owned(), value);
    }
    Ok(Traced {
        layers,
        outputs: vec![
            ("fig8.csv".to_owned(), false),
            (format!("telemetry/{run_id}.jsonl"), true),
            (format!("telemetry/{run_id}.series.jsonl"), true),
        ],
        wall_s: secs(wall_ns),
    })
}

/// The campaign driver's own main-thread time, split from the gaps between
/// its engine chunks.
#[derive(Default)]
struct Gaps {
    /// Engine chunks run (one snapshot each).
    chunks: u64,
    /// Time attributed to writing snapshots.
    snapshot_ns: u64,
    /// Time attributed to unit barriers (series sample, status fold).
    barrier_ns: u64,
}

/// Splits the gap after each engine chunk: a gap after a unit's last
/// chunk holds a barrier and a snapshot, any other gap a snapshot only,
/// so a unit's barrier costs its last gap minus its mean snapshot gap.
fn campaign_gaps(log: &TraceLog, chunks_per_unit: usize) -> Gaps {
    let Some(campaign) = log.spans.iter().find(|s| s.name == "campaign") else {
        return Gaps::default();
    };
    let mut chunks: Vec<_> = log
        .spans
        .iter()
        .filter(|s| s.worker == 0 && s.parent == Some(campaign.id) && s.name.starts_with("mc."))
        .collect();
    chunks.sort_by_key(|s| s.start_ns);
    let end = campaign.start_ns + campaign.dur_ns;
    let gaps: Vec<u64> = chunks
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let next = chunks.get(i + 1).map_or(end, |n| n.start_ns);
            next.saturating_sub(s.start_ns + s.dur_ns)
        })
        .collect();
    let mut out = Gaps {
        chunks: chunks.len() as u64,
        ..Gaps::default()
    };
    for unit in gaps.chunks(chunks_per_unit.max(1)) {
        let (last, rest) = unit.split_last().expect("chunks are never empty");
        let snapshot = if rest.is_empty() {
            *last
        } else {
            rest.iter().sum::<u64>() / rest.len() as u64
        };
        out.barrier_ns += last.saturating_sub(snapshot);
        out.snapshot_ns += unit.iter().sum::<u64>() - last.saturating_sub(snapshot);
    }
    out
}

/// Fixed per-run set-up of a workload, in seconds: `(schemes, sidecars)`.
///
/// Times the public constructors the CLI calls before its first page or
/// block: SIMD detection and lane width, the workload's scheme set (ROM,
/// GF(2^m) and partition tables), and, for the fig8 campaign, opening
/// the telemetry, series and status sidecars under `out`.
///
/// # Errors
///
/// Propagates sidecar I/O errors.
pub fn setup(params: &Params, out: &Path) -> io::Result<(f64, f64)> {
    let started = Instant::now();
    std::hint::black_box(bitblock::simd::backend_name());
    std::hint::black_box(pcm_sim::montecarlo::eval_lanes());
    let policies = match params.workload {
        Workload::Fig5Sweep => [256, 512]
            .into_iter()
            .flat_map(schemes::fig5_schemes)
            .collect(),
        Workload::BlockTrials => schemes::failcdf_schemes(),
        Workload::Fig8Campaign => checkpoint::fig8_unit_specs(&params.opts)
            .into_iter()
            .map(|spec| spec.policy)
            .collect::<Vec<_>>(),
    };
    let schemes_ns = nanos(started);
    std::hint::black_box(&policies);
    let opening = Instant::now();
    if params.workload == Workload::Fig8Campaign {
        let dir = telemetry::dir(out);
        let run_id = telemetry::default_run_id("fig8", params.opts.seed);
        let sidecars = (
            RunTelemetry::create(&run_id, &dir)?,
            SeriesWriter::create(&run_id, &dir, 0)?,
            StatusWriter::create(&run_id, &dir)?,
        );
        std::hint::black_box(&sidecars);
    }
    Ok((secs(schemes_ns), secs(nanos(opening))))
}

/// Compares the files a CLI run wrote under `candidate` with the replay's
/// under `reference`; returns one message per mismatch.
#[must_use]
pub fn compare(reference: &Path, candidate: &Path, outputs: &[(String, bool)]) -> Vec<String> {
    let read = |dir: &Path, file: &str, strip: bool| -> Result<String, String> {
        let text = std::fs::read_to_string(dir.join(file))
            .map_err(|err| format!("{}: {err}", dir.join(file).display()))?;
        Ok(if strip {
            sim_telemetry::strip_volatile(&text)
        } else {
            text
        })
    };
    outputs
        .iter()
        .filter_map(|(file, strip)| {
            match (read(reference, file, *strip), read(candidate, file, *strip)) {
                (Ok(want), Ok(got)) if want == got => None,
                (Ok(_), Ok(_)) => Some(format!("{}: {file} differs", candidate.display())),
                (Err(err), _) | (_, Err(err)) => Some(err),
            }
        })
        .collect()
}
