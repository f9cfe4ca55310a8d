//! The campaign executor: the one path from a figure's Monte Carlo units
//! to the page-major engine.
//!
//! A campaign is a list of units — one policy over one chip configuration
//! under a stable label — and a range of global pages. [`execute`] runs
//! each chip configuration's units together as page-major chunks
//! ([`montecarlo::run_memory_pass`]): every page of a chunk is sampled once
//! and judged by every active unit of that configuration.
//!
//! - A straight run is one chunk per configuration and writes nothing.
//! - `--checkpoint-every N` cuts each configuration into `N`-page chunks
//!   and writes a snapshot after every chunk; `--resume` continues one.
//! - A shard is the page range `lo..hi`.
//! - `--target-rse` drops a converged unit from the active slice at a
//!   chunk barrier.
//!
//! Whatever the chunking, the deterministic outputs are those of the units
//! run one after another over the whole range. Each unit's `mc.*` and
//! `pool.*` metrics are staged in a registry of its own and absorbed into
//! the run registry at that unit's barrier, and barriers fire in slice
//! order: a unit that finishes before an earlier one waits for it.

use crate::checkpoint::{Checkpoint, CheckpointCtl, UnitProgress};
use crate::fig8;
use crate::runner::{unit_estimates, RunObserver, RunOptions};
use crate::schemes::{self, Policy};
use pcm_sim::montecarlo::{self, McTelemetry, MemoryRun, PassHooks, SimConfig};
use pcm_sim::policy::RecoveryPolicy;
use sim_telemetry::{split_metric, Registry, RunState, SeriesWriter};
use std::io;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// One Monte Carlo unit of a campaign: a policy over an explicit chip
/// configuration under a stable label. fig5/6/7 units differ in block
/// size; fig8 units differ in partially-stuck fraction (the label carries
/// the `#p<percent>` suffix).
pub struct UnitSpec {
    /// Stable unit key (telemetry scheme label and checkpoint unit name).
    pub label: String,
    /// Chip configuration this unit simulates.
    pub cfg: SimConfig,
    /// The policy under evaluation.
    pub policy: Policy,
}

impl UnitSpec {
    /// The borrowed view [`execute`] takes.
    #[must_use]
    pub fn unit(&self) -> Unit<'_> {
        Unit {
            label: &self.label,
            cfg: &self.cfg,
            policy: self.policy.as_ref(),
        }
    }
}

/// A borrowed [`UnitSpec`], so callers that keep their policies elsewhere
/// need not move them into specs.
#[derive(Clone, Copy)]
pub struct Unit<'a> {
    /// Telemetry, progress and checkpoint name of the unit.
    pub(crate) label: &'a str,
    /// Chip configuration; consecutive units with equal configurations
    /// share a page-major pass.
    pub(crate) cfg: &'a SimConfig,
    /// The policy under evaluation.
    pub(crate) policy: &'a dyn RecoveryPolicy,
}

impl Unit<'_> {
    /// `<label>#<block_bits>`: unique within a campaign even where fig5
    /// repeats a label at both widths. It keys the unit's estimates and
    /// its staged metrics.
    fn key(&self) -> String {
        format!("{}#{}", self.label, self.cfg.block_bits)
    }
}

/// The fig5/6/7 campaign's unit specs, in unit order: the 256-bit set,
/// then the 512-bit set.
#[must_use]
pub fn fig567_unit_specs(opts: &RunOptions, scalar: bool) -> Vec<UnitSpec> {
    [256, 512]
        .into_iter()
        .flat_map(|bits| {
            let cfg = opts.sim_config(bits);
            let set = if scalar {
                schemes::fig5_schemes_scalar(bits)
            } else {
                schemes::fig5_schemes(bits)
            };
            set.into_iter().map(move |policy| UnitSpec {
                label: policy.name(),
                cfg,
                policy,
            })
        })
        .collect()
}

/// The fig8 campaign's unit specs, in unit order (fraction major).
#[must_use]
pub fn fig8_unit_specs(opts: &RunOptions) -> Vec<UnitSpec> {
    fig8::units()
        .into_iter()
        .map(|(percent, policy)| UnitSpec {
            label: fig8::unit_label(&policy.name(), percent),
            cfg: opts.sim_config_partial(fig8::FIG8_BLOCK_BITS, percent as f64 / 100.0),
            policy,
        })
        .collect()
}

/// [`execute`] without snapshots: a straight run over `0..pages` or a
/// shard's stripe. It does no I/O and is never interrupted.
#[must_use]
pub fn run(
    units: &[Unit<'_>],
    pages: Range<usize>,
    observer: &RunObserver<'_>,
) -> Vec<UnitProgress> {
    execute(units, pages, observer, None)
        .expect("a run without snapshots does no I/O")
        .expect("only a checkpointed run stops early")
}

/// Runs `units` over the global pages `pages` and returns each unit's
/// progress in slice order, or `None` when a pending SIGINT stopped a
/// checkpointed run at a chunk barrier. The snapshot at
/// [`CheckpointCtl::path`] then holds everything `--resume` needs.
///
/// Consecutive units with equal chip configurations form a group, and a
/// group runs before the next. Each chunk is one page-major pass over the
/// group's active units at the lowest page cursor, so snapshots with
/// ragged cursors (one unit ahead of another) catch up before they share
/// a pass. Without `ctl` a group is one chunk and nothing is written. With
/// it:
/// - chunks are `ctl.every` pages and a snapshot follows each one;
/// - `ctl.resume` seeds progress and metrics;
/// - `ctl.target_rse` stops a unit at the first chunk barrier where it
///   holds;
/// - the snapshot file is removed once every unit is done.
///
/// # Errors
///
/// Snapshot I/O errors pass through. A resume snapshot whose unit list
/// disagrees with `units`, or whose unit covers more pages than the range,
/// is [`io::ErrorKind::InvalidData`].
pub fn execute(
    units: &[Unit<'_>],
    pages: Range<usize>,
    observer: &RunObserver<'_>,
    ctl: Option<&CheckpointCtl<'_>>,
) -> io::Result<Option<Vec<UnitProgress>>> {
    let total = pages.len();
    let every = ctl.map_or(total, |ctl| ctl.every).max(1);
    let target_rse = ctl.and_then(|ctl| ctl.target_rse);
    // A unit is finished at the end of the range or when `--target-rse`
    // holds. The predicate is a pure function of the pages so far,
    // evaluated at chunk barriers only, so a resumed run that finds it
    // holding at the stored grid point knows the original run stopped the
    // unit exactly there.
    let finished = |unit: &UnitProgress| {
        unit.pages_done >= total
            || target_rse.is_some_and(|target| unit.run.lifetime_moments().converged(target))
    };
    let keys: Vec<String> = units.iter().map(Unit::key).collect();
    let staging: Vec<Registry> = match observer.registry {
        Some(registry) if registry.is_enabled() => units.iter().map(|_| Registry::new()).collect(),
        _ => Vec::new(),
    };
    let telemetry: Vec<McTelemetry> = staging
        .iter()
        .zip(&keys)
        .map(|(registry, key)| McTelemetry::for_scheme(registry, key))
        .collect();
    let mut progress: Vec<UnitProgress> = units
        .iter()
        .map(|unit| UnitProgress {
            block_bits: unit.cfg.block_bits,
            scheme: unit.label.to_owned(),
            pages_done: 0,
            run: MemoryRun::default(),
        })
        .collect();
    // Barriers fire in slice order, so the units whose barrier fired are
    // always the longest finished prefix.
    let mut barriered = 0;
    if let Some(resume) = ctl.and_then(|ctl| ctl.resume.as_ref()) {
        adopt(&mut progress, resume, total)?;
        barriered = progress.iter().take_while(|unit| finished(unit)).count();
        // A unit whose barrier has not fired gets its staged metrics back;
        // everything else, including the partial unit of a unit-major
        // snapshot (whose barrier is the next to fire), is the run's.
        if let Some(registry) = observer.registry {
            resume.restore_metrics(|name| {
                let label = split_metric(name).map(|(_, label, _)| label);
                keys.iter()
                    .zip(&staging)
                    .skip(barriered)
                    .find(|(key, _)| Some(key.as_str()) == label)
                    .map_or(registry, |(_, staged)| staged)
            });
        }
        // Fold the barriered units into the status base so the heartbeat
        // reports global progress; the engine reports unit-global
        // positions for the rest.
        if let Some(status) = observer.status {
            for unit in &progress[..barriered] {
                status.complete_unit(unit.pages_done as u64);
            }
        }
    }

    let snapshot = |progress: &[UnitProgress], barriered: usize| {
        let metrics = Registry::new();
        for staged in observer
            .registry
            .into_iter()
            .chain(&staging[barriered.min(staging.len())..])
        {
            metrics.absorb(staged);
        }
        Checkpoint {
            every,
            fingerprint: ctl.map(|ctl| ctl.fingerprint.clone()).unwrap_or_default(),
            counters: metrics.counters(),
            volatile: metrics.volatile_counters(),
            histograms: metrics.histograms(),
            series: observer
                .series
                .map(SeriesWriter::cursor)
                .unwrap_or_default(),
            units: progress.to_vec(),
        }
    };
    let mark = |state: RunState| {
        if let Some(status) = observer.status {
            status.mark(state);
        }
    };
    let interrupted = || ctl.filter(|ctl| ctl.interrupted.load(Ordering::SeqCst));
    // Absorbs each finished unit's staged metrics under its label and
    // closes it, in slice order; returns the new barrier count.
    let fire_barriers = |progress: &[UnitProgress], mut barriered: usize| {
        while barriered < units.len() && finished(&progress[barriered]) {
            if let (Some(registry), Some(staged)) = (observer.registry, staging.get(barriered)) {
                absorb_staged(registry, staged, &keys[barriered], units[barriered].label);
            }
            let unit = &progress[barriered];
            observer.unit_barrier_with(
                unit.pages_done as u64,
                &unit_estimates(&unit.scheme, unit.block_bits, &unit.run),
            );
            barriered += 1;
        }
        barriered
    };

    let mut group_start = 0;
    for group in units.chunk_by(|a, b| a.cfg == b.cfg) {
        let group = group_start..group_start + group.len();
        group_start = group.end;
        loop {
            let pending = |i: &usize| !finished(&progress[*i]);
            let Some(cursor) = group
                .clone()
                .filter(pending)
                .map(|i| progress[i].pages_done)
                .min()
            else {
                break;
            };
            if let Some(ctl) = interrupted() {
                snapshot(&progress, barriered).store(&ctl.path)?;
                mark(RunState::Interrupted);
                return Ok(None);
            }
            let slice: Vec<usize> = group
                .clone()
                .filter(|i| pending(i) && progress[*i].pages_done == cursor)
                .collect();
            let end = (cursor + every).min(total);
            let runs = run_pass(
                units,
                &slice,
                &telemetry,
                observer,
                pages.start + cursor..pages.start + end,
            );
            for (&i, part) in slice.iter().zip(runs) {
                let acc = &mut progress[i];
                acc.run.page_lifetimes.extend(part.page_lifetimes);
                acc.run
                    .unprotected_lifetimes
                    .extend(part.unprotected_lifetimes);
                acc.run.faults_recovered.extend(part.faults_recovered);
                acc.run.capped_pages += part.capped_pages;
                acc.pages_done = end;
            }
            // The barriers precede the snapshot so its series cursor covers
            // the samples they just wrote.
            barriered = fire_barriers(&progress, barriered);
            if let Some(ctl) = ctl {
                snapshot(&progress, barriered).store(&ctl.path)?;
                mark(RunState::Checkpointed);
            }
        }
    }
    // Units that never needed a chunk (an empty stripe) close here.
    barriered = fire_barriers(&progress, barriered);
    debug_assert_eq!(barriered, units.len());
    if let Some(ctl) = interrupted() {
        // A SIGINT after the last chunk still stops the run: reports and
        // CSVs are skipped and the final snapshot covers everything.
        snapshot(&progress, barriered).store(&ctl.path)?;
        mark(RunState::Interrupted);
        return Ok(None);
    }
    if let Some(ctl) = ctl {
        match std::fs::remove_file(&ctl.path) {
            Ok(()) => {}
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => return Err(err),
        }
    }
    Ok(Some(progress))
}

/// Seeds `progress` from a resume snapshot after checking that it
/// describes the same units and fits the page range.
fn adopt(progress: &mut [UnitProgress], resume: &Checkpoint, total: usize) -> io::Result<()> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if resume.units.len() != progress.len() {
        return Err(invalid(format!(
            "checkpoint has {} units but this run has {}",
            resume.units.len(),
            progress.len()
        )));
    }
    for (current, stored) in progress.iter_mut().zip(&resume.units) {
        if current.block_bits != stored.block_bits || current.scheme != stored.scheme {
            return Err(invalid(format!(
                "checkpoint unit '{}' ({} bits) does not match expected '{}' ({} bits)",
                stored.scheme, stored.block_bits, current.scheme, current.block_bits
            )));
        }
        if stored.pages_done > total {
            return Err(invalid(format!(
                "checkpoint unit '{}' ({} bits) covers {} pages but this run has {total}",
                stored.scheme, stored.block_bits, stored.pages_done
            )));
        }
        *current = stored.clone();
    }
    Ok(())
}

/// One page-major pass of the units `slice` over the global `pages`,
/// forwarding progress under each unit's label.
fn run_pass(
    units: &[Unit<'_>],
    slice: &[usize],
    telemetry: &[McTelemetry],
    observer: &RunObserver<'_>,
    pages: Range<usize>,
) -> Vec<MemoryRun> {
    let policies: Vec<&dyn RecoveryPolicy> = slice.iter().map(|&i| units[i].policy).collect();
    let telemetry: Vec<McTelemetry> = slice
        .iter()
        .filter_map(|&i| telemetry.get(i).cloned())
        .collect();
    let forward = |unit: usize, done: usize, total: usize| {
        if let Some(report) = observer.progress {
            report(units[slice[unit]].label, done, total);
        }
    };
    let hooks = PassHooks {
        telemetry: &telemetry,
        progress: observer
            .progress
            .map(|_| &forward as &montecarlo::PassProgressFn<'_>),
        tracer: observer.tracer,
        status: observer.status,
        timelines: observer.timelines,
    };
    montecarlo::run_memory_pass(
        &policies,
        units[slice[0]].cfg,
        pages.start,
        pages.end,
        &hooks,
    )
}

/// Adds a unit's staged metrics to `registry`, renaming the staging key
/// back to the unit's label.
fn absorb_staged(registry: &Registry, staged: &Registry, key: &str, label: &str) {
    let rename = |name: &str| match split_metric(name) {
        Some((layer, scheme, metric)) if scheme == key => format!("{layer}.{label}.{metric}"),
        _ => name.to_owned(),
    };
    for (name, value) in staged.counters() {
        registry.counter(&rename(&name)).add(value);
    }
    for (name, value) in staged.volatile_counters() {
        registry.volatile_counter(&rename(&name)).add(value);
    }
    for (name, snap) in staged.histograms() {
        registry.add_histogram_snapshot(&rename(&name), &snap);
    }
}
