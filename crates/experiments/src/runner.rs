//! Shared orchestration: run scheme sets over simulated chips and
//! summarize the metrics the figures report.

use crate::campaign::{self, Unit};
use crate::schemes::Policy;
use pcm_sim::montecarlo::{self, FailureCriterion, MemoryRun, SimConfig};
use pcm_sim::policy::RecoveryPolicy;
use pcm_sim::timeline::TimelineCache;
use sim_telemetry::{Registry, SeriesWriter, StatusWriter, Tracer, UnitEstimate};

/// Knobs shared by every experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Pages per simulated chip (2048 = the paper's 8 MB; default scaled).
    pub pages: usize,
    /// Independent block trials for per-block experiments (Figures 8, 10).
    pub trials: usize,
    /// Master seed: results are fully deterministic given this.
    pub seed: u64,
    /// Block death criterion (see DESIGN.md §3).
    pub criterion: FailureCriterion,
    /// Memory-block ("page") size in bytes. The paper presents 4 KB pages
    /// and reports that 256 B memory blocks "show a similar trend";
    /// both are supported (`--page-bytes`).
    pub page_bytes: usize,
    /// Simulation worker threads (`--threads`); `None` defers to the
    /// `SIM_THREADS` environment variable, then to available parallelism.
    pub threads: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            pages: 256,
            trials: 4000,
            seed: 42,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        }
    }
}

impl RunOptions {
    /// Paper-scale run: the full 8 MB chip and larger block-trial counts.
    #[must_use]
    pub fn full() -> Self {
        Self {
            pages: 2048,
            trials: 20_000,
            ..Self::default()
        }
    }

    /// The chip configuration for a block size.
    #[must_use]
    pub fn sim_config(&self, block_bits: usize) -> SimConfig {
        SimConfig {
            pages: self.pages,
            page_bits: self.page_bytes * 8,
            block_bits,
            criterion: self.criterion,
            seed: self.seed,
            threads: self.threads,
            partial_fraction: 0.0,
        }
    }

    /// [`sim_config`](Self::sim_config) with a partially-stuck cell
    /// fraction (the fig8 sweep axis; `0.0` is the classic model).
    #[must_use]
    pub fn sim_config_partial(&self, block_bits: usize, partial_fraction: f64) -> SimConfig {
        SimConfig {
            partial_fraction,
            ..self.sim_config(block_bits)
        }
    }
}

/// One scheme's aggregate results over a simulated chip — a bar of
/// Figures 5–7 (or 11–13).
#[derive(Debug, Clone)]
pub struct SchemeSummary {
    /// Scheme label as in the paper's figures.
    pub name: String,
    /// Metadata bits per data block.
    pub overhead_bits: usize,
    /// Overhead as a percentage of the data block.
    pub overhead_pct: f64,
    /// Mean recoverable faults per 4 KB page (Figure 5/11).
    pub mean_faults_recovered: f64,
    /// Mean page lifetime in page writes.
    pub mean_lifetime: f64,
    /// Lifetime improvement factor over the unprotected page (Figure 6;
    /// Figure 12 shows `(x−1)·100%`).
    pub lifetime_improvement: f64,
    /// Improvement factor per overhead bit (Figure 7/13).
    pub per_bit_contribution: f64,
    /// Global page writes at which half the chip's pages have died
    /// (Figure 9's summary metric).
    pub half_lifetime: f64,
    /// Pages whose death time was truncated by the event cap (must be 0).
    pub capped_pages: usize,
    /// Half-width of the normal-approximation 95% confidence interval on
    /// `mean_lifetime`, in page writes.
    pub lifetime_ci95: f64,
    /// Relative standard error of the mean lifetime.
    pub lifetime_rse: f64,
    /// Half-width of the 95% confidence interval on
    /// `mean_faults_recovered`.
    pub faults_ci95: f64,
    /// Relative standard error of the mean recoverable-fault count.
    pub faults_rse: f64,
}

impl SchemeSummary {
    /// Builds the summary from a finished run.
    #[must_use]
    pub fn from_run(policy: &dyn RecoveryPolicy, run: &MemoryRun) -> Self {
        let overhead_bits = policy.overhead_bits();
        let improvement = run.lifetime_improvement();
        let lifetime = run.lifetime_moments();
        let faults = run.faults_moments();
        Self {
            name: policy.name(),
            overhead_bits,
            overhead_pct: 100.0 * overhead_bits as f64 / policy.block_bits() as f64,
            mean_faults_recovered: run.mean_faults_recovered(),
            mean_lifetime: run.mean_lifetime(),
            lifetime_improvement: improvement,
            per_bit_contribution: improvement / overhead_bits as f64,
            half_lifetime: montecarlo::half_lifetime(&run.page_lifetimes),
            capped_pages: run.capped_pages,
            lifetime_ci95: lifetime.ci95_half_width(),
            lifetime_rse: lifetime.rse(),
            faults_ci95: faults.ci95_half_width(),
            faults_rse: faults.rse(),
        }
    }

    /// Delta-method 95% CI half-width on `lifetime_improvement`: the
    /// baseline is deterministic (a closed form of the configuration), so
    /// the ratio's uncertainty is the mean-lifetime CI scaled into ratio
    /// units.
    #[must_use]
    pub fn improvement_ci95(&self) -> f64 {
        if self.mean_lifetime > 0.0 {
            self.lifetime_ci95 * self.lifetime_improvement / self.mean_lifetime
        } else {
            0.0
        }
    }

    /// [`improvement_ci95`](Self::improvement_ci95) divided across the
    /// scheme's overhead bits (Figure 7's unit).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn per_bit_ci95(&self) -> f64 {
        if self.overhead_bits > 0 {
            self.improvement_ci95() / self.overhead_bits as f64
        } else {
            0.0
        }
    }
}

/// The estimate set snapshotted at one unit's barrier: lifetime and
/// recoverable-fault moments over the pages processed so far, keyed
/// `<label>#<block_bits>` so the same scheme at two block sizes stays
/// two estimates.
#[must_use]
pub fn unit_estimates(label: &str, block_bits: usize, run: &MemoryRun) -> Vec<UnitEstimate> {
    let unit = format!("{label}#{block_bits}");
    vec![
        UnitEstimate {
            unit: unit.clone(),
            metric: "lifetime",
            moments: run.lifetime_moments(),
        },
        UnitEstimate {
            unit,
            metric: "faults",
            moments: run.faults_moments(),
        },
    ]
}

/// Per-scheme progress callback: `(scheme_name, pages_done, pages_total)`.
/// Called from simulation worker threads.
pub type SchemeProgressFn<'a> = dyn Fn(&str, usize, usize) + Sync + 'a;

/// Observation hooks threaded through every experiment module. The default
/// observes nothing; `run_*_with` entry points accept one of these so the
/// CLI's `--telemetry`/`--progress` flags reach the Monte Carlo engine.
#[derive(Default, Clone, Copy)]
pub struct RunObserver<'a> {
    /// Registry receiving `mc.<scheme>.*` (and codec-probe) metrics.
    pub registry: Option<&'a Registry>,
    /// Per-scheme page-completion callback.
    pub progress: Option<&'a SchemeProgressFn<'a>>,
    /// Wall-clock span collector (`--trace`). Records only to the trace
    /// sidecar, never the deterministic stream.
    pub tracer: Option<&'a Tracer>,
    /// Time-series sidecar (`--series`). Sampled from `registry` at unit
    /// barriers — one `(block_bits, scheme)` Monte Carlo unit completing —
    /// so the sidecar is byte-identical (after volatile stripping) across
    /// thread counts and checkpoint/resume. No-op without a registry.
    pub series: Option<&'a SeriesWriter>,
    /// Live `<run-id>.status.json` heartbeats (`--status`): forwarded to
    /// the engine for page-level progress and folded at unit barriers.
    pub status: Option<&'a StatusWriter>,
    /// Prefilled page-timeline cache, forwarded to
    /// [`montecarlo::PassHooks::timelines`]. The benchmark harness is the
    /// only caller: it prefills one to time sampling apart. ROADMAP item 1
    /// removes it. Results are byte-identical with or without it.
    pub timelines: Option<&'a TimelineCache>,
}

impl<'a> RunObserver<'a> {
    /// An observer feeding `registry` with no progress reporting.
    #[must_use]
    pub fn with_registry(registry: &'a Registry) -> Self {
        Self {
            registry: Some(registry),
            ..Self::default()
        }
    }

    /// Marks one Monte Carlo unit of `pages` pages complete: samples the
    /// time-series sidecar from the registry and folds the pages into the
    /// status heartbeat's base count. The campaign executor calls it at
    /// every unit barrier, in unit order, once the unit's last chunk lands,
    /// keeping the sidecars identical however the run is chunked.
    pub fn unit_barrier(&self, pages: u64) {
        self.unit_barrier_with(pages, &[]);
    }

    /// [`unit_barrier`](Self::unit_barrier) carrying the completed unit's
    /// statistical estimates: they ride into the series sidecar (one
    /// `series_estimate` line per metric, before the volatile tail) and
    /// replace the status heartbeat's estimate table. The deterministic
    /// event stream is never touched — estimates live only in sidecars,
    /// so enabling them cannot perturb the byte-identity contract.
    pub fn unit_barrier_with(&self, pages: u64, estimates: &[UnitEstimate]) {
        if let (Some(series), Some(registry)) = (self.series, self.registry) {
            let _ = series.advance_with(registry, pages, estimates);
        }
        if let Some(status) = self.status {
            if !estimates.is_empty() {
                status.set_estimates(estimates);
            }
            status.complete_unit(pages);
        }
    }
}

/// Runs every policy over the same simulated chip (identical timelines) and
/// summarizes each.
#[must_use]
pub fn summarize_schemes(
    policies: &[Policy],
    block_bits: usize,
    opts: &RunOptions,
) -> Vec<SchemeSummary> {
    summarize_schemes_with(policies, block_bits, opts, &RunObserver::default())
}

/// [`summarize_schemes`] with telemetry/progress observation.
#[must_use]
pub fn summarize_schemes_with(
    policies: &[Policy],
    block_bits: usize,
    opts: &RunOptions,
    observer: &RunObserver<'_>,
) -> Vec<SchemeSummary> {
    let set: Vec<&dyn RecoveryPolicy> = policies.iter().map(AsRef::as_ref).collect();
    run_policies(&set, &opts.sim_config(block_bits), observer)
        .iter()
        .zip(&set)
        .map(|(run, &policy)| SchemeSummary::from_run(policy, run))
        .collect()
}

/// Runs every policy over the whole chip of `cfg` as one campaign (see
/// [`campaign::execute`]), each unit labeled by its policy's name.
pub(crate) fn run_policies(
    policies: &[&dyn RecoveryPolicy],
    cfg: &SimConfig,
    observer: &RunObserver<'_>,
) -> Vec<MemoryRun> {
    let labels: Vec<String> = policies.iter().map(|policy| policy.name()).collect();
    let units: Vec<Unit<'_>> = policies
        .iter()
        .zip(&labels)
        .map(|(&policy, label)| Unit { label, cfg, policy })
        .collect();
    campaign::run(&units, 0..cfg.pages, observer)
        .into_iter()
        .map(|unit| unit.run)
        .collect()
}

/// Runs one policy and returns the raw chip run (for survival curves).
#[must_use]
pub fn run_chip(policy: &Policy, block_bits: usize, opts: &RunOptions) -> MemoryRun {
    run_chip_with(policy, block_bits, opts, &RunObserver::default())
}

/// [`run_chip`] with telemetry/progress observation.
#[must_use]
pub fn run_chip_with(
    policy: &Policy,
    block_bits: usize,
    opts: &RunOptions,
    observer: &RunObserver<'_>,
) -> MemoryRun {
    run_policies(&[policy.as_ref()], &opts.sim_config(block_bits), observer)
        .pop()
        .expect("a campaign returns one run per unit")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes;

    #[test]
    fn summaries_are_deterministic_and_sane() {
        let opts = RunOptions {
            pages: 4,
            trials: 10,
            seed: 7,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        };
        let policies = vec![schemes::ecp(6, 512), schemes::aegis(23, 23, 512)];
        let a = summarize_schemes(&policies, 512, &opts);
        let b = summarize_schemes(&policies, 512, &opts);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean_faults_recovered, y.mean_faults_recovered);
            assert_eq!(x.half_lifetime, y.half_lifetime);
        }
        for s in &a {
            assert!(
                s.lifetime_improvement >= 1.0,
                "{}: {}",
                s.name,
                s.lifetime_improvement
            );
            assert!(s.mean_faults_recovered > 0.0);
            assert_eq!(s.capped_pages, 0);
        }
    }

    #[test]
    fn full_options_match_paper_scale() {
        let full = RunOptions::full();
        assert_eq!(full.pages, 2048);
        let cfg = full.sim_config(512);
        assert_eq!(cfg.blocks_per_page(), 64);
    }
}
