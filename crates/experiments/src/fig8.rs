//! Figure 8: masking redundancy vs lifetime at matched metadata overhead,
//! swept over the partially-stuck cell fraction.
//!
//! The information-theoretic comparator families (additive masking and
//! the partitioned linear code; see `aegis_baselines`) trade redundancy
//! very differently from the pointer/partition schemes: a masking
//! row-block buys capability against *any* ≤ 2t faults, while a pointer
//! buys exactly one repaired cell. This figure sweeps the masking
//! redundancy Mask2–Mask6 against ECP6, both 60-bit PLBC allocations and
//! an Aegis reference — all within a couple of bits of each other — and
//! repeats the comparison with 0%, 25% and 50% of dying cells only
//! *partially* stuck (they still take the written value with probability
//! q = 1/2 per write; see `pcm_sim::Stuckness`).
//!
//! One Monte Carlo unit is a `(partial-stuck fraction, scheme)` pair over
//! the full chip; units are keyed `"{scheme}#p{percent}"` in telemetry,
//! checkpoints and shard sidecars. Every unit at one fraction sees the
//! identical fault timelines (common random numbers), and the whole
//! figure composes with `--threads`, `--checkpoint-every`/`--resume`, and
//! `shard`/`merge` byte-identically — pinned in `tests/determinism.rs`
//! and the CLI suite.

use crate::campaign::{self, fig8_unit_specs};
use crate::csvout;
use crate::runner::{RunObserver, RunOptions, SchemeSummary};
use crate::schemes::{self, Policy};
use pcm_sim::montecarlo::MemoryRun;
use std::io;
use std::path::Path;

/// Figure 8 runs 512-bit blocks only (where the budgets align).
pub const FIG8_BLOCK_BITS: usize = 512;

/// The partially-stuck fractions the figure sweeps, as percentages.
pub const FIG8_PARTIAL_PERCENTS: [usize; 3] = [0, 25, 50];

/// The stable unit key of one `(scheme, fraction)` Monte Carlo unit —
/// used as the telemetry scheme label and the checkpoint/shard unit name.
#[must_use]
pub fn unit_label(scheme: &str, percent: usize) -> String {
    format!("{scheme}#p{percent}")
}

/// The figure's Monte Carlo units in fixed order (fraction major, scheme
/// set order minor): `(partial-stuck percent, policy)`.
#[must_use]
pub fn units() -> Vec<(usize, Policy)> {
    FIG8_PARTIAL_PERCENTS
        .into_iter()
        .flat_map(|percent| {
            schemes::fig8_schemes()
                .into_iter()
                .map(move |policy| (percent, policy))
        })
        .collect()
}

/// Results: one summary row per scheme per partially-stuck fraction.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// `(partial-stuck percent, per-scheme summaries)` in sweep order.
    pub by_fraction: Vec<(usize, Vec<SchemeSummary>)>,
}

/// Folds per-unit raw runs (in [`units`] order) into the figure results.
///
/// # Panics
///
/// Panics if `runs` does not match the unit list length.
#[must_use]
pub fn assemble(runs: &[MemoryRun]) -> Fig8 {
    let specs = units();
    assert_eq!(runs.len(), specs.len(), "unit/run count mismatch");
    let mut by_fraction: Vec<(usize, Vec<SchemeSummary>)> = Vec::new();
    for ((percent, policy), run) in specs.iter().zip(runs) {
        let summary = SchemeSummary::from_run(policy.as_ref(), run);
        match by_fraction.last_mut() {
            Some((p, summaries)) if p == percent => summaries.push(summary),
            _ => by_fraction.push((*percent, vec![summary])),
        }
    }
    Fig8 { by_fraction }
}

/// Runs the Figure 8 sweep.
#[must_use]
pub fn run(opts: &RunOptions) -> Fig8 {
    run_with(opts, &RunObserver::default())
}

/// [`run`] with telemetry/progress observation.
///
/// Each fraction's units run as one page-major pass, so every page is
/// sampled once per fraction and judged by the whole scheme set.
#[must_use]
pub fn run_with(opts: &RunOptions, observer: &RunObserver<'_>) -> Fig8 {
    assemble(&campaign::run_specs(
        &fig8_unit_specs(opts),
        opts.pages,
        observer,
    ))
}

/// Renders the sweep as one table per partially-stuck fraction.
#[must_use]
pub fn report(results: &Fig8) -> String {
    let mut out = String::from(
        "Figure 8: masking redundancy vs lifetime at matched overhead (512-bit blocks)\n",
    );
    for (percent, summaries) in &results.by_fraction {
        out.push_str(&format!("\n-- partially-stuck fraction {percent}% --\n"));
        out.push_str(&format!(
            "{:<12} {:>5} {:>13} {:>9} {:>15}\n",
            "scheme", "bits", "improvement", "±95%", "half-lifetime"
        ));
        for s in summaries {
            out.push_str(&format!(
                "{:<12} {:>5} {:>12}x {:>9} {:>15.3e}\n",
                s.name,
                s.overhead_bits,
                csvout::fmt_f64(s.lifetime_improvement),
                csvout::fmt_f64(s.improvement_ci95()),
                s.half_lifetime
            ));
        }
    }
    out
}

/// Writes `fig8.csv`: long format over the full sweep.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(results: &Fig8, out_dir: &Path) -> io::Result<()> {
    let mut rows = Vec::new();
    for (percent, summaries) in &results.by_fraction {
        for s in summaries {
            rows.push(vec![
                percent.to_string(),
                s.name.clone(),
                s.overhead_bits.to_string(),
                format!("{:.4}", s.mean_faults_recovered),
                format!("{:.4}", s.lifetime_improvement),
                format!("{:.1}", s.half_lifetime),
                format!("{:.4}", s.improvement_ci95()),
                format!("{:.4}", s.lifetime_rse),
            ]);
        }
    }
    csvout::write_csv(
        out_dir.join("fig8.csv"),
        &[
            "partial_pct",
            "scheme",
            "overhead_bits",
            "mean_recoverable_faults",
            "lifetime_improvement_x",
            "half_lifetime_page_writes",
            "ci95_half_width",
            "rse",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::montecarlo::FailureCriterion;

    fn tiny() -> RunOptions {
        RunOptions {
            pages: 3,
            trials: 10,
            seed: 8,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        }
    }

    #[test]
    fn unit_list_is_fraction_major() {
        let specs = units();
        assert_eq!(
            specs.len(),
            FIG8_PARTIAL_PERCENTS.len() * schemes::fig8_schemes().len()
        );
        assert_eq!(specs[0].0, 0);
        assert_eq!(specs.last().unwrap().0, 50);
        assert_eq!(unit_label(&specs[0].1.name(), specs[0].0), "ECP6#p0");
    }

    #[test]
    fn sweep_covers_every_fraction_and_masking_grows_with_t() {
        let results = run(&tiny());
        assert_eq!(results.by_fraction.len(), FIG8_PARTIAL_PERCENTS.len());
        for (percent, summaries) in &results.by_fraction {
            assert!(FIG8_PARTIAL_PERCENTS.contains(percent));
            assert_eq!(summaries.len(), schemes::fig8_schemes().len());
            let mask = |t: usize| {
                summaries
                    .iter()
                    .find(|s| s.name == format!("Mask{t}"))
                    .unwrap()
            };
            // More masking redundancy never hurts (Mask t ⊆ Mask t+1 is a
            // per-split theorem; means inherit it under common random
            // numbers).
            for t in 2..6 {
                assert!(
                    mask(t + 1).mean_lifetime >= mask(t).mean_lifetime,
                    "p={percent}: Mask{} < Mask{t}",
                    t + 1
                );
            }
        }
    }

    #[test]
    fn report_and_rerun_are_deterministic() {
        let a = report(&run(&tiny()));
        let b = report(&run(&tiny()));
        assert_eq!(a, b);
        assert!(a.contains("partially-stuck fraction 25%"));
        assert!(a.contains("Mask6"));
        assert!(a.contains("PLC4+2"));
    }
}
