//! Figure 10: Aegis-rw-p block lifetime vs pointer count, per formation.

use crate::csvout;
use crate::runner::RunOptions;
use crate::schemes;
use pcm_sim::montecarlo::block_trials;
use pcm_sim::policy::RecoveryPolicy;
use std::io;
use std::path::Path;

/// Pointer counts swept, matching the x-axis of the paper's Figure 10.
pub const POINTER_SWEEP: std::ops::RangeInclusive<usize> = 1..=12;

/// One formation's lifetime-vs-pointers series.
#[derive(Debug, Clone)]
pub struct FormationSweep {
    /// Formation label, e.g. `"17x31"`.
    pub formation: String,
    /// `(pointer count, mean 512-bit-block lifetime in block writes)`.
    pub series: Vec<(usize, f64)>,
}

/// Runs the sweep: independent blocks, each sampled once and evaluated
/// under every (formation, p).
#[must_use]
pub fn run(opts: &RunOptions) -> Vec<FormationSweep> {
    let formations = schemes::variant_formations();
    let set: Vec<_> = formations
        .iter()
        .flat_map(|&(a, b)| schemes::aegis_rw_p_sweep(a, b, 512, POINTER_SWEEP))
        .collect();
    let policies: Vec<&dyn RecoveryPolicy> = set.iter().map(AsRef::as_ref).collect();
    // Per policy: the sum of the dead blocks' lifetimes, added in trial
    // order exactly as `stats::mean` would, and their count.
    let mut dead = vec![(0.0f64, 0usize); policies.len()];
    block_trials(
        &policies,
        opts.criterion,
        opts.trials,
        opts.seed,
        opts.threads,
        |trial| {
            for ((sum, count), outcome) in dead.iter_mut().zip(trial) {
                if let Some(t) = outcome.death_time {
                    *sum += t;
                    *count += 1;
                }
            }
        },
    );
    formations
        .iter()
        .zip(dead.chunks(POINTER_SWEEP.count()))
        .map(|(&(a, b), dead)| FormationSweep {
            formation: format!("{a}x{b}"),
            // No dead block leaves 0/0 = NaN, as `stats::mean` reports.
            series: POINTER_SWEEP
                .zip(dead)
                .map(|(p, &(sum, count))| (p, sum / count as f64))
                .collect(),
        })
        .collect()
}

/// Renders the sweep as a pointers × formation table.
#[must_use]
pub fn report(results: &[FormationSweep]) -> String {
    let mut out =
        String::from("Figure 10: Aegis-rw-p 512-bit block lifetime (writes) vs pointer count\n\n");
    out.push_str(&format!("{:<4}", "p"));
    for f in results {
        out.push_str(&format!("{:>14}", f.formation));
    }
    out.push('\n');
    for (i, &(p, _)) in results[0].series.iter().enumerate() {
        out.push_str(&format!("{p:<4}"));
        for f in results {
            out.push_str(&format!("{:>14.4e}", f.series[i].1));
        }
        out.push('\n');
    }
    out
}

/// Writes `fig10.csv`: long format `(formation, pointers, mean lifetime)`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(results: &[FormationSweep], out_dir: &Path) -> io::Result<()> {
    let mut rows = Vec::new();
    for f in results {
        for &(p, lifetime) in &f.series {
            rows.push(vec![
                f.formation.clone(),
                p.to_string(),
                format!("{lifetime:.1}"),
            ]);
        }
    }
    csvout::write_csv(
        out_dir.join("fig10.csv"),
        &["formation", "pointers", "mean_block_lifetime_writes"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::montecarlo::FailureCriterion;

    fn tiny() -> Vec<FormationSweep> {
        run(&RunOptions {
            pages: 1,
            trials: 60,
            seed: 11,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        })
    }

    #[test]
    fn lifetime_grows_then_plateaus_with_pointers() {
        let results = tiny();
        for f in &results {
            let first = f.series.first().unwrap().1;
            let last = f.series.last().unwrap().1;
            assert!(
                last >= first,
                "{}: more pointers should not shorten life ({first} vs {last})",
                f.formation
            );
        }
    }

    #[test]
    fn larger_b_lives_longer_at_the_plateau() {
        // The paper: "the lifetime increases by as much as 24% when B
        // increases from 23 to 71" (at large p).
        let results = tiny();
        let b23 = results.iter().find(|f| f.formation == "23x23").unwrap();
        let b71 = results.iter().find(|f| f.formation == "8x71").unwrap();
        assert!(b71.series.last().unwrap().1 > b23.series.last().unwrap().1);
    }
}
