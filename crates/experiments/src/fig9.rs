//! Figure 9: page survival rate under continuous writes, and the
//! half-lifetime metric.

use crate::csvout;
use crate::runner::{run_policies, RunObserver, RunOptions};
use crate::schemes;
use pcm_sim::montecarlo::{half_lifetime, survival_curve};
use pcm_sim::policy::RecoveryPolicy;
use std::io;
use std::path::Path;

/// One scheme's survival curve.
#[derive(Debug, Clone)]
pub struct SchemeSurvival {
    /// Scheme label.
    pub name: String,
    /// `(global page writes, fraction of pages alive)` breakpoints.
    pub curve: Vec<(f64, f64)>,
    /// Global writes at which half the pages have died.
    pub half_lifetime: f64,
}

/// Runs the Figure 9 simulation on 512-bit blocks (the block-failure-CDF
/// scheme set plus the unprotected baseline).
#[must_use]
pub fn run(opts: &RunOptions) -> Vec<SchemeSurvival> {
    run_with(opts, &RunObserver::default())
}

/// [`run`] with telemetry/progress observation.
///
/// One page-major pass judges every scheme on each sampled page.
#[must_use]
pub fn run_with(opts: &RunOptions, observer: &RunObserver<'_>) -> Vec<SchemeSurvival> {
    let mut set = schemes::failcdf_schemes();
    set.push(schemes::unprotected(512));
    let policies: Vec<&dyn RecoveryPolicy> = set.iter().map(AsRef::as_ref).collect();
    run_policies(&policies, &opts.sim_config(512), observer)
        .into_iter()
        .zip(&policies)
        .map(|(run, policy)| SchemeSurvival {
            name: policy.name(),
            curve: survival_curve(&run.page_lifetimes),
            half_lifetime: half_lifetime(&run.page_lifetimes),
        })
        .collect()
}

/// Renders the half-lifetime summary (the figure's key comparison) plus a
/// few survival breakpoints per scheme.
#[must_use]
pub fn report(results: &[SchemeSurvival]) -> String {
    let mut out = String::from("Figure 9: page survival under continuous writes\n\n");
    out.push_str("Half lifetime (global page writes until half the pages died):\n");
    for s in results {
        out.push_str(&format!("{:<17} {:>14.3e}\n", s.name, s.half_lifetime));
    }
    out.push_str("\nSurvival breakpoints (fraction alive at quartiles of each curve):\n");
    for s in results {
        let quartiles: Vec<String> = [0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|q| {
                let idx = ((s.curve.len() - 1) as f64 * q) as usize;
                let (w, alive) = s.curve[idx];
                format!("{w:.2e}→{alive:.2}")
            })
            .collect();
        out.push_str(&format!("{:<17} {}\n", s.name, quartiles.join("  ")));
    }
    out
}

/// Writes `fig9.csv`: long format `(scheme, global_page_writes, alive)`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(results: &[SchemeSurvival], out_dir: &Path) -> io::Result<()> {
    let mut rows = Vec::new();
    for s in results {
        for &(writes, alive) in &s.curve {
            rows.push(vec![
                s.name.clone(),
                format!("{writes:.1}"),
                format!("{alive:.5}"),
            ]);
        }
    }
    csvout::write_csv(
        out_dir.join("fig9.csv"),
        &["scheme", "global_page_writes", "fraction_alive"],
        &rows,
    )?;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|s| vec![s.name.clone(), format!("{:.1}", s.half_lifetime)])
        .collect();
    csvout::write_csv(
        out_dir.join("fig9_half_lifetime.csv"),
        &["scheme", "half_lifetime_page_writes"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::montecarlo::FailureCriterion;

    #[test]
    fn protected_schemes_outlive_unprotected() {
        let opts = RunOptions {
            pages: 6,
            trials: 10,
            seed: 5,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        };
        let results = run(&opts);
        let unprotected = results
            .iter()
            .find(|s| s.name == "unprotected")
            .unwrap()
            .half_lifetime;
        for s in results.iter().filter(|s| s.name != "unprotected") {
            assert!(
                s.half_lifetime > unprotected,
                "{} did not beat unprotected",
                s.name
            );
        }
    }

    #[test]
    fn curves_end_at_zero_alive() {
        let opts = RunOptions {
            pages: 4,
            trials: 10,
            seed: 2,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        };
        for s in run(&opts) {
            assert_eq!(s.curve.last().unwrap().1, 0.0, "{}", s.name);
        }
    }
}
