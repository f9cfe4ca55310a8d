//! Block-failure CDF (the paper's Figure 8): probability that a 512-bit block has failed after a given
//! number of faults.

use crate::csvout;
use crate::runner::RunOptions;
use crate::schemes;
use pcm_sim::montecarlo::block_failure_cdfs;
use pcm_sim::policy::RecoveryPolicy;
use std::io;
use std::path::Path;

/// One scheme's failure CDF.
#[derive(Debug, Clone)]
pub struct SchemeCdf {
    /// Scheme label.
    pub name: String,
    /// `cdf[f]` = P(block failed | f faults occurred).
    pub cdf: Vec<f64>,
}

/// Runs the block-failure-CDF simulation: many independent 512-bit blocks,
/// each sampled once and evaluated under every scheme.
#[must_use]
pub fn run(opts: &RunOptions) -> Vec<SchemeCdf> {
    let set = schemes::failcdf_schemes();
    let policies: Vec<&dyn RecoveryPolicy> = set.iter().map(AsRef::as_ref).collect();
    let cdfs = block_failure_cdfs(
        &policies,
        opts.criterion,
        opts.trials,
        opts.seed,
        opts.threads,
    );
    set.iter()
        .zip(cdfs)
        .map(|(policy, cdf)| SchemeCdf {
            name: policy.name(),
            cdf: cdf.cdf(),
        })
        .collect()
}

/// Largest fault count worth printing: first index where every scheme's
/// CDF has reached 1.
fn horizon(results: &[SchemeCdf]) -> usize {
    results
        .iter()
        .map(|s| {
            s.cdf
                .iter()
                .position(|&p| p >= 1.0)
                .unwrap_or(s.cdf.len() - 1)
        })
        .max()
        .unwrap_or(0)
        + 1
}

/// Renders the CDFs as a fault-count × scheme table.
#[must_use]
pub fn report(results: &[SchemeCdf]) -> String {
    let mut out = String::from(
        "Block failure CDF: 512-bit block failure probability vs faults in the block\n\n",
    );
    out.push_str(&format!("{:<7}", "faults"));
    for s in results {
        out.push_str(&format!("{:>17}", s.name));
    }
    out.push('\n');
    let horizon = horizon(results).min(results[0].cdf.len());
    for f in 1..horizon {
        out.push_str(&format!("{f:<7}"));
        for s in results {
            out.push_str(&format!("{:>17.3}", s.cdf[f]));
        }
        out.push('\n');
    }
    out
}

/// Writes `failcdf.csv`: long format `(scheme, faults, failure_probability)`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(results: &[SchemeCdf], out_dir: &Path) -> io::Result<()> {
    let mut rows = Vec::new();
    for s in results {
        for (f, p) in s.cdf.iter().enumerate().skip(1) {
            rows.push(vec![s.name.clone(), f.to_string(), format!("{p:.5}")]);
        }
    }
    csvout::write_csv(
        out_dir.join("failcdf.csv"),
        &["scheme", "faults", "failure_probability"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::montecarlo::FailureCriterion;

    #[test]
    fn cdfs_are_monotone_and_start_at_zero_before_hard_ftc() {
        let opts = RunOptions {
            pages: 1,
            trials: 200,
            seed: 9,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        };
        let results = run(&opts);
        assert_eq!(results.len(), schemes::failcdf_schemes().len());
        for s in &results {
            assert!(
                s.cdf.windows(2).all(|w| w[0] <= w[1]),
                "{} not monotone",
                s.name
            );
            // One fault never kills any of these schemes.
            assert_eq!(s.cdf[1], 0.0, "{} dies at one fault", s.name);
        }
        // ECP6 must be exactly zero at 6 faults and one at 7.
        let ecp = results.iter().find(|s| s.name == "ECP6").unwrap();
        assert_eq!(ecp.cdf[6], 0.0);
        assert_eq!(ecp.cdf[7], 1.0);
    }

    #[test]
    fn report_has_header_row() {
        let opts = RunOptions {
            pages: 1,
            trials: 50,
            seed: 1,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        };
        let text = report(&run(&opts));
        assert!(text.contains("faults"));
        assert!(text.contains("ECP6"));
    }
}
