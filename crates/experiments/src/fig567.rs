//! Figures 5, 6 and 7: recoverable faults per page, lifetime improvement,
//! and per-overhead-bit contribution — one Monte Carlo run powers all
//! three, for both block sizes.

use crate::campaign::{self, fig567_unit_specs, UnitSpec};
use crate::csvout::{self, fmt_f64, fmt_page_size};
use crate::runner::{RunObserver, RunOptions, SchemeSummary};
use pcm_sim::montecarlo::MemoryRun;
use std::io;
use std::path::Path;

/// Results for both block sizes.
#[derive(Debug, Clone)]
pub struct Fig567 {
    /// `(block_bits, per-scheme summaries)` for 256 and 512.
    pub by_block: Vec<(usize, Vec<SchemeSummary>)>,
}

/// Runs the Figure 5/6/7 scheme sets over simulated chips.
#[must_use]
pub fn run(opts: &RunOptions) -> Fig567 {
    run_with(opts, &RunObserver::default())
}

/// [`run`] with telemetry/progress observation.
#[must_use]
pub fn run_with(opts: &RunOptions, observer: &RunObserver<'_>) -> Fig567 {
    let specs = fig567_unit_specs(opts);
    assemble(&specs, &campaign::run_specs(&specs, opts.pages, observer))
}

/// Folds per-unit runs (in [`fig567_unit_specs`] order) into the figure
/// results.
#[must_use]
pub fn assemble(specs: &[UnitSpec], runs: &[MemoryRun]) -> Fig567 {
    let mut by_block: Vec<(usize, Vec<SchemeSummary>)> = Vec::new();
    for (spec, run) in specs.iter().zip(runs) {
        let bits = spec.cfg.block_bits;
        let summary = SchemeSummary::from_run(spec.policy.as_ref(), run);
        match by_block.last_mut() {
            Some((last, summaries)) if *last == bits => summaries.push(summary),
            _ => by_block.push((bits, vec![summary])),
        }
    }
    Fig567 { by_block }
}

fn header(bits: usize, what: &str) -> String {
    format!("\n-- {bits}-bit data blocks: {what} --\n")
}

/// Figure 5: average recoverable faults in a page of `page_bytes` (4 KB
/// in the paper; overhead bits annotated, as above the paper's bars).
#[must_use]
pub fn report_fig5(results: &Fig567, page_bytes: usize) -> String {
    let mut out = format!(
        "Figure 5: average recoverable faults per {} page\n",
        fmt_page_size(page_bytes)
    );
    for (bits, summaries) in &results.by_block {
        out.push_str(&header(*bits, "recoverable faults"));
        for s in summaries {
            out.push_str(&format!(
                "{:<16} {:>4} bits  {:>8} ± {:<8} faults\n",
                s.name,
                s.overhead_bits,
                fmt_f64(s.mean_faults_recovered),
                fmt_f64(s.faults_ci95)
            ));
        }
    }
    out
}

/// Figure 6: page lifetime improvement (×) over the unprotected page of
/// `page_bytes`.
#[must_use]
pub fn report_fig6(results: &Fig567, page_bytes: usize) -> String {
    let mut out = format!(
        "Figure 6: page lifetime improvement over an unprotected {} page\n",
        fmt_page_size(page_bytes)
    );
    for (bits, summaries) in &results.by_block {
        out.push_str(&header(*bits, "lifetime improvement"));
        for s in summaries {
            out.push_str(&format!(
                "{:<16} {:>4} bits  {:>7}x ± {:<7}\n",
                s.name,
                s.overhead_bits,
                fmt_f64(s.lifetime_improvement),
                fmt_f64(s.improvement_ci95())
            ));
        }
    }
    out
}

/// Figure 7: per-overhead-bit contribution to the lifetime improvement.
#[must_use]
pub fn report_fig7(results: &Fig567) -> String {
    let mut out = String::from("Figure 7: lifetime-improvement contribution per overhead bit\n");
    for (bits, summaries) in &results.by_block {
        out.push_str(&header(*bits, "per-bit contribution"));
        for s in summaries {
            out.push_str(&format!(
                "{:<16} {:>4} bits  {:>8}x/bit ± {:<8}\n",
                s.name,
                s.overhead_bits,
                fmt_f64(s.per_bit_contribution),
                fmt_f64(s.per_bit_ci95())
            ));
        }
    }
    out
}

/// Writes `fig5.csv`/`fig6.csv`/`fig7.csv` (one joint schema — the figures
/// share the run).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csvs(results: &Fig567, out_dir: &Path) -> io::Result<()> {
    for (fig, value) in [
        ("fig5", "mean_recoverable_faults"),
        ("fig6", "lifetime_improvement_x"),
        ("fig7", "improvement_per_bit"),
    ] {
        let rows: Vec<Vec<String>> = results
            .by_block
            .iter()
            .flat_map(|(bits, summaries)| {
                summaries.iter().map(move |s| {
                    let (v, hw, rse) = match fig {
                        "fig5" => (s.mean_faults_recovered, s.faults_ci95, s.faults_rse),
                        "fig6" => (s.lifetime_improvement, s.improvement_ci95(), s.lifetime_rse),
                        _ => (s.per_bit_contribution, s.per_bit_ci95(), s.lifetime_rse),
                    };
                    vec![
                        bits.to_string(),
                        s.name.clone(),
                        s.overhead_bits.to_string(),
                        format!("{:.2}", s.overhead_pct),
                        format!("{v:.4}"),
                        format!("{hw:.4}"),
                        format!("{rse:.4}"),
                    ]
                })
            })
            .collect();
        csvout::write_csv(
            out_dir.join(format!("{fig}.csv")),
            &[
                "block_bits",
                "scheme",
                "overhead_bits",
                "overhead_pct",
                value,
                "ci95_half_width",
                "rse",
            ],
            &rows,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> RunOptions {
        RunOptions {
            pages: 4,
            trials: 10,
            seed: 3,
            criterion: pcm_sim::montecarlo::FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        }
    }

    #[test]
    fn run_covers_both_block_sizes() {
        let results = run(&tiny_opts());
        assert_eq!(results.by_block.len(), 2);
        assert_eq!(results.by_block[0].0, 256);
        assert_eq!(results.by_block[1].0, 512);
    }

    #[test]
    fn reports_mention_key_schemes() {
        let results = run(&tiny_opts());
        let f5 = report_fig5(&results, 4096);
        assert!(f5.starts_with("Figure 5: average recoverable faults per 4KB page\n"));
        assert!(report_fig5(&results, 256).contains("per 256B page"));
        assert!(f5.contains("Aegis 9x61"));
        assert!(f5.contains("SAFER64"));
        let f6 = report_fig6(&results, 4096);
        assert!(f6.contains('x'));
        let f7 = report_fig7(&results);
        assert!(f7.contains("/bit"));
    }
}
