//! Extension experiment: the OS-assisted layer of the paper's §4 —
//! FREE-p block remapping and Dynamic Pairing — measured on top of weak
//! and strong in-block schemes.
//!
//! The paper's claims made quantitative: "with Aegis's strong fault
//! tolerance capability, the re-direction [FREE-p] as well as loss of
//! faulty pages can be substantially delayed", and pairing "can slow down
//! the rate of page loss".

use crate::csvout::{self, fmt_f64};
use crate::runner::RunOptions;
use crate::schemes;
use aegis_os_assist::block_death_matrices;
use aegis_os_assist::freep::run_freep;
use aegis_os_assist::pairing::run_pairing;
use pcm_sim::policy::RecoveryPolicy;
use pcm_sim::stats::mean;
use std::io;
use std::path::Path;

/// One (scheme, mechanism) row.
#[derive(Debug, Clone)]
pub struct OsAssistRow {
    /// In-block scheme.
    pub scheme: String,
    /// OS-assist mechanism and parameter.
    pub mechanism: String,
    /// Mean page lifetime in page writes.
    pub mean_lifetime: f64,
    /// Global time of the first FREE-p redirection (0 for non-FREE-p rows).
    pub first_redirection: f64,
    /// Pairs formed (0 for non-pairing rows).
    pub pairs_formed: usize,
    /// Time until usable capacity halves (pairing rows).
    pub half_capacity_time: f64,
}

/// Runs the study: {ECP2, ECP6, Aegis 9×61} × {bare, FREE-p 1%/4%,
/// pairing}, every mechanism reading the block-death matrices of one
/// engine pass.
#[must_use]
pub fn run(opts: &RunOptions) -> Vec<OsAssistRow> {
    let cfg = opts.sim_config(512);
    let blocks = cfg.pages * cfg.blocks_per_page();
    let policies = [
        schemes::ecp(2, 512),
        schemes::ecp(6, 512),
        schemes::aegis(9, 61, 512),
    ];
    let judged: Vec<&dyn RecoveryPolicy> = policies.iter().map(AsRef::as_ref).collect();
    let matrices = block_death_matrices(&judged, &cfg);
    let mut rows = Vec::new();
    for (policy, matrix) in judged.into_iter().zip(&matrices) {
        let bare = run_freep(policy, matrix, 0, &cfg);
        rows.push(OsAssistRow {
            scheme: policy.name(),
            mechanism: "bare retirement".to_owned(),
            mean_lifetime: mean(&bare.page_lifetimes),
            first_redirection: 0.0,
            pairs_formed: 0,
            half_capacity_time: 0.0,
        });
        for percent in [1usize, 4] {
            let spares = blocks * percent / 100;
            let freep = run_freep(policy, matrix, spares, &cfg);
            rows.push(OsAssistRow {
                scheme: policy.name(),
                mechanism: format!("FREE-p {percent}% spares"),
                mean_lifetime: mean(&freep.page_lifetimes),
                first_redirection: freep.first_redirection.unwrap_or(0.0),
                pairs_formed: 0,
                half_capacity_time: 0.0,
            });
        }
        let pairing = run_pairing(matrix);
        rows.push(OsAssistRow {
            scheme: policy.name(),
            mechanism: "dynamic pairing".to_owned(),
            mean_lifetime: f64::NAN, // pairing reports capacity, not per-page life
            first_redirection: 0.0,
            pairs_formed: pairing.pairs_formed,
            half_capacity_time: pairing.half_capacity_time,
        });
    }
    rows
}

/// Renders the study.
#[must_use]
pub fn report(rows: &[OsAssistRow]) -> String {
    let mut out = String::from(
        "OS-assisted recovery (extension): FREE-p and Dynamic Pairing over \
         in-block schemes (512-bit blocks)\n\n",
    );
    out.push_str(&format!(
        "{:<14} {:<20} {:>13} {:>15} {:>7} {:>15}\n",
        "scheme", "mechanism", "mean life", "1st redirect", "pairs", "half capacity"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<20} {:>13} {:>15} {:>7} {:>15}\n",
            r.scheme,
            r.mechanism,
            if r.mean_lifetime.is_nan() {
                "-".to_owned()
            } else {
                format!("{:.3e}", r.mean_lifetime)
            },
            if r.first_redirection > 0.0 {
                format!("{:.3e}", r.first_redirection)
            } else {
                "-".to_owned()
            },
            if r.pairs_formed > 0 {
                r.pairs_formed.to_string()
            } else {
                "-".to_owned()
            },
            if r.half_capacity_time > 0.0 {
                format!("{:.3e}", r.half_capacity_time)
            } else {
                "-".to_owned()
            },
        ));
    }
    out.push_str("\n(mean life and times in per-page writes)\n");
    out
}

/// Writes `osassist.csv`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(rows: &[OsAssistRow], out_dir: &Path) -> io::Result<()> {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                r.mechanism.clone(),
                fmt_f64(r.mean_lifetime),
                fmt_f64(r.first_redirection),
                r.pairs_formed.to_string(),
                fmt_f64(r.half_capacity_time),
            ]
        })
        .collect();
    csvout::write_csv(
        out_dir.join("osassist.csv"),
        &[
            "scheme",
            "mechanism",
            "mean_page_lifetime",
            "first_redirection",
            "pairs_formed",
            "half_capacity_time",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::montecarlo::FailureCriterion;

    #[test]
    fn freep_spares_help_and_aegis_delays_redirection() {
        let rows = run(&RunOptions {
            pages: 6,
            trials: 10,
            seed: 31,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        });
        // 3 schemes × (bare + FREE-p 1% + FREE-p 4% + pairing).
        assert_eq!(rows.len(), 12);
        let find = |scheme: &str, mech: &str| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.mechanism.starts_with(mech))
                .unwrap_or_else(|| panic!("{scheme}/{mech} missing"))
        };
        for scheme in ["ECP2", "ECP6", "Aegis 9x61"] {
            let bare = find(scheme, "bare");
            let freep4 = find(scheme, "FREE-p 4%");
            assert!(
                freep4.mean_lifetime >= bare.mean_lifetime,
                "{scheme}: spares must help"
            );
        }
        // §4's claim: the strong scheme redirects (much) later.
        let weak = find("ECP2", "FREE-p 4%").first_redirection;
        let strong = find("Aegis 9x61", "FREE-p 4%").first_redirection;
        assert!(
            strong > weak,
            "Aegis must delay redirection ({strong} vs {weak})"
        );
    }
}
