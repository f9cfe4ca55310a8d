//! Extension experiment: Aegis inside the PAYG framework (§4's "Aegis
//! complements PAYG"), at matched total overhead.
//!
//! Budget: a dedicated ECP6 spends 61 bits on every 512-bit block. PAYG
//! configurations spend a small per-block LEC and convert the remaining
//! budget into tagged global ECP entries. The question the paper's related
//! work poses — does a stronger, cheaper LEC (Aegis) make the pay-as-you-go
//! idea better? — is answered by lifetime and recoverable-fault counts at
//! identical silicon cost.

use crate::csvout::{self, fmt_f64};
use crate::runner::RunOptions;
use aegis_baselines::{cost, EcpPolicy, MaskingPolicy, PlbcPolicy};
use aegis_core::{AegisPolicy, Rectangle};
use aegis_payg::overhead::affordable_gec_entries;
use aegis_payg::run_payg_chips;
use pcm_sim::montecarlo::{run_memory, MemoryRun};
use pcm_sim::policy::RecoveryPolicy;
use std::io;
use std::path::Path;

/// One configuration's results.
#[derive(Debug, Clone)]
pub struct PaygRow {
    /// Configuration label.
    pub name: String,
    /// LEC bits per block.
    pub lec_bits: usize,
    /// GEC entries provisioned chip-wide.
    pub gec_entries: usize,
    /// Mean recoverable faults per page.
    pub mean_faults: f64,
    /// Lifetime improvement over the unprotected page.
    pub lifetime_improvement: f64,
    /// GEC entries actually consumed by the end of the run.
    pub gec_used: usize,
}

/// The dedicated budget every configuration is matched against (ECP6).
pub const BUDGET_BITS_PER_BLOCK: usize = 61;

/// Runs the comparison on 512-bit blocks.
#[must_use]
pub fn run(opts: &RunOptions) -> Vec<PaygRow> {
    let cfg = opts.sim_config(512);
    let blocks = cfg.pages * cfg.blocks_per_page();
    let row = |name: String, lec_bits, gec_entries, chip: &MemoryRun, gec_used| PaygRow {
        name,
        lec_bits,
        gec_entries,
        mean_faults: chip.mean_faults_recovered(),
        lifetime_improvement: chip.lifetime_improvement(),
        gec_used,
    };
    // Reference: the whole budget spent on dedicated per-block ECP6.
    let ecp6 = run_memory(&EcpPolicy::new(6, 512), &cfg);
    let mut rows = vec![row(
        "dedicated ECP6".to_owned(),
        BUDGET_BITS_PER_BLOCK,
        0,
        &ecp6,
        0,
    )];

    // PAYG with ECP1 as the local scheme (the original proposal), with
    // Aegis formations, and with the information-theoretic families:
    // Mask1 masks any single stuck cell in 10 bits (one bit under ECP1's
    // 11), PLC1+1 adds one pointer repair on top for 20.
    let mut lecs: Vec<(String, usize, Box<dyn RecoveryPolicy>)> =
        vec![("ECP1".to_owned(), 11, Box::new(EcpPolicy::new(1, 512)))];
    for (a, b) in [(23usize, 23usize), (17, 31)] {
        let rect = Rectangle::new(a, b, 512).expect("valid formation");
        let lec_bits = aegis_core::cost::ceil_log2(rect.slopes()) + rect.groups();
        lecs.push((
            format!("Aegis {a}x{b}"),
            lec_bits,
            Box::new(AegisPolicy::new(rect)),
        ));
    }
    let mask1 = Box::new(MaskingPolicy::new(1, 512));
    lecs.push(("Mask1".to_owned(), cost::masking_overhead(1, 512), mask1));
    let plc = Box::new(PlbcPolicy::new(1, 1, 512));
    lecs.push(("PLC1+1".to_owned(), cost::plbc_overhead(1, 1, 512), plc));
    let pools: Vec<(&dyn RecoveryPolicy, usize)> = lecs
        .iter()
        .map(|(_, bits, lec)| {
            let entries = affordable_gec_entries(BUDGET_BITS_PER_BLOCK, *bits, blocks, 512);
            (lec.as_ref(), entries)
        })
        .collect();
    let runs = run_payg_chips(&pools, &cfg);
    for (((name, bits, _), &(_, entries)), run) in lecs.iter().zip(&pools).zip(&runs) {
        let name = format!("PAYG: {name} + GEC");
        rows.push(row(name, *bits, entries, &run.chip, run.gec_used));
    }
    rows
}

/// Renders the matched-budget table.
#[must_use]
pub fn report(rows: &[PaygRow]) -> String {
    let mut out = format!(
        "PAYG extension: configurations matched to the dedicated-ECP6 budget \
         ({BUDGET_BITS_PER_BLOCK} bits per 512-bit block)\n\n{:<26} {:>8} {:>12} {:>13} {:>11} {:>9}\n",
        "configuration", "LEC bits", "GEC entries", "faults/page", "lifetime x", "GEC used"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<26} {:>8} {:>12} {:>13} {:>11} {:>9}\n",
            r.name,
            r.lec_bits,
            r.gec_entries,
            fmt_f64(r.mean_faults),
            fmt_f64(r.lifetime_improvement),
            r.gec_used,
        ));
    }
    out
}

/// Writes `payg.csv`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(rows: &[PaygRow], out_dir: &Path) -> io::Result<()> {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.lec_bits.to_string(),
                r.gec_entries.to_string(),
                format!("{:.3}", r.mean_faults),
                format!("{:.4}", r.lifetime_improvement),
                r.gec_used.to_string(),
            ]
        })
        .collect();
    csvout::write_csv(
        out_dir.join("payg.csv"),
        &[
            "configuration",
            "lec_bits_per_block",
            "gec_entries",
            "mean_faults_per_page",
            "lifetime_improvement_x",
            "gec_entries_used",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::montecarlo::FailureCriterion;

    #[test]
    fn payg_configurations_beat_dedicated_ecp6() {
        let rows = run(&RunOptions {
            pages: 4,
            trials: 10,
            seed: 23,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        });
        assert_eq!(rows.len(), 6);
        let dedicated = &rows[0];
        for payg in &rows[1..] {
            assert!(
                payg.mean_faults > dedicated.mean_faults,
                "{} should recover more faults than dedicated ECP6 ({} vs {})",
                payg.name,
                payg.mean_faults,
                dedicated.mean_faults
            );
            assert!(payg.gec_used <= payg.gec_entries);
        }
        // The Aegis LECs ride on their own strength: far fewer GEC entries
        // provisioned, still ahead on faults.
        let ecp1 = &rows[1];
        let aegis = &rows[2];
        assert!(aegis.gec_entries < ecp1.gec_entries);
        // Mask1 undercuts ECP1 by a bit per block, so it affords at least
        // as many global entries while guaranteeing twice the faults.
        let mask1 = rows.iter().find(|r| r.name.contains("Mask1")).unwrap();
        assert_eq!(mask1.lec_bits, 10);
        assert!(mask1.gec_entries >= ecp1.gec_entries);
        let plbc = rows.iter().find(|r| r.name.contains("PLC1+1")).unwrap();
        assert_eq!(plbc.lec_bits, 20);
    }
}
