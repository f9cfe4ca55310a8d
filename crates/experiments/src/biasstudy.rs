//! Extension experiment: sensitivity to data and stuck-value skew.
//!
//! The paper's methodology (and our default) draws uniform write data, so
//! each fault is stuck-at-Wrong with probability ½. Real memory contents
//! are typically zero-heavy, and real cells can fail asymmetrically
//! (SET-stuck vs RESET-stuck). When both skews point the same way, most
//! faults are stuck-at-*Right* and every inversion-based scheme tolerates
//! far more faults; when they oppose, most faults are W and tolerance
//! collapses. This experiment quantifies that swing on the functional
//! codecs — a robustness dimension the paper leaves implicit.

use crate::csvout;
use crate::schemes::{codec_factory, CodecFactory};
use aegis_baselines::{HammingCodec, PartitionSearch, RdisCodec, SaferCodec};
use aegis_core::{AegisCodec, Rectangle};
use bitblock::BitBlock;
use pcm_sim::PcmBlock;
use sim_rng::SmallRng;
use sim_rng::{Rng, SeedableRng};
use std::io;
use std::path::Path;

/// Success probability of one scheme at one (data, stuck) skew point.
#[derive(Debug, Clone)]
pub struct BiasPoint {
    /// Scheme label.
    pub scheme: String,
    /// Probability a data bit is `1`.
    pub data_ones: f64,
    /// Probability a stuck cell holds `1`.
    pub stuck_ones: f64,
    /// Fraction of writes that succeeded with [`FAULTS`] faults present.
    pub success_rate: f64,
}

/// Faults injected per block in the sweep — past every scheme's hard FTC,
/// inside the soft region where data patterns decide.
pub const FAULTS: usize = 14;

fn codecs() -> Vec<CodecFactory> {
    vec![
        codec_factory(HammingCodec::new(512)),
        codec_factory(SaferCodec::new(6, 512, PartitionSearch::Incremental)),
        codec_factory(RdisCodec::rdis3(512)),
        codec_factory(AegisCodec::new(Rectangle::new(9, 61, 512).expect("valid"))),
    ]
}

/// The skew grid swept on each axis.
pub const SKEWS: [f64; 3] = [0.1, 0.5, 0.9];

/// Runs the sweep with `trials` fresh blocks per grid point. Each codec
/// is built once per call and every trial writes through a fresh clone.
#[must_use]
pub fn run(trials: usize, seed: u64) -> Vec<BiasPoint> {
    let codecs = codecs();
    let mut out = Vec::new();
    for &data_ones in &SKEWS {
        for &stuck_ones in &SKEWS {
            for make in &codecs {
                let mut succeeded = 0usize;
                for trial in 0..trials {
                    let mut rng = SmallRng::seed_from_u64(
                        seed ^ (trial as u64) << 24
                            ^ ((data_ones * 10.0) as u64) << 4
                            ^ ((stuck_ones * 10.0) as u64),
                    );
                    let mut codec = make();
                    let mut block = PcmBlock::pristine(512);
                    let mut placed = 0;
                    while placed < FAULTS {
                        let offset = rng.random_range(0..512);
                        if !block.cell(offset).is_stuck() {
                            block.force_stuck(offset, rng.random_bool(stuck_ones));
                            placed += 1;
                        }
                    }
                    let data = BitBlock::random_with_density(&mut rng, 512, data_ones);
                    if codec.write(&mut block, &data).is_ok() {
                        debug_assert_eq!(codec.read(&block), data);
                        succeeded += 1;
                    }
                }
                out.push(BiasPoint {
                    scheme: make().name(),
                    data_ones,
                    stuck_ones,
                    success_rate: succeeded as f64 / trials as f64,
                });
            }
        }
    }
    out
}

/// Renders one grid per scheme.
#[must_use]
pub fn report(points: &[BiasPoint]) -> String {
    let mut out = format!(
        "Skew sensitivity (extension): P(write succeeds) with {FAULTS} faults \
         per 512-bit block\nrows: P(data bit = 1); columns: P(stuck value = 1)\n",
    );
    // The scheme varies fastest, so the first grid point's points name
    // every scheme in order.
    let schemes: Vec<&str> = points
        .iter()
        .take_while(|p| (p.data_ones, p.stuck_ones) == (points[0].data_ones, points[0].stuck_ones))
        .map(|p| p.scheme.as_str())
        .collect();
    for scheme in schemes {
        out.push_str(&format!("\n{scheme}:\n{:<8}", "data\\st"));
        for &s in &SKEWS {
            out.push_str(&format!("{s:>8.1}"));
        }
        out.push('\n');
        for &d in &SKEWS {
            out.push_str(&format!("{d:<8.1}"));
            for &s in &SKEWS {
                let p = points
                    .iter()
                    .find(|p| p.scheme == scheme && p.data_ones == d && p.stuck_ones == s)
                    .expect("full grid");
                out.push_str(&format!("{:>8.2}", p.success_rate));
            }
            out.push('\n');
        }
    }
    out
}

/// Writes `biasstudy.csv`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(points: &[BiasPoint], out_dir: &Path) -> io::Result<()> {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.scheme.clone(),
                format!("{:.2}", p.data_ones),
                format!("{:.2}", p.stuck_ones),
                format!("{:.4}", p.success_rate),
            ]
        })
        .collect();
    csvout::write_csv(
        out_dir.join("biasstudy.csv"),
        &[
            "scheme",
            "data_ones_prob",
            "stuck_ones_prob",
            "success_rate",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::codec::StuckAtCodec;

    /// Constructors for the codecs of [`codecs`], for the reference sweep.
    fn fresh_codecs() -> Vec<fn() -> Box<dyn StuckAtCodec>> {
        vec![
            || Box::new(HammingCodec::new(512)),
            || Box::new(SaferCodec::new(6, 512, PartitionSearch::Incremental)),
            || Box::new(RdisCodec::rdis3(512)),
            || Box::new(AegisCodec::new(Rectangle::new(9, 61, 512).expect("valid"))),
        ]
    }

    /// [`run`] as it ran before codecs were built once: every trial
    /// constructs its codec, ROM tables included, from scratch.
    fn reference_run(trials: usize, seed: u64) -> Vec<BiasPoint> {
        let mut out = Vec::new();
        for &data_ones in &SKEWS {
            for &stuck_ones in &SKEWS {
                for build in fresh_codecs() {
                    let mut succeeded = 0usize;
                    for trial in 0..trials {
                        let mut rng = SmallRng::seed_from_u64(
                            seed ^ (trial as u64) << 24
                                ^ ((data_ones * 10.0) as u64) << 4
                                ^ ((stuck_ones * 10.0) as u64),
                        );
                        let mut codec = build();
                        let mut block = PcmBlock::pristine(512);
                        let mut placed = 0;
                        while placed < FAULTS {
                            let offset = rng.random_range(0..512);
                            if !block.cell(offset).is_stuck() {
                                block.force_stuck(offset, rng.random_bool(stuck_ones));
                                placed += 1;
                            }
                        }
                        let data = BitBlock::random_with_density(&mut rng, 512, data_ones);
                        if codec.write(&mut block, &data).is_ok() {
                            debug_assert_eq!(codec.read(&block), data);
                            succeeded += 1;
                        }
                    }
                    out.push(BiasPoint {
                        scheme: build().name(),
                        data_ones,
                        stuck_ones,
                        success_rate: succeeded as f64 / trials as f64,
                    });
                }
            }
        }
        out
    }

    fn bits(points: &[BiasPoint]) -> Vec<(String, [u64; 3])> {
        points
            .iter()
            .map(|p| {
                let values = [p.data_ones, p.stuck_ones, p.success_rate];
                (p.scheme.clone(), values.map(f64::to_bits))
            })
            .collect()
    }

    #[test]
    fn prototype_clones_replay_the_construct_per_trial_sweep() {
        for seed in [3, 42] {
            assert_eq!(
                bits(&run(4, seed)),
                bits(&reference_run(4, seed)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn aligned_skew_turns_faults_into_r_faults() {
        let points = run(30, 11);
        let get = |scheme: &str, d: f64, s: f64| {
            points
                .iter()
                .find(|p| p.scheme == scheme && p.data_ones == d && p.stuck_ones == s)
                .unwrap()
                .success_rate
        };
        // Zero-heavy data + stuck-at-0 cells: nearly every fault is R, so
        // even 14 faults should almost always pass for Aegis.
        let aligned = get("Aegis 9x61", 0.1, 0.1);
        let uniform = get("Aegis 9x61", 0.5, 0.5);
        let opposed = get("Aegis 9x61", 0.1, 0.9);
        assert!(aligned >= uniform, "aligned {aligned} vs uniform {uniform}");
        assert!(uniform >= opposed, "uniform {uniform} vs opposed {opposed}");
        assert!(
            aligned > 0.9,
            "aligned skew should be nearly free: {aligned}"
        );
        // Hamming (one W per 64-bit word) collapses under opposed skew.
        assert!(get("Hamming72_64", 0.1, 0.9) < 0.3);
    }
}
