//! Extension experiment: the per-write cost of each scheme as faults
//! accumulate.
//!
//! The paper repeatedly argues in write counts — inverted rewrites wear
//! cells and burn latency ("Aegis 9×61 has to generate intensive inversion
//! writes … when there are more than 20 faults"), and Aegis-rw's value is
//! precisely that it removes them. This experiment drives every
//! *functional* codec over blocks seeded with 0–24 faults and measures
//! cell pulses, verification reads and inversion rewrites per logical
//! write.

use crate::csvout::{self, fmt_f64};
use crate::schemes::{codec_factory, CodecFactory};
use aegis_baselines::{EcpCodec, HammingCodec, PartitionSearch, RdisCodec, SaferCodec};
use aegis_core::{AegisCodec, AegisRwCodec, AegisRwPCodec, Rectangle};
use bitblock::BitBlock;
use pcm_sim::codec::{Instrumented, StuckAtCodec};
use pcm_sim::PcmBlock;
use sim_rng::SmallRng;
use sim_rng::{Rng, SeedableRng};
use sim_telemetry::Registry;
use std::io;
use std::path::Path;

/// Average per-write costs of one scheme at one fault count.
#[derive(Debug, Clone)]
pub struct WriteCostPoint {
    /// Scheme label.
    pub scheme: String,
    /// Faults present in the block.
    pub faults: usize,
    /// Fraction of attempted writes that succeeded.
    pub success_rate: f64,
    /// Mean cell programming pulses per successful write.
    pub pulses_per_write: f64,
    /// Mean verification reads per successful write.
    pub verifies_per_write: f64,
    /// Mean inversion rewrites per successful write.
    pub inversions_per_write: f64,
}

fn codecs() -> Vec<CodecFactory> {
    let r = |a, b| Rectangle::new(a, b, 512).expect("valid formation");
    vec![
        codec_factory(HammingCodec::new(512)),
        codec_factory(EcpCodec::new(6, 512)),
        codec_factory(SaferCodec::new(6, 512, PartitionSearch::Incremental)),
        codec_factory(RdisCodec::rdis3(512)),
        codec_factory(AegisCodec::new(r(9, 61))),
        codec_factory(AegisRwCodec::new(r(9, 61))),
        codec_factory(AegisRwPCodec::new(r(9, 61), 9)),
    ]
}

/// Sweeps fault counts 0, 4, 8, …, 24 with `trials` random fault
/// placements each, `writes_per_trial` random data words per placement.
#[must_use]
pub fn run(trials: usize, writes_per_trial: usize, seed: u64) -> Vec<WriteCostPoint> {
    run_with(trials, writes_per_trial, seed, None)
}

/// [`run`], optionally folding every cell's counters into `shared`
/// (run-level telemetry). Each (scheme, fault count) cell accumulates
/// into its own local [`Registry`] through the shared `WriteTelemetry`
/// codec path; the returned averages are snapshots of those counters.
///
/// Each codec is built once per call and every trial writes through a
/// fresh clone of it.
#[must_use]
pub fn run_with(
    trials: usize,
    writes_per_trial: usize,
    seed: u64,
    shared: Option<&Registry>,
) -> Vec<WriteCostPoint> {
    let codecs = codecs();
    let mut out = Vec::new();
    for fault_count in (0..=24).step_by(4) {
        for make in &codecs {
            let local = Registry::new();
            let scheme = make().name();
            for trial in 0..trials {
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ (trial as u64) << 32 ^ (fault_count as u64) << 8,
                );
                let mut codec = Instrumented::new(make(), &local);
                let mut block = PcmBlock::pristine(512);
                let mut placed = 0;
                while placed < fault_count {
                    let offset = rng.random_range(0..512);
                    if !block.cell(offset).is_stuck() {
                        block.force_stuck(offset, rng.random());
                        placed += 1;
                    }
                }
                for _ in 0..writes_per_trial {
                    let data = BitBlock::random(&mut rng, 512);
                    let _ = codec.write(&mut block, &data);
                }
            }
            let counter = |metric: &str| {
                local
                    .counter(&sim_telemetry::metric_name("codec", &scheme, metric))
                    .get()
            };
            let attempted = counter("writes");
            let succeeded = attempted - counter("write_errors");
            let denom = succeeded.max(1) as f64;
            let pulses = counter("cell_pulses");
            let verifies = counter("verify_reads");
            let inversions = counter("inversion_writes");
            out.push(WriteCostPoint {
                scheme,
                faults: fault_count,
                success_rate: succeeded as f64 / attempted.max(1) as f64,
                pulses_per_write: pulses as f64 / denom,
                verifies_per_write: verifies as f64 / denom,
                inversions_per_write: inversions as f64 / denom,
            });
            if let Some(shared) = shared {
                shared.absorb(&local);
            }
        }
    }
    out
}

/// Renders the verification-read table (the latency-critical number).
#[must_use]
pub fn report(points: &[WriteCostPoint]) -> String {
    let mut out = String::from(
        "Per-write cost (extension): verification reads per successful write \
         as faults accumulate (512-bit blocks; '-' = scheme already dead)\n\n",
    );
    // The scheme varies fastest, so the first fault count's points name
    // every column in order.
    let schemes: Vec<&str> = points
        .iter()
        .take_while(|p| p.faults == points[0].faults)
        .map(|p| p.scheme.as_str())
        .collect();
    out.push_str(&format!("{:<8}", "faults"));
    for s in &schemes {
        out.push_str(&format!("{s:>21}"));
    }
    out.push('\n');
    for fault_count in (0..=24).step_by(4) {
        out.push_str(&format!("{fault_count:<8}"));
        for s in &schemes {
            let p = points
                .iter()
                .find(|p| p.faults == fault_count && p.scheme == *s)
                .expect("full grid");
            if p.success_rate < 0.05 {
                out.push_str(&format!("{:>21}", "-"));
            } else {
                out.push_str(&format!(
                    "{:>21}",
                    format!(
                        "{} ({:.0}%)",
                        fmt_f64(p.verifies_per_write),
                        p.success_rate * 100.0
                    )
                ));
            }
        }
        out.push('\n');
    }
    out
}

/// Writes `writecost.csv`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(points: &[WriteCostPoint], out_dir: &Path) -> io::Result<()> {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.scheme.clone(),
                p.faults.to_string(),
                format!("{:.4}", p.success_rate),
                format!("{:.3}", p.pulses_per_write),
                format!("{:.3}", p.verifies_per_write),
                format!("{:.3}", p.inversions_per_write),
            ]
        })
        .collect();
    csvout::write_csv(
        out_dir.join("writecost.csv"),
        &[
            "scheme",
            "faults",
            "success_rate",
            "cell_pulses_per_write",
            "verify_reads_per_write",
            "inversion_writes_per_write",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Constructors for the codecs of [`codecs`], for the reference sweep.
    fn fresh_codecs() -> Vec<fn() -> Box<dyn StuckAtCodec>> {
        fn r(a: usize, b: usize) -> Rectangle {
            Rectangle::new(a, b, 512).expect("valid formation")
        }
        vec![
            || Box::new(HammingCodec::new(512)),
            || Box::new(EcpCodec::new(6, 512)),
            || Box::new(SaferCodec::new(6, 512, PartitionSearch::Incremental)),
            || Box::new(RdisCodec::rdis3(512)),
            || Box::new(AegisCodec::new(r(9, 61))),
            || Box::new(AegisRwCodec::new(r(9, 61))),
            || Box::new(AegisRwPCodec::new(r(9, 61), 9)),
        ]
    }

    /// [`run_with`] as it ran before codecs were built once: every trial
    /// constructs its codec, ROM tables included, from scratch.
    fn reference_run_with(
        trials: usize,
        writes_per_trial: usize,
        seed: u64,
        shared: Option<&Registry>,
    ) -> Vec<WriteCostPoint> {
        let mut out = Vec::new();
        for fault_count in (0..=24).step_by(4) {
            for build in fresh_codecs() {
                let local = Registry::new();
                let scheme = build().name();
                for trial in 0..trials {
                    let mut rng = SmallRng::seed_from_u64(
                        seed ^ (trial as u64) << 32 ^ (fault_count as u64) << 8,
                    );
                    let mut codec = Instrumented::new(build(), &local);
                    let mut block = PcmBlock::pristine(512);
                    let mut placed = 0;
                    while placed < fault_count {
                        let offset = rng.random_range(0..512);
                        if !block.cell(offset).is_stuck() {
                            block.force_stuck(offset, rng.random());
                            placed += 1;
                        }
                    }
                    for _ in 0..writes_per_trial {
                        let data = BitBlock::random(&mut rng, 512);
                        let _ = codec.write(&mut block, &data);
                    }
                }
                let counter = |metric: &str| {
                    local
                        .counter(&sim_telemetry::metric_name("codec", &scheme, metric))
                        .get()
                };
                let attempted = counter("writes");
                let succeeded = attempted - counter("write_errors");
                let denom = succeeded.max(1) as f64;
                let pulses = counter("cell_pulses");
                let verifies = counter("verify_reads");
                let inversions = counter("inversion_writes");
                out.push(WriteCostPoint {
                    scheme,
                    faults: fault_count,
                    success_rate: succeeded as f64 / attempted.max(1) as f64,
                    pulses_per_write: pulses as f64 / denom,
                    verifies_per_write: verifies as f64 / denom,
                    inversions_per_write: inversions as f64 / denom,
                });
                if let Some(shared) = shared {
                    shared.absorb(&local);
                }
            }
        }
        out
    }

    fn bits(points: &[WriteCostPoint]) -> Vec<(String, usize, [u64; 4])> {
        points
            .iter()
            .map(|p| {
                let values = [
                    p.success_rate,
                    p.pulses_per_write,
                    p.verifies_per_write,
                    p.inversions_per_write,
                ];
                (p.scheme.clone(), p.faults, values.map(f64::to_bits))
            })
            .collect()
    }

    /// Trials share one prototype per codec, so any per-block state that
    /// leaks between its clones (a slope counter, an inversion vector, ECP
    /// entries) changes the costs of every later trial and fault count.
    #[test]
    fn prototype_clones_replay_the_construct_per_trial_sweep() {
        for seed in [3, 42] {
            let (shared, reference_shared) = (Registry::new(), Registry::new());
            let points = run_with(2, 3, seed, Some(&shared));
            let reference = reference_run_with(2, 3, seed, Some(&reference_shared));
            assert_eq!(bits(&points), bits(&reference), "seed {seed}");
            assert_eq!(
                shared.counters(),
                reference_shared.counters(),
                "seed {seed}"
            );
            let histograms = shared.histograms();
            assert_eq!(histograms, reference_shared.histograms(), "seed {seed}");
            for scheme in ["Aegis 9x61", "Aegis-rw 9x61", "Aegis-rw-p 9x61 p=9"] {
                let name = format!("codec.{scheme}.slope_trials");
                assert!(
                    histograms.iter().any(|(n, h)| *n == name && h.count > 0),
                    "seed {seed}: no {name} samples"
                );
            }
        }
    }

    #[test]
    fn rw_removes_inversion_retries_and_cost_grows_with_faults() {
        let points = run(4, 6, 3);
        let get = |scheme: &str, faults: usize| {
            points
                .iter()
                .find(|p| p.scheme == scheme && p.faults == faults)
                .unwrap()
        };
        // Clean blocks: everyone writes once and verifies once.
        for p in points.iter().filter(|p| p.faults == 0) {
            assert_eq!(p.success_rate, 1.0, "{}", p.scheme);
            assert!(p.verifies_per_write >= 1.0);
            assert!(p.inversions_per_write <= f64::EPSILON, "{}", p.scheme);
        }
        // At 16 faults, base Aegis pays extra verification rounds where
        // Aegis-rw (fault knowledge) does not.
        let base = get("Aegis 9x61", 16);
        let rw = get("Aegis-rw 9x61", 16);
        if base.success_rate > 0.5 && rw.success_rate > 0.5 {
            assert!(
                base.verifies_per_write > rw.verifies_per_write,
                "base {} vs rw {}",
                base.verifies_per_write,
                rw.verifies_per_write
            );
        }
        // Base Aegis write cost grows with fault count.
        assert!(get("Aegis 9x61", 16).verifies_per_write > get("Aegis 9x61", 4).verifies_per_write);
    }
}
