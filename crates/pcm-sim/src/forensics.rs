//! Block-death forensics: deterministic replay of one block's fault and
//! policy-decision history.
//!
//! The Monte Carlo engine derives every page timeline from `(seed,
//! page_idx)` alone, so any single block's entire history — each fault's
//! arrival time, position, and stuck value, every sampled W/R split, and
//! every policy verdict — can be re-derived after the fact without
//! storing anything during the run. This module performs that replay with
//! the *identical* entropy consumption as
//! [`evaluate_block_with_scratch`](crate::montecarlo::evaluate_block_with_scratch)
//! (same per-event split seeding, same short-circuit on the first failed
//! sample), annotates each decision via [`RecoveryPolicy::explain`], and
//! renders a deterministic text report. A differential test pins the
//! replayed outcome against the engine's.

use crate::fault::{sample_split_for_into, Fault, Stuckness};
use crate::montecarlo::{chip_page, BlockOutcome, FailureCriterion, SimConfig};
use crate::policy::{PolicyScratch, RecoveryPolicy};
use crate::timeline::BlockTimeline;
use sim_rng::SeedableRng;
use sim_rng::SmallRng;

/// Identifies one block of one simulated chip run.
#[derive(Debug, Clone, Copy)]
pub struct BlockTraceConfig {
    /// Master seed of the run being replayed.
    pub seed: u64,
    /// Bits per page (4 KB page = 32768).
    pub page_bits: usize,
    /// Bits per protected data block.
    pub block_bits: usize,
    /// Death criterion of the run being replayed.
    pub criterion: FailureCriterion,
    /// Page index within the chip.
    pub page: usize,
    /// Block index within the page.
    pub block: usize,
    /// Partially-stuck fraction of the run being replayed (see
    /// [`SimConfig::partial_fraction`](crate::montecarlo::SimConfig));
    /// `0.0` for every classic run.
    pub partial_fraction: f64,
}

/// Re-derives the fault timeline of the configured block, byte-identical
/// to what the engine sampled for the same `(seed, page)`.
///
/// # Errors
///
/// Returns a message when the block geometry is inconsistent or the block
/// index is out of range.
pub fn derive_block_timeline(cfg: &BlockTraceConfig) -> Result<BlockTimeline, String> {
    if cfg.block_bits == 0 || !cfg.page_bits.is_multiple_of(cfg.block_bits) {
        return Err(format!(
            "block width {} does not divide page width {}",
            cfg.block_bits, cfg.page_bits
        ));
    }
    let blocks_per_page = cfg.page_bits / cfg.block_bits;
    if cfg.block >= blocks_per_page {
        return Err(format!(
            "block index {} out of range: a {}-bit page holds {} blocks of {} bits",
            cfg.block, cfg.page_bits, blocks_per_page, cfg.block_bits
        ));
    }
    let chip = SimConfig {
        pages: cfg.page + 1,
        page_bits: cfg.page_bits,
        block_bits: cfg.block_bits,
        criterion: cfg.criterion,
        seed: cfg.seed,
        threads: None,
        partial_fraction: cfg.partial_fraction,
    };
    chip_page(&chip, cfg.page)
        .blocks
        .into_iter()
        .nth(cfg.block)
        .ok_or_else(|| "sampled page has too few blocks".to_owned())
}

/// One tested W/R split and the policy's verdict on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitTrace {
    /// `wrong[i]` ⇔ fault `i` was stuck-at-Wrong for the sampled data
    /// word. Empty under [`FailureCriterion::GuaranteedAllData`].
    pub wrong: Vec<bool>,
    /// Whether the policy recovered this split.
    pub survivable: bool,
    /// Scheme-specific narration from [`RecoveryPolicy::explain`].
    pub note: Option<String>,
}

/// One fault arrival and every policy decision it triggered.
#[derive(Debug, Clone, PartialEq)]
pub struct EventTrace {
    /// Arrival index within the block (0-based).
    pub index: usize,
    /// Arrival time in block writes.
    pub time: f64,
    /// The fault that arrived.
    pub fault: Fault,
    /// Splits tested for this population, in engine order. Stops at the
    /// first failed split, exactly as the engine short-circuits.
    pub splits: Vec<SplitTrace>,
    /// Whether this arrival killed the block.
    pub died: bool,
}

/// Full annotated replay of one policy over one block timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTrace {
    /// The policy's display name.
    pub policy: String,
    /// Criterion the replay used.
    pub criterion: FailureCriterion,
    /// Per-arrival decisions, truncated at death.
    pub events: Vec<EventTrace>,
    /// The replayed outcome; matches
    /// [`evaluate_block`](crate::montecarlo::evaluate_block) exactly.
    pub outcome: BlockOutcome,
}

/// Replays `policy` over `timeline`, annotating every decision.
///
/// Consumes entropy identically to the engine's block loop: one
/// [`SmallRng`] seeded from each event's `split_seed`, one split drawn per
/// sample, stopping at the first failure.
#[must_use]
pub fn trace_block(
    policy: &dyn RecoveryPolicy,
    timeline: &BlockTimeline,
    criterion: FailureCriterion,
) -> BlockTrace {
    let mut scratch = PolicyScratch::new();
    let mut faults: Vec<Fault> = Vec::new();
    let mut wrong: Vec<bool> = Vec::new();
    policy.forget_block(&mut scratch);
    let mut events = Vec::new();
    let mut outcome = BlockOutcome {
        events_survived: timeline.events.len(),
        death_time: None,
    };
    for (i, event) in timeline.events.iter().enumerate() {
        faults.push(event.fault);
        policy.observe_fault(&faults, &mut scratch);
        let mut splits = Vec::new();
        let survivable = match criterion {
            FailureCriterion::PerEventSplit { samples } => {
                let mut rng = SmallRng::seed_from_u64(event.split_seed);
                let mut all_ok = true;
                for _ in 0..samples {
                    sample_split_for_into(&mut rng, &faults, &mut wrong);
                    let ok = policy.recoverable_with(&faults, &wrong, &mut scratch);
                    splits.push(SplitTrace {
                        wrong: wrong.clone(),
                        survivable: ok,
                        note: policy.explain(&faults, &wrong),
                    });
                    if !ok {
                        all_ok = false;
                        break;
                    }
                }
                all_ok
            }
            FailureCriterion::GuaranteedAllData => {
                let ok = policy.guaranteed(&faults);
                splits.push(SplitTrace {
                    wrong: Vec::new(),
                    survivable: ok,
                    note: None,
                });
                ok
            }
        };
        events.push(EventTrace {
            index: i,
            time: event.time,
            fault: event.fault,
            splits,
            died: !survivable,
        });
        if !survivable {
            outcome = BlockOutcome {
                events_survived: i,
                death_time: Some(event.time),
            };
            break;
        }
    }
    BlockTrace {
        policy: policy.name(),
        criterion,
        events,
        outcome,
    }
}

fn criterion_label(criterion: FailureCriterion) -> String {
    match criterion {
        FailureCriterion::PerEventSplit { samples } => format!("per-event-split x{samples}"),
        FailureCriterion::GuaranteedAllData => "guaranteed-all-data".to_owned(),
    }
}

fn classes(wrong: &[bool]) -> String {
    wrong.iter().map(|&w| if w { 'W' } else { 'R' }).collect()
}

impl BlockTrace {
    /// Renders the replay as a deterministic text report (pure function of
    /// the trace and `cfg`; byte-identical across runs of the same seed).
    #[must_use]
    pub fn report(&self, cfg: &BlockTraceConfig) -> String {
        let mut out = String::new();
        out.push_str(&format!("policy:    {}\n", self.policy));
        out.push_str(&format!(
            "target:    page {} block {} (seed {})\n",
            cfg.page, cfg.block, cfg.seed
        ));
        out.push_str(&format!("criterion: {}\n", criterion_label(self.criterion)));
        out.push_str(&format!(
            "events:    {} fault arrival(s) replayed\n\n",
            self.events.len()
        ));
        for event in &self.events {
            let kind = match event.fault.kind {
                Stuckness::Full => String::new(),
                Stuckness::Partial { weak_success_q8 } => {
                    format!(" (partial, weak q8={weak_success_q8})")
                }
            };
            out.push_str(&format!(
                "event {:>3}  t={}  bit {} stuck-at-{}{kind}\n",
                event.index,
                event.time,
                event.fault.offset,
                u8::from(event.fault.stuck)
            ));
            let total = event.splits.len();
            for (s, split) in event.splits.iter().enumerate() {
                let verdict = if split.survivable {
                    "recoverable"
                } else {
                    "DEAD"
                };
                let classes = if split.wrong.is_empty() {
                    "(all data words)".to_owned()
                } else {
                    classes(&split.wrong)
                };
                out.push_str(&format!(
                    "  split {}/{total}  classes {classes}  -> {verdict}",
                    s + 1
                ));
                if let Some(note) = &split.note {
                    out.push_str(&format!("  [{note}]"));
                }
                out.push('\n');
            }
        }
        out.push('\n');
        match self.outcome.death_time {
            Some(t) => out.push_str(&format!(
                "verdict: died at event {} (t={}), after recovering {} fault(s)\n",
                self.outcome.events_survived, t, self.outcome.events_survived
            )),
            None => out.push_str(&format!(
                "verdict: outlived its {}-event timeline\n",
                self.outcome.events_survived
            )),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::evaluate_block;
    use crate::timeline::TimelineSampler;

    /// Tolerates up to `cap` stuck-at-Wrong faults, with narration.
    struct WrongCap {
        cap: usize,
    }

    impl RecoveryPolicy for WrongCap {
        fn name(&self) -> String {
            format!("wrong-cap{}", self.cap)
        }
        fn overhead_bits(&self) -> usize {
            0
        }
        fn block_bits(&self) -> usize {
            512
        }
        fn recoverable(&self, _faults: &[Fault], wrong: &[bool]) -> bool {
            wrong.iter().filter(|&&w| w).count() <= self.cap
        }
        fn explain(&self, _faults: &[Fault], wrong: &[bool]) -> Option<String> {
            Some(format!(
                "{} of {} wrong (cap {})",
                wrong.iter().filter(|&&w| w).count(),
                wrong.len(),
                self.cap
            ))
        }
    }

    fn cfg() -> BlockTraceConfig {
        BlockTraceConfig {
            seed: 42,
            page_bits: 4096 * 8,
            block_bits: 512,
            criterion: FailureCriterion::default(),
            page: 3,
            block: 12,
            partial_fraction: 0.0,
        }
    }

    #[test]
    fn derive_rejects_bad_geometry() {
        let mut bad = cfg();
        bad.block = 64; // a 32768-bit page holds 64 512-bit blocks: 0..=63
        assert!(derive_block_timeline(&bad).is_err());
        bad = cfg();
        bad.block_bits = 500;
        assert!(derive_block_timeline(&bad).is_err());
    }

    #[test]
    fn derived_timeline_matches_engine_sampling() {
        let cfg = cfg();
        let a = derive_block_timeline(&cfg).unwrap();
        let b = derive_block_timeline(&cfg).unwrap();
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
        // The same block sampled through the page path directly.
        let sampler = TimelineSampler::paper_default(cfg.block_bits);
        let mut rng = TimelineSampler::page_rng(cfg.seed, cfg.page as u64);
        let page = sampler.sample_page(&mut rng, cfg.page_bits / cfg.block_bits);
        assert_eq!(a.events, page.blocks[cfg.block].events);
    }

    #[test]
    fn replay_outcome_matches_the_engine() {
        let cfg = cfg();
        let timeline = derive_block_timeline(&cfg).unwrap();
        for cap in [0, 2, 5, 100] {
            let policy = WrongCap { cap };
            let trace = trace_block(&policy, &timeline, cfg.criterion);
            let engine = evaluate_block(&policy, &timeline, cfg.criterion);
            assert_eq!(trace.outcome, engine, "cap={cap}");
            // The trace narrates exactly the arrivals the engine consumed.
            let consumed = match engine.death_time {
                Some(_) => engine.events_survived + 1,
                None => engine.events_survived,
            };
            assert_eq!(trace.events.len(), consumed);
            if let Some(last) = trace.events.last() {
                assert_eq!(last.died, engine.death_time.is_some());
            }
        }
    }

    #[test]
    fn report_is_byte_identical_across_replays() {
        let cfg = cfg();
        let policy = WrongCap { cap: 3 };
        let render = || {
            let timeline = derive_block_timeline(&cfg).unwrap();
            trace_block(&policy, &timeline, cfg.criterion).report(&cfg)
        };
        let a = render();
        assert_eq!(a, render());
        assert!(a.contains("policy:    wrong-cap3"));
        assert!(a.contains("page 3 block 12 (seed 42)"));
        assert!(a.contains("wrong (cap 3)"));
        assert!(a.contains("verdict:"));
    }

    #[test]
    fn partial_fraction_replay_matches_the_engine() {
        let cfg = BlockTraceConfig {
            partial_fraction: 0.5,
            ..cfg()
        };
        let timeline = derive_block_timeline(&cfg).unwrap();
        assert!(timeline.events.iter().any(|e| e.fault.is_partial()));
        assert!(timeline.events.iter().any(|e| !e.fault.is_partial()));
        for cap in [2, 1000] {
            let policy = WrongCap { cap };
            let trace = trace_block(&policy, &timeline, cfg.criterion);
            let engine = evaluate_block(&policy, &timeline, cfg.criterion);
            assert_eq!(trace.outcome, engine, "cap={cap}");
        }
        // An outliving replay narrates every arrival, including the
        // partially stuck ones, with their kind annotated.
        let trace = trace_block(&WrongCap { cap: 1000 }, &timeline, cfg.criterion);
        assert!(trace.report(&cfg).contains("partial, weak q8=128"));
        // And a zero-fraction replay of the same coordinates is the classic
        // timeline (different draws, no partial faults).
        let classic = derive_block_timeline(&BlockTraceConfig {
            partial_fraction: 0.0,
            ..cfg
        })
        .unwrap();
        assert!(classic.events.iter().all(|e| !e.fault.is_partial()));
    }

    #[test]
    fn guaranteed_criterion_traces_without_splits() {
        let cfg = BlockTraceConfig {
            criterion: FailureCriterion::GuaranteedAllData,
            ..cfg()
        };
        let timeline = derive_block_timeline(&cfg).unwrap();
        let policy = WrongCap { cap: 2 };
        let trace = trace_block(&policy, &timeline, cfg.criterion);
        let engine = evaluate_block(&policy, &timeline, cfg.criterion);
        assert_eq!(trace.outcome, engine);
        assert!(trace
            .events
            .iter()
            .all(|e| e.splits.len() == 1 && e.splits[0].wrong.is_empty()));
        assert!(trace.report(&cfg).contains("(all data words)"));
    }
}
