//! The chronological reference for [`run_payg_chips`](crate::run_payg_chips):
//! every fault event of the chip merged into one time-sorted list and
//! replayed against one [`GlobalPool`], each population judged by the
//! stateless predicate. It holds the whole chip's events, so it serves
//! only as the differential oracle for the two-pass engine path.

use crate::pool::GlobalPool;
use pcm_sim::montecarlo::{FailureCriterion, SimConfig};
use pcm_sim::policy::RecoveryPolicy;
use pcm_sim::timeline::TimelineSampler;
use pcm_sim::{sample_split, Fault};
use sim_rng::{SeedableRng, SmallRng};

/// What the chronological merge reports.
pub(crate) struct Chronological {
    pub(crate) page_lifetimes: Vec<f64>,
    pub(crate) unprotected: Vec<f64>,
    pub(crate) faults_recovered: Vec<usize>,
    pub(crate) gec_used: usize,
    pub(crate) pool_exhausted_at: Option<f64>,
}

/// Chip-wide fault event, ready for time-ordered processing.
struct ChipEvent {
    time: f64,
    page: usize,
    block: usize,
    fault: Fault,
    split_seed: u64,
}

/// PAYG by chronological merge: grants newest-fault-first from one pool,
/// in the chip-wide time order of the events (ties in page, block and
/// event order).
pub(crate) fn run_payg_chronological(
    local: &dyn RecoveryPolicy,
    gec_entries: usize,
    cfg: &SimConfig,
) -> Chronological {
    let sampler = TimelineSampler::paper_default(cfg.block_bits);
    let blocks_per_page = cfg.blocks_per_page();
    let mut events: Vec<ChipEvent> = Vec::new();
    let mut unprotected = Vec::with_capacity(cfg.pages);
    for page in 0..cfg.pages {
        let mut rng = TimelineSampler::page_rng(cfg.seed, page as u64);
        let timeline = sampler.sample_page(&mut rng, blocks_per_page);
        unprotected.push(timeline.first_cell_death());
        for (block, bt) in timeline.blocks.iter().enumerate() {
            for event in &bt.events {
                events.push(ChipEvent {
                    time: event.time,
                    page,
                    block,
                    fault: event.fault,
                    split_seed: event.split_seed,
                });
            }
        }
    }
    events.sort_by(|a, b| a.time.total_cmp(&b.time));

    let mut pool = GlobalPool::new(gec_entries);
    let mut faults: Vec<Vec<Fault>> = vec![Vec::new(); cfg.pages * blocks_per_page];
    let mut page_death = vec![f64::INFINITY; cfg.pages];
    let mut recovered_per_page = vec![0usize; cfg.pages];
    let mut pool_exhausted_at = None;
    let samples = match cfg.criterion {
        FailureCriterion::PerEventSplit { samples } => samples,
        FailureCriterion::GuaranteedAllData => 0,
    };
    let feasible = |active: &[Fault], seed: u64| -> bool {
        if samples == 0 {
            local.guaranteed(active)
        } else {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..samples).all(|_| {
                let wrong = sample_split(&mut rng, active.len());
                local.recoverable(active, &wrong)
            })
        }
    };

    for event in &events {
        if page_death[event.page].is_finite() {
            continue; // page already retired
        }
        let block_id = (event.page * blocks_per_page + event.block) as u64;
        let active = &mut faults[block_id as usize];
        active.push(event.fault);
        // Grant repairs newest-first until the write goes through.
        while !feasible(active, event.split_seed) {
            let Some(&victim) = active.last() else { break };
            if !pool.grant(block_id, victim) {
                pool_exhausted_at.get_or_insert(event.time);
                page_death[event.page] = event.time;
                break;
            }
            active.pop();
        }
        if page_death[event.page].is_infinite() {
            recovered_per_page[event.page] += 1;
        }
    }

    let horizon = events.last().map_or(0.0, |e| e.time);
    for death in &mut page_death {
        if death.is_infinite() {
            *death = horizon;
        }
    }
    Chronological {
        page_lifetimes: page_death,
        unprotected,
        faults_recovered: recovered_per_page,
        gec_used: pool.used(),
        pool_exhausted_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_payg_chips, PaygRun};
    use aegis_baselines::{EcpPolicy, MaskingPolicy, PlbcPolicy};
    use aegis_core::{AegisPolicy, Rectangle};

    fn lecs() -> Vec<Box<dyn RecoveryPolicy>> {
        vec![
            Box::new(EcpPolicy::new(1, 512)),
            Box::new(AegisPolicy::new(Rectangle::new(23, 23, 512).unwrap())),
            Box::new(AegisPolicy::new(Rectangle::new(17, 31, 512).unwrap())),
            Box::new(MaskingPolicy::new(1, 512)),
            Box::new(PlbcPolicy::new(1, 1, 512)),
        ]
    }

    fn assert_same(got: &PaygRun, want: &Chronological, what: &str) {
        let chip = &got.chip;
        assert_eq!(
            chip.page_lifetimes, want.page_lifetimes,
            "{what}: lifetimes"
        );
        assert_eq!(
            chip.faults_recovered, want.faults_recovered,
            "{what}: faults"
        );
        assert_eq!(got.gec_used, want.gec_used, "{what}: gec_used");
        assert_eq!(
            got.pool_exhausted_at, want.pool_exhausted_at,
            "{what}: exhaustion"
        );
        assert_eq!(chip.unprotected_lifetimes, want.unprotected, "{what}");
    }

    /// Every LEC under every criterion the extension offers, over pools
    /// from empty to never exhausted: the two-pass engine path equals the
    /// chronological merge on all four outputs, with every LEC judged in
    /// the same passes and alone.
    #[test]
    fn two_pass_engine_path_equals_the_chronological_merge() {
        let lecs = lecs();
        let (mut exhausted, mut open) = (vec![0; lecs.len()], vec![0; lecs.len()]);
        let slice = [
            (
                1,
                FailureCriterion::default(),
                &[0, 1, 50, 400, 1_000_000][..],
            ),
            (
                42,
                FailureCriterion::default(),
                &[0, 1, 50, 400, 1_000_000][..],
            ),
            (
                7,
                FailureCriterion::PerEventSplit { samples: 3 },
                &[1, 400, 1_000_000][..],
            ),
            (
                7,
                FailureCriterion::GuaranteedAllData,
                &[1, 400, 1_000_000][..],
            ),
        ];
        for (seed, criterion, capacities) in slice {
            let cfg = SimConfig {
                criterion,
                threads: Some(2),
                ..SimConfig::scaled(2, 512, seed)
            };
            // Guaranteed masking and PLBC fall back to 512 sampled splits
            // past 14 faults, far too slow for the stateless oracle.
            let judged = match criterion {
                FailureCriterion::GuaranteedAllData => 3,
                FailureCriterion::PerEventSplit { .. } => lecs.len(),
            };
            for &capacity in capacities {
                let pairs: Vec<(&dyn RecoveryPolicy, usize)> = lecs[..judged]
                    .iter()
                    .map(|l| (l.as_ref(), capacity))
                    .collect();
                let together = run_payg_chips(&pairs, &cfg);
                for (l, (local, _)) in pairs.iter().enumerate() {
                    let want = run_payg_chronological(*local, capacity, &cfg);
                    let what =
                        format!("{} seed {seed} {criterion:?} pool {capacity}", local.name());
                    assert_same(&together[l], &want, &what);
                    if capacity == 400 {
                        let alone = run_payg_chips(&[(*local, capacity)], &cfg);
                        assert_same(&alone[0], &want, &what);
                    }
                    if want.pool_exhausted_at.is_some() {
                        exhausted[l] += 1;
                    } else {
                        open[l] += 1;
                    }
                }
            }
        }
        assert!(
            exhausted.iter().chain(&open).all(|&n| n > 0),
            "{exhausted:?} {open:?}"
        );
    }
}
