//! FREE-p: block-level remapping to spares through embedded pointers.
//!
//! When a block's in-block recovery is exhausted, FREE-p (Yoon et al.)
//! writes a pointer into the worn block (its cells are still mostly
//! readable) redirecting accesses to a spare block. The page keeps
//! working; it is lost only when the spare reserve runs out. The Aegis
//! paper: "With Aegis's strong fault tolerance capability, the
//! re-direction as well as loss of faulty pages can be substantially
//! delayed" — this module measures both the re-direction rate and the
//! delay.

use crate::death_time;
use pcm_sim::montecarlo::{evaluate_block, SimConfig};
use pcm_sim::policy::RecoveryPolicy;
use pcm_sim::timeline::TimelineSampler;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a FREE-p simulation.
#[derive(Debug, Clone)]
pub struct FreepRun {
    /// Per-page death times (page writes), spares included.
    pub page_lifetimes: Vec<f64>,
    /// Redirections performed chip-wide.
    pub redirections: usize,
    /// Spare blocks provisioned.
    pub spares: usize,
    /// Global time of the first redirection (the paper's "delayed
    /// re-direction" metric); `None` if none happened.
    pub first_redirection: Option<f64>,
}

/// Simulates FREE-p over `policy` with a reserve of `spares` blocks, from
/// the chip's block-death `matrix` (see
/// [`block_death_matrices`](crate::block_death_matrices)).
///
/// A block death consumes one spare and restarts that slot's life with a
/// freshly sampled block timeline offset to the death time (the spare is
/// pristine silicon). Spare timelines come serially from their own RNG
/// stream, disjoint from the page streams. A death with the reserve empty
/// kills the page.
#[must_use]
pub fn run_freep(
    policy: &dyn RecoveryPolicy,
    matrix: &[Vec<f64>],
    spares: usize,
    cfg: &SimConfig,
) -> FreepRun {
    let sampler = TimelineSampler::paper_default(cfg.block_bits);
    let mut rng_spare = TimelineSampler::page_rng(cfg.seed ^ SPARE_STREAM, u64::MAX);
    // Block deaths in `(time, page)` order; death times are non-negative,
    // so their bit patterns order like the times. Seed every first death.
    let event = |time: f64, page| Reverse((time.to_bits(), page));
    let pages = matrix.iter().enumerate();
    let mut heap: BinaryHeap<_> = pages
        .flat_map(|(page, deaths)| deaths.iter().map(move |&time| event(time, page)))
        .collect();

    let mut remaining = spares;
    let mut redirections = 0usize;
    let mut first_redirection = None;
    let mut page_lifetimes = vec![f64::INFINITY; matrix.len()];
    let mut dead_pages = 0usize;

    while let Some(Reverse((bits, page))) = heap.pop() {
        let time = f64::from_bits(bits);
        if page_lifetimes[page].is_finite() {
            continue; // page already dead; drop its queued events
        }
        if remaining == 0 {
            page_lifetimes[page] = time;
            dead_pages += 1;
            if dead_pages == matrix.len() {
                break;
            }
            continue;
        }
        // Redirect to a fresh spare: the slot restarts its life at `time`
        // with a new pristine block.
        remaining -= 1;
        redirections += 1;
        first_redirection.get_or_insert(time);
        let replacement = sampler.sample_block(&mut rng_spare);
        let outcome = evaluate_block(policy, &replacement, cfg.criterion);
        heap.push(event(time + death_time(outcome, &replacement), page));
    }

    FreepRun {
        page_lifetimes,
        redirections,
        spares,
        first_redirection,
    }
}

/// RNG-stream separator for the spare region.
const SPARE_STREAM: u64 = 0x0005_1a4e_b10c;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_death_matrix;
    use aegis_baselines::EcpPolicy;
    use pcm_sim::stats::mean;

    fn cfg(pages: usize) -> SimConfig {
        SimConfig::scaled(pages, 512, 29)
    }

    #[test]
    fn zero_spares_matches_plain_retirement() {
        let policy = EcpPolicy::new(4, 512);
        let configuration = cfg(4);
        let matrix = block_death_matrix(&policy, &configuration);
        let run = run_freep(&policy, &matrix, 0, &configuration);
        let plain = pcm_sim::montecarlo::run_memory(&policy, &configuration);
        assert_eq!(run.page_lifetimes, plain.page_lifetimes);
        assert_eq!(run.redirections, 0);
        assert!(run.first_redirection.is_none());
    }

    #[test]
    fn spares_extend_page_lifetimes_monotonically() {
        let policy = EcpPolicy::new(4, 512);
        let configuration = cfg(4);
        let matrix = block_death_matrix(&policy, &configuration);
        let mut previous = 0.0;
        for spares in [0usize, 8, 64] {
            let run = run_freep(&policy, &matrix, spares, &configuration);
            let m = mean(&run.page_lifetimes);
            assert!(m >= previous, "spares={spares}: {m} < {previous}");
            previous = m;
        }
    }

    #[test]
    fn stronger_in_block_scheme_delays_first_redirection() {
        use aegis_core::{AegisPolicy, Rectangle};
        let configuration = cfg(3);
        let ecp2 = EcpPolicy::new(2, 512);
        let weak = run_freep(
            &ecp2,
            &block_death_matrix(&ecp2, &configuration),
            16,
            &configuration,
        );
        let aegis = AegisPolicy::new(Rectangle::new(9, 61, 512).unwrap());
        let matrix = block_death_matrix(&aegis, &configuration);
        let strong = run_freep(&aegis, &matrix, 16, &configuration);
        // The paper's §4 claim, measured.
        assert!(
            strong.first_redirection.unwrap() > weak.first_redirection.unwrap(),
            "Aegis must delay the first FREE-p redirection"
        );
    }

    #[test]
    fn all_spares_are_usable() {
        let policy = EcpPolicy::new(1, 512);
        let matrix = block_death_matrix(&policy, &cfg(2));
        let run = run_freep(&policy, &matrix, 10, &cfg(2));
        assert_eq!(run.redirections, 10);
    }
}
