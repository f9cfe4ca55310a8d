//! OS-assisted recovery above the in-block schemes.
//!
//! The Aegis paper's §4 frames on-chip recovery as "the first line of
//! defense" and surveys what the OS can do once a block's scheme is
//! exhausted:
//!
//! - the naive policy — retire the page — depletes memory quickly;
//! - **Dynamic Pairing** (Ipek et al., ASPLOS 2010) recycles two retired
//!   pages whose failed blocks sit at different offsets into one usable
//!   page ([`pairing`]);
//! - **FREE-p** (Yoon et al., HPCA 2011) redirects a worn-out block to a
//!   spare through an embedded pointer, delaying page loss
//!   ([`freep`]).
//!
//! Both read the block-death times [`block_death_matrices`] computes in one
//! pass of the main Monte Carlo engine, so their interplay with any
//! [`RecoveryPolicy`] — including Aegis — is directly measurable: the
//! paper's claim that strong in-block recovery "substantially delays"
//! both the re-direction and the page loss becomes a number (see
//! `experiments osassist`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod freep;
pub mod pairing;

use pcm_sim::montecarlo::{map_pages, BlockOutcome, PageArena, PassHooks, SimConfig};
use pcm_sim::policy::RecoveryPolicy;
use pcm_sim::timeline::BlockTimeline;

/// Death time of every block of every page under each of `policies`, in
/// block writes — the shared input of both OS-assist mechanisms.
///
/// `matrices[i][page][block]` is the write count at which `policies[i]`
/// first fails that block (blocks that outlive their truncated timeline
/// get their last event time; with the default event cap that does not
/// happen for any scheme in this workspace). One engine pass samples each
/// page once and judges every policy on it.
///
/// # Panics
///
/// Panics if a policy's block width disagrees with the config.
#[must_use]
pub fn block_death_matrices(
    policies: &[&dyn RecoveryPolicy],
    cfg: &SimConfig,
) -> Vec<Vec<Vec<f64>>> {
    for policy in policies {
        assert_eq!(policy.block_bits(), cfg.block_bits, "block width mismatch");
    }
    let hooks = PassHooks::default();
    let pass = map_pages(
        cfg,
        0,
        cfg.pages,
        "osassist",
        &hooks,
        PageArena::new,
        |arena, _, _, page| {
            let mut deaths = vec![Vec::with_capacity(page.blocks.len()); policies.len()];
            for block in &page.blocks {
                let outcomes = arena.block_outcomes(policies, block, cfg.criterion);
                for (row, outcome) in deaths.iter_mut().zip(outcomes) {
                    row.push(death_time(outcome, block));
                }
            }
            deaths
        },
    );
    let mut matrices = vec![Vec::with_capacity(cfg.pages); policies.len()];
    for page in pass.results {
        for (matrix, deaths) in matrices.iter_mut().zip(page) {
            matrix.push(deaths);
        }
    }
    matrices
}

/// A block's death time, or its last event time if it outlived its
/// truncated timeline.
fn death_time(outcome: BlockOutcome, block: &BlockTimeline) -> f64 {
    outcome
        .death_time
        .unwrap_or_else(|| block.events.last().map_or(f64::INFINITY, |e| e.time))
}

/// [`block_death_matrices`] for one policy.
#[cfg(test)]
fn block_death_matrix(policy: &dyn RecoveryPolicy, cfg: &SimConfig) -> Vec<Vec<f64>> {
    block_death_matrices(&[policy], cfg).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_baselines::EcpPolicy;
    use aegis_core::{AegisPolicy, Rectangle};
    use pcm_sim::montecarlo::{evaluate_block, run_memory};
    use pcm_sim::timeline::TimelineSampler;

    #[test]
    fn matrix_minimum_equals_page_death() {
        let policy = EcpPolicy::new(4, 512);
        let cfg = SimConfig::scaled(4, 512, 3);
        let matrix = block_death_matrix(&policy, &cfg);
        let run = run_memory(&policy, &cfg);
        let sampler = TimelineSampler::paper_default(512);
        for (page, deaths) in matrix.iter().enumerate() {
            let min = deaths.iter().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(min, run.page_lifetimes[page], "page {page}");
            let mut rng = TimelineSampler::page_rng(cfg.seed, page as u64);
            let timeline = sampler.sample_page(&mut rng, cfg.blocks_per_page());
            for (block, (&death, bt)) in deaths.iter().zip(&timeline.blocks).enumerate() {
                let outcome = evaluate_block(&policy, bt, cfg.criterion);
                let want = outcome.death_time.unwrap_or(bt.events.last().unwrap().time);
                assert_eq!(death, want, "page {page} block {block}");
            }
        }
    }

    /// One pass over several schemes gives each the matrix it gets alone,
    /// at any thread count.
    #[test]
    fn shared_pass_matrices_equal_single_scheme_matrices() {
        let ecp2 = EcpPolicy::new(2, 512);
        let ecp6 = EcpPolicy::new(6, 512);
        let aegis = AegisPolicy::new(Rectangle::new(9, 61, 512).unwrap());
        let policies: [&dyn RecoveryPolicy; 3] = [&ecp2, &ecp6, &aegis];
        let mut cfg = SimConfig::scaled(3, 512, 11);
        let alone: Vec<_> = policies
            .iter()
            .map(|p| block_death_matrix(*p, &cfg))
            .collect();
        for threads in [1, 2] {
            cfg.threads = Some(threads);
            assert_eq!(
                block_death_matrices(&policies, &cfg),
                alone,
                "threads {threads}"
            );
        }
    }
}
