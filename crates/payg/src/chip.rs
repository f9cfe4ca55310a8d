//! Chip-wide event-driven evaluation of PAYG over any local scheme.

use pcm_sim::montecarlo::{map_pages, survives, FailureCriterion, MemoryRun, PassHooks, SimConfig};
use pcm_sim::policy::{PolicyScratch, RecoveryPolicy};
use pcm_sim::timeline::{FaultEvent, PageTimeline};
use pcm_sim::Fault;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// One chip-wide PAYG run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PaygRun {
    /// Per-page lifetimes, unprotected lifetimes and recovered faults,
    /// meaning what they mean for a chip without a pool. `capped_pages`
    /// counts the pages that outlived the pool and every timeline, whose
    /// lifetime is the chip's last event time.
    pub chip: MemoryRun,
    /// GEC entries consumed by the end of the run.
    pub gec_used: usize,
    /// Global write count at which the pool first ran dry (`None` if it
    /// never did).
    pub pool_exhausted_at: Option<f64>,
}

/// Runs PAYG for each `(local scheme, GEC entries)` pair of `lecs` on one
/// chip, returning one run per pair in slice order: the local scheme
/// protects every block, and a block whose population outgrows it draws
/// permanent single-cell repairs from the pair's global pool. A page dies
/// at the first write a block of it cannot absorb with the pool dry.
///
/// An infeasible write is granted repairs newest-fault-first until it goes
/// through (a simple, deterministic grant heuristic — the PAYG paper
/// allocates eagerly per fault instead; newest-first is lazier and never
/// wastes entries on populations the LEC still covers). The pool grants
/// in chip-wide `(time, page, block, event index)` order and never frees
/// an entry, and no page dies before it runs dry, so until then a block's
/// demands depend on its own timeline alone. Two passes of [`map_pages`]
/// judge every pair on each page:
///
/// 1. each block is walked as if the pool were unbounded; the pool runs
///    dry at `T*`, the `(entries + 1)`-th demand in that order. The chip's
///    `entries + 1` first demands live in one heap per pair, which each
///    worker merges its page's demands into once per page; a worker stops
///    a block's walk at a demand past the bound it last saw there;
/// 2. a page dies at its first demand at or after `T*`, credited with its
///    events before it. A page with no such demand, or with no `T*`, lives
///    to the chip's last event time with every event credited.
///
/// # Panics
///
/// Panics if a policy's block width disagrees with the config.
#[must_use]
pub fn run_payg_chips(lecs: &[(&dyn RecoveryPolicy, usize)], cfg: &SimConfig) -> Vec<PaygRun> {
    for (local, _) in lecs {
        assert_eq!(local.block_bits(), cfg.block_bits, "block width mismatch");
    }
    let hooks = PassHooks::default();
    let lanes = || -> Vec<Lane> { lecs.iter().map(|_| Lane::default()).collect() };
    // Per pair, shared by every worker: the chip's `entries + 1` smallest
    // demands so far. A worker holds its page's demands and the heap's
    // largest as last seen (once full): no demand above it can join.
    let smallest: Vec<Mutex<BinaryHeap<Key>>> = lecs.iter().map(|_| Mutex::default()).collect();
    let first = map_pages(
        cfg,
        0,
        cfg.pages,
        "payg.demands",
        &hooks,
        || (lanes(), vec![(Key::MAX, Vec::new()); lecs.len()]),
        |(lanes, pending), _, p, page| {
            for b in 0..page.blocks.len() {
                for (l, &(local, _)) in lecs.iter().enumerate() {
                    let (bound, keys) = &mut pending[l];
                    walk_block(local, page, (p, b), cfg.criterion, &mut lanes[l], |k| {
                        let kept = k < *bound;
                        if kept {
                            keys.push(k);
                        }
                        kept
                    });
                }
            }
            for ((bound, keys), (heap, &(_, entries))) in
                pending.iter_mut().zip(smallest.iter().zip(lecs))
            {
                let mut heap = heap.lock().expect("no worker panics holding the heap");
                let limit = entries.saturating_add(1);
                for k in keys.drain(..) {
                    keep_smallest(&mut heap, limit, k);
                }
                if heap.len() == limit {
                    *bound = *heap.peek().expect("a full heap");
                }
            }
            let last = page.blocks.iter().filter_map(|b| b.events.last());
            let horizon = last.map(|e| e.time).fold(0.0, f64::max);
            (page.first_cell_death(), horizon, page.total_events())
        },
    );
    let horizon = first.results.iter().map(|r| r.1).fold(0.0, f64::max);
    // Each pair's `(gec_used, T*)`: `T*` is the largest kept demand once
    // the heap holds `entries + 1`.
    let exhaustion: Vec<(usize, Option<Key>)> = smallest
        .into_iter()
        .zip(lecs)
        .map(|(heap, &(_, entries))| {
            let heap = heap.into_inner().expect("no worker panicked");
            match heap.len() {
                used if used <= entries => (used, None),
                _ => (entries, heap.peek().copied()),
            }
        })
        .collect();

    let deaths = |lanes: &mut Vec<Lane>, _: Option<&mut _>, p: usize, page: &PageTimeline| {
        let walks = lecs.iter().zip(lanes.iter_mut()).zip(&exhaustion);
        let deaths = walks.map(|((&(local, _), lane), &(_, t_star))| {
            let t_star = t_star?;
            let mut death = Key::MAX;
            for b in 0..page.blocks.len() {
                walk_block(local, page, (p, b), cfg.criterion, lane, |k| {
                    if k >= t_star {
                        death = death.min(k);
                    }
                    k < t_star
                });
            }
            let credited = page.blocks.iter().enumerate().map(|(b, block)| {
                let events = block.events.iter().enumerate();
                events.take_while(|&(i, e)| key(e, p, b, i) < death).count()
            });
            (death < Key::MAX).then(|| (key_time(death), credited.sum()))
        });
        deaths.collect::<Vec<Option<(f64, usize)>>>()
    };
    let second = map_pages(cfg, 0, cfg.pages, "payg.deaths", &hooks, lanes, deaths).results;

    let unprotected: Vec<f64> = first.results.iter().map(|r| r.0).collect();
    let runs = exhaustion
        .iter()
        .enumerate()
        .map(|(l, &(gec_used, t_star))| {
            let mut chip = MemoryRun {
                unprotected_lifetimes: unprotected.clone(),
                ..MemoryRun::default()
            };
            for (deaths, &(_, _, events)) in second.iter().zip(&first.results) {
                let (lifetime, faults) = deaths[l].unwrap_or((horizon, events));
                chip.page_lifetimes.push(lifetime);
                chip.faults_recovered.push(faults);
                chip.capped_pages += usize::from(deaths[l].is_none());
            }
            PaygRun {
                chip,
                gec_used,
                pool_exhausted_at: t_star.map(key_time),
            }
        });
    runs.collect()
}

/// A repair demand's place in the chip-wide time order, the order the
/// pool grants in: `(time, page, block, event index)` packed so that
/// integer order is that order (fault times are non-negative, so their
/// bit patterns order like the times).
type Key = u128;

fn key(event: &FaultEvent, page: usize, block: usize, index: usize) -> Key {
    debug_assert!(event.time >= 0.0 && page >> 32 == 0 && block >> 16 == 0 && index >> 16 == 0);
    u128::from(event.time.to_bits()) << 64 | (page << 32 | block << 16 | index) as u128
}

#[allow(clippy::cast_possible_truncation)]
fn key_time(key: Key) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

/// Keeps `key` if it is among the `limit` smallest offered to `heap` (a
/// max-heap) so far.
fn keep_smallest(heap: &mut BinaryHeap<Key>, limit: usize, key: Key) {
    if heap.len() < limit {
        if heap.len() == heap.capacity() {
            heap.reserve_exact(heap.len().max(16).min(limit - heap.len()));
        }
        heap.push(key);
    } else if let Some(mut largest) = heap.peek_mut() {
        if key < *largest {
            *largest = key;
        }
    }
}

/// One local scheme's walk state on a worker: its scratch and the live
/// (unrepaired) faults of the block under walk.
type Lane = (PolicyScratch, Vec<Fault>);

/// Walks block `b` of page `p` (`page`) with a pool that never runs dry:
/// each event's population is judged by [`survives`], and while it fails
/// the newest live fault is repaired. `grant` gets each repair's [`Key`]
/// first and stops the walk by returning `false`; a block's keys only
/// grow, so a refused key means every later one would be refused too.
fn walk_block(
    local: &dyn RecoveryPolicy,
    page: &PageTimeline,
    (p, b): (usize, usize),
    criterion: FailureCriterion,
    (scratch, faults): &mut Lane,
    mut grant: impl FnMut(Key) -> bool,
) {
    faults.clear();
    local.forget_block(scratch);
    for (i, event) in page.blocks[b].events.iter().enumerate() {
        faults.push(event.fault);
        local.observe_fault(faults, scratch);
        while !survives(local, faults, event.split_seed, criterion, scratch) {
            if faults.is_empty() {
                break;
            }
            if !grant(key(event, p, b, i)) {
                return;
            }
            // The shorter population is no extension of the cached one.
            faults.pop();
            local.forget_block(scratch);
            if !faults.is_empty() {
                local.observe_fault(faults, scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_baselines::EcpPolicy;

    fn run_payg_chip(local: &dyn RecoveryPolicy, entries: usize, cfg: &SimConfig) -> PaygRun {
        run_payg_chips(&[(local, entries)], cfg).remove(0)
    }
    use aegis_core::{AegisPolicy, Rectangle};

    fn cfg(pages: usize, seed: u64) -> SimConfig {
        SimConfig {
            pages,
            page_bits: 4096 * 8,
            block_bits: 512,
            criterion: FailureCriterion::default(),
            seed,
            threads: None,
            partial_fraction: 0.0,
        }
    }

    #[test]
    fn zero_pool_equals_bare_local_scheme() {
        let local = EcpPolicy::new(2, 512);
        let payg = run_payg_chip(&local, 0, &cfg(3, 5));
        let bare = pcm_sim::montecarlo::run_memory(&local, &cfg(3, 5));
        assert_eq!(payg.chip.page_lifetimes, bare.page_lifetimes);
        assert_eq!(payg.chip.faults_recovered, bare.faults_recovered);
        assert_eq!(payg.gec_used, 0);
    }

    #[test]
    fn pool_extends_lifetime_monotonically() {
        let local = EcpPolicy::new(1, 512);
        let config = cfg(3, 9);
        let mut prev = 0.0;
        for entries in [0usize, 64, 512] {
            let run = run_payg_chip(&local, entries, &config);
            let mean = pcm_sim::stats::mean(&run.chip.page_lifetimes);
            assert!(
                mean >= prev,
                "more GEC entries must not shorten life ({entries}: {mean} < {prev})"
            );
            prev = mean;
        }
        // Not merely no shorter: a 512-entry pool visibly stretches ECP1.
        let config = cfg(2, 7);
        let bare = pcm_sim::montecarlo::run_memory(&local, &config).mean_lifetime();
        let pooled = run_payg_chip(&local, 512, &config).chip.mean_lifetime();
        assert!(
            pooled > 1.05 * bare,
            "the GEC pool should visibly extend ECP1 page lifetimes ({pooled} vs {bare})"
        );
    }

    #[test]
    fn grants_are_actually_consumed_and_bounded() {
        let local = EcpPolicy::new(1, 512);
        let run = run_payg_chip(&local, 100, &cfg(2, 11));
        assert!(run.gec_used > 0, "ECP1 must outgrow its LEC");
        assert!(run.gec_used <= 100);
    }

    #[test]
    fn aegis_lec_outperforms_ecp1_lec_at_equal_pool() {
        let config = cfg(2, 13);
        let ecp = run_payg_chip(&EcpPolicy::new(1, 512), 200, &config);
        let aegis = run_payg_chip(
            &AegisPolicy::new(Rectangle::new(23, 23, 512).unwrap()),
            200,
            &config,
        );
        // Until the chip is fully dead both LECs eventually drain the
        // pool, so compare what the pool *buys*: pages live longer and the
        // pool lasts longer behind the stronger local scheme.
        assert!(
            aegis.chip.mean_lifetime() > ecp.chip.mean_lifetime(),
            "Aegis LEC should stretch page lifetime ({} vs {})",
            aegis.chip.mean_lifetime(),
            ecp.chip.mean_lifetime()
        );
        assert!(
            aegis.pool_exhausted_at.unwrap_or(f64::INFINITY)
                > ecp.pool_exhausted_at.unwrap_or(f64::INFINITY) * 0.99,
            "the pool must not drain earlier behind the stronger LEC"
        );
    }

    #[test]
    fn exhaustion_is_reported_when_pool_is_tiny() {
        let local = EcpPolicy::new(1, 512);
        let run = run_payg_chip(&local, 1, &cfg(2, 7));
        assert!(run.pool_exhausted_at.is_some());
    }
}
