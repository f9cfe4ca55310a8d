//! Steady-state allocation gate: once a worker's arenas are warm,
//! evaluating further pages must not touch the allocator at all — every
//! per-block temporary, the shared W/R split tape included, lives in
//! [`PolicyScratch`] / [`PageArena`] and is reused block after block.
//!
//! The test wraps the global allocator in a counting shim, replays the
//! *same* pages once to warm every arena (first-touch growth is expected
//! and amortized), then replays them again and asserts the allocation
//! count did not move — for every policy family the Monte Carlo engine
//! ships, on the single-policy path and on the page-major pass that
//! judges all of them on one page and one split tape.
//!
//! The file holds exactly one `#[test]` so no concurrent test can bleed
//! allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use aegis_experiments::schemes;
use aegis_pcm::pcm::montecarlo::{
    evaluate_page_pass, evaluate_page_with_scratch, FailureCriterion, PageArena,
};
use aegis_pcm::pcm::policy::{PolicyScratch, RecoveryPolicy};
use aegis_pcm::pcm::timeline::{PageTimeline, TimelineSampler};
use sim_rng::{SeedableRng, SmallRng};

/// Forwards to the system allocator, counting every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter is the only addition.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn sample_pages(block_bits: usize, partial: bool) -> Vec<PageTimeline> {
    let mut sampler = TimelineSampler::paper_default(block_bits);
    if partial {
        sampler = sampler.with_partial_mix(0.25, 128);
    }
    (0..8u64)
        .map(|seed| {
            let mut rng = SmallRng::seed_from_u64(seed * 131 + 7);
            sampler.sample_page(&mut rng, 8)
        })
        .collect()
}

#[test]
fn steady_state_evaluation_is_allocation_free() {
    const BITS: usize = 128;
    let families: Vec<(schemes::Policy, &str)> = vec![
        (schemes::aegis(4, 37, BITS), "aegis"),
        (schemes::aegis_rw(4, 37, BITS), "aegis-rw"),
        (schemes::aegis_rw_p(4, 37, BITS, 2), "aegis-rw-p"),
        (schemes::ecp(4, BITS), "ecp"),
        (schemes::safer(5, BITS, false), "safer"),
        (schemes::rdis3(BITS), "rdis"),
    ];
    let criteria = [
        FailureCriterion::PerEventSplit { samples: 1 },
        FailureCriterion::PerEventSplit { samples: 3 },
        FailureCriterion::GuaranteedAllData,
    ];
    let pass: Vec<&dyn RecoveryPolicy> = families.iter().map(|(p, _)| p.as_ref()).collect();
    for partial in [false, true] {
        let pages = sample_pages(BITS, partial);
        for criterion in criteria {
            // Page-major pass: every family on each page, one shared tape.
            let mut arena = PageArena::new();
            for page in &pages {
                evaluate_page_pass(&pass, page, criterion, &[], &mut arena);
            }
            let warm = ALLOCATIONS.load(Ordering::Relaxed);
            for page in &pages {
                evaluate_page_pass(&pass, page, criterion, &[], &mut arena);
            }
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(
                after - warm,
                0,
                "page-major pass (partial={partial}, {criterion:?}): steady state \
                 allocated {} times",
                after - warm
            );
        }
        for (policy, name) in &families {
            for criterion in criteria {
                // Sequential path.
                let mut scratch = PolicyScratch::new();
                for page in &pages {
                    evaluate_page_with_scratch(
                        policy.as_ref(),
                        page,
                        criterion,
                        None,
                        &mut scratch,
                    );
                }
                let warm = ALLOCATIONS.load(Ordering::Relaxed);
                for page in &pages {
                    evaluate_page_with_scratch(
                        policy.as_ref(),
                        page,
                        criterion,
                        None,
                        &mut scratch,
                    );
                }
                let after = ALLOCATIONS.load(Ordering::Relaxed);
                assert_eq!(
                    after - warm,
                    0,
                    "{name} (partial={partial}, {criterion:?}): sequential steady state \
                     allocated {} times",
                    after - warm
                );
            }
        }
    }
}
