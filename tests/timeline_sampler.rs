//! Differential suite for the select-k timeline sampler.
//!
//! [`TimelineSampler::sample_block`] keeps the `max_events` earliest cell
//! failures of a block without sorting every cell, and skips the
//! transcendentals of cells that provably fail no earlier than the mean.
//! Every figure rests on its output, so it must be *bit-identical* to the
//! straightforward sampler it replaced: draw every lifetime, stable-sort
//! the whole block by time, truncate. That sampler is kept here verbatim as
//! [`reference_block`], and the property below runs both over random
//! widths, caps, spreads (including `cv = 10`, which exercises the
//! non-positive resample loop, and `cv = 0`, which forces the exact
//! fallback), wear models, stuck biases and partial-stuck mixes. It
//! asserts equal events *and* equal RNG state afterwards, so the
//! downstream stream (next block, next split) cannot drift either.
//!
//! CI runs it at `SIM_PROP_CASES=10000`.

use aegis_pcm::pcm::timeline::{BlockTimeline, FaultEvent, TimelineSampler};
use aegis_pcm::pcm::{Fault, LifetimeModel, WearModel};
use sim_rng::prop::{shrink, Runner};
use sim_rng::{prop_assert_eq, Rng, SeedableRng, SmallRng};

const WIDTHS: [usize; 7] = [1, 8, 64, 100, 256, 512, 1024];
const CVS: [f64; 4] = [0.0, 0.25, 1.0, 10.0];
const MEAN: f64 = 1.0e8;

/// One sampler configuration plus the seed of its stream.
#[derive(Debug, Clone, PartialEq)]
struct Case {
    bits: usize,
    max_events: usize,
    cv: f64,
    participation: f64,
    stuck_one_probability: f64,
    partial_fraction: f64,
    weak_success_q8: u8,
    blocks_per_page: usize,
    seed: u64,
}

impl Case {
    fn sampler(&self) -> TimelineSampler {
        TimelineSampler::new(
            self.bits,
            LifetimeModel::new(MEAN, self.cv),
            WearModel::new(self.participation),
            self.max_events,
        )
        .with_stuck_bias(self.stuck_one_probability)
        .with_partial_mix(self.partial_fraction, self.weak_success_q8)
    }

    /// Simpler variants: narrower blocks, fewer events, fewer blocks, the
    /// paper's spread and wear, an unbiased coin and no partial mix.
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let mut push = |edit: &dyn Fn(&mut Self)| {
            let mut next = self.clone();
            edit(&mut next);
            if next != *self {
                out.push(next);
            }
        };
        for bits in shrink::usize_toward(self.bits, 1) {
            push(&|c| c.bits = bits);
        }
        for k in shrink::usize_toward(self.max_events, 1) {
            push(&|c| c.max_events = k);
        }
        for blocks in shrink::usize_toward(self.blocks_per_page, 1) {
            push(&|c| c.blocks_per_page = blocks);
        }
        push(&|c| c.cv = 0.25);
        push(&|c| c.participation = 0.5);
        push(&|c| c.stuck_one_probability = 0.5);
        push(&|c| c.partial_fraction = 0.0);
        out
    }
}

fn generate(rng: &mut SmallRng) -> Case {
    let bits = WIDTHS[rng.random_range(0..WIDTHS.len())];
    let max_events = match rng.random_range(0..4u32) {
        0 => 1,
        1 => 10,
        2 => 96,
        _ => bits + rng.random_range(0..4usize),
    };
    Case {
        bits,
        max_events,
        cv: CVS[rng.random_range(0..CVS.len())],
        participation: if rng.random_bool(0.5) {
            0.5
        } else {
            1.0 - rng.random_range(0.0..0.95)
        },
        stuck_one_probability: if rng.random_bool(0.5) {
            0.5
        } else {
            rng.random::<f64>()
        },
        partial_fraction: if rng.random_bool(0.5) { 0.0 } else { 0.25 },
        weak_success_q8: rng.random(),
        blocks_per_page: rng.random_range(1..=3usize),
        seed: rng.random(),
    }
}

/// The sort-everything sampler the select-k kernel replaced, verbatim
/// apart from taking its parameters from a [`Case`].
fn reference_block<R: Rng + ?Sized>(case: &Case, rng: &mut R) -> BlockTimeline {
    let lifetime = LifetimeModel::new(MEAN, case.cv);
    let wear = WearModel::new(case.participation);
    let mut cells: Vec<(f64, usize)> = (0..case.bits)
        .map(|offset| (wear.fault_time(lifetime.sample(rng)), offset))
        .collect();
    cells.sort_by(|a, b| a.0.total_cmp(&b.0));
    cells.truncate(case.max_events.min(case.bits));
    let events = cells
        .into_iter()
        .map(|(time, offset)| {
            let stuck = rng.random_bool(case.stuck_one_probability);
            let fault = if case.partial_fraction > 0.0 && rng.random_bool(case.partial_fraction) {
                Fault::partial(offset, stuck, case.weak_success_q8)
            } else {
                Fault::new(offset, stuck)
            };
            FaultEvent {
                time,
                fault,
                split_seed: rng.random(),
            }
        })
        .collect();
    BlockTimeline { events }
}

/// Events with their times as raw bits, so "equal" means last-ulp equal.
fn bits_of(timeline: &BlockTimeline) -> Vec<(u64, Fault, u64)> {
    timeline
        .events
        .iter()
        .map(|e| (e.time.to_bits(), e.fault, e.split_seed))
        .collect()
}

#[test]
fn select_k_sampler_matches_the_sort_everything_reference() {
    Runner::new("select_k_sampler_matches_the_sort_everything_reference").run(
        generate,
        Case::shrink,
        |case| {
            let sampler = case.sampler();
            let mut fast = SmallRng::seed_from_u64(case.seed);
            let mut slow = SmallRng::seed_from_u64(case.seed);
            // A page reuses the kernel's buffers across blocks; a lone
            // block allocates its own. Both must track the reference.
            let page = sampler.sample_page(&mut fast, case.blocks_per_page);
            prop_assert_eq!(page.blocks.len(), case.blocks_per_page);
            for (i, block) in page.blocks.iter().enumerate() {
                let want = reference_block(case, &mut slow);
                prop_assert_eq!(bits_of(block), bits_of(&want), "page block {}", i);
            }
            let block = sampler.sample_block(&mut fast);
            prop_assert_eq!(bits_of(&block), bits_of(&reference_block(case, &mut slow)));
            prop_assert_eq!(fast, slow, "RNG state diverged after the block");
            Ok(())
        },
    );
}
