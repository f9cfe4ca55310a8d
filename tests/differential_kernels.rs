//! Differential property suite for the PR 3 hot-path kernels: on random
//! geometries, data words, fault populations and known-fault truncations,
//! the word-level (ROM + mask) write paths must be observably identical to
//! the retained scalar references — same `Result`, same [`WriteReport`]
//! pulse/verify/inversion/re-partition counts, same slope evolution, same
//! physical codeword, same decode.
//!
//! Every case drives a *sequence* of writes through one codec pair so the
//! comparison covers state carried between writes (the sticky slope
//! counter, the stored inversion vector / pointer set), not just a single
//! encode. Failures shrink toward fewer faults and fewer/simpler writes
//! via the in-tree `sim_rng::prop` harness; CI runs the suite with
//! `SIM_PROP_CASES=10000` per codec variant (see `scripts/verify.sh`).
//!
//! Two more properties hold the ROM itself to naive references on the
//! same geometries: the pair policies against a per-group count over the
//! `ShiftRom` masks, and `ShiftRom::inversion_mask_into` against XOR-ing
//! the selected group masks one at a time.

use aegis_pcm::aegis::rom::ShiftRom;
use aegis_pcm::aegis::{
    AegisCodec, AegisPolicy, AegisRwCodec, AegisRwPCodec, AegisRwPPolicy, AegisRwPolicy, Rectangle,
};
use aegis_pcm::bitblock::BitBlock;
use aegis_pcm::codec::StuckAtCodec;
use aegis_pcm::pcm::policy::{PolicyScratch, RecoveryPolicy};
use aegis_pcm::pcm::{Fault, PcmBlock};
use sim_rng::prop::{shrink, Runner};
use sim_rng::{prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;

/// Valid `(A, B, bits)` formations the generator draws from: `B` prime,
/// `A ≤ B`, `bits ≤ A·B`, spanning full and ragged rectangles from the
/// trivial 1×3 up through a 512-bit paper formation, and two 512-bit
/// formations with more than 64 slopes.
const GEOMETRIES: &[(usize, usize, usize)] = &[
    (1, 3, 3),
    (2, 3, 5),
    (2, 3, 6),
    (3, 5, 13),
    (3, 5, 15),
    (4, 5, 17),
    (5, 7, 32),
    (5, 7, 35),
    (4, 7, 26),
    (7, 11, 71),
    (9, 13, 112),
    (9, 61, 512),
    (8, 71, 512),
    (5, 127, 512),
];

/// One differential trial: a formation, a fault population to install
/// before any write, a sequence of data seeds (one write each), and how
/// many of the faults the controller is told about up front (rw/rw-p).
#[derive(Debug, Clone)]
struct Case {
    geometry: usize,
    faults: Vec<Fault>,
    writes: Vec<u64>,
    known: usize,
    pointers: usize,
}

impl Case {
    fn rect(&self) -> Rectangle {
        let (a, b, bits) = GEOMETRIES[self.geometry];
        Rectangle::new(a, b, bits).expect("generator only draws valid formations")
    }

    /// The known-fault prefix handed to `write_with_known`, clamped so
    /// shrinking the fault list can never desynchronize the two fields.
    fn known_faults(&self) -> &[Fault] {
        &self.faults[..self.known.min(self.faults.len())]
    }
}

/// Generator: geometry index, up to six distinct stuck cells, one to four
/// writes, a random known-prefix length, and a 1–4 pointer budget.
fn gen_case(rng: &mut SmallRng) -> Case {
    let geometry = rng.random_range(0..GEOMETRIES.len());
    let bits = GEOMETRIES[geometry].2;
    let n = rng.random_range(0..=6usize.min(bits));
    let mut offsets: Vec<usize> = Vec::with_capacity(n);
    while offsets.len() < n {
        let offset = rng.random_range(0..bits);
        if !offsets.contains(&offset) {
            offsets.push(offset);
        }
    }
    let faults = offsets
        .into_iter()
        .map(|offset| Fault::new(offset, rng.random_bool(0.5)))
        .collect::<Vec<_>>();
    let writes = (0..rng.random_range(1..=4usize))
        .map(|_| rng.random::<u64>())
        .collect();
    let known = rng.random_range(0..=faults.len());
    let pointers = rng.random_range(1..=4usize);
    Case {
        geometry,
        faults,
        writes,
        known,
        pointers,
    }
}

/// Shrinker: drop faults, then drop/simplify writes (keeping at least
/// one), then pull the pointer budget down.
fn shrink_case(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for faults in shrink::vec(&case.faults, shrink::none) {
        out.push(Case {
            faults,
            ..case.clone()
        });
    }
    for writes in shrink::vec(&case.writes, |&s| shrink::u64_down(s)) {
        if !writes.is_empty() {
            out.push(Case {
                writes,
                ..case.clone()
            });
        }
    }
    for pointers in shrink::usize_toward(case.pointers, 1) {
        out.push(Case {
            pointers,
            ..case.clone()
        });
    }
    out
}

/// Prototypes keyed by type, geometry index and variant.
type Prototypes = HashMap<(TypeId, usize, usize), Box<dyn Any>>;

thread_local! {
    static PROTOTYPES: RefCell<Prototypes> = RefCell::default();
}

/// A clone of what `build` makes for the case's geometry and `variant`
/// (a pointer budget, or 0), built once per test thread. The codecs,
/// policies and ROMs of the 512-bit formations spend tens of milliseconds
/// building their tables, and a clone of a fresh one is a fresh one.
fn prototype<T: Clone + 'static>(case: &Case, variant: usize, build: impl FnOnce() -> T) -> T {
    PROTOTYPES.with(|protos| {
        protos
            .borrow_mut()
            .entry((TypeId::of::<T>(), case.geometry, variant))
            .or_insert_with(|| Box::new(build()))
            .downcast_ref::<T>()
            .expect("prototypes are keyed by their type")
            .clone()
    })
}

/// Builds the twin fault-identical blocks for one case.
fn twin_blocks(case: &Case, bits: usize) -> (PcmBlock, PcmBlock) {
    let mut kernel = PcmBlock::pristine(bits);
    let mut scalar = PcmBlock::pristine(bits);
    for fault in &case.faults {
        kernel.force_stuck(fault.offset, fault.stuck);
        scalar.force_stuck(fault.offset, fault.stuck);
    }
    (kernel, scalar)
}

fn data_word(seed: u64, bits: usize) -> BitBlock {
    BitBlock::random(&mut SmallRng::seed_from_u64(seed), bits)
}

#[test]
fn aegis_kernel_write_is_bit_identical_to_the_scalar_reference() {
    Runner::new("aegis_kernel_write_is_bit_identical_to_the_scalar_reference")
        .cases(2_000)
        .run(gen_case, shrink_case, |case| {
            let rect = case.rect();
            let bits = rect.bits();
            let mut kernel = prototype(case, 0, || AegisCodec::new(rect));
            let mut scalar = kernel.clone();
            let (mut kb, mut sb) = twin_blocks(case, bits);
            for &seed in &case.writes {
                let data = data_word(seed, bits);
                let kr = kernel.write(&mut kb, &data);
                let sr = scalar.write_scalar(&mut sb, &data);
                prop_assert_eq!(&kr, &sr);
                prop_assert_eq!(kernel.slope(), scalar.slope());
                prop_assert_eq!(kernel.inversion_vector(), scalar.inversion_vector());
                prop_assert_eq!(kb.read_raw(), sb.read_raw());
                prop_assert_eq!(kernel.read(&kb), scalar.read(&sb));
                if kr.is_ok() {
                    prop_assert_eq!(kernel.read(&kb), data.clone());
                }
            }
            Ok(())
        });
}

#[test]
fn aegis_rw_kernel_write_is_bit_identical_to_the_scalar_reference() {
    Runner::new("aegis_rw_kernel_write_is_bit_identical_to_the_scalar_reference")
        .cases(2_000)
        .run(gen_case, shrink_case, |case| {
            let rect = case.rect();
            let bits = rect.bits();
            let mut kernel = prototype(case, 0, || AegisRwCodec::new(rect));
            let mut scalar = kernel.clone();
            let (mut kb, mut sb) = twin_blocks(case, bits);
            let known = case.known_faults();
            for &seed in &case.writes {
                let data = data_word(seed, bits);
                let kr = kernel.write_with_known(&mut kb, &data, known);
                let sr = scalar.write_with_known_scalar(&mut sb, &data, known);
                prop_assert_eq!(&kr, &sr);
                prop_assert_eq!(kernel.slope(), scalar.slope());
                prop_assert_eq!(kb.read_raw(), sb.read_raw());
                prop_assert_eq!(kernel.read(&kb), scalar.read(&sb));
                if kr.is_ok() {
                    prop_assert_eq!(kernel.read(&kb), data.clone());
                }
            }
            Ok(())
        });
}

#[test]
fn aegis_rw_p_kernel_write_is_bit_identical_to_the_scalar_reference() {
    Runner::new("aegis_rw_p_kernel_write_is_bit_identical_to_the_scalar_reference")
        .cases(2_000)
        .run(gen_case, shrink_case, |case| {
            let rect = case.rect();
            let bits = rect.bits();
            let mut kernel = prototype(case, case.pointers, || {
                AegisRwPCodec::new(rect, case.pointers)
            });
            let mut scalar = kernel.clone();
            prop_assert_eq!(kernel.pointers(), scalar.pointers());
            let (mut kb, mut sb) = twin_blocks(case, bits);
            let known = case.known_faults();
            for &seed in &case.writes {
                let data = data_word(seed, bits);
                let kr = kernel.write_with_known(&mut kb, &data, known);
                let sr = scalar.write_with_known_scalar(&mut sb, &data, known);
                prop_assert_eq!(&kr, &sr);
                prop_assert_eq!(kernel.slope(), scalar.slope());
                prop_assert_eq!(kb.read_raw(), sb.read_raw());
                prop_assert_eq!(kernel.read(&kb), scalar.read(&sb));
                if kr.is_ok() {
                    prop_assert_eq!(kernel.read(&kb), data.clone());
                }
            }
            Ok(())
        });
}

/// The full-cache entry points (`write`/`write_scalar`, which look the
/// block's entire fault population up themselves) agree too — this is the
/// path the Monte Carlo engine's codec-level experiments exercise.
#[test]
fn full_cache_write_paths_agree_for_the_rw_variants() {
    Runner::new("full_cache_write_paths_agree_for_the_rw_variants")
        .cases(1_000)
        .run(gen_case, shrink_case, |case| {
            let rect = case.rect();
            let bits = rect.bits();

            let mut kernel = prototype(case, 0, || AegisRwCodec::new(rect.clone()));
            let mut scalar = kernel.clone();
            let (mut kb, mut sb) = twin_blocks(case, bits);
            for &seed in &case.writes {
                let data = data_word(seed, bits);
                prop_assert_eq!(
                    &kernel.write(&mut kb, &data),
                    &scalar.write_scalar(&mut sb, &data)
                );
                prop_assert_eq!(kb.read_raw(), sb.read_raw());
            }

            let mut kernel = prototype(case, case.pointers, || {
                AegisRwPCodec::new(rect, case.pointers)
            });
            let mut scalar = kernel.clone();
            let (mut kb, mut sb) = twin_blocks(case, bits);
            for &seed in &case.writes {
                let data = data_word(seed, bits);
                prop_assert_eq!(
                    &kernel.write(&mut kb, &data),
                    &scalar.write_scalar(&mut sb, &data)
                );
                prop_assert_eq!(kb.read_raw(), sb.read_raw());
            }
            Ok(())
        });
}

/// The Monte Carlo predicates agree too: on random fault populations and
/// W/R splits (one split per write seed), the ROM-backed `recoverable` /
/// `recoverable_with` verdicts of all three Aegis policies equal the
/// scalar-mode policies' verdicts — the block-lifetime decision the fig5–7
/// sweeps are built on.
#[test]
fn policy_verdicts_agree_between_kernel_and_scalar_modes() {
    Runner::new("policy_verdicts_agree_between_kernel_and_scalar_modes")
        .cases(1_000)
        .run(gen_case, shrink_case, |case| {
            let rect = case.rect();
            let kernel: Vec<Box<dyn RecoveryPolicy>> = vec![
                Box::new(prototype(case, 0, || AegisPolicy::new(rect.clone()))),
                Box::new(prototype(case, 0, || AegisRwPolicy::new(rect.clone()))),
                Box::new(prototype(case, case.pointers, || {
                    AegisRwPPolicy::new(rect.clone(), case.pointers)
                })),
            ];
            let scalar: Vec<Box<dyn RecoveryPolicy>> = vec![
                Box::new(AegisPolicy::scalar(rect.clone())),
                Box::new(AegisRwPolicy::scalar(rect.clone())),
                Box::new(AegisRwPPolicy::scalar(rect, case.pointers)),
            ];
            let mut scratch = PolicyScratch::new();
            for &seed in &case.writes {
                let mut split_rng = SmallRng::seed_from_u64(seed);
                let wrong: Vec<bool> = case
                    .faults
                    .iter()
                    .map(|_| split_rng.random_bool(0.5))
                    .collect();
                for (k, s) in kernel.iter().zip(&scalar) {
                    let want = s.recoverable(&case.faults, &wrong);
                    prop_assert_eq!(k.recoverable(&case.faults, &wrong), want);
                    prop_assert_eq!(k.recoverable_with(&case.faults, &wrong, &mut scratch), want);
                    prop_assert_eq!(s.recoverable_with(&case.faults, &wrong, &mut scratch), want);
                }
            }
            Ok(())
        });
}

/// Group-count oracle read straight off the [`ShiftRom`] member masks:
/// some slope leaves no group mixing W and R faults and, for base Aegis
/// (`rw == false`), no group holding two W faults. It shares no code with
/// the policies' pair-collision formulation.
fn shift_rom_oracle(shift: &ShiftRom, faults: &[Fault], wrong: &[bool], rw: bool) -> bool {
    (0..shift.slopes()).any(|slope| {
        (0..shift.groups()).all(|group| {
            let mask = shift.mask_words(slope, group);
            let (mut w, mut r) = (0usize, 0usize);
            for (fault, &is_wrong) in faults.iter().zip(wrong) {
                if (mask[fault.offset / 64] >> (fault.offset % 64)) & 1 == 1 {
                    if is_wrong {
                        w += 1;
                    } else {
                        r += 1;
                    }
                }
            }
            !(w > 0 && r > 0) && (rw || w <= 1)
        })
    })
}

/// The pair policies answer the same question as a per-group count over
/// the ROM masks, on ragged and multi-word geometries up to the 512-bit
/// paper formation (the brute-force oracles in `exhaustive_small.rs`
/// stop at `B ≤ 7`) — base Aegis both stateless and from a warm scratch.
#[test]
fn pair_policies_match_a_shift_rom_group_oracle() {
    Runner::new("pair_policies_match_a_shift_rom_group_oracle")
        .cases(1_000)
        .run(gen_case, shrink_case, |case| {
            let rect = case.rect();
            let shift = prototype(case, 0, || ShiftRom::new(&rect));
            let aegis = prototype(case, 0, || AegisPolicy::new(rect.clone()));
            let aegis_rw = prototype(case, 0, || AegisRwPolicy::new(rect));
            // A scratch warmed one arrival at a time, as the engine does,
            // so base Aegis also decides from its per-fault slope masks.
            let mut warm = PolicyScratch::new();
            for n in 1..=case.faults.len() {
                aegis.observe_fault(&case.faults[..n], &mut warm);
            }
            for &seed in &case.writes {
                let mut split_rng = SmallRng::seed_from_u64(seed);
                let wrong: Vec<bool> = case
                    .faults
                    .iter()
                    .map(|_| split_rng.random_bool(0.5))
                    .collect();
                let want = shift_rom_oracle(&shift, &case.faults, &wrong, false);
                prop_assert_eq!(
                    aegis.recoverable(&case.faults, &wrong),
                    want,
                    "Aegis, split {:?}",
                    wrong
                );
                prop_assert_eq!(
                    aegis.recoverable_with(&case.faults, &wrong, &mut warm),
                    want,
                    "Aegis (warm), split {:?}",
                    wrong
                );
                prop_assert_eq!(
                    aegis_rw.recoverable(&case.faults, &wrong),
                    shift_rom_oracle(&shift, &case.faults, &wrong, true),
                    "Aegis-rw, split {:?}",
                    wrong
                );
            }
            Ok(())
        });
}

/// `ShiftRom::inversion_mask_into` — the encode step of every Aegis
/// write — equals XOR-ing the selected group masks into the data one at
/// a time, on every slope of ragged and multi-word geometries (the
/// exhaustive pin in `exhaustive_small.rs` covers single-word blocks).
#[test]
fn shift_rom_inversion_mask_matches_the_naive_group_union() {
    Runner::new("shift_rom_inversion_mask_matches_the_naive_group_union")
        .cases(500)
        .run(gen_case, shrink_case, |case| {
            let rect = case.rect();
            let shift = prototype(case, 0, || ShiftRom::new(&rect));
            let mut mask = BitBlock::zeros(rect.bits());
            for &seed in &case.writes {
                let mut rng = SmallRng::seed_from_u64(seed);
                let inversion = BitBlock::random_with_density(&mut rng, shift.groups(), 0.3);
                let data = BitBlock::random(&mut rng, rect.bits());
                for slope in 0..shift.slopes() {
                    shift.inversion_mask_into(slope, &inversion, &mut mask);
                    let mut naive = data.clone();
                    for group in inversion.ones() {
                        naive.xor_words(shift.mask_words(slope, group));
                    }
                    prop_assert_eq!(&data ^ &mask, naive, "slope {}", slope);
                }
            }
            Ok(())
        });
}

/// Fault-identical twins stay fault-identical: a sanity pin that the
/// differential harness itself cannot diverge through block state.
#[test]
fn twin_blocks_report_identical_fault_populations() {
    Runner::new("twin_blocks_report_identical_fault_populations")
        .cases(200)
        .run(gen_case, shrink_case, |case| {
            let bits = case.rect().bits();
            let (kb, sb) = twin_blocks(case, bits);
            prop_assert_eq!(kb.faults(), sb.faults());
            prop_assert!(kb.fault_count() <= case.faults.len());
            Ok(())
        });
}
