//! Scheme registry: the exact configurations each figure of the paper
//! evaluates.

use aegis_baselines::{
    EcpPolicy, MaskingPolicy, PlbcPolicy, RdisPolicy, SaferPolicy, UnprotectedPolicy,
};
use aegis_core::{AegisPolicy, AegisRwPPolicy, AegisRwPolicy, Rectangle};
use pcm_sim::codec::StuckAtCodec;
use pcm_sim::policy::RecoveryPolicy;

/// A boxed policy, as the harness passes them around.
pub type Policy = Box<dyn RecoveryPolicy>;

/// Hands out fresh copies of one functional codec, as the codec sweeps
/// give one to every trial.
pub(crate) type CodecFactory = Box<dyn Fn() -> Box<dyn StuckAtCodec>>;

/// A [`CodecFactory`] that clones `prototype`.
///
/// The prototype is built once, so its ROM tables (paper Figs 3–4) are
/// built once per run, like the fixed logic they model. It is never
/// written, so each clone starts with a fresh codec's per-block state:
/// slope counter 0, no inversions, no pointers.
pub(crate) fn codec_factory<C: StuckAtCodec + Clone + 'static>(prototype: C) -> CodecFactory {
    Box::new(move || Box::new(prototype.clone()))
}

/// Base Aegis on an `A×B` formation.
///
/// # Panics
///
/// Panics if the formation is invalid for the block size.
#[must_use]
pub fn aegis(a: usize, b: usize, block_bits: usize) -> Policy {
    Box::new(AegisPolicy::new(
        Rectangle::new(a, b, block_bits).expect("valid formation"),
    ))
}

/// Aegis-rw on an `A×B` formation.
///
/// # Panics
///
/// Panics if the formation is invalid for the block size.
#[must_use]
pub fn aegis_rw(a: usize, b: usize, block_bits: usize) -> Policy {
    Box::new(AegisRwPolicy::new(
        Rectangle::new(a, b, block_bits).expect("valid formation"),
    ))
}

/// Aegis-rw-p on an `A×B` formation with `p` pointers.
///
/// # Panics
///
/// Panics if the formation is invalid for the block size.
#[must_use]
pub fn aegis_rw_p(a: usize, b: usize, block_bits: usize, p: usize) -> Policy {
    Box::new(AegisRwPPolicy::new(
        Rectangle::new(a, b, block_bits).expect("valid formation"),
        p,
    ))
}

/// [`aegis_rw_p`] for each pointer count of `pointers`, all sharing one
/// set of lookup ROMs.
///
/// # Panics
///
/// Panics if `pointers` is empty or holds a zero.
#[must_use]
pub fn aegis_rw_p_sweep(
    a: usize,
    b: usize,
    block_bits: usize,
    pointers: impl IntoIterator<Item = usize>,
) -> Vec<Policy> {
    let pointers: Vec<usize> = pointers.into_iter().collect();
    let base = AegisRwPPolicy::new(
        Rectangle::new(a, b, block_bits).expect("valid formation"),
        *pointers.first().expect("at least one pointer count"),
    );
    pointers
        .into_iter()
        .map(|p| Box::new(base.with_pointers(p)) as Policy)
        .collect()
}

/// ECP with `n` pointers.
#[must_use]
pub fn ecp(n: usize, block_bits: usize) -> Policy {
    Box::new(EcpPolicy::new(n, block_bits))
}

/// SAFER with `2^m` groups, optionally cache-assisted, using the faithful
/// incremental re-partition algorithm (what the SAFER paper builds and the
/// Aegis paper simulates; see EXPERIMENTS.md — the idealized exhaustive
/// search of [`safer_exhaustive`] overshoots SAFER's capability ~3×).
#[must_use]
pub fn safer(m: usize, block_bits: usize, cache: bool) -> Policy {
    Box::new(SaferPolicy::with_search(
        m,
        block_bits,
        cache,
        aegis_baselines::PartitionSearch::Incremental,
    ))
}

/// SAFER with an idealized exhaustive partition search (upper bound on any
/// SAFER implementation; ablation only).
#[must_use]
pub fn safer_exhaustive(m: usize, block_bits: usize, cache: bool) -> Policy {
    Box::new(SaferPolicy::new(m, block_bits, cache))
}

/// RDIS-3 on the standard grid.
#[must_use]
pub fn rdis3(block_bits: usize) -> Policy {
    Box::new(RdisPolicy::rdis3(block_bits))
}

/// Additive masking with `t` BCH row-blocks (Kim & Kumar).
#[must_use]
pub fn masking(t: usize, block_bits: usize) -> Policy {
    Box::new(MaskingPolicy::new(t, block_bits))
}

/// [`masking`] in reference (scalar) mode: per-bit Gaussian elimination
/// instead of the packed-column basis kernel.
#[must_use]
pub fn masking_scalar(t: usize, block_bits: usize) -> Policy {
    Box::new(MaskingPolicy::scalar(t, block_bits))
}

/// Partitioned linear code with `t_mask` masking row-blocks and `t_ecc`
/// pointer repairs (arXiv:1305.3289).
#[must_use]
pub fn plbc(t_mask: usize, t_ecc: usize, block_bits: usize) -> Policy {
    Box::new(PlbcPolicy::new(t_mask, t_ecc, block_bits))
}

/// [`plbc`] in reference (scalar) mode: flip-subset enumeration over the
/// per-bit consistency check.
#[must_use]
pub fn plbc_scalar(t_mask: usize, t_ecc: usize, block_bits: usize) -> Policy {
    Box::new(PlbcPolicy::scalar(t_mask, t_ecc, block_bits))
}

/// The unprotected baseline.
#[must_use]
pub fn unprotected(block_bits: usize) -> Policy {
    Box::new(UnprotectedPolicy::new(block_bits))
}

/// Base Aegis in reference (scalar) mode: decisions use the original
/// per-pair `Rectangle` arithmetic instead of the precomputed ROM kernels.
///
/// # Panics
///
/// Panics if the formation is invalid for the block size.
#[must_use]
pub fn aegis_scalar(a: usize, b: usize, block_bits: usize) -> Policy {
    Box::new(AegisPolicy::scalar(
        Rectangle::new(a, b, block_bits).expect("valid formation"),
    ))
}

/// Aegis-rw in reference (scalar) mode.
///
/// # Panics
///
/// Panics if the formation is invalid for the block size.
#[must_use]
pub fn aegis_rw_scalar(a: usize, b: usize, block_bits: usize) -> Policy {
    Box::new(AegisRwPolicy::scalar(
        Rectangle::new(a, b, block_bits).expect("valid formation"),
    ))
}

/// Aegis-rw-p in reference (scalar) mode.
///
/// # Panics
///
/// Panics if the formation is invalid for the block size.
#[must_use]
pub fn aegis_rw_p_scalar(a: usize, b: usize, block_bits: usize, p: usize) -> Policy {
    Box::new(AegisRwPPolicy::scalar(
        Rectangle::new(a, b, block_bits).expect("valid formation"),
        p,
    ))
}

/// Figure 5/6/7 scheme set for one block size (the bars of the paper's
/// figures: ECP4–6, RDIS-3, SAFER configurations, Aegis formations).
///
/// # Panics
///
/// Panics on an unsupported block size (the paper evaluates 256 and 512).
#[must_use]
pub fn fig5_schemes(block_bits: usize) -> Vec<Policy> {
    fig5_schemes_mode(block_bits, false)
}

/// [`fig5_schemes`] with the Aegis bars built in reference (scalar) mode —
/// same names, same decisions, no ROM kernels. Used by `--scalar` runs to
/// pin kernel/scalar telemetry equality end to end.
///
/// # Panics
///
/// Panics on an unsupported block size.
#[must_use]
pub fn fig5_schemes_scalar(block_bits: usize) -> Vec<Policy> {
    fig5_schemes_mode(block_bits, true)
}

fn fig5_schemes_mode(block_bits: usize, scalar: bool) -> Vec<Policy> {
    let aegis = |a, b, bits| {
        if scalar {
            aegis_scalar(a, b, bits)
        } else {
            aegis(a, b, bits)
        }
    };
    match block_bits {
        512 => vec![
            ecp(4, 512),
            ecp(5, 512),
            ecp(6, 512),
            rdis3(512),
            safer(5, 512, false),
            safer(6, 512, false),
            safer(7, 512, false),
            aegis(23, 23, 512),
            aegis(17, 31, 512),
            aegis(9, 61, 512),
        ],
        256 => vec![
            ecp(4, 256),
            ecp(5, 256),
            ecp(6, 256),
            rdis3(256),
            safer(5, 256, false),
            safer(6, 256, false),
            aegis(12, 23, 256),
            aegis(9, 31, 256),
        ],
        other => panic!("the paper evaluates 256- and 512-bit blocks, not {other}"),
    }
}

/// Block-failure-CDF / Figure 9 scheme set (512-bit blocks, including the
/// cache-assisted SAFER variants).
#[must_use]
pub fn failcdf_schemes() -> Vec<Policy> {
    vec![
        ecp(6, 512),
        rdis3(512),
        safer(6, 512, false),
        safer(7, 512, false),
        safer(6, 512, true),
        safer(7, 512, true),
        aegis(17, 31, 512),
        aegis(9, 61, 512),
    ]
}

/// Figure 8 scheme set: the information-theoretic comparator families at
/// (near-)matched metadata budgets against ECP6 and an Aegis reference —
/// masking redundancy sweep Mask2–Mask6 (20–60 bits), both 60-bit PLBC
/// allocations, ECP6 (61) and Aegis 10×53 (59).
#[must_use]
pub fn fig8_schemes() -> Vec<Policy> {
    vec![
        ecp(6, 512),
        masking(2, 512),
        masking(3, 512),
        masking(4, 512),
        masking(5, 512),
        masking(6, 512),
        plbc(4, 2, 512),
        plbc(5, 1, 512),
        aegis(10, 53, 512),
    ]
}

/// The four formations of Figures 10–13.
#[must_use]
pub fn variant_formations() -> [(usize, usize); 4] {
    [(23, 23), (17, 31), (9, 61), (8, 71)]
}

/// Figure 11/12/13 scheme set: Aegis, Aegis-rw and Aegis-rw-p (with the
/// paper's representative pointer counts 4/5/9/9) on each formation.
#[must_use]
pub fn variant_schemes() -> Vec<Policy> {
    let pointer_counts = [4usize, 5, 9, 9];
    let mut out: Vec<Policy> = Vec::new();
    for (&(a, b), &p) in variant_formations().iter().zip(&pointer_counts) {
        out.push(aegis(a, b, 512));
        out.push(aegis_rw(a, b, 512));
        out.push(aegis_rw_p(a, b, 512, p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_sets_have_paper_sizes() {
        assert_eq!(fig5_schemes(512).len(), 10);
        assert_eq!(fig5_schemes(256).len(), 8);
    }

    #[test]
    #[should_panic(expected = "256- and 512-bit")]
    fn fig5_rejects_other_sizes() {
        let _ = fig5_schemes(128);
    }

    #[test]
    fn scheme_names_match_paper_labels() {
        assert_eq!(aegis(9, 61, 512).name(), "Aegis 9x61");
        assert_eq!(safer(6, 512, true).name(), "SAFER64-cache");
        assert_eq!(ecp(6, 512).name(), "ECP6");
        assert_eq!(rdis3(512).name(), "RDIS-3");
        assert_eq!(aegis_rw_p(8, 71, 512, 9).name(), "Aegis-rw-p 8x71 p=9");
        assert_eq!(masking(6, 512).name(), "Mask6");
        assert_eq!(plbc(4, 2, 512).name(), "PLC4+2");
    }

    #[test]
    fn fig8_set_sits_at_matched_overhead() {
        let set = fig8_schemes();
        assert_eq!(set.len(), 9);
        // Every non-sweep scheme lands within a couple of bits of ECP6.
        for policy in &set {
            if policy.name().starts_with("Mask") && policy.name() != "Mask6" {
                continue; // the redundancy sweep itself
            }
            let delta = policy.overhead_bits().abs_diff(61);
            assert!(
                delta <= 2,
                "{}: {} bits",
                policy.name(),
                policy.overhead_bits()
            );
        }
    }

    #[test]
    fn variant_set_is_three_per_formation() {
        assert_eq!(variant_schemes().len(), 12);
    }

    #[test]
    fn scalar_fig5_set_mirrors_the_kernel_set() {
        for bits in [256usize, 512] {
            let kernel = fig5_schemes(bits);
            let scalar = fig5_schemes_scalar(bits);
            assert_eq!(kernel.len(), scalar.len());
            for (k, s) in kernel.iter().zip(&scalar) {
                assert_eq!(k.name(), s.name());
                assert_eq!(k.overhead_bits(), s.overhead_bits());
                assert_eq!(k.block_bits(), s.block_bits());
            }
        }
    }
}
