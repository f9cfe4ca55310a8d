//! The Aegis stuck-at-fault recovery scheme for phase-change memory.
//!
//! Reproduction of the primary contribution of *Aegis: Partitioning Data
//! Block for Efficient Recovery of Stuck-at-Faults in Phase Change Memory*
//! (Fan, Jiang, Shu, Zhang, Zheng — MICRO-46, 2013).
//!
//! ## The idea
//!
//! Inversion-based recovery partitions a data block into groups and stores
//! a group inverted when that masks the stuck cells inside it. Everything
//! hinges on the *partition scheme*. Aegis places the block's bits on an
//! `A×B` rectangle (`A ≤ B`, `B` prime) and uses lines of common slope as
//! groups: changing the slope re-partitions the block, and — because two
//! points determine a line — any two bits share a group under **at most
//! one** slope ([`Rectangle`], Theorems 1–2). A block therefore needs only
//! `C(f,2)+1` candidate slopes to be guaranteed a collision-free
//! configuration for `f` faults, with a constant `B` groups instead of
//! SAFER's exponential group growth.
//!
//! ## What this crate provides
//!
//! - [`Rectangle`]: the partition geometry with the paper's theorems
//!   enforced as tested invariants;
//! - [`rom`]: the precomputed lookup structures of the paper's Figures 3–4
//!   and §2.4;
//! - [`AegisCodec`], [`AegisRwCodec`], [`AegisRwPCodec`]: functional
//!   encoders/decoders driving simulated PCM cells
//!   ([`pcm_sim::PcmBlock`]);
//! - [`AegisPolicy`], [`AegisRwPolicy`], [`AegisRwPPolicy`]: `O(f²)` Monte
//!   Carlo predicates, property-tested equivalent to the codecs;
//! - [`cost`]: the closed-form per-block metadata costs of Table 1;
//! - [`analysis`]: a closed-form soft-FTC model for sizing a formation;
//! - [`primes`]: primality helpers for choosing `B`.
//!
//! Every predicate answers for one block at a time; the Monte Carlo
//! engine consults it at each fault arrival through the incremental pair
//! cache ([`pcm_sim::policy::PairCache`]).
//!
//! # Examples
//!
//! ```
//! use aegis_core::{AegisCodec, Rectangle};
//! use bitblock::BitBlock;
//! use pcm_sim::codec::StuckAtCodec;
//! use pcm_sim::PcmBlock;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Protect a 512-bit block with the Aegis 17×31 formation.
//! let mut codec = AegisCodec::new(Rectangle::new(17, 31, 512)?);
//! let mut block = PcmBlock::pristine(512);
//!
//! // Wear injects stuck-at faults over time…
//! block.force_stuck(37, true);
//! block.force_stuck(245, false);
//!
//! // …which the codec masks via group inversion, transparently.
//! let data = BitBlock::from_indices(512, [5usize, 37, 400]);
//! codec.write(&mut block, &data)?;
//! assert_eq!(codec.read(&block), data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod geometry;
mod predicate;

pub mod analysis;
pub mod cost;
pub mod primes;
pub mod rom;

pub use codec::{AegisCodec, AegisRwCodec, AegisRwPCodec};
pub use geometry::{GeometryError, Point, Rectangle};
pub use predicate::{AegisPolicy, AegisRwPPolicy, AegisRwPolicy};
