//! Zero-dependency deterministic randomness and property testing for the
//! Aegis reproduction workspace.
//!
//! The build environment is fully offline: nothing in this workspace may
//! depend on crates.io. This crate supplies the two pieces of external
//! infrastructure the simulator previously pulled from `rand` and
//! `proptest`:
//!
//! * [`SmallRng`] — a seeded, portable PRNG (xoshiro256\*\* core, SplitMix64
//!   seed expansion) behind a small [`Rng`]/[`SeedableRng`] trait surface
//!   compatible with the existing call sites. Same seed in, bit-identical
//!   stream out, on every platform — the property that makes the paper's
//!   Monte Carlo figures reproducible.
//! * [`prop`] — a minimal property-test harness: seeded case generation,
//!   greedy shrinking on failure, and failure-seed reporting so a red run
//!   can be replayed exactly.
//!
//! # Example
//!
//! ```
//! use sim_rng::{Rng, SeedableRng, SmallRng};
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let coin: bool = rng.random();
//! let die = rng.random_range(1..=6);
//! assert!((1..=6).contains(&die));
//! let again = SmallRng::seed_from_u64(42).random::<bool>();
//! assert_eq!(coin, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod dist;
pub mod prop;

pub use crate::core::{substream_seed, RngCore, SeedableRng, SplitMix64, Xoshiro256StarStar};
pub use crate::dist::{Bernoulli, Rng, SampleRange, Standard};

/// The workspace's default generator: xoshiro256\*\* seeded via SplitMix64.
///
/// The name mirrors `rand::rngs::SmallRng`, which the pre-hermetic code
/// used at every call site; unlike that type, this one is guaranteed
/// portable and stable across releases.
pub type SmallRng = Xoshiro256StarStar;

/// Named generators, mirroring the `rand::rngs` module path so call sites
/// can import `sim_rng::rngs::SmallRng`.
pub mod rngs {
    pub use crate::SmallRng;
}
