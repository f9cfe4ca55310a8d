//! Fixed-width bit vectors for the Aegis PCM stuck-at-fault reproduction.
//!
//! Every recovery scheme in this workspace manipulates data blocks, inversion
//! masks and ROM rows as dense bit vectors whose width (128, 256, 512 bits…)
//! is fixed at construction. [`BitBlock`] is that substrate: a compact
//! `Vec<u64>`-backed bit vector with the exact operations the schemes need —
//! single-bit access, XOR, masked inversion, popcount, iteration over set
//! bits, and positions-that-differ between two blocks (the output of a PCM
//! verification read).
//!
//! # Examples
//!
//! ```
//! use bitblock::BitBlock;
//!
//! let mut data = BitBlock::zeros(512);
//! data.set(7, true);
//! data.set(300, true);
//! assert_eq!(data.count_ones(), 2);
//!
//! let mask = BitBlock::from_indices(512, [7usize, 8]);
//! data ^= &mask; // invert the masked positions
//! assert!(!data.get(7));
//! assert!(data.get(8));
//! assert_eq!(data.ones().collect::<Vec<_>>(), vec![8, 300]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod iter;
mod ops;
pub mod simd;

pub use block::BitBlock;
pub use iter::{Bits, Ones};
