//! Pay-As-You-Go (PAYG) global error correction with pluggable local
//! schemes.
//!
//! The Aegis paper's related work (§4) discusses PAYG (Qureshi, MICRO
//! 2011): because cell lifetime varies wildly, provisioning every data
//! block for the worst case wastes space — instead give each block a small
//! *local* error-correction (LEC) budget and let the rare heavily-faulted
//! blocks draw ECP-style entries from a shared *global* (GEC) pool. The
//! paper notes "Aegis complements PAYG with its strong fault tolerance
//! capability and its space efficiency"; this crate makes that claim
//! executable:
//!
//! - [`run_payg_chips`] — chip-wide event-driven evaluation: any
//!   [`RecoveryPolicy`](pcm_sim::policy::RecoveryPolicy) acts as the LEC,
//!   and blocks that outgrow it consume entries of a global pool (a
//!   granted entry permanently patches that cell), all on the engine's
//!   page-major sampler;
//! - [`overhead`] — budget accounting, so configurations can be compared
//!   at *matched total overhead* (the `experiments payg` command does
//!   exactly that against dedicated ECP6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
pub mod overhead;

pub use chip::{run_payg_chips, PaygRun};

// The chronological PAYG reference and its pool: test oracles only.
#[cfg(test)]
mod pool;
#[cfg(test)]
mod reference;
