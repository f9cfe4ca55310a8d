//! Harness regenerating every table and figure of the Aegis (MICRO-46,
//! 2013) evaluation.
//!
//! Each module maps to one artifact of the paper's §3 and exposes a
//! `run(..)` producing structured results plus `report(..)` /
//! `write_csv(..)` for presentation — the `experiments` binary is a thin
//! CLI over these, and the Criterion benches in `crates/bench` reuse the
//! same entry points at reduced scale.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — cost (bits) vs hard FTC |
//! | [`fig567`] | Figures 5–7 — recoverable faults, lifetime improvement, per-bit contribution |
//! | [`failcdf`] | Block failure probability vs fault count (the paper's Figure 8 CDF) |
//! | [`fig8`] | Figure 8 — masking redundancy vs lifetime at matched overhead |
//! | [`fig9`] | Figure 9 — page survival and half lifetime |
//! | [`fig10`] | Figure 10 — Aegis-rw-p lifetime vs pointer count |
//! | [`variants`] | Figures 11–13 — Aegis vs Aegis-rw vs Aegis-rw-p |
//!
//! Beyond the paper, [`wearlevel_check`] validates §3.1's perfect-wear-
//! leveling assumption against a real Start-Gap implementation.
//!
//! All runs are deterministic given [`runner::RunOptions::seed`]; every
//! scheme in a run sees the identical fault timelines (common random
//! numbers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod biasstudy;
pub mod cachestudy;
pub mod campaign;
pub mod checkpoint;
pub mod csvout;
pub mod diff;
pub mod failcdf;
pub mod fig10;
pub mod fig567;
pub mod fig8;
pub mod fig9;
pub mod monitor;
pub mod osassist;
pub mod payg_check;
pub mod runner;
pub mod schemes;
pub mod shardmerge;
pub mod table1;
pub mod telemetry;
pub mod variants;
pub mod wearlevel_check;
pub mod writecost;
