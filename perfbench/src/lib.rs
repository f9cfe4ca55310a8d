//! The repository benchmark's in-process half: a timing
//! [`RecoveryPolicy`](pcm_sim::policy::RecoveryPolicy) wrapper, the metric
//! tables, and traced replays of the three workloads. `run.py` drives the
//! untraced CLI runs and calls the `perfbench` binary for the rest; see
//! `README.md` beside this crate.

pub mod metrics;
pub mod timed;
pub mod traced;
