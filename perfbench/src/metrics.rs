//! Names and units of every metric the benchmark reports.
//!
//! `BENCHMARK.json` at the repository root declares the same lists; the
//! benchmark's tests keep the two in step.

use crate::timed::FAMILIES;

/// End-to-end metrics (untraced CLI runs), `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("fault_events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that are not per policy family, `(name, unit)`.
const LAYERS: [(&str, &str); 30] = [
    ("timeline.blocks_sampled", "count"),
    ("timeline.lookups", "count"),
    ("timeline.cache_hit_ratio", "ratio"),
    ("timeline.busy_s", "s"),
    ("timeline.ns_per_block", "ns"),
    ("timeline.retained_mb", "MB"),
    ("timeline.events_used_ratio", "ratio"),
    ("split.calls", "count"),
    ("split.ns_per_call", "ns"),
    ("engine.pages", "count"),
    ("engine.fault_events", "count"),
    ("engine.policy_decisions", "count"),
    ("engine.busy_s", "s"),
    ("engine.self_s", "s"),
    ("pool.busy_fraction", "ratio"),
    ("pool.idle_s", "s"),
    ("pool.batches", "count"),
    ("campaign.snapshots", "count"),
    ("campaign.snapshot_s", "s"),
    ("campaign.snapshot_bytes", "B"),
    ("campaign.csv_s", "s"),
    ("telemetry.barrier_s", "s"),
    ("telemetry.series_bytes", "B"),
    ("telemetry.stream_events", "count"),
    ("telemetry.codec_probe_s", "s"),
    ("setup.schemes_s", "s"),
    ("setup.sidecars_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

/// Per-family policy metrics, `(suffix, unit)`.
pub const POLICY: [(&str, &str); 5] = [
    ("observe_calls", "count"),
    ("observe_ns", "ns"),
    ("decisions", "count"),
    ("decide_ns", "ns"),
    ("busy_s", "s"),
];

/// Every per-layer metric, `(name, unit)`, in report order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYERS
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .collect();
    for family in FAMILIES {
        for (suffix, unit) in POLICY {
            out.push((format!("policy.{family}.{suffix}"), unit));
        }
    }
    out
}

/// Whether `name` is a legal metric name: a leading letter or digit, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
