//! Benchmark-harness shim: the crate has no SIMD code.
//!
//! Every scheme's predicate runs through the scalar per-event engine
//! body. [`backend_name`] exists only because `perfbench/` writes it into
//! its provenance line; delete it once the benchmark stops calling it.

/// Always `"none"`: no SIMD backend exists to select.
#[must_use]
pub fn backend_name() -> &'static str {
    "none"
}
