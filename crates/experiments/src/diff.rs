//! `telemetry-diff`: cross-run regression diffing over deterministic
//! telemetry.
//!
//! Two runs of the same configuration and seed must produce byte-identical
//! deterministic streams and series sidecars after volatile stripping —
//! that is the repo's central determinism contract. This module turns the
//! contract into a reviewable diff: it aligns two runs' streams and
//! reports exactly *what* moved — counter deltas, histogram distribution
//! shift (max per-bucket ratio plus p50/p90/p99 deltas), event kinds
//! present in one run but not the other, and diverging series samples —
//! instead of a bare "files differ".
//!
//! Two verdict modes share the alignment report:
//!
//! - [`DiffMode::Interval`] (the default): when both runs carry
//!   `series_estimate` lines, the verdict is statistical — drift only
//!   when some final estimate's 95% confidence intervals *separate*
//!   (`|Δmean| > ci_a + ci_b`). Structural differences (counters,
//!   histograms, raw series samples) are still itemised but are context,
//!   not a verdict: two seeds of the same configuration legitimately
//!   disagree sample-by-sample while estimating the same quantity. Runs
//!   without estimate lines fall back to exact comparison.
//! - [`DiffMode::Threshold`]: the legacy heuristic — every compared
//!   quantity is judged against a relative tolerance (0 = exact), so the
//!   tool doubles as a strict byte-level gate between runs that must
//!   agree exactly (e.g. one seed at two thread counts).
//!
//! Volatile lines ([`Event::Volatile`], [`Event::SeriesVolatile`]) are
//! parsed but left out of the comparison: they carry scheduling-dependent
//! values and are outside the contract.

use crate::telemetry::{fmt_quantile, snapshot_from_sparse};
use sim_telemetry::{Event, HistogramSnapshot, LocatedError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Why a diff could not run.
#[derive(Debug)]
pub enum DiffError {
    /// A stream file could not be read.
    Io(io::Error),
    /// A stream line failed to parse. Maps to the usage exit code (2): a
    /// corrupt stream is a malformed input, not a drift verdict.
    Malformed {
        /// The offending file.
        path: PathBuf,
        /// The first unparseable line of the file, its byte offset and the
        /// parse error.
        error: LocatedError,
    },
}

impl From<io::Error> for DiffError {
    fn from(err: io::Error) -> Self {
        DiffError::Io(err)
    }
}

/// How the drift verdict is reached (the report is the same either way).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiffMode {
    /// Statistical default: drift only when the final confidence
    /// intervals of a shared estimate separate. Falls back to
    /// `Threshold(0.0)` when either run lacks estimate lines.
    Interval,
    /// Legacy heuristic: relative tolerance on every compared quantity.
    Threshold(f64),
}

/// The rendered comparison and its verdict.
#[derive(Debug)]
pub struct DiffOutcome {
    /// Human-readable alignment report.
    pub report: String,
    /// True when any compared quantity moved beyond the tolerance.
    pub drift: bool,
}

/// One `series_estimate` sample (see [`Event::SeriesEstimate`]).
#[derive(Debug, Clone, Copy)]
struct EstimateSample {
    count: u64,
    mean: f64,
    ci95: f64,
}

/// Everything comparable extracted from one run's streams.
struct StreamFacts {
    /// Final counter values, by metric name.
    counters: BTreeMap<String, u64>,
    /// Final histogram states, by metric name.
    histograms: BTreeMap<String, HistogramSnapshot>,
    /// Event counts by kind tag (`counter`, `span_begin`, …).
    kinds: BTreeMap<&'static str, usize>,
    /// Series-sidecar counter samples, keyed by `(metric, pages)`.
    series: BTreeMap<(String, u64), u64>,
    /// Series-sidecar histogram samples, keyed by `(metric, pages)`.
    series_histograms: BTreeMap<(String, u64), HistogramSnapshot>,
    /// Series-sidecar estimate samples, keyed by `(estimate, pages)`.
    estimates: BTreeMap<(String, u64), EstimateSample>,
    /// Whether a series sidecar existed at all.
    has_series: bool,
}

impl StreamFacts {
    /// The last (highest page count) estimate sample per estimate name —
    /// the pooled final state the interval verdict compares.
    fn final_estimates(&self) -> BTreeMap<&str, EstimateSample> {
        let mut finals: BTreeMap<&str, EstimateSample> = BTreeMap::new();
        for ((name, _pages), sample) in &self.estimates {
            // BTreeMap iterates (name, pages) in ascending order, so the
            // last insert per name is the highest-pages sample.
            finals.insert(name.as_str(), *sample);
        }
        finals
    }
}

fn kind(event: &Event) -> &'static str {
    match event {
        Event::RunStart { .. } => "run_start",
        Event::SpanBegin { .. } => "span_begin",
        Event::SpanEnd { .. } => "span_end",
        Event::Counter { .. } => "counter",
        Event::Histogram { .. } => "histogram",
        Event::Volatile { .. } => "volatile",
        Event::Series { .. } => "series",
        Event::SeriesHistogram { .. } => "series_histogram",
        Event::SeriesVolatile { .. } => "series_volatile",
        Event::SeriesEstimate { .. } => "series_estimate",
        Event::RunEnd { .. } => "run_end",
    }
}

/// Reads one stream file, parses every line strictly (unlike the lenient
/// report/analyze readers: a diff over a silently truncated stream would
/// vouch for garbage) and drops the volatile events. An error names the
/// line of the file itself, volatile lines included.
fn load_events(path: &Path) -> Result<Vec<Event>, DiffError> {
    let text = fs::read_to_string(path)?;
    let mut events = Vec::new();
    let mut start = 0;
    for raw in text.split_inclusive('\n') {
        let line_start = start;
        start += raw.len();
        let line = raw.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        match Event::parse_line(line) {
            Ok((_, Event::Volatile { .. } | Event::SeriesVolatile { .. })) => {}
            Ok((_, event)) => events.push(event),
            Err(err) => {
                return Err(DiffError::Malformed {
                    path: path.to_owned(),
                    error: err.locate(&text, line_start),
                })
            }
        }
    }
    Ok(events)
}

fn gather(dir: &Path, run_id: &str) -> Result<StreamFacts, DiffError> {
    let mut facts = StreamFacts {
        counters: BTreeMap::new(),
        histograms: BTreeMap::new(),
        kinds: BTreeMap::new(),
        series: BTreeMap::new(),
        series_histograms: BTreeMap::new(),
        estimates: BTreeMap::new(),
        has_series: false,
    };
    let absorb = |events: Vec<Event>, facts: &mut StreamFacts| {
        for event in events {
            *facts.kinds.entry(kind(&event)).or_insert(0) += 1;
            match event {
                Event::Counter { name, value } => {
                    facts.counters.insert(name, value);
                }
                Event::Histogram {
                    name,
                    count,
                    sum,
                    buckets,
                } => {
                    facts
                        .histograms
                        .insert(name, snapshot_from_sparse(count, sum, &buckets));
                }
                Event::Series { name, pages, value } => {
                    facts.series.insert((name, pages), value);
                }
                Event::SeriesHistogram {
                    name,
                    pages,
                    count,
                    sum,
                    buckets,
                } => {
                    facts
                        .series_histograms
                        .insert((name, pages), snapshot_from_sparse(count, sum, &buckets));
                }
                Event::SeriesEstimate {
                    name,
                    pages,
                    count,
                    mean,
                    ci95,
                    ..
                } => {
                    facts
                        .estimates
                        .insert((name, pages), EstimateSample { count, mean, ci95 });
                }
                _ => {}
            }
        }
    };
    absorb(
        load_events(&dir.join(format!("{run_id}.jsonl")))?,
        &mut facts,
    );
    let series_path = dir.join(format!("{run_id}.series.jsonl"));
    if series_path.exists() {
        facts.has_series = true;
        absorb(load_events(&series_path)?, &mut facts);
    }
    Ok(facts)
}

/// Relative difference `|a − b| / max(|a|, |b|)`; 0 when both are 0.
fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

#[allow(clippy::cast_precision_loss)]
fn drifted(a: u64, b: u64, threshold: f64) -> bool {
    rel_diff(a as f64, b as f64) > threshold
}

/// Largest per-bucket count ratio between two histograms (∞ when a bucket
/// is empty on one side only), alongside whether any bucket drifted.
fn bucket_shift(a: &HistogramSnapshot, b: &HistogramSnapshot, threshold: f64) -> (f64, bool) {
    let mut max_ratio = 1.0f64;
    let mut moved = false;
    for (&ca, &cb) in a.buckets.iter().zip(&b.buckets) {
        if ca == cb {
            continue;
        }
        if drifted(ca, cb, threshold) {
            moved = true;
        }
        #[allow(clippy::cast_precision_loss)]
        let ratio = if ca.min(cb) == 0 {
            f64::INFINITY
        } else {
            ca.max(cb) as f64 / ca.min(cb) as f64
        };
        max_ratio = max_ratio.max(ratio);
    }
    (max_ratio, moved)
}

fn fmt_ratio(ratio: f64) -> String {
    if ratio.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{ratio:.3}")
    }
}

/// Compares two runs under `dir` and renders the alignment report.
///
/// # Errors
///
/// [`DiffError::Io`] when a stream cannot be read, [`DiffError::Malformed`]
/// when a line fails to parse.
pub fn diff_runs(
    dir: &Path,
    run_a: &str,
    run_b: &str,
    mode: DiffMode,
) -> Result<DiffOutcome, DiffError> {
    let a = gather(dir, run_a)?;
    let b = gather(dir, run_b)?;
    let interval = mode == DiffMode::Interval && !a.estimates.is_empty() && !b.estimates.is_empty();
    let threshold = match mode {
        DiffMode::Threshold(t) => t,
        DiffMode::Interval => 0.0,
    };
    let mut out = String::new();
    let mut structural = 0usize;
    let mut finding = |out: &mut String, line: &str| {
        let _ = writeln!(out, "  {line}");
        structural += 1;
    };
    let _ = writeln!(out, "Telemetry diff: '{run_a}' vs '{run_b}'");
    if mode == DiffMode::Interval && !interval {
        let _ = writeln!(
            out,
            "(interval mode requested but estimate lines are missing on at \
             least one side; falling back to exact comparison)"
        );
    }

    // Event kinds present in one stream but not the other, and gross
    // count mismatches (always exact: stream shape is structural).
    let _ = writeln!(out, "\nEvent kinds:");
    let kind_names: Vec<&'static str> = a.kinds.keys().chain(b.kinds.keys()).copied().collect();
    let mut seen = Vec::new();
    for name in kind_names {
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        match (a.kinds.get(name), b.kinds.get(name)) {
            (Some(&na), Some(&nb)) if na == nb => {}
            (Some(&na), Some(&nb)) => {
                finding(&mut out, &format!("{name}: {na} event(s) vs {nb}"));
            }
            (Some(&na), None) => {
                finding(
                    &mut out,
                    &format!("{name}: {na} event(s) only in '{run_a}'"),
                );
            }
            (None, Some(&nb)) => {
                finding(
                    &mut out,
                    &format!("{name}: {nb} event(s) only in '{run_b}'"),
                );
            }
            (None, None) => unreachable!(),
        }
    }

    let _ = writeln!(out, "\nCounters:");
    let counter_names: Vec<&String> = a.counters.keys().chain(b.counters.keys()).collect();
    let mut seen: Vec<&String> = Vec::new();
    for name in counter_names {
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        match (a.counters.get(name), b.counters.get(name)) {
            (Some(&va), Some(&vb)) => {
                if drifted(va, vb, threshold) {
                    #[allow(clippy::cast_possible_wrap)]
                    let delta = vb as i128 - i128::from(va);
                    finding(&mut out, &format!("{name}: {va} -> {vb} (delta {delta:+})"));
                }
            }
            (Some(&va), None) => {
                finding(&mut out, &format!("{name}: {va} only in '{run_a}'"));
            }
            (None, Some(&vb)) => {
                finding(&mut out, &format!("{name}: {vb} only in '{run_b}'"));
            }
            (None, None) => unreachable!(),
        }
    }

    let _ = writeln!(out, "\nHistograms:");
    let hist_names: Vec<&String> = a.histograms.keys().chain(b.histograms.keys()).collect();
    let mut seen: Vec<&String> = Vec::new();
    for name in hist_names {
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        match (a.histograms.get(name), b.histograms.get(name)) {
            (Some(ha), Some(hb)) => {
                let (max_ratio, buckets_moved) = bucket_shift(ha, hb, threshold);
                let moved = buckets_moved
                    || drifted(ha.count, hb.count, threshold)
                    || drifted(ha.sum, hb.sum, threshold);
                if moved {
                    let quantiles: Vec<String> = [0.5, 0.9, 0.99]
                        .iter()
                        .map(|&q| {
                            format!(
                                "p{:.0} {} -> {}",
                                q * 100.0,
                                fmt_quantile(ha.quantile(q)),
                                fmt_quantile(hb.quantile(q))
                            )
                        })
                        .collect();
                    finding(
                        &mut out,
                        &format!(
                            "{name}: n {} -> {}, max bucket ratio {}, {}",
                            ha.count,
                            hb.count,
                            fmt_ratio(max_ratio),
                            quantiles.join(", ")
                        ),
                    );
                }
            }
            (Some(_), None) => {
                finding(&mut out, &format!("{name}: only in '{run_a}'"));
            }
            (None, Some(_)) => {
                finding(&mut out, &format!("{name}: only in '{run_b}'"));
            }
            (None, None) => unreachable!(),
        }
    }

    let _ = writeln!(out, "\nSeries:");
    match (a.has_series, b.has_series) {
        (true, false) => finding(
            &mut out,
            &format!("series sidecar only in '{run_a}' (re-run '{run_b}' with --series)"),
        ),
        (false, true) => finding(
            &mut out,
            &format!("series sidecar only in '{run_b}' (re-run '{run_a}' with --series)"),
        ),
        (false, false) => {
            let _ = writeln!(out, "  (neither run recorded a series sidecar)");
        }
        (true, true) => {
            let mut sample_findings = 0usize;
            let sample_keys: Vec<(String, u64)> =
                a.series.keys().chain(b.series.keys()).cloned().collect();
            let mut seen: Vec<&(String, u64)> = Vec::new();
            for key in &sample_keys {
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                let (name, pages) = key;
                match (a.series.get(key), b.series.get(key)) {
                    (Some(&va), Some(&vb)) if !drifted(va, vb, threshold) => {}
                    (Some(&va), Some(&vb)) => {
                        finding(&mut out, &format!("{name} @ {pages} pages: {va} -> {vb}"));
                        sample_findings += 1;
                    }
                    (Some(&va), None) => {
                        finding(
                            &mut out,
                            &format!("{name} @ {pages} pages: {va} only in '{run_a}'"),
                        );
                        sample_findings += 1;
                    }
                    (None, Some(&vb)) => {
                        finding(
                            &mut out,
                            &format!("{name} @ {pages} pages: {vb} only in '{run_b}'"),
                        );
                        sample_findings += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            let hist_keys: Vec<(String, u64)> = a
                .series_histograms
                .keys()
                .chain(b.series_histograms.keys())
                .cloned()
                .collect();
            let mut seen: Vec<&(String, u64)> = Vec::new();
            for key in &hist_keys {
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                let (name, pages) = key;
                match (a.series_histograms.get(key), b.series_histograms.get(key)) {
                    (Some(ha), Some(hb)) => {
                        let (max_ratio, buckets_moved) = bucket_shift(ha, hb, threshold);
                        if buckets_moved
                            || drifted(ha.count, hb.count, threshold)
                            || drifted(ha.sum, hb.sum, threshold)
                        {
                            finding(
                                &mut out,
                                &format!(
                                    "{name} @ {pages} pages: n {} -> {}, max bucket ratio {}",
                                    ha.count,
                                    hb.count,
                                    fmt_ratio(max_ratio)
                                ),
                            );
                            sample_findings += 1;
                        }
                    }
                    (Some(_), None) => {
                        finding(
                            &mut out,
                            &format!("{name} @ {pages} pages: only in '{run_a}'"),
                        );
                        sample_findings += 1;
                    }
                    (None, Some(_)) => {
                        finding(
                            &mut out,
                            &format!("{name} @ {pages} pages: only in '{run_b}'"),
                        );
                        sample_findings += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            if sample_findings == 0 {
                let _ = writeln!(out, "  (all samples aligned)");
            }
        }
    }

    // Final-estimate comparison: in interval mode this section alone
    // decides the verdict; in threshold mode it is one more compared
    // quantity (relative tolerance on the means).
    let _ = writeln!(out, "\nEstimates:");
    let mut statistical = 0usize;
    if a.estimates.is_empty() && b.estimates.is_empty() {
        let _ = writeln!(out, "  (neither run recorded estimate lines)");
    } else {
        let fa = a.final_estimates();
        let fb = b.final_estimates();
        let mut names: Vec<&str> = fa.keys().chain(fb.keys()).copied().collect();
        names.sort_unstable();
        names.dedup();
        let mut aligned = 0usize;
        for name in names {
            match (fa.get(name), fb.get(name)) {
                (Some(ea), Some(eb)) => {
                    let separated = (ea.mean - eb.mean).abs() > ea.ci95 + eb.ci95;
                    let moved = if interval {
                        separated
                    } else {
                        rel_diff(ea.mean, eb.mean) > threshold
                    };
                    if moved {
                        let _ = writeln!(
                            out,
                            "  {name}: {:.4} ± {:.4} (n={}) vs {:.4} ± {:.4} (n={}) — {}",
                            ea.mean,
                            ea.ci95,
                            ea.count,
                            eb.mean,
                            eb.ci95,
                            eb.count,
                            if separated {
                                "intervals separate"
                            } else {
                                "means differ"
                            }
                        );
                        statistical += 1;
                    } else {
                        aligned += 1;
                    }
                }
                (Some(ea), None) => {
                    let _ = writeln!(
                        out,
                        "  {name}: {:.4} ± {:.4} only in '{run_a}'",
                        ea.mean, ea.ci95
                    );
                    statistical += 1;
                }
                (None, Some(eb)) => {
                    let _ = writeln!(
                        out,
                        "  {name}: {:.4} ± {:.4} only in '{run_b}'",
                        eb.mean, eb.ci95
                    );
                    statistical += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        if statistical == 0 {
            let _ = writeln!(out, "  ({aligned} estimate(s) aligned)");
        }
    }

    let drift = if interval {
        statistical > 0
    } else {
        structural > 0 || statistical > 0
    };
    let _ = writeln!(
        out,
        "\nVerdict: {}",
        if drift {
            if interval {
                "DRIFT (confidence intervals separate)"
            } else {
                "DRIFT (streams disagree beyond the tolerance)"
            }
        } else if interval && structural > 0 {
            "clean (structural differences stay within overlapping confidence intervals)"
        } else {
            "clean (streams agree after volatile stripping)"
        }
    );
    Ok(DiffOutcome { report: out, drift })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_telemetry::{Moments, RunTelemetry, SeriesWriter, UnitEstimate};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aegis-diff-{tag}-{}", std::process::id()))
    }

    /// Writes a run whose counters/histogram take values from `scale`,
    /// with a two-sample series sidecar. `lifetimes`, when non-empty,
    /// adds a final estimate snapshot over those samples.
    fn write_run_with(run_id: &str, dir: &Path, scale: u64, lifetimes: &[u64]) {
        let run = RunTelemetry::create(run_id, dir).unwrap();
        run.registry().counter("mc.ECP6.pages").add(4 * scale);
        run.registry().counter("mc.ECP6.blocks_dead").add(scale);
        run.registry().histogram("mc.ECP6.faults").record(2 * scale);
        let series = SeriesWriter::create(run_id, dir, 0).unwrap();
        series.advance(run.registry(), 2).unwrap();
        run.registry().counter("mc.ECP6.pages").add(scale);
        let estimates = if lifetimes.is_empty() {
            Vec::new()
        } else {
            vec![UnitEstimate {
                unit: "ECP6#512".to_owned(),
                metric: "lifetime",
                moments: Moments::from_samples(lifetimes),
            }]
        };
        series.advance_with(run.registry(), 2, &estimates).unwrap();
        series.finish().unwrap();
        run.finish().unwrap();
    }

    fn write_run(run_id: &str, dir: &Path, scale: u64) {
        write_run_with(run_id, dir, scale, &[]);
    }

    #[test]
    fn identical_runs_are_clean() {
        let dir = temp_dir("clean");
        let _ = fs::remove_dir_all(&dir);
        write_run("a", &dir, 3);
        write_run("b", &dir, 3);
        let outcome = diff_runs(&dir, "a", "b", DiffMode::Threshold(0.0)).unwrap();
        assert!(!outcome.drift, "{}", outcome.report);
        assert!(outcome.report.contains("clean"), "{}", outcome.report);
        assert!(
            outcome.report.contains("all samples aligned"),
            "{}",
            outcome.report
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn perturbed_counters_histograms_and_series_drift() {
        let dir = temp_dir("drift");
        let _ = fs::remove_dir_all(&dir);
        write_run("a", &dir, 3);
        write_run("b", &dir, 5);
        let outcome = diff_runs(&dir, "a", "b", DiffMode::Threshold(0.0)).unwrap();
        assert!(outcome.drift);
        assert!(
            outcome.report.contains("mc.ECP6.pages: 15 -> 25"),
            "{}",
            outcome.report
        );
        assert!(
            outcome.report.contains("mc.ECP6.faults"),
            "{}",
            outcome.report
        );
        assert!(outcome.report.contains("p50"), "{}", outcome.report);
        assert!(outcome.report.contains("@ 2 pages"), "{}", outcome.report);
        assert!(outcome.report.contains("DRIFT"), "{}", outcome.report);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn threshold_tolerates_small_relative_drift() {
        let dir = temp_dir("threshold");
        let _ = fs::remove_dir_all(&dir);
        write_run("a", &dir, 100);
        write_run("b", &dir, 101);
        assert!(
            diff_runs(&dir, "a", "b", DiffMode::Threshold(0.0))
                .unwrap()
                .drift
        );
        assert!(
            !diff_runs(&dir, "a", "b", DiffMode::Threshold(0.05))
                .unwrap()
                .drift
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_sidecar_on_one_side_is_drift() {
        let dir = temp_dir("sidecar");
        let _ = fs::remove_dir_all(&dir);
        write_run("a", &dir, 3);
        write_run("b", &dir, 3);
        fs::remove_file(dir.join("b.series.jsonl")).unwrap();
        let outcome = diff_runs(&dir, "a", "b", DiffMode::Threshold(0.0)).unwrap();
        assert!(outcome.drift);
        assert!(
            outcome.report.contains("series sidecar only in 'a'"),
            "{}",
            outcome.report
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn volatile_lines_never_cause_drift() {
        let dir = temp_dir("volatile");
        let _ = fs::remove_dir_all(&dir);
        write_run("a", &dir, 3);
        write_run("b", &dir, 3);
        // Volatile counters differ between the runs (scheduling noise);
        // the diff must strip them before comparing.
        let event = Event::Volatile {
            name: "pool.mc.pulls".to_owned(),
            value: 999,
        };
        let mut stream = fs::read_to_string(dir.join("a.jsonl")).unwrap();
        stream.push_str(&event.to_json(42));
        stream.push('\n');
        fs::write(dir.join("a.jsonl"), stream).unwrap();
        let outcome = diff_runs(&dir, "a", "b", DiffMode::Threshold(0.0)).unwrap();
        assert!(!outcome.drift, "{}", outcome.report);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_streams_name_the_line() {
        let dir = temp_dir("malformed");
        let _ = fs::remove_dir_all(&dir);
        write_run("a", &dir, 3);
        write_run("b", &dir, 3);
        let path = dir.join("b.jsonl");
        let mut stream = fs::read_to_string(&path).unwrap();
        let bad_start = stream.len();
        stream.push_str("{\"seq\": 999, \"event\": \"cou\n");
        fs::write(&path, &stream).unwrap();
        match diff_runs(&dir, "a", "b", DiffMode::Threshold(0.0)) {
            Err(DiffError::Malformed { path: p, error }) => {
                assert!(p.ends_with("b.jsonl"));
                assert_eq!(error.line, stream.lines().count(), "{error}");
                assert!((bad_start..stream.len()).contains(&error.pos), "{error}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_mode_tolerates_overlap_despite_structural_drift() {
        let dir = temp_dir("interval-overlap");
        let _ = fs::remove_dir_all(&dir);
        // Different per-sample values (as two seeds would produce), but
        // overlapping confidence intervals around the same mean.
        write_run_with("a", &dir, 3, &[90, 100, 110, 95, 105]);
        write_run_with("b", &dir, 5, &[92, 101, 108, 97, 103]);
        let outcome = diff_runs(&dir, "a", "b", DiffMode::Interval).unwrap();
        assert!(!outcome.drift, "{}", outcome.report);
        assert!(
            outcome
                .report
                .contains("within overlapping confidence intervals"),
            "{}",
            outcome.report
        );
        // The same pair drifts under the exact structural gate.
        assert!(
            diff_runs(&dir, "a", "b", DiffMode::Threshold(0.0))
                .unwrap()
                .drift
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_mode_flags_separated_intervals() {
        let dir = temp_dir("interval-separate");
        let _ = fs::remove_dir_all(&dir);
        write_run_with("a", &dir, 3, &[100, 101, 99, 100, 100]);
        write_run_with("b", &dir, 3, &[200, 201, 199, 200, 200]);
        let outcome = diff_runs(&dir, "a", "b", DiffMode::Interval).unwrap();
        assert!(outcome.drift, "{}", outcome.report);
        assert!(
            outcome.report.contains("intervals separate"),
            "{}",
            outcome.report
        );
        assert!(
            outcome.report.contains("ECP6#512.lifetime"),
            "{}",
            outcome.report
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_mode_falls_back_without_estimates() {
        let dir = temp_dir("interval-fallback");
        let _ = fs::remove_dir_all(&dir);
        write_run("a", &dir, 3);
        write_run("b", &dir, 5);
        let outcome = diff_runs(&dir, "a", "b", DiffMode::Interval).unwrap();
        assert!(outcome.drift, "{}", outcome.report);
        assert!(
            outcome.report.contains("falling back to exact comparison"),
            "{}",
            outcome.report
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn estimate_missing_on_one_side_is_drift_in_interval_mode() {
        let dir = temp_dir("interval-missing");
        let _ = fs::remove_dir_all(&dir);
        write_run_with("a", &dir, 3, &[100, 101, 99]);
        let run = RunTelemetry::create("b", &dir).unwrap();
        run.registry().counter("mc.ECP6.pages").add(12);
        let series = SeriesWriter::create("b", &dir, 0).unwrap();
        let other = vec![UnitEstimate {
            unit: "SAFER32#512".to_owned(),
            metric: "lifetime",
            moments: Moments::from_samples(&[100, 101, 99]),
        }];
        series.advance_with(run.registry(), 4, &other).unwrap();
        series.finish().unwrap();
        run.finish().unwrap();
        let outcome = diff_runs(&dir, "a", "b", DiffMode::Interval).unwrap();
        assert!(outcome.drift, "{}", outcome.report);
        assert!(outcome.report.contains("only in 'a'"), "{}", outcome.report);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_run_is_io_not_malformed() {
        let dir = temp_dir("missing");
        let _ = fs::remove_dir_all(&dir);
        write_run("a", &dir, 3);
        assert!(matches!(
            diff_runs(&dir, "a", "nope", DiffMode::Interval),
            Err(DiffError::Io(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
