//! Run-level telemetry plumbing for the CLI: run-id defaults, the
//! codec-probe phase, and the `telemetry-report` renderer.
//!
//! The figure experiments evaluate *analytic* recovery policies, which
//! never issue physical writes — so when telemetry is enabled we also run
//! a small codec probe (the [`crate::writecost`] sweep at reduced scale)
//! through the shared `WriteTelemetry` path. That is what populates the
//! `codec.<scheme>.*` counters (verify reads, re-partitions, inversion
//! writes) alongside the Monte Carlo engine's `mc.<scheme>.*` metrics.

use sim_telemetry::{
    split_metric, Event, HistogramSnapshot, Registry, RunManifest, HISTOGRAM_BUCKETS,
};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The telemetry directory under an experiment output directory.
#[must_use]
pub fn dir(out_dir: &Path) -> PathBuf {
    out_dir.join("telemetry")
}

/// Default run id when `--run-id` is not given: `<command>-s<seed>`.
#[must_use]
pub fn default_run_id(command: &str, seed: u64) -> String {
    format!("{command}-s{seed}")
}

/// Trials/writes used by the codec probe: enough that every scheme's
/// counters are non-zero. The probe's 588 writes take a few tens of
/// milliseconds; that holds only because [`crate::writecost`] builds each
/// codec's ROM tables once per run and clones the codec for each trial.
pub const PROBE_TRIALS: usize = 3;
/// Writes per probe trial.
pub const PROBE_WRITES: usize = 4;

/// Runs the functional codecs at reduced scale through the shared
/// `WriteTelemetry` path, folding `codec.<scheme>.*` totals into
/// `registry`.
pub fn codec_probe(registry: &Registry, seed: u64) {
    let _ = crate::writecost::run_with(PROBE_TRIALS, PROBE_WRITES, seed, Some(registry));
}

/// A run read back from disk, tolerating mid-file corruption: malformed
/// JSONL lines are skipped and their 1-based line numbers recorded, so a
/// partially damaged stream still yields a report (and the caller can
/// surface the damage instead of dying on line one).
pub(crate) struct RunData {
    pub manifest: RunManifest,
    pub events: Vec<Event>,
    /// 1-based line numbers of stream lines that failed to parse.
    pub skipped_lines: Vec<usize>,
}

pub(crate) fn read_run(run_id: &str, telemetry_dir: &Path) -> io::Result<RunData> {
    let manifest_path = telemetry_dir.join(format!("{run_id}.manifest.json"));
    let manifest = RunManifest::parse(&fs::read_to_string(&manifest_path)?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let stream_path = telemetry_dir.join(format!("{run_id}.jsonl"));
    let text = fs::read_to_string(&stream_path)?;
    let mut events = Vec::new();
    let mut skipped_lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::parse_line(line) {
            Ok((_, event)) => events.push(event),
            Err(_) => skipped_lines.push(i + 1),
        }
    }
    Ok(RunData {
        manifest,
        events,
        skipped_lines,
    })
}

/// Shared CLI plumbing for the lenient telemetry readers
/// (`telemetry-report` and `telemetry-analyze`): `None` for a clean
/// stream, otherwise the diagnostic naming the count and the first
/// offending 1-based line. Both tools print this to stderr and exit with
/// the usage code (2), so their malformed-stream behavior cannot drift.
#[must_use]
pub fn skipped_lines_diagnostic(tool: &str, skipped: &[usize]) -> Option<String> {
    let first = *skipped.first()?;
    Some(format!(
        "{tool}: skipped {} malformed stream line(s) (first at line {first})",
        skipped.len()
    ))
}

/// Rebuilds a dense [`HistogramSnapshot`] from the sparse `(bucket,
/// count)` pairs a stream's `histogram`/`series_histogram` events carry.
#[must_use]
pub fn snapshot_from_sparse(count: u64, sum: u64, sparse: &[(usize, u64)]) -> HistogramSnapshot {
    let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
    for &(bucket, tally) in sparse {
        if let Some(slot) = buckets.get_mut(bucket) {
            *slot = tally;
        }
    }
    HistogramSnapshot {
        count,
        sum,
        buckets,
    }
}

/// Renders a quantile value for reports: bucket lower bounds are exact
/// powers of two, so integers print plainly; empty histograms print `-`.
#[must_use]
pub fn fmt_quantile(value: f64) -> String {
    if value.is_nan() {
        "-".to_owned()
    } else {
        format!("{value:.0}")
    }
}

fn fmt_duration(nanos: u64) -> String {
    let ms = nanos as f64 / 1e6;
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else {
        format!("{ms:.2} ms")
    }
}

/// Pretty-prints a finished run: manifest header, phase timings, counters
/// grouped `layer → scheme → metric`, and histogram summaries.
///
/// # Errors
///
/// Fails when the run's manifest is missing/malformed or the event stream
/// is missing. Malformed lines *inside* the stream are skipped, not fatal;
/// use [`report_checked`] to learn about them.
pub fn report(run_id: &str, telemetry_dir: &Path) -> io::Result<String> {
    report_checked(run_id, telemetry_dir).map(|(text, _)| text)
}

/// [`report`] plus the 1-based line numbers of malformed stream lines that
/// were skipped while reading (empty for a clean stream).
///
/// # Errors
///
/// Same conditions as [`report`].
pub fn report_checked(run_id: &str, telemetry_dir: &Path) -> io::Result<(String, Vec<usize>)> {
    let RunData {
        manifest,
        events,
        skipped_lines,
    } = read_run(run_id, telemetry_dir)?;
    let mut out = String::new();
    let _ = writeln!(out, "Telemetry report: run '{}'", manifest.run_id);
    let _ = writeln!(
        out,
        "  git {}, created {} (unix ms), {} events",
        manifest.git, manifest.created_unix_ms, manifest.events
    );
    if !manifest.options.is_empty() {
        let opts: Vec<String> = manifest
            .options
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "  options: {}", opts.join(" "));
    }

    let _ = writeln!(out, "\nPhase timings:");
    if manifest.phases.is_empty() {
        let _ = writeln!(out, "  (none recorded)");
    }
    for (name, nanos) in &manifest.phases {
        let _ = writeln!(out, "  {name:<28} {:>12}", fmt_duration(*nanos));
    }

    // layer → scheme → (metric, value), preserving sorted stream order.
    type SchemeGroup = (String, String, Vec<(String, u64)>);
    let mut groups: Vec<SchemeGroup> = Vec::new();
    for event in &events {
        if let Event::Counter { name, value } = event {
            let (layer, scheme, metric) = match split_metric(name) {
                Some(parts) => parts,
                None => (name.as_str(), "", ""),
            };
            match groups
                .iter_mut()
                .find(|(l, s, _)| l == layer && s == scheme)
            {
                Some((_, _, metrics)) => metrics.push((metric.to_owned(), *value)),
                None => groups.push((
                    layer.to_owned(),
                    scheme.to_owned(),
                    vec![(metric.to_owned(), *value)],
                )),
            }
        }
    }
    let _ = writeln!(out, "\nCounters (layer.scheme.metric):");
    if groups.is_empty() {
        let _ = writeln!(out, "  (none recorded)");
    }
    let mut last_layer = String::new();
    for (layer, scheme, metrics) in &groups {
        if *layer != last_layer {
            let _ = writeln!(out, "  [{layer}]");
            last_layer.clone_from(layer);
        }
        let cells: Vec<String> = metrics
            .iter()
            .map(|(metric, value)| format!("{metric}={value}"))
            .collect();
        let _ = writeln!(out, "    {scheme:<20} {}", cells.join(" "));
    }

    let histograms: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Histogram {
                name,
                count,
                sum,
                buckets,
            } => Some((name, count, sum, buckets)),
            _ => None,
        })
        .collect();
    let _ = writeln!(out, "\nHistograms (log2 buckets):");
    if histograms.is_empty() {
        let _ = writeln!(out, "  (none recorded)");
    }
    for (name, count, sum, buckets) in histograms {
        let mean = if *count == 0 {
            0.0
        } else {
            *sum as f64 / *count as f64
        };
        let max_bucket = buckets.iter().map(|&(i, _)| i).max().unwrap_or(0);
        let snap = snapshot_from_sparse(*count, *sum, buckets);
        let _ = writeln!(
            out,
            "  {name:<40} n={count} mean={mean:.2} p50={} p99={} max_bucket=2^{max_bucket}",
            fmt_quantile(snap.quantile(0.5)),
            fmt_quantile(snap.quantile(0.99)),
        );
    }
    Ok((out, skipped_lines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_telemetry::RunTelemetry;

    #[test]
    fn probe_populates_every_codec_scheme() {
        let registry = Registry::new();
        codec_probe(&registry, 11);
        let counters = registry.counters();
        for scheme in ["Aegis 9x61", "Aegis-rw 9x61", "ECP6", "RDIS-3"] {
            assert!(
                counters
                    .iter()
                    .any(|(name, v)| name == &format!("codec.{scheme}.verify_reads") && *v > 0),
                "probe left codec.{scheme}.verify_reads empty"
            );
        }
        assert!(counters
            .iter()
            .any(|(name, _)| name == "codec.Aegis 9x61.repartitions"));
    }

    #[test]
    fn report_round_trips_a_finished_run() {
        let dir = std::env::temp_dir().join(format!(
            "aegis-telemetry-report-test-{}",
            std::process::id()
        ));
        let run = RunTelemetry::create("unit-report", &dir).unwrap();
        run.set_meta("seed", "42");
        run.registry().counter("mc.Aegis 9x61.pages").add(4);
        run.registry()
            .counter("codec.Aegis 9x61.verify_reads")
            .add(17);
        run.registry()
            .counter("codec.Aegis 9x61.repartitions")
            .add(3);
        run.registry()
            .histogram("codec.Aegis 9x61.slope_trials")
            .record(2);
        {
            let _span = run.span("unit.phase").unwrap();
        }
        run.finish().unwrap();

        let text = report("unit-report", &dir).unwrap();
        assert!(text.contains("run 'unit-report'"));
        assert!(text.contains("unit.phase"));
        assert!(text.contains("verify_reads=17"));
        assert!(text.contains("repartitions=3"));
        assert!(text.contains("seed=42"));
        assert!(text.contains("slope_trials"));
        assert!(
            text.contains("p50=2 p99=2"),
            "histogram rows carry quantiles: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn skipped_line_diagnostics_name_the_first_offender() {
        assert_eq!(skipped_lines_diagnostic("telemetry-report", &[]), None);
        assert_eq!(
            skipped_lines_diagnostic("telemetry-analyze", &[7, 9]).as_deref(),
            Some("telemetry-analyze: skipped 2 malformed stream line(s) (first at line 7)")
        );
    }

    #[test]
    fn sparse_snapshots_round_trip_quantiles() {
        // Samples 1, 2, 2, 8 → buckets 1, 2 (x2), 4.
        let snap = snapshot_from_sparse(4, 13, &[(1, 1), (2, 2), (4, 1)]);
        assert_eq!(snap.quantile(0.5), 2.0);
        assert_eq!(snap.quantile(1.0), 8.0);
        assert_eq!(fmt_quantile(snap.quantile(0.5)), "2");
        // Out-of-range sparse buckets are ignored, not a panic.
        let snap = snapshot_from_sparse(1, 1, &[(HISTOGRAM_BUCKETS + 5, 1)]);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 0);
        assert_eq!(fmt_quantile(f64::NAN), "-");
    }

    #[test]
    fn report_fails_cleanly_when_run_is_missing() {
        assert!(report("no-such-run", Path::new("/nonexistent-dir")).is_err());
    }

    #[test]
    fn malformed_stream_lines_are_skipped_and_counted() {
        let dir = std::env::temp_dir().join(format!(
            "aegis-telemetry-corrupt-test-{}",
            std::process::id()
        ));
        let run = RunTelemetry::create("unit-corrupt", &dir).unwrap();
        run.registry().counter("mc.Aegis 9x61.pages").add(4);
        run.finish().unwrap();

        // Corrupt one line in place (truncated JSON), keep the rest.
        let stream_path = dir.join("unit-corrupt.jsonl");
        let text = std::fs::read_to_string(&stream_path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert!(lines.len() >= 3, "stream too short to corrupt: {text}");
        let bad = lines.len() - 1; // the run_end trailer
        lines[bad] = "{\"seq\": 999, \"event\": \"run_en".to_owned();
        std::fs::write(&stream_path, lines.join("\n") + "\n").unwrap();

        let (text, skipped) = report_checked("unit-corrupt", &dir).unwrap();
        assert_eq!(
            skipped,
            vec![bad + 1],
            "1-based line number of the bad line"
        );
        assert!(text.contains("run 'unit-corrupt'"));
        assert!(
            text.contains("pages=4"),
            "good lines still reported: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_id_default_includes_command_and_seed() {
        assert_eq!(default_run_id("fig5", 42), "fig5-s42");
    }
}
