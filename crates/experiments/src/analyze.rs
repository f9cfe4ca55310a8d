//! `telemetry-analyze`: the in-tree profiler report over a finished run.
//!
//! Reads a run's manifest + event stream (leniently — malformed lines are
//! skipped and reported, like `telemetry-report`) and, when present, the
//! `<run-id>.trace.jsonl` sidecar recorded by `--trace`. Produces a human
//! report (span tree with self/total times, hot-span percentiles, worker
//! utilization) and writes three machine-readable artifacts next to the
//! run: `<run-id>.collapsed.txt` (flamegraph/inferno input),
//! `<run-id>.chrome.json` (Chrome `trace_event`, loadable in
//! `chrome://tracing`/Perfetto), and `<run-id>.analysis.json`
//! (regression-friendly summary numbers).

use crate::telemetry::{self, RunData};
use sim_telemetry::{
    chrome_trace, collapsed_stack, escape, NameStats, PoolPhase, ProfileNode, SpanTree, TraceLog,
};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Coverage below this fraction means the profile is materially
/// incomplete (dropped records or an uninstrumented phase).
pub const COVERAGE_FLOOR: f64 = 0.95;

/// Everything `telemetry-analyze` produced for one run.
pub struct Analysis {
    /// The rendered human report.
    pub report: String,
    /// 1-based line numbers of malformed event-stream lines skipped
    /// while reading.
    pub skipped_lines: Vec<usize>,
    /// Total trace records dropped from full rings (0 when no sidecar).
    pub dropped: u64,
    /// Files written next to the run's telemetry.
    pub artifacts: Vec<PathBuf>,
}

fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let ms = ns as f64 / 1e6;
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.1} us", ms * 1000.0)
    }
}

fn render_node(out: &mut String, node: &ProfileNode, depth: usize, root_ns: u64) {
    #[allow(clippy::cast_precision_loss)]
    let pct = if root_ns == 0 {
        0.0
    } else {
        100.0 * node.total_ns as f64 / root_ns as f64
    };
    let label = format!("{:indent$}{}", "", node.name, indent = 2 * depth);
    let _ = writeln!(
        out,
        "  {label:<34} {:>7}x {:>12} {:>12} {pct:>6.1}%",
        node.count,
        fmt_ns(node.total_ns),
        fmt_ns(node.self_ns)
    );
    for child in &node.children {
        render_node(out, child, depth + 1, root_ns);
    }
}

fn render_span_tree(out: &mut String, tree: &SpanTree<'_>, top: usize, stats: &[NameStats]) {
    let root_ns = tree.root_total_ns();
    let _ = writeln!(
        out,
        "\nSpan tree:\n  {:<34} {:>8} {:>12} {:>12} {:>7}",
        "name", "count", "total", "self", "total%"
    );
    for node in tree.aggregate() {
        render_node(out, &node, 0, root_ns);
    }
    let coverage = tree.coverage();
    let _ = writeln!(
        out,
        "  coverage: {coverage:.3} (sum of self times / root time; can exceed 1 \
         under parallelism)"
    );
    if coverage < COVERAGE_FLOOR {
        let _ = writeln!(
            out,
            "  warning: coverage below {COVERAGE_FLOOR}: records were dropped or a \
             phase is uninstrumented"
        );
    }

    let _ = writeln!(
        out,
        "\nHot spans (by self time, top {top}):\n  {:<24} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "name", "count", "self", "total", "p50", "p95"
    );
    for s in stats.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:<24} {:>7}x {:>12} {:>12} {:>12} {:>12}",
            s.name,
            s.count,
            fmt_ns(s.self_ns),
            fmt_ns(s.total_ns),
            fmt_ns(s.p50_ns),
            fmt_ns(s.p95_ns)
        );
    }
}

fn pull_p50(pull_ns: &[u64]) -> u64 {
    if pull_ns.is_empty() {
        return 0;
    }
    let mut sorted = pull_ns.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2]
}

fn render_pool(out: &mut String, pool: &[PoolPhase]) {
    let _ = writeln!(
        out,
        "\nWorker utilization:\n  {:<24} {:>6} {:>7} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "phase", "worker", "tasks", "batches", "busy", "idle", "pull-p50", "occupancy"
    );
    if pool.is_empty() {
        let _ = writeln!(out, "  (no pool phases recorded)");
    }
    for phase in pool {
        for w in &phase.workers {
            let _ = writeln!(
                out,
                "  {:<24} {:>6} {:>7} {:>8} {:>12} {:>12} {:>10} {:>9.1}%",
                phase.phase,
                w.worker,
                w.tasks,
                w.batches,
                fmt_ns(w.busy_ns),
                fmt_ns(w.idle_ns),
                fmt_ns(pull_p50(&w.pull_ns)),
                100.0 * w.occupancy()
            );
        }
    }
}

fn analysis_json(
    run_id: &str,
    tree: &SpanTree<'_>,
    stats: &[NameStats],
    pool: &[PoolPhase],
    dropped: u64,
) -> String {
    let spans: Vec<String> = stats
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \
                 \"p50_ns\": {}, \"p95_ns\": {}}}",
                escape(&s.name),
                s.count,
                s.total_ns,
                s.self_ns,
                s.p50_ns,
                s.p95_ns
            )
        })
        .collect();
    let workers: Vec<String> = pool
        .iter()
        .flat_map(|phase| {
            phase.workers.iter().map(|w| {
                format!(
                    "{{\"phase\": {}, \"worker\": {}, \"tasks\": {}, \"batches\": {}, \
                     \"busy_ns\": {}, \"idle_ns\": {}, \"occupancy\": {:.6}}}",
                    escape(&phase.phase),
                    w.worker,
                    w.tasks,
                    w.batches,
                    w.busy_ns,
                    w.idle_ns,
                    w.occupancy()
                )
            })
        })
        .collect();
    format!(
        "{{\"run_id\": {}, \"root_ns\": {}, \"coverage\": {:.6}, \"dropped\": {}, \
         \"spans\": [{}], \"workers\": [{}]}}\n",
        escape(run_id),
        tree.root_total_ns(),
        tree.coverage(),
        dropped,
        spans.join(", "),
        workers.join(", ")
    )
}

/// Runs the full analysis for `run_id`: renders the report and writes the
/// collapsed-stack / Chrome-trace / summary-JSON artifacts when a trace
/// sidecar exists.
///
/// # Errors
///
/// Fails when the run's manifest or event stream is missing, the trace
/// sidecar is present but corrupt, or an artifact cannot be written.
pub fn analyze(run_id: &str, telemetry_dir: &Path, top: usize) -> io::Result<Analysis> {
    let RunData {
        manifest,
        events,
        skipped_lines,
    } = telemetry::read_run(run_id, telemetry_dir)?;
    let mut out = String::new();
    let _ = writeln!(out, "Telemetry analysis: run '{}'", manifest.run_id);
    let _ = writeln!(
        out,
        "  git {}, {} events in the deterministic stream",
        manifest.git,
        events.len()
    );
    if !manifest.options.is_empty() {
        let opts: Vec<String> = manifest
            .options
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "  options: {}", opts.join(" "));
    }
    if !skipped_lines.is_empty() {
        let _ = writeln!(
            out,
            "  warning: skipped {} malformed stream line(s) (first at line {})",
            skipped_lines.len(),
            skipped_lines[0]
        );
    }

    let trace_path = telemetry_dir.join(format!("{run_id}.trace.jsonl"));
    if !trace_path.exists() {
        let _ = writeln!(
            out,
            "\n(no trace sidecar at {}: re-run with --trace to record spans)",
            trace_path.display()
        );
        return Ok(Analysis {
            report: out,
            skipped_lines,
            dropped: 0,
            artifacts: Vec::new(),
        });
    }
    let log = TraceLog::parse(&fs::read_to_string(&trace_path)?).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", trace_path.display()),
        )
    })?;
    let tree = SpanTree::build(&log);
    let stats = tree.name_stats();
    let dropped = log.total_dropped();

    render_span_tree(&mut out, &tree, top.max(1), &stats);
    render_pool(&mut out, &log.pool);
    if dropped > 0 {
        let _ = writeln!(
            out,
            "\nwarning: {dropped} trace record(s) dropped from full rings \
             (capacity {}); the profile is incomplete",
            log.capacity
        );
        for &(worker, d) in &log.drops {
            if d > 0 {
                let _ = writeln!(out, "  trace.{worker}.dropped = {d}");
            }
        }
    }

    let mut artifacts = Vec::new();
    for (suffix, content) in [
        ("collapsed.txt", collapsed_stack(&log)),
        ("chrome.json", chrome_trace(&log)),
        (
            "analysis.json",
            analysis_json(run_id, &tree, &stats, &log.pool, dropped),
        ),
    ] {
        let path = telemetry_dir.join(format!("{run_id}.{suffix}"));
        fs::write(&path, content)?;
        artifacts.push(path);
    }
    let _ = writeln!(out, "\nArtifacts:");
    for path in &artifacts {
        let _ = writeln!(out, "  {}", path.display());
    }

    Ok(Analysis {
        report: out,
        skipped_lines,
        dropped,
        artifacts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_telemetry::{RunTelemetry, Tracer};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aegis-analyze-{tag}-{}", std::process::id()))
    }

    fn write_run(run_id: &str, dir: &Path, with_trace: bool) {
        let run = RunTelemetry::create(run_id, dir).unwrap();
        run.set_meta("seed", "7");
        run.registry().counter("mc.ECP6.pages").add(2);
        run.finish().unwrap();
        if with_trace {
            let tracer = Tracer::new(64);
            {
                let _root = tracer.span("run");
                let _phase = tracer.span("mc.ECP6");
                let mut worker = tracer.worker(tracer.current());
                let h = worker.begin("page");
                worker.end(h);
            }
            tracer.record_pool(
                "mc.ECP6",
                vec![sim_telemetry::PoolWorkerUtil {
                    worker: 0,
                    tasks: 2,
                    batches: 1,
                    busy_ns: 900,
                    idle_ns: 100,
                    pull_ns: vec![40],
                }],
            );
            let log = tracer.finish(run_id).unwrap();
            fs::write(dir.join(format!("{run_id}.trace.jsonl")), log.to_jsonl()).unwrap();
        }
    }

    #[test]
    fn analyze_without_a_sidecar_notes_the_gap() {
        let dir = temp_dir("notrace");
        write_run("plain", &dir, false);
        let analysis = analyze("plain", &dir, 10).unwrap();
        assert!(analysis.report.contains("no trace sidecar"));
        assert!(analysis.artifacts.is_empty());
        assert_eq!(analysis.dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_renders_tree_workers_and_artifacts() {
        let dir = temp_dir("traced");
        write_run("traced", &dir, true);
        let analysis = analyze("traced", &dir, 10).unwrap();
        let report = &analysis.report;
        assert!(report.contains("Span tree:"), "{report}");
        assert!(report.contains("run"), "{report}");
        assert!(report.contains("mc.ECP6"), "{report}");
        assert!(report.contains("coverage:"), "{report}");
        assert!(report.contains("Hot spans"), "{report}");
        assert!(report.contains("Worker utilization:"), "{report}");
        assert!(report.contains("90.0%"), "occupancy rendered: {report}");
        assert_eq!(analysis.artifacts.len(), 3);
        for path in &analysis.artifacts {
            assert!(path.exists(), "{}", path.display());
        }
        let chrome = fs::read_to_string(dir.join("traced.chrome.json")).unwrap();
        let value = sim_telemetry::Json::parse(&chrome).unwrap();
        assert!(value
            .get("traceEvents")
            .and_then(sim_telemetry::Json::as_arr)
            .is_some_and(|events| events.len() == 3));
        let summary = fs::read_to_string(dir.join("traced.analysis.json")).unwrap();
        let value = sim_telemetry::Json::parse(&summary).unwrap();
        assert_eq!(value.str_field("run_id"), Some("traced"));
        assert!(value.u64_field("root_ns").is_some());
        let collapsed = fs::read_to_string(dir.join("traced.collapsed.txt")).unwrap();
        for line in collapsed.lines() {
            let (path, v) = line.rsplit_once(' ').expect("path value");
            assert!(!path.is_empty());
            assert!(v.parse::<u64>().is_ok());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_records_surface_as_a_warning() {
        let dir = temp_dir("drops");
        let run = RunTelemetry::create("dropping", &dir).unwrap();
        run.finish().unwrap();
        let tracer = Tracer::new(2);
        let mut worker = tracer.worker(None);
        for i in 0..5 {
            let h = worker.begin(&format!("s{i}"));
            worker.end(h);
        }
        drop(worker);
        let log = tracer.finish("dropping").unwrap();
        fs::write(dir.join("dropping.trace.jsonl"), log.to_jsonl()).unwrap();
        let analysis = analyze("dropping", &dir, 10).unwrap();
        assert_eq!(analysis.dropped, 3);
        assert!(analysis.report.contains("3 trace record(s) dropped"));
        assert!(analysis.report.contains("trace.1.dropped = 3"));
        let _ = fs::remove_dir_all(&dir);
    }
}
