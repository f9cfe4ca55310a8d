//! `experiments monitor`: live campaign monitoring over status files.
//!
//! Every run started with `--status` heartbeats its liveness into an
//! atomically-rewritten `<run-id>.status.json` (see
//! `sim_telemetry::status`). This module scans a directory of those files
//! — typically `results/telemetry` while a sharded campaign is running —
//! and renders one row per run (state, phase, progress, ETA, worker busy
//! fraction, shard) plus a per-run `mean ± CI` estimate
//! table with convergence tags and a rollup of how many runs are in each
//! state. Statistics a heartbeat cannot compute yet (no pages done, one
//! sample) render `--`, never `inf`/`NaN`. The CLI
//! refreshes the table until interrupted; `--once` takes a single
//! snapshot for scripts and CI, and `--json` emits the machine-readable
//! form.
//!
//! Status files are pure liveness: they carry wall-clock data and are
//! deliberately outside the deterministic-stream contract, so nothing
//! here feeds back into results.

use sim_telemetry::{escape, RunState, StatusRecord};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One scan over a directory of status files.
pub struct MonitorSnapshot {
    /// Parsed status records, sorted by run id.
    pub runs: Vec<StatusRecord>,
    /// Status files that exist but failed to parse (path, error naming
    /// the line and byte offset). A half-written file can only appear if
    /// a writer dies mid-rename; the monitor reports it instead of dying.
    pub malformed: Vec<(PathBuf, String)>,
}

impl MonitorSnapshot {
    /// Number of runs currently in `state`.
    #[must_use]
    pub fn count(&self, state: RunState) -> usize {
        self.runs.iter().filter(|r| r.state == state).count()
    }

    /// True when every scanned run reached the `done` state (and at least
    /// one run was found, with nothing malformed) — the CI gate for
    /// "campaign finished cleanly".
    #[must_use]
    pub fn all_done(&self) -> bool {
        !self.runs.is_empty()
            && self.malformed.is_empty()
            && self.runs.iter().all(|r| r.state == RunState::Done)
    }
}

/// Scans `dir` for `*.status.json` files and parses each.
///
/// # Errors
///
/// Fails when the directory itself cannot be read; unreadable or
/// malformed individual files are reported in
/// [`MonitorSnapshot::malformed`] instead.
pub fn scan(dir: &Path) -> io::Result<MonitorSnapshot> {
    let mut runs = Vec::new();
    let mut malformed = Vec::new();
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.ends_with(".status.json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        match fs::read_to_string(&path) {
            Ok(text) => match StatusRecord::parse(&text) {
                Ok(record) => runs.push(record),
                Err(err) => malformed.push((path, err.locate(&text, 0).to_string())),
            },
            Err(err) => malformed.push((path, err.to_string())),
        }
    }
    runs.sort_by(|a, b| a.run_id.cmp(&b.run_id));
    Ok(MonitorSnapshot { runs, malformed })
}

fn fmt_eta(eta_ms: Option<u64>) -> String {
    match eta_ms {
        None => "--".to_owned(),
        Some(ms) if ms >= 60_000 => format!("{}m{:02}s", ms / 60_000, (ms % 60_000) / 1000),
        Some(ms) => format!("{:.1}s", ms as f64 / 1000.0),
    }
}

/// A statistic for the table: `--` when absent or non-finite (a
/// zero-pages-done heartbeat has no rate to extrapolate from; a crafted
/// or degenerate status file must not render `inf`/`NaN`).
fn fmt_stat(value: f64) -> String {
    if value.is_finite() {
        crate::csvout::fmt_f64(value)
    } else {
        "--".to_owned()
    }
}

fn fmt_age(updated_unix_ms: u64, now_unix_ms: u64) -> String {
    let age_ms = now_unix_ms.saturating_sub(updated_unix_ms);
    if age_ms >= 60_000 {
        format!("{}m{:02}s", age_ms / 60_000, (age_ms % 60_000) / 1000)
    } else {
        format!("{:.1}s", age_ms as f64 / 1000.0)
    }
}

/// Renders the plain-text table plus the state rollup. `now_unix_ms`
/// (from [`sim_telemetry::unix_millis`]) drives the heartbeat-age column.
#[must_use]
pub fn render(snapshot: &MonitorSnapshot, now_unix_ms: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:<13} {:<20} {:>14} {:>6} {:>8} {:>6} {:>8} {:>8}",
        "RUN", "STATE", "PHASE", "PAGES", "%", "ETA", "BUSY", "SHARD", "AGE"
    );
    for run in &snapshot.runs {
        let pages = if run.pages_total > 0 {
            format!("{}/{}", run.pages_done, run.pages_total)
        } else {
            run.pages_done.to_string()
        };
        let pct = run
            .fraction()
            .filter(|f| f.is_finite())
            .map_or_else(|| "--".to_owned(), |f| format!("{:.0}", 100.0 * f));
        let busy = run
            .busy
            .filter(|b| b.is_finite())
            .map_or_else(|| "--".to_owned(), |b| format!("{:.0}%", 100.0 * b));
        let shard = run
            .shard_id
            .zip(run.shards)
            .map_or_else(|| "--".to_owned(), |(id, of)| format!("{id}/{of}"));
        let _ = writeln!(
            out,
            "{:<28} {:<13} {:<20} {:>14} {:>6} {:>8} {:>6} {:>8} {:>8}",
            run.run_id,
            run.state.as_str(),
            run.phase,
            pages,
            pct,
            fmt_eta(run.eta_ms),
            busy,
            shard,
            fmt_age(run.updated_unix_ms, now_unix_ms)
        );
    }
    // Per-run estimate tables: the live `mean ± CI` view of every unit
    // metric the run has completed so far.
    for run in &snapshot.runs {
        if run.estimates.is_empty() {
            continue;
        }
        let target = run.target_rse.map_or_else(
            || "display target".to_owned(),
            |t| format!("target RSE {t}"),
        );
        let _ = writeln!(out, "estimates: {} ({target})", run.run_id);
        for est in &run.estimates {
            let _ = writeln!(
                out,
                "  {:<32} {:>10} ± {:<10} rse {:<8} n={:<8} {}",
                est.name,
                fmt_stat(est.mean),
                fmt_stat(est.ci95),
                fmt_stat(est.rse),
                est.count,
                est.state
            );
        }
    }
    for (path, err) in &snapshot.malformed {
        let _ = writeln!(out, "malformed: {}: {err}", path.display());
    }
    let _ = writeln!(
        out,
        "{} run(s): {} running, {} checkpointed, {} interrupted, {} done{}",
        snapshot.runs.len(),
        snapshot.count(RunState::Running),
        snapshot.count(RunState::Checkpointed),
        snapshot.count(RunState::Interrupted),
        snapshot.count(RunState::Done),
        if snapshot.malformed.is_empty() {
            String::new()
        } else {
            format!(", {} malformed", snapshot.malformed.len())
        }
    );
    out
}

/// Renders the machine-readable summary: every record verbatim plus the
/// state rollup and the [`MonitorSnapshot::all_done`] verdict.
#[must_use]
pub fn render_json(snapshot: &MonitorSnapshot) -> String {
    let runs: Vec<String> = snapshot
        .runs
        .iter()
        .map(|r| r.to_json().trim_end().to_owned())
        .collect();
    let malformed: Vec<String> = snapshot
        .malformed
        .iter()
        .map(|(path, _)| escape(&path.display().to_string()))
        .collect();
    format!(
        "{{\"runs\": [{}], \"states\": {{\"running\": {}, \"checkpointed\": {}, \
         \"interrupted\": {}, \"done\": {}}}, \"malformed\": [{}], \"all_done\": {}}}",
        runs.join(", "),
        snapshot.count(RunState::Running),
        snapshot.count(RunState::Checkpointed),
        snapshot.count(RunState::Interrupted),
        snapshot.count(RunState::Done),
        malformed.join(", "),
        snapshot.all_done()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_telemetry::{Json, StatusWriter};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aegis-monitor-{tag}-{}", std::process::id()))
    }

    #[test]
    fn scan_renders_rows_and_rollup() {
        let dir = temp_dir("scan");
        let _ = fs::remove_dir_all(&dir);
        let a = StatusWriter::create("shard-0", &dir).unwrap();
        a.set_total_pages(100);
        a.set_shard(0, 2);
        a.begin_phase("mc.ECP6", 1);
        a.complete_unit(25);
        let b = StatusWriter::create("shard-1", &dir).unwrap();
        b.set_total_pages(100);
        b.set_shard(1, 2);
        b.complete_unit(100);
        b.mark(RunState::Done);

        let snapshot = scan(&dir).unwrap();
        assert_eq!(snapshot.runs.len(), 2);
        assert_eq!(snapshot.count(RunState::Running), 1);
        assert_eq!(snapshot.count(RunState::Done), 1);
        assert!(!snapshot.all_done());

        let text = render(&snapshot, sim_telemetry::unix_millis());
        assert!(text.contains("shard-0"), "{text}");
        assert!(text.contains("mc.ECP6"), "{text}");
        assert!(text.contains("25/100"), "{text}");
        assert!(text.contains("0/2"), "{text}");
        assert!(
            text.contains("2 run(s): 1 running, 0 checkpointed, 0 interrupted, 1 done"),
            "{text}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_summary_parses_and_reports_all_done() {
        let dir = temp_dir("json");
        let _ = fs::remove_dir_all(&dir);
        let w = StatusWriter::create("only", &dir).unwrap();
        w.set_total_pages(4);
        w.complete_unit(4);
        w.mark(RunState::Done);

        let snapshot = scan(&dir).unwrap();
        assert!(snapshot.all_done());
        let value = Json::parse(&render_json(&snapshot)).unwrap();
        assert_eq!(value.get("all_done").and_then(Json::as_bool), Some(true));
        let runs = value.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].str_field("run_id"), Some("only"));
        assert_eq!(runs[0].str_field("state"), Some("done"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_files_are_reported_not_fatal() {
        let dir = temp_dir("bad");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("broken.status.json"),
            "{\n  \"run_id\": \"broken\",\n  not json\n",
        )
        .unwrap();
        let good = StatusWriter::create("ok", &dir).unwrap();
        good.mark(RunState::Done);

        let snapshot = scan(&dir).unwrap();
        assert_eq!(snapshot.runs.len(), 1);
        assert_eq!(snapshot.malformed.len(), 1);
        assert!(!snapshot.all_done(), "malformed files block the CI gate");
        let text = render(&snapshot, 0);
        assert!(text.contains("malformed:"), "{text}");
        assert!(text.contains("1 malformed"), "{text}");
        // The row names the file, the line and the byte offset in it.
        assert!(
            text.contains("broken.status.json: line 3 (byte 26): "),
            "{text}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_error() {
        assert!(scan(Path::new("/nonexistent-monitor-dir")).is_err());
    }

    #[test]
    fn eta_and_age_format_humanely() {
        assert_eq!(fmt_eta(None), "--");
        assert_eq!(fmt_eta(Some(1500)), "1.5s");
        assert_eq!(fmt_eta(Some(125_000)), "2m05s");
        assert_eq!(fmt_age(1000, 3500), "2.5s");
        assert_eq!(fmt_age(5000, 1000), "0.0s");
        assert_eq!(fmt_stat(f64::INFINITY), "--");
        assert_eq!(fmt_stat(f64::NAN), "--");
        assert_eq!(fmt_stat(1.5), "1.500");
    }

    #[test]
    fn zero_progress_heartbeats_render_dashes_not_inf() {
        let dir = temp_dir("zero");
        let _ = fs::remove_dir_all(&dir);
        // A run that heartbeats before evaluating any page: no rate, no
        // ETA, no fraction. Every statistic must render `--`.
        let w = StatusWriter::create("stalled", &dir).unwrap();
        w.begin_phase("mc.ECP6", 1);
        let snapshot = scan(&dir).unwrap();
        let record = &snapshot.runs[0];
        assert_eq!(record.eta_ms, None);
        let text = render(&snapshot, sim_telemetry::unix_millis());
        let row = text.lines().find(|l| l.starts_with("stalled")).unwrap();
        assert!(row.contains("--"), "{row}");
        assert!(!row.contains("inf"), "{row}");
        assert!(!row.contains("NaN"), "{row}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn estimates_render_in_table() {
        let dir = temp_dir("estimates");
        let _ = fs::remove_dir_all(&dir);
        let w = StatusWriter::create("conv", &dir).unwrap();
        w.set_total_pages(8);
        w.set_target_rse(0.05);
        w.set_estimates(&[
            sim_telemetry::UnitEstimate {
                unit: "ECP6#512".to_owned(),
                metric: "lifetime",
                moments: sim_telemetry::Moments::from_samples(&[100, 100, 100, 100]),
            },
            // One sample: infinite RSE must render `--`, not `inf`.
            sim_telemetry::UnitEstimate {
                unit: "SAFER32#512".to_owned(),
                metric: "lifetime",
                moments: sim_telemetry::Moments::from_samples(&[7]),
            },
        ]);
        w.complete_unit(4);
        let snapshot = scan(&dir).unwrap();
        let text = render(&snapshot, sim_telemetry::unix_millis());
        assert!(!text.contains("BACKEND"), "no backend column: {text}");
        assert!(text.contains("target RSE 0.05"), "{text}");
        assert!(text.contains("ECP6#512.lifetime"), "{text}");
        assert!(text.contains("converged"), "{text}");
        let est_block: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("SAFER32#512.lifetime"))
            .collect();
        assert_eq!(est_block.len(), 1);
        assert!(est_block[0].contains("--"), "{}", est_block[0]);
        assert!(!est_block[0].contains("inf"), "{}", est_block[0]);
        let _ = fs::remove_dir_all(&dir);
    }
}
