//! Live run status: an atomically-rewritten `<run-id>.status.json`
//! heartbeat file for `experiments monitor` to tail.
//!
//! Unlike every other telemetry artifact, the status file is *pure
//! liveness*: it is overwritten in place (temp file + rename, the
//! [`Checkpoint`-style] atomic pattern, so a reader can never observe a
//! torn write), carries wall-clock data (elapsed time, an ETA from a
//! monotonic clock), and sits entirely outside the determinism
//! contract. Turning status reporting on or off cannot perturb the
//! deterministic stream or the series sidecar.
//!
//! [`Checkpoint`-style]: https://en.wikipedia.org/wiki/Rename_(computing)#Atomicity
//!
//! Page-completion heartbeats arrive from simulation worker threads at
//! page rate, so [`StatusWriter::phase_progress`] rate-limits disk
//! writes (default one per 200 ms); state transitions
//! ([`StatusWriter::mark`], [`StatusWriter::begin_phase`]) always write
//! immediately so the monitor never misses a checkpoint or interrupt.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::estimate::{json_f64, Convergence, UnitEstimate, DISPLAY_TARGET_RSE};
use crate::json::{escape, Json, JsonError};
use crate::manifest::unix_millis;

/// Default minimum interval between rate-limited status rewrites.
pub const DEFAULT_STATUS_INTERVAL: Duration = Duration::from_millis(200);

/// Lifecycle state recorded in the status file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// The run is executing.
    Running,
    /// A checkpoint snapshot was just stored; the run keeps going.
    Checkpointed,
    /// The run stopped at a barrier after SIGINT; resumable.
    Interrupted,
    /// The run finished and its artifacts are complete.
    Done,
}

impl RunState {
    /// The state's serialized tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RunState::Running => "running",
            RunState::Checkpointed => "checkpointed",
            RunState::Interrupted => "interrupted",
            RunState::Done => "done",
        }
    }

    /// Parses a serialized tag.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<RunState> {
        match tag {
            "running" => Some(RunState::Running),
            "checkpointed" => Some(RunState::Checkpointed),
            "interrupted" => Some(RunState::Interrupted),
            "done" => Some(RunState::Done),
            _ => None,
        }
    }
}

/// One estimate line in a status heartbeat: the latest `mean ± CI` of a
/// unit metric plus its convergence classification, as `experiments
/// monitor` renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateStatus {
    /// Estimate name (`scheme#block_bits.metric`).
    pub name: String,
    /// Samples accumulated.
    pub count: u64,
    /// Streaming mean.
    pub mean: f64,
    /// Relative standard error (may be infinite below two samples).
    pub rse: f64,
    /// 95% confidence half-width.
    pub ci95: f64,
    /// Convergence tag: `insufficient`, `converging` or `converged`.
    pub state: String,
}

/// One parsed status file, as `experiments monitor` reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusRecord {
    /// The run this heartbeat belongs to.
    pub run_id: String,
    /// Lifecycle state.
    pub state: RunState,
    /// Current engine phase (e.g. `mc.Aegis 9x61`).
    pub phase: String,
    /// Pages evaluated so far (completed units + current phase).
    pub pages_done: u64,
    /// Total pages the run will evaluate (0 when unknown).
    pub pages_total: u64,
    /// Wall-clock milliseconds since the writer was created (monotonic).
    pub elapsed_ms: u64,
    /// Estimated milliseconds to completion, when computable.
    pub eta_ms: Option<u64>,
    /// Mean worker busy fraction of the latest pool phase, 0..=1.
    pub busy: Option<f64>,
    /// Shard index, for `experiments shard` runs.
    pub shard_id: Option<u64>,
    /// Shard count, for `experiments shard` runs.
    pub shards: Option<u64>,
    /// The run's `--target-rse` early-stop target, when set.
    pub target_rse: Option<f64>,
    /// Latest per-unit estimates (empty until the first unit barrier).
    pub estimates: Vec<EstimateStatus>,
    /// Heartbeat writes so far (monotone; proves liveness).
    pub heartbeats: u64,
    /// Wall clock of the last rewrite, Unix milliseconds (staleness check).
    pub updated_unix_ms: u64,
}

impl StatusRecord {
    /// Completion as a fraction of `pages_total`, when known.
    #[must_use]
    pub fn fraction(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        match self.pages_total {
            0 => None,
            total => Some(self.pages_done as f64 / total as f64),
        }
    }

    /// Renders the record as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let opt_u64 = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        // A non-finite busy fraction (a degenerate pool phase) must not
        // poison the JSON: render it as null, like the estimate fields.
        let busy = self
            .busy
            .filter(|b| b.is_finite())
            .map_or_else(|| "null".to_owned(), |b| format!("{b:.4}"));
        let estimates: Vec<String> = self
            .estimates
            .iter()
            .map(|e| {
                format!(
                    "{{\"name\": {}, \"count\": {}, \"mean\": {}, \"rse\": {}, \
                     \"ci95\": {}, \"state\": {}}}",
                    escape(&e.name),
                    e.count,
                    json_f64(e.mean),
                    json_f64(e.rse),
                    json_f64(e.ci95),
                    escape(&e.state),
                )
            })
            .collect();
        format!(
            "{{\n  \"run_id\": {},\n  \"state\": {},\n  \"phase\": {},\n  \
             \"pages_done\": {},\n  \"pages_total\": {},\n  \"elapsed_ms\": {},\n  \
             \"eta_ms\": {},\n  \"busy\": {},\n  \"shard_id\": {},\n  \"shards\": {},\n  \
             \"target_rse\": {},\n  \
             \"estimates\": [{}],\n  \
             \"heartbeats\": {},\n  \"updated_unix_ms\": {}\n}}\n",
            escape(&self.run_id),
            escape(self.state.as_str()),
            escape(&self.phase),
            self.pages_done,
            self.pages_total,
            self.elapsed_ms,
            opt_u64(self.eta_ms),
            busy,
            opt_u64(self.shard_id),
            opt_u64(self.shards),
            self.target_rse.map_or_else(|| "null".to_owned(), json_f64),
            estimates.join(", "),
            self.heartbeats,
            self.updated_unix_ms,
        )
    }

    /// Parses a status file written by [`StatusWriter`].
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed JSON, a missing required field,
    /// or an unknown state tag.
    pub fn parse(text: &str) -> Result<StatusRecord, JsonError> {
        let value = Json::parse(text)?;
        let fail = |message: &str| JsonError {
            pos: 0,
            message: message.to_owned(),
        };
        let state = value
            .str_field("state")
            .and_then(RunState::from_tag)
            .ok_or_else(|| fail("missing or unknown state"))?;
        let busy = match value.get("busy") {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.as_f64().ok_or_else(|| fail("bad busy"))?),
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, JsonError> {
            match value.get(key) {
                Some(Json::Null) | None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| fail(&format!("bad {key}"))),
            }
        };
        // Estimate statistics may be `null` (infinite RSE below two
        // samples); older status files lack the field entirely.
        let est_f64 = |v: Option<&Json>| -> f64 {
            match v {
                Some(Json::Num(n)) => *n,
                _ => f64::INFINITY,
            }
        };
        let estimates = value
            .get("estimates")
            .and_then(Json::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|item| {
                        Some(EstimateStatus {
                            name: item.str_field("name")?.to_owned(),
                            count: item.u64_field("count").unwrap_or(0),
                            mean: est_f64(item.get("mean")),
                            rse: est_f64(item.get("rse")),
                            ci95: est_f64(item.get("ci95")),
                            state: item.str_field("state").unwrap_or("converging").to_owned(),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        let target_rse = match value.get("target_rse") {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        };
        Ok(StatusRecord {
            run_id: value
                .str_field("run_id")
                .ok_or_else(|| fail("missing run_id"))?
                .to_owned(),
            state,
            phase: value.str_field("phase").unwrap_or_default().to_owned(),
            pages_done: value
                .u64_field("pages_done")
                .ok_or_else(|| fail("missing pages_done"))?,
            pages_total: value
                .u64_field("pages_total")
                .ok_or_else(|| fail("missing pages_total"))?,
            elapsed_ms: value.u64_field("elapsed_ms").unwrap_or(0),
            eta_ms: opt_u64("eta_ms")?,
            busy,
            shard_id: opt_u64("shard_id")?,
            shards: opt_u64("shards")?,
            target_rse,
            estimates,
            heartbeats: value.u64_field("heartbeats").unwrap_or(0),
            updated_unix_ms: value.u64_field("updated_unix_ms").unwrap_or(0),
        })
    }
}

struct StatusState {
    state: RunState,
    phase: String,
    /// Pages from units already completed.
    base_pages: u64,
    /// Unit-local pages reported by the current phase (monotone max).
    phase_done: u64,
    /// Units of the current phase not yet completed.
    open_units: u64,
    pages_total: u64,
    busy: Option<f64>,
    shard: Option<(u64, u64)>,
    target_rse: Option<f64>,
    estimates: Vec<EstimateStatus>,
    heartbeats: u64,
    last_write: Option<Instant>,
}

struct StatusCore {
    path: PathBuf,
    run_id: String,
    started: Instant,
    min_interval: Duration,
    state: Mutex<StatusState>,
    /// Held from building a record until its file is renamed into place,
    /// so concurrent heartbeats land in order and the last file written
    /// carries the newest state.
    file: Mutex<()>,
}

/// Heartbeat writer for one run; cheap to clone and safe to call from
/// worker threads. See the module docs.
#[derive(Clone, Default)]
pub struct StatusWriter(Option<Arc<StatusCore>>);

impl StatusWriter {
    /// Creates `<dir>/<run-id>.status.json` and writes the initial
    /// `running` record.
    ///
    /// # Errors
    ///
    /// Fails when the directory or file cannot be created/written.
    pub fn create(run_id: &str, dir: &Path) -> io::Result<StatusWriter> {
        Self::with_interval(run_id, dir, DEFAULT_STATUS_INTERVAL)
    }

    /// [`StatusWriter::create`] with an explicit rate-limit interval
    /// (tests use [`Duration::ZERO`] to observe every heartbeat).
    ///
    /// # Errors
    ///
    /// Fails when the directory or file cannot be created/written.
    pub fn with_interval(
        run_id: &str,
        dir: &Path,
        min_interval: Duration,
    ) -> io::Result<StatusWriter> {
        fs::create_dir_all(dir)?;
        let writer = StatusWriter(Some(Arc::new(StatusCore {
            path: dir.join(format!("{run_id}.status.json")),
            run_id: run_id.to_owned(),
            started: Instant::now(),
            min_interval,
            state: Mutex::new(StatusState {
                state: RunState::Running,
                phase: String::new(),
                base_pages: 0,
                phase_done: 0,
                open_units: 0,
                pages_total: 0,
                busy: None,
                shard: None,
                target_rse: None,
                estimates: Vec::new(),
                heartbeats: 0,
                last_write: None,
            }),
            file: Mutex::new(()),
        })));
        writer.write_now()?;
        Ok(writer)
    }

    /// A writer that records nothing.
    #[must_use]
    pub fn disabled() -> StatusWriter {
        StatusWriter(None)
    }

    /// Whether this writer records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The status file path, when enabled.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.0.as_ref().map(|core| core.path.as_path())
    }

    /// Records the total pages this run will evaluate (ETA denominator).
    pub fn set_total_pages(&self, total: u64) {
        if let Some(core) = &self.0 {
            core.state.lock().expect("status poisoned").pages_total = total;
        }
    }

    /// Tags this run as shard `id` of `of` (the monitor's rollup key).
    pub fn set_shard(&self, id: u64, of: u64) {
        if let Some(core) = &self.0 {
            core.state.lock().expect("status poisoned").shard = Some((id, of));
        }
    }

    /// Does nothing: the engine has no SIMD backend or lane width, so the
    /// heartbeat records neither. A benchmark-harness shim kept only
    /// because `perfbench/` still calls it.
    pub fn set_backend(&self, backend: &str, lanes: u64) {
        let _ = (backend, lanes);
    }

    /// Records the run's `--target-rse` early-stop target (also the bar
    /// the estimate lines are classified against; without one, the
    /// display-only [`DISPLAY_TARGET_RSE`] applies).
    pub fn set_target_rse(&self, target: f64) {
        if let Some(core) = &self.0 {
            core.state.lock().expect("status poisoned").target_rse = Some(target);
        }
    }

    /// Folds a barrier snapshot into the per-unit estimate table:
    /// entries upsert by name, so a campaign's successive barriers grow
    /// one table covering every scheme seen so far. Does not write
    /// through on its own: callers pair it with
    /// [`StatusWriter::complete_unit`], whose forced rewrite publishes
    /// both at once.
    pub fn set_estimates(&self, estimates: &[UnitEstimate]) {
        let Some(core) = &self.0 else { return };
        let mut state = core.state.lock().expect("status poisoned");
        let target = state.target_rse.unwrap_or(DISPLAY_TARGET_RSE);
        // Upsert by name: successive unit barriers grow one table covering
        // every scheme seen so far, in first-seen (unit declaration) order.
        for est in estimates {
            let entry = EstimateStatus {
                name: est.name(),
                count: est.moments.count(),
                mean: est.moments.mean(),
                rse: est.moments.rse(),
                ci95: est.moments.ci95_half_width(),
                state: Convergence::of(&est.moments, target).as_str().to_owned(),
            };
            match state.estimates.iter_mut().find(|e| e.name == entry.name) {
                Some(slot) => *slot = entry,
                None => state.estimates.push(entry),
            }
        }
    }

    /// Enters a new engine phase covering `units` Monte Carlo units — one
    /// `(block_bits, scheme)` unit, or several judged together by a
    /// page-major pass, which reports each page once per unit. Returns the
    /// state to `running` and rewrites the file immediately.
    pub fn begin_phase(&self, name: &str, units: u64) {
        let Some(core) = &self.0 else { return };
        {
            let mut state = core.state.lock().expect("status poisoned");
            state.phase = name.to_owned();
            state.open_units = units;
            state.state = RunState::Running;
        }
        let _ = self.write_now();
    }

    /// Reports phase-local pages completed (monotone; racy worker calls
    /// are folded with `max`). Rewrites the file at most once per
    /// rate-limit interval. Called from simulation worker threads.
    pub fn phase_progress(&self, done: u64) {
        let Some(core) = &self.0 else { return };
        let due = {
            let mut state = core.state.lock().expect("status poisoned");
            state.phase_done = state.phase_done.max(done);
            match state.last_write {
                None => true,
                Some(at) => at.elapsed() >= core.min_interval,
            }
        };
        if due {
            let _ = self.write_now();
        }
    }

    /// Folds a completed unit's pages into the base count. Call at unit
    /// barriers. The phase's last open unit clears the phase-local
    /// progress; an earlier unit of a several-unit phase takes only its
    /// own pages out of it, so the total never steps back while the
    /// phase's other units close.
    pub fn complete_unit(&self, pages: u64) {
        let Some(core) = &self.0 else { return };
        {
            let mut state = core.state.lock().expect("status poisoned");
            state.base_pages += pages;
            if state.open_units > 1 {
                state.open_units -= 1;
                state.phase_done = state.phase_done.saturating_sub(pages);
            } else {
                state.open_units = 0;
                state.phase_done = 0;
            }
        }
        let _ = self.write_now();
    }

    /// Records the latest pool phase's mean worker busy fraction.
    pub fn set_busy(&self, fraction: f64) {
        if let Some(core) = &self.0 {
            core.state.lock().expect("status poisoned").busy = Some(fraction);
        }
    }

    /// Transitions the lifecycle state and rewrites the file immediately.
    pub fn mark(&self, state: RunState) {
        let Some(core) = &self.0 else { return };
        core.state.lock().expect("status poisoned").state = state;
        let _ = self.write_now();
    }

    /// Assembles the current record (`None` when disabled).
    #[must_use]
    pub fn record(&self) -> Option<StatusRecord> {
        let core = self.0.as_ref()?;
        let state = core.state.lock().expect("status poisoned");
        #[allow(clippy::cast_possible_truncation)]
        let elapsed_ms = core.started.elapsed().as_millis() as u64;
        let pages_done = state.base_pages + state.phase_done;
        let eta_ms = match (pages_done, state.pages_total) {
            (0, _) => None,
            (done, total) if total > done =>
            {
                #[allow(clippy::cast_precision_loss)]
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some((elapsed_ms as f64 * (total - done) as f64 / done as f64) as u64)
            }
            _ => Some(0),
        };
        Some(StatusRecord {
            run_id: core.run_id.clone(),
            state: state.state,
            phase: state.phase.clone(),
            pages_done,
            pages_total: state.pages_total,
            elapsed_ms,
            eta_ms,
            busy: state.busy,
            shard_id: state.shard.map(|(id, _)| id),
            shards: state.shard.map(|(_, of)| of),
            target_rse: state.target_rse,
            estimates: state.estimates.clone(),
            heartbeats: state.heartbeats,
            updated_unix_ms: unix_millis(),
        })
    }

    /// Rewrites the file unconditionally (temp file + rename).
    fn write_now(&self) -> io::Result<()> {
        let Some(core) = &self.0 else { return Ok(()) };
        let _file = core.file.lock().expect("status file lock poisoned");
        let record = {
            let mut state = core.state.lock().expect("status poisoned");
            state.heartbeats += 1;
            state.last_write = Some(Instant::now());
            drop(state);
            self.record().expect("enabled writer has a record")
        };
        let tmp = core.path.with_extension("json.tmp");
        fs::write(&tmp, record.to_json())?;
        fs::rename(&tmp, &core.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sim-telemetry-status-{tag}-{}", std::process::id()))
    }

    #[test]
    fn record_round_trips_through_json() {
        let record = StatusRecord {
            run_id: "fig5-s42-shard0of2".to_owned(),
            state: RunState::Checkpointed,
            phase: "mc.Aegis 9x61".to_owned(),
            pages_done: 12,
            pages_total: 96,
            elapsed_ms: 1500,
            eta_ms: Some(10_500),
            busy: Some(0.8125),
            shard_id: Some(0),
            shards: Some(2),
            target_rse: Some(0.05),
            estimates: vec![
                EstimateStatus {
                    name: "Aegis 9x61#512.lifetime".to_owned(),
                    count: 12,
                    mean: 123456.5,
                    rse: 0.03125,
                    ci95: 7561.25,
                    state: "converged".to_owned(),
                },
                // Below two samples: RSE is infinite, round-trips via null.
                EstimateStatus {
                    name: "ECP6#512.lifetime".to_owned(),
                    count: 1,
                    mean: 9.0,
                    rse: f64::INFINITY,
                    ci95: 0.0,
                    state: "insufficient".to_owned(),
                },
            ],
            heartbeats: 7,
            updated_unix_ms: 1_722_000_000_123,
        };
        let parsed = StatusRecord::parse(&record.to_json()).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(parsed.fraction(), Some(0.125));
    }

    #[test]
    fn record_tolerates_null_optionals() {
        let record = StatusRecord {
            run_id: "x".to_owned(),
            state: RunState::Running,
            phase: String::new(),
            pages_done: 0,
            pages_total: 0,
            elapsed_ms: 0,
            eta_ms: None,
            busy: None,
            shard_id: None,
            shards: None,
            target_rse: None,
            estimates: Vec::new(),
            heartbeats: 1,
            updated_unix_ms: 5,
        };
        let parsed = StatusRecord::parse(&record.to_json()).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(parsed.fraction(), None);

        // Pre-PR 10 status files lack the estimate fields entirely; the
        // parser defaults them instead of failing.
        let legacy = "{\"run_id\": \"x\", \"state\": \"running\", \
                      \"pages_done\": 0, \"pages_total\": 0}";
        let parsed = StatusRecord::parse(legacy).unwrap();
        assert_eq!(parsed.target_rse, None);
        assert!(parsed.estimates.is_empty());

        // Files from before the engine lost its SIMD backend and lane
        // width still carry `simd_backend` and `eval_lanes`; the parser
        // accepts and drops both, and no record writes either again.
        let laned = "{\"run_id\": \"x\", \"state\": \"done\", \"pages_done\": 4, \
                     \"pages_total\": 4, \"simd_backend\": \"avx2\", \"eval_lanes\": 8}";
        let parsed = StatusRecord::parse(laned).unwrap();
        assert_eq!((parsed.pages_done, parsed.pages_total), (4, 4));
        let rewritten = parsed.to_json();
        assert!(!rewritten.contains("simd_backend"));
        assert!(!rewritten.contains("eval_lanes"));
    }

    #[test]
    fn parser_rejects_malformed_records() {
        assert!(StatusRecord::parse("not json").is_err());
        assert!(StatusRecord::parse("{\"run_id\": \"x\"}").is_err());
        let unknown = StatusRecord::parse(
            "{\"run_id\": \"x\", \"state\": \"zombie\", \"pages_done\": 0, \"pages_total\": 0}",
        );
        assert!(unknown.is_err());
    }

    #[test]
    fn writer_rewrites_atomically_through_lifecycle() {
        let dir = temp_dir("lifecycle");
        let _ = fs::remove_dir_all(&dir);
        let status = StatusWriter::with_interval("unit", &dir, Duration::ZERO).unwrap();
        let path = dir.join("unit.status.json");
        assert_eq!(status.path(), Some(path.as_path()));
        assert!(path.exists(), "create writes the initial record");
        assert!(!path.with_extension("json.tmp").exists());

        status.set_total_pages(8);
        status.set_shard(1, 2);
        status.begin_phase("mc.ECP6", 1);
        status.phase_progress(2);
        status.phase_progress(1); // stale racy report folds with max
        let read = StatusRecord::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(read.state, RunState::Running);
        assert_eq!(read.phase, "mc.ECP6");
        assert_eq!(read.pages_done, 2);
        assert_eq!(read.pages_total, 8);
        assert_eq!((read.shard_id, read.shards), (Some(1), Some(2)));
        assert!(read.eta_ms.is_some());

        status.phase_progress(4);
        status.set_backend("avx2", 8);
        status.set_target_rse(0.05);
        status.set_estimates(&[crate::estimate::UnitEstimate {
            unit: "ECP6#512".to_owned(),
            metric: "lifetime",
            moments: crate::estimate::Moments::from_samples(&[100, 100, 100, 100]),
        }]);
        status.complete_unit(4);
        status.set_busy(0.75);
        status.mark(RunState::Done);
        let read = StatusRecord::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(read.state, RunState::Done);
        assert_eq!(read.pages_done, 4, "complete_unit folds into base");
        assert_eq!(read.busy, Some(0.75));
        let text = fs::read_to_string(&path).unwrap();
        assert!(!text.contains("simd_backend") && !text.contains("eval_lanes"));
        assert_eq!(read.target_rse, Some(0.05));
        assert_eq!(read.estimates.len(), 1);
        assert_eq!(read.estimates[0].name, "ECP6#512.lifetime");
        assert_eq!(read.estimates[0].mean, 100.0);
        assert_eq!(read.estimates[0].state, "converged");
        assert!(read.heartbeats >= 5, "every transition heartbeats");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_phase_covering_several_units_never_steps_back() {
        let dir = temp_dir("multi-unit");
        let _ = fs::remove_dir_all(&dir);
        let status = StatusWriter::with_interval("multi", &dir, Duration::ZERO).unwrap();
        status.set_total_pages(10);
        status.begin_phase("mc.ECP6 +1", 2);
        // Two units over five pages, each page reported once per unit.
        status.phase_progress(10);
        let done = || status.record().unwrap().pages_done;
        assert_eq!(done(), 10);
        status.complete_unit(5);
        assert_eq!(done(), 10, "the second unit's pages stay counted");
        status.complete_unit(5);
        assert_eq!(done(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_writer_touches_nothing() {
        let status = StatusWriter::disabled();
        assert!(!status.is_enabled());
        assert_eq!(status.path(), None);
        status.set_total_pages(8);
        status.begin_phase("mc.X", 1);
        status.phase_progress(3);
        status.complete_unit(3);
        status.mark(RunState::Done);
        assert!(status.record().is_none());
    }

    #[test]
    fn rate_limit_suppresses_hot_path_writes() {
        let dir = temp_dir("ratelimit");
        let _ = fs::remove_dir_all(&dir);
        let status = StatusWriter::with_interval("hot", &dir, Duration::from_secs(3600)).unwrap();
        status.set_total_pages(100);
        for done in 1..=50 {
            status.phase_progress(done);
        }
        let path = dir.join("hot.status.json");
        let read = StatusRecord::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        // Only the creation write landed; the hot loop stayed in memory.
        assert_eq!(read.heartbeats, 1);
        // A state transition still writes through immediately.
        status.mark(RunState::Interrupted);
        let read = StatusRecord::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(read.state, RunState::Interrupted);
        assert_eq!(read.pages_done, 50);
        let _ = fs::remove_dir_all(&dir);
    }
}
