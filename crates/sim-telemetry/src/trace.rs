//! Hierarchical wall-clock tracing with bounded, drop-counted span rings.
//!
//! Where the [`crate::sink`] event stream is deterministic by construction
//! (and therefore carries no durations), a [`Tracer`] records *volatile*
//! wall-clock spans: every span has a parent link, a worker id, a start
//! offset from the tracer's epoch, and a duration. The records never touch
//! the deterministic `.jsonl` stream — [`TraceLog::to_jsonl`] serializes
//! them into a separate `<run-id>.trace.jsonl` sidecar which, like the
//! manifest's phase timings, sits entirely outside the byte-identity
//! contract. Turning tracing on or off therefore cannot perturb the
//! stripped telemetry stream (pinned by `tests/determinism.rs`).
//!
//! Memory is bounded: every collector (the main thread and each worker)
//! owns a fixed-capacity ring. When a ring is full the *oldest* record is
//! overwritten — span records are pushed on close, so enclosing spans
//! (recorded last) survive and the tree keeps its roots — and every
//! overwrite is counted. Drop counts surface as `trace.<worker>.dropped`
//! in the sidecar so a truncated profile is never silently read as
//! complete.
//!
//! Worker collectors are lock-free by ownership: a [`WorkerTracer`] is
//! private to its worker thread and only merges its ring into the shared
//! tracer when dropped (one mutex lock per worker per pool run).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{escape, Json, JsonError};

/// Default per-collector ring capacity (records). At ~100 bytes per
/// record this bounds each collector near 6 MB; a paper-scale fig5 sweep
/// records well under this per worker.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Unique span id (allocation order, scheduling-dependent).
    pub id: u32,
    /// Enclosing span id, if any.
    pub parent: Option<u32>,
    /// Span name (e.g. `page`, `mc.Aegis 9x61`).
    pub name: String,
    /// Collector that recorded the span (0 = main thread).
    pub worker: u32,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Per-worker utilization sample for one pool run, fed from `sim-pool`'s
/// worker statistics (this crate cannot depend on `sim-pool`, so the
/// engine converts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolWorkerUtil {
    /// Worker index within the pool run (0-based).
    pub worker: usize,
    /// Tasks this worker executed.
    pub tasks: usize,
    /// Successful batch pulls from the shared counter.
    pub batches: u64,
    /// Nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Nanoseconds not executing tasks (startup, pulls, tail wait).
    pub idle_ns: u64,
    /// Latency of each batch pull, nanoseconds.
    pub pull_ns: Vec<u64>,
}

impl PoolWorkerUtil {
    /// Fraction of the worker's wall time spent executing tasks.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        match self.busy_ns + self.idle_ns {
            0 => 0.0,
            wall => self.busy_ns as f64 / wall as f64,
        }
    }
}

/// Utilization of every worker across one pool run (one engine phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPhase {
    /// Phase label (e.g. `mc.Aegis 9x61`).
    pub phase: String,
    /// Per-worker samples, ascending worker index.
    pub workers: Vec<PoolWorkerUtil>,
}

/// Fixed-capacity ring that overwrites its oldest record when full.
#[derive(Debug)]
struct Ring {
    cap: usize,
    records: Vec<TraceRecord>,
    /// Index of the oldest record once the ring has wrapped.
    next: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap: cap.max(1),
            records: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, record: TraceRecord) {
        if self.records.len() < self.cap {
            self.records.push(record);
        } else {
            self.records[self.next] = record;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Drains into a [`WorkerLog`], oldest record first.
    fn into_log(mut self, worker: u32) -> WorkerLog {
        if self.dropped > 0 {
            self.records.rotate_left(self.next);
        }
        WorkerLog {
            worker,
            records: self.records,
            dropped: self.dropped,
        }
    }
}

/// One collector's finished records plus its drop count.
#[derive(Debug, Clone)]
pub struct WorkerLog {
    /// Collector id (0 = main thread).
    pub worker: u32,
    /// Records in completion order, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records overwritten because the ring was full.
    pub dropped: u64,
}

#[derive(Default)]
struct Inner {
    stack: Vec<u32>,
    ring: Option<Ring>,
    workers: Vec<WorkerLog>,
    pool: Vec<PoolPhase>,
}

struct TracerCore {
    epoch: Instant,
    next_id: AtomicU32,
    next_worker: AtomicU32,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl TracerCore {
    fn elapsed_ns(&self) -> u64 {
        #[allow(clippy::cast_possible_truncation)]
        {
            self.epoch.elapsed().as_nanos() as u64
        }
    }
}

/// A hierarchical span collector for one run.
///
/// `Tracer::disabled()` hands out no-op spans and collectors, so
/// instrumented code pays only an `Option` check when tracing is off.
/// The main thread records through [`Tracer::span`] (guard-based, one
/// mutex lock per open/close); worker threads obtain a private
/// [`WorkerTracer`] via [`Tracer::worker`].
pub struct Tracer(Option<Arc<TracerCore>>);

impl Tracer {
    /// An enabled tracer whose collectors each hold up to `capacity`
    /// records.
    #[must_use]
    pub fn new(capacity: usize) -> Tracer {
        Tracer(Some(Arc::new(TracerCore {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            next_worker: AtomicU32::new(1),
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                stack: Vec::new(),
                ring: Some(Ring::new(capacity)),
                workers: Vec::new(),
                pool: Vec::new(),
            }),
        })))
    }

    /// An enabled tracer with [`DEFAULT_TRACE_CAPACITY`] rings.
    #[must_use]
    pub fn with_default_capacity() -> Tracer {
        Tracer::new(DEFAULT_TRACE_CAPACITY)
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// Whether this tracer records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a main-thread span; it closes (and is recorded) when the
    /// returned guard drops. The parent is the innermost main-thread span
    /// still open.
    #[must_use]
    pub fn span(&self, name: &str) -> TraceSpan<'_> {
        let Some(core) = &self.0 else {
            return TraceSpan {
                core: None,
                id: 0,
                parent: None,
                name: String::new(),
                start_ns: 0,
            };
        };
        let id = core.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = {
            let mut inner = core.inner.lock().expect("tracer poisoned");
            let parent = inner.stack.last().copied();
            inner.stack.push(id);
            parent
        };
        TraceSpan {
            core: Some(core),
            id,
            parent,
            name: name.to_owned(),
            start_ns: core.elapsed_ns(),
        }
    }

    /// The innermost open main-thread span, if any — used to parent
    /// worker spans under the engine phase that spawned them.
    #[must_use]
    pub fn current(&self) -> Option<u32> {
        let core = self.0.as_ref()?;
        core.inner
            .lock()
            .expect("tracer poisoned")
            .stack
            .last()
            .copied()
    }

    /// Creates a private collector for one worker thread. Spans recorded
    /// on it with an empty local stack are parented under `parent`
    /// (usually [`Tracer::current`] at spawn time). The collector merges
    /// its ring back into the tracer when dropped.
    #[must_use]
    pub fn worker(&self, parent: Option<u32>) -> WorkerTracer {
        match &self.0 {
            None => WorkerTracer {
                core: None,
                worker: 0,
                parent: None,
                stack: Vec::new(),
                ring: Ring::new(1),
            },
            Some(core) => WorkerTracer {
                core: Some(Arc::clone(core)),
                worker: core.next_worker.fetch_add(1, Ordering::Relaxed),
                parent,
                stack: Vec::new(),
                ring: Ring::new(core.capacity),
            },
        }
    }

    /// Records one pool run's per-worker utilization under `phase`.
    pub fn record_pool(&self, phase: &str, workers: Vec<PoolWorkerUtil>) {
        if let Some(core) = &self.0 {
            core.inner
                .lock()
                .expect("tracer poisoned")
                .pool
                .push(PoolPhase {
                    phase: phase.to_owned(),
                    workers,
                });
        }
    }

    /// Closes the tracer and assembles the [`TraceLog`]; `None` when
    /// disabled. Every [`WorkerTracer`] must have been dropped first or
    /// its records are lost.
    #[must_use]
    pub fn finish(self, run_id: &str) -> Option<TraceLog> {
        let core = self.0?;
        let mut inner = core.inner.lock().expect("tracer poisoned");
        let inner = std::mem::take(&mut *inner);
        let mut logs = vec![inner.ring.unwrap_or_else(|| Ring::new(1)).into_log(0)];
        logs.extend(inner.workers);
        logs.sort_by_key(|log| log.worker);
        let mut spans = Vec::new();
        let mut drops = Vec::new();
        for log in logs {
            drops.push((log.worker, log.dropped));
            spans.extend(log.records);
        }
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.id.cmp(&b.id)));
        Some(TraceLog {
            run_id: run_id.to_owned(),
            capacity: core.capacity,
            spans,
            drops,
            pool: inner.pool,
        })
    }
}

/// Guard for one open main-thread span; see [`Tracer::span`].
pub struct TraceSpan<'a> {
    core: Option<&'a Arc<TracerCore>>,
    id: u32,
    parent: Option<u32>,
    name: String,
    start_ns: u64,
}

impl TraceSpan<'_> {
    /// The span's id (0 when the tracer is disabled).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        let Some(core) = self.core else { return };
        let dur_ns = core.elapsed_ns().saturating_sub(self.start_ns);
        let mut inner = core.inner.lock().expect("tracer poisoned");
        inner.stack.retain(|&open| open != self.id);
        if let Some(ring) = inner.ring.as_mut() {
            ring.push(TraceRecord {
                id: self.id,
                parent: self.parent,
                name: std::mem::take(&mut self.name),
                worker: 0,
                start_ns: self.start_ns,
                dur_ns,
            });
        }
    }
}

/// Handle for one open worker span; close it with [`WorkerTracer::end`].
#[derive(Debug)]
pub struct WorkerSpanHandle {
    id: u32,
    parent: Option<u32>,
    name: String,
    start_ns: u64,
}

/// A worker thread's private span collector; see [`Tracer::worker`].
///
/// All recording is thread-local (no locks, no atomics beyond id
/// allocation); the ring merges into the shared tracer on drop.
pub struct WorkerTracer {
    core: Option<Arc<TracerCore>>,
    worker: u32,
    parent: Option<u32>,
    stack: Vec<u32>,
    ring: Ring,
}

impl WorkerTracer {
    /// Whether this collector records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Opens a span on this worker. Nested `begin`s parent under the
    /// innermost open worker span; top-level ones under the parent given
    /// to [`Tracer::worker`].
    #[must_use]
    pub fn begin(&mut self, name: &str) -> WorkerSpanHandle {
        let Some(core) = &self.core else {
            return WorkerSpanHandle {
                id: 0,
                parent: None,
                name: String::new(),
                start_ns: 0,
            };
        };
        let id = core.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied().or(self.parent);
        self.stack.push(id);
        WorkerSpanHandle {
            id,
            parent,
            name: name.to_owned(),
            start_ns: core.elapsed_ns(),
        }
    }

    /// Nanoseconds since the tracer's epoch on the clock spans use (`0`
    /// when disabled): the `start_ns` of [`WorkerTracer::record`].
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.core.as_ref().map_or(0, |core| core.elapsed_ns())
    }

    /// Records a closed span the caller timed itself: `dur_ns` long,
    /// starting `start_ns` after the tracer's epoch, nested under the
    /// innermost open span. For work that runs in interleaved stretches —
    /// one scheme's share of a page whose blocks alternate between schemes
    /// — where a `begin`/`end` pair per stretch would flood the ring.
    pub fn record(&mut self, name: &str, start_ns: u64, dur_ns: u64) {
        let Some(core) = &self.core else { return };
        let id = core.next_id.fetch_add(1, Ordering::Relaxed);
        self.ring.push(TraceRecord {
            id,
            parent: self.stack.last().copied().or(self.parent),
            name: name.to_owned(),
            worker: self.worker,
            start_ns,
            dur_ns,
        });
    }

    /// Closes a span opened with [`WorkerTracer::begin`].
    pub fn end(&mut self, handle: WorkerSpanHandle) {
        let Some(core) = &self.core else { return };
        let dur_ns = core.elapsed_ns().saturating_sub(handle.start_ns);
        self.stack.retain(|&open| open != handle.id);
        self.ring.push(TraceRecord {
            id: handle.id,
            parent: handle.parent,
            name: handle.name,
            worker: self.worker,
            start_ns: handle.start_ns,
            dur_ns,
        });
    }
}

impl Drop for WorkerTracer {
    fn drop(&mut self) {
        if let Some(core) = self.core.take() {
            let ring = std::mem::replace(&mut self.ring, Ring::new(1));
            let log = ring.into_log(self.worker);
            core.inner
                .lock()
                .expect("tracer poisoned")
                .workers
                .push(log);
        }
    }
}

/// A finished trace: every collector's spans merged, drop counts, and
/// per-phase pool utilization. Serialized to `<run-id>.trace.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// The run this trace belongs to.
    pub run_id: String,
    /// Ring capacity the trace was recorded with.
    pub capacity: usize,
    /// All spans, sorted by `(start_ns, id)`.
    pub spans: Vec<TraceRecord>,
    /// `(worker, dropped)` per collector, ascending worker id.
    pub drops: Vec<(u32, u64)>,
    /// Pool utilization per engine phase, in recording order.
    pub pool: Vec<PoolPhase>,
}

fn opt_u32(value: Option<u32>) -> String {
    value.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

impl TraceLog {
    /// Total records dropped across all collectors.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.drops.iter().map(|&(_, d)| d).sum()
    }

    /// Serializes the trace as JSONL (wall-clock data throughout; the
    /// whole file is outside the determinism contract).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"event\": \"trace_start\", \"run_id\": {}, \"capacity\": {}}}\n",
            escape(&self.run_id),
            self.capacity
        ));
        for span in &self.spans {
            out.push_str(&format!(
                "{{\"event\": \"span\", \"id\": {}, \"parent\": {}, \"name\": {}, \
                 \"worker\": {}, \"start_ns\": {}, \"dur_ns\": {}}}\n",
                span.id,
                opt_u32(span.parent),
                escape(&span.name),
                span.worker,
                span.start_ns,
                span.dur_ns
            ));
        }
        for &(worker, dropped) in &self.drops {
            out.push_str(&format!(
                "{{\"event\": \"worker_drops\", \"name\": {}, \"worker\": {worker}, \
                 \"dropped\": {dropped}}}\n",
                escape(&format!("trace.{worker}.dropped"))
            ));
        }
        for phase in &self.pool {
            let cells: Vec<String> = phase
                .workers
                .iter()
                .map(|w| {
                    let pulls: Vec<String> = w.pull_ns.iter().map(u64::to_string).collect();
                    format!(
                        "{{\"worker\": {}, \"tasks\": {}, \"batches\": {}, \"busy_ns\": {}, \
                         \"idle_ns\": {}, \"pull_ns\": [{}]}}",
                        w.worker,
                        w.tasks,
                        w.batches,
                        w.busy_ns,
                        w.idle_ns,
                        pulls.join(", ")
                    )
                })
                .collect();
            out.push_str(&format!(
                "{{\"event\": \"pool_phase\", \"phase\": {}, \"workers\": [{}]}}\n",
                escape(&phase.phase),
                cells.join(", ")
            ));
        }
        out.push_str(&format!(
            "{{\"event\": \"trace_end\", \"spans\": {}, \"dropped\": {}}}\n",
            self.spans.len(),
            self.total_dropped()
        ));
        out
    }

    /// Parses a trace sidecar written by [`TraceLog::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed lines, unknown event tags, or a
    /// `trace_end` whose totals disagree with the parsed records.
    pub fn parse(text: &str) -> Result<TraceLog, JsonError> {
        let fail = |message: String| JsonError { pos: 0, message };
        let mut log = TraceLog {
            run_id: String::new(),
            capacity: 0,
            spans: Vec::new(),
            drops: Vec::new(),
            pool: Vec::new(),
        };
        let mut saw_end = false;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let value = Json::parse(line)?;
            let kind = value
                .str_field("event")
                .ok_or_else(|| fail("missing event tag".to_owned()))?;
            let u64_of = |key: &str| {
                value
                    .u64_field(key)
                    .ok_or_else(|| fail(format!("missing {key}")))
            };
            #[allow(clippy::cast_possible_truncation)]
            match kind {
                "trace_start" => {
                    log.run_id = value
                        .str_field("run_id")
                        .ok_or_else(|| fail("missing run_id".to_owned()))?
                        .to_owned();
                    log.capacity = u64_of("capacity")? as usize;
                }
                "span" => {
                    let parent = match value.get("parent") {
                        Some(Json::Null) | None => None,
                        Some(v) => {
                            Some(v.as_u64().ok_or_else(|| fail("bad parent".to_owned()))? as u32)
                        }
                    };
                    log.spans.push(TraceRecord {
                        id: u64_of("id")? as u32,
                        parent,
                        name: value
                            .str_field("name")
                            .ok_or_else(|| fail("missing name".to_owned()))?
                            .to_owned(),
                        worker: u64_of("worker")? as u32,
                        start_ns: u64_of("start_ns")?,
                        dur_ns: u64_of("dur_ns")?,
                    });
                }
                "worker_drops" => {
                    log.drops
                        .push((u64_of("worker")? as u32, u64_of("dropped")?));
                }
                "pool_phase" => {
                    let workers = value
                        .get("workers")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| fail("missing workers".to_owned()))?
                        .iter()
                        .map(|w| {
                            let get = |key: &str| {
                                w.u64_field(key)
                                    .ok_or_else(|| fail(format!("missing {key}")))
                            };
                            let pull_ns = w
                                .get("pull_ns")
                                .and_then(Json::as_arr)
                                .ok_or_else(|| fail("missing pull_ns".to_owned()))?
                                .iter()
                                .map(|p| p.as_u64().ok_or_else(|| fail("bad pull_ns".to_owned())))
                                .collect::<Result<Vec<_>, _>>()?;
                            Ok(PoolWorkerUtil {
                                worker: get("worker")? as usize,
                                tasks: get("tasks")? as usize,
                                batches: get("batches")?,
                                busy_ns: get("busy_ns")?,
                                idle_ns: get("idle_ns")?,
                                pull_ns,
                            })
                        })
                        .collect::<Result<Vec<_>, JsonError>>()?;
                    log.pool.push(PoolPhase {
                        phase: value
                            .str_field("phase")
                            .ok_or_else(|| fail("missing phase".to_owned()))?
                            .to_owned(),
                        workers,
                    });
                }
                "trace_end" => {
                    if u64_of("spans")? != log.spans.len() as u64 {
                        return Err(fail("trace_end span count mismatch".to_owned()));
                    }
                    if u64_of("dropped")? != log.total_dropped() {
                        return Err(fail("trace_end drop count mismatch".to_owned()));
                    }
                    saw_end = true;
                }
                other => return Err(fail(format!("unknown trace event '{other}'"))),
            }
        }
        if !saw_end {
            return Err(fail("trace stream has no trace_end line".to_owned()));
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        {
            let span = tracer.span("ignored");
            assert_eq!(span.id(), 0);
        }
        let mut worker = tracer.worker(None);
        let h = worker.begin("ignored");
        worker.end(h);
        drop(worker);
        assert!(tracer.finish("x").is_none());
    }

    #[test]
    fn spans_nest_with_parent_links() {
        let tracer = Tracer::new(16);
        {
            let outer = tracer.span("outer");
            assert_eq!(tracer.current(), Some(outer.id()));
            let inner = tracer.span("inner");
            assert_eq!(tracer.current(), Some(inner.id()));
            drop(inner);
            assert_eq!(tracer.current(), Some(outer.id()));
        }
        let log = tracer.finish("t").unwrap();
        assert_eq!(log.spans.len(), 2);
        let outer = log.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = log.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.worker, 0);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn worker_spans_parent_under_the_given_span() {
        let tracer = Tracer::new(16);
        let phase = tracer.span("phase");
        let mut worker = tracer.worker(Some(phase.id()));
        let phase_id = phase.id();
        let outer = worker.begin("task");
        let nested = worker.begin("sub");
        worker.end(nested);
        worker.end(outer);
        drop(worker);
        drop(phase);
        let log = tracer.finish("t").unwrap();
        let task = log.spans.iter().find(|s| s.name == "task").unwrap();
        let sub = log.spans.iter().find(|s| s.name == "sub").unwrap();
        assert_eq!(task.parent, Some(phase_id));
        assert_eq!(sub.parent, Some(task.id));
        assert_eq!(task.worker, 1);
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let tracer = Tracer::new(4);
        let mut worker = tracer.worker(None);
        for i in 0..10 {
            let h = worker.begin(&format!("s{i}"));
            worker.end(h);
        }
        drop(worker);
        let log = tracer.finish("t").unwrap();
        assert_eq!(log.spans.len(), 4);
        assert_eq!(log.total_dropped(), 6);
        // The newest records survive (oldest were overwritten).
        let names: Vec<&str> = log.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["s6", "s7", "s8", "s9"]);
        assert!(log.drops.contains(&(1, 6)));
    }

    #[test]
    fn trace_log_round_trips_through_jsonl() {
        let tracer = Tracer::new(8);
        {
            let _phase = tracer.span("phase");
            let mut worker = tracer.worker(tracer.current());
            let h = worker.begin("task");
            worker.end(h);
        }
        tracer.record_pool(
            "phase",
            vec![PoolWorkerUtil {
                worker: 0,
                tasks: 3,
                batches: 2,
                busy_ns: 100,
                idle_ns: 10,
                pull_ns: vec![5, 7],
            }],
        );
        let log = tracer.finish("round-trip").unwrap();
        let text = log.to_jsonl();
        assert!(text.contains("\"trace.1.dropped\""));
        let parsed = TraceLog::parse(&text).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn parser_rejects_corrupt_streams() {
        assert!(TraceLog::parse("not json\n").is_err());
        assert!(TraceLog::parse("{\"event\": \"mystery\"}\n").is_err());
        // A truncated stream (no trace_end) must not parse as complete.
        let tracer = Tracer::new(8);
        let _ = tracer.span("s");
        let text = tracer.finish("t").unwrap().to_jsonl();
        let truncated: String = text
            .lines()
            .filter(|l| !l.contains("trace_end"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(TraceLog::parse(&truncated).is_err());
        // A tampered span count is caught by the trailer check.
        let tampered = text.replace("\"spans\": 1", "\"spans\": 7");
        assert!(TraceLog::parse(&tampered).is_err());
    }

    #[test]
    fn occupancy_is_busy_over_wall() {
        let util = PoolWorkerUtil {
            worker: 0,
            tasks: 1,
            batches: 1,
            busy_ns: 75,
            idle_ns: 25,
            pull_ns: Vec::new(),
        };
        assert!((util.occupancy() - 0.75).abs() < 1e-12);
    }
}
