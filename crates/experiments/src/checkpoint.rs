//! Deterministic checkpoint/resume for the fig5/6/7 and fig8 Monte Carlo
//! campaigns.
//!
//! A checkpoint is a serializable engine snapshot taken at a page-range
//! boundary: the per-unit page high-water marks, the partial per-scheme
//! tallies (raw per-page results, `f64` death times stored as exact bit
//! patterns), and the deterministic telemetry metrics accumulated so far.
//! Because every page's randomness is its own
//! [`sim_rng::substream_seed`] substream of the master seed (see
//! [`pcm_sim::timeline::TimelineSampler::page_rng`]), a resumed run
//! re-derives exactly the pages the interrupted run never finished and
//! the concatenation is byte-identical to an uninterrupted run — pinned
//! in `tests/determinism.rs` and the cross-process CLI suite.
//!
//! Worker scratch state ([`pcm_sim::policy::PairCache`]) is deliberately
//! *not* serialized: checkpoints are taken at page boundaries, where the
//! self-healing cache is semantically empty (its content is a pure
//! function of `(owner, covered-fault-prefix)` and every block
//! evaluation re-derives it from the block's own faults). The
//! `PairCache::snapshot`/`restore` API exists for mid-block suspension
//! and is round-trip tested in `pcm-sim`; see DESIGN.md §12.

use crate::fig567::Fig567;
use crate::fig8::{self, Fig8};
use crate::runner::{run_labeled_range, unit_estimates, RunObserver, RunOptions, SchemeSummary};
use crate::schemes::{self, Policy};
use pcm_sim::montecarlo::{MemoryRun, SimConfig};
use sim_telemetry::{
    escape, HistogramSnapshot, Json, Registry, RunState, SeriesCursor, SeriesWriter,
    HISTOGRAM_BUCKETS,
};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Snapshot format version; bumped on incompatible layout changes.
pub const CHECKPOINT_VERSION: u64 = 1;

/// The block sizes one fig5/6/7 run sweeps, in unit order.
pub const FIG567_BLOCK_BITS: [usize; 2] = [256, 512];

/// One `(block_bits, scheme)` Monte Carlo unit's accumulated state: the
/// page high-water mark plus the raw per-page results for `0..pages_done`.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitProgress {
    /// Data-block size of this unit.
    pub block_bits: usize,
    /// Scheme label (must match the policy set rebuilt at resume time).
    pub scheme: String,
    /// Pages completed; global page indices `0..pages_done` are covered.
    pub pages_done: usize,
    /// Raw results for the covered pages, in page-index order.
    pub run: MemoryRun,
}

/// A serialized engine snapshot: configuration fingerprint, per-unit
/// progress, and the deterministic telemetry metrics accumulated so far.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// Checkpoint cadence in pages (the `--checkpoint-every` value), kept
    /// so a bare `--resume` continues with the original cadence.
    pub every: usize,
    /// Run configuration the snapshot belongs to, as `(key, value)` pairs
    /// in a fixed order (see [`Checkpoint::fingerprint_keys`]). Resume
    /// refuses a checkpoint whose fingerprint disagrees with the CLI.
    pub fingerprint: Vec<(String, String)>,
    /// Deterministic counters at the snapshot barrier.
    pub counters: Vec<(String, u64)>,
    /// Volatile (scheduling-dependent) counters at the snapshot barrier.
    pub volatile: Vec<(String, u64)>,
    /// Histograms at the snapshot barrier.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Time-series sidecar position at the snapshot barrier, so a resumed
    /// run reopens `<run-id>.series.jsonl` in append mode exactly where
    /// the interrupted run left it. Absent in pre-series checkpoints
    /// (parsed as the zero cursor; no version bump needed).
    pub series: SeriesCursor,
    /// Per-unit progress, in fixed unit order (block size major, scheme
    /// set order minor).
    pub units: Vec<UnitProgress>,
}

impl Checkpoint {
    /// The fingerprint keys every checkpoint records, in order.
    #[must_use]
    pub fn fingerprint_keys() -> &'static [&'static str] {
        &[
            "command",
            "seed",
            "pages",
            "trials",
            "page_bytes",
            "criterion",
            "predicate_mode",
        ]
    }

    /// Looks up one fingerprint value.
    #[must_use]
    pub fn fingerprint_value(&self, key: &str) -> Option<&str> {
        self.fingerprint
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Renders the checkpoint as pretty-printed JSON.
    ///
    /// `f64` page lifetimes are stored as 16-digit hex bit patterns:
    /// the workspace JSON parser (like JSON itself) cannot round-trip
    /// every `u64` through a number literal, and a decimal float would
    /// lose the exactness the byte-identity contract depends on.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"version\": {CHECKPOINT_VERSION},\n"));
        out.push_str(&format!("  \"every\": {},\n", self.every));
        out.push_str("  \"fingerprint\": {\n");
        let fp: Vec<String> = self
            .fingerprint
            .iter()
            .map(|(k, v)| format!("    {}: {}", escape(k), escape(v)))
            .collect();
        out.push_str(&fp.join(",\n"));
        out.push_str("\n  },\n");
        out.push_str(&format!(
            "  \"series\": {{\"seq\": {}, \"pages\": {}, \"last_sample\": {}}},\n",
            self.series.seq,
            self.series.pages,
            self.series
                .last_sample
                .map_or_else(|| "null".to_owned(), |p| p.to_string())
        ));
        out.push_str("  \"counters\": {\n");
        let cs: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("    {}: {v}", escape(k)))
            .collect();
        out.push_str(&cs.join(",\n"));
        out.push_str(if cs.is_empty() { "  },\n" } else { "\n  },\n" });
        out.push_str("  \"volatile\": {\n");
        let vs: Vec<String> = self
            .volatile
            .iter()
            .map(|(k, v)| format!("    {}: {v}", escape(k)))
            .collect();
        out.push_str(&vs.join(",\n"));
        out.push_str(if vs.is_empty() { "  },\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": [\n");
        let hs: Vec<String> = self
            .histograms
            .iter()
            .map(|(name, snap)| {
                let cells: Vec<String> = snap
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| format!("[{i}, {c}]"))
                    .collect();
                format!(
                    "    {{\"name\": {}, \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                    escape(name),
                    snap.count,
                    snap.sum,
                    cells.join(", ")
                )
            })
            .collect();
        out.push_str(&hs.join(",\n"));
        out.push_str(if hs.is_empty() { "  ],\n" } else { "\n  ],\n" });
        out.push_str("  \"units\": [\n");
        let us: Vec<String> = self.units.iter().map(unit_json).collect();
        out.push_str(&us.join(",\n"));
        out.push_str(if us.is_empty() { "  ]\n" } else { "\n  ]\n" });
        out.push('}');
        out
    }

    /// Parses a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let value = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let version = value
            .u64_field("version")
            .ok_or("missing 'version' field")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let every = value.u64_field("every").ok_or("missing 'every' field")? as usize;
        let fingerprint = obj_entries(&value, "fingerprint")?
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_owned()))
                    .ok_or_else(|| format!("fingerprint '{k}' is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let counters = counter_entries(&value, "counters")?;
        let volatile = counter_entries(&value, "volatile")?;
        let series = match value.get("series") {
            None => SeriesCursor::default(),
            Some(cursor) => SeriesCursor {
                seq: cursor
                    .u64_field("seq")
                    .ok_or("series cursor missing 'seq'")?,
                pages: cursor
                    .u64_field("pages")
                    .ok_or("series cursor missing 'pages'")?,
                last_sample: match cursor.get("last_sample") {
                    Some(Json::Null) | None => None,
                    Some(v) => Some(v.as_u64().ok_or("series cursor 'last_sample' not a u64")?),
                },
            },
        };
        let histograms = arr_entries(&value, "histograms")?
            .iter()
            .map(parse_histogram)
            .collect::<Result<Vec<_>, _>>()?;
        let units = arr_entries(&value, "units")?
            .iter()
            .map(parse_unit)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Checkpoint {
            every,
            fingerprint,
            counters,
            volatile,
            histograms,
            series,
            units,
        })
    }

    /// Reads and parses the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors pass through; parse failures surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Checkpoint> {
        let text = std::fs::read_to_string(path)?;
        Checkpoint::parse(&text).map_err(|msg| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {msg}", path.display()),
            )
        })
    }

    /// Atomically writes the checkpoint to `path` (temp file + rename, so
    /// a crash mid-write can never leave a torn snapshot behind).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }

    /// Replays the snapshot's metrics into `registry` so the final
    /// counters/histograms equal an uninterrupted run's.
    pub fn restore_metrics(&self, registry: &Registry) {
        for (name, value) in &self.counters {
            registry.counter(name).add(*value);
        }
        for (name, value) in &self.volatile {
            registry.volatile_counter(name).add(*value);
        }
        for (name, snap) in &self.histograms {
            registry.add_histogram_snapshot(name, snap);
        }
    }
}

fn unit_json(unit: &UnitProgress) -> String {
    let hex = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("\"{:016x}\"", v.to_bits()))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let faults: Vec<String> = unit
        .run
        .faults_recovered
        .iter()
        .map(ToString::to_string)
        .collect();
    format!(
        "    {{\"block_bits\": {}, \"scheme\": {}, \"pages_done\": {}, \"capped\": {},\n     \
         \"lifetimes\": [{}],\n     \"unprotected\": [{}],\n     \"faults\": [{}]}}",
        unit.block_bits,
        escape(&unit.scheme),
        unit.pages_done,
        unit.run.capped_pages,
        hex(&unit.run.page_lifetimes),
        hex(&unit.run.unprotected_lifetimes),
        faults.join(", ")
    )
}

fn obj_entries<'a>(value: &'a Json, key: &str) -> Result<&'a [(String, Json)], String> {
    match value.get(key) {
        Some(Json::Obj(entries)) => Ok(entries),
        _ => Err(format!("missing or non-object '{key}' field")),
    }
}

fn arr_entries<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], String> {
    value
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array '{key}' field"))
}

fn counter_entries(value: &Json, key: &str) -> Result<Vec<(String, u64)>, String> {
    obj_entries(value, key)?
        .iter()
        .map(|(k, v)| {
            v.as_u64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("{key} '{k}' is not a u64"))
        })
        .collect()
}

fn parse_histogram(value: &Json) -> Result<(String, HistogramSnapshot), String> {
    let name = value
        .str_field("name")
        .ok_or("histogram entry missing 'name'")?
        .to_owned();
    let count = value
        .u64_field("count")
        .ok_or_else(|| format!("histogram '{name}' missing 'count'"))?;
    let sum = value
        .u64_field("sum")
        .ok_or_else(|| format!("histogram '{name}' missing 'sum'"))?;
    let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
    for cell in arr_entries(value, "buckets")? {
        let pair = cell.as_arr().filter(|p| p.len() == 2);
        let (index, add) = pair
            .and_then(|p| Some((p[0].as_u64()? as usize, p[1].as_u64()?)))
            .ok_or_else(|| format!("histogram '{name}' has a malformed bucket cell"))?;
        if index >= HISTOGRAM_BUCKETS {
            return Err(format!(
                "histogram '{name}' bucket index {index} out of range"
            ));
        }
        buckets[index] = add;
    }
    Ok((
        name,
        HistogramSnapshot {
            count,
            sum,
            buckets,
        },
    ))
}

fn parse_unit(value: &Json) -> Result<UnitProgress, String> {
    let scheme = value
        .str_field("scheme")
        .ok_or("unit entry missing 'scheme'")?
        .to_owned();
    let block_bits = value
        .u64_field("block_bits")
        .ok_or_else(|| format!("unit '{scheme}' missing 'block_bits'"))?
        as usize;
    let pages_done = value
        .u64_field("pages_done")
        .ok_or_else(|| format!("unit '{scheme}' missing 'pages_done'"))?
        as usize;
    let capped_pages = value
        .u64_field("capped")
        .ok_or_else(|| format!("unit '{scheme}' missing 'capped'"))?
        as usize;
    let bits_list = |key: &str| -> Result<Vec<f64>, String> {
        arr_entries(value, key)?
            .iter()
            .map(|cell| {
                cell.as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .map(f64::from_bits)
                    .ok_or_else(|| format!("unit '{scheme}' has a malformed '{key}' cell"))
            })
            .collect()
    };
    let page_lifetimes = bits_list("lifetimes")?;
    let unprotected_lifetimes = bits_list("unprotected")?;
    let faults_recovered = arr_entries(value, "faults")?
        .iter()
        .map(|cell| {
            cell.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| format!("unit '{scheme}' has a malformed 'faults' cell"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if page_lifetimes.len() != pages_done
        || unprotected_lifetimes.len() != pages_done
        || faults_recovered.len() != pages_done
    {
        return Err(format!(
            "unit '{scheme}' arrays disagree with pages_done={pages_done}"
        ));
    }
    Ok(UnitProgress {
        block_bits,
        scheme,
        pages_done,
        run: MemoryRun {
            page_lifetimes,
            unprotected_lifetimes,
            faults_recovered,
            capped_pages,
        },
    })
}

/// The fig5/6/7 policy sets per block size, in unit order.
#[must_use]
pub fn unit_policies(scalar: bool) -> Vec<(usize, Vec<Policy>)> {
    FIG567_BLOCK_BITS
        .into_iter()
        .map(|bits| {
            let set = if scalar {
                schemes::fig5_schemes_scalar(bits)
            } else {
                schemes::fig5_schemes(bits)
            };
            (bits, set)
        })
        .collect()
}

/// Runs one policy over the global pages `start..end` with the observer's
/// telemetry/progress/tracing hooks attached (the range analogue of the
/// runner's full-chip path).
#[must_use]
pub fn run_unit_range(
    policy: &Policy,
    block_bits: usize,
    opts: &RunOptions,
    observer: &RunObserver<'_>,
    start: usize,
    end: usize,
) -> MemoryRun {
    run_labeled_range(
        policy.as_ref(),
        &policy.name(),
        &opts.sim_config(block_bits),
        observer,
        start,
        end,
    )
}

/// One Monte Carlo unit of a checkpointed or sharded campaign: a policy
/// over an explicit chip configuration under a stable label. fig5/6/7
/// units differ in block size; fig8 units differ in partially-stuck
/// fraction (the label carries the `#p<percent>` suffix).
pub struct UnitSpec {
    /// Stable unit key (telemetry scheme label and checkpoint unit name).
    pub label: String,
    /// Chip configuration this unit simulates.
    pub cfg: SimConfig,
    /// The policy under evaluation.
    pub policy: Policy,
}

/// The fig5/6/7 campaign's unit specs, in unit order.
#[must_use]
pub fn fig567_unit_specs(opts: &RunOptions, scalar: bool) -> Vec<UnitSpec> {
    unit_policies(scalar)
        .into_iter()
        .flat_map(|(bits, set)| {
            let cfg = opts.sim_config(bits);
            set.into_iter().map(move |policy| UnitSpec {
                label: policy.name(),
                cfg,
                policy,
            })
        })
        .collect()
}

/// The fig8 campaign's unit specs, in unit order (fraction major).
#[must_use]
pub fn fig8_unit_specs(opts: &RunOptions) -> Vec<UnitSpec> {
    fig8::units()
        .into_iter()
        .map(|(percent, policy)| UnitSpec {
            label: fig8::unit_label(&policy.name(), percent),
            cfg: opts.sim_config_partial(fig8::FIG8_BLOCK_BITS, percent as f64 / 100.0),
            policy,
        })
        .collect()
}

/// The `--target-rse` early-stop predicate, evaluated only at chunk
/// barriers: the unit's mean-lifetime relative standard error has reached
/// the target (lifetime is the campaign's highest-variance metric; when
/// it converges, the fault-count mean converged earlier). `None` — no
/// target — never stops, and fewer than [`sim_telemetry::MIN_SAMPLES`]
/// pages never stop.
fn unit_converged(unit: &UnitProgress, target_rse: Option<f64>) -> bool {
    target_rse.is_some_and(|target| unit.run.lifetime_moments().converged(target))
}

fn append_run(acc: &mut MemoryRun, part: MemoryRun) {
    acc.page_lifetimes.extend(part.page_lifetimes);
    acc.unprotected_lifetimes.extend(part.unprotected_lifetimes);
    acc.faults_recovered.extend(part.faults_recovered);
    acc.capped_pages += part.capped_pages;
}

/// Control block for a checkpointed fig5/6/7 run.
pub struct CheckpointCtl<'a> {
    /// Where snapshots are written (`<telemetry-dir>/<run-id>.ckpt.json`).
    pub path: std::path::PathBuf,
    /// Snapshot cadence in pages.
    pub every: usize,
    /// Set by the SIGINT handler; polled at every chunk barrier.
    pub interrupted: &'a AtomicBool,
    /// Snapshot to continue from (`--resume`), if any.
    pub resume: Option<Checkpoint>,
    /// Fingerprint of the current CLI configuration, stored into every
    /// snapshot (and already validated against `resume` by the caller).
    pub fingerprint: Vec<(String, String)>,
    /// `--target-rse`: stop a unit at the first chunk barrier where the
    /// relative standard error of its mean lifetime reaches the target.
    /// The predicate is a pure function of the pages processed so far
    /// ([`sim_telemetry::Moments::converged`]), evaluated only at chunk
    /// barriers, so the stop decision — and the stopped byte stream — is
    /// identical across thread counts, tracing modes, and SIGINT +
    /// `--resume` (a resumed run re-evaluates the predicate at the stored
    /// grid point and skips the unit without re-emitting its barrier).
    pub target_rse: Option<f64>,
}

/// How a checkpointed run ended.
pub enum CheckpointOutcome {
    /// All units finished; the snapshot file has been removed.
    Complete(Fig567),
    /// SIGINT was observed at a chunk barrier; the snapshot at
    /// [`CheckpointCtl::path`] holds everything needed to `--resume`.
    Interrupted,
}

/// Runs a campaign's unit specs in `ctl.every`-page chunks with a
/// snapshot after each chunk, seeding progress from `ctl.resume` when
/// present (validating it describes the same unit list). Returns `None`
/// when a pending SIGINT stopped the run at a chunk barrier — the
/// snapshot at [`CheckpointCtl::path`] then holds everything needed to
/// resume — and the completed per-unit runs otherwise (with the snapshot
/// file removed).
///
/// # Errors
///
/// Propagates snapshot I/O errors; a resume snapshot whose unit list
/// disagrees with `specs` is [`io::ErrorKind::InvalidData`].
pub fn run_units_checkpointed(
    specs: &[UnitSpec],
    pages: usize,
    observer: &RunObserver<'_>,
    ctl: &CheckpointCtl<'_>,
) -> io::Result<Option<Vec<UnitProgress>>> {
    let every = ctl.every.max(1);
    // Campaign-scope timeline cache: units run one chunk at a time here,
    // so units sharing a chip configuration (every scheme of one width)
    // sample each page once across chunks through it. Byte-identity is
    // unaffected — cached pages are bit-equal to resampled ones.
    let campaign_timelines = pcm_sim::timeline::TimelineCache::new();
    let observer = &RunObserver {
        timelines: observer.timelines.or(Some(&campaign_timelines)),
        ..*observer
    };

    // Seed per-unit progress from the resume snapshot (validating that it
    // describes the same unit list) or start every unit empty.
    let mut units: Vec<UnitProgress> = specs
        .iter()
        .map(|spec| UnitProgress {
            block_bits: spec.cfg.block_bits,
            scheme: spec.label.clone(),
            pages_done: 0,
            run: MemoryRun::default(),
        })
        .collect();
    if let Some(resume) = &ctl.resume {
        if resume.units.len() != units.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint has {} units but this run has {}",
                    resume.units.len(),
                    units.len()
                ),
            ));
        }
        for (current, stored) in units.iter_mut().zip(&resume.units) {
            if current.block_bits != stored.block_bits || current.scheme != stored.scheme {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint unit '{}' ({} bits) does not match expected '{}' ({} bits)",
                        stored.scheme, stored.block_bits, current.scheme, current.block_bits
                    ),
                ));
            }
            *current = stored.clone();
        }
        if let Some(registry) = observer.registry {
            resume.restore_metrics(registry);
        }
        // Fold fully-completed prior units into the status base so a
        // resumed run's heartbeat reports global progress, not just this
        // process's share. The partial unit needs nothing: the engine
        // reports unit-global positions (`start + finished`).
        if let Some(status) = observer.status {
            for unit in units
                .iter()
                .filter(|u| u.pages_done >= pages || unit_converged(u, ctl.target_rse))
            {
                status.complete_unit(unit.pages_done as u64);
            }
        }
    }

    let snapshot = |units: &[UnitProgress]| -> Checkpoint {
        let (counters, volatile, histograms) = match observer.registry {
            Some(r) => (r.counters(), r.volatile_counters(), r.histograms()),
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        Checkpoint {
            every,
            fingerprint: ctl.fingerprint.clone(),
            counters,
            volatile,
            histograms,
            series: observer
                .series
                .map(SeriesWriter::cursor)
                .unwrap_or_default(),
            units: units.to_vec(),
        }
    };
    let mark = |state: RunState| {
        if let Some(status) = observer.status {
            status.mark(state);
        }
    };

    for (flat, spec) in specs.iter().enumerate() {
        // The loop-entry convergence check is what makes `--resume` of an
        // early-stopped unit deterministic: surviving past a grid point
        // implies the predicate did not hold there, so a resumed run that
        // finds it holding at the stored grid point knows the original
        // run stopped exactly here — skip without re-emitting the barrier
        // (the stored series cursor already covers it).
        while units[flat].pages_done < pages && !unit_converged(&units[flat], ctl.target_rse) {
            if ctl.interrupted.load(Ordering::SeqCst) {
                snapshot(&units).store(&ctl.path)?;
                mark(RunState::Interrupted);
                return Ok(None);
            }
            let start = units[flat].pages_done;
            let end = (start + every).min(pages);
            let part = run_labeled_range(
                spec.policy.as_ref(),
                &spec.label,
                &spec.cfg,
                observer,
                start,
                end,
            );
            append_run(&mut units[flat].run, part);
            units[flat].pages_done = end;
            // The unit barrier must precede the snapshot so the stored
            // series cursor covers the sample this barrier just wrote;
            // mid-unit chunks never sample, which is exactly why the
            // sidecar is byte-identical to an uninterrupted run's. An
            // early stop is a unit barrier too: the unit is done at
            // `end < pages` pages.
            if end == pages || unit_converged(&units[flat], ctl.target_rse) {
                observer.unit_barrier_with(
                    units[flat].pages_done as u64,
                    &unit_estimates(&spec.label, spec.cfg.block_bits, &units[flat].run),
                );
            }
            snapshot(&units).store(&ctl.path)?;
            mark(RunState::Checkpointed);
        }
    }
    if ctl.interrupted.load(Ordering::SeqCst) {
        // A SIGINT that lands after the last chunk still stops the run
        // (reports/CSVs are skipped); the final snapshot covers everything.
        snapshot(&units).store(&ctl.path)?;
        mark(RunState::Interrupted);
        return Ok(None);
    }
    match std::fs::remove_file(&ctl.path) {
        Ok(()) => {}
        Err(err) if err.kind() == io::ErrorKind::NotFound => {}
        Err(err) => return Err(err),
    }
    Ok(Some(units))
}

/// [`crate::fig567::run_with_mode`] with periodic snapshots: every unit
/// runs in `ctl.every`-page chunks, a snapshot is written after each
/// chunk, and a pending SIGINT stops the run at the barrier.
///
/// # Errors
///
/// Propagates snapshot I/O errors; a resume snapshot whose unit list
/// disagrees with the rebuilt policy sets is [`io::ErrorKind::InvalidData`].
pub fn run_fig567_checkpointed(
    opts: &RunOptions,
    observer: &RunObserver<'_>,
    scalar: bool,
    ctl: &CheckpointCtl<'_>,
) -> io::Result<CheckpointOutcome> {
    let specs = fig567_unit_specs(opts, scalar);
    let Some(units) = run_units_checkpointed(&specs, opts.pages, observer, ctl)? else {
        return Ok(CheckpointOutcome::Interrupted);
    };
    let mut by_block: Vec<(usize, Vec<SchemeSummary>)> = Vec::new();
    for (spec, unit) in specs.iter().zip(&units) {
        let summary = SchemeSummary::from_run(spec.policy.as_ref(), &unit.run);
        match by_block.last_mut() {
            Some((bits, summaries)) if *bits == unit.block_bits => summaries.push(summary),
            _ => by_block.push((unit.block_bits, vec![summary])),
        }
    }
    Ok(CheckpointOutcome::Complete(Fig567 { by_block }))
}

/// How a checkpointed fig8 run ended (the fig8 analogue of
/// [`CheckpointOutcome`]).
pub enum Fig8CheckpointOutcome {
    /// All units finished; the snapshot file has been removed.
    Complete(Fig8),
    /// SIGINT was observed at a chunk barrier; the snapshot at
    /// [`CheckpointCtl::path`] holds everything needed to `--resume`.
    Interrupted,
}

/// [`crate::fig8::run_with`] with periodic snapshots, chunked and resumed
/// exactly like the fig5/6/7 campaign.
///
/// # Errors
///
/// As [`run_units_checkpointed`].
pub fn run_fig8_checkpointed(
    opts: &RunOptions,
    observer: &RunObserver<'_>,
    ctl: &CheckpointCtl<'_>,
) -> io::Result<Fig8CheckpointOutcome> {
    let specs = fig8_unit_specs(opts);
    let Some(units) = run_units_checkpointed(&specs, opts.pages, observer, ctl)? else {
        return Ok(Fig8CheckpointOutcome::Interrupted);
    };
    let runs: Vec<MemoryRun> = units.into_iter().map(|unit| unit.run).collect();
    Ok(Fig8CheckpointOutcome::Complete(fig8::assemble(&runs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            every: 3,
            fingerprint: vec![
                ("command".to_owned(), "fig5".to_owned()),
                ("seed".to_owned(), "42".to_owned()),
            ],
            counters: vec![("mc.ECP6.pages".to_owned(), 7)],
            volatile: vec![("pool.ECP6.worker_batches".to_owned(), 2)],
            histograms: vec![("mc.ECP6.page_fault_arrivals".to_owned(), {
                let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
                buckets[3] = 4;
                buckets[HISTOGRAM_BUCKETS - 1] = 1;
                HistogramSnapshot {
                    count: 5,
                    sum: 912,
                    buckets,
                }
            })],
            series: SeriesCursor {
                seq: 9,
                pages: 14,
                last_sample: Some(12),
            },
            units: vec![UnitProgress {
                block_bits: 512,
                scheme: "ECP6".to_owned(),
                pages_done: 2,
                run: MemoryRun {
                    page_lifetimes: vec![1.5e9, f64::from_bits(0xdead_beef_dead_beef)],
                    unprotected_lifetimes: vec![3.25e8, 1.0],
                    faults_recovered: vec![12, 9],
                    capped_pages: 1,
                },
            }],
        }
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let ckpt = sample_checkpoint();
        let parsed = Checkpoint::parse(&ckpt.to_json()).expect("parse");
        assert_eq!(parsed, ckpt);
        // Bit-exact f64 round trip, including non-finite patterns.
        assert_eq!(
            parsed.units[0].run.page_lifetimes[1].to_bits(),
            0xdead_beef_dead_beef
        );
    }

    #[test]
    fn pre_series_checkpoints_parse_with_zero_cursor() {
        // Snapshots written before the series sidecar existed have no
        // "series" field; they must load with the default cursor (and a
        // null last_sample must round-trip).
        let mut ckpt = sample_checkpoint();
        ckpt.series.last_sample = None;
        let parsed = Checkpoint::parse(&ckpt.to_json()).expect("parse");
        assert_eq!(parsed.series.last_sample, None);

        let legacy: String = ckpt
            .to_json()
            .lines()
            .filter(|line| !line.contains("\"series\""))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = Checkpoint::parse(&legacy).expect("legacy parse");
        assert_eq!(parsed.series, SeriesCursor::default());
    }

    #[test]
    fn checkpoint_rejects_malformed_documents() {
        assert!(Checkpoint::parse("not json").is_err());
        assert!(Checkpoint::parse("{}").is_err());
        let wrong_version =
            sample_checkpoint()
                .to_json()
                .replacen("\"version\": 1", "\"version\": 999", 1);
        let err = Checkpoint::parse(&wrong_version).unwrap_err();
        assert!(err.contains("version"), "{err}");
        let torn =
            sample_checkpoint()
                .to_json()
                .replacen("\"pages_done\": 2", "\"pages_done\": 3", 1);
        let err = Checkpoint::parse(&torn).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn store_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join("aegis-ckpt-store-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("run.ckpt.json");
        let ckpt = sample_checkpoint();
        ckpt.store(&path).expect("store");
        assert!(!path.with_extension("json.tmp").exists());
        assert_eq!(Checkpoint::load(&path).expect("load"), ckpt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_metrics_reproduces_registry_state() {
        let ckpt = sample_checkpoint();
        let registry = Registry::new();
        ckpt.restore_metrics(&registry);
        assert_eq!(registry.counters(), ckpt.counters);
        assert_eq!(registry.volatile_counters(), ckpt.volatile);
        assert_eq!(registry.histograms(), ckpt.histograms);
    }

    #[test]
    fn chunked_run_matches_single_shot() {
        let opts = RunOptions {
            pages: 5,
            seed: 11,
            ..RunOptions::default()
        };
        let interrupted = AtomicBool::new(false);
        let dir = std::env::temp_dir().join("aegis-ckpt-chunk-test");
        let _ = std::fs::remove_dir_all(&dir);
        let ctl = CheckpointCtl {
            path: dir.join("t.ckpt.json"),
            every: 2,
            interrupted: &interrupted,
            resume: None,
            fingerprint: Vec::new(),
            target_rse: None,
        };
        let observer = RunObserver::default();
        let chunked = match run_fig567_checkpointed(&opts, &observer, false, &ctl).expect("run") {
            CheckpointOutcome::Complete(results) => results,
            CheckpointOutcome::Interrupted => panic!("not interrupted"),
        };
        assert!(!ctl.path.exists(), "snapshot must be removed on success");
        let straight = crate::fig567::run_with_mode(&opts, &observer, false);
        assert_eq!(chunked.by_block.len(), straight.by_block.len());
        for ((cb, cs), (sb, ss)) in chunked.by_block.iter().zip(&straight.by_block) {
            assert_eq!(cb, sb);
            for (c, s) in cs.iter().zip(ss) {
                assert_eq!(c.name, s.name);
                assert_eq!(c.mean_faults_recovered, s.mean_faults_recovered);
                assert_eq!(c.mean_lifetime, s.mean_lifetime);
                assert_eq!(c.half_lifetime, s.half_lifetime);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_fig8_run_matches_single_shot() {
        let opts = RunOptions {
            pages: 3,
            seed: 13,
            ..RunOptions::default()
        };
        let interrupted = AtomicBool::new(false);
        let dir = std::env::temp_dir().join("aegis-ckpt-fig8-chunk-test");
        let _ = std::fs::remove_dir_all(&dir);
        let ctl = CheckpointCtl {
            path: dir.join("t.ckpt.json"),
            every: 2,
            interrupted: &interrupted,
            resume: None,
            fingerprint: Vec::new(),
            target_rse: None,
        };
        let observer = RunObserver::default();
        let chunked = match run_fig8_checkpointed(&opts, &observer, &ctl).expect("run") {
            Fig8CheckpointOutcome::Complete(results) => results,
            Fig8CheckpointOutcome::Interrupted => panic!("not interrupted"),
        };
        assert!(!ctl.path.exists(), "snapshot must be removed on success");
        let straight = fig8::run_with(&opts, &observer);
        assert_eq!(chunked.by_fraction.len(), straight.by_fraction.len());
        for ((cp, cs), (sp, ss)) in chunked.by_fraction.iter().zip(&straight.by_fraction) {
            assert_eq!(cp, sp);
            for (c, s) in cs.iter().zip(ss) {
                assert_eq!(c.name, s.name);
                assert_eq!(c.mean_faults_recovered, s.mean_faults_recovered);
                assert_eq!(c.mean_lifetime, s.mean_lifetime);
                assert_eq!(c.half_lifetime, s.half_lifetime);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
