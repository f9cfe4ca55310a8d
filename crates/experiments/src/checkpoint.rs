//! Deterministic checkpoint/resume for the chip-figure Monte Carlo
//! campaigns (fig5/6/7, fig8, fig9, fig11/12/13): the snapshot format and
//! the control block of a checkpointed run. The chunk loop itself is
//! [`crate::campaign::execute`].
//!
//! A checkpoint is a serializable engine snapshot taken at a chunk
//! barrier: the per-unit page high-water marks, the partial per-scheme
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

use crate::campaign::{self, Unit};
use crate::runner::RunObserver;
use pcm_sim::montecarlo::MemoryRun;
use sim_telemetry::{escape, HistogramSnapshot, Json, Registry, SeriesCursor, HISTOGRAM_BUCKETS};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::AtomicBool;

// The benchmark harness imports these from here.
pub use crate::campaign::{fig8_unit_specs, UnitSpec};

/// Snapshot format version; bumped on incompatible layout changes.
pub const CHECKPOINT_VERSION: u64 = 1;

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
    /// in a fixed order. Resume refuses a checkpoint whose fingerprint
    /// disagrees with the CLI.
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
    /// Per-unit progress, in campaign unit order. The executor advances
    /// the active units of one chip configuration together, so their
    /// cursors agree unless `--target-rse` stopped a unit early.
    pub units: Vec<UnitProgress>,
}

impl Checkpoint {
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

    /// Atomically and durably writes the checkpoint to `path`: the temp
    /// file's data is synced before it is renamed over `path`, and the
    /// directory after, so a crash at any instant leaves either the
    /// previous snapshot or this one, never a torn or lost file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        let dir = match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent,
            _ => Path::new("."),
        };
        std::fs::create_dir_all(dir)?;
        let tmp = path.with_extension("json.tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(self.to_json().as_bytes())?;
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        // The rename lives in the directory; only Unix can open one to sync.
        #[cfg(unix)]
        std::fs::File::open(dir)?.sync_all()?;
        Ok(())
    }

    /// Replays the snapshot's metrics, each into the registry `route`
    /// picks for its name, so the final counters/histograms equal an
    /// uninterrupted run's.
    pub fn restore_metrics<'r>(&self, route: impl Fn(&str) -> &'r Registry) {
        for (name, value) in &self.counters {
            route(name).counter(name).add(*value);
        }
        for (name, value) in &self.volatile {
            route(name).volatile_counter(name).add(*value);
        }
        for (name, snap) in &self.histograms {
            route(name).add_histogram_snapshot(name, snap);
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
    if capped_pages > pages_done {
        return Err(format!(
            "unit '{scheme}' has {capped_pages} capped pages but pages_done={pages_done}"
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

/// Control block for a checkpointed campaign run.
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
    /// relative standard error of its mean lifetime reaches the target
    /// (lifetime is the campaign's highest-variance metric; when it
    /// converges, the fault-count mean converged earlier). Fewer than
    /// [`sim_telemetry::MIN_SAMPLES`] pages never stop. The predicate is a
    /// pure function of the pages processed so far
    /// ([`sim_telemetry::Moments::converged`]), evaluated only at chunk
    /// barriers, so the stop decision — and the stopped byte stream — is
    /// identical across thread counts, tracing modes, and SIGINT +
    /// `--resume` (a resumed run re-evaluates the predicate at the stored
    /// grid point and skips the unit without re-emitting its barrier).
    pub target_rse: Option<f64>,
}

/// [`campaign::execute`] over `specs` and the pages `0..pages` with
/// snapshots.
///
/// A benchmark-harness shim: `perfbench/` still calls it, and it goes once
/// the benchmark calls [`campaign::execute`] (ROADMAP item 1).
///
/// # Errors
///
/// As [`campaign::execute`].
pub fn run_units_checkpointed(
    specs: &[UnitSpec],
    pages: usize,
    observer: &RunObserver<'_>,
    ctl: &CheckpointCtl<'_>,
) -> io::Result<Option<Vec<UnitProgress>>> {
    let units: Vec<Unit<'_>> = specs.iter().map(UnitSpec::unit).collect();
    campaign::execute(&units, 0..pages, observer, Some(ctl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunOptions;

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
        ckpt.restore_metrics(|_| &registry);
        assert_eq!(registry.counters(), ckpt.counters);
        assert_eq!(registry.volatile_counters(), ckpt.volatile);
        assert_eq!(registry.histograms(), ckpt.histograms);
    }

    #[test]
    fn parse_rejects_more_capped_pages_than_pages_done() {
        let overcapped =
            sample_checkpoint()
                .to_json()
                .replacen("\"capped\": 1", "\"capped\": 3", 1);
        let err = Checkpoint::parse(&overcapped).unwrap_err();
        assert!(err.contains("ECP6") && err.contains("capped"), "{err}");
    }

    fn ctl<'a>(
        dir: &Path,
        every: usize,
        interrupted: &'a AtomicBool,
        resume: Option<Checkpoint>,
    ) -> CheckpointCtl<'a> {
        CheckpointCtl {
            path: dir.join("t.ckpt.json"),
            every,
            interrupted,
            resume,
            fingerprint: Vec::new(),
            target_rse: None,
        }
    }

    fn run_bits(run: &MemoryRun) -> (Vec<u64>, Vec<u64>, Vec<usize>, usize) {
        (
            run.page_lifetimes.iter().map(|v| v.to_bits()).collect(),
            run.unprotected_lifetimes
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            run.faults_recovered.clone(),
            run.capped_pages,
        )
    }

    /// `specs` run chunked with snapshots, from `resume` if given.
    fn chunked(
        specs: &[UnitSpec],
        pages: usize,
        every: usize,
        resume: Option<Checkpoint>,
        dir: &Path,
    ) -> io::Result<Vec<UnitProgress>> {
        let interrupted = AtomicBool::new(false);
        let ctl = ctl(dir, every, &interrupted, resume);
        let units: Vec<Unit<'_>> = specs.iter().map(UnitSpec::unit).collect();
        let done = campaign::execute(&units, 0..pages, &RunObserver::default(), Some(&ctl))?
            .expect("not interrupted");
        assert!(!ctl.path.exists(), "snapshot must be removed on success");
        Ok(done)
    }

    fn straight(specs: &[UnitSpec], pages: usize) -> Vec<UnitProgress> {
        let units: Vec<Unit<'_>> = specs.iter().map(UnitSpec::unit).collect();
        campaign::run(&units, 0..pages, &RunObserver::default())
    }

    /// Every unit's run is bit-identical chunked (with snapshots) and
    /// straight.
    fn assert_chunked_matches_straight(specs: &[UnitSpec], pages: usize, tag: &str) {
        let dir = std::env::temp_dir().join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let chunked = chunked(specs, pages, 2, None, &dir).expect("run");
        for (c, s) in chunked.iter().zip(&straight(specs, pages)) {
            assert_eq!(c.scheme, s.scheme);
            assert_eq!(run_bits(&c.run), run_bits(&s.run), "{}", c.scheme);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_run_matches_single_shot() {
        let opts = RunOptions {
            pages: 5,
            seed: 11,
            ..RunOptions::default()
        };
        let specs = campaign::fig567_unit_specs(&opts);
        assert_chunked_matches_straight(&specs, opts.pages, "aegis-ckpt-chunk-test");
    }

    #[test]
    fn chunked_fig8_run_matches_single_shot() {
        let opts = RunOptions {
            pages: 3,
            seed: 13,
            ..RunOptions::default()
        };
        let specs = fig8_unit_specs(&opts);
        assert_chunked_matches_straight(&specs, opts.pages, "aegis-ckpt-fig8-chunk-test");
    }

    /// The first `pages` pages of a unit's straight run.
    fn prefix(unit: &UnitProgress, pages: usize) -> UnitProgress {
        let run = &unit.run;
        UnitProgress {
            pages_done: pages,
            run: MemoryRun {
                page_lifetimes: run.page_lifetimes[..pages].to_vec(),
                unprotected_lifetimes: run.unprotected_lifetimes[..pages].to_vec(),
                faults_recovered: run.faults_recovered[..pages].to_vec(),
                capped_pages: 0,
            },
            ..unit.clone()
        }
    }

    /// A unit-major snapshot (unit 0 complete, unit 1 one chunk in, the
    /// rest empty) resumes to the straight run bit for bit: the lowest
    /// cursors advance first until the width shares one cursor.
    #[test]
    fn ragged_cursor_snapshot_resumes_to_the_straight_run() {
        let opts = RunOptions {
            pages: 5,
            seed: 19,
            ..RunOptions::default()
        };
        let dir = std::env::temp_dir().join("aegis-ckpt-ragged-test");
        let _ = std::fs::remove_dir_all(&dir);
        let specs = campaign::fig567_unit_specs(&opts);
        let reference = straight(&specs, opts.pages);
        assert!(reference.iter().all(|unit| unit.run.capped_pages == 0));
        let units: Vec<UnitProgress> = reference
            .iter()
            .enumerate()
            .map(|(i, unit)| match i {
                0 => unit.clone(),
                1 => prefix(unit, 2),
                _ => prefix(unit, 0),
            })
            .collect();
        let resume = Checkpoint {
            every: 2,
            units,
            ..Checkpoint::default()
        };
        let resumed = chunked(&specs, opts.pages, 2, Some(resume), &dir).expect("resume");
        assert_eq!(resumed.len(), reference.len());
        for (r, s) in resumed.iter().zip(&reference) {
            assert_eq!((&r.scheme, r.block_bits), (&s.scheme, s.block_bits));
            assert_eq!(r.pages_done, opts.pages, "{}", r.scheme);
            assert_eq!(run_bits(&r.run), run_bits(&s.run), "{}", r.scheme);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_unit_beyond_the_run() {
        let opts = RunOptions {
            pages: 2,
            seed: 23,
            ..RunOptions::default()
        };
        let dir = std::env::temp_dir().join("aegis-ckpt-overrun-test");
        let _ = std::fs::remove_dir_all(&dir);
        let specs = fig8_unit_specs(&opts);
        let mut units = straight(&specs, opts.pages);
        // Unit 1 claims a third page the run does not have.
        let extra = &mut units[1];
        extra.pages_done += 1;
        extra.run.page_lifetimes.push(1.0);
        extra.run.unprotected_lifetimes.push(1.0);
        extra.run.faults_recovered.push(0);
        let resume = Checkpoint {
            every: 1,
            units,
            ..Checkpoint::default()
        };
        let err = chunked(&specs, opts.pages, 1, Some(resume), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&specs[1].label), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
