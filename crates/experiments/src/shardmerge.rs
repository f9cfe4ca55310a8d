//! Seed-disjoint sharding and byte-deterministic merging of fig5/6/7 and
//! fig8 Monte Carlo campaigns.
//!
//! A shard runs the contiguous stripe of global page indices
//! `[i·P/K, (i+1)·P/K)` with the campaign's master seed, as the page range
//! of [`crate::campaign::execute`]. Every page is
//! its own [`sim_rng::substream_seed`] substream of that seed, so the
//! shards consume pairwise-disjoint RNG streams and the union of their
//! per-page results is exactly what one unsharded process would compute.
//! Each shard writes its telemetry stream/manifest plus a
//! `<run-id>.shard.json` sidecar carrying the raw per-page results (as
//! exact `f64` bit patterns, in the checkpoint format).
//!
//! `merge` cross-checks the shard manifests (identical configuration and
//! git revision, shard ids forming exactly `0..K`), sums the shard
//! telemetry streams, re-runs the codec probe once, and emits the merged
//! stream/manifest/CSVs under the campaign's run id. Shards are sorted by
//! shard id before merging, so the output is independent of argument
//! order; after stripping volatile lines the merged stream is
//! byte-identical to the unsharded run's — pinned in the CLI test suite
//! and the verify.sh/CI smoke.

use crate::campaign::UnitSpec;
use crate::checkpoint::Checkpoint;
use pcm_sim::montecarlo::MemoryRun;
use sim_telemetry::{Event, Registry, RunManifest};
use std::io;
use std::path::Path;

/// The stripe of global page indices shard `shard_id` of `shards` covers.
#[must_use]
pub fn shard_range(pages: usize, shards: usize, shard_id: usize) -> (usize, usize) {
    (pages * shard_id / shards, pages * (shard_id + 1) / shards)
}

/// The default run id of shard `shard_id` of `shards` (`--run-id`
/// overrides it; merge only consumes explicit id lists, so the name is a
/// convention, not a contract).
#[must_use]
pub fn shard_run_id(command: &str, seed: u64, shards: usize, shard_id: usize) -> String {
    format!("{command}-s{seed}-shard{shard_id}of{shards}")
}

/// Everything merge reads back for one shard.
pub struct ShardInput {
    /// The shard's run id (stream/manifest/sidecar file stem).
    pub run_id: String,
    /// The shard's reproducibility manifest.
    pub manifest: RunManifest,
    /// The shard's parsed telemetry event stream.
    pub events: Vec<Event>,
    /// The shard's raw per-unit results.
    pub sidecar: Checkpoint,
}

/// Reads a shard's manifest, stream, and result sidecar from
/// `telemetry_dir`.
///
/// # Errors
///
/// I/O errors pass through; malformed documents surface as
/// [`io::ErrorKind::InvalidData`].
pub fn read_shard(telemetry_dir: &Path, run_id: &str) -> io::Result<ShardInput> {
    let invalid = |path: &Path, msg: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {msg}", path.display()),
        )
    };
    let manifest_path = telemetry_dir.join(format!("{run_id}.manifest.json"));
    let manifest = RunManifest::parse(&std::fs::read_to_string(&manifest_path)?)
        .map_err(|e| invalid(&manifest_path, e.to_string()))?;
    let stream_path = telemetry_dir.join(format!("{run_id}.jsonl"));
    let events = Event::parse_stream(&std::fs::read_to_string(&stream_path)?)
        .map_err(|e| invalid(&stream_path, e.to_string()))?;
    let sidecar = Checkpoint::load(&telemetry_dir.join(format!("{run_id}.shard.json")))?;
    Ok(ShardInput {
        run_id: run_id.to_owned(),
        manifest,
        events,
        sidecar,
    })
}

/// Manifest keys that must agree across every shard of one campaign.
const SHARED_OPTION_KEYS: &[&str] = &[
    "command",
    "seed",
    "pages",
    "trials",
    "page_bytes",
    "criterion",
    "predicate_mode",
    "shards",
];

/// Cross-checks the shard set and sorts it by shard id.
///
/// Refuses (with a message naming the offending shard and field) when the
/// shards disagree on configuration or git revision, when a shard id is
/// missing, duplicated, or out of range, or when a recorded page stripe
/// is not the one `shard_range` derives.
///
/// # Errors
///
/// Returns the refusal message; callers surface it as a usage error.
pub fn validate_shards(inputs: &mut [ShardInput]) -> Result<(), String> {
    let first = inputs.first().ok_or("merge expects at least one shard")?;
    let reference: Vec<(String, String)> = SHARED_OPTION_KEYS
        .iter()
        .map(|&key| {
            let value =
                first.manifest.options.get(key).ok_or_else(|| {
                    format!("shard '{}' manifest lacks option '{key}'", first.run_id)
                })?;
            Ok::<_, String>((key.to_owned(), value.clone()))
        })
        .collect::<Result<_, _>>()?;
    let git = first.manifest.git.clone();
    for input in inputs.iter() {
        for (key, expected) in &reference {
            let value =
                input.manifest.options.get(key).ok_or_else(|| {
                    format!("shard '{}' manifest lacks option '{key}'", input.run_id)
                })?;
            if value != expected {
                return Err(format!(
                    "shard '{}' was run with {key}={value} but shard '{}' used {key}={expected}; \
                     refusing to merge mismatched configurations",
                    input.run_id, first.run_id
                ));
            }
        }
        if input.manifest.git != git {
            return Err(format!(
                "shard '{}' was built at git revision '{}' but shard '{}' at '{git}'; \
                 refusing to merge mismatched revisions",
                input.run_id, input.manifest.git, first.run_id
            ));
        }
    }

    let shards: usize = reference
        .iter()
        .find(|(k, _)| k == "shards")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or("shard manifests carry a non-numeric 'shards' option")?;
    let pages: usize = reference
        .iter()
        .find(|(k, _)| k == "pages")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or("shard manifests carry a non-numeric 'pages' option")?;
    if inputs.len() != shards {
        return Err(format!(
            "campaign was sharded {shards} ways but merge received {} shard(s)",
            inputs.len()
        ));
    }
    let shard_id = |input: &ShardInput| -> Result<usize, String> {
        input
            .manifest
            .options
            .get("shard_id")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                format!(
                    "shard '{}' manifest lacks a numeric 'shard_id'",
                    input.run_id
                )
            })
    };
    // Sorting by shard id is what makes the merge independent of the
    // argument order on the command line.
    let mut ids = inputs.iter().map(shard_id).collect::<Result<Vec<_>, _>>()?;
    inputs.sort_by_key(|input| {
        input
            .manifest
            .options
            .get("shard_id")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(usize::MAX)
    });
    ids.sort_unstable();
    for (expected, &got) in ids.iter().enumerate() {
        if got != expected {
            return Err(format!(
                "shard ids must form exactly 0..{shards}, got {ids:?} \
                 (missing or duplicated shard)"
            ));
        }
    }
    for input in inputs.iter() {
        let id = shard_id(input)?;
        let (lo, hi) = shard_range(pages, shards, id);
        let recorded = (
            input
                .manifest
                .options
                .get("page_lo")
                .and_then(|v| v.parse().ok()),
            input
                .manifest
                .options
                .get("page_hi")
                .and_then(|v| v.parse().ok()),
        );
        if recorded != (Some(lo), Some(hi)) {
            return Err(format!(
                "shard '{}' covers pages {:?}..{:?} but shard {id} of {shards} over {pages} \
                 pages must cover {lo}..{hi}",
                input.run_id, recorded.0, recorded.1
            ));
        }
    }
    Ok(())
}

/// Concatenates the sorted shards' per-unit results into full-campaign
/// runs, in `specs` order, after checking every shard's unit list against
/// the rebuilt specs.
///
/// # Errors
///
/// Returns a message naming the first shard whose unit list disagrees.
pub fn merge_units(inputs: &[ShardInput], specs: &[UnitSpec]) -> Result<Vec<MemoryRun>, String> {
    let mut merged = vec![MemoryRun::default(); specs.len()];
    for input in inputs {
        let units = &input.sidecar.units;
        if units.len() != specs.len() {
            return Err(format!(
                "shard '{}' records {} units but this build expects {}",
                input.run_id,
                units.len(),
                specs.len()
            ));
        }
        for ((acc, unit), spec) in merged.iter_mut().zip(units).zip(specs) {
            if unit.scheme != spec.label || unit.block_bits != spec.cfg.block_bits {
                return Err(format!(
                    "shard '{}' unit '{}' ({} bits) does not match the rebuilt unit '{}' ({} bits)",
                    input.run_id, unit.scheme, unit.block_bits, spec.label, spec.cfg.block_bits
                ));
            }
            acc.page_lifetimes
                .extend_from_slice(&unit.run.page_lifetimes);
            acc.unprotected_lifetimes
                .extend_from_slice(&unit.run.unprotected_lifetimes);
            acc.faults_recovered
                .extend_from_slice(&unit.run.faults_recovered);
            acc.capped_pages += unit.run.capped_pages;
        }
    }
    Ok(merged)
}

/// Replays every metric event of the sorted shard streams into
/// `registry`, summing counters, histograms and volatile counters — the
/// stream half of the merge (order-independent: final values are sums).
pub fn absorb_shard_streams(inputs: &[ShardInput], registry: &Registry) {
    for input in inputs {
        for event in &input.events {
            match event {
                Event::Counter { name, value } => registry.counter(name).add(*value),
                Event::Volatile { name, value } => registry.volatile_counter(name).add(*value),
                Event::Histogram {
                    name,
                    count,
                    sum,
                    buckets,
                } => {
                    let mut dense = vec![0u64; sim_telemetry::HISTOGRAM_BUCKETS];
                    for &(index, add) in buckets {
                        if let Some(cell) = dense.get_mut(index) {
                            *cell = add;
                        }
                    }
                    registry.add_histogram_snapshot(
                        name,
                        &sim_telemetry::HistogramSnapshot {
                            count: *count,
                            sum: *sum,
                            buckets: dense,
                        },
                    );
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign;
    use crate::runner::{RunObserver, RunOptions};

    #[test]
    fn shard_ranges_partition_the_page_space() {
        for (pages, shards) in [(8, 2), (7, 3), (2048, 5), (3, 4)] {
            let mut covered = 0usize;
            for id in 0..shards {
                let (lo, hi) = shard_range(pages, shards, id);
                assert_eq!(lo, covered, "pages={pages} shards={shards} id={id}");
                assert!(hi >= lo);
                covered = hi;
            }
            assert_eq!(covered, pages);
        }
    }

    #[test]
    fn sharded_units_concatenate_to_the_full_run() {
        let opts = RunOptions {
            pages: 5,
            seed: 9,
            ..RunOptions::default()
        };
        let specs = campaign::fig567_unit_specs(&opts, false);
        let units: Vec<_> = specs.iter().map(UnitSpec::unit).collect();
        let observer = RunObserver::default();
        let full = campaign::run(&units, 0..opts.pages, &observer);
        let mut glued = campaign::run(&units, 0..2, &observer);
        let right = campaign::run(&units, 2..opts.pages, &observer);
        for (acc, part) in glued.iter_mut().zip(&right) {
            acc.pages_done += part.pages_done;
            acc.run
                .page_lifetimes
                .extend_from_slice(&part.run.page_lifetimes);
            acc.run
                .unprotected_lifetimes
                .extend_from_slice(&part.run.unprotected_lifetimes);
            acc.run
                .faults_recovered
                .extend_from_slice(&part.run.faults_recovered);
            acc.run.capped_pages += part.run.capped_pages;
        }
        assert_eq!(full.len(), glued.len());
        for (f, g) in full.iter().zip(&glued) {
            assert_eq!(f, g);
        }
    }
}
