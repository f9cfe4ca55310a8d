//! Extension experiment: how large must the fail cache be?
//!
//! The paper leaves "the study of the two variants' merits" (i.e. the
//! fail-cache economics behind Aegis-rw) as future work (§5). This
//! experiment drives the *functional* Aegis-rw codec — real cells, real
//! verification reads — with fault knowledge served by direct-mapped
//! caches of varying capacity, and measures what misses cost: extra
//! verification reads and extra inversion rewrites per write, the two
//! quantities the paper says make cache-less operation expensive.

use crate::csvout::{self, fmt_f64};
use aegis_core::{AegisRwCodec, Rectangle};
use bitblock::BitBlock;
use pcm_sim::failcache::{DirectMappedFailCache, FaultOracle, IdealFailCache};
use pcm_sim::{LifetimeModel, PcmBlock};
use sim_rng::SeedableRng;
use sim_rng::SmallRng;
use std::io;
use std::path::Path;

/// Aggregate cost of serving writes under one cache configuration.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// Cache label (capacity or "ideal").
    pub name: String,
    /// Cache capacity in entries (`usize::MAX` for ideal).
    pub capacity: usize,
    /// Writes served across all blocks until they wore out.
    pub writes: u64,
    /// Mean verification reads per write (1.0 = no retries).
    pub verify_reads_per_write: f64,
    /// Mean extra (inversion/retry) rewrites per write.
    pub extra_writes_per_write: f64,
    /// Cache hit rate over fault probes (1.0 for ideal).
    pub hit_rate: f64,
}

/// Drives `blocks` independent 512-bit Aegis-rw blocks to exhaustion, each
/// behind a fresh oracle from `make_oracle`, into the row `name`. The hit
/// rate sums the `(hits, misses)` that `probes` reads off each block's
/// oracle; an oracle that counts no probes (the ideal cache) never misses.
fn drive<O: FaultOracle>(
    name: String,
    capacity: usize,
    blocks: usize,
    seed: u64,
    make_oracle: impl Fn() -> O,
    probes: fn(&O) -> (u64, u64),
) -> CacheRow {
    let rect = Rectangle::new(17, 31, 512).expect("valid formation");
    let lifetimes = LifetimeModel::new(1_500.0, 0.25); // fast wear-out
    let (mut writes, mut verifies, mut extras) = (0u64, 0u64, 0u64);
    let (mut hits, mut misses) = (0u64, 0u64);
    for b in 0..blocks {
        let mut rng = SmallRng::seed_from_u64(seed ^ (b as u64) << 17);
        let mut block = PcmBlock::with_lifetimes(512, |_| lifetimes.sample(&mut rng) as u64);
        let mut codec = AegisRwCodec::new(rect.clone());
        let mut oracle = make_oracle();
        loop {
            let data = BitBlock::random(&mut rng, 512);
            let known = oracle.known_faults(b as u64, &block);
            match codec.write_with_known(&mut block, &data, &known) {
                Ok(report) => {
                    writes += 1;
                    verifies += report.verify_reads as u64;
                    extras += report.inversion_writes as u64;
                    // Record whatever the verification reads surfaced.
                    for fault in block.faults() {
                        oracle.record(b as u64, fault);
                    }
                }
                Err(_) => break,
            }
        }
        let (block_hits, block_misses) = probes(&oracle);
        hits += block_hits;
        misses += block_misses;
    }
    CacheRow {
        name,
        capacity,
        writes,
        verify_reads_per_write: verifies as f64 / writes as f64,
        extra_writes_per_write: extras as f64 / writes as f64,
        hit_rate: if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    }
}

/// Runs the sweep: direct-mapped capacities vs the ideal cache.
#[must_use]
pub fn run(blocks: usize, seed: u64) -> Vec<CacheRow> {
    let mut rows: Vec<CacheRow> = [4usize, 16, 64, 256]
        .into_iter()
        .map(|capacity| {
            drive(
                format!("direct-mapped {capacity}"),
                capacity,
                blocks,
                seed,
                || DirectMappedFailCache::new(capacity),
                |cache| (cache.hits(), cache.misses()),
            )
        })
        .collect();
    rows.push(drive(
        "ideal".to_owned(),
        usize::MAX,
        blocks,
        seed,
        IdealFailCache::new,
        |_| (0, 0),
    ));
    rows
}

/// Renders the sweep.
#[must_use]
pub fn report(rows: &[CacheRow]) -> String {
    let mut out = String::from(
        "Fail-cache capacity study (extension): functional Aegis-rw 17x31, \
         512-bit blocks driven to exhaustion\n\n",
    );
    out.push_str(&format!(
        "{:<20} {:>10} {:>16} {:>16} {:>10}\n",
        "cache", "writes", "verifies/write", "extra wr/write", "hit rate"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>10} {:>16} {:>16} {:>9.1}%\n",
            r.name,
            r.writes,
            fmt_f64(r.verify_reads_per_write),
            fmt_f64(r.extra_writes_per_write),
            r.hit_rate * 100.0,
        ));
    }
    out
}

/// Writes `cachestudy.csv`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(rows: &[CacheRow], out_dir: &Path) -> io::Result<()> {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                if r.capacity == usize::MAX {
                    "inf".to_owned()
                } else {
                    r.capacity.to_string()
                },
                r.writes.to_string(),
                format!("{:.4}", r.verify_reads_per_write),
                format!("{:.4}", r.extra_writes_per_write),
                format!("{:.4}", r.hit_rate),
            ]
        })
        .collect();
    csvout::write_csv(
        out_dir.join("cachestudy.csv"),
        &[
            "cache",
            "capacity",
            "writes",
            "verify_reads_per_write",
            "extra_writes_per_write",
            "hit_rate",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_caches_cost_less_per_write() {
        let rows = run(4, 3);
        assert_eq!(rows.len(), 5);
        let ideal = rows.last().unwrap();
        let tiny = &rows[0];
        assert!(
            tiny.verify_reads_per_write >= ideal.verify_reads_per_write,
            "misses must cost verification reads ({} vs {})",
            tiny.verify_reads_per_write,
            ideal.verify_reads_per_write
        );
        // An ideal cache needs one verify per write, plus the rare retry
        // when a cell dies during the write itself.
        assert!(ideal.verify_reads_per_write < 1.05);
        assert_eq!(ideal.hit_rate, 1.0);
        // Hit rate grows with capacity.
        assert!(rows[3].hit_rate >= rows[0].hit_rate);
    }
}
