//! Dynamic Pairing: recycling retired pages in compatible pairs.
//!
//! A page retires when one of its blocks becomes uncorrectable, but its
//! *other* blocks are still fine. Dynamic Pairing (Ipek et al.) mates two
//! retired pages whose failed block offsets do not overlap: reads and
//! writes route, per block, to whichever partner still has a live block.
//! The pair survives until some block offset is dead in *both* partners.
//!
//! The Aegis paper notes the technique's limitation (incompatible with
//! wear leveling) but also that strong in-block recovery delays the whole
//! cascade; this module measures the capacity a pairing pool recovers on
//! top of any in-block scheme.

/// One page's (or pair's) remaining usable life, per block offset.
#[derive(Debug, Clone)]
struct Member {
    /// Death time of each block slot.
    deaths: Vec<f64>,
}

impl Member {
    fn first_death_after(&self, now: f64) -> f64 {
        self.deaths
            .iter()
            .cloned()
            .filter(|&d| d > now)
            .fold(f64::INFINITY, f64::min)
    }

    /// Merge two members: each slot lives as long as its longer-lived
    /// copy.
    fn pair_with(&self, other: &Self) -> Self {
        Member {
            deaths: self
                .deaths
                .iter()
                .zip(&other.deaths)
                .map(|(&a, &b)| a.max(b))
                .collect(),
        }
    }

    /// Whether pairing is useful at time `now`: every slot has at least
    /// one live copy.
    fn compatible_at(&self, other: &Self, now: f64) -> bool {
        self.deaths
            .iter()
            .zip(&other.deaths)
            .all(|(&a, &b)| a.max(b) > now)
    }
}

/// A point of the capacity-over-time curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPoint {
    /// Time in page writes.
    pub time: f64,
    /// Fully healthy (never-retired) pages.
    pub healthy: usize,
    /// Usable pages reconstituted from pairs of retired pages.
    pub paired: usize,
}

/// Result of a pairing simulation.
#[derive(Debug, Clone)]
pub struct PairingRun {
    /// Capacity curve sampled at every page-retirement event.
    pub curve: Vec<CapacityPoint>,
    /// Total pairs ever formed.
    pub pairs_formed: usize,
    /// Time at which usable capacity (healthy + paired) first drops below
    /// half of the original page count.
    pub half_capacity_time: f64,
}

/// Simulates the retire-then-pair lifecycle of a chip from its block-death
/// `matrix` ([`block_death_matrices`](crate::block_death_matrices)).
///
/// Greedy first-fit pairing: when a page retires, it tries to pair with
/// any pool page compatible *now*; pairs that later fail are dissolved
/// back into the pool (their pages are usually too worn to re-pair, but
/// first-fit gets a chance).
#[must_use]
pub fn run_pairing(matrix: &[Vec<f64>]) -> PairingRun {
    let members: Vec<Member> = matrix
        .iter()
        .cloned()
        .map(|deaths| Member { deaths })
        .collect();

    // Event queue: every page's first death; then, dynamically, pair
    // deaths. Processed in time order.
    let mut events: Vec<(f64, usize)> = members
        .iter()
        .enumerate()
        .map(|(i, m)| (m.first_death_after(0.0), i))
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut healthy = members.len();
    // Live pairs: (death time, partner page indices).
    let mut paired_units: Vec<(f64, (usize, usize))> = Vec::new();
    let mut pool: Vec<usize> = Vec::new(); // retired, unpaired pages
    let mut curve = vec![CapacityPoint {
        time: 0.0,
        healthy,
        paired: 0,
    }];
    let mut pairs_formed = 0usize;
    let mut half_capacity_time = f64::INFINITY;
    let total = members.len();

    // Merge page-retirement events and pair-death events chronologically.
    let mut i = 0usize;
    loop {
        let next_single = events.get(i).map(|&(t, _)| t).unwrap_or(f64::INFINITY);
        let (next_pair_time, pair_idx) = paired_units
            .iter()
            .enumerate()
            .map(|(k, &(t, _))| (t, k))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap_or((f64::INFINITY, usize::MAX));
        if next_single.is_infinite() && next_pair_time.is_infinite() {
            break;
        }
        let now;
        if next_single <= next_pair_time {
            // A healthy page retires; try to pair it from the pool.
            let (t, page) = events[i];
            i += 1;
            now = t;
            healthy -= 1;
            let candidate = pool
                .iter()
                .position(|&other| members[page].compatible_at(&members[other], now));
            match candidate {
                Some(pos) => {
                    let other = pool.swap_remove(pos);
                    let merged = members[page].pair_with(&members[other]);
                    let death = merged.first_death_after(now);
                    paired_units.push((death, (page, other)));
                    pairs_formed += 1;
                }
                None => pool.push(page),
            }
        } else {
            // A pair dies; dissolve it back to the pool.
            let (t, (a, b)) = paired_units.swap_remove(pair_idx);
            now = t;
            pool.push(a);
            pool.push(b);
        }
        let point = CapacityPoint {
            time: now,
            healthy,
            paired: paired_units.len(),
        };
        if (point.healthy + point.paired) * 2 < total && half_capacity_time.is_infinite() {
            half_capacity_time = now;
        }
        curve.push(point);
    }

    PairingRun {
        curve,
        pairs_formed,
        half_capacity_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_death_matrix;
    use aegis_baselines::EcpPolicy;
    use pcm_sim::montecarlo::{half_lifetime, run_memory, SimConfig};

    fn cfg(pages: usize) -> SimConfig {
        SimConfig::scaled(pages, 512, 17)
    }

    #[test]
    fn capacity_curve_starts_full_and_ends_empty() {
        let policy = EcpPolicy::new(4, 512);
        let run = run_pairing(&block_death_matrix(&policy, &cfg(16)));
        let first = run.curve.first().unwrap();
        assert_eq!(first.healthy, 16);
        assert_eq!(first.paired, 0);
        let last = run.curve.last().unwrap();
        assert_eq!(last.healthy + last.paired, 0, "{last:?}");
        // Time is non-decreasing.
        assert!(run.curve.windows(2).all(|w| w[1].time >= w[0].time));
    }

    #[test]
    fn pairing_extends_half_capacity_beyond_plain_retirement() {
        let policy = EcpPolicy::new(4, 512);
        let configuration = cfg(32);
        let run = run_pairing(&block_death_matrix(&policy, &configuration));
        // Plain retirement halves capacity at the ordinary half lifetime.
        let plain = run_memory(&policy, &configuration);
        let plain_half = {
            let mut sorted = plain.page_lifetimes.clone();
            sorted.sort_by(f64::total_cmp);
            sorted[sorted.len() / 2 - 1] // time the 16th page retires
        };
        assert!(
            run.half_capacity_time >= plain_half,
            "pairing must not lose capacity earlier ({} vs {plain_half})",
            run.half_capacity_time
        );
        assert!(run.pairs_formed > 0, "no pairs formed at 32 pages");
        let _ = half_lifetime(&plain.page_lifetimes); // API smoke
    }

    #[test]
    fn pairs_require_disjoint_failures() {
        // Two members with the same dead slot cannot pair at that time.
        let a = Member {
            deaths: vec![10.0, 100.0],
        };
        let b = Member {
            deaths: vec![20.0, 100.0],
        };
        assert!(a.compatible_at(&b, 15.0)); // slot 0: b still alive
        assert!(!a.compatible_at(&b, 25.0)); // slot 0 dead in both
        let merged = a.pair_with(&b);
        assert_eq!(merged.deaths, vec![20.0, 100.0]);
    }
}
