//! The global error-correction (GEC) pool of the chronological PAYG
//! reference.

use pcm_sim::Fault;

/// A pool of tagged repair entries shared by every block of a chip.
///
/// Each entry behaves like one ECP correction entry hoisted out of the
/// block: once granted, it permanently replaces one failed cell, erasing
/// that fault from its block's effective population for every later write.
#[derive(Debug, Clone, Default)]
pub struct GlobalPool {
    capacity: usize,
    /// Granted entries: `(block id, repaired fault)`.
    grants: Vec<(u64, Fault)>,
}

impl GlobalPool {
    /// Creates a pool of `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            grants: Vec::new(),
        }
    }

    /// Entries still available.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.capacity - self.grants.len()
    }

    /// Entries already granted.
    #[must_use]
    pub fn used(&self) -> usize {
        self.grants.len()
    }

    /// Grants an entry repairing `fault` in `block`; returns `false` (and
    /// changes nothing) when the pool is exhausted.
    pub fn grant(&mut self, block: u64, fault: Fault) -> bool {
        if self.grants.len() == self.capacity {
            return false;
        }
        debug_assert!(
            !self.is_repaired(block, fault.offset),
            "cell repaired twice"
        );
        self.grants.push((block, fault));
        true
    }

    /// Whether the cell at `offset` of `block` has a repair entry.
    #[must_use]
    pub fn is_repaired(&self, block: u64, offset: usize) -> bool {
        self.grants
            .iter()
            .any(|&(b, f)| b == block && f.offset == offset)
    }

    /// Number of entries granted to one block.
    #[must_use]
    pub fn granted_to(&self, block: u64) -> usize {
        self.grants.iter().filter(|&&(b, _)| b == block).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_until_capacity() {
        let mut pool = GlobalPool::new(3);
        for i in 0..3u64 {
            assert!(pool.grant(i, Fault::new(i as usize, true)));
        }
        assert!(!pool.grant(9, Fault::new(0, false)));
        assert_eq!(pool.used(), 3);
        assert_eq!(pool.remaining(), 0);
    }

    #[test]
    fn repairs_are_per_block() {
        let mut pool = GlobalPool::new(2);
        pool.grant(1, Fault::new(5, true));
        assert!(pool.is_repaired(1, 5));
        assert!(!pool.is_repaired(2, 5));
        assert_eq!(pool.granted_to(1), 1);
        assert_eq!(pool.granted_to(2), 0);
    }

    #[test]
    fn grants_are_tagged_and_refused_once_exhausted() {
        let mut pool = GlobalPool::new(2);
        assert!(pool.grant(7, Fault::new(3, true)));
        assert!(pool.grant(9, Fault::new(0, false)));
        assert!(!pool.grant(9, Fault::new(1, false))); // exhausted
        assert_eq!(pool.remaining(), 0);
        assert!(pool.is_repaired(7, 3));
    }

    #[test]
    fn zero_capacity_pool_grants_nothing() {
        let mut pool = GlobalPool::new(0);
        assert!(!pool.grant(0, Fault::new(0, true)));
    }
}
