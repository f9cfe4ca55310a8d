//! ECP: Error-Correcting Pointers (Schechter et al., ISCA 2010) — the
//! pointer-based comparator of the paper.
//!
//! ECP-N attaches `N` correction entries to each block; an entry is the
//! address of a failed cell plus a replacement bit that stores data on its
//! behalf. Hard FTC equals soft FTC equals `N`: the `N+1`-th fault is fatal
//! no matter where it lands or what is written.

use bitblock::BitBlock;
use pcm_sim::codec::{StuckAtCodec, WriteReport};
use pcm_sim::policy::RecoveryPolicy;
use pcm_sim::{Fault, PcmBlock, UncorrectableError};

/// The ECP-N codec.
///
/// Entries are allocated lazily, when a verification read first catches a
/// cell storing the wrong value (a fault whose stuck value happens to match
/// every write so far needs no entry yet). Replacement cells are modeled as
/// ideal storage; the original paper's entry-precedence mechanism for
/// failed replacement cells is out of scope (documented in DESIGN.md).
///
/// # Examples
///
/// ```
/// use aegis_baselines::EcpCodec;
/// use bitblock::BitBlock;
/// use pcm_sim::codec::StuckAtCodec;
/// use pcm_sim::PcmBlock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut codec = EcpCodec::new(6, 512);
/// let mut block = PcmBlock::pristine(512);
/// block.force_stuck(17, true);
/// let data = BitBlock::zeros(512);
/// codec.write(&mut block, &data)?;
/// assert_eq!(codec.read(&block), data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EcpCodec {
    capacity: usize,
    block_bits: usize,
    /// Allocated entries: pointer (cell offset) + replacement bit.
    entries: Vec<(usize, bool)>,
}

impl EcpCodec {
    /// Creates an ECP codec with `capacity` correction entries for
    /// `block_bits`-bit blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `block_bits` is zero.
    #[must_use]
    pub fn new(capacity: usize, block_bits: usize) -> Self {
        assert!(capacity > 0, "ECP needs at least one entry");
        assert!(block_bits > 0, "block must have at least one bit");
        Self {
            capacity,
            block_bits,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Correction entries currently allocated.
    #[must_use]
    pub fn entries_used(&self) -> usize {
        self.entries.len()
    }

    /// Total correction entries provisioned.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl StuckAtCodec for EcpCodec {
    /// # Errors
    ///
    /// [`UncorrectableError`] when a write reveals more failed cells than
    /// there are correction entries.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    fn write(
        &mut self,
        block: &mut PcmBlock,
        data: &BitBlock,
    ) -> Result<WriteReport, UncorrectableError> {
        assert_eq!(data.len(), self.block_bits, "data width mismatch");
        assert_eq!(block.len(), self.block_bits, "block width mismatch");
        let mut report = WriteReport::default();
        report.cell_pulses += block.write_raw(data);
        report.verify_reads += 1;
        for offset in block.verify(data) {
            if !self.entries.iter().any(|&(o, _)| o == offset) {
                if self.entries.len() == self.capacity {
                    return Err(UncorrectableError::new(
                        self.name(),
                        block.fault_count(),
                        "all correction entries are in use",
                    ));
                }
                self.entries.push((offset, false));
            }
        }
        // Refresh every replacement bit with this write's data (replacement
        // cells are rewritten on each block write).
        for (offset, replacement) in &mut self.entries {
            *replacement = data.get(*offset);
        }
        Ok(report)
    }

    fn read(&self, block: &PcmBlock) -> BitBlock {
        let mut data = block.read_raw();
        for &(offset, replacement) in &self.entries {
            data.set(offset, replacement);
        }
        data
    }

    fn overhead_bits(&self) -> usize {
        crate::cost::ecp_overhead(self.capacity, self.block_bits)
    }

    fn block_bits(&self) -> usize {
        self.block_bits
    }

    fn name(&self) -> String {
        format!("ECP{}", self.capacity)
    }
}

/// Monte Carlo predicate for ECP-N: a block survives exactly while its
/// fault count is at most `N` (data-independent).
#[derive(Debug, Clone, Copy)]
pub struct EcpPolicy {
    capacity: usize,
    block_bits: usize,
}

impl EcpPolicy {
    /// Creates the policy for ECP-`capacity` on `block_bits`-bit blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, block_bits: usize) -> Self {
        assert!(capacity > 0, "ECP needs at least one entry");
        Self {
            capacity,
            block_bits,
        }
    }
}

impl RecoveryPolicy for EcpPolicy {
    fn name(&self) -> String {
        format!("ECP{}", self.capacity)
    }

    fn overhead_bits(&self) -> usize {
        crate::cost::ecp_overhead(self.capacity, self.block_bits)
    }

    fn block_bits(&self) -> usize {
        self.block_bits
    }

    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        faults.len() <= self.capacity
    }

    fn guaranteed(&self, faults: &[Fault]) -> bool {
        faults.len() <= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rng::SeedableRng;
    use sim_rng::SmallRng;

    #[test]
    fn corrects_up_to_capacity() {
        let mut codec = EcpCodec::new(3, 64);
        let mut block = PcmBlock::pristine(64);
        for (i, offset) in [3usize, 17, 42].into_iter().enumerate() {
            block.force_stuck(offset, true);
            let data = BitBlock::zeros(64);
            codec.write(&mut block, &data).unwrap();
            assert_eq!(codec.read(&block), data);
            assert_eq!(codec.entries_used(), i + 1);
        }
    }

    #[test]
    fn fails_on_capacity_plus_one() {
        let mut codec = EcpCodec::new(2, 64);
        let mut block = PcmBlock::pristine(64);
        for offset in [1usize, 2, 3] {
            block.force_stuck(offset, true);
        }
        let data = BitBlock::zeros(64);
        assert!(codec.write(&mut block, &data).is_err());
    }

    #[test]
    fn r_faults_do_not_consume_entries() {
        let mut codec = EcpCodec::new(2, 64);
        let mut block = PcmBlock::pristine(64);
        block.force_stuck(9, true);
        let data = BitBlock::from_indices(64, [9usize]); // stuck-at-Right
        codec.write(&mut block, &data).unwrap();
        assert_eq!(codec.entries_used(), 0);
    }

    #[test]
    fn replacement_bits_follow_every_write() {
        let mut codec = EcpCodec::new(2, 64);
        let mut block = PcmBlock::pristine(64);
        block.force_stuck(5, true);
        let mut rng = SmallRng::seed_from_u64(2);
        // First write forces entry allocation; later writes must keep the
        // replacement bit current even when the fault is momentarily R.
        codec.write(&mut block, &BitBlock::zeros(64)).unwrap();
        for _ in 0..10 {
            let data = BitBlock::random(&mut rng, 64);
            codec.write(&mut block, &data).unwrap();
            assert_eq!(codec.read(&block), data);
        }
    }

    #[test]
    fn policy_counts_faults_only() {
        let policy = EcpPolicy::new(2, 512);
        let faults: Vec<Fault> = (0..3).map(|i| Fault::new(i, true)).collect();
        assert!(policy.recoverable(&faults[..2], &[true, false]));
        assert!(!policy.recoverable(&faults, &[false, false, false]));
        assert!(policy.guaranteed(&faults[..2]));
        assert!(!policy.guaranteed(&faults));
    }

    #[test]
    fn overhead_matches_paper() {
        assert_eq!(EcpPolicy::new(6, 512).overhead_bits(), 61);
        assert_eq!(EcpCodec::new(6, 512).overhead_bits(), 61);
        assert_eq!(EcpPolicy::new(6, 256).overhead_bits(), 55); // Fig 5: ECP6/256-bit = 55
    }

    #[test]
    fn codec_policy_names_agree() {
        assert_eq!(EcpCodec::new(4, 512).name(), EcpPolicy::new(4, 512).name());
    }
}
