//! Additive masking of stuck-at faults (Kim & Kumar, arXiv:1304.4821) —
//! the information-theoretic comparator family.
//!
//! Instead of pointing at stuck cells (ECP) or inverting groups (SAFER,
//! Aegis), additive masking stores `y = x ⊕ v` where the mask `v = a·H`
//! is chosen per write so that every stuck cell happens to hold its
//! target value. `H` is a fixed public `r×n` matrix; only the coefficient
//! vector `a` (r bits) is metadata. With `H` built from `t` BCH
//! row-blocks over GF(2^m) — rows `α^j·i` for odd `j ≤ 2t−1`, so
//! `r = t·m` — any `u ≤ 2t` stuck cells are maskable for *every* data
//! word (the BCH design distance `d = 2t+1` makes any `d−1` columns
//! linearly independent), and beyond that bound recoverability degrades
//! gracefully per split instead of falling off a cliff. At 512 bits,
//! `Mask6` spends 60 metadata bits against ECP6's 61 and guarantees
//! twelve stuck cells against ECP's six.
//!
//! A write with stuck cells `S` and per-cell wrongness `c_i` (stuck value
//! disagrees with the data bit) succeeds iff the linear system
//! `a·h_i = c_i (i ∈ S)` is consistent — equivalently, iff every linear
//! dependency among the fault columns `{h_i}` carries an even number of
//! stuck-at-Wrong cells. That parity form is what the Monte Carlo kernel
//! evaluates: a reduced column basis is grown incrementally per fault
//! (`u64` column lanes, `u128` contributor masks, a 64-entry pivot
//! table), dependencies fall out of columns that reduce to zero, each
//! fault keeps a `u128` column of the dependencies it lies in, and each
//! split check XORs the stuck-at-Wrong faults' columns into a syndrome
//! that must be zero. A per-bit Gaussian-elimination
//! reference is retained and selectable ([`MaskingPolicy::scalar`]),
//! mirroring the SAFER kernel/scalar discipline.
//!
//! Like the `-rw` Aegis variants and the Hamming comparator's ideal check
//! bits, [`MaskingCodec`] assumes encoder side information: it consults
//! the block's fault oracle ([`PcmBlock::faults`]) rather than
//! discovering faults through verify reads (the paper's fail-cache
//! model). Partially stuck cells are handled identically to fully stuck
//! ones — the mask targets the cell's reliably stored value, which is the
//! worst case for a partial fault.

use crate::cost::masking_overhead;
use crate::gf2m::{alpha_powers, field_bits};
use bitblock::BitBlock;
use pcm_sim::codec::{StuckAtCodec, WriteReport};
use pcm_sim::policy::{cache_key, PairCache, PolicyScratch, RecoveryPolicy, MASK_BITS};
use pcm_sim::{Fault, PcmBlock, UncorrectableError};

/// Largest fault population the `u128` contributor masks support:
/// [`MASK_BITS`], the bound every word-parallel policy shares. Blocks die
/// long before this in every simulated configuration.
pub const MAX_MASK_FAULTS: usize = MASK_BITS;

/// The public masking matrix `H`: `t` BCH row-blocks over GF(2^m), one
/// column per cell offset, packed into a `u64` lane per column
/// (row-block `j` occupies bits `j·m..(j+1)·m`; row-block `j` holds the
/// odd power `α^{(2j+1)·i}` of column `i`).
#[derive(Debug, Clone)]
pub struct MaskMatrix {
    t: usize,
    m: usize,
    block_bits: usize,
    columns: Vec<u64>,
}

impl MaskMatrix {
    /// Builds the matrix for `t` correction rows over a `block_bits`-bit
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` or the `t·m` column height exceeds the 64-bit
    /// kernel lane.
    #[must_use]
    pub fn new(t: usize, block_bits: usize) -> Self {
        assert!(t >= 1, "need at least one masking row-block");
        let m = field_bits(block_bits);
        assert!(
            t * m <= 64,
            "mask columns of {t}x{m} bits exceed the 64-bit kernel lane"
        );
        let order = (1usize << m) - 1;
        let powers = alpha_powers(m, order);
        let columns = (0..block_bits)
            .map(|i| {
                let mut column = 0u64;
                for j in 0..t {
                    let exponent = (i * (2 * j + 1)) % order;
                    column |= u64::from(powers[exponent]) << (j * m);
                }
                column
            })
            .collect();
        Self {
            t,
            m,
            block_bits,
            columns,
        }
    }

    /// Number of BCH row-blocks (`t`): any `2t` columns are linearly
    /// independent.
    #[must_use]
    pub fn t(&self) -> usize {
        self.t
    }

    /// Field degree `m` (bits per row-block).
    #[must_use]
    pub fn field_bits(&self) -> usize {
        self.m
    }

    /// Matrix height `r = t·m` — the metadata bits of the coefficient
    /// vector.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.t * self.m
    }

    /// Block width in bits (matrix columns).
    #[must_use]
    pub fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// Column `h_i` for cell offset `i`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    #[must_use]
    pub fn column(&self, offset: usize) -> u64 {
        self.columns[offset]
    }

    /// The mask `v = a·H` as a full block: bit `i` is `⟨a, h_i⟩`.
    #[must_use]
    pub fn mask_vector(&self, coefficients: u64) -> BitBlock {
        BitBlock::from_fn(self.block_bits, |i| {
            (coefficients & self.columns[i]).count_ones() % 2 == 1
        })
    }
}

/// Incrementally reduced column basis of a fault population — the cold
/// twin of the cache `absorb_columns` grows for the masking and PLBC
/// incremental paths, sharing its reduction step.
///
/// Faults are absorbed in arrival order. Fault `k`'s column is reduced
/// against the pivot rows so far, carrying the `u128` index mask of the
/// faults that combined into it (bit `k` included). A column that stays
/// nonzero becomes a new pivot row; one that reduces to zero yields a
/// *dependency*: its mask is the support of a linear relation among the
/// fault columns, and the `f − rank` dependencies found this way form a
/// basis of the full dependency space (each contains its own arrival
/// index, which no earlier dependency can).
#[derive(Debug, Clone)]
pub struct MaskSystem {
    /// Pivot rows in the order they were found: reduced column and
    /// contributor mask.
    rows: Vec<(u64, u128)>,
    /// Dependency supports in the order they were found.
    dependencies: Vec<u128>,
    /// `pivots[b]` = index+1 of the row whose leading bit is `b`.
    pivots: [u8; 64],
}

impl Default for MaskSystem {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            dependencies: Vec::new(),
            pivots: [0; 64],
        }
    }
}

impl MaskSystem {
    /// An empty system.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all absorbed columns.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.dependencies.clear();
        self.pivots = [0; 64];
    }

    /// Number of absorbed faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len() + self.dependencies.len()
    }

    /// Whether no fault has been absorbed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absorbs the next fault's column, reducing it against the basis.
    ///
    /// # Panics
    ///
    /// Panics beyond [`MAX_MASK_FAULTS`] faults.
    pub fn absorb(&mut self, column: u64) {
        let (value, mask) = reduce(column, self.len(), &self.pivots, |j| self.rows[j]);
        if value == 0 {
            self.dependencies.push(mask);
        } else {
            self.pivots[leading_bit(value)] = pivot_entry(self.rows.len());
            self.rows.push((value, mask));
        }
    }

    /// Rank of the absorbed columns.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Whether the absorbed columns are linearly independent — the exact
    /// "maskable for every data word" criterion.
    #[must_use]
    pub fn is_full_rank(&self) -> bool {
        self.dependencies.is_empty()
    }

    /// The dependency supports, as `u128` fault-index masks.
    pub fn dependencies(&self) -> impl Iterator<Item = u128> + '_ {
        self.dependencies.iter().copied()
    }

    /// Whether the system `a·h_i = c_i` is consistent for the wrongness
    /// pattern packed into `wrong_mask`: every dependency must carry an
    /// even number of stuck-at-Wrong faults.
    #[must_use]
    pub fn consistent(&self, wrong_mask: u128) -> bool {
        self.dependencies()
            .all(|dep| (dep & wrong_mask).count_ones().is_multiple_of(2))
    }
}

/// The reduction step [`MaskSystem`] and [`absorb_columns`] share: reduces
/// fault `k`'s `column` against a basis whose pivot table maps a leading
/// bit `b` to `pivots[b]` = index+1 of the row with that leading bit (0:
/// none), reading row `j`'s reduced column and contributor mask through
/// `row`. Returns the reduced column (zero iff the column depends on the
/// basis) and the mask of the faults that combined into it.
///
/// # Panics
///
/// Panics if `k` reaches [`MAX_MASK_FAULTS`].
fn reduce(column: u64, k: usize, pivots: &[u8], row: impl Fn(usize) -> (u64, u128)) -> (u64, u128) {
    assert!(
        k < MAX_MASK_FAULTS,
        "mask kernel supports at most {MAX_MASK_FAULTS} concurrent faults"
    );
    let mut value = column;
    let mut mask = 1u128 << k;
    while value != 0 {
        match pivots[leading_bit(value)] {
            0 => break,
            entry => {
                let (pivot, pivot_mask) = row(usize::from(entry) - 1);
                value ^= pivot;
                mask ^= pivot_mask;
            }
        }
    }
    (value, mask)
}

/// Index of the highest set bit of a nonzero column.
fn leading_bit(value: u64) -> usize {
    63 - value.leading_zeros() as usize
}

/// The pivot-table entry of row `index`.
fn pivot_entry(index: usize) -> u8 {
    u8::try_from(index + 1).expect("a u64 basis has at most 64 rows")
}

/// Packs a W/R split slice into a `u128` index mask.
///
/// # Panics
///
/// Panics beyond [`MAX_MASK_FAULTS`] faults.
#[must_use]
pub(crate) fn pack_wrong(wrong: &[bool]) -> u128 {
    assert!(
        wrong.len() <= MAX_MASK_FAULTS,
        "mask kernel supports at most {MAX_MASK_FAULTS} concurrent faults"
    );
    wrong
        .iter()
        .enumerate()
        .fold(0u128, |acc, (i, &w)| acc | (u128::from(w) << i))
}

/// Per-bit Gaussian-elimination reference for the consistency check: is
/// there a coefficient vector `a` with `a·h_i = wrong[i]` for every
/// fault? Works on `Vec<Vec<bool>>` rows with no word-level shortcuts;
/// the kernel paths are differentially tested against it.
#[must_use]
pub(crate) fn scalar_consistent(matrix: &MaskMatrix, faults: &[Fault], wrong: &[bool]) -> bool {
    let r = matrix.rows();
    let mut rows: Vec<Vec<bool>> = faults
        .iter()
        .zip(wrong)
        .map(|(fault, &w)| {
            let column = matrix.column(fault.offset);
            let mut row: Vec<bool> = (0..r).map(|b| column >> b & 1 == 1).collect();
            row.push(w);
            row
        })
        .collect();
    let mut pivot = 0usize;
    for b in 0..r {
        let Some(pr) = (pivot..rows.len()).find(|&i| rows[i][b]) else {
            continue;
        };
        rows.swap(pivot, pr);
        let pivot_row = rows[pivot].clone();
        for (i, row) in rows.iter_mut().enumerate() {
            if i != pivot && row[b] {
                for (x, &p) in row.iter_mut().zip(&pivot_row) {
                    *x ^= p;
                }
            }
        }
        pivot += 1;
    }
    // Every remaining row has an all-zero coefficient part; the system is
    // consistent iff none of them demands a 1.
    rows[pivot..].iter().all(|row| !row[r])
}

/// Per-bit rank of the fault columns (reference twin of
/// [`MaskSystem::rank`]).
#[must_use]
pub(crate) fn scalar_rank(matrix: &MaskMatrix, faults: &[Fault]) -> usize {
    let r = matrix.rows();
    let mut rows: Vec<Vec<bool>> = faults
        .iter()
        .map(|fault| {
            let column = matrix.column(fault.offset);
            (0..r).map(|b| column >> b & 1 == 1).collect()
        })
        .collect();
    let mut pivot = 0usize;
    for b in 0..r {
        let Some(pr) = (pivot..rows.len()).find(|&i| rows[i][b]) else {
            continue;
        };
        rows.swap(pivot, pr);
        let pivot_row = rows[pivot].clone();
        for (i, row) in rows.iter_mut().enumerate() {
            if i != pivot && row[b] {
                for (x, &p) in row.iter_mut().zip(&pivot_row) {
                    *x ^= p;
                }
            }
        }
        pivot += 1;
    }
    pivot
}

/// Solves `a·h_i = wanted[i]` over the fault set, returning a particular
/// coefficient vector (free variables zero), or `None` when the system is
/// inconsistent. Used by both codecs.
#[must_use]
pub(crate) fn solve_coefficients(
    matrix: &MaskMatrix,
    faults: &[Fault],
    wanted: &[bool],
) -> Option<u64> {
    let r = matrix.rows();
    let mut rows: Vec<(u64, bool)> = faults
        .iter()
        .zip(wanted)
        .map(|(fault, &c)| (matrix.column(fault.offset), c))
        .collect();
    let mut pivots: Vec<(usize, usize)> = Vec::new();
    let mut next = 0usize;
    for bit in (0..r).rev() {
        let Some(pr) = (next..rows.len()).find(|&i| rows[i].0 >> bit & 1 == 1) else {
            continue;
        };
        rows.swap(next, pr);
        let (pivot_value, pivot_c) = rows[next];
        for (i, row) in rows.iter_mut().enumerate() {
            if i != next && row.0 >> bit & 1 == 1 {
                row.0 ^= pivot_value;
                row.1 ^= pivot_c;
            }
        }
        pivots.push((bit, next));
        next += 1;
    }
    if rows[next..].iter().any(|&(value, c)| value == 0 && c) {
        return None;
    }
    // Reduced row echelon: with free variables fixed to zero, each pivot
    // bit of `a` is its row's right-hand side.
    let mut coefficients = 0u64;
    for &(bit, row) in &pivots {
        if rows[row].1 {
            coefficients |= 1 << bit;
        }
    }
    Some(coefficients)
}

/// Grows the cached reduced basis in `cache` to cover `faults` (the
/// [`PairCache`] mirror of [`MaskSystem`], shared by the masking and PLBC
/// incremental paths), keeping each fault's dependency column up to date.
///
/// Cache fields used: `groups` is the 64-entry pivot table, `coords[j]`
/// and `masks[j]` hold pivot row `j`'s reduced column (split into
/// `(low32, high32)` words) and contributor mask, `columns[i]` is fault
/// `i`'s dependency column, `clean` counts the dependencies and `all_mask`
/// unions their supports. A fault whose column reduces to zero opens
/// dependency `d = clean` and sets bit `d` in the column of every fault of
/// its support. Only the suffix past the cached length is absorbed, so the
/// driver contract of [`PairCache`] applies unchanged.
pub(crate) fn absorb_columns(
    matrix: &MaskMatrix,
    key: u64,
    faults: &[Fault],
    cache: &mut PairCache,
) {
    let start = cache.begin(key, faults);
    if start == 0 {
        cache.groups.clear();
        cache.groups.resize(64, 0);
    }
    for (k, &fault) in faults.iter().enumerate().skip(start) {
        let (value, mask) = reduce(matrix.column(fault.offset), k, &cache.groups, |j| {
            let (low, high) = cache.coords[j];
            (u64::from(low) | (u64::from(high) << 32), cache.masks[j])
        });
        cache.columns.push(0);
        if value == 0 {
            // Fault columns are never zero, so some fault is independent
            // and at most 127 dependencies fit the u128 columns.
            let dependency = 1u128 << cache.clean;
            let mut support = mask;
            while support != 0 {
                cache.columns[support.trailing_zeros() as usize] |= dependency;
                support &= support - 1;
            }
            cache.clean += 1;
            cache.all_mask |= mask;
        } else {
            cache.groups[leading_bit(value)] = pivot_entry(cache.coords.len());
            #[allow(clippy::cast_possible_truncation)]
            cache.coords.push((value as u32, (value >> 32) as u32));
            cache.masks.push(mask);
        }
        cache.commit(fault);
    }
}

/// Syndrome of a W/R split over the cached dependency columns (see
/// [`absorb_columns`]): the XOR of the stuck-at-Wrong faults' columns, so
/// bit `d` is the stuck-at-Wrong parity of dependency `d`. Only faults in
/// some dependency's support have a nonzero column, so only those are
/// read.
#[must_use]
pub(crate) fn cached_syndrome(cache: &PairCache, wrong: &[bool]) -> u128 {
    let mut support = cache.all_mask;
    let mut sigma = 0u128;
    while support != 0 {
        let i = support.trailing_zeros() as usize;
        sigma ^= cache.columns[i] & 0u128.wrapping_sub(u128::from(wrong[i]));
        support &= support - 1;
    }
    sigma
}

/// The additive-masking Monte Carlo policy (`Mask⟨t⟩`).
#[derive(Debug, Clone)]
pub struct MaskingPolicy {
    matrix: MaskMatrix,
    scalar: bool,
    key: u64,
}

impl MaskingPolicy {
    /// Kernel-mode policy with `t` BCH row-blocks over a
    /// `block_bits`-bit block.
    ///
    /// # Panics
    ///
    /// See [`MaskMatrix::new`].
    #[must_use]
    pub fn new(t: usize, block_bits: usize) -> Self {
        Self::with_mode(t, block_bits, false)
    }

    /// The per-bit reference implementation of the same predicate (no
    /// kernel lanes, no incremental cache) — the SAFER-style retained
    /// scalar twin the differential suites compare against.
    #[must_use]
    pub fn scalar(t: usize, block_bits: usize) -> Self {
        Self::with_mode(t, block_bits, true)
    }

    fn with_mode(t: usize, block_bits: usize, scalar: bool) -> Self {
        let matrix = MaskMatrix::new(t, block_bits);
        // Kernel and scalar modes decide identically, so they share the
        // cache owner key (the scalar mode simply never populates it).
        let key = cache_key(&[0xA15C, t as u64, block_bits as u64]);
        Self {
            matrix,
            scalar,
            key,
        }
    }

    /// Number of BCH row-blocks.
    #[must_use]
    pub fn t(&self) -> usize {
        self.matrix.t()
    }

    /// The public masking matrix.
    #[must_use]
    pub fn matrix(&self) -> &MaskMatrix {
        &self.matrix
    }

    fn system_for(&self, faults: &[Fault]) -> MaskSystem {
        let mut system = MaskSystem::new();
        for fault in faults {
            system.absorb(self.matrix.column(fault.offset));
        }
        system
    }
}

impl RecoveryPolicy for MaskingPolicy {
    fn name(&self) -> String {
        format!("Mask{}", self.matrix.t())
    }

    fn overhead_bits(&self) -> usize {
        masking_overhead(self.matrix.t(), self.matrix.block_bits())
    }

    fn block_bits(&self) -> usize {
        self.matrix.block_bits()
    }

    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        if self.scalar {
            return scalar_consistent(&self.matrix, faults, wrong);
        }
        // Any u ≤ 2t columns are independent (BCH distance): consistent
        // for every split, no basis needed.
        if faults.len() <= 2 * self.matrix.t() {
            return true;
        }
        self.system_for(faults).consistent(pack_wrong(wrong))
    }

    fn recoverable_with(
        &self,
        faults: &[Fault],
        wrong: &[bool],
        scratch: &mut PolicyScratch,
    ) -> bool {
        assert_eq!(faults.len(), wrong.len(), "split width mismatch");
        if self.scalar || !scratch.pair_cache.matches(self.key, faults) {
            return self.recoverable(faults, wrong);
        }
        // Consistent iff every dependency has even stuck-at-Wrong parity.
        cached_syndrome(&scratch.pair_cache, wrong) == 0
    }

    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        if !self.scalar {
            absorb_columns(&self.matrix, self.key, faults, &mut scratch.pair_cache);
        }
    }

    fn explain(&self, faults: &[Fault], wrong: &[bool]) -> Option<String> {
        let name = self.name();
        let count = faults.len();
        let system = self.system_for(faults);
        let rank = system.rank();
        let wrong_mask = pack_wrong(wrong);
        let odd = system
            .dependencies()
            .find(|&dep| (dep & wrong_mask).count_ones() % 2 == 1);
        Some(match odd {
            Some(dep) => {
                let offsets: Vec<usize> = faults
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| dep >> i & 1 == 1)
                    .map(|(_, fault)| fault.offset)
                    .collect();
                format!(
                    "{name}: rank {rank}/{count}; dependent columns at offsets \
                     {offsets:?} carry an odd stuck-at-Wrong parity — no \
                     coefficient vector fits"
                )
            }
            None if rank == count => {
                format!("{name}: all {count} fault columns independent — every split maskable")
            }
            None => format!(
                "{name}: rank {rank}/{count}, {} dependencies, all with even \
                 stuck-at-Wrong parity — masked",
                count - rank
            ),
        })
    }

    fn guaranteed(&self, faults: &[Fault]) -> bool {
        // Exact: recoverable for every data word iff the fault columns
        // are linearly independent (any wrongness pattern is then
        // consistent; a dependency admits an odd-parity split).
        if faults.len() > self.matrix.rows() {
            return false;
        }
        if self.scalar {
            return scalar_rank(&self.matrix, faults) == faults.len();
        }
        if faults.len() <= 2 * self.matrix.t() {
            return true; // BCH design distance
        }
        self.system_for(faults).is_full_rank()
    }

    /// The same exact test, read off a warm cache when it covers `faults`:
    /// the columns are independent iff no dependency was cached.
    fn guaranteed_with(&self, faults: &[Fault], scratch: &mut PolicyScratch) -> bool {
        if self.scalar {
            return self.guaranteed(faults);
        }
        if faults.len() > self.matrix.rows() {
            return false;
        }
        if faults.len() <= 2 * self.matrix.t() {
            return true;
        }
        let cache = &scratch.pair_cache;
        if cache.matches(self.key, faults) {
            return cache.clean == 0;
        }
        self.guaranteed(faults)
    }
}

/// The additive-masking functional codec.
///
/// Consults the block's fault oracle (encoder side information — the
/// fail-cache model documented at module level), solves for the
/// coefficient vector, and stores `data ⊕ a·H`. The `r = t·m` coefficient
/// bits live in ideal metadata, like every scheme's pointers and
/// inversion vectors in this workspace.
///
/// # Examples
///
/// ```
/// use aegis_baselines::MaskingCodec;
/// use bitblock::BitBlock;
/// use pcm_sim::codec::StuckAtCodec;
/// use pcm_sim::PcmBlock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut codec = MaskingCodec::new(6, 512);
/// let mut block = PcmBlock::pristine(512);
/// block.force_stuck(100, true);
/// block.force_partially_stuck(200, false, 128);
/// let data = BitBlock::zeros(512);
/// codec.write(&mut block, &data)?;
/// assert_eq!(codec.read(&block), data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaskingCodec {
    matrix: MaskMatrix,
    coefficients: u64,
}

impl MaskingCodec {
    /// Creates a `Mask⟨t⟩` codec for `block_bits`-bit blocks.
    ///
    /// # Panics
    ///
    /// See [`MaskMatrix::new`].
    #[must_use]
    pub fn new(t: usize, block_bits: usize) -> Self {
        Self {
            matrix: MaskMatrix::new(t, block_bits),
            coefficients: 0,
        }
    }

    /// The current coefficient vector (metadata state).
    #[must_use]
    pub fn coefficients(&self) -> u64 {
        self.coefficients
    }
}

impl StuckAtCodec for MaskingCodec {
    /// # Errors
    ///
    /// [`UncorrectableError`] when no coefficient vector masks the stuck
    /// pattern for this data word.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    fn write(
        &mut self,
        block: &mut PcmBlock,
        data: &BitBlock,
    ) -> Result<WriteReport, UncorrectableError> {
        assert_eq!(data.len(), self.matrix.block_bits(), "data width mismatch");
        assert_eq!(
            block.len(),
            self.matrix.block_bits(),
            "block width mismatch"
        );
        let faults = block.faults();
        // c_i = 1 iff the cell's reliably stored value disagrees with the
        // data bit (partially stuck cells included — worst case).
        let wanted: Vec<bool> = faults
            .iter()
            .map(|fault| fault.stuck != data.get(fault.offset))
            .collect();
        let Some(coefficients) = solve_coefficients(&self.matrix, &faults, &wanted) else {
            return Err(UncorrectableError::new(
                self.name(),
                faults.len(),
                "no coefficient vector masks this stuck pattern",
            ));
        };
        self.coefficients = coefficients;
        let target = data ^ &self.matrix.mask_vector(coefficients);
        let report = WriteReport {
            cell_pulses: block.write_raw(&target),
            verify_reads: 1,
            ..WriteReport::default()
        };
        if !block.verify(&target).is_empty() {
            // Unreachable in this wear model (cells die holding the value
            // they were just programmed to), kept as a defensive check.
            return Err(UncorrectableError::new(
                self.name(),
                block.fault_count(),
                "verification failed after masking",
            ));
        }
        Ok(report)
    }

    fn read(&self, block: &PcmBlock) -> BitBlock {
        block.read_raw() ^ self.matrix.mask_vector(self.coefficients)
    }

    fn overhead_bits(&self) -> usize {
        masking_overhead(self.matrix.t(), self.matrix.block_bits())
    }

    fn block_bits(&self) -> usize {
        self.matrix.block_bits()
    }

    fn name(&self) -> String {
        format!("Mask{}", self.matrix.t())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::classify_split;
    use sim_rng::{Rng, SeedableRng, SmallRng};

    #[test]
    fn matrix_geometry_matches_the_paper_costs() {
        let matrix = MaskMatrix::new(6, 512);
        assert_eq!(matrix.field_bits(), 10);
        assert_eq!(matrix.rows(), 60); // vs ECP6's 61 bits
        assert_eq!(MaskingPolicy::new(6, 512).overhead_bits(), 60);
        assert_eq!(MaskingCodec::new(6, 512).overhead_bits(), 60);
        assert_eq!(MaskMatrix::new(2, 64).rows(), 14);
    }

    #[test]
    fn any_2t_columns_are_linearly_independent() {
        // The BCH design distance, checked exhaustively at n = 15, t = 2:
        // every 4-subset of columns must be independent.
        let matrix = MaskMatrix::new(2, 15);
        for subset in crate::safer::combinations(15, 4) {
            let mut system = MaskSystem::new();
            for &i in &subset {
                system.absorb(matrix.column(i));
            }
            assert!(system.is_full_rank(), "dependent 4-subset {subset:?}");
        }
    }

    #[test]
    fn mask_system_finds_dependencies_with_correct_supports() {
        let mut system = MaskSystem::new();
        system.absorb(0b011);
        system.absorb(0b101);
        system.absorb(0b110); // = col0 ^ col1
        assert_eq!(system.rank(), 2);
        let deps: Vec<u128> = system.dependencies().collect();
        assert_eq!(deps, vec![0b111]);
        // Even parity over the dependency: consistent.
        assert!(system.consistent(0b011));
        assert!(system.consistent(0b000));
        // Odd parity: inconsistent.
        assert!(!system.consistent(0b001));
        assert!(!system.consistent(0b111));
    }

    #[test]
    fn kernel_and_scalar_policies_agree_everywhere() {
        let mut rng = SmallRng::seed_from_u64(61);
        for &(t, bits) in &[(1usize, 64usize), (2, 64), (3, 128), (6, 512)] {
            let kernel = MaskingPolicy::new(t, bits);
            let scalar = MaskingPolicy::scalar(t, bits);
            assert_eq!(kernel.name(), scalar.name());
            for _ in 0..40 {
                let count = rng.random_range(1..=(2 * t + 6).min(bits / 4));
                let mut faults: Vec<Fault> = Vec::new();
                while faults.len() < count {
                    let offset: usize = rng.random_range(0..bits);
                    if !faults.iter().any(|f| f.offset == offset) {
                        faults.push(Fault::new(offset, rng.random()));
                    }
                }
                for _ in 0..8 {
                    let wrong: Vec<bool> = faults.iter().map(|_| rng.random()).collect();
                    assert_eq!(
                        kernel.recoverable(&faults, &wrong),
                        scalar.recoverable(&faults, &wrong),
                        "t={t} bits={bits} faults={faults:?} wrong={wrong:?}"
                    );
                }
                assert_eq!(
                    kernel.guaranteed(&faults),
                    scalar.guaranteed(&faults),
                    "guaranteed: t={t} bits={bits} faults={faults:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_cache_matches_recompute() {
        let mut rng = SmallRng::seed_from_u64(1304);
        let policy = MaskingPolicy::new(2, 64);
        let mut warm = PolicyScratch::new();
        for _ in 0..30 {
            policy.forget_block(&mut warm);
            let mut faults: Vec<Fault> = Vec::new();
            while faults.len() < 9 {
                let offset: usize = rng.random_range(0..64);
                if faults.iter().any(|f| f.offset == offset) {
                    continue;
                }
                faults.push(Fault::new(offset, rng.random()));
                policy.observe_fault(&faults, &mut warm);
                assert!(warm.pair_cache.matches(policy.key, &faults));
                for _ in 0..6 {
                    let wrong: Vec<bool> = faults.iter().map(|_| rng.random()).collect();
                    let warm_verdict = policy.recoverable_with(&faults, &wrong, &mut warm);
                    let cold_verdict =
                        policy.recoverable_with(&faults, &wrong, &mut PolicyScratch::new());
                    let plain = policy.recoverable(&faults, &wrong);
                    assert_eq!(warm_verdict, plain, "warm: {faults:?} {wrong:?}");
                    assert_eq!(cold_verdict, plain, "cold: {faults:?} {wrong:?}");
                }
            }
        }
    }

    #[test]
    fn guarantee_is_tight_at_the_design_distance() {
        // n = 15, t = 1 is the primitive Hamming case: distance exactly 3,
        // so some 3 columns are dependent while every 2 are independent.
        let policy = MaskingPolicy::new(1, 15);
        for subset in crate::safer::combinations(15, 2) {
            let faults: Vec<Fault> = subset.iter().map(|&o| Fault::new(o, false)).collect();
            assert!(policy.guaranteed(&faults));
        }
        let dependent = crate::safer::combinations(15, 3)
            .into_iter()
            .find(|subset| {
                let mut system = MaskSystem::new();
                for &i in subset {
                    system.absorb(MaskMatrix::new(1, 15).column(i));
                }
                !system.is_full_rank()
            })
            .expect("a weight-3 codeword must exist at the primitive length");
        let faults: Vec<Fault> = dependent.iter().map(|&o| Fault::new(o, false)).collect();
        assert!(!policy.guaranteed(&faults));
        // The odd-parity split over the dependency is the failing witness.
        assert!(!policy.recoverable(&faults, &[true, false, false]));
        assert!(policy.recoverable(&faults, &[true, true, false]));
    }

    #[test]
    fn codec_round_trips_and_agrees_with_the_policy() {
        let mut rng = SmallRng::seed_from_u64(7);
        let policy = MaskingPolicy::new(2, 64);
        for _ in 0..60 {
            let mut block = PcmBlock::pristine(64);
            let count = rng.random_range(0..=7);
            let mut offsets: Vec<usize> = Vec::new();
            while offsets.len() < count {
                let offset: usize = rng.random_range(0..64);
                if !offsets.contains(&offset) {
                    offsets.push(offset);
                    let stuck: bool = rng.random();
                    if rng.random() {
                        block.force_partially_stuck(offset, stuck, 128);
                    } else {
                        block.force_stuck(offset, stuck);
                    }
                }
            }
            let data = BitBlock::random(&mut rng, 64);
            let faults = block.faults();
            let wrong = classify_split(&faults, &data);
            let mut codec = MaskingCodec::new(2, 64);
            match codec.write(&mut block, &data) {
                Ok(report) => {
                    assert!(policy.recoverable(&faults, &wrong), "{faults:?} {wrong:?}");
                    assert_eq!(codec.read(&block), data);
                    assert_eq!(report.verify_reads, 1);
                }
                Err(_) => {
                    assert!(!policy.recoverable(&faults, &wrong), "{faults:?} {wrong:?}");
                }
            }
        }
    }

    #[test]
    fn explain_agrees_with_the_verdict() {
        let policy = MaskingPolicy::new(1, 15);
        let matrix = MaskMatrix::new(1, 15);
        let dependent = crate::safer::combinations(15, 3)
            .into_iter()
            .find(|subset| {
                let mut system = MaskSystem::new();
                for &i in subset {
                    system.absorb(matrix.column(i));
                }
                !system.is_full_rank()
            })
            .unwrap();
        let faults: Vec<Fault> = dependent.iter().map(|&o| Fault::new(o, false)).collect();
        let bad = policy.explain(&faults, &[true, false, false]).unwrap();
        assert!(bad.contains("odd stuck-at-Wrong parity"), "{bad}");
        let good = policy.explain(&faults, &[true, true, false]).unwrap();
        assert!(good.contains("even"), "{good}");
        let clean = policy.explain(&faults[..2], &[true, false]).unwrap();
        assert!(clean.contains("every split maskable"), "{clean}");
    }

    #[test]
    fn overflowing_guarantee_rejects_without_building_a_basis() {
        let policy = MaskingPolicy::new(1, 512);
        // 11 faults > r = 10 rows: rank can never reach the fault count.
        let faults: Vec<Fault> = (0..11).map(|o| Fault::new(o, false)).collect();
        assert!(!policy.guaranteed(&faults));
    }
}
