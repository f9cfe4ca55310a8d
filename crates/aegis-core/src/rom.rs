//! Precomputed lookup tables mirroring the paper's wired logic.
//!
//! The paper implements Aegis with three ROM structures:
//!
//! - Figure 3: `(slope, fault address) → group ID` — [`GroupRom`];
//! - Figure 4: `(slope, inversion vector) → bits to invert` —
//!   [`InversionRom`];
//! - §2.4: the `n×n` "on which slope do these two bits collide" ROM used by
//!   Aegis-rw — [`CollisionRom`].
//!
//! A software table computed once at construction has the same
//! input→output behaviour as the combinational circuits in the figures.
//!
//! [`ShiftRom`] is the word-packed twin of [`InversionRom`]: the same
//! `(slope, group) → member mask` relation, laid out as one flat `u64`
//! array so the encode/verify hot path can OR or XOR a whole mask into a
//! codeword as contiguous words instead of walking bit offsets. It backs
//! the kernel paths in `codec/` (see DESIGN.md, "Hot-path kernels").

use crate::Rectangle;
use bitblock::BitBlock;

/// `(slope, offset) → group ID` table (the paper's Figure 3 logic).
#[derive(Debug, Clone)]
pub struct GroupRom {
    /// `table[slope * bits + offset]` = group.
    table: Vec<u16>,
    bits: usize,
    slopes: usize,
}

impl GroupRom {
    /// Builds the table for a rectangle.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle has more than `u16::MAX` groups (never the
    /// case for realistic block sizes).
    #[must_use]
    pub fn new(rect: &Rectangle) -> Self {
        assert!(rect.groups() <= u16::MAX as usize);
        let bits = rect.bits();
        let slopes = rect.slopes();
        let mut table = Vec::with_capacity(bits * slopes);
        for slope in 0..slopes {
            for offset in 0..bits {
                table.push(rect.group_of(offset, slope) as u16);
            }
        }
        Self {
            table,
            bits,
            slopes,
        }
    }

    /// Group of `offset` under `slope`.
    ///
    /// # Panics
    ///
    /// Panics if either input is out of range.
    #[must_use]
    pub fn group_of(&self, offset: usize, slope: usize) -> usize {
        assert!(
            offset < self.bits && slope < self.slopes,
            "GroupRom index out of range"
        );
        self.table[slope * self.bits + offset] as usize
    }
}

/// `(slope, group) → member-bit mask` table (the paper's Figure 4 logic).
#[derive(Debug, Clone)]
pub struct InversionRom {
    /// `masks[slope * groups + group]` = n-bit mask of the group's members.
    masks: Vec<BitBlock>,
    groups: usize,
    slopes: usize,
    bits: usize,
}

impl InversionRom {
    /// Builds the mask table for a rectangle.
    #[must_use]
    pub fn new(rect: &Rectangle) -> Self {
        let groups = rect.groups();
        let slopes = rect.slopes();
        let mut masks = Vec::with_capacity(groups * slopes);
        for slope in 0..slopes {
            for group in 0..groups {
                masks.push(BitBlock::from_indices(
                    rect.bits(),
                    rect.group_members(slope, group),
                ));
            }
        }
        Self {
            masks,
            groups,
            slopes,
            bits: rect.bits(),
        }
    }

    /// Member mask of one group under one slope.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if either input is out of range. Release
    /// builds skip the explicit range check on this hot accessor: the
    /// `Vec` indexing below is still bounds-checked, so an out-of-range
    /// `(slope, group)` can never read out of bounds — at worst it panics
    /// on the slice index or (if the flat index aliases another row)
    /// returns a well-formed mask belonging to a different `(slope,
    /// group)`. Both inputs are loop counters bounded by the ROM's own
    /// geometry at every call site.
    #[must_use]
    pub fn group_mask(&self, slope: usize, group: usize) -> &BitBlock {
        debug_assert!(
            slope < self.slopes && group < self.groups,
            "InversionRom index out of range"
        );
        &self.masks[slope * self.groups + group]
    }

    /// Combined mask of every group whose bit is set in `inversion_vector`
    /// — exactly the bits written in inverted form (Figure 4's output).
    ///
    /// # Panics
    ///
    /// Panics if `slope` is out of range or the vector width differs from
    /// the group count.
    #[must_use]
    pub fn inversion_mask(&self, slope: usize, inversion_vector: &BitBlock) -> BitBlock {
        assert_eq!(
            inversion_vector.len(),
            self.groups,
            "inversion vector width must equal the group count"
        );
        let mut mask = BitBlock::zeros(self.bits);
        for group in inversion_vector.ones() {
            mask |= self.group_mask(slope, group);
        }
        mask
    }
}

/// Word-packed `(slope, group) → member-bit mask` store for the kernel
/// encode path.
///
/// Every mask occupies exactly [`ShiftRom::words_per_mask`] consecutive
/// `u64` words of one flat allocation (row order `slope * groups + group`),
/// with tail bits beyond the block width held at zero — the canonical form
/// [`bitblock::BitBlock`] word kernels expect. The name follows the
/// hardware view: under a fixed slope, each group's diagonal is a barrel
/// shift of the slope's anchor line, so the whole table is what a shifter
/// network would materialise.
#[derive(Debug, Clone)]
pub struct ShiftRom {
    /// `words[(slope * groups + group) * words_per_mask ..][..words_per_mask]`.
    words: Vec<u64>,
    words_per_mask: usize,
    groups: usize,
    slopes: usize,
    bits: usize,
}

impl ShiftRom {
    /// Builds the packed mask table for a rectangle.
    #[must_use]
    pub fn new(rect: &Rectangle) -> Self {
        let groups = rect.groups();
        let slopes = rect.slopes();
        let words_per_mask = rect.bits().div_ceil(64);
        let mut words = Vec::with_capacity(groups * slopes * words_per_mask);
        for slope in 0..slopes {
            for group in 0..groups {
                let mask = BitBlock::from_indices(rect.bits(), rect.group_members(slope, group));
                words.extend_from_slice(mask.as_words());
            }
        }
        Self {
            words,
            words_per_mask,
            groups,
            slopes,
            bits: rect.bits(),
        }
    }

    /// Block width in bits.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Words per stored mask (`bits.div_ceil(64)`).
    #[must_use]
    pub fn words_per_mask(&self) -> usize {
        self.words_per_mask
    }

    /// Number of slopes the table covers.
    #[must_use]
    pub fn slopes(&self) -> usize {
        self.slopes
    }

    /// Number of groups per slope.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Member mask of one group under one slope, as raw words.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if either input is out of range. Release
    /// builds skip the explicit range check on this hot accessor (it sits
    /// inside the per-`(slope, group)` kernel loops): the slice indexing
    /// below is still bounds-checked, so an out-of-range input can never
    /// read outside the table — at worst it panics on the range index or
    /// (if the flat index aliases another row) returns the well-formed
    /// mask of a different `(slope, group)`. Both inputs are loop counters
    /// bounded by the ROM's own geometry at every call site.
    #[must_use]
    pub fn mask_words(&self, slope: usize, group: usize) -> &[u64] {
        debug_assert!(
            slope < self.slopes && group < self.groups,
            "ShiftRom index out of range"
        );
        let start = (slope * self.groups + group) * self.words_per_mask;
        &self.words[start..start + self.words_per_mask]
    }

    /// Fills `out` with the union of every group mask selected by
    /// `inversion_vector`, reusing `out`'s allocation — the allocation-free
    /// twin of [`InversionRom::inversion_mask`].
    ///
    /// # Panics
    ///
    /// Panics if `slope` is out of range, the vector width differs from the
    /// group count, or `out` is not `bits` wide.
    pub fn inversion_mask_into(
        &self,
        slope: usize,
        inversion_vector: &BitBlock,
        out: &mut BitBlock,
    ) {
        assert_eq!(
            inversion_vector.len(),
            self.groups,
            "inversion vector width must equal the group count"
        );
        assert_eq!(out.len(), self.bits, "output mask width must equal bits");
        out.clear();
        for group in inversion_vector.ones() {
            out.or_words(self.mask_words(slope, group));
        }
    }

    /// Allocating convenience wrapper around
    /// [`ShiftRom::inversion_mask_into`].
    ///
    /// # Panics
    ///
    /// As [`ShiftRom::inversion_mask_into`].
    #[must_use]
    pub fn inversion_mask(&self, slope: usize, inversion_vector: &BitBlock) -> BitBlock {
        let mut out = BitBlock::zeros(self.bits);
        self.inversion_mask_into(slope, inversion_vector, &mut out);
        out
    }
}

/// The §2.4 ROM: for every pair of bit offsets, the unique slope on which
/// they collide (`u16::MAX` encodes "never collide" — same-column pairs).
#[derive(Debug, Clone)]
pub struct CollisionRom {
    table: Vec<u16>,
    bits: usize,
}

const NO_COLLISION: u16 = u16::MAX;

impl CollisionRom {
    /// Builds the `n×n` collision table.
    #[must_use]
    pub fn new(rect: &Rectangle) -> Self {
        let bits = rect.bits();
        let mut table = vec![NO_COLLISION; bits * bits];
        for o1 in 0..bits {
            for o2 in (o1 + 1)..bits {
                if let Some(slope) = rect.collision_slope(o1, o2) {
                    table[o1 * bits + o2] = slope as u16;
                    table[o2 * bits + o1] = slope as u16;
                }
            }
        }
        Self { table, bits }
    }

    /// Slope on which two distinct bits collide, if any.
    ///
    /// # Panics
    ///
    /// Panics if either offset is out of range or they are equal.
    #[must_use]
    pub fn collision_slope(&self, offset1: usize, offset2: usize) -> Option<usize> {
        assert!(
            offset1 < self.bits && offset2 < self.bits,
            "offset out of range"
        );
        assert_ne!(offset1, offset2, "a bit always collides with itself");
        let entry = self.table[offset1 * self.bits + offset2];
        (entry != NO_COLLISION).then_some(entry as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect() -> Rectangle {
        Rectangle::new(5, 7, 32).unwrap()
    }

    #[test]
    fn group_rom_matches_geometry() {
        let r = rect();
        let rom = GroupRom::new(&r);
        for slope in 0..r.slopes() {
            for offset in 0..r.bits() {
                assert_eq!(rom.group_of(offset, slope), r.group_of(offset, slope));
            }
        }
    }

    #[test]
    fn inversion_rom_masks_partition_the_block() {
        let r = rect();
        let rom = InversionRom::new(&r);
        for slope in 0..r.slopes() {
            let mut union = BitBlock::zeros(r.bits());
            let mut total = 0;
            for group in 0..r.groups() {
                let mask = rom.group_mask(slope, group);
                total += mask.count_ones();
                union |= mask;
            }
            assert_eq!(total, r.bits(), "groups overlap at slope {slope}");
            assert_eq!(union.count_ones(), r.bits());
        }
    }

    #[test]
    fn inversion_mask_unions_selected_groups() {
        let r = rect();
        let rom = InversionRom::new(&r);
        let mut vector = BitBlock::zeros(r.groups());
        vector.set(0, true);
        vector.set(3, true);
        let mask = rom.inversion_mask(2, &vector);
        let expected = rom.group_mask(2, 0) | rom.group_mask(2, 3);
        assert_eq!(mask, expected);
    }

    #[test]
    fn empty_vector_gives_empty_mask() {
        let r = rect();
        let rom = InversionRom::new(&r);
        assert_eq!(
            rom.inversion_mask(0, &BitBlock::zeros(r.groups()))
                .count_ones(),
            0
        );
    }

    #[test]
    fn shift_rom_words_mirror_the_inversion_rom() {
        let r = rect();
        let packed = ShiftRom::new(&r);
        let rom = InversionRom::new(&r);
        assert_eq!(packed.words_per_mask(), r.bits().div_ceil(64));
        for slope in 0..r.slopes() {
            for group in 0..r.groups() {
                assert_eq!(
                    packed.mask_words(slope, group),
                    rom.group_mask(slope, group).as_words()
                );
            }
        }
    }

    #[test]
    fn shift_rom_inversion_mask_agrees_with_the_block_level_rom() {
        let r = rect();
        let packed = ShiftRom::new(&r);
        let rom = InversionRom::new(&r);
        let mut vector = BitBlock::zeros(r.groups());
        vector.set(1, true);
        vector.set(4, true);
        vector.set(6, true);
        for slope in 0..r.slopes() {
            assert_eq!(
                packed.inversion_mask(slope, &vector),
                rom.inversion_mask(slope, &vector)
            );
        }
        let mut out = BitBlock::ones_block(r.bits());
        packed.inversion_mask_into(2, &BitBlock::zeros(r.groups()), &mut out);
        assert_eq!(out.count_ones(), 0, "the into-variant must clear first");
    }

    #[test]
    fn collision_rom_matches_geometry() {
        let r = rect();
        let rom = CollisionRom::new(&r);
        for o1 in 0..r.bits() {
            for o2 in 0..r.bits() {
                if o1 != o2 {
                    assert_eq!(rom.collision_slope(o1, o2), r.collision_slope(o1, o2));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "collides with itself")]
    fn collision_rom_rejects_identical_offsets() {
        let rom = CollisionRom::new(&rect());
        let _ = rom.collision_slope(3, 3);
    }

    #[test]
    fn hot_accessors_cover_every_boundary_index_exhaustively() {
        // The release-build range checks in `ShiftRom::mask_words` and
        // `InversionRom::group_mask` were demoted to `debug_assert!`; this
        // exhaustive small-width sweep pins that every in-range index —
        // including the extreme corners (0, 0), (0, groups-1),
        // (slopes-1, 0) and (slopes-1, groups-1) — resolves to the mask
        // the rectangle geometry defines, across formations whose group
        // counts differ per width (so a slope/group transposition or an
        // off-by-one in the flat index cannot cancel out).
        for (a, b, bits) in [(1usize, 3usize, 3usize), (2, 3, 6), (3, 5, 15), (5, 7, 32)] {
            let r = Rectangle::new(a, b, bits).unwrap();
            let packed = ShiftRom::new(&r);
            let rom = InversionRom::new(&r);
            assert_eq!(packed.slopes(), r.slopes());
            assert_eq!(packed.groups(), r.groups());
            for slope in 0..r.slopes() {
                for group in 0..r.groups() {
                    let expect = BitBlock::from_indices(bits, r.group_members(slope, group));
                    assert_eq!(
                        packed.mask_words(slope, group),
                        expect.as_words(),
                        "{a}x{b}/{bits} slope {slope} group {group}"
                    );
                    assert_eq!(
                        rom.group_mask(slope, group),
                        &expect,
                        "{a}x{b}/{bits} slope {slope} group {group}"
                    );
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ShiftRom index out of range")]
    fn mask_words_still_guards_ranges_in_debug_builds() {
        let r = rect();
        let packed = ShiftRom::new(&r);
        let _ = packed.mask_words(r.slopes(), 0);
    }
}
