//! Row-level sensing: the word-packed read path of a stored row.
//!
//! [`FaultPlan::read_bit`] and [`crate::majority_read_bit`] are the
//! reference semantics of a read, one cell at a time. Sensing a whole
//! row that way redraws the row's dead flag and every cell's stuck
//! hashes on each of the `reads + 1` calls per cell. This module splits
//! a read into its two halves:
//!
//! * the **permanent** half — dead flag, stuck mask, stuck values — is
//!   a pure function of `(seed, row)`. [`RowImage`] computes it once
//!   per physical row as packed words, and [`RowImages`] caches the
//!   images lazily, keyed by physical row;
//! * the **transient** half — variation flips — is a keyed hash of
//!   `(seed, SALT_FLIP, row, col, epoch)` whose lanes nest left to
//!   right. [`RowImage::sense`] folds the `(row, col)` prefix once per
//!   cell and finishes each of the `reads` draws with one more lane.
//!   The raw read is draw `j = 0` of the voting window (epoch
//!   `epoch · reads`), so it costs no extra hash.
//!
//! Both halves reproduce the reference bit for bit; the proptest in
//! this module pins that over random plans.

use crate::plan::{lane, splitmix, unit, FaultPlan, SALT_FLIP};
use dual_hdc::BitVec;

/// Bits per packed word.
const WORD: usize = 64;

/// The permanent faults of one physical row, as packed words.
///
/// Bit `c % 64` of word `c / 64` covers column `c` of the plan; columns
/// past the plan's width carry no stuck fault. A dead row keeps empty
/// masks: it reads zeros in every column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowImage {
    dead: bool,
    stuck_mask: Vec<u64>,
    stuck_value: Vec<u64>,
    fault_count: usize,
    /// `(seed, SALT_FLIP, row)` folded through the flip hash's lanes.
    flip_lane: u64,
}

/// What one [`RowImage::sense`] pass saw, against the stored bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenseCounts {
    /// Cells whose raw (single) read differs from the stored bit.
    pub raw_errors: u64,
    /// Cells whose sensed (majority-voted) bit differs from the stored
    /// bit — what reaches the reader after healing.
    pub errors: u64,
    /// Cells the raw read got wrong and the majority vote got right.
    pub healed: u64,
}

impl RowImage {
    /// Scan physical row `row` of `plan` once. O(cols) hashes, the same
    /// work as one [`FaultPlan::row_fault_count`]; rows outside the plan
    /// are fault-free, as in the point queries.
    #[must_use]
    pub fn build(plan: &FaultPlan, row: usize) -> Self {
        let flip_lane = lane(splitmix(plan.spec().seed ^ SALT_FLIP), row as u64);
        if plan.is_dead_row(row) {
            return Self {
                dead: true,
                stuck_mask: Vec::new(),
                stuck_value: Vec::new(),
                fault_count: plan.cols(),
                flip_lane,
            };
        }
        let words = plan.cols().div_ceil(WORD);
        let mut stuck_mask = vec![0u64; words];
        let mut stuck_value = vec![0u64; words];
        let mut fault_count = 0;
        for col in 0..plan.cols() {
            if let Some(bit) = plan.stuck_at(row, col) {
                stuck_mask[col / WORD] |= 1 << (col % WORD);
                stuck_value[col / WORD] |= u64::from(bit) << (col % WORD);
                fault_count += 1;
            }
        }
        Self {
            dead: false,
            stuck_mask,
            stuck_value,
            fault_count,
            flip_lane,
        }
    }

    /// Whether the whole row is dead.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Whether the row should move to a spare: it is dead, or holds at
    /// least `threshold` faulty cells.
    #[must_use]
    pub fn is_worn(&self, threshold: usize) -> bool {
        self.dead || self.fault_count >= threshold
    }

    /// Permanently faulty cells across the plan's full width: the
    /// stuck cells, or `cols` for a dead row
    /// ([`FaultPlan::row_fault_count`], cached).
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }

    /// Read `stored` from this row at logical `epoch`, majority-voting
    /// `reads` draws per cell at epochs `epoch · reads + j` (`reads` is
    /// forced odd, as in [`crate::majority_read_bit`]). Returns the
    /// sensed bits and the raw/healed/error counts.
    ///
    /// Bit for bit, cell `c` of the result is
    /// `majority_read_bit(plan, row, c, stored[c], epoch, reads)`, and
    /// its raw read is `plan.read_bit(row, c, stored[c], epoch · reads)`,
    /// where `row` is the physical row this image was built for and
    /// `plan` the plan it was built from.
    #[must_use]
    pub fn sense(
        &self,
        plan: &FaultPlan,
        stored: &BitVec,
        epoch: u64,
        reads: u32,
    ) -> (BitVec, SenseCounts) {
        let reads = reads.max(1) | 1;
        let window = epoch.wrapping_mul(u64::from(reads));
        let flip_rate = plan.spec().flip_rate;
        let dim = stored.len();
        let mut counts = SenseCounts::default();
        let mut out = Vec::with_capacity(stored.as_words().len());
        for (w, &bits) in stored.as_words().iter().enumerate() {
            let width = (dim - w * WORD).min(WORD);
            let live = if width == WORD {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let persistent = if self.dead {
                0
            } else {
                let mask = self.stuck_mask.get(w).copied().unwrap_or(0) & live;
                let value = self.stuck_value.get(w).copied().unwrap_or(0);
                (bits & !mask) | (value & mask)
            };
            let (mut raw_flips, mut vote_flips) = (0u64, 0u64);
            if flip_rate > 0.0 {
                for b in 0..width {
                    let cell = lane(self.flip_lane, (w * WORD + b) as u64);
                    let first = unit(lane(cell, window)) < flip_rate;
                    let mut flips = u32::from(first);
                    for j in 1..reads {
                        let epoch_j = window.wrapping_add(u64::from(j));
                        flips += u32::from(unit(lane(cell, epoch_j)) < flip_rate);
                    }
                    raw_flips |= u64::from(first) << b;
                    vote_flips |= u64::from(flips * 2 > reads) << b;
                }
            }
            let raw_wrong = (persistent ^ raw_flips) ^ bits;
            let wrong = (persistent ^ vote_flips) ^ bits;
            counts.raw_errors += u64::from(raw_wrong.count_ones());
            counts.errors += u64::from(wrong.count_ones());
            counts.healed += u64::from((raw_wrong & !wrong).count_ones());
            out.push(persistent ^ vote_flips);
        }
        (BitVec::from_words(out, dim), counts)
    }
}

/// Lazily built [`RowImage`]s of one plan, keyed by physical row.
///
/// An image is built on the first [`RowImages::get`] of its row and
/// kept for the cache's lifetime. The cache is derived state: it is
/// never serialized, and a restored owner starts empty and rebuilds
/// images as it senses. Every `get` on one cache must pass the same
/// plan.
#[derive(Debug, Clone, Default)]
pub struct RowImages {
    rows: Vec<Option<RowImage>>,
}

impl RowImages {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The image of physical `row` of `plan`, built on first use.
    pub fn get(&mut self, plan: &FaultPlan, row: usize) -> &RowImage {
        if row >= self.rows.len() {
            self.rows.resize_with(row + 1, || None);
        }
        self.rows[row].get_or_insert_with(|| RowImage::build(plan, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heal::majority_read_bit;
    use crate::plan::FaultPlanSpec;
    use proptest::prelude::*;

    /// The per-bit reference: sensed bits plus the counts, cell by cell
    /// through `read_bit` / `majority_read_bit`.
    fn reference(
        plan: &FaultPlan,
        row: usize,
        stored: &BitVec,
        epoch: u64,
        reads: u32,
    ) -> (BitVec, SenseCounts) {
        let mut counts = SenseCounts::default();
        let bits = (0..stored.len()).map(|c| {
            let s = stored.get(c);
            let raw = plan.read_bit(row, c, s, epoch.wrapping_mul(u64::from(reads)));
            let voted = majority_read_bit(plan, row, c, s, epoch, reads);
            counts.raw_errors += u64::from(raw != s);
            counts.errors += u64::from(voted != s);
            counts.healed += u64::from(raw != s && voted == s);
            voted
        });
        let bits: BitVec = bits.collect();
        (bits, counts)
    }

    fn stored_bits(dim: usize, seed: u64) -> BitVec {
        (0..dim)
            .map(|c| splitmix(seed ^ c as u64) & 1 == 1)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_row_kernel_matches_per_bit_reference(
            seed in 0u64..1_000_000,
            rows in 1usize..12,
            cols in 1usize..300,
            dim_delta in 0usize..140,
            stuck in 0.0f64..0.2,
            dead in 0.0f64..0.4,
            flip_pick in 0usize..4,
            reads_pick in 0usize..3,
            epoch_pick in 0usize..3,
            epoch in 0u64..1_000_000,
            wear in 0.0f64..0.5,
            forced in proptest::collection::vec(0usize..4096, 3),
        ) {
            // Dims narrower than, equal to and wider than the plan;
            // multiples of 64 and not.
            let dim = (cols + dim_delta).saturating_sub(70).max(1);
            let flip_rate = [0.0, 1.0, 0.01, 0.3][flip_pick];
            let reads = [1u32, 3, 5][reads_pick];
            let epoch = [epoch, u64::MAX - epoch % 4, u64::MAX / 3 + epoch][epoch_pick];
            let mut spec = FaultPlanSpec::clean(rows, cols);
            spec.seed = seed;
            spec.stuck_rate = stuck;
            spec.dead_row_rate = dead;
            spec.flip_rate = flip_rate;
            let plan = FaultPlan::new(spec).unwrap()
                .with_wear_rates(vec![wear; rows / 2]).unwrap()
                .with_stuck_cell(forced[0] % rows, forced[1] % cols, forced[2] % 2 == 0).unwrap()
                .with_dead_row(forced[2] % rows).unwrap();
            let mut images = RowImages::new();
            // One row past the plan: fault-free, flips still drawn.
            for row in 0..=rows {
                let stored = stored_bits(dim, seed ^ row as u64);
                let image = images.get(&plan, row);
                prop_assert_eq!(image.fault_count(), plan.row_fault_count(row));
                prop_assert_eq!(image.is_dead(), plan.is_dead_row(row));
                let got = image.sense(&plan, &stored, epoch, reads);
                let want = reference(&plan, row, &stored, epoch, reads);
                prop_assert_eq!(got, want, "row {} dim {} cols {}", row, dim, cols);
            }
        }
    }

    #[test]
    fn flip_rate_one_inverts_every_read() {
        let mut spec = FaultPlanSpec::clean(2, 70);
        spec.flip_rate = 1.0;
        let plan = FaultPlan::new(spec).unwrap().with_dead_row(1).unwrap();
        let stored = BitVec::ones(70);
        let (live, counts) = RowImage::build(&plan, 0).sense(&plan, &stored, 9, 3);
        assert_eq!(live.count_ones(), 0, "every read flips");
        assert_eq!(
            (counts.raw_errors, counts.errors, counts.healed),
            (70, 70, 0)
        );
        // A dead row reads zeros; the flip then reads them as ones.
        let (dead, counts) = RowImage::build(&plan, 1).sense(&plan, &stored, 9, 1);
        assert_eq!(dead, stored);
        assert_eq!(counts, SenseCounts::default());
    }

    #[test]
    fn images_are_cached_per_physical_row() {
        let plan = FaultPlan::fault_free(4, 8)
            .with_dead_row(2)
            .unwrap()
            .with_stuck_cell(1, 3, true)
            .unwrap();
        let mut images = RowImages::new();
        assert_eq!(images.get(&plan, 1).fault_count(), 1);
        assert!(images.get(&plan, 2).is_dead());
        assert_eq!(images.get(&plan, 2).fault_count(), 8);
        assert_eq!(images.get(&plan, 0).fault_count(), 0);
        assert_eq!(images.get(&plan, 9), &RowImage::build(&plan, 9));
        // Dead rows are worn at any threshold; stuck cells count up.
        assert!(images.get(&plan, 2).is_worn(100));
        assert!(images.get(&plan, 1).is_worn(1));
        assert!(!images.get(&plan, 1).is_worn(2));
    }
}
