//! A faulted hypervector store: writes land through the fault plan,
//! reads see permanent faults plus per-epoch transient flips, and the
//! configured [`HealingPolicy`] decides what gets repaired.
//!
//! The store models the DUAL data array the way the hardware sees it:
//! the *pristine* hypervector is what the controller attempted to
//! write; every load resolves the logical row through the spare-row
//! remap table and senses the physical row through its cached
//! [`RowImage`](crate::RowImage) — bit for bit what
//! [`FaultPlan::read_bit`]/[`crate::majority_read_bit`] read cell by
//! cell. Nothing about a load depends on load order — only on
//! `(row, col, epoch)` — so the store is bit-identical across thread
//! counts by construction.

use crate::heal::{HealingPolicy, SpareRowPool};
use crate::plan::{FaultError, FaultPlan};
use crate::sense::RowImages;
use dual_hdc::Hypervector;
use std::collections::BTreeMap;

/// Running totals of fault activity observed through one store.
///
/// Callers mirror these into `dual_obs` (`fault.injected`,
/// `fault.healed`, ...) — the store itself stays obs-free so the crate
/// remains a leaf.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Bits that reached the reader corrupted (after healing).
    pub injected: u64,
    /// Bits a single read would have returned wrong but majority
    /// re-read repaired.
    pub healed: u64,
    /// Logical rows remapped onto spare rows.
    pub remapped: u64,
    /// Stores that had to land on a faulty row because the spare pool
    /// was exhausted (the caller should quarantine).
    pub degraded_stores: u64,
}

/// What happened to a single `store` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The row was healthy enough to use directly.
    Direct,
    /// The row was dead/over-worn and was remapped to this spare
    /// physical row.
    Remapped(usize),
    /// The row needed a remap but the spare pool is exhausted; the
    /// data was stored on the faulty row anyway.
    Degraded,
}

/// Hypervector store with fault injection on the read path and
/// policy-driven self-healing.
#[derive(Debug, Clone)]
pub struct FaultyStore {
    plan: FaultPlan,
    /// Cached permanent-fault images of `plan`'s physical rows.
    images: RowImages,
    policy: HealingPolicy,
    pool: SpareRowPool,
    data_rows: usize,
    remap_threshold: usize,
    rows: BTreeMap<usize, Hypervector>,
    stats: FaultStats,
}

impl FaultyStore {
    /// Build a store over `plan`, reserving the top `policy.spares()`
    /// physical rows as the spare pool. Fails if the plan has no data
    /// rows left after the reservation.
    pub fn new(plan: FaultPlan, policy: HealingPolicy) -> Result<Self, FaultError> {
        let spares = policy.spares();
        if plan.rows() <= spares {
            return Err(FaultError::InvalidSpec {
                name: "spares",
                reason: "spare pool consumes every row in the plan",
            });
        }
        let data_rows = plan.rows() - spares;
        let remap_threshold = plan.cols() / 100 + 1;
        Ok(Self {
            pool: SpareRowPool::new(data_rows, spares),
            data_rows,
            remap_threshold,
            plan,
            images: RowImages::new(),
            policy,
            rows: BTreeMap::new(),
            stats: FaultStats::default(),
        })
    }

    /// Override the stuck-cell count at which a live row is considered
    /// over-worn and remapped (default: >1% of columns).
    #[must_use]
    pub fn with_remap_threshold(mut self, threshold: usize) -> Self {
        self.remap_threshold = threshold.max(1);
        self
    }

    /// Logical rows addressable by callers (plan rows minus spares).
    #[must_use]
    pub fn data_rows(&self) -> usize {
        self.data_rows
    }

    /// The fault plan the store reads through.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The active healing policy.
    #[must_use]
    pub fn policy(&self) -> HealingPolicy {
        self.policy
    }

    /// The spare-row pool (for gauge export).
    #[must_use]
    pub fn pool(&self) -> &SpareRowPool {
        &self.pool
    }

    /// Fault-activity totals so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether `row` should be moved off its physical location.
    fn needs_remap(&mut self, physical: usize) -> bool {
        self.images
            .get(&self.plan, physical)
            .is_worn(self.remap_threshold)
    }

    /// Store `hv` at logical `row`. With spare-row healing enabled,
    /// dead or over-worn rows are remapped before the write lands.
    pub fn store(&mut self, row: usize, hv: Hypervector) -> Result<StoreOutcome, FaultError> {
        if row >= self.data_rows {
            return Err(FaultError::OutOfRange {
                what: "row",
                index: row,
                bound: self.data_rows,
            });
        }
        let outcome = if self.pool.is_remapped(row) {
            StoreOutcome::Remapped(self.pool.resolve(row))
        } else if self.needs_remap(row) && self.policy.spares() > 0 {
            match self
                .pool
                .remap_with_images(row, &self.plan, &mut self.images)
            {
                Some(spare) => {
                    self.stats.remapped += 1;
                    StoreOutcome::Remapped(spare)
                }
                None => {
                    self.stats.degraded_stores += 1;
                    StoreOutcome::Degraded
                }
            }
        } else if self.needs_remap(row) {
            self.stats.degraded_stores += 1;
            StoreOutcome::Degraded
        } else {
            StoreOutcome::Direct
        };
        self.rows.insert(row, hv);
        Ok(outcome)
    }

    /// Load logical `row` at `epoch`, reading every cell through the
    /// plan (and through majority re-read when the policy enables it).
    /// Returns `None` for rows never stored.
    pub fn load(&mut self, row: usize, epoch: u64) -> Option<Hypervector> {
        let pristine = self.rows.get(&row)?;
        let physical = self.pool.resolve(row);
        let image = self.images.get(&self.plan, physical);
        let (bits, counts) = image.sense(&self.plan, pristine.bits(), epoch, self.policy.reads());
        self.stats.injected += counts.errors;
        self.stats.healed += counts.healed;
        Some(Hypervector::from_bitvec(bits))
    }

    /// Rows currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heal::majority_read_bit;
    use crate::plan::FaultPlanSpec;
    use dual_hdc::BitVec;
    use proptest::prelude::*;

    fn ones_hv(dim: usize) -> Hypervector {
        Hypervector::from_bitvec(BitVec::ones(dim))
    }

    #[test]
    fn fault_free_store_round_trips() {
        let plan = FaultPlan::fault_free(8, 64);
        let mut store = FaultyStore::new(plan, HealingPolicy::Off).unwrap();
        let hv = ones_hv(64);
        assert_eq!(store.store(3, hv.clone()).unwrap(), StoreOutcome::Direct);
        assert_eq!(store.load(3, 7).unwrap(), hv);
        assert_eq!(store.stats(), FaultStats::default());
        assert!(store.load(2, 0).is_none());
    }

    #[test]
    fn dead_row_is_remapped_when_spares_exist() {
        let plan = FaultPlan::fault_free(8, 64).with_dead_row(1).unwrap();
        let mut store = FaultyStore::new(plan, HealingPolicy::SpareRows { spares: 2 }).unwrap();
        assert_eq!(store.data_rows(), 6);
        // Spare pool lives at physical rows 6..8.
        assert_eq!(
            store.store(1, ones_hv(64)).unwrap(),
            StoreOutcome::Remapped(6)
        );
        assert_eq!(store.load(1, 0).unwrap(), ones_hv(64));
        assert_eq!(store.stats().remapped, 1);
        assert_eq!(store.stats().injected, 0);
    }

    #[test]
    fn dead_row_without_spares_reads_zeros() {
        let plan = FaultPlan::fault_free(8, 64).with_dead_row(1).unwrap();
        let mut store = FaultyStore::new(plan, HealingPolicy::Off).unwrap();
        assert_eq!(store.store(1, ones_hv(64)).unwrap(), StoreOutcome::Degraded);
        let got = store.load(1, 0).unwrap();
        assert_eq!(got.bits().count_ones(), 0);
        assert_eq!(store.stats().injected, 64);
        assert_eq!(store.stats().degraded_stores, 1);
    }

    #[test]
    fn majority_reread_heals_and_counts() {
        let mut spec = FaultPlanSpec::clean(8, 2048);
        spec.seed = 9;
        spec.flip_rate = 0.1;
        let plan = FaultPlan::new(spec).unwrap();
        let mut healed_store =
            FaultyStore::new(plan.clone(), HealingPolicy::MajorityReread { reads: 5 }).unwrap();
        let mut raw_store = FaultyStore::new(plan, HealingPolicy::Off).unwrap();
        healed_store.store(0, ones_hv(2048)).unwrap();
        raw_store.store(0, ones_hv(2048)).unwrap();
        let _ = healed_store.load(0, 3);
        let _ = raw_store.load(0, 3);
        assert!(raw_store.stats().injected > 100, "flips land on raw reads");
        assert!(
            healed_store.stats().injected * 10 < raw_store.stats().injected,
            "healing crushes the error rate: {} vs {}",
            healed_store.stats().injected,
            raw_store.stats().injected
        );
        assert!(healed_store.stats().healed > 0);
    }

    #[test]
    fn loads_are_epoch_keyed_not_order_keyed() {
        let mut spec = FaultPlanSpec::clean(4, 512);
        spec.seed = 11;
        spec.flip_rate = 0.05;
        let plan = FaultPlan::new(spec).unwrap();
        let mut a = FaultyStore::new(plan.clone(), HealingPolicy::Off).unwrap();
        let mut b = FaultyStore::new(plan, HealingPolicy::Off).unwrap();
        a.store(0, ones_hv(512)).unwrap();
        a.store(1, ones_hv(512)).unwrap();
        b.store(0, ones_hv(512)).unwrap();
        b.store(1, ones_hv(512)).unwrap();
        // Different access order, same epochs: identical reads.
        let a0 = a.load(0, 42).unwrap();
        let a1 = a.load(1, 43).unwrap();
        let b1 = b.load(1, 43).unwrap();
        let b0 = b.load(0, 42).unwrap();
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
    }

    #[test]
    fn spare_reservation_must_leave_data_rows() {
        let plan = FaultPlan::fault_free(4, 8);
        assert!(FaultyStore::new(plan, HealingPolicy::SpareRows { spares: 4 }).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Loads through spare-row remaps read each physical row bit for
        /// bit as the per-cell reference does, and count the same
        /// injected/healed totals.
        #[test]
        fn prop_load_matches_per_bit_reference(
            seed in 0u64..1_000_000,
            rows in 4usize..14,
            cols in 1usize..200,
            dim_delta in 0usize..80,
            dead in 0.0f64..0.5,
            stuck in 0.0f64..0.05,
            flip in 0.0f64..0.2,
            policy_pick in 0usize..4,
            spares in 1usize..4,
            reads in 1u32..6,
            epoch in 0u64..u64::MAX,
        ) {
            let dim = (cols + dim_delta).saturating_sub(40).max(1);
            let policy = [
                HealingPolicy::Off,
                HealingPolicy::SpareRows { spares },
                HealingPolicy::MajorityReread { reads },
                HealingPolicy::Full { spares, reads },
            ][policy_pick];
            let mut spec = FaultPlanSpec::clean(rows, cols);
            spec.seed = seed;
            spec.dead_row_rate = dead;
            spec.stuck_rate = stuck;
            spec.flip_rate = flip;
            let plan = FaultPlan::new(spec).unwrap();
            let mut store = FaultyStore::new(plan.clone(), policy).unwrap()
                .with_remap_threshold(cols / 50 + 1);
            let data: Vec<Hypervector> = (0..store.data_rows())
                .map(|r| Hypervector::from_bitvec((0..dim).map(|c| (c * 7 + r) % 3 == 0).collect()))
                .collect();
            for (r, hv) in data.iter().enumerate() {
                store.store(r, hv.clone()).unwrap();
            }
            let reads = policy.reads();
            let (mut injected, mut healed) = (0u64, 0u64);
            for (r, hv) in data.iter().enumerate() {
                let physical = store.pool().resolve(r);
                let want: BitVec = (0..dim).map(|c| {
                    let s = hv.bits().get(c);
                    let single = plan.read_bit(physical, c, s, epoch.wrapping_mul(u64::from(reads)));
                    let seen = majority_read_bit(&plan, physical, c, s, epoch, reads);
                    injected += u64::from(seen != s);
                    healed += u64::from(reads > 1 && single != s && seen == s);
                    seen
                }).collect();
                let got = store.load(r, epoch).unwrap();
                prop_assert_eq!(got.bits(), &want, "row {}", r);
            }
            prop_assert_eq!((store.stats().injected, store.stats().healed), (injected, healed));
        }
    }
}
