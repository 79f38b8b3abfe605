//! Decayed per-centroid bit-count accumulator — the shared center
//! update primitive of batch and streaming Hamming k-means.
//!
//! DUAL's binary k-means re-binarizes each center by majority vote over
//! its members (§VI-C); the streaming engine (`dual-stream`) maintains
//! the same per-dimension one-counts *online*, with an exponential
//! decay applied between mini-batches so stale history fades (the
//! MEMHD-style multi-centroid memory keeps one accumulator per
//! sub-centroid). Both paths call [`CentroidAccumulator::majority`],
//! so their tie-breaking (`2·count > weight` → ties resolve to 0) is
//! identical by construction, and with `decay == 1.0` the streaming
//! update degenerates to exactly the batch majority vote: counts and
//! weights are then small integers, which `f64` represents exactly.

use dual_hdc::{BitVec, Hypervector};

/// Decayed per-dimension one-counts plus a decayed member weight for a
/// single centroid.
///
/// ```rust
/// use dual_cluster::CentroidAccumulator;
/// use dual_hdc::{BitVec, Hypervector};
///
/// let mut acc = CentroidAccumulator::new(4);
/// acc.add(&Hypervector::from_bitvec(BitVec::ones(4)));
/// acc.add(&Hypervector::from_bitvec(BitVec::ones(4)));
/// acc.add(&Hypervector::from_bitvec(BitVec::zeros(4)));
/// let center = acc.majority().unwrap();
/// assert_eq!(center.bits().count_ones(), 4); // 2 of 3 vote 1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidAccumulator {
    counts: Vec<f64>,
    weight: f64,
}

impl CentroidAccumulator {
    /// An empty accumulator for `dim`-bit hypervectors.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            counts: vec![0.0; dim],
            weight: 0.0,
        }
    }

    /// Rebuild an accumulator from previously exported state — the
    /// snapshot-restore path. `counts` and `weight` are taken verbatim
    /// (bit-for-bit), so a restored accumulator votes exactly like the
    /// one [`Self::counts`]/[`Self::weight`] were read from.
    #[must_use]
    pub fn from_parts(counts: Vec<f64>, weight: f64) -> Self {
        Self { counts, weight }
    }

    /// Dimensionality `D` of the accumulated hypervectors.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.counts.len()
    }

    /// The decayed per-dimension one-counts (the numerators of the
    /// majority vote), for snapshotting.
    #[must_use]
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Decayed member weight (the denominator of the majority vote).
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Whether no effective mass remains (never added to, cleared, or
    /// decayed to nothing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weight <= 0.0
    }

    /// Multiply the accumulated counts and weight by `factor` — the
    /// between-batch forgetting step of streaming k-means. `1.0` is a
    /// no-op (the batch semantics); values in `(0, 1)` fade history.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not in `(0, 1]` (a zero or negative
    /// factor silently erases state; callers should [`Self::clear`]).
    pub fn decay(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "decay factor must be in (0, 1], got {factor}"
        );
        if (factor - 1.0).abs() < f64::EPSILON {
            return; // keep integer counts bit-exact in the batch case
        }
        for c in &mut self.counts {
            *c *= factor;
        }
        self.weight *= factor;
    }

    /// Fold one member into the accumulator with unit weight.
    ///
    /// # Panics
    ///
    /// Panics on a dimensionality mismatch.
    pub fn add(&mut self, hv: &Hypervector) {
        assert_eq!(
            hv.dim(),
            self.dim(),
            "accumulator dim {} vs hypervector dim {}",
            self.dim(),
            hv.dim()
        );
        let bits = hv.bits();
        for (i, c) in self.counts.iter_mut().enumerate() {
            *c += f64::from(u8::from(bits.get(i)));
        }
        self.weight += 1.0;
    }

    /// Reset to the empty state.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0.0);
        self.weight = 0.0;
    }

    /// Majority re-binarization: bit `i` of the result is 1 iff more
    /// than half of the (decayed) member weight voted 1 — `2·count >
    /// weight`, so exact ties resolve to 0, matching
    /// [`dual_hdc::majority_bundle`]'s mapping of non-positive signs.
    /// Returns `None` when the accumulator holds no mass.
    #[must_use]
    pub fn majority(&self) -> Option<Hypervector> {
        if self.is_empty() {
            return None;
        }
        let bits: BitVec = self.counts.iter().map(|&c| 2.0 * c > self.weight).collect();
        Some(Hypervector::from_bitvec(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_hdc::majority_bundle;
    use proptest::prelude::*;

    fn hv(bits: &[bool]) -> Hypervector {
        Hypervector::from_bitvec(BitVec::from_bits(bits.iter().copied()))
    }

    #[test]
    fn empty_accumulator_has_no_majority() {
        let acc = CentroidAccumulator::new(16);
        assert!(acc.is_empty());
        assert_eq!(acc.majority(), None);
    }

    #[test]
    fn tie_resolves_to_zero_like_majority_bundle() {
        let a = hv(&[true]);
        let b = hv(&[false]);
        let mut acc = CentroidAccumulator::new(1);
        acc.add(&a);
        acc.add(&b);
        let got = acc.majority().unwrap();
        let want = majority_bundle(&[&a, &b]).unwrap();
        assert_eq!(got, want);
        assert!(!got.bits().get(0));
    }

    #[test]
    fn decay_fades_old_votes() {
        let mut acc = CentroidAccumulator::new(2);
        // Two old all-ones votes, strongly decayed, then one fresh zero.
        acc.add(&hv(&[true, true]));
        acc.add(&hv(&[true, true]));
        acc.decay(0.1);
        acc.add(&hv(&[false, false]));
        // Fresh weight 1.0 vs decayed ones-count 0.2 each: zeros win.
        let m = acc.majority().unwrap();
        assert_eq!(m.bits().count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn decay_rejects_zero_factor() {
        CentroidAccumulator::new(4).decay(0.0);
    }

    #[test]
    #[should_panic(expected = "accumulator dim")]
    fn add_rejects_dim_mismatch() {
        let mut acc = CentroidAccumulator::new(4);
        acc.add(&Hypervector::zeros(5));
    }

    #[test]
    fn clear_resets_state() {
        let mut acc = CentroidAccumulator::new(3);
        acc.add(&hv(&[true, false, true]));
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.majority(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_undecayed_majority_matches_majority_bundle(
            rows in proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), 24), 1..12),
        ) {
            let hvs: Vec<Hypervector> = rows.iter().map(|r| hv(r)).collect();
            let refs: Vec<&Hypervector> = hvs.iter().collect();
            let mut acc = CentroidAccumulator::new(24);
            for h in &hvs {
                acc.decay(1.0);
                acc.add(h);
            }
            prop_assert_eq!(acc.majority(), majority_bundle(&refs).ok());
        }
    }
}
