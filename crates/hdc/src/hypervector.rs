//! The [`Hypervector`] newtype.

use crate::{BitVec, HdcError};
use std::fmt;

/// A `D`-dimensional binary hypervector — one encoded data point.
///
/// `Hypervector` wraps [`BitVec`] to carry the dimensionality contract
/// that the clustering layer relies on: all points in a dataset share the
/// same `D`, and distances are Hamming distances.
///
/// ```rust
/// use dual_hdc::{BitVec, Hypervector};
///
/// let a = Hypervector::from_bitvec(BitVec::ones(128));
/// let b = Hypervector::from_bitvec(BitVec::zeros(128));
/// assert_eq!(a.hamming(&b), 128);
/// assert_eq!(a.normalized_hamming(&b), 1.0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Hypervector {
    bits: BitVec,
}

impl Hypervector {
    /// Wrap an existing [`BitVec`] as a hypervector.
    #[must_use]
    pub fn from_bitvec(bits: BitVec) -> Self {
        Self { bits }
    }

    /// An all-zero hypervector of dimensionality `dim`.
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        Self {
            bits: BitVec::zeros(dim),
        }
    }

    /// Dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.bits.len()
    }

    /// Borrow the underlying bit storage.
    #[must_use]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Mutably borrow the underlying bit storage.
    #[must_use]
    pub fn bits_mut(&mut self) -> &mut BitVec {
        &mut self.bits
    }

    /// Extract the underlying [`BitVec`].
    #[must_use]
    pub fn into_bitvec(self) -> BitVec {
        self.bits
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ; see
    /// [`Hypervector::try_hamming`].
    #[must_use]
    pub fn hamming(&self, other: &Self) -> usize {
        self.bits.hamming(&other.bits)
    }

    /// Hamming distance, or an error when dimensionalities differ.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when `self.dim() !=
    /// other.dim()`.
    pub fn try_hamming(&self, other: &Self) -> Result<usize, HdcError> {
        self.bits
            .try_hamming(&other.bits)
            .ok_or(HdcError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            })
    }

    /// Hamming distance normalized to `[0, 1]` by the dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ or `D == 0`.
    #[must_use]
    pub fn normalized_hamming(&self, other: &Self) -> f64 {
        assert!(self.dim() > 0, "normalized distance needs D > 0");
        self.hamming(other) as f64 / self.dim() as f64
    }

    /// Cosine-like similarity in `[-1, 1]` derived from Hamming distance:
    /// `1 - 2·hamming/D`. Matching bits pull toward `+1`, disagreeing
    /// bits toward `-1`; random hypervectors sit near `0`.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ or `D == 0`.
    #[must_use]
    pub fn similarity(&self, other: &Self) -> f64 {
        1.0 - 2.0 * self.normalized_hamming(other)
    }

    /// Truncate to the first `dim` dimensions (the paper's dimension
    /// reduction study, Fig. 10b-d / Fig. 13, reuses prefixes of the same
    /// encoding rather than re-encoding).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if `dim` is zero or larger
    /// than the current dimensionality.
    pub fn truncated(&self, dim: usize) -> Result<Self, HdcError> {
        if dim == 0 || dim > self.dim() {
            return Err(HdcError::InvalidParameter {
                name: "dim",
                reason: "must be in 1..=current dimensionality",
            });
        }
        Ok(Self {
            bits: (0..dim).map(|i| self.bits.get(i)).collect(),
        })
    }
}

impl fmt::Debug for Hypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Hypervector(D={}, ones={})",
            self.dim(),
            self.bits.count_ones()
        )
    }
}

impl From<BitVec> for Hypervector {
    fn from(bits: BitVec) -> Self {
        Self::from_bitvec(bits)
    }
}

impl AsRef<BitVec> for Hypervector {
    fn as_ref(&self) -> &BitVec {
        &self.bits
    }
}

/// Majority-vote bundling of hypervectors: bit `i` of the result is 1
/// iff more than half of the inputs have bit `i` set (ties, possible for
/// an even count, resolve to 0, matching the paper's `sign(·)` mapping of
/// non-positive sums to 0).
///
/// This is the *binarized center update* of DUAL's k-means (§VI-C): the
/// accumulated per-dimension sums are thresholded so centers stay binary.
///
/// # Errors
///
/// Returns [`HdcError::InvalidParameter`] when `items` is empty and
/// [`HdcError::DimensionMismatch`] when dimensionalities differ.
pub fn majority_bundle(items: &[&Hypervector]) -> Result<Hypervector, HdcError> {
    let first = items.first().ok_or(HdcError::InvalidParameter {
        name: "items",
        reason: "must be non-empty",
    })?;
    let dim = first.dim();
    let mut counts = vec![0usize; dim];
    for hv in items {
        if hv.dim() != dim {
            return Err(HdcError::DimensionMismatch {
                left: dim,
                right: hv.dim(),
            });
        }
        for (i, c) in counts.iter_mut().enumerate() {
            *c += usize::from(hv.bits.get(i));
        }
    }
    let half = items.len();
    Ok(Hypervector::from_bitvec(
        counts.iter().map(|&c| 2 * c > half).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hv(bits: &[bool]) -> Hypervector {
        Hypervector::from_bitvec(BitVec::from_bits(bits.iter().copied()))
    }

    #[test]
    fn similarity_bounds() {
        let a = Hypervector::from_bitvec(BitVec::ones(64));
        let b = Hypervector::from_bitvec(BitVec::zeros(64));
        assert_eq!(a.similarity(&a), 1.0);
        assert_eq!(a.similarity(&b), -1.0);
    }

    #[test]
    fn try_hamming_mismatch() {
        let a = Hypervector::zeros(8);
        let b = Hypervector::zeros(9);
        assert_eq!(
            a.try_hamming(&b),
            Err(HdcError::DimensionMismatch { left: 8, right: 9 })
        );
    }

    #[test]
    fn truncated_prefix() {
        let a = hv(&[true, false, true, true]);
        let t = a.truncated(2).unwrap();
        assert_eq!(t.dim(), 2);
        assert!(t.bits().get(0));
        assert!(!t.bits().get(1));
        assert!(a.truncated(0).is_err());
        assert!(a.truncated(5).is_err());
    }

    #[test]
    fn majority_bundle_votes() {
        let a = hv(&[true, true, false]);
        let b = hv(&[true, false, false]);
        let c = hv(&[true, true, true]);
        let m = majority_bundle(&[&a, &b, &c]).unwrap();
        assert!(m.bits().get(0));
        assert!(m.bits().get(1));
        assert!(!m.bits().get(2));
    }

    #[test]
    fn majority_bundle_tie_resolves_to_zero() {
        let a = hv(&[true]);
        let b = hv(&[false]);
        let m = majority_bundle(&[&a, &b]).unwrap();
        assert!(!m.bits().get(0));
    }

    #[test]
    fn majority_bundle_empty_errors() {
        assert!(majority_bundle(&[]).is_err());
    }

    #[test]
    fn majority_bundle_dim_mismatch_errors() {
        let a = Hypervector::zeros(4);
        let b = Hypervector::zeros(5);
        assert!(majority_bundle(&[&a, &b]).is_err());
    }

    proptest! {
        #[test]
        fn prop_majority_of_identical_is_identity(bits in proptest::collection::vec(any::<bool>(), 1..128),
                                                  copies in 1usize..5) {
            let h = hv(&bits);
            let refs: Vec<&Hypervector> = std::iter::repeat_n(&h, copies).collect();
            let m = majority_bundle(&refs).unwrap();
            prop_assert_eq!(m, h);
        }

        #[test]
        fn prop_majority_result_within_hamming_ball(
            a in proptest::collection::vec(any::<bool>(), 16..64),
            flips in proptest::collection::vec(0usize..16, 0..4),
        ) {
            // Bundling an odd set {a, a', a''} with few flips stays closer
            // to a than the flipped inputs are to each other.
            let base = hv(&a);
            let mut b = base.clone();
            let mut c = base.clone();
            for &f in &flips {
                let ib = f % b.dim();
                b.bits_mut().flip(ib);
                let ic = (f * 7 + 3) % c.dim();
                c.bits_mut().flip(ic);
            }
            let m = majority_bundle(&[&base, &b, &c]).unwrap();
            prop_assert!(m.hamming(&base) <= b.hamming(&base) + c.hamming(&base));
        }
    }
}
