//! The HD-Mapper: DUAL's non-linear RBF-inspired encoder (§III-A).

use crate::{bitvec::WORD_BITS, BitVec, Encoder, HdcError, Hypervector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

/// How the encoder evaluates the cosine non-linearity.
///
/// The algorithmic definition uses an exact cosine; the in-memory
/// implementation (§V-A) approximates it with the first three terms of
/// the Taylor expansion, `1 - y²/2 + y⁴/24`, after range reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CosineMode {
    /// Library cosine (`f64::cos`) — the algorithmic reference.
    #[default]
    Exact,
    /// Three-term Taylor expansion with quadrant folding, the behaviour
    /// of the PIM pipeline after its pre-scaling stage. Sign-accurate
    /// everywhere (max absolute error < 0.02 on the folded domain).
    Taylor3,
    /// Three-term Taylor expansion applied to the raw reduced angle in
    /// `[-π, π]` *without* quadrant folding — an ablation showing what
    /// happens if the hardware skipped the folding step (sign errors
    /// appear near `±π`).
    Taylor3Raw,
}

/// DUAL's HD-Mapper: encodes an `m`-feature point into a `D`-bit
/// hypervector via `h_i = sign(cos(B_i · F))` where each base vector
/// `B_i ∈ R^m` is sampled once from `N(0, 1)` (§III-A, Fig. 3).
///
/// The cosine non-linearity is what distinguishes the HD-Mapper from
/// plain sign-random-projection LSH and is responsible for the quality
/// gap in Fig. 10b-d: it approximates the RBF kernel feature map of
/// Rahimi & Recht (2008), so *non-linearly* separable structure in the
/// original space becomes linearly (Hamming-) separable in HD space.
///
/// ```rust
/// use dual_hdc::{CosineMode, Encoder, HdMapper};
///
/// # fn main() -> Result<(), dual_hdc::HdcError> {
/// let mapper = HdMapper::builder(2000, 4)
///     .seed(42)
///     .sigma(2.0)
///     .cosine_mode(CosineMode::Taylor3)
///     .build()?;
/// let hv = mapper.encode(&[1.0, 0.0, -1.0, 0.5])?;
/// assert_eq!(hv.dim(), 2000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HdMapper {
    /// Feature-major `m × D` base matrix: `base_t[j·D + i] = B_i[j]`.
    base_t: Vec<f64>,
    dim: usize,
    n_features: usize,
    sigma: f64,
    mode: CosineMode,
}

/// Builder for [`HdMapper`]; see [`HdMapper::builder`].
#[derive(Debug, Clone)]
pub struct HdMapperBuilder {
    dim: usize,
    n_features: usize,
    seed: u64,
    sigma: f64,
    mode: CosineMode,
}

impl HdMapperBuilder {
    /// Seed of the deterministic base-vector generator (base vectors are
    /// generated once offline and reused; §III-A).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Kernel bandwidth σ of the approximated RBF kernel: projections
    /// are scaled by `1/σ` before the cosine. Larger σ makes the encoder
    /// smoother (coarser clusters); must be positive and finite.
    #[must_use]
    pub fn sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Select the cosine evaluation strategy.
    #[must_use]
    pub fn cosine_mode(mut self, mode: CosineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Build the mapper, sampling the base matrix.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] when `dim` or `n_features`
    /// is zero, or σ is non-positive/non-finite.
    pub fn build(self) -> Result<HdMapper, HdcError> {
        if self.dim == 0 {
            return Err(HdcError::InvalidParameter {
                name: "dim",
                reason: "must be positive",
            });
        }
        if self.n_features == 0 {
            return Err(HdcError::InvalidParameter {
                name: "n_features",
                reason: "must be positive",
            });
        }
        if !(self.sigma.is_finite() && self.sigma > 0.0) {
            return Err(HdcError::InvalidParameter {
                name: "sigma",
                reason: "must be positive and finite",
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let normal = Normal::new(0.0, 1.0).expect("unit normal is valid");
        // Draw in the row-major order `B_0[0], B_0[1], …, B_1[0], …` so
        // the seed → base-vector mapping is layout-independent.
        let mut base_t = vec![0.0; self.dim * self.n_features];
        for i in 0..self.dim {
            for j in 0..self.n_features {
                base_t[j * self.dim + i] = normal.sample(&mut rng);
            }
        }
        Ok(HdMapper {
            base_t,
            dim: self.dim,
            n_features: self.n_features,
            sigma: self.sigma,
            mode: self.mode,
        })
    }
}

impl HdMapper {
    /// Start building a mapper for `dim`-bit hypervectors over
    /// `n_features`-dimensional inputs.
    #[must_use]
    pub fn builder(dim: usize, n_features: usize) -> HdMapperBuilder {
        HdMapperBuilder {
            dim,
            n_features,
            seed: 0x5eed,
            sigma: 1.0,
            mode: CosineMode::Exact,
        }
    }

    /// Convenience constructor with defaults (`σ = 1`, exact cosine).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] when `dim` or `n_features`
    /// is zero.
    pub fn new(dim: usize, n_features: usize, seed: u64) -> Result<Self, HdcError> {
        Self::builder(dim, n_features).seed(seed).build()
    }

    /// The kernel bandwidth σ.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The configured cosine evaluation mode.
    #[must_use]
    pub fn cosine_mode(&self) -> CosineMode {
        self.mode
    }

    /// Base vector `B_i` (column `i` of the feature-major base
    /// matrix), yielding its `m` components in feature order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn base_vector(&self, i: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        assert!(i < self.dim, "base vector index out of range");
        self.base_t[i..].iter().step_by(self.dim).copied()
    }

    /// The raw (pre-binarization) encoding `h_i = cos(B_i·F/σ)` — exposed
    /// because the PIM encoding pipeline (§V-A) operates on exactly this
    /// intermediate before taking the sign bit. Evaluates the configured
    /// [`CosineMode`] through [`f64::cos`] for `Exact`: this is the
    /// reference [`Encoder::encode`] is bit-identical to.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureLength`] on a feature-count mismatch.
    pub fn project(&self, features: &[f64]) -> Result<Vec<f64>, HdcError> {
        let mut h = self.angles(features)?;
        for x in &mut h {
            *x = eval_cosine(*x, self.mode);
        }
        Ok(h)
    }

    /// The projection kernel shared by [`HdMapper::project`] and
    /// [`Encoder::encode`]: the angles `B_i·F/σ` for every dimension.
    ///
    /// Each dimension's dot product is accumulated over features
    /// `j = 0..m` in order from `-0.0` (the exact additive identity, as
    /// in `Iterator::sum`), then scaled by `1/σ` — the same operations
    /// in the same order as a per-dimension `Σ_j B_i[j]·F[j]`, so every
    /// angle is bit-identical to the row-at-a-time form while the inner
    /// loops run across contiguous dimensions and vectorize. Features
    /// are taken four at a time so each accumulator is loaded and
    /// stored once per four multiply-adds.
    fn angles(&self, features: &[f64]) -> Result<Vec<f64>, HdcError> {
        if features.len() != self.n_features {
            return Err(HdcError::FeatureLength {
                expected: self.n_features,
                got: features.len(),
            });
        }
        let d = self.dim;
        let mut acc = vec![-0.0; d];
        for (rows, f) in self
            .base_t
            .chunks_exact(4 * d)
            .zip(features.chunks_exact(4))
        {
            let (r0, rest) = rows.split_at(d);
            let (r1, rest) = rest.split_at(d);
            let (r2, r3) = rest.split_at(d);
            for ((((a, &b0), &b1), &b2), &b3) in acc.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                *a = (((*a + b0 * f[0]) + b1 * f[1]) + b2 * f[2]) + b3 * f[3];
            }
        }
        let done = features.len() / 4 * 4;
        for (row, &f) in self.base_t[done * d..]
            .chunks_exact(d)
            .zip(&features[done..])
        {
            for (a, &b) in acc.iter_mut().zip(row) {
                *a += b * f;
            }
        }
        let inv_sigma = 1.0 / self.sigma;
        for a in &mut acc {
            *a *= inv_sigma;
        }
        Ok(acc)
    }
}

impl Encoder for HdMapper {
    fn dim(&self) -> usize {
        self.dim
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn encode(&self, features: &[f64]) -> Result<Hypervector, HdcError> {
        let words: Vec<u64> = self
            .angles(features)?
            .chunks(WORD_BITS)
            .map(|block| match self.mode {
                CosineMode::Exact => cos_positive_word(block),
                mode => pack_word(block.iter().map(|&x| eval_cosine(x, mode) > 0.0)),
            })
            .collect();
        // Counted here (not in `encode_batch`, which delegates) so
        // every successfully encoded hypervector is counted exactly
        // once regardless of the entry point.
        dual_obs::Obs::global().add(dual_obs::Key::HdcEncoded, 1);
        let bits = BitVec::from_words(words, self.dim);
        Ok(Hypervector::from_bitvec(bits))
    }
}

/// Pack up to 64 booleans LSB-first into one word.
fn pack_word(bits: impl Iterator<Item = bool>) -> u64 {
    bits.enumerate()
        .fold(0, |word, (k, bit)| word | (u64::from(bit) << k))
}

/// `1/2π`, the turns-per-radian scale of the quadrant test.
const INV_TAU: f64 = 1.0 / std::f64::consts::TAU;
/// `1.5·2⁵²`: `(t + M) − M` rounds any `|t| < 2⁵¹` to the nearest
/// integer, ties to even, in two IEEE operations (`f64::round` is a
/// libm call on baseline x86-64).
const RNE_MAGIC: f64 = 6_755_399_441_055_744.0;
/// Turns beyond which the quadrant test defers to libm.
const FAST_TURNS_LIMIT: f64 = 1_048_576.0; // 2^20
/// Half-width of the band around the quadrant edge that defers to libm.
const EDGE_BAND: f64 = 1e-9;

/// `cos(x) > 0.0` for each angle in `angles` (at most 64), packed
/// LSB-first — bit-identical to [`f64::cos`], which is only called for
/// the angles [`turn_distance`] cannot decide.
fn cos_positive_word(angles: &[f64]) -> u64 {
    let mut dist = [0.0f64; WORD_BITS];
    for (r, &x) in dist.iter_mut().zip(angles) {
        *r = turn_distance(x);
    }
    let mut word = 0u64;
    let mut deferred = 0u64;
    for (k, &r) in dist[..angles.len()].iter().enumerate() {
        word |= u64::from(r < 0.25) << k;
        deferred |= u64::from(r.is_nan()) << k;
    }
    while deferred != 0 {
        let k = deferred.trailing_zeros();
        word |= u64::from(angles[k as usize].cos() > 0.0) << k;
        deferred &= deferred - 1;
    }
    word
}

/// Branch-free quadrant test: the distance `r ∈ [0, ½]` from `x/2π` to
/// the nearest whole turn, so that `cos(x) > 0 ⇔ r < ¼`, or NaN when
/// the test cannot decide.
///
/// The computed `t = x·(1/2π)` carries two roundings (of `1/2π` and of
/// the product), so for `|t| < 2²⁰` it is within `2⁻⁵²·|t| < 2.4e-10`
/// of the true `x/2π`. `t − rne(t)` and the absolute value are exact,
/// and the distance to the nearest integer is 1-Lipschitz, so `r` is
/// within `2.4e-10` of the true distance. Outside the `±1e-9` band
/// around `¼` the sign of `r − ¼` is therefore the true sign of
/// `cos x`, whose magnitude there exceeds `2π·7.6e-10 ≈ 4.8e-9` — far
/// above libm's error, so libm agrees. Inside the band, for
/// `|t| ≥ 2²⁰`, and for NaN/±∞ inputs (every comparison with NaN is
/// false) the result is NaN and the caller asks libm.
fn turn_distance(x: f64) -> f64 {
    let t = x * INV_TAU;
    let r = (t - ((t + RNE_MAGIC) - RNE_MAGIC)).abs();
    if t.abs() < FAST_TURNS_LIMIT && (r - 0.25).abs() > EDGE_BAND {
        r
    } else {
        f64::NAN
    }
}

/// Evaluate the configured cosine approximation on an arbitrary angle.
#[must_use]
pub(crate) fn eval_cosine(x: f64, mode: CosineMode) -> f64 {
    match mode {
        CosineMode::Exact => x.cos(),
        CosineMode::Taylor3 => taylor3_folded(x),
        CosineMode::Taylor3Raw => taylor3_poly(reduce_to_pi(x)),
    }
}

/// Range-reduce to `[-π, π]`.
fn reduce_to_pi(x: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    let mut r = x % TAU;
    if r > PI {
        r -= TAU;
    } else if r < -PI {
        r += TAU;
    }
    r
}

/// Quadrant-folded 3-term Taylor cosine: reduce to `[-π, π]`, then use
/// `cos(x) = -cos(π - |x|)` to land the polynomial argument in
/// `[-π/2, π/2]` where three terms are sign-accurate.
fn taylor3_folded(x: f64) -> f64 {
    use std::f64::consts::{FRAC_PI_2, PI};
    let r = reduce_to_pi(x).abs();
    if r <= FRAC_PI_2 {
        taylor3_poly(r)
    } else {
        -taylor3_poly(PI - r)
    }
}

/// `1 - y²/2 + y⁴/24` — the first three terms of the cosine expansion,
/// exactly what the in-memory pipeline computes with two squarings, two
/// constant multiplies, and an add/subtract chain (§V-A).
fn taylor3_poly(y: f64) -> f64 {
    let y2 = y * y;
    1.0 - y2 / 2.0 + y2 * y2 / 24.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builder_rejects_bad_params() {
        assert!(HdMapper::builder(0, 3).build().is_err());
        assert!(HdMapper::builder(10, 0).build().is_err());
        assert!(HdMapper::builder(10, 3).sigma(0.0).build().is_err());
        assert!(HdMapper::builder(10, 3).sigma(f64::NAN).build().is_err());
    }

    #[test]
    fn encode_is_deterministic_per_seed() {
        let m1 = HdMapper::new(256, 5, 9).unwrap();
        let m2 = HdMapper::new(256, 5, 9).unwrap();
        let f = [0.3, -0.2, 1.5, 0.0, 2.0];
        assert_eq!(m1.encode(&f).unwrap(), m2.encode(&f).unwrap());
    }

    #[test]
    fn different_seeds_give_different_encodings() {
        let m1 = HdMapper::new(512, 5, 1).unwrap();
        let m2 = HdMapper::new(512, 5, 2).unwrap();
        let f = [0.3, -0.2, 1.5, 0.0, 2.0];
        let h1 = m1.encode(&f).unwrap();
        let h2 = m2.encode(&f).unwrap();
        // Independent encoders should disagree on ~half the bits.
        let d = h1.hamming(&h2);
        assert!(d > 128 && d < 384, "distance {d} not near D/2");
    }

    #[test]
    fn encode_rejects_wrong_feature_count() {
        let m = HdMapper::new(64, 3, 0).unwrap();
        assert_eq!(
            m.encode(&[1.0, 2.0]),
            Err(HdcError::FeatureLength {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn nearby_points_are_closer_than_far_points() {
        let m = HdMapper::builder(4000, 8)
            .seed(3)
            .sigma(4.0)
            .build()
            .unwrap();
        let a = [1.0, 2.0, 0.0, -1.0, 0.5, 0.2, 1.1, -0.4];
        let mut near = a;
        near[0] += 0.05;
        let far = [-3.0, 8.0, 5.0, 4.0, -6.0, 2.0, -9.0, 7.0];
        let ha = m.encode(&a).unwrap();
        let hn = m.encode(&near).unwrap();
        let hf = m.encode(&far).unwrap();
        assert!(ha.hamming(&hn) < ha.hamming(&hf));
    }

    #[test]
    fn taylor3_folded_matches_cos_sign_everywhere() {
        for k in -1000..1000 {
            let x = k as f64 * 0.013;
            let exact = x.cos();
            let approx = taylor3_folded(x);
            if exact.abs() > 0.05 {
                assert_eq!(
                    exact > 0.0,
                    approx > 0.0,
                    "sign mismatch at x={x}: cos={exact}, taylor={approx}"
                );
            }
        }
    }

    #[test]
    fn taylor3_raw_has_sign_errors_near_pi() {
        // The ablation mode must actually exhibit the failure it models.
        let x = std::f64::consts::PI * 0.98;
        assert!(x.cos() < 0.0);
        assert!(eval_cosine(x, CosineMode::Taylor3Raw) > 0.0);
    }

    #[test]
    fn taylor3_is_close_on_folded_domain() {
        for k in 0..100 {
            let x = -std::f64::consts::PI + k as f64 * (std::f64::consts::TAU / 100.0);
            assert!((taylor3_folded(x) - x.cos()).abs() < 0.02, "x={x}");
        }
    }

    #[test]
    fn batch_encode_matches_single() {
        let m = HdMapper::new(128, 2, 0).unwrap();
        let rows = vec![vec![1.0, 2.0], vec![-1.0, 0.5]];
        let batch = m.encode_batch(&rows).unwrap();
        assert_eq!(batch[0], m.encode(&rows[0]).unwrap());
        assert_eq!(batch[1], m.encode(&rows[1]).unwrap());
    }

    /// The libm reference `cos(x) > 0.0`, packed like `cos_positive_word`.
    fn libm_word(angles: &[f64]) -> u64 {
        pack_word(angles.iter().map(|&x| x.cos() > 0.0))
    }

    /// Assert the quadrant test agrees with libm on every angle, fed
    /// through the packed-word path in 64-angle blocks (so deferred
    /// lanes are patched in place among decided ones).
    fn assert_matches_libm(angles: &[f64]) {
        for block in angles.chunks(WORD_BITS) {
            let (fast, libm) = (cos_positive_word(block), libm_word(block));
            if fast != libm {
                let k = (fast ^ libm).trailing_zeros() as usize;
                panic!(
                    "sign mismatch at x={:e} ({:#x})",
                    block[k],
                    block[k].to_bits()
                );
            }
        }
    }

    /// `2·steps + 1` consecutive doubles centred on `x` (never crossing
    /// zero for the magnitudes used here).
    fn ulp_walk(x: f64, steps: u64) -> impl Iterator<Item = f64> {
        let bits = x.to_bits();
        (bits - steps..=bits + steps).map(f64::from_bits)
    }

    #[test]
    fn quadrant_test_matches_libm_around_every_zero_of_cos() {
        // ±4096 ulps around the double nearest (k+½)π for k in
        // -4096..4096: for large |k| the walk crosses the ±1e-9 edge
        // band, so both the fast and the deferred lanes are covered.
        let mut walk = Vec::with_capacity(8193);
        for k in -4096..4096 {
            walk.clear();
            walk.extend(ulp_walk((f64::from(k) + 0.5) * std::f64::consts::PI, 4096));
            assert_matches_libm(&walk);
        }
    }

    #[test]
    fn quadrant_test_matches_libm_at_the_domain_edges() {
        use std::f64::consts::TAU;
        let limit = FAST_TURNS_LIMIT * TAU;
        for x in [
            limit,
            -limit,
            limit + 0.25 * TAU,
            limit - 0.25 * TAU,
            1e300,
            -1e300,
            1e17,
        ] {
            let walk: Vec<f64> = ulp_walk(x, 512).collect();
            assert_matches_libm(&walk);
        }
        let special = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        assert_matches_libm(&special);
        assert_eq!(
            cos_positive_word(&special[..6]),
            0b11_1111,
            "cos ≈ 1 near zero"
        );
        // NaN and ±∞ have no cosine: their bit is 0, exactly as libm's NaN gives.
        let undefined = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        assert_eq!(cos_positive_word(&undefined), 0);
        assert_eq!(libm_word(&undefined), 0);
    }

    #[test]
    fn non_finite_features_encode_to_zero_bits() {
        let m = HdMapper::new(200, 3, 1).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let h = m.encode(&[1.0, bad, -2.0]).unwrap();
            assert_eq!(h.dim(), 200);
            assert_eq!(h.bits().count_ones(), 0, "feature {bad}");
        }
    }

    #[test]
    fn base_vector_iterates_the_row_major_draw_order() {
        // Column i of the feature-major matrix is B_i, drawn as the
        // i-th run of m consecutive unit normals.
        let m = HdMapper::new(5, 3, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let normal = Normal::new(0.0, 1.0).unwrap();
        for i in 0..5 {
            let drawn: Vec<f64> = (0..3).map(|_| normal.sample(&mut rng)).collect();
            assert_eq!(m.base_vector(i).len(), 3);
            assert_eq!(m.base_vector(i).collect::<Vec<_>>(), drawn);
        }
    }

    proptest! {
        #[test]
        fn prop_encode_is_the_sign_of_project(dim in 1usize..600, nf in 1usize..20,
                                             sigma in 0.01f64..50.0, seed in 0u64..1000,
                                             feats in proptest::collection::vec(-1e3f64..1e3, 20)) {
            let f = &feats[..nf];
            for mode in [CosineMode::Exact, CosineMode::Taylor3, CosineMode::Taylor3Raw] {
                let m = HdMapper::builder(dim, nf).seed(seed).sigma(sigma)
                    .cosine_mode(mode).build().unwrap();
                let h = m.project(f).unwrap();
                // project() is the row-at-a-time reference, value for value.
                for (i, &hi) in h.iter().enumerate() {
                    let dot: f64 = m.base_vector(i).zip(f).map(|(b, x)| b * x).sum();
                    prop_assert_eq!(hi.to_bits(), eval_cosine(dot * (1.0 / sigma), mode).to_bits());
                }
                let expected: BitVec = h.iter().map(|&x| x > 0.0).collect();
                let got = m.encode(f).unwrap();
                prop_assert_eq!(got.bits(), &expected);
            }
        }

        #[test]
        fn prop_encoding_dim_always_matches(dim in 1usize..512, nf in 1usize..8,
                                            feats in proptest::collection::vec(-10.0f64..10.0, 8)) {
            let m = HdMapper::new(dim, nf, 7).unwrap();
            let h = m.encode(&feats[..nf]).unwrap();
            prop_assert_eq!(h.dim(), dim);
        }

        #[test]
        fn prop_scaling_features_and_sigma_is_invariant(scale in 0.1f64..10.0,
                                                        feats in proptest::collection::vec(-3.0f64..3.0, 4)) {
            // encode(F; σ) == encode(c·F; c·σ) because only F/σ enters.
            let m1 = HdMapper::builder(128, 4).seed(5).sigma(1.0).build().unwrap();
            let m2 = HdMapper::builder(128, 4).seed(5).sigma(scale).build().unwrap();
            let scaled: Vec<f64> = feats.iter().map(|f| f * scale).collect();
            prop_assert_eq!(m1.encode(&feats).unwrap(), m2.encode(&scaled).unwrap());
        }

        #[test]
        fn prop_taylor3_sign_agrees_with_cos(x in -50.0f64..50.0) {
            let exact = x.cos();
            prop_assume!(exact.abs() > 0.05);
            prop_assert_eq!(exact > 0.0, taylor3_folded(x) > 0.0);
        }
    }
}
