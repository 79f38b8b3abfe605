//! Order statistics over measured samples.

/// The `q`-quantile (`0 < q <= 1`) of `values` by nearest rank: the
/// smallest value with at least `q·n` values at or below it. Infinite
/// values (failed points) sort last, so a quantile that reaches them is
/// infinite. Returns `NaN` for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The median: mean of the two middle values for an even count.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn failed_points_push_the_tail_to_infinity() {
        let mut v: Vec<f64> = (1..=98).map(f64::from).collect();
        v.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(quantile(&v, 0.98), 98.0);
        assert!(quantile(&v, 0.99).is_infinite());
    }
}
