//! Exact order statistics over a kept sample vector. No histogram, no
//! interpolation: a percentile is one of the samples.

/// The `q`-quantile (`0 < q <= 1`) by the nearest-rank rule: the
/// smallest sample with at least `q` of the samples at or below it.
/// Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty() && q > 0.0 && q <= 1.0);
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of the values: the middle one, or the mean of the two middle
/// ones. This is what every repetition's numbers are folded with.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, by the inclusive-less method of Python's
/// `statistics.quantiles(values, n=4)` — the spread the benchmark's
/// contract is judged by.
pub fn iqr_share(values: &[f64]) -> f64 {
    assert!(values.len() >= 2);
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let quartile = |i: usize| {
        let pos = i as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_exact() {
        let mut s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut s, 0.5), 50.0);
        assert_eq!(percentile(&mut s, 0.99), 99.0);
        assert_eq!(percentile(&mut s, 1.0), 100.0);
        assert_eq!(percentile(&mut s, 0.001), 1.0);
        let mut one = [7.0];
        assert_eq!(percentile(&mut one, 0.99), 7.0);
        // 1000 samples: exactly ten lie beyond the 99th percentile.
        let mut k: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&mut k, 0.99);
        assert_eq!(k.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }
}
