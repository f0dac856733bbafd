//! Order statistics for the reported numbers.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller reports at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the acceptance procedure is stated in those terms.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let m = n + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, if that percentile lies above the median. With fewer than
/// 21 samples there is none and only the median is reported.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 11 {
        return None;
    }
    let p = ((n - 10) * 100 / n) as u32;
    (p > 50).then_some(p)
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "percentile of no samples");
    let rank = (p as usize * n).div_ceil(100).clamp(1, n);
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 4.0, 2.0, 5.0, 4.0]), [3.0, 4.0, 7.0]);
        // Two samples extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1), None);
        assert_eq!(tail_percentile(20), None); // p50 is the median itself
        assert_eq!(tail_percentile(21), Some(52));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 21..400 {
            let p = tail_percentile(n).unwrap();
            // At least ten samples lie strictly beyond the reported one...
            assert!(n - (p as usize * n).div_ceil(100) >= 10, "n={n} p={p}");
            // ...and one percentile higher would leave fewer.
            assert!(n - ((p as usize + 1) * n).div_ceil(100) < 10);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[5.0], 99), 5.0);
    }
}
