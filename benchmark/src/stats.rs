//! Order statistics over pass timings.

/// The fastest sample. The hosts this runs on slow down by a fifth and
/// more for seconds to minutes at a time; that only ever adds time, so
/// the fastest sample is the figure such spells move least from run to
/// run (see the README), and it is what `wall_s` and `setup_s` report.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `values` (mean of the two middle ones for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// spreads printed here match the ones the driver computes. A single
/// sample has no spread: both quartiles are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m > 0, "quartiles of no samples");
    if m == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quartile distance as a share of the median, in percent.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values) * 100.0
}

/// The 90th percentile, reported only where at least ten samples lie
/// beyond it (so from 100 samples up).
pub fn p90(values: &[f64]) -> Option<f64> {
    if values.len() < 100 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[(v.len() * 9) / 10])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90(&v), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(p90(&v), Some(90.0));
    }
}
