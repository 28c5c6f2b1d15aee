//! Order statistics used by every metric.
//!
//! Within a run, percentiles are nearest-rank over the raw samples. Across
//! runs, quartiles follow Python's `statistics.quantiles(values, n=4)`
//! ("exclusive" method), so the spreads this benchmark prints are the ones
//! an external checker computes from the same values.

/// Nearest-rank percentile `q` (0–100) of `v`, reordering `v` in place.
/// Returns 0 for an empty slice.
pub fn percentile<T: Ord + Copy + Default>(v: &mut [T], q: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, v.len()) - 1;
    *v.select_nth_unstable(idx).1
}

/// Median of a small set of values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)` gives
/// them. With fewer than two values both quartiles are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let m = median(&v);
        return (m, m);
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile::<u64>(&mut [], 50.0), 0);
        assert_eq!(percentile(&mut [-3i64, 5, -1], 50.0), -1);
        assert_eq!(median(&[1.0, 3.0, 2.0, 4.0]), 2.5);
    }
}
