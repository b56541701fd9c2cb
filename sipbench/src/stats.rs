//! Order statistics over small samples: median, quartiles, percentiles.

/// Sorted copy of `values`; NaNs would poison every statistic, so they are
/// a bug in the caller.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a measured sample"));
    v
}

/// Linear interpolation at 1-based fractional rank `pos` of sorted `v`,
/// clamped to the sample's range.
fn at_rank(v: &[f64], pos: f64) -> f64 {
    let pos = pos.clamp(1.0, v.len() as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    match v.get(lo) {
        Some(hi) if frac > 0.0 => v[lo - 1] + frac * (hi - v[lo - 1]),
        _ => v[lo - 1],
    }
}

/// The median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    at_rank(&v, (v.len() as f64 + 1.0) / 2.0)
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method: rank `p * (n + 1)`). A single value is
/// its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let v = sorted(values);
    let n = v.len() as f64;
    (at_rank(&v, 0.25 * (n + 1.0)), at_rank(&v, 0.75 * (n + 1.0)))
}

/// The `p`-th percentile (0..=100) by nearest rank: the smallest value with
/// at least `p`% of the sample at or below it. With 100 samples and `p = 90`
/// ten samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with its quartiles and sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], which the
        // clamp to the sample's range turns into the extremes.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let few = [10.0, 30.0, 20.0];
        assert_eq!(percentile(&few, 90.0), 30.0);
        assert_eq!(percentile(&few, 50.0), 20.0);
    }

    #[test]
    fn summary_carries_median_quartiles_and_count() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.median, s.q1, s.q3, s.n), (5.5, 2.75, 8.25, 10));
    }
}
