//! Order statistics the harness reports: medians, quartiles, nearest-rank
//! percentiles and the tail picker.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` of sorted samples, by the rule Python's
/// `statistics.quantiles` uses (position `q * (n + 1)`, interpolated,
/// clamped to the sample range) so spreads computed here match the ones
/// the gate computes.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let n = v.len();
    let pos = q * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
}

/// `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(Summary {
        n: v.len(),
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
    })
}

pub fn median(values: &[f64]) -> Option<f64> {
    summarize(values).map(|s| s.median)
}

/// Nearest-rank position (1-based) of a percentile given in tenths of a
/// percent, in integers: `0.999 * 10_000` is not 9990 in floating point.
fn nearest_rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile, `per_mille` in `1..=1000` (p90 is 900).
pub fn percentile(values: &[f64], per_mille: usize) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(v[nearest_rank(v.len(), per_mille) - 1])
}

/// The highest of p99.9 / p99 / p90 (in tenths of a percent) that still
/// has at least ten samples beyond its nearest-rank position — the tail a
/// sample of size `n` can support; the median when none has.
pub fn tail_per_mille(n: usize) -> usize {
    [999, 990, 900]
        .into_iter()
        .find(|p| n > 0 && n - nearest_rank(n, *p) >= 10)
        .unwrap_or(500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // Odd count, unsorted input.
        let s = summarize(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 5.0));
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=162).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), Some(81.0));
        assert_eq!(percentile(&v, 900), Some(146.0));
        assert_eq!(percentile(&v, 1000), Some(162.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 162 bug sessions: p90 sits at rank 146, 16 beyond; p99 has 1.
        assert_eq!(tail_per_mille(162), 900);
        // 100 samples: exactly ten beyond p90.
        assert_eq!(tail_per_mille(100), 900);
        assert_eq!(tail_per_mille(99), 500);
        assert_eq!(tail_per_mille(1000), 990);
        assert_eq!(tail_per_mille(10_000), 999);
        // ~25 streaming sessions support only the median.
        assert_eq!(tail_per_mille(25), 500);
        assert_eq!(tail_per_mille(3), 500);
        assert_eq!(tail_per_mille(0), 500);
    }
}
