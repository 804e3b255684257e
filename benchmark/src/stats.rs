//! Medians, quartiles and tail percentiles.

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) gives them — the driver uses that function,
/// so `compare` must agree with it. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Spread of a sample: interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `permille` (‰, so 990 = p99) in a
/// sorted sample of `n`. Integer arithmetic: `0.9 * 100.0` is not 90.
fn rank(n: usize, permille: u32) -> usize {
    ((n as u64 * permille as u64).div_ceil(1000) as usize).clamp(1, n.max(1))
}

/// The highest of the percentiles p50, p90, p95, p99, p99.9 (in ‰) that
/// is at most `wanted` and still has at least [`TAIL_SAMPLES`] samples
/// beyond it in a sample of `n`. `None` when even the median does not
/// (n < 20).
pub fn supported_percentile(n: usize, wanted: u32) -> Option<u32> {
    [999, 990, 950, 900, 500]
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| n >= rank(n, p) + TAIL_SAMPLES)
}

/// Nearest-rank percentile (`permille` in ‰) of a sample; 0 for an empty
/// one.
pub fn percentile(values: &[u64], permille: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    v[rank(v.len(), permille) - 1] as f64
}

/// Percentile `wanted` (‰) of `values`, lowered to the highest percentile
/// the sample size supports (see [`supported_percentile`]); returns the
/// value and the percentile actually used. Samples too small for any
/// percentile report their maximum, as percentile 1000 ‰ of what was seen.
pub fn tail(values: &[u64], wanted: u32) -> (f64, u32) {
    let used = supported_percentile(values.len(), wanted).unwrap_or(1000);
    (percentile(values, used), used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 720 publishes: p99 keeps 7 beyond (too few), p95 keeps 36.
        assert_eq!(supported_percentile(720, 990), Some(950));
        // 3600 retrieves: p99 keeps 36 beyond.
        assert_eq!(supported_percentile(3600, 990), Some(990));
        // Exactly ten beyond is enough; nine is not.
        assert_eq!(supported_percentile(1000, 990), Some(990));
        assert_eq!(supported_percentile(999, 990), Some(950));
        assert_eq!(supported_percentile(100, 990), Some(900));
        // Never above what was asked for.
        assert_eq!(supported_percentile(1_000_000, 950), Some(950));
        assert_eq!(supported_percentile(1_000_000, 999), Some(999));
        // The median itself needs 20 samples.
        assert_eq!(supported_percentile(20, 990), Some(500));
        assert_eq!(supported_percentile(19, 990), None);
    }

    #[test]
    fn nearest_rank_percentile_and_tail_fallback() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[], 500), 0.0);
        // 100 samples support p90 (10 beyond) but not p95.
        assert_eq!(tail(&v, 990), (90.0, 900));
        assert_eq!(tail(&[5, 9, 7], 990), (9.0, 1000));
    }
}
