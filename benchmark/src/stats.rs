//! The harness's own arithmetic: percentiles, quartiles, spread.

/// Percentiles the harness will report, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// How many samples a percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Index of the `p`-th percentile in a sorted sample of `n` (nearest rank).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile; `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[rank(v.len(), p)])
}

/// Samples strictly above the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest percentile of the ladder that still has [`MIN_BEYOND`]
/// samples beyond it; `None` when not even the median does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median with the two middle samples averaged; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's method);
/// `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Exclusive method: position i*(n+1)/4 counted from 1, clamped so
        // that both neighbours exist.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> Option<f64> {
    let med = median(values)?;
    let dev: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    median(&dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = seq(40);
        assert_eq!(percentile(&v, 50.0), Some(20.0));
        assert_eq!(percentile(&v, 75.0), Some(30.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 40 samples: p75 leaves exactly ten beyond it, p90 only four.
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(40, 90.0), 4);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(1001), Some(99.0));
        assert_eq!(highest_supported_percentile(20_000), Some(99.9));
        // Nineteen samples leave nine beyond the median, twenty leave ten.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some((15.0, 40.0, 120.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_and_mad() {
        assert_eq!(spread(&seq(10)), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        // Deviations from the median 3 are 2, 1, 0, 1, 97.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), Some(1.0));
    }
}
