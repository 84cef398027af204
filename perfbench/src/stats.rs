//! Order statistics: medians, quartiles and the tail-percentile rule.

/// A tail percentile: the value, its level in percent, and the sample
/// count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile level, in percent.
    pub level: f64,
    /// The sample at that level (nearest-rank, never interpolated).
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count);
/// `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; `0.0` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` does (its default "exclusive"
/// method), so spreads reported here match ones computed by a script
/// from the same values. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                // Negative when the clamp raised `j`: Python then
                // extrapolates below the first sample, and so does this.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a regression bound is compared against. `0.0` when the
/// median is zero.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest percentile, capped at p99, that has at least ten samples
/// beyond it, never lower than p50: p99 from 1000 samples up, p50 below
/// 20 samples (where fewer than ten lie beyond it). `None` for no
/// samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let level = (100 * n.saturating_sub(10) / n).clamp(50, 99);
    // Nearest rank: the smallest sample with at least `level` percent
    // of the samples at or below it.
    let rank = (level * n).div_ceil(100).max(1);
    Some(Tail {
        level: level as f64,
        value: v[rank - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}
