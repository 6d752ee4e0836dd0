//! Order statistics over latency samples.

/// A latency sample summary: median, 99th percentile and how far the
/// sample actually supports a tail percentile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub supported: f64,
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarizes `samples` (reordered in place).
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let supported = [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(0.0);
    Summary {
        n,
        p50: percentile(samples, 50.0),
        p99: percentile(samples, 99.0),
        supported,
    }
}

/// The median of `values` (reordered in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!((s.n, s.p50, s.p99), (1000, 500.0, 990.0));
        assert_eq!(s.supported, 99.0);
    }

    #[test]
    fn small_samples_support_only_low_percentiles() {
        let mut v: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(summarize(&mut v).supported, 50.0);
        assert_eq!(summarize(&mut []).p99, 0.0);
    }
}
