//! Order statistics for the benchmark's samples.
//!
//! Percentiles are nearest-rank on the sorted sample. A tail percentile
//! is reported only when at least ten samples lie beyond it, so that one
//! outlier cannot be the whole tail: [`summarize`] reports p90 when ten
//! samples lie above its rank (100 samples or more), else p75 (40 or
//! more), else the median alone — with fewer than forty samples there is
//! no tail to report. p99 is not on the ladder: over thousands of store
//! round trips it spread 46-82% between runs on the reference host, more
//! than any usable bound; the store's per-layer metrics still report it.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (the mean of the two middle values for
/// an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts ascending; NaN-free samples only (every sample here is a
/// duration, a count or a ratio of finite numbers).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// The tail ladder, highest first.
const TAIL_LADDER: [(f64, &str); 2] = [(90.0, "p90"), (75.0, "p75")];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A sample's median and its highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
    /// `p90`, `p75`, or `p50` when the sample has no tail.
    pub tail_label: &'static str,
}

/// Summarises a sample by the rule in the module docs.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let (tail, tail_label) = TAIL_LADDER
        .iter()
        .find(|(p, _)| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n >= rank + TAIL_BEYOND
        })
        .map(|&(p, label)| (percentile(&v, p), label))
        .unwrap_or_else(|| (median(&v), "p50"));
    Summary {
        count: n,
        p50: median(&v),
        tail,
        tail_label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 has rank 90 and exactly 10 beyond; p99 has 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.tail_label, s.tail), ("p90", 90.0));
        assert_eq!(s.p50, 50.5);
        // 99 samples: p90 has rank 90 and only 9 beyond; p75 (rank 75)
        // has 24.
        let s = summarize(&v[..99]);
        assert_eq!((s.tail_label, s.tail), ("p75", 75.0));
        // 39 samples: no tail at all, only the median.
        let s = summarize(&v[..39]);
        assert_eq!((s.tail_label, s.tail), ("p50", 20.0));
        // 10,000 samples: still p90, the top of the ladder.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, 9_000.0);
    }

    #[test]
    fn summary_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        let s = summarize(&v);
        assert_eq!((s.count, s.p50, s.tail), (200, 100.5, 180.0));
    }
}
