//! Linear and logarithmic histograms plus empirical CCDFs.
//!
//! Figures 1–3 of the paper are all log-scaled marginal distributions of
//! counts (friends, followers, list memberships, statuses, out-degree,
//! pairwise distance). These types produce exactly the series those figures
//! plot: bin centers and (optionally log-scaled) frequencies.

use serde::Serialize;

/// A fixed-width linear histogram over `[lo, hi)`.
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Observations below `lo`.
    pub underflow: u64,
    /// Observations at or above `hi`.
    pub overflow: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "Histogram: bins must be > 0");
        assert!(lo < hi, "Histogram: lo < hi required");
        Self { lo, hi, counts: vec![0; bins], underflow: 0, overflow: 0 }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Add every observation in `data`.
    pub fn extend(&mut self, data: &[f64]) {
        for &x in data {
            self.add(x);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Center of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(center, count)` series for plotting.
    pub fn series(&self) -> Vec<(f64, u64)> {
        (0..self.bins()).map(|i| (self.center(i), self.counts[i])).collect()
    }
}

/// A logarithmically binned histogram for heavy-tailed positive data.
///
/// Bin edges grow geometrically from `lo` by `ratio`; this is the standard
/// presentation for degree distributions (paper Figures 1 and 2).
#[derive(Debug, Clone, Serialize)]
pub struct LogHistogram {
    lo: f64,
    ratio: f64,
    counts: Vec<u64>,
    /// Observations (including zeros) below `lo`.
    pub underflow: u64,
}

impl LogHistogram {
    /// Create a log histogram starting at `lo > 0` with geometric bin
    /// `ratio > 1` and `bins` bins.
    pub fn new(lo: f64, ratio: f64, bins: usize) -> Self {
        assert!(lo > 0.0, "LogHistogram: lo must be > 0");
        assert!(ratio > 1.0, "LogHistogram: ratio must be > 1");
        assert!(bins > 0, "LogHistogram: bins must be > 0");
        Self { lo, ratio, counts: vec![0; bins], underflow: 0 }
    }

    /// Convenience constructor covering `[lo, hi)` with `bins` bins.
    pub fn covering(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && lo > 0.0, "LogHistogram: need hi > lo > 0");
        let ratio = (hi / lo).powf(1.0 / bins as f64);
        Self::new(lo, ratio.max(1.0 + 1e-12), bins)
    }

    /// Add one observation; values `< lo` go to `underflow`, values past the
    /// last edge land in the final bin.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x / self.lo).ln() / self.ratio.ln()) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Add every observation in `data`.
    pub fn extend(&mut self, data: &[f64]) {
        for &x in data {
            self.add(x);
        }
    }

    /// Lower edge of bin `i`.
    pub fn edge(&self, i: usize) -> f64 {
        self.lo * self.ratio.powi(i as i32)
    }

    /// Geometric center of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        self.edge(i) * self.ratio.sqrt()
    }

    /// Raw counts per bin.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }
}

/// Empirical complementary CDF of positive data: `(x, P(X >= x))` at each
/// distinct observed value. Input order is irrelevant.
pub fn ccdf(data: &[f64]) -> Vec<(f64, f64)> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ccdf input"));
    let n = sorted.len() as f64;
    let mut out = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let x = sorted[i];
        // count of values >= x is n - i
        out.push((x, (sorted.len() - i) as f64 / n));
        let mut j = i;
        while j < sorted.len() && sorted[j] == x {
            j += 1;
        }
        i = j;
    }
    out
}

/// Frequency-of-frequencies series for non-negative integer data: for each
/// distinct value `v`, the *proportion* of observations equal to `v`.
/// This is exactly the y-axis of the paper's Figure 2 ("proportion of users
/// to out-degree").
pub fn proportion_series(values: &[u64]) -> Vec<(u64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let mut out = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let v = sorted[i];
        let mut j = i;
        while j < sorted.len() && sorted[j] == v {
            j += 1;
        }
        out.push((v, (j - i) as f64 / n));
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_histogram_bins_correctly() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.extend(&[0.5, 1.5, 1.7, 9.9, -1.0, 10.0, 25.0]);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn linear_histogram_centers() {
        let h = Histogram::new(0.0, 10.0, 10);
        assert!((h.center(0) - 0.5).abs() < 1e-12);
        assert!((h.center(9) - 9.5).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_edges_geometric() {
        let h = LogHistogram::new(1.0, 2.0, 5);
        assert_eq!(h.edge(0), 1.0);
        assert_eq!(h.edge(3), 8.0);
    }

    #[test]
    fn log_histogram_covering_spans_range() {
        let h = LogHistogram::covering(1.0, 1000.0, 30);
        assert!((h.edge(30) - 1000.0).abs() / 1000.0 < 1e-9);
    }

    #[test]
    fn log_histogram_underflow_and_clamp() {
        let mut h = LogHistogram::new(1.0, 10.0, 3);
        h.add(0.5); // underflow
        h.add(1e12); // clamps into final bin
        assert_eq!(h.underflow, 1);
        assert_eq!(h.counts()[2], 1);
    }

    #[test]
    fn ccdf_starts_at_one_and_decreases() {
        let data = [3.0, 1.0, 2.0, 2.0, 5.0];
        let c = ccdf(&data);
        assert_eq!(c[0], (1.0, 1.0));
        for w in c.windows(2) {
            assert!(w[1].1 < w[0].1);
            assert!(w[1].0 > w[0].0);
        }
        // P(X >= 2) = 4/5
        assert_eq!(c[1], (2.0, 0.8));
    }

    #[test]
    fn proportion_series_sums_to_one() {
        let vals = [0u64, 0, 1, 2, 2, 2, 7];
        let s = proportion_series(&vals);
        let total: f64 = s.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(s[0], (0, 2.0 / 7.0));
        assert_eq!(s[2], (2, 3.0 / 7.0));
    }

    proptest! {
        #[test]
        fn histogram_conserves_observations(data in proptest::collection::vec(-20.0f64..20.0, 0..500)) {
            let mut h = Histogram::new(-5.0, 5.0, 17);
            h.extend(&data);
            prop_assert_eq!(h.total() + h.underflow + h.overflow, data.len() as u64);
        }

        #[test]
        fn log_histogram_conserves_observations(data in proptest::collection::vec(0.0f64..1e6, 0..500)) {
            let mut h = LogHistogram::covering(1.0, 1e5, 25);
            h.extend(&data);
            let total: u64 = h.counts().iter().sum();
            prop_assert_eq!(total + h.underflow, data.len() as u64);
        }

        #[test]
        fn ccdf_bounded_in_unit_interval(data in proptest::collection::vec(0.0f64..1e6, 1..300)) {
            for (_, p) in ccdf(&data) {
                prop_assert!(p > 0.0 && p <= 1.0);
            }
        }
    }
}
