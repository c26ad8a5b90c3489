//! Order statistics over measured samples.

/// Nearest-rank percentile (`p` in `0..=1`) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of a sample: the mean of the two middle values when the
/// count is even; 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n % 2 == 1 {
        percentile(samples, 0.5)
    } else if n == 0 {
        0.0
    } else {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of a sample; 0 for an empty one.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive samples; 0 for an empty sample.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// Replies per window of [`windowed_p99`].
pub const WINDOW: usize = 1_000;

/// The p99 of each consecutive window of [`WINDOW`] samples (in arrival
/// order), median over the windows: a tail that one stall of the host
/// cannot move much. A sample shorter than one window is one window.
pub fn windowed_p99(samples: &[f64]) -> f64 {
    let tails: Vec<f64> = samples
        .chunks_exact(WINDOW)
        .map(|w| percentile(w, 0.99))
        .collect();
    if tails.is_empty() {
        percentile(samples, 0.99)
    } else {
        median(&tails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
