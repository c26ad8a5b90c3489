//! Kolmogorov–Smirnov tests: one-sample distance (already the engine of
//! the power-law `xmin` scan) exposed directly, plus the two-sample test
//! used to compare distributions across networks (e.g. verified-model vs
//! null-model degree distributions in the fingerprint benches).

use crate::{Result, StatsError};

/// Two-sample KS statistic: the sup-distance between the empirical CDFs
/// of `a` and `b`. A NaN in either sample has no place in an empirical
/// CDF and is an `InvalidParameter` error.
pub fn ks_two_sample_statistic(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.is_empty() || b.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if a.iter().chain(b).any(|x| x.is_nan()) {
        return Err(StatsError::InvalidParameter("NaN in a KS sample"));
    }
    let mut xs = a.to_vec();
    let mut ys = b.to_vec();
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    let (mut i, mut j) = (0usize, 0usize);
    let (na, nb) = (xs.len() as f64, ys.len() as f64);
    let mut d: f64 = 0.0;
    while i < xs.len() && j < ys.len() {
        let x = xs[i].min(ys[j]);
        while i < xs.len() && xs[i] <= x {
            i += 1;
        }
        while j < ys.len() && ys[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    Ok(d)
}

/// Asymptotic two-sided p-value of the two-sample KS test via the
/// Kolmogorov distribution `Q(λ) = 2 Σ (−1)^{k−1} e^{−2k²λ²}`.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<KsResult> {
    let d = ks_two_sample_statistic(a, b)?;
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let ne = na * nb / (na + nb);
    // Continuity-corrected λ (Stephens 1970, as in Numerical Recipes).
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    Ok(KsResult { statistic: d, p_value: kolmogorov_q(lambda) })
}

/// Result of a KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The sup-distance D.
    pub statistic: f64,
    /// Asymptotic two-sided p-value.
    pub p_value: f64,
}

/// Kolmogorov survival function `Q(λ)`.
pub fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0f64;
    let mut sign = 1.0f64;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-16 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identical_samples_zero_distance() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let r = ks_two_sample(&a, &a).unwrap();
        assert_eq!(r.statistic, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_samples_distance_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        let d = ks_two_sample_statistic(&a, &b).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_distribution_not_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let a: Vec<f64> = (0..2_000).map(|_| sample_standard_normal(&mut rng)).collect();
        let b: Vec<f64> = (0..2_000).map(|_| sample_standard_normal(&mut rng)).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.p_value > 0.01, "false rejection: p={}", r.p_value);
    }

    #[test]
    fn shifted_distribution_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let a: Vec<f64> = (0..2_000).map(|_| sample_standard_normal(&mut rng)).collect();
        let b: Vec<f64> =
            (0..2_000).map(|_| 0.3 + sample_standard_normal(&mut rng)).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "shift not detected: p={}", r.p_value);
    }

    #[test]
    fn kolmogorov_q_known_values() {
        // Q(0.828) ≈ 0.5 (median of the Kolmogorov distribution ~0.8276).
        assert!((kolmogorov_q(0.8276) - 0.5).abs() < 1e-3);
        assert!(kolmogorov_q(0.0) == 1.0);
        assert!(kolmogorov_q(3.0) < 1e-7);
    }

    #[test]
    fn handles_ties_and_unequal_sizes() {
        let a = [1.0, 1.0, 2.0, 2.0, 3.0];
        let b = [1.0, 2.0, 2.0];
        let d = ks_two_sample_statistic(&a, &b).unwrap();
        assert!((0.0..=1.0).contains(&d));
        assert!(ks_two_sample_statistic(&[], &b).is_err());
    }

    #[test]
    fn nan_in_either_sample_is_a_typed_error() {
        let clean = [1.0, 2.0, 3.0];
        let dirty = [1.0, f64::NAN, 3.0];
        for (a, b) in [(&dirty, &clean), (&clean, &dirty)] {
            assert_eq!(
                ks_two_sample_statistic(a, b),
                Err(StatsError::InvalidParameter("NaN in a KS sample"))
            );
            assert!(ks_two_sample(a, b).is_err());
        }
    }
}
