//! Vuong likelihood-ratio tests between the power law and alternative
//! heavy-tailed hypotheses.
//!
//! Section IV-B: "We use an R toolbox to perform a Vuong's likelihood-ratio
//! test between a power-law fit and alternate candidates such as
//! log-normal, poisson and exponential fits. In each case, the tests
//! returned significantly high 2-3 digit likelihood-ratio values indicating
//! that the power-law was, in fact, the heavy-tailed distribution that best
//! approximated the out-degree distribution."
//!
//! The test (Vuong 1989, as adapted by CSN §5): on the common tail
//! `x >= xmin`, compute per-point log-likelihood differences
//! `d_i = ln p_PL(x_i) − ln p_ALT(x_i)`; the normalized statistic
//! `R / (σ_d √n)` is asymptotically standard normal under the null that
//! both models are equally close to the truth.

use crate::continuous::ContinuousFit;
use crate::discrete::DiscreteFit;
use crate::{PowerLawError, Result};
use vnet_stats::dist::{norm_sf, Exponential, LogNormal, Poisson};

/// Alternative hypotheses the paper tests against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alternative {
    /// Truncated log-normal.
    LogNormal,
    /// Shifted exponential.
    Exponential,
    /// Truncated Poisson (discrete data only).
    Poisson,
}

impl std::fmt::Display for Alternative {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Alternative::LogNormal => write!(f, "log-normal"),
            Alternative::Exponential => write!(f, "exponential"),
            Alternative::Poisson => write!(f, "poisson"),
        }
    }
}

/// Outcome of a Vuong comparison. Positive `lr` favours the power law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VuongResult {
    /// Raw log-likelihood ratio `Σ d_i` (the paper's "2-3 digit values").
    pub lr: f64,
    /// Normalized Vuong statistic `lr / (σ_d √n)`.
    pub statistic: f64,
    /// Two-sided p-value for "models equally good".
    pub p_value: f64,
    /// Tail observations compared.
    pub n: usize,
    /// Which alternative was tested.
    pub alternative: Alternative,
}

impl VuongResult {
    /// `true` when the power law is significantly preferred at `level`.
    pub fn favors_power_law(&self, level: f64) -> bool {
        self.lr > 0.0 && self.p_value < level
    }
}

fn vuong_from_differences(d: &[f64], alternative: Alternative) -> Result<VuongResult> {
    let n = d.len();
    if n < 3 {
        return Err(PowerLawError::TooFewObservations { needed: 3, got: n });
    }
    let lr: f64 = d.iter().sum();
    let mean = lr / n as f64;
    let var: f64 = d.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    let statistic = if sd > 0.0 {
        lr / (sd * (n as f64).sqrt())
    } else if lr == 0.0 {
        // Every d_i is 0: the models agree point for point.
        0.0
    } else {
        // Every d_i is the same nonzero value: the winner is certain.
        lr.signum() * f64::INFINITY
    };
    let p_value =
        if statistic.is_finite() { 2.0 * norm_sf(statistic.abs()) } else { 0.0 };
    Ok(VuongResult { lr, statistic, p_value, n, alternative })
}

/// Vuong test on discrete data, power law vs `alternative`, over the tail
/// `x >= fit.xmin`. Continuous alternatives are discretized as
/// `P(k) ≈ F(k + 1/2) − F(k − 1/2)`.
///
/// The power law's `ln ζ(α, xmin)` and the log-normal's CDF at its shifted
/// `xmin` are evaluated once per test, not once per tail point.
pub fn vuong_discrete(data: &[u64], fit: &DiscreteFit, alternative: Alternative) -> Result<VuongResult> {
    let tail: Vec<u64> = data.iter().copied().filter(|&x| x >= fit.xmin).collect();
    if tail.len() < 3 {
        return Err(PowerLawError::TooFewObservations { needed: 3, got: tail.len() });
    }
    let tail_f: Vec<f64> = tail.iter().map(|&x| x as f64).collect();
    let xmin = fit.xmin as f64;

    let alt_ln_pmf: Box<dyn Fn(u64) -> f64> = match alternative {
        Alternative::Poisson => {
            let p = Poisson::mle(&tail_f, xmin)?;
            Box::new(move |k: u64| p.ln_pmf(k as f64))
        }
        // Continuous alternatives are renormalized by the half-shift at the
        // boundary (cdf measured from xmin - 1/2).
        Alternative::Exponential => {
            let e = Exponential::mle(&tail_f, xmin)?;
            let shifted = Exponential { lambda: e.lambda, xmin: xmin - 0.5 };
            discretized(move |x| shifted.cdf(x))
        }
        Alternative::LogNormal => {
            let l = LogNormal::mle(&tail_f, xmin)?;
            let shifted = LogNormal { mu: l.mu, sigma: l.sigma, xmin: (xmin - 0.5).max(0.5) };
            discretized(shifted.cdf_fn())
        }
    };

    let pl_ln_pmf = fit.ln_pmf_fn();
    let d: Vec<f64> = tail
        .iter()
        .map(|&k| {
            let a = pl_ln_pmf(k);
            let b = alt_ln_pmf(k);
            // Guard -inf − -inf; clamp alternative floor to keep the
            // statistic finite (matches poweRlaw's practical behaviour).
            (a - b.max(-700.0)).clamp(-700.0, 700.0)
        })
        .collect();
    vuong_from_differences(&d, alternative)
}

/// A continuous CDF discretized around integer `k`:
/// `ln(F(k + 1/2) − F(k − 1/2))`, −∞ where that mass is not positive.
fn discretized(cdf: impl Fn(f64) -> f64 + 'static) -> Box<dyn Fn(u64) -> f64> {
    Box::new(move |k| {
        let k = k as f64;
        let p = cdf(k + 0.5) - cdf(k - 0.5);
        if p > 0.0 {
            p.ln()
        } else {
            f64::NEG_INFINITY
        }
    })
}

/// Vuong test on continuous data, power law vs `alternative`, over the tail
/// `x >= fit.xmin`. `Poisson` is not applicable to continuous data and
/// returns an error.
pub fn vuong_continuous(
    data: &[f64],
    fit: &ContinuousFit,
    alternative: Alternative,
) -> Result<VuongResult> {
    let tail: Vec<f64> = data.iter().copied().filter(|&x| x >= fit.xmin).collect();
    if tail.len() < 3 {
        return Err(PowerLawError::TooFewObservations { needed: 3, got: tail.len() });
    }
    let alt_ln_pdf: Box<dyn Fn(f64) -> f64> = match alternative {
        Alternative::Poisson => {
            return Err(PowerLawError::InvalidData("poisson alternative needs discrete data"))
        }
        Alternative::Exponential => {
            let e = Exponential::mle(&tail, fit.xmin)?;
            Box::new(move |x: f64| e.ln_pdf(x))
        }
        Alternative::LogNormal => {
            let l = LogNormal::mle(&tail, fit.xmin)?;
            Box::new(move |x: f64| l.ln_pdf(x))
        }
    };
    let d: Vec<f64> = tail
        .iter()
        .map(|&x| (fit.ln_pdf(x) - alt_ln_pdf(x).max(-700.0)).clamp(-700.0, 700.0))
        .collect();
    vuong_from_differences(&d, alternative)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::fit_continuous;
    use crate::discrete::fit_discrete;
    use crate::{FitOptions, XminStrategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vnet_stats::sampling::{ContinuousPowerLaw, DiscretePowerLaw};

    fn opts() -> FitOptions {
        FitOptions { xmin: XminStrategy::Quantiles(20), min_tail: 10 }
    }

    #[test]
    fn power_law_data_beats_exponential_discrete() {
        let mut rng = StdRng::seed_from_u64(51);
        let data = DiscretePowerLaw::new(2.5, 2).sample_n(&mut rng, 8_000);
        let fit = fit_discrete(&data, &opts()).unwrap();
        let v = vuong_discrete(&data, &fit, Alternative::Exponential).unwrap();
        assert!(v.lr > 50.0, "lr={}", v.lr);
        assert!(v.favors_power_law(0.05), "stat={} p={}", v.statistic, v.p_value);
    }

    #[test]
    fn power_law_data_beats_poisson_discrete() {
        let mut rng = StdRng::seed_from_u64(53);
        let data = DiscretePowerLaw::new(2.8, 3).sample_n(&mut rng, 8_000);
        let fit = fit_discrete(&data, &opts()).unwrap();
        let v = vuong_discrete(&data, &fit, Alternative::Poisson).unwrap();
        assert!(v.lr > 50.0, "lr={}", v.lr);
        assert!(v.favors_power_law(0.05));
    }

    #[test]
    fn power_law_data_vs_lognormal_discrete_positive_lr() {
        // Log-normal is the hardest alternative to separate; on genuine
        // power-law data LR should still be positive (possibly modest).
        let mut rng = StdRng::seed_from_u64(57);
        let data = DiscretePowerLaw::new(2.4, 2).sample_n(&mut rng, 10_000);
        let fit = fit_discrete(&data, &opts()).unwrap();
        let v = vuong_discrete(&data, &fit, Alternative::LogNormal).unwrap();
        assert!(v.lr > 0.0, "lr={}", v.lr);
    }

    #[test]
    fn exponential_data_rejects_power_law_continuous() {
        let mut rng = StdRng::seed_from_u64(59);
        let e = vnet_stats::dist::Exponential { lambda: 0.5, xmin: 1.0 };
        let data: Vec<f64> = (0..6_000).map(|_| e.sample(&mut rng)).collect();
        let fit = fit_continuous(&data, &opts()).unwrap();
        let v = vuong_continuous(&data, &fit, Alternative::Exponential).unwrap();
        // True exponential: LR must favour the exponential (negative).
        assert!(v.lr < 0.0, "lr={}", v.lr);
        assert!(!v.favors_power_law(0.05));
    }

    #[test]
    fn power_law_data_beats_exponential_continuous() {
        let mut rng = StdRng::seed_from_u64(61);
        let data = ContinuousPowerLaw::new(3.0, 1.0).sample_n(&mut rng, 6_000);
        let fit = fit_continuous(&data, &opts()).unwrap();
        let v = vuong_continuous(&data, &fit, Alternative::Exponential).unwrap();
        assert!(v.lr > 50.0, "lr={}", v.lr);
        assert!(v.favors_power_law(0.05));
    }

    #[test]
    fn poisson_alternative_invalid_for_continuous() {
        let fit =
            ContinuousFit { alpha: 2.5, xmin: 1.0, ks: 0.1, n_tail: 10, log_likelihood: 0.0 };
        let data: Vec<f64> = (1..100).map(|i| i as f64).collect();
        assert!(matches!(
            vuong_continuous(&data, &fit, Alternative::Poisson),
            Err(PowerLawError::InvalidData(_))
        ));
    }

    #[test]
    fn too_few_tail_observations_error() {
        let fit = DiscreteFit { alpha: 2.5, xmin: 1000, ks: 0.1, n_tail: 0, log_likelihood: 0.0 };
        assert!(matches!(
            vuong_discrete(&[1, 2, 3], &fit, Alternative::Exponential),
            Err(PowerLawError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn zero_spread_takes_the_sign_of_lr() {
        let v = |d: &[f64]| vuong_from_differences(d, Alternative::LogNormal).unwrap();
        // Equal positive differences: the power law wins with certainty.
        let win = v(&[1.5; 4]);
        assert_eq!((win.lr, win.statistic, win.p_value), (6.0, f64::INFINITY, 0.0));
        assert!(win.favors_power_law(0.05));
        // Equal negative differences: the alternative wins with certainty.
        let loss = v(&[-2.0; 5]);
        assert_eq!((loss.lr, loss.statistic, loss.p_value), (-10.0, f64::NEG_INFINITY, 0.0));
        assert!(!loss.favors_power_law(0.05));
        // Identical models: nothing to tell apart.
        let tie = v(&[0.0; 6]);
        assert_eq!((tie.lr, tie.statistic, tie.p_value), (0.0, 0.0, 1.0));
        assert!(!tie.favors_power_law(0.05));
    }
}
