//! Parametric distributions with PDFs, CDFs, quantiles and samplers.
//!
//! The paper's inference machinery needs the normal (Vuong test, PELT cost),
//! chi-squared (portmanteau tests), Student-t (spline bands), plus the
//! candidate heavy-tail alternatives of Section IV-B: log-normal,
//! exponential and Poisson.

use crate::special::{beta_inc, erf, erfc, gamma_p, gamma_q, ln_factorial};
use rand::Rng;

/// Standard normal CDF `Φ(z)`, full tail precision via `erfc`.
pub fn norm_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Standard normal survival function `1 − Φ(z)` with tail precision.
pub fn norm_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Standard normal quantile (inverse CDF) via the Acklam rational
/// approximation refined by one Halley step; absolute error < 1e-9.
pub fn norm_ppf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "norm_ppf domain: 0 < p < 1");
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Chi-squared CDF with `k` degrees of freedom.
pub fn chi2_cdf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "chi2_cdf: k > 0");
    if x <= 0.0 {
        0.0
    } else {
        gamma_p(k / 2.0, x / 2.0)
    }
}

/// Chi-squared survival function `1 − F(x)` with full tail precision — this
/// is what turns a Ljung-Box statistic into the paper's 10⁻³⁸-scale p-value.
pub fn chi2_sf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "chi2_sf: k > 0");
    if x <= 0.0 {
        1.0
    } else {
        gamma_q(k / 2.0, x / 2.0)
    }
}

/// Student-t CDF with `nu` degrees of freedom.
pub fn student_t_cdf(t: f64, nu: f64) -> f64 {
    assert!(nu > 0.0, "student_t_cdf: nu > 0");
    let x = nu / (nu + t * t);
    let p = 0.5 * beta_inc(nu / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided Student-t critical value `t_{α/2, nu}` found by bisection.
pub fn student_t_ppf(p: f64, nu: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "student_t_ppf domain: 0 < p < 1");
    // Bracket then bisect; the CDF is monotone.
    let (mut lo, mut hi) = (-1e3, 1e3);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, nu) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// A continuous exponential distribution `Exp(λ)` over `x >= xmin`.
///
/// The shifted form is what the power-law machinery fits as an alternative
/// hypothesis: density `λ e^{−λ(x − xmin)}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter λ.
    pub lambda: f64,
    /// Left truncation point.
    pub xmin: f64,
}

impl Exponential {
    /// Maximum-likelihood fit over `data` (all values must be `>= xmin`).
    pub fn mle(data: &[f64], xmin: f64) -> crate::Result<Self> {
        if data.is_empty() {
            return Err(crate::StatsError::EmptyInput);
        }
        let mean_excess = data.iter().map(|&x| x - xmin).sum::<f64>() / data.len() as f64;
        if mean_excess <= 0.0 {
            return Err(crate::StatsError::InvalidParameter("all data at xmin"));
        }
        Ok(Self {
            lambda: 1.0 / mean_excess,
            xmin,
        })
    }

    /// Log-density at `x`.
    pub fn ln_pdf(&self, x: f64) -> f64 {
        if x < self.xmin {
            f64::NEG_INFINITY
        } else {
            self.lambda.ln() - self.lambda * (x - self.xmin)
        }
    }

    /// CDF at `x` (0 below `xmin`).
    pub fn cdf(&self, x: f64) -> f64 {
        if x < self.xmin {
            0.0
        } else {
            1.0 - (-self.lambda * (x - self.xmin)).exp()
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>();
        self.xmin - (1.0 - u).ln() / self.lambda
    }
}

/// A log-normal distribution truncated to `x >= xmin`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Location of ln X.
    pub mu: f64,
    /// Scale of ln X.
    pub sigma: f64,
    /// Left truncation point (> 0).
    pub xmin: f64,
}

impl LogNormal {
    /// Maximum-likelihood fit of the *truncated* log-normal over data
    /// `>= xmin`, by profile likelihood over (μ, σ) with a coarse-to-fine
    /// grid (truncation makes the closed form inapplicable).
    ///
    /// Cost: the grid has 6 × 21 × 21 = 2,646 candidates. Each candidate
    /// takes one `erfc` and two logs (its truncation normaliser and
    /// `ln σ`); each point takes one log per fit and plain arithmetic per
    /// candidate. A candidate's log-likelihood is bit-identical to summing
    /// [`ln_pdf`](Self::ln_pdf) over `data`: the same terms, in the same
    /// order.
    pub fn mle(data: &[f64], xmin: f64) -> crate::Result<Self> {
        if data.is_empty() {
            return Err(crate::StatsError::EmptyInput);
        }
        if xmin <= 0.0 {
            return Err(crate::StatsError::InvalidParameter("xmin must be > 0"));
        }
        let (start, logs) = Self::untruncated(data, xmin);
        // A point below `xmin` (or NaN) has density 0 (or NaN) under every
        // candidate, so no candidate's likelihood can beat the start's −∞.
        if data.iter().any(|&x| x < xmin || x.is_nan()) {
            return Ok(start);
        }
        // Every point is now in the tail, where `logs` holds each `ln x`.
        Ok(start.grid_search(|cand| cand.ln_likelihood(&logs)))
    }

    /// The untruncated estimate the grid search starts from, and the
    /// points' logs (clamped at `xmin`) it is estimated from.
    fn untruncated(data: &[f64], xmin: f64) -> (Self, Vec<f64>) {
        let logs: Vec<f64> = data.iter().map(|&x| x.max(xmin).ln()).collect();
        let mu = crate::descriptive::mean(&logs).unwrap_or(0.0);
        let sigma = crate::descriptive::stddev(&logs).unwrap_or(1.0).max(1e-3);
        (Self { mu, sigma, xmin }, logs)
    }

    /// Coarse-to-fine grid search around `self` for the (μ, σ) that
    /// maximizes `objective`: six rounds of 21 × 21 candidates, each round
    /// centred on the best so far with a quarter of the previous span.
    /// `self` stands unless some candidate's objective exceeds −∞.
    fn grid_search(self, objective: impl Fn(&Self) -> f64) -> Self {
        let xmin = self.xmin;
        let mut best = (self.mu, self.sigma, f64::NEG_INFINITY);
        let mut center = (self.mu, self.sigma);
        let mut span = (4.0 * self.sigma.max(0.5), 2.0 * self.sigma.max(0.5));
        for _ in 0..6 {
            for i in 0..21 {
                for j in 0..21 {
                    let mu = center.0 - span.0 + 2.0 * span.0 * i as f64 / 20.0;
                    let sigma = (center.1 - span.1 + 2.0 * span.1 * j as f64 / 20.0).max(1e-4);
                    let ll = objective(&LogNormal { mu, sigma, xmin });
                    if ll > best.2 {
                        best = (mu, sigma, ll);
                    }
                }
            }
            center = (best.0, best.1);
            span = (span.0 / 4.0, span.1 / 4.0);
        }
        LogNormal { mu: best.0, sigma: best.1, xmin }
    }

    /// Log-likelihood of tail points (all `>= xmin`) given their logs:
    /// the normaliser once, then [`ln_pdf`](Self::ln_pdf)'s per-point
    /// terms in order.
    fn ln_likelihood(&self, logs: &[f64]) -> f64 {
        match self.ln_norm() {
            Some(norm) => logs.iter().map(|&ln_x| self.ln_pdf_in_tail(ln_x, norm)).sum(),
            None => f64::NEG_INFINITY,
        }
    }

    /// `(ln σ, ln P(X >= xmin))` under the untruncated law: what the
    /// density needs from the parameters alone. `None` when that tail
    /// mass underflows to 0, where every density is taken as 0.
    fn ln_norm(&self) -> Option<(f64, f64)> {
        let tail = 0.5 * erfc((self.xmin.ln() - self.mu) / (self.sigma * std::f64::consts::SQRT_2));
        if tail <= 0.0 {
            None
        } else {
            Some((self.sigma.ln(), tail.ln()))
        }
    }

    /// Log-density at a point `>= xmin` with log `ln_x`, given
    /// [`ln_norm`](Self::ln_norm).
    fn ln_pdf_in_tail(&self, ln_x: f64, (ln_sigma, ln_tail): (f64, f64)) -> f64 {
        let z = (ln_x - self.mu) / self.sigma;
        -ln_x - ln_sigma - 0.5 * (2.0 * std::f64::consts::PI).ln() - 0.5 * z * z - ln_tail
    }

    /// Log-density of the truncated log-normal at `x`.
    pub fn ln_pdf(&self, x: f64) -> f64 {
        if x < self.xmin {
            return f64::NEG_INFINITY;
        }
        self.ln_norm().map_or(f64::NEG_INFINITY, |norm| self.ln_pdf_in_tail(x.ln(), norm))
    }

    /// CDF of the truncated law at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        // Below the support the normaliser is not needed.
        if x < self.xmin {
            0.0
        } else {
            self.cdf_fn()(x)
        }
    }

    /// The truncated CDF as a function, for evaluating many points of one
    /// law: the untruncated CDF at `xmin` (an `erf`) is taken once, here,
    /// not at every call. Each call returns [`cdf`](Self::cdf)'s bits.
    pub fn cdf_fn(&self) -> impl Fn(f64) -> f64 {
        let law = *self;
        let f = move |v: f64| {
            0.5 * (1.0 + erf((v.ln() - law.mu) / (law.sigma * std::f64::consts::SQRT_2)))
        };
        let fm = f(law.xmin);
        move |x| if x < law.xmin { 0.0 } else { ((f(x) - fm) / (1.0 - fm)).clamp(0.0, 1.0) }
    }
}

/// A Poisson distribution truncated to `k >= xmin`, one of the paper's
/// discrete alternative hypotheses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Mean parameter λ.
    pub lambda: f64,
    /// Left truncation (integer-valued, as f64 for interface symmetry).
    pub xmin: f64,
}

impl Poisson {
    /// Maximum-likelihood fit of the truncated Poisson by 1-D golden-section
    /// search on λ.
    ///
    /// Cost: 122 candidate λs. Each candidate takes one regularized gamma
    /// (none when `xmin <= 0`) and two logs (its truncation normaliser and
    /// `ln λ`); each point takes one `ln k!` per fit and plain arithmetic
    /// per candidate. A candidate's log-likelihood is bit-identical to
    /// summing [`ln_pmf`](Self::ln_pmf) over `data`: the same terms, in the
    /// same order.
    pub fn mle(data: &[f64], xmin: f64) -> crate::Result<Self> {
        let mean = crate::descriptive::mean(data)?;
        let points: Vec<Option<(f64, f64)>> =
            data.iter().map(|&k| Self::support_point(k, xmin)).collect();
        let lambda =
            Self::golden_section(mean, |lambda| Poisson { lambda, xmin }.ln_likelihood(&points));
        Ok(Self { lambda, xmin })
    }

    /// Golden-section maximization of the log-likelihood `ll` over λ in a
    /// generous bracket sized from the sample mean.
    fn golden_section(mean: f64, ll: impl Fn(f64) -> f64) -> f64 {
        let (mut a, mut b) = (1e-6, (4.0 * mean).max(10.0));
        let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
        let (mut c, mut d) = (b - phi * (b - a), a + phi * (b - a));
        let (mut fc, mut fd) = (ll(c), ll(d));
        for _ in 0..120 {
            if fc > fd {
                b = d;
                d = c;
                fd = fc;
                c = b - phi * (b - a);
                fc = ll(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + phi * (b - a);
                fd = ll(d);
            }
        }
        0.5 * (a + b)
    }

    /// Log-likelihood of points given their [`support_point`](Self::support_point)s:
    /// the normaliser once, then [`ln_pmf`](Self::ln_pmf)'s per-point
    /// terms in order.
    fn ln_likelihood(&self, points: &[Option<(f64, f64)>]) -> f64 {
        match self.ln_norm() {
            Some(norm) => points
                .iter()
                .map(|&point| match point {
                    Some((k, ln_fact)) => self.ln_pmf_in_support(k, ln_fact, norm),
                    None => f64::NEG_INFINITY,
                })
                .sum(),
            None => f64::NEG_INFINITY,
        }
    }

    /// `(k, ln k!)` for a point in the support `k >= max(xmin, 0)`,
    /// rounded to an integer; `None` below it.
    fn support_point(k: f64, xmin: f64) -> Option<(f64, f64)> {
        if k < xmin || k < 0.0 {
            return None;
        }
        let k = k.round();
        Some((k, ln_factorial(k as u64)))
    }

    /// `(ln λ, ln P(K >= xmin))`: what the PMF needs from λ alone. `None`
    /// when that tail mass underflows to 0, where every PMF is taken as 0.
    fn ln_norm(&self) -> Option<(f64, f64)> {
        // P(K >= m) = P_gamma(m, λ) (lower regularized at integer m).
        let m = self.xmin.ceil().max(0.0);
        let tail = if m <= 0.0 { 1.0 } else { gamma_p(m, self.lambda) };
        if tail <= 0.0 {
            None
        } else {
            Some((self.lambda.ln(), tail.ln()))
        }
    }

    /// `ln P(K = k) − ln P(K >= xmin)` at a support point, given
    /// [`ln_norm`](Self::ln_norm).
    fn ln_pmf_in_support(&self, k: f64, ln_fact: f64, (ln_lambda, ln_tail): (f64, f64)) -> f64 {
        -self.lambda + k * ln_lambda - ln_fact - ln_tail
    }

    /// Log-PMF of the truncated Poisson at integer `k` (passed as f64).
    pub fn ln_pmf(&self, k: f64) -> f64 {
        let Some((k, ln_fact)) = Self::support_point(k, self.xmin) else {
            return f64::NEG_INFINITY;
        };
        self.ln_norm().map_or(f64::NEG_INFINITY, |norm| self.ln_pmf_in_support(k, ln_fact, norm))
    }
}

/// Draw a standard-normal variate via Box-Muller (polar form).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draw a Poisson(λ) variate. Knuth's method for small λ, normal
/// approximation with continuity correction for large λ.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "sample_poisson: lambda >= 0");
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let z = sample_standard_normal(rng);
        (lambda + lambda.sqrt() * z).round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn norm_cdf_symmetry_and_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((norm_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-9);
        for &z in &[0.3, 1.0, 2.5] {
            assert!((norm_cdf(z) + norm_cdf(-z) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn norm_ppf_inverts_cdf() {
        for &p in &[1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-9] {
            let z = norm_ppf(p);
            assert!((norm_cdf(z) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn chi2_cdf_against_known_quantiles() {
        // 95th percentile of chi2(1) is 3.841458..., of chi2(10) is 18.307...
        assert!((chi2_cdf(3.841_458_820_694_124, 1.0) - 0.95).abs() < 1e-9);
        assert!((chi2_cdf(18.307_038_053_275_14, 10.0) - 0.95).abs() < 1e-9);
    }

    #[test]
    fn chi2_sf_deep_tail() {
        // Q(200; k=10) is astronomically small but must stay positive.
        let p = chi2_sf(200.0, 10.0);
        assert!(p > 0.0 && p < 1e-35);
    }

    #[test]
    fn student_t_limits_to_normal() {
        // With huge nu the t CDF approaches the normal CDF.
        for &t in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            assert!((student_t_cdf(t, 1e7) - norm_cdf(t)).abs() < 1e-5);
        }
    }

    #[test]
    fn student_t_known_value() {
        // P(T <= 2.228) for nu=10 ≈ 0.975 (classic table value 2.228139).
        assert!((student_t_cdf(2.228_138_851_986_273, 10.0) - 0.975).abs() < 1e-7);
    }

    #[test]
    fn student_t_ppf_roundtrip() {
        for &(p, nu) in &[(0.975, 5.0), (0.8, 30.0), (0.05, 12.0)] {
            let t = student_t_ppf(p, nu);
            assert!((student_t_cdf(t, nu) - p).abs() < 1e-8);
        }
    }

    #[test]
    fn exponential_mle_recovers_rate() {
        let mut rng = StdRng::seed_from_u64(7);
        let truth = Exponential { lambda: 0.8, xmin: 3.0 };
        let data: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = Exponential::mle(&data, 3.0).unwrap();
        assert!((fit.lambda - 0.8).abs() < 0.02, "lambda={}", fit.lambda);
    }

    #[test]
    fn exponential_cdf_monotone() {
        let e = Exponential { lambda: 1.5, xmin: 1.0 };
        assert_eq!(e.cdf(0.5), 0.0);
        assert!(e.cdf(2.0) < e.cdf(3.0));
        assert!(e.cdf(100.0) > 0.999);
    }

    #[test]
    fn lognormal_lnpdf_integrates_to_one() {
        // Crude trapezoid check that the truncated density is normalized.
        let ln = LogNormal { mu: 1.0, sigma: 0.5, xmin: 1.5 };
        let mut integral = 0.0;
        let n = 40_000;
        let hi = 120.0;
        let h = (hi - ln.xmin) / n as f64;
        for i in 0..n {
            let x = ln.xmin + (i as f64 + 0.5) * h;
            integral += ln.ln_pdf(x).exp() * h;
        }
        assert!((integral - 1.0).abs() < 1e-3, "integral={integral}");
    }

    #[test]
    fn lognormal_mle_recovers_parameters() {
        let mut rng = StdRng::seed_from_u64(11);
        // Sample untruncated lognormal(mu=2, sigma=0.7), truncate at 1.0.
        let data: Vec<f64> = (0..30_000)
            .map(|_| (2.0 + 0.7 * sample_standard_normal(&mut rng)).exp())
            .filter(|&x| x >= 1.0)
            .collect();
        let fit = LogNormal::mle(&data, 1.0).unwrap();
        assert!((fit.mu - 2.0).abs() < 0.1, "mu={}", fit.mu);
        assert!((fit.sigma - 0.7).abs() < 0.1, "sigma={}", fit.sigma);
    }

    /// The log-normal fit's search, with the objective summing `ln_pdf`
    /// point by point.
    fn pointwise_lognormal_mle(data: &[f64], xmin: f64) -> LogNormal {
        let (start, _) = LogNormal::untruncated(data, xmin);
        start.grid_search(|cand| data.iter().map(|&x| cand.ln_pdf(x)).sum())
    }

    fn lognormal_sample(seed: u64, n: usize, xmin: f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (1.5 + 0.8 * sample_standard_normal(&mut rng)).exp())
            .filter(|&x| x >= xmin)
            .collect()
    }

    #[test]
    fn lognormal_likelihood_matches_pointwise_sum_bit_for_bit() {
        let data = lognormal_sample(13, 500, 2.0);
        let (_, logs) = LogNormal::untruncated(&data, 2.0);
        // The last candidate's normaliser underflows to 0: every density
        // is 0 and both sums are −∞.
        let underflow = LogNormal { mu: -40.0, sigma: 0.5, xmin: 2.0 };
        assert!(underflow.ln_norm().is_none());
        for cand in [
            LogNormal { mu: 1.5, sigma: 0.8, xmin: 2.0 },
            LogNormal { mu: -3.0, sigma: 2.5, xmin: 2.0 },
            LogNormal { mu: 4.0, sigma: 1e-4, xmin: 2.0 },
            underflow,
        ] {
            let pointwise: f64 = data.iter().map(|&x| cand.ln_pdf(x)).sum();
            assert_eq!(cand.ln_likelihood(&logs).to_bits(), pointwise.to_bits(), "{cand:?}");
        }
        assert_eq!(underflow.ln_likelihood(&logs), f64::NEG_INFINITY);
    }

    #[test]
    fn lognormal_mle_matches_pointwise_search_bit_for_bit() {
        let bits = |l: LogNormal| (l.mu.to_bits(), l.sigma.to_bits(), l.xmin.to_bits());
        // All points at or near xmin: the narrow candidates far below
        // ln xmin have normalisers that underflow to 0.
        let clustered = [1.0, 1.0, 1.0, 1.5];
        assert!(LogNormal { mu: -1.9, sigma: 1e-4, xmin: 1.0 }.ln_norm().is_none());
        // One point below xmin: every candidate is −∞, so the fit returns
        // its untruncated start.
        let mut below = lognormal_sample(17, 300, 2.0);
        below.push(1.0);
        let (start, _) = LogNormal::untruncated(&below, 2.0);
        assert_eq!(bits(LogNormal::mle(&below, 2.0).unwrap()), bits(start));
        for (data, xmin) in
            [(lognormal_sample(11, 2_000, 2.0), 2.0), (clustered.to_vec(), 1.0), (below, 2.0)]
        {
            let fit = LogNormal::mle(&data, xmin).unwrap();
            assert_eq!(bits(fit), bits(pointwise_lognormal_mle(&data, xmin)), "{fit:?}");
        }
    }

    #[test]
    fn lognormal_cdf_fn_matches_cdf_bit_for_bit() {
        let law = LogNormal { mu: 1.0, sigma: 0.7, xmin: 1.5 };
        let cdf = law.cdf_fn();
        for x in [0.5, 1.5, 1.6, 3.0, 10.0, 1e3, f64::INFINITY] {
            assert_eq!(cdf(x).to_bits(), law.cdf(x).to_bits(), "x={x}");
        }
        assert_eq!(cdf(1.0), 0.0);
    }

    /// The Poisson fit's search, with the objective summing `ln_pmf` point
    /// by point.
    fn pointwise_poisson_mle(data: &[f64], xmin: f64) -> f64 {
        let mean = crate::descriptive::mean(data).unwrap();
        Poisson::golden_section(mean, |lambda| {
            data.iter().map(|&k| Poisson { lambda, xmin }.ln_pmf(k)).sum()
        })
    }

    #[test]
    fn poisson_likelihood_matches_pointwise_sum_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut data: Vec<f64> = (0..400).map(|_| sample_poisson(&mut rng, 6.0) as f64).collect();
        // A negative point is outside the support even when xmin <= 0.
        data.push(-1.0);
        // xmin <= 0 has no truncation (normaliser 1); xmin = 60 is so far
        // out that at λ = 1e-6 the normaliser underflows to 0.
        assert!(Poisson { lambda: 1e-6, xmin: 60.0 }.ln_norm().is_none());
        for xmin in [-2.0, 0.0, 3.0, 4.5, 60.0] {
            let points: Vec<_> = data.iter().map(|&k| Poisson::support_point(k, xmin)).collect();
            for lambda in [1e-6, 0.3, 6.0, 45.0] {
                let law = Poisson { lambda, xmin };
                let pointwise: f64 = data.iter().map(|&k| law.ln_pmf(k)).sum();
                assert_eq!(law.ln_likelihood(&points).to_bits(), pointwise.to_bits(), "{law:?}");
            }
        }
    }

    #[test]
    fn poisson_mle_matches_pointwise_search_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(23);
        let sample: Vec<f64> = (0..1_000).map(|_| sample_poisson(&mut rng, 7.0) as f64).collect();
        let tail: Vec<f64> = sample.iter().copied().filter(|&k| k >= 4.0).collect();
        // Every point at xmin = 100 drives λ towards 0, through candidates
        // whose normaliser underflows.
        let at_xmin = [100.0; 5];
        for (data, xmin) in [
            (&tail[..], 4.0),
            (&sample[..], 0.0),
            (&sample[..], -3.0),
            (&sample[..], 4.0),
            (&at_xmin[..], 100.0),
        ] {
            let fit = Poisson::mle(data, xmin).unwrap();
            let reference = pointwise_poisson_mle(data, xmin);
            assert_eq!(fit.lambda.to_bits(), reference.to_bits(), "xmin={xmin}: {fit:?}");
        }
        assert_eq!(Poisson::mle(&[], 1.0), Err(crate::StatsError::EmptyInput));
    }

    #[test]
    fn poisson_lnpmf_sums_to_one() {
        let p = Poisson { lambda: 6.0, xmin: 2.0 };
        let total: f64 = (2..200).map(|k| p.ln_pmf(k as f64).exp()).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn poisson_mle_recovers_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<f64> = (0..20_000)
            .map(|_| sample_poisson(&mut rng, 9.0) as f64)
            .filter(|&x| x >= 3.0)
            .collect();
        let fit = Poisson::mle(&data, 3.0).unwrap();
        assert!((fit.lambda - 9.0).abs() < 0.2, "lambda={}", fit.lambda);
    }

    #[test]
    fn sample_poisson_mean_matches() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let m: f64 = (0..n).map(|_| sample_poisson(&mut rng, 4.2) as f64).sum::<f64>() / n as f64;
        assert!((m - 4.2).abs() < 0.05, "mean={m}");
        let m_big: f64 =
            (0..n).map(|_| sample_poisson(&mut rng, 120.0) as f64).sum::<f64>() / n as f64;
        assert!((m_big - 120.0).abs() < 0.5, "mean={m_big}");
    }
}
