//! Discrete power-law MLE with KS-driven `xmin` selection.
//!
//! Section IV-B fits the out-degree distribution with "discrete maximum
//! likelihood estimate (MLE)" and the BFGS-based estimator of Nepusz's
//! `plfit`; here the 1-D concave log-likelihood in α is maximized by
//! golden-section search (equivalent optimum, no gradient code), and the
//! threshold `xmin` is chosen to minimize the Kolmogorov–Smirnov distance
//! between the tail data and the fitted model — the CSN recipe.

use crate::zeta::{discrete_survival, hurwitz_zeta};
use crate::{FitOptions, PowerLawError, Result, XminStrategy};

/// A fitted discrete power law `p(k) ∝ k^{−α}` for `k >= xmin`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteFit {
    /// Scaling exponent.
    pub alpha: f64,
    /// Estimated lower cutoff.
    pub xmin: u64,
    /// Kolmogorov–Smirnov distance of the tail data from the fit.
    pub ks: f64,
    /// Number of observations at or above `xmin`.
    pub n_tail: usize,
    /// Maximized tail log-likelihood.
    pub log_likelihood: f64,
}

impl DiscreteFit {
    /// Log-PMF of the fitted model at integer `k`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        // Below the support the normaliser is not needed.
        if k < self.xmin {
            f64::NEG_INFINITY
        } else {
            self.ln_pmf_fn()(k)
        }
    }

    /// The log-PMF as a function, for evaluating many points of one fit:
    /// `ln ζ(α, xmin)` (a 34-term power sum) is taken once, here, not at
    /// every call. Each call returns [`ln_pmf`](Self::ln_pmf)'s bits.
    pub(crate) fn ln_pmf_fn(&self) -> impl Fn(u64) -> f64 {
        let (alpha, xmin) = (self.alpha, self.xmin);
        let ln_zeta = hurwitz_zeta(alpha, xmin as f64).ln();
        move |k| if k < xmin { f64::NEG_INFINITY } else { -alpha * (k as f64).ln() - ln_zeta }
    }

    /// Survival `P(X >= k)` of the fitted model.
    pub fn survival(&self, k: u64) -> f64 {
        if k <= self.xmin {
            1.0
        } else {
            discrete_survival(self.alpha, self.xmin as f64, k as f64)
        }
    }
}

/// Fit α for a *fixed* `xmin` by golden-section maximization of the
/// log-likelihood. `tail` must contain only values `>= xmin` and be
/// non-empty; it need not be sorted.
pub fn fit_alpha_discrete(tail: &[u64], xmin: u64) -> DiscreteFit {
    debug_assert!(!tail.is_empty());
    debug_assert!(tail.iter().all(|&x| x >= xmin));
    let sum_ln: f64 = tail.iter().map(|&x| (x as f64).ln()).sum();
    let mut sorted = tail.to_vec();
    sorted.sort_unstable();
    fit_sorted_tail(&sorted, sum_ln, xmin, f64::INFINITY)
}

/// [`fit_alpha_discrete`] over an ascending tail whose logarithms sum to
/// `sum_ln`. The fit's `ks` is exact when it is below `bound`; see
/// [`ks_distance`].
fn fit_sorted_tail(sorted: &[u64], sum_ln: f64, xmin: u64, bound: f64) -> DiscreteFit {
    let n = sorted.len() as f64;
    let ll = |alpha: f64| -> f64 {
        -n * hurwitz_zeta(alpha, xmin as f64).ln() - alpha * sum_ln
    };
    // Golden-section maximize over α ∈ (1, 12] — degree exponents of real
    // networks live in (1.5, 4.5); the wide bracket costs little.
    let (mut a, mut b) = (1.000_001f64, 12.0f64);
    let phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let (mut c, mut d) = (b - phi * (b - a), a + phi * (b - a));
    let (mut fc, mut fd) = (ll(c), ll(d));
    for _ in 0..100 {
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
    let alpha = 0.5 * (a + b);
    let z_xmin = hurwitz_zeta(alpha, xmin as f64);
    let ks = ks_distance(sorted, alpha, xmin, z_xmin, bound);
    DiscreteFit {
        alpha,
        xmin,
        ks,
        n_tail: sorted.len(),
        log_likelihood: -n * z_xmin.ln() - alpha * sum_ln,
    }
}

/// KS distance between the empirical CDF of `sorted` (ascending, every
/// value `>= xmin`) and the fitted model, whose normaliser `z_xmin` is
/// `ζ(α, xmin)`.
///
/// The scan stops as soon as the running maximum reaches `bound`: a result
/// below `bound` is the distance, a result at or above it only says the
/// distance is no smaller. Pass `f64::INFINITY` for the full scan.
fn ks_distance(sorted: &[u64], alpha: f64, xmin: u64, z_xmin: f64, bound: f64) -> f64 {
    let n = sorted.len() as f64;
    let mut max_d: f64 = 0.0;
    // ζ(α, ·) at the argument it was last taken for: a value k followed
    // by k+1 reuses ζ(α, k+1) as the next value's ζ(α, k).
    let mut known = (xmin, z_xmin);
    let mut i = 0;
    while i < sorted.len() {
        let k = sorted[i];
        let mut j = i;
        while j < sorted.len() && sorted[j] == k {
            j += 1;
        }
        // Empirical CDF just below k and at k.
        let ecdf_lo = i as f64 / n;
        let ecdf_hi = j as f64 / n;
        // Model CDF at k: 1 − ζ(α, k+1)/ζ(α, xmin).
        let z_next = hurwitz_zeta(alpha, (k + 1) as f64);
        let z_k = if known.0 == k { known.1 } else { hurwitz_zeta(alpha, k as f64) };
        let model = 1.0 - z_next / z_xmin;
        let model_lo = 1.0 - z_k / z_xmin;
        max_d = max_d.max((model - ecdf_hi).abs()).max((model_lo - ecdf_lo).abs());
        if max_d >= bound {
            return max_d;
        }
        known = (k + 1, z_next);
        i = j;
    }
    max_d
}

/// Full CSN fit: scan candidate `xmin` values, fit α at each, keep the
/// candidate minimizing the KS distance (the first one, on ties).
///
/// A candidate's KS scan stops once its running maximum reaches the best
/// distance so far, since it can no longer be kept. The chosen fit is the
/// one a full scan of every candidate picks, bit for bit.
///
/// # Examples
/// ```
/// use rand::SeedableRng;
/// use vnet_powerlaw::{fit_discrete, FitOptions};
/// use vnet_stats::sampling::DiscretePowerLaw;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let data = DiscretePowerLaw::new(2.5, 2).sample_n(&mut rng, 20_000);
/// let fit = fit_discrete(&data, &FitOptions::default()).unwrap();
/// assert!((fit.alpha - 2.5).abs() < 0.15);
/// ```
pub fn fit_discrete(data: &[u64], opts: &FitOptions) -> Result<DiscreteFit> {
    let mut positive: Vec<u64> = data.iter().copied().filter(|&x| x > 0).collect();
    if positive.len() < opts.min_tail.max(2) {
        return Err(PowerLawError::TooFewObservations {
            needed: opts.min_tail.max(2),
            got: positive.len(),
        });
    }
    positive.sort_unstable();
    let mut distinct: Vec<u64> = positive.clone();
    distinct.dedup();

    let candidates: Vec<u64> = match opts.xmin {
        XminStrategy::Exhaustive => distinct,
        XminStrategy::Quantiles(q) => quantile_candidates(&distinct, q),
    };

    // Each point's logarithm, taken once: every tail sums a suffix of it,
    // front to back, as `fit_alpha_discrete` sums its tail.
    let ln_positive: Vec<f64> = positive.iter().map(|&x| (x as f64).ln()).collect();
    let mut best: Option<DiscreteFit> = None;
    for &xmin in &candidates {
        // Tail = observations >= xmin (positive is sorted).
        let start = positive.partition_point(|&x| x < xmin);
        let tail = &positive[start..];
        if tail.len() < opts.min_tail {
            break; // candidates ascend; later tails only shrink
        }
        // A candidate is kept only on a strictly smaller KS distance, so
        // its scan can stop once it reaches the best distance so far.
        let bound = best.as_ref().map_or(f64::INFINITY, |b| b.ks);
        let fit = fit_sorted_tail(tail, ln_positive[start..].iter().sum(), xmin, bound);
        if fit.ks < bound {
            best = Some(fit);
        }
    }
    best.ok_or(PowerLawError::TooFewObservations { needed: opts.min_tail, got: 0 })
}

/// Pick up to `q` quantile-spaced values from a sorted distinct list.
pub(crate) fn quantile_candidates(distinct: &[u64], q: usize) -> Vec<u64> {
    if q == 0 || distinct.is_empty() {
        return Vec::new();
    }
    if distinct.len() <= q {
        return distinct.to_vec();
    }
    let mut out: Vec<u64> = (0..q)
        .map(|i| distinct[i * (distinct.len() - 1) / (q - 1).max(1)])
        .collect();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vnet_stats::sampling::DiscretePowerLaw;

    fn synthetic(alpha: f64, xmin: u64, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        DiscretePowerLaw::new(alpha, xmin).sample_n(&mut rng, n)
    }

    #[test]
    fn recovers_alpha_on_pure_power_law() {
        let data = synthetic(2.5, 1, 50_000, 7);
        let fit = fit_discrete(&data, &FitOptions::default()).unwrap();
        assert!((fit.alpha - 2.5).abs() < 0.08, "alpha={}", fit.alpha);
        assert!(fit.xmin <= 3, "xmin={}", fit.xmin);
    }

    #[test]
    fn recovers_paper_like_exponent() {
        // The paper's out-degree fit: α = 3.24. Check recovery near 3.24.
        let data = synthetic(3.24, 5, 40_000, 11);
        let fit = fit_discrete(&data, &FitOptions::default()).unwrap();
        assert!((fit.alpha - 3.24).abs() < 0.12, "alpha={}", fit.alpha);
    }

    #[test]
    fn finds_xmin_with_contaminated_head() {
        // Uniform noise below 20, power law above: scan should land near 20.
        let mut rng = StdRng::seed_from_u64(13);
        let mut data: Vec<u64> = DiscretePowerLaw::new(2.8, 20).sample_n(&mut rng, 20_000);
        use rand::Rng;
        for _ in 0..20_000 {
            data.push(rng.random_range(1..20u64));
        }
        let fit = fit_discrete(&data, &FitOptions::default()).unwrap();
        assert!((15..=30).contains(&fit.xmin), "xmin={}", fit.xmin);
        assert!((fit.alpha - 2.8).abs() < 0.15, "alpha={}", fit.alpha);
    }

    #[test]
    fn fixed_xmin_likelihood_is_concave_optimum() {
        let data = synthetic(2.2, 3, 20_000, 17);
        let tail: Vec<u64> = data.into_iter().filter(|&x| x >= 3).collect();
        let fit = fit_alpha_discrete(&tail, 3);
        // Nudging alpha either way must not increase the likelihood.
        let n = tail.len() as f64;
        let sum_ln: f64 = tail.iter().map(|&x| (x as f64).ln()).sum();
        let ll =
            |a: f64| -> f64 { -n * hurwitz_zeta(a, 3.0).ln() - a * sum_ln };
        assert!(ll(fit.alpha) >= ll(fit.alpha + 0.05) - 1e-9);
        assert!(ll(fit.alpha) >= ll(fit.alpha - 0.05) - 1e-9);
    }

    #[test]
    fn quantile_strategy_close_to_exhaustive() {
        let data = synthetic(3.0, 10, 30_000, 19);
        let full = fit_discrete(&data, &FitOptions::default()).unwrap();
        let quick = fit_discrete(
            &data,
            &FitOptions { xmin: XminStrategy::Quantiles(25), min_tail: 10 },
        )
        .unwrap();
        assert!((full.alpha - quick.alpha).abs() < 0.25, "{} vs {}", full.alpha, quick.alpha);
    }

    #[test]
    fn rejects_tiny_input() {
        assert!(matches!(
            fit_discrete(&[1, 2, 3], &FitOptions::default()),
            Err(PowerLawError::TooFewObservations { .. })
        ));
        assert!(fit_discrete(&[0; 100], &FitOptions::default()).is_err());
    }

    #[test]
    fn ln_pmf_normalizes() {
        let fit = DiscreteFit { alpha: 2.5, xmin: 2, ks: 0.0, n_tail: 0, log_likelihood: 0.0 };
        let total: f64 = (2..60_000).map(|k| fit.ln_pmf(k).exp()).sum();
        assert!((total - 1.0).abs() < 1e-4, "total={total}");
        assert_eq!(fit.ln_pmf(1), f64::NEG_INFINITY);
    }

    #[test]
    fn ln_pmf_fn_matches_ln_pmf_bit_for_bit() {
        let fit = DiscreteFit { alpha: 3.24, xmin: 7, ks: 0.0, n_tail: 0, log_likelihood: 0.0 };
        let ln_pmf = fit.ln_pmf_fn();
        for k in [0, 6, 7, 8, 100, 1_334, u64::MAX] {
            assert_eq!(ln_pmf(k).to_bits(), fit.ln_pmf(k).to_bits(), "k={k}");
        }
        assert_eq!(ln_pmf(6), f64::NEG_INFINITY);
    }

    #[test]
    fn ks_distance_zero_for_exact_model_cdf() {
        // A huge sample from the model should have small KS.
        let data = synthetic(2.5, 4, 80_000, 23);
        let tail: Vec<u64> = data.into_iter().filter(|&x| x >= 4).collect();
        let fit = fit_alpha_discrete(&tail, 4);
        assert!(fit.ks < 0.01, "ks={}", fit.ks);
    }

    /// The scan as it stood before the bounded KS scan: every candidate is
    /// fitted and scanned in full over a sorted copy of its tail, and every
    /// ζ is taken afresh. `fit_discrete` must return its bits.
    fn reference_fit_discrete(data: &[u64], opts: &FitOptions) -> Result<DiscreteFit> {
        fn ks(tail: &[u64], alpha: f64, xmin: u64) -> f64 {
            let mut sorted = tail.to_vec();
            sorted.sort_unstable();
            let n = sorted.len() as f64;
            let z_xmin = hurwitz_zeta(alpha, xmin as f64);
            let mut max_d: f64 = 0.0;
            let mut i = 0;
            while i < sorted.len() {
                let k = sorted[i];
                let mut j = i;
                while j < sorted.len() && sorted[j] == k {
                    j += 1;
                }
                let ecdf_lo = i as f64 / n;
                let ecdf_hi = j as f64 / n;
                let model = 1.0 - hurwitz_zeta(alpha, (k + 1) as f64) / z_xmin;
                let model_lo = 1.0 - hurwitz_zeta(alpha, k as f64) / z_xmin;
                max_d = max_d.max((model - ecdf_hi).abs()).max((model_lo - ecdf_lo).abs());
                i = j;
            }
            max_d
        }
        fn fit_alpha(tail: &[u64], xmin: u64) -> DiscreteFit {
            let n = tail.len() as f64;
            let sum_ln: f64 = tail.iter().map(|&x| (x as f64).ln()).sum();
            let ll = |alpha: f64| -> f64 {
                -n * hurwitz_zeta(alpha, xmin as f64).ln() - alpha * sum_ln
            };
            let (mut a, mut b) = (1.000_001f64, 12.0f64);
            let phi = (5.0f64.sqrt() - 1.0) / 2.0;
            let (mut c, mut d) = (b - phi * (b - a), a + phi * (b - a));
            let (mut fc, mut fd) = (ll(c), ll(d));
            for _ in 0..100 {
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
            let alpha = 0.5 * (a + b);
            let ks = ks(tail, alpha, xmin);
            DiscreteFit { alpha, xmin, ks, n_tail: tail.len(), log_likelihood: ll(alpha) }
        }
        let mut positive: Vec<u64> = data.iter().copied().filter(|&x| x > 0).collect();
        if positive.len() < opts.min_tail.max(2) {
            return Err(PowerLawError::TooFewObservations {
                needed: opts.min_tail.max(2),
                got: positive.len(),
            });
        }
        positive.sort_unstable();
        let mut distinct: Vec<u64> = positive.clone();
        distinct.dedup();
        let candidates: Vec<u64> = match opts.xmin {
            XminStrategy::Exhaustive => distinct,
            XminStrategy::Quantiles(q) => quantile_candidates(&distinct, q),
        };
        let mut best: Option<DiscreteFit> = None;
        for &xmin in &candidates {
            let start = positive.partition_point(|&x| x < xmin);
            let tail = &positive[start..];
            if tail.len() < opts.min_tail {
                break;
            }
            let fit = fit_alpha(tail, xmin);
            if best.as_ref().is_none_or(|b| fit.ks < b.ks) {
                best = Some(fit);
            }
        }
        best.ok_or(PowerLawError::TooFewObservations { needed: opts.min_tail, got: 0 })
    }

    fn assert_same_bits(got: &DiscreteFit, want: &DiscreteFit) {
        assert_eq!(got.alpha.to_bits(), want.alpha.to_bits(), "alpha: {got:?} vs {want:?}");
        assert_eq!(got.xmin, want.xmin, "xmin: {got:?} vs {want:?}");
        assert_eq!(got.ks.to_bits(), want.ks.to_bits(), "ks: {got:?} vs {want:?}");
        assert_eq!(got.n_tail, want.n_tail, "n_tail: {got:?} vs {want:?}");
        assert_eq!(
            got.log_likelihood.to_bits(),
            want.log_likelihood.to_bits(),
            "log_likelihood: {got:?} vs {want:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Power-law draws over a uniform head, with values optionally
        /// coarsened to multiples of `step` (so consecutive values are
        /// often not k, k+1) and heavily repeated (so every ECDF step
        /// spans many points): the bounded scan picks the same fit, bit
        /// for bit, under either strategy and any `min_tail`.
        #[test]
        fn bounded_scan_matches_the_full_scan_bit_for_bit(
            seed in 0u64..u64::MAX,
            alpha in 1.6f64..3.6,
            n in 20usize..1500,
            head in 0usize..300,
            step in 1u64..4,
            quantiles in 0usize..40,
            min_tail in 2usize..60,
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut data = DiscretePowerLaw::new(alpha, 1 + seed % 12).sample_n(&mut rng, n);
            for _ in 0..head {
                data.push(rng.random_range(0..15u64));
            }
            for x in &mut data {
                *x = x.div_ceil(step) * step;
            }
            let opts = FitOptions {
                // Half the cases scan every distinct value.
                xmin: if quantiles < 20 {
                    XminStrategy::Exhaustive
                } else {
                    XminStrategy::Quantiles(quantiles - 19)
                },
                min_tail,
            };
            match (fit_discrete(&data, &opts), reference_fit_discrete(&data, &opts)) {
                (Ok(got), Ok(want)) => assert_same_bits(&got, &want),
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                (got, want) => prop_assert!(false, "{got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn quantile_candidates_edge_cases() {
        assert!(quantile_candidates(&[], 5).is_empty());
        assert_eq!(quantile_candidates(&[1, 2, 3], 10), vec![1, 2, 3]);
        let picked = quantile_candidates(&(1..1000u64).collect::<Vec<_>>(), 10);
        assert!(picked.len() <= 10 && picked[0] == 1 && *picked.last().unwrap() == 999);
    }
}
