//! Section IV-B (continuous half): the Laplacian eigenvalue power law.

use crate::dataset::Dataset;
use rand::Rng;
use serde::Serialize;
use vnet_ctx::AnalysisCtx;
use vnet_powerlaw::vuong::{vuong_continuous, Alternative};
use vnet_powerlaw::{bootstrap_pvalue_continuous, fit_continuous, FitOptions};
use vnet_spectral::{lanczos_topk, SymLaplacian};

/// Eigenvalue analysis results (paper: α = 3.18, xmin = 9377.26, p = 0.3).
#[derive(Debug, Clone, Serialize)]
pub struct EigenReport {
    /// Top eigenvalues, descending.
    pub eigenvalues: Vec<f64>,
    /// Fitted exponent.
    pub alpha: f64,
    /// Fitted cutoff.
    pub xmin: f64,
    /// KS distance.
    pub ks: f64,
    /// Tail observations.
    pub n_tail: usize,
    /// Bootstrap goodness-of-fit p (NaN when reps = 0).
    pub gof_p: f64,
    /// Vuong LR vs log-normal and exponential.
    pub vuong: Vec<crate::degrees::VuongRow>,
}

/// Compute the top-`k` Laplacian eigenvalues (symmetric Laplacian of the
/// undirected projection, as in the paper's spectral references) and fit a
/// continuous power law.
///
/// The paper computes the top 10,000 eigenvalues at 231k nodes and
/// "discard\[s\] most of the smaller eigenvalues" for numerical reasons; at
/// reproduction scale `k` defaults to ~400 with the same top-of-spectrum
/// logic. The Lanczos matvec and the bootstrap replicates fan out over
/// `ctx`'s pool; like every `vnet-par` stage, both are bit-identical at
/// any thread count (the bootstrap draws one seed from `rng` and splits a
/// stream per replicate). Solver counters (`algo.lanczos.*`) and sub-spans
/// are recorded through `ctx`.
pub fn eigen_analysis<R: Rng + ?Sized>(
    dataset: &Dataset,
    k: usize,
    lanczos_steps: usize,
    opts: &FitOptions,
    bootstrap_reps: usize,
    rng: &mut R,
    ctx: &AnalysisCtx,
) -> vnet_powerlaw::Result<EigenReport> {
    let lap = SymLaplacian::from_digraph(&dataset.graph);
    let eigenvalues = {
        let _span = ctx.span("analysis.eigen.lanczos");
        lanczos_topk(&lap, k, lanczos_steps, rng, ctx)
    };
    let positive: Vec<f64> = eigenvalues.iter().copied().filter(|&x| x > 1e-9).collect();
    let fit = {
        let _span = ctx.span("analysis.eigen.fit");
        fit_continuous(&positive, opts)?
    };
    let gof_p = if bootstrap_reps > 0 {
        let _span = ctx.span("analysis.eigen.bootstrap");
        let boot_seed: u64 = rng.random();
        bootstrap_pvalue_continuous(&positive, &fit, bootstrap_reps, opts, boot_seed, ctx)?
    } else {
        f64::NAN
    };
    let mut vuong = Vec::new();
    for alt in [Alternative::LogNormal, Alternative::Exponential] {
        let v = vuong_continuous(&positive, &fit, alt)?;
        vuong.push(crate::degrees::VuongRow {
            alternative: alt.to_string(),
            lr: v.lr,
            statistic: v.statistic,
            p_value: v.p_value,
        });
    }
    Ok(EigenReport {
        eigenvalues,
        alpha: fit.alpha,
        xmin: fit.xmin,
        ks: fit.ks,
        n_tail: fit.n_tail,
        gof_p,
        vuong,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthesisConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vnet_powerlaw::XminStrategy;

    #[test]
    fn eigen_spectrum_tail_is_power_law_like() {
        let ctx = AnalysisCtx::quiet();
        let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
        let mut rng = StdRng::seed_from_u64(9);
        let opts = FitOptions { xmin: XminStrategy::Quantiles(30), min_tail: 25 };
        let r = eigen_analysis(&ds, 150, 220, &opts, 0, &mut rng, &ctx).unwrap();
        assert_eq!(r.eigenvalues.len(), 150);
        // Descending, nonnegative.
        for w in r.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-6);
        }
        assert!(*r.eigenvalues.last().unwrap() >= -1e-9);
        // The top of the Laplacian spectrum tracks the degree tail, so the
        // fitted exponent lands near the degree exponent (paper: 3.18 vs
        // 3.24).
        assert!(r.alpha > 2.0 && r.alpha < 5.5, "alpha={}", r.alpha);
        // λ_max >= d_max + 1.
        let dmax = SymLaplacian::from_digraph(&ds.graph).max_degree();
        assert!(r.eigenvalues[0] >= dmax + 1.0 - 1e-6, "λmax {} vs dmax {dmax}", r.eigenvalues[0]);
    }
}
