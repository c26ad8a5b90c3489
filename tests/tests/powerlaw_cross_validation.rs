//! Cross-crate validation of the §IV-B inference chain: the generator's
//! configured exponents must be recovered by the fitter through the whole
//! pipeline (generator → graph → degree sequence → MLE), and the spectral
//! tail must track the degree tail.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vnet_powerlaw::{fit_continuous, fit_discrete, FitOptions, XminStrategy};
use vnet_spectral::{lanczos_topk, SymLaplacian};
use vnet_stats::sampling::DiscretePowerLaw;
use vnet_synth::{VerifiedNetConfig, VerifiedNetwork};

fn opts() -> FitOptions {
    FitOptions { xmin: XminStrategy::Quantiles(40), min_tail: 30 }
}

#[test]
fn generator_exponent_recovered_through_graph_pipeline() {
    for (seed, alpha_in) in [(1u64, 2.8f64), (2, 3.24), (3, 3.8)] {
        let cfg = VerifiedNetConfig { out_tail_alpha: alpha_in, ..VerifiedNetConfig::small() };
        let mut rng = StdRng::seed_from_u64(seed);
        let net = VerifiedNetwork::generate(&cfg, &mut rng);
        let degrees: Vec<u64> =
            net.graph.out_degrees().into_iter().filter(|&d| d > 0).collect();
        let fit = fit_discrete(&degrees, &opts()).unwrap();
        // The KS scan fits the mixture's tail; allow generous slack since
        // the bulk contaminates the crossover region.
        assert!(
            (fit.alpha - alpha_in).abs() < 0.8,
            "alpha in {alpha_in}, out {} (seed {seed})",
            fit.alpha
        );
    }
}

#[test]
fn spectral_tail_tracks_degree_tail() {
    let mut rng = StdRng::seed_from_u64(11);
    let net = VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng);
    // Top Laplacian eigenvalues of a graph sit within [d_max+1, 2 d_max]
    // per eigenvalue interlacing bounds; with a heavy degree tail the top
    // of the spectrum inherits its shape.
    let lap = SymLaplacian::from_digraph(&net.graph);
    let eig = lanczos_topk(&lap, 120, 200, &mut rng, &vnet_ctx::AnalysisCtx::quiet());
    let dmax = lap.max_degree();
    assert!(eig[0] >= dmax + 1.0 - 1e-6);
    assert!(eig[0] <= 2.0 * dmax + 1e-6);
    // Continuous fit on the eigenvalue tail succeeds with a credible
    // exponent (paper: 3.18 next to the degree 3.24).
    let fit = fit_continuous(&eig, &FitOptions { xmin: XminStrategy::Quantiles(25), min_tail: 20 })
        .unwrap();
    assert!(fit.alpha > 1.5 && fit.alpha < 8.0, "eigen alpha {}", fit.alpha);
}

#[test]
fn degree_xmin_scales_with_degree_scale() {
    // Doubling the mean degree should roughly double the fitted xmin —
    // the scan follows the distribution, not an absolute threshold.
    let mut fits = Vec::new();
    for (seed, mean) in [(5u64, 20.0f64), (6, 40.0)] {
        let cfg = VerifiedNetConfig { mean_out_degree: mean, ..VerifiedNetConfig::small() };
        let mut rng = StdRng::seed_from_u64(seed);
        let net = VerifiedNetwork::generate(&cfg, &mut rng);
        let degrees: Vec<u64> =
            net.graph.out_degrees().into_iter().filter(|&d| d > 0).collect();
        fits.push(fit_discrete(&degrees, &opts()).unwrap());
    }
    let ratio = fits[1].xmin as f64 / fits[0].xmin as f64;
    assert!(ratio > 1.2 && ratio < 4.0, "xmin ratio {ratio} ({} vs {})", fits[1].xmin, fits[0].xmin);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn discrete_fit_alpha_recovery_property(alpha in 2.1f64..3.6, seed in 0u64..1000) {
        // Pure synthetic power law: the MLE must recover alpha within
        // sampling error, for any exponent and seed.
        let mut rng = StdRng::seed_from_u64(seed);
        let data = DiscretePowerLaw::new(alpha, 3).sample_n(&mut rng, 30_000);
        let fit = fit_discrete(&data, &FitOptions { xmin: XminStrategy::Quantiles(20), min_tail: 100 }).unwrap();
        prop_assert!((fit.alpha - alpha).abs() < 0.25,
            "alpha in {}, out {}", alpha, fit.alpha);
    }
}
