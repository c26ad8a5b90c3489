//! Section VI's future-work gleam, implemented: the "unique fingerprint"
//! of a verified-user network.
//!
//! "The above-mentioned deviations likely constitute a unique fingerprint
//! for verified users which can be leveraged to discern between a verified
//! and a non-verified user \[network\]." This module packages the deviation
//! vector (power-law tail presence, reciprocity, dissortativity, mean
//! distance, attracting-component density) and a reference classifier that
//! separates verified-model graphs from whole-Twitter-like nulls.

use rand::Rng;
use serde::Serialize;
use vnet_algos::assortativity::{degree_assortativity, DegreeMode};
use vnet_algos::distances::{distance_distribution, SourceSpec};
use vnet_algos::reciprocity::reciprocity;
use vnet_ctx::AnalysisCtx;
use vnet_graph::DiGraph;
use vnet_powerlaw::{fit_discrete, FitOptions, XminStrategy};

/// The structural fingerprint the paper's conclusion proposes.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NetworkFingerprint {
    /// Fitted out-degree power-law exponent (NaN when no fit exists).
    pub out_alpha: f64,
    /// KS distance of that fit (small ⇒ credible power law).
    pub out_ks: f64,
    /// Edge reciprocity.
    pub reciprocity: f64,
    /// Out→in degree assortativity.
    pub assortativity: f64,
    /// Mean pairwise distance (sampled).
    pub mean_distance: f64,
    /// Attracting components per node.
    pub attracting_density: f64,
}

impl NetworkFingerprint {
    /// The out-degree fit [`classify_fingerprint`]'s thresholds were set
    /// against.
    pub const CLASSIFIER_FIT: FitOptions =
        FitOptions { xmin: XminStrategy::Quantiles(30), min_tail: 25 };

    /// Measure a graph's fingerprint: the out-degree fit with `fit`, and
    /// distances from `sources` sampled BFS sources on `ctx`'s pool.
    pub fn measure<R: Rng + ?Sized>(
        g: &DiGraph,
        fit: &FitOptions,
        sources: usize,
        rng: &mut R,
        ctx: &AnalysisCtx,
    ) -> Self {
        let degrees: Vec<u64> = g.out_degrees().into_iter().filter(|&d| d > 0).collect();
        let (out_alpha, out_ks) = match fit_discrete(&degrees, fit) {
            Ok(fit) => (fit.alpha, fit.ks),
            Err(_) => (f64::NAN, 1.0),
        };
        let d = distance_distribution(g, SourceSpec::Sampled(sources), rng, ctx);
        let attracting = vnet_algos::components::attracting_components(g).len();
        Self {
            out_alpha,
            out_ks,
            reciprocity: reciprocity(g),
            assortativity: degree_assortativity(g, DegreeMode::OutIn).unwrap_or(0.0),
            mean_distance: d.mean,
            attracting_density: attracting as f64 / g.node_count().max(1) as f64,
        }
    }
}

/// Reference decision rule: does this fingerprint look like a verified
/// sub-graph rather than a whole-Twitter-like graph?
///
/// The thresholds encode the paper's contrasts: elevated reciprocity
/// (33.7% vs 22.1%) — mandatory, because a degree-preserving null
/// replicates every degree-driven statistic but cannot fake deliberate
/// mutual-pair formation — plus at least one of: a credible out-degree
/// power-law tail (whole Twitter: "absence of a power-law") or short
/// internal distances (2.74 vs 3.43–4.12).
pub fn classify_fingerprint(fp: &NetworkFingerprint) -> bool {
    if fp.reciprocity <= 0.28 {
        return false;
    }
    let power_law =
        fp.out_alpha.is_finite() && fp.out_ks < 0.08 && fp.out_alpha > 2.0 && fp.out_alpha < 4.5;
    let short = fp.mean_distance > 0.0 && fp.mean_distance < 3.3;
    power_law || short
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vnet_synth::{preferential_attachment_directed, VerifiedNetConfig, VerifiedNetwork};

    const FIT: FitOptions = NetworkFingerprint::CLASSIFIER_FIT;

    #[test]
    fn verified_model_classified_positive() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng);
        let fp = NetworkFingerprint::measure(&net.graph, &FIT, 60, &mut rng, &AnalysisCtx::quiet());
        assert!(classify_fingerprint(&fp), "verified net misclassified: {fp:?}");
        assert!(fp.reciprocity > 0.28);
    }

    #[test]
    fn preferential_attachment_null_classified_negative() {
        let mut rng = StdRng::seed_from_u64(23);
        // Whole-Twitter-like null: PA graph with constant out-degree —
        // no out-degree power law, no reciprocity.
        let g = preferential_attachment_directed(4_000, 25, &mut rng);
        let fp = NetworkFingerprint::measure(&g, &FIT, 60, &mut rng, &AnalysisCtx::quiet());
        assert!(!classify_fingerprint(&fp), "null misclassified: {fp:?}");
        assert!(fp.reciprocity < 0.05, "PA reciprocity {}", fp.reciprocity);
    }

    #[test]
    fn fingerprint_fields_finite_on_small_graph() {
        let mut rng = StdRng::seed_from_u64(29);
        let g = vnet_synth::erdos_renyi_directed(300, 3_000, &mut rng);
        let fp = NetworkFingerprint::measure(&g, &FIT, 30, &mut rng, &AnalysisCtx::quiet());
        assert!(fp.reciprocity.is_finite());
        assert!(fp.mean_distance.is_finite());
        assert!(fp.attracting_density >= 0.0);
    }
}
