//! Ablation contracts: each ingredient of the calibrated generator must be
//! responsible for exactly its own paper statistic, and the fingerprint
//! classifier must exploit those differences the way Section VI proposes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use verified_net::{classify_fingerprint, AnalysisCtx, NetworkFingerprint};
use vnet_algos::clustering::average_local_clustering_sampled;
use vnet_algos::components::{attracting_components, strongly_connected_components};
use vnet_algos::reciprocity::reciprocity;
use vnet_synth::{directed_configuration_model, VerifiedNetConfig, VerifiedNetwork};

/// The fit the classifier's thresholds were set against.
const FIT: vnet_powerlaw::FitOptions = NetworkFingerprint::CLASSIFIER_FIT;

fn gen(cfg: &VerifiedNetConfig, seed: u64) -> VerifiedNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    VerifiedNetwork::generate(cfg, &mut rng)
}

#[test]
fn reciprocity_ablation_only_kills_reciprocity() {
    let full = gen(&VerifiedNetConfig::small(), 42);
    let ablated = gen(&VerifiedNetConfig::small().without_reciprocity(), 42);

    assert!(reciprocity(&full.graph) > 0.3);
    assert!(reciprocity(&ablated.graph) < 0.05);

    // Connectivity survives the ablation.
    let scc_full = strongly_connected_components(&full.graph).giant_fraction();
    let scc_abl = strongly_connected_components(&ablated.graph).giant_fraction();
    assert!(scc_abl > 0.85, "ablation broke the giant SCC: {scc_abl} (full {scc_full})");
}

#[test]
fn closure_ablation_only_kills_clustering() {
    let mut rng = StdRng::seed_from_u64(7);
    let full = gen(&VerifiedNetConfig::small(), 7);
    let ablated = gen(&VerifiedNetConfig::small().without_triadic_closure(), 7);
    let ctx = AnalysisCtx::quiet();
    let c_full = average_local_clustering_sampled(&full.graph, 1_200, &mut rng, &ctx);
    let c_abl = average_local_clustering_sampled(&ablated.graph, 1_200, &mut rng, &ctx);
    assert!(
        c_abl < 0.75 * c_full,
        "closure off should cut clustering markedly: {c_abl} vs {c_full}"
    );
    // Reciprocity untouched.
    assert!((reciprocity(&full.graph) - reciprocity(&ablated.graph)).abs() < 0.05);
}

#[test]
fn sink_ablation_removes_nontrivial_attractors_only() {
    let full = gen(&VerifiedNetConfig::small(), 9);
    let ablated = gen(&VerifiedNetConfig::small().without_sinks(), 9);

    let nontrivial = |net: &VerifiedNetwork| {
        attracting_components(&net.graph)
            .iter()
            .filter(|c| c.members.iter().any(|&v| !net.graph.is_isolated(v)))
            .count()
    };
    assert!(nontrivial(&full) >= 3, "expected celebrity sinks: {}", nontrivial(&full));
    assert!(nontrivial(&ablated) <= 1, "sinks should vanish: {}", nontrivial(&ablated));
}

#[test]
fn fingerprint_separates_model_from_degree_matched_null() {
    // The sternest test of Section VI's idea: a configuration-model twin
    // with identical degree sequences must be told apart.
    let quiet = AnalysisCtx::quiet();
    let mut rng = StdRng::seed_from_u64(13);
    let net = gen(&VerifiedNetConfig::small(), 13);
    let twin = directed_configuration_model(
        &net.graph.out_degrees(),
        &net.graph.in_degrees(),
        &mut rng,
    );
    let fp_real = NetworkFingerprint::measure(&net.graph, &FIT, 60, &mut rng, &quiet);
    let fp_twin = NetworkFingerprint::measure(&twin, &FIT, 60, &mut rng, &quiet);
    assert!(classify_fingerprint(&fp_real), "real fingerprint rejected: {fp_real:?}");
    assert!(!classify_fingerprint(&fp_twin), "degree twin accepted: {fp_twin:?}");
    // And the separating feature is reciprocity, exactly as documented.
    assert!(fp_real.reciprocity > 0.3);
    assert!(fp_twin.reciprocity < 0.1);
}

#[test]
fn ablated_networks_lose_the_fingerprint() {
    let quiet = AnalysisCtx::quiet();
    let mut rng = StdRng::seed_from_u64(17);
    let ablated = gen(&VerifiedNetConfig::small().without_reciprocity(), 17);
    let fp = NetworkFingerprint::measure(&ablated.graph, &FIT, 60, &mut rng, &quiet);
    assert!(
        !classify_fingerprint(&fp),
        "reciprocity-ablated network should fail classification: {fp:?}"
    );
}
