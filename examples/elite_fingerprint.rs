//! The paper's future-work idea, demonstrated: the structural fingerprint
//! of the verified sub-graph "can be leveraged to discern between a
//! verified and a non-verified user" network (Section VI).
//!
//! This example measures the fingerprint of the calibrated verified model
//! and of three null models (preferential attachment, Erdős–Rényi, and
//! the degree-preserving configuration model), then runs the reference
//! classifier over several seeds and reports its accuracy.
//!
//! ```text
//! cargo run --release -p vnet-examples --bin elite_fingerprint
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use verified_net::{classify_fingerprint, AnalysisCtx, NetworkFingerprint};
use vnet_synth::{
    directed_configuration_model, erdos_renyi_directed, preferential_attachment_directed,
    VerifiedNetConfig, VerifiedNetwork,
};

/// The fit the classifier's thresholds were set against.
const FIT: vnet_powerlaw::FitOptions = NetworkFingerprint::CLASSIFIER_FIT;

fn main() {
    let ctx = AnalysisCtx::quiet();
    println!("network fingerprints — verified model vs null models\n");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>8} {:>7} {:>9}",
        "model", "alpha", "ks", "recip", "assort", "dist", "verified?"
    );
    println!("{}", "-".repeat(72));

    let seeds: Vec<u64> = (0..5).collect();
    let mut correct = 0usize;
    let mut total = 0usize;

    for &seed in &seeds {
        let mut rng = StdRng::seed_from_u64(seed);

        // Positive class: the calibrated verified model.
        let net = VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng);
        let fp = NetworkFingerprint::measure(&net.graph, &FIT, 80, &mut rng, &ctx);
        print_row(&format!("verified (seed {seed})"), &fp);
        total += 1;
        if classify_fingerprint(&fp) {
            correct += 1;
        }

        // Null 1: preferential attachment (whole-Twitter-like popularity,
        // constant out-degree, no reciprocity).
        let pa = preferential_attachment_directed(4_000, 25, &mut rng);
        let fp = NetworkFingerprint::measure(&pa, &FIT, 80, &mut rng, &ctx);
        print_row(&format!("pref-attach (seed {seed})"), &fp);
        total += 1;
        if !classify_fingerprint(&fp) {
            correct += 1;
        }

        // Null 2: Erdős–Rényi with matched density.
        let er = erdos_renyi_directed(4_000, net.graph.edge_count(), &mut rng);
        let fp = NetworkFingerprint::measure(&er, &FIT, 80, &mut rng, &ctx);
        print_row(&format!("erdos-renyi (seed {seed})"), &fp);
        total += 1;
        if !classify_fingerprint(&fp) {
            correct += 1;
        }

        // Null 3 (the hard one): configuration model with the *same degree
        // sequences* as the verified graph — only non-degree structure
        // (reciprocity coupling, triadic closure, sinks) differs.
        let cm = directed_configuration_model(
            &net.graph.out_degrees(),
            &net.graph.in_degrees(),
            &mut rng,
        );
        let fp = NetworkFingerprint::measure(&cm, &FIT, 80, &mut rng, &ctx);
        print_row(&format!("config-model (seed {seed})"), &fp);
        total += 1;
        if !classify_fingerprint(&fp) {
            correct += 1;
        }
    }

    println!("{}", "-".repeat(72));
    println!(
        "classifier accuracy: {}/{} ({:.0}%)",
        correct,
        total,
        100.0 * correct as f64 / total as f64
    );
    println!(
        "\nreading the table: the verified model separates from every null on\n\
         reciprocity (the paper's 33.7% needs deliberate mutual-pair coupling)\n\
         and from preferential attachment on the out-degree power law; the\n\
         degree-matched configuration model is caught by reciprocity alone —\n\
         exactly the deviation set the paper's conclusion proposes as a\n\
         fingerprint."
    );
}

fn print_row(name: &str, fp: &NetworkFingerprint) {
    println!(
        "{:<22} {:>7.2} {:>7.3} {:>7.3} {:>8.3} {:>7.2} {:>9}",
        name,
        fp.out_alpha,
        fp.out_ks,
        fp.reciprocity,
        fp.assortativity,
        fp.mean_distance,
        if classify_fingerprint(fp) { "yes" } else { "no" }
    );
}
