//! The `graph-scale` battery: streaming-CSR memory-budget and determinism
//! contracts (see `docs/SCALING.md`).
//!
//! The streaming two-pass [`vnet_graph::StreamingBuilder`] must stay within
//! its peak budget at every generated size, and the arena byte accounting
//! it reports is scrubbed from the deterministic view like every `_bytes`
//! gauge. The `#[ignore]`d golden test pins the medium-tier dataset
//! header; `scripts/verify.sh graph-scale` runs it in release via
//! `--include-ignored`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use verified_net::{AnalysisCtx, Dataset, SynthesisConfig};
use vnet_obs::Obs;
use vnet_par::ParPool;
use vnet_synth::{VerifiedNetConfig, VerifiedNetwork};

/// A quick generator configuration: big enough to exercise duplicate
/// staging (triadic closure + mutual minting both append to existing
/// lists), small enough for proptest under the debug profile.
fn tiny_config(nodes: u32, mean_out: f64) -> VerifiedNetConfig {
    VerifiedNetConfig {
        nodes,
        mean_out_degree: mean_out,
        celebrity_sinks: 2,
        ..VerifiedNetConfig::small()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The streaming build's peak stays within the issue's 1.5× budget of
    /// the final CSR at every generated size.
    #[test]
    fn streaming_peak_within_budget(seed in 0u64..1_000, nodes in 100u32..400) {
        let cfg = tiny_config(nodes, 10.0);
        let net = VerifiedNetwork::generate(&cfg, &mut StdRng::seed_from_u64(seed));
        prop_assert!(net.stream.csr_bytes > 0);
        prop_assert!(
            net.stream.peak_arena_bytes as f64 <= 1.5 * net.stream.csr_bytes as f64,
            "peak {} exceeds 1.5x csr {}",
            net.stream.peak_arena_bytes,
            net.stream.csr_bytes
        );
    }
}

/// Dataset fingerprints (and the whole deterministic manifest, memory
/// gauges and all) are identical across thread counts — the streaming
/// build and the bitset BFS kernels feed the same bytes to the hasher no
/// matter how wide the pool is.
#[test]
fn dataset_fingerprint_identical_across_threads() {
    let build = |threads: usize| {
        let obs = Arc::new(Obs::new());
        let ctx = AnalysisCtx::new(ParPool::new(threads), Arc::clone(&obs));
        let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
        let mut m = obs.manifest("scale-threads", 0);
        m.add_fingerprint("dataset.content", ds.fingerprint());
        (ds.fingerprint(), m)
    };
    let (fp1, m1) = build(1);
    let (fp4, m4) = build(4);
    assert_eq!(fp1, fp4, "dataset fingerprint must not depend on thread count");
    assert_eq!(m1.deterministic_json(), m4.deterministic_json());
    // The full (unscrubbed) manifest carries the new memory gauges.
    assert!(m1.gauges.contains_key("graph.synth_peak_arena_bytes"));
    assert!(m1.gauges.contains_key("graph.synth_csr_bytes"));
    assert!(m1.gauges.contains_key("graph.csr_bytes"));
}

/// Golden header of the medium scale tier (`--scale medium`,
/// `SocietyConfig::medium()`): pinned node/edge counts and degree sums, and
/// the memory budget at real size. Ignored by default (tier-1 runs the
/// debug profile); `scripts/verify.sh graph-scale` runs it in release.
#[test]
#[ignore = "medium-scale build (~5M edges); run via scripts/verify.sh graph-scale"]
fn golden_medium_scale_header() {
    let cfg = VerifiedNetConfig::medium();
    let net = VerifiedNetwork::generate(&cfg, &mut StdRng::seed_from_u64(20180718));
    let g = &net.graph;
    assert_eq!(g.node_count(), 60_000);
    // Golden counts for seed 20180718 — a changed generator or builder
    // shows up here first.
    assert_eq!(g.edge_count(), GOLDEN_MEDIUM_EDGES);
    let out_sum: usize = (0..g.node_count() as u32).map(|u| g.out_degree(u)).sum();
    let in_sum: usize = (0..g.node_count() as u32).map(|u| g.in_degree(u)).sum();
    assert_eq!(out_sum, g.edge_count());
    assert_eq!(in_sum, g.edge_count());
    assert_eq!(net.stream.csr_bytes, g.csr_bytes());
    assert!(
        net.stream.peak_arena_bytes as f64 <= 1.5 * net.stream.csr_bytes as f64,
        "peak {} exceeds 1.5x csr {}",
        net.stream.peak_arena_bytes,
        net.stream.csr_bytes
    );
}

/// Pinned by `golden_medium_scale_header`; regenerate with
/// `cargo test -p vnet-integration-tests --release golden_medium -- --include-ignored`
/// after an intentional generator change.
const GOLDEN_MEDIUM_EDGES: usize = 5_165_229;
