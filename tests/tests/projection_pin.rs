//! Bit pins for everything that reads a node's undirected neighbourhood
//! (out ∪ in) or its mutual partners (out ∩ in): the `basic` (clustering),
//! `reciprocity`, `elite_core` (k-core degeneracy and every band) and
//! `eigen` (Laplacian) payloads, the Laplacian product itself, the algos
//! reciprocity figures, the temporal counters' from-scratch recount, and
//! the detect reciprocity scorer.
//!
//! Every one of these counts integers and divides or sums floats in a
//! fixed order, so a rewrite of the projection or of the merge and
//! intersection helpers must reproduce these values exactly. A changed
//! fingerprint means a changed count or a changed summation order.
//! `laplacian.matvec` pins the projection independently of the
//! eigensolver: a solver change moves `section.eigen` but not it.

use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SynthesisConfig,
};
use vnet_algos::reciprocity::{mutual_pairs, reciprocity};
use vnet_detect::{run_detection, DetectConfig, DetectInput};
use vnet_obs::{fingerprint_bytes, fingerprint_str};
use vnet_spectral::SymLaplacian;
use vnet_synth::{inject_sybil, SybilConfig};
use vnet_temporal::StructuralCounters;

const PINS: [(&str, u64); 13] = [
    ("section.basic", 0x2238_e042_0b53_ae03),
    ("section.reciprocity", 0xd671_93a3_2822_73c5),
    ("section.elite_core", 0x22c6_a5ed_f4b6_12ea),
    ("section.eigen", 0xc9aa_6f67_f892_3ea4),
    ("laplacian.matvec", 0xd074_42ef_f6f7_1953),
    ("algos.reciprocity_bits", 0x3fd5_ddfc_f187_c14f),
    ("algos.mutual_pairs", 10_760),
    ("counters.edges", 62_984),
    ("counters.reciprocal", 21_520),
    ("counters.closed_wedges", 824_742),
    ("counters.wedges", 10_275_401),
    ("detect.reciprocity_fused", 0xa329_ec26_f3c5_f2fb),
    ("detect.ranked", 3_624),
];

fn measure() -> Vec<(&'static str, u64)> {
    let ctx = AnalysisCtx::quiet();
    let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
    let opts = AnalysisOptions::quick();
    let mut got = Vec::new();
    for (name, section) in [
        ("section.basic", Section::Basic),
        ("section.reciprocity", Section::Reciprocity),
        ("section.elite_core", Section::EliteCore),
        ("section.eigen", Section::Eigen),
    ] {
        let report = run_analysis_section(&ds, section, &opts, &ctx).expect("section runs");
        let json = serde_json::to_string(&report).expect("section serializes");
        got.push((name, fingerprint_str(&json)));
    }

    let g = &ds.graph;
    let lap = SymLaplacian::from_digraph(g);
    let x: Vec<f64> = (0..lap.dim()).map(|i| (i % 7) as f64 - 3.0).collect();
    let bits: Vec<u8> = lap.matvec(&x).iter().flat_map(|y| y.to_bits().to_le_bytes()).collect();
    got.push(("laplacian.matvec", fingerprint_bytes(&bits)));
    got.push(("algos.reciprocity_bits", reciprocity(g).to_bits()));
    got.push(("algos.mutual_pairs", mutual_pairs(g)));
    let c = StructuralCounters::from_graph(g);
    got.push(("counters.edges", c.edges));
    got.push(("counters.reciprocal", c.reciprocal));
    got.push(("counters.closed_wedges", c.closed_wedges));
    got.push(("counters.wedges", c.wedges));

    let workload = inject_sybil(g, &SybilConfig::default());
    let report = run_detection(
        &DetectInput { graph: &workload.graph, daily_follows: &[] },
        &DetectConfig::default(),
        &ctx,
    );
    let mut bits = Vec::with_capacity(16 * report.ranked.len());
    for e in &report.ranked {
        bits.extend_from_slice(&e.reciprocity.to_bits().to_le_bytes());
        bits.extend_from_slice(&e.fused.to_bits().to_le_bytes());
    }
    got.push(("detect.reciprocity_fused", fingerprint_bytes(&bits)));
    got.push(("detect.ranked", report.ranked.len() as u64));
    got
}

#[test]
fn projection_consumers_match_their_pinned_bits() {
    let got = measure();
    let listing: Vec<String> =
        got.iter().map(|(name, value)| format!("    (\"{name}\", {value:#x}),")).collect();
    let expected: Vec<(&str, u64)> = PINS.to_vec();
    assert_eq!(got, expected, "measured values:\n{}", listing.join("\n"));
}
