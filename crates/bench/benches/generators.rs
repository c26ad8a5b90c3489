//! Benchmarks and ablations of the synthetic-network generators: the
//! calibrated verified model vs its ablations (reciprocity coupling off,
//! triadic closure off, celebrity sinks off) and the baselines. The
//! printed fingerprints quantify which ingredient produces which paper
//! statistic (DESIGN.md `ablation_*`).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use vnet_algos::assortativity::{degree_assortativity, DegreeMode};
use vnet_algos::clustering::average_local_clustering_sampled;
use vnet_algos::components::attracting_components;
use vnet_algos::reciprocity::reciprocity;
use vnet_synth::{erdos_renyi_directed, preferential_attachment_directed, VerifiedNetConfig, VerifiedNetwork};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    group.bench_function("verified_model_4k", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng))
                .graph
                .edge_count()
        })
    });
    group.bench_function("erdos_renyi_4k_100k_edges", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(erdos_renyi_directed(4_000, 100_000, &mut rng)).edge_count()
        })
    });
    group.bench_function("pref_attach_4k_m25", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(preferential_attachment_directed(4_000, 25, &mut rng)).edge_count()
        })
    });
    group.finish();
}

fn ablation_fingerprints(c: &mut Criterion) {
    // Criterion group kept tiny; the value of this bench is the printed
    // ablation table.
    let mut group = c.benchmark_group("ablation_generator");
    group.sample_size(10);
    group.bench_function("full_model", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            black_box(VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng))
                .graph
                .edge_count()
        })
    });
    group.finish();

    println!(
        "[ablation_generator] {:<24} {:>8} {:>8} {:>8} {:>11}",
        "variant", "recip", "clust", "assort", "attracting"
    );
    let variants: [(&str, VerifiedNetConfig); 4] = [
        ("full", VerifiedNetConfig::small()),
        ("no_reciprocity", VerifiedNetConfig::small().without_reciprocity()),
        ("no_triadic_closure", VerifiedNetConfig::small().without_triadic_closure()),
        ("no_sinks", VerifiedNetConfig::small().without_sinks()),
    ];
    for (name, cfg) in variants {
        let mut rng = StdRng::seed_from_u64(7);
        let net = VerifiedNetwork::generate(&cfg, &mut rng);
        let g = &net.graph;
        println!(
            "[ablation_generator] {:<24} {:>8.3} {:>8.3} {:>8.3} {:>11}",
            name,
            reciprocity(g),
            average_local_clustering_sampled(g, 800, &mut rng, &vnet_ctx::AnalysisCtx::quiet()),
            degree_assortativity(g, DegreeMode::OutIn).unwrap_or(f64::NAN),
            attracting_components(g).len()
        );
    }
}

criterion_group!(benches, bench_generation, ablation_fingerprints);
criterion_main!(benches);
