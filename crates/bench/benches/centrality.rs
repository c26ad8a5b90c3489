//! Benchmarks for the §IV-F centrality pipeline (experiment E10): PageRank
//! and the exact-vs-sampled-vs-parallel Brandes betweenness ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use vnet_algos::betweenness::{betweenness_exact, betweenness_sampled};
use vnet_algos::kcore::k_core_decomposition;
use vnet_algos::pagerank::{pagerank, PageRankConfig};
use vnet_bench::bench_dataset;
use vnet_ctx::AnalysisCtx;
use vnet_graph::builder::from_edges;
use vnet_graph::Undirected;

fn bench_pagerank(c: &mut Criterion) {
    let g = &bench_dataset().graph;
    let mut group = c.benchmark_group("centrality_fig5");
    group.sample_size(10);
    group.bench_function("pagerank", |b| {
        b.iter(|| {
            black_box(pagerank(black_box(g), PageRankConfig::default(), &AnalysisCtx::quiet()))
                .iterations
        })
    });
    group.finish();
}

fn bench_betweenness_ablation(c: &mut Criterion) {
    let g = &bench_dataset().graph;
    let mut group = c.benchmark_group("ablation_betweenness");
    group.sample_size(10);
    for pivots in [25usize, 100] {
        group.bench_function(format!("sampled_{pivots}"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                black_box(betweenness_sampled(black_box(g), pivots, &mut rng, &AnalysisCtx::quiet()))
                    .len()
            })
        });
        group.bench_function(format!("parallel4_{pivots}"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                black_box(betweenness_sampled(
                    black_box(g),
                    pivots,
                    &mut rng,
                    &AnalysisCtx::with_threads(4),
                ))
                .len()
            })
        });
    }
    group.finish();

    // Accuracy side of the ablation on a small graph where exact is cheap.
    let mut rng = StdRng::seed_from_u64(9);
    let edges: Vec<(u32, u32)> = (0..600u32)
        .flat_map(|u| {
            let mut rng2 = StdRng::seed_from_u64(u as u64);
            (0..5).map(move |_| (u, rand::Rng::random_range(&mut rng2, 0..600u32)))
        })
        .filter(|&(u, v)| u != v)
        .collect();
    let small = from_edges(600, &edges).unwrap();
    let exact = betweenness_exact(&small);
    for pivots in [30usize, 120, 300] {
        let approx = betweenness_sampled(&small, pivots, &mut rng, &AnalysisCtx::quiet());
        let err: f64 = exact
            .iter()
            .zip(&approx)
            .map(|(e, a)| (e - a).abs())
            .sum::<f64>()
            / exact.iter().sum::<f64>().max(1.0);
        println!("[ablation_betweenness] pivots {pivots}: normalized L1 error {err:.3}");
    }
}

fn bench_extension_centralities(c: &mut Criterion) {
    let g = &bench_dataset().graph;
    let mut group = c.benchmark_group("extension_centralities");
    group.sample_size(10);
    group.bench_function("kcore_decomposition", |b| {
        b.iter(|| black_box(k_core_decomposition(&Undirected::from_digraph(black_box(g)))).degeneracy)
    });
    group.finish();
}

criterion_group!(benches, bench_pagerank, bench_betweenness_ablation, bench_extension_centralities);
criterion_main!(benches);
