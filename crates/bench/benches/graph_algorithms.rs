//! Benchmarks for the §IV-A basic statistics and §IV-C/D structural
//! measures (experiments E1, E5, E6): components, reciprocity,
//! assortativity, clustering, and the distance distribution.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use vnet_algos::assortativity::{degree_assortativity, DegreeMode};
use vnet_algos::clustering::average_local_clustering_sampled;
use vnet_algos::components::{
    attracting_components, strongly_connected_components, weakly_connected_components,
};
use vnet_algos::distances::{distance_distribution, SourceSpec};
use vnet_algos::reciprocity::reciprocity;
use vnet_bench::bench_dataset;
use vnet_ctx::AnalysisCtx;

fn bench_components(c: &mut Criterion) {
    let g = &bench_dataset().graph;
    let mut group = c.benchmark_group("basic_stats");
    group.sample_size(10);
    group.bench_function("tarjan_scc", |b| {
        b.iter(|| black_box(strongly_connected_components(black_box(g))).count)
    });
    group.bench_function("union_find_wcc", |b| {
        b.iter(|| black_box(weakly_connected_components(black_box(g))).count)
    });
    group.bench_function("attracting_components", |b| {
        b.iter(|| black_box(attracting_components(black_box(g))).len())
    });
    group.finish();
}

fn bench_edge_statistics(c: &mut Criterion) {
    let g = &bench_dataset().graph;
    let mut group = c.benchmark_group("edge_stats");
    group.sample_size(10);
    group.bench_function("reciprocity", |b| b.iter(|| black_box(reciprocity(black_box(g)))));
    group.bench_function("assortativity_out_in", |b| {
        b.iter(|| black_box(degree_assortativity(black_box(g), DegreeMode::OutIn)))
    });
    group.bench_function("clustering_sampled_500", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(average_local_clustering_sampled(
                black_box(g),
                500,
                &mut rng,
                &AnalysisCtx::quiet(),
            ))
        })
    });
    group.finish();
}

fn bench_distances(c: &mut Criterion) {
    let g = &bench_dataset().graph;
    let mut group = c.benchmark_group("distances_fig3");
    group.sample_size(10);
    for sources in [20usize, 80] {
        group.bench_function(format!("sampled_{sources}_sources"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(2);
                black_box(distance_distribution(
                    black_box(g),
                    SourceSpec::Sampled(sources),
                    &mut rng,
                    &AnalysisCtx::quiet(),
                ))
                .mean
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_components, bench_edge_statistics, bench_distances);
criterion_main!(benches);
