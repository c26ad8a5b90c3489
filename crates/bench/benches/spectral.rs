//! Benchmarks for the §IV-B eigenvalue pipeline (experiment E4) and the
//! DESIGN.md ablation: Lanczos (ours) vs power iteration with deflation
//! (the method the paper names) at equal k.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use vnet_bench::bench_dataset;
use vnet_ctx::AnalysisCtx;
use vnet_graph::Undirected;
use vnet_spectral::{lanczos_topk, power_iteration_topk, SymLaplacian};

fn bench_laplacian_build(c: &mut Criterion) {
    let g = &bench_dataset().graph;
    let mut group = c.benchmark_group("spectral");
    group.sample_size(10);
    // The operator borrows the graph's held projection, so building the
    // Laplacian is building that projection.
    group.bench_function("build_sym_laplacian", |b| {
        b.iter(|| black_box(Undirected::from_digraph(black_box(g))).node_count())
    });
    group.finish();
}

fn bench_eigensolvers(c: &mut Criterion) {
    let g = &bench_dataset().graph;
    let lap = SymLaplacian::from_digraph(g);
    let mut group = c.benchmark_group("ablation_eigensolver");
    group.sample_size(10);
    for k in [8usize, 32] {
        group.bench_function(format!("lanczos_top{k}"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                black_box(lanczos_topk(black_box(&lap), k, 3 * k + 20, &mut rng, &AnalysisCtx::quiet()))
            })
        });
        group.bench_function(format!("power_iteration_top{k}"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                black_box(power_iteration_topk(black_box(&lap), k, 1e-8, 300, &mut rng))
            })
        });
    }
    group.finish();

    // Agreement check, printed once.
    let mut rng = StdRng::seed_from_u64(3);
    let l = lanczos_topk(&lap, 8, 60, &mut rng, &AnalysisCtx::quiet());
    let p = power_iteration_topk(&lap, 8, 1e-10, 2_000, &mut rng);
    let max_rel: f64 = l
        .iter()
        .zip(&p)
        .map(|(a, b)| ((a - b) / a.max(1e-9)).abs())
        .fold(0.0, f64::max);
    println!("[ablation_eigensolver] top-8 max relative disagreement: {max_rel:.2e}");
}

criterion_group!(benches, bench_laplacian_build, bench_eigensolvers);
criterion_main!(benches);
