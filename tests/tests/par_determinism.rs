//! Thread-count invariance battery for the `vnet-par` fork-join layer.
//!
//! The contract (see `vnet-par` crate docs): every result produced through
//! a `ParPool` is a pure function of the problem and the seed — the thread
//! count may only change wall-clock time. These tests sweep pools of
//! 1/2/4/7 workers over every ported stage (bootstrap GoF, sampled
//! betweenness, the BFS separation sweep, Lanczos, PageRank, reciprocity
//! bands, sampled clustering, bio categories) and demand *bit* equality,
//! then pin the same property end-to-end through the full analysis battery
//! and its run manifest.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use verified_net::{
    run_analysis, run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section,
    SynthesisConfig,
};
use vnet_algos::betweenness::betweenness_sampled;
use vnet_algos::distances::{distance_distribution, SourceSpec};
use vnet_algos::pagerank::{pagerank, PageRankConfig};
use vnet_obs::Obs;
use vnet_par::ParPool;
use vnet_powerlaw::{bootstrap_pvalue_discrete, fit_discrete, FitOptions, XminStrategy};
use vnet_spectral::{lanczos_topk, SymLaplacian};
use vnet_stats::sampling::DiscretePowerLaw;
use vnet_synth::{VerifiedNetConfig, VerifiedNetwork};

/// The thread counts every sweep compares: serial, even splits, and a
/// prime that never divides the task counts evenly.
const SWEEP: [usize; 4] = [1, 2, 4, 7];

fn tiny_net(seed: u64) -> vnet_graph::DiGraph {
    let cfg = VerifiedNetConfig {
        nodes: 400,
        mean_out_degree: 9.0,
        celebrity_sinks: 2,
        ..VerifiedNetConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    VerifiedNetwork::generate(&cfg, &mut rng).graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bootstrap GoF p-values are bit-identical at any thread count: the
    /// replicate streams come from `StreamRng::split(seed, rep)`, never
    /// from a shared sequential generator.
    #[test]
    fn bootstrap_pvalue_thread_invariant(seed in 0u64..1 << 40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = DiscretePowerLaw::new(2.6, 2).sample_n(&mut rng, 1_200);
        let opts = FitOptions { xmin: XminStrategy::Quantiles(12), min_tail: 10 };
        let fit = fit_discrete(&data, &opts).unwrap();
        let reference = bootstrap_pvalue_discrete(
            &data, &fit, 20, &opts, seed, &AnalysisCtx::quiet(),
        ).unwrap();
        for &threads in &SWEEP[1..] {
            let p = bootstrap_pvalue_discrete(
                &data, &fit, 20, &opts, seed, &AnalysisCtx::with_threads(threads),
            ).unwrap();
            prop_assert_eq!(reference.to_bits(), p.to_bits(), "threads={}", threads);
        }
    }

    /// Sampled betweenness scores (non-associative float accumulation) are
    /// bit-identical at any thread count: fixed-size pivot chunks, partials
    /// folded in chunk order.
    #[test]
    fn betweenness_thread_invariant(seed in 0u64..1 << 40, pivots in 5usize..40) {
        let g = tiny_net(seed);
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(seed);
            betweenness_sampled(&g, pivots, &mut rng, &AnalysisCtx::with_threads(threads))
        };
        let reference = run(1);
        for &threads in &SWEEP[1..] {
            let scores = run(threads);
            prop_assert!(
                reference.iter().zip(&scores).all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={}", threads
            );
        }
    }

    /// The separation (distance distribution) sweep is identical at any
    /// thread count — including its derived float statistics, because the
    /// accumulation itself is pure integer arithmetic.
    #[test]
    fn separation_thread_invariant(seed in 0u64..1 << 40, sources in 4usize..50) {
        let g = tiny_net(seed);
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(seed);
            distance_distribution(
                &g, SourceSpec::Sampled(sources), &mut rng,
                &AnalysisCtx::with_threads(threads),
            )
        };
        let reference = run(1);
        for &threads in &SWEEP[1..] {
            prop_assert_eq!(&reference, &run(threads), "threads={}", threads);
        }
    }
}

#[test]
fn lanczos_and_pagerank_thread_invariant() {
    let g = tiny_net(0xA11CE);
    let lap = SymLaplacian::from_digraph(&g);
    let eig = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(17);
        lanczos_topk(&lap, 12, 40, &mut rng, &AnalysisCtx::with_threads(threads))
    };
    let pr = |threads: usize| {
        pagerank(&g, PageRankConfig::default(), &AnalysisCtx::with_threads(threads)).scores
    };
    let (eig_ref, pr_ref) = (eig(1), pr(1));
    for &threads in &SWEEP[1..] {
        assert!(
            eig_ref.iter().zip(eig(threads)).all(|(a, b)| a.to_bits() == b.to_bits()),
            "lanczos differs at threads={threads}"
        );
        assert!(
            pr_ref.iter().zip(pr(threads)).all(|(a, b)| a.to_bits() == b.to_bits()),
            "pagerank differs at threads={threads}"
        );
    }
}

/// The sections whose one pass runs on the pool give the same bytes at
/// every thread count. On the small tier each pass spans at least three
/// tasks (3,124 nodes and profiles, 800 clustering samples), which the
/// 1-thread run's `par.tasks` counters confirm.
#[test]
fn pooled_section_passes_thread_invariant() {
    let ds = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
    let opts = AnalysisOptions::quick();
    let passes = [
        (Section::Basic, "clustering"),
        (Section::Reciprocity, "reciprocity"),
        (Section::EliteCore, "reciprocity"),
        (Section::Categories, "categories"),
    ];
    for (section, stage) in passes {
        let run = |threads: usize| {
            let obs = Obs::new();
            let ctx = AnalysisCtx::from_obs(ParPool::new(threads), &obs);
            let report = run_analysis_section(&ds, section, &opts, &ctx).expect("section runs");
            let tasks = obs.metrics().counter("par.tasks", &[("stage", stage)]);
            (serde_json::to_string(&report).expect("section serializes"), tasks)
        };
        let (reference, tasks) = run(1);
        assert!(tasks >= 3, "{section}: stage {stage} ran {tasks} task(s)");
        for &threads in &SWEEP[1..] {
            assert_eq!(reference, run(threads).0, "{section} differs at threads={threads}");
        }
    }
}

/// Full battery under a pool of `threads` workers (bootstrap on, so the
/// GoF path is exercised too). Returns the report JSON and the manifest's
/// deterministic view JSON.
fn full_run(threads: usize) -> (String, String) {
    let ds = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
    let opts = AnalysisOptions::quick()
        .to_builder()
        .threads(threads)
        .bootstrap_reps(6)
        .build();
    let obs = Arc::new(Obs::new());
    let ctx = AnalysisCtx::new(ParPool::new(threads), Arc::clone(&obs));
    let report = run_analysis(&ds, &opts, &ctx);
    let mut manifest = obs.manifest("par-golden", opts.seed);
    manifest.fingerprint_output("analysis.report", &report);
    (serde_json::to_string(&report).unwrap(), manifest.deterministic_json())
}

#[test]
fn full_analysis_report_identical_across_thread_counts() {
    let (report_serial, manifest_serial) = full_run(1);
    let (report_par, manifest_par) = full_run(4);
    assert_eq!(
        report_serial, report_par,
        "the full analysis report must be byte-identical across thread counts"
    );
    // The manifests agree on everything except nothing: same counters
    // (par.tasks included — the decomposition is static), same stages,
    // same fingerprints. Wall-clock histograms are scrubbed by the
    // deterministic view.
    assert_eq!(
        manifest_serial, manifest_par,
        "deterministic manifest views must be byte-identical across thread counts"
    );
}

#[test]
fn same_seed_threaded_runs_produce_byte_identical_manifests() {
    let (_, first) = full_run(4);
    let (_, second) = full_run(4);
    assert_eq!(first, second);
}

#[test]
fn manifest_records_steal_free_par_counters() {
    let (_, manifest_json) = full_run(2);
    let manifest: vnet_obs::RunManifest = serde_json::from_str(&manifest_json).unwrap();
    let stages = [
        "pagerank",
        "betweenness",
        "distances.bfs",
        "lanczos",
        "gof.bootstrap.continuous",
        "gof.bootstrap.discrete",
        "reciprocity",
        "clustering",
        "categories",
    ];
    for stage in stages {
        let tasks = manifest.counters.get(&format!("par.tasks{{stage={stage}}}"));
        let steal_free =
            manifest.counters.get(&format!("par.steal_free_chunks{{stage={stage}}}"));
        assert!(tasks.is_some(), "missing par.tasks for {stage}");
        assert_eq!(
            tasks, steal_free,
            "static schedule invariant broken for {stage}: every chunk runs on its assigned worker"
        );
    }
    // Wall-clock histograms exist in the full manifest but never in the
    // deterministic view.
    assert!(!manifest_json.contains("par.stage_wall_micros"));
}
