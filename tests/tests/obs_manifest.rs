//! Golden determinism tests for the `vnet-obs` run manifest.
//!
//! The observability layer's contract (see `vnet-obs` crate docs) is that
//! everything in a manifest's *deterministic view* — counters, gauges,
//! histograms, simulated-clock stage timings, fingerprints — is a pure
//! function of the seeded workload. These tests pin that contract across
//! the full crawl pipeline: two same-seed fault-injected syntheses must
//! produce byte-identical manifest JSON. They also pin the API-migration
//! contract: the deprecated `*_observed` shims must leave byte-identical
//! traces to the `AnalysisCtx` entrypoints that replaced them.

use std::sync::Arc;
use verified_net::{AnalysisCtx, AnalysisOptions, Dataset, SynthesisConfig};
use vnet_obs::{Obs, RunManifest};
use vnet_par::ParPool;
use vnet_twittersim::{FaultPlan, RateLimitPolicy};

/// Run a fault-injected synthesis under a fresh `Obs` and return the
/// manifest (label/seed fixed so only the workload can differ).
fn observed_faulty_run(plan_seed: u64) -> (RunManifest, String) {
    let config = SynthesisConfig {
        rate_limits: RateLimitPolicy::default(),
        ..SynthesisConfig::small()
    };
    let plan = FaultPlan::generate(plan_seed);
    let obs = Arc::new(Obs::new());
    let ctx = AnalysisCtx::new(ParPool::serial(), Arc::clone(&obs));
    let ds = Dataset::build_with_faults(&config, &plan, &ctx)
        .expect("healing plan converges");
    let mut manifest = obs.manifest("golden", plan_seed);
    manifest.fingerprint_output("dataset.summary", &ds.summary());
    let json = manifest.deterministic_json();
    (manifest, json)
}

#[test]
fn same_seed_runs_produce_byte_identical_manifest_json() {
    let (_, first) = observed_faulty_run(7);
    let (_, second) = observed_faulty_run(7);
    assert_eq!(first, second, "same-seed manifests must be byte-identical");
}

#[test]
fn different_seed_changes_the_manifest() {
    let (_, a) = observed_faulty_run(7);
    let (_, b) = observed_faulty_run(8);
    assert_ne!(a, b, "a different fault plan must leave a different trace");
}

/// Histogram bytes across commits: the two same-build comparisons above
/// cannot see a change to how a histogram buckets or sums, so the
/// deterministic view's `histograms` JSON for plan 7 is pinned here.
#[test]
fn fault_plan_histograms_are_pinned() {
    let (manifest, _) = observed_faulty_run(7);
    let histograms = manifest.deterministic_view().histograms;
    let observed = |key: &str| histograms.get(key).map_or(0, |h| h.count);
    assert!(observed("crawl.backoff_secs") > 0, "no backoff observed: {histograms:?}");
    assert!(
        histograms
            .iter()
            .any(|(k, h)| k.starts_with("api.rate_limit_wait_secs{endpoint=") && h.count > 0),
        "no per-endpoint rate-limit wait observed: {histograms:?}"
    );
    let json = serde_json::to_string(&histograms).expect("histograms serialize");
    assert_eq!(
        vnet_obs::fingerprint_str(&json),
        0x06c7_b94a_0276_aca2,
        "histogram bytes moved: {json}"
    );
}

#[test]
fn manifest_carries_per_endpoint_and_fault_counters() {
    let (manifest, json) = observed_faulty_run(7);

    // Per-endpoint API counters from the instrumented TwitterApi.
    assert!(
        manifest.counters.keys().any(|k| k.starts_with("api.requests{endpoint=")),
        "missing per-endpoint request counters: {:?}",
        manifest.counters.keys().collect::<Vec<_>>()
    );
    let total_requests: u64 = manifest
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("api.requests{"))
        .map(|(_, &v)| v)
        .sum();
    assert!(total_requests > 0, "the crawl must have issued requests");

    // CrawlStats / FaultTally exports.
    for key in ["crawl.roster_size", "crawl.passes", "crawl.simulated_seconds"] {
        assert!(manifest.counters.contains_key(key), "missing {key}");
    }
    assert!(
        manifest.counters.keys().any(|k| k.starts_with("faults.injected{kind=")),
        "missing fault-kind counters"
    );

    // Crawl spans with simulated-clock durations.
    let crawl_stage = manifest
        .stages
        .iter()
        .find(|s| s.name == "crawl.resumable")
        .expect("crawl.resumable span recorded");
    assert!(
        crawl_stage.sim_secs > 0,
        "a rate-limited crawl advances the simulated clock"
    );
    assert!(manifest.stages.iter().any(|s| s.name == "crawl.pass"));

    // The dataset fingerprint made it into the JSON.
    assert!(manifest.fingerprints.contains_key("dataset.summary"));
    assert!(json.contains("dataset.summary"));

    // Deterministic view really strips wall-clock times.
    let det = manifest.deterministic_view();
    assert_eq!(det.wall_total_micros, 0);
    assert!(det.stages.iter().all(|s| s.wall_micros == 0));
}

#[test]
fn analysis_driver_records_one_span_per_stage() {
    let ds = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
    let obs = Arc::new(Obs::new());
    let opts = AnalysisOptions::quick();
    let ctx = AnalysisCtx::new(ParPool::serial(), Arc::clone(&obs));
    let _report = verified_net::run_analysis(&ds, &opts, &ctx);
    let manifest = obs.manifest("analysis", opts.seed);
    for stage in [
        "analysis.basic",
        "analysis.figure1",
        "analysis.degrees",
        "analysis.eigen",
        "analysis.reciprocity",
        "analysis.separation",
        "analysis.bios",
        "analysis.centrality",
        "analysis.activity",
        "analysis.elite_core",
        "analysis.categories",
    ] {
        assert!(
            manifest.stages.iter().any(|s| s.name == stage && s.depth == 0),
            "missing top-level span {stage}"
        );
    }
    // Nested sub-spans sit under their stage.
    for (child, parent) in [
        ("analysis.basic.components", "analysis.basic"),
        ("analysis.centrality.pagerank", "analysis.centrality"),
        ("analysis.activity.pelt", "analysis.activity"),
        ("analysis.eigen.lanczos", "analysis.eigen"),
    ] {
        let c = manifest
            .stages
            .iter()
            .find(|s| s.name == child)
            .unwrap_or_else(|| panic!("missing sub-span {child}"));
        assert_eq!(c.depth, 1, "{child} should nest under {parent}");
    }
    // Hot-loop work counters from algos/spectral.
    for key in [
        "algo.pagerank.iterations",
        "algo.pagerank.edge_relaxations",
        "algo.betweenness.sources",
        "algo.lanczos.matvecs",
        "algo.lanczos.sweeps",
    ] {
        assert!(
            manifest.counters.get(key).copied().unwrap_or(0) > 0,
            "counter {key} missing or zero"
        );
    }
}

#[test]
fn observed_and_plain_drivers_agree() {
    // Instrumentation must not perturb results: the observed ctx threads
    // the same RNG streams as the quiet one.
    let ds = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
    let opts = AnalysisOptions::quick();
    let plain = verified_net::run_analysis(&ds, &opts, &AnalysisCtx::quiet());
    let obs = Arc::new(Obs::new());
    let ctx = AnalysisCtx::new(ParPool::serial(), obs);
    let observed = verified_net::run_analysis(&ds, &opts, &ctx);
    let a = serde_json::to_string(&plain).expect("serialize");
    let b = serde_json::to_string(&observed).expect("serialize");
    assert_eq!(a, b, "observed driver changed analysis results");
}

/// API-migration sentinel: the pre-0.2.0 `run_full_analysis_observed` /
/// `Dataset::synthesize_observed` shims were removed with the v1 wire
/// envelope (see the migration table in `docs/API.md`). The ctx
/// entrypoints they forwarded to are golden-tested above; this guard
/// keeps the old names from quietly reappearing in the public API.
#[test]
fn removed_compat_shims_stay_removed() {
    let surface = include_str!("../../crates/core/src/lib.rs");
    for gone in ["run_full_analysis", "synthesize_observed", "compat::"] {
        assert!(
            !surface.contains(&format!("pub use {gone}")) && !surface.contains("pub mod compat"),
            "removed shim surface '{gone}' resurfaced in verified-net"
        );
    }
}
