//! The grand integration test: synthesize a society, crawl it through the
//! simulated API, run every analysis of the paper, and check the complete
//! Section III–V fingerprint in one place.
//!
//! This is the executable form of EXPERIMENTS.md's "shape expectations"
//! column.

use verified_net::{run_analysis, AnalysisCtx, AnalysisOptions, Dataset, SynthesisConfig};

fn report() -> (Dataset, verified_net::AnalysisReport) {
    let ctx = AnalysisCtx::quiet();
    let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
    let report = run_analysis(&ds, &AnalysisOptions::quick(), &ctx);
    (ds, report)
}

#[test]
fn full_paper_fingerprint() {
    let (ds, r) = report();

    // §III — dataset shape.
    assert_eq!(r.dataset.users, ds.graph.node_count());
    assert!(r.dataset.density < 0.05, "density {}", r.dataset.density);
    assert!(r.dataset.users > 2_500, "too few English users: {}", r.dataset.users);

    // §IV-A — connectivity fingerprint.
    assert!(r.basic.giant_scc_fraction > 0.9);
    assert!(r.basic.weak_components > r.basic.isolated);
    assert!(r.basic.attracting_components >= r.basic.isolated);
    assert!(r.basic.assortativity_out_in < 0.02, "homophily appeared: {}", r.basic.assortativity_out_in);
    assert!(r.basic.clustering > 0.01 && r.basic.clustering < 0.4);

    // §IV-B — power laws beat alternatives.
    assert!(r.degrees.alpha > 2.2 && r.degrees.alpha < 4.6, "alpha {}", r.degrees.alpha);
    for v in &r.degrees.vuong {
        if v.alternative != "log-normal" {
            assert!(v.lr > 0.0, "power law lost to {} (lr {})", v.alternative, v.lr);
        }
    }
    assert!(r.eigen.alpha > 1.8 && r.eigen.alpha < 6.0, "eigen alpha {}", r.eigen.alpha);
    assert!(!r.eigen.eigenvalues.is_empty());

    // §IV-C — reciprocity band.
    assert!(r.reciprocity.reciprocity > 0.221, "reciprocity {}", r.reciprocity.reciprocity);
    assert!(r.reciprocity.reciprocity < 0.68);

    // §IV-D — short separation.
    assert!(r.separation.mean < 3.43, "mean separation {}", r.separation.mean);
    let (mode, _) = r.separation.histogram.iter().max_by_key(|&&(_, c)| c).unwrap();
    assert!((2..=3).contains(mode));

    // §IV-E — bios.
    assert_eq!(r.bios.top_bigrams[0].ngram, "Official Twitter");
    assert_eq!(r.bios.top_trigrams[0].ngram, "Official Twitter Account");

    // §IV-F — centrality correlations all positive; PageRank strongest pair.
    for p in &r.centrality.panels {
        assert!(p.pearson_log > 0.0, "panel {} correlation {}", p.id, p.pearson_log);
    }
    let pr_follow = r.centrality.panels.iter().find(|p| p.id == "d").unwrap();
    let bc_follow = r.centrality.panels.iter().find(|p| p.id == "b").unwrap();
    assert!(
        pr_follow.pearson_log > bc_follow.pearson_log - 0.05,
        "PageRank ({}) should be at least as predictive as betweenness ({})",
        pr_follow.pearson_log,
        bc_follow.pearson_log
    );

    // §V — activity.
    assert!(r.activity.ljung_box_max_p < 1e-6);
    assert!(r.activity.box_pierce_max_p < 1e-6);
    assert!(r.activity.stationary);
    assert!(!r.activity.changepoints.is_empty() && r.activity.changepoints.len() <= 4);
}

#[test]
fn report_round_trips_through_json() {
    let (_, r) = report();
    let json = serde_json::to_string(&r).expect("serialize");
    let value: serde_json::Value = serde_json::from_str(&json).expect("parse");
    assert_eq!(value["dataset"]["users"].as_u64().unwrap() as usize, r.dataset.users);
    assert!(value["degrees"]["alpha"].as_f64().unwrap() > 2.0);
    assert_eq!(
        value["bios"]["top_bigrams"][0]["ngram"].as_str().unwrap(),
        "Official Twitter"
    );
}

#[test]
fn analysis_is_deterministic_given_seed() {
    let ctx = AnalysisCtx::quiet();
    let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
    let a = run_analysis(&ds, &AnalysisOptions::quick(), &ctx);
    let b = run_analysis(&ds, &AnalysisOptions::quick(), &ctx);
    assert_eq!(a.degrees.alpha, b.degrees.alpha);
    assert_eq!(a.separation.mean, b.separation.mean);
    assert_eq!(a.basic.clustering, b.basic.clustering);
    assert_eq!(
        serde_json::to_string(&a.activity.changepoints).unwrap(),
        serde_json::to_string(&b.activity.changepoints).unwrap()
    );
}
