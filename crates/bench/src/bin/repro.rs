//! Regenerate every table and figure of *"Elites Tweet?"* (ICDE 2019).
//!
//! ```text
//! cargo run --release -p vnet-bench --bin repro
//! cargo run --release -p vnet-bench --bin repro -- --all
//! cargo run --release -p vnet-bench --bin repro -- --exp fig2
//! cargo run --release -p vnet-bench --bin repro -- --list
//! cargo run --release -p vnet-bench --bin repro -- --all --scale small
//! cargo run --release -p vnet-bench --bin repro -- --all --save out/ds
//! cargo run --release -p vnet-bench --bin repro -- --all --load out/ds
//! cargo run --release -p vnet-bench --bin repro -- --exp basic --markdown report.md
//! cargo run --release -p vnet-bench --bin repro -- --all --manifest run.json
//! ```
//!
//! With no arguments, runs `--all --scale small`. `--scale` picks the
//! dataset size (`small` ≈ 3k English users, `medium` ≈ 47k / ~5M edges —
//! the memory-benchmark tier of `docs/SCALING.md`, `default` ≈ 18k — the
//! 1:10 reproduction, `paper` = the full 231k / ~79M-edge build; expect
//! minutes and gigabytes). `--save <dir>` writes the dataset bundle after
//! synthesis; `--load <dir>` analyzes a saved bundle instead of
//! synthesizing. `--threads N` sizes the `vnet-par` fork-join pool the
//! [`AnalysisCtx`] carries — by design it changes wall-clock only,
//! never a single output bit (compare the manifest's `section.*` output
//! fingerprints across `--threads 1` and `--threads 4` to check; only the
//! recorded `par.threads` knob itself differs). `--bootstrap-reps N` turns
//! on the goodness-of-fit bootstrap (N replicates) in the fig2/eigen
//! experiments.
//!
//! One battery pass: each [`Section`] the requested experiments read (all
//! eleven with `--markdown`) is computed once, under the `analysis` span,
//! through [`verified_net::run_analysis_section`] — the same entrypoint the
//! `vnet-serve` analysis service and its result cache drive — so the
//! `section.<id>` fingerprints recorded here are directly comparable to
//! the fingerprints a service reply embeds. Every experiment, the
//! deviation table's verified column and the markdown report render from
//! those reports.
//!
//! Output format: one block per experiment, with the paper's published
//! values and the values measured on the calibrated synthetic dataset
//! (default reproduction scale 1:10 — absolute counts scale accordingly;
//! shapes are the claim). The run ends with the `vnet-obs` stage report
//! (per-stage timings, crawl counters, fault tallies) and the
//! deterministic [`RunManifest`](vnet_obs::RunManifest) JSON: same seed,
//! same dataset, same experiment list ⇒ byte-identical manifest
//! (wall-clock fields are zeroed in the deterministic view; simulated-
//! clock timings are included). `--manifest <file>` additionally saves
//! the full manifest — wall-clock timings and all — to a file.

use std::sync::Arc;
use verified_net::experiments::{experiment, EXPERIMENTS};
use verified_net::{deviations, render_markdown, run_analysis_section, Section, SectionReport};
use verified_net::{AnalysisCtx, AnalysisOptions, AnalysisReport, Dataset};
use verified_net::SynthesisConfig;
use vnet_detect::{evaluate, run_detection, DetectConfig, DetectInput};
use vnet_obs::{fingerprint_str, Obs, Reporter};
use vnet_par::ParPool;
use vnet_synth::{
    inject_sybil, ChurnConfig, ChurnEvent, ChurnStream, SybilConfig, VerifiedNetConfig,
    VerifiedNetwork,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        eprintln!(
            "usage: repro [--all | --exp <id> ... | --list] [--sybil] [--scale small|medium|default|paper] [--threads <n>] [--bootstrap-reps <n>] [--save <dir>] [--load <dir>] [--markdown <file>] [--manifest <file>]"
        );
        std::process::exit(2);
    }
    if args.first().map(String::as_str) == Some("--list") {
        let rep = Reporter::stdout();
        for e in EXPERIMENTS {
            rep.line(format!("{:<12} {:<42} {}", e.id, e.artefact, e.description));
        }
        return;
    }
    if args.is_empty() {
        // Bare invocation: the full battery at test scale, instrumented.
        args = vec!["--all".into(), "--scale".into(), "small".into()];
        eprintln!("no arguments: defaulting to --all --scale small (see --help)");
    }
    let mut ids: Vec<String> = Vec::new();
    let mut run_all = false;
    let mut scale = "default".to_string();
    let mut save_dir: Option<String> = None;
    let mut load_dir: Option<String> = None;
    let mut markdown_out: Option<String> = None;
    let mut manifest_out: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut bootstrap_reps: Option<usize> = None;
    let mut sybil_run = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => run_all = true,
            "--sybil" => sybil_run = true,
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = Some(n),
                None => {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--bootstrap-reps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => bootstrap_reps = Some(n),
                None => {
                    eprintln!("--bootstrap-reps needs an integer");
                    std::process::exit(2);
                }
            },
            "--exp" => match it.next() {
                Some(id) => ids.push(id.clone()),
                None => {
                    eprintln!("--exp needs an id");
                    std::process::exit(2);
                }
            },
            "--scale" => scale = it.next().cloned().unwrap_or_else(|| "default".into()),
            "--save" => save_dir = it.next().cloned(),
            "--load" => load_dir = it.next().cloned(),
            "--markdown" => markdown_out = it.next().cloned(),
            "--manifest" => manifest_out = it.next().cloned(),
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let ids: Vec<String> = if run_all {
        EXPERIMENTS.iter().map(|e| e.id.to_string()).collect()
    } else {
        ids
    };
    if ids.is_empty() && !sybil_run {
        eprintln!("nothing to run; see --list");
        std::process::exit(2);
    }

    let mut builder = AnalysisOptions::default().to_builder();
    if let Some(n) = threads {
        builder = builder.threads(n);
    }
    if let Some(n) = bootstrap_reps {
        builder = builder.bootstrap_reps(n);
    }
    let opts = builder.build();

    // Everything below reports through the instrumentation layer: one
    // `AnalysisCtx` carries the shared fork-join pool and the `Obs`
    // registry through synthesis and every analysis section. Human-
    // readable lines go through a `Reporter`.
    let obs = Arc::new(Obs::new());
    let ctx = AnalysisCtx::new(ParPool::new(opts.threads), Arc::clone(&obs));
    let rep = Reporter::stdout();

    let owned: Dataset;
    let ds: &Dataset = if let Some(dir) = load_dir {
        eprintln!("loading dataset bundle from {dir} ...");
        owned = verified_net::load_dataset(&dir).expect("load dataset bundle");
        &owned
    } else {
        let config = match scale.as_str() {
            "small" => SynthesisConfig::small(),
            "medium" => {
                eprintln!("medium scale: ~60k nodes / ~5M edges — the memory-benchmark tier");
                SynthesisConfig::medium()
            }
            "default" => SynthesisConfig::default(),
            "paper" => {
                eprintln!("paper scale: 231,246 nodes / ~79M edges — minutes of CPU, GBs of RAM");
                SynthesisConfig::default()
                    .with_net(vnet_synth::VerifiedNetConfig::paper_scale())
            }
            other => {
                eprintln!("unknown scale '{other}' (small|medium|default|paper)");
                std::process::exit(2);
            }
        };
        eprintln!("building {scale}-scale dataset ...");
        owned = Dataset::build(&config, &ctx);
        &owned
    };
    if let Some(dir) = save_dir {
        verified_net::save_dataset(ds, &dir).expect("save dataset bundle");
        eprintln!("dataset bundle saved to {dir}");
    }
    let s = ds.summary();
    eprintln!(
        "dataset: {} English verified users, {} edges (paper: 231,246 / 79,213,811)\n",
        s.users, s.edges
    );

    // The thread count is recorded in the manifest for provenance. It is a
    // counter (and therefore part of the deterministic view) on purpose:
    // everything *else* in that view must be identical across thread
    // counts, and keeping the knob visible makes `--threads 1` vs
    // `--threads 4` comparisons explicit about the one field that differs.
    obs.set_counter("par.threads", &[], opts.threads as u64);

    // The battery pass: every section an experiment reads, or all eleven
    // for --markdown, computed once in battery order. Each payload's
    // fingerprint is recorded as `section.<id>` — the exact quantity the
    // `vnet-serve` result cache keys replies on.
    let reports: Vec<SectionReport> = {
        let _span = ctx.span("analysis");
        Section::ALL
            .into_iter()
            .filter(|s| markdown_out.is_some() || ids.iter().any(|id| sections_for(id).contains(s)))
            .map(|section| {
                run_analysis_section(ds, section, &opts, &ctx)
                    .unwrap_or_else(|e| panic!("section {section} failed: {e}"))
            })
            .collect()
    };
    let mut block_digests: Vec<(String, u64)> = reports
        .iter()
        .map(|r| {
            let json = serde_json::to_string(r).expect("serialize section");
            (format!("section.{}", r.section()), fingerprint_str(&json))
        })
        .collect();

    // Each experiment renders into a capture buffer: the text is printed
    // as-is and its fingerprint recorded in the manifest, so two runs can
    // be compared block-by-block without diffing full logs.
    for id in &ids {
        match experiment(id) {
            Some(e) => {
                let block = Reporter::capture();
                {
                    let _span = obs.span(&format!("exp.{}", e.id));
                    run_experiment(e.id, &reports, &opts, &block, &ctx);
                }
                let text = block.captured();
                block_digests.push((format!("exp.{}", e.id), fingerprint_str(&text)));
                print!("{text}");
            }
            None => eprintln!("unknown experiment '{id}' (see --list)"),
        }
    }
    if let Some(path) = markdown_out {
        let all = reports.try_into().expect("--markdown computes every section");
        let report = AnalysisReport::from_sections(s.clone(), all);
        std::fs::write(&path, render_markdown(&report)).expect("write markdown report");
        eprintln!("markdown report written to {path}");
    }
    if sybil_run {
        // The adversarial block runs on its own fixed-seed workload (the
        // same seeds as the `sybil_detection.rs` battery), independent of
        // `--scale`: the manifest's `exp.sybil` fingerprint covers the
        // exact suspicion ranking and P/R curve the verify lane asserts,
        // so any drift in generator, scorers, or fusion shows up as one
        // digest change.
        let block = Reporter::capture();
        {
            let _span = obs.span("exp.sybil");
            run_sybil_experiment(&block, &ctx);
        }
        let text = block.captured();
        block_digests.push(("exp.sybil".to_string(), fingerprint_str(&text)));
        print!("{text}");
    }

    // Final OS high-water mark, after synthesis and every experiment: the
    // honest end-to-end memory figure. `_bytes` gauges are scrubbed from
    // the deterministic view, so this cannot perturb fingerprints.
    if let Some(rss) = vnet_obs::peak_rss_bytes() {
        obs.set_gauge("mem.peak_rss_bytes", &[], rss as f64);
    }
    let mut manifest = obs.manifest(&format!("repro --scale {scale}"), opts.seed);
    manifest.fingerprint_output("dataset.summary", &s);
    manifest.add_fingerprint("dataset.content", ds.fingerprint());
    for (name, digest) in block_digests {
        manifest.add_fingerprint(&name, digest);
    }

    rep.section("stage report");
    rep.line(manifest.render_text().trim_end());
    if let Some(path) = manifest_out {
        std::fs::write(&path, manifest.to_json()).expect("write run manifest");
        eprintln!("full run manifest (wall-clock included) written to {path}");
    }
    rep.section("run manifest (deterministic view)");
    rep.line(manifest.deterministic_json());
}

/// The `--sybil` block: plant the calibrated fake-follower workload,
/// ride its campaigns on a churn stream, run the three-scorer detection
/// pipeline, and render the canonical ranking + P/R blocks (the bytes
/// the `exp.sybil` manifest fingerprint covers).
fn run_sybil_experiment(rep: &Reporter, ctx: &AnalysisCtx) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let sybil = SybilConfig::default();
    rep.line("======================================================================");
    rep.line("[sybil] adversarial workload — planted rings, purchased-follower bursts");
    rep.line(format!(
        "plant: {} rings x {} + {} bursts x {} = {} sybils (seed {:#x})",
        sybil.rings,
        sybil.ring_size,
        sybil.bursts,
        sybil.burst_size,
        sybil.planted_count(),
        sybil.seed,
    ));
    rep.line("----------------------------------------------------------------------");
    let mut rng = StdRng::seed_from_u64(17);
    let net = VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng);
    let workload = inject_sybil(&net.graph, &sybil);
    let mut stream = ChurnStream::from_graph(
        &workload.graph,
        ChurnConfig { seed: 23, ..ChurnConfig::default() },
    );
    workload.attach(&mut stream);
    let horizon = sybil.burst_day + (sybil.bursts - 1) * sybil.burst_stride + sybil.burst_span + 2;
    let mut daily: Vec<Vec<(vnet_graph::NodeId, vnet_graph::NodeId)>> = Vec::new();
    for _ in 0..horizon {
        let batch = stream.next_day();
        daily.push(
            batch
                .events
                .iter()
                .filter_map(|e| match e {
                    ChurnEvent::Follow { source, target } => Some((*source, *target)),
                    _ => None,
                })
                .collect(),
        );
    }
    let graph = stream.snapshot_graph();
    let report = run_detection(
        &DetectInput { graph: &graph, daily_follows: &daily },
        &DetectConfig::default(),
        ctx,
    );
    let eval = evaluate(&report, &workload.labels.sybils());
    rep.line(report.canonical(20).trim_end());
    rep.line(eval.canonical().trim_end());
    rep.blank();
}

fn header(id: &str, rep: &Reporter) {
    let e = experiment(id).expect("registered");
    rep.line("======================================================================");
    rep.line(format!("[{}] {} — {}", e.id, e.artefact, e.description));
    rep.line(format!("paper: {}", e.paper_values));
    rep.line("----------------------------------------------------------------------");
}

/// The sections each experiment id reads. `deviations` reads four: its
/// verified column is their values.
fn sections_for(id: &str) -> &'static [Section] {
    match id {
        "basic" => &[Section::Basic],
        "fig1" => &[Section::Figure1],
        "fig2" => &[Section::Degrees],
        "eigen" => &[Section::Eigen],
        "reciprocity" => &[Section::Reciprocity],
        "fig3" => &[Section::Separation],
        "fig4" | "table1" | "table2" => &[Section::Bios],
        "fig5" => &[Section::Centrality],
        "fig6" | "adf" | "pelt" => &[Section::Activity],
        "elite-core" => &[Section::EliteCore],
        "categories" => &[Section::Categories],
        "deviations" => {
            &[Section::Basic, Section::Degrees, Section::Reciprocity, Section::Separation]
        }
        _ => &[],
    }
}

/// Render one experiment's block from the battery pass's `reports`.
fn run_experiment(
    id: &str,
    reports: &[SectionReport],
    opts: &AnalysisOptions,
    rep: &Reporter,
    ctx: &AnalysisCtx,
) {
    header(id, rep);
    // The battery pass keeps Section::ALL order, so the reports arrive in it.
    let read: Vec<_> =
        reports.iter().filter(|r| sections_for(id).contains(&r.section())).collect();
    match read[..] {
        [payload] => render_section(id, payload, rep),
        [
            SectionReport::Basic(basic),
            SectionReport::Degrees(degrees),
            SectionReport::Reciprocity(recip),
            SectionReport::Separation(sep),
        ] => {
            let r = deviations::deviation_analysis(basic, degrees, recip, sep, opts, ctx);
            rep.line(format!(
                "{:<48} {:>12} {:>12} {:>6}",
                "statistic", "verified", "twitter-like", "ok?"
            ));
            for row in &r.rows {
                rep.line(format!(
                    "{:<48} {:>12.4} {:>12.4} {:>6}",
                    row.statistic,
                    row.verified,
                    row.whole_twitter_like,
                    if row.direction_reproduced { "yes" } else { "NO" }
                ));
                rep.line(format!("    paper: {}", row.paper_claim));
            }
            rep.line(format!("all deviations reproduced: {}", r.all_reproduced));
        }
        _ => unreachable!("the battery pass computes every section '{id}' reads"),
    }
    rep.blank();
}

fn render_section(id: &str, payload: &SectionReport, rep: &Reporter) {
    match (id, payload) {
        ("basic", SectionReport::Basic(r)) => {
            rep.line(format!(
                "users {} | edges {} | density {:.5}",
                r.users, r.edges, r.density
            ));
            rep.line(format!(
                "isolated {} ({:.2}%) | giant SCC {} ({:.2}%) | WCCs {} | attracting {}",
                r.isolated,
                100.0 * r.isolated as f64 / r.users as f64,
                r.giant_scc,
                100.0 * r.giant_scc_fraction,
                r.weak_components,
                r.attracting_components
            ));
            rep.line(format!(
                "mean out-degree {:.2} | max out-degree {} (@{})",
                r.mean_out_degree, r.max_out_degree, r.max_out_handle
            ));
            rep.line(format!(
                "clustering {:.4} | assortativity(out->in) {:.4}",
                r.clustering, r.assortativity_out_in
            ));
            rep.line(format!("celebrity sink cores: {:?}", r.top_sink_handles));
        }
        ("fig1", SectionReport::Figure1(f)) => {
            for m in &f.marginals {
                let peak = m.series.iter().max_by_key(|&&(_, c)| c).unwrap();
                let span = m.series.last().unwrap().0 / m.series.first().unwrap().0;
                rep.line(format!(
                    "{:<10} bins {:>3} | zeros {:>6} | mode near {:>10.0} | dynamic range 10^{:.1}",
                    m.attribute,
                    m.series.len(),
                    m.zeros,
                    peak.0,
                    span.log10()
                ));
                rep.line(format!("          {}", sparkline(&m.series)));
            }
        }
        ("fig2", SectionReport::Degrees(r)) => {
            rep.line(format!(
                "alpha {:.3} (paper 3.24) | xmin {} | KS {:.4} | tail n {}",
                r.alpha, r.xmin, r.ks, r.n_tail
            ));
            if r.gof_p.is_nan() {
                rep.line("bootstrap GoF p: skipped (enable with bootstrap_reps > 0)");
            } else {
                rep.line(format!(
                    "bootstrap GoF p = {:.3} (paper 0.13; >0.1 ⇒ plausible)",
                    r.gof_p
                ));
            }
            for v in &r.vuong {
                rep.line(format!(
                    "Vuong vs {:<12} LR {:>9.1} stat {:>7.2} p {:.2e} -> {}",
                    v.alternative,
                    v.lr,
                    v.statistic,
                    v.p_value,
                    if v.lr > 0.0 { "power law preferred" } else { "ALTERNATIVE preferred" }
                ));
            }
        }
        ("eigen", SectionReport::Eigen(r)) => {
            rep.line(format!(
                "top {} Laplacian eigenvalues | λmax {:.1} | λ_k {:.1}",
                r.eigenvalues.len(),
                r.eigenvalues[0],
                r.eigenvalues.last().unwrap()
            ));
            rep.line(format!(
                "alpha {:.3} (paper 3.18) | xmin {:.2} | KS {:.4} | tail n {}",
                r.alpha, r.xmin, r.ks, r.n_tail
            ));
            for v in &r.vuong {
                rep.line(format!(
                    "Vuong vs {:<12} LR {:>9.1} p {:.2e}",
                    v.alternative, v.lr, v.p_value
                ));
            }
        }
        ("reciprocity", SectionReport::Reciprocity(r)) => {
            rep.line(format!(
                "reciprocity {:.1}% (paper 33.7%) | mutual pairs {} | one-way {}",
                100.0 * r.reciprocity,
                r.mutual_pairs,
                r.one_way_edges
            ));
            rep.line(format!(
                "vs whole Twitter (22.1%): {:.2}x | vs Flickr (68%): {:.2}x",
                r.vs_whole_twitter, r.vs_flickr
            ));
        }
        ("fig3", SectionReport::Separation(r)) => {
            rep.line(format!(
                "mean {:.3} (paper 2.74) | median {} | effective diameter {:.2} | max {}",
                r.mean, r.median, r.effective_diameter, r.max_observed
            ));
            rep.line(format!("sources {} | ordered pairs {}", r.sources, r.pairs));
            for &(d, c) in &r.histogram {
                rep.line(format!("  d={d}: {c:>12} {}", bar(c, r.pairs)));
            }
        }
        ("fig4", SectionReport::Bios(r)) => {
            rep.line(format!("word cloud (top 20 of {} bios):", r.documents));
            for w in r.wordcloud.iter().take(20) {
                rep.line(format!(
                    "  {:<16} count {:>6} weight {:.2}",
                    w.word, w.count, w.weight
                ));
            }
        }
        ("table1", SectionReport::Bios(r)) => {
            rep.line(format!("{:<30} {:>10}", "Bigram", "Occurrences"));
            for row in &r.top_bigrams {
                rep.line(format!("{:<30} {:>10}", row.ngram, row.occurrences));
            }
        }
        ("table2", SectionReport::Bios(r)) => {
            rep.line(format!("{:<30} {:>10}", "Trigram", "Occurrences"));
            for row in &r.top_trigrams {
                rep.line(format!("{:<30} {:>10}", row.ngram, row.occurrences));
            }
        }
        ("fig5", SectionReport::Centrality(r)) => {
            rep.line(format!(
                "betweenness from {} pivots | PageRank converged in {} iterations",
                r.betweenness_pivots, r.pagerank_iterations
            ));
            for p in &r.panels {
                let trend = p
                    .spline
                    .last()
                    .zip(p.spline.first())
                    .map(|(l, f)| l.fit - f.fit)
                    .unwrap_or(0.0);
                rep.line(format!(
                    "panel ({}) {:<10} vs {:<12} pearson(log) {:>6.3} spearman {:>6.3} spline Δ {:>6.2}",
                    p.id, p.y_metric, p.x_metric, p.pearson_log, p.spearman, trend
                ));
            }
        }
        ("fig6", SectionReport::Activity(r)) => {
            rep.line(format!(
                "Ljung-Box max p = {:.2e} (paper 3.81e-38) | Box-Pierce max p = {:.2e} (paper 7.57e-38) | lag cap {}",
                r.ljung_box_max_p, r.box_pierce_max_p, r.lag_cap
            ));
            let m = r.weekday_means;
            rep.line(format!(
                "weekday means (Mon..Sun, % of Monday): {:?}",
                m.iter().map(|v| (100.0 * v / m[0]).round()).collect::<Vec<_>>()
            ));
        }
        ("adf", SectionReport::Activity(r)) => {
            rep.line(format!(
                "ADF statistic {:.3} (paper -3.86) vs 5% critical {:.3} (paper -3.42) -> {}",
                r.adf_statistic,
                r.adf_crit_5pct,
                if r.stationary { "STATIONARY" } else { "unit root not rejected" }
            ));
            rep.line(format!(
                "KPSS (extension): whole-series {:.3} vs crit {:.3}; longest break-free segment {:.3} -> piecewise stationarity {}",
                r.kpss_statistic,
                r.kpss_crit_5pct,
                r.kpss_segment_statistic,
                if r.stationarity_confirmed { "CONFIRMED" } else { "not confirmed" }
            ));
        }
        ("elite-core", SectionReport::EliteCore(r)) => {
            rep.line(format!(
                "degeneracy {} | overall reciprocity {:.3}",
                r.degeneracy, r.overall_reciprocity
            ));
            rep.line(format!(
                "{:>12} {:>9} {:>12} {:>16}",
                "coreness>=", "members", "reciprocity", "mean followers"
            ));
            for b in &r.bands {
                rep.line(format!(
                    "{:>12} {:>9} {:>12.3} {:>16.0}",
                    b.min_coreness, b.members, b.reciprocity, b.mean_followers
                ));
            }
            rep.line(format!(
                "conjecture: core reciprocity elevated = {} | core reach elevated = {}",
                r.core_reciprocity_elevated, r.core_reach_elevated
            ));
        }
        ("categories", SectionReport::Categories(r)) => {
            rep.line(format!(
                "{:<16} {:>7} {:>7} {:>14} {:>10}",
                "category", "count", "share", "mean followers", "mean in-d"
            ));
            for p in &r.profiles {
                rep.line(format!(
                    "{:<16} {:>7} {:>6.1}% {:>14.0} {:>10.1}",
                    p.category, p.count, 100.0 * p.share, p.mean_followers, p.mean_internal_in_degree
                ));
            }
            rep.line(format!("news-adjacent share: {:.1}%", 100.0 * r.news_share));
        }
        ("pelt", SectionReport::Activity(r)) => {
            rep.line(format!("{} consensus change-point(s):", r.changepoints.len()));
            for cp in &r.changepoints {
                rep.line(format!(
                    "  {} (index {}, support {:.0}%)",
                    cp.date, cp.index, 100.0 * cp.support
                ));
            }
            rep.line("(paper: 23-25 Dec 2017 and the first week of April 2018)");
        }
        (other, payload) => {
            eprintln!("experiment '{other}' got unexpected section {}", payload.section());
        }
    }
}

/// Tiny unicode sparkline of a `(x, count)` series.
fn sparkline(series: &[(f64, u64)]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = series.iter().map(|&(_, c)| c).max().unwrap_or(1) as f64;
    series
        .iter()
        .map(|&(_, c)| {
            let t = ((c as f64 / max) * 7.0).round() as usize;
            LEVELS[t.min(7)]
        })
        .collect()
}

fn bar(count: u64, total: u64) -> String {
    let width = (50.0 * count as f64 / total.max(1) as f64).round() as usize;
    "#".repeat(width)
}
