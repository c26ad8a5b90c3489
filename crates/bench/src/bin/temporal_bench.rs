//! Incremental-vs-scratch temporal analysis benchmark.
//!
//! ```text
//! cargo run --release -p vnet-bench --bin temporal_bench
//! cargo run --release -p vnet-bench --bin temporal_bench -- --nodes 8000 --days 30 --out BENCH_temporal.json
//! ```
//!
//! Drives a [`TemporalEngine`] through `--days` days of deterministic
//! churn, timing each incremental `advance_day` (delta overlay + counter
//! updates + warm-started PageRank), then replays the same days from
//! scratch — full CSR rebuild, full triangle recount, cold PageRank —
//! timing each day again. Both paths use the same summation protocol, so
//! the run doubles as a conformance check: any fingerprint divergence
//! between the two exits nonzero (`divergences` in the JSON must be 0).
//! The per-day speedup is the number `docs/SCALING.md` quotes for why
//! the serve path answers `as_of` from a timeline instead of recrawling.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vnet_ctx::AnalysisCtx;
use vnet_synth::{ChurnConfig, ChurnStream, VerifiedNetConfig, VerifiedNetwork};
use vnet_temporal::{dynamic_pagerank, EngineConfig, StructuralCounters, TemporalEngine};

struct Config {
    nodes: u32,
    days: u32,
    seed: u64,
    threads: usize,
    out: Option<String>,
}

fn main() {
    let mut config = Config { nodes: 8_000, days: 30, seed: 7, threads: 2, out: None };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> u64 {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{what} needs a number");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--nodes" => config.nodes = num("--nodes") as u32,
            "--days" => config.days = num("--days") as u32,
            "--seed" => config.seed = num("--seed"),
            "--threads" => config.threads = num("--threads") as usize,
            "--out" => {
                config.out = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: temporal_bench [--nodes N] [--days D] [--seed S] [--threads T] [--out FILE]");
                std::process::exit(2);
            }
        }
    }

    let mut net_config = VerifiedNetConfig::small();
    net_config.nodes = config.nodes;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let net = VerifiedNetwork::generate(&net_config, &mut rng);
    let churn = ChurnConfig { seed: config.seed, ..ChurnConfig::default() };
    let ctx = AnalysisCtx::with_threads(config.threads);

    // Incremental path: one engine, one advance_day per churn day.
    let engine_config = EngineConfig::default();
    let mut engine = TemporalEngine::new(
        ChurnStream::from_network(&net, churn),
        engine_config,
        &ctx,
    );
    let mut incremental_micros = Vec::with_capacity(config.days as usize);
    for _ in 0..config.days {
        let started = Instant::now();
        engine.advance_day(&ctx);
        incremental_micros.push(started.elapsed().as_micros() as u64);
    }

    // Scratch path: same days, but each one pays a full CSR rebuild, a
    // full triangle recount, and a cold (uniform-start) PageRank.
    let pagerank_config = engine_config.pagerank.unwrap_or_default();
    let mut stream = ChurnStream::from_network(&net, churn);
    let mut scratch_micros = Vec::with_capacity(config.days as usize);
    let mut divergences = 0u32;
    for day in 1..=config.days {
        stream.next_day();
        let started = Instant::now();
        let graph = stream.snapshot_graph();
        let counters = StructuralCounters::from_graph(&graph);
        let _ranks = dynamic_pagerank(&graph, pagerank_config, None, &ctx);
        scratch_micros.push(started.elapsed().as_micros() as u64);
        let report = &engine.reports()[day as usize];
        if counters.reciprocity() != report.reciprocity
            || counters.transitivity() != report.transitivity
            || graph.edge_count() as u64 != report.edges
        {
            eprintln!("day {day}: scratch recompute diverged from the incremental engine");
            divergences += 1;
        }
    }

    let day_json: Vec<String> = (0..config.days as usize)
        .map(|i| {
            let speedup = scratch_micros[i] as f64 / incremental_micros[i].max(1) as f64;
            format!(
                "{{\"day\":{},\"incremental_micros\":{},\"scratch_micros\":{},\"speedup\":{:.3}}}",
                i + 1,
                incremental_micros[i],
                scratch_micros[i],
                speedup,
            )
        })
        .collect();
    let total_inc: u64 = incremental_micros.iter().sum();
    let total_scratch: u64 = scratch_micros.iter().sum();
    let json = format!(
        "{{\n  \"benchmark\": \"vnet-temporal incremental vs scratch — {} nodes, {} churn days, seed {}\",\n  \"threads\": {},\n  \"divergences\": {},\n  \"total_incremental_micros\": {},\n  \"total_scratch_micros\": {},\n  \"overall_speedup\": {:.3},\n  \"days\": [\n    {}\n  ]\n}}\n",
        config.nodes,
        config.days,
        config.seed,
        config.threads,
        divergences,
        total_inc,
        total_scratch,
        total_scratch as f64 / total_inc.max(1) as f64,
        day_json.join(",\n    "),
    );
    match &config.out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("write {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "wrote {path} (overall speedup {:.2}x, {divergences} divergences)",
                total_scratch as f64 / total_inc.max(1) as f64
            );
        }
        None => print!("{json}"),
    }
    if divergences > 0 {
        std::process::exit(1);
    }
}
