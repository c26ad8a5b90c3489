//! The traced pass (`--trace 1`): one run that loads every layer and
//! reports the per-layer metrics. It reads the spans, counters and gauges
//! the program already emits, the serve stage histograms, and the
//! benchmark's own timings of calls into each crate's public functions.
//! Batch spans are recorded on a fresh `Obs` per battery; the server
//! records into its own registry whether or not anyone reads it.

use std::collections::BTreeMap;
use std::time::Duration;

use verified_net::{AnalysisCtx, Dataset, Section};
use vnet_obs::{HistogramSnapshot, Obs, SpanRecord};
use vnet_par::ParPool;

use crate::batch::{self, Battery};
use crate::cold::{self, KINDS};
use crate::hot;
use crate::stats::{mean, median};
use crate::Report;

/// Requests of the traced `serve-cold` window: a fixed count, so its
/// miss and materialization counts repeat exactly across runs.
const COLD_TRACE_OPS: usize = 48;

pub fn run(seed: u64, seconds: u64, nproc: usize, report: &mut Report) {
    batch_layers(seed, nproc, report);
    hot_layers(seed, seconds, nproc, report);
    cold_layers(seed, nproc, report);
}

/// Sum of the wall time of every span named `name`, in seconds.
fn span_s(spans: &[SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.wall_nanos as f64 * 1e-9)
        .sum()
}

/// Time spans named `name` spent outside their child spans, in seconds.
fn self_s(spans: &[SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.wall_nanos)
                .sum();
            s.wall_nanos.saturating_sub(children) as f64 * 1e-9
        })
        .sum()
}

/// Sum of a `par.stage_wall_micros` histogram, in seconds.
fn par_wall_s(obs: &Obs, stage: &str) -> f64 {
    let key = format!("par.stage_wall_micros{{stage={stage}}}");
    obs.metrics()
        .histograms()
        .get(&key)
        .map_or(0.0, |h| h.sum * 1e-6)
}

/// The exact work counts of one battery: they must not depend on the
/// thread count.
fn counts(obs: &Obs) -> BTreeMap<&'static str, u64> {
    let m = obs.metrics();
    let par_tasks = m
        .counters()
        .iter()
        .filter(|(k, _)| k.starts_with("par.tasks{"))
        .map(|(_, v)| v)
        .sum();
    BTreeMap::from([
        ("spectral.matvecs", m.counter("algo.lanczos.matvecs", &[])),
        (
            "spectral.reorth_projections",
            m.counter("algo.lanczos.reorth_projections", &[]),
        ),
        (
            "algos.betweenness_relaxations",
            m.counter("algo.betweenness.edge_relaxations", &[]),
        ),
        (
            "algos.pagerank_relaxations",
            m.counter("algo.pagerank.edge_relaxations", &[]),
        ),
        ("par.tasks", par_tasks),
    ])
}

fn traced_battery(ds: &Dataset, seed: u64, threads: usize, report: &mut Report) -> (Battery, Obs) {
    let obs = Obs::new();
    let ctx = AnalysisCtx::from_obs(ParPool::new(threads), &obs);
    let b = batch::battery(ds, &batch::options(seed, threads), &ctx, report);
    (b, obs)
}

fn bootstrap_s(spans: &[SpanRecord]) -> f64 {
    span_s(spans, "analysis.degrees.bootstrap") + span_s(spans, "analysis.eigen.bootstrap")
}

/// Per-layer metrics that are the wall time of one span of set-up.
const SETUP_SPANS: [(&str, &str); 3] = [
    ("synth.society_s", "synthesize.society"),
    ("synth.crawl_s", "crawl"),
    ("synth.firehose_s", "synthesize.firehose"),
];

/// Per-layer metrics that are the wall time of one span of the battery.
const BATTERY_SPANS: [(&str, &str); 8] = [
    ("spectral.lanczos_s", "analysis.eigen.lanczos"),
    ("algos.clustering_s", "analysis.basic.clustering"),
    ("algos.components_s", "analysis.basic.components"),
    ("algos.betweenness_s", "analysis.centrality.betweenness"),
    ("algos.pagerank_s", "analysis.centrality.pagerank"),
    ("textmine.ngrams_s", "analysis.bios.ngrams"),
    ("timeseries.portmanteau_s", "analysis.activity.portmanteau"),
    ("timeseries.pelt_s", "analysis.activity.pelt"),
];

/// `batch`: traced set-up, then the battery untraced, traced, and traced
/// at one thread.
fn batch_layers(seed: u64, nproc: usize, report: &mut Report) {
    let obs = Obs::new();
    let (ds, _) = batch::build(&AnalysisCtx::from_obs(ParPool::new(nproc), &obs));
    let spans = obs.tracer().spans();
    for (metric, span) in SETUP_SPANS {
        report.metric(metric, span_s(&spans, span), "s");
    }
    for gauge in ["graph.csr_bytes", "graph.synth_peak_arena_bytes"] {
        let bytes = obs.metrics().gauge(gauge, &[]).unwrap_or(0.0);
        report.metric(gauge, bytes, "bytes");
    }

    let quiet = AnalysisCtx::with_threads(nproc);
    let untraced = batch::battery(&ds, &batch::options(seed, nproc), &quiet, report);
    let (traced, obs_n) = traced_battery(&ds, seed, nproc, report);
    let (serial, obs_1) = traced_battery(&ds, seed, 1, report);
    batch::compare(
        report,
        "the untraced and traced batteries",
        &untraced,
        &traced,
    );
    batch::compare(report, "the nproc and 1-thread batteries", &traced, &serial);
    let (counts_n, counts_1) = (counts(&obs_n), counts(&obs_1));
    for (name, n) in &counts_n {
        let one = counts_1[name];
        report.check(*n == one, || {
            format!("{name} drifted with the thread count: {n} vs {one}")
        });
        report.metric(name, *n as f64, "count");
    }

    for section in Section::ALL {
        report.metric(
            &format!("core.{}_s", section.id()),
            traced.call(section),
            "s",
        );
    }
    let spans = obs_n.tracer().spans();
    for (metric, span) in BATTERY_SPANS {
        report.metric(metric, span_s(&spans, span), "s");
    }
    let mle = span_s(&spans, "analysis.degrees.mle") + span_s(&spans, "analysis.eigen.fit");
    report.metric("powerlaw.mle_s", mle, "s");
    report.metric("powerlaw.bootstrap_s", bootstrap_s(&spans), "s");
    let unspanned = self_s(&spans, "analysis.degrees") + self_s(&spans, "analysis.eigen");
    report.metric("powerlaw.unspanned_s", unspanned, "s");
    report.metric("algos.bfs_s", par_wall_s(&obs_n, "distances.bfs"), "s");

    // Each speed-up compares the 1-thread battery with the `nproc` one.
    let serial_spans = obs_1.tracer().spans();
    let speedups = [
        ("par.battery_speedup", serial.seconds(), traced.seconds()),
        (
            "par.lanczos_speedup",
            span_s(&serial_spans, "analysis.eigen.lanczos"),
            span_s(&spans, "analysis.eigen.lanczos"),
        ),
        (
            "par.betweenness_speedup",
            span_s(&serial_spans, "analysis.centrality.betweenness"),
            span_s(&spans, "analysis.centrality.betweenness"),
        ),
        (
            "par.bfs_speedup",
            par_wall_s(&obs_1, "distances.bfs"),
            par_wall_s(&obs_n, "distances.bfs"),
        ),
        (
            "par.bootstrap_speedup",
            bootstrap_s(&serial_spans),
            bootstrap_s(&spans),
        ),
    ];
    for (metric, one, n) in speedups {
        report.metric(metric, if n > 0.0 { one / n } else { 0.0 }, "ratio");
    }
    let overhead = traced.seconds() / untraced.seconds();
    report.metric("obs.trace_overhead", overhead, "ratio");
}

/// Mean and p99 bucket edge of the observations two snapshots of one
/// stage histogram differ by, in microseconds.
fn stage_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> (f64, f64) {
    let count = after.count - before.count;
    if count == 0 {
        return (0.0, 0.0);
    }
    let mean = (after.sum - before.sum) / count as f64;
    let rank = (0.99 * count as f64).ceil() as u64;
    let mut seen = 0;
    for (i, &c) in after.counts.iter().enumerate() {
        seen += c - before.counts.get(i).copied().unwrap_or(0);
        if seen >= rank {
            let edge = after
                .bounds
                .get(i)
                .or(after.bounds.last())
                .copied()
                .unwrap_or(0.0);
            return (mean, edge);
        }
    }
    (mean, after.bounds.last().copied().unwrap_or(0.0))
}

/// `serve-hot`: one run of the workload, with the server's stage
/// histograms read around the two rate phases and its cache counters from
/// start to the end of those phases.
fn hot_layers(seed: u64, seconds: u64, nproc: usize, report: &mut Report) {
    let Some(run) = hot::measure(seed, seconds as f64, nproc, report) else {
        return;
    };
    report.metric("temporal.register_s", run.register_adv_s, "s");
    for (name, value, unit) in hot::rates(&run.lo, &run.hi, run.max_rps) {
        report.metric(&format!("hot.{name}"), value, unit);
    }

    let mut stage_mean_sum = 0.0;
    for (i, stage) in vnet_serve::STAGES.iter().enumerate() {
        let (mean_us, p99_us) = stage_delta(&run.stages_before[i], &run.stages_after[i]);
        stage_mean_sum += mean_us;
        report.metric(&format!("serve.{stage}_us"), mean_us, "us");
        report.metric(&format!("serve.{stage}_p99_us"), p99_us, "us");
    }
    let client_us: Vec<f64> = run
        .lo
        .millis
        .iter()
        .chain(&run.hi.millis)
        .map(|ms| ms * 1e3)
        .collect();
    report.metric(
        "serve.unattributed_us",
        mean(&client_us) - stage_mean_sum,
        "us",
    );
    let c = run.cache;
    let (hits, misses) = (c.hits as f64, c.misses as f64);
    report.metric("serve.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    report.metric("serve.coalesced", c.coalesced as f64, "count");
    let materialized = c.asof_materializations as f64;
    report.metric("serve.asof_materializations", materialized, "count");
    report.metric("serve.asof_cache_hits", c.asof_cache_hits as f64, "count");

    let detect_ms: Vec<f64> = run
        .lo
        .keys
        .iter()
        .zip(&run.lo.millis)
        .filter(|(&k, _)| matches!(run.keys[k].kind, hot::KeyKind::Detect(..)))
        .map(|(_, ms)| *ms)
        .collect();
    report.metric("hot.detect_ms", median(&detect_ms), "ms");
    let lag = run.lo.lag_p99().max(run.hi.lag_p99());
    report.metric("gen.lag_ms", lag, "ms");
}

/// `serve-cold`: one run of the workload over a fixed number of requests,
/// each kind timed from the client, with the queue and execute stages
/// read around the window.
fn cold_layers(seed: u64, nproc: usize, report: &mut Report) {
    let budget = Duration::from_secs(120);
    let Some(run) = cold::measure(seed, COLD_TRACE_OPS, nproc, budget, report) else {
        return;
    };
    let w = &run.window;
    report.check(w.done.len() == COLD_TRACE_OPS, || {
        format!(
            "only {} of {COLD_TRACE_OPS} traced cold requests completed",
            w.done.len()
        )
    });
    for (name, ms) in KINDS.iter().zip(cold::kind_medians(w)) {
        report.metric(&format!("cold.{name}_ms"), ms, "ms");
    }
    report.metric("cold.misses", w.cache.misses as f64, "count");
    let materialized = w.cache.asof_materializations as f64;
    report.metric("cold.materializations", materialized, "count");
    for (i, stage) in vnet_serve::STAGES.iter().enumerate() {
        if *stage == "queue" || *stage == "execute" {
            let (mean_us, _) = stage_delta(&w.stages_before[i], &w.stages_after[i]);
            report.metric(&format!("cold.{stage}_us"), mean_us, "us");
        }
    }
}
