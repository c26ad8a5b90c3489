//! Open-loop soak harness for the `vnet-serve` analysis service.
//!
//! ```text
//! cargo run --release -p vnet-bench --bin serve_load
//! cargo run --release -p vnet-bench --bin serve_load -- --rate 800 --requests 20000
//! cargo run --release -p vnet-bench --bin serve_load -- --out BENCH_serve.json
//! ```
//!
//! Unlike a closed-loop driver (each client waits for its reply before
//! sending again, so a slow server quietly throttles its own load), this
//! harness is **arrival-rate driven** (`--warmup N` drops the first N
//! arrivals' replies from the latency populations only — they are still
//! oracle-diffed and counted): a seeded Poisson process fixes
//! every request's send time before the run starts, and the dispatcher
//! holds to that schedule whether or not replies have come back. Requests
//! fan out over a pool of pipelined connections (replies on one
//! connection come back in request order — the per-connection handler
//! loop is serial), across **two registered snapshots** with distinct
//! datasets and a pool of client identities charged against the server's
//! token-bucket admission gate.
//!
//! Every admitted reply's per-section fingerprint is diffed against a
//! batch [`run_analysis_section`] oracle computed in-process before the
//! server starts; every rejected reply must be a well-formed
//! `rate_limited` (with a `retry_after_ms >= 1` hint) or `queue_full`
//! frame. The binary exits nonzero on any divergence, malformed frame,
//! accounting mismatch against the server's own counters, leaked
//! connection, or a shard queue that fails to drain to zero. The JSON
//! summary (stdout, or `--out <file>`) separates **admitted** from
//! **rejected** latency populations — both are wall-clock measurements,
//! recorded for tracking only, never asserted on.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SynthesisConfig,
};
use vnet_bench::overhead;
use vnet_obs::{fingerprint_str, HistogramSnapshot};
use vnet_serve::{AdmissionPolicy, Server, ServerConfig, ServerHandle, STAGES};

/// Sections the soak draws from — cheap enough to request thousands of
/// times (after the first miss per key everything is a cache hit).
const MIX_SECTIONS: [Section; 4] =
    [Section::Basic, Section::Reciprocity, Section::Separation, Section::Degrees];
/// Options seeds the soak draws from; sections × seeds × snapshots is the
/// oracle size (24 batch computations).
const MIX_SEEDS: [u64; 3] = [11, 12, 13];
/// The two registered snapshots. Their datasets are built from different
/// society seeds, so routing bugs show up as fingerprint divergences.
const SNAPSHOTS: [&str; 2] = ["alpha", "beta"];

struct LoadConfig {
    /// Offered arrival rate, requests per second across all clients.
    rate: f64,
    /// Total requests in the schedule.
    requests: usize,
    /// Pipelined connections the schedule round-robins over.
    conns: usize,
    /// Distinct client identities (admission buckets).
    clients: usize,
    seed: u64,
    /// Admission quota per client per window.
    quota: u32,
    window_ms: u64,
    /// Replies for the first `warmup` scheduled arrivals are excluded
    /// from both latency populations (cold caches and lazy page-ins
    /// otherwise dominate the tail) but are still oracle-diffed and
    /// counted — correctness has no warm-up phase.
    warmup: usize,
    out: Option<String>,
}

fn parse_args() -> LoadConfig {
    let mut config = LoadConfig {
        rate: 400.0,
        requests: 1_000,
        conns: 8,
        clients: 4,
        seed: 7,
        quota: 20,
        window_ms: 250,
        warmup: 0,
        out: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rate" => config.rate = flag_value(&mut it, "--rate"),
            "--requests" => config.requests = flag_value(&mut it, "--requests"),
            "--conns" => config.conns = flag_value(&mut it, "--conns"),
            "--clients" => config.clients = flag_value(&mut it, "--clients"),
            "--seed" => config.seed = flag_value(&mut it, "--seed"),
            "--quota" => config.quota = flag_value(&mut it, "--quota"),
            "--window-ms" => config.window_ms = flag_value(&mut it, "--window-ms"),
            "--warmup" => config.warmup = flag_value(&mut it, "--warmup"),
            "--out" => {
                config.out = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!(
                    "unknown argument '{other}'\nusage: serve_load [--rate <rps>] [--requests <n>] \
                     [--conns <n>] [--clients <n>] [--seed <n>] [--quota <n>] [--window-ms <n>] \
                     [--warmup <n>] [--out <file>]"
                );
                std::process::exit(2);
            }
        }
    }
    if config.rate <= 0.0 || config.requests == 0 || config.conns == 0 || config.clients == 0 {
        eprintln!("--rate, --requests, --conns and --clients must all be positive");
        std::process::exit(2);
    }
    config
}

fn flag_value<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    match it.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("{flag} needs a number");
            std::process::exit(2);
        }
    }
}

/// One scheduled request: fixed before the run starts, so the offered
/// load is a pure function of `(--rate, --requests, --seed)`.
struct Arrival {
    at: Duration,
    snapshot: usize,
    section: Section,
    options_seed: u64,
    client: usize,
}

/// What the reader thread expects for the next in-order reply on its
/// connection.
struct Expect {
    snapshot: usize,
    section: Section,
    options_seed: u64,
    sent: Instant,
    /// Past the `--warmup` prefix: this reply's latency counts.
    warm: bool,
}

/// One reader thread's tallies.
#[derive(Default)]
struct ConnStats {
    admitted_micros: Vec<u64>,
    rejected_micros: Vec<u64>,
    ok_per_shard: [u64; 2],
    rejected_per_shard: [u64; 2],
    rate_limited: u64,
    queue_full: u64,
    failures: Vec<String>,
}

type Oracle = BTreeMap<(usize, &'static str, u64), u64>;

fn classify_reply(line: &str, exp: &Expect, oracle: &Oracle, stats: &mut ConnStats) {
    let micros = exp.sent.elapsed().as_micros() as u64;
    let v: serde_json::Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => {
            stats.failures.push(format!("unparseable reply ({e}): {line}"));
            return;
        }
    };
    if v["ok"].as_bool() == Some(true) {
        let want = oracle.get(&(exp.snapshot, exp.section.id(), exp.options_seed)).copied();
        let got = v["sections"][0]["fingerprint"].as_u64();
        if got != want {
            stats.failures.push(format!(
                "fingerprint mismatch for {}/{}/{}: served {got:?}, batch oracle {want:?}",
                SNAPSHOTS[exp.snapshot],
                exp.section.id(),
                exp.options_seed,
            ));
            return;
        }
        if v["snapshot"].as_str() != Some(SNAPSHOTS[exp.snapshot]) {
            stats.failures.push(format!(
                "reply routed to the wrong shard: wanted {}, got {line}",
                SNAPSHOTS[exp.snapshot]
            ));
            return;
        }
        stats.ok_per_shard[exp.snapshot] += 1;
        if exp.warm {
            stats.admitted_micros.push(micros);
        }
        return;
    }
    match v["error"]["code"].as_str() {
        Some("rate_limited") => {
            if v["error"]["retry_after_ms"].as_u64().unwrap_or(0) == 0 {
                stats.failures.push(format!("rate_limited without a usable retry hint: {line}"));
                return;
            }
            stats.rate_limited += 1;
        }
        Some("queue_full") => stats.queue_full += 1,
        _ => {
            stats.failures.push(format!("unexpected error reply: {line}"));
            return;
        }
    }
    stats.rejected_per_shard[exp.snapshot] += 1;
    if exp.warm {
        stats.rejected_micros.push(micros);
    }
}

fn reader_loop(
    stream: TcpStream,
    rx: mpsc::Receiver<Expect>,
    oracle: Arc<Oracle>,
) -> ConnStats {
    let mut stats = ConnStats::default();
    let mut reader = BufReader::new(stream);
    while let Ok(exp) = rx.recv() {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {
                stats.failures.push("connection closed before its replies drained".to_string());
                return stats;
            }
            Ok(_) => classify_reply(line.trim_end(), &exp, &oracle, &mut stats),
            Err(e) => {
                stats.failures.push(format!("read failed: {e}"));
                return stats;
            }
        }
    }
    stats
}

fn counter(handle: &ServerHandle, name: &str, labels: &[(&str, &str)]) -> u64 {
    handle.obs_handle().metrics().counter(name, labels)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn latency_json(sorted: &[u64]) -> String {
    format!(
        "{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"samples\":{}}}",
        percentile(sorted, 0.50),
        percentile(sorted, 0.90),
        percentile(sorted, 0.99),
        sorted.last().copied().unwrap_or(0),
        sorted.len(),
    )
}

/// Approximate percentile of a log-bucketed histogram: the upper edge of
/// the first bucket whose cumulative count reaches the rank (each bucket
/// is at most 2x its lower edge, so the edge is within 2x of the true
/// value). Overflow samples report the top edge.
fn hist_percentile(h: &HistogramSnapshot, p: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let rank = ((p * h.count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let edge = h.bounds.get(i).or_else(|| h.bounds.last());
            return edge.copied().unwrap_or(0.0) as u64;
        }
    }
    h.bounds.last().copied().unwrap_or(0.0) as u64
}

/// The per-stage latency breakdown the server's staged histograms
/// recorded: `framing → admission → queue → execute → write`, each as
/// approximate percentiles over every request the run admitted.
fn stage_breakdown_json(registry: &vnet_obs::Registry) -> String {
    let histograms = registry.histograms();
    let parts: Vec<String> = STAGES
        .iter()
        .map(|stage| {
            let key = format!("serve.stage_wall_micros{{stage={stage}}}");
            match histograms.get(&key) {
                Some(h) => format!(
                    "\"{stage}\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"mean\":{:.1},\"samples\":{}}}",
                    hist_percentile(h, 0.50),
                    hist_percentile(h, 0.90),
                    hist_percentile(h, 0.99),
                    if h.count == 0 { 0.0 } else { h.sum / h.count as f64 },
                    h.count,
                ),
                None => format!("\"{stage}\":{{\"samples\":0}}"),
            }
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

fn main() {
    let load = parse_args();

    // ------------------------------------------------------------------
    // Two distinct datasets (different society seeds), and a batch oracle
    // for every (snapshot, section, seed) the schedule can request. A
    // served fingerprint that differs from this map is a determinism or
    // routing bug, full stop.
    // ------------------------------------------------------------------
    eprintln!("building {} small-scale datasets and the batch oracle ...", SNAPSHOTS.len());
    let ctx = AnalysisCtx::quiet();
    let datasets: Vec<Dataset> = (0..SNAPSHOTS.len())
        .map(|i| {
            let mut config = SynthesisConfig::small();
            config.society.seed = config.society.seed.wrapping_add(1000 * i as u64);
            Dataset::build(&config, &ctx)
        })
        .collect();
    assert_ne!(
        datasets[0].fingerprint(),
        datasets[1].fingerprint(),
        "shard datasets must differ for routing bugs to be observable"
    );
    let mut oracle: Oracle = BTreeMap::new();
    for (i, dataset) in datasets.iter().enumerate() {
        for &section in &MIX_SECTIONS {
            for &seed in &MIX_SEEDS {
                let opts = AnalysisOptions::quick().to_builder().seed(seed).build();
                let payload = run_analysis_section(dataset, section, &opts, &ctx)
                    .unwrap_or_else(|e| panic!("oracle {} failed: {e}", section.id()));
                let json = serde_json::to_string(&payload).expect("serialize oracle payload");
                oracle.insert((i, section.id(), seed), fingerprint_str(&json));
            }
        }
    }
    let oracle = Arc::new(oracle);

    // ------------------------------------------------------------------
    // The offered-load schedule: seeded exponential inter-arrivals at
    // --rate, each arrival bound to a snapshot, section, options seed and
    // client identity. Nothing downstream changes these.
    // ------------------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(load.seed);
    let mut at = 0.0f64;
    let arrivals: Vec<Arrival> = (0..load.requests)
        .map(|_| {
            at += -(1.0 - rng.random::<f64>()).ln() / load.rate;
            Arrival {
                at: Duration::from_secs_f64(at),
                snapshot: rng.random_range(0..SNAPSHOTS.len()),
                section: MIX_SECTIONS[rng.random_range(0..MIX_SECTIONS.len())],
                options_seed: MIX_SEEDS[rng.random_range(0..MIX_SEEDS.len())],
                client: rng.random_range(0..load.clients),
            }
        })
        .collect();
    let schedule_span = arrivals.last().map(|a| a.at).unwrap_or_default();

    let handle = Server::start(ServerConfig {
        max_in_flight: 4,
        queue_depth: 4 * load.conns,
        admission: Some(AdmissionPolicy {
            requests: load.quota,
            window_millis: load.window_ms,
        }),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    for (name, dataset) in SNAPSHOTS.iter().zip(&datasets) {
        handle.register_dataset(name, dataset.clone());
    }
    let addr: SocketAddr = handle.local_addr();

    // One reader thread per pipelined connection: the dispatcher pushes
    // the expectation *before* writing each request, and per-connection
    // reply order matches request order, so matching is positional.
    let mut writers: Vec<TcpStream> = Vec::with_capacity(load.conns);
    let mut senders: Vec<mpsc::Sender<Expect>> = Vec::with_capacity(load.conns);
    let mut readers = Vec::with_capacity(load.conns);
    for _ in 0..load.conns {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        // Pipelined writes: with Nagle on, a request written while the
        // previous one is unacknowledged waits for the server's delayed ACK.
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let (tx, rx) = mpsc::channel::<Expect>();
        let read_half = stream.try_clone().expect("clone stream");
        let oracle = Arc::clone(&oracle);
        readers.push(std::thread::spawn(move || reader_loop(read_half, rx, oracle)));
        writers.push(stream);
        senders.push(tx);
    }

    // ------------------------------------------------------------------
    // The open loop: hold to the precomputed schedule. `lag_max` records
    // how far the dispatcher fell behind it — the honesty metric of an
    // open-loop harness (a closed loop would report 0 by construction).
    // ------------------------------------------------------------------
    eprintln!(
        "offering {} requests at {:.0} rps over {} connections ...",
        load.requests, load.rate, load.conns
    );
    let started = Instant::now();
    let mut lag_max = Duration::ZERO;
    let mut send_failures = 0usize;
    for (i, a) in arrivals.iter().enumerate() {
        let now = started.elapsed();
        if a.at > now {
            std::thread::sleep(a.at - now);
        } else {
            lag_max = lag_max.max(now - a.at);
        }
        let conn = i % load.conns;
        let request = format!(
            "{{\"v\":1,\"cmd\":\"analyze\",\"snapshot\":\"{}\",\"sections\":[\"{}\"],\"options\":{{\"seed\":{}}},\"client\":\"tenant-{}\"}}\n",
            SNAPSHOTS[a.snapshot],
            a.section.id(),
            a.options_seed,
            a.client,
        );
        let expect = Expect {
            snapshot: a.snapshot,
            section: a.section,
            options_seed: a.options_seed,
            sent: Instant::now(),
            warm: i >= load.warmup,
        };
        if senders[conn].send(expect).is_err()
            || writers[conn].write_all(request.as_bytes()).is_err()
        {
            send_failures += 1;
        }
    }
    drop(senders); // readers drain their remaining expectations and exit
    let mut stats = ConnStats::default();
    for t in readers {
        let s = t.join().expect("reader thread");
        stats.admitted_micros.extend(s.admitted_micros);
        stats.rejected_micros.extend(s.rejected_micros);
        for i in 0..SNAPSHOTS.len() {
            stats.ok_per_shard[i] += s.ok_per_shard[i];
            stats.rejected_per_shard[i] += s.rejected_per_shard[i];
        }
        stats.rate_limited += s.rate_limited;
        stats.queue_full += s.queue_full;
        stats.failures.extend(s.failures);
    }
    let wall = started.elapsed();
    drop(writers);
    let mut failures = stats.failures;
    if send_failures > 0 {
        failures.push(format!("{send_failures} request(s) could not be written"));
    }

    // ------------------------------------------------------------------
    // Cross-check the harness's view against the server's own counters,
    // then drain. After drain + join, shard queues must be empty and no
    // connection may leak.
    // ------------------------------------------------------------------
    let admitted = counter(&handle, "serve.admitted", &[]);
    let rejected_rl = counter(&handle, "serve.rejected{reason=rate_limited}", &[]);
    let rejected_qf = counter(&handle, "serve.rejected{reason=queue_full}", &[]);
    let cache_hits = counter(&handle, "cache.hits", &[]);
    let cache_misses = counter(&handle, "cache.misses", &[]);
    let coalesced = counter(&handle, "serve.coalesced", &[]);
    let per_shard_requests: Vec<u64> = SNAPSHOTS
        .iter()
        .map(|name| counter(&handle, "serve.requests", &[("shard", name)]))
        .collect();

    let ok_total: u64 = stats.ok_per_shard.iter().sum();
    if admitted != ok_total {
        failures.push(format!(
            "accounting: server admitted {admitted} but {ok_total} ok replies were read"
        ));
    }
    if rejected_rl != stats.rate_limited {
        failures.push(format!(
            "accounting: server counted {rejected_rl} rate_limited but {} frames were read",
            stats.rate_limited
        ));
    }
    if rejected_qf != stats.queue_full {
        failures.push(format!(
            "accounting: server counted {rejected_qf} queue_full but {} frames were read",
            stats.queue_full
        ));
    }
    let answered = ok_total + stats.rate_limited + stats.queue_full;
    if answered + failures.len() as u64 != load.requests as u64 && failures.is_empty() {
        failures.push(format!(
            "accounting: offered {} requests but only {answered} replies were classified",
            load.requests
        ));
    }

    let drain_started = Instant::now();
    handle.shutdown();
    let drain_micros = drain_started.elapsed().as_micros() as u64;
    let obs = handle.obs_handle();
    handle.join();
    for name in SNAPSHOTS {
        for gauge in ["serve.queue_depth", "serve.jobs_running"] {
            let v = obs.metrics().gauge(gauge, &[("shard", name)]).unwrap_or(0.0);
            if v != 0.0 {
                failures.push(format!("{gauge}{{shard={name}}} = {v} after drain"));
            }
        }
    }
    let opened = obs.metrics().counter("serve.conn_opened", &[]);
    let closed = obs.metrics().counter("serve.conn_closed", &[]);
    if opened != closed {
        failures.push(format!("leaked connections: {opened} opened, {closed} closed"));
    }
    let stage_breakdown = stage_breakdown_json(&obs.metrics());

    // The recording-overhead microbench rides along so BENCH_serve.json
    // carries the obs-on/obs-off cost next to the load numbers it
    // explains (see the standalone obs_overhead binary for the gated
    // version).
    eprintln!("measuring metric-recording overhead at 1/2/4 threads ...");
    let overhead_report = overhead::measure(200_000, &[1, 2, 4]);

    // ------------------------------------------------------------------
    // Summary.
    // ------------------------------------------------------------------
    stats.admitted_micros.sort_unstable();
    stats.rejected_micros.sort_unstable();
    let per_shard: Vec<String> = SNAPSHOTS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            format!(
                "\"{name}\":{{\"admitted\":{},\"rejected\":{},\"throughput_rps\":{:.1}}}",
                per_shard_requests[i],
                stats.rejected_per_shard[i],
                stats.ok_per_shard[i] as f64 / wall.as_secs_f64(),
            )
        })
        .collect();
    let note = "Open-loop soak: a seeded Poisson schedule fixes every arrival before the run; \
                the dispatcher holds to it over pipelined connections across two snapshot \
                shards and a pool of admission-controlled client identities. Admitted reply \
                fingerprints are diffed against an in-process batch run_analysis_section \
                oracle; rejected replies must be well-formed rate_limited/queue_full frames. \
                Latency populations are separated (admitted vs rejected) and are wall-clock \
                only — recorded for tracking, never asserted on.";
    let rendered = format!(
        r#"{{
  "benchmark": "vnet-serve open-loop soak — serve_load --rate {rate:.0} --requests {requests} --seed {seed}",
  "cores": {cores},
  "note": "{note}",
  "config": {{
    "rate_rps": {rate:.1},
    "requests": {requests},
    "conns": {conns},
    "clients": {clients},
    "seed": {seed},
    "snapshots": {snapshots},
    "admission": {{"quota": {quota}, "window_ms": {window_ms}}},
    "warmup": {warmup}
  }},
  "totals": {{
    "offered": {requests},
    "admitted": {admitted},
    "rejected_rate_limited": {rejected_rl},
    "rejected_queue_full": {rejected_qf},
    "failures": {failure_count},
    "coalesced": {coalesced},
    "cache_hits": {cache_hits},
    "cache_misses": {cache_misses}
  }},
  "per_shard": {{{per_shard}}},
  "latency_micros": {{
    "admitted": {admitted_lat},
    "rejected": {rejected_lat}
  }},
  "stage_latency_micros": {stage_breakdown},
  "obs_overhead": {obs_overhead},
  "offered_rate_rps": {offered_rate:.1},
  "achieved_rate_rps": {achieved_rate:.1},
  "schedule_span_s": {span:.3},
  "dispatch_lag_max_micros": {lag_max},
  "drain_micros": {drain_micros}
}}"#,
        rate = load.rate,
        warmup = load.warmup,
        stage_breakdown = stage_breakdown,
        obs_overhead = overhead::render_json(&overhead_report),
        requests = load.requests,
        conns = load.conns,
        clients = load.clients,
        seed = load.seed,
        snapshots = SNAPSHOTS.len(),
        quota = load.quota,
        window_ms = load.window_ms,
        cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        failure_count = failures.len(),
        per_shard = per_shard.join(","),
        admitted_lat = latency_json(&stats.admitted_micros),
        rejected_lat = latency_json(&stats.rejected_micros),
        offered_rate = load.requests as f64 / schedule_span.as_secs_f64().max(1e-9),
        achieved_rate = answered as f64 / wall.as_secs_f64(),
        span = schedule_span.as_secs_f64(),
        lag_max = lag_max.as_micros() as u64,
    );
    match &load.out {
        Some(path) => {
            std::fs::write(path, format!("{rendered}\n")).expect("write summary file");
            eprintln!("summary written to {path}");
        }
        None => println!("{rendered}"),
    }

    if failures.is_empty() {
        eprintln!(
            "serve_load: OK — {answered}/{} replies ({admitted} admitted, {} rate_limited, {} queue_full), every admitted reply matched the batch oracle",
            load.requests, stats.rate_limited, stats.queue_full,
        );
    } else {
        eprintln!("serve_load: {} failure(s):", failures.len());
        for f in failures.iter().take(20) {
            eprintln!("  - {f}");
        }
        if failures.len() > 20 {
            eprintln!("  ... and {} more", failures.len() - 20);
        }
        std::process::exit(1);
    }
}
