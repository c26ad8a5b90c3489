//! Small-rate deterministic soak: an in-process open-loop run (seeded
//! Poisson arrivals, two snapshots, admission control on) that fails on
//! fingerprint divergence, non-monotone counters, a queue that does not
//! drain to zero, or a leaked connection.
//!
//! This is the CI-sized sibling of the `serve_load` harness (the
//! `serve-soak` verify lane runs both): same arrival-driven dispatch over
//! pipelined connections, same positional reply matching, same batch
//! [`run_analysis_section`] oracle — scaled to ≥500 requests so it stays
//! a test, not a benchmark. A sampler thread snapshots the server's
//! counters throughout the run; counters must never decrease, and after
//! drain the per-shard queue gauges must read zero with every connection
//! accounted for.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SynthesisConfig,
};
use vnet_obs::fingerprint_str;
use vnet_serve::{AdmissionClock, AdmissionPolicy, Server, ServerConfig};

const REQUESTS: usize = 600;
const RATE_RPS: f64 = 500.0;
const CONNS: usize = 4;
const CLIENTS: usize = 3;
const SNAPSHOTS: [&str; 2] = ["alpha", "beta"];
const SECTIONS: [Section; 3] = [Section::Basic, Section::Reciprocity, Section::Degrees];
const SEEDS: [u64; 2] = [21, 22];

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet()))
}

struct Expect {
    snapshot: usize,
    section: Section,
    seed: u64,
}

#[derive(Default)]
struct Outcome {
    ok: u64,
    rate_limited: u64,
    failures: Vec<String>,
}

fn reader_loop(
    stream: TcpStream,
    rx: mpsc::Receiver<Expect>,
    oracle: Arc<BTreeMap<(&'static str, u64), u64>>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut reader = BufReader::new(stream);
    while let Ok(exp) = rx.recv() {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {
                out.failures.push("connection closed with replies outstanding".into());
                return out;
            }
            Err(e) => {
                out.failures.push(format!("read failed: {e}"));
                return out;
            }
            Ok(_) => {}
        }
        let v: serde_json::Value = match serde_json::from_str(line.trim_end()) {
            Ok(v) => v,
            Err(e) => {
                out.failures.push(format!("unparseable reply ({e}): {line}"));
                continue;
            }
        };
        if v["ok"].as_bool() == Some(true) {
            let want = oracle.get(&(exp.section.id(), exp.seed)).copied();
            let got = v["sections"][0]["fingerprint"].as_u64();
            if got != want {
                out.failures.push(format!(
                    "fingerprint divergence for {}/{}: served {got:?}, oracle {want:?}",
                    exp.section.id(),
                    exp.seed
                ));
            } else if v["snapshot"].as_str() != Some(SNAPSHOTS[exp.snapshot]) {
                out.failures.push(format!("reply from the wrong shard: {line}"));
            } else {
                out.ok += 1;
            }
        } else if v["error"]["code"].as_str() == Some("rate_limited") {
            if v["error"]["retry_after_ms"].as_u64().unwrap_or(0) == 0 {
                out.failures.push(format!("rate_limited without a retry hint: {line}"));
            } else {
                out.rate_limited += 1;
            }
        } else {
            out.failures.push(format!("unexpected reply: {line}"));
        }
    }
    out
}

#[test]
fn open_loop_soak_stays_faithful_and_drains_clean() {
    // Oracle first: the batch fingerprint for every (section, seed) key
    // the schedule can request (both snapshots share one dataset here —
    // routing correctness is serve_shards' job; this test is about
    // sustained fidelity and clean teardown).
    let ctx = AnalysisCtx::quiet();
    let mut oracle = BTreeMap::new();
    for &section in &SECTIONS {
        for &seed in &SEEDS {
            let opts = AnalysisOptions::quick().to_builder().seed(seed).build();
            let payload = run_analysis_section(dataset(), section, &opts, &ctx)
                .unwrap_or_else(|e| panic!("oracle {} failed: {e}", section.id()));
            let json = serde_json::to_string(&payload).expect("serialize oracle payload");
            oracle.insert((section.id(), seed), fingerprint_str(&json));
        }
    }
    let oracle = Arc::new(oracle);

    let handle = Server::start(ServerConfig {
        max_in_flight: 2,
        queue_depth: 16,
        admission: Some(AdmissionPolicy { requests: 40, window_millis: 200 }),
        admission_clock: AdmissionClock::wall(),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    for name in SNAPSHOTS {
        handle.register_dataset(name, dataset().clone());
    }
    let addr = handle.local_addr();
    let obs = handle.obs_handle();

    // Sampler: counters must be monotone non-decreasing for the whole
    // run. (Gauges legitimately oscillate; monotonicity is a counter
    // contract.)
    const WATCHED: [&str; 4] =
        ["serve.admitted", "serve.rejected{reason=rate_limited}", "cache.hits", "serve.requests"];
    let stop_sampling = Arc::new(AtomicBool::new(false));
    let sampler = {
        let obs = Arc::clone(&obs);
        let stop = Arc::clone(&stop_sampling);
        std::thread::spawn(move || {
            let mut samples: Vec<[u64; 4]> = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let mut row = [0u64; 4];
                for (i, name) in WATCHED.iter().enumerate() {
                    row[i] = obs.metrics().counter(name, &[]);
                }
                samples.push(row);
                std::thread::sleep(Duration::from_millis(10));
            }
            samples
        })
    };

    // Seeded open-loop schedule over pipelined connections.
    let mut writers = Vec::with_capacity(CONNS);
    let mut senders = Vec::with_capacity(CONNS);
    let mut readers = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
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
    let mut rng = StdRng::seed_from_u64(42);
    let mut at = 0.0f64;
    let started = Instant::now();
    for i in 0..REQUESTS {
        at += -(1.0 - rng.random::<f64>()).ln() / RATE_RPS;
        let snapshot = rng.random_range(0..SNAPSHOTS.len());
        let section = SECTIONS[rng.random_range(0..SECTIONS.len())];
        let seed = SEEDS[rng.random_range(0..SEEDS.len())];
        let client = rng.random_range(0..CLIENTS);
        let due = Duration::from_secs_f64(at);
        let now = started.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let conn = i % CONNS;
        senders[conn].send(Expect { snapshot, section, seed }).expect("reader alive");
        let request = format!(
            "{{\"v\":1,\"cmd\":\"analyze\",\"snapshot\":\"{}\",\"sections\":[\"{}\"],\"options\":{{\"seed\":{seed}}},\"client\":\"c{client}\"}}\n",
            SNAPSHOTS[snapshot],
            section.id(),
        );
        writers[conn].write_all(request.as_bytes()).expect("send request");
    }
    drop(senders);
    let mut total = Outcome::default();
    for t in readers {
        let out = t.join().expect("reader thread");
        total.ok += out.ok;
        total.rate_limited += out.rate_limited;
        total.failures.extend(out.failures);
    }
    drop(writers);
    stop_sampling.store(true, Ordering::SeqCst);
    let samples = sampler.join().expect("sampler thread");

    assert!(total.failures.is_empty(), "soak failures: {:#?}", total.failures);
    assert_eq!(
        total.ok + total.rate_limited,
        REQUESTS as u64,
        "every offered request must be answered exactly once"
    );
    assert!(total.ok >= 100, "soak admitted too little to be meaningful: {}", total.ok);

    // The harness's tallies must agree with the server's own counters.
    assert_eq!(obs.metrics().counter("serve.admitted", &[]), total.ok);
    assert_eq!(
        obs.metrics().counter("serve.rejected{reason=rate_limited}", &[]),
        total.rate_limited
    );
    let per_shard: u64 = SNAPSHOTS
        .iter()
        .map(|name| obs.metrics().counter("serve.requests", &[("shard", name)]))
        .sum();
    assert_eq!(per_shard, total.ok, "shard-labelled admissions must sum to the total");

    // Counter monotonicity across every sampler snapshot.
    for pair in samples.windows(2) {
        for (i, name) in WATCHED.iter().enumerate() {
            assert!(
                pair[1][i] >= pair[0][i],
                "counter {name} went backwards: {} -> {}",
                pair[0][i],
                pair[1][i]
            );
        }
    }
    assert!(samples.len() >= 2, "sampler never ran");

    // Drain and teardown: queues settle to zero, no connection leaks.
    handle.shutdown();
    handle.join();
    for name in SNAPSHOTS {
        for gauge in ["serve.queue_depth", "serve.jobs_running"] {
            assert_eq!(
                obs.metrics().gauge(gauge, &[("shard", name)]),
                Some(0.0),
                "{gauge}{{shard={name}}} did not drain to zero"
            );
        }
    }
    assert_eq!(
        obs.metrics().counter("serve.conn_opened", &[]),
        obs.metrics().counter("serve.conn_closed", &[]),
        "connection leak after drain"
    );
    assert_eq!(obs.metrics().gauge("serve.conn_active", &[]), Some(0.0));
}
