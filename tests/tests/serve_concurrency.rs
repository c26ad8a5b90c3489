//! Concurrency battery for the rebuilt `vnet-serve` execution layer.
//!
//! Pins the behaviours the executor/framing/single-flight redesign exists
//! for:
//!
//! 1. **Slow writers lose no bytes** — a request trickled across many
//!    read-timeout ticks still parses (the regression that motivated the
//!    incremental `LineReader`; the old `read_line` + `line.clear()` loop
//!    silently corrupted any request written across >100 ms).
//! 2. **Single-flight coalescing** — concurrent identical requests on a
//!    cold cache compute once (`serve.coalesced == 1`) and both replies
//!    are byte-identical to the batch `run_analysis_section` fingerprint.
//!    Day graphs and `detect` replies fill through the same memo: four
//!    concurrent identical `detect`s run detection once, and four
//!    sections as of one uncached day replay that day once.
//! 3. **Event-driven drain** — shutdown under in-flight load answers every
//!    admitted request, refuses late ones with `shutting_down`, and
//!    drains on a condvar (`serve.drain_wakeups` stays a handful, where a
//!    5 ms poll loop would take hundreds of iterations).

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SynthesisConfig,
};
use vnet_integration_tests::LineClient;
use vnet_serve::{Server, ServerConfig, ServerHandle};

/// One small dataset shared by every test in this file.
fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet()))
}

fn start(config: ServerConfig) -> ServerHandle {
    Server::start(config).expect("bind loopback server")
}

fn counter(handle: &ServerHandle, name: &str) -> u64 {
    handle.obs_handle().metrics().counter(name, &[])
}

/// A server with one `small` shard, `adv`, registered with a 30-day churn
/// timeline and the planted sybil workload, so it answers `as_of` and
/// `detect`.
fn start_adversarial() -> ServerHandle {
    let handle = start(ServerConfig::default());
    let mut c = LineClient::connect(handle.local_addr());
    let reg = c.req(
        r#"{"v":1,"cmd":"register","name":"adv","scale":"small","churn_days":30,"churn_seed":23,"sybil":true}"#,
    );
    assert!(reg.starts_with(r#"{"ok":true"#), "register failed: {reg}");
    handle
}

/// Send each line on a connection of its own, all released by one
/// barrier, and return the replies in line order.
fn send_together(handle: &ServerHandle, lines: Vec<String>) -> Vec<String> {
    let addr = handle.local_addr();
    let barrier = Arc::new(Barrier::new(lines.len()));
    let clients: Vec<_> = lines
        .into_iter()
        .map(|line| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = LineClient::connect(addr);
                barrier.wait();
                c.req(&line)
            })
        })
        .collect();
    clients.into_iter().map(|t| t.join().expect("client thread")).collect()
}

/// `(cache.misses{shard=adv}, cache.misses, serve.coalesced,
/// serve.asof_materializations)` right now.
fn fill_counters(handle: &ServerHandle) -> [u64; 4] {
    let metrics = handle.obs_handle().metrics();
    [
        metrics.counter("cache.misses", &[("shard", "adv")]),
        metrics.counter("cache.misses", &[]),
        metrics.counter("serve.coalesced", &[]),
        metrics.counter("serve.asof_materializations", &[]),
    ]
}

fn since(after: [u64; 4], before: [u64; 4]) -> [u64; 4] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// The headline regression: one request written byte-by-byte with gaps
/// longer than the server's 100 ms read-timeout tick. Every tick used to
/// discard the partial line; now the framer carries it across ticks.
#[test]
fn slow_writer_request_survives_read_timeout_ticks() {
    let handle = start(ServerConfig::default());
    let mut c = LineClient::connect(handle.local_addr());

    let request = b"{\"v\":1,\"cmd\":\"status\"}\n";
    for &byte in request.iter() {
        c.stream().write_all(&[byte]).expect("send one byte");
        c.stream().flush().expect("flush one byte");
        // > the 100 ms read tick, so every byte lands in a fresh tick.
        std::thread::sleep(Duration::from_millis(150));
    }
    let reply = c.recv();
    let v: serde_json::Value = serde_json::from_str(&reply).expect("reply parses");
    assert_eq!(
        v["ok"].as_bool(),
        Some(true),
        "slow-writer request was corrupted or dropped: {reply}"
    );
    assert_eq!(counter(&handle, "serve.bad_requests"), 0, "partial bytes were misparsed");

    handle.shutdown();
    handle.join();
}

/// Two clients, cold cache, identical request: the computation runs once,
/// the second client coalesces onto the first's flight, and both replies
/// carry the exact fingerprint a batch `run_analysis_section` produces.
#[test]
fn concurrent_identical_requests_coalesce_to_one_computation() {
    let handle = start(ServerConfig::default());
    handle.register_dataset("s", dataset().clone());

    let analyze =
        r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["centrality"],"options":{"seed":42}}"#;
    let replies = send_together(&handle, vec![analyze.to_string(); 2]);

    assert_eq!(replies[0], replies[1], "coalesced reply diverged from the leader's");
    assert_eq!(
        counter(&handle, "serve.coalesced"),
        1,
        "exactly one request should have coalesced onto the open flight"
    );
    assert_eq!(counter(&handle, "cache.misses"), 1, "section was computed more than once");

    // Byte-identity with the batch path: the served fingerprint equals the
    // FNV of the serialized `run_analysis_section` payload — the same
    // digest a `bench repro` manifest records as `section.centrality`.
    let opts = AnalysisOptions::quick().to_builder().seed(42).build();
    let payload = run_analysis_section(dataset(), Section::Centrality, &opts, &AnalysisCtx::quiet())
        .expect("batch centrality");
    let expected =
        vnet_obs::fingerprint_str(&serde_json::to_string(&payload).expect("serialize payload"));
    let v: serde_json::Value = serde_json::from_str(&replies[0]).expect("reply parses");
    assert_eq!(
        v["sections"][0]["fingerprint"].as_u64(),
        Some(expected),
        "served bytes diverged from the batch computation"
    );

    handle.shutdown();
    handle.join();
}

/// Four connections ask for one uncached `detect` at once: one leads the
/// detect fill (one miss, one day replay inside it) and the other three
/// follow it, so every client gets the leader's bytes.
#[test]
fn concurrent_identical_detects_run_detection_once() {
    let handle = start_adversarial();
    let before = fill_counters(&handle);
    let detect = r#"{"v":1,"cmd":"detect","snapshot":"adv","as_of":17,"top_k":5}"#;
    let replies = send_together(&handle, vec![detect.to_string(); 4]);
    assert!(replies[0].starts_with(r#"{"ok":true"#), "detect failed: {}", replies[0]);
    assert!(replies.iter().all(|r| *r == replies[0]), "coalesced detect replies diverged");
    let [shard_misses, _, coalesced, replays] = since(fill_counters(&handle), before);
    assert_eq!(shard_misses, 1, "detection ran more than once");
    assert_eq!(coalesced, 3, "three detects should have followed the leader's fill");
    assert_eq!(replays, 1, "day 17 was replayed more than once");

    handle.shutdown();
    handle.join();
}

/// Four different sections as of one uncached day, at once: each section
/// misses, but the day graph they share is replayed once — the first job
/// leads the day fill and the others wait for it or find it cached.
#[test]
fn sections_as_of_one_uncached_day_replay_it_once() {
    let handle = start_adversarial();
    let before = fill_counters(&handle);
    let lines = ["basic", "reciprocity", "degrees", "separation"].map(|section| {
        format!(r#"{{"v":1,"cmd":"analyze","snapshot":"adv","sections":["{section}"],"as_of":11}}"#)
    });
    for reply in send_together(&handle, lines.to_vec()) {
        assert!(reply.starts_with(r#"{"ok":true"#), "analyze failed: {reply}");
        assert!(reply.contains(r#""as_of":11"#), "reply lost its day: {reply}");
    }
    let [_, misses, _, replays] = since(fill_counters(&handle), before);
    assert_eq!(misses, 4, "each section misses once");
    assert_eq!(replays, 1, "day 11 was replayed more than once");

    handle.shutdown();
    handle.join();
}

/// The server keeps its counters and histograms and records no span.
/// Every executor worker used to append its section spans to the
/// server's one single-writer tracer, which nothing read or freed, each
/// span nesting under whatever span another worker held open.
#[test]
fn analyze_misses_leave_no_spans_behind() {
    let handle = start(ServerConfig::default());
    handle.register_dataset("s", dataset().clone());
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..2u64)
        .map(|client| {
            std::thread::spawn(move || {
                let mut c = LineClient::connect(addr);
                for i in 0..10u64 {
                    let seed = 1_000 + 10 * client + i;
                    let reply = c.req(&format!(
                        r#"{{"v":1,"cmd":"analyze","snapshot":"s","sections":["basic","reciprocity"],"options":{{"seed":{seed}}}}}"#
                    ));
                    let v: serde_json::Value = serde_json::from_str(&reply).expect("reply parses");
                    assert_eq!(v["ok"].as_bool(), Some(true), "analyze failed: {reply}");
                }
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }

    assert_eq!(counter(&handle, "cache.misses"), 40, "every section of every request misses");
    let spans = handle.obs_handle().tracer().spans();
    assert!(spans.is_empty(), "{} spans left behind, first {:?}", spans.len(), spans.first());

    handle.shutdown();
    handle.join();
}

/// Shutdown while admitted analyses are queued and running: every admitted
/// client gets its full reply, a request arriving after the shutdown is
/// refused with `shutting_down`, and the drain is event-driven (condvar
/// wakeups, not a 5 ms poll). The test never sleeps on wall-clock guesses:
/// it observes admission and drain state through `status` round-trips.
#[test]
fn drain_under_load_is_lossless_and_event_driven() {
    // One worker, deep queue: four admitted jobs run strictly one after
    // another, so the drain provably spans multiple job completions.
    let config =
        ServerConfig { max_in_flight: 1, queue_depth: 8, ..ServerConfig::default() };
    let handle = start(config);
    handle.register_dataset("s", dataset().clone());
    let addr = handle.local_addr();

    // The observer connects before the shutdown so its connection outlives
    // the listener; its back-to-back requests keep the connection busy.
    let mut observer = LineClient::connect(addr);

    let in_flight: Vec<_> = [3u64, 4, 5, 6]
        .into_iter()
        .map(|seed| {
            std::thread::spawn(move || {
                let mut c = LineClient::connect(addr);
                c.req(&format!(
                    r#"{{"v":1,"cmd":"analyze","snapshot":"s","sections":["centrality"],"options":{{"seed":{seed}}}}}"#
                ))
            })
        })
        .collect();
    // Wait (by asking, not sleeping) until all four have been admitted:
    // `serve.requests` counts admissions cumulatively, so this terminates
    // even if some jobs already completed.
    while counter(&handle, "serve.requests") < 4 {
        let status = observer.req(r#"{"v":1,"cmd":"status"}"#);
        let v: serde_json::Value = serde_json::from_str(&status).expect("status parses");
        assert_eq!(v["ok"].as_bool(), Some(true), "status failed mid-admission: {status}");
    }

    // Shutdown drains in a background client; its reply blocks until
    // quiescence.
    let shutdown = std::thread::spawn(move || {
        let mut c = LineClient::connect(addr);
        c.req(r#"{"v":1,"cmd":"shutdown"}"#)
    });

    // The observer watches the shutting_down flag flip, then gets refused:
    // the flag is set before the drain starts and never clears, so this
    // sequence is race-free regardless of how fast the drain finishes.
    loop {
        let status = observer.req(r#"{"v":1,"cmd":"status"}"#);
        let v: serde_json::Value = serde_json::from_str(&status).expect("status parses");
        if v["shutting_down"].as_bool() == Some(true) {
            break;
        }
    }
    let refused = observer.req(r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["basic"]}"#);
    let v: serde_json::Value = serde_json::from_str(&refused).expect("refusal parses");
    assert_eq!(v["ok"].as_bool(), Some(false), "late request was admitted mid-drain");
    assert_eq!(v["error"]["code"].as_str(), Some("shutting_down"), "refusal: {refused}");

    for t in in_flight {
        let reply = t.join().expect("in-flight client thread");
        let v: serde_json::Value = serde_json::from_str(&reply).expect("reply parses");
        assert_eq!(v["ok"].as_bool(), Some(true), "in-flight request dropped: {reply}");
        assert_eq!(v["sections"][0]["section"].as_str(), Some("centrality"));
    }
    let drained = shutdown.join().expect("shutdown client thread");
    assert!(drained.contains("\"drained\":true"), "shutdown reply: {drained}");

    // The no-poll assertion: the drain slept on the executor's quiescence
    // condvar, which workers signal only when nothing is queued or
    // running. The old 5 ms sleep loop would have iterated once per 5 ms
    // of remaining work; the condvar takes at most a handful of wakeups
    // no matter how long the four serialized jobs run.
    let wakeups = counter(&handle, "serve.drain_wakeups");
    assert!(
        wakeups <= 16,
        "drain_wakeups={wakeups}: a 5 ms poll over this load would take dozens of iterations"
    );
    let manifest = handle.obs_handle().manifest("serve", 0);
    let drain_hist = manifest
        .histograms
        .get("serve.drain_wall_micros")
        .expect("drain duration histogram recorded");
    assert_eq!(drain_hist.count, 1);

    handle.join();
    assert!(TcpStream::connect(addr).is_err(), "server still accepting after drain");
}
