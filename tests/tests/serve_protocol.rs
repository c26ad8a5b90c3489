//! Loopback battery for the `vnet-serve` wire protocol: register/analyze
//! round-trips, cache-hit byte-identity (the acceptance criterion of the
//! service design — a cached reply must be bit-identical to a cold
//! computation, proven by the `cache.hits`/`cache.misses` counters),
//! malformed-request and backpressure replies, per-request timeouts, and
//! graceful-shutdown draining.

use std::net::TcpStream;
use std::sync::OnceLock;
use verified_net::{AnalysisCtx, Dataset, SynthesisConfig};
use vnet_integration_tests::LineClient;
use vnet_serve::{Server, ServerConfig};

/// One small dataset shared by every test in this file (synthesis is the
/// expensive part; registration clones are cheap by comparison).
fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet()))
}

fn start(config: ServerConfig) -> vnet_serve::ServerHandle {
    Server::start(config).expect("bind loopback server")
}

fn counter(metrics_reply: &str, name: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(metrics_reply).expect("metrics parse");
    v["counters"][name].as_u64().unwrap_or(0)
}

#[test]
fn register_analyze_and_cache_hit_round_trip() {
    let handle = start(ServerConfig::default());
    let fp = handle.register_dataset("snap", dataset().clone());
    let mut c = LineClient::connect(handle.local_addr());

    // Status sees the snapshot.
    let status = c.req(r#"{"v":1,"cmd":"status"}"#);
    let v: serde_json::Value = serde_json::from_str(&status).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true));
    assert_eq!(v["snapshots"][0].as_str(), Some("snap"));

    let analyze =
        r#"{"v":1,"cmd":"analyze","snapshot":"snap","sections":["reciprocity","separation"],"options":{"seed":99}}"#;
    let cold = c.req(analyze);
    let v: serde_json::Value = serde_json::from_str(&cold).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true));
    assert_eq!(v["dataset_fingerprint"].as_u64(), Some(fp));
    assert_eq!(v["sections"][0]["section"].as_str(), Some("reciprocity"));
    assert!(v["sections"][1]["payload"]["mean"].as_f64().unwrap() > 0.0);

    // The repeat query is served from cache and must be BYTE-identical.
    let warm = c.req(analyze);
    assert_eq!(cold, warm, "cached reply diverged from cold computation");

    // A different thread count is the same cache key: options fingerprints
    // exclude `threads` because results are thread-count invariant.
    let threaded = c.req(
        r#"{"v":1,"cmd":"analyze","snapshot":"snap","sections":["reciprocity","separation"],"options":{"seed":99,"threads":4}}"#,
    );
    assert_eq!(cold, threaded, "thread count leaked into the reply");

    // Counters prove the cache did the work: 2 cold misses, then 4 hits.
    let metrics = c.req(r#"{"v":1,"cmd":"metrics"}"#);
    assert_eq!(counter(&metrics, "cache.misses"), 2, "metrics: {metrics}");
    assert_eq!(counter(&metrics, "cache.hits"), 4, "metrics: {metrics}");
    assert_eq!(counter(&metrics, "cache.entries"), 2, "metrics: {metrics}");

    handle.shutdown();
    handle.join();
}

#[test]
fn register_over_the_wire_from_a_saved_bundle() {
    let dir = std::env::temp_dir().join(format!("vnet_serve_bundle_{}", std::process::id()));
    verified_net::save_dataset(dataset(), &dir).expect("save bundle");

    let handle = start(ServerConfig::default());
    let mut c = LineClient::connect(handle.local_addr());
    let reply = c.req(&format!(
        r#"{{"v":1,"cmd":"register","name":"wire","dir":{}}}"#,
        serde_json::to_string(&dir.display().to_string()).unwrap()
    ));
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true), "register failed: {reply}");
    // A loaded bundle is content-identical to its source dataset.
    assert_eq!(v["fingerprint"].as_u64(), Some(dataset().fingerprint()));
    assert_eq!(v["users"].as_u64(), Some(dataset().summary().users as u64));

    let analyzed = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"wire","sections":["basic"]}"#);
    let v: serde_json::Value = serde_json::from_str(&analyzed).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true));
    assert!(v["sections"][0]["payload"]["users"].as_u64().unwrap() > 2_000);

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_replies_match_across_independent_servers() {
    // Two fresh servers, no shared cache: the reply is a pure function of
    // (dataset, options, sections), so both cold computations agree.
    let analyze = r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["basic"],"options":{"seed":5}}"#;
    let replies: Vec<String> = (0..2)
        .map(|_| {
            let handle = start(ServerConfig::default());
            handle.register_dataset("s", dataset().clone());
            let mut c = LineClient::connect(handle.local_addr());
            let reply = c.req(analyze);
            handle.shutdown();
            handle.join();
            reply
        })
        .collect();
    assert_eq!(replies[0], replies[1], "independent cold computations diverged");
}

#[test]
fn malformed_requests_get_structured_errors() {
    let handle = start(ServerConfig::default());
    let mut c = LineClient::connect(handle.local_addr());
    for (line, code) in [
        ("this is not json", "bad_request"),
        (r#"{"v":1,"cmd":"dance"}"#, "bad_request"),
        (r#"{"v":1,"cmd":"register","name":"x"}"#, "bad_request"),
        (r#"{"v":1,"cmd":"analyze","snapshot":"x","sections":["nope"]}"#, "unknown_section"),
        (r#"{"v":1,"cmd":"analyze","snapshot":"ghost","sections":["basic"]}"#, "unknown_snapshot"),
    ] {
        let reply = c.req(line);
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false), "line {line} gave {reply}");
        assert_eq!(v["error"]["code"].as_str(), Some(code), "line {line} gave {reply}");
        assert!(!v["error"]["message"].as_str().unwrap_or("").is_empty());
    }
    // The connection survives every error: a good request still works.
    let status = c.req(r#"{"v":1,"cmd":"status"}"#);
    assert!(status.contains("\"ok\":true"));
    handle.shutdown();
    handle.join();
}

#[test]
fn queue_full_backpressure_reply() {
    // max_in_flight = 0: every analyze is refused with a structured
    // queue_full error instead of queueing unboundedly.
    let config = ServerConfig { max_in_flight: 0, ..ServerConfig::default() };
    let handle = start(config);
    handle.register_dataset("s", dataset().clone());
    let mut c = LineClient::connect(handle.local_addr());
    let reply = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["basic"]}"#);
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(false));
    assert_eq!(v["error"]["code"].as_str(), Some("queue_full"));
    handle.shutdown();
    handle.join();
}

#[test]
fn per_request_timeout_reply() {
    // A 1 ms budget cannot cover a centrality run: the client gets a
    // structured timeout while the worker finishes in the background
    // (shutdown below still drains it).
    let config = ServerConfig { request_timeout_millis: 1, ..ServerConfig::default() };
    let handle = start(config);
    handle.register_dataset("s", dataset().clone());
    let mut c = LineClient::connect(handle.local_addr());
    let reply = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["centrality"]}"#);
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(false));
    assert_eq!(v["error"]["code"].as_str(), Some("timeout"));
    handle.shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let handle = start(ServerConfig::default());
    handle.register_dataset("s", dataset().clone());
    let addr = handle.local_addr();

    // Client A starts a slow analyze; client B asks for shutdown while A
    // is still in flight. A must still get its full reply.
    let worker = std::thread::spawn(move || {
        let mut a = LineClient::connect(addr);
        a.req(r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["centrality"],"options":{"seed":3}}"#)
    });
    // Give A a moment to be admitted before requesting shutdown.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut b = LineClient::connect(addr);
    let shutdown_reply = b.req(r#"{"v":1,"cmd":"shutdown"}"#);
    let v: serde_json::Value = serde_json::from_str(&shutdown_reply).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true));
    assert_eq!(v["drained"].as_bool(), Some(true));

    let a_reply = worker.join().expect("client A thread");
    let v: serde_json::Value = serde_json::from_str(&a_reply).unwrap();
    assert_eq!(
        v["ok"].as_bool(),
        Some(true),
        "in-flight request was dropped by shutdown: {a_reply}"
    );
    assert_eq!(v["sections"][0]["section"].as_str(), Some("centrality"));

    handle.join();

    // After shutdown, the listener is gone: new connections fail.
    assert!(TcpStream::connect(addr).is_err(), "server still accepting after shutdown");
}
