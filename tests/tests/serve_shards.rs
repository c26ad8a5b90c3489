//! Shard-isolation battery: one hot snapshot must not starve another,
//! and shard-targeted `status`/`metrics` replies are golden.
//!
//! Every registered snapshot owns its own bounded-queue executor, LRU
//! cache, and single-flight map (`crates/serve/src/shards.rs`). The
//! saturation test drives one shard's queue to capacity with slow
//! centrality jobs and proves — via shard-targeted `status` and a live
//! `analyze` — that a second snapshot keeps being admitted and served.
//! The golden tests pin the exact reply bytes for shard-targeted `status`
//! on a quiescent shard and shard-filtered `metrics` after a known
//! request history, across independent servers.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use verified_net::{AnalysisCtx, Dataset, SynthesisConfig};
use vnet_integration_tests::LineClient;
use vnet_serve::{Server, ServerConfig, ServerHandle};

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet()))
}

/// A slow request: 2048-pivot betweenness holds a worker for roughly half
/// a second in a release build on a 2-core Xeon host (a few seconds in
/// debug), long enough for the 10 ms status poll to see the shard full. A
/// few dozen pivots finish in tens of milliseconds in release and race the
/// poll.
fn slow_analyze(snapshot: &str, seed: u64) -> String {
    format!(
        "{{\"v\":1,\"cmd\":\"analyze\",\"snapshot\":\"{snapshot}\",\"sections\":[\"centrality\"],\"options\":{{\"seed\":{seed},\"betweenness_pivots\":2048}}}}"
    )
}

/// Poll shard-targeted status until `(queued, running)` matches.
fn wait_for_occupancy(c: &mut LineClient, snapshot: &str, queued: u64, running: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = c.req(&format!("{{\"v\":1,\"cmd\":\"status\",\"snapshot\":\"{snapshot}\"}}"));
        let v: serde_json::Value = serde_json::from_str(&status).expect("status parse");
        if v["shard"]["queued"].as_u64() == Some(queued)
            && v["shard"]["running"].as_u64() == Some(running)
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "shard {snapshot} never reached queued={queued} running={running}: {status}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn saturated_hot_shard_does_not_starve_the_cold_shard() {
    // One worker, one queue slot per shard: two slow jobs saturate "hot".
    let handle = Server::start(ServerConfig {
        max_in_flight: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    handle.register_dataset("hot", dataset().clone());
    handle.register_dataset("cold", dataset().clone());
    let addr = handle.local_addr();

    let slow_clients: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = LineClient::connect(addr);
                c.req(&slow_analyze("hot", 500 + i))
            })
        })
        .collect();
    let mut c = LineClient::connect(addr);
    wait_for_occupancy(&mut c, "hot", 1, 1);

    // The hot shard is full: a third request is refused with queue_full …
    let refused = c.req(&slow_analyze("hot", 502));
    let v: serde_json::Value = serde_json::from_str(&refused).expect("refusal parse");
    assert_eq!(v["error"]["code"].as_str(), Some("queue_full"), "hot shard: {refused}");

    // … while the cold shard, saturated-neighbour notwithstanding, admits
    // and serves: this is the isolation property the registry exists for.
    let served = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"cold","sections":["basic"]}"#);
    let v: serde_json::Value = serde_json::from_str(&served).expect("cold parse");
    assert_eq!(v["ok"].as_bool(), Some(true), "cold shard starved: {served}");
    assert_eq!(v["snapshot"].as_str(), Some("cold"));

    // Global status sees both shards and the hot backlog.
    let status = c.req(r#"{"v":1,"cmd":"status"}"#);
    let v: serde_json::Value = serde_json::from_str(&status).expect("status parse");
    assert_eq!(v["snapshots"][0].as_str(), Some("cold"));
    assert_eq!(v["snapshots"][1].as_str(), Some("hot"));
    assert_eq!(v["shards"][0]["snapshot"].as_str(), Some("cold"));

    // The hot shard's metrics carry its refusal under its own label.
    let metrics = c.req(r#"{"v":1,"cmd":"metrics","snapshot":"hot"}"#);
    let v: serde_json::Value = serde_json::from_str(&metrics).expect("metrics parse");
    assert_eq!(
        v["counters"]["serve.rejected{reason=queue_full,shard=hot}"].as_u64(),
        Some(1),
        "metrics: {metrics}"
    );

    for t in slow_clients {
        let reply = t.join().expect("slow client");
        let v: serde_json::Value = serde_json::from_str(&reply).expect("slow reply parse");
        assert_eq!(v["ok"].as_bool(), Some(true), "slow request failed: {reply}");
    }
    handle.shutdown();
    handle.join();
}

fn quiescent_server() -> ServerHandle {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    handle.register_dataset("snap", dataset().clone());
    handle
}

#[test]
fn shard_targeted_status_is_golden() {
    let expected = format!(
        "{{\"ok\":true,\"shard\":{{\"snapshot\":\"snap\",\"fingerprint\":{},\"workers\":4,\"queued\":0,\"running\":0,\"open_flights\":0,\"cache_entries\":0}},\"shutting_down\":false}}",
        dataset().fingerprint(),
    );
    // Byte-identical across independent servers: the reply is a pure
    // function of the registered dataset and the (quiescent) shard state.
    for _ in 0..2 {
        let handle = quiescent_server();
        let mut c = LineClient::connect(handle.local_addr());
        assert_eq!(c.req(r#"{"v":1,"cmd":"status","snapshot":"snap"}"#), expected);
        let unknown = c.req(r#"{"v":1,"cmd":"status","snapshot":"ghost"}"#);
        let v: serde_json::Value = serde_json::from_str(&unknown).expect("unknown parse");
        assert_eq!(v["error"]["code"].as_str(), Some("unknown_snapshot"));
        handle.shutdown();
        handle.join();
    }
}

#[test]
fn shard_filtered_metrics_are_golden_after_one_analyze() {
    // Two shards, one request to "a": the shard-filtered metrics view
    // must contain exactly a's labelled series — counters for its one
    // miss and gauges for its settled executor — and nothing of "b".
    let expected = "{\"ok\":true,\"counters\":{\"cache.entries{shard=a}\":1,\"cache.misses{shard=a}\":1,\"serve.requests{shard=a}\":1},\"gauges\":{\"serve.jobs_running{shard=a}\":0.0,\"serve.queue_depth{shard=a}\":0.0}}";
    let run = || {
        let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
        handle.register_dataset("a", dataset().clone());
        handle.register_dataset("b", dataset().clone());
        let mut c = LineClient::connect(handle.local_addr());
        let served = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"options":{"seed":3}}"#);
        assert!(served.starts_with("{\"ok\":true"), "analyze failed: {served}");
        // The worker publishes its reply before settling the running
        // gauge back to zero; poll briefly for the settled snapshot.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let metrics = c.req(r#"{"v":1,"cmd":"metrics","snapshot":"a"}"#);
            if metrics == expected {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "shard-filtered metrics never reached the golden bytes:\n  want {expected}\n  got  {metrics}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Shard b saw no traffic: its filtered view is empty.
        let b = c.req(r#"{"v":1,"cmd":"metrics","snapshot":"b"}"#);
        assert_eq!(b, "{\"ok\":true,\"counters\":{},\"gauges\":{}}", "b leaked series: {b}");
        let unknown = c.req(r#"{"v":1,"cmd":"metrics","snapshot":"ghost"}"#);
        let v: serde_json::Value = serde_json::from_str(&unknown).expect("unknown parse");
        assert_eq!(v["error"]["code"].as_str(), Some("unknown_snapshot"));
        handle.shutdown();
        handle.join();
    };
    // Deterministic across independent servers.
    run();
    run();
}
