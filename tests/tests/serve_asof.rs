//! Loopback battery for the v1 wire envelope and the time-travel
//! (`as_of`) serve path: strict unknown-key rejection, the rejection of
//! unversioned lines, end-to-end `as_of` replies checked against an
//! out-of-process churn oracle (zero divergence over a mini-soak), the
//! delta-aware cache's `serve.asof_cache_hits` accounting, and the
//! canonicalized-cache-key regression (key order, whitespace, and
//! explicitly spelled defaults never cause a spurious miss).

use std::sync::OnceLock;
use verified_net::{AnalysisCtx, Dataset, SynthesisConfig};
use vnet_integration_tests::LineClient;
use vnet_serve::{Server, ServerConfig};
use vnet_synth::{ChurnConfig, ChurnStream};

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet()))
}

fn start() -> vnet_serve::ServerHandle {
    Server::start(ServerConfig::default()).expect("bind loopback server")
}

fn json(reply: &str) -> serde_json::Value {
    serde_json::from_str(reply).expect("reply parses as JSON")
}

fn counter(metrics_reply: &str, name: &str) -> u64 {
    json(metrics_reply)["counters"][name].as_u64().unwrap_or(0)
}

fn error_code(reply: &str) -> String {
    json(reply)["error"]["code"].as_str().unwrap_or("").to_string()
}

#[test]
fn unversioned_lines_are_rejected_like_unsupported_versions() {
    let handle = start();
    handle.register_dataset("snap", dataset().clone());
    let mut c = LineClient::connect(handle.local_addr());

    // A line without `"v"` gets exactly the unsupported-version reply,
    // and that reply names the v1 envelope.
    let unversioned = c.req(r#"{"cmd":"status"}"#);
    assert_eq!(error_code(&unversioned), "invalid_input", "reply: {unversioned}");
    let message = json(&unversioned)["error"]["message"].as_str().unwrap_or("").to_string();
    assert!(message.contains(r#"{"v":1,"cmd":...}"#), "reply: {unversioned}");
    assert_eq!(unversioned, c.req(r#"{"v":2,"cmd":"status"}"#));

    // Rejected before routing: an unknown snapshot is not even looked up.
    let err = c.req(r#"{"cmd":"analyze","snapshot":"ghost","sections":["basic"]}"#);
    assert_eq!(err, unversioned);

    // The same request under v1 is served.
    let v1 = c.req(r#"{"v":1,"cmd":"status"}"#);
    assert_eq!(json(&v1)["ok"].as_bool(), Some(true), "reply: {v1}");

    let metrics = c.req(r#"{"v":1,"cmd":"metrics"}"#);
    assert_eq!(counter(&metrics, "serve.bad_requests"), 3, "metrics: {metrics}");

    handle.shutdown();
    handle.join();
}

#[test]
fn v1_rejects_unknown_keys_and_versions_with_invalid_input() {
    let handle = start();
    handle.register_dataset("snap", dataset().clone());
    let mut c = LineClient::connect(handle.local_addr());

    // Misspelled option under v1: structured invalid_input, not a silent
    // fall-back to the default knob.
    let reply = c.req(
        r#"{"v":1,"cmd":"analyze","snapshot":"snap","sections":["basic"],"options":{"boostrap_reps":4}}"#,
    );
    assert_eq!(error_code(&reply), "invalid_input", "reply: {reply}");
    assert!(reply.contains("boostrap_reps"), "message must name the bad key: {reply}");

    // Unknown top-level key.
    let reply = c.req(r#"{"v":1,"cmd":"status","snapshit":"snap"}"#);
    assert_eq!(error_code(&reply), "invalid_input", "reply: {reply}");

    // Unsupported version.
    let reply = c.req(r#"{"v":2,"cmd":"status"}"#);
    assert_eq!(error_code(&reply), "invalid_input", "reply: {reply}");

    // Dropping the envelope is no way around the strict key check.
    let reply =
        c.req(r#"{"cmd":"analyze","snapshot":"snap","sections":["basic"],"options":{"boostrap_reps":4}}"#);
    assert_eq!(error_code(&reply), "invalid_input", "reply: {reply}");

    handle.shutdown();
    handle.join();
}

/// The churn oracle: day-`d` dataset fingerprints computed out of
/// process, from the same base dataset and churn parameters the server
/// uses, via a plain `ChurnStream` replay (no timeline, no checkpoints).
fn oracle_fingerprints(seed: u64, days: u32) -> Vec<u64> {
    let base = dataset();
    let mut stream =
        ChurnStream::from_graph(&base.graph, ChurnConfig { seed, ..ChurnConfig::default() });
    let mut fps = Vec::with_capacity(days as usize + 1);
    fps.push(base.fingerprint());
    for _ in 0..days {
        stream.next_day();
        let day_ds = Dataset { graph: stream.snapshot_graph(), ..base.clone() };
        fps.push(day_ds.fingerprint());
    }
    fps
}

#[test]
fn as_of_time_travel_matches_the_churn_oracle_with_zero_divergence() {
    let handle = start();
    let mut c = LineClient::connect(handle.local_addr());

    // Register over the wire with churn knobs; scale "small" builds the
    // same dataset as the local oracle's `Dataset::build`.
    let reply =
        c.req(r#"{"v":1,"cmd":"register","name":"t","scale":"small","churn_days":6,"churn_seed":9}"#);
    let v = json(&reply);
    assert_eq!(v["ok"].as_bool(), Some(true), "register failed: {reply}");
    assert_eq!(v["churn_days"].as_u64(), Some(6), "reply: {reply}");
    let base_fp = v["fingerprint"].as_u64().expect("fingerprint");
    let oracle = oracle_fingerprints(9, 6);
    assert_eq!(base_fp, oracle[0], "server base dataset diverged from the oracle");

    // Mini-soak: two passes over interleaved days. Every reply's
    // dataset fingerprint must match the oracle — zero divergences.
    let mut divergences = 0;
    for pass in 0..2 {
        for day in [1u32, 3, 5, 6, 2] {
            let reply = c.req(&format!(
                r#"{{"v":1,"cmd":"analyze","snapshot":"t","sections":["basic"],"as_of":{day}}}"#
            ));
            let v = json(&reply);
            assert_eq!(v["ok"].as_bool(), Some(true), "pass {pass} day {day}: {reply}");
            assert_eq!(v["as_of"].as_u64(), Some(day as u64), "reply: {reply}");
            if v["dataset_fingerprint"].as_u64() != Some(oracle[day as usize]) {
                divergences += 1;
            }
        }
    }
    assert_eq!(divergences, 0, "as_of replies diverged from the churn oracle");

    // Second pass repeated every key: the section cache absorbed it.
    let metrics = c.req(r#"{"v":1,"cmd":"metrics"}"#);
    assert!(
        counter(&metrics, "serve.asof_cache_hits") >= 5,
        "expected as_of cache hits, metrics: {metrics}"
    );
    let materializations = counter(&metrics, "serve.asof_materializations");
    assert!(
        (1..=10).contains(&materializations),
        "day materializations unbounded or absent: {metrics}"
    );

    // Status exposes the temporal block for churn-registered shards.
    let status = c.req(r#"{"v":1,"cmd":"status","snapshot":"t"}"#);
    assert!(status.contains("\"temporal\":{\"days\":6"), "status lost temporal: {status}");

    // Beyond the indexed horizon and on a churn-less snapshot: refused.
    let reply = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"t","sections":["basic"],"as_of":7}"#);
    assert_eq!(error_code(&reply), "invalid_input", "reply: {reply}");
    handle.register_dataset("plain", dataset().clone());
    let reply =
        c.req(r#"{"v":1,"cmd":"analyze","snapshot":"plain","sections":["basic"],"as_of":1}"#);
    assert_eq!(error_code(&reply), "invalid_input", "reply: {reply}");

    handle.shutdown();
    handle.join();
}

#[test]
fn equivalent_requests_share_one_cache_entry_regardless_of_spelling() {
    let handle = start();
    handle.register_dataset("s", dataset().clone());
    let mut c = LineClient::connect(handle.local_addr());

    // One semantic request, four spellings: canonical order, shuffled key
    // order, whitespace, and the default options preset spelled out.
    let spellings = [
        r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["basic"],"options":{"seed":5}}"#,
        r#"{"options":{"seed":5},"sections":["basic"],"snapshot":"s","cmd":"analyze","v":1}"#,
        r#"  {"v": 1, "cmd": "analyze", "snapshot": "s", "sections": ["basic"], "options": {"seed": 5}}  "#,
        r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["basic"],"options":{"preset":"quick","seed":5}}"#,
    ];
    let mut sections = Vec::new();
    for line in spellings {
        let v = json(&c.req(line));
        assert_eq!(v["ok"].as_bool(), Some(true), "request failed: {line}");
        sections.push(serde_json::to_string(&v["sections"]).unwrap());
    }
    assert!(
        sections.windows(2).all(|w| w[0] == w[1]),
        "equivalent spellings produced different section payloads"
    );

    // The cache proves canonicalization: one miss, three hits.
    let metrics = c.req(r#"{"v":1,"cmd":"metrics"}"#);
    assert_eq!(counter(&metrics, "cache.misses"), 1, "metrics: {metrics}");
    assert_eq!(counter(&metrics, "cache.hits"), 3, "metrics: {metrics}");

    handle.shutdown();
    handle.join();
}
