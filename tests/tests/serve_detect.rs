//! Loopback battery for the `detect` serve surface: adversarial
//! registration (`sybil:true` plants the calibrated workload and rides
//! its campaigns on the churn timeline), the v1 `detect` command's
//! envelope, day-awareness via `as_of`, reply-byte determinism (the
//! detect cache must replay the exact bytes a cold run produced), the
//! detect cache's shard-labelled hit/miss counters, and the structured
//! errors for snapshots without a planted workload.

use vnet_integration_tests::LineClient;
use vnet_serve::{Server, ServerConfig};
use vnet_synth::SybilConfig;

fn json(reply: &str) -> serde_json::Value {
    serde_json::from_str(reply).expect("reply parses as JSON")
}

fn error_code(reply: &str) -> String {
    json(reply)["error"]["code"].as_str().unwrap_or("").to_string()
}

/// Array length by indexing (the vendored `serde_json` subset has no
/// `as_array`).
fn arr_len(v: &serde_json::Value) -> usize {
    let mut i = 0;
    while !v[i].is_null() {
        i += 1;
    }
    i
}

/// Churn horizon covering every default campaign plus calm tail days
/// (mirrors the library battery in `sybil_detection.rs`).
fn horizon() -> u32 {
    let cfg = SybilConfig::default();
    cfg.burst_day + (cfg.bursts - 1) * cfg.burst_stride + cfg.burst_span + 2
}

#[test]
fn detect_round_trip_day_awareness_and_errors() {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    let mut c = LineClient::connect(handle.local_addr());
    let days = horizon();
    let planted = SybilConfig::default().planted_count();

    // Adversarial registration: the reply reports the planted count.
    let reg = c.req(&format!(
        r#"{{"v":1,"cmd":"register","name":"adv","scale":"small","churn_days":{days},"churn_seed":23,"sybil":true}}"#
    ));
    let reg_v = json(&reg);
    assert_eq!(reg_v["ok"].as_bool(), Some(true), "register failed: {reg}");
    assert_eq!(reg_v["churn_days"].as_u64(), Some(days as u64));
    assert_eq!(reg_v["sybil_planted"].as_u64(), Some(planted as u64));

    // Full-horizon detection: default as_of is the last churn day.
    let detect = c.req(r#"{"v":1,"cmd":"detect","snapshot":"adv"}"#);
    let v = json(&detect);
    assert_eq!(v["ok"].as_bool(), Some(true), "detect failed: {detect}");
    assert_eq!(v["as_of"].as_u64(), Some(days as u64));
    assert_eq!(v["top_k"].as_u64(), Some(20));
    assert!(v["fingerprint"].as_u64().unwrap() != 0);
    let d = &v["detect"];
    assert_eq!(d["eval"]["planted"].as_u64(), Some(planted as u64));
    assert_eq!(arr_len(&d["top"]), 20);
    assert!(
        arr_len(&d["burst_days"]) > 0,
        "campaign days not detected over the wire: {detect}"
    );
    // The fused ranking actually separates the planted class on the
    // served dataset too (loose floor; the calibrated ≥0.9 recall floor
    // is pinned against the library battery's generator in
    // `sybil_detection.rs`).
    assert!(
        d["eval"]["auc"].as_f64().unwrap() > 0.8,
        "served detection barely better than chance: {detect}"
    );

    // Byte determinism: a repeat must replay the exact bytes (served
    // from the detect cache, but the contract is the bytes, not the
    // path).
    let again = c.req(r#"{"v":1,"cmd":"detect","snapshot":"adv"}"#);
    assert_eq!(detect, again, "detect reply bytes changed on repeat");

    // That miss and that hit are both counted under the shard's label,
    // so the shard's labelled hit ratio covers detect traffic.
    let metrics = json(&c.req(r#"{"v":1,"cmd":"metrics","snapshot":"adv"}"#));
    assert_eq!(metrics["counters"]["cache.misses{shard=adv}"].as_u64(), Some(1));
    assert_eq!(metrics["counters"]["cache.hits{shard=adv}"].as_u64(), Some(1));

    // Day-awareness: an early-day view is a different (cached-separately)
    // result with its own envelope day.
    let early = c.req(r#"{"v":1,"cmd":"detect","snapshot":"adv","as_of":2,"top_k":3}"#);
    let ev = json(&early);
    assert_eq!(ev["ok"].as_bool(), Some(true), "as_of detect failed: {early}");
    assert_eq!(ev["as_of"].as_u64(), Some(2));
    assert_eq!(arr_len(&ev["detect"]["top"]), 3);
    assert!(
        ev["fingerprint"].as_u64() != v["fingerprint"].as_u64(),
        "day-2 view cannot equal the full-horizon view"
    );

    // Structured errors: beyond the horizon, unknown snapshot, and a
    // snapshot registered without the planted workload.
    let beyond = c.req(&format!(
        r#"{{"v":1,"cmd":"detect","snapshot":"adv","as_of":{}}}"#,
        days + 1
    ));
    assert_eq!(error_code(&beyond), "invalid_input", "got: {beyond}");
    let unknown = c.req(r#"{"v":1,"cmd":"detect","snapshot":"nope"}"#);
    assert_eq!(error_code(&unknown), "unknown_snapshot", "got: {unknown}");
    let plain = c.req(r#"{"v":1,"cmd":"register","name":"plain","scale":"small","churn_days":3}"#);
    assert_eq!(json(&plain)["ok"].as_bool(), Some(true));
    assert!(!plain.contains("sybil_planted"), "plain register grew a sybil field: {plain}");
    let no_workload = c.req(r#"{"v":1,"cmd":"detect","snapshot":"plain"}"#);
    assert_eq!(error_code(&no_workload), "invalid_input", "got: {no_workload}");
    assert!(
        no_workload.contains("no sybil workload"),
        "error should say what is missing: {no_workload}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn elite_core_on_a_sybil_shard_is_refused_and_the_connection_lives_on() {
    // The planted accounts are graph nodes without profiles, and the
    // elite-core section reads one profile per node: the shard answers
    // `inconsistent` instead of panicking on its worker.
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    let mut c = LineClient::connect(handle.local_addr());
    let reg = c.req(
        r#"{"v":1,"cmd":"register","name":"adv","scale":"small","churn_days":3,"sybil":true}"#,
    );
    assert_eq!(json(&reg)["ok"].as_bool(), Some(true), "register failed: {reg}");

    let refused = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"adv","sections":["elite_core"]}"#);
    assert_eq!(error_code(&refused), "inconsistent", "got: {refused}");
    assert!(refused.contains("elite_core"), "error should name the section: {refused}");

    let next = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"adv","sections":["reciprocity"]}"#);
    assert_eq!(json(&next)["ok"].as_bool(), Some(true), "next request failed: {next}");

    handle.shutdown();
    handle.join();
}
