//! Admission-control property and golden-frame battery.
//!
//! Serve admission charges `twittersim`'s [`RateWindow`] per client: a
//! fixed window anchored at the first charged call, lazy reset at
//! `now >= window_start + window_len`, rejections that consume no quota,
//! and a retry hint of `window_start + window_len - now`. The property
//! test here checks that rejections never consume quota; the golden tests
//! then pin the wire artifact: the exact `rate_limited` reply bytes, with
//! `retry_after_ms` made deterministic by the server's manual admission
//! clock.

use std::sync::OnceLock;

use proptest::prelude::*;
use verified_net::{AnalysisCtx, Dataset, SynthesisConfig};
use vnet_integration_tests::LineClient;
use vnet_serve::{AdmissionClock, AdmissionPolicy, Server, ServerConfig};
use vnet_twittersim::RateWindow;

/// One small dataset shared by the golden wire tests.
fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rejections never consume quota: however many over-quota calls land
    /// inside one window, the next window admits exactly `quota` again.
    #[test]
    fn rejections_consume_no_quota(
        quota in 1u32..5,
        burst in 1usize..40,
    ) {
        let window = 100u64;
        let mut w = RateWindow::begin(0);
        for _ in 0..quota {
            prop_assert_eq!(w.charge(0, quota, window), Ok(()));
        }
        for _ in 0..burst {
            prop_assert_eq!(w.charge(0, quota, window), Err(window));
        }
        // The whole burst was turned away without touching the bucket.
        prop_assert_eq!(w.used(), quota);
        for _ in 0..quota {
            prop_assert_eq!(w.charge(window, quota, window), Ok(()));
        }
    }
}

/// Run the golden request sequence against a freshly started server with
/// a manual admission clock: admit one, reject at t=0, reject at t=300,
/// admit at the window boundary. Returns the two rejection frames.
fn golden_sequence() -> (String, String) {
    let clock = AdmissionClock::manual();
    let handle = Server::start(ServerConfig {
        admission: Some(AdmissionPolicy { requests: 1, window_millis: 1_000 }),
        admission_clock: clock.clone(),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    handle.register_dataset("snap", dataset().clone());
    let mut c = LineClient::connect(handle.local_addr());
    let analyze = r#"{"v":1,"cmd":"analyze","snapshot":"snap","sections":["basic"],"client":"tenant-1"}"#;

    let first = c.req(analyze);
    assert!(first.starts_with("{\"ok\":true"), "first request must be admitted: {first}");

    let rejected_full = c.req(analyze);
    clock.advance(300);
    let rejected_mid = c.req(analyze);

    // Another identity has its own bucket: still admitted mid-window.
    let other = c.req(
        r#"{"v":1,"cmd":"analyze","snapshot":"snap","sections":["basic"],"client":"tenant-2"}"#,
    );
    assert!(other.starts_with("{\"ok\":true"), "other client must be admitted: {other}");

    // At exactly window_start + window the bucket reopens.
    clock.advance(700);
    let reopened = c.req(analyze);
    assert!(reopened.starts_with("{\"ok\":true"), "window must reopen: {reopened}");

    handle.shutdown();
    handle.join();
    (rejected_full, rejected_mid)
}

#[test]
fn rate_limited_wire_frames_are_golden() {
    let (rejected_full, rejected_mid) = golden_sequence();
    // Byte-exact frames: the manual clock makes retry_after_ms a pure
    // function of the request sequence.
    assert_eq!(
        rejected_full,
        "{\"ok\":false,\"error\":{\"code\":\"rate_limited\",\"message\":\"rate limited; retry after 1000 ms\",\"retry_after_ms\":1000}}"
    );
    assert_eq!(
        rejected_mid,
        "{\"ok\":false,\"error\":{\"code\":\"rate_limited\",\"message\":\"rate limited; retry after 700 ms\",\"retry_after_ms\":700}}"
    );
}

#[test]
fn golden_sequence_is_deterministic_across_servers() {
    // Two independent servers, same manual-clock schedule: identical
    // rejection bytes — the contract that lets clients test their backoff
    // logic against recorded frames.
    assert_eq!(golden_sequence(), golden_sequence());
}

#[test]
fn admission_metrics_account_for_every_analyze() {
    let clock = AdmissionClock::manual();
    let handle = Server::start(ServerConfig {
        admission: Some(AdmissionPolicy { requests: 2, window_millis: 500 }),
        admission_clock: clock,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    handle.register_dataset("snap", dataset().clone());
    let mut c = LineClient::connect(handle.local_addr());
    let analyze = r#"{"v":1,"cmd":"analyze","snapshot":"snap","sections":["basic"],"client":"t"}"#;
    for _ in 0..5 {
        c.req(analyze);
    }
    let metrics = c.req(r#"{"v":1,"cmd":"metrics"}"#);
    let v: serde_json::Value = serde_json::from_str(&metrics).expect("metrics parse");
    assert_eq!(v["counters"]["serve.admitted"].as_u64(), Some(2), "metrics: {metrics}");
    assert_eq!(
        v["counters"]["serve.rejected{reason=rate_limited}"].as_u64(),
        Some(3),
        "metrics: {metrics}"
    );
    // The status report exposes how many admission buckets exist.
    let status = c.req(r#"{"v":1,"cmd":"status"}"#);
    let v: serde_json::Value = serde_json::from_str(&status).expect("status parse");
    assert_eq!(v["admission_clients"].as_u64(), Some(1), "status: {status}");
    handle.shutdown();
    handle.join();
}
