//! Metrics-store battery: snapshot determinism across thread counts, the
//! Prometheus wire exposition, the `watch` delta stream, and PELT
//! self-monitoring.
//!
//! The store's contract (see the `vnet_obs::telemetry` docs) is that the
//! thread-to-stripe interleaving, and whether a write came by name or
//! through an interned handle, are invisible in a snapshot: counters and
//! histogram cells are integer sums, so any partition of the same writes
//! over any number of recording threads sums to byte-identical
//! snapshots. The proptest here sweeps 1/2/4/7 recorder threads over
//! generated mixes of by-name and by-handle writes through one `Obs` and
//! demands bit equality of the rendered exposition. The wire tests pin
//! the `metrics?format=prom` body bytes for a quiescent seeded server,
//! stream a `watch` session end to end, and replay a synthetic
//! queue-depth regime shift through the self-monitor's injection hook to
//! prove the PELT detector flags it in `status`.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use verified_net::{AnalysisCtx, Dataset, SynthesisConfig};
use vnet_integration_tests::LineClient;
use vnet_obs::{pow2_buckets, render_prometheus, Obs};
use vnet_serve::{AdmissionPolicy, MonitorSample, SelfMonitorConfig, Server, ServerConfig};

/// The thread counts every snapshot compares: serial, even splits, and a
/// prime that never divides the op counts evenly.
const SWEEP: [usize; 4] = [1, 2, 4, 7];

/// One generated recording op, written by name through the `Obs` or
/// through the interned handle of the same key. Gauge values are a
/// function of the key alone: a gauge is a last-write-wins slot, so only
/// workloads where every write to a key carries the same value have a
/// thread-order-free final state — counters and histograms carry the
/// associativity burden.
#[derive(Debug, Clone, Copy)]
enum TelemetryOp {
    Add { key: usize, by: u64, by_name: bool },
    SetGauge { key: usize, by_name: bool },
    Observe { key: usize, value: u64, by_name: bool },
}

fn op_strategy() -> impl Strategy<Value = TelemetryOp> {
    prop_oneof![
        (0usize..4, 0u64..1_000, 0u8..2)
            .prop_map(|(key, by, w)| TelemetryOp::Add { key, by, by_name: w == 1 }),
        (0usize..3, 0u8..2).prop_map(|(key, w)| TelemetryOp::SetGauge { key, by_name: w == 1 }),
        (0usize..3, 0u64..10_000_000, 0u8..2)
            .prop_map(|(key, value, w)| TelemetryOp::Observe { key, value, by_name: w == 1 }),
    ]
}

/// Apply `ops` through one `Obs` over `threads` recorder threads
/// (round-robin partition) and return its snapshot rendered as
/// Prometheus text — one canonical byte string covering counters,
/// gauges, and every histogram cell.
fn record_and_render(ops: &[TelemetryOp], threads: usize) -> String {
    let obs = Obs::new();
    let store = obs.telemetry();
    let counters: Vec<_> = (0..4)
        .map(|i| store.counter("t.counter", &[("k", &format!("c{i}"))]))
        .collect();
    let gauges: Vec<_> =
        (0..3).map(|i| store.gauge("t.gauge", &[("k", &format!("g{i}"))])).collect();
    let histograms: Vec<_> = (0..3)
        .map(|i| store.histogram("t.hist", &[("k", &format!("h{i}"))], &pow2_buckets(20)))
        .collect();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (obs, counters, gauges, histograms) = (&obs, &counters, &gauges, &histograms);
            scope.spawn(move || {
                for &op in ops.iter().skip(t).step_by(threads) {
                    match op {
                        TelemetryOp::Add { key, by, by_name: true } => {
                            obs.inc_by("t.counter", &[("k", &format!("c{key}"))], by);
                        }
                        TelemetryOp::Add { key, by, by_name: false } => counters[key].add(by),
                        TelemetryOp::SetGauge { key, by_name: true } => {
                            let value = 10.0 + key as f64;
                            obs.set_gauge("t.gauge", &[("k", &format!("g{key}"))], value);
                        }
                        TelemetryOp::SetGauge { key, by_name: false } => {
                            gauges[key].set(10.0 + key as f64)
                        }
                        TelemetryOp::Observe { key, value, by_name: true } => {
                            obs.observe("t.hist", &[("k", &format!("h{key}"))], value);
                        }
                        TelemetryOp::Observe { key, value, by_name: false } => {
                            histograms[key].observe(value)
                        }
                    }
                }
            });
        }
    });
    render_prometheus(&obs.metrics())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any partition of the same writes, by name and by handle, over
    /// 1/2/4/7 recorder threads sums to byte-identical snapshots.
    #[test]
    fn merged_snapshots_are_thread_count_invariant(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let reference = record_and_render(&ops, SWEEP[0]);
        prop_assert!(!reference.is_empty(), "workload rendered an empty exposition");
        for &threads in &SWEEP[1..] {
            let rendered = record_and_render(&ops, threads);
            prop_assert_eq!(
                &rendered,
                &reference,
                "snapshot diverged between 1 and {} recorder threads",
                threads
            );
        }
    }
}

// ---------------------------------------------------------------------
// Wire tests against a seeded in-process server.
// ---------------------------------------------------------------------

fn dataset() -> Dataset {
    Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet())
}

/// Block until `serve.conn_active` reaches `want` — the gauge is set by
/// the acceptor just after the connection thread spawns, so a test that
/// wants a byte-deterministic exposition waits for it before sending.
fn wait_for_conn_active(obs: &Obs, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while obs.metrics().gauge("serve.conn_active", &[]).unwrap_or(-1.0) != want {
        assert!(Instant::now() < deadline, "serve.conn_active never reached {want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn prometheus_exposition_is_golden_for_a_quiescent_server() {
    // A (never-binding) admission policy so the `admission` stage runs
    // and all five stage histograms show up in the exposition.
    let handle = Server::start(ServerConfig {
        admission: Some(AdmissionPolicy { requests: 100, window_millis: 60_000 }),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    handle.register_dataset("snap", dataset());
    let obs = handle.obs_handle();
    let mut c = LineClient::connect(handle.local_addr());
    wait_for_conn_active(&obs, 1.0);

    // The very first request on the only connection: the `framing` and
    // `write` stage samples for a reply are recorded only after that
    // reply is flushed, so this exposition cannot contain samples from
    // its own request — which is what makes its bytes pinnable.
    let reply = c.req(r#"{"v":1,"cmd":"metrics","format":"prom"}"#);
    let v: serde_json::Value = serde_json::from_str(&reply).expect("prom reply parses");
    assert_eq!(v["ok"].as_bool(), Some(true), "reply: {reply}");
    assert_eq!(v["format"].as_str(), Some("prom"));
    let body = v["body"].as_str().expect("body is a string");
    let expected = "\
# TYPE serve_conn_opened counter\n\
serve_conn_opened 1\n\
# TYPE serve_snapshots counter\n\
serve_snapshots 1\n\
# TYPE serve_conn_active gauge\n\
serve_conn_active 1\n";
    assert_eq!(body, expected, "prom body drifted:\n{body}");

    // The shard-filtered exposition of an idle shard is empty: every
    // shard-labelled series is registered but untouched, and untouched
    // telemetry never materializes keys.
    let reply = c.req(r#"{"v":1,"cmd":"metrics","snapshot":"snap","format":"prom"}"#);
    let v: serde_json::Value = serde_json::from_str(&reply).expect("shard prom parses");
    assert_eq!(v["body"].as_str(), Some(""), "idle shard exposition not empty: {reply}");

    // After one analyze, the global exposition carries the staged
    // latency histograms with consistent cumulative counts.
    let analyze = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"snap","sections":["basic"]}"#);
    assert!(analyze.starts_with("{\"ok\":true"), "analyze failed: {analyze}");
    let reply = c.req(r#"{"v":1,"cmd":"metrics","format":"prom"}"#);
    let v: serde_json::Value = serde_json::from_str(&reply).expect("prom reply parses");
    let body = v["body"].as_str().expect("body is a string");
    for stage in ["admission", "queue", "execute"] {
        let count_line = format!("serve_stage_wall_micros_count{{stage=\"{stage}\"}} 1");
        assert!(
            body.contains(&count_line),
            "missing `{count_line}` in exposition:\n{body}"
        );
    }
    // Three replies (both earlier metrics scrapes plus the analyze) have
    // been flushed by now, so framing/write carry exactly three samples
    // each, and every histogram ends with the catch-all +Inf bucket
    // equal to its count.
    for stage in ["framing", "write"] {
        let count_line = format!("serve_stage_wall_micros_count{{stage=\"{stage}\"}} 3");
        assert!(
            body.contains(&count_line),
            "missing `{count_line}` in exposition:\n{body}"
        );
        let inf_line = format!("serve_stage_wall_micros_bucket{{stage=\"{stage}\",le=\"+Inf\"}} 3");
        assert!(body.contains(&inf_line), "missing `{inf_line}` in exposition:\n{body}");
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn watch_streams_at_least_three_delta_frames() {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    handle.register_dataset("snap", dataset());
    let addr = handle.local_addr();

    let mut watcher = LineClient::connect(addr);
    watcher.send(r#"{"v":1,"cmd":"watch","interval_ms":60,"frames":3}"#);
    let ack = watcher.recv();
    let v: serde_json::Value = serde_json::from_str(&ack).expect("watch ack parses");
    assert_eq!(v["watching"]["interval_ms"].as_u64(), Some(60), "ack: {ack}");
    assert_eq!(v["watching"]["frames"].as_u64(), Some(3));

    // Traffic on a second connection while the watch streams: the delta
    // frames must pick the counter movement up.
    let driver = std::thread::spawn(move || {
        let mut c = LineClient::connect(addr);
        for _ in 0..4 {
            let reply = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"snap","sections":["basic"]}"#);
            assert!(reply.starts_with("{\"ok\":true"), "driver analyze failed: {reply}");
            std::thread::sleep(Duration::from_millis(40));
        }
    });

    let mut saw_requests_delta = false;
    for i in 1..=3u64 {
        let frame = watcher.recv();
        let v: serde_json::Value = serde_json::from_str(&frame).expect("frame parses");
        assert_eq!(v["watch"].as_u64(), Some(i), "frame {i}: {frame}");
        assert!(v["elapsed_ms"].as_u64().is_some(), "frame {i} missing elapsed_ms");
        if v["counters"]["serve.requests"].as_u64().unwrap_or(0) > 0 {
            saw_requests_delta = true;
        }
    }
    let done = watcher.recv();
    let v: serde_json::Value = serde_json::from_str(&done).expect("terminator parses");
    assert_eq!(v["watch_complete"].as_u64(), Some(3), "terminator: {done}");
    assert!(saw_requests_delta, "no frame carried a serve.requests delta");

    // The session ends cleanly: the same connection keeps serving.
    let status = watcher.req(r#"{"v":1,"cmd":"status"}"#);
    assert!(status.starts_with("{\"ok\":true"), "post-watch status failed: {status}");
    driver.join().expect("driver");
    handle.shutdown();
    handle.join();
}

#[test]
fn watch_rejects_unknown_snapshots_and_bad_bounds() {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    let mut c = LineClient::connect(handle.local_addr());
    let reply = c.req(r#"{"v":1,"cmd":"watch","snapshot":"ghost","frames":1}"#);
    let v: serde_json::Value = serde_json::from_str(&reply).expect("reply parses");
    assert_eq!(v["error"]["code"].as_str(), Some("unknown_snapshot"), "{reply}");
    let reply = c.req(r#"{"v":1,"cmd":"watch","interval_ms":3}"#);
    let v: serde_json::Value = serde_json::from_str(&reply).expect("reply parses");
    assert_eq!(v["error"]["code"].as_str(), Some("bad_request"), "{reply}");
    handle.shutdown();
    handle.join();
}

#[test]
fn self_monitor_flags_an_injected_queue_regime_shift() {
    // An interval far past the test's lifetime: the sampler thread
    // idles and every sample comes from the injection hook, so the ring
    // contents — and the PELT verdict over them — are exact.
    let handle = Server::start(ServerConfig {
        self_monitor: Some(SelfMonitorConfig {
            interval_millis: 3_600_000,
            ..SelfMonitorConfig::default()
        }),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let quiet = MonitorSample {
        queue_depth: 0.0,
        running: 1.0,
        cache_hit_rate: 0.9,
        conn_active: 2.0,
    };
    let backed_up = MonitorSample { queue_depth: 8.0, ..quiet };
    for _ in 0..30 {
        assert!(handle.inject_monitor_sample(quiet), "monitor not attached");
    }
    for _ in 0..30 {
        assert!(handle.inject_monitor_sample(backed_up));
    }

    let mut c = LineClient::connect(handle.local_addr());
    let status = c.req(r#"{"v":1,"cmd":"status"}"#);
    let v: serde_json::Value = serde_json::from_str(&status).expect("status parses");
    assert_eq!(v["self_monitor"]["samples"].as_u64(), Some(60), "status: {status}");
    let alert = &v["self_monitor"]["alerts"][0];
    assert_eq!(alert["series"].as_str(), Some("queue_depth"), "status: {status}");
    assert_eq!(alert["index"].as_u64(), Some(30));
    assert_eq!(alert["before_mean"].as_f64(), Some(0.0));
    assert_eq!(alert["after_mean"].as_f64(), Some(8.0));
    assert!(
        v["self_monitor"]["alerts"][1].is_null(),
        "expected exactly one regime shift: {status}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn status_without_monitor_carries_no_self_monitor_field() {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    let mut c = LineClient::connect(handle.local_addr());
    let status = c.req(r#"{"v":1,"cmd":"status"}"#);
    assert!(!status.contains("self_monitor"), "monitor-off status leaked the field: {status}");
    assert!(!handle.inject_monitor_sample(MonitorSample {
        queue_depth: 0.0,
        running: 0.0,
        cache_hit_rate: 0.0,
        conn_active: 0.0,
    }));
    handle.shutdown();
    handle.join();
}
