//! Round-trip latency on one connection, timed by a plain client: one
//! that writes each request line in a single write and leaves Nagle's
//! algorithm on, as most clients do.
//!
//! A reply sent as two segments, the JSON and then its newline, holds the
//! newline under Nagle until the client's delayed ACK of the JSON arrives,
//! ~40 ms on Linux. So does a reply written while an earlier reply on the
//! connection is still unacknowledged, unless the server sets
//! `TCP_NODELAY`. No server stage can see either wait: `write` returns
//! once the bytes reach the socket buffer. Only the client's clock does,
//! so the bounds here are on client-side round trips.

use std::time::{Duration, Instant};

use verified_net::{AnalysisCtx, Dataset, SynthesisConfig};
use vnet_integration_tests::LineClient;
use vnet_serve::{Server, ServerConfig};

/// Timed exchanges per group.
const ROUNDS: usize = 40;

/// Bound on a group's median exchange: well above a loopback exchange
/// (tens of microseconds) and well below one delayed ACK.
const MEDIAN_BOUND: Duration = Duration::from_millis(10);

const STATUS: &str = r#"{"v":1,"cmd":"status"}"#;

/// Run `exchange` `ROUNDS` times in sequence; returns the median time.
fn median_time(mut exchange: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            exchange();
            started.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[ROUNDS / 2]
}

/// Send `line` and wait for its reply, `ROUNDS` times; every reply must
/// equal `expect`. Returns the median round trip.
fn median_round_trip(c: &mut LineClient, line: &str, expect: &str) -> Duration {
    median_time(|| assert_eq!(c.req(line), expect, "reply to {line}"))
}

#[test]
fn sequential_round_trips_do_not_wait_for_a_delayed_ack() {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    handle.register_dataset("s", Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet()));
    let mut c = LineClient::connect(handle.local_addr());

    let first = c.req(STATUS);
    assert!(first.starts_with("{\"ok\":true"), "status failed: {first}");
    let median = median_round_trip(&mut c, STATUS, &first);
    assert!(median < MEDIAN_BOUND, "median status round trip {median:?} over {ROUNDS} requests");

    // One miss computes and caches the section; the hits that follow
    // return the same bytes.
    let analyze =
        r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["basic"],"options":{"seed":1}}"#;
    let miss = c.req(analyze);
    assert!(miss.starts_with("{\"ok\":true"), "analyze failed: {miss}");
    let median = median_round_trip(&mut c, analyze, &miss);
    assert!(
        median < MEDIAN_BOUND,
        "median analyze-hit round trip {median:?} over {ROUNDS} requests"
    );

    handle.shutdown();
    handle.join();
}

/// Two requests in one write: the server writes the second reply while
/// the client has not yet acknowledged the first. With Nagle on at the
/// server, that reply waits for the client's delayed ACK.
#[test]
fn pipelined_replies_do_not_wait_for_a_delayed_ack() {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    let mut c = LineClient::connect(handle.local_addr());

    let first = c.req(STATUS);
    assert!(first.starts_with("{\"ok\":true"), "status failed: {first}");
    // Warm-up: Linux acknowledges the first segments of a connection at
    // once (quick-ACK mode), which would hide the wait.
    median_round_trip(&mut c, STATUS, &first);

    let pair = format!("{STATUS}\n{STATUS}");
    let median = median_time(|| {
        c.send(&pair);
        for _ in 0..2 {
            assert_eq!(c.recv(), first, "reply to a pipelined {STATUS}");
        }
    });
    assert!(median < MEDIAN_BOUND, "median pipelined pair {median:?} over {ROUNDS} pairs");

    handle.shutdown();
    handle.join();
}
