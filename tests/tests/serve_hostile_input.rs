//! Hostile wire input against a live loopback server: a line of deeply
//! nested brackets and a request carrying a very long string. Each must
//! get a well-formed reply within a time bound, and the connection must
//! go on serving.
//!
//! This file is a test binary of its own: a parser that recursed without
//! a depth cap would overflow the connection thread's stack, and a stack
//! overflow aborts the whole process rather than panicking one thread.

use std::time::{Duration, Instant};
use vnet_integration_tests::LineClient;
use vnet_serve::{Server, ServerConfig, MAX_LINE_BYTES};

/// Time allowed for each hostile line's reply.
const REPLY_BOUND: Duration = Duration::from_secs(2);

fn connect(addr: std::net::SocketAddr) -> LineClient {
    let mut c = LineClient::connect(addr);
    // A hung server fails the test instead of hanging it.
    c.stream().set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    c
}

/// Send one line; return the reply and how long it took to arrive.
fn timed_req(c: &mut LineClient, line: &str) -> (serde_json::Value, Duration) {
    let started = Instant::now();
    let reply = c.req(line);
    let elapsed = started.elapsed();
    let v = serde_json::from_str(&reply).expect("reply is well-formed JSON");
    (v, elapsed)
}

fn assert_status_ok(c: &mut LineClient) {
    let (v, _) = timed_req(c, r#"{"v":1,"cmd":"status"}"#);
    assert_eq!(v["ok"].as_bool(), Some(true), "status after hostile input: {v:?}");
}

#[test]
fn deep_nesting_is_a_bad_request_not_an_abort() {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    let mut c = connect(handle.local_addr());
    let (v, elapsed) = timed_req(&mut c, &"[".repeat(10_000));
    assert_eq!(v["ok"].as_bool(), Some(false), "{v:?}");
    assert_eq!(v["error"]["code"].as_str(), Some("bad_request"), "{v:?}");
    assert!(elapsed < REPLY_BOUND, "nested line took {elapsed:?}");
    assert_status_ok(&mut c);
    handle.shutdown();
    handle.join();
}

#[test]
fn long_string_value_is_parsed_in_linear_time() {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    let mut c = connect(handle.local_addr());
    let pad = "x".repeat(768 << 10);
    let line = format!(r#"{{"v":1,"cmd":"status","pad":"{pad}"}}"#);
    assert!(line.len() < MAX_LINE_BYTES);
    let (v, elapsed) = timed_req(&mut c, &line);
    // The strict envelope refuses the unknown key; what matters is that
    // the reply is well-formed and prompt.
    assert_eq!(v["ok"].as_bool(), Some(false), "{v:?}");
    assert!(v["error"]["code"].as_str().is_some(), "{v:?}");
    assert!(elapsed < REPLY_BOUND, "long-string line took {elapsed:?}");
    assert_status_ok(&mut c);
    handle.shutdown();
    handle.join();
}
