//! Hostile wire input against a live loopback server: a line of deeply
//! nested brackets and a request carrying a very long string. Each must
//! get a well-formed reply within a time bound, and the connection must
//! go on serving.
//!
//! This file is a test binary of its own: a parser that recursed without
//! a depth cap would overflow the connection thread's stack, and a stack
//! overflow aborts the whole process rather than panicking one thread.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use vnet_serve::{Server, ServerConfig, MAX_LINE_BYTES};

/// Time allowed for each hostile line's reply.
const REPLY_BOUND: Duration = Duration::from_secs(2);

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        // A hung server fails the test instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
        Client { reader: BufReader::new(stream.try_clone().expect("clone stream")), writer: stream }
    }

    /// Send one line; return the reply and how long it took to arrive.
    fn req(&mut self, line: &str) -> (serde_json::Value, Duration) {
        let started = Instant::now();
        self.writer.write_all(line.as_bytes()).expect("send request");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        let elapsed = started.elapsed();
        assert!(reply.ends_with('\n'), "reply not line-terminated: {reply:?}");
        let v = serde_json::from_str(reply.trim_end()).expect("reply is well-formed JSON");
        (v, elapsed)
    }

    fn assert_status_ok(&mut self) {
        let (v, _) = self.req(r#"{"v":1,"cmd":"status"}"#);
        assert_eq!(v["ok"].as_bool(), Some(true), "status after hostile input: {v:?}");
    }
}

#[test]
fn deep_nesting_is_a_bad_request_not_an_abort() {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    let mut c = Client::connect(handle.local_addr());
    let (v, elapsed) = c.req(&"[".repeat(10_000));
    assert_eq!(v["ok"].as_bool(), Some(false), "{v:?}");
    assert_eq!(v["error"]["code"].as_str(), Some("bad_request"), "{v:?}");
    assert!(elapsed < REPLY_BOUND, "nested line took {elapsed:?}");
    c.assert_status_ok();
    handle.shutdown();
    handle.join();
}

#[test]
fn long_string_value_is_parsed_in_linear_time() {
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    let mut c = Client::connect(handle.local_addr());
    let pad = "x".repeat(768 << 10);
    let line = format!(r#"{{"v":1,"cmd":"status","pad":"{pad}"}}"#);
    assert!(line.len() < MAX_LINE_BYTES);
    let (v, elapsed) = c.req(&line);
    // The strict envelope refuses the unknown key; what matters is that
    // the reply is well-formed and prompt.
    assert_eq!(v["ok"].as_bool(), Some(false), "{v:?}");
    assert!(v["error"]["code"].as_str().is_some(), "{v:?}");
    assert!(elapsed < REPLY_BOUND, "long-string line took {elapsed:?}");
    c.assert_status_ok();
    handle.shutdown();
    handle.join();
}
