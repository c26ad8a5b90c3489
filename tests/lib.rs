//! Shared generators and fixtures for the integration-test battery.
//!
//! The fault-conformance battery (`tests/fault_conformance.rs`) and the
//! snapshot-sensitivity suite (`tests/snapshot_sensitivity.rs`) both need
//! randomized-but-replayable societies small enough to crawl hundreds of
//! times. The strategies live here so the two batteries exercise the same
//! input distribution — a divergence caught by one is reproducible in the
//! other.
//!
//! The loopback serve batteries share [`LineClient`], so every one of them
//! frames its requests the same way.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use proptest::Strategy;
use vnet_twittersim::{
    CrawlDataset, Crawler, FaultPlan, RateLimitPolicy, SimClock, Society, SocietyConfig,
    TwitterApi,
};

/// Strategy over *tiny* societies: 120–320 nodes with mean out-degree
/// 6–14 and two celebrity sinks. Small enough that a full simulated crawl
/// is milliseconds, large enough that the English filter, pagination, and
/// sink structure all stay non-trivial. The generation seed varies too, so
/// cases differ in wiring and not just scale.
pub fn tiny_society_config() -> impl Strategy<Value = SocietyConfig> {
    (120u32..=320, 6.0f64..=14.0, 0u64..1 << 48).prop_map(|(nodes, mean_out, seed)| {
        let mut cfg = SocietyConfig::small();
        cfg.net.nodes = nodes;
        cfg.net.mean_out_degree = mean_out;
        cfg.net.celebrity_sinks = 2;
        cfg.seed = 0x2018_0718 ^ seed;
        cfg
    })
}

/// Strategy over *healing* fault plans ([`FaultPlan::generate`]): 1–4
/// mixed clauses, every window inside the first simulated hour. The plan
/// is a pure function of the drawn seed, so a failing case's plan is fully
/// described by its debug output.
pub fn healing_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..u64::MAX).prop_map(FaultPlan::generate)
}

/// The fault-free ground-truth crawl of `society`: unlimited rate limits,
/// no failures, no fault plan. Conformance tests compare degraded crawls
/// against this bit-for-bit.
pub fn fault_free_crawl(society: &Society) -> CrawlDataset {
    let api = TwitterApi::new(society, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
    Crawler::new(&api).crawl().expect("fault-free crawl cannot fail")
}

/// A client of the serve wire protocol: one loopback connection, request
/// lines out, reply lines back.
///
/// Each request leaves in one write, the line and its `'\n'` together.
/// Written apart, the newline would wait under Nagle's algorithm for the
/// server's delayed ACK of the line, ~40 ms a request on Linux. So the
/// client needs no `TCP_NODELAY`, and it sets none.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    /// Connect to the server listening on `addr`.
    pub fn connect(addr: SocketAddr) -> LineClient {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        LineClient {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Send one request line in a single write.
    pub fn send(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("send request");
    }

    /// Read one reply line; returns it without its terminator.
    pub fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(reply.ends_with('\n'), "reply not line-terminated: {reply:?}");
        reply.trim_end().to_string()
    }

    /// One round trip: [`send`](Self::send) `line`, then [`recv`](Self::recv).
    pub fn req(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// The socket itself, for tests that shape their own writes or set
    /// socket options. The reader shares it.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.writer
    }
}
