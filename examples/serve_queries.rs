//! The analysis service end-to-end in one process: start a `vnet-serve`
//! server on a loopback port, register a synthesized snapshot, and walk
//! the wire protocol — status, a cold `analyze`, the byte-identical
//! cached repeat, a churn-registered snapshot with `as_of` time travel
//! and a structural regime shock, and a graceful shutdown — printing
//! each exchange.
//!
//! ```text
//! cargo run --release -p vnet-examples --bin serve_queries
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use verified_net::{AnalysisCtx, Dataset, SynthesisConfig};
use vnet_serve::{Server, ServerConfig};

fn main() {
    println!("== vnet-serve demo ==\n");

    // 1. Start the service (port 0 = pick a free port) and register a
    //    snapshot directly — a remote client would use the `register`
    //    command with a saved bundle directory instead.
    let handle = Server::start(ServerConfig::default()).expect("bind loopback server");
    println!("server listening on {}", handle.local_addr());
    println!("synthesizing the small dataset ...");
    let ds = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
    let fp = handle.register_dataset("demo", ds);
    println!("registered snapshot 'demo' (fingerprint {fp:016x})\n");

    // 2. Talk the line-delimited JSON protocol over TCP.
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut req = |line: &str| -> String {
        println!(">> {line}");
        // One write per request line: a newline written on its own would
        // wait for the server's delayed ACK of the line before it.
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let reply = reply.trim_end().to_string();
        let shown = if reply.len() > 160 { format!("{}…", &reply[..160]) } else { reply.clone() };
        println!("<< {shown}\n");
        reply
    };

    req(r#"{"v":1,"cmd":"status"}"#);

    let analyze =
        r#"{"v":1,"cmd":"analyze","snapshot":"demo","sections":["basic","reciprocity"],"options":{"seed":42}}"#;
    let cold = req(analyze);
    let warm = req(analyze);
    println!(
        "cache check: cold and repeat replies byte-identical = {}\n",
        cold == warm
    );

    // 3. Time travel: register a second snapshot with a churn timeline —
    //    21 deterministic churn days with a 4x churn shock on day 10 —
    //    then analyze the graph as it stood on specific days and read the
    //    structural shifts the PELT detector found around the shock.
    println!("registering 'evolving' with a 21-day churn timeline (shock on day 10) ...");
    req(r#"{"v":1,"cmd":"register","name":"evolving","scale":"small","churn_days":21,"churn_seed":11,"churn_shock_day":10}"#);
    for day in [1u32, 10, 21] {
        let reply = req(&format!(
            r#"{{"v":1,"cmd":"analyze","snapshot":"evolving","sections":["basic"],"as_of":{day}}}"#
        ));
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        println!(
            "day {day}: dataset fingerprint {:016x}\n",
            v["dataset_fingerprint"].as_u64().unwrap_or(0)
        );
    }
    let status = req(r#"{"v":1,"cmd":"status","snapshot":"evolving"}"#);
    let v: serde_json::Value = serde_json::from_str(&status).unwrap();
    println!(
        "structural shifts: {}\n",
        serde_json::to_string(&v["shard"]["temporal"]["shifts"]).unwrap_or_default()
    );

    let metrics = req(r#"{"v":1,"cmd":"metrics"}"#);
    let v: serde_json::Value = serde_json::from_str(&metrics).unwrap();
    println!(
        "cache counters: hits {} / misses {} / entries {} | as_of: hits {} / materializations {}\n",
        v["counters"]["cache.hits"].as_u64().unwrap_or(0),
        v["counters"]["cache.misses"].as_u64().unwrap_or(0),
        v["counters"]["cache.entries"].as_u64().unwrap_or(0),
        v["counters"]["serve.asof_cache_hits"].as_u64().unwrap_or(0),
        v["counters"]["serve.asof_materializations"].as_u64().unwrap_or(0),
    );

    // 3. Graceful shutdown: drains in-flight work, then stops accepting.
    req(r#"{"v":1,"cmd":"shutdown"}"#);
    handle.join();
    println!("server drained and stopped.");
}
