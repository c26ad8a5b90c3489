//! Connection tracking and the per-connection protocol loop.
//!
//! Every accepted socket is handled on a thread registered in a
//! [`ConnRegistry`]; shutdown joins them all, so no connection thread
//! outlives the server (the first service cut leaked detached threads).
//! The protocol loop frames request lines with [`crate::framing::LineReader`],
//! which is what makes slow writers safe: a read-timeout tick checks the
//! stop flag and otherwise *keeps* any partial request bytes buffered.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::framing::{Frame, LineReader};
use crate::protocol::json_str;
use crate::server::{handle_line, metric_maps, Dispatch, Shared, WatchParams};
use crate::stats::observe_since;

/// How often an idle connection wakes to check the stop flag. This is the
/// socket read timeout, not a poll of shared state: the thread sleeps in
/// `recv` and the kernel wakes it on data; the tick only bounds how long
/// shutdown waits for idle connections.
pub(crate) const READ_TICK: Duration = Duration::from_millis(100);

#[derive(Debug, Default)]
struct RegistryInner {
    /// Threads still running (or not yet observed finished).
    live: HashMap<u64, JoinHandle<()>>,
    /// Threads that announced completion; joined in bulk at shutdown.
    finished: Vec<JoinHandle<()>>,
    /// Completions that raced ahead of their own registration.
    early_retired: Vec<u64>,
    next_id: u64,
}

/// Registry of connection-handler threads: tracks the live count for
/// `serve.conn_active` and keeps every `JoinHandle` so shutdown can join
/// them all.
#[derive(Debug, Default)]
pub(crate) struct ConnRegistry {
    inner: Mutex<RegistryInner>,
}

impl ConnRegistry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Spawn a connection thread and track it. `shared` is used for the
    /// `serve.conn_active` gauge and `serve.conn_opened`/`closed` counters.
    pub(crate) fn spawn_connection(self: &Arc<Self>, stream: TcpStream, shared: Arc<Shared>) {
        let registry = Arc::clone(self);
        let mut inner = self.inner.lock().expect("conn registry lock");
        let id = inner.next_id;
        inner.next_id += 1;
        shared.obs.inc_by("serve.conn_opened", &[], 1);
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("vnet-serve-conn-{id}"))
            .spawn(move || {
                run_connection(stream, &conn_shared);
                conn_shared.obs.inc_by("serve.conn_closed", &[], 1);
                registry.retire(id, &conn_shared);
            })
            .expect("spawn connection thread");
        // If the connection already finished (tiny requests race the
        // registration), its id is parked in `early_retired`.
        if let Some(pos) = inner.early_retired.iter().position(|&e| e == id) {
            inner.early_retired.swap_remove(pos);
            inner.finished.push(handle);
        } else {
            inner.live.insert(id, handle);
        }
        // Set under the lock, so concurrent updates land in the order
        // their counts were taken and the last write is the live count.
        shared.obs.set_gauge("serve.conn_active", &[], inner.live.len() as f64);
    }

    fn retire(&self, id: u64, shared: &Shared) {
        let mut inner = self.inner.lock().expect("conn registry lock");
        match inner.live.remove(&id) {
            Some(handle) => inner.finished.push(handle),
            None => inner.early_retired.push(id),
        }
        shared.obs.set_gauge("serve.conn_active", &[], inner.live.len() as f64);
    }

    /// Join every connection thread, live ones included — callers must
    /// have set the stop flag first so live threads exit at their next
    /// read tick. Never called from a connection thread (the accept loop
    /// runs it), so there is no self-join.
    pub(crate) fn join_all(&self) {
        loop {
            let handle = {
                let mut inner = self.inner.lock().expect("conn registry lock");
                inner.finished.pop().or_else(|| {
                    let id = inner.live.keys().next().copied();
                    id.and_then(|id| inner.live.remove(&id))
                })
            };
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => return,
            }
        }
    }
}

/// The per-connection protocol loop: frame lines, dispatch, reply.
///
/// The `framing` and `write` stage histograms are recorded here, *after*
/// the reply is written — so a `metrics` reply never contains samples
/// from its own request, which is what keeps the prom-exposition golden
/// test deterministic on a fresh connection.
///
/// The socket runs with `TCP_NODELAY`: with Nagle on, a reply written
/// while the previous one is still unacknowledged (a pipelining client)
/// waits for the peer's delayed ACK, ~40 ms on Linux, and no server stage
/// sees that wait. The price is one segment per reply where Nagle would
/// merge back-to-back replies, which lowers the rate a saturating
/// pipelined client reaches (see docs/API.md).
fn run_connection(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader::new(stream);
    loop {
        match reader.next_frame() {
            Ok(Frame::Line(line)) => {
                let framing_micros = reader.take_last_line_micros();
                if line.trim().is_empty() {
                    continue;
                }
                let reply = match handle_line(shared, &line) {
                    Dispatch::Reply(reply) => reply,
                    Dispatch::ReplyThenStop(reply) => {
                        let _ = write_reply(&mut writer, reply);
                        return;
                    }
                    Dispatch::Watch(params) => {
                        if !run_watch(&mut writer, shared, &params) {
                            return;
                        }
                        continue;
                    }
                };
                let write_started = Instant::now();
                if write_reply(&mut writer, reply).is_err() {
                    return;
                }
                observe_since(&shared.stats.stage_write, write_started);
                if let Some(micros) = framing_micros {
                    shared.stats.stage_framing.observe(micros);
                }
            }
            // A timeout tick: partial request bytes stay buffered in the
            // reader; only a full stop ends the connection.
            Ok(Frame::Idle) => {
                if shared.stopped.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(Frame::Closed) | Err(_) => return,
        }
    }
}

/// Write one frame — `reply` and its `'\n'` — in a single `write_all`, so
/// it leaves as one segment. On a `TCP_NODELAY` socket a newline written
/// on its own would be a second segment for every reply.
fn write_reply(writer: &mut impl Write, mut reply: String) -> std::io::Result<()> {
    reply.push('\n');
    writer.write_all(reply.as_bytes())
}

/// A watch session: stream `frames` metric-delta frames, one per
/// interval, then a `watch_complete` terminator. Returns `false` when
/// the connection should close (write failure).
///
/// Frames carry only series that *changed* since the previous frame —
/// counters as deltas, gauges as their new value — so an idle server
/// streams small heartbeats, not the whole registry. Server shutdown
/// ends the session early with the terminator carrying the frames
/// actually sent.
fn run_watch(writer: &mut TcpStream, shared: &Arc<Shared>, params: &WatchParams) -> bool {
    let snapshot = params.snapshot.as_deref();
    let (mut prev_counters, mut prev_gauges) = metric_maps(shared, snapshot);
    let ack = format!(
        "{{\"ok\":true,\"watching\":{{\"interval_ms\":{},\"frames\":{}}}}}",
        params.interval.as_millis(),
        params.frames,
    );
    if write_reply(writer, ack).is_err() {
        return false;
    }
    let started = Instant::now();
    let mut sent = 0u64;
    while sent < params.frames {
        // Sleep one interval in read-tick slices so shutdown cuts the
        // stream short instead of waiting the interval out.
        let mut slept = Duration::ZERO;
        let mut stopping = false;
        while slept < params.interval {
            if shared.stopped.load(Ordering::SeqCst) {
                stopping = true;
                break;
            }
            let slice = READ_TICK.min(params.interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
        if stopping {
            break;
        }
        let (counters, gauges) = metric_maps(shared, snapshot);
        let counter_deltas: Vec<String> = counters
            .iter()
            .filter_map(|(k, v)| {
                let delta = v - prev_counters.get(k).copied().unwrap_or(0);
                (delta > 0).then(|| format!("{}:{}", json_str(k), delta))
            })
            .collect();
        let gauge_changes: Vec<String> = gauges
            .iter()
            .filter(|(k, v)| prev_gauges.get(*k) != Some(v))
            .map(|(k, v)| format!("{}:{:?}", json_str(k), v))
            .collect();
        prev_counters = counters;
        prev_gauges = gauges;
        sent += 1;
        let frame = format!(
            "{{\"ok\":true,\"watch\":{},\"elapsed_ms\":{},\"counters\":{{{}}},\"gauges\":{{{}}}}}",
            sent,
            started.elapsed().as_millis(),
            counter_deltas.join(","),
            gauge_changes.join(","),
        );
        if write_reply(writer, frame).is_err() {
            return false;
        }
    }
    let done = format!("{{\"ok\":true,\"watch_complete\":{sent}}}");
    write_reply(writer, done).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reply_and_its_newline_are_one_write() {
        let mut sink = Writes::default();
        write_reply(&mut sink, r#"{"ok":true}"#.to_string()).expect("write to a recording sink");
        assert_eq!(sink.0, vec![b"{\"ok\":true}\n".to_vec()]);
    }
}
