//! # vnet-serve — the analysis service
//!
//! A long-running, zero-external-dependency analysis service over
//! [`std::net::TcpListener`]. Clients register [`verified_net::Dataset`] snapshots and
//! request paper sections over a line-delimited JSON protocol; the server
//! runs analysis on a shared [`vnet_par::ParPool`] via one
//! [`vnet_ctx::AnalysisCtx`], and serves production traffic through three
//! gates: per-client token-bucket **admission control**, a **shard
//! router**, and each shard's bounded-queue **executor**.
//!
//! Because every section is computed through
//! [`verified_net::run_analysis_section`] — the same entrypoint the batch
//! driver composes — a cached reply is **byte-identical** to a fresh
//! computation at any thread count, and the per-section fingerprints a
//! reply embeds are directly comparable to the `section.<id>` fingerprints
//! in a batch run's manifest.
//!
//! ## Execution model
//!
//! Requests are framed by an incremental [`LineReader`] that survives
//! socket read timeouts without discarding buffered partial requests, so
//! arbitrarily slow writers are safe. Each registered snapshot is a
//! **shard** with its own fixed worker-pool [`Executor`] (bounded queue,
//! `Condvar` scheduling — refusals get a structured `queue_full` reply)
//! and its own caches of sections, day graphs and `detect` replies. Each
//! cache is one memo, an LRU whose misses fill under single-flight
//! coalescing: one leader computes each value, every coalesced waiter
//! fans out the same bytes (`serve.coalesced` counts them), and a hot
//! snapshot saturates only its own queue. In front of the router sits an optional [`Admission`] gate
//! that charges `twittersim`'s rate-limit window per client id: over
//! quota means a `rate_limited` reply with a deterministic
//! `retry_after_ms` hint, and rejected requests consume no quota.
//! Shutdown drains every shard's executor on its quiescence condvar and
//! joins every worker and connection thread — the server leaks no
//! threads.
//!
//! ## Wire protocol
//!
//! One JSON object per line in each direction (see `docs/API.md` for the
//! full schema). Every request carries the versioned envelope —
//! `{"v":1,"cmd":...}` — which rejects unknown keys with a structured
//! `invalid_input` error; a line without `"v"` gets the same
//! `invalid_input` reply as an unsupported version. Requests carry a
//! `"cmd"` key:
//!
//! | cmd        | fields                                                    |
//! |------------|-----------------------------------------------------------|
//! | `register` | `name`, plus `dir` (saved bundle) or `scale` (synthesize);|
//! |            | optional `churn_days`/`churn_seed`/`churn_shock_day` build|
//! |            | a deterministic churn timeline for time travel            |
//! | `analyze`  | `snapshot`, `sections` (ids), optional `options`,         |
//! |            | `client`, and `as_of` (churn day to time-travel to)       |
//! | `status`   | optional `snapshot` (one shard's detail)                  |
//! | `metrics`  | optional `snapshot`, optional `format` (`json`\|`prom`)   |
//! | `watch`    | optional `snapshot`, `interval_ms`, `frames`              |
//! | `shutdown` | — (drains in-flight work, then stops accepting)           |
//!
//! Replies are `{"ok":true,...}` or
//! `{"ok":false,"error":{"code":"...","message":"..."}}` with codes from
//! [`verified_net::VnetError::code`]; `rate_limited` errors additionally
//! carry a `retry_after_ms` field. `metrics` with `"format":"prom"`
//! wraps a Prometheus text exposition in the reply's `body` field;
//! `watch` holds the connection and streams periodic metric-delta
//! frames (see `docs/OBSERVABILITY.md`).
//!
//! ## Observability
//!
//! The request hot path records through interned handles on the
//! server's [`vnet_obs::Telemetry`] store — per-stripe atomics, no
//! locks, no string formatting — and cold paths write by name into the
//! same store, which `metrics`/`manifest` snapshot. Five wall-clock stage
//! histograms (`framing` → `admission` → `queue` → `execute` → `write`)
//! break request latency down; their `*wall_micros` names are scrubbed
//! from deterministic manifests. An opt-in [`SelfMonitorConfig`]
//! samples queue depth, running jobs, cache hit rate, and connection
//! count into a ring and runs `vnet-timeseries` PELT change-point
//! detection over them on every `status` request — the server dogfoods
//! the paper's regime-shift analysis on itself.
//!
//! ## Example
//!
//! ```no_run
//! use vnet_serve::{Server, ServerConfig};
//!
//! let handle = Server::start(ServerConfig::default()).unwrap();
//! println!("serving on {}", handle.local_addr());
//! handle.join();
//! ```

#![warn(missing_docs)]

mod admission;
mod cache;
mod conn;
mod executor;
mod framing;
mod monitor;
mod protocol;
mod server;
mod shards;
mod stats;

pub use admission::{Admission, AdmissionClock, AdmissionPolicy};
pub use cache::{CacheKey, CachedSection};
pub use executor::{CancelToken, Executor, ExecutorTelemetry, JobHandle, SubmitRefusal};
pub use framing::{Frame, LineReader, MAX_LINE_BYTES};
pub use monitor::{MonitorAlert, MonitorSample, SelfMonitorConfig};
pub use protocol::{
    parse_request, ChurnSpec, MetricsFormat, RegisterSource, Request, MAX_CHURN_DAYS,
    PROTOCOL_VERSION, WATCH_MAX_FRAMES, WATCH_MAX_INTERVAL_MS, WATCH_MIN_INTERVAL_MS,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stats::STAGES;
