//! Interned metric handles for the serve hot path.
//!
//! Every metric the request path records per request is a handle here,
//! registered once on the server's [`vnet_obs::Telemetry`] store at
//! server (or shard) construction: the hot path does atomic adds through
//! the handles and never formats a label string or takes a lock.
//! Cold-path metrics (connection lifecycle, cache misses, amortized by a
//! full section computation, drains, panics) are written by name through
//! [`vnet_obs::Obs`], into the same store. Every snapshot (`metrics`,
//! `status`, manifests, Prometheus exposition) reads that one store under
//! the canonical keys.
//!
//! ## Staged latency
//!
//! The request path is instrumented as five wall-clock stages, each a
//! power-of-two-bucket histogram `serve.stage_wall_micros{stage=…}`:
//!
//! | stage       | measures                                              |
//! |-------------|-------------------------------------------------------|
//! | `framing`   | first byte of a request line → complete line          |
//! | `admission` | token-bucket `try_admit` (the front-door gate)        |
//! | `queue`     | executor submit → a worker picks the job up           |
//! | `execute`   | worker picks up → reply string ready                  |
//! | `write`     | reply bytes → socket flushed                          |
//!
//! The metric name ends in `wall_micros`, so these histograms are
//! scrubbed from `RunManifest::deterministic_view` by the established
//! convention — wall-clock is for profiling, never for fingerprints.
//! `framing` and `write` are recorded *after* the reply is flushed, so a
//! `metrics` reply never includes its own request's samples.

use std::time::Instant;

use vnet_obs::{pow2_buckets, Counter, Histogram, Telemetry, DEFAULT_BUCKETS};

/// Bucket exponent for stage latencies: 2⁰ … 2²⁶ µs spans 1 µs to ~67 s
/// with ≤ 2× relative error, HDR-style.
const STAGE_BUCKET_MAX_EXP: u32 = 26;

/// The five stages of the request path, in path order. Each has a
/// `serve.stage_wall_micros{stage=…}` histogram; load tools iterate
/// this to pull the per-stage breakdown out of a `metrics` reply.
pub const STAGES: [&str; 5] = ["framing", "admission", "queue", "execute", "write"];

/// Global (unlabelled) hot-path handles plus the stage histograms.
pub(crate) struct ServeStats {
    /// `serve.requests` — admitted `analyze` and `detect` requests (global).
    pub(crate) requests: Counter,
    /// `serve.admitted` — same population, kept for the admission tests'
    /// contract.
    pub(crate) admitted: Counter,
    /// `serve.rejected{reason=rate_limited}`.
    pub(crate) rejected_rate_limited: Counter,
    /// `serve.rejected{reason=queue_full}` (global; the per-shard twin
    /// lives in [`ShardStats`]).
    pub(crate) rejected_queue_full: Counter,
    /// `cache.hits` (global).
    pub(crate) cache_hits: Counter,
    /// `serve.asof_cache_hits` — section-cache hits served for an
    /// `as_of` (time-travel) request; the delta-aware cache's win metric.
    pub(crate) asof_cache_hits: Counter,
    /// `serve.asof_materializations` — day graphs actually replayed and
    /// materialized (the cost the day cache and section cache amortize).
    pub(crate) asof_materializations: Counter,
    /// `serve.coalesced` (global).
    pub(crate) coalesced: Counter,
    /// `serve.retry_after_ms` — decade buckets ([`DEFAULT_BUCKETS`]) of
    /// integral milliseconds.
    pub(crate) retry_after_ms: Histogram,
    pub(crate) stage_framing: Histogram,
    pub(crate) stage_admission: Histogram,
    pub(crate) stage_write: Histogram,
}

impl ServeStats {
    /// Register every global handle on `telemetry`.
    pub(crate) fn new(telemetry: &Telemetry) -> Self {
        Self {
            requests: telemetry.counter("serve.requests", &[]),
            admitted: telemetry.counter("serve.admitted", &[]),
            rejected_rate_limited: telemetry
                .counter("serve.rejected", &[("reason", "rate_limited")]),
            rejected_queue_full: telemetry.counter("serve.rejected", &[("reason", "queue_full")]),
            cache_hits: telemetry.counter("cache.hits", &[]),
            asof_cache_hits: telemetry.counter("serve.asof_cache_hits", &[]),
            asof_materializations: telemetry.counter("serve.asof_materializations", &[]),
            coalesced: telemetry.counter("serve.coalesced", &[]),
            retry_after_ms: telemetry.histogram("serve.retry_after_ms", &[], &DEFAULT_BUCKETS),
            stage_framing: stage_histogram(telemetry, "framing"),
            stage_admission: stage_histogram(telemetry, "admission"),
            stage_write: stage_histogram(telemetry, "write"),
        }
    }
}

/// The `serve.stage_wall_micros{stage=…}` histogram of one stage.
pub(crate) fn stage_histogram(telemetry: &Telemetry, stage: &str) -> Histogram {
    telemetry.histogram(
        "serve.stage_wall_micros",
        &[("stage", stage)],
        &pow2_buckets(STAGE_BUCKET_MAX_EXP),
    )
}

/// Record into a stage histogram the microseconds since `started`.
pub(crate) fn observe_since(stage: &Histogram, started: Instant) {
    stage.observe(started.elapsed().as_micros() as u64);
}

/// One shard's labelled hot-path counters (held inside the `Shard`).
pub(crate) struct ShardStats {
    /// `serve.requests{shard=…}`.
    pub(crate) requests: Counter,
    /// `cache.hits{shard=…}`.
    pub(crate) hits: Counter,
    /// `serve.coalesced{shard=…}`.
    pub(crate) coalesced: Counter,
    /// `serve.rejected{reason=queue_full,shard=…}`.
    pub(crate) rejected_queue_full: Counter,
}

impl ShardStats {
    /// Register the handles of the shard named `shard`. Registration
    /// finds the series already under a key, so a re-registered name
    /// keeps counting where it left off.
    pub(crate) fn new(telemetry: &Telemetry, shard: &str) -> Self {
        let labels: &[(&str, &str)] = &[("shard", shard)];
        Self {
            requests: telemetry.counter("serve.requests", labels),
            hits: telemetry.counter("cache.hits", labels),
            coalesced: telemetry.counter("serve.coalesced", labels),
            rejected_queue_full: telemetry
                .counter("serve.rejected", &[("reason", "queue_full"), ("shard", shard)]),
        }
    }
}
