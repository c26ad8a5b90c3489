//! # vnet-obs — deterministic observability for the verified-net pipeline
//!
//! Metrics, spans, and run manifests for the crawl → analysis pipeline,
//! with **no external dependencies** beyond the workspace's vendored
//! serde. The layer exists to answer three questions about a run:
//!
//! 1. *What work happened?* — one [`Telemetry`] store of labelled
//!    counters, gauges and fixed-bucket histograms (per-endpoint API
//!    calls, fault counts, backoff waits, hot-loop iteration totals),
//!    written by name through [`Obs`] or through interned handles, and
//!    read as a [`Registry`] snapshot.
//! 2. *Where did the time go?* — a [`Tracer`] of nested spans, each
//!    recording both simulated seconds and wall-clock nanoseconds.
//! 3. *Was it the same run?* — a serializable [`RunManifest`] combining
//!    seed, counters, stage timings and output fingerprints, exportable as
//!    JSON or a human-readable text report.
//!
//! ## Determinism contract
//!
//! Under a fixed seed, the **deterministic view** of a run's manifest
//! ([`RunManifest::deterministic_json`]) is byte-identical across runs and
//! machines. Concretely:
//!
//! * Counter, gauge and histogram values are pure functions of the seeded
//!   workload: the simulator's fault rolls, pagination, and retry/backoff
//!   schedule derive from seeded RNGs and hashes, never from real time.
//! * Span *simulated* timings (`sim_secs`) come from the pluggable
//!   simulated clock wired via [`Obs::set_sim_clock`] — in practice the
//!   `vnet-twittersim` `SimClock`, which only advances when the simulated
//!   rate-limit policy says to wait. Stages that never touch the simulated
//!   clock (the analysis battery) report 0 simulated seconds.
//! * Span *wall-clock* timings (`wall_micros`, `wall_total_micros`) are
//!   real measurements and therefore nondeterministic; the deterministic
//!   view zeroes them. They exist for profiling, not for comparison.
//! * All maps are `BTreeMap`s and label sets are sorted into the metric
//!   key, so serialization order is canonical by construction.
//! * Counters and histogram cells are integer sums, so a snapshot does
//!   not depend on how many threads recorded or in which order.
//!
//! Golden tests pin this contract: two same-seed fault-injected crawls
//! must produce byte-identical deterministic manifests.
//!
//! ## Enabling and disabling
//!
//! Instrumented code takes an `Arc<Obs>`. [`Obs::new`] records;
//! [`Obs::disabled`] and the shared static [`Obs::noop`] turn every
//! recording call into a cheap no-op (it returns before a key is
//! formatted or a lock taken), so library code can be instrumented
//! unconditionally and callers opt in:
//!
//! ```
//! use vnet_obs::Obs;
//!
//! let obs = std::sync::Arc::new(Obs::new());
//! {
//!     let _stage = obs.span("analysis.basic");
//!     obs.inc_by("algo.edge_relaxations", &[], 1234);
//! }
//! let manifest = obs.manifest("demo", 0x5EED);
//! assert!(manifest.deterministic_json().contains("analysis.basic"));
//! ```

mod manifest;
mod metrics;
mod prom;
mod report;
pub mod telemetry;
mod trace;

use std::sync::{Arc, OnceLock};

pub use manifest::{
    fingerprint_bytes, Fnv1a, RunManifest, StageTiming, MANIFEST_SCHEMA_VERSION,
};
pub use metrics::{metric_key, HistogramSnapshot, Labels, Registry, DEFAULT_BUCKETS};
pub use prom::{render_parts as render_prometheus_parts, render_prometheus};
pub use report::Reporter;
pub use telemetry::{pow2_buckets, Counter, Gauge, Histogram, Telemetry};
pub use trace::{SimTimeSource, SpanGuard, SpanRecord, Tracer};

/// 64-bit FNV-1a of a string — convenience over [`fingerprint_bytes`].
pub fn fingerprint_str(s: &str) -> u64 {
    fingerprint_bytes(s.as_bytes())
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux or when the file is
/// unreadable.
///
/// This is the OS-truth companion to the workspace's analytical byte
/// accounting (`graph.csr_bytes`, `graph.synth_peak_arena_bytes`): the
/// arena gauges say what the data structures *should* cost, `VmHWM` says
/// what the process *actually* touched. Record it as a gauge named with
/// the `_bytes` suffix so it is scrubbed from the deterministic manifest
/// view like every other memory metric.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// The observability handle: one metrics store plus one tracer.
///
/// `Obs` is a cheap *handle*: the store and tracer live behind an
/// internal `Arc`, so [`Clone`] produces a second handle to the **same**
/// state — records made through either clone land in the same manifest.
/// Pipeline code shares a handle either as `Arc<Obs>` (the historical
/// shape, still what [`Obs::noop`] returns) or by cloning the handle
/// directly; the two are interchangeable.
#[derive(Debug, Clone)]
pub struct Obs {
    enabled: bool,
    shared: Arc<ObsShared>,
}

#[derive(Debug)]
struct ObsShared {
    telemetry: Telemetry,
    tracer: Tracer,
}

impl Obs {
    /// A recording handle.
    pub fn new() -> Self {
        Self::with_tracer(true, Tracer::new())
    }

    /// A recording handle whose spans are no-ops: for a long-lived
    /// process whose concurrent requests would otherwise append to one
    /// single-writer [`Tracer`] that nothing reads or frees.
    pub fn untraced() -> Self {
        Self::with_tracer(true, Tracer::disabled())
    }

    /// A handle where every recording call is a no-op.
    pub fn disabled() -> Self {
        Self::with_tracer(false, Tracer::disabled())
    }

    fn with_tracer(enabled: bool, tracer: Tracer) -> Self {
        Self { enabled, shared: Arc::new(ObsShared { telemetry: Telemetry::new(), tracer }) }
    }

    /// The shared disabled handle. Library entry points that take no
    /// explicit `Obs` delegate here so instrumented code never needs an
    /// `Option`.
    pub fn noop() -> Arc<Obs> {
        static NOOP: OnceLock<Arc<Obs>> = OnceLock::new();
        NOOP.get_or_init(|| Arc::new(Obs::disabled())).clone()
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The metrics store, to register handles on. A handle records
    /// whether or not this `Obs` is enabled: hot paths register theirs on
    /// a recording handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// A snapshot of every metric written so far, by name or by handle.
    pub fn metrics(&self) -> Registry {
        self.shared.telemetry.snapshot()
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Wire the simulated clock driving deterministic span timings.
    pub fn set_sim_clock(&self, source: SimTimeSource) {
        self.shared.tracer.set_sim_time_source(source);
    }

    /// Add 1 to a counter.
    pub fn inc(&self, name: &str, labels: Labels) {
        self.inc_by(name, labels, 1);
    }

    /// Add `by` to a counter. A zero add makes the key appear.
    pub fn inc_by(&self, name: &str, labels: Labels, by: u64) {
        if self.enabled {
            self.shared.telemetry.add(name, labels, by);
        }
    }

    /// Set a counter to an absolute value, for exporting totals kept
    /// elsewhere (`CrawlStats`, the Lanczos work counts). It reads back
    /// exactly, and later adds count on top of it.
    pub fn set_counter(&self, name: &str, labels: Labels, value: u64) {
        if self.enabled {
            self.shared.telemetry.set_counter(name, labels, value);
        }
    }

    /// Set a gauge.
    pub fn set_gauge(&self, name: &str, labels: Labels, value: f64) {
        if self.enabled {
            self.shared.telemetry.set_gauge(name, labels, value);
        }
    }

    /// Declare the bucket bounds (non-empty, strictly ascending, finite,
    /// non-negative) of every histogram series of `name` first observed
    /// from here on. Histograms observed without a declaration use
    /// [`DEFAULT_BUCKETS`].
    pub fn declare_buckets(&self, name: &str, bounds: &[f64]) {
        if self.enabled {
            self.shared.telemetry.declare_buckets(name, bounds);
        }
    }

    /// Record one histogram observation.
    pub fn observe(&self, name: &str, labels: Labels, value: u64) {
        if self.enabled {
            self.shared.telemetry.observe(name, labels, value);
        }
    }

    /// Open a span (no-op guard when disabled).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.shared.tracer.span(name)
    }

    /// Accumulate a parallel stage's fork-join work counters
    /// (`par.tasks{stage=…}`, `par.steal_free_chunks{stage=…}`). Both are
    /// pure functions of the task decomposition — `vnet-par`'s schedule is
    /// static — so they belong in the deterministic manifest view.
    pub fn record_par_work(&self, stage: &str, tasks: u64, steal_free_chunks: u64) {
        self.inc_by("par.tasks", &[("stage", stage)], tasks);
        self.inc_by("par.steal_free_chunks", &[("stage", stage)], steal_free_chunks);
    }

    /// Record a parallel stage's measured wall-clock into the
    /// `par.stage_wall_micros{stage=…}` histogram.
    ///
    /// Wall-clock is nondeterministic by nature; histograms whose metric
    /// name ends in `wall_micros` are scrubbed from
    /// [`RunManifest::deterministic_view`], exactly like span wall times.
    pub fn observe_par_wall(&self, stage: &str, micros: u64) {
        self.observe("par.stage_wall_micros", &[("stage", stage)], micros);
    }

    /// Snapshot everything recorded so far into a [`RunManifest`].
    pub fn manifest(&self, label: &str, seed: u64) -> RunManifest {
        let Registry { counters, gauges, histograms } = self.metrics();
        RunManifest::from_parts(
            label,
            seed,
            counters,
            gauges,
            histograms,
            &self.shared.tracer.spans(),
        )
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing() {
        let obs = Obs::noop();
        obs.inc("x", &[]);
        obs.set_gauge("g", &[], 1.0);
        obs.observe("h", &[], 1);
        {
            let _s = obs.span("ghost");
        }
        let m = obs.manifest("noop", 0);
        assert!(m.counters.is_empty());
        assert!(m.gauges.is_empty());
        assert!(m.histograms.is_empty());
        assert!(m.stages.is_empty());
    }

    #[test]
    fn noop_is_shared() {
        assert!(Arc::ptr_eq(&Obs::noop(), &Obs::noop()));
    }

    #[test]
    fn manifest_snapshots_registry_and_spans() {
        let obs = Obs::new();
        obs.inc_by("api.requests", &[("endpoint", "users_show")], 3);
        {
            let _s = obs.span("crawl");
        }
        let m = obs.manifest("run", 9);
        assert_eq!(m.counters["api.requests{endpoint=users_show}"], 3);
        assert_eq!(m.stages.len(), 1);
        assert_eq!(m.label, "run");
        assert_eq!(m.seed, 9);
    }

    #[test]
    fn clones_share_one_registry_and_tracer() {
        let obs = Obs::new();
        let clone = obs.clone();
        clone.inc_by("work", &[], 2);
        obs.inc_by("work", &[], 1);
        {
            let _s = clone.span("stage");
        }
        let m = obs.manifest("shared", 0);
        assert_eq!(m.counters["work"], 3);
        assert_eq!(m.stages.len(), 1);
    }

    #[test]
    fn fingerprint_str_matches_bytes() {
        assert_eq!(fingerprint_str("abc"), fingerprint_bytes(b"abc"));
    }

    #[test]
    fn by_name_and_handle_writes_to_one_key_add_up() {
        let obs = Obs::new();
        let hits = obs.telemetry().counter("cache.hits", &[("shard", "s")]);
        obs.inc_by("cache.hits", &[("shard", "s")], 5);
        hits.add(2);
        assert_eq!(obs.metrics().counter("cache.hits", &[("shard", "s")]), 7);

        let total = obs.telemetry().counter("crawl.total", &[]);
        obs.set_counter("crawl.total", &[], 40);
        total.add(1);
        assert_eq!(obs.metrics().counter("crawl.total", &[]), 41);

        let _untouched = obs.telemetry().counter("ghost", &[]);
        let zero = obs.telemetry().counter("zero", &[]);
        zero.add(0);
        let counters = obs.manifest("two writers", 0).counters;
        assert!(!counters.contains_key("ghost"), "an untouched handle made its key");
        assert_eq!(counters.get("zero"), Some(&0), "a zero add did not make its key");
    }

    #[test]
    fn peak_rss_reports_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // Any running test binary has touched at least a megabyte.
            assert!(rss.unwrap() > 1 << 20);
        } else {
            assert!(rss.is_none());
        }
    }
}
