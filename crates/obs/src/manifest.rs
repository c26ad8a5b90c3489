//! The serializable run manifest: what a run did, in one artefact.
//!
//! A [`RunManifest`] captures the seed, every counter/gauge/histogram in
//! the metrics snapshot, the span tree as per-stage timings, and fingerprints of
//! the run's outputs. Its JSON form is canonical — maps are ordered,
//! floats round-trip — so the *deterministic view* (wall-clock fields
//! zeroed, see [`RunManifest::deterministic_json`]) of two same-seed runs
//! is byte-identical, which is the contract golden tests pin.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

pub use crate::metrics::HistogramSnapshot;
use crate::trace::SpanRecord;

/// Manifest schema version, bumped on breaking layout changes.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// One stage (span) of the run, flattened from the span tree in open
/// order; `depth` reconstructs the nesting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name ("crawl.harvest", "analysis.degrees.bootstrap", ...).
    pub name: String,
    /// Nesting depth (0 = root stage).
    pub depth: u64,
    /// Simulated seconds spent (deterministic; 0 without a simulated
    /// clock).
    pub sim_secs: u64,
    /// Wall-clock microseconds spent (nondeterministic; zeroed in the
    /// deterministic view).
    pub wall_micros: u64,
}

/// The run manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Human label for the run ("repro --all", "faulty_crawl", ...).
    pub label: String,
    /// The seed that replays the run.
    pub seed: u64,
    /// Counter snapshot (canonically ordered).
    pub counters: BTreeMap<String, u64>,
    /// Gauge snapshot.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Per-stage timings, span-tree order.
    pub stages: Vec<StageTiming>,
    /// Output fingerprints: name → 64-bit FNV-1a hex digest.
    pub fingerprints: BTreeMap<String, String>,
    /// Total wall-clock microseconds (nondeterministic; zeroed in the
    /// deterministic view).
    pub wall_total_micros: u64,
}

impl RunManifest {
    pub(crate) fn from_parts(
        label: &str,
        seed: u64,
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, f64>,
        histograms: BTreeMap<String, HistogramSnapshot>,
        spans: &[SpanRecord],
    ) -> Self {
        let stages = spans
            .iter()
            .map(|s| StageTiming {
                name: s.name.clone(),
                depth: s.depth as u64,
                sim_secs: s.sim_end.saturating_sub(s.sim_start),
                wall_micros: s.wall_nanos / 1_000,
            })
            .collect();
        let wall_total_micros = spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.wall_nanos / 1_000)
            .sum();
        Self {
            schema_version: MANIFEST_SCHEMA_VERSION,
            label: label.to_string(),
            seed,
            counters,
            gauges,
            histograms,
            stages,
            fingerprints: BTreeMap::new(),
            wall_total_micros,
        }
    }

    /// Record an output fingerprint (stored as a hex digest).
    pub fn add_fingerprint(&mut self, name: &str, digest: u64) {
        self.fingerprints.insert(name.to_string(), format!("{digest:016x}"));
    }

    /// Fingerprint a serializable output and record it: hashes the
    /// canonical JSON of `value`.
    pub fn fingerprint_output<T: Serialize>(&mut self, name: &str, value: &T) {
        let json = serde_json::to_string(value).expect("manifest fingerprints serialize");
        self.add_fingerprint(name, fingerprint_bytes(json.as_bytes()));
    }

    /// The manifest with every wall-clock field zeroed: the portion that
    /// must be bit-identical across same-seed runs.
    ///
    /// Besides the per-stage and total wall times, this drops any
    /// *histogram* whose metric name (the part before the label braces)
    /// ends in `wall_micros` — the workspace convention for wall-clock
    /// observation series such as `par.stage_wall_micros{stage=…}`. Those
    /// exist for profiling, not for replay comparison.
    ///
    /// It likewise drops any *gauge* whose name ends in `_bytes` — the
    /// workspace convention for memory telemetry (`graph.csr_bytes`,
    /// `graph.synth_peak_arena_bytes`, `mem.peak_rss_bytes`). Memory is a
    /// first-class benchmark dimension, but allocator capacity growth and
    /// OS high-water marks are environment-dependent, so those gauges are
    /// scrubbed exactly like wall clocks: recorded for humans and
    /// `BENCH_*.json`, invisible to fingerprint comparison.
    pub fn deterministic_view(&self) -> RunManifest {
        let mut m = self.clone();
        m.wall_total_micros = 0;
        for s in &mut m.stages {
            s.wall_micros = 0;
        }
        m.histograms.retain(|key, _| {
            let name = key.split('{').next().unwrap_or(key);
            !name.ends_with("wall_micros")
        });
        m.gauges.retain(|key, _| {
            let name = key.split('{').next().unwrap_or(key);
            !name.ends_with("_bytes")
        });
        m
    }

    /// Full pretty JSON, wall-clock fields included.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Pretty JSON of the [deterministic view](Self::deterministic_view):
    /// the replay-comparable artefact.
    pub fn deterministic_json(&self) -> String {
        serde_json::to_string_pretty(&self.deterministic_view()).expect("manifest serializes")
    }

    /// Human-readable run report: stage tree, counters, histograms,
    /// fingerprints.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run manifest: {} (seed {:#x}, schema v{})\n",
            self.label, self.seed, self.schema_version
        ));
        if !self.stages.is_empty() {
            out.push_str("stages (sim = simulated seconds, wall = measured):\n");
            for s in &self.stages {
                let indent = "  ".repeat(s.depth as usize + 1);
                out.push_str(&format!(
                    "{indent}{:<width$} sim {:>8}s  wall {}\n",
                    s.name,
                    s.sim_secs,
                    fmt_micros(s.wall_micros),
                    width = 40usize.saturating_sub(2 * s.depth as usize),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<52} {v:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<52} {v:>16.6}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {k:<52} n={} sum={:.3}\n    le: {:?} -> {:?}\n",
                    h.count, h.sum, h.bounds, h.counts
                ));
            }
        }
        if !self.fingerprints.is_empty() {
            out.push_str("output fingerprints:\n");
            for (k, v) in &self.fingerprints {
                out.push_str(&format!("  {k:<52} {v}\n"));
            }
        }
        out.push_str(&format!("total wall time: {}\n", fmt_micros(self.wall_total_micros)));
        out
    }
}

fn fmt_micros(micros: u64) -> String {
    if micros >= 10_000_000 {
        format!("{:.1}s", micros as f64 / 1e6)
    } else if micros >= 10_000 {
        format!("{:.1}ms", micros as f64 / 1e3)
    } else {
        format!("{micros}us")
    }
}

/// Streaming 64-bit FNV-1a — the workspace's one stable fingerprint
/// primitive. Bytes may arrive in any chunking: the hash depends only on
/// their concatenation, so a serializer can write straight into it
/// ([`std::io::Write`]) instead of into a buffer that is hashed after.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty hash (the FNV-1a offset basis).
    pub const fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of every byte folded in so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl std::io::Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// 64-bit FNV-1a over raw bytes: [`Fnv1a`] over one chunk.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn sample_obs() -> Obs {
        let obs = Obs::new();
        obs.inc("api.requests", &[("endpoint", "verified_ids")]);
        obs.inc_by("api.requests", &[("endpoint", "friends_ids")], 7);
        obs.set_gauge("analysis.alpha", &[], 3.24);
        obs.observe("crawl.backoff_secs", &[], 5);
        {
            let _root = obs.span("crawl");
            let _child = obs.span("crawl.harvest");
        }
        obs
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let mut m = sample_obs().manifest("test", 42);
        m.add_fingerprint("graph", 0xDEADBEEF);
        let json = m.to_json();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn deterministic_view_zeroes_wall_fields_only() {
        let m = sample_obs().manifest("test", 42);
        let d = m.deterministic_view();
        assert_eq!(d.wall_total_micros, 0);
        assert!(d.stages.iter().all(|s| s.wall_micros == 0));
        assert_eq!(d.counters, m.counters);
        assert_eq!(d.stages.len(), m.stages.len());
        assert_eq!(d.stages[0].name, "crawl");
        assert_eq!(d.stages[1].depth, 1);
    }

    #[test]
    fn deterministic_view_scrubs_wall_clock_histograms() {
        let obs = Obs::new();
        obs.observe_par_wall("bootstrap", 1234);
        obs.record_par_work("bootstrap", 40, 40);
        obs.observe("crawl.backoff_secs", &[], 5);
        let m = obs.manifest("t", 1);
        assert!(m.histograms.keys().any(|k| k.starts_with("par.stage_wall_micros")));
        let d = m.deterministic_view();
        assert!(
            !d.histograms.keys().any(|k| k.starts_with("par.stage_wall_micros")),
            "wall-clock histograms must not survive the deterministic view"
        );
        // Deterministic series survive.
        assert!(d.histograms.contains_key("crawl.backoff_secs"));
        assert_eq!(d.counters["par.tasks{stage=bootstrap}"], 40);
        assert_eq!(d.counters["par.steal_free_chunks{stage=bootstrap}"], 40);
    }

    #[test]
    fn deterministic_view_scrubs_memory_gauges() {
        let obs = Obs::new();
        obs.set_gauge("graph.csr_bytes", &[], 1.6e6);
        obs.set_gauge("mem.peak_rss_bytes", &[("phase", "build")], 9.9e8);
        obs.set_gauge("analysis.alpha", &[], 3.24);
        let m = obs.manifest("t", 1);
        let d = m.deterministic_view();
        assert!(!d.gauges.contains_key("graph.csr_bytes"));
        assert!(!d.gauges.keys().any(|k| k.starts_with("mem.peak_rss_bytes")));
        // Analytical gauges survive; the full manifest keeps everything.
        assert!(d.gauges.contains_key("analysis.alpha"));
        assert!(m.gauges.contains_key("graph.csr_bytes"));
    }

    #[test]
    fn fingerprints_are_stable() {
        assert_eq!(fingerprint_bytes(b""), 0xCBF2_9CE4_8422_2325);
        let a = fingerprint_bytes(b"verified-net");
        assert_eq!(a, fingerprint_bytes(b"verified-net"));
        assert_ne!(a, fingerprint_bytes(b"verified-net!"));
        // The published 64-bit FNV-1a test vectors.
        assert_eq!(fingerprint_bytes(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fingerprint_bytes(b"foobar"), 0x8594_4171_F739_67E8);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Any chunking of a byte string, through `update` or through
        /// `io::Write`, hashes to the one-chunk fingerprint of the whole.
        #[test]
        fn any_chunking_hashes_to_the_whole_string(
            bytes in proptest::collection::vec(0u8..=255, 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..12),
        ) {
            use std::io::Write;
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let (mut by_update, mut by_write) = (Fnv1a::new(), Fnv1a::new());
            let mut start = 0;
            for end in cuts.into_iter().chain([bytes.len()]) {
                by_update.update(&bytes[start..end]);
                by_write.write_all(&bytes[start..end]).expect("hashing cannot fail");
                start = end;
            }
            proptest::prop_assert_eq!(by_update.finish(), fingerprint_bytes(&bytes));
            proptest::prop_assert_eq!(by_write.finish(), fingerprint_bytes(&bytes));
        }
    }

    #[test]
    fn fingerprint_output_uses_canonical_json() {
        let mut m1 = sample_obs().manifest("a", 1);
        let mut m2 = sample_obs().manifest("a", 1);
        m1.fingerprint_output("vec", &vec![1u64, 2, 3]);
        m2.fingerprint_output("vec", &vec![1u64, 2, 3]);
        assert_eq!(m1.fingerprints, m2.fingerprints);
    }

    #[test]
    fn text_report_mentions_everything() {
        let mut m = sample_obs().manifest("demo", 7);
        m.add_fingerprint("graph", 1);
        let text = m.render_text();
        assert!(text.contains("run manifest: demo"));
        assert!(text.contains("crawl.harvest"));
        assert!(text.contains("api.requests{endpoint=friends_ids}"));
        assert!(text.contains("analysis.alpha"));
        assert!(text.contains("crawl.backoff_secs"));
        assert!(text.contains("output fingerprints"));
    }
}
