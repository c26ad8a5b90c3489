//! Metric keys and the [`Registry`] snapshot.
//!
//! A series is named by its canonical key: the label set is folded into
//! the name as `name{k1=v1,k2=v2}` with the labels sorted by key, the
//! same flat encoding Prometheus exposition uses. A [`Registry`] holds
//! every written series of the store ([`crate::Telemetry`]) under its
//! key in [`BTreeMap`]s, so a snapshot is *canonically ordered*: two runs
//! that make the same writes produce byte-identical serialized
//! snapshots.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A label set, borrowed at the call site: `&[("endpoint", "friends_ids")]`.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

/// Histogram bucket upper bounds used when a metric was never given
/// explicit buckets: decades from 1 to 10⁶ (counts, seconds, sizes all
/// land usefully in a decade grid).
pub const DEFAULT_BUCKETS: [f64; 7] =
    [1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];

/// Flatten `name` + sorted labels into the canonical metric key.
pub fn metric_key(name: &str, labels: Labels) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
    key
}

/// A fixed-bucket histogram: cumulative-style upper bounds (`value <=
/// bound` lands in that bucket), one overflow bucket past the last bound,
/// plus a running count and sum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`,
    /// the final slot being the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of the observed values: an integer sum, so independent of
    /// observation order, and exact below 2⁵³.
    pub sum: f64,
}

/// A snapshot of the metrics store ([`crate::Obs::metrics`]): every
/// written series under its canonical key.
#[derive(Debug, Clone)]
pub struct Registry {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Registry {
    /// A counter's value (0 when never written).
    pub fn counter(&self, name: &str, labels: Labels) -> u64 {
        self.counters.get(&metric_key(name, labels)).copied().unwrap_or(0)
    }

    /// A gauge's value.
    pub fn gauge(&self, name: &str, labels: Labels) -> Option<f64> {
        self.gauges.get(&metric_key(name, labels)).copied()
    }

    /// Every counter, canonically ordered.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters.clone()
    }

    /// Every gauge, canonically ordered.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        self.gauges.clone()
    }

    /// Every histogram, canonically ordered.
    pub fn histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn keys_are_canonical() {
        assert_eq!(metric_key("x", &[]), "x");
        assert_eq!(
            metric_key("api.requests", &[("kind", "burst"), ("endpoint", "friends_ids")]),
            "api.requests{endpoint=friends_ids,kind=burst}"
        );
        // Label order at the call site is irrelevant.
        assert_eq!(
            metric_key("m", &[("a", "1"), ("b", "2")]),
            metric_key("m", &[("b", "2"), ("a", "1")])
        );
    }

    #[test]
    fn counters_and_gauges() {
        let obs = Obs::new();
        obs.inc("calls", &[("endpoint", "a")]);
        obs.inc_by("calls", &[("endpoint", "a")], 2);
        obs.inc("calls", &[("endpoint", "b")]);
        let r = obs.metrics();
        assert_eq!(r.counter("calls", &[("endpoint", "a")]), 3);
        assert_eq!(r.counter("calls", &[("endpoint", "b")]), 1);
        assert_eq!(r.counter("calls", &[("endpoint", "c")]), 0);
        obs.set_counter("calls", &[("endpoint", "a")], 10);
        obs.set_gauge("alpha", &[], 3.24);
        let r = obs.metrics();
        assert_eq!(r.counter("calls", &[("endpoint", "a")]), 10);
        assert_eq!(r.gauge("alpha", &[]), Some(3.24));
        assert_eq!(r.gauge("missing", &[]), None);
    }

    #[test]
    fn histogram_bucketing_is_cumulative_upper_bound() {
        let obs = Obs::new();
        obs.declare_buckets("h", &[1.0, 5.0, 15.0]);
        // <= bound lands in that bucket; past the last bound, overflow.
        for v in [0, 1, 2, 5, 14, 15, 16] {
            obs.observe("h", &[], v);
        }
        assert_eq!(obs.metrics().histograms["h"].counts, vec![2, 2, 2, 1]);
    }

    #[test]
    fn histogram_observe_with_declared_buckets() {
        let obs = Obs::new();
        obs.declare_buckets("wait_secs", &[1.0, 60.0, 900.0]);
        for v in [0, 30, 120, 901, 1_000_000] {
            obs.observe("wait_secs", &[("endpoint", "roster")], v);
        }
        let h = &obs.metrics().histograms["wait_secs{endpoint=roster}"];
        assert_eq!(h.bounds, vec![1.0, 60.0, 900.0]);
        assert_eq!(h.counts, vec![1, 1, 1, 2]);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1_001_051.0);
    }

    #[test]
    fn histogram_defaults_to_decade_buckets() {
        let obs = Obs::new();
        obs.observe("sizes", &[], 42);
        let h = &obs.metrics().histograms["sizes"];
        assert_eq!(h.bounds, DEFAULT_BUCKETS.to_vec());
        assert_eq!(h.counts[2], 1); // 42 <= 100
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bucket_declarations_rejected() {
        Obs::new().declare_buckets("bad", &[5.0, 1.0]);
    }

    #[test]
    fn snapshots_are_sorted() {
        let obs = Obs::new();
        obs.inc("z", &[]);
        obs.inc("a", &[]);
        obs.inc("m", &[("l", "2")]);
        obs.inc("m", &[("l", "1")]);
        let keys: Vec<String> = obs.metrics().counters.into_keys().collect();
        assert_eq!(keys, vec!["a", "m{l=1}", "m{l=2}", "z"]);
    }
}
