//! The metrics store: one interned, growable series per canonical key.
//!
//! Every counter, gauge and histogram of an [`crate::Obs`] is a *series*
//! in its [`Telemetry`], registered once under its canonical key
//! (`name{k1=v1,k2=v2}`, see [`crate::metric_key`]) and owning its cells.
//! Two kinds of write reach the same cells:
//!
//! * **Handles.** [`Telemetry::counter`], [`Telemetry::gauge`] and
//!   [`Telemetry::histogram`] register a series, or find the one already
//!   under that key, and return a [`Counter`], [`Gauge`] or [`Histogram`]
//!   that points at its cells. Recording through a handle is a relaxed
//!   atomic add on the calling thread's stripe: no lock, no key, no
//!   allocation.
//! * **By name.** [`crate::Obs::inc`], `inc_by`, `set_counter`,
//!   `set_gauge` and `observe` format the key, find or register the
//!   series under the store's one lock, and write the same cells. Writes
//!   to one key by name and by handle add up.
//!
//! Counter and histogram cells are striped over 16 stripes, each
//! starting on its own cache line. A thread always writes the stripe it
//! was assigned when it first recorded, so recorders on different stripes
//! never write one line. A gauge is one last-write-wins slot: striping a
//! current value has no meaning. Histogram bounds are fixed when the
//! series is registered, observations are `u64`s, and every cell (bucket
//! counts, count, sum) is an integer add.
//!
//! [`Telemetry::snapshot`] sums each series' stripes into a
//! [`Registry`]. Integer addition is associative, so a snapshot is a pure
//! function of the multiset of writes: byte-identical across thread
//! counts and interleavings (the property `tests/tests/obs_telemetry.rs`
//! pins). A histogram's sum becomes the snapshot's `f64`, exact below
//! 2⁵³. A series that was registered but never written stays out of
//! snapshots, so registering a catalog of handles changes no snapshot of
//! a workload that leaves them alone. Series are never removed and there
//! is no capacity: the store grows by one series per new key.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::metrics::{metric_key, HistogramSnapshot, Labels, Registry, DEFAULT_BUCKETS};

/// Stripes per counter and per histogram.
const STRIPES: usize = 16;

const CELLS_PER_LINE: usize = 8;

/// One cache line of cells.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Line([AtomicU64; CELLS_PER_LINE]);

/// `width` integer cells per stripe, each stripe starting on its own
/// cache line.
#[derive(Debug)]
struct StripedCells {
    /// Cells from one stripe's first cell to the next's.
    stride: usize,
    lines: Box<[Line]>,
}

impl StripedCells {
    fn new(width: usize) -> Self {
        let lines_per_stripe = width.div_ceil(CELLS_PER_LINE);
        Self {
            stride: lines_per_stripe * CELLS_PER_LINE,
            lines: (0..STRIPES * lines_per_stripe).map(|_| Line::default()).collect(),
        }
    }

    fn cell(&self, stripe: usize, i: usize) -> &AtomicU64 {
        let flat = stripe * self.stride + i;
        &self.lines[flat / CELLS_PER_LINE].0[flat % CELLS_PER_LINE]
    }

    /// Cell `i` summed over the stripes.
    fn sum(&self, i: usize) -> u64 {
        (0..STRIPES).map(|s| self.cell(s, i).load(Ordering::Relaxed)).sum()
    }
}

/// This thread's stripe: threads are numbered in the order they first
/// record, round-robin over the stripes, process-wide.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

#[derive(Debug)]
struct CounterCells {
    cells: StripedCells,
    /// Set by a zero add and by a set: the series exists even at 0.
    touched: AtomicBool,
}

impl CounterCells {
    fn new() -> Self {
        Self { cells: StripedCells::new(1), touched: AtomicBool::new(false) }
    }

    fn add(&self, by: u64) {
        if by == 0 {
            self.touched.store(true, Ordering::Relaxed);
        } else {
            self.cells.cell(stripe(), 0).fetch_add(by, Ordering::Relaxed);
        }
    }

    /// Make the stripes sum to `value`. An add racing the set may land
    /// on either side of it, stripe by stripe; sets export totals kept
    /// elsewhere and do not race adds to their key.
    fn set(&self, value: u64) {
        let mine = stripe();
        for s in 0..STRIPES {
            self.cells.cell(s, 0).store(if s == mine { value } else { 0 }, Ordering::Relaxed);
        }
        self.touched.store(true, Ordering::Relaxed);
    }

    fn value(&self) -> Option<u64> {
        let total = self.cells.sum(0);
        (total > 0 || self.touched.load(Ordering::Relaxed)).then_some(total)
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    bits: AtomicU64,
    touched: AtomicBool,
}

impl GaugeCell {
    fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
        self.touched.store(true, Ordering::Relaxed);
    }

    fn value(&self) -> Option<f64> {
        self.touched
            .load(Ordering::Relaxed)
            .then(|| f64::from_bits(self.bits.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct HistogramCells {
    bounds: Vec<f64>,
    /// `v` lands in the first bucket with `v <= threshold`, else in the
    /// overflow bucket: `v <= bound` ⟺ `v <= floor(bound)` for `u64`s.
    thresholds: Box<[u64]>,
    /// Per stripe: a count per bound, the overflow count, the
    /// observation count, then the sum.
    cells: StripedCells,
}

impl HistogramCells {
    fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            thresholds: bounds.iter().map(|&b| b.floor() as u64).collect(),
            cells: StripedCells::new(bounds.len() + 3),
        }
    }

    fn observe(&self, value: u64) {
        let s = stripe();
        let n = self.thresholds.len();
        // Sorted thresholds: a binary search, 5 compares for the 27
        // power-of-two stage bounds.
        let bucket = self.thresholds.partition_point(|&t| t < value);
        self.cells.cell(s, bucket).fetch_add(1, Ordering::Relaxed);
        self.cells.cell(s, n + 1).fetch_add(1, Ordering::Relaxed);
        self.cells.cell(s, n + 2).fetch_add(value, Ordering::Relaxed);
    }

    fn value(&self) -> Option<HistogramSnapshot> {
        let n = self.bounds.len();
        let count = self.cells.sum(n + 1);
        (count > 0).then(|| HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: (0..=n).map(|i| self.cells.sum(i)).collect(),
            count,
            sum: self.cells.sum(n + 2) as f64,
        })
    }
}

/// Handle to a counter series. Clones share the series.
#[derive(Debug, Clone)]
pub struct Counter(Arc<CounterCells>);

impl Counter {
    /// Add `by`: one relaxed `fetch_add` on this thread's stripe. A zero
    /// add makes the series appear in snapshots.
    #[inline]
    pub fn add(&self, by: u64) {
        self.0.add(by);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.add(1);
    }
}

/// Handle to a gauge series: one slot, last write wins.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Store `value`, bit for bit.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.set(value);
    }
}

/// Handle to a fixed-bucket histogram series.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Record one observation: a binary search over the bounds, then
    /// three relaxed `fetch_add`s on this thread's stripe.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.0.observe(value);
    }
}

/// Power-of-two histogram bounds `[2^0, 2^1, …, 2^max_exp]`: the log
/// bucket grid for microsecond latencies (`max_exp = 26` spans 1 µs to
/// ~67 s with ≤ 2× relative error).
pub fn pow2_buckets(max_exp: u32) -> Vec<f64> {
    (0..=max_exp).map(|e| (1u64 << e) as f64).collect()
}

/// Histogram bounds must be non-empty, strictly ascending, finite and
/// non-negative: observations are `u64`s.
fn check_bounds(bounds: &[f64]) {
    assert!(!bounds.is_empty(), "histogram needs at least one bound");
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "histogram bounds must be strictly ascending"
    );
    assert!(
        bounds.iter().all(|b| b.is_finite() && *b >= 0.0),
        "histogram bounds must be finite and non-negative"
    );
}

#[derive(Default)]
struct Series {
    counters: BTreeMap<String, Arc<CounterCells>>,
    gauges: BTreeMap<String, Arc<GaugeCell>>,
    histograms: BTreeMap<String, Arc<HistogramCells>>,
    /// Bounds declared per metric name, for histograms first observed by
    /// name.
    declared_bounds: BTreeMap<String, Vec<f64>>,
}

impl Series {
    fn counter(&mut self, key: String) -> &Arc<CounterCells> {
        self.counters.entry(key).or_insert_with(|| Arc::new(CounterCells::new()))
    }

    fn gauge(&mut self, key: String) -> &Arc<GaugeCell> {
        self.gauges.entry(key).or_default()
    }
}

/// The metrics store. See the module docs: register handles once and
/// record through them without a lock, or write by name through
/// [`crate::Obs`]; [`Telemetry::snapshot`] reads both.
#[derive(Default)]
pub struct Telemetry {
    series: Mutex<Series>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let series = self.lock();
        f.debug_struct("Telemetry")
            .field("counters", &series.counters.len())
            .field("gauges", &series.gauges.len())
            .field("histograms", &series.histograms.len())
            .finish()
    }
}

impl Telemetry {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every change under the lock is one map insert, and every check
    /// that can panic runs before it, so a panic never leaves the store
    /// half-written: a poisoned lock is taken as is.
    fn lock(&self) -> MutexGuard<'_, Series> {
        self.series.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register (or look up) the counter `name{labels}`. The same key
    /// always yields the same series, whatever the label order.
    pub fn counter(&self, name: &str, labels: Labels) -> Counter {
        Counter(Arc::clone(self.lock().counter(metric_key(name, labels))))
    }

    /// Register (or look up) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: Labels) -> Gauge {
        Gauge(Arc::clone(self.lock().gauge(metric_key(name, labels))))
    }

    /// Register (or look up) the histogram `name{labels}` with the given
    /// non-empty, strictly ascending, finite, non-negative bounds. The
    /// bounds are part of the series: registering its key again with
    /// other bounds panics.
    pub fn histogram(&self, name: &str, labels: Labels, bounds: &[f64]) -> Histogram {
        check_bounds(bounds);
        let key = metric_key(name, labels);
        let mut series = self.lock();
        if let Some(cells) = series.histograms.get(&key) {
            assert!(cells.bounds == bounds, "histogram {key} re-registered with different bounds");
            return Histogram(Arc::clone(cells));
        }
        let cells = Arc::new(HistogramCells::new(bounds));
        series.histograms.insert(key, Arc::clone(&cells));
        Histogram(cells)
    }

    /// Add `by` to the counter `name{labels}`.
    pub(crate) fn add(&self, name: &str, labels: Labels, by: u64) {
        self.lock().counter(metric_key(name, labels)).add(by);
    }

    /// Set the counter `name{labels}` to `value`.
    pub(crate) fn set_counter(&self, name: &str, labels: Labels, value: u64) {
        self.lock().counter(metric_key(name, labels)).set(value);
    }

    /// Set the gauge `name{labels}`.
    pub(crate) fn set_gauge(&self, name: &str, labels: Labels, value: f64) {
        self.lock().gauge(metric_key(name, labels)).set(value);
    }

    /// Declare the bounds of every histogram of `name` first observed by
    /// name from here on; the others use [`DEFAULT_BUCKETS`].
    pub(crate) fn declare_buckets(&self, name: &str, bounds: &[f64]) {
        check_bounds(bounds);
        self.lock().declared_bounds.insert(name.to_string(), bounds.to_vec());
    }

    /// Record one observation into the histogram `name{labels}`.
    pub(crate) fn observe(&self, name: &str, labels: Labels, value: u64) {
        let key = metric_key(name, labels);
        let mut series = self.lock();
        let Series { histograms, declared_bounds, .. } = &mut *series;
        histograms
            .entry(key)
            .or_insert_with(|| {
                let bounds = declared_bounds.get(name).map_or(&DEFAULT_BUCKETS[..], Vec::as_slice);
                Arc::new(HistogramCells::new(bounds))
            })
            .observe(value);
    }

    /// Every series written so far, its stripes summed, in canonical key
    /// order. Recording may go on during a snapshot: each cell is read
    /// once, so a counter that is only added to never moves backward
    /// from one snapshot to the next.
    pub fn snapshot(&self) -> Registry {
        let series = self.lock();
        Registry {
            counters: series
                .counters
                .iter()
                .filter_map(|(k, c)| Some((k.clone(), c.value()?)))
                .collect(),
            gauges: series
                .gauges
                .iter()
                .filter_map(|(k, g)| Some((k.clone(), g.value()?)))
                .collect(),
            histograms: series
                .histograms
                .iter()
                .filter_map(|(k, h)| Some((k.clone(), h.value()?)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_interned_and_idempotent() {
        let t = Telemetry::new();
        let a = t.counter("serve.requests", &[("shard", "alpha")]);
        let b = t.counter("serve.requests", &[("shard", "alpha")]);
        let c = t.counter("serve.requests", &[("shard", "beta")]);
        // Label order at the call site is irrelevant.
        let d = t.counter("m", &[("a", "1"), ("b", "2")]);
        let e = t.counter("m", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.add(2);
        c.inc();
        d.inc();
        e.inc();
        let counters = t.snapshot().counters;
        assert_eq!(counters["serve.requests{shard=alpha}"], 3);
        assert_eq!(counters["serve.requests{shard=beta}"], 1);
        assert_eq!(counters["m{a=1,b=2}"], 2);
        assert_eq!(counters.len(), 3);
    }

    #[test]
    fn counters_merge_across_stripes() {
        let t = Telemetry::new();
        let id = t.counter("work", &[]);
        // More threads than stripes: some stripes take two writers.
        std::thread::scope(|scope| {
            for _ in 0..STRIPES + 4 {
                let id = id.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        id.inc();
                    }
                });
            }
        });
        assert_eq!(t.snapshot().counter("work", &[]), (STRIPES as u64 + 4) * 1000);
    }

    #[test]
    fn untouched_metrics_stay_out_of_the_merge() {
        let t = Telemetry::new();
        let used = t.counter("used", &[]);
        t.counter("ghost", &[]);
        t.gauge("ghost_gauge", &[]);
        t.histogram("ghost_hist", &[], &[1.0, 10.0]);
        used.inc();
        let snapshot = t.snapshot();
        assert_eq!(snapshot.counters.into_keys().collect::<Vec<_>>(), vec!["used"]);
        assert!(snapshot.gauges.is_empty());
        assert!(snapshot.histograms.is_empty());
    }

    #[test]
    fn zero_add_materializes_the_key() {
        let t = Telemetry::new();
        t.counter("maybe", &[]).add(0);
        t.add("named", &[], 0);
        t.set_counter("reset", &[], 0);
        let counters = t.snapshot().counters;
        assert_eq!((counters["maybe"], counters["named"], counters["reset"]), (0, 0, 0));
    }

    #[test]
    fn gauges_are_last_write_wins_and_exact() {
        let t = Telemetry::new();
        let g = t.gauge("depth", &[("shard", "a")]);
        g.set(3.0);
        g.set(0.1 + 0.2); // bit-exact round-trip, not re-rounded
        assert_eq!(t.snapshot().gauge("depth", &[("shard", "a")]), Some(0.1 + 0.2));
        t.set_gauge("depth", &[("shard", "a")], 7.5);
        assert_eq!(t.snapshot().gauge("depth", &[("shard", "a")]), Some(7.5));
    }

    #[test]
    fn pow2_buckets_span_the_latency_grid() {
        let b = pow2_buckets(26);
        assert_eq!(b.len(), 27);
        assert_eq!(b[0], 1.0);
        assert_eq!(b[26], (1u64 << 26) as f64);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fractional_bounds_floor_correctly() {
        let t = Telemetry::new();
        let h = t.histogram("frac", &[], &[1.5, 10.0]);
        h.observe(1); // 1 <= 1.5
        h.observe(2); // 2 > 1.5, <= 10
        assert_eq!(t.snapshot().histograms["frac"].counts, vec![1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_are_identity() {
        let t = Telemetry::new();
        t.histogram("h", &[], &[1.0, 2.0]);
        t.histogram("h", &[], &[1.0, 3.0]);
    }

    #[test]
    fn a_set_counter_reads_back_and_handle_adds_count_on_top() {
        let t = Telemetry::new();
        let c = t.counter("total", &[]);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let c = c.clone();
                scope.spawn(move || c.add(5));
            }
        });
        t.set_counter("total", &[], 40);
        assert_eq!(t.snapshot().counter("total", &[]), 40);
        c.inc();
        assert_eq!(t.snapshot().counter("total", &[]), 41);
    }
}
