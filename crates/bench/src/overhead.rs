//! Observability-overhead microbenchmark: the cost of recording one
//! metric sample on the request hot path, by write path and thread
//! count.
//!
//! Three modes, same workload (every thread hammers the *same* series,
//! the worst contention case), each on a fresh [`Obs`]:
//!
//! * **registry** — a by-name write through an enabled [`Obs`]
//!   (`inc` / `observe`): it formats the canonical `name{k=v}` key and
//!   looks the series up under the store's one lock on every sample.
//! * **telemetry** — an interned handle ([`vnet_obs::Counter`],
//!   [`vnet_obs::Histogram`]) registered once on the same kind of store:
//!   one relaxed `fetch_add` on the recording thread's stripe (plus a
//!   bucket search for histograms).
//! * **disabled** — a disabled [`Obs`]: the floor; one branch.
//!
//! Both recording modes land in the same cells of the one metrics store;
//! they differ only in how a write finds them. The interesting number is
//! the multi-thread one: the lock serializes by-name writers, so their
//! per-op cost *grows* with threads while a handle's stays flat. The
//! JSON keys keep the mode names above, so the block recorded in
//! `BENCH_serve.json` still reads. [`check`] asserts the ordering the
//! handles exist for and is wired into the `obs-bench` verify lane.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use vnet_obs::{pow2_buckets, Obs};

/// Per-op nanoseconds for one workload in the three modes.
#[derive(Debug, Clone, Copy)]
pub struct ModeCosts {
    /// By-name write through an enabled `Obs`.
    pub registry_ns: f64,
    /// Write through an interned handle.
    pub telemetry_ns: f64,
    /// Disabled `Obs` (recording compiled in, switched off).
    pub disabled_ns: f64,
}

/// One thread count's measurements.
#[derive(Debug, Clone, Copy)]
pub struct ThreadReport {
    /// Concurrent recording threads.
    pub threads: usize,
    /// Counter increment (`Obs::inc` / `Counter::inc`).
    pub counter: ModeCosts,
    /// Histogram observation (`observe`).
    pub histogram: ModeCosts,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Samples each thread records per workload.
    pub ops_per_thread: u64,
    /// One entry per measured thread count.
    pub per_threads: Vec<ThreadReport>,
}

/// Repetitions per measurement; the reported cost is the **median**, so
/// one lucky scheduling window (on a single-core host two "concurrent"
/// threads often serialize, handing the mutex path an uncontended run)
/// or one interference spike cannot swing a comparison.
const REPS: usize = 3;

/// Median of [`time_once`] over [`REPS`] runs.
fn time_op<F>(threads: usize, ops: u64, op: F) -> f64
where
    F: Fn(u64) + Send + Sync + 'static,
{
    let op = Arc::new(op);
    let mut runs: Vec<f64> =
        (0..REPS).map(|_| time_once(threads, ops, Arc::clone(&op))).collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// Run `threads` recorders, each performing `ops` calls of `op`, and
/// return mean wall nanoseconds per op. A [`Barrier`] lines the threads
/// up so the measured window is all-threads-hot.
fn time_once<F>(threads: usize, ops: u64, op: Arc<F>) -> f64
where
    F: Fn(u64) + Send + Sync + 'static,
{
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let op = Arc::clone(&op);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..ops {
                    op(i);
                }
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    for h in handles {
        h.join().expect("overhead recorder thread");
    }
    let nanos = started.elapsed().as_nanos() as f64;
    nanos / (threads as u64 * ops) as f64
}

/// Deterministic sample value: spreads across histogram buckets without
/// a per-op RNG in the measured loop.
fn sample_value(i: u64) -> u64 {
    (i.wrapping_mul(2_654_435_761)) % 1_000_000
}

/// Measure all three modes at each of `thread_counts`.
pub fn measure(ops_per_thread: u64, thread_counts: &[usize]) -> OverheadReport {
    let per_threads = thread_counts
        .iter()
        .map(|&threads| {
            // A fresh store per mode per thread count, so no run warms
            // another's caches or inflates another's map.
            let enabled = Arc::new(Obs::new());
            let counter_registry = {
                let obs = Arc::clone(&enabled);
                time_op(threads, ops_per_thread, move |_| {
                    obs.inc("bench.counter", &[("shard", "hot")]);
                })
            };
            let histogram_registry = {
                let obs = Arc::clone(&enabled);
                time_op(threads, ops_per_thread, move |i| {
                    obs.observe("bench.hist", &[], sample_value(i));
                })
            };

            let handles = Obs::new();
            let counter = handles.telemetry().counter("bench.counter", &[("shard", "hot")]);
            let histogram = handles.telemetry().histogram("bench.hist", &[], &pow2_buckets(26));
            let counter_telemetry = time_op(threads, ops_per_thread, move |_| counter.inc());
            let histogram_telemetry =
                time_op(threads, ops_per_thread, move |i| histogram.observe(sample_value(i)));

            let disabled = Arc::new(Obs::disabled());
            // A sink the optimizer cannot elide the disabled calls into.
            let sink = Arc::new(AtomicU64::new(0));
            let counter_disabled = {
                let obs = Arc::clone(&disabled);
                let sink = Arc::clone(&sink);
                time_op(threads, ops_per_thread, move |i| {
                    obs.inc("bench.counter", &[("shard", "hot")]);
                    sink.store(i, Ordering::Relaxed);
                })
            };
            let histogram_disabled = {
                let obs = Arc::clone(&disabled);
                let sink = Arc::clone(&sink);
                time_op(threads, ops_per_thread, move |i| {
                    obs.observe("bench.hist", &[], sample_value(i));
                    sink.store(i, Ordering::Relaxed);
                })
            };

            ThreadReport {
                threads,
                counter: ModeCosts {
                    registry_ns: counter_registry,
                    telemetry_ns: counter_telemetry,
                    disabled_ns: counter_disabled,
                },
                histogram: ModeCosts {
                    registry_ns: histogram_registry,
                    telemetry_ns: histogram_telemetry,
                    disabled_ns: histogram_disabled,
                },
            }
        })
        .collect();
    OverheadReport { ops_per_thread, per_threads }
}

fn costs_json(c: &ModeCosts) -> String {
    format!(
        "{{\"registry\":{:.1},\"telemetry\":{:.1},\"disabled\":{:.1}}}",
        c.registry_ns, c.telemetry_ns, c.disabled_ns
    )
}

/// Render the report as the `obs_overhead` JSON block embedded in
/// `BENCH_serve.json` (and printed by the `obs_overhead` binary).
pub fn render_json(report: &OverheadReport) -> String {
    let rows: Vec<String> = report
        .per_threads
        .iter()
        .map(|r| {
            format!(
                "{{\"threads\":{},\"counter_ns_per_op\":{},\"histogram_ns_per_op\":{}}}",
                r.threads,
                costs_json(&r.counter),
                costs_json(&r.histogram),
            )
        })
        .collect();
    format!(
        "{{\"ops_per_thread\":{},\"per_threads\":[{}]}}",
        report.ops_per_thread,
        rows.join(","),
    )
}

/// The ordering interned handles exist to deliver: at two or more
/// recording threads, a write through an interned handle must beat a
/// by-name write, for counters and for histograms. Returns every
/// violation.
pub fn check(report: &OverheadReport) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    for r in &report.per_threads {
        if r.threads < 2 {
            continue;
        }
        if r.counter.telemetry_ns >= r.counter.registry_ns {
            violations.push(format!(
                "counter at {} threads: handle {:.1} ns/op >= by-name {:.1} ns/op",
                r.threads, r.counter.telemetry_ns, r.counter.registry_ns
            ));
        }
        if r.histogram.telemetry_ns >= r.histogram.registry_ns {
            violations.push(format!(
                "histogram at {} threads: handle {:.1} ns/op >= by-name {:.1} ns/op",
                r.threads, r.histogram.telemetry_ns, r.histogram.registry_ns
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_and_json_render() {
        let report = measure(2_000, &[1, 2]);
        assert_eq!(report.per_threads.len(), 2);
        assert_eq!(report.per_threads[0].threads, 1);
        let json = render_json(&report);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["ops_per_thread"].as_u64(), Some(2_000));
        assert!(v["per_threads"][1]["counter_ns_per_op"]["registry"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn check_flags_inverted_costs() {
        let bad = OverheadReport {
            ops_per_thread: 1,
            per_threads: vec![ThreadReport {
                threads: 2,
                counter: ModeCosts { registry_ns: 10.0, telemetry_ns: 50.0, disabled_ns: 1.0 },
                histogram: ModeCosts { registry_ns: 80.0, telemetry_ns: 20.0, disabled_ns: 1.0 },
            }],
        };
        let violations = check(&bad).expect_err("inverted counter cost must fail");
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("counter at 2 threads"));
    }
}
