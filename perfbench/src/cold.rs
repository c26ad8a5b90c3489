//! The `serve-cold` workload: a closed loop of at most `nproc` callers,
//! each sending a request that is a guaranteed cache miss, so every reply
//! is computed by `core`, `temporal` or `detect` behind the serve path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verified_net::Section;

use crate::serve::{
    self, check_analyze, check_detect, detect_line, Analyze, CacheCounters, Client, Serving,
};
use crate::stats::{geomean, median, percentile};
use crate::Report;

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 9;

/// Request kinds, in the order the per-kind metrics name them.
pub const KINDS: [&str; 8] = [
    "basic",
    "degrees",
    "eigen",
    "separation",
    "centrality",
    "activity",
    "asof",
    "detect",
];
const ANALYZED: [Section; 6] = [
    Section::Basic,
    Section::Degrees,
    Section::Eigen,
    Section::Separation,
    Section::Centrality,
    Section::Activity,
];

/// `detect` replies list `top_k` suspects. Cycling it through 1..=100
/// keeps replies small, and a (day, `top_k`) pair comes back only after
/// far more other `detect` keys than the eight-entry detect cache holds.
const TOP_K_CYCLE: usize = 100;

/// One planned request.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Analyze(Analyze),
    Detect { day: u32, top_k: usize },
}

impl Op {
    fn line(&self, client: &str) -> String {
        match self {
            Op::Analyze(a) => a.line(client),
            Op::Detect { day, top_k } => detect_line(Some(*day), *top_k, client),
        }
    }
}

/// The request plan, fixed from the seed before the run starts. Every
/// block of eight requests holds each kind once, in a seeded order, so the
/// mix does not depend on the seed. The equal shares follow the uniform
/// section draw of the `serve_load` soak (`crates/bench`); that soak sends
/// no `as_of` or `detect`, so their equal share is an assumption. Only
/// the request rate depends on the shares: the latency figures combine
/// the kinds by geometric mean. Each `analyze` carries a fresh options
/// seed, and each `detect` a fresh (day, `top_k`) pair, so no request finds
/// its key in a cache. The `as_of` and `detect` days walk a seeded
/// permutation of the churn days, so a day comes back only after every
/// other day has passed through the four-entry day cache: each of them
/// materializes a day graph.
pub fn plan(seed: u64, len: usize) -> Vec<(usize, Op)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
    let seed_base: u64 = rng.random::<u64>() >> 20;
    let top_k_base: usize = rng.random_range(0..TOP_K_CYCLE);
    let mut days: Vec<u32> = (1..=serve::CHURN_DAYS).collect();
    shuffle(&mut days, &mut rng);
    let mut dated = days.iter().copied().cycle();
    let mut kinds: Vec<usize> = (0..KINDS.len()).collect();
    let mut ops = Vec::with_capacity(len);
    let mut detects = 0;
    while ops.len() < len {
        shuffle(&mut kinds, &mut rng);
        for &kind in &kinds {
            let i = ops.len();
            let seed = seed_base + i as u64;
            let op = match KINDS[kind] {
                "detect" => {
                    detects += 1;
                    Op::Detect {
                        day: dated.next().expect("the day walk cycles"),
                        top_k: 1 + (top_k_base + detects) % TOP_K_CYCLE,
                    }
                }
                "asof" => Op::Analyze(Analyze {
                    shard: serve::ADV,
                    section: Section::Basic,
                    seed,
                    day: dated.next(),
                }),
                _ => Op::Analyze(Analyze {
                    shard: serve::PLAIN[i % 2],
                    section: ANALYZED[kind],
                    seed,
                    day: None,
                }),
            };
            ops.push((kind, op));
        }
    }
    ops.truncate(len);
    ops
}

fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// One completed request.
pub struct Done {
    /// Its place in the plan.
    pub index: usize,
    pub kind: usize,
    pub op: Op,
    pub millis: f64,
    pub reply: String,
}

/// What a closed-loop window measured.
pub struct Window {
    pub done: Vec<Done>,
    pub seconds: f64,
    /// The server's cache counters over the window.
    pub cache: CacheCounters,
    /// Stage histograms before and after the window.
    pub stages_before: Vec<vnet_obs::HistogramSnapshot>,
    pub stages_after: Vec<vnet_obs::HistogramSnapshot>,
}

/// Run `callers` closed-loop callers over `ops` until the plan is spent
/// or `budget` has passed.
fn window(serving: &Serving, ops: &[(usize, Op)], callers: usize, budget: Duration) -> Window {
    let obs = serving.obs();
    let cache_before = CacheCounters::read(&obs);
    let stages_before = serve::stage_histograms(&obs);
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..callers)
            .map(|c| {
                let next = &next;
                scope.spawn(move || {
                    let mut client = Client::connect(serving.addr());
                    let name = format!("cold-{c}");
                    let mut done = Vec::new();
                    while started.elapsed() < budget {
                        let j = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&(kind, op)) = ops.get(j) else { break };
                        let line = op.line(&name);
                        let sent = Instant::now();
                        let reply = client.req(&line).unwrap_or_else(|e| e);
                        let millis = sent.elapsed().as_secs_f64() * 1e3;
                        done.push(Done {
                            index: j,
                            kind,
                            op,
                            millis,
                            reply,
                        });
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("caller thread"))
            .collect()
    });
    let seconds = started.elapsed().as_secs_f64();
    done.sort_by_key(|d| d.index);
    Window {
        done,
        seconds,
        cache: CacheCounters::read(&obs).since(&cache_before),
        stages_before,
        stages_after: serve::stage_histograms(&obs),
    }
}

/// Check every reply of a window: `analyze` against the in-process
/// oracle, `detect` for its envelope and for byte-identical repeats, and
/// the server's miss and materialization counts against the plan.
fn verify(serving: &Serving, w: &Window, nproc: usize, report: &mut Report) {
    let days: Vec<u32> = w
        .done
        .iter()
        .filter_map(|d| match d.op {
            Op::Analyze(a) => a.day,
            Op::Detect { .. } => None,
        })
        .collect();
    let oracle = serve::Oracle::new(&days);
    oracle.check_registration(serving, report);

    let analyzed: Vec<(&Done, Analyze)> = w
        .done
        .iter()
        .filter_map(|d| match d.op {
            Op::Analyze(a) => Some((d, a)),
            Op::Detect { .. } => None,
        })
        .collect();
    let chunk = analyzed.len().div_ceil(nproc).max(1);
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let oracle = &oracle;
        let workers: Vec<_> = analyzed
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(d, a)| check_analyze(&d.reply, a, oracle.expect(a)?))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread"))
            .collect()
    });
    for r in results {
        report.attempted += 1;
        if let Err(e) = r {
            report.fail(e);
        }
    }

    let mut client = Client::connect(serving.addr());
    let mut repeats = 0;
    for d in &w.done {
        let Op::Detect { day, .. } = d.op else {
            continue;
        };
        report.attempted += 1;
        if let Err(e) = check_detect(&d.reply, Some(day)) {
            report.fail(e);
            continue;
        }
        // The first three detect keys are asked again after the window.
        // A full window has evicted them from the detect cache by then,
        // so the reply is recomputed; it must repeat byte for byte.
        if repeats < 3 {
            repeats += 1;
            let again = client.req(&d.op.line("cold-check")).unwrap_or_else(|e| e);
            report.check(again == d.reply, || {
                format!("detect {:?} changed on repeat", d.op)
            });
        }
    }
    let horizon = client
        .req(&detect_line(None, 20, "cold-check"))
        .unwrap_or_else(|e| e);
    report.attempted += 1;
    if let Err(e) = check_detect(&horizon, None) {
        report.fail(e);
    }

    let completed = w.done.len() as u64;
    let dated = w
        .done
        .iter()
        .filter(|d| KINDS[d.kind] == "asof" || KINDS[d.kind] == "detect")
        .count();
    report.check(w.cache.misses == completed, || {
        format!(
            "{} cache misses for {completed} cold requests",
            w.cache.misses
        )
    });
    report.check(w.cache.asof_materializations == dated as u64, || {
        format!(
            "{} day materializations for {dated} dated cold requests",
            w.cache.asof_materializations
        )
    });
}

/// Each kind's median latency, in `KINDS` order.
pub fn kind_medians(w: &Window) -> Vec<f64> {
    (0..KINDS.len())
        .map(|k| median(&kind_millis(w, k)))
        .collect()
}

/// Latencies of one kind, in milliseconds.
fn kind_millis(w: &Window, kind: usize) -> Vec<f64> {
    w.done
        .iter()
        .filter(|d| d.kind == kind)
        .map(|d| d.millis)
        .collect()
}

/// What one `serve-cold` run measured.
pub struct ColdRun {
    /// Seconds of server start and the three `register`s.
    pub setup_s: f64,
    pub window: Window,
    pub peak_rss_mb: f64,
    /// Seconds the oracle checks took after the window.
    pub verify_s: f64,
}

/// One `serve-cold` run, shared by the untraced and the traced pass: set
/// up, send the first `len` requests of the seed's plan in a closed loop
/// of `nproc` callers until the plan is spent or `budget` has passed, then
/// check every reply and stop the server.
pub fn measure(
    seed: u64,
    len: usize,
    nproc: usize,
    budget: Duration,
    report: &mut Report,
) -> Option<ColdRun> {
    let started = Instant::now();
    let serving = match Serving::start(nproc) {
        Ok(s) => s,
        Err(e) => {
            report.fail(e);
            return None;
        }
    };
    let setup_s = started.elapsed().as_secs_f64();
    let window = window(&serving, &plan(seed, len), nproc, budget);
    let peak_rss_mb = crate::peak_rss_mb();
    let verify_started = Instant::now();
    verify(&serving, &window, nproc, report);
    serving.stop();
    Some(ColdRun {
        setup_s,
        window,
        peak_rss_mb,
        verify_s: verify_started.elapsed().as_secs_f64(),
    })
}

/// The untraced run: one measured run for `seconds`, then more set-ups
/// for the `setup_s` median.
pub fn run(seed: u64, seconds: u64, nproc: usize, report: &mut Report) {
    let Some(run) = measure(seed, 10_000, nproc, Duration::from_secs(seconds), report) else {
        return;
    };
    let mut setups = vec![run.setup_s];
    while setups.len() < SETUPS {
        let started = Instant::now();
        match Serving::start(nproc) {
            Ok(s) => {
                setups.push(started.elapsed().as_secs_f64());
                s.stop();
            }
            Err(e) => return report.fail(e),
        }
    }

    // The latency figures do not depend on the kinds' shares of the plan:
    // `p50_ms` is the geometric mean of the kind medians, so every kind
    // counts alike (the plain median of an eight-kind mix would also fall
    // between two kinds and jump between their latencies from run to
    // run), and `tail_ms` is the median of the slowest kind.
    let w = &run.window;
    let millis: Vec<f64> = w.done.iter().map(|d| d.millis).collect();
    let medians = kind_medians(w);
    let p50 = geomean(&medians);
    let slowest = medians.iter().copied().fold(0.0, f64::max);
    let rps = millis.len() as f64 / w.seconds;
    report.metric("peak_rss_mb", run.peak_rss_mb, "MiB");
    report.metric("setup_s", median(&setups), "s");
    report.metric("p50_ms", p50, "ms");
    report.metric("tail_ms", slowest, "ms");
    report.metric("ops_per_s", rps, "1/s");
    report.note("cold_p50_ms", p50, "ms");
    report.note("cold_p90_ms", percentile(&millis, 0.9), "ms");
    report.note("cold_rps", rps, "1/s");
    report.note("cold_requests", millis.len() as f64, "count");
    report.note("verify_s", run.verify_s, "s");
    for (name, ms) in KINDS.iter().zip(&medians) {
        report.note(&format!("cold.{name}_ms"), *ms, "ms");
    }
}
