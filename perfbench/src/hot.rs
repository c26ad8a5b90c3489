//! The `serve-hot` workload: an open loop of seeded Poisson arrivals over
//! pipelined connections, every request a repeat of a warmed key, so every
//! reply is a cache hit and the serve path does almost no compute.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verified_net::Section;

use vnet_obs::HistogramSnapshot;

use crate::serve::{
    self, check_analyze, check_detect, detect_line, Analyze, CacheCounters, Client, Serving,
};
use crate::stats::{median, percentile, windowed_p99};
use crate::Report;

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 3;
/// The low and high offered rates, requests per second.
const LO_RPS: f64 = 1_000.0;
const HI_RPS: f64 = 5_000.0;
/// Shares of `--seconds` the low- and high-rate phases take; the search
/// takes the rest. The low rate gets more time because it sends fewer
/// requests per second.
const LO_SHARE: f64 = 0.4;
const HI_SHARE: f64 = 0.2;
/// The share of `--seconds` the `max_rps` search takes.
const SEARCH_SHARE: f64 = 1.0 - LO_SHARE - HI_SHARE;
/// Rounds the two phases are split into, alternating, so that a slow
/// spell of the host falls on both rates alike.
const ROUNDS: usize = 4;
/// The latency limit `max_rps` is searched against.
const P99_LIMIT_MS: f64 = 10.0;
/// Steps of the `max_rps` search: ladder rungs at 2, 4, 8 and 16 times
/// the high rate, then bisections.
const LADDER: u32 = 4;
const BISECTIONS: u32 = 4;
/// Arrivals in the precomputed schedule: more than any phase sends.
const SCHEDULE_LEN: usize = 200_000;
/// Sections the analyze keys draw from: the sections of the `serve_load`
/// soak (`crates/bench`), which draws them uniformly. The shares of the
/// `as_of` and `detect` keys, which that soak does not send, are an
/// assumption.
const SECTIONS: [Section; 4] = [
    Section::Basic,
    Section::Reciprocity,
    Section::Separation,
    Section::Degrees,
];

/// One warmed key: its request line (newline included) and the reply
/// every repeat must equal.
pub struct Key {
    pub line: String,
    pub kind: KeyKind,
    pub reply: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    Analyze(Analyze),
    Detect(Option<u32>, usize),
}

/// The key set, drawn from the seed: four sections under two options
/// seeds on each plain shard, two sections as of three churn days (no
/// more than the day cache holds), and three `detect` keys, one of them
/// at the horizon.
fn keys(seed: u64) -> Vec<KeyKind> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x407);
    let seeds = [rng.random::<u64>() >> 20, rng.random::<u64>() >> 20];
    let mut days = BTreeSet::new();
    while days.len() < 3 {
        days.insert(rng.random_range(1..=serve::CHURN_DAYS));
    }
    let mut kinds = Vec::new();
    for shard in serve::PLAIN {
        for &s in &seeds {
            for section in SECTIONS {
                kinds.push(KeyKind::Analyze(Analyze {
                    shard,
                    section,
                    seed: s,
                    day: None,
                }));
            }
        }
    }
    for &day in &days {
        for section in [Section::Basic, Section::Reciprocity] {
            let a = Analyze {
                shard: serve::ADV,
                section,
                seed: seeds[0],
                day: Some(day),
            };
            kinds.push(KeyKind::Analyze(a));
        }
    }
    kinds.push(KeyKind::Detect(None, 20));
    for &day in days.iter().take(2) {
        kinds.push(KeyKind::Detect(Some(day), rng.random_range(1..=200)));
    }
    kinds
}

fn line(kind: &KeyKind, client: &str) -> String {
    match kind {
        KeyKind::Analyze(a) => a.line(client),
        KeyKind::Detect(day, top_k) => detect_line(*day, *top_k, client),
    }
}

/// The arrival schedule at unit rate, fixed from the seed before the run
/// starts: arrival times (seconds at 1 request/s) and key indices. A phase
/// at rate `r` sends arrival `i` at `at[i] / r`.
struct Schedule {
    at: Vec<f64>,
    key: Vec<usize>,
}

impl Schedule {
    fn new(seed: u64, keys: usize) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA771);
        let mut t = 0.0;
        let mut at = Vec::with_capacity(SCHEDULE_LEN);
        let mut key = Vec::with_capacity(SCHEDULE_LEN);
        for _ in 0..SCHEDULE_LEN {
            t += -(1.0 - rng.random::<f64>()).ln();
            at.push(t);
            key.push(rng.random_range(0..keys));
        }
        Schedule { at, key }
    }
}

/// Everything set-up leaves behind: the server, the warmed keys, and the
/// seconds set-up took.
struct Warmed {
    pub serving: Serving,
    pub keys: Vec<Key>,
    pub setup_s: f64,
}

/// Start the server, register the shards and warm every key. Each of
/// `nproc` connections sends every key, in the same order, at the same
/// time, so concurrent misses of one key share one computation
/// (`serve.coalesced` counts the followers); every connection must get
/// the same bytes.
fn setup(seed: u64, nproc: usize, report: &mut Report) -> Option<Warmed> {
    let started = Instant::now();
    let serving = match Serving::start(nproc) {
        Ok(s) => s,
        Err(e) => {
            report.fail(e);
            return None;
        }
    };
    let lines: Vec<(KeyKind, String)> = self::keys(seed)
        .into_iter()
        .enumerate()
        .map(|(i, kind)| (kind, line(&kind, &format!("hot-{}", i % nproc))))
        .collect();
    let mut replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..nproc)
            .map(|_| {
                let lines = &lines;
                let addr = serving.addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    lines
                        .iter()
                        .map(|(_, l)| client.req(l).unwrap_or_else(|e| e))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("warm-up thread"))
            .collect()
    });
    let setup_s = started.elapsed().as_secs_f64();
    let first = replies.swap_remove(0);
    for other in &replies {
        for ((kind, _), (a, b)) in lines.iter().zip(first.iter().zip(other)) {
            report.check(a == b, || {
                format!("warm-up replies to {kind:?} differ across connections")
            });
        }
    }
    let keys = lines
        .into_iter()
        .zip(first)
        .map(|((kind, line), reply)| Key {
            line: format!("{line}\n"),
            kind,
            reply,
        })
        .collect();
    Some(Warmed {
        serving,
        keys,
        setup_s,
    })
}

/// Check each warmed key's first reply against the oracle.
fn check_warm(seed: u64, keys: &[Key], report: &mut Report) {
    let expected = match expectations(seed) {
        Ok(e) => e,
        Err(e) => return report.fail(e),
    };
    for (key, want) in keys.iter().zip(&expected) {
        report.attempted += 1;
        let checked = match (key.kind, want) {
            (KeyKind::Analyze(a), Some(want)) => check_analyze(&key.reply, &a, *want),
            (KeyKind::Detect(day, _), None) => check_detect(&key.reply, day),
            _ => Err("key and oracle out of step".to_string()),
        };
        if let Err(e) = checked {
            report.fail(e);
        }
    }
}

/// The oracle's expectation for each key of the seed's key set.
fn expectations(seed: u64) -> Result<Vec<Option<(u64, u64)>>, String> {
    let kinds = keys(seed);
    let days: Vec<u32> = kinds
        .iter()
        .filter_map(|k| match k {
            KeyKind::Analyze(a) => a.day,
            KeyKind::Detect(..) => None,
        })
        .collect();
    let oracle = serve::Oracle::new(&days);
    kinds
        .iter()
        .map(|k| match k {
            KeyKind::Analyze(a) => oracle.expect(a).map(Some),
            KeyKind::Detect(..) => Ok(None),
        })
        .collect()
}

/// What one open-loop phase measured.
#[derive(Default)]
pub struct Phase {
    /// Latency of each reply, timed from its request's due time, in
    /// arrival order.
    pub millis: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub lag_ms: Vec<f64>,
    /// Key index of each reply.
    pub keys: Vec<usize>,
    /// Seconds from the first due time to the last reply.
    pub seconds: f64,
    pub failures: Vec<String>,
}

impl Phase {
    fn append(&mut self, other: Phase) {
        self.millis.extend(other.millis);
        self.lag_ms.extend(other.lag_ms);
        self.keys.extend(other.keys);
        self.seconds += other.seconds;
        self.failures.extend(other.failures);
    }

    pub fn p50(&self) -> f64 {
        median(&self.millis)
    }
    pub fn lag_p99(&self) -> f64 {
        percentile(&self.lag_ms, 0.99)
    }
    /// Replies per second.
    pub fn achieved(&self) -> f64 {
        self.millis.len() as f64 / self.seconds
    }
    /// The latency limit held, the generator kept within it, and nothing
    /// failed. Both tails are windowed, so one stall of the host does not
    /// fail a rate the server sustains; a growing backlog fails most
    /// windows.
    fn passes(&self) -> bool {
        self.failures.is_empty()
            && windowed_p99(&self.millis) <= P99_LIMIT_MS
            && windowed_p99(&self.lag_ms) <= P99_LIMIT_MS
    }
}

/// The client side of the open loop: `conns` pipelined connections, each
/// with a reader thread that pairs replies with requests in order.
struct OpenLoop {
    writers: Vec<TcpStream>,
    readers: Vec<BufReader<TcpStream>>,
}

impl OpenLoop {
    fn connect(serving: &Serving, conns: usize) -> OpenLoop {
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for _ in 0..conns {
            let stream =
                TcpStream::connect(serving.addr()).expect("connect to the loopback server");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            readers.push(BufReader::new(
                stream.try_clone().expect("clone the stream"),
            ));
            writers.push(stream);
        }
        OpenLoop { writers, readers }
    }

    /// Offer `rate` requests per second for `seconds`, holding to the
    /// schedule whether or not replies have come back.
    fn phase(&mut self, schedule: &Schedule, keys: &[Key], rate: f64, seconds: f64) -> Phase {
        let n = schedule
            .at
            .iter()
            .take_while(|&&t| t / rate < seconds)
            .count()
            .max(1);
        let conns = self.writers.len();
        let start = Instant::now() + Duration::from_millis(5);
        let due = |i: usize| start + Duration::from_secs_f64(schedule.at[i] / rate);
        let (mut millis, mut keys_seen, mut failures) = (vec![0.0; n], vec![0; n], Vec::new());
        let mut lag_ms = Vec::with_capacity(n);
        let mut last_reply = start;
        std::thread::scope(|scope| {
            let mut senders = Vec::new();
            let mut handles = Vec::new();
            for reader in self.readers.iter_mut() {
                let (tx, rx) = mpsc::channel::<(usize, Instant, usize)>();
                senders.push(tx);
                handles.push(scope.spawn(move || read_replies(reader, rx, keys)));
            }
            for i in 0..n {
                let due_at = due(i);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                lag_ms.push(
                    Instant::now()
                        .saturating_duration_since(due_at)
                        .as_secs_f64()
                        * 1e3,
                );
                let key = schedule.key[i];
                let conn = i % conns;
                if senders[conn].send((i, due_at, key)).is_err()
                    || self.writers[conn]
                        .write_all(keys[key].line.as_bytes())
                        .is_err()
                {
                    failures.push(format!("request {i} could not be sent"));
                }
            }
            drop(senders);
            for h in handles {
                let r = h.join().expect("reader thread");
                for (i, ms, key) in r.replies {
                    millis[i] = ms;
                    keys_seen[i] = key;
                }
                last_reply = last_reply.max(r.last);
                failures.extend(r.failures);
            }
        });
        Phase {
            millis,
            lag_ms,
            keys: keys_seen,
            seconds: last_reply.saturating_duration_since(start).as_secs_f64(),
            failures,
        }
    }
}

struct ReaderResult {
    replies: Vec<(usize, f64, usize)>,
    last: Instant,
    failures: Vec<String>,
}

fn read_replies(
    reader: &mut BufReader<TcpStream>,
    rx: mpsc::Receiver<(usize, Instant, usize)>,
    keys: &[Key],
) -> ReaderResult {
    let mut out = ReaderResult {
        replies: Vec::new(),
        last: Instant::now(),
        failures: Vec::new(),
    };
    let mut line = String::new();
    while let Ok((i, due, key)) = rx.recv() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                let now = Instant::now();
                out.last = now;
                out.replies.push((
                    i,
                    now.saturating_duration_since(due).as_secs_f64() * 1e3,
                    key,
                ));
                if line.trim_end() != keys[key].reply {
                    out.failures.push(format!(
                        "reply {i} differs from the warmed reply of key {key}"
                    ));
                }
            }
            _ => {
                out.failures
                    .push(format!("connection closed before reply {i}"));
                return out;
            }
        }
    }
    out
}

/// The low- and high-rate phases of a run of `seconds`, in alternating
/// rounds.
fn lo_hi(
    open_loop: &mut OpenLoop,
    schedule: &Schedule,
    keys: &[Key],
    seconds: f64,
) -> (Phase, Phase) {
    let (mut lo, mut hi) = (Phase::default(), Phase::default());
    for _ in 0..ROUNDS {
        lo.append(open_loop.phase(schedule, keys, LO_RPS, LO_SHARE * seconds / ROUNDS as f64));
        hi.append(open_loop.phase(schedule, keys, HI_RPS, HI_SHARE * seconds / ROUNDS as f64));
    }
    (lo, hi)
}

/// Search the highest offered rate whose phase passes. A ladder of
/// doubling rates comes first, every rung run whatever the one before did,
/// so one slow spell of the host cannot end the climb early. The search
/// then bisects between the highest passing rung and the failing rung
/// above it. Returns the achieved rate of the best passing step, or of the
/// high-rate phase `hi` when no step passed, with each step's rate and
/// verdict.
fn search(
    open_loop: &mut OpenLoop,
    schedule: &Schedule,
    keys: &[Key],
    hi: &Phase,
    seconds: f64,
    report: &mut Report,
) -> (f64, Vec<(f64, bool)>) {
    let step = seconds / (LADDER + BISECTIONS) as f64;
    let mut steps: Vec<(f64, bool, f64)> = Vec::new();
    let mut run = |rate: f64, steps: &mut Vec<(f64, bool, f64)>| {
        let p = open_loop.phase(schedule, keys, rate, step);
        report_phase(report, "search", &p);
        steps.push((rate, p.passes(), p.achieved()));
        p.passes()
    };
    for rung in 1..=LADDER {
        run(HI_RPS * f64::from(1 << rung), &mut steps);
    }
    let mut good = steps
        .iter()
        .filter(|s| s.1)
        .map(|s| s.0)
        .fold(HI_RPS, f64::max);
    let mut bad = steps
        .iter()
        .filter(|s| !s.1 && s.0 > good)
        .map(|s| s.0)
        .fold(f64::MAX, f64::min);
    if bad == f64::MAX {
        bad = 2.0 * good;
    }
    for _ in 0..BISECTIONS {
        let rate = (good + bad) / 2.0;
        if run(rate, &mut steps) {
            good = rate;
        } else {
            bad = rate;
        }
    }
    let best = steps
        .iter()
        .filter(|s| s.1 && s.0 == good)
        .map(|s| s.2)
        .fold(hi.achieved(), f64::max);
    (
        best,
        steps.into_iter().map(|(rate, ok, _)| (rate, ok)).collect(),
    )
}

/// What one `serve-hot` run measured.
pub struct HotRun {
    /// Seconds of server start, the three `register`s and the warm-up.
    pub setup_s: f64,
    /// Seconds the churn + sybil `register` took.
    pub register_adv_s: f64,
    pub keys: Vec<Key>,
    pub lo: Phase,
    pub hi: Phase,
    pub max_rps: f64,
    /// Each search step's offered rate and verdict.
    pub steps: Vec<(f64, bool)>,
    /// The server's cache counters from its start to the end of the two
    /// rate phases: the warm-up's misses and coalesced followers, and the
    /// hits of every replay.
    pub cache: CacheCounters,
    /// Stage histograms before and after the two rate phases.
    pub stages_before: Vec<HistogramSnapshot>,
    pub stages_after: Vec<HistogramSnapshot>,
    pub peak_rss_mb: f64,
}

/// One `serve-hot` run, shared by the untraced and the traced pass: set
/// up, offer the low and the high rate, run the `max_rps` search, stop
/// the server, and check every warmed reply against the oracle and that
/// no replay missed the cache.
pub fn measure(seed: u64, seconds: f64, nproc: usize, report: &mut Report) -> Option<HotRun> {
    let warmed = setup(seed, nproc, report)?;
    let register_adv_s = warmed.serving.register_adv_s;
    let schedule = Schedule::new(seed, warmed.keys.len());
    let obs = warmed.serving.obs();
    let warm = CacheCounters::read(&obs);
    let stages_before = serve::stage_histograms(&obs);
    let mut open_loop = OpenLoop::connect(&warmed.serving, nproc);
    let (lo, hi) = lo_hi(&mut open_loop, &schedule, &warmed.keys, seconds);
    let stages_after = serve::stage_histograms(&obs);
    let cache = CacheCounters::read(&obs);
    let (max_rps, steps) = search(
        &mut open_loop,
        &schedule,
        &warmed.keys,
        &hi,
        SEARCH_SHARE * seconds,
        report,
    );
    drop(open_loop);
    let misses = CacheCounters::read(&obs).since(&warm).misses;
    warmed.serving.stop();
    let peak_rss_mb = crate::peak_rss_mb();

    check_warm(seed, &warmed.keys, report);
    report_phase(report, "lo", &lo);
    report_phase(report, "hi", &hi);
    report.check(misses == 0, || {
        format!("{misses} cache misses while replaying warmed keys")
    });
    Some(HotRun {
        setup_s: warmed.setup_s,
        register_adv_s,
        keys: warmed.keys,
        lo,
        hi,
        max_rps,
        steps,
        cache,
        stages_before,
        stages_after,
        peak_rss_mb,
    })
}

/// The untraced run: one measured run of `seconds`, then more set-ups
/// for the `setup_s` median, each with the same warm-up replies.
pub fn run(seed: u64, seconds: u64, nproc: usize, report: &mut Report) {
    let Some(run) = measure(seed, seconds as f64, nproc, report) else {
        return;
    };
    let mut setups = vec![run.setup_s];
    while setups.len() < SETUPS {
        let Some(w) = setup(seed, nproc, report) else {
            return;
        };
        setups.push(w.setup_s);
        for (a, b) in run.keys.iter().zip(&w.keys) {
            report.check(a.reply == b.reply, || {
                format!("warm-up reply to {:?} changed across servers", a.kind)
            });
        }
        w.serving.stop();
    }

    report.metric("peak_rss_mb", run.peak_rss_mb, "MiB");
    report.metric("setup_s", median(&setups), "s");
    report.metric("p50_ms", run.lo.p50(), "ms");
    report.metric("tail_ms", windowed_p99(&run.lo.millis), "ms");
    report.metric("ops_per_s", run.max_rps, "1/s");
    for (name, value, unit) in rates(&run.lo, &run.hi, run.max_rps) {
        report.note(name, value, unit);
    }
    for (rate, ok) in run.steps {
        report.note(&format!("search.{rate:.0}rps_ok"), ok as u8 as f64, "bool");
    }
}

/// The figures of the two rates and the search, by name.
pub fn rates(lo: &Phase, hi: &Phase, max_rps: f64) -> [(&'static str, f64, &'static str); 5] {
    [
        ("lo_p50_ms", lo.p50(), "ms"),
        ("lo_p99_ms", windowed_p99(&lo.millis), "ms"),
        ("hi_p50_ms", hi.p50(), "ms"),
        ("hi_p99_ms", windowed_p99(&hi.millis), "ms"),
        ("max_rps", max_rps, "1/s"),
    ]
}

/// Count a phase's replies and failures into the report.
fn report_phase(report: &mut Report, name: &str, p: &Phase) {
    report.attempted += p.millis.len() as u64;
    for f in &p.failures {
        report.fail(format!("{name}: {f}"));
    }
}
