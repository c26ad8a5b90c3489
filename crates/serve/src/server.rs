//! The TCP server: accept loop, shared state, request dispatch, and
//! graceful shutdown.
//!
//! Request path (see `docs/ARCHITECTURE.md` for the full picture):
//! **admission → shard router → executor**. One registered thread per
//! connection frames request lines through [`crate::framing::LineReader`]
//! (slow writers keep their partial bytes across read-timeout ticks);
//! `analyze` and `detect` take one path, [`handle_job`]: the per-client
//! token-bucket [`Admission`] gate (`rate_limited` + deterministic
//! `retry_after_ms` on rejection, charged through `twittersim`'s
//! `RateWindow`), then their snapshot's [`Shard`] — each shard owns a
//! bounded-queue worker-pool [`Executor`] (refusals get `queue_full`) and
//! its caches, so a hot snapshot cannot starve the others. On the worker,
//! every section, day graph and `detect` reply comes from one
//! [`Memo::get_or_fill`](crate::cache::Memo::get_or_fill). Shutdown is
//! event-driven — every shard drains on its executor's quiescence
//! condvar, a loopback wake replaces accept polling, and every worker
//! and connection thread is joined before the listener dies.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SynthesisConfig,
    VnetError,
};
use vnet_detect::{evaluate, run_detection, DetectConfig, DetectInput};
use vnet_graph::NodeId;
use vnet_obs::{render_prometheus_parts, Obs};
use vnet_par::ParPool;
use vnet_synth::{
    inject_sybil, ChurnConfig, ChurnEvent, ChurnStream, SybilConfig, SybilWorkload,
};
use vnet_temporal::{EngineConfig, Timeline};

use crate::admission::{Admission, AdmissionClock, AdmissionPolicy};
use crate::cache::{CacheKey, CachedSection, Fill};
use crate::conn::{ConnRegistry, READ_TICK};
use crate::executor::{CancelToken, SubmitRefusal};
use crate::monitor::{MonitorSample, SelfMonitor, SelfMonitorConfig};
use crate::protocol::{
    error_reply, json_str, parse_request, ChurnSpec, MetricsFormat, RegisterSource, Request,
};
use crate::shards::{Shard, ShardRegistry, SnapshotData, SybilState, TemporalState};
use crate::stats::{observe_since, ServeStats};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Width of the shared fork-join pool analysis runs on.
    pub threads: usize,
    /// Worker threads in **each shard's** request executor — the maximum
    /// concurrently *running* `analyze` requests per snapshot.
    pub max_in_flight: usize,
    /// Bounded per-shard executor queue: requests admitted beyond the
    /// running limit wait here; past it they get a `queue_full` reply
    /// instead of queueing unboundedly.
    pub queue_depth: usize,
    /// Each shard's result-cache capacity in section payloads.
    pub cache_capacity: usize,
    /// Per-request compute budget before a `timeout` reply (the timed-out
    /// job is cancelled before its next cache lookup).
    pub request_timeout_millis: u64,
    /// Per-client token-bucket admission control; `None` (the default)
    /// admits everything. The window accounting is `twittersim`'s
    /// rate-limit window — see [`Admission`].
    pub admission: Option<AdmissionPolicy>,
    /// The clock admission windows are charged against. The default wall
    /// clock counts real milliseconds; tests freeze time with
    /// [`AdmissionClock::manual`] to pin `retry_after_ms` bytes.
    pub admission_clock: AdmissionClock,
    /// Optional PELT self-monitoring: a background sampler rings up
    /// periodic operational snapshots and `status` reports detected
    /// regime shifts. `None` (the default) samples nothing and leaves
    /// the `status` reply bytes exactly as before.
    pub self_monitor: Option<SelfMonitorConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            max_in_flight: 4,
            queue_depth: 4,
            cache_capacity: 64,
            request_timeout_millis: 120_000,
            admission: None,
            admission_clock: AdmissionClock::wall(),
            self_monitor: None,
        }
    }
}

pub(crate) struct Shared {
    config: ServerConfig,
    ctx: AnalysisCtx,
    pub(crate) obs: Arc<Obs>,
    /// Interned hot-path metric handles (global ones; per-shard handles
    /// live on each [`Shard`]).
    pub(crate) stats: ServeStats,
    local_addr: SocketAddr,
    shards: ShardRegistry,
    admission: Option<Admission>,
    conns: Arc<ConnRegistry>,
    /// Self-monitor ring, when configured.
    monitor: Option<Arc<SelfMonitor>>,
    shutting_down: AtomicBool,
    pub(crate) stopped: AtomicBool,
}

/// The service entrypoint; see [`Server::start`].
pub struct Server;

impl Server {
    /// Bind `config.addr` and start serving in a background thread.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // Requests run on many workers at once, so the server records no
        // span: one tracer would nest each worker's spans under another's
        // and keep them for the life of the process.
        let obs = Arc::new(Obs::untraced());
        // The hot path records through handles on the Obs's own store, so
        // every snapshot (metrics/status/manifest/prom) reads them.
        let stats = ServeStats::new(obs.telemetry());
        let admission = config
            .admission
            .map(|policy| Admission::new(policy, config.admission_clock.clone()));
        let monitor = config
            .self_monitor
            .clone()
            .map(|monitor_config| Arc::new(SelfMonitor::new(monitor_config)));
        let shared = Arc::new(Shared {
            ctx: AnalysisCtx::new(ParPool::new(config.threads), Arc::clone(&obs)),
            config,
            obs,
            stats,
            local_addr,
            shards: ShardRegistry::new(),
            admission,
            conns: Arc::new(ConnRegistry::new()),
            monitor,
            shutting_down: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("vnet-serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        let sampler = shared.monitor.is_some().then(|| {
            let sampler_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("vnet-serve-monitor".to_string())
                .spawn(move || monitor_loop(&sampler_shared))
                .expect("spawn monitor thread")
        });
        Ok(ServerHandle { local_addr, shared, accept: Some(accept), sampler })
    }
}

/// Handle to a running server: address, registration, and lifecycle.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's observability handle (request, cache, executor and
    /// connection metrics accumulate in its store; snapshot them with
    /// [`Obs::metrics`] or [`Obs::manifest`]).
    pub fn obs_handle(&self) -> Arc<Obs> {
        Arc::clone(&self.shared.obs)
    }

    /// Register a dataset directly (no wire round-trip); returns its
    /// content fingerprint. Useful for embedding the server in a process
    /// that already built the dataset.
    pub fn register_dataset(&self, name: &str, dataset: Dataset) -> u64 {
        register_snapshot(&self.shared, name, dataset, None)
    }

    /// Ask the server to shut down as if a `shutdown` request arrived:
    /// refuse new work, drain in-flight requests, stop accepting.
    pub fn shutdown(&self) {
        drain_and_stop(&self.shared);
    }

    /// Inject one self-monitor sample, exactly as the background sampler
    /// would record it. Returns `false` when the server runs without a
    /// monitor. This is the deterministic test hook for the PELT
    /// detection path: a test can replay a synthetic regime shift
    /// without waiting out real sampling intervals.
    pub fn inject_monitor_sample(&self, sample: MonitorSample) -> bool {
        match &self.shared.monitor {
            Some(monitor) => {
                monitor.push(sample);
                true
            }
            None => false,
        }
    }

    /// Block until the accept loop exits (after a `shutdown` request or
    /// [`ServerHandle::shutdown`]). The accept loop in turn joins every
    /// connection thread, so returning means no server thread survives.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}

/// The self-monitor sampler: every interval, snapshot queue/running
/// totals, the cache hit rate, and the connection gauge into the ring.
/// Sleeps in read-tick slices so shutdown is never blocked behind a long
/// interval.
fn monitor_loop(shared: &Arc<Shared>) {
    let monitor = shared.monitor.as_ref().expect("monitor_loop without monitor");
    let interval = Duration::from_millis(monitor.interval_millis());
    while !shared.stopped.load(Ordering::SeqCst) {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.stopped.load(Ordering::SeqCst) {
                return;
            }
            let slice = READ_TICK.min(interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
        let (mut queued, mut running) = (0usize, 0usize);
        for shard in shared.shards.all() {
            let (q, r) = shard.executor.in_flight();
            queued += q;
            running += r;
        }
        let metrics = shared.obs.metrics();
        let hits = metrics.counter("cache.hits", &[]) as f64;
        let misses = metrics.counter("cache.misses", &[]) as f64;
        let lookups = hits + misses;
        monitor.push(MonitorSample {
            queue_depth: queued as f64,
            running: running as f64,
            cache_hit_rate: if lookups > 0.0 { hits / lookups } else { 0.0 },
            conn_active: metrics.gauge("serve.conn_active", &[]).unwrap_or(0.0),
        });
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // Blocking accept: the thread sleeps in the kernel until a client (or
    // the shutdown self-connect from `drain_and_stop`) arrives — no
    // `WouldBlock` polling.
    for stream in listener.incoming() {
        if shared.stopped.load(Ordering::SeqCst) {
            break; // the shutdown wake-up connection
        }
        if let Ok(stream) = stream {
            shared.conns.spawn_connection(stream, Arc::clone(&shared));
        }
    }
    // Listener closes when it drops; connection threads exit at their
    // next read tick and are all joined here.
    drop(listener);
    shared.conns.join_all();
}

/// What the connection loop should do with a dispatched request.
pub(crate) enum Dispatch {
    /// Write this reply and keep serving the connection.
    Reply(String),
    /// Write this reply, then close the connection (shutdown).
    ReplyThenStop(String),
    /// Enter a watch session: stream periodic metric-delta frames.
    Watch(WatchParams),
}

/// A validated watch subscription.
pub(crate) struct WatchParams {
    /// Restrict frames to one shard's labelled series.
    pub(crate) snapshot: Option<String>,
    pub(crate) interval: Duration,
    pub(crate) frames: u64,
}

/// Dispatch one request line.
pub(crate) fn handle_line(shared: &Arc<Shared>, line: &str) -> Dispatch {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            shared.obs.inc_by("serve.bad_requests", &[], 1);
            return Dispatch::Reply(error_reply(&e));
        }
    };
    match request {
        Request::Register { name, source, churn, sybil } => {
            Dispatch::Reply(handle_register(shared, &name, source, churn, sybil))
        }
        Request::Analyze { snapshot, sections, options, client, as_of } => Dispatch::Reply(
            handle_job(shared, &snapshot, &client, as_of, Job::Analyze { sections, options }),
        ),
        Request::Detect { snapshot, client, as_of, top_k } => {
            Dispatch::Reply(handle_job(shared, &snapshot, &client, as_of, Job::Detect { top_k }))
        }
        Request::Status { snapshot } => Dispatch::Reply(handle_status(shared, snapshot.as_deref())),
        Request::Metrics { snapshot, format } => {
            Dispatch::Reply(handle_metrics(shared, snapshot.as_deref(), format))
        }
        Request::Watch { snapshot, interval_ms, frames } => {
            if let Some(name) = &snapshot {
                if shared.shards.get(name).is_none() {
                    return Dispatch::Reply(error_reply(&VnetError::UnknownSnapshot(name.clone())));
                }
            }
            shared.obs.inc_by("serve.watch_sessions", &[], 1);
            Dispatch::Watch(WatchParams {
                snapshot,
                interval: Duration::from_millis(interval_ms),
                frames,
            })
        }
        Request::Shutdown => {
            drain_and_stop(shared);
            Dispatch::ReplyThenStop("{\"ok\":true,\"drained\":true}".to_string())
        }
    }
}

/// Refuse new work, drain every shard's executor, stop the accept loop.
/// Fully event-driven: each drain blocks on its executor's quiescence
/// condvar (wakeup count exported as `serve.drain_wakeups`, duration as
/// the `serve.drain_wall_micros` histogram), and the accept thread is
/// woken by a loopback connection instead of a poll.
fn drain_and_stop(shared: &Shared) {
    shared.shutting_down.store(true, Ordering::SeqCst);
    let started = Instant::now();
    let mut wakeups = 0;
    for shard in shared.shards.all() {
        wakeups += shard.executor.drain();
    }
    shared.obs.inc_by("serve.drain_wakeups", &[], wakeups);
    shared.obs.observe("serve.drain_wall_micros", &[], started.elapsed().as_micros() as u64);
    for shard in shared.shards.all() {
        shard.executor.shutdown_and_join(|| error_reply(&VnetError::ShuttingDown));
    }
    shared.stopped.store(true, Ordering::SeqCst);
    // Wake the accept thread so it observes `stopped` and exits.
    let _ = TcpStream::connect(shared.local_addr);
}

fn register_snapshot(
    shared: &Shared,
    name: &str,
    dataset: Dataset,
    temporal: Option<TemporalState>,
) -> u64 {
    // Hash before the registry lock: every lookup waits on that lock.
    let data = SnapshotData::new(dataset);
    shared.shards.register(
        name,
        data,
        temporal,
        crate::shards::ShardLimits {
            workers: shared.config.max_in_flight,
            queue_depth: shared.config.queue_depth,
            cache_capacity: shared.config.cache_capacity,
        },
        &shared.obs,
    )
}

/// How often the churn [`Timeline`] checkpoints the stream: `as_of` day
/// resolution replays at most this many days from the nearest checkpoint.
const TIMELINE_CHECKPOINT_STRIDE: u32 = 7;

/// Build the churn timeline for a snapshot registered with `churn_days`.
/// The stream derives roles/fame from the crawled graph's degrees; the
/// engine skips PageRank (serve sections compute their own ranks) and
/// refits the tail exponent weekly to keep registration cheap. With a
/// sybil `workload`, the planted campaigns are scheduled onto the stream
/// (so they arrive as temporal shock days) and the per-day follow
/// attribution + ground truth ride along in a [`SybilState`].
fn build_temporal(
    shared: &Shared,
    dataset: &Dataset,
    spec: &ChurnSpec,
    workload: Option<&SybilWorkload>,
) -> TemporalState {
    let seed = spec.seed.unwrap_or(ChurnConfig::default().seed);
    let mut churn_config = ChurnConfig { seed, ..ChurnConfig::default() };
    if let Some(day) = spec.shock_day {
        churn_config =
            churn_config.with_shock(day, ChurnConfig::default().shock_churn_multiplier);
    }
    let mut stream = ChurnStream::from_graph(&dataset.graph, churn_config);
    if let Some(w) = workload {
        w.attach(&mut stream);
    }
    let stride = TIMELINE_CHECKPOINT_STRIDE;
    let engine_config = EngineConfig { compact_every: stride, refit_every: stride, pagerank: None };
    let timeline = Timeline::build(stream, engine_config, spec.days, stride, &shared.ctx);
    let state = TemporalState::new(timeline, seed);
    match workload {
        None => state,
        Some(w) => {
            let daily = collect_daily_follows(dataset, churn_config, w, spec.days);
            state.with_sybil(SybilState::new(w.labels.clone(), daily))
        }
    }
}

/// Replay the (deterministic) churn stream once more to record each day's
/// `Follow` events — the burst scorer's attribution. [`Timeline::build`]
/// consumes its stream, so the replay runs on an identically-seeded
/// second stream with the same scheduled campaigns.
fn collect_daily_follows(
    dataset: &Dataset,
    churn_config: ChurnConfig,
    workload: &SybilWorkload,
    days: u32,
) -> Vec<Vec<(NodeId, NodeId)>> {
    let mut stream = ChurnStream::from_graph(&dataset.graph, churn_config);
    workload.attach(&mut stream);
    let follows = |event: &ChurnEvent| match *event {
        ChurnEvent::Follow { source, target } => Some((source, target)),
        _ => None,
    };
    (0..days).map(|_| stream.next_day().events.iter().filter_map(follows).collect()).collect()
}

fn handle_register(
    shared: &Arc<Shared>,
    name: &str,
    source: RegisterSource,
    churn: Option<ChurnSpec>,
    sybil: bool,
) -> String {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return error_reply(&VnetError::ShuttingDown);
    }
    let dataset = match source {
        RegisterSource::Dir(dir) => match verified_net::load_dataset(&dir) {
            Ok(ds) => ds,
            Err(e) => return error_reply(&e),
        },
        RegisterSource::Scale(scale) => {
            let config = if scale == "small" {
                SynthesisConfig::small()
            } else {
                SynthesisConfig::default()
            };
            Dataset::build(&config, &shared.ctx)
        }
    };
    // Adversarial registration: plant the calibrated sybil workload into
    // the base graph (rings live at day 0) before the churn timeline is
    // built, so the scheduled purchase campaigns arrive as churn days.
    let workload = sybil.then(|| inject_sybil(&dataset.graph, &SybilConfig::default()));
    let dataset = match &workload {
        Some(w) => Dataset { graph: w.graph.clone(), ..dataset },
        None => dataset,
    };
    let temporal = churn.as_ref().map(|spec| {
        let state = build_temporal(shared, &dataset, spec, workload.as_ref());
        let (days, shifts) = (state.timeline.days(), state.timeline.shifts().len());
        shared.obs.set_counter("serve.churn_days", &[("shard", name)], days as u64);
        shared.obs.set_counter("serve.structural_shifts", &[("shard", name)], shifts as u64);
        debug_assert_eq!(state.timeline.series().reciprocity.len(), days as usize + 1);
        state
    });
    let summary = dataset.summary();
    let fingerprint = register_snapshot(shared, name, dataset, temporal);
    format!(
        "{{\"ok\":true,\"snapshot\":{},\"fingerprint\":{},\"users\":{},\"edges\":{}{}{}}}",
        json_str(name),
        fingerprint,
        summary.users,
        summary.edges,
        churn.map(|spec| format!(",\"churn_days\":{}", spec.days)).unwrap_or_default(),
        workload
            .map(|w| format!(",\"sybil_planted\":{}", w.labels.sybils().len()))
            .unwrap_or_default(),
    )
}

/// The work a request runs on its shard's executor.
enum Job {
    /// `analyze`: fetch or compute each section.
    Analyze { sections: Vec<Section>, options: AnalysisOptions },
    /// `detect`: fetch or run the sybil-detection pipeline.
    Detect { top_k: usize },
}

/// `analyze` and `detect`: admission → shard router → executor, then wait
/// for the worker's reply within the request budget.
fn handle_job(
    shared: &Arc<Shared>,
    snapshot: &str,
    client: &str,
    as_of: Option<u32>,
    job: Job,
) -> String {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return error_reply(&VnetError::ShuttingDown);
    }
    // Gate 1 — admission control, before any routing or queueing:
    // over-quota clients are turned away at the front door with a
    // deterministic retry hint, exactly like the simulated API's
    // rate-limit windows (rejections consume no quota). Recording goes
    // through interned handles: this path runs for every request, so it
    // must not serialize on the metrics store's lock.
    let stats = &shared.stats;
    if let Some(admission) = &shared.admission {
        let admission_started = Instant::now();
        let verdict = admission.try_admit(client);
        observe_since(&stats.stage_admission, admission_started);
        if let Err(retry_after_ms) = verdict {
            stats.rejected_rate_limited.inc();
            stats.retry_after_ms.observe(retry_after_ms);
            return error_reply(&VnetError::RateLimited { retry_after_ms });
        }
    }
    // Gate 2 — the shard router.
    let Some(shard) = shared.shards.get(snapshot) else {
        return error_reply(&VnetError::UnknownSnapshot(snapshot.to_string()));
    };
    let data = shard.data();
    let detect = matches!(job, Job::Detect { .. });
    // Gate 3 — bounded admission into the shard's own executor: the
    // queue takes the job or refuses outright — a refused client can
    // back off; an unbounded queue can only fall over. Saturation here
    // is scoped to this shard; other snapshots keep their own slots.
    let worker_shared = Arc::clone(shared);
    let worker_shard = Arc::clone(&shard);
    let submitted = shard.executor.submit(move |cancel| {
        let (shared, shard) = (&worker_shared, &worker_shard);
        let reply = match &job {
            Job::Analyze { sections, options } => {
                compute_reply(shared, shard, &data, as_of, sections, options, cancel)
            }
            Job::Detect { top_k } => {
                compute_detect_reply(shared, shard, &data, as_of, *top_k, cancel)
            }
        };
        reply.unwrap_or_else(|error_reply| error_reply)
    });
    let handle = match submitted {
        Ok(h) => h,
        Err(SubmitRefusal::Saturated { in_flight, limit }) => {
            stats.rejected_queue_full.inc();
            shard.stats.rejected_queue_full.inc();
            return error_reply(&VnetError::QueueFull { in_flight, limit });
        }
        Err(SubmitRefusal::ShuttingDown) => return error_reply(&VnetError::ShuttingDown),
    };
    stats.requests.inc();
    stats.admitted.inc();
    shard.stats.requests.inc();
    if detect {
        shared.obs.inc_by("serve.detect_requests", &[], 1);
    }
    let budget = Duration::from_millis(shared.config.request_timeout_millis);
    match handle.wait_timeout(budget) {
        Some(reply) => reply,
        None => {
            // Flag cancellation: the job stops before its next cache
            // lookup (completed sections have already warmed the cache)
            // instead of burning CPU invisibly.
            handle.cancel();
            shared.obs.inc("serve.rejected", &[("reason", "timeout")]);
            error_reply(&VnetError::Timeout { millis: shared.config.request_timeout_millis })
        }
    }
}

/// `Err(timeout reply)` once the job's waiter has given up. Checked before
/// each memo lookup, never inside a fill, so no follower gets a timeout.
fn check_cancel(shared: &Shared, cancel: &CancelToken) -> Result<(), String> {
    if !cancel.is_cancelled() {
        return Ok(());
    }
    shared.obs.inc_by("serve.cancelled_jobs", &[], 1);
    Err(error_reply(&VnetError::Timeout { millis: shared.config.request_timeout_millis }))
}

/// Count a lookup that did not compute: a hit, or a follower that shared
/// a concurrent leader's outcome. Leaders count through [`count_miss`].
fn count_lookup(shared: &Shared, shard: &Shard, fill: Fill) {
    match fill {
        Fill::Hit => {
            shared.stats.cache_hits.inc();
            shard.stats.hits.inc();
        }
        Fill::Followed => {
            shared.stats.coalesced.inc();
            shard.stats.coalesced.inc();
        }
        Fill::Computed { .. } => {}
    }
}

/// Count a fill leader's miss, globally and under the shard's label —
/// first thing in the fill, so a fill that fails or panics still counts.
fn count_miss(shared: &Shared, shard: &Shard) {
    shared.obs.inc_by("cache.misses", &[], 1);
    shared.obs.inc("cache.misses", &[("shard", &shard.name)]);
}

/// The dataset as of churn `day`, through the shard's day-graph memo;
/// `serve.asof_materializations` counts the replays this call led.
fn dataset_as_of(
    shared: &Shared,
    temporal: &TemporalState,
    day: u32,
    base: &SnapshotData,
) -> Result<Arc<SnapshotData>, String> {
    let (data, replayed) = temporal.day_data(day, base)?;
    if replayed {
        shared.stats.asof_materializations.inc();
    }
    Ok(data)
}

/// Fetch one section through the shard's section memo: a hit, the bytes
/// of a concurrent leader (`serve.coalesced` counts the followers), or a
/// computation this job leads. Counters are recorded both globally and
/// under the shard's label.
fn section_bytes(
    shared: &Shared,
    shard: &Shard,
    data: &SnapshotData,
    key: CacheKey,
    options: &AnalysisOptions,
) -> Result<Arc<CachedSection>, String> {
    let (entry, fill) = shard.cache.get_or_fill(key, || {
        count_miss(shared, shard);
        let payload = run_analysis_section(&data.dataset, key.section, options, &shared.ctx)
            .map_err(|e| error_reply(&e))?;
        let payload_json = serde_json::to_string(&payload).expect("section payloads serialize");
        Ok(Arc::new(CachedSection::new(payload_json)))
    });
    count_lookup(shared, shard, fill);
    match fill {
        Fill::Hit if key.day.is_some() => shared.stats.asof_cache_hits.inc(),
        Fill::Computed { evicted } if entry.is_ok() => {
            let shard_label: &[(&str, &str)] = &[("shard", &shard.name)];
            if evicted > 0 {
                shared.obs.inc_by("cache.evictions", &[], evicted as u64);
                shared.obs.inc_by("cache.evictions", shard_label, evicted as u64);
            }
            shared.obs.set_counter("cache.entries", shard_label, shard.cache.len() as u64);
            // The unlabelled total sums every shard's section cache.
            let total: usize = shared.shards.all().iter().map(|s| s.cache.len()).sum();
            shared.obs.set_counter("cache.entries", &[], total as u64);
        }
        _ => {}
    }
    entry
}

/// Compute (or fetch) every requested section and assemble the reply.
/// Runs on a shard executor worker.
fn compute_reply(
    shared: &Shared,
    shard: &Shard,
    base: &SnapshotData,
    as_of: Option<u32>,
    sections: &[Section],
    options: &AnalysisOptions,
    cancel: &CancelToken,
) -> Result<String, String> {
    // Time-travel: swap in the day-`as_of` dataset. Resolution happens
    // here, on the executor worker, so a cold replay is covered by the
    // request timeout and cancellable like any other heavy work.
    let day_data: Arc<SnapshotData>;
    let data: &SnapshotData = match as_of {
        None => base,
        Some(day) => {
            let temporal = shard.temporal().ok_or_else(|| {
                error_reply(&VnetError::InvalidInput(format!(
                    "snapshot '{}' has no churn timeline; register it with churn_days to use as_of",
                    shard.name,
                )))
            })?;
            check_cancel(shared, cancel)?;
            day_data = dataset_as_of(shared, &temporal, day, base)?;
            &day_data
        }
    };
    let opts_fp = options.fingerprint();
    let mut parts = Vec::with_capacity(sections.len());
    for &section in sections {
        // Sections computed before a cancellation have warmed the cache.
        check_cancel(shared, cancel)?;
        let key =
            CacheKey { dataset: data.fingerprint, options: opts_fp, section, day: as_of };
        let entry = section_bytes(shared, shard, data, key, options)?;
        parts.push(format!(
            "{{\"section\":{},\"fingerprint\":{},\"payload\":{}}}",
            json_str(section.id()),
            entry.fingerprint,
            entry.payload_json,
        ));
    }
    let as_of_field =
        as_of.map(|day| format!(",\"as_of\":{day}")).unwrap_or_default();
    Ok(format!(
        "{{\"ok\":true,\"snapshot\":{}{},\"dataset_fingerprint\":{},\"options_fingerprint\":{},\"sections\":[{}]}}",
        json_str(&shard.name),
        as_of_field,
        data.fingerprint,
        opts_fp,
        parts.join(","),
    ))
}

/// Run (or fetch from the shard's detect memo) the detection pipeline as
/// of churn day `as_of` (default: the full horizon), on a shard executor
/// worker, for a snapshot registered with `sybil:true`. The memo key is
/// `(day, top_k)`: the base dataset, planted workload, and churn replay
/// are all fixed at registration.
fn compute_detect_reply(
    shared: &Shared,
    shard: &Shard,
    base: &SnapshotData,
    as_of: Option<u32>,
    top_k: usize,
    cancel: &CancelToken,
) -> Result<String, String> {
    let no_workload = || {
        error_reply(&VnetError::InvalidInput(format!(
            "snapshot '{}' has no sybil workload; register it with \"sybil\":true and churn_days",
            shard.name,
        )))
    };
    let temporal = shard.temporal().ok_or_else(no_workload)?;
    let sybil = temporal.sybil.as_ref().ok_or_else(no_workload)?;
    let horizon = temporal.timeline.days();
    let day = as_of.unwrap_or(horizon);
    if day > horizon {
        return Err(error_reply(&VnetError::InvalidInput(format!(
            "as_of day {day} is beyond the churn horizon ({horizon} days)"
        ))));
    }
    check_cancel(shared, cancel)?;
    let (value, fill) = sybil.cache.get_or_fill((day, top_k), || {
        count_miss(shared, shard);
        let data = dataset_as_of(shared, &temporal, day, base)?;
        let input = DetectInput {
            graph: &data.dataset.graph,
            daily_follows: &sybil.daily_follows[..day as usize],
        };
        let report = run_detection(&input, &DetectConfig::default(), &shared.ctx);
        let eval = evaluate(&report, &sybil.labels.sybils());
        let payload_json = render_detect_payload(&report, &eval, data.fingerprint, top_k);
        Ok(Arc::new(CachedSection::new(payload_json)))
    });
    count_lookup(shared, shard, fill);
    let value = value?;
    Ok(format!(
        "{{\"ok\":true,\"snapshot\":{},\"as_of\":{},\"top_k\":{},\"fingerprint\":{},\"detect\":{}}}",
        json_str(&shard.name),
        day,
        top_k,
        value.fingerprint,
        value.payload_json,
    ))
}

/// Deterministic JSON rendering of a detection run: the fit parameters,
/// campaign findings, top-`k` suspects, and the P/R evaluation against
/// the planted ground truth. Floats use Rust's shortest-round-trip
/// formatting, so the bytes are a pure function of the inputs.
fn render_detect_payload(
    report: &vnet_detect::DetectionReport,
    eval: &vnet_detect::Evaluation,
    dataset_fingerprint: u64,
    top_k: usize,
) -> String {
    let fit_out = match (report.alpha_out, report.xmin_out) {
        (Some(a), Some(x)) => format!("{{\"alpha\":{a:?},\"xmin\":{x}}}"),
        _ => "null".to_string(),
    };
    let fit_in = report
        .alpha_in
        .map(|a| format!("{{\"alpha\":{a:?}}}"))
        .unwrap_or_else(|| "null".to_string());
    let burst_days: Vec<String> = report.burst_days.iter().map(u32::to_string).collect();
    let targets: Vec<String> = report.campaign_targets.iter().map(|t| t.to_string()).collect();
    let top: Vec<String> = report
        .ranked
        .iter()
        .take(top_k)
        .map(|e| {
            format!(
                "{{\"node\":{},\"fused\":{:?},\"deviation\":{:?},\"reciprocity\":{:?},\"burst\":{:?}}}",
                e.node, e.fused, e.deviation, e.reciprocity, e.burst,
            )
        })
        .collect();
    let pr: Vec<String> =
        eval.pr_curve.iter().map(|&(r, p)| format!("[{r:?},{p:?}]")).collect();
    format!(
        "{{\"dataset_fingerprint\":{},\"fit_out\":{},\"fit_in\":{},\"burst_days\":[{}],\"campaign_targets\":[{}],\"top\":[{}],\"eval\":{{\"planted\":{},\"recall_at_planted\":{:?},\"auc\":{:?},\"pr_curve\":[{}]}}}}",
        dataset_fingerprint,
        fit_out,
        fit_in,
        burst_days.join(","),
        targets.join(","),
        top.join(","),
        eval.planted,
        eval.recall_at_planted,
        eval.auc,
        pr.join(","),
    )
}

/// One shard's status object — deterministic bytes for a quiescent shard
/// (golden-tested in `tests/tests/serve_shards.rs`).
fn shard_status_json(shard: &Shard) -> String {
    let (queued, running) = shard.executor.in_flight();
    // Snapshots registered without churn keep the exact pre-temporal
    // bytes; with churn the shard object grows a `temporal` block with
    // the structural-PELT shifts the timeline detected.
    let temporal = shard
        .temporal()
        .map(|state| {
            let shifts: Vec<String> = state
                .timeline
                .shifts()
                .iter()
                .map(|s| {
                    format!(
                        "{{\"metric\":{},\"day\":{},\"before_mean\":{:?},\"after_mean\":{:?}}}",
                        json_str(s.metric),
                        s.day,
                        s.before_mean,
                        s.after_mean,
                    )
                })
                .collect();
            format!(
                ",\"temporal\":{{\"days\":{},\"seed\":{},\"checkpoints\":{},\"shifts\":[{}]}}",
                state.timeline.days(),
                state.seed,
                state.timeline.checkpoint_count(),
                shifts.join(","),
            )
        })
        .unwrap_or_default();
    format!(
        "{{\"snapshot\":{},\"fingerprint\":{},\"workers\":{},\"queued\":{},\"running\":{},\"open_flights\":{},\"cache_entries\":{}{}}}",
        json_str(&shard.name),
        shard.data().fingerprint,
        shard.executor.workers(),
        queued,
        running,
        shard.cache.open_flights(),
        shard.cache.len(),
        temporal,
    )
}

fn handle_status(shared: &Shared, snapshot: Option<&str>) -> String {
    let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
    if let Some(name) = snapshot {
        // Shard-targeted status: just that shard's detail.
        return match shared.shards.get(name) {
            Some(shard) => format!(
                "{{\"ok\":true,\"shard\":{},\"shutting_down\":{}}}",
                shard_status_json(&shard),
                shutting_down,
            ),
            None => error_reply(&VnetError::UnknownSnapshot(name.to_string())),
        };
    }
    let names: Vec<String> = shared.shards.names().iter().map(|k| json_str(k)).collect();
    let shards = shared.shards.all();
    let (mut queued, mut running, mut flights, mut cache_entries) = (0, 0, 0, 0);
    let mut shard_parts = Vec::with_capacity(shards.len());
    for shard in &shards {
        let (q, r) = shard.executor.in_flight();
        queued += q;
        running += r;
        flights += shard.cache.open_flights();
        cache_entries += shard.cache.len();
        shard_parts.push(shard_status_json(shard));
    }
    // With self-monitoring on, the global status carries the ring size
    // and any PELT-flagged regime shifts; without it the reply is
    // byte-identical to the pre-monitor protocol.
    let self_monitor = shared
        .monitor
        .as_ref()
        .map(|m| format!(",\"self_monitor\":{}", m.status_json()))
        .unwrap_or_default();
    format!(
        "{{\"ok\":true,\"snapshots\":[{}],\"in_flight\":{},\"queued\":{},\"open_flights\":{},\"cache_entries\":{},\"admission_clients\":{},\"shutting_down\":{}{},\"shards\":[{}]}}",
        names.join(","),
        running,
        queued,
        flights,
        cache_entries,
        shared.admission.as_ref().map(|a| a.clients()).unwrap_or(0),
        shutting_down,
        self_monitor,
        shard_parts.join(","),
    )
}

/// Does this canonical metric key (`name{k=v,…}`) carry a
/// `shard=<name>` label?
fn has_shard_label(key: &str, shard: &str) -> bool {
    let Some(open) = key.find('{') else { return false };
    let labels = &key[open + 1..key.len() - 1];
    labels.split(',').any(|kv| {
        kv.strip_prefix("shard=").is_some_and(|v| v == shard)
    })
}

/// `series` restricted to one shard's labelled keys (all of it for
/// `None`) — the one shard filter of every metrics reply.
fn shard_series<V>(series: BTreeMap<String, V>, snapshot: Option<&str>) -> BTreeMap<String, V> {
    match snapshot {
        Some(name) => series.into_iter().filter(|(k, _)| has_shard_label(k, name)).collect(),
        None => series,
    }
}

/// Snapshot the metrics store into counter/gauge maps, optionally
/// filtered to one shard's labelled series. Shared by the `metrics`
/// reply and the `watch` delta stream.
pub(crate) fn metric_maps(
    shared: &Shared,
    snapshot: Option<&str>,
) -> (BTreeMap<String, u64>, BTreeMap<String, f64>) {
    let metrics = shared.obs.metrics();
    (shard_series(metrics.counters(), snapshot), shard_series(metrics.gauges(), snapshot))
}

fn handle_metrics(shared: &Shared, snapshot: Option<&str>, format: MetricsFormat) -> String {
    if let Some(name) = snapshot {
        if shared.shards.get(name).is_none() {
            return error_reply(&VnetError::UnknownSnapshot(name.to_string()));
        }
    }
    if let MetricsFormat::Prom = format {
        // Prometheus text exposition, JSON-escaped into a body field so
        // the reply stays one line on the wire. Histograms are included
        // here (the JSON format predates them and keeps its exact
        // shape).
        let metrics = shared.obs.metrics();
        let body = render_prometheus_parts(
            &shard_series(metrics.counters(), snapshot),
            &shard_series(metrics.gauges(), snapshot),
            &shard_series(metrics.histograms(), snapshot),
        );
        return format!("{{\"ok\":true,\"format\":\"prom\",\"body\":{}}}", json_str(&body));
    }
    // The metric maps are BTreeMaps: sorted keys, so the reply is
    // deterministic given the same recording state.
    let (counters, gauges) = metric_maps(shared, snapshot);
    let counters: Vec<String> =
        counters.iter().map(|(k, v)| format!("{}:{}", json_str(k), v)).collect();
    let gauges: Vec<String> =
        gauges.iter().map(|(k, v)| format!("{}:{:?}", json_str(k), v)).collect();
    format!(
        "{{\"ok\":true,\"counters\":{{{}}},\"gauges\":{{{}}}}}",
        counters.join(","),
        gauges.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_label_matching_is_exact() {
        assert!(has_shard_label("serve.queue_depth{shard=a}", "a"));
        assert!(has_shard_label("serve.rejected{reason=queue_full,shard=a}", "a"));
        assert!(!has_shard_label("serve.queue_depth{shard=ab}", "a"));
        assert!(!has_shard_label("serve.queue_depth{shard=a}", "ab"));
        assert!(!has_shard_label("serve.queue_depth", "a"));
        assert!(!has_shard_label("serve.rejected{reason=shard}", "shard"));
    }
}
