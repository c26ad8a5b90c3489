//! The sharded snapshot registry.
//!
//! Every registered snapshot name is a **shard**: its own bounded-queue
//! worker-pool [`Executor`] and its own caches. Work for one snapshot
//! therefore queues, caches, and coalesces entirely inside its shard — a
//! hot snapshot can saturate its own queue (`queue_full` for *its*
//! clients) without starving requests to any other snapshot, which is the
//! isolation property `tests/tests/serve_shards.rs` pins.
//!
//! Re-registering a name swaps the dataset inside the existing shard and
//! keeps its pools warm; stale cache entries age out by LRU because cache
//! keys carry the dataset fingerprint. Compute parallelism (the
//! `ParPool` inside the shared `AnalysisCtx`) stays server-wide: the
//! fork-join pool is scoped per call, so concurrent shards never block
//! each other there — the scarce resources a shard isolates are queue
//! slots and worker threads.
//!
//! A shard keeps up to three caches, each a [`Memo`] — an LRU whose misses
//! fill under single-flight coalescing, so concurrent misses of one key
//! compute once — each with its own capacity so one kind of value never
//! evicts another:
//!
//! | cache | key → value | capacity |
//! |---|---|---|
//! | section cache | `CacheKey → Arc<CachedSection>` | `ServerConfig::cache_capacity` |
//! | day-graph cache ([`TemporalState`]) | churn day → `Arc<SnapshotData>` | `DAY_CACHE_CAPACITY` |
//! | detect reply cache ([`SybilState`]) | `(day, top_k)` → `Arc<CachedSection>` | `DETECT_CACHE_CAPACITY` |

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use verified_net::{Dataset, DatasetDigest, VnetError};
use vnet_graph::{DiGraph, NodeId};
use vnet_obs::Obs;
use vnet_synth::PlantedLabels;
use vnet_temporal::Timeline;

use crate::cache::{CacheKey, CachedSection, Fill, Memo};
use crate::executor::{Executor, ExecutorTelemetry};
use crate::protocol::error_reply;
use crate::stats::ShardStats;

/// Materialized day-graphs kept hot per temporal shard. Small on purpose:
/// each entry is a full CSR + profiles clone; the section cache above it
/// is what absorbs repeat traffic.
const DAY_CACHE_CAPACITY: usize = 4;

/// Per-shard resource bounds, fixed at registration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardLimits {
    /// Worker threads in the shard's executor.
    pub(crate) workers: usize,
    /// Waiting slots in the executor's bounded queue.
    pub(crate) queue_depth: usize,
    /// Section-cache entries.
    pub(crate) cache_capacity: usize,
}

/// The swappable dataset inside a shard, with its fingerprint and the
/// graph-independent digest every churn day of it shares.
pub(crate) struct SnapshotData {
    pub(crate) dataset: Dataset,
    digest: DatasetDigest,
    pub(crate) fingerprint: u64,
}

impl SnapshotData {
    /// Digest and fingerprint `dataset`: once per registration, before
    /// the registry lock is taken.
    pub(crate) fn new(dataset: Dataset) -> Self {
        let digest = dataset.digest();
        let fingerprint = digest.fingerprint(&dataset.graph);
        Self { dataset, digest, fingerprint }
    }

    /// This snapshot with its graph replaced by `graph`. Only the new
    /// graph is hashed: the profiles, activity series and start date are
    /// this snapshot's, and so is their digest.
    fn with_graph(&self, graph: DiGraph) -> Self {
        let base = &self.dataset;
        let fingerprint = self.digest.fingerprint(&graph);
        let dataset = Dataset {
            graph,
            profiles: base.profiles.clone(),
            activity: base.activity.clone(),
            activity_start: base.activity_start,
            crawl_stats: base.crawl_stats.clone(),
            provenance: base.provenance,
        };
        Self { dataset, digest: self.digest, fingerprint }
    }
}

/// Rendered `detect` payloads kept per sybil shard, keyed `(day, top_k)`.
/// Detection replays the full pipeline over every node, so even a tiny
/// LRU absorbs the repeat traffic of a day-sweep.
const DETECT_CACHE_CAPACITY: usize = 8;

/// The adversarial side of a shard: the planted ground truth and the
/// per-day follow attribution the detection pipeline consumes. Present
/// only when the snapshot was registered with `sybil:true` (which in turn
/// requires `churn_days`, so this always lives inside a
/// [`TemporalState`]).
pub(crate) struct SybilState {
    /// Which node ids are planted fakes (and who bought them).
    pub(crate) labels: PlantedLabels,
    /// `daily_follows[d]` = the `(source, target)` follow events of churn
    /// day `d + 1`, in event order — the burst scorer's attribution.
    pub(crate) daily_follows: Vec<Vec<(NodeId, NodeId)>>,
    /// Rendered `detect` payloads keyed `(day, top_k)`.
    pub(crate) cache: Memo<(u32, usize), Arc<CachedSection>>,
}

impl SybilState {
    pub(crate) fn new(
        labels: PlantedLabels,
        daily_follows: Vec<Vec<(NodeId, NodeId)>>,
    ) -> Self {
        Self { labels, daily_follows, cache: Memo::new(DETECT_CACHE_CAPACITY) }
    }
}

/// The temporal side of a shard: the churn [`Timeline`] built at
/// registration plus a tiny LRU of materialized day-datasets. Present only
/// when the snapshot was registered with `churn_days`.
pub(crate) struct TemporalState {
    pub(crate) timeline: Timeline,
    /// Churn master seed (reported in `status`).
    pub(crate) seed: u64,
    /// Planted sybil workload, when registered with `sybil:true`.
    pub(crate) sybil: Option<Arc<SybilState>>,
    day_cache: Memo<u32, Arc<SnapshotData>>,
}

impl TemporalState {
    pub(crate) fn new(timeline: Timeline, seed: u64) -> Self {
        Self { timeline, seed, sybil: None, day_cache: Memo::new(DAY_CACHE_CAPACITY) }
    }

    /// Attach the planted workload's ground truth and attribution.
    pub(crate) fn with_sybil(mut self, state: SybilState) -> Self {
        self.sybil = Some(Arc::new(state));
        self
    }

    /// The dataset as of end of churn `day`: the base snapshot with its
    /// graph replaced by the timeline's materialization, plus whether this
    /// call replayed the day (concurrent callers of one uncached day wait
    /// for a single replay). An error is the serialized error reply.
    pub(crate) fn day_data(
        &self,
        day: u32,
        base: &SnapshotData,
    ) -> Result<(Arc<SnapshotData>, bool), String> {
        // The replay runs outside the memo's locks: it takes milliseconds,
        // and requests for *different* days shouldn't serialize.
        let (data, fill) = self.day_cache.get_or_fill(day, || {
            let graph = self.timeline.graph_as_of(day);
            let graph = graph.map_err(|message| error_reply(&VnetError::InvalidInput(message)))?;
            Ok(Arc::new(base.with_graph(graph)))
        });
        Ok((data?, matches!(fill, Fill::Computed { .. })))
    }
}

/// One snapshot's serving resources.
pub(crate) struct Shard {
    pub(crate) name: String,
    data: Mutex<Arc<SnapshotData>>,
    temporal: Mutex<Option<Arc<TemporalState>>>,
    pub(crate) executor: Executor,
    /// The section cache; its open flights and entries are what `status`
    /// and `cache.entries` report.
    pub(crate) cache: Memo<CacheKey, Arc<CachedSection>>,
    /// This shard's labelled hot-path counters (interned once here; the
    /// request path records through them lock-free).
    pub(crate) stats: ShardStats,
}

impl Shard {
    fn new(name: &str, data: Arc<SnapshotData>, limits: ShardLimits, obs: &Arc<Obs>) -> Self {
        let exec_telemetry = ExecutorTelemetry::new(obs.telemetry(), name);
        Self {
            name: name.to_string(),
            data: Mutex::new(data),
            temporal: Mutex::new(None),
            stats: ShardStats::new(obs.telemetry(), name),
            executor: Executor::new(
                limits.workers,
                limits.queue_depth,
                Arc::clone(obs),
                name,
                exec_telemetry,
            ),
            cache: Memo::new(limits.cache_capacity),
        }
    }

    /// The shard's current dataset (an `Arc` snapshot: a concurrent
    /// re-register cannot swap a dataset out from under a running job).
    pub(crate) fn data(&self) -> Arc<SnapshotData> {
        Arc::clone(&self.data.lock().expect("shard data lock"))
    }

    fn swap_data(&self, data: Arc<SnapshotData>) {
        *self.data.lock().expect("shard data lock") = data;
    }

    /// The shard's temporal state, when it was registered with churn.
    pub(crate) fn temporal(&self) -> Option<Arc<TemporalState>> {
        self.temporal.lock().expect("shard temporal lock").clone()
    }

    fn set_temporal(&self, state: Option<TemporalState>) {
        *self.temporal.lock().expect("shard temporal lock") = state.map(Arc::new);
    }
}

/// Name → shard map. Shards are created at registration and live until
/// server shutdown (their executors are drained and joined there).
#[derive(Default)]
pub(crate) struct ShardRegistry {
    shards: Mutex<BTreeMap<String, Arc<Shard>>>,
}

impl ShardRegistry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register (or refresh) `name` with an already fingerprinted
    /// snapshot, returning its fingerprint. First registration builds the
    /// shard's executor and section cache; re-registration swaps the dataset
    /// and keeps the pools warm. The registry lock is held only for the
    /// lookup and the insert or swap: hashing happened in
    /// [`SnapshotData::new`].
    pub(crate) fn register(
        &self,
        name: &str,
        data: SnapshotData,
        temporal: Option<TemporalState>,
        limits: ShardLimits,
        obs: &Arc<Obs>,
    ) -> u64 {
        let fingerprint = data.fingerprint;
        let data = Arc::new(data);
        let mut shards = self.shards.lock().expect("shard registry lock");
        if let Some(shard) = shards.get(name) {
            shard.swap_data(data);
            shard.set_temporal(temporal);
            return fingerprint;
        }
        let shard = Arc::new(Shard::new(name, data, limits, obs));
        shard.set_temporal(temporal);
        shards.insert(name.to_string(), shard);
        obs.set_counter("serve.snapshots", &[], shards.len() as u64);
        fingerprint
    }

    /// Look up one shard.
    pub(crate) fn get(&self, name: &str) -> Option<Arc<Shard>> {
        self.shards.lock().expect("shard registry lock").get(name).cloned()
    }

    /// Every shard, in name order (BTreeMap: deterministic iteration for
    /// status replies and shutdown).
    pub(crate) fn all(&self) -> Vec<Arc<Shard>> {
        self.shards.lock().expect("shard registry lock").values().cloned().collect()
    }

    /// Registered snapshot names, sorted.
    pub(crate) fn names(&self) -> Vec<String> {
        self.shards.lock().expect("shard registry lock").keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verified_net::{AnalysisCtx, SynthesisConfig};

    fn dataset() -> Dataset {
        Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet())
    }

    const LIMITS: ShardLimits =
        ShardLimits { workers: 1, queue_depth: 1, cache_capacity: 4 };

    #[test]
    fn register_creates_then_refreshes_one_shard() {
        let registry = ShardRegistry::new();
        let obs = Arc::new(Obs::new());
        let ds = dataset();
        let fp = registry.register("a", SnapshotData::new(ds.clone()), None, LIMITS, &obs);
        assert_eq!(fp, ds.fingerprint());
        assert_eq!(registry.names(), vec!["a".to_string()]);
        let shard = registry.get("a").expect("shard exists");

        // Warm the cache, then re-register: the shard object (and its
        // cache) survives, only the dataset handle is swapped.
        let key =
            CacheKey { dataset: fp, options: 1, section: verified_net::Section::Basic, day: None };
        let warm = || Ok(Arc::new(CachedSection::new("{}".to_string())));
        assert!(shard.cache.get_or_fill(key, warm).0.is_ok());
        let fp2 = registry.register("a", SnapshotData::new(ds), None, LIMITS, &obs);
        assert_eq!(fp2, fp);
        let again = registry.get("a").expect("shard exists");
        assert!(Arc::ptr_eq(&shard, &again), "re-register rebuilt the shard");
        assert_eq!(again.cache.len(), 1, "cache was dropped");
        assert_eq!(obs.metrics().counter("serve.snapshots", &[]), 1);

        // Shutdown the executor so its worker threads are joined.
        shard.executor.shutdown_and_join(String::new);
    }

    #[test]
    fn day_cache_evicts_the_least_recently_used_day_at_capacity_4() {
        assert_eq!(DAY_CACHE_CAPACITY, 4);
        let base = dataset();
        let stream = vnet_synth::ChurnStream::from_graph(
            &base.graph,
            vnet_synth::ChurnConfig::default(),
        );
        let engine = vnet_temporal::EngineConfig { compact_every: 7, refit_every: 7, pagerank: None };
        let timeline = Timeline::build(stream, engine, 6, 7, &AnalysisCtx::quiet());
        let temporal = TemporalState::new(timeline, 1);
        let base = SnapshotData::new(base);
        let fetch = |day: u32| temporal.day_data(day, &base).expect("day within the horizon");

        // Days 1-4 fill the cache; a repeat is a hit sharing the cached copy.
        let (day1, fresh) = fetch(1);
        assert!(fresh, "cold day 1 was not materialized");
        for day in 2..=4 {
            assert!(fetch(day).1, "cold day {day} was not materialized");
        }
        let (again, fresh) = fetch(1);
        assert!(!fresh, "day 1 was materialized twice");
        assert!(Arc::ptr_eq(&again, &day1));
        // Day 5 evicts day 2, the least recently used (day 1 was touched).
        assert!(fetch(5).1);
        for (day, fresh) in [(1, false), (3, false), (4, false), (5, false), (2, true)] {
            assert_eq!(fetch(day).1, fresh, "day {day}");
        }
        // Day 2 evicted day 1. Day 6 evicts day 3; a fill of the resident
        // day 2 keeps the first copy and never computes.
        let (resident, _) = fetch(2);
        let (racer, _) = fetch(6);
        let (kept, fill) = temporal.day_cache.get_or_fill(2, || Ok(racer));
        assert!(Arc::ptr_eq(&kept.expect("day 2 resident"), &resident));
        assert_eq!(fill, Fill::Hit);
        // A failed lookup inserts nothing: the resident days stay put.
        assert!(temporal.day_data(7, &base).is_err(), "day 7 is beyond the horizon");
        for day in [4, 5, 6, 2] {
            assert!(!fetch(day).1, "day {day} was evicted");
        }
        assert_eq!(temporal.day_cache.len(), DAY_CACHE_CAPACITY);
    }

    #[test]
    fn every_churn_day_fingerprints_as_the_base_with_that_days_graph() {
        // A sybil shard as registration builds it: the planted graph is
        // the base, and the purchase campaigns arrive as churn days. The
        // plain graph's projection is built first, so a base or a day
        // that carried it instead of its own would show.
        let plain = dataset();
        let degree_sum = |g: &DiGraph| g.nodes().map(|u| g.undirected().degree(u)).sum::<usize>();
        let plain_degrees = degree_sum(&plain.graph);
        // A copy rebuilt from the edges, with no projection yet.
        let fresh = |g: &DiGraph| {
            let edges: Vec<_> = g.edges().collect();
            vnet_graph::builder::from_edges(g.node_count() as u32, &edges).expect("ids in range")
        };
        let workload = vnet_synth::inject_sybil(&plain.graph, &vnet_synth::SybilConfig::default());
        let base = Dataset { graph: workload.graph.clone(), ..plain };
        assert_eq!(base.graph.undirected(), fresh(&base.graph).undirected());
        assert_ne!(degree_sum(&base.graph), plain_degrees);
        let churn = vnet_synth::ChurnConfig::default();
        let mut stream = vnet_synth::ChurnStream::from_graph(&base.graph, churn);
        workload.attach(&mut stream);
        let engine = vnet_temporal::EngineConfig { compact_every: 7, refit_every: 7, pagerank: None };
        let horizon = 10;
        let timeline = Timeline::build(stream, engine, horizon, 7, &AnalysisCtx::quiet());
        let sybil = SybilState::new(workload.labels.clone(), vec![]);
        let temporal = TemporalState::new(timeline, churn.seed).with_sybil(sybil);
        let snapshot = SnapshotData::new(base.clone());
        assert_eq!(snapshot.fingerprint, base.fingerprint());

        let mut distinct = std::collections::BTreeSet::new();
        for day in 0..=horizon {
            let (data, _) = temporal.day_data(day, &snapshot).expect("day within the horizon");
            let graph = temporal.timeline.graph_as_of(day).expect("day within the horizon");
            assert_eq!(data.dataset.graph, graph, "day {day}");
            let day_graph = &data.dataset.graph;
            assert_eq!(day_graph.undirected(), fresh(day_graph).undirected(), "day {day}");
            assert_ne!(degree_sum(day_graph), plain_degrees, "day {day}");
            let want = Dataset { graph, ..base.clone() }.fingerprint();
            assert_eq!(data.fingerprint, want, "day {day}");
            assert_eq!(data.dataset.profiles, base.profiles, "day {day}");
            assert_eq!(data.dataset.activity, base.activity, "day {day}");
            assert_eq!(data.dataset.activity_start, base.activity_start, "day {day}");
            distinct.insert(data.fingerprint);
        }
        // Churn moves every day's graph, so every day keys its own cache
        // entries.
        assert_eq!(distinct.len(), horizon as usize + 1);
    }

    #[test]
    fn detect_cache_evicts_the_least_recently_used_reply_at_capacity_8() {
        assert_eq!(DETECT_CACHE_CAPACITY, 8);
        let labels =
            PlantedLabels { ring_members: vec![], burst_accounts: vec![], customers: vec![] };
        let sybil = SybilState::new(labels, vec![]);
        let cache = &sybil.cache;
        let fill = |day: u32| {
            let reply = || Ok(Arc::new(CachedSection::new(format!("day{day}"))));
            let (reply, fill) = cache.get_or_fill((day, 20), reply);
            (reply.expect("rendered"), fill)
        };
        // A key that is not resident: its fill computes, fails, and so
        // inserts nothing.
        let absent = |key| cache.get_or_fill(key, || Err(String::new())).1 != Fill::Hit;
        for day in 0..8 {
            assert_eq!(fill(day).1, Fill::Computed { evicted: 0 });
        }
        // `top_k` is part of the key, and a miss that fails inserts nothing.
        assert!(absent((0, 3)));
        assert_eq!(cache.len(), 8);
        // Touch day 0: day 1 becomes the victim, then day 2.
        let (first, touched) = fill(0);
        assert_eq!(touched, Fill::Hit, "day 0 resident");
        assert_eq!(fill(8).1, Fill::Computed { evicted: 1 });
        assert!(absent((1, 20)));
        assert_eq!(fill(9).1, Fill::Computed { evicted: 1 });
        assert!(absent((2, 20)));
        for day in [0, 3, 4, 5, 6, 7, 8, 9] {
            assert_eq!(fill(day).1, Fill::Hit, "day {day} evicted out of order");
        }
        // A repeat fill keeps the first rendering.
        let (kept, again) = fill(0);
        assert!(Arc::ptr_eq(&kept, &first));
        assert_eq!((again, cache.len()), (Fill::Hit, 8));
    }

    #[test]
    fn shards_are_isolated_objects() {
        let registry = ShardRegistry::new();
        let obs = Arc::new(Obs::new());
        let ds = dataset();
        registry.register("a", SnapshotData::new(ds.clone()), None, LIMITS, &obs);
        registry.register("b", SnapshotData::new(ds), None, LIMITS, &obs);
        assert_eq!(registry.names(), vec!["a".to_string(), "b".to_string()]);
        let a = registry.get("a").expect("a");
        let b = registry.get("b").expect("b");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.data().fingerprint, b.data().fingerprint, "same dataset");
        assert_eq!(obs.metrics().counter("serve.snapshots", &[]), 2);
        assert!(registry.get("c").is_none());
        for shard in registry.all() {
            shard.executor.shutdown_and_join(String::new);
        }
    }

    #[test]
    fn a_hundred_names_register_and_every_lookup_still_answers() {
        // Three nodes and no worker threads: registration cost is the
        // shard's bookkeeping and its metric series alone.
        let profiles = (0..3)
            .map(|id| vnet_twittersim::UserProfile {
                id,
                screen_name: format!("user{id}"),
                lang: "en".to_string(),
                bio: String::new(),
                followers_count: 1,
                friends_count: 1,
                listed_count: 0,
                statuses_count: 0,
                verified: true,
            })
            .collect();
        let graph = vnet_graph::builder::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
            .expect("valid edges");
        let tiny = Dataset::from_parts(
            graph,
            profiles,
            vec![1.0, 2.0],
            vnet_timeseries::Date::new(2017, 6, 1),
        );
        let limits = ShardLimits { workers: 0, ..LIMITS };
        let registry = ShardRegistry::new();
        let obs = Arc::new(Obs::new());
        let names: Vec<String> = (0..100).map(|i| format!("s{i:03}")).collect();
        for name in &names {
            registry.register(name, SnapshotData::new(tiny.clone()), None, limits, &obs);
        }
        assert_eq!(registry.names(), names);
        assert_eq!(registry.all().len(), 100);
        for name in &names {
            assert_eq!(registry.get(name).expect("registered").name, *name);
        }
        assert_eq!(obs.metrics().counter("serve.snapshots", &[]), 100);
        for shard in registry.all() {
            shard.executor.shutdown_and_join(String::new);
        }
    }
}
