//! The analysis dataset (paper Section III) and its synthesis.

use crate::error::VnetError;
use serde::Serialize;
use vnet_ctx::AnalysisCtx;
use vnet_graph::DiGraph;
use vnet_synth::VerifiedNetConfig;
use vnet_timeseries::Date;
use vnet_twittersim::{
    ActivityConfig, ApiError, CrawlOutcome, CrawlStats, Crawler, FaultPlan, Firehose,
    RateLimitPolicy, SimClock, Society, SocietyConfig, TwitterApi, UserProfile,
};

/// How to synthesize a dataset: society scale plus crawl/firehose knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisConfig {
    /// The society (verified network + profiles).
    pub society: SocietyConfig,
    /// The activity process.
    pub activity: ActivityConfig,
    /// Rate limits faced by the crawler. Default: unlimited — the
    /// simulated-clock waits are already covered by crawler tests, and
    /// analyses only need the data. Use [`RateLimitPolicy::default`] to
    /// exercise the waiting logic.
    pub rate_limits: RateLimitPolicy,
    /// Transient API failure probability during the crawl.
    pub failure_rate: f64,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self {
            society: SocietyConfig::default(),
            activity: ActivityConfig::default(),
            rate_limits: RateLimitPolicy::unlimited(),
            failure_rate: 0.0,
        }
    }
}

impl SynthesisConfig {
    /// A small configuration for tests and quick examples (~4k users).
    pub fn small() -> Self {
        Self { society: SocietyConfig::small(), ..Self::default() }
    }

    /// A medium configuration (~60k users, ~5M edges): large enough for
    /// memory-vs-scale benchmarks, small enough for a laptop. See
    /// `docs/SCALING.md` for the full tier table.
    pub fn medium() -> Self {
        Self { society: SocietyConfig::medium(), ..Self::default() }
    }

    /// Adjust the underlying verified-network generator.
    pub fn with_net(mut self, net: VerifiedNetConfig) -> Self {
        self.society.net = net;
        self
    }
}

/// Export the society's streaming-build memory accounting as `_bytes`
/// gauges (scrubbed from the deterministic manifest view, like all memory
/// telemetry): what the generator's arena peaked at, and what the frozen
/// CSR costs. The `graph-scale` verify lane asserts
/// `peak ≤ 1.5 × csr` from exactly these gauges.
fn export_memory_gauges(obs: &vnet_obs::Obs, society: &Society) {
    let stream = &society.network.stream;
    obs.set_gauge("graph.synth_peak_arena_bytes", &[], stream.peak_arena_bytes as f64);
    obs.set_gauge("graph.synth_csr_bytes", &[], stream.csr_bytes as f64);
    if let Some(rss) = vnet_obs::peak_rss_bytes() {
        obs.set_gauge("mem.peak_rss_bytes", &[], rss as f64);
    }
}

/// Where a [`Dataset`] came from — and, when it was crawled under fault
/// injection, how trustworthy it is. Analyses that tolerate degraded data
/// can proceed with the drift on record; ones that cannot should reject
/// anything but `Synthesized` / `FaultInjected { degraded: false, .. }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetProvenance {
    /// A clean simulated crawl (no fault plan bound).
    Synthesized,
    /// Crawled through a fault plan.
    FaultInjected {
        /// The plan seed (replays the exact crawl).
        seed: u64,
        /// `true` when the crawl ended [`CrawlOutcome::Degraded`] — the
        /// roster was still drifting when the pass budget ran out.
        degraded: bool,
        /// Crawl passes taken.
        passes: usize,
    },
    /// Assembled from parts (e.g. loaded from disk); no crawl telemetry.
    Loaded,
}

/// The paper's analysis object: the English verified sub-graph, profiles,
/// and the year of daily activity.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The induced follow graph among English verified users.
    pub graph: DiGraph,
    /// Profile of each node (aligned with graph node ids).
    pub profiles: Vec<UserProfile>,
    /// Daily aggregate tweet counts of the cohort.
    pub activity: Vec<f64>,
    /// Date of `activity[0]`.
    pub activity_start: Date,
    /// Crawl telemetry (zeroed when the dataset was loaded, not crawled).
    pub crawl_stats: CrawlStats,
    /// How this dataset was produced.
    pub provenance: DatasetProvenance,
}

/// What [`Dataset::fingerprint`] hashes besides the graph: the profiles,
/// the activity series and its start date. A churn day is its snapshot
/// with another graph, so one digest serves every day of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetDigest {
    profiles: u64,
    activity: u64,
    activity_start: Date,
}

impl DatasetDigest {
    /// The fingerprint of the dataset this digest was taken of, with its
    /// graph replaced by `graph`. The graph's `VNG1` bytes stream into the
    /// hash; no copy of them is made.
    pub fn fingerprint(&self, graph: &DiGraph) -> u64 {
        let mut g = vnet_obs::Fnv1a::new();
        vnet_graph::io::write_binary(graph, &mut g).expect("hashing a graph cannot fail");
        vnet_obs::fingerprint_str(&format!(
            "vnet-dataset-v1:{:016x}:{:016x}:{:016x}:{}",
            g.finish(),
            self.profiles,
            self.activity,
            self.activity_start
        ))
    }
}

/// Headline numbers of a dataset (paper Section III / Table-free text).
#[derive(Debug, Clone, Serialize)]
pub struct DatasetSummary {
    /// English verified users.
    pub users: usize,
    /// Directed internal edges.
    pub edges: usize,
    /// Graph density.
    pub density: f64,
    /// Mean out-degree.
    pub mean_out_degree: f64,
    /// Maximum out-degree and its handle.
    pub max_out_degree: u64,
    /// Handle of the max out-degree user.
    pub max_out_handle: String,
    /// Isolated users.
    pub isolated: usize,
    /// Days of activity data.
    pub activity_days: usize,
}

impl Dataset {
    /// Synthesize a dataset end-to-end: generate the society, crawl it
    /// through the simulated API exactly as Section III describes, and
    /// attach the firehose activity series. The API and crawler report
    /// per-endpoint counters and spans through `ctx`, and the final
    /// [`CrawlStats`] are exported as absolute `crawl.*` counters.
    pub fn build(config: &SynthesisConfig, ctx: &AnalysisCtx) -> Dataset {
        let obs = ctx.obs_handle();
        let society = {
            let _span = obs.span("synthesize.society");
            Society::generate(&config.society)
        };
        export_memory_gauges(&obs, &society);
        let api = TwitterApi::new(
            &society,
            SimClock::new(),
            config.rate_limits,
            config.failure_rate,
        )
        .with_obs(obs.clone());
        let crawl = Crawler::new(&api)
            .with_obs(obs.clone())
            .crawl()
            .expect("simulated crawl cannot fail permanently with retries");
        obs.set_gauge("graph.csr_bytes", &[], crawl.graph.csr_bytes() as f64);
        let activity = {
            let _span = obs.span("synthesize.firehose");
            Firehose::new(&society, config.activity).activity_values()
        };
        crawl.stats.export_metrics(&obs);
        Dataset {
            graph: crawl.graph,
            profiles: crawl.profiles,
            activity,
            activity_start: config.activity.start,
            crawl_stats: crawl.stats,
            provenance: DatasetProvenance::Synthesized,
        }
    }

    /// Synthesize a dataset through a fault plan: same pipeline as
    /// [`Dataset::build`], but the API injects the plan's faults and the
    /// crawl runs the churn-hardened multi-pass
    /// [`Crawler::crawl_resumable`]. Both complete and degraded crawls are
    /// accepted — the distinction (and the plan seed, which replays the
    /// crawl exactly) is recorded in [`Dataset::provenance`]. Aborted
    /// crawls (non-healing plans can exhaust the retry budget) surface as
    /// [`VnetError::CrawlAborted`] carrying the pass count from the final
    /// checkpoint. Additionally exports the fault tally as
    /// `faults.injected{kind}` counters.
    pub fn build_with_faults(
        config: &SynthesisConfig,
        plan: &FaultPlan,
        ctx: &AnalysisCtx,
    ) -> crate::error::Result<Dataset> {
        Self::build_with_faults_inner(config, plan, ctx)
            .map_err(|(error, passes)| VnetError::CrawlAborted { passes, error })
    }

    /// Shared body of [`Dataset::build_with_faults`] and the deprecated
    /// `synthesize_with_faults*` shims (which surface the raw [`ApiError`]
    /// and drop the pass count).
    pub(crate) fn build_with_faults_inner(
        config: &SynthesisConfig,
        plan: &FaultPlan,
        ctx: &AnalysisCtx,
    ) -> Result<Dataset, (ApiError, usize)> {
        let obs = ctx.obs_handle();
        let society = {
            let _span = obs.span("synthesize.society");
            Society::generate(&config.society)
        };
        export_memory_gauges(&obs, &society);
        let api = TwitterApi::new(
            &society,
            SimClock::new(),
            config.rate_limits,
            config.failure_rate,
        )
        .with_obs(obs.clone())
        .with_faults(plan.clone());
        let crawler = Crawler::new(&api).with_obs(obs.clone());
        let (crawl, degraded, passes) = match crawler.crawl_resumable(None) {
            CrawlOutcome::Complete(ds) => {
                let passes = ds.stats.passes;
                (ds, false, passes)
            }
            CrawlOutcome::Degraded { dataset, passes, .. } => (dataset, true, passes),
            CrawlOutcome::Aborted { error, checkpoint } => {
                return Err((error, checkpoint.pass));
            }
        };
        obs.set_gauge("graph.csr_bytes", &[], crawl.graph.csr_bytes() as f64);
        let activity = {
            let _span = obs.span("synthesize.firehose");
            Firehose::new(&society, config.activity).activity_values()
        };
        crawl.stats.export_metrics(&obs);
        Ok(Dataset {
            graph: crawl.graph,
            profiles: crawl.profiles,
            activity,
            activity_start: config.activity.start,
            crawl_stats: crawl.stats,
            provenance: DatasetProvenance::FaultInjected { seed: plan.seed(), degraded, passes },
        })
    }

    /// Content fingerprint of the analysis-relevant payload: graph bytes,
    /// profiles, activity series, and start date. Crawl telemetry and
    /// provenance are deliberately excluded, so a dataset saved and
    /// reloaded from disk fingerprints identically to the crawl that
    /// produced it. This is the dataset half of the `vnet-serve` result
    /// cache key. It is `self.digest().fingerprint(&self.graph)`.
    pub fn fingerprint(&self) -> u64 {
        self.digest().fingerprint(&self.graph)
    }

    /// The graph-independent part of [`Dataset::fingerprint`]: take it
    /// once, then fingerprint any number of graphs against it.
    pub fn digest(&self) -> DatasetDigest {
        DatasetDigest {
            profiles: vnet_obs::fingerprint_str(
                &serde_json::to_string(&self.profiles).expect("profiles serialize"),
            ),
            activity: vnet_obs::fingerprint_str(
                &serde_json::to_string(&self.activity).expect("activity serializes"),
            ),
            activity_start: self.activity_start,
        }
    }

    /// Assemble a dataset from parts (e.g. loaded from disk).
    pub fn from_parts(
        graph: DiGraph,
        profiles: Vec<UserProfile>,
        activity: Vec<f64>,
        activity_start: Date,
    ) -> Dataset {
        assert_eq!(graph.node_count(), profiles.len(), "profiles misaligned with graph");
        Dataset {
            graph,
            profiles,
            activity,
            activity_start,
            crawl_stats: CrawlStats::default(),
            provenance: DatasetProvenance::Loaded,
        }
    }

    /// Headline numbers.
    pub fn summary(&self) -> DatasetSummary {
        let (max_node, max_deg) =
            self.graph.max_out_degree().unwrap_or((0, 0));
        DatasetSummary {
            users: self.graph.node_count(),
            edges: self.graph.edge_count(),
            density: self.graph.density(),
            mean_out_degree: self.graph.mean_out_degree(),
            max_out_degree: max_deg as u64,
            max_out_handle: self
                .profiles
                .get(max_node as usize)
                .map(|p| p.screen_name.clone())
                .unwrap_or_default(),
            isolated: self.graph.isolated_nodes().len(),
            activity_days: self.activity.len(),
        }
    }

    /// Per-node attribute columns used across figures.
    pub fn followers(&self) -> Vec<f64> {
        self.profiles.iter().map(|p| p.followers_count as f64).collect()
    }

    /// Friend counts (global following).
    pub fn friends(&self) -> Vec<f64> {
        self.profiles.iter().map(|p| p.friends_count as f64).collect()
    }

    /// Public list memberships.
    pub fn listed(&self) -> Vec<f64> {
        self.profiles.iter().map(|p| p.listed_count as f64).collect()
    }

    /// Lifetime status counts.
    pub fn statuses(&self) -> Vec<f64> {
        self.profiles.iter().map(|p| p.statuses_count as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_small_dataset() {
        let ds = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
        let s = ds.summary();
        assert!(s.users > 2_500 && s.users < 4_000, "users={}", s.users);
        assert!(s.edges > 10_000);
        assert_eq!(s.activity_days, 366);
        assert_eq!(ds.profiles.len(), ds.graph.node_count());
        // Everyone is English post-crawl.
        assert!(ds.profiles.iter().all(|p| p.lang == "en"));
    }

    #[test]
    fn summary_names_the_champion() {
        let ds = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
        let s = ds.summary();
        // The global max-out-degree handle is 6BillionPeople; it is English
        // in the default seed, so it survives the filter and stays champion
        // of the sub-graph (degree may shrink, order usually holds).
        assert!(!s.max_out_handle.is_empty());
        assert!(s.max_out_degree > 0);
    }

    #[test]
    fn synthesize_with_faults_converges_and_records_provenance() {
        // A generated (healing) plan under realistic rate limits must
        // converge to the exact fault-free dataset; the only trace of the
        // faults is the provenance record and the stats tally.
        let config = SynthesisConfig {
            rate_limits: RateLimitPolicy::default(),
            ..SynthesisConfig::small()
        };
        let plan = FaultPlan::generate(7);
        let faulty = Dataset::build_with_faults(&config, &plan, &AnalysisCtx::quiet()).unwrap();
        match faulty.provenance {
            DatasetProvenance::FaultInjected { seed, degraded, passes } => {
                assert_eq!(seed, 7);
                assert!(!degraded, "healing plan must not degrade");
                assert!(passes >= 1);
            }
            other => panic!("wrong provenance: {other:?}"),
        }
        let clean = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
        assert_eq!(clean.provenance, DatasetProvenance::Synthesized);
        assert_eq!(faulty.graph, clean.graph);
        assert_eq!(faulty.profiles, clean.profiles);
        // The fingerprint hashes payload, not provenance: the converged
        // faulty crawl is indistinguishable from the clean one.
        assert_eq!(faulty.fingerprint(), clean.fingerprint());
    }

    /// The `vnet-dataset-v1` fingerprint as first defined: every part
    /// serialized into a buffer, then hashed.
    fn buffered_fingerprint(ds: &Dataset) -> u64 {
        let mut graph_bytes = Vec::new();
        vnet_graph::io::write_binary(&ds.graph, &mut graph_bytes).expect("in-memory write");
        let g = vnet_obs::fingerprint_bytes(&graph_bytes);
        let p = vnet_obs::fingerprint_str(&serde_json::to_string(&ds.profiles).expect("json"));
        let a = vnet_obs::fingerprint_str(&serde_json::to_string(&ds.activity).expect("json"));
        vnet_obs::fingerprint_str(&format!(
            "vnet-dataset-v1:{g:016x}:{p:016x}:{a:016x}:{}",
            ds.activity_start
        ))
    }

    #[test]
    fn digest_then_graph_is_the_buffered_fingerprint() {
        let small = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
        let graph = vnet_graph::builder::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 2)])
            .expect("valid edges");
        let parts = Dataset::from_parts(
            graph,
            small.profiles[..3].to_vec(),
            vec![4.0, 0.5, 7.25],
            Date::new(2017, 6, 1),
        );
        for ds in [&small, &parts] {
            let fp = ds.digest().fingerprint(&ds.graph);
            assert_eq!(fp, ds.fingerprint());
            assert_eq!(fp, buffered_fingerprint(ds));
        }
        // One digest fingerprints any graph as the dataset holding it.
        let swapped = Dataset { graph: parts.graph.clone(), ..small.clone() };
        assert_eq!(small.digest().fingerprint(&parts.graph), buffered_fingerprint(&swapped));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let ds = Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet());
        let fp = ds.fingerprint();
        assert_eq!(fp, ds.fingerprint());
        let changed = |tweak: &dyn Fn(&mut Dataset)| {
            let mut tweaked = ds.clone();
            tweak(&mut tweaked);
            tweaked.fingerprint()
        };
        assert_ne!(fp, changed(&|d| d.activity[0] += 1.0), "activity");
        assert_ne!(fp, changed(&|d| d.profiles[7].listed_count += 1), "profile count");
        assert_ne!(fp, changed(&|d| d.profiles[0].bio.push('.')), "profile bio");
        assert_ne!(fp, changed(&|d| d.activity_start = Date::new(2017, 6, 2)), "start date");
        // One edge dropped from the graph.
        let edges: Vec<_> = ds.graph.edges().skip(1).collect();
        let fewer = vnet_graph::builder::from_edges(ds.graph.node_count() as u32, &edges)
            .expect("valid edges");
        assert_ne!(fp, changed(&|d| d.graph = fewer.clone()), "edge");
        // Telemetry and provenance are not content.
        assert_eq!(fp, changed(&|d| d.crawl_stats.passes += 1), "crawl stats");
        assert_eq!(fp, changed(&|d| d.provenance = DatasetProvenance::Loaded), "provenance");
    }

    #[test]
    fn from_parts_checks_alignment() {
        let g = DiGraph::empty(2);
        let result = std::panic::catch_unwind(|| {
            Dataset::from_parts(g, Vec::new(), Vec::new(), Date::new(2017, 6, 1))
        });
        assert!(result.is_err());
    }
}
