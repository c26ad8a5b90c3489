//! The Section III crawler, reproduced as code.
//!
//! "The '@verified' handle on Twitter follows all accounts on the platform
//! that are currently verified. We queried this handle ... and extracted
//! the IDs of 297,776 users ... We used the REST API to acquire profile
//! information ... We further extracted a subset of verified users who had
//! English listed as their profile language. ... For each verified user,
//! we also queried the API in order to obtain the list of outlinks or
//! friends ... We filtered this list of friends and retained only those
//! nodes that were leading to other verified users, thus obtaining the
//! internal network existing among the verified users."
//!
//! The crawler below performs exactly those steps against the simulated
//! API, including rate-limit waits (simulated-clock sleeps), bounded
//! exponential-backoff retries of transient failures, cursor-restart
//! handling for mid-crawl roster churn, and — via
//! [`Crawler::crawl_resumable`] — checkpointed multi-pass crawls that
//! verify the roster stayed stable and report how degraded the result is
//! when it did not.

use crate::api::{ApiError, TwitterApi, LOOKUP_BATCH};
use crate::faults::FaultTally;
use crate::society::{UserId, UserProfile};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use vnet_graph::{DiGraph, GraphBuilder, NodeId};
use vnet_obs::Obs;

/// Result of the harvest phase: `(roster, english ids, profiles aligned
/// with english)`.
type Harvest = (Vec<UserId>, Vec<UserId>, Vec<UserProfile>);

/// Telemetry from a crawl. Integer counters only, so two runs can be
/// compared for exact equality (the replay-determinism guarantee of
/// [`crate::faults::FaultPlan`] is tested that way).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CrawlStats {
    /// Verified ids harvested from the roster.
    pub roster_size: usize,
    /// Profiles hydrated.
    pub profiles_fetched: usize,
    /// English profiles retained.
    pub english_users: usize,
    /// `friends/ids` pages fetched.
    pub friend_pages: usize,
    /// Raw friend links seen (before the verified-only filter).
    pub raw_friend_links: usize,
    /// Links retained (leading to other English verified users).
    pub internal_links: usize,
    /// Rate-limit waits taken.
    pub rate_limit_waits: usize,
    /// Transient errors retried.
    pub transient_retries: usize,
    /// Simulated seconds the crawl took.
    pub simulated_seconds: u64,
    /// Cursored listings restarted after [`ApiError::CursorExpired`].
    pub cursor_restarts: usize,
    /// Ids dropped by pagination dedupe (re-served by overlapping pages).
    pub duplicate_ids_dropped: usize,
    /// Full crawl passes taken (0 for the single-pass [`Crawler::crawl`]).
    pub passes: usize,
    /// Faults injected by the API while this crawl ran.
    pub faults: FaultTally,
}

impl CrawlStats {
    /// Export every counter into a metrics registry as absolute
    /// `crawl.*` counters (plus `faults.injected{kind}` via
    /// [`FaultTally::export_metrics`]), so manifests and fault tables can
    /// be rendered from the registry alone.
    pub fn export_metrics(&self, obs: &Obs) {
        obs.set_counter("crawl.roster_size", &[], self.roster_size as u64);
        obs.set_counter("crawl.profiles_fetched", &[], self.profiles_fetched as u64);
        obs.set_counter("crawl.english_users", &[], self.english_users as u64);
        obs.set_counter("crawl.friend_pages", &[], self.friend_pages as u64);
        obs.set_counter("crawl.raw_friend_links", &[], self.raw_friend_links as u64);
        obs.set_counter("crawl.internal_links", &[], self.internal_links as u64);
        obs.set_counter("crawl.rate_limit_waits", &[], self.rate_limit_waits as u64);
        obs.set_counter("crawl.transient_retries", &[], self.transient_retries as u64);
        obs.set_counter("crawl.simulated_seconds", &[], self.simulated_seconds);
        obs.set_counter("crawl.cursor_restarts", &[], self.cursor_restarts as u64);
        obs.set_counter("crawl.duplicate_ids_dropped", &[], self.duplicate_ids_dropped as u64);
        obs.set_counter("crawl.passes", &[], self.passes as u64);
        self.faults.export_metrics(obs);
    }
}

/// The crawled dataset: the paper's analysis object.
#[derive(Debug, Clone)]
pub struct CrawlDataset {
    /// Induced follow graph among English verified users; node ids are
    /// dense indices into `profiles`.
    pub graph: DiGraph,
    /// Profile of each node.
    pub profiles: Vec<UserProfile>,
    /// Platform id of each node.
    pub platform_ids: Vec<UserId>,
    /// Crawl telemetry.
    pub stats: CrawlStats,
}

/// A serializable resume point for [`Crawler::crawl_resumable`]: everything
/// needed to pick a crawl back up after an abort — on a fresh process, a
/// fresh API binding, or after the operator fixed whatever was on fire.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CrawlCheckpoint {
    /// 1-based pass number (0 in a fresh checkpoint).
    pub pass: usize,
    /// Has this pass harvested its roster yet?
    pub harvested: bool,
    /// The pass's `@verified` roster (harvest order).
    pub roster: Vec<UserId>,
    /// English subset of the roster, in roster order; the node-id space.
    pub english: Vec<UserId>,
    /// Profiles aligned with `english`.
    pub profiles: Vec<UserProfile>,
    /// Internal (English-verified) friend ids of `english[0..next_index]`,
    /// one list per crawled user.
    pub adj: Vec<Vec<UserId>>,
    /// Next index into `english` whose friend list is still uncrawled.
    pub next_index: usize,
    /// Telemetry accumulated so far (across aborts and resumes).
    pub stats: CrawlStats,
}

/// How a resumable crawl ended.
#[derive(Debug)]
pub enum CrawlOutcome {
    /// The crawl finished and its end-of-pass roster verification matched:
    /// the dataset is exactly what a fault-free crawl produces (the fault
    /// history survives only in [`CrawlStats::faults`]).
    Complete(CrawlDataset),
    /// The crawl finished but the roster was still drifting after the pass
    /// budget: the dataset is internally consistent for the roster its
    /// final pass observed, and `roster_drift` says how far off it was.
    Degraded {
        /// The final pass's dataset.
        dataset: CrawlDataset,
        /// Ids present in exactly one of (final pass roster, verification
        /// roster) — the symmetric-difference size.
        roster_drift: usize,
        /// Passes taken (equals the pass budget).
        passes: usize,
    },
    /// A non-recoverable error (retry budget exhausted, bad request):
    /// resume later from the checkpoint.
    Aborted {
        /// The error that stopped the crawl.
        error: ApiError,
        /// Resume point capturing all progress made.
        checkpoint: Box<CrawlCheckpoint>,
    },
}

/// Retry backoff parameters: exponential from [`BACKOFF_BASE_SECS`] doubling
/// per retry, capped at [`BACKOFF_CAP_SECS`] (one rate-limit window), with
/// deterministic jitter in the upper half of the interval.
const BACKOFF_BASE_SECS: u64 = 5;
/// Upper bound of a single backoff sleep.
const BACKOFF_CAP_SECS: u64 = 900;
/// Pass budget for [`Crawler::crawl_resumable`].
const MAX_PASSES: usize = 8;

/// A crawler over a [`TwitterApi`].
pub struct Crawler<'a, 's> {
    api: &'a TwitterApi<'s>,
    max_retries: usize,
    obs: Arc<Obs>,
}

impl<'a, 's> Crawler<'a, 's> {
    /// Build a crawler with the default retry budget.
    pub fn new(api: &'a TwitterApi<'s>) -> Self {
        Self { api, max_retries: 25, obs: Obs::noop() }
    }

    /// Bind an observability handle: crawl phases open spans and retry
    /// backoffs land in a `crawl.backoff_secs` histogram. Pair with
    /// [`TwitterApi::with_obs`] on the same handle so span timings read
    /// the simulated clock.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        obs.declare_buckets("crawl.backoff_secs", &[5.0, 15.0, 60.0, 300.0, 900.0]);
        self.obs = obs;
        self
    }

    /// Run the full Section III acquisition pipeline (single pass, no
    /// end-of-pass verification — see [`Crawler::crawl_resumable`] for the
    /// churn-hardened variant).
    pub fn crawl(&self) -> Result<CrawlDataset, ApiError> {
        let _span = self.obs.span("crawl");
        let mut stats = CrawlStats::default();
        let start_time = self.api.clock().now();
        let tally0 = self.api.fault_tally();

        // Steps 1–3: roster, profiles, English filter.
        let (_, english, profiles) = self.harvest_and_hydrate(&mut stats)?;
        let node_of: HashMap<UserId, NodeId> =
            english.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
        let english_set: HashSet<UserId> = english.iter().copied().collect();

        // Step 4: crawl friend lists and keep only internal links.
        let mut builder = GraphBuilder::new(english.len() as u32);
        {
            let _span = self.obs.span("crawl.friends");
            for (u, &id) in english.iter().enumerate() {
                let friends = self
                    .collect_cursored(&mut stats, |cursor| self.api.friends_ids(id, cursor))?;
                stats.friend_pages += 1 + friends.len() / crate::api::FRIENDS_PAGE;
                stats.raw_friend_links += friends.len();
                for fid in friends {
                    if english_set.contains(&fid) {
                        let v = node_of[&fid];
                        builder.add_edge(u as u32, v).expect("node ids dense by construction");
                        stats.internal_links += 1;
                    }
                }
            }
        }

        stats.simulated_seconds = self.api.clock().now() - start_time;
        stats.faults = self.api.fault_tally().since(&tally0);

        Ok(CrawlDataset { graph: builder.build(), profiles, platform_ids: english, stats })
    }

    /// Reverse crawl: rebuild the same induced graph from `followers/ids`
    /// instead of `friends/ids`. On a consistent platform the result must
    /// equal [`Crawler::crawl`]'s graph edge-for-edge; real measurement
    /// studies run exactly this cross-validation to detect API pagination
    /// bugs and mid-crawl drift.
    pub fn crawl_reverse(&self) -> Result<CrawlDataset, ApiError> {
        let _span = self.obs.span("crawl.reverse");
        let mut stats = CrawlStats::default();
        let start_time = self.api.clock().now();
        let tally0 = self.api.fault_tally();

        let (_, english, profiles) = self.harvest_and_hydrate(&mut stats)?;
        let node_of: HashMap<UserId, NodeId> =
            english.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
        let english_set: HashSet<UserId> = english.iter().copied().collect();

        // Reverse direction: each follower edge (f -> id) is recorded at
        // the *target* side.
        let mut builder = GraphBuilder::new(english.len() as u32);
        {
            let _span = self.obs.span("crawl.followers");
            for (v, &id) in english.iter().enumerate() {
                let followers = self
                    .collect_cursored(&mut stats, |cursor| self.api.followers_ids(id, cursor))?;
                stats.friend_pages += 1 + followers.len() / crate::api::FRIENDS_PAGE;
                stats.raw_friend_links += followers.len();
                for fid in followers {
                    if english_set.contains(&fid) {
                        let u = node_of[&fid];
                        builder.add_edge(u, v as u32).expect("node ids dense by construction");
                        stats.internal_links += 1;
                    }
                }
            }
        }

        stats.simulated_seconds = self.api.clock().now() - start_time;
        stats.faults = self.api.fault_tally().since(&tally0);
        Ok(CrawlDataset { graph: builder.build(), profiles, platform_ids: english, stats })
    }

    /// Churn-hardened, checkpointable crawl.
    ///
    /// Runs the Section III pipeline in *passes*: after each pass's friend
    /// crawl, the roster is re-harvested and re-hydrated; if it matches the
    /// roster the pass was built on, the listing was stable for the whole
    /// pass and the result is [`CrawlOutcome::Complete`] — under any
    /// healing [`crate::faults::FaultPlan`] this is bit-identical to the
    /// fault-free crawl. A mismatch starts a fresh pass from the new
    /// roster, up to an 8-pass budget, after which the last consistent
    /// dataset is returned as [`CrawlOutcome::Degraded`] with the measured
    /// drift. Non-recoverable errors return [`CrawlOutcome::Aborted`] with
    /// a serializable [`CrawlCheckpoint`]; pass it back in (same or fresh
    /// API binding) to continue where the crawl stopped.
    pub fn crawl_resumable(&self, resume: Option<CrawlCheckpoint>) -> CrawlOutcome {
        let _span = self.obs.span("crawl.resumable");
        let start_time = self.api.clock().now();
        let tally0 = self.api.fault_tally();
        let mut ckpt = resume.unwrap_or_default();
        if ckpt.pass == 0 {
            ckpt.pass = 1;
        }
        let finish_stats = |ckpt: &mut CrawlCheckpoint, crawler: &Self| {
            ckpt.stats.simulated_seconds += crawler.api.clock().now() - start_time;
            ckpt.stats.faults.merge(&crawler.api.fault_tally().since(&tally0));
            ckpt.stats.passes = ckpt.pass;
        };
        loop {
            let pass_result = {
                let _span = self.obs.span("crawl.pass");
                self.run_pass(&mut ckpt)
            };
            if let Err(error) = pass_result {
                finish_stats(&mut ckpt, self);
                return CrawlOutcome::Aborted { error, checkpoint: Box::new(ckpt) };
            }
            // End-of-pass verification: a fresh harvest must reproduce the
            // roster this pass crawled, else the listing moved under us.
            let _verify_span = self.obs.span("crawl.verify");
            let mut verify_stats = CrawlStats::default();
            let fresh = match self.harvest_and_hydrate(&mut verify_stats) {
                Ok(triple) => triple,
                Err(error) => {
                    ckpt.stats.rate_limit_waits += verify_stats.rate_limit_waits;
                    ckpt.stats.transient_retries += verify_stats.transient_retries;
                    ckpt.stats.cursor_restarts += verify_stats.cursor_restarts;
                    ckpt.stats.duplicate_ids_dropped += verify_stats.duplicate_ids_dropped;
                    finish_stats(&mut ckpt, self);
                    return CrawlOutcome::Aborted { error, checkpoint: Box::new(ckpt) };
                }
            };
            ckpt.stats.rate_limit_waits += verify_stats.rate_limit_waits;
            ckpt.stats.transient_retries += verify_stats.transient_retries;
            ckpt.stats.cursor_restarts += verify_stats.cursor_restarts;
            ckpt.stats.duplicate_ids_dropped += verify_stats.duplicate_ids_dropped;
            let (fresh_roster, fresh_english, fresh_profiles) = fresh;

            if fresh_roster == ckpt.roster {
                // Stable pass. Use the verification profiles — they are the
                // freshest read, and under a healed plan they are exact.
                finish_stats(&mut ckpt, self);
                let dataset = Self::assemble(&ckpt, fresh_profiles);
                return CrawlOutcome::Complete(dataset);
            }

            let drift = {
                let a: HashSet<UserId> = ckpt.roster.iter().copied().collect();
                let b: HashSet<UserId> = fresh_roster.iter().copied().collect();
                a.symmetric_difference(&b).count()
            };
            if ckpt.pass >= MAX_PASSES {
                finish_stats(&mut ckpt, self);
                let passes = ckpt.pass;
                let profiles = ckpt.profiles.clone();
                let dataset = Self::assemble(&ckpt, profiles);
                return CrawlOutcome::Degraded { dataset, roster_drift: drift, passes };
            }
            // The verification harvest doubles as the next pass's step 1–3:
            // carry it over instead of re-fetching.
            ckpt = CrawlCheckpoint {
                pass: ckpt.pass + 1,
                harvested: true,
                roster: fresh_roster,
                english: fresh_english,
                profiles: fresh_profiles,
                adj: Vec::new(),
                next_index: 0,
                stats: CrawlStats {
                    roster_size: verify_stats.roster_size,
                    profiles_fetched: verify_stats.profiles_fetched,
                    english_users: verify_stats.english_users,
                    ..ckpt.stats
                },
            };
        }
    }

    /// One pass: harvest + hydrate (unless the checkpoint already did) and
    /// crawl friend lists from `next_index` on, checkpointing progress.
    fn run_pass(&self, ckpt: &mut CrawlCheckpoint) -> Result<(), ApiError> {
        if !ckpt.harvested {
            let (roster, english, profiles) = self.harvest_and_hydrate(&mut ckpt.stats)?;
            ckpt.roster = roster;
            ckpt.english = english;
            ckpt.profiles = profiles;
            ckpt.adj = Vec::new();
            ckpt.next_index = 0;
            ckpt.harvested = true;
        }
        let english_set: HashSet<UserId> = ckpt.english.iter().copied().collect();
        while ckpt.next_index < ckpt.english.len() {
            let id = ckpt.english[ckpt.next_index];
            let friends = self
                .collect_cursored(&mut ckpt.stats, |cursor| self.api.friends_ids(id, cursor))?;
            ckpt.stats.friend_pages += 1 + friends.len() / crate::api::FRIENDS_PAGE;
            ckpt.stats.raw_friend_links += friends.len();
            let internal: Vec<UserId> =
                friends.into_iter().filter(|fid| english_set.contains(fid)).collect();
            ckpt.stats.internal_links += internal.len();
            ckpt.adj.push(internal);
            ckpt.next_index += 1;
        }
        Ok(())
    }

    /// Build the dataset from a finished pass's adjacency.
    fn assemble(ckpt: &CrawlCheckpoint, profiles: Vec<UserProfile>) -> CrawlDataset {
        let node_of: HashMap<UserId, NodeId> =
            ckpt.english.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
        let mut builder = GraphBuilder::new(ckpt.english.len() as u32);
        for (u, internal) in ckpt.adj.iter().enumerate() {
            for fid in internal {
                let v = node_of[fid];
                builder.add_edge(u as u32, v).expect("node ids dense by construction");
            }
        }
        CrawlDataset {
            graph: builder.build(),
            profiles,
            platform_ids: ckpt.english.clone(),
            stats: ckpt.stats.clone(),
        }
    }

    /// Steps 1–3 of the pipeline: harvest the roster, hydrate profiles in
    /// lookup batches, filter to English preserving roster order. Returns
    /// `(roster, english ids, profiles aligned with english)`.
    fn harvest_and_hydrate(&self, stats: &mut CrawlStats) -> Result<Harvest, ApiError> {
        let _span = self.obs.span("crawl.harvest");
        let roster = self.collect_cursored(stats, |cursor| self.api.verified_ids(cursor))?;
        stats.roster_size = roster.len();

        let mut profiles_by_id: HashMap<UserId, UserProfile> =
            HashMap::with_capacity(roster.len());
        for chunk in roster.chunks(LOOKUP_BATCH) {
            let batch = self.with_retry(stats, || self.api.users_lookup(chunk))?;
            for p in batch {
                profiles_by_id.insert(p.id, p);
            }
        }
        stats.profiles_fetched = profiles_by_id.len();

        let english: Vec<UserId> = roster
            .iter()
            .copied()
            .filter(|id| profiles_by_id.get(id).is_some_and(|p| p.lang == "en"))
            .collect();
        stats.english_users = english.len();
        let profiles: Vec<UserProfile> =
            english.iter().map(|id| profiles_by_id[id].clone()).collect();
        Ok((roster, english, profiles))
    }

    /// Drain a cursored endpoint into a flat deduplicated id list.
    ///
    /// Duplicate ids (re-served by overlapping pages) are dropped, keeping
    /// first-occurrence order — this is what makes
    /// [`crate::faults::FaultClause::DuplicatedPages`] lossless. A
    /// [`ApiError::CursorExpired`] reply (the listing's generation moved)
    /// restarts the listing from the top; restarts are finite because the
    /// generation counter is bounded by the fault plan's window count.
    fn collect_cursored<F>(
        &self,
        stats: &mut CrawlStats,
        mut fetch: F,
    ) -> Result<Vec<UserId>, ApiError>
    where
        F: FnMut(u64) -> Result<crate::api::Page, ApiError>,
    {
        let mut out = Vec::new();
        let mut seen: HashSet<UserId> = HashSet::new();
        let mut cursor = 1u64;
        loop {
            let page = match self.with_retry(stats, || fetch(cursor)) {
                Ok(page) => page,
                Err(ApiError::CursorExpired) => {
                    stats.cursor_restarts += 1;
                    out.clear();
                    seen.clear();
                    cursor = 1;
                    continue;
                }
                Err(other) => return Err(other),
            };
            for id in page.ids {
                if seen.insert(id) {
                    out.push(id);
                } else {
                    stats.duplicate_ids_dropped += 1;
                }
            }
            if page.next_cursor == 0 {
                return Ok(out);
            }
            cursor = page.next_cursor;
        }
    }

    /// Retry wrapper handling rate limits (advance the simulated clock by
    /// the reported wait) and transient server errors (bounded exponential
    /// backoff with deterministic jitter, so retry timing replays exactly
    /// for a given fault seed).
    fn with_retry<T, F>(&self, stats: &mut CrawlStats, mut call: F) -> Result<T, ApiError>
    where
        F: FnMut() -> Result<T, ApiError>,
    {
        let mut retries = 0usize;
        loop {
            match call() {
                Ok(v) => return Ok(v),
                Err(ApiError::RateLimited { retry_after }) => {
                    stats.rate_limit_waits += 1;
                    self.api.clock().advance(retry_after.max(1));
                }
                Err(ApiError::ServerError) => {
                    retries += 1;
                    stats.transient_retries += 1;
                    if retries > self.max_retries {
                        return Err(ApiError::ServerError);
                    }
                    let wait = backoff_secs(retries, self.api.clock().now());
                    self.obs.observe("crawl.backoff_secs", &[], wait);
                    self.api.clock().advance(wait);
                }
                Err(fatal) => return Err(fatal),
            }
        }
    }
}

/// Exponential backoff with deterministic jitter: doubling from
/// [`BACKOFF_BASE_SECS`], capped at [`BACKOFF_CAP_SECS`], and jittered into
/// the upper half of the interval by a hash of `(retries, now)` — no wall
/// clock, no RNG state, so the sleep sequence is a pure function of the
/// simulation history.
fn backoff_secs(retries: usize, now: u64) -> u64 {
    // Saturating end to end: `retries == 0` must not underflow the
    // subtraction, and the doubling exponent is clamped before the shift so
    // no retry count can shift past the word width.
    let exp = BACKOFF_BASE_SECS.saturating_mul(1u64 << retries.saturating_sub(1).min(8));
    let cap = exp.min(BACKOFF_CAP_SECS);
    let mut z = (retries as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(now.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    cap / 2 + z % (cap / 2 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{RateLimitPolicy, SimClock};
    use crate::society::{Society, SocietyConfig};
    use vnet_graph::induced_subgraph;

    fn small_society() -> Society {
        Society::generate(&SocietyConfig::small())
    }

    #[test]
    fn crawl_recovers_exact_english_subgraph() {
        let s = small_society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        let ds = Crawler::new(&api).crawl().unwrap();

        // Ground truth: induce the English sub-graph directly.
        let english_nodes: Vec<u32> = (0..s.user_count() as u32)
            .filter(|&v| s.profiles[v as usize].lang == "en")
            .collect();
        let truth = induced_subgraph(&s.network.graph, &english_nodes);

        assert_eq!(ds.graph, truth.graph, "crawled graph must equal the induced sub-graph");
        assert_eq!(ds.stats.roster_size, s.user_count());
        assert_eq!(ds.stats.english_users, english_nodes.len());
        assert_eq!(ds.stats.internal_links, truth.graph.edge_count());
        // Profiles aligned with node ids.
        for (v, p) in ds.profiles.iter().enumerate() {
            assert_eq!(p.id, ds.platform_ids[v]);
            assert_eq!(p.lang, "en");
        }
    }

    #[test]
    fn crawl_survives_rate_limits() {
        let s = small_society();
        let clock = SimClock::new();
        // Tight quotas force many waits.
        let policy = RateLimitPolicy { friends_ids: 200, users_lookup: 20, roster: 2, window_secs: 900 };
        let api = TwitterApi::new(&s, clock.clone(), policy, 0.0);
        let ds = Crawler::new(&api).crawl().unwrap();
        assert!(ds.stats.rate_limit_waits > 0, "expected rate-limit waits");
        assert!(ds.stats.simulated_seconds > 0);
        assert_eq!(ds.stats.english_users, ds.graph.node_count());
    }

    #[test]
    fn crawl_survives_transient_failures() {
        let s = small_society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.10);
        let ds = Crawler::new(&api).crawl().unwrap();
        assert!(ds.stats.transient_retries > 0, "expected retries");
        // The dataset must still be complete and exact.
        let english_nodes: Vec<u32> = (0..s.user_count() as u32)
            .filter(|&v| s.profiles[v as usize].lang == "en")
            .collect();
        let truth = induced_subgraph(&s.network.graph, &english_nodes);
        assert_eq!(ds.graph, truth.graph);
    }

    #[test]
    fn forward_and_reverse_crawls_agree() {
        // The §III crawl via friends/ids and the cross-validation crawl
        // via followers/ids must produce the identical graph.
        let s = small_society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        let crawler = Crawler::new(&api);
        let forward = crawler.crawl().unwrap();
        let reverse = crawler.crawl_reverse().unwrap();
        assert_eq!(forward.graph, reverse.graph);
        assert_eq!(forward.platform_ids, reverse.platform_ids);
        assert_eq!(forward.stats.internal_links, reverse.stats.internal_links);
    }

    #[test]
    fn crawled_graph_is_sparse_and_mostly_connected() {
        let s = small_society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        let ds = Crawler::new(&api).crawl().unwrap();
        assert!(ds.graph.density() < 0.05);
        let scc = vnet_algos::components::strongly_connected_components(&ds.graph);
        assert!(scc.giant_fraction() > 0.9, "giant SCC {}", scc.giant_fraction());
    }

    #[test]
    fn resumable_without_faults_matches_plain_crawl() {
        let s = small_society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        let plain = Crawler::new(&api).crawl().unwrap();
        let api2 = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        match Crawler::new(&api2).crawl_resumable(None) {
            CrawlOutcome::Complete(ds) => {
                assert_eq!(ds.graph, plain.graph);
                assert_eq!(ds.platform_ids, plain.platform_ids);
                assert_eq!(ds.profiles, plain.profiles);
                assert_eq!(ds.stats.passes, 1);
            }
            other => panic!("fault-free resumable crawl must complete: {other:?}"),
        }
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        for retries in 1..30usize {
            for now in [0u64, 17, 900, 123_456] {
                let a = backoff_secs(retries, now);
                assert_eq!(a, backoff_secs(retries, now));
                let cap = (BACKOFF_BASE_SECS << retries.saturating_sub(1).min(8))
                    .min(BACKOFF_CAP_SECS);
                assert!(a >= cap / 2 && a <= cap, "retry {retries}: {a} not in [{}/2, {cap}]", cap);
            }
        }
    }

    #[test]
    fn backoff_saturates_at_extreme_retry_counts() {
        // retries == 0 must not underflow the `retries - 1` doubling
        // exponent: it lands in the first-retry interval (the jitter hash
        // still sees the distinct retry count, so only the bounds match).
        for now in [0u64, 17, 123_456] {
            let a = backoff_secs(0, now);
            assert!(
                a >= BACKOFF_BASE_SECS / 2 && a <= BACKOFF_BASE_SECS,
                "retry 0: {a} outside base interval"
            );
        }
        // Far beyond the clamp the backoff is pinned to the cap interval —
        // no shift overflow at 64+, no saturating_mul wrap on the way there.
        for retries in [9usize, 63, 64, 65, 1_000, usize::MAX] {
            for now in [0u64, 17, 900, u64::MAX] {
                let a = backoff_secs(retries, now);
                assert!(
                    a >= BACKOFF_CAP_SECS / 2 && a <= BACKOFF_CAP_SECS,
                    "retry {retries}: {a} outside capped interval"
                );
            }
        }
    }
}
