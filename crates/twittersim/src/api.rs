//! The REST API facade: cursors, rate limits, transient failures.
//!
//! Endpoint semantics mirror the real Twitter REST API the paper used:
//! `friends/ids` returns up to 5,000 ids per page with a `next_cursor`;
//! `users/lookup` hydrates up to 100 profiles per call; every endpoint has
//! a 15-minute rate-limit window. Time is simulated — a [`SimClock`] the
//! crawler advances when it must wait — so a "week-long" crawl runs in
//! milliseconds while exercising the same control flow.

use crate::churn::FlickerSchedule;
use crate::faults::{endpoint_salt, FaultClause, FaultPlan, FaultTally};
use crate::society::{Society, UserId, UserProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use vnet_obs::Obs;

/// `Mutex::lock` that treats poisoning as fatal (parking-lot semantics;
/// a panic mid-update means the simulation state is unreliable anyway).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("twittersim mutex poisoned")
}

/// A shared simulated clock (seconds since crawl start).
#[derive(Debug, Clone, Default)]
pub struct SimClock(Arc<AtomicU64>);

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Advance by `seconds`.
    pub fn advance(&self, seconds: u64) {
        self.0.fetch_add(seconds, Ordering::SeqCst);
    }
}

/// Per-endpoint request quota per 15-minute window, mirroring the real
/// API's published limits of the era.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitPolicy {
    /// `friends/ids` calls per window (real API: 15).
    pub friends_ids: u32,
    /// `users/lookup` calls per window (real API: 300).
    pub users_lookup: u32,
    /// `followers/ids`-style roster pages per window.
    pub roster: u32,
    /// Window length in seconds (real API: 900).
    pub window_secs: u64,
}

impl Default for RateLimitPolicy {
    fn default() -> Self {
        Self { friends_ids: 15, users_lookup: 300, roster: 15, window_secs: 900 }
    }
}

impl RateLimitPolicy {
    /// Effectively unlimited — for tests that exercise logic, not waiting.
    pub fn unlimited() -> Self {
        Self { friends_ids: u32::MAX, users_lookup: u32::MAX, roster: u32::MAX, window_secs: 900 }
    }
}

/// One page of a cursored id listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// The ids on this page.
    pub ids: Vec<UserId>,
    /// Cursor for the next page; `0` means exhausted (Twitter convention).
    pub next_cursor: u64,
}

/// API error surface the crawler must handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// Quota exhausted; retry after the given simulated seconds.
    RateLimited {
        /// Seconds until the window resets.
        retry_after: u64,
    },
    /// No such user.
    NotFound(UserId),
    /// Transient server error (HTTP 5xx analogue); safe to retry.
    ServerError,
    /// Malformed request (bad cursor, oversized batch).
    BadRequest(&'static str),
    /// A continuation cursor minted against an older roster generation:
    /// the listing changed under the client (mid-crawl verification
    /// churn). Restart the listing from cursor 1.
    CursorExpired,
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::RateLimited { retry_after } => {
                write!(f, "rate limited; retry after {retry_after}s")
            }
            ApiError::NotFound(id) => write!(f, "user {id} not found"),
            ApiError::ServerError => write!(f, "transient server error"),
            ApiError::BadRequest(m) => write!(f, "bad request: {m}"),
            ApiError::CursorExpired => write!(f, "cursor expired: listing changed"),
        }
    }
}

impl std::error::Error for ApiError {}

/// Ids per `friends/ids` page (real API value).
pub const FRIENDS_PAGE: usize = 5_000;
/// Profiles per `users/lookup` batch (real API value).
pub const LOOKUP_BATCH: usize = 100;

/// Cursor layout: low 40 bits are `offset + 1` (1 = first page, 0 = end
/// of list), high bits carry the roster generation for listings that can
/// change under the client.
const CURSOR_OFFSET_MASK: u64 = (1 << 40) - 1;

/// One fixed-window quota: the rate-limit accounting every simulated
/// endpoint is charged through, and the per-client admission window
/// `vnet-serve` charges requests through.
///
/// The window *starts at the first charged call* and resets lazily once
/// `now >= window_start + window_len`; a rejected call consumes no quota,
/// and its retry hint is exactly `window_start + window_len - now`. Time
/// units are the caller's: simulated seconds here, milliseconds in serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateWindow {
    used: u32,
    window_start: u64,
}

impl RateWindow {
    /// A fresh window opening at `now`, the clock reading of the first
    /// charged call.
    pub fn begin(now: u64) -> Self {
        Self { used: 0, window_start: now }
    }

    /// Admit one call against `quota` per `window_len` time units, or
    /// reject with the time until this window resets. An elapsed window
    /// resets first (`used = 0`, `window_start = now`).
    pub fn charge(&mut self, now: u64, quota: u32, window_len: u64) -> Result<(), u64> {
        if now >= self.window_start + window_len {
            self.used = 0;
            self.window_start = now;
        }
        if self.used >= quota {
            return Err(self.window_start + window_len - now);
        }
        self.used += 1;
        Ok(())
    }

    /// Calls admitted in the current window.
    pub fn used(&self) -> u32 {
        self.used
    }
}

/// Per-API fault machinery: the plan, its materialized flicker schedule,
/// a monotone per-endpoint attempt counter (the replay-stable salt for
/// per-call decisions), and the running tally.
struct FaultState {
    plan: FaultPlan,
    flicker: FlickerSchedule,
    attempts: Mutex<HashMap<&'static str, u64>>,
    tally: Mutex<FaultTally>,
}

/// The simulated REST API bound to a [`Society`].
pub struct TwitterApi<'a> {
    society: &'a Society,
    clock: SimClock,
    policy: RateLimitPolicy,
    failure_rate: f64,
    windows: Mutex<HashMap<&'static str, RateWindow>>,
    rng: Mutex<StdRng>,
    calls: Mutex<HashMap<&'static str, u64>>,
    timeline: Option<crate::churn::RosterTimeline>,
    faults: Option<FaultState>,
    obs: Arc<Obs>,
}

impl<'a> TwitterApi<'a> {
    /// Bind an API to a society with the given clock, limits and transient
    /// failure probability.
    pub fn new(
        society: &'a Society,
        clock: SimClock,
        policy: RateLimitPolicy,
        failure_rate: f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&failure_rate), "failure_rate in [0,1)");
        Self {
            society,
            clock,
            policy,
            failure_rate,
            windows: Mutex::new(HashMap::new()),
            rng: Mutex::new(StdRng::seed_from_u64(0xA11CE)),
            calls: Mutex::new(HashMap::new()),
            timeline: None,
            faults: None,
            obs: Obs::noop(),
        }
    }

    /// Bind an observability handle: every request, rate-limit hit, and
    /// injected fault is counted per endpoint, and the handle's tracer is
    /// wired to this API's [`SimClock`] so spans opened downstream get
    /// deterministic simulated timings.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        let clock = self.clock.clone();
        obs.set_sim_clock(Arc::new(move || clock.now()));
        self.obs = obs;
        self
    }

    /// Bind a verification-churn timeline: the `@verified` roster then
    /// depends on the simulated day (`clock / 86_400`), so slow crawls can
    /// observe drift — the hazard the paper's single-snapshot methodology
    /// sidesteps.
    pub fn with_timeline(mut self, timeline: crate::churn::RosterTimeline) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Bind a deterministic fault plan. Every fault decision is a pure
    /// function of `(plan seed, clause, endpoint, per-endpoint attempt)`,
    /// so binding the same plan to a fresh API over the same society
    /// replays the exact same fault sequence.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        let flicker = FlickerSchedule::from_plan(&plan);
        self.faults = Some(FaultState {
            plan,
            flicker,
            attempts: Mutex::new(HashMap::new()),
            tally: Mutex::new(FaultTally::default()),
        });
        self
    }

    /// Running count of injected faults (all zeros when no plan is bound).
    pub fn fault_tally(&self) -> FaultTally {
        self.faults.as_ref().map(|f| *lock(&f.tally)).unwrap_or_default()
    }

    /// The clock this API reads.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Total successful calls per endpoint (telemetry for crawl stats).
    pub fn call_counts(&self) -> HashMap<&'static str, u64> {
        lock(&self.calls).clone()
    }

    /// Admit one call against `endpoint`'s quota and roll its fault
    /// decisions. Returns the 0-based per-endpoint attempt index (the
    /// replay-stable salt downstream fault draws key on); always 0 when no
    /// plan is bound. The counter advances on every call including failed
    /// ones, so a retry of a faulted call draws a fresh decision.
    fn charge(&self, endpoint: &'static str, quota: u32) -> Result<u64, ApiError> {
        let now = self.clock.now();
        self.obs.inc("api.requests", &[("endpoint", endpoint)]);
        let attempt = match &self.faults {
            Some(f) => {
                let mut attempts = lock(&f.attempts);
                let slot = attempts.entry(endpoint).or_insert(0);
                let current = *slot;
                *slot += 1;
                current
            }
            None => 0,
        };
        // Transient failures burn quota, like real 5xx responses did: the
        // window is charged before any fault is rolled.
        let charged = lock(&self.windows)
            .entry(endpoint)
            .or_insert_with(|| RateWindow::begin(now))
            .charge(now, quota, self.policy.window_secs);
        if let Err(mut retry_after) = charged {
            if let Some(f) = &self.faults {
                // Rate-limit skew: the reset header overstates the wait.
                // Costs simulated time only — never data.
                for c in f.plan.clauses() {
                    if let FaultClause::RateLimitSkew { extra_secs, .. } = *c {
                        if c.active_at(now) {
                            retry_after += extra_secs;
                            lock(&f.tally).skewed_waits += 1;
                            self.obs.inc(
                                "api.faults",
                                &[("endpoint", endpoint), ("kind", "rate_limit_skew")],
                            );
                        }
                    }
                }
            }
            self.obs.inc("api.rate_limited", &[("endpoint", endpoint)]);
            self.obs.observe("api.rate_limit_wait_secs", &[("endpoint", endpoint)], retry_after);
            return Err(ApiError::RateLimited { retry_after });
        }
        if let Some(f) = &self.faults {
            for (i, c) in f.plan.clauses().iter().enumerate() {
                if !c.active_at(now) {
                    continue;
                }
                match *c {
                    FaultClause::Outage { endpoint: ep, .. } if ep.covers(endpoint) => {
                        lock(&f.tally).outage_failures += 1;
                        self.obs
                            .inc("api.faults", &[("endpoint", endpoint), ("kind", "outage")]);
                        return Err(ApiError::ServerError);
                    }
                    FaultClause::ErrorBurst { endpoint: ep, probability, .. }
                        if ep.covers(endpoint)
                            && f.plan.decision(i, endpoint_salt(endpoint), attempt)
                                < probability =>
                    {
                        lock(&f.tally).burst_failures += 1;
                        self.obs
                            .inc("api.faults", &[("endpoint", endpoint), ("kind", "burst")]);
                        return Err(ApiError::ServerError);
                    }
                    _ => {}
                }
            }
        }
        if self.failure_rate > 0.0 && lock(&self.rng).random::<f64>() < self.failure_rate {
            self.obs.inc("api.faults", &[("endpoint", endpoint), ("kind", "transient")]);
            return Err(ApiError::ServerError);
        }
        *lock(&self.calls).entry(endpoint).or_insert(0) += 1;
        Ok(attempt)
    }

    /// Page through the `@verified` roster (ids of all verified users).
    /// Cursor 1 starts; 0 in the reply means done (Twitter convention:
    /// `cursor=-1` starts, but unsigned 1 plays that role here). Under a
    /// fault plan with roster flicker, continuation cursors carry the
    /// roster generation they were minted against and expire
    /// ([`ApiError::CursorExpired`]) once the roster changes under them.
    pub fn verified_ids(&self, cursor: u64) -> Result<Page, ApiError> {
        let attempt = self.charge("verified_ids", self.policy.roster)?;
        let now = self.clock.now();
        let mut roster = match &self.timeline {
            Some(t) => {
                let day = ((now / 86_400) as u32).min(t.days() as u32 - 1);
                t.roster_at(day)
            }
            None => self.society.verified_roster(),
        };
        let mut generation = 0u64;
        if let Some(f) = &self.faults {
            generation = f.flicker.generation(now);
            if f.flicker.active(now) {
                let before = roster.len();
                roster.retain(|&id| !f.flicker.hidden(id, now));
                if roster.len() < before {
                    lock(&f.tally).flickered_roster_reads += 1;
                    self.obs.inc(
                        "api.faults",
                        &[("endpoint", "verified_ids"), ("kind", "roster_flicker")],
                    );
                }
            }
            if cursor > 1 && (cursor >> 40) != generation {
                lock(&f.tally).expired_cursors += 1;
                self.obs.inc(
                    "api.faults",
                    &[("endpoint", "verified_ids"), ("kind", "cursor_expired")],
                );
                return Err(ApiError::CursorExpired);
            }
        }
        self.paginate(&roster, cursor, FRIENDS_PAGE, "verified_ids", generation, attempt)
    }

    /// `friends/ids`: the accounts `id` follows, 5,000 per page.
    pub fn friends_ids(&self, id: UserId, cursor: u64) -> Result<Page, ApiError> {
        let attempt = self.charge("friends_ids", self.policy.friends_ids)?;
        let node = self.society.node_of(id).ok_or(ApiError::NotFound(id))?;
        let friends: Vec<UserId> = self
            .society
            .network
            .graph
            .out_neighbors(node)
            .iter()
            .map(|&v| self.society.id_of(v))
            .collect();
        // Follow lists are static in the simulation, so their cursors
        // never expire: generation 0 throughout.
        self.paginate(&friends, cursor, FRIENDS_PAGE, "friends_ids", 0, attempt)
    }

    /// `followers/ids`: the accounts following `id`, 5,000 per page.
    /// Shares the `friends/ids` quota family, like the real API of the
    /// era. Used by the reverse-crawl cross-validation.
    pub fn followers_ids(&self, id: UserId, cursor: u64) -> Result<Page, ApiError> {
        let attempt = self.charge("followers_ids", self.policy.friends_ids)?;
        let node = self.society.node_of(id).ok_or(ApiError::NotFound(id))?;
        let followers: Vec<UserId> = self
            .society
            .network
            .graph
            .in_neighbors(node)
            .iter()
            .map(|&v| self.society.id_of(v))
            .collect();
        self.paginate(&followers, cursor, FRIENDS_PAGE, "followers_ids", 0, attempt)
    }

    /// `users/show`: one profile.
    pub fn users_show(&self, id: UserId) -> Result<UserProfile, ApiError> {
        let attempt = self.charge("users_show", self.policy.users_lookup)?;
        let mut profile =
            self.society.profile(id).cloned().ok_or(ApiError::NotFound(id))?;
        self.apply_stale(&mut profile, attempt, "users_show");
        Ok(profile)
    }

    /// `users/lookup`: up to 100 profiles per call; unknown ids are
    /// silently dropped (real API behaviour).
    pub fn users_lookup(&self, ids: &[UserId]) -> Result<Vec<UserProfile>, ApiError> {
        if ids.len() > LOOKUP_BATCH {
            return Err(ApiError::BadRequest("users/lookup accepts at most 100 ids"));
        }
        let attempt = self.charge("users_lookup", self.policy.users_lookup)?;
        let mut profiles: Vec<UserProfile> =
            ids.iter().filter_map(|&id| self.society.profile(id).cloned()).collect();
        for p in &mut profiles {
            self.apply_stale(p, attempt, "users_lookup");
        }
        Ok(profiles)
    }

    /// Serve a stale cached read when a [`FaultClause::StaleProfiles`]
    /// window is active: activity counters roll back ~1/8th, but identity
    /// fields (id, screen name, language, bio, verified) stay intact —
    /// caches go stale on counts long before they go stale on identity.
    /// The crawler's English filter and the follow graph are therefore
    /// unaffected, which is what makes this fault recoverable.
    fn apply_stale(&self, profile: &mut UserProfile, attempt: u64, endpoint: &'static str) {
        let Some(f) = &self.faults else { return };
        let now = self.clock.now();
        for (i, c) in f.plan.clauses().iter().enumerate() {
            if let FaultClause::StaleProfiles { probability, .. } = *c {
                if c.active_at(now)
                    && f.plan.decision(i, profile.id ^ attempt, attempt) < probability
                {
                    profile.followers_count -= profile.followers_count / 8;
                    profile.friends_count -= profile.friends_count / 8;
                    profile.listed_count -= profile.listed_count / 8;
                    profile.statuses_count -= profile.statuses_count / 8;
                    lock(&f.tally).stale_reads += 1;
                    self.obs
                        .inc("api.faults", &[("endpoint", endpoint), ("kind", "stale_read")]);
                }
            }
        }
    }

    fn paginate(
        &self,
        all: &[UserId],
        cursor: u64,
        page: usize,
        endpoint: &'static str,
        generation: u64,
        attempt: u64,
    ) -> Result<Page, ApiError> {
        // Cursor encoding: low 40 bits are 1 + offset (1 = first page);
        // high bits carry the roster generation for expirable listings.
        if cursor == 0 {
            return Err(ApiError::BadRequest("cursor 0 is the end-of-list marker"));
        }
        let offset = ((cursor & CURSOR_OFFSET_MASK) - 1) as usize;
        if offset > all.len() {
            return Err(ApiError::BadRequest("cursor past end"));
        }
        let end = (offset + page).min(all.len());
        let mut ids = all[offset..end].to_vec();
        let mut end_actual = end;
        if let Some(f) = &self.faults {
            let now = self.clock.now();
            for (i, c) in f.plan.clauses().iter().enumerate() {
                if !c.active_at(now) {
                    continue;
                }
                match *c {
                    FaultClause::TruncatedPages { endpoint: ep, probability, .. }
                        if ep.covers(endpoint)
                            && ids.len() >= 2
                            && f.plan.decision(i, endpoint_salt(endpoint), attempt)
                                < probability =>
                    {
                        // Keep at least half (and so at least one id):
                        // the continuation cursor must still advance or
                        // an always-truncating window would livelock a
                        // crawler that never moves the clock forward.
                        let keep = ids.len().div_ceil(2);
                        ids.truncate(keep);
                        end_actual = offset + keep;
                        lock(&f.tally).truncated_pages += 1;
                        self.obs.inc(
                            "api.faults",
                            &[("endpoint", endpoint), ("kind", "truncated_page")],
                        );
                    }
                    FaultClause::DuplicatedPages { endpoint: ep, probability, .. }
                        if ep.covers(endpoint)
                            && !ids.is_empty()
                            && f.plan.decision(i, endpoint_salt(endpoint), attempt)
                                < probability =>
                    {
                        // Re-emit ids already delivered on this page (a
                        // cursor-shift artefact). First-occurrence order
                        // is preserved, so a deduping crawler converges.
                        let k = ids.len().min(2);
                        let dup: Vec<UserId> = ids[..k].to_vec();
                        ids.extend(dup);
                        lock(&f.tally).duplicated_ids += k as u64;
                        self.obs.inc_by(
                            "api.faults",
                            &[("endpoint", endpoint), ("kind", "duplicated_ids")],
                            k as u64,
                        );
                    }
                    _ => {}
                }
            }
        }
        let next_cursor = if end_actual == all.len() {
            0
        } else {
            (end_actual as u64 + 1) | (generation << 40)
        };
        Ok(Page { ids, next_cursor })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::society::SocietyConfig;

    fn society() -> Society {
        Society::generate(&SocietyConfig::small())
    }

    #[test]
    fn roster_pagination_walks_everything() {
        let s = society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        let mut cursor = 1u64;
        let mut collected = Vec::new();
        loop {
            let page = api.verified_ids(cursor).unwrap();
            collected.extend(page.ids);
            if page.next_cursor == 0 {
                break;
            }
            cursor = page.next_cursor;
        }
        assert_eq!(collected.len(), s.user_count());
        assert_eq!(collected, s.verified_roster());
    }

    #[test]
    fn friends_ids_match_graph() {
        let s = society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        // Find a node with friends.
        let node = (0..s.user_count() as u32)
            .find(|&v| s.network.graph.out_degree(v) > 0)
            .unwrap();
        let id = s.id_of(node);
        let page = api.friends_ids(id, 1).unwrap();
        let expected: Vec<UserId> =
            s.network.graph.out_neighbors(node).iter().map(|&v| s.id_of(v)).collect();
        assert_eq!(page.ids, expected[..page.ids.len()]);
    }

    #[test]
    fn users_show_and_not_found() {
        let s = society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        let id = s.id_of(7);
        assert_eq!(api.users_show(id).unwrap().id, id);
        assert_eq!(api.users_show(42), Err(ApiError::NotFound(42)));
    }

    #[test]
    fn lookup_batch_size_enforced() {
        let s = society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        let ids: Vec<UserId> = (0..101).map(|v| s.id_of(v % 100)).collect();
        assert!(matches!(api.users_lookup(&ids), Err(ApiError::BadRequest(_))));
        let ok = api.users_lookup(&ids[..100]).unwrap();
        assert!(!ok.is_empty());
    }

    #[test]
    fn rate_limit_window_and_reset() {
        let s = society();
        let clock = SimClock::new();
        let api = TwitterApi::new(&s, clock.clone(), RateLimitPolicy::default(), 0.0);
        let id = s.id_of(0);
        // Burn the 15-call friends/ids quota.
        for _ in 0..15 {
            let _ = api.friends_ids(id, 1);
        }
        match api.friends_ids(id, 1) {
            Err(ApiError::RateLimited { retry_after }) => {
                assert!(retry_after <= 900);
                clock.advance(retry_after);
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
        // After the window resets the call succeeds.
        assert!(api.friends_ids(id, 1).is_ok());
    }

    #[test]
    fn window_admits_quota_then_rejects_with_reset_hint() {
        let mut w = RateWindow::begin(100);
        assert_eq!(w.charge(100, 2, 900), Ok(()));
        assert_eq!(w.charge(150, 2, 900), Ok(()));
        // Third call inside the window: rejected, no quota consumed, hint
        // counts down to the reset at 100 + 900.
        assert_eq!(w.charge(200, 2, 900), Err(800));
        assert_eq!(w.charge(999, 2, 900), Err(1));
        assert_eq!(w.used(), 2);
        // At the reset boundary the window reopens at `now`.
        assert_eq!(w.charge(1000, 2, 900), Ok(()));
        assert_eq!(w.used(), 1);
    }

    #[test]
    fn zero_quota_rejects_everything_with_full_window_hint() {
        let mut w = RateWindow::begin(0);
        assert_eq!(w.charge(0, 0, 500), Err(500));
        assert_eq!(w.charge(400, 0, 500), Err(100));
        // Past the reset, the window re-anchors but the hint is the full
        // window again.
        assert_eq!(w.charge(500, 0, 500), Err(500));
        // A zero-length window rejects on its own boundary with a 0 hint;
        // serve admission clamps that on the wire, not here.
        assert_eq!(w.charge(500, 0, 0), Err(0));
    }

    #[test]
    fn transient_failures_happen_and_burn_quota() {
        let s = society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.5);
        let id = s.id_of(0);
        let mut failures = 0;
        for _ in 0..200 {
            if matches!(api.users_show(id), Err(ApiError::ServerError)) {
                failures += 1;
            }
        }
        assert!((50..150).contains(&failures), "failures={failures}");
    }

    #[test]
    fn bad_cursors_rejected() {
        let s = society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        assert!(matches!(api.verified_ids(0), Err(ApiError::BadRequest(_))));
        assert!(matches!(
            api.verified_ids(10_000_000),
            Err(ApiError::BadRequest(_))
        ));
    }

    #[test]
    fn timeline_bound_roster_drifts_with_the_clock() {
        let s = society();
        let timeline =
            crate::churn::RosterTimeline::generate(&s, &crate::churn::ChurnConfig::default());
        let clock = SimClock::new();
        let api = TwitterApi::new(&s, clock.clone(), RateLimitPolicy::unlimited(), 0.0)
            .with_timeline(timeline.clone());
        let drain = |api: &TwitterApi| {
            let mut cursor = 1u64;
            let mut out = Vec::new();
            loop {
                let page = api.verified_ids(cursor).unwrap();
                out.extend(page.ids);
                if page.next_cursor == 0 {
                    return out;
                }
                cursor = page.next_cursor;
            }
        };
        let day0 = drain(&api);
        assert_eq!(day0, timeline.roster_at(0));
        clock.advance(300 * 86_400);
        let day300 = drain(&api);
        assert_eq!(day300, timeline.roster_at(300));
        assert_ne!(day0.len(), day300.len(), "roster should drift over 300 days");
    }

    #[test]
    fn empty_roster_lists_cleanly() {
        // A flicker window hiding everyone yields an empty roster; the
        // listing must still terminate with a clean end-of-list page.
        let s = society();
        let plan = FaultPlan::new(3).with(FaultClause::RosterFlicker {
            probability: 1.0,
            from: 0,
            until: 100,
        });
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0)
            .with_faults(plan);
        let page = api.verified_ids(1).unwrap();
        assert!(page.ids.is_empty());
        assert_eq!(page.next_cursor, 0);
        assert_eq!(api.fault_tally().flickered_roster_reads, 1);
    }

    #[test]
    fn single_page_listing_and_boundary_cursors() {
        // The small society's roster fits in exactly one page: next_cursor
        // must be 0 immediately, the just-past-the-end cursor must yield a
        // valid empty terminal page, and anything further is rejected.
        let s = society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        assert!(s.user_count() < FRIENDS_PAGE);
        let page = api.verified_ids(1).unwrap();
        assert_eq!(page.ids.len(), s.user_count());
        assert_eq!(page.next_cursor, 0);
        let boundary = api.verified_ids(s.user_count() as u64 + 1).unwrap();
        assert!(boundary.ids.is_empty());
        assert_eq!(boundary.next_cursor, 0);
        assert!(matches!(
            api.verified_ids(s.user_count() as u64 + 2),
            Err(ApiError::BadRequest(_))
        ));
    }

    #[test]
    fn cursor_survives_rate_limit_wait_mid_listing() {
        // Permanent truncation splits the roster into many short pages;
        // a 2-call window forces rate-limit waits mid-listing. Resuming
        // with the same continuation cursor after each wait must still
        // reassemble the roster exactly, in order, with nothing repeated.
        let s = society();
        let clock = SimClock::new();
        let plan = FaultPlan::new(11).with(FaultClause::TruncatedPages {
            endpoint: crate::faults::Endpoint::VerifiedIds,
            probability: 1.0,
            from: 0,
            until: u64::MAX,
        });
        let policy = RateLimitPolicy { roster: 2, ..RateLimitPolicy::default() };
        let api = TwitterApi::new(&s, clock.clone(), policy, 0.0).with_faults(plan);
        let mut cursor = 1u64;
        let mut out = Vec::new();
        let mut waits = 0;
        loop {
            match api.verified_ids(cursor) {
                Ok(page) => {
                    out.extend(page.ids);
                    if page.next_cursor == 0 {
                        break;
                    }
                    cursor = page.next_cursor;
                }
                Err(ApiError::RateLimited { retry_after }) => {
                    waits += 1;
                    clock.advance(retry_after);
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert_eq!(out, s.verified_roster());
        assert!(waits > 0, "the tight quota should have forced waits");
        assert!(api.fault_tally().truncated_pages > 0);
    }

    #[test]
    fn duplicated_pages_preserve_first_occurrence_order() {
        let s = society();
        let plan = FaultPlan::new(13).with(FaultClause::DuplicatedPages {
            endpoint: crate::faults::Endpoint::Any,
            probability: 1.0,
            from: 0,
            until: u64::MAX,
        });
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0)
            .with_faults(plan);
        let page = api.verified_ids(1).unwrap();
        assert!(page.ids.len() > s.user_count(), "ids must be re-served");
        let mut seen = std::collections::HashSet::new();
        let deduped: Vec<UserId> =
            page.ids.into_iter().filter(|&id| seen.insert(id)).collect();
        assert_eq!(deduped, s.verified_roster());
        assert_eq!(api.fault_tally().duplicated_ids, 2);
    }

    #[test]
    fn call_counts_tracked() {
        let s = society();
        let api = TwitterApi::new(&s, SimClock::new(), RateLimitPolicy::unlimited(), 0.0);
        let _ = api.verified_ids(1);
        let _ = api.users_show(s.id_of(0));
        let counts = api.call_counts();
        assert_eq!(counts.get("verified_ids"), Some(&1));
        assert_eq!(counts.get("users_show"), Some(&1));
    }
}
