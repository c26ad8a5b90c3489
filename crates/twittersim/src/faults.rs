//! Deterministic, seedable fault injection for the crawl path.
//!
//! Real measurement crawls fail in mundane ways: endpoints go down for an
//! hour, cursors truncate or re-serve pages, profile reads come from stale
//! caches, rate-limit windows drift, and the `@verified` roster itself
//! churns mid-crawl. The paper's single-snapshot methodology sidesteps all
//! of this; reproducing the crawl faithfully means reproducing the hazards
//! too — and proving the crawler recovers from them.
//!
//! A [`FaultPlan`] is a seed plus a list of composable [`FaultClause`]s,
//! each active over a window of *simulated* seconds. Every per-call
//! decision ("does this page truncate?") is a pure function of the plan
//! seed, the clause, the endpoint, and a monotone per-endpoint attempt
//! counter — no wall clock, no global RNG — so an entire faulty crawl
//! replays bit-identically from a single `u64`.
//!
//! Clauses are designed to be *lossless at the protocol level*: truncated
//! pages keep a continuation cursor, duplicated ids are absorbed by the
//! crawler's dedupe, stale reads touch only counter fields, roster flicker
//! is surfaced through cursor generations ([`crate::ApiError::CursorExpired`])
//! and the crawler's verification re-harvest. For any *healing* plan (all
//! windows end by [`FaultPlan::horizon`]) a crawl run under a
//! clock-advancing rate-limit policy converges to a graph bit-identical to
//! the fault-free crawl; `tests/tests/fault_conformance.rs` proves this
//! property over randomized plans and societies.
#![deny(missing_docs)]

use crate::society::UserId;

/// Which endpoint family a clause applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The `@verified` roster listing.
    VerifiedIds,
    /// `friends/ids` pages.
    FriendsIds,
    /// `followers/ids` pages.
    FollowersIds,
    /// `users/show` single-profile reads.
    UsersShow,
    /// `users/lookup` batch hydration.
    UsersLookup,
    /// Every endpoint.
    Any,
}

impl Endpoint {
    /// Does this selector cover the endpoint named `name` (the API's
    /// internal telemetry key)?
    pub fn covers(self, name: &str) -> bool {
        match self {
            Endpoint::VerifiedIds => name == "verified_ids",
            Endpoint::FriendsIds => name == "friends_ids",
            Endpoint::FollowersIds => name == "followers_ids",
            Endpoint::UsersShow => name == "users_show",
            Endpoint::UsersLookup => name == "users_lookup",
            Endpoint::Any => true,
        }
    }
}

/// One composable fault, active while `from <= now < until` (simulated
/// seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultClause {
    /// Every covered call fails with a transient server error.
    Outage {
        /// Endpoints affected.
        endpoint: Endpoint,
        /// Window start (inclusive, simulated seconds).
        from: u64,
        /// Window end (exclusive).
        until: u64,
    },
    /// Each covered call fails independently with `probability`.
    ErrorBurst {
        /// Endpoints affected.
        endpoint: Endpoint,
        /// Per-call failure probability in `[0, 1]`.
        probability: f64,
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        until: u64,
    },
    /// Cursored pages return only a prefix of their ids — but the
    /// continuation cursor still points at the first id *not* returned,
    /// so nothing is ever lost, the listing just takes more pages.
    TruncatedPages {
        /// Endpoints affected (only cursored endpoints react).
        endpoint: Endpoint,
        /// Per-page truncation probability in `[0, 1]`.
        probability: f64,
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        until: u64,
    },
    /// Cursored pages re-serve a copy of ids they already contain (the
    /// classic overlapping-cursor bug). First-occurrence order is
    /// preserved, so a deduplicating client recovers the exact listing.
    DuplicatedPages {
        /// Endpoints affected (only cursored endpoints react).
        endpoint: Endpoint,
        /// Per-page duplication probability in `[0, 1]`.
        probability: f64,
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        until: u64,
    },
    /// Profile reads (`users/show`, `users/lookup`) come from a stale
    /// cache: counter fields (followers, friends, listed, statuses) are
    /// rolled back; identity fields (id, language, bio, handle) never are.
    StaleProfiles {
        /// Per-profile-read staleness probability in `[0, 1]`.
        probability: f64,
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        until: u64,
    },
    /// Rate-limit responses over-report `retry_after` by `extra_secs`
    /// (clock skew between client and API). Costs simulated time, never
    /// data.
    RateLimitSkew {
        /// Extra seconds added to every reported `retry_after`.
        extra_secs: u64,
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        until: u64,
    },
    /// Mid-crawl verification churn: during the window a deterministic
    /// `probability`-fraction of users temporarily vanish from the
    /// `@verified` roster. Entering or leaving the window bumps the
    /// roster *generation*; continuation cursors from an older generation
    /// fail with [`crate::ApiError::CursorExpired`].
    RosterFlicker {
        /// Fraction of the roster hidden while the window is active.
        probability: f64,
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        until: u64,
    },
}

impl FaultClause {
    /// The `(from, until)` activity window.
    pub fn window(&self) -> (u64, u64) {
        match *self {
            FaultClause::Outage { from, until, .. }
            | FaultClause::ErrorBurst { from, until, .. }
            | FaultClause::TruncatedPages { from, until, .. }
            | FaultClause::DuplicatedPages { from, until, .. }
            | FaultClause::StaleProfiles { from, until, .. }
            | FaultClause::RateLimitSkew { from, until, .. }
            | FaultClause::RosterFlicker { from, until, .. } => (from, until),
        }
    }

    /// Is the clause active at simulated time `now`?
    pub fn active_at(&self, now: u64) -> bool {
        let (from, until) = self.window();
        from <= now && now < until
    }

    /// Does this clause ever end?
    pub fn heals(&self) -> bool {
        self.window().1 < u64::MAX
    }
}

/// A seedable, replayable fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    clauses: Vec<FaultClause>,
}

impl FaultPlan {
    /// An empty plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, clauses: Vec::new() }
    }

    /// Add a clause (builder style).
    pub fn with(mut self, clause: FaultClause) -> Self {
        self.clauses.push(clause);
        self
    }

    /// The decision seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The clauses, in insertion order.
    pub fn clauses(&self) -> &[FaultClause] {
        &self.clauses
    }

    /// First simulated second at which every clause has healed
    /// (`u64::MAX` if any clause never heals, `0` for an empty plan).
    pub fn horizon(&self) -> u64 {
        self.clauses.iter().map(|c| c.window().1).max().unwrap_or(0)
    }

    /// Does every clause heal?
    pub fn is_healing(&self) -> bool {
        self.clauses.iter().all(FaultClause::heals)
    }

    /// Derive a randomized *healing* plan from a single seed: one to four
    /// clauses of mixed kinds, every window inside the first simulated
    /// hour. Crawls under a realistic (clock-advancing) rate-limit policy
    /// outlast that horizon in their first pass, which is what makes the
    /// conformance property provable for these plans.
    pub fn generate(seed: u64) -> Self {
        // Private splitmix64 stream — self-contained so plan generation
        // never couples to the workspace RNG.
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            split_mix(state)
        };
        let mut plan = FaultPlan::new(seed);
        let n_clauses = 1 + (next() % 4) as usize;
        const HOUR: u64 = 3_600;
        for _ in 0..n_clauses {
            let from = next() % (HOUR / 2);
            let len = 60 + next() % (HOUR / 2);
            let until = (from + len).min(HOUR);
            let probability = 0.2 + (next() % 600) as f64 / 1000.0;
            let endpoint = match next() % 4 {
                0 => Endpoint::VerifiedIds,
                1 => Endpoint::FriendsIds,
                2 => Endpoint::UsersLookup,
                _ => Endpoint::Any,
            };
            let clause = match next() % 7 {
                0 => FaultClause::Outage { endpoint, from, until },
                1 => FaultClause::ErrorBurst { endpoint, probability, from, until },
                2 => FaultClause::TruncatedPages { endpoint, probability, from, until },
                3 => FaultClause::DuplicatedPages { endpoint, probability, from, until },
                4 => FaultClause::StaleProfiles { probability, from, until },
                5 => FaultClause::RateLimitSkew { extra_secs: 1 + next() % 120, from, until },
                _ => FaultClause::RosterFlicker {
                    probability: 0.05 + (next() % 300) as f64 / 1000.0,
                    from,
                    until,
                },
            };
            plan.clauses.push(clause);
        }
        plan
    }

    /// The deterministic per-call decision draw: a uniform value in
    /// `[0, 1)` that is a pure function of `(plan seed, clause index,
    /// salt, attempt)`. `salt` distinguishes decision sites (endpoint
    /// hash, user id); `attempt` is the per-endpoint monotone call
    /// counter, so retries of the same logical call re-roll.
    pub fn decision(&self, clause_idx: usize, salt: u64, attempt: u64) -> f64 {
        let h = mix4(self.seed, clause_idx as u64, salt, attempt);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Stable per-user draw in `[0, 1)` for membership-style decisions
    /// (roster flicker): independent of time and attempt, so the hidden
    /// set is constant within a window.
    pub fn user_draw(&self, clause_idx: usize, id: UserId) -> f64 {
        let h = mix4(self.seed, clause_idx as u64, 0xF11C_4E55, id);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Running totals of injected faults, recorded API-side and folded into
/// [`crate::CrawlStats`]. Integer counters only, so stats stay `Eq` and
/// golden tests can pin exact values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultTally {
    /// Calls failed by an [`FaultClause::Outage`] window.
    pub outage_failures: u64,
    /// Calls failed by an [`FaultClause::ErrorBurst`] draw.
    pub burst_failures: u64,
    /// Pages shortened by [`FaultClause::TruncatedPages`].
    pub truncated_pages: u64,
    /// Ids re-served by [`FaultClause::DuplicatedPages`].
    pub duplicated_ids: u64,
    /// Profile reads served stale by [`FaultClause::StaleProfiles`].
    pub stale_reads: u64,
    /// Rate-limit replies inflated by [`FaultClause::RateLimitSkew`].
    pub skewed_waits: u64,
    /// Roster reads with at least one id hidden by
    /// [`FaultClause::RosterFlicker`].
    pub flickered_roster_reads: u64,
    /// Continuation cursors rejected because the roster generation moved.
    pub expired_cursors: u64,
}

impl FaultTally {
    /// Field-wise difference `self − earlier` (saturating): the faults
    /// injected since the `earlier` snapshot was taken.
    pub fn since(&self, earlier: &FaultTally) -> FaultTally {
        FaultTally {
            outage_failures: self.outage_failures.saturating_sub(earlier.outage_failures),
            burst_failures: self.burst_failures.saturating_sub(earlier.burst_failures),
            truncated_pages: self.truncated_pages.saturating_sub(earlier.truncated_pages),
            duplicated_ids: self.duplicated_ids.saturating_sub(earlier.duplicated_ids),
            stale_reads: self.stale_reads.saturating_sub(earlier.stale_reads),
            skewed_waits: self.skewed_waits.saturating_sub(earlier.skewed_waits),
            flickered_roster_reads: self
                .flickered_roster_reads
                .saturating_sub(earlier.flickered_roster_reads),
            expired_cursors: self.expired_cursors.saturating_sub(earlier.expired_cursors),
        }
    }

    /// Field-wise accumulation (for folding per-run deltas into resumed
    /// crawl stats).
    pub fn merge(&mut self, other: &FaultTally) {
        self.outage_failures += other.outage_failures;
        self.burst_failures += other.burst_failures;
        self.truncated_pages += other.truncated_pages;
        self.duplicated_ids += other.duplicated_ids;
        self.stale_reads += other.stale_reads;
        self.skewed_waits += other.skewed_waits;
        self.flickered_roster_reads += other.flickered_roster_reads;
        self.expired_cursors += other.expired_cursors;
    }

    /// Kind-name / count pairs, in declaration order — the single place
    /// the tally's field list is spelled for table rendering and metric
    /// export.
    pub fn kinds(&self) -> [(&'static str, u64); 8] {
        [
            ("outage", self.outage_failures),
            ("burst", self.burst_failures),
            ("truncated_page", self.truncated_pages),
            ("duplicated_ids", self.duplicated_ids),
            ("stale_read", self.stale_reads),
            ("rate_limit_skew", self.skewed_waits),
            ("roster_flicker", self.flickered_roster_reads),
            ("cursor_expired", self.expired_cursors),
        ]
    }

    /// Export the tally into a metrics registry as `faults.injected{kind}`
    /// counters (absolute values — the tally is already a running total).
    pub fn export_metrics(&self, obs: &vnet_obs::Obs) {
        for (kind, n) in self.kinds() {
            obs.set_counter("faults.injected", &[("kind", kind)], n);
        }
    }

    /// Total individual fault events across all kinds.
    pub fn total(&self) -> u64 {
        self.outage_failures
            + self.burst_failures
            + self.truncated_pages
            + self.duplicated_ids
            + self.stale_reads
            + self.skewed_waits
            + self.flickered_roster_reads
            + self.expired_cursors
    }
}

/// Finalizing 64-bit mixer (splitmix64's output permutation).
fn split_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix four words into one well-distributed word.
fn mix4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut h = split_mix(a ^ 0x2545_F491_4F6C_DD1D);
    h = split_mix(h ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = split_mix(h ^ c.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    split_mix(h ^ d.wrapping_mul(0x1656_67B1_9E37_79F9))
}

/// Hash an endpoint name to a decision salt (FNV-1a over the name bytes;
/// stable across runs and platforms).
pub(crate) fn endpoint_salt(name: &str) -> u64 {
    vnet_obs::fingerprint_str(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_and_healing() {
        let plan = FaultPlan::new(1)
            .with(FaultClause::Outage { endpoint: Endpoint::Any, from: 10, until: 20 })
            .with(FaultClause::StaleProfiles { probability: 0.5, from: 0, until: 50 });
        assert_eq!(plan.horizon(), 50);
        assert!(plan.is_healing());
        assert!(plan.clauses()[0].active_at(10));
        assert!(!plan.clauses()[0].active_at(20));

        let forever = plan
            .clone()
            .with(FaultClause::ErrorBurst {
                endpoint: Endpoint::Any,
                probability: 0.1,
                from: 0,
                until: u64::MAX,
            });
        assert!(!forever.is_healing());
        assert_eq!(forever.horizon(), u64::MAX);
    }

    #[test]
    fn decisions_are_deterministic_and_well_spread() {
        let plan = FaultPlan::new(42);
        let again = FaultPlan::new(42);
        let mut below = 0usize;
        for attempt in 0..2_000u64 {
            let d = plan.decision(0, endpoint_salt("friends_ids"), attempt);
            assert_eq!(d, again.decision(0, endpoint_salt("friends_ids"), attempt));
            assert!((0.0..1.0).contains(&d));
            if d < 0.3 {
                below += 1;
            }
        }
        // ~30% of draws below 0.3.
        assert!((450..750).contains(&below), "below={below}");
    }

    #[test]
    fn decision_sites_are_independent() {
        let plan = FaultPlan::new(7);
        let a = plan.decision(0, endpoint_salt("friends_ids"), 5);
        let b = plan.decision(0, endpoint_salt("verified_ids"), 5);
        let c = plan.decision(1, endpoint_salt("friends_ids"), 5);
        let d = plan.decision(0, endpoint_salt("friends_ids"), 6);
        assert!(a != b && a != c && a != d, "{a} {b} {c} {d}");
    }

    #[test]
    fn user_draws_are_time_invariant() {
        let plan = FaultPlan::new(9);
        assert_eq!(plan.user_draw(2, 12345), plan.user_draw(2, 12345));
        assert_ne!(plan.user_draw(2, 12345), plan.user_draw(2, 12346));
    }

    #[test]
    fn generated_plans_heal_within_the_hour() {
        for seed in 0..200 {
            let plan = FaultPlan::generate(seed);
            assert!(!plan.clauses().is_empty());
            assert!(plan.clauses().len() <= 4);
            assert!(plan.is_healing());
            assert!(plan.horizon() <= 3_600, "horizon {}", plan.horizon());
            assert_eq!(plan, FaultPlan::generate(seed), "replay must be identical");
        }
    }

    #[test]
    fn endpoint_coverage() {
        assert!(Endpoint::Any.covers("friends_ids"));
        assert!(Endpoint::FriendsIds.covers("friends_ids"));
        assert!(!Endpoint::FriendsIds.covers("verified_ids"));
    }

    #[test]
    fn tally_total_sums_everything() {
        let t = FaultTally {
            outage_failures: 1,
            burst_failures: 2,
            truncated_pages: 3,
            duplicated_ids: 4,
            stale_reads: 5,
            skewed_waits: 6,
            flickered_roster_reads: 7,
            expired_cursors: 8,
        };
        assert_eq!(t.total(), 36);
    }
}
