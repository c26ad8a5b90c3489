#![warn(missing_docs)]

//! # vnet-twittersim
//!
//! A simulated Twitter platform — the data substrate for the `verified-net`
//! reproduction of *"Elites Tweet?"* (ICDE 2019).
//!
//! The paper acquired its dataset through three channels that no longer
//! exist or were never public:
//!
//! 1. the `@verified` handle's follow list (the roster of verified users),
//! 2. the REST API (`users/show`, `friends/ids` with cursor pagination and
//!    15-minute rate-limit windows),
//! 3. a commercial Firehose subscription (per-user daily statistics for
//!    June 2017 – May 2018).
//!
//! This crate rebuilds all three against a synthetic ground truth:
//!
//! * [`society`] — the world itself: a [`vnet_synth::VerifiedNetwork`]
//!   follow graph plus per-user profiles (screen names, bios from
//!   `vnet-textmine`, language flags, and global reach metrics correlated
//!   with the fame field that wired the graph).
//! * [`api`] — the REST facade: cursor-paginated endpoints, per-endpoint
//!   [`RateWindow`] quotas over a simulated clock, and injectable transient
//!   failures, so the crawler faces the same contract the authors did.
//! * [`firehose`] — the daily activity streams: a stationary weekly-seasonal
//!   aggregate with a Christmas dip and an early-April level shift (the two
//!   change-points the paper's PELT consensus finds), plus per-user
//!   follower/friend/status trajectories.
//! * [`crawler`] — Section III reproduced as code: harvest the verified
//!   roster, hydrate profiles, filter to English, crawl friend lists under
//!   rate limits, and induce the internal verified-to-verified graph.
//! * [`faults`] — deterministic fault injection: a seedable
//!   [`faults::FaultPlan`] of scheduled outages, error bursts, truncated or
//!   duplicated cursor pages, stale profile reads, rate-limit skew, and
//!   mid-crawl roster flicker, all driven by the simulated clock.
//!
//! ## Fault injection
//!
//! Every fault decision is a pure function of the plan seed, the clause,
//! and a per-endpoint attempt counter — no wall clock, no global RNG — so
//! a single `u64` replays an entire degraded crawl bit-for-bit:
//!
//! ```
//! use vnet_twittersim::api::{RateLimitPolicy, SimClock, TwitterApi};
//! use vnet_twittersim::faults::{Endpoint, FaultClause, FaultPlan};
//! use vnet_twittersim::society::{Society, SocietyConfig};
//! use vnet_twittersim::crawler::{CrawlOutcome, Crawler};
//!
//! let society = Society::generate(&SocietyConfig::small());
//! let plan = FaultPlan::new(42)
//!     .with(FaultClause::Outage { endpoint: Endpoint::FriendsIds, from: 0, until: 600 })
//!     .with(FaultClause::TruncatedPages {
//!         endpoint: Endpoint::Any,
//!         probability: 0.5,
//!         from: 0,
//!         until: 1_800,
//!     });
//! assert!(plan.is_healing());
//! let api = TwitterApi::new(&society, SimClock::new(), RateLimitPolicy::default(), 0.0)
//!     .with_faults(plan);
//! match Crawler::new(&api).crawl_resumable(None) {
//!     CrawlOutcome::Complete(dataset) => {
//!         // Same graph a fault-free crawl produces; the scars live in
//!         // dataset.stats.faults.
//!         assert!(dataset.stats.faults.total() > 0);
//!     }
//!     other => panic!("healing plan must complete: {other:?}"),
//! }
//! ```

pub mod api;
pub mod churn;
pub mod crawler;
pub mod faults;
pub mod firehose;
pub mod society;

pub use api::{ApiError, Page, RateLimitPolicy, RateWindow, SimClock, TwitterApi};
pub use churn::{ChurnConfig, FlickerSchedule, RosterTimeline};
pub use crawler::{CrawlCheckpoint, CrawlDataset, CrawlOutcome, CrawlStats, Crawler};
pub use faults::{Endpoint, FaultClause, FaultPlan, FaultTally};
pub use firehose::{ActivityConfig, Firehose};
pub use society::{Society, SocietyConfig, UserId, UserProfile};
