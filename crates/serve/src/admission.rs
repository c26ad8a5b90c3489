//! Per-client admission control through `twittersim`'s rate-limit window.
//!
//! The simulated Twitter API admits calls against a per-endpoint quota in
//! a fixed window that *starts at the first charged call* and resets once
//! `now >= window_start + window_len`; a rejected call does **not**
//! consume quota, and its `retry_after` hint is exactly
//! `window_start + window_len - now`. The serving side charges the very
//! same [`RateWindow`], keyed **per client** and counted in milliseconds
//! instead of per endpoint in seconds.
//!
//! Rejections surface on the wire as the `rate_limited` error code with a
//! deterministic `retry_after_ms` hint — deterministic because the window
//! arithmetic is pure in the clock reading, and the clock itself is
//! pluggable ([`AdmissionClock::manual`] freezes time for golden tests;
//! [`AdmissionClock::wall`] counts real milliseconds since construction
//! in production).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vnet_twittersim::RateWindow;

/// Per-client admission quota: `requests` per `window_millis`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// `analyze` requests each client may have admitted per window.
    pub requests: u32,
    /// Window length in milliseconds (the simulated API uses 900 s; a
    /// serving tier typically wants seconds).
    pub window_millis: u64,
}

enum ClockSource {
    /// Milliseconds since the clock was constructed.
    Wall(Instant),
    /// A hand-advanced counter for deterministic tests.
    Manual(AtomicU64),
}

/// The clock admission control reads. Cloning shares the underlying
/// source, so a test can hold one handle and advance the server's other.
#[derive(Clone)]
pub struct AdmissionClock(Arc<ClockSource>);

impl AdmissionClock {
    /// Real time: milliseconds elapsed since this call.
    pub fn wall() -> Self {
        Self(Arc::new(ClockSource::Wall(Instant::now())))
    }

    /// A frozen clock starting at 0 ms; advance it with
    /// [`AdmissionClock::advance`]. Retry hints become pure functions of
    /// the request sequence — the basis of the golden-frame tests.
    pub fn manual() -> Self {
        Self(Arc::new(ClockSource::Manual(AtomicU64::new(0))))
    }

    /// Current reading in milliseconds.
    pub fn now_ms(&self) -> u64 {
        match &*self.0 {
            ClockSource::Wall(epoch) => epoch.elapsed().as_millis() as u64,
            ClockSource::Manual(ms) => ms.load(Ordering::SeqCst),
        }
    }

    /// Advance a manual clock by `ms` (no-op on a wall clock, which
    /// advances itself).
    pub fn advance(&self, ms: u64) {
        if let ClockSource::Manual(t) = &*self.0 {
            t.fetch_add(ms, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for AdmissionClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.0 {
            ClockSource::Wall(_) => write!(f, "AdmissionClock::wall"),
            ClockSource::Manual(ms) => {
                write!(f, "AdmissionClock::manual({} ms)", ms.load(Ordering::SeqCst))
            }
        }
    }
}

/// The admission gate: one [`RateWindow`] per client id, charged under a
/// shared policy and clock. Clients that send no id share the anonymous
/// bucket (`""`), so an unidentified flood still cannot starve the
/// executor queues of identified tenants.
pub struct Admission {
    policy: AdmissionPolicy,
    clock: AdmissionClock,
    windows: Mutex<HashMap<String, RateWindow>>,
}

impl Admission {
    /// A gate enforcing `policy` against `clock`.
    pub fn new(policy: AdmissionPolicy, clock: AdmissionClock) -> Self {
        Self { policy, clock, windows: Mutex::new(HashMap::new()) }
    }

    /// Admit one request from `client`, or reject with the deterministic
    /// `retry_after_ms` hint, clamped to ≥ 1 ms. [`RateWindow::charge`]
    /// can legitimately report a 0 ms reset (a zero-length window, i.e. a
    /// `window_millis: 0` policy rejecting on its own boundary), and a
    /// client that obeys a 0 ms hint literally busy-retries; the wire hint
    /// therefore never goes below one millisecond. The clamp lives here —
    /// not in `charge` — because the simulated API reports its raw hint.
    pub fn try_admit(&self, client: &str) -> Result<(), u64> {
        let now = self.clock.now_ms();
        let mut windows = self.windows.lock().expect("admission windows lock");
        let window = windows
            .entry(client.to_string())
            .or_insert_with(|| RateWindow::begin(now));
        window
            .charge(now, self.policy.requests, self.policy.window_millis)
            .map_err(|retry_after_ms| retry_after_ms.max(1))
    }

    /// Distinct clients seen so far (diagnostics for `status`).
    pub fn clients(&self) -> usize {
        self.windows.lock().expect("admission windows lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_are_independent_buckets() {
        let clock = AdmissionClock::manual();
        let gate = Admission::new(
            AdmissionPolicy { requests: 1, window_millis: 1_000 },
            clock.clone(),
        );
        assert_eq!(gate.try_admit("a"), Ok(()));
        assert_eq!(gate.try_admit("a"), Err(1_000));
        // Client b has its own window; the anonymous bucket is distinct
        // from both.
        assert_eq!(gate.try_admit("b"), Ok(()));
        assert_eq!(gate.try_admit(""), Ok(()));
        assert_eq!(gate.clients(), 3);
        clock.advance(250);
        assert_eq!(gate.try_admit("a"), Err(750));
        clock.advance(750);
        assert_eq!(gate.try_admit("a"), Ok(()));
    }

    #[test]
    fn boundary_rejection_hint_is_never_zero() {
        // A zero-length window is the one policy under which the raw reset
        // hint is 0: every charge lands exactly on its own window boundary.
        // The admission gate clamps the wire hint to >= 1 ms.
        let clock = AdmissionClock::manual();
        let gate = Admission::new(
            AdmissionPolicy { requests: 0, window_millis: 0 },
            clock.clone(),
        );
        // Golden boundary frames: the same rejection at several clock
        // readings, each pinned to exactly 1 ms on the wire.
        for advance in [0u64, 1, 7, 900] {
            clock.advance(advance);
            assert_eq!(gate.try_admit("edge"), Err(1), "at t={} ms", clock.now_ms());
        }
        // A non-degenerate policy still passes real hints through
        // unclamped...
        let gate = Admission::new(
            AdmissionPolicy { requests: 1, window_millis: 500 },
            AdmissionClock::manual(),
        );
        assert_eq!(gate.try_admit("a"), Ok(()));
        assert_eq!(gate.try_admit("a"), Err(500));
        // ...and a 1 ms window rejecting mid-window yields the clamped
        // minimum, not zero.
        let clock = AdmissionClock::manual();
        let gate = Admission::new(
            AdmissionPolicy { requests: 1, window_millis: 1 },
            clock.clone(),
        );
        assert_eq!(gate.try_admit("b"), Ok(()));
        assert_eq!(gate.try_admit("b"), Err(1));
    }

    #[test]
    fn manual_clock_is_shared_across_clones() {
        let clock = AdmissionClock::manual();
        let clone = clock.clone();
        clock.advance(42);
        assert_eq!(clone.now_ms(), 42);
        assert!(format!("{clone:?}").contains("42"));
    }

    #[test]
    fn wall_clock_is_monotone_from_zero() {
        let clock = AdmissionClock::wall();
        let first = clock.now_ms();
        clock.advance(1_000_000); // no-op on wall clocks
        assert!(clock.now_ms() < 1_000_000);
        assert!(clock.now_ms() >= first);
    }
}
