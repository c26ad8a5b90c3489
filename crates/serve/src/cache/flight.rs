//! Single-flight coalescing behind [`Memo`](super::Memo).
//!
//! N concurrent misses of one key should cost one computation, not N: the
//! first caller to miss becomes the **leader** and computes; every other
//! caller that arrives while the flight is open becomes a **follower**,
//! blocks until the leader publishes, and shares the leader's value (for
//! an `Arc`, the same allocation, so replies built from it are identical).
//!
//! Flights are removed from the table before completion is signalled, so
//! an errored computation is retried by the next caller instead of being
//! negatively cached. A leader that panics completes its flight through
//! [`FlightGuard`]'s `Drop`, so followers can never hang on a dead leader.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

/// What a follower receives: the published value, or the leader's
/// serialized error reply (sent verbatim to the follower's client too).
pub(super) type Outcome<V> = Result<V, String>;

/// The outcome a leader that died without publishing leaves behind.
const ABORTED: &str =
    "{\"ok\":false,\"error\":{\"code\":\"analysis\",\"message\":\"section computation aborted\"}}";

pub(super) struct Flight<V> {
    outcome: Mutex<Option<Outcome<V>>>,
    published: Condvar,
}

impl<V: Clone> Flight<V> {
    /// Block until the leader publishes — in bounded time (a computation,
    /// or a panic caught by [`FlightGuard`]), so no timeout is needed here;
    /// the connection thread enforces the request deadline.
    pub(super) fn wait(&self) -> Outcome<V> {
        let mut outcome = self.outcome.lock().expect("flight outcome lock");
        while outcome.is_none() {
            outcome = self.published.wait(outcome).expect("flight outcome lock");
        }
        outcome.clone().expect("checked above")
    }
}

/// Role handed to a caller that missed the cache.
pub(super) enum Role<'a, K: Eq + Hash, V> {
    /// Compute the value and publish through the returned guard.
    Leader(FlightGuard<'a, K, V>),
    /// Wait on the flight for the leader's outcome.
    Follower(Arc<Flight<V>>),
}

/// The open-flights table, keyed like the memo's cache.
pub(super) struct FlightMap<K, V> {
    open: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

impl<K: Eq + Hash + Clone, V> FlightMap<K, V> {
    pub(super) fn new() -> Self {
        Self { open: Mutex::new(HashMap::new()) }
    }

    /// Join the open flight for `key`, or open one and lead it.
    pub(super) fn begin(&self, key: K) -> Role<'_, K, V> {
        let mut open = self.open.lock().expect("flight map lock");
        if let Some(flight) = open.get(&key) {
            return Role::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight { outcome: Mutex::new(None), published: Condvar::new() });
        open.insert(key.clone(), Arc::clone(&flight));
        Role::Leader(FlightGuard { map: self, key, flight, outcome: None })
    }

    /// Open flights right now (diagnostics).
    pub(super) fn open_count(&self) -> usize {
        self.open.lock().expect("flight map lock").len()
    }

    /// Followers waiting on the open flight for `key` (the table and the
    /// leader's guard hold the other two references).
    #[cfg(test)]
    pub(super) fn followers(&self, key: &K) -> usize {
        let open = self.open.lock().expect("flight map lock");
        open.get(key).map_or(0, |flight| Arc::strong_count(flight) - 2)
    }
}

/// Leadership of one flight. Dropping it closes the flight and publishes
/// the outcome set by [`FlightGuard::publish`] — or, for a leader that
/// panicked before publishing, an internal-error reply.
pub(super) struct FlightGuard<'a, K: Eq + Hash, V> {
    map: &'a FlightMap<K, V>,
    key: K,
    flight: Arc<Flight<V>>,
    outcome: Option<Outcome<V>>,
}

impl<K: Eq + Hash, V> FlightGuard<'_, K, V> {
    /// Publish the leader's outcome to every follower and close the flight.
    pub(super) fn publish(mut self, outcome: Outcome<V>) {
        self.outcome = Some(outcome);
    }
}

impl<K: Eq + Hash, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        // Close first, so a caller arriving after an error starts a fresh
        // flight instead of reading a stale failure.
        self.map.open.lock().expect("flight map lock").remove(&self.key);
        let outcome = self.outcome.take().unwrap_or_else(|| Err(ABORTED.to_string()));
        *self.flight.outcome.lock().expect("flight outcome lock") = Some(outcome);
        self.flight.published.notify_all();
    }
}
