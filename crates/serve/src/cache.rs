//! The memo every serve cache fills through, and the section cache's key.
//!
//! A [`Memo`] is a bounded [`Lru`] whose misses fill under single-flight
//! coalescing (the private `flight` table); [`Memo::get_or_fill`] is the
//! one way a serve cache gets a value. A shard's section, day-graph and
//! `detect` reply caches are each a memo (see `shards.rs`).
//!
//! Section keys are `(dataset fingerprint, options fingerprint, section,
//! day)` — the complete provenance of a section payload, since every
//! section is a pure function of those four (the thread count never
//! affects a result bit and is excluded from the options fingerprint on
//! purpose; `day` is the churn timeline day for `as_of` requests, `None`
//! for the base snapshot). Values are the serialized payload plus its FNV
//! fingerprint, so a cache hit replays the exact bytes a cold computation
//! produced. The key is built from the *parsed, canonicalized* request —
//! key order, whitespace, and explicitly spelled defaults of the incoming
//! JSON line cannot cause a spurious miss (regression-tested in
//! `serve_asof.rs`).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;
use verified_net::Section;
use vnet_obs::fingerprint_str;

mod flight;

use flight::{FlightMap, Outcome, Role};

/// Full provenance of one cached section payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`verified_net::Dataset::fingerprint`] of the snapshot.
    pub dataset: u64,
    /// [`verified_net::AnalysisOptions::fingerprint`] of the request
    /// options (thread count excluded).
    pub options: u64,
    /// The section computed.
    pub section: Section,
    /// Churn timeline day for `as_of` requests; `None` = base snapshot.
    /// Part of the key so each materialized day caches independently.
    pub day: Option<u32>,
}

/// One cached section payload: the exact serialized bytes plus their
/// fingerprint (the same digest batch runs record as `section.<id>`).
#[derive(Debug, PartialEq, Eq)]
pub struct CachedSection {
    /// Serialized `SectionReport` JSON, byte-identical to a fresh run.
    pub payload_json: String,
    /// FNV-1a fingerprint of `payload_json`.
    pub fingerprint: u64,
}

impl CachedSection {
    /// `payload_json` with its fingerprint.
    pub(crate) fn new(payload_json: String) -> Self {
        let fingerprint = fingerprint_str(&payload_json);
        Self { payload_json, fingerprint }
    }
}

/// How [`Memo::get_or_fill`] answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// The value was resident.
    Hit,
    /// This call waited for another caller's fill of the key and shares
    /// its outcome.
    Followed,
    /// This call ran `compute`, and inserting its value evicted `evicted`
    /// entries (0 when `compute` failed).
    Computed { evicted: usize },
}

/// A bounded LRU cache whose misses fill under single-flight coalescing.
pub(crate) struct Memo<K, V> {
    lru: Mutex<Lru<K, V>>,
    flights: FlightMap<K, V>,
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// A memo holding at most `capacity` values. Capacity 0 caches
    /// nothing, yet concurrent misses of one key still compute once.
    pub(crate) fn new(capacity: usize) -> Self {
        Self { lru: Mutex::new(Lru::new(capacity)), flights: FlightMap::new() }
    }

    /// The value under `key`, computing it on a miss. A hit takes one
    /// lock. A miss joins the open flight for `key`, or leads one: the
    /// leader re-checks the cache, runs `compute` outside both locks,
    /// inserts a success and publishes the outcome to its followers. An
    /// `Err` (a serialized error reply) reaches the followers and is
    /// never cached.
    pub(crate) fn get_or_fill(
        &self,
        key: K,
        compute: impl FnOnce() -> Outcome<V>,
    ) -> (Outcome<V>, Fill) {
        if let Some(hit) = self.get(&key) {
            return (Ok(hit), Fill::Hit);
        }
        let leader = match self.flights.begin(key.clone()) {
            Role::Follower(flight) => return (flight.wait(), Fill::Followed),
            Role::Leader(guard) => guard,
        };
        // Re-check under leadership: a previous leader may have filled
        // the cache between our miss and our begin().
        let (outcome, fill) = match self.get(&key) {
            Some(hit) => (Ok(hit), Fill::Hit),
            None => match compute() {
                Ok(value) => {
                    let (value, evicted) = self.lru.lock().expect("memo lock").insert(key, value);
                    (Ok(value), Fill::Computed { evicted })
                }
                Err(reply) => (Err(reply), Fill::Computed { evicted: 0 }),
            },
        };
        leader.publish(outcome.clone());
        (outcome, fill)
    }

    fn get(&self, key: &K) -> Option<V> {
        self.lru.lock().expect("memo lock").get(key)
    }

    /// Number of resident values.
    pub(crate) fn len(&self) -> usize {
        self.lru.lock().expect("memo lock").len()
    }

    /// Fills in flight right now (diagnostics).
    pub(crate) fn open_flights(&self) -> usize {
        self.flights.open_count()
    }
}

/// Bounded least-recently-used map over a logical access clock — the
/// eviction policy inside every [`Memo`]. It does no locking; the memo
/// holds it in one `Mutex`.
///
/// Every `get` hit and `insert` stamps the entry with the next clock tick;
/// the clock is strictly increasing, so the victim (the minimum stamp) is
/// unique and eviction order is deterministic.
struct Lru<K, V> {
    capacity: usize,
    clock: u64,
    entries: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An LRU holding at most `capacity` entries. Capacity 0 caches
    /// nothing.
    fn new(capacity: usize) -> Self {
        Self { capacity, clock: 0, entries: HashMap::new() }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look up `key`, marking it most-recently-used on a hit.
    fn get(&mut self, key: &K) -> Option<V> {
        let tick = self.tick();
        let (value, used) = self.entries.get_mut(key)?;
        *used = tick;
        Some(value.clone())
    }

    /// Insert `value` under `key` and return the value now resident plus
    /// how many entries were evicted to make room. A key that is already
    /// resident keeps its first value (every cached value is a pure
    /// function of its key, so a racing second copy is identical and
    /// readers keep sharing one allocation).
    fn insert(&mut self, key: K, value: V) -> (V, usize) {
        if self.capacity == 0 {
            return (value, 0);
        }
        let tick = self.tick();
        if let Some((resident, used)) = self.entries.get_mut(&key) {
            *used = tick;
            return (resident.clone(), 0);
        }
        let mut evicted = 0;
        if self.entries.len() >= self.capacity {
            let oldest =
                self.entries.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                self.entries.remove(&oldest);
                evicted = 1;
            }
        }
        self.entries.insert(key, (value.clone(), tick));
        (value, evicted)
    }

    /// Number of resident entries.
    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    type Entry = Arc<CachedSection>;
    type Filled = (Outcome<Entry>, Fill);

    fn key(ds: u64, sec: Section) -> CacheKey {
        CacheKey { dataset: ds, options: 1, section: sec, day: None }
    }

    fn val(s: &str) -> Arc<CachedSection> {
        Arc::new(CachedSection { payload_json: s.to_string(), fingerprint: 0 })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Lru::new(2);
        assert_eq!(c.insert(key(1, Section::Basic), val("a")).1, 0);
        assert_eq!(c.insert(key(2, Section::Basic), val("b")).1, 0);
        // Touch the first entry so the second becomes LRU.
        assert!(c.get(&key(1, Section::Basic)).is_some());
        assert_eq!(c.insert(key(3, Section::Basic), val("c")).1, 1);
        assert!(c.get(&key(2, Section::Basic)).is_none(), "LRU entry survived");
        assert!(c.get(&key(1, Section::Basic)).is_some());
        assert!(c.get(&key(3, Section::Basic)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn distinct_sections_are_distinct_keys() {
        let mut c = Lru::new(8);
        c.insert(key(1, Section::Basic), val("basic"));
        c.insert(key(1, Section::Degrees), val("degrees"));
        assert_eq!(c.get(&key(1, Section::Basic)).unwrap().payload_json, "basic");
        assert_eq!(c.get(&key(1, Section::Degrees)).unwrap().payload_json, "degrees");
    }

    #[test]
    fn distinct_days_are_distinct_keys() {
        let mut c = Lru::new(8);
        c.insert(key(1, Section::Basic), val("base"));
        c.insert(CacheKey { day: Some(3), ..key(1, Section::Basic) }, val("day3"));
        assert_eq!(c.get(&key(1, Section::Basic)).unwrap().payload_json, "base");
        let d3 = CacheKey { day: Some(3), ..key(1, Section::Basic) };
        assert_eq!(c.get(&d3).unwrap().payload_json, "day3");
        assert!(c.get(&CacheKey { day: Some(4), ..key(1, Section::Basic) }).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = Lru::new(0);
        let (served, evicted) = c.insert(key(1, Section::Basic), val("a"));
        assert_eq!((served.payload_json.as_str(), evicted), ("a", 0));
        assert_eq!(c.len(), 0);
        assert!(c.get(&key(1, Section::Basic)).is_none());
    }

    #[test]
    fn duplicate_insert_keeps_the_first_value_and_marks_it_used() {
        let mut c = Lru::new(2);
        let first = val("first");
        c.insert(1u32, Arc::clone(&first));
        c.insert(2, val("two"));
        let (served, evicted) = c.insert(1, val("second"));
        assert!(Arc::ptr_eq(&served, &first), "a racing insert replaced the resident value");
        assert_eq!((evicted, c.len()), (0, 2));
        // The duplicate insert refreshed key 1, so key 2 is the victim.
        assert_eq!(c.insert(3, val("three")).1, 1);
        assert!(c.get(&2).is_none());
        assert!(Arc::ptr_eq(&c.get(&1).unwrap(), &first));
    }

    #[test]
    fn get_miss_inserts_nothing() {
        let mut c: Lru<u32, Arc<CachedSection>> = Lru::new(2);
        c.insert(1, val("one"));
        assert!(c.get(&7).is_none());
        assert_eq!(c.len(), 1);
        // The miss did not reserve a slot: one more insert still fits.
        assert_eq!(c.insert(2, val("two")).1, 0);
        assert_eq!(c.len(), 2);
    }

    /// Block a leader's `compute` until `n` callers wait on its flight.
    fn await_followers(memo: &Memo<u32, Entry>, n: usize) {
        while memo.flights.followers(&1) < n {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One leader fills key 1 while `followers` more callers ask for it;
    /// its `compute` returns `finish()` once they all wait on its flight.
    /// Returns the leader's thread result and each follower's, after
    /// checking that every follower followed.
    fn race(
        memo: &Arc<Memo<u32, Entry>>,
        followers: usize,
        finish: impl FnOnce() -> Outcome<Entry> + Send + 'static,
    ) -> (std::thread::Result<Filled>, Vec<Outcome<Entry>>) {
        let (started, computing) = std::sync::mpsc::channel();
        let leader_memo = Arc::clone(memo);
        let leader = std::thread::spawn(move || {
            leader_memo.get_or_fill(1, || {
                started.send(()).expect("test thread waits");
                await_followers(&leader_memo, followers);
                finish()
            })
        });
        computing.recv().expect("the leader computes");
        let waiting: Vec<_> = (0..followers)
            .map(|_| {
                let memo = Arc::clone(memo);
                std::thread::spawn(move || memo.get_or_fill(1, || panic!("a follower computed")))
            })
            .collect();
        let led = leader.join();
        let followed: Vec<Filled> = waiting.into_iter().map(|f| f.join().expect("follower")).collect();
        assert!(followed.iter().all(|(_, fill)| *fill == Fill::Followed));
        (led, followed.into_iter().map(|(outcome, _)| outcome).collect())
    }

    /// `memo` coalesces 3 concurrent misses onto one leader's value and
    /// then holds `resident` values.
    fn coalesces(memo: Memo<u32, Entry>, resident: usize) {
        let memo = Arc::new(memo);
        let (led, followed) = race(&memo, 3, || Ok(val("bytes")));
        let (value, fill) = led.expect("leader thread");
        let value = value.expect("leader's payload");
        assert_eq!((value.payload_json.as_str(), fill), ("bytes", Fill::Computed { evicted: 0 }));
        for shared in followed {
            assert!(Arc::ptr_eq(&shared.expect("follower's payload"), &value));
        }
        assert_eq!((memo.open_flights(), memo.len()), (0, resident), "flight not closed");
    }

    #[test]
    fn followers_share_the_leaders_bytes() {
        coalesces(Memo::new(8), 1);
    }

    #[test]
    fn zero_capacity_memo_coalesces_and_caches_nothing() {
        let memo = Memo::new(0);
        assert_eq!(memo.get_or_fill(1, || Ok(val("first"))).1, Fill::Computed { evicted: 0 });
        coalesces(memo, 0);
    }

    #[test]
    fn errors_are_published_but_not_sticky() {
        let memo = Arc::new(Memo::new(8));
        let failed = Err("{\"ok\":false}".to_string());
        let answer = failed.clone();
        let (led, followed) = race(&memo, 1, move || answer);
        assert_eq!(led.expect("leader thread"), (failed.clone(), Fill::Computed { evicted: 0 }));
        assert_eq!(followed, vec![failed]);
        // The error was not cached: the next caller leads a fresh fill.
        assert_eq!(memo.get_or_fill(1, || Ok(val("retry"))).1, Fill::Computed { evicted: 0 });
    }

    #[test]
    fn dropped_leader_frees_followers() {
        let memo = Arc::new(Memo::new(8));
        let (led, followed) = race(&memo, 2, || panic!("simulated leader panic"));
        assert!(led.is_err(), "the leader's compute panics");
        for outcome in followed {
            assert!(outcome.expect_err("drop publishes an error").contains("aborted"));
        }
        assert_eq!((memo.open_flights(), memo.len()), (0, 0));
    }

    #[test]
    fn concurrent_misses_of_one_key_compute_once() {
        const THREADS: usize = 6;
        let memo = Arc::new(Memo::new(8));
        let computed = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(Barrier::new(THREADS));
        let callers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (memo, computed, start) =
                    (Arc::clone(&memo), Arc::clone(&computed), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    memo.get_or_fill(1, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        await_followers(&memo, THREADS - 1);
                        Ok(val("once"))
                    })
                })
            })
            .collect();
        let fills: Vec<Filled> = callers.into_iter().map(|c| c.join().expect("caller")).collect();
        let count = |want: Fill| fills.iter().filter(|(_, fill)| *fill == want).count();
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        assert_eq!((count(Fill::Computed { evicted: 0 }), count(Fill::Followed)), (1, THREADS - 1));
        let first = fills[0].0.as_ref().expect("payload");
        assert!(fills.iter().all(|(v, _)| Arc::ptr_eq(v.as_ref().expect("payload"), first)));
    }
}
