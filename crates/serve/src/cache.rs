//! Content-addressed result cache for the analysis service.
//!
//! Keys are `(dataset fingerprint, options fingerprint, section, day)` —
//! the complete provenance of a section payload, since every section is a
//! pure function of those four (the thread count never affects a result
//! bit and is excluded from the options fingerprint on purpose; `day` is
//! the churn timeline day for `as_of` requests, `None` for the base
//! snapshot). Values are the serialized payload plus its FNV fingerprint,
//! so a cache hit replays the exact bytes a cold computation produced.
//!
//! The key is built from the *parsed, canonicalized* request — key order,
//! whitespace, and explicitly spelled defaults of the incoming JSON line
//! cannot cause a spurious miss (regression-tested in `serve_asof.rs`).
//!
//! Eviction is least-recently-used over a logical access clock, bounded
//! by a fixed entry capacity: one [`Lru`] type backs the section cache and
//! the shards' day-graph and detect reply caches. It does no locking —
//! each owner wraps it in one `Mutex` and keeps compute *outside* the
//! critical section.

use std::collections::HashMap;
use std::hash::Hash;
use verified_net::Section;

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

/// Bounded least-recently-used map over a logical access clock — the one
/// eviction policy behind the shard section cache, the day-graph cache and
/// the detect reply cache.
///
/// Every `get` hit and `insert` stamps the entry with the next clock tick;
/// the clock is strictly increasing, so the victim (the minimum stamp) is
/// unique and eviction order is deterministic.
pub(crate) struct Lru<K, V> {
    capacity: usize,
    clock: u64,
    entries: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An LRU holding at most `capacity` entries. Capacity 0 caches
    /// nothing.
    pub(crate) fn new(capacity: usize) -> Self {
        Self { capacity, clock: 0, entries: HashMap::new() }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look up `key`, marking it most-recently-used on a hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
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
    pub(crate) fn insert(&mut self, key: K, value: V) -> (V, usize) {
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
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
}
