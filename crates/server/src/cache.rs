//! A small bounded cache keyed on `(normalized SQL, catalog version)`:
//! the storage behind the service's result cache.
//!
//! Eviction is FIFO by insertion order — simple, allocation-light, and
//! good enough here because version bumps already retire whole key
//! generations at once (see [`BoundedCache::retain_version`]); an LRU
//! would only matter under a working set larger than the capacity at a
//! *single* catalog version.

use std::collections::{HashMap, VecDeque};

/// Cache key: normalized SQL text + the catalog version it was
/// observed at. Any catalog mutation bumps the version, so stale
/// entries become unreachable rather than wrong.
pub type CacheKey = (String, u64);

/// Bounded FIFO-evicting map.
#[derive(Debug)]
pub struct BoundedCache<V> {
    capacity: usize,
    map: HashMap<CacheKey, V>,
    order: VecDeque<CacheKey>,
}

impl<V: Clone> BoundedCache<V> {
    /// Cache holding at most `capacity` entries (capacity 0 disables
    /// caching entirely).
    pub fn new(capacity: usize) -> Self {
        BoundedCache {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Clone out the value under `key`, if present.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        self.map.get(key).cloned()
    }

    /// Insert `value` under `key`, evicting the oldest entry when full.
    pub fn insert(&mut self, key: CacheKey, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key.clone(), value).is_some() {
            return; // replaced in place; insertion order unchanged
        }
        self.order.push_back(key);
        while self.map.len() > self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
        }
    }

    /// Drop every entry keyed at a version other than `version` — the
    /// proactive half of invalidation, run after catalog mutations so
    /// retired generations free their memory immediately instead of
    /// waiting to age out.
    pub fn retain_version(&mut self, version: u64) {
        self.map.retain(|(_, v), _| *v == version);
        self.order.retain(|(_, v)| *v == version);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str, v: u64) -> CacheKey {
        (s.to_string(), v)
    }

    #[test]
    fn fifo_eviction_bounds_the_size() {
        let mut c = BoundedCache::new(2);
        c.insert(key("a", 1), 1);
        c.insert(key("b", 1), 2);
        c.insert(key("c", 1), 3);
        assert_eq!(c.len(), 2);
        assert!(c.get(&key("a", 1)).is_none(), "oldest entry evicted");
        assert_eq!(c.get(&key("c", 1)), Some(3));
    }

    #[test]
    fn replacement_keeps_one_entry() {
        let mut c = BoundedCache::new(2);
        c.insert(key("a", 1), 1);
        c.insert(key("a", 1), 9);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key("a", 1)), Some(9));
    }

    #[test]
    fn retain_version_clears_stale_generations() {
        let mut c = BoundedCache::new(8);
        c.insert(key("a", 1), 1);
        c.insert(key("b", 1), 2);
        c.insert(key("a", 2), 3);
        c.retain_version(2);
        assert_eq!(c.len(), 1);
        assert!(c.get(&key("a", 1)).is_none());
        assert_eq!(c.get(&key("a", 2)), Some(3));
        // Eviction bookkeeping survives the purge.
        c.insert(key("c", 2), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = BoundedCache::new(0);
        c.insert(key("a", 1), 1);
        assert!(c.get(&key("a", 1)).is_none());
        assert!(c.is_empty());
    }
}
