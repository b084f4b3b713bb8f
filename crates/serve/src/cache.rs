//! The landmark / repeat-root distance cache.
//!
//! Full distance fields are cached under their **canonicalized seed set**
//! (sorted, deduplicated, minimum distance per vertex — see
//! [`sssp_core::canonical_seeds`]), so `SingleSource { root: 7 }`, a
//! `MultiSeed` spelling of the same root and a repeated submission all
//! share one entry. Point-to-point queries consult the cache too: a
//! cached full field for their root answers `dist[target]` directly —
//! the landmark pattern — but their own (partially tentative) output is
//! never inserted.
//!
//! Eviction is least-recently-used over a fixed capacity; the server
//! clears the whole cache on graph rebuild (entries are only valid for
//! one graph generation, and the generation is checked again at insert
//! time so a query that raced a rebuild cannot poison the new graph's
//! cache).

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use sssp_graph::VertexId;

/// Cache key: a canonicalized seed set.
pub type SeedKey = Vec<(VertexId, u64)>;

/// An LRU map from canonical seed sets to shared full distance fields.
#[derive(Debug, Default)]
pub struct DistanceCache {
    capacity: usize,
    entries: BTreeMap<SeedKey, Arc<Vec<u64>>>,
    /// LRU order: front = coldest, back = hottest.
    order: VecDeque<SeedKey>,
    /// Lookups answered from the cache since creation (survives `clear`).
    pub(crate) hits: u64,
    /// Lookups that missed since creation (survives `clear`).
    pub(crate) misses: u64,
}

impl DistanceCache {
    /// An empty cache holding at most `capacity` distance fields
    /// (`capacity == 0` disables caching entirely).
    pub fn new(capacity: usize) -> DistanceCache {
        DistanceCache {
            capacity,
            ..DistanceCache::default()
        }
    }

    /// Number of cached fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a canonical seed set, counting a hit or miss and touching
    /// the entry's LRU position.
    pub fn get(&mut self, key: &SeedKey) -> Option<Arc<Vec<u64>>> {
        match self.entries.get(key) {
            Some(dist) => {
                self.hits += 1;
                let dist = Arc::clone(dist);
                if let Some(at) = self.order.iter().position(|k| k == key) {
                    self.order.remove(at);
                    self.order.push_back(key.clone());
                }
                Some(dist)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a full distance field, evicting the least-recently-used
    /// entry if the cache is at capacity.
    pub fn insert(&mut self, key: SeedKey, dist: Arc<Vec<u64>>) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.insert(key.clone(), dist).is_none() {
            self.order.push_back(key);
            while self.entries.len() > self.capacity {
                if let Some(cold) = self.order.pop_front() {
                    self.entries.remove(&cold);
                }
            }
        } else if let Some(at) = self.order.iter().position(|k| k == &key) {
            self.order.remove(at);
            self.order.push_back(key);
        }
    }

    /// Drop every entry (hit/miss counters are preserved — they describe
    /// the server's lifetime, not one graph's).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: VertexId) -> SeedKey {
        vec![(v, 0)]
    }

    fn field(seed: u64) -> Arc<Vec<u64>> {
        Arc::new(vec![seed; 4])
    }

    #[test]
    fn get_insert_roundtrip_counts_hits_and_misses() {
        let mut c = DistanceCache::new(4);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), field(10));
        assert_eq!(c.get(&key(1)).as_deref(), Some(&vec![10; 4]));
        assert_eq!((c.hits, c.misses), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = DistanceCache::new(2);
        c.insert(key(1), field(1));
        c.insert(key(2), field(2));
        // Touch 1 so 2 becomes the coldest.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), field(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(2)).is_none(), "coldest entry should be evicted");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let mut c = DistanceCache::new(2);
        c.insert(key(1), field(1));
        c.insert(key(2), field(2));
        c.insert(key(1), field(11)); // refresh: 2 is now coldest
        c.insert(key(3), field(3));
        assert!(c.get(&key(2)).is_none());
        assert_eq!(c.get(&key(1)).as_deref(), Some(&vec![11; 4]));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = DistanceCache::new(0);
        c.insert(key(1), field(1));
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let mut c = DistanceCache::new(4);
        c.insert(key(1), field(1));
        let _ = c.get(&key(1));
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
        assert_eq!((c.hits, c.misses), (1, 1));
    }
}
