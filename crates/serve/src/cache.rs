//! The landmark / repeat-root distance cache.
//!
//! Full distance fields are cached under their **canonicalized seed set**
//! (sorted, deduplicated, minimum distance per vertex — see
//! [`sssp_core::canonical_seeds`]), so `SingleSource { root: 7 }`, a
//! `MultiSeed` spelling of the same root and a repeated submission all
//! share one entry. A lookup is answered from memory by one of three
//! routes, each bit-identical to an engine run:
//!
//! * **Own field.** The seed set's own entry; for a point-to-point query,
//!   its root's single-source field read at the target (the landmark
//!   pattern).
//! * **Target field.** A point-to-point query whose root has no field but
//!   whose target has one reads `field_t[root]`: d(r, t) = d(t, r) on
//!   every graph the server holds, because `CsrBuilder::build` only makes
//!   undirected graphs (each edge sits in both endpoints' rows) and every
//!   `DistGraph` is built from such a `Csr`.
//! * **Composed.** A seed set whose every seed has a resident
//!   single-source field is answered by `min_i(o_i + d_i(v))` per vertex,
//!   skipping unreached entries — exactly the field a multi-seed run
//!   computes. The cache only hands out the parts; the caller composes
//!   them outside its lock.
//!
//! A point-to-point run's own (partially tentative) field is never
//! inserted, and neither is a composed one (its parts stay resident).
//!
//! **Admission** follows W-TinyLFU (Einziger, Friedman and Manes,
//! "TinyLFU: A Highly Efficient Cache Admission Policy", ACM ToS 2017):
//!
//! * Every seed-set lookup counts one access of its key; a point-to-point
//!   lookup counts its root's key and, when it differs, its target's.
//! * The counts live in an exact table that **ages**: after every
//!   `16 × capacity` recorded accesses each count is halved and the zeros
//!   are dropped (a resident key keeps a count of at least 1). The table
//!   therefore never holds more than `2 × (16 + 1) × capacity` keys.
//! * A new field enters a small **recency window** of
//!   `max(1, capacity / 16)` entries, which always admits, so a field
//!   asked for twice in a row is served from memory the second time.
//! * A field pushed out of the window joins the **main** LRU region only
//!   if its count is strictly greater than the count of that region's
//!   coldest entry, which it then evicts; otherwise it is dropped. A
//!   stream of one-off keys therefore never displaces a field asked for
//!   more often.
//!
//! At most `capacity` fields are resident in the two regions together.
//! The server clears the cache on graph rebuild (entries are only valid
//! for one graph generation, and the generation is checked again at
//! insert time so a query that raced a rebuild cannot poison the new
//! graph's cache); the counts describe demand, not a graph, and survive.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use sssp_graph::VertexId;

/// Cache key: a canonicalized seed set.
pub type SeedKey = Vec<(VertexId, u64)>;

/// A seed-set lookup answered from memory.
#[derive(Debug, Clone)]
pub enum Hit {
    /// The seed set's own field.
    Own(Arc<Vec<u64>>),
    /// Every seed's single-source field with its start offset, to be
    /// composed as `min_i(o_i + d_i(v))`.
    Composed(Vec<(u64, Arc<Vec<u64>>)>),
}

/// A frequency-admitted map from canonical seed sets to shared full
/// distance fields (see the module docs for the policy).
#[derive(Debug, Default)]
pub struct DistanceCache {
    capacity: usize,
    /// Every resident field, window and main region alike.
    fields: BTreeMap<SeedKey, Arc<Vec<u64>>>,
    /// The recency window: front = coldest.
    window: VecDeque<SeedKey>,
    /// The main LRU region: front = coldest.
    main: VecDeque<SeedKey>,
    /// Access counts of recently asked-for keys (aged, so bounded).
    counts: BTreeMap<SeedKey, u64>,
    /// Accesses recorded since the last aging.
    recorded: usize,
    /// Lookups answered by the own field since creation (survives `clear`).
    pub(crate) own_hits: u64,
    /// Point-to-point lookups answered by the target's field.
    pub(crate) target_hits: u64,
    /// Lookups answered by composing single-source fields.
    pub(crate) composed_hits: u64,
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
        self.fields.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Lookups answered from memory, by any route.
    pub(crate) fn hits(&self) -> u64 {
        self.own_hits + self.target_hits + self.composed_hits
    }

    /// Look up a canonical seed set: its own field, else the parts to
    /// compose when every seed has a resident single-source field. Counts
    /// one access of `key` and one hit or miss.
    pub fn lookup(&mut self, key: &SeedKey) -> Option<Hit> {
        self.record(key);
        if let Some(field) = self.touch(key) {
            self.own_hits += 1;
            return Some(Hit::Own(field));
        }
        // A lone seed at offset 0 is its own single-source key, just missed.
        let composable = !matches!(key.as_slice(), [] | [(_, 0)]);
        let parts: Option<Vec<_>> = composable
            .then(|| {
                key.iter()
                    .map(|&(s, o)| self.fields.get(&single(s)).map(|f| (o, Arc::clone(f))))
                    .collect()
            })
            .flatten();
        match parts {
            Some(parts) => {
                for &(s, _) in key {
                    self.touch(&single(s));
                }
                self.composed_hits += 1;
                Some(Hit::Composed(parts))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up a point-to-point distance: the root's field read at the
    /// target, else the target's field read at the root. Counts an access
    /// of both keys (once when they coincide) and one hit or miss.
    pub fn lookup_pair(&mut self, root: VertexId, target: VertexId) -> Option<u64> {
        let (root_key, target_key) = (single(root), single(target));
        self.record(&root_key);
        if target != root {
            self.record(&target_key);
        }
        let at = |field: Arc<Vec<u64>>, v: VertexId| field.get(v as usize).copied();
        if let Some(d) = self.touch(&root_key).and_then(|f| at(f, target)) {
            self.own_hits += 1;
            return Some(d);
        }
        // d(root, target) = d(target, root): every resident graph is
        // undirected (see the module docs).
        if let Some(d) = self.touch(&target_key).and_then(|f| at(f, root)) {
            self.target_hits += 1;
            return Some(d);
        }
        self.misses += 1;
        None
    }

    /// Insert a full distance field into the recency window; the window's
    /// coldest field, if the window overflows, then faces admission to the
    /// main region. Re-inserting a resident key replaces its field and
    /// refreshes it in place.
    pub fn insert(&mut self, key: SeedKey, dist: Arc<Vec<u64>>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(slot) = self.fields.get_mut(&key) {
            *slot = dist;
            self.touch(&key);
            return;
        }
        self.fields.insert(key.clone(), dist);
        self.window.push_back(key);
        if self.window.len() > window_capacity(self.capacity) {
            if let Some(candidate) = self.window.pop_front() {
                self.admit(candidate);
            }
        }
    }

    /// Drop every entry (hit/miss counters and access counts are kept —
    /// they describe the server's lifetime and its demand, not one graph).
    pub fn clear(&mut self) {
        self.fields.clear();
        self.window.clear();
        self.main.clear();
    }

    /// A field leaving the window joins the main region if there is room,
    /// or if it is asked for strictly more often than the region's coldest
    /// entry (which it evicts); otherwise it is dropped.
    fn admit(&mut self, candidate: SeedKey) {
        let main_capacity = self.capacity - window_capacity(self.capacity);
        if self.main.len() < main_capacity {
            self.main.push_back(candidate);
            return;
        }
        let wins = self
            .main
            .front()
            .is_some_and(|coldest| self.count(&candidate) > self.count(coldest));
        if wins {
            if let Some(coldest) = self.main.pop_front() {
                self.fields.remove(&coldest);
            }
            self.main.push_back(candidate);
        } else {
            self.fields.remove(&candidate);
        }
    }

    /// The resident field of `key`, moved to the hot end of its region.
    fn touch(&mut self, key: &SeedKey) -> Option<Arc<Vec<u64>>> {
        let field = Arc::clone(self.fields.get(key)?);
        for region in [&mut self.window, &mut self.main] {
            if let Some(at) = region.iter().position(|k| k == key) {
                if let Some(k) = region.remove(at) {
                    region.push_back(k);
                }
                break;
            }
        }
        Some(field)
    }

    fn count(&self, key: &SeedKey) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Count one access of `key`, aging the table at the end of a period.
    fn record(&mut self, key: &SeedKey) {
        if self.capacity == 0 {
            return;
        }
        *self.counts.entry(key.clone()).or_insert(0) += 1;
        self.recorded += 1;
        if self.recorded >= self.capacity.saturating_mul(AGING_PERIOD_PER_FIELD) {
            self.recorded = 0;
            let fields = &self.fields;
            self.counts.retain(|k, c| {
                *c /= 2;
                if *c == 0 && fields.contains_key(k) {
                    *c = 1;
                }
                *c > 0
            });
        }
    }
}

/// Recorded accesses per resident field between two agings of the count
/// table. One period adds `16 × capacity` counts, and aging leaves at most
/// half of the sum plus one count per resident key, so the sum — and with
/// it the number of keys — never exceeds `2 × (16 + 1) × capacity`.
const AGING_PERIOD_PER_FIELD: usize = 16;

/// Size of the recency window for a cache of `capacity` fields.
fn window_capacity(capacity: usize) -> usize {
    (capacity / 16).max(1)
}

/// The canonical key of a single-source field.
fn single(v: VertexId) -> SeedKey {
    vec![(v, 0)]
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

    /// The own field of `k`, if resident (counts a lookup like any other).
    fn get(c: &mut DistanceCache, k: &SeedKey) -> Option<Arc<Vec<u64>>> {
        match c.lookup(k) {
            Some(Hit::Own(f)) => Some(f),
            _ => None,
        }
    }

    /// Ask for `k` the way the server does: look it up, run and insert on
    /// a miss. Returns whether it hit.
    fn ask(c: &mut DistanceCache, k: &SeedKey) -> bool {
        let hit = c.lookup(k).is_some();
        if !hit {
            c.insert(k.clone(), Arc::new(vec![0; 1024]));
        }
        hit
    }

    #[test]
    fn get_insert_roundtrip_counts_hits_and_misses() {
        let mut c = DistanceCache::new(4);
        assert!(get(&mut c, &key(1)).is_none());
        c.insert(key(1), field(10));
        assert_eq!(get(&mut c, &key(1)).as_deref(), Some(&vec![10; 4]));
        assert_eq!((c.hits(), c.misses), (1, 1));
        assert_eq!(c.len(), 1);
    }

    /// Once the main region is full, a field leaving the window evicts the
    /// region's coldest entry when it is asked for more often, and is
    /// dropped when it is not.
    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Capacity 3: a window of 1 and a main region of 2.
        let mut c = DistanceCache::new(3);
        for k in [1, 2, 3] {
            ask(&mut c, &key(k));
        }
        // 1 and 2 passed into the main region while it had room; touch 1
        // so 2 becomes the coldest.
        assert!(ask(&mut c, &key(1)));
        // 4 is asked for three times: when it leaves the window its count
        // (3) beats the coldest main entry's (1), so it evicts key 2. Key 3
        // (count 1) left the window first and was dropped.
        for _ in 0..2 {
            let _ = c.lookup(&key(4));
        }
        ask(&mut c, &key(4));
        ask(&mut c, &key(5));
        assert_eq!(c.len(), 3);
        let resident = |k| c.fields.contains_key(&key(k));
        assert!(!resident(2), "coldest entry should be evicted");
        assert!(!resident(3), "a colder candidate is dropped");
        assert!(resident(1) && resident(4) && resident(5));
    }

    /// Re-inserting a resident key replaces its field without a second
    /// queue slot, so the refreshed key still counts as one entry.
    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let mut c = DistanceCache::new(3);
        c.insert(key(1), field(1));
        c.insert(key(2), field(2));
        c.insert(key(1), field(11)); // refresh: replaces, no new slot
        assert_eq!(c.len(), 2);
        assert_eq!(c.window.len() + c.main.len(), 2);
        c.insert(key(3), field(3));
        assert_eq!(c.window.len() + c.main.len(), 3);
        assert_eq!(get(&mut c, &key(1)).as_deref(), Some(&vec![11; 4]));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = DistanceCache::new(0);
        c.insert(key(1), field(1));
        assert!(c.is_empty());
        assert!(get(&mut c, &key(1)).is_none());
        assert!(c.counts.is_empty(), "a disabled cache counts nothing");
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let mut c = DistanceCache::new(4);
        c.insert(key(1), field(1));
        let _ = get(&mut c, &key(1));
        c.clear();
        assert!(c.is_empty());
        assert!(get(&mut c, &key(1)).is_none());
        assert_eq!((c.hits(), c.misses), (1, 1));
    }

    #[test]
    fn a_key_asked_twice_in_a_row_hits_the_second_time() {
        let mut c = DistanceCache::new(32);
        // Fill the main region with keys asked for more often.
        for _ in 0..3 {
            for k in 0..32 {
                ask(&mut c, &key(k));
            }
        }
        for k in 1000..1010 {
            assert!(!ask(&mut c, &key(k)), "a one-off key misses first");
            assert!(ask(&mut c, &key(k)), "the window keeps it for a repeat");
        }
    }

    #[test]
    fn one_off_keys_never_evict_a_main_key_seen_twice() {
        let mut c = DistanceCache::new(32);
        for _ in 0..2 {
            for k in 0..32 {
                ask(&mut c, &key(k));
            }
        }
        let main: Vec<SeedKey> = c.main.iter().cloned().collect();
        assert_eq!(main.len(), 30);
        // Many aging periods of one-off keys.
        for k in 10_000..30_000 {
            ask(&mut c, &key(k));
        }
        for k in &main {
            assert!(c.fields.contains_key(k), "{k:?} was evicted");
        }
    }

    #[test]
    fn the_count_table_stays_bounded() {
        let mut c = DistanceCache::new(32);
        for k in 0..100_000 {
            ask(&mut c, &key(k));
            assert!(c.counts.len() <= 2 * 16 * 32, "{} keys", c.counts.len());
        }
        assert!(c.len() <= 32);
    }

    #[test]
    fn point_to_point_reads_either_end_and_compositions_need_every_seed() {
        let mut c = DistanceCache::new(8);
        c.insert(key(1), Arc::new(vec![10, 11, 12, 13]));
        assert_eq!(
            c.lookup_pair(1, 3),
            Some(13),
            "the root's field at the target"
        );
        assert_eq!(
            c.lookup_pair(2, 1),
            Some(12),
            "the target's field at the root"
        );
        assert_eq!(c.lookup_pair(2, 3), None);
        // A lone seed at a nonzero offset composes from its field.
        assert!(matches!(c.lookup(&vec![(1, 3)]), Some(Hit::Composed(p)) if p.len() == 1));
        // Seed 9 has no field: no composition.
        assert!(c.lookup(&vec![(1, 0), (9, 2)]).is_none());
        c.insert(key(9), field(9));
        match c.lookup(&vec![(1, 0), (9, 2)]) {
            Some(Hit::Composed(parts)) => {
                let offsets: Vec<u64> = parts.iter().map(|&(o, _)| o).collect();
                assert_eq!(offsets, [0, 2]);
                assert_eq!(parts[1].1.as_ref(), &vec![9; 4]);
            }
            other => panic!("expected a composition, got {other:?}"),
        }
        assert_eq!(
            (c.own_hits, c.target_hits, c.composed_hits, c.misses),
            (1, 1, 2, 2)
        );
    }

    /// The deterministic query stream of the replay below: Zipf(1.0) over
    /// 1 024 keys, dealt in the serving benchmark's mix (per 20 queries:
    /// 9 single-source, 7 point-to-point, 2 three-seed, 2 BFS).
    struct Replay {
        state: u64,
        cdf: Vec<f64>,
        deck: Vec<u8>,
    }

    impl Replay {
        fn new(seed: u64) -> Replay {
            let mut acc = 0.0;
            let cdf = (1..=1024)
                .map(|rank| {
                    acc += 1.0 / f64::from(rank);
                    acc
                })
                .collect();
            Replay {
                state: seed,
                cdf,
                deck: Vec::new(),
            }
        }

        /// splitmix64.
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn root(&mut self) -> VertexId {
            let x = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * self.cdf[1023];
            self.cdf.partition_point(|&c| c < x).min(1023) as VertexId
        }

        /// Drive one query through `c` as the server does; returns whether
        /// it was answered from memory.
        fn step(&mut self, c: &mut DistanceCache) -> bool {
            if self.deck.is_empty() {
                self.deck = [[0u8; 9].as_slice(), &[1; 7], &[2; 2], &[3; 2]].concat();
                for i in (1..self.deck.len()).rev() {
                    let j = (self.next_u64() % (i as u64 + 1)) as usize;
                    self.deck.swap(i, j);
                }
            }
            let kind = self.deck.pop().unwrap_or(3);
            let root = self.root();
            match kind {
                0 => ask(c, &key(root)),
                1 => {
                    let target = self.root();
                    c.lookup_pair(root, target).is_some()
                }
                2 => {
                    let mut seeds = BTreeMap::from([(root, 0)]);
                    for _ in 0..2 {
                        let (v, o) = (self.root(), self.next_u64() % 64);
                        let e = seeds.entry(v).or_insert(o);
                        *e = (*e).min(o);
                    }
                    ask(c, &seeds.into_iter().collect())
                }
                _ => false,
            }
        }
    }

    /// A seeded Zipf(1.0) replay over 1 024 keys at capacity 32 answers at
    /// least 40 % of its queries from memory. A pure LRU of the same
    /// capacity, which has only the own-field route, answers 0.298 of the
    /// same 20 000 queries (seed 1); this policy answers 0.514.
    #[test]
    fn zipf_replay_hits_at_least_forty_percent() {
        let mut c = DistanceCache::new(32);
        let mut replay = Replay::new(1);
        let hits = (0..20_000).filter(|_| replay.step(&mut c)).count();
        let ratio = hits as f64 / 20_000.0;
        assert!(ratio >= 0.40, "hit ratio {ratio}");
        assert!(c.len() <= 32);
    }
}
