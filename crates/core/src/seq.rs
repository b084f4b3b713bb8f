//! Sequential reference algorithms.
//!
//! [`dijkstra_radix`] is the ground truth every distributed variant is
//! validated against (a monotone radix-heap Dijkstra — O(m + n·log C)
//! instead of O(m·log n), which matters when validation reruns the oracle
//! for every root of a benchmark sweep). The classic binary-heap
//! [`dijkstra`] is retained as an independent implementation that the
//! differential tests pit against the radix variant. [`delta_stepping`] is
//! a single-threaded rendition of Fig. 2 used in tests to cross-check the
//! distributed engine's bucket semantics.
//!
//! [`delta_stepping`]: crate::seq::delta_stepping
//! [`dijkstra_radix`]: crate::seq::dijkstra_radix
//! [`dijkstra`]: crate::seq::dijkstra

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sssp_graph::{Csr, VertexId};

use crate::state::INF;

/// Classic binary-heap Dijkstra. Returns the distance array (`u64::MAX` for
/// unreachable vertices).
pub fn dijkstra(g: &Csr, root: VertexId) -> Vec<u64> {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let mut dist = vec![INF; n];
    let mut heap: BinaryHeap<Reverse<(u64, VertexId)>> = BinaryHeap::new();
    dist[root as usize] = 0;
    heap.push(Reverse((0, root)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for (v, w) in g.row(u) {
            let nd = d + w as u64;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// A radix heap: a monotone priority queue over `u64` keys. Entries land in
/// bucket `i` where `i` is the position of the highest bit in which the key
/// differs from the last extracted minimum (`i = 0` means "equal to it").
/// Extraction empties the smallest non-empty bucket, re-filing its entries
/// against the new minimum — each entry can only move to a *smaller* bucket,
/// so every entry is touched O(64) times total. Requires the monotonicity
/// Dijkstra guarantees: no key pushed is ever below the last minimum popped.
struct RadixHeap {
    /// `buckets[0]` holds keys equal to `last`; `buckets[i]` (1 ≤ i ≤ 64)
    /// holds keys whose highest differing bit from `last` is bit `i - 1`.
    buckets: Vec<Vec<(u64, VertexId)>>,
    /// The last minimum extracted (all live keys are ≥ `last`).
    last: u64,
    len: usize,
}

impl RadixHeap {
    fn new() -> Self {
        RadixHeap {
            buckets: (0..=64).map(|_| Vec::new()).collect(),
            last: 0,
            len: 0,
        }
    }

    fn bucket_index(&self, key: u64) -> usize {
        debug_assert!(key >= self.last, "radix heap requires monotone keys");
        (64 - (key ^ self.last).leading_zeros()) as usize
    }

    fn push(&mut self, key: u64, v: VertexId) {
        let i = self.bucket_index(key);
        self.buckets[i].push((key, v));
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(u64, VertexId)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            // Re-file the smallest non-empty bucket against its minimum key,
            // which becomes the new reference point `last`. Every entry has a
            // smaller highest-differing-bit vs the new minimum than vs the
            // old one, so all of them fall into strictly lower buckets.
            let i = self
                .buckets
                .iter()
                .position(|b| !b.is_empty())
                .expect("len > 0 but all buckets empty");
            let drained = std::mem::take(&mut self.buckets[i]);
            self.last = drained.iter().map(|&(k, _)| k).min().expect("non-empty");
            for (k, v) in drained {
                let j = self.bucket_index(k);
                debug_assert!(j < i);
                self.buckets[j].push((k, v));
            }
        }
        self.len -= 1;
        self.buckets[0].pop()
    }
}

/// Dijkstra over a `RadixHeap` instead of a binary heap. Same contract as
/// [`dijkstra`]: returns the distance array with `u64::MAX` for unreachable
/// vertices. This is the validation oracle; the binary-heap variant is kept
/// as an independent cross-check.
pub fn dijkstra_radix(g: &Csr, root: VertexId) -> Vec<u64> {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let mut dist = vec![INF; n];
    let mut heap = RadixHeap::new();
    dist[root as usize] = 0;
    heap.push(0, root);
    while let Some((d, u)) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for (v, w) in g.row(u) {
            let nd = d + w as u64;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(nd, v);
            }
        }
    }
    dist
}

/// Classic sequential Bellman-Ford with a changed-vertex queue. Returns the
/// distance array and the number of rounds (the depth of the shortest-path
/// tree, the quantity §II-B bounds the phase count with).
pub fn bellman_ford(g: &Csr, root: VertexId) -> (Vec<u64>, u64) {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let mut dist = vec![INF; n];
    dist[root as usize] = 0;
    let mut active = vec![root];
    let mut rounds = 0u64;
    while !active.is_empty() {
        rounds += 1;
        let mut changed = Vec::new();
        let mut in_changed = vec![false; n];
        for &u in &active {
            let du = dist[u as usize];
            for (v, w) in g.row(u) {
                let nd = du + w as u64;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    if !in_changed[v as usize] {
                        in_changed[v as usize] = true;
                        changed.push(v);
                    }
                }
            }
        }
        active = changed;
        assert!(rounds <= n as u64, "Bellman-Ford failed to converge");
    }
    (dist, rounds)
}

/// Distribution of finite shortest distances over Δ-buckets: how many
/// distinct buckets are populated and the largest finite distance. §IV-E
/// uses this spread to explain why hybridization helps RMAT-2 more.
pub fn distance_spread(dist: &[u64], delta: u32) -> (usize, u64) {
    let mut buckets = std::collections::BTreeSet::new();
    let mut max_d = 0;
    for &d in dist {
        if d != INF {
            buckets.insert(d / delta as u64);
            max_d = max_d.max(d);
        }
    }
    (buckets.len(), max_d)
}

/// Statistics of a sequential Δ-stepping run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqDeltaStats {
    /// Total edge relaxations performed.
    pub relaxations: u64,
    /// Buckets processed.
    pub epochs: u64,
    /// Inner phases executed.
    pub phases: u64,
}

/// Sequential Δ-stepping with short/long edge classification, following the
/// paper's Fig. 2 pseudocode directly (buckets, phases, epochs).
pub fn delta_stepping(g: &Csr, root: VertexId, delta: u32) -> (Vec<u64>, SeqDeltaStats) {
    assert!(delta >= 1);
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let delta = delta as u64;
    let mut dist = vec![INF; n];
    let mut bucket_of = vec![u64::MAX; n];
    let mut buckets: std::collections::BTreeMap<u64, Vec<VertexId>> = Default::default();
    let mut stats = SeqDeltaStats::default();

    let relax = |v: VertexId,
                 nd: u64,
                 dist: &mut Vec<u64>,
                 bucket_of: &mut Vec<u64>,
                 buckets: &mut std::collections::BTreeMap<u64, Vec<VertexId>>|
     -> bool {
        if nd < dist[v as usize] {
            dist[v as usize] = nd;
            let nb = nd / delta;
            if nb < bucket_of[v as usize] {
                bucket_of[v as usize] = nb;
                buckets.entry(nb).or_default().push(v);
            }
            true
        } else {
            false
        }
    };

    dist[root as usize] = 0;
    bucket_of[root as usize] = 0;
    buckets.entry(0).or_default().push(root);

    let mut k = 0u64;
    // Advance to the next non-empty bucket ≥ k until none remains.
    while let Some((&kk, _)) = buckets
        .range(k..)
        .find(|(&b, vs)| vs.iter().any(|&v| bucket_of[v as usize] == b))
    {
        k = kk;
        stats.epochs += 1;
        let bucket_end = (k + 1) * delta - 1;

        // Short-edge phases.
        let mut active: Vec<VertexId> = buckets[&k]
            .iter()
            .copied()
            .filter(|&v| bucket_of[v as usize] == k)
            .collect();
        while !active.is_empty() {
            stats.phases += 1;
            let mut changed: Vec<VertexId> = Vec::new();
            for &u in &active {
                let du = dist[u as usize];
                for (v, w) in g.row(u) {
                    if (w as u64) < delta {
                        stats.relaxations += 1;
                        if relax(v, du + w as u64, &mut dist, &mut bucket_of, &mut buckets)
                            && bucket_of[v as usize] == k
                        {
                            changed.push(v);
                        }
                    }
                }
            }
            changed.sort_unstable();
            changed.dedup();
            active = changed;
        }

        // Long-edge phase: every vertex settled in this bucket relaxes its
        // long edges once.
        stats.phases += 1;
        let members: Vec<VertexId> = buckets[&k]
            .iter()
            .copied()
            .filter(|&v| bucket_of[v as usize] == k)
            .collect();
        for &u in &members {
            let du = dist[u as usize];
            debug_assert!(du <= bucket_end);
            for (v, w) in g.row(u) {
                if (w as u64) >= delta {
                    stats.relaxations += 1;
                    relax(v, du + w as u64, &mut dist, &mut bucket_of, &mut buckets);
                }
            }
        }
        k += 1;
    }
    (dist, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::{gen, CsrBuilder};

    #[test]
    fn dijkstra_on_path() {
        let g = CsrBuilder::new().build(&gen::path(5, 3));
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn dijkstra_unreachable_is_inf() {
        let mut el = gen::path(3, 1);
        el.n = 5;
        let g = CsrBuilder::new().build(&el);
        let d = dijkstra(&g, 0);
        assert_eq!(d[3], INF);
        assert_eq!(d[4], INF);
    }

    #[test]
    fn dijkstra_from_middle() {
        let g = CsrBuilder::new().build(&gen::path(5, 2));
        let d = dijkstra(&g, 2);
        assert_eq!(d, vec![4, 2, 0, 2, 4]);
    }

    #[test]
    fn radix_dijkstra_matches_binary_heap_dijkstra() {
        // Differential test: the radix-heap oracle and the retained
        // binary-heap implementation must agree distance-for-distance on a
        // spread of densities and weight ranges (including unreachable
        // vertices and non-zero roots).
        for (n, m, w_max, seed) in [
            (1, 0, 1, 0),
            (50, 100, 1, 1),
            (200, 1200, 40, 11),
            (300, 600, 255, 7), // sparse → unreachable vertices
            (150, 2000, 3, 3),
        ] {
            let el = gen::uniform(n, m, w_max, seed);
            let g = CsrBuilder::new().build(&el);
            for root in [0, (n / 2) as VertexId] {
                assert_eq!(
                    dijkstra_radix(&g, root),
                    dijkstra(&g, root),
                    "n={n} m={m} w_max={w_max} seed={seed} root={root}"
                );
            }
        }
    }

    #[test]
    fn radix_dijkstra_on_path_and_unreachable() {
        let g = CsrBuilder::new().build(&gen::path(5, 3));
        assert_eq!(dijkstra_radix(&g, 0), vec![0, 3, 6, 9, 12]);
        let mut el = gen::path(3, 1);
        el.n = 5;
        let g = CsrBuilder::new().build(&el);
        let d = dijkstra_radix(&g, 0);
        assert_eq!(d[3], INF);
        assert_eq!(d[4], INF);
    }

    #[test]
    fn radix_heap_pops_in_sorted_order() {
        let mut h = RadixHeap::new();
        // Monotone workload: push a batch, pop some, push keys ≥ the last
        // popped minimum, as Dijkstra does.
        for (k, v) in [(5u64, 0u32), (3, 1), (9, 2), (3, 3)] {
            h.push(k, v);
        }
        let (k1, _) = h.pop().unwrap();
        assert_eq!(k1, 3);
        h.push(4, 4);
        h.push(u64::MAX - 1, 5);
        let mut rest = Vec::new();
        while let Some((k, _)) = h.pop() {
            rest.push(k);
        }
        assert_eq!(rest, vec![3, 4, 5, 9, u64::MAX - 1]);
    }

    #[test]
    fn delta_stepping_matches_dijkstra() {
        let el = gen::uniform(200, 1200, 40, 11);
        let g = CsrBuilder::new().build(&el);
        let reference = dijkstra(&g, 0);
        for delta in [1, 5, 25, 1000] {
            let (d, _) = delta_stepping(&g, 0, delta);
            assert_eq!(d, reference, "delta = {delta}");
        }
    }

    #[test]
    fn delta_one_epochs_equal_distinct_distances() {
        let el = gen::uniform(60, 300, 12, 5);
        let g = CsrBuilder::new().build(&el);
        let (d, stats) = delta_stepping(&g, 0, 1);
        let mut finite: Vec<u64> = d.iter().copied().filter(|&x| x != INF).collect();
        finite.sort_unstable();
        finite.dedup();
        assert_eq!(stats.epochs, finite.len() as u64);
    }

    #[test]
    fn larger_delta_fewer_epochs() {
        let el = gen::uniform(300, 2400, 60, 8);
        let g = CsrBuilder::new().build(&el);
        let (_, s1) = delta_stepping(&g, 0, 2);
        let (_, s2) = delta_stepping(&g, 0, 50);
        assert!(
            s2.epochs < s1.epochs,
            "epochs: {} vs {}",
            s2.epochs,
            s1.epochs
        );
    }

    #[test]
    fn bellman_ford_matches_dijkstra_reference() {
        for seed in 0..5 {
            let el = gen::uniform(150, 900, 40, seed);
            let g = CsrBuilder::new().build(&el);
            let (d, rounds) = bellman_ford(&g, 0);
            assert_eq!(d, dijkstra(&g, 0), "seed {seed}");
            assert!(rounds <= 150);
        }
    }

    #[test]
    fn bellman_ford_rounds_bound_tree_depth() {
        // On a path, the tree depth equals n-1 hops → n rounds (the last
        // round detects quiescence is folded into the count as n-1 active
        // rounds).
        let g = CsrBuilder::new().build(&gen::path(10, 2));
        let (d, rounds) = bellman_ford(&g, 0);
        assert_eq!(d[9], 18);
        assert_eq!(rounds, 10); // 9 productive rounds + 1 quiescence check
    }

    #[test]
    fn distance_spread_counts_buckets() {
        let dist = vec![0, 3, 26, 51, INF, 52];
        let (buckets, max_d) = distance_spread(&dist, 25);
        assert_eq!(buckets, 3); // buckets 0, 1, 2
        assert_eq!(max_d, 52);
    }

    #[test]
    fn dijkstra_relaxation_bound_holds_for_delta_one() {
        // With Δ = 1 every edge is long and is relaxed at most twice.
        let el = gen::uniform(100, 700, 30, 2);
        let g = CsrBuilder::new().build(&el);
        let (_, stats) = delta_stepping(&g, 0, 1);
        assert!(stats.relaxations <= 2 * g.num_undirected_edges() as u64);
    }
}
