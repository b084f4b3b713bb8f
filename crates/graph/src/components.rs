//! Connected components.
//!
//! Used by the harnesses for root selection sanity (a root's component size
//! bounds the reachable count) and by the Graph 500-style validation
//! (reachability consistency). Two implementations are provided — a
//! union-find over the edge list and a BFS sweep over the CSR — and the
//! test suite cross-checks them.

use crate::{Csr, EdgeList};

/// Weighted-union + path-halving disjoint set forest.
///
/// # Examples
///
/// ```
/// use sssp_graph::components::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.same(0, 1));
/// assert!(!uf.same(1, 2));
/// assert_eq!(uf.num_components(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Disjoint sets over `n` singleton elements.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns false if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Are `a` and `b` in the same set? (Path-compresses.)
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets remaining.
    pub fn num_components(&self) -> usize {
        self.components
    }
}

/// Component label per vertex from the edge list (labels are the union-find
/// representatives, compacted to `0..k`).
pub fn components_union_find(el: &EdgeList) -> Vec<u32> {
    let mut uf = UnionFind::new(el.n);
    for e in &el.edges {
        uf.union(e.u, e.v);
    }
    compact_labels((0..el.n as u32).map(|v| uf.find(v)).collect())
}

/// Component label per vertex by repeated BFS over the CSR.
pub fn components_bfs(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n as u32 {
        if label[s as usize] != u32::MAX {
            continue;
        }
        label[s as usize] = next;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for (v, _) in g.row(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    label
}

/// Size of the largest component and the number of components.
pub fn component_summary(labels: &[u32]) -> (usize, usize) {
    let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[l as usize] += 1;
    }
    (counts.iter().copied().max().unwrap_or(0), k)
}

fn compact_labels(raw: Vec<u32>) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    let mut next = 0u32;
    raw.into_iter()
        .map(|r| {
            *map.entry(r).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, CsrBuilder, EdgeList};

    fn labels_equivalent(a: &[u32], b: &[u32]) -> bool {
        // Same partition, possibly different label names.
        let mut fwd = std::collections::HashMap::new();
        let mut bwd = std::collections::HashMap::new();
        a.iter()
            .zip(b)
            .all(|(&x, &y)| *fwd.entry(x).or_insert(y) == y && *bwd.entry(y).or_insert(x) == x)
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.num_components(), 3);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
    }

    #[test]
    fn two_components() {
        let mut el = gen::path(3, 1); // 0-1-2
        el.n = 6;
        el.push(3, 4, 1); // 3-4, 5 isolated
        let labels = components_union_find(&el);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
        let (largest, k) = component_summary(&labels);
        assert_eq!((largest, k), (3, 3));
    }

    #[test]
    fn bfs_and_union_find_agree() {
        for seed in 0..8 {
            let el = gen::uniform(120, 140, 10, seed); // sparse → several components
            let g = CsrBuilder::new().build(&el);
            let a = components_union_find(&el);
            let b = components_bfs(&g);
            assert!(labels_equivalent(&a, &b), "seed {seed}");
        }
    }

    #[test]
    fn self_loops_do_not_join_anything() {
        let mut el = EdgeList::new(3);
        el.push(0, 0, 1);
        el.push(1, 2, 1);
        let labels = components_union_find(&el);
        assert_ne!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
    }

    #[test]
    fn connected_graph_single_component() {
        let el = gen::clique(10, 1);
        let labels = components_union_find(&el);
        assert!(labels.iter().all(|&l| l == labels[0]));
        let (largest, k) = component_summary(&labels);
        assert_eq!((largest, k), (10, 1));
    }
}
