//! Everything the benchmark generates from `--seed`: grid weights, root
//! and query streams, the validation sample. The program under test only
//! ever sees these generated inputs; the generator is the benchmark's own,
//! so a change to the repository's PRNG cannot move the streams.

use crate::layers::{self, Graph, Kind};

/// SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`salt`) of one seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next()) * bound as u128) >> 64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 4-neighbour `side × side` grid with weights in `[1, w_max]`.
pub fn grid_edges(side: usize, w_max: u32, seed: u64) -> Vec<(u32, u32, u32)> {
    let mut rng = Rng::new(seed, 1);
    let mut edges = Vec::with_capacity(2 * side * side);
    let weight = |rng: &mut Rng| 1 + rng.below(w_max as usize) as u32;
    for r in 0..side {
        for c in 0..side {
            let v = (r * side + c) as u32;
            if c + 1 < side {
                edges.push((v, v + 1, weight(&mut rng)));
            }
            if r + 1 < side {
                edges.push((v, v + side as u32, weight(&mut rng)));
            }
        }
    }
    edges
}

/// Hop distances from `root` (`u32::MAX` = unreached): the reference the
/// served BFS answers are checked against.
pub fn hop_bfs(g: &Graph, root: u32) -> Vec<u32> {
    let mut depth = vec![u32::MAX; layers::num_vertices(g)];
    let mut frontier = vec![root];
    depth[root as usize] = 0;
    let mut d = 0;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in layers::row(g, u).0 {
                if depth[v as usize] == u32::MAX {
                    depth[v as usize] = d;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    depth
}

/// Vertices of the largest connected component, ascending.
pub fn largest_component(g: &Graph) -> Vec<u32> {
    let n = layers::num_vertices(g);
    let mut seen = vec![false; n];
    let mut best: Vec<u32> = Vec::new();
    for s in 0..n as u32 {
        if seen[s as usize] || 2 * best.len() >= n {
            continue;
        }
        let mut comp = vec![s];
        seen[s as usize] = true;
        let mut i = 0;
        while i < comp.len() {
            for &v in layers::row(g, comp[i]).0 {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    comp.push(v);
                }
            }
            i += 1;
        }
        if comp.len() > best.len() {
            best = comp;
        }
    }
    best.sort_unstable();
    best
}

/// One query of the serving mix, in the benchmark's own terms.
#[derive(Debug, Clone)]
pub struct Query {
    pub kind: Kind,
    pub root: u32,
    /// Point-to-point target.
    pub target: u32,
    /// Multi-seed set, `root` first.
    pub seeds: Vec<(u32, u64)>,
}

/// How a stream draws its roots.
pub enum RootLaw {
    /// Zipf(`s`) over the first `hot` entries of a seeded shuffle.
    Zipf { hot: usize, s: f64 },
    /// Uniform over the whole component.
    Uniform,
}

/// The access pattern of every stream is drawn from this constant, not
/// from `--seed`: which *rank* is asked for when, the kinds, the
/// multi-seed offsets. The seed decides the graph and which vertex holds
/// which rank. Two seeds therefore put the same pattern of repeats to the
/// cache, and their hit ratios differ by what the program does, not by
/// the luck of the draw (which moved throughput by ±8 % between seeds).
const PATTERN: u64 = 0x5353_5350_2014;

/// An endless query stream for one client: 45 % single-source, 35 %
/// point-to-point, 10 % multi-seed (3 seeds), 10 % BFS, dealt from a
/// shuffled deck of 20 so every block of 20 holds exactly that mix.
pub struct QueryStream {
    rng: Rng,
    /// The component in seeded order: entry `i` holds rank `i`.
    roots: Vec<u32>,
    /// Cumulative Zipf weights over `roots[..hot]`; empty for uniform.
    cdf: Vec<f64>,
    deck: Vec<Kind>,
}

impl QueryStream {
    pub fn new(component: &[u32], law: &RootLaw, seed: u64, client: u64) -> QueryStream {
        // The ranking is shared by all clients of a seed; the draws are not.
        let mut roots = component.to_vec();
        let mut shuffle = Rng::new(seed, 2);
        for i in (1..roots.len()).rev() {
            roots.swap(i, shuffle.below(i + 1));
        }
        let mut cdf = Vec::new();
        if let RootLaw::Zipf { hot, s } = *law {
            roots.truncate(hot);
            let mut acc = 0.0;
            for rank in 1..=roots.len() {
                acc += 1.0 / (rank as f64).powf(s);
                cdf.push(acc);
            }
        }
        QueryStream {
            rng: Rng::new(PATTERN, 3 + client),
            roots,
            cdf,
            deck: Vec::new(),
        }
    }

    fn root(&mut self) -> u32 {
        if self.cdf.is_empty() {
            return self.roots[self.rng.below(self.roots.len())];
        }
        let x = self.rng.unit() * self.cdf[self.cdf.len() - 1];
        let i = self.cdf.partition_point(|&c| c < x);
        self.roots[i.min(self.roots.len() - 1)]
    }

    pub fn next(&mut self) -> Query {
        if self.deck.is_empty() {
            self.deck.extend([Kind::SingleSource; 9]);
            self.deck.extend([Kind::PointToPoint; 7]);
            self.deck.extend([Kind::MultiSeed; 2]);
            self.deck.extend([Kind::Bfs; 2]);
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i + 1);
                self.deck.swap(i, j);
            }
        }
        let kind = self.deck.pop().expect("deck refilled above");
        let root = self.root();
        let mut q = Query {
            kind,
            root,
            target: root,
            seeds: Vec::new(),
        };
        match kind {
            Kind::PointToPoint => q.target = self.root(),
            Kind::MultiSeed => {
                q.seeds.push((root, 0));
                for _ in 0..2 {
                    let v = self.root();
                    q.seeds.push((v, self.rng.below(64) as u64));
                }
            }
            Kind::SingleSource | Kind::Bfs => {}
        }
        q
    }
}

/// 64-bit FNV-1a over a field of words: how a sampled answer is kept for
/// checking without keeping the field.
pub fn digest<T: Copy + Into<u64>>(field: &[T]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &w in field {
        h = (h ^ w.into()).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
