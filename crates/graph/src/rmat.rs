//! R-MAT (Recursive MATrix) scale-free graph generator.
//!
//! Implements the generator of Chakrabarti, Zhan and Faloutsos (SDM '04) as
//! used by the Graph 500 benchmark: each edge picks its endpoints by `scale`
//! rounds of quadrant selection with probabilities `(A, B, C, D)`.
//!
//! Two presets reproduce the paper's graph families (§IV-B):
//!
//! * **RMAT-1** — Graph 500 BFS spec: `A = 0.57, B = C = 0.19, D = 0.05`.
//!   Extreme degree skew (max degree in the millions at scale 32).
//! * **RMAT-2** — proposed Graph 500 SSSP spec: `A = 0.50, B = C = 0.10,
//!   D = 0.30`. Milder skew.
//!
//! Generation is counter-based (each edge hashes `(seed, edge_index)`), so it
//! is deterministic, trivially parallel and independent of the rank count.

use crate::prng::{par_for_each_indexed, SplitMix};
use crate::weights::uniform_weight;
use crate::{Edge, EdgeList, EdgeTuple, VertexId};

/// R-MAT quadrant probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Probability of the bottom-right quadrant.
    pub d: f64,
}

impl RmatParams {
    /// Graph 500 BFS benchmark parameters — the paper's `RMAT-1` family.
    pub const RMAT1: RmatParams = RmatParams {
        a: 0.57,
        b: 0.19,
        c: 0.19,
        d: 0.05,
    };

    /// Proposed Graph 500 SSSP benchmark parameters — the paper's `RMAT-2`
    /// family.
    pub const RMAT2: RmatParams = RmatParams {
        a: 0.50,
        b: 0.10,
        c: 0.10,
        d: 0.30,
    };

    /// Uniform parameters: every vertex pair equally likely (Erdős–Rényi-ish).
    pub const UNIFORM: RmatParams = RmatParams {
        a: 0.25,
        b: 0.25,
        c: 0.25,
        d: 0.25,
    };

    /// Check the four probabilities form a distribution.
    pub fn validate(&self) -> Result<(), String> {
        let sum = self.a + self.b + self.c + self.d;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("R-MAT parameters must sum to 1, got {sum}"));
        }
        if [self.a, self.b, self.c, self.d]
            .iter()
            .any(|&p| !(0.0..=1.0).contains(&p))
        {
            return Err("R-MAT parameters must lie in [0, 1]".into());
        }
        Ok(())
    }
}

/// Configured R-MAT generator.
///
/// `scale` gives `n = 2^scale` vertices; `edge_factor` gives
/// `m = edge_factor · n` undirected edges (the paper and Graph 500 use 16).
///
/// # Examples
///
/// ```
/// use sssp_graph::rmat::{RmatGenerator, RmatParams};
/// use sssp_graph::CsrBuilder;
///
/// let gen = RmatGenerator::new(RmatParams::RMAT1, 10, 16).seed(42);
/// let el = gen.generate_weighted(255);
/// assert_eq!(el.n, 1 << 10);
/// assert_eq!(el.len(), 16 << 10);
///
/// let csr = CsrBuilder::new().build(&el);
/// // Scale-free: the heaviest vertex carries far more than the mean degree.
/// assert!(csr.max_degree() > 10 * 32);
/// ```
#[derive(Debug, Clone)]
pub struct RmatGenerator {
    /// Quadrant probabilities.
    pub params: RmatParams,
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges generated per vertex.
    pub edge_factor: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Scramble vertex ids (Graph 500 does this so that vertex id gives no
    /// hint about degree). Keeps block partitions balanced in expectation.
    pub permute: bool,
}

impl RmatGenerator {
    /// Generator for `2^scale` vertices and `edge_factor × 2^scale` edges.
    pub fn new(params: RmatParams, scale: u32, edge_factor: usize) -> Self {
        params.validate().expect("invalid R-MAT parameters");
        assert!(scale < 32, "this reproduction caps at 2^31 vertices");
        RmatGenerator {
            params,
            scale,
            edge_factor,
            seed: 0x5353_5350,
            permute: true,
        }
    }

    /// Set the PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Toggle the random vertex-id permutation (Graph 500 requires it).
    pub fn permute(mut self, yes: bool) -> Self {
        self.permute = yes;
        self
    }

    /// Number of vertices (`2^scale`).
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of generated edges before dedup/self-loop removal.
    pub fn num_edges(&self) -> usize {
        self.edge_factor << self.scale
    }

    /// Generate one endpoint pair for edge `index`.
    fn edge(&self, q: &Quadrants, index: u64) -> EdgeTuple {
        let mut rng = SplitMix::derive(self.seed, index);
        let mut u: u64 = 0;
        let mut v: u64 = 0;
        for _ in 0..self.scale {
            // Quadrants A (0, 0), B (0, 1), C (1, 0), D (1, 1): the row bit
            // is set from C on, the column bit in B and D.
            let k = rng.next_u64() >> 11;
            let (past_a, past_ab, past_abc) = (k >= q.a, k >= q.ab, k >= q.abc);
            u = (u << 1) | u64::from(past_ab);
            v = (v << 1) | u64::from(past_a ^ past_ab ^ past_abc);
        }
        if self.permute {
            u = scramble(u, self.scale, self.seed);
            v = scramble(v, self.scale, self.seed);
        }
        EdgeTuple {
            u: u as VertexId,
            v: v as VertexId,
        }
    }

    /// Generate the full (unweighted) edge tuple list, in parallel.
    pub fn generate_tuples(&self) -> Vec<EdgeTuple> {
        let q = Quadrants::new(&self.params);
        let mut tuples = vec![EdgeTuple { u: 0, v: 0 }; self.num_edges()];
        par_for_each_indexed(&mut tuples, |i, t| *t = self.edge(&q, i));
        tuples
    }

    /// Generate the edge list with uniform weights in `[1, w_max]`
    /// (the Graph 500 SSSP proposal's weight distribution; see
    /// [`crate::weights`]), in parallel. Edge `i`'s endpoints come from the
    /// `(seed, i)` stream and its weight from an independent one, so the
    /// endpoints equal [`Self::generate_tuples`]' and the list is the same
    /// for every worker count.
    pub fn generate_weighted(&self, w_max: u32) -> EdgeList {
        assert!(w_max >= 1, "w_max must be at least 1");
        let q = Quadrants::new(&self.params);
        let weight_seed = self.seed ^ WEIGHT_STREAM_TAG;
        let mut edges = vec![Edge::new(0, 0, 0); self.num_edges()];
        par_for_each_indexed(&mut edges, |i, e| {
            let EdgeTuple { u, v } = self.edge(&q, i);
            *e = Edge::new(u, v, uniform_weight(weight_seed, i, w_max));
        });
        EdgeList {
            n: self.num_vertices(),
            edges,
        }
    }
}

/// The quadrant boundaries `a`, `a + b`, `a + b + c` as thresholds on the
/// raw 53-bit draw `k` behind [`SplitMix::next_f64`]. That draw is
/// `r = k·2⁻⁵³` exactly, and scaling by a power of two is exact too, so
/// `r < p` holds exactly when `k < ⌈p·2⁵³⌉`: the integer compares pick the
/// same quadrant as comparing `r` with the f64 boundaries.
struct Quadrants {
    a: u64,
    ab: u64,
    abc: u64,
}

impl Quadrants {
    fn new(params: &RmatParams) -> Self {
        let scaled = |p: f64| (p * (1u64 << 53) as f64).ceil() as u64;
        let ab = params.a + params.b;
        Quadrants {
            a: scaled(params.a),
            ab: scaled(ab),
            abc: scaled(ab + params.c),
        }
    }
}

/// Distinct stream tag so edge weights are independent of endpoint draws.
const WEIGHT_STREAM_TAG: u64 = 0x5745_4947_4854_5331;

/// Feistel-style permutation of `scale`-bit vertex ids: invertible, seedable,
/// cheap. Mixing the halves twice is enough to destroy the R-MAT locality
/// (high-degree vertices clustering at low ids).
fn scramble(x: u64, scale: u32, seed: u64) -> u64 {
    if scale <= 1 {
        return x;
    }
    let half = scale / 2;
    let low_mask = (1u64 << half) - 1;
    let high_bits = scale - half;
    let high_mask = (1u64 << high_bits) - 1;
    let mut lo = x & low_mask;
    let mut hi = (x >> half) & high_mask;
    for round in 0..3u64 {
        hi ^= crate::prng::splitmix64(lo ^ seed ^ round) & high_mask;
        lo ^= crate::prng::splitmix64(hi ^ seed ^ (round | 0x100)) & low_mask;
    }
    (hi << half) | lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        RmatParams::RMAT1.validate().unwrap();
        RmatParams::RMAT2.validate().unwrap();
        RmatParams::UNIFORM.validate().unwrap();
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = RmatParams {
            a: 0.9,
            b: 0.9,
            c: 0.1,
            d: 0.1,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let g = RmatGenerator::new(RmatParams::RMAT1, 8, 16).seed(7);
        let e1 = g.generate_tuples();
        let e2 = g.generate_tuples();
        assert_eq!(e1, e2);
    }

    #[test]
    fn different_seeds_differ() {
        let a = RmatGenerator::new(RmatParams::RMAT1, 8, 16)
            .seed(1)
            .generate_tuples();
        let b = RmatGenerator::new(RmatParams::RMAT1, 8, 16)
            .seed(2)
            .generate_tuples();
        assert_ne!(a, b);
    }

    #[test]
    fn endpoints_in_range() {
        let g = RmatGenerator::new(RmatParams::RMAT2, 9, 8);
        let n = g.num_vertices() as VertexId;
        for t in g.generate_tuples() {
            assert!(t.u < n && t.v < n);
        }
    }

    #[test]
    fn edge_count_matches_spec() {
        let g = RmatGenerator::new(RmatParams::RMAT1, 7, 16);
        assert_eq!(g.generate_tuples().len(), 16 << 7);
    }

    #[test]
    fn rmat1_is_more_skewed_than_rmat2() {
        // The driving observation of §III-E / Fig 8: RMAT-1's max degree far
        // exceeds RMAT-2's at equal scale.
        let scale = 12;
        let max_deg = |params| {
            let gen = RmatGenerator::new(params, scale, 16).seed(3);
            let el = gen.generate_weighted(255);
            crate::CsrBuilder::new().build(&el).max_degree()
        };
        let d1 = max_deg(RmatParams::RMAT1);
        let d2 = max_deg(RmatParams::RMAT2);
        assert!(d1 > 2 * d2, "RMAT-1 max degree {d1} not ≫ RMAT-2 {d2}");
    }

    #[test]
    fn scramble_is_a_permutation() {
        let scale = 10;
        let n = 1u64 << scale;
        let mut seen = vec![false; n as usize];
        for x in 0..n {
            let y = scramble(x, scale, 99);
            assert!(y < n, "scrambled id out of range");
            assert!(!seen[y as usize], "collision in scramble");
            seen[y as usize] = true;
        }
    }

    #[test]
    fn permutation_spreads_hubs() {
        // With permutation on, the heaviest vertex should not always be id 0.
        let gen = RmatGenerator::new(RmatParams::RMAT1, 10, 16).seed(11);
        let el = gen.generate_weighted(255);
        let g = crate::CsrBuilder::new().build(&el);
        let argmax = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
        // Probabilistic but overwhelmingly likely with scrambling.
        assert_ne!(argmax, 0);
    }
}
