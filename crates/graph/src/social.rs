//! Chung–Lu power-law generator: synthetic stand-ins for the SNAP social
//! graphs of §IV-H (Friendster, Orkut, LiveJournal).
//!
//! The paper's real-graph study only exercises degree skew and community-like
//! density, so a Chung–Lu graph with a matched (n, m, power-law exponent)
//! degree profile drives the identical code paths: hub vertices trigger the
//! pull model and the load balancers exactly as the real graphs do. The
//! presets are scaled-down versions (default 1/64) of the published sizes,
//! keeping the average degree of the original.

use crate::prng::{par_for_each_indexed, SplitMix};
use crate::{Edge, EdgeList, VertexId};

/// Chung–Lu configuration: vertices draw expected degrees from a truncated
/// power law `P(deg ≥ x) ∝ x^{1−γ}`, and each edge picks both endpoints with
/// probability proportional to expected degree.
#[derive(Debug, Clone)]
pub struct ChungLu {
    /// Number of vertices.
    pub n: usize,
    /// Target number of edges.
    pub m: usize,
    /// Power-law exponent γ (2 < γ ≤ 3 for social networks).
    pub gamma: f64,
    /// Expected-degree cap, as a fraction of n.
    pub max_degree_frac: f64,
    /// Maximum edge weight.
    pub w_max: u32,
    /// PRNG seed.
    pub seed: u64,
}

impl ChungLu {
    /// Chung–Lu generator with power-law exponent `gamma`.
    pub fn new(n: usize, m: usize, gamma: f64) -> Self {
        assert!(n > 1 && m > 0 && gamma > 1.0);
        ChungLu {
            n,
            m,
            gamma,
            max_degree_frac: 0.1,
            w_max: 255,
            seed: 0x0050_C1A1,
        }
    }

    /// Set the PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the maximum edge weight.
    pub fn w_max(mut self, w_max: u32) -> Self {
        self.w_max = w_max;
        self
    }

    /// Generate the edge list. Endpoint sampling uses the inverse-CDF of the
    /// expected-degree sequence, so generation is counter-based and parallel.
    pub fn generate(&self) -> EdgeList {
        // Expected degree of vertex i (i = 0 is the biggest hub):
        // w_i = c · (i + i0)^{-1/(γ-1)}, truncated at max_degree_frac·n.
        let alpha = 1.0 / (self.gamma - 1.0);
        let cap = (self.n as f64 * self.max_degree_frac).max(2.0);
        let target_avg = 2.0 * self.m as f64 / self.n as f64;
        // Normalize so the mean expected degree matches 2m/n.
        let raw: Vec<f64> = (0..self.n).map(|i| ((i + 1) as f64).powf(-alpha)).collect();
        let raw_mean = raw.iter().sum::<f64>() / self.n as f64;
        let scale = target_avg / raw_mean;
        let degs: Vec<f64> = raw.iter().map(|&r| (r * scale).min(cap)).collect();

        // Cumulative distribution for endpoint sampling.
        let mut cum = Vec::with_capacity(self.n + 1);
        let mut acc = 0.0;
        cum.push(0.0);
        for &d in &degs {
            acc += d;
            cum.push(acc);
        }
        let total = acc;

        let sample = |r: f64| -> VertexId {
            let x = r * total;
            // partition_point gives the first index with cum > x.
            let idx = cum.partition_point(|&c| c <= x);
            (idx.saturating_sub(1)).min(self.n - 1) as VertexId
        };

        let w_max = u64::from(self.w_max.max(1));
        let mut edges = vec![Edge::new(0, 0, 0); self.m];
        par_for_each_indexed(&mut edges, |i, e| {
            let mut rng = SplitMix::derive(self.seed, i);
            let u = sample(rng.next_f64());
            let v = sample(rng.next_f64());
            *e = Edge::new(u, v, 1 + rng.next_below(w_max) as u32);
        });
        EdgeList { n: self.n, edges }
    }
}

/// Published sizes of the §IV-H graphs, divided by `shrink` (vertex and edge
/// counts both). `shrink = 1` gives the full published size.
pub fn social_preset(name: &str, shrink: usize) -> Option<ChungLu> {
    let shrink = shrink.max(1);
    let (n, m, gamma) = match name.to_ascii_lowercase().as_str() {
        // 63M vertices, 1.8B edges.
        "friendster" => (63_000_000usize, 1_800_000_000usize, 2.4),
        // 3M vertices, 117M edges.
        "orkut" => (3_000_000, 117_000_000, 2.3),
        // 4.8M vertices, 68M edges.
        "livejournal" => (4_800_000, 68_000_000, 2.5),
        _ => return None,
    };
    Some(ChungLu::new(
        (n / shrink).max(16),
        (m / shrink).max(16),
        gamma,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBuilder;

    #[test]
    fn generate_is_deterministic() {
        let a = ChungLu::new(1000, 8000, 2.3).seed(4).generate();
        let b = ChungLu::new(1000, 8000, 2.3).seed(4).generate();
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn endpoints_in_range() {
        let el = ChungLu::new(500, 4000, 2.5).generate();
        for e in &el.edges {
            assert!((e.u as usize) < 500 && (e.v as usize) < 500);
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let el = ChungLu::new(4000, 64_000, 2.2).seed(9).generate();
        let g = CsrBuilder::new().build(&el);
        let avg = g.num_directed_edges() as f64 / g.num_vertices() as f64;
        let max = g.max_degree() as f64;
        assert!(max > 8.0 * avg, "max degree {max} not ≫ avg {avg}");
    }

    #[test]
    fn presets_exist_and_scale() {
        for name in ["friendster", "orkut", "livejournal"] {
            let p = social_preset(name, 1024).unwrap();
            assert!(p.n >= 16 && p.m >= 16);
        }
        assert!(social_preset("twitter", 1).is_none());
    }

    #[test]
    fn average_degree_roughly_preserved() {
        let p = ChungLu::new(2000, 32_000, 2.3).seed(6);
        let el = p.generate();
        let g = CsrBuilder::new().build(&el);
        // Self loops are dropped so the count can shrink slightly.
        let m = g.num_undirected_edges() as f64;
        assert!(m > 0.9 * 32_000.0, "too many dropped edges: {m}");
    }
}
