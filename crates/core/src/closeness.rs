//! Closeness centrality and graph Voronoi partitions — the remaining
//! network-analysis primitives the paper's introduction motivates, built on
//! the multi-source engine entry points.

use std::time::Instant;

use sssp_comm::cost::MachineModel;
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::config::SsspConfig;
use crate::engine::record::NoopRecorder;
use crate::engine::{run, run_sssp, Lockstep, Query};
use crate::state::INF;

/// Harmonic closeness of every vertex, estimated from SSSP runs out of
/// `sources` (exact when `sources` covers all vertices): for vertex `v`,
/// `C(v) = Σ_{s ∈ sources, s ≠ v, d(s,v) < ∞} 1 / d(s, v)`, scaled by
/// `n / |sources|`. Harmonic closeness handles disconnected graphs
/// gracefully (unreachable pairs contribute zero), which is why modern
/// network-analysis toolkits prefer it to classic closeness.
pub fn harmonic_closeness_sampled(
    dg: &DistGraph,
    sources: &[VertexId],
    cfg: &SsspConfig,
    model: &MachineModel,
) -> Vec<f64> {
    harmonic_closeness_until(dg, sources, cfg, model, None).0
}

/// [`harmonic_closeness_sampled`] under a wall-clock deadline: every
/// per-source run carries it ([`Query::deadline`]), and the estimate stops
/// at the first run that misses it. Returns the scores and whether a run
/// timed out — a timed-out estimate is partial and must not be served.
pub fn harmonic_closeness_until(
    dg: &DistGraph,
    sources: &[VertexId],
    cfg: &SsspConfig,
    model: &MachineModel,
    deadline: Option<Instant>,
) -> (Vec<f64>, bool) {
    assert!(!sources.is_empty(), "need at least one source");
    let n = dg.num_vertices();
    let scale = n as f64 / sources.len() as f64;
    let mut closeness = vec![0.0f64; n];
    for &s in sources {
        let query = Query::root(s).with_deadline(deadline);
        let (out, _) = run(dg, &query, cfg, model, Lockstep, NoopRecorder);
        if out.timed_out {
            return (closeness, true);
        }
        for (c, &d) in closeness.iter_mut().zip(&out.distances) {
            if d != INF && d > 0 {
                *c += scale / d as f64;
            }
        }
    }
    (closeness, false)
}

/// Graph Voronoi partition: assign every vertex to its nearest site (ties
/// broken toward the smaller distance the engine settles first — i.e.
/// deterministically). Returns `(site_index_per_vertex, distance_to_site)`;
/// unreachable vertices get `usize::MAX` / `u64::MAX`.
///
/// Implemented as one multi-source run (distance field) plus one run per
/// site (membership test via distance equality is ambiguous, so membership
/// is resolved by checking which site attains the field distance, in site
/// order).
pub fn voronoi(
    dg: &DistGraph,
    sites: &[VertexId],
    cfg: &SsspConfig,
    model: &MachineModel,
) -> (Vec<usize>, Vec<u64>) {
    assert!(!sites.is_empty(), "need at least one site");
    let n = dg.num_vertices();
    let (field, _) = run(
        dg,
        &Query::sources(sites),
        cfg,
        model,
        Lockstep,
        NoopRecorder,
    );
    let mut owner = vec![usize::MAX; n];
    for (i, &s) in sites.iter().enumerate() {
        let out = run_sssp(dg, s, cfg, model);
        for (v, o) in owner.iter_mut().enumerate() {
            if *o == usize::MAX
                && field.distances[v] != INF
                && out.distances[v] == field.distances[v]
            {
                *o = i;
            }
        }
    }
    (owner, field.distances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::{gen, CsrBuilder};

    fn setup(n: usize, w: u32) -> DistGraph {
        let csr = CsrBuilder::new().build(&gen::path(n, w));
        DistGraph::build(&csr, 3, 2)
    }

    #[test]
    fn harmonic_closeness_on_path() {
        let dg = setup(5, 1);
        let sources: Vec<u32> = (0..5).collect();
        let c = harmonic_closeness_sampled(
            &dg,
            &sources,
            &SsspConfig::opt(25),
            &MachineModel::bgq_like(),
        );
        // Middle vertex: 1/2 + 1/1 + 1/1 + 1/2 = 3.0; endpoints:
        // 1 + 1/2 + 1/3 + 1/4 ≈ 2.083.
        assert!((c[2] - 3.0).abs() < 1e-9, "c[2] = {}", c[2]);
        assert!(c[2] > c[1] && c[1] > c[0]);
        assert!((c[0] - c[4]).abs() < 1e-9);
    }

    #[test]
    fn closeness_ignores_unreachable_pairs() {
        let mut el = gen::path(3, 1);
        el.n = 5; // vertices 3, 4 isolated
        let csr = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&csr, 2, 1);
        let sources: Vec<u32> = (0..5).collect();
        let c = harmonic_closeness_sampled(
            &dg,
            &sources,
            &SsspConfig::opt(25),
            &MachineModel::bgq_like(),
        );
        assert_eq!(c[3], 0.0);
        assert_eq!(c[4], 0.0);
        assert!(c[1] > 0.0);
    }

    #[test]
    fn voronoi_splits_a_path_between_endpoints() {
        let dg = setup(10, 1);
        let (owner, dist) = voronoi(
            &dg,
            &[0, 9],
            &SsspConfig::opt(25),
            &MachineModel::bgq_like(),
        );
        // Vertices 0..=4 are nearer to site 0 (vertex 4 ties 4-5 and goes
        // to the first site in order); 5..=9 to site 1.
        for (v, &o) in owner.iter().enumerate().take(5) {
            assert_eq!(o, 0, "v{v}");
        }
        for (v, &o) in owner.iter().enumerate().skip(6) {
            assert_eq!(o, 1, "v{v}");
        }
        assert_eq!(dist[0], 0);
        assert_eq!(dist[9], 0);
        assert_eq!(dist[4], 4);
    }

    #[test]
    fn voronoi_marks_unreachable() {
        let mut el = gen::path(3, 1);
        el.n = 4;
        let csr = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&csr, 2, 1);
        let (owner, dist) = voronoi(&dg, &[0], &SsspConfig::opt(25), &MachineModel::bgq_like());
        assert_eq!(owner[3], usize::MAX);
        assert_eq!(dist[3], u64::MAX);
        assert_eq!(owner[2], 0);
    }
}
