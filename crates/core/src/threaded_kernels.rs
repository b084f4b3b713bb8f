//! Kernels on the real-thread backend ([`sssp_comm::threaded`]).
//!
//! These run the same bulk-synchronous programs as the simulated engine,
//! but with one OS thread per rank and messages moving through the rank
//! runtime's mailbox — no other shared state. The test suite asserts they produce results identical
//! to the simulated kernels, which is the evidence that the simulator's
//! semantics (source-ordered delivery, superstep barriers, collectives)
//! faithfully model a real distributed execution.
//!
//! Two kernels are ported: Bellman-Ford SSSP (the message pattern of the
//! engine's hybrid tail) and min-label connected components. The full
//! Δ-stepping algorithm on this backend lives in
//! [`crate::engine::threaded`]; like it, both kernels coalesce each
//! outbox lane (min per target) before the exchange — the messages are
//! min-reductions, so dropping dominated duplicates cannot change any
//! result.

use std::sync::Arc;

use sssp_comm::exchange::coalesce_lane_min;
use sssp_comm::threaded::{run_threaded, RankCtx};
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::state::INF;

/// Distributed Bellman-Ford on OS threads. Returns the distance array
/// (global vertex order).
pub fn threaded_bellman_ford(dg: &Arc<DistGraph>, root: VertexId) -> Vec<u64> {
    let p = dg.num_ranks();
    assert!((root as usize) < dg.num_vertices());
    let dg_outer = Arc::clone(dg);
    let dgc = Arc::clone(dg);

    let per_rank: Vec<Vec<u64>> = run_threaded(p, move |mut ctx: RankCtx<(u32, u64)>| {
        let dg = &dgc;
        let r = ctx.rank();
        let lg = &dg.locals[r];
        let mut dist = vec![INF; lg.num_local()];
        let mut active: Vec<u32> = Vec::new();
        if dg.part.owner(root) == r {
            dist[dg.part.to_local(root)] = 0;
            active.push(dg.part.to_local(root) as u32);
        }
        // Superstep scratch, hoisted so capacity survives across rounds
        // (mirrors the simulated engine's pooled buffers).
        let mut out: Vec<Vec<(u32, u64)>> = (0..ctx.num_ranks()).map(|_| Vec::new()).collect();
        let mut inbox: Vec<(u32, u64)> = Vec::new();
        let mut changed: Vec<u32> = Vec::new();
        let mut seen = vec![false; dist.len()];
        loop {
            if !ctx.any(!active.is_empty()) {
                break;
            }
            for &u in &active {
                let du = dist[u as usize];
                let (ts, ws) = lg.row(u as usize);
                for i in 0..ts.len() {
                    out[dg.part.owner(ts[i])]
                        .push((dg.part.to_local(ts[i]) as u32, du + ws[i] as u64));
                }
            }
            for lane in out.iter_mut() {
                coalesce_lane_min(lane, |m| m.0, |m| m.1);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            for &(t, nd) in &inbox {
                let ti = t as usize;
                if nd < dist[ti] {
                    dist[ti] = nd;
                    if !seen[ti] {
                        seen[ti] = true;
                        changed.push(t);
                    }
                }
            }
            // Reset only the flags set this round, then promote the changed
            // set to the next frontier (the swap keeps both capacities).
            for &t in &changed {
                seen[t as usize] = false;
            }
            std::mem::swap(&mut active, &mut changed);
            changed.clear();
        }
        dist
    });

    let mut global = vec![INF; dg_outer.num_vertices()];
    for (r, d) in per_rank.iter().enumerate() {
        for (l, &x) in d.iter().enumerate() {
            global[dg_outer.part.to_global(r, l) as usize] = x;
        }
    }
    global
}

/// Distributed min-label connected components on OS threads. Returns the
/// label array (global vertex order).
pub fn threaded_cc(dg: &Arc<DistGraph>) -> Vec<VertexId> {
    let p = dg.num_ranks();
    let dg_outer = Arc::clone(dg);
    let dgc = Arc::clone(dg);

    let per_rank: Vec<Vec<VertexId>> = run_threaded(p, move |mut ctx: RankCtx<(u32, u32)>| {
        let dg = &dgc;
        let r = ctx.rank();
        let lg = &dg.locals[r];
        let mut labels: Vec<VertexId> = (0..lg.num_local())
            .map(|l| dg.part.to_global(r, l))
            .collect();
        let mut active: Vec<u32> = (0..lg.num_local() as u32).collect();
        let mut out: Vec<Vec<(u32, u32)>> = (0..ctx.num_ranks()).map(|_| Vec::new()).collect();
        let mut inbox: Vec<(u32, u32)> = Vec::new();
        let mut changed: Vec<u32> = Vec::new();
        let mut seen = vec![false; labels.len()];
        loop {
            if !ctx.any(!active.is_empty()) {
                break;
            }
            for &v in &active {
                let (ts, _) = lg.row(v as usize);
                for &t in ts {
                    out[dg.part.owner(t)].push((dg.part.to_local(t) as u32, labels[v as usize]));
                }
            }
            for lane in out.iter_mut() {
                coalesce_lane_min(lane, |m| m.0, |m| m.1);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            for &(t, label) in &inbox {
                let ti = t as usize;
                if label < labels[ti] {
                    labels[ti] = label;
                    if !seen[ti] {
                        seen[ti] = true;
                        changed.push(t);
                    }
                }
            }
            for &t in &changed {
                seen[t as usize] = false;
            }
            std::mem::swap(&mut active, &mut changed);
            changed.clear();
        }
        labels
    });

    let mut global = vec![0 as VertexId; dg_outer.num_vertices()];
    for (r, lab) in per_rank.iter().enumerate() {
        for (l, &x) in lab.iter().enumerate() {
            global[dg_outer.part.to_global(r, l) as usize] = x;
        }
    }
    global
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_comm::cost::MachineModel;
    use sssp_graph::{gen, CsrBuilder};

    #[test]
    fn threaded_bf_matches_sequential_dijkstra() {
        for seed in 0..4 {
            let g = CsrBuilder::new().build(&gen::uniform(120, 700, 30, seed));
            let expect = crate::seq::dijkstra(&g, 0);
            for p in [1usize, 3, 6] {
                let dg = Arc::new(DistGraph::build(&g, p, 1));
                let got = threaded_bellman_ford(&dg, 0);
                assert_eq!(got, expect, "seed {seed} p {p}");
            }
        }
    }

    #[test]
    fn threaded_bf_matches_simulated_engine() {
        let g = CsrBuilder::new().build(&gen::uniform(200, 1200, 40, 9));
        let dg = Arc::new(DistGraph::build(&g, 5, 2));
        let simulated = crate::engine::run_sssp(
            &dg,
            0,
            &crate::SsspConfig::bellman_ford(),
            &MachineModel::bgq_like(),
        );
        let threaded = threaded_bellman_ford(&dg, 0);
        assert_eq!(threaded, simulated.distances);
    }

    #[test]
    fn threaded_cc_matches_simulated_cc() {
        let g = CsrBuilder::new().build(&gen::uniform(150, 200, 10, 3));
        let dg = Arc::new(DistGraph::build(&g, 4, 2));
        let simulated = crate::cc::run_cc(&dg, &MachineModel::bgq_like());
        let threaded = threaded_cc(&dg);
        assert_eq!(threaded, simulated.labels);
    }

    #[test]
    fn threaded_runs_are_deterministic() {
        // True concurrency must not leak into results: repeat runs agree.
        let g = CsrBuilder::new().build(&gen::uniform(180, 900, 25, 5));
        let dg = Arc::new(DistGraph::build(&g, 6, 1));
        let a = threaded_bellman_ford(&dg, 3);
        for _ in 0..3 {
            assert_eq!(threaded_bellman_ford(&dg, 3), a);
        }
    }

    #[test]
    fn threaded_cc_on_disconnected_graph() {
        let mut el = gen::path(4, 1);
        el.n = 7;
        el.push(5, 6, 1);
        let g = CsrBuilder::new().build(&el);
        let dg = Arc::new(DistGraph::build(&g, 3, 1));
        let labels = threaded_cc(&dg);
        assert_eq!(labels, vec![0, 0, 0, 0, 4, 5, 5]);
    }
}
