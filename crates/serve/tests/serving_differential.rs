//! The serving differential: N queries of mixed kinds pushed through the
//! concurrent scheduler must agree **bit-identically** with fresh
//! one-shot engine runs, under all three stepping policies. This pins the
//! whole resident-state story — reused `RankState`, warmed pools, the
//! distance cache, the point-to-point cutoff — to the engine's one-shot
//! semantics.

use std::sync::Arc;

use proptest::prelude::*;

use sssp_comm::cost::MachineModel;
use sssp_core::bfs::run_bfs;
use sssp_core::{threaded_sssp_query, EngineScratch, SsspConfig};
use sssp_dist::DistGraph;
use sssp_graph::{gen, Csr, CsrBuilder, VertexId};
use sssp_serve::{QueryOutput, QuerySpec, ServeConfig, SsspServer};

fn arb_graph() -> impl Strategy<Value = Csr> {
    (3usize..50, 0usize..200, 1u32..50, 0u64..1000)
        .prop_map(|(n, m, w_max, seed)| CsrBuilder::new().build(&gen::uniform(n, m, w_max, seed)))
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// One configuration per stepping policy (finite Δ with the hybrid tail,
/// ρ-stepping, radius-stepping).
fn policy_matrix() -> Vec<SsspConfig> {
    vec![
        SsspConfig::opt(20),
        SsspConfig::rho(64),
        SsspConfig::radius(64),
    ]
}

/// The fresh one-shot oracle for a seed set.
fn fresh(dg: &Arc<DistGraph>, seeds: &[(VertexId, u64)], cfg: &SsspConfig) -> Vec<u64> {
    let mut scratch = EngineScratch::new(dg.num_ranks());
    threaded_sssp_query(
        dg,
        seeds,
        None,
        cfg,
        &MachineModel::bgq_like(),
        &mut scratch,
    )
    .distances
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn concurrent_scheduler_matches_fresh_one_shot_runs(
        g in arb_graph(),
        p in 1usize..4,
        picks in prop::collection::vec(any::<prop::sample::Index>(), 4..5),
    ) {
        let n = g.num_vertices();
        let dg = Arc::new(DistGraph::build(&g, p, 2));
        let model = MachineModel::bgq_like();
        let a = picks[0].index(n) as u32;
        let b = picks[1].index(n) as u32;
        let c = picks[2].index(n) as u32;
        let d = picks[3].index(n) as u32;
        let multi = vec![(b, 5u64), (c, 0u64), (b, 9u64)];

        for cfg in policy_matrix() {
            let server = SsspServer::new(
                Arc::clone(&dg),
                cfg.clone(),
                model,
                ServeConfig { max_inflight: 3, cache_capacity: 8, deadline: None },
            );
            // Mixed kinds, all in flight at once. The repeated root `a`
            // may race its first run (cache miss) or follow it (cache
            // hit) — both must be bit-identical to the fresh oracle.
            let tickets = vec![
                server.submit(QuerySpec::SingleSource { root: a }).unwrap(),
                server.submit(QuerySpec::MultiSeed { seeds: multi.clone() }).unwrap(),
                server.submit(QuerySpec::PointToPoint { root: a, target: d }).unwrap(),
                server.submit(QuerySpec::SingleSource { root: a }).unwrap(),
                server.submit(QuerySpec::Bfs { root: c }).unwrap(),
            ];
            let results: Vec<_> = tickets
                .into_iter()
                .map(|t| server.wait(t).expect("valid query must succeed"))
                .collect();

            let oracle_a = fresh(&dg, &[(a, 0)], &cfg);
            let oracle_multi = fresh(&dg, &multi, &cfg);
            let oracle_bfs = run_bfs(&dg, c, &model).depth;

            for (i, res) in results.iter().enumerate() {
                match (i, &res.output) {
                    (0 | 3, QueryOutput::Distances(dist)) => {
                        prop_assert_eq!(dist.as_ref(), &oracle_a, "query {} cfg {:?}", i, &cfg);
                    }
                    (1, QueryOutput::Distances(dist)) => {
                        prop_assert_eq!(dist.as_ref(), &oracle_multi, "cfg {:?}", &cfg);
                    }
                    (2, QueryOutput::TargetDistance(td)) => {
                        prop_assert_eq!(*td, oracle_a[d as usize], "cfg {:?}", &cfg);
                    }
                    (4, QueryOutput::BfsDepths(depth)) => {
                        prop_assert_eq!(depth.as_ref(), &oracle_bfs);
                    }
                    other => prop_assert!(false, "unexpected output shape: {:?}", other),
                }
            }
        }
    }
}
