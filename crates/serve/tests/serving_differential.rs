//! The serving differential: N queries of mixed kinds pushed through the
//! concurrent scheduler must agree **bit-identically** with fresh
//! one-shot engine runs, under all three stepping policies. This pins the
//! whole resident-state story — reused `RankState`, warmed pools, the
//! distance cache and its derived answers (a point-to-point distance read
//! from the target's field, a multi-seed field composed from single-source
//! ones), the point-to-point cutoff — to the engine's one-shot semantics.

use std::sync::Arc;

use proptest::prelude::*;

use sssp_comm::cost::MachineModel;
use sssp_core::bfs::run_bfs;
use sssp_core::{max_seed_offset, threaded_sssp_query, EngineScratch, SsspConfig};
use sssp_dist::DistGraph;
use sssp_graph::{gen, Csr, CsrBuilder, EdgeList, VertexId};
use sssp_serve::{QueryOutput, QueryResult, QuerySpec, ServeConfig, ServeStats, SsspServer};

fn arb_graph() -> impl Strategy<Value = Csr> {
    (3usize..50, 0usize..200, 1u32..50, 0u64..1000)
        .prop_map(|(n, m, w_max, seed)| CsrBuilder::new().build(&gen::uniform(n, m, w_max, seed)))
}

/// Two seeded random halves with no edge between them (and possibly
/// isolated vertices inside each), so every distance field holds unreached
/// `u64::MAX` entries. Weights reach `u32::MAX` in some cases, so seed
/// offsets at the headroom bound meet the largest distances.
fn arb_split_graph() -> impl Strategy<Value = Csr> {
    (4usize..30, 0usize..90, 0u32..50, 0u64..1000).prop_map(|(half, m, w, seed)| {
        let w_max = if w == 0 { u32::MAX } else { w };
        let mut el = EdgeList::new(2 * half);
        for (shift, part) in [(0, seed), (half, seed + 1)] {
            for e in gen::uniform(half, m, w_max, part).edges {
                el.push(e.u + shift as u32, e.v + shift as u32, e.w);
            }
        }
        CsrBuilder::new().build(&el)
    })
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

/// Submit-and-wait for a spec the test knows is valid.
fn served(server: &SsspServer, spec: QuerySpec) -> QueryResult {
    server.run(spec).expect("valid query must succeed")
}

/// `(own, target, composed, misses)` from one stats snapshot, after
/// checking that the three hit routes sum to `cache_hits`.
fn routes(stats: ServeStats) -> (u64, u64, u64, u64) {
    let split = stats.own_field_hits + stats.target_field_hits + stats.composed_hits;
    assert_eq!(split, stats.cache_hits, "hit routes must sum to cache_hits");
    (
        stats.own_field_hits,
        stats.target_field_hits,
        stats.composed_hits,
        stats.cache_misses,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    /// One worker, so every query sees the cache its predecessors left.
    /// Root `a` lies in the first half and `b` in the second, so each is
    /// unreachable from the other; `c` (first half) never has a resident
    /// field of its own.
    fn derived_answers_match_fresh_engine_runs(
        g in arb_split_graph(),
        p in 1usize..4,
        picks in prop::collection::vec(any::<prop::sample::Index>(), 3..4),
        offsets in prop::collection::vec(0u64..100, 2..3),
    ) {
        let n = g.num_vertices();
        let half = n / 2;
        let dg = Arc::new(DistGraph::build(&g, p, 2));
        let a = picks[0].index(half) as VertexId;
        let b = (half + picks[1].index(half)) as VertexId;
        let c = ((a as usize + 1 + picks[2].index(half - 1)) % half) as VertexId;
        let top = max_seed_offset(n);

        for cfg in policy_matrix() {
            let server = SsspServer::new(
                Arc::clone(&dg),
                cfg.clone(),
                MachineModel::bgq_like(),
                ServeConfig { max_inflight: 1, cache_capacity: 8, deadline: None },
            );
            let field_a = served(&server, QuerySpec::SingleSource { root: a });
            let field_b = served(&server, QuerySpec::SingleSource { root: b });
            prop_assert!(!field_a.cache_hit && !field_b.cache_hit);
            prop_assert_eq!(routes(server.stats()), (0, 0, 0, 2));

            // Point-to-point from the target's field: c has no field; a
            // and b have, and b is unreachable from c.
            let oracle_c = fresh(&dg, &[(c, 0)], &cfg);
            for target in [a, b] {
                let res = served(&server, QuerySpec::PointToPoint { root: c, target });
                prop_assert!(res.cache_hit);
                prop_assert_eq!(res.epochs, 0);
                prop_assert_eq!(res.output.target_distance(), Some(oracle_c[target as usize]));
            }
            prop_assert_eq!(oracle_c[b as usize], u64::MAX, "the halves are disconnected");
            // From the root's own field, and root = target.
            for (root, target) in [(b, a), (a, a)] {
                let res = served(&server, QuerySpec::PointToPoint { root, target });
                prop_assert!(res.cache_hit);
                let want = fresh(&dg, &[(root, 0)], &cfg)[target as usize];
                prop_assert_eq!(res.output.target_distance(), Some(want));
            }
            prop_assert_eq!(routes(server.stats()), (2, 2, 0, 2));

            // Composition: duplicate seeds, an offset of exactly the
            // headroom bound, and b unreachable from a.
            let multi = vec![(a, offsets[0]), (b, top), (a, offsets[1])];
            let composed = served(&server, QuerySpec::MultiSeed { seeds: multi.clone() });
            prop_assert!(composed.cache_hit);
            prop_assert_eq!(composed.epochs, 0);
            prop_assert_eq!(
                composed.output.distances().expect("field").as_ref(),
                &fresh(&dg, &multi, &cfg),
                "cfg {:?}", &cfg
            );
            // A lone seed at an offset composes from its own field.
            let lone = vec![(b, offsets[0] + 1)];
            let res = served(&server, QuerySpec::MultiSeed { seeds: lone.clone() });
            prop_assert!(res.cache_hit);
            prop_assert_eq!(res.output.distances().expect("field").as_ref(), &fresh(&dg, &lone, &cfg));
            prop_assert_eq!(routes(server.stats()), (2, 2, 2, 2));

            // c has no field: no composition, the engine runs.
            let partial = vec![(a, 0), (c, offsets[1])];
            let res = served(&server, QuerySpec::MultiSeed { seeds: partial.clone() });
            prop_assert!(!res.cache_hit);
            prop_assert_eq!(res.output.distances().expect("field").as_ref(), &fresh(&dg, &partial, &cfg));
            prop_assert_eq!(routes(server.stats()), (2, 2, 2, 3));
        }
    }

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
