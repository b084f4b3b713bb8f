//! Crash isolation under concurrency: panic probes detonated in the
//! middle of a mixed concurrent batch must fail **only their own
//! tickets**. Every real query in the batch must come back bit-identical
//! to a fresh one-shot engine run, the failure counters must account for
//! exactly the probes, and the server must stay fully serviceable
//! afterwards — the runtime half of the contract the static
//! panic-reachability pass (`sssp-lint --panics`) pins at lint time.

use std::sync::Arc;

use proptest::prelude::*;

use sssp_comm::cost::MachineModel;
use sssp_core::{threaded_delta_stepping, threaded_sssp_query, EngineScratch, SsspConfig};
use sssp_dist::DistGraph;
use sssp_graph::{gen, Csr, CsrBuilder};
use sssp_serve::{QueryError, QueryOutput, QuerySpec, ServeConfig, SsspServer};

fn arb_graph() -> impl Strategy<Value = Csr> {
    (3usize..40, 0usize..160, 1u32..50, 0u64..1000)
        .prop_map(|(n, m, w_max, seed)| CsrBuilder::new().build(&gen::uniform(n, m, w_max, seed)))
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// One slot of the interleaved batch: a real query or a chaos probe.
enum Slot {
    Query(QuerySpec),
    Probe,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn panicking_queries_fail_alone_in_a_concurrent_batch(
        g in arb_graph(),
        p in 1usize..4,
        picks in prop::collection::vec(any::<prop::sample::Index>(), 3usize..4),
        // Bitmask over the 6 batch slots; 1..=62 guarantees at least one
        // probe and at least one real query.
        probe_mask in 1usize..63,
    ) {
        let n = g.num_vertices();
        let dg = Arc::new(DistGraph::build(&g, p, 2));
        let model = MachineModel::bgq_like();
        let cfg = SsspConfig::opt(20);
        let roots: Vec<u32> = picks.iter().map(|ix| ix.index(n) as u32).collect();

        let server = SsspServer::new(
            Arc::clone(&dg),
            cfg.clone(),
            model,
            ServeConfig { max_inflight: 3, cache_capacity: 4, deadline: None },
        );

        // Interleave real queries with panic probes at arbitrary slots, all
        // in flight at once across 3 workers — probes detonate while real
        // queries run on sibling workers.
        let specs = vec![
            QuerySpec::SingleSource { root: roots[0] },
            QuerySpec::MultiSeed { seeds: vec![(roots[1], 3), (roots[2], 0)] },
            QuerySpec::SingleSource { root: roots[1] },
            QuerySpec::PointToPoint { root: roots[0], target: roots[2] },
            QuerySpec::SingleSource { root: roots[0] },
            QuerySpec::SingleSource { root: roots[2] },
        ];
        let batch: Vec<Slot> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                if (probe_mask >> i) & 1 == 1 {
                    Slot::Probe
                } else {
                    Slot::Query(spec)
                }
            })
            .collect();
        let tickets: Vec<_> = batch
            .iter()
            .map(|slot| match slot {
                Slot::Query(spec) => server.submit(spec.clone()).unwrap(),
                Slot::Probe => server.submit_panic_probe(),
            })
            .collect();
        let outcomes: Vec<_> = tickets.into_iter().map(|t| server.wait(t)).collect();

        let mut probes_seen = 0u64;
        for (slot, outcome) in batch.iter().zip(&outcomes) {
            match slot {
                Slot::Probe => {
                    probes_seen += 1;
                    prop_assert!(
                        matches!(outcome, Err(QueryError::Panicked(_))),
                        "probe must fail with Panicked, got {:?}",
                        outcome
                    );
                }
                Slot::Query(spec) => {
                    // Every real query succeeds, bit-identical to a fresh
                    // one-shot run — a sibling's panic never leaks.
                    let res = outcome.as_ref().expect("real query must succeed");
                    let seeds = match spec.clone() {
                        QuerySpec::SingleSource { root } => vec![(root, 0)],
                        QuerySpec::MultiSeed { seeds } => seeds,
                        QuerySpec::PointToPoint { root, .. } => vec![(root, 0)],
                        other => panic!("unexpected spec in batch: {other:?}"),
                    };
                    let mut fresh = EngineScratch::new(dg.num_ranks());
                    let oracle =
                        threaded_sssp_query(&dg, &seeds, None, &cfg, &model, &mut fresh).distances;
                    match (&res.output, spec.clone()) {
                        (QueryOutput::Distances(dist), _) => {
                            prop_assert_eq!(dist.as_ref(), &oracle);
                        }
                        (QueryOutput::TargetDistance(td), QuerySpec::PointToPoint { target, .. }) => {
                            prop_assert_eq!(*td, oracle[target as usize]);
                        }
                        other => prop_assert!(false, "unexpected output shape: {:?}", other),
                    }
                }
            }
        }

        // The counters account for exactly the probes, nothing timed out,
        // and the worker invariants survived the unwinding.
        let stats = server.stats();
        prop_assert_eq!((stats.panicked, stats.timed_out), (probes_seen, 0));
        let peak = stats.peak_inflight;
        prop_assert!(
            (1..=3).contains(&peak),
            "peak inflight {} out of bounds after panics",
            peak
        );

        // The server stays serviceable: a post-crash query on each root is
        // still bit-identical to the oracle (workers discarded any scratch
        // a panicking query abandoned).
        for &root in &roots {
            let res = server
                .run(QuerySpec::SingleSource { root })
                .expect("post-crash query must succeed");
            let oracle = threaded_delta_stepping(&dg, root, &cfg, &model).distances;
            match &res.output {
                QueryOutput::Distances(dist) => prop_assert_eq!(dist.as_ref(), &oracle),
                other => prop_assert!(false, "unexpected output shape: {:?}", other),
            }
        }
    }
}
