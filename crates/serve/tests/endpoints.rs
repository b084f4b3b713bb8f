//! Endpoint semantics of the serving layer: the landmark cache (hit
//! behavior, rebuild invalidation, point-to-point answered from a cached
//! field), the point-to-point epoch savings surfaced through
//! [`sssp_serve::QueryResult::epochs`], the analytics endpoints'
//! agreement with their underlying kernels, and every kind's deadline.

use std::sync::Arc;
use std::time::Duration;

use sssp_comm::cost::MachineModel;
use sssp_core::bfs::run_bfs;
use sssp_core::cc::run_cc;
use sssp_core::closeness::harmonic_closeness_sampled;
use sssp_core::pagerank::{run_pagerank, PageRankConfig};
use sssp_core::{threaded_delta_stepping, SsspConfig};
use sssp_dist::DistGraph;
use sssp_graph::{gen, Csr, CsrBuilder};
use sssp_serve::{QueryError, QueryOutput, QuerySpec, ServeConfig, SsspServer};

fn model() -> MachineModel {
    MachineModel::bgq_like()
}

/// A weighted path with random shortcut noise — enough structure that a
/// full run takes many epochs while a near target settles immediately.
fn noisy_path(n: usize, w: u32, noise: usize, seed: u64) -> Csr {
    let mut el = gen::path(n, w);
    for e in gen::uniform(n, noise, 30, seed).edges {
        el.push(e.u, e.v, e.w);
    }
    CsrBuilder::new().build(&el)
}

fn one_worker(dg: &Arc<DistGraph>, cfg: SsspConfig) -> SsspServer {
    SsspServer::new(
        Arc::clone(dg),
        cfg,
        model(),
        ServeConfig {
            max_inflight: 1,
            cache_capacity: 8,
            deadline: None,
        },
    )
}

/// Submit-and-wait for specs the test knows are valid.
fn run_ok(server: &SsspServer, spec: QuerySpec) -> sssp_serve::QueryResult {
    server.run(spec).expect("valid query must succeed")
}

#[test]
fn repeat_root_hits_the_cache_with_identical_distances() {
    let g = noisy_path(300, 7, 600, 11);
    let dg = Arc::new(DistGraph::build(&g, 2, 2));
    let server = one_worker(&dg, SsspConfig::opt(20));

    // One worker serializes the queue, so the second query observes the
    // first one's cache insert deterministically.
    let first = run_ok(&server, QuerySpec::SingleSource { root: 0 });
    let second = run_ok(&server, QuerySpec::SingleSource { root: 0 });
    assert!(!first.cache_hit);
    assert!(second.cache_hit);
    assert_eq!(second.epochs, 0, "a cache hit runs no epochs");
    let d1 = first.output.distances().expect("distances").clone();
    let d2 = second.output.distances().expect("distances").clone();
    assert_eq!(d1, d2);
    assert!(Arc::ptr_eq(&d1, &d2), "hits share the cached allocation");

    // Landmark pattern: a point-to-point query whose root has a cached
    // full field is answered from it without running the engine.
    let p2p = run_ok(
        &server,
        QuerySpec::PointToPoint {
            root: 0,
            target: 299,
        },
    );
    assert!(p2p.cache_hit);
    assert_eq!(p2p.output.target_distance(), Some(d1[299]));

    let (hits, misses) = server.cache_stats();
    assert_eq!((hits, misses), (2, 1));
}

#[test]
fn multi_seed_canonicalization_shares_one_cache_entry() {
    let g = noisy_path(120, 5, 200, 3);
    let dg = Arc::new(DistGraph::build(&g, 2, 2));
    let server = one_worker(&dg, SsspConfig::opt(20));

    // Same seed set spelled three ways: duplicates keep the minimum
    // distance, order is irrelevant.
    let a = run_ok(
        &server,
        QuerySpec::MultiSeed {
            seeds: vec![(7, 4), (30, 0), (7, 9)],
        },
    );
    let b = run_ok(
        &server,
        QuerySpec::MultiSeed {
            seeds: vec![(30, 0), (7, 4)],
        },
    );
    assert!(!a.cache_hit);
    assert!(b.cache_hit, "canonicalized seed sets must share the entry");
    assert_eq!(
        a.output.distances().expect("distances"),
        b.output.distances().expect("distances")
    );
}

#[test]
fn rebuild_invalidates_the_cache_and_serves_the_new_graph() {
    let light = CsrBuilder::new().build(&gen::path(50, 3));
    let heavy = CsrBuilder::new().build(&gen::path(50, 5));
    let dg_light = Arc::new(DistGraph::build(&light, 2, 2));
    let dg_heavy = Arc::new(DistGraph::build(&heavy, 2, 2));
    let server = one_worker(&dg_light, SsspConfig::opt(20));

    let before = run_ok(&server, QuerySpec::SingleSource { root: 0 });
    assert_eq!(before.generation, 0);
    assert_eq!(before.output.distances().expect("distances")[49], 49 * 3);

    server.rebuild(Arc::clone(&dg_heavy));
    assert_eq!(server.generation(), 1);

    let after = run_ok(&server, QuerySpec::SingleSource { root: 0 });
    assert!(!after.cache_hit, "rebuild must clear the cache");
    assert_eq!(after.generation, 1);
    assert_eq!(after.output.distances().expect("distances")[49], 49 * 5);
}

#[test]
fn point_to_point_saves_epochs_and_reports_the_exact_distance() {
    let g = noisy_path(400, 9, 1200, 5);
    let dg = Arc::new(DistGraph::build(&g, 3, 2));
    // Non-hybrid finite Δ: the τ-tail would finish a small graph in a
    // couple of epochs and leave the cutoff nothing to save.
    let server = one_worker(&dg, SsspConfig::del(10));

    let full = run_ok(&server, QuerySpec::SingleSource { root: 0 });
    let near = run_ok(&server, QuerySpec::PointToPoint { root: 0, target: 2 });
    // The full field for root 0 is cached, so force the engine to run the
    // p2p query by using a root with no cached entry.
    assert!(near.cache_hit, "cached landmark answers the near target");
    let fresh_near = run_ok(&server, QuerySpec::PointToPoint { root: 1, target: 2 });
    assert!(!fresh_near.cache_hit);

    let oracle = threaded_delta_stepping(&dg, 1, &SsspConfig::del(10), &model());
    assert_eq!(
        fresh_near.output.target_distance(),
        Some(oracle.distances[2])
    );
    assert!(
        fresh_near.epochs < full.epochs,
        "p2p cutoff saved no epochs ({} vs {})",
        fresh_near.epochs,
        full.epochs
    );
}

#[test]
fn analytics_endpoints_match_their_kernels() {
    let g = noisy_path(80, 4, 160, 9);
    let dg = Arc::new(DistGraph::build(&g, 2, 2));
    let cfg = SsspConfig::opt(20);
    let server = one_worker(&dg, cfg.clone());

    let bfs = run_ok(&server, QuerySpec::Bfs { root: 3 });
    match bfs.output {
        QueryOutput::BfsDepths(depth) => {
            assert_eq!(depth.as_ref(), &run_bfs(&dg, 3, &model()).depth);
        }
        other => panic!("expected BFS depths, got {other:?}"),
    }

    let cc = run_ok(&server, QuerySpec::Components);
    match cc.output {
        QueryOutput::ComponentLabels(labels) => {
            assert_eq!(labels.as_ref(), &run_cc(&dg, &model()).labels);
        }
        other => panic!("expected component labels, got {other:?}"),
    }

    let pr_cfg = PageRankConfig::default();
    let pr = run_ok(&server, QuerySpec::PageRank { config: pr_cfg });
    match pr.output {
        QueryOutput::PageRankScores(scores) => {
            assert_eq!(
                scores.as_ref(),
                &run_pagerank(&dg, &pr_cfg, &model()).scores
            );
        }
        other => panic!("expected PageRank scores, got {other:?}"),
    }

    let sources = vec![0, 17, 42];
    let cl = run_ok(
        &server,
        QuerySpec::Closeness {
            sources: sources.clone(),
        },
    );
    match cl.output {
        QueryOutput::Closeness(c) => {
            assert_eq!(
                c.as_ref(),
                &harmonic_closeness_sampled(&dg, &sources, &cfg, &model())
            );
        }
        other => panic!("expected closeness, got {other:?}"),
    }
}

#[test]
fn concurrent_workers_stay_within_the_inflight_bound() {
    let g = noisy_path(500, 6, 1500, 21);
    let dg = Arc::new(DistGraph::build(&g, 2, 2));
    let server = SsspServer::new(
        Arc::clone(&dg),
        SsspConfig::opt(20),
        model(),
        ServeConfig {
            max_inflight: 4,
            cache_capacity: 0, // every query runs the engine
            deadline: None,
        },
    );
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            server
                .submit(QuerySpec::SingleSource { root: i * 17 })
                .expect("valid root")
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let res = server.wait(t).expect("valid query must succeed");
        let root = (i as u32) * 17;
        let oracle = threaded_delta_stepping(&dg, root, &SsspConfig::opt(20), &model());
        assert_eq!(
            res.output.distances().expect("distances").as_ref(),
            &oracle.distances,
            "root {root}"
        );
    }
    let peak = server.peak_inflight();
    assert!(
        (1..=4).contains(&peak),
        "peak inflight {peak} out of bounds"
    );
}

#[test]
fn poll_returns_none_until_the_query_finishes() {
    let g = CsrBuilder::new().build(&gen::path(20, 2));
    let dg = Arc::new(DistGraph::build(&g, 1, 1));
    let server = one_worker(&dg, SsspConfig::opt(10));
    let t = server
        .submit(QuerySpec::SingleSource { root: 0 })
        .expect("valid root");
    let res = server.wait(t).expect("valid query must succeed");
    assert_eq!(res.output.distances().expect("distances")[19], 38);
    assert!(
        server.poll(t).is_none(),
        "a ticket is redeemable exactly once"
    );
}

#[test]
fn out_of_range_submit_is_rejected_and_leaves_the_server_serviceable() {
    let g = CsrBuilder::new().build(&gen::path(10, 2));
    let dg = Arc::new(DistGraph::build(&g, 1, 1));
    let server = one_worker(&dg, SsspConfig::opt(10));

    // The historical repro: this submit used to assert inside the
    // submitter *while holding the queue lock*, poisoning the mutex and
    // wedging every later client. It must now be a plain error return,
    // decided before any lock is taken.
    let err = server
        .submit(QuerySpec::PointToPoint {
            root: 0,
            target: 10,
        })
        .expect_err("out-of-range target must be rejected");
    match &err {
        QueryError::InvalidSpec(why) => assert!(
            why.contains("out of range"),
            "unexpected rejection reason: {why}"
        ),
        other => panic!("expected InvalidSpec, got {other:?}"),
    }

    // A sourceless closeness query is malformed too.
    let err = server
        .submit(QuerySpec::Closeness { sources: vec![] })
        .expect_err("sourceless closeness must be rejected");
    assert!(matches!(err, QueryError::InvalidSpec(_)));

    // The server is still fully serviceable after the bad submits.
    let res = run_ok(&server, QuerySpec::SingleSource { root: 0 });
    assert_eq!(res.output.distances().expect("distances")[9], 18);
    assert_eq!(
        server.failure_stats(),
        (0, 0),
        "rejected submits never reach a worker"
    );
}

#[test]
fn deadline_in_the_past_times_out_without_running_the_engine() {
    let g = noisy_path(200, 6, 400, 13);
    let dg = Arc::new(DistGraph::build(&g, 2, 2));
    let server = one_worker(&dg, SsspConfig::opt(20));

    // A zero deadline has always expired by the time a worker claims the
    // job, so the ticket fails with TimedOut before any engine work.
    let t = server
        .submit_with_deadline(
            QuerySpec::SingleSource { root: 0 },
            Some(Duration::from_secs(0)),
        )
        .expect("valid root");
    assert!(matches!(server.wait(t), Err(QueryError::TimedOut)));
    assert_eq!(server.failure_stats(), (0, 1), "timeout must be counted");

    // The same query without a deadline still succeeds afterwards.
    let res = run_ok(&server, QuerySpec::SingleSource { root: 0 });
    assert!(!res.cache_hit, "a timed-out run must not seed the cache");
}

/// Submit `spec` against a 20 000-vertex path — every analytics kind runs
/// well past a few milliseconds on it — with a deadline 5 ms out, so the
/// deadline passes inside the run (or, on a slow claim, before it), and
/// expect the ticket to time out.
fn times_out(spec: QuerySpec) {
    let g = CsrBuilder::new().build(&gen::path(20_000, 3));
    let server = one_worker(&Arc::new(DistGraph::build(&g, 2, 2)), SsspConfig::opt(20));
    let t = server
        .submit_with_deadline(spec, Some(Duration::from_millis(5)))
        .expect("valid spec");
    assert!(matches!(server.wait(t), Err(QueryError::TimedOut)));
    assert_eq!(server.failure_stats(), (0, 1), "timeout must be counted");
}

#[test]
fn bfs_honours_a_near_deadline() {
    times_out(QuerySpec::Bfs { root: 0 });
}

#[test]
fn components_honour_a_near_deadline() {
    times_out(QuerySpec::Components);
}

#[test]
fn pagerank_honours_a_near_deadline() {
    let config = PageRankConfig {
        tolerance: 0.0,
        max_iterations: 1_000_000,
        ..PageRankConfig::default()
    };
    times_out(QuerySpec::PageRank { config });
}

#[test]
fn closeness_honours_a_near_deadline() {
    times_out(QuerySpec::Closeness {
        sources: (0..64).collect(),
    });
}

#[test]
fn panic_probe_fails_its_own_ticket_only() {
    let g = noisy_path(150, 5, 300, 17);
    let dg = Arc::new(DistGraph::build(&g, 2, 2));
    let server = one_worker(&dg, SsspConfig::opt(20));

    let before = run_ok(&server, QuerySpec::SingleSource { root: 1 });
    let probe = server.submit_panic_probe();
    match server.wait(probe) {
        Err(QueryError::Panicked(msg)) => {
            assert!(msg.contains("deliberate panic probe"), "got: {msg}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert_eq!(server.failure_stats(), (1, 0), "panic must be counted");

    // The worker that caught the unwind keeps serving, bit-identically.
    let after = run_ok(&server, QuerySpec::SingleSource { root: 1 });
    assert_eq!(
        before.output.distances().expect("distances").as_ref(),
        after.output.distances().expect("distances").as_ref()
    );
}

#[test]
fn seed_offset_without_headroom_is_rejected_before_it_can_wrap() {
    // The historical repro: a 50-vertex path at 2 ranks answered this
    // query `Ok` with wrapped distances (`dist[1] == 0`) in release builds
    // and died on an arithmetic overflow in debug ones.
    let g = CsrBuilder::new().build(&gen::path(50, 30));
    let dg = Arc::new(DistGraph::build(&g, 2, 1));
    let server = one_worker(&dg, SsspConfig::opt(25));
    let err = server
        .submit(QuerySpec::MultiSeed {
            seeds: vec![(3, 7), (0, u64::MAX - 20)],
        })
        .expect_err("a seed offset next to u64::MAX must be rejected");
    match &err {
        QueryError::InvalidSpec(why) => assert!(why.contains("headroom"), "{why}"),
        other => panic!("expected InvalidSpec, got {other:?}"),
    }
    assert_eq!(server.failure_stats(), (0, 0), "never reached a worker");

    // The bound itself is legal and exact: nothing on the path wraps.
    let top = sssp_core::max_seed_offset(50);
    let res = run_ok(
        &server,
        QuerySpec::MultiSeed {
            seeds: vec![(0, top)],
        },
    );
    let dist = res.output.distances().expect("distances");
    assert_eq!((dist[0], dist[1], dist[49]), (top, top + 30, top + 49 * 30));
    let err = server
        .submit(QuerySpec::MultiSeed {
            seeds: vec![(0, top + 1)],
        })
        .expect_err("one past the bound must be rejected");
    assert!(matches!(err, QueryError::InvalidSpec(_)));
}
