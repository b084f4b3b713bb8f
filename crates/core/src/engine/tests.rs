//! Engine correctness and behavior tests (exercised through the public
//! `run` / `run_sssp` API on the lockstep transport).

use super::driver::SPARE_CAPACITY_FLOOR;
use super::record::NoopRecorder;
use super::*;
use crate::config::DirectionPolicy;
use crate::validate::assert_matches_dijkstra;
use sssp_comm::threaded::run_threaded;
use sssp_graph::{gen, Csr, CsrBuilder};

fn model() -> MachineModel {
    MachineModel::bgq_like()
}

fn medium_graph() -> Csr {
    CsrBuilder::new().build(&gen::uniform(300, 2400, 60, 7))
}

/// Five hubs of 600 neighbours each over a sparse uniform background: every
/// hub is heavy at π = 128 and split at π′ = 256, no other vertex is.
fn hub_graph() -> Csr {
    let n = 2048u32;
    let mut el = gen::uniform(n as usize, 4 * n as usize, 255, 5);
    for h in 0..5 {
        for i in 0..600 {
            el.push(h, (h + 5 + i * 3) % n, 1 + (h + i) % 255);
        }
    }
    CsrBuilder::new().build(&el)
}

fn run_cfg(g: &Csr, p: usize, cfg: &SsspConfig) -> SsspOutput {
    let dg = DistGraph::build(g, p, 4);
    run_sssp(&dg, 0, cfg, &model())
}

#[test]
fn del_matches_dijkstra_on_path() {
    let g = CsrBuilder::new().build(&gen::path(20, 7));
    let out = run_cfg(&g, 3, &SsspConfig::del(25));
    assert_matches_dijkstra(&g, 0, &out);
}

#[test]
fn all_presets_match_dijkstra() {
    let g = medium_graph();
    for (name, cfg) in [
        ("dijkstra", SsspConfig::dijkstra()),
        ("bellman-ford", SsspConfig::bellman_ford()),
        ("del-25", SsspConfig::del(25)),
        ("prune-25", SsspConfig::prune(25)),
        ("opt-25", SsspConfig::opt(25)),
        ("lb-opt-25", SsspConfig::lb_opt(25)),
    ] {
        for p in [1, 4, 7] {
            let out = run_cfg(&g, p, &cfg);
            let mism = crate::validate::check_against_dijkstra(&g, 0, &out);
            assert!(
                mism.is_empty(),
                "{name} with p={p}: {} mismatches",
                mism.len()
            );
        }
    }
}

#[test]
fn forced_push_and_pull_match() {
    let g = medium_graph();
    for dir in [DirectionPolicy::AlwaysPush, DirectionPolicy::AlwaysPull] {
        let cfg = SsspConfig::prune(25).with_direction(dir.clone());
        let out = run_cfg(&g, 4, &cfg);
        let mism = crate::validate::check_against_dijkstra(&g, 0, &out);
        assert!(mism.is_empty(), "{dir:?}: {} mismatches", mism.len());
    }
}

#[test]
fn ios_changes_counts_not_results() {
    let g = medium_graph();
    let base = run_cfg(&g, 4, &SsspConfig::del(25));
    let ios = run_cfg(&g, 4, &SsspConfig::del(25).with_ios(true));
    assert_eq!(base.distances, ios.distances);
    // IOS only prunes short relaxations; some of them reappear as outer
    // shorts in the long phase.
    assert!(ios.stats.short_relaxations < base.stats.short_relaxations);
}

#[test]
fn bucket_evolution_is_mode_independent() {
    // Push and pull produce identical post-epoch states, so forcing
    // either sequence yields the same distances and the same settled
    // counts per bucket.
    let g = medium_graph();
    let push = run_cfg(
        &g,
        4,
        &SsspConfig::prune(25).with_direction(DirectionPolicy::AlwaysPush),
    );
    let pull = run_cfg(
        &g,
        4,
        &SsspConfig::prune(25).with_direction(DirectionPolicy::AlwaysPull),
    );
    assert_eq!(push.distances, pull.distances);
    let settled = |o: &SsspOutput| -> Vec<(u64, u64)> {
        o.stats
            .bucket_records
            .iter()
            .map(|r| (r.bucket, r.settled))
            .collect()
    };
    assert_eq!(settled(&push), settled(&pull));
}

#[test]
fn dijkstra_relaxes_each_edge_at_most_twice() {
    let g = medium_graph();
    let out = run_cfg(&g, 4, &SsspConfig::dijkstra());
    assert!(out.stats.relaxations_total() <= 2 * g.num_undirected_edges() as u64);
    // Short phases are skipped entirely (no weights below Δ = 1).
    assert_eq!(out.stats.short_relaxations, 0);
}

#[test]
fn bellman_ford_uses_single_bucket() {
    let g = medium_graph();
    let out = run_cfg(&g, 4, &SsspConfig::bellman_ford());
    assert_eq!(out.stats.epochs, 1);
    assert!(out.stats.long_push_relaxations == 0 && out.stats.pull_requests == 0);
}

#[test]
fn hybrid_reduces_buckets() {
    let g = medium_graph();
    let del = run_cfg(&g, 4, &SsspConfig::del(10));
    let opt = run_cfg(&g, 4, &SsspConfig::opt(10));
    assert!(opt.stats.buckets() < del.stats.buckets());
    assert!(opt.stats.hybrid_switch_at.is_some());
}

#[test]
fn unreachable_vertices_stay_inf() {
    let mut el = gen::path(5, 3);
    el.n = 9; // 4 isolated vertices
    let g = CsrBuilder::new().build(&el);
    let out = run_cfg(&g, 3, &SsspConfig::opt(25));
    for v in 5..9 {
        assert_eq!(out.dist(v), INF);
    }
    assert_eq!(out.reachable(), 5);
}

#[test]
fn root_from_every_rank_works() {
    let g = medium_graph();
    for root in [0u32, 77, 150, 299] {
        let dg = DistGraph::build(&g, 5, 2);
        let out = run_sssp(&dg, root, &SsspConfig::opt(25), &model());
        assert_matches_dijkstra(&g, root, &out);
    }
}

#[test]
fn split_graph_preserves_distances() {
    let el = gen::uniform(150, 3000, 40, 13);
    let g = CsrBuilder::new().build(&el);
    let (split_csr, part, rep) = sssp_dist::split_heavy_vertices(&g, 4, 24);
    assert!(
        rep.proxies_created > 0,
        "test graph should trigger splitting"
    );
    let dg = DistGraph::build_with_partition(&split_csr, part, 4, g.num_undirected_edges() as u64);
    let out = run_sssp(&dg, 0, &SsspConfig::lb_opt(25), &model());
    assert_matches_dijkstra(&g, 0, &out);

    // The hubs split at π′ = 256 over 8 ranks of 64 threads.
    let g = hub_graph();
    let (split_csr, part, rep) = sssp_dist::split_heavy_vertices(&g, 8, 256);
    assert!(rep.proxies_created > 0, "hubs should be split");
    let dg = DistGraph::build_with_partition(&split_csr, part, 64, g.num_undirected_edges() as u64);
    let out = run_sssp(&dg, 0, &SsspConfig::lb_opt(25), &model());
    assert_matches_dijkstra(&g, 0, &out);
}

#[test]
fn zero_weight_edges_handled() {
    // A path with an explicit zero-weight edge in the middle.
    let mut el = sssp_graph::EdgeList::new(4);
    el.push(0, 1, 5);
    el.push(1, 2, 0);
    el.push(2, 3, 5);
    let g = CsrBuilder::new().build(&el);
    for cfg in [
        SsspConfig::dijkstra(),
        SsspConfig::del(3),
        SsspConfig::opt(3),
    ] {
        let out = run_cfg(&g, 2, &cfg);
        assert_eq!(out.distances, vec![0, 5, 5, 10]);
    }
}

#[test]
fn single_vertex_graph() {
    let el = sssp_graph::EdgeList::new(1);
    let g = CsrBuilder::new().build(&el);
    let out = run_cfg(&g, 2, &SsspConfig::opt(25));
    assert_eq!(out.distances, vec![0]);
}

#[test]
fn pruning_reduces_relaxations_on_skewed_graph() {
    use sssp_graph::rmat::{RmatGenerator, RmatParams};
    let el = RmatGenerator::new(RmatParams::RMAT1, 10, 16)
        .seed(5)
        .generate_weighted(255);
    let g = CsrBuilder::new().build(&el);
    let del = run_cfg(&g, 4, &SsspConfig::del(25));
    let prune = run_cfg(&g, 4, &SsspConfig::prune(25));
    assert_eq!(del.distances, prune.distances);
    assert!(
        prune.stats.relaxations_total() < del.stats.relaxations_total(),
        "pruning did not reduce relaxations: {} vs {}",
        prune.stats.relaxations_total(),
        del.stats.relaxations_total()
    );
}

#[test]
fn stats_phases_and_records_consistent() {
    let g = medium_graph();
    let out = run_cfg(&g, 4, &SsspConfig::opt(25));
    assert_eq!(out.stats.phases as usize, out.stats.phase_records.len());
    assert_eq!(out.stats.epochs as usize, out.stats.bucket_records.len());
    let from_records: u64 = out.stats.phase_records.iter().map(|r| r.relaxations).sum();
    assert_eq!(from_records, out.stats.relaxations_total());
}

#[test]
fn settled_counts_sum_to_reachable_without_hybrid() {
    let g = medium_graph();
    let out = run_cfg(&g, 4, &SsspConfig::prune(25));
    let settled: u64 = out.stats.bucket_records.iter().map(|r| r.settled).sum();
    assert_eq!(settled, out.reachable());
}

#[test]
fn multi_source_is_min_over_single_sources() {
    let g = medium_graph();
    let dg = DistGraph::build(&g, 4, 2);
    let sources = [0u32, 50, 200];
    let query = Query::sources(&sources);
    let (multi, _) = run(
        &dg,
        &query,
        &SsspConfig::opt(25),
        &model(),
        Lockstep,
        NoopRecorder,
    );
    let singles: Vec<_> = sources
        .iter()
        .map(|&s| run_sssp(&dg, s, &SsspConfig::opt(25), &model()).distances)
        .collect();
    for (v, &got) in multi.distances.iter().enumerate() {
        let expect = singles.iter().map(|d| d[v]).min().unwrap();
        assert_eq!(got, expect, "vertex {v}");
    }
}

#[test]
fn seeded_run_matches_virtual_source_construction() {
    // Seeds (s, d) are equivalent to a virtual root connected to each s
    // by an edge of weight d.
    let g = medium_graph();
    let dg = DistGraph::build(&g, 3, 2);
    let seeds = [(5u32, 7u64), (100, 0), (250, 30)];
    let query = Query::seeded(&seeds);
    let (out, _) = run(
        &dg,
        &query,
        &SsspConfig::opt(25),
        &model(),
        Lockstep,
        NoopRecorder,
    );
    let mut el2 = sssp_graph::EdgeList::new(g.num_vertices() + 1);
    for (u, v, w) in g.undirected_edges() {
        el2.push(u, v, w);
    }
    let virt = g.num_vertices() as u32;
    for &(s, d) in &seeds {
        el2.push(virt, s, d as u32);
    }
    let g2 = CsrBuilder::new().build(&el2);
    let expect = crate::seq::dijkstra(&g2, virt);
    for (v, &got) in out.distances.iter().enumerate().take(g.num_vertices()) {
        assert_eq!(got, expect[v], "vertex {v}");
    }
}

#[test]
fn duplicate_seeds_keep_minimum() {
    let g = CsrBuilder::new().build(&gen::path(4, 5));
    let dg = DistGraph::build(&g, 2, 1);
    let query = Query::seeded(&[(0, 9), (0, 2)]);
    let (out, _) = run(
        &dg,
        &query,
        &SsspConfig::del(5),
        &model(),
        Lockstep,
        NoopRecorder,
    );
    assert_eq!(out.distances[0], 2);
    assert_eq!(out.distances[3], 2 + 15);
}

#[test]
fn cyclic_partition_gives_identical_results() {
    let g = medium_graph();
    let expect = crate::seq::dijkstra(&g, 0);
    for p in [1usize, 4, 7] {
        let dg = DistGraph::build_cyclic(&g, p, 2);
        let out = run_sssp(&dg, 0, &SsspConfig::opt(25), &model());
        assert_eq!(out.distances, expect, "cyclic p={p}");
    }
}

#[test]
fn simulated_time_is_positive_and_split() {
    let g = medium_graph();
    let out = run_cfg(&g, 4, &SsspConfig::del(25));
    assert!(out.stats.ledger.total_s() > 0.0);
    assert!(out.stats.ledger.bucket_s > 0.0);
    assert!(out.stats.ledger.relax_s > 0.0);
    assert!(out.stats.gteps(g.num_undirected_edges() as u64) > 0.0);
}

#[test]
fn forced_sequence_shorter_than_epochs_falls_back_to_heuristic() {
    use crate::config::LongPhaseMode;
    let g = medium_graph();
    // Force only the first bucket; everything after must match the pure
    // heuristic run's decisions.
    let heur = run_cfg(&g, 4, &SsspConfig::prune(25));
    let first = heur.stats.bucket_records[0].mode;
    let forced = run_cfg(
        &g,
        4,
        &SsspConfig::prune(25).with_direction(DirectionPolicy::Forced(vec![first])),
    );
    assert_eq!(forced.distances, heur.distances);
    let modes = |o: &SsspOutput| -> Vec<LongPhaseMode> {
        o.stats.bucket_records.iter().map(|r| r.mode).collect()
    };
    assert_eq!(modes(&forced), modes(&heur));
}

#[test]
fn always_pull_with_delta_one_matches_dijkstra() {
    // Dijkstra configuration driven entirely by the pull protocol.
    let g = CsrBuilder::new().build(&gen::uniform(150, 900, 25, 3));
    let cfg = SsspConfig::dijkstra().with_direction(DirectionPolicy::AlwaysPull);
    let out = run_cfg(&g, 5, &cfg);
    assert_matches_dijkstra(&g, 0, &out);
    assert!(out.stats.pull_requests > 0);
    assert_eq!(out.stats.long_push_relaxations, 0);
}

#[test]
fn intra_balance_threshold_zero_is_correct() {
    // π = 0 marks every vertex heavy — pure correctness check for the
    // balanced charging path.
    use crate::config::IntraBalance;
    let g = medium_graph();
    let cfg = SsspConfig::opt(25).with_intra_balance(IntraBalance::Threshold(0));
    let out = run_cfg(&g, 4, &cfg);
    assert_matches_dijkstra(&g, 0, &out);

    // π = 128 at 64 threads per rank marks only the hubs heavy.
    let g = hub_graph();
    let dg = DistGraph::build(&g, 8, 64);
    let cfg = SsspConfig::opt(25).with_intra_balance(IntraBalance::Threshold(128));
    let out = run_sssp(&dg, 0, &cfg, &model());
    assert_matches_dijkstra(&g, 0, &out);
}

#[test]
fn expectation_estimator_matches_results_and_decides_sanely() {
    use crate::config::PullEstimator;
    let g = medium_graph();
    let exact = run_cfg(
        &g,
        4,
        &SsspConfig::prune(25).with_pull_estimator(PullEstimator::Exact),
    );
    let expectation = run_cfg(
        &g,
        4,
        &SsspConfig::prune(25).with_pull_estimator(PullEstimator::Expectation),
    );
    assert_eq!(exact.distances, expectation.distances);
    // Both estimators should produce mostly the same decisions on a graph
    // with genuinely uniform weights.
    let agree = exact
        .stats
        .bucket_records
        .iter()
        .zip(&expectation.stats.bucket_records)
        .filter(|(a, b)| a.mode == b.mode)
        .count();
    assert!(
        2 * agree >= exact.stats.bucket_records.len(),
        "estimators disagree on most buckets: {agree}/{}",
        exact.stats.bucket_records.len()
    );
}

#[test]
fn heavy_multigraph_with_duplicate_edges() {
    // Duplicate parallel edges with different weights must not confuse the
    // classification (the lightest parallel edge decides the distance).
    let mut el = sssp_graph::EdgeList::new(4);
    for w in [50u32, 3, 20] {
        el.push(0, 1, w);
    }
    el.push(1, 2, 7);
    el.push(1, 2, 5);
    el.push(2, 3, 100);
    let g = CsrBuilder::new().build(&el);
    for cfg in [
        SsspConfig::dijkstra(),
        SsspConfig::del(10),
        SsspConfig::opt(10),
    ] {
        let out = run_cfg(&g, 2, &cfg);
        assert_eq!(out.distances, vec![0, 3, 8, 108]);
    }
}

#[test]
fn bucket_records_are_strictly_increasing() {
    let g = medium_graph();
    let out = run_cfg(&g, 4, &SsspConfig::prune(25));
    let buckets: Vec<u64> = out.stats.bucket_records.iter().map(|r| r.bucket).collect();
    assert!(buckets.windows(2).all(|w| w[0] < w[1]), "{buckets:?}");
}

#[test]
fn comm_supersteps_bound_phase_count() {
    // Every phase needs at least one superstep; pull phases use up to three.
    let g = medium_graph();
    let out = run_cfg(&g, 4, &SsspConfig::opt(25));
    let steps = out.stats.comm.num_supersteps() as u64;
    assert!(steps >= out.stats.phases);
    assert!(steps <= 3 * out.stats.phases);
}

#[test]
fn edgeless_graph_safe_under_every_direction_policy() {
    // An edgeless graph has no weights at all: the extremes must collapse
    // to the degenerate (0, 0) instead of (u32::MAX, 0), and every long
    // phase mechanism must terminate with only the source reachable.
    let el = sssp_graph::EdgeList::new(5);
    let g = CsrBuilder::new().build(&el);
    for (name, cfg) in [
        ("push", SsspConfig::del(5)),
        (
            "pull",
            SsspConfig::prune(5).with_direction(DirectionPolicy::AlwaysPull),
        ),
        ("heuristic", SsspConfig::opt(5)),
    ] {
        let out = run_cfg(&g, 2, &cfg);
        let inf = crate::state::INF;
        assert_eq!(out.distances, vec![0, inf, inf, inf, inf], "{name}");
        assert_eq!(out.stats.reachable, 1, "{name}");
    }
}

#[test]
fn single_vertex_graph_under_push_and_pull_forcing() {
    let el = sssp_graph::EdgeList::new(1);
    let g = CsrBuilder::new().build(&el);
    for dir in [DirectionPolicy::AlwaysPush, DirectionPolicy::AlwaysPull] {
        let cfg = SsspConfig::opt(25).with_direction(dir.clone());
        let out = run_cfg(&g, 2, &cfg);
        assert_eq!(out.distances, vec![0], "{dir:?}");
    }
}

#[test]
fn auto_pi_rounds_the_average_degree() {
    use crate::config::IntraBalance;
    // 165 directed edges over 10 vertices: average degree 16.5 rounds to
    // 17, so π = 4·17 = 68. Truncating division used to give 4·16 = 64.
    assert_eq!(resolved_pi(IntraBalance::Auto, 165, 10), 68);
    assert_eq!(resolved_pi(IntraBalance::Auto, 164, 10), 64);
    // The floor of 64 and the empty graph both stay sane.
    assert_eq!(resolved_pi(IntraBalance::Auto, 4, 10), 64);
    assert_eq!(resolved_pi(IntraBalance::Auto, 0, 0), 64);
    assert_eq!(resolved_pi(IntraBalance::Off, 1000, 10), u64::MAX);
    assert_eq!(resolved_pi(IntraBalance::Threshold(7), 1000, 10), 7);
}

#[test]
fn receive_work_charged_to_target_owner_threads() {
    use crate::config::IntraBalance;
    // Star: vertex 0 → {4, 8, 12, 16}, all weight 3. With 4 threads per
    // rank every target lives on thread 0 (local % 4 == 0), so receive
    // work must pile up there — the old accounting spread the whole inbox
    // evenly and hid exactly this imbalance.
    //
    // With the unit model, p = 1 (all messages local → zero wire bytes)
    // and π = 1, the Relax-class time is the sum over supersteps of
    // (max thread ops + 1):
    //   short #1: heavy send spread 1/thread, 4 receives on thread 0 → 5+1
    //   short #2: 4 light sends on thread 0, 4 receives on thread 0 → 8+1
    //   long push: nothing left to send                            → 0+1
    let mut el = sssp_graph::EdgeList::new(17);
    for t in [4u32, 8, 12, 16] {
        el.push(0, t, 3);
    }
    let g = CsrBuilder::new().build(&el);
    let dg = DistGraph::build(&g, 1, 4);
    let cfg = SsspConfig::del(5)
        .with_intra_balance(IntraBalance::Threshold(1))
        .with_coalescing(false);
    let out = run_sssp(&dg, 0, &cfg, &MachineModel::unit());
    assert_eq!(out.distances[0], 0);
    for t in [4usize, 8, 12, 16] {
        assert_eq!(out.distances[t], 3);
    }
    assert_eq!(out.stats.ledger.relax_s, 16.0);

    // Coalescing folds short #2's four duplicate (0, 6) proposals into
    // one, so thread 0's receive pile shrinks by 3 there (5+1 instead of
    // 8+1) and the saving is recorded on the step stats.
    let cfg = SsspConfig::del(5).with_intra_balance(IntraBalance::Threshold(1));
    let out = run_sssp(&dg, 0, &cfg, &MachineModel::unit());
    assert_eq!(out.distances[0], 0);
    for t in [4usize, 8, 12, 16] {
        assert_eq!(out.distances[t], 3);
    }
    assert_eq!(out.stats.ledger.relax_s, 13.0);
    assert_eq!(out.stats.comm.total_coalesced_msgs(), 3);
}

#[test]
fn one_sixteen_byte_wire_record_carries_both_message_kinds() {
    // What the cost model charges per message is what a lane stores.
    assert_eq!(std::mem::size_of::<RelaxMsg>(), WIRE_BYTES);
    let req = ReqMsg {
        u_local: 7,
        origin: u32::MAX,
        w: 0,
    };
    assert_eq!(ReqMsg::from_wire(req.to_wire()), req);
}

proptest::proptest! {
    #[test]
    fn request_wire_encoding_round_trips(
        u_local in proptest::prelude::any::<u32>(),
        origin in proptest::prelude::any::<u32>(),
        w in proptest::prelude::any::<u32>(),
    ) {
        let req = ReqMsg { u_local, origin, w };
        let wire = req.to_wire();
        proptest::prop_assert_eq!(wire.target, u_local);
        proptest::prop_assert_eq!(ReqMsg::from_wire(wire), req);
    }
}

// -- the maintained §III-C estimate ---------------------------------------

proptest::proptest! {
    #[test]
    fn push_on_lower_pull_totals_is_push_on_the_full_ones(
        ranks in proptest::collection::vec(
            (0u64..400_000, 0u64..400_000, 0u64..400_000, 0u64..100_000),
            1..9,
        ),
        ios in proptest::prelude::any::<bool>(),
        exact in proptest::prelude::any::<bool>(),
        unit_model in proptest::prelude::any::<bool>(),
    ) {
        // Per rank: push volume, unreached mass, the reached members' terms
        // and the scan extent. The decision's early exit takes push on the
        // unreached mass alone; the reached terms can only keep it push.
        let estimator = if exact { PullEstimator::Exact } else { PullEstimator::Expectation };
        let cfg = SsspConfig::opt(25).with_ios(ios).with_pull_estimator(estimator);
        let model = if unit_model { MachineModel::unit() } else { model() };
        let p = ranks.len();
        let sum_max = |vals: Vec<u64>| (vals.iter().sum(), vals.into_iter().max().unwrap_or(0));
        let (push_total, push_max) = sum_max(ranks.iter().map(|r| r.0).collect());
        let (mass_total, mass_max) = sum_max(ranks.iter().map(|r| r.1).collect());
        let (pull_total, pull_max) = sum_max(ranks.iter().map(|r| r.1 + r.2).collect());
        let scan_max = ranks.iter().map(|r| r.3).max().unwrap_or(0);
        let decide = |total, max| {
            decide::decide_from_totals(
                &cfg, &model, p, push_total, total, push_max, max, scan_max,
            )
        };
        let (bound, full) = (decide(mass_total, mass_max), decide(pull_total, pull_max));
        proptest::prop_assert_eq!(bound.1, full.1);
        if bound.0 == crate::config::LongPhaseMode::Push {
            proptest::prop_assert_eq!(full.0, crate::config::LongPhaseMode::Push, "{:?}", ranks);
        }
    }
}

use crate::config::{PullEstimator, SteppingPolicyKind};
use crate::policy::Policy;
use crate::state::{RankState, FLAT_LANES};

const ESTIMATORS: [PullEstimator; 2] = [PullEstimator::Exact, PullEstimator::Expectation];

/// The three stepping policies with the heuristic switched on (ρ and radius
/// default to always-push, which never asks for an estimate). The weights
/// of `estimate_graphs` and the staggered seeds of `estimate_queries` make
/// Dial-granularity windows outrun the bucket ring, so ρ/radius epochs read
/// members from the spill list too.
fn estimate_policies() -> [SsspConfig; 3] {
    let heuristic = |cfg: SsspConfig| cfg.with_direction(DirectionPolicy::Heuristic);
    [
        SsspConfig::prune(40),
        heuristic(SsspConfig::rho(2)),
        heuristic(SsspConfig::radius(3)),
    ]
}

/// Two seed sets with start distances staggered by more than the ring
/// width, each on one rank at every `p` tested (ρ-stepping bounds a window
/// only where one rank holds more than its cap; a lone root would let it
/// swallow the graph in one epoch), and their distances by definition: the
/// best seed's Dijkstra.
fn estimate_queries(g: &Csr) -> Vec<(Query, Vec<u64>)> {
    [
        [(0u32, 0u64), (1, 900), (2, 2600)],
        [(77, 0), (78, 1400), (79, 1500)],
    ]
    .iter()
    .map(|seeds| {
        let mut expect = vec![INF; g.num_vertices()];
        for &(s, offset) in seeds {
            for (e, d) in expect.iter_mut().zip(crate::seq::dijkstra(g, s)) {
                *e = (*e).min(d.saturating_add(offset));
            }
        }
        (Query::seeded(seeds), expect)
    })
    .collect()
}

#[test]
fn maintained_volumes_equal_the_full_scan_on_a_driven_state() {
    // Drive one rank state by hand through epochs, relaxations and a
    // `reset`, comparing `rank_push_bound` and `rank_pull` with the
    // definition at every step.
    // Unlike the per-epoch debug invariant this compares in release too.
    let n = 96usize;
    let mut rng = sssp_graph::prng::SplitMix::new(17);
    let rows = (0..n).map(|_| {
        let deg = (rng.next_u64() % 9) as usize;
        let mut ws: Vec<u32> = (0..deg)
            .map(|_| 1 + (rng.next_u64() % 1500) as u32)
            .collect();
        ws.sort_unstable();
        (vec![0u32; deg], ws)
    });
    let lg = sssp_dist::LocalGraph::from_rows(rows);
    let w_max = 1500;
    for cfg in estimate_policies() {
        let policy = Policy::new(&cfg, 1, w_max);
        let dial = !matches!(cfg.policy, SteppingPolicyKind::Delta);
        for estimator in ESTIMATORS {
            let mut st = RankState::new(0, n, 1);
            for round in 0..2 {
                st.install_unreached_terms(|v| {
                    decide::pull_term(&lg, v, INF, 0, policy.short_bound(), estimator, w_max)
                });
                st.begin_phase();
                st.relax((rng.next_u64() % n as u64) as u32, 0, &policy.delta);
                let (mut k_prev, mut epochs) = (None, 0);
                while let Some(k) = st.next_nonempty_after(k_prev) {
                    st.advance_frontier(k);
                    // Dial windows reach past the ring end every other epoch.
                    let reach = if dial && epochs % 2 == 1 {
                        FLAT_LANES + 90
                    } else {
                        60
                    };
                    // Δ-stepping's wide window is a hybrid-tail window.
                    let window = policy.window(k, k + reach, None);
                    let bound = policy.short_bound();
                    // The driver's collection after the short fixpoint,
                    // and the push-range starts the short kernel records.
                    st.collect_active_from_window(window.lo, window.hi);
                    for u in st.active.iter().map(|u| u as usize) {
                        kernels::record_push_start(
                            &mut st.push_start[u],
                            cfg.ios,
                            lg.row(u).1,
                            st.dist[u],
                            window.end_dist,
                            window.short_bound,
                        );
                    }
                    let (push, mass, scanned) = decide::rank_push_bound(
                        &lg, &st, &window, bound, cfg.ios, estimator, w_max,
                    );
                    let pull =
                        decide::rank_pull(&lg, &st, &window, bound, cfg.ios, estimator, w_max);
                    assert!(mass <= pull);
                    let got = (push, pull, scanned);
                    let want = invariants::scan_rank_volumes(
                        &lg, &st, &window, bound, cfg.ios, estimator, w_max,
                    );
                    assert_eq!(
                        got, want,
                        "{cfg:?} {estimator:?} round {round} epoch {epochs}"
                    );
                    // The long phase: reach new vertices and improve reached
                    // ones, near the window and far past the ring (in bucket
                    // widths, so Δ-stepping spills too).
                    for _ in 0..6 {
                        let v = (rng.next_u64() % n as u64) as u32;
                        let far = if rng.next_below(3) == 0 {
                            4 * FLAT_LANES * if dial { 1 } else { 40 }
                        } else {
                            300
                        };
                        let nd = window.end_dist + 1 + rng.next_u64() % far;
                        if policy.delta.bucket_of(nd) <= st.bucket_of[v as usize] {
                            st.relax(v, nd, &policy.delta);
                        }
                    }
                    k_prev = Some(window.hi);
                    epochs += 1;
                }
                assert!(epochs > 3, "{cfg:?}: the drive ended after {epochs} epochs");
                assert_eq!(st.count_unsettled_after(u64::MAX - 1), st.unreached());
                st.reset();
                assert_eq!(st.unreached(), n as u64);
            }
        }
    }
}

/// A hub-heavy graph (split into proxies by the §III-E trigger at p > 1)
/// and a graph with an unreachable component, both with weights wide enough
/// for spill-crossing windows.
fn estimate_graphs() -> [(Csr, bool); 2] {
    let mut hub = gen::star(260, 1100);
    for e in gen::path(260, 350).edges {
        hub.push(e.u, e.v, e.w);
    }
    for e in gen::uniform(260, 500, 900, 5).edges {
        hub.push(e.u, e.v, e.w);
    }
    let mut islands = gen::uniform(140, 260, 1200, 23);
    islands.n = 170;
    for v in 141..170 {
        islands.push(v - 1, v, 9);
    }
    let build = |el| CsrBuilder::new().build(&el);
    [(build(hub), true), (build(islands), false)]
}

#[test]
fn maintained_estimate_is_transport_and_reuse_independent() {
    // 3 estimators × 3 policies × both transports × p ∈ {1, 3, 8}, on a
    // proxy-split graph and on one with an unreachable component, with the
    // threaded scratch reused (through `reset`) for a second seed set. Every
    // epoch of every run crosses the full-scan invariant in debug builds;
    // what is compared here holds in release too: distances against
    // Dijkstra, and the recorded estimates and modes across transports.
    let model = model();
    for (g, split) in estimate_graphs() {
        for p in [1usize, 3, 8] {
            let dg = if split {
                let (dg, report) = DistGraph::build_auto_split(&g, p, 2);
                assert_eq!(report.is_some(), p > 1, "p {p}: split trigger");
                dg
            } else {
                DistGraph::build(&g, p, 2)
            };
            let dg = std::sync::Arc::new(dg);
            for cfg in estimate_policies() {
                for estimator in ESTIMATORS {
                    let cfg = cfg.clone().with_pull_estimator(estimator);
                    let mut scratch = threaded::EngineScratch::new(p);
                    for (query, expect) in estimate_queries(&g) {
                        let what = format!("p {p} {:?} {cfg:?}", query.seeds);
                        let stats = RunStats::for_run(&dg, None);
                        let (sim, sim_recs) =
                            run(&*dg, &query, &cfg, &model, Lockstep, stats.clone());
                        let (thr, thr_recs) =
                            run(&dg, &query, &cfg, &model, Threaded(&mut scratch), stats);
                        assert_eq!(&sim.distances[..expect.len()], &expect[..], "{what}");
                        assert_eq!(thr.distances, sim.distances, "{what}");
                        let sim_trace = record::merged_trace(&sim_recs);
                        let thr_trace = record::merged_trace(&thr_recs);
                        assert_eq!(sim_trace.diff(&thr_trace), Vec::<String>::new(), "{what}");
                        assert!(
                            sim_trace.buckets.len() > 2 && sim_trace.buckets[0].est_push > 0,
                            "{what}: {} epochs, first estimate {}",
                            sim_trace.buckets.len(),
                            sim_trace.buckets[0].est_push
                        );
                    }
                }
            }
        }
    }
}

// -- seed offsets -----------------------------------------------------------

#[test]
fn the_largest_legal_seed_offset_runs_exactly_on_both_transports() {
    let g = CsrBuilder::new().build(&gen::path(50, u32::MAX));
    let dg = std::sync::Arc::new(DistGraph::build(&g, 2, 1));
    let top = max_seed_offset(50);
    assert_eq!(top, u64::MAX - 50 * u64::from(u32::MAX));
    let query = Query::seeded(&[(0, top)]);
    let expect: Vec<u64> = (0..50).map(|i| top + i * u64::from(u32::MAX)).collect();
    for cfg in [SsspConfig::opt(25), SsspConfig::rho(8)] {
        let (sim, _) = run(&*dg, &query, &cfg, &model(), Lockstep, NoopRecorder);
        assert_eq!(sim.distances, expect);
        let mut scratch = threaded::EngineScratch::new(2);
        let (thr, _) = run(
            &dg,
            &query,
            &cfg,
            &model(),
            Threaded(&mut scratch),
            NoopRecorder,
        );
        assert_eq!(thr.distances, expect);
    }
}

#[test]
#[should_panic(expected = "leaves no headroom")]
fn a_seed_offset_without_headroom_is_refused_by_the_lockstep_transport() {
    // The historical repro: release builds returned `dist[1] == 0`.
    let g = CsrBuilder::new().build(&gen::path(50, 30));
    let dg = DistGraph::build(&g, 2, 1);
    let query = Query::seeded(&[(0, u64::MAX - 20)]);
    run(
        &dg,
        &query,
        &SsspConfig::opt(25),
        &model(),
        Lockstep,
        NoopRecorder,
    );
}

#[test]
#[should_panic(expected = "leaves no headroom")]
fn a_seed_offset_without_headroom_is_refused_by_the_threaded_transport() {
    let g = CsrBuilder::new().build(&gen::path(50, 30));
    let dg = std::sync::Arc::new(DistGraph::build(&g, 2, 1));
    let mut scratch = threaded::EngineScratch::new(2);
    threaded::threaded_sssp_query(
        &dg,
        &[(0, u64::MAX - 20)],
        None,
        &SsspConfig::opt(25),
        &model(),
        &mut scratch,
    );
}

// -- the hybrid tail's windows ----------------------------------------------

/// What the epoch loop tells a recorder about each epoch: its first bucket,
/// whether it ran after the hybrid switch, and how many vertices it settled.
#[derive(Debug, Clone, Default)]
struct EpochLog {
    switched_after: Option<u64>,
    epochs: Vec<(u64, bool, u64)>,
}

impl Recorder for EpochLog {
    fn bucket(&mut self, rec: crate::instrument::BucketRecord) {
        let tail = self.switched_after.is_some();
        self.epochs.push((rec.bucket, tail, 0));
    }

    fn settled(&mut self, settled: u64) {
        if let Some(last) = self.epochs.last_mut() {
            last.2 = settled;
        }
    }

    fn hybrid_switch(&mut self, bucket: u64) {
        self.switched_after = Some(bucket);
    }
}

#[test]
fn tail_windows_are_contiguous_doubling_and_start_at_the_smallest_bucket() {
    // On a grid the tail runs many epochs. Read each window off the final
    // distances: the j-th tail epoch must start at the smallest non-empty
    // bucket past the previous window and settle exactly the vertices of
    // its min(2^(j+1), H) buckets, H = ⌊w_max/Δ⌋ + 1 the one-hop horizon —
    // so no bucket is skipped and none is revisited.
    let g = CsrBuilder::new().build(&gen::grid(24, 255, 3));
    let expect = crate::seq::dijkstra(&g, 0);
    let delta = 25u64;
    for (p, tau) in [(1usize, 0.0), (3, 0.2), (4, 0.4)] {
        let dg = DistGraph::build(&g, p, 2);
        let horizon = dg.weight_range().1 / delta + 1;
        assert_eq!(horizon, 11, "the fourth tail epoch hits the cap");
        let cfg = SsspConfig::opt(delta as u32).with_hybrid(Some(tau));
        let (out, logs) = run(
            &dg,
            &Query::root(0),
            &cfg,
            &model(),
            Lockstep,
            EpochLog::default(),
        );
        assert_eq!(out.distances, expect, "p {p} τ {tau}");
        let log = &logs[0];
        let mut prev_hi = log.switched_after.expect("the tail engaged");
        let tail: Vec<_> = log.epochs.iter().filter(|e| e.1).collect();
        assert!(tail.len() > 3, "p {p} τ {tau}: {} tail epochs", tail.len());
        for (j, &&(lo, _, settled)) in tail.iter().enumerate() {
            let buckets = expect.iter().filter(|&&d| d != INF).map(|&d| d / delta);
            let smallest = buckets.clone().filter(|&b| b > prev_hi).min();
            assert_eq!(Some(lo), smallest, "p {p} τ {tau} tail epoch {j}");
            let hi = lo + (2u64 << j).min(horizon) - 1;
            let inside = buckets.filter(|&b| lo <= b && b <= hi).count() as u64;
            assert_eq!(settled, inside, "p {p} τ {tau} tail epoch {j} [{lo}, {hi}]");
            prev_hi = hi;
        }
        // The last window reaches the farthest vertex.
        let far = expect.iter().filter(|&&d| d != INF).max().unwrap() / delta;
        assert!(prev_hi >= far, "p {p} τ {tau}");
    }
}

#[test]
fn rho_one_settles_in_dijkstra_order_on_both_transports() {
    // ρ = 1 caps every rank at one vertex, and a rank holding the selected
    // bucket k always proposes k itself, so every window is one Δ = 1
    // bucket: epoch `lo`s strictly increase, and each epoch settles exactly
    // the vertices whose final distance is its `lo` — Dijkstra order.
    let mut el = gen::grid(12, 9, 5);
    for e in gen::uniform(144, 300, 40, 8).edges {
        el.push(e.u, e.v, e.w);
    }
    let g = CsrBuilder::new().build(&el);
    let expect = crate::seq::dijkstra_radix(&g, 0);
    let reached = expect.iter().filter(|&&d| d != INF).count() as u64;
    let (cfg, query) = (SsspConfig::rho(1), Query::root(0));
    for p in [1usize, 3] {
        let dg = std::sync::Arc::new(DistGraph::build(&g, p, 2));
        let mut scratch = threaded::EngineScratch::new(p);
        let runs = [
            run(&*dg, &query, &cfg, &model(), Lockstep, EpochLog::default()),
            run(
                &dg,
                &query,
                &cfg,
                &model(),
                Threaded(&mut scratch),
                EpochLog::default(),
            ),
        ];
        for (transport, (out, logs)) in ["lockstep", "threaded"].into_iter().zip(runs) {
            let what = format!("{transport} p {p}");
            assert_eq!(out.distances, expect, "{what}");
            let epochs = &logs[0].epochs;
            assert!(
                epochs.windows(2).all(|e| e[0].0 < e[1].0),
                "{what}: epoch starts do not strictly increase"
            );
            for &(lo, _, settled) in epochs {
                let at_lo = expect.iter().filter(|&&d| d == lo).count() as u64;
                assert_eq!(settled, at_lo, "{what}: the epoch at {lo}");
            }
            let settled: u64 = epochs.iter().map(|e| e.2).sum();
            assert_eq!(settled, reached, "{what}");
        }
    }
}

// -- the buffer pool bound ---------------------------------------------------
//
// The rank-thread exchange hands every drained batch back as a lane, so a
// process's `ProcBufs` hold every message buffer of its run, and
// `ProcBufs::shrink` at the epoch loop's epoch and query marks is the one
// bound on them. These run bare supersteps on two rank threads.

/// The epoch loop's two high-water marks, folded and applied as it folds
/// and applies them.
#[derive(Default)]
struct Marks {
    epoch: usize,
    query: usize,
}

impl Marks {
    /// A superstep's mark joins the current epoch's.
    fn step(&mut self, mark: usize) {
        self.epoch = self.epoch.max(mark);
    }

    /// Close an epoch: shrink to its mark and fold that into the query's.
    /// Returns the buffers released.
    fn end_epoch(&mut self, bufs: &mut ProcBufs) -> usize {
        let released = shrink_released(bufs, self.epoch);
        self.query = self.query.max(self.epoch);
        self.epoch = 0;
        released
    }

    /// Close the query: shrink to the whole query's mark.
    fn end_query(&mut self, bufs: &mut ProcBufs) -> usize {
        shrink_released(bufs, self.query.max(self.epoch))
    }
}

/// `ProcBufs::shrink(high_water)`, checked against the 4× bound; returns
/// how many buffers it released.
fn shrink_released(bufs: &mut ProcBufs, high_water: usize) -> usize {
    let before = bufs.capacities();
    bufs.shrink(high_water);
    let cap = bufs.max_buffer_capacity();
    let bound = (4 * high_water).max(SPARE_CAPACITY_FLOOR);
    assert!(
        cap <= bound,
        "mark {high_water}: buffer of {cap} past {bound}"
    );
    let after = bufs.capacities();
    before.iter().zip(&after).filter(|(b, a)| a < b).count()
}

/// Run `body` on both rank threads of a two-rank world, each with its own
/// rank's buffers.
fn on_two_rank_threads<T: Send + 'static>(
    body: fn(&mut RankCtx<RelaxMsg>, &mut ProcBufs) -> T,
) -> Vec<T> {
    run_threaded(2, move |mut ctx: RankCtx<RelaxMsg>| {
        let dg = DistGraph::build(&CsrBuilder::new().build(&gen::path(8, 1)), 2, 1);
        let mut bufs = ProcBufs::prepared(&dg, ctx.owned());
        body(&mut ctx, &mut bufs)
    })
}

#[test]
fn trim_spares_releases_oversized_pool_buffers() {
    let trims = on_two_rank_threads(|ctx, bufs| {
        let mut marks = Marks::default();
        // Epoch 1: a flood superstep grows the lanes and the inbox.
        marks.step(bufs.superstep(ctx, 5000));
        let flood_trim = marks.end_epoch(bufs);
        // Epoch 2: steady trickle; the flood-sized buffers now exceed 4×
        // the epoch's high-water mark and must be released.
        marks.step(bufs.superstep(ctx, 1));
        let steady_trim = marks.end_epoch(bufs);
        // Later supersteps keep working after the release.
        (flood_trim, steady_trim, bufs.superstep(ctx, 1))
    });
    for (flood_trim, steady_trim, mark) in trims {
        assert_eq!(flood_trim, 0, "peak epoch keeps its buffers");
        assert!(steady_trim > 0, "oversized buffers must be released");
        assert_eq!(mark, 2);
    }
}

#[test]
fn trim_spares_keeps_pool_through_quiet_epochs() {
    // Regression: a quiet epoch (no traffic at all) has a zero mark. The
    // bound used to collapse to 0 and release every buffer, forcing
    // reallocation next epoch.
    let trims = on_two_rank_threads(|ctx, bufs| {
        let mut marks = Marks::default();
        // Epoch 1: modest traffic warms small buffers (capacity well under
        // the floor).
        marks.step(bufs.superstep(ctx, 8));
        marks.end_epoch(bufs);
        let warm = bufs.capacities();
        // Epoch 2: completely quiet — empty lanes, zero mark.
        marks.step(bufs.superstep(ctx, 0));
        let quiet_trim = marks.end_epoch(bufs);
        let kept = bufs.capacities();
        // Epoch 3: traffic resumes on the warm buffers.
        (warm, quiet_trim, kept, bufs.superstep(ctx, 1))
    });
    for (warm, quiet_trim, kept, mark) in trims {
        assert!(
            warm.iter().any(|&c| c > 0),
            "a busy epoch leaves warm buffers"
        );
        assert_eq!(quiet_trim, 0, "quiet epoch must keep its warm buffers");
        assert_eq!(kept, warm);
        assert_eq!(mark, 2);
    }
}

#[test]
fn finish_query_bounds_the_pool_for_mixed_size_query_sequences() {
    // Regression for the serving layer: a flood query must not pin its
    // flood-sized buffers into the next (tiny) query. The flood query's own
    // last epoch rightly keeps the big buffers; the trickle query's close
    // sheds them.
    let caps = on_two_rank_threads(|ctx, bufs| {
        // Query 1: flood.
        let mut marks = Marks::default();
        marks.step(bufs.superstep(ctx, 5000));
        marks.end_epoch(bufs);
        marks.end_query(bufs);
        let after_flood = bufs.max_buffer_capacity();
        // Query 2: trickle.
        let mut marks = Marks::default();
        marks.step(bufs.superstep(ctx, 1));
        marks.end_epoch(bufs);
        marks.end_query(bufs);
        let after_trickle = bufs.max_buffer_capacity();
        // Query 3: the buffers still work after the release.
        (after_flood, after_trickle, bufs.superstep(ctx, 1))
    });
    for (after_flood, after_trickle, mark) in caps {
        assert!(after_flood >= 5000, "flood query keeps its own buffers");
        assert!(
            after_trickle <= SPARE_CAPACITY_FLOOR,
            "small query must shed the flood-sized buffers \
             (max capacity {after_trickle})"
        );
        assert_eq!(mark, 2);
    }
}

#[test]
fn finish_query_uses_the_whole_query_watermark_not_the_last_epoch() {
    // The query mark is the maximum over the query's epoch marks: after a
    // busy epoch the epoch mark resets to 0, and closing the query with the
    // whole query's mark keeps the warm buffers where the last epoch's mark
    // would collapse them.
    let caps = on_two_rank_threads(|ctx, bufs| {
        let mut marks = Marks::default();
        marks.step(bufs.superstep(ctx, 1000));
        let at_epoch = marks.end_epoch(bufs);
        // The last epoch is quiet and leaves before its close, as one whose
        // bucket turns out empty does.
        marks.step(bufs.superstep(ctx, 0));
        let at_query = marks.end_query(bufs);
        let cap = bufs.max_buffer_capacity();
        shrink_released(bufs, marks.epoch);
        (at_epoch + at_query, cap, bufs.max_buffer_capacity())
    });
    for (released, cap, last_epoch_cap) in caps {
        assert_eq!(released, 0, "busy epoch is within the query bound");
        assert!(cap >= 1000, "query-scoped mark must keep the warm buffers");
        assert!(
            last_epoch_cap <= SPARE_CAPACITY_FLOOR,
            "the last epoch's mark alone sheds the buffers"
        );
    }
}

#[test]
fn own_proposals_apply_between_the_lower_and_the_higher_ranks_lanes() {
    // Rank 1 of 3 at Δ = 10: rank 0 proposes d(5) = 40, rank 1 kept 12 in
    // its own table, rank 2 proposes 30. In source order 40 lands first
    // (bucket 4), 12 moves the vertex to bucket 1 and leaves a stale entry
    // behind, and 30 cannot improve. Own proposals applied first would
    // leave no entry in bucket 4; applied last, one in bucket 3.
    let delta = crate::config::DeltaParam::Finite(10);
    let mut st = RankState::new(1, 8, 1);
    st.begin_phase();
    let mut own = sssp_comm::exchange::MinTable::new(8);
    own.fold(5, 12);
    own.fold(5, 14);
    let inbox = [
        RelaxMsg { target: 5, nd: 40 },
        RelaxMsg { target: 5, nd: 30 },
    ];
    let delivered = kernels::Delivered {
        inbox: &inbox,
        own_at: 1,
        own: &mut own,
    };
    kernels::apply_relax(&mut st, &delta, delivered, false);
    assert_eq!((st.dist[5], st.bucket_of[5]), (12, 1));
    let scans: Vec<usize> = (1..=4).map(|b| st.window_scan_len(b, b)).collect();
    assert_eq!(scans, [1, 0, 0, 1]);
    assert_eq!(own.pending(), (0, 0), "the apply drains the own table");
}
