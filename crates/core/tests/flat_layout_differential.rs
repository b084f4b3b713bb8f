//! Differential suite for the flat hot-path data layout: the lazy cyclic
//! flat bucket queue and the stamp-bitset frontiers must be
//! observationally identical to an eager `BTreeMap` bucket-queue oracle —
//! same pop order, counts and window proposals per epoch at the bucket
//! widths the stepping policies use — and end to end both transports must
//! match the sequential references, degenerate graphs included. The oracle
//! is an in-test reference model of the retired `BTreeMap` layout.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use sssp_comm::cost::MachineModel;
use sssp_core::config::SsspConfig;
use sssp_core::engine::run_sssp;
use sssp_core::policy::NO_PROPOSAL;
use sssp_core::state::{RankState, INF, INF_BUCKET};
use sssp_core::{seq, threaded_delta_stepping_traced, DeltaParam};
use sssp_dist::DistGraph;
use sssp_graph::{gen, Csr, CsrBuilder, EdgeList};

/// Nightly TSan runs dial proptest down via `PROPTEST_CASES`; honor it
/// like the other differential suites do.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..50, 0usize..200, 1u32..60, 0u64..1000)
        .prop_map(|(n, m, w_max, seed)| CsrBuilder::new().build(&gen::uniform(n, m, w_max, seed)))
}

/// One configuration per stepping policy.
fn policy_matrix() -> Vec<SsspConfig> {
    vec![
        SsspConfig::del(13),
        SsspConfig::opt(20),
        SsspConfig::rho(8),
        SsspConfig::radius(2),
    ]
}

/// The reference bucket queue: an eager `BTreeMap<bucket, members>` with
/// push-order member vectors — exactly the retired legacy layout's
/// semantics, rebuilt as a test-local model. Relaxations move the vertex
/// eagerly (remove from the old bucket, append to the new one), so member
/// vectors hold live entries only and counts are their lengths.
struct OracleBuckets {
    dist: Vec<u64>,
    bucket_of: Vec<u64>,
    buckets: BTreeMap<u64, Vec<u32>>,
}

impl OracleBuckets {
    fn new(n: usize) -> Self {
        OracleBuckets {
            dist: vec![INF; n],
            bucket_of: vec![INF_BUCKET; n],
            buckets: BTreeMap::new(),
        }
    }

    fn set_root(&mut self, v: u32) {
        self.dist[v as usize] = 0;
        self.bucket_of[v as usize] = 0;
        self.buckets.entry(0).or_default().push(v);
    }

    fn relax(&mut self, v: u32, nd: u64, delta: &DeltaParam) -> bool {
        let li = v as usize;
        if nd >= self.dist[li] {
            return false;
        }
        let old_b = self.bucket_of[li];
        let new_b = delta.bucket_of(nd);
        self.dist[li] = nd;
        if new_b < old_b {
            if old_b != INF_BUCKET {
                let members = self.buckets.get_mut(&old_b).expect("bucket exists");
                let pos = members.iter().position(|&m| m == v).expect("member exists");
                members.remove(pos);
            }
            self.buckets.entry(new_b).or_default().push(v);
            self.bucket_of[li] = new_b;
        }
        true
    }

    /// Drop every bucket the frontier passed (the advance contract: no
    /// query ever looks below the epoch's bucket again).
    fn advance(&mut self, k: u64) {
        self.buckets = self.buckets.split_off(&k);
    }

    fn next_nonempty_after(&self, k: Option<u64>) -> Option<u64> {
        let start = match k {
            Some(k) => k + 1,
            None => 0,
        };
        self.buckets
            .range(start..)
            .find(|(_, m)| !m.is_empty())
            .map(|(&b, _)| b)
    }

    fn bucket_count(&self, k: u64) -> u64 {
        self.buckets.get(&k).map_or(0, |m| m.len() as u64)
    }

    fn window_count(&self, lo: u64, hi: u64) -> u64 {
        self.buckets
            .range(lo..=hi)
            .map(|(_, m)| m.len() as u64)
            .sum()
    }

    fn count_unsettled_after(&self, k: u64) -> u64 {
        let later: u64 = self
            .buckets
            .range(k.saturating_add(1)..)
            .map(|(_, m)| m.len() as u64)
            .sum();
        let infinite = self.bucket_of.iter().filter(|&&b| b == INF_BUCKET).count() as u64;
        later + infinite
    }

    fn prefix_window_end(&self, k: u64, cap: u64) -> u64 {
        let mut cum = 0u64;
        let mut last = k;
        for (&b, m) in self.buckets.range(k..) {
            if m.is_empty() {
                continue;
            }
            cum += m.len() as u64;
            if cum > cap {
                return if b == k { k } else { last };
            }
            last = b;
        }
        if cum == 0 {
            NO_PROPOSAL
        } else {
            last
        }
    }

    fn window_members(&self, lo: u64, hi: u64) -> Vec<u32> {
        self.buckets
            .range(lo..=hi)
            .flat_map(|(_, m)| m.iter().copied())
            .collect()
    }
}

/// Drive one relax/advance script through a flat [`RankState`] and the
/// eager `BTreeMap` oracle in lockstep at bucket width `delta`, comparing every
/// bucket-queue observation the engines make: epoch selection, live
/// counts, window counts and proposals, member sets, and (for in-ring
/// windows, where the flat layout guarantees bucket-then-push order)
/// exact member order.
fn drive_differential(
    n: usize,
    delta: &DeltaParam,
    script: &[(usize, u64)],
    order_exact: bool,
) -> Result<(), TestCaseError> {
    let mut flat = RankState::new(0, n, 1);
    let mut oracle = OracleBuckets::new(n);
    flat.relax(0, 0, delta);
    oracle.set_root(0);

    let mut epoch = 0u64;
    for chunk in script.chunks(8) {
        for &(v, nd) in chunk {
            let v = v as u32;
            // Respect the engine's epoch invariant the layout is built
            // around: settled vertices (bucket below the current epoch)
            // never improve, and no relaxation lands below the epoch
            // bucket. The skip decision reads identical state on both
            // sides, so they stay in lockstep.
            if delta.bucket_of(nd) < epoch || flat.bucket_of[v as usize] < epoch {
                continue;
            }
            let fr = flat.relax(v, nd, delta);
            let or = oracle.relax(v, nd, delta);
            prop_assert_eq!(fr, or, "relax({}, {}) disagreed", v, nd);
        }

        let from = epoch.checked_sub(1);
        let k = flat.next_nonempty_after(from);
        prop_assert_eq!(
            k,
            oracle.next_nonempty_after(from),
            "epoch selection diverged after epoch {}",
            epoch
        );
        let Some(k) = k else { continue };
        flat.advance_frontier(k);
        oracle.advance(k);
        epoch = k;

        prop_assert_eq!(flat.window_count(k, k), oracle.bucket_count(k));
        prop_assert_eq!(flat.window_count(k, k + 7), oracle.window_count(k, k + 7));
        prop_assert_eq!(
            flat.count_unsettled_after(k),
            oracle.count_unsettled_after(k)
        );
        for cap in [0u64, 2, 16] {
            prop_assert_eq!(
                flat.prefix_window_end(k, cap),
                oracle.prefix_window_end(k, cap),
                "prefix_window_end(k = {}, cap = {}) diverged",
                k,
                cap
            );
        }
        prop_assert_eq!(
            flat.next_nonempty_after(Some(k)),
            oracle.next_nonempty_after(Some(k))
        );

        let mut fm: Vec<u32> = flat.bucket_members(k).collect();
        let mut om: Vec<u32> = oracle.window_members(k, k);
        if order_exact {
            prop_assert_eq!(&fm, &om, "bucket {} pop order diverged", k);
        }
        fm.sort_unstable();
        om.sort_unstable();
        prop_assert_eq!(fm, om, "bucket {} member set diverged", k);

        let mut fw: Vec<u32> = flat.window_members(k, k + 7).collect();
        let mut ow: Vec<u32> = oracle.window_members(k, k + 7);
        if order_exact {
            prop_assert_eq!(&fw, &ow, "window [{}, {}] pop order diverged", k, k + 7);
        }
        fw.sort_unstable();
        ow.sort_unstable();
        prop_assert_eq!(fw, ow, "window [{}, {}] member set diverged", k, k + 7);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    // In-ring scripts (distances well inside one ring revolution): every
    // observation including pop order must match at Δ-stepping's width
    // and at the Δ = 1 the ρ and radius rules run at.
    #[test]
    fn flat_queue_matches_the_oracle_in_ring(
        n in 2usize..40,
        script in proptest::collection::vec((0usize..40, 0u64..400), 0..120),
    ) {
        let script: Vec<(usize, u64)> =
            script.into_iter().map(|(v, d)| (v % n, d)).collect();
        drive_differential(n, &DeltaParam::Finite(7), &script, true)?;
        drive_differential(n, &DeltaParam::Finite(1), &script, true)?;
    }

    // Far-bucket scripts (Dial-granularity distances many ring
    // revolutions out): pushes overflow into the spill list and migrate
    // back as the frontier advances. Member sets, counts and proposals
    // must still match exactly; spill order is unspecified, so the order
    // check is off.
    #[test]
    fn flat_queue_matches_the_oracle_through_the_spill(
        n in 2usize..40,
        script in proptest::collection::vec((0usize..40, 0u64..50_000), 0..120),
    ) {
        let script: Vec<(usize, u64)> =
            script.into_iter().map(|(v, d)| (v % n, d)).collect();
        drive_differential(n, &DeltaParam::Finite(1), &script, false)?;
        drive_differential(n, &DeltaParam::Finite(3), &script, false)?;
    }

    // End to end: for every stepping policy, both backends produce
    // distances matching the radix-heap Dijkstra reference, and the
    // backends match each other bit for bit.
    #[test]
    fn backends_agree_end_to_end_on_the_flat_layout(
        g in arb_graph(),
        p in 1usize..6,
        root_pick in any::<prop::sample::Index>(),
    ) {
        let root = root_pick.index(g.num_vertices()) as u32;
        let expect = seq::dijkstra_radix(&g, root);
        let dg = Arc::new(DistGraph::build(&g, p, 2));
        let model = MachineModel::bgq_like();
        for cfg in policy_matrix() {
            let sim = run_sssp(&dg, root, &cfg, &model);
            prop_assert_eq!(
                &sim.distances, &expect,
                "simulated distances diverged, p = {}, cfg = {:?}", p, &cfg
            );
            let (thr, _) = threaded_delta_stepping_traced(&dg, root, &cfg, &model);
            prop_assert_eq!(
                &thr.distances, &expect,
                "threaded distances diverged, p = {}, cfg = {:?}", p, &cfg
            );
        }
    }
}

/// The stamp-bitset frontiers on the degenerate shapes the telemetry
/// suite watches: a single-vertex graph (one partly-used bitset word), an
/// edgeless graph across more ranks than edges, and a disconnected pair
/// where half the vertices never enter any frontier. Both backends must
/// produce the expected distances under every policy.
#[test]
fn degenerate_graphs_agree_across_backends() {
    let model = MachineModel::bgq_like();

    let single = CsrBuilder::new().build(&EdgeList::new(1));
    let edgeless = CsrBuilder::new().build(&EdgeList::new(4));
    let mut el = EdgeList::new(4);
    el.push(0, 1, 5);
    el.push(2, 3, 1);
    let disconnected = CsrBuilder::new().build(&el);

    let shapes: Vec<(&str, Csr, usize, Vec<u64>)> = vec![
        ("single vertex", single, 2, vec![0]),
        ("edgeless", edgeless, 3, vec![0, INF, INF, INF]),
        ("disconnected pair", disconnected, 2, vec![0, 5, INF, INF]),
    ];

    for (name, g, p, expect) in shapes {
        let dg = Arc::new(DistGraph::build(&g, p, 2));
        for cfg in policy_matrix() {
            let sim = run_sssp(&dg, 0, &cfg, &model);
            assert_eq!(sim.distances, expect, "{name}: simulated, cfg = {cfg:?}");
            let (thr, _) = threaded_delta_stepping_traced(&dg, 0, &cfg, &model);
            assert_eq!(thr.distances, expect, "{name}: threaded, cfg = {cfg:?}");
        }
    }
}
