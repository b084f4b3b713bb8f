//! Property-based tests of partitioning and vertex splitting.

use proptest::prelude::*;

use sssp_dist::{split_heavy_vertices, DistGraph, Partition};
use sssp_graph::rmat::{RmatGenerator, RmatParams};
use sssp_graph::{gen, Csr, CsrBuilder, VertexId};

/// External id of the rank address `a`, decoded back through
/// `part.to_global` (the partition position `vertex` reads).
fn external(dg: &DistGraph, a: VertexId) -> VertexId {
    let (owner, local) = (dg.addr.owner(a), dg.addr.local(a) as usize);
    assert!(
        local < dg.part.local_count(owner),
        "address {a} names no stored slot"
    );
    dg.vertex(owner, local)
}

/// Checks that `dg` stores `csr` as a hub-first permutation of each rank's
/// vertices: the two maps are inverse bijections that keep every vertex's
/// owner and thread residue, every stored row is the CSR row with its
/// targets translated (same order), degrees never increase along a residue
/// class of base vertices, and proxies stay where they are.
fn check_layout(csr: &Csr, dg: &DistGraph) -> Result<(), TestCaseError> {
    let (part, t) = (&dg.part, dg.threads_per_rank);
    let mut seen = vec![false; csr.num_vertices()];
    for v in csr.vertices() {
        let (r, l) = dg.locate(v);
        prop_assert_eq!(r, part.owner(v));
        prop_assert!(l < part.local_count(r));
        prop_assert_eq!(l % t, part.to_local(v) % t);
        prop_assert_eq!(dg.vertex(r, l), v);
        prop_assert!(!seen[part.to_global(r, l) as usize]);
        seen[part.to_global(r, l) as usize] = true;
        if part.is_proxy(v) {
            prop_assert_eq!(l, part.to_local(v));
        }
        let (ts, ws) = dg.locals[r].row(l);
        let ts: Vec<VertexId> = ts.iter().map(|&i| external(dg, i)).collect();
        let (gt, gw) = csr.row_slices(v);
        prop_assert_eq!(ts.as_slice(), gt);
        prop_assert_eq!(ws, gw);
        prop_assert_eq!(dg.degree(v), csr.degree(v));
    }
    for (r, lg) in dg.locals.iter().enumerate() {
        for l in t..part.base_count(r) {
            prop_assert!(lg.degree(l) <= lg.degree(l - t), "rank {} slot {}", r, l);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn partition_roundtrip(
        n in 0usize..200,
        n_proxy in 0usize..100,
        p in 1usize..17,
    ) {
        for part in [Partition::with_proxies(n, n_proxy, p), Partition::cyclic(n, p)] {
            let mut per_rank = vec![0usize; p];
            for v in 0..part.num_vertices() as u32 {
                let r = part.owner(v);
                prop_assert!(r < p);
                let l = part.to_local(v);
                prop_assert!(l < part.local_count(r));
                prop_assert_eq!(part.to_global(r, l), v);
                per_rank[r] += 1;
            }
            for (r, &cnt) in per_rank.iter().enumerate() {
                prop_assert_eq!(cnt, part.local_count(r));
            }
        }
    }

    #[test]
    fn dist_graph_covers_every_row(
        n in 2usize..80,
        m in 0usize..300,
        p in 1usize..9,
        seed in 0u64..50,
    ) {
        let csr = CsrBuilder::new().build(&gen::uniform(n, m, 30, seed));
        let dg = DistGraph::build(&csr, p, 2);
        for v in csr.vertices() {
            let (r, l) = dg.locate(v);
            let (t, w) = dg.locals[r].row(l);
            let t: Vec<VertexId> = t.iter().map(|&i| external(&dg, i)).collect();
            let (gt, gw) = csr.row_slices(v);
            prop_assert_eq!(t.as_slice(), gt);
            prop_assert_eq!(w, gw);
        }
    }

    #[test]
    fn hub_first_layout_is_a_residue_preserving_permutation(
        kind in 0usize..3,
        isolated in 0usize..6,
        pi in 0usize..4,
        t in 1usize..4,
        thr in 4usize..24,
        seed in 0u64..50,
    ) {
        let p = [1, 2, 3, 5][pi];
        let mut el = match kind {
            0 => gen::uniform(60, 240, 30, seed),
            1 => RmatGenerator::new(RmatParams::RMAT2, 6, 8)
                .seed(seed)
                .generate_weighted(30),
            _ => gen::grid(7, 30, seed),
        };
        el.n += isolated;
        let csr = CsrBuilder::new().build(&el);
        let m = csr.num_undirected_edges() as u64;
        check_layout(&csr, &DistGraph::build(&csr, p, t))?;
        check_layout(&csr, &DistGraph::build_cyclic(&csr, p, t))?;
        // The split layout `build_auto_split` builds once its trigger fires,
        // with a threshold low enough that proxies exist.
        let (split, part, _) = split_heavy_vertices(&csr, p, thr);
        check_layout(&split, &DistGraph::build_with_partition(&split, part, t, m))?;
    }

    #[test]
    fn every_target_is_the_rank_address_of_its_csr_neighbour(
        kind in 0usize..3,
        pi in 0usize..5,
        t in 1usize..4,
        thr in 4usize..24,
        seed in 0u64..50,
    ) {
        let p = [1, 2, 3, 5, 8][pi];
        let csr = match kind {
            0 => CsrBuilder::new().build(&gen::uniform(70, 260, 30, seed)),
            1 => CsrBuilder::new().build(
                &RmatGenerator::new(RmatParams::RMAT2, 6, 8)
                    .seed(seed)
                    .generate_weighted(30),
            ),
            _ => CsrBuilder::new().build(&gen::grid(7, 30, seed)),
        };
        let m = csr.num_undirected_edges() as u64;
        let (split, split_part, _) = split_heavy_vertices(&csr, p, thr);
        let layouts = [
            (&csr, DistGraph::build(&csr, p, t)),
            (&csr, DistGraph::build_cyclic(&csr, p, t)),
            (&split, DistGraph::build_with_partition(&split, split_part, t, m)),
        ];
        for (g, dg) in &layouts {
            for (rank, lg) in dg.locals.iter().enumerate() {
                for slot in 0..lg.num_local() {
                    let (ts, ws) = lg.row(slot);
                    let mut got = Vec::with_capacity(ts.len());
                    for &a in ts {
                        prop_assert!((a as usize) < dg.addr.end());
                        let (owner, local) = (dg.addr.owner(a), dg.addr.local(a) as usize);
                        prop_assert!(owner < p, "address {} names rank {}", a, owner);
                        prop_assert!(local < dg.part.local_count(owner));
                        let v = dg.vertex(owner, local);
                        prop_assert_eq!(dg.locate(v), (owner, local));
                        got.push(v);
                    }
                    let (gt, gw) = g.row_slices(dg.vertex(rank, slot));
                    prop_assert_eq!(got.as_slice(), gt);
                    prop_assert_eq!(ws, gw);
                    let (mut got, mut want) = (got, gt.to_vec());
                    got.sort_unstable();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn splitting_caps_proxy_degrees(
        n in 4usize..60,
        m in 10usize..400,
        p in 1usize..6,
        thr in 4usize..40,
        seed in 0u64..50,
    ) {
        let csr = CsrBuilder::new().build(&gen::uniform(n, m, 30, seed));
        let (split, part, rep) = split_heavy_vertices(&csr, p, thr);
        prop_assert_eq!(part.num_vertices(), split.num_vertices());
        // Proxies carry at most `thr` shard edges plus the zero-weight star
        // edge back to their original vertex.
        for v in n..split.num_vertices() {
            prop_assert!(split.degree(v as u32) <= thr + 1);
        }
        // Originals that were split now only touch proxies.
        if rep.proxies_created > 0 {
            for v in 0..n as u32 {
                if csr.degree(v) > thr {
                    prop_assert_eq!(split.degree(v), csr.degree(v).div_ceil(thr));
                }
            }
        }
    }

    #[test]
    fn splitting_preserves_shortest_distances(
        n in 4usize..50,
        m in 10usize..300,
        p in 1usize..6,
        thr in 3usize..20,
        seed in 0u64..50,
    ) {
        // Reference shortest distances via a small local Dijkstra.
        fn dijkstra(g: &sssp_graph::Csr, root: u32) -> Vec<u64> {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut dist = vec![u64::MAX; g.num_vertices()];
            let mut heap = BinaryHeap::new();
            dist[root as usize] = 0;
            heap.push(Reverse((0u64, root)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u as usize] { continue; }
                for (v, w) in g.row(u) {
                    let nd = d + w as u64;
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            dist
        }

        let csr = CsrBuilder::new().build(&gen::uniform(n, m, 30, seed));
        let (split, _, _) = split_heavy_vertices(&csr, p, thr);
        let before = dijkstra(&csr, 0);
        let after = dijkstra(&split, 0);
        for v in 0..n {
            prop_assert_eq!(before[v], after[v], "vertex {}", v);
        }
    }

    #[test]
    fn thread_loads_conserve_work(
        threads in 1usize..16,
        charges in proptest::collection::vec((0usize..64, 0u64..1000, any::<bool>()), 0..40),
    ) {
        let mut loads = sssp_dist::ThreadLoads::new(threads);
        let mut total = 0u64;
        for (local, n, balanced) in charges {
            loads.charge(local, n, balanced);
            total += n;
        }
        prop_assert_eq!(loads.total(), total);
        prop_assert!(loads.max() <= total);
        // Max is at least the average (pigeonhole).
        prop_assert!(loads.max() as u128 * threads as u128 >= total as u128);
    }
}
