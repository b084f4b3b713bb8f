//! Property-based tests of the graph substrate.

use proptest::prelude::*;

use sssp_graph::{gen, CsrBuilder, Edge, EdgeList};

/// Rows per bin of `CsrBuilder`'s binning pass.
const BIN_ROWS: usize = 4096;
/// Edges per worker below which `CsrBuilder` uses fewer workers.
const MIN_CHUNK: usize = 1 << 14;

/// Edge lists over 1 to just past three bins of rows, exact multiples of
/// the bin width included, with self-loops, duplicate pairs (some with the
/// same weight, some not) and one hub. Up to three workers' worth of edges,
/// so the build's chunking follows `RAYON_NUM_THREADS`.
fn arb_binned_edge_list() -> impl Strategy<Value = EdgeList> {
    // Half the cases land on an exact multiple of the bin width.
    (0usize..6, 1usize..3 * BIN_ROWS + 3)
        .prop_map(|(pick, n)| if pick < 3 { n } else { (pick - 2) * BIN_ROWS })
        .prop_flat_map(|n| {
            let v = 0..n as u32;
            (
                proptest::collection::vec((v.clone(), v.clone(), 1u32..16), 0..3 * MIN_CHUNK),
                proptest::collection::vec((v.clone(), 1u32..16), 0..20),
                proptest::collection::vec((any::<prop::sample::Index>(), 0u32..3), 0..60),
                v.clone(),
                proptest::collection::vec((v, 1u32..16), 0..300),
            )
                .prop_map(move |(random, loops, dups, hub, spokes)| {
                    let mut edges: Vec<Edge> = random
                        .into_iter()
                        .map(|(u, v, w)| Edge { u, v, w })
                        .collect();
                    edges.extend(loops.into_iter().map(|(u, w)| Edge { u, v: u, w }));
                    edges.extend(spokes.into_iter().map(|(v, w)| Edge { u: hub, v, w }));
                    if !edges.is_empty() {
                        // A copy of an earlier edge, reversed every other time,
                        // with its weight raised by 0 to 2.
                        for (i, (at, dw)) in dups.into_iter().enumerate() {
                            let e = edges[at.index(edges.len())];
                            let (u, v) = if i % 2 == 0 { (e.u, e.v) } else { (e.v, e.u) };
                            edges.push(Edge { u, v, w: e.w + dw });
                        }
                    }
                    EdgeList { n, edges }
                })
        })
}

/// Every directed slot of the CSR `el` should build, as `(row, weight,
/// target)` sorted: kept edges both ways, after `dedup_min_weight`'s
/// collapse to the lightest edge per pair when `dedup` is set.
fn reference_slots(el: &EdgeList, drop_self_loops: bool, dedup: bool) -> Vec<(u32, u32, u32)> {
    let mut kept: Vec<(u32, u32, u32)> = el
        .edges
        .iter()
        .filter(|e| !(drop_self_loops && e.u == e.v))
        .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w))
        .collect();
    if dedup {
        kept.sort_unstable();
        kept.dedup_by_key(|e| (e.0, e.1));
    }
    let mut slots: Vec<_> = kept
        .into_iter()
        .flat_map(|(u, v, w)| [(u, w, v), (v, w, u)])
        .collect();
    slots.sort_unstable();
    slots
}

fn csr_slots(g: &sssp_graph::Csr) -> Vec<(u32, u32, u32)> {
    g.vertices()
        .flat_map(|v| g.row(v).map(move |(t, w)| (v, w, t)))
        .collect()
}

fn arb_edge_list() -> impl Strategy<Value = EdgeList> {
    (2usize..80).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..100), 0..300);
        edges.prop_map(move |es| EdgeList {
            n,
            edges: es.into_iter().map(|(u, v, w)| Edge { u, v, w }).collect(),
        })
    })
}

proptest! {
    // Each case builds up to 50 000 edges three times.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn csr_rows_across_bins_match_the_reference(el in arb_binned_edge_list()) {
        for (builder, drop_self_loops, dedup) in [
            (CsrBuilder::new(), true, false),
            (CsrBuilder::new().keep_self_loops(), false, false),
            (CsrBuilder::new().dedup_min_weight(), true, true),
        ] {
            let g = builder.build(&el);
            prop_assert_eq!(g.num_vertices(), el.n);
            prop_assert_eq!(csr_slots(&g), reference_slots(&el, drop_self_loops, dedup));
        }
    }
}

proptest! {
    #[test]
    fn csr_preserves_non_loop_edges(el in arb_edge_list()) {
        let g = CsrBuilder::new().build(&el);
        let expected = el.edges.iter().filter(|e| e.u != e.v).count();
        prop_assert_eq!(g.num_undirected_edges(), expected);
        prop_assert_eq!(g.num_directed_edges(), 2 * expected);
    }

    #[test]
    fn csr_edge_multiset_roundtrips(el in arb_edge_list()) {
        let g = CsrBuilder::new().build(&el);
        let mut original: Vec<(u32, u32, u32)> = el
            .edges
            .iter()
            .filter(|e| e.u != e.v)
            .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w))
            .collect();
        let mut roundtrip: Vec<(u32, u32, u32)> =
            g.undirected_edges().map(|(u, v, w)| (u.min(v), u.max(v), w)).collect();
        original.sort_unstable();
        roundtrip.sort_unstable();
        prop_assert_eq!(original, roundtrip);
    }

    #[test]
    fn rows_are_weight_sorted(el in arb_edge_list()) {
        let g = CsrBuilder::new().build(&el);
        for v in g.vertices() {
            let ws: Vec<u32> = g.row(v).map(|(_, w)| w).collect();
            prop_assert!(ws.windows(2).all(|p| p[0] <= p[1]));
        }
    }

    #[test]
    fn count_weight_below_matches_linear_scan(el in arb_edge_list(), bound in 0u32..120) {
        let g = CsrBuilder::new().build(&el);
        for v in g.vertices() {
            let expect = g.row(v).filter(|&(_, w)| w < bound).count();
            prop_assert_eq!(g.count_weight_below(v, bound), expect);
        }
    }

    #[test]
    fn degrees_sum_to_directed_edges(el in arb_edge_list()) {
        let g = CsrBuilder::new().build(&el);
        let sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, g.num_directed_edges());
    }

    #[test]
    fn dedup_is_idempotent_and_minimal(el in arb_edge_list()) {
        let g = CsrBuilder::new().dedup_min_weight().build(&el);
        // No duplicate (u, v) pairs remain in any row.
        for v in g.vertices() {
            let mut targets: Vec<u32> = g.row(v).map(|(t, _)| t).collect();
            let before = targets.len();
            targets.sort_unstable();
            targets.dedup();
            prop_assert_eq!(before, targets.len());
        }
    }

    #[test]
    fn uniform_generator_respects_bounds(
        n in 2usize..60,
        m in 0usize..200,
        w_max in 1u32..50,
        seed in 0u64..1000,
    ) {
        let el = gen::uniform(n, m, w_max, seed);
        prop_assert_eq!(el.len(), m);
        for e in &el.edges {
            prop_assert!((e.u as usize) < n && (e.v as usize) < n);
            prop_assert!(e.w >= 1 && e.w <= w_max);
        }
    }

    #[test]
    fn rmat_deterministic_across_calls(scale in 4u32..9, seed in 0u64..100) {
        use sssp_graph::rmat::{RmatGenerator, RmatParams};
        let g1 = RmatGenerator::new(RmatParams::RMAT2, scale, 4).seed(seed).generate_tuples();
        let g2 = RmatGenerator::new(RmatParams::RMAT2, scale, 4).seed(seed).generate_tuples();
        prop_assert_eq!(g1, g2);
    }
}
