//! Fig. 3 — comparison of the basic and proposed algorithms on both graph
//! families: (a) number of phases, (b) number of relaxations.
//!
//! Paper shape to reproduce: Bellman-Ford fewest phases, Dijkstra most;
//! Δ-stepping in between, trending toward Dijkstra as Δ shrinks. For
//! relaxations the order reverses, and `Prune` beats even Dijkstra by a
//! large factor (≈5× on RMAT-1).
//!
//! `--backend simulated|threaded` picks the engine (default simulated);
//! the unified telemetry layer makes the figure identical on both.

use std::sync::Arc;

use sssp_bench::*;
use sssp_comm::cost::MachineModel;
use sssp_core::config::SsspConfig;
use sssp_dist::DistGraph;

fn main() {
    let backend = backend_from_args();
    let scale = scale_per_rank() + 4;
    let ranks = 16;
    let model = MachineModel::bgq_like();

    for family in [Family::Rmat1, Family::Rmat2] {
        let g = build_family(family, scale, 1);
        let dg = Arc::new(DistGraph::build(&g, ranks, 4));
        let roots = pick_roots(&g, 4, 11);

        let algos: Vec<(&str, SsspConfig)> = vec![
            ("Bellman-Ford", SsspConfig::bellman_ford()),
            ("Dijkstra", SsspConfig::dijkstra()),
            ("Del-10", SsspConfig::del(10)),
            ("Del-25", SsspConfig::del(25)),
            ("Del-40", SsspConfig::del(40)),
            ("Hybrid-25", SsspConfig::del(25).with_hybrid(Some(0.4))),
            ("Prune-25", SsspConfig::prune(25)),
            ("OPT-25", SsspConfig::opt(25)),
            ("Rho-2k", SsspConfig::rho(2048)),
            ("Radius-8", SsspConfig::radius(8)),
        ];

        let mut rows = Vec::new();
        for (name, cfg) in &algos {
            let (mut phases, mut buckets, mut relaxations) = (0.0f64, 0.0f64, 0u64);
            for &root in &roots {
                let (_, trace) = run_trace(&dg, root, cfg, &model, backend);
                let (p, b, r) = trace_series(&trace);
                phases += p as f64;
                buckets += b as f64;
                relaxations += r;
            }
            let k = roots.len() as f64;
            rows.push(vec![
                name.to_string(),
                format!("{:.1}", phases / k),
                format!("{:.1}", buckets / k),
                human(relaxations as f64 / k),
            ]);
        }
        print_table(
            &format!(
                "Fig 3 — {} scale {scale}, {ranks} ranks, {} roots, {} backend",
                family.name(),
                roots.len(),
                backend.name()
            ),
            &["algorithm", "phases (3a)", "buckets", "relaxations (3b)"],
            &rows,
        );
    }
}
