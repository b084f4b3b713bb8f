//! Fig. 9 — the stepping-parameter sweep on RMAT-1 weak scaling, from
//! Δ = 1 (Dijkstra) through the Δ sweet spot to Δ = ∞ (Bellman-Ford),
//! extended with the non-Δ stepping policies (ρ-stepping and radius
//! stepping) the policy engine supports.
//!
//! Paper shape to reproduce: both Δ extremes perform poorly (Dijkstra
//! drowns in buckets, Bellman-Ford in redundant relaxations); Δ between
//! 10 and 50 is the sweet spot. The policy rows land on the same
//! trade-off curve: a window policy buys fewer epochs at the price of
//! more speculative relaxations.
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
    let spr = scale_per_rank();
    let model = MachineModel::bgq_like();
    let sweep: Vec<(&str, SsspConfig)> = vec![
        ("Δ=1 (Dijkstra)", SsspConfig::dijkstra()),
        ("Δ=5", SsspConfig::del(5)),
        ("Δ=10", SsspConfig::del(10)),
        ("Δ=25", SsspConfig::del(25)),
        ("Δ=50", SsspConfig::del(50)),
        ("Δ=100", SsspConfig::del(100)),
        ("Δ=∞ (B-Ford)", SsspConfig::bellman_ford()),
        ("ρ=1k", SsspConfig::rho(1024)),
        ("ρ=4k", SsspConfig::rho(4096)),
        ("radius ρ=4", SsspConfig::radius(4)),
        ("radius ρ=8", SsspConfig::radius(8)),
    ];

    for p in weak_scaling_ranks() {
        let scale = spr + (p as f64).log2() as u32;
        let g = build_family(Family::Rmat1, scale, 1);
        let dg = Arc::new(DistGraph::build(&g, p, 4));
        let roots = pick_roots(&g, 2, 17);

        let mut rows = Vec::new();
        for (name, cfg) in &sweep {
            let (mut phases, mut buckets, mut relaxations) = (0.0f64, 0.0f64, 0u64);
            for &root in &roots {
                let (_, trace) = run_trace(&dg, root, cfg, &model, backend);
                let (ph, b, r) = trace_series(&trace);
                phases += ph as f64;
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
                "Fig 9 — RMAT-1 stepping sweep, scale {scale}, {p} ranks, {} roots, {} backend",
                roots.len(),
                backend.name()
            ),
            &["policy", "phases", "buckets", "relaxations"],
            &rows,
        );
    }
    println!("\nPaper expectation: Δ in [10, 50] best; Δ=1 and Δ=∞ markedly worse.");
    println!("Window policies (ρ, radius) trade more relaxations for fewer epochs.");
}
