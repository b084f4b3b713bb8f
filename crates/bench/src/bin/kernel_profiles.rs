//! Communication profiles of every kernel on the same graph and machine —
//! a substrate showcase comparing what each algorithm asks of the network.
//!
//! SSSP (LB-OPT), BFS, radius stepping at ρ = 1, PageRank and connected
//! components all run on the identical simulated cluster; the table
//! contrasts supersteps, message counts, bytes and simulated time. The
//! expected shape: BFS is the cheapest (each edge at most once per
//! direction, early-exit bottom-up), LB-OPT SSSP lands within a small
//! factor of it (the paper's Fig 1 framing), radius-1 stepping — Crauser et
//! al.'s OUT criterion on the one engine — pays many more synchronized
//! phases, PageRank moves every edge every iteration, and CC sits near BFS.

use sssp_bench::*;
use sssp_comm::cost::MachineModel;
use sssp_core::bfs::run_bfs;
use sssp_core::cc::run_cc;
use sssp_core::config::SsspConfig;
use sssp_core::engine::run_sssp;
use sssp_core::pagerank::{run_pagerank, PageRankConfig};
use sssp_dist::DistGraph;

fn main() {
    let scale = scale_per_rank() + 3;
    let ranks = 16;
    let model = MachineModel::bgq_like();
    let csr = build_family(Family::Rmat1, scale, 1);
    let dg = DistGraph::build(&csr, ranks, 64);
    let root = pick_roots(&csr, 1, 5)[0];
    let m = csr.num_undirected_edges() as u64;

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |name: &str, steps: usize, msgs: u64, bytes: u64, secs: f64| {
        rows.push(vec![
            name.into(),
            steps.to_string(),
            human(msgs as f64),
            human(bytes as f64),
            format!("{secs:.2e}"),
            format!("{:.3}", sssp_comm::cost::teps(m, secs) / 1e9),
        ]);
    };

    let sssp = run_sssp(&dg, root, &SsspConfig::lb_opt(25), &model);
    push(
        "SSSP (LB-OPT-25)",
        sssp.stats.comm.num_supersteps(),
        sssp.stats.comm.total_msgs(),
        sssp.stats.comm.total_remote_bytes(),
        sssp.stats.ledger.total_s(),
    );

    let bfs = run_bfs(&dg, root, &model);
    push(
        "BFS (dir-opt)",
        bfs.stats.comm.num_supersteps(),
        bfs.stats.comm.total_msgs(),
        bfs.stats.comm.total_remote_bytes(),
        bfs.stats.ledger.total_s(),
    );

    let radius = run_sssp(&dg, root, &SsspConfig::radius(1), &model);
    push(
        "Radius-1 (Crauser OUT)",
        radius.stats.comm.num_supersteps(),
        radius.stats.comm.total_msgs(),
        radius.stats.comm.total_remote_bytes(),
        radius.stats.ledger.total_s(),
    );

    let pr = run_pagerank(
        &dg,
        &PageRankConfig {
            tolerance: 1e-6,
            ..Default::default()
        },
        &model,
    );
    push(
        "PageRank (to 1e-6)",
        pr.comm.num_supersteps(),
        pr.comm.total_msgs(),
        pr.comm.total_remote_bytes(),
        pr.ledger.total_s(),
    );

    let cc = run_cc(&dg, &model);
    push(
        "Connected comps",
        cc.comm.num_supersteps(),
        cc.comm.total_msgs(),
        cc.comm.total_remote_bytes(),
        cc.ledger.total_s(),
    );

    print_table(
        &format!("Kernel profiles — RMAT-1 scale {scale}, {ranks} ranks"),
        &[
            "kernel",
            "supersteps",
            "messages",
            "wire bytes",
            "sim time (s)",
            "GTEPS-equiv",
        ],
        &rows,
    );
    println!(
        "\nPageRank ran {} iterations{}; CC {} rounds; SSSP/BFS time ratio {:.1}x.",
        pr.iterations,
        if pr.converged { " (converged)" } else { "" },
        cc.rounds,
        sssp.stats.ledger.total_s() / bfs.stats.ledger.total_s()
    );
}
