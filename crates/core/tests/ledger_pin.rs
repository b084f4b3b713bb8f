//! Pins the simulated-time ledger and the relaxation counters of
//! `run_sssp` against literals captured before the engine's two epoch
//! loops were merged into one driver. The cost model is a recorder now;
//! it must perform the same f64 additions in the same order, so every
//! figure built on `stats.ledger` stays bit-identical.

use sssp_comm::cost::MachineModel;
use sssp_core::config::{DirectionPolicy, SsspConfig};
use sssp_core::engine::run_sssp;
use sssp_dist::DistGraph;
use sssp_graph::{gen, CsrBuilder};

/// `(config, ranks, total_s bits, bucket_s bits, relax_s bits, phases,
/// epochs, [short, outer-short, long-push, requests, responses, BF])`.
type Pin = (&'static str, usize, u64, u64, u64, u64, u64, [u64; 6]);

#[rustfmt::skip]
const PINS: [Pin; 6] = [
    ("opt", 3, 0x3f4a6396dbd7b543, 0x3f410a26d3062a76, 0x3f32b2e011a3159a, 32, 9, [116, 168, 2763, 0, 0, 2617]),
    ("opt", 8, 0x3f56fbceb1c31ff0, 0x3f510a1d291f77e0, 0x3f37c6c6228ea041, 32, 9, [116, 168, 2763, 0, 0, 2617]),
    ("lb_opt", 3, 0x3f4a59dbc7193744, 0x3f410a26d3062a76, 0x3f329f69e826199b, 32, 9, [116, 168, 2763, 0, 0, 2617]),
    ("lb_opt", 8, 0x3f56f2a9efecd145, 0x3f510a1d291f77e0, 0x3f37a2331b356593, 32, 9, [116, 168, 2763, 0, 0, 2617]),
    ("prune_pull", 3, 0x3f578e066879e701, 0x3f4b8692c583c71e, 0x3f43957a0b7006e4, 49, 17, [187, 251, 0, 27641, 1032, 0]),
    ("prune_pull", 8, 0x3f61f9ec5973d382, 0x3f5b868084972070, 0x3f40dab05ca10d26, 49, 17, [187, 251, 0, 27641, 1032, 0]),
];

#[test]
fn ledger_and_counters_match_the_pre_merge_engine() {
    // Sparse uniform graph plus one hub with 150 long edges: nine epochs,
    // a hybrid tail, and a vertex heavy enough for LB-OPT to differ.
    let mut el = gen::uniform(600, 2400, 100, 7);
    for v in 0..150u32 {
        el.push(1, 4 * v + 3, 40 + v % 50);
    }
    let g = CsrBuilder::new().build(&el);
    let model = MachineModel::bgq_like();
    for (name, p, total, bucket, relax, phases, epochs, counters) in PINS {
        let cfg = match name {
            "opt" => SsspConfig::opt(10),
            "lb_opt" => SsspConfig::lb_opt(10),
            _ => SsspConfig::prune(10).with_direction(DirectionPolicy::AlwaysPull),
        };
        let dg = DistGraph::build(&g, p, 4);
        let s = run_sssp(&dg, 0, &cfg, &model).stats;
        assert_eq!(s.ledger.total_s().to_bits(), total, "{name} p={p} total_s");
        assert_eq!(s.ledger.bucket_s.to_bits(), bucket, "{name} p={p} bucket_s");
        assert_eq!(s.ledger.relax_s.to_bits(), relax, "{name} p={p} relax_s");
        assert_eq!((s.phases, s.epochs), (phases, epochs), "{name} p={p}");
        let got = [
            s.short_relaxations,
            s.outer_short_relaxations,
            s.long_push_relaxations,
            s.pull_requests,
            s.pull_responses,
            s.bf_relaxations,
        ];
        assert_eq!(got, counters, "{name} p={p} relaxation counters");
    }
}
