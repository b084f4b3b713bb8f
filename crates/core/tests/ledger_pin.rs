//! Pins the simulated-time ledger and the relaxation counters of
//! `run_sssp` against literals captured before the engine's two epoch
//! loops were merged into one driver. The cost model is a recorder now;
//! it must perform the same f64 additions in the same order, so every
//! figure built on `stats.ledger` stays bit-identical.

use sssp_comm::cost::MachineModel;
use sssp_core::config::{DirectionPolicy, SsspConfig, SteppingPolicyKind};
use sssp_core::engine::run_sssp;
use sssp_dist::DistGraph;
use sssp_graph::{gen, Csr, CsrBuilder};

/// `(config, ranks, total_s bits, bucket_s bits, relax_s bits, phases,
/// epochs, [short, outer-short, long-push, requests, responses])`.
///
/// The `opt` and `lb_opt` rows were re-recorded when the hybrid tail became
/// doubling Δ-windows (PR 26). The 2617 relaxations of the old Bellman-Ford
/// rounds (and their counter column) are gone. The windowed epochs spend
/// 358 short, 313 outer-short and 4431 long-push relaxations instead of
/// 116 / 168 / 2763: 5102 in all against 5664. Phases go 32 → 37 and
/// `total_s` 0.805 → 0.959 ms at p = 3, 1.403 → 1.687 ms at p = 8. Epochs
/// count only the buckets before the switch and stay at 9. `prune_pull`
/// has no τ and is byte-identical.
///
/// The `rho`, `radius` and `opt_rho` rows pin the window rules before they
/// were folded into one policy shape. `opt_rho` is the CLI's
/// `--policy rho` path: OPT's τ tail running over the ρ rule's
/// unit-width buckets.
type Pin = (&'static str, usize, u64, u64, u64, u64, u64, [u64; 5]);

#[rustfmt::skip]
const PINS: [Pin; 12] = [
    ("opt", 3, 0x3f4f6c1f15a2873c, 0x3f44510ded3123f6, 0x3f36362250e2c68b, 37, 9, [358, 313, 4431, 0, 0]),
    ("opt", 8, 0x3f5ba591b93f4028, 0x3f5450fcbf253bce, 0x3f3d5253e868116a, 37, 9, [358, 313, 4431, 0, 0]),
    ("lb_opt", 3, 0x3f4f626400e4093c, 0x3f44510ded3123f6, 0x3f3622ac2765ca8b, 37, 9, [358, 313, 4431, 0, 0]),
    ("lb_opt", 8, 0x3f5b9c6cf768f17d, 0x3f5450fcbf253bce, 0x3f3d2dc0e10ed6bc, 37, 9, [358, 313, 4431, 0, 0]),
    ("prune_pull", 3, 0x3f578e066879e701, 0x3f4b8692c583c71e, 0x3f43957a0b7006e4, 49, 17, [187, 251, 0, 27641, 1032]),
    ("prune_pull", 8, 0x3f61f9ec5973d382, 0x3f5b868084972070, 0x3f40dab05ca10d26, 49, 17, [187, 251, 0, 27641, 1032]),
    ("rho", 3, 0x3f5132dda2dde601, 0x3f4a8ae1ac132a1e, 0x3f2f6b6666a28790, 41, 13, [271, 4833, 0, 0, 0]),
    ("rho", 8, 0x3f68a921d5706804, 0x3f65f46aedd70002, 0x3f35a5b73ccb400e, 61, 24, [209, 4897, 0, 0, 0]),
    ("radius", 3, 0x3f46050b3ddceb96, 0x3f40625f00fd9229, 0x3f268ab0f37d65b2, 28, 7, [426, 4678, 0, 0, 0]),
    ("radius", 8, 0x3f5306f9aa8c973f, 0x3f5062555716df93, 0x3f2525229badbd5f, 28, 7, [426, 4678, 0, 0, 0]),
    ("opt_rho", 3, 0x3f4fbc2a5f9c6a32, 0x3f45a094fa3c607d, 0x3f34372acac01369, 35, 4, [342, 4767, 0, 0, 0]),
    ("opt_rho", 8, 0x3f61434c051136e5, 0x3f5a8ad3b6a97d7b, 0x3f3fef114de3c13c, 41, 7, [315, 4795, 0, 0, 0]),
];

/// `LB-OPT-25` on `gen::grid(64, 255, 1)`: the hybrid tail runs many
/// window epochs here, enough to reach the one-hop horizon
/// ⌊255/25⌋ + 1 = 11 buckets the graph above never does.
///
/// Re-recorded when tail windows stopped growing at that horizon instead
/// of doubling on: short relaxations 12030 → 6119, outer-short
/// 1771 → 4355 (13801 → 10474 in all; long-push unchanged), phases
/// 485 → 509, `total_s` 12.23 → 12.82 ms at p = 2 (12.21 → 12.80 at
/// p = 3), epochs unchanged (they count buckets before the switch).
#[rustfmt::skip]
const GRID_PINS: [Pin; 2] = [
    ("lb_opt", 2, 0x3f8a41c87fe9a270, 0x3f814914b5b36f16, 0x3f71f167946c66b4, 509, 152, [6119, 4355, 6387, 0, 0]),
    ("lb_opt", 3, 0x3f8a382a24270c93, 0x3f81491470fb3f76, 0x3f71de2b66579a3a, 509, 152, [6119, 4355, 6387, 0, 0]),
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
    for pin in PINS {
        let cfg = match pin.0 {
            "opt" => SsspConfig::opt(10),
            "lb_opt" => SsspConfig::lb_opt(10),
            "rho" => SsspConfig::rho(64),
            "radius" => SsspConfig::radius(4),
            "opt_rho" => SsspConfig::opt(10).with_policy(SteppingPolicyKind::Rho(64)),
            _ => SsspConfig::prune(10).with_direction(DirectionPolicy::AlwaysPull),
        };
        check(&g, &cfg, pin);
    }
}

#[test]
fn grid_tail_ledger_and_counters_are_pinned() {
    let g = CsrBuilder::new().build(&gen::grid(64, 255, 1));
    for pin in GRID_PINS {
        check(&g, &SsspConfig::lb_opt(25), pin);
    }
}

fn check(g: &Csr, cfg: &SsspConfig, pin: Pin) {
    let (name, p, total, bucket, relax, phases, epochs, counters) = pin;
    let dg = DistGraph::build(g, p, 4);
    let s = run_sssp(&dg, 0, cfg, &MachineModel::bgq_like()).stats;
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
    ];
    assert_eq!(got, counters, "{name} p={p} relaxation counters");
}
