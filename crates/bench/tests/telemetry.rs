//! The run-trace export (`sssp_bench::trace`) against real engine runs:
//! a traced run survives the JSON round trip, and trace files written by
//! the earlier line-oriented exporter (`tests/data/trace_*.json`) still
//! read, in any layout, and diff clean against a fresh run of the same
//! configuration.

use std::sync::Arc;

use sssp_bench::trace;
use sssp_comm::cost::MachineModel;
use sssp_core::config::{DirectionPolicy, SsspConfig};
use sssp_core::{threaded_delta_stepping_traced, RunTrace};
use sssp_dist::DistGraph;
use sssp_graph::{gen, Csr, CsrBuilder};

fn bench_graph() -> Csr {
    CsrBuilder::new().build(&gen::uniform(200, 1200, 40, 9))
}

fn roundtrip(t: &RunTrace) -> RunTrace {
    trace::from_json(&trace::to_json(t).render()).expect("trace JSON must parse back")
}

#[test]
fn threaded_trace_survives_json_roundtrip() {
    let g = bench_graph();
    let model = MachineModel::bgq_like();
    for cfg in [
        SsspConfig::opt(25),
        SsspConfig::bellman_ford(),
        SsspConfig::prune(15).with_direction(DirectionPolicy::AlwaysPull),
    ] {
        let dg = Arc::new(DistGraph::build(&g, 4, 2));
        let (_, t) = threaded_delta_stepping_traced(&dg, 0, &cfg, &model);
        assert!(
            !t.spans.is_zero(),
            "cfg {cfg:?}: no sub-phase spans to carry"
        );
        assert_eq!(roundtrip(&t), t, "cfg {cfg:?}");
    }

    // An edgeless graph: everything except the root unreached.
    let mut el = gen::path(1, 1);
    el.n = 4;
    let dg = Arc::new(DistGraph::build(&CsrBuilder::new().build(&el), 3, 1));
    let (_, t) = threaded_delta_stepping_traced(&dg, 0, &SsspConfig::opt(10), &model);
    assert_eq!(roundtrip(&t), t);
}

#[test]
fn earlier_exporter_traces_read_in_any_layout_and_diff_clean() {
    let g = bench_graph();
    let dg = Arc::new(DistGraph::build(&g, 4, 2));
    let model = MachineModel::bgq_like();
    let captured = [
        (include_str!("data/trace_opt25.json"), SsspConfig::opt(25)),
        (
            include_str!("data/trace_prune15_pull.json"),
            SsspConfig::prune(15).with_direction(DirectionPolicy::AlwaysPull),
        ),
    ];
    for (text, cfg) in captured {
        let parsed = trace::from_json(text).expect("captured trace parses");
        let (_, fresh) = threaded_delta_stepping_traced(&dg, 0, &cfg, &model);
        assert_eq!(parsed.diff(&fresh), Vec::<String>::new(), "cfg {cfg:?}");

        let one_line = text.replace('\n', "");
        let reindented = text.replace("\n  ", "\n\t").replace(": ", " :\r\n ");
        for layout in [one_line, reindented] {
            assert_eq!(trace::from_json(&layout), Ok(parsed.clone()), "cfg {cfg:?}");
        }
    }
}
