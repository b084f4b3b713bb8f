//! Shared harness for the figure/table reproduction binaries.
//!
//! Every `fig*`/`sec*` binary in `src/bin/` regenerates one table or figure
//! of the paper (see DESIGN.md's experiment index); this library holds the
//! common plumbing: graph family construction, weak-scaling sweeps, run
//! aggregation over multiple roots, and plain-text table output shaped like
//! the paper's figures.
//!
//! Scale-down convention: the paper fixes 2^23 vertices per node and scales
//! nodes 32 → 32768 (graph scales 28 → 39). This reproduction defaults to
//! 2^12 vertices per rank and ranks 2 → 64 (graph scales 13 → 18); the
//! `SSSP_BENCH_SCALE_PER_RANK` / `SSSP_BENCH_MAX_RANKS` environment
//! variables raise the scale for bigger machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod graph500;
pub mod json;

use std::sync::Arc;

use sssp_comm::cost::MachineModel;
use sssp_core::config::SsspConfig;
use sssp_core::engine::{run_sssp, SsspOutput};
use sssp_core::{merged_trace, run, EngineScratch, Lockstep, Query, RunStats, RunTrace, Threaded};
use sssp_dist::DistGraph;
pub use sssp_graph::pick_roots;
use sssp_graph::rmat::{RmatGenerator, RmatParams};
use sssp_graph::{Csr, CsrBuilder, VertexId};

/// The paper's two synthetic families (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Graph 500 BFS parameters (a=0.57): skewed, hub-heavy.
    Rmat1,
    /// Proposed SSSP parameters (a=0.50): flatter degree profile.
    Rmat2,
}

impl Family {
    /// The R-MAT parameter preset for this family.
    pub fn params(self) -> RmatParams {
        match self {
            Family::Rmat1 => RmatParams::RMAT1,
            Family::Rmat2 => RmatParams::RMAT2,
        }
    }

    /// Display name used in table output.
    pub fn name(self) -> &'static str {
        match self {
            Family::Rmat1 => "RMAT-1",
            Family::Rmat2 => "RMAT-2",
        }
    }
}

/// Graph 500 edge factor used throughout the paper.
pub const EDGE_FACTOR: usize = 16;

/// Weight range of the Graph 500 SSSP proposal.
pub const W_MAX: u32 = 255;

/// Build one synthetic graph of the given family and scale.
pub fn build_family(family: Family, scale: u32, seed: u64) -> Csr {
    let el = RmatGenerator::new(family.params(), scale, EDGE_FACTOR)
        .seed(seed)
        .generate_weighted(W_MAX);
    CsrBuilder::new().build(&el)
}

/// log2(vertices per rank) for weak-scaling sweeps (paper: 23).
pub fn scale_per_rank() -> u32 {
    std::env::var("SSSP_BENCH_SCALE_PER_RANK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11)
}

/// Largest rank count of weak-scaling sweeps (paper: 32768).
pub fn max_ranks() -> usize {
    std::env::var("SSSP_BENCH_MAX_RANKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// The weak-scaling rank counts: powers of two up to [`max_ranks`].
pub fn weak_scaling_ranks() -> Vec<usize> {
    let mut v = Vec::new();
    let mut p = 2usize;
    while p <= max_ranks() {
        v.push(p);
        p *= 2;
    }
    v
}

/// Which transport a figure binary runs the engine on. Both produce
/// bit-identical distances and traces, so a figure regenerated on either
/// must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The lockstep transport: the simulated machine.
    Simulated,
    /// The threaded transport: one OS thread per rank.
    Threaded,
}

impl Backend {
    /// Display name used in table titles.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Simulated => "simulated",
            Backend::Threaded => "threaded",
        }
    }
}

/// Parse `--backend simulated|threaded` from the process arguments
/// (default: simulated). Any other argument exits 2 with a usage message.
pub fn backend_from_args() -> Backend {
    match Flags::from_args(&["--backend"]).text("--backend") {
        None | Some("simulated") => Backend::Simulated,
        Some("threaded") => Backend::Threaded,
        Some(other) => exit_with(
            2,
            &format!("--backend takes 'simulated' or 'threaded', got {other:?}"),
        ),
    }
}

/// The `--flag value` arguments of a binary. Bad input exits 2 with a
/// message naming the flag, so a typo never runs, or records a baseline
/// block, under the defaults.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Read the process arguments: every flag takes one value and must be
    /// one of `known`; a repeated flag keeps its last value.
    pub fn from_args(known: &[&str]) -> Flags {
        let mut pairs = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            match args.next() {
                _ if !known.contains(&flag.as_str()) => {
                    exit_with(2, &format!("unknown argument: {flag}"))
                }
                None => exit_with(2, &format!("{flag} needs a value")),
                Some(value) => pairs.push((flag, value)),
            }
        }
        Flags(pairs)
    }

    /// The value given for `flag`, if any.
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// `flag` parsed as a `T`, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        let Some(v) = self.text(flag) else {
            return default;
        };
        v.parse()
            .unwrap_or_else(|_| exit_with(2, &format!("{flag} takes a number, got {v:?}")))
    }

    /// [`Flags::get`] for a count that must be at least 1.
    pub fn positive(&self, flag: &str, default: usize) -> usize {
        match self.get(flag, default) {
            0 => exit_with(2, &format!("{flag} must be at least 1")),
            n => n,
        }
    }
}

/// Print `msg` on stderr and exit the process with `code`.
pub fn exit_with(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

/// Run `cfg` from `root` on the chosen backend and return the distances
/// plus the run trace the figure binaries consume (phase and bucket
/// records, message splits).
pub fn run_trace(
    dg: &Arc<DistGraph>,
    root: VertexId,
    cfg: &SsspConfig,
    model: &MachineModel,
    backend: Backend,
) -> (Vec<u64>, RunTrace) {
    let (query, stats) = (Query::root(root), RunStats::for_run(dg, None));
    let (out, recorded) = match backend {
        Backend::Simulated => run(dg.as_ref(), &query, cfg, model, Lockstep, stats),
        Backend::Threaded => {
            let mut scratch = EngineScratch::new(dg.num_ranks());
            run(dg, &query, cfg, model, Threaded(&mut scratch), stats)
        }
    };
    (out.distances, merged_trace(&recorded))
}

/// Aggregate of several runs (different roots) of one configuration.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Number of roots aggregated.
    pub runs: usize,
    /// Mean traversal rate in GTEPS.
    pub gteps: f64,
    /// Mean relaxations per run.
    pub relaxations: f64,
    /// Mean relaxations on the busiest thread (imbalance signal).
    pub relax_per_thread: f64,
    /// Mean epochs (buckets processed) per run.
    pub buckets: f64,
    /// Mean phases (supersteps) per run.
    pub phases: f64,
    /// Mean simulated seconds in bucket/collective work.
    pub bucket_time_s: f64,
    /// Mean simulated seconds in relaxation work.
    pub relax_time_s: f64,
    /// Full output of the last run (for validation and spot checks).
    pub last: SsspOutput,
}

/// Run `cfg` from each root and average the headline metrics.
pub fn run_aggregate(
    dg: &DistGraph,
    roots: &[VertexId],
    cfg: &SsspConfig,
    model: &MachineModel,
) -> Aggregate {
    assert!(!roots.is_empty());
    let mut gteps = 0.0;
    let mut relax = 0.0;
    let mut rpt = 0.0;
    let mut buckets = 0.0;
    let mut phases = 0.0;
    let mut bt = 0.0;
    let mut rt = 0.0;
    let mut last = None;
    for &root in roots {
        let out = run_sssp(dg, root, cfg, model);
        gteps += out.stats.gteps(dg.m_input_undirected);
        relax += out.stats.relaxations_total() as f64;
        rpt += out.stats.relaxations_per_thread();
        buckets += out.stats.buckets() as f64;
        phases += out.stats.phases as f64;
        bt += out.stats.ledger.bucket_s;
        rt += out.stats.ledger.relax_s;
        last = Some(out);
    }
    let k = roots.len() as f64;
    Aggregate {
        runs: roots.len(),
        gteps: gteps / k,
        relaxations: relax / k,
        relax_per_thread: rpt / k,
        buckets: buckets / k,
        phases: phases / k,
        bucket_time_s: bt / k,
        relax_time_s: rt / k,
        last: last.unwrap(),
    }
}

/// The telemetry series the figure binaries read off one run's trace:
/// relaxation phases, processed buckets/windows (hybrid tail included),
/// and total relaxation messages. All three are bit-identical between the
/// simulated and the threaded backend.
pub fn trace_series(trace: &RunTrace) -> (u64, u64, u64) {
    let phases = trace.phases.len() as u64;
    let buckets = trace.buckets.len() as u64 + u64::from(trace.tail.is_some());
    let relaxations = trace.phases.iter().map(|r| r.relaxations).sum();
    (phases, buckets, relaxations)
}

/// Mean `(phases, buckets, relaxations, supersteps, remote_msgs)` of one
/// configuration over several roots, read off [`run_trace`] telemetry.
fn trace_means(
    dg: &Arc<DistGraph>,
    roots: &[VertexId],
    cfg: &SsspConfig,
    model: &MachineModel,
    backend: Backend,
) -> (f64, f64, f64, f64, f64) {
    let mut acc = (0u64, 0u64, 0u64, 0u64, 0u64);
    for &root in roots {
        let (_, trace) = run_trace(dg, root, cfg, model, backend);
        let (ph, b, r) = trace_series(&trace);
        acc.0 += ph;
        acc.1 += b;
        acc.2 += r;
        acc.3 += trace.supersteps;
        acc.4 += trace.remote_msgs;
    }
    let k = roots.len() as f64;
    (
        acc.0 as f64 / k,
        acc.1 as f64 / k,
        acc.2 as f64 / k,
        acc.3 as f64 / k,
        acc.4 as f64 / k,
    )
}

/// Static per-thread edge-load imbalance of a partitioned graph under the
/// §III-E intra-node balancer: every local vertex charges its degree to
/// its owner thread, except heavy vertices (degree > π) whose edges
/// spread evenly across the rank's threads. Returns the largest thread
/// load over the mean thread load — a structural property of graph +
/// partition + π, so it is identical on either backend.
pub fn thread_imbalance(dg: &DistGraph, pi: u64) -> f64 {
    let t = dg.threads_per_rank;
    let mut max_load = 0u64;
    let mut total = 0u64;
    let mut lanes = 0u64;
    for lg in &dg.locals {
        let mut loads = sssp_dist::ThreadLoads::new(t);
        for local in 0..lg.num_local() {
            let d = lg.degree(local) as u64;
            loads.charge(local, d, d > pi);
        }
        max_load = max_load.max(loads.max());
        total += loads.total();
        lanes += t as u64;
    }
    let mean = total as f64 / lanes.max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max_load as f64 / mean
    }
}

/// The full per-family analysis of Figs. 10 and 11, on either backend:
/// (a) relaxations of Del/Prune/OPT under weak scaling (the pruning
/// factor), (b)–(d) phase/superstep/bucket breakdown and relaxations per
/// thread at the largest configuration (the hybridization collapse),
/// (e) OPT's Δ sensitivity under weak scaling, and (f) the static
/// per-thread load imbalance with and without the §III-E balancer (the
/// LB-OPT story). Every column is either read off the backend-neutral
/// telemetry trace or a structural property of the partitioned graph, so
/// the tables are identical under `--backend simulated` and
/// `--backend threaded`.
pub fn family_analysis(family: Family, delta: u32, threads: usize, backend: Backend) {
    let spr = scale_per_rank();
    let model = MachineModel::bgq_like();
    let ranks = weak_scaling_ranks();

    // (a) Del vs Prune vs OPT, weak scaling: total relaxations.
    let algos: Vec<(String, SsspConfig)> = vec![
        (format!("Del-{delta}"), SsspConfig::del(delta)),
        (format!("Prune-{delta}"), SsspConfig::prune(delta)),
        (format!("OPT-{delta}"), SsspConfig::opt(delta)),
    ];
    let mut rows_a = Vec::new();
    let mut last_graph = None;
    for &p in &ranks {
        let scale = spr + (p as f64).log2() as u32;
        let g = build_family(family, scale, 1);
        let dg = Arc::new(DistGraph::build(&g, p, threads));
        let roots = pick_roots(&g, 2, 23);
        let mut row = vec![p.to_string(), scale.to_string()];
        for (_, cfg) in &algos {
            let (_, _, relax, _, _) = trace_means(&dg, &roots, cfg, &model, backend);
            row.push(human(relax));
        }
        rows_a.push(row);
        last_graph = Some((g, p, scale));
    }
    let mut headers: Vec<String> = vec!["ranks".into(), "scale".into()];
    headers.extend(algos.iter().map(|(n, _)| n.clone()));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        &format!(
            "Fig a — {} weak scaling relaxations, {} backend",
            family.name(),
            backend.name()
        ),
        &headers_ref,
        &rows_a,
    );

    // (b)–(d) at the largest configuration: full trace breakdown.
    let (g, p, scale) = last_graph.expect("at least one weak-scaling point");
    let dg = Arc::new(DistGraph::build(&g, p, threads));
    let roots = pick_roots(&g, 2, 23);
    let mut rows_bcd = Vec::new();
    for (name, cfg) in &algos {
        let (phases, buckets, relax, supersteps, remote) =
            trace_means(&dg, &roots, cfg, &model, backend);
        rows_bcd.push(vec![
            name.clone(),
            format!("{phases:.1}"),
            format!("{supersteps:.1}"),
            format!("{buckets:.1}"),
            human(relax / (p * threads) as f64),
            human(remote),
        ]);
    }
    print_table(
        &format!(
            "Fig b–d — {} scale {scale}, {p} ranks, {} backend",
            family.name(),
            backend.name()
        ),
        &[
            "algorithm",
            "phases",
            "supersteps",
            "buckets",
            "relax/thread",
            "remote msgs",
        ],
        &rows_bcd,
    );

    // (e) OPT's Δ sensitivity, weak scaling: total relaxations.
    let deltas = [delta / 2, delta, delta * 2];
    let mut rows_e = Vec::new();
    for &p in &ranks {
        let scale = spr + (p as f64).log2() as u32;
        let g = build_family(family, scale, 1);
        let dg = Arc::new(DistGraph::build(&g, p, threads));
        let roots = pick_roots(&g, 2, 23);
        let mut row = vec![p.to_string(), scale.to_string()];
        for &d in &deltas {
            let (_, _, relax, _, _) =
                trace_means(&dg, &roots, &SsspConfig::opt(d), &model, backend);
            row.push(human(relax));
        }
        rows_e.push(row);
    }
    let hdrs: Vec<String> = ["ranks".to_string(), "scale".to_string()]
        .into_iter()
        .chain(deltas.iter().map(|d| format!("Δ={d}")))
        .collect();
    let hdrs_ref: Vec<&str> = hdrs.iter().map(String::as_str).collect();
    print_table(
        &format!(
            "Fig e — {} OPT Δ sensitivity, relaxations, {} backend",
            family.name(),
            backend.name()
        ),
        &hdrs_ref,
        &rows_e,
    );

    // (f) the §III-E balancer, structurally: max/mean per-thread edge load
    // with balancing off (π = ∞) vs the auto π the LB-OPT preset resolves.
    let mut rows_f = Vec::new();
    for &p in &ranks {
        let scale = spr + (p as f64).log2() as u32;
        let g = build_family(family, scale, 1);
        let dg = DistGraph::build(&g, p, threads);
        let pi = sssp_core::engine::resolved_pi(
            sssp_core::config::IntraBalance::Auto,
            dg.m_directed,
            dg.num_vertices() as u64,
        );
        rows_f.push(vec![
            p.to_string(),
            scale.to_string(),
            format!("{:.2}", thread_imbalance(&dg, u64::MAX)),
            format!("{:.2}", thread_imbalance(&dg, pi)),
            pi.to_string(),
        ]);
    }
    print_table(
        &format!(
            "Fig f — {} per-thread load imbalance (max/mean edge load)",
            family.name()
        ),
        &["ranks", "scale", "no LB", "LB (auto π)", "π"],
        &rows_f,
    );
}

/// Human-readable large number (paper style: "2.4 M", "31126").
pub fn human(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2} B", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2} M", x / 1e6)
    } else if x >= 1e4 {
        format!("{:.1} K", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

/// Print an aligned plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names() {
        assert_eq!(Family::Rmat1.name(), "RMAT-1");
        assert_eq!(Family::Rmat2.name(), "RMAT-2");
    }

    #[test]
    fn build_family_is_deterministic() {
        let a = build_family(Family::Rmat2, 8, 1);
        let b = build_family(Family::Rmat2, 8, 1);
        assert_eq!(a.num_directed_edges(), b.num_directed_edges());
        assert_eq!(a.weight_sum(), b.weight_sum());
    }

    #[test]
    fn roots_are_valid() {
        let g = build_family(Family::Rmat1, 8, 2);
        let roots = pick_roots(&g, 4, 9);
        assert_eq!(roots.len(), 4);
        for r in roots {
            assert!(g.degree(r) > 0);
        }
    }

    #[test]
    fn aggregate_runs_all_roots() {
        let g = build_family(Family::Rmat2, 8, 3);
        let dg = DistGraph::build(&g, 4, 4);
        let roots = pick_roots(&g, 2, 5);
        let agg = run_aggregate(&dg, &roots, &SsspConfig::opt(25), &MachineModel::bgq_like());
        assert_eq!(agg.runs, 2);
        assert!(agg.gteps > 0.0);
        assert!(agg.relaxations > 0.0);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human(950.0), "950");
        assert_eq!(human(2_400_000.0), "2.40 M");
        assert_eq!(human(3.1e9), "3.10 B");
    }
}
