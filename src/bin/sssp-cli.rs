//! Command-line driver for the library.
//!
//! ```text
//! sssp-cli run      --family rmat1 --scale 14 --ranks 16 --algo opt \
//!                   --delta 25 --roots 4 --validate        # run an algorithm
//! sssp-cli generate --family rmat2 --scale 12 --out g.gr   # write DIMACS
//! sssp-cli convert  --in g.gr --out g.bin                  # DIMACS ↔ binary
//! sssp-cli inspect  --in g.gr                              # graph statistics
//! ```
//!
//! `run` without a subcommand is the default for backward compatibility.

use sssp_mps::core::bfs::run_bfs;
use sssp_mps::core::config::{IntraBalance, SteppingPolicyKind};
use sssp_mps::graph::social::social_preset;
use sssp_mps::graph::{io, stats};
use sssp_mps::prelude::*;

#[derive(Debug)]
struct Args {
    family: String,
    scale: u32,
    edge_factor: usize,
    ranks: usize,
    threads: usize,
    algo: String,
    delta: u32,
    policy: String,
    rho: u32,
    roots: usize,
    seed: u64,
    validate: bool,
    split: bool,
    input: Option<String>,
    output: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            family: "rmat1".into(),
            scale: 14,
            edge_factor: 16,
            ranks: 8,
            threads: 4,
            algo: "opt".into(),
            delta: 25,
            policy: "delta".into(),
            rho: 2048,
            roots: 1,
            seed: 1,
            validate: false,
            split: false,
            input: None,
            output: None,
        }
    }
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--family" => args.family = value(&mut i)?,
            "--scale" => args.scale = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--edge-factor" => {
                args.edge_factor = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--ranks" => args.ranks = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => args.threads = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--algo" => args.algo = value(&mut i)?,
            "--delta" => args.delta = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--policy" => args.policy = value(&mut i)?,
            "--rho" => args.rho = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--roots" => args.roots = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--validate" => args.validate = true,
            "--split" => args.split = true,
            "--in" => args.input = Some(value(&mut i)?),
            "--out" => args.output = Some(value(&mut i)?),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    validate(&args)?;
    Ok(args)
}

const ALGOS: [&str; 9] = [
    "dijkstra",
    "bellman-ford",
    "bf",
    "del",
    "ios",
    "prune",
    "opt",
    "lb-opt",
    "bfs",
];
const POLICIES: [&str; 3] = ["delta", "rho", "radius"];

/// Reject flag values the library would only answer with a panic.
fn validate(args: &Args) -> Result<(), String> {
    let one_of = |flag: &str, value: &str, allowed: &[&str]| {
        if allowed.contains(&value) {
            Ok(())
        } else {
            Err(format!(
                "{flag} must be one of {}, got '{value}'",
                allowed.join(" | ")
            ))
        }
    };
    if !["rmat1", "rmat2", "uniform"].contains(&args.family.as_str())
        && social_preset(&args.family, 1024).is_none()
    {
        return Err(format!("unknown --family '{}' (see --help)", args.family));
    }
    one_of("--algo", &args.algo, &ALGOS)?;
    one_of("--policy", &args.policy, &POLICIES)?;
    for (flag, value) in [
        ("--ranks", args.ranks),
        ("--threads", args.threads),
        ("--delta", args.delta as usize),
        ("--rho", args.rho as usize),
    ] {
        if value == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
    }
    Ok(())
}

fn print_help() {
    println!(
        "sssp-cli — distributed SSSP on a simulated massively parallel machine

USAGE: sssp-cli [run|generate|convert|inspect] [OPTIONS]

SUBCOMMANDS:
  run        run an algorithm on a generated or loaded graph (default)
  generate   generate a graph and write it (--out, .gr or .bin by extension)
  convert    convert between DIMACS .gr and the binary format (--in/--out)
  inspect    print statistics of a graph file (--in)

OPTIONS:
  --in <FILE>        input graph file (.gr or .bin); replaces --family for run
  --out <FILE>       output graph file for generate/convert
  --family <rmat1|rmat2|uniform|friendster|orkut|livejournal>  graph family (default rmat1)
  --scale <N>        log2 of the vertex count for R-MAT/uniform (default 14)
  --edge-factor <K>  edges per vertex (default 16)
  --ranks <P>        simulated ranks (default 8)
  --threads <T>      logical threads per rank (default 4)
  --algo <A>         dijkstra | bellman-ford | del | ios | prune | opt | lb-opt | bfs (default opt)
  --delta <D>        Δ parameter for the Δ-stepping family (default 25)
  --policy <P>       stepping policy: delta | rho | radius (default delta);
                     rho extracts ≈ρ closest vertices per epoch, radius uses
                     per-vertex radii (the ρ-th smallest incident weight);
                     both run at Δ = 1, whatever --delta says
  --rho <N>          ρ parameter for the rho/radius policies (default 2048)
  --roots <K>        number of random roots to run (default 1)
  --seed <S>         generator seed (default 1)
  --split            arm the §III-E degree-threshold splitting trigger:
                     vertices above π′ are split into proxies before
                     distribution (no-op when the graph is mild)
  --validate         check every run against sequential Dijkstra/BFS"
    );
}

fn build_graph(args: &Args) -> Csr {
    match args.family.as_str() {
        "rmat1" | "rmat2" => {
            let params = if args.family == "rmat1" {
                RmatParams::RMAT1
            } else {
                RmatParams::RMAT2
            };
            let el = RmatGenerator::new(params, args.scale, args.edge_factor)
                .seed(args.seed)
                .generate_weighted(255);
            CsrBuilder::new().build(&el)
        }
        "uniform" => {
            let n = 1usize << args.scale;
            let el = sssp_mps::graph::gen::uniform(n, args.edge_factor * n, 255, args.seed);
            CsrBuilder::new().build(&el)
        }
        name => {
            let gen = social_preset(name, 1024).expect("family validated by parse_args");
            CsrBuilder::new().build(&gen.seed(args.seed).generate())
        }
    }
}

fn config_for(args: &Args) -> SsspConfig {
    let cfg = match args.algo.as_str() {
        "dijkstra" => SsspConfig::dijkstra(),
        "bellman-ford" | "bf" => SsspConfig::bellman_ford(),
        "del" => SsspConfig::del(args.delta),
        "ios" => SsspConfig::del(args.delta).with_ios(true),
        "prune" => SsspConfig::prune(args.delta),
        "opt" => SsspConfig::opt(args.delta),
        "lb-opt" => SsspConfig::opt(args.delta).with_intra_balance(IntraBalance::Auto),
        other => unreachable!("algorithm '{other}' validated by parse_args"),
    };
    match args.policy.as_str() {
        "delta" => cfg,
        "rho" => cfg.with_policy(SteppingPolicyKind::Rho(args.rho)),
        "radius" => cfg.with_policy(SteppingPolicyKind::Radius(args.rho)),
        other => unreachable!("policy '{other}' validated by parse_args"),
    }
}

fn load_edge_list(path: &str) -> Result<EdgeList, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    let el = if path.ends_with(".bin") {
        io::read_binary(&mut reader)
    } else {
        io::read_dimacs(reader, false)
    };
    el.map_err(|e| format!("cannot parse {path}: {e}"))
}

fn store_edge_list(path: &str, el: &EdgeList) -> Result<(), String> {
    use std::io::Write;
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    if path.ends_with(".bin") {
        io::write_binary(&mut w, el)
    } else {
        io::write_dimacs(&mut w, el)
    }
    .and_then(|()| w.flush())
    .map_err(|e| format!("cannot write {path}: {e}"))
}

/// The path given for `flag` (`--in` / `--out`), which `cmd` requires.
fn required<'a>(path: &'a Option<String>, cmd: &str, flag: &str) -> Result<&'a str, String> {
    path.as_deref()
        .ok_or_else(|| format!("{cmd} requires {flag}"))
}

fn source_edge_list(args: &Args) -> Result<EdgeList, String> {
    match &args.input {
        Some(path) => load_edge_list(path),
        None => {
            // Re-generate via the family options and decompose the CSR back
            // into an edge list for writing.
            let csr = build_graph(args);
            let mut el = EdgeList::new(csr.num_vertices());
            for (u, v, w) in csr.undirected_edges() {
                el.push(u, v, w);
            }
            Ok(el)
        }
    }
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let out = required(&args.output, "generate", "--out")?;
    let el = source_edge_list(args)?;
    store_edge_list(out, &el)?;
    println!("wrote {} vertices, {} edges to {out}", el.n, el.len());
    Ok(())
}

fn cmd_convert(args: &Args) -> Result<(), String> {
    let input = required(&args.input, "convert", "--in")?;
    let out = required(&args.output, "convert", "--out")?;
    let el = load_edge_list(input)?;
    store_edge_list(out, &el)?;
    println!(
        "converted {input} → {out} ({} vertices, {} edges)",
        el.n,
        el.len()
    );
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let input = required(&args.input, "inspect", "--in")?;
    let el = load_edge_list(input)?;
    let csr = CsrBuilder::new().build(&el);
    let st = stats::degree_stats(&csr);
    let labels = sssp_mps::graph::components::components_bfs(&csr);
    let (largest, ncomp) = sssp_mps::graph::components::component_summary(&labels);
    println!("file              : {input}");
    println!("vertices          : {}", st.num_vertices);
    println!("undirected edges  : {}", st.num_undirected_edges);
    println!("avg degree        : {:.2}", st.avg_degree);
    println!("max degree        : {}", st.max_degree);
    println!("isolated vertices : {}", st.isolated);
    println!("top-1% edge share : {:.2}", st.top1pct_edge_share);
    println!("components        : {ncomp} (largest {largest})");
    Ok(())
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first().map(String::as_str) {
        Some("run") | Some("generate") | Some("convert") | Some("inspect") => argv.remove(0),
        _ => "run".to_string(),
    };
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_help();
            std::process::exit(2);
        }
    };
    let done = match sub.as_str() {
        "generate" => cmd_generate(&args),
        "convert" => cmd_convert(&args),
        "inspect" => cmd_inspect(&args),
        _ => cmd_run(&args),
    };
    if let Err(e) = done {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let csr = match &args.input {
        Some(path) => CsrBuilder::new().build(&load_edge_list(path)?),
        None => build_graph(args),
    };
    let m = csr.num_undirected_edges() as u64;
    let source = args.input.clone().unwrap_or_else(|| args.family.clone());
    println!(
        "graph: {} with {} vertices, {} edges, max degree {}",
        source,
        csr.num_vertices(),
        m,
        csr.max_degree()
    );

    let dg = if args.split {
        let (dg, rep) = DistGraph::build_auto_split(&csr, args.ranks, args.threads);
        match rep {
            Some(rep) => println!(
                "splitting: {} heavy vertices → {} proxies (max degree {} → {}, π′ = {})",
                rep.heavy_vertices,
                rep.proxies_created,
                rep.max_degree_before,
                rep.max_degree_after,
                rep.threshold
            ),
            None => println!(
                "splitting: trigger armed but max degree {} is within π′ = {}",
                csr.max_degree(),
                sssp_mps::dist::split::auto_threshold(&csr, args.ranks)
            ),
        }
        dg
    } else {
        DistGraph::build(&csr, args.ranks, args.threads)
    };

    // Deterministic root selection over non-isolated vertices.
    let roots = sssp_mps::graph::pick_roots(&csr, args.roots, args.seed);
    if roots.len() < args.roots {
        return Err(format!(
            "--roots {} requested but only {} distinct non-isolated vertices were found",
            args.roots,
            roots.len()
        ));
    }

    let model = MachineModel::bgq_like();
    for &root in &roots {
        if args.algo == "bfs" {
            let out = run_bfs(&dg, root, &model);
            if args.validate {
                assert_eq!(out.depth, sssp_mps::core::bfs::seq_bfs(&csr, root));
                println!("root {root}: validated against sequential BFS ✓");
            }
            println!(
                "root {root}: {} levels, {} visited, {} edges examined, {:.4}s simulated, {:.3} GTEPS",
                out.stats.levels.len(),
                out.stats.visited,
                out.stats.edges_examined_total,
                out.stats.ledger.total_s(),
                out.stats.gteps(m)
            );
            continue;
        }
        let cfg = config_for(args);
        let out = run_sssp(&dg, root, &cfg, &model);
        if args.validate {
            sssp_mps::core::validate::assert_matches_dijkstra(&csr, root, &out);
            println!("root {root}: validated against sequential Dijkstra ✓");
        }
        println!(
            "root {root}: {} reachable, {} buckets, {} phases, {} relaxations, {:.4}s simulated, {:.3} GTEPS",
            out.reachable(),
            out.stats.buckets(),
            out.stats.phases,
            out.stats.relaxations_total(),
            out.stats.ledger.total_s(),
            out.stats.gteps(m)
        );
    }
    Ok(())
}
