//! The four workloads: their sizes, their set-up and the untraced pass
//! that produces the end-to-end metrics.

use std::path::PathBuf;
use std::time::Instant;

use crate::inputs::{self, Rng, RootLaw};
use crate::layers::{self, Dist, Graph, Server, Setup};
use crate::metrics::{self, Outcome};
use crate::serve;
use crate::trace::{SpanId, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RmatVolume,
    GridLatency,
    ServeRepeat,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RmatVolume,
        Workload::GridLatency,
        Workload::ServeRepeat,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RmatVolume => "rmat_volume",
            Workload::GridLatency => "grid_latency",
            Workload::ServeRepeat => "serve_repeat",
            Workload::ServeChurn => "serve_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn serves(self) -> bool {
        matches!(self, Workload::ServeRepeat | Workload::ServeChurn)
    }

    /// Root law of the workload's query stream. The engine workloads run a
    /// short stream only in the traced pass, to fill the serve ledger.
    pub fn root_law(self) -> RootLaw {
        match self {
            Workload::ServeChurn => RootLaw::Uniform,
            _ => RootLaw::Zipf { hot: 1024, s: 1.0 },
        }
    }
}

/// Every size the benchmark fixes. `--smoke` swaps in the small column.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub rmat_scale: u32,
    pub serve_scale: u32,
    pub grid_side: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Fewest timed roots / queries of an untraced run, whatever `--seconds`.
    pub min_roots: usize,
    pub min_queries: usize,
    /// Roots of the traced pass's engine ledger.
    pub ledger_roots: usize,
    /// Queries of the traced pass's stream on the serve workloads.
    pub traced_queries_repeat: usize,
    pub traced_queries_churn: usize,
    /// Roots of the solo / direct-engine probe.
    pub solo_probe_serve: usize,
    pub solo_probe_engine: usize,
    pub comm_rounds: u32,
    pub comm_bulk_rounds: u32,
    pub comm_spawn_reps: usize,
    pub pack_reps: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        rmat_scale: 18,
        serve_scale: 15,
        grid_side: 256,
        setup_reps: 3,
        min_roots: 8,
        min_queries: 100,
        ledger_roots: 8,
        traced_queries_repeat: 1000,
        traced_queries_churn: 400,
        solo_probe_serve: 16,
        solo_probe_engine: 4,
        comm_rounds: 20_000,
        comm_bulk_rounds: 1_000,
        comm_spawn_reps: 200,
        pack_reps: 20,
    };

    pub const SMOKE: Sizes = Sizes {
        rmat_scale: 10,
        serve_scale: 10,
        grid_side: 32,
        setup_reps: 1,
        min_roots: 4,
        min_queries: 40,
        ledger_roots: 2,
        traced_queries_repeat: 40,
        traced_queries_churn: 40,
        solo_probe_serve: 4,
        solo_probe_engine: 2,
        comm_rounds: 200,
        comm_bulk_rounds: 20,
        comm_spawn_reps: 10,
        pack_reps: 3,
    };
}

/// One invocation: a workload, a seed, a measuring time and a pass.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// Where the benchmark writes: the grid's input file and the traces.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

/// What set-up leaves behind for the timed window.
pub struct World {
    pub graph: Graph,
    pub dist: Dist,
    pub setup: Setup,
    /// Largest connected component, where every root is drawn from.
    pub component: Vec<u32>,
    /// Started by set-up on the serve workloads only.
    pub server: Option<Server>,
    pub undirected_edges: usize,
}

const MAX_INFLIGHT: usize = 2;
const CACHE_CAPACITY: usize = 32;
const WARMUP_QUERIES: usize = 16;

impl World {
    pub fn start_server(&self, tracer: &Tracer, parent: SpanId) -> Server {
        tracer
            .span("serve.startup", parent, None, || {
                layers::server_start(&self.dist, &self.setup, MAX_INFLIGHT, CACHE_CAPACITY)
            })
            .0
    }
}

/// One set-up, from the input to the end of the fixed warm-up. Returns the
/// world and the seconds it took.
fn set_up_once(run: &Run, tracer: &Tracer, grid_file: Option<&PathBuf>) -> (World, f64) {
    let parent = tracer.begin("bench.setup", None, None);
    let t0 = Instant::now();
    let edges = match grid_file {
        Some(path) => {
            tracer
                .span("graph.load", parent, None, || {
                    layers::read_dimacs_file(path).unwrap_or_else(|e| panic!("grid input: {e}"))
                })
                .0
        }
        None => {
            let scale = if run.workload.serves() {
                run.sizes.serve_scale
            } else {
                run.sizes.rmat_scale
            };
            tracer
                .span("graph.load", parent, None, || {
                    layers::rmat2_edges(scale, run.seed)
                })
                .0
        }
    };
    let (graph, _, id) = tracer.span("graph.csr_build", parent, None, || {
        layers::build_csr(&edges)
    });
    tracer.count(id, "input_edges", layers::num_edges(&edges) as f64);
    drop(edges);
    let (dist, _, _) = tracer.span("dist.build", parent, None, || layers::partition(&graph));
    let component = inputs::largest_component(&graph);
    let mut world = World {
        undirected_edges: layers::num_undirected_edges(&graph),
        graph,
        dist,
        setup: layers::setup(),
        component,
        server: None,
    };
    // The fixed warm-up is part of set-up, so work moved out of the timed
    // window and into first use still shows in `setup_s`.
    let warm = tracer.begin("bench.warmup", parent, None);
    let mut rng = Rng::new(run.seed, 9);
    match run.workload {
        Workload::RmatVolume | Workload::GridLatency => {
            let roots = if run.workload == Workload::RmatVolume {
                1
            } else {
                2
            };
            for _ in 0..roots {
                let root = world.component[rng.below(world.component.len())];
                std::hint::black_box(layers::engine_fresh(&world.dist, root, &world.setup));
            }
        }
        Workload::ServeRepeat | Workload::ServeChurn => {
            let server = world.start_server(tracer, warm);
            serve::warm_up(&world, &server, run, WARMUP_QUERIES);
            world.server = Some(server);
        }
    }
    tracer.end(warm);
    let secs = t0.elapsed().as_secs_f64();
    tracer.end(parent);
    (world, secs)
}

/// Set up `reps` times with the same inputs and keep the last world; the
/// earlier ones are dropped first so the peak resident set is one world's.
pub fn set_up(run: &Run, tracer: &Tracer, reps: usize) -> (World, Vec<f64>) {
    let grid_file = (run.workload == Workload::GridLatency).then(|| {
        // The grid arrives as a file, the way a road network does. Writing
        // it is the benchmark's input generation, outside `setup_s`.
        let dir = out_dir();
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        let path = dir.join(format!("grid-{}-{}.gr", run.sizes.grid_side, run.seed));
        let side = run.sizes.grid_side;
        let triples = inputs::grid_edges(side, layers::W_MAX, run.seed);
        let edges = layers::edges_from(side * side, &triples);
        layers::write_dimacs_file(&path, &edges).unwrap_or_else(|e| panic!("grid input: {e}"));
        path
    });
    let mut times = Vec::with_capacity(reps);
    let mut world = None;
    for _ in 0..reps.max(1) {
        drop(world.take());
        let (w, secs) = set_up_once(run, tracer, grid_file.as_ref());
        times.push(secs);
        world = Some(w);
    }
    if let Some(path) = grid_file {
        let _ = std::fs::remove_file(path);
    }
    (world.expect("at least one set-up ran"), times)
}

/// The untraced pass: set-up, the timed window, the end-to-end metrics.
pub fn untraced(run: &Run) -> Outcome {
    let tracer = Tracer::new(false);
    let (world, setup_times) = set_up(run, &tracer, run.sizes.setup_reps);
    let mut out = Outcome::default();
    let (latencies, wall) = if run.workload.serves() {
        let server = world.server.as_ref().expect("set-up starts the server");
        let stop = serve::Stop::After {
            seconds: run.seconds,
            min_queries: run.sizes.min_queries,
        };
        let stream = serve::run_stream(&world, server, run, &tracer, None, stop);
        out.attempted = stream.attempted;
        out.failed = stream.failed + serve::verify(&world, &stream.checks, &tracer, None);
        (stream.latencies(), stream.wall_s)
    } else {
        engine_window(&world, run, &mut out)
    };
    // Graph 500 convention: input edges over the mean seconds of one
    // answer, the harmonic mean of the per-answer rates.
    let mteps = world.undirected_edges as f64 / metrics::mean(&latencies) / 1e6;
    out.push("setup_s", metrics::median(&setup_times), "s");
    out.push("query_ms_p50", metrics::median(&latencies) * 1e3, "ms");
    out.push("queries_per_s", latencies.len() as f64 / wall, "1/s");
    out.push("mteps", mteps, "Medges/s");
    out.push("peak_rss_mib", metrics::peak_rss_mib(), "MiB");
    out
}

/// Closed loop, one caller: a fresh-scratch engine run per root until the
/// timed seconds are spent, each answer compared with the oracle between
/// timed calls. Returns the latencies of the validated roots and the timed
/// wall, which for one caller is their sum.
fn engine_window(world: &World, run: &Run, out: &mut Outcome) -> (Vec<f64>, f64) {
    let mut rng = Rng::new(run.seed, 10);
    let mut latencies = Vec::new();
    let mut timed = 0.0;
    while timed < run.seconds || (out.attempted as usize) < run.sizes.min_roots {
        let root = world.component[rng.below(world.component.len())];
        let t0 = Instant::now();
        let answer = layers::engine_fresh(&world.dist, root, &world.setup);
        let secs = t0.elapsed().as_secs_f64();
        timed += secs;
        out.attempted += 1;
        if answer.distances == layers::oracle(&world.graph, root) {
            latencies.push(secs);
        } else {
            eprintln!(
                "{}: root {root} disagrees with the oracle",
                run.workload.name()
            );
            out.failed += 1;
        }
    }
    (latencies, timed)
}
