//! Recorded performance baseline: wall time, allocations per superstep,
//! message traffic and simulated time of the engine on the lockstep
//! transport (the `pooled` record), the threaded transport's wall time on
//! the same roots, and the sequential oracle (`seq::dijkstra_radix`) on the
//! same graph in the same process, with the `threaded_over_seq` ratio. The
//! `pipeline` record times the construction that precedes them —
//! generation, CSR build and partition — against one sequential query on
//! the graph built (`construct_over_seq`), and counts the bytes the CSR
//! build and the partition allocate (`csr_alloc_bytes`,
//! `partition_alloc_bytes`).
//!
//! Usage:
//!   cargo run -p sssp-bench --bin perf_baseline [--release] --
//!       [--scale N] [--ranks N] [--threads N] [--roots N]
//!       [--out PATH] [--check PATH]
//!
//! Writes a `BENCH_sssp.json` document (see `sssp_bench::baseline`) with
//! one `"scale_N"` block per measured scale, each holding one record per
//! transport; a run re-records only its own scale's block and preserves
//! the others. Re-recording a scale whose block the `--out` document
//! already holds keeps that block's wall-ratio gates
//! (`threaded_over_seq{,_q1,_q3}` and `construct_over_seq{,_q1,_q3}`) and
//! re-records everything else, so a count-only re-record leaves the
//! timing gates where they were; a scale with no block records them
//! fresh, and deleting the block is how a scale is re-timed.
//!
//! `--check PATH` additionally compares the fresh run against the
//! committed baseline's block for the same scale and exits nonzero
//! when a message or superstep count differs at all, or when
//! `threaded_over_seq` or `construct_over_seq` (this run's lower quartile
//! against the committed upper one), allocations per superstep, or the
//! bytes the pooled run, the CSR build or the partition allocate regress
//! by more than `SSSP_PERF_TOLERANCE` (default 0.25, i.e. 25%). Absolute
//! wall times are recorded and never compared: they move with the
//! machine, the ratio of two timings taken in one process far less.
//!
//! Exits 1 on a failed check, or before measuring when the `--out` file
//! exists but is not a baseline document (it is left untouched); exits 2
//! on a malformed flag or a zero count.
//!
//! The binary installs a counting global allocator, so its allocation
//! numbers are exact (every heap allocation and reallocation on every
//! thread), not sampled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering}; // sssp-lint: allow(no-shared-state): the counting allocator must observe every thread's allocations; the engine itself stays rank-sequential.
use std::sync::Arc;
use std::time::Instant;

use sssp_bench::baseline::{
    committed_block, read_document, upsert, PerfBaseline, PerfRecord, PipelineRecord, RatioSpread,
    SequentialRecord, TelemetryRecord, ThreadedRecord,
};
use sssp_bench::{exit_with, pick_roots, print_table, Family, Flags, EDGE_FACTOR, W_MAX};
use sssp_comm::cost::MachineModel;
use sssp_core::config::SsspConfig;
use sssp_core::engine::run_sssp;
use sssp_core::instrument::SubPhaseSpread;
use sssp_core::{threaded_delta_stepping, threaded_delta_stepping_traced, RunTrace, SubPhase};
use sssp_dist::DistGraph;
use sssp_graph::{Csr, CsrBuilder, RmatGenerator, VertexId};

static ALLOCS: AtomicU64 = AtomicU64::new(0); // sssp-lint: allow(no-shared-state): allocator counter, written from any thread by design.
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0); // sssp-lint: allow(no-shared-state): allocator counter, written from any thread by design.

/// Forwards to the system allocator, counting every allocation.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn measure(
    dg: &DistGraph,
    roots: &[VertexId],
    cfg: &SsspConfig,
    model: &MachineModel,
) -> PerfRecord {
    // One warmup run outside the measured window: first-touch effects
    // (lazy page faults, branch history) stay out of the numbers.
    let _ = run_sssp(dg, roots[0], cfg, model);

    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let mut supersteps = 0u64;
    let mut msgs = 0u64;
    let mut remote_msgs = 0u64;
    let mut coalesced_msgs = 0u64;
    let mut sim = 0.0;
    let mut gteps = 0.0;
    let t0 = Instant::now();
    for &root in roots {
        let out = run_sssp(dg, root, cfg, model);
        supersteps += out.stats.supersteps();
        msgs += out.stats.comm.total_msgs();
        remote_msgs += out.stats.comm.total_remote_msgs();
        coalesced_msgs += out.stats.comm.total_coalesced_msgs();
        sim += out.stats.ledger.total_s();
        gteps += out.stats.gteps(dg.m_input_undirected);
    }
    let mut wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - b0;

    // Wall time is the one noisy metric (allocation counts are exact and
    // deterministic): take the minimum over a few repetitions so a single
    // scheduler hiccup cannot trip the regression gate.
    for _ in 0..2 {
        let t = Instant::now();
        for &root in roots {
            let _ = run_sssp(dg, root, cfg, model);
        }
        wall_ms = wall_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let k = roots.len() as f64;
    // Wall-clock GTEPS on the same traversed-edge denominator as the
    // simulated figure (and as the threaded backend's): undirected input
    // edges over measured wall seconds per root.
    let per_run_s = wall_ms / 1e3 / k;
    PerfRecord {
        wall_ms,
        allocs,
        alloc_bytes,
        supersteps,
        msgs,
        remote_msgs,
        coalesced_msgs,
        simulated_s: sim / k,
        gteps: gteps / k,
        gteps_wall: sssp_comm::cost::teps(dg.m_input_undirected, per_run_s) / 1e9,
    }
}

/// Time the real-thread backend and the sequential oracle
/// (`seq::dijkstra_radix`) on the same roots, in alternating rounds: one
/// sequential pass, one threaded pass, repeated at least three times and as
/// often as fits in `PAIRED_BUDGET` (capped at `PAIRED_ROUNDS`). Each record
/// keeps its best round. The gated `threaded_over_seq` is the spread of
/// the *per-round ratios*: a round's two passes run within milliseconds of
/// each other, so whatever the machine was doing then scales both, and the
/// ratio holds still where either wall time alone swings 2× on a shared
/// box. At scale 10 a round is a few milliseconds and the quartiles are
/// over a hundred of them; at scale 20 it takes seconds and three is what
/// there is time for.
///
/// The threaded GTEPS are wall-clock (there is no cost-model ledger on this
/// backend) over the same traversed-edge denominator as the simulated
/// records, so the comparable simulated figure is `gteps_wall`, never the
/// simulated `gteps`.
fn measure_threaded_and_sequential(
    g: &Csr,
    dg: &Arc<DistGraph>,
    roots: &[VertexId],
    cfg: &SsspConfig,
    model: &MachineModel,
    pooled_wall_ms: f64,
) -> (ThreadedRecord, SequentialRecord, RatioSpread) {
    const PAIRED_BUDGET: std::time::Duration = std::time::Duration::from_millis(600);
    const PAIRED_ROUNDS: usize = 200;
    let timed_ms = |pass: &mut dyn FnMut()| {
        let t = Instant::now();
        pass();
        t.elapsed().as_secs_f64() * 1e3
    };
    let mut sequential = || {
        for &root in roots {
            std::hint::black_box(sssp_core::seq::dijkstra_radix(g, root));
        }
    };
    // Warm-up passes; the threaded one also yields the counts, which repeat
    // exactly on every later pass.
    sequential();
    let mut relax_local_msgs = 0u64;
    let mut relax_remote_msgs = 0u64;
    let mut coalesced_msgs = 0u64;
    for &root in roots {
        let out = threaded_delta_stepping(dg, root, cfg, model);
        relax_local_msgs += out.relax_local_msgs;
        relax_remote_msgs += out.relax_remote_msgs;
        coalesced_msgs += out.coalesced_msgs;
    }
    let mut threaded = || {
        for &root in roots {
            std::hint::black_box(threaded_delta_stepping(dg, root, cfg, model));
        }
    };

    let started = Instant::now();
    let (mut seq_ms, mut thr_ms) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::new();
    while ratios.len() < 3 || (ratios.len() < PAIRED_ROUNDS && started.elapsed() < PAIRED_BUDGET) {
        let (s, t) = (timed_ms(&mut sequential), timed_ms(&mut threaded));
        seq_ms = seq_ms.min(s);
        thr_ms = thr_ms.min(t);
        ratios.push(t / s.max(f64::MIN_POSITIVE));
    }
    let threaded_over_seq = RatioSpread::of(ratios);

    let k = roots.len() as f64;
    let gteps =
        |wall_ms: f64| sssp_comm::cost::teps(dg.m_input_undirected, wall_ms / 1e3 / k) / 1e9;
    (
        ThreadedRecord {
            wall_ms: thr_ms,
            gteps: gteps(thr_ms),
            speedup_vs_pooled: pooled_wall_ms / thr_ms.max(f64::MIN_POSITIVE),
            relax_local_msgs,
            relax_remote_msgs,
            coalesced_msgs,
        },
        SequentialRecord {
            wall_ms: seq_ms,
            gteps: gteps(seq_ms),
        },
        threaded_over_seq,
    )
}

/// Build the benchmark graph from scratch, stage by stage, at least three
/// times and as often as fits in `PIPELINE_BUDGET` (capped at
/// `PIPELINE_ROUNDS`), each round followed by one sequential query on the
/// graph it built. Each stage keeps its best round (the CSR build's
/// allocated bytes are the same every round); `construct_over_seq` is
/// the spread of the per-round ratios, for the reason given at
/// [`measure_threaded_and_sequential`]. Returns the last round's graphs:
/// each round drops the previous one first, so one graph is resident.
fn measure_pipeline(
    family: Family,
    scale: u32,
    ranks: usize,
    threads: usize,
) -> (Csr, DistGraph, PipelineRecord) {
    const PIPELINE_BUDGET: std::time::Duration = std::time::Duration::from_millis(600);
    const PIPELINE_ROUNDS: usize = 100;
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut best = [f64::INFINITY; 4];
    let mut ratios = Vec::new();
    let mut built = None;
    let (mut csr_alloc_bytes, mut partition_alloc_bytes) = (0, 0);
    let started = Instant::now();
    while ratios.len() < 3
        || (ratios.len() < PIPELINE_ROUNDS && started.elapsed() < PIPELINE_BUDGET)
    {
        drop(built.take());
        let t = Instant::now();
        let el = RmatGenerator::new(family.params(), scale, EDGE_FACTOR)
            .seed(1)
            .generate_weighted(W_MAX);
        let generate_ms = ms(t);
        let (t, b0) = (Instant::now(), ALLOC_BYTES.load(Ordering::Relaxed));
        let g = CsrBuilder::new().build(&el);
        let csr_ms = ms(t);
        csr_alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - b0;
        drop(el);
        let (t, b0) = (Instant::now(), ALLOC_BYTES.load(Ordering::Relaxed));
        let dg = DistGraph::build(&g, ranks, threads);
        let partition_ms = ms(t);
        partition_alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - b0;
        let root = pick_roots(&g, 1, 23)[0];
        let t = Instant::now();
        std::hint::black_box(sssp_core::seq::dijkstra_radix(&g, root));
        let sequential_ms = ms(t);
        let round = [generate_ms, csr_ms, partition_ms, sequential_ms];
        for (b, x) in best.iter_mut().zip(round) {
            *b = b.min(x);
        }
        ratios.push((generate_ms + csr_ms + partition_ms) / sequential_ms.max(f64::MIN_POSITIVE));
        built = Some((g, dg));
    }
    let (g, dg) = built.expect("at least three rounds ran");
    let [generate_ms, csr_ms, partition_ms, sequential_ms] = best;
    let record = PipelineRecord {
        generate_ms,
        csr_ms,
        csr_alloc_bytes,
        partition_ms,
        partition_alloc_bytes,
        sequential_ms,
        construct_over_seq: RatioSpread::of(ratios),
    };
    (g, dg, record)
}

/// Trace the first root on both backends, diff the traces, and fold the
/// threaded trace's headline counters into the telemetry block. A trace
/// divergence is reported (and recorded as `backends_agree: 0`) but does
/// not abort the measurement — the `--check` gate fails on it instead.
fn measure_telemetry(
    dg: &Arc<DistGraph>,
    root: VertexId,
    cfg: &SsspConfig,
    model: &MachineModel,
) -> (TelemetryRecord, SubPhaseSpread) {
    let simulated = run_sssp(dg, root, cfg, model);
    let trace_sim = RunTrace::from_run_stats(&simulated.stats);
    let t0 = Instant::now();
    let (_, trace_thr) = threaded_delta_stepping_traced(dg, root, cfg, model);
    let wall_measured_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let diffs = trace_sim.diff(&trace_thr);
    if !diffs.is_empty() {
        eprintln!(
            "telemetry: simulated and threaded traces diverged:\n{}",
            diffs.join("\n")
        );
    }
    let record = TelemetryRecord {
        backends_agree: u8::from(diffs.is_empty()),
        buckets: trace_thr.buckets.len() as u64,
        supersteps: trace_thr.supersteps,
        local_msgs: trace_thr.local_msgs,
        remote_msgs: trace_thr.remote_msgs,
        coalesced_msgs: trace_thr.coalesced_msgs,
        wall_short_ns: trace_thr.timings.short_ns,
        wall_long_push_ns: trace_thr.timings.long_push_ns,
        wall_long_pull_ns: trace_thr.timings.long_pull_ns,
        wall_measured_ns,
    };
    (record, trace_thr.spans)
}

fn main() {
    // Pin the worker count unless the caller chose one: the allocation
    // numbers in a recorded baseline must not depend on the machine's
    // core count.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    }

    let flags = Flags::from_args(&[
        "--scale",
        "--ranks",
        "--threads",
        "--roots",
        "--out",
        "--check",
    ]);
    let scale: u32 = flags.get("--scale", 10);
    let ranks = flags.positive("--ranks", 4);
    let threads = flags.positive("--threads", 4);
    let nroots = flags.positive("--roots", 3);
    let out_path = flags.text("--out").unwrap_or("BENCH_sssp.json");
    let key = format!("scale_{scale}");
    // Read both documents before measuring: a file this run could not
    // rewrite or gate against fails now, not minutes later.
    let existing = read_document(out_path).unwrap_or_else(|e| exit_with(1, &e));
    let committed = flags.text("--check").map(|path| {
        let block = committed_block(path, &key).unwrap_or_else(|e| exit_with(1, &e));
        (path, block)
    });

    let family = Family::Rmat2;
    let model = MachineModel::bgq_like();
    let (g, dg, pipeline) = measure_pipeline(family, scale, ranks, threads);
    let dg = Arc::new(dg);
    let roots = pick_roots(&g, nroots, 23);
    let cfg = SsspConfig::opt(25);

    let pooled = measure(&dg, &roots, &cfg, &model);
    let (threaded, sequential, threaded_over_seq) =
        measure_threaded_and_sequential(&g, &dg, &roots, &cfg, &model, pooled.wall_ms);
    let (telemetry, spans) = measure_telemetry(&dg, roots[0], &cfg, &model);

    let doc = PerfBaseline {
        family: family.name().to_string(),
        scale,
        ranks,
        threads,
        roots: roots.len(),
        gteps_edges: dg.m_input_undirected,
        pooled,
        threaded,
        sequential,
        threaded_over_seq,
        telemetry,
        pipeline,
    };

    let r = &doc.pooled;
    let mut rows = vec![vec![
        "pooled".to_string(),
        format!("{:.2}", r.wall_ms),
        r.allocs.to_string(),
        format!("{:.1}", r.allocs_per_superstep()),
        r.alloc_bytes.to_string(),
        r.supersteps.to_string(),
        format!("{:.3e}", r.simulated_s),
        format!("{:.4}", r.gteps),
        format!("{:.4}", r.gteps_wall),
    ]];
    rows.push(vec![
        "threaded".to_string(),
        format!("{:.2}", doc.threaded.wall_ms),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{:.4}", doc.threaded.gteps),
    ]);
    rows.push(vec![
        "sequential".to_string(),
        format!("{:.2}", doc.sequential.wall_ms),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{:.4}", doc.sequential.gteps),
    ]);
    print_table(
        &format!(
            "perf baseline — {} scale {scale}, p={ranks}×{threads}",
            family.name()
        ),
        &[
            "mode",
            "wall ms",
            "allocs",
            "allocs/superstep",
            "alloc bytes",
            "supersteps",
            "sim s",
            "GTEPS (sim)",
            "GTEPS (wall)",
        ],
        &rows,
    );
    println!(
        "threaded speedup vs pooled simulated: {:.2}x wall; \
         threaded / sequential: {:.2} (quartiles {:.2} – {:.2})",
        doc.threaded.speedup_vs_pooled,
        doc.threaded_over_seq.median,
        doc.threaded_over_seq.q1,
        doc.threaded_over_seq.q3
    );
    println!(
        "coalescing savings: {} of {} relax msgs removed ({:.1}%) on the threaded backend",
        doc.threaded.coalesced_msgs,
        doc.threaded.relax_msgs_total() + doc.threaded.coalesced_msgs,
        100.0 * doc.threaded.coalesced_fraction(),
    );
    println!(
        "telemetry: backends {} — {} buckets, {} supersteps, {} local + {} remote msgs traced",
        if doc.telemetry.backends_agree == 1 {
            "agree"
        } else {
            "DIVERGED"
        },
        doc.telemetry.buckets,
        doc.telemetry.supersteps,
        doc.telemetry.local_msgs,
        doc.telemetry.remote_msgs,
    );
    let wall = &doc.telemetry;
    println!(
        "telemetry wall clock (threaded, slowest-rank critical path): \
         {:.2} ms short, {:.2} ms long-push, {:.2} ms long-pull",
        wall.wall_short_ns as f64 / 1e6,
        wall.wall_long_push_ns as f64 / 1e6,
        wall.wall_long_pull_ns as f64 / 1e6,
    );

    let p = &doc.pipeline;
    println!(
        "pipeline (best of rounds): generate {:.2} ms, CSR {:.2} ms ({:.1} MiB allocated), \
         partition {:.2} ms ({:.1} MiB allocated); \
         construct / sequential query: {:.2} (quartiles {:.2} – {:.2})",
        p.generate_ms,
        p.csr_ms,
        p.csr_alloc_bytes as f64 / (1 << 20) as f64,
        p.partition_ms,
        p.partition_alloc_bytes as f64 / (1 << 20) as f64,
        p.construct_over_seq.median,
        p.construct_over_seq.q1,
        p.construct_over_seq.q3
    );

    let ms = |ns: u64| ns as f64 / 1e6;
    println!("telemetry sub-phases (threaded, per-rank min / median / max ms):");
    for sub in SubPhase::ALL {
        let s = spans.get(sub);
        println!(
            "  {:<16} {:>8.2} {:>8.2} {:>8.2}",
            sub.name(),
            ms(s.min_ns),
            ms(s.median_ns),
            ms(s.max_ns)
        );
    }

    // Re-record only this scale's block, keeping its wall-ratio gates;
    // every other block of an existing document survives.
    let json = upsert(&existing, &key, doc.to_json()).render();
    if let Err(e) = std::fs::write(out_path, json) {
        exit_with(1, &format!("cannot write {out_path}: {e}"));
    }
    let kept = match existing.get(&key) {
        Some(_) => "; ratio gates kept from the block it replaced",
        None => "",
    };
    println!("wrote {out_path} ({key} block{kept})");

    if let Some((path, block)) = committed {
        let tolerance = std::env::var("SSSP_PERF_TOLERANCE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.25);
        let problems = doc.check_against(&block, tolerance);
        if !problems.is_empty() {
            exit_with(
                1,
                &format!(
                    "perf check against {path} ({key}) FAILED:\n{}",
                    problems.join("\n")
                ),
            );
        }
        println!("perf check against {path} ({key}): OK");
    }
}
