//! Recorded performance baseline: wall time, allocations per superstep,
//! message traffic and simulated time of the engine on the lockstep
//! transport (the `pooled` record), the threaded transport's wall time on
//! the same roots, and the sequential oracle (`seq::dijkstra_radix`) on the
//! same graph in the same process, with the `threaded_over_seq` ratio.
//!
//! Usage:
//!   cargo run -p sssp-bench --bin perf_baseline [--release] --
//!       [--scale N] [--ranks N] [--threads N] [--roots N]
//!       [--out PATH] [--check PATH]
//!
//! Writes a `BENCH_sssp.json` document (see `sssp_bench::baseline`) with
//! one `"scale_N"` block per measured scale, each holding one record per
//! transport; a run re-records only its own scale's block and preserves
//! the others. `--check PATH` additionally compares the fresh run against
//! the committed baseline's block for the same scale and exits nonzero
//! when a message or superstep count differs at all, or when
//! `threaded_over_seq` (this run's lower quartile against the committed
//! upper one), allocations per superstep or allocated bytes regress by more
//! than `SSSP_PERF_TOLERANCE` (default 0.25, i.e. 25%). Absolute wall times are
//! recorded and never compared: they move with the machine, the ratio of
//! two timings taken in one process far less.
//!
//! The binary installs a counting global allocator, so its allocation
//! numbers are exact (every heap allocation and reallocation on every
//! thread), not sampled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering}; // sssp-lint: allow(no-shared-state): the counting allocator must observe every thread's allocations; the engine itself stays rank-sequential.
use std::sync::Arc;
use std::time::Instant;

use sssp_bench::baseline::{
    extract_number, scale_block, upsert_scale_block, PerfBaseline, PerfRecord, RatioSpread,
    SequentialRecord, TelemetryRecord, ThreadedRecord,
};
use sssp_bench::{build_family, pick_roots, print_table, Family};
use sssp_comm::cost::MachineModel;
use sssp_core::config::SsspConfig;
use sssp_core::engine::run_sssp;
use sssp_core::instrument::SubPhaseSpread;
use sssp_core::{threaded_delta_stepping, threaded_delta_stepping_traced, RunTrace, SubPhase};
use sssp_dist::DistGraph;
use sssp_graph::{Csr, VertexId};

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
    ratios.sort_by(f64::total_cmp);
    let threaded_over_seq = RatioSpread {
        q1: ratios[ratios.len() / 4],
        median: ratios[ratios.len() / 2],
        q3: ratios[3 * ratios.len() / 4],
    };

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
    let trace_sim = RunTrace::from_run_stats(&simulated.stats, "simulated");
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

/// Gate the freshly measured `current` document against one scale's block
/// of the committed baseline (slice the committed document with
/// [`scale_block`] first — the extractors here find first matches).
fn check_against(committed: &str, current: &PerfBaseline) -> Result<(), String> {
    let tol: f64 = std::env::var("SSSP_PERF_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let mut problems = Vec::new();
    let mut gate = |name: &str, base: Option<f64>, now: f64| match base {
        Some(b) if b > 0.0 && now > b * (1.0 + tol) => {
            problems.push(format!(
                "{name} regressed: {now:.3} vs baseline {b:.3} (+{:.0}% > {:.0}% tolerance)",
                100.0 * (now / b - 1.0),
                100.0 * tol
            ));
        }
        Some(_) => {}
        None => problems.push(format!("committed baseline is missing {name}")),
    };
    // The ratio's tolerance starts from its recorded spread: this run's
    // lower quartile against the committed upper one. Whole runs shift by
    // ±15 % on a shared box; a regression worth catching moves the lower
    // quartile past the old upper one.
    gate(
        "threaded_over_seq (this run's q1 vs the baseline's q3)",
        extract_number(committed, "", "threaded_over_seq_q3"),
        current.threaded_over_seq.q1,
    );
    gate(
        "pooled.allocs_per_superstep",
        extract_number(committed, "pooled", "allocs_per_superstep"),
        current.pooled.allocs_per_superstep(),
    );
    gate(
        "pooled.alloc_bytes",
        extract_number(committed, "pooled", "alloc_bytes"),
        current.pooled.alloc_bytes as f64,
    );
    // Counts are a pure function of (graph, roots, config): any difference
    // from the committed block — in either direction — means the algorithm
    // or its accounting changed, and the block must be re-recorded on
    // purpose.
    let (pooled, threaded, telemetry) = (&current.pooled, &current.threaded, &current.telemetry);
    for (object, key, now) in [
        ("pooled", "supersteps", pooled.supersteps),
        ("pooled", "msgs", pooled.msgs),
        ("pooled", "remote_msgs", pooled.remote_msgs),
        ("pooled", "coalesced_msgs", pooled.coalesced_msgs),
        ("threaded", "relax_local_msgs", threaded.relax_local_msgs),
        ("threaded", "relax_remote_msgs", threaded.relax_remote_msgs),
        ("threaded", "coalesced_msgs", threaded.coalesced_msgs),
        ("telemetry", "buckets", telemetry.buckets),
        ("telemetry", "supersteps", telemetry.supersteps),
        ("telemetry", "local_msgs", telemetry.local_msgs),
        ("telemetry", "remote_msgs", telemetry.remote_msgs),
        ("telemetry", "coalesced_msgs", telemetry.coalesced_msgs),
    ] {
        match extract_number(committed, object, key) {
            Some(b) if b == now as f64 => {}
            Some(b) => problems.push(format!("{object}.{key} changed: {now} vs baseline {b:.0}")),
            None => problems.push(format!("committed baseline is missing {object}.{key}")),
        }
    }
    match extract_number(committed, "telemetry", "backends_agree") {
        Some(b) => {
            if b != 1.0 {
                problems.push(format!(
                    "committed baseline records backends_agree = {b} (expected 1)"
                ));
            }
        }
        None => problems.push("committed baseline is missing telemetry.backends_agree".to_string()),
    }
    if current.telemetry.backends_agree != 1 {
        problems.push("simulated and threaded traces diverged in this run".to_string());
    }
    // Wall-clock telemetry sanity: gates on the CURRENT run only (the
    // committed baseline's wall numbers are machine-dependent and not
    // comparable, but a freshly measured run must be self-consistent).
    problems.extend(current.telemetry.wall_problems());
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() {
    // Pin the worker count unless the caller chose one: the allocation
    // numbers in a recorded baseline must not depend on the machine's
    // core count.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    }

    let mut scale = 10u32;
    let mut ranks = 4usize;
    let mut threads = 4usize;
    let mut nroots = 3usize;
    let mut out_path = "BENCH_sssp.json".to_string();
    let mut check_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{what} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--scale" => scale = take("--scale").parse().unwrap_or(scale),
            "--ranks" => ranks = take("--ranks").parse().unwrap_or(ranks),
            "--threads" => threads = take("--threads").parse().unwrap_or(threads),
            "--roots" => nroots = take("--roots").parse().unwrap_or(nroots),
            "--out" => out_path = take("--out"),
            "--check" => check_path = Some(take("--check")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let family = Family::Rmat2;
    let model = MachineModel::bgq_like();
    let g = build_family(family, scale, 1);
    let dg = Arc::new(DistGraph::build(&g, ranks, threads));
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

    // Re-record only this scale's block; other scales' blocks in an
    // existing document survive verbatim.
    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let json = upsert_scale_block(&existing, scale, &doc.to_json());
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} (scale_{scale} block)");

    if let Some(path) = check_path {
        let committed = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read committed baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let Some(block) = scale_block(&committed, scale) else {
            eprintln!("committed baseline {path} has no scale_{scale} block");
            std::process::exit(1);
        };
        match check_against(&block, &doc) {
            Ok(()) => println!("perf check against {path} (scale_{scale}): OK"),
            Err(msg) => {
                eprintln!("perf check against {path} (scale_{scale}) FAILED:\n{msg}");
                std::process::exit(1);
            }
        }
    }
}
