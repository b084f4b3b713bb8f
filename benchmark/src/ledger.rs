//! The traced pass: the per-layer ledger of one workload.
//!
//! Set-up runs once under spans; then every layer is measured on the
//! workload's own graph with fixed item counts, so the counts repeat for a
//! fixed seed whatever the machine's speed. The `comm` probes need no
//! graph and are the same on every workload. Each per-layer metric is
//! reported by every workload: the engine workloads run a short query
//! stream to fill the `serve` rows, the serve workloads run the engine
//! ledger on their resident graph.

use std::hint::black_box;

use crate::alloc;
use crate::inputs::{Query, Rng};
use crate::layers::{self, Failure, Kind};
use crate::metrics::{mean, median, percentile, Outcome};
use crate::serve::{self, Sample, Stop};
use crate::trace::{SpanId, Tracer};
use crate::workload::{out_dir, set_up, Run, Workload, World};

/// Messages per lane of the bulk exchange probes.
const BULK_LANE: usize = 4096;
/// Messages of the pack probe, half of them duplicate keys.
const PACK_LANE: usize = 65_536;
/// Queries of the stream an engine workload runs to fill the serve rows:
/// one deck of the mix.
const ENGINE_STREAM_QUERIES: usize = 20;
/// Solo `rebuild` calls of the rebuild probe.
const REBUILD_PROBES: usize = 32;

pub fn traced(run: &Run) -> Outcome {
    let tracer = Tracer::new(true);
    let (mut world, _) = set_up(run, &tracer, 1);
    let mut out = Outcome::default();
    comm_probes(run, &tracer);
    core_ledger(&world, run, &tracer, &mut out);
    let served = serve_ledger(&mut world, run, &tracer, &mut out);
    graph_metrics(&world, &tracer, &mut out);
    comm_metrics(run, &tracer, &mut out);
    core_metrics(&tracer, &mut out);
    serve_metrics(&served, &tracer, &mut out);
    write_trace(run, &tracer);
    out
}

fn write_trace(run: &Run, tracer: &Tracer) {
    let dir = out_dir();
    let path = dir.join(format!("{}.trace.json", run.workload.name()));
    let doc = tracer.to_json(run.workload.name(), run.seed).render();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        // The metrics are already derived; a missing trace file loses the
        // span listing, not the result.
        eprintln!("cannot write {}: {e}", path.display());
    }
}

// ---- comm -------------------------------------------------------------

fn comm_probes(run: &Run, tracer: &Tracer) {
    let sizes = &run.sizes;
    let parent = tracer.begin("bench.comm_probes", None, None);
    let timed = |name: &'static str, f: &dyn Fn() -> f64| {
        let (inner_s, _, id) = tracer.span(name, parent, None, f);
        tracer.count(id, "inner_s", inner_s);
    };
    timed("comm.allreduce", &|| {
        layers::comm_allreduce(sizes.comm_rounds)
    });
    timed("comm.exchange_empty", &|| {
        layers::comm_exchange(sizes.comm_rounds, 0)
    });
    timed("comm.exchange_bulk", &|| {
        layers::comm_exchange(sizes.comm_bulk_rounds, BULK_LANE)
    });
    timed("comm.sim_exchange", &|| {
        layers::comm_sim_exchange(sizes.comm_bulk_rounds, BULK_LANE)
    });
    for _ in 0..sizes.comm_spawn_reps {
        tracer.span("comm.spawn_join", parent, None, layers::comm_spawn_join);
    }
    // Every key twice, in seeded order: coalescing removes exactly half.
    let mut rng = Rng::new(run.seed, 30);
    let mut template: Vec<(u64, u64)> = (0..PACK_LANE as u64)
        .map(|i| (i / 2, rng.next() >> 16))
        .collect();
    for i in (1..template.len()).rev() {
        template.swap(i, rng.below(i + 1));
    }
    for _ in 0..sizes.pack_reps {
        let mut lane = template.clone();
        let (removed, _, id) =
            tracer.span("comm.pack", parent, None, || layers::comm_pack(&mut lane));
        tracer.count(id, "removed", removed as f64);
    }
    tracer.end(parent);
}

fn comm_metrics(run: &Run, tracer: &Tracer, out: &mut Outcome) {
    let sizes = &run.sizes;
    let inner = |name: &str| -> f64 {
        tracer
            .named(name)
            .first()
            .and_then(|s| s.count("inner_s"))
            .unwrap_or(0.0)
    };
    let per_round_us = |name: &str| inner(name) / f64::from(sizes.comm_rounds) * 1e6;
    let bulk_msgs =
        f64::from(sizes.comm_bulk_rounds) * (layers::RANKS * layers::RANKS * BULK_LANE) as f64;
    out.push("comm.allreduce_us", per_round_us("comm.allreduce"), "us");
    out.push(
        "comm.exchange_empty_us",
        per_round_us("comm.exchange_empty"),
        "us",
    );
    out.push(
        "comm.spawn_join_us",
        median(&seconds(tracer, "comm.spawn_join")) * 1e6,
        "us",
    );
    out.push(
        "comm.exchange_mmsgs_per_s",
        bulk_msgs / inner("comm.exchange_bulk") / 1e6,
        "Mmsg/s",
    );
    out.push(
        "comm.pack_ns_per_msg",
        median(&seconds(tracer, "comm.pack")) / PACK_LANE as f64 * 1e9,
        "ns",
    );
    out.push(
        "comm.sim_exchange_mmsgs_per_s",
        bulk_msgs / inner("comm.sim_exchange") / 1e6,
        "Mmsg/s",
    );
}

// ---- graph and dist ---------------------------------------------------

fn seconds(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer.named(name).iter().map(|s| s.seconds()).collect()
}

fn counts(tracer: &Tracer, name: &str, key: &str) -> Vec<f64> {
    tracer
        .named(name)
        .iter()
        .filter_map(|s| s.count(key))
        .collect()
}

fn graph_metrics(world: &World, tracer: &Tracer, out: &mut Outcome) {
    let input_medges = mean(&counts(tracer, "graph.csr_build", "input_edges")) / 1e6;
    let load_s = median(&seconds(tracer, "graph.load"));
    let csr_s = median(&seconds(tracer, "graph.csr_build"));
    let dist_s = median(&seconds(tracer, "dist.build"));
    out.push("graph.load_s", load_s, "s");
    out.push("graph.load_medges_per_s", input_medges / load_s, "Medges/s");
    out.push("graph.csr_build_s", csr_s, "s");
    out.push("graph.csr_medges_per_s", input_medges / csr_s, "Medges/s");
    out.push("dist.build_s", dist_s, "s");
    out.push(
        "dist.build_medges_per_s",
        world.undirected_edges as f64 / 1e6 / dist_s,
        "Medges/s",
    );
    let per_rank: Vec<f64> = layers::rank_edges(&world.dist)
        .iter()
        .map(|&e| e as f64)
        .collect();
    let heaviest = per_rank.iter().copied().fold(0.0, f64::max);
    out.push("dist.edge_imbalance", heaviest / mean(&per_rank), "ratio");
}

// ---- core -------------------------------------------------------------

/// Compare an answer with the oracle field under a `core.validate` span.
fn validate(
    tracer: &Tracer,
    parent: SpanId,
    what: &str,
    root: u32,
    got: &[u64],
    want: &[u64],
    out: &mut Outcome,
) {
    let (same, _, _) = tracer.span("core.validate", parent, Some(u64::from(root)), || {
        got == want
    });
    out.attempted += 1;
    if !same {
        eprintln!("{what}: root {root} disagrees with the oracle");
        out.failed += 1;
    }
}

/// The engine ledger: each of the fixed roots through the oracle, the
/// fresh-scratch engine (allocations counted), the engine with its own
/// recorder on, and the simulated driver, interleaved so drift of the
/// machine cancels in the ratios; then the same roots on one kept scratch.
fn core_ledger(world: &World, run: &Run, tracer: &Tracer, out: &mut Outcome) {
    let parent = tracer.begin("bench.core_ledger", None, None);
    let mut rng = Rng::new(run.seed, 20);
    let roots: Vec<u32> = (0..run.sizes.ledger_roots)
        .map(|_| world.component[rng.below(world.component.len())])
        .collect();
    let (dist, setup) = (&world.dist, &world.setup);
    let mut oracle_fields = Vec::new();
    for &root in &roots {
        let q = Some(u64::from(root));
        let (want, _, _) = tracer.span("core.seq_radix", parent, q, || {
            layers::oracle(&world.graph, root)
        });
        let ((fresh, allocs, bytes), _, id) = tracer.span("core.fresh", parent, q, || {
            alloc::counted(|| layers::engine_fresh(dist, root, setup))
        });
        tracer.count(id, "allocs", allocs as f64);
        tracer.count(id, "alloc_bytes", bytes as f64);
        validate(
            tracer,
            parent,
            "core.fresh",
            root,
            &fresh.distances,
            &want,
            out,
        );

        let ((run_out, tel), _, id) = tracer.span("core.traced", parent, q, || {
            layers::engine_traced(dist, root, setup)
        });
        for (key, value) in [
            ("epochs", run_out.epochs),
            ("supersteps", tel.supersteps),
            ("relax_local_msgs", run_out.relax_local_msgs),
            ("relax_remote_msgs", run_out.relax_remote_msgs),
            ("coalesced_msgs", run_out.coalesced_msgs),
            ("remote_bytes", tel.remote_bytes),
            ("max_step_send_bytes", tel.max_step_send_bytes),
            ("short_ns", tel.short_ns),
            ("long_push_ns", tel.long_push_ns),
            ("long_pull_ns", tel.long_pull_ns),
            ("bf_ns", tel.bf_ns),
        ] {
            tracer.count(id, key, value as f64);
        }
        validate(
            tracer,
            parent,
            "core.traced",
            root,
            &run_out.distances,
            &want,
            out,
        );

        let ((sim, model_s, model_gteps), _, id) = tracer.span("core.sim", parent, q, || {
            layers::engine_simulated(dist, root, setup)
        });
        tracer.count(id, "model_s", model_s);
        tracer.count(id, "model_gteps", model_gteps);
        validate(tracer, parent, "core.sim", root, &sim, &want, out);
        oracle_fields.push(want);
    }
    let mut scratch = layers::new_scratch();
    // The first query on a scratch builds its pools; the ledger wants the
    // steady state the server's workers run in.
    black_box(layers::engine_reuse(
        dist,
        &[(roots[0], 0)],
        None,
        setup,
        &mut scratch,
    ));
    for (&root, want) in roots.iter().zip(&oracle_fields) {
        let ((reuse, _, bytes), _, id) =
            tracer.span("core.reuse", parent, Some(u64::from(root)), || {
                alloc::counted(|| {
                    layers::engine_reuse(dist, &[(root, 0)], None, setup, &mut scratch)
                })
            });
        tracer.count(id, "alloc_bytes", bytes as f64);
        validate(
            tracer,
            parent,
            "core.reuse",
            root,
            &reuse.distances,
            want,
            out,
        );
    }
    tracer.end(parent);
}

fn core_metrics(tracer: &Tracer, out: &mut Outcome) {
    const MIB: f64 = 1024.0 * 1024.0;
    let p50_ms = |name: &str| median(&seconds(tracer, name)) * 1e3;
    let traced = |key: &str| mean(&counts(tracer, "core.traced", key));
    let (seq, fresh, reuse, with_recorder) = (
        p50_ms("core.seq_radix"),
        p50_ms("core.fresh"),
        p50_ms("core.reuse"),
        p50_ms("core.traced"),
    );
    out.push("core.seq_radix_ms_p50", seq, "ms");
    out.push("core.threaded_over_seq", fresh / seq, "ratio");
    out.push("core.query_reuse_ms_p50", reuse, "ms");
    out.push("core.fresh_over_reuse", fresh / reuse, "ratio");
    out.push(
        "core.allocs_per_query",
        mean(&counts(tracer, "core.fresh", "allocs")),
        "allocs",
    );
    out.push(
        "core.alloc_mib_per_query",
        mean(&counts(tracer, "core.fresh", "alloc_bytes")) / MIB,
        "MiB",
    );
    out.push(
        "core.reuse_alloc_mib_per_query",
        mean(&counts(tracer, "core.reuse", "alloc_bytes")) / MIB,
        "MiB",
    );
    out.push("core.sim_ms_p50", p50_ms("core.sim"), "ms");
    out.push(
        "core.sim_model_s",
        mean(&counts(tracer, "core.sim", "model_s")),
        "s",
    );
    out.push(
        "core.sim_model_gteps",
        mean(&counts(tracer, "core.sim", "model_gteps")),
        "GTEPS",
    );
    out.push("core.traced_ms_p50", with_recorder, "ms");
    out.push("core.trace_overhead", with_recorder / fresh, "ratio");
    out.push("core.phase_short_ms", traced("short_ns") / 1e6, "ms");
    out.push(
        "core.phase_long_push_ms",
        traced("long_push_ns") / 1e6,
        "ms",
    );
    out.push(
        "core.phase_long_pull_ms",
        traced("long_pull_ns") / 1e6,
        "ms",
    );
    out.push("core.phase_bf_ms", traced("bf_ns") / 1e6, "ms");
    let mean_traced_s = mean(&seconds(tracer, "core.traced"));
    let relax_msgs = traced("relax_local_msgs") + traced("relax_remote_msgs");
    out.push("core.epochs", traced("epochs"), "count");
    out.push("core.supersteps", traced("supersteps"), "count");
    out.push(
        "core.us_per_superstep",
        mean_traced_s / traced("supersteps") * 1e6,
        "us",
    );
    out.push("core.relax_local_msgs", traced("relax_local_msgs"), "count");
    out.push(
        "core.relax_remote_msgs",
        traced("relax_remote_msgs"),
        "count",
    );
    out.push("core.coalesced_msgs", traced("coalesced_msgs"), "count");
    out.push(
        "core.coalesced_fraction",
        traced("coalesced_msgs") / (traced("coalesced_msgs") + relax_msgs),
        "ratio",
    );
    out.push("core.remote_bytes", traced("remote_bytes"), "B");
    out.push(
        "core.max_step_send_bytes",
        counts(tracer, "core.traced", "max_step_send_bytes")
            .into_iter()
            .fold(0.0, f64::max),
        "B",
    );
    out.push(
        "core.ns_per_relax_msg",
        mean_traced_s / relax_msgs * 1e9,
        "ns",
    );
    out.push("core.validate_ms_p50", p50_ms("core.validate"), "ms");
}

// ---- serve ------------------------------------------------------------

/// What the serve ledger hands to the metric derivation.
struct Served {
    stream: Vec<Sample>,
    solo_miss: Vec<Sample>,
    solo_hit: Vec<Sample>,
}

/// The serve ledger: the workload's stream for a fixed number of queries
/// from two clients; then, from one caller, distinct roots once (misses),
/// the same roots again (hits) and the same roots straight through the
/// engine on a kept scratch; then the rebuild probe and the shutdown.
fn serve_ledger(world: &mut World, run: &Run, tracer: &Tracer, out: &mut Outcome) -> Served {
    let parent = tracer.begin("bench.serve_ledger", None, None);
    let server = match world.server.take() {
        Some(server) => server,
        None => world.start_server(tracer, parent),
    };
    let world = &*world;
    let sizes = &run.sizes;
    let (queries, probes) = match run.workload {
        Workload::ServeRepeat => (sizes.traced_queries_repeat, sizes.solo_probe_serve),
        Workload::ServeChurn => (sizes.traced_queries_churn, sizes.solo_probe_serve),
        _ => (ENGINE_STREAM_QUERIES, sizes.solo_probe_engine),
    };
    let stream = serve::run_stream(world, &server, run, tracer, parent, Stop::Count(queries));
    out.attempted += stream.attempted;
    out.failed += stream.failed + serve::verify(world, &stream.checks, tracer, parent);

    // Distinct roots, so the first pass misses and the second hits.
    let mut rng = Rng::new(run.seed, 40);
    let mut roots: Vec<u32> = Vec::new();
    while roots.len() < probes.min(world.component.len()) {
        let root = world.component[rng.below(world.component.len())];
        if !roots.contains(&root) {
            roots.push(root);
        }
    }
    let solo = |root: u32| {
        let q = Query {
            kind: Kind::SingleSource,
            root,
            target: root,
            seeds: Vec::new(),
        };
        serve::ask(&server, &q, tracer, parent, u64::from(root))
    };
    let mut solo_miss = Vec::new();
    let mut solo_hit = Vec::new();
    let mut scratch = layers::new_scratch();
    black_box(layers::engine_reuse(
        &world.dist,
        &[(roots[0], 0)],
        None,
        &world.setup,
        &mut scratch,
    ));
    for &root in &roots {
        let (miss, first) = solo(root);
        let (hit, second) = solo(root);
        let (direct, _, _) = tracer.span("core.direct", parent, Some(u64::from(root)), || {
            layers::engine_reuse(&world.dist, &[(root, 0)], None, &world.setup, &mut scratch)
        });
        let want = layers::oracle(&world.graph, root);
        validate(
            tracer,
            parent,
            "core.direct",
            root,
            &direct.distances,
            &want,
            out,
        );
        for answer in [first, second] {
            let field = answer.as_ref().and_then(|a| match &a.payload {
                layers::Payload::Distances(d) => Some(d.as_slice()),
                _ => None,
            });
            validate(
                tracer,
                parent,
                "serve solo",
                root,
                field.unwrap_or(&[]),
                &want,
                out,
            );
        }
        solo_miss.push(miss);
        solo_hit.push(hit);
    }
    for _ in 0..REBUILD_PROBES {
        tracer.span("serve.rebuild", parent, None, || {
            layers::rebuild(&server, &world.dist)
        });
    }
    tracer.span("serve.shutdown", parent, None, move || drop(server));
    tracer.end(parent);
    Served {
        stream: stream.samples,
        solo_miss,
        solo_hit,
    }
}

fn serve_metrics(served: &Served, tracer: &Tracer, out: &mut Outcome) {
    let p50_ms = |samples: &[&Sample]| {
        median(&samples.iter().map(|s| s.latency_s).collect::<Vec<_>>()) * 1e3
    };
    let answered: Vec<&Sample> = served.stream.iter().filter(|s| s.ok()).collect();
    let misses: Vec<&Sample> = answered.iter().copied().filter(|s| !s.cache_hit).collect();
    let of_kind = |kinds: &[Kind]| -> Vec<&Sample> {
        misses
            .iter()
            .copied()
            .filter(|s| kinds.contains(&s.kind))
            .collect()
    };
    let epochs_mean =
        |samples: &[&Sample]| mean(&samples.iter().map(|s| s.epochs as f64).collect::<Vec<_>>());
    let failures = |f: Failure| {
        served
            .stream
            .iter()
            .chain(&served.solo_miss)
            .chain(&served.solo_hit)
            .filter(|s| s.failure == Some(f))
            .count() as f64
    };
    let solo_miss: Vec<&Sample> = served
        .solo_miss
        .iter()
        .filter(|s| s.ok() && !s.cache_hit)
        .collect();
    let solo_hit: Vec<&Sample> = served
        .solo_hit
        .iter()
        .filter(|s| s.ok() && s.cache_hit)
        .collect();
    let single_source = of_kind(&[Kind::SingleSource]);
    let p2p = of_kind(&[Kind::PointToPoint]);
    let full = of_kind(&[Kind::SingleSource, Kind::MultiSeed]);
    let (solo_ms, direct_ms) = (
        p50_ms(&solo_miss),
        median(&seconds(tracer, "core.direct")) * 1e3,
    );

    out.push(
        "serve.startup_ms",
        median(&seconds(tracer, "serve.startup")) * 1e3,
        "ms",
    );
    out.push(
        "serve.shutdown_ms",
        median(&seconds(tracer, "serve.shutdown")) * 1e3,
        "ms",
    );
    out.push(
        "serve.submit_us_p50",
        median(&answered.iter().map(|s| s.submit_s).collect::<Vec<_>>()) * 1e6,
        "us",
    );
    out.push("serve.hit_us_p50", p50_ms(&solo_hit) * 1e3, "us");
    out.push(
        "serve.cache_hit_ratio",
        answered.iter().filter(|s| s.cache_hit).count() as f64 / answered.len().max(1) as f64,
        "ratio",
    );
    // The tail of the stream is a per-layer row, not an end-to-end one:
    // the engine workloads time 20 to 40 roots, too few for a tail that
    // holds still, and every workload must report every end-to-end metric.
    let stream_latencies: Vec<f64> = answered.iter().map(|s| s.latency_s).collect();
    out.push(
        "serve.query_ms_p95",
        percentile(&stream_latencies, 0.95) * 1e3,
        "ms",
    );
    out.push("serve.miss_ms_p50", p50_ms(&misses), "ms");
    out.push("serve.single_source_ms_p50", p50_ms(&single_source), "ms");
    out.push("serve.p2p_ms_p50", p50_ms(&p2p), "ms");
    out.push(
        "serve.multi_seed_ms_p50",
        p50_ms(&of_kind(&[Kind::MultiSeed])),
        "ms",
    );
    out.push("serve.bfs_ms_p50", p50_ms(&of_kind(&[Kind::Bfs])), "ms");
    out.push("serve.p2p_epochs_mean", epochs_mean(&p2p), "epochs");
    out.push("serve.full_epochs_mean", epochs_mean(&full), "epochs");
    out.push("serve.solo_miss_ms_p50", solo_ms, "ms");
    out.push("serve.direct_engine_ms_p50", direct_ms, "ms");
    out.push("serve.overhead_ms", solo_ms - direct_ms, "ms");
    out.push(
        "serve.contention_ms",
        p50_ms(&single_source) - solo_ms,
        "ms",
    );
    out.push(
        "serve.rebuild_us_p50",
        median(&seconds(tracer, "serve.rebuild")) * 1e6,
        "us",
    );
    out.push("serve.timed_out", failures(Failure::TimedOut), "count");
    out.push("serve.panicked", failures(Failure::Panicked), "count");
    out.push("serve.invalid", failures(Failure::Invalid), "count");
}
