//! Machine-readable perf-baseline records (`BENCH_sssp.json`).
//!
//! `perf_baseline` measures the engine on both transports — lockstep
//! (the `pooled` record, named for its pooled superstep buffers) and
//! real threads — and records wall time, allocation counts, message
//! traffic and simulated time here. Every record renders to a
//! [`json::Value`](crate::json::Value), and the `--check` gates read the
//! committed document's fields by path, counts as exact `u64`s.
//!
//! The document holds one block per measured R-MAT scale, keyed
//! `"scale_N"`, an optional grid block, keyed `"grid_256"`
//! ([`GridBaseline`]), and an optional `"serving"` block recorded by
//! `serve_bench` (concurrent multi-root query throughput over a resident
//! graph). Each binary regenerates only its own block and preserves the
//! others ([`upsert`]), so the per-scale baselines and the serving
//! baseline coexist in one committed file.
//!
//! GTEPS conventions: every GTEPS figure in a block divides the same
//! traversed-edge count (`gteps_edges`, the undirected input edge count)
//! by a time. `gteps` on the simulated records uses the cost-model clock;
//! `gteps_wall` (and the threaded backend's `gteps`) use measured wall
//! time. Compare wall to wall and simulated to simulated — the two clocks
//! measure different machines.

use crate::json::Value;

/// Metrics of the measured lockstep (simulated-machine) runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfRecord {
    /// Wall-clock milliseconds over all measured roots.
    pub wall_ms: f64,
    /// Heap allocations performed during the measured runs.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Data-exchange supersteps accumulated over the measured runs.
    pub supersteps: u64,
    /// Messages delivered over the measured runs (post-coalescing).
    pub msgs: u64,
    /// The subset of `msgs` that crossed rank boundaries — the wire
    /// traffic the drift gate watches.
    pub remote_msgs: u64,
    /// Messages removed by sender-side coalescing before the exchanges.
    pub coalesced_msgs: u64,
    /// Mean simulated seconds per run (the cost-model clock).
    pub simulated_s: f64,
    /// Mean simulated GTEPS per run: the block's `gteps_edges` denominator
    /// over `simulated_s`. Comparable only with other simulated figures.
    pub gteps: f64,
    /// Mean wall-clock GTEPS per run: the same `gteps_edges` denominator
    /// over measured wall time per root. This is the figure comparable
    /// with the threaded backend's (wall-clock) `gteps`.
    pub gteps_wall: f64,
}

impl PerfRecord {
    /// Allocations per superstep — the pooling work's headline metric.
    pub fn allocs_per_superstep(&self) -> f64 {
        if self.supersteps == 0 {
            0.0
        } else {
            self.allocs as f64 / self.supersteps as f64
        }
    }

    /// Fraction of would-be messages the coalescer removed — the
    /// coalescing work's headline metric.
    pub fn coalesced_fraction(&self) -> f64 {
        let would_be = self.msgs + self.coalesced_msgs;
        if would_be == 0 {
            0.0
        } else {
            self.coalesced_msgs as f64 / would_be as f64
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("wall_ms", Value::fixed(self.wall_ms, 3)),
            ("allocs", Value::int(self.allocs)),
            ("alloc_bytes", Value::int(self.alloc_bytes)),
            ("supersteps", Value::int(self.supersteps)),
            (
                "allocs_per_superstep",
                Value::fixed(self.allocs_per_superstep(), 3),
            ),
            ("msgs", Value::int(self.msgs)),
            ("remote_msgs", Value::int(self.remote_msgs)),
            ("coalesced_msgs", Value::int(self.coalesced_msgs)),
            (
                "coalesced_fraction",
                Value::fixed(self.coalesced_fraction(), 4),
            ),
            ("simulated_s", Value::fixed(self.simulated_s, 6)),
            ("gteps", Value::fixed(self.gteps, 6)),
            ("gteps_wall", Value::fixed(self.gteps_wall, 6)),
        ])
    }
}

/// Metrics of the real-thread backend run (one OS thread per rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadedRecord {
    /// Wall-clock milliseconds over all measured roots.
    pub wall_ms: f64,
    /// Wall-clock GTEPS over the measured runs: the block's `gteps_edges`
    /// denominator over measured wall time per root. There is no
    /// cost-model ledger on this backend, so the figure comparable here is
    /// the simulated records' `gteps_wall`, never their simulated `gteps`.
    pub gteps: f64,
    /// Wall-time speedup over the pooled simulated engine on the same
    /// workload (pooled wall_ms / threaded wall_ms).
    pub speedup_vs_pooled: f64,
    /// Relax messages that stayed on the sender's own rank
    /// (post-coalescing; never touch the channels' wire).
    pub relax_local_msgs: u64,
    /// Relax messages that crossed rank boundaries (post-coalescing).
    pub relax_remote_msgs: u64,
    /// Relax messages removed by sender-side coalescing.
    pub coalesced_msgs: u64,
}

impl ThreadedRecord {
    /// All relax messages that entered an exchange, local and remote.
    pub fn relax_msgs_total(&self) -> u64 {
        self.relax_local_msgs + self.relax_remote_msgs
    }

    /// Fraction of would-be relax messages the coalescer removed.
    pub fn coalesced_fraction(&self) -> f64 {
        let would_be = self.relax_msgs_total() + self.coalesced_msgs;
        if would_be == 0 {
            0.0
        } else {
            self.coalesced_msgs as f64 / would_be as f64
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("wall_ms", Value::fixed(self.wall_ms, 3)),
            ("gteps", Value::fixed(self.gteps, 6)),
            ("speedup_vs_pooled", Value::fixed(self.speedup_vs_pooled, 3)),
            ("relax_local_msgs", Value::int(self.relax_local_msgs)),
            ("relax_remote_msgs", Value::int(self.relax_remote_msgs)),
            ("coalesced_msgs", Value::int(self.coalesced_msgs)),
            (
                "coalesced_fraction",
                Value::fixed(self.coalesced_fraction(), 4),
            ),
        ])
    }
}

/// The sequential anchor: `seq::dijkstra_radix` over the same graph and
/// roots, timed in the same process as the engine records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialRecord {
    /// Wall-clock milliseconds over all measured roots.
    pub wall_ms: f64,
    /// Wall-clock GTEPS over the block's `gteps_edges` denominator.
    pub gteps: f64,
}

impl SequentialRecord {
    /// The record as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("wall_ms", Value::fixed(self.wall_ms, 3)),
            ("gteps", Value::fixed(self.gteps, 6)),
        ])
    }
}

/// Quartiles of a ratio measured once per round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioSpread {
    /// Lower quartile — what a fresh run is gated on.
    pub q1: f64,
    /// Median — the headline figure.
    pub median: f64,
    /// Upper quartile — what the committed baseline is gated at.
    pub q3: f64,
}

impl RatioSpread {
    /// Quartiles of the per-round ratios (at least one round).
    pub fn of(mut ratios: Vec<f64>) -> Self {
        ratios.sort_by(f64::total_cmp);
        let at = |num: usize| ratios[num * ratios.len() / 4];
        RatioSpread {
            q1: at(1),
            median: at(2),
            q3: at(3),
        }
    }
}

/// The construction pipeline at the block's scale — generation, CSR build
/// and partition, the set-up a run pays before its first query — timed
/// stage by stage and anchored on one sequential query of the built graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineRecord {
    /// Best-round milliseconds of R-MAT edge generation.
    pub generate_ms: f64,
    /// Best-round milliseconds of the CSR build.
    pub csr_ms: f64,
    /// Bytes requested from the allocator during one CSR build: the output
    /// plus the build's transient arrays. Exact, and gated by `--check`
    /// like `pooled.alloc_bytes`.
    pub csr_alloc_bytes: u64,
    /// Best-round milliseconds of `DistGraph::build`.
    pub partition_ms: f64,
    /// Bytes requested from the allocator during one `DistGraph::build`:
    /// every rank's slice plus the id maps and transients. Exact, and
    /// gated by `--check` like `csr_alloc_bytes`.
    pub partition_alloc_bytes: u64,
    /// Best-round milliseconds of one `seq::dijkstra_radix` on the graph.
    pub sequential_ms: f64,
    /// (generate + CSR + partition) over the same round's sequential query:
    /// the spread `--check` gates, like `threaded_over_seq`.
    pub construct_over_seq: RatioSpread,
}

impl PipelineRecord {
    /// The record as a JSON object.
    pub fn to_json(&self) -> Value {
        let spread = &self.construct_over_seq;
        Value::obj([
            ("generate_ms", Value::fixed(self.generate_ms, 3)),
            ("csr_ms", Value::fixed(self.csr_ms, 3)),
            ("csr_alloc_bytes", Value::int(self.csr_alloc_bytes)),
            ("partition_ms", Value::fixed(self.partition_ms, 3)),
            (
                "partition_alloc_bytes",
                Value::int(self.partition_alloc_bytes),
            ),
            ("sequential_ms", Value::fixed(self.sequential_ms, 3)),
            ("construct_over_seq", Value::fixed(spread.median, 3)),
            ("construct_over_seq_q1", Value::fixed(spread.q1, 3)),
            ("construct_over_seq_q3", Value::fixed(spread.q3, 3)),
        ])
    }
}

/// The unified-telemetry block: a simulated and a threaded trace of the
/// same workload compared bucket-by-bucket, plus the threaded trace's
/// headline counters (which the `--check` gate watches for drift).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryRecord {
    /// 1 when the simulated and threaded traces diffed clean, else 0.
    pub backends_agree: u8,
    /// Buckets processed before the hybrid tail (per traced run).
    pub buckets: u64,
    /// Data-exchange supersteps of the traced run.
    pub supersteps: u64,
    /// Rank-local messages of the traced run (relax + requests).
    pub local_msgs: u64,
    /// Wire messages of the traced run (relax + requests).
    pub remote_msgs: u64,
    /// Messages removed by sender-side coalescing in the traced run.
    pub coalesced_msgs: u64,
    /// Wall-clock nanoseconds the threaded trace spent in short-edge
    /// phases. The wall fields track the slowest rank's critical path and
    /// vary with machine load, so the `--check` gate never compares them
    /// against the committed baseline — it only sanity-checks the current
    /// run's numbers against each other ([`TelemetryRecord::wall_problems`]).
    pub wall_short_ns: u64,
    /// Wall-clock nanoseconds in long push phases.
    pub wall_long_push_ns: u64,
    /// Wall-clock nanoseconds in long pull phases.
    pub wall_long_pull_ns: u64,
    /// End-to-end measured wall time of the traced threaded run (timed
    /// around the whole run, unlike the per-phase accumulators above,
    /// which only cover phase bodies). The `--check` gate cross-validates
    /// the phase accumulators against this: their sum may not exceed it,
    /// and neither may be zero on a run that performed supersteps.
    pub wall_measured_ns: u64,
}

impl TelemetryRecord {
    /// Sum of the per-phase wall-clock accumulators (NOT the measured
    /// end-to-end wall time — that is [`TelemetryRecord::wall_measured_ns`];
    /// this sum excludes setup, collectives and inter-phase gaps).
    pub fn wall_total_ns(&self) -> u64 {
        self.wall_short_ns + self.wall_long_push_ns + self.wall_long_pull_ns
    }

    /// Sanity problems in the wall-clock telemetry of *this* run: the
    /// phase-time sum exceeding the measured end-to-end wall time (the
    /// accumulators cover disjoint sub-intervals of the run, so their sum
    /// is bounded by it), or zero wall time on a run that demonstrably
    /// performed supersteps. Empty on healthy telemetry.
    pub fn wall_problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.wall_total_ns() > self.wall_measured_ns {
            problems.push(format!(
                "telemetry wall-clock phase sum {} ns exceeds the measured \
                 run wall time {} ns — the phase accumulators overlap or \
                 the total was not measured around the whole run",
                self.wall_total_ns(),
                self.wall_measured_ns
            ));
        }
        if self.supersteps > 0 {
            if self.wall_total_ns() == 0 {
                problems.push(format!(
                    "telemetry recorded {} supersteps but zero wall-clock \
                     phase time — the threaded recorder dropped its timings",
                    self.supersteps
                ));
            }
            if self.wall_measured_ns == 0 {
                problems.push(format!(
                    "telemetry recorded {} supersteps but zero measured \
                     wall time — the traced run was not timed",
                    self.supersteps
                ));
            }
        }
        problems
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("backends_agree", Value::int(self.backends_agree.into())),
            ("buckets", Value::int(self.buckets)),
            ("supersteps", Value::int(self.supersteps)),
            ("local_msgs", Value::int(self.local_msgs)),
            ("remote_msgs", Value::int(self.remote_msgs)),
            ("coalesced_msgs", Value::int(self.coalesced_msgs)),
            ("wall_short_ns", Value::int(self.wall_short_ns)),
            ("wall_long_push_ns", Value::int(self.wall_long_push_ns)),
            ("wall_long_pull_ns", Value::int(self.wall_long_pull_ns)),
            ("wall_measured_ns", Value::int(self.wall_measured_ns)),
        ])
    }
}

/// A full baseline document: the workload parameters plus one record per
/// measured engine mode.
#[derive(Debug, Clone)]
pub struct PerfBaseline {
    /// Graph family name (e.g. "RMAT-2").
    pub family: String,
    /// R-MAT scale (log2 of the vertex count).
    pub scale: u32,
    /// Simulated rank count.
    pub ranks: usize,
    /// Logical threads per rank.
    pub threads: usize,
    /// Number of measured roots.
    pub roots: usize,
    /// The traversed-edge denominator shared by every GTEPS figure in this
    /// block: the undirected input edge count of the benchmark graph.
    pub gteps_edges: u64,
    /// Metrics of the lockstep transport (pooled superstep buffers).
    pub pooled: PerfRecord,
    /// Metrics of the real-thread backend on the same workload.
    pub threaded: ThreadedRecord,
    /// The sequential oracle on the same workload.
    pub sequential: SequentialRecord,
    /// Threaded wall time over sequential wall time — the one timing
    /// `--check` gates: the spread over rounds that time both back to back
    /// in this process, not the quotient of the two records' best rounds.
    /// Below 1 the rank threads beat one radix-Dijkstra thread.
    pub threaded_over_seq: RatioSpread,
    /// The unified-telemetry block (simulated vs threaded trace compare).
    pub telemetry: TelemetryRecord,
    /// Construction stage times and their ratio to a sequential query.
    pub pipeline: PipelineRecord,
}

impl PerfBaseline {
    /// This scale's block as a JSON object (the document key is
    /// `"scale_N"`, see [`upsert`]).
    pub fn to_json(&self) -> Value {
        let spread = &self.threaded_over_seq;
        Value::obj([
            ("family", Value::str(&self.family)),
            ("scale", Value::int(self.scale.into())),
            ("ranks", Value::int(self.ranks as u64)),
            ("threads", Value::int(self.threads as u64)),
            ("roots", Value::int(self.roots as u64)),
            ("gteps_edges", Value::int(self.gteps_edges)),
            ("pooled", self.pooled.to_json()),
            ("threaded", self.threaded.to_json()),
            ("sequential", self.sequential.to_json()),
            ("threaded_over_seq", Value::fixed(spread.median, 3)),
            ("threaded_over_seq_q1", Value::fixed(spread.q1, 3)),
            ("threaded_over_seq_q3", Value::fixed(spread.q3, 3)),
            ("telemetry", self.telemetry.to_json()),
            ("pipeline", self.pipeline.to_json()),
        ])
    }

    /// Gate this fresh block against the committed block of the same
    /// scale; one line per problem. Any count that differs at all fails
    /// (counts are a pure function of graph, roots and config). The ratios
    /// and allocation figures fail when they regress by more than
    /// `tolerance` (0.25 = 25 %); each ratio compares this run's lower
    /// quartile with the committed upper one. Wall times are not compared.
    pub fn check_against(&self, committed: &Value, tolerance: f64) -> Vec<String> {
        let mut problems = Vec::new();
        let (pooled, threaded, telemetry) = (&self.pooled, &self.threaded, &self.telemetry);
        let gates = [
            (
                "threaded_over_seq (this run's q1 vs the baseline's q3)",
                &["threaded_over_seq_q3"][..],
                self.threaded_over_seq.q1,
            ),
            (
                "pipeline.construct_over_seq (this run's q1 vs the baseline's q3)",
                &["pipeline", "construct_over_seq_q3"],
                self.pipeline.construct_over_seq.q1,
            ),
            (
                "pooled.allocs_per_superstep",
                &["pooled", "allocs_per_superstep"],
                pooled.allocs_per_superstep(),
            ),
            (
                "pooled.alloc_bytes",
                &["pooled", "alloc_bytes"],
                pooled.alloc_bytes as f64,
            ),
            (
                "pipeline.csr_alloc_bytes",
                &["pipeline", "csr_alloc_bytes"],
                self.pipeline.csr_alloc_bytes as f64,
            ),
            (
                "pipeline.partition_alloc_bytes",
                &["pipeline", "partition_alloc_bytes"],
                self.pipeline.partition_alloc_bytes as f64,
            ),
        ];
        gate_regressions(&mut problems, committed, tolerance, gates);
        let counts = [
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
        ];
        gate_counts(&mut problems, committed, counts);
        if committed
            .at(&["telemetry", "backends_agree"])
            .and_then(Value::num::<u64>)
            != Some(1)
        {
            problems.push("committed baseline does not record backends_agree = 1".to_string());
        }
        if telemetry.backends_agree != 1 {
            problems.push("simulated and threaded traces diverged in this run".to_string());
        }
        // The committed wall numbers are machine-dependent, but a fresh
        // run must be self-consistent.
        problems.extend(telemetry.wall_problems());
        problems
    }
}

/// Push a problem for every `(name, path, now)` that regresses by more than
/// `tolerance` against the committed figure at `path`, or that the
/// committed block lacks.
fn gate_regressions<'a, const N: usize>(
    problems: &mut Vec<String>,
    committed: &Value,
    tolerance: f64,
    gates: [(&str, &'a [&'a str], f64); N],
) {
    for (name, path, now) in gates {
        match committed.at(path).and_then(Value::num::<f64>) {
            Some(b) if b > 0.0 && now > b * (1.0 + tolerance) => problems.push(format!(
                "{name} regressed: {now:.3} vs baseline {b:.3} (+{:.0}% > {:.0}% tolerance)",
                100.0 * (now / b - 1.0),
                100.0 * tolerance
            )),
            Some(_) => {}
            None => problems.push(format!("committed baseline is missing {name}")),
        }
    }
}

/// Push a problem for every `(object, key, now)` count that differs at all
/// from the committed `object.key`, or that the committed block lacks.
fn gate_counts<const N: usize>(
    problems: &mut Vec<String>,
    committed: &Value,
    counts: [(&str, &str, u64); N],
) {
    for (object, key, now) in counts {
        match committed.at(&[object, key]).and_then(Value::num::<u64>) {
            Some(b) if b == now => {}
            Some(b) => problems.push(format!("{object}.{key} changed: {now} vs baseline {b}")),
            None => problems.push(format!("committed baseline is missing {object}.{key}")),
        }
    }
}

/// Side of the grid block's grid: the repo benchmark's `grid_latency` shape.
pub const GRID_SIDE: usize = 256;

/// Key of the grid block in the document.
pub const GRID_KEY: &str = "grid_256";

/// The grid block ([`GRID_KEY`]): the shape of the repo benchmark's
/// `grid_latency` workload — a [`GRID_SIDE`]² 4-neighbour grid of weights in
/// `[1, W_MAX]`, LB-OPT-25 on two ranks — where a root takes thousands of
/// small supersteps and the threaded engine is furthest behind one
/// sequential radix Dijkstra. Counts come from the threaded transport,
/// summed over the roots; walls and `threaded_over_seq` are measured as
/// for a scale block.
#[derive(Debug, Clone, PartialEq)]
pub struct GridBaseline {
    /// Rank count.
    pub ranks: usize,
    /// Logical threads per rank.
    pub threads: usize,
    /// Number of measured roots.
    pub roots: usize,
    /// Epoch-select rounds over the roots.
    pub epochs: u64,
    /// Data-exchange supersteps over the roots (from traced runs).
    pub supersteps: u64,
    /// Relax messages kept on the sender's rank (post-coalescing).
    pub relax_local_msgs: u64,
    /// Relax messages that crossed ranks (post-coalescing).
    pub relax_remote_msgs: u64,
    /// Relax messages removed by sender-side coalescing.
    pub coalesced_msgs: u64,
    /// Best-round wall milliseconds of the threaded engine over the roots.
    pub threaded_wall_ms: f64,
    /// Best-round wall milliseconds of `seq::dijkstra_radix` over the roots.
    pub sequential_wall_ms: f64,
    /// Threaded over sequential wall time, per back-to-back round.
    pub threaded_over_seq: RatioSpread,
}

impl GridBaseline {
    /// The block as a JSON object.
    pub fn to_json(&self) -> Value {
        let spread = &self.threaded_over_seq;
        Value::obj([
            ("family", Value::str("grid")),
            ("side", Value::int(GRID_SIDE as u64)),
            ("ranks", Value::int(self.ranks as u64)),
            ("threads", Value::int(self.threads as u64)),
            ("roots", Value::int(self.roots as u64)),
            (
                "counts",
                Value::obj([
                    ("epochs", Value::int(self.epochs)),
                    ("supersteps", Value::int(self.supersteps)),
                    ("relax_local_msgs", Value::int(self.relax_local_msgs)),
                    ("relax_remote_msgs", Value::int(self.relax_remote_msgs)),
                    ("coalesced_msgs", Value::int(self.coalesced_msgs)),
                ]),
            ),
            ("threaded_wall_ms", Value::fixed(self.threaded_wall_ms, 3)),
            (
                "sequential_wall_ms",
                Value::fixed(self.sequential_wall_ms, 3),
            ),
            ("threaded_over_seq", Value::fixed(spread.median, 3)),
            ("threaded_over_seq_q1", Value::fixed(spread.q1, 3)),
            ("threaded_over_seq_q3", Value::fixed(spread.q3, 3)),
        ])
    }

    /// Gate this fresh block against the committed grid block,
    /// as [`PerfBaseline::check_against`] gates a scale: every count
    /// exactly, `threaded_over_seq` as this run's lower quartile against
    /// the committed upper one within `tolerance`.
    pub fn check_against(&self, committed: &Value, tolerance: f64) -> Vec<String> {
        let mut problems = Vec::new();
        let ratio = (
            "threaded_over_seq (this run's q1 vs the baseline's q3)",
            &["threaded_over_seq_q3"][..],
            self.threaded_over_seq.q1,
        );
        gate_regressions(&mut problems, committed, tolerance, [ratio]);
        let counts = [
            ("counts", "epochs", self.epochs),
            ("counts", "supersteps", self.supersteps),
            ("counts", "relax_local_msgs", self.relax_local_msgs),
            ("counts", "relax_remote_msgs", self.relax_remote_msgs),
            ("counts", "coalesced_msgs", self.coalesced_msgs),
        ];
        gate_counts(&mut problems, committed, counts);
        problems
    }
}

/// Metrics of the query-serving layer under concurrent load, recorded by
/// `serve_bench`: one resident graph, `max_inflight` worker threads, a
/// mixed batch of single-source / multi-seed / point-to-point / repeat
/// queries pushed through the scheduler at once.
#[derive(Debug, Clone)]
pub struct ServingRecord {
    /// Graph family name (e.g. "RMAT-2").
    pub family: String,
    /// R-MAT scale (log2 of the vertex count).
    pub scale: u32,
    /// Rank count of the resident partition.
    pub ranks: usize,
    /// Logical threads per rank.
    pub threads: usize,
    /// Scheduler admission bound (= worker thread count).
    pub max_inflight: usize,
    /// Queries submitted over the measured batch.
    pub queries: usize,
    /// High-water mark of simultaneously running queries. The `--check`
    /// gate requires this to reach `max_inflight` — a serving layer that
    /// serializes its workers is not serving concurrently.
    pub peak_inflight: usize,
    /// 1 when every served distance field was bit-identical to a fresh
    /// one-shot engine run, else 0.
    pub distances_match: u8,
    /// Distance-cache hits over the batch (repeat roots + landmarks).
    pub cache_hits: u64,
    /// Distance-cache misses over the batch.
    pub cache_misses: u64,
    /// Epoch-select rounds of one engine-run point-to-point query.
    pub p2p_epochs: u64,
    /// Epoch-select rounds of the matching full single-source query. The
    /// gate requires `p2p_epochs < full_epochs`: the target cutoff must
    /// actually terminate early.
    pub full_epochs: u64,
    /// Queries that panicked and were absorbed by the worker's
    /// `catch_unwind` (failing only their own ticket). The `--check` gate
    /// requires zero: the clean benchmark batch must not trip the crash
    /// isolation.
    pub panicked: u64,
    /// Queries that missed their deadline and failed with
    /// `QueryError::TimedOut`. The benchmark runs without a deadline, so
    /// the gate requires zero.
    pub timed_out: u64,
    /// Wall-clock milliseconds over the whole measured batch.
    pub wall_ms: f64,
    /// Queries completed per second of batch wall time. Wall-clock
    /// figures vary with machine load, so the `--check` gate never
    /// compares them against the committed baseline — it gates only the
    /// structural fields above.
    pub queries_per_sec: f64,
}

impl ServingRecord {
    /// Gate problems in *this* record: no queries measured, served
    /// distances diverging from the one-shot oracle, a scheduler that
    /// never reached its admission bound, or a point-to-point cutoff
    /// that saved no epochs. Empty on a healthy serving baseline.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.queries == 0 {
            problems.push("serving baseline measured zero queries".to_string());
        }
        if self.distances_match != 1 {
            problems.push(
                "served distances diverged from fresh one-shot engine runs \
                 — resident state leaked across queries"
                    .to_string(),
            );
        }
        if self.peak_inflight < self.max_inflight {
            problems.push(format!(
                "peak inflight {} never reached the admission bound {} — \
                 the scheduler is not serving queries concurrently",
                self.peak_inflight, self.max_inflight
            ));
        }
        if self.p2p_epochs >= self.full_epochs {
            problems.push(format!(
                "point-to-point query ran {} epochs vs {} for the full \
                 field — the target cutoff saved nothing",
                self.p2p_epochs, self.full_epochs
            ));
        }
        if self.panicked != 0 {
            problems.push(format!(
                "{} quer{} panicked during the clean benchmark batch — \
                 crash isolation absorbed them, but a healthy baseline \
                 must not panic at all",
                self.panicked,
                if self.panicked == 1 { "y" } else { "ies" }
            ));
        }
        if self.timed_out != 0 {
            problems.push(format!(
                "{} quer{} timed out in a run with no deadline configured",
                self.timed_out,
                if self.timed_out == 1 { "y" } else { "ies" }
            ));
        }
        problems
    }

    /// Gate the committed serving block and this record: [`Self::problems`]
    /// of this run, plus the committed block's own structural invariants
    /// and its workload parameters, which must be this run's.
    pub fn check_against(&self, committed: &Value) -> Vec<String> {
        let mut problems = self.problems();
        let mut missing = Vec::new();
        let mut field = |name: &str| {
            let v = committed.get(name).and_then(Value::num::<u64>);
            if v.is_none() {
                missing.push(format!("committed serving block is missing {name}"));
            }
            v
        };
        // A baseline recorded at other parameters gates nothing: fail
        // loudly instead of comparing unlike runs.
        for (name, now) in [
            ("scale", self.scale.into()),
            ("ranks", self.ranks as u64),
            ("threads", self.threads as u64),
            ("max_inflight", self.max_inflight as u64),
            ("queries", self.queries as u64),
        ] {
            if let Some(base) = field(name).filter(|&base| base != now) {
                problems.push(format!(
                    "committed serving block was recorded with {name} = {base}, \
                     this run uses {now} — re-record the baseline"
                ));
            }
        }
        if field("distances_match") == Some(0) {
            problems.push("committed serving block records diverging distances".to_string());
        }
        if let (Some(peak), Some(bound)) = (field("peak_inflight"), field("max_inflight")) {
            if peak < bound {
                problems.push(format!(
                    "committed serving block never saturated its admission bound \
                     ({peak} < {bound})"
                ));
            }
        }
        if let (Some(p2p), Some(full)) = (field("p2p_epochs"), field("full_epochs")) {
            if p2p >= full {
                problems.push(format!(
                    "committed serving block records no point-to-point epoch \
                     savings ({p2p} vs {full})"
                ));
            }
        }
        // Crash-isolation gate: both failure counters must be present (a
        // block without them predates the unwind-safety work) and zero.
        for name in ["panicked", "timed_out"] {
            if let Some(v) = field(name).filter(|&v| v != 0) {
                problems.push(format!(
                    "committed serving block records {name} = {v} — the clean \
                     benchmark run must not trip the failure paths"
                ));
            }
        }
        problems.extend(missing);
        problems
    }

    /// The serving block as a JSON object (document key `"serving"`).
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("family", Value::str(&self.family)),
            ("scale", Value::int(self.scale.into())),
            ("ranks", Value::int(self.ranks as u64)),
            ("threads", Value::int(self.threads as u64)),
            ("max_inflight", Value::int(self.max_inflight as u64)),
            ("queries", Value::int(self.queries as u64)),
            ("peak_inflight", Value::int(self.peak_inflight as u64)),
            ("distances_match", Value::int(self.distances_match.into())),
            ("cache_hits", Value::int(self.cache_hits)),
            ("cache_misses", Value::int(self.cache_misses)),
            ("p2p_epochs", Value::int(self.p2p_epochs)),
            ("full_epochs", Value::int(self.full_epochs)),
            ("panicked", Value::int(self.panicked)),
            ("timed_out", Value::int(self.timed_out)),
            ("wall_ms", Value::fixed(self.wall_ms, 3)),
            ("queries_per_sec", Value::fixed(self.queries_per_sec, 3)),
        ])
    }
}

/// Read the baseline document at `path` that a run re-records one block
/// of. A missing file starts a fresh document; a file that cannot be read,
/// or is not a JSON object, is an error: rewriting it would drop every
/// block it holds.
pub fn read_document(path: &str) -> Result<Value, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Value::Obj(Vec::new())),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    match Value::parse(&text) {
        Ok(doc @ Value::Obj(_)) => Ok(doc),
        Ok(_) => Err(format!("{path} is not a baseline document: not an object")),
        Err(e) => Err(format!("{path} is not a baseline document: {e}")),
    }
}

/// The block under `key` of the committed baseline document at `path`.
pub fn committed_block(path: &str, key: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read committed baseline {path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("committed baseline {path}: {e}"))?;
    doc.get(key)
        .cloned()
        .ok_or_else(|| format!("committed baseline {path} has no {key} block"))
}

/// `doc` with `block` under `key` (`"scale_N"`, [`GRID_KEY`] or
/// `"serving"`): the `"bench"` tag first, the scale blocks sorted by scale,
/// then the grid block, the serving block last. Every other block of `doc`
/// is kept as it was; keys that name
/// no block are dropped, so a legacy single-scale document is superseded.
/// A block that replaces one keeps the replaced block's wall-ratio gates,
/// `threaded_over_seq` and `pipeline.construct_over_seq` with their
/// quartiles: re-recording counts never moves a timing gate, and deleting
/// a block is how it is re-timed.
pub fn upsert(doc: &Value, key: &str, block: Value) -> Value {
    let block = match doc.get(key) {
        Some(prior) => keep_gates(prior, block),
        None => block,
    };
    let order = |k: &str| {
        let scale = k.strip_prefix("scale_").and_then(|s| s.parse::<u32>().ok());
        scale
            .map(|s| (0, s))
            .or_else(|| (k == GRID_KEY).then_some((1, 0)))
            .or_else(|| (k == "serving").then_some((2, 0)))
    };
    let mut fields: Vec<(String, Value)> = doc
        .fields()
        .iter()
        .filter(|(k, _)| k != key && order(k).is_some())
        .cloned()
        .collect();
    fields.push((key.to_string(), block));
    fields.sort_by_key(|(k, _)| order(k));
    fields.insert(0, ("bench".to_string(), Value::str("perf_baseline")));
    Value::Obj(fields)
}

/// `block` with every wall-ratio gate (`*_over_seq`, `*_over_seq_q1`,
/// `*_over_seq_q3`, at any depth) that `prior` records taken from `prior`,
/// so one run's timing noise cannot move a gate.
fn keep_gates(prior: &Value, block: Value) -> Value {
    let Value::Obj(fields) = block else {
        return block;
    };
    let is_gate = |k: &str| {
        ["_over_seq", "_over_seq_q1", "_over_seq_q3"]
            .iter()
            .any(|s| k.ends_with(s))
    };
    let fields = fields.into_iter().map(|(k, v)| {
        let v = match prior.get(&k) {
            Some(old) if is_gate(&k) => old.clone(),
            Some(old) => keep_gates(old, v),
            None => v,
        };
        (k, v)
    });
    Value::Obj(fields.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfBaseline {
        PerfBaseline {
            family: "RMAT-2".to_string(),
            scale: 10,
            ranks: 4,
            threads: 4,
            roots: 3,
            gteps_edges: 16384,
            pooled: PerfRecord {
                wall_ms: 12.5,
                allocs: 480,
                alloc_bytes: 65536,
                supersteps: 120,
                msgs: 30000,
                remote_msgs: 22000,
                coalesced_msgs: 10000,
                simulated_s: 0.25,
                gteps: 0.0125,
                gteps_wall: 0.004,
            },
            threaded: ThreadedRecord {
                wall_ms: 5.0,
                gteps: 0.05,
                speedup_vs_pooled: 2.5,
                relax_local_msgs: 6000,
                relax_remote_msgs: 22000,
                coalesced_msgs: 10000,
            },
            sequential: SequentialRecord {
                wall_ms: 4.0,
                gteps: 0.0625,
            },
            threaded_over_seq: RatioSpread {
                q1: 1.125,
                median: 1.25,
                q3: 1.5,
            },
            telemetry: TelemetryRecord {
                backends_agree: 1,
                buckets: 40,
                supersteps: 120,
                local_msgs: 8000,
                remote_msgs: 22000,
                coalesced_msgs: 10000,
                wall_short_ns: 1_500_000,
                wall_long_push_ns: 400_000,
                wall_long_pull_ns: 350_000,
                wall_measured_ns: 3_000_000,
            },
            pipeline: PipelineRecord {
                generate_ms: 2.5,
                csr_ms: 3.0,
                csr_alloc_bytes: 4_194_304,
                partition_ms: 0.5,
                partition_alloc_bytes: 1_048_576,
                sequential_ms: 0.75,
                construct_over_seq: RatioSpread {
                    q1: 7.5,
                    median: 8.0,
                    q3: 8.5,
                },
            },
        }
    }

    #[test]
    fn json_roundtrips_through_extract() {
        let json = Value::parse(&sample().to_json().render()).expect("block parses");
        let num = |path: &[&str]| json.at(path).and_then(Value::num::<f64>);
        let count = |path: &[&str]| json.at(path).and_then(Value::num::<u64>);
        assert_eq!(count(&["scale"]), Some(10));
        assert_eq!(count(&["ranks"]), Some(4));
        assert_eq!(count(&["gteps_edges"]), Some(16384));
        assert_eq!(num(&["pooled", "gteps_wall"]), Some(0.004));
        assert_eq!(num(&["pooled", "wall_ms"]), Some(12.5));
        assert_eq!(count(&["pooled", "allocs"]), Some(480));
        assert_eq!(count(&["pooled", "msgs"]), Some(30000));
        assert_eq!(num(&["pooled", "allocs_per_superstep"]), Some(4.0));
        assert_eq!(count(&["pooled", "remote_msgs"]), Some(22000));
        assert_eq!(num(&["threaded", "wall_ms"]), Some(5.0));
        assert_eq!(num(&["threaded", "speedup_vs_pooled"]), Some(2.5));
        assert_eq!(count(&["threaded", "relax_local_msgs"]), Some(6000));
        assert_eq!(count(&["threaded", "relax_remote_msgs"]), Some(22000));
        assert_eq!(count(&["threaded", "coalesced_msgs"]), Some(10000));
        assert_eq!(num(&["sequential", "wall_ms"]), Some(4.0));
        assert_eq!(num(&["threaded_over_seq"]), Some(1.25));
        assert_eq!(num(&["threaded_over_seq_q1"]), Some(1.125));
        assert_eq!(num(&["threaded_over_seq_q3"]), Some(1.5));
        assert_eq!(count(&["telemetry", "backends_agree"]), Some(1));
        assert_eq!(count(&["telemetry", "buckets"]), Some(40));
        assert_eq!(count(&["telemetry", "remote_msgs"]), Some(22000));
        assert_eq!(count(&["telemetry", "wall_short_ns"]), Some(1_500_000));
        assert_eq!(count(&["telemetry", "wall_measured_ns"]), Some(3_000_000));
        assert_eq!(num(&["pipeline", "csr_ms"]), Some(3.0));
        assert_eq!(count(&["pipeline", "csr_alloc_bytes"]), Some(4_194_304));
        assert_eq!(
            count(&["pipeline", "partition_alloc_bytes"]),
            Some(1_048_576)
        );
        assert_eq!(num(&["pipeline", "construct_over_seq_q3"]), Some(8.5));
        // A fresh block gates clean against itself.
        assert_eq!(sample().check_against(&json, 0.25), Vec::<String>::new());
    }

    #[test]
    fn ratio_spread_takes_quartiles() {
        let r = RatioSpread::of(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((r.q1, r.median, r.q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn wall_total_sums_the_phase_accumulators() {
        let t = sample().telemetry;
        assert_eq!(t.wall_total_ns(), 2_250_000);
    }

    #[test]
    fn wall_problems_gate_phase_sum_and_zero_timings() {
        let healthy = sample().telemetry;
        assert!(healthy.wall_problems().is_empty());

        // Phase sum exceeding the measured run wall time is inconsistent.
        let mut t = healthy;
        t.wall_measured_ns = 1_000_000;
        let p = t.wall_problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("exceeds"), "{p:?}");

        // A run with supersteps must have nonzero phase and measured time.
        let mut t = healthy;
        t.wall_short_ns = 0;
        t.wall_long_push_ns = 0;
        t.wall_long_pull_ns = 0;
        t.wall_measured_ns = 0;
        let p = t.wall_problems();
        assert_eq!(p.len(), 2, "{p:?}");

        // A degenerate run (no supersteps) may be all-zero.
        t.supersteps = 0;
        assert!(t.wall_problems().is_empty());
    }

    /// A fresh document holding `blocks`, upserted in order.
    fn document(blocks: &[(&str, Value)]) -> Value {
        blocks.iter().fold(Value::obj([]), |doc, (key, block)| {
            upsert(&doc, key, block.clone())
        })
    }

    fn keys(doc: &Value) -> Vec<&str> {
        doc.fields().iter().map(|(k, _)| k.as_str()).collect()
    }

    fn wall_ms(doc: &Value, key: &str) -> Option<f64> {
        doc.at(&[key, "pooled", "wall_ms"])
            .and_then(Value::num::<f64>)
    }

    #[test]
    fn multi_scale_document_roundtrips() {
        let mut twenty = sample();
        twenty.scale = 20;
        twenty.pooled.wall_ms = 400.0;
        // Inserted out of order, rendered sorted by scale.
        let doc = document(&[
            ("scale_20", twenty.to_json()),
            ("scale_10", sample().to_json()),
        ]);
        let doc = Value::parse(&doc.render()).expect("document parses");
        assert_eq!(keys(&doc), ["bench", "scale_10", "scale_20"]);
        assert_eq!(wall_ms(&doc, "scale_10"), Some(12.5));
        assert_eq!(wall_ms(&doc, "scale_20"), Some(400.0));
        assert_eq!(doc.get("scale_15"), None);
    }

    #[test]
    fn upsert_replaces_only_its_own_scale() {
        let mut twenty = sample();
        twenty.scale = 20;
        twenty.pooled.wall_ms = 400.0;
        let doc = document(&[
            ("scale_10", sample().to_json()),
            ("scale_20", twenty.to_json()),
        ]);

        // Re-record scale 10 with a different wall time: scale 20 must
        // survive unchanged.
        let mut ten2 = sample();
        ten2.pooled.wall_ms = 9.0;
        let doc2 = upsert(&doc, "scale_10", ten2.to_json());
        assert_eq!(wall_ms(&doc2, "scale_10"), Some(9.0));
        assert_eq!(doc2.get("scale_20"), doc.get("scale_20"));
        assert_eq!(keys(&doc2), ["bench", "scale_10", "scale_20"]);
    }

    #[test]
    fn re_recording_a_scale_keeps_its_wall_ratio_gates() {
        let gates = |doc: &Value, key: &str| -> Vec<Option<f64>> {
            let mut at = Vec::new();
            for suffix in ["", "_q1", "_q3"] {
                let threaded = format!("threaded_over_seq{suffix}");
                let construct = format!("construct_over_seq{suffix}");
                at.push(doc.at(&[key, &threaded]).and_then(Value::num));
                at.push(doc.at(&[key, "pipeline", &construct]).and_then(Value::num));
            }
            at
        };
        let doc = document(&[("scale_10", sample().to_json())]);
        let mut fresh = sample();
        fresh.pooled.supersteps = 121;
        fresh.threaded_over_seq = RatioSpread {
            q1: 0.5,
            median: 0.6,
            q3: 0.7,
        };
        fresh.pipeline.construct_over_seq = RatioSpread {
            q1: 2.5,
            median: 2.7,
            q3: 2.9,
        };

        // The block it replaces keeps its gates; the counts are new.
        let doc2 = upsert(&doc, "scale_10", fresh.to_json());
        assert_eq!(gates(&doc2, "scale_10"), gates(&doc, "scale_10"));
        let supersteps = doc2.at(&["scale_10", "pooled", "supersteps"]);
        assert_eq!(supersteps.and_then(Value::num::<u64>), Some(121));

        // A scale with no block yet records the run's own gates.
        fresh.scale = 20;
        let doc3 = upsert(&doc, "scale_20", fresh.to_json());
        let own = [0.6, 2.7, 0.5, 2.5, 0.7, 2.9].map(Some);
        assert_eq!(gates(&doc3, "scale_20"), own);
    }

    #[test]
    fn upsert_supersedes_legacy_single_scale_documents() {
        // A pre-multi-scale document has no "scale_N" keys: nothing to
        // preserve, the fresh block becomes the whole document.
        let legacy = "{\n  \"bench\": \"perf_baseline\",\n  \"scale\": 10,\n  \
                      \"pooled\": {\"wall_ms\": 26.897}\n}\n";
        let legacy = Value::parse(legacy).expect("legacy document parses");
        let doc = upsert(&legacy, "scale_10", sample().to_json());
        assert_eq!(keys(&doc), ["bench", "scale_10"]);
        assert_eq!(wall_ms(&doc, "scale_10"), Some(12.5));
    }

    fn sample_grid() -> GridBaseline {
        GridBaseline {
            ranks: 2,
            threads: 2,
            roots: 3,
            epochs: 1_500,
            supersteps: 5_400,
            relax_local_msgs: 660_000,
            relax_remote_msgs: 1_600,
            coalesced_msgs: 2_000,
            threaded_wall_ms: 60.0,
            sequential_wall_ms: 40.0,
            threaded_over_seq: RatioSpread {
                q1: 1.4,
                median: 1.5,
                q3: 1.6,
            },
        }
    }

    #[test]
    fn grid_blocks_sit_between_the_scales_and_serving_and_gate_counts_and_the_ratio() {
        let doc = document(&[
            ("scale_10", sample().to_json()),
            ("serving", sample_serving().to_json()),
        ]);
        let doc = upsert(&doc, GRID_KEY, sample_grid().to_json());
        let doc = upsert(&doc, "scale_20", sample().to_json());
        assert_eq!(
            keys(&doc),
            ["bench", "scale_10", "scale_20", "grid_256", "serving"]
        );
        let block = Value::parse(&doc.render())
            .expect("document parses")
            .get("grid_256")
            .cloned()
            .expect("grid block kept");
        assert_eq!(
            sample_grid().check_against(&block, 0.25),
            Vec::<String>::new()
        );

        // Any count moving fails; so does the ratio's lower quartile past
        // the committed upper one plus the tolerance, and nothing else.
        let mut moved = sample_grid();
        moved.supersteps += 1;
        moved.threaded_over_seq.q1 = 1.6 * 1.3;
        moved.threaded_wall_ms *= 3.0;
        let problems = moved.check_against(&block, 0.25);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("threaded_over_seq"), "{problems:?}");
        assert!(
            problems[1].starts_with("counts.supersteps changed"),
            "{problems:?}"
        );

        // Re-recording the grid keeps its ratio gates.
        let mut fresh = sample_grid();
        fresh.threaded_over_seq.q3 = 9.0;
        let doc2 = upsert(&doc, GRID_KEY, fresh.to_json());
        assert_eq!(doc2.get("grid_256"), doc.get("grid_256"));
    }

    fn sample_serving() -> ServingRecord {
        ServingRecord {
            family: "RMAT-2".to_string(),
            scale: 10,
            ranks: 4,
            threads: 4,
            max_inflight: 4,
            queries: 24,
            peak_inflight: 4,
            distances_match: 1,
            cache_hits: 6,
            cache_misses: 18,
            p2p_epochs: 9,
            full_epochs: 31,
            panicked: 0,
            timed_out: 0,
            wall_ms: 180.0,
            queries_per_sec: 133.3,
        }
    }

    #[test]
    fn serving_json_roundtrips_through_extract() {
        let json = Value::parse(&sample_serving().to_json().render()).expect("block parses");
        let count = |key: &str| json.get(key).and_then(Value::num::<u64>);
        assert_eq!(count("max_inflight"), Some(4));
        assert_eq!(count("queries"), Some(24));
        assert_eq!(count("peak_inflight"), Some(4));
        assert_eq!(count("distances_match"), Some(1));
        assert_eq!(count("cache_hits"), Some(6));
        assert_eq!(count("p2p_epochs"), Some(9));
        assert_eq!(count("full_epochs"), Some(31));
        assert_eq!(count("panicked"), Some(0));
        assert_eq!(count("timed_out"), Some(0));
        assert_eq!(
            json.get("queries_per_sec").and_then(Value::num::<f64>),
            Some(133.3)
        );
        assert_eq!(sample_serving().check_against(&json), Vec::<String>::new());
    }

    #[test]
    fn serving_problems_gate_the_structural_invariants() {
        assert!(sample_serving().problems().is_empty());

        let mut r = sample_serving();
        r.distances_match = 0;
        assert_eq!(r.problems().len(), 1);

        let mut r = sample_serving();
        r.peak_inflight = 2;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("admission bound"), "{p:?}");

        let mut r = sample_serving();
        r.p2p_epochs = r.full_epochs;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("saved nothing"), "{p:?}");

        let mut r = sample_serving();
        r.queries = 0;
        assert!(!r.problems().is_empty());

        let mut r = sample_serving();
        r.panicked = 1;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("panicked"), "{p:?}");

        let mut r = sample_serving();
        r.timed_out = 2;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("timed out"), "{p:?}");
    }

    #[test]
    fn serving_block_coexists_with_scale_blocks() {
        let doc = document(&[
            ("serving", sample_serving().to_json()),
            ("scale_10", sample().to_json()),
        ]);
        assert_eq!(keys(&doc), ["bench", "scale_10", "serving"]);

        // Both block kinds survive each other's upserts.
        let mut twenty = sample();
        twenty.scale = 20;
        let doc2 = upsert(&doc, "scale_20", twenty.to_json());
        assert_eq!(doc2.get("serving"), doc.get("serving"));
        assert_eq!(keys(&doc2), ["bench", "scale_10", "scale_20", "serving"]);

        let mut sv2 = sample_serving();
        sv2.queries = 48;
        let doc3 = upsert(&doc2, "serving", sv2.to_json());
        assert_eq!(doc3.get("scale_20"), doc2.get("scale_20"));
        assert_eq!(
            doc3.at(&["serving", "queries"]).and_then(Value::num::<u64>),
            Some(48)
        );
        assert_eq!(
            document(&[("scale_10", sample().to_json())]).get("serving"),
            None
        );
    }

    #[test]
    fn extract_missing_returns_none() {
        let json = sample().to_json();
        assert_eq!(json.at(&["pooled", "no_such_key"]), None);
        assert_eq!(json.at(&["no_such_object", "wall_ms"]), None);
        assert!(Value::parse("not json at all").is_err());
        // A gate on a field the committed block lacks is a problem, not a pass.
        let p = sample().check_against(&Value::obj([]), 0.25);
        assert!(p.iter().any(|l| l.contains("missing pooled.msgs")), "{p:?}");
        let p = sample_serving().check_against(&Value::obj([]));
        assert!(p.iter().any(|l| l.contains("missing panicked")), "{p:?}");
    }

    #[test]
    fn counts_above_2_pow_53_gate_exactly() {
        // 2^53 + 1 and 2^53 are the same f64, so only an integer compare
        // sees this count change.
        let mut committed = sample();
        committed.pooled.msgs = (1 << 53) + 1;
        let mut fresh = sample();
        fresh.pooled.msgs = 1 << 53;
        let committed = Value::parse(&committed.to_json().render()).expect("block parses");
        assert_eq!(
            fresh.check_against(&committed, 0.25),
            ["pooled.msgs changed: 9007199254740992 vs baseline 9007199254740993"]
        );
    }

    #[test]
    fn check_flags_count_drift_ratio_regressions_and_config_drift() {
        let committed = sample().to_json();
        let mut fresh = sample();
        fresh.threaded.relax_remote_msgs += 1;
        fresh.threaded_over_seq.q1 = 2.0;
        let p = fresh.check_against(&committed, 0.25);
        assert_eq!(p.len(), 2, "{p:?}");
        assert!(p[0].starts_with("threaded_over_seq"), "{p:?}");
        assert!(
            p[1].starts_with("threaded.relax_remote_msgs changed"),
            "{p:?}"
        );

        let committed = sample_serving().to_json();
        let mut fresh = sample_serving();
        fresh.scale = 12;
        let p = fresh.check_against(&committed);
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("scale = 10, this run uses 12"), "{p:?}");
    }

    #[test]
    fn check_flags_a_larger_csr_transient() {
        let committed = sample().to_json();
        let mut fresh = sample();
        fresh.pipeline.csr_alloc_bytes *= 2;
        let p = fresh.check_against(&committed, 0.25);
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(
            p[0].starts_with("pipeline.csr_alloc_bytes regressed"),
            "{p:?}"
        );
    }

    #[test]
    fn check_flags_a_larger_partition() {
        let committed = sample().to_json();
        let mut fresh = sample();
        fresh.pipeline.partition_alloc_bytes *= 2;
        let p = fresh.check_against(&committed, 0.25);
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(
            p[0].starts_with("pipeline.partition_alloc_bytes regressed"),
            "{p:?}"
        );
    }

    #[test]
    fn documents_that_are_not_json_objects_are_refused() {
        let path = |name: &str| {
            let file = format!("sssp-bench-{}-{name}", std::process::id());
            std::env::temp_dir()
                .join(file)
                .to_string_lossy()
                .into_owned()
        };
        assert_eq!(read_document(&path("missing.json")), Ok(Value::obj([])));
        for (name, text) in [("array.json", "[]\n"), ("cut.json", "{\"scale_10\": {")] {
            std::fs::write(path(name), text).expect("write fixture");
            assert!(read_document(&path(name)).is_err(), "{name}");
            std::fs::remove_file(path(name)).expect("remove fixture");
        }
    }

    #[test]
    fn sample_records_render_the_pinned_bytes() {
        // The sample records as the committed document lays them out:
        // every decimal place and every line break is part of the format.
        let doc = document(&[
            ("scale_10", sample().to_json()),
            ("serving", sample_serving().to_json()),
        ]);
        assert_eq!(
            doc.render(),
            include_str!("../tests/data/baseline_sample.json")
        );
    }

    #[test]
    fn allocs_per_superstep_handles_zero() {
        let mut r = sample().pooled;
        r.supersteps = 0;
        assert_eq!(r.allocs_per_superstep(), 0.0);
        r.supersteps = 120;
        assert_eq!(r.allocs_per_superstep(), 4.0);
    }

    #[test]
    fn coalesced_fraction_handles_zero_traffic() {
        let mut r = sample().pooled;
        r.msgs = 0;
        r.coalesced_msgs = 0;
        assert_eq!(r.coalesced_fraction(), 0.0);
        let t = sample().threaded;
        assert_eq!(t.coalesced_fraction(), 10000.0 / 38000.0);
    }
}
