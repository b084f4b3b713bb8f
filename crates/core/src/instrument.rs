//! Run instrumentation: every count the paper's figures are built from.

use sssp_comm::cost::{MachineModel, TimeLedger};
use sssp_comm::stats::CommStats;
use sssp_dist::DistGraph;

use crate::config::LongPhaseMode;

/// What kind of superstep a phase record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// A short-edge phase of some bucket.
    Short,
    /// A push-mode long-edge phase.
    LongPush,
    /// A pull-mode long-edge phase (requests + responses).
    LongPull,
}

/// One relaxation superstep (Fig. 4 plots these in sequence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRecord {
    /// First bucket of the epoch's window (`u64::MAX` for a hybrid-tail
    /// epoch).
    pub bucket: u64,
    /// Which kind of phase this record covers.
    pub kind: PhaseKind,
    /// Relaxation messages generated (requests + responses for pull).
    pub relaxations: u64,
    /// Cross-rank messages.
    pub remote_msgs: u64,
}

/// Per-processed-bucket record (Fig. 7 and the §IV-G validation read these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketRecord {
    /// Bucket index k this epoch processed.
    pub bucket: u64,
    /// Vertices settled by this bucket (global).
    pub settled: u64,
    /// Mechanism used for the long-edge phase.
    pub mode: LongPhaseMode,
    /// Estimated volumes the decision heuristic compared.
    pub est_push: u64,
    /// Estimated pull volume used by the decision heuristic.
    pub est_pull: u64,
    /// Push-mode receiver-side classification (§III-B): targets already in
    /// the current bucket / an earlier bucket / a later bucket. Zero when
    /// the bucket ran in pull mode.
    pub self_edges: u64,
    /// Edges scanned backward (pull candidates examined).
    pub backward_edges: u64,
    /// Edges scanned forward (push relaxations attempted).
    pub forward_edges: u64,
    /// Pull-mode traffic. Zero when the bucket ran in push mode.
    pub requests: u64,
    /// Pull responses sent back to requesters.
    pub responses: u64,
    /// Data-exchange supersteps this epoch ran (short phases + the long
    /// phase's one to three exchanges).
    pub supersteps: u64,
    /// Messages of this epoch that stayed on their sender rank.
    pub local_msgs: u64,
    /// Messages of this epoch that crossed ranks.
    pub remote_msgs: u64,
    /// Messages sender-side coalescing removed this epoch.
    pub coalesced_msgs: u64,
}

impl BucketRecord {
    /// An otherwise-zero record for `bucket`, processed in `mode`.
    pub fn new(bucket: u64, mode: LongPhaseMode) -> BucketRecord {
        BucketRecord {
            bucket,
            settled: 0,
            mode,
            est_push: 0,
            est_pull: 0,
            self_edges: 0,
            backward_edges: 0,
            forward_edges: 0,
            requests: 0,
            responses: 0,
            supersteps: 0,
            local_msgs: 0,
            remote_msgs: 0,
            coalesced_msgs: 0,
        }
    }
}

/// Wall-clock nanoseconds spent in each phase family. Each process's
/// timer spans kernel work *and* the wait inside the phase's exchanges, so
/// merged values report the slowest process's critical path, not a sum of
/// useful work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Short-edge phases (all buckets).
    pub short_ns: u64,
    /// Long push phases.
    pub long_push_ns: u64,
    /// Long pull phases (requests + responses, plus the IOS outer-short
    /// round when enabled).
    pub long_pull_ns: u64,
    /// Always 0: the hybrid tail runs ordinary windowed epochs, whose time
    /// lands in the three fields above. Kept because the frozen benchmark
    /// (`benchmark/src/layers.rs`) still reads it.
    pub bf_ns: u64,
}

impl PhaseTimings {
    /// Fold `ns` into the accumulator of `kind`.
    pub fn add(&mut self, kind: PhaseKind, ns: u64) {
        match kind {
            PhaseKind::Short => self.short_ns += ns,
            PhaseKind::LongPush => self.long_push_ns += ns,
            PhaseKind::LongPull => self.long_pull_ns += ns,
        }
    }

    /// Combine with another rank's timings by per-phase maximum (the
    /// slowest rank bounds the wall clock of a bulk-synchronous phase).
    pub fn max(&self, other: &PhaseTimings) -> PhaseTimings {
        PhaseTimings {
            short_ns: self.short_ns.max(other.short_ns),
            long_push_ns: self.long_push_ns.max(other.long_push_ns),
            long_pull_ns: self.long_pull_ns.max(other.long_pull_ns),
            bf_ns: self.bf_ns.max(other.bf_ns),
        }
    }

    /// True when no phase recorded any time.
    pub fn is_zero(&self) -> bool {
        *self == PhaseTimings::default()
    }
}

/// Where inside an epoch a process's wall clock went — the attribution one
/// level below [`PhaseKind`]. The five parts tile a superstep (scan, pack,
/// exchange, apply) and the reductions between supersteps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubPhase {
    /// Rank-local reads of the bucket structure and the frontier: sliding
    /// the ring, collecting a window's active set, the send side of every
    /// relaxation kernel (with coalescing on, the fold into the per-
    /// destination tables and their emit into the lanes), the §III-C volume
    /// pass and window proposals.
    Scan,
    /// Sender-side `(target, nd)` sort of the outbox lanes — the
    /// `coalescing = false` path only; a coalescing run never enters it.
    Pack,
    /// Inside the transport's exchange: handing lanes over, waiting for the
    /// peers, draining the inbox.
    ExchangeWait,
    /// The receive side: applying an inbox to the rank state.
    Apply,
    /// Inside a reduction (`Comm::allreduce`), i.e. mostly waiting for
    /// the slowest peer to arrive.
    CollectiveWait,
}

impl SubPhase {
    /// Every sub-phase, in the order the per-process accumulators and the
    /// trace JSON list them.
    pub const ALL: [SubPhase; 5] = [
        SubPhase::Scan,
        SubPhase::Pack,
        SubPhase::ExchangeWait,
        SubPhase::Apply,
        SubPhase::CollectiveWait,
    ];

    /// The sub-phase's key stem in the trace JSON.
    pub fn name(self) -> &'static str {
        match self {
            SubPhase::Scan => "scan",
            SubPhase::Pack => "pack",
            SubPhase::ExchangeWait => "exchange_wait",
            SubPhase::Apply => "apply",
            SubPhase::CollectiveWait => "collective_wait",
        }
    }
}

/// Wall-clock nanoseconds one process spent in each [`SubPhase`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubPhaseNanos([u64; SubPhase::ALL.len()]);

impl SubPhaseNanos {
    /// Fold `ns` into the accumulator of `sub`.
    pub fn add(&mut self, sub: SubPhase, ns: u64) {
        self.0[sub as usize] += ns;
    }

    /// Nanoseconds accumulated for `sub`.
    pub fn get(&self, sub: SubPhase) -> u64 {
        self.0[sub as usize]
    }
}

/// How one sub-phase's time spread over the processes of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSpread {
    /// The process that spent least.
    pub min_ns: u64,
    /// The middle process (the upper one of the two when the count is even).
    pub median_ns: u64,
    /// The process that spent most.
    pub max_ns: u64,
}

/// Per-[`SubPhase`] spread of wall-clock time over the processes of a run:
/// one process per rank on the threaded transport (so min/median/max read
/// as measured rank skew), a single process on the lockstep one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubPhaseSpread([SpanSpread; SubPhase::ALL.len()]);

impl SubPhaseSpread {
    /// Summarise the per-process accumulators of one run.
    pub fn over(processes: &[SubPhaseNanos]) -> SubPhaseSpread {
        let mut spread = SubPhaseSpread::default();
        for sub in SubPhase::ALL {
            let mut ns: Vec<u64> = processes.iter().map(|p| p.get(sub)).collect();
            ns.sort_unstable();
            if let (Some(&min_ns), Some(&max_ns)) = (ns.first(), ns.last()) {
                spread.0[sub as usize] = SpanSpread {
                    min_ns,
                    median_ns: ns[ns.len() / 2],
                    max_ns,
                };
            }
        }
        spread
    }

    /// The spread of `sub`.
    pub fn get(&self, sub: SubPhase) -> SpanSpread {
        self.0[sub as usize]
    }

    /// Replace the spread of `sub`.
    pub fn set(&mut self, sub: SubPhase, spread: SpanSpread) {
        self.0[sub as usize] = spread;
    }

    /// True when no sub-phase recorded any time.
    pub fn is_zero(&self) -> bool {
        *self == SubPhaseSpread::default()
    }
}

/// Aggregated statistics of one SSSP run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Buckets processed by epochs before the hybrid switch (the tail's
    /// epochs, if any, count as one more — see [`Self::buckets`]).
    pub epochs: u64,
    /// Total relaxation phases (short + long).
    pub phases: u64,
    /// Last bucket settled before the hybrid tail's windows took over.
    pub hybrid_switch_at: Option<u64>,

    /// Relaxations performed in short-edge phases.
    pub short_relaxations: u64,
    /// Outer short edges deferred to the long phase by IOS.
    pub outer_short_relaxations: u64,
    /// Relaxations performed in long push phases.
    pub long_push_relaxations: u64,
    /// Pull requests issued.
    pub pull_requests: u64,
    /// Pull responses received.
    pub pull_responses: u64,

    /// Vertices with a finite final distance.
    pub reachable: u64,

    /// One record per phase, in execution order.
    pub phase_records: Vec<PhaseRecord>,
    /// One record per epoch before the hybrid switch.
    pub bucket_records: Vec<BucketRecord>,
    /// The hybrid tail's pseudo-bucket record (`bucket` = `u64::MAX`):
    /// every epoch after the τ switch folded into one, present iff the
    /// switch fired. Kept out of [`Self::bucket_records`] so per-Δ-bucket
    /// consumers stay unchanged.
    pub tail_record: Option<BucketRecord>,

    /// Message traffic ledger.
    pub comm: CommStats,
    /// Simulated time ledger, charged by the recorder hooks when
    /// [`Self::cost_model`] is set.
    pub ledger: TimeLedger,
    /// The α–β–γ machine model the ledger is charged under (`None` = no
    /// simulated time is kept).
    pub cost_model: Option<MachineModel>,
    /// Wall-clock per-phase timings.
    pub wall: PhaseTimings,
    /// Wall-clock per-sub-phase timings of this process.
    pub spans: SubPhaseNanos,

    /// Ranks and threads the run was simulated with (for per-thread stats).
    pub num_ranks: usize,
    /// Logical threads per rank.
    pub threads_per_rank: usize,
}

impl RunStats {
    /// Empty stats for a run over `dg`. With a `cost_model` the recorder
    /// hooks also keep the simulated-time ledger.
    pub fn for_run(dg: &DistGraph, cost_model: Option<&MachineModel>) -> RunStats {
        RunStats {
            num_ranks: dg.num_ranks(),
            threads_per_rank: dg.threads_per_rank,
            cost_model: cost_model.copied(),
            ..RunStats::default()
        }
    }

    /// Total relaxation operations under the paper's accounting: pull
    /// requests and responses each count once ("contributing two times" per
    /// relaxed edge).
    pub fn relaxations_total(&self) -> u64 {
        self.short_relaxations
            + self.outer_short_relaxations
            + self.long_push_relaxations
            + self.pull_requests
            + self.pull_responses
    }

    /// Buckets including the hybrid tail's merged bucket (Fig 10d metric).
    pub fn buckets(&self) -> u64 {
        self.epochs + u64::from(self.hybrid_switch_at.is_some())
    }

    /// Data-exchange supersteps recorded by the comm layer — the
    /// denominator of `perf_baseline`'s allocations-per-superstep metric.
    pub fn supersteps(&self) -> u64 {
        self.comm.num_supersteps() as u64
    }

    /// Average relaxations per thread (Fig 10c metric).
    pub fn relaxations_per_thread(&self) -> f64 {
        let t = (self.num_ranks * self.threads_per_rank).max(1) as f64;
        self.relaxations_total() as f64 / t
    }

    /// Simulated GTEPS for an input edge count `m`.
    pub fn gteps(&self, m_edges: u64) -> f64 {
        sssp_comm::cost::teps(m_edges, self.ledger.total_s()) / 1e9
    }

    /// Totals of the comm-ledger steps not yet attributed to a bucket
    /// record: `(supersteps, local_msgs, remote_msgs, coalesced_msgs)`.
    /// The recorder calls this when closing an epoch (or the hybrid tail)
    /// to fill the record's per-epoch traffic fields.
    pub(crate) fn epoch_window(&self) -> (u64, u64, u64, u64) {
        let consumed: u64 = self
            .bucket_records
            .iter()
            .chain(self.tail_record.iter())
            .map(|r| r.supersteps)
            .sum();
        let steps = self.comm.steps.iter().skip(consumed as usize);
        let mut w = (0u64, 0u64, 0u64, 0u64);
        for s in steps {
            w.0 += 1;
            w.1 += s.local_msgs;
            w.2 += s.remote_msgs;
            w.3 += s.coalesced_msgs;
        }
        w
    }
}

/// A transport-neutral telemetry trace of one SSSP run: global traffic
/// totals plus the per-phase and per-bucket records. The simulated ledger
/// is excluded and [`RunTrace::diff`] ignores the wall-clock timings — so
/// a lockstep and a threaded run of the same configuration produce traces
/// that compare equal field-for-field. It lives in memory only: the
/// figure harnesses, the differential tests, `perf_baseline` and
/// `trace_diff --self-check` read it where the run returns it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Ranks the run executed with.
    pub ranks: usize,
    /// Total data-exchange supersteps.
    pub supersteps: u64,
    /// Messages that stayed on their sender rank.
    pub local_msgs: u64,
    /// Messages that crossed ranks.
    pub remote_msgs: u64,
    /// Framed wire bytes of the cross-rank traffic.
    pub remote_bytes: u64,
    /// Messages removed by sender-side coalescing.
    pub coalesced_msgs: u64,
    /// Largest per-rank send volume of any single superstep (bytes).
    pub max_step_send_bytes: u64,
    /// Largest per-rank receive volume of any single superstep (bytes).
    pub max_step_recv_bytes: u64,
    /// Bucket at which the hybrid τ switch fired, if it did.
    pub hybrid_switch_at: Option<u64>,
    /// Wall-clock per-phase timings. Like every other timing quantity,
    /// [`RunTrace::diff`] ignores them; they ride along for reporting.
    pub timings: PhaseTimings,
    /// Wall-clock per-sub-phase timings as min/median/max over the run's
    /// processes; ignored by [`RunTrace::diff`] like `timings`. A
    /// coalescing run folds and emits its relaxations inside `scan`, so its
    /// `pack` reads 0.
    pub spans: SubPhaseSpread,
    /// One record per relaxation superstep-group, in execution order.
    pub phases: Vec<PhaseRecord>,
    /// One record per processed Δ-bucket, in execution order.
    pub buckets: Vec<BucketRecord>,
    /// The hybrid tail's merged pseudo-bucket record, if the switch fired.
    pub tail: Option<BucketRecord>,
}

impl RunTrace {
    /// Project the telemetry trace out of one process's stats. A run's
    /// per-process traces merge (sums for volumes, maxima for maxima,
    /// equality-checked for globally reduced quantities) through
    /// [`merged_trace`](crate::engine::record::merged_trace).
    pub fn from_run_stats(stats: &RunStats) -> RunTrace {
        RunTrace {
            ranks: stats.num_ranks,
            supersteps: stats.comm.num_supersteps() as u64,
            local_msgs: stats.comm.total_local_msgs(),
            remote_msgs: stats.comm.total_remote_msgs(),
            remote_bytes: stats.comm.total_remote_bytes(),
            coalesced_msgs: stats.comm.total_coalesced_msgs(),
            max_step_send_bytes: stats
                .comm
                .steps
                .iter()
                .map(|s| s.max_rank_send_bytes)
                .max()
                .unwrap_or(0),
            max_step_recv_bytes: stats
                .comm
                .steps
                .iter()
                .map(|s| s.max_rank_recv_bytes)
                .max()
                .unwrap_or(0),
            hybrid_switch_at: stats.hybrid_switch_at,
            timings: stats.wall,
            spans: SubPhaseSpread::over(&[stats.spans]),
            phases: stats.phase_records.clone(),
            buckets: stats.bucket_records.clone(),
            tail: stats.tail_record,
        }
    }

    /// Compare two traces field-for-field, ignoring the wall-clock
    /// `timings` and `spans` (timing is exactly what may differ between
    /// transports and runs). Returns one
    /// human-readable line per mismatch; an empty vector means the traces
    /// agree. This is the equality the differential tests and the
    /// `trace_diff` tool gate on.
    pub fn diff(&self, other: &RunTrace) -> Vec<String> {
        let mut out = Vec::new();
        if self.ranks != other.ranks {
            out.push(format!("ranks: {} vs {}", self.ranks, other.ranks));
        }
        let scalars = [
            ("supersteps", self.supersteps, other.supersteps),
            ("local_msgs", self.local_msgs, other.local_msgs),
            ("remote_msgs", self.remote_msgs, other.remote_msgs),
            ("remote_bytes", self.remote_bytes, other.remote_bytes),
            ("coalesced_msgs", self.coalesced_msgs, other.coalesced_msgs),
            (
                "max_step_send_bytes",
                self.max_step_send_bytes,
                other.max_step_send_bytes,
            ),
            (
                "max_step_recv_bytes",
                self.max_step_recv_bytes,
                other.max_step_recv_bytes,
            ),
        ];
        for (name, a, b) in scalars {
            if a != b {
                out.push(format!("{name}: {a} vs {b}"));
            }
        }
        if self.hybrid_switch_at != other.hybrid_switch_at {
            out.push(format!(
                "hybrid_switch_at: {:?} vs {:?}",
                self.hybrid_switch_at, other.hybrid_switch_at
            ));
        }
        if self.phases.len() != other.phases.len() {
            out.push(format!(
                "phases.len: {} vs {}",
                self.phases.len(),
                other.phases.len()
            ));
        } else {
            for (i, (a, b)) in self.phases.iter().zip(&other.phases).enumerate() {
                if a != b {
                    out.push(format!("phases[{i}]: {a:?} vs {b:?}"));
                }
            }
        }
        if self.buckets.len() != other.buckets.len() {
            out.push(format!(
                "buckets.len: {} vs {}",
                self.buckets.len(),
                other.buckets.len()
            ));
        } else {
            for (i, (a, b)) in self.buckets.iter().zip(&other.buckets).enumerate() {
                diff_bucket(&format!("buckets[{i}]"), a, b, &mut out);
            }
        }
        match (&self.tail, &other.tail) {
            (Some(a), Some(b)) => diff_bucket("tail", a, b, &mut out),
            (None, None) => {}
            (a, b) => out.push(format!("tail presence: {} vs {}", a.is_some(), b.is_some())),
        }
        out
    }
}

/// Per-field comparison of two bucket records with `prefix`-qualified
/// mismatch messages (so `trace_diff` output names the exact counter).
fn diff_bucket(prefix: &str, a: &BucketRecord, b: &BucketRecord, out: &mut Vec<String>) {
    let pairs: [(&str, u64, u64); 12] = [
        ("bucket", a.bucket, b.bucket),
        ("settled", a.settled, b.settled),
        ("est_push", a.est_push, b.est_push),
        ("est_pull", a.est_pull, b.est_pull),
        ("self_edges", a.self_edges, b.self_edges),
        ("backward_edges", a.backward_edges, b.backward_edges),
        ("forward_edges", a.forward_edges, b.forward_edges),
        ("requests", a.requests, b.requests),
        ("responses", a.responses, b.responses),
        ("supersteps", a.supersteps, b.supersteps),
        ("local_msgs", a.local_msgs, b.local_msgs),
        ("coalesced_msgs", a.coalesced_msgs, b.coalesced_msgs),
    ];
    if a.mode != b.mode {
        out.push(format!("{prefix}.mode: {:?} vs {:?}", a.mode, b.mode));
    }
    if a.remote_msgs != b.remote_msgs {
        out.push(format!(
            "{prefix}.remote_msgs: {} vs {}",
            a.remote_msgs, b.remote_msgs
        ));
    }
    for (name, x, y) in pairs {
        if x != y {
            out.push(format!("{prefix}.{name}: {x} vs {y}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxation_total_sums_all_kinds() {
        let s = RunStats {
            short_relaxations: 10,
            outer_short_relaxations: 4,
            long_push_relaxations: 20,
            pull_requests: 7,
            pull_responses: 5,
            ..Default::default()
        };
        assert_eq!(s.relaxations_total(), 46);
    }

    #[test]
    fn buckets_counts_hybrid_tail() {
        let mut s = RunStats {
            epochs: 4,
            ..Default::default()
        };
        assert_eq!(s.buckets(), 4);
        s.hybrid_switch_at = Some(3);
        assert_eq!(s.buckets(), 5);
    }

    #[test]
    fn per_thread_average() {
        let s = RunStats {
            short_relaxations: 100,
            num_ranks: 5,
            threads_per_rank: 2,
            ..Default::default()
        };
        assert!((s.relaxations_per_thread() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn gteps_zero_when_no_time() {
        let s = RunStats::default();
        assert_eq!(s.gteps(1000), 0.0);
    }

    #[test]
    fn supersteps_mirror_the_comm_ledger() {
        let mut s = RunStats::default();
        assert_eq!(s.supersteps(), 0);
        s.comm.record(sssp_comm::stats::StepStats {
            local_msgs: 1,
            ..Default::default()
        });
        s.comm.record(sssp_comm::stats::StepStats {
            remote_msgs: 2,
            ..Default::default()
        });
        assert_eq!(s.supersteps(), 2);
    }

    fn sample_bucket() -> BucketRecord {
        BucketRecord {
            bucket: 2,
            settled: 10,
            mode: LongPhaseMode::Pull,
            est_push: 100,
            est_pull: 40,
            self_edges: 0,
            backward_edges: 0,
            forward_edges: 0,
            requests: 20,
            responses: 15,
            supersteps: 4,
            local_msgs: 9,
            remote_msgs: 31,
            coalesced_msgs: 6,
        }
    }

    #[test]
    fn epoch_window_attributes_unconsumed_steps() {
        let mut s = RunStats::default();
        s.comm.record(sssp_comm::stats::StepStats {
            local_msgs: 3,
            remote_msgs: 5,
            coalesced_msgs: 1,
            ..Default::default()
        });
        s.comm.record(sssp_comm::stats::StepStats {
            local_msgs: 2,
            remote_msgs: 4,
            ..Default::default()
        });
        assert_eq!(s.epoch_window(), (2, 5, 9, 1));
        // Attribute both steps to a bucket record; the window empties.
        let mut rec = sample_bucket();
        rec.supersteps = 2;
        s.bucket_records.push(rec);
        assert_eq!(s.epoch_window(), (0, 0, 0, 0));
        // The tail record consumes steps too.
        s.comm.record(sssp_comm::stats::StepStats {
            remote_msgs: 7,
            ..Default::default()
        });
        assert_eq!(s.epoch_window(), (1, 0, 7, 0));
        let mut tail = sample_bucket();
        tail.supersteps = 1;
        s.tail_record = Some(tail);
        assert_eq!(s.epoch_window(), (0, 0, 0, 0));
    }

    fn sample_trace() -> RunTrace {
        let mut tail = sample_bucket();
        tail.bucket = u64::MAX;
        tail.mode = LongPhaseMode::Push;
        RunTrace {
            ranks: 4,
            supersteps: 12,
            local_msgs: 30,
            remote_msgs: 70,
            remote_bytes: 1120,
            coalesced_msgs: 8,
            max_step_send_bytes: 96,
            max_step_recv_bytes: 80,
            hybrid_switch_at: Some(3),
            timings: PhaseTimings::default(),
            spans: SubPhaseSpread::default(),
            phases: vec![
                PhaseRecord {
                    bucket: 0,
                    kind: PhaseKind::Short,
                    relaxations: 5,
                    remote_msgs: 3,
                },
                PhaseRecord {
                    bucket: u64::MAX,
                    kind: PhaseKind::LongPull,
                    relaxations: 9,
                    remote_msgs: 7,
                },
            ],
            buckets: vec![sample_bucket()],
            tail: Some(tail),
        }
    }

    #[test]
    fn sub_phase_spread_is_min_median_max_over_processes() {
        let rank = |scan, wait| {
            let mut ns = SubPhaseNanos::default();
            ns.add(SubPhase::Scan, scan);
            ns.add(SubPhase::CollectiveWait, wait);
            ns.add(SubPhase::CollectiveWait, 1);
            ns
        };
        let spread = SubPhaseSpread::over(&[rank(30, 5), rank(10, 9), rank(20, 0), rank(40, 2)]);
        let scan = spread.get(SubPhase::Scan);
        assert_eq!((scan.min_ns, scan.median_ns, scan.max_ns), (10, 30, 40));
        let wait = spread.get(SubPhase::CollectiveWait);
        assert_eq!((wait.min_ns, wait.median_ns, wait.max_ns), (1, 6, 10));
        assert_eq!(spread.get(SubPhase::Pack), SpanSpread::default());
        assert!(SubPhaseSpread::over(&[]).is_zero());

        // The spread is invisible to diff.
        let mut t = sample_trace();
        t.spans = spread;
        assert!(t.diff(&sample_trace()).is_empty());
    }

    #[test]
    fn phase_timings_accumulate_and_max() {
        let mut a = PhaseTimings::default();
        a.add(PhaseKind::Short, 10);
        a.add(PhaseKind::Short, 5);
        a.add(PhaseKind::LongPush, 3);
        let mut b = PhaseTimings::default();
        b.add(PhaseKind::Short, 9);
        b.add(PhaseKind::LongPull, 2);
        let m = a.max(&b);
        assert_eq!(m.short_ns, 15);
        assert_eq!(m.long_pull_ns, 2);
        assert_eq!(m.long_push_ns, 3);
        assert_eq!(m.bf_ns, 0);
        assert!(!m.is_zero());
        assert!(PhaseTimings::default().is_zero());
    }

    #[test]
    fn trace_diff_ignores_timings_but_flags_counters() {
        let a = sample_trace();
        let mut b = sample_trace();
        b.timings.short_ns = 120;
        assert!(a.diff(&b).is_empty(), "wall-clock timings must not diff");
        b.remote_msgs += 1;
        b.buckets[0].est_pull = 41;
        b.tail = None;
        let d = a.diff(&b);
        assert_eq!(d.len(), 3, "unexpected diff: {d:?}");
        assert!(d.iter().any(|l| l.starts_with("remote_msgs:")));
        assert!(d.iter().any(|l| l.starts_with("buckets[0].est_pull:")));
        assert!(d.iter().any(|l| l.starts_with("tail presence:")));
    }
}
