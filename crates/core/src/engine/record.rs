//! The run-telemetry recorder: the one sink the epoch loop feeds its
//! per-superstep, per-phase and per-bucket observations — and the α–β–γ
//! cost model's charges — through.
//!
//! The driver is generic over [`Recorder`]. The wall-clock entry points
//! instantiate the zero-sized [`NoopRecorder`] — every call inlines to
//! nothing, keeping the benchmarked hot path clean — while traced runs give
//! every *process* of the run (one for the lockstep transport, one per
//! rank thread for the threaded one) its own [`RunStats`] and merge the
//! per-process traces deterministically afterwards ([`merged_trace`]):
//! rank-local volumes sum, per-step maxima combine by max (max is
//! commutative, so per-process-then-merge equals the per-step global max),
//! and globally allreduced quantities (mode, estimates, settled counts)
//! are asserted identical across processes.
//!
//! The simulated-time ledger is a recorder concern too: a [`RunStats`]
//! built with a machine model ([`RunStats::for_run`]) converts the
//! `collective` / `scan` / `superstep` events into [`TimeLedger`] charges.
//! The figures are meaningful when the recording process drives every rank
//! (its per-step maxima are then the global ones) — the lockstep
//! transport, which is what [`run_sssp`](super::run_sssp) uses.
//!
//! [`TimeLedger`]: sssp_comm::cost::TimeLedger
//! [`NoopRecorder`]: crate::engine::record::NoopRecorder
//! [`merged_trace`]: crate::engine::record::merged_trace

use sssp_comm::cost::TimeClass;
use sssp_comm::stats::StepStats;

use crate::instrument::{
    BucketRecord, PhaseKind, PhaseRecord, RunStats, RunTrace, SubPhase, SubPhaseNanos,
    SubPhaseSpread,
};

/// Sink for one process's telemetry and cost-model events; every process
/// of a run gets its own clone, moved onto its thread. All methods default
/// to no-ops so a disabled recorder costs nothing; `enabled` lets callers
/// skip work that exists only to be recorded (e.g. the heuristic volume
/// pass under a forced direction policy).
pub trait Recorder: Clone + Send + Sync + 'static {
    /// Whether this recorder stores anything at all. Must be uniform
    /// across ranks of one run (it steers collective-bearing code paths).
    fn enabled(&self) -> bool {
        false
    }
    /// One collective of cost class `_class` was issued (the §III-C
    /// decision's five reductions travel as one charged collective; the
    /// set-up reductions are not charged at all).
    fn collective(&mut self, _class: TimeClass) {}
    /// A bookkeeping scan examined `_len` entries on the busiest owned rank.
    fn scan(&mut self, _class: TimeClass, _len: u64) {}
    /// One data-exchange superstep completed with the given traffic;
    /// `_max_thread_ops` is the largest per-thread operation count on any
    /// owned rank (0 unless [`Recorder::enabled`]).
    fn superstep(&mut self, _step: &StepStats, _max_thread_ops: u64) {}
    /// One relaxation phase (a short round, a long push, or a whole pull
    /// phase) completed; `_outer_short` of its relaxations travelled along
    /// IOS outer-short edges.
    fn phase(&mut self, _rec: &PhaseRecord, _outer_short: u64) {}
    /// Wall-clock nanoseconds one phase of `kind` took on this process,
    /// including the wait inside its exchanges.
    fn phase_nanos(&mut self, _kind: PhaseKind, _ns: u64) {}
    /// Wall-clock nanoseconds this process just spent in one stretch of
    /// `_sub`. The driver reads the clock for it only when
    /// [`Recorder::enabled`], so a disabled recorder costs no clock read.
    fn span(&mut self, _sub: SubPhase, _ns: u64) {}
    /// One bucket epoch completed. The recorder fills the record's
    /// per-epoch traffic fields from the supersteps since the last bucket.
    fn bucket(&mut self, _rec: BucketRecord) {}
    /// The settled count of the epoch recorded last.
    fn settled(&mut self, _settled: u64) {}
    /// The hybrid τ switch fired after bucket `_bucket`: every later epoch
    /// belongs to the tail's one pseudo-bucket.
    fn hybrid_switch(&mut self, _bucket: u64) {}
    /// The run is over: flush the hybrid tail's traffic fields.
    fn finish(&mut self) {}
}

/// The zero-cost disabled recorder (the wall-clock bench path).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

impl Recorder for RunStats {
    fn enabled(&self) -> bool {
        true
    }

    fn collective(&mut self, class: TimeClass) {
        if let Some(model) = &self.cost_model {
            self.ledger.charge_collective(model, class, self.num_ranks);
        }
    }

    fn scan(&mut self, class: TimeClass, len: u64) {
        if let Some(model) = &self.cost_model {
            self.ledger.charge_scan(model, class, len);
        }
    }

    fn superstep(&mut self, step: &StepStats, max_thread_ops: u64) {
        if let Some(model) = &self.cost_model {
            let bytes = step.max_rank_send_bytes.max(step.max_rank_recv_bytes);
            self.ledger
                .charge_superstep(model, TimeClass::Relax, max_thread_ops, bytes);
        }
        self.comm.record(*step);
    }

    fn phase(&mut self, rec: &PhaseRecord, outer_short: u64) {
        self.phases += 1;
        let bucket = if self.tail_record.is_some() {
            u64::MAX
        } else {
            rec.bucket
        };
        self.phase_records.push(PhaseRecord { bucket, ..*rec });
        self.outer_short_relaxations += outer_short;
        match rec.kind {
            PhaseKind::Short => self.short_relaxations += rec.relaxations,
            PhaseKind::LongPush => self.long_push_relaxations += rec.relaxations - outer_short,
            // Requests and responses are counted off the bucket record.
            PhaseKind::LongPull => {}
        }
    }

    fn phase_nanos(&mut self, kind: PhaseKind, ns: u64) {
        self.wall.add(kind, ns);
    }

    fn span(&mut self, sub: SubPhase, ns: u64) {
        self.spans.add(sub, ns);
    }

    fn bucket(&mut self, mut rec: BucketRecord) {
        self.pull_requests += rec.requests;
        self.pull_responses += rec.responses;
        // A tail epoch folds its volumes into the pseudo-bucket; the
        // tail's traffic fields are filled once, at `finish`.
        if let Some(tail) = &mut self.tail_record {
            tail.self_edges += rec.self_edges;
            tail.backward_edges += rec.backward_edges;
            tail.forward_edges += rec.forward_edges;
            tail.requests += rec.requests;
            tail.responses += rec.responses;
            return;
        }
        let (supersteps, local, remote, coalesced) = self.epoch_window();
        rec.supersteps = supersteps;
        rec.local_msgs = local;
        rec.remote_msgs = remote;
        rec.coalesced_msgs = coalesced;
        self.epochs += 1;
        self.bucket_records.push(rec);
    }

    fn settled(&mut self, settled: u64) {
        if let Some(tail) = &mut self.tail_record {
            tail.settled += settled;
        } else if let Some(rec) = self.bucket_records.last_mut() {
            rec.settled = settled;
        }
    }

    fn hybrid_switch(&mut self, bucket: u64) {
        self.hybrid_switch_at = Some(bucket);
        self.tail_record = Some(BucketRecord::new(
            u64::MAX,
            crate::config::LongPhaseMode::Push,
        ));
    }

    fn finish(&mut self) {
        if let Some(tail) = self.tail_record {
            let (supersteps, local_msgs, remote_msgs, coalesced_msgs) = self.epoch_window();
            self.tail_record = Some(BucketRecord {
                supersteps,
                local_msgs,
                remote_msgs,
                coalesced_msgs,
                ..tail
            });
        }
    }
}

/// The run's global trace from the per-process recorders [`run`](super::run)
/// returns (one for the lockstep transport, one per rank for the threaded
/// one), labelled `backend`.
pub fn merged_trace(stats: &[RunStats], backend: &str) -> RunTrace {
    let mut merged = merge_rank_traces(
        stats
            .iter()
            .map(|s| RunTrace::from_run_stats(s, backend))
            .collect(),
    );
    // A spread needs every process at once, so it cannot fold pairwise.
    let spans: Vec<SubPhaseNanos> = stats.iter().map(|s| s.spans).collect();
    merged.spans = SubPhaseSpread::over(&spans);
    merged
}

/// Merge the per-process traces of one run into the run's global trace.
/// Rank-local volumes (message and byte counts, relaxations) sum;
/// per-superstep maxima combine by max; quantities every process obtained
/// from the same allreduce (bucket ids, modes, estimates, settled counts,
/// superstep counts) are asserted identical — a mismatch means the SPMD
/// contract broke, which must abort rather than produce a silently wrong
/// trace.
fn merge_rank_traces(traces: Vec<RunTrace>) -> RunTrace {
    let mut it = traces.into_iter();
    // sssp-lint: allow(no-panic-hot-path): post-join merge, not a hot path;
    // every transport returns one recorder per process and at least one process.
    let mut merged = it.next().expect("at least one process trace");
    for t in it {
        assert_eq!(merged.ranks, t.ranks, "rank count drift across ranks");
        assert_eq!(
            merged.supersteps, t.supersteps,
            "superstep count drift across ranks"
        );
        assert_eq!(
            merged.hybrid_switch_at, t.hybrid_switch_at,
            "hybrid switch drift across ranks"
        );
        merged.local_msgs += t.local_msgs;
        merged.remote_msgs += t.remote_msgs;
        merged.remote_bytes += t.remote_bytes;
        merged.coalesced_msgs += t.coalesced_msgs;
        merged.max_step_send_bytes = merged.max_step_send_bytes.max(t.max_step_send_bytes);
        merged.max_step_recv_bytes = merged.max_step_recv_bytes.max(t.max_step_recv_bytes);
        // Per-phase wall clock: the slowest rank bounds a BSP phase.
        merged.timings = merged.timings.max(&t.timings);
        assert_eq!(
            merged.phases.len(),
            t.phases.len(),
            "phase sequence drift across ranks"
        );
        for (m, r) in merged.phases.iter_mut().zip(&t.phases) {
            assert_eq!(m.bucket, r.bucket, "phase bucket drift across ranks");
            assert_eq!(m.kind, r.kind, "phase kind drift across ranks");
            m.relaxations += r.relaxations;
            m.remote_msgs += r.remote_msgs;
        }
        assert_eq!(
            merged.buckets.len(),
            t.buckets.len(),
            "bucket sequence drift across ranks"
        );
        for (m, r) in merged.buckets.iter_mut().zip(&t.buckets) {
            merge_bucket(m, r);
        }
        match (&mut merged.tail, &t.tail) {
            (Some(m), Some(r)) => merge_bucket(m, r),
            (None, None) => {}
            _ => assert_eq!(
                merged.tail.is_some(),
                t.tail.is_some(),
                "hybrid tail drift across ranks"
            ),
        }
    }
    merged
}

/// Fold one rank's bucket record into the merged record: globally reduced
/// fields must agree, rank-local volumes sum.
fn merge_bucket(m: &mut BucketRecord, r: &BucketRecord) {
    assert_eq!(m.bucket, r.bucket, "bucket id drift across ranks");
    assert_eq!(m.mode, r.mode, "long-phase mode drift across ranks");
    assert_eq!(m.est_push, r.est_push, "est_push drift across ranks");
    assert_eq!(m.est_pull, r.est_pull, "est_pull drift across ranks");
    assert_eq!(m.settled, r.settled, "settled count drift across ranks");
    assert_eq!(
        m.supersteps, r.supersteps,
        "epoch superstep drift across ranks"
    );
    m.self_edges += r.self_edges;
    m.backward_edges += r.backward_edges;
    m.forward_edges += r.forward_edges;
    m.requests += r.requests;
    m.responses += r.responses;
    m.local_msgs += r.local_msgs;
    m.remote_msgs += r.remote_msgs;
    m.coalesced_msgs += r.coalesced_msgs;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LongPhaseMode;

    fn bucket(remote: u64) -> BucketRecord {
        BucketRecord {
            settled: 6,
            est_push: 12,
            est_pull: 20,
            self_edges: 1,
            backward_edges: 2,
            forward_edges: 3,
            supersteps: 2,
            local_msgs: 1,
            remote_msgs: remote,
            coalesced_msgs: 1,
            ..BucketRecord::new(1, LongPhaseMode::Push)
        }
    }

    fn rank_trace(remote: u64, send_max: u64) -> RunTrace {
        RunTrace {
            backend: "threaded".to_string(),
            ranks: 2,
            supersteps: 2,
            local_msgs: 1,
            remote_msgs: remote,
            remote_bytes: remote * 16,
            coalesced_msgs: 1,
            max_step_send_bytes: send_max,
            max_step_recv_bytes: send_max / 2,
            hybrid_switch_at: None,
            timings: crate::instrument::PhaseTimings::default(),
            spans: SubPhaseSpread::default(),
            phases: vec![PhaseRecord {
                bucket: 1,
                kind: PhaseKind::Short,
                relaxations: 4,
                remote_msgs: remote,
            }],
            buckets: vec![bucket(remote)],
            tail: None,
        }
    }

    #[test]
    fn merge_sums_volumes_and_maxes_maxima() {
        let merged = merge_rank_traces(vec![rank_trace(10, 64), rank_trace(4, 160)]);
        assert_eq!(merged.remote_msgs, 14);
        assert_eq!(merged.remote_bytes, 14 * 16);
        assert_eq!(merged.local_msgs, 2);
        assert_eq!(merged.coalesced_msgs, 2);
        assert_eq!(merged.max_step_send_bytes, 160);
        assert_eq!(merged.max_step_recv_bytes, 80);
        // Globally reduced fields stay as-is.
        assert_eq!(merged.supersteps, 2);
        assert_eq!(merged.buckets[0].est_push, 12);
        assert_eq!(merged.buckets[0].settled, 6);
        // Rank-local bucket volumes sum.
        assert_eq!(merged.buckets[0].remote_msgs, 14);
        assert_eq!(merged.buckets[0].self_edges, 2);
        assert_eq!(merged.phases[0].relaxations, 8);
    }

    #[test]
    #[should_panic(expected = "est_push drift")]
    fn merge_rejects_global_field_drift() {
        let mut b = rank_trace(4, 64);
        b.buckets[0].est_push = 13;
        merge_rank_traces(vec![rank_trace(4, 64), b]);
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
    }

    #[test]
    fn run_stats_recorder_builds_records() {
        let mut s = RunStats::default();
        assert!(Recorder::enabled(&s));
        s.superstep(
            &StepStats {
                local_msgs: 2,
                remote_msgs: 3,
                coalesced_msgs: 1,
                ..Default::default()
            },
            0,
        );
        s.phase(
            &PhaseRecord {
                bucket: 0,
                kind: PhaseKind::Short,
                relaxations: 5,
                remote_msgs: 3,
            },
            0,
        );
        s.bucket(bucket(0));
        s.settled(9);
        // The epoch fields came from the recorded superstep, not the
        // literal passed in.
        let rec = s.bucket_records[0];
        assert_eq!(rec.supersteps, 1);
        assert_eq!(rec.local_msgs, 2);
        assert_eq!(rec.remote_msgs, 3);
        assert_eq!(rec.coalesced_msgs, 1);
        assert_eq!(rec.settled, 9);
        assert_eq!(s.phases, 1);
        // After the switch, epochs fold into the tail record, which
        // flushes the remaining steps at finish().
        s.hybrid_switch(0);
        s.superstep(
            &StepStats {
                remote_msgs: 7,
                ..Default::default()
            },
            0,
        );
        s.phase(
            &PhaseRecord {
                bucket: 4,
                kind: PhaseKind::Short,
                relaxations: 2,
                remote_msgs: 7,
            },
            0,
        );
        for _ in 0..2 {
            s.bucket(bucket(0));
            s.settled(5);
        }
        s.finish();
        let tail = s.tail_record.expect("tail record");
        assert_eq!(tail.bucket, u64::MAX);
        assert_eq!((tail.supersteps, tail.remote_msgs), (1, 7));
        assert_eq!((tail.settled, tail.self_edges), (10, 2));
        assert_eq!((s.epochs, s.bucket_records.len()), (1, 1));
        assert_eq!(s.phase_records[1].bucket, u64::MAX);
        assert_eq!(s.short_relaxations, 7);
    }

    #[test]
    fn finish_without_hybrid_leaves_no_tail() {
        let mut s = RunStats::default();
        s.finish();
        assert!(s.tail_record.is_none());
    }
}
