//! α–β–γ machine cost model.
//!
//! The substitution for the paper's Blue Gene/Q wall clock: simulated time is
//! accumulated from the quantities the runtime counts exactly.
//!
//! Per superstep the model charges, BSP style,
//!
//! ```text
//!   t = γ · max_rank(max_thread_ops)        (compute, slowest thread)
//!     + β · max_rank(bytes sent or recv)    (communication, bottleneck rank)
//!     + α                                    (injection / barrier latency)
//! ```
//!
//! and per collective `α · ⌈log₂ P⌉` (tree implementation). Time is split
//! into the paper's two groups (Fig 10b/11b): **BktTime** — bucket and
//! active-set bookkeeping (scans + the associated collectives) — and
//! **OtherTime** — relaxation compute and communication.
//!
//! Calibration rationale (`bgq_like`): Blue Gene/Q's SPI layer gives every
//! thread a private injection queue, so the dominant per-relaxation cost is
//! the thread-serial handling (γ = 20 ns ≈ the paper's "tens of millions of
//! messages per second per node" divided over 64 threads), with the shared
//! network link (β = 0.5 ns/B) second and collective latency (α = 5 µs)
//! third. A scale-35 RMAT-1 OPT run on 4096 simulated nodes then lands
//! within a small factor of the paper's 650 GTEPS; more importantly, the
//! γ-vs-β balance reproduces which optimization helps where (thread
//! balancing attacks γ·max-thread-ops, pruning attacks both γ and β,
//! hybridization attacks α-dominated bucket overhead).

/// Machine parameters. All times in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Per-superstep latency and per-collective tree-stage latency.
    pub alpha_s: f64,
    /// Seconds per byte of cross-rank traffic at the bottleneck rank.
    pub beta_s_per_byte: f64,
    /// Seconds per relaxation-class operation on one thread.
    pub gamma_s_per_op: f64,
    /// Seconds per vertex scanned during bucket bookkeeping (cheaper than a
    /// relaxation: a scan is a read + branch, no atomics or messages).
    pub scan_s_per_op: f64,
    /// Logical threads per rank (Blue Gene/Q used 64).
    pub threads_per_rank: usize,
}

impl MachineModel {
    /// Parameters loosely calibrated to Blue Gene/Q (see module docs).
    pub fn bgq_like() -> Self {
        MachineModel {
            alpha_s: 5e-6,
            beta_s_per_byte: 5e-10,
            gamma_s_per_op: 2e-8,
            scan_s_per_op: 1e-9,
            threads_per_rank: 64,
        }
    }

    /// A unit model for tests: every charge adds a round number.
    pub fn unit() -> Self {
        MachineModel {
            alpha_s: 1.0,
            beta_s_per_byte: 1.0,
            gamma_s_per_op: 1.0,
            scan_s_per_op: 1.0,
            threads_per_rank: 1,
        }
    }
}

/// Which time group a charge belongs to (the paper's Fig 10b split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeClass {
    /// Bucket processing overheads: active-set collection, next-bucket
    /// search, termination checks.
    Bucket,
    /// Relaxation processing and communication.
    Relax,
}

/// Accumulates simulated time for one run.
#[derive(Debug, Clone, Default)]
pub struct TimeLedger {
    /// Simulated seconds of bucket scans and collectives.
    pub bucket_s: f64,
    /// Simulated seconds of relaxation and message work.
    pub relax_s: f64,
}

impl TimeLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total simulated seconds across all time classes.
    pub fn total_s(&self) -> f64 {
        self.bucket_s + self.relax_s
    }

    fn add(&mut self, class: TimeClass, secs: f64) {
        match class {
            TimeClass::Bucket => self.bucket_s += secs,
            TimeClass::Relax => self.relax_s += secs,
        }
    }

    /// Charge one superstep: `max_thread_ops` is the largest per-thread
    /// operation count on any rank, `max_rank_bytes` the larger of the
    /// bottleneck send/receive byte counts.
    pub fn charge_superstep(
        &mut self,
        m: &MachineModel,
        class: TimeClass,
        max_thread_ops: u64,
        max_rank_bytes: u64,
    ) {
        let t = m.gamma_s_per_op * max_thread_ops as f64
            + m.beta_s_per_byte * max_rank_bytes as f64
            + m.alpha_s;
        self.add(class, t);
    }

    /// Charge a scan pass (bucket bookkeeping): `max_rank_scanned` vertices
    /// examined on the busiest rank, spread over its threads.
    pub fn charge_scan(&mut self, m: &MachineModel, class: TimeClass, max_rank_scanned: u64) {
        let per_thread = max_rank_scanned.div_ceil(m.threads_per_rank.max(1) as u64);
        self.add(class, m.scan_s_per_op * per_thread as f64);
    }

    /// Charge one collective over `p` ranks.
    pub fn charge_collective(&mut self, m: &MachineModel, class: TimeClass, p: usize) {
        let stages = usize::BITS - p.max(1).leading_zeros(); // ⌈log₂ p⌉ + O(1)
        self.add(class, m.alpha_s * stages as f64);
    }
}

/// Traversed edges per second for `m_edges` (the benchmark's input edge
/// count) processed in `total_s` simulated seconds.
pub fn teps(m_edges: u64, total_s: f64) -> f64 {
    if total_s <= 0.0 {
        return 0.0;
    }
    m_edges as f64 / total_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superstep_charge_is_linear() {
        let m = MachineModel::unit();
        let mut l = TimeLedger::new();
        l.charge_superstep(&m, TimeClass::Relax, 10, 5);
        // 10 ops + 5 bytes + 1 latency = 16
        assert!((l.relax_s - 16.0).abs() < 1e-12);
        assert_eq!(l.bucket_s, 0.0);
    }

    #[test]
    fn collective_charge_scales_logarithmically() {
        let m = MachineModel::unit();
        let mut l = TimeLedger::new();
        l.charge_collective(&m, TimeClass::Bucket, 8);
        let t8 = l.bucket_s;
        let mut l2 = TimeLedger::new();
        l2.charge_collective(&m, TimeClass::Bucket, 1024);
        assert!(l2.bucket_s > t8);
        assert!(l2.bucket_s < 4.0 * t8);
    }

    #[test]
    fn scan_spreads_over_threads() {
        let mut m = MachineModel::unit();
        m.threads_per_rank = 4;
        let mut l = TimeLedger::new();
        l.charge_scan(&m, TimeClass::Bucket, 100);
        assert!((l.bucket_s - 25.0).abs() < 1e-12);
    }

    #[test]
    fn teps_basic() {
        assert!((teps(1_000_000, 0.5) - 2_000_000.0).abs() < 1e-6);
        assert_eq!(teps(10, 0.0), 0.0);
    }

    #[test]
    fn total_is_sum_of_classes() {
        let m = MachineModel::unit();
        let mut l = TimeLedger::new();
        l.charge_superstep(&m, TimeClass::Relax, 1, 0);
        l.charge_collective(&m, TimeClass::Bucket, 2);
        assert!((l.total_s() - (l.relax_s + l.bucket_s)).abs() < 1e-12);
        assert!(l.bucket_s > 0.0 && l.relax_s > 0.0);
    }

    #[test]
    fn bgq_like_is_sane() {
        let m = MachineModel::bgq_like();
        assert!(m.alpha_s > m.beta_s_per_byte);
        assert!(m.gamma_s_per_op > m.scan_s_per_op);
        assert_eq!(m.threads_per_rank, 64);
    }
}
