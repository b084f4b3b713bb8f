//! Communication accounting.
//!
//! Every quantity the paper's heuristics and figures consume is a count the
//! runtime can record exactly: messages, bytes, per-rank maxima, collective
//! invocations. The engine keeps one [`CommStats`] per run.

/// Statistics of a single bulk-synchronous exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepStats {
    /// Cross-rank messages delivered.
    pub remote_msgs: u64,
    /// Rank-local messages (owner == sender); free in the cost model.
    pub local_msgs: u64,
    /// Total bytes moved across ranks.
    pub remote_bytes: u64,
    /// Maximum bytes sent by any single rank (bottleneck signal).
    pub max_rank_send_bytes: u64,
    /// Maximum bytes received by any single rank.
    pub max_rank_recv_bytes: u64,
    /// Messages removed by sender-side coalescing before this exchange
    /// (duplicate relaxations min-reduced per destination vertex). The
    /// delivered-message counters above are post-coalescing.
    pub coalesced_msgs: u64,
}

/// Cumulative communication statistics for a run.
#[derive(Debug, Clone, Default)]
pub struct CommStats {
    /// One record per completed superstep, in execution order.
    pub steps: Vec<StepStats>,
    /// Number of collective operations performed (allreduce/allgather).
    pub collectives: u64,
}

impl CommStats {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one superstep record.
    pub fn record(&mut self, step: StepStats) {
        self.steps.push(step);
    }

    /// Messages that crossed rank boundaries, summed over all supersteps.
    pub fn total_remote_msgs(&self) -> u64 {
        self.steps.iter().map(|s| s.remote_msgs).sum()
    }

    /// Rank-local (self-addressed) messages, summed over all supersteps.
    pub fn total_local_msgs(&self) -> u64 {
        self.steps.iter().map(|s| s.local_msgs).sum()
    }

    /// All delivered messages, remote and local.
    pub fn total_msgs(&self) -> u64 {
        self.total_remote_msgs() + self.total_local_msgs()
    }

    /// Bytes that crossed rank boundaries, summed over all supersteps.
    pub fn total_remote_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.remote_bytes).sum()
    }

    /// Messages saved by sender-side coalescing, summed over all supersteps.
    pub fn total_coalesced_msgs(&self) -> u64 {
        self.steps.iter().map(|s| s.coalesced_msgs).sum()
    }

    /// Number of recorded supersteps.
    pub fn num_supersteps(&self) -> usize {
        self.steps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut s = CommStats::new();
        s.record(StepStats {
            remote_msgs: 3,
            local_msgs: 2,
            remote_bytes: 48,
            ..Default::default()
        });
        s.record(StepStats {
            remote_msgs: 1,
            local_msgs: 0,
            remote_bytes: 16,
            ..Default::default()
        });
        assert_eq!(s.total_remote_msgs(), 4);
        assert_eq!(s.total_local_msgs(), 2);
        assert_eq!(s.total_msgs(), 6);
        assert_eq!(s.total_remote_bytes(), 64);
        assert_eq!(s.num_supersteps(), 2);
    }

    #[test]
    fn coalescing_savings_accumulate() {
        let mut s = CommStats::new();
        s.record(StepStats {
            remote_msgs: 3,
            coalesced_msgs: 5,
            ..Default::default()
        });
        s.record(StepStats {
            coalesced_msgs: 2,
            ..Default::default()
        });
        assert_eq!(s.total_coalesced_msgs(), 7);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CommStats::new();
        assert_eq!(s.total_msgs(), 0);
        assert_eq!(s.num_supersteps(), 0);
    }
}
