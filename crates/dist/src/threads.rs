//! Intra-rank thread model (§III-E, first tier).
//!
//! Each rank has `T` logical threads; vertex `local` is owned by thread
//! `local % T`. A *heavy* vertex (degree above the π threshold) does not
//! charge its whole neighborhood to its owner thread — the edges are split
//! evenly across all `T` threads, which is precisely the paper's intra-node
//! load balancing. The simulated per-phase compute time of a rank is the
//! maximum per-thread operation count, so the effect of the balancer shows
//! up directly in the cost model.

/// Per-thread operation ledger for one rank.
#[derive(Debug, Clone)]
pub struct ThreadLoads {
    ops: Vec<u64>,
}

impl ThreadLoads {
    /// Fresh ledger for `threads` logical threads.
    pub fn new(threads: usize) -> Self {
        ThreadLoads {
            ops: vec![0; threads.max(1)],
        }
    }

    #[inline]
    /// Owning thread of local vertex `local` (cyclic by default).
    pub fn thread_of(&self, local: usize) -> usize {
        local % self.ops.len()
    }

    /// Charge `n` operations for vertex `local`. If `balanced` (the vertex
    /// is heavy and intra-node balancing is on) the work spreads evenly
    /// across threads; otherwise it all lands on the owner thread.
    #[inline]
    pub fn charge(&mut self, local: usize, n: u64, balanced: bool) {
        if balanced {
            let t = self.ops.len() as u64;
            let per = n / t;
            let rem = (n % t) as usize;
            for (i, o) in self.ops.iter_mut().enumerate() {
                *o += per + u64::from(i < rem);
            }
        } else {
            let t = self.thread_of(local);
            self.ops[t] += n;
        }
    }

    /// Largest per-thread load — the rank's critical-path compute.
    pub fn max(&self) -> u64 {
        self.ops.iter().copied().max().unwrap_or(0)
    }

    /// Total operations across threads.
    pub fn total(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Zero all per-thread counters.
    pub fn reset(&mut self) {
        self.ops.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbalanced_charges_owner_thread() {
        let mut l = ThreadLoads::new(4);
        l.charge(5, 100, false); // thread 1
        assert_eq!(l.max(), 100);
        assert_eq!(l.total(), 100);
    }

    #[test]
    fn balanced_spreads_evenly() {
        let mut l = ThreadLoads::new(4);
        l.charge(0, 103, true);
        assert_eq!(l.total(), 103);
        assert_eq!(l.max(), 26); // 26,26,26,25
    }

    #[test]
    fn balancing_reduces_max() {
        let mut unbal = ThreadLoads::new(8);
        let mut bal = ThreadLoads::new(8);
        unbal.charge(0, 1000, false);
        bal.charge(0, 1000, true);
        assert!(bal.max() < unbal.max());
        assert_eq!(bal.total(), unbal.total());
    }

    #[test]
    fn reset_clears() {
        let mut l = ThreadLoads::new(2);
        l.charge(0, 5, false);
        l.reset();
        assert_eq!(l.total(), 0);
    }

    #[test]
    fn single_thread_degenerates() {
        let mut l = ThreadLoads::new(1);
        l.charge(7, 10, true);
        l.charge(3, 10, false);
        assert_eq!(l.max(), 20);
    }
}
