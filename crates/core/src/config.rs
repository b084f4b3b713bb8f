//! Algorithm configuration and the paper's named presets.

/// The Δ parameter. `Finite(1)` yields Dijkstra's algorithm (Dial's variant),
/// `Infinite` yields Bellman-Ford, anything between is Δ-stepping (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaParam {
    /// Bucket width Δ; distances map to bucket ⌊d/Δ⌋.
    Finite(u32),
    /// Δ = ∞: a single bucket (Bellman-Ford).
    Infinite,
}

impl DeltaParam {
    /// Bucket index of a finite tentative distance. The index is capped at
    /// `u64::MAX - 1`: the engine's epoch-selection collective reserves
    /// `u64::MAX` as its "no bucket left" sentinel, so under Δ = 1 with
    /// near-maximal distances a legitimate bucket index must never collide
    /// with it.
    #[inline]
    pub fn bucket_of(&self, d: u64) -> u64 {
        debug_assert!(d != u64::MAX, "bucket_of called on an INF distance");
        match *self {
            DeltaParam::Finite(delta) => (d / delta as u64).min(u64::MAX - 1),
            DeltaParam::Infinite => 0,
        }
    }

    /// Largest distance belonging to bucket `k` (inclusive). Saturates at
    /// the top of the distance range instead of overflowing for buckets
    /// near the `bucket_of` cap.
    #[inline]
    pub fn bucket_end(&self, k: u64) -> u64 {
        match *self {
            DeltaParam::Finite(delta) => (k + 1).saturating_mul(delta as u64).saturating_sub(1),
            DeltaParam::Infinite => u64::MAX - 1,
        }
    }

    /// The short/long weight boundary: an edge is short iff `w < Δ`.
    #[inline]
    pub fn short_bound(&self) -> u64 {
        match *self {
            DeltaParam::Finite(delta) => delta as u64,
            DeltaParam::Infinite => u64::MAX,
        }
    }
}

/// The window rule of a stepping policy (see `crate::policy`): how far
/// past the globally smallest non-empty bucket one epoch reaches. `Delta`
/// is the paper's algorithm; the other two are the Dong et al. / Blelloch
/// et al. instances of the same lazy-batched priority structure, and run
/// at Δ = 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteppingPolicyKind {
    /// Classic Δ-stepping: one bucket per epoch.
    Delta,
    /// ρ-stepping: each epoch extracts (about) the globally closest ρ
    /// vertices as one window.
    Rho(u32),
    /// Radius stepping: each epoch's window end is the frontier minimum of
    /// `d(v) + r(v)` with `r(v)` the ρ-th smallest incident edge weight.
    Radius(u32),
}

/// Which mechanism a long-edge phase uses (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LongPhaseMode {
    /// Owners of the current bucket send relaxations outward.
    Push,
    /// Owners of later buckets request candidate distances.
    Pull,
}

/// Per-bucket choice of the long-edge mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum DirectionPolicy {
    /// Always push — the natural model; equivalent to pruning disabled.
    AlwaysPush,
    /// Always pull (used by the §IV-G exhaustive study).
    AlwaysPull,
    /// The paper's decision heuristic (§III-C): per bucket, estimate the
    /// communication volume of both models and take the cheaper.
    Heuristic,
    /// Forced decisions per processed bucket, in processing order; buckets
    /// beyond the vector fall back to the heuristic. Used by the §IV-G
    /// validation harness to enumerate all 2^k decision sequences.
    Forced(Vec<LongPhaseMode>),
}

/// How the pull-volume estimate is computed: by binary search on the
/// weight-sorted adjacency, or by the §III-C closed-form expectation for
/// uniformly distributed weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullEstimator {
    /// Exact count by binary search on the weight-sorted rows.
    Exact,
    /// The paper's closed-form expectation for uniform weights.
    Expectation,
}

/// Intra-node thread-level load balancing (§III-E, first tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraBalance {
    /// No intra-node balancing: each thread keeps its own vertices.
    Off,
    /// Split edge processing of vertices with degree > π across threads.
    Threshold(u32),
    /// Pick π automatically: 4× the average degree, at least 64.
    Auto,
}

/// Full algorithm configuration. Compose via the presets or the builder
/// methods.
#[derive(Debug, Clone, PartialEq)]
pub struct SsspConfig {
    /// Bucket width Δ, under every window rule.
    pub delta: DeltaParam,
    /// The window rule the engine runs ([`SsspConfig::with_policy`] puts
    /// ρ and radius stepping at Δ = 1).
    pub policy: SteppingPolicyKind,
    /// Inner/outer short-edge refinement (IOS heuristic, §III-A).
    pub ios: bool,
    /// How each long phase picks push vs pull.
    pub direction: DirectionPolicy,
    /// How pull-request volume is estimated for that decision.
    pub pull_estimator: PullEstimator,
    /// Hybridization threshold τ (§III-D): once this fraction of vertices is
    /// settled, epoch windows double. `None` disables hybridization.
    pub hybrid_tau: Option<f64>,
    /// Intra-node thread load balancing mode (π threshold).
    pub intra_balance: IntraBalance,
    /// Sender-side relaxation coalescing (on by default): before every
    /// exchange, each outbox lane is min-reduced per destination vertex so
    /// only the smallest tentative distance crosses the wire. Relaxation
    /// is an idempotent min-reduction, so final distances are unchanged;
    /// only message counts (and the receiver-side Fig 7 classification of
    /// the pruned duplicates) shrink.
    pub coalescing: bool,
}

impl SsspConfig {
    /// Baseline Δ-stepping with short/long edge classification — the
    /// paper's `Del-Δ`.
    pub fn del(delta: u32) -> Self {
        assert!(delta >= 1);
        SsspConfig {
            delta: DeltaParam::Finite(delta),
            policy: SteppingPolicyKind::Delta,
            ios: false,
            direction: DirectionPolicy::AlwaysPush,
            pull_estimator: PullEstimator::Exact,
            hybrid_tau: None,
            intra_balance: IntraBalance::Off,
            coalescing: true,
        }
    }

    /// Dijkstra's algorithm: Δ-stepping with Δ = 1 (Dial's variant).
    pub fn dijkstra() -> Self {
        Self::del(1)
    }

    /// Bellman-Ford: Δ-stepping with Δ = ∞.
    pub fn bellman_ford() -> Self {
        let mut cfg = Self::del(1);
        cfg.delta = DeltaParam::Infinite;
        cfg
    }

    /// `Del-Δ` + IOS + push/pull pruning with the decision heuristic — the
    /// paper's `Prune-Δ`.
    pub fn prune(delta: u32) -> Self {
        let mut cfg = Self::del(delta);
        cfg.ios = true;
        cfg.direction = DirectionPolicy::Heuristic;
        cfg
    }

    /// `Prune-Δ` + hybridization (τ = 0.4, the paper's recommended value) —
    /// the paper's `OPT-Δ`.
    pub fn opt(delta: u32) -> Self {
        let mut cfg = Self::prune(delta);
        cfg.hybrid_tau = Some(0.4);
        cfg
    }

    /// `OPT-Δ` + intra-node thread load balancing — the paper's `LB-OPT`.
    /// (Inter-node vertex splitting is a graph transformation; apply
    /// [`sssp_dist::split_heavy_vertices`] before building the
    /// distributed graph.)
    pub fn lb_opt(delta: u32) -> Self {
        let mut cfg = Self::opt(delta);
        cfg.intra_balance = IntraBalance::Auto;
        cfg
    }

    /// ρ-stepping (Dong et al.): each epoch lazily extracts roughly the ρ
    /// globally closest unsettled vertices as one window, over Δ = 1
    /// buckets. IOS keeps the in-window fixpoint from chasing edges that
    /// leave the window.
    pub fn rho(rho: u32) -> Self {
        assert!(rho >= 1, "ρ must be at least 1");
        let mut cfg = Self::del(1);
        cfg.policy = SteppingPolicyKind::Rho(rho);
        cfg.ios = true;
        cfg
    }

    /// Radius stepping (Blelloch et al.): each epoch's window reaches to
    /// the frontier minimum of `d(v) + r(v)`, where `r(v)` is the ρ-th
    /// smallest incident edge weight of `v`, over Δ = 1 buckets.
    pub fn radius(rho: u32) -> Self {
        assert!(rho >= 1, "ρ must be at least 1");
        let mut cfg = Self::del(1);
        cfg.policy = SteppingPolicyKind::Radius(rho);
        cfg.ios = true;
        cfg
    }

    // Builder-style tweaks -------------------------------------------------

    /// Select the window rule (see [`SteppingPolicyKind`]). ρ and radius
    /// stepping set Δ = 1.
    pub fn with_policy(mut self, p: SteppingPolicyKind) -> Self {
        if let SteppingPolicyKind::Rho(r) | SteppingPolicyKind::Radius(r) = p {
            assert!(r >= 1, "ρ must be at least 1");
            self.delta = DeltaParam::Finite(1);
        }
        self.policy = p;
        self
    }

    /// Toggle the inner/outer-short refinement (§III-A).
    pub fn with_ios(mut self, ios: bool) -> Self {
        self.ios = ios;
        self
    }

    /// Select how each long phase chooses between push and pull (§III-C).
    pub fn with_direction(mut self, d: DirectionPolicy) -> Self {
        self.direction = d;
        self
    }

    /// Set the hybrid switch threshold τ (fraction of vertices settled,
    /// §III-D); `None` disables hybridization.
    pub fn with_hybrid(mut self, tau: Option<f64>) -> Self {
        if let Some(t) = tau {
            assert!((0.0..=1.0).contains(&t), "τ must lie in [0, 1]");
        }
        self.hybrid_tau = tau;
        self
    }

    /// Select the intra-node thread load balancing mode (§III-E).
    pub fn with_intra_balance(mut self, b: IntraBalance) -> Self {
        self.intra_balance = b;
        self
    }

    /// Select how pull-request volume is estimated for the §III-C decision.
    pub fn with_pull_estimator(mut self, e: PullEstimator) -> Self {
        self.pull_estimator = e;
        self
    }

    /// Toggle sender-side relaxation coalescing (on by default). Turning it
    /// off sends every produced relaxation verbatim — the differential axis
    /// used by the coalescing proptests. Distances are identical either
    /// way; only message counts differ.
    pub fn with_coalescing(mut self, coalescing: bool) -> Self {
        self.coalescing = coalescing;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_finite() {
        let d = DeltaParam::Finite(5);
        assert_eq!(d.bucket_of(0), 0);
        assert_eq!(d.bucket_of(4), 0);
        assert_eq!(d.bucket_of(5), 1);
        assert_eq!(d.bucket_end(0), 4);
        assert_eq!(d.bucket_end(2), 14);
        assert_eq!(d.short_bound(), 5);
    }

    #[test]
    fn bucket_math_infinite() {
        let d = DeltaParam::Infinite;
        assert_eq!(d.bucket_of(0), 0);
        assert_eq!(d.bucket_of(u64::MAX - 2), 0);
        assert!(d.bucket_end(0) > 1u64 << 60);
    }

    #[test]
    fn bucket_of_reserves_the_epoch_sentinel() {
        // Δ = 1 with a maximal finite distance must not produce the
        // `u64::MAX` index the epoch-selection collective uses as its "no
        // bucket left" sentinel.
        let d = DeltaParam::Finite(1);
        assert_eq!(d.bucket_of(u64::MAX - 1), u64::MAX - 1);
        // And bucket_end must not overflow for indices near the cap.
        assert_eq!(d.bucket_end(u64::MAX - 1), u64::MAX - 1);
        let d2 = DeltaParam::Finite(2);
        assert_eq!(d2.bucket_of(u64::MAX - 1), (u64::MAX - 1) / 2);
        assert_eq!(d2.bucket_end((u64::MAX - 1) / 2), u64::MAX - 1);
        assert_eq!(d2.bucket_end(u64::MAX - 1), u64::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "INF distance")]
    #[cfg(debug_assertions)]
    fn bucket_of_rejects_inf() {
        let _ = DeltaParam::Finite(1).bucket_of(u64::MAX);
    }

    #[test]
    fn policy_presets_and_builder() {
        assert_eq!(SsspConfig::del(25).policy, SteppingPolicyKind::Delta);
        let rho = SsspConfig::rho(64);
        assert_eq!(rho.policy, SteppingPolicyKind::Rho(64));
        assert!(rho.ios);
        let rad = SsspConfig::radius(8);
        assert_eq!(rad.policy, SteppingPolicyKind::Radius(8));
        let cfg = SsspConfig::del(5).with_policy(SteppingPolicyKind::Rho(3));
        assert_eq!(cfg.policy, SteppingPolicyKind::Rho(3));
        assert_eq!(cfg.delta, DeltaParam::Finite(1));
    }

    #[test]
    #[should_panic(expected = "ρ must be at least 1")]
    fn zero_rho_rejected() {
        let _ = SsspConfig::rho(0);
    }

    #[test]
    fn presets_compose() {
        let del = SsspConfig::del(25);
        assert!(!del.ios && del.hybrid_tau.is_none());
        let prune = SsspConfig::prune(25);
        assert!(prune.ios && prune.direction == DirectionPolicy::Heuristic);
        assert!(prune.hybrid_tau.is_none());
        let opt = SsspConfig::opt(25);
        assert_eq!(opt.hybrid_tau, Some(0.4));
        assert_eq!(opt.intra_balance, IntraBalance::Off);
        let lb = SsspConfig::lb_opt(25);
        assert_eq!(lb.intra_balance, IntraBalance::Auto);
    }

    #[test]
    fn dijkstra_and_bf_are_the_extremes() {
        assert_eq!(SsspConfig::dijkstra().delta, DeltaParam::Finite(1));
        assert_eq!(SsspConfig::bellman_ford().delta, DeltaParam::Infinite);
    }

    #[test]
    #[should_panic]
    fn invalid_tau_rejected() {
        let _ = SsspConfig::opt(10).with_hybrid(Some(1.5));
    }

    #[test]
    fn coalescing_default_on_and_toggleable() {
        assert!(SsspConfig::del(5).coalescing);
        assert!(SsspConfig::opt(5).coalescing);
        assert!(!SsspConfig::opt(5).with_coalescing(false).coalescing);
    }
}
