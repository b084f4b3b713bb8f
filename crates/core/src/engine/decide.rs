//! The push/pull decision heuristic (§III-C): estimate both mechanisms'
//! volumes (exact, or the closed-form expectation), convert to per-phase
//! time with the machine model, and pick the cheaper — with the
//! bottleneck-rank (imbalance-aware) refinement the paper describes.
//!
//! Split into two rank-local volume passes ([`rank_push_bound`], then
//! [`rank_pull`] when the bound does not settle the decision) and
//! a pure totals→decision conversion ([`decide_from_totals`]); the driver
//! folds the passes over its owned ranks, reduces across processes and
//! feeds the latter. This is the only engine file floating point may
//! appear in.
use sssp_comm::cost::MachineModel;
use sssp_dist::LocalGraph;

use crate::config::{LongPhaseMode, PullEstimator, SsspConfig};
use crate::policy::EpochWindow;
use crate::state::RankState;

use super::{invariants, kernels, WIRE_BYTES};

/// What one unsettled vertex adds to its rank's §III-C pull-request volume:
/// the number of edges eq. 1 ([`kernels::pull_range`]) admits — counted
/// exactly, or taken as the closed-form expectation under uniform weights
/// on `[1, w_max]`; either is at most the vertex's degree. With
/// `dv = INF` (and any `kd`) this is the vertex's per-run constant while
/// unreached, which [`RankState::install_unreached_terms`] stores.
pub(super) fn pull_term(
    lg: &LocalGraph,
    vl: usize,
    dv: u64,
    kd: u64,
    short_bound: u64,
    estimator: PullEstimator,
    w_max: u64,
) -> u64 {
    match estimator {
        PullEstimator::Exact => kernels::pull_range(lg.row(vl).1, dv, kd, short_bound).len() as u64,
        PullEstimator::Expectation => {
            // Uniform weights on [1, w_max]: expected number of edges
            // with Δ ≤ w < T.
            if w_max == 0 || short_bound > w_max {
                return 0;
            }
            let t_hi = kernels::pull_threshold(dv, kd).saturating_sub(1).min(w_max);
            let t_lo = short_bound.saturating_sub(1);
            lg.degree(vl) as u64 * t_hi.saturating_sub(t_lo) / w_max
        }
    }
}

/// One rank's §III-C push bound for the epoch window: the push send
/// volume, the unreached vertices' share of the pull request volume, and
/// the number of unsettled vertices (the pull model's scan extent). The
/// push volume walks the active set, which must hold the window's settled
/// members (the driver collects them after the short fixpoint), and reads
/// each member's push-range start as the short kernel recorded it. The
/// unreached share is the running total the state maintains, installed at
/// `unreached_bound` (the policy's short bound); a hybrid-tail window's
/// wider short bound makes it over-count, since every edge with
/// `w ≥ window.short_bound` also has `w ≥ unreached_bound`. The reached
/// unsettled vertices only add to the pull side ([`rank_pull`]), so the
/// middle value is a lower bound on the rank's pull volume. Read-only
/// over the rank state.
pub(super) fn rank_push_bound(
    lg: &LocalGraph,
    st: &RankState,
    window: &EpochWindow,
    unreached_bound: u64,
    ios: bool,
    estimator: PullEstimator,
    w_max: u64,
) -> (u64, u64, u64) {
    let push = st
        .active
        .iter()
        .map(|u| (lg.degree(u as usize) - st.push_start[u as usize] as usize) as u64)
        .sum();
    let bound = (
        push,
        st.unreached_pull_mass(),
        st.count_unsettled_after(window.hi),
    );
    invariants::check_rank_volumes(
        lg,
        st,
        window,
        unreached_bound,
        ios,
        estimator,
        w_max,
        bound,
    );
    bound
}

/// One rank's whole §III-C pull request volume: the unreached share of
/// [`rank_push_bound`] plus the terms of the reached unsettled vertices
/// (the live members of the buckets past the window) — work proportional
/// to the reached frontier, not to `n_local`.
pub(super) fn rank_pull(
    lg: &LocalGraph,
    st: &RankState,
    window: &EpochWindow,
    unreached_bound: u64,
    ios: bool,
    estimator: PullEstimator,
    w_max: u64,
) -> u64 {
    let (kd, short_bound) = (window.start_dist, window.short_bound);
    let reached: u64 = st
        .members_after(window.hi)
        .map(|v| {
            let vl = v as usize;
            pull_term(lg, vl, st.dist[vl], kd, short_bound, estimator, w_max)
        })
        .sum();
    let pull = st.unreached_pull_mass() + reached;
    invariants::check_rank_pull(lg, st, window, unreached_bound, ios, estimator, w_max, pull);
    pull
}

/// Convert globally reduced volumes into the push/pull decision plus the
/// `(est_push, est_pull)` pair recorded per bucket. Pure arithmetic over
/// the machine model, and monotone in the pull side: `t_pull` never
/// decreases as `pull_total` or `pull_max` grows (every step is a
/// monotone IEEE operation), so a push chosen on lower bounds of both is
/// the push the exact totals choose.
#[allow(clippy::too_many_arguments)]
pub(super) fn decide_from_totals(
    cfg: &SsspConfig,
    model: &MachineModel,
    p: usize,
    push_total: u64,
    pull_total: u64,
    push_max: u64,
    pull_max: u64,
    scan_max: u64,
) -> (LongPhaseMode, u64, u64) {
    // Pull moves a request and (up to) a response per covered edge.
    let est_pull = 2 * pull_total;
    let est_push = push_total;

    // Convert volumes into estimated phase times, the quantity §III-C
    // actually minimizes ("estimating the communication volume and the
    // processing time"). A bulk-synchronous phase lasts as long as its
    // busiest rank, so the volume charged is the larger of the average and
    // the bottleneck rank's.
    let per_edge = model.gamma_s_per_op / model.threads_per_rank.max(1) as f64
        + model.beta_s_per_byte * WIRE_BYTES as f64;
    let bottleneck = |total: u64, maxr: u64| (total as f64 / p as f64).max(maxr as f64);
    let t_push = bottleneck(est_push, push_max) * per_edge;
    // Pull pays for requests + responses, the unsettled-vertex scan and
    // one to two extra superstep latencies (requests/responses, plus
    // the outer-short push under IOS).
    let extra_supersteps = if cfg.ios { 2.0 } else { 1.0 };
    let t_pull = bottleneck(est_pull, 2 * pull_max) * per_edge
        + scan_max as f64 * model.scan_s_per_op
        + extra_supersteps * model.alpha_s;

    let pull_wins = t_pull < t_push;
    (
        if pull_wins {
            LongPhaseMode::Pull
        } else {
            LongPhaseMode::Push
        },
        est_push,
        est_pull,
    )
}

/// The §III-D hybrid switch test: true once more than fraction τ of the
/// graph's vertices is settled. Lives here so the float arithmetic stays
/// in this module.
pub(super) fn hybrid_should_switch(tau: f64, settled_total: u64, n_total: u64) -> bool {
    settled_total as f64 > tau * n_total as f64
}
