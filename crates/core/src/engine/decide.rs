//! The push/pull decision heuristic (§III-C): estimate both mechanisms'
//! volumes (exact, histogram, or closed-form expectation), convert to
//! per-phase time with the machine model, and pick the cheaper — with the
//! bottleneck-rank (imbalance-aware) refinement the paper describes.
//!
//! Split into a rank-local volume pass ([`rank_volumes`]) and a pure
//! totals→decision conversion ([`decide_from_totals`]); the driver folds
//! the former over its owned ranks, reduces across processes and feeds the
//! latter. This is the only engine file floating point may appear in.
use sssp_comm::cost::MachineModel;
use sssp_dist::LocalGraph;

use crate::config::{LongPhaseMode, PullEstimator, SsspConfig};
use crate::policy::EpochWindow;
use crate::state::RankState;

use super::{invariants, kernels, WIRE_BYTES};

/// What one unsettled vertex adds to its rank's §III-C pull-request volume:
/// the number of edges eq. 1 ([`kernels::pull_range`]) admits — counted
/// exactly, read off the weight histogram, or taken as the closed-form
/// expectation under uniform weights on `[1, w_max]`. With `dv = INF` (and
/// any `kd`) this is the vertex's per-run constant while unreached, which
/// [`RankState::install_unreached_terms`] stores.
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
        PullEstimator::Histogram => {
            let threshold = kernels::pull_threshold(dv, kd);
            let hi = lg.estimate_weight_below(vl, threshold);
            let lo = lg.estimate_weight_below(vl, short_bound);
            hi.saturating_sub(lo)
        }
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

/// One rank's §III-C volume estimates for the epoch window: the push send
/// volume, the pull request volume, and the number of unsettled vertices
/// scanned (the pull model's scan extent). Read-only over the rank state,
/// and proportional to the *reached* unsettled vertices only: the unreached
/// ones enter through the totals the state maintains, installed at
/// `unreached_bound` (the policy's short bound). A hybrid-tail window's
/// wider short bound makes those totals over-count: every edge with
/// `w ≥ window.short_bound` also has `w ≥ unreached_bound`.
pub(super) fn rank_volumes(
    lg: &LocalGraph,
    st: &RankState,
    window: &EpochWindow,
    unreached_bound: u64,
    ios: bool,
    estimator: PullEstimator,
    w_max: u64,
) -> (u64, u64, u64) {
    let short_bound = window.short_bound;
    let end_dist = window.end_dist;
    let kd = window.start_dist;

    // Push: the long-phase send volume of this rank.
    let mut push = 0u64;
    for u in st.window_members(window.lo, window.hi) {
        let ul = u as usize;
        let (_, ws) = lg.row(ul);
        let start = kernels::push_range_start(ios, ws, st.dist[ul], end_dist, short_bound);
        push += (ws.len() - start) as u64;
    }
    // Pull: the request volume of this rank.
    let mut pull = st.unreached_pull_mass();
    for v in st.members_after(window.hi) {
        let vl = v as usize;
        pull += pull_term(lg, vl, st.dist[vl], kd, short_bound, estimator, w_max);
    }
    let volumes = (push, pull, st.count_unsettled_after(window.hi));
    invariants::check_rank_volumes(
        lg,
        st,
        window,
        unreached_bound,
        ios,
        estimator,
        w_max,
        volumes,
    );
    volumes
}

/// Convert globally reduced volumes into the push/pull decision plus the
/// `(est_push, est_pull)` pair recorded per bucket. Pure arithmetic over
/// the machine model.
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
