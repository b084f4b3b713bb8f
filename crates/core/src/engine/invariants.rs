//! Runtime invariant checks — the dynamic half of the `sssp-lint` gate.
//!
//! Each check is a thin `#[inline]` wrapper around `debug_assert!`, so
//! release builds pay nothing while every debug test run exercises the
//! checks on every relaxed edge, pull request and superstep:
//!
//! * **IOS inner-edge bound** (§III-A) — short phases under IOS only relax
//!   edges that are short *and* stay inside the current bucket.
//! * **Pull-request threshold** (§III-B, eq. 1) — requests travel only
//!   along long edges that could still improve the requester.
//! * **Bucket monotonicity** — a vertex only ever moves to a lower bucket
//!   (checked in [`RankState::relax`](crate::state::RankState::relax)) and
//!   the run loop processes strictly increasing bucket indices.
//! * **Relaxation headroom** — every `d + w` a kernel forms starts from a
//!   reached distance at most `u64::MAX − u32::MAX` (the bound stated at
//!   [`max_seed_offset`](super::max_seed_offset)), so it cannot wrap.
//! * **Maintained §III-C estimate** — the volumes `decide::rank_push_bound`
//!   and `decide::rank_pull` assemble from the state's running totals agree
//!   with a from-scratch scan of every local vertex, every epoch: push and
//!   scan extent equal, the unreached mass at most the pull volume, and the
//!   pull volume equal whenever it is computed.
//!
//! Message conservation — every message sent is delivered — is a property
//! of all ranks together, so its debug check lives behind the transport
//! (`Comm::assert_consistent`), which the driver calls at every epoch end.

use sssp_dist::LocalGraph;

use crate::config::PullEstimator;
use crate::policy::EpochWindow;
use crate::state::{RankState, INF};

use super::{decide, kernels};

/// IOS inner-edge bound (§III-A). When `ios` is off the short phase
/// legitimately relaxes edges that leave the bucket, so the check gates
/// on the flag.
#[inline]
pub(super) fn check_ios_inner_edge(ios: bool, w: u32, du: u64, short_bound: u64, bucket_end: u64) {
    debug_assert!(
        !ios || (w as u64) < short_bound,
        "IOS inner-edge bound violated: weight {w} is not short (bound {short_bound})"
    );
    debug_assert!(
        !ios || du + w as u64 <= bucket_end,
        "IOS inner-edge bound violated: d(u) + w = {} leaves the bucket (end {bucket_end})",
        du + w as u64,
    );
}

/// Relaxation headroom: `d` is a reached distance about to have one edge
/// weight added. Seeds start at most at `max_seed_offset(n)` and a reached
/// distance adds at most `n − 1` weights of `u32::MAX` to one, so `d ≤
/// u64::MAX − u32::MAX` and `d + w` cannot wrap for any `u32` weight.
#[inline]
pub(super) fn check_relax_headroom(d: u64) {
    debug_assert!(
        d <= u64::MAX - u64::from(u32::MAX),
        "reached distance {d} leaves no headroom for d + w"
    );
}

/// Pull-request threshold (§III-B, eq. 1): a request must travel along a
/// long edge (`w ≥ Δ`) that could still improve the requester
/// (`w < d(v) − kΔ`).
#[inline]
pub(super) fn check_pull_request(w: u32, dv: u64, k_delta: u64, short_bound: u64) {
    debug_assert!(
        (w as u64) >= short_bound,
        "pull request sent along a short edge: w = {w} < Δ bound {short_bound}"
    );
    debug_assert!(
        dv == INF || (w as u64) < dv - k_delta,
        "pull request violates eq. 1: w = {w} cannot improve d(v) = {dv} (kΔ = {k_delta})"
    );
}

/// Epoch monotonicity: the run loop's bucket indices strictly increase
/// (the settled-bucket collective can never hand back an old bucket).
#[inline]
pub(super) fn check_epoch_monotone(k: u64, k_prev: Option<u64>) {
    debug_assert!(
        k_prev.is_none_or(|kp| k > kp),
        "bucket epochs must strictly increase: k = {k} after k_prev = {k_prev:?}"
    );
}

/// One rank's §III-C `(push, pull, scanned)` by its definition: a scan of
/// every local vertex — settled, reached and unreached alike. This is the
/// reference the maintained estimates of `decide` are held to.
/// Reached vertices count at the window's short bound and unreached ones
/// at `unreached_bound`, the policy's, which their per-run terms were
/// installed at (the two differ only in a hybrid-tail window).
pub(super) fn scan_rank_volumes(
    lg: &LocalGraph,
    st: &RankState,
    window: &EpochWindow,
    unreached_bound: u64,
    ios: bool,
    estimator: PullEstimator,
    w_max: u64,
) -> (u64, u64, u64) {
    let (kd, short_bound) = (window.start_dist, window.short_bound);
    let (mut push, mut pull, mut scanned) = (0u64, 0u64, 0u64);
    for vl in 0..st.n_local() {
        let (b, dv) = (st.bucket_of[vl], st.dist[vl]);
        if window.contains(b) {
            let (_, ws) = lg.row(vl);
            let start = kernels::push_range_start(ios, ws, dv, window.end_dist, short_bound);
            push += (ws.len() - start) as u64;
        } else if b > window.hi {
            scanned += 1;
            let bound = if dv == INF {
                unreached_bound
            } else {
                short_bound
            };
            pull += decide::pull_term(lg, vl, dv, kd, bound, estimator, w_max);
        }
    }
    (push, pull, scanned)
}

/// Maintained §III-C estimate, first pass: the push volume and scan extent
/// `decide::rank_push_bound` assembled from the active set and the bucket
/// counts equal the full scan, and the unreached mass it bounds the pull
/// side with is at most the full pull volume.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(super) fn check_rank_volumes(
    lg: &LocalGraph,
    st: &RankState,
    window: &EpochWindow,
    unreached_bound: u64,
    ios: bool,
    estimator: PullEstimator,
    w_max: u64,
    (push, pull_bound, scanned): (u64, u64, u64),
) {
    debug_assert!(
        {
            let (want_push, want_pull, want_scanned) =
                scan_rank_volumes(lg, st, window, unreached_bound, ios, estimator, w_max);
            (push, scanned) == (want_push, want_scanned) && pull_bound <= want_pull
        },
        "maintained §III-C bound (push {push}, unreached mass {pull_bound}, scanned {scanned}) \
         drifted from the full scan on rank {} (window {window:?})",
        st.rank
    );
}

/// Maintained §III-C estimate, second pass: the pull volume
/// `decide::rank_pull` assembled from the unreached total and the bucket
/// members equals the full scan.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(super) fn check_rank_pull(
    lg: &LocalGraph,
    st: &RankState,
    window: &EpochWindow,
    unreached_bound: u64,
    ios: bool,
    estimator: PullEstimator,
    w_max: u64,
    pull: u64,
) {
    debug_assert_eq!(
        pull,
        scan_rank_volumes(lg, st, window, unreached_bound, ios, estimator, w_max).1,
        "maintained §III-C pull volume drifted from the full scan on rank {} (window {window:?})",
        st.rank
    );
}
