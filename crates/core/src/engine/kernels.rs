//! Rank-local bodies of the relaxation phases.
//!
//! The driver calls these once per owned rank. Every kernel reads and
//! writes exactly one rank's [`RankState`] and hands each relaxation it
//! generates to a [`RelaxSink`] — the rank's [`Outbox`] lanes, or with
//! coalescing on a [`Fold`] into one [`MinTable`] per destination — so the
//! relaxation logic exists once and knows nothing about how the proposals
//! travel.
//!
//! The kernels cut edges against an [`EpochWindow`], not a raw bucket:
//! the stepping policy resolves each epoch's window once, and everything
//! the kernels need — the bucket range, the distance bounds, the
//! short/long boundary — rides inside it. Under Δ-stepping the window
//! degenerates to the classic single bucket `k` until the hybrid tail
//! widens it, so these are the same phases the paper describes. Only the
//! receive side (bucket placement of improved vertices) needs Δ itself.
//!
//! Every target a kernel proposes to is a rank address ([`Addr`]): the
//! owner rank and the slot there are one shift and one mask, resolved for
//! every edge when the graph was built.
//!
//! Thread-load accounting (`loads.charge` / `charge_recv`) lives inside
//! the kernels too — it is part of the paper's per-phase work definition,
//! not a transport concern — but only a recorder reads it, so it runs only
//! when one listens: a kernel given `meter = None` skips it, together with
//! the short/long split of its relaxation count and the receive-side
//! edge classification.

use std::ops::Range;

use sssp_comm::exchange::{MinTable, Outbox};
use sssp_comm::Rank;
use sssp_dist::{Addr, LocalGraph};

use crate::config::DeltaParam;
use crate::policy::EpochWindow;
use crate::state::{RankState, INF};

use super::{invariants, RelaxMsg, ReqMsg};

/// Where a relax kernel puts the proposal `d(target) ← min(d(target), nd)`
/// addressed to rank `dst`.
pub(super) trait RelaxSink {
    fn propose(&mut self, dst: Rank, target: u32, nd: u64);
}

/// The lane path: every proposal becomes one record in `dst`'s lane.
impl RelaxSink for Outbox<RelaxMsg> {
    #[inline]
    fn propose(&mut self, dst: Rank, target: u32, nd: u64) {
        self.send(dst, RelaxMsg { target, nd });
    }
}

/// The coalescing path: proposals fold straight into the table of their
/// destination rank (indexed by `dst`, with no test for the local lane),
/// so a dominated proposal is never materialised. [`Fold::emit`] then
/// turns each table into its lane.
pub(super) struct Fold<'a>(pub(super) &'a mut [MinTable]);

impl RelaxSink for Fold<'_> {
    #[inline]
    fn propose(&mut self, dst: Rank, target: u32, nd: u64) {
        self.0[dst].fold(target, nd);
    }
}

impl Fold<'_> {
    /// Emit every table into the lane of the same destination, in ascending
    /// target order — the lanes the sort-and-dedup of the folded proposals
    /// would leave. Returns the proposals coalesced away.
    pub(super) fn emit(self, out: &mut Outbox<RelaxMsg>) -> u64 {
        let relax = |target, nd| RelaxMsg { target, nd };
        let lanes = self.0.iter_mut().zip(&mut out.out);
        lanes.map(|(table, lane)| table.emit(lane, relax)).sum()
    }
}

/// Row index where the long-phase push range of `u` starts: with IOS the
/// suffix of edges that could not have been relaxed as inner shorts
/// (`w > end_dist − d(u)`), otherwise the long edges (`w ≥ short_bound`).
#[inline]
pub(super) fn push_range_start(
    ios: bool,
    ws: &[u32],
    du: u64,
    end_dist: u64,
    short_bound: u64,
) -> usize {
    if ios {
        let bound = (end_dist - du).min(short_bound.saturating_sub(1));
        ws.partition_point(|&w| (w as u64) <= bound)
    } else {
        ws.partition_point(|&w| (w as u64) < short_bound)
    }
}

/// Eq. 1's weight bound for an unsettled vertex at distance `dv` in an epoch
/// whose window starts at distance `kd`: a pull can only improve `v` along
/// an edge with `w < d(v) − kd`; anything can while `v` is unreached.
#[inline]
pub(super) fn pull_threshold(dv: u64, kd: u64) -> u64 {
    // Bound: an unsettled v sits in a bucket above `window.hi`, so d(v) >
    // `start_dist` = kd and `dv − kd` cannot wrap; the subtraction still
    // saturates so that a broken caller yields an empty range, not a wrap.
    debug_assert!(
        dv >= kd,
        "unsettled d(v) = {dv} below the window start {kd}"
    );
    if dv == INF {
        u64::MAX
    } else {
        dv.saturating_sub(kd)
    }
}

/// Eq. 1 (§III-B), the one definition: the slice of `v`'s weight-sorted row
/// a pull request may travel along — long edges (`w ≥ short_bound`) that
/// could still improve `v` (`w < d(v) − kd`, with `kd` the window's start
/// distance; unbounded while `v` is unreached). Empty when no edge
/// qualifies.
#[inline]
pub(super) fn pull_range(ws: &[u32], dv: u64, kd: u64, short_bound: u64) -> Range<usize> {
    let lo = ws.partition_point(|&w| (w as u64) < short_bound);
    if dv == INF {
        // The threshold is unbounded: every `u32` weight lies below it.
        return lo..ws.len();
    }
    let hi = ws.partition_point(|&w| (w as u64) < pull_threshold(dv, kd));
    lo..hi.max(lo)
}

/// The shared body of the push-style send kernels: every active vertex `u`,
/// in ascending local index, relaxes the slice `range(d(u), weights)` of
/// its weight-sorted row. Returns the relaxations produced. Metered
/// (`meter = Some(π)`), the work is also charged to `u`'s thread (spread
/// over the rank's threads when `u` is heavy, degree > π) and the count is
/// split at the short/long boundary, `(w < short_bound, w ≥ short_bound)`;
/// unmetered, the whole count is reported as `(0, relaxations)`.
fn relax_active_rows(
    lg: &LocalGraph,
    addr: Addr,
    st: &mut RankState,
    short_bound: u64,
    meter: Option<u64>,
    out: &mut impl RelaxSink,
    range: impl Fn(u64, &[u32]) -> Range<usize>,
) -> (u64, u64) {
    let (mut short, mut long) = (0u64, 0u64);
    for u in st.active.iter() {
        let ul = u as usize;
        let du = st.dist[ul];
        let (ts, ws) = lg.row(ul);
        let edges = range(du, ws);
        for (&t, &w) in ts[edges.clone()].iter().zip(&ws[edges.clone()]) {
            invariants::check_relax_headroom(du);
            out.propose(addr.owner(t), addr.local(t), du + u64::from(w));
        }
        let Some(pi) = meter else {
            long += edges.len() as u64;
            continue;
        };
        let shorts = ws[edges.clone()].partition_point(|&w| (w as u64) < short_bound);
        short += shorts as u64;
        long += (edges.len() - shorts) as u64;
        let heavy = (lg.degree(ul) as u64) > pi;
        st.loads.charge(ul, edges.len() as u64, heavy);
    }
    (short, long)
}

/// One rank's send side of a short phase (§II / §III-A): relax the (inner)
/// short edges of the active vertices. Returns the number of relaxations
/// produced.
pub(super) fn short_send(
    lg: &LocalGraph,
    addr: Addr,
    st: &mut RankState,
    window: &EpochWindow,
    ios: bool,
    meter: Option<u64>,
    out: &mut impl RelaxSink,
) -> u64 {
    let (short_bound, end_dist) = (window.short_bound, window.end_dist);
    debug_assert!(st
        .active
        .iter()
        .all(|u| window.contains(st.bucket_of[u as usize])));
    let inner_shorts = |du: u64, ws: &[u32]| {
        debug_assert!(du <= end_dist);
        // The complement of the long phase's push range: with IOS the
        // inner short edges only — d(u) + w must stay inside the window
        // (and the edge must be short). Rows are weight-sorted, so the
        // prefix's last edge is the binding case of the invariant.
        let hi = push_range_start(ios, ws, du, end_dist, short_bound);
        if let Some(&w) = ws[..hi].last() {
            invariants::check_ios_inner_edge(ios, w, du, short_bound, end_dist);
        }
        0..hi
    };
    let (short, long) = relax_active_rows(lg, addr, st, short_bound, meter, out, inner_shorts);
    short + long
}

/// One rank's receive side of a relax superstep: apply every delivered
/// proposal as a min-reduction. Inboxes arrive as concatenated
/// target-sorted runs (one per sender lane), so a repeated target with a
/// non-decreasing distance cannot improve — the min-merge skips the relax
/// call outright. Observationally identical to relaxing every message.
/// `metered` charges each message to its target's thread.
pub(super) fn apply_relax(
    st: &mut RankState,
    delta: &DeltaParam,
    msgs: &[RelaxMsg],
    metered: bool,
) {
    let mut prev: Option<(u32, u64)> = None;
    for &m in msgs {
        if metered {
            st.charge_recv(m.target);
        }
        if let Some((pt, pn)) = prev {
            if pt == m.target && m.nd >= pn {
                continue;
            }
        }
        st.relax(m.target, m.nd, delta);
        prev = Some((m.target, m.nd));
    }
}

/// Receive side of a long push phase with the §III-B / Fig 7 receiver-side
/// classification: each delivered edge is self, backward or forward,
/// judged against the target's bucket *before* applying. Returns
/// `(self, backward, forward)` counts. Only a recorder reads them (and the
/// receive charges), so unmetered this only applies, returning zeros.
pub(super) fn classify_apply_relax(
    st: &mut RankState,
    window: &EpochWindow,
    delta: &DeltaParam,
    msgs: &[RelaxMsg],
    metered: bool,
) -> (u64, u64, u64) {
    if !metered {
        for &m in msgs {
            st.relax(m.target, m.nd, delta);
        }
        return (0, 0, 0);
    }
    let (mut se, mut be, mut fe) = (0u64, 0u64, 0u64);
    for &m in msgs {
        let b = st.bucket_of[m.target as usize];
        if window.contains(b) {
            se += 1;
        } else if b < window.lo {
            be += 1;
        } else {
            fe += 1;
        }
        st.charge_recv(m.target);
        st.relax(m.target, m.nd, delta);
    }
    (se, be, fe)
}

/// One rank's send side of a push-mode long phase (§III-B): every vertex
/// settled in the current window — the active set the driver collected
/// after the short fixpoint — relaxes its long (and, under IOS,
/// outer-short) edges outward. Returns `(outer_short, long)` relaxation
/// counts (see [`relax_active_rows`] for the unmetered split).
pub(super) fn long_push_send(
    lg: &LocalGraph,
    addr: Addr,
    st: &mut RankState,
    window: &EpochWindow,
    ios: bool,
    meter: Option<u64>,
    out: &mut impl RelaxSink,
) -> (u64, u64) {
    let (short_bound, end_dist) = (window.short_bound, window.end_dist);
    relax_active_rows(lg, addr, st, short_bound, meter, out, |du, ws| {
        push_range_start(ios, ws, du, end_dist, short_bound)..ws.len()
    })
}

/// One rank's send side of a pull phase's IOS sub-step 0: the settled
/// window's outer short edges are not covered by the pull protocol
/// (requests target long edges), so push them directly, from the active
/// set the driver collected after the short fixpoint. Returns the number
/// of outer-short relaxations produced.
pub(super) fn outer_short_send(
    lg: &LocalGraph,
    addr: Addr,
    st: &mut RankState,
    window: &EpochWindow,
    meter: Option<u64>,
    out: &mut impl RelaxSink,
) -> u64 {
    let (short_bound, end_dist) = (window.short_bound, window.end_dist);
    let outer_shorts = |du, ws: &[u32]| {
        let long_start = ws.partition_point(|&w| (w as u64) < short_bound);
        push_range_start(true, ws, du, end_dist, short_bound)..long_start
    };
    // Every edge of the range is short: the count needs no split.
    let (short, long) = relax_active_rows(lg, addr, st, short_bound, meter, out, outer_shorts);
    short + long
}

/// One rank's send side of a pull phase's request sub-step (§III-B):
/// every unsettled vertex v asks along each long edge that could still
/// improve it, `w(e) < d(v) − start_dist` (eq. 1, with the window's start
/// distance as the `kΔ` base). Returns `(requests, vertices_scanned)`.
pub(super) fn pull_request_send(
    lg: &LocalGraph,
    addr: Addr,
    st: &mut RankState,
    window: &EpochWindow,
    meter: Option<u64>,
    out: &mut Outbox<RelaxMsg>,
) -> (u64, u64) {
    let short_bound = window.short_bound;
    let kd = window.start_dist;
    let mut reqs = 0u64;
    let mut scanned = 0u64;
    for vl in 0..st.n_local() {
        if st.bucket_of[vl] <= window.hi {
            continue;
        }
        scanned += 1;
        let dv = st.dist[vl];
        let (ts, ws) = lg.row(vl);
        let edges = pull_range(ws, dv, kd, short_bound);
        if edges.is_empty() {
            continue;
        }
        let origin = addr.encode(st.rank, vl);
        for (&u, &w) in ts[edges.clone()].iter().zip(&ws[edges.clone()]) {
            invariants::check_pull_request(w, dv, kd, short_bound);
            let req = ReqMsg {
                u_local: addr.local(u),
                origin,
                w,
            };
            out.send(addr.owner(u), req.to_wire());
        }
        if let Some(pi) = meter {
            let heavy = (lg.degree(vl) as u64) > pi;
            st.loads.charge(vl, edges.len() as u64, heavy);
        }
        reqs += edges.len() as u64;
    }
    (reqs, scanned)
}

/// One rank's response side of a pull phase (§III-B): only sources settled
/// in the current window answer; everything else is the redundancy being
/// pruned away, and each answer goes straight back to the requester's
/// rank address. `metered` charges each request to its source's thread.
/// Returns the number of responses produced.
pub(super) fn pull_respond(
    addr: Addr,
    st: &mut RankState,
    window: &EpochWindow,
    reqs: &[RelaxMsg],
    metered: bool,
    out: &mut impl RelaxSink,
) -> u64 {
    let mut responses = 0u64;
    for r in reqs.iter().copied().map(ReqMsg::from_wire) {
        if metered {
            st.charge_recv(r.u_local);
        }
        if window.contains(st.bucket_of[r.u_local as usize]) {
            let du = st.dist[r.u_local as usize];
            invariants::check_relax_headroom(du);
            out.propose(addr.owner(r.origin), addr.local(r.origin), du + r.w as u64);
            responses += 1;
        }
    }
    responses
}
