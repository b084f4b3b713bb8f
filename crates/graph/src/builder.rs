//! Edge list → CSR construction.
//!
//! Follows the Graph 500 reference kernel-1 conventions: the input edge list
//! may contain self-loops and duplicate edges; self-loops are dropped
//! (they can never improve a shortest path with non-negative weights) and
//! duplicates are either kept (the default, matching the benchmark) or
//! deduplicated keeping the minimum weight.

use std::ops::Range;

use rayon::prelude::*;

use crate::{Csr, Edge, EdgeList, VertexId, Weight};

/// Configurable CSR builder.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    drop_self_loops: bool,
    dedup_min_weight: bool,
}

impl Default for CsrBuilder {
    fn default() -> Self {
        CsrBuilder {
            drop_self_loops: true,
            dedup_min_weight: false,
        }
    }
}

impl CsrBuilder {
    /// Builder with default options (rows weight-sorted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep self-loops in the CSR (they are dropped by default).
    pub fn keep_self_loops(mut self) -> Self {
        self.drop_self_loops = false;
        self
    }

    /// Collapse parallel edges, keeping the minimum weight per vertex pair.
    pub fn dedup_min_weight(mut self) -> Self {
        self.dedup_min_weight = true;
        self
    }

    /// Build an undirected CSR: every retained edge `{u, v}` contributes a
    /// slot to both rows, and a kept self-loop two slots to its one row.
    /// Rows come out sorted by `(weight, target)`; equal keys are equal
    /// slots, so the bytes are the same for every worker count.
    ///
    /// The build reads `el` in place (`dedup_min_weight` reads its
    /// canonicalised, deduplicated copy instead) in three parallel passes:
    ///
    /// 1. **Count.** The edges are cut into one contiguous chunk per
    ///    worker, and each worker counts row degrees into its own `u32`
    ///    array. The offsets are the prefix sum of those counts; each
    ///    chunk's slot count per bin of 4 096 rows (`u >> 12`) comes from
    ///    the same array.
    /// 2. **Bin.** Each worker writes its chunk's two directed slots per
    ///    edge (target, weight and the `u16` row within the bin) into its
    ///    own segment of the source's bin. The segments are disjoint
    ///    stretches of the output arrays, bin-major then worker-minor.
    /// 3. **Place and sort.** Runs of bins with about equal slot counts go
    ///    to the workers. Each bin is counting-scattered into row order as
    ///    packed `(w << 32) | t` keys through its 4 096 cache-resident row
    ///    cursors; each row's keys are then sorted and written back.
    ///
    /// Besides the output, the build holds 2 B per slot (the row-within-bin
    /// array), 4 B per row per worker (the counts, freed before the output
    /// is allocated) and one bin's keys per worker, all allocated on the
    /// calling thread. Inputs of fewer than 16 384 edges per worker use fewer
    /// workers, down to one, which runs inline.
    pub fn build(&self, el: &EdgeList) -> Csr {
        let deduped;
        let edges: &[Edge] = if self.dedup_min_weight {
            deduped = self.dedup(&el.edges);
            &deduped
        } else {
            &el.edges
        };
        build_binned(
            el.n,
            edges,
            self.drop_self_loops,
            rayon::current_num_threads(),
        )
    }

    /// The retained edges canonicalised to `u <= v`, keeping the
    /// minimum-weight representative of each vertex pair.
    fn dedup(&self, edges: &[Edge]) -> Vec<Edge> {
        let mut out: Vec<Edge> = edges
            .iter()
            .filter(|e| !(self.drop_self_loops && e.u == e.v))
            .map(|e| Edge::new(e.u.min(e.v), e.u.max(e.v), e.w))
            .collect();
        out.sort_unstable_by_key(|e| (e.u, e.v, e.w));
        out.dedup_by_key(|e| (e.u, e.v));
        out
    }
}

/// log2 of the rows per bin: a bin's row cursors stay cache-resident while
/// its slots are placed, and a row's index within its bin fits a `u16`.
const BIN_SHIFT: u32 = 12;
/// Rows per bin.
const BIN_ROWS: usize = 1 << BIN_SHIFT;
/// Fewest edges worth a worker of their own: smaller inputs use fewer
/// workers, down to one, which the shim runs inline.
const MIN_CHUNK: usize = 1 << 14;

/// One chunk's stretch of one bin in the binning pass, filled front to back.
struct BinSegment<'a> {
    targets: &'a mut [VertexId],
    weights: &'a mut [Weight],
    rows: &'a mut [u16],
    filled: usize,
}

/// The three passes of [`CsrBuilder::build`] over `edges`, on at most
/// `threads` workers.
fn build_binned(n: usize, edges: &[Edge], drop_self_loops: bool, threads: usize) -> Csr {
    let kept = move |e: &&Edge| !(drop_self_loops && e.u == e.v);
    let workers = threads.min(edges.len() / MIN_CHUNK).max(1);
    // A chunk's per-row count is at most twice its edge count, which must
    // fit the `u32` counts.
    let chunk_len = edges
        .len()
        .div_ceil(workers)
        .clamp(1, u32::MAX as usize / 2);
    let chunks = edges.len().div_ceil(chunk_len);
    let bins = n.div_ceil(BIN_ROWS);

    // Count: each chunk's row degrees, then its slots per bin.
    let mut counts = vec![0u32; chunks * n];
    let mut bin_slots = vec![0usize; chunks * bins];
    // (`max(1)` only keeps the chunk widths legal when n = 0.)
    edges
        .chunks(chunk_len)
        .zip(counts.chunks_mut(n.max(1)))
        .zip(bin_slots.chunks_mut(bins.max(1)))
        .collect::<Vec<_>>()
        .into_par_iter()
        .for_each(|((chunk, counts), bin_slots)| {
            for e in chunk.iter().filter(kept) {
                counts[e.u as usize] += 1;
                counts[e.v as usize] += 1;
            }
            for (slots, rows) in bin_slots.iter_mut().zip(counts.chunks(BIN_ROWS)) {
                *slots = rows.iter().map(|&c| c as usize).sum();
            }
        });
    let mut offsets = vec![0usize; n + 1];
    for counts in counts.chunks(n.max(1)) {
        for (o, &c) in offsets[1..].iter_mut().zip(counts) {
            *o += c as usize;
        }
    }
    drop(counts);
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let total = offsets[n];
    let bin_bounds: Vec<usize> = (0..=bins)
        .map(|b| offsets[(b << BIN_SHIFT).min(n)])
        .collect();

    // Bin: every chunk writes its slots into its own segment of each bin.
    let mut targets = vec![0 as VertexId; total];
    let mut weights = vec![0 as Weight; total];
    let mut rows = vec![0u16; total];
    {
        let mut segments: Vec<Vec<BinSegment>> =
            (0..chunks).map(|_| Vec::with_capacity(bins)).collect();
        let (mut t, mut w, mut r) = (&mut targets[..], &mut weights[..], &mut rows[..]);
        for b in 0..bins {
            for (c, segments) in segments.iter_mut().enumerate() {
                let len = bin_slots[c * bins + b];
                let (t_seg, t_rest) = std::mem::take(&mut t).split_at_mut(len);
                let (w_seg, w_rest) = std::mem::take(&mut w).split_at_mut(len);
                let (r_seg, r_rest) = std::mem::take(&mut r).split_at_mut(len);
                (t, w, r) = (t_rest, w_rest, r_rest);
                segments.push(BinSegment {
                    targets: t_seg,
                    weights: w_seg,
                    rows: r_seg,
                    filled: 0,
                });
            }
        }
        edges
            .chunks(chunk_len)
            .zip(segments.iter_mut())
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|(chunk, segments)| {
                for e in chunk.iter().filter(kept) {
                    for (from, to) in [(e.u, e.v), (e.v, e.u)] {
                        let s = &mut segments[(from >> BIN_SHIFT) as usize];
                        s.targets[s.filled] = to;
                        s.weights[s.filled] = e.w;
                        s.rows[s.filled] = (from as usize % BIN_ROWS) as u16;
                        s.filled += 1;
                    }
                }
            });
    }

    // Place and sort: runs of whole bins, each ending at the first bin
    // boundary that holds its share of the slots. A run's key scratch fits
    // its largest bin.
    let per_run = total.div_ceil(workers.min(bins).max(1)).max(1);
    let mut runs = Vec::new();
    let mut first = 0;
    while first < bins {
        let goal = bin_bounds[first] + per_run;
        let last = first + 1 + bin_bounds[first + 1..bins].partition_point(|&o| o < goal);
        runs.push(first..last);
        first = last;
    }
    let largest_bin = |run: &Range<usize>| {
        let bounds = &bin_bounds[run.start..=run.end];
        bounds.windows(2).map(|b| b[1] - b[0]).max().unwrap_or(0)
    };
    let mut keys = vec![0u64; runs.iter().map(largest_bin).sum()];
    let (mut t, mut w, mut r, mut k) =
        (&mut targets[..], &mut weights[..], &rows[..], &mut keys[..]);
    let work: Vec<_> = runs
        .iter()
        .map(|run| {
            let len = bin_bounds[run.end] - bin_bounds[run.start];
            let (t_run, t_rest) = std::mem::take(&mut t).split_at_mut(len);
            let (w_run, w_rest) = std::mem::take(&mut w).split_at_mut(len);
            let (r_run, r_rest) = r.split_at(len);
            let (k_run, k_rest) = std::mem::take(&mut k).split_at_mut(largest_bin(run));
            (t, w, r, k) = (t_rest, w_rest, r_rest, k_rest);
            let rows = run.start << BIN_SHIFT..=(run.end << BIN_SHIFT).min(n);
            (&offsets[rows], t_run, w_run, r_run, k_run)
        })
        .collect();
    work.into_par_iter()
        .for_each(|(offsets, targets, weights, rows, keys)| {
            let run_rows = offsets.len() - 1;
            let mut cursor = [0usize; BIN_ROWS];
            for lo in (0..run_rows).step_by(BIN_ROWS) {
                let bin = &offsets[lo..=(lo + BIN_ROWS).min(run_rows)];
                let (start, end) = (bin[0] - offsets[0], bin[bin.len() - 1] - offsets[0]);
                let keys = &mut keys[..end - start];
                for (c, &o) in cursor.iter_mut().zip(bin) {
                    *c = o - bin[0];
                }
                for ((&t, &w), &r) in targets[start..end]
                    .iter()
                    .zip(&weights[start..end])
                    .zip(&rows[start..end])
                {
                    let c = &mut cursor[usize::from(r)];
                    keys[*c] = (u64::from(w) << 32) | u64::from(t);
                    *c += 1;
                }
                for row in bin.windows(2) {
                    keys[row[0] - bin[0]..row[1] - bin[0]].sort_unstable();
                }
                for ((key, t), w) in keys
                    .iter()
                    .zip(&mut targets[start..end])
                    .zip(&mut weights[start..end])
                {
                    *t = *key as VertexId;
                    *w = (*key >> 32) as Weight;
                }
            }
        });
    Csr::from_parts(offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_loops_dropped_by_default() {
        let mut el = EdgeList::new(2);
        el.push(0, 0, 9);
        el.push(0, 1, 1);
        let g = CsrBuilder::new().build(&el);
        assert_eq!(g.num_undirected_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loops_kept_on_request() {
        let mut el = EdgeList::new(1);
        el.push(0, 0, 4);
        let g = CsrBuilder::new().keep_self_loops().build(&el);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn duplicates_kept_by_default() {
        let mut el = EdgeList::new(2);
        el.push(0, 1, 3);
        el.push(0, 1, 8);
        let g = CsrBuilder::new().build(&el);
        assert_eq!(g.num_undirected_edges(), 2);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let mut el = EdgeList::new(2);
        el.push(0, 1, 8);
        el.push(1, 0, 3);
        el.push(0, 1, 5);
        let g = CsrBuilder::new().dedup_min_weight().build(&el);
        assert_eq!(g.num_undirected_edges(), 1);
        assert_eq!(g.row(0).next(), Some((1, 3)));
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let mut el = EdgeList::new(5);
        el.push(0, 1, 1);
        let g = CsrBuilder::new().build(&el);
        assert_eq!(g.num_vertices(), 5);
        for v in 2..5 {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn degrees_sum_to_directed_edge_count() {
        let mut el = EdgeList::new(4);
        el.push(0, 1, 1);
        el.push(1, 2, 2);
        el.push(2, 3, 3);
        el.push(3, 0, 4);
        el.push(0, 2, 5);
        let g = CsrBuilder::new().build(&el);
        let degsum: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(degsum, g.num_directed_edges());
        assert_eq!(degsum, 10);
    }

    /// Every directed slot as `(row, weight, target)`, sorted: the CSR's
    /// rows in order, built without the passes under test.
    fn reference(el: &EdgeList, drop_self_loops: bool) -> Vec<(u32, u32, u32)> {
        let mut slots: Vec<_> = el
            .edges
            .iter()
            .filter(|e| !(drop_self_loops && e.u == e.v))
            .flat_map(|e| [(e.u, e.w, e.v), (e.v, e.w, e.u)])
            .collect();
        slots.sort_unstable();
        slots
    }

    fn slots(g: &Csr) -> Vec<(u32, u32, u32)> {
        g.vertices()
            .flat_map(|v| g.row(v).map(move |(t, w)| (v, w, t)))
            .collect()
    }

    /// `el` builds the reference rows in both self-loop modes, on 1 to 4
    /// workers, always into the same bytes.
    fn assert_matches_reference(el: &EdgeList) {
        for drop_self_loops in [true, false] {
            let expect = reference(el, drop_self_loops);
            let one = build_binned(el.n, &el.edges, drop_self_loops, 1);
            assert_eq!(one.num_vertices(), el.n);
            assert_eq!(slots(&one), expect);
            for threads in 2..=4 {
                assert_eq!(build_binned(el.n, &el.edges, drop_self_loops, threads), one);
            }
        }
    }

    #[test]
    fn empty_edge_list_has_empty_rows() {
        let g = CsrBuilder::new().build(&EdgeList::new(5));
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_directed_edges(), 0);
        assert!(g.vertices().all(|v| g.degree(v) == 0));
    }

    #[test]
    fn zero_vertices_build_an_empty_csr() {
        for builder in [CsrBuilder::new(), CsrBuilder::new().dedup_min_weight()] {
            let g = builder.build(&EdgeList::new(0));
            assert_eq!(g.num_vertices(), 0);
            assert_eq!(g.num_directed_edges(), 0);
        }
    }

    #[test]
    fn only_self_loops() {
        let mut el = EdgeList::new(3);
        el.push(1, 1, 7);
        el.push(0, 0, 2);
        el.push(1, 1, 3);
        let dropped = CsrBuilder::new().build(&el);
        assert_eq!(dropped.num_vertices(), 3);
        assert_eq!(dropped.num_directed_edges(), 0);
        let kept = CsrBuilder::new().keep_self_loops().build(&el);
        assert_eq!(
            slots(&kept),
            [
                (0, 2, 0),
                (0, 2, 0),
                (1, 3, 1),
                (1, 3, 1),
                (1, 7, 1),
                (1, 7, 1)
            ]
        );
        assert_matches_reference(&el);
    }

    #[test]
    fn rows_on_both_sides_of_a_bin_boundary() {
        for n in [BIN_ROWS, BIN_ROWS + 1] {
            let last = n as VertexId - 1;
            let mut el = EdgeList::new(n);
            el.push(0, last, 5);
            el.push(last, 4095, 1);
            el.push(4095, 0, 5);
            el.push(last, last, 9);
            el.push(0, last, 5);
            assert_matches_reference(&el);
        }
    }

    #[test]
    fn a_hub_with_most_slots_unbalances_the_runs_not_the_bytes() {
        // Three bins and a partial fourth. The hub sits in the second and,
        // with its self-loops kept, owns over half of all slots, so its bin
        // alone outweighs a run's share on any worker count.
        let n = 3 * BIN_ROWS + 7;
        let hub = BIN_ROWS as VertexId + 11;
        let mut el = EdgeList::new(n);
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as u32
        };
        for i in 0..4 * MIN_CHUNK {
            let (v, w) = (draw(n), 1 + draw(8));
            match i % 10 {
                0 => el.push(v, draw(n), w),
                1 | 2 => el.push(hub, hub, w),
                _ => el.push(hub, v, w),
            }
        }
        let g = CsrBuilder::new().keep_self_loops().build(&el);
        assert!(2 * g.degree(hub) > g.num_directed_edges());
        assert_matches_reference(&el);
    }
}
