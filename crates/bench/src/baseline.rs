//! Machine-readable perf-baseline records (`BENCH_sssp.json`).
//!
//! `perf_baseline` measures the engine on both transports — lockstep
//! (the `pooled` record, named for its pooled superstep buffers) and
//! real threads — and records wall time, allocation counts, message
//! traffic and simulated time here. The JSON is hand-rolled: the document is a
//! shallow object tree, so rendering and extraction are a few lines
//! each and the harness stays dependency-free.
//!
//! The document holds one block per measured R-MAT scale, keyed
//! `"scale_N"`, plus an optional `"serving"` block recorded by
//! `serve_bench` (concurrent multi-root query throughput over a resident
//! graph). Each binary regenerates only its own block and preserves the
//! others verbatim ([`upsert_scale_block`], [`upsert_serving_block`]), so
//! the per-scale baselines and the serving baseline coexist in one
//! committed file.
//!
//! GTEPS conventions: every GTEPS figure in a block divides the same
//! traversed-edge count (`gteps_edges`, the undirected input edge count)
//! by a time. `gteps` on the simulated records uses the cost-model clock;
//! `gteps_wall` (and the threaded backend's `gteps`) use measured wall
//! time. Compare wall to wall and simulated to simulated — the two clocks
//! measure different machines.

/// Metrics of the measured lockstep (simulated-machine) runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfRecord {
    /// Wall-clock milliseconds over all measured roots.
    pub wall_ms: f64,
    /// Heap allocations performed during the measured runs.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Data-exchange supersteps accumulated over the measured runs.
    pub supersteps: u64,
    /// Messages delivered over the measured runs (post-coalescing).
    pub msgs: u64,
    /// The subset of `msgs` that crossed rank boundaries — the wire
    /// traffic the drift gate watches.
    pub remote_msgs: u64,
    /// Messages removed by sender-side coalescing before the exchanges.
    pub coalesced_msgs: u64,
    /// Mean simulated seconds per run (the cost-model clock).
    pub simulated_s: f64,
    /// Mean simulated GTEPS per run: the block's `gteps_edges` denominator
    /// over `simulated_s`. Comparable only with other simulated figures.
    pub gteps: f64,
    /// Mean wall-clock GTEPS per run: the same `gteps_edges` denominator
    /// over measured wall time per root. This is the figure comparable
    /// with the threaded backend's (wall-clock) `gteps`.
    pub gteps_wall: f64,
}

impl PerfRecord {
    /// Allocations per superstep — the pooling work's headline metric.
    pub fn allocs_per_superstep(&self) -> f64 {
        if self.supersteps == 0 {
            0.0
        } else {
            self.allocs as f64 / self.supersteps as f64
        }
    }

    /// Fraction of would-be messages the coalescer removed — the
    /// coalescing work's headline metric.
    pub fn coalesced_fraction(&self) -> f64 {
        let would_be = self.msgs + self.coalesced_msgs;
        if would_be == 0 {
            0.0
        } else {
            self.coalesced_msgs as f64 / would_be as f64
        }
    }

    /// Render as a JSON object literal.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"wall_ms\": {:.3}, \"allocs\": {}, \"alloc_bytes\": {}, ",
                "\"supersteps\": {}, \"allocs_per_superstep\": {:.3}, ",
                "\"msgs\": {}, \"remote_msgs\": {}, \"coalesced_msgs\": {}, ",
                "\"coalesced_fraction\": {:.4}, ",
                "\"simulated_s\": {:.6}, \"gteps\": {:.6}, ",
                "\"gteps_wall\": {:.6}}}"
            ),
            self.wall_ms,
            self.allocs,
            self.alloc_bytes,
            self.supersteps,
            self.allocs_per_superstep(),
            self.msgs,
            self.remote_msgs,
            self.coalesced_msgs,
            self.coalesced_fraction(),
            self.simulated_s,
            self.gteps,
            self.gteps_wall,
        )
    }
}

/// Metrics of the real-thread backend run (one OS thread per rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadedRecord {
    /// Wall-clock milliseconds over all measured roots.
    pub wall_ms: f64,
    /// Wall-clock GTEPS over the measured runs: the block's `gteps_edges`
    /// denominator over measured wall time per root. There is no
    /// cost-model ledger on this backend, so the figure comparable here is
    /// the simulated records' `gteps_wall`, never their simulated `gteps`.
    pub gteps: f64,
    /// Wall-time speedup over the pooled simulated engine on the same
    /// workload (pooled wall_ms / threaded wall_ms).
    pub speedup_vs_pooled: f64,
    /// Relax messages that stayed on the sender's own rank
    /// (post-coalescing; never touch the channels' wire).
    pub relax_local_msgs: u64,
    /// Relax messages that crossed rank boundaries (post-coalescing).
    pub relax_remote_msgs: u64,
    /// Relax messages removed by sender-side coalescing.
    pub coalesced_msgs: u64,
}

impl ThreadedRecord {
    /// All relax messages that entered an exchange, local and remote.
    pub fn relax_msgs_total(&self) -> u64 {
        self.relax_local_msgs + self.relax_remote_msgs
    }

    /// Fraction of would-be relax messages the coalescer removed.
    pub fn coalesced_fraction(&self) -> f64 {
        let would_be = self.relax_msgs_total() + self.coalesced_msgs;
        if would_be == 0 {
            0.0
        } else {
            self.coalesced_msgs as f64 / would_be as f64
        }
    }

    /// Render as a JSON object literal.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"wall_ms\": {:.3}, \"gteps\": {:.6}, ",
                "\"speedup_vs_pooled\": {:.3}, \"relax_local_msgs\": {}, ",
                "\"relax_remote_msgs\": {}, ",
                "\"coalesced_msgs\": {}, \"coalesced_fraction\": {:.4}}}"
            ),
            self.wall_ms,
            self.gteps,
            self.speedup_vs_pooled,
            self.relax_local_msgs,
            self.relax_remote_msgs,
            self.coalesced_msgs,
            self.coalesced_fraction(),
        )
    }
}

/// The sequential anchor: `seq::dijkstra_radix` over the same graph and
/// roots, timed in the same process as the engine records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialRecord {
    /// Wall-clock milliseconds over all measured roots.
    pub wall_ms: f64,
    /// Wall-clock GTEPS over the block's `gteps_edges` denominator.
    pub gteps: f64,
}

impl SequentialRecord {
    /// Render as a JSON object literal.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wall_ms\": {:.3}, \"gteps\": {:.6}}}",
            self.wall_ms, self.gteps
        )
    }
}

/// Quartiles of a ratio measured once per round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioSpread {
    /// Lower quartile — what a fresh run is gated on.
    pub q1: f64,
    /// Median — the headline figure.
    pub median: f64,
    /// Upper quartile — what the committed baseline is gated at.
    pub q3: f64,
}

/// The unified-telemetry block: a simulated and a threaded trace of the
/// same workload compared bucket-by-bucket, plus the threaded trace's
/// headline counters (which the `--check` gate watches for drift).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryRecord {
    /// 1 when the simulated and threaded traces diffed clean, else 0
    /// (numeric so `extract_number` reads it like every other field).
    pub backends_agree: u8,
    /// Buckets processed before the hybrid tail (per traced run).
    pub buckets: u64,
    /// Data-exchange supersteps of the traced run.
    pub supersteps: u64,
    /// Rank-local messages of the traced run (relax + requests).
    pub local_msgs: u64,
    /// Wire messages of the traced run (relax + requests).
    pub remote_msgs: u64,
    /// Messages removed by sender-side coalescing in the traced run.
    pub coalesced_msgs: u64,
    /// Wall-clock nanoseconds the threaded trace spent in short-edge
    /// phases. The wall fields track the slowest rank's critical path and
    /// vary with machine load, so the `--check` gate never compares them
    /// against the committed baseline — it only sanity-checks the current
    /// run's numbers against each other ([`TelemetryRecord::wall_problems`]).
    pub wall_short_ns: u64,
    /// Wall-clock nanoseconds in long push phases.
    pub wall_long_push_ns: u64,
    /// Wall-clock nanoseconds in long pull phases.
    pub wall_long_pull_ns: u64,
    /// End-to-end measured wall time of the traced threaded run (timed
    /// around the whole run, unlike the per-phase accumulators above,
    /// which only cover phase bodies). The `--check` gate cross-validates
    /// the phase accumulators against this: their sum may not exceed it,
    /// and neither may be zero on a run that performed supersteps.
    pub wall_measured_ns: u64,
}

impl TelemetryRecord {
    /// Sum of the per-phase wall-clock accumulators (NOT the measured
    /// end-to-end wall time — that is [`TelemetryRecord::wall_measured_ns`];
    /// this sum excludes setup, collectives and inter-phase gaps).
    pub fn wall_total_ns(&self) -> u64 {
        self.wall_short_ns + self.wall_long_push_ns + self.wall_long_pull_ns
    }

    /// Sanity problems in the wall-clock telemetry of *this* run: the
    /// phase-time sum exceeding the measured end-to-end wall time (the
    /// accumulators cover disjoint sub-intervals of the run, so their sum
    /// is bounded by it), or zero wall time on a run that demonstrably
    /// performed supersteps. Empty on healthy telemetry.
    pub fn wall_problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.wall_total_ns() > self.wall_measured_ns {
            problems.push(format!(
                "telemetry wall-clock phase sum {} ns exceeds the measured \
                 run wall time {} ns — the phase accumulators overlap or \
                 the total was not measured around the whole run",
                self.wall_total_ns(),
                self.wall_measured_ns
            ));
        }
        if self.supersteps > 0 {
            if self.wall_total_ns() == 0 {
                problems.push(format!(
                    "telemetry recorded {} supersteps but zero wall-clock \
                     phase time — the threaded recorder dropped its timings",
                    self.supersteps
                ));
            }
            if self.wall_measured_ns == 0 {
                problems.push(format!(
                    "telemetry recorded {} supersteps but zero measured \
                     wall time — the traced run was not timed",
                    self.supersteps
                ));
            }
        }
        problems
    }

    /// Render as a JSON object literal.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"backends_agree\": {}, \"buckets\": {}, ",
                "\"supersteps\": {}, \"local_msgs\": {}, ",
                "\"remote_msgs\": {}, \"coalesced_msgs\": {}, ",
                "\"wall_short_ns\": {}, \"wall_long_push_ns\": {}, ",
                "\"wall_long_pull_ns\": {}, \"wall_measured_ns\": {}}}"
            ),
            self.backends_agree,
            self.buckets,
            self.supersteps,
            self.local_msgs,
            self.remote_msgs,
            self.coalesced_msgs,
            self.wall_short_ns,
            self.wall_long_push_ns,
            self.wall_long_pull_ns,
            self.wall_measured_ns,
        )
    }
}

/// A full baseline document: the workload parameters plus one record per
/// measured engine mode.
#[derive(Debug, Clone)]
pub struct PerfBaseline {
    /// Graph family name (e.g. "RMAT-2").
    pub family: String,
    /// R-MAT scale (log2 of the vertex count).
    pub scale: u32,
    /// Simulated rank count.
    pub ranks: usize,
    /// Logical threads per rank.
    pub threads: usize,
    /// Number of measured roots.
    pub roots: usize,
    /// The traversed-edge denominator shared by every GTEPS figure in this
    /// block: the undirected input edge count of the benchmark graph.
    pub gteps_edges: u64,
    /// Metrics of the lockstep transport (pooled superstep buffers).
    pub pooled: PerfRecord,
    /// Metrics of the real-thread backend on the same workload.
    pub threaded: ThreadedRecord,
    /// The sequential oracle on the same workload.
    pub sequential: SequentialRecord,
    /// Threaded wall time over sequential wall time — the one timing
    /// `--check` gates: the spread over rounds that time both back to back
    /// in this process, not the quotient of the two records' best rounds.
    /// Below 1 the rank threads beat one radix-Dijkstra thread.
    pub threaded_over_seq: RatioSpread,
    /// The unified-telemetry block (simulated vs threaded trace compare).
    pub telemetry: TelemetryRecord,
}

impl PerfBaseline {
    /// Render this scale's block as pretty-enough JSON (an object literal;
    /// the enclosing multi-scale document is assembled by
    /// [`upsert_scale_block`]).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n    \"family\": \"{}\",\n",
                "    \"scale\": {},\n    \"ranks\": {},\n    \"threads\": {},\n",
                "    \"roots\": {},\n    \"gteps_edges\": {},\n",
                "    \"pooled\": {},\n",
                "    \"threaded\": {},\n    \"sequential\": {},\n",
                "    \"threaded_over_seq\": {:.3},\n",
                "    \"threaded_over_seq_q1\": {:.3},\n",
                "    \"threaded_over_seq_q3\": {:.3},\n    \"telemetry\": {}\n  }}"
            ),
            self.family,
            self.scale,
            self.ranks,
            self.threads,
            self.roots,
            self.gteps_edges,
            self.pooled.to_json(),
            self.threaded.to_json(),
            self.sequential.to_json(),
            self.threaded_over_seq.median,
            self.threaded_over_seq.q1,
            self.threaded_over_seq.q3,
            self.telemetry.to_json(),
        )
    }
}

/// Metrics of the query-serving layer under concurrent load, recorded by
/// `serve_bench`: one resident graph, `max_inflight` worker threads, a
/// mixed batch of single-source / multi-seed / point-to-point / repeat
/// queries pushed through the scheduler at once.
#[derive(Debug, Clone)]
pub struct ServingRecord {
    /// Graph family name (e.g. "RMAT-2").
    pub family: String,
    /// R-MAT scale (log2 of the vertex count).
    pub scale: u32,
    /// Rank count of the resident partition.
    pub ranks: usize,
    /// Logical threads per rank.
    pub threads: usize,
    /// Scheduler admission bound (= worker thread count).
    pub max_inflight: usize,
    /// Queries submitted over the measured batch.
    pub queries: usize,
    /// High-water mark of simultaneously running queries. The `--check`
    /// gate requires this to reach `max_inflight` — a serving layer that
    /// serializes its workers is not serving concurrently.
    pub peak_inflight: usize,
    /// 1 when every served distance field was bit-identical to a fresh
    /// one-shot engine run, else 0 (numeric for `extract_number`).
    pub distances_match: u8,
    /// Distance-cache hits over the batch (repeat roots + landmarks).
    pub cache_hits: u64,
    /// Distance-cache misses over the batch.
    pub cache_misses: u64,
    /// Epoch-select rounds of one engine-run point-to-point query.
    pub p2p_epochs: u64,
    /// Epoch-select rounds of the matching full single-source query. The
    /// gate requires `p2p_epochs < full_epochs`: the target cutoff must
    /// actually terminate early.
    pub full_epochs: u64,
    /// Queries that panicked and were absorbed by the worker's
    /// `catch_unwind` (failing only their own ticket). The `--check` gate
    /// requires zero: the clean benchmark batch must not trip the crash
    /// isolation.
    pub panicked: u64,
    /// Queries that missed their deadline and failed with
    /// `QueryError::TimedOut`. The benchmark runs without a deadline, so
    /// the gate requires zero.
    pub timed_out: u64,
    /// Wall-clock milliseconds over the whole measured batch.
    pub wall_ms: f64,
    /// Queries completed per second of batch wall time. Wall-clock
    /// figures vary with machine load, so the `--check` gate never
    /// compares them against the committed baseline — it gates only the
    /// structural fields above.
    pub queries_per_sec: f64,
}

impl ServingRecord {
    /// Gate problems in *this* record: no queries measured, served
    /// distances diverging from the one-shot oracle, a scheduler that
    /// never reached its admission bound, or a point-to-point cutoff
    /// that saved no epochs. Empty on a healthy serving baseline.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.queries == 0 {
            problems.push("serving baseline measured zero queries".to_string());
        }
        if self.distances_match != 1 {
            problems.push(
                "served distances diverged from fresh one-shot engine runs \
                 — resident state leaked across queries"
                    .to_string(),
            );
        }
        if self.peak_inflight < self.max_inflight {
            problems.push(format!(
                "peak inflight {} never reached the admission bound {} — \
                 the scheduler is not serving queries concurrently",
                self.peak_inflight, self.max_inflight
            ));
        }
        if self.p2p_epochs >= self.full_epochs {
            problems.push(format!(
                "point-to-point query ran {} epochs vs {} for the full \
                 field — the target cutoff saved nothing",
                self.p2p_epochs, self.full_epochs
            ));
        }
        if self.panicked != 0 {
            problems.push(format!(
                "{} quer{} panicked during the clean benchmark batch — \
                 crash isolation absorbed them, but a healthy baseline \
                 must not panic at all",
                self.panicked,
                if self.panicked == 1 { "y" } else { "ies" }
            ));
        }
        if self.timed_out != 0 {
            problems.push(format!(
                "{} quer{} timed out in a run with no deadline configured",
                self.timed_out,
                if self.timed_out == 1 { "y" } else { "ies" }
            ));
        }
        problems
    }

    /// Render as pretty-enough JSON (an object literal; the enclosing
    /// document is assembled by [`upsert_serving_block`]).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n    \"family\": \"{}\",\n",
                "    \"scale\": {},\n    \"ranks\": {},\n    \"threads\": {},\n",
                "    \"max_inflight\": {},\n    \"queries\": {},\n",
                "    \"peak_inflight\": {},\n    \"distances_match\": {},\n",
                "    \"cache_hits\": {},\n    \"cache_misses\": {},\n",
                "    \"p2p_epochs\": {},\n    \"full_epochs\": {},\n",
                "    \"panicked\": {},\n    \"timed_out\": {},\n",
                "    \"wall_ms\": {:.3},\n    \"queries_per_sec\": {:.3}\n  }}"
            ),
            self.family,
            self.scale,
            self.ranks,
            self.threads,
            self.max_inflight,
            self.queries,
            self.peak_inflight,
            self.distances_match,
            self.cache_hits,
            self.cache_misses,
            self.p2p_epochs,
            self.full_epochs,
            self.panicked,
            self.timed_out,
            self.wall_ms,
            self.queries_per_sec,
        )
    }
}

/// Extract the number stored at `"key"` inside the object named `object`
/// (pass `""` to search from the top of the document). Returns `None` when
/// the object or key is absent or the value does not parse as a number.
/// On a multi-scale document, slice out one scale's block with
/// [`scale_block`] first — this function finds the *first* matching
/// object name.
pub fn extract_number(json: &str, object: &str, key: &str) -> Option<f64> {
    let start = if object.is_empty() {
        0
    } else {
        json.find(&format!("\"{object}\""))?
    };
    let tail = &json[start..];
    let kpos = tail.find(&format!("\"{key}\""))?;
    let after = &tail[kpos..];
    let colon = after.find(':')?;
    let rest = after[colon + 1..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// All `"scale_N"` blocks of a multi-scale baseline document, as
/// `(scale, raw object text)` pairs in document order. Brace counting is
/// exact for the documents this module renders (no string values contain
/// braces). A legacy single-scale document (no `"scale_N"` keys) yields
/// an empty list.
pub fn extract_scale_blocks(json: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(i) = json[pos..].find("\"scale_") {
        let digits_at = pos + i + "\"scale_".len();
        let digits: String = json[digits_at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        pos = digits_at + digits.len();
        let Ok(scale) = digits.parse::<u32>() else {
            continue;
        };
        let Some(open) = json[pos..].find('{') else {
            break;
        };
        let start = pos + open;
        let mut depth = 0usize;
        let mut end = None;
        for (j, c) in json[start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(start + j + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else {
            break;
        };
        out.push((scale, json[start..end].to_string()));
        pos = end;
    }
    out
}

/// The raw `"scale_N"` block for one scale, if the document has one.
/// `--check` slices the committed baseline with this before extracting
/// gate values, so same-named objects in other scales' blocks cannot
/// shadow the right ones.
pub fn scale_block(json: &str, scale: u32) -> Option<String> {
    extract_scale_blocks(json)
        .into_iter()
        .find(|(s, _)| *s == scale)
        .map(|(_, b)| b)
}

/// The raw `"serving"` block of a baseline document, if it has one.
/// Exact brace counting, same conventions as [`extract_scale_blocks`];
/// scans from the end of the last scale block so same-named keys inside
/// scale blocks (there are none today) can never shadow it.
pub fn serving_block(json: &str) -> Option<String> {
    let after_scales = extract_scale_blocks(json)
        .last()
        .and_then(|(_, b)| json.rfind(b.as_str()).map(|i| i + b.len()))
        .unwrap_or(0);
    let tail = &json[after_scales..];
    let kpos = tail.find("\"serving\"")?;
    let open = after_scales + kpos + tail[kpos..].find('{')?;
    let mut depth = 0usize;
    for (j, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[open..open + j + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Assemble the whole document from its blocks: scale blocks sorted by
/// scale, then the serving block (when present) last.
fn render_document(blocks: &[(u32, String)], serving: Option<&str>) -> String {
    let mut body: Vec<String> = blocks
        .iter()
        .map(|(s, b)| format!("  \"scale_{s}\": {b}"))
        .collect();
    if let Some(sv) = serving {
        body.push(format!("  \"serving\": {sv}"));
    }
    format!(
        "{{\n  \"bench\": \"perf_baseline\",\n{}\n}}\n",
        body.join(",\n")
    )
}

/// Replace (or insert) one scale's block in a baseline document and
/// render the result, blocks sorted by scale. Blocks for other scales
/// and the serving block in `existing` are preserved verbatim; a legacy
/// single-scale document contributes nothing and is superseded.
pub fn upsert_scale_block(existing: &str, scale: u32, block: &str) -> String {
    let mut blocks = extract_scale_blocks(existing);
    blocks.retain(|(s, _)| *s != scale);
    blocks.push((scale, block.to_string()));
    blocks.sort_by_key(|(s, _)| *s);
    let serving = serving_block(existing);
    render_document(&blocks, serving.as_deref())
}

/// Replace (or insert) the serving block in a baseline document and
/// render the result. Every scale block in `existing` is preserved
/// verbatim.
pub fn upsert_serving_block(existing: &str, block: &str) -> String {
    let blocks = extract_scale_blocks(existing);
    render_document(&blocks, Some(block))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfBaseline {
        PerfBaseline {
            family: "RMAT-2".to_string(),
            scale: 10,
            ranks: 4,
            threads: 4,
            roots: 3,
            gteps_edges: 16384,
            pooled: PerfRecord {
                wall_ms: 12.5,
                allocs: 480,
                alloc_bytes: 65536,
                supersteps: 120,
                msgs: 30000,
                remote_msgs: 22000,
                coalesced_msgs: 10000,
                simulated_s: 0.25,
                gteps: 0.0125,
                gteps_wall: 0.004,
            },
            threaded: ThreadedRecord {
                wall_ms: 5.0,
                gteps: 0.05,
                speedup_vs_pooled: 2.5,
                relax_local_msgs: 6000,
                relax_remote_msgs: 22000,
                coalesced_msgs: 10000,
            },
            sequential: SequentialRecord {
                wall_ms: 4.0,
                gteps: 0.0625,
            },
            threaded_over_seq: RatioSpread {
                q1: 1.125,
                median: 1.25,
                q3: 1.5,
            },
            telemetry: TelemetryRecord {
                backends_agree: 1,
                buckets: 40,
                supersteps: 120,
                local_msgs: 8000,
                remote_msgs: 22000,
                coalesced_msgs: 10000,
                wall_short_ns: 1_500_000,
                wall_long_push_ns: 400_000,
                wall_long_pull_ns: 350_000,
                wall_measured_ns: 3_000_000,
            },
        }
    }

    #[test]
    fn json_roundtrips_through_extract() {
        let json = sample().to_json();
        assert_eq!(extract_number(&json, "", "scale"), Some(10.0));
        assert_eq!(extract_number(&json, "", "ranks"), Some(4.0));
        assert_eq!(extract_number(&json, "", "gteps_edges"), Some(16384.0));
        assert_eq!(extract_number(&json, "pooled", "gteps_wall"), Some(0.004));
        assert_eq!(extract_number(&json, "pooled", "wall_ms"), Some(12.5));
        assert_eq!(extract_number(&json, "pooled", "allocs"), Some(480.0));
        assert_eq!(extract_number(&json, "pooled", "msgs"), Some(30000.0));
        assert_eq!(
            extract_number(&json, "pooled", "allocs_per_superstep"),
            Some(4.0)
        );
        assert_eq!(
            extract_number(&json, "pooled", "remote_msgs"),
            Some(22000.0)
        );
        assert_eq!(extract_number(&json, "threaded", "wall_ms"), Some(5.0));
        assert_eq!(
            extract_number(&json, "threaded", "speedup_vs_pooled"),
            Some(2.5)
        );
        assert_eq!(
            extract_number(&json, "threaded", "relax_local_msgs"),
            Some(6000.0)
        );
        assert_eq!(
            extract_number(&json, "threaded", "relax_remote_msgs"),
            Some(22000.0)
        );
        assert_eq!(
            extract_number(&json, "threaded", "coalesced_msgs"),
            Some(10000.0)
        );
        assert_eq!(extract_number(&json, "sequential", "wall_ms"), Some(4.0));
        assert_eq!(extract_number(&json, "", "threaded_over_seq"), Some(1.25));
        assert_eq!(
            extract_number(&json, "", "threaded_over_seq_q1"),
            Some(1.125)
        );
        assert_eq!(extract_number(&json, "", "threaded_over_seq_q3"), Some(1.5));
        assert_eq!(
            extract_number(&json, "telemetry", "backends_agree"),
            Some(1.0)
        );
        assert_eq!(extract_number(&json, "telemetry", "buckets"), Some(40.0));
        assert_eq!(
            extract_number(&json, "telemetry", "remote_msgs"),
            Some(22000.0)
        );
        assert_eq!(
            extract_number(&json, "telemetry", "wall_short_ns"),
            Some(1_500_000.0)
        );
        assert_eq!(
            extract_number(&json, "telemetry", "wall_measured_ns"),
            Some(3_000_000.0)
        );
    }

    #[test]
    fn wall_total_sums_the_phase_accumulators() {
        let t = sample().telemetry;
        assert_eq!(t.wall_total_ns(), 2_250_000);
    }

    #[test]
    fn wall_problems_gate_phase_sum_and_zero_timings() {
        let healthy = sample().telemetry;
        assert!(healthy.wall_problems().is_empty());

        // Phase sum exceeding the measured run wall time is inconsistent.
        let mut t = healthy;
        t.wall_measured_ns = 1_000_000;
        let p = t.wall_problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("exceeds"), "{p:?}");

        // A run with supersteps must have nonzero phase and measured time.
        let mut t = healthy;
        t.wall_short_ns = 0;
        t.wall_long_push_ns = 0;
        t.wall_long_pull_ns = 0;
        t.wall_measured_ns = 0;
        let p = t.wall_problems();
        assert_eq!(p.len(), 2, "{p:?}");

        // A degenerate run (no supersteps) may be all-zero.
        t.supersteps = 0;
        assert!(t.wall_problems().is_empty());
    }

    #[test]
    fn multi_scale_document_roundtrips() {
        let ten = sample();
        let mut twenty = sample();
        twenty.scale = 20;
        twenty.pooled.wall_ms = 400.0;

        let doc = upsert_scale_block("", 10, &ten.to_json());
        let doc = upsert_scale_block(&doc, 20, &twenty.to_json());

        let blocks = extract_scale_blocks(&doc);
        assert_eq!(
            blocks.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![10, 20]
        );
        let b10 = scale_block(&doc, 10).expect("scale 10 block");
        let b20 = scale_block(&doc, 20).expect("scale 20 block");
        assert_eq!(extract_number(&b10, "pooled", "wall_ms"), Some(12.5));
        assert_eq!(extract_number(&b20, "pooled", "wall_ms"), Some(400.0));
        assert_eq!(scale_block(&doc, 15), None);
    }

    #[test]
    fn upsert_replaces_only_its_own_scale() {
        let ten = sample();
        let mut twenty = sample();
        twenty.scale = 20;
        twenty.pooled.wall_ms = 400.0;
        let doc = upsert_scale_block("", 10, &ten.to_json());
        let doc = upsert_scale_block(&doc, 20, &twenty.to_json());

        // Re-record scale 10 with a different wall time: scale 20 must
        // survive byte-for-byte.
        let before_20 = scale_block(&doc, 20).expect("scale 20 block");
        let mut ten2 = sample();
        ten2.pooled.wall_ms = 9.0;
        let doc2 = upsert_scale_block(&doc, 10, &ten2.to_json());
        let b10 = scale_block(&doc2, 10).expect("scale 10 block");
        assert_eq!(extract_number(&b10, "pooled", "wall_ms"), Some(9.0));
        assert_eq!(scale_block(&doc2, 20).expect("scale 20 block"), before_20);
        assert_eq!(extract_scale_blocks(&doc2).len(), 2);
    }

    #[test]
    fn upsert_supersedes_legacy_single_scale_documents() {
        // A pre-multi-scale document has no "scale_N" keys: nothing to
        // preserve, the fresh block becomes the whole document.
        let legacy = "{\n  \"bench\": \"perf_baseline\",\n  \"scale\": 10,\n  \
                      \"pooled\": {\"wall_ms\": 26.897}\n}\n";
        assert!(extract_scale_blocks(legacy).is_empty());
        let doc = upsert_scale_block(legacy, 10, &sample().to_json());
        let b10 = scale_block(&doc, 10).expect("scale 10 block");
        assert_eq!(extract_number(&b10, "pooled", "wall_ms"), Some(12.5));
    }

    fn sample_serving() -> ServingRecord {
        ServingRecord {
            family: "RMAT-2".to_string(),
            scale: 10,
            ranks: 4,
            threads: 4,
            max_inflight: 4,
            queries: 24,
            peak_inflight: 4,
            distances_match: 1,
            cache_hits: 6,
            cache_misses: 18,
            p2p_epochs: 9,
            full_epochs: 31,
            panicked: 0,
            timed_out: 0,
            wall_ms: 180.0,
            queries_per_sec: 133.3,
        }
    }

    #[test]
    fn serving_json_roundtrips_through_extract() {
        let json = sample_serving().to_json();
        assert_eq!(extract_number(&json, "", "max_inflight"), Some(4.0));
        assert_eq!(extract_number(&json, "", "queries"), Some(24.0));
        assert_eq!(extract_number(&json, "", "peak_inflight"), Some(4.0));
        assert_eq!(extract_number(&json, "", "distances_match"), Some(1.0));
        assert_eq!(extract_number(&json, "", "cache_hits"), Some(6.0));
        assert_eq!(extract_number(&json, "", "p2p_epochs"), Some(9.0));
        assert_eq!(extract_number(&json, "", "full_epochs"), Some(31.0));
        assert_eq!(extract_number(&json, "", "panicked"), Some(0.0));
        assert_eq!(extract_number(&json, "", "timed_out"), Some(0.0));
        assert_eq!(extract_number(&json, "", "queries_per_sec"), Some(133.3));
    }

    #[test]
    fn serving_problems_gate_the_structural_invariants() {
        assert!(sample_serving().problems().is_empty());

        let mut r = sample_serving();
        r.distances_match = 0;
        assert_eq!(r.problems().len(), 1);

        let mut r = sample_serving();
        r.peak_inflight = 2;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("admission bound"), "{p:?}");

        let mut r = sample_serving();
        r.p2p_epochs = r.full_epochs;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("saved nothing"), "{p:?}");

        let mut r = sample_serving();
        r.queries = 0;
        assert!(!r.problems().is_empty());

        let mut r = sample_serving();
        r.panicked = 1;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("panicked"), "{p:?}");

        let mut r = sample_serving();
        r.timed_out = 2;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("timed out"), "{p:?}");
    }

    #[test]
    fn serving_block_coexists_with_scale_blocks() {
        let doc = upsert_scale_block("", 10, &sample().to_json());
        let doc = upsert_serving_block(&doc, &sample_serving().to_json());

        // Both block kinds survive each other's upserts verbatim.
        let sv = serving_block(&doc).expect("serving block");
        assert_eq!(extract_number(&sv, "", "queries"), Some(24.0));
        let mut twenty = sample();
        twenty.scale = 20;
        let doc2 = upsert_scale_block(&doc, 20, &twenty.to_json());
        assert_eq!(serving_block(&doc2).expect("serving survives"), sv);
        assert_eq!(extract_scale_blocks(&doc2).len(), 2);

        let mut sv2 = sample_serving();
        sv2.queries = 48;
        let doc3 = upsert_serving_block(&doc2, &sv2.to_json());
        assert_eq!(extract_scale_blocks(&doc3).len(), 2);
        let sv3 = serving_block(&doc3).expect("serving block");
        assert_eq!(extract_number(&sv3, "", "queries"), Some(48.0));

        // A document without a serving block yields None.
        assert_eq!(
            serving_block(&upsert_scale_block("", 10, &sample().to_json())),
            None
        );
    }

    #[test]
    fn extract_missing_returns_none() {
        let json = sample().to_json();
        assert_eq!(extract_number(&json, "pooled", "no_such_key"), None);
        assert_eq!(extract_number(&json, "no_such_object", "wall_ms"), None);
        assert_eq!(extract_number("not json at all", "", "wall_ms"), None);
    }

    #[test]
    fn allocs_per_superstep_handles_zero() {
        let mut r = sample().pooled;
        r.supersteps = 0;
        assert_eq!(r.allocs_per_superstep(), 0.0);
        r.supersteps = 120;
        assert_eq!(r.allocs_per_superstep(), 4.0);
    }

    #[test]
    fn coalesced_fraction_handles_zero_traffic() {
        let mut r = sample().pooled;
        r.msgs = 0;
        r.coalesced_msgs = 0;
        assert_eq!(r.coalesced_fraction(), 0.0);
        let t = sample().threaded;
        assert_eq!(t.coalesced_fraction(), 10000.0 / 38000.0);
    }
}
