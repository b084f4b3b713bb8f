//! The SPMD collective-protocol checker: the flow-aware half of the gate.
//!
//! The lexical rules in [`crate::rules`] look at single lines; this module
//! parses function bodies in `crates/core/src/engine/` and in the SPMD
//! kernels (`bfs.rs`, `cc.rs`, `pagerank.rs`) into a lightweight
//! control-flow model and extracts each program's *collective schedule* —
//! the ordered sequence of allreduce/exchange/barrier call sites, with
//! their loop-nesting depth along the call path from its marked entry
//! point. Every program is one loop that every transport runs unchanged,
//! so each entry has one schedule; the checker renders the engine's as a
//! golden table and each kernel's as a labelled section after it
//! (`crates/lint/golden/protocol_table.txt`), which a schedule change must
//! regenerate deliberately.
//!
//! Source markers drive the model:
//!
//! ```text
//! // sssp-lint: protocol-entry(<name>)         (directly above the entry fn;
//!                                               one per program)
//! // sssp-lint: protocol: <label>              (labels following collectives)
//! // sssp-lint: protocol-implicit: <label> <op>  (synthetic event: a
//!                                               collective a driver gets
//!                                               for free, e.g. a
//!                                               shared-memory scan)
//! ```
//!
//! Labels propagate down call chains (the innermost marker wins), so a
//! phase can label `self.exchange_relax()` once and every terminal
//! `exchange` reached through it inherits the label.
//!
//! The comm primitives (`crates/comm/src/threaded.rs`) are modeled as
//! *terminal* operations — the walker never descends into them, so the
//! rendezvous internals (publish → crossing → read episodes) do not leak
//! into the protocol. They are still covered by the lexical
//! `protocol-missing-barrier` rule in this module.

use std::collections::BTreeSet;
use std::fmt;

use crate::callgraph::{call_tokens, scan_fns, CallGraph, CallTok, FnId};
use crate::rules::PROTOCOL;
use crate::source::{ident_char, token_positions, SourceFile};
use crate::{section, Diagnostic, Workspace};

/// The entry of the SSSP engine's epoch loop, whose schedule heads the
/// table.
const ENGINE_ENTRY: &str = "engine";

// ---------------------------------------------------------------------------
// events, markers, tables

/// The kind of a collective call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// An allreduce rendezvous (every rank contributes, every rank
    /// observes the combined value).
    Reduce,
    /// An all-to-all message exchange (one superstep boundary).
    Exchange,
    /// A bare barrier.
    // sssp-lint: allow(no-shared-state): enum variant naming the op kind
    Barrier,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Reduce => "reduce",
            Op::Exchange => "exchange",
            // sssp-lint: allow(no-shared-state): op-kind variant, not a primitive
            Op::Barrier => "barrier",
        })
    }
}

/// A `sssp-lint: protocol…` marker parsed from one raw source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Marker {
    /// `protocol-entry(<name>)`: the next `fn` is the schedule's entry.
    Entry(String),
    /// `protocol: <label>`: collectives from here on carry this label.
    Label(String),
    /// `protocol-implicit: <label> <op>`: emit a synthetic event here.
    Implicit(String, Op),
}

/// Extract the protocol marker on a raw line, if any.
pub fn parse_marker(raw: &str) -> Option<Marker> {
    let at = raw.find("sssp-lint: protocol")?;
    let rest = &raw[at + "sssp-lint: protocol".len()..];
    if let Some(args) = rest.strip_prefix("-entry(") {
        let close = args.find(')')?;
        return Some(Marker::Entry(args[..close].trim().to_string()));
    }
    if let Some(args) = rest.strip_prefix("-implicit:") {
        let mut it = args.split_whitespace();
        let label = it.next()?.to_string();
        let op = match it.next()? {
            "reduce" => Op::Reduce,
            "exchange" => Op::Exchange,
            // sssp-lint: allow(no-shared-state): op-kind variant, not a primitive
            "barrier" => Op::Barrier,
            _ => return None,
        };
        return Some(Marker::Implicit(label, op));
    }
    if let Some(args) = rest.strip_prefix(':') {
        let label = args.split_whitespace().next()?.to_string();
        return Some(Marker::Label(label));
    }
    None
}

/// One collective event extracted by the schedule walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Workspace-relative file of the call site.
    pub file: String,
    /// 1-based line of the call site.
    pub line: usize,
    /// Protocol label in force at the call site (`None` = unlabeled).
    pub label: Option<String>,
    /// Collective kind.
    pub op: Op,
    /// Loop-nesting depth of the call site along its call path.
    pub depth: usize,
}

/// The full collective schedule reached from one entry, in program order.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Entry name from the `protocol-entry(<name>)` marker.
    pub entry: String,
    /// Events in the order the walk reached them.
    pub events: Vec<Event>,
    /// Functions carrying this entry's marker (exactly one on a healthy
    /// tree).
    pub functions: usize,
}

/// Collapse an event stream into `((depth, op, label), calls)` rows:
/// consecutive events with the same `(depth, op, label)` merge, and a
/// missing label reads `<unlabeled>`.
pub fn normalize(events: &[Event]) -> Vec<((usize, Op, String), usize)> {
    let mut out: Vec<((usize, Op, String), usize)> = Vec::new();
    for e in events {
        let label = e.label.clone().unwrap_or_else(|| "<unlabeled>".to_string());
        let row = (e.depth, e.op, label);
        match out.last_mut() {
            Some(last) if last.0 == row => last.1 += 1,
            _ => out.push((row, 1)),
        }
    }
    out
}

/// Render the protocol table (the golden artifact committed at
/// `crates/lint/golden/protocol_table.txt`): the engine's schedule, then
/// one labelled section per kernel entry.
fn render_table(engine: &Schedule, kernels: &[&Schedule]) -> String {
    let rows = |s: &Schedule| {
        normalize(&s.events)
            .into_iter()
            .map(|((depth, op, label), calls)| {
                let op = op.to_string();
                format!("{depth:<6} {op:<9} {label:<26} {calls:>5}\n")
            })
    };
    let mut s = String::from(
        "# Collective protocol table: the normalized SPMD schedule of the engine's\n\
         # one epoch loop, which every transport runs. Regenerate with:\n\
         #   cargo run -p sssp-lint -- --protocol\n\
         # Rows merge consecutive call sites with the same (depth, op, label);\n\
         # `calls` counts them (DESIGN.md).\n",
    );
    let columns = format!("{:<6} {:<9} {:<26} {:>5}", "depth", "op", "label", "calls");
    section(&mut s, &columns, rows(engine));
    if !kernels.is_empty() {
        s.push_str(
            "#\n# Kernel schedules: one section per further `protocol-entry`, each an\n\
             # SPMD kernel that every transport runs.\n",
        );
    }
    for kernel in kernels {
        section(&mut s, &format!("## entry: {}", kernel.entry), rows(kernel));
    }
    s
}

// ---------------------------------------------------------------------------
// terminal operations

/// Idents that terminate the walk as a [`Op::Reduce`] in any call form:
/// `Comm::allreduce` (and the helpers of the same name that wrap it), and
/// `RankCtx::allreduce_sum`, kept for the benchmark.
const REDUCE_IDENTS: &[&str] = &["allreduce", "allreduce_sum"];

/// Idents that terminate the walk as an [`Op::Exchange`] in method position.
const EXCHANGE_IDENTS: &[&str] = &["exchange", "exchange_pooled", "exchange_episode"];

/// Classify a call token as a terminal collective, if it is one. The comm
/// primitives are the protocol alphabet; the walker never descends into
/// them (an episode's publish/crossing/read handshake is an implementation
/// detail, not part of the schedule).
fn terminal_op(t: &CallTok) -> Option<Op> {
    if t.is_def {
        return None;
    }
    if REDUCE_IDENTS.contains(&t.ident.as_str()) {
        return Some(Op::Reduce);
    }
    if t.method && EXCHANGE_IDENTS.contains(&t.ident.as_str()) {
        return Some(Op::Exchange);
    }
    if t.ident == "wait" && t.recv.as_deref() == Some("barrier") {
        // sssp-lint: allow(no-shared-state): op-kind variant, not a primitive
        return Some(Op::Barrier);
    }
    None
}

// ---------------------------------------------------------------------------
// the schedule walk

/// Walk every marked entry point of `g` and collect the schedule reached
/// from it (entries sharing a name concatenate, and count). Also reports
/// findings for collectives reached without a label.
fn schedules(g: &CallGraph) -> (Vec<Schedule>, Vec<Diagnostic>) {
    let mut by_entry: Vec<Schedule> = Vec::new();
    for (id, _, fd) in g.defs() {
        let Some(entry) = &fd.entry else { continue };
        let mut w = Walk {
            g,
            events: Vec::new(),
            stack: Vec::new(),
        };
        w.walk(id, None, 0);
        match by_entry.iter_mut().find(|s| s.entry == *entry) {
            Some(s) => {
                s.events.extend(w.events);
                s.functions += 1;
            }
            None => by_entry.push(Schedule {
                entry: entry.clone(),
                events: w.events,
                functions: 1,
            }),
        }
    }
    let mut findings: Vec<Diagnostic> = by_entry
        .iter()
        .flat_map(|s| s.events.iter().map(move |e| (&s.entry, e)))
        .filter(|(_, e)| e.label.is_none())
        .map(|(entry, e)| {
            finding(
                &e.file,
                e.line,
                format!(
                    "{} reached from the `{entry}` entry without a \
                     `sssp-lint: protocol:` label — label the call site \
                     so the schedule diff can align it",
                    e.op
                ),
            )
        })
        .collect();
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings.dedup();
    (by_entry, findings)
}

/// A protocol-pass finding.
fn finding(file: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        rule: "protocol",
        message,
    }
}

struct Walk<'g> {
    g: &'g CallGraph<'g>,
    events: Vec<Event>,
    stack: Vec<FnId>,
}

impl Walk<'_> {
    /// Walk one function body: emit terminal events at their loop depth,
    /// propagate the innermost label, recurse into resolvable calls.
    /// Closures are scanned at their definition site; recursion is cut by
    /// the call stack.
    fn walk(&mut self, id: FnId, label: Option<String>, base: usize) {
        if self.stack.contains(&id) || self.stack.len() > 64 {
            return;
        }
        self.stack.push(id);
        let f = &self.g.files[id.0];
        let mut label = label;
        // Depths of the open loop bodies' braces.
        let mut loops: Vec<u32> = Vec::new();
        let mut pending_loop = false;
        for (li, line, code, depth) in f.fns[id.1].body(f.sf) {
            match parse_marker(&line.raw) {
                Some(Marker::Label(l)) => label = Some(l),
                Some(Marker::Implicit(l, op)) => self.events.push(Event {
                    file: f.sf.rel_path.clone(),
                    line: li + 1,
                    label: Some(l),
                    op,
                    depth: base + loops.len(),
                }),
                _ => {}
            }
            if has_token(code, ["loop", "while", "for"]) {
                pending_loop = true;
            }
            let at = base + loops.len() + usize::from(pending_loop);
            for t in call_tokens(code).iter().filter(|t| !t.is_def) {
                if let Some(op) = terminal_op(t) {
                    self.events.push(Event {
                        file: f.sf.rel_path.clone(),
                        line: li + 1,
                        label: label.clone(),
                        op,
                        depth: at,
                    });
                } else if let Some(callee) = self.g.resolve(id, t) {
                    self.walk(callee, label.clone(), at);
                }
            }
            for (i, c) in code.bytes().enumerate() {
                match c {
                    b'{' if pending_loop => {
                        loops.push(depth[i]);
                        pending_loop = false;
                    }
                    b'}' if loops.last() == Some(&depth[i]) => {
                        loops.pop();
                    }
                    _ => {}
                }
            }
        }
        self.stack.pop();
    }
}

// ---------------------------------------------------------------------------
// whole-tree analysis

/// Result of the whole-tree protocol pass.
#[derive(Debug)]
pub struct Analysis {
    /// The rendered protocol table when the engine's entry exists and
    /// every entry marks exactly one function.
    pub table: Option<String>,
    /// Everything the pass flagged (unlabeled sites, a missing engine
    /// entry, an entry marked twice). Empty on a healthy tree.
    pub findings: Vec<Diagnostic>,
    /// The raw schedule per entry name, for tests and tooling.
    pub schedules: Vec<Schedule>,
}

/// Run the full protocol pass over the workspace's [`PROTOCOL`] files.
pub fn analyze(ws: &Workspace) -> Analysis {
    let g = CallGraph::build(ws.scoped(&PROTOCOL));
    let (schedules, mut findings) = schedules(&g);
    let engine = schedules.iter().find(|s| s.entry == ENGINE_ENTRY);
    if engine.is_none() {
        findings.push(finding(
            "crates/core/src/engine/",
            0,
            format!(
                "expected exactly one `sssp-lint: protocol-entry({ENGINE_ENTRY})` schedule — \
                 the engine's one epoch loop — found 0"
            ),
        ));
    }
    for s in schedules.iter().filter(|s| s.functions != 1) {
        findings.push(finding(
            "crates/core/src/",
            0,
            format!(
                "expected exactly one `sssp-lint: protocol-entry({})` function — one entry \
                 per program — found {}",
                s.entry, s.functions
            ),
        ));
    }
    let kernels: Vec<&Schedule> = schedules
        .iter()
        .filter(|s| s.entry != ENGINE_ENTRY)
        .collect();
    let table = engine
        .filter(|_| schedules.iter().all(|s| s.functions == 1))
        .map(|engine| render_table(engine, &kernels));
    Analysis {
        table,
        findings,
        schedules,
    }
}

// ---------------------------------------------------------------------------
// rule: protocol-divergent-guard

/// Identifiers that seed the rank-local taint set in every function:
/// the rank id and the per-rank message buffers / state.
const TAINT_SEEDS: &[&str] = &["rank", "out", "inbox", "req_inbox", "st", "lg"];

/// Functions besides the [`REDUCE_IDENTS`] whose presence sanitizes a
/// condition or right-hand side: collective results are identical on
/// every rank, and the decision heuristics are uniform by construction.
/// Each must name a `fn` of the pass's files: a name nothing defines would
/// clear the taint of whatever function later takes it.
const UNIFORM: &[&str] = &["enabled", "decide", "hybrid_should_switch", "num_ranks"];

/// The run's configuration binding, uniform by construction: a value
/// sanitizes like a [`UNIFORM`] call.
const CONFIG: &str = "cfg";

/// True when `text` holds a collective result or a uniform value.
fn sanitized(text: &str) -> bool {
    has_token(text, REDUCE_IDENTS.iter().chain(UNIFORM).chain([&CONFIG]))
}

/// True when any of `needles` occurs in `text` as a token.
fn has_token<T: AsRef<str>>(text: &str, needles: impl IntoIterator<Item = T>) -> bool {
    needles
        .into_iter()
        .any(|n| !token_positions(text, n.as_ref(), false).is_empty())
}

/// If the (trimmed) line starts a guard, return `(condition text, is_else)`.
/// Only line-leading guards are modeled; `loop` has no condition and is
/// never tainted.
fn guard_condition(trimmed: &str) -> Option<(String, bool)> {
    let mut t = trimmed;
    let mut is_else = false;
    if let Some(rest) = t.strip_prefix('}') {
        t = rest.trim_start();
    }
    if let Some(rest) = t.strip_prefix("else") {
        if rest.is_empty() || !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
            is_else = true;
            t = rest.trim_start();
        }
    }
    for kw in ["if ", "while ", "match "] {
        if let Some(rest) = t.strip_prefix(kw) {
            return Some((rest.trim_end_matches('{').trim().to_string(), is_else));
        }
    }
    if let Some(rest) = t.strip_prefix("for ") {
        let cond = match rest.split_once(" in ") {
            Some((_, c)) => c,
            None => rest,
        };
        return Some((cond.trim_end_matches('{').trim().to_string(), is_else));
    }
    if is_else {
        return Some((String::new(), true));
    }
    None
}

/// Find the first `=` that is an assignment (not part of `==`, `!=`,
/// `<=`, `>=` or `=>`); a compound operator's `=` counts.
fn assign_eq(text: &str) -> Option<usize> {
    text.match_indices('=').map(|(at, _)| at).find(|&at| {
        !text[at + 1..].starts_with(['=', '>']) && !text[..at].ends_with(['=', '!', '<', '>'])
    })
}

fn ident_names(text: &str) -> Vec<String> {
    text.split(|c: char| !ident_char(c))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
        .map(String::from)
        .collect()
}

/// The driver helpers that hand an exchange's reduced lanes back to their
/// caller. Each must name a `fn` of the pass's files, as a [`UNIFORM`]
/// name must.
const LANE_EXCHANGES: &[&str] = &["exchange_relax", "exchange_into"];

/// True when `rhs` calls an exchange that hands back reduced lanes: a
/// terminal exchange, or one of the [`LANE_EXCHANGES`].
fn calls_exchange(rhs: &str) -> bool {
    call_tokens(rhs).iter().any(|t| {
        terminal_op(t) == Some(Op::Exchange)
            || (!t.is_def && LANE_EXCHANGES.contains(&t.ident.as_str()))
    })
}

/// The names bound inside an array pattern of `lhs` (`[any]` in
/// `let (step, [any]) = …`).
fn array_pattern_names(lhs: &str) -> Vec<String> {
    lhs.split('[')
        .skip(1)
        .filter_map(|rest| rest.split_once(']'))
        .flat_map(|(inside, _)| ident_names(inside))
        .collect()
}

/// Apply one line's `let`/assignment effects to the taint set: a
/// sanitizer on the right-hand side clears the bound names, a tainted
/// right-hand side (or a surrounding tainted block) taints them, and a
/// clean one clears them. The lanes an exchange reduces are collective
/// results like an allreduce's: the names its array pattern binds are
/// cleared, while the step record beside them is rank-local and follows
/// the right-hand side.
fn apply_assign(code: &str, taint: &mut BTreeSet<String>, in_tainted: bool) {
    let t = code.trim();
    let (lhs, rhs) = if let Some(rest) = t.strip_prefix("let ") {
        let Some(eq) = assign_eq(rest) else { return };
        let (l, r) = rest.split_at(eq);
        let l = l.split(':').next().unwrap_or(l);
        (l.to_string(), r[1..].to_string())
    } else {
        let Some(eq) = assign_eq(t) else { return };
        let (l, r) = t.split_at(eq);
        // Strip a compound operator tail (`+`, `|`, …) off the lhs.
        let l = l
            .trim_end_matches(|c: char| !(c.is_alphanumeric() || c == '_' || c == ')' || c == ']'));
        // Only simple `name` / `name.field` / `name[..]` targets.
        (l.to_string(), r[1..].to_string())
    };
    // Keywords leak into the lhs scan for `if let` / `while let` binding
    // lines; they are not bindable names and must never enter the taint
    // set (a tainted `let` would poison every later `if let` guard).
    const KEYWORDS: &[&str] = &[
        "mut", "_", "if", "else", "let", "ref", "while", "for", "in", "match", "box",
    ];
    let mut names: Vec<String> = ident_names(&lhs)
        .into_iter()
        .filter(|n| !KEYWORDS.contains(&n.as_str()) && !n.starts_with(char::is_uppercase))
        .collect();
    if calls_exchange(&rhs) {
        let reduced = array_pattern_names(&lhs);
        names.retain(|n| {
            if reduced.contains(n) {
                taint.remove(n);
            }
            !reduced.contains(n)
        });
    }
    if names.is_empty() {
        return;
    }
    if sanitized(&rhs) {
        for n in &names {
            taint.remove(n);
        }
    } else if in_tainted || has_token(&rhs, taint.iter()) {
        for n in names {
            taint.insert(n);
        }
    } else {
        // Plain-assignment targets get their taint cleared; `let` shadows
        // likewise. Field writes (`t.hwm = …`) conservatively keep only the
        // head name, which the ident scan already produced.
        for n in &names {
            taint.remove(n);
        }
    }
}

/// `protocol-divergent-guard`: a collective call site under a rank-local
/// condition. Every rank must reach every collective the same number of
/// times; a guard on the rank id or on per-rank buffers/state deadlocks
/// the rendezvous.
pub(crate) fn check_divergent_guard(sf: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for fd in scan_fns(sf) {
        let mut taint: BTreeSet<String> = TAINT_SEEDS.iter().map(|s| s.to_string()).collect();
        // (depth of the block's braces, tainted, guard line index)
        let mut blocks: Vec<(u32, bool, usize)> = Vec::new();
        // A guard awaiting its block, which opens at the first `{` at the
        // guard keyword's depth (not a closure's inside the condition).
        let mut pending: Option<(u32, bool, usize)> = None;
        for (li, _, code, depth) in fd.body(sf) {
            let trimmed = code.trim_start();
            // A line-leading `}` closes its block before the rest of the
            // line is interpreted (`} else {` / `} else if … {`).
            let lead = code.len() - trimmed.len();
            let mut popped_taint = false;
            if trimmed.starts_with('}') && blocks.last().map(|b| b.0) == Some(depth[lead]) {
                popped_taint = blocks.pop().is_some_and(|b| b.1);
            }
            if let Some((cond, is_else)) = guard_condition(trimmed) {
                let tainted = has_token(&cond, &taint) && !sanitized(&cond);
                pending = Some((depth[lead], tainted || (is_else && popped_taint), li));
            }
            // Events under any tainted block.
            if let Some(&(_, _, gl)) = blocks.iter().rev().find(|b| b.1) {
                for t in call_tokens(code) {
                    if let Some(op) = terminal_op(&t) {
                        out.push((
                            li,
                            format!(
                                "`{}` ({op}) is reached under a rank-local condition \
                                 (guard at line {}): collectives must execute \
                                 uniformly on every rank",
                                t.ident,
                                gl + 1
                            ),
                        ));
                    }
                }
            }
            let in_tainted = blocks.iter().any(|b| b.1);
            apply_assign(code, &mut taint, in_tainted);
            let skip = lead + usize::from(trimmed.starts_with('}'));
            for (at, c) in code.bytes().enumerate().skip(skip) {
                if c == b'}' && blocks.last().map(|b| b.0) == Some(depth[at]) {
                    blocks.pop();
                } else if c == b'{' && pending.is_some_and(|p| p.0 == depth[at]) {
                    blocks.extend(pending.take());
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// rule: protocol-missing-barrier

/// `protocol-missing-barrier`: two `.lock(` phases in one function with no
/// `.wait(` between them. The exchange posts every batch into its mailbox
/// cell under the cell's lock, crosses the barrier (`barrier.wait`), then
/// takes its own row under the same locks; dropping the crossing lets a
/// reader take a cell its sender has not posted yet.
pub(crate) fn check_missing_barrier(sf: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for fd in scan_fns(sf) {
        let mut pending_lock: Option<usize> = None;
        for (li, _, code, _) in fd.body(sf) {
            for t in call_tokens(code).iter().filter(|t| t.method) {
                if t.ident == "wait" {
                    pending_lock = None;
                } else if t.ident == "lock" {
                    if let Some(prev) = pending_lock.replace(li) {
                        out.push((
                            li,
                            format!(
                                "second `.lock(` with no barrier `.wait(` since the \
                                 lock at line {}: a reader may take a \
                                 mailbox cell before its sender posted it",
                                prev + 1
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_parse() {
        assert_eq!(
            parse_marker("    // sssp-lint: protocol-entry(threaded)"),
            Some(Marker::Entry("threaded".to_string()))
        );
        assert_eq!(
            parse_marker("// sssp-lint: protocol: epoch.settle"),
            Some(Marker::Label("epoch.settle".to_string()))
        );
        assert_eq!(
            parse_marker("// sssp-lint: protocol-implicit: setup.weight-extremes reduce"),
            Some(Marker::Implicit(
                "setup.weight-extremes".to_string(),
                Op::Reduce
            ))
        );
        assert_eq!(parse_marker("// sssp-lint: allow(no-panic-hot-path)"), None);
        assert_eq!(parse_marker("let x = 1;"), None);
    }

    #[test]
    fn call_tokens_classify_receivers_and_macros() {
        let toks = call_tokens("ctx.allreduce(st.next_nonempty_after(k).unwrap_or(MAX));");
        assert_eq!(toks[0].ident, "allreduce");
        assert_eq!(toks[0].recv.as_deref(), Some("ctx"));
        assert!(toks[0].method);
        let toks = call_tokens("decide::rank_volumes(lg, st)");
        assert_eq!(toks[0].qual.as_deref(), Some("decide"));
        assert!(call_tokens("panic!(\"boom\")").is_empty());
        let toks = call_tokens("fn exchange_relax(ctx: &mut RankCtx)");
        assert!(toks[0].is_def);
    }

    #[test]
    fn terminal_ops_are_token_exact() {
        let t = &call_tokens("self.episode(v, f)")[0];
        assert_eq!(terminal_op(t), None);
        let t = &call_tokens("Comm::allreduce(&mut ctx, lanes)")[0];
        assert_eq!(terminal_op(t), Some(Op::Reduce));
        let t = &call_tokens("bufs.exchange(BYTES, packet)")[0];
        assert_eq!(terminal_op(t), Some(Op::Exchange));
        let t = &call_tokens("x.iter().any(|v| v > 0)")[1];
        assert_eq!(t.ident, "any");
        assert_eq!(terminal_op(t), None);
        let t = &call_tokens("ctx.any(flag)")[0];
        assert_eq!(terminal_op(t), None);
        let t = &call_tokens("barrier.wait()")[0];
        assert_eq!(terminal_op(t), Some(Op::Barrier));
    }

    #[test]
    fn scan_fns_tracks_impls_entries_and_self() {
        let src = "\
impl<'a> Engine<'a> {
    // sssp-lint: protocol-entry(simulated)
    fn run(&mut self) {
        self.go();
    }
    fn go(&mut self) {}
}
fn free(x: u64) -> u64 {
    x
}
trait Rec {
    fn hook(&mut self);
}
";
        let sf = SourceFile::parse("crates/core/src/engine/x.rs", src);
        let fns = scan_fns(&sf);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["run", "go", "free"]);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Engine"));
        assert_eq!(fns[0].trait_name, None);
        assert_eq!(fns[0].entry.as_deref(), Some("simulated"));
        assert!(fns[0].has_self);
        assert!(!fns[2].has_self);
        assert_eq!(fns[0].open.0, 2);
        assert_eq!(fns[0].close.0, 4);
    }

    fn entry_src() -> (String, String) {
        let src = "\
// sssp-lint: protocol-entry(engine)
fn epoch_loop(&mut self) {
    loop {
        // sssp-lint: protocol: epoch.select
        let [k] = self.ctx.allreduce([Lane::Min(v)]);
        // sssp-lint: protocol: epoch.body
        self.body();
    }
}
fn body(&mut self) {
    let step = self.ctx.exchange(out, inbox, BYTES, packet);
}
";
        ("crates/core/src/engine/x.rs".to_string(), src.to_string())
    }

    #[test]
    fn walker_labels_depths_and_renders_the_table() {
        let a = analyze(&Workspace::parse(&[entry_src()]));
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        let table = a.table.expect("table");
        assert!(table.contains("epoch.select"));
        assert!(table.contains("epoch.body"));
        let schedule = &a.schedules[0];
        assert_eq!(schedule.entry, "engine");
        assert_eq!(schedule.events.len(), 2);
        assert_eq!(schedule.events[0].depth, 1);
        assert_eq!(schedule.events[1].op, Op::Exchange);
        assert_eq!(schedule.events[1].label.as_deref(), Some("epoch.body"));
    }

    #[test]
    fn a_missing_or_second_entry_is_a_finding() {
        let none = analyze(&Workspace::parse(&[(
            "crates/core/src/engine/x.rs".to_string(),
            "fn f() {}\n".to_string(),
        )]));
        assert!(none.table.is_none());
        assert!(none.findings[0].message.contains("found 0"));
        let (path, src) = entry_src();
        let second =
            "// sssp-lint: protocol-entry(engine)\nfn g(&mut self) {\n    self.body();\n}\n";
        let two = analyze(&Workspace::parse(&[(
            path.clone(),
            format!("{src}{second}"),
        )]));
        assert!(two.table.is_none());
        assert!(two.findings.iter().any(|f| f.message.contains("found 2")));
        // A further program under its own entry renders its own section.
        let kernel = "// sssp-lint: protocol-entry(kernel)\nfn k(&mut self) {\n    \
                      // sssp-lint: protocol: kernel.sum\n    ctx.allreduce_sum(v);\n}\n";
        let both = analyze(&Workspace::parse(&[(path, format!("{src}{kernel}"))]));
        assert!(both.findings.is_empty(), "{:?}", both.findings);
        let table = both.table.expect("table");
        assert!(table.contains("## entry: kernel\n0      reduce    kernel.sum"));
    }

    #[test]
    fn unlabeled_collectives_are_flagged() {
        let src = "\
// sssp-lint: protocol-entry(engine)
fn run(&mut self) {
    let [k] = self.ctx.allreduce([Lane::Min(v)]);
}
";
        let a = analyze(&Workspace::parse(&[(
            "crates/core/src/engine/x.rs".to_string(),
            src.to_string(),
        )]));
        assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
        assert!(a.findings[0].message.contains("without a"));
    }

    #[test]
    fn normalize_merges_consecutive_rows_only() {
        let ev = |label: &str, op, depth| Event {
            file: "f".to_string(),
            line: 1,
            label: Some(label.to_string()),
            op,
            depth,
        };
        let rows = normalize(&[
            ev("a", Op::Reduce, 1),
            ev("a", Op::Reduce, 1),
            ev("b", Op::Exchange, 1),
            ev("a", Op::Reduce, 1),
        ]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, 2);
    }

    #[test]
    fn divergent_guard_flags_and_sanitizes() {
        let src = "\
fn f(ctx: &mut RankCtx) {
    let r = ctx.rank();
    if r == 0 {
        ctx.allreduce_sum(1);
    }
    let total = ctx.allreduce_sum(v);
    if total > 0 {
        ctx.allreduce([Lane::Max(total)]);
    }
    while ctx.allreduce([Lane::Any(!st.active.is_empty())]) == [1] {
        ctx.exchange_pooled(out, inbox);
    }
}
";
        let sf = SourceFile::parse("crates/core/src/engine/x.rs", src);
        let hits = check_divergent_guard(&sf);
        let lines: Vec<usize> = hits.iter().map(|h| h.0).collect();
        assert_eq!(lines, vec![3]);
    }

    #[test]
    fn divergent_guard_else_branch_carries_taint() {
        let src = "\
fn f(ctx: &mut RankCtx) {
    if inbox.is_empty() {
        noop();
    } else {
        ctx.allreduce_sum(1);
    }
}
";
        let sf = SourceFile::parse("crates/core/src/engine/x.rs", src);
        let hits = check_divergent_guard(&sf);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 4);
    }

    #[test]
    fn if_let_on_tainted_rhs_does_not_taint_the_let_keyword() {
        // Regression: `if let (a, b) = (inbox.x(), inbox.y())` used to push
        // the keywords `if`/`let` into the taint set via the lhs ident scan,
        // after which EVERY later `if let` guard (whose condition text starts
        // with `let …`) read as rank-local — e.g. a guard on a uniform run
        // parameter like `if let Some(tv) = target`.
        let src = "\
fn f(ctx: &mut RankCtx, target: Option<u32>) {
    if let (Some(a), Some(b)) = (inbox.first(), inbox.last()) {
        noop(a, b);
    }
    if let Some(tv) = target {
        ctx.allreduce([Lane::Min(tv)]);
    }
}
";
        let sf = SourceFile::parse("crates/core/src/engine/x.rs", src);
        let hits = check_divergent_guard(&sf);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn every_sanitizer_names_a_defined_fn() {
        // The walk's files and the comm primitives it treats as terminal.
        let ws = Workspace::load(&crate::default_root()).expect("workspace");
        let files = ws.files.iter().filter(|sf| {
            PROTOCOL.matches(&sf.rel_path) || sf.rel_path == "crates/comm/src/threaded.rs"
        });
        let defined: BTreeSet<String> = files.flat_map(scan_fns).map(|f| f.name).collect();
        let sanitizers = REDUCE_IDENTS.iter().chain(UNIFORM);
        for name in sanitizers.chain(EXCHANGE_IDENTS).chain(LANE_EXCHANGES) {
            assert!(
                defined.contains(*name),
                "no `fn {name}` in the protocol pass's files"
            );
        }
    }

    #[test]
    fn missing_barrier_resets_per_function() {
        let src = "\
fn bad(&self) {
    let a = self.mailbox[i].lock();
    let b = self.mailbox[j].lock();
    self.barrier.wait(round);
}
fn good(&self) {
    let a = self.mailbox[i].lock();
    self.barrier.wait(round);
    let b = self.mailbox[j].lock();
    self.barrier.wait(round + 1);
}
";
        let sf = SourceFile::parse("crates/comm/src/x.rs", src);
        let hits = check_missing_barrier(&sf);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 2);
    }
}
