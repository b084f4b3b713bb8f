//! The flow-aware concurrency-model pass.
//!
//! The protocol checker validates the *collective sequence*; this pass
//! models the locking underneath it, the part an async engine refactor is
//! most likely to break. From the comm, engine and serving sources it
//! builds a **lock-order graph**: every `Mutex`/`RwLock`/`Condvar`
//! acquisition site together with the set of locks already held along
//! each intraprocedural path. Order cycles (`concurrency-lock-cycle`) and
//! blocking `recv`/`wait` calls made while a lock is held
//! (`concurrency-blocking-hold`) are findings.
//!
//! The model is rendered as a table, committed as a golden artifact
//! (`crates/lint/golden/lock_order.txt`) and diffed in tests and CI — the
//! same workflow as the protocol table. It is the only lock-order check:
//! a new lock or nesting shows up as a golden diff before it can run.
//!
//! The analysis is lexical, like the rest of this crate: locks are
//! recognized by their type tokens (`name: Mutex<..>`,
//! `let name = RwLock::new(..)`), and guard lifetimes come from the
//! shared `source::Guards` tracker.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{scan_fns, FnDef};
use crate::rules::{RULES, THREADED};
use crate::source::{ident_before, let_name, token_positions, Guards, SourceFile};
use crate::{section, Diagnostic, Workspace};

/// Kind of a declared lock; its `Debug` form is the type's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockKind {
    /// `std::sync::Mutex`.
    Mutex,
    /// `std::sync::RwLock`.
    RwLock,
    /// `std::sync::Condvar`.
    Condvar,
}

// ---------------------------------------------------------------------------
// declarations

/// A declared lock: `name: ..Mutex<..>` field/binding or
/// `let name = ..Mutex::new(..)`.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Binding or field name — the model's identity for the lock.
    pub name: String,
    /// Mutex / RwLock / Condvar.
    pub kind: LockKind,
}

/// Method receiver for a token starting at `tok_start` (the `.` sits one
/// byte earlier) on a line of code and its depths. Rustfmt wraps long
/// chains, leaving the `.method(` alone on a continuation line — in that
/// case the receiver is the tail of the previous code line
/// (`self.mailbox[i]` ⏎ `.lock()`).
fn method_receiver<'a>(
    (code, depth): (&'a str, &[u32]),
    tok_start: usize,
    prev: (&'a str, &[u32]),
) -> Option<&'a str> {
    let dot = tok_start - 1;
    receiver_before(code, depth, dot).or_else(|| {
        if code[..dot].trim().is_empty() {
            receiver_before(prev.0, prev.1, prev.0.len())
        } else {
            None
        }
    })
}

/// Method receiver just before the `.` at byte position `dot`: skips
/// trailing index/call groups (`mailbox[i].lock` → `mailbox`), then reads
/// the identifier. A group that opened on an earlier line has none.
fn receiver_before<'a>(code: &'a str, depth: &[u32], dot: usize) -> Option<&'a str> {
    let mut end = code[..dot].trim_end().len();
    while code[..end].ends_with([')', ']']) {
        // The opener is the nearest byte back at the closer's depth.
        let close = end - 1;
        end = (0..close).rev().find(|&at| depth[at] <= depth[close])?;
    }
    ident_before(code, end)
}

/// Name bound on the left of a declaration containing a type token at
/// byte position `at`: the identifier before the nearest single `:`
/// (skipping `::`), falling back to a `let` binding on the same line.
fn decl_name(code: &str, at: usize) -> Option<String> {
    let single = |i: &usize| !code[..*i].ends_with(':') && !code[i + 1..].starts_with(':');
    match code[..at].match_indices(':').map(|(i, _)| i).rfind(single) {
        Some(i) => ident_before(code, i)
            .filter(|n| *n != "mut" && *n != "let")
            .map(str::to_string),
        None => let_name(code).map(str::to_string),
    }
}

/// Scan a file for lock declarations (test regions skipped).
fn scan_locks(sf: &SourceFile) -> Vec<LockDecl> {
    let mut locks: Vec<LockDecl> = Vec::new();
    for line in sf.lines.iter().filter(|l| !l.in_test) {
        let code = &line.code;
        for (tok, kind) in [
            ("Mutex", LockKind::Mutex),
            ("RwLock", LockKind::RwLock),
            ("Condvar", LockKind::Condvar),
        ] {
            for at in token_positions(code, tok, false) {
                let rest = &code[at + tok.len()..];
                // A declaration spells the type (`Mutex<`) or constructs
                // one (`Mutex::new`); bare imports are neither.
                let is_decl = rest.starts_with('<')
                    || rest.starts_with("::new")
                    || (kind == LockKind::Condvar && rest.trim_start().starts_with(','))
                        && code.contains(':');
                if !is_decl {
                    continue;
                }
                if let Some(name) = decl_name(code, at) {
                    if !locks.iter().any(|l| l.name == name) {
                        locks.push(LockDecl { name, kind });
                    }
                }
            }
        }
    }
    locks
}

// ---------------------------------------------------------------------------
// the intraprocedural walk

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Lock name.
    pub lock: String,
    /// Qualified function (`Type::name` or `name`).
    pub func: String,
    /// 1-based line.
    pub line: usize,
    /// Locks already held along the path to this site, in order.
    pub held: Vec<String>,
}

/// One lock-order edge with its witnessing site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSite {
    /// Lock held first.
    pub from: String,
    /// Lock acquired while `from` is held.
    pub to: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
}

/// Everything the per-file walk extracts.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Declared locks, in declaration order.
    pub locks: Vec<LockDecl>,
    /// Lock acquisition sites.
    pub acquisitions: Vec<Acquisition>,
    /// Lock-order edges with witnessing sites.
    pub edges: Vec<EdgeSite>,
    /// Blocking calls made while holding locks: `(line, op, held)`.
    pub blocking: Vec<(usize, String, Vec<String>)>,
}

impl FileModel {
    /// Build the model for one parsed file.
    pub fn build(sf: &SourceFile) -> FileModel {
        let mut m = FileModel {
            locks: scan_locks(sf),
            ..FileModel::default()
        };
        for fd in scan_fns(sf) {
            m.walk_fn(sf, &fd);
        }
        m
    }

    fn kind_of_lock(&self, name: &str) -> Option<LockKind> {
        self.locks.iter().find(|l| l.name == name).map(|l| l.kind)
    }

    /// Record the function's acquisitions, the order edges they add and
    /// its blocking calls under a live guard.
    fn walk_fn(&mut self, sf: &SourceFile, fd: &FnDef) {
        let func = fd.label();
        let mut guards = Guards::default();
        // The previous code line, for wrapped method chains.
        let mut prev: (&str, &[u32]) = ("", &[]);
        for (li, _, code, depth) in fd.body(sf) {
            guards.line(code, depth, |g, at, method| {
                let held = g.held();
                match method {
                    "lock" | "read" | "write" => {
                        let lock =
                            method_receiver((code, depth), at, prev).filter(|r| {
                                match self.kind_of_lock(r) {
                                    Some(LockKind::Mutex | LockKind::Condvar) => method == "lock",
                                    Some(LockKind::RwLock) => method != "lock",
                                    None => false,
                                }
                            })?;
                        self.edges.extend(held.iter().map(|h| EdgeSite {
                            from: h.clone(),
                            to: lock.to_string(),
                            line: li + 1,
                        }));
                        self.acquisitions.push(Acquisition {
                            lock: lock.to_string(),
                            func: func.clone(),
                            line: li + 1,
                            held,
                        });
                        Some(lock.to_string())
                    }
                    "wait" | "wait_timeout" | "wait_while" | "recv" | "recv_timeout"
                        if !held.is_empty() =>
                    {
                        self.blocking.push((li + 1, format!(".{method}()"), held));
                        None
                    }
                    _ => None,
                }
            });
            if !code.trim().is_empty() {
                prev = (code, depth);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// cycle detection

/// Indices of edges that participate in a lock-order cycle (the target can
/// reach the source through other edges, or the edge is a self-loop).
pub fn cycle_edges(edges: &[EdgeSite]) -> Vec<usize> {
    let reach = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            for e in edges {
                if e.from == n {
                    stack.push(&e.to);
                }
            }
        }
        false
    };
    edges
        .iter()
        .enumerate()
        .filter(|(_, e)| e.from == e.to || reach(&e.to, &e.from))
        .map(|(i, _)| i)
        .collect()
}

// ---------------------------------------------------------------------------
// the per-file rules (registered in crate::rules::RULES)

/// `concurrency-lock-cycle`: a lock acquired while another is held must
/// never complete an order cycle with the file's other acquisition paths.
pub(crate) fn check_lock_cycle(sf: &SourceFile) -> Vec<(usize, String)> {
    lock_cycles(&FileModel::build(sf))
}

fn lock_cycles(m: &FileModel) -> Vec<(usize, String)> {
    cycle_edges(&m.edges)
        .into_iter()
        .map(|i| {
            let e = &m.edges[i];
            (
                e.line - 1,
                format!(
                    "acquiring `{}` while holding `{}` closes a lock-order \
                     cycle — keep one global acquisition order",
                    e.to, e.from
                ),
            )
        })
        .collect()
}

/// `concurrency-blocking-hold`: no blocking `recv`/`wait` while a lock is
/// held — a peer blocked on the same lock deadlocks the rendezvous.
pub(crate) fn check_blocking_hold(sf: &SourceFile) -> Vec<(usize, String)> {
    blocking_holds(&FileModel::build(sf))
}

fn blocking_holds(m: &FileModel) -> Vec<(usize, String)> {
    m.blocking
        .iter()
        .map(|(line, op, held)| {
            (
                line - 1,
                format!(
                    "blocking `{op}` while holding `{}` — release the lock \
                     before blocking so peers can make progress",
                    held.join("`, `")
                ),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// the merged workspace model and the golden table

/// The merged analysis over all in-scope files.
pub struct Analysis {
    /// Rendered lock-order model (golden `lock_order.txt`).
    pub lock_table: String,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Diagnostic>,
    /// Number of distinct locks in the model.
    pub num_locks: usize,
}

/// Locks, acquisitions and edges merged across files, with file
/// attribution for rendering.
#[derive(Default)]
struct Merged {
    locks: Vec<(LockDecl, String)>,
    acqs: Vec<(String, Acquisition)>,
    edges: Vec<(String, EdgeSite)>,
}

/// Build the full concurrency analysis over the workspace's [`THREADED`]
/// files. Findings respect inline `sssp-lint: allow(rule)` markers, like
/// the engine-driven rules.
pub fn analyze(ws: &Workspace) -> Analysis {
    let mut merged = Merged::default();
    let mut findings: Vec<Diagnostic> = Vec::new();
    for sf in ws.scoped(&THREADED) {
        let path = &sf.rel_path;
        let m = FileModel::build(sf);
        // The per-file rules, read off the model just built.
        for rule in RULES {
            let from_model = match rule.name {
                "concurrency-lock-cycle" => lock_cycles,
                "concurrency-blocking-hold" => blocking_holds,
                _ => continue,
            };
            findings.extend(crate::rule_findings(rule, sf, || from_model(&m)));
        }
        for l in m.locks {
            if !merged.locks.iter().any(|(d, _)| d.name == l.name) {
                merged.locks.push((l, path.clone()));
            }
        }
        merged
            .acqs
            .extend(m.acquisitions.into_iter().map(|a| (path.clone(), a)));
        merged
            .edges
            .extend(m.edges.into_iter().map(|e| (path.clone(), e)));
    }
    // Cross-file cycles the per-file rules cannot see.
    let rule = "concurrency-lock-cycle";
    let all_edges: Vec<EdgeSite> = merged.edges.iter().map(|(_, e)| e.clone()).collect();
    for (path, e) in cycle_edges(&all_edges)
        .into_iter()
        .map(|i| &merged.edges[i])
    {
        let file = ws.files.iter().find(|sf| sf.rel_path == *path);
        let line = file.and_then(|sf| sf.lines.get(e.line - 1));
        let allowed = line.is_some_and(|l| l.allows.iter().any(|a| a == rule));
        let known = findings
            .iter()
            .any(|x| x.file == *path && x.line == e.line && x.rule == rule);
        if !allowed && !known {
            findings.push(Diagnostic {
                file: path.clone(),
                line: e.line,
                rule,
                message: format!(
                    "acquiring `{}` while holding `{}` closes a cross-file \
                     lock-order cycle — keep one global acquisition order",
                    e.to, e.from
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    Analysis {
        lock_table: render_lock_table(&merged),
        findings,
        num_locks: merged.locks.len(),
    }
}

/// Render the lock-order model. Sites are identified by file + qualified
/// function + per-function ordinal (not line numbers), so unrelated edits
/// to the sources do not churn the golden.
fn render_lock_table(m: &Merged) -> String {
    let mut out = format!(
        "lock-order model\n================\nscope: {}\n",
        THREADED.include.join(" + ")
    );
    let locks = m.locks.iter().map(|(l, path)| {
        let kind = format!("{:?}", l.kind);
        format!("  {:<12} {kind:<8} {path}\n", l.name)
    });
    section(&mut out, "\nlocks", locks);

    let mut last_file = "";
    let mut ord: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let acqs = m.acqs.iter().map(|(path, a)| {
        let mut row = String::new();
        if path != last_file {
            row = format!("  {path}\n");
            last_file = path;
        }
        let k = ord.entry((&a.func, &a.lock)).or_insert(0);
        *k += 1;
        let held = if a.held.is_empty() {
            "-".to_string()
        } else {
            a.held.join(", ")
        };
        row + &format!("    {:<36} #{k} {:<10} held: {held}\n", a.func, a.lock)
    });
    section(&mut out, "\nacquisition sites", acqs);

    let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
    let edges = m
        .edges
        .iter()
        .filter(|(_, e)| seen.insert((&e.from, &e.to)));
    let edges = edges.map(|(path, e)| format!("  {} -> {}   ({path})\n", e.from, e.to));
    section(&mut out, "\norder edges", edges);

    let all: Vec<EdgeSite> = m.edges.iter().map(|(_, e)| e.clone()).collect();
    let cycles = cycle_edges(&all).into_iter().map(|i| {
        format!(
            "  {} -> {} participates in a cycle\n",
            all[i].from, all[i].to
        )
    });
    section(&mut out, "\ncycles", cycles);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build(&SourceFile::parse("crates/comm/src/x.rs", src))
    }

    #[test]
    fn declarations_are_recognized() {
        let m = model(
            "struct S {\n    slots: Arc<Mutex<Vec<u64>>>,\n    tx: Sender<(u32, u64)>,\n    rx: Receiver<(u32, u64)>,\n}\nfn f() {\n    let q = RwLock::new(0);\n}\n",
        );
        assert_eq!(m.locks.len(), 2);
        assert_eq!(m.locks[0].name, "slots");
        assert_eq!(m.locks[0].kind, LockKind::Mutex);
        assert_eq!(m.locks[1].name, "q");
        assert_eq!(m.locks[1].kind, LockKind::RwLock);
    }

    #[test]
    fn use_imports_are_not_declarations() {
        let m = model("use std::sync::mpsc::{channel, Receiver, Sender};\nuse std::sync::{Arc, Barrier, Mutex};\n");
        assert!(m.locks.is_empty());
    }

    #[test]
    fn guard_scopes_bound_the_held_set() {
        let m = model(
            "struct S { a: Mutex<u64>, b: Mutex<u64> }\nimpl S {\n    fn f(&self) {\n        {\n            let g = self.a.lock().unwrap();\n        }\n        let h = self.b.lock().unwrap();\n    }\n}\n",
        );
        assert_eq!(m.acquisitions.len(), 2);
        assert!(m.acquisitions[0].held.is_empty());
        assert!(m.acquisitions[1].held.is_empty(), "a released at block end");
        assert!(m.edges.is_empty());
    }

    #[test]
    fn nested_acquisitions_record_edges() {
        let m = model(
            "struct S { a: Mutex<u64>, b: Mutex<u64> }\nimpl S {\n    fn f(&self) {\n        let g = self.a.lock().unwrap();\n        let h = self.b.lock().unwrap();\n    }\n}\n",
        );
        assert_eq!(m.edges.len(), 1);
        assert_eq!(m.edges[0].from, "a");
        assert_eq!(m.edges[0].to, "b");
        assert_eq!(m.acquisitions[1].held, vec!["a".to_string()]);
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let m = model(
            "struct S { a: Mutex<u64>, bar: Barrier }\nimpl S {\n    fn f(&self) {\n        let g = self.a.lock().unwrap();\n        drop(g);\n        self.bar.wait();\n    }\n}\n",
        );
        assert!(m.blocking.is_empty());
    }

    #[test]
    fn temporary_guard_ends_with_the_statement() {
        let m = model(
            "struct S { a: Mutex<u64>, bar: Barrier }\nimpl S {\n    fn f(&self) {\n        self.a.lock().unwrap().push(1);\n        self.bar.wait();\n    }\n}\n",
        );
        assert!(m.blocking.is_empty(), "{:?}", m.blocking);
    }

    #[test]
    fn blocking_while_held_is_recorded() {
        let m = model(
            "struct S { a: Mutex<u64>, bar: Barrier, rx: Receiver<u64> }\nimpl S {\n    fn f(&self) {\n        let g = self.a.lock().unwrap();\n        self.bar.wait();\n        let v = self.rx.recv().unwrap();\n    }\n}\n",
        );
        assert_eq!(m.blocking.len(), 2);
        assert_eq!(m.blocking[0].1, ".wait()");
        assert_eq!(m.blocking[1].1, ".recv()");
    }

    #[test]
    fn cycle_detection_finds_inversions() {
        let edges = vec![
            EdgeSite {
                from: "a".into(),
                to: "b".into(),
                line: 1,
            },
            EdgeSite {
                from: "b".into(),
                to: "a".into(),
                line: 2,
            },
            EdgeSite {
                from: "a".into(),
                to: "c".into(),
                line: 3,
            },
        ];
        assert_eq!(cycle_edges(&edges), vec![0, 1]);
        assert!(cycle_edges(&edges[..1]).is_empty());
    }

    #[test]
    fn self_lock_is_a_cycle() {
        let edges = vec![EdgeSite {
            from: "a".into(),
            to: "a".into(),
            line: 1,
        }];
        assert_eq!(cycle_edges(&edges), vec![0]);
    }

    #[test]
    fn indexed_receiver_resolves_to_the_collection() {
        let m = model(
            "struct S { cells: Vec<Mutex<u64>> }\nimpl S {\n    fn f(&self, dst: usize) {\n        self.cells[dst].lock().unwrap().push(1);\n    }\n}\n",
        );
        assert_eq!(m.acquisitions.len(), 1);
        assert_eq!(m.acquisitions[0].lock, "cells");
    }

    #[test]
    fn analyze_detects_cross_file_cycles() {
        let files = vec![
            (
                "crates/comm/src/a.rs".to_string(),
                "struct A { a: Mutex<u64>, b: Mutex<u64> }\nimpl A {\n    fn f(&self) {\n        let g = self.a.lock().unwrap();\n        let h = self.b.lock().unwrap();\n    }\n}\n"
                    .to_string(),
            ),
            (
                "crates/comm/src/b.rs".to_string(),
                "struct B { a: Mutex<u64>, b: Mutex<u64> }\nimpl B {\n    fn g(&self) {\n        let h = self.b.lock().unwrap();\n        let g = self.a.lock().unwrap();\n    }\n}\n"
                    .to_string(),
            ),
        ];
        let a = analyze(&Workspace::parse(&files));
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "concurrency-lock-cycle"),
            "{:?}",
            a.findings
        );
        assert!(a.lock_table.contains("participates in a cycle"));
    }

    #[test]
    fn allow_marker_suppresses_analyze_findings() {
        let files = vec![(
            "crates/comm/src/x.rs".to_string(),
            "struct S { a: Mutex<u64>, bar: Barrier }\nimpl S {\n    fn f(&self) {\n        let g = self.a.lock().unwrap();\n        // sssp-lint: allow(concurrency-blocking-hold): test\n        self.bar.wait();\n    }\n}\n"
                .to_string(),
        )];
        assert!(analyze(&Workspace::parse(&files)).findings.is_empty());
    }

    #[test]
    fn in_scope_covers_comm_and_threaded_engine() {
        let in_scope = |p: &str| THREADED.matches(p);
        assert!(in_scope("crates/comm/src/threaded.rs"));
        assert!(in_scope("crates/core/src/engine/threaded.rs"));
        assert!(in_scope("crates/serve/src/server.rs"));
        assert!(!in_scope("crates/graph/src/gen.rs"));
        assert!(!in_scope("crates/bench/src/lib.rs"));
    }
}
