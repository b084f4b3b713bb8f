//! Panic-reachability & unwind-safety analysis (`sssp-lint --panics`).
//!
//! The engine's hot-path rules keep panics *out* of the supersteps; this
//! pass asks the complementary question: for the panics that remain
//! (deliberate aborts, validated invariants, indexing), **who reaches
//! them and what do they take down?** A panic on a plain process root
//! (a bench binary's `main`) kills one process — acceptable. A panic on
//! a worker thread that holds a lock poisons it for every sibling, and a
//! panic that crosses an unguarded thread boundary dies silently in
//! `JoinHandle` limbo. Those are the bugs this pass pins at lint time.
//!
//! Roots come from two places:
//!
//! - every `fn main` under a `src/bin/` or `src/main.rs` path is a
//!   process root, labeled `bin:<stem>`;
//! - a `// sssp-lint: panic-root(<label>[, forwarded])` marker above a
//!   function declares a thread entry point. `forwarded` documents that
//!   panics propagate through a joining parent (and are absorbed there);
//!   without it, every direct panic site in the body must share a line
//!   with `catch_unwind`.
//!
//! Sites are classified lexically per function: `panic!`-family macros,
//! `.unwrap()`/`.expect(`, `assert!`-family (`debug_assert!` is exempt —
//! it compiles out of release kernels), slice indexing, and `/`/`%` with
//! a non-literal divisor. The shared `source::Guards` walk supplies the held
//! set at each site; only `let`-bound guards from `.lock(` receivers or
//! `lock_<name>(` helpers count. The committed golden `golden/panic_reachability.txt` records
//! the whole model; four engine rules (`panic-in-critical-section`,
//! `panic-on-worker-boundary`, `panic-unvalidated-input`,
//! `panic-silent-poison`) enforce the invariants file by file.
//!
//! Allow markers naming a `panic-*` rule must carry a justification
//! (`// sssp-lint: allow(panic-…): why this abort is correct`); a bare
//! allow is itself a finding.

use std::collections::BTreeSet;

use crate::callgraph::{scan_fns, CallGraph, FnDef, FnId};
use crate::rules::RULES;
use crate::source::{ident_before, ident_char, token_positions, Guards, SourceFile};
use crate::{section, Diagnostic, Workspace};

// ---------------------------------------------------------------------------
// site classification

/// What kind of panic a site can raise.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum Kind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Explicit,
    /// `.unwrap()` / `.expect(`.
    UnwrapExpect,
    /// `assert!` / `assert_eq!` / `assert_ne!`.
    Assert,
    /// Slice or array indexing.
    Index,
    /// `/` or `%` with a non-literal divisor.
    Arith,
}

/// One potentially-panicking site inside a function body.
#[derive(Debug)]
pub(crate) struct Site {
    /// 0-based line index.
    pub(crate) line: usize,
    pub(crate) kind: Kind,
    /// Lock guards live when control reaches the line (lexical).
    pub(crate) held: Vec<String>,
    /// True when the line itself mentions `catch_unwind`.
    pub(crate) guarded: bool,
    /// True when the line carries a panic-related allow marker.
    pub(crate) allowed: bool,
}

const EXPLICIT: &[&str] = &["panic!(", "unreachable!(", "todo!(", "unimplemented!("];
const ASSERTS: &[&str] = &["assert!(", "assert_eq!(", "assert_ne!("];

/// Byte offsets of indexing `[`s: those whose previous char closes a
/// value expression.
fn index_opens(code: &str) -> impl Iterator<Item = usize> + '_ {
    code.match_indices('[').map(|(at, _)| at).filter(|&at| {
        code[..at]
            .chars()
            .next_back()
            .is_some_and(|p| ident_char(p) || p == ')' || p == ']')
    })
}

/// `/` or `%` whose divisor starts with an identifier (a literal divisor
/// cannot be zero; an identifier can).
fn arith_sites(code: &str) -> usize {
    let value_end = |p: char| ident_char(p) || p == ')' || p == ']';
    code.match_indices(['/', '%'])
        .filter(|&(at, _)| {
            let rest = &code[at + 1..];
            // A compound `/=` / `%=` divides too.
            let divisor = rest.strip_prefix('=').unwrap_or(rest).trim_start();
            code[..at].trim_end().ends_with(value_end)
                && divisor.starts_with(|d: char| d.is_alphabetic() || d == '_')
        })
        .count()
}

/// Classify every potentially-panicking site in one function body,
/// tracking the lexically held lock set. Test regions are skipped.
pub(crate) fn scan_sites(sf: &SourceFile, fd: &FnDef) -> Vec<Site> {
    let count = |code: &str, needles: &[&str]| -> usize {
        needles
            .iter()
            .map(|n| token_positions(code, n, false).len())
            .sum()
    };
    let mut sites = Vec::new();
    let mut guards = Guards::default();
    for (li, line, code, depth) in fd.body(sf) {
        let held = guards.held();
        let guarded = code.contains("catch_unwind");
        let allowed = line
            .allows
            .iter()
            .any(|a| a.starts_with("panic-") || a == "no-panic-hot-path");
        for (kind, n) in [
            (Kind::Explicit, count(code, EXPLICIT)),
            (Kind::UnwrapExpect, count(code, &[".unwrap()", ".expect("])),
            (Kind::Assert, count(code, ASSERTS)),
            (Kind::Index, index_opens(code).count()),
            (Kind::Arith, arith_sites(code)),
        ] {
            sites.extend((0..n).map(|_| Site {
                line: li,
                kind,
                held: held.clone(),
                guarded,
                allowed,
            }));
        }
        // After the snapshot: a guard never covers its acquisition's own
        // line. Only `let`-bound acquisitions are guards here.
        guards.line(code, depth, |g, at, method| {
            if !g.in_let() {
                return None;
            }
            match method {
                "lock" => Some(ident_before(code, at - 1).unwrap_or("<lock>").to_string()),
                _ => method
                    .strip_prefix("lock_")
                    .filter(|name| !name.is_empty())
                    .map(str::to_string),
            }
        });
    }
    sites
}

// ---------------------------------------------------------------------------
// the per-file rules

/// `panic-in-critical-section`: an explicit panic, unwrap/expect or
/// assert while a lock guard is held poisons the lock for every waiter.
pub fn check_critical_section(sf: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for fd in scan_fns(sf) {
        for s in scan_sites(sf, &fd) {
            let panics = matches!(s.kind, Kind::Explicit | Kind::UnwrapExpect | Kind::Assert);
            if panics && !s.held.is_empty() && !s.guarded {
                out.push((
                    s.line,
                    format!(
                        "potential panic while holding `{}` — a panic here \
                         poisons the lock for every waiter; drop the guard \
                         first, guard with catch_unwind, or justify the abort",
                        s.held.join(", ")
                    ),
                ));
            }
        }
    }
    out
}

/// Parsed `panic-root(label[, forwarded])` marker on one raw line. Only
/// a marker at the start of a plain comment counts (the prefix may hold
/// nothing but whitespace and comment punctuation), and the label must
/// be a kebab-case token — so marker-shaped text inside doc prose or
/// string literals never registers a root.
pub(crate) fn parse_panic_root(raw: &str) -> Option<(String, bool)> {
    let at = raw.find("sssp-lint: panic-root(")?;
    if !raw[..at]
        .chars()
        .all(|c| c.is_whitespace() || matches!(c, '/' | '!' | '*'))
    {
        return None;
    }
    let inner = &raw[at + "sssp-lint: panic-root(".len()..];
    let close = inner.find(')')?;
    let mut parts = inner[..close].split(',').map(str::trim);
    let label = parts.next().filter(|l| !l.is_empty())?.to_string();
    if !label
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return None;
    }
    let forwarded = parts.any(|p| p == "forwarded");
    Some((label, forwarded))
}

/// The function a marker on line `li` attaches to: the first non-test
/// definition opening at or after it.
fn marked_fn(fns: &[FnDef], li: usize) -> Option<usize> {
    (0..fns.len())
        .filter(|&ni| fns[ni].open.0 >= li)
        .min_by_key(|&ni| fns[ni].open.0)
}

/// `panic-on-worker-boundary`: direct panic sites in a non-forwarded
/// thread root must share their line with `catch_unwind` — otherwise the
/// panic dies in `JoinHandle` limbo and the worker vanishes silently.
pub fn check_worker_boundary(sf: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let fns = scan_fns(sf);
    for (li, line) in sf.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some((label, forwarded)) = parse_panic_root(&line.raw) else {
            continue;
        };
        let Some(ni) = marked_fn(&fns, li) else {
            out.push((
                li,
                format!("panic-root(`{label}`) marker attaches to no function"),
            ));
            continue;
        };
        if forwarded {
            continue;
        }
        for s in scan_sites(sf, &fns[ni]) {
            let panics = matches!(s.kind, Kind::Explicit | Kind::UnwrapExpect | Kind::Assert);
            if panics && !s.guarded {
                out.push((
                    s.line,
                    format!(
                        "panic can cross the `{label}` thread boundary — wrap \
                         the work in catch_unwind or mark the root \
                         `forwarded` if a parent joins and absorbs it"
                    ),
                ));
            }
        }
    }
    out
}

/// Idents bound by `QuerySpec::Variant {{ … }}` destructuring patterns
/// on one code line.
fn query_spec_taints(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in code.match_indices("QuerySpec::") {
        let rest = &code[at..];
        let Some(ob) = rest.find('{') else { continue };
        let Some(cb) = rest[ob..].find('}') else {
            continue;
        };
        for part in rest[ob + 1..ob + cb].split(',') {
            // `root`, `root: r`, `..` — the binding is the last ident.
            let part = part.trim_end();
            let name = ident_before(part, part.len()).filter(|n| *n != "_");
            out.extend(name.map(str::to_string));
        }
    }
    out
}

/// `panic-unvalidated-input`: a function that destructures request
/// vertices out of a `QuerySpec` and indexes with them must have called
/// `validate()` — requests are untrusted input.
pub fn check_unvalidated_input(sf: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for fd in scan_fns(sf) {
        let mut taints: BTreeSet<String> = BTreeSet::new();
        let mut sanitized = false;
        for (_, _, code, _) in fd.body(sf) {
            sanitized |= code.contains("validate(");
            taints.extend(query_spec_taints(code));
        }
        if sanitized || taints.is_empty() {
            continue;
        }
        for (li, _, code, depth) in fd.body(sf) {
            for at in index_opens(code) {
                // The index expression: up to the matching `]`, or to the
                // end of the line.
                let end = (at + 1..code.len()).find(|&j| depth[j] <= depth[at]);
                let inner = &code[at + 1..end.unwrap_or(code.len())];
                if let Some(t) = taints
                    .iter()
                    .find(|t| !token_positions(inner, t, true).is_empty())
                {
                    out.push((
                        li,
                        format!(
                            "`{t}` comes from a QuerySpec and indexes a \
                             buffer without validate() — an out-of-range \
                             request would panic the worker"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// `panic-silent-poison`: `.lock()`/`.wait()` + unwrap/expect dies the
/// moment any other thread has panicked with the guard held, multiplying
/// one crash into many. Recover with
/// `unwrap_or_else(PoisonError::into_inner)` or justify die-on-poison.
pub fn check_silent_poison(sf: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (li, line) in sf.lines.iter().enumerate() {
        let code = &line.code;
        let primitive = code.contains(".lock(") || code.contains(".wait(");
        let dies = code.contains(".unwrap()") || code.contains(".expect(");
        if primitive && dies && !code.contains("unwrap_or_else") {
            out.push((
                li,
                "a poisoned Mutex/Condvar panics every thread that touches \
                 it next — recover with unwrap_or_else(PoisonError::\
                 into_inner) or justify die-on-poison with a marker"
                    .to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// the workspace analysis and the golden table

/// The merged panic-reachability analysis.
pub struct Analysis {
    /// Rendered reachability model (golden `panic_reachability.txt`).
    pub table: String,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Diagnostic>,
    /// Number of roots (process mains + marked thread entries).
    pub num_roots: usize,
    /// Number of classified sites in the table's functions.
    pub num_sites: usize,
}

enum RootKind {
    Bin,
    Thread { forwarded: bool },
}

struct Root {
    label: String,
    kind: RootKind,
    id: FnId,
}

fn is_bin_main(path: &str, fd: &FnDef) -> bool {
    fd.name == "main"
        && (path.starts_with("src/bin/")
            || path == "src/main.rs"
            || path.contains("/src/bin/")
            || path.ends_with("/src/main.rs"))
}

fn bin_label(path: &str) -> String {
    let stem = path.rsplit('/').next().unwrap_or(path);
    let name = match stem.trim_end_matches(".rs") {
        // `crates/<crate>/src/main.rs` → the crate dir names the binary.
        "main" => path
            .split("/src/")
            .next()
            .and_then(|d| d.rsplit('/').next()),
        stem => Some(stem),
    };
    format!("bin:{}", name.unwrap_or(path))
}

/// Discover process and thread roots in a built call graph.
fn find_roots(g: &CallGraph) -> (Vec<Root>, Vec<Diagnostic>) {
    let mut roots: Vec<Root> = g
        .defs()
        .filter(|(_, f, fd)| is_bin_main(&f.sf.rel_path, fd))
        .map(|(id, f, _)| Root {
            label: bin_label(&f.sf.rel_path),
            kind: RootKind::Bin,
            id,
        })
        .collect();
    let mut findings = Vec::new();
    for (fi, f) in g.files.iter().enumerate() {
        for (li, line) in f.sf.lines.iter().enumerate().filter(|(_, l)| !l.in_test) {
            let Some((label, forwarded)) = parse_panic_root(&line.raw) else {
                continue;
            };
            let finding = |message| Diagnostic {
                file: f.sf.rel_path.clone(),
                line: li + 1,
                rule: "panic-on-worker-boundary",
                message,
            };
            let Some(ni) = marked_fn(&f.fns, li) else {
                findings.push(finding(format!(
                    "panic-root(`{label}`) marker attaches to no function"
                )));
                continue;
            };
            if roots
                .iter()
                .any(|r| matches!(r.kind, RootKind::Thread { .. }) && r.label == label)
            {
                findings.push(finding(format!("duplicate panic-root label `{label}`")));
            }
            roots.push(Root {
                label,
                kind: RootKind::Thread { forwarded },
                id: (fi, ni),
            });
        }
    }
    roots.sort_by(|a, b| a.label.cmp(&b.label));
    (roots, findings)
}

/// Lines whose allow marker names a `panic-*` rule without a
/// `: justification` tail.
fn unjustified_allows(sf: &SourceFile) -> Vec<Diagnostic> {
    let rule_name = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    };
    let mut out = Vec::new();
    for (li, line) in sf.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some(at) = line.raw.find("sssp-lint: allow(") else {
            continue;
        };
        let inner = &line.raw[at + "sssp-lint: allow(".len()..];
        let Some(close) = inner.find(')') else {
            continue;
        };
        let names: Vec<&str> = inner[..close].split(',').map(str::trim).collect();
        // Marker-shaped text in prose or string literals has non-rule
        // characters in its list; a real marker never does.
        if !names.iter().all(|n| rule_name(n)) || !names.iter().any(|n| n.starts_with("panic-")) {
            continue;
        }
        let tail = inner[close + 1..].trim_start();
        let justified = tail.strip_prefix(':').is_some_and(|t| !t.trim().is_empty());
        if !justified {
            out.push(Diagnostic {
                file: sf.rel_path.clone(),
                line: li + 1,
                rule: "panic-unjustified-allow",
                message: "allowing a panic-* rule needs `): <justification>` \
                          — say why this abort is correct"
                    .to_string(),
            });
        }
    }
    out
}

/// Build the full panic-reachability analysis over the whole workspace.
/// Findings respect inline allow markers, like the engine-driven rules.
pub fn analyze(ws: &Workspace) -> Analysis {
    let g = CallGraph::build(&ws.files);
    let (roots, mut findings) = find_roots(&g);

    // Per-file rule findings, scope- and allow-filtered exactly like the
    // engine, so `--panics` and `--check` agree.
    for f in &g.files {
        for rule in RULES.iter().filter(|r| r.name.starts_with("panic-")) {
            findings.extend(crate::check_rule(rule, f.sf));
        }
        findings.extend(unjustified_allows(f.sf));
    }

    // Reachability: which roots reach each function.
    let reach: Vec<(usize, BTreeSet<FnId>)> = roots
        .iter()
        .enumerate()
        .map(|(ri, r)| (ri, g.reachable(r.id)))
        .collect();

    // Cross-file escalation: an unguarded, unallowed panic site under a
    // held lock, reachable from a live (non-forwarded) thread root, is a
    // poisoning crash multiplier no single file can see.
    let live_threads: Vec<usize> = roots
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.kind, RootKind::Thread { forwarded: false }))
        .map(|(ri, _)| ri)
        .collect();
    for (id, f, fd) in g.defs() {
        let reaching: Vec<&str> = live_threads
            .iter()
            .filter(|&&ri| reach[ri].1.contains(&id))
            .map(|&ri| roots[ri].label.as_str())
            .collect();
        if reaching.is_empty() {
            continue;
        }
        for s in scan_sites(f.sf, fd) {
            let panics = matches!(s.kind, Kind::Explicit | Kind::UnwrapExpect);
            if !panics || s.held.is_empty() || s.guarded || s.allowed {
                continue;
            }
            let fnd = Diagnostic {
                file: f.sf.rel_path.clone(),
                line: s.line + 1,
                rule: "panic-in-critical-section",
                message: format!(
                    "panic site holding `{}` is reachable from thread \
                         root(s) {} — a crash here poisons the lock for \
                         every sibling worker",
                    s.held.join(", "),
                    reaching.join(", ")
                ),
            };
            if !findings
                .iter()
                .any(|x| x.file == fnd.file && x.line == fnd.line && x.rule == fnd.rule)
            {
                findings.push(fnd);
            }
        }
    }

    // A non-forwarded thread root with no unwind guard anywhere in its
    // body aborts silently in JoinHandle limbo.
    for &ri in &live_threads {
        let (fi, ni) = roots[ri].id;
        let f = &g.files[fi];
        let fd = &f.fns[ni];
        let has_guard = fd
            .body(f.sf)
            .any(|(_, _, code, _)| code.contains("catch_unwind"));
        if !has_guard {
            findings.push(Diagnostic {
                file: f.sf.rel_path.clone(),
                line: fd.open.0 + 1,
                rule: "panic-on-worker-boundary",
                message: format!(
                    "thread root `{}` has no catch_unwind anywhere in its \
                     body — a panic kills the worker silently",
                    roots[ri].label
                ),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup();

    let (table, num_sites) = render_table(&g, &roots, &reach);
    Analysis {
        table,
        findings,
        num_roots: roots.len(),
        num_sites,
    }
}

/// Render the golden table. Functions are identified by file + qualified
/// name (no line numbers), so unrelated edits do not churn the golden;
/// only functions with at least one explicit/unwrap/assert site appear
/// (indexing and arithmetic are ubiquitous in a CSR engine — they are
/// counted for those functions, not listed on their own).
fn render_table(
    g: &CallGraph,
    roots: &[Root],
    reach: &[(usize, BTreeSet<FnId>)],
) -> (String, usize) {
    let mut out = String::from(
        "panic-reachability model\n\
         ========================\n\
         scope: whole workspace (tests and fixtures excluded)\n\
         counts: total/allowed per kind; a fn is listed when a root\n\
         reaches it and it has an explicit, unwrap/expect or assert\n\
         site. `held:` is the union of lock guards live at its sites.\n",
    );
    let rows = roots.iter().map(|r| {
        let tag = match r.kind {
            RootKind::Bin => r.label.clone(),
            RootKind::Thread { forwarded: false } => format!("thread:{}", r.label),
            RootKind::Thread { forwarded: true } => format!("thread:{} (forwarded)", r.label),
        };
        let line = format!("  {tag:<34} {}\n", g.qualified(r.id));
        if line.len() > 100 {
            format!("  {tag}\n    {}\n", g.qualified(r.id))
        } else {
            line
        }
    });
    section(&mut out, "\nroots", rows);

    let or_dash = |names: Vec<&str>| {
        if names.is_empty() {
            "-".to_string()
        } else {
            names.join(",")
        }
    };
    let mut num_sites = 0usize;
    let files = g.files.iter().enumerate().filter_map(|(fi, f)| {
        let mut rows = String::new();
        for (ni, fd) in f.fns.iter().enumerate() {
            let reaching: Vec<&Root> = reach
                .iter()
                .filter(|(_, set)| set.contains(&(fi, ni)))
                .map(|&(ri, _)| &roots[ri])
                .collect();
            if reaching.is_empty() {
                continue;
            }
            let sites = scan_sites(f.sf, fd);
            let hard = sites
                .iter()
                .any(|s| matches!(s.kind, Kind::Explicit | Kind::UnwrapExpect | Kind::Assert));
            if !hard {
                continue;
            }
            num_sites += sites.len();
            let bins = reaching
                .iter()
                .filter(|r| matches!(r.kind, RootKind::Bin))
                .count();
            let threads = reaching
                .iter()
                .filter(|r| matches!(r.kind, RootKind::Thread { .. }))
                .map(|r| r.label.as_str())
                .collect();
            let held: BTreeSet<&str> = sites
                .iter()
                .flat_map(|s| s.held.iter().map(String::as_str))
                .collect();
            let count = |k: Kind| {
                let total = sites.iter().filter(|s| s.kind == k).count();
                let allowed = sites.iter().filter(|s| s.kind == k && s.allowed).count();
                format!("{total}/{allowed}")
            };
            rows += &format!(
                "    {}\n      roots: bins:{bins} threads:{}  held: {}\n      \
                 explicit {}  unwrap-expect {}  assert {}  index {}  arith {}\n",
                fd.label(),
                or_dash(threads),
                or_dash(held.into_iter().collect()),
                count(Kind::Explicit),
                count(Kind::UnwrapExpect),
                count(Kind::Assert),
                count(Kind::Index),
                count(Kind::Arith),
            );
        }
        (!rows.is_empty()).then(|| format!("  {}\n{rows}", f.sf.rel_path))
    });
    section(&mut out, "\nreachable panic sites", files);
    (out, num_sites)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/serve/src/x.rs", src)
    }

    #[test]
    fn critical_section_flags_held_unwrap_only() {
        let src = "fn f(m: &std::sync::Mutex<u32>) {\n\
                   \x20   let g = m.lock().unwrap_or_else(|e| e.into_inner());\n\
                   \x20   g.checked_add(1).unwrap();\n\
                   \x20   drop(g);\n\
                   \x20   g2.checked_add(1).unwrap();\n\
                   }\n";
        let sf = parse(src);
        let hits = check_critical_section(&sf);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 2); // the unwrap under the guard, not after drop
    }

    #[test]
    fn silent_poison_spares_the_recovering_idiom() {
        let sf = parse(
            "fn f() {\n\
             \x20   let a = m.lock().unwrap();\n\
             \x20   let b = m.lock().unwrap_or_else(PoisonError::into_inner);\n\
             }\n",
        );
        let hits = check_silent_poison(&sf);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 1);
    }

    #[test]
    fn worker_boundary_needs_catch_unwind_or_forwarded() {
        let bad = parse(
            "// sssp-lint: panic-root(w)\n\
             fn w() {\n\
             \x20   x.unwrap();\n\
             }\n",
        );
        assert_eq!(check_worker_boundary(&bad).len(), 1);
        let guarded = parse(
            "// sssp-lint: panic-root(w)\n\
             fn w() {\n\
             \x20   let r = catch_unwind(|| x.unwrap());\n\
             }\n",
        );
        assert!(check_worker_boundary(&guarded).is_empty());
        let forwarded = parse(
            "// sssp-lint: panic-root(w, forwarded)\n\
             fn w() {\n\
             \x20   x.unwrap();\n\
             }\n",
        );
        assert!(check_worker_boundary(&forwarded).is_empty());
    }

    #[test]
    fn unvalidated_input_needs_validate() {
        let bad = parse(
            "fn f(spec: &QuerySpec, dist: &[u64]) -> u64 {\n\
             \x20   match spec {\n\
             \x20       QuerySpec::PointToPoint { target, .. } => dist[*target as usize],\n\
             \x20   }\n\
             }\n",
        );
        assert_eq!(check_unvalidated_input(&bad).len(), 1);
        let good = parse(
            "fn f(spec: &QuerySpec, dist: &[u64]) -> u64 {\n\
             \x20   spec.validate(dist.len()).unwrap();\n\
             \x20   match spec {\n\
             \x20       QuerySpec::PointToPoint { target, .. } => dist[*target as usize],\n\
             \x20   }\n\
             }\n",
        );
        assert!(check_unvalidated_input(&good).is_empty());
    }

    #[test]
    fn panic_root_markers_parse() {
        assert_eq!(
            parse_panic_root("// sssp-lint: panic-root(serve-worker)"),
            Some(("serve-worker".into(), false))
        );
        assert_eq!(
            parse_panic_root("// sssp-lint: panic-root(rank-thread, forwarded): note"),
            Some(("rank-thread".into(), true))
        );
        assert_eq!(parse_panic_root("// sssp-lint: allow(x)"), None);
    }

    #[test]
    fn analyze_reaches_panics_across_files() {
        let files = vec![
            (
                "crates/x/src/bin/tool.rs".to_string(),
                "fn main() { helper::run(); }\n".to_string(),
            ),
            (
                "crates/x/src/helper.rs".to_string(),
                "pub fn run() { inner().unwrap(); }\nfn inner() -> Option<u32> { None }\n"
                    .to_string(),
            ),
        ];
        let a = analyze(&Workspace::parse(&files));
        assert_eq!(a.num_roots, 1);
        assert!(a.table.contains("bin:tool"));
        assert!(a.table.contains("crates/x/src/helper.rs"));
        assert!(a.table.contains("unwrap-expect 1/0"));
    }

    #[test]
    fn unjustified_panic_allows_are_findings() {
        let files = vec![(
            "crates/serve/src/x.rs".to_string(),
            "fn f() {\n\
             \x20   // sssp-lint: allow(panic-silent-poison)\n\
             \x20   let g = m.lock().unwrap();\n\
             }\n"
            .to_string(),
        )];
        let a = analyze(&Workspace::parse(&files));
        assert!(a
            .findings
            .iter()
            .any(|f| f.rule == "panic-unjustified-allow"));
    }
}
