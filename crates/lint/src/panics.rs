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
use crate::Diagnostic;

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

/// Char positions of indexing `[`s: those whose previous char closes a
/// value expression.
fn index_opens(cs: &[char]) -> impl Iterator<Item = usize> + '_ {
    (1..cs.len()).filter(|&i| {
        cs[i] == '[' && (ident_char(cs[i - 1]) || cs[i - 1] == ')' || cs[i - 1] == ']')
    })
}

/// Indexing sites on one code line.
fn index_sites(code: &str) -> usize {
    index_opens(&code.chars().collect::<Vec<_>>()).count()
}

/// `/` or `%` whose divisor starts with an identifier (a literal divisor
/// cannot be zero; an identifier can).
fn arith_sites(code: &str) -> usize {
    let cs: Vec<char> = code.chars().collect();
    let mut n = 0;
    for (i, &c) in cs.iter().enumerate() {
        if c != '/' && c != '%' {
            continue;
        }
        let prev = cs[..i].iter().rev().find(|ch| !ch.is_whitespace());
        let prev_ok = prev.is_some_and(|&p| ident_char(p) || p == ')' || p == ']');
        if !prev_ok {
            continue;
        }
        let mut j = i + 1;
        if cs.get(j) == Some(&'=') {
            j += 1; // compound `/=` / `%=`
        }
        while j < cs.len() && cs[j].is_whitespace() {
            j += 1;
        }
        if cs.get(j).is_some_and(|&d| d.is_alphabetic() || d == '_') {
            n += 1;
        }
    }
    n
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
    let mut guards = Guards::new();
    for (li, line, code) in fd.body(sf) {
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
            (Kind::Index, index_sites(code)),
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
        guards.line(code, |g, at, method| {
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
        if fd.in_test {
            continue;
        }
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
        .filter(|&ni| fns[ni].open.0 >= li && !fns[ni].in_test)
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
    let mut from = 0;
    while let Some(p) = code[from..].find("QuerySpec::") {
        let at = from + p;
        let rest = &code[at..];
        if let Some(ob) = rest.find('{') {
            if let Some(cb) = rest[ob..].find('}') {
                for part in rest[ob + 1..ob + cb].split(',') {
                    // `root`, `root: r`, `..` — the binding is the last ident.
                    let name: String = part
                        .chars()
                        .rev()
                        .skip_while(|c| c.is_whitespace())
                        .take_while(|&c| ident_char(c))
                        .collect::<Vec<_>>()
                        .into_iter()
                        .rev()
                        .collect();
                    if !name.is_empty() && name != "_" {
                        out.push(name);
                    }
                }
            }
        }
        from = at + "QuerySpec::".len();
    }
    out
}

/// `panic-unvalidated-input`: a function that destructures request
/// vertices out of a `QuerySpec` and indexes with them must have called
/// `validate()` — requests are untrusted input.
pub fn check_unvalidated_input(sf: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for fd in scan_fns(sf).iter().filter(|f| !f.in_test) {
        let mut taints: BTreeSet<String> = BTreeSet::new();
        let mut sanitized = false;
        for (_, _, code) in fd.body(sf) {
            sanitized |= code.contains("validate(");
            taints.extend(query_spec_taints(code));
        }
        if sanitized || taints.is_empty() {
            continue;
        }
        for (li, _, code) in fd.body(sf) {
            let cs: Vec<char> = code.chars().collect();
            for i in index_opens(&cs) {
                let mut nest = 1;
                let mut j = i + 1;
                while j < cs.len() && nest > 0 {
                    match cs[j] {
                        '[' => nest += 1,
                        ']' => nest -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                let inner: String = cs[i + 1..j.saturating_sub(1).max(i + 1)].iter().collect();
                for t in &taints {
                    if !token_positions(&inner, t, true).is_empty() {
                        out.push((
                            li,
                            format!(
                                "`{t}` comes from a QuerySpec and indexes a \
                                 buffer without validate() — an out-of-range \
                                 request would panic the worker"
                            ),
                        ));
                        break;
                    }
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
    if fd.name != "main" || fd.in_test {
        return false;
    }
    path.starts_with("src/bin/")
        || path == "src/main.rs"
        || path.contains("/src/bin/")
        || path.ends_with("/src/main.rs")
}

fn bin_label(path: &str) -> String {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    if stem == "main" {
        // `crates/<crate>/src/main.rs` → the crate dir names the binary.
        let crate_dir = path
            .split("/src/")
            .next()
            .unwrap_or(path)
            .rsplit('/')
            .next()
            .unwrap_or(path);
        format!("bin:{crate_dir}")
    } else {
        format!("bin:{stem}")
    }
}

/// Discover process and thread roots in a built call graph.
fn find_roots(g: &CallGraph) -> (Vec<Root>, Vec<Diagnostic>) {
    let mut roots = Vec::new();
    let mut findings = Vec::new();
    for (fi, f) in g.files.iter().enumerate() {
        for (ni, fd) in f.fns.iter().enumerate() {
            if is_bin_main(&f.path, fd) {
                roots.push(Root {
                    label: bin_label(&f.path),
                    kind: RootKind::Bin,
                    id: (fi, ni),
                });
            }
        }
        for (li, line) in f.sf.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some((label, forwarded)) = parse_panic_root(&line.raw) else {
                continue;
            };
            match marked_fn(&f.fns, li) {
                Some(ni) => {
                    if roots
                        .iter()
                        .any(|r| matches!(r.kind, RootKind::Thread { .. }) && r.label == label)
                    {
                        findings.push(Diagnostic {
                            file: f.path.clone(),
                            line: li + 1,
                            rule: "panic-on-worker-boundary",
                            message: format!("duplicate panic-root label `{label}`"),
                        });
                    }
                    roots.push(Root {
                        label,
                        kind: RootKind::Thread { forwarded },
                        id: (fi, ni),
                    });
                }
                None => findings.push(Diagnostic {
                    file: f.path.clone(),
                    line: li + 1,
                    rule: "panic-on-worker-boundary",
                    message: format!("panic-root(`{label}`) marker attaches to no function"),
                }),
            }
        }
    }
    roots.sort_by(|a, b| a.label.cmp(&b.label));
    (roots, findings)
}

/// Lines whose allow marker names a `panic-*` rule without a
/// `: justification` tail.
fn unjustified_allows(path: &str, sf: &SourceFile) -> Vec<Diagnostic> {
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
                file: path.to_string(),
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

/// Build the full panic-reachability analysis from `(rel_path, text)`
/// pairs spanning the whole workspace. Findings respect inline allow
/// markers, like the engine-driven rules.
pub fn analyze(files: &[(String, String)]) -> Analysis {
    let g = CallGraph::build(files);
    let (roots, mut findings) = find_roots(&g);

    // Per-file rule findings, scope- and allow-filtered exactly like the
    // engine, so `--panics` and `--check` agree.
    for f in &g.files {
        for rule in RULES.iter().filter(|r| r.name.starts_with("panic-")) {
            findings.extend(crate::check_rule(rule, &f.sf));
        }
        findings.extend(unjustified_allows(&f.path, &f.sf));
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
    for (fi, f) in g.files.iter().enumerate() {
        for (ni, fd) in f.fns.iter().enumerate() {
            if fd.in_test {
                continue;
            }
            let reaching: Vec<&str> = live_threads
                .iter()
                .filter(|&&ri| reach[ri].1.contains(&(fi, ni)))
                .map(|&ri| roots[ri].label.as_str())
                .collect();
            if reaching.is_empty() {
                continue;
            }
            for s in scan_sites(&f.sf, fd) {
                let panics = matches!(s.kind, Kind::Explicit | Kind::UnwrapExpect);
                if !panics || s.held.is_empty() || s.guarded || s.allowed {
                    continue;
                }
                let fnd = Diagnostic {
                    file: f.path.clone(),
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
    }

    // A non-forwarded thread root with no unwind guard anywhere in its
    // body aborts silently in JoinHandle limbo.
    for &ri in &live_threads {
        let (fi, ni) = roots[ri].id;
        let f = &g.files[fi];
        let fd = &f.fns[ni];
        let has_guard = fd
            .body(&f.sf)
            .any(|(_, _, code)| code.contains("catch_unwind"));
        if !has_guard {
            findings.push(Diagnostic {
                file: f.path.clone(),
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
    let mut out = String::new();
    out.push_str("panic-reachability model\n");
    out.push_str("========================\n");
    out.push_str("scope: whole workspace (tests and fixtures excluded)\n");
    out.push_str("counts: total/allowed per kind; a fn is listed when a root\n");
    out.push_str("reaches it and it has an explicit, unwrap/expect or assert\n");
    out.push_str("site. `held:` is the union of lock guards live at its sites.\n\n");

    out.push_str("roots\n");
    for r in roots {
        let tag = match r.kind {
            RootKind::Bin => r.label.clone(),
            RootKind::Thread { forwarded: false } => format!("thread:{}", r.label),
            RootKind::Thread { forwarded: true } => format!("thread:{} (forwarded)", r.label),
        };
        let mut line = format!("  {tag:<34} {}\n", g.qualified(r.id));
        if line.len() > 100 {
            line = format!("  {tag}\n    {}\n", g.qualified(r.id));
        }
        out.push_str(&line);
    }
    out.push('\n');

    out.push_str("reachable panic sites\n");
    let mut num_sites = 0usize;
    let mut any = false;
    for (fi, f) in g.files.iter().enumerate() {
        let mut rows = String::new();
        for (ni, fd) in f.fns.iter().enumerate() {
            if fd.in_test {
                continue;
            }
            let reaching: Vec<usize> = reach
                .iter()
                .filter(|(_, set)| set.contains(&(fi, ni)))
                .map(|(ri, _)| *ri)
                .collect();
            if reaching.is_empty() {
                continue;
            }
            let sites = scan_sites(&f.sf, fd);
            let hard = sites
                .iter()
                .any(|s| matches!(s.kind, Kind::Explicit | Kind::UnwrapExpect | Kind::Assert));
            if !hard {
                continue;
            }
            num_sites += sites.len();
            let bins = reaching
                .iter()
                .filter(|&&ri| matches!(roots[ri].kind, RootKind::Bin))
                .count();
            let threads: Vec<&str> = reaching
                .iter()
                .filter(|&&ri| matches!(roots[ri].kind, RootKind::Thread { .. }))
                .map(|&ri| roots[ri].label.as_str())
                .collect();
            let threads = if threads.is_empty() {
                "-".to_string()
            } else {
                threads.join(",")
            };
            let mut held: BTreeSet<String> = BTreeSet::new();
            for s in &sites {
                held.extend(s.held.iter().cloned());
            }
            let held = if held.is_empty() {
                "-".to_string()
            } else {
                held.into_iter().collect::<Vec<_>>().join(",")
            };
            let count = |k: Kind| {
                let total = sites.iter().filter(|s| s.kind == k).count();
                let allowed = sites.iter().filter(|s| s.kind == k && s.allowed).count();
                format!("{total}/{allowed}")
            };
            rows.push_str(&format!("    {}\n", fd.label()));
            rows.push_str(&format!(
                "      roots: bins:{bins} threads:{threads}  held: {held}\n"
            ));
            rows.push_str(&format!(
                "      explicit {}  unwrap-expect {}  assert {}  index {}  arith {}\n",
                count(Kind::Explicit),
                count(Kind::UnwrapExpect),
                count(Kind::Assert),
                count(Kind::Index),
                count(Kind::Arith),
            ));
        }
        if !rows.is_empty() {
            any = true;
            out.push_str(&format!("  {}\n", f.path));
            out.push_str(&rows);
        }
    }
    if !any {
        out.push_str("  (none)\n");
    }
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
        let a = analyze(&files);
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
        let a = analyze(&files);
        assert!(a
            .findings
            .iter()
            .any(|f| f.rule == "panic-unjustified-allow"));
    }
}
