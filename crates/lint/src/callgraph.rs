//! The lexical function model every flow-aware pass shares: function
//! definitions (`scan_fns`), call-shaped tokens (`call_tokens`) and
//! the intra-workspace call graph built from them.
//!
//! The panic-reachability pass builds the graph over the *whole*
//! workspace: a panic site in the comm primitives is reachable from a
//! bench binary's `main` through every engine layer in between. The
//! protocol pass builds it over its traversable files and walks it with
//! plain `CallGraph::resolve`, no trait fan-out.
//!
//! Resolution is lexical: qualified calls (`Type::f`) match the `impl`
//! target or a free function in the module whose file stem equals the
//! qualifier, method calls (`.f(`) match `self` methods, bare calls match
//! free functions. Same-file definitions win over cross-file ones; the
//! first match wins otherwise. For reachability a method call
//! additionally reaches every same-named method of a *workspace trait*
//! (`impl Comm for …`, a default body in `trait …`): the engine
//! dispatches statically through such traits, so any implementation may
//! be the callee. As in Rust, a trait's methods are callable only where
//! the trait is in scope — in a file that names it (a `use`, a bound,
//! `impl Trait`, `dyn Trait`) or has a glob import — so elsewhere a call
//! neither resolves nor dispatches to them. Unresolvable calls (std, vendored deps, closures) are
//! terminal. The graph over-approximates on same-named methods across
//! types — fine for an auditor that must not under-report reachability.

use std::collections::BTreeSet;

use crate::protocol::{parse_marker, Marker};
use crate::source::{ident_at, ident_before, ident_char, token_positions, Line, SourceFile};

// ---------------------------------------------------------------------------
// call tokens

/// One `ident(`-shaped call site on a stripped code line.
#[derive(Debug)]
pub(crate) struct CallTok {
    pub(crate) ident: String,
    /// Identifier directly before a `.` (method receiver), if any.
    pub(crate) recv: Option<String>,
    /// Identifier directly before a `::`, if any.
    pub(crate) qual: Option<String>,
    /// True when the call is in method position (`.ident(`).
    pub(crate) method: bool,
    /// True when the token is a definition (`fn ident(`), not a call.
    pub(crate) is_def: bool,
}

/// Scan a stripped code line for call-shaped tokens, left to right.
/// Macros (`ident!(`) are excluded; numbers never start a token.
pub(crate) fn call_tokens(code: &str) -> Vec<CallTok> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(c) = code[i..].chars().next() {
        if !ident_char(c) {
            i += c.len_utf8();
            continue;
        }
        let start = i;
        i += code[i..]
            .find(|c: char| !ident_char(c))
            .unwrap_or(code.len() - i);
        if c.is_ascii_digit() || !code[i..].starts_with('(') {
            continue;
        }
        let before = &code[..start];
        let method = before.ends_with('.');
        let owner = |sep: &str| {
            before
                .strip_suffix(sep)
                .and_then(|b| ident_before(b, b.len()))
                .map(str::to_string)
        };
        out.push(CallTok {
            ident: code[start..i].to_string(),
            recv: owner("."),
            qual: if method { None } else { owner("::") },
            method,
            is_def: before
                .trim_end()
                .strip_suffix("fn")
                .is_some_and(|b| !b.ends_with(ident_char)),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// function scanning

/// One function definition with a resolvable body span.
#[derive(Debug)]
pub(crate) struct FnDef {
    pub(crate) name: String,
    /// Surrounding `impl`/`trait` target type, if any.
    pub(crate) impl_type: Option<String>,
    /// The trait a method belongs to: `A` inside `impl A for B`, and the
    /// trait itself for default bodies inside `trait A`.
    pub(crate) trait_name: Option<String>,
    /// True when the signature mentions `self` (method).
    pub(crate) has_self: bool,
    /// Backend name from a `protocol-entry` marker directly above.
    pub(crate) entry: Option<String>,
    /// True when the definition sits in a test region.
    pub(crate) in_test: bool,
    /// `(line index, char column just after the opening brace)`.
    pub(crate) open: (usize, usize),
    /// Line index of the closing brace.
    pub(crate) end_line: usize,
}

impl FnDef {
    /// `Type::name` for a method or associated function, else `name`.
    pub(crate) fn label(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// The body as `(line index, line, code)`: test lines are skipped and
    /// the first line starts just after the opening brace.
    pub(crate) fn body<'a>(
        &'a self,
        sf: &'a SourceFile,
    ) -> impl Iterator<Item = (usize, &'a Line, &'a str)> + 'a {
        (self.open.0..=self.end_line).filter_map(move |li| {
            let line = sf.lines.get(li).filter(|l| !l.in_test)?;
            let code = if li == self.open.0 {
                let at = line.code.char_indices().nth(self.open.1);
                &line.code[at.map_or(line.code.len(), |(b, _)| b)..]
            } else {
                &line.code
            };
            Some((li, line, code))
        })
    }
}

/// Extract `(target type, trait)` from an `impl`/`trait` header (text
/// after the keyword, up to the opening brace): angle-bracket spans are
/// stripped, `impl A for B` resolves to `(B, Some(A))`, `trait A` to
/// `(A, Some(A))`, paths keep their last segment.
fn impl_target(header: &str, is_trait: bool) -> Option<(String, Option<String>)> {
    let mut flat = String::new();
    let mut angle = 0i32;
    for c in header.chars() {
        match c {
            '<' => angle += 1,
            '>' => angle = (angle - 1).max(0),
            c if angle == 0 => flat.push(c),
            _ => {}
        }
    }
    let toks: Vec<&str> = flat
        .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .filter(|s| !s.is_empty())
        .collect();
    let last = |t: &str| t.rsplit("::").next().unwrap_or(t).to_string();
    match toks.iter().position(|&t| t == "for") {
        Some(i) => Some((last(toks.get(i + 1)?), toks.first().map(|t| last(t)))),
        None => {
            let target = last(toks.first()?);
            let of_trait = is_trait.then(|| target.clone());
            Some((target, of_trait))
        }
    }
}

/// Scan a parsed file for function definitions, tracking brace depth,
/// `impl`/`trait` context and `protocol-entry` markers. Declarations
/// without a body (trait methods ending in `;`) are dropped.
pub(crate) fn scan_fns(sf: &SourceFile) -> Vec<FnDef> {
    let mut fns: Vec<FnDef> = Vec::new();
    // (fn index, depth at open)
    let mut open_fns: Vec<(usize, usize)> = Vec::new();
    // (target, trait, depth at open)
    let mut impls: Vec<(String, Option<String>, usize)> = Vec::new();
    let mut pending_entry: Option<String> = None;
    let mut depth = 0usize;
    // In-flight signature: (fn index, paren depth, signature text).
    let mut sig: Option<(usize, i32, String)> = None;
    // In-flight impl/trait header: (text, is a `trait` block).
    let mut impl_head: Option<(String, bool)> = None;

    for (li, line) in sf.lines.iter().enumerate() {
        if let Some(Marker::Entry(b)) = parse_marker(&line.raw) {
            pending_entry = Some(b);
        }
        let cs: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < cs.len() {
            if let Some((fx, parens, text)) = sig.as_mut() {
                let c = cs[i];
                match c {
                    '(' => {
                        *parens += 1;
                        text.push(c);
                    }
                    ')' => {
                        *parens -= 1;
                        text.push(c);
                    }
                    '{' if *parens == 0 => {
                        depth += 1;
                        let fx = *fx;
                        let has_self = !token_positions(text, "self", false).is_empty();
                        fns[fx].has_self = has_self;
                        fns[fx].open = (li, i + 1);
                        open_fns.push((fx, depth));
                        sig = None;
                    }
                    ';' if *parens == 0 => {
                        // Bodyless declaration: drop the def.
                        let fx = *fx;
                        fns.remove(fx);
                        sig = None;
                    }
                    _ => text.push(c),
                }
                i += 1;
                continue;
            }
            if let Some((text, is_trait)) = impl_head.as_mut() {
                let c = cs[i];
                if c == '{' {
                    depth += 1;
                    if let Some((target, of_trait)) = impl_target(text, *is_trait) {
                        impls.push((target, of_trait, depth));
                    }
                    impl_head = None;
                } else {
                    text.push(c);
                }
                i += 1;
                continue;
            }
            let c = cs[i];
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < cs.len() && ident_char(cs[i]) {
                    i += 1;
                }
                let boundary_ok =
                    start == 0 || !(ident_char(cs[start - 1]) || cs[start - 1] == '.');
                if !boundary_ok {
                    continue;
                }
                let tok: String = cs[start..i].iter().collect();
                match tok.as_str() {
                    "fn" => {
                        let mut j = i;
                        while j < cs.len() && cs[j].is_whitespace() {
                            j += 1;
                        }
                        let ns = j;
                        while j < cs.len() && ident_char(cs[j]) {
                            j += 1;
                        }
                        if j > ns {
                            let name: String = cs[ns..j].iter().collect();
                            fns.push(FnDef {
                                name,
                                impl_type: impls.last().map(|(t, _, _)| t.clone()),
                                trait_name: impls.last().and_then(|(_, tr, _)| tr.clone()),
                                has_self: false,
                                entry: pending_entry.take(),
                                in_test: line.in_test,
                                open: (0, 0),
                                end_line: 0,
                            });
                            sig = Some((fns.len() - 1, 0, String::new()));
                            i = j;
                        }
                    }
                    "impl" | "trait" => {
                        impl_head = Some((String::new(), tok == "trait"));
                    }
                    _ => {}
                }
            } else {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        if open_fns.last().map(|&(_, d)| d) == Some(depth) {
                            if let Some((fx, _)) = open_fns.pop() {
                                fns[fx].end_line = li;
                            }
                        }
                        if impls.last().map(|(_, _, d)| *d) == Some(depth) {
                            impls.pop();
                        }
                        depth = depth.saturating_sub(1);
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
    // Unterminated bodies (malformed input): close at EOF.
    let last = sf.lines.len().saturating_sub(1);
    for (fx, _) in open_fns {
        fns[fx].end_line = last;
    }
    fns.retain(|f| f.end_line >= f.open.0);
    fns
}

// ---------------------------------------------------------------------------
// the call graph

/// One parsed workspace file with its function definitions.
pub(crate) struct GraphFile {
    /// Workspace-relative `/`-separated path.
    pub(crate) path: String,
    /// File stem (module name) used to resolve qualified free calls.
    pub(crate) stem: String,
    /// The parsed source.
    pub(crate) sf: SourceFile,
    /// Function definitions in file order.
    pub(crate) fns: Vec<FnDef>,
    /// The workspace traits whose methods calls in this file may dispatch
    /// to: those it names, or all of them under a glob import.
    traits_in_scope: BTreeSet<String>,
}

/// `(file index, fn index)` — one node of the graph.
pub(crate) type FnId = (usize, usize);

/// The workspace-wide call graph.
pub struct CallGraph {
    pub(crate) files: Vec<GraphFile>,
    /// Names of the traits declared in the workspace (`trait X`).
    traits: BTreeSet<String>,
}

impl CallGraph {
    /// Parse `(rel_path, text)` pairs into a graph. Whole test files are
    /// skipped; test regions inside shipped files are masked line by
    /// line during traversal.
    pub fn build<'a>(files: impl IntoIterator<Item = &'a (String, String)>) -> CallGraph {
        let mut parsed: Vec<GraphFile> = files
            .into_iter()
            .filter(|(p, _)| !crate::is_test_file(p))
            .map(|(p, text)| {
                let sf = SourceFile::parse(p, text);
                let fns = scan_fns(&sf);
                let stem = p
                    .rsplit('/')
                    .next()
                    .unwrap_or(p)
                    .trim_end_matches(".rs")
                    .to_string();
                GraphFile {
                    path: p.clone(),
                    stem,
                    sf,
                    fns,
                    traits_in_scope: BTreeSet::new(),
                }
            })
            .collect();
        parsed.sort_by(|a, b| a.path.cmp(&b.path));
        let mut traits = BTreeSet::new();
        for line in parsed
            .iter()
            .flat_map(|f| &f.sf.lines)
            .filter(|l| !l.in_test)
        {
            for at in token_positions(&line.code, "trait", false) {
                let name = line.code[at + "trait".len()..].trim_start();
                traits.insert(ident_at(name, 0).to_string());
            }
        }
        for f in &mut parsed {
            let code = || f.sf.lines.iter().filter(|l| !l.in_test).map(|l| &l.code);
            // `::*` only ever spells a glob import.
            let glob = code().any(|c| c.contains("::*"));
            f.traits_in_scope = traits
                .iter()
                .filter(|tr| glob || code().any(|c| !token_positions(c, tr, false).is_empty()))
                .cloned()
                .collect();
        }
        CallGraph {
            files: parsed,
            traits,
        }
    }

    /// Resolve a call token to one definition: same-file wins, else the
    /// first match in path order.
    pub(crate) fn resolve(&self, from: usize, t: &CallTok) -> Option<FnId> {
        let mut first: Option<FnId> = None;
        for (fj, f) in self.files.iter().enumerate() {
            for (nj, fd) in f.fns.iter().enumerate() {
                if fd.in_test || fd.name != t.ident || !self.callable_from(from, fd) {
                    continue;
                }
                let ok = if let Some(q) = &t.qual {
                    fd.impl_type.as_deref() == Some(q.as_str()) || (!fd.has_self && f.stem == *q)
                } else if t.method {
                    fd.has_self
                } else {
                    !fd.has_self
                };
                if !ok {
                    continue;
                }
                if fj == from {
                    return Some((fj, nj));
                }
                if first.is_none() {
                    first = Some((fj, nj));
                }
            }
        }
        first
    }

    /// Whether a call in file `from` can reach `fd`: a method of a
    /// workspace trait only where that trait is in scope.
    fn callable_from(&self, from: usize, fd: &FnDef) -> bool {
        fd.trait_name.as_ref().is_none_or(|tr| {
            !self.traits.contains(tr) || self.files[from].traits_in_scope.contains(tr)
        })
    }

    /// Every implementation a method call in file `from` may dispatch to
    /// through a workspace trait in scope there (std traits — `fmt`,
    /// `next`, `clone` — are deliberately left out: their callers are
    /// everywhere).
    fn trait_methods(&self, from: usize, t: &CallTok) -> Vec<FnId> {
        let mut out = Vec::new();
        if !t.method {
            return out;
        }
        let in_scope = &self.files[from].traits_in_scope;
        for (fj, f) in self.files.iter().enumerate() {
            for (nj, fd) in f.fns.iter().enumerate() {
                if fd.in_test || !fd.has_self || fd.name != t.ident {
                    continue;
                }
                if fd
                    .trait_name
                    .as_ref()
                    .is_some_and(|tr| in_scope.contains(tr))
                {
                    out.push((fj, nj));
                }
            }
        }
        out
    }

    /// Direct callees of one function, resolved within the workspace.
    /// Test regions inside the body are skipped.
    pub(crate) fn callees(&self, (fi, ni): FnId) -> Vec<FnId> {
        let f = &self.files[fi];
        let fd = &f.fns[ni];
        let mut out = Vec::new();
        for (_, _, code) in fd.body(&f.sf) {
            for t in call_tokens(code).iter().filter(|t| !t.is_def) {
                let dispatched = self.trait_methods(fi, t);
                for id in self.resolve(fi, t).into_iter().chain(dispatched) {
                    if !out.contains(&id) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    /// Every function reachable from `root`, root included. Recursion is
    /// cut by the visited set.
    pub(crate) fn reachable(&self, root: FnId) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            for callee in self.callees(id) {
                if !seen.contains(&callee) {
                    stack.push(callee);
                }
            }
        }
        seen
    }

    /// `path::fn` (or `path::Type::fn`) label for one node.
    pub(crate) fn qualified(&self, (fi, ni): FnId) -> String {
        let f = &self.files[fi];
        format!("{}::{}", f.path, f.fns[ni].label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect();
        CallGraph::build(&owned)
    }

    fn node(g: &CallGraph, file: &str, name: &str) -> FnId {
        for (fi, f) in g.files.iter().enumerate() {
            if f.path != file {
                continue;
            }
            for (ni, fd) in f.fns.iter().enumerate() {
                if fd.name == name {
                    return (fi, ni);
                }
            }
        }
        panic!("no fn {name} in {file}");
    }

    #[test]
    fn cross_file_calls_resolve_through_helpers() {
        let g = graph(&[
            ("crates/x/src/bin/tool.rs", "fn main() { helper::run(); }\n"),
            (
                "crates/x/src/helper.rs",
                "pub fn run() { deep(); }\nfn deep() { let _ = 1; }\n",
            ),
        ]);
        let main = node(&g, "crates/x/src/bin/tool.rs", "main");
        let reach = g.reachable(main);
        assert!(reach.contains(&node(&g, "crates/x/src/helper.rs", "run")));
        assert!(reach.contains(&node(&g, "crates/x/src/helper.rs", "deep")));
    }

    #[test]
    fn recursion_terminates_and_methods_resolve() {
        let g = graph(&[(
            "crates/x/src/a.rs",
            "struct S;\nimpl S {\n    fn go(&self) { self.go(); free(); }\n}\nfn free() {}\n",
        )]);
        let go = node(&g, "crates/x/src/a.rs", "go");
        let reach = g.reachable(go);
        assert!(reach.contains(&node(&g, "crates/x/src/a.rs", "free")));
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn workspace_trait_calls_reach_every_impl() {
        let g = graph(&[
            (
                "crates/x/src/a.rs",
                "pub trait Comm {\n    fn go(&mut self);\n}\nstruct A;\nimpl Comm for A {\n    fn go(&mut self) { a_only(); }\n}\nfn a_only() {}\nfn drive<C: Comm>(c: &mut C) { c.go(); }\n",
            ),
            (
                "crates/x/src/b.rs",
                "struct B;\nimpl Comm for B {\n    fn go(&mut self) { b_only(); }\n}\nfn b_only() {}\nimpl Iterator for B {\n    fn next(&mut self) -> Option<u8> { None }\n}\n",
            ),
        ]);
        let reach = g.reachable(node(&g, "crates/x/src/a.rs", "drive"));
        assert!(reach.contains(&node(&g, "crates/x/src/a.rs", "a_only")));
        assert!(reach.contains(&node(&g, "crates/x/src/b.rs", "b_only")));
        // Std traits are not dispatch candidates.
        assert!(g.trait_methods(1, &call_tokens("it.next()")[0]).is_empty());
    }

    #[test]
    fn trait_methods_are_callable_only_where_their_trait_is_in_scope() {
        let g = graph(&[
            (
                "crates/x/src/a.rs",
                "pub trait Comm {\n    fn any(&mut self) -> bool;\n}\npub struct A;\nimpl Comm for A {\n    fn any(&mut self) -> bool { a_only() }\n}\nfn a_only() -> bool { true }\n",
            ),
            (
                "crates/x/src/bound.rs",
                "use crate::a::Comm;\nfn poll<C: Comm>(c: &mut C) -> bool { c.any() }\n",
            ),
            (
                "crates/x/src/dynamic.rs",
                "fn poll_dyn(c: &mut dyn crate::a::Comm) -> bool { c.any() }\n",
            ),
            (
                "crates/x/src/glob.rs",
                "use crate::a::*;\nfn poll_all(c: &mut A) -> bool { c.any() }\n",
            ),
            (
                "crates/x/src/iter.rs",
                "fn scan(v: &[u8]) -> bool { v.iter().any(|x| *x > 0) }\n",
            ),
        ]);
        let a_only = node(&g, "crates/x/src/a.rs", "a_only");
        for (file, caller) in [
            ("bound.rs", "poll"),
            ("dynamic.rs", "poll_dyn"),
            ("glob.rs", "poll_all"),
        ] {
            let reach = g.reachable(node(&g, &format!("crates/x/src/{file}"), caller));
            assert!(reach.contains(&a_only), "{caller} must reach the impl");
        }
        // The trait is not in scope: an iterator's `.any(` is not `Comm::any`.
        let reach = g.reachable(node(&g, "crates/x/src/iter.rs", "scan"));
        assert_eq!(reach.len(), 1, "scan reached {reach:?}");
    }

    #[test]
    fn test_files_and_test_regions_stay_out() {
        let g = graph(&[
            ("crates/x/tests/t.rs", "fn main() { boom(); }\n"),
            (
                "crates/x/src/a.rs",
                "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn dead() { super::live(); }\n}\n",
            ),
        ]);
        assert!(g.files.iter().all(|f| !f.path.contains("/tests/")));
        let live = node(&g, "crates/x/src/a.rs", "live");
        assert_eq!(g.reachable(live).len(), 1);
    }
}
