//! The lexical function model every flow-aware pass shares: function
//! definitions (`scan_fns`), call-shaped tokens (`call_tokens`) and
//! the intra-workspace call graph built from them.
//!
//! The panic-reachability pass builds the graph over the *whole*
//! workspace: a panic site in the comm primitives is reachable from a
//! bench binary's `main` through every engine layer in between. The
//! protocol pass builds it over the `rules::PROTOCOL` files and walks it
//! with plain `CallGraph::resolve`, no trait fan-out.
//!
//! Resolution is lexical: qualified calls (`Type::f`) match the `impl`
//! target or a free function in the module whose file stem equals the
//! qualifier (`Self::f` qualifies by the caller's own `impl` target),
//! method calls (`.f(`) match `self` methods, bare calls match
//! free functions. Same-file definitions win over cross-file ones; the
//! first match wins otherwise. For reachability a method call
//! additionally reaches every same-named method of a *workspace trait*
//! (`impl Comm for …`, a default body in `trait …`): the engine
//! dispatches statically through such traits, so any implementation may
//! be the callee. As in Rust, a trait's methods are callable only where
//! the trait is in scope — in a file that names it (a `use`, a bound,
//! `impl Trait`, `dyn Trait`) or has a glob import — so elsewhere a call
//! neither resolves nor dispatches to them. Unresolvable calls (std,
//! vendored deps, closures) are terminal. The graph over-approximates on
//! same-named methods across types — fine for an auditor that must not
//! under-report reachability.

use std::collections::{BTreeMap, BTreeSet};

use crate::protocol::{parse_marker, Marker};
use crate::source::{
    ident_at, ident_before, ident_char, token_positions, tokens, Line, SourceFile,
};

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
    tokens(code)
        .filter(|&(at, tok)| {
            tok.starts_with(|c: char| ident_char(c) && !c.is_ascii_digit())
                && code[at + tok.len()..].starts_with('(')
        })
        .map(|(at, tok)| {
            let before = &code[..at];
            let method = before.ends_with('.');
            let owner = |sep: &str| {
                before
                    .strip_suffix(sep)
                    .and_then(|b| ident_before(b, b.len()))
                    .map(str::to_string)
            };
            CallTok {
                ident: tok.to_string(),
                recv: owner("."),
                qual: if method { None } else { owner("::") },
                method,
                is_def: before
                    .trim_end()
                    .strip_suffix("fn")
                    .is_some_and(|b| !b.ends_with(ident_char)),
            }
        })
        .collect()
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
    /// `(line index, byte offset just after the opening brace)`.
    pub(crate) open: (usize, usize),
    /// `(line index, byte offset of the closing brace)`.
    pub(crate) close: (usize, usize),
}

impl FnDef {
    /// `Type::name` for a method or associated function, else `name`.
    pub(crate) fn label(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// The code between the body's braces as `(line index, line, code,
    /// depths)`, one item per line; test lines are skipped.
    pub(crate) fn body<'a>(
        &'a self,
        sf: &'a SourceFile,
    ) -> impl Iterator<Item = (usize, &'a Line, &'a str, &'a [u32])> + 'a {
        (self.open.0..=self.close.0).filter_map(move |li| {
            let line = sf.lines.get(li).filter(|l| !l.in_test)?;
            let from = if li == self.open.0 { self.open.1 } else { 0 };
            let to = if li == self.close.0 {
                self.close.1
            } else {
                line.code.len()
            };
            Some((li, line, &line.code[from..to], &line.depth[from..to]))
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

/// An item header being read, up to the `{` or `;` at its own depth.
enum Head {
    /// The signature of `fns[index]`.
    Fn(usize),
    /// An `impl`/`trait` header: its text and whether it is a `trait`.
    Impl(String, bool),
}

/// Scan a parsed file for the function definitions outside test regions,
/// with their `impl`/`trait` context and `protocol-entry` markers.
/// Declarations without a body (trait methods ending in `;`) are dropped.
pub(crate) fn scan_fns(sf: &SourceFile) -> Vec<FnDef> {
    let mut fns: Vec<FnDef> = Vec::new();
    // Open bodies and `impl`/`trait` blocks with the depth of their braces.
    let mut bodies: Vec<(usize, u32)> = Vec::new();
    let mut impls: Vec<(String, Option<String>, u32)> = Vec::new();
    let mut head: Option<(Head, u32)> = None;
    let mut pending_entry: Option<String> = None;
    for (li, line) in sf.lines.iter().enumerate() {
        if let Some(Marker::Entry(b)) = parse_marker(&line.raw) {
            pending_entry = Some(b);
        }
        for (at, tok) in tokens(&line.code) {
            let d = line.depth[at];
            match (&mut head, tok) {
                (Some((h, hd)), "{" | ";") if *hd == d => {
                    match (h, tok) {
                        (Head::Fn(fx), "{") => {
                            fns[*fx].open = (li, at + 1);
                            bodies.push((*fx, d));
                        }
                        (Head::Fn(_), _) => {
                            fns.pop();
                        }
                        (Head::Impl(text, is_trait), _) => {
                            let target = impl_target(text, *is_trait).filter(|_| tok == "{");
                            impls.extend(target.map(|(t, tr)| (t, tr, d)));
                        }
                    }
                    head = None;
                }
                (Some((Head::Fn(fx), _)), "self") => fns[*fx].has_self = true,
                (Some((Head::Impl(text, _), _)), _) => text.push_str(tok),
                (Some(_), _) => {}
                (None, "}") => {
                    if let Some(&(fx, _)) = bodies.last().filter(|b| b.1 == d) {
                        fns[fx].close = (li, at);
                        bodies.pop();
                    }
                    if impls.last().is_some_and(|i| i.2 == d) {
                        impls.pop();
                    }
                }
                (None, "fn") => {
                    let name = ident_at(line.code[at + 2..].trim_start(), 0);
                    // A test fn takes its marker, and its body is not read.
                    let entry = pending_entry.take_if(|_| !name.is_empty());
                    if !name.is_empty() && !line.in_test {
                        fns.push(FnDef {
                            name: name.to_string(),
                            impl_type: impls.last().map(|(t, _, _)| t.clone()),
                            trait_name: impls.last().and_then(|(_, tr, _)| tr.clone()),
                            has_self: false,
                            entry,
                            open: (0, 0),
                            close: (0, 0),
                        });
                        head = Some((Head::Fn(fns.len() - 1), d));
                    }
                }
                (None, "impl" | "trait") => {
                    head = Some((Head::Impl(String::new(), tok == "trait"), d))
                }
                (None, _) => {}
            }
        }
    }
    // A signature or body left open at EOF (malformed input): drop the
    // one, close the other there.
    if let Some((Head::Fn(_), _)) = head {
        fns.pop();
    }
    let last = sf.lines.len().saturating_sub(1);
    for (fx, _) in bodies {
        fns[fx].close = (last, sf.lines.get(last).map_or(0, |l| l.code.len()));
    }
    fns
}

// ---------------------------------------------------------------------------
// the call graph

/// One workspace file with its function definitions.
pub(crate) struct GraphFile<'a> {
    /// The parsed source.
    pub(crate) sf: &'a SourceFile,
    /// File stem (module name) used to resolve qualified free calls.
    pub(crate) stem: String,
    /// Function definitions in file order.
    pub(crate) fns: Vec<FnDef>,
    /// The workspace traits whose methods calls in this file may dispatch
    /// to: those it names, or all of them under a glob import.
    traits_in_scope: BTreeSet<String>,
}

/// `(file index, fn index)` — one node of the graph.
pub(crate) type FnId = (usize, usize);

/// The call graph over a set of workspace files.
pub struct CallGraph<'a> {
    pub(crate) files: Vec<GraphFile<'a>>,
    /// Names of the traits declared in the workspace (`trait X`).
    traits: BTreeSet<String>,
    /// The definitions by name, in path order.
    by_name: BTreeMap<String, Vec<FnId>>,
}

impl<'a> CallGraph<'a> {
    /// Build the graph over parsed files in path order. Whole test files
    /// are skipped; test regions inside shipped files are masked line by
    /// line during traversal.
    pub fn build(files: impl IntoIterator<Item = &'a SourceFile>) -> CallGraph<'a> {
        let mut parsed: Vec<GraphFile> = files
            .into_iter()
            .filter(|sf| !crate::is_test_file(&sf.rel_path))
            .map(|sf| GraphFile {
                sf,
                stem: sf
                    .rel_path
                    .rsplit('/')
                    .next()
                    .unwrap_or_default()
                    .trim_end_matches(".rs")
                    .to_string(),
                fns: scan_fns(sf),
                traits_in_scope: BTreeSet::new(),
            })
            .collect();
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
        let mut g = CallGraph {
            files: parsed,
            traits,
            by_name: BTreeMap::new(),
        };
        let names: Vec<(String, FnId)> =
            g.defs().map(|(id, _, fd)| (fd.name.clone(), id)).collect();
        for (name, id) in names {
            g.by_name.entry(name).or_default().push(id);
        }
        g
    }

    /// Every definition with its node and file.
    pub(crate) fn defs(&self) -> impl Iterator<Item = (FnId, &GraphFile<'a>, &FnDef)> + '_ {
        let files = self.files.iter().enumerate();
        files.flat_map(|(fi, f)| {
            f.fns
                .iter()
                .enumerate()
                .map(move |(ni, fd)| ((fi, ni), f, fd))
        })
    }

    /// The definitions named `name`, in path order.
    fn named<'s>(
        &'s self,
        name: &str,
    ) -> impl Iterator<Item = (FnId, &'s GraphFile<'a>, &'s FnDef)> {
        let ids = self.by_name.get(name).into_iter().flatten();
        ids.map(|&(fi, ni)| ((fi, ni), &self.files[fi], &self.files[fi].fns[ni]))
    }

    /// Resolve a call token in the body of `caller` to one definition:
    /// same-file wins, else the first match in path order.
    pub(crate) fn resolve(&self, (from, caller): FnId, t: &CallTok) -> Option<FnId> {
        let qual = match (t.qual.as_deref(), &self.files[from].fns[caller].impl_type) {
            (Some("Self"), Some(own)) => Some(own.as_str()),
            (q, _) => q,
        };
        let mut first: Option<FnId> = None;
        for (id, f, fd) in self.named(&t.ident) {
            if !self.callable_from(from, fd) {
                continue;
            }
            let ok = if let Some(q) = qual {
                fd.impl_type.as_deref() == Some(q) || (!fd.has_self && f.stem == q)
            } else {
                fd.has_self == t.method
            };
            if ok && id.0 == from {
                return Some(id);
            }
            if ok && first.is_none() {
                first = Some(id);
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
        if !t.method {
            return Vec::new();
        }
        let in_scope = &self.files[from].traits_in_scope;
        let dispatched = |fd: &FnDef| {
            let tr = fd.trait_name.as_ref();
            fd.has_self && tr.is_some_and(|tr| in_scope.contains(tr))
        };
        let defs = self.named(&t.ident).filter(|(_, _, fd)| dispatched(fd));
        defs.map(|(id, _, _)| id).collect()
    }

    /// Direct callees of one function, resolved within the workspace.
    /// Test regions inside the body are skipped.
    pub(crate) fn callees(&self, (fi, ni): FnId) -> Vec<FnId> {
        let f = &self.files[fi];
        let fd = &f.fns[ni];
        let mut out = Vec::new();
        for (_, _, code, _) in fd.body(f.sf) {
            for t in call_tokens(code).iter().filter(|t| !t.is_def) {
                let dispatched = self.trait_methods(fi, t);
                for id in self.resolve((fi, ni), t).into_iter().chain(dispatched) {
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
        format!("{}::{}", f.sf.rel_path, f.fns[ni].label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph<'static> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect();
        CallGraph::build(&Box::leak(Box::new(crate::Workspace::parse(&owned))).files)
    }

    fn node(g: &CallGraph, file: &str, name: &str) -> FnId {
        for (fi, f) in g.files.iter().enumerate() {
            if f.sf.rel_path != file {
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
    fn self_qualified_calls_resolve_to_the_callers_impl() {
        let g = graph(&[
            (
                "crates/x/src/a.rs",
                "struct A;\nimpl A {\n    pub fn build() { Self::helper(); }\n    fn helper() {}\n}\n",
            ),
            (
                "crates/x/src/b.rs",
                "struct B;\nimpl B {\n    fn helper() {}\n}\n",
            ),
        ]);
        let reach = g.reachable(node(&g, "crates/x/src/a.rs", "build"));
        assert!(reach.contains(&node(&g, "crates/x/src/a.rs", "helper")));
        assert!(!reach.contains(&node(&g, "crates/x/src/b.rs", "helper")));
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
    fn array_return_types_keep_their_fn() {
        let src = "\
trait Comm {
    fn allreduce<const N: usize>(&mut self, lanes: [Lane; N]) -> [u64; N];
}
impl Comm for Ctx {
    fn allreduce<const N: usize>(&mut self, lanes: [Lane; N]) -> [u64; N] {
        self.reduce(lanes)
    }
}
fn quad(x: u8) -> Vec<[u8; 4]> {
    vec![[x; 4]]
}
fn after() {}
";
        let sf = SourceFile::parse("crates/x/src/a.rs", src);
        let fns = scan_fns(&sf);
        let names: Vec<(&str, Option<&str>)> = fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        // The trait's bodyless declaration is dropped; the impl's body,
        // the array-in-generic return and the fn after them are kept.
        assert_eq!(
            names,
            vec![("allreduce", Some("Ctx")), ("quad", None), ("after", None)]
        );
        assert_eq!((fns[0].open.0, fns[0].close.0), (4, 6));
        assert_eq!((fns[1].open.0, fns[1].close.0), (8, 10));
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
        assert!(g.files.iter().all(|f| !f.sf.rel_path.contains("/tests/")));
        let live = node(&g, "crates/x/src/a.rs", "live");
        assert_eq!(g.reachable(live).len(), 1);
    }
}
