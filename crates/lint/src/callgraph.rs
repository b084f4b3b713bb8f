//! Intra-workspace call graph for the panic-reachability pass.
//!
//! Reuses the protocol walker's function scanner and call tokenizer
//! (`protocol::scan_fns` / `call_tokens`) but spans the *whole*
//! workspace instead of only the traversable engine files: a panic site
//! in the comm primitives is reachable from a bench binary's `main`
//! through every engine layer in between.
//!
//! Resolution is lexical, mirroring the protocol model: qualified calls
//! (`Type::f`) match the `impl` target or a free function in the module
//! whose file stem equals the qualifier, method calls (`.f(`) match
//! `self` methods, bare calls match free functions. Same-file
//! definitions win over cross-file ones; the first match wins otherwise.
//! A method call additionally reaches every same-named method of a
//! *workspace trait* (`impl Comm for …`, a default body in `trait …`):
//! the engine dispatches statically through such traits, so any
//! implementation may be the callee. Unresolvable calls (std, vendored
//! deps, closures) are terminal. The graph over-approximates on
//! same-named methods across types — fine for an auditor that must not
//! under-report reachability.

use std::collections::BTreeSet;

use crate::protocol::{call_tokens, scan_fns, CallTok, FnDef};
use crate::source::SourceFile;

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
    pub fn build(files: &[(String, String)]) -> CallGraph {
        let mut parsed: Vec<GraphFile> = files
            .iter()
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
            for at in crate::rules::token_positions(&line.code, "trait", false) {
                let name = line.code[at + "trait".len()..].trim_start();
                let end = name.find(|c: char| !(c.is_alphanumeric() || c == '_'));
                traits.insert(name[..end.unwrap_or(name.len())].to_string());
            }
        }
        CallGraph {
            files: parsed,
            traits,
        }
    }

    /// Resolve a call token to a definition, same semantics as the
    /// protocol model's resolver (same-file wins, else first match).
    pub(crate) fn resolve(&self, from: usize, t: &CallTok) -> Option<FnId> {
        let mut first: Option<FnId> = None;
        for (fj, f) in self.files.iter().enumerate() {
            for (nj, fd) in f.fns.iter().enumerate() {
                if fd.in_test || fd.name != t.ident {
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

    /// Every implementation a method call may dispatch to through a trait
    /// defined in the workspace (std traits — `fmt`, `next`, `clone` —
    /// are deliberately left out: their callers are everywhere).
    fn trait_methods(&self, t: &CallTok) -> Vec<FnId> {
        let mut out = Vec::new();
        if !t.method {
            return out;
        }
        for (fj, f) in self.files.iter().enumerate() {
            for (nj, fd) in f.fns.iter().enumerate() {
                if fd.in_test || !fd.has_self || fd.name != t.ident {
                    continue;
                }
                if fd
                    .trait_name
                    .as_ref()
                    .is_some_and(|tr| self.traits.contains(tr))
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
        for li in fd.open.0..=fd.end_line.min(f.sf.lines.len().saturating_sub(1)) {
            let line = &f.sf.lines[li];
            if line.in_test {
                continue;
            }
            let code: String = if li == fd.open.0 {
                line.code.chars().skip(fd.open.1).collect()
            } else {
                line.code.clone()
            };
            for t in call_tokens(&code) {
                if t.is_def {
                    continue;
                }
                let dispatched = self.trait_methods(&t);
                for id in self.resolve(fi, &t).into_iter().chain(dispatched) {
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
        let fd = &f.fns[ni];
        match &fd.impl_type {
            Some(t) => format!("{}::{}::{}", f.path, t, fd.name),
            None => format!("{}::{}", f.path, fd.name),
        }
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
        assert!(g.trait_methods(&call_tokens("it.next()")[0]).is_empty());
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
