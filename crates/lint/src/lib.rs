//! `sssp-lint` — the project-specific static analysis gate.
//!
//! Rustc and clippy cannot see this repository's *architectural*
//! invariants: that engine hot paths never panic mid-superstep, that the
//! BSP simulation stays single-threaded outside `sssp-comm::threaded`,
//! that vertex ids and tentative distances are never silently truncated,
//! and that the integer kernels stay float-free so runs are bit-for-bit
//! reproducible. This crate walks every `.rs` file in the workspace and
//! enforces those rules lexically (comments and string contents stripped,
//! `#[cfg(test)]` regions masked).
//!
//! Violations that are deliberate carry an inline marker on the same line
//! or in the comment block directly above:
//!
//! ```text
//! // sssp-lint: allow(rule-name): one-line justification
//! ```
//!
//! The analyzer runs three ways: `cargo run -p sssp-lint -- --check`,
//! a test in this crate that lints the whole workspace (making plain
//! `cargo test` the gate), and a CI job.
//!
//! Every mode reads one [`Workspace`]: the tree's files read, sorted and
//! parsed once by the one lexer in [`source`]. Three flow-aware passes
//! sit on it and on one function model ([`callgraph`]), and each renders
//! a golden table: `--protocol` (the collective schedule, [`protocol`]),
//! `--concurrency` (the lock-order graph, [`concurrency`]) and `--panics`
//! (panic reachability and unwind safety, [`panics`]). Which files a rule
//! or a pass reads is a named [`rules::Scope`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod concurrency;
pub mod panics;
pub mod protocol;
pub mod rules;
pub mod source;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use rules::{Rule, Scope, RULES};
use source::SourceFile;

/// One finding of any pass: a rule violated at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative, `/`-separated path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Name of the violated rule.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Directory names never descended into: build output, the vendored
/// dependency shims (external API surface, not project code), VCS
/// metadata, the lint crate's own seeded-violation fixtures, and the
/// standalone benchmark package (its own workspace — its free functions
/// would shadow same-named workspace ones in the lexical call graph).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "benchmark"];

/// Files treated as test code wholesale (on top of inline
/// `#[cfg(test)]` masking): integration test trees and `tests.rs`
/// modules included via `#[cfg(test)] mod tests;` in their parent.
pub(crate) fn is_test_file(rel_path: &str) -> bool {
    rel_path.contains("/tests/")
        || rel_path.ends_with("/tests.rs")
        || rel_path.starts_with("tests/")
}

/// Run one rule over a parsed file: its findings outside test code and
/// not allowed by a marker. Out-of-scope files yield nothing.
pub(crate) fn check_rule(rule: &Rule, file: &SourceFile) -> Vec<Diagnostic> {
    rule_findings(rule, file, || (rule.check)(file))
}

/// [`check_rule`] with the rule's raw findings computed by `check`, which
/// runs only when the rule applies to the file: for a pass that already
/// holds what the rule's check would rebuild.
pub(crate) fn rule_findings(
    rule: &Rule,
    file: &SourceFile,
    check: impl FnOnce() -> Vec<(usize, String)>,
) -> Vec<Diagnostic> {
    if !rule.scope.matches(&file.rel_path) || is_test_file(&file.rel_path) {
        return Vec::new();
    }
    check()
        .into_iter()
        .filter(|(li, _)| {
            let line = &file.lines[*li];
            !line.in_test && !line.allows.iter().any(|a| a == rule.name)
        })
        .map(|(li, message)| Diagnostic {
            file: file.rel_path.clone(),
            line: li + 1,
            rule: rule.name,
            message,
        })
        .collect()
}

/// Lint one file's text under its workspace-relative path. Pure; this is
/// what fixture self-tests call.
pub fn lint_text(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    Workspace::parse(&[(rel_path.to_string(), text.to_string())]).lint()
}

/// Append one section of a golden table: its title line, then its rows
/// (each ending in a newline), or `  (none)` when there are none.
pub(crate) fn section(out: &mut String, title: &str, rows: impl IntoIterator<Item = String>) {
    out.push_str(title);
    out.push('\n');
    let empty = out.len();
    out.extend(rows);
    if out.len() == empty {
        out.push_str("  (none)\n");
    }
}

/// The `.rs` files of a tree, read and parsed once: what the rule engine
/// and the three passes run on.
pub struct Workspace {
    /// The parsed files in path order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Read and parse every `.rs` file under `root`, skipping `SKIP_DIRS`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut texts = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if entry.file_type()?.is_dir() {
                    if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                        stack.push(path);
                    }
                } else if name.ends_with(".rs") {
                    let rel = path
                        .strip_prefix(root)
                        .map_err(io::Error::other)?
                        .components()
                        .map(|c| c.as_os_str().to_string_lossy().into_owned())
                        .collect::<Vec<_>>()
                        .join("/");
                    let text = std::fs::read_to_string(&path).map_err(|e| {
                        io::Error::new(e.kind(), format!("{}: {e}", path.display()))
                    })?;
                    texts.push((rel, text));
                }
            }
        }
        Ok(Workspace::parse(&texts))
    }

    /// Parse `(rel_path, text)` pairs into a workspace in path order.
    pub fn parse(texts: &[(String, String)]) -> Workspace {
        let mut files: Vec<SourceFile> = texts
            .iter()
            .map(|(path, text)| SourceFile::parse(path, text))
            .collect();
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Workspace { files }
    }

    /// The files `scope` admits, in path order.
    pub fn scoped<'a>(&'a self, scope: &'a Scope) -> impl Iterator<Item = &'a SourceFile> + 'a {
        self.files.iter().filter(|f| scope.matches(&f.rel_path))
    }

    /// Run every rule over every file. Diagnostics are sorted by (file,
    /// line, rule).
    pub fn lint(&self) -> Vec<Diagnostic> {
        let mut out: Vec<Diagnostic> = self
            .files
            .iter()
            .flat_map(|f| RULES.iter().flat_map(move |r| check_rule(r, f)))
            .collect();
        out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        out
    }
}

/// Locate the workspace root from this crate's manifest dir (the gate
/// test and the CLI default both rely on this).
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_files_are_exempt_wholesale() {
        let src = "fn f() { x.unwrap(); }\n";
        assert!(!lint_text("crates/core/src/engine/tests.rs", src)
            .iter()
            .any(|d| d.rule == "no-panic-hot-path"));
        assert!(lint_text("crates/core/src/engine/short.rs", src)
            .iter()
            .any(|d| d.rule == "no-panic-hot-path"));
    }

    #[test]
    fn allow_marker_suppresses_only_named_rule() {
        let marked = "fn f() { x.unwrap(); } // sssp-lint: allow(no-panic-hot-path): test\n";
        assert!(lint_text("crates/core/src/engine/short.rs", marked).is_empty());
        let wrong = "fn f() { x.unwrap(); } // sssp-lint: allow(no-lossy-cast)\n";
        assert!(!lint_text("crates/core/src/engine/short.rs", wrong).is_empty());
    }

    #[test]
    fn out_of_scope_files_are_clean() {
        let src = "fn f() { x.unwrap(); let y = v as u32; }\n";
        assert!(lint_text("crates/graph/src/gen.rs", src)
            .iter()
            .all(|d| d.rule != "no-panic-hot-path" && d.rule != "no-lossy-cast"));
    }

    #[test]
    fn diagnostics_render_with_file_and_line() {
        let d = Diagnostic {
            file: "crates/core/src/engine/short.rs".into(),
            line: 7,
            rule: "no-panic-hot-path",
            message: "boom".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/core/src/engine/short.rs:7: [no-panic-hot-path] boom"
        );
    }
}
