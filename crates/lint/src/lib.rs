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

use rules::RULES;
use source::SourceFile;

/// One finding: a rule violated at a file/line.
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

/// Lint one file's text under its workspace-relative path. Pure; this is
/// what fixture self-tests call.
pub fn lint_text(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel_path, text);
    let whole_file_test = is_test_file(rel_path);
    let mut out = Vec::new();
    for rule in RULES {
        if !rule.scope.matches(rel_path) {
            continue;
        }
        for (li, message) in (rule.check)(&file) {
            let line = &file.lines[li];
            if whole_file_test || line.in_test {
                continue;
            }
            if line.allows.iter().any(|a| a == rule.name) {
                continue;
            }
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line: li + 1,
                rule: rule.name,
                message,
            });
        }
    }
    out
}

/// Collect every `.rs` file under `root`, skipping [`SKIP_DIRS`].
/// Returned paths are workspace-relative with `/` separators, sorted.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
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
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint the whole workspace rooted at `root`. Diagnostics are sorted by
/// (file, line, rule).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for (rel, path) in workspace_files(root)? {
        let text = std::fs::read_to_string(&path)?;
        out.extend(lint_text(&rel, &text));
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
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
