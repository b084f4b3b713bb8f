//! CLI for the project lint gate.
//!
//! ```text
//! cargo run -p sssp-lint -- --check            # lint the workspace
//! cargo run -p sssp-lint -- --check --root DIR # lint another tree
//! cargo run -p sssp-lint -- --list-rules       # show the rule set
//! cargo run -p sssp-lint -- --protocol         # the engine's collective
//!                                              # schedule
//! cargo run -p sssp-lint -- --concurrency      # the lock-order model
//! cargo run -p sssp-lint -- --panics           # panic reachability and
//!                                              # unwind safety
//! ```
//!
//! Each pass prints its table on stdout (diffed against the golden in
//! `crates/lint/golden/`) and its findings on stderr. Exits 0 when clean,
//! 1 when violations are found, 2 on usage or I/O errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sssp_lint::{concurrency, panics, protocol, Diagnostic};

/// What one invocation runs.
enum Mode {
    Check,
    ListRules,
    Protocol,
    Concurrency,
    Panics,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut mode = Mode::Check;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => mode = Mode::Check,
            "--list-rules" => mode = Mode::ListRules,
            "--protocol" => mode = Mode::Protocol,
            "--concurrency" => mode = Mode::Concurrency,
            "--panics" => mode = Mode::Panics,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory argument"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: sssp-lint [--check | --list-rules | --protocol | --concurrency | --panics]\n\
                     \x20                [--root DIR]\n\
                     Lints every .rs file in the workspace against the \
                     project rules.\nMark deliberate exceptions with \
                     `// sssp-lint: allow(rule-name): reason`.\n\
                     --protocol extracts the collective schedule of every \
                     SPMD program.\n\
                     --concurrency builds the lock-order graph of the comm, \
                     engine and serving sources.\n\
                     --panics walks the call graph from every process and \
                     thread root and\nclassifies reachable panic sites with \
                     their held locks.\n\
                     Each pass prints its table on stdout and its findings \
                     on stderr."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let root = root.unwrap_or_else(sssp_lint::default_root);

    match mode {
        Mode::ListRules => {
            print!("{}", sssp_lint::rules::list_rules_text());
            ExitCode::SUCCESS
        }
        Mode::Check => check(&root),
        Mode::Protocol => {
            let a = match read_inputs(&root, protocol::in_scope) {
                Ok(inputs) => protocol::analyze(&inputs),
                Err(code) => return code,
            };
            let events: usize = a.schedules.iter().map(|s| s.events.len()).sum();
            report(
                a.table.as_deref().unwrap_or(""),
                &a.findings,
                "protocol",
                format!("protocol clean ({events} collective call sites)"),
            )
        }
        Mode::Concurrency => {
            let a = match read_inputs(&root, concurrency::in_scope) {
                Ok(inputs) => concurrency::analyze(&inputs),
                Err(code) => return code,
            };
            report(
                &a.lock_table,
                &a.findings,
                "concurrency",
                format!("concurrency clean ({} locks)", a.num_locks),
            )
        }
        Mode::Panics => {
            let a = match read_inputs(&root, |_| true) {
                Ok(inputs) => panics::analyze(&inputs),
                Err(code) => return code,
            };
            report(
                &a.table,
                &a.findings,
                "panic",
                format!(
                    "panic audit clean ({} roots, {} sites)",
                    a.num_roots, a.num_sites
                ),
            )
        }
    }
}

/// Lint the workspace against the rule set.
fn check(root: &Path) -> ExitCode {
    let n_files = match sssp_lint::workspace_files(root) {
        Ok(files) => files.len(),
        Err(e) => {
            eprintln!("sssp-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    match sssp_lint::lint_workspace(root) {
        Ok(diags) if diags.is_empty() => {
            println!("sssp-lint: clean ({n_files} files checked)");
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            println!(
                "sssp-lint: {} issue(s) in {n_files} files checked",
                diags.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sssp-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// The in-scope workspace files of one pass; an I/O error is reported
/// and becomes exit code 2.
fn read_inputs(root: &Path, in_scope: fn(&str) -> bool) -> Result<Vec<(String, String)>, ExitCode> {
    sssp_lint::read_inputs(root, in_scope).map_err(|e| {
        eprintln!("sssp-lint: cannot read {}: {e}", root.display());
        ExitCode::from(2)
    })
}

/// Print a pass's table on stdout and its findings on stderr; exit 1 on
/// findings.
fn report(table: &str, findings: &[Diagnostic], pass: &str, clean: String) -> ExitCode {
    print!("{table}");
    if findings.is_empty() {
        eprintln!("sssp-lint: {clean}");
        return ExitCode::SUCCESS;
    }
    for f in findings {
        eprintln!("{f}");
    }
    eprintln!("sssp-lint: {} {pass} finding(s)", findings.len());
    ExitCode::FAILURE
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("sssp-lint: {msg} (try --help)");
    ExitCode::from(2)
}
