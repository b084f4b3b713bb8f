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

use std::path::PathBuf;
use std::process::ExitCode;

use sssp_lint::{concurrency, panics, protocol, Workspace};

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
    if let Mode::ListRules = mode {
        print!("{}", sssp_lint::rules::list_rules_text());
        return ExitCode::SUCCESS;
    }
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("sssp-lint: cannot read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let (table, findings, pass, clean) = match mode {
        Mode::Protocol => {
            let a = protocol::analyze(&ws);
            let events: usize = a.schedules.iter().map(|s| s.events.len()).sum();
            let clean = format!("protocol clean ({events} collective call sites)");
            (a.table.unwrap_or_default(), a.findings, "protocol", clean)
        }
        Mode::Concurrency => {
            let a = concurrency::analyze(&ws);
            let clean = format!("concurrency clean ({} locks)", a.num_locks);
            (a.lock_table, a.findings, "concurrency", clean)
        }
        Mode::Panics => {
            let a = panics::analyze(&ws);
            let clean = format!(
                "panic audit clean ({} roots, {} sites)",
                a.num_roots, a.num_sites
            );
            (a.table, a.findings, "panic", clean)
        }
        Mode::Check | Mode::ListRules => return check(&ws),
    };
    print!("{table}");
    if findings.is_empty() {
        eprintln!("sssp-lint: {clean}");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!("{f}");
    }
    eprintln!("sssp-lint: {} {pass} finding(s)", findings.len());
    ExitCode::FAILURE
}

/// Lint the workspace against the rule set: findings and the summary on
/// stdout.
fn check(ws: &Workspace) -> ExitCode {
    let n_files = ws.files.len();
    let diags = ws.lint();
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("sssp-lint: clean ({n_files} files checked)");
        return ExitCode::SUCCESS;
    }
    println!(
        "sssp-lint: {} issue(s) in {n_files} files checked",
        diags.len()
    );
    ExitCode::FAILURE
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("sssp-lint: {msg} (try --help)");
    ExitCode::from(2)
}
