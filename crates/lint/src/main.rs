//! CLI for the project lint gate.
//!
//! ```text
//! cargo run -p sssp-lint -- --check            # lint the workspace
//! cargo run -p sssp-lint -- --check --root DIR # lint another tree
//! cargo run -p sssp-lint -- --list-rules       # show the rule set
//! cargo run -p sssp-lint -- --protocol         # extract the engine's
//!                                              # collective schedule
//! cargo run -p sssp-lint -- --concurrency      # lock-order + channel
//!                                              # topology models
//! cargo run -p sssp-lint -- --concurrency-locks     # lock table only
//! cargo run -p sssp-lint -- --concurrency-channels  # channel table only
//! cargo run -p sssp-lint -- --panics           # panic-reachability &
//!                                              # unwind-safety audit
//! cargo run -p sssp-lint -- --panics-table     # table only (golden diffs)
//! ```
//!
//! Exits 0 when clean, 1 when violations are found, 2 on usage or I/O
//! errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut protocol = false;
    // None = not requested; Some(None) = both tables; Some(Some(..)) = one.
    let mut concurrency: Option<Option<&'static str>> = None;
    // None = not requested; Some(true) = table only (for golden diffs).
    let mut panics: Option<bool> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--list-rules" => list_rules = true,
            "--protocol" => protocol = true,
            "--concurrency" => concurrency = Some(None),
            "--concurrency-locks" => concurrency = Some(Some("locks")),
            "--concurrency-channels" => concurrency = Some(Some("channels")),
            "--panics" => panics = Some(false),
            "--panics-table" => panics = Some(true),
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory argument"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: sssp-lint [--check] [--root DIR] [--list-rules] [--protocol]\n\
                     \x20                [--concurrency | --concurrency-locks | --concurrency-channels]\n\
                     \x20                [--panics | --panics-table]\n\
                     Lints every .rs file in the workspace against the \
                     project rules.\nMark deliberate exceptions with \
                     `// sssp-lint: allow(rule-name): reason`.\n\
                     --protocol extracts the collective schedule of the \
                     engine's epoch loop\nand prints the normalized \
                     protocol table.\n\
                     --concurrency builds the lock-order graph and channel \
                     topology\nfrom the comm and threaded-engine sources and \
                     prints both tables;\nthe -locks/-channels variants print \
                     one table (for golden diffs).\n\
                     --panics walks the call graph from every process and \
                     thread root,\nclassifies reachable panic sites with their \
                     held locks, prints the\nreachability table and enforces \
                     the unwind-safety rules;\n--panics-table prints the table \
                     only (for golden diffs)."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if list_rules {
        print!("{}", sssp_lint::rules::list_rules_text());
        return ExitCode::SUCCESS;
    }

    let root = root.unwrap_or_else(sssp_lint::default_root);

    if protocol {
        let files = match sssp_lint::workspace_files(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("sssp-lint: cannot walk {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        let mut inputs = Vec::new();
        for (rel, path) in files {
            if !sssp_lint::protocol::in_scope(&rel) {
                continue;
            }
            match std::fs::read_to_string(&path) {
                Ok(text) => inputs.push((rel, text)),
                Err(e) => {
                    eprintln!("sssp-lint: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        let analysis = sssp_lint::protocol::analyze(&inputs);
        if let Some(table) = &analysis.table {
            print!("{table}");
        }
        if analysis.findings.is_empty() {
            let events: usize = analysis.schedules.iter().map(|s| s.events.len()).sum();
            eprintln!("sssp-lint: protocol clean ({events} collective call sites)");
            return ExitCode::SUCCESS;
        }
        for f in &analysis.findings {
            eprintln!("{f}");
        }
        eprintln!("sssp-lint: {} protocol finding(s)", analysis.findings.len());
        return ExitCode::FAILURE;
    }
    if let Some(table) = concurrency {
        let files = match sssp_lint::workspace_files(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("sssp-lint: cannot walk {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        let mut inputs = Vec::new();
        for (rel, path) in files {
            if !sssp_lint::concurrency::in_scope(&rel) {
                continue;
            }
            match std::fs::read_to_string(&path) {
                Ok(text) => inputs.push((rel, text)),
                Err(e) => {
                    eprintln!("sssp-lint: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        let analysis = sssp_lint::concurrency::analyze(&inputs);
        match table {
            Some("locks") => print!("{}", analysis.lock_table),
            Some(_) => print!("{}", analysis.channel_table),
            None => {
                print!("{}", analysis.lock_table);
                println!();
                print!("{}", analysis.channel_table);
            }
        }
        if analysis.findings.is_empty() {
            eprintln!(
                "sssp-lint: concurrency clean ({} locks, {} channels)",
                analysis.num_locks, analysis.num_channels
            );
            return ExitCode::SUCCESS;
        }
        for f in &analysis.findings {
            eprintln!("{f}");
        }
        eprintln!(
            "sssp-lint: {} concurrency finding(s)",
            analysis.findings.len()
        );
        return ExitCode::FAILURE;
    }
    if let Some(table_only) = panics {
        let files = match sssp_lint::workspace_files(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("sssp-lint: cannot walk {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        let mut inputs = Vec::new();
        for (rel, path) in files {
            match std::fs::read_to_string(&path) {
                Ok(text) => inputs.push((rel, text)),
                Err(e) => {
                    eprintln!("sssp-lint: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        let analysis = sssp_lint::panics::analyze(&inputs);
        print!("{}", analysis.table);
        if table_only {
            return ExitCode::SUCCESS;
        }
        if analysis.findings.is_empty() {
            eprintln!(
                "sssp-lint: panic audit clean ({} roots, {} sites)",
                analysis.num_roots, analysis.num_sites
            );
            return ExitCode::SUCCESS;
        }
        for f in &analysis.findings {
            eprintln!("{f}");
        }
        eprintln!("sssp-lint: {} panic finding(s)", analysis.findings.len());
        return ExitCode::FAILURE;
    }
    let files = match sssp_lint::workspace_files(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sssp-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let n_files = files.len();
    match sssp_lint::lint_workspace(&root) {
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

fn usage(msg: &str) -> ExitCode {
    eprintln!("sssp-lint: {msg} (try --help)");
    ExitCode::from(2)
}
