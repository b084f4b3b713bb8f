//! The protocol gate: the flow-aware pass must report zero findings on
//! the real tree, the engine's and every kernel's schedule must render the
//! golden table, and the rule list snapshot must stay in sync. Running plain
//! `cargo test` therefore enforces the collective protocol; CI also diffs
//! the CLI output against the same goldens.

use sssp_lint::{protocol, Workspace};

/// The real tree, read and parsed once per test.
fn workspace() -> Workspace {
    let ws = Workspace::load(&sssp_lint::default_root()).expect("readable workspace");
    assert!(!ws.files.is_empty(), "no workspace files found");
    ws
}

#[test]
fn real_engine_protocol_is_clean() {
    let analysis = protocol::analyze(&workspace());
    assert!(
        analysis.findings.is_empty(),
        "protocol findings on the real engine:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(analysis.table.is_some(), "no table produced");
}

#[test]
fn every_program_is_one_entry() {
    let analysis = protocol::analyze(&workspace());
    let entries: Vec<&str> = analysis
        .schedules
        .iter()
        .map(|s| s.entry.as_str())
        .collect();
    assert_eq!(entries, vec!["bfs", "cc", "engine", "pagerank"]);
    for s in &analysis.schedules {
        assert_eq!(s.functions, 1, "{}", s.entry);
        assert!(!s.events.is_empty(), "{}", s.entry);
    }
}

#[test]
fn protocol_table_matches_golden() {
    let analysis = protocol::analyze(&workspace());
    let table = analysis.table.expect("protocol table");
    let golden = include_str!("../golden/protocol_table.txt");
    assert_eq!(
        table, golden,
        "protocol table drifted from crates/lint/golden/protocol_table.txt — \
         if the schedule change is intentional, regenerate \
         with `cargo run -p sssp-lint -- --protocol > crates/lint/golden/protocol_table.txt`"
    );
}

#[test]
fn rule_list_matches_golden() {
    let golden = include_str!("../golden/rules.txt");
    assert_eq!(
        sssp_lint::rules::list_rules_text(),
        golden,
        "rule list drifted from crates/lint/golden/rules.txt — regenerate \
         with `cargo run -p sssp-lint -- --list-rules > crates/lint/golden/rules.txt`"
    );
}
