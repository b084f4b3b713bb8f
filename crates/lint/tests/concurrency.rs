//! The concurrency gate: the lock-order model must report zero findings on
//! the real tree and must match the committed golden. Running plain
//! `cargo test` therefore enforces the concurrency model; CI also diffs
//! the CLI output against the same golden.

use sssp_lint::{concurrency, Workspace};

/// The real tree, read and parsed once per test.
fn workspace() -> Workspace {
    let ws = Workspace::load(&sssp_lint::default_root()).expect("readable workspace");
    assert!(!ws.files.is_empty(), "no workspace files found");
    ws
}

#[test]
fn real_tree_is_concurrency_clean() {
    let analysis = concurrency::analyze(&workspace());
    assert!(
        analysis.findings.is_empty(),
        "concurrency findings on the real tree:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn lock_order_matches_golden() {
    let analysis = concurrency::analyze(&workspace());
    let golden = include_str!("../golden/lock_order.txt");
    assert_eq!(
        analysis.lock_table, golden,
        "lock-order model drifted from crates/lint/golden/lock_order.txt — \
         if the locking change is intentional, regenerate with \
         `cargo run -p sssp-lint -- --concurrency > crates/lint/golden/lock_order.txt`"
    );
}

#[test]
fn models_cover_the_real_primitives() {
    // Guard against the model silently going empty: the rank runtime's
    // park lock, its condvar and the exchange mailbox must appear with
    // their acquisition sites.
    let analysis = concurrency::analyze(&workspace());
    assert!(analysis.num_locks >= 3, "comm locks not extracted");
    for name in [
        "park",
        "wake",
        "mailbox",
        "Barrier::park",
        "exchange_episode",
    ] {
        assert!(analysis.lock_table.contains(name), "no `{name}`");
    }
}
