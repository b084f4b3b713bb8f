//! The panic-reachability gate: the audit must report zero findings on
//! the real tree and its table must match the committed golden. Running
//! plain `cargo test` therefore enforces unwind safety; CI also diffs
//! the CLI output (`--panics`) against the same golden.

use sssp_lint::{panics, Workspace};

/// The real tree, read and parsed once per test: the panic audit spans
/// the whole workspace, not one subsystem.
fn workspace() -> Workspace {
    let ws = Workspace::load(&sssp_lint::default_root()).expect("readable workspace");
    assert!(!ws.files.is_empty(), "no workspace files found");
    ws
}

#[test]
fn real_tree_is_panic_clean() {
    let analysis = panics::analyze(&workspace());
    assert!(
        analysis.findings.is_empty(),
        "panic findings on the real tree:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn reachability_matches_golden() {
    let analysis = panics::analyze(&workspace());
    let golden = include_str!("../golden/panic_reachability.txt");
    assert_eq!(
        analysis.table, golden,
        "panic-reachability model drifted from \
         crates/lint/golden/panic_reachability.txt — if the change is \
         intentional, regenerate with \
         `cargo run -p sssp-lint -- --panics > crates/lint/golden/panic_reachability.txt`"
    );
}

#[test]
fn roots_cover_the_real_entry_points() {
    // Guard against root discovery silently going empty: every bench
    // binary, the CLI, and both declared thread roots must be present.
    let analysis = panics::analyze(&workspace());
    assert!(
        analysis.num_roots >= 20,
        "expected 20+ roots, got {}",
        analysis.num_roots
    );
    for root in [
        "bin:serve_bench",
        "bin:fig01_headline",
        "bin:sssp-cli",
        "thread:serve-worker",
        "thread:rank-thread (forwarded)",
    ] {
        assert!(
            analysis.table.contains(root),
            "root `{root}` missing from the model"
        );
    }
}

#[test]
fn model_sees_the_rendezvous_abort_site() {
    // The comm rendezvous holds no lock where it can panic (mailbox cells
    // are only swapped under theirs); its one deliberate abort is the
    // "peer rank aborted" assertion in the barrier's wait ladder, justified
    // and reachable from both thread roots. If it disappears, or turns up
    // under a lock, the walk went blind or the ladder changed shape. (The
    // held-lock walk itself is pinned by the critical-section fixture.)
    let analysis = panics::analyze(&workspace());
    let at = analysis
        .table
        .find("Barrier::crossed")
        .expect("the barrier's abort site dropped out of the model");
    let cluster: Vec<&str> = analysis.table[at..].lines().take(3).collect();
    assert!(
        cluster[1].contains("rank-thread,serve-worker") && cluster[1].ends_with("held: -"),
        "{cluster:?}"
    );
    assert!(cluster[2].contains("assert 1/1"), "{cluster:?}");
    assert!(
        analysis.num_sites > 0,
        "no panic sites classified on the real tree"
    );
}

#[test]
fn serving_layer_panics_are_guarded() {
    // The serve worker is a live (non-forwarded) thread root: its only
    // explicit panic site is the deliberate probe, guarded on its own
    // line by catch_unwind. The audit proving zero findings plus this
    // structural check pins the crash-isolation contract statically.
    let analysis = panics::analyze(&workspace());
    assert!(analysis.table.contains("thread:serve-worker"));
    assert!(
        analysis.table.contains("worker_loop"),
        "worker_loop dropped out of the reachability model"
    );
    assert!(analysis
        .findings
        .iter()
        .all(|f| !f.file.contains("crates/serve/")));
}
