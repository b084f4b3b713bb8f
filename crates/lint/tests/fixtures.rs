//! Per-rule self-tests: each rule must catch the violations seeded in its
//! fixture file, must not flag the fixture's "fine" sections, and must
//! honor `sssp-lint: allow(..)` markers.

use std::path::Path;

use sssp_lint::{lint_text, Diagnostic};

/// Load a fixture and lint it as if it lived at `as_path` in the tree.
fn lint_fixture(fixture: &str, as_path: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    lint_text(as_path, &text)
}

/// The line numbers (1-based) at which `rule` fired.
fn lines_for(diags: &[Diagnostic], rule: &str) -> Vec<usize> {
    let mut lines: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

#[test]
fn no_panic_catches_each_macro_and_method() {
    let diags = lint_fixture("no_panic.rs", "crates/core/src/engine/fixture.rs");
    assert_eq!(
        lines_for(&diags, "no-panic-hot-path"),
        vec![5, 6, 8, 11, 12]
    );
}

#[test]
fn no_panic_marker_and_strings_and_tests_are_exempt() {
    let diags = lint_fixture("no_panic.rs", "crates/core/src/engine/fixture.rs");
    // Line 19 carries a marker, lines 23-24 are string contents, line 32
    // is inside #[cfg(test)] — none may be reported.
    for exempt in [19, 23, 24, 32] {
        assert!(
            !lines_for(&diags, "no-panic-hot-path").contains(&exempt),
            "line {exempt} should be exempt, got {diags:?}"
        );
    }
}

#[test]
fn no_shared_state_catches_every_primitive() {
    let diags = lint_fixture("no_shared_state.rs", "crates/core/src/bfs.rs");
    assert_eq!(
        lines_for(&diags, "no-shared-state"),
        vec![5, 6, 9, 10, 11, 16]
    );
}

#[test]
fn no_shared_state_ignores_comm_threaded() {
    let diags = lint_fixture("no_shared_state.rs", "crates/comm/src/threaded.rs");
    assert!(lines_for(&diags, "no-shared-state").is_empty());
}

#[test]
fn no_shared_state_covers_the_threaded_engine() {
    // The real-thread engine module is NOT exempt: it runs on OS threads,
    // but only through the sssp_comm::threaded primitives. Raw barriers,
    // thread builders and channels seeded in the fixture must all fire;
    // the sanctioned RankCtx surface must not.
    let diags = lint_fixture(
        "no_shared_state_engine.rs",
        "crates/core/src/engine/threaded.rs",
    );
    assert_eq!(lines_for(&diags, "no-shared-state"), vec![7, 8, 11, 12, 13]);
}

#[test]
fn no_lossy_cast_catches_narrowing_not_widening() {
    let diags = lint_fixture("no_lossy_cast.rs", "crates/core/src/engine/fixture.rs");
    assert_eq!(lines_for(&diags, "no-lossy-cast"), vec![5, 6, 7, 8, 9]);
}

#[test]
fn no_float_catches_types_literals_and_suffixes() {
    let diags = lint_fixture("no_float_kernel.rs", "crates/core/src/engine/fixture.rs");
    assert_eq!(lines_for(&diags, "no-float-kernel"), vec![5, 6, 7]);
}

#[test]
fn no_float_does_not_apply_to_decide_rs() {
    let diags = lint_fixture("no_float_kernel.rs", "crates/core/src/engine/decide.rs");
    assert!(lines_for(&diags, "no-float-kernel").is_empty());
}

#[test]
fn engine_rules_cover_the_recorder_module() {
    // The telemetry recorder (engine/record.rs) is engine code: the
    // no-float and no-panic scopes must include it, and its allow marker
    // must still work.
    let diags = lint_fixture("recorder_module.rs", "crates/core/src/engine/record.rs");
    assert_eq!(lines_for(&diags, "no-float-kernel"), vec![6]);
    assert_eq!(lines_for(&diags, "no-panic-hot-path"), vec![11]);
}

#[test]
fn missing_docs_flags_bare_pub_items_only() {
    let diags = lint_fixture("missing_docs.rs", "crates/comm/src/fixture.rs");
    assert_eq!(lines_for(&diags, "missing-docs-pub"), vec![4, 14]);
}

#[test]
fn crate_hygiene_requires_both_attributes() {
    let diags = lint_fixture("crate_hygiene.rs", "crates/core/src/lib.rs");
    let hygiene: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "crate-hygiene").collect();
    assert_eq!(
        hygiene.len(),
        2,
        "expected forbid+warn findings, got {hygiene:?}"
    );
    assert!(hygiene
        .iter()
        .any(|d| d.message.contains("forbid(unsafe_code)")));
    assert!(hygiene
        .iter()
        .any(|d| d.message.contains("warn(missing_docs)")));
}

#[test]
fn crate_hygiene_passes_a_conforming_root() {
    let text = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n//! docs\n";
    assert!(lint_text("crates/core/src/lib.rs", text)
        .iter()
        .all(|d| d.rule != "crate-hygiene"));
}

#[test]
fn no_print_catches_all_macros() {
    let diags = lint_fixture("no_print_debug.rs", "crates/core/src/instrument.rs");
    assert_eq!(lines_for(&diags, "no-print-debug"), vec![5, 6, 7, 8]);
}

#[test]
fn no_print_does_not_apply_to_bench_or_bins() {
    let diags = lint_fixture("no_print_debug.rs", "crates/bench/src/lib.rs");
    assert!(lines_for(&diags, "no-print-debug").is_empty());
}

#[test]
fn protocol_divergent_guard_flags_rank_local_collectives() {
    let diags = lint_fixture(
        "protocol_divergent_guard.rs",
        "crates/core/src/engine/fixture.rs",
    );
    assert_eq!(lines_for(&diags, "protocol-divergent-guard"), vec![7, 11]);
}

#[test]
fn protocol_divergent_guard_sees_array_returning_fns() {
    let diags = lint_fixture(
        "protocol_divergent_guard_array_return.rs",
        "crates/core/src/engine/fixture.rs",
    );
    assert_eq!(lines_for(&diags, "protocol-divergent-guard"), vec![8]);
}

#[test]
fn protocol_divergent_guard_skips_closure_braces_in_the_condition() {
    let diags = lint_fixture(
        "protocol_divergent_guard_closure.rs",
        "crates/core/src/engine/fixture.rs",
    );
    assert_eq!(lines_for(&diags, "protocol-divergent-guard"), vec![7]);
}

#[test]
fn protocol_missing_barrier_flags_back_to_back_locks() {
    let diags = lint_fixture("protocol_missing_barrier.rs", "crates/comm/src/fixture.rs");
    assert_eq!(lines_for(&diags, "protocol-missing-barrier"), vec![10]);
}

#[test]
fn lock_cycle_flags_both_inversion_sites_only() {
    let diags = lint_fixture("concurrency_lock_cycle.rs", "crates/comm/src/fixture.rs");
    // Lines 13 and 18 close the a/b cycle; the a->c extension on line 23
    // follows the global order and must stay clean.
    assert_eq!(lines_for(&diags, "concurrency-lock-cycle"), vec![13, 18]);
}

#[test]
fn blocking_hold_flags_wait_and_recv_under_a_live_guard() {
    let diags = lint_fixture("concurrency_blocking_hold.rs", "crates/comm/src/fixture.rs");
    // `bad` blocks twice with the guard live; `good` scopes or drops the
    // guard first and must stay clean.
    assert_eq!(lines_for(&diags, "concurrency-blocking-hold"), vec![13, 14]);
}

#[test]
fn critical_section_flags_panics_under_a_live_guard_only() {
    let diags = lint_fixture(
        "panic_in_critical_section.rs",
        "crates/serve/src/fixture.rs",
    );
    // `bad` unwraps (7), asserts (8) and aborts (9) with the guard live;
    // the post-drop unwrap, the catch_unwind line and the justified
    // abort must stay clean.
    assert_eq!(
        lines_for(&diags, "panic-in-critical-section"),
        vec![7, 8, 9]
    );
}

#[test]
fn worker_boundary_flags_the_unforwarded_roots_bare_unwrap() {
    let diags = lint_fixture("panic_on_worker_boundary.rs", "crates/serve/src/fixture.rs");
    // Line 7 panics across the `fixture-worker` boundary; line 8 is
    // guarded on its own line, the forwarded pool root and the rootless
    // helper are exempt.
    assert_eq!(lines_for(&diags, "panic-on-worker-boundary"), vec![7]);
}

#[test]
fn unvalidated_input_flags_request_indexing_without_validate() {
    let diags = lint_fixture("panic_unvalidated_input.rs", "crates/serve/src/fixture.rs");
    // `bad` indexes with both destructured vertices (7, 8); `good`
    // validates the spec first and must stay clean.
    assert_eq!(lines_for(&diags, "panic-unvalidated-input"), vec![7, 8]);
}

#[test]
fn silent_poison_flags_unwraps_off_lock_and_wait() {
    let diags = lint_fixture("panic_silent_poison.rs", "crates/serve/src/fixture.rs");
    // Lines 7 and 8 die on a poisoned primitive; the recovering
    // `unwrap_or_else(PoisonError::into_inner)` lines and the justified
    // die-on-poison must stay clean.
    assert_eq!(lines_for(&diags, "panic-silent-poison"), vec![7, 8]);
}

#[test]
fn every_rule_has_a_fixture_that_fires() {
    // Guard against a rule silently losing coverage: each named rule must
    // produce at least one finding across the fixture corpus.
    let corpus = [
        ("no_panic.rs", "crates/core/src/engine/fixture.rs"),
        ("no_shared_state.rs", "crates/core/src/bfs.rs"),
        (
            "no_shared_state_engine.rs",
            "crates/core/src/engine/threaded.rs",
        ),
        ("no_lossy_cast.rs", "crates/core/src/engine/fixture.rs"),
        ("recorder_module.rs", "crates/core/src/engine/record.rs"),
        ("no_float_kernel.rs", "crates/core/src/engine/fixture.rs"),
        ("missing_docs.rs", "crates/comm/src/fixture.rs"),
        ("crate_hygiene.rs", "crates/core/src/lib.rs"),
        ("no_print_debug.rs", "crates/core/src/instrument.rs"),
        (
            "protocol_divergent_guard.rs",
            "crates/core/src/engine/fixture.rs",
        ),
        ("protocol_missing_barrier.rs", "crates/comm/src/fixture.rs"),
        ("concurrency_lock_cycle.rs", "crates/comm/src/fixture.rs"),
        ("concurrency_blocking_hold.rs", "crates/comm/src/fixture.rs"),
        (
            "panic_in_critical_section.rs",
            "crates/serve/src/fixture.rs",
        ),
        ("panic_on_worker_boundary.rs", "crates/serve/src/fixture.rs"),
        ("panic_unvalidated_input.rs", "crates/serve/src/fixture.rs"),
        ("panic_silent_poison.rs", "crates/serve/src/fixture.rs"),
    ];
    let mut fired: Vec<&str> = corpus
        .iter()
        .flat_map(|(fx, path)| lint_fixture(fx, path))
        .map(|d| d.rule)
        .collect();
    fired.sort_unstable();
    fired.dedup();
    for rule in sssp_lint::rules::RULES {
        assert!(
            fired.contains(&rule.name),
            "rule {} has no firing fixture",
            rule.name
        );
    }
}
