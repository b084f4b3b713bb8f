//! The gate: lint the entire workspace and require zero findings. This
//! runs under plain `cargo test --workspace`, so the project rules are
//! enforced wherever the tests are.

#[test]
fn workspace_is_lint_clean() {
    let root = sssp_lint::default_root();
    let diags = sssp_lint::Workspace::load(&root)
        .unwrap_or_else(|e| panic!("cannot lint workspace at {}: {e}", root.display()))
        .lint();
    if !diags.is_empty() {
        let listing: String = diags.iter().map(|d| format!("  {d}\n")).collect();
        panic!(
            "sssp-lint found {} violation(s):\n{listing}\
             Fix them or add `// sssp-lint: allow(rule): reason` markers \
             where the violation is deliberate.",
            diags.len()
        );
    }
}

#[test]
fn workspace_walk_sees_the_real_tree() {
    let root = sssp_lint::default_root();
    let ws = sssp_lint::Workspace::load(&root).expect("walk failed");
    let rels: Vec<&str> = ws.files.iter().map(|f| f.rel_path.as_str()).collect();
    // Sanity anchors: the walk must include the engine and exclude the
    // vendored shims and this crate's seeded-violation fixtures.
    assert!(rels.contains(&"crates/core/src/engine/mod.rs"));
    assert!(rels.iter().all(|r| !r.starts_with("vendor/")));
    assert!(rels.iter().all(|r| !r.contains("fixtures/")));
}
