//! The project rule set.
//!
//! Each rule has a name (used in `sssp-lint: allow(name)` markers), a path
//! scope over the workspace, and a check that maps a parsed
//! [`SourceFile`] to `(line_index, message)` findings. Test regions and
//! allow-marked lines are filtered by the engine, not by the rules.

use crate::source::{ident_char, token_positions, SourceFile};

/// Path scope of a rule: `/`-separated paths relative to the workspace
/// root. Entries ending in `/` are directory prefixes, others are exact
/// file paths.
pub struct Scope {
    /// Paths the rule applies to.
    pub include: &'static [&'static str],
    /// Paths carved back out of `include`.
    pub exclude: &'static [&'static str],
}

impl Scope {
    /// The scope of `include`, with nothing carved out.
    pub const fn of(include: &'static [&'static str]) -> Scope {
        Scope {
            include,
            exclude: &[],
        }
    }

    /// Does `rel_path` fall under this scope?
    pub fn matches(&self, rel_path: &str) -> bool {
        let hit = |pat: &str| {
            if let Some(dir) = pat.strip_suffix('/') {
                rel_path.starts_with(pat) || rel_path == dir
            } else {
                rel_path == pat
            }
        };
        self.include.iter().any(|p| hit(p)) && !self.exclude.iter().any(|p| hit(p))
    }
}

/// The SPMD programs: the engine and the kernels outside it. The protocol
/// pass walks these files.
pub const PROTOCOL: Scope = Scope::of(&[
    "crates/core/src/engine/",
    "crates/core/src/bfs.rs",
    "crates/core/src/cc.rs",
    "crates/core/src/pagerank.rs",
]);

/// The code that runs on OS threads: the comm runtime, the engine and the
/// serving layer. The concurrency pass models these files; the lock and
/// panic rules check them.
pub const THREADED: Scope = Scope::of(&[
    "crates/comm/src/",
    "crates/core/src/engine/",
    "crates/serve/src/",
]);

/// One named, scoped check.
pub struct Rule {
    /// Marker-facing rule name (kebab-case).
    pub name: &'static str,
    /// One-line description shown by `--list-rules`.
    pub summary: &'static str,
    /// Where in the tree the rule applies.
    pub scope: Scope,
    /// The check itself.
    pub check: fn(&SourceFile) -> Vec<(usize, String)>,
}

/// All rules, in reporting order.
pub static RULES: &[Rule] = &[
    Rule {
        name: "no-panic-hot-path",
        summary: "no unwrap/expect/panic in engine and comm hot paths; \
                  propagate errors or justify with an allow marker",
        scope: Scope::of(&[
            "crates/core/src/engine/",
            "crates/core/src/state.rs",
            "crates/comm/src/",
            "crates/dist/src/",
        ]),
        check: check_no_panic,
    },
    Rule {
        name: "no-shared-state",
        summary: "thread primitives (spawn/Mutex/atomics/channels) only in \
                  sssp-comm::threaded — everything else stays rank-sequential",
        scope: Scope {
            include: &[
                "crates/graph/src/",
                "crates/comm/src/",
                "crates/dist/src/",
                "crates/core/src/",
                "crates/bench/src/",
                "crates/lint/src/",
                "src/",
            ],
            exclude: &[
                "crates/comm/src/threaded.rs",
                // The concurrency analyzer must spell the primitives it
                // detects (token tables, lock-kind enums); it never uses them.
                "crates/lint/src/concurrency.rs",
            ],
        },
        check: check_no_shared_state,
    },
    Rule {
        name: "no-lossy-cast",
        summary: "no `as` narrowing of vertex ids / distances in the engine \
                  and dist layers; use the checked helpers",
        scope: Scope::of(&[
            "crates/core/src/engine/",
            "crates/core/src/state.rs",
            "crates/dist/src/",
        ]),
        check: check_no_lossy_cast,
    },
    Rule {
        name: "no-float-kernel",
        summary: "no floating point in core kernels; f64 belongs to the \
                  push/pull cost model (engine/decide.rs, comm cost model)",
        scope: Scope {
            include: &["crates/core/src/engine/", "crates/core/src/state.rs"],
            exclude: &["crates/core/src/engine/decide.rs"],
        },
        check: check_no_float,
    },
    Rule {
        name: "missing-docs-pub",
        summary: "public items in sssp-core, sssp-comm and sssp-serve need \
                  a doc comment",
        scope: Scope::of(&["crates/core/src/", "crates/comm/src/", "crates/serve/src/"]),
        check: check_missing_docs,
    },
    Rule {
        name: "crate-hygiene",
        summary: "every crate root must carry #![forbid(unsafe_code)] and \
                  #![warn(missing_docs)]",
        scope: Scope::of(&[
            "crates/graph/src/lib.rs",
            "crates/comm/src/lib.rs",
            "crates/dist/src/lib.rs",
            "crates/core/src/lib.rs",
            "crates/serve/src/lib.rs",
            "crates/bench/src/lib.rs",
            "crates/lint/src/lib.rs",
            "src/lib.rs",
        ]),
        check: check_crate_hygiene,
    },
    Rule {
        name: "no-print-debug",
        summary: "no println!/eprintln!/dbg! in library crates; reporting \
                  lives in sssp-bench and the binaries",
        scope: Scope::of(&[
            "crates/graph/src/",
            "crates/comm/src/",
            "crates/dist/src/",
            "crates/core/src/",
            "crates/serve/src/",
        ]),
        check: check_no_print,
    },
    Rule {
        name: "protocol-divergent-guard",
        summary: "no collective call site under a rank-local condition; \
                  every rank must reach every collective uniformly",
        scope: Scope::of(&["crates/core/src/engine/"]),
        check: crate::protocol::check_divergent_guard,
    },
    Rule {
        name: "protocol-missing-barrier",
        summary: "no two `.lock(` phases in one comm function without a \
                  barrier `.wait(` between them",
        scope: Scope::of(&["crates/comm/src/"]),
        check: crate::protocol::check_missing_barrier,
    },
    Rule {
        name: "concurrency-lock-cycle",
        summary: "lock acquisitions must follow one global order; an \
                  acquisition that closes an order cycle can deadlock",
        scope: THREADED,
        check: crate::concurrency::check_lock_cycle,
    },
    Rule {
        name: "concurrency-blocking-hold",
        summary: "no blocking `.recv(`/`.wait(` while holding a lock — a \
                  peer blocked on the same lock deadlocks the rendezvous",
        scope: THREADED,
        check: crate::concurrency::check_blocking_hold,
    },
    Rule {
        name: "panic-in-critical-section",
        summary: "no unwrap/expect/panic/assert while a lock guard is held \
                  — a panic there poisons the lock for every other thread",
        scope: THREADED,
        check: crate::panics::check_critical_section,
    },
    Rule {
        name: "panic-on-worker-boundary",
        summary: "a fn marked `panic-root(label)` is a thread entry: direct \
                  panic sites must sit under catch_unwind or be forwarded",
        scope: THREADED,
        check: crate::panics::check_worker_boundary,
    },
    Rule {
        name: "panic-unvalidated-input",
        summary: "vertices destructured from a QuerySpec must pass validate() \
                  before indexing a buffer — requests are untrusted input",
        scope: Scope::of(&["crates/serve/src/"]),
        check: crate::panics::check_unvalidated_input,
    },
    Rule {
        name: "panic-silent-poison",
        summary: "`.lock()`/`.wait()` followed by unwrap/expect dies on a \
                  poisoned primitive — recover with PoisonError::into_inner \
                  or justify die-on-poison",
        scope: THREADED,
        check: crate::panics::check_silent_poison,
    },
];

/// The `--list-rules` output, one `name  summary` line per rule. Shared
/// by the CLI and the golden snapshot test.
pub fn list_rules_text() -> String {
    let normalize_ws = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut out = String::new();
    for rule in RULES {
        out.push_str(&format!(
            "{:<26} {}\n",
            rule.name,
            normalize_ws(rule.summary)
        ));
    }
    out
}

/// Look up a rule by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// One pattern group of a token rule: the needles, whether a needle may
/// be the prefix of a longer identifier (`Atomic` in `AtomicU64`), and why
/// a hit is a finding.
type Pattern = (&'static [&'static str], bool, &'static str);

fn token_hits(file: &SourceFile, patterns: &[Pattern]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (li, line) in file.lines.iter().enumerate() {
        for &(needles, prefix, why) in patterns {
            for needle in needles {
                if !token_positions(&line.code, needle, prefix).is_empty() {
                    out.push((li, format!("`{needle}` {why}")));
                }
            }
        }
    }
    out
}

const HOT_PATH: &str = "in a hot path: propagate the error or justify with a marker";
const SEQUENTIAL: &str =
    "outside sssp-comm::threaded: ranks are simulated sequentially everywhere else";
const NO_SHARED_MEMORY: &str = "outside sssp-comm::threaded: the BSP model has no shared memory";
const GLOBAL_STATE: &str = "is global state; thread configuration through explicitly";
const REPORTING: &str = "in a library crate: reporting belongs to sssp-bench or a binary";

fn check_no_panic(file: &SourceFile) -> Vec<(usize, String)> {
    token_hits(
        file,
        &[
            (&[".unwrap()", ".expect("], false, HOT_PATH),
            (
                &["panic!"],
                false,
                "in a hot path: hot paths must not abort mid-superstep",
            ),
            (
                &["unreachable!"],
                false,
                "in a hot path: encode the invariant as a type instead",
            ),
            (&["todo!", "unimplemented!"], false, "left in a hot path"),
        ],
    )
}

fn check_no_shared_state(file: &SourceFile) -> Vec<(usize, String)> {
    token_hits(
        file,
        &[
            (&["thread::spawn", "thread::scope"], false, SEQUENTIAL),
            (
                &["thread::Builder"],
                false,
                "outside sssp-comm::threaded: rank threads are spawned only by run_threaded",
            ),
            (
                &["Barrier"],
                false,
                "outside sssp-comm::threaded: supersteps synchronize through RankCtx collectives",
            ),
            (&["Mutex", "RwLock"], false, NO_SHARED_MEMORY),
            (
                &["Condvar"],
                false,
                "outside sssp-comm::threaded: use the superstep barrier",
            ),
            (&["Atomic"], true, NO_SHARED_MEMORY),
            (
                &["mpsc::"],
                false,
                "outside sssp-comm::threaded: message passing goes through comm::exchange",
            ),
            (
                &["static mut"],
                false,
                "is shared mutable state; thread it through explicitly",
            ),
            (&["OnceLock", "LazyLock"], false, GLOBAL_STATE),
            (&["UnsafeCell"], false, "outside sssp-comm::threaded"),
        ],
    )
}

/// Integer types an `as` cast may silently truncate vertex ids or
/// distances into. `VertexId` and `Weight` are `u32` aliases — spelling
/// the alias does not make the cast any less lossy.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "VertexId", "Weight"];

fn check_no_lossy_cast(file: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (li, line) in file.lines.iter().enumerate() {
        for at in token_positions(&line.code, "as", false) {
            let rest = line.code[at + 2..].trim_start();
            if let Some(ty) = NARROW_TYPES.iter().find(|t| {
                rest.strip_prefix(**t)
                    .is_some_and(|tail| !tail.chars().next().is_some_and(ident_char))
            }) {
                out.push((
                    li,
                    format!(
                        "lossy `as {ty}` narrowing: use the checked helpers \
                         (Addr::local / sssp_graph::checked_u32) \
                         so truncation asserts instead of wrapping"
                    ),
                ));
            }
        }
    }
    out
}

fn check_no_float(file: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (li, line) in file.lines.iter().enumerate() {
        for ty in ["f32", "f64"] {
            // Boundary-before is relaxed for literal suffixes (`1f64`).
            let hit = line.code.match_indices(ty).any(|(at, _)| {
                let before = line.code[..at].chars().next_back();
                let after = line.code[at + ty.len()..].chars().next();
                let before_ok =
                    !before.is_some_and(ident_char) || before.is_some_and(|c| c.is_ascii_digit());
                before_ok && !after.is_some_and(ident_char)
            });
            if hit {
                out.push((
                    li,
                    format!(
                        "`{ty}` in a core kernel: distances and weights are \
                         integral; floating point belongs to the cost model \
                         (engine/decide.rs)"
                    ),
                ));
            }
        }
        // Unsuffixed float literals (`0.5`) — a digit, a dot, a digit.
        let cs: Vec<char> = line.code.chars().collect();
        if cs
            .windows(3)
            .any(|w| w[0].is_ascii_digit() && w[1] == '.' && w[2].is_ascii_digit())
        {
            out.push((
                li,
                "float literal in a core kernel: distances and weights are \
                 integral; floating point belongs to the cost model \
                 (engine/decide.rs)"
                    .to_string(),
            ));
        }
    }
    out
}

/// Item kinds that require a doc comment when `pub`.
const DOC_KINDS: &[&str] = &[
    "fn ", "struct ", "enum ", "trait ", "mod ", "const ", "static ", "type ",
];

fn check_missing_docs(file: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (li, line) in file.lines.iter().enumerate() {
        let t = line.code.trim_start();
        let Some(rest) = t.strip_prefix("pub ") else {
            continue;
        };
        let Some(kind) = DOC_KINDS.iter().find(|k| rest.starts_with(**k)) else {
            continue;
        };
        // Walk up over attributes and blank lines; a doc comment anywhere
        // directly above (rustdoc semantics) satisfies the rule.
        let mut j = li;
        let documented = loop {
            if j == 0 {
                break false;
            }
            j -= 1;
            let above = file.lines[j].raw.trim();
            if above.starts_with("#[") || above.is_empty() || above.ends_with(")]") {
                continue;
            }
            break above.starts_with("///")
                || above.starts_with("//!")
                || above.starts_with("/**")
                || above.starts_with("#[doc");
        };
        if !documented {
            out.push((
                li,
                format!(
                    "public {}has no doc comment",
                    kind.trim_end().to_string() + " "
                ),
            ));
        }
    }
    out
}

fn check_crate_hygiene(file: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let has = |attr: &str| file.lines.iter().any(|l| l.code.contains(attr));
    if !has("#![forbid(unsafe_code)]") {
        out.push((
            0,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
    if !has("#![warn(missing_docs)]") && !has("#![deny(missing_docs)]") {
        out.push((
            0,
            "crate root is missing `#![warn(missing_docs)]`".to_string(),
        ));
    }
    out
}

fn check_no_print(file: &SourceFile) -> Vec<(usize, String)> {
    token_hits(
        file,
        &[
            (
                &["println!", "eprintln!", "print!", "eprint!"],
                false,
                REPORTING,
            ),
            (&["dbg!"], false, "left in a library crate"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_prefix_and_exact() {
        let s = Scope {
            include: &["crates/core/src/engine/", "crates/core/src/state.rs"],
            exclude: &["crates/core/src/engine/decide.rs"],
        };
        assert!(s.matches("crates/core/src/engine/short.rs"));
        assert!(s.matches("crates/core/src/state.rs"));
        assert!(!s.matches("crates/core/src/engine/decide.rs"));
        assert!(!s.matches("crates/core/src/validate.rs"));
    }

    #[test]
    fn token_boundaries() {
        assert!(token_positions("a.unwrap()", ".unwrap()", false).len() == 1);
        assert!(token_positions("a.unwrap_or(0)", ".unwrap()", false).is_empty());
        assert!(token_positions("x.expect_err(e)", ".expect(", false).is_empty());
        assert!(token_positions("AtomicU64::new(0)", "Atomic", true).len() == 1);
        assert!(token_positions("NonAtomicThing", "Atomic", true).is_empty());
        assert!(token_positions("println!(\"\")", "print!", false).is_empty());
    }

    #[test]
    fn lossy_cast_detection() {
        let f = SourceFile::parse(
            "crates/core/src/engine/x.rs",
            "let a = v as u32;\nlet b = v as u64;\nlet c = v as usize;\nlet d = x as  u16;\n",
        );
        let hits = check_no_lossy_cast(&f);
        let lines: Vec<usize> = hits.iter().map(|h| h.0).collect();
        assert_eq!(lines, vec![0, 3]);
    }

    #[test]
    fn float_detection() {
        let f = SourceFile::parse(
            "x.rs",
            "let a: f64 = 0.0;\nlet b = w as u64;\nlet c = 1f32;\nlet d = tuple.0;\n",
        );
        let hits = check_no_float(&f);
        assert!(hits.iter().any(|h| h.0 == 0));
        assert!(hits.iter().any(|h| h.0 == 2));
        assert!(!hits.iter().any(|h| h.0 == 1));
        assert!(!hits.iter().any(|h| h.0 == 3));
    }

    #[test]
    fn missing_docs_sees_attrs_and_blank_lines() {
        let src = "/// documented\n#[derive(Debug)]\npub struct A;\n\npub struct B;\n";
        let f = SourceFile::parse("x.rs", src);
        let hits = check_missing_docs(&f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 4);
    }

    #[test]
    fn restricted_visibility_is_exempt() {
        let f = SourceFile::parse("x.rs", "pub(crate) fn helper() {}\npub(super) fn h2() {}\n");
        assert!(check_missing_docs(&f).is_empty());
    }
}
