//! `sssp-cli` must answer every bad flag value with `error: …` and exit
//! code 2 — never a panic backtrace, never a hang.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sssp-cli"))
        .args(args)
        .output()
        .expect("sssp-cli must start")
}

#[test]
fn bad_flag_values_are_errors_not_panics_or_hangs() {
    let small = ["run", "--scale", "6", "--ranks", "2"];
    let cases: [&[&str]; 10] = [
        // No non-isolated vertex to root a run at: used to spin forever.
        &["--scale", "0"],
        &["--edge-factor", "0"],
        // More roots than non-isolated vertices: likewise.
        &["--scale", "3", "--roots", "9"],
        // Used to die inside the library with a backtrace.
        &["--ranks", "0"],
        &["--threads", "0"],
        &["--delta", "0"],
        &["--policy", "rho", "--rho", "0"],
        &["--algo", "nope"],
        &["--policy", "nope"],
        &["--family", "nope"],
    ];
    for case in cases {
        let out = cli(&[&small[..], case].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{case:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case:?}: {stderr}");
    }
}

#[test]
fn a_valid_run_still_validates_against_dijkstra() {
    let out = cli(&[
        "run",
        "--scale",
        "7",
        "--ranks",
        "3",
        "--roots",
        "2",
        "--validate",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(
        stdout
            .matches("validated against sequential Dijkstra")
            .count(),
        2
    );
}
