//! `sssp-cli` must answer every bad flag value and every unreadable or
//! unwritable graph file with `error: …` and exit code 2 — never a panic
//! backtrace, never a hang.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sssp-cli"))
        .args(args)
        .output()
        .expect("sssp-cli must start")
}

fn assert_error(args: &[&str]) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    // A whole-file error belongs to no line.
    assert!(!stderr.contains("line 0"), "{args:?}: {stderr}");
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
        assert_error(&[&small[..], case].concat());
    }
}

#[test]
fn bad_graph_files_and_missing_paths_are_errors_not_panics() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_graph_files");
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (good, bad, bin, cut) = (
        path("good.gr"),
        path("bad.gr"),
        path("good.bin"),
        path("truncated.bin"),
    );
    std::fs::write(&good, "p sp 3 2\na 1 2 5\na 2 3 4\n").expect("write good.gr");
    std::fs::write(&bad, "p sp 3 1\na 1 2 x\n").expect("write bad.gr");
    let out = cli(&["convert", "--in", &good, "--out", &bin]);
    assert!(out.status.success(), "{out:?}");
    // A valid binary file cut short inside its last edge record.
    let bytes = std::fs::read(&bin).expect("read good.bin");
    std::fs::write(&cut, &bytes[..bytes.len() - 5]).expect("write truncated.bin");
    let (zeros, headless) = (path("zeros.bin"), path("headless.gr"));
    std::fs::write(&zeros, [0u8; 20]).expect("write zeros.bin");
    std::fs::write(&headless, "c comments only, no problem line\n").expect("write headless.gr");
    let (missing, nowhere) = (path("missing.gr"), path("no/such/dir/g.bin"));
    let cases: [&[&str]; 8] = [
        &["run", "--in", &missing],
        &["run", "--in", &bad],
        &["run", "--in", &cut],
        &["run", "--in", &zeros],
        &["run", "--in", &headless],
        &["convert", "--in", &bad],
        &["convert", "--in", &good, "--out", &nowhere],
        &["inspect"],
    ];
    for case in cases {
        assert_error(case);
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
