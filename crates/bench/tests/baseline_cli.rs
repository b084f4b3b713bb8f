//! The baseline binaries refuse bad input before measuring anything: a
//! malformed or zero flag exits 2 naming the flag, and an `--out` file that
//! is not a baseline document exits 1 and is left as it was.

use std::path::PathBuf;
use std::process::{Command, Output};

const PERF: &str = env!("CARGO_BIN_EXE_perf_baseline");
const SERVE: &str = env!("CARGO_BIN_EXE_serve_bench");

/// A file name of its own under the temp dir for each test.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sssp-baseline-cli-{}-{name}", std::process::id()))
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn the binary")
}

#[test]
fn malformed_or_zero_flags_exit_2_naming_the_flag() {
    // Never a real document: a binary that does not refuse its flags must
    // not overwrite anything.
    let out = scratch("flags.json");
    let out = out.to_str().expect("utf-8 temp path");
    let cases = [
        (PERF, "--scale", "8x"),
        (PERF, "--roots", "0"),
        (PERF, "--ranks", "0"),
        (PERF, "--threads", "0"),
        (PERF, "--roots", "-1"),
        (SERVE, "--batch-roots", "0"),
        (SERVE, "--inflight", "0"),
        (SERVE, "--ranks", "0"),
        (SERVE, "--threads", "two"),
        (SERVE, "--scale", ""),
    ];
    for (bin, flag, value) in cases {
        let res = run(bin, &["--out", out, flag, value]);
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert_eq!(
            res.status.code(),
            Some(2),
            "{bin} {flag} {value:?}: {stderr}"
        );
        assert!(stderr.contains(flag), "{bin} {flag} {value:?}: {stderr}");
    }
    let res = run(PERF, &["--out", out, "--roots"]);
    assert_eq!(res.status.code(), Some(2));
    let res = run(SERVE, &["--out", out, "--nope", "1"]);
    assert_eq!(res.status.code(), Some(2));
    assert!(!scratch("flags.json").exists());
}

#[test]
fn an_unparseable_out_file_is_an_error_and_left_untouched() {
    let sample = include_str!("data/baseline_sample.json");
    let cut = sample
        .find("\"wall_ms\": 180.000")
        .expect("serving wall_ms");
    let truncated = &sample[..cut];
    for (bin, name) in [(PERF, "perf.json"), (SERVE, "serve.json")] {
        let path = scratch(name);
        std::fs::write(&path, truncated).expect("write the truncated document");
        let res = run(bin, &["--out", path.to_str().expect("utf-8 temp path")]);
        let after = std::fs::read_to_string(&path).expect("read it back");
        std::fs::remove_file(&path).expect("remove the fixture");
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert_eq!(res.status.code(), Some(1), "{bin}: {stderr}");
        assert!(
            stderr.contains("not a baseline document"),
            "{bin}: {stderr}"
        );
        assert_eq!(after, truncated, "{bin} rewrote the file");
    }
}
