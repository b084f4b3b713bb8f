//! `--smoke`: all four workloads through both passes at small sizes, every
//! answer validated and the printed metric names checked against
//! `BENCHMARK.json` (the program does that check itself and exits
//! non-zero when it fails).

use std::process::Command;

#[test]
fn smoke_runs_every_workload_through_both_passes() {
    // The program writes under `benchmark/out/` of its working directory;
    // give it one inside the build directory.
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_sssp-benchmark"))
        .arg("--smoke")
        .current_dir(&scratch)
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "--smoke failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    for workload in ["rmat_volume", "grid_latency", "serve_repeat", "serve_churn"] {
        assert!(stdout.contains(workload), "no report for {workload}");
        let trace = scratch
            .join("benchmark/out")
            .join(format!("{workload}.trace.json"));
        assert!(trace.is_file(), "no trace written for {workload}");
    }
    assert!(scratch.join("benchmark/out/results.json").is_file());
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn a_bad_workload_name_is_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_sssp-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("benchmark binary starts");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "a refused run prints no result");
}
