//! `perf_smoke` rejects bad command lines with a message and exit status
//! 2 before running any workload, instead of panicking.

use std::process::Command;

/// Run `perf_smoke` with `args`, writing any report into the temp dir,
/// and return its exit code and stderr.
fn perf_smoke(args: &[&str]) -> (Option<i32>, String) {
    let out = std::env::temp_dir().join("perf_smoke_args_report.json");
    let output = Command::new(env!("CARGO_BIN_EXE_perf_smoke"))
        .arg("--out")
        .arg(&out)
        .args(args)
        .output()
        .expect("perf_smoke starts");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], message: &str) {
    let (code, stderr) = perf_smoke(args);
    assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(message), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
}

#[test]
fn zero_repeat_is_a_usage_error() {
    assert_usage_error(&["--repeat", "0"], "--repeat takes a positive integer");
}

#[test]
fn non_integer_repeat_is_a_usage_error() {
    assert_usage_error(&["--repeat", "three"], "--repeat takes a positive integer");
}

#[test]
fn flag_without_value_is_a_usage_error() {
    assert_usage_error(&["--repeat"], "--repeat needs a value");
    assert_usage_error(&["--baseline"], "--baseline needs a value");
}

#[test]
fn unreadable_baseline_is_a_usage_error() {
    let missing = std::env::temp_dir().join("perf_smoke_args_no_such_baseline.json");
    assert_usage_error(
        &["--baseline", missing.to_str().expect("utf-8 temp path")],
        "cannot read baseline",
    );
}
