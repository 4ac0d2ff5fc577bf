//! `--filter` (Figure 13's σ filter) is implemented by the operational
//! engine only. Every path that answers through the reduction refuses it
//! with a message and exit status 2, instead of silently dropping σ.
//!
//! The database is the one where σ changes the answer: at clearance `s`,
//! the operational engine with `--filter` proves `u[m(k : ship -u->
//! phantom)]` from the higher cell, while the reduction cannot.

use std::process::{Command, Output, Stdio};

const SOURCE: &str = "
    level(u). level(s). order(u, s).
    s[m(k : ship -u-> phantom)].
";

/// Run `multilog <command> <database> <rest…>` for `args = [command,
/// rest…]`, over [`SOURCE`] written to a temporary file.
fn multilog(name: &str, args: &[&str]) -> Output {
    let path = std::env::temp_dir().join(format!(
        "multilog-filter-rejected-{}-{name}.mlog",
        std::process::id()
    ));
    std::fs::write(&path, SOURCE).expect("database file writes");
    let output = Command::new(env!("CARGO_BIN_EXE_multilog"))
        .arg(args[0])
        .arg(&path)
        .args(&args[1..])
        .stdin(Stdio::null())
        .output()
        .expect("multilog starts");
    let _ = std::fs::remove_file(&path);
    output
}

fn assert_rejected(name: &str, args: &[&str], path: &str) {
    let output = multilog(name, args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains("--filter"), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(path), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
}

#[test]
fn reduced_query_rejects_filter() {
    let goal = "u[m(k : ship -u-> phantom)]";
    let args = ["query", "--user", "s", goal, "--engine", "red", "--filter"];
    assert_rejected("query", &args, "`query --engine red`");
    // The operational engine keeps σ.
    let output = multilog("op", &["query", "--user", "s", goal, "--filter"]);
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&output.stdout), "yes\n");
}

#[test]
fn reduced_run_rejects_filter() {
    let args = ["run", "--user", "s", "--engine", "red", "--filter"];
    assert_rejected("run", &args, "`run --engine red`");
}

#[test]
fn serve_rejects_filter() {
    assert_rejected("serve", &["serve", "--user", "s", "--filter"], "`serve`");
}
