//! `multilog check` exits 1 when its verdict fails — a database that is
//! not admissible (Def 5.3) or not consistent (Def 5.4) — and 0 when
//! both hold, so a script can tell the verdicts apart. The verdict text
//! stays on stdout either way.

use std::process::{Command, Output, Stdio};

/// Run `multilog check <database> --user <user>` over `source` written
/// to a temporary file.
fn check(name: &str, source: &str, user: &str) -> Output {
    let path = std::env::temp_dir().join(format!(
        "multilog-check-status-{}-{name}.mlog",
        std::process::id()
    ));
    std::fs::write(&path, source).expect("database file writes");
    let output = Command::new(env!("CARGO_BIN_EXE_multilog"))
        .arg("check")
        .arg(&path)
        .args(["--user", user])
        .stdin(Stdio::null())
        .output()
        .expect("multilog starts");
    let _ = std::fs::remove_file(&path);
    output
}

const LATTICE: &str = "level(u). level(c). level(s). order(u, c). order(c, s).\n";

#[test]
fn check_exits_zero_on_a_consistent_database() {
    let src = format!("{LATTICE}u[emp(k1 : sal -u-> 10)].\n");
    let output = check("clean", &src, "s");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("consistent at s"), "{stdout}");
}

#[test]
fn check_exits_one_when_not_consistent() {
    // Two values for one cell at one class break polyinstantiation
    // integrity.
    let src = format!("{LATTICE}u[emp(k1 : sal -u-> 10)].\nu[emp(k1 : sal -u-> 20)].\n");
    let output = check("inconsistent", &src, "s");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("NOT consistent"), "{stdout}");
}

#[test]
fn check_exits_one_when_not_admissible() {
    let output = check("inadmissible", "level(u). u[p(k : a -s-> v)].\n", "u");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("NOT admissible"), "{stdout}");
}
