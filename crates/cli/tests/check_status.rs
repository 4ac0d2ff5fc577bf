//! `multilog check` exits 1 when its verdict fails — a database that is
//! not admissible (Def 5.3) or not consistent (Def 5.4) — and 0 when
//! both hold, so a script can tell the verdicts apart. `multilog lint`
//! exits 1 when it reports an error, and 0 on warnings alone. The text
//! stays on stdout either way.

use std::process::{Command, Output, Stdio};

/// Run `multilog <command> <database> <args>` over `source` written to a
/// temporary file.
fn multilog(command: &str, name: &str, source: &str, args: &[&str]) -> Output {
    let path = std::env::temp_dir().join(format!(
        "multilog-check-status-{}-{command}-{name}.mlog",
        std::process::id()
    ));
    std::fs::write(&path, source).expect("database file writes");
    let output = Command::new(env!("CARGO_BIN_EXE_multilog"))
        .arg(command)
        .arg(&path)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("multilog starts");
    let _ = std::fs::remove_file(&path);
    output
}

/// Run `multilog check <database> --user <user>` over `source`.
fn check(name: &str, source: &str, user: &str) -> Output {
    multilog("check", name, source, &["--user", user])
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

#[test]
fn lint_exits_one_when_it_reports_an_error() {
    let src = "level(u). u[p(k : a -s-> v)].\n";
    for args in [&[][..], &["--format", "json"]] {
        let output = multilog("lint", "error", src, args);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(1), "{stdout}");
        assert!(stdout.contains("ML0103"), "{stdout}");
    }
}

#[test]
fn lint_exits_zero_on_warnings_alone() {
    // At clearance u, the rule reads an atom it can never see: two
    // ML0114 warnings, no error.
    let src = format!("{LATTICE}s[p(k : a -s-> v)].\nq(X) <- s[p(k : a -s-> X)].\n");
    let output = multilog("lint", "warnings", &src, &["--user", "u"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 errors, 2 warnings"), "{stdout}");
    let output = multilog(
        "lint",
        "clean",
        &format!("{LATTICE}u[emp(k1 : sal -u-> 10)].\n"),
        &[],
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 errors, 0 warnings"), "{stdout}");
}
