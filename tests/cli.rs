//! Integration tests for the `multilog` CLI against the shipped example
//! databases (`examples/data/*.mlog`).

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use multilog_cli::{
    check, prove, query, reduce, run, EngineKind, Options, ReplSession, ServeSession,
};

fn mission_source() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/data/mission.mlog"
    ))
    .expect("mission.mlog exists")
}

fn d1_source() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/data/d1.mlog"
    ))
    .expect("d1.mlog exists")
}

fn opts(user: &str) -> Options {
    Options {
        user: user.to_owned(),
        ..Options::default()
    }
}

#[test]
fn d1_file_runs_its_query_at_each_level() {
    let src = d1_source();
    let at_c = run(&src, &opts("c")).unwrap();
    assert!(at_c.contains("yes"), "{at_c}");
    let at_u = run(&src, &opts("u")).unwrap();
    assert!(at_u.contains("no"), "{at_u}");
}

#[test]
fn mission_file_checks_clean() {
    let report = check(&mission_source(), &opts("s")).unwrap();
    assert!(report.passed);
    let out = report.text;
    assert!(out.contains("admissible"), "{out}");
    assert!(out.contains("consistent"), "{out}");
    assert!(out.contains("Σ=30"), "{out}");
}

#[test]
fn mission_spying_query_both_engines() {
    let src = mission_source();
    let goal = "s[mission(K : objective -C-> spying)] << cau";
    let op = query(&src, goal, &opts("s")).unwrap();
    let mut red_opts = opts("s");
    red_opts.engine = EngineKind::Reduced;
    let red = query(&src, goal, &red_opts).unwrap();
    assert_eq!(op, red, "Theorem 6.1 through the CLI");
    assert!(op.contains("voyager"), "{op}");
    assert!(op.contains("phantom"), "{op}");
}

#[test]
fn mission_u_level_sees_nothing_secret() {
    let src = mission_source();
    let out = query(&src, "L[mission(K : objective -C-> spying)]", &opts("u")).unwrap();
    assert_eq!(out, "no\n");
}

#[test]
fn prove_on_mission_file() {
    let src = mission_source();
    let out = prove(
        &src,
        "c[mission(atlantis : starship -u-> atlantis)] << opt",
        &opts("c"),
    )
    .unwrap();
    assert!(out.contains("[BELIEF]"), "{out}");
    assert!(out.contains("DESCEND-O"), "{out}");
}

#[test]
fn reduce_on_mission_file() {
    let out = reduce(&mission_source(), &opts("s")).unwrap();
    assert!(out.contains("rel(mission, avenger, starship, avenger, s, s)."));
    assert!(out.contains("bel_opt(P, K, A, V, C, H) :- rel(P, K, A, V, C, L), dominate(L, H)."));
}

#[test]
fn reduced_stats_list_rules_but_not_facts() {
    let src = mission_source();
    let db = multilog_core::parse_database(&src).unwrap();
    let red = multilog_core::reduce::ReducedEngine::new(&db, "s").unwrap();
    let tau_rules = red
        .program_text()
        .lines()
        .filter(|l| l.contains(" :- "))
        .count();
    let mut o = opts("s");
    o.engine = EngineKind::Reduced;
    o.stats = true;
    let out = run(&src, &o).unwrap();
    let entries: Vec<&str> = out
        .lines()
        .filter(|l| l.starts_with("rule (stratum"))
        .collect();
    // τ emits one fact clause per cell; facts are seeded, not compiled,
    // so only the rules get per-rule counters.
    assert!(tau_rules > 0);
    assert_eq!(entries.len(), tau_rules, "{out}");
    assert!(entries.iter().all(|l| l.contains(" :- ")), "{out}");
}

#[test]
fn goal_only_algorithm_calls_answer_on_every_path() {
    // No rule calls `@bfs` over `hop`: the goal's call runs over the
    // database's `hop` relation on every path.
    let src = "edge(a, b). edge(b, c). hop(a, x). reach(X, Y) <- @bfs(edge, X, Y).";
    let goal = "@bfs(hop, a, Y)";
    let mut red = opts("system");
    red.engine = EngineKind::Reduced;
    let mut full = red.clone();
    full.no_magic = true;
    for o in [&red, &full, &opts("system")] {
        let out = query(src, goal, o).unwrap();
        assert!(out.contains("Y = x"), "{:?}: {out}", o.engine);
    }
    let mut repl = ReplSession::new(src, &opts("system")).unwrap();
    assert!(repl.step(goal).contains("Y = x"));
    let mut serve = ServeSession::new(src, &opts("system")).unwrap();
    let (opened, _) = serve.step("open system");
    assert!(opened.contains("open at system"), "{opened}");
    let (out, _) = serve.step(goal);
    assert!(out.contains("Y = x"), "{out}");
}
