//! Property tests for demand-driven (magic-sets) evaluation: over random
//! stratified programs — with recursion, negation, comparisons, and
//! arithmetic — and random partially-bound goals, `run_for_goal` must
//! return exactly the answers of `run_query` over the full fixpoint,
//! both sequentially and with 4 worker threads; and evaluation guards
//! must trip through the rewritten program exactly as they do through
//! the original.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::collection;
use proptest::prelude::*;

use multilog_datalog::{parse_program, parse_query, run_query, DatalogError, Engine, Program};

/// Render a random program over up to 6 nodes: a random `edge` relation,
/// its transitive closure, a negation layer (`unreach`), a comparison
/// rule (`two`), and a bounded arithmetic counter (`cnt`/`succ`).
fn random_program(edges: &[(usize, usize)]) -> Program {
    let mut src = String::new();
    for i in 0..6 {
        src.push_str(&format!("node(n{i}).\n"));
    }
    for &(a, b) in edges {
        src.push_str(&format!("edge(n{a}, n{b}).\n"));
    }
    src.push_str(
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- path(X, Y), edge(Y, Z).\n\
         unreach(X, Y) :- node(X), node(Y), not path(X, Y).\n\
         two(X, Z) :- edge(X, Y), edge(Y, Z), X != Z.\n\
         cnt(0).\n\
         cnt(M) :- cnt(N), N < 5, M = N + 1.\n\
         succ(N, M) :- cnt(N), M = N + 1.\n",
    );
    parse_program(&src).unwrap()
}

/// A goal template selected by `kind`, bound at node/number `k`.
fn goal_source(kind: usize, k: usize) -> String {
    match kind {
        0 => format!("path(n{k}, X)"),
        1 => format!("path(X, n{k})"),
        2 => format!("unreach(n{k}, X)"),
        3 => format!("two(n{k}, X)"),
        4 => format!("path(n{k}, X), not edge(n{k}, X)"),
        5 => format!("edge(n{k}, X), path(X, Y)"),
        6 => format!("succ({k}, M)"),
        7 => format!("path(n{k}, n{})", (k + 1) % 6),
        // Negations of derived predicates in the goal itself, adorned.
        8 => format!("path(n{k}, X), not path(X, n{k})"),
        9 => format!("node(X), not unreach(n{k}, X), not two(X, n{k})"),
        // Binds nothing: exercises the cone fallback.
        _ => "two(X, Y), not unreach(X, Y)".to_owned(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn magic_equals_full(
        edges in collection::vec((0usize..6, 0usize..6), 0..16),
        kind in 0usize..11,
        k in 0usize..6,
    ) {
        let program = random_program(&edges);
        let goal = parse_query(&goal_source(kind, k)).unwrap();
        let full = Engine::new(&program).unwrap().run().unwrap();
        let expected = run_query(&full, &goal).unwrap();

        let (sequential, stats) = Engine::new(&program)
            .unwrap()
            .with_threads(1)
            .run_for_goal(&goal)
            .unwrap();
        prop_assert_eq!(
            &sequential, &expected,
            "sequential mismatch for goal `{}` over {:?}",
            goal_source(kind, k), edges
        );
        let demand = stats.demand.expect("goal runs record demand stats");
        prop_assert!(
            demand.facts_materialized <= full.fact_count(),
            "demand materialized {} > full {}",
            demand.facts_materialized, full.fact_count()
        );
        // Every negation here binds all its variables, so none is left
        // plain: the adorned rewrite always stratified.
        prop_assert_eq!(demand.plain_under_negation, 0, "goal `{}`", goal_source(kind, k));

        let (threaded, _) = Engine::new(&program)
            .unwrap()
            .with_threads(4)
            .with_parallel_threshold(0)
            .run_for_goal(&goal)
            .unwrap();
        prop_assert_eq!(
            &threaded, &expected,
            "threaded mismatch for goal `{}` over {:?}",
            goal_source(kind, k), edges
        );
    }
}

/// The divergent counter: never reaches a fixpoint, so only guards stop
/// it — through the original program and the rewritten one alike.
const DIVERGENT: &str = "n(0). n(M) :- n(N), M = N + 1.";

#[test]
fn budget_trips_identically_through_rewrite() {
    let program = parse_program(DIVERGENT).unwrap();
    let goal = parse_query("n(100)").unwrap();
    let full_err = Engine::new(&program)
        .unwrap()
        .with_fact_limit(5_000)
        .run()
        .unwrap_err();
    let goal_err = Engine::new(&program)
        .unwrap()
        .with_fact_limit(5_000)
        .run_for_goal(&goal)
        .unwrap_err();
    assert!(
        matches!(full_err, DatalogError::BudgetExceeded { budget: 5_000, .. }),
        "{full_err}"
    );
    assert!(
        matches!(goal_err, DatalogError::BudgetExceeded { budget: 5_000, .. }),
        "{goal_err}"
    );
    assert_eq!(full_err.to_string(), goal_err.to_string());
}

#[test]
fn deadline_trips_identically_through_rewrite() {
    let program = parse_program(DIVERGENT).unwrap();
    let goal = parse_query("n(100)").unwrap();
    let err = Engine::new(&program)
        .unwrap()
        .with_deadline(std::time::Duration::from_millis(50))
        .run_for_goal(&goal)
        .unwrap_err();
    assert!(
        matches!(err, DatalogError::DeadlineExceeded { limit_ms: 50 }),
        "{err}"
    );
}

#[test]
fn cancellation_trips_through_rewrite() {
    let program = parse_program(DIVERGENT).unwrap();
    let goal = parse_query("n(100)").unwrap();
    let token = multilog_datalog::CancelToken::new();
    token.cancel();
    let err = Engine::new(&program)
        .unwrap()
        .with_cancel_token(token)
        .run_for_goal(&goal)
        .unwrap_err();
    assert!(matches!(err, DatalogError::Cancelled), "{err}");
}
