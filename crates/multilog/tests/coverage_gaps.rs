//! Targeted tests for less-travelled paths: lattice atoms in rule bodies,
//! `leq` constraints through the reduction, level variables in heads, and
//! engine/option edge cases.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use multilog_core::reduce::ReducedEngine;
use multilog_core::{parse_database, MultiLogEngine, MultiLogError};

#[test]
fn level_and_order_atoms_in_rule_bodies() {
    // Rules quantifying over the lattice itself.
    let db = parse_database(
        r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        known_level(L) <- level(L).
        step(A, B) <- order(A, B).
        reach(A, B) <- A leq B.
        "#,
    )
    .unwrap();
    let op = MultiLogEngine::new(&db, "s").unwrap();
    assert_eq!(op.solve_text("known_level(L)").unwrap().len(), 3);
    assert_eq!(op.solve_text("step(A, B)").unwrap().len(), 2);
    // leq is reflexive-transitive: 3 + 2 + 1 pairs on the chain.
    assert_eq!(op.solve_text("reach(A, B)").unwrap().len(), 6);

    let red = ReducedEngine::new(&db, "s").unwrap();
    for goal in ["known_level(L)", "step(A, B)", "reach(A, B)"] {
        assert_eq!(
            op.solve_text(goal).unwrap(),
            red.solve_text(goal).unwrap(),
            "lattice-atom divergence on {goal}"
        );
    }
}

#[test]
fn variable_level_heads_without_cau() {
    // A rule asserting the same fact at *every* level (monotone program,
    // so variable head levels are allowed).
    let db = parse_database(
        r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        L[bulletin(all : note -L-> posted)] <- level(L).
        "#,
    )
    .unwrap();
    let op = MultiLogEngine::new(&db, "s").unwrap();
    assert_eq!(op.mfacts().len(), 3);
    assert_eq!(
        op.solve_text("L[bulletin(all : note -C-> posted)]")
            .unwrap()
            .len(),
        3
    );
    // And the reduction agrees.
    let red = ReducedEngine::new(&db, "s").unwrap();
    assert_eq!(
        op.solve_text("L[bulletin(all : note -C-> posted)]")
            .unwrap(),
        red.solve_text("L[bulletin(all : note -C-> posted)]")
            .unwrap()
    );
}

#[test]
fn variable_level_heads_with_cau_rejected() {
    let db = parse_database(
        r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[p(k : a -u-> v)].
        L[q(k : b -L-> w)] <- level(L).
        s[r(k : e -s-> x)] <- c[p(k : a -C-> V)] << cau.
        "#,
    );
    // The cau rule forces all Σ head levels ground; the load refuses
    // the database before any engine sees it.
    assert!(matches!(db, Err(MultiLogError::NotBeliefStratified { .. })));
}

#[test]
fn queries_at_clipped_clearances_see_less() {
    let db = parse_database(
        r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[doc(d1 : title -u-> alpha)].
        c[doc(d2 : title -c-> beta)].
        s[doc(d3 : title -s-> gamma)].
        "#,
    )
    .unwrap();
    for (user, expected) in [("u", 1), ("c", 2), ("s", 3)] {
        let e = MultiLogEngine::new(&db, user).unwrap();
        assert_eq!(
            e.solve_text("L[doc(K : title -C-> V)]").unwrap().len(),
            expected,
            "at {user}"
        );
    }
}

#[test]
fn goal_with_repeated_variables_across_atoms() {
    // The same variable constrains level and class.
    let db = parse_database(
        r#"
        level(u). level(s). order(u, s).
        u[p(k : a -u-> v)].
        s[p(k : a -u-> w)].
        "#,
    )
    .unwrap();
    let e = MultiLogEngine::new(&db, "s").unwrap();
    // L both as atom level and class: only the u fact has level == class.
    let ans = e.solve_text("L[p(k : a -L-> V)]").unwrap();
    assert_eq!(ans.len(), 1);
    assert_eq!(ans[0]["V"].to_string(), "v");
}

#[test]
fn empty_database_engine() {
    let db = parse_database("level(u).").unwrap();
    let e = MultiLogEngine::new(&db, "u").unwrap();
    assert!(e.mfacts().is_empty());
    assert!(e.solve_text("level(X)").unwrap().len() == 1);
    multilog_core::consistency::check_consistency(&e).unwrap();
}

#[test]
fn reduction_program_roundtrips_through_datalog_parser() {
    // The generated τ(Δ) ∪ A must itself be a valid program for the
    // Datalog crate's parser — for every example we ship.
    for src in [
        multilog_core::examples::D1_SOURCE.to_owned(),
        multilog_core::examples::encode_relation(&multilog_mlsrel::mission::mission_relation().1),
    ] {
        let db = parse_database(&src).unwrap();
        let red = ReducedEngine::new(&db, "s").unwrap();
        let prog = multilog_datalog::parse_program(red.program_text()).unwrap();
        assert!(!prog.is_empty());
        prog.stratify().unwrap();
    }
}
