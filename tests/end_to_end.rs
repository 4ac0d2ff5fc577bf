//! Cross-crate end-to-end tests: synthetic workloads through every layer,
//! plus failure-injection cases.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use multilog_bench::workload::{
    synthetic_multilog, synthetic_relation, MultiLogSpec, RelationSpec,
};
use multilog_core::reduce::ReducedEngine;
use multilog_core::{parse_database, MultiLogEngine, MultiLogError};
use multilog_mlsrel::belief::{believe, BeliefMode};
use multilog_mlsrel::view::view_at;

#[test]
fn synthetic_relation_views_and_beliefs_scale() {
    let spec = RelationSpec {
        entities: 500,
        attrs: 3,
        depth: 5,
        poly_rate: 0.3,
        seed: 99,
    };
    let (lat, rel) = synthetic_relation(&spec);
    rel.check_integrity().unwrap();
    let top = lat.label("l4").unwrap();
    let bottom = lat.label("l0").unwrap();

    let v_top = view_at(&rel, top);
    let v_bot = view_at(&rel, bottom);
    assert!(v_top.len() >= v_bot.len());

    let opt = believe(&rel, top, BeliefMode::Optimistic).unwrap();
    let fir = believe(&rel, top, BeliefMode::Firm).unwrap();
    let cau = believe(&rel, top, BeliefMode::Cautious).unwrap();
    assert!(opt.len() >= fir.len());
    assert!(opt.len() >= cau.len());
    // Cautious views resolve every polyinstantiated entity to believed
    // values without ⊥.
    assert!(cau.tuples().iter().all(|t| !t.has_null()));
}

#[test]
fn synthetic_multilog_through_both_engines() {
    for use_cau in [false, true] {
        let spec = MultiLogSpec {
            depth: 3,
            facts: 60,
            rules: 6,
            use_cau,
            seed: 3,
        };
        let src = synthetic_multilog(&spec);
        let db = parse_database(&src).unwrap();
        let op = MultiLogEngine::new(&db, "l2").unwrap();
        let red = ReducedEngine::new(&db, "l2").unwrap();
        for goal in [
            "L[data(K : a -C-> V)]",
            "L[derived(K : b -C-> V)]",
            "L[data(K : a -C-> V)] << cau",
        ] {
            assert_eq!(
                op.solve_text(goal).unwrap(),
                red.solve_text(goal).unwrap(),
                "divergence on `{goal}` (use_cau = {use_cau})"
            );
        }
    }
}

#[test]
fn bell_lapadula_guards_hold_on_synthetic_data() {
    let spec = MultiLogSpec {
        depth: 4,
        facts: 80,
        rules: 5,
        use_cau: false,
        seed: 11,
    };
    let db = parse_database(&synthetic_multilog(&spec)).unwrap();
    // A bottom-level user sees only bottom-level data.
    let e = MultiLogEngine::new(&db, "l0").unwrap();
    for ans in e.solve_text("L[data(K : a -C-> V)]").unwrap() {
        assert_eq!(ans["L"].to_string(), "l0");
        assert_eq!(ans["C"].to_string(), "l0");
    }
}

#[test]
fn fact_limit_guards_runaway_programs() {
    // A cross-product rule that would explode.
    let mut src = String::from("level(u).\n");
    for i in 0..30 {
        src.push_str(&format!("n(x{i}).\n"));
    }
    src.push_str("pair(X, Y, Z) <- n(X), n(Y), n(Z).\n");
    let db = parse_database(&src).unwrap();
    let err = MultiLogEngine::with_options(
        &db,
        "u",
        multilog_core::EngineOptions {
            fact_limit: 1000,
            ..Default::default()
        },
    );
    assert!(matches!(err, Err(MultiLogError::BudgetExceeded { .. })));
}

#[test]
fn malformed_inputs_fail_cleanly() {
    // Undeclared level in data.
    assert!(matches!(
        parse_database("level(u). s[p(k : a -s-> v)]."),
        Err(MultiLogError::NotAdmissible { .. })
    ));
    // Cyclic order.
    assert!(matches!(
        parse_database("level(a). level(b). order(a, b). order(b, a). a[p(k : x -a-> v)]."),
        Err(MultiLogError::NotAdmissible { .. })
    ));
    // Unknown belief mode.
    assert!(matches!(
        parse_database(
            "level(u). u[p(k : a -u-> v)]. u[q(k : b -u-> w)] <- u[p(k : a -u-> v)] << dream.",
        ),
        Err(MultiLogError::UnknownMode(_))
    ));
}

#[test]
fn deep_lattices_work_end_to_end() {
    let spec = MultiLogSpec {
        depth: 8,
        facts: 40,
        rules: 4,
        use_cau: true,
        seed: 5,
    };
    let db = parse_database(&synthetic_multilog(&spec)).unwrap();
    let op = MultiLogEngine::new(&db, "l7").unwrap();
    let red = ReducedEngine::new(&db, "l7").unwrap();
    assert_eq!(
        op.solve_text("L[data(K : a -C-> V)] << cau").unwrap(),
        red.solve_text("L[data(K : a -C-> V)] << cau").unwrap()
    );
}
