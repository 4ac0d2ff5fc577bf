//! One admissibility verdict for every engine: each trigger of a
//! clearance-free lint error (ML0008, ML0101–ML0106, ML0113, ML0115) from
//! docs/LINTS.md is reported by the lint under its code, refused by
//! `parse_database` with that code's typed error, and refused the same
//! way on the way to the operational engine, the reduced engine, demand
//! evaluation and a belief server reader.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::mem::discriminant;

use multilog_core::reduce::ReducedEngine;
use multilog_core::{
    lint_source, parse_database, BeliefServer, EngineOptions, MultiLogEngine, MultiLogError,
};

const LINTS: &str = include_str!("../../../docs/LINTS.md");

/// The first `prolog` block under `### <code>` in docs/LINTS.md.
fn trigger(code: &str) -> String {
    let heading = format!("### {code} ");
    let section = LINTS
        .split_once(&heading)
        .unwrap_or_else(|| panic!("docs/LINTS.md has no {code} section"))
        .1;
    let block = section.split_once("```prolog\n").unwrap().1;
    block.split_once("```").unwrap().0.to_owned()
}

/// The typed error each code refuses a database with.
fn typed(code: &str) -> MultiLogError {
    let detail = String::new();
    match code {
        "ML0101" => MultiLogError::UnsafeVariable {
            variable: String::new(),
            clause: String::new(),
        },
        "ML0102" | "ML0103" | "ML0104" | "ML0115" => MultiLogError::NotAdmissible { detail },
        "ML0105" => MultiLogError::NotBeliefStratified { detail },
        "ML0106" => MultiLogError::UnknownMode(detail),
        "ML0113" | "ML0008" => MultiLogError::IllFormed { detail },
        other => panic!("{other} is not a load-refusal code"),
    }
}

/// What each load-to-answer path says about `src` at clearance `user`.
fn refusals(src: &str, user: &str) -> Vec<(&'static str, MultiLogError)> {
    let op = parse_database(src).and_then(|db| MultiLogEngine::new(&db, user).map(drop));
    let red = parse_database(src).and_then(|db| ReducedEngine::new(&db, user).map(drop));
    let demand = parse_database(src).and_then(|db| {
        ReducedEngine::with_options_deferred(&db, user, EngineOptions::default()).map(drop)
    });
    let serve = parse_database(src).and_then(|db| {
        let server = BeliefServer::new(db, EngineOptions::default());
        server.open_reader(user).map(drop)
    });
    [
        ("operational", op),
        ("reduced", red),
        ("demand", demand),
        ("serve", serve),
    ]
    .into_iter()
    .map(|(path, result)| (path, result.expect_err(path)))
    .collect()
}

#[test]
fn every_engine_refuses_each_admissibility_trigger_as_the_load_does() {
    for code in [
        "ML0008", "ML0101", "ML0102", "ML0103", "ML0104", "ML0105", "ML0106", "ML0113", "ML0115",
    ] {
        let src = trigger(code);
        let report = lint_source(&src).unwrap();
        assert!(
            report.diagnostics.iter().any(|d| d.code == code),
            "lint misses {code} on {src:?}: {:?}",
            report.diagnostics
        );
        let refused = parse_database(&src).expect_err(code);
        assert_eq!(
            discriminant(&refused),
            discriminant(&typed(code)),
            "{code}: parse_database refused with {refused:?}"
        );
        for (path, error) in refusals(&src, "s") {
            assert_eq!(error, refused, "{code}: the {path} path");
        }
    }
}

#[test]
fn engines_agree_on_same_level_cau_and_unknown_rule_modes() {
    let cases = [
        (
            "level(u). level(s). order(u, s). u[p(k : a -u-> v)].\n\
             s[q(k : a -u-> V)] <- s[p(k : a -u-> V)] << cau.",
            discriminant(&typed("ML0105")),
        ),
        (
            "level(u). level(s). order(u, s). u[p(k : a -u-> v)].\n\
             s[q(k : a -u-> V)] <- u[p(k : a -u-> V)] << foo.",
            discriminant(&typed("ML0106")),
        ),
        // A variable body level where a rule consults `<< cau`: τ splits
        // `rel` per level then, so every engine refuses it alike.
        (
            "level(u). level(c). level(s). order(u, c). order(c, s).\n\
             u[p(k : a -u-> v)]. c[q(k : b -c-> w)].\n\
             s[r(K : a -s-> V)] <- L[p(K : a -L-> V)], c[q(K : b -C-> W)] << cau.",
            discriminant(&typed("ML0105")),
        ),
    ];
    for (src, want) in cases {
        let refused = parse_database(src).expect_err(src);
        assert_eq!(discriminant(&refused), want, "{refused:?}");
        for (path, error) in refusals(src, "s") {
            assert_eq!(error, refused, "{src}: the {path} path");
        }
    }
}

#[test]
fn stored_queries_are_checked_at_load() {
    // The queries Q are part of the database: a clearance-free lint
    // error in one refuses the load like an error in a clause.
    let base = "level(u). level(s). order(u, s). u[p(k : a -u-> v)]. q(a).\n";
    for (query, code) in [
        ("<- x[p(K : a -u-> V)].", "ML0103"),
        ("<- s[p(K : a -u-> V)] << foo.", "ML0106"),
        ("<- q(X, Y).", "ML0113"),
    ] {
        let src = format!("{base}{query}");
        let report = lint_source(&src).unwrap();
        assert!(
            report.diagnostics.iter().any(|d| d.code == code),
            "lint misses {code} on {src:?}: {:?}",
            report.diagnostics
        );
        let refused = parse_database(&src).expect_err(code);
        assert_eq!(
            discriminant(&refused),
            discriminant(&typed(code)),
            "{refused:?}"
        );
        for (path, error) in refusals(&src, "s") {
            assert_eq!(error, refused, "{code}: the {path} path");
        }
    }
}

#[test]
fn undeclared_label_in_a_pi_body_is_refused() {
    let src = "level(u). u[p(k : a -u-> v)]. q(X) <- s[p(k : a -u-> X)].";
    assert!(lint_source(src)
        .unwrap()
        .diagnostics
        .iter()
        .any(|d| d.code == "ML0103"));
    assert!(matches!(
        parse_database(src),
        Err(MultiLogError::NotAdmissible { .. })
    ));
}

#[test]
fn goals_in_unknown_modes_are_refused_on_every_path() {
    let db = parse_database(
        "level(u). level(s). order(u, s). u[p(k : a -u-> v)].\n\
         bel(p, k, a, v, u, s, mine) <- level(u).",
    )
    .unwrap();
    let unknown = "u[p(K : a -C-> V)] << foo";
    let known = "s[p(K : a -C-> V)] << mine";
    let is_unknown = |r: Result<Vec<_>, MultiLogError>| matches!(r, Err(MultiLogError::UnknownMode(m)) if m == "foo");

    let op = MultiLogEngine::new(&db, "s").unwrap();
    assert!(is_unknown(op.solve_text(unknown)));
    assert_eq!(op.solve_text(known).unwrap().len(), 1);

    let red = ReducedEngine::new(&db, "s").unwrap();
    assert!(is_unknown(red.solve_text(unknown)));
    assert!(is_unknown(red.solve_text_demand(unknown)));
    assert_eq!(red.solve_text(known).unwrap().len(), 1);
    assert_eq!(red.solve_text_demand(known).unwrap().len(), 1);

    let server = BeliefServer::new(db, EngineOptions::default());
    let reader = server.open_reader("s").unwrap();
    assert!(is_unknown(reader.query_text(unknown)));
    assert_eq!(reader.query_text(known).unwrap().len(), 1);
}

#[test]
fn goals_over_reserved_relations_are_refused_on_every_path() {
    // A p-atom goal named like one of τ's relations would read it past the
    // no-read-up guards: `rel` holds the cells of every level. Every
    // engine refuses it alike; `bel/7`, the user-mode relation, stays
    // readable.
    let src = "level(u). level(s). order(u, s).\n\
               u[p(k : a -u-> v)]. s[p(k : a -s-> w)].\n\
               s[q(k : a -s-> V)] <- u[p(k : a -u-> V)] << cau.";
    let db = parse_database(src).unwrap();
    let op = MultiLogEngine::new(&db, "u").unwrap();
    let red = ReducedEngine::new(&db, "u").unwrap();
    let server = BeliefServer::new(db, EngineOptions::default());
    let reader = server.open_reader("u").unwrap();
    let answers = |goal: &str| {
        [
            op.solve_text(goal),
            red.solve_text(goal),
            red.solve_text_demand(goal),
            reader.query_text(goal),
        ]
    };
    for goal in [
        "rel(P, K, A, V, C, L)",
        "rel_s(P, K, A, V, C)",
        "bel_opt(P, K, A, V, C, L)",
        "bel_cau_u(P, K, A, V, C)",
        "beaten(P, K, A, C, L)",
        "clearance(X)",
        "u[p(K : a -C-> V)], @bfs(rel_u, X, Y)",
    ] {
        for refused in answers(goal) {
            assert!(
                matches!(&refused, Err(MultiLogError::NotAdmissible { detail }) if detail.contains("derives")),
                "`{goal}`: {refused:?}"
            );
        }
    }
    let [op, rest @ ..] = answers("bel(P, K, A, V, C, L, M)").map(Result::unwrap);
    for other in rest {
        assert_eq!(other, op);
    }
    // Sources are refused at load, heads included.
    for rule in [
        "rel(a, b, c, d, e, f).",
        "r(X) <- bel_cau(X, K, A, V, C, L).",
    ] {
        let refused = parse_database(&format!("{src}\n{rule}")).expect_err(rule);
        assert!(
            matches!(&refused, MultiLogError::NotAdmissible { detail } if detail.contains("derives")),
            "{refused:?}"
        );
    }
}
