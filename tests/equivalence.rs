//! Theorem 6.1: the operational semantics (`⊢`) and the reduction
//! semantics (least fixpoint of `τ(Δ) ∪ A` under CORAL — here, the
//! `multilog-datalog` engine) agree on every goal.
//!
//! The paper proves this; we test it on the worked examples, on the
//! Mission encoding, and on randomly generated MultiLog databases.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use std::collections::BTreeSet;

use multilog_core::ast::Head;
use multilog_core::examples;
use multilog_core::reduce::{EdbUpdate, ReducedEngine};
use multilog_core::{
    parse_clause, parse_database, BeliefServer, EngineOptions, MultiLogDb, MultiLogEngine,
};

/// The goals used to compare the two semantics: every predicate is probed
/// with fully variable patterns in every mode.
const PROBES: &[&str] = &[
    "L[p(K : a -C-> V)]",
    "L[p(K : a -C-> V)] << fir",
    "L[p(K : a -C-> V)] << opt",
    "L[p(K : a -C-> V)] << cau",
    "L[data(K : a -C-> V)]",
    "L[data(K : a -C-> V)] << fir",
    "L[data(K : a -C-> V)] << opt",
    "L[data(K : a -C-> V)] << cau",
    "L[derived(K : b -C-> V)]",
    "q(X)",
];

fn assert_equivalent(db: &MultiLogDb, user: &str, probes: &[&str]) {
    let op = MultiLogEngine::new(db, user).expect("operational evaluation succeeds");
    let red = ReducedEngine::new(db, user).expect("reduction succeeds");
    for goal in probes {
        let a = op.solve_text(goal).expect("operational solve succeeds");
        let b = red.solve_text(goal).expect("reduced solve succeeds");
        assert_eq!(a, b, "divergence on `{goal}` at user {user}");
    }
}

#[test]
fn d1_equivalence_at_every_level() {
    let db = examples::d1();
    for user in ["u", "c", "s"] {
        assert_equivalent(&db, user, PROBES);
    }
}

#[test]
fn mission_equivalence() {
    let db = examples::mission_db().expect("mission encodes");
    let probes = [
        "L[mission(K : objective -C-> V)]",
        "L[mission(K : objective -C-> V)] << fir",
        "L[mission(K : objective -C-> V)] << opt",
        "L[mission(K : objective -C-> V)] << cau",
        "L[mission(K : starship -C-> V)] << cau",
        "L[mission(K : destination -C-> V)] << opt",
    ];
    for user in ["u", "c", "s"] {
        assert_equivalent(&db, user, &probes);
    }
}

#[test]
fn user_defined_mode_equivalence() {
    // User modes go through `bel/7` in both pipelines (USER-BELIEF).
    let db = parse_database(
        r#"
        level(u). level(s). order(u, s).
        u[p(k : a -u-> v)].
        s[p(k : a -u-> w)].
        bel(p, K, a, V, C, L, own_class) <- L[p(K : a -C-> V)], C leq L.
        "#,
    )
    .unwrap();
    for user in ["u", "s"] {
        let op = MultiLogEngine::new(&db, user).unwrap();
        let red = ReducedEngine::new(&db, user).unwrap();
        for goal in [
            "L[p(K : a -C-> V)] << own_class",
            "s[p(K : a -C-> V)] << own_class",
        ] {
            assert_eq!(
                op.solve_text(goal).unwrap(),
                red.solve_text(goal).unwrap(),
                "user-mode divergence on `{goal}` at {user}"
            );
        }
    }
}

#[test]
fn variable_body_levels_beside_cau_are_refused_at_load() {
    // τ splits `rel` per level when a rule consults `<< cau`, which needs
    // ground body levels; admission refuses the program for every engine
    // alike, instead of the operational engine answering what the
    // reduction refuses.
    let src = "level(u). level(c). level(s). order(u, c). order(c, s).\n\
               u[p(k : a -u-> v)]. c[q(k : b -c-> w)].\n\
               s[r(K : a -s-> V)] <- L[p(K : a -L-> V)], c[q(K : b -C-> W)] << cau.";
    let refused = parse_database(src).expect_err("refused at load");
    assert!(
        matches!(
            refused,
            multilog_core::MultiLogError::NotBeliefStratified { .. }
        ),
        "{refused:?}"
    );
    // The same rule with a ground body level answers alike everywhere.
    let ground = src.replace("L[p(K : a -L-> V)]", "u[p(K : a -u-> V)]");
    let db = parse_database(&ground).unwrap();
    let goal = "s[r(K : a -s-> V)]";
    let expected = MultiLogEngine::new(&db, "s")
        .unwrap()
        .solve_text(goal)
        .unwrap();
    assert_eq!(expected.len(), 1);
    let red = ReducedEngine::new(&db, "s").unwrap();
    assert_eq!(red.solve_text(goal).unwrap(), expected);
    assert_eq!(red.solve_text_demand(goal).unwrap(), expected);
    let server = BeliefServer::new(db, EngineOptions::default());
    let reader = server.open_reader("s").unwrap();
    assert_eq!(reader.query_text(goal).unwrap(), expected);
}

/// `src`'s answers to `goals` on the operational engine at every level of
/// `levels`, required of the reduced engine (materialized and demand) and
/// of a `BeliefServer` reader with every level open.
fn assert_every_path_agrees(src: &str, levels: &[&str], goals: &[&str]) {
    let db = parse_database(src).unwrap();
    let server = BeliefServer::new(db.clone(), EngineOptions::default());
    let readers: Vec<_> = levels
        .iter()
        .map(|l| server.open_reader(l).unwrap())
        .collect();
    for (user, reader) in levels.iter().zip(&readers) {
        let op = MultiLogEngine::new(&db, user).unwrap();
        let red = ReducedEngine::new(&db, user).unwrap();
        for goal in goals {
            let expected = op.solve_text(goal).unwrap();
            assert_eq!(
                red.solve_text(goal).unwrap(),
                expected,
                "`{goal}` at {user}"
            );
            let demand = red.solve_text_demand(goal).unwrap();
            assert_eq!(demand, expected, "demand `{goal}` at {user}");
            let read = reader.query_text(goal).unwrap();
            assert_eq!(read, expected, "reader `{goal}` at {user}");
        }
    }
}

/// A `<< cau` rule over the level an `opt`/`fir` rule writes, on
/// u < c < s. The lower rule's belief reads `u`'s own relation; reading
/// the relation of every level instead would close a cycle through the
/// cautious negation (`bel_cau_c -> rel_s -> rel -> bel_opt -> rel_c`).
fn cautious_over_a_monotone_rule(mode: &str) -> String {
    format!(
        "level(u). level(c). level(s). order(u, c). order(c, s).\n\
         u[p(k : a -u-> v)].\n\
         c[q(k : a -c-> w)] <- u[p(k : a -u-> v)] << {mode}.\n\
         s[r(k : a -s-> x)] <- c[q(k : a -C-> W)] << cau."
    )
}

const CHAINED_PROBES: &[&str] = &[
    "s[r(K : a -s-> V)]",
    "L[q(K : a -C-> V)] << opt",
    "L[q(K : a -C-> V)] << cau",
    "L[p(K : a -C-> V)] << fir",
];

#[test]
fn cautious_rule_over_an_optimistic_rule_answers_alike() {
    let src = cautious_over_a_monotone_rule("opt");
    assert_every_path_agrees(&src, &["u", "c", "s"], CHAINED_PROBES);
    let red = ReducedEngine::new(&parse_database(&src).unwrap(), "s").unwrap();
    assert_eq!(red.solve_text("s[r(K : a -s-> V)]").unwrap().len(), 1);
}

#[test]
fn cautious_rule_over_a_firm_rule_answers_alike() {
    let src = cautious_over_a_monotone_rule("fir");
    assert_every_path_agrees(&src, &["u", "c", "s"], CHAINED_PROBES);
    let red = ReducedEngine::new(&parse_database(&src).unwrap(), "s").unwrap();
    assert_eq!(red.solve_text("s[r(K : a -s-> V)]").unwrap().len(), 1);
}

#[test]
fn datalog_degeneration_equivalence() {
    // Prop 6.1: plain Datalog programs give classical answers through
    // both pipelines.
    let db = parse_database(
        "edge(a, b). edge(b, c). edge(c, d).\
         path(X, Y) <- edge(X, Y).\
         path(X, Y) <- edge(X, Z), path(Z, Y).",
    )
    .unwrap();
    let op = MultiLogEngine::new(&db, "system").unwrap();
    let red = ReducedEngine::new(&db, "system").unwrap();
    let a = op.solve_text("path(X, Y)").unwrap();
    let b = red.solve_text("path(X, Y)").unwrap();
    assert_eq!(a.len(), 6);
    assert_eq!(a, b);
}

#[test]
fn keyword_symbols_reduce_like_any_other_symbol() {
    // `mod` and `not` are plain MultiLog symbols but Datalog keywords:
    // the reduction must carry them as constants, never as syntax.
    let facts = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[mod(k : not -u-> mod)].
        c[mod(k : not -c-> not)].
        u[not(mod : mod -u-> v)].
        q(mod). q(not).
    "#;
    // With a cautious rule (per-level `rel_<level>` split) and without.
    let cautious = "s[p(K : a -s-> V)] <- c[mod(K : not -C-> V)] << cau, q(V).";
    let monotone = "s[p(K : a -s-> V)] <- c[mod(K : not -C-> V)] << opt, q(V).";
    let probes = [
        "L[mod(K : not -C-> V)]",
        "L[mod(K : not -C-> V)] << fir",
        "L[mod(K : not -C-> V)] << opt",
        "L[mod(K : not -C-> V)] << cau",
        "L[not(K : mod -C-> V)] << opt",
        "L[p(K : a -C-> V)] << cau",
        "q(X)",
    ];
    for rule in [cautious, monotone] {
        let db = parse_database(&format!("{facts}{rule}")).unwrap();
        let server = BeliefServer::new(db.clone(), EngineOptions::default());
        for user in ["u", "c", "s"] {
            assert_equivalent(&db, user, &probes);
            // A goal constant spelled `mod`, through every reduced entry.
            let goal = "L[mod(k : not -C-> mod)] << opt";
            let expected = MultiLogEngine::new(&db, user)
                .unwrap()
                .solve_text(goal)
                .unwrap();
            assert!(!expected.is_empty());
            let red = ReducedEngine::new(&db, user).unwrap();
            assert_eq!(red.solve_text(goal).unwrap(), expected, "solve at {user}");
            assert_eq!(
                red.solve_text_demand(goal).unwrap(),
                expected,
                "demand at {user}"
            );
            let reader = server.open_reader(user).unwrap();
            assert_eq!(
                reader.query_text(goal).unwrap(),
                expected,
                "reader at {user}"
            );
        }
    }
}

/// Generate a random admissible MultiLog database over a chain lattice:
/// random facts at random levels plus rules deriving `derived` cells at
/// a random level above the one their body believes (respecting belief
/// stratification). A rule reads `data`, or `derived` cells another rule
/// writes at its body level, so a `<< cau` rule can read the level an
/// `<< opt`/`<< fir` rule writes. Also returns the highest level no rule
/// writes through a `<< cau` belief, directly or below (`None` when
/// every level above the bottom is one): a rule copying that level's
/// cells down to the bottom closes no cycle through the negation.
fn arb_generated() -> impl Strategy<Value = (String, usize, Option<usize>)> {
    let fact = (0usize..3, 0usize..4, 0usize..3, 0usize..4);
    let rule = (0usize..4, 0usize..3, 0usize..4, 0usize..4, any::<bool>());
    (
        proptest::collection::vec(fact, 1..25),
        proptest::collection::vec(rule, 0..6),
        2usize..5,
    )
        .prop_map(|(facts, rules, depth)| {
            let mut src = String::new();
            for i in 0..depth {
                src.push_str(&format!("level(l{i}).\n"));
            }
            for i in 1..depth {
                src.push_str(&format!("order(l{}, l{i}).\n", i - 1));
            }
            for (lvl, key, cls, val) in facts {
                let lvl = lvl.min(depth - 1);
                // Keep classes at or below the fact's level so the guards
                // behave like the Mission examples.
                let cls = cls.min(lvl);
                src.push_str(&format!("l{lvl}[data(k{key} : a -l{cls}-> v{val})].\n"));
            }
            let top = depth - 1;
            // Levels whose relations depend on a cautious belief.
            let mut negative = vec![false; depth];
            let mut rules: Vec<_> = rules
                .into_iter()
                .map(|(key, mode, head, body, chained)| {
                    let head = 1 + head % top;
                    (key, ["opt", "cau", "fir"][mode], head, body % head, chained)
                })
                .collect();
            rules.sort_by_key(|r| r.2);
            for (key, mode, head, body, chained) in rules {
                let read = if chained {
                    format!("derived(k{key} : b")
                } else {
                    format!("data(k{key} : a")
                };
                src.push_str(&format!(
                    "l{head}[derived(k{key} : b -l{head}-> dv{key})] <- \
                     l{body}[{read} -C-> V)] << {mode}.\n"
                ));
                if mode == "cau" || negative[..=body].contains(&true) {
                    negative[head] = true;
                }
            }
            let positive = (1..depth).rev().find(|&l| !negative[l]);
            (src, depth, positive)
        })
}

/// [`arb_generated`]'s database and depth.
fn arb_db() -> impl Strategy<Value = (String, usize)> {
    arb_generated().prop_map(|(src, depth, _)| (src, depth))
}

/// A server-harness input: an [`arb_generated`] database with up to two
/// extra rules that depend on the clearance, so a shared server copies
/// them per open level, and a commit script of single-cell asserts and
/// retracts. The extras are a write-down rule (`l0` cells derived from
/// `data` above it) and a p-atom head over a belief at level `l_i`. The
/// write-down reads a level no cautious belief reaches, since copying
/// such a level down to `l0`, which every belief reads, would close a
/// negative cycle (no stratification, at any clearance). Committed cells
/// may be classified above their level.
fn arb_server_db() -> impl Strategy<Value = (String, usize, Vec<(bool, String)>)> {
    let cell = (any::<bool>(), 0usize..3, 0usize..4, 0usize..3, 0usize..4);
    (
        arb_generated(),
        any::<bool>(),
        0usize..4,
        proptest::collection::vec(cell, 1..6),
    )
        .prop_map(|((mut src, depth, positive), write_down, hot, script)| {
            let top = depth - 1;
            if let Some(from) = positive.filter(|_| write_down) {
                src.push_str(&format!(
                    "l0[down(K : a -l0-> V)] <- l{from}[data(K : a -C-> V)].\n"
                ));
            }
            if hot < depth {
                src.push_str(&format!("hot(K) <- l{hot}[data(K : a -C-> V)] << opt.\n"));
            }
            let script = script
                .into_iter()
                .map(|(assert, lvl, key, cls, val)| {
                    let (lvl, cls) = (lvl.min(top), cls.min(top));
                    (
                        assert,
                        format!("l{lvl}[data(k{key} : a -l{cls}-> v{val})]."),
                    )
                })
                .collect();
            (src, depth, script)
        })
}

/// Split a generated source into its non-`data`-fact lines and its set
/// of `data` fact lines.
fn split_facts(src: &str) -> (String, BTreeSet<String>) {
    let mut rest = String::new();
    let mut facts = BTreeSet::new();
    for line in src.lines() {
        if line.contains("[data(") && !line.contains("<-") {
            facts.insert(line.to_owned());
        } else {
            rest.push_str(line);
            rest.push('\n');
        }
    }
    (rest, facts)
}

/// The goals the server harness compares at every level.
const SERVER_PROBES: &[&str] = &[
    "L[data(K : a -C-> V)] << opt",
    "L[data(K : a -C-> V)] << cau",
    "L[derived(K : b -C-> V)] << fir",
    "L[derived(K : b -C-> V)] << cau",
    "L[down(K : a -C-> V)] << opt",
    "hot(K)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every commit of a script, a `BeliefServer` reader at each
    /// level answers exactly like the operational engine over base plus
    /// the committed cells — with the clearance-dependent rules in the
    /// mix, and one level opened only after the first commit.
    #[test]
    fn server_readers_match_fresh_reductions_after_commits(
        (src, depth, script) in arb_server_db()
    ) {
        let (rules, mut facts) = split_facts(&src);
        let server = BeliefServer::new(
            parse_database(&src).expect("generated db parses"),
            EngineOptions::default(),
        );
        let mut readers: Vec<_> = (1..depth)
            .map(|l| server.open_reader(&format!("l{l}")).expect("reader opens"))
            .collect();
        let mut writer = server.open_writer().expect("writer opens");
        for (i, (assert, fact)) in script.iter().enumerate() {
            let Head::M(m) = parse_clause(fact).expect("cell parses").remove(0).head else {
                unreachable!("script cells are m-facts");
            };
            let update = if *assert { EdbUpdate::Assert(m) } else { EdbUpdate::Retract(m) };
            writer.commit(&[update]).expect("commit applies");
            if *assert {
                facts.insert(fact.clone());
            } else {
                facts.remove(fact);
            }
            if i == 0 {
                readers.push(server.open_reader("l0").expect("late reader opens"));
            }
            let committed: String = facts.iter().map(|f| format!("{f}\n")).collect();
            let db = parse_database(&format!("{rules}{committed}")).expect("db parses");
            for reader in &mut readers {
                reader.refresh();
                let op = MultiLogEngine::new(&db, reader.user()).expect("operational ok");
                for goal in SERVER_PROBES {
                    prop_assert_eq!(
                        reader.query_text(goal).expect("reader solve"),
                        op.solve_text(goal).expect("operational solve"),
                        "`{}` at {} after {:?} for db:\n{}", goal, reader.user(),
                        &script[..=i], src
                    );
                }
            }
        }
    }

    #[test]
    fn equivalence_random_dbs((src, depth) in arb_db()) {
        let db = parse_database(&src).expect("generated db parses");
        for lvl in 0..depth {
            let user = format!("l{lvl}");
            let op = MultiLogEngine::new(&db, &user).expect("operational ok");
            let red = ReducedEngine::new(&db, &user).expect("reduction ok");
            for goal in [
                "L[data(K : a -C-> V)]",
                "L[data(K : a -C-> V)] << fir",
                "L[data(K : a -C-> V)] << opt",
                "L[data(K : a -C-> V)] << cau",
                "L[derived(K : b -C-> V)]",
                "L[derived(K : b -C-> V)] << opt",
                "L[derived(K : b -C-> V)] << cau",
            ] {
                let a = op.solve_text(goal).expect("op solve");
                let b = red.solve_text(goal).expect("red solve");
                prop_assert_eq!(a, b, "divergence on `{}` at {} for db:\n{}", goal, user, src);
            }
        }
    }

    #[test]
    fn operational_answers_respect_no_read_up((src, depth) in arb_db()) {
        let db = parse_database(&src).expect("generated db parses");
        for lvl in 0..depth {
            let user = format!("l{lvl}");
            let op = MultiLogEngine::new(&db, &user).expect("operational ok");
            let lat = op.lattice().clone();
            let u = lat.label(&user).expect("user level exists");
            for ans in op.solve_text("L[data(K : a -C-> V)]").expect("solve") {
                let l = ans["L"].to_string();
                let c = ans["C"].to_string();
                prop_assert!(lat.dominates_by_name(&user, &l).unwrap(),
                    "answer level {} not dominated by user {}", l, user);
                prop_assert!(lat.dominates_by_name(&user, &c).unwrap(),
                    "answer class {} not dominated by user {}", c, user);
                let _ = u;
            }
        }
    }
}
