//! Property tests for demand-driven belief queries through the τ
//! reduction: over randomly generated MultiLog databases (chain
//! lattices, classified facts, optimistic and cautious rules) and random
//! partially-bound goals, [`ReducedEngine::solve_demand`] must return
//! exactly the answers of the materialized [`ReducedEngine::solve`]
//! path — the magic-sets rewrite composes with the τ encoding, the
//! no-read-up guards, and the stratified cautious negation machinery.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use multilog_core::ast::Atom;
use multilog_core::reduce::{EdbUpdate, ReducedEngine};
use multilog_core::{parse_database, EngineOptions, MultiLogDb};

/// A random admissible MultiLog database over a chain lattice `l0 ⪯ l1
/// ⪯ …`, mirroring the generator of `properties.rs`: classified `data`
/// facts plus `derived` rules consuming them optimistically or
/// cautiously.
fn arb_db() -> impl Strategy<Value = (String, usize)> {
    let fact = (0usize..3, 0usize..5, 0usize..3, 0usize..5);
    let rule = (0usize..5, any::<bool>());
    (
        2usize..4,
        proptest::collection::vec(fact, 1..16),
        proptest::collection::vec(rule, 0..4),
    )
        .prop_map(|(depth, facts, rules)| {
            let mut src = String::new();
            for i in 0..depth {
                src.push_str(&format!("level(l{i}).\n"));
            }
            for i in 1..depth {
                src.push_str(&format!("order(l{}, l{i}).\n", i - 1));
            }
            for (lvl, key, cls, val) in facts {
                let lvl = lvl.min(depth - 1);
                let cls = cls.min(lvl);
                src.push_str(&format!("l{lvl}[data(k{key} : a -l{cls}-> v{val})].\n"));
            }
            let top = depth - 1;
            for (key, cau) in rules {
                let mode = if cau { "cau" } else { "opt" };
                src.push_str(&format!(
                    "l{top}[derived(k{key} : b -l{top}-> out{key})] <- \
                     l{}[data(k{key} : a -C-> V)] << {mode}.\n",
                    top - 1
                ));
            }
            (src, depth)
        })
}

/// Goal templates: point lookups (bound keys), per-mode belief queries,
/// and one fully-free goal exercising the cone fallback.
fn goal_source(kind: usize, key: usize, lvl: usize) -> String {
    match kind {
        0 => format!("l{lvl}[data(k{key} : a -C-> V)]"),
        1 => format!("l{lvl}[data(k{key} : a -C-> V)] << fir"),
        2 => format!("l{lvl}[data(k{key} : a -C-> V)] << opt"),
        3 => format!("l{lvl}[data(k{key} : a -C-> V)] << cau"),
        4 => format!("l{lvl}[derived(k{key} : b -C-> V)]"),
        5 => format!("L[data(k{key} : a -C-> V)] << opt"),
        _ => "L[data(K : a -C-> V)]".to_owned(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `magic_equals_full` through the reduced (τ-encoded) engine.
    #[test]
    fn demand_equals_materialized(
        (src, depth) in arb_db(),
        kind in 0usize..7,
        key in 0usize..5,
        lvl in 0usize..4,
    ) {
        let db: MultiLogDb = parse_database(&src).expect("generated db parses");
        let lvl = lvl.min(depth - 1);
        let goal = goal_source(kind, key, lvl);
        for user_lvl in [0, depth - 1] {
            let user = format!("l{user_lvl}");
            let red = ReducedEngine::new(&db, &user).expect("generated db reduces");
            prop_assert_eq!(
                red.solve_text(&goal).unwrap(),
                red.solve_text_demand(&goal).unwrap(),
                "goal `{}` at user {} over:\n{}",
                goal, user, src
            );
        }
    }

    /// Deferred engines (no materialization ever) answer demand queries
    /// identically to fully materialized ones.
    #[test]
    fn deferred_demand_equals_materialized(
        (src, depth) in arb_db(),
        kind in 0usize..7,
        key in 0usize..5,
    ) {
        let db: MultiLogDb = parse_database(&src).expect("generated db parses");
        let user = format!("l{}", depth - 1);
        let goal = goal_source(kind, key, depth - 1);
        let deferred =
            ReducedEngine::with_options_deferred(&db, &user, EngineOptions::default())
                .expect("generated db reduces");
        let materialized = ReducedEngine::new(&db, &user).expect("generated db reduces");
        prop_assert_eq!(
            deferred.solve_text_demand(&goal).unwrap(),
            materialized.solve_text(&goal).unwrap(),
            "goal `{}` at user {} over:\n{}",
            goal, user, src
        );
        prop_assert_eq!(deferred.database().fact_count(), 0);
    }
}

/// One step of a demand session over [`session_source`]'s database.
#[derive(Clone, Debug)]
enum Step {
    /// `l{lvl}[data(k{key} : a -C-> V)]`, believed in `mode` (none, fir,
    /// opt or cau) — the shapes repeat with different keys.
    Data { lvl: usize, key: usize, mode: usize },
    /// `L[derived(k{key} : b -C-> V)]`, the top level's rule heads.
    Derived { key: usize },
    /// Assert (or retract) the data cell `l{lvl}[data(k{key} : a -l{cls}-> v{val})]`.
    Commit {
        assert: bool,
        lvl: usize,
        key: usize,
        cls: usize,
        val: usize,
    },
}

impl Step {
    fn goal(&self) -> Option<String> {
        match self {
            Step::Data { lvl, key, mode } => {
                let mode = ["", " << fir", " << opt", " << cau"][*mode];
                Some(format!("l{lvl}[data(k{key} : a -C-> V)]{mode}"))
            }
            Step::Derived { key } => Some(format!("L[derived(k{key} : b -C-> V)]")),
            Step::Commit { .. } => None,
        }
    }
}

/// A chain lattice `l0 ⪯ … ⪯ l{depth-1}`, data cells strictly below the
/// top level, and top-level `derived` rules, the first of them cautious:
/// the reduction splits `rel` per level and the top level's `rel`
/// relation starts out with rules only.
fn session_source(depth: usize, cells: &[String], rules: &[(usize, bool)]) -> String {
    let mut src = String::new();
    for i in 0..depth {
        src.push_str(&format!("level(l{i}).\n"));
    }
    for i in 1..depth {
        src.push_str(&format!("order(l{}, l{i}).\n", i - 1));
    }
    for c in cells {
        src.push_str(&format!("{c}.\n"));
    }
    let top = depth - 1;
    for (i, &(key, opt)) in rules.iter().enumerate() {
        let mode = if opt && i > 0 { "opt" } else { "cau" };
        src.push_str(&format!(
            "l{top}[derived(k{key} : b -l{top}-> out{key})] <- \
             l{}[data(k{key} : a -C-> V)] << {mode}.\n",
            top - 1
        ));
    }
    src
}

fn data_cell(depth: usize, lvl: usize, key: usize, cls: usize, val: usize) -> String {
    let lvl = lvl.min(depth - 2);
    format!("l{lvl}[data(k{key} : a -l{}-> v{val})]", cls.min(lvl))
}

/// A generated demand session: the lattice depth, the initial data
/// cells, the `derived` rules as `(key, optimistic)`, and the steps.
#[derive(Clone, Debug)]
struct Session {
    depth: usize,
    cells: Vec<String>,
    rules: Vec<(usize, bool)>,
    steps: Vec<Step>,
}

fn arb_session() -> impl Strategy<Value = Session> {
    let cell = (0usize..3, 0usize..4, 0usize..3, 0usize..4);
    let step = (0usize..10, 0usize..4, 0usize..4, 0usize..4, 0usize..4);
    (
        3usize..5,
        proptest::collection::vec(cell, 1..12),
        proptest::collection::vec((0usize..4, any::<bool>()), 1..4),
        proptest::collection::vec(step, 4..16),
    )
        .prop_map(|(depth, cells, rules, steps)| {
            let cells: Vec<String> = cells
                .into_iter()
                .map(|(l, k, c, v)| data_cell(depth, l, k, c, v))
                .collect();
            let mut steps: Vec<Step> = steps
                .into_iter()
                .map(|(kind, a, b, c, d)| match kind {
                    0..=5 => Step::Data {
                        lvl: a.min(depth - 1),
                        key: b,
                        mode: c,
                    },
                    6 => Step::Derived { key: b },
                    _ => Step::Commit {
                        assert: kind != 9,
                        lvl: a,
                        key: b,
                        cls: c,
                        val: d,
                    },
                })
                .collect();
            // Give the top level's rule-headed `rel` its first base fact
            // halfway through, then ask about it.
            let mid = steps.len() / 2;
            steps.insert(mid, Step::Derived { key: 1 });
            steps.insert(
                mid,
                Step::Commit {
                    assert: true,
                    lvl: depth - 1,
                    key: 1,
                    cls: 0,
                    val: 9,
                },
            );
            Session {
                depth,
                cells,
                rules,
                steps,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A long-lived deferred engine answers a sequence of goals whose
    /// shapes repeat with different keys — every prepared plan is reused
    /// — across commits: the first commit turns flow pruning's
    /// update-sensitive bounds off, and one gives the top level's
    /// rule-headed `rel` relation its first base fact. Every answer
    /// equals `solve` on an engine freshly materialized from the
    /// committed database, with flow pruning on and off, at the top
    /// clearance and the bottom one.
    #[test]
    fn demand_sessions_across_commits_equal_fresh_materialization(
        session in arb_session(),
    ) {
        let Session { depth, cells, rules, steps } = session;
        let top = depth - 1;
        let mut current: Vec<String> = cells;
        let db = parse_database(&session_source(depth, &current, &rules)).unwrap();
        let mut engines: Vec<(String, bool, ReducedEngine)> = Vec::new();
        for user in [format!("l{top}"), "l0".to_owned()] {
            for flow_prune in [false, true] {
                let options = EngineOptions { flow_prune, ..EngineOptions::default() };
                let engine = ReducedEngine::with_options_deferred(&db, &user, options).unwrap();
                engines.push((user.clone(), flow_prune, engine));
            }
        }
        let mut committed = false;
        let mut fresh: Option<Vec<ReducedEngine>> = None;
        for step in &steps {
            if let Step::Commit { assert, lvl, key, cls, val } = *step {
                let text = if lvl == top {
                    format!("l{top}[derived(k{key} : b -l{}-> w{val})]", cls.min(top))
                } else {
                    data_cell(depth, lvl, key, cls, val)
                };
                let atom = match multilog_core::parse_goal(&text).unwrap().remove(0) {
                    Atom::M(m) => m,
                    other => panic!("not an m-atom: {other}"),
                };
                let update = if assert {
                    current.push(text.clone());
                    EdbUpdate::Assert(atom)
                } else {
                    current.retain(|c| *c != text);
                    EdbUpdate::Retract(atom)
                };
                for (_, _, engine) in &mut engines {
                    if !committed {
                        // Deferred engines commit once materialized.
                        engine.rematerialize().unwrap();
                    }
                    engine.apply_updates(std::slice::from_ref(&update)).unwrap();
                }
                committed = true;
                fresh = None;
                continue;
            }
            let goal = step.goal().unwrap();
            let fresh = fresh.get_or_insert_with(|| {
                let src = session_source(depth, &current, &rules);
                let db = parse_database(&src).unwrap();
                engines
                    .iter()
                    .map(|(user, _, _)| ReducedEngine::new(&db, user).unwrap())
                    .collect()
            });
            for ((user, flow_prune, engine), want) in engines.iter().zip(fresh.iter()) {
                prop_assert_eq!(
                    engine.solve_text_demand(&goal).unwrap(),
                    want.solve_text(&goal).unwrap(),
                    "goal `{}` at {} (flow_prune {}) after {:?} over:\n{}",
                    goal, user, flow_prune, steps,
                    session_source(depth, &current, &rules)
                );
            }
        }
    }
}
