//! Theorem 6.1 above one join chunk: on a database whose top level sees
//! more than 4 096 cells, the reduction's cautious-belief self-join
//! (`beaten` over `bel_opt`) joins a relation larger than one chunk on
//! its whole key `(P, K, A, H)`; in the semi-naive rounds of the top
//! level's demand plan it hashes `bel_opt` on that whole key. Its
//! `<< cau` answers must still equal the operational semantics' at
//! every level.
//! A one-cell commit into such a database joins its delta through the
//! key's thin bound columns, never through every `data` row, and its
//! readers still answer like a fresh reduction.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use multilog_core::ast::Head;
use multilog_core::reduce::{EdbUpdate, ReducedEngine};
use multilog_core::{
    parse_clause, parse_database, parse_goal, Answer, BeliefServer, EngineOptions, MultiLogEngine,
    SHARED_ENGINE,
};
use multilog_datalog::Const;

const LEVELS: usize = 3;
const KEYS: usize = 1500;

/// A deterministic database over the chain `l0 < l1 < l2`: every key
/// holds one `data` cell per level, at a class at or below that level,
/// with values drawn from a small domain so that cells collide and
/// dominate one another in every combination.
fn generated_db() -> String {
    let mut src = String::new();
    for i in 0..LEVELS {
        src.push_str(&format!("level(l{i}).\n"));
    }
    for i in 1..LEVELS {
        src.push_str(&format!("order(l{}, l{i}).\n", i - 1));
    }
    for k in 0..KEYS {
        for lvl in 0..LEVELS {
            let cls = (k + lvl) % (lvl + 1);
            let val = (k * 7 + lvl * 3) % 5;
            src.push_str(&format!("l{lvl}[data(k{k} : a -l{cls}-> v{val})].\n"));
        }
    }
    src
}

#[test]
fn cautious_answers_agree_above_one_join_chunk() {
    let db = parse_database(&generated_db()).unwrap();
    let goal = "L[data(K : a -C-> V)] << cau";
    for lvl in 0..LEVELS {
        let user = format!("l{lvl}");
        let op = MultiLogEngine::new(&db, &user).unwrap();
        let red = ReducedEngine::new(&db, &user).unwrap();
        let expected = op.solve_text(goal).unwrap();
        assert!(!expected.is_empty(), "no cautious answers at {user}");
        assert_eq!(
            expected,
            red.solve_text(goal).unwrap(),
            "divergence on `{goal}` at {user}"
        );
        if lvl == LEVELS - 1 {
            // The top level sees every cell. The full evaluation joins
            // `beaten` once over complete inputs; the demand plan for
            // the goal still runs its stratum semi-naively, joining
            // deltas above one chunk. Each of its rounds covers
            // `bel_opt`, so the self-join hashes it on the whole bound
            // key and never defects, and its probes stay within four
            // passes over the pairs of `bel_opt` rows that share
            // `(P, K, A, H)` (a merge join seeking one column made
            // twice that and defected).
            let goal = parse_goal(goal).unwrap();
            let (answers, stats) = red.solve_demand_with_stats(&goal).unwrap();
            assert_eq!(norm(&answers), norm(&red.solve(&goal).unwrap()));
            let beaten: Vec<_> = stats
                .per_rule
                .iter()
                .filter(|r| r.rule.contains("__beaten(") && r.rule.contains("C != C2"))
                .collect();
            assert!(!beaten.is_empty(), "no demand beaten rule in the stats");
            let probes: u64 = beaten.iter().map(|r| r.join_probes).sum();
            let defections: u64 = beaten.iter().map(|r| r.join_defections).sum();
            let matched = key_pairs(&red);
            assert_eq!(defections, 0, "top-level demand beaten join defected");
            assert!(
                probes <= 4 * matched,
                "top-level demand beaten join: {probes} probes for {matched} matched pairs"
            );
        }
    }
}

/// Pairs of `bel_opt` rows of `red`'s fixpoint that share `(P, K, A, H)`:
/// the rows `beaten`'s self-join matches.
fn key_pairs(red: &ReducedEngine) -> u64 {
    let mut groups: HashMap<[Const; 4], u64> = HashMap::new();
    for row in red.database().relation("bel_opt").unwrap().iter() {
        *groups.entry([row[0], row[1], row[2], row[5]]).or_default() += 1;
    }
    groups.values().map(|n| n * n).sum()
}

fn norm(answers: &[Answer]) -> Vec<String> {
    let mut out: Vec<String> = answers.iter().map(|a| format!("{a:?}")).collect();
    out.sort();
    out
}

#[test]
fn one_cell_commit_probes_its_key_not_the_relation() {
    let src = generated_db();
    let cells = (KEYS * LEVELS) as u64;
    let server = BeliefServer::new(parse_database(&src).unwrap(), EngineOptions::default());
    let mut readers: Vec<_> = (0..LEVELS)
        .map(|lvl| server.open_reader(&format!("l{lvl}")).unwrap())
        .collect();
    let mut writer = server.open_writer().unwrap();
    // A fresh `l1` value on one key beats that key's lower cells at `l1`
    // and `l2` until it is retracted.
    let cell = "l1[data(k7 : a -l1-> churn)].";
    let Head::M(m) = parse_clause(cell).unwrap().remove(0).head else {
        panic!("{cell} is an m-fact");
    };
    for assert in [true, false] {
        let update = if assert {
            EdbUpdate::Assert(m.clone())
        } else {
            EdbUpdate::Retract(m.clone())
        };
        let summary = writer.commit(&[update]).unwrap();
        let stats = &summary.levels[SHARED_ENGINE];
        assert!(
            stats.derived_added + stats.derived_removed > 0,
            "{cell} (assert {assert}) changed nothing: {stats:?}"
        );
        // Every `data` row shares the delta's `P` (the predicate name
        // τ puts first); only the key columns are thin.
        assert!(
            stats.join_probes < cells,
            "{cell} (assert {assert}): {} join probes over {cells} cells",
            stats.join_probes
        );
        let db = if assert {
            parse_database(&format!("{src}{cell}\n")).unwrap()
        } else {
            parse_database(&src).unwrap()
        };
        let goal = "L[data(K : a -C-> V)] << cau";
        for (lvl, reader) in readers.iter_mut().enumerate() {
            reader.refresh();
            let fresh = ReducedEngine::new(&db, &format!("l{lvl}")).unwrap();
            assert_eq!(
                norm(&reader.query_text(goal).unwrap()),
                norm(&fresh.solve_text(goal).unwrap()),
                "`{goal}` at l{lvl} after {cell} (assert {assert})"
            );
        }
    }
}
