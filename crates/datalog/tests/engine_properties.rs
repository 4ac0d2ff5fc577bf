//! Property tests: the semi-naive, batched engine must agree with the
//! naive, tuple-at-a-time reference evaluator on the least model, and
//! evaluation must be deterministic.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use multilog_datalog::{
    parse_program, reference, Const, Database, Engine, IncrementalEngine, Program,
};

/// Random edge relations over a small constant universe plus the standard
/// recursive closure rules — a family of programs with genuine recursion.
fn arb_closure_program() -> impl Strategy<Value = Program> {
    let edge = (0usize..6, 0usize..6);
    proptest::collection::vec(edge, 0..20).prop_map(|edges| {
        let mut src = String::new();
        for (a, b) in edges {
            src.push_str(&format!("edge(n{a}, n{b}).\n"));
        }
        src.push_str(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             node(X) :- edge(X, Y).\n\
             node(Y) :- edge(X, Y).\n\
             sink(X) :- node(X), not edge(X, Y).\n\
             unreach(X, Y) :- node(X), node(Y), not path(X, Y).\n",
        );
        parse_program(&src).expect("generated program is valid")
    })
}

/// Random stratified programs: random base facts plus a random subset of
/// rule templates spanning three strata (positive recursion, negation
/// over it, negation over the negation). Every subset is stratified and
/// safe by construction, so the generator exercises multi-stratum
/// pipelines without ever tripping the validation layer.
fn arb_stratified_program() -> impl Strategy<Value = Program> {
    let a_fact = (0usize..5, 0usize..5);
    let b_fact = 0usize..5;
    (
        proptest::collection::vec(a_fact, 0..15),
        proptest::collection::vec(b_fact, 0..6),
        0u32..256,
    )
        .prop_map(|(a, b, mask)| {
            let mut src = String::new();
            for (x, y) in a {
                src.push_str(&format!("a(c{x}, c{y}).\n"));
            }
            for x in b {
                src.push_str(&format!("b(c{x}).\n"));
            }
            let templates = [
                "t(X, Y) :- a(X, Y).",
                "t(X, Z) :- a(X, Y), t(Y, Z).",
                "s(X) :- b(X).",
                "s(X) :- t(X, Y), b(Y).",
                "u(X) :- b(X), not s(X).",
                "u(X) :- s(X), X != c0.",
                "v(X, Y) :- t(X, Y), not u(X).",
                "w(X) :- u(X), not t(X, X).",
            ];
            for (i, rule) in templates.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    src.push_str(rule);
                    src.push('\n');
                }
            }
            parse_program(&src).expect("generated program is valid")
        })
}

fn all_facts(db: &Database) -> Vec<(String, Box<[Const]>)> {
    let mut out = Vec::new();
    for (pred, rel) in db.relations() {
        for f in rel.sorted() {
            out.push((pred.to_owned(), f));
        }
    }
    out.sort();
    out
}

/// Every fact that one tuple-at-a-time application of each clause of `p`
/// (facts included) derives from `db`, sorted and deduplicated. A
/// stratified program's model is supported and closed, so on the least
/// model this is the model itself.
fn tuple_step(p: &Program, db: &Database) -> Vec<(String, Box<[Const]>)> {
    let mut out = Vec::new();
    for c in p.clauses() {
        for f in reference::apply_rule(c, db).unwrap() {
            out.push((c.head.predicate.as_str().to_owned(), f));
        }
    }
    out.sort();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn naive_and_seminaive_agree(p in arb_closure_program()) {
        // The engine (semi-naive, batched, join-ordered) and the
        // reference (naive, tuple-at-a-time, textual order) reach the
        // same least model on recursive programs with negation.
        let semi = Engine::new(&p).unwrap().run().unwrap();
        let naive = reference::model(&p).unwrap();
        prop_assert_eq!(all_facts(&semi), all_facts(&naive));
    }

    #[test]
    fn evaluation_is_deterministic(p in arb_closure_program()) {
        let a = Engine::new(&p).unwrap().run().unwrap();
        let b = Engine::new(&p).unwrap().run().unwrap();
        prop_assert_eq!(all_facts(&a), all_facts(&b));
    }

    #[test]
    fn parallel_equals_sequential_on_closure(p in arb_closure_program()) {
        // threshold 0 forces the parallel path even on tiny deltas.
        let seq = Engine::new(&p).unwrap().with_threads(1).run().unwrap();
        for threads in [2usize, 4] {
            let par = Engine::new(&p)
                .unwrap()
                .with_threads(threads)
                .with_parallel_threshold(0)
                .run()
                .unwrap();
            prop_assert_eq!(all_facts(&seq), all_facts(&par));
        }
    }

    #[test]
    fn parallel_equals_sequential_on_stratified(p in arb_stratified_program()) {
        let seq = Engine::new(&p).unwrap().with_threads(1).run().unwrap();
        for threads in [2usize, 3, 8] {
            let par = Engine::new(&p)
                .unwrap()
                .with_threads(threads)
                .with_parallel_threshold(0)
                .run()
                .unwrap();
            prop_assert_eq!(all_facts(&seq), all_facts(&par));
        }
    }

    #[test]
    fn batched_equals_tuple_executor_on_closure(p in arb_closure_program()) {
        // One tuple-at-a-time application of every clause to the batched
        // engine's model yields exactly that model.
        let batched = Engine::new(&p).unwrap().run().unwrap();
        prop_assert_eq!(tuple_step(&p, &batched), all_facts(&batched));
    }

    #[test]
    fn batched_equals_tuple_executor_on_stratified(p in arb_stratified_program()) {
        let batched = Engine::new(&p).unwrap().run().unwrap();
        prop_assert_eq!(tuple_step(&p, &batched), all_facts(&batched));
    }

    #[test]
    fn strategies_agree_on_stratified(p in arb_stratified_program()) {
        let semi = Engine::new(&p).unwrap().run().unwrap();
        let naive = reference::model(&p).unwrap();
        prop_assert_eq!(all_facts(&semi), all_facts(&naive));
    }

    #[test]
    fn model_is_closed_under_rules(p in arb_closure_program()) {
        // Applying every rule to the fixpoint database adds nothing new:
        // re-running the engine seeded with its own output is idempotent.
        // (We check closure indirectly: path must contain edge, and the
        // composition of edge and path.)
        let db = Engine::new(&p).unwrap().run().unwrap();
        let empty = multilog_datalog::Relation::new();
        let edges = db.relation("edge").unwrap_or(&empty);
        let paths = db.relation("path").unwrap_or(&empty);
        for e in edges.iter() {
            prop_assert!(paths.contains(&e), "edge {:?} not in path", e);
        }
        for e in edges.iter() {
            for q in paths.iter() {
                if e[1] == q[0] {
                    let composed = vec![e[0], q[1]];
                    prop_assert!(paths.contains(&composed));
                }
            }
        }
    }

    #[test]
    fn negation_partitions_node_pairs(p in arb_closure_program()) {
        // unreach(X, Y) must hold exactly when path(X, Y) fails, over nodes.
        let db = Engine::new(&p).unwrap().run().unwrap();
        let empty = multilog_datalog::Relation::new();
        let nodes = db.relation("node").unwrap_or(&empty);
        let paths = db.relation("path").unwrap_or(&empty);
        let unreach = db.relation("unreach").unwrap_or(&empty);
        for x in nodes.iter() {
            for y in nodes.iter() {
                let pair = vec![x[0], y[0]];
                let has_path = paths.contains(&pair);
                let has_unreach = unreach.contains(&pair);
                prop_assert_eq!(has_path, !has_unreach);
            }
        }
    }
}

/// Run `src` on the engine, assert it reaches the reference model, and
/// return its counters for the rules with head `head`:
/// `(join_probes, join_defections, facts_added)`.
fn batched_rule_counters(src: &str, head: &str) -> (u64, u64, usize) {
    let p = parse_program(src).unwrap();
    let (batched, stats) = Engine::new(&p).unwrap().run_with_stats().unwrap();
    let naive = reference::model(&p).unwrap();
    assert_eq!(
        all_facts(&batched),
        all_facts(&naive),
        "engine disagrees with the reference"
    );
    let rules: Vec<_> = stats
        .per_rule
        .iter()
        .filter(|r| r.rule.starts_with(&format!("{head}(")))
        .collect();
    assert!(!rules.is_empty(), "no `{head}` rule in the stats");
    (
        rules.iter().map(|r| r.join_probes).sum(),
        rules.iter().map(|r| r.join_defections).sum(),
        rules.iter().map(|r| r.facts_added).sum(),
    )
}

/// The `visible` cell `i` of a cautious-belief self-join database: key
/// `i / 3` (whose `(P, K, A)` values `key_cols` names) at class `i % 3`.
fn visible_cell(i: usize, key_cols: &impl Fn(usize) -> [String; 3]) -> [String; 5] {
    let [p, k, a] = key_cols(i / 3);
    [p, k, a, format!("v{i}"), format!("c{}", i % 3)]
}

/// The cautious-belief self-join of the reduction, over a `visible`
/// relation larger than one join chunk (4 096 rows). Every key holds
/// three cells at classes `c0 < c1 < c2`; `key_cols(key)` names the
/// key's `(P, K, A)` values, which the self-join binds.
fn beaten_src(rows: usize, key_cols: impl Fn(usize) -> [String; 3]) -> String {
    let mut src = String::from(
        "dominate(c0, c0). dominate(c0, c1). dominate(c0, c2).\n\
         dominate(c1, c1). dominate(c1, c2). dominate(c2, c2).\n",
    );
    for i in 0..rows {
        src.push_str(&format!(
            "visible({}).\n",
            visible_cell(i, &key_cols).join(", ")
        ));
    }
    src.push_str(
        "beaten(P, K, A, C) :- visible(P, K, A, V, C), visible(P, K, A, V2, C2), \
         dominate(C, C2), C != C2.\n",
    );
    src
}

/// Two classes of every full key are beaten by a higher one; the last
/// key of `rows` cells holds only `rows % 3` of them.
fn beaten_count(rows: usize) -> usize {
    2 * (rows / 3) + (rows % 3).saturating_sub(1)
}

/// Commit cells `rows..rows + fresh` into an incremental engine over the
/// first `rows` cells of [`beaten_src`], assert it then holds the
/// reference model of all of them, and return the commit's
/// `(join_probes, join_defections, derived_added)`. The commit's
/// self-join reads a delta of `fresh` rows, too few to amortize hashing
/// `visible` whole, so it runs the merge join.
fn commit_counters(
    rows: usize,
    fresh: usize,
    key_cols: impl Fn(usize) -> [String; 3],
) -> (u64, u64, usize) {
    let mut engine =
        IncrementalEngine::new(&parse_program(&beaten_src(rows, &key_cols)).unwrap()).unwrap();
    engine.begin().unwrap();
    for i in rows..rows + fresh {
        let cell = visible_cell(i, &key_cols).map(|c| Const::sym(&c));
        engine.insert("visible", cell.to_vec()).unwrap();
    }
    let stats = engine.commit().unwrap();
    let whole = parse_program(&beaten_src(rows + fresh, &key_cols)).unwrap();
    assert_eq!(
        all_facts(engine.database()),
        all_facts(&reference::model(&whole).unwrap()),
        "commit disagrees with the reference"
    );
    (
        stats.join_probes,
        stats.join_defections,
        stats.derived_added,
    )
}

#[test]
fn fat_merge_key_groups_defect_to_the_hash_join() {
    const ROWS: usize = 5000;
    const FRESH: usize = 300;
    // Every bound column is fat — 16, 17 and 19 values of P, K and A,
    // hundreds of rows each — while the full key stays thin (the values
    // are coprime moduli of the key, so no two keys share all three).
    // The committed keys take 2, 3 and 5 of those values: whichever
    // column drives, its key groups are fat on both sides. The first
    // `thin_keys` committed keys take values of their own on every
    // column: thin groups beside the fat ones.
    for thin_keys in [0, 20] {
        let (probes, defections, added) = commit_counters(ROWS, FRESH, |key| {
            let fresh = key.checked_sub(ROWS / 3 + 1);
            match fresh {
                Some(f) if f < thin_keys => [format!("tp{f}"), format!("tk{f}"), format!("ta{f}")],
                Some(_) => [
                    format!("p{}", key % 2),
                    format!("k{}", key % 3),
                    format!("a{}", key % 5),
                ],
                None => [
                    format!("p{}", key % 16),
                    format!("k{}", key % 17),
                    format!("a{}", key % 19),
                ],
            }
        });
        assert!(added > 0, "thin_keys={thin_keys}: the commit beat nothing");
        let bound = 4 * (ROWS + FRESH) as u64;
        assert!(
            probes <= bound,
            "thin_keys={thin_keys}: {probes} join probes, bound {bound}"
        );
        assert!(defections > 0, "thin_keys={thin_keys}: no defection");
    }
}

#[test]
fn thin_bound_column_drives_the_join() {
    const ROWS: usize = 6000;
    const FRESH: usize = 600;
    // One value of P and of A for every row: only K, three rows per
    // value, is thin. The commit's self-join must seek through K, not
    // defect after seeking every row through P.
    let (probes, defections, added) = commit_counters(ROWS, FRESH, |key| {
        ["p0".into(), format!("k{key}"), "a0".into()]
    });
    assert_eq!(added, beaten_count(FRESH));
    assert_eq!(
        defections, 0,
        "a thin bound column leaves nothing to defect"
    );
    // Rows the commit's two delta joins match: each committed cell with
    // every cell of its key.
    let matched = 2 * 9 * (FRESH as u64 / 3);
    assert!(
        probes <= 3 * matched,
        "{probes} join probes for {matched} matched rows"
    );
}

#[test]
fn full_evaluation_hashes_the_whole_bound_key() {
    const ROWS: usize = 6000;
    // Fat P, K and A (16, 17 and 19 values), thin full key. The full
    // evaluation's input covers `visible`, so the self-join hashes it on
    // every bound column and each input row probes only the cells of its
    // own key and class.
    let src = beaten_src(ROWS, |key| {
        [
            format!("p{}", key % 16),
            format!("k{}", key % 17),
            format!("a{}", key % 19),
        ]
    });
    let (probes, defections, added) = batched_rule_counters(&src, "beaten");
    assert_eq!(added, beaten_count(ROWS));
    assert_eq!(defections, 0, "the whole-key table leaves no merge join");
    // Pairs of cells of one key whose classes the rule relates (`C`
    // strictly below `C2`): 3 per key. After scanning the 6 `dominate`
    // rows the plan enumerates each pair twice — `dominate ⋈ visible` on
    // the class, then the self-join on the rest of the key — and probes
    // nothing else.
    let matched = 3 * (ROWS as u64 / 3);
    assert!(
        probes <= 6 + 2 * matched,
        "{probes} join probes for {matched} matched pairs"
    );
}

#[test]
fn single_bound_column_joins_never_defect() {
    // tc_chain-shaped closure over a fan: 4 200 spokes into one hub,
    // which fans out to four leaves. `edge` is larger than one join
    // chunk, so the recursive rule merge-joins on `Y` with one fat key
    // group (every spoke) — but a single bound column leaves nothing
    // for a hash join to filter on, so the merge join keeps it.
    let mut src = String::new();
    for i in 0..4200 {
        src.push_str(&format!("edge(x{i}, hub).\n"));
    }
    for k in 0..4 {
        src.push_str(&format!("edge(hub, z{k}).\n"));
    }
    src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n");
    let (_, defections, added) = batched_rule_counters(&src, "path");
    assert_eq!(added, 4204 + 4200 * 4);
    assert_eq!(defections, 0);
}

#[test]
fn printed_program_reparses_to_same_model() {
    let src = "edge(a, b). edge(b, c).\n\
               path(X, Y) :- edge(X, Y).\n\
               path(X, Y) :- edge(X, Z), path(Z, Y).\n\
               node(X) :- edge(X, Y).\n\
               isolated(X) :- node(X), not path(X, Y).";
    let p1 = parse_program(src).unwrap();
    let p2 = parse_program(&p1.to_string()).unwrap();
    let d1 = Engine::new(&p1).unwrap().run().unwrap();
    let d2 = Engine::new(&p2).unwrap().run().unwrap();
    assert_eq!(all_facts(&d1), all_facts(&d2));
}
