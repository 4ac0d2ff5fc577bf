//! Property tests for the incremental maintenance subsystem: after any
//! random interleaving of insert/retract transactions, the maintained
//! database must equal the from-scratch fixpoint over the surviving
//! base facts — through positive recursion and across negation strata,
//! which DRed maintains by delta (a change to a negated predicate is
//! itself a delta), with the per-stratum recompute fallback pinned
//! separately — and through aggregate and `@`-operator strata, which are
//! recomputed whole when one of their inputs changes.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use proptest::prelude::*;

use multilog_datalog::{
    parse_program, CommitStats, Const, Database, Engine, IncrementalEngine, Program,
};

/// Rules spanning three strata: recursive closure, negation over the
/// closure (`sink` with a local variable inside the negation), and
/// negation over a negation-maintained predicate (`settled`, and `stray`,
/// whose two negations can both change in one commit). `edge` and `b` are
/// the churned base relations.
const RULES: &str = "path(X, Y) :- edge(X, Y).\n\
                     path(X, Z) :- edge(X, Y), path(Y, Z).\n\
                     node(X) :- edge(X, Y).\n\
                     node(Y) :- edge(X, Y).\n\
                     sink(X) :- node(X), not edge(X, Y).\n\
                     unreach(X, Y) :- node(X), node(Y), not path(X, Y).\n\
                     lonely(X) :- b(X), not node(X).\n\
                     settled(X) :- b(X), not sink(X).\n\
                     stray(X) :- b(X), not node(X), not sink(X).\n";

/// `RULES` plus an aggregate over `edge`, an `@bfs` closure of it, and
/// rules that join (`hub`, `cyclic`) and negate (`quiet`) their outputs.
const OPERATOR_RULES: &str = "deg(X, count(Y)) :- edge(X, Y).\n\
                              reach(X, Y) :- @bfs(edge, X, Y).\n\
                              hub(X) :- deg(X, N), N >= 2.\n\
                              quiet(X) :- b(X), not deg(X, N).\n\
                              cyclic(X) :- reach(X, X), b(X).\n";

/// One staged update: `(on_edge, insert, x, y)`. `y` is ignored for the
/// unary relation `b`.
type Update = (bool, bool, usize, usize);

/// A transaction history: each inner vector is one `begin`…`commit`.
fn arb_history() -> impl Strategy<Value = Vec<Vec<Update>>> {
    let update = (any::<bool>(), any::<bool>(), 0usize..5, 0usize..5);
    proptest::collection::vec(proptest::collection::vec(update, 1..5), 1..8)
}

/// Initial seed facts so the engine materializes a non-trivial fixpoint
/// before the first commit, followed by `rules`.
fn seed_src(rules: &str) -> String {
    format!("edge(n0, n1).\nedge(n1, n2).\nb(n0).\nb(n3).\n{rules}")
}

/// The reference model: the surviving base facts as plain sets.
#[derive(Default)]
struct BaseModel {
    edges: BTreeSet<(usize, usize)>,
    bs: BTreeSet<usize>,
}

impl BaseModel {
    fn seeded() -> Self {
        BaseModel {
            edges: [(0, 1), (1, 2)].into(),
            bs: [0, 3].into(),
        }
    }

    /// The equivalent from-scratch program: `rules` plus surviving base.
    fn program(&self, rules: &str) -> Program {
        let mut src = String::new();
        for &(x, y) in &self.edges {
            src.push_str(&format!("edge(n{x}, n{y}).\n"));
        }
        for &x in &self.bs {
            src.push_str(&format!("b(n{x}).\n"));
        }
        src.push_str(rules);
        parse_program(&src).expect("model program is valid")
    }
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

/// Apply one transaction to both the engine and the set model.
fn apply_commit(
    engine: &mut IncrementalEngine,
    model: &mut BaseModel,
    commit: &[Update],
) -> CommitStats {
    engine.begin().unwrap();
    for &(on_edge, insert, x, y) in commit {
        if on_edge {
            let fact = vec![Const::sym(format!("n{x}")), Const::sym(format!("n{y}"))];
            if insert {
                engine.insert("edge", fact).unwrap();
                model.edges.insert((x, y));
            } else {
                engine.retract("edge", fact).unwrap();
                model.edges.remove(&(x, y));
            }
        } else {
            let fact = vec![Const::sym(format!("n{x}"))];
            if insert {
                engine.insert("b", fact).unwrap();
                model.bs.insert(x);
            } else {
                engine.retract("b", fact).unwrap();
                model.bs.remove(&x);
            }
        }
    }
    engine.commit().unwrap()
}

/// The maintained database must equal the from-scratch fixpoint of the
/// model's surviving base, with empty relations ignored (retractions can
/// drain a relation the scratch program never mentions).
fn assert_matches_model(
    engine: &IncrementalEngine,
    model: &BaseModel,
    rules: &str,
) -> Result<(), TestCaseError> {
    let scratch = Engine::new(&model.program(rules)).unwrap().run().unwrap();
    prop_assert_eq!(all_facts(engine.database()), all_facts(&scratch));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_equals_scratch_after_every_commit(history in arb_history()) {
        let program = parse_program(&seed_src(RULES)).unwrap();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        let mut model = BaseModel::seeded();
        for commit in &history {
            apply_commit(&mut engine, &mut model, commit);
            assert_matches_model(&engine, &model, RULES)?;
        }
    }

    #[test]
    fn threaded_incremental_equals_scratch(history in arb_history()) {
        let program = parse_program(&seed_src(RULES)).unwrap();
        let mut engine = IncrementalEngine::new(&program)
            .unwrap()
            .with_threads(4);
        // Re-materialize under the threaded configuration so the
        // parallel evaluation path is exercised too.
        engine.recover().unwrap();
        let mut model = BaseModel::seeded();
        for commit in &history {
            apply_commit(&mut engine, &mut model, commit);
        }
        assert_matches_model(&engine, &model, RULES)?;
    }

    #[test]
    fn low_fallback_threshold_equals_scratch(history in arb_history()) {
        // Threshold 0 forces the per-stratum recompute fallback on every
        // deletion, pinning the fallback path against the same oracle.
        let program = parse_program(&seed_src(RULES)).unwrap();
        let mut engine = IncrementalEngine::new(&program)
            .unwrap()
            .with_fallback_threshold(0);
        let mut model = BaseModel::seeded();
        for commit in &history {
            apply_commit(&mut engine, &mut model, commit);
            assert_matches_model(&engine, &model, RULES)?;
        }
    }

    #[test]
    fn pure_dred_equals_scratch(history in arb_history()) {
        // No threshold fallback: every stratum, including the two that
        // negate changed predicates, is maintained purely by delta.
        let program = parse_program(&seed_src(RULES)).unwrap();
        let mut engine = IncrementalEngine::new(&program)
            .unwrap()
            .with_fallback_threshold(usize::MAX);
        let mut model = BaseModel::seeded();
        for commit in &history {
            let stats = apply_commit(&mut engine, &mut model, commit);
            prop_assert_eq!(stats.strata_recomputed, 0, "{:?}", stats);
            assert_matches_model(&engine, &model, RULES)?;
        }
    }

    #[test]
    fn operator_strata_equal_scratch(history in arb_history()) {
        // Aggregate and operator strata, recomputed whole on an input
        // change, feed rules that join and negate them; the default
        // threshold and threshold 0 (every DRed stratum falls back too)
        // must both track the from-scratch model after every commit.
        let rules = format!("{RULES}{OPERATOR_RULES}");
        let program = parse_program(&seed_src(&rules)).unwrap();
        for threshold in [None, Some(0)] {
            let mut engine = IncrementalEngine::new(&program).unwrap();
            if let Some(t) = threshold {
                engine = engine.with_fallback_threshold(t);
            }
            let mut model = BaseModel::seeded();
            for commit in &history {
                apply_commit(&mut engine, &mut model, commit);
                assert_matches_model(&engine, &model, &rules)?;
            }
        }
    }
}

/// A DRed commit tombstones its deletion overestimate before it
/// rederives it, and the bound-column estimates count tombstones. On a
/// chain, retracting `edge(n1, n2)` tombstones every `path(n0, _)` row
/// but `path(n0, n1)`: `X = n0` still estimates `N` rows. The rederive
/// join `path(X, Y)` must drive from `X`, which holds one live row per
/// candidate key, not from `Y`, which holds up to `N`.
#[test]
fn tombstoned_bound_column_drives_by_its_live_rows() {
    const N: usize = 256;
    let mut src = String::new();
    for i in 0..N {
        src.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
    }
    src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n");
    let mut engine = IncrementalEngine::new(&parse_program(&src).unwrap()).unwrap();
    engine.begin().unwrap();
    engine
        .retract("edge", vec![Const::sym("n1"), Const::sym("n2")])
        .unwrap();
    let stats = engine.commit().unwrap();
    let candidates = 2 * (N - 1);
    assert_eq!(stats.derived_removed, candidates);
    // A few probes per rederive candidate; driving from `Y` makes ~66 k.
    assert!(
        stats.join_probes <= 8 * candidates as u64,
        "{} join probes for {candidates} rederive candidates",
        stats.join_probes
    );
    let rest = parse_program(&src.replacen("edge(n1, n2).\n", "", 1)).unwrap();
    let scratch = Engine::new(&rest).unwrap().run().unwrap();
    assert_eq!(all_facts(engine.database()), all_facts(&scratch));
}
