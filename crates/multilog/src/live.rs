//! A *live* MLS database: Jajodia–Sandhu update operations applied to a
//! relational instance, with the MultiLog belief semantics maintained
//! incrementally instead of re-encoded and re-evaluated per update.
//!
//! [`LiveDatabase`] pairs an [`MlsRelation`] with a [`BeliefServer`] over
//! its encoding. Each [`Op`] (§2's insert/assert/update/delete under
//! required polyinstantiation) is applied to the relation, the tuple-level
//! diff is translated to m-atom assertions and retractions, and one
//! server commit maintains the materialized fixpoint — so belief queries
//! (`<< fir` / `<< opt` / `<< cau`) stay warm across the whole update
//! history. Queries answer from a [`ReaderSession`] at the subject level,
//! refreshed after every commit; a failed commit is handled by the
//! server's contract (nothing published, engines rebuilt or parked and
//! healed later).
//!
//! Two distinct tuples can contribute the *same* m-atom (polyinstantiated
//! variants sharing an attribute cell), so the bridge reference-counts
//! each contributed fact and only asserts on the 0→1 transition and
//! retracts on the 1→0 transition.

// Update-path no-panic policy, as in `multilog_datalog::incremental`:
// invariant breaks surface as `MultiLogError::Internal`, never aborts.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use multilog_datalog as dl;
use multilog_mlsrel::ops::{self, Op};
use multilog_mlsrel::{MlsRelation, MlsTuple, Value};

use crate::ast::{MAtom, Term};
use crate::engine::{Answer, EngineOptions};
use crate::examples::{encode_relation, sym};
use crate::reduce::EdbUpdate;
use crate::server::{BeliefServer, ReaderSession};
use crate::Result;

/// An MLS relational instance whose MultiLog belief semantics is
/// maintained incrementally across update operations.
///
/// ```
/// use multilog_core::live::LiveDatabase;
/// use multilog_mlsrel::ops::Op;
/// use multilog_mlsrel::{mission, MlsRelation, Value};
///
/// let (_, scheme) = mission::mission_scheme();
/// let mut live = LiveDatabase::new(MlsRelation::new(scheme), "s").unwrap();
/// live.apply(&Op::Insert {
///     level: "S".into(),
///     values: vec![
///         Value::str("Voyager"),
///         Value::str("Spying"),
///         Value::str("Mars"),
///     ],
/// })
/// .unwrap();
/// let ans = live
///     .solve_text("s[mission(voyager : objective -C-> V)] << cau")
///     .unwrap();
/// assert_eq!(ans.len(), 1);
/// ```
pub struct LiveDatabase {
    relation: MlsRelation,
    /// The server every diff commits through.
    server: BeliefServer,
    /// Pinned at the subject level; refreshed after every commit.
    reader: ReaderSession,
    /// Encoded predicate name (the relation's, sanitized).
    pred: std::sync::Arc<str>,
    /// Encoded attribute names, in scheme order.
    attrs: Vec<std::sync::Arc<str>>,
    /// How many live tuples contribute each encoded m-atom (keyed by its
    /// rendering, which is injective on ground atoms).
    refcounts: BTreeMap<String, usize>,
}

impl std::fmt::Debug for LiveDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveDatabase")
            .field("tuples", &self.relation.len())
            .field("facts", &self.refcounts.len())
            .finish_non_exhaustive()
    }
}

impl LiveDatabase {
    /// Encode `relation` (Example 5.1's per-tuple molecules plus the
    /// lattice) and materialize its belief fixpoint for the subject level
    /// `user`. The user level is sanitized like every other symbol, so
    /// `"S"` names the same level as `"s"`.
    ///
    /// # Errors
    ///
    /// [`crate::MultiLogError::NotAdmissible`] if `user` is not a level
    /// of the relation's lattice; any reduction or evaluation error.
    pub fn new(relation: MlsRelation, user: &str) -> Result<Self> {
        Self::with_options(relation, user, EngineOptions::default())
    }

    /// Like [`LiveDatabase::new`], with evaluation guards: the fact
    /// budget, deadline, and cancellation token of `options` cover the
    /// initial materialization, every later update commit, and every
    /// query.
    pub fn with_options(relation: MlsRelation, user: &str, options: EngineOptions) -> Result<Self> {
        let db = crate::parser::parse_database(&encode_relation(&relation))?;
        let server = BeliefServer::new(db, options);
        let reader = server.open_reader(&sym(user))?;
        let pred: std::sync::Arc<str> = sym(relation.scheme().name()).into();
        let attrs: Vec<std::sync::Arc<str>> = relation
            .scheme()
            .attr_names()
            .map(|a| std::sync::Arc::from(sym(a)))
            .collect();
        let mut live = LiveDatabase {
            relation,
            server,
            reader,
            pred,
            attrs,
            refcounts: BTreeMap::new(),
        };
        for t in live.relation.tuples() {
            for m in tuple_atoms(&live.pred, &live.attrs, &live.relation, t) {
                *live.refcounts.entry(m.to_string()).or_insert(0) += 1;
            }
        }
        Ok(live)
    }

    /// The current relational instance.
    pub fn relation(&self) -> &MlsRelation {
        &self.relation
    }

    /// The reader session answering queries, pinned at the newest
    /// commit.
    pub fn reader(&self) -> &ReaderSession {
        &self.reader
    }

    /// Apply one update operation and incrementally maintain the belief
    /// fixpoint. The operation either fully applies — relation mutated,
    /// m-atom diff committed — or nothing changes.
    ///
    /// # Errors
    ///
    /// [`crate::MultiLogError::Relational`] if the operation is invalid
    /// (not visible, duplicate key, bad level). A guard trip mid-commit
    /// returns the trip error with the relation, refcounts, and answers
    /// all as before the operation; the server rebuilds its engine (or
    /// parks it and heals it at the next `apply`), so the session stays
    /// usable.
    pub fn apply(&mut self, op: &Op) -> Result<dl::CommitStats> {
        // Apply to a scratch copy: `ops::apply` can leave a relation
        // partially mutated when it errors mid-way.
        let mut next = self.relation.clone();
        ops::apply(&mut next, op)?;
        let removed = self
            .relation
            .tuples()
            .iter()
            .filter(|t| !next.tuples().contains(t));
        let added = next
            .tuples()
            .iter()
            .filter(|t| !self.relation.tuples().contains(t));
        let mut counts = self.refcounts.clone();
        let mut batch: Vec<EdbUpdate> = Vec::new();
        for t in removed {
            for m in tuple_atoms(&self.pred, &self.attrs, &self.relation, t) {
                let key = m.to_string();
                let slot = counts
                    .get_mut(&key)
                    .ok_or_else(|| crate::MultiLogError::Internal {
                        detail: format!("live tuple's m-atom `{m}` is not refcounted"),
                    })?;
                *slot -= 1;
                if *slot == 0 {
                    counts.remove(&key);
                    batch.push(EdbUpdate::Retract(m));
                }
            }
        }
        for t in added {
            for m in tuple_atoms(&self.pred, &self.attrs, &next, t) {
                let slot = counts.entry(m.to_string()).or_insert(0);
                *slot += 1;
                if *slot == 1 {
                    batch.push(EdbUpdate::Assert(m));
                }
            }
        }
        let summary = self.server.open_writer()?.commit(&batch)?;
        // All-or-nothing: only a successful commit publishes the new
        // relation and refcounts, so failures leak neither.
        self.relation = next;
        self.refcounts = counts;
        self.reader.refresh();
        Ok(summary
            .levels
            .get(self.reader.user())
            .cloned()
            .unwrap_or_default())
    }

    /// Apply a whole history of operations in order.
    ///
    /// # Errors
    ///
    /// As for [`LiveDatabase::apply`]; the history stops at the first
    /// failing operation.
    pub fn replay(&mut self, history: &[Op]) -> Result<()> {
        for op in history {
            self.apply(op)?;
        }
        Ok(())
    }

    /// Parse and solve a textual MultiLog goal against the maintained
    /// fixpoint.
    ///
    /// # Errors
    ///
    /// Parse errors; any query evaluation error.
    pub fn solve_text(&self, goal: &str) -> Result<Vec<Answer>> {
        self.reader.query_text(goal)
    }
}

/// The m-atoms a tuple contributes under the Example 5.1 encoding: one
/// per attribute (key attribute included), at the tuple's `TC` level.
fn tuple_atoms(
    pred: &std::sync::Arc<str>,
    attrs: &[std::sync::Arc<str>],
    rel: &MlsRelation,
    t: &MlsTuple,
) -> Vec<MAtom> {
    let lat = rel.lattice();
    let level = Term::sym(sym(lat.name(t.tc)));
    let key = value_term(t.key());
    attrs
        .iter()
        .zip(t.values.iter().zip(&t.classes))
        .map(|(attr, (v, &c))| MAtom {
            level: level.clone(),
            pred: pred.clone(),
            key: key.clone(),
            attr: attr.clone(),
            class: Term::sym(sym(lat.name(c))),
            value: value_term(v),
        })
        .collect()
}

/// A relational value as a MultiLog term, matching
/// [`encode_relation`]'s textual conversion exactly.
fn value_term(v: &Value) -> Term {
    match v {
        Value::Null => Term::Null,
        Value::Str(s) => Term::sym(sym(s)),
        Value::Int(i) => Term::Int(*i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReducedEngine;
    use multilog_mlsrel::mission;

    /// A freshly re-encoded, from-scratch engine over the same relation —
    /// what the live engine must always agree with.
    fn rebuilt(rel: &MlsRelation, user: &str) -> ReducedEngine {
        let db = crate::parser::parse_database(&encode_relation(rel)).unwrap();
        ReducedEngine::new(&db, &sym(user)).unwrap()
    }

    fn assert_agrees(live: &LiveDatabase, user: &str) {
        let fresh = rebuilt(live.relation(), user);
        for attr in ["starship", "objective", "destination"] {
            for mode in ["", " << fir", " << opt", " << cau"] {
                let goal = format!("L[mission(K : {attr} -C-> V)]{mode}");
                assert_eq!(
                    live.solve_text(&goal).unwrap(),
                    fresh.solve_text(&goal).unwrap(),
                    "goal `{goal}` diverged from a full rebuild"
                );
            }
        }
    }

    #[test]
    fn mission_history_stays_consistent_with_rebuild() {
        let (_, scheme) = mission::mission_scheme();
        let mut live = LiveDatabase::new(MlsRelation::new(scheme), "s").unwrap();
        for op in mission::mission_history() {
            live.apply(&op).unwrap();
            assert_agrees(&live, "s");
        }
        // The replayed history reproduces Figure 1.
        let (_, fig1) = mission::mission_relation();
        assert!(live.relation().same_tuples(&fig1));
    }

    #[test]
    fn invalid_op_changes_nothing() {
        let (_, scheme) = mission::mission_scheme();
        let mut live = LiveDatabase::new(MlsRelation::new(scheme), "s").unwrap();
        let before = live.relation().len();
        let err = live.apply(&Op::Delete {
            level: "U".into(),
            key: Value::str("Ghost"),
            key_class: "U".into(),
        });
        assert!(matches!(err, Err(crate::MultiLogError::Relational(_))));
        assert_eq!(live.relation().len(), before);
        assert_agrees(&live, "s");
    }

    #[test]
    fn polyinstantiated_update_keeps_cover_story_beliefs() {
        let (_, scheme) = mission::mission_scheme();
        let mut live = LiveDatabase::new(MlsRelation::new(scheme), "s").unwrap();
        live.apply(&Op::Insert {
            level: "U".into(),
            values: vec![
                Value::str("Falcon"),
                Value::str("Exploration"),
                Value::str("Venus"),
            ],
        })
        .unwrap();
        // An s-subject update polyinstantiates; the u original survives.
        live.apply(&Op::Update {
            level: "S".into(),
            key: Value::str("Falcon"),
            key_class: "U".into(),
            assignments: vec![("Objective".into(), Some(Value::str("Spying")), "S".into())],
        })
        .unwrap();
        assert_eq!(live.relation().len(), 2);
        assert_agrees(&live, "s");
        // Cautiously, s believes the s-classified objective, not the
        // beaten u cover story.
        let cau = live
            .solve_text("s[mission(falcon : objective -C-> V)] << cau")
            .unwrap();
        assert_eq!(cau.len(), 1);
        assert_eq!(cau[0]["V"], Term::sym("spying"));
    }

    #[test]
    fn replay_matches_per_op_application() {
        let (_, scheme) = mission::mission_scheme();
        let mut live = LiveDatabase::new(MlsRelation::new(scheme), "c").unwrap();
        live.replay(&mission::mission_history()).unwrap();
        assert_agrees(&live, "c");
    }

    fn mission_insert(ship: &str, dest: &str) -> Op {
        Op::Insert {
            level: "S".into(),
            values: vec![Value::str(ship), Value::str("Spying"), Value::str(dest)],
        }
    }

    #[test]
    fn session_recovers_after_budget_tripped_commit() {
        // Probe run: measure the fixpoint size after each op, so the
        // real run can set a budget that admits op 1 (and recovery of
        // its state) but trips mid-commit of op 2.
        let (_, scheme) = mission::mission_scheme();
        let mut probe = LiveDatabase::new(MlsRelation::new(scheme.clone()), "s").unwrap();
        probe.apply(&mission_insert("Voyager", "Mars")).unwrap();
        let after_first = probe.reader().snapshot().database().fact_count();
        probe.apply(&mission_insert("Falcon", "Venus")).unwrap();
        let after_second = probe.reader().snapshot().database().fact_count();
        assert!(after_second > after_first + 1, "need budget headroom");

        let options = EngineOptions {
            fact_limit: after_second - 1,
            ..EngineOptions::default()
        };
        let mut live = LiveDatabase::with_options(MlsRelation::new(scheme), "s", options).unwrap();
        live.apply(&mission_insert("Voyager", "Mars")).unwrap();

        // The second insert blows the budget mid-commit; the server
        // must rebuild the pre-op fixpoint (which fits the budget) and
        // publish nothing, leaving the session immediately usable.
        let err = live.apply(&mission_insert("Falcon", "Venus")).unwrap_err();
        assert!(matches!(err, crate::MultiLogError::BudgetExceeded { .. }));
        assert_eq!(live.reader().latest_epoch(), 1, "nothing published");
        assert_eq!(live.relation().len(), 1, "failed op must not apply");
        assert_agrees(&live, "s");

        // The refcount bridge was not corrupted by the failed attempt:
        // a small in-budget op still nets out exactly.
        live.apply(&Op::Delete {
            level: "S".into(),
            key: Value::str("Voyager"),
            key_class: "S".into(),
        })
        .unwrap();
        assert_eq!(live.relation().len(), 0);
        assert_agrees(&live, "s");
    }

    #[test]
    fn session_recovers_lazily_after_cancelled_recovery() {
        // A cancelled commit leaves the engine poisoned AND defeats the
        // server's rebuild (the sticky token cancels that too), parking
        // the level. Once the token resets, the next `apply` heals it
        // and the session recovers without manual intervention.
        let (_, scheme) = mission::mission_scheme();
        let cancel = multilog_datalog::CancelToken::new();
        let options = EngineOptions {
            cancel: Some(cancel.clone()),
            ..EngineOptions::default()
        };
        let mut live = LiveDatabase::with_options(MlsRelation::new(scheme), "s", options).unwrap();
        live.apply(&mission_insert("Voyager", "Mars")).unwrap();

        cancel.cancel();
        let err = live.apply(&mission_insert("Falcon", "Venus")).unwrap_err();
        assert!(matches!(err, crate::MultiLogError::Cancelled));
        assert_eq!(live.relation().len(), 1, "failed op must not apply");

        cancel.reset();
        live.apply(&mission_insert("Falcon", "Venus")).unwrap();
        assert_eq!(live.reader().epoch(), 2);
        assert_eq!(live.relation().len(), 2);
        assert_agrees(&live, "s");
    }
}
