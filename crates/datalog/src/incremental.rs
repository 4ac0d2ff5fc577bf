//! Incremental maintenance: a materialized fixpoint kept alive across
//! insert/retract transactions.
//!
//! The [`IncrementalEngine`] owns a [`Database`] holding the full
//! stratified fixpoint of its program and applies *deltas* instead of
//! recomputing from scratch when the extensional database changes. The
//! algorithm is counting + DRed (delete-and-rederive), stratum by
//! stratum:
//!
//! * **Counted support for asserted facts.** Every explicitly asserted
//!   fact (program fact clauses and committed inserts) is tracked in a
//!   `base` [`Database`]; retracting a fact that was never asserted is a
//!   no-op, and a fact that is both asserted and derivable survives the
//!   loss of either support. Facts are data: the rules run over the base
//!   at materialization and recovery, and no fact is ever compiled.
//! * **Deletion overestimate.** For each stratum the engine enumerates
//!   every fact with at least one derivation through a deleted fact,
//!   using the semi-naive delta variants of the stratum's compiled
//!   [`plan`](crate::plan) join plans. Deleted lower-stratum facts are
//!   temporarily re-inserted while the overestimate runs so the non-delta
//!   join positions range over (a superset of) the *old* database — the
//!   classic DRed requirement.
//! * **Rederive.** Overestimated facts are removed, then re-admitted if
//!   they are base-asserted or still derivable from the surviving
//!   database; rederivations propagate semi-naively.
//! * **Insertion propagation.** New facts propagate with the same delta
//!   plans; a fact re-derived after being deleted in the same commit nets
//!   out to no change.
//! * **Negation as a delta.** A negated predicate `q` always lives in a
//!   lower stratum, so its change is final when the stratum runs, and
//!   each `not q(..)` gets two plan variants (Gupta, Mumick and
//!   Subrahmanian's treatment of stratified negation). The
//!   *overestimate* variant flips it to a positive delta literal over
//!   `q`'s insertions; it runs while the lower strata show their old
//!   state (`q`'s insertions hidden, its deletions restored), and the
//!   facts it derives join the deletion overestimate. The *insertion*
//!   variant puts a positive copy of `q(..)` over `q`'s deletions just
//!   before the kept `not q(..)`; the facts it derives join the
//!   insertion frontier. Both variants rename the negation's existential
//!   variables apart, so `sink(X) :- node(X), not edge(X, Y)` still asks
//!   whether `X` has *no* out-edge, not whether the one deleted edge is
//!   gone.
//! * **Stratum recompute.** A stratum that holds an aggregate clause or
//!   an `@`-operator call consumes complete relations, so it has no sound
//!   per-fact delta rules: when one of its inputs changed (an operator's
//!   input relation included), it is recomputed from scratch — its
//!   predicates reset to their base facts, then the batch engine's
//!   stratum step (operators, aggregate folds, semi-naive fixpoint) —
//!   and the result diffed against the old contents, so higher strata
//!   receive exact deltas and keep DRed. The same recompute is the
//!   fallback of a DRed stratum whose deletion cascade overshoots a
//!   heuristic threshold.
//!
//! Every phase threads one [`EvalGuard`] (deadline, fact budget,
//! cancellation), so a runaway cascade surfaces as the same typed errors
//! as batch evaluation. A commit that trips a guard leaves the database
//! mid-propagation: the engine is then *poisoned* and only
//! [`IncrementalEngine::recover`] (a full rematerialization) is accepted.

// The transactional update path must never panic: a long-lived belief
// server funnels every commit through this module, and an `expect()`
// here would take down every session. Internal invariants surface as
// `DatalogError::Internal` instead (tests are exempt via clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::time::{Duration, Instant};

use crate::atom::{Atom, Literal};
use crate::clause::Clause;
use crate::eval::{Engine, EvalStats};
use crate::fx::{FxHashMap, FxHashSet};
use crate::guard::EvalGuard;
use crate::plan::{RulePlan, Scratch};
use crate::program::Program;
use crate::storage::{key_of, Database, Fact, FactBuf, Relation};
use crate::term::{Const, SymId, Term};
use crate::{CancelToken, DatalogError, Result};

/// One staged update inside an open transaction.
struct PendingOp {
    insert: bool,
    pred: SymId,
    fact: Fact,
}

/// Net insert/delete delta of one predicate within a commit.
#[derive(Default)]
struct PredDelta {
    ins: Vec<Fact>,
    del: Vec<Fact>,
}

/// What one [`IncrementalEngine::commit`] did, for observability and the
/// benchmark suite.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommitStats {
    /// Base facts added by this commit (net of cancelling ops).
    pub edb_inserted: usize,
    /// Base facts removed by this commit (net of cancelling ops).
    pub edb_retracted: usize,
    /// Derived facts that became true.
    pub derived_added: usize,
    /// Derived facts that became false.
    pub derived_removed: usize,
    /// Overestimated deletions re-admitted by the rederivation phase.
    pub rederived: usize,
    /// Strata recomputed from scratch: aggregate and `@`-operator strata
    /// whose inputs changed, plus DRed strata whose deletion cascade
    /// overshot the fallback threshold.
    pub strata_recomputed: usize,
    /// Time spent enumerating the deletion overestimate, in milliseconds.
    pub overestimate_ms: f64,
    /// Time spent deleting the overestimate and rederiving survivors.
    pub rederive_ms: f64,
    /// Time spent propagating insertions.
    pub propagate_ms: f64,
    /// Time spent recomputing the strata counted by
    /// `strata_recomputed`, including the diff against their old
    /// contents.
    pub recompute_ms: f64,
    /// Time spent sealing index tails for published snapshots.
    pub seal_ms: f64,
    /// Cells, dedup entries and tombstone words copied by copy-on-write
    /// detaches of relations still shared with a published generation
    /// (or between the base and the fixpoint), counted where a shared
    /// relation is made unique. A deterministic measure of what the
    /// commit copied, and of what dropping the superseded generation
    /// frees.
    pub detached_cells: usize,
    /// Join probes (rows enumerated by scans, see
    /// [`RuleStats::join_probes`](crate::RuleStats::join_probes)) of
    /// every rule plan the commit ran: the overestimate, rederive,
    /// propagate and recompute phases summed. A deterministic measure of
    /// the commit's join work.
    pub join_probes: u64,
    /// Merge joins of those plans that defected to the hash join on every
    /// bound column (see
    /// [`RuleStats::join_defections`](crate::RuleStats::join_defections)).
    pub join_defections: u64,
    /// Wall-clock time of the commit, in milliseconds. The phase timings
    /// above cover disjoint parts of it, so they sum to at most this.
    pub wall_ms: f64,
}

/// A materialized stratified fixpoint maintained across insert/retract
/// transactions.
///
/// ```
/// use multilog_datalog::{parse_program, Const, IncrementalEngine};
///
/// let program = parse_program(
///     "edge(a, b). path(X, Y) :- edge(X, Y).
///      path(X, Z) :- path(X, Y), edge(Y, Z).",
/// )
/// .unwrap();
/// let mut engine = IncrementalEngine::new(&program).unwrap();
/// engine.begin().unwrap();
/// engine.insert("edge", vec![Const::sym("b"), Const::sym("c")]).unwrap();
/// engine.commit().unwrap();
/// assert!(engine.database().contains("path", &[Const::sym("a"), Const::sym("c")]));
/// engine.begin().unwrap();
/// engine.retract("edge", vec![Const::sym("a"), Const::sym("b")]).unwrap();
/// engine.commit().unwrap();
/// assert!(!engine.database().contains("path", &[Const::sym("a"), Const::sym("c")]));
/// ```
pub struct IncrementalEngine {
    /// The program's rules, validated once, with the whole program's
    /// arity table (which staged updates must match); fact clauses live
    /// in `base` so they are retractable like any committed insert.
    rules: Program,
    /// Predicates of each stratum, lowest stratum first, computed once
    /// at construction.
    strata: Vec<Vec<String>>,
    /// `strata`, interned.
    stratum_preds: Vec<FxHashSet<SymId>>,
    stratum_of: FxHashMap<SymId, usize>,
    /// Indexes into `rules` whose head predicate lives in each stratum.
    stratum_rules: Vec<Vec<usize>>,
    /// Per stratum: `Some` with the input relations of its `@`-calls
    /// when it holds an aggregate clause or an `@`-call predicate, `None`
    /// otherwise. Aggregates and operators consume *complete* relations,
    /// so they have no sound per-fact delta rules: such a stratum is
    /// recomputed whole, and only when one of its inputs changed.
    whole_strata: Vec<Option<Vec<SymId>>>,
    /// Predicates derived by a rule or an algorithm operator.
    idb: FxHashSet<SymId>,
    db: Database,
    /// Explicitly asserted facts: the retractable extensional support.
    base: Database,
    pending: Vec<PendingOp>,
    in_txn: bool,
    poisoned: bool,
    fact_limit: usize,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    threads: usize,
    fallback_threshold: Option<usize>,
    /// Compiled rule variants (with their reusable executor scratch),
    /// shared across commits so batch buffers and join-table caches stay
    /// warm.
    plans: PlanCache,
    /// Per-rule/per-stratum counters from the most recent full
    /// materialization ([`IncrementalEngine::recover`]).
    materialize_stats: EvalStats,
    /// Columns that queries against the published database bind by value
    /// ([`IncrementalEngine::with_reader_index`]); sealed at every commit
    /// and recovery.
    reader_columns: Vec<(SymId, usize)>,
}

impl IncrementalEngine {
    /// Create an engine and materialize the program's fixpoint.
    ///
    /// The program's fact clauses seed the extensional `base` and are
    /// retractable in later transactions, exactly like committed inserts.
    ///
    /// # Errors
    ///
    /// [`DatalogError::NotStratifiable`] if negation occurs through
    /// recursion; any evaluation error from the initial materialization.
    pub fn new(program: &Program) -> Result<Self> {
        let mut engine = Self::new_deferred(program)?;
        engine.recover()?;
        Ok(engine)
    }

    /// Create an engine *without* materializing the fixpoint. The engine
    /// starts poisoned: apply configuration builders (guards, threads),
    /// then call [`recover`](IncrementalEngine::recover) to run the
    /// initial materialization under that configuration.
    ///
    /// # Errors
    ///
    /// [`DatalogError::NotStratifiable`] if negation occurs through
    /// recursion.
    pub fn new_deferred(program: &Program) -> Result<Self> {
        let rules = program.without_facts();
        let strata: Vec<Vec<String>> = rules.stratify()?.iter().map(<[String]>::to_vec).collect();
        let stratum_preds: Vec<FxHashSet<SymId>> = strata
            .iter()
            .map(|preds| preds.iter().map(|p| SymId::intern(p)).collect())
            .collect();
        let mut stratum_of = FxHashMap::default();
        for (s, preds) in stratum_preds.iter().enumerate() {
            for &p in preds {
                stratum_of.insert(p, s);
            }
        }
        let mut facts: Vec<(SymId, Fact)> = Vec::new();
        for clause in program.clauses().iter().filter(|c| c.is_fact()) {
            // Safety validation guarantees fact clauses are ground; a
            // program that bypassed it surfaces here as a typed error,
            // not a panic (no-panic policy).
            let fact = clause
                .head
                .as_fact()
                .ok_or_else(|| DatalogError::Internal {
                    detail: format!("fact clause `{clause}` has a non-ground head"),
                })?;
            facts.push((clause.head.predicate, fact.into()));
        }
        // Sorted, so a relation's rows cluster by their leading columns
        // and so do the rows derived from them: a reader seeking one key
        // touches neighbouring rows. The storage key order (interned ids,
        // as the sorted runs use) clusters as well as symbol text does
        // and reads no text.
        fn keys(f: &Fact) -> impl Iterator<Item = u128> + '_ {
            f.iter().map(|&c| key_of(c))
        }
        facts.sort_unstable_by(|(p, a), (q, b)| {
            p.index().cmp(&q.index()).then_with(|| keys(a).cmp(keys(b)))
        });
        let mut base = Database::new();
        for (pred, fact) in facts {
            base.insert_id(pred, fact);
        }
        let mut stratum_rules = vec![Vec::new(); stratum_preds.len()];
        let mut aggregates = vec![false; stratum_preds.len()];
        for (i, rule) in rules.clauses().iter().enumerate() {
            let s = stratum_of
                .get(&rule.head.predicate)
                .copied()
                .ok_or_else(|| DatalogError::Internal {
                    detail: format!(
                        "head predicate `{}` is missing from the stratification",
                        rule.head.predicate
                    ),
                })?;
            stratum_rules[s].push(i);
            aggregates[s] |= rule.agg.is_some();
        }
        let mut idb: FxHashSet<SymId> = rules.clauses().iter().map(|r| r.head.predicate).collect();
        let mut whole_strata = Vec::with_capacity(stratum_preds.len());
        for (preds, aggregate) in stratum_preds.iter().zip(aggregates) {
            let calls: Vec<(SymId, SymId)> = preds
                .iter()
                .filter_map(|&p| {
                    let (_, input) = crate::algo::parse_call(p.as_str())?;
                    Some((p, SymId::intern(input)))
                })
                .collect();
            idb.extend(calls.iter().map(|&(call, _)| call));
            whole_strata.push(
                (aggregate || !calls.is_empty())
                    .then(|| calls.iter().map(|&(_, input)| input).collect()),
            );
        }
        let engine = IncrementalEngine {
            rules,
            strata,
            stratum_preds,
            stratum_of,
            stratum_rules,
            whole_strata,
            idb,
            db: Database::new(),
            base,
            pending: Vec::new(),
            in_txn: false,
            poisoned: true, // until the first materialization lands
            fact_limit: 10_000_000,
            deadline: None,
            cancel: None,
            threads: 1,
            fallback_threshold: None,
            plans: PlanCache::default(),
            materialize_stats: EvalStats::default(),
            reader_columns: Vec::new(),
        };
        Ok(engine)
    }

    /// Set the guard budget on materialized facts (default 10 million).
    #[must_use]
    pub fn with_fact_limit(mut self, limit: usize) -> Self {
        self.fact_limit = limit;
        self
    }

    /// Set a wall-clock deadline applied to each commit (and to
    /// [`recover`](IncrementalEngine::recover)).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Install a cooperative cancellation token consulted during commits.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Worker threads used by full rematerializations
    /// ([`recover`](IncrementalEngine::recover)); delta application
    /// itself is sequential.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Override the deletion-cascade size at which a stratum falls back
    /// to a from-scratch recompute. The default heuristic is
    /// `max(64, stratum_facts / 4)` per stratum.
    #[must_use]
    pub fn with_fallback_threshold(mut self, threshold: usize) -> Self {
        self.fallback_threshold = Some(threshold);
        self
    }

    /// Keep `predicate`'s `column` indexed in the database this engine
    /// leaves after every [`commit`](IncrementalEngine::commit) and
    /// [`recover`](IncrementalEngine::recover) (the one readers pin), for
    /// queries that bind the column although no rule probes it. Rule
    /// evaluation indexes only the columns its plans probe; a query
    /// binding an unindexed column scans it. The index survives
    /// compaction and emptying of the relation, and costs amortized
    /// O(log n) sealing per inserted row.
    #[must_use]
    pub fn with_reader_index(mut self, predicate: &str, column: usize) -> Self {
        self.reader_columns.push((SymId::intern(predicate), column));
        self
    }

    /// The live materialized database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Whether a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.in_txn
    }

    /// Whether an aborted commit left the database inconsistent.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Open a transaction.
    ///
    /// # Errors
    ///
    /// [`DatalogError::TransactionActive`] if one is already open;
    /// [`DatalogError::EnginePoisoned`] after an aborted commit.
    pub fn begin(&mut self) -> Result<()> {
        if self.poisoned {
            return Err(DatalogError::EnginePoisoned);
        }
        if self.in_txn {
            return Err(DatalogError::TransactionActive);
        }
        self.in_txn = true;
        Ok(())
    }

    /// Stage an insertion of a ground fact. Inserting a fact of an IDB
    /// predicate asserts it extensionally: it stays true even if no rule
    /// derives it.
    ///
    /// # Errors
    ///
    /// [`DatalogError::NoActiveTransaction`] outside a transaction;
    /// [`DatalogError::ArityMismatch`] if the arity contradicts the
    /// program, the stored relation, or an earlier staged update.
    pub fn insert(&mut self, predicate: &str, fact: Vec<Const>) -> Result<()> {
        self.stage(predicate, fact, true)
    }

    /// Stage a retraction of a ground fact. Retracting a fact that was
    /// never asserted (including purely derived facts) is a counted
    /// no-op.
    ///
    /// # Errors
    ///
    /// As for [`IncrementalEngine::insert`].
    pub fn retract(&mut self, predicate: &str, fact: Vec<Const>) -> Result<()> {
        self.stage(predicate, fact, false)
    }

    fn stage(&mut self, predicate: &str, fact: Vec<Const>, insert: bool) -> Result<()> {
        if self.poisoned {
            return Err(DatalogError::EnginePoisoned);
        }
        if !self.in_txn {
            return Err(DatalogError::NoActiveTransaction);
        }
        let pred = SymId::intern(predicate);
        let known = self
            .rules
            .arity(predicate)
            .or_else(|| self.db.relation_id(pred).and_then(Relation::arity))
            .or_else(|| {
                self.pending
                    .iter()
                    .find(|op| op.pred == pred)
                    .map(|op| op.fact.len())
            });
        if let Some(expected) = known {
            if expected != fact.len() {
                return Err(DatalogError::ArityMismatch {
                    predicate: predicate.to_owned(),
                    expected,
                    found: fact.len(),
                });
            }
        }
        self.pending.push(PendingOp {
            insert,
            pred,
            fact: fact.into(),
        });
        Ok(())
    }

    /// Discard the open transaction's staged updates.
    ///
    /// # Errors
    ///
    /// [`DatalogError::NoActiveTransaction`] outside a transaction;
    /// [`DatalogError::EnginePoisoned`] after an aborted commit.
    pub fn rollback(&mut self) -> Result<()> {
        if self.poisoned {
            return Err(DatalogError::EnginePoisoned);
        }
        if !self.in_txn {
            return Err(DatalogError::NoActiveTransaction);
        }
        self.pending.clear();
        self.in_txn = false;
        Ok(())
    }

    /// Apply the staged updates and incrementally maintain the fixpoint.
    ///
    /// # Errors
    ///
    /// [`DatalogError::NoActiveTransaction`] outside a transaction; guard
    /// trips ([`DatalogError::BudgetExceeded`],
    /// [`DatalogError::DeadlineExceeded`], [`DatalogError::Cancelled`])
    /// poison the engine — the base is rolled back to its pre-transaction
    /// state and [`recover`](IncrementalEngine::recover) must run before
    /// further use.
    pub fn commit(&mut self) -> Result<CommitStats> {
        if self.poisoned {
            return Err(DatalogError::EnginePoisoned);
        }
        if !self.in_txn {
            return Err(DatalogError::NoActiveTransaction);
        }
        self.in_txn = false;
        let ops = std::mem::take(&mut self.pending);
        let start = Instant::now();
        let mut stats = CommitStats::default();
        if ops.is_empty() {
            return Ok(stats);
        }
        let detached_before = self.detached_cells();
        // Replay ops onto the base, netting out cancelling pairs: the
        // base ends up as before plus `added` minus `removed`, which is
        // what an aborted commit undoes.
        let mut added: FxHashMap<SymId, FxHashSet<Fact>> = FxHashMap::default();
        let mut removed: FxHashMap<SymId, FxHashSet<Fact>> = FxHashMap::default();
        for op in ops {
            if op.insert {
                if self.base.insert_if_new_id(op.pred, &op.fact)
                    && !removed.entry(op.pred).or_default().remove(&op.fact)
                {
                    added.entry(op.pred).or_default().insert(op.fact);
                }
            } else if self.base.retract_id(op.pred, &op.fact)
                && !added.entry(op.pred).or_default().remove(&op.fact)
            {
                removed.entry(op.pred).or_default().insert(op.fact);
            }
        }
        stats.edb_inserted = added.values().map(FxHashSet::len).sum();
        stats.edb_retracted = removed.values().map(FxHashSet::len).sum();
        let guard = EvalGuard::new(self.deadline, self.fact_limit, self.cancel.clone());
        match self.apply_deltas(&added, &removed, &guard, &mut stats) {
            Ok(()) => {
                // Seal materialized index tails and the reader columns
                // so copy-on-write clones of this database (published
                // snapshots) carry fully sorted indexes — immutable
                // readers cannot seal lazily.
                let phase = Instant::now();
                self.db.seal_indexes(&self.reader_columns);
                stats.seal_ms = ms_since(phase);
                stats.detached_cells = self.detached_cells() - detached_before;
                stats.wall_ms = ms_since(start);
                Ok(stats)
            }
            Err(e) => {
                self.poisoned = true;
                for (&pred, facts) in &added {
                    for fact in facts {
                        self.base.retract_id(pred, fact);
                    }
                }
                for (&pred, facts) in &removed {
                    for fact in facts {
                        self.base.insert_if_new_id(pred, fact);
                    }
                }
                Err(e)
            }
        }
    }

    /// Rebuild the fixpoint from scratch — the rules run over the
    /// surviving base with the strata computed at construction — and
    /// clear the poisoned flag. Uses the configured thread count.
    ///
    /// # Errors
    ///
    /// Any evaluation error from the full materialization; the engine
    /// stays poisoned on failure.
    pub fn recover(&mut self) -> Result<()> {
        self.in_txn = false;
        self.pending.clear();
        let mut engine = Engine::with_strata(&self.rules, &self.strata)
            .with_threads(self.threads)
            .with_fact_limit(self.fact_limit);
        if let Some(d) = self.deadline {
            engine = engine.with_deadline(d);
        }
        if let Some(token) = &self.cancel {
            engine = engine.with_cancel_token(token.clone());
        }
        let (db, stats) = engine.run_over(self.base.clone())?;
        self.db = db;
        self.db.seal_indexes(&self.reader_columns);
        self.materialize_stats = stats;
        self.poisoned = false;
        Ok(())
    }

    /// Per-rule/per-stratum statistics from the most recent full
    /// materialization (the constructor's initial run or the latest
    /// [`recover`](IncrementalEngine::recover)). Commits do not update
    /// these — see [`CommitStats`] for per-commit counters.
    pub fn materialize_stats(&self) -> &EvalStats {
        &self.materialize_stats
    }

    /// The program's rules: every clause except the fact clauses, which
    /// joined the base, validated once at construction. They never
    /// change across commits.
    pub fn rules(&self) -> &Program {
        &self.rules
    }

    /// The current base — program facts plus committed inserts, minus
    /// retractions — as a copy-on-write clone of the database that holds
    /// it.
    ///
    /// Together with [`IncrementalEngine::rules`] it has the from-scratch
    /// semantics this engine's database must always match, which is what
    /// demand-driven (magic-sets) point queries evaluate against: a
    /// goal-directed run over the two answers exactly as a query over
    /// the materialized database, without requiring the materialization
    /// to exist (the engine may still be deferred or poisoned).
    pub fn base_database(&self) -> Database {
        self.base.clone()
    }

    /// Copy-on-write detach work on the fixpoint and the base so far.
    fn detached_cells(&self) -> usize {
        self.db.detached_cells() + self.base.detached_cells()
    }

    /// The stratum-by-stratum delta application (see module docs).
    #[allow(clippy::too_many_lines)]
    fn apply_deltas(
        &mut self,
        added: &FxHashMap<SymId, FxHashSet<Fact>>,
        removed: &FxHashMap<SymId, FxHashSet<Fact>>,
        guard: &EvalGuard,
        stats: &mut CommitStats,
    ) -> Result<()> {
        let Self {
            ref rules,
            ref strata,
            ref stratum_preds,
            ref stratum_of,
            ref stratum_rules,
            ref whole_strata,
            ref idb,
            ref mut db,
            ref base,
            fallback_threshold,
            threads,
            ref mut plans,
            ..
        } = *self;
        let rules_engine = || Engine::with_strata(rules, strata).with_threads(threads);
        let rules = rules.clauses();
        let mut changes: FxHashMap<SymId, PredDelta> = FxHashMap::default();
        let mut tentative: Vec<Vec<(SymId, Fact)>> = vec![Vec::new(); stratum_preds.len()];

        // Physical EDB application. Pure-EDB deletions are definite; a
        // deleted base fact of an IDB predicate may still be derivable,
        // so it only becomes a *tentative* deletion in its own stratum.
        for (pred, facts) in sorted_deltas(removed) {
            if idb.contains(&pred) {
                let s = stratum_of.get(&pred).copied().unwrap_or(0);
                for fact in facts {
                    if db.contains_id(pred, &fact) {
                        tentative[s].push((pred, fact));
                    }
                }
            } else {
                for fact in facts {
                    if db.retract_id(pred, &fact) {
                        changes.entry(pred).or_default().del.push(fact);
                    }
                }
            }
        }
        for (pred, facts) in sorted_deltas(added) {
            for fact in facts {
                if db.insert_if_new_id(pred, &fact) {
                    changes.entry(pred).or_default().ins.push(fact);
                }
            }
        }

        for s in 0..stratum_preds.len() {
            let preds = &stratum_preds[s];
            let rule_idxs = &stratum_rules[s];
            let seeds = std::mem::take(&mut tentative[s]);
            let touched = |p: &SymId| changes.contains_key(p);
            let whole = whole_strata[s].as_ref();
            let inputs_changed = !seeds.is_empty()
                || rule_idxs
                    .iter()
                    .flat_map(|&ri| &rules[ri].body)
                    .any(|l| l.atom().is_some_and(|a| touched(&a.predicate)))
                || whole.is_some_and(|call_inputs| call_inputs.iter().any(touched));
            if !inputs_changed {
                continue;
            }
            if whole.is_some() {
                // Aggregates and operators are recomputed with their
                // stratum, from its base facts; the diff feeds higher
                // strata like any other change.
                let engine = rules_engine();
                recompute_stratum(&engine, s, preds, db, base, guard, &mut changes, stats)?;
                continue;
            }
            let mut pos_preds: FxHashSet<SymId> = FxHashSet::default();
            let mut neg_preds: FxHashSet<SymId> = FxHashSet::default();
            for lit in rule_idxs.iter().flat_map(|&ri| rules[ri].body.iter()) {
                match lit {
                    Literal::Pos(a) => pos_preds.insert(a.predicate),
                    Literal::Neg(a) => neg_preds.insert(a.predicate),
                    Literal::Cmp { .. } | Literal::Arith { .. } => false,
                };
            }

            let mut sp = StratumRules {
                plans: &mut *plans,
                rules,
                idxs: rule_idxs,
                probes: &mut stats.join_probes,
                defections: &mut stats.join_defections,
            };

            // Phase A: deletion overestimate, evaluated against the lower
            // strata as they were before this commit. Negated predicates
            // (always lower) show exactly their old contents: insertions
            // are hidden and deletions restored. Positive ones only get
            // their deletions restored, so their joins range over a
            // superset of the old database, which is all DRed needs.
            let phase = Instant::now();
            let mut dset: FxHashSet<(SymId, Fact)> = FxHashSet::default();
            let mut frontier: FxHashMap<SymId, FactBuf> = FxHashMap::default();
            for (pred, fact) in &seeds {
                if dset.insert((*pred, fact.clone())) {
                    frontier
                        .entry(*pred)
                        .or_default()
                        .push_row(fact.iter().copied());
                }
            }
            let mut hidden: Vec<(SymId, Fact)> = Vec::new();
            let mut flips: FxHashMap<SymId, FactBuf> = FxHashMap::default();
            for &q in &neg_preds {
                let Some(delta) = changes.get(&q) else {
                    continue;
                };
                for fact in &delta.ins {
                    if db.retract_id(q, fact) {
                        hidden.push((q, fact.clone()));
                    }
                    flips.entry(q).or_default().push_row(fact.iter().copied());
                }
            }
            let mut temps: Vec<(SymId, Fact)> = Vec::new();
            for &q in pos_preds.union(&neg_preds) {
                // Own-stratum IDB deletions arrive as tentative seeds, never
                // as `changes` entries; everything else (lower strata and
                // same-stratum pure-EDB predicates) is restored here, and
                // positive occurrences seed the frontier.
                if preds.contains(&q) && idb.contains(&q) {
                    continue;
                }
                let Some(delta) = changes.get(&q) else {
                    continue;
                };
                for fact in &delta.del {
                    if db.insert_if_new_id(q, fact) {
                        temps.push((q, fact.clone()));
                    }
                    if pos_preds.contains(&q) {
                        frontier
                            .entry(q)
                            .or_default()
                            .push_row(fact.iter().copied());
                    }
                }
            }
            let stratum_size: usize = preds
                .iter()
                .map(|&p| db.relation_id(p).map_or(0, Relation::len))
                .sum();
            let threshold = fallback_threshold.unwrap_or_else(|| 64.max(stratum_size / 4));
            let mut fell_back = false;
            while !frontier.is_empty() || !flips.is_empty() {
                guard.begin_round(db.fact_count());
                let mut next: FxHashMap<SymId, FactBuf> = FxHashMap::default();
                let mut overestimate = |db: &mut Database, head: SymId, fact: &[Const]| {
                    if db.contains_id(head, fact) && dset.insert((head, Fact::from(fact))) {
                        next.entry(head).or_default().push_row(fact.iter().copied());
                    }
                };
                // A derivation through `not q(..)` is lost when `q` gains
                // a matching fact: the flipped variant finds those once.
                let flipped = std::mem::take(&mut flips);
                sp.round(db, &flipped, Variant::NegFlip, guard, &mut overestimate)?;
                sp.round(db, &frontier, Variant::Delta, guard, &mut overestimate)?;
                if dset.len() > threshold {
                    fell_back = true;
                    break;
                }
                frontier = next;
            }
            for (q, fact) in temps {
                db.retract_id(q, &fact);
            }
            for (q, fact) in hidden {
                db.insert_if_new_id(q, &fact);
            }
            stats.overestimate_ms += ms_since(phase);
            if fell_back {
                let engine = rules_engine();
                recompute_stratum(&engine, s, preds, db, base, guard, &mut changes, stats)?;
                continue;
            }

            // Phase B: delete the overestimate, then rederive what is
            // base-asserted or still derivable, propagating semi-naively.
            let phase = Instant::now();
            let mut deleted = dset;
            for (pred, fact) in &deleted {
                db.retract_id(*pred, fact);
            }
            let mut order: Vec<(SymId, Fact)> = deleted.iter().cloned().collect();
            order.sort();
            let mut frontier: FxHashMap<SymId, FactBuf> = FxHashMap::default();
            // Base-asserted facts survive outright; the rest are checked
            // for surviving derivations in one batched evaluation per
            // rule (see [`Variant::Rederive`]). Cascaded rederivations — a
            // candidate supported only through another rederived fact —
            // are picked up by the semi-naive propagation loop below.
            let mut candidates: FxHashMap<SymId, FactBuf> = FxHashMap::default();
            for (pred, fact) in order {
                if base.contains_id(pred, &fact) {
                    db.insert_if_new_id(pred, &fact);
                    frontier
                        .entry(pred)
                        .or_default()
                        .push_row(fact.iter().copied());
                    deleted.remove(&(pred, fact));
                    stats.rederived += 1;
                } else {
                    candidates
                        .entry(pred)
                        .or_default()
                        .push_row(fact.iter().copied());
                }
            }
            let mut rederive = |db: &mut Database,
                                next: &mut FxHashMap<SymId, FactBuf>,
                                head: SymId,
                                fact: &[Const]| {
                if deleted.remove(&(head, Fact::from(fact))) {
                    db.insert_if_new_id(head, fact);
                    next.entry(head).or_default().push_row(fact.iter().copied());
                    stats.rederived += 1;
                }
            };
            for &ri in rule_idxs {
                let Some(cands) = candidates.get(&rules[ri].head.predicate) else {
                    continue;
                };
                let (head, out) = sp.eval(db, ri, Variant::Rederive, Some(cands), guard)?;
                for fact in out.rows() {
                    rederive(db, &mut frontier, head, fact);
                }
            }
            while !frontier.is_empty() {
                guard.begin_round(db.fact_count());
                let mut next: FxHashMap<SymId, FactBuf> = FxHashMap::default();
                sp.round(
                    db,
                    &frontier,
                    Variant::Delta,
                    guard,
                    &mut |db, head, fact| {
                        rederive(db, &mut next, head, fact);
                    },
                )?;
                frontier = next;
            }
            stats.rederive_ms += ms_since(phase);

            // Phase C: propagate insertions against the new database. A
            // fact that comes back after being deleted this commit nets
            // out to no change at all.
            let phase = Instant::now();
            let mut frontier: FxHashMap<SymId, FactBuf> = FxHashMap::default();
            let mut copies: FxHashMap<SymId, FactBuf> = FxHashMap::default();
            for (&q, delta) in &changes {
                if pos_preds.contains(&q) {
                    for fact in &delta.ins {
                        frontier
                            .entry(q)
                            .or_default()
                            .push_row(fact.iter().copied());
                    }
                }
                if neg_preds.contains(&q) {
                    for fact in &delta.del {
                        copies.entry(q).or_default().push_row(fact.iter().copied());
                    }
                }
            }
            let mut stratum_ins: Vec<(SymId, Fact)> = Vec::new();
            while !frontier.is_empty() || !copies.is_empty() {
                guard.begin_round(db.fact_count());
                let mut next: FxHashMap<SymId, FactBuf> = FxHashMap::default();
                let mut admit = |db: &mut Database, head: SymId, fact: &[Const]| {
                    if db.insert_if_new_id(head, fact) {
                        if !deleted.remove(&(head, Fact::from(fact))) {
                            stratum_ins.push((head, Fact::from(fact)));
                        }
                        next.entry(head).or_default().push_row(fact.iter().copied());
                    }
                };
                // A derivation through `not q(..)` is gained when `q` loses
                // its last matching fact: the copy variant finds those once.
                let copied = std::mem::take(&mut copies);
                sp.round(db, &copied, Variant::NegCopy, guard, &mut admit)?;
                sp.round(db, &frontier, Variant::Delta, guard, &mut admit)?;
                guard.check_db(db.fact_count())?;
                frontier = next;
            }
            for (pred, fact) in deleted {
                changes.entry(pred).or_default().del.push(fact);
            }
            for (pred, fact) in stratum_ins {
                changes.entry(pred).or_default().ins.push(fact);
            }
            stats.propagate_ms += ms_since(phase);
        }

        for (pred, delta) in &changes {
            if idb.contains(pred) {
                stats.derived_added += delta.ins.len();
                stats.derived_removed += delta.del.len();
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for IncrementalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IncrementalEngine({} rules, {} facts{}{})",
            self.rules.len(),
            self.db.fact_count(),
            if self.in_txn { ", in txn" } else { "" },
            if self.poisoned { ", poisoned" } else { "" },
        )
    }
}

/// Deterministic iteration over a per-predicate delta map.
fn sorted_deltas(map: &FxHashMap<SymId, FxHashSet<Fact>>) -> Vec<(SymId, Vec<Fact>)> {
    let mut out: Vec<(SymId, Vec<Fact>)> = map
        .iter()
        .map(|(&pred, facts)| {
            let mut facts: Vec<Fact> = facts.iter().cloned().collect();
            facts.sort();
            (pred, facts)
        })
        .collect();
    out.sort_by_key(|&(pred, _)| pred);
    out
}

/// Seal the sorted indexes `plan` probes (lazy index maintenance: the
/// same round-boundary hook the main evaluator uses).
fn ensure_plan_indexes(db: &mut Database, plan: &RulePlan) {
    for &(p, c) in &plan.index_needs {
        db.ensure_index_id(p, c);
    }
}

/// Milliseconds elapsed since `start`.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Compiled rule variants with their long-lived executor scratch, keyed
/// by (rule index, variant).
type PlanCache = FxHashMap<(usize, Variant), (RulePlan, Scratch)>;

/// A compiled form of one rule. Every variant reads one body literal
/// from a batch of facts (the delta) instead of the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Variant {
    /// Semi-naive: the positive literal at this body position reads the
    /// batch.
    Delta(usize),
    /// `h :- h*, body…`: the rule's own head atom is prepended as the
    /// delta literal, so evaluating it over deletion candidates returns
    /// exactly the candidates with at least one derivation in the
    /// current database, in one join pass.
    Rederive,
    /// Overestimate through negation: `not q(..)` at this position
    /// becomes the positive delta literal `q(..)`, read over `q`'s
    /// insertions.
    NegFlip(usize),
    /// Insertion through negation: a positive copy of `q(..)` is inserted
    /// just before the kept `not q(..)` at this position, as the delta
    /// literal over `q`'s deletions.
    NegCopy(usize),
}

impl Variant {
    /// The predicate whose batch this variant reads when placed at body
    /// literal `lit`, or `None` if it does not apply there.
    fn batch_pred(self, lit: &Literal) -> Option<SymId> {
        match (self, lit) {
            (Variant::Delta(_), Literal::Pos(a))
            | (Variant::NegFlip(_) | Variant::NegCopy(_), Literal::Neg(a)) => Some(a.predicate),
            _ => None,
        }
    }

    /// Build this variant of `rule` and the body position of its delta
    /// literal.
    fn clause(self, rule: &Clause) -> Result<(Clause, usize)> {
        let mut body = rule.body.clone();
        let delta = match self {
            Variant::Delta(pos) => pos,
            Variant::Rederive => {
                body.insert(0, Literal::Pos(rule.head.clone()));
                0
            }
            Variant::NegFlip(pos) => {
                body[pos] = Literal::Pos(positive_copy(rule, pos)?);
                pos
            }
            Variant::NegCopy(pos) => {
                body.insert(pos, Literal::Pos(positive_copy(rule, pos)?));
                pos
            }
        };
        Ok((Clause::new(rule.head.clone(), body), delta))
    }
}

/// The atom of the negated literal at body position `pos`, with its
/// existential variables renamed apart from every variable of the rule.
///
/// `not q(X, Y)` means `¬∃Y q(X, Y)` when no positive literal textually
/// before it binds `Y` (see [`crate::plan`]). A positive copy that kept
/// the name `Y` would bind it: in [`Variant::NegCopy`] the kept negation
/// would then test only the one deleted `q(X, Y)` instead of every `Y`,
/// and in [`Variant::NegFlip`] a later literal over `Y` would join with
/// the flipped one. Fresh names keep both variants meaning what the rule
/// means.
fn positive_copy(rule: &Clause, pos: usize) -> Result<Atom> {
    let Some(Literal::Neg(atom)) = rule.body.get(pos) else {
        return Err(DatalogError::Internal {
            detail: format!("body position {pos} of `{rule}` is not a negation"),
        });
    };
    let mut bound: FxHashSet<&str> = FxHashSet::default();
    for lit in &rule.body[..pos] {
        match lit {
            Literal::Pos(a) => bound.extend(a.variables()),
            Literal::Arith { target, .. } => bound.extend(target.as_var()),
            Literal::Neg(_) | Literal::Cmp { .. } => {}
        }
    }
    let mut taken: FxHashSet<String> = rule
        .all_variables()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let mut fresh: FxHashMap<&str, Term> = FxHashMap::default();
    let mut terms = Vec::with_capacity(atom.terms.len());
    for t in &atom.terms {
        terms.push(match t.as_var() {
            Some(v) if !bound.contains(v) => fresh
                .entry(v)
                .or_insert_with(|| {
                    let mut name = format!("{v}'");
                    while taken.contains(&name) {
                        name.push('\'');
                    }
                    taken.insert(name.clone());
                    Term::var(name)
                })
                .clone(),
            _ => t.clone(),
        });
    }
    Ok(Atom {
        predicate: atom.predicate,
        terms,
    })
}

/// One stratum's rules, with the plan cache their variants compile into.
struct StratumRules<'a> {
    plans: &'a mut PlanCache,
    rules: &'a [Clause],
    /// Indexes into `rules` of the stratum's rules.
    idxs: &'a [usize],
    /// Where the plans' join probes are summed.
    probes: &'a mut u64,
    /// Where the plans' merge-join defections are summed.
    defections: &'a mut u64,
}

impl StratumRules<'_> {
    /// Evaluate `variant` of rule `ri` over `batch` (compiling it on
    /// first use), returning the head predicate and the derived rows.
    fn eval(
        &mut self,
        db: &mut Database,
        ri: usize,
        variant: Variant,
        batch: Option<&FactBuf>,
        guard: &EvalGuard,
    ) -> Result<(SymId, FactBuf)> {
        use std::collections::hash_map::Entry;
        let (plan, scratch) = match self.plans.entry((ri, variant)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let (clause, delta) = variant.clause(&self.rules[ri])?;
                let plan = RulePlan::compile(&clause, Some(delta), db)?;
                let scratch = plan.new_scratch();
                e.insert((plan, scratch))
            }
        };
        ensure_plan_indexes(db, plan);
        let mut out = FactBuf::default();
        let result = plan.eval(db, batch, scratch, &mut out, guard);
        *self.probes += scratch.take_probes();
        *self.defections += scratch.take_defections();
        result?;
        Ok((plan.head_pred, out))
    }

    /// One round over the stratum's rules: at every body literal where
    /// `variant` applies and its predicate has a batch, evaluate that
    /// variant over the batch and hand each derived row to `emit`.
    fn round(
        &mut self,
        db: &mut Database,
        batches: &FxHashMap<SymId, FactBuf>,
        variant: fn(usize) -> Variant,
        guard: &EvalGuard,
        emit: &mut impl FnMut(&mut Database, SymId, &[Const]),
    ) -> Result<()> {
        if batches.is_empty() {
            return Ok(());
        }
        let (rules, idxs) = (self.rules, self.idxs);
        for &ri in idxs {
            for (pos, lit) in rules[ri].body.iter().enumerate() {
                let v = variant(pos);
                let Some(batch) = v.batch_pred(lit).and_then(|p| batches.get(&p)) else {
                    continue;
                };
                let (head, out) = self.eval(db, ri, v, Some(batch), guard)?;
                for fact in out.rows() {
                    emit(db, head, fact);
                }
            }
        }
        Ok(())
    }
}

/// Recompute stratum `s` from scratch: reset its predicates to their
/// base facts, run the batch engine's stratum step
/// ([`Engine::eval_stratum`]: operators, aggregate folds, then the
/// semi-naive fixpoint) over the complete lower strata, and diff against
/// the old contents so higher strata see exact deltas. Counts the
/// recompute, its wall time and its join probes and defections in
/// `commit`.
#[allow(clippy::too_many_arguments)]
fn recompute_stratum(
    engine: &Engine<'_>,
    s: usize,
    preds: &FxHashSet<SymId>,
    db: &mut Database,
    base: &Database,
    guard: &EvalGuard,
    changes: &mut FxHashMap<SymId, PredDelta>,
    commit: &mut CommitStats,
) -> Result<()> {
    let started = Instant::now();
    let mut sorted_preds: Vec<SymId> = preds.iter().copied().collect();
    sorted_preds.sort_unstable();
    let mut old = Database::new();
    for &pred in &sorted_preds {
        old.reset_relation_id(pred, db);
        db.reset_relation_id(pred, base);
    }
    let mut stats = EvalStats::default();
    engine.eval_stratum(s, None, &[], db, &mut stats, guard)?;
    for pred in sorted_preds {
        let (old, new) = (old.relation_id(pred), db.relation_id(pred));
        let ins = missing_from(new, old);
        let del = missing_from(old, new);
        if !ins.is_empty() || !del.is_empty() {
            let entry = changes.entry(pred).or_default();
            entry.ins.extend(ins);
            entry.del.extend(del);
        }
    }
    for rule in &stats.per_rule {
        commit.join_probes += rule.join_probes;
        commit.join_defections += rule.join_defections;
    }
    commit.recompute_ms += ms_since(started);
    commit.strata_recomputed += 1;
    Ok(())
}

/// The facts of `rel` that `other` lacks, sorted.
fn missing_from(rel: Option<&Relation>, other: Option<&Relation>) -> Vec<Fact> {
    let mut out: Vec<Fact> = rel
        .into_iter()
        .flat_map(Relation::iter)
        .filter(|fact| other.is_none_or(|o| !o.contains(fact)))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::storage::COMPACT_MIN;

    fn s(name: &str) -> Const {
        Const::sym(name)
    }

    fn tc_program() -> Program {
        parse_program(
            "edge(a, b). edge(b, c).
             path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).",
        )
        .expect("program parses")
    }

    /// The incremental database must equal the from-scratch fixpoint of
    /// the surviving base — compare every relation as a sorted fact list.
    fn assert_matches_scratch(engine: &IncrementalEngine) {
        let scratch = Engine::new(engine.rules())
            .expect("stratifies")
            .run_over(engine.base_database())
            .expect("evaluates")
            .0;
        for (pred, rel) in engine.database().relations() {
            let want = scratch
                .relation(pred)
                .map(|r| r.sorted())
                .unwrap_or_default();
            assert_eq!(rel.sorted(), want, "relation {pred} diverged");
        }
        for (pred, rel) in scratch.relations() {
            if engine.database().relation(pred).is_none() {
                assert!(rel.is_empty(), "relation {pred} missing incrementally");
            }
        }
    }

    #[test]
    fn reader_columns_stay_sealed_in_every_published_database() {
        // `copy`'s column 1 is declared; no rule probes any `copy` column.
        // No fallback: retractions go through DRed, so `copy` really
        // compacts and empties rather than being recomputed.
        let program = parse_program("copy(K, V) :- item(K, V).").expect("program parses");
        let mut engine = IncrementalEngine::new_deferred(&program)
            .expect("stratifies")
            .with_fallback_threshold(usize::MAX)
            .with_reader_index("copy", 1);
        engine.recover().expect("materializes");
        let copy = SymId::intern("copy");
        let item = |i: usize| vec![Const::int(i as i64 % 7), s(&format!("v{i}"))];
        let commit = |engine: &mut IncrementalEngine, range: std::ops::Range<usize>, ins: bool| {
            engine.begin().expect("begins");
            for i in range {
                let staged = if ins {
                    engine.insert("item", item(i))
                } else {
                    engine.retract("item", item(i))
                };
                staged.expect("stages");
            }
            engine.commit().expect("commits");
        };
        // `copy` as a published generation holds it: a copy-on-write clone.
        let published = |engine: &IncrementalEngine| {
            let rel = engine.database().relation_id(copy);
            rel.expect("copy is registered").clone()
        };
        let n = 3 * COMPACT_MIN;
        commit(&mut engine, 0..n, true);
        let rel = published(&engine);
        assert_eq!((rel.len(), rel.index_lag(1)), (n, 0));
        assert!(rel.index_lag(0) > 0, "an undeclared column stays unindexed");

        // Retracting two thirds crosses the compaction threshold: fewer
        // tombstones remain than rows were retracted.
        commit(&mut engine, 0..2 * COMPACT_MIN, false);
        let rel = published(&engine);
        assert!(rel.tombstones() < 2 * COMPACT_MIN, "copy compacted");
        assert_eq!((rel.len(), rel.index_lag(1)), (COMPACT_MIN, 0));

        // Retract to empty (the relation resets), then refill.
        commit(&mut engine, 2 * COMPACT_MIN..n, false);
        assert_eq!(published(&engine).arity(), None, "copy reset");
        commit(&mut engine, n..n + 500, true);
        let rel = published(&engine);
        assert_eq!((rel.len(), rel.index_lag(1)), (500, 0));

        engine.recover().expect("rematerializes");
        let rel = published(&engine);
        assert_eq!((rel.len(), rel.index_lag(1)), (500, 0));
        assert_matches_scratch(&engine);
    }

    #[test]
    fn insert_extends_fixpoint() {
        let program = tc_program();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        engine.begin().unwrap();
        engine.insert("edge", vec![s("c"), s("d")]).unwrap();
        let stats = engine.commit().unwrap();
        assert_eq!(stats.edb_inserted, 1);
        assert_eq!(stats.derived_added, 3); // (c,d) (b,d) (a,d)
        assert!(engine.database().contains("path", &[s("a"), s("d")]));
        assert_matches_scratch(&engine);
    }

    #[test]
    fn retract_cascades_deletions() {
        let program = tc_program();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        engine.begin().unwrap();
        engine.retract("edge", vec![s("b"), s("c")]).unwrap();
        let stats = engine.commit().unwrap();
        assert_eq!(stats.edb_retracted, 1);
        assert_eq!(stats.derived_removed, 2); // path(b,c), path(a,c)
        assert!(engine.database().contains("path", &[s("a"), s("b")]));
        assert!(!engine.database().contains("path", &[s("a"), s("c")]));
        assert_matches_scratch(&engine);
    }

    #[test]
    fn alternative_support_is_rederived() {
        let program = parse_program(
            "edge(a, b). edge(b, d). edge(a, c). edge(c, d).
             path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).",
        )
        .unwrap();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        engine.begin().unwrap();
        engine.retract("edge", vec![s("b"), s("d")]).unwrap();
        let stats = engine.commit().unwrap();
        // path(a, d) is overestimated as deleted but survives via c.
        assert!(stats.rederived >= 1, "stats: {stats:?}");
        assert!(engine.database().contains("path", &[s("a"), s("d")]));
        assert!(!engine.database().contains("path", &[s("b"), s("d")]));
        assert_matches_scratch(&engine);
    }

    #[test]
    fn retracting_a_derived_only_fact_is_a_no_op() {
        let program = tc_program();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        engine.begin().unwrap();
        // path(a, c) is derived, never asserted: nothing to retract.
        engine.retract("path", vec![s("a"), s("c")]).unwrap();
        let stats = engine.commit().unwrap();
        assert_eq!(stats.edb_retracted, 0);
        assert!(engine.database().contains("path", &[s("a"), s("c")]));
        assert_matches_scratch(&engine);
    }

    #[test]
    fn asserted_idb_fact_survives_rule_support_loss() {
        let program = tc_program();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        engine.begin().unwrap();
        engine.insert("path", vec![s("a"), s("c")]).unwrap();
        engine.commit().unwrap();
        engine.begin().unwrap();
        engine.retract("edge", vec![s("b"), s("c")]).unwrap();
        engine.commit().unwrap();
        // Rule support is gone, but the explicit assertion remains.
        assert!(engine.database().contains("path", &[s("a"), s("c")]));
        assert_matches_scratch(&engine);
    }

    #[test]
    fn negation_stratum_is_maintained_by_delta() {
        let program = parse_program(
            "node(a). node(b). edge(a, b).
             reached(X) :- edge(a, X).
             unreachable(X) :- node(X), not reached(X).",
        )
        .unwrap();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        assert!(engine.database().contains("unreachable", &[s("a")]));
        assert!(!engine.database().contains("unreachable", &[s("b")]));
        engine.begin().unwrap();
        engine.retract("edge", vec![s("a"), s("b")]).unwrap();
        let stats = engine.commit().unwrap();
        assert_eq!(stats.strata_recomputed, 0, "stats: {stats:?}");
        assert!(engine.database().contains("unreachable", &[s("b")]));
        assert_matches_scratch(&engine);
        // And back: the negated fact returns, so `unreachable(b)` goes.
        engine.begin().unwrap();
        engine.insert("edge", vec![s("a"), s("b")]).unwrap();
        let stats = engine.commit().unwrap();
        assert_eq!(stats.strata_recomputed, 0, "stats: {stats:?}");
        assert!(!engine.database().contains("unreachable", &[s("b")]));
        assert_matches_scratch(&engine);
    }

    #[test]
    fn negation_locals_stay_existential() {
        // `not edge(X, Y)` means "X has no out-edge at all": retracting
        // one of two out-edges must not make `sink(a)` true.
        let program = parse_program(
            "node(a). node(b). node(c). edge(a, b). edge(a, c).
             sink(X) :- node(X), not edge(X, Y).",
        )
        .unwrap();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        assert!(!engine.database().contains("sink", &[s("a")]));
        let mut commit = |insert: bool, to: &str| {
            engine.begin().unwrap();
            let fact = vec![s("a"), s(to)];
            if insert {
                engine.insert("edge", fact).unwrap();
            } else {
                engine.retract("edge", fact).unwrap();
            }
            let stats = engine.commit().unwrap();
            assert_eq!(stats.strata_recomputed, 0, "stats: {stats:?}");
            assert_matches_scratch(&engine);
            engine.database().contains("sink", &[s("a")])
        };
        assert!(!commit(false, "b"), "one out-edge left");
        assert!(commit(false, "c"), "no out-edge left");
        assert!(!commit(true, "b"), "an out-edge is back");
    }

    #[test]
    fn phase_timings_fit_in_the_commit() {
        let program = parse_program(
            "node(a). node(b). edge(a, b). edge(b, a).
             path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).
             open(X) :- node(X), not path(X, X).",
        )
        .unwrap();
        for threshold in [None, Some(0)] {
            let mut engine = IncrementalEngine::new(&program).unwrap();
            if let Some(t) = threshold {
                engine = engine.with_fallback_threshold(t);
            }
            for (insert, fact) in [(false, ["b", "a"]), (true, ["b", "a"])] {
                engine.begin().unwrap();
                let fact = fact.map(s).to_vec();
                if insert {
                    engine.insert("edge", fact).unwrap();
                } else {
                    engine.retract("edge", fact).unwrap();
                }
                let st = engine.commit().unwrap();
                let phases = st.overestimate_ms
                    + st.rederive_ms
                    + st.propagate_ms
                    + st.recompute_ms
                    + st.seal_ms;
                assert!(phases > 0.0, "no phase was timed: {st:?}");
                // Disjoint intervals of the commit; allow float rounding.
                assert!(
                    phases <= st.wall_ms * (1.0 + 1e-9),
                    "phases exceed wall: {st:?}"
                );
                assert_eq!(st.recompute_ms > 0.0, st.strata_recomputed > 0, "{st:?}");
            }
            assert_matches_scratch(&engine);
        }
    }

    #[test]
    fn threshold_fallback_matches_scratch() {
        let program = tc_program();
        let mut engine = IncrementalEngine::new(&program)
            .unwrap()
            .with_fallback_threshold(0); // every deletion cascades past it
        engine.begin().unwrap();
        engine.retract("edge", vec![s("a"), s("b")]).unwrap();
        let stats = engine.commit().unwrap();
        assert!(stats.strata_recomputed >= 1);
        assert!(!engine.database().contains("path", &[s("a"), s("c")]));
        assert_matches_scratch(&engine);
    }

    #[test]
    fn transaction_protocol_is_enforced() {
        let program = tc_program();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        assert!(matches!(
            engine.commit(),
            Err(DatalogError::NoActiveTransaction)
        ));
        assert!(matches!(
            engine.insert("edge", vec![s("x"), s("y")]),
            Err(DatalogError::NoActiveTransaction)
        ));
        engine.begin().unwrap();
        assert!(matches!(
            engine.begin(),
            Err(DatalogError::TransactionActive)
        ));
        engine.rollback().unwrap();
        assert!(matches!(
            engine.rollback(),
            Err(DatalogError::NoActiveTransaction)
        ));
    }

    #[test]
    fn rollback_discards_staged_updates() {
        let program = tc_program();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        engine.begin().unwrap();
        engine.insert("edge", vec![s("c"), s("d")]).unwrap();
        engine.rollback().unwrap();
        engine.begin().unwrap();
        let stats = engine.commit().unwrap();
        assert_eq!(stats, CommitStats::default());
        assert!(!engine.database().contains("edge", &[s("c"), s("d")]));
    }

    #[test]
    fn arity_mismatch_is_rejected_at_stage_time() {
        let program = tc_program();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        engine.begin().unwrap();
        let err = engine.insert("edge", vec![s("a")]).unwrap_err();
        assert!(matches!(
            err,
            DatalogError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            }
        ));
        // Novel predicates fix their arity at the first staged op.
        engine.insert("tag", vec![s("a")]).unwrap();
        let err = engine.insert("tag", vec![s("a"), s("b")]).unwrap_err();
        assert!(matches!(
            err,
            DatalogError::ArityMismatch {
                expected: 1,
                found: 2,
                ..
            }
        ));
    }

    #[test]
    fn budget_trip_poisons_until_recover() {
        let mut src = String::new();
        for i in 0..40 {
            src.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
        }
        src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n");
        let program = parse_program(&src).unwrap();
        let engine = IncrementalEngine::new(&program).unwrap();
        let before = engine.database().fact_count();
        let mut engine = engine.with_fact_limit(before); // any growth trips
        engine.begin().unwrap();
        engine.insert("edge", vec![s("n41"), s("n42")]).unwrap();
        let err = engine.commit().unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded { .. }), "{err}");
        assert!(engine.is_poisoned());
        assert!(matches!(engine.begin(), Err(DatalogError::EnginePoisoned)));
        // The failed transaction's base changes were rolled back.
        let mut engine = engine.with_fact_limit(10_000_000);
        engine.recover().unwrap();
        assert!(!engine.is_poisoned());
        assert_eq!(engine.database().fact_count(), before);
        assert_matches_scratch(&engine);
    }

    #[test]
    fn novel_predicates_round_trip() {
        let program = tc_program();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        engine.begin().unwrap();
        engine.insert("tag", vec![s("a")]).unwrap();
        engine.commit().unwrap();
        assert!(engine.database().contains("tag", &[s("a")]));
        engine.begin().unwrap();
        engine.retract("tag", vec![s("a")]).unwrap();
        engine.commit().unwrap();
        assert!(!engine.database().contains("tag", &[s("a")]));
    }

    #[test]
    fn mixed_commit_nets_out() {
        let program = tc_program();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        engine.begin().unwrap();
        engine.retract("edge", vec![s("a"), s("b")]).unwrap();
        engine.insert("edge", vec![s("a"), s("b")]).unwrap(); // cancels
        engine.insert("edge", vec![s("c"), s("d")]).unwrap();
        let stats = engine.commit().unwrap();
        assert_eq!(stats.edb_retracted, 0);
        assert_eq!(stats.edb_inserted, 1);
        assert!(engine.database().contains("path", &[s("a"), s("d")]));
        assert_matches_scratch(&engine);
    }

    // ---- no-panic regressions: programs that bypassed validation hit
    // the engine's internal invariants as typed errors, never aborts.

    #[test]
    fn non_ground_fact_clause_is_a_typed_error() {
        // `p(X).` is rejected by `check_safety`, so it can only reach
        // the engine through the unchecked test constructor — exactly
        // the adversarial shape the old `expect()` panicked on.
        let clause = Clause::fact(Atom::new("p", vec![Term::var("X")]));
        let program = Program::from_clauses_unchecked(vec![clause], &[]);
        let err = IncrementalEngine::new(&program).unwrap_err();
        match err {
            DatalogError::Internal { detail } => {
                assert!(detail.contains("non-ground head"), "{detail}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn unstratified_head_predicate_is_a_typed_error() {
        // A rule whose head predicate is hidden from the arity table is
        // invisible to `stratify()`; its stratum lookup must fail as a
        // typed error rather than the old `expect()` panic.
        let rule = Clause::new(
            Atom::new("ghost", vec![Term::var("X")]),
            vec![Literal::Pos(Atom::new("p", vec![Term::var("X")]))],
        );
        let base = Clause::fact(Atom::new("p", vec![Term::sym("a")]));
        let program = Program::from_clauses_unchecked(vec![base, rule], &["ghost"]);
        let err = IncrementalEngine::new(&program).unwrap_err();
        match err {
            DatalogError::Internal { detail } => {
                assert!(detail.contains("ghost"), "{detail}");
                assert!(detail.contains("stratification"), "{detail}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_program_commits_recompute_and_match_scratch() {
        let program = parse_program(
            "score(alice, 3). score(alice, 5). score(bob, 7).
             total(P, sum(S)) :- score(P, S).",
        )
        .unwrap();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        assert!(engine
            .database()
            .contains("total", &[s("alice"), Const::int(8)]));
        engine.begin().unwrap();
        engine
            .insert("score", vec![s("alice"), Const::int(10)])
            .unwrap();
        let stats = engine.commit().unwrap();
        assert!(stats.strata_recomputed >= 1, "stats: {stats:?}");
        assert!(engine
            .database()
            .contains("total", &[s("alice"), Const::int(18)]));
        assert!(!engine
            .database()
            .contains("total", &[s("alice"), Const::int(8)]));
        engine.begin().unwrap();
        engine
            .retract("score", vec![s("bob"), Const::int(7)])
            .unwrap();
        engine.commit().unwrap();
        assert!(engine.database().relation("total").unwrap().len() == 1);
        assert_matches_scratch(&engine);
    }

    #[test]
    fn algo_program_commits_recompute_and_match_scratch() {
        let program = parse_program(
            "edge(a, b). edge(b, c).
             reach(X, Y) :- @bfs(edge, X, Y).",
        )
        .unwrap();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        assert!(engine.database().contains("reach", &[s("a"), s("c")]));
        engine.begin().unwrap();
        engine.insert("edge", vec![s("c"), s("d")]).unwrap();
        let stats = engine.commit().unwrap();
        assert!(stats.derived_added >= 3, "stats: {stats:?}"); // a→d, b→d, c→d (+ @bfs copies)
        assert!(engine.database().contains("reach", &[s("a"), s("d")]));
        engine.begin().unwrap();
        engine.retract("edge", vec![s("a"), s("b")]).unwrap();
        engine.commit().unwrap();
        assert!(!engine.database().contains("reach", &[s("a"), s("c")]));
        assert_matches_scratch(&engine);
    }

    #[test]
    fn operator_strata_recompute_only_when_their_inputs_change() {
        let program = parse_program(
            "edge(a, b). edge(b, c). c(x, y). c(y, z).
             deg(X, count(Y)) :- edge(X, Y).
             reach(X, Y) :- @bfs(edge, X, Y).
             t(X, Y) :- c(X, Y).
             t(X, Z) :- t(X, Y), c(Y, Z).",
        )
        .expect("program parses");
        let mut engine = IncrementalEngine::new(&program).expect("materializes");
        // The strata that hold `deg` or the `@bfs(edge)` call (`reach`
        // shares the call's stratum).
        let operator_strata: FxHashSet<usize> = ["deg", "@bfs(edge)", "reach"]
            .iter()
            .map(|p| engine.stratum_of[&SymId::intern(p)])
            .collect();
        let mut commit = |insert: bool, pred: &str, fact: [&str; 2]| {
            engine.begin().expect("begins");
            let fact = fact.map(s).to_vec();
            let staged = if insert {
                engine.insert(pred, fact)
            } else {
                engine.retract(pred, fact)
            };
            staged.expect("stages");
            let stats = engine.commit().expect("commits");
            assert_matches_scratch(&engine);
            stats
        };
        // Only `c` changes: the aggregate and the operator are untouched.
        for (insert, fact) in [(true, ["z", "w"]), (false, ["x", "y"])] {
            let stats = commit(insert, "c", fact);
            assert_eq!(stats.strata_recomputed, 0, "stats: {stats:?}");
            assert!(stats.derived_added + stats.derived_removed > 0, "{stats:?}");
        }
        // `edge` changes: at most the strata reading it recompute.
        for (insert, fact) in [(true, ["c", "d"]), (false, ["a", "b"])] {
            let stats = commit(insert, "edge", fact);
            assert!(
                (1..=operator_strata.len()).contains(&stats.strata_recomputed),
                "stats: {stats:?}"
            );
        }
        let db = engine.database();
        assert!(db.contains("reach", &[s("b"), s("d")]));
        assert!(!db.contains("reach", &[s("a"), s("b")]));
        assert!(db.contains("deg", &[s("c"), Const::int(1)]));
        assert!(!db.contains("deg", &[s("a"), Const::int(1)]));
    }

    #[test]
    fn recompute_fallback_diffs_without_snapshot_lookup() {
        // The recompute fallback's old-snapshot diff no longer has a
        // fallible map lookup; pin the fallback path (threshold 0 forces
        // it) producing exact deltas over a retract.
        let program = parse_program(
            "edge(a, b). edge(b, c). node(a). node(b). node(c).
             path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).
             isolated(X) :- node(X), not path(a, X).",
        )
        .expect("program parses");
        let mut engine = IncrementalEngine::new(&program)
            .unwrap()
            .with_fallback_threshold(0);
        assert!(engine.database().contains("isolated", &[s("a")]));
        assert!(!engine.database().contains("isolated", &[s("c")]));
        engine.begin().unwrap();
        engine.retract("edge", vec![s("b"), s("c")]).unwrap();
        let stats = engine.commit().unwrap();
        assert!(stats.strata_recomputed >= 1, "stats: {stats:?}");
        assert!(engine.database().contains("isolated", &[s("c")]));
        assert_matches_scratch(&engine);
    }
}
