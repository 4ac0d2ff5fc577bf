//! The operational semantics of MultiLog: a level-stratified fixpoint
//! engine over m- and p-facts whose derivations are recorded and can be
//! replayed as the sequent proof trees of Figure 9 (see [`crate::proof`]).
//!
//! Goals are proved *in the context of a user clearance* `u` (the
//! database level of Definition 5.5): body and query m-/b-atoms are
//! guarded by the Bell–LaPadula *no read up* conditions `l ⪯ u` and
//! `c ⪯ u`, exactly as the λ encoding of §6.1 adds them during reduction.
//!
//! ## Cautious recursion and level stratification
//!
//! The cautious mode is non-monotone: a new higher-classified fact can
//! retract a cautious belief. The paper's Figure 12 axioms are claimed
//! stratified but the stratification is never spelled out; we adopt the
//! natural reading that makes the paper's own example (D₁) work: a clause
//! may consult `<< cau` at level `l` only if its head level *strictly
//! dominates* `l` — then levels can be evaluated bottom-up and every
//! cautious judgment is made against a finalized lower database.
//! [`MultiLogDb::new`] refuses programs violating this (lint code ML0105)
//! with [`MultiLogError::NotBeliefStratified`], for both engines.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use multilog_datalog::CancelToken;
use multilog_lattice::{Label, SecurityLattice};

use crate::ast::{Atom, Clause, Goal, Head, MAtom, Term};
use crate::belief::{believed, MFact, Mode};
use crate::db::MultiLogDb;
use crate::modes::ModeSet;
use crate::parser::parse_goal;
use crate::{MultiLogError, Result};

/// A ground p-fact.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PFact {
    /// The predicate name.
    pub pred: Arc<str>,
    /// The ground arguments.
    pub args: Vec<Term>,
}

/// One answer to a goal: variable → ground term, sorted by name.
///
/// A sorted list of bindings, not a map: a goal binds a handful of
/// variables, and callers keep answers around (reader sessions, oracles
/// comparing engines), where a `BTreeMap` would cost a ~0.5 KB node per
/// answer. Ordering and equality are those of the sorted
/// `(variable, term)` sequence, as for a map.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Answer(Vec<(Arc<str>, Term)>);

impl Answer {
    /// An answer binding no variable (the answer to a ground goal).
    pub fn new() -> Self {
        Answer::default()
    }

    /// An empty answer with room for `n` bindings.
    pub fn with_capacity(n: usize) -> Self {
        Answer(Vec::with_capacity(n))
    }

    /// Bind `var` to `term`, returning the binding it replaces.
    pub fn insert(&mut self, var: impl Into<Arc<str>>, term: Term) -> Option<Term> {
        let var = var.into();
        match self.0.binary_search_by(|(v, _)| v.as_ref().cmp(&var)) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, term)),
            Err(i) => {
                self.0.insert(i, (var, term));
                None
            }
        }
    }

    /// The term bound to `var`.
    pub fn get(&self, var: &str) -> Option<&Term> {
        let i = self.0.binary_search_by(|(v, _)| v.as_ref().cmp(var)).ok()?;
        Some(&self.0[i].1)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The bindings in variable-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Term)> {
        self.0.iter().map(|(v, t)| (v.as_ref(), t))
    }
}

impl std::ops::Index<&str> for Answer {
    type Output = Term;

    /// # Panics
    ///
    /// If `var` is not bound.
    fn index(&self, var: &str) -> &Term {
        self.get(var)
            .unwrap_or_else(|| panic!("variable `{var}` is not bound in this answer"))
    }
}

impl fmt::Debug for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// How a stored fact was derived; used to rebuild proof trees.
#[derive(Clone, Debug)]
pub(crate) struct Justification {
    /// Rendering of the clause applied (facts justify themselves).
    pub clause: String,
    /// The ground body atoms, with fact indices for well-foundedness.
    pub body: Vec<JustAtom>,
}

/// A ground body atom inside a justification.
#[derive(Clone, Debug)]
pub(crate) enum JustAtom {
    /// A matched m-fact (index into `mfacts`).
    M(usize),
    /// A matched p-fact (index into `pfacts`).
    P(usize),
    /// A belief: the supporting m-fact, the belief level, and the mode.
    Bel {
        /// Index of the supporting m-fact.
        fact: usize,
        /// The level the belief is held at.
        at: Label,
        /// The mode name.
        mode: Arc<str>,
    },
    /// A satisfied dominance constraint.
    Leq(Label, Label),
    /// A level membership.
    L(Label),
    /// An order (cover) edge.
    H(Label, Label),
}

/// Evaluation options.
#[derive(Clone, Debug, Default)]
pub struct EngineOptions {
    /// Enable the FILTER rule of Figure 13: an m-atom at level `l` is also
    /// provable from a *higher* asserted fact whose column classification
    /// is dominated by `l` (downward inheritance — the σ filter).
    pub enable_filter: bool,
    /// Enable FILTER-NULL: additionally prove `l[p(k : a -c-> null)]`
    /// when the higher fact's column classification is *not* dominated.
    pub enable_filter_null: bool,
    /// Guard budget on derived facts (`0` = the 1 M default). Trips as
    /// [`MultiLogError::BudgetExceeded`], checked both between clause
    /// applications and inside the backtracking match loop.
    pub fact_limit: usize,
    /// Wall-clock deadline for evaluation and for each subsequent goal,
    /// checked at tick granularity during matching. Trips as
    /// [`MultiLogError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token; cancelling it makes the current
    /// operation return [`MultiLogError::Cancelled`] at the next check.
    pub cancel: Option<CancelToken>,
    /// Enable lattice-flow demand pruning ([`crate::flow`]): the reduced
    /// engine drops rules (and per-level machinery) a static analysis
    /// proves invisible at the session's clearance before running a
    /// demand query. Answers are unchanged; only the evaluated rule set
    /// shrinks. Off by default. The incremental (materialized) path is
    /// never pruned, and bounds-based criteria are disabled after the
    /// first update (see [`crate::FlowReport::rule_prunable`]).
    pub flow_prune: bool,
}

impl EngineOptions {
    pub(crate) fn limit(&self) -> usize {
        if self.fact_limit == 0 {
            1_000_000
        } else {
            self.fact_limit
        }
    }
}

/// How many matching steps elapse between two guard checks.
const OP_CHECK_INTERVAL: u32 = 4096;

/// Per-operation guard: wall-clock deadline, cooperative cancellation,
/// and the fact budget, consulted every [`OP_CHECK_INTERVAL`] steps of
/// the backtracking search so even a single clause application over a
/// huge cross product trips promptly.
struct OpGuard {
    deadline: Option<Instant>,
    limit_ms: u64,
    cancel: Option<CancelToken>,
    budget: usize,
    /// Facts materialized when the current clause application started.
    base: Cell<usize>,
    /// Tuples buffered by the current clause application.
    emitted: Cell<usize>,
    ticks: Cell<u32>,
}

impl OpGuard {
    fn new(options: &EngineOptions) -> Self {
        OpGuard {
            deadline: options.deadline.map(|d| Instant::now() + d),
            limit_ms: options.deadline.map_or(0, |d| d.as_millis() as u64),
            cancel: options.cancel.clone(),
            budget: options.limit(),
            base: Cell::new(0),
            emitted: Cell::new(0),
            ticks: Cell::new(0),
        }
    }

    /// Reset the emission counter against the current database size.
    fn begin_clause(&self, db_facts: usize) {
        self.base.set(db_facts);
        self.emitted.set(0);
    }

    /// Record one buffered derivation (counts toward the budget).
    fn note_emit(&self) {
        self.emitted.set(self.emitted.get() + 1);
    }

    #[inline]
    fn tick(&self) -> Result<()> {
        let t = self.ticks.get() + 1;
        if t >= OP_CHECK_INTERVAL {
            self.ticks.set(0);
            self.check()
        } else {
            self.ticks.set(t);
            Ok(())
        }
    }

    fn check(&self) -> Result<()> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(MultiLogError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(MultiLogError::DeadlineExceeded {
                    limit_ms: self.limit_ms,
                });
            }
        }
        let used = self.base.get() + self.emitted.get();
        if used > self.budget {
            return Err(MultiLogError::BudgetExceeded {
                budget: self.budget,
                used,
            });
        }
        Ok(())
    }
}

/// Per-clause counters for the operational engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClauseStats {
    /// Rendering of the Σ/Π clause.
    pub clause: String,
    /// Applications attempted (fixpoint passes in which the clause ran).
    pub applications: usize,
    /// Derivations produced, including duplicates.
    pub facts_derived: usize,
    /// Facts genuinely new to the database.
    pub facts_added: usize,
    /// Wall time spent applying this clause, in nanoseconds.
    pub wall_ns: u64,
}

/// Counters describing one operational evaluation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OperationalStats {
    /// Fixpoint passes over the clause set, summed over all stages.
    pub rounds: usize,
    /// Counters per Σ/Π clause, in database order.
    pub per_clause: Vec<ClauseStats>,
}

impl OperationalStats {
    /// Render the counters as a human-readable table (used by the CLI's
    /// `--stats` flag).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "operational evaluation: {} rounds", self.rounds);
        for c in &self.per_clause {
            let _ = writeln!(
                out,
                "clause: {}\n  apps={} derived={} added={} wall_ms={:.3}",
                c.clause,
                c.applications,
                c.facts_derived,
                c.facts_added,
                c.wall_ns as f64 / 1e6,
            );
        }
        out
    }
}

/// The MultiLog operational engine: an evaluated database at a user level.
pub struct MultiLogEngine {
    lattice: Arc<SecurityLattice>,
    user: Label,
    mfacts: Vec<MFact>,
    m_index: HashMap<MFact, usize>,
    /// `(pred, attr)` → indices into `mfacts`, for sub-linear matching.
    m_by_col: HashMap<(Arc<str>, Arc<str>), Vec<usize>>,
    pfacts: Vec<PFact>,
    p_index: HashMap<PFact, usize>,
    /// `pred` → indices into `pfacts`.
    p_by_pred: HashMap<Arc<str>, Vec<usize>>,
    m_just: Vec<Justification>,
    p_just: Vec<Justification>,
    modes: ModeSet,
    options: EngineOptions,
    stats: OperationalStats,
}

impl MultiLogEngine {
    /// Evaluate `db` at the clearance level named `user`.
    pub fn new(db: &MultiLogDb, user: &str) -> Result<Self> {
        Self::with_options(db, user, EngineOptions::default())
    }

    /// Evaluate with explicit options. `db` was admitted by
    /// [`MultiLogDb::new`]; this checks only that `user` is a declared
    /// level and that the database needs no reduction-only construct.
    pub fn with_options(db: &MultiLogDb, user: &str, options: EngineOptions) -> Result<Self> {
        let (lattice, clearances) = db.lattice_for(&[user])?;
        check_reduction_only(db)?;

        let mut eng = MultiLogEngine {
            lattice,
            user: clearances[0],
            mfacts: Vec::new(),
            m_index: HashMap::new(),
            m_by_col: HashMap::new(),
            pfacts: Vec::new(),
            p_index: HashMap::new(),
            p_by_pred: HashMap::new(),
            m_just: Vec::new(),
            p_just: Vec::new(),
            modes: db.modes().clone(),
            options,
            stats: OperationalStats::default(),
        };
        eng.evaluate(db)?;
        Ok(eng)
    }

    /// Per-clause counters collected while evaluating the database.
    pub fn stats(&self) -> &OperationalStats {
        &self.stats
    }

    /// The security lattice.
    pub fn lattice(&self) -> &Arc<SecurityLattice> {
        &self.lattice
    }

    /// The database (user) level.
    pub fn user_level(&self) -> Label {
        self.user
    }

    /// The derived m-facts.
    pub fn mfacts(&self) -> &[MFact] {
        &self.mfacts
    }

    /// The derived p-facts.
    pub fn pfacts(&self) -> &[PFact] {
        &self.pfacts
    }

    pub(crate) fn m_justification(&self, idx: usize) -> &Justification {
        &self.m_just[idx]
    }

    pub(crate) fn p_justification(&self, idx: usize) -> &Justification {
        &self.p_just[idx]
    }

    pub(crate) fn p_fact_index(&self, f: &PFact) -> Option<usize> {
        self.p_index.get(f).copied()
    }

    pub(crate) fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Solve a goal (conjunction of atoms) under the user context,
    /// returning the distinct answers sorted for determinism.
    pub fn solve(&self, goal: &Goal) -> Result<Vec<Answer>> {
        self.modes.check_goal(goal)?;
        let guard = OpGuard::new(&self.options);
        guard.begin_clause(self.mfacts.len() + self.pfacts.len());
        guard.check()?;
        let mut answers = Vec::new();
        let mut env: Env = HashMap::new();
        self.match_body(goal, 0, &mut env, &guard, &mut |env| {
            guard.note_emit();
            let mut a = Answer::new();
            for atom in goal {
                for v in atom.variables() {
                    if let Some(t) = env.get(v) {
                        a.insert(v, t.clone());
                    }
                }
            }
            answers.push(a);
        })?;
        answers.sort();
        answers.dedup();
        Ok(answers)
    }

    /// Parse and solve a textual goal.
    pub fn solve_text(&self, goal: &str) -> Result<Vec<Answer>> {
        self.solve(&parse_goal(goal)?)
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    fn evaluate(&mut self, db: &MultiLogDb) -> Result<()> {
        // Seed l-/h-derived info is held by the lattice itself.
        let uses_cau = db.uses_cau();
        let stages: Vec<Vec<Label>> = if uses_cau {
            // One stage per level, bottom-up (topological by dominance).
            let mut order: Vec<Label> = self.lattice.labels().collect();
            order.sort_by_key(|&l| (self.lattice.down_set(l).len(), l.index()));
            order.into_iter().map(|l| vec![l]).collect()
        } else {
            vec![self.lattice.labels().collect()]
        };

        let staged = uses_cau;
        let sigma: Vec<&Clause> = db.sigma().iter().collect();
        let pi: Vec<&Clause> = db.pi().iter().collect();
        let guard = OpGuard::new(&self.options);
        self.stats.per_clause = sigma
            .iter()
            .chain(&pi)
            .map(|c| ClauseStats {
                clause: c.to_string(),
                ..ClauseStats::default()
            })
            .collect();

        // Outer loop: p-clauses may carry information between levels in
        // either direction, so repeat the stage pipeline until globally
        // stable. Soundness of cautious judgments made along the way is
        // re-verified against the final database below.
        loop {
            let mut any = false;
            for stage in &stages {
                loop {
                    let mut changed = false;
                    self.stats.rounds += 1;
                    for (ci, c) in sigma.iter().chain(&pi).enumerate() {
                        // In staged mode, only m-clauses whose (ground)
                        // head level belongs to the stage fire; p-clauses
                        // always do.
                        if staged {
                            if let Head::M(m) = &c.head {
                                if let Term::Sym(s) = &m.level {
                                    let hl = self.lattice.label(s).ok_or_else(|| {
                                        MultiLogError::NotAdmissible {
                                            detail: format!("unknown head level `{s}`"),
                                        }
                                    })?;
                                    if !stage.contains(&hl) {
                                        continue;
                                    }
                                }
                            }
                        }
                        let started = Instant::now();
                        let (derived, added) = self.apply_clause(c, &guard)?;
                        let wall_ns =
                            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        let cs = &mut self.stats.per_clause[ci];
                        cs.applications += 1;
                        cs.facts_derived += derived;
                        cs.facts_added += added;
                        cs.wall_ns += wall_ns;
                        changed |= added > 0;
                        // Between-clause check: budget against the
                        // materialized database, plus deadline and
                        // cancellation even when matching never reached
                        // a tick boundary.
                        guard.begin_clause(self.mfacts.len() + self.pfacts.len());
                        guard.check()?;
                    }
                    any |= changed;
                    if !changed {
                        break;
                    }
                }
            }
            if !any {
                break;
            }
        }
        self.verify_cautious_justifications()
    }

    /// A cautious judgment made mid-evaluation could in principle be
    /// invalidated by a fact derived later (the mode is non-monotone).
    /// The level-stratification check prevents this for well-behaved
    /// programs; this post-pass re-verifies every recorded cautious
    /// support against the *final* database and rejects the program if
    /// any was retracted.
    fn verify_cautious_justifications(&self) -> Result<()> {
        for just in self.m_just.iter().chain(&self.p_just) {
            for atom in &just.body {
                if let JustAtom::Bel { fact, at, mode } = atom {
                    if mode.as_ref() == "cau"
                        && !believed(
                            &self.lattice,
                            &self.mfacts,
                            &self.mfacts[*fact],
                            *at,
                            Mode::Cau,
                        )
                    {
                        return Err(MultiLogError::NotBeliefStratified {
                            detail: format!(
                                "a cautious belief used by `{}` was invalidated by a later \
                                 derivation",
                                just.clause
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Apply one clause, returning `(derivations buffered, facts added)`.
    fn apply_clause(&mut self, c: &Clause, guard: &OpGuard) -> Result<(usize, usize)> {
        guard.begin_clause(self.mfacts.len() + self.pfacts.len());
        let mut derived: Vec<(Head, Env, Vec<JustAtom>)> = Vec::new();
        let mut env: Env = HashMap::new();
        let mut trace: Vec<JustAtom> = Vec::new();
        self.match_body_traced(
            &c.body,
            0,
            &mut env,
            &mut trace,
            guard,
            &mut |env, trace| {
                guard.note_emit();
                derived.push((c.head.clone(), env.clone(), trace.clone()));
            },
        )?;
        let mut added = 0;
        let n_derived = derived.len();
        let rendered = if derived.is_empty() {
            String::new()
        } else {
            c.to_string()
        };
        for (head, env, trace) in derived {
            if self.assert_head(&head, &env, trace, &rendered)? {
                added += 1;
            }
        }
        Ok((n_derived, added))
    }

    fn assert_head(
        &mut self,
        head: &Head,
        env: &Env,
        body: Vec<JustAtom>,
        clause: &str,
    ) -> Result<bool> {
        // Range restriction (checked at database construction) should
        // guarantee every head variable is bound by the body match; a
        // violation — e.g. a programmatically built clause that bypassed
        // validation — surfaces as a typed error, never a panic.
        let resolve = |t: &Term| -> Result<Term> {
            resolve_term(t, env).ok_or_else(|| MultiLogError::UnsafeVariable {
                variable: t.to_string(),
                clause: clause.to_owned(),
            })
        };
        match head {
            Head::M(m) => {
                let level = self.resolve_label(&m.level, env, clause)?;
                let class = self.resolve_label(&m.class, env, clause)?;
                let key = resolve(&m.key)?;
                let value = resolve(&m.value)?;
                let fact = MFact {
                    pred: m.pred.clone(),
                    key,
                    attr: m.attr.clone(),
                    class,
                    value,
                    level,
                };
                if self.m_index.contains_key(&fact) {
                    return Ok(false);
                }
                self.m_index.insert(fact.clone(), self.mfacts.len());
                self.m_by_col
                    .entry((fact.pred.clone(), fact.attr.clone()))
                    .or_default()
                    .push(self.mfacts.len());
                self.mfacts.push(fact);
                self.m_just.push(Justification {
                    clause: clause.to_owned(),
                    body,
                });
                Ok(true)
            }
            Head::P(p) => {
                let fact = PFact {
                    pred: p.pred.clone(),
                    args: p.args.iter().map(resolve).collect::<Result<Vec<_>>>()?,
                };
                if self.p_index.contains_key(&fact) {
                    return Ok(false);
                }
                self.p_index.insert(fact.clone(), self.pfacts.len());
                self.p_by_pred
                    .entry(fact.pred.clone())
                    .or_default()
                    .push(self.pfacts.len());
                self.pfacts.push(fact);
                self.p_just.push(Justification {
                    clause: clause.to_owned(),
                    body,
                });
                Ok(true)
            }
            Head::L(_) | Head::H(_, _) => Ok(false), // lattice already built
        }
    }

    fn resolve_label(&self, t: &Term, env: &Env, clause: &str) -> Result<Label> {
        let resolved = resolve_term(t, env).ok_or_else(|| MultiLogError::UnsafeVariable {
            variable: t.to_string(),
            clause: clause.to_owned(),
        })?;
        match &resolved {
            Term::Sym(s) => self
                .lattice
                .label(s)
                .ok_or_else(|| MultiLogError::NotAdmissible {
                    detail: format!("`{s}` is not a declared security level"),
                }),
            other => Err(MultiLogError::NotAdmissible {
                detail: format!("security label position holds non-label `{other}`"),
            }),
        }
    }

    /// Indexed version of [`crate::belief::believed`] for the cautious
    /// mode: the maximality scan only visits facts sharing `(pred, attr)`.
    fn believed_indexed(&self, fact: &MFact, at: Label, mode: Mode) -> bool {
        match mode {
            Mode::Fir => fact.level == at,
            Mode::Opt => self.lattice.leq(fact.level, at),
            Mode::Cau => {
                if !self.lattice.leq(fact.level, at) {
                    return false;
                }
                let Some(peers) = self.m_by_col.get(&(fact.pred.clone(), fact.attr.clone())) else {
                    return true;
                };
                !peers.iter().any(|&i| {
                    let w = &self.mfacts[i];
                    w.key == fact.key
                        && self.lattice.leq(w.level, at)
                        && self.lattice.lt(fact.class, w.class)
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Matching
    // ------------------------------------------------------------------

    fn match_body(
        &self,
        body: &[Atom],
        pos: usize,
        env: &mut Env,
        guard: &OpGuard,
        emit: &mut dyn FnMut(&Env),
    ) -> Result<()> {
        let mut trace = Vec::new();
        self.match_body_traced(body, pos, env, &mut trace, guard, &mut |env, _| emit(env))
    }

    #[allow(clippy::too_many_arguments)]
    fn match_body_traced(
        &self,
        body: &[Atom],
        pos: usize,
        env: &mut Env,
        trace: &mut Vec<JustAtom>,
        guard: &OpGuard,
        emit: &mut dyn FnMut(&Env, &Vec<JustAtom>),
    ) -> Result<()> {
        guard.tick()?;
        if pos == body.len() {
            emit(env, trace);
            return Ok(());
        }
        match &body[pos] {
            Atom::M(m) => {
                static EMPTY: Vec<usize> = Vec::new();
                let candidates = self
                    .m_by_col
                    .get(&(m.pred.clone(), m.attr.clone()))
                    .unwrap_or(&EMPTY);
                for &idx in candidates {
                    let fact = &self.mfacts[idx];
                    // Direct match (DEDUCTION-G'): levels equal; guards.
                    if self.lattice.leq(fact.level, self.user)
                        && self.lattice.leq(fact.class, self.user)
                    {
                        self.try_match_mfact(
                            m, fact, idx, body, pos, env, trace, guard, emit, false,
                        )?;
                    }
                    // FILTER (Figure 13): goal level l strictly below the
                    // fact's level, column class c ⪯ l.
                    if self.options.enable_filter {
                        self.try_filter_match(m, fact, idx, body, pos, env, trace, guard, emit)?;
                    }
                }
                Ok(())
            }
            Atom::B(m, mode) => self.match_batom(m, mode, body, pos, env, trace, guard, emit),
            Atom::P(p) => {
                static EMPTY: Vec<usize> = Vec::new();
                let candidates = self.p_by_pred.get(&p.pred).unwrap_or(&EMPTY);
                for &idx in candidates {
                    let fact = &self.pfacts[idx];
                    if fact.args.len() != p.args.len() {
                        continue;
                    }
                    let mut bound = Vec::new();
                    let ok = p
                        .args
                        .iter()
                        .zip(&fact.args)
                        .all(|(t, v)| unify(t, v, env, &mut bound));
                    if ok {
                        trace.push(JustAtom::P(idx));
                        self.match_body_traced(body, pos + 1, env, trace, guard, emit)?;
                        trace.pop();
                    }
                    for v in bound {
                        env.remove(&v);
                    }
                }
                Ok(())
            }
            Atom::L(t) => {
                for l in self.lattice.labels() {
                    let name = Term::sym(self.lattice.name(l));
                    let mut bound = Vec::new();
                    if unify(t, &name, env, &mut bound) {
                        trace.push(JustAtom::L(l));
                        self.match_body_traced(body, pos + 1, env, trace, guard, emit)?;
                        trace.pop();
                    }
                    for v in bound {
                        env.remove(&v);
                    }
                }
                Ok(())
            }
            Atom::H(lo, hi) => {
                for &(a, b) in self.lattice.covers() {
                    let (an, bn) = (
                        Term::sym(self.lattice.name(a)),
                        Term::sym(self.lattice.name(b)),
                    );
                    let mut bound = Vec::new();
                    if unify(lo, &an, env, &mut bound) && unify(hi, &bn, env, &mut bound) {
                        trace.push(JustAtom::H(a, b));
                        self.match_body_traced(body, pos + 1, env, trace, guard, emit)?;
                        trace.pop();
                    }
                    for v in bound {
                        env.remove(&v);
                    }
                }
                Ok(())
            }
            Atom::Leq(lo, hi) => {
                for a in self.lattice.labels() {
                    for b in self.lattice.up_set(a) {
                        let (an, bn) = (
                            Term::sym(self.lattice.name(a)),
                            Term::sym(self.lattice.name(b)),
                        );
                        let mut bound = Vec::new();
                        if unify(lo, &an, env, &mut bound) && unify(hi, &bn, env, &mut bound) {
                            trace.push(JustAtom::Leq(a, b));
                            self.match_body_traced(body, pos + 1, env, trace, guard, emit)?;
                            trace.pop();
                        }
                        for v in bound {
                            env.remove(&v);
                        }
                    }
                }
                Ok(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::too_many_arguments)]
    fn try_match_mfact(
        &self,
        m: &MAtom,
        fact: &MFact,
        idx: usize,
        body: &[Atom],
        pos: usize,
        env: &mut Env,
        trace: &mut Vec<JustAtom>,
        guard: &OpGuard,
        emit: &mut dyn FnMut(&Env, &Vec<JustAtom>),
        _via_filter: bool,
    ) -> Result<()> {
        let level_term = Term::sym(self.lattice.name(fact.level));
        let class_term = Term::sym(self.lattice.name(fact.class));
        let mut bound = Vec::new();
        let ok = unify(&m.level, &level_term, env, &mut bound)
            && unify(&m.key, &fact.key, env, &mut bound)
            && unify(&m.class, &class_term, env, &mut bound)
            && unify(&m.value, &fact.value, env, &mut bound);
        if ok {
            trace.push(JustAtom::M(idx));
            self.match_body_traced(body, pos + 1, env, trace, guard, emit)?;
            trace.pop();
        }
        for v in bound {
            env.remove(&v);
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::too_many_arguments)]
    fn try_filter_match(
        &self,
        m: &MAtom,
        fact: &MFact,
        idx: usize,
        body: &[Atom],
        pos: usize,
        env: &mut Env,
        trace: &mut Vec<JustAtom>,
        guard: &OpGuard,
        emit: &mut dyn FnMut(&Env, &Vec<JustAtom>),
    ) -> Result<()> {
        // Candidate goal levels l with l ≺ fact.level and l ⪯ user.
        for l in self.lattice.down_set(fact.level) {
            if l == fact.level || !self.lattice.leq(l, self.user) {
                continue;
            }
            let goal_level = Term::sym(self.lattice.name(l));
            if self.lattice.leq(fact.class, l) {
                // FILTER: the column is visible at l.
                let class_term = Term::sym(self.lattice.name(fact.class));
                let mut bound = Vec::new();
                let ok = unify(&m.level, &goal_level, env, &mut bound)
                    && unify(&m.key, &fact.key, env, &mut bound)
                    && unify(&m.class, &class_term, env, &mut bound)
                    && unify(&m.value, &fact.value, env, &mut bound);
                if ok {
                    trace.push(JustAtom::M(idx));
                    self.match_body_traced(body, pos + 1, env, trace, guard, emit)?;
                    trace.pop();
                }
                for v in bound {
                    env.remove(&v);
                }
            } else if self.options.enable_filter_null {
                // FILTER-NULL: the column is hidden; inherit ⊥ classified
                // at the goal level.
                let class_term = Term::sym(self.lattice.name(l));
                let mut bound = Vec::new();
                let ok = unify(&m.level, &goal_level, env, &mut bound)
                    && unify(&m.key, &fact.key, env, &mut bound)
                    && unify(&m.class, &class_term, env, &mut bound)
                    && unify(&m.value, &Term::Null, env, &mut bound);
                if ok {
                    trace.push(JustAtom::M(idx));
                    self.match_body_traced(body, pos + 1, env, trace, guard, emit)?;
                    trace.pop();
                }
                for v in bound {
                    env.remove(&v);
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::too_many_arguments)]
    fn match_batom(
        &self,
        m: &MAtom,
        mode: &Arc<str>,
        body: &[Atom],
        pos: usize,
        env: &mut Env,
        trace: &mut Vec<JustAtom>,
        guard: &OpGuard,
        emit: &mut dyn FnMut(&Env, &Vec<JustAtom>),
    ) -> Result<()> {
        if !self.modes.contains(mode) {
            return Err(MultiLogError::UnknownMode(mode.to_string()));
        }
        let builtin = Mode::parse(mode);
        // Enumerate belief levels `at` compatible with the atom's level
        // term, guarded by `at ⪯ u`.
        for at in self.lattice.labels() {
            if !self.lattice.leq(at, self.user) {
                continue;
            }
            let at_term = Term::sym(self.lattice.name(at));
            let mut bound_at = Vec::new();
            if !unify(&m.level, &at_term, env, &mut bound_at) {
                continue;
            }
            match builtin {
                Some(mode_b) => {
                    static EMPTY: Vec<usize> = Vec::new();
                    let candidates = self
                        .m_by_col
                        .get(&(m.pred.clone(), m.attr.clone()))
                        .unwrap_or(&EMPTY);
                    for &idx in candidates {
                        let fact = &self.mfacts[idx];
                        // Guard: the believed column must be readable.
                        if !self.lattice.leq(fact.class, self.user) {
                            continue;
                        }
                        if !self.believed_indexed(fact, at, mode_b) {
                            continue;
                        }
                        let class_term = Term::sym(self.lattice.name(fact.class));
                        let mut bound = Vec::new();
                        let ok = unify(&m.key, &fact.key, env, &mut bound)
                            && unify(&m.class, &class_term, env, &mut bound)
                            && unify(&m.value, &fact.value, env, &mut bound);
                        if ok {
                            trace.push(JustAtom::Bel {
                                fact: idx,
                                at,
                                mode: mode.clone(),
                            });
                            self.match_body_traced(body, pos + 1, env, trace, guard, emit)?;
                            trace.pop();
                        }
                        for v in bound {
                            env.remove(&v);
                        }
                    }
                }
                None => {
                    // USER-BELIEF (Figure 13): a b-atom in a user mode is
                    // proved by a `bel/7` p-fact.
                    static EMPTY: Vec<usize> = Vec::new();
                    let candidates = self.p_by_pred.get("bel").unwrap_or(&EMPTY);
                    for &idx in candidates {
                        let fact = &self.pfacts[idx];
                        if fact.args.len() != 7 {
                            continue;
                        }
                        if fact.args[6] != Term::sym(mode.as_ref()) {
                            continue;
                        }
                        if fact.args[5] != at_term {
                            continue;
                        }
                        if fact.args[0] != Term::sym(m.pred.as_ref())
                            || fact.args[2] != Term::sym(m.attr.as_ref())
                        {
                            continue;
                        }
                        // Guard: the believed column must be readable
                        // (`c ⪯ u`), exactly as for built-in modes.
                        if let Term::Sym(cl) = &fact.args[4] {
                            match self.lattice.label(cl) {
                                Some(cl) if self.lattice.leq(cl, self.user) => {}
                                _ => continue,
                            }
                        }
                        let mut bound = Vec::new();
                        let ok = unify(&m.key, &fact.args[1], env, &mut bound)
                            && unify(&m.value, &fact.args[3], env, &mut bound)
                            && unify(&m.class, &fact.args[4], env, &mut bound);
                        if ok {
                            trace.push(JustAtom::P(idx));
                            self.match_body_traced(body, pos + 1, env, trace, guard, emit)?;
                            trace.pop();
                        }
                        for v in bound {
                            env.remove(&v);
                        }
                    }
                }
            }
            for v in bound_at {
                env.remove(&v);
            }
        }
        Ok(())
    }
}

impl fmt::Debug for MultiLogEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MultiLogEngine {{ user: {}, m-facts: {}, p-facts: {} }}",
            self.lattice.name(self.user),
            self.mfacts.len(),
            self.pfacts.len()
        )
    }
}

type Env = HashMap<String, Term>;

/// Unify a pattern term against a ground term, recording fresh bindings
/// in `bound` for backtracking.
fn unify(pattern: &Term, ground: &Term, env: &mut Env, bound: &mut Vec<String>) -> bool {
    match pattern {
        Term::Var(v) => match env.get(v.as_ref()) {
            Some(existing) => existing == ground,
            None => {
                env.insert(v.to_string(), ground.clone());
                bound.push(v.to_string());
                true
            }
        },
        other => other == ground,
    }
}

/// Resolve a head term against the match environment; `None` when the
/// term is a variable the body never bound (callers turn this into
/// [`MultiLogError::UnsafeVariable`]).
fn resolve_term(t: &Term, env: &Env) -> Option<Term> {
    match t {
        Term::Var(v) => env.get(v.as_ref()).cloned(),
        other => Some(other.clone()),
    }
}

/// Aggregate heads and `@algo(...)` operator calls are executed by the
/// Datalog back-end via the reduction; the operational engine's
/// backtracking fixpoint has no fold or operator machinery, so it
/// rejects such databases with a typed error instead of silently
/// deriving nothing.
fn check_reduction_only(db: &MultiLogDb) -> Result<()> {
    for c in db.clauses() {
        if c.agg.is_some() {
            return Err(MultiLogError::ReductionOnly {
                detail: format!("aggregate clause `{c}`"),
            });
        }
        if c.uses_algo() {
            return Err(MultiLogError::ReductionOnly {
                detail: format!("algorithm operator call in `{c}`"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_database;

    fn engine(src: &str, user: &str) -> MultiLogEngine {
        let db = parse_database(src).unwrap();
        MultiLogEngine::new(&db, user).unwrap()
    }

    const D1: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[p(k : a -u-> v)].
        c[p(k : a -c-> t)] <- q(j).
        s[p(k : a -u-> v)] <- c[p(k : a -c-> t)] << cau.
        q(j).
    "#;

    #[test]
    fn reduction_only_constructs_rejected() {
        // The operational engine has no fold or operator machinery; a
        // silent empty derivation would be wrong, so construction fails
        // with a typed error pointing at `ReducedEngine`.
        let agg = parse_database("part(a, b). total(P, count(S)) <- part(P, S).").unwrap();
        assert!(matches!(
            MultiLogEngine::new(&agg, "s"),
            Err(crate::MultiLogError::ReductionOnly { .. })
        ));
        let algo = parse_database("edge(a, b). r(X, Y) <- @bfs(edge, X, Y).").unwrap();
        assert!(matches!(
            MultiLogEngine::new(&algo, "s"),
            Err(crate::MultiLogError::ReductionOnly { .. })
        ));
    }

    #[test]
    fn d1_derives_all_facts() {
        let e = engine(D1, "s");
        // u fact, c fact (q(j) holds), s fact (cau at c believes t).
        assert_eq!(e.mfacts().len(), 3);
        assert_eq!(e.pfacts().len(), 1);
    }

    #[test]
    fn figure11_query_succeeds() {
        // ⟨D1, c⟩ ⊢ c[p(k : a -u-> v)] << opt with binding R/u.
        let e = engine(D1, "c");
        let ans = e.solve_text("c[p(k : a -u-> v)] << opt").unwrap();
        assert_eq!(ans.len(), 1);
        // And with a variable for the level inside the belief:
        let ans = e.solve_text("c[p(k : a -C-> V)] << opt").unwrap();
        assert_eq!(
            ans.len(),
            2,
            "both the u and c columns are visible: {ans:?}"
        );
    }

    #[test]
    fn no_read_up_enforced() {
        let e = engine(D1, "u");
        // The c-level fact is not visible to a u user in any mode.
        assert!(e.solve_text("c[p(k : a -c-> t)]").unwrap().is_empty());
        assert!(e
            .solve_text("c[p(k : a -c-> t)] << fir")
            .unwrap()
            .is_empty());
        // The u fact is.
        assert_eq!(e.solve_text("u[p(k : a -u-> v)]").unwrap().len(), 1);
    }

    #[test]
    fn s_level_rule_fires_only_with_cau_support() {
        let e = engine(D1, "s");
        assert_eq!(e.solve_text("s[p(k : a -u-> v)]").unwrap().len(), 1);
        // Remove the q(j) fact: the c rule cannot fire, so cau at c
        // believes the u fact instead, and the s rule still needs t —
        // which fails.
        let without_q = r#"
            level(u). level(c). level(s).
            order(u, c). order(c, s).
            u[p(k : a -u-> v)].
            c[p(k : a -c-> t)] <- q(j).
            s[p(k : a -u-> v)] <- c[p(k : a -c-> t)] << cau.
        "#;
        let e = engine(without_q, "s");
        assert!(e.solve_text("s[p(k : a -u-> v)]").unwrap().is_empty());
        // But cau at c now believes v (nothing overrides it).
        assert_eq!(e.solve_text("c[p(k : a -u-> v)] << cau").unwrap().len(), 1);
    }

    #[test]
    fn cautious_override_in_queries() {
        let e = engine(D1, "s");
        // At c: t (class c) overrides v (class u).
        assert!(e
            .solve_text("c[p(k : a -u-> v)] << cau")
            .unwrap()
            .is_empty());
        assert_eq!(e.solve_text("c[p(k : a -c-> t)] << cau").unwrap().len(), 1);
        // At u: only v visible; believed.
        assert_eq!(e.solve_text("u[p(k : a -u-> v)] << cau").unwrap().len(), 1);
    }

    #[test]
    fn belief_stratification_rejects_same_level_cau() {
        let src = r#"
            level(u). level(c). order(u, c).
            u[p(k : a -u-> v)].
            c[p(k : a -c-> w)] <- c[p(k : a -u-> v)] << cau.
        "#;
        assert!(matches!(
            parse_database(src),
            Err(MultiLogError::NotBeliefStratified { .. })
        ));
    }

    #[test]
    fn unknown_mode_rejected() {
        let src = r#"
            level(u). level(c). order(u, c).
            u[p(k : a -u-> v)].
            c[p(k : a -c-> w)] <- u[p(k : a -u-> v)] << zeal.
        "#;
        assert!(matches!(
            parse_database(src),
            Err(MultiLogError::UnknownMode(_))
        ));
        // A goal in an unknown mode is refused at solve time.
        let e = engine(D1, "s");
        assert!(matches!(
            e.solve_text("c[p(k : a -C-> V)] << zeal"),
            Err(MultiLogError::UnknownMode(_))
        ));
    }

    #[test]
    fn user_defined_mode_via_bel_facts() {
        let src = r#"
            level(u). level(c). order(u, c).
            u[p(k : a -u-> v)].
            bel(p, k, a, v, u, c, myway) <- level(c).
            c[q(k : b -c-> w)] <- c[p(k : a -u-> v)] << myway.
        "#;
        let e = engine(src, "c");
        assert_eq!(e.solve_text("c[q(k : b -c-> w)]").unwrap().len(), 1);
        assert_eq!(
            e.solve_text("c[p(k : a -u-> V)] << myway").unwrap().len(),
            1
        );
    }

    #[test]
    fn datalog_degeneration_runs() {
        // Prop 6.1: pure Datalog programs evaluate unchanged.
        let src = "q(a). q(b). r(X) <- q(X).";
        let db = parse_database(src).unwrap();
        let e = MultiLogEngine::new(&db, "system").unwrap();
        assert_eq!(e.solve_text("r(X)").unwrap().len(), 2);
        assert_eq!(e.pfacts().len(), 4);
    }

    #[test]
    fn recursive_p_clauses() {
        let src = r#"
            level(u).
            edge(a, b). edge(b, c). edge(c, d).
            path(X, Y) <- edge(X, Y).
            path(X, Y) <- edge(X, Z), path(Z, Y).
        "#;
        let e = engine(src, "u");
        assert_eq!(e.solve_text("path(a, X)").unwrap().len(), 3);
    }

    #[test]
    fn filter_disabled_by_default() {
        // §7: without σ, a u query cannot see the low-classified part of a
        // higher tuple.
        let src = r#"
            level(u). level(s). order(u, s).
            s[m(k : ship -u-> phantom)].
        "#;
        let e = engine(src, "s");
        assert!(e
            .solve_text("u[m(k : ship -u-> phantom)]")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn filter_enables_downward_visibility() {
        let src = r#"
            level(u). level(s). order(u, s).
            s[m(k : ship -u-> phantom)].
            s[m(k : obj -s-> spying)].
        "#;
        let db = parse_database(src).unwrap();
        let e = MultiLogEngine::with_options(
            &db,
            "s",
            EngineOptions {
                enable_filter: true,
                enable_filter_null: true,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        // FILTER: the u-classified ship column is visible at u.
        assert_eq!(
            e.solve_text("u[m(k : ship -u-> phantom)]").unwrap().len(),
            1
        );
        // FILTER-NULL: the s-classified objective surfaces as ⊥ at u.
        assert_eq!(e.solve_text("u[m(k : obj -u-> null)]").unwrap().len(), 1);
        // The actual secret does not leak.
        assert!(e
            .solve_text("u[m(k : obj -s-> spying)]")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn leq_goals() {
        let e = engine(D1, "s");
        assert_eq!(e.solve_text("u leq s").unwrap().len(), 1);
        assert!(e.solve_text("s leq u").unwrap().is_empty());
        let ans = e.solve_text("X leq c").unwrap();
        assert_eq!(ans.len(), 2); // u ⪯ c and c ⪯ c
    }

    #[test]
    fn level_and_order_goals() {
        let e = engine(D1, "s");
        assert_eq!(e.solve_text("level(X)").unwrap().len(), 3);
        assert_eq!(e.solve_text("order(u, X)").unwrap().len(), 1);
    }

    #[test]
    fn molecular_query() {
        let src = r#"
            level(u).
            u[m(k1 : a -u-> x; b -u-> y)].
            u[m(k2 : a -u-> x; b -u-> z)].
        "#;
        let e = engine(src, "u");
        let ans = e.solve_text("u[m(K : a -u-> x; b -u-> y)]").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0]["K"], Term::sym("k1"));
    }

    #[test]
    fn unknown_user_level_rejected() {
        let db = parse_database("level(u). u[p(k : a -u-> v)].").unwrap();
        assert!(matches!(
            MultiLogEngine::new(&db, "zz"),
            Err(MultiLogError::NotAdmissible { .. })
        ));
    }
}
