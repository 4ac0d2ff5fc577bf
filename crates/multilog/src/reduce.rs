//! The reduction semantics of §6: the translation τ from MultiLog to
//! Datalog plus the inference-engine axiom set **A** of Figure 12,
//! executed on the `multilog-datalog` engine (our CORAL substitute).
//!
//! τ builds the reduced program as typed Datalog clauses
//! ([`dl::Clause`] over [`dl::Atom`]/[`dl::Literal`]/[`dl::Term`]) and
//! hands them to [`dl::Program::from_clauses`], which runs the usual
//! safety and arity checks. MultiLog symbols become Datalog constants,
//! never Datalog syntax, so a symbol spelled like a Datalog keyword
//! (`not`, `mod`) reduces like any other. Goals translate the same way,
//! into typed query literals. [`ReducedEngine::program_text`] is only a
//! rendering of the typed program for inspection; nothing evaluates it.
//!
//! ## Encoding (§6.1)
//!
//! * `τ(l[p(k : a -c-> v)]) = rel(p, k, a, v, c, l)`
//! * `τ(l[p(k : a -c-> v)] << m)` reads the one relation holding mode
//!   `m`'s beliefs: `rel(p, k, a, v, c, l)` for `fir`, which *is* `rel`;
//!   `bel_opt(p, k, a, v, c, l)` for `opt`; `bel_cau(p, k, a, v, c, l)`
//!   for `cau`; and `bel(p, k, a, v, c, l, m)` for a user-defined mode
//!   (§7), whose relation holds only the Π heads defining such modes.
//! * p-, l-, h-atoms translate to themselves; `⪯` becomes `dominate/2`.
//!   A p-atom may not name a relation τ derives (admission refuses it,
//!   ML0115), so τ's relations hold τ's facts only.
//! * `τ(λ(B, u))` guards every body/query m- and b-atom with
//!   `dominate(l, u)` and `dominate(c, u)` — the Bell–LaPadula *no read
//!   up* conditions (§6.2). Here the clearance is data: a goal's guards
//!   name its clearance, rules whose body labels the head level dominates
//!   need no guard, and the other rules read `u` from a clearance column
//!   `U` bound by the base relation `clearance(U)`, so one program serves
//!   every clearance (docs/SEMANTICS.md, "One fixpoint for every
//!   clearance").
//!
//! ## Making Figure 12 executable
//!
//! The paper prints the axioms a₁–a₉ ([`paper_axioms`]) and asserts they
//! are stratified. As written they are not: `rel` depends on `bel`
//! whenever a rule body consults a belief, and the cautious axioms make
//! `bel` depend *negatively* on `rel` — a negative cycle for any
//! syntactic stratifier (and a₆/a₉ additionally use unsafe negation).
//! We therefore emit a semantically equivalent *specialized* axiom set,
//! which stores each belief once:
//!
//! * each built-in mode has one relation: `fir` is `rel` itself, `opt`
//!   is `bel_opt`, and `cau` is `bel_cau`; rules and goals consuming
//!   only monotone modes never touch the negation;
//! * the unsafe negations of a₆–a₉ become one safe auxiliary predicate
//!   `beaten`: a value is cautiously believed iff it is optimistically
//!   believed and no optimistically believed value for the same column
//!   strictly dominates its classification — exactly β (Definition 3.1);
//! * when a rule body does consult `<< cau`, `rel` is split per level
//!   (`rel_u`, `rel_c`, …, with `rel` their union), and a body atom at
//!   ground level `h` reads `h`'s own relation: `rel_h`, or `bel_opt_h`
//!   and `bel_cau_h` (with `beaten_h`), generated only for the levels a
//!   rule body reads, against the *statically known* dominance relation —
//!   the level stratification of the operational engine, reflected
//!   syntactically. This requires ground levels on the body m-atoms and
//!   `<< cau` atoms of every rule, which admission
//!   ([`MultiLogDb::new`], ML0105) requires of every engine's programs. A
//!   `<< fir`/`<< opt` body atom at a *variable* level still reads the
//!   relation of every level.
//!
//! Theorem 6.1 (equivalence with the operational semantics) is exercised
//! by `tests/equivalence.rs` at the workspace root.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

use multilog_datalog as dl;
use multilog_lattice::SecurityLattice;

use crate::ast::{shared_name, Atom, Clause, Goal, Head, MAtom, PAtom, Term};
use crate::belief::Mode;
use crate::db::MultiLogDb;
use crate::engine::{Answer, EngineOptions};
use crate::modes::ModeSet;
use crate::{MultiLogError, Result};

/// The verbatim inference engine of Figure 12 (axioms a₁–a₉), as printed
/// in the paper. This is the *reproduced artifact*; [`ReducedEngine`]
/// executes the safe specialization described in the module docs.
pub fn paper_axioms() -> &'static str {
    "\
a1: dominate(X, Y) <- order(X, Y).
a2: dominate(X, X) <- level(X).
a3: dominate(X, Y) <- order(X, Z), dominate(Z, Y).
a4: bel(P, K, A, V, C, H, fir) <- rel(P, K, A, V, C, H).
a5: bel(P, K, A, V, C, H, opt) <- rel(P, K, A, V, C, L), dominate(L, H).
a6: bel(P, K, A, V, C, H, cau) <- rel(P, K, A, V, C, H), ~order(L, H).
a7: bel(P, K, A, V, C, H, cau) <- order(L, H), ~rel(P, K, A, V', C', H), bel(P, K, A, V, C, L, cau).
a8: bel(P, K, A, V, C, H, cau) <- rel(P, K, A, V', C', H), rel(P, K, A, V, C, L), dominate(L, H), dominate(C', C).
a9: bel(P, K, A, V, C, H, cau) <- rel(P, K, A, V, C, H), ~rel(P, K, A, V', C', L), dominate(L, H), dominate(C, C')."
}

/// One extensional update to a reduced database: assert or retract a
/// ground m-atom (one classified cell).
///
/// Applied in batches by [`ReducedEngine::apply_updates`], which drives
/// the Datalog back-end's incremental maintenance instead of
/// re-translating and re-evaluating the whole database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EdbUpdate {
    /// Assert the m-atom as a new extensional fact.
    Assert(MAtom),
    /// Retract a previously asserted m-atom. Retracting a cell that was
    /// only ever *derived* (by a Σ rule body) is a no-op: derived beliefs
    /// cannot be deleted out from under their justification.
    Retract(MAtom),
}

/// A MultiLog database reduced to Datalog and evaluated to fixpoint.
///
/// The fixpoint is held by an incremental Datalog engine, so extensional
/// updates ([`ReducedEngine::apply_updates`]) maintain the materialized
/// belief relations by delta propagation rather than recomputation —
/// belief queries stay warm across updates.
///
/// τ is translated once for every clearance: each clearance the engine
/// serves is a `clearance(u)` base fact, and the rules whose answers
/// depend on the clearance carry it as a trailing column (see
/// docs/SEMANTICS.md, "One fixpoint for every clearance").
/// [`ReducedEngine::new`] and [`ReducedEngine::with_options`] serve one
/// clearance; the belief server opens more, each by a commit.
pub struct ReducedEngine {
    lattice: Arc<SecurityLattice>,
    /// The clearances goals are answered at, in opening order.
    clearances: Vec<String>,
    /// The database's belief modes; goals in any other are refused.
    modes: ModeSet,
    /// The clearance-dependent predicates and their sliced relations
    /// (often none).
    cone: Arc<Cone>,
    incremental: dl::IncrementalEngine,
    /// Whether `rel` was split per level (cautious bodies present).
    level_split: bool,
    /// The typed program rendered once, for [`ReducedEngine::program_text`].
    program_text: String,
    /// Guard configuration, replayed onto demand-driven goal runs.
    fact_limit: usize,
    deadline: Option<std::time::Duration>,
    cancel: Option<dl::CancelToken>,
    /// Lattice-flow demand pruning ([`EngineOptions::flow_prune`]).
    prune: Option<FlowPrune>,
    /// Prepared demand plans and the base snapshot they run over.
    demand: Mutex<DemandCache>,
    /// The unguarded translator [`ReducedEngine::solve`] answers
    /// through, with its prepared queries.
    solver: GoalTranslator,
}
/// What demand goals ([`ReducedEngine::solve_demand`]) reuse: the
/// flow-pruned rules, prepared magic plans for up to [`MAX_PREPARED`]
/// goal shapes, and a snapshot of the base relations. The reduced
/// engine's rules never change, so plans stay valid across commits; they
/// are dropped when the cache is full, and when flow pruning's `tainted`
/// flag flips, which changes the rules.
#[derive(Default)]
struct DemandCache {
    /// The `tainted` flag the rules and plans were built under.
    tainted: bool,
    /// The flow-pruned rules and how many clauses pruning dropped.
    rules: Option<(Arc<dl::Program>, usize)>,
    /// Plans by [`dl::magic::prepared_key`] of the goal's canonical τ
    /// body ([`GoalTranslator::canonical`]), so goals that differ only in
    /// constants, a belief mode included, or in variable names share one;
    /// `None` for shapes without a magic rewrite, which fall back to cone
    /// evaluation.
    plans: HashMap<String, Option<Arc<dl::PreparedMagic>>>,
    /// The base relations with every column a plan probes sealed; taken
    /// when a commit changes the base and rebuilt by the next goal.
    snapshot: Option<dl::Database>,
    /// The columns sealed in the snapshot, to seal again on a rebuild.
    sealed: Vec<(dl::SymId, usize)>,
}

/// What [`ReducedEngine::demand_plan`] hands a demand goal: the shape's
/// plan (`None` without a magic rewrite), the flow-pruned rules, a clone
/// of the base snapshot, and how many clauses pruning dropped.
type DemandPlan = (
    Option<Arc<dl::PreparedMagic>>,
    Arc<dl::Program>,
    dl::Database,
    usize,
);

/// Demand-pruning state: the static flow analysis of the source
/// database plus each Σ/Π clause paired with its τ image, so prunable
/// rules can be dropped from the demand program by structural equality
/// (spans are not identity, see [`crate::ast::Span`]).
///
/// Only the *demand* path prunes; the incremental materialized fixpoint
/// always evaluates the full program, so `solve`/`apply_updates` are
/// untouched and pruning can never change a committed answer.
struct FlowPrune {
    report: crate::flow::FlowReport,
    /// `(source clause, translated clause)` for every Σ/Π rule.
    rules: Vec<(Clause, dl::Clause)>,
    /// Per-level belief relations (`bel_opt_h`, `beaten_h`,
    /// `bel_cau_h`) of levels `h` not dominated by the clearance —
    /// nothing at or below the clearance ever reads them, and they are
    /// never update targets (updates land in `rel_*`), so dropping them
    /// is sound independent of updates.
    machinery: HashSet<String>,
    /// Set once any update transaction has been opened: achieved label
    /// sets may have widened beyond the static bounds, so only the
    /// ground-label (update-independent) criteria remain usable.
    tainted: bool,
}

impl std::fmt::Debug for ReducedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReducedEngine")
            .field("clearances", &self.clearances)
            .field("cone", &self.cone.slices.len())
            .field("level_split", &self.level_split)
            .field("facts", &self.incremental.database().fact_count())
            .finish_non_exhaustive()
    }
}

impl ReducedEngine {
    /// Translate and evaluate `db` at the clearance level named `user`.
    pub fn new(db: &MultiLogDb, user: &str) -> Result<Self> {
        Self::with_options(db, user, EngineOptions::default())
    }

    /// Like [`ReducedEngine::new`], but evaluating the reduced program
    /// under the same guards the operational engine honors: the fact
    /// budget, wall-clock deadline, and cancellation token of `options`.
    /// Guard trips lift back as the MultiLog-level typed errors.
    pub fn with_options(db: &MultiLogDb, user: &str, options: EngineOptions) -> Result<Self> {
        Self::materialized(db, Some(user), options)
    }

    /// Like [`ReducedEngine::with_options`], but *without* materializing
    /// the reduced fixpoint. The back-end starts poisoned and the
    /// database empty, so [`ReducedEngine::solve`]/
    /// [`ReducedEngine::solve_text`] (which read the materialization)
    /// return no answers and [`ReducedEngine::apply_updates`] is
    /// unusable until [`ReducedEngine::rematerialize`] runs. Demand-driven
    /// point queries ([`ReducedEngine::solve_demand`]) work immediately:
    /// they evaluate goal-directed against the translated program and
    /// never need the full fixpoint — the cheap entry point for serving a
    /// few point queries without paying for a materialization.
    pub fn with_options_deferred(
        db: &MultiLogDb,
        user: &str,
        options: EngineOptions,
    ) -> Result<Self> {
        Self::build(db, Some(user), options)
    }

    /// The materialized engine serving `user`, or no clearance yet: the
    /// one a belief server starts from and opens clearances on.
    pub(crate) fn materialized(
        db: &MultiLogDb,
        user: Option<&str>,
        options: EngineOptions,
    ) -> Result<Self> {
        let mut engine = Self::build(db, user, options)?;
        // The initial materialization runs under the configured guards;
        // trips convert through `From<DatalogError>` so callers see the
        // same `BudgetExceeded`/`DeadlineExceeded`/`Cancelled` variants
        // as the operational engine.
        engine.incremental.recover()?;
        Ok(engine)
    }

    /// Serve `user` from this reduction of `db` as well. Evaluates
    /// nothing, and returns `None`, when `user` is served already or no
    /// rule depends on the clearance (an empty [`Cone`]): the fixpoint
    /// holds `user`'s answers then. Otherwise commits the base fact
    /// `clearance(user)`, so delta maintenance derives `user`'s slice of
    /// the cone and nothing else, and returns the commit's statistics.
    ///
    /// # Errors
    ///
    /// [`MultiLogError::NotAdmissible`] for an undeclared level; any
    /// evaluation error from the commit, which (as in
    /// [`ReducedEngine::apply_updates`]) may leave the engine poisoned.
    /// On error `user` is not served.
    pub(crate) fn open_clearance(
        &mut self,
        db: &MultiLogDb,
        user: &str,
    ) -> Result<Option<dl::CommitStats>> {
        if self.clearances.iter().any(|c| c == user) {
            return Ok(None);
        }
        let mut wider = self.clearances.clone();
        wider.push(user.to_owned());
        // Plain Datalog's lattice is the served clearances (Prop 6.1).
        let (lattice, _) = db.lattice_for(&wider)?;
        let fact = (
            true,
            dl::SymId::intern(CLEARANCE),
            vec![dl::Const::sym(user)],
        );
        let stats = (!self.cone.is_empty())
            .then(|| self.commit(vec![fact]))
            .transpose()?;
        self.lattice = lattice;
        self.clearances = wider;
        Ok(stats)
    }

    /// Translate `db`, serving `user` if given, and set up the
    /// unmaterialized back-end.
    fn build(db: &MultiLogDb, user: Option<&str>, options: EngineOptions) -> Result<Self> {
        let clearances: Vec<String> = user.into_iter().map(str::to_owned).collect();
        let (lattice, _) = db.lattice_for(&clearances)?;
        let level_split = db.uses_cau();
        let (clauses, axioms_at, cone) = translate(db, &lattice, level_split, &clearances);
        let program_text = render(&clauses, axioms_at);
        let program = dl::Program::from_clauses(clauses).map_err(MultiLogError::Datalog)?;
        let cone = Arc::new(cone);
        // Flow pruning needs a real lattice and one clearance; the Prop
        // 6.1 fallback has no Σ rules to prune anyway.
        let prune = match user {
            Some(user) if options.flow_prune && !db.is_plain_datalog() => {
                let report = crate::flow::analyze_db(db);
                // Σ and Π images follow Λ's, in source order. Facts are
                // never prunable; only rules are kept.
                let images = &program.clauses()[db.lambda().len()..];
                let rules = db.sigma().iter().chain(db.pi()).zip(images);
                let rules = rules
                    .filter(|(c, _)| !c.is_fact())
                    .map(|(c, t)| (c.clone(), t.clone()))
                    .collect();
                let u = lattice.label(user);
                let above = lattice
                    .labels()
                    .filter(|&h| u.is_some_and(|u| !lattice.leq(h, u)));
                let leveled = above.flat_map(|h| {
                    ["bel_opt", "beaten", "bel_cau"].map(|p| leveled(p, lattice.name(h)))
                });
                let machinery = leveled
                    .map(|p| dl::SymId::intern(&p))
                    .flat_map(|p| [p, cone.relation(p)].map(|p| p.as_str().to_owned()))
                    .collect();
                Some(FlowPrune {
                    report,
                    rules,
                    machinery,
                    tainted: false,
                })
            }
            _ => None,
        };
        let fact_limit = options.limit();
        let mut incremental = dl::IncrementalEngine::new_deferred(&program)
            .map_err(MultiLogError::Datalog)?
            .with_fact_limit(fact_limit);
        // Goals read each mode's relation with its level column (see
        // `belief_atom`), or its sliced relation, and point goals bind the
        // key, column 1, which no rule probes: readers seek on it instead
        // of scanning the relation.
        for pred in ["rel", "bel_opt", "bel_cau", crate::modes::BEL] {
            let read = cone.relation(dl::SymId::intern(pred));
            incremental = incremental.with_reader_index(read.as_str(), 1);
        }
        if let Some(deadline) = options.deadline {
            incremental = incremental.with_deadline(deadline);
        }
        if let Some(cancel) = &options.cancel {
            incremental = incremental.with_cancel_token(cancel.clone());
        }
        Ok(ReducedEngine {
            solver: GoalTranslator::new(
                user.unwrap_or_default(),
                db.modes().clone(),
                Arc::clone(&cone),
            ),
            lattice,
            clearances,
            modes: db.modes().clone(),
            cone,
            incremental,
            level_split,
            program_text,
            fact_limit,
            deadline: options.deadline,
            cancel: options.cancel,
            prune,
            demand: Mutex::default(),
        })
    }

    /// The one clearance [`ReducedEngine::solve`] and
    /// [`ReducedEngine::solve_demand`] answer at. An engine serving
    /// several has none: its goals go through
    /// [`ReducedEngine::goal_translator`].
    fn user(&self) -> Result<&str> {
        match self.clearances.as_slice() {
            [user] => Ok(user),
            _ => Err(MultiLogError::NotAdmissible {
                detail: "a reduction serving several clearances answers goals per clearance, \
                         through a goal translator"
                    .to_owned(),
            }),
        }
    }

    /// The clearances this reduction answers goals at, in opening order.
    pub(crate) fn clearances(&self) -> &[String] {
        &self.clearances
    }

    /// Whether an aborted commit left the back-end poisoned, so that
    /// [`ReducedEngine::rematerialize`] must run before the next commit.
    pub fn is_poisoned(&self) -> bool {
        self.incremental.is_poisoned()
    }

    /// Per-rule / per-stratum statistics from evaluating the reduced
    /// program to fixpoint (the most recent full materialization;
    /// incremental commits report through [`dl::CommitStats`] instead).
    pub fn stats(&self) -> &dl::EvalStats {
        self.incremental.materialize_stats()
    }

    /// The generated Datalog program in Datalog surface syntax, for
    /// inspection and the figures binary: a rendering of the typed
    /// program that parses back to the same clauses.
    pub fn program_text(&self) -> &str {
        &self.program_text
    }

    /// The evaluated Datalog database.
    pub fn database(&self) -> &dl::Database {
        self.incremental.database()
    }

    /// Apply a batch of extensional updates as one transaction against
    /// the materialized fixpoint. All updates land atomically: either the
    /// whole batch commits and the belief relations are delta-maintained,
    /// or nothing changes.
    ///
    /// Each atom must be ground and its level and classification must be
    /// declared levels of the lattice. Retracting an atom that was never
    /// asserted (or was derived by a rule) is a counted no-op, mirroring
    /// the back-end's semantics.
    ///
    /// # Errors
    ///
    /// [`MultiLogError::NonGroundUpdate`] for an atom with variables;
    /// [`MultiLogError::NotAdmissible`] for an undeclared level or
    /// classification. Both are returned before the engine is touched.
    /// Any other error (a guard trip mid-commit) may poison the
    /// back-end, in which case [`ReducedEngine::rematerialize`] must run
    /// before further use.
    pub fn apply_updates(&mut self, updates: &[EdbUpdate]) -> Result<dl::CommitStats> {
        // Validate every atom before touching the transaction, so a bad
        // batch is rejected without opening one.
        let mut encoded: Vec<(bool, dl::SymId, Vec<dl::Const>)> = Vec::with_capacity(updates.len());
        for update in updates {
            let (m, insert) = match update {
                EdbUpdate::Assert(m) => (m, true),
                EdbUpdate::Retract(m) => (m, false),
            };
            let (pred, fact) = self.encode_update(m)?;
            encoded.push((insert, pred, fact));
        }
        // Any update may widen the achieved label sets beyond the static
        // flow bounds; from here on only ground-label pruning is sound.
        if let Some(p) = self.prune.as_mut() {
            p.tainted = true;
        }
        self.commit(encoded)
    }

    /// Commit `staged` base facts — `(insert, predicate, fact)` — as one
    /// transaction.
    fn commit(
        &mut self,
        staged: Vec<(bool, dl::SymId, Vec<dl::Const>)>,
    ) -> Result<dl::CommitStats> {
        // The base changes (or, on a failed commit, is restored): the
        // next demand goal rebuilds the snapshot.
        self.demand
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot = None;
        self.incremental.begin()?;
        for (insert, pred, fact) in staged {
            let staged = if insert {
                self.incremental.insert(&pred, fact)
            } else {
                self.incremental.retract(&pred, fact)
            };
            if let Err(e) = staged {
                // Arity clash against the translated program: discard the
                // partial batch so the engine stays usable.
                let _ = self.incremental.rollback();
                return Err(e.into());
            }
        }
        Ok(self.incremental.commit()?)
    }

    /// Rebuild the fixpoint from scratch after a poisoning abort; also
    /// usable to force a full recomputation.
    ///
    /// # Errors
    ///
    /// Any evaluation error from the full materialization.
    pub fn rematerialize(&mut self) -> Result<()> {
        Ok(self.incremental.recover()?)
    }

    /// Encode a ground m-atom into its τ image: the target relation name
    /// and the constant tuple, honoring the level split.
    fn encode_update(&self, m: &MAtom) -> Result<(dl::SymId, Vec<dl::Const>)> {
        let non_ground = || MultiLogError::NonGroundUpdate {
            atom: m.to_string(),
        };
        if !m.is_ground() {
            return Err(non_ground());
        }
        for (role, t) in [("level", &m.level), ("classification", &m.class)] {
            let Term::Sym(name) = t else {
                return Err(MultiLogError::NotAdmissible {
                    detail: format!("update {role} `{t}` is not a symbolic level"),
                });
            };
            if self.lattice.label(name).is_none() {
                return Err(MultiLogError::NotAdmissible {
                    detail: format!("update {role} `{name}` is not a declared level"),
                });
            }
        }
        let atom = belief_atom(m, Mode::Fir.name(), self.level_split);
        let fact = atom.as_fact().ok_or_else(non_ground)?;
        Ok((atom.predicate, fact))
    }

    /// Solve a MultiLog goal against the reduced database; answers are in
    /// MultiLog terms, sorted, and directly comparable with
    /// [`crate::MultiLogEngine::solve`].
    ///
    /// # Errors
    ///
    /// [`MultiLogError::NotAdmissible`] on a shared reduction, which
    /// answers through [`ReducedEngine::goal_translator`] instead;
    /// [`MultiLogError::UnknownMode`] for a goal in a mode the database
    /// does not know (as in [`ReducedEngine::solve_demand`] and
    /// [`GoalTranslator::solve_on`]).
    pub fn solve(&self, goal: &Goal) -> Result<Vec<Answer>> {
        self.user()?;
        self.solver.solve_on(self.incremental.database(), goal)
    }

    /// Parse and solve a textual MultiLog goal.
    pub fn solve_text(&self, goal: &str) -> Result<Vec<Answer>> {
        self.solve(&crate::parser::parse_goal(goal)?)
    }

    /// Solve a MultiLog goal demand-driven: instead of reading the
    /// materialized fixpoint, evaluate a magic-sets plan seeded from the
    /// goal's constants (the predicate name, key, and the user's
    /// clearance level in the appended `dominate` guards all bind
    /// arguments after the τ encoding) over the base facts, computing
    /// only the demanded sub-fixpoint. Answers equal
    /// [`ReducedEngine::solve`]; the win is that for point queries only a
    /// fraction of the belief relations is computed — and no
    /// materialization is required at all (see
    /// [`ReducedEngine::with_options_deferred`]).
    ///
    /// The plan is prepared once per goal shape and reused for every
    /// goal of that shape; the base facts are read through a shared
    /// snapshot rebuilt once after each commit. A goal whose shape has a
    /// plan therefore does no work proportional to the program or the
    /// base, beyond what its demand reaches.
    pub fn solve_demand(&self, goal: &Goal) -> Result<Vec<Answer>> {
        Ok(self.solve_demand_with_stats(goal)?.0)
    }

    /// [`ReducedEngine::solve_demand`], also returning the evaluation
    /// counters of the goal-directed run — [`dl::EvalStats::demand`]
    /// records whether the magic rewrite applied and how much it
    /// materialized.
    pub fn solve_demand_with_stats(&self, goal: &Goal) -> Result<(Vec<Answer>, dl::EvalStats)> {
        self.modes.check_goal(goal)?;
        self.user()?;
        let shape = Shape::of(goal);
        let (mut body, ..) = self.solver.canonical(goal, &shape)?;
        self.by_mode(&mut body);
        let (key, params) = dl::magic::prepared_key(&body);
        let (plan, rules, edb, pruned_rules) = self.demand_plan(key, &body)?;
        // Guard trips convert through `From<DatalogError>`, surfacing the
        // same typed errors as a full materialization would.
        let (answers, mut stats) = match &plan {
            Some(plan) => self
                .guarded(dl::Engine::for_prepared(plan))
                .run_prepared(edb, &params)?,
            // No magic rewrite for this shape: evaluate the goal's cone
            // of the (pruned) rules over the base snapshot.
            None => self
                .guarded(dl::Engine::new(&rules)?)
                .run_cone(edb, &body)?,
        };
        if let Some(d) = stats.demand.as_mut() {
            d.pruned_rules = pruned_rules;
        }
        // Bindings iterate in variable-name order.
        let mut names: Vec<&String> = answers.variables.iter().collect();
        names.sort_unstable();
        let columns = columns(shape.vars.len(), &names);
        let rows = answers
            .answers
            .iter()
            .map(|b| b.values().copied().collect::<Vec<_>>());
        Ok((project(&shape.vars, &columns, rows), stats))
    }

    /// Parse and solve a textual MultiLog goal demand-driven.
    pub fn solve_text_demand(&self, goal: &str) -> Result<Vec<Answer>> {
        self.solve_demand(&crate::parser::parse_goal(goal)?)
    }

    /// A demand goal's canonical `body` reading each built-in mode's
    /// relation through [`mode_entry`]'s `bel_mode`, with the mode as its
    /// last column.
    fn by_mode(&self, body: &mut [dl::Literal]) {
        let reads = |m: &Mode| self.cone.relation(dl::SymId::intern(mode_relation(*m)));
        for literal in body {
            let dl::Literal::Pos(a) = literal else {
                continue;
            };
            if let Some(mode) = Mode::ALL.iter().find(|m| reads(m) == a.predicate) {
                a.predicate = dl::SymId::intern(BEL_MODE);
                a.terms.push(dl::Term::sym(mode.name()));
            }
        }
    }

    /// `engine` under this engine's guards.
    fn guarded<'p>(&self, engine: dl::Engine<'p>) -> dl::Engine<'p> {
        let mut engine = engine.with_fact_limit(self.fact_limit);
        if let Some(d) = self.deadline {
            engine = engine.with_deadline(d);
        }
        if let Some(c) = &self.cancel {
            engine = engine.with_cancel_token(c.clone());
        }
        engine
    }

    /// The cached plan for `body`'s `shape` (its `prepared_key`),
    /// prepared on first use, the flow-pruned rules it was prepared from,
    /// a clone of the base snapshot to run it over, and how many clauses
    /// flow pruning dropped from the rules.
    fn demand_plan(&self, shape: String, body: &[dl::Literal]) -> Result<DemandPlan> {
        let mut cache = self.demand.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = &mut *cache;
        let tainted = self.prune.as_ref().is_some_and(|p| p.tainted);
        if cache.tainted != tainted {
            cache.tainted = tainted;
            cache.rules = None;
            cache.plans.clear();
        }
        let (rules, pruned) = match &cache.rules {
            Some(rules) => rules.clone(),
            None => {
                let mut rules = self.incremental.rules().clone();
                for entry in mode_entry(&self.cone) {
                    rules.push(entry).map_err(MultiLogError::Datalog)?;
                }
                let (rules, pruned) = self.pruned_program(rules);
                cache.rules.insert((Arc::new(rules), pruned)).clone()
            }
        };
        let snapshot = cache.snapshot.get_or_insert_with(|| {
            let mut db = self.incremental.base_database();
            db.seal_indexes(&cache.sealed);
            db
        });
        if cache.plans.len() == MAX_PREPARED && !cache.plans.contains_key(&shape) {
            cache.plans.clear();
            cache.sealed.clear();
        }
        let plan = cache.plans.entry(shape).or_insert_with(|| {
            // Every relation a commit can write holds base facts, so a
            // plan prepared before its first fact still reads it.
            let mut base: HashSet<dl::SymId> =
                snapshot.predicates().map(dl::SymId::intern).collect();
            base.extend(update_targets(&self.lattice, self.level_split));
            let plan = dl::magic::prepare(&rules, &base, body, snapshot)?;
            snapshot.seal_indexes(plan.index_needs());
            cache.sealed.extend_from_slice(plan.index_needs());
            Some(Arc::new(plan))
        });
        Ok((plan.clone(), rules, snapshot.clone(), pruned))
    }

    /// Drop everything the flow analysis proves invisible at this
    /// engine's clearance from `program`: the per-level cautious
    /// machinery above the clearance, then every Σ/Π rule whose τ image
    /// matches a prunable source clause. Returns the (possibly) smaller
    /// program and how many clauses were dropped. A no-op (0 dropped)
    /// unless [`EngineOptions::flow_prune`] was set.
    fn pruned_program(&self, program: dl::Program) -> (dl::Program, usize) {
        let (Some(p), Ok(user)) = (self.prune.as_ref(), self.user()) else {
            return (program, 0);
        };
        let before = program.clauses().len();
        let mut out = program;
        if !p.machinery.is_empty() {
            out = out.without_predicates(&p.machinery);
        }
        let excluded: HashSet<dl::Clause> = p
            .rules
            .iter()
            .filter(|(mc, _)| p.report.rule_prunable(mc, user, !p.tainted))
            .map(|(_, t)| t.clone())
            .collect();
        if !excluded.is_empty() {
            out = out.without_clauses(&excluded);
        }
        let dropped = before - out.clauses().len();
        (out, dropped)
    }

    /// The flow analysis backing demand pruning, when
    /// [`EngineOptions::flow_prune`] was set.
    pub fn flow_report(&self) -> Option<&crate::flow::FlowReport> {
        self.prune.as_ref().map(|p| &p.report)
    }

    /// The lattice used by the reduction.
    pub fn lattice(&self) -> &Arc<SecurityLattice> {
        &self.lattice
    }

    /// A detached goal translator for clearance `user` and this engine's
    /// encoding, carrying the engine's guard configuration. Reader
    /// sessions pair it with a pinned [`dl::Snapshot`] to answer goals
    /// without touching (or blocking on) the engine itself.
    ///
    /// # Errors
    ///
    /// [`MultiLogError::NotAdmissible`] when this engine was not built
    /// for `user`.
    pub fn goal_translator(&self, user: &str) -> Result<GoalTranslator> {
        if !self.clearances.iter().any(|c| c == user) {
            return Err(MultiLogError::NotAdmissible {
                detail: format!("this reduction does not serve clearance `{user}`"),
            });
        }
        Ok(GoalTranslator {
            guards: dl::QueryGuards {
                deadline: self.deadline,
                fact_limit: if self.fact_limit == usize::MAX {
                    0
                } else {
                    self.fact_limit
                },
                cancel: self.cancel.clone(),
            },
            ..GoalTranslator::new(user, self.modes.clone(), Arc::clone(&self.cone))
        })
    }

    /// A copy-on-write clone of the current materialized database — an
    /// O(#relations) handle sharing all fact segments, suitable for
    /// publishing as a [`dl::GenerationStore`] generation.
    pub fn database_snapshot(&self) -> dl::Database {
        self.incremental.database().clone()
    }
}

/// The query-side half of the τ translation, detached from the engine.
///
/// A translator knows the clearance level it serves and the session's
/// query guards — the inputs needed to turn a MultiLog goal into a
/// reduced Datalog body (goals read the generic `rel`/`bel` predicates,
/// and the clearance's slice of every cone predicate: its clearance
/// column bound to the translator's clearance)
/// and answer it against *any* database produced by the matching
/// [`ReducedEngine`] (typically a pinned snapshot). It holds no database
/// itself, so readers using one never contend with writers.
///
/// Goals run prepared: the translator keeps one compiled
/// [`dl::PreparedQuery`] per goal shape — the goal with its constants
/// abstracted and its variables renamed in order of first occurrence —
/// and rebinds its constants per goal, so a goal of a known shape does
/// no τ translation, no plan compile and no scratch allocation, and its
/// rows become [`Answer`]s directly. The cache holds a fixed number of
/// shapes and clears when full; goals on one translator run one at a
/// time. A clone starts with an empty cache.
pub struct GoalTranslator {
    user: String,
    /// The database's belief modes; goals in any other are refused.
    modes: ModeSet,
    guards: dl::QueryGuards,
    /// The predicates goals read the clearance's slice of.
    cone: Arc<Cone>,
    prepared: Mutex<PreparedCache>,
}

/// The most goal shapes one [`GoalTranslator`] keeps prepared.
pub(crate) const MAX_PREPARED: usize = 64;

/// Prepared-query counters of one goal translator: a reader session's
/// ([`crate::ReaderSession::prepared_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreparedStats {
    /// Plans compiled: one per goal shape the cache did not hold.
    pub compiled: u64,
    /// Goals answered by a cached plan.
    pub hits: u64,
    /// Shapes cached now.
    pub cached: usize,
}

#[derive(Default)]
struct PreparedCache {
    shapes: HashMap<String, PreparedGoal>,
    stats: PreparedStats,
}

/// One goal shape, prepared: the query compiled from the τ body of the
/// first goal of the shape, where each of its parameters comes from,
/// and the row column of each goal variable.
struct PreparedGoal {
    query: dl::PreparedQuery,
    params: Vec<Param>,
    /// Per [`Shape`] variable, its column in `query`'s rows.
    columns: Vec<Option<usize>>,
}

/// The source of one parameter of a prepared goal's query.
#[derive(Clone, Copy)]
enum Param {
    /// The goal's `n`-th [`Shape`] constant.
    Goal(usize),
    /// A constant τ emits whatever the goal's constants, such as the
    /// clearance in the no-read-up guards.
    Fixed(dl::Const),
}

impl Clone for GoalTranslator {
    fn clone(&self) -> Self {
        GoalTranslator {
            guards: self.guards.clone(),
            ..GoalTranslator::new(&self.user, self.modes.clone(), Arc::clone(&self.cone))
        }
    }
}

impl std::fmt::Debug for GoalTranslator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoalTranslator")
            .field("user", &self.user)
            .field("guards", &self.guards)
            .field("prepared", &self.prepared_stats())
            .finish_non_exhaustive()
    }
}

impl GoalTranslator {
    /// An unguarded translator reading `cone`'s slices, with an empty
    /// cache.
    fn new(user: &str, modes: ModeSet, cone: Arc<Cone>) -> Self {
        GoalTranslator {
            user: user.to_owned(),
            modes,
            guards: dl::QueryGuards::default(),
            cone,
            prepared: Mutex::default(),
        }
    }

    /// The clearance level this translator serves.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// How many plans this translator compiled and reused.
    pub fn prepared_stats(&self) -> PreparedStats {
        let cache = self.prepared.lock().unwrap_or_else(PoisonError::into_inner);
        PreparedStats {
            cached: cache.shapes.len(),
            ..cache.stats
        }
    }

    /// Solve a MultiLog goal against `db` (a materialized reduction at
    /// this translator's clearance), under the session guards. Answers
    /// match [`ReducedEngine::solve`] on the same database.
    pub fn solve_on(&self, db: &dl::Database, goal: &Goal) -> Result<Vec<Answer>> {
        self.modes.check_goal(goal)?;
        let shape = Shape::of(goal);
        let mut cache = self.prepared.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = &mut *cache;
        let mut uncached;
        let called;
        let mut db = db;
        let prepared = match cache.shapes.get_mut(&shape.key) {
            Some(prepared) => {
                cache.stats.hits += 1;
                prepared
            }
            None => {
                cache.stats.compiled += 1;
                let (body, params, serves_shape) = self.canonical(goal, &shape)?;
                // An algorithm call no rule makes runs for this goal.
                called = dl::with_goal_calls(db, &body, &self.guards)?;
                db = called.as_ref().unwrap_or(db);
                let query =
                    dl::PreparedQuery::prepare(&body, db).map_err(MultiLogError::Datalog)?;
                let prepared = PreparedGoal {
                    columns: columns(shape.vars.len(), query.variables()),
                    params,
                    query,
                };
                if !serves_shape {
                    uncached = prepared;
                    &mut uncached
                } else {
                    if cache.shapes.len() == MAX_PREPARED {
                        cache.shapes.clear();
                    }
                    cache.shapes.entry(shape.key.clone()).or_insert(prepared)
                }
            }
        };
        let params: Vec<dl::Const> = prepared
            .params
            .iter()
            .map(|p| match *p {
                Param::Goal(n) => shape.consts[n],
                Param::Fixed(c) => c,
            })
            .collect();
        let rows = prepared
            .query
            .run(db, &params, &self.guards)
            .map_err(MultiLogError::Datalog)?;
        Ok(project(&shape.vars, &prepared.columns, rows))
    }

    /// Parse and solve a textual MultiLog goal against `db`.
    pub fn solve_text_on(&self, db: &dl::Database, goal: &str) -> Result<Vec<Answer>> {
        self.solve_on(db, &crate::parser::parse_goal(goal)?)
    }

    /// τ(λ(goal, u)) in the form every goal of its [`Shape`] shares: the
    /// τ body of the goal's [`generalize`]ation, whose `i`-th variable is
    /// `V{i}`, with each placeholder `?n` filled back with the goal's
    /// `n`-th constant. Goals read each mode's relation with the level as
    /// a column, whatever the rule encoding ([`belief_atom`]), guarded by
    /// the clearance. Also returns where each constant of the body, in
    /// [`dl::PreparedQuery::params_of`] order, comes from: the goal's
    /// `n`-th constant at a placeholder, a constant τ fixes elsewhere (the
    /// clearance, a user mode); and whether the body serves the whole
    /// shape. It does not when τ folds a goal constant into a predicate —
    /// an algorithm call's input — and then serves this goal only.
    fn canonical(
        &self,
        goal: &Goal,
        shape: &Shape<'_>,
    ) -> Result<(Vec<dl::Literal>, Vec<Param>, bool)> {
        let placeholder = |s: &str| s.strip_prefix('?')?.parse::<usize>().ok();
        let guard = dl::Term::sym(&self.user);
        let mut body = Vec::new();
        for atom in &generalize(goal) {
            translate_atom(atom, &|_| Some(guard.clone()), false, &mut body);
        }
        let mut serves = true;
        let user = dl::Term::sym(&self.user);
        for literal in &mut body {
            let (dl::Literal::Pos(a) | dl::Literal::Neg(a)) = literal else {
                continue;
            };
            if let Some((algo, input)) = dl::algo::parse_call(a.predicate.as_str()) {
                if let Some(n) = placeholder(input) {
                    serves = false;
                    let input = match shape.consts[n] {
                        dl::Const::Sym(s) => s.as_str().to_owned(),
                        dl::Const::Int(i) => i.to_string(),
                    };
                    a.predicate = dl::SymId::intern(&dl::algo::call_predicate(algo, &input));
                }
            }
            self.cone.slice(a, &user);
        }
        let params = dl::PreparedQuery::params_of(&body).map(|c| match c {
            dl::Const::Sym(s) => placeholder(s.as_str()).map_or(Param::Fixed(c), Param::Goal),
            dl::Const::Int(_) => Param::Fixed(c),
        });
        let params = params.collect();
        for literal in &mut body {
            if let dl::Literal::Pos(a) | dl::Literal::Neg(a) = literal {
                for t in &mut a.terms {
                    let filled = match t {
                        dl::Term::Const(dl::Const::Sym(s)) => placeholder(s.as_str()),
                        _ => None,
                    };
                    if let Some(n) = filled {
                        *t = dl::Term::Const(shape.consts[n]);
                    }
                }
            }
        }
        Ok((body, params, serves))
    }
}

/// A goal's shape: the goal with its constants abstracted and its
/// variables renamed in order of first occurrence. The constants are
/// its terms and the names τ copies into the body as constants, an
/// m-atom's predicate and attribute; a b-atom's mode names the belief
/// relation the goal reads, so it stays in the shape. At a fixed
/// clearance the shape fixes the shape of the τ body, and one prepared
/// query answers every goal of a shape. `key` renders the shape;
/// `consts` and `vars` list the goal's constants and variables in shape
/// order.
struct Shape<'g> {
    key: String,
    consts: Vec<dl::Const>,
    vars: Vec<&'g Arc<str>>,
}

impl<'g> Shape<'g> {
    fn of(goal: &'g Goal) -> Self {
        let mut shape = Shape {
            key: String::new(),
            consts: Vec::new(),
            vars: Vec::new(),
        };
        for atom in goal {
            match atom {
                Atom::M(m) => {
                    shape.key.push('M');
                    shape.matom(m);
                }
                Atom::B(m, mode) => {
                    shape.key.push('B');
                    shape.key.push_str(mode);
                    shape.key.push('(');
                    shape.matom(m);
                }
                Atom::P(p) => {
                    shape.key.push('P');
                    shape.key.push_str(&p.pred);
                    shape.key.push('(');
                    p.args.iter().for_each(|t| shape.term(t));
                }
                Atom::L(t) => {
                    shape.key.push('L');
                    shape.term(t);
                }
                Atom::H(l, h) | Atom::Leq(l, h) => {
                    shape.key.push(if matches!(atom, Atom::H(..)) {
                        'H'
                    } else {
                        'Q'
                    });
                    shape.term(l);
                    shape.term(h);
                }
            }
            shape.key.push(';');
        }
        shape
    }

    /// An m-atom's positions, in the order [`generalize`] numbers them.
    fn matom(&mut self, m: &'g MAtom) {
        self.term(&m.level);
        self.name(&m.pred);
        self.term(&m.key);
        self.name(&m.attr);
        self.term(&m.class);
        self.term(&m.value);
    }

    fn name(&mut self, name: &str) {
        self.key.push('?');
        self.consts.push(dl::Const::sym(name));
    }

    fn term(&mut self, t: &'g Term) {
        match t {
            Term::Var(v) => {
                let i = match self.vars.iter().position(|x| x == &v) {
                    Some(i) => i,
                    None => {
                        self.vars.push(v);
                        self.vars.len() - 1
                    }
                };
                let _ = write!(self.key, "{i},");
            }
            _ => {
                if let dl::Term::Const(c) = term(t) {
                    self.key.push('?');
                    self.consts.push(c);
                }
            }
        }
    }
}

/// `goal` with its `n`-th [`Shape`] constant replaced by the placeholder
/// symbol `?n` and its `i`-th variable renamed `V{i}`, numbered in shape
/// order.
fn generalize(goal: &Goal) -> Goal {
    #[derive(Default)]
    struct General {
        consts: usize,
        vars: Vec<Arc<str>>,
    }
    impl General {
        fn name(&mut self) -> Arc<str> {
            self.consts += 1;
            shared_name(&format!("?{}", self.consts - 1))
        }
        fn term(&mut self, t: &Term) -> Term {
            let Term::Var(v) = t else {
                return Term::Sym(self.name());
            };
            let i = self.vars.iter().position(|x| x == v).unwrap_or_else(|| {
                self.vars.push(Arc::clone(v));
                self.vars.len() - 1
            });
            Term::var(format!("V{i}"))
        }
        /// Field by field in [`Shape::matom`]'s order.
        fn matom(&mut self, m: &MAtom) -> MAtom {
            let level = self.term(&m.level);
            let pred = self.name();
            let key = self.term(&m.key);
            let attr = self.name();
            let class = self.term(&m.class);
            let value = self.term(&m.value);
            MAtom {
                level,
                pred,
                key,
                attr,
                class,
                value,
            }
        }
    }
    let mut g = General::default();
    goal.iter()
        .map(|atom| match atom {
            Atom::M(m) => Atom::M(g.matom(m)),
            Atom::B(m, mode) => Atom::B(g.matom(m), Arc::clone(mode)),
            Atom::P(p) => Atom::P(PAtom {
                pred: Arc::clone(&p.pred),
                args: p.args.iter().map(|t| g.term(t)).collect(),
            }),
            Atom::L(t) => Atom::L(g.term(t)),
            Atom::H(l, h) => {
                let l = g.term(l);
                Atom::H(l, g.term(h))
            }
            Atom::Leq(l, h) => {
                let l = g.term(l);
                Atom::Leq(l, g.term(h))
            }
        })
        .collect()
}

/// The row column of each of a goal's `vars` [`Shape`] variables, in a
/// row layout `names`: the `i`-th is named `V{i}` there, as in every
/// [`GoalTranslator::canonical`] body.
fn columns<S: AsRef<str>>(vars: usize, names: &[S]) -> Vec<Option<usize>> {
    let column = |i| names.iter().position(|n| n.as_ref() == format!("V{i}"));
    (0..vars).map(column).collect()
}

/// Answers from `rows`: each row's `columns` cells bound to the goal's
/// `vars`, sorted and deduplicated. A translation may add guard-only
/// variables; they have no column here and never leak into answers.
fn project<R: AsRef<[dl::Const]>>(
    vars: &[&Arc<str>],
    columns: &[Option<usize>],
    rows: impl Iterator<Item = R>,
) -> Vec<Answer> {
    let mut out: Vec<Answer> = rows
        .map(|row| {
            let row = row.as_ref();
            let mut a = Answer::with_capacity(vars.len());
            for (v, col) in vars.iter().zip(columns) {
                if let Some(c) = col {
                    a.insert(Arc::clone(v), const_to_term(&row[*c]));
                }
            }
            a
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// τ's base relation of served clearances: `clearance(u)` for each
/// clearance `u` the engine serves, read by every cone rule.
const CLEARANCE: &str = "clearance";

/// τ(Δ) ∪ A for every clearance at once, serving `clearances` (see
/// docs/SEMANTICS.md, "One fixpoint for every clearance").
///
/// One image per Λ, Σ and Π clause, in that order; then a
/// `clearance(u)` fact per served clearance and the [`Cone`]'s copy
/// rules; then the axiom set. [`clearance_free`] rules keep only the
/// guards [`head_bound`] gives them. Every other rule guards each body
/// label `t` with `dominate(t, U)` for the clearance variable `U`, and
/// with every clause reading what those rules derive it forms the cone,
/// whose predicates carry `U` as a trailing column ([`Cone::slice`]). A
/// cone clause joins `clearance(U)` unless a sliced body atom binds `U`
/// already. The clearance facts are left out when the cone is empty:
/// then nothing reads them. Also returns the index of the first axiom,
/// and the cone.
fn translate(
    db: &MultiLogDb,
    lattice: &SecurityLattice,
    level_split: bool,
    clearances: &[String],
) -> (Vec<dl::Clause>, usize, Cone) {
    let sources: Vec<&Clause> = db
        .lambda()
        .iter()
        .chain(db.sigma())
        .chain(db.pi())
        .collect();
    let u = clearance_variable(&sources);
    let mut images = Vec::with_capacity(sources.len());
    for c in &sources {
        let dependent = !clearance_free(c, lattice);
        let image = translate_clause(c, dependent.then_some(&u), lattice, level_split);
        images.push((image, dependent));
    }
    let reads = level_split.then(|| leveled_reads(&sources));
    images.extend(axioms(lattice, reads).into_iter().map(|a| (a, false)));
    let cone = Cone::close(&mut images, &update_targets(lattice, level_split));
    let mut copies = cone.copy_rules(&images);
    let clearance = |user: &String| dl::Atom::new(CLEARANCE, vec![dl::Term::sym(user)]);
    let mut clauses = Vec::with_capacity(images.len() + clearances.len() + copies.len());
    let mut axioms_at = 0;
    for (i, (mut clause, in_cone)) in images.into_iter().enumerate() {
        if i == sources.len() {
            if !cone.is_empty() {
                clauses.extend(clearances.iter().map(|c| dl::Clause::fact(clearance(c))));
            }
            clauses.append(&mut copies);
            axioms_at = clauses.len();
        }
        if in_cone {
            cone.slice_rule(&mut clause, &u);
        }
        clauses.push(clause);
    }
    (clauses, axioms_at, cone)
}

/// The variable τ names the clearance column with: `U`, or `UU`, `UUU`,
/// … when a source clause uses `U`.
fn clearance_variable(sources: &[&Clause]) -> dl::Term {
    let uses = |c: &&Clause, v: &str| {
        c.head.variables().contains(&v) || { c.body.iter().any(|a| a.variables().contains(&v)) }
    };
    let mut name = "U".to_owned();
    while sources.iter().any(|c| uses(c, &name)) {
        name.push('U');
    }
    dl::Term::var(name)
}

/// The clearance-dependent part of τ: the predicates derived by the
/// rules that depend on the clearance (docs/SEMANTICS.md), closed over
/// the τ program's dependency graph (a clause reading a cone predicate
/// derives one too). Each has one sliced relation, keyed by a trailing
/// clearance column; goals at clearance `u` read its `u` rows. Empty when
/// every rule is clearance-free.
#[derive(Debug, Default)]
pub(crate) struct Cone {
    /// Each cone predicate's sliced relation: the predicate itself, with
    /// one more column, or `clearance_<pred>` when it also has
    /// clearance-free derivations (facts, clearance-free rules, updates),
    /// which one copy rule then copies into every slice.
    slices: HashMap<dl::SymId, dl::SymId>,
}

impl Cone {
    /// The cone of `images` — each τ clause, flagged when it depends on
    /// the clearance — whose flags become whether the clause is in the
    /// cone. `updated` are the predicates commits write.
    fn close(images: &mut [(dl::Clause, bool)], updated: &[dl::SymId]) -> Cone {
        let mut preds: HashSet<dl::SymId> = images
            .iter()
            .filter(|i| i.1)
            .map(|i| i.0.head.predicate)
            .collect();
        let mut grew = true;
        while grew {
            grew = false;
            for (clause, in_cone) in images.iter_mut().filter(|i| !i.1) {
                let mut read = clause.body.iter().filter_map(dl::Literal::atom);
                if read.any(|a| preds.contains(&read_relation(a.predicate))) {
                    *in_cone = true;
                    preds.insert(clause.head.predicate);
                    grew = true;
                }
            }
        }
        let shared: HashSet<dl::SymId> = images
            .iter()
            .filter(|i| !i.1)
            .map(|i| i.0.head.predicate)
            .chain(updated.iter().copied())
            .collect();
        let slices = preds
            .into_iter()
            .map(|p| match shared.contains(&p) {
                true => (p, dl::SymId::intern(&format!("{CLEARANCE}_{p}"))),
                false => (p, p),
            })
            .collect();
        Cone { slices }
    }

    /// Whether every rule is clearance-free, so that one copy of the
    /// fixpoint serves every clearance.
    fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// The relation holding `pred`'s slices, or `pred` outside the cone.
    fn relation(&self, pred: dl::SymId) -> dl::SymId {
        self.slices.get(&pred).copied().unwrap_or(pred)
    }

    /// Slice `atom` at clearance `u` when it reads the cone: read the
    /// sliced relation (an `@algo(input)` call, the call over the sliced
    /// input) and append `u`. Returns whether it did.
    fn slice(&self, atom: &mut dl::Atom, u: &dl::Term) -> bool {
        let sliced = match dl::algo::parse_call(atom.predicate.as_str()) {
            Some((algo, input)) => self
                .slices
                .get(&dl::SymId::intern(input))
                .map(|s| dl::SymId::intern(&dl::algo::call_predicate(algo, s.as_str()))),
            None => self.slices.get(&atom.predicate).copied(),
        };
        let Some(sliced) = sliced else {
            return false;
        };
        atom.predicate = sliced;
        atom.terms.push(u.clone());
        true
    }

    /// Slice a cone clause over the clearance variable `u`, joining
    /// `clearance(u)` unless a sliced body atom binds `u`.
    fn slice_rule(&self, clause: &mut dl::Clause, u: &dl::Term) {
        self.slice(&mut clause.head, u);
        let mut bound = false;
        for literal in &mut clause.body {
            let positive = literal.is_positive();
            if let dl::Literal::Pos(a) | dl::Literal::Neg(a) = literal {
                bound |= self.slice(a, u) && positive;
            }
        }
        if !bound {
            let served = dl::Atom::new(CLEARANCE, vec![u.clone()]);
            clause.body.insert(0, dl::Literal::Pos(served));
        }
    }

    /// One rule per cone predicate `p` with a sliced relation of its own,
    /// copying its clearance-free facts into every slice, in name order:
    /// `clearance_p(X0, …, Xn, U) :- clearance(U), p(X0, …, Xn)`, at the
    /// arity `p` has in `images`.
    fn copy_rules(&self, images: &[(dl::Clause, bool)]) -> Vec<dl::Clause> {
        let mut copied: Vec<_> = self.slices.iter().filter(|(p, s)| p != s).collect();
        copied.sort_unstable_by_key(|(p, _)| p.as_str());
        let u = dl::Term::var("U");
        let copy = |(p, s): (&dl::SymId, &dl::SymId)| {
            let n = images
                .iter()
                .find(|i| i.0.head.predicate == *p)?
                .0
                .head
                .terms
                .len();
            let vars: Vec<dl::Term> = (0..n).map(|i| dl::Term::var(format!("X{i}"))).collect();
            let mut sliced = dl::Atom::new(s.as_str(), vars.clone());
            sliced.terms.push(u.clone());
            let served = dl::Atom::new(CLEARANCE, vec![u.clone()]);
            let body = [served, dl::Atom::new(p.as_str(), vars)].map(dl::Literal::Pos);
            Some(dl::Clause::new(sliced, body.into()))
        };
        copied.into_iter().filter_map(copy).collect()
    }
}

/// The relation a literal over `pred` reads: `pred`, or the input of an
/// `@algo(input)` call.
fn read_relation(pred: dl::SymId) -> dl::SymId {
    match dl::algo::parse_call(pred.as_str()) {
        Some((_, input)) => dl::SymId::intern(input),
        None => pred,
    }
}

/// Whether τ may emit `c` once for every clearance, without clearance
/// guards (the restriction lemma, docs/SEMANTICS.md): an m-headed clause
/// whose every body m-/b-atom level and class is provably dominated by
/// the head level ([`head_bound`]), or any clause without m-/b-atoms in
/// its body. A p-atom (or aggregate) head over an m-/b-atom has no level
/// that would hide it from lower clearances, and a write-down rule reads
/// above its head, so both depend on the clearance. The criterion reads
/// the rule only, never the data: commits may insert a cell whose class
/// sits above its level.
fn clearance_free(c: &Clause, lattice: &SecurityLattice) -> bool {
    let mut labels = c.body.iter().flat_map(|a| match a {
        Atom::M(m) | Atom::B(m, _) => vec![&m.level, &m.class],
        _ => Vec::new(),
    });
    match &c.head {
        Head::M(h) => labels.all(|t| head_bound(t, &h.level, lattice).is_some()),
        Head::P(_) | Head::L(_) | Head::H(..) => labels.next().is_none(),
    }
}

/// How a clearance-free rule guards body label `t` under head level
/// `head`, or `None` when `t` is not provably dominated by `head`. The
/// three conditions of the restriction lemma:
///
/// 1. `t` is the head's own level term — no guard;
/// 2. `t` and `head` are ground and `t ⪯ head` — no guard;
/// 3. `head` is the lattice's only maximal label — `t` keeps the guard
///    `dominate(t, head)` (`Some(Some(head))`). That guard is the same at
///    every clearance; it holds exactly when `t` is a declared label.
fn head_bound<'h>(t: &Term, head: &'h Term, lattice: &SecurityLattice) -> Option<Option<&'h str>> {
    if t == head {
        return Some(None);
    }
    let Term::Sym(h) = head else {
        return None;
    };
    let top = lattice.label(h)?;
    if let Term::Sym(l) = t {
        if lattice.label(l).is_some_and(|l| lattice.leq(l, top)) {
            return Some(None);
        }
    }
    (lattice.maximal() == [top]).then_some(Some(h))
}

/// The predicates [`ReducedEngine::apply_updates`] writes: `rel` or,
/// split per level, every `rel_l`.
fn update_targets(lattice: &SecurityLattice, level_split: bool) -> Vec<dl::SymId> {
    if level_split {
        lattice
            .names()
            .map(|l| dl::SymId::intern(&leveled("rel", l)))
            .collect()
    } else {
        vec![dl::SymId::intern("rel")]
    }
}

/// τ's clauses in Datalog surface syntax, one per line, with a comment
/// line before the axiom set.
fn render(clauses: &[dl::Clause], axioms_at: usize) -> String {
    let mut out = String::new();
    for (i, c) in clauses.iter().enumerate() {
        if i == axioms_at {
            out.push_str("% axiom set A (Figure 12, safe specialization)\n");
        }
        let _ = writeln!(out, "{c}");
    }
    out
}

/// τ of one Λ/Σ/Π clause. Atoms read and write each mode's one relation
/// ([`belief_atom`]), per level under `level_split`; the no-read-up
/// guards come from
/// [`translate_atom`]: `dominate(t, u)` on every body label `t` for the
/// clearance variable `u` of a rule that depends on the clearance, and
/// only what [`head_bound`] keeps for a [`clearance_free`] one (`u` is
/// `None`).
fn translate_clause(
    c: &Clause,
    u: Option<&dl::Term>,
    lattice: &SecurityLattice,
    level_split: bool,
) -> dl::Clause {
    let head = match &c.head {
        Head::M(m) => belief_atom(m, Mode::Fir.name(), level_split),
        Head::P(p) => patom(p),
        Head::L(t) => dl::Atom::new("level", vec![term(t)]),
        Head::H(l, h) => dl::Atom::new("order", vec![term(l), term(h)]),
    };
    let head_level = match &c.head {
        Head::M(m) => Some(&m.level),
        _ => None,
    };
    let bound = |t: &Term| match u {
        Some(u) => Some(u.clone()),
        None => head_level
            .and_then(|h| head_bound(t, h, lattice).flatten())
            .map(dl::Term::sym),
    };
    let mut body = Vec::new();
    for a in &c.body {
        translate_atom(a, &bound, level_split, &mut body);
    }
    let clause = dl::Clause::new(head, body);
    // Aggregate heads keep their spec; the back-end folds per stratum
    // over distinct witness bindings, so polyinstantiated m-atoms at
    // different levels count separately (bag semantics per
    // Bertossi–Gottlob).
    match (&c.head, c.agg) {
        (Head::P(_), Some(agg)) => clause.with_aggregate(agg),
        _ => clause,
    }
}

/// τ(λ(B, u)): translate one atom, adding the no-read-up guards for m-
/// and b-atoms: `dominate(t, b)` for each label `t` that `bound` gives an
/// upper bound `b`. An m-atom reads what `<< fir` reads; `split` is
/// whether the atom sits in a rule body of the per-level encoding.
fn translate_atom(
    atom: &Atom,
    bound: &dyn Fn(&Term) -> Option<dl::Term>,
    split: bool,
    out: &mut Vec<dl::Literal>,
) {
    let (translated, guarded) = match atom {
        Atom::M(m) => (belief_atom(m, Mode::Fir.name(), split), Some(m)),
        Atom::B(m, mode) => (belief_atom(m, mode, split), Some(m)),
        Atom::P(p) => (patom(p), None),
        Atom::L(t) => (dl::Atom::new("level", vec![term(t)]), None),
        Atom::H(l, h) => (dl::Atom::new("order", vec![term(l), term(h)]), None),
        Atom::Leq(l, h) => (dl::Atom::new("dominate", vec![term(l), term(h)]), None),
    };
    out.push(dl::Literal::Pos(translated));
    if let Some(m) = guarded {
        for t in [&m.level, &m.class] {
            if let Some(b) = bound(t) {
                let guard = dl::Atom::new("dominate", vec![term(t), b]);
                out.push(dl::Literal::Pos(guard));
            }
        }
    }
}

/// `m`'s cell in the one relation holding `mode`'s beliefs: `rel` for
/// `fir`, `bel_opt` for `opt` and `bel_cau` for `cau`, each with the
/// level as its last column, or `bel/7` for a user mode. With `split` (a
/// rule body or head of the per-level encoding), a ground level `h`
/// names its own relation instead, `rel_h`, `bel_opt_h` or `bel_cau_h`,
/// without the level column.
fn belief_atom(m: &MAtom, mode: &str, split: bool) -> dl::Atom {
    let mut terms = cell(m);
    let Some(mode) = Mode::parse(mode) else {
        terms.extend([term(&m.level), dl::Term::sym(mode)]);
        return dl::Atom::new(crate::modes::BEL, terms);
    };
    let pred = mode_relation(mode);
    match &m.level {
        Term::Sym(level) if split => dl::Atom::new(leveled(pred, level), terms),
        level => {
            terms.push(term(level));
            dl::Atom::new(pred, terms)
        }
    }
}

/// The relation holding a built-in mode's beliefs, with the belief
/// level as its last column (`<relation>_h` per level `h`, without it).
fn mode_relation(mode: Mode) -> &'static str {
    match mode {
        Mode::Fir => "rel",
        Mode::Opt => "bel_opt",
        Mode::Cau => "bel_cau",
    }
}

/// The demand program's entry into the built-in modes' relations.
const BEL_MODE: &str = "bel_mode";

/// `bel_mode(X0, …, Xn, m) :- R(X0, …, Xn)` for each built-in mode `m`,
/// where `R` is the relation a goal in `m` reads, or the cone's slice of
/// it. Only demand goals read it ([`ReducedEngine::by_mode`]): magic sets
/// make the mode constant a parameter, so goals that differ only in mode
/// share one prepared plan, while each run seeds its own mode's relation
/// alone. Nothing materializes it.
fn mode_entry(cone: &Cone) -> impl Iterator<Item = dl::Clause> + '_ {
    Mode::ALL.into_iter().map(|mode| {
        let read = dl::SymId::intern(mode_relation(mode));
        let n = 6 + usize::from(cone.slices.contains_key(&read));
        let vars: Vec<dl::Term> = (0..n).map(|i| dl::Term::var(format!("X{i}"))).collect();
        let body = dl::Atom::new(cone.relation(read).as_str(), vars.clone());
        let mut head = vars;
        head.push(dl::Term::sym(mode.name()));
        dl::Clause::new(dl::Atom::new(BEL_MODE, head), vec![dl::Literal::Pos(body)])
    })
}

/// The columns `p, k, a, v, c` of an m-atom's τ image.
fn cell(m: &MAtom) -> Vec<dl::Term> {
    vec![
        dl::Term::sym(&m.pred),
        term(&m.key),
        dl::Term::sym(&m.attr),
        term(&m.value),
        term(&m.class),
    ]
}

/// The per-level predicate `<pred>_<level>` (`rel_u`, `beaten_s`, …).
fn leveled(pred: &str, level: &str) -> String {
    format!("{pred}_{level}")
}

/// τ of a p-atom: itself. An algorithm call `@bfs(edge, X, Y)` becomes
/// the Datalog layer's synthetic predicate `@bfs(edge)` over `X, Y`.
fn patom(p: &PAtom) -> dl::Atom {
    let mut terms = p.args.iter().map(term);
    if let (Some(algo), Some(Term::Sym(input))) = (p.pred.strip_prefix('@'), p.args.first()) {
        terms.next();
        return dl::Atom::new(dl::algo::call_predicate(algo, input), terms.collect());
    }
    dl::Atom::new(&p.pred, terms.collect())
}

/// A MultiLog term as a Datalog term: `⊥` becomes the symbol `null`.
fn term(t: &Term) -> dl::Term {
    match t {
        Term::Var(v) => dl::Term::Var(Arc::clone(v)),
        Term::Sym(s) => dl::Term::sym(s),
        Term::Int(i) => dl::Term::int(*i),
        Term::Null => dl::Term::sym("null"),
    }
}

/// The levels whose own belief relations the per-level encoding's rule
/// bodies read: each ground level of a body `<< opt` or `<< cau` atom,
/// and whether a `<< cau` atom reads it. (A `<< fir` atom reads `rel_h`,
/// which always exists.)
fn leveled_reads<'c>(sources: &[&'c Clause]) -> HashMap<&'c str, bool> {
    let mut reads = HashMap::new();
    for atom in sources.iter().flat_map(|c| &c.body) {
        if let Atom::B(m, mode) = atom {
            if let (Term::Sym(level), Some(read @ (Mode::Opt | Mode::Cau))) =
                (&m.level, Mode::parse(mode))
            {
                *reads.entry(level.as_ref()).or_default() |= read == Mode::Cau;
            }
        }
    }
    reads
}

/// The axiom set A (Figure 12, safe specialization): `dominate` and
/// each built-in mode's one relation over `rel`. `fir` is `rel` itself;
/// `bel_opt` and the cautious `bel_cau` keep the belief level as a
/// column. The per-level encoding (`reads`, [`leveled_reads`]) adds
/// `rel` as the union of the `rel_l`, and for each level `h` a rule body
/// reads its own `bel_opt_h` over the statically known order, with the
/// cautious `beaten_h`/`bel_cau_h` over it when a `<< cau` atom reads
/// `h`.
fn axioms(lattice: &SecurityLattice, reads: Option<HashMap<&str, bool>>) -> Vec<dl::Clause> {
    /// `pred(V1, …, Vn, c1, …, cm)`: variables, then constants.
    fn atom(pred: &str, vars: &[&str], consts: &[&str]) -> dl::Atom {
        let terms = vars.iter().map(dl::Term::var);
        dl::Atom::new(
            pred,
            terms.chain(consts.iter().map(dl::Term::sym)).collect(),
        )
    }
    fn pos(pred: &str, vars: &[&str]) -> dl::Literal {
        dl::Literal::Pos(atom(pred, vars, &[]))
    }
    fn rule(head: dl::Atom, body: Vec<dl::Literal>) -> dl::Clause {
        dl::Clause::new(head, body)
    }
    const CELL: [&str; 5] = ["P", "K", "A", "V", "C"];
    // A classification is `beaten` when another optimistically believed
    // one strictly dominates it; the cautious beliefs are the optimistic,
    // unbeaten ones — β (Definition 3.1). `h` is the belief level
    // variable (none per level).
    let cautious = |opt: &str, beaten: &str, believed: &str, h: &[&str]| {
        let with_h = |vars: &[&'static str]| [vars, h].concat();
        let beaten = atom(beaten, &with_h(&["P", "K", "A", "C"]), &[]);
        let differ = dl::Literal::Cmp {
            op: dl::CmpOp::Ne,
            lhs: dl::Term::var("C"),
            rhs: dl::Term::var("C2"),
        };
        let rival = pos(opt, &with_h(&["P", "K", "A", "V2", "C2"]));
        let seen = pos(opt, &with_h(&CELL));
        [
            rule(
                beaten.clone(),
                vec![seen.clone(), rival, pos("dominate", &["C", "C2"]), differ],
            ),
            rule(
                atom(believed, &with_h(&CELL), &[]),
                vec![seen, dl::Literal::Neg(beaten)],
            ),
        ]
    };
    let order = pos("order", &["X", "Y"]);
    let step = vec![pos("order", &["X", "Z"]), pos("dominate", &["Z", "Y"])];
    let cell_h = [&CELL[..], &["H"]].concat();
    let cell_l = [&CELL[..], &["L"]].concat();
    let dominated = vec![pos("rel", &cell_l), pos("dominate", &["L", "H"])];
    let mut out = vec![
        rule(atom("dominate", &["X", "Y"], &[]), vec![order]),
        rule(
            atom("dominate", &["X", "X"], &[]),
            vec![pos("level", &["X"])],
        ),
        rule(atom("dominate", &["X", "Y"], &[]), step),
        rule(atom("bel_opt", &cell_h, &[]), dominated),
    ];
    out.extend(cautious("bel_opt", "beaten", "bel_cau", &["H"]));
    let Some(reads) = reads else {
        return out;
    };
    for level in lattice.names() {
        let split = pos(&leveled("rel", level), &CELL);
        out.push(rule(atom("rel", &CELL, &[level]), vec![split]));
    }
    for h in lattice.labels() {
        let hn = lattice.name(h);
        let Some(&cau) = reads.get(hn) else { continue };
        let opt = leveled("bel_opt", hn);
        for l in lattice.down_set(h) {
            let below = pos(&leveled("rel", lattice.name(l)), &CELL);
            out.push(rule(atom(&opt, &CELL, &[]), vec![below]));
        }
        if cau {
            let (beaten, believed) = (leveled("beaten", hn), leveled("bel_cau", hn));
            out.extend(cautious(&opt, &beaten, &believed, &[]));
        }
    }
    out
}

fn const_to_term(c: &dl::Const) -> Term {
    match c {
        dl::Const::Sym(s) if s.as_ref() == "null" => Term::Null,
        dl::Const::Sym(s) => Term::sym(s.as_ref()),
        dl::Const::Int(i) => Term::Int(*i),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parser::parse_database;
    use crate::MultiLogEngine;
    use std::collections::BTreeSet;

    const D1: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[p(k : a -u-> v)].
        c[p(k : a -c-> t)] <- q(j).
        s[p(k : a -u-> v)] <- c[p(k : a -c-> t)] << cau.
        q(j).
    "#;

    #[test]
    fn d1_reduces_and_evaluates() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::new(&db, "s").unwrap();
        // The three rel facts (split per level, unioned into rel/6).
        assert_eq!(red.database().relation("rel").unwrap().len(), 3);
        assert!(red.program_text().contains("rel_u(p, k, a, v, u)."));
        assert!(red.program_text().contains("bel_cau_c"));
    }

    #[test]
    fn figure11_query_through_reduction() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::new(&db, "c").unwrap();
        let ans = red.solve_text("c[p(k : a -u-> v)] << opt").unwrap();
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn reduction_agrees_with_operational_on_d1() {
        let db = parse_database(D1).unwrap();
        for user in ["u", "c", "s"] {
            let op = MultiLogEngine::new(&db, user).unwrap();
            let red = ReducedEngine::new(&db, user).unwrap();
            for goal in [
                "L[p(k : a -C-> V)]",
                "L[p(k : a -C-> V)] << fir",
                "L[p(k : a -C-> V)] << opt",
                "L[p(k : a -C-> V)] << cau",
                "q(X)",
                "u leq L",
            ] {
                let a = op.solve_text(goal).unwrap();
                let b = red.solve_text(goal).unwrap();
                assert_eq!(a, b, "goal `{goal}` at user {user}");
            }
        }
    }

    #[test]
    fn demand_answers_match_materialized_on_d1() {
        let db = parse_database(D1).unwrap();
        for user in ["u", "c", "s"] {
            let red = ReducedEngine::new(&db, user).unwrap();
            for goal in [
                "L[p(k : a -C-> V)]",
                "s[p(k : a -C-> V)] << fir",
                "s[p(k : a -C-> V)] << opt",
                "c[p(k : a -C-> V)] << cau",
                "q(X)",
                "u leq L",
            ] {
                assert_eq!(
                    red.solve_text(goal).unwrap(),
                    red.solve_text_demand(goal).unwrap(),
                    "goal `{goal}` at user {user}"
                );
            }
        }
    }

    #[test]
    fn demand_stats_report_magic_for_point_queries() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::new(&db, "s").unwrap();
        let goal = crate::parser::parse_goal("s[p(k : a -C-> V)] << opt").unwrap();
        let (answers, stats) = red.solve_demand_with_stats(&goal).unwrap();
        assert!(!answers.is_empty());
        let demand = stats.demand.expect("demand stats recorded");
        // τ appends `dominate(level, user)` guards, so every reduced goal
        // has bound arguments and the magic rewrite engages.
        assert_eq!(demand.strategy, "magic");
        assert!(demand.adorned_predicates >= 1);
    }

    #[test]
    fn deferred_engine_answers_point_queries_without_materializing() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::with_options_deferred(&db, "s", EngineOptions::default()).unwrap();
        assert_eq!(
            red.database().fact_count(),
            0,
            "deferred engines start unmaterialized"
        );
        let ans = red.solve_text_demand("s[p(k : a -C-> V)] << opt").unwrap();
        let full = ReducedEngine::new(&db, "s").unwrap();
        assert_eq!(ans, full.solve_text("s[p(k : a -C-> V)] << opt").unwrap());
        // The deferred engine still never materialized anything.
        assert_eq!(red.database().fact_count(), 0);
    }

    /// A level-skewed database: everything interesting lives at `s`,
    /// so a `u`-cleared demand run should be able to drop most rules.
    const SKEWED: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[low(k : a -u-> v1)].
        s[hi(k : a -s-> w1)].
        s[hi2(k : a -s-> V)] <- s[hi(k : a -s-> V)].
        L[mix(K : b -C-> V)] <- L[hi(K : a -C-> V)].
        u[low2(K : a -C-> V)] <- u[low(K : a -C-> V)].
    "#;

    fn prune_options() -> EngineOptions {
        EngineOptions {
            flow_prune: true,
            ..EngineOptions::default()
        }
    }

    #[test]
    fn flow_pruned_demand_answers_match_unpruned() {
        for src in [D1, SKEWED] {
            let db = parse_database(src).unwrap();
            for user in ["u", "c", "s"] {
                let plain = ReducedEngine::new(&db, user).unwrap();
                let pruned = ReducedEngine::with_options(&db, user, prune_options()).unwrap();
                for goal in [
                    "L[p(k : a -C-> V)]",
                    "L[p(k : a -C-> V)] << cau",
                    "L[hi2(k : a -C-> V)]",
                    "L[mix(k : b -C-> V)]",
                    "L[low2(k : a -C-> V)] << opt",
                    "q(X)",
                ] {
                    assert_eq!(
                        plain.solve_text_demand(goal).unwrap(),
                        pruned.solve_text_demand(goal).unwrap(),
                        "goal `{goal}` at user {user}"
                    );
                }
            }
        }
    }

    #[test]
    fn flow_pruning_shrinks_the_demand_program_at_low_clearance() {
        let db = parse_database(SKEWED).unwrap();
        let pruned = ReducedEngine::with_options(&db, "u", prune_options()).unwrap();
        let goal = crate::parser::parse_goal("u[low2(k : a -C-> V)]").unwrap();
        let (answers, stats) = pruned.solve_demand_with_stats(&goal).unwrap();
        assert_eq!(answers.len(), 1);
        let demand = stats.demand.expect("demand stats recorded");
        // The `s`-headed rule and the hi-consuming generic rule are
        // both statically invisible at `u`.
        assert!(demand.pruned_rules >= 2, "pruned {}", demand.pruned_rules);
        // At the top clearance nothing is prunable in SKEWED.
        let top = ReducedEngine::with_options(&db, "s", prune_options()).unwrap();
        let (_, stats) = top.solve_demand_with_stats(&goal).unwrap();
        assert_eq!(stats.demand.unwrap().pruned_rules, 0);
        // Without the option the count stays 0 even at `u`.
        let plain = ReducedEngine::new(&db, "u").unwrap();
        let (_, stats) = plain.solve_demand_with_stats(&goal).unwrap();
        assert_eq!(stats.demand.unwrap().pruned_rules, 0);
    }

    #[test]
    fn flow_pruning_drops_cau_machinery_above_clearance() {
        // D1 consults `<< cau`, so the reduction splits per level and
        // emits visible_/beaten_/bel_cau_ for every level; at `u` the
        // `c` and `s` machinery is statically unreadable.
        let db = parse_database(D1).unwrap();
        let pruned = ReducedEngine::with_options(&db, "u", prune_options()).unwrap();
        let goal = crate::parser::parse_goal("L[p(k : a -C-> V)] << cau").unwrap();
        let (answers, stats) = pruned.solve_demand_with_stats(&goal).unwrap();
        assert!(stats.demand.unwrap().pruned_rules > 0);
        let plain = ReducedEngine::new(&db, "u").unwrap();
        assert_eq!(answers, plain.solve_demand(&goal).unwrap());
    }

    #[test]
    fn updates_disable_bounds_pruning_but_keep_answers_sound() {
        let src = r#"
            level(u). level(s). order(u, s).
            s[hi(k : a -s-> w)].
            L[q(K : b -C-> V)] <- L[hi(K : a -C-> V)].
        "#;
        let db = parse_database(src).unwrap();
        let mut pruned = ReducedEngine::with_options(&db, "u", prune_options()).unwrap();
        let goal = crate::parser::parse_goal("u[q(k : b -C-> V)]").unwrap();
        // Statically, `hi` only achieves level s: the rule is pruned at
        // clearance u and the (correct) answer is empty.
        let (answers, stats) = pruned.solve_demand_with_stats(&goal).unwrap();
        assert!(answers.is_empty());
        assert!(stats.demand.unwrap().pruned_rules > 0);
        // An update widens `hi` down to u — the static bound no longer
        // covers the data, so bounds-based pruning must switch off and
        // the new derivation must appear.
        let atom = match crate::parser::parse_goal("u[hi(k : a -u-> fresh)]")
            .unwrap()
            .remove(0)
        {
            Atom::M(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        pruned
            .apply_updates(&[EdbUpdate::Assert(atom.clone())])
            .unwrap();
        let (answers, stats) = pruned.solve_demand_with_stats(&goal).unwrap();
        assert_eq!(answers.len(), 1, "update-derived answer must survive");
        assert_eq!(stats.demand.unwrap().pruned_rules, 0);
        // Cross-check against an unpruned engine fed the same update.
        let mut plain = ReducedEngine::new(&db, "u").unwrap();
        plain.apply_updates(&[EdbUpdate::Assert(atom)]).unwrap();
        assert_eq!(
            pruned.solve_demand(&goal).unwrap(),
            plain.solve_demand(&goal).unwrap()
        );
    }

    #[test]
    fn algo_call_answers_through_reduction() {
        // Pure-Π database (Prop 6.1 degeneration) calling the native
        // reachability operator.
        let db =
            parse_database("edge(a, b). edge(b, c). edge(c, d). reach(X, Y) <- @bfs(edge, X, Y).")
                .unwrap();
        let red = ReducedEngine::new(&db, "system").unwrap();
        assert_eq!(red.solve_text("reach(a, Y)").unwrap().len(), 3);
        assert_eq!(red.solve_text("reach(X, Y)").unwrap().len(), 6);
        assert_eq!(
            red.solve_text_demand("reach(a, Y)").unwrap(),
            red.solve_text("reach(a, Y)").unwrap()
        );
    }

    /// The `level_dashboard` shape in miniature: per-clearance counts of
    /// optimistically believed cells, aggregated directly over the
    /// b-atom so polyinstantiated cells count once per classification.
    const DASHBOARD: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[emp(e1 : sal -u-> v1)].
        c[emp(e1 : sal -c-> v2)].
        s[emp(e2 : sal -s-> v3)].
        total(H, count(K)) <- H[emp(K : sal -C-> V)] << opt, level(H).
    "#;

    #[test]
    fn aggregate_dashboard_counts_polyinstantiated_witnesses_per_level() {
        let db = parse_database(DASHBOARD).unwrap();
        let red = ReducedEngine::new(&db, "s").unwrap();
        let ans = red.solve_text("total(H, N)").unwrap();
        let by_level: std::collections::BTreeMap<String, Term> = ans
            .iter()
            .map(|a| (a["H"].to_string(), a["N"].clone()))
            .collect();
        // u sees e1's u-cell; c additionally the polyinstantiated c-cell
        // (distinct witness, same key); s also e2's cell.
        assert_eq!(by_level["u"], Term::Int(1));
        assert_eq!(by_level["c"], Term::Int(2));
        assert_eq!(by_level["s"], Term::Int(3));
    }

    #[test]
    fn aggregate_goals_answered_demand_driven_and_after_updates() {
        let db = parse_database(DASHBOARD).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        assert_eq!(
            red.solve_text_demand("total(s, N)").unwrap(),
            red.solve_text("total(s, N)").unwrap()
        );
        // An update re-derives the aggregate (the back-end recomputes
        // the aggregate's stratum, since no per-fact delta exists for
        // folds).
        red.apply_updates(&[EdbUpdate::Assert(goal_matom("u[emp(e3 : sal -u-> v4)]"))])
            .unwrap();
        let ans = red.solve_text("total(u, N)").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0]["N"], Term::Int(2));
    }

    #[test]
    fn aggregate_clearance_guards_limit_the_dashboard() {
        // At clearance u the c- and s-level cells are never visible, so
        // only the u row survives the no-read-up guards.
        let db = parse_database(DASHBOARD).unwrap();
        let red = ReducedEngine::new(&db, "u").unwrap();
        let ans = red.solve_text("total(H, N)").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0]["H"], Term::sym("u"));
        assert_eq!(ans[0]["N"], Term::Int(1));
    }

    #[test]
    fn paper_axioms_listing_is_complete() {
        let text = paper_axioms();
        for a in [
            "a1:",
            "a5:",
            "a9:",
            "dominate",
            "bel(P, K, A, V, C, H, cau)",
        ] {
            assert!(text.contains(a));
        }
    }

    #[test]
    fn guards_enforce_no_read_up() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::new(&db, "u").unwrap();
        assert!(red.solve_text("c[p(k : a -c-> t)]").unwrap().is_empty());
        assert_eq!(red.solve_text("u[p(k : a -u-> v)]").unwrap().len(), 1);
        // A cell at a visible level with a classification above the
        // clearance stays hidden: the guard on the class.
        let db = parse_database("level(u). level(c). order(u, c). u[p(k : b -c-> w)].").unwrap();
        for (user, seen) in [("u", 0), ("c", 1)] {
            let red = ReducedEngine::new(&db, user).unwrap();
            for goal in ["u[p(k : b -C-> V)]", "u[p(k : b -C-> V)] << opt"] {
                assert_eq!(
                    red.solve_text(goal).unwrap().len(),
                    seen,
                    "{goal} at {user}"
                );
            }
        }
    }

    #[test]
    fn datalog_degeneration_prop61() {
        // Prop 6.1: a pure Datalog database reduces to itself (modulo the
        // inert axiom set) and yields classical answers.
        let db = parse_database("q(a). q(b). r(X) <- q(X). p(X, Y) <- q(X), q(Y).").unwrap();
        let red = ReducedEngine::new(&db, "system").unwrap();
        assert_eq!(red.solve_text("r(X)").unwrap().len(), 2);
        assert_eq!(red.solve_text("p(X, Y)").unwrap().len(), 4);
        let op = MultiLogEngine::new(&db, "system").unwrap();
        assert_eq!(
            op.solve_text("p(X, Y)").unwrap(),
            red.solve_text("p(X, Y)").unwrap()
        );
    }

    #[test]
    fn monotone_program_uses_generic_axioms() {
        let src = r#"
            level(u). level(s). order(u, s).
            u[p(k : a -u-> v)].
            s[q(k : b -s-> w)] <- u[p(k : a -u-> v)] << opt.
        "#;
        let db = parse_database(src).unwrap();
        let red = ReducedEngine::new(&db, "s").unwrap();
        assert!(
            !red.program_text().contains("rel_u"),
            "no level split needed"
        );
        assert_eq!(red.solve_text("s[q(k : b -s-> w)]").unwrap().len(), 1);
    }

    #[test]
    fn unknown_user_level_rejected() {
        let db = parse_database("level(u). u[p(k : a -u-> v)].").unwrap();
        assert!(ReducedEngine::new(&db, "zz").is_err());
    }

    fn goal_matom(text: &str) -> MAtom {
        match crate::parser::parse_goal(text).unwrap().remove(0) {
            Atom::M(m) => m,
            other => panic!("not an m-atom: {other}"),
        }
    }

    #[test]
    fn updates_maintain_belief_relations_incrementally() {
        let db = parse_database(D1).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        let stats = red
            .apply_updates(&[EdbUpdate::Assert(goal_matom("u[p(k2 : a -u-> w)]"))])
            .unwrap();
        assert_eq!(stats.edb_inserted, 1);
        assert!(stats.derived_added > 0, "belief relations were maintained");
        assert_eq!(
            red.solve_text("s[p(k2 : a -u-> w)] << opt").unwrap().len(),
            1
        );
        red.apply_updates(&[EdbUpdate::Retract(goal_matom("u[p(k2 : a -u-> w)]"))])
            .unwrap();
        assert!(red
            .solve_text("s[p(k2 : a -u-> w)] << opt")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn updates_agree_with_full_rebuild() {
        let db = parse_database(D1).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        red.apply_updates(&[
            EdbUpdate::Assert(goal_matom("u[p(k2 : a -u-> w)]")),
            EdbUpdate::Retract(goal_matom("u[p(k : a -u-> v)]")),
        ])
        .unwrap();
        let src = D1.replace("u[p(k : a -u-> v)].", "u[p(k2 : a -u-> w)].");
        let fresh = ReducedEngine::new(&parse_database(&src).unwrap(), "s").unwrap();
        for goal in [
            "L[p(K : a -C-> V)]",
            "L[p(K : a -C-> V)] << fir",
            "L[p(K : a -C-> V)] << opt",
            "L[p(K : a -C-> V)] << cau",
        ] {
            assert_eq!(
                red.solve_text(goal).unwrap(),
                fresh.solve_text(goal).unwrap(),
                "goal `{goal}`"
            );
        }
    }

    #[test]
    fn retracting_a_derived_cell_is_a_no_op() {
        let db = parse_database(D1).unwrap();
        let mut red = ReducedEngine::new(&db, "c").unwrap();
        // The c-level cell is derived by r7's body, not asserted: it
        // cannot be deleted out from under its justification.
        let stats = red
            .apply_updates(&[EdbUpdate::Retract(goal_matom("c[p(k : a -c-> t)]"))])
            .unwrap();
        assert_eq!(stats.edb_retracted, 0);
        assert_eq!(red.solve_text("c[p(k : a -c-> t)]").unwrap().len(), 1);
    }

    #[test]
    fn bad_updates_are_rejected_without_poisoning() {
        let db = parse_database(D1).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        let e = red.apply_updates(&[EdbUpdate::Assert(goal_matom("u[p(K : a -u-> w)]"))]);
        assert!(matches!(e, Err(MultiLogError::NonGroundUpdate { .. })));
        let e = red.apply_updates(&[EdbUpdate::Assert(goal_matom("zz[p(k : a -u-> w)]"))]);
        assert!(matches!(e, Err(MultiLogError::NotAdmissible { .. })));
        assert_eq!(red.solve_text("u[p(k : a -u-> v)]").unwrap().len(), 1);
        // Not poisoned: a valid batch still commits.
        red.apply_updates(&[EdbUpdate::Assert(goal_matom("u[p(k2 : a -u-> w)]"))])
            .unwrap();
    }

    #[test]
    fn updates_work_without_level_split() {
        let src = r#"
            level(u). level(s). order(u, s).
            u[p(k : a -u-> v)].
        "#;
        let db = parse_database(src).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        red.apply_updates(&[EdbUpdate::Assert(goal_matom("s[p(k : a -s-> w)]"))])
            .unwrap();
        assert_eq!(red.solve_text("L[p(k : a -C-> V)]").unwrap().len(), 2);
        red.apply_updates(&[EdbUpdate::Retract(goal_matom("u[p(k : a -u-> v)]"))])
            .unwrap();
        assert_eq!(red.solve_text("L[p(k : a -C-> V)]").unwrap().len(), 1);
    }

    #[test]
    fn goal_translator_answers_from_pinned_snapshots() {
        let db = parse_database(D1).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        let translator = red.goal_translator("s").unwrap();
        let pinned = red.database_snapshot();
        let goal = "L[p(K : a -C-> V)] << opt";
        // On the live database the translator agrees with solve().
        assert_eq!(
            translator.solve_text_on(red.database(), goal).unwrap(),
            red.solve_text(goal).unwrap()
        );
        let before = translator.solve_text_on(&pinned, goal).unwrap();
        // Mutate the engine; the pinned clone still answers the old state.
        red.apply_updates(&[EdbUpdate::Assert(goal_matom("u[p(k2 : a -u-> w)]"))])
            .unwrap();
        assert_eq!(translator.solve_text_on(&pinned, goal).unwrap(), before);
        assert!(
            translator
                .solve_text_on(red.database(), goal)
                .unwrap()
                .len()
                > before.len()
        );
    }

    #[test]
    fn shapes_number_constants_as_their_generalization_does() {
        let goals = [
            "L[p(k : a -C-> V)] << opt, C leq s",
            "s[p(K : a -u-> K)], q(K, null, 3)",
            "level(X), order(X, s), @bfs(edge, X, Y)",
        ];
        for text in goals {
            let goal = crate::parser::parse_goal(text).unwrap();
            let shape = Shape::of(&goal);
            let general = generalize(&goal);
            let general_shape = Shape::of(&general);
            assert_eq!(general_shape.key, shape.key, "{text}");
            let placeholders: Vec<dl::Const> = (0..shape.consts.len())
                .map(|n| dl::Const::sym(format!("?{n}")))
                .collect();
            assert_eq!(general_shape.consts, placeholders, "{text}");
        }
    }

    #[test]
    fn algorithm_call_goals_run_unprepared() {
        // The call's input names a predicate, so its τ body is not the
        // generalization's: each goal compiles for itself.
        let db =
            parse_database("edge(a, b). edge(b, c). edge(x, y). reach(X, Y) <- @bfs(edge, X, Y).")
                .unwrap();
        let red = ReducedEngine::new(&db, "system").unwrap();
        let translator = red.goal_translator("system").unwrap();
        let db = red.database();
        for (goal, answers) in [
            ("@bfs(edge, a, Y)", 2),
            ("@bfs(edge, b, Y)", 1),
            ("@bfs(edge, x, Y)", 1),
        ] {
            assert_eq!(
                translator.solve_text_on(db, goal).unwrap().len(),
                answers,
                "{goal}"
            );
        }
        let stats = translator.prepared_stats();
        assert_eq!((stats.compiled, stats.hits, stats.cached), (3, 0, 0));
        // Goals that only read its output prepare as usual.
        assert_eq!(
            translator.solve_text_on(db, "reach(a, Y)").unwrap().len(),
            2
        );
        assert_eq!(
            translator.solve_text_on(db, "reach(x, Y)").unwrap().len(),
            1
        );
        let stats = translator.prepared_stats();
        assert_eq!((stats.compiled, stats.hits, stats.cached), (4, 1, 1));
    }

    /// The τ corpus: every `examples/data/*.mlog` file (by name) plus the
    /// built-in D₁ and Mission databases, each with its declared levels.
    fn tau_corpus() -> Vec<(String, MultiLogDb, Vec<String>)> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/data");
        let mut files: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "mlog"))
            .collect();
        files.sort();
        let mut dbs: Vec<(String, MultiLogDb)> = files
            .iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                let src = std::fs::read_to_string(p).unwrap();
                (name, parse_database(&src).unwrap())
            })
            .collect();
        dbs.push(("examples::d1".into(), crate::examples::d1()));
        dbs.push((
            "examples::mission_db".into(),
            crate::examples::mission_db().unwrap(),
        ));
        dbs.into_iter()
            .map(|(name, db)| {
                let levels = db.lattice().unwrap().names().map(str::to_owned).collect();
                (name, db, levels)
            })
            .collect()
    }

    fn deferred(db: &MultiLogDb, level: &str) -> ReducedEngine {
        ReducedEngine::with_options_deferred(db, level, EngineOptions::default()).unwrap()
    }

    /// τ's rendered output is pinned byte for byte by a checked-in golden
    /// file: `=== <database> @ <level> ===` then that `program_text()`.
    #[test]
    fn program_text_matches_golden_file() {
        let mut rendered = String::new();
        for (name, db, levels) in tau_corpus() {
            for level in levels {
                let text = deferred(&db, &level).program_text().to_owned();
                rendered.push_str(&format!("=== {name} @ {level} ===\n{text}"));
            }
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tau.txt");
        let golden = std::fs::read_to_string(&path).unwrap();
        assert!(
            golden == rendered,
            "program_text() differs from {}",
            path.display()
        );
    }

    /// τ stores each belief once: no copy of `rel` (`bel_fir`), of
    /// `bel_opt` (a generic `visible`) or of a built-in mode in `bel/7`,
    /// and per-level belief relations only for the levels a rule body
    /// reads through one.
    #[test]
    fn tau_stores_each_belief_once() {
        for (name, db, levels) in tau_corpus() {
            let bodies = db.sigma().iter().chain(db.pi()).flat_map(|c| &c.body);
            let read: HashSet<String> = bodies
                .filter_map(|a| match a {
                    Atom::B(m, mode) if mode.as_ref() != "fir" => Some(m.level.to_string()),
                    _ => None,
                })
                .collect();
            for level in levels {
                let red = deferred(&db, &level);
                for clause in red.incremental.rules().clauses() {
                    let head = clause.head.predicate.as_str();
                    let head = head.strip_prefix("clearance_").unwrap_or(head);
                    let at = format!("{name} @ {level}: {clause}");
                    assert!(!["bel_fir", "visible"].contains(&head), "{at}");
                    assert!(!head.starts_with("visible_"), "{at}");
                    if head == crate::modes::BEL {
                        let mode = &clause.head.terms[6];
                        let builtin = ["fir", "opt", "cau"].map(dl::Term::sym);
                        assert!(!builtin.contains(mode), "{at}");
                    }
                    for family in ["bel_opt_", "beaten_", "bel_cau_"] {
                        if let Some(h) = head.strip_prefix(family) {
                            assert!(red.level_split && read.contains(h), "{at}");
                        }
                    }
                }
            }
        }
    }

    /// The rendering is faithful: it parses back to the typed clauses τ
    /// evaluates, also when symbols are spelled like Datalog keywords.
    #[test]
    fn program_text_parses_back_to_the_typed_program() {
        let keywords = parse_database(
            "level(u). level(s). order(u, s).
             u[mod(not : mod -u-> not)]. q(mod).
             s[p(K : a -s-> V)] <- u[mod(K : mod -C-> V)] << cau, q(mod).",
        )
        .unwrap();
        let mut corpus = tau_corpus();
        corpus.push(("keywords".into(), keywords, vec!["u".into(), "s".into()]));
        for (name, db, levels) in corpus {
            for level in levels {
                let red = deferred(&db, &level);
                let clearances = [level.clone()];
                let (typed, ..) = translate(&db, red.lattice(), red.level_split, &clearances);
                let parsed = dl::parse_program(red.program_text()).unwrap();
                assert_eq!(parsed.clauses(), &typed[..], "{name} @ {level}");
            }
        }
    }

    const CHAIN: &str = "level(u). level(c). level(s). order(u, c). order(c, s).";

    /// `clearance_free` on the one rule of `rule`, over u < c < s. The
    /// rule is classified as parsed, admissible or not. Also checks the
    /// rule's τ image: sliced at `U` exactly when it depends on the
    /// clearance, every body label then guarded by `dominate(t, U)`.
    fn free(rule: &str) -> bool {
        let lattice = parse_database(CHAIN).unwrap().lattice().unwrap();
        let rule = crate::parser::parse_clause(rule).unwrap().remove(0);
        let dependent = !clearance_free(&rule, &lattice);
        let u = dl::Term::var("U");
        let image = translate_clause(&rule, dependent.then_some(&u), &lattice, false);
        let mut images = vec![(image, dependent)];
        let cone = Cone::close(&mut images, &[]);
        let (mut image, in_cone) = images.remove(0);
        assert_eq!(in_cone, dependent, "{rule}");
        if in_cone {
            cone.slice_rule(&mut image, &u);
        }
        let text = image.to_string();
        assert_eq!(image.head.terms.last() == Some(&u), dependent, "{text}");
        let guards = image.body.iter().filter_map(dl::Literal::atom);
        let guards: Vec<_> = guards
            .filter(|a| a.predicate.as_str() == "dominate")
            .collect();
        if dependent {
            assert!(guards.len() >= 2, "{text}");
            assert!(guards.iter().all(|g| g.terms[1] == u), "{text}");
        }
        !dependent
    }

    #[test]
    fn classifier_shares_rules_whose_body_labels_the_head_dominates() {
        // A top head: any body label is visible wherever the head is.
        assert!(free("s[q(K : b -s-> V)] <- L[p(K : a -C-> V)] << cau."));
        // A ground body level and class below a ground head.
        assert!(free("c[q(K : b -c-> V)] <- u[p(K : a -u-> V)] << opt."));
        // The head's own level variable, as level and class.
        assert!(free("L[q(K : b -L-> V)] <- L[p(K : a -L-> V)]."));
        // No guarded body atom at all.
        assert!(free("c[q(K : b -c-> V)] <- r(K, V)."));
        assert!(free("r(X) <- q(X)."));
    }

    #[test]
    fn classifier_flags_rules_that_depend_on_the_clearance() {
        // A class variable under a non-top head.
        assert!(!free("c[q(K : b -c-> V)] <- u[p(K : a -C-> V)]."));
        assert!(!free("L[q(K : b -L-> V)] <- L[p(K : a -C-> V)]."));
        // Write-down: the body level sits above the head.
        assert!(!free("u[q(K : b -u-> V)] <- c[p(K : a -u-> V)]."));
        // A p-atom head, and an aggregate head, over a guarded body.
        assert!(!free("hot(K) <- u[p(K : a -u-> V)]."));
        assert!(!free(
            "total(H, count(K)) <- H[p(K : a -C-> V)] << opt, level(H)."
        ));
    }

    /// The cone of `rules` over u < c < s with one `p` fact: each cone
    /// predicate and its sliced relation, sorted.
    fn cone(rules: &str) -> Vec<(String, String)> {
        let db = parse_database(&format!("{CHAIN} u[p(k : a -u-> v)]. {rules}")).unwrap();
        let lattice = db.lattice().unwrap();
        let (.., cone) = translate(&db, &lattice, false, &["u".into()]);
        let mut slices: Vec<(String, String)> = cone
            .slices
            .iter()
            .map(|(p, s)| (p.as_str().to_owned(), s.as_str().to_owned()))
            .collect();
        slices.sort_unstable();
        slices
    }

    #[test]
    fn cone_closes_over_readers_of_dependent_predicates() {
        assert!(cone("s[q(K : b -s-> V)] <- L[p(K : a -C-> V)].").is_empty());
        // `warm` reads nothing guarded, but it reads the dependent `hot`;
        // neither has a clearance-free derivation, so each is sliced in
        // place, with one more column.
        let sliced = |p: &str| (p.to_owned(), p.to_owned());
        assert_eq!(
            cone("hot(K) <- u[p(K : a -u-> V)]. warm(K) <- hot(K). cold(K) <- q(K)."),
            [sliced("hot"), sliced("warm")]
        );
        // A write-down rule derives `rel`, whose facts and updates are
        // clearance-free: its slices get a relation of their own. Every
        // axiom reading it, and every rule reading a belief, joins the
        // cone.
        let preds = cone("u[q(K : b -u-> V)] <- c[p(K : a -u-> V)].");
        assert!(preds.contains(&("rel".to_owned(), "clearance_rel".to_owned())));
        for pred in ["bel_opt", "beaten", "bel_cau"] {
            assert!(preds.contains(&sliced(pred)), "{pred} in {preds:?}");
        }
        assert!(!preds.iter().any(|(p, _)| p == "dominate"), "{preds:?}");
    }

    #[test]
    fn shared_rules_drop_clearance_guards() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::new(&db, "u").unwrap();
        let text = red.program_text();
        // D1's rules are clearance-free: no guard, no clearance column
        // and no clearance fact, although the engine serves only u.
        let rule = text.lines().find(|l| l.starts_with("rel_s(")).unwrap();
        assert_eq!(rule, "rel_s(p, k, a, v, u) :- bel_cau_c(p, k, a, t, c).");
        assert!(!text.contains("clearance"), "{text}");
        // Under the sole maximal head, a variable label keeps its check.
        let top =
            parse_database(&format!("{D1} s[q(K : b -s-> V)] <- c[p(K : a -C-> V)].")).unwrap();
        let red = ReducedEngine::new(&top, "u").unwrap();
        assert!(red.program_text().contains("dominate(C, s)"));
    }

    /// An engine serving `users`, opened one after another.
    fn opened(db: &MultiLogDb, users: &[&str]) -> ReducedEngine {
        let mut red = ReducedEngine::materialized(db, None, EngineOptions::default()).unwrap();
        for user in users {
            red.open_clearance(db, user).unwrap();
        }
        red
    }

    #[test]
    fn sliced_readers_answer_like_the_operational_engine() {
        let cone = "u[low(K : a -u-> V)] <- c[p(K : a -C-> V)]. hot(K) <- c[p(K : a -C-> V)].";
        for src in [D1.to_owned(), DASHBOARD.to_owned(), format!("{D1} {cone}")] {
            let db = parse_database(&src).unwrap();
            let users = ["u", "c", "s"];
            let red = opened(&db, &users);
            for (i, user) in users.into_iter().enumerate() {
                let reader = red.goal_translator(user).unwrap();
                // The operational engine refuses aggregates.
                let op = MultiLogEngine::new(&db, user);
                for goal in op.iter().flat_map(|_| {
                    [
                        "L[p(K : a -C-> V)] << cau",
                        "L[p(K : a -C-> V)] << opt",
                        "L[emp(K : sal -C-> V)] << fir",
                        "L[low(K : a -C-> V)]",
                        "hot(K)",
                    ]
                }) {
                    assert_eq!(
                        reader.solve_text_on(red.database(), goal).unwrap(),
                        op.as_ref().unwrap().solve_text(goal).unwrap(),
                        "`{goal}` at {user} over {src}"
                    );
                }
                // The dashboard rows each clearance sees, one per level at
                // or below it.
                let rows: Vec<(String, Term)> = reader
                    .solve_text_on(red.database(), "total(H, N)")
                    .unwrap()
                    .iter()
                    .map(|a| (a["H"].to_string(), a["N"].clone()))
                    .collect();
                let want = [("c", 2), ("s", 3), ("u", 1)]
                    .into_iter()
                    .filter(|(h, _)| users[..=i].contains(h))
                    .map(|(h, n)| (h.to_owned(), Term::Int(n)));
                let want: Vec<_> = want.filter(|_| src.contains("total")).collect();
                assert_eq!(rows, want, "dashboard at {user}");
            }
            assert!(red.solve_text("hot(K)").is_err(), "no single clearance");
        }
    }

    #[test]
    fn opening_a_clearance_commits_only_its_slice() {
        let cone = "u[low(K : a -u-> V)] <- c[p(K : a -C-> V)]. hot(K) <- c[p(K : a -C-> V)].";
        let db = parse_database(&format!("{D1} {cone}")).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        let facts = |red: &ReducedEngine| -> BTreeSet<String> {
            let db = red.database();
            let rows = db
                .relations()
                .flat_map(|(p, r)| r.iter().map(move |f| (p, f)));
            rows.map(|(p, f)| format!("{p}{f:?}")).collect()
        };
        let before = facts(&red);
        let stats = red
            .open_clearance(&db, "u")
            .unwrap()
            .expect("the cone is not empty");
        let after = facts(&red);
        assert!(before.is_subset(&after), "opening removed facts");
        let added: Vec<&String> = after.difference(&before).collect();
        // The clearance fact, and facts of u's slice alone.
        assert_eq!((stats.edb_inserted, stats.derived_removed), (1, 0));
        assert_eq!(stats.derived_added + 1, added.len(), "{added:?}");
        let slice = |f: &&String| f.ends_with(", u]") || *f == "clearance[u]";
        assert!(added.iter().all(slice), "{added:?}");
        assert!(added.contains(&&"clearance[u]".to_owned()), "{added:?}");
        assert!(added.iter().any(|f| f.starts_with("bel_opt[")), "{added:?}");
        // Opening it again evaluates nothing.
        assert!(red.open_clearance(&db, "u").unwrap().is_none());
    }

    /// Goal `i` of a client that names its variables afresh in every
    /// goal: 200 shapes — one or two m-/b-atoms, each binding or leaving
    /// open its key, class and value — each asked five times in a row,
    /// with rotating constants in every bound position.
    pub(crate) fn fresh_goal(i: usize) -> String {
        let shape = (i / 5) % 200;
        let atom = |pattern: usize, key: &str, tag: &str| {
            let pick = |bit: usize, constant: String, var: String| {
                if pattern & bit == 0 {
                    constant
                } else {
                    var
                }
            };
            let level = ["u", "c", "s"][(i / 5) % 3];
            let key = pick(1, ["k1", "k2", "k3"][i % 3].to_owned(), key.to_owned());
            let class = pick(2, ["u", "c"][(i / 2) % 2].to_owned(), format!("C{tag}{i}"));
            let value = pick(
                4,
                ["v1", "v2", "v3"][(i / 3) % 3].to_owned(),
                format!("V{tag}{i}"),
            );
            let m = format!("{level}[p({key} : a -{class}-> {value})]");
            if pattern & 8 == 0 {
                m
            } else {
                format!("{m} << {}", ["fir", "opt", "cau"][shape % 3])
            }
        };
        let key = format!("K{i}");
        let first = atom(shape % 16, &key, "a");
        match shape / 16 {
            0 => first,
            n => format!("{first}, {}", atom(n - 1, &key, "b")),
        }
    }

    /// The database [`fresh_goal`]s are asked over.
    pub(crate) const FRESH_GOALS_DB: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[p(k1 : a -u-> v1)]. c[p(k1 : a -c-> v2)]. s[p(k2 : a -u-> v1)].
        c[p(k2 : a -u-> v3)]. u[p(k3 : a -u-> v2)].
        c[p(k3 : a -c-> v3)] <- q(k3).
        q(k3).
    "#;

    #[test]
    fn demand_plan_cache_stays_bounded_under_fresh_goals() {
        let db = parse_database(FRESH_GOALS_DB).unwrap();
        let red = ReducedEngine::new(&db, "c").unwrap();
        let plans = || red.demand.lock().unwrap().plans.len();
        let mut answered = 0;
        for i in 0..10_000 {
            let goal = fresh_goal(i);
            let answers = red.solve_text_demand(&goal).unwrap();
            assert_eq!(answers, red.solve_text(&goal).unwrap(), "`{goal}`");
            answered += usize::from(!answers.is_empty());
            assert!(plans() <= MAX_PREPARED, "{} plans", plans());
        }
        assert!(answered >= 1_000, "only {answered} goals have answers");
        // Renaming variables alone reuses the plan.
        let goal = "c[p(K : a -C-> V)] << opt, u[p(K : a -u-> W)]";
        let renamed = "c[p(Key : a -Class-> Val)] << opt, u[p(Key : a -u-> Other)]";
        let want = red.solve_text_demand(goal).unwrap();
        let cached = plans();
        let got = red.solve_text_demand(renamed).unwrap();
        assert_eq!(plans(), cached);
        assert!(!want.is_empty());
        let values = |answers: &[Answer], vars: [&str; 4]| -> Vec<Vec<String>> {
            let mut out: Vec<Vec<String>> = answers
                .iter()
                .map(|a| vars.iter().map(|v| a[v].to_string()).collect())
                .collect();
            out.sort();
            out
        };
        assert_eq!(
            values(&got, ["Key", "Class", "Val", "Other"]),
            values(&want, ["K", "C", "V", "W"])
        );
    }

    #[test]
    fn clearance_relation_names_are_reserved() {
        // A p-predicate named like τ's clearance relations would share one
        // relation with them: admission refuses it, by name (ML0115).
        for src in [
            "clearance(a). q(X) <- clearance(X).",
            "q(X) <- @bfs(clearance_e, X, Y).",
        ] {
            let err = parse_database(&format!("{CHAIN} {src}")).unwrap_err();
            assert!(
                matches!(&err, MultiLogError::NotAdmissible { detail } if detail.contains("clearance")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn goal_only_algorithm_calls_answer_materialized_and_demand_driven() {
        let db =
            parse_database("edge(a, b). edge(b, c). hop(a, x). reach(X, Y) <- @bfs(edge, X, Y).")
                .unwrap();
        let red = ReducedEngine::new(&db, "system").unwrap();
        let goal = "@bfs(hop, a, Y)";
        let want = red.solve_text_demand(goal).unwrap();
        assert_eq!(want.len(), 1);
        assert_eq!(want[0]["Y"], Term::sym("x"));
        assert_eq!(red.solve_text(goal).unwrap(), want);
        let reader = red.goal_translator("system").unwrap();
        assert_eq!(reader.solve_text_on(red.database(), goal).unwrap(), want);
    }

    #[test]
    fn null_roundtrips() {
        let src = r#"
            level(u).
            u[p(k : a -u-> null)].
        "#;
        let db = parse_database(src).unwrap();
        let red = ReducedEngine::new(&db, "u").unwrap();
        let ans = red.solve_text("u[p(k : a -u-> V)]").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0]["V"], Term::Null);
    }
}
