//! The reduction semantics of §6: the translation τ from MultiLog to
//! Datalog plus the inference-engine axiom set **A** of Figure 12,
//! executed on the `multilog-datalog` engine (our CORAL substitute).
//!
//! ## Encoding (§6.1)
//!
//! * `τ(l[p(k : a -c-> v)]) = rel(p, k, a, v, c, l)`
//! * `τ(l[p(k : a -c-> v)] << m) = bel(p, k, a, v, c, l, m)`
//! * p-, l-, h-atoms translate to themselves; `⪯` becomes `dominate/2`.
//! * `τ(λ(B, u))` guards every body/query m- and b-atom with
//!   `dominate(l, u)` and `dominate(c, u)` — the Bell–LaPadula *no read
//!   up* conditions, baked in at compile time because the reduced program
//!   cannot enforce per-user views (§6.2).
//!
//! ## Making Figure 12 executable
//!
//! The paper prints the axioms a₁–a₉ ([`paper_axioms`]) and asserts they
//! are stratified. As written they are not: `rel` depends on `bel`
//! whenever a rule body consults a belief, and the cautious axioms make
//! `bel` depend *negatively* on `rel` — a negative cycle for any
//! syntactic stratifier (and a₆/a₉ additionally use unsafe negation).
//! We therefore emit a semantically equivalent *specialized* axiom set:
//!
//! * `bel` is split per mode (`bel_fir`, `bel_opt`, `bel_cau`), so rules
//!   consuming only monotone modes never touch the negation;
//! * when a rule body does consult `<< cau`, `rel` is additionally split
//!   per level (`rel_u`, `rel_c`, …) and the cautious predicates are
//!   generated per level against the *statically known* dominance
//!   relation — the level stratification of the operational engine,
//!   reflected syntactically. This requires ground levels on body m-atoms
//!   (checked; the operational engine has the same restriction for
//!   cautious programs);
//! * the unsafe negations of a₆–a₉ become safe auxiliary predicates
//!   (`visible`, `beaten`): a value is cautiously believed iff it is
//!   visible and no visible value for the same column strictly dominates
//!   its classification — exactly β (Definition 3.1).
//!
//! Theorem 6.1 (equivalence with the operational semantics) is exercised
//! by `tests/equivalence.rs` at the workspace root.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use multilog_datalog as dl;
use multilog_lattice::SecurityLattice;

use crate::ast::{Atom, Clause, Goal, Head, MAtom, Term};
use crate::belief::Mode;
use crate::db::MultiLogDb;
use crate::engine::{Answer, EngineOptions};
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
pub struct ReducedEngine {
    lattice: Arc<SecurityLattice>,
    user: String,
    incremental: dl::IncrementalEngine,
    /// Whether `rel` was split per level (cautious bodies present).
    level_split: bool,
    program_text: String,
    /// Guard configuration, replayed onto demand-driven goal runs.
    fact_limit: usize,
    deadline: Option<std::time::Duration>,
    cancel: Option<dl::CancelToken>,
    /// Lattice-flow demand pruning ([`EngineOptions::flow_prune`]).
    prune: Option<FlowPrune>,
}

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
    /// Per-level cautious machinery (`visible_h`, `beaten_h`,
    /// `bel_cau_h`) for levels `h` not dominated by the clearance —
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
            .field("user", &self.user)
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
        let mut engine = Self::with_options_deferred(db, user, options)?;
        // The initial materialization runs under the configured guards;
        // trips convert through `From<DatalogError>` so callers see the
        // same `BudgetExceeded`/`DeadlineExceeded`/`Cancelled` variants
        // as the operational engine.
        engine.incremental.recover()?;
        Ok(engine)
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
        // Match the operational engine's Prop 6.1 fallback.
        let lattice = if db.lambda().is_empty() && db.sigma().is_empty() {
            Arc::new(
                multilog_lattice::LatticeBuilder::new()
                    .level(user)
                    .build()
                    .map_err(MultiLogError::Lattice)?,
            )
        } else {
            db.lattice()?
        };
        if lattice.label(user).is_none() {
            return Err(MultiLogError::NotAdmissible {
                detail: format!("user level `{user}` is not a declared level"),
            });
        }
        let level_split = db
            .sigma()
            .iter()
            .chain(db.pi())
            .flat_map(|c| &c.body)
            .any(|a| matches!(a, Atom::B(_, m) if m.as_ref() == "cau"));
        let program_text = translate(db, user, &lattice, level_split)?;
        let program = dl::parse_program(&program_text).map_err(MultiLogError::Datalog)?;
        // Flow pruning needs a real lattice; the Prop 6.1 fallback has
        // no Σ rules to prune anyway.
        let prune = if options.flow_prune && !(db.lambda().is_empty() && db.sigma().is_empty()) {
            let report = crate::flow::analyze_db(db);
            let mut rules = Vec::new();
            for c in db.sigma().iter().chain(db.pi()) {
                let text = translate_clause(c, user, level_split)?;
                let image = dl::parse_program(&text).map_err(MultiLogError::Datalog)?;
                for t in image.clauses() {
                    rules.push((c.clone(), t.clone()));
                }
            }
            let mut machinery = HashSet::new();
            if level_split {
                if let Some(u) = lattice.label(user) {
                    for h in lattice.labels() {
                        if !lattice.leq(h, u) {
                            let hn = lattice.name(h);
                            machinery.insert(format!("visible_{hn}"));
                            machinery.insert(format!("beaten_{hn}"));
                            machinery.insert(format!("bel_cau_{hn}"));
                        }
                    }
                }
            }
            Some(FlowPrune {
                report,
                rules,
                machinery,
                tainted: false,
            })
        } else {
            None
        };
        let fact_limit = options.limit();
        let mut incremental = dl::IncrementalEngine::new_deferred(&program)
            .map_err(MultiLogError::Datalog)?
            .with_fact_limit(fact_limit);
        if let Some(deadline) = options.deadline {
            incremental = incremental.with_deadline(deadline);
        }
        if let Some(cancel) = &options.cancel {
            incremental = incremental.with_cancel_token(cancel.clone());
        }
        Ok(ReducedEngine {
            lattice,
            user: user.to_owned(),
            incremental,
            level_split,
            program_text,
            fact_limit,
            deadline: options.deadline,
            cancel: options.cancel,
            prune,
        })
    }

    /// Per-rule / per-stratum statistics from evaluating the reduced
    /// program to fixpoint (the most recent full materialization;
    /// incremental commits report through [`dl::CommitStats`] instead).
    pub fn stats(&self) -> &dl::EvalStats {
        self.incremental.materialize_stats()
    }

    /// The generated Datalog program (for inspection and the figures
    /// binary).
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
        let mut encoded: Vec<(bool, String, Vec<dl::Const>)> = Vec::with_capacity(updates.len());
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
        self.incremental.begin()?;
        for (insert, pred, fact) in encoded {
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
    fn encode_update(&self, m: &MAtom) -> Result<(String, Vec<dl::Const>)> {
        if !m.is_ground() {
            return Err(MultiLogError::NonGroundUpdate {
                atom: m.to_string(),
            });
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
        let mut fact = vec![
            dl::Const::sym(&m.pred),
            term_const(&m.key),
            dl::Const::sym(&m.attr),
            term_const(&m.value),
            term_const(&m.class),
        ];
        if self.level_split {
            Ok((format!("rel_{}", m.level), fact))
        } else {
            fact.push(term_const(&m.level));
            Ok(("rel".to_owned(), fact))
        }
    }

    /// Solve a MultiLog goal against the reduced database; answers are in
    /// MultiLog terms, sorted, and directly comparable with
    /// [`crate::MultiLogEngine::solve`].
    pub fn solve(&self, goal: &Goal) -> Result<Vec<Answer>> {
        let mut body: Vec<dl::Literal> = Vec::new();
        for atom in goal {
            translate_atom(atom, &self.user, self.level_split, true, &mut body)?;
        }
        let answers =
            dl::run_query(self.incremental.database(), &body).map_err(MultiLogError::Datalog)?;
        Ok(project_answers(goal, &answers))
    }

    /// Parse and solve a textual MultiLog goal.
    pub fn solve_text(&self, goal: &str) -> Result<Vec<Answer>> {
        self.solve(&crate::parser::parse_goal(goal)?)
    }

    /// Solve a MultiLog goal demand-driven: instead of reading the
    /// materialized fixpoint, rewrite the translated program with the
    /// magic-sets transformation seeded from the goal's constants (the
    /// predicate name, key, and the user's clearance level in the
    /// appended `dominate` guards all bind arguments after the τ
    /// encoding) and evaluate only the demanded sub-fixpoint. Answers
    /// equal [`ReducedEngine::solve`]; the win is that for point queries
    /// only a fraction of the belief relations is computed — and no
    /// materialization is required at all (see
    /// [`ReducedEngine::with_options_deferred`]).
    pub fn solve_demand(&self, goal: &Goal) -> Result<Vec<Answer>> {
        Ok(self.solve_demand_with_stats(goal)?.0)
    }

    /// [`ReducedEngine::solve_demand`], also returning the evaluation
    /// counters of the goal-directed run — [`dl::EvalStats::demand`]
    /// records whether the magic rewrite applied and how much it
    /// materialized.
    pub fn solve_demand_with_stats(&self, goal: &Goal) -> Result<(Vec<Answer>, dl::EvalStats)> {
        let mut body: Vec<dl::Literal> = Vec::new();
        for atom in goal {
            translate_atom(atom, &self.user, self.level_split, true, &mut body)?;
        }
        let program = self
            .incremental
            .current_program()
            .map_err(MultiLogError::Datalog)?;
        let (program, pruned_rules) = self.pruned_program(program);
        let mut engine = dl::Engine::new(&program)?.with_fact_limit(self.fact_limit);
        if let Some(d) = self.deadline {
            engine = engine.with_deadline(d);
        }
        if let Some(c) = &self.cancel {
            engine = engine.with_cancel_token(c.clone());
        }
        // Guard trips convert through `From<DatalogError>`, surfacing the
        // same typed errors as a full materialization would.
        let (answers, mut stats) = engine.run_for_goal(&body)?;
        if let Some(d) = stats.demand.as_mut() {
            d.pruned_rules = pruned_rules;
        }
        Ok((project_answers(goal, &answers), stats))
    }

    /// Parse and solve a textual MultiLog goal demand-driven.
    pub fn solve_text_demand(&self, goal: &str) -> Result<Vec<Answer>> {
        self.solve_demand(&crate::parser::parse_goal(goal)?)
    }

    /// Drop everything the flow analysis proves invisible at this
    /// engine's clearance from `program`: the per-level cautious
    /// machinery above the clearance, then every Σ/Π rule whose τ image
    /// matches a prunable source clause. Returns the (possibly) smaller
    /// program and how many clauses were dropped. A no-op (0 dropped)
    /// unless [`EngineOptions::flow_prune`] was set.
    fn pruned_program(&self, program: dl::Program) -> (dl::Program, usize) {
        let Some(p) = self.prune.as_ref() else {
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
            .filter(|(mc, _)| p.report.rule_prunable(mc, &self.user, !p.tainted))
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

    /// A detached goal translator for this engine's clearance and
    /// encoding, carrying the engine's guard configuration. Reader
    /// sessions pair it with a pinned [`dl::Snapshot`] to answer goals
    /// without touching (or blocking on) the engine itself.
    pub fn goal_translator(&self) -> GoalTranslator {
        GoalTranslator {
            user: self.user.clone(),
            level_split: self.level_split,
            guards: dl::QueryGuards {
                deadline: self.deadline,
                fact_limit: if self.fact_limit == usize::MAX {
                    0
                } else {
                    self.fact_limit
                },
                cancel: self.cancel.clone(),
            },
        }
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
/// A translator knows the clearance level it serves, whether the
/// reduction split `rel` per level, and the session's query guards — the
/// three inputs needed to turn a MultiLog goal into a reduced Datalog
/// body and answer it against *any* database produced by the matching
/// [`ReducedEngine`] (typically a pinned snapshot). It holds no database
/// itself, so readers using one never contend with writers.
#[derive(Clone, Debug)]
pub struct GoalTranslator {
    user: String,
    level_split: bool,
    guards: dl::QueryGuards,
}

impl GoalTranslator {
    /// The clearance level this translator serves.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Solve a MultiLog goal against `db` (a materialized reduction at
    /// this translator's clearance), under the session guards. Answers
    /// match [`ReducedEngine::solve`] on the same database.
    pub fn solve_on(&self, db: &dl::Database, goal: &Goal) -> Result<Vec<Answer>> {
        let mut body: Vec<dl::Literal> = Vec::new();
        for atom in goal {
            translate_atom(atom, &self.user, self.level_split, true, &mut body)?;
        }
        let answers =
            dl::run_query_guarded(db, &body, &self.guards).map_err(MultiLogError::Datalog)?;
        Ok(project_answers(goal, &answers))
    }

    /// Parse and solve a textual MultiLog goal against `db`.
    pub fn solve_text_on(&self, db: &dl::Database, goal: &str) -> Result<Vec<Answer>> {
        self.solve_on(db, &crate::parser::parse_goal(goal)?)
    }
}

/// Project Datalog answers back onto the goal's own variables, in
/// MultiLog terms, sorted and deduplicated — the translation may add
/// guard-only variables that must not leak into the answers.
fn project_answers(goal: &Goal, answers: &dl::QueryAnswer) -> Vec<Answer> {
    let goal_vars: Vec<&str> = {
        let mut vs = Vec::new();
        for a in goal {
            for v in a.variables() {
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
        }
        vs
    };
    let mut out: Vec<Answer> = Vec::new();
    for b in &answers.answers {
        let mut a: Answer = BTreeMap::new();
        for v in &goal_vars {
            if let Some(c) = b.get(*v) {
                a.insert((*v).to_owned(), const_to_term(c));
            }
        }
        out.push(a);
    }
    out.sort();
    out.dedup();
    out
}

/// Translate the full database to a Datalog program text: `τ(Δ) ∪ A`.
fn translate(
    db: &MultiLogDb,
    user: &str,
    lattice: &SecurityLattice,
    level_split: bool,
) -> Result<String> {
    let mut out = String::new();
    // --- τ(Λ): the lattice component translates one-to-one. ---
    for c in db.lambda() {
        out.push_str(&translate_clause(c, user, level_split)?);
        out.push('\n');
    }
    // --- τ(Σ) and τ(Π). ---
    for c in db.sigma().iter().chain(db.pi()) {
        out.push_str(&translate_clause(c, user, level_split)?);
        out.push('\n');
    }
    // --- The axiom set A. ---
    out.push_str("% axiom set A (Figure 12, safe specialization)\n");
    out.push_str("dominate(X, Y) :- order(X, Y).\n");
    out.push_str("dominate(X, X) :- level(X).\n");
    out.push_str("dominate(X, Y) :- order(X, Z), dominate(Z, Y).\n");
    if level_split {
        // Union view of the split relation, for queries.
        for l in lattice.labels() {
            let name = lattice.name(l);
            out.push_str(&format!(
                "rel(P, K, A, V, C, {name}) :- rel_{name}(P, K, A, V, C).\n"
            ));
        }
        // Per-level cautious machinery over the statically known order.
        for h in lattice.labels() {
            let hn = lattice.name(h);
            for l in lattice.down_set(h) {
                let ln = lattice.name(l);
                out.push_str(&format!(
                    "visible_{hn}(P, K, A, V, C) :- rel_{ln}(P, K, A, V, C).\n"
                ));
            }
            out.push_str(&format!(
                "beaten_{hn}(P, K, A, C) :- visible_{hn}(P, K, A, V, C), \
                 visible_{hn}(P, K, A, V2, C2), dominate(C, C2), C != C2.\n"
            ));
            out.push_str(&format!(
                "bel_cau_{hn}(P, K, A, V, C) :- visible_{hn}(P, K, A, V, C), \
                 not beaten_{hn}(P, K, A, C).\n"
            ));
            out.push_str(&format!(
                "bel(P, K, A, V, C, {hn}, cau) :- bel_cau_{hn}(P, K, A, V, C).\n"
            ));
        }
    } else {
        // Generic cautious machinery (negation confined to query strata).
        out.push_str("visible(P, K, A, V, C, H) :- rel(P, K, A, V, C, L), dominate(L, H).\n");
        out.push_str(
            "beaten(P, K, A, C, H) :- visible(P, K, A, V, C, H), \
             visible(P, K, A, V2, C2, H), dominate(C, C2), C != C2.\n",
        );
        out.push_str(
            "bel(P, K, A, V, C, H, cau) :- visible(P, K, A, V, C, H), \
             not beaten(P, K, A, C, H).\n",
        );
    }
    // Monotone modes, split so rule bodies avoid the negation stratum.
    out.push_str("bel_fir(P, K, A, V, C, H) :- rel(P, K, A, V, C, H).\n");
    out.push_str("bel_opt(P, K, A, V, C, H) :- rel(P, K, A, V, C, L), dominate(L, H).\n");
    out.push_str("bel(P, K, A, V, C, H, fir) :- bel_fir(P, K, A, V, C, H).\n");
    out.push_str("bel(P, K, A, V, C, H, opt) :- bel_opt(P, K, A, V, C, H).\n");
    Ok(out)
}

fn translate_clause(c: &Clause, user: &str, level_split: bool) -> Result<String> {
    let head = match &c.head {
        Head::M(m) => {
            if level_split {
                let Term::Sym(level) = &m.level else {
                    return Err(MultiLogError::NotBeliefStratified {
                        detail: format!(
                            "reduction of `{c}` requires a ground head level when the \
                             program consults `<< cau`"
                        ),
                    });
                };
                format!(
                    "rel_{level}({}, {}, {}, {}, {})",
                    m.pred,
                    term_text(&m.key),
                    m.attr,
                    term_text(&m.value),
                    term_text(&m.class),
                )
            } else {
                matom_text(m)
            }
        }
        Head::P(p) => match c.agg {
            // Aggregate heads render in the Datalog layer's surface
            // syntax (`total(H, count(K))`); the back-end evaluates the
            // fold per stratum over distinct witness bindings, so
            // polyinstantiated m-atoms at different levels count
            // separately (bag semantics per Bertossi–Gottlob).
            Some(agg) => {
                let args: Vec<String> = p
                    .args
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        if i == agg.position {
                            format!("{}({})", agg.func.keyword(), term_text(t))
                        } else {
                            term_text(t)
                        }
                    })
                    .collect();
                format!("{}({})", p.pred, args.join(", "))
            }
            None => patom_text(p),
        },
        Head::L(t) => format!("level({})", term_text(t)),
        Head::H(l, h) => format!("order({}, {})", term_text(l), term_text(h)),
    };
    if c.body.is_empty() {
        return Ok(format!("{head}."));
    }
    let mut lits: Vec<dl::Literal> = Vec::new();
    for a in &c.body {
        translate_atom(a, user, level_split, false, &mut lits)?;
    }
    let body: Vec<String> = lits.iter().map(ToString::to_string).collect();
    Ok(format!("{head} :- {}.", body.join(", ")))
}

/// τ(λ(B, u)): translate one atom, adding the no-read-up guards for m-
/// and b-atoms. `in_query` distinguishes query-side translation (always
/// the generic predicates) from rule bodies (level/mode specialized).
fn translate_atom(
    atom: &Atom,
    user: &str,
    level_split: bool,
    in_query: bool,
    out: &mut Vec<dl::Literal>,
) -> Result<()> {
    let lit = |s: &str| -> Result<dl::Literal> {
        let atoms = dl::parse_query(s).map_err(MultiLogError::Datalog)?;
        atoms
            .into_iter()
            .next()
            .ok_or_else(|| MultiLogError::Parse {
                line: 1,
                column: 1,
                message: format!("translated literal `{s}` parsed to an empty query"),
            })
    };
    match atom {
        Atom::M(m) => {
            if level_split && !in_query {
                let Term::Sym(level) = &m.level else {
                    return Err(MultiLogError::NotBeliefStratified {
                        detail: format!(
                            "reduction requires ground body m-atom levels when the \
                             program consults `<< cau` (offending atom: `{m}`)"
                        ),
                    });
                };
                out.push(lit(&format!(
                    "rel_{level}({}, {}, {}, {}, {})",
                    m.pred,
                    term_text(&m.key),
                    m.attr,
                    term_text(&m.value),
                    term_text(&m.class),
                ))?);
            } else {
                out.push(lit(&matom_text(m))?);
            }
            out.push(lit(&format!("dominate({}, {user})", term_text(&m.level)))?);
            out.push(lit(&format!("dominate({}, {user})", term_text(&m.class)))?);
            Ok(())
        }
        Atom::B(m, mode) => {
            let base = format!(
                "{}, {}, {}, {}, {}",
                m.pred,
                term_text(&m.key),
                m.attr,
                term_text(&m.value),
                term_text(&m.class),
            );
            let translated = match (Mode::parse(mode), in_query) {
                // Rule bodies use the specialized monotone predicates.
                (Some(Mode::Fir), false) => {
                    format!("bel_fir({base}, {})", term_text(&m.level))
                }
                (Some(Mode::Opt), false) => {
                    format!("bel_opt({base}, {})", term_text(&m.level))
                }
                (Some(Mode::Cau), false) => {
                    if level_split {
                        let Term::Sym(level) = &m.level else {
                            return Err(MultiLogError::NotBeliefStratified {
                                detail: format!("`{m} << cau` needs a ground level for reduction"),
                            });
                        };
                        format!("bel_cau_{level}({base})")
                    } else {
                        format!("bel({base}, {}, cau)", term_text(&m.level))
                    }
                }
                // Queries and user modes go through the generic bel/7.
                _ => format!("bel({base}, {}, {mode})", term_text(&m.level)),
            };
            out.push(lit(&translated)?);
            out.push(lit(&format!("dominate({}, {user})", term_text(&m.level)))?);
            out.push(lit(&format!("dominate({}, {user})", term_text(&m.class)))?);
            Ok(())
        }
        Atom::P(p) => {
            out.push(lit(&patom_text(p))?);
            Ok(())
        }
        Atom::L(t) => {
            out.push(lit(&format!("level({})", term_text(t)))?);
            Ok(())
        }
        Atom::H(l, h) => {
            out.push(lit(&format!("order({}, {})", term_text(l), term_text(h)))?);
            Ok(())
        }
        Atom::Leq(l, h) => {
            out.push(lit(&format!(
                "dominate({}, {})",
                term_text(l),
                term_text(h)
            ))?);
            Ok(())
        }
    }
}

fn matom_text(m: &MAtom) -> String {
    format!(
        "rel({}, {}, {}, {}, {}, {})",
        m.pred,
        term_text(&m.key),
        m.attr,
        term_text(&m.value),
        term_text(&m.class),
        term_text(&m.level),
    )
}

fn patom_text(p: &crate::ast::PAtom) -> String {
    if p.args.is_empty() {
        p.pred.to_string()
    } else {
        let args: Vec<String> = p.args.iter().map(term_text).collect();
        format!("{}({})", p.pred, args.join(", "))
    }
}

fn term_text(t: &Term) -> String {
    match t {
        Term::Var(v) => v.to_string(),
        Term::Sym(s) => s.to_string(),
        Term::Int(i) => i.to_string(),
        Term::Null => "null".to_owned(),
    }
}

/// A ground MultiLog term as a Datalog constant, matching the textual
/// translation ([`term_text`]): `⊥` becomes the symbol `null`.
fn term_const(t: &Term) -> dl::Const {
    match t {
        Term::Sym(s) => dl::Const::sym(s.as_ref()),
        Term::Int(i) => dl::Const::int(*i),
        Term::Null => dl::Const::sym("null"),
        Term::Var(v) => unreachable!("update atoms are ground (variable `{v}`)"),
    }
}

fn const_to_term(c: &dl::Const) -> Term {
    match c {
        dl::Const::Sym(s) if s.as_ref() == "null" => Term::Null,
        dl::Const::Sym(s) => Term::sym(s.as_ref()),
        dl::Const::Int(i) => Term::Int(*i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_database;
    use crate::MultiLogEngine;

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
        let by_level: BTreeMap<String, Term> = ans
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
        // An update re-derives the aggregate (whole-commit recompute in
        // the back-end, since no per-fact delta exists for folds).
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
        let translator = red.goal_translator();
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
