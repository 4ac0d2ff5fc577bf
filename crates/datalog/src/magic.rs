//! Magic-sets (demand transformation) rewriting: evaluate only the
//! sub-fixpoint a partially-bound goal actually demands.
//!
//! [`crate::Engine::run_for_query`] trims evaluation to the goal's
//! dependency *cone*, but still materializes every tuple of every
//! predicate inside the cone. For a point query like `path(a, X)` that is
//! quadratically too much work: only the paths starting at `a` matter.
//! The classic fix is the magic-sets rewrite — specialize the program to
//! the query's bound/free argument pattern so bottom-up evaluation
//! simulates top-down goal-directed search:
//!
//! 1. **Adorn** each derived predicate reached from the goal with a
//!    binding pattern (`b`ound/`f`ree per argument), propagated sideways
//!    through rule bodies in textual order: an argument is bound when it
//!    is a constant or a variable bound by the rule's demanded head
//!    positions or an earlier body literal.
//! 2. For every adorned predicate `p^α`, introduce a **magic predicate**
//!    `__mg_α__p` holding the demanded bound-argument tuples, seeded from
//!    the goal's constants and propagated by **demand rules** built from
//!    rule-body prefixes.
//! 3. Replace each rule for `p` by a **guarded variant** whose body is
//!    prefixed with the magic literal, so the rule only fires for
//!    demanded bindings.
//! 4. Collect the goal's answers with a dedicated `__goal__` rule, and
//!    restratify the rewritten program (the existing Kosaraju-based
//!    [`crate::Program::stratify`] pass) before handing it to the
//!    semi-naive engine.
//!
//! **Prepared plans.** The rewrite depends only on the goal's *shape*:
//! [`prepare`] factors the goal's constants out into one
//! [`PARAM_PREDICATE`] fact that leads the goal, rewrites the *rules*
//! once, stratifies the result and compiles its join plans. A
//! [`PreparedMagic`] then answers every goal of that shape
//! ([`prepared_key`]) through [`crate::Engine::run_prepared`], which seeds
//! the parameter fact into a database already holding the base facts —
//! no clause is cloned, rewritten, stratified or compiled per goal.
//!
//! **Negation.** A negated literal whose variables are all bound by
//! earlier positive literals asks about single tuples, so its predicate
//! is adorned like a positive literal and demanded by the rule-body
//! prefix before it: `not beaten(P, K, A, C)` computes `beaten` for the
//! demanded keys only. The stratified `¬∃` reading needs the adorned
//! relation complete for the demanded tuples, i.e. in a lower stratum
//! than its consumer. A literal whose relation depends on an adorned
//! negation therefore passes no bindings sideways (see
//! `Rewriter::tainted`): magic predicates then depend on negation-free
//! relations only, and the rewrite of a stratified program stays
//! stratified. [`prepare`] still stratifies the result, and should that
//! fail it falls back to the plain treatment for the whole goal.
//! Negated literals with existential variables are always plain. Plain
//! treatment includes a negated predicate's entire dependency cone
//! verbatim; plain predicates only depend on plain predicates and
//! negative edges only point *into* the plain layer, so that rewrite is
//! stratifiable whenever the original program is.
//!
//! **Base facts.** The rewrite sees rules only; facts live in the
//! database a prepared plan runs over, under their own predicate names.
//! Facts-only predicates are read verbatim (index probes already make
//! their selection cheap). A derived predicate that may also carry base
//! facts gets one guarded *bridge* rule per adornment reading those facts
//! from its own relation, so the fact set is filtered by demand without
//! compiling one plan per fact.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::atom::{Atom, Literal};
use crate::clause::Clause;
use crate::eval::{CompiledStratum, DemandStats};
use crate::program::Program;
use crate::query::{Bindings, QueryAnswer};
use crate::storage::{Database, Relation};
use crate::term::{Const, SymId, Term};

/// The reserved predicate collecting the goal's answers in a rewritten
/// program: `__goal__(projected vars) :- <rewritten goal body>`.
pub const GOAL_PREDICATE: &str = "__goal__";

/// The reserved seed predicate of a [`PreparedMagic`] plan: one fact
/// holding the goal's constants, inserted per run.
pub const PARAM_PREDICATE: &str = "__param__";

/// Whether a goal binds any argument of a positive literal — the
/// precondition for the magic rewrite to prune anything. Goals failing
/// this check degenerate to full cone evaluation.
pub fn goal_binds_arguments(goal: &[Literal]) -> bool {
    goal.iter()
        .any(|l| matches!(l, Literal::Pos(a) if a.terms.iter().any(|t| !t.is_var())))
}

/// A magic-sets rewrite of a program's rules for one goal *shape*, with
/// the goal's constants factored out into a [`PARAM_PREDICATE`] seed
/// fact: stratified, with every stratum's join plans compiled. Built by
/// [`prepare`], run by [`crate::Engine::run_prepared`] for any constants
/// in [`prepared_key`] order. It holds rules only, so it stays valid
/// while the base facts change, as long as every predicate that may hold
/// base facts was named when it was prepared.
#[derive(Debug)]
pub struct PreparedMagic {
    /// The rewritten rules: demand rules, guarded rule variants, base
    /// bridges, plain cones, and the [`GOAL_PREDICATE`] rule.
    program: Program,
    strata: Vec<Vec<String>>,
    /// One entry per stratum of `strata`.
    compiled: Vec<CompiledStratum>,
    index_needs: Vec<(SymId, usize)>,
    params: usize,
    answer_variables: Vec<String>,
    magic_predicates: Vec<SymId>,
    cone_predicates: usize,
    adorned_predicates: usize,
    plain_under_negation: usize,
}

impl PreparedMagic {
    /// The rewritten rules.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// Every `(predicate, column)` the compiled plans probe by value.
    /// Sealing these columns in a shared base database
    /// ([`Database::seal_indexes`]) keeps runs over clones of it from
    /// each detaching and sorting the same relations.
    pub fn index_needs(&self) -> &[(SymId, usize)] {
        &self.index_needs
    }

    pub(crate) fn strata(&self) -> &[Vec<String>] {
        &self.strata
    }

    pub(crate) fn compiled(&self) -> &[CompiledStratum] {
        &self.compiled
    }

    /// Insert the parameter fact for one run.
    pub(crate) fn seed(&self, db: &mut Database, params: &[Const]) -> crate::Result<()> {
        if params.len() != self.params {
            return Err(crate::DatalogError::ArityMismatch {
                predicate: PARAM_PREDICATE.to_owned(),
                expected: self.params,
                found: params.len(),
            });
        }
        db.insert_if_new_id(SymId::intern(PARAM_PREDICATE), params);
        Ok(())
    }

    /// Read the goal's answers out of an evaluated database, shaped
    /// identically to [`crate::run_query`] over a full fixpoint.
    pub(crate) fn answers(&self, db: &Database) -> QueryAnswer {
        let mut answers: Vec<Bindings> = db
            .relation(GOAL_PREDICATE)
            .map(|rel| {
                rel.iter()
                    .map(|f| {
                        self.answer_variables
                            .iter()
                            .cloned()
                            .zip(f.iter().copied())
                            .collect()
                    })
                    .collect()
            })
            .unwrap_or_default();
        answers.sort();
        answers.dedup();
        QueryAnswer {
            variables: self.answer_variables.clone(),
            answers,
        }
    }

    /// The demand counters of an evaluated database.
    pub(crate) fn demand_stats(&self, db: &Database) -> DemandStats {
        DemandStats {
            strategy: "magic",
            cone_predicates: self.cone_predicates,
            adorned_predicates: self.adorned_predicates,
            magic_facts: self
                .magic_predicates
                .iter()
                .filter_map(|&p| db.relation_id(p))
                .map(Relation::len)
                .sum(),
            facts_materialized: db.fact_count(),
            pruned_rules: 0,
            plain_under_negation: self.plain_under_negation,
        }
    }
}

/// Replace every constant inside the goal's atoms with a positional
/// `__pN` placeholder variable, returning the generalized goal and the
/// constants in placeholder order. Comparison and arithmetic literals
/// keep their constants inline (they never seed demand).
fn generalize(goal: &[Literal]) -> (Vec<Literal>, Vec<Const>) {
    let mut consts = Vec::new();
    let mut swap = |a: &Atom| {
        let terms = a
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => {
                    consts.push(*c);
                    Term::var(format!("__p{}", consts.len() - 1))
                }
                Term::Var(_) => t.clone(),
            })
            .collect();
        Atom::new(a.predicate.as_str(), terms)
    };
    let general = goal
        .iter()
        .map(|l| match l {
            Literal::Pos(a) => Literal::Pos(swap(a)),
            Literal::Neg(a) => Literal::Neg(swap(a)),
            other => other.clone(),
        })
        .collect();
    (general, consts)
}

/// The structural cache key of a goal — the goal with constants replaced
/// by positional placeholders — plus the constants themselves. Two goals
/// share a key exactly when they demand the same predicates under the
/// same adornment with the same variable naming, i.e. when one
/// [`PreparedMagic`] answers both.
pub fn prepared_key(goal: &[Literal]) -> (String, Vec<Const>) {
    let (general, consts) = generalize(goal);
    let key = general
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    (key, consts)
}

/// Prepare the magic-sets rewrite of `rules` for `goal`'s binding
/// pattern. `base` names every predicate whose facts the run's database
/// may hold — facts-only relations, and derived predicates that may also
/// carry asserted facts, which get bridge rules — and `edb` supplies the
/// relation sizes the join plans are ordered by.
///
/// Returns `None` when the rewrite cannot help or cannot be built
/// soundly: no positive goal argument is bound, the goal's cone holds an
/// algorithm operator or an aggregate (both consume complete relations),
/// a goal atom's arity disagrees with the program or the database, or
/// the rewritten rules fail validation, stratification or compilation.
/// Callers then fall back to dependency-cone restriction.
pub fn prepare(
    rules: &Program,
    base: &HashSet<SymId>,
    goal: &[Literal],
    edb: &Database,
) -> Option<PreparedMagic> {
    if !goal_binds_arguments(goal) {
        return None;
    }
    for a in goal.iter().filter_map(Literal::atom) {
        let known = rules
            .arity(a.predicate.as_str())
            .or_else(|| edb.relation_id(a.predicate).and_then(Relation::arity));
        if known.is_some_and(|n| n != a.arity()) {
            return None;
        }
    }
    // Adorning single-tuple negations keeps a stratified program
    // stratified (see `Rewriter::tainted`); should the rewrite still not
    // stratify, the plain treatment of negated cones always does.
    prepare_with(rules, base, goal, edb, &[true, false])
}

/// [`prepare`], trying each negation treatment of `adorn_negation` in
/// turn until the rewrite stratifies.
fn prepare_with(
    rules: &Program,
    base: &HashSet<SymId>,
    goal: &[Literal],
    edb: &Database,
    adorn_negation: &[bool],
) -> Option<PreparedMagic> {
    let (general, consts) = generalize(goal);
    // Lead the goal with the seed literal: its placeholders count as
    // bound from the first literal on, so every atom gets the same
    // adornment the inline constants would have produced.
    let mut seeded = Vec::with_capacity(general.len() + 1);
    seeded.push(Literal::Pos(Atom::new(
        PARAM_PREDICATE,
        (0..consts.len())
            .map(|i| Term::var(format!("__p{i}")))
            .collect(),
    )));
    seeded.extend(general);
    let (program, strata, rw) = adorn_negation.iter().find_map(|&adorn_negation| {
        let rw = rewrite(rules, base, &seeded, adorn_negation)?;
        let program = Program::from_clauses(rw.clauses.clone()).ok()?;
        let strata: Vec<Vec<String>> = program
            .stratify()
            .ok()?
            .iter()
            .map(<[String]>::to_vec)
            .collect();
        Some((program, strata, rw))
    })?;
    let mut compiled = Vec::with_capacity(strata.len());
    for stratum in &strata {
        let in_stratum: HashSet<SymId> = stratum.iter().map(|p| SymId::intern(p)).collect();
        let stratum_rules: Vec<&Clause> = program
            .clauses()
            .iter()
            .filter(|c| in_stratum.contains(&c.head.predicate))
            .collect();
        compiled.push(CompiledStratum::compile(&stratum_rules, &in_stratum, edb).ok()?);
    }
    let mut index_needs: Vec<(SymId, usize)> = compiled
        .iter()
        .flat_map(CompiledStratum::index_needs)
        .collect();
    index_needs.sort_unstable();
    index_needs.dedup();
    Some(PreparedMagic {
        program,
        strata,
        compiled,
        index_needs,
        params: consts.len(),
        answer_variables: rw.answer_variables,
        magic_predicates: rw.magic_predicates,
        cone_predicates: rw.cone_predicates,
        adorned_predicates: rw.adorned_predicates,
        plain_under_negation: rw.plain_under_negation,
    })
}

/// The output of one rewrite pass.
struct Rewrite {
    clauses: Vec<Clause>,
    answer_variables: Vec<String>,
    magic_predicates: Vec<SymId>,
    cone_predicates: usize,
    adorned_predicates: usize,
    plain_under_negation: usize,
}

/// For each literal of `body`, whether it is a negated literal whose
/// every variable an earlier positive literal or arithmetic target
/// binds: one that asks about a single tuple, with no existential
/// variable.
fn single_tuple_negations(body: &[Literal]) -> Vec<bool> {
    let mut textual: HashSet<&str> = HashSet::new();
    body.iter()
        .map(|l| match l {
            Literal::Pos(a) => {
                textual.extend(a.variables());
                false
            }
            Literal::Arith { target, .. } => {
                textual.extend(target.as_var());
                false
            }
            Literal::Neg(a) => a.variables().all(|v| textual.contains(v)),
            Literal::Cmp { .. } => false,
        })
        .collect()
}

/// `body`'s negated literals, each with its [`single_tuple_negations`]
/// verdict.
fn negations(body: &[Literal]) -> impl Iterator<Item = (&Atom, bool)> {
    body.iter()
        .zip(single_tuple_negations(body))
        .filter_map(|(l, single)| match l {
            Literal::Neg(a) => Some((a, single)),
            _ => None,
        })
}

/// One rewrite pass of `rules` for `goal`, which the parameter literal
/// leads.
fn rewrite(
    rules: &Program,
    base: &HashSet<SymId>,
    goal: &[Literal],
    adorn_negation: bool,
) -> Option<Rewrite> {
    let seeds = goal.iter().skip(1).filter_map(Literal::atom);
    let cone = rules.dependencies_of(seeds.map(|a| a.predicate.as_str()));
    // Native algorithm operators and aggregate folds consume *complete*
    // relations; filtering their inputs by demand would change their
    // output (a component representative, a count, …). When the goal's
    // cone contains either construct, bail out so the caller's
    // cone-restricted fallback — which materializes whole relations —
    // answers the goal instead. Goals outside such cones keep the
    // rewrite.
    if cone.iter().any(|p| crate::algo::parse_call(p).is_some())
        || rules
            .clauses()
            .iter()
            .any(|c| c.agg.is_some() && cone.contains(c.head.predicate.as_str()))
    {
        return None;
    }
    let bodies = std::iter::once(goal).chain(
        rules
            .clauses()
            .iter()
            .filter(|c| cone.contains(c.head.predicate.as_str()))
            .map(|c| &c.body[..]),
    );
    // The sub-cones the rewrite evaluates in full ("plain"), so the
    // stratified ¬∃ reading of their negations stays correct.
    let full = rules.dependencies_of(
        bodies
            .flat_map(negations)
            .filter(|&(_, single)| !(adorn_negation && single))
            .map(|(a, _)| a.predicate.as_str()),
    );

    let mut clauses_by_pred: HashMap<SymId, Vec<&Clause>> = HashMap::new();
    for c in rules.clauses() {
        clauses_by_pred.entry(c.head.predicate).or_default().push(c);
    }
    // Adornable: derived by at least one rule and not needed in full.
    let adornable: HashSet<SymId> = clauses_by_pred
        .keys()
        .filter(|p| !full.contains(p.as_str()))
        .copied()
        .collect();
    // Predicates whose adorned relations depend on an adorned negation:
    // the heads of rules holding one, and everything above them.
    let mut tainted: HashSet<SymId> = HashSet::new();
    if adorn_negation {
        let heads = rules.clauses().iter().filter(|c| {
            negations(&c.body).any(|(a, single)| single && adornable.contains(&a.predicate))
        });
        let heads: Vec<&str> = heads.map(|c| c.head.predicate.as_str()).collect();
        let graph = rules.dependency_graph();
        tainted = graph
            .dependents_of(heads)
            .iter()
            .map(|p| SymId::intern(p))
            .collect();
    }

    let mut rw = Rewriter {
        program: rules,
        base,
        clauses_by_pred,
        adornable,
        tainted,
        adorn_negation,
        out: Vec::new(),
        seen: HashSet::new(),
        queue: VecDeque::new(),
        done: HashSet::new(),
        plain: HashSet::new(),
        negated_plain: Vec::new(),
        magic_preds: Vec::new(),
    };

    // The goal rule, projecting the positively bound variables in first
    // occurrence order (run_query's projection), minus the placeholders
    // the leading parameter literal binds.
    let params: Vec<&str> = goal
        .first()
        .and_then(Literal::atom)
        .map(|a| a.variables().collect())
        .unwrap_or_default();
    let mut positive: Vec<String> = Vec::new();
    for l in goal {
        if let Literal::Pos(a) = l {
            for v in a.variables() {
                if !params.contains(&v) && !positive.iter().any(|x| x == v) {
                    positive.push(v.to_owned());
                }
            }
        }
    }
    let body = rw.process_body(goal, HashSet::new(), Vec::new());
    let head = Atom::new(
        GOAL_PREDICATE,
        positive.iter().map(|v| Term::var(v.clone())).collect(),
    );
    rw.push(Clause::new(head, body));

    // Drain the demand worklist, specializing every demanded adornment.
    while let Some((pred, adornment)) = rw.queue.pop_front() {
        rw.emit_adorned(pred, &adornment);
    }

    let plain_under_negation = rules
        .dependencies_of(rw.negated_plain.iter().map(|p| p.as_str()))
        .iter()
        .filter(|p| rw.clauses_by_pred.contains_key(&SymId::intern(p)))
        .count();
    Some(Rewrite {
        answer_variables: positive,
        magic_predicates: rw.magic_preds,
        cone_predicates: cone.len(),
        adorned_predicates: rw.done.len(),
        plain_under_negation,
        clauses: rw.out,
    })
}

fn adorned_name(pred: &str, adornment: &str) -> String {
    format!("__ad_{adornment}__{pred}")
}

fn magic_name(pred: &str, adornment: &str) -> String {
    format!("__mg_{adornment}__{pred}")
}

/// The binding pattern of an atom under a set of bound variables: `b`
/// for constants and bound variables, `f` otherwise.
fn adornment_of(atom: &Atom, bound: &HashSet<String>) -> String {
    atom.terms
        .iter()
        .map(|t| match t.as_var() {
            Some(v) if !bound.contains(v) => 'f',
            _ => 'b',
        })
        .collect()
}

/// The terms at the bound positions of `adornment`.
fn bound_terms(terms: &[Term], adornment: &str) -> Vec<Term> {
    terms
        .iter()
        .zip(adornment.bytes())
        .filter(|&(_, b)| b == b'b')
        .map(|(t, _)| t.clone())
        .collect()
}

struct Rewriter<'p> {
    program: &'p Program,
    /// Predicates whose relations may hold base facts.
    base: &'p HashSet<SymId>,
    clauses_by_pred: HashMap<SymId, Vec<&'p Clause>>,
    adornable: HashSet<SymId>,
    /// Adornable predicates whose adorned relations depend on an adorned
    /// negation. Their literals pass no bindings sideways: a demand rule
    /// whose prefix read one would make the demand below a negation
    /// depend on its result — a cycle through negation wherever the
    /// same predicate and pattern are demanded on both sides of it (in
    /// the reduction, `dominate(C, u)` after a cautious belief and
    /// `dominate(C, C2)` inside `beaten`). Magic predicates then only
    /// ever depend on negation-free relations, so the rewrite of a
    /// stratified program stays stratified.
    tainted: HashSet<SymId>,
    /// Whether negated literals without existential variables are
    /// adorned.
    adorn_negation: bool,
    out: Vec<Clause>,
    /// Rendered-clause dedup (identical demand rules arise repeatedly).
    seen: HashSet<String>,
    queue: VecDeque<(SymId, String)>,
    done: HashSet<(SymId, String)>,
    /// Predicates whose original cones are included verbatim.
    plain: HashSet<SymId>,
    /// Negated predicates included verbatim.
    negated_plain: Vec<SymId>,
    magic_preds: Vec<SymId>,
}

impl Rewriter<'_> {
    fn push(&mut self, clause: Clause) {
        if self.seen.insert(clause.to_string()) {
            self.out.push(clause);
        }
    }

    /// Record demand for `(pred, adornment)`, scheduling its rules.
    fn demand(&mut self, pred: SymId, adornment: String) {
        if self.done.insert((pred, adornment.clone())) {
            self.magic_preds
                .push(SymId::intern(&magic_name(pred.as_str(), &adornment)));
            self.queue.push_back((pred, adornment));
        }
    }

    /// Include `pred`'s entire original dependency cone verbatim.
    fn include_plain(&mut self, pred: SymId) {
        if self.plain.contains(&pred) {
            return;
        }
        let mut cone: Vec<String> = self
            .program
            .dependencies_of([pred.as_str()])
            .into_iter()
            .collect();
        cone.sort_unstable();
        for name in &cone {
            let sym = SymId::intern(name);
            if !self.plain.insert(sym) {
                continue;
            }
            if let Some(clauses) = self.clauses_by_pred.get(&sym) {
                for c in clauses.clone() {
                    self.push(c.clone());
                }
            }
        }
    }

    /// Adorn `atom` under `bound`: emit its demand rule from `prefix`,
    /// schedule the adornment, and return the renamed atom.
    fn adorn(&mut self, atom: &Atom, bound: &HashSet<String>, prefix: &[Literal]) -> Atom {
        let adornment = adornment_of(atom, bound);
        let magic_head = Atom::new(
            magic_name(atom.predicate.as_str(), &adornment),
            bound_terms(&atom.terms, &adornment),
        );
        self.push_demand(magic_head, prefix);
        let renamed = Atom::new(
            adorned_name(atom.predicate.as_str(), &adornment),
            atom.terms.clone(),
        );
        self.demand(atom.predicate, adornment);
        renamed
    }

    /// Rewrite one rule body left-to-right: adorn positive derived
    /// literals and negated ones without existential variables, emit
    /// their demand rules from the prefix accumulated so far, and return
    /// the rewritten body for the guarded rule.
    ///
    /// `prefix` holds the literals every demand rule may assume — the
    /// guarding magic literal plus the prefix literals that are safe on
    /// their own — and `bound` the variables they bind. Comparisons and
    /// arithmetic whose operands a demand rule cannot yet bind, adorned
    /// negations, and tainted literals are *dropped* from prefixes,
    /// which only widens the demand and stays sound.
    fn process_body(
        &mut self,
        body: &[Literal],
        mut bound: HashSet<String>,
        mut prefix: Vec<Literal>,
    ) -> Vec<Literal> {
        let mut out = Vec::with_capacity(body.len());
        for (lit, single) in body.iter().zip(single_tuple_negations(body)) {
            match lit {
                Literal::Pos(a) if self.adornable.contains(&a.predicate) => {
                    let renamed = self.adorn(a, &bound, &prefix);
                    if !self.tainted.contains(&a.predicate) {
                        prefix.push(Literal::Pos(renamed.clone()));
                        bound.extend(a.variables().map(str::to_owned));
                    }
                    out.push(Literal::Pos(renamed));
                }
                Literal::Pos(a) => {
                    self.include_plain(a.predicate);
                    prefix.push(lit.clone());
                    bound.extend(a.variables().map(str::to_owned));
                    out.push(lit.clone());
                }
                Literal::Neg(a)
                    if self.adorn_negation && single && self.adornable.contains(&a.predicate) =>
                {
                    let renamed = self.adorn(a, &bound, &prefix);
                    out.push(Literal::Neg(renamed));
                }
                Literal::Neg(a) => {
                    if !self.plain.contains(&a.predicate) {
                        self.negated_plain.push(a.predicate);
                    }
                    self.include_plain(a.predicate);
                    prefix.push(lit.clone());
                    out.push(lit.clone());
                }
                Literal::Cmp { .. } => {
                    if lit.variables().iter().all(|v| bound.contains(*v)) {
                        prefix.push(lit.clone());
                    }
                    out.push(lit.clone());
                }
                Literal::Arith {
                    target, lhs, rhs, ..
                } => {
                    let operands_bound = lhs
                        .as_var()
                        .into_iter()
                        .chain(rhs.as_var())
                        .all(|v| bound.contains(v));
                    if operands_bound {
                        prefix.push(lit.clone());
                        if let Some(v) = target.as_var() {
                            bound.insert(v.to_owned());
                        }
                    }
                    out.push(lit.clone());
                }
            }
        }
        out
    }

    /// Emit the demand rule `magic_head :- prefix`, eliding the trivial
    /// self-propagation `m(X̄) :- m(X̄)`.
    fn push_demand(&mut self, magic_head: Atom, prefix: &[Literal]) {
        if let [Literal::Pos(only)] = prefix {
            if *only == magic_head {
                return;
            }
        }
        let clause = if prefix.is_empty() {
            // With an empty prefix every bound argument is a constant
            // (nothing could have bound a variable yet): a seed fact.
            Clause::fact(magic_head)
        } else {
            Clause::new(magic_head, prefix.to_vec())
        };
        self.push(clause);
    }

    /// Specialize every rule of `pred` for one demanded adornment.
    fn emit_adorned(&mut self, pred: SymId, adornment: &str) {
        let Some(clauses) = self.clauses_by_pred.get(&pred).cloned() else {
            return;
        };
        let arity = clauses[0].head.arity();
        let magic = magic_name(pred.as_str(), adornment);
        let adorned = adorned_name(pred.as_str(), adornment);
        if self.base.contains(&pred) {
            // Bridge the predicate's base facts into this adornment,
            // filtered by demand.
            let vars: Vec<Term> = (0..arity).map(|i| Term::var(format!("X{i}"))).collect();
            let magic_lit = Literal::Pos(Atom::new(&magic, bound_terms(&vars, adornment)));
            let body = vec![
                magic_lit,
                Literal::Pos(Atom::new(pred.as_str(), vars.clone())),
            ];
            self.push(Clause::new(Atom::new(&adorned, vars), body));
        }
        for c in clauses {
            let magic_lit = Literal::Pos(Atom::new(&magic, bound_terms(&c.head.terms, adornment)));
            let init_bound: HashSet<String> = bound_terms(&c.head.terms, adornment)
                .iter()
                .filter_map(|t| t.as_var().map(str::to_owned))
                .collect();
            let rewritten = self.process_body(&c.body, init_bound, vec![magic_lit.clone()]);
            let mut body = Vec::with_capacity(rewritten.len() + 1);
            body.push(magic_lit);
            body.extend(rewritten);
            self.push(
                Clause::new(Atom::new(&adorned, c.head.terms.clone()), body).with_span(c.span),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};
    use crate::{run_query, Engine};

    const CHAIN: &str = "
        edge(a, b). edge(b, c). edge(c, d). edge(x, y).
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
    ";

    /// A program's rules, its facts as a database, and the predicates
    /// carrying facts: the inputs of [`prepare`].
    fn split(src: &str) -> (Program, Database, HashSet<SymId>) {
        let p = parse_program(src).unwrap();
        let mut db = Database::new();
        let mut base = HashSet::new();
        let mut rules = Vec::new();
        for c in p.clauses() {
            if c.is_fact() {
                db.insert_id(c.head.predicate, c.head.as_fact().unwrap());
                base.insert(c.head.predicate);
            } else {
                rules.push(c.clone());
            }
        }
        (Program::from_clauses(rules).unwrap(), db, base)
    }

    /// Prepare `goal` over `src` with the given negation treatments and
    /// run it.
    fn run_with(src: &str, goal: &str, adorn_negation: &[bool]) -> (QueryAnswer, DemandStats) {
        let (rules, db, base) = split(src);
        let goal = parse_query(goal).unwrap();
        let plan = prepare_with(&rules, &base, &goal, &db, adorn_negation).expect("prepares");
        let (_, params) = prepared_key(&goal);
        let (answers, stats) = Engine::for_prepared(&plan)
            .run_prepared(db, &params)
            .unwrap();
        (answers, stats.demand.unwrap())
    }

    #[test]
    fn bound_goal_rewrites() {
        let (rules, db, base) = split(CHAIN);
        let goal = parse_query("path(a, X)").unwrap();
        let plan = prepare(&rules, &base, &goal, &db).expect("bound goal must rewrite");
        assert!(plan.adorned_predicates >= 1);
        assert!(plan
            .magic_predicates
            .iter()
            .any(|name| name.as_str().contains("path")));
        let (_, params) = prepared_key(&goal);
        let engine = Engine::for_prepared(&plan);
        let (answers, _) = engine.run_prepared(db.clone(), &params).unwrap();
        // Only paths from `a`; the x→y component is never demanded.
        assert_eq!(answers.len(), 3);
        assert!(
            plan.program()
                .clauses()
                .iter()
                .all(|c| c.head.predicate.as_str() != "path"),
            "original name not derived"
        );
    }

    #[test]
    fn unbound_goal_degenerates() {
        let (rules, db, base) = split(CHAIN);
        let goal = parse_query("path(X, Y)").unwrap();
        assert!(!goal_binds_arguments(&goal));
        assert!(prepare(&rules, &base, &goal, &db).is_none());
    }

    #[test]
    fn magic_matches_full_fixpoint_with_negation() {
        let src = "
            edge(a, b). edge(b, c).
            node(a). node(b). node(c).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            unreach(X, Y) :- node(X), node(Y), not path(X, Y).
        ";
        let p = parse_program(src).unwrap();
        let full = Engine::new(&p).unwrap().run().unwrap();
        for goal_src in [
            "unreach(a, Y)",
            "unreach(X, a)",
            "path(a, X), not edge(a, X)",
        ] {
            let goal = parse_query(goal_src).unwrap();
            let expect = run_query(&full, &goal).unwrap();
            let (got, _) = Engine::new(&p).unwrap().run_for_goal(&goal).unwrap();
            assert_eq!(got, expect, "goal `{goal_src}`");
        }
    }

    #[test]
    fn demanded_facts_stay_small() {
        // A 64-node chain: the full fixpoint holds O(n²) path tuples, a
        // single-source goal demands O(n).
        let mut src = String::new();
        for i in 0..64 {
            src.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
        }
        src.push_str("path(X, Y) :- edge(X, Y).\n");
        src.push_str("path(X, Z) :- path(X, Y), edge(Y, Z).\n");
        let p = parse_program(&src).unwrap();
        let full = Engine::new(&p).unwrap().run().unwrap();
        let goal = parse_query("path(n0, X)").unwrap();
        let (answers, stats) = Engine::new(&p).unwrap().run_for_goal(&goal).unwrap();
        assert_eq!(answers.len(), 64);
        let demand = stats.demand.expect("demand stats recorded");
        assert_eq!(demand.strategy, "magic");
        assert!(
            demand.facts_materialized < full.fact_count() / 2,
            "{} demanded vs {} full",
            demand.facts_materialized,
            full.fact_count()
        );
    }

    #[test]
    fn facts_plus_rules_route_through_edb_bridge() {
        let src = "
            n(0).
            n(M) :- n(N), N < 5, M = N + 1.
        ";
        let (rules, db, base) = split(src);
        let goal = parse_query("n(3)").unwrap();
        let plan = prepare(&rules, &base, &goal, &db).expect("ground goal rewrites");
        // The base facts of `n` reach its adorned variant through one
        // guarded bridge rule reading the base relation itself.
        let bridges: Vec<&Clause> = plan
            .program()
            .clauses()
            .iter()
            .filter(|c| c.head.predicate.as_str().starts_with("__ad_"))
            .filter(|c| {
                c.body
                    .iter()
                    .any(|l| matches!(l, Literal::Pos(a) if a.predicate.as_str() == "n"))
            })
            .collect();
        assert!(!bridges.is_empty(), "{}", plan.program());
        let (_, params) = prepared_key(&goal);
        let (answers, _) = Engine::for_prepared(&plan)
            .run_prepared(db, &params)
            .unwrap();
        assert!(answers.is_success());
    }

    #[test]
    fn ground_goal_yes_no() {
        let p = parse_program(CHAIN).unwrap();
        for (goal_src, expect) in [("path(a, d)", true), ("path(a, x)", false)] {
            let goal = parse_query(goal_src).unwrap();
            let (ans, _) = Engine::new(&p).unwrap().run_for_goal(&goal).unwrap();
            assert_eq!(ans.is_success(), expect, "goal `{goal_src}`");
            assert!(ans.variables.is_empty());
        }
    }

    #[test]
    fn prepared_rewrite_replays_across_constants() {
        let p = parse_program(CHAIN).unwrap();
        let full = Engine::new(&p).unwrap().run().unwrap();
        let (rules, db, base) = split(CHAIN);
        // Same binding pattern, different constants: one prepared plan
        // answers all of them.
        let first = parse_query("path(a, X)").unwrap();
        let prep = prepare(&rules, &base, &first, &db).expect("bound goal prepares");
        assert_eq!(prep.params, 1);
        for start in ["a", "b", "x"] {
            let goal = parse_query(&format!("path({start}, X)")).unwrap();
            let (key, consts) = prepared_key(&goal);
            assert_eq!(key, prepared_key(&first).0, "same pattern, same key");
            let (got, _) = Engine::for_prepared(&prep)
                .run_prepared(db.clone(), &consts)
                .unwrap();
            assert_eq!(got, run_query(&full, &goal).unwrap(), "start {start}");
        }
        // A different pattern (or variable naming) keys differently.
        let other = parse_query("path(X, a)").unwrap();
        assert_ne!(prepared_key(&other).0, prepared_key(&first).0);
        // Arity mismatch at run time is refused.
        let err = Engine::for_prepared(&prep).run_prepared(db, &[]);
        assert!(matches!(
            err,
            Err(crate::DatalogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn prepare_refuses_unbound_goals() {
        let (rules, db, base) = split(CHAIN);
        let goal = parse_query("path(X, Y)").unwrap();
        assert!(prepare(&rules, &base, &goal, &db).is_none());
    }

    /// `not blocked(X)` sits inside `reach`'s recursion. Passing the
    /// recursive `reach(Y)` sideways into `blocked`'s demand would close
    /// a cycle through the negation (`reach` → `not blocked` → demand for
    /// `blocked` → `reach`); because `reach` depends on an adorned
    /// negation, its literals pass no bindings, so the demand for
    /// `blocked` comes from `edge` alone and the rewrite stratifies with
    /// the negation adorned.
    const BLOCKED_REACH: &str = "
        source(n0).
        edge(n0, n1). edge(n1, n2). edge(n2, n2). edge(n2, n3). edge(n1, n4).
        edge(n4, n5). edge(n5, n5). edge(n5, n6). edge(n9, n8).
        blocked(X) :- edge(X, X).
        reach(X) :- source(X).
        reach(X) :- reach(Y), edge(Y, X), not blocked(X).
    ";

    #[test]
    fn negation_inside_recursion_is_adorned_without_a_cycle() {
        let (rules, db, base) = split(BLOCKED_REACH);
        let goal = parse_query("reach(n3)").unwrap();
        let plan = prepare_with(&rules, &base, &goal, &db, &[true]).expect("stratifies adorned");
        assert_eq!(plan.plain_under_negation, 0);
        let blocked_demand: Vec<&Clause> = plan
            .program()
            .clauses()
            .iter()
            .filter(|c| c.head.predicate.as_str().starts_with("__mg_b__blocked"))
            .collect();
        assert!(!blocked_demand.is_empty(), "{}", plan.program());
        for c in blocked_demand {
            let reads_reach = c.body.iter().any(|l| {
                l.atom().is_some_and(|a| {
                    let p = a.predicate.as_str();
                    p.starts_with("__ad_") && p.ends_with("__reach")
                })
            });
            assert!(
                !reads_reach,
                "demand for blocked reads reach's results: {c}"
            );
        }
        let program = parse_program(BLOCKED_REACH).unwrap();
        let full = Engine::new(&program).unwrap().run().unwrap();
        for n in 0..10 {
            let goal = parse_query(&format!("reach(n{n})")).unwrap();
            let (got, stats) = Engine::new(&program).unwrap().run_for_goal(&goal).unwrap();
            assert_eq!(got, run_query(&full, &goal).unwrap(), "reach(n{n})");
            let demand = stats.demand.unwrap();
            assert_eq!((demand.strategy, demand.plain_under_negation), ("magic", 0));
        }
    }

    /// The cautious-belief shape of the reduction's axioms: a value is
    /// believed when it is visible and no visible rival for the same key
    /// dominates its classification.
    fn cautious_source(keys: usize) -> String {
        let mut src = String::from("dom(c0, c1). dom(c1, c2). dom(c0, c2).\n");
        for k in 0..keys {
            for (v, c) in [(0, 0), (1, 1), (2, k % 3)] {
                src.push_str(&format!("cell(k{k}, v{v}, c{c}).\n"));
            }
        }
        src.push_str(
            "visible(K, V, C) :- cell(K, V, C).\n\
             beaten(K, C) :- visible(K, V, C), visible(K, V2, C2), dom(C, C2), C != C2.\n\
             believed(K, V, C) :- visible(K, V, C), not beaten(K, C).\n",
        );
        src
    }

    #[test]
    fn bound_negation_is_adorned_and_materializes_less() {
        let src = cautious_source(40);
        let program = parse_program(&src).unwrap();
        let full = Engine::new(&program).unwrap().run().unwrap();
        for k in [0, 1, 2, 17] {
            let goal_src = format!("believed(k{k}, V, C)");
            let expect = run_query(&full, &parse_query(&goal_src).unwrap()).unwrap();
            let (adorned, adorned_stats) = run_with(&src, &goal_src, &[true]);
            let (plain, plain_stats) = run_with(&src, &goal_src, &[false]);
            assert_eq!(adorned, expect, "{goal_src}");
            assert_eq!(plain, expect, "{goal_src}");
            assert_eq!(adorned_stats.plain_under_negation, 0);
            assert_eq!(plain_stats.plain_under_negation, 2, "beaten and visible");
            assert!(
                adorned_stats.facts_materialized < plain_stats.facts_materialized,
                "{goal_src}: adorned {} vs plain {}",
                adorned_stats.facts_materialized,
                plain_stats.facts_materialized
            );
        }
    }
}
