//! Bottom-up semi-naive evaluation, stratum by stratum.
//!
//! A stratum's rules are evaluated one strongly connected component of
//! their heads at a time, in dependency order. Each component's rules
//! are compiled into slot-allocated join plans ([`crate::plan`]) whose
//! literal order is chosen greedily, plus, for each rule and each body
//! occurrence of a predicate of the component, a variant where that
//! occurrence draws from the delta of the previous iteration; a
//! non-recursive component has no variants and runs once. The naive,
//! tuple-at-a-time [`crate::reference`] evaluator is the oracle this
//! engine is differentially tested against.
//!
//! Negated literals may contain variables that occur in no positive
//! literal textually before them; these are read as existentially
//! quantified *inside* the negation (`¬∃Y p(X, Y)`), which is the
//! convention the MultiLog reduction axioms (Figure 12 of the paper) rely
//! on. Stratification guarantees the negated relation is fully computed
//! before it is consulted.
//!
//! # Parallelism
//!
//! With [`Engine::with_threads`] above 1, each semi-naive iteration
//! partitions its rule variants across scoped worker threads evaluating
//! against an immutable snapshot of the database; the main thread merges
//! the derived facts in variant order. The merge order — and therefore
//! the final database — is deterministic: the sorted contents are
//! identical for every thread count. With 1 thread the engine evaluates
//! variants strictly sequentially, in which case facts derived early in
//! an iteration are already visible to later variants of the same
//! iteration (the historical behaviour).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::algo;
use crate::atom::{Atom, Literal};
use crate::clause::{AggFunc, Clause};
use crate::fx::FxHashMap;
use crate::guard::{CancelToken, EvalGuard};
use crate::magic::{self, PreparedMagic};
use crate::plan::{delta_positions, RulePlan, Scratch};
use crate::program::{DepGraph, Program};
use crate::query::{run_query, QueryAnswer, QueryGuards};
use crate::storage::{key_of, Database, Fact, FactBuf, Relation};
use crate::term::{Const, SymId, Term};
use crate::trace::{TraceEvent, TraceSink};
use crate::{DatalogError, Result};

/// Per-rule counters, aggregated over every variant and application of
/// one source rule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Rendering of the source rule.
    pub rule: String,
    /// Zero-based stratum the rule's head belongs to.
    pub stratum: usize,
    /// Rule-variant applications attempted.
    pub applications: usize,
    /// Head tuples produced, including duplicates.
    pub facts_derived: usize,
    /// Tuples genuinely new to the database.
    pub facts_added: usize,
    /// Derived tuples discarded as already present.
    pub dedup_hits: usize,
    /// Rows enumerated from scans (index probes and delta sweeps) while
    /// evaluating this rule. A negation counts one probe per membership
    /// test when it binds every column, and otherwise the candidate rows
    /// its probe scanned for each distinct bound-cell tuple.
    pub join_probes: u64,
    /// Merge joins that defected to a hash join on every bound column
    /// because a key group would have cost more than a relation scan.
    pub join_defections: u64,
    /// Wall time spent in this rule's applications, in nanoseconds.
    pub wall_ns: u64,
}

/// Per-stratum counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StratumStats {
    /// Zero-based stratum index.
    pub stratum: usize,
    /// Predicates defined in the stratum.
    pub predicates: Vec<String>,
    /// Fixpoint rounds the stratum ran, summed over its components.
    pub iterations: usize,
    /// Facts the stratum added.
    pub facts_added: usize,
    /// Wall time of the stratum, in nanoseconds.
    pub wall_ns: u64,
}

/// How a goal-directed run ([`Engine::run_for_goal`]) pruned the
/// fixpoint, for observing demand effectiveness in `--stats` output and
/// benchmarks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DemandStats {
    /// `"magic"` when the magic-sets rewrite was applied, `"cone"` when
    /// the goal bound no arguments (or no sound rewrite existed) and
    /// evaluation fell back to dependency-cone restriction.
    pub strategy: &'static str,
    /// Size of the goal's plain dependency cone (the predicates a
    /// cone-restricted run would materialize in full).
    pub cone_predicates: usize,
    /// Number of adorned predicate variants in the rewritten program —
    /// the *adorned* cone size (0 under the cone fallback).
    pub adorned_predicates: usize,
    /// Tuples held by the generated magic (demand) predicates.
    pub magic_facts: usize,
    /// Total facts the goal-directed run materialized; compare against
    /// the full fixpoint's fact count to see the demand win.
    pub facts_materialized: usize,
    /// Rules (and machinery clauses) the caller removed from the
    /// program before this run, e.g. by lattice-flow demand pruning.
    /// Always 0 for runs over an unpruned program.
    pub pruned_rules: usize,
    /// Derived predicates the rewrite still evaluated in full because
    /// they sit under a negation it could not adorn (0 under the cone
    /// fallback).
    pub plain_under_negation: usize,
}

/// Counters describing an evaluation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds summed over all strata. A full evaluation runs
    /// each stratum one strongly connected component at a time, and each
    /// component counts its own rounds: one for a non-recursive one.
    pub iterations: usize,
    /// Number of rule-variant applications attempted.
    pub rule_applications: usize,
    /// Facts produced (including duplicates that were discarded).
    pub facts_considered: usize,
    /// Facts actually added to the database.
    pub facts_added: usize,
    /// The join order chosen for every compiled rule variant, as
    /// `head [(Δ@pos)] :- [textual body indices in execution order]`.
    pub join_orders: Vec<String>,
    /// Counters per source rule, grouped by stratum; within a stratum
    /// in evaluation order: by component, then in program order.
    pub per_rule: Vec<RuleStats>,
    /// Counters per stratum, in evaluation order.
    pub per_stratum: Vec<StratumStats>,
    /// Demand-pruning counters, present only for goal-directed runs.
    pub demand: Option<DemandStats>,
}

impl EvalStats {
    /// Render the per-stratum and per-rule counters as a human-readable
    /// table (used by the CLI's `--stats` flag).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "evaluation: {} iterations, {} applications, {} derived, {} added",
            self.iterations, self.rule_applications, self.facts_considered, self.facts_added
        );
        if let Some(d) = &self.demand {
            let _ = writeln!(
                out,
                "demand({}): cone={} adorned={} magic_facts={} materialized={} \
                 plain_under_negation={} pruned={}",
                d.strategy,
                d.cone_predicates,
                d.adorned_predicates,
                d.magic_facts,
                d.facts_materialized,
                d.plain_under_negation,
                d.pruned_rules
            );
        }
        for s in &self.per_stratum {
            let _ = writeln!(
                out,
                "stratum {}: iterations={} facts_added={} wall_ms={:.3} [{}]",
                s.stratum,
                s.iterations,
                s.facts_added,
                s.wall_ns as f64 / 1e6,
                s.predicates.join(", ")
            );
        }
        for r in &self.per_rule {
            let _ = writeln!(
                out,
                "rule (stratum {}): {}\n  apps={} derived={} added={} dedup_hits={} \
                 join_probes={} join_defections={} wall_ms={:.3}",
                r.stratum,
                r.rule,
                r.applications,
                r.facts_derived,
                r.facts_added,
                r.dedup_hits,
                r.join_probes,
                r.join_defections,
                r.wall_ns as f64 / 1e6,
            );
        }
        out
    }
}

/// A group of rules — one strongly connected component of a stratum, or
/// a whole stratum of a prepared demand plan — compiled into join plans:
/// one base plan per rule and one delta variant per body occurrence of a
/// predicate of the group. Cardinality estimates for the greedy join
/// order come from the database the group was compiled against.
#[derive(Debug)]
pub(crate) struct CompiledStratum {
    /// Renderings of the source rules, for per-rule counters.
    rules: Vec<String>,
    base: Vec<RulePlan>,
    variants: Vec<RulePlan>,
    /// The source rule (index into `rules`) of each variant.
    variant_rule: Vec<usize>,
}

impl CompiledStratum {
    /// Compile `rules` with a delta variant for each body occurrence of
    /// a predicate in `in_stratum`.
    pub(crate) fn compile(
        rules: &[&Clause],
        in_stratum: &HashSet<SymId>,
        db: &Database,
    ) -> Result<Self> {
        let base = rules
            .iter()
            .map(|r| RulePlan::compile(r, None, db))
            .collect::<Result<Vec<_>>>()?;
        let mut compiled = CompiledStratum {
            rules: rules.iter().map(ToString::to_string).collect(),
            base,
            variants: Vec::new(),
            variant_rule: Vec::new(),
        };
        for (ri, r) in rules.iter().enumerate() {
            for p in delta_positions(r, in_stratum) {
                compiled.variants.push(RulePlan::compile(r, Some(p), db)?);
                compiled.variant_rule.push(ri);
            }
        }
        Ok(compiled)
    }

    /// Every `(predicate, column)` the plans probe by value.
    pub(crate) fn index_needs(&self) -> impl Iterator<Item = (SymId, usize)> + '_ {
        self.base
            .iter()
            .chain(&self.variants)
            .flat_map(|p| p.index_needs.iter().copied())
    }

    /// Zeroed per-rule counters for the stratum's rules.
    fn rule_stats(&self, stratum: usize) -> impl Iterator<Item = RuleStats> + '_ {
        self.rules.iter().map(move |r| RuleStats {
            rule: r.clone(),
            stratum,
            ..RuleStats::default()
        })
    }
}

/// `rules` grouped by the strongly connected component of their head
/// predicates in the graph of their positive body literals, components
/// in dependency order ([`DepGraph::condensation`]) and rules in their
/// given order within each.
fn components<'c>(rules: &[&'c Clause]) -> Vec<Vec<&'c Clause>> {
    let mut heads: Vec<SymId> = rules.iter().map(|r| r.head.predicate).collect();
    heads.sort_unstable();
    heads.dedup();
    let node = |p: SymId| heads.binary_search(&p).ok();
    let edges = rules
        .iter()
        .flat_map(|r| {
            let h = node(r.head.predicate);
            r.body.iter().filter_map(move |l| match l {
                Literal::Pos(a) => Some((node(a.predicate)?, h?, false)),
                _ => None,
            })
        })
        .collect();
    let names = heads.iter().map(ToString::to_string).collect();
    let condensation = DepGraph::from_edges(names, edges).condensation();
    let mut comp_of = vec![0; heads.len()];
    for (c, nodes) in condensation.iter().enumerate() {
        for &n in nodes {
            comp_of[n] = c;
        }
    }
    let mut out = vec![Vec::new(); condensation.len()];
    for &r in rules {
        if let Some(h) = node(r.head.predicate) {
            out[comp_of[h]].push(r);
        }
    }
    out
}

/// A bottom-up evaluator for one program.
pub struct Engine<'p> {
    /// The program as given; its fact clauses seed every run.
    program: &'p Program,
    /// The program's rules (its fact clauses dropped, its arity table
    /// whole): everything the engine compiles, stratifies by and
    /// restricts to a goal's cone.
    rules: Cow<'p, Program>,
    fact_limit: usize,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    trace: Option<Arc<dyn TraceSink>>,
    threads: usize,
    parallel_threshold: usize,
    strata: Cow<'p, [Vec<String>]>,
    /// The prepared demand plan this engine runs, when built by
    /// [`Engine::for_prepared`].
    prepared: Option<&'p PreparedMagic>,
}

impl<'p> Engine<'p> {
    /// Create an engine, stratifying the program.
    ///
    /// # Errors
    ///
    /// [`DatalogError::NotStratifiable`] if negation occurs through
    /// recursion.
    pub fn new(program: &'p Program) -> Result<Self> {
        let strat = program.stratify()?;
        let strata = strat.iter().map(<[String]>::to_vec).collect();
        let mut engine = Self::with_parts(program, Cow::Owned(strata), None);
        if program.clauses().iter().any(Clause::is_fact) {
            engine.rules = Cow::Owned(program.without_facts());
        }
        Ok(engine)
    }

    /// An engine for a prepared demand plan ([`magic::prepare`]), to be
    /// configured with the builder methods and run with
    /// [`Engine::run_prepared`]. Nothing is stratified or compiled here:
    /// the plan carries its strata and join plans.
    pub fn for_prepared(plan: &'p PreparedMagic) -> Self {
        Self::with_parts(plan.program(), Cow::Borrowed(plan.strata()), Some(plan))
    }

    /// An engine over `program` with strata the caller computed from it
    /// (the incremental engine stratifies once, at construction).
    pub(crate) fn with_strata(program: &'p Program, strata: &'p [Vec<String>]) -> Self {
        Self::with_parts(program, Cow::Borrowed(strata), None)
    }

    fn with_parts(
        program: &'p Program,
        strata: Cow<'p, [Vec<String>]>,
        prepared: Option<&'p PreparedMagic>,
    ) -> Self {
        Engine {
            program,
            rules: Cow::Borrowed(program),
            fact_limit: 10_000_000,
            deadline: None,
            cancel: None,
            trace: None,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            parallel_threshold: 512,
            strata,
            prepared,
        }
    }

    /// This engine with `other`'s configuration: guards, trace and
    /// threads.
    fn configured_like(self, other: &Engine<'_>) -> Self {
        Engine {
            fact_limit: other.fact_limit,
            deadline: other.deadline,
            cancel: other.cancel.clone(),
            trace: other.trace.clone(),
            threads: other.threads,
            parallel_threshold: other.parallel_threshold,
            ..self
        }
    }

    /// Set the guard budget on the number of derived facts. Checked both
    /// between iterations and — flushed in batches — inside the join
    /// inner loop, so one cross-product iteration cannot overrun the
    /// budget unbounded. Trips as [`DatalogError::BudgetExceeded`].
    pub fn with_fact_limit(mut self, limit: usize) -> Self {
        self.fact_limit = limit;
        self
    }

    /// Set a wall-clock deadline for the whole run, checked every few
    /// thousand join steps. Trips as [`DatalogError::DeadlineExceeded`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cooperative cancellation token, shared with every
    /// parallel worker. Cancelling it makes the run return
    /// [`DatalogError::Cancelled`] at the next guard check.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach a trace sink receiving stratum, iteration, rule, and
    /// guard-trip events.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    fn emit(&self, event: &TraceEvent<'_>) {
        if let Some(t) = &self.trace {
            t.event(event);
        }
    }

    /// Set the number of worker threads (default: the machine's available
    /// parallelism). `1` evaluates strictly sequentially, preserving the
    /// historical execution order exactly.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the minimum number of input facts an iteration must consume
    /// before it is parallelised (default: 512). Iterations below the
    /// threshold run sequentially — thread spawn overhead dominates on
    /// tiny deltas. Tests force the parallel path with `0`.
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = threshold;
        self
    }

    /// Evaluate to fixpoint and return the full database.
    pub fn run(&self) -> Result<Database> {
        Ok(self.run_with_stats()?.0)
    }

    /// Evaluate only the predicates the given query predicates depend on
    /// — the practical counterpart of magic sets for ad hoc queries: the
    /// answers over the restricted database coincide with those over the
    /// full one, but unrelated relations are never materialized.
    pub fn run_for_query<'a>(
        &self,
        query_preds: impl IntoIterator<Item = &'a str>,
    ) -> Result<Database> {
        let needed = self.rules.dependencies_of(query_preds);
        let base = self.seeded(Database::new())?;
        Ok(self.run_inner(Some(&needed), &[], base)?.0)
    }

    /// Evaluate to fixpoint, also returning counters.
    pub fn run_with_stats(&self) -> Result<(Database, EvalStats)> {
        self.run_over(Database::new())
    }

    /// Evaluate the program's rules to fixpoint over `base` plus the
    /// program's fact clauses, returning the database and counters.
    pub(crate) fn run_over(&self, base: Database) -> Result<(Database, EvalStats)> {
        self.run_inner(None, &[], self.seeded(base)?)
    }

    /// `base` with the program's fact clauses inserted: the database
    /// every run starts from. Facts are data — seeded here, never
    /// compiled into rule plans.
    fn seeded(&self, mut base: Database) -> Result<Database> {
        for c in self.program.clauses().iter().filter(|c| c.is_fact()) {
            let fact = c.head.as_fact().ok_or_else(|| DatalogError::Internal {
                detail: format!("fact clause `{c}` has a non-ground head"),
            })?;
            base.insert_id(c.head.predicate, fact);
        }
        Ok(base)
    }

    /// Answer a partially-bound goal by evaluating only the sub-fixpoint
    /// it demands.
    ///
    /// When some argument of a positive goal literal is bound, the
    /// program's rules are rewritten with the magic-sets transformation
    /// ([`magic::prepare`]) and the plan runs over the program's facts
    /// with this engine's configuration (guards, threads); only
    /// tuples reachable from the goal's constants are materialized. When
    /// no argument is bound — or no sound rewrite exists — evaluation
    /// falls back to dependency-cone restriction (as
    /// [`Engine::run_cone`]).
    ///
    /// Either way the answers equal [`run_query`] over the full fixpoint,
    /// and [`EvalStats::demand`] records which strategy ran and how much
    /// it materialized.
    ///
    /// # Errors
    ///
    /// Guard trips ([`DatalogError::BudgetExceeded`],
    /// [`DatalogError::DeadlineExceeded`], [`DatalogError::Cancelled`])
    /// propagate exactly as they would from a full run; an unsafe goal
    /// fails as in [`run_query`].
    ///
    /// The rules are prepared anew on every call; callers answering many
    /// goals of one shape keep the [`PreparedMagic`] and call
    /// [`Engine::run_prepared`] instead.
    pub fn run_for_goal(&self, goal: &[Literal]) -> Result<(QueryAnswer, EvalStats)> {
        let base = self.seeded(Database::new())?;
        if magic::goal_binds_arguments(goal) {
            let carriers: HashSet<SymId> = base.predicates().map(SymId::intern).collect();
            if let Some(plan) = magic::prepare(&self.rules, &carriers, goal, &base) {
                let (_, params) = magic::prepared_key(goal);
                return Engine::for_prepared(&plan)
                    .configured_like(self)
                    .run_prepared(base, &params);
            }
        }
        self.cone_over(base, goal)
    }

    /// Answer `goal` from its dependency cone, with no magic rewrite:
    /// evaluate the program's rules for the predicates the goal depends
    /// on, over `base` plus the program's fact clauses, then query the
    /// result. `base` is typically a clone of a shared base database.
    ///
    /// # Errors
    ///
    /// As for [`Engine::run_for_goal`].
    pub fn run_cone(&self, base: Database, goal: &[Literal]) -> Result<(QueryAnswer, EvalStats)> {
        self.cone_over(self.seeded(base)?, goal)
    }

    /// [`Engine::run_cone`] over an already seeded `base`.
    fn cone_over(&self, base: Database, goal: &[Literal]) -> Result<(QueryAnswer, EvalStats)> {
        let seeds: Vec<&str> = goal
            .iter()
            .filter_map(Literal::atom)
            .map(|a| a.predicate.as_str())
            .collect();
        let needed = self.rules.dependencies_of(seeds);
        let (db, mut stats) = self.run_inner(Some(&needed), goal, base)?;
        // Algo calls appearing only in the goal have no stratum in the
        // program; materialize them now, over the finished cone fixpoint
        // (their input is complete by construction).
        let guards = QueryGuards {
            deadline: self.deadline,
            fact_limit: self.fact_limit,
            cancel: self.cancel.clone(),
        };
        let db = crate::query::with_goal_calls(&db, goal, &guards)?.unwrap_or(db);
        let answer = run_query(&db, goal)?;
        stats.demand = Some(DemandStats {
            strategy: "cone",
            cone_predicates: needed.len(),
            facts_materialized: db.fact_count(),
            ..DemandStats::default()
        });
        Ok((answer, stats))
    }

    /// Answer one goal of the prepared plan's shape: insert `params` (the
    /// goal's constants, in [`magic::prepared_key`] order) as the plan's
    /// parameter fact into `edb`, which holds the base facts, and run the
    /// plan's precompiled strata under this engine's configuration.
    /// `edb` is typically a clone of a shared base database, whose
    /// relations stay shared until a rule writes to them.
    ///
    /// # Errors
    ///
    /// [`DatalogError::Internal`] for an engine not built by
    /// [`Engine::for_prepared`]; [`DatalogError::ArityMismatch`] when
    /// `params` does not match the plan; guard trips as for
    /// [`Engine::run_for_goal`].
    pub fn run_prepared(
        &self,
        mut edb: Database,
        params: &[Const],
    ) -> Result<(QueryAnswer, EvalStats)> {
        let plan = self.prepared.ok_or_else(|| DatalogError::Internal {
            detail: "run_prepared needs an engine built by Engine::for_prepared".into(),
        })?;
        plan.seed(&mut edb, params)?;
        let mut stats = EvalStats::default();
        let guard = EvalGuard::new(self.deadline, self.fact_limit, self.cancel.clone());
        for (idx, (stratum, compiled)) in plan.strata().iter().zip(plan.compiled()).enumerate() {
            self.run_stratum(idx, stratum, &mut stats, |stats| {
                self.run_compiled(compiled, idx, &mut edb, stats, &guard)
            })?;
        }
        stats.demand = Some(plan.demand_stats(&edb));
        Ok((plan.answers(&edb), stats))
    }

    /// Run every stratum over `db`, which holds the base facts. Under
    /// `restrict` only the listed predicates are kept and evaluated.
    fn run_inner(
        &self,
        restrict: Option<&HashSet<String>>,
        extra: &[Literal],
        mut db: Database,
    ) -> Result<(Database, EvalStats)> {
        let mut stats = EvalStats::default();
        let guard = EvalGuard::new(self.deadline, self.fact_limit, self.cancel.clone());
        if let Some(needed) = restrict {
            db.retain_predicates(|p| needed.contains(p));
        }
        // Ensure every evaluated predicate has a (possibly empty)
        // relation so that negation over never-derived predicates works
        // uniformly. Under restriction only the cone's relations are
        // created — out-of-cone predicates must not leak empty relations
        // into the returned database; join plans treat a missing relation
        // as empty, so negation over one still behaves correctly.
        for pred in self.rules.predicates() {
            if restrict.is_none_or(|n| n.contains(pred)) && db.relation(pred).is_none() {
                db.relation_mut(pred);
            }
        }
        for stratum_idx in 0..self.strata.len() {
            self.eval_stratum(stratum_idx, restrict, extra, &mut db, &mut stats, &guard)?;
        }
        Ok((db, stats))
    }

    /// Evaluate stratum `stratum_idx` from its base facts, which `db`
    /// already holds, over the complete lower strata: native algorithm
    /// operators first (their inputs are in lower strata), then
    /// aggregate folds (ditto), then the stratum's rules — which see both
    /// as already-materialized relations — one strongly connected
    /// component of their heads at a time, in dependency order. Each
    /// component is compiled against the complete output of the ones
    /// before it and gets delta variants only for its own predicates, so
    /// a non-recursive component runs its base plans once. The one
    /// from-scratch stratum step, shared by batch runs, incremental
    /// recovery and incremental stratum recomputes. The base facts count
    /// towards the stratum's `facts_added` and `facts_considered`; only
    /// rules get per-rule counters and join orders.
    pub(crate) fn eval_stratum(
        &self,
        stratum_idx: usize,
        restrict: Option<&HashSet<String>>,
        extra: &[Literal],
        db: &mut Database,
        stats: &mut EvalStats,
        guard: &EvalGuard,
    ) -> Result<()> {
        let stratum = &self.strata[stratum_idx];
        let in_stratum: HashSet<SymId> = stratum
            .iter()
            .filter(|p| restrict.is_none_or(|n| n.contains(*p)))
            .map(|p| SymId::intern(p))
            .collect();
        // The stratum's rules. Aggregate clauses are split off: their
        // bodies live strictly below this stratum, so they are folded
        // once, before the fixpoint, and their results behave like EDB
        // facts for the stratum's rules.
        let (agg_rules, rules): (Vec<&Clause>, Vec<&Clause>) = self
            .rules
            .clauses()
            .iter()
            .filter(|c| in_stratum.contains(&c.head.predicate))
            .partition(|c| c.agg.is_some());
        self.run_stratum(stratum_idx, stratum, stats, |stats| {
            let seeded: usize = in_stratum
                .iter()
                .filter_map(|&p| db.relation_id(p))
                .map(Relation::len)
                .sum();
            stats.facts_considered += seeded;
            stats.facts_added += seeded;
            guard.check_db(db.fact_count())?;
            self.materialize_algos(stratum, restrict, extra, db, stats, guard)?;
            self.apply_aggregates(&agg_rules, stratum_idx, db, stats, guard)?;
            for component in components(&rules) {
                let heads = component.iter().map(|r| r.head.predicate).collect();
                let compiled = CompiledStratum::compile(&component, &heads, db)?;
                self.run_compiled(&compiled, stratum_idx, db, stats, guard)?;
            }
            Ok(())
        })
    }

    /// Run one stratum's work (`body`), recording its counters and trace
    /// events; a guard trip inside it is traced before it propagates.
    fn run_stratum(
        &self,
        stratum_idx: usize,
        predicates: &[String],
        stats: &mut EvalStats,
        body: impl FnOnce(&mut EvalStats) -> Result<()>,
    ) -> Result<()> {
        self.emit(&TraceEvent::StratumStart {
            stratum: stratum_idx,
            predicates,
        });
        let started = Instant::now();
        let iters_before = stats.iterations;
        let added_before = stats.facts_added;
        let result = body(stats);
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stats.per_stratum.push(StratumStats {
            stratum: stratum_idx,
            predicates: predicates.to_vec(),
            iterations: stats.iterations - iters_before,
            facts_added: stats.facts_added - added_before,
            wall_ns,
        });
        if let Err(err) = result {
            if matches!(
                err,
                DatalogError::BudgetExceeded { .. }
                    | DatalogError::DeadlineExceeded { .. }
                    | DatalogError::Cancelled
            ) {
                self.emit(&TraceEvent::GuardTrip { error: &err });
            }
            return Err(err);
        }
        self.emit(&TraceEvent::StratumEnd {
            stratum: stratum_idx,
            iterations: stats.iterations - iters_before,
            facts_added: stats.facts_added - added_before,
            wall_ns,
        });
        Ok(())
    }

    /// Materialize every `@algo(input)` call predicate assigned to this
    /// stratum by running its registered operator over the (complete)
    /// input relation. The output behaves like EDB facts for the
    /// stratum's rules: the semi-naive base iteration sees it in full.
    fn materialize_algos(
        &self,
        stratum: &[String],
        restrict: Option<&HashSet<String>>,
        extra: &[Literal],
        db: &mut Database,
        stats: &mut EvalStats,
        guard: &EvalGuard,
    ) -> Result<()> {
        for pred in stratum {
            let Some((name, input)) = algo::parse_call(pred) else {
                continue;
            };
            if restrict.is_some_and(|n| !n.contains(pred)) {
                continue;
            }
            let pred_sym = SymId::intern(pred);
            let patterns = algo::call_patterns(&self.rules, extra, pred_sym);
            let Some(call_arity) = patterns.first().map(Vec::len) else {
                continue; // no call site demands this predicate
            };
            let out = algo::materialize(name, db.relation(input), call_arity, &patterns, guard)?;
            guard.begin_round(db.fact_count());
            stats
                .join_orders
                .push(format!("{pred} :- [native @{name} over {input}]"));
            stats.facts_considered += out.len();
            // A from-scratch stratum holds no call facts yet: the output
            // is stored as built.
            if db.relation_id(pred_sym).is_none_or(Relation::is_empty) {
                stats.facts_added += out.len();
                db.install_relation_id(pred_sym, out);
            } else {
                for fact in out.iter() {
                    if db.insert_id(pred_sym, fact) {
                        stats.facts_added += 1;
                    }
                }
            }
            guard.check_db(db.fact_count())?;
        }
        Ok(())
    }

    /// Evaluate the stratum's aggregate clauses: for each, enumerate the
    /// body's *distinct witness bindings* (its bound variables — positive
    /// occurrences and arithmetic targets; negation-only variables are
    /// existential), group them by the non-aggregated head positions, and
    /// fold the aggregate function over each group. Distinct-witness bag
    /// semantics mean two tuples differing only in a non-grouped column
    /// still count separately — which is what makes polyinstantiated
    /// m-atoms aggregate correctly after the MultiLog reduction.
    fn apply_aggregates(
        &self,
        aggs: &[&Clause],
        stratum_idx: usize,
        db: &mut Database,
        stats: &mut EvalStats,
        guard: &EvalGuard,
    ) -> Result<()> {
        enum Acc {
            Int(i64),
            Best(Const),
        }
        for c in aggs {
            let Some(agg) = c.agg else {
                return Err(DatalogError::Internal {
                    detail: "non-aggregate clause reached the aggregate pass".into(),
                });
            };
            let agg_err = |message: String| DatalogError::AggregateFailure {
                clause: c.to_string(),
                message,
            };
            // Bound body variables in first-occurrence order: the
            // projection whose distinct rows are the witnesses.
            let mut seen: HashSet<&str> = HashSet::new();
            let mut wvars: Vec<&str> = Vec::new();
            for l in &c.body {
                match l {
                    Literal::Pos(a) => {
                        for v in a.variables() {
                            if seen.insert(v) {
                                wvars.push(v);
                            }
                        }
                    }
                    Literal::Arith { target, .. } => {
                        if let Some(v) = target.as_var() {
                            if seen.insert(v) {
                                wvars.push(v);
                            }
                        }
                    }
                    Literal::Neg(_) | Literal::Cmp { .. } => {}
                }
            }
            let witness = Clause::new(
                Atom::new("__agg_witness", wvars.iter().map(Term::var).collect()),
                c.body.clone(),
            );
            let plan = RulePlan::compile(&witness, None, db)?;
            for &(p, col) in &plan.index_needs {
                db.ensure_index_id(p, col);
            }
            guard.begin_round(db.fact_count());
            stats.rule_applications += 1;
            let started = Instant::now();
            let mut scratch = plan.new_scratch();
            let mut out = FactBuf::default();
            plan.eval(db, None, &mut scratch, &mut out, guard)?;
            let var_ix: FxHashMap<&str, usize> =
                wvars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            let value_at = |row: &[Const], t: &Term| -> Result<Const> {
                if let Some(v) = t.as_var() {
                    var_ix
                        .get(v)
                        .map(|&i| row[i])
                        .ok_or_else(|| DatalogError::Internal {
                            detail: format!("aggregate head variable `{v}` not bound by the body"),
                        })
                } else {
                    t.as_const().copied().ok_or_else(|| DatalogError::Internal {
                        detail: "aggregate head term neither variable nor constant".into(),
                    })
                }
            };
            let mut distinct = Relation::new();
            let mut groups: FxHashMap<Vec<Const>, Acc> = FxHashMap::default();
            for row in out.rows() {
                if !distinct.insert(Fact::from(row)) {
                    continue;
                }
                let value = value_at(row, &c.head.terms[agg.position])?;
                let mut key: Vec<Const> = Vec::with_capacity(c.head.terms.len().saturating_sub(1));
                for (i, t) in c.head.terms.iter().enumerate() {
                    if i != agg.position {
                        key.push(value_at(row, t)?);
                    }
                }
                match groups.entry(key) {
                    Entry::Vacant(e) => {
                        e.insert(match agg.func {
                            AggFunc::Count => Acc::Int(1),
                            AggFunc::Sum => Acc::Int(value.as_int().ok_or_else(|| {
                                agg_err(format!("sum over non-integer `{value}`"))
                            })?),
                            AggFunc::Min | AggFunc::Max => Acc::Best(value),
                        });
                    }
                    Entry::Occupied(mut e) => match (e.get_mut(), agg.func) {
                        (Acc::Int(n), AggFunc::Count) => {
                            *n = n
                                .checked_add(1)
                                .ok_or_else(|| agg_err("count overflowed i64".into()))?;
                        }
                        (Acc::Int(n), AggFunc::Sum) => {
                            let v = value.as_int().ok_or_else(|| {
                                agg_err(format!("sum over non-integer `{value}`"))
                            })?;
                            *n = n
                                .checked_add(v)
                                .ok_or_else(|| agg_err("sum overflowed i64".into()))?;
                        }
                        (Acc::Best(b), AggFunc::Min | AggFunc::Max) => {
                            let ord = value.try_cmp(b).ok_or_else(|| {
                                agg_err(format!("cannot order `{value}` against `{b}`"))
                            })?;
                            let better = match agg.func {
                                AggFunc::Min => ord == Ordering::Less,
                                _ => ord == Ordering::Greater,
                            };
                            if better {
                                *b = value;
                            }
                        }
                        _ => {
                            return Err(DatalogError::Internal {
                                detail: "aggregate accumulator kind mismatch".into(),
                            });
                        }
                    },
                }
            }
            // Deterministic emission: groups sorted by the storage key
            // order, independent of the thread count.
            let mut keyed: Vec<(Vec<Const>, Const)> = groups
                .into_iter()
                .map(|(k, acc)| {
                    let v = match acc {
                        Acc::Int(n) => Const::int(n),
                        Acc::Best(b) => b,
                    };
                    (k, v)
                })
                .collect();
            keyed.sort_by_key(|(k, _)| k.iter().map(|&c| key_of(c)).collect::<Vec<u128>>());
            let derived = keyed.len();
            let mut added = 0usize;
            let mut fact: Vec<Const> = Vec::with_capacity(c.head.terms.len());
            for (key, v) in keyed {
                fact.clear();
                let mut ki = key.into_iter();
                for i in 0..c.head.terms.len() {
                    if i == agg.position {
                        fact.push(v);
                    } else {
                        fact.push(ki.next().ok_or_else(|| DatalogError::Internal {
                            detail: "aggregate group key shorter than head".into(),
                        })?);
                    }
                }
                if db.insert_if_new_id(c.head.predicate, &fact) {
                    added += 1;
                }
            }
            guard.check_db(db.fact_count())?;
            stats.facts_considered += derived;
            stats.facts_added += added;
            stats.join_orders.push(plan.order_desc.clone());
            stats.per_rule.push(RuleStats {
                rule: c.to_string(),
                stratum: stratum_idx,
                applications: 1,
                facts_derived: derived,
                facts_added: added,
                dedup_hits: derived - added,
                join_probes: scratch.take_probes(),
                join_defections: scratch.take_defections(),
                wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
        }
        Ok(())
    }

    /// Run a compiled stratum's semi-naive fixpoint over `db`.
    fn run_compiled(
        &self,
        compiled: &CompiledStratum,
        stratum_idx: usize,
        db: &mut Database,
        stats: &mut EvalStats,
        guard: &EvalGuard,
    ) -> Result<()> {
        let CompiledStratum {
            base,
            variants,
            variant_rule,
            ..
        } = compiled;
        let base_rule: Vec<usize> = (0..base.len()).collect();
        stats
            .join_orders
            .extend(base.iter().chain(variants).map(|p| p.order_desc.clone()));
        let rule_base = stats.per_rule.len();
        stats.per_rule.extend(compiled.rule_stats(stratum_idx));
        let mut base_scratches: Vec<Scratch> = base.iter().map(RulePlan::new_scratch).collect();
        let mut variant_scratches: Vec<Scratch> =
            variants.iter().map(RulePlan::new_scratch).collect();

        // Iteration 0: apply every rule once against the current database
        // (covers the seeded base facts and rules whose bodies only use
        // lower strata).
        stats.iterations += 1;
        let round: Vec<(usize, Option<SymId>)> = (0..base.len()).map(|i| (i, None)).collect();
        let mut added_before = stats.facts_added;
        let mut delta = self.apply_round(
            base,
            &mut base_scratches,
            &round,
            &FxHashMap::default(),
            db.fact_count(),
            db,
            stats,
            guard,
            &base_rule,
            rule_base,
        )?;
        self.emit(&TraceEvent::IterationEnd {
            stratum: stratum_idx,
            iteration: 1,
            facts_added: stats.facts_added - added_before,
        });

        // Without delta variants (a non-recursive component) the base
        // round was the whole fixpoint.
        while !variants.is_empty() && !delta.is_empty() {
            stats.iterations += 1;
            guard.check_db(db.fact_count())?;
            // Variants whose delta relation is non-empty this iteration.
            let round: Vec<(usize, Option<SymId>)> = variants
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    let d = p.delta_pred.expect("variant has a delta predicate");
                    delta.get(&d).is_some_and(|r| !r.is_empty())
                })
                .map(|(i, p)| (i, p.delta_pred))
                .collect();
            let input: usize = delta.values().map(FactBuf::len).sum();
            added_before = stats.facts_added;
            let next = self.apply_round(
                variants,
                &mut variant_scratches,
                &round,
                &delta,
                input,
                db,
                stats,
                guard,
                variant_rule,
                rule_base,
            )?;
            self.emit(&TraceEvent::IterationEnd {
                stratum: stratum_idx,
                iteration: stats.iterations,
                facts_added: stats.facts_added - added_before,
            });
            delta = next;
        }
        Ok(())
    }

    /// Run one iteration's worth of rule variants (`round` indexes into
    /// `plans`), inserting derived facts into `db` and returning the next
    /// delta. Parallelises across worker threads when the configuration
    /// and the input size (`input_facts`) warrant it; the merge order is
    /// the variant order either way, so the resulting database contents
    /// do not depend on the thread count.
    #[allow(clippy::too_many_arguments)]
    fn apply_round(
        &self,
        plans: &[RulePlan],
        scratches: &mut [Scratch],
        round: &[(usize, Option<SymId>)],
        delta: &FxHashMap<SymId, FactBuf>,
        input_facts: usize,
        db: &mut Database,
        stats: &mut EvalStats,
        guard: &EvalGuard,
        rule_of: &[usize],
        rule_base: usize,
    ) -> Result<FxHashMap<SymId, FactBuf>> {
        let mut next_delta: FxHashMap<SymId, FactBuf> = FxHashMap::default();
        // Seal the sorted indexes this round's plans probe (lazy index
        // maintenance: inserts never sort; round boundaries do).
        for &(idx, _) in round {
            for &(p, c) in &plans[idx].index_needs {
                db.ensure_index_id(p, c);
            }
        }
        guard.begin_round(db.fact_count());
        let parallel =
            self.threads > 1 && round.len() >= 2 && input_facts >= self.parallel_threshold;
        if parallel {
            // Workers evaluate against an immutable snapshot, sharing one
            // guard (deadline, budget counters, cancellation token); the
            // main thread merges in variant order.
            let snapshot: &Database = db;
            let workers = self.threads.min(round.len());
            let mut results: Vec<(usize, Result<FactBuf>, u64, u64, u64)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|w| {
                            let mine: Vec<(usize, Option<SymId>)> =
                                round.iter().skip(w).step_by(workers).copied().collect();
                            scope.spawn(move || {
                                mine.into_iter()
                                    .map(|(idx, dpred)| {
                                        let plan = &plans[idx];
                                        let drel = dpred.map(|d| &delta[&d]);
                                        let mut scratch = plan.new_scratch();
                                        let mut out = FactBuf::default();
                                        let started = Instant::now();
                                        let res = plan
                                            .eval(snapshot, drel, &mut scratch, &mut out, guard)
                                            .map(|()| out);
                                        let wall_ns = u64::try_from(started.elapsed().as_nanos())
                                            .unwrap_or(u64::MAX);
                                        let probes = scratch.take_probes();
                                        let defections = scratch.take_defections();
                                        (idx, res, probes, defections, wall_ns)
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("evaluation worker panicked"))
                        .collect()
                });
            results.sort_by_key(|&(idx, ..)| idx);
            for (idx, res, probes, defections, wall_ns) in results {
                stats.rule_applications += 1;
                {
                    let ru = &mut stats.per_rule[rule_base + rule_of[idx]];
                    ru.applications += 1;
                    ru.join_probes += probes;
                    ru.join_defections += defections;
                    ru.wall_ns += wall_ns;
                }
                let derived = res?;
                stats.facts_considered += derived.len();
                let n_derived = derived.len();
                let added_before = stats.facts_added;
                let head = plans[idx].head_pred;
                for f in derived.rows() {
                    self.insert_derived(head, f, db, stats, &mut next_delta);
                }
                let added = stats.facts_added - added_before;
                let ru = &mut stats.per_rule[rule_base + rule_of[idx]];
                ru.facts_derived += n_derived;
                ru.facts_added += added;
                ru.dedup_hits += n_derived - added;
                self.emit(&TraceEvent::RuleApplied {
                    rule: &plans[idx].order_desc,
                    derived: n_derived,
                    added,
                    wall_ns,
                });
            }
        } else {
            let mut derived = FactBuf::default();
            for &(idx, dpred) in round {
                stats.rule_applications += 1;
                let drel = dpred.map(|d| &delta[&d]);
                derived.clear();
                let started = Instant::now();
                plans[idx].eval(db, drel, &mut scratches[idx], &mut derived, guard)?;
                let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                stats.facts_considered += derived.len();
                let n_derived = derived.len();
                let added_before = stats.facts_added;
                let head = plans[idx].head_pred;
                for f in derived.rows() {
                    self.insert_derived(head, f, db, stats, &mut next_delta);
                }
                let added = stats.facts_added - added_before;
                let ru = &mut stats.per_rule[rule_base + rule_of[idx]];
                ru.applications += 1;
                ru.join_probes += scratches[idx].take_probes();
                ru.join_defections += scratches[idx].take_defections();
                ru.wall_ns += wall_ns;
                ru.facts_derived += n_derived;
                ru.facts_added += added;
                ru.dedup_hits += n_derived - added;
                self.emit(&TraceEvent::RuleApplied {
                    rule: &plans[idx].order_desc,
                    derived: n_derived,
                    added,
                    wall_ns,
                });
            }
        }
        Ok(next_delta)
    }

    fn insert_derived(
        &self,
        head: SymId,
        fact: &[Const],
        db: &mut Database,
        stats: &mut EvalStats,
        next_delta: &mut FxHashMap<SymId, FactBuf>,
    ) {
        // `insert_if_new_id` copies the fact only when it is genuinely
        // new; duplicates (the common case near fixpoint) allocate
        // nothing. New facts are appended to the flat per-predicate
        // delta buffer — a fact can be new at most once per iteration,
        // so the delta needs no dedup of its own.
        if db.insert_if_new_id(head, fact) {
            stats.facts_added += 1;
            next_delta
                .entry(head)
                .or_default()
                .push_row(fact.iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::term::Const;

    fn run(src: &str) -> Database {
        let p = parse_program(src).unwrap();
        Engine::new(&p).unwrap().run().unwrap()
    }

    #[test]
    fn transitive_closure() {
        let db = run("edge(a, b). edge(b, c). edge(c, d).\
             path(X, Y) :- edge(X, Y).\
             path(X, Y) :- edge(X, Z), path(Z, Y).");
        assert_eq!(db.relation("path").unwrap().len(), 6);
        assert!(db.contains("path", &[Const::sym("a"), Const::sym("d")]));
    }

    #[test]
    fn naive_equals_seminaive_on_closure() {
        let src = "edge(a, b). edge(b, c). edge(c, a).\
             path(X, Y) :- edge(X, Y).\
             path(X, Y) :- path(X, Z), path(Z, Y).";
        let a = run(src);
        let b = crate::reference::model(&parse_program(src).unwrap()).unwrap();
        assert_eq!(
            a.relation("path").unwrap().sorted(),
            b.relation("path").unwrap().sorted()
        );
        assert_eq!(a.relation("path").unwrap().len(), 9); // complete digraph on 3
    }

    #[test]
    fn stratified_negation_complement() {
        let db = run("node(a). node(b). node(c). edge(a, b).\
             reached(b).\
             unreachable(X) :- node(X), not reached(X).");
        let u = db.relation("unreachable").unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.contains(&[Const::sym("a")]));
        assert!(u.contains(&[Const::sym("c")]));
    }

    #[test]
    fn negation_with_free_variable_is_not_exists() {
        // q(X) :- p(X), not r(X, Y): succeed iff no Y at all.
        let db = run("p(a). p(b). r(a, z).\
             q(X) :- p(X), not r(X, Y).");
        let q = db.relation("q").unwrap();
        assert_eq!(q.len(), 1);
        assert!(q.contains(&[Const::sym("b")]));
    }

    #[test]
    fn negation_with_repeated_free_variables() {
        // not r(Y, Y): refuted only by a diagonal fact.
        let db = run("p(a). r(x, y).\
             q(X) :- p(X), not r(Y, Y).");
        assert_eq!(db.relation("q").unwrap().len(), 1);
        let db = run("p(a). r(x, x).\
             q(X) :- p(X), not r(Y, Y).");
        assert_eq!(db.relation("q").unwrap().len(), 0);
    }

    /// Every relation of `db` equals the reference model's.
    fn assert_matches_reference(p: &Program, db: &Database) {
        let reference = crate::reference::model(p).unwrap();
        for pred in p.predicates() {
            assert_eq!(
                db.relation(pred).map(Relation::sorted),
                reference.relation(pred).map(Relation::sorted),
                "{pred}"
            );
        }
    }

    #[test]
    fn non_recursive_components_of_a_stratum_run_once() {
        // One stratum: the recursive `dominate` closure feeds `seen`,
        // whose self-join `beaten` reads it complete.
        let p = parse_program(
            "level(l0). level(l1). level(l2). level(l3).\
             order(l0, l1). order(l1, l2). order(l2, l3).\
             cell(k1, v1, l0). cell(k1, v2, l1). cell(k1, v3, l3).\
             cell(k2, v1, l2). cell(k2, v2, l2). cell(k3, v1, l1).\
             dominate(X, Y) :- order(X, Y).\
             dominate(X, X) :- level(X).\
             dominate(X, Y) :- order(X, Z), dominate(Z, Y).\
             seen(K, V, C, H) :- cell(K, V, C), dominate(C, H).\
             beaten(K, C, H) :- seen(K, V, C, H), seen(K, V2, C2, H), \
                 dominate(C, C2), C != C2.",
        )
        .unwrap();
        assert_eq!(p.stratify().unwrap().len(), 1);
        let (db, stats) = Engine::new(&p).unwrap().run_with_stats().unwrap();
        assert_matches_reference(&p, &db);
        assert!(!db.relation("beaten").unwrap().is_empty());
        for r in &stats.per_rule {
            if r.rule.starts_with("seen") || r.rule.starts_with("beaten") {
                assert_eq!(r.applications, 1, "{}", r.rule);
            }
        }
        let closure = stats
            .per_rule
            .iter()
            .find(|r| r.rule.starts_with("dominate(X, Y) :- order(X, Z)"))
            .unwrap();
        assert!(closure.applications > 1, "the closure iterates");
    }

    #[test]
    fn negation_probes_count_membership_tests_and_scanned_candidates() {
        // Beside `plain`, the fully bound `not r(X, Y)` costs one probe
        // per tested row (3), and the partially bound `not r(X, Z)` the
        // candidate rows its probe scans: 2 for `a`, 1 for `b`, none for
        // `c`.
        let p = parse_program(
            "p(a, x). p(b, y). p(c, z). r(a, x). r(a, y). r(b, z).\
             plain(X, Y) :- p(X, Y).\
             bound(X, Y) :- p(X, Y), not r(X, Y).\
             partial(X) :- p(X, Y), not r(X, Z).",
        )
        .unwrap();
        let (db, stats) = Engine::new(&p).unwrap().run_with_stats().unwrap();
        assert_matches_reference(&p, &db);
        assert_eq!(db.relation("bound").unwrap().len(), 2);
        let probes = |head: &str| {
            stats
                .per_rule
                .iter()
                .find(|r| r.rule.starts_with(head))
                .unwrap()
                .join_probes
        };
        assert_eq!(probes("bound") - probes("plain"), 3);
        assert_eq!(probes("partial") - probes("plain"), 3);
    }

    #[test]
    fn comparisons_filter() {
        let db = run("n(1). n(2). n(3).\
             big(X) :- n(X), X >= 2.\
             pair(X, Y) :- n(X), n(Y), X < Y.");
        assert_eq!(db.relation("big").unwrap().len(), 2);
        assert_eq!(db.relation("pair").unwrap().len(), 3);
    }

    #[test]
    fn repeated_variable_in_positive_atom() {
        let db = run("e(a, a). e(a, b).\
             loop(X) :- e(X, X).");
        let l = db.relation("loop").unwrap();
        assert_eq!(l.len(), 1);
        assert!(l.contains(&[Const::sym("a")]));
    }

    #[test]
    fn zero_arity_predicates() {
        let db = run("go. done :- go.");
        assert!(db.contains("done", &[]));
    }

    #[test]
    fn same_generation() {
        let db = run("person(a). person(b). person(c). person(d). person(e).\
             par(a, c). par(b, c). par(c, e). par(d, e).\
             sg(X, X) :- person(X).\
             sg(X, Y) :- par(X, Z), par(Y, W), sg(Z, W).");
        let sg = db.relation("sg").unwrap();
        assert!(sg.contains(&[Const::sym("a"), Const::sym("b")]));
        assert!(sg.contains(&[Const::sym("c"), Const::sym("d")]));
        assert!(!sg.contains(&[Const::sym("a"), Const::sym("d")]));
    }

    #[test]
    fn multi_stratum_pipeline() {
        let db = run("e(a, b). e(b, c).\
             t(X, Y) :- e(X, Y).\
             t(X, Y) :- e(X, Z), t(Z, Y).\
             nt(X, Y) :- t(X, X1), t(Y1, Y), not t(X, Y).\
             ok(X) :- t(X, Y), not nt(X, Y).");
        // nt pairs: (b,b)? t = {ab,bc,ac}. Endpoints X in {a,b}, Y in {b,c}.
        // not t(X,Y): (b,b) only. So nt = {(b,b)}.
        assert_eq!(db.relation("nt").unwrap().len(), 1);
        assert!(db.contains("nt", &[Const::sym("b"), Const::sym("b")]));
    }

    #[test]
    fn fact_limit_guard() {
        let p = parse_program(
            "n(1). n(2). n(3). n(4). n(5).\
             p(A, B, C, D) :- n(A), n(B), n(C), n(D).",
        )
        .unwrap();
        let err = Engine::new(&p)
            .unwrap()
            .with_fact_limit(100)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            DatalogError::BudgetExceeded { budget: 100, .. }
        ));
    }

    /// Divergent programs: unbounded successor recursion. Never reaches a
    /// fixpoint, so only a guard can stop it.
    fn divergent() -> crate::Program {
        parse_program("n(0). n(M) :- n(N), M = N + 1.").unwrap()
    }

    #[test]
    fn deadline_stops_divergent_program() {
        let p = divergent();
        let err = Engine::new(&p)
            .unwrap()
            .with_deadline(std::time::Duration::from_millis(50))
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            DatalogError::DeadlineExceeded { limit_ms: 50 }
        ));
    }

    #[test]
    fn budget_stops_divergent_program() {
        let p = divergent();
        let err = Engine::new(&p)
            .unwrap()
            .with_fact_limit(10_000)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            DatalogError::BudgetExceeded { budget: 10_000, .. }
        ));
    }

    #[test]
    fn budget_trips_inside_one_cross_product_iteration() {
        // A single rule application emits 10^4 tuples; with a budget of
        // 500 the guard must trip mid-application, well before the
        // between-iteration check would see the materialized database.
        let mut src = String::new();
        for i in 0..10 {
            src.push_str(&format!("n({i}). "));
        }
        src.push_str("p(A, B, C, D) :- n(A), n(B), n(C), n(D).");
        let p = parse_program(&src).unwrap();
        let err = Engine::new(&p)
            .unwrap()
            .with_fact_limit(500)
            .run()
            .unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded { .. }));
    }

    #[test]
    fn cancel_token_stops_evaluation() {
        let p = divergent();
        let token = crate::CancelToken::new();
        let canceller = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            canceller.cancel();
        });
        let err = Engine::new(&p)
            .unwrap()
            .with_cancel_token(token)
            .run()
            .unwrap_err();
        assert!(matches!(err, DatalogError::Cancelled));
    }

    #[test]
    fn parallel_and_sequential_agree_on_budget_trip() {
        let p = divergent();
        for (threads, threshold) in [(1, 512), (4, 0)] {
            let err = Engine::new(&p)
                .unwrap()
                .with_threads(threads)
                .with_parallel_threshold(threshold)
                .with_fact_limit(5_000)
                .run()
                .unwrap_err();
            assert!(
                matches!(err, DatalogError::BudgetExceeded { budget: 5_000, .. }),
                "threads={threads}: {err}"
            );
        }
    }

    #[test]
    fn parallel_workers_observe_cancellation() {
        let p = divergent();
        let token = crate::CancelToken::new();
        token.cancel(); // already cancelled: first guard check trips
        let err = Engine::new(&p)
            .unwrap()
            .with_threads(4)
            .with_parallel_threshold(0)
            .with_cancel_token(token)
            .run()
            .unwrap_err();
        assert!(matches!(err, DatalogError::Cancelled));
    }

    #[test]
    fn per_rule_and_per_stratum_stats_populated() {
        let p = parse_program(
            "edge(a, b). edge(b, c).\
             path(X, Y) :- edge(X, Y).\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let (_, stats) = Engine::new(&p).unwrap().run_with_stats().unwrap();
        assert!(!stats.per_stratum.is_empty());
        assert_eq!(
            stats
                .per_stratum
                .iter()
                .map(|s| s.iterations)
                .sum::<usize>(),
            stats.iterations
        );
        assert_eq!(
            stats
                .per_stratum
                .iter()
                .map(|s| s.facts_added)
                .sum::<usize>(),
            stats.facts_added
        );
        // Each rule has a per-rule entry; the two facts are seeded, not
        // compiled, yet still count towards the totals.
        assert_eq!(stats.per_rule.len(), 2);
        assert!(stats.per_rule.iter().all(|r| r.rule.contains(":-")));
        assert_eq!(
            stats.per_rule.iter().map(|r| r.facts_added).sum::<usize>() + 2,
            stats.facts_added
        );
        assert_eq!(
            stats
                .per_rule
                .iter()
                .map(|r| r.facts_derived)
                .sum::<usize>()
                + 2,
            stats.facts_considered
        );
        let recursive = stats
            .per_rule
            .iter()
            .find(|r| r.rule.contains("path(X, Z)") || r.rule.contains("path"))
            .expect("path rule present");
        assert!(recursive.applications > 0);
        assert!(!stats.summary().is_empty());
    }

    #[test]
    fn recording_trace_sees_stratum_and_rule_events() {
        let p = parse_program(
            "edge(a, b). edge(b, c).\
             path(X, Y) :- edge(X, Y).\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let sink = std::sync::Arc::new(crate::RecordingTrace::new());
        let trace: std::sync::Arc<dyn crate::TraceSink> = sink.clone();
        Engine::new(&p).unwrap().with_trace(trace).run().unwrap();
        let events = sink.events();
        assert!(events.iter().any(|e| e.contains("StratumStart")));
        assert!(events.iter().any(|e| e.contains("RuleApplied")));
        assert!(events.iter().any(|e| e.contains("StratumEnd")));
    }

    #[test]
    fn guard_trip_emits_trace_event() {
        let p = divergent();
        let sink = std::sync::Arc::new(crate::RecordingTrace::new());
        let trace: std::sync::Arc<dyn crate::TraceSink> = sink.clone();
        let err = Engine::new(&p)
            .unwrap()
            .with_trace(trace)
            .with_fact_limit(1_000)
            .run()
            .unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded { .. }));
        assert!(sink.events().iter().any(|e| e.contains("GuardTrip")));
    }

    #[test]
    fn stats_are_populated() {
        let p = parse_program(
            "edge(a, b). edge(b, c).\
             path(X, Y) :- edge(X, Y).\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let (_, stats) = Engine::new(&p).unwrap().run_with_stats().unwrap();
        assert!(stats.iterations >= 2);
        assert!(stats.facts_added >= 5);
        assert!(stats.rule_applications > 0);
        assert!(!stats.join_orders.is_empty());
    }

    #[test]
    fn seminaive_work_is_linear_in_facts_added() {
        // Long chain: a naive fixpoint would re-derive every path in
        // every one of its 30 iterations. Semi-naive derives each path
        // about once: measured 524 facts considered for 495 added (30
        // seeded edges plus 465 paths).
        let mut src = String::new();
        for i in 0..30 {
            src.push_str(&format!("edge(n{}, n{}).\n", i, i + 1));
        }
        src.push_str("path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y).");
        let p = parse_program(&src).unwrap();
        let (db, s) = Engine::new(&p).unwrap().run_with_stats().unwrap();
        assert_eq!(db.relation("path").unwrap().len(), 465);
        assert!(
            s.facts_considered <= 2 * s.facts_added,
            "{} facts considered for {} added",
            s.facts_considered,
            s.facts_added
        );
    }

    #[test]
    fn empty_program_runs() {
        let db = run("");
        assert_eq!(db.fact_count(), 0);
    }

    #[test]
    fn rule_over_missing_relation_is_empty() {
        let db = run("p(X) :- q(X). q(X) :- r(X, X).");
        assert_eq!(db.relation("p").unwrap().len(), 0);
    }

    #[test]
    fn constants_in_rule_heads_and_bodies() {
        let db = run("color(car, red). color(bus, blue).\
             is_red(X) :- color(X, red).\
             flag(found) :- color(car, red).");
        assert!(db.contains("is_red", &[Const::sym("car")]));
        assert!(db.contains("flag", &[Const::sym("found")]));
    }

    #[test]
    fn join_orders_mention_delta_variants() {
        let p = parse_program(
            "edge(a, b). edge(b, c).\
             path(X, Y) :- edge(X, Y).\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let (_, stats) = Engine::new(&p).unwrap().run_with_stats().unwrap();
        assert!(
            stats.join_orders.iter().any(|o| o.contains("Δ")),
            "orders: {:?}",
            stats.join_orders
        );
    }

    #[test]
    fn bfs_algo_matches_rule_at_a_time_closure() {
        let src = "edge(a, b). edge(b, c). edge(c, d). edge(d, b).\
             reach(X, Y) :- @bfs(edge, X, Y).\
             path(X, Y) :- edge(X, Y).\
             path(X, Y) :- edge(X, Z), path(Z, Y).";
        let db = run(src);
        assert_eq!(
            db.relation("reach").unwrap().sorted(),
            db.relation("path").unwrap().sorted()
        );
    }

    #[test]
    fn algo_output_joins_with_other_literals() {
        let db = run("edge(a, b). edge(b, c). target(c).\
             hits(X) :- @bfs(edge, X, Y), target(Y).");
        let h = db.relation("hits").unwrap();
        assert_eq!(h.len(), 2);
        assert!(h.contains(&[Const::sym("a")]));
        assert!(h.contains(&[Const::sym("b")]));
    }

    #[test]
    fn algo_feeds_recursion_in_higher_stratum() {
        // cc representatives become edges of a second graph.
        let db = run("e(a, b). e(c, d).\
             rep_edge(R1, R2) :- @cc(e, a, R1), @cc(e, c, R2).\
             linked(X, Y) :- rep_edge(X, Y).");
        assert!(!db.relation("linked").unwrap().is_empty());
    }

    #[test]
    fn unknown_algo_errors_at_materialization() {
        let p = parse_program("e(a, b). r(X, Y) :- @pagerank(e, X, Y).").unwrap();
        let err = Engine::new(&p).unwrap().run().unwrap_err();
        assert!(matches!(err, DatalogError::UnknownAlgo { name } if name == "pagerank"));
    }

    #[test]
    fn algo_goal_answered_without_program_rule() {
        // The algo call appears only in the goal: materialized post hoc
        // over the finished cone.
        let p = parse_program("edge(a, b). edge(b, c).").unwrap();
        let goal = crate::parser::parse_query("@bfs(edge, a, Y)").unwrap();
        let (answers, stats) = Engine::new(&p).unwrap().run_for_goal(&goal).unwrap();
        assert_eq!(answers.len(), 2); // b, c
        assert_eq!(stats.demand.unwrap().strategy, "cone");
    }

    #[test]
    fn goal_on_algo_cone_falls_back_to_cone_strategy() {
        let p = parse_program(
            "edge(a, b). edge(b, c).\
             reach(X, Y) :- @bfs(edge, X, Y).",
        )
        .unwrap();
        let goal = crate::parser::parse_query("reach(a, Y)").unwrap();
        let (answers, stats) = Engine::new(&p).unwrap().run_for_goal(&goal).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(stats.demand.unwrap().strategy, "cone");
    }

    #[test]
    fn count_groups_by_remaining_head_positions() {
        let db = run("edge(a, b). edge(a, c). edge(b, c).\
             out(X, count(Y)) :- edge(X, Y).");
        let o = db.relation("out").unwrap();
        assert_eq!(o.len(), 2);
        assert!(o.contains(&[Const::sym("a"), Const::int(2)]));
        assert!(o.contains(&[Const::sym("b"), Const::int(1)]));
    }

    #[test]
    fn sum_min_max_fold_per_group() {
        let src = "score(alice, 3). score(alice, 5). score(bob, 7).\
             total(P, sum(S)) :- score(P, S).\
             lo(P, min(S)) :- score(P, S).\
             hi(P, max(S)) :- score(P, S).";
        let db = run(src);
        assert!(db.contains("total", &[Const::sym("alice"), Const::int(8)]));
        assert!(db.contains("total", &[Const::sym("bob"), Const::int(7)]));
        assert!(db.contains("lo", &[Const::sym("alice"), Const::int(3)]));
        assert!(db.contains("hi", &[Const::sym("alice"), Const::int(5)]));
    }

    #[test]
    fn aggregate_counts_distinct_witnesses_not_projections() {
        // Two witnesses (b,1) and (b,2) project to the same group count
        // contribution — bag semantics over distinct witness bindings:
        // count(Y) for X=a must be 1 (only Y=b), but the two source
        // tuples differing in Z both count for sum-like folds through
        // a polyinstantiation-style extra column.
        let db = run("m(a, b, 1). m(a, b, 2).\
             n(X, count(Y)) :- m(X, Y, Z).");
        // Witnesses for X=a: (b,1), (b,2) — distinct, so the fold sees
        // two rows, both with Y=b. count is over witnesses: 2.
        assert!(db.contains("n", &[Const::sym("a"), Const::int(2)]));
    }

    #[test]
    fn aggregate_over_empty_body_emits_no_groups() {
        let db = run("p(a). q(X, count(Y)) :- p(X), r(X, Y).");
        assert_eq!(db.relation("q").unwrap().len(), 0);
    }

    #[test]
    fn aggregate_feeds_downstream_rules() {
        let db = run("edge(a, b). edge(a, c). edge(b, c).\
             deg(X, count(Y)) :- edge(X, Y).\
             busy(X) :- deg(X, N), N >= 2.");
        let b = db.relation("busy").unwrap();
        assert_eq!(b.len(), 1);
        assert!(b.contains(&[Const::sym("a")]));
    }

    #[test]
    fn sum_over_symbol_errors() {
        let p = parse_program("p(a, x). t(X, sum(S)) :- p(X, S).").unwrap();
        let err = Engine::new(&p).unwrap().run().unwrap_err();
        assert!(matches!(err, DatalogError::AggregateFailure { .. }));
    }

    #[test]
    fn aggregate_goal_falls_back_to_cone() {
        let p = parse_program(
            "score(alice, 3). score(alice, 5).\
             total(P, sum(S)) :- score(P, S).",
        )
        .unwrap();
        let goal = crate::parser::parse_query("total(alice, T)").unwrap();
        let (answers, stats) = Engine::new(&p).unwrap().run_for_goal(&goal).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(
            answers.answers[0].get("T"),
            Some(&Const::int(8)),
            "answers: {answers:?}"
        );
        assert_eq!(stats.demand.unwrap().strategy, "cone");
    }

    #[test]
    fn aggregates_identical_across_threads_and_executors() {
        let mut src = String::new();
        for i in 0..20 {
            src.push_str(&format!("s(g{}, {}). ", i % 3, i));
        }
        src.push_str("t(G, sum(V)) :- s(G, V). c(G, count(V)) :- s(G, V).");
        let p = parse_program(&src).unwrap();
        let reference = crate::reference::model(&p).unwrap();
        for threads in [1, 4] {
            let db = Engine::new(&p)
                .unwrap()
                .with_threads(threads)
                .with_parallel_threshold(0)
                .run()
                .unwrap();
            for (pred, rel) in reference.relations() {
                assert_eq!(
                    rel.sorted(),
                    db.relation(pred).unwrap().sorted(),
                    "{pred} differs from the reference (threads={threads})"
                );
            }
            assert_eq!(db.fact_count(), reference.fact_count(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_sequential_output() {
        let mut src = String::new();
        for i in 0..40 {
            src.push_str(&format!("edge(n{}, n{}).\n", i, i + 1));
        }
        src.push_str("edge(n40, n0).\n"); // cycle
        src.push_str(
            "path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y).\
             looped(X) :- path(X, X).\
             unlooped(X) :- path(X, Y), not looped(X).",
        );
        let p = parse_program(&src).unwrap();
        let seq = Engine::new(&p).unwrap().with_threads(1).run().unwrap();
        for threads in [2, 4] {
            let par = Engine::new(&p)
                .unwrap()
                .with_threads(threads)
                .with_parallel_threshold(0)
                .run()
                .unwrap();
            assert_eq!(seq.fact_count(), par.fact_count(), "threads={threads}");
            for (pred, rel) in seq.relations() {
                assert_eq!(
                    rel.sorted(),
                    par.relation(pred).unwrap().sorted(),
                    "relation {pred} differs with threads={threads}"
                );
            }
        }
    }
}
