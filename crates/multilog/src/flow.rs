//! Lattice-flow abstract interpretation over MultiLog programs: the
//! `ML02xx` interprocedural inference-channel analysis.
//!
//! The lint pass (`ML01xx`, [`crate::lint`]) judges each clause in
//! isolation. This module runs a whole-program *abstract
//! interpretation* over the Σ/Π rule dependency graph: the abstract
//! domain is [`LabelInterval`] — sound bounds on the security labels
//! each predicate can achieve in its level and classification
//! positions (and, for p-predicates, each argument position) — and
//! the transfer functions are monotone joins over that finite domain,
//! so the per-SCC fixpoint terminates without widening.
//!
//! Two consumers sit on top of the fixpoint:
//!
//! * **Diagnostics `ML0201`–`ML0206`** — interprocedural channels the
//!   per-clause lints cannot see: downward flows through rule chains,
//!   cover-story inference channels (Proposition 5.1 lifted from fact
//!   pairs to rule-derived values), level-escalating recursion,
//!   belief-mode instability, rules dead at *every* clearance, and
//!   facts asserted at levels no consumer can reach.
//! * **Demand pruning** — [`FlowReport::rule_prunable`] answers, for a
//!   concrete clearance, whether a rule can be dropped from a demand
//!   cone without changing any answer. The reduced engine
//!   ([`crate::reduce::ReducedEngine`]) consults it when
//!   [`crate::EngineOptions::flow_prune`] is set.
//!
//! # Soundness
//!
//! Interval frontiers only ever contain labels that some derivation
//! actually achieves (see [`LabelInterval`]), so
//! [`LabelInterval::may_flow_below`] is exact, not merely sound. The
//! bounds are computed from the *static* program; runtime updates can
//! widen achieved label sets, so the pruning oracle splits its
//! criteria into update-independent ones (ground labels, which no
//! update can change because the lattice and clearance are fixed) and
//! bounds-based ones, which callers must disable once updates have
//! been applied (`use_bounds = false`).
//!
//! The FILTER/FILTER-NULL environments of Figure 13 are not modelled:
//! they only suppress *presentation* of otherwise-derivable answers,
//! never enable new derivations, so the bounds remain sound for them.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use multilog_datalog::analyze::{possibly_nonempty_from, AbstractClause};
use multilog_datalog::DepGraph;
use multilog_lattice::{Label, LabelInterval, SecurityLattice};

use crate::ast::{Atom, Clause, Goal, Head, Span, Term};
use crate::belief::Mode;
use crate::db::MultiLogDb;
use crate::lint::{diagnostics_json, Diagnostic, LintReport, Program, Severity};
use crate::parser::{parse_items, ParsedProgram};
use crate::Result;

/// The two predicate namespaces the flow analysis tracks: m-predicates
/// (Σ relations with level/key/class/value columns) and p-predicates
/// (ordinary Datalog relations, Π).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredKind {
    /// An m-predicate.
    M,
    /// A p-predicate.
    P,
}

impl PredKind {
    /// The one-letter namespace tag used in rendered output: `"m"` or
    /// `"p"`.
    pub fn tag(self) -> &'static str {
        match self {
            PredKind::M => "m",
            PredKind::P => "p",
        }
    }
}

/// One clause's contribution to a predicate's achieved labels: where it
/// is, whether it is a rule or a plain fact, and the level/class
/// intervals its head resolves to under the fixpoint environment.
#[derive(Clone, Debug)]
pub struct FlowSource {
    /// Source position of the contributing clause.
    pub span: Span,
    /// `true` for a rule, `false` for a fact.
    pub is_rule: bool,
    /// The clause, rendered.
    pub text: String,
    /// Levels this clause's head can be asserted at.
    pub level: LabelInterval,
    /// Classifications this clause's head can carry.
    pub class: LabelInterval,
}

/// The fixpoint result for one predicate: sound bounds on every label
/// position, liveness, the belief modes it is consulted under, and the
/// per-clause contributions behind the bounds.
#[derive(Clone, Debug)]
pub struct PredicateFlow {
    /// Which namespace the predicate lives in.
    pub kind: PredKind,
    /// The predicate name.
    pub name: String,
    /// Achieved assertion levels (m-predicates; empty for
    /// p-predicates).
    pub level: LabelInterval,
    /// Achieved value classifications (m-predicates; empty for
    /// p-predicates).
    pub class: LabelInterval,
    /// Achieved labels per argument position (p-predicates; empty for
    /// m-predicates). Positions never fed a declared label stay at the
    /// full interval or empty depending on liveness.
    pub args: Vec<LabelInterval>,
    /// Whether the predicate can possibly hold any tuple (the
    /// possibly-nonempty fixpoint; `false` means every clause for it
    /// is transitively blocked on an empty predicate).
    pub nonempty: bool,
    /// Distinct consult modes, sorted: `"m"` for a plain m-atom
    /// occurrence, otherwise the b-atom mode string.
    pub modes: Vec<String>,
    /// Per-clause head contributions, in program order. Facts are
    /// deduplicated by achieved-label signature: one representative
    /// stands for every fact of the predicate with the same labels.
    pub sources: Vec<FlowSource>,
}

/// A body or query site that consults an m-predicate — the consumer
/// side ML0204/ML0206 reason over.
#[derive(Clone, Debug)]
struct Consumer {
    span: Span,
    /// `None` for a plain m-atom, `Some(mode)` for a b-atom.
    mode: Option<String>,
    level: Term,
    class: Term,
    /// Ground labels of the whole consuming clause or query — the
    /// visibility context a clearance must dominate for the site to
    /// fire at all.
    ground: Vec<Label>,
}

impl Consumer {
    /// Whether the site consults through a user-defined (§7) mode,
    /// whose `bel/7` rules can derive beliefs from anything.
    fn is_custom(&self) -> bool {
        self.mode
            .as_deref()
            .is_some_and(|m| Mode::parse(m).is_none())
    }
}

/// The outcome of the lattice-flow analysis: per-predicate bounds plus
/// the `ML02xx` diagnostics, rendered through the same report
/// machinery as the lint pass.
#[derive(Clone, Debug)]
pub struct FlowReport {
    lattice: Option<Arc<SecurityLattice>>,
    preds: BTreeMap<(PredKind, String), PredicateFlow>,
    report: LintReport,
}

/// Run the flow analysis over MultiLog source text. `Err` only on a
/// syntax error; every finding becomes a diagnostic in the report.
pub fn analyze_source(src: &str) -> Result<FlowReport> {
    let prog = parse_items(src)?;
    Ok(analyze_program(&prog, src))
}

/// Run the flow analysis over an already-parsed program, with the
/// source text kept for rendering. The lattice is the one the lint's
/// `Program` builds from `[[Λ]]`.
pub fn analyze_program(prog: &ParsedProgram, src: &str) -> FlowReport {
    let Program {
        lattice, queries, ..
    } = Program::new(&prog.clauses, &prog.queries, &prog.query_spans);
    let clauses: Vec<&Clause> = prog.clauses.iter().collect();
    analyze_clauses(lattice.map(Arc::new), &clauses, &queries, src.to_owned())
}

/// Run the flow analysis over an admitted database, over the lattice it
/// was admitted with (no source text — query diagnostics carry unknown
/// spans). This is the entry the reduced engine uses for demand pruning.
pub fn analyze_db(db: &MultiLogDb) -> FlowReport {
    let clauses: Vec<&Clause> = db.clauses().collect();
    let queries: Vec<(&Goal, Span)> = db.queries().iter().map(|q| (q, Span::unknown())).collect();
    analyze_clauses(db.lattice().ok(), &clauses, &queries, String::new())
}

fn analyze_clauses(
    lattice: Option<Arc<SecurityLattice>>,
    clauses: &[&Clause],
    queries: &[(&Goal, Span)],
    source: String,
) -> FlowReport {
    let Some(lat) = lattice else {
        // Pure-Π program (Prop 6.1 degenerates to Datalog) or a broken
        // lattice the lint pass reports; there is no flow to analyse.
        return FlowReport {
            lattice: None,
            preds: BTreeMap::new(),
            report: LintReport::from_parts(Vec::new(), source),
        };
    };
    let rules: Vec<&Clause> = clauses
        .iter()
        .copied()
        .filter(|c| matches!(c.head, Head::M(_) | Head::P(_)))
        .collect();
    let mut flow = Flow::new(lat, rules, queries);
    flow.run_fixpoint();
    flow.collect_sources();
    flow.collect_consumers();
    flow.check_downward_flow(); //        ML0201
    flow.check_inference_channels(); //   ML0202
    flow.check_escalating_recursion(); // ML0203
    flow.check_mode_instability(); //     ML0204
    flow.check_dead_at_every_clearance(); // ML0205
    flow.check_unreachable_facts(); //    ML0206
    flow.into_report(source)
}

/// A ground m-fact resolved to `(head node, level label, class label)`
/// once at construction — see `Flow::ground_facts`.
type GroundFact = (usize, Option<Label>, Option<Label>);

/// Working state of one analysis run.
struct Flow<'p> {
    lat: Arc<SecurityLattice>,
    /// Σ ∪ Π clauses (rules and facts), program order.
    rules: Vec<&'p Clause>,
    queries: &'p [(&'p Goal, Span)],
    /// Interned `(kind, name)` nodes.
    nodes: Vec<(PredKind, String)>,
    /// Name → node, one map per namespace so lookups borrow the name.
    index_m: HashMap<String, usize>,
    index_p: HashMap<String, usize>,
    /// *Rule* clause indices grouped by head node (facts are constant
    /// transfers and are applied once, outside the fixpoint).
    by_head: Vec<Vec<usize>>,
    /// Per-clause cache for ground m-facts — `(head node, level label,
    /// class label)` resolved once at construction, so the per-fact
    /// passes (seeding, sources, ML0206) never re-hash predicate or
    /// label names. `None` for rules and for facts that are not ground
    /// m-facts.
    ground_facts: Vec<Option<GroundFact>>,
    /// Clause indices of non-facts, program order — the rule-oriented
    /// passes (ML0201/ML0203/ML0205, consumer collection) iterate these
    /// instead of rescanning the whole database.
    non_facts: Vec<usize>,
    graph: DepGraph,
    nonempty: Vec<bool>,
    level: Vec<LabelInterval>,
    class: Vec<LabelInterval>,
    args: Vec<Vec<LabelInterval>>,
    sources: Vec<Vec<FlowSource>>,
    consumers: Vec<Vec<Consumer>>,
    out: Vec<Diagnostic>,
}

impl<'p> Flow<'p> {
    fn new(
        lat: Arc<SecurityLattice>,
        rules: Vec<&'p Clause>,
        queries: &'p [(&'p Goal, Span)],
    ) -> Self {
        let mut nodes: Vec<(PredKind, String)> = Vec::new();
        let mut index_m: HashMap<String, usize> = HashMap::new();
        let mut index_p: HashMap<String, usize> = HashMap::new();
        let mut arity: HashMap<usize, usize> = HashMap::new();
        let intern = |index_m: &mut HashMap<String, usize>,
                      index_p: &mut HashMap<String, usize>,
                      nodes: &mut Vec<(PredKind, String)>,
                      kind: PredKind,
                      name: &str| {
            let map = match kind {
                PredKind::M => index_m,
                PredKind::P => index_p,
            };
            match map.get(name) {
                Some(&i) => i,
                None => {
                    nodes.push((kind, name.to_owned()));
                    map.insert(name.to_owned(), nodes.len() - 1);
                    nodes.len() - 1
                }
            }
        };
        let mut abs: Vec<AbstractClause> = Vec::new();
        let mut edges: Vec<(usize, usize, bool)> = Vec::new();
        let mut by_head_pairs: Vec<(usize, usize)> = Vec::new();
        let mut ground_facts: Vec<Option<GroundFact>> = vec![None; rules.len()];
        let mut non_facts: Vec<usize> = Vec::new();
        let mut fact_seed: Vec<bool> = Vec::new();
        // Bulk fact loads repeat the same predicate and a handful of
        // label names thousands of times; a last-head memo and a sorted
        // name table keep this loop free of hashing.
        let label_index: Vec<(&str, Label)> = {
            let mut v: Vec<(&str, Label)> = lat.labels().map(|l| (lat.name(l), l)).collect();
            v.sort_unstable_by(|a, b| a.0.cmp(b.0));
            v
        };
        let find_label = |name: &str| -> Option<Label> {
            label_index
                .binary_search_by(|(n, _)| (*n).cmp(name))
                .ok()
                .map(|i| label_index[i].1)
        };
        let mut last_m: Option<(&'p str, usize)> = None;
        let mut last_p: Option<(&'p str, usize)> = None;
        for (ci, &c) in rules.iter().enumerate() {
            let head = match &c.head {
                Head::M(m) => match last_m {
                    Some((n, i)) if *n == *m.pred => i,
                    _ => {
                        let i =
                            intern(&mut index_m, &mut index_p, &mut nodes, PredKind::M, &m.pred);
                        last_m = Some((&m.pred, i));
                        i
                    }
                },
                Head::P(p) => {
                    let n = match last_p {
                        Some((n, i)) if *n == *p.pred => i,
                        _ => {
                            let i = intern(
                                &mut index_m,
                                &mut index_p,
                                &mut nodes,
                                PredKind::P,
                                &p.pred,
                            );
                            last_p = Some((&p.pred, i));
                            i
                        }
                    };
                    let a = arity.entry(n).or_insert(0);
                    *a = (*a).max(p.args.len());
                    n
                }
                Head::L(_) | Head::H(_, _) => continue,
            };
            if c.is_fact() {
                // Facts fire vacuously: seed the nonempty fixpoint
                // directly instead of carrying one abstract clause per
                // fact, and cache ground m-fact labels for the per-fact
                // passes.
                if head >= fact_seed.len() {
                    fact_seed.resize(head + 1, false);
                }
                fact_seed[head] = true;
                if let Head::M(m) = &c.head {
                    if let (Term::Sym(ls), Term::Sym(cs)) = (&m.level, &m.class) {
                        ground_facts[ci] = Some((head, find_label(ls), find_label(cs)));
                    }
                }
                continue;
            }
            by_head_pairs.push((head, ci));
            non_facts.push(ci);
            let mut deps = Vec::new();
            for a in &c.body {
                if let Some((k, name)) = atom_dep(a) {
                    let d = intern(&mut index_m, &mut index_p, &mut nodes, k, name);
                    if let Atom::P(p) = a {
                        let ar = arity.entry(d).or_insert(0);
                        *ar = (*ar).max(p.args.len());
                    }
                    deps.push(d);
                    edges.push((d, head, false));
                }
            }
            abs.push(AbstractClause {
                head,
                positive_body: deps,
            });
        }
        for (q, _) in queries {
            for a in q.iter() {
                if let Some((k, name)) = atom_dep(a) {
                    let d = intern(&mut index_m, &mut index_p, &mut nodes, k, name);
                    if let Atom::P(p) = a {
                        let ar = arity.entry(d).or_insert(0);
                        *ar = (*ar).max(p.args.len());
                    }
                }
            }
        }
        let n = nodes.len();
        fact_seed.resize(n, false);
        let nonempty = possibly_nonempty_from(fact_seed, &abs);
        let names: Vec<String> = nodes
            .iter()
            .map(|(k, p)| format!("{}:{}", k.tag(), p))
            .collect();
        let graph = DepGraph::from_edges(names, edges);
        let mut by_head: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (head, ci) in by_head_pairs {
            by_head[head].push(ci);
        }
        let args = (0..n)
            .map(|i| vec![LabelInterval::empty(); arity.get(&i).copied().unwrap_or(0)])
            .collect();
        Flow {
            lat,
            rules,
            queries,
            nodes,
            index_m,
            index_p,
            by_head,
            ground_facts,
            non_facts,
            graph,
            nonempty,
            level: vec![LabelInterval::empty(); n],
            class: vec![LabelInterval::empty(); n],
            args,
            sources: vec![Vec::new(); n],
            consumers: vec![Vec::new(); n],
            out: Vec::new(),
        }
    }

    /// A flat `nodes × (labels+1)²` dedup table plus its stride, keyed
    /// by a cached ground fact's `(node, level, class)` — slot 0 in each
    /// label dimension stands for an undeclared name.
    fn fact_table(&self) -> (usize, Vec<bool>) {
        let stride = self.lat.len() + 1;
        (stride, vec![false; self.nodes.len() * stride * stride])
    }

    fn fact_key(stride: usize, i: usize, lf: Option<Label>, cf: Option<Label>) -> usize {
        let slot = |l: Option<Label>| l.map(|l| l.index() + 1).unwrap_or(0);
        (i * stride + slot(lf)) * stride + slot(cf)
    }

    fn node(&self, kind: PredKind, name: &str) -> Option<usize> {
        let map = match kind {
            PredKind::M => &self.index_m,
            PredKind::P => &self.index_p,
        };
        map.get(name).copied()
    }

    /// The achieved level/class intervals of an m-predicate (empty when
    /// the predicate is unknown — nothing ever defines it).
    fn m_intervals(&self, pred: &str) -> (LabelInterval, LabelInterval) {
        match self.node(PredKind::M, pred) {
            Some(i) => (self.level[i].clone(), self.class[i].clone()),
            None => (LabelInterval::empty(), LabelInterval::empty()),
        }
    }

    /// Whether every body atom's predicate can possibly hold tuples —
    /// the firing gate of the transfer function.
    fn body_live(&self, body: &[Atom]) -> bool {
        body.iter().all(|a| match atom_dep(a) {
            Some((k, name)) => self
                .node(k, name)
                .map(|i| self.nonempty[i])
                .unwrap_or(false),
            None => true,
        })
    }

    /// The abstract environment of one clause body: each variable maps
    /// to a sound bound on the labels it can be bound to. A variable
    /// may occur in several positions; any single occurrence's
    /// constraint over-approximates the binding, so the most precise
    /// (lowest-priority-number) position wins: m-atom level (0), m-atom
    /// class (1), p-atom argument (2), anything else (3, the full
    /// interval). Non-label bindings (keys, values, integers) are
    /// harmless here: the `dominate` guards the reduction appends admit
    /// only declared levels into observable label positions.
    fn clause_env<'a>(&self, body: &'a [Atom]) -> HashMap<&'a str, (u8, LabelInterval)> {
        let mut env: HashMap<&'a str, (u8, LabelInterval)> = HashMap::new();
        if body.is_empty() {
            return env; // facts: nothing to bind
        }
        fn bind<'a>(
            env: &mut HashMap<&'a str, (u8, LabelInterval)>,
            t: &'a Term,
            prio: u8,
            iv: LabelInterval,
        ) {
            if let Some(name) = t.as_var() {
                let better = env.get(name).map(|&(p, _)| prio < p).unwrap_or(true);
                if better {
                    env.insert(name, (prio, iv));
                }
            }
        }
        let full = LabelInterval::full(&self.lat);
        for a in body {
            match a {
                Atom::M(m) => {
                    let (lv, cv) = self.m_intervals(&m.pred);
                    bind(&mut env, &m.level, 0, lv);
                    bind(&mut env, &m.class, 1, cv);
                    bind(&mut env, &m.key, 3, full.clone());
                    bind(&mut env, &m.value, 3, full.clone());
                }
                Atom::B(m, mode) => {
                    // A user-defined mode's bel/7 rules may put
                    // anything in the level/class positions.
                    let (lv, cv) = if Mode::parse(mode).is_some() {
                        self.m_intervals(&m.pred)
                    } else {
                        (full.clone(), full.clone())
                    };
                    bind(&mut env, &m.level, 0, lv);
                    bind(&mut env, &m.class, 1, cv);
                    bind(&mut env, &m.key, 3, full.clone());
                    bind(&mut env, &m.value, 3, full.clone());
                }
                Atom::P(p) => {
                    let node = self.node(PredKind::P, &p.pred);
                    for (i, t) in p.args.iter().enumerate() {
                        let iv = node
                            .and_then(|n| self.args[n].get(i).cloned())
                            .unwrap_or_else(|| full.clone());
                        bind(&mut env, t, 2, iv);
                    }
                }
                Atom::L(t) => bind(&mut env, t, 3, full.clone()),
                Atom::H(l, h) | Atom::Leq(l, h) => {
                    bind(&mut env, l, 3, full.clone());
                    bind(&mut env, h, 3, full.clone());
                }
            }
        }
        env
    }

    /// Resolve a label-position term to its achieved interval: a
    /// declared label is a point, an undeclared symbol / integer /
    /// null achieves nothing, and a variable reads the environment
    /// (unconstrained head variables — an ML0101 error — degrade to
    /// the full interval, staying sound).
    fn resolve(&self, env: &HashMap<&str, (u8, LabelInterval)>, t: &Term) -> LabelInterval {
        match t {
            Term::Sym(s) => self
                .lat
                .label(s)
                .map(LabelInterval::point)
                .unwrap_or_default(),
            Term::Int(_) | Term::Null => LabelInterval::empty(),
            Term::Var(v) => env
                .get(v.as_ref())
                .map(|(_, iv)| iv.clone())
                .unwrap_or_else(|| LabelInterval::full(&self.lat)),
        }
    }

    /// One monotone transfer step for a clause; `true` if the head
    /// predicate's intervals grew.
    fn transfer(&mut self, c: &Clause) -> bool {
        if !self.body_live(&c.body) {
            return false;
        }
        let env = self.clause_env(&c.body);
        match &c.head {
            Head::M(m) => {
                let lv = self.resolve(&env, &m.level);
                let cv = self.resolve(&env, &m.class);
                let Some(i) = self.node(PredKind::M, &m.pred) else {
                    return false;
                };
                let a = self.level[i].join(&self.lat, &lv);
                let b = self.class[i].join(&self.lat, &cv);
                a || b
            }
            Head::P(p) => {
                let ivs: Vec<LabelInterval> =
                    p.args.iter().map(|t| self.resolve(&env, t)).collect();
                let Some(i) = self.node(PredKind::P, &p.pred) else {
                    return false;
                };
                let mut changed = false;
                for (pos, iv) in ivs.into_iter().enumerate() {
                    if let Some(slot) = self.args[i].get_mut(pos) {
                        changed |= slot.join(&self.lat, &iv);
                    }
                }
                changed
            }
            Head::L(_) | Head::H(_, _) => false,
        }
    }

    /// The per-SCC fixpoint: process condensation groups in dependency
    /// order; within a group, iterate the member clauses until stable.
    /// The domain (antichain pairs over a finite poset, per predicate)
    /// is finite and the transfer functions only join, so each inner
    /// loop terminates.
    fn run_fixpoint(&mut self) {
        // Facts have no body: their transfer is a constant, so one pass
        // over them seeds the intervals and the fixpoint below only
        // iterates genuine rules (`by_head` holds rules only). Ground
        // m-facts — the bulk of any real database — join their two
        // point labels directly, skipping the environment machinery.
        let (stride, mut seeded) = self.fact_table();
        for ci in 0..self.rules.len() {
            let c = self.rules[ci];
            if !c.is_fact() {
                continue;
            }
            if let Some((i, lf, cf)) = self.ground_facts[ci] {
                let key = Self::fact_key(stride, i, lf, cf);
                if seeded[key] {
                    continue; // same labels already joined
                }
                seeded[key] = true;
                if let Some(l) = lf {
                    self.level[i].join_label(&self.lat, l);
                }
                if let Some(cl) = cf {
                    self.class[i].join_label(&self.lat, cl);
                }
                continue;
            }
            self.transfer(c);
        }
        for group in self.graph.condensation() {
            let clause_ids: Vec<usize> = group
                .iter()
                .flat_map(|&node| self.by_head[node].iter().copied())
                .collect();
            if clause_ids.is_empty() {
                continue;
            }
            loop {
                let mut changed = false;
                for &ci in &clause_ids {
                    let c = self.rules[ci];
                    changed |= self.transfer(c);
                }
                if !changed {
                    break;
                }
            }
        }
    }

    /// Post-fixpoint pass: record each live clause's head contribution
    /// (the evidence `--explain` and ML0202 present).
    ///
    /// Rules are recorded one by one, but *facts* are deduplicated per
    /// achieved-label signature: every downstream consumer of a source
    /// (the bounds themselves, ML0202's frontier pairing, `--explain`)
    /// reasons over achieved labels, never over fact multiplicity, so
    /// a predicate with thousands of same-labelled facts contributes
    /// one representative. This keeps the preflight linear in distinct
    /// label combinations (≤ |lattice|²) rather than in data volume.
    fn collect_sources(&mut self) {
        // Ground m-facts (the bulk of real data) dedup on their cached
        // point labels through a flat table — no hashing, no
        // environment machinery; everything else goes through the
        // generic signature.
        let (stride, mut seen_m) = self.fact_table();
        let mut seen_sig: HashSet<(usize, Vec<Option<Label>>)> = HashSet::new();
        for ci in 0..self.rules.len() {
            let c = self.rules[ci];
            if !self.body_live(&c.body) {
                continue;
            }
            if c.is_fact() {
                if let Some((i, lf, cf)) = self.ground_facts[ci] {
                    let key = Self::fact_key(stride, i, lf, cf);
                    if seen_m[key] {
                        continue; // same labels as an earlier fact
                    }
                    seen_m[key] = true;
                    let point = |l: Option<Label>| l.map(LabelInterval::point).unwrap_or_default();
                    self.sources[i].push(FlowSource {
                        span: c.span,
                        is_rule: false,
                        text: c.to_string(),
                        level: point(lf),
                        class: point(cf),
                    });
                    continue;
                }
            }
            let env = self.clause_env(&c.body);
            let mut sig: Vec<Option<Label>> = Vec::new();
            let push_iv = |sig: &mut Vec<Option<Label>>, iv: &LabelInterval| {
                sig.extend(iv.lo().iter().copied().map(Some));
                sig.push(None);
                sig.extend(iv.hi().iter().copied().map(Some));
                sig.push(None);
            };
            let (node, lv, cv) = match &c.head {
                Head::M(m) => {
                    let Some(i) = self.node(PredKind::M, &m.pred) else {
                        continue;
                    };
                    let lv = self.resolve(&env, &m.level);
                    let cv = self.resolve(&env, &m.class);
                    push_iv(&mut sig, &lv);
                    push_iv(&mut sig, &cv);
                    (i, lv, cv)
                }
                Head::P(p) => {
                    let Some(i) = self.node(PredKind::P, &p.pred) else {
                        continue;
                    };
                    for t in &p.args {
                        push_iv(&mut sig, &self.resolve(&env, t));
                    }
                    (i, LabelInterval::empty(), LabelInterval::empty())
                }
                Head::L(_) | Head::H(_, _) => continue,
            };
            if c.is_fact() && !seen_sig.insert((node, sig)) {
                continue; // same labels as an earlier fact of this predicate
            }
            self.sources[node].push(FlowSource {
                span: c.span,
                is_rule: !c.is_fact(),
                text: c.to_string(),
                level: lv,
                class: cv,
            });
        }
    }

    /// Record every site (rule body or query) that consults an
    /// m-predicate, with its mode and visibility context.
    fn collect_consumers(&mut self) {
        let mut found: Vec<(usize, Consumer)> = Vec::new();
        let scan = |this: &Flow<'p>,
                    atoms: &[Atom],
                    head: Option<&Head>,
                    span: Span,
                    found: &mut Vec<(usize, Consumer)>| {
            if !atoms
                .iter()
                .any(|a| matches!(a, Atom::M(_) | Atom::B(_, _)))
            {
                return; // facts and pure-Π bodies consult nothing
            }
            let ground = this.ground_labels(head, atoms);
            for a in atoms {
                let (m, mode) = match a {
                    Atom::M(m) => (m, None),
                    Atom::B(m, mode) => (m, Some(mode.to_string())),
                    _ => continue,
                };
                if let Some(i) = this.node(PredKind::M, &m.pred) {
                    found.push((
                        i,
                        Consumer {
                            span,
                            mode,
                            level: m.level.clone(),
                            class: m.class.clone(),
                            ground: ground.clone(),
                        },
                    ));
                }
            }
        };
        for &ci in &self.non_facts {
            let c = self.rules[ci];
            scan(self, &c.body, Some(&c.head), c.span, &mut found);
        }
        for (q, span) in self.queries {
            scan(self, q, None, *span, &mut found);
        }
        for (i, consumer) in found {
            self.consumers[i].push(consumer);
        }
    }

    /// All ground declared labels of a clause or query — the set whose
    /// common dominators are the clearances that can see every atom at
    /// once (ML0107's criterion, reused by ML0205/ML0206).
    fn ground_labels(&self, head: Option<&Head>, atoms: &[Atom]) -> Vec<Label> {
        let mut out = Vec::new();
        let mut push = |t: &Term| {
            if let Term::Sym(s) = t {
                if let Some(l) = self.lat.label(s) {
                    out.push(l);
                }
            }
        };
        if let Some(Head::M(m)) = head {
            push(&m.level);
            push(&m.class);
        }
        for a in atoms {
            if let Atom::M(m) | Atom::B(m, _) = a {
                push(&m.level);
                push(&m.class);
            }
        }
        out
    }

    fn push(&mut self, code: &'static str, name: &'static str, span: Span, message: String) {
        self.out.push(Diagnostic {
            code,
            name,
            severity: Severity::Warning,
            span,
            message,
        });
    }

    // ML0201 — a rule can assert its head at a level `h` while every
    // achieved level of some body atom is *not* dominated by `h`: data
    // observed only above (or incomparable to) `h` determines a fact
    // readable at `h` — a downward signalling channel through the rule.
    fn check_downward_flow(&mut self) {
        let mut found: Vec<(Span, String)> = Vec::new();
        for &ci in &self.non_facts {
            let c = self.rules[ci];
            if !self.body_live(&c.body) {
                continue;
            }
            let Head::M(h) = &c.head else { continue };
            let env = self.clause_env(&c.body);
            let head_iv = self.resolve(&env, &h.level);
            if head_iv.is_empty() {
                continue;
            }
            // A body-level variable guarded by an explicit `V leq …`
            // constraint is a deliberate dominance check, not a leak.
            let guarded: HashSet<&str> = c
                .body
                .iter()
                .filter_map(|a| match a {
                    Atom::Leq(l, _) => l.as_var(),
                    _ => None,
                })
                .collect();
            for a in &c.body {
                let m = match a {
                    Atom::M(m) => m,
                    Atom::B(m, mode) if Mode::parse(mode).is_some() => m,
                    _ => continue, // custom modes: no static body level
                };
                // Same variable in both level positions: the body is
                // read exactly at the head's level.
                if let (Some(hv), Some(bv)) = (h.level.as_var(), m.level.as_var()) {
                    if hv == bv {
                        continue;
                    }
                }
                if let Some(bv) = m.level.as_var() {
                    if guarded.contains(bv) {
                        continue;
                    }
                }
                let body_iv = match &m.level {
                    Term::Sym(s) => match self.lat.label(s) {
                        Some(l) => LabelInterval::point(l),
                        None => continue, // undeclared: ML0103's error
                    },
                    Term::Var(_) => self.m_intervals(&m.pred).0,
                    Term::Int(_) | Term::Null => continue,
                };
                if body_iv.is_empty() {
                    continue;
                }
                let leak = head_iv
                    .lo()
                    .iter()
                    .find(|&&hl| !body_iv.may_flow_below(&self.lat, hl));
                if let Some(&hl) = leak {
                    found.push((
                        c.span,
                        format!(
                            "`{c}` can assert `{}` at level `{}` from `{}` whose achieved \
                             levels are all outside that level's view: readers at `{}` \
                             learn about data they are not cleared for",
                            h.pred,
                            self.lat.name(hl),
                            m.pred,
                            self.lat.name(hl),
                        ),
                    ));
                    break; // one finding per clause
                }
            }
        }
        for (span, msg) in found {
            self.push("ML0201", "downward-flow-channel", span, msg);
        }
    }

    // ML0202 — Proposition 5.1 lifted interprocedurally: when a
    // rule-derived value joins a predicate that also achieves a
    // *comparable but different* classification from another source,
    // the lower classification acts as a cover story the higher one
    // betrays — an inference channel across levels. Two plain facts at
    // comparable classes are ordinary polyinstantiation (the runtime
    // consistency check, ML0110, owns that case), so at least one of
    // the pair must be a rule.
    fn check_inference_channels(&mut self) {
        let mut found: Vec<(Span, String)> = Vec::new();
        for i in 0..self.nodes.len() {
            let (kind, name) = &self.nodes[i];
            if *kind != PredKind::M
                || self.sources[i].len() < 2
                || !self.sources[i].iter().any(|s| s.is_rule)
            {
                // Fact-only predicates cannot open this channel (two
                // plain facts at comparable classes are ML0110's
                // polyinstantiation case), so skip them outright.
                continue;
            }
            let frontiers: Vec<Vec<Label>> = self.sources[i]
                .iter()
                .map(|s| {
                    let mut v: Vec<Label> =
                        s.class.lo().iter().chain(s.class.hi()).copied().collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            'pred: for a in 0..self.sources[i].len() {
                for b in (a + 1)..self.sources[i].len() {
                    let (sa, sb) = (&self.sources[i][a], &self.sources[i][b]);
                    if !sa.is_rule && !sb.is_rule {
                        continue;
                    }
                    let rule = if sa.is_rule { sa } else { sb };
                    for &c1 in &frontiers[a] {
                        for &c2 in &frontiers[b] {
                            if c1 != c2 && (self.lat.leq(c1, c2) || self.lat.leq(c2, c1)) {
                                found.push((
                                    rule.span,
                                    format!(
                                        "`{name}` is derived with comparable distinct \
                                         classifications `{}` and `{}` (sources `{}` and \
                                         `{}`): the lower value is a cover story the \
                                         higher one betrays across levels",
                                        self.lat.name(c1),
                                        self.lat.name(c2),
                                        sa.text,
                                        sb.text,
                                    ),
                                ));
                                break 'pred; // one finding per predicate
                            }
                        }
                    }
                }
            }
        }
        for (span, msg) in found {
            self.push("ML0202", "inference-channel", span, msg);
        }
    }

    // ML0203 — a rule in a recursive component that re-derives its own
    // predicate at a strictly higher ground level: every unfolding
    // climbs the lattice, so the recursion replicates data upward
    // level by level (and can never close back down).
    fn check_escalating_recursion(&mut self) {
        let mut found: Vec<(Span, String)> = Vec::new();
        for &ci in &self.non_facts {
            let c = self.rules[ci];
            let Head::M(h) = &c.head else { continue };
            let Term::Sym(hs) = &h.level else { continue };
            let Some(hl) = self.lat.label(hs) else {
                continue;
            };
            let head_name = format!("m:{}", h.pred);
            for a in &c.body {
                let m = match a {
                    Atom::M(m) | Atom::B(m, _) => m,
                    _ => continue,
                };
                let Term::Sym(bs) = &m.level else { continue };
                let Some(bl) = self.lat.label(bs) else {
                    continue;
                };
                if self.lat.leq(bl, hl)
                    && bl != hl
                    && self.graph.same_scc(&head_name, &format!("m:{}", m.pred))
                {
                    found.push((
                        c.span,
                        format!(
                            "`{c}` recursively re-asserts `{}` at level `{hs}` from level \
                             `{bs}`: each unfolding escalates the data one level up the \
                             lattice",
                            h.pred,
                        ),
                    ));
                    break;
                }
            }
        }
        for (span, msg) in found {
            self.push("ML0203", "level-escalating-recursion", span, msg);
        }
    }

    // ML0204 — an m-predicate consulted under two or more different
    // belief modes while its achieved levels or classifications are
    // not a single point: the modes resolve the ambiguity differently
    // (fir/opt/cau disagree exactly when several levels or classes are
    // in play), so the program's meaning silently depends on which
    // site asks.
    fn check_mode_instability(&mut self) {
        let mut found: Vec<(Span, String)> = Vec::new();
        for i in 0..self.nodes.len() {
            let (kind, name) = &self.nodes[i];
            if *kind != PredKind::M || self.level[i].is_empty() {
                continue;
            }
            if self.level[i].is_point() && self.class[i].is_point() {
                continue;
            }
            let mut modes: Vec<String> = self.consumers[i]
                .iter()
                .map(|c| c.mode.clone().unwrap_or_else(|| "m".to_owned()))
                .collect();
            modes.sort();
            modes.dedup();
            if modes.len() < 2 {
                continue;
            }
            let span = self.consumers[i]
                .iter()
                .map(|c| c.span)
                .find(|s| s.is_known())
                .unwrap_or_else(Span::unknown);
            found.push((
                span,
                format!(
                    "`{name}` achieves several levels or classifications but is \
                     consulted under {} different modes ({}): belief answers differ \
                     by consulting site",
                    modes.len(),
                    modes.join(", "),
                ),
            ));
        }
        for (span, msg) in found {
            self.push("ML0204", "belief-mode-instability", span, msg);
        }
    }

    // ML0205 — generalizing ML0114 from a fixed clearance to all of
    // them: a rule with some body atom invisible at *every* maximal
    // label can never fire for any user. Interprocedural: a body
    // atom's achieved level interval (not just its ground label) can
    // prove invisibility. Clauses ML0107 already flags (no common
    // dominator among their own ground labels) are skipped.
    fn check_dead_at_every_clearance(&mut self) {
        let maximal = self.lat.maximal();
        let mut found: Vec<(Span, String)> = Vec::new();
        for &ci in &self.non_facts {
            let c = self.rules[ci];
            if !c
                .body
                .iter()
                .any(|a| matches!(a, Atom::M(_) | Atom::B(_, _)))
            {
                continue;
            }
            let g = self.ground_labels(Some(&c.head), &c.body);
            if !g.is_empty() && self.lat.common_dominators(g).is_empty() {
                continue; // ML0107's finding
            }
            let dead_everywhere = maximal
                .iter()
                .all(|&u| c.body.iter().any(|a| self.atom_invisible_at(a, u)));
            if dead_everywhere {
                found.push((
                    c.span,
                    format!(
                        "`{c}` has a body atom invisible at every maximal clearance: \
                         the rule is dead for every user of this lattice"
                    ),
                ));
            }
        }
        for (span, msg) in found {
            self.push("ML0205", "dead-at-every-clearance", span, msg);
        }
    }

    /// Whether a body atom provably cannot be satisfied by any tuple
    /// visible at clearance `u`. Ground labels are decisive on their
    /// own; variable label positions consult the achieved intervals
    /// (only when nonempty — emptiness is liveness territory, not
    /// visibility evidence). Custom-mode b-atoms are never evidence:
    /// their `bel/7` rules may derive beliefs from p-facts alone.
    fn atom_invisible_at(&self, a: &Atom, u: Label) -> bool {
        let (m, custom) = match a {
            Atom::M(m) => (m, false),
            Atom::B(m, mode) => (m, Mode::parse(mode).is_none()),
            _ => return false,
        };
        for t in [&m.level, &m.class] {
            if let Term::Sym(s) = t {
                if let Some(l) = self.lat.label(s) {
                    if !self.lat.leq(l, u) {
                        return true;
                    }
                }
            }
        }
        if custom {
            return false;
        }
        let (lv, cv) = self.m_intervals(&m.pred);
        if m.level.is_var() && !lv.is_empty() && !lv.may_flow_below(&self.lat, u) {
            return true;
        }
        if m.class.is_var() && !cv.is_empty() && !cv.may_flow_below(&self.lat, u) {
            return true;
        }
        false
    }

    // ML0206 — a ground fact no consulting site can ever observe:
    // every consumer either pins a different level/class, believes in
    // a mode that cannot reach the fact's level, or carries ground
    // context no clearance can combine with the fact's labels. Facts
    // with no consumers at all are ML0111's finding, and facts whose
    // own labels have no common dominator are ML0107's.
    fn check_unreachable_facts(&mut self) {
        let mut found: Vec<(Span, String)> = Vec::new();
        // Reachability depends only on (predicate, level, class), so a
        // bulk load of same-labelled facts costs one computation, not
        // one consumer scan per fact. Flat tables keyed by the cached
        // ground-fact labels: 0 = not yet computed.
        let n = self.lat.len();
        let mut dominated = vec![0u8; n * n];
        let mut reach = vec![0u8; self.nodes.len() * n * n];
        for ci in 0..self.rules.len() {
            let c = self.rules[ci];
            if !c.is_fact() {
                continue;
            }
            let Some((i, Some(lf), Some(cf))) = self.ground_facts[ci] else {
                continue; // non-ground or undeclared: other lints' turf
            };
            let dkey = lf.index() * n + cf.index();
            if dominated[dkey] == 0 {
                dominated[dkey] = if self.lat.common_dominators([lf, cf]).is_empty() {
                    1
                } else {
                    2
                };
            }
            if dominated[dkey] == 1 {
                continue; // ML0107's finding
            }
            if self.consumers[i].is_empty() {
                continue; // ML0111's finding
            }
            let rkey = i * n * n + dkey;
            if reach[rkey] == 0 {
                reach[rkey] = if self.consumers[i]
                    .iter()
                    .any(|site| self.site_reaches(site, lf, cf))
                {
                    2
                } else {
                    1
                };
            }
            if reach[rkey] == 1 {
                let Head::M(m) = &c.head else { continue };
                found.push((
                    c.span,
                    format!(
                        "fact `{c}` is asserted at level `{}` with classification \
                         `{}`, but no site consulting `{}` can ever observe it",
                        self.lat.name(lf),
                        self.lat.name(cf),
                        m.pred,
                    ),
                ));
            }
        }
        for (span, msg) in found {
            self.push("ML0206", "unreachable-level-fact", span, msg);
        }
    }

    /// Whether a consumer site can observe a fact asserted at level
    /// `lf` with classification `cf`. Plain m-atoms and `fir` beliefs
    /// read exactly their level; `opt`/`cau` believe anything from
    /// below; custom modes are assumed to reach everything.
    fn site_reaches(&self, site: &Consumer, lf: Label, cf: Label) -> bool {
        if site.is_custom() {
            return true;
        }
        let level_ok = match &site.level {
            Term::Sym(g) => match self.lat.label(g) {
                None => false,
                Some(gl) => match site.mode.as_deref().and_then(Mode::parse) {
                    None | Some(Mode::Fir) => lf == gl,
                    Some(Mode::Opt) | Some(Mode::Cau) => self.lat.leq(lf, gl),
                },
            },
            _ => true,
        };
        if !level_ok {
            return false;
        }
        let class_ok = match &site.class {
            Term::Sym(g) => self.lat.label(g) == Some(cf),
            _ => true,
        };
        if !class_ok {
            return false;
        }
        // Some clearance must see the site's ground context *and* the
        // fact's own labels at once.
        let mut labels = site.ground.clone();
        labels.push(lf);
        labels.push(cf);
        !self.lat.common_dominators(labels).is_empty()
    }

    fn into_report(self, source: String) -> FlowReport {
        let mut preds = BTreeMap::new();
        for (i, (kind, name)) in self.nodes.iter().enumerate() {
            let mut modes: Vec<String> = self.consumers[i]
                .iter()
                .map(|c| c.mode.clone().unwrap_or_else(|| "m".to_owned()))
                .collect();
            modes.sort();
            modes.dedup();
            preds.insert(
                (*kind, name.clone()),
                PredicateFlow {
                    kind: *kind,
                    name: name.clone(),
                    level: self.level[i].clone(),
                    class: self.class[i].clone(),
                    args: self.args[i].clone(),
                    nonempty: self.nonempty[i],
                    modes,
                    sources: self.sources[i].clone(),
                },
            );
        }
        FlowReport {
            lattice: Some(self.lat),
            preds,
            report: LintReport::from_parts(self.out, source),
        }
    }
}

/// The predicate a body atom depends on for liveness and label flow:
/// m-atoms and built-in-mode b-atoms read the m-predicate; a b-atom in
/// a user-defined mode (§7) is proved from `bel/7` derivations instead.
fn atom_dep(a: &Atom) -> Option<(PredKind, &str)> {
    match a {
        Atom::M(m) => Some((PredKind::M, &m.pred)),
        Atom::B(m, mode) => {
            if Mode::parse(mode).is_some() {
                Some((PredKind::M, &m.pred))
            } else {
                Some((PredKind::P, crate::modes::BEL))
            }
        }
        Atom::P(p) => Some((PredKind::P, &p.pred)),
        Atom::L(_) | Atom::H(_, _) | Atom::Leq(_, _) => None,
    }
}

/// Render an interval with label names: `⊥`, a single name, or
/// `[{lo…}, {hi…}]`.
fn fmt_interval(lat: &SecurityLattice, iv: &LabelInterval) -> String {
    if iv.is_empty() {
        return "⊥".to_owned();
    }
    let (lo, hi) = iv.names(lat);
    if iv.is_point() {
        return lo[0].to_owned();
    }
    format!("[{{{}}}, {{{}}}]", lo.join(","), hi.join(","))
}

/// Render an interval as JSON: `{"lo":[…],"hi":[…]}`.
fn interval_json(lat: &SecurityLattice, iv: &LabelInterval) -> String {
    let (lo, hi) = iv.names(lat);
    let list = |v: Vec<&str>| {
        v.iter()
            .map(|n| format!("\"{}\"", crate::lint::json_escape(n)))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!("{{\"lo\":[{}],\"hi\":[{}]}}", list(lo), list(hi))
}

impl FlowReport {
    /// The security lattice the analysis ran over (`None` when the
    /// program has no lattice — pure Π, empty or cyclic Λ — and the
    /// analysis was skipped).
    pub fn lattice(&self) -> Option<&SecurityLattice> {
        self.lattice.as_deref()
    }

    /// The fixpoint result for one predicate, if it occurs in the
    /// program.
    pub fn predicate(&self, kind: PredKind, name: &str) -> Option<&PredicateFlow> {
        self.preds.get(&(kind, name.to_owned()))
    }

    /// All analysed predicates, ordered by kind then name.
    pub fn predicates(&self) -> impl Iterator<Item = &PredicateFlow> {
        self.preds.values()
    }

    /// The `ML02xx` findings, errors first then source order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.report.diagnostics
    }

    /// Number of error-severity findings (currently always zero — the
    /// ML02xx codes are warnings — but `--deny flow` treats any
    /// finding as fatal).
    pub fn errors(&self) -> usize {
        self.report.errors()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.report.warnings()
    }

    /// The findings wrapped as a lint report (for uniform rendering).
    pub fn lint_report(&self) -> &LintReport {
        &self.report
    }

    /// One summary line for a predicate's bounds.
    fn describe(&self, lat: &SecurityLattice, pf: &PredicateFlow) -> String {
        let live = if pf.nonempty { "" } else { ", possibly empty" };
        match pf.kind {
            PredKind::M => {
                let modes = if pf.modes.is_empty() {
                    String::new()
                } else {
                    format!(", modes: {}", pf.modes.join(" "))
                };
                format!(
                    "m {}: level ∈ {}, class ∈ {}{live}{modes}",
                    pf.name,
                    fmt_interval(lat, &pf.level),
                    fmt_interval(lat, &pf.class),
                )
            }
            PredKind::P => {
                let args: Vec<String> = pf.args.iter().map(|iv| fmt_interval(lat, iv)).collect();
                format!("p {}({}){live}", pf.name, args.join(", "))
            }
        }
    }

    /// Render the per-predicate bounds followed by the findings,
    /// rustc-style (mirrors [`LintReport::render_human`]).
    pub fn render_human(&self, source_name: &str) -> String {
        let mut out = String::new();
        match &self.lattice {
            None => out.push_str(
                "flow: no security lattice (pure-Π program, or Λ is empty/cyclic); \
                 nothing to analyse\n",
            ),
            Some(lat) => {
                out.push_str(&format!(
                    "flow: {} predicate(s) over a lattice of {} level(s)\n",
                    self.preds.len(),
                    lat.len()
                ));
                for pf in self.preds.values() {
                    out.push_str(&format!("  {}\n", self.describe(lat, pf)));
                }
            }
        }
        out.push('\n');
        out.push_str(&self.report.render_human(source_name));
        out
    }

    /// Render the whole report as a JSON object (hand-rolled; the
    /// workspace has no serde):
    /// `{"predicates":[…],"diagnostics":[…],"errors":N,"warnings":N}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"predicates\":[");
        if let Some(lat) = &self.lattice {
            for (i, pf) in self.preds.values().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&predicate_json(lat, pf, false));
            }
        }
        out.push_str("],\"diagnostics\":");
        out.push_str(&diagnostics_json(&self.report.diagnostics));
        out.push_str(&format!(
            ",\"errors\":{},\"warnings\":{}}}",
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// Explain one predicate's bounds for humans: the intervals, the
    /// consult modes, and every clause contributing to them. `None`
    /// when the predicate does not occur (in either namespace).
    pub fn explain(&self, pred: &str) -> Option<String> {
        let lat = self.lattice.as_ref()?;
        let matches: Vec<&PredicateFlow> = self.preds.values().filter(|p| p.name == pred).collect();
        if matches.is_empty() {
            return None;
        }
        let mut out = String::new();
        for pf in matches {
            out.push_str(&format!("{}\n", self.describe(lat, pf)));
            if pf.sources.is_empty() {
                out.push_str("  (no defining clauses: empty unless updated at runtime)\n");
            }
            for s in &pf.sources {
                let what = if s.is_rule { "rule" } else { "fact" };
                let contrib = if pf.kind == PredKind::M {
                    format!(
                        " → level ∈ {}, class ∈ {}",
                        fmt_interval(lat, &s.level),
                        fmt_interval(lat, &s.class)
                    )
                } else {
                    String::new()
                };
                out.push_str(&format!("  {} {} `{}`{}\n", s.span, what, s.text, contrib));
            }
        }
        Some(out)
    }

    /// [`FlowReport::explain`] as a JSON array of per-namespace
    /// objects, each with its sources.
    pub fn explain_json(&self, pred: &str) -> Option<String> {
        let lat = self.lattice.as_ref()?;
        let matches: Vec<&PredicateFlow> = self.preds.values().filter(|p| p.name == pred).collect();
        if matches.is_empty() {
            return None;
        }
        let mut out = String::from("[");
        for (i, pf) in matches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&predicate_json(lat, pf, true));
        }
        out.push(']');
        Some(out)
    }

    /// Whether `clause` provably contributes nothing observable at
    /// `clearance`, so a demand evaluation for that user may drop it
    /// without changing any answer.
    ///
    /// Criteria split by update sensitivity:
    ///
    /// * **Always sound** (ground labels only — the lattice and the
    ///   clearance are fixed for the engine's lifetime, so no
    ///   `apply_updates` can invalidate them): a ground head level not
    ///   dominated by the clearance (facts at such levels are invisible
    ///   through every proof rule at or below it); a ground body level
    ///   or classification not dominated by the clearance (the
    ///   reduction's `dominate` guards can never pass); a ground
    ///   `l leq h` body constraint false in the lattice.
    /// * **Bounds-based, `use_bounds`-gated** (computed from the static
    ///   program; updates can widen achieved label sets, so callers
    ///   must pass `use_bounds = false` once any update has been
    ///   applied): a body m-predicate that is statically empty, or
    ///   whose achieved levels/classifications can never flow below the
    ///   clearance; a statically empty body p-predicate. B-atoms in
    ///   user-defined modes only use the `bel/7` liveness check, never
    ///   the m-predicate bounds.
    ///
    /// Facts are never prunable (they are the data), and unknown
    /// predicates or clearances conservatively keep the clause.
    pub fn rule_prunable(&self, clause: &Clause, clearance: &str, use_bounds: bool) -> bool {
        let Some(lat) = self.lattice.as_ref() else {
            return false;
        };
        let Some(u) = lat.label(clearance) else {
            return false;
        };
        if clause.is_fact() {
            return false;
        }
        // Ground head level: the derived fact sits where `clearance`
        // can never look. (Classification must NOT be used this way: a
        // low-level fact with a high classification still participates
        // in `beaten` competition below.)
        if let Head::M(m) = &clause.head {
            if let Term::Sym(s) = &m.level {
                if let Some(l) = lat.label(s) {
                    if !lat.leq(l, u) {
                        return true;
                    }
                }
            }
        }
        for a in &clause.body {
            match a {
                Atom::Leq(Term::Sym(lo), Term::Sym(hi)) => {
                    if let (Some(l), Some(h)) = (lat.label(lo), lat.label(hi)) {
                        if !lat.leq(l, h) {
                            return true;
                        }
                    }
                }
                Atom::M(m) | Atom::B(m, _) => {
                    let custom = matches!(a, Atom::B(_, mode) if Mode::parse(mode).is_none());
                    for t in [&m.level, &m.class] {
                        if let Term::Sym(s) = t {
                            if let Some(l) = lat.label(s) {
                                if !lat.leq(l, u) {
                                    return true;
                                }
                            }
                        }
                    }
                    if !use_bounds {
                        continue;
                    }
                    if custom {
                        // Only the liveness of the user-mode machinery
                        // itself can prune the atom.
                        if let Some(pf) = self.predicate(PredKind::P, crate::modes::BEL) {
                            if !pf.nonempty {
                                return true;
                            }
                        }
                        continue;
                    }
                    if let Some(pf) = self.predicate(PredKind::M, &m.pred) {
                        if !pf.nonempty {
                            return true;
                        }
                        if m.level.is_var()
                            && !pf.level.is_empty()
                            && !pf.level.may_flow_below(lat, u)
                        {
                            return true;
                        }
                        if m.class.is_var()
                            && !pf.class.is_empty()
                            && !pf.class.may_flow_below(lat, u)
                        {
                            return true;
                        }
                    }
                }
                Atom::P(p) if use_bounds => {
                    if let Some(pf) = self.predicate(PredKind::P, &p.pred) {
                        if !pf.nonempty {
                            return true;
                        }
                    }
                }
                _ => {}
            }
        }
        false
    }
}

/// One predicate as a JSON object; with `sources`, includes the
/// per-clause contributions (`--explain` format).
fn predicate_json(lat: &SecurityLattice, pf: &PredicateFlow, sources: bool) -> String {
    let esc = crate::lint::json_escape;
    let mut out = format!(
        "{{\"kind\":\"{}\",\"name\":\"{}\",\"nonempty\":{},\"level\":{},\"class\":{}",
        pf.kind.tag(),
        esc(&pf.name),
        pf.nonempty,
        interval_json(lat, &pf.level),
        interval_json(lat, &pf.class),
    );
    out.push_str(",\"args\":[");
    for (i, iv) in pf.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&interval_json(lat, iv));
    }
    out.push_str("],\"modes\":[");
    for (i, m) in pf.modes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", esc(m)));
    }
    out.push(']');
    if sources {
        out.push_str(",\"sources\":[");
        for (i, s) in pf.sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"line\":{},\"column\":{},\"rule\":{},\"text\":\"{}\",\"level\":{},\"class\":{}}}",
                s.span.line,
                s.span.column,
                s.is_rule,
                esc(&s.text),
                interval_json(lat, &s.level),
                interval_json(lat, &s.class),
            ));
        }
        out.push(']');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_database;

    fn report(src: &str) -> FlowReport {
        analyze_source(src).unwrap()
    }

    fn codes(r: &FlowReport) -> Vec<&'static str> {
        r.diagnostics().iter().map(|d| d.code).collect()
    }

    const LAT: &str = "level(u). level(c). level(s). order(u, c). order(c, s).\n";

    #[test]
    fn pure_pi_program_has_no_lattice_and_no_findings() {
        let r = report("p(a). q(X) <- p(X). <- q(X).");
        assert!(r.lattice().is_none());
        assert_eq!(r.predicates().count(), 0);
        assert!(r.diagnostics().is_empty());
        assert!(r.render_human("t").contains("no security lattice"));
    }

    #[test]
    fn fact_levels_become_interval_frontiers() {
        let r = report(&format!("{LAT} u[p(k : a -u-> v)]. c[p(k : a -c-> w)]."));
        let lat = r.lattice().unwrap();
        let p = r.predicate(PredKind::M, "p").unwrap();
        assert!(p.nonempty);
        let (lo, hi) = p.level.names(lat);
        assert_eq!(lo, vec!["u"]);
        assert_eq!(hi, vec!["c"]);
        let u = lat.label("u").unwrap();
        let s = lat.label("s").unwrap();
        assert!(p.level.may_flow_below(lat, u));
        assert!(!p.class.contains(lat, s));
        assert_eq!(p.sources.len(), 2);
        assert!(p.sources.iter().all(|src| !src.is_rule));
    }

    #[test]
    fn bounds_propagate_through_rules_interprocedurally() {
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)]. c[p(k : a -c-> w)].
             c[q(K : b -C-> V)] <- c[p(K : a -C-> V)].
             r(u)."
        ));
        let lat = r.lattice().unwrap();
        let q = r.predicate(PredKind::M, "q").unwrap();
        // q's class variable is fed from p's class interval.
        let (lo, hi) = q.class.names(lat);
        assert_eq!(lo, vec!["u"]);
        assert_eq!(hi, vec!["c"]);
        // q is asserted only at the ground level c.
        assert!(q.level.is_point());
        let rp = r.predicate(PredKind::P, "r").unwrap();
        assert!(rp.args[0].is_point());
        assert_eq!(rp.args[0].names(lat).0, vec!["u"]);
    }

    #[test]
    fn statically_empty_predicate_is_not_nonempty() {
        let r = report(&format!(
            "{LAT}
             u[q(K : b -C-> V)] <- u[ghost(K : a -C-> V)]."
        ));
        assert!(!r.predicate(PredKind::M, "q").unwrap().nonempty);
        assert!(!r.predicate(PredKind::M, "ghost").unwrap().nonempty);
        // An empty body predicate contributes no source and no interval.
        assert!(r.predicate(PredKind::M, "q").unwrap().level.is_empty());
    }

    #[test]
    fn ml0201_fires_on_downward_rule_flow() {
        let r = report(&format!(
            "{LAT}
             s[p(k : a -u-> v)].
             u[q(k : a -u-> V)] <- s[p(k : a -u-> V)]."
        ));
        assert!(codes(&r).contains(&"ML0201"), "got {:?}", codes(&r));
    }

    #[test]
    fn ml0201_quiet_on_level_preserving_and_guarded_rules() {
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)]. s[p(k : a -s-> w)].
             L[q(K : b -C-> V)] <- L[p(K : a -C-> V)].
             u[r(k : b -u-> V)] <- L[p(k : a -u-> V)], L leq u."
        ));
        assert!(!codes(&r).contains(&"ML0201"), "got {:?}", codes(&r));
    }

    #[test]
    fn ml0202_fires_on_rule_derived_comparable_cover_story() {
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)].
             c[r(k : b -c-> x)].
             c[p(K : a -c-> W)] <- c[r(K : b -c-> W)]."
        ));
        assert!(codes(&r).contains(&"ML0202"), "got {:?}", codes(&r));
    }

    #[test]
    fn ml0202_quiet_on_plain_polyinstantiated_facts() {
        // Two facts at comparable classes are ordinary
        // polyinstantiation, the runtime consistency check's business.
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)]. c[p(k : a -c-> w)]."
        ));
        assert!(!codes(&r).contains(&"ML0202"), "got {:?}", codes(&r));
    }

    #[test]
    fn ml0203_fires_on_level_escalating_recursion() {
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)].
             s[p(k : a -u-> V)] <- u[p(k : a -u-> V)]."
        ));
        assert!(codes(&r).contains(&"ML0203"), "got {:?}", codes(&r));
    }

    #[test]
    fn ml0203_quiet_without_recursion() {
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)].
             s[q(k : a -u-> V)] <- u[p(k : a -u-> V)]."
        ));
        assert!(!codes(&r).contains(&"ML0203"), "got {:?}", codes(&r));
    }

    #[test]
    fn ml0204_fires_on_mixed_modes_over_unstable_predicate() {
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)]. c[p(k : a -c-> w)].
             c[q(K : b -C-> V)] <- c[p(K : a -C-> V)] << fir.
             c[r(K : b -C-> V)] <- c[p(K : a -C-> V)] << opt."
        ));
        assert!(codes(&r).contains(&"ML0204"), "got {:?}", codes(&r));
        let p = r.predicate(PredKind::M, "p").unwrap();
        assert_eq!(p.modes, vec!["fir".to_owned(), "opt".to_owned()]);
    }

    #[test]
    fn ml0204_quiet_on_single_mode_or_point_interval() {
        // Two modes but a single achieved level/class point: stable.
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)].
             c[q(K : b -C-> V)] <- c[p(K : a -C-> V)] << fir.
             c[r(K : b -C-> V)] <- c[p(K : a -C-> V)] << opt."
        ));
        assert!(!codes(&r).contains(&"ML0204"), "got {:?}", codes(&r));
        // Several levels but one mode: stable by construction.
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)]. c[p(k : a -c-> w)].
             c[q(K : b -C-> V)] <- c[p(K : a -C-> V)] << opt."
        ));
        assert!(!codes(&r).contains(&"ML0204"), "got {:?}", codes(&r));
    }

    #[test]
    fn ml0205_fires_on_rule_dead_at_every_clearance() {
        // Lattice with two maximal labels a and b; the body needs
        // p-data classified b, but p is only ever achieved at level a,
        // so no maximal clearance sees the body.
        let r = report(
            "level(u). level(a). level(b). order(u, a). order(u, b).
             a[p(k : x -a-> v)].
             u[r(k : y -u-> V)] <- L[p(k : x -b-> V)].",
        );
        assert!(codes(&r).contains(&"ML0205"), "got {:?}", codes(&r));
        // ML0107 must stay silent here (b dominates {u, b}).
        let lint = crate::lint::lint_source(
            "level(u). level(a). level(b). order(u, a). order(u, b).
             a[p(k : x -a-> v)].
             u[r(k : y -u-> V)] <- L[p(k : x -b-> V)].",
        )
        .unwrap();
        assert!(lint.diagnostics.iter().all(|d| d.code != "ML0107"));
    }

    #[test]
    fn ml0205_quiet_on_rules_visible_at_some_clearance() {
        let r = report(&format!(
            "{LAT}
             s[p(k : a -s-> v)].
             u[r(k : b -u-> V)] <- s[p(k : a -s-> V)]."
        ));
        assert!(!codes(&r).contains(&"ML0205"), "got {:?}", codes(&r));
    }

    #[test]
    fn ml0206_fires_on_fact_no_consumer_reaches() {
        let r = report(&format!(
            "{LAT}
             s[p(k : a -s-> v)].
             u[q(K : b -C-> V)] <- u[p(K : a -C-> V)]."
        ));
        assert!(codes(&r).contains(&"ML0206"), "got {:?}", codes(&r));
    }

    #[test]
    fn ml0206_quiet_when_a_consumer_can_observe() {
        // A variable-level consumer reaches every assertion level.
        let r = report(&format!(
            "{LAT}
             s[p(k : a -s-> v)].
             L[q(K : b -C-> V)] <- L[p(K : a -C-> V)]."
        ));
        assert!(!codes(&r).contains(&"ML0206"), "got {:?}", codes(&r));
        // An opt-mode believer above the fact's level reaches it too.
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)].
             s[q(K : b -C-> V)] <- s[p(K : a -C-> V)] << opt."
        ));
        assert!(!codes(&r).contains(&"ML0206"), "got {:?}", codes(&r));
    }

    #[test]
    fn custom_mode_consumers_are_conservative() {
        // A user-defined mode could reach anything: no ML0206, and the
        // b-atom's dependency is bel/7, not the m-predicate.
        let r = report(&format!(
            "{LAT}
             s[p(k : a -s-> v)].
             bel(p, K, a, V, C, L, myway) <- level(L).
             u[q(K : b -C-> V)] <- u[p(K : a -C-> V)] << myway."
        ));
        assert!(!codes(&r).contains(&"ML0206"), "got {:?}", codes(&r));
        assert!(r.predicate(PredKind::P, crate::modes::BEL).is_some());
    }

    #[test]
    fn explain_renders_bounds_and_sources() {
        let r = report(&format!(
            "{LAT}
             u[p(k : a -u-> v)]. c[p(k : a -c-> w)]."
        ));
        let text = r.explain("p").unwrap();
        assert!(text.contains("level ∈"), "{text}");
        assert!(text.contains("fact"), "{text}");
        assert!(r.explain("nosuch").is_none());
        let json = r.explain_json("p").unwrap();
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("\"sources\""), "{json}");
    }

    #[test]
    fn render_json_has_predicates_and_diagnostics() {
        let r = report(&format!(
            "{LAT}
             s[p(k : a -u-> v)].
             u[q(k : a -u-> V)] <- s[p(k : a -u-> V)]."
        ));
        let json = r.render_json();
        assert!(json.contains("\"predicates\""), "{json}");
        assert!(json.contains("\"ML0201\""), "{json}");
        assert!(json.contains("\"warnings\""), "{json}");
    }

    #[test]
    fn rule_prunable_ground_criteria_are_update_independent() {
        let db = parse_database(&format!(
            "{LAT}
             u[p(k : a -u-> v)]. s[p(k : a -s-> w)].
             s[q(K : b -C-> V)] <- s[p(K : a -C-> V)].
             L[r(K : b -C-> V)] <- L[p(K : a -C-> V)]."
        ))
        .unwrap();
        let r = analyze_db(&db);
        let high_rule = db
            .sigma()
            .iter()
            .find(|c| matches!(&c.head, Head::M(m) if m.pred.as_ref() == "q"))
            .unwrap();
        let generic_rule = db
            .sigma()
            .iter()
            .find(|c| matches!(&c.head, Head::M(m) if m.pred.as_ref() == "r"))
            .unwrap();
        let fact = db.sigma().iter().find(|c| c.is_fact()).unwrap();
        // Ground head/body level s is invisible at u — prunable with
        // and without bounds (update-independent).
        assert!(r.rule_prunable(high_rule, "u", true));
        assert!(r.rule_prunable(high_rule, "u", false));
        // …but not at s itself.
        assert!(!r.rule_prunable(high_rule, "s", true));
        // The level-generic rule must survive everywhere.
        assert!(!r.rule_prunable(generic_rule, "u", true));
        // Facts are never prunable.
        assert!(!r.rule_prunable(fact, "u", true));
        // Unknown clearances keep everything.
        assert!(!r.rule_prunable(high_rule, "zz", true));
    }

    #[test]
    fn rule_prunable_bounds_criteria_respect_the_gate() {
        let db = parse_database(&format!(
            "{LAT}
             s[p(k : a -s-> v)].
             L[q(K : b -C-> V)] <- L[p(K : a -C-> V)].
             L[r(K : b -C-> V)] <- L[ghost(K : a -C-> V)]."
        ))
        .unwrap();
        let r = analyze_db(&db);
        let q_rule = db
            .sigma()
            .iter()
            .find(|c| matches!(&c.head, Head::M(m) if m.pred.as_ref() == "q"))
            .unwrap();
        let ghost_rule = db
            .sigma()
            .iter()
            .find(|c| matches!(&c.head, Head::M(m) if m.pred.as_ref() == "r"))
            .unwrap();
        // p only achieves level s: at clearance u the variable-level
        // body can never be visible — but only the static bounds know,
        // so the criterion is gated.
        assert!(r.rule_prunable(q_rule, "u", true));
        assert!(!r.rule_prunable(q_rule, "u", false));
        assert!(!r.rule_prunable(q_rule, "s", true));
        // ghost is statically empty: prunable at every clearance, but
        // again only while no update could have populated it.
        assert!(r.rule_prunable(ghost_rule, "s", true));
        assert!(!r.rule_prunable(ghost_rule, "s", false));
    }

    #[test]
    fn leq_false_constraint_prunes_everywhere() {
        let db = parse_database(&format!(
            "{LAT}
             u[p(k : a -u-> v)].
             u[q(K : b -C-> V)] <- u[p(K : a -C-> V)], s leq u."
        ))
        .unwrap();
        let r = analyze_db(&db);
        let rule = db.sigma().iter().find(|c| !c.is_fact()).unwrap();
        assert!(r.rule_prunable(rule, "s", false));
    }
}
