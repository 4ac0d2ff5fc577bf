//! Static analysis (lint) over parsed MultiLog programs.
//!
//! The lint pass checks a [`ParsedProgram`] *before* any evaluation and
//! emits rustc-style spanned [`Diagnostic`]s with stable codes. Every
//! clearance-free error is also a load refusal: the admissibility errors
//! ML0101–ML0106 (range restriction, Definition 5.3's three conditions,
//! the cautious level stratification and known belief modes), ML0113
//! (a p-predicate at two arities), ML0115 (a p-atom over a relation the
//! reduction derives) and ML0008 (algorithm-operator and aggregate
//! misuse) are one set of checks with two readers. This pass
//! reports every finding with its span, and
//! [`MultiLogDb::new`](crate::MultiLogDb::new) refuses a database on the
//! first one, as its typed [`MultiLogError`]. The checks cover the
//! clauses and the stored queries Q. So every engine, and `serve`,
//! refuses these programs at load. The lint adds the clearance half of
//! ML0103 and its warnings on top. Warnings
//! flag clauses that are admissible but almost certainly not what the
//! author meant (statically empty rules, degenerate belief modes,
//! cover-story conflicts Proposition 5.1 would reject, …).
//!
//! Codes are stable: tools may match on them, and `docs/LINTS.md`
//! catalogues each with a minimal trigger and the paper section it
//! enforces, and lists the retired Datalog-side codes ML0001–ML0007.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use multilog_datalog::analyze::{algo_call_problem, reachable, singleton_variables};
use multilog_datalog::DepGraph;
use multilog_lattice::{Label, LatticeBuilder, SecurityLattice};

use crate::ast::{Atom, Clause, Goal, Head, PAtom, Span, Term};
use crate::db::eval_lambda;
use crate::modes::ModeSet;
use crate::parser::{parse_items, ParsedProgram};
use crate::{MultiLogError, Result};

/// Lint severity: errors are conditions every engine refuses at load;
/// warnings flag suspicious but evaluable constructs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but evaluable.
    Warning,
    /// The load refuses the program (or, for a query or clearance
    /// finding, the construct is vacuous).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A single lint finding with a stable code and a source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code, e.g. `ML0103`.
    pub code: &'static str,
    /// Short kebab-case lint name, e.g. `undeclared-label`.
    pub name: &'static str,
    /// `error` findings refuse the load; `warning`s do not.
    pub severity: Severity,
    /// Source position of the offending item (1-based line/column).
    pub span: Span,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Render this finding rustc-style against the `source` it refers
    /// to, as [`LintReport::render_human`] renders each of its findings.
    pub fn render_human(&self, source: &str, source_name: &str) -> String {
        let lines: Vec<&str> = source.lines().collect();
        let mut out = String::new();
        self.write_human(&mut out, &lines, source_name);
        out
    }

    fn write_human(&self, out: &mut String, lines: &[&str], source_name: &str) {
        out.push_str(&format!(
            "{}[{}]: {}\n",
            self.severity, self.code, self.message
        ));
        if self.span.is_known() {
            out.push_str(&format!(
                "  --> {source_name}:{}:{}\n",
                self.span.line, self.span.column
            ));
            if let Some(text) = lines.get(self.span.line.wrapping_sub(1)) {
                let gut = self.span.line.to_string();
                let pad = " ".repeat(gut.len());
                out.push_str(&format!(" {pad} |\n"));
                out.push_str(&format!(" {gut} | {text}\n"));
                let caret_pad = " ".repeat(self.span.column.saturating_sub(1));
                out.push_str(&format!(" {pad} | {caret_pad}^\n"));
            }
        } else {
            out.push_str(&format!("  --> {source_name}\n"));
        }
        out.push('\n');
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity, self.code, self.message, self.span
        )
    }
}

/// The outcome of linting one program: diagnostics plus the source text
/// (kept for rendering source-line echoes).
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, errors first, then in source order.
    pub diagnostics: Vec<Diagnostic>,
    source: String,
}

impl LintReport {
    /// Assemble a report from pre-sorted diagnostics and the source text
    /// they refer to — used by the flow pass ([`crate::flow`]), which
    /// renders its ML02xx findings through the same machinery.
    pub(crate) fn from_parts(mut diagnostics: Vec<Diagnostic>, source: String) -> LintReport {
        sort_diagnostics(&mut diagnostics);
        LintReport {
            diagnostics,
            source,
        }
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }

    /// `true` if any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// `true` if there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// One-line summary, e.g. `2 errors, 1 warning`.
    pub fn summary(&self) -> String {
        let (e, w) = (self.errors(), self.warnings());
        let plural = |n: usize| if n == 1 { "" } else { "s" };
        format!("{e} error{}, {w} warning{}", plural(e), plural(w))
    }

    /// Render all diagnostics rustc-style, echoing the offending source
    /// line under each finding:
    ///
    /// ```text
    /// error[ML0103]: security label `s` is not asserted by Λ
    ///   --> db.mlog:2:1
    ///    |
    ///  2 | u[p(k : a -s-> v)].
    ///    | ^
    /// ```
    pub fn render_human(&self, source_name: &str) -> String {
        let lines: Vec<&str> = self.source.lines().collect();
        let mut out = String::new();
        for d in &self.diagnostics {
            d.write_human(&mut out, &lines, source_name);
        }
        out.push_str(&format!("lint: {}\n", self.summary()));
        out
    }

    /// Render the report as a JSON object (hand-rolled; the workspace has
    /// no serde):
    /// `{"diagnostics":[{"code":…,"name":…,"severity":…,"line":…,"column":…,"message":…}],"errors":N,"warnings":N}`.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"diagnostics\":{},\"errors\":{},\"warnings\":{}}}",
            diagnostics_json(&self.diagnostics),
            self.errors(),
            self.warnings()
        )
    }
}

/// Render diagnostics as a JSON array — shared between the lint report
/// and the flow report ([`crate::flow`]), so both emit the same shape.
pub(crate) fn diagnostics_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"line\":{},\"column\":{},\"message\":\"{}\"}}",
            d.code,
            d.name,
            d.severity,
            d.span.line,
            d.span.column,
            json_escape(&d.message)
        ));
    }
    out.push(']');
    out
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lint a MultiLog source text. Returns `Err` only on a *syntax* error;
/// every semantic problem becomes a [`Diagnostic`] in the report.
pub fn lint_source(src: &str) -> Result<LintReport> {
    lint_source_at(src, None)
}

/// Lint with an optional clearance level: additionally reports atoms that
/// can never be visible at that clearance (`ML0114`) and checks the
/// clearance itself is a declared level.
pub fn lint_source_at(src: &str, clearance: Option<&str>) -> Result<LintReport> {
    let prog = parse_items(src)?;
    Ok(lint_program(&prog, src, clearance))
}

/// Run every check over an already-parsed program (`src` is its text,
/// kept for rendering): the load's error checks that
/// [`MultiLogDb::new`](crate::MultiLogDb::new) refuses a database on
/// (here over the queries too), the clearance, and the warnings.
pub fn lint_program(prog: &ParsedProgram, src: &str, clearance: Option<&str>) -> LintReport {
    let mut ctx = Ctx::new(prog, clearance);
    let refusals = ctx.p.admissibility(); // ML0101–ML0106, ML0113, ML0115, ML0008
    ctx.out = refusals.into_iter().map(Finding::into_diagnostic).collect();
    ctx.check_clearance_declared(); //        ML0103 (the clearance)
    ctx.check_statically_empty(); //          ML0107
    ctx.check_unsatisfiable_dominance(); //   ML0108
    ctx.check_degenerate_belief_modes(); //   ML0109
    ctx.check_cover_story_conflicts(); //     ML0110
    ctx.check_unused_predicates(); //         ML0111
    ctx.check_singleton_variables(); //       ML0112
    ctx.check_invisible_at_clearance(); //    ML0114
    LintReport::from_parts(ctx.out, src.to_owned())
}

/// Errors first, then source order, then code.
fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (b.severity == Severity::Error)
            .cmp(&(a.severity == Severity::Error))
            .then_with(|| a.span.line.cmp(&b.span.line))
            .then_with(|| a.span.column.cmp(&b.span.column))
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.message.cmp(&b.message))
    });
}

/// One admissibility finding: the lint code and name it is reported
/// under, the clause span, and the typed error
/// [`MultiLogDb::new`](crate::MultiLogDb::new) refuses the database
/// with. The lint message is read off the error, so the two cannot
/// drift.
pub(crate) struct Finding {
    code: &'static str,
    name: &'static str,
    span: Span,
    pub(crate) error: MultiLogError,
}

impl Finding {
    pub(crate) fn into_diagnostic(self) -> Diagnostic {
        let message = match self.error {
            MultiLogError::UnsafeVariable { variable, clause } => {
                format!("head variable `{variable}` does not occur in the body of `{clause}`")
            }
            MultiLogError::UnknownMode(mode) => {
                format!(
                    "unknown belief mode `{mode}` (not built-in and no `bel/7` rule defines it)"
                )
            }
            MultiLogError::NotAdmissible { detail }
            | MultiLogError::NotBeliefStratified { detail }
            | MultiLogError::IllFormed { detail } => detail,
            other => other.to_string(),
        };
        Diagnostic {
            code: self.code,
            name: self.name,
            severity: Severity::Error,
            span: self.span,
            message,
        }
    }
}

fn undeclared_label(span: Span, detail: String) -> Finding {
    Finding {
        code: "ML0103",
        name: "undeclared-label",
        span,
        error: MultiLogError::NotAdmissible { detail },
    }
}

/// Λ ∪ Σ ∪ Π partitioned by head kind, with `[[Λ]]`, the lattice it
/// induces and the belief modes Π defines: what the admissibility
/// checks, the lint's other checks and the database gate read. The
/// lattice is built here and nowhere else; the gate keeps it.
pub(crate) struct Program<'p> {
    /// Every clause, in source order.
    clauses: &'p [Clause],
    /// The queries Q, with their spans (unknown where none is given).
    pub(crate) queries: Vec<(&'p Goal, Span)>,
    lambda: Vec<&'p Clause>,
    sigma: Vec<&'p Clause>,
    pi: Vec<&'p Clause>,
    /// `[[Λ]]` level names.
    levels: HashSet<String>,
    /// `[[Λ]]` order edges.
    orders: HashSet<(String, String)>,
    /// The security lattice, when `[[Λ]]` is non-empty and acyclic.
    pub(crate) lattice: Option<SecurityLattice>,
    /// The built-in modes and those Π's `bel/7` heads define.
    pub(crate) modes: ModeSet,
    /// Whether some Σ or Π body consults `<< cau`.
    pub(crate) uses_cau: bool,
}

impl<'p> Program<'p> {
    pub(crate) fn new(clauses: &'p [Clause], queries: &'p [Goal], spans: &[Span]) -> Self {
        let queries = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (q, spans.get(i).copied().unwrap_or_else(Span::unknown)))
            .collect();
        let mut lambda = Vec::new();
        let mut sigma = Vec::new();
        let mut pi = Vec::new();
        for c in clauses {
            match &c.head {
                Head::L(_) | Head::H(_, _) => lambda.push(c),
                Head::M(_) => sigma.push(c),
                Head::P(_) => pi.push(c),
            }
        }
        let (levels, orders) = eval_lambda(&lambda);
        let lattice = build_lattice(&levels, &orders);
        let modes = ModeSet::of(pi.iter().copied());
        let uses_cau = sigma
            .iter()
            .chain(&pi)
            .flat_map(|c| &c.body)
            .any(|a| matches!(a, Atom::B(_, m) if m.as_ref() == "cau"));
        Program {
            clauses,
            queries,
            lambda,
            sigma,
            pi,
            levels,
            orders,
            lattice,
            modes,
            uses_cau,
        }
    }

    /// The clearance-free error checks: admissibility ML0101–ML0106,
    /// then ML0113, ML0115 and ML0008, each in source order. A program the load
    /// admits has none.
    pub(crate) fn admissibility(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        self.check_unsafe_variables(&mut out); //      ML0101
        self.check_lambda_purity(&mut out); //         ML0102
        self.check_labels_declared(&mut out); //       ML0103
        self.check_lattice_cycle(&mut out); //         ML0104
        self.check_belief_stratification(&mut out); // ML0105
        self.check_modes_known(&mut out); //           ML0106
        self.check_arity_mismatches(&mut out); //      ML0113
        self.check_reserved_relations(&mut out); //    ML0115
        self.check_algo_and_aggregates(&mut out); //   ML0008
        out
    }

    /// `true` when the program actually uses the MLS machinery; pure-Π
    /// programs degenerate to Datalog (Prop 6.1) and skip lattice lints.
    fn uses_lattice(&self) -> bool {
        !self.lambda.is_empty() || !self.sigma.is_empty()
    }

    fn label_of(&self, name: &str) -> Option<Label> {
        self.lattice.as_ref().and_then(|l| l.label(name))
    }

    /// `t`'s symbol when it is a ground label `[[Λ]]` does not assert.
    fn undeclared<'t>(&self, t: &'t Term) -> Option<&'t str> {
        match t {
            Term::Sym(s) if !self.levels.contains(s.as_ref()) => Some(s),
            _ => None,
        }
    }

    // ML0101 — every head variable must occur in the body (Def 5.2 range
    // restriction; facts must be ground).
    fn check_unsafe_variables(&self, out: &mut Vec<Finding>) {
        for c in self.clauses {
            let body_vars: HashSet<&str> = c.body.iter().flat_map(Atom::variables).collect();
            let mut reported: HashSet<&str> = HashSet::new();
            for v in c.head.variables() {
                if !body_vars.contains(v) && reported.insert(v) {
                    out.push(Finding {
                        code: "ML0101",
                        name: "unsafe-variable",
                        span: c.span,
                        error: MultiLogError::UnsafeVariable {
                            variable: v.to_owned(),
                            clause: c.to_string(),
                        },
                    });
                }
            }
        }
    }

    // ML0102 — Def 5.3(1): a Λ clause may depend only on l-/h-atoms (and
    // the internal `leq` constraint).
    fn check_lambda_purity(&self, out: &mut Vec<Finding>) {
        for c in &self.lambda {
            for a in &c.body {
                if !matches!(a, Atom::L(_) | Atom::H(_, _) | Atom::Leq(_, _)) {
                    out.push(Finding {
                        code: "ML0102",
                        name: "lambda-impure",
                        span: c.span,
                        error: MultiLogError::NotAdmissible {
                            detail: format!("Λ clause `{c}` depends on the non-lattice atom `{a}`"),
                        },
                    });
                }
            }
        }
    }

    // ML0103 — Def 5.3(2): every ground security label used in Σ, in Π
    // bodies and in queries must be asserted by [[Λ]]; order facts may
    // not mention undeclared levels. The lint adds the clearance
    // (`Ctx::check_clearance_declared`).
    fn check_labels_declared(&self, out: &mut Vec<Finding>) {
        if !self.uses_lattice() {
            return;
        }
        for c in &self.lambda {
            if let Head::H(lo, hi) = &c.head {
                for s in [lo, hi].into_iter().filter_map(|t| self.undeclared(t)) {
                    out.push(undeclared_label(
                        c.span,
                        format!("order over undeclared level `{s}` in `{c}`"),
                    ));
                }
            }
        }
        for c in self.sigma.iter().chain(&self.pi) {
            let head = match &c.head {
                Head::M(m) => Some(m),
                _ => None,
            };
            let body = c.body.iter().filter_map(|a| match a {
                Atom::M(m) | Atom::B(m, _) => Some(m),
                _ => None,
            });
            for m in head.into_iter().chain(body) {
                for s in [&m.level, &m.class]
                    .into_iter()
                    .filter_map(|t| self.undeclared(t))
                {
                    out.push(undeclared_label(
                        c.span,
                        format!("security label `{s}` in `{c}` is not asserted by Λ"),
                    ));
                }
            }
        }
        for &(q, span) in &self.queries {
            for a in q {
                let (Atom::M(m) | Atom::B(m, _)) = a else {
                    continue;
                };
                for s in [&m.level, &m.class]
                    .into_iter()
                    .filter_map(|t| self.undeclared(t))
                {
                    out.push(undeclared_label(
                        span,
                        format!("security label `{s}` in the query is not asserted by Λ"),
                    ));
                }
            }
        }
    }

    // ML0104 — Def 5.3(3): [[Λ]] must induce a partial order. Reports a
    // cycle witness through the order edges.
    fn check_lattice_cycle(&self, out: &mut Vec<Finding>) {
        if let Some(cycle) = order_cycle(&self.levels, &self.orders) {
            let span = self
                .lambda
                .iter()
                .find(|c| matches!(&c.head, Head::H(_, _)))
                .map(|c| c.span)
                .unwrap_or_else(Span::unknown);
            let mut path = cycle.join(" -> ");
            if let Some(first) = cycle.first() {
                path.push_str(" -> ");
                path.push_str(first);
            }
            out.push(Finding {
                code: "ML0104",
                name: "lattice-cycle",
                span,
                error: MultiLogError::NotAdmissible {
                    detail: format!("[[Λ]] is not a partial order: cycle {path}"),
                },
            });
        }
    }

    // ML0105 — the level-stratification condition for cautious belief:
    // when `<< cau` occurs in a clause body, every m-clause head level
    // must be ground, each consulted `cau` level must be ground and
    // strictly dominated by the head level, every body m-atom level must
    // be ground (τ splits `rel` per level then), and p-clauses may not
    // consult `cau` at all (see `MultiLogEngine`'s module docs).
    fn check_belief_stratification(&self, out: &mut Vec<Finding>) {
        if !self.uses_cau {
            return;
        }
        let mut push = |c: &Clause, detail: String| {
            out.push(Finding {
                code: "ML0105",
                name: "belief-unstratified",
                span: c.span,
                error: MultiLogError::NotBeliefStratified { detail },
            });
        };
        for c in &self.sigma {
            let Head::M(hm) = &c.head else { continue };
            let Term::Sym(head_level) = &hm.level else {
                push(
                    c,
                    format!(
                        "clause `{c}` has a non-ground head level while the program uses `<< cau`"
                    ),
                );
                continue;
            };
            let head_level = self.label_of(head_level);
            for a in &c.body {
                let Atom::B(bm, mode) = a else { continue };
                if mode.as_ref() != "cau" {
                    continue;
                }
                let ok = match &bm.level {
                    Term::Sym(s) => match (self.label_of(s), head_level) {
                        (Some(bl), Some(hl)) => {
                            self.lattice.as_ref().is_some_and(|lat| lat.lt(bl, hl))
                        }
                        // Undeclared labels are ML0103's finding.
                        _ => true,
                    },
                    _ => false,
                };
                if !ok {
                    push(
                        c,
                        format!(
                            "in `{c}` the `<< cau` level must be a ground level strictly \
                             dominated by the head level"
                        ),
                    );
                }
            }
        }
        for c in &self.pi {
            for a in &c.body {
                if matches!(a, Atom::B(_, m) if m.as_ref() == "cau") {
                    push(c, format!("p-clause `{c}` may not consult `<< cau`"));
                }
            }
        }
        for c in self.sigma.iter().chain(&self.pi) {
            let variable = |a: &&Atom| matches!(a, Atom::M(m) if !matches!(m.level, Term::Sym(_)));
            if let Some(m) = c.body.iter().find(variable) {
                let detail = format!("in `{c}` the m-atom `{m}` has a variable level");
                push(c, format!("{detail} while the program uses `<< cau`"));
            }
        }
    }

    // ML0106 — every belief mode must be built-in (`fir`/`opt`/`cau`) or
    // defined by a `bel/7` rule (§7).
    fn check_modes_known(&self, out: &mut Vec<Finding>) {
        let bodies = self.clauses.iter().map(|c| (&c.body[..], c.span));
        for (atoms, span) in bodies.chain(self.queries.iter().map(|&(q, s)| (&q[..], s))) {
            for a in atoms {
                if let Atom::B(_, mode) = a {
                    if !self.modes.contains(mode) {
                        out.push(Finding {
                            code: "ML0106",
                            name: "unknown-mode",
                            span,
                            error: MultiLogError::UnknownMode(mode.to_string()),
                        });
                    }
                }
            }
        }
    }

    /// Every p-atom of the clauses, head first, and of the queries, with
    /// its clause's or query's span, in source order.
    fn p_atoms(&self) -> impl Iterator<Item = (&'p PAtom, Span)> + '_ {
        fn of(atoms: &[Atom]) -> impl Iterator<Item = &PAtom> {
            atoms.iter().filter_map(|a| match a {
                Atom::P(p) => Some(p),
                _ => None,
            })
        }
        let clauses = self.clauses.iter().flat_map(|c| {
            let head = match &c.head {
                Head::P(p) => Some(p),
                _ => None,
            };
            head.into_iter()
                .chain(of(&c.body))
                .map(move |p| (p, c.span))
        });
        let queries = self
            .queries
            .iter()
            .flat_map(|&(q, span)| of(q).map(move |p| (p, span)));
        clauses.chain(queries)
    }

    // ML0113 — a p-predicate used with two different arities (m-atoms
    // are fixed-shape, so only p-atoms can disagree): τ would map the two
    // uses to one Datalog relation.
    fn check_arity_mismatches(&self, out: &mut Vec<Finding>) {
        let mut arities: HashMap<&str, (usize, Span)> = HashMap::new();
        for (p, span) in self.p_atoms() {
            let arity = p.args.len();
            match arities.get(p.pred.as_ref()) {
                Some(&(prev, prev_span)) if prev != arity => out.push(Finding {
                    code: "ML0113",
                    name: "arity-mismatch",
                    span,
                    error: MultiLogError::IllFormed {
                        detail: format!(
                            "predicate `{}` used with arity {arity} but first used \
                             with arity {prev} at {prev_span}",
                            p.pred
                        ),
                    },
                }),
                Some(_) => {}
                None => {
                    arities.insert(p.pred.as_ref(), (arity, span));
                }
            }
        }
    }

    // ML0115 — a p-atom over a relation τ derives (`rel`, `bel_opt`, …):
    // it would read the reduction's facts past the no-read-up guards, or
    // add facts to them that the operational engine never sees.
    fn check_reserved_relations(&self, out: &mut Vec<Finding>) {
        for (p, span) in self.p_atoms() {
            if let Some(relation) = crate::modes::reserved_relation(p) {
                out.push(Finding {
                    code: "ML0115",
                    name: "reserved-relation",
                    span,
                    error: crate::modes::reserved_error(relation),
                });
            }
        }
    }

    // ML0008 — algorithm-operator and aggregate misuse: an unknown
    // `@algo(...)` operator, a call with the wrong arity, and an
    // aggregate body or operator input inside its head's recursive
    // component (the fold needs its input complete before it runs, so no
    // stratification exists).
    fn check_algo_and_aggregates(&self, out: &mut Vec<Finding>) {
        let mut push = |name, c: &Clause, detail| {
            out.push(Finding {
                code: "ML0008",
                name,
                span: c.span,
                error: MultiLogError::IllFormed { detail },
            });
        };
        let mut consumers = false;
        for c in self.clauses {
            consumers |= c.agg.is_some();
            for (name, p) in algo_calls(c) {
                consumers = true;
                if let Some((name, detail)) = algo_call_problem(name, p.args.len()) {
                    push(name, c, detail);
                }
            }
        }
        if !consumers {
            return;
        }
        // The rule dependency graph over `m:`/`p:` nodes; facts add no
        // edges, so they stay out of it.
        let rules = || self.clauses.iter().filter(|c| !c.body.is_empty());
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut edges: Vec<(usize, usize, bool)> = Vec::new();
        for c in rules() {
            let Some(head) = head_node(&c.head) else {
                continue;
            };
            let h = intern(&mut index, head);
            for dep in c.body.iter().filter_map(dep_node) {
                edges.push((intern(&mut index, dep), h, false));
            }
        }
        let mut names = vec![String::new(); index.len()];
        for (name, i) in index {
            names[i] = name;
        }
        let graph = DepGraph::from_edges(names, edges);
        for c in rules() {
            // What must be complete before the clause fires: an
            // aggregate's whole body, an operator's input relation.
            let inputs: Vec<String> = if c.agg.is_some() {
                c.body.iter().filter_map(dep_node).collect()
            } else {
                algo_calls(c).filter_map(|(_, p)| algo_input(p)).collect()
            };
            let Some(head) = head_node(&c.head).filter(|_| !inputs.is_empty()) else {
                continue;
            };
            let Some(dep) = inputs.iter().find(|dep| graph.same_scc(dep, &head)) else {
                continue;
            };
            let head = &head[2..];
            let reads = match &dep[2..] {
                dep if dep == head => format!("its own head predicate `{head}`"),
                dep => format!("`{dep}`, which is recursive with its head `{head}`"),
            };
            let detail = if c.agg.is_some() {
                format!(
                    "aggregate clause `{c}` reads {reads} — aggregation through \
                     recursion is not stratifiable"
                )
            } else {
                format!(
                    "`{c}` runs an operator over {reads} — an operator's input must be \
                     complete before it runs"
                )
            };
            push("aggregation-through-recursion", c, detail);
        }
    }
}

/// The `@algo(...)` calls in a clause body, with the operator name.
fn algo_calls(c: &Clause) -> impl Iterator<Item = (&str, &PAtom)> {
    c.body.iter().filter_map(|a| match a {
        Atom::P(p) => p.pred.strip_prefix('@').map(|name| (name, p)),
        _ => None,
    })
}

/// The relation an `@algo(input, ...)` call reads, as a `p:` node.
fn algo_input(p: &PAtom) -> Option<String> {
    match p.args.first() {
        Some(Term::Sym(input)) => Some(format!("p:{input}")),
        _ => None,
    }
}

/// A clause head as a dependency-graph node (`m:` or `p:` namespace);
/// Λ heads are not part of the rule graph.
fn head_node(h: &Head) -> Option<String> {
    match h {
        Head::M(m) => Some(format!("m:{}", m.pred)),
        Head::P(p) => Some(format!("p:{}", p.pred)),
        Head::L(_) | Head::H(_, _) => None,
    }
}

/// The node a body atom depends on: its predicate, or the input relation
/// of an `@algo` call.
fn dep_node(a: &Atom) -> Option<String> {
    match a {
        Atom::M(m) | Atom::B(m, _) => Some(format!("m:{}", m.pred)),
        Atom::P(p) if p.pred.starts_with('@') => algo_input(p),
        Atom::P(p) => Some(format!("p:{}", p.pred)),
        _ => None,
    }
}

/// The index of node `n`, adding it when new.
fn intern(index: &mut HashMap<String, usize>, n: String) -> usize {
    let next = index.len();
    *index.entry(n).or_insert(next)
}

/// Shared analysis state: the partitioned program and its lattice, the
/// optional clearance, and the findings so far.
struct Ctx<'p> {
    prog: &'p ParsedProgram,
    clearance: Option<&'p str>,
    p: Program<'p>,
    out: Vec<Diagnostic>,
}

impl<'p> Ctx<'p> {
    fn new(prog: &'p ParsedProgram, clearance: Option<&'p str>) -> Self {
        Ctx {
            prog,
            clearance,
            p: Program::new(&prog.clauses, &prog.queries, &prog.query_spans),
            out: Vec::new(),
        }
    }

    /// Record a warning: every error is a [`Program`] finding.
    fn warn(&mut self, code: &'static str, name: &'static str, span: Span, message: String) {
        self.out.push(Diagnostic {
            code,
            name,
            severity: Severity::Warning,
            span,
            message,
        });
    }

    // ML0103, the clearance half: the clearance must be asserted by
    // [[Λ]].
    fn check_clearance_declared(&mut self) {
        if let Some(u) = self.clearance {
            if self.p.uses_lattice() && !self.p.levels.contains(u) {
                let detail = format!("clearance level `{u}` is not asserted by Λ");
                let finding = undeclared_label(Span::unknown(), detail);
                self.out.push(finding.into_diagnostic());
            }
        }
    }

    // ML0107 — a clause (or query) whose ground security labels have no
    // common dominator in the lattice can never fire: no clearance level
    // makes every label visible at once (Figure 13's guards `l ⪯ u`,
    // `c ⪯ u` all fail).
    fn check_statically_empty(&mut self) {
        let Some(lat) = self.p.lattice.as_ref() else {
            return;
        };
        let mut found: Vec<(Span, String)> = Vec::new();
        let ground_labels = |head: Option<&Head>, atoms: &[Atom]| -> Vec<Label> {
            let mut out = Vec::new();
            let mut push = |t: &Term| {
                if let Term::Sym(s) = t {
                    if let Some(l) = lat.label(s) {
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
        };
        for c in self.p.sigma.iter().chain(&self.p.pi) {
            let labels = ground_labels(Some(&c.head), &c.body);
            if !labels.is_empty() && lat.common_dominators(labels).is_empty() {
                found.push((
                    c.span,
                    format!(
                        "`{c}` can never fire: its security labels have no common \
                         dominator, so no clearance sees all of them"
                    ),
                ));
            }
        }
        for &(q, span) in &self.p.queries {
            let labels = ground_labels(None, q);
            if !labels.is_empty() && lat.common_dominators(labels).is_empty() {
                found.push((
                    span,
                    "the query's security labels have no common dominator, so no \
                     clearance can answer it"
                        .to_owned(),
                ));
            }
        }
        for (span, msg) in found {
            self.warn("ML0107", "statically-empty-rule", span, msg);
        }
    }

    // ML0108 — a ground `l leq h` constraint that is false in the lattice
    // makes its clause (or query) unsatisfiable.
    fn check_unsatisfiable_dominance(&mut self) {
        let Some(lat) = self.p.lattice.as_ref() else {
            return;
        };
        let mut found: Vec<(Span, String)> = Vec::new();
        // `what` names the clause or query, rendered only for a finding.
        let check = |atoms: &[Atom],
                     span: Span,
                     what: &dyn Fn() -> String,
                     found: &mut Vec<(Span, String)>| {
            for a in atoms {
                if let Atom::Leq(Term::Sym(lo), Term::Sym(hi)) = a {
                    if let (Some(l), Some(h)) = (lat.label(lo), lat.label(hi)) {
                        if !lat.leq(l, h) {
                            found.push((
                                span,
                                format!(
                                    "dominance constraint `{lo} leq {hi}` in {} is false \
                                     in the lattice",
                                    what()
                                ),
                            ));
                        }
                    }
                }
            }
        };
        for c in &self.prog.clauses {
            check(&c.body, c.span, &|| format!("`{c}`"), &mut found);
        }
        for &(q, span) in &self.p.queries {
            check(q, span, &|| "the query".to_owned(), &mut found);
        }
        for (span, msg) in found {
            self.warn("ML0108", "unsatisfiable-dominance", span, msg);
        }
    }

    // ML0109 — `<< cau` / `<< opt` quantify over the levels dominated by
    // the b-atom's level (Figure 13). If that down-set is a single label,
    // the mode degenerates to `fir` and the annotation is misleading.
    fn check_degenerate_belief_modes(&mut self) {
        let Some(lat) = self.p.lattice.as_ref() else {
            return;
        };
        let mut found: Vec<(Span, String)> = Vec::new();
        let check = |atoms: &[Atom], span: Span, found: &mut Vec<(Span, String)>| {
            for a in atoms {
                if let Atom::B(m, mode) = a {
                    if !matches!(mode.as_ref(), "cau" | "opt") {
                        continue;
                    }
                    if let Term::Sym(s) = &m.level {
                        if let Some(l) = lat.label(s) {
                            if lat.down_set(l).len() == 1 {
                                found.push((
                                    span,
                                    format!(
                                        "`<< {mode}` at level `{s}` degenerates to `fir`: \
                                         `{s}` dominates no other level"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        };
        for c in &self.prog.clauses {
            check(&c.body, c.span, &mut found);
        }
        for &(q, span) in &self.p.queries {
            check(q, span, &mut found);
        }
        for (span, msg) in found {
            self.warn("ML0109", "belief-mode-degenerate", span, msg);
        }
    }

    // ML0110 — two ground Σ facts at the same level asserting different
    // values for the same (pred, key, attr, class) violate the FD of
    // Proposition 5.1's consistency check and will be flagged at run time.
    // Groups whose key attribute is polyinstantiated across classes are
    // skipped, mirroring `check_consistency`'s molecule-reconstruction
    // ambiguity rule.
    fn check_cover_story_conflicts(&mut self) {
        /// Key of a fact group: (level, pred, key).
        type GroupKey = (String, Arc<str>, String);
        /// One ground fact in a group: (attr, class, value, span).
        type GroupFact = (Arc<str>, String, Term, Span);
        let mut groups: HashMap<GroupKey, Vec<GroupFact>> = HashMap::new();
        for c in &self.p.sigma {
            if !c.body.is_empty() {
                continue;
            }
            let Head::M(m) = &c.head else { continue };
            let (Term::Sym(level), Term::Sym(key), Term::Sym(class)) = (&m.level, &m.key, &m.class)
            else {
                continue;
            };
            if !m.value.is_ground() {
                continue;
            }
            groups
                .entry((level.to_string(), m.pred.clone(), key.to_string()))
                .or_default()
                .push((m.attr.clone(), class.to_string(), m.value.clone(), c.span));
        }
        let mut found: Vec<(Span, String)> = Vec::new();
        let mut keys: Vec<_> = groups.keys().cloned().collect();
        keys.sort();
        for gk in keys {
            let facts = &groups[&gk];
            let (level, pred, key) = &gk;
            // Molecule-reconstruction ambiguity: the key attribute (an
            // attribute whose every value equals the key) appearing at
            // several classes makes grouping ambiguous — skip, exactly as
            // the runtime consistency check does.
            let mut key_attr_classes: HashMap<&str, HashSet<&str>> = HashMap::new();
            let mut key_attr_all_key: HashMap<&str, bool> = HashMap::new();
            for (attr, class, value, _) in facts {
                let is_key = matches!(value, Term::Sym(v) if v.as_ref() == key.as_str());
                let e = key_attr_all_key.entry(attr.as_ref()).or_insert(true);
                *e &= is_key;
                key_attr_classes
                    .entry(attr.as_ref())
                    .or_default()
                    .insert(class.as_str());
            }
            let ambiguous = key_attr_all_key.iter().any(|(attr, all_key)| {
                *all_key && key_attr_classes.get(*attr).map_or(0, HashSet::len) > 1
            });
            if ambiguous {
                continue;
            }
            let mut seen: HashMap<(&str, &str), (&Term, Span)> = HashMap::new();
            for (attr, class, value, span) in facts {
                match seen.get(&(attr.as_ref(), class.as_str())) {
                    Some((prev, prev_span)) if *prev != value => {
                        found.push((
                            *span,
                            format!(
                                "conflicting cover story: `{level}[{pred}({key} : {attr} \
                                 -{class}-> …)]` is asserted with two different values \
                                 (previous assertion at {prev_span}); Prop 5.1's consistency \
                                 check will reject this"
                            ),
                        ));
                    }
                    Some(_) => {}
                    None => {
                        seen.insert((attr.as_ref(), class.as_str()), (value, *span));
                    }
                }
            }
        }
        for (span, msg) in found {
            self.warn("ML0110", "conflicting-cover-story", span, msg);
        }
    }

    // ML0111 — with queries present, a defined predicate from which no
    // query is reachable is dead weight. `bel/7` is exempt (consulted
    // implicitly by user-mode b-atoms), as are l-/h-heads (the lattice is
    // always live). Reachability itself is the shared kernel
    // `multilog_datalog::analyze::reachable`.
    fn check_unused_predicates(&mut self) {
        if self.prog.queries.is_empty() {
            return;
        }
        // Intern every `m:`/`p:` node, collect head→body edges and the
        // query seeds, then ask the shared kernel what is live.
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut seeds: Vec<usize> = Vec::new();
        for q in &self.prog.queries {
            for n in q.iter().filter_map(dep_node) {
                seeds.push(intern(&mut index, n));
            }
        }
        // b-atoms in user modes consult bel/7, and bel/7 bodies may
        // mention any m-atom — seed bel whenever any b-atom is needed.
        let any_b = self
            .prog
            .clauses
            .iter()
            .flat_map(|c| &c.body)
            .chain(self.prog.queries.iter().flatten())
            .any(|a| matches!(a, Atom::B(_, _)));
        let bel = format!("p:{}", crate::modes::BEL);
        if any_b {
            seeds.push(intern(&mut index, bel.clone()));
        }
        // `@algo(input, …)` consults its input relation by name, so the
        // input is live whenever the calling rule is (`dep_node`).
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for c in &self.prog.clauses {
            let Some(h) = head_node(&c.head) else {
                continue;
            };
            let hi = intern(&mut index, h);
            for dep in c.body.iter().filter_map(dep_node) {
                edges.push((hi, intern(&mut index, dep)));
            }
        }
        let live = reachable(index.len(), &edges, seeds);
        let mut found: Vec<(Span, String)> = Vec::new();
        let mut reported: HashSet<String> = HashSet::new();
        for c in &self.prog.clauses {
            let Some(n) = head_node(&c.head) else {
                continue;
            };
            if n == bel {
                continue;
            }
            let dead = index.get(&n).is_none_or(|&i| !live[i]);
            if dead && reported.insert(n.clone()) {
                let kind = if n.starts_with("m:") {
                    "m-predicate"
                } else {
                    "predicate"
                };
                found.push((
                    c.span,
                    format!(
                        "{kind} `{}` is defined but unreachable from any query",
                        &n[2..]
                    ),
                ));
            }
        }
        for (span, msg) in found {
            self.warn("ML0111", "unused-predicate", span, msg);
        }
    }

    // ML0112 — a variable occurring exactly once in a source item is
    // usually a typo; prefix with `_` to silence. Desugared molecular
    // clauses share their item's span, so occurrences are counted per
    // span group: heads across the whole group, the (shared) body once.
    fn check_singleton_variables(&mut self) {
        let mut found: Vec<(Span, String)> = Vec::new();
        let mut i = 0;
        let clauses = &self.prog.clauses;
        while i < clauses.len() {
            let span = clauses[i].span;
            let mut j = i + 1;
            while j < clauses.len()
                && span.is_known()
                && clauses[j].span.line == span.line
                && clauses[j].span.column == span.column
            {
                j += 1;
            }
            let group = &clauses[i..j];
            let mut occurrences: Vec<&str> = Vec::new();
            for c in group {
                occurrences.extend(c.head.variables());
            }
            // All clauses in a span group clone the same source body.
            if let Some(first) = group.first() {
                for a in &first.body {
                    occurrences.extend(a.variables());
                }
            }
            // Counting and the `_`-prefix exemption live in the shared
            // kernel.
            for v in singleton_variables(occurrences) {
                found.push((
                    span,
                    format!(
                        "variable `{v}` occurs only once in this item; prefix with `_` \
                         if intentional"
                    ),
                ));
            }
            i = j;
        }
        for (span, msg) in found {
            self.warn("ML0112", "singleton-variable", span, msg);
        }
    }

    // ML0114 — with a clearance `u` given, a body or query atom whose
    // ground level (or class) is not dominated by `u` can never be
    // visible to that user (Bell–LaPadula guards `l ⪯ u`, `c ⪯ u`).
    fn check_invisible_at_clearance(&mut self) {
        let (Some(lat), Some(u)) = (self.p.lattice.as_ref(), self.clearance) else {
            return;
        };
        let Some(ul) = lat.label(u) else {
            return; // undeclared clearance is ML0103's finding
        };
        let mut found: Vec<(Span, String)> = Vec::new();
        let check = |atoms: &[Atom], span: Span, found: &mut Vec<(Span, String)>| {
            for a in atoms {
                if let Atom::M(m) | Atom::B(m, _) = a {
                    for (t, what) in [(&m.level, "level"), (&m.class, "classification")] {
                        if let Term::Sym(s) = t {
                            if let Some(l) = lat.label(s) {
                                if !lat.leq(l, ul) {
                                    found.push((
                                        span,
                                        format!(
                                            "{what} `{s}` in `{a}` is not dominated by \
                                             clearance `{u}`: the atom is never visible \
                                             to this user"
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        };
        for c in self.p.sigma.iter().chain(&self.p.pi) {
            check(&c.body, c.span, &mut found);
        }
        for &(q, span) in &self.p.queries {
            check(q, span, &mut found);
        }
        for (span, msg) in found {
            self.warn("ML0114", "invisible-at-clearance", span, msg);
        }
    }
}

/// Build the security lattice from `[[Λ]]`, ignoring order edges over
/// undeclared levels (those are ML0103 findings). Returns `None` when the
/// level set is empty or the order is cyclic (ML0104 reports the cycle).
pub(crate) fn build_lattice(
    levels: &HashSet<String>,
    orders: &HashSet<(String, String)>,
) -> Option<SecurityLattice> {
    if levels.is_empty() {
        return None;
    }
    let mut b = LatticeBuilder::new();
    let mut sorted: Vec<&String> = levels.iter().collect();
    sorted.sort();
    for l in sorted {
        b.add_level(l.clone());
    }
    let mut sorted_orders: Vec<&(String, String)> = orders.iter().collect();
    sorted_orders.sort();
    for (lo, hi) in sorted_orders {
        if levels.contains(lo) && levels.contains(hi) {
            b.add_order(lo.clone(), hi.clone());
        }
    }
    b.build().ok()
}

/// Find a cycle in the order relation restricted to declared levels:
/// returns the node sequence of one cycle, or `None` if acyclic.
fn order_cycle(
    levels: &HashSet<String>,
    orders: &HashSet<(String, String)>,
) -> Option<Vec<String>> {
    let mut nodes: Vec<&String> = levels.iter().collect();
    nodes.sort();
    let index: HashMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut edges: Vec<&(String, String)> = orders.iter().collect();
    edges.sort();
    for (lo, hi) in edges {
        if let (Some(&a), Some(&b)) = (index.get(lo.as_str()), index.get(hi.as_str())) {
            if a == b {
                return Some(vec![lo.clone()]);
            }
            adj[a].push(b);
        }
    }
    // Iterative DFS with colouring; on a back edge, walk the explicit
    // stack to recover the cycle path.
    let mut colour = vec![0u8; nodes.len()]; // 0 white, 1 grey, 2 black
    for start in 0..nodes.len() {
        if colour[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        colour[start] = 1;
        while let Some(&mut (n, ref mut next)) = stack.last_mut() {
            if *next < adj[n].len() {
                let m = adj[n][*next];
                *next += 1;
                match colour[m] {
                    0 => {
                        colour[m] = 1;
                        stack.push((m, 0));
                    }
                    1 => {
                        // Back edge n -> m: the cycle is the stack suffix
                        // starting at m.
                        let pos = stack
                            .iter()
                            .position(|&(x, _)| x == m)
                            .unwrap_or(stack.len() - 1);
                        return Some(
                            stack[pos..]
                                .iter()
                                .map(|&(x, _)| nodes[x].clone())
                                .collect(),
                        );
                    }
                    _ => {}
                }
            } else {
                colour[n] = 2;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        let report = lint_source(src).expect("parse");
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let report = lint_source(
            "level(u). level(s). order(u, s).\n\
             s[p(k : a -u-> v)].\n\
             q(X) <- s[p(k : a -u-> X)].\n\
             <- q(X).",
        )
        .unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn undeclared_label_has_span() {
        let report = lint_source("level(u).\nu[p(k : a -s-> v)].").unwrap();
        let d = &report.diagnostics[0];
        assert_eq!(d.code, "ML0103");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.line, 2);
        assert_eq!(d.span.column, 1);
    }

    #[test]
    fn lattice_cycle_reports_witness() {
        let report =
            lint_source("level(u). level(s). order(u, s). order(s, u). u[p(k : a -u-> v)].")
                .unwrap();
        let cyc: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "ML0104")
            .collect();
        assert_eq!(cyc.len(), 1);
        assert!(cyc[0].message.contains("s -> u") || cyc[0].message.contains("u -> s"));
    }

    #[test]
    fn json_escapes_and_renders() {
        let report = lint_source("level(u).\nu[p(k : a -s-> v)].").unwrap();
        let json = report.render_json();
        assert!(json.starts_with("{\"diagnostics\":["));
        assert!(json.contains("\"code\":\"ML0103\""));
        assert!(json.contains("\"errors\":"));
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn human_rendering_echoes_source() {
        let report = lint_source("level(u).\nu[p(k : a -s-> v)].").unwrap();
        let text = report.render_human("db.mlog");
        assert!(text.contains("error[ML0103]"));
        assert!(text.contains("--> db.mlog:2:1"));
        assert!(text.contains(" 2 | u[p(k : a -s-> v)]."));
    }

    #[test]
    fn statically_empty_warns_on_incomparable_labels() {
        // a and b are incomparable maximal levels: no common dominator.
        let report = lint_source(
            "level(u). level(a). level(b). order(u, a). order(u, b).\n\
             a[p(k : x -b-> v)].",
        )
        .unwrap();
        assert!(report.diagnostics.iter().any(|d| d.code == "ML0107"));
    }

    #[test]
    fn cover_story_conflict_detected_and_poly_key_skipped() {
        // Same (level, pred, key, attr, class), different values.
        let conflict = codes(
            "level(u). level(s). order(u, s).\n\
             s[p(k : a -u-> v1)].\n\
             s[p(k : a -u-> v2)].",
        );
        assert!(conflict.contains(&"ML0110"));
        // Polyinstantiated key attribute -> ambiguous grouping, skipped
        // (mirrors the runtime consistency check on the mission example).
        let skipped = codes(
            "level(u). level(s). order(u, s).\n\
             s[p(k : id -u-> k)].\n\
             s[p(k : id -s-> k)].\n\
             s[p(k : a -u-> v1)].\n\
             s[p(k : a -u-> v2)].",
        );
        assert!(!skipped.contains(&"ML0110"));
    }

    #[test]
    fn singleton_variable_counts_molecules_once() {
        // Molecular head: K occurs in every desugared head, X in one; the
        // source counts are K=3 (head twice? no — key once, body once) …
        // what matters: no false positive for the key variable.
        let clean = codes(
            "level(u). level(s). order(u, s).\n\
             s[q(k : a -u-> v; b -u-> w)].\n\
             s[p(K : a -u-> X; b -u-> X)] <- s[q(K : a -u-> X)].",
        );
        assert!(!clean.contains(&"ML0112"), "{clean:?}");
        let firing = codes(
            "level(u). level(s). order(u, s).\n\
             s[p(k : a -u-> v)].\n\
             q(X) <- s[p(k : a -u-> X)], level(Lonely).",
        );
        assert!(firing.contains(&"ML0112"));
    }

    fn names(src: &str) -> Vec<&'static str> {
        let report = lint_source(src).expect("parse");
        report.diagnostics.iter().map(|d| d.name).collect()
    }

    #[test]
    fn ml0008_unknown_algo_and_call_arity() {
        let report = lint_source("edge(a, b). r(X, Y) <- @nope(edge, X, Y). <- r(X, Y).").unwrap();
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.name == "unknown-algo")
            .unwrap();
        assert_eq!(hit.severity, Severity::Error);
        assert!(hit.message.contains("@nope"), "{}", hit.message);
        assert!(hit.message.contains("bfs"), "{}", hit.message);

        let arity = names("edge(a, b). r(X) <- @bfs(edge, X). <- r(X).");
        assert!(arity.contains(&"algo-call-arity"), "{arity:?}");

        let clean = names("edge(a, b). r(X, Y) <- @bfs(edge, X, Y). <- r(X, Y).");
        assert!(!clean.contains(&"unknown-algo"), "{clean:?}");
        assert!(!clean.contains(&"algo-call-arity"), "{clean:?}");
    }

    #[test]
    fn ml0008_aggregation_through_recursion() {
        let firing = names(
            "part(a, b).\n\
             total(P, count(S)) <- total(P, S), part(P, S).\n\
             <- total(P, S).",
        );
        assert!(
            firing.contains(&"aggregation-through-recursion"),
            "{firing:?}"
        );
        // Mutual recursion through another rule, for an aggregate body
        // and for an operator's input relation.
        for src in [
            "e(a, b). t(X, N) <- e(X, Y), n(Y, N). n(Y, count(Z)) <- t(Y, Z).",
            "e(a, b). e(X, Y) <- r(X, Y). r(X, Y) <- @bfs(e, X, Y).",
        ] {
            let firing = names(src);
            assert!(
                firing.contains(&"aggregation-through-recursion"),
                "{src}: {firing:?}"
            );
        }

        let clean = names(
            "part(a, b).\n\
             total(P, count(S)) <- part(P, S).\n\
             <- total(P, S).",
        );
        assert!(
            !clean.contains(&"aggregation-through-recursion"),
            "{clean:?}"
        );
    }

    #[test]
    fn algo_input_predicate_is_not_unused() {
        // `edge` is referenced only as the input relation of `@bfs`; the
        // liveness pass must treat the call as a read so ML0111 stays
        // quiet. Likewise `visit`, read only inside an aggregate body.
        let report = lint_source(
            "edge(a, b). r(X, Y) <- @bfs(edge, X, Y).\n\
             visit(a, u1). hits(P, count(U)) <- visit(P, U).\n\
             <- r(a, Y), hits(a, N).",
        )
        .unwrap();
        let unused: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "ML0111")
            .collect();
        assert!(unused.is_empty(), "{unused:?}");
    }
}
