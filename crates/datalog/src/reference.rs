//! The reference evaluator: a naive, tuple-at-a-time reading of the
//! semantics that [`crate::Engine`] is differentially tested against.
//!
//! It works straight from [`Clause`]s and shares no code with the
//! production join core: no compiled plans, no slots, no join ordering,
//! no semi-naive deltas. A rule body is read left to right. Positive
//! literals run in textual order. A comparison, an arithmetic built-in or
//! a negation waits until its inputs are bound and then runs at once.
//! The variables a negation quantifies existentially are fixed by the
//! textual order, as the join planner documents: a variable that no
//! positive literal or arithmetic target binds textually before the
//! negation stays existential, even when a later literal has bound it.
//!
//! [`model`] evaluates stratum by stratum. Each stratum first runs its
//! `@`-operators through the [`algo`] registry, then folds its
//! aggregate clauses over their distinct witness bindings, then applies
//! every other clause, facts included, to the whole database until
//! nothing changes. There are no guards, so a divergent program does not
//! terminate; this is a test oracle, not an engine.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use crate::algo;
use crate::atom::{Atom, Literal};
use crate::clause::{AggFunc, Clause};
use crate::fx::FxHashMap;
use crate::guard::EvalGuard;
use crate::program::Program;
use crate::storage::{Database, Fact};
use crate::term::{Const, SymId, Term};
use crate::{DatalogError, Result};

/// The least model of `program`: its facts, closed under its rules
/// stratum by stratum.
///
/// # Errors
///
/// [`DatalogError::NotStratifiable`] for negation or aggregation
/// through recursion; any error a rule, an aggregate or an operator
/// raises while it is evaluated.
pub fn model(program: &Program) -> Result<Database> {
    let strata = program.stratify()?;
    let mut db = Database::new();
    for pred in program.predicates() {
        db.relation_mut(pred);
    }
    for stratum in strata.iter() {
        for pred in stratum {
            let Some((name, input)) = algo::parse_call(pred) else {
                continue;
            };
            let sym = SymId::intern(pred);
            let patterns = algo::call_patterns(program, &[], sym);
            let Some(arity) = patterns.first().map(Vec::len) else {
                continue;
            };
            let guard = EvalGuard::unlimited();
            let out = algo::materialize(name, db.relation(input), arity, &patterns, &guard)?;
            for fact in out.iter() {
                db.insert_id(sym, fact);
            }
        }
        let (aggs, rules): (Vec<&Clause>, Vec<&Clause>) = program
            .clauses()
            .iter()
            .filter(|c| stratum.iter().any(|p| *p == c.head.predicate.as_str()))
            .partition(|c| c.agg.is_some());
        for c in aggs {
            for fact in apply_rule(c, &db)? {
                db.insert_id(c.head.predicate, fact);
            }
        }
        loop {
            let mut derived = Vec::new();
            for r in &rules {
                derived.extend(
                    apply_rule(r, &db)?
                        .into_iter()
                        .map(|f| (r.head.predicate, f)),
                );
            }
            let mut changed = false;
            for (pred, fact) in derived {
                changed |= db.insert_id(pred, fact);
            }
            if !changed {
                break;
            }
        }
    }
    Ok(db)
}

/// Apply one rule to `db` once: every head tuple its body derives, one
/// per satisfying binding of the body's bound variables, duplicates
/// included. An aggregate clause yields one folded tuple per group.
///
/// # Errors
///
/// [`DatalogError::UnsafeVariable`] when a built-in or a negation
/// never gets its inputs bound; comparison, arithmetic and aggregate
/// failures.
pub fn apply_rule(rule: &Clause, db: &Database) -> Result<Vec<Fact>> {
    let steps = schedule(rule)?;
    let index: Vec<Index> = steps.iter().map(|s| Index::build(s, db)).collect();
    let mut bindings: Vec<Vec<Binding<'_>>> = Vec::new();
    solve(&steps, &index, 0, &mut Vec::new(), &mut |b| {
        bindings.push(b.to_vec())
    })?;
    let head = |b: &[Binding<'_>]| -> Result<Vec<Const>> {
        let value = |t: &Term| match t {
            Term::Const(c) => Ok(*c),
            Term::Var(v) => lookup(b, v).ok_or_else(|| unsafe_var(rule, v)),
        };
        rule.head.terms.iter().map(value).collect()
    };
    let Some(agg) = rule.agg else {
        return bindings.iter().map(|b| Ok(head(b)?.into())).collect();
    };
    // Distinct witnesses, grouped by the head's other positions.
    let witnesses: BTreeSet<Vec<Binding<'_>>> = bindings.into_iter().collect();
    let mut groups: BTreeMap<Vec<Const>, Vec<Const>> = BTreeMap::new();
    for w in &witnesses {
        let mut key = head(w)?;
        let value = key.remove(agg.position);
        groups.entry(key).or_default().push(value);
    }
    let fail = |message: String| DatalogError::AggregateFailure {
        clause: rule.to_string(),
        message,
    };
    // A new value replaces the best so far when it orders this way.
    let better = if agg.func == AggFunc::Min {
        Ordering::Less
    } else {
        Ordering::Greater
    };
    let mut out = Vec::with_capacity(groups.len());
    for (mut fact, values) in groups {
        let folded = match agg.func {
            AggFunc::Count => Const::Int(i64::try_from(values.len()).unwrap_or(i64::MAX)),
            AggFunc::Sum => Const::Int(values.iter().try_fold(0i64, |sum, v| {
                let n = v
                    .as_int()
                    .ok_or_else(|| fail(format!("sum over non-integer `{v}`")))?;
                sum.checked_add(n)
                    .ok_or_else(|| fail("sum overflowed i64".into()))
            })?),
            AggFunc::Min | AggFunc::Max => values.iter().try_fold(values[0], |best, &v| {
                let ord = v.try_cmp(&best);
                let ord =
                    ord.ok_or_else(|| fail(format!("cannot order `{v}` against `{best}`")))?;
                Ok(if ord == better { v } else { best })
            })?,
        };
        fact.insert(agg.position, folded);
        out.push(fact.into());
    }
    Ok(out)
}

/// A variable and the constant it is bound to.
type Binding<'c> = (&'c str, Const);

fn unsafe_var(rule: &Clause, v: &str) -> DatalogError {
    DatalogError::UnsafeVariable {
        variable: v.to_owned(),
        clause: rule.to_string(),
    }
}

fn lookup(bindings: &[Binding<'_>], var: &str) -> Option<Const> {
    bindings.iter().find(|(v, _)| *v == var).map(|&(_, c)| c)
}

/// The variables a positive literal or an arithmetic target binds.
fn binds(lit: &Literal) -> Vec<&str> {
    match lit {
        Literal::Pos(a) => a.variables().collect(),
        Literal::Arith { target, .. } => target.as_var().into_iter().collect(),
        Literal::Neg(_) | Literal::Cmp { .. } => Vec::new(),
    }
}

/// Whether `fact` matches `atom`. A variable `fixed` binds must equal its
/// cell; any other binds into `new` at its first occurrence and must
/// equal that cell at every repeat.
fn unify<'c>(
    atom: &'c Atom,
    fact: &[Const],
    fixed: impl Fn(&str) -> Option<Const>,
    new: &mut Vec<Binding<'c>>,
) -> bool {
    atom.terms.iter().zip(fact).all(|(t, &cell)| match t {
        Term::Const(c) => *c == cell,
        Term::Var(v) => match fixed(v).or_else(|| lookup(new, v)) {
            Some(b) => b == cell,
            None => {
                new.push((v, cell));
                true
            }
        },
    })
}

/// One body literal in evaluation order. `existential` lists the
/// variables a negation quantifies inside itself; `key` the columns of a
/// relational literal that are constant or bound when it runs.
struct Step<'c> {
    lit: &'c Literal,
    existential: Vec<&'c str>,
    key: Vec<usize>,
}

/// Order `rule`'s body: textual order, except that a built-in or a
/// negation waits until the variables it reads are bound.
fn schedule(rule: &Clause) -> Result<Vec<Step<'_>>> {
    let mut textual: Vec<&str> = Vec::new();
    let mut bound: Vec<&str> = Vec::new();
    let mut pending: Vec<Step<'_>> = Vec::new();
    let mut steps = Vec::with_capacity(rule.body.len());
    for lit in &rule.body {
        let existential = match lit {
            Literal::Neg(a) => a.variables().filter(|v| !textual.contains(v)).collect(),
            _ => Vec::new(),
        };
        textual.extend(binds(lit));
        pending.push(Step {
            lit,
            existential,
            key: Vec::new(),
        });
        while let Some(i) = pending.iter().position(|s| ready(s, &bound)) {
            let mut step = pending.remove(i);
            if let Some(a) = step.lit.atom() {
                step.key = (0..a.terms.len())
                    .filter(|&i| match &a.terms[i] {
                        Term::Const(_) => true,
                        Term::Var(v) => bound.contains(&&**v) && !step.existential.contains(&&**v),
                    })
                    .collect();
            }
            bound.extend(binds(step.lit));
            steps.push(step);
        }
    }
    if let Some(s) = pending.first() {
        let v = s.lit.variables().into_iter().find(|v| !bound.contains(v));
        return Err(unsafe_var(rule, v.unwrap_or("_")));
    }
    Ok(steps)
}

/// Whether `step` can run once `bound` is bound.
fn ready(step: &Step<'_>, bound: &[&str]) -> bool {
    let inputs: Vec<&str> = match step.lit {
        Literal::Pos(_) => return true,
        Literal::Neg(a) => a.variables().collect(),
        Literal::Cmp { lhs, rhs, .. } | Literal::Arith { lhs, rhs, .. } => {
            lhs.as_var().into_iter().chain(rhs.as_var()).collect()
        }
    };
    inputs
        .iter()
        .all(|v| bound.contains(v) || step.existential.contains(v))
}

/// A relational literal's facts, hashed on its key columns.
struct Index(FxHashMap<Vec<Const>, Vec<Fact>>);

impl Index {
    fn build(step: &Step<'_>, db: &Database) -> Index {
        let mut map: FxHashMap<Vec<Const>, Vec<Fact>> = FxHashMap::default();
        let rel = step.lit.atom().and_then(|a| db.relation_id(a.predicate));
        for fact in rel.into_iter().flat_map(|r| r.iter()) {
            let key = step.key.iter().map(|&c| fact[c]).collect();
            map.entry(key).or_default().push(fact);
        }
        Index(map)
    }

    /// The facts agreeing with `atom`'s key columns under `bindings`.
    fn get(&self, step: &Step<'_>, atom: &Atom, bindings: &[Binding<'_>]) -> &[Fact] {
        let key: Option<Vec<Const>> = step
            .key
            .iter()
            .map(|&c| match &atom.terms[c] {
                Term::Const(k) => Some(*k),
                Term::Var(v) => lookup(bindings, v),
            })
            .collect();
        key.and_then(|k| self.0.get(&k)).map_or(&[], Vec::as_slice)
    }
}

/// Extend `bindings` through `steps[at..]`, calling `emit` once per
/// complete binding.
fn solve<'c>(
    steps: &[Step<'c>],
    index: &[Index],
    at: usize,
    bindings: &mut Vec<Binding<'c>>,
    emit: &mut dyn FnMut(&[Binding<'c>]),
) -> Result<()> {
    let Some(step) = steps.get(at) else {
        emit(bindings);
        return Ok(());
    };
    let value = |b: &[Binding<'_>], t: &Term| match t {
        Term::Const(c) => *c,
        Term::Var(v) => lookup(b, v).expect("`schedule` runs a built-in once its inputs are bound"),
    };
    match step.lit {
        Literal::Pos(a) => {
            for fact in index[at].get(step, a, bindings) {
                let mark = bindings.len();
                if unify(a, fact, |_| None, bindings) {
                    solve(steps, index, at + 1, bindings, emit)?;
                }
                bindings.truncate(mark);
            }
            Ok(())
        }
        Literal::Neg(a) => {
            // Existential variables bind locally, even when the outer
            // binding has them.
            let outer = |v: &str| lookup(bindings, v).filter(|_| !step.existential.contains(&v));
            let refuted = index[at]
                .get(step, a, bindings)
                .iter()
                .any(|fact| unify(a, fact, outer, &mut Vec::new()));
            if refuted {
                return Ok(());
            }
            solve(steps, index, at + 1, bindings, emit)
        }
        Literal::Cmp { op, lhs, rhs } => {
            if op.eval(&value(bindings, lhs), &value(bindings, rhs))? {
                solve(steps, index, at + 1, bindings, emit)?;
            }
            Ok(())
        }
        Literal::Arith {
            target,
            lhs,
            op,
            rhs,
        } => {
            let int = |t: &Term| match value(bindings, t) {
                Const::Int(i) => Ok(i),
                other => Err(DatalogError::IncomparableTerms {
                    left: other.to_string(),
                    right: "integer".to_owned(),
                }),
            };
            let result = Const::Int(op.eval(int(lhs)?, int(rhs)?)?);
            match target {
                Term::Var(v) if lookup(bindings, v).is_none() => {
                    bindings.push((v, result));
                    let r = solve(steps, index, at + 1, bindings, emit);
                    bindings.pop();
                    r
                }
                t if value(bindings, t) == result => solve(steps, index, at + 1, bindings, emit),
                _ => Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// The facts of `pred` in the model of `src`, rendered and sorted.
    fn model_of(src: &str, pred: &str) -> Vec<String> {
        let db = model(&parse_program(src).unwrap()).unwrap();
        let rel = db.relation(pred).unwrap();
        rel.sorted()
            .iter()
            .map(|f| {
                f.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect()
    }

    #[test]
    fn negation_quantifies_unbound_variables_existentially() {
        let src = "node(a). node(b). node(c). edge(a, b). edge(b, b).\
                   sink(X) :- node(X), not edge(X, Y).";
        assert_eq!(model_of(src, "sink"), ["c"]);
        // Y stays existential even though `p` binds it later in the body:
        // ∃Y r(a, Y) holds, so nothing is derived for a.
        let src = "s(a). s(b). p(a, z). p(b, z). r(a, y).\
                   q(X) :- s(X), not r(X, Y), p(X, Y).";
        assert_eq!(model_of(src, "q"), ["b"]);
    }

    #[test]
    fn comparison_before_its_binding_literal_waits_for_it() {
        let facts = "n(1). n(2). n(3). m(2). ";
        for (cmp, expected) in [
            ("Y < 2", vec!["1"]),
            ("Y <= 2", vec!["1", "2"]),
            ("Y > 2", vec!["3"]),
            ("Y >= 2", vec!["2", "3"]),
            ("2 > Y", vec!["1"]),
            ("Y = 2", vec!["2"]),
            ("Y != 2", vec!["1", "3"]),
            ("Y = Z", vec!["2"]),
            ("Z != Y", vec!["1", "3"]),
        ] {
            let src = format!("{facts} p(Y) :- {cmp}, n(Y), m(Z).");
            assert_eq!(model_of(&src, "p"), expected, "`{cmp}`");
        }
    }

    #[test]
    fn arithmetic_binds_and_checks_its_target() {
        // Binds T; the operand is bound by a later literal.
        let src = "n(1). n(4). p(X, T) :- T = X * 3, n(X).";
        assert_eq!(model_of(src, "p"), ["1,3", "4,12"]);
        // A bound target is checked, not rebound.
        let src = "n(1). n(2). n(3). succ(X, Y) :- n(X), n(Y), Y = X + 1.";
        assert_eq!(model_of(src, "succ"), ["1,2", "2,3"]);
        // mod, and a division by zero surfaces as an error.
        let src = "n(7). r(R) :- n(X), R = X mod 4.";
        assert_eq!(model_of(src, "r"), ["3"]);
        let p = parse_program("n(7). r(R) :- n(X), R = X / 0.").unwrap();
        assert!(matches!(
            model(&p),
            Err(DatalogError::ArithmeticFailure { .. })
        ));
    }

    #[test]
    fn aggregates_count_distinct_witnesses() {
        // The two `m` tuples of group a differ only in the ungrouped Z.
        let facts = "m(a, 5, 1). m(a, 5, 2). m(b, 7, 1). ";
        for (head, expected) in [
            ("c(X, count(V))", ["a,2", "b,1"]),
            ("s(X, sum(V))", ["a,10", "b,7"]),
            ("lo(X, min(V))", ["a,5", "b,7"]),
        ] {
            let pred = &head[..head.find('(').unwrap()];
            let src = format!("{facts} {head} :- m(X, V, Z).");
            assert_eq!(model_of(&src, pred), expected, "`{head}`");
        }
        // Projecting Z away first leaves one witness per group.
        let src = format!("{facts} mv(X, V) :- m(X, V, Z). c(X, count(V)) :- mv(X, V).");
        assert_eq!(model_of(&src, "c"), ["a,1", "b,1"]);
    }

    #[test]
    fn bfs_operator_output_feeds_rules() {
        let src = "edge(a, b). edge(b, c). edge(c, a). edge(d, a).\
                   reach(Y) :- @bfs(edge, b, Y).\
                   unreached(X) :- edge(X, Y), not reach(X).";
        assert_eq!(model_of(src, "reach"), ["a", "b", "c"]);
        assert_eq!(model_of(src, "unreached"), ["d"]);
    }

    #[test]
    fn three_stratum_negation_chain() {
        // t: closure; u: nodes with no outgoing path (negates t);
        // v: nodes that reach no dead end (negates u).
        let src = "e(a, b). e(b, c). e(d, d). n(a). n(b). n(c). n(d).\
                   t(X, Y) :- e(X, Y).\
                   t(X, Z) :- e(X, Y), t(Y, Z).\
                   u(X) :- n(X), not t(X, Y).\
                   reaches_dead(X) :- t(X, Y), u(Y).\
                   v(X) :- n(X), not u(X), not reaches_dead(X).";
        assert_eq!(model_of(src, "u"), ["c"]);
        assert_eq!(model_of(src, "reaches_dead"), ["a", "b"]);
        assert_eq!(model_of(src, "v"), ["d"]);
    }
}
