//! Query answering against an evaluated database.

use std::collections::BTreeMap;
use std::fmt;

use crate::atom::Literal;
use crate::clause::Clause;
use crate::guard::{CancelToken, EvalGuard};
use crate::plan::{RulePlan, Scratch};
use crate::storage::{Database, FactBuf};
use crate::term::{Const, Term};
use crate::{Atom, Result};

/// Guard configuration for ad hoc query evaluation over an
/// already-materialized database ([`run_query_guarded`]). The default is
/// fully unguarded, matching [`run_query`].
#[derive(Clone, Debug, Default)]
pub struct QueryGuards {
    /// Wall-clock deadline for the join.
    pub deadline: Option<std::time::Duration>,
    /// Budget on emitted answer tuples (`0` = unlimited).
    pub fact_limit: usize,
    /// Cooperative cancellation, checked at guard-check granularity.
    pub cancel: Option<CancelToken>,
}

/// One answer to a query: variable name → constant, sorted by name.
pub type Bindings = BTreeMap<String, Const>;

/// The full answer set of a query, deduplicated and deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The variables projected (query variables in first-occurrence order).
    pub variables: Vec<String>,
    /// The distinct answers, sorted.
    pub answers: Vec<Bindings>,
}

impl QueryAnswer {
    /// Whether the query succeeded at least once.
    pub fn is_success(&self) -> bool {
        !self.answers.is_empty()
    }

    /// Number of distinct answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Whether there are no answers.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// Project a single variable's values across all answers, sorted.
    pub fn column(&self, variable: &str) -> Vec<Const> {
        let mut out: Vec<Const> = self
            .answers
            .iter()
            .filter_map(|b| b.get(variable).cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

impl fmt::Display for QueryAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.variables.is_empty() {
            return write!(f, "{}", if self.is_success() { "yes" } else { "no" });
        }
        writeln!(f, "{}", self.variables.join("\t"))?;
        for a in &self.answers {
            let row: Vec<String> = self
                .variables
                .iter()
                .map(|v| a.get(v).map_or("_".to_owned(), |c| c.to_string()))
                .collect();
            writeln!(f, "{}", row.join("\t"))?;
        }
        Ok(())
    }
}

/// Evaluate a conjunctive query (with negation and comparisons) against a
/// database that has already been computed to fixpoint.
///
/// The body is treated as the body of an anonymous rule whose head
/// collects every variable occurring in a positive literal; answers are
/// the distinct head instantiations restricted to the query's variables.
pub fn run_query(db: &Database, body: &[Literal]) -> Result<QueryAnswer> {
    run_query_guarded(db, body, &QueryGuards::default())
}

/// [`run_query`] under a session's guards: the conjunctive join consults
/// the deadline, answer budget, and cancellation token of `guards`, so a
/// runaway cross-product query trips instead of monopolizing a reader
/// session. Guard trips surface as the usual typed errors
/// ([`crate::DatalogError::DeadlineExceeded`] etc.). A [`PreparedQuery`]
/// prepared and run once.
pub fn run_query_guarded(
    db: &Database,
    body: &[Literal],
    guards: &QueryGuards,
) -> Result<QueryAnswer> {
    let mut query = PreparedQuery::prepare(body, db)?;
    let params: Vec<Const> = PreparedQuery::params_of(body).collect();
    let variables = query.variables.clone();
    let mut answers: Vec<Bindings> = query
        .run(db, &params, guards)?
        .map(|row| variables.iter().cloned().zip(row.iter().copied()).collect())
        .collect();
    answers.sort();
    answers.dedup();
    Ok(QueryAnswer { variables, answers })
}

/// A conjunctive query compiled once and run for any constants: the
/// plan of its anonymous rule (see [`run_query`]), with the constants of
/// its atoms as parameters ([`PreparedQuery::params_of`]), plus the
/// evaluation buffers every run reuses.
///
/// A run rebinds the parameters inside the plan and hands the head rows
/// straight to the caller, so a query of a known shape compiles nothing
/// and allocates no plan or scratch. The join order is the one chosen at
/// [`PreparedQuery::prepare`], from that database's relation sizes.
/// Comparison and arithmetic constants are part of the shape, not
/// parameters.
pub struct PreparedQuery {
    plan: RulePlan,
    scratch: Scratch,
    rows: FactBuf,
    variables: Vec<String>,
}

impl fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("order", &self.plan.order_desc)
            .field("variables", &self.variables)
            .finish_non_exhaustive()
    }
}

impl PreparedQuery {
    /// Compile `body`, ordering its joins by `db`'s relation sizes.
    ///
    /// # Errors
    ///
    /// [`crate::DatalogError::UnsafeVariable`] for an unsafe body, as in
    /// [`run_query`].
    pub fn prepare(body: &[Literal], db: &Database) -> Result<Self> {
        // Head carries only the *positively bound* variables, in
        // first-occurrence order; variables that appear only under
        // negation are existential and not projected.
        let mut variables: Vec<String> = Vec::new();
        for l in body {
            if let Literal::Pos(a) = l {
                for v in a.variables() {
                    if !variables.iter().any(|x| x == v) {
                        variables.push(v.to_owned());
                    }
                }
            }
        }
        let head = Atom::new(
            "__query__",
            variables.iter().map(|v| Term::var(v.clone())).collect(),
        );
        let rule = Clause::new(head, body.to_vec());
        rule.check_safety()?;
        let plan = RulePlan::compile(&rule, None, db)?;
        Ok(PreparedQuery {
            scratch: plan.new_scratch(),
            plan,
            rows: FactBuf::default(),
            variables,
        })
    }

    /// The constants of `body`'s atoms (positive and negated), in
    /// textual order: the parameters that make a run of the query
    /// prepared from `body` answer `body` itself.
    pub fn params_of(body: &[Literal]) -> impl Iterator<Item = Const> + '_ {
        body.iter()
            .filter_map(|l| match l {
                Literal::Pos(a) | Literal::Neg(a) => Some(a),
                _ => None,
            })
            .flat_map(|a| a.terms.iter().filter_map(Term::as_const).copied())
    }

    /// The projected variables: a row's cells, in order.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// Evaluate the query with `params` in place of its constants, under
    /// a fresh guard built from `guards`, and return the head rows — one
    /// per join result, so a row may repeat. A run that trips its guard
    /// leaves the query as ready for its next run as a new one.
    ///
    /// # Errors
    ///
    /// [`crate::DatalogError::ArityMismatch`] when `params` does not hold
    /// one constant per parameter; guard trips and built-in failures as
    /// in [`run_query`].
    pub fn run(
        &mut self,
        db: &Database,
        params: &[Const],
        guards: &QueryGuards,
    ) -> Result<impl Iterator<Item = &[Const]>> {
        if params.len() != self.plan.params.len() {
            return Err(crate::DatalogError::ArityMismatch {
                predicate: "__query__".to_owned(),
                expected: self.plan.params.len(),
                found: params.len(),
            });
        }
        self.plan.rebind(params, &mut self.scratch);
        self.scratch.restart();
        self.rows.clear();
        self.plan
            .eval(db, None, &mut self.scratch, &mut self.rows, &guards.guard())?;
        Ok(self.rows.rows())
    }
}

/// `db` plus the output of every algorithm call in `goal` that `db` holds
/// no relation for — a call no rule makes — run over its (complete)
/// input relation in `db` under `guards`, so that a query of `goal` sees
/// the call's answers; `None` when `goal` makes no such call. The copy
/// shares `db`'s relations (copy-on-write).
///
/// # Errors
///
/// An unknown operator, a call or input arity the operator does not
/// take, or a guard trip.
pub fn with_goal_calls(
    db: &Database,
    goal: &[Literal],
    guards: &QueryGuards,
) -> Result<Option<Database>> {
    let guard = guards.guard();
    let mut out: Option<Database> = None;
    for a in goal.iter().filter_map(Literal::atom) {
        let pred = a.predicate.as_str();
        let Some((name, input)) = crate::algo::parse_call(pred) else {
            continue;
        };
        let current = out.as_ref().unwrap_or(db);
        if current.relation(pred).is_some() {
            continue; // already materialized in its program stratum
        }
        let patterns = crate::algo::call_patterns(&crate::Program::default(), goal, a.predicate);
        let input = current.relation(input);
        let facts = crate::algo::materialize(name, input, a.arity(), &patterns, &guard)?;
        let db = out.get_or_insert_with(|| db.clone());
        guard.begin_round(db.fact_count());
        for fact in facts.iter() {
            db.insert_id(a.predicate, fact);
        }
        guard.check_db(db.fact_count())?;
    }
    Ok(out)
}

impl QueryGuards {
    /// A fresh evaluation guard: the deadline starts now.
    fn guard(&self) -> EvalGuard {
        let budget = if self.fact_limit == 0 {
            usize::MAX
        } else {
            self.fact_limit
        };
        EvalGuard::new(self.deadline, budget, self.cancel.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};
    use crate::Engine;

    fn db(src: &str) -> Database {
        let p = parse_program(src).unwrap();
        Engine::new(&p).unwrap().run().unwrap()
    }

    #[test]
    fn ground_query_yes_no() {
        let d = db("p(a).");
        let yes = run_query(&d, &parse_query("p(a)").unwrap()).unwrap();
        assert!(yes.is_success());
        assert_eq!(yes.to_string(), "yes");
        let no = run_query(&d, &parse_query("p(b)").unwrap()).unwrap();
        assert!(!no.is_success());
        assert_eq!(no.to_string(), "no");
    }

    #[test]
    fn variable_query_collects_answers() {
        let d = db("edge(a, b). edge(a, c). edge(b, c).");
        let ans = run_query(&d, &parse_query("edge(a, X)").unwrap()).unwrap();
        assert_eq!(ans.len(), 2);
        assert_eq!(ans.column("X"), vec![Const::sym("b"), Const::sym("c")]);
    }

    #[test]
    fn conjunctive_query_with_negation() {
        let d = db("p(a). p(b). q(a).");
        let ans = run_query(&d, &parse_query("p(X), not q(X)").unwrap()).unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.answers[0]["X"], Const::sym("b"));
    }

    #[test]
    fn negation_only_variables_are_existential() {
        let d = db("p(a). p(b). r(a, k).");
        let ans = run_query(&d, &parse_query("p(X), not r(X, Y)").unwrap()).unwrap();
        assert_eq!(ans.variables, vec!["X"]);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.answers[0]["X"], Const::sym("b"));
    }

    #[test]
    fn answers_deduplicated_and_sorted() {
        let d = db("e(a, b). e(a, c). f(b). f(c).");
        let ans = run_query(&d, &parse_query("e(a, Y), f(Y)").unwrap()).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.answers[0]["Y"] < ans.answers[1]["Y"]);
    }

    #[test]
    fn display_renders_table() {
        let d = db("p(a, 1).");
        let ans = run_query(&d, &parse_query("p(X, N)").unwrap()).unwrap();
        let shown = ans.to_string();
        assert!(shown.contains("X\tN"));
        assert!(shown.contains("a\t1"));
    }

    #[test]
    fn guarded_query_trips_cancellation_and_budget() {
        let d = db("p(a). p(b). p(c). q(a). q(b). q(c).");
        let body = parse_query("p(X), q(Y)").unwrap();
        // Pre-cancelled token: the join aborts with Cancelled.
        let token = CancelToken::new();
        token.cancel();
        let guards = QueryGuards {
            cancel: Some(token),
            ..QueryGuards::default()
        };
        assert!(matches!(
            run_query_guarded(&d, &body, &guards),
            Err(crate::DatalogError::Cancelled)
        ));
        // A one-tuple budget trips on the 9-answer cross product.
        let guards = QueryGuards {
            fact_limit: 1,
            ..QueryGuards::default()
        };
        assert!(matches!(
            run_query_guarded(&d, &body, &guards),
            Err(crate::DatalogError::BudgetExceeded { .. })
        ));
        // Default guards answer exactly like the unguarded entry point.
        let unguarded = run_query(&d, &body).unwrap();
        let guarded = run_query_guarded(&d, &body, &QueryGuards::default()).unwrap();
        assert_eq!(unguarded, guarded);
    }

    /// A prepared run's distinct rows, sorted.
    fn rows(
        q: &mut PreparedQuery,
        d: &Database,
        params: &[Const],
        guards: &QueryGuards,
    ) -> Result<Vec<Vec<Const>>> {
        let mut rows: Vec<Vec<Const>> = q.run(d, params, guards)?.map(<[Const]>::to_vec).collect();
        rows.sort();
        rows.dedup();
        Ok(rows)
    }

    /// A one-shot answer as rows in the query's variable order.
    fn answer_rows(ans: &QueryAnswer) -> Vec<Vec<Const>> {
        let mut rows: Vec<Vec<Const>> = ans
            .answers
            .iter()
            .map(|b| ans.variables.iter().map(|v| b[v]).collect())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn rebinding_a_constant_drops_the_steps_join_table() {
        // `p(X, N)` joins on N against a two-row relation, whose hash
        // table the step caches — built from the rows matching X only.
        let d = db("p(a, 1). p(b, 2). r(c, d, 1). r(c, d, 2).");
        let body = parse_query("r(c, d, N), p(a, N)").unwrap();
        let mut q = PreparedQuery::prepare(&body, &d).unwrap();
        let unguarded = QueryGuards::default();
        for (x, n) in [("a", 1), ("b", 2), ("a", 1)] {
            let params = [Const::sym("c"), Const::sym("d"), Const::sym(x)];
            assert_eq!(
                rows(&mut q, &d, &params, &unguarded).unwrap(),
                vec![vec![Const::int(n)]],
                "X = {x}"
            );
        }
    }

    #[test]
    fn prepared_runs_answer_every_constant_like_one_shot_queries() {
        let d = db("e(a, b). e(a, c). e(b, c). e(c, a). f(b). f(c).");
        let body = parse_query("e(a, Y), f(Y), not e(Y, a)").unwrap();
        let mut q = PreparedQuery::prepare(&body, &d).unwrap();
        assert_eq!(q.variables(), ["Y"]);
        for (x, z) in [("a", "a"), ("b", "a"), ("c", "b"), ("a", "c")] {
            let goal = parse_query(&format!("e({x}, Y), f(Y), not e(Y, {z})")).unwrap();
            let params: Vec<Const> = PreparedQuery::params_of(&goal).collect();
            assert_eq!(
                rows(&mut q, &d, &params, &QueryGuards::default()).unwrap(),
                answer_rows(&run_query(&d, &goal).unwrap()),
                "e({x}, Y), f(Y), not e(Y, {z})"
            );
        }
        assert!(matches!(
            q.run(&d, &[Const::sym("a")], &QueryGuards::default()),
            Err(crate::DatalogError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            })
        ));
    }

    #[test]
    fn prepared_runs_after_a_guard_trip_answer_like_one_shot_queries() {
        // A 100 × 100 cross product: long enough to check its guard
        // several times, so every trip below happens mid-run.
        let mut src = String::new();
        for i in 0..100 {
            src.push_str(&format!("p({i}). q({i}, k). "));
        }
        let d = db(&src);
        let body = parse_query("p(X), q(Y, k)").unwrap();
        let params: Vec<Const> = PreparedQuery::params_of(&body).collect();
        let expect = answer_rows(&run_query(&d, &body).unwrap());
        let token = CancelToken::new();
        token.cancel();
        let trips = [
            QueryGuards {
                deadline: Some(std::time::Duration::ZERO),
                ..QueryGuards::default()
            },
            QueryGuards {
                fact_limit: 100,
                ..QueryGuards::default()
            },
            QueryGuards {
                cancel: Some(token),
                ..QueryGuards::default()
            },
        ];
        let mut q = PreparedQuery::prepare(&body, &d).unwrap();
        for guards in &trips {
            let one_shot = run_query_guarded(&d, &body, guards).map(|a| answer_rows(&a));
            assert!(one_shot.is_err(), "{guards:?} trips a one-shot query");
            // Alternate full and tripping runs, so each tripping run
            // starts from the tick state a different number of earlier
            // runs left behind.
            for _ in 0..16 {
                assert_eq!(rows(&mut q, &d, &params, guards), one_shot, "{guards:?}");
                assert_eq!(
                    rows(&mut q, &d, &params, &QueryGuards::default()),
                    Ok(expect.clone())
                );
            }
        }
    }

    #[test]
    fn unsafe_query_rejected() {
        let d = db("p(a).");
        // Comparison over an unbound variable.
        let err = run_query(&d, &parse_query("p(X), Y != a").unwrap());
        assert!(err.is_err());
    }
}
