//! A from-scratch Datalog engine with stratified negation and semi-naive
//! bottom-up evaluation.
//!
//! This crate is the substitute for the CORAL deductive database that the
//! paper *"Belief Reasoning in MLS Deductive Databases"* (Jamil, SIGMOD
//! 1999) uses as the back-end of its reduction semantics (§6). The
//! MultiLog-to-Datalog translation τ together with the fixed axiom set
//! **A** of Figure 12 only requires the Horn fragment with stratified
//! negation and built-in comparisons — exactly what this engine provides:
//!
//! * Terms: cheaply clonable symbolic constants, 64-bit integers, and
//!   variables.
//! * Clauses with positive literals, *negated* literals, and comparison
//!   built-ins (`=`, `!=`, `<`, `<=`, `>`, `>=`).
//! * Range-restriction (safety) checking.
//! * Predicate dependency analysis and stratification (negation must not
//!   occur inside a recursive component).
//! * **Semi-naive** bottom-up evaluation ([`Engine`]), validated against
//!   a naive, tuple-at-a-time reference evaluator ([`mod@reference`]).
//! * A recursive-descent parser for a conventional textual syntax.
//! * Evaluation guards — wall-clock deadlines, fact budgets checked
//!   inside the join loop, cooperative cancellation — surfacing as typed
//!   errors, plus per-rule/per-stratum statistics and a [`TraceSink`]
//!   for structured evaluation events.
//! * Layer-independent analysis kernels ([`mod@analyze`]) — reachability,
//!   the possibly-nonempty fixpoint, singleton variables, the `@algo`
//!   call check — that the MultiLog lint and lattice-flow passes share.
//!
//! # Example
//!
//! ```
//! use multilog_datalog::{parse_program, Engine};
//!
//! let program = parse_program(
//!     r#"
//!     edge(a, b). edge(b, c). edge(c, d).
//!     path(X, Y) :- edge(X, Y).
//!     path(X, Y) :- edge(X, Z), path(Z, Y).
//!     "#,
//! )
//! .unwrap();
//! let db = Engine::new(&program).unwrap().run().unwrap();
//! assert_eq!(db.relation("path").unwrap().len(), 6);
//! ```
//!
//! Arithmetic built-ins and query-restricted evaluation:
//!
//! ```
//! use multilog_datalog::{parse_program, Const, Engine};
//!
//! let program = parse_program(
//!     r#"
//!     fib(0, 0). fib(1, 1).
//!     fib(N, F) :- fib(N1, F1), fib(N2, F2), N2 = N1 + 1, N2 < 12,
//!                  N = N2 + 1, F = F1 + F2.
//!     unrelated(X, Y) :- fib(X, _1), fib(Y, _2).
//!     "#,
//! )
//! .unwrap();
//! // Only `fib`'s dependency cone is materialized; out-of-cone
//! // predicates do not even get an (empty) relation.
//! let db = Engine::new(&program).unwrap().run_for_query(["fib"]).unwrap();
//! assert!(db.contains("fib", &[Const::int(12), Const::int(144)]));
//! assert!(db.relation("unrelated").is_none());
//! ```
//!
//! Point queries with a bound argument go further: the magic-sets
//! rewrite ([`mod@magic`], via [`Engine::run_for_goal`]) evaluates only
//! the sub-fixpoint the goal's constants demand:
//!
//! ```
//! use multilog_datalog::{parse_program, parse_query, Engine};
//!
//! let program = parse_program(
//!     r#"
//!     edge(a, b). edge(b, c). edge(x, y).
//!     path(X, Y) :- edge(X, Y).
//!     path(X, Z) :- path(X, Y), edge(Y, Z).
//!     "#,
//! )
//! .unwrap();
//! let goal = parse_query("path(a, X)").unwrap();
//! let (answers, stats) = Engine::new(&program).unwrap().run_for_goal(&goal).unwrap();
//! assert_eq!(answers.len(), 2); // a→b, a→c; the x→y component is never demanded
//! assert_eq!(stats.demand.unwrap().strategy, "magic");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod analyze;
mod atom;
mod clause;
mod error;
mod eval;
mod fx;
mod guard;
mod incremental;
pub mod magic;
mod parser;
mod plan;
mod program;
mod query;
pub mod reference;
mod snapshot;
mod storage;
mod term;
mod trace;

pub use algo::{AlgoContext, AlgoImpl, AlgoOutput, AlgoRegistry};
pub use atom::{ArithOp, Atom, CmpOp, Literal};
pub use clause::{AggFunc, Aggregate, Clause, Span};
pub use error::DatalogError;
pub use eval::{DemandStats, Engine, EvalStats, RuleStats, StratumStats};
pub use guard::CancelToken;
pub use incremental::{CommitStats, IncrementalEngine};
pub use magic::PreparedMagic;
pub use parser::{parse_atom, parse_clause, parse_program, parse_query};
pub use program::{DepGraph, Program, Stratification};
pub use query::{
    run_query, run_query_guarded, with_goal_calls, Bindings, PreparedQuery, QueryAnswer,
    QueryGuards,
};
pub use snapshot::{GenerationStore, Snapshot};
pub use storage::{Database, Relation};
pub use term::{Const, SymId, Term};
pub use trace::{NoopTrace, RecordingTrace, TraceEvent, TraceSink};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DatalogError>;
