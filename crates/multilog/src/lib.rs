//! **MultiLog** — belief reasoning in multilevel-secure deductive
//! databases (Jamil, SIGMOD 1999).
//!
//! MultiLog extends Datalog with security-labelled atoms and parametric
//! belief. Its language `L = ⟨P, F, A, V, S, ⪯, μ⟩` has five atom kinds:
//!
//! * **m-atoms** `s[p(k : a -c-> v)]` — one column of an MLS tuple: in
//!   predicate `p`, the entity keyed `k` has value `v` for attribute `a`,
//!   classified `c`, asserted at level `s`;
//! * **b-atoms** `s[p(k : a -c-> v)] << m` — a rational agent at level `s`
//!   believes the m-atom in mode `m ∈ {fir, opt, cau, …}`;
//! * **p-atoms** — ordinary Datalog atoms;
//! * **l-atoms** `level(s)` and **h-atoms** `order(l, h)` — declare the
//!   security lattice.
//!
//! A database `Δ = ⟨Λ, Σ, Π, Q⟩` (Definition 5.1) collects the lattice
//! clauses, the secured data clauses, the plain clauses, and queries. This
//! crate provides:
//!
//! * the full AST and a parser for the concrete syntax ([`ast`],
//!   [`parser`]);
//! * one admissibility gate (Def 5.3) that every engine inherits
//!   ([`db`], running the [`lint`] pass's error checks) and consistency
//!   (Def 5.4) checking ([`consistency`]);
//! * the **operational semantics**: a fixpoint engine whose derivations
//!   are recorded and replayed as the sequent-style proof trees of
//!   Figure 9/11 ([`MultiLogEngine`], [`proof`]);
//! * the **reduction semantics**: the τ translation to Datalog plus the
//!   inference-engine axiom set **A** of Figure 12, executed on the
//!   `multilog-datalog` engine ([`reduce`]);
//! * user-defined belief modes via `bel`-defining rules (§7) ([`modes`]);
//! * the FILTER/FILTER-NULL downward-inheritance extension of Figure 13
//!   ([`filter`]);
//! * a **static-analysis pass** emitting spanned diagnostics with stable
//!   `ML01xx` codes before any evaluation ([`lint`]);
//! * the worked examples of the paper: database D₁ (Figure 10) and the
//!   MultiLog encoding of the `Mission` relation (Example 5.1)
//!   ([`examples`]).
//!
//! The two semantics are proved equivalent in the paper (Theorem 6.1);
//! here they are *tested* equivalent — see `tests/equivalence.rs` at the
//! workspace root.
//!
//! # Example
//!
//! ```
//! use multilog_core::{parse_database, MultiLogEngine};
//!
//! let db = parse_database(
//!     r#"
//!     level(u). level(c). order(u, c).
//!     u[p(k : a -u-> v)].
//!     "#,
//! )
//! .unwrap();
//! let engine = MultiLogEngine::new(&db, "c").unwrap();
//! // An optimistic believer at c sees the u-level fact.
//! let ans = engine.solve_text("c[p(k : a -u-> V)] << opt").unwrap();
//! assert_eq!(ans.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod belief;
pub mod consistency;
pub mod db;
mod engine;
mod error;
pub mod examples;
pub mod filter;
pub mod flow;
pub mod lint;
pub mod modes;
pub mod parser;
pub mod proof;
pub mod reduce;
pub mod server;

pub use ast::Span;
pub use db::MultiLogDb;
pub use engine::{Answer, ClauseStats, EngineOptions, MultiLogEngine, OperationalStats, PFact};
pub use error::MultiLogError;
pub use flow::{analyze_db, analyze_source, FlowReport, PredKind, PredicateFlow};
pub use lint::{lint_source, lint_source_at, Diagnostic, LintReport, Severity};
pub use multilog_datalog::CancelToken;
pub use parser::{parse_clause, parse_database, parse_goal, parse_items, ParsedProgram};
pub use server::{BeliefServer, CommitSummary, ReaderSession, WriterSession, SHARED_ENGINE};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MultiLogError>;
