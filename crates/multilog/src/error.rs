//! Error type for the MultiLog core.

use std::fmt;

use multilog_datalog::DatalogError;
use multilog_lattice::LatticeError;

/// Errors raised while parsing, validating, or evaluating MultiLog
/// databases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiLogError {
    /// Syntax error with position information.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        column: usize,
        /// Description.
        message: String,
    },
    /// Admissibility violation (Definition 5.3).
    NotAdmissible {
        /// Description of the violated condition.
        detail: String,
    },
    /// Consistency violation (Definition 5.4) detected on the meaning of
    /// the Σ component.
    Inconsistent {
        /// Description of the violated integrity property.
        detail: String,
    },
    /// A clause is not range-restricted.
    UnsafeVariable {
        /// The offending variable.
        variable: String,
        /// The clause, rendered.
        clause: String,
    },
    /// The program uses a cautious b-atom in a position the level
    /// stratification cannot order (our resolution of the paper's
    /// underspecified cautious recursion; see DESIGN.md).
    NotBeliefStratified {
        /// Description of the offending clause.
        detail: String,
    },
    /// A referenced belief mode is neither built-in nor user-defined.
    UnknownMode(String),
    /// The program is admissible but cannot be evaluated as written: a
    /// p-predicate used at two arities (ML0113), or an algorithm operator
    /// or aggregate misused (ML0008).
    IllFormed {
        /// Description of the offending clause.
        detail: String,
    },
    /// The database uses a construct only the reduction semantics
    /// executes (aggregate heads, `@algo(...)` operator calls); the
    /// operational engine rejects it instead of silently deriving
    /// nothing.
    ReductionOnly {
        /// The offending clause, rendered.
        detail: String,
    },
    /// An extensional update (assert or retract) used a non-ground
    /// m-atom; updates must name one concrete cell.
    NonGroundUpdate {
        /// The offending atom, rendered.
        atom: String,
    },
    /// Underlying lattice error.
    Lattice(LatticeError),
    /// Error from the Datalog back-end during reduction.
    Datalog(DatalogError),
    /// Evaluation exceeded the configured fact budget.
    BudgetExceeded {
        /// The configured budget.
        budget: usize,
        /// Facts materialized (or buffered) when the guard tripped.
        used: usize,
    },
    /// Evaluation exceeded its wall-clock deadline.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
    /// Evaluation was cancelled through a
    /// [`CancelToken`](multilog_datalog::CancelToken).
    Cancelled,
    /// A belief server already has an open writer session; MVCC here is
    /// single-writer / multi-reader, so the second writer must wait for
    /// the first to drop.
    WriterBusy,
}

impl fmt::Display for MultiLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiLogError::Parse {
                line,
                column,
                message,
            } => write!(f, "parse error at {line}:{column}: {message}"),
            MultiLogError::NotAdmissible { detail } => {
                write!(f, "database is not admissible (Def 5.3): {detail}")
            }
            MultiLogError::Inconsistent { detail } => {
                write!(f, "database is not consistent (Def 5.4): {detail}")
            }
            MultiLogError::UnsafeVariable { variable, clause } => {
                write!(f, "unsafe variable `{variable}` in `{clause}`")
            }
            MultiLogError::NotBeliefStratified { detail } => {
                write!(f, "cautious belief is not level-stratified: {detail}")
            }
            MultiLogError::UnknownMode(m) => write!(f, "unknown belief mode `{m}`"),
            MultiLogError::IllFormed { detail } => write!(f, "database is ill-formed: {detail}"),
            MultiLogError::ReductionOnly { detail } => {
                write!(
                    f,
                    "construct requires the reduction engine (`ReducedEngine`): {detail}"
                )
            }
            MultiLogError::NonGroundUpdate { atom } => {
                write!(f, "extensional updates must be ground: `{atom}`")
            }
            MultiLogError::Lattice(e) => write!(f, "lattice error: {e}"),
            MultiLogError::Datalog(e) => write!(f, "datalog back-end error: {e}"),
            MultiLogError::BudgetExceeded { budget, used } => {
                write!(
                    f,
                    "evaluation exceeded the fact budget of {budget} ({used} used)"
                )
            }
            MultiLogError::DeadlineExceeded { limit_ms } => {
                write!(f, "evaluation exceeded the deadline of {limit_ms} ms")
            }
            MultiLogError::Cancelled => write!(f, "evaluation was cancelled"),
            MultiLogError::WriterBusy => {
                write!(f, "a writer session is already open on this belief server")
            }
        }
    }
}

impl std::error::Error for MultiLogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MultiLogError::Lattice(e) => Some(e),
            MultiLogError::Datalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LatticeError> for MultiLogError {
    fn from(e: LatticeError) -> Self {
        MultiLogError::Lattice(e)
    }
}

impl From<DatalogError> for MultiLogError {
    fn from(e: DatalogError) -> Self {
        // Guard trips keep their typed identity across the reduction
        // boundary, so callers match one set of variants for both the
        // operational and the reduced engine.
        match e {
            DatalogError::BudgetExceeded { budget, used } => {
                MultiLogError::BudgetExceeded { budget, used }
            }
            DatalogError::DeadlineExceeded { limit_ms } => {
                MultiLogError::DeadlineExceeded { limit_ms }
            }
            DatalogError::Cancelled => MultiLogError::Cancelled,
            other => MultiLogError::Datalog(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let cases = [
            MultiLogError::NotAdmissible { detail: "x".into() },
            MultiLogError::Inconsistent { detail: "x".into() },
            MultiLogError::UnknownMode("zeal".into()),
            MultiLogError::IllFormed { detail: "x".into() },
            MultiLogError::ReductionOnly { detail: "x".into() },
            MultiLogError::NonGroundUpdate { atom: "x".into() },
            MultiLogError::BudgetExceeded { budget: 1, used: 2 },
            MultiLogError::DeadlineExceeded { limit_ms: 5 },
            MultiLogError::Cancelled,
            MultiLogError::WriterBusy,
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn conversions() {
        let e: MultiLogError = LatticeError::Empty.into();
        assert!(matches!(e, MultiLogError::Lattice(_)));
        let e: MultiLogError = DatalogError::UnknownPredicate("p".into()).into();
        assert!(matches!(e, MultiLogError::Datalog(_)));
    }

    #[test]
    fn guard_errors_lift_through_conversion() {
        let e: MultiLogError = DatalogError::DeadlineExceeded { limit_ms: 9 }.into();
        assert!(matches!(e, MultiLogError::DeadlineExceeded { limit_ms: 9 }));
        let e: MultiLogError = DatalogError::Cancelled.into();
        assert!(matches!(e, MultiLogError::Cancelled));
        let e: MultiLogError = DatalogError::BudgetExceeded { budget: 3, used: 4 }.into();
        assert!(matches!(
            e,
            MultiLogError::BudgetExceeded { budget: 3, used: 4 }
        ));
    }
}
