//! MultiLog databases `Δ = ⟨Λ, Σ, Π, Q⟩` (Definition 5.1) and the one
//! admissibility gate (Definition 5.3 and the cautious level
//! stratification) every engine inherits.

use std::collections::HashSet;
use std::sync::Arc;

use multilog_lattice::{Label, LatticeBuilder, LatticeError, SecurityLattice};

use crate::ast::{Atom, Clause, Goal, Head, Span, Term};
use crate::lint::{Diagnostic, Finding, Program};
use crate::modes::ModeSet;
use crate::parser::ParsedProgram;
use crate::{MultiLogError, Result};

/// An admissible MultiLog database: the clauses partitioned into the
/// lattice component Λ (l- and h-clauses), the secured data component Σ
/// (m-clauses), the plain component Π (p-clauses), and the queries Q,
/// with the security lattice `[[Λ]]` induces and the belief modes the
/// database knows.
#[derive(Clone, Debug)]
pub struct MultiLogDb {
    lambda: Vec<Clause>,
    sigma: Vec<Clause>,
    pi: Vec<Clause>,
    queries: Vec<Goal>,
    /// Built once by the gate; `None` when `[[Λ]]` asserts no level.
    lattice: Option<Arc<SecurityLattice>>,
    modes: ModeSet,
    uses_cau: bool,
}

impl MultiLogDb {
    /// Partition clauses by head kind and decide admissibility, once for
    /// every engine: the lint pass's clearance-free error checks
    /// ([`crate::lint`]: ML0101–ML0106, ML0113 and ML0008) run over
    /// Λ ∪ Σ ∪ Π and the queries Q, and the first finding refuses the
    /// database.
    ///
    /// # Errors
    ///
    /// [`MultiLogError::UnsafeVariable`] (ML0101, range restriction),
    /// [`MultiLogError::NotAdmissible`] (ML0102–ML0104: Λ purity,
    /// undeclared labels, a cyclic `[[Λ]]`),
    /// [`MultiLogError::NotBeliefStratified`] (ML0105, the cautious level
    /// stratification), [`MultiLogError::UnknownMode`] (ML0106) or
    /// [`MultiLogError::IllFormed`] (ML0113, ML0008).
    pub fn new(clauses: Vec<Clause>, queries: Vec<Goal>) -> Result<Self> {
        Self::gate(clauses, queries, &[]).map_err(|finding| finding.error)
    }

    /// [`MultiLogDb::new`] over a parsed program, for front-ends that
    /// point at the refused clause or query: a refusal is the first
    /// finding as a spanned [`Diagnostic`], worded as `multilog lint`
    /// words it.
    ///
    /// # Errors
    ///
    /// The finding behind any error [`MultiLogDb::new`] returns.
    pub fn admit(prog: ParsedProgram) -> std::result::Result<Self, Diagnostic> {
        Self::gate(prog.clauses, prog.queries, &prog.query_spans).map_err(Finding::into_diagnostic)
    }

    fn gate(
        clauses: Vec<Clause>,
        queries: Vec<Goal>,
        spans: &[Span],
    ) -> std::result::Result<Self, Finding> {
        let program = Program::new(&clauses, &queries, spans);
        if let Some(finding) = program.admissibility().into_iter().next() {
            return Err(finding);
        }
        let Program {
            lattice,
            modes,
            uses_cau,
            ..
        } = program;
        let mut db = MultiLogDb {
            lambda: Vec::new(),
            sigma: Vec::new(),
            pi: Vec::new(),
            queries,
            lattice: lattice.map(Arc::new),
            modes,
            uses_cau,
        };
        for c in clauses {
            match &c.head {
                Head::L(_) | Head::H(_, _) => db.lambda.push(c),
                Head::M(_) => db.sigma.push(c),
                Head::P(_) => db.pi.push(c),
            }
        }
        Ok(db)
    }

    /// The Λ component.
    pub fn lambda(&self) -> &[Clause] {
        &self.lambda
    }

    /// The Σ component.
    pub fn sigma(&self) -> &[Clause] {
        &self.sigma
    }

    /// The Π component.
    pub fn pi(&self) -> &[Clause] {
        &self.pi
    }

    /// The queries Q.
    pub fn queries(&self) -> &[Goal] {
        &self.queries
    }

    /// All clauses (Λ ∪ Σ ∪ Π), Λ first.
    pub fn clauses(&self) -> impl Iterator<Item = &Clause> {
        self.lambda.iter().chain(&self.sigma).chain(&self.pi)
    }

    /// The belief modes the database knows: the built-in ones plus those
    /// Π's `bel/7` heads define.
    pub fn modes(&self) -> &ModeSet {
        &self.modes
    }

    /// Whether some Σ or Π body consults `<< cau`.
    pub(crate) fn uses_cau(&self) -> bool {
        self.uses_cau
    }

    /// The security lattice `[[Λ]]` induces, built once at admission.
    ///
    /// # Errors
    ///
    /// [`MultiLogError::Lattice`] ([`LatticeError::Empty`]) when `[[Λ]]`
    /// asserts no level.
    pub fn lattice(&self) -> Result<Arc<SecurityLattice>> {
        self.lattice
            .clone()
            .ok_or(MultiLogError::Lattice(LatticeError::Empty))
    }

    /// Whether the database is plain Datalog (no Λ, no Σ): Prop 6.1's
    /// degenerate case, which has no lattice of its own.
    pub(crate) fn is_plain_datalog(&self) -> bool {
        self.lambda.is_empty() && self.sigma.is_empty()
    }

    /// The lattice an engine evaluates over and the label of each
    /// clearance it serves. Plain Datalog gets one unordered level per
    /// clearance: Prop 6.1 lets `u` be "any user level (perhaps system)".
    ///
    /// # Errors
    ///
    /// [`MultiLogError::NotAdmissible`] for a clearance the lattice does
    /// not declare; [`MultiLogDb::lattice`]'s error when `[[Λ]]` asserts
    /// no level.
    pub(crate) fn lattice_for<S: AsRef<str>>(
        &self,
        clearances: &[S],
    ) -> Result<(Arc<SecurityLattice>, Vec<Label>)> {
        let lattice = if self.is_plain_datalog() {
            let mut builder = LatticeBuilder::new();
            for user in clearances {
                builder.add_level(user.as_ref());
            }
            Arc::new(builder.build()?)
        } else {
            self.lattice()?
        };
        let labels = clearances
            .iter()
            .map(|user| {
                let user = user.as_ref();
                lattice
                    .label(user)
                    .ok_or_else(|| MultiLogError::NotAdmissible {
                        detail: format!("user level `{user}` is not a declared level"),
                    })
            })
            .collect::<Result<_>>()?;
        Ok((lattice, labels))
    }
}

/// Evaluate `[[Λ]]` to fixpoint: the asserted level names and order
/// edges. Λ may contain rules, but only over level/order atoms; a simple
/// naive fixpoint suffices at lattice scale. Clauses whose bodies contain
/// non-lattice atoms are skipped (the lint pass reports them; validated
/// databases never contain them).
pub(crate) fn eval_lambda(lambda: &[&Clause]) -> (HashSet<String>, HashSet<(String, String)>) {
    let mut levels: HashSet<String> = HashSet::new();
    let mut orders: HashSet<(String, String)> = HashSet::new();
    let pure: Vec<&Clause> = lambda
        .iter()
        .copied()
        .filter(|c| {
            matches!(c.head, Head::L(_) | Head::H(_, _))
                && c.body
                    .iter()
                    .all(|a| matches!(a, Atom::L(_) | Atom::H(_, _) | Atom::Leq(_, _)))
        })
        .collect();
    // Seed with facts, then iterate rules.
    loop {
        let mut changed = false;
        for c in &pure {
            for (lv, od) in derive_lambda(c, &levels, &orders) {
                match (lv, od) {
                    (Some(l), None) => changed |= levels.insert(l),
                    (None, Some(o)) => changed |= orders.insert(o),
                    _ => {}
                }
            }
        }
        if !changed {
            break;
        }
    }
    (levels, orders)
}

/// A derivable Λ fact: `(Some(level), None)` or `(None, Some(order pair))`.
type LambdaFact = (Option<String>, Option<(String, String)>);

/// One naive-fixpoint step for a Λ clause: returns newly derivable
/// level/order facts.
fn derive_lambda(
    c: &Clause,
    levels: &HashSet<String>,
    orders: &HashSet<(String, String)>,
) -> Vec<LambdaFact> {
    use std::collections::HashMap;
    // Enumerate substitutions satisfying the body over current facts.
    let mut subs: Vec<HashMap<&str, String>> = vec![HashMap::new()];
    for atom in &c.body {
        let mut next = Vec::new();
        for sub in &subs {
            match atom {
                Atom::L(t) => {
                    for l in levels {
                        if let Some(s) = extend(sub, &[(t, l)]) {
                            next.push(s);
                        }
                    }
                }
                Atom::H(lo, hi) => {
                    for (a, b) in orders {
                        if let Some(s) = extend(sub, &[(lo, a), (hi, b)]) {
                            next.push(s);
                        }
                    }
                }
                Atom::Leq(lo, hi) => {
                    // ⪯ over the *current* order edges: reflexive-transitive
                    // closure computed on the fly.
                    for a in levels {
                        for b in levels {
                            if leq_in(orders, a, b) {
                                if let Some(s) = extend(sub, &[(lo, a), (hi, b)]) {
                                    next.push(s);
                                }
                            }
                        }
                    }
                }
                _ => unreachable!("Λ purity checked at construction"),
            }
        }
        subs = next;
    }
    let resolve = |t: &Term, sub: &HashMap<&str, String>| -> Option<String> {
        match t {
            Term::Sym(s) => Some(s.to_string()),
            Term::Var(v) => sub.get(v.as_ref()).cloned(),
            _ => None,
        }
    };
    let mut out = Vec::new();
    for sub in &subs {
        match &c.head {
            Head::L(t) => {
                if let Some(l) = resolve(t, sub) {
                    out.push((Some(l), None));
                }
            }
            Head::H(lo, hi) => {
                if let (Some(a), Some(b)) = (resolve(lo, sub), resolve(hi, sub)) {
                    out.push((None, Some((a, b))));
                }
            }
            _ => unreachable!("Λ heads are l- or h-atoms"),
        }
    }
    out
}

fn extend<'a>(
    sub: &std::collections::HashMap<&'a str, String>,
    pairs: &[(&'a Term, &str)],
) -> Option<std::collections::HashMap<&'a str, String>> {
    let mut out = sub.clone();
    for (t, val) in pairs {
        match t {
            Term::Sym(s) => {
                if s.as_ref() != *val {
                    return None;
                }
            }
            Term::Var(v) => match out.get(v.as_ref()) {
                Some(existing) if existing != val => return None,
                Some(_) => {}
                None => {
                    out.insert(v.as_ref(), (*val).to_string());
                }
            },
            _ => return None,
        }
    }
    Some(out)
}

fn leq_in(orders: &HashSet<(String, String)>, a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    // BFS over order edges.
    let mut stack = vec![a.to_owned()];
    let mut seen = HashSet::new();
    while let Some(cur) = stack.pop() {
        for (lo, hi) in orders {
            if lo == &cur && seen.insert(hi.clone()) {
                if hi == b {
                    return true;
                }
                stack.push(hi.clone());
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_database;

    #[test]
    fn partitions_by_head_kind() {
        let db = parse_database(
            "level(u). level(s). order(u, s).\
             u[p(k : a -u-> v)].\
             q(a). r(X) <- q(X).",
        )
        .unwrap();
        assert_eq!(db.lambda().len(), 3);
        assert_eq!(db.sigma().len(), 1);
        assert_eq!(db.pi().len(), 2);
    }

    #[test]
    fn lattice_from_facts() {
        let db = parse_database("level(u). level(c). level(s). order(u, c). order(c, s).").unwrap();
        let lat = db.lattice().unwrap();
        assert_eq!(lat.len(), 3);
        assert!(lat.dominates_by_name("s", "u").unwrap());
    }

    #[test]
    fn lattice_from_rules() {
        // Λ may contain rules over l-/h-atoms.
        let db = parse_database(
            "level(u). level(c). level(s).\
             order(u, c).\
             order(c, s) <- level(c), level(s).",
        )
        .unwrap();
        let lat = db.lattice().unwrap();
        assert!(lat.dominates_by_name("s", "u").unwrap());
    }

    #[test]
    fn lambda_purity_enforced() {
        let err = parse_database("level(u) <- q(a). q(a).");
        assert!(matches!(err, Err(MultiLogError::NotAdmissible { .. })));
    }

    #[test]
    fn undeclared_label_in_sigma_rejected() {
        assert!(matches!(
            parse_database("level(u). u[p(k : a -s-> v)]."),
            Err(MultiLogError::NotAdmissible { .. })
        ));
    }

    #[test]
    fn undeclared_label_in_pi_body_rejected() {
        assert!(matches!(
            parse_database("level(u). u[p(k : a -u-> v)]. q(X) <- s[p(k : a -u-> X)]."),
            Err(MultiLogError::NotAdmissible { .. })
        ));
    }

    #[test]
    fn cyclic_order_rejected() {
        assert!(matches!(
            parse_database("level(u). level(c). order(u, c). order(c, u). u[p(k : a -u-> v)]."),
            Err(MultiLogError::NotAdmissible { .. })
        ));
    }

    #[test]
    fn order_over_undeclared_level_rejected() {
        assert!(matches!(
            parse_database("level(u). order(u, s)."),
            Err(MultiLogError::NotAdmissible { .. })
        ));
    }

    #[test]
    fn modes_are_builtins_then_bel_heads() {
        let db = parse_database(
            "level(u). u[p(k : a -u-> v)].\
             bel(p, k, a, v, u, u, mine) <- level(u).\
             bel(p, k, a, v, u, u, mine) <- u[p(k : a -u-> v)].",
        )
        .unwrap();
        for mode in ["fir", "opt", "cau", "mine"] {
            assert!(db.modes().contains(mode), "{mode}");
        }
        assert!(!db.modes().contains("bel"));
    }

    #[test]
    fn clearances_must_be_declared() {
        let db = parse_database("level(u). level(s). order(u, s).").unwrap();
        let (lattice, labels) = db.lattice_for(&["s", "u"]).unwrap();
        assert_eq!(
            labels,
            [lattice.label("s").unwrap(), lattice.label("u").unwrap()]
        );
        assert!(matches!(
            db.lattice_for(&["zz"]),
            Err(MultiLogError::NotAdmissible { .. })
        ));
        // Plain Datalog: one unordered level per clearance.
        let plain = parse_database("q(a).").unwrap();
        let (lattice, _) = plain.lattice_for(&["x", "y"]).unwrap();
        assert_eq!(lattice.len(), 2);
        assert!(!lattice.dominates_by_name("x", "y").unwrap());
    }

    #[test]
    fn unsafe_head_variable_rejected() {
        let err = parse_database("q(X).");
        assert!(matches!(err, Err(MultiLogError::UnsafeVariable { .. })));
    }

    #[test]
    fn variable_level_head_allowed_when_bound() {
        let db = parse_database(
            "level(u). level(s). order(u, s).\
             L[p(k : a -L-> v)] <- level(L).",
        )
        .unwrap();
        assert_eq!(db.sigma().len(), 1);
        db.lattice().unwrap();
    }

    #[test]
    fn datalog_degeneration_partition() {
        // Prop 6.1: with Λ and Σ empty, Δ is a Datalog program.
        let db = parse_database("q(a). p(X) <- q(X). <- p(X).").unwrap();
        assert!(db.lambda().is_empty());
        assert!(db.sigma().is_empty());
        assert_eq!(db.pi().len(), 2);
        assert_eq!(db.queries().len(), 1);
        // Empty Λ yields an empty label set; lattice construction reports
        // the empty lattice.
        assert!(db.lattice().is_err());
    }
}
