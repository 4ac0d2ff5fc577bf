//! The MultiLog abstract syntax: terms, the five atom kinds, molecules,
//! clauses, and goals, with source spans for diagnostics.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use multilog_datalog::Aggregate;

/// `text` as a shared name: one allocation per distinct text, so the
/// terms and atoms of a database and of every goal parsed against it
/// (each `data`, `l0`, `V`) share their names instead of each holding a
/// copy. The table only grows, like the Datalog symbol table the same
/// names are interned into.
pub(crate) fn shared_name(text: &str) -> Arc<str> {
    static NAMES: OnceLock<RwLock<HashSet<Arc<str>>>> = OnceLock::new();
    let names = NAMES.get_or_init(RwLock::default);
    if let Some(name) = names
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(text)
    {
        return Arc::clone(name);
    }
    let mut names = names.write().unwrap_or_else(PoisonError::into_inner);
    if let Some(name) = names.get(text) {
        return Arc::clone(name);
    }
    let name: Arc<str> = Arc::from(text);
    names.insert(Arc::clone(&name));
    name
}

/// A source position (1-based line and column) recorded by the parser on
/// every clause, so lints and errors can point at the offending source.
///
/// A span is *metadata, not identity*: two clauses differing only in
/// spans are equal, so `Span` compares equal to every other `Span` and
/// hashes to nothing. All clauses desugared from one molecular source
/// item share that item's span — analyses use this to group them back.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// 1-based source line (0 when unknown).
    pub line: usize,
    /// 1-based source column (0 when unknown).
    pub column: usize,
}

impl Span {
    /// A span at a known position.
    pub fn new(line: usize, column: usize) -> Self {
        Span { line, column }
    }

    /// The span of a programmatically built clause.
    pub fn unknown() -> Self {
        Span::default()
    }

    /// Whether the span points at real source text.
    pub fn is_known(&self) -> bool {
        self.line > 0
    }
}

impl PartialEq for Span {
    fn eq(&self, _: &Span) -> bool {
        true // spans are diagnostics metadata, never identity
    }
}

impl Eq for Span {}

impl std::hash::Hash for Span {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_known() {
            write!(f, "{}:{}", self.line, self.column)
        } else {
            f.write_str("?:?")
        }
    }
}

/// A term: a variable, a symbolic constant, an integer, `⊥`, or the
/// don't-care `_` (§7 suggests don't-care variables to hide level
/// bookkeeping from users; the parser desugars `_` to fresh variables, so
/// `Term` itself never carries one).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A logic variable (uppercase-leading in the concrete syntax).
    Var(Arc<str>),
    /// A symbolic constant.
    Sym(Arc<str>),
    /// An integer constant.
    Int(i64),
    /// The distinguished null `⊥` (spelled `null` in the syntax).
    Null,
}

impl Term {
    /// Construct a variable.
    pub fn var(name: impl AsRef<str>) -> Self {
        Term::Var(shared_name(name.as_ref()))
    }

    /// Construct a symbol.
    pub fn sym(name: impl AsRef<str>) -> Self {
        Term::Sym(shared_name(name.as_ref()))
    }

    /// Whether the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Whether the term is ground.
    pub fn is_ground(&self) -> bool {
        !self.is_var()
    }

    /// The variable name, if a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => f.write_str(v),
            Term::Sym(s) => f.write_str(s),
            Term::Int(i) => write!(f, "{i}"),
            Term::Null => f.write_str("null"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An m-atom `s[p(k : a -c-> v)]` (one labelled column) — Definition of
/// §5.1. The attribute name `a` is part of the syntax (the functional,
/// position-independent view the paper borrows from F-logic).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MAtom {
    /// The security level `s` of the atom (a term: symbol or variable).
    pub level: Term,
    /// The predicate name `p`.
    pub pred: Arc<str>,
    /// The key term `k`.
    pub key: Term,
    /// The attribute name `a`.
    pub attr: Arc<str>,
    /// The classification `c` of the value (a term: symbol or variable).
    pub class: Term,
    /// The value `v`.
    pub value: Term,
}

impl MAtom {
    /// Whether every component is ground.
    pub fn is_ground(&self) -> bool {
        self.level.is_ground()
            && self.key.is_ground()
            && self.class.is_ground()
            && self.value.is_ground()
    }

    /// The variables of the atom, in component order.
    pub fn variables(&self) -> Vec<&str> {
        [&self.level, &self.key, &self.class, &self.value]
            .into_iter()
            .filter_map(Term::as_var)
            .collect()
    }
}

impl fmt::Display for MAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}({} : {} -{}-> {})]",
            self.level, self.pred, self.key, self.attr, self.class, self.value
        )
    }
}

impl fmt::Debug for MAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An m-molecule `s[p(k : a1 -c1-> v1; …; an -cn-> vn)]` — syntactic sugar
/// for the conjunction of its atomic components (footnote 8 of the paper).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MMolecule {
    /// The security level of the molecule.
    pub level: Term,
    /// The predicate name.
    pub pred: Arc<str>,
    /// The key term.
    pub key: Term,
    /// The `(attribute, class, value)` fields.
    pub fields: Vec<(Arc<str>, Term, Term)>,
}

impl MMolecule {
    /// Desugar into atomic m-atoms.
    pub fn atoms(&self) -> Vec<MAtom> {
        self.fields
            .iter()
            .map(|(attr, class, value)| MAtom {
                level: self.level.clone(),
                pred: self.pred.clone(),
                key: self.key.clone(),
                attr: attr.clone(),
                class: class.clone(),
                value: value.clone(),
            })
            .collect()
    }
}

impl fmt::Display for MMolecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}({} : ", self.level, self.pred, self.key)?;
        for (i, (a, c, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{a} -{c}-> {v}")?;
        }
        write!(f, ")]")
    }
}

/// A p-atom: an ordinary Datalog atom.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PAtom {
    /// The predicate name.
    pub pred: Arc<str>,
    /// The argument terms.
    pub args: Vec<Term>,
}

impl PAtom {
    /// The variables of the atom.
    pub fn variables(&self) -> Vec<&str> {
        self.args.iter().filter_map(Term::as_var).collect()
    }
}

impl fmt::Display for PAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pred)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Debug for PAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A body or query atom: any of the five atom kinds, plus the internal
/// dominance constraint `l ⪯ h` used by the proof system.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Atom {
    /// An m-atom.
    M(MAtom),
    /// A b-atom: an m-atom believed in a mode.
    B(MAtom, Arc<str>),
    /// A p-atom.
    P(PAtom),
    /// An l-atom `level(s)`.
    L(Term),
    /// An h-atom `order(l, h)`.
    H(Term, Term),
    /// A dominance constraint `l ⪯ h` (internal; also usable in queries
    /// via the concrete syntax `l leq h`).
    Leq(Term, Term),
}

impl Atom {
    /// The variables of the atom, in component order.
    pub fn variables(&self) -> Vec<&str> {
        match self {
            Atom::M(m) => m.variables(),
            Atom::B(m, _) => m.variables(),
            Atom::P(p) => p.variables(),
            Atom::L(t) => t.as_var().into_iter().collect(),
            Atom::H(l, h) | Atom::Leq(l, h) => l.as_var().into_iter().chain(h.as_var()).collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::M(m) => write!(f, "{m}"),
            Atom::B(m, mode) => write!(f, "{m} << {mode}"),
            Atom::P(p) => write!(f, "{p}"),
            Atom::L(t) => write!(f, "level({t})"),
            Atom::H(l, h) => write!(f, "order({l}, {h})"),
            Atom::Leq(l, h) => write!(f, "{l} leq {h}"),
        }
    }
}

/// A clause head: m-, p-, l-, or h-atom (b-atoms may not appear in heads —
/// §5.1: "we do not have b-clauses").
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Head {
    /// An m-atom head (the clause is an m-clause). Molecular heads are
    /// desugared into one clause per atom by the parser.
    M(MAtom),
    /// A p-atom head.
    P(PAtom),
    /// An l-atom head.
    L(Term),
    /// An h-atom head.
    H(Term, Term),
}

impl Head {
    /// View the head as a body atom (for dependency analysis).
    pub fn as_atom(&self) -> Atom {
        match self {
            Head::M(m) => Atom::M(m.clone()),
            Head::P(p) => Atom::P(p.clone()),
            Head::L(t) => Atom::L(t.clone()),
            Head::H(l, h) => Atom::H(l.clone(), h.clone()),
        }
    }

    /// The variables of the head.
    pub fn variables(&self) -> Vec<&str> {
        self.as_atom_variables()
    }

    fn as_atom_variables(&self) -> Vec<&str> {
        match self {
            Head::M(m) => m.variables(),
            Head::P(p) => p.variables(),
            Head::L(t) => t.as_var().into_iter().collect(),
            Head::H(l, h) => l.as_var().into_iter().chain(h.as_var()).collect(),
        }
    }
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Head::M(m) => write!(f, "{m}"),
            Head::P(p) => write!(f, "{p}"),
            Head::L(t) => write!(f, "level({t})"),
            Head::H(l, h) => write!(f, "order({l}, {h})"),
        }
    }
}

/// A MultiLog clause `Head <- B1, …, Bm.`
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Clause {
    /// The head.
    pub head: Head,
    /// The body atoms.
    pub body: Vec<Atom>,
    /// Aggregate annotation for p-atom heads like
    /// `total(H, count(K)) <- …` (None for ordinary clauses): the head
    /// p-atom carries the aggregated variable as a plain term at
    /// `position`, and the other arguments form the group-by key. The
    /// fold follows the Datalog layer: it runs over *distinct witness
    /// bindings* of the body, so polyinstantiated m-atoms at different
    /// levels count separately.
    pub agg: Option<Aggregate>,
    /// Where the clause came from (ignored by equality and hashing).
    /// Clauses desugared from one molecular item share one span.
    pub span: Span,
}

impl Clause {
    /// Construct a rule.
    pub fn new(head: Head, body: Vec<Atom>) -> Self {
        Clause {
            head,
            body,
            agg: None,
            span: Span::unknown(),
        }
    }

    /// Construct a fact.
    pub fn fact(head: Head) -> Self {
        Clause::new(head, Vec::new())
    }

    /// Attach a source span (builder-style, used by the parser).
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// Mark the clause as an aggregate rule (builder-style).
    pub fn with_agg(mut self, agg: Aggregate) -> Self {
        self.agg = Some(agg);
        self
    }

    /// Whether the clause is a fact.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// Whether the clause body calls a native algorithm operator
    /// (`@name(...)` p-atom).
    pub fn uses_algo(&self) -> bool {
        self.body
            .iter()
            .any(|a| matches!(a, Atom::P(p) if p.pred.starts_with('@')))
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.head, self.agg) {
            (Head::P(p), Some(agg)) => {
                write!(f, "{}(", p.pred)?;
                for (i, a) in p.args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    if i == agg.position {
                        write!(f, "{}({a})", agg.func)?;
                    } else {
                        write!(f, "{a}")?;
                    }
                }
                write!(f, ")")?;
            }
            _ => write!(f, "{}", self.head)?,
        }
        if !self.body.is_empty() {
            write!(f, " <- ")?;
            for (i, a) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
        }
        write!(f, ".")
    }
}

/// A goal: a conjunction of atoms (the `Q` component of a database holds
/// one clause `<- B1, …, Bm` per query).
pub type Goal = Vec<Atom>;

#[cfg(test)]
mod tests {
    use super::*;

    fn matom() -> MAtom {
        MAtom {
            level: Term::sym("s"),
            pred: Arc::from("mission"),
            key: Term::sym("avenger"),
            attr: Arc::from("objective"),
            class: Term::sym("s"),
            value: Term::sym("shipping"),
        }
    }

    #[test]
    fn matom_display_matches_paper_syntax() {
        assert_eq!(
            matom().to_string(),
            "s[mission(avenger : objective -s-> shipping)]"
        );
    }

    #[test]
    fn batom_display() {
        let b = Atom::B(matom(), Arc::from("cau"));
        assert_eq!(
            b.to_string(),
            "s[mission(avenger : objective -s-> shipping)] << cau"
        );
    }

    #[test]
    fn molecule_desugars_in_order() {
        let m = MMolecule {
            level: Term::sym("s"),
            pred: Arc::from("mission"),
            key: Term::sym("avenger"),
            fields: vec![
                (
                    Arc::from("objective"),
                    Term::sym("s"),
                    Term::sym("shipping"),
                ),
                (Arc::from("destination"), Term::sym("s"), Term::sym("pluto")),
            ],
        };
        let atoms = m.atoms();
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].attr.as_ref(), "objective");
        assert_eq!(atoms[1].value, Term::sym("pluto"));
        assert!(m.to_string().contains("; destination -s-> pluto"));
    }

    #[test]
    fn variables_in_component_order() {
        let m = MAtom {
            level: Term::var("L"),
            pred: Arc::from("p"),
            key: Term::var("K"),
            attr: Arc::from("a"),
            class: Term::var("C"),
            value: Term::var("V"),
        };
        assert_eq!(m.variables(), vec!["L", "K", "C", "V"]);
        assert!(!m.is_ground());
        assert!(matom().is_ground());
    }

    #[test]
    fn clause_display() {
        let c = Clause::new(
            Head::M(matom()),
            vec![
                Atom::P(PAtom {
                    pred: Arc::from("q"),
                    args: vec![Term::sym("j")],
                }),
                Atom::Leq(Term::sym("u"), Term::var("H")),
            ],
        );
        assert_eq!(
            c.to_string(),
            "s[mission(avenger : objective -s-> shipping)] <- q(j), u leq H."
        );
    }

    #[test]
    fn zero_arity_patom() {
        let p = PAtom {
            pred: Arc::from("go"),
            args: vec![],
        };
        assert_eq!(p.to_string(), "go");
    }

    #[test]
    fn term_display() {
        assert_eq!(Term::Null.to_string(), "null");
        assert_eq!(Term::Int(5).to_string(), "5");
        assert_eq!(Term::var("X").to_string(), "X");
    }
}
