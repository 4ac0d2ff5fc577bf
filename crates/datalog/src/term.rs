//! Terms: constants and variables, backed by a global symbol table.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// The process-wide symbol interner.
///
/// Symbol text is leaked into `'static` storage on first interning, so a
/// [`SymId`] can hand out `&'static str` without holding any lock beyond
/// the lookup. The table only ever grows; symbols are never freed. For a
/// Datalog engine this is the right trade: the set of distinct symbols is
/// bounded by the input program and EDB, while facts — produced in bulk
/// during bottom-up evaluation — copy a `u32` instead of bumping an
/// `Arc` refcount.
struct SymbolTable {
    by_text: HashMap<&'static str, u32>,
    text: Vec<&'static str>,
}

fn table() -> &'static RwLock<SymbolTable> {
    static TABLE: OnceLock<RwLock<SymbolTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(SymbolTable {
            by_text: HashMap::new(),
            text: Vec::new(),
        })
    })
}

/// An interned symbol: a `u32` handle into the global `SymbolTable`.
///
/// Equality and hashing are O(1) on the id (interning guarantees
/// text-equality iff id-equality); ordering resolves to the symbol text
/// so sorted output is identical to ordering by the strings themselves.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymId(u32);

impl SymId {
    /// Intern `text`, returning its id (allocating on first sight).
    pub fn intern(text: &str) -> SymId {
        {
            let t = table().read().expect("symbol table poisoned");
            if let Some(&id) = t.by_text.get(text) {
                return SymId(id);
            }
        }
        let mut t = table().write().expect("symbol table poisoned");
        if let Some(&id) = t.by_text.get(text) {
            return SymId(id);
        }
        let id = u32::try_from(t.text.len()).expect("symbol table overflow");
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        t.text.push(leaked);
        t.by_text.insert(leaked, id);
        SymId(id)
    }

    /// The symbol text.
    pub fn as_str(self) -> &'static str {
        let t = table().read().expect("symbol table poisoned");
        t.text[self.0 as usize]
    }

    /// The raw table index (dense, starting at 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl AsRef<str> for SymId {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::ops::Deref for SymId {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialOrd for SymId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SymId {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for SymId {
    fn from(s: &str) -> Self {
        SymId::intern(s)
    }
}

/// A ground constant: an interned symbol or a 64-bit integer.
///
/// `Const` is a small `Copy` value (12 bytes), so facts — which are
/// produced in bulk during bottom-up evaluation — copy without touching
/// any refcount or heap allocation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Const {
    /// A symbolic constant, e.g. `mars` or `"Outer Space"`.
    Sym(SymId),
    /// An integer constant.
    Int(i64),
}

impl Const {
    /// Construct a symbolic constant.
    pub fn sym(s: impl AsRef<str>) -> Self {
        Const::Sym(SymId::intern(s.as_ref()))
    }

    /// Construct an integer constant.
    pub fn int(i: i64) -> Self {
        Const::Int(i)
    }

    /// The symbol text, if this is a symbol.
    pub fn as_sym(&self) -> Option<&str> {
        match self {
            Const::Sym(s) => Some(s.as_str()),
            Const::Int(_) => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Const::Sym(_) => None,
            Const::Int(i) => Some(*i),
        }
    }

    /// Total comparison *within* a kind; `None` across kinds.
    ///
    /// Comparison built-ins other than `=`/`!=` refuse to order a symbol
    /// against an integer rather than inventing an arbitrary order.
    pub fn try_cmp(&self, other: &Const) -> Option<Ordering> {
        match (self, other) {
            (Const::Sym(a), Const::Sym(b)) => Some(a.cmp(b)),
            (Const::Int(a), Const::Int(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

// Manual ordering to preserve the original derived order (`Sym` sorts
// before `Int`, symbols by text, integers numerically) now that symbol
// ids are not the text itself.
impl PartialOrd for Const {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Const {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Const::Sym(a), Const::Sym(b)) => a.cmp(b),
            (Const::Int(a), Const::Int(b)) => a.cmp(b),
            (Const::Sym(_), Const::Int(_)) => Ordering::Less,
            (Const::Int(_), Const::Sym(_)) => Ordering::Greater,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Sym(id) => {
                let s = id.as_str();
                // Quote when the symbol does not lex as a bare identifier
                // (the keywords `not` and `mod` lex as syntax).
                let bare = s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                    && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && !matches!(s, "not" | "mod");
                if bare {
                    f.write_str(s)
                } else {
                    write!(f, "{s:?}")
                }
            }
            Const::Int(i) => write!(f, "{i}"),
        }
    }
}

impl fmt::Debug for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<i64> for Const {
    fn from(i: i64) -> Self {
        Const::Int(i)
    }
}

impl From<&str> for Const {
    fn from(s: &str) -> Self {
        Const::sym(s)
    }
}

impl From<String> for Const {
    fn from(s: String) -> Self {
        Const::sym(s)
    }
}

/// A term: either a variable or a constant.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A logic variable, e.g. `X`. By convention variables start with an
    /// uppercase letter or `_` in the textual syntax.
    Var(Arc<str>),
    /// A ground constant.
    Const(Const),
}

impl Term {
    /// Construct a variable term.
    pub fn var(name: impl AsRef<str>) -> Self {
        Term::Var(Arc::from(name.as_ref()))
    }

    /// Construct a symbolic-constant term.
    pub fn sym(s: impl AsRef<str>) -> Self {
        Term::Const(Const::sym(s))
    }

    /// Construct an integer-constant term.
    pub fn int(i: i64) -> Self {
        Term::Const(Const::Int(i))
    }

    /// Whether this term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant, if ground.
    pub fn as_const(&self) -> Option<&Const> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => f.write_str(v),
            Term::Const(c) => fmt::Display::fmt(c, f),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Const> for Term {
    fn from(c: Const) -> Self {
        Term::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_accessors() {
        assert_eq!(Const::sym("mars").as_sym(), Some("mars"));
        assert_eq!(Const::int(42).as_int(), Some(42));
        assert_eq!(Const::sym("mars").as_int(), None);
        assert_eq!(Const::int(42).as_sym(), None);
    }

    #[test]
    fn try_cmp_within_kinds_only() {
        assert_eq!(Const::int(1).try_cmp(&Const::int(2)), Some(Ordering::Less));
        assert_eq!(
            Const::sym("a").try_cmp(&Const::sym("b")),
            Some(Ordering::Less)
        );
        assert_eq!(Const::int(1).try_cmp(&Const::sym("a")), None);
    }

    #[test]
    fn display_quotes_non_identifiers() {
        assert_eq!(Const::sym("mars").to_string(), "mars");
        assert_eq!(Const::sym("Outer Space").to_string(), "\"Outer Space\"");
        assert_eq!(Const::sym("").to_string(), "\"\"");
        assert_eq!(Const::sym("X").to_string(), "\"X\"");
        assert_eq!(Const::int(-3).to_string(), "-3");
        // Keywords quote, and every rendering parses back to the symbol.
        assert_eq!(Const::sym("not").to_string(), "\"not\"");
        assert_eq!(Const::sym("mod").to_string(), "\"mod\"");
        assert_eq!(Const::sym("modest").to_string(), "modest");
        for s in ["mars", "Outer Space", "", "X", "not", "mod", "notable"] {
            let c = Const::sym(s);
            let parsed = crate::parser::parse_query(&format!("p({c})")).unwrap();
            let atom = parsed[0].atom().unwrap();
            assert_eq!(atom.terms, vec![Term::Const(c)], "`{s}` round-trips");
        }
    }

    #[test]
    fn term_accessors() {
        let v = Term::var("X");
        assert!(v.is_var());
        assert_eq!(v.as_var(), Some("X"));
        assert_eq!(v.as_const(), None);
        let c = Term::sym("a");
        assert!(!c.is_var());
        assert_eq!(c.as_const(), Some(&Const::sym("a")));
    }

    #[test]
    fn interning_dedups_and_orders_by_text() {
        let a1 = SymId::intern("alpha");
        let a2 = SymId::intern("alpha");
        assert_eq!(a1, a2);
        assert_eq!(a1.index(), a2.index());
        // Intern out of lexical order: ordering still follows the text.
        let z = SymId::intern("zzz_order_test");
        let m = SymId::intern("mmm_order_test");
        assert!(m < z);
        assert!(SymId::intern("mmm_order_test") < SymId::intern("zzz_order_test"));
    }

    #[test]
    fn const_is_small_and_copy() {
        // The whole point of interning: facts copy in O(1) with no heap
        // or refcount traffic.
        assert!(std::mem::size_of::<Const>() <= 16);
        let a = Const::sym("copied");
        let b = a; // Copy, not move
        assert_eq!(a, b);
    }
}
