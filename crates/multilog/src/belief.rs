//! Atom-granularity belief: the β function of Definition 3.1 lifted to
//! m-facts, as encoded by the proof rules DESCEND-O/C1–C4 (Figure 9) and
//! the axioms a₄–a₉ of the inference engine (Figure 12).

use std::fmt;
use std::sync::Arc;

use multilog_lattice::{Label, SecurityLattice};

use crate::ast::Term;

/// A ground m-fact: `level[pred(key : attr -class-> value)]`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MFact {
    /// The predicate name.
    pub pred: Arc<str>,
    /// The ground key.
    pub key: Term,
    /// The attribute name.
    pub attr: Arc<str>,
    /// The value's classification.
    pub class: Label,
    /// The ground value.
    pub value: Term,
    /// The level the fact is asserted at (the m-atom's `s`).
    pub level: Label,
}

impl MFact {
    /// Render against a lattice (the concrete MultiLog syntax).
    pub fn render(&self, lat: &SecurityLattice) -> String {
        format!(
            "{}[{}({} : {} -{}-> {})]",
            lat.name(self.level),
            self.pred,
            self.key,
            self.attr,
            lat.name(self.class),
            self.value
        )
    }
}

impl fmt::Debug for MFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}({} : {} -{}-> {})]",
            self.level.index(),
            self.pred,
            self.key,
            self.attr,
            self.class.index(),
            self.value
        )
    }
}

/// The built-in belief modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// `fir` — believe own-level assertions only.
    Fir,
    /// `opt` — believe everything visible.
    Opt,
    /// `cau` — believe the visible values whose column classification is
    /// maximal.
    Cau,
}

impl Mode {
    /// Every built-in mode.
    pub const ALL: [Mode; 3] = [Mode::Fir, Mode::Opt, Mode::Cau];

    /// Parse the paper's shorthand.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "fir" => Some(Mode::Fir),
            "opt" => Some(Mode::Opt),
            "cau" => Some(Mode::Cau),
            _ => None,
        }
    }

    /// The shorthand name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Fir => "fir",
            Mode::Opt => "opt",
            Mode::Cau => "cau",
        }
    }
}

/// Whether an agent at `at` believes `(fact.value, fact.class)` for
/// `(pred, key, attr)` in the given mode, judged against the full set of
/// m-facts `facts`.
///
/// * `fir`: `fact.level == at`.
/// * `opt`: `fact.level ⪯ at`.
/// * `cau`: `fact.level ⪯ at` and no visible fact for the same
///   `(pred, key, attr)` has a column classification strictly dominating
///   `fact.class` (Def 3.1: no w with `v.class` strictly below `w.class`).
pub fn believed(
    lat: &SecurityLattice,
    facts: &[MFact],
    fact: &MFact,
    at: Label,
    mode: Mode,
) -> bool {
    match mode {
        Mode::Fir => fact.level == at,
        Mode::Opt => lat.leq(fact.level, at),
        Mode::Cau => {
            if !lat.leq(fact.level, at) {
                return false;
            }
            !facts.iter().any(|w| {
                w.pred == fact.pred
                    && w.key == fact.key
                    && w.attr == fact.attr
                    && lat.leq(w.level, at)
                    && lat.lt(fact.class, w.class)
            })
        }
    }
}

/// All beliefs at level `at` in `mode`: `(fact, at)` pairs rendered as the
/// believed m-facts. The believed fact keeps its *source* classification
/// and original level — the b-atom `at[p(k : a -c-> v)] << m` refers to
/// the value and class, while the belief level is `at`.
pub fn beliefs_at(lat: &SecurityLattice, facts: &[MFact], at: Label, mode: Mode) -> Vec<MFact> {
    facts
        .iter()
        .filter(|f| believed(lat, facts, f, at, mode))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multilog_lattice::standard;

    fn fact(pred: &str, key: &str, attr: &str, class: Label, value: &str, level: Label) -> MFact {
        MFact {
            pred: Arc::from(pred),
            key: Term::sym(key),
            attr: Arc::from(attr),
            class,
            value: Term::sym(value),
            level,
        }
    }

    fn setup() -> (SecurityLattice, Vec<MFact>) {
        let lat = standard::mission_levels();
        let u = lat.label("U").unwrap();
        let c = lat.label("C").unwrap();
        let s = lat.label("S").unwrap();
        // Mirrors D1's p(k): value v classified u at level u, value t
        // classified c at level c.
        let facts = vec![
            fact("p", "k", "a", u, "v", u),
            fact("p", "k", "a", c, "t", c),
            fact("q", "k2", "b", s, "w", s),
        ];
        (lat, facts)
    }

    #[test]
    fn firm_is_own_level() {
        let (lat, facts) = setup();
        let u = lat.label("U").unwrap();
        let c = lat.label("C").unwrap();
        assert!(believed(&lat, &facts, &facts[0], u, Mode::Fir));
        assert!(!believed(&lat, &facts, &facts[0], c, Mode::Fir));
        assert!(believed(&lat, &facts, &facts[1], c, Mode::Fir));
    }

    #[test]
    fn optimistic_accumulates_upward() {
        let (lat, facts) = setup();
        let c = lat.label("C").unwrap();
        let s = lat.label("S").unwrap();
        assert!(believed(&lat, &facts, &facts[0], c, Mode::Opt));
        assert!(believed(&lat, &facts, &facts[0], s, Mode::Opt));
        assert!(!believed(&lat, &facts, &facts[2], c, Mode::Opt));
    }

    #[test]
    fn cautious_prefers_higher_classification() {
        let (lat, facts) = setup();
        let c = lat.label("C").unwrap();
        // At c: the c-classified `t` overrides the u-classified `v`.
        assert!(!believed(&lat, &facts, &facts[0], c, Mode::Cau));
        assert!(believed(&lat, &facts, &facts[1], c, Mode::Cau));
        // At u: only the u fact is visible — believed.
        let u = lat.label("U").unwrap();
        assert!(believed(&lat, &facts, &facts[0], u, Mode::Cau));
    }

    #[test]
    fn cautious_with_incomparable_classes_believes_both() {
        let lat = standard::diamond("bot", "l", "r", "top");
        let (bot, l, r, top) = (
            lat.label("bot").unwrap(),
            lat.label("l").unwrap(),
            lat.label("r").unwrap(),
            lat.label("top").unwrap(),
        );
        let facts = vec![
            fact("p", "k", "a", l, "x", l),
            fact("p", "k", "a", r, "y", r),
            fact("p", "k", "a", bot, "z", bot),
        ];
        assert!(believed(&lat, &facts, &facts[0], top, Mode::Cau));
        assert!(believed(&lat, &facts, &facts[1], top, Mode::Cau));
        assert!(!believed(&lat, &facts, &facts[2], top, Mode::Cau));
        assert_eq!(beliefs_at(&lat, &facts, top, Mode::Cau).len(), 2);
    }

    #[test]
    fn beliefs_at_counts() {
        let (lat, facts) = setup();
        let s = lat.label("S").unwrap();
        assert_eq!(beliefs_at(&lat, &facts, s, Mode::Opt).len(), 3);
        assert_eq!(beliefs_at(&lat, &facts, s, Mode::Fir).len(), 1);
        // cau at S: for p(k,a) the c-classified t wins; q fact maximal.
        assert_eq!(beliefs_at(&lat, &facts, s, Mode::Cau).len(), 2);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(Mode::parse("cau"), Some(Mode::Cau));
        assert_eq!(Mode::parse("nope"), None);
        assert_eq!(Mode::Opt.name(), "opt");
    }

    #[test]
    fn render_matches_syntax() {
        let (lat, facts) = setup();
        assert_eq!(facts[0].render(&lat), "U[p(k : a -U-> v)]");
    }
}
