//! User-defined belief modes (§7, rule USER-BELIEF of Figure 13).
//!
//! A user tailors belief by defining rules for the distinguished
//! predicate `bel/7` with the argument convention
//! `bel(Pred, Key, Attr, Value, Class, Level, mode)`. A b-atom
//! `l[p(k : a -c-> v)] << mode` in a user mode is then proved by copying a
//! `bel` derivation — exactly the USER-BELIEF proof rule. The paper notes
//! this is *robust*: provability of m-atoms is untouched, so user modes
//! cannot breach the Bell–LaPadula protocol.
//!
//! This module provides helpers for building such rules, documents the
//! convention, and holds the [`ModeSet`] a database collects from its
//! `bel/7` heads: admission checks rules against it, and both engines
//! check goals.

use std::sync::Arc;

use crate::ast::{Atom, Clause, Head, PAtom, Term};
use crate::{MultiLogError, Result};

/// The distinguished predicate name.
pub const BEL: &str = "bel";

/// The belief modes a database knows: the built-in `fir`, `opt` and
/// `cau` (Figure 13), then every mode a `bel/7` head in Π defines.
/// Built once by [`crate::MultiLogDb::new`] and shared by both engines,
/// so a goal in an unknown mode is refused the same way everywhere.
#[derive(Clone, Debug)]
pub struct ModeSet(Arc<[Arc<str>]>);

impl ModeSet {
    /// The built-in modes plus those the `bel/7` heads of `pi` define.
    pub(crate) fn of<'c>(pi: impl IntoIterator<Item = &'c Clause>) -> Self {
        let mut modes: Vec<Arc<str>> = ["fir", "opt", "cau"].map(Arc::from).to_vec();
        for c in pi {
            let Head::P(p) = &c.head else { continue };
            if p.pred.as_ref() == BEL && p.args.len() == 7 {
                if let Term::Sym(mode) = &p.args[6] {
                    if !modes.contains(mode) {
                        modes.push(mode.clone());
                    }
                }
            }
        }
        ModeSet(modes.into())
    }

    /// Whether `mode` is built-in or user-defined.
    pub fn contains(&self, mode: &str) -> bool {
        self.0.iter().any(|m| m.as_ref() == mode)
    }

    /// `Ok` when every b-atom of `goal` uses a known mode and no p-atom
    /// names a relation the reduction derives ([`reserved_relation`]).
    ///
    /// # Errors
    ///
    /// [`MultiLogError::UnknownMode`] naming the first unknown mode;
    /// [`MultiLogError::NotAdmissible`] naming the first reserved
    /// relation.
    pub(crate) fn check_goal(&self, goal: &[Atom]) -> Result<()> {
        for a in goal {
            match a {
                Atom::B(_, mode) if !self.contains(mode) => {
                    return Err(MultiLogError::UnknownMode(mode.to_string()));
                }
                Atom::P(p) => {
                    if let Some(relation) = reserved_relation(p) {
                        return Err(reserved_error(relation));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The relations the reduction derives besides `bel/7`, by name, with
/// `bel_mode`, its demand programs' entry into them. A relation named
/// after one (`rel_u`, `bel_cau_c`, `clearance_p`) is one of its
/// per-level or per-clearance relations.
const DERIVED: [&str; 6] = [
    "rel",
    "bel_opt",
    "bel_cau",
    "beaten",
    "bel_mode",
    "clearance",
];

/// The relation the reduction derives that `p` reads or defines — its
/// predicate, or an `@algo(input, …)` call's input — if any. A p-atom
/// over one would read τ's facts past the no-read-up guards, or add
/// facts the operational engine never sees; admission (ML0115) and every
/// engine's goals refuse it. `bel/7` stays the user-mode relation, and
/// `level`, `order` and `dominate` the lattice's.
pub(crate) fn reserved_relation(p: &PAtom) -> Option<&str> {
    let name = match (p.pred.strip_prefix('@'), p.args.first()) {
        (Some(_), Some(Term::Sym(input))) => input,
        _ => &p.pred,
    };
    let named_after = |base: &&str| {
        name.strip_prefix(*base)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
    };
    DERIVED.iter().any(named_after).then_some(name)
}

/// The refusal of a p-atom over `relation`, a relation the reduction
/// derives.
pub(crate) fn reserved_error(relation: &str) -> MultiLogError {
    MultiLogError::NotAdmissible {
        detail: format!(
            "`{relation}` names a relation the reduction derives; a p-atom may not read or define it"
        ),
    }
}

/// Build a `bel/7` head for a user-defined mode rule.
///
/// `bel(pred, Key, attr, Value, Class, Level, mode)` — pass variables for
/// the positions the rule body constrains.
pub fn bel_head(
    pred: &str,
    key: Term,
    attr: &str,
    value: Term,
    class: Term,
    level: Term,
    mode: &str,
) -> Head {
    Head::P(PAtom {
        pred: Arc::from(BEL),
        args: vec![
            Term::sym(pred),
            key,
            Term::sym(attr),
            value,
            class,
            level,
            Term::sym(mode),
        ],
    })
}

/// A ready-made user mode: *paranoid* — believe only values classified at
/// exactly the believer's level **and** asserted at that level. (Stricter
/// than `fir`, which accepts any visible classification.)
///
/// Generates one rule:
/// `bel(p, K, a, V, L, L, paranoid) <- L[p(K : a -L-> V)].`
pub fn paranoid_mode(pred: &str, attr: &str) -> Clause {
    let body_atom = crate::ast::MAtom {
        level: Term::var("L"),
        pred: Arc::from(pred),
        key: Term::var("K"),
        attr: Arc::from(attr),
        class: Term::var("L"),
        value: Term::var("V"),
    };
    Clause::new(
        bel_head(
            pred,
            Term::var("K"),
            attr,
            Term::var("V"),
            Term::var("L"),
            Term::var("L"),
            "paranoid",
        ),
        vec![Atom::M(body_atom)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_database;
    use crate::MultiLogEngine;

    #[test]
    fn bel_head_shape() {
        let h = bel_head(
            "mission",
            Term::var("K"),
            "objective",
            Term::var("V"),
            Term::var("C"),
            Term::var("L"),
            "myway",
        );
        match h {
            Head::P(p) => {
                assert_eq!(p.pred.as_ref(), BEL);
                assert_eq!(p.args.len(), 7);
                assert_eq!(p.args[6], Term::sym("myway"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paranoid_mode_end_to_end() {
        // Inject the paranoid rule programmatically.
        let rule = paranoid_mode("p", "a");
        let rendered = rule.to_string();
        let db = parse_database(&format!(
            r#"
            level(u). level(s). order(u, s).
            u[p(k : a -u-> v)].
            s[p(k : a -u-> w)].
            {rendered}
            "#
        ))
        .unwrap();
        let e = MultiLogEngine::new(&db, "s").unwrap();
        // paranoid at u: the u fact (classified u, asserted at u).
        assert_eq!(
            e.solve_text("u[p(k : a -u-> V)] << paranoid")
                .unwrap()
                .len(),
            1
        );
        // paranoid at s: the s fact is classified u ≠ s → not believed.
        assert!(e
            .solve_text("s[p(k : a -C-> V)] << paranoid")
            .unwrap()
            .is_empty());
        // fir at s would believe it (any visible classification).
        assert_eq!(e.solve_text("s[p(k : a -C-> V)] << fir").unwrap().len(), 1);
    }

    #[test]
    fn user_mode_cannot_leak_invisible_data() {
        // §7: user modes are robust — m-atom provability is unchanged, so
        // even a `bel` rule claiming belief in a high fact cannot make the
        // fact itself visible below.
        let db = parse_database(
            r#"
            level(u). level(s). order(u, s).
            s[p(k : a -s-> secret)].
            bel(p, k, a, secret, s, u, leaky) <- level(u).
            "#,
        )
        .unwrap();
        let e = MultiLogEngine::new(&db, "u").unwrap();
        // The b-atom "succeeds" as a belief assertion only if its guard
        // c ⪯ u holds; here the class is s, so nothing is provable at u.
        assert!(e.solve_text("u[p(k : a -s-> secret)]").unwrap().is_empty());
        assert!(e
            .solve_text("u[p(k : a -s-> secret)] << leaky")
            .unwrap()
            .is_empty());
    }
}
