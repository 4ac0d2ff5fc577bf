//! Copy-on-write isolation of relation storage: random insert /
//! retract / re-insert scripts run on several lineages of one relation,
//! cloned from each other at random points and then mutated
//! independently. Every lineage must equal its own set model throughout:
//! after each single-fact op the mutated lineage's length and the
//! touched fact's membership in *every* lineage are checked, and after
//! each burst of ops the mutated lineage is compared with its model in
//! full (every lineage at each clone and at the end).
//!
//! The scripts are sized to cross the storage thresholds a clone has to
//! survive: the 256-row segment seal, the 4096-entry dedup overlay fold
//! and the 1024-tombstone compaction, each with clones taken on both
//! sides of it.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use proptest::prelude::*;

use multilog_datalog::{Const, Relation};

/// Distinct keys; a fact is `(k, v{k % 5})`.
const UNIVERSE: usize = 6000;
/// Most lineages alive at once; a clone beyond it replaces one.
const LINEAGES: usize = 4;

fn fact(k: usize) -> Vec<Const> {
    vec![
        Const::int(i64::try_from(k).expect("fits")),
        Const::sym(format!("v{}", k % 5)),
    ]
}

/// One lineage: the relation and its model.
struct Lineage {
    rel: Relation,
    model: BTreeSet<Vec<Const>>,
}

fn assert_equal(lineage: &Lineage, what: &str) {
    let stored: BTreeSet<Vec<Const>> = lineage.rel.iter().map(Vec::from).collect();
    assert_eq!(stored.len(), lineage.rel.len(), "{what}: iter/len disagree");
    assert!(
        stored == lineage.model,
        "{what}: lineage differs from its model"
    );
}

/// Apply one op to lineage `at`, then check it and the isolation of the
/// others on the touched fact.
fn step(lineages: &mut [Lineage], at: usize, insert: bool, k: usize) {
    let f = fact(k);
    let l = &mut lineages[at];
    if insert {
        assert_eq!(
            l.rel.insert(f.clone()),
            l.model.insert(f.clone()),
            "insert {k}"
        );
    } else {
        assert_eq!(l.rel.retract(&f), l.model.remove(&f), "retract {k}");
    }
    assert_eq!(l.rel.len(), l.model.len(), "len after op on {k}");
    for (i, other) in lineages.iter().enumerate() {
        assert_eq!(
            other.rel.contains(&f),
            other.model.contains(&f),
            "lineage {i} membership of {k} after an op on lineage {at}"
        );
    }
}

/// One script item: `(kind, lineage, start, len)`.
type Item = (u8, usize, usize, usize);

fn run_script(preload: usize, items: &[Item]) {
    let mut first = Lineage {
        rel: Relation::new(),
        model: BTreeSet::new(),
    };
    for k in 0..preload {
        let f = fact(k);
        first.rel.insert(f.clone());
        first.model.insert(f);
    }
    assert_equal(&first, "preload");
    let mut lineages = vec![first];
    for &(kind, pick, start, len) in items {
        let at = pick % lineages.len();
        let keys = (start..start + len).map(|k| k % UNIVERSE);
        match kind {
            // Insert a burst (re-inserting any retracted facts in it).
            0..=39 => keys.for_each(|k| step(&mut lineages, at, true, k)),
            // Retract a burst.
            40..=74 => keys.for_each(|k| step(&mut lineages, at, false, k)),
            // Interleave: retract and immediately re-insert every other key.
            75..=89 => keys.for_each(|k| {
                step(&mut lineages, at, false, k);
                if k % 2 == 0 {
                    step(&mut lineages, at, true, k);
                }
            }),
            // Clone a lineage; both sides are mutated from here on.
            _ => {
                let clone = Lineage {
                    rel: lineages[at].rel.clone(),
                    model: lineages[at].model.clone(),
                };
                if lineages.len() == LINEAGES {
                    lineages[start % LINEAGES] = clone;
                } else {
                    lineages.push(clone);
                }
                for (i, l) in lineages.iter().enumerate() {
                    assert_equal(l, &format!("lineage {i} at a clone"));
                }
                continue;
            }
        }
        assert_equal(&lineages[at], &format!("lineage {at} after a burst"));
    }
    // Every lineage retracts most of the universe — past the compaction
    // threshold whatever the script did — and re-inserts it.
    for at in 0..lineages.len() {
        let survivor = lineages[at].rel.clone();
        let survivor_model = lineages[at].model.clone();
        (0..UNIVERSE)
            .filter(|k| k % 5 != 0)
            .for_each(|k| step(&mut lineages, at, false, k));
        assert_equal(&lineages[at], "after the mass retract");
        (0..UNIVERSE).for_each(|k| step(&mut lineages, at, true, k));
        assert_equal(&lineages[at], "after the re-insert");
        let stored: BTreeSet<Vec<Const>> = survivor.iter().map(Vec::from).collect();
        assert!(
            stored == survivor_model,
            "a clone taken before the churn changed"
        );
    }
    for (i, l) in lineages.iter().enumerate() {
        assert_equal(l, &format!("lineage {i} at the end"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cloned_lineages_stay_isolated_across_storage_thresholds(
        preload in 4200usize..5200,
        items in proptest::collection::vec(
            (0u8..100, 0usize..LINEAGES, 0usize..UNIVERSE, 1usize..1500),
            4..24,
        ),
    ) {
        run_script(preload, &items);
    }
}

#[test]
fn a_clone_of_an_emptied_relation_keeps_its_facts() {
    // Retracting the last fact resets a relation; a clone taken just
    // before must not notice.
    let mut rel = Relation::new();
    for k in 0..300 {
        rel.insert(fact(k));
    }
    let snap = rel.clone();
    for k in 0..300 {
        assert!(rel.retract(&fact(k)));
    }
    assert!(rel.is_empty() && rel.arity().is_none());
    assert_eq!(snap.len(), 300);
    assert!((0..300).all(|k| snap.contains(&fact(k))));
}
