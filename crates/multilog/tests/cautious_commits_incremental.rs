//! Cautious-belief commits stay incremental. On a database shaped like
//! the `serve_write` benchmark (a chain of levels, polyinstantiated
//! `data` cells, top-level rules over cautious beliefs), commits that
//! flip a `beaten` fact must be maintained by DRed in the server's one
//! shared engine without recomputing a stratum. Every reader must still answer
//! exactly as a fresh reduction of base plus committed history — the
//! Theorem 6.1 judge `server_stress` uses.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use multilog_core::ast::Head;
use multilog_core::reduce::{EdbUpdate, ReducedEngine};
use multilog_core::{
    parse_clause, parse_database, Answer, BeliefServer, EngineOptions, SHARED_ENGINE,
};

const DEPTH: usize = 5;
const KEYS: usize = 40;
const CELLS_PER_KEY: usize = 3;

/// One classified base cell, `l{level}[data(k{key} : a -l{class}-> v{value})]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Cell {
    key: usize,
    level: usize,
    class: usize,
    value: usize,
}

impl Cell {
    fn atom(&self) -> String {
        format!(
            "l{}[data(k{} : a -l{}-> v{})].",
            self.level, self.key, self.class, self.value
        )
    }
}

/// Deterministic cells below the top level, several per key, so cells
/// of one key dominate one another in mixed combinations.
fn base_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for key in 0..KEYS {
        for i in 0..CELLS_PER_KEY {
            let level = (key + i) % (DEPTH - 1);
            cells.push(Cell {
                key,
                level,
                class: (key * 3 + i * 2) % (level + 1),
                value: cells.len(),
            });
        }
    }
    cells
}

/// Keys with no `l0`-classified cell (a fresh `l0` cover story there is
/// beaten by the key's other cells), and base cells that alone hold
/// their classification within their key, below its highest one.
fn churn_targets(cells: &[Cell]) -> (Vec<usize>, Vec<Cell>) {
    let mut cover = Vec::new();
    let mut churn = Vec::new();
    for key in 0..KEYS {
        let mine: Vec<&Cell> = cells.iter().filter(|c| c.key == key).collect();
        if mine.iter().all(|c| c.class > 0) {
            cover.push(key);
        }
        let max = mine.iter().map(|c| c.class).max().unwrap_or(0);
        churn.extend(
            mine.iter()
                .filter(|c| {
                    c.class < max && mine.iter().filter(|o| o.class == c.class).count() == 1
                })
                .map(|c| **c),
        );
    }
    (cover, churn)
}

/// The database source: lattice, the given cells, and top-level rules
/// consulting the cautious belief one level down about `rule_keys`.
fn source(cells: &BTreeSet<Cell>, rule_keys: &[usize]) -> String {
    let mut src = String::new();
    for i in 0..DEPTH {
        src.push_str(&format!("level(l{i}).\n"));
    }
    for i in 1..DEPTH {
        src.push_str(&format!("order(l{}, l{i}).\n", i - 1));
    }
    for c in cells {
        src.push_str(&c.atom());
        src.push('\n');
    }
    let (top, below) = (DEPTH - 1, DEPTH - 2);
    for (r, key) in rule_keys.iter().enumerate() {
        src.push_str(&format!(
            "l{top}[derived(k{key} : b -l{top}-> d{r})] <- \
             l{below}[data(k{key} : a -C-> V)] << cau.\n"
        ));
    }
    src
}

fn update(cell: &Cell, assert: bool) -> EdbUpdate {
    let clause = parse_clause(&cell.atom()).unwrap().remove(0);
    let Head::M(m) = clause.head else {
        panic!("cells are m-facts: {cell:?}");
    };
    if assert {
        EdbUpdate::Assert(m)
    } else {
        EdbUpdate::Retract(m)
    }
}

fn goals(level: usize) -> Vec<String> {
    let mut out: Vec<String> = ["cau", "opt", "fir"]
        .iter()
        .map(|mode| format!("l{level}[data(K : a -C-> V)] << {mode}"))
        .collect();
    out.push(format!("l{}[derived(K : b -C-> V)] << cau", DEPTH - 1));
    out
}

fn norm(answers: &[Answer]) -> Vec<String> {
    let mut out: Vec<String> = answers.iter().map(|a| format!("{a:?}")).collect();
    out.sort();
    out
}

#[test]
fn cautious_commits_recompute_no_stratum_and_match_a_fresh_reduction() {
    let cells = base_cells();
    let (cover_keys, churn_cells) = churn_targets(&cells);
    assert!(cover_keys.len() >= 3, "too few cover keys: {cover_keys:?}");
    assert!(
        churn_cells.len() >= 3,
        "too few churn cells: {churn_cells:?}"
    );
    let rule_keys: Vec<usize> = cover_keys[..3]
        .iter()
        .chain(churn_cells[..3].iter().map(|c| &c.key))
        .copied()
        .collect();
    let mut present: BTreeSet<Cell> = cells.iter().copied().collect();
    let server = BeliefServer::new(
        parse_database(&source(&present, &rule_keys)).unwrap(),
        EngineOptions::default(),
    );
    let mut readers: Vec<_> = (0..DEPTH)
        .map(|h| server.open_reader(&format!("l{h}")).unwrap())
        .collect();
    let mut writer = server.open_writer().unwrap();

    // Commit pairs: an `l0` cover story asserted then retracted, and a
    // lone-classification base cell retracted then re-asserted.
    let mut schedule: Vec<(Cell, bool)> = Vec::new();
    for (i, &key) in cover_keys[..3].iter().enumerate() {
        let cover = Cell {
            key,
            level: 0,
            class: 0,
            value: cells.len() + i,
        };
        schedule.push((cover, true));
        schedule.push((cover, false));
    }
    for &cell in &churn_cells[..3] {
        schedule.push((cell, false));
        schedule.push((cell, true));
    }

    let top = DEPTH - 1;
    // The top level's rows of the cautious `beaten` relation (its last
    // column is the belief level).
    let beaten_top = |reader: &multilog_core::ReaderSession| -> Vec<String> {
        let db = reader.snapshot().database();
        let level = multilog_datalog::Const::sym(format!("l{top}"));
        let mut facts: Vec<String> = db
            .relation("beaten")
            .map(|r| {
                r.iter()
                    .filter(|f| f.last() == Some(&level))
                    .map(|f| format!("{f:?}"))
                    .collect()
            })
            .unwrap_or_default();
        facts.sort();
        facts
    };
    for (cell, assert) in schedule {
        let before = beaten_top(&readers[top]);
        let summary = writer.commit(&[update(&cell, assert)]).unwrap();
        if assert {
            present.insert(cell);
        } else {
            present.remove(&cell);
        }
        // One shared engine commits for every level's reader.
        assert_eq!(summary.levels.len(), 1, "one engine commits");
        let stats = &summary.levels[SHARED_ENGINE];
        assert_eq!(
            stats.strata_recomputed, 0,
            "the shared engine recomputed a stratum on {cell:?} (assert {assert}): {stats:?}"
        );
        for reader in &mut readers {
            reader.refresh();
        }
        assert_ne!(
            before,
            beaten_top(&readers[top]),
            "{cell:?} (assert {assert}) left the l{top} rows of beaten unchanged"
        );

        let db = parse_database(&source(&present, &rule_keys)).unwrap();
        for (h, reader) in readers.iter().enumerate() {
            let fresh = ReducedEngine::new(&db, &format!("l{h}")).unwrap();
            for goal in goals(h) {
                assert_eq!(
                    norm(&reader.query_text(&goal).unwrap()),
                    norm(&fresh.solve_text(&goal).unwrap()),
                    "`{goal}` at l{h} after {cell:?} (assert {assert})"
                );
            }
        }
    }
}
