//! Reader goals answer the same whatever columns they bind. Readers
//! seek on the key column of each mode's relation (`rel`, `bel_opt`,
//! `bel_cau`), which every published generation keeps indexed, and fall
//! back to a scan for goals that leave the key unbound. After a commit
//! script that compacts `bel_opt`, a `BeliefServer` reader at every level must answer each goal
//! shape exactly as a fresh reduction of base plus committed history —
//! in the generic encoding and in the level-split one that a `<< cau`
//! rule switches on. Each shape is asked twice with different constants,
//! so the second goal runs the plan the first one prepared.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use multilog_core::ast::Head;
use multilog_core::reduce::{EdbUpdate, ReducedEngine};
use multilog_core::{parse_clause, parse_database, Answer, BeliefServer, EngineOptions};

const DEPTH: usize = 4;
/// Cells in the base database, one key each after the first few.
const BASE: usize = 60;
/// Cells committed in the insert phase; most are retracted afterwards,
/// enough for `bel_opt` (one row per cell and level above it) to compact.
const ADDED: usize = 540;
const RETRACTED: usize = 450;
/// Cells per commit.
const BATCH: usize = 30;

/// `l{level}[data(k{key} : a -l{class}-> v{value})]`.
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

    fn update(&self, assert: bool) -> EdbUpdate {
        let Head::M(m) = parse_clause(&self.atom()).unwrap().remove(0).head else {
            panic!("cells are m-facts: {self:?}");
        };
        if assert {
            EdbUpdate::Assert(m)
        } else {
            EdbUpdate::Retract(m)
        }
    }
}

/// Cell `i`: keys 0–4 are polyinstantiated (several cells each, so their
/// cautious beliefs are contested); every later cell is a key of its own.
fn cell(i: usize) -> Cell {
    let level = (i * 7 / 3) % DEPTH;
    Cell {
        key: if i < 20 { i % 5 } else { i },
        level,
        class: (i * 5) % (level + 1),
        value: i,
    }
}

/// Lattice, cells, a p-fact per key group, a Π rule reading an m-atom,
/// and — for the level-split encoding — a top-level rule over a cautious
/// belief.
fn source(cells: &BTreeSet<Cell>, split: bool) -> String {
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
    for k in 0..5 {
        src.push_str(&format!("tag(k{k}, t{}).\n", k % 2));
    }
    src.push_str("hot(K) <- l1[data(K : a -C-> V)].\n");
    if split {
        let (top, below) = (DEPTH - 1, DEPTH - 2);
        src.push_str(&format!(
            "l{top}[derived(K : b -l{top}-> V)] <- l{below}[data(K : a -C-> V)] << cau.\n"
        ));
    }
    src
}

/// Every binding shape a reader goal can take at level `h`, each asked
/// at least twice with different constants in its bound key, value,
/// class and level positions, labelled by shape. A b-atom's mode is part
/// of its shape.
fn goals(h: usize) -> Vec<(String, String)> {
    let above = (h + 1) % DEPTH;
    let mut out = Vec::new();
    for mode in ["fir", "opt", "cau"] {
        for key in [0, 3, BASE + 1, BASE + ADDED - 1] {
            // Key bound, at the reader's level and at another.
            out.push((
                format!("bel key {mode}"),
                format!("l{h}[data(k{key} : a -C-> V)] << {mode}"),
            ));
            out.push((
                format!("bel key {mode}"),
                format!("l{above}[data(k{key} : a -C-> V)] << {mode}"),
            ));
        }
        // Only the value bound; only the class bound; nothing bound.
        for value in [7, BASE + ADDED - 3] {
            out.push((
                format!("bel value {mode}"),
                format!("L[data(K : a -C-> v{value})] << {mode}"),
            ));
        }
        for class in [0, h] {
            out.push((
                format!("bel class {mode}"),
                format!("L[data(K : a -l{class}-> V)] << {mode}"),
            ));
        }
        out.push((
            format!("bel {mode}"),
            format!("L[data(K : a -C-> V)] << {mode}"),
        ));
    }
    // m-atom goals: key bound, and unbound.
    for key in [0, 2, BASE + 3, BASE + ADDED - 2] {
        out.push((
            "rel key".to_owned(),
            format!("l{h}[data(k{key} : a -C-> V)]"),
        ));
        out.push((
            "rel key".to_owned(),
            format!("l{above}[data(k{key} : a -C-> V)]"),
        ));
    }
    out.push(("rel".to_owned(), "L[data(K : a -C-> V)]".to_owned()));
    out.push((
        "rel".to_owned(),
        "L[data(Key : a -Class-> Value)]".to_owned(),
    ));
    // p-atom goals: a p-fact with its first argument bound, a Π rule head.
    out.push(("tag".to_owned(), "tag(k1, T)".to_owned()));
    out.push(("tag".to_owned(), "tag(k4, T)".to_owned()));
    out.push(("hot".to_owned(), "hot(K)".to_owned()));
    out.push(("hot".to_owned(), "hot(Key)".to_owned()));
    for mode in ["cau", "opt"] {
        out.push((
            format!("bel level {mode}"),
            format!("l{}[derived(K : b -C-> V)] << {mode}", DEPTH - 1),
        ));
    }
    out
}

fn norm(answers: &[Answer]) -> Vec<String> {
    let mut out: Vec<String> = answers.iter().map(|a| format!("{a:?}")).collect();
    out.sort();
    out
}

fn opt_len(reader: &multilog_core::ReaderSession) -> usize {
    let db = reader.snapshot().database();
    db.relation("bel_opt").map_or(0, |r| r.len())
}

fn every_goal_shape_matches_a_fresh_reduction_after_compacting_bel_opt(split: bool) {
    let mut present: BTreeSet<Cell> = (0..BASE).map(cell).collect();
    let server = BeliefServer::new(
        parse_database(&source(&present, split)).unwrap(),
        EngineOptions::default(),
    );
    let mut readers: Vec<_> = (0..DEPTH)
        .map(|h| server.open_reader(&format!("l{h}")).unwrap())
        .collect();
    let mut writer = server.open_writer().unwrap();

    // Insert single-cell keys (none beats another, so `bel_opt` only
    // grows), then retract most of them again. The engine maintains the
    // retractions by DRed — no stratum is recomputed — so `bel_opt` piles
    // up tombstones until it compacts.
    let added: Vec<Cell> = (BASE..BASE + ADDED).map(cell).collect();
    let mut script: Vec<(&[Cell], bool)> = added.chunks(BATCH).map(|b| (b, true)).collect();
    script.extend(added[..RETRACTED].chunks(BATCH).map(|b| (b, false)));
    let mut peak = [0; DEPTH];
    for (batch, assert) in script {
        let updates: Vec<EdbUpdate> = batch.iter().map(|c| c.update(assert)).collect();
        let summary = writer.commit(&updates).unwrap();
        for (level, stats) in &summary.levels {
            assert_eq!(stats.strata_recomputed, 0, "level {level}: {stats:?}");
        }
        for cell in batch {
            if assert {
                present.insert(*cell);
            } else {
                present.remove(cell);
            }
        }
        for (h, reader) in readers.iter_mut().enumerate() {
            reader.refresh();
            peak[h] = peak[h].max(opt_len(reader));
        }
    }

    let db = parse_database(&source(&present, split)).unwrap();
    for (h, reader) in readers.iter().enumerate() {
        // `bel_opt` never held tombstones before the retractions, so
        // losing at least 1 024 rows and half its peak compacted it.
        let gone = peak[h] - opt_len(reader);
        assert!(
            gone >= 1024 && 2 * gone >= peak[h],
            "l{h}: bel_opt went {} -> {}, too few retractions to compact",
            peak[h],
            opt_len(reader)
        );
        // The fresh engine prepares its own plans; asking it the goals
        // in reverse order compiles each shape from the other goal.
        let fresh = ReducedEngine::new(&db, &format!("l{h}")).unwrap();
        let goals = goals(h);
        let want: Vec<_> = goals
            .iter()
            .rev()
            .map(|(_, goal)| norm(&fresh.solve_text(goal).unwrap()))
            .collect();
        for ((_, goal), want) in goals.iter().zip(want.iter().rev()) {
            assert_eq!(
                &norm(&reader.query_text(goal).unwrap()),
                want,
                "`{goal}` at l{h} (split {split})"
            );
        }
        // One plan per shape, every other goal answered by it.
        let shapes: BTreeSet<&str> = goals.iter().map(|(shape, _)| shape.as_str()).collect();
        let stats = reader.prepared_stats();
        assert_eq!(stats.compiled, shapes.len() as u64, "l{h}: {stats:?}");
        assert_eq!(
            stats.hits,
            (goals.len() - shapes.len()) as u64,
            "l{h}: {stats:?}"
        );
    }
}

#[test]
fn generic_encoding_readers_match_a_fresh_reduction() {
    every_goal_shape_matches_a_fresh_reduction_after_compacting_bel_opt(false);
}

#[test]
fn level_split_readers_match_a_fresh_reduction() {
    every_goal_shape_matches_a_fresh_reduction_after_compacting_bel_opt(true);
}
