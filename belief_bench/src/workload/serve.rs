//! `serve_read` and `serve_write`: a `BeliefServer` with a reader open at
//! every level, driven by one client alternating reads and commits.
//!
//! A read is `refresh` + `parse_goal` + `ReaderSession::query`. A commit
//! is `parse_clause` + `WriterSession::commit` of one cell, which the
//! server applies to every level engine before publishing.

use std::collections::BTreeSet;

use multilog_core::ast::Head;
use multilog_core::reduce::{EdbUpdate, ReducedEngine};
use multilog_core::{
    parse_clause, parse_database, parse_goal, Answer, BeliefServer, EngineOptions, MultiLogError,
    ReaderSession, WriterSession,
};

use super::{clause_count, preflight, rss_now, Ctx, Measured, Options, Scale};
use crate::gen::{belief_db, level_names, BeliefDb, BeliefSpec, Cell, Rng};

/// serve_read: reads between two commits.
const READS_PER_COMMIT: usize = 500;

/// Probe goals per level whose demand answers the oracle also checks.
const DEMAND_CHECKS: usize = 4;

fn spec(write_heavy: bool, scale: Scale) -> BeliefSpec {
    match (write_heavy, scale) {
        (false, Scale::Full) => BeliefSpec {
            depth: 4,
            cells: 4000,
            cells_per_key: 4,
            rules: 40,
        },
        (true, Scale::Full) => BeliefSpec {
            depth: 8,
            cells: 1000,
            cells_per_key: 4,
            rules: 40,
        },
        (_, Scale::Tiny) => BeliefSpec {
            depth: 3,
            cells: 60,
            cells_per_key: 4,
            rules: 4,
        },
    }
}

/// The client's model of the committed base cells.
struct Model {
    present: BTreeSet<Cell>,
    next_value: usize,
    touched: Vec<usize>,
}

impl Model {
    /// A cell of an entity never seen before, at a random level below the
    /// top: a single-cell key is never beaten, so committing it takes the
    /// cheap positive-delta path of every level engine.
    fn new_entity(&mut self, rng: &mut Rng, keys: usize, depth: usize) -> Cell {
        let level = rng.below(depth - 1);
        let cell = Cell {
            key: keys + self.next_value,
            level,
            class: rng.below(level + 1),
            value: self.next_value,
        };
        self.next_value += 1;
        cell
    }
}

pub(crate) fn run(ctx: &mut Ctx, opts: &Options, write_heavy: bool) -> Result<Measured, String> {
    let spec = spec(write_heavy, opts.scale);
    let belief = belief_db(spec, opts.seed);
    let levels = level_names(spec.depth);
    let ((server, mut readers), setup_s) = ctx.setup(|ctx| setup(ctx, &belief.source, &levels))?;
    let mut model = Model {
        present: belief.cells.iter().copied().collect(),
        next_value: belief.cells.len(),
        touched: Vec::new(),
    };
    let mut writer = server
        .open_writer()
        .map_err(|e| format!("open writer: {e}"))?;
    let mut rng = Rng::new(opts.seed.wrapping_mul(31).wrapping_add(7));
    let warm = (opts.seconds.min(10.0) / 10.0, 1);
    let times = if write_heavy {
        write_loop(
            ctx,
            opts,
            &belief,
            &mut model,
            &mut writer,
            &mut readers,
            &mut rng,
            warm,
        )
    } else {
        read_loop(
            ctx,
            opts,
            &belief,
            &mut model,
            &mut writer,
            &mut readers,
            &mut rng,
            warm,
        )
    };
    let peak_rss_mb = rss_now();
    ctx.op("op.oracle", |ctx| {
        oracle(ctx, &belief, &model, &mut readers, &levels);
    });
    Ok(Measured {
        setup_s,
        times,
        peak_rss_mb,
    })
}

/// Source text to a server with every level's reader open.
fn setup(
    ctx: &mut Ctx,
    src: &str,
    levels: &[String],
) -> Result<(BeliefServer, Vec<ReaderSession>), String> {
    let db = ctx
        .span("parser.db", || parse_database(src))
        .map_err(|e| format!("parse: {e}"))?;
    preflight(ctx, src, &db)?;
    let server = BeliefServer::new(db, EngineOptions::default());
    let mut readers = Vec::with_capacity(levels.len());
    for level in levels {
        let reader = ctx
            .span("server.open_level", || server.open_reader(level))
            .map_err(|e| format!("open {level}: {e}"))?;
        readers.push(reader);
    }
    Ok((server, readers))
}

/// Read-mostly traffic: 70 % point `opt`, 15 % point `cau`, 10 % point
/// `fir` and 5 % unbound `fir` scans, at a random level, with one commit
/// per [`READS_PER_COMMIT`] reads that alternately asserts a new entity's
/// cell and retracts it again.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    ctx: &mut Ctx,
    opts: &Options,
    belief: &BeliefDb,
    model: &mut Model,
    writer: &mut WriterSession<'_>,
    readers: &mut [ReaderSession],
    rng: &mut Rng,
    warm: (f64, usize),
) -> super::LoopTimes {
    let depth = belief.spec.depth;
    let keys = belief.keys();
    // The mode mix is a fixed shuffled cycle of 100 reads, so every
    // second of the run sees the same mix.
    let mut mix: Vec<&str> = [("opt", 70), ("cau", 15), ("fir", 10), ("scan", 5)]
        .iter()
        .flat_map(|&(mode, n)| std::iter::repeat_n(mode, n))
        .collect();
    rng.shuffle(&mut mix);
    let mut reads = 0usize;
    let mut since_commit = 0usize;
    let mut pending: Option<Cell> = None;
    ctx.closed_loop(warm, opts.seconds, 1, "read", |ctx| {
        if since_commit == READS_PER_COMMIT {
            since_commit = 0;
            return ctx.op("op.commit", |ctx| {
                let (cell, assert) = match pending.take() {
                    Some(cell) => (cell, false),
                    None => (model.new_entity(rng, keys, depth), true),
                };
                let ok = commit(ctx, writer, model, cell, assert);
                if assert == ok {
                    pending = Some(cell);
                }
                ("commit", ok)
            });
        }
        since_commit += 1;
        let mode = mix[reads % mix.len()];
        reads += 1;
        let key = rng.below(keys);
        let (level, goal) = if mode == "scan" {
            let level = rng.below(depth - 1);
            (level, format!("l{level}[data(K : a -C-> V)] << fir"))
        } else {
            let level = rng.below(depth);
            (
                level,
                format!("l{level}[data(k{key} : a -C-> V)] << {mode}"),
            )
        };
        ctx.op("op.read", |ctx| {
            ("read", read(ctx, &mut readers[level], &goal).is_ok())
        })
    })
}

/// Commit-heavy traffic: pairs of single-cell commits. 60 % of pairs
/// assert a fresh cover story and retract it; 40 % retract an existing
/// base cell and re-assert it. Both kinds come from [`churn_targets`], so
/// every commit drives DRed deletion, rederivation and the stratum
/// fallback. Each commit is followed by one read-your-commit read at a
/// rotating level that can see the cell.
#[allow(clippy::too_many_arguments)]
fn write_loop(
    ctx: &mut Ctx,
    opts: &Options,
    belief: &BeliefDb,
    model: &mut Model,
    writer: &mut WriterSession<'_>,
    readers: &mut [ReaderSession],
    rng: &mut Rng,
    warm: (f64, usize),
) -> super::LoopTimes {
    let depth = belief.spec.depth;
    let (cover_keys, churn_cells) = churn_targets(belief);
    let mut pending: Option<(Cell, bool)> = None;
    let mut check: Option<Cell> = None;
    let mut rotation = 0usize;
    let mut pairs = 0usize;
    ctx.closed_loop(warm, opts.seconds, 1, "commit", |ctx| {
        if let Some(cell) = check.take() {
            let level = cell.level + rotation % (depth - cell.level);
            rotation += 1;
            let goal = format!("l{level}[data(k{} : a -C-> V)] << opt", cell.key);
            let expect = model.present.contains(&cell);
            return ctx.op("op.read", |ctx| {
                match read(ctx, &mut readers[level], &goal) {
                    Ok(answers) => {
                        if shows(&answers, &cell) != expect {
                            ctx.mismatch(format!(
                                "read-your-commit: `{goal}` {} {}",
                                if expect { "misses" } else { "still shows" },
                                cell.atom()
                            ));
                        }
                        ("read", true)
                    }
                    Err(_) => ("read", false),
                }
            });
        }
        ctx.op("op.commit", |ctx| {
            let (cell, assert) = match pending.take() {
                Some(next) => next,
                None => {
                    let base = churn_cells[rng.below(churn_cells.len())];
                    pairs += 1;
                    // Three fresh pairs in every five, in a fixed order.
                    if pairs % 5 < 3 || !model.present.contains(&base) {
                        let cell = Cell {
                            key: cover_keys[rng.below(cover_keys.len())],
                            level: 0,
                            class: 0,
                            value: model.next_value,
                        };
                        model.next_value += 1;
                        pending = Some((cell, false));
                        (cell, true)
                    } else {
                        pending = Some((base, true));
                        (base, false)
                    }
                }
            };
            let ok = commit(ctx, writer, model, cell, assert);
            if !ok {
                pending = None;
            }
            check = Some(cell);
            ("commit", ok)
        })
    })
}

/// Commit targets that change a cautious belief wherever they are
/// visible, so every serve_write commit takes the same (negation)
/// maintenance path and the commit mix does not depend on chance:
/// keys with no `l0`-classified cell, where a fresh `l0` cover story is
/// beaten by the key's other cells, and base cells that alone hold their
/// classification within their key below its highest one.
fn churn_targets(belief: &BeliefDb) -> (Vec<usize>, Vec<Cell>) {
    let mut by_key: Vec<Vec<Cell>> = vec![Vec::new(); belief.keys()];
    for c in &belief.cells {
        by_key[c.key].push(*c);
    }
    let mut cover_keys = Vec::new();
    let mut churn = Vec::new();
    for (key, cells) in by_key.iter().enumerate() {
        if cells.iter().all(|c| c.class > 0) {
            cover_keys.push(key);
        }
        let max = cells.iter().map(|c| c.class).max().unwrap_or(0);
        churn.extend(
            cells.iter().filter(|c| {
                c.class < max && cells.iter().filter(|o| o.class == c.class).count() == 1
            }),
        );
    }
    if cover_keys.is_empty() {
        cover_keys.push(0);
    }
    if churn.is_empty() {
        churn.push(belief.cells[0]);
    }
    (cover_keys, churn)
}

/// Whether `answers` to a `data(k : a -C-> V)` goal include `cell`.
fn shows(answers: &[Answer], cell: &Cell) -> bool {
    let (class, value) = (format!("l{}", cell.class), format!("v{}", cell.value));
    answers.iter().any(|a| {
        a.get("C").is_some_and(|c| c.to_string() == class)
            && a.get("V").is_some_and(|v| v.to_string() == value)
    })
}

fn read(
    ctx: &mut Ctx,
    reader: &mut ReaderSession,
    goal: &str,
) -> Result<Vec<Answer>, MultiLogError> {
    ctx.span("snapshot.refresh", || reader.refresh());
    let goal = ctx.span("parser.goal", || parse_goal(goal))?;
    let answers = ctx.span("query.solve", || reader.query(&goal))?;
    ctx.probe.answers += answers.len() as u64;
    ctx.probe.solves += 1;
    Ok(answers)
}

/// Commit one cell; on success the model follows.
fn commit(
    ctx: &mut Ctx,
    writer: &mut WriterSession<'_>,
    model: &mut Model,
    cell: Cell,
    assert: bool,
) -> bool {
    let text = format!("{}.", cell.atom());
    let parsed = ctx.span("parser.clause", || parse_clause(&text));
    let Some(Head::M(m)) = parsed
        .ok()
        .and_then(|cs| cs.into_iter().next())
        .map(|c| c.head)
    else {
        return false;
    };
    let update = if assert {
        EdbUpdate::Assert(m)
    } else {
        EdbUpdate::Retract(m)
    };
    let id = ctx.tracer.enter("server.commit");
    let start = std::time::Instant::now();
    let result = writer.commit(std::slice::from_ref(&update));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Ok(summary) = &result {
        let levels: Vec<u64> = summary
            .levels
            .values()
            .map(|c| (c.wall_ms * 1e6) as u64)
            .collect();
        ctx.tracer
            .reported_children("incremental.level_commit", &levels);
    }
    ctx.tracer.exit(id);
    let Ok(summary) = result else {
        return false;
    };
    ctx.probe.commits.push((wall_ms, summary));
    if assert {
        model.present.insert(cell);
    } else {
        model.present.remove(&cell);
    }
    model.touched.push(cell.key);
    true
}

/// At the final epoch every level's reader must answer a fixed probe set
/// exactly as a fresh reduction of base plus committed history does, and
/// the fresh engine's demand path must agree on the first goals.
fn oracle(
    ctx: &mut Ctx,
    belief: &BeliefDb,
    model: &Model,
    readers: &mut [ReaderSession],
    levels: &[String],
) {
    let src = belief.source_with(&model.present);
    let db = match ctx.span("parser.db", || parse_database(&src)) {
        Ok(db) => db,
        Err(e) => return ctx.mismatch(format!("oracle source does not parse: {e}")),
    };
    let goals = probe_goals(belief, model);
    let top = levels.len() - 1;
    for (h, level) in levels.iter().enumerate() {
        let engine = ctx.span("reduce.tau", || {
            ReducedEngine::with_options_deferred(&db, level, EngineOptions::default())
        });
        let mut engine = match engine {
            Ok(e) => e,
            Err(e) => return ctx.mismatch(format!("oracle reduction at {level}: {e}")),
        };
        if let Err(e) = ctx.span("eval.materialize", || engine.rematerialize()) {
            return ctx.mismatch(format!("oracle fixpoint at {level}: {e}"));
        }
        ctx.probe
            .full_facts
            .insert(h, engine.database().fact_count());
        if h == top {
            ctx.probe.eval = Some(engine.stats().clone());
            ctx.probe.clauses = clause_count(engine.program_text());
        }
        let reader = &mut readers[h];
        reader.refresh();
        for (i, text) in goals[h].iter().enumerate() {
            let goal = match ctx.span("parser.goal", || parse_goal(text)) {
                Ok(g) => g,
                Err(e) => return ctx.mismatch(format!("probe `{text}`: {e}")),
            };
            let want = ctx.span("query.solve", || engine.solve(&goal));
            let got = ctx.span("query.solve", || reader.query(&goal));
            match (&want, &got) {
                (Ok(w), Ok(g)) if w == g => {}
                _ => ctx.mismatch(format!(
                    "reader at {level} answers `{text}` with {got:?}, a fresh reduction with {want:?}"
                )),
            }
            if i < DEMAND_CHECKS {
                match ctx.span("magic.demand", || engine.solve_demand_with_stats(&goal)) {
                    Ok((answers, stats)) => {
                        if want.as_ref().ok() != Some(&answers) {
                            ctx.mismatch(format!("demand answers of `{text}` at {level} differ"));
                        }
                        if let Some(d) = stats.demand {
                            ctx.probe.demand.push((h, d));
                        }
                    }
                    Err(e) => ctx.mismatch(format!("demand `{text}` at {level}: {e}")),
                }
            }
        }
    }
}

/// Per level: point goals in every mode for the most recently committed
/// keys and a few fixed ones, an unbound scan, and the top-level rule
/// heads (visible only at the top).
fn probe_goals(belief: &BeliefDb, model: &Model) -> Vec<Vec<String>> {
    let mut keys: Vec<usize> = Vec::new();
    for &k in model.touched.iter().rev().chain(&[0, 1, 2, 3, 4, 5, 6, 7]) {
        if keys.len() == 24 {
            break;
        }
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let top = belief.spec.depth - 1;
    (0..belief.spec.depth)
        .map(|h| {
            let mut goals: Vec<String> = keys
                .iter()
                .flat_map(|k| {
                    ["opt", "cau", "fir"]
                        .map(|mode| format!("l{h}[data(k{k} : a -C-> V)] << {mode}"))
                })
                .collect();
            goals.push(format!("l{h}[data(K : a -C-> V)] << fir"));
            goals.push(format!("l{top}[derived(K : b -C-> V)] << cau"));
            goals
        })
        .collect()
}
