//! `cold_reduce`: the `run --engine red` batch path at top clearance on
//! the combined agency database. Setup parses and preflights the source;
//! each run reduces it (τ), evaluates the fixpoint and answers the stored
//! queries.

use std::collections::BTreeSet;

use multilog_core::reduce::ReducedEngine;
use multilog_core::{parse_database, parse_goal, Answer, EngineOptions};

use super::{clause_count, preflight, rss_now, Ctx, Measured, Options, Scale};
use crate::gen::{agency_db, AgencyDb, AgencySpec, BeliefSpec};

fn spec(scale: Scale) -> AgencySpec {
    match scale {
        Scale::Full => AgencySpec {
            belief: BeliefSpec {
                depth: 4,
                cells: 6000,
                cells_per_key: 4,
                rules: 40,
            },
            emp_cells: 2000,
            emp_keys: 400,
            staff: 2000,
        },
        Scale::Tiny => AgencySpec {
            belief: BeliefSpec {
                depth: 3,
                cells: 60,
                cells_per_key: 4,
                rules: 4,
            },
            emp_cells: 30,
            emp_keys: 10,
            staff: 20,
        },
    }
}

/// Timed runs per invocation, at least.
const MIN_RUNS: usize = 3;

pub(crate) fn run(ctx: &mut Ctx, opts: &Options) -> Result<Measured, String> {
    let agency = agency_db(spec(opts.scale), opts.seed);
    let top = format!("l{}", agency.spec.belief.depth - 1);
    let (db, setup_s) = ctx.setup(|ctx| {
        let db = ctx
            .span("parser.db", || parse_database(&agency.source))
            .map_err(|e| format!("parse: {e}"))?;
        preflight(ctx, &agency.source, &db)?;
        Ok(db)
    })?;

    let mut last: Option<(ReducedEngine, Vec<Vec<Answer>>)> = None;
    let times = ctx.closed_loop((0.0, 1), opts.seconds, MIN_RUNS, "run", |ctx| {
        ctx.op("op.run", |ctx| {
            drop(last.take());
            let engine = ctx.span("reduce.tau", || {
                ReducedEngine::with_options_deferred(&db, &top, EngineOptions::default())
            });
            let Ok(mut engine) = engine else {
                return ("run", false);
            };
            if ctx
                .span("eval.materialize", || engine.rematerialize())
                .is_err()
            {
                return ("run", false);
            }
            let mut answers = Vec::with_capacity(db.queries().len());
            for q in db.queries() {
                match ctx.span("query.solve", || engine.solve(q)) {
                    Ok(a) => {
                        ctx.probe.answers += a.len() as u64;
                        ctx.probe.solves += 1;
                        answers.push(a);
                    }
                    Err(_) => return ("run", false),
                }
            }
            last = Some((engine, answers));
            ("run", true)
        })
    });
    let peak_rss_mb = rss_now();
    let Some((engine, answers)) = last else {
        return Err("no run completed".to_owned());
    };
    ctx.probe.eval = Some(engine.stats().clone());
    ctx.probe.clauses = clause_count(engine.program_text());
    ctx.probe
        .full_facts
        .insert(agency.spec.belief.depth - 1, engine.database().fact_count());
    ctx.op("op.oracle", |ctx| oracle(ctx, &agency, &engine, &answers));
    Ok(Measured {
        setup_s,
        times,
        peak_rss_mb,
    })
}

/// One dashboard row per level counting the `emp` cells at or below it,
/// the `@bfs` chain equal to the rule-at-a-time closure, one cautious
/// belief per top-level rule, and the demand path agreeing with the
/// fixpoint on a few goals.
fn oracle(ctx: &mut Ctx, agency: &AgencyDb, engine: &ReducedEngine, answers: &[Vec<Answer>]) {
    let [total, chain, derived] = answers else {
        return ctx.mismatch(format!("expected 3 stored queries, got {}", answers.len()));
    };
    let depth = agency.spec.belief.depth;
    let rows: BTreeSet<(String, String)> =
        total.iter().map(|a| (term(a, "H"), term(a, "N"))).collect();
    let mut want = BTreeSet::new();
    let mut cumulative = 0;
    for (level, n) in agency.emp_per_level.iter().enumerate() {
        cumulative += n;
        want.insert((format!("l{level}"), cumulative.to_string()));
    }
    if total.len() != depth || rows != want {
        ctx.mismatch(format!("dashboard rows {rows:?}, expected {want:?}"));
    }

    let got: BTreeSet<(String, String)> =
        chain.iter().map(|a| (term(a, "X"), term(a, "Y"))).collect();
    match closure(&agency.boss) {
        Ok(want) if want == got => {}
        Ok(want) => ctx.mismatch(format!(
            "@bfs chain has {} pairs, the rule-at-a-time closure {}",
            got.len(),
            want.len()
        )),
        Err(e) => ctx.mismatch(format!("closure oracle: {e}")),
    }

    if derived.len() != agency.spec.belief.rules {
        ctx.mismatch(format!(
            "{} cautious rule heads believed, expected {}",
            derived.len(),
            agency.spec.belief.rules
        ));
    }

    let top = depth - 1;
    let last = agency.spec.staff - 1;
    for text in [
        "total(l0, N)".to_owned(),
        format!("chain(m{last}, Y)"),
        format!("l{top}[derived(K : b -C-> V)] << cau"),
    ] {
        let goal = match ctx.span("parser.goal", || parse_goal(&text)) {
            Ok(g) => g,
            Err(e) => return ctx.mismatch(format!("goal `{text}`: {e}")),
        };
        let want = ctx.span("query.solve", || engine.solve(&goal));
        match ctx.span("magic.demand", || engine.solve_demand_with_stats(&goal)) {
            Ok((got, stats)) => {
                if want.as_ref().ok() != Some(&got) {
                    ctx.mismatch(format!(
                        "demand answers of `{text}` differ from the fixpoint"
                    ));
                }
                if let Some(d) = stats.demand {
                    ctx.probe.demand.push((top, d));
                }
            }
            Err(e) => ctx.mismatch(format!("demand `{text}`: {e}")),
        }
    }
}

fn term(answer: &Answer, var: &str) -> String {
    answer.get(var).map(ToString::to_string).unwrap_or_default()
}

/// The transitive closure of `boss`, evaluated rule at a time by the
/// Datalog engine.
fn closure(boss: &[(usize, usize)]) -> Result<BTreeSet<(String, String)>, String> {
    let mut src = String::new();
    for (x, y) in boss {
        src.push_str(&format!("boss(m{x}, m{y}).\n"));
    }
    src.push_str("chain(X, Y) :- boss(X, Y).\nchain(X, Z) :- chain(X, Y), boss(Y, Z).\n");
    let program = multilog_datalog::parse_program(&src).map_err(|e| e.to_string())?;
    let db = multilog_datalog::Engine::new(&program)
        .and_then(|e| e.run())
        .map_err(|e| e.to_string())?;
    Ok(db
        .relation("chain")
        .map(|r| {
            r.iter()
                .map(|f| (f[0].to_string(), f[1].to_string()))
                .collect()
        })
        .unwrap_or_default())
}
