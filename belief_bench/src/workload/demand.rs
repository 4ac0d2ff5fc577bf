//! `point_demand`: the `query --engine red` path. One deferred
//! (never materialized) reduced engine per clearance with flow pruning
//! on; the client sends seeded point goals through
//! `solve_demand_with_stats`, so the magic rewrite and the demand cone do
//! all the work.

use multilog_core::ast::Goal;
use multilog_core::reduce::ReducedEngine;
use multilog_core::{parse_database, parse_goal, Answer, EngineOptions};

use super::{clause_count, preflight, rss_now, Ctx, Measured, Options, Scale};
use crate::gen::{belief_db, level_names, BeliefSpec, Rng};

fn spec(scale: Scale) -> BeliefSpec {
    match scale {
        Scale::Full => BeliefSpec {
            depth: 4,
            cells: 4000,
            cells_per_key: 4,
            rules: 40,
        },
        Scale::Tiny => BeliefSpec {
            depth: 3,
            cells: 60,
            cells_per_key: 4,
            rules: 4,
        },
    }
}

pub(crate) fn run(ctx: &mut Ctx, opts: &Options) -> Result<Measured, String> {
    let spec = spec(opts.scale);
    let belief = belief_db(spec, opts.seed);
    let levels = level_names(spec.depth);
    let (mut engines, setup_s) = ctx.setup(|ctx| {
        let db = ctx
            .span("parser.db", || parse_database(&belief.source))
            .map_err(|e| format!("parse: {e}"))?;
        preflight(ctx, &belief.source, &db)?;
        let options = EngineOptions {
            flow_prune: true,
            ..EngineOptions::default()
        };
        levels
            .iter()
            .map(|level| {
                ctx.span("reduce.tau", || {
                    ReducedEngine::with_options_deferred(&db, level, options.clone())
                })
                .map_err(|e| format!("reduce at {level}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;

    let mut rng = Rng::new(opts.seed.wrapping_mul(31).wrapping_add(11));
    let keys = belief.keys();
    let mut answered: Vec<(usize, Goal, Vec<Answer>)> = Vec::new();
    let warm = (opts.seconds.min(10.0) / 10.0, 1);
    let mut goals = 0usize;
    let times = ctx.closed_loop(warm, opts.seconds, 1, "goal", |ctx| {
        // Levels and modes in a fixed round robin, so every second of the
        // run sees the same mix; only the key is random.
        let combo = goals % (spec.depth * 3);
        goals += 1;
        let level = combo / 3;
        let mode = ["opt", "cau", "fir"][combo % 3];
        let key = rng.below(keys);
        let text = format!("l{level}[data(k{key} : a -C-> V)] << {mode}");
        ctx.op("op.goal", |ctx| {
            let Ok(goal) = ctx.span("parser.goal", || parse_goal(&text)) else {
                return ("goal", false);
            };
            let engine = &engines[level];
            match ctx.span("magic.demand", || engine.solve_demand_with_stats(&goal)) {
                Ok((answers, stats)) => {
                    if let Some(d) = stats.demand {
                        ctx.probe.demand.push((level, d));
                    }
                    answered.push((level, goal, answers));
                    ("goal", true)
                }
                Err(_) => ("goal", false),
            }
        })
    });
    let peak_rss_mb = rss_now();

    // Oracle: every demand answer equals `solve` on the materialized
    // fixpoint at the same clearance.
    ctx.op("op.oracle", |ctx| {
        for (h, engine) in engines.iter_mut().enumerate() {
            if let Err(e) = ctx.span("eval.materialize", || engine.rematerialize()) {
                return ctx.mismatch(format!("materialize at {}: {e}", levels[h]));
            }
            ctx.probe
                .full_facts
                .insert(h, engine.database().fact_count());
        }
        let top = engines.len() - 1;
        ctx.probe.eval = Some(engines[top].stats().clone());
        ctx.probe.clauses = clause_count(engines[top].program_text());
        for (level, goal, answers) in &answered {
            let engine = &engines[*level];
            match ctx.span("query.solve", || engine.solve(goal)) {
                Ok(want) if &want == answers => {}
                other => ctx.mismatch(format!(
                    "demand answers at {} differ from the fixpoint's: {answers:?} vs {other:?}",
                    levels[*level]
                )),
            }
        }
    });
    Ok(Measured {
        setup_s,
        times,
        peak_rss_mb,
    })
}
