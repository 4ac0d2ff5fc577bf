//! Fixed-workload performance smoke benchmark.
//!
//! Runs a fixed set of deterministic workloads and writes a small JSON
//! report:
//!
//! * `tc_chain` — transitive closure over a 256-edge chain (quadratic
//!   number of derived paths, deep fixpoint).
//! * `tc_grid` — transitive closure over a 16x16 grid (fan-out joins).
//! * `reduction` — the Figure-12 reduction of a synthetic MultiLog
//!   database (depth 4, 1500 m-facts, cautious-belief rules), i.e. the
//!   end-to-end path through `ReducedEngine::new`. The top-level
//!   `reduction_rule_applications` field counts its fixpoint's rule
//!   applications (`EvalStats::rule_applications`): deterministic, and
//!   one per rule for every non-recursive component of a stratum.
//! * `update_churn_{incremental,recompute}` — a 20-commit stream of
//!   single-edge retract/re-insert deltas over `tc_chain`, maintained
//!   incrementally (DRed) vs. recomputed from scratch per commit; the
//!   top-level `update_churn_speedup` field is their wall-time ratio, and
//!   `update_churn_first_commit_ms` the incremental side's first commit,
//!   which also compiles the DRed rule variants (part of its wall time).
//! * `demand_{plain,pruned}` — one low-clearance point belief goal,
//!   repeated, answered demand-driven by a deferred engine without and
//!   with flow pruning (`demand_pruned_speedup`, `demand_pruned_rules`).
//!   `demand_plans_compiled` sums the magic plans the two engines
//!   (`demand_engines`) compiled: a demand goal is prepared once per goal
//!   shape, so it is one per engine.
//! * `concurrent_churn` — a [`BeliefServer`] under writer churn: reader
//!   threads at distinct clearance levels loop refresh + goal against
//!   their pinned snapshots while the writer commits retract/re-insert
//!   deltas, half of them cover-story flips that change `beaten_h` facts
//!   (the top level's cautious answer for the flipped key is asserted to
//!   change with each). Reported as a top-level object with reader
//!   p50/p90/p99/p99.9 query latency (µs), writer commit throughput, and
//!   tail attribution:
//!   `max_spans_publish` / `tail_publish_overlap_pct` say whether the
//!   worst-case and top-1% reader latencies coincide with a writer
//!   commit publish — the snapshot-isolation claim is that reader
//!   latency stays flat because readers never block on commits.
//!   `strata_recomputed` sums the strata the server recomputed from
//!   scratch over all commits; DRed maintains cautious-belief (negation)
//!   strata by delta, so it is 0. `commit_engines_max` is the most
//!   engine entries in any one commit's summary: the server runs one
//!   shared engine for every open clearance, so it is 1.
//!   `detached_cells_max` is the most cells, dedup entries and
//!   tombstone words any one commit copied to detach relations still shared
//!   with the published generation: deterministic, and bounded by the
//!   short segment tails rather than by relation size.
//!   `join_probes_max` is the most join probes any one commit's rule
//!   plans made: deterministic, and bounded by the rows that share a
//!   delta fact's full join key once joins drive from their most
//!   selective bound column, rather than by the `data` relation's size.
//!   `reader_plans_compiled` sums the query plans the reader threads'
//!   sessions compiled: a session prepares one plan per goal shape and
//!   each reader repeats one goal, so it is at most `readers`;
//!   `reader_plan_hits` counts the goals a cached plan answered.
//!   `fixpoint_facts` is the server's fact count after its last commit:
//!   deterministic, and the size of the one fixpoint every reader reads.
//! * `social_reach_{operator,rules}` — full reachability over a
//!   power-law social graph, computed by the native `@bfs` operator vs.
//!   the equivalent rule-at-a-time transitive closure (identical `reach`
//!   relations, asserted); `social_reach_speedup` is their wall ratio.
//! * `level_dashboard` — per-clearance `count` aggregates over a
//!   polyinstantiated `emp` database, reduced and answered end-to-end
//!   (`total(H, N)`, one row per level, demand path asserted to agree).
//! * `dashboard_churn` — 20 single-cell `emp` assert/retract commits
//!   through `ReducedEngine::apply_updates` on the `level_dashboard`
//!   database at the top level (the top row is asserted to move with
//!   each commit). Reported as a top-level object with `commit_p50_ms`
//!   and `strata_recomputed_max`, the most strata any one commit
//!   recomputed from scratch: an aggregate stratum is recomputed only
//!   when one of its inputs changed, so only the `bel`/`total` stratum
//!   may recompute and the figure is at most 1.
//! * `late_open_ms` — opening the lowest clearance on a [`BeliefServer`]
//!   over the dashboard database that already serves the top level: its
//!   `total` aggregate depends on the clearance, so the open commits the
//!   new clearance's slice. Best of `--repeat` servers; ungated.
//! * `tc_chain_xl` — transitive closure over a 3150-edge chain (~5M
//!   derived paths); runs once, last, so the process peak RSS reported
//!   as `tc_chain_xl_peak_rss_mb` (VmHWM) is attributable to it.
//!
//! Usage:
//!
//! ```text
//! perf_smoke [--out FILE] [--baseline FILE] [--repeat N]
//! ```
//!
//! With `--baseline`, per-workload `baseline_wall_ms` and `speedup`
//! (the baseline's wall time over this run's) fields are merged in from
//! a previous report, so one binary produces a self-contained
//! before/after comparison. The ratio is of wall times, not of facts per
//! second: a change that derives fewer facts for the same answers is not
//! a slowdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use multilog_bench::workload::{
    synthetic_dashboard, synthetic_multilog, DashboardSpec, MultiLogSpec,
};
use multilog_core::ast::{Head, Term};
use multilog_core::reduce::EdbUpdate;
use multilog_core::{
    parse_clause, parse_database, reduce::ReducedEngine, BeliefServer, EngineOptions,
};
use multilog_datalog::{parse_program, Const, Engine, IncrementalEngine};

struct WorkloadResult {
    name: &'static str,
    facts: usize,
    iterations: usize,
    wall_ms: f64,
    facts_per_sec: f64,
}

fn tc_chain_src(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
    }
    src.push_str("path(X, Y) :- edge(X, Y).\n");
    src.push_str("path(X, Z) :- path(X, Y), edge(Y, Z).\n");
    src
}

fn tc_grid_src(g: usize) -> String {
    let mut src = String::new();
    for r in 0..g {
        for c in 0..g {
            if c + 1 < g {
                src.push_str(&format!("edge(n{r}_{c}, n{r}_{}).\n", c + 1));
            }
            if r + 1 < g {
                src.push_str(&format!("edge(n{r}_{c}, n{}_{c}).\n", r + 1));
            }
        }
    }
    src.push_str("path(X, Y) :- edge(X, Y).\n");
    src.push_str("path(X, Z) :- path(X, Y), edge(Y, Z).\n");
    src
}

/// Run a plain Datalog workload `repeat` times, reporting the best run.
/// `configure` customizes the engine (used for the guarded variant).
fn run_datalog(
    name: &'static str,
    src: &str,
    repeat: usize,
    configure: impl Fn(Engine) -> Engine,
) -> WorkloadResult {
    let program = parse_program(src).expect("workload parses");
    let mut best: Option<WorkloadResult> = None;
    for _ in 0..repeat {
        let engine = configure(Engine::new(&program).expect("workload stratifies"));
        let start = Instant::now();
        let (db, stats) = engine.run_with_stats().expect("workload evaluates");
        let wall = start.elapsed();
        let facts = db.fact_count();
        let wall_ms = wall.as_secs_f64() * 1e3;
        let result = WorkloadResult {
            name,
            facts,
            iterations: stats.iterations,
            wall_ms,
            facts_per_sec: facts as f64 / wall.as_secs_f64(),
        };
        if best.as_ref().is_none_or(|b| result.wall_ms < b.wall_ms) {
            best = Some(result);
        }
    }
    best.expect("repeat >= 1")
}

/// Measure tc_chain plain and with every guard armed (deadline, fact
/// budget, cancellation token), interleaving the two configurations in
/// one loop after both-configuration warm-ups so allocator/cache state
/// cannot bias either side.
/// Returns the plain and guarded results plus the overhead in percent,
/// computed as the median of per-pair wall ratios with the run order
/// *alternating within each pair*. Adjacent runs share whatever
/// frequency/steal state the machine is in, so the pair ratio cancels
/// drift; alternating which configuration goes first cancels the
/// position bias (second-run cache warmth) that otherwise puts a
/// systematic offset on every ratio; the median then shrugs off
/// preemption outliers. The whole measurement runs as three such
/// trials and reports the median of the three trial medians: one trial's
/// estimate still wanders ±2.5 points on a busy single-core box, but
/// trial errors are close to independent, so the median of three cubes
/// the tail probability — which is what the CI gate's 3 % ceiling is
/// sized against.
fn run_guard_overhead(src: &str, repeat: usize) -> (WorkloadResult, WorkloadResult, f64) {
    let program = parse_program(src).expect("workload parses");
    let mut best: [Option<WorkloadResult>; 2] = [None, None];
    let mut trial_estimates = Vec::new();
    for _ in 0..3 {
        let pct = guard_overhead_trial(&program, repeat, &mut best);
        trial_estimates.push(pct);
    }
    trial_estimates.sort_by(f64::total_cmp);
    let overhead_pct = trial_estimates[1];
    let [plain, guarded] = best;
    (
        plain.expect("repeat >= 1"),
        guarded.expect("repeat >= 1"),
        overhead_pct,
    )
}

/// One guard-overhead trial: both-configuration warm-ups, then `repeat`
/// order-alternating pairs; returns the median per-pair ratio as a
/// percentage and folds each run into the per-configuration bests.
fn guard_overhead_trial(
    program: &multilog_datalog::Program,
    repeat: usize,
    best: &mut [Option<WorkloadResult>; 2],
) -> f64 {
    // Warm up both configurations (not just the plain one): the first
    // guarded run pays one-time costs (token allocation, deadline
    // syscalls) that would otherwise land in the first measured ratio.
    for guarded in [false, true] {
        let mut engine = Engine::new(program).expect("workload stratifies");
        if guarded {
            engine = engine
                .with_deadline(std::time::Duration::from_secs(3600))
                .with_fact_limit(100_000_000)
                .with_cancel_token(multilog_datalog::CancelToken::new());
        }
        let _ = engine.run().expect("warm-up evaluates");
    }
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let names = ["tc_chain", "tc_chain_guarded"];
    for pair in 0..repeat {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for slot in order {
            let name = names[slot];
            let mut engine = Engine::new(program).expect("workload stratifies");
            if slot == 1 {
                engine = engine
                    .with_deadline(std::time::Duration::from_secs(3600))
                    .with_fact_limit(100_000_000)
                    .with_cancel_token(multilog_datalog::CancelToken::new());
            }
            let start = Instant::now();
            let (db, stats) = engine.run_with_stats().expect("workload evaluates");
            let wall = start.elapsed();
            let facts = db.fact_count();
            let result = WorkloadResult {
                name,
                facts,
                iterations: stats.iterations,
                wall_ms: wall.as_secs_f64() * 1e3,
                facts_per_sec: facts as f64 / wall.as_secs_f64(),
            };
            walls[slot].push(result.wall_ms);
            if best[slot]
                .as_ref()
                .is_none_or(|b| result.wall_ms < b.wall_ms)
            {
                best[slot] = Some(result);
            }
        }
    }
    let [plain_walls, guarded_walls] = walls;
    let mut ratios: Vec<f64> = plain_walls
        .iter()
        .zip(&guarded_walls)
        .map(|(p, g)| g / p)
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[ratios.len() / 2] - 1.0) * 100.0
}

/// Measure a small-delta update stream two ways: incrementally via
/// [`IncrementalEngine`] commits, and by re-running the full fixpoint
/// from scratch after every commit. The stream alternately retracts and
/// re-inserts single chain edges near the tail of `tc_chain` — each
/// commit changes one EDB fact (~0.4 % of the base relation) and
/// invalidates a bounded slice of the 33k derived paths, the regime DRed
/// is built for. Returns the two results, the recompute/incremental
/// wall-time ratio (best runs on both sides), and the wall time in
/// milliseconds of the best incremental run's first commit, which also
/// compiles the DRed rule variants every later commit reuses.
fn run_update_churn(repeat: usize) -> (WorkloadResult, WorkloadResult, f64, f64) {
    let n = 512usize;
    let base_src = tc_chain_src(n);
    let program = parse_program(&base_src).expect("workload parses");
    // Ten retract/re-insert pairs alternating between the two ends of
    // the chain (where retracting edge i invalidates (i+1)·(n−i) paths,
    // so the ends are the genuinely small deltas): twenty single-fact
    // commits in total, ending back at the initial EDB.
    let pairs = 10usize;
    let targets: Vec<(String, String)> = (0..pairs)
        .map(|k| {
            let i = if k % 2 == 0 { k / 2 } else { n - 1 - k / 2 };
            (format!("n{i}"), format!("n{}", i + 1))
        })
        .collect();
    let commits = 2 * pairs;

    // Pre-parse every post-commit program variant so the recompute side
    // times exactly what the incremental side times: evaluation, not
    // parsing. Retracting edge (a, b) leaves the source minus that line;
    // re-inserting restores the full program.
    let minus_programs: Vec<_> = targets
        .iter()
        .map(|(a, b)| {
            let line = format!("edge({a}, {b}).\n");
            let src = base_src.replacen(&line, "", 1);
            parse_program(&src).expect("delta workload parses")
        })
        .collect();

    let mut best_inc: Option<(WorkloadResult, f64)> = None;
    let mut best_rec: Option<WorkloadResult> = None;
    for _ in 0..repeat {
        // Incremental: one warm engine, twenty delta commits.
        let mut engine = IncrementalEngine::new(&program).expect("workload materializes");
        let baseline_facts = engine.database().fact_count();
        let start = Instant::now();
        let mut first_commit_ms = None;
        for (a, b) in &targets {
            for insert in [false, true] {
                let fact = vec![Const::sym(a), Const::sym(b)];
                engine.begin().expect("no transaction open");
                if insert {
                    engine.insert("edge", fact).expect("stage insert");
                } else {
                    engine.retract("edge", fact).expect("stage retract");
                }
                engine.commit().expect("delta commit evaluates");
                first_commit_ms.get_or_insert(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        let wall = start.elapsed();
        let facts = engine.database().fact_count();
        assert_eq!(
            facts, baseline_facts,
            "retract/re-insert pairs must restore the fixpoint"
        );
        let result = WorkloadResult {
            name: "update_churn_incremental",
            facts,
            iterations: commits,
            wall_ms: wall.as_secs_f64() * 1e3,
            facts_per_sec: commits as f64 / wall.as_secs_f64(),
        };
        if best_inc
            .as_ref()
            .is_none_or(|(b, _)| result.wall_ms < b.wall_ms)
        {
            best_inc = Some((result, first_commit_ms.expect("twenty commits")));
        }

        // Recompute: the same twenty post-commit states, each evaluated
        // from scratch.
        let start = Instant::now();
        let mut facts = 0;
        for minus in &minus_programs {
            for variant in [minus, &program] {
                let db = Engine::new(variant)
                    .expect("workload stratifies")
                    .run()
                    .expect("workload evaluates");
                facts = db.fact_count();
            }
        }
        let wall = start.elapsed();
        let result = WorkloadResult {
            name: "update_churn_recompute",
            facts,
            iterations: commits,
            wall_ms: wall.as_secs_f64() * 1e3,
            facts_per_sec: commits as f64 / wall.as_secs_f64(),
        };
        if best_rec.as_ref().is_none_or(|b| result.wall_ms < b.wall_ms) {
            best_rec = Some(result);
        }
    }
    let (inc, first_commit_ms) = best_inc.expect("repeat >= 1");
    let rec = best_rec.expect("repeat >= 1");
    let speedup = rec.wall_ms / inc.wall_ms;
    (inc, rec, speedup, first_commit_ms)
}

/// Measure a point query (`path(n0, X)` over the 512-node tc_chain) two
/// ways: against the full materialized fixpoint, and demand-driven via
/// the magic-sets rewrite (`run_for_goal`), which only computes the
/// paths reachable from the bound source. Returns the two results plus
/// the full/magic wall-time ratio (best runs on both sides); the magic
/// side reports `facts` as the facts its rewritten program materialized.
fn run_point_query(repeat: usize) -> (WorkloadResult, WorkloadResult, f64) {
    let n = 512usize;
    let program = parse_program(&tc_chain_src(n)).expect("workload parses");
    let goal = multilog_datalog::parse_query("path(n0, X)").expect("goal parses");
    let mut best_full: Option<WorkloadResult> = None;
    let mut best_magic: Option<WorkloadResult> = None;
    for _ in 0..repeat {
        // Full: materialize everything, then answer from the database.
        let engine = Engine::new(&program).expect("workload stratifies");
        let start = Instant::now();
        let (db, _) = engine.run_with_stats().expect("workload evaluates");
        let answers = multilog_datalog::run_query(&db, &goal).expect("goal evaluates");
        let wall = start.elapsed();
        assert_eq!(answers.len(), n, "n0 reaches every later node");
        let facts = db.fact_count();
        let result = WorkloadResult {
            name: "point_query_full",
            facts,
            iterations: 1,
            wall_ms: wall.as_secs_f64() * 1e3,
            facts_per_sec: facts as f64 / wall.as_secs_f64(),
        };
        if best_full
            .as_ref()
            .is_none_or(|b| result.wall_ms < b.wall_ms)
        {
            best_full = Some(result);
        }

        // Magic: rewrite around the goal's bindings, evaluate only the
        // demanded sub-fixpoint.
        let engine = Engine::new(&program).expect("workload stratifies");
        let start = Instant::now();
        let (answers, stats) = engine.run_for_goal(&goal).expect("goal evaluates");
        let wall = start.elapsed();
        assert_eq!(answers.len(), n, "demand answers match full");
        let demand = stats.demand.expect("goal runs record demand stats");
        assert_eq!(demand.strategy, "magic", "bound goal engages the rewrite");
        let facts = demand.facts_materialized;
        let result = WorkloadResult {
            name: "point_query_magic",
            facts,
            iterations: 1,
            wall_ms: wall.as_secs_f64() * 1e3,
            facts_per_sec: facts as f64 / wall.as_secs_f64(),
        };
        if best_magic
            .as_ref()
            .is_none_or(|b| result.wall_ms < b.wall_ms)
        {
            best_magic = Some(result);
        }
    }
    let full = best_full.expect("repeat >= 1");
    let magic = best_magic.expect("repeat >= 1");
    let speedup = full.wall_ms / magic.wall_ms;
    (full, magic, speedup)
}

/// Measure full reachability over a power-law social graph two ways:
/// with the native `@bfs` operator (`reach(X, Y) :- @bfs(edge, X, Y).`)
/// and with the equivalent rule-at-a-time transitive-closure pair. Both
/// sides compute the identical `reach` relation (asserted, count inside
/// the loop and full rows once outside it); the operator's win is pure
/// evaluation strategy — per-source traversal over the columnar indexes
/// instead of semi-naive join rounds. Returns both results plus the
/// rule/operator wall-time ratio (best runs on both sides).
fn run_social_reach(repeat: usize) -> (WorkloadResult, WorkloadResult, f64) {
    let spec = multilog_bench::workload::GraphSpec::default();
    let edges = multilog_bench::workload::power_law_edges(&spec);
    let mut base = String::new();
    for (a, b) in &edges {
        base.push_str(&format!("edge(n{a}, n{b}).\n"));
    }
    let op_src = format!("{base}reach(X, Y) :- @bfs(edge, X, Y).\n");
    let rule_src =
        format!("{base}reach(X, Y) :- edge(X, Y).\nreach(X, Z) :- reach(X, Y), edge(Y, Z).\n");
    let op_program = parse_program(&op_src).expect("operator workload parses");
    let rule_program = parse_program(&rule_src).expect("rule workload parses");
    let mut best_op: Option<WorkloadResult> = None;
    let mut best_rule: Option<WorkloadResult> = None;
    let mut reach = (0usize, 0usize);
    for _ in 0..repeat {
        for slot in [0usize, 1] {
            let program = if slot == 0 {
                &op_program
            } else {
                &rule_program
            };
            let engine = Engine::new(program).expect("workload stratifies");
            let start = Instant::now();
            let (db, stats) = engine.run_with_stats().expect("workload evaluates");
            let wall = start.elapsed();
            let facts = db.fact_count();
            let derived = db
                .relation("reach")
                .map_or(0, multilog_datalog::Relation::len);
            if slot == 0 {
                reach.0 = derived;
            } else {
                reach.1 = derived;
            }
            let result = WorkloadResult {
                name: if slot == 0 {
                    "social_reach_operator"
                } else {
                    "social_reach_rules"
                },
                facts,
                iterations: stats.iterations,
                wall_ms: wall.as_secs_f64() * 1e3,
                facts_per_sec: facts as f64 / wall.as_secs_f64(),
            };
            let best = if slot == 0 {
                &mut best_op
            } else {
                &mut best_rule
            };
            if best.as_ref().is_none_or(|b| result.wall_ms < b.wall_ms) {
                *best = Some(result);
            }
        }
        assert_eq!(
            reach.0, reach.1,
            "operator and rule closures must have the same size"
        );
    }
    // Row-level equivalence, checked once outside the timers (the
    // property suite pins this on random graphs; the bench re-asserts it
    // on the measured one).
    let op_db = Engine::new(&op_program)
        .expect("workload stratifies")
        .run()
        .expect("workload evaluates");
    let rule_db = Engine::new(&rule_program)
        .expect("workload stratifies")
        .run()
        .expect("workload evaluates");
    let sorted = |db: &multilog_datalog::Database| {
        db.relation("reach")
            .map(multilog_datalog::Relation::sorted)
            .unwrap_or_default()
    };
    assert_eq!(
        sorted(&op_db),
        sorted(&rule_db),
        "@bfs must equal rule-at-a-time closure"
    );
    let op = best_op.expect("repeat >= 1");
    let rule = best_rule.expect("repeat >= 1");
    let speedup = rule.wall_ms / op.wall_ms;
    (op, rule, speedup)
}

/// Run the per-clearance aggregate dashboard end-to-end: reduce a
/// 3000-cell polyinstantiated `emp` database at top clearance and answer
/// the `total(H, N)` dashboard goal (one `count` row per level) through
/// the materialized fixpoint. Returns the best run plus the row count;
/// the demand path is asserted to agree once outside the timers.
fn run_level_dashboard(repeat: usize) -> (WorkloadResult, usize) {
    let spec = DashboardSpec::default();
    let db = parse_database(&synthetic_dashboard(&spec)).expect("synthetic dashboard parses");
    let top = format!("l{}", spec.depth - 1);
    let mut best: Option<WorkloadResult> = None;
    let mut rows = 0usize;
    for _ in 0..repeat {
        let start = Instant::now();
        let red = ReducedEngine::new(&db, &top).expect("dashboard reduces");
        let answers = red
            .solve_text("total(H, N)")
            .expect("dashboard goal evaluates");
        let wall = start.elapsed();
        assert_eq!(answers.len(), spec.depth, "one dashboard row per level");
        rows = answers.len();
        let facts = red.database().fact_count();
        let result = WorkloadResult {
            name: "level_dashboard",
            facts,
            iterations: rows,
            wall_ms: wall.as_secs_f64() * 1e3,
            facts_per_sec: facts as f64 / wall.as_secs_f64(),
        };
        if best.as_ref().is_none_or(|b| result.wall_ms < b.wall_ms) {
            best = Some(result);
        }
    }
    // The demand path (what the CLI `query` command runs) must agree
    // with the materialized answers, bound or unbound.
    let red = ReducedEngine::new(&db, &top).expect("dashboard reduces");
    for goal in ["total(H, N)", &format!("total({top}, N)")] {
        assert_eq!(
            red.solve_text_demand(goal).expect("demand goal evaluates"),
            red.solve_text(goal).expect("goal evaluates"),
            "demand dashboard answers must match materialized"
        );
    }
    (best.expect("repeat >= 1"), rows)
}

/// What `dashboard_churn` measured over its commits.
struct DashboardChurnResult {
    commits: usize,
    commit_p50_ms: f64,
    strata_recomputed_max: usize,
}

/// Commit single-cell `emp` asserts and retracts, alternating, through
/// `ReducedEngine::apply_updates` on the default dashboard database at
/// the top level, timing each commit and asserting the top level's
/// `total` row moves with each one.
fn run_dashboard_churn() -> DashboardChurnResult {
    const COMMITS: usize = 20;
    let spec = DashboardSpec::default();
    let db = parse_database(&synthetic_dashboard(&spec)).expect("synthetic dashboard parses");
    let top = format!("l{}", spec.depth - 1);
    let mut red = ReducedEngine::new(&db, &top).expect("dashboard reduces");
    let goal = format!("total({top}, N)");
    let before = red.solve_text(&goal).expect("dashboard goal evaluates");
    let mut commit_ms = Vec::with_capacity(COMMITS);
    let mut strata_recomputed_max = 0;
    for c in 0..COMMITS {
        let cell = format!("{top}[emp(kchurn : sal -l0-> churn{}) ].", c / 2);
        let clause = parse_clause(&cell).expect("churn cell parses").remove(0);
        let Head::M(m) = clause.head else {
            unreachable!("churn cell is an m-fact");
        };
        let update = if c % 2 == 0 {
            EdbUpdate::Assert(m)
        } else {
            EdbUpdate::Retract(m)
        };
        let start = Instant::now();
        let stats = red.apply_updates(&[update]).expect("churn commit applies");
        commit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        strata_recomputed_max = strata_recomputed_max.max(stats.strata_recomputed);
        let now = red.solve_text(&goal).expect("dashboard goal evaluates");
        assert_eq!(
            now == before,
            c % 2 == 1,
            "the top row moves with each cell"
        );
    }
    commit_ms.sort_by(f64::total_cmp);
    DashboardChurnResult {
        commits: COMMITS,
        commit_p50_ms: commit_ms[COMMITS / 2],
        strata_recomputed_max,
    }
}

/// Milliseconds to open the lowest clearance on a [`BeliefServer`] over
/// the default dashboard database, whose top level is open already: the
/// `total` aggregate depends on the clearance, so opening one evaluates
/// its slice. Best of `repeat` fresh servers; the new reader's dashboard
/// row is asserted present.
fn late_open_ms(repeat: usize) -> f64 {
    let spec = DashboardSpec::default();
    let src = synthetic_dashboard(&spec);
    let top = format!("l{}", spec.depth - 1);
    let mut best = f64::INFINITY;
    for _ in 0..repeat {
        let db = parse_database(&src).expect("synthetic dashboard parses");
        let server = BeliefServer::new(db, EngineOptions::default());
        server.open_reader(&top).expect("top reader opens");
        let start = Instant::now();
        let low = server.open_reader("l0").expect("late reader opens");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        let row = low.query_text("total(l0, N)").expect("dashboard goal");
        assert_eq!(row.len(), 1, "the late reader sees its dashboard row");
    }
    best
}

/// What the multi-session server did under churn: reader-side query
/// latency percentiles and writer-side commit throughput.
struct ConcurrentChurnResult {
    readers: usize,
    commits: usize,
    queries: usize,
    reader_p50_us: f64,
    reader_p90_us: f64,
    reader_p99_us: f64,
    reader_p999_us: f64,
    reader_max_us: f64,
    /// Whether a commit publish fell inside the max-latency query's
    /// window — the attribution for the worst outlier (scheduling
    /// against the writer vs. something intrinsic to the reader path).
    max_spans_publish: bool,
    /// Fraction of the queries above p99 whose window contained at
    /// least one commit publish.
    tail_publish_overlap_pct: f64,
    commits_per_sec: f64,
    writer_wall_ms: f64,
    final_epoch: u64,
    /// Strata recomputed from scratch, summed over every commit.
    strata_recomputed: usize,
    /// The most engine entries ([`CommitSummary::levels`]) in any one
    /// commit's summary.
    ///
    /// [`CommitSummary::levels`]: multilog_core::CommitSummary
    commit_engines_max: usize,
    /// The most [`CommitStats::detached_cells`] in any one commit.
    ///
    /// [`CommitStats::detached_cells`]: multilog_datalog::CommitStats
    detached_cells_max: usize,
    /// The most [`CommitStats::join_probes`] in any one commit.
    ///
    /// [`CommitStats::join_probes`]: multilog_datalog::CommitStats
    join_probes_max: u64,
    /// Query plans the reader threads' sessions compiled, summed: one per
    /// goal shape, and each reader repeats one goal.
    reader_plans_compiled: u64,
    /// Reader goals a session's cached plan answered, summed.
    reader_plan_hits: u64,
    /// The server's fact count after the last commit.
    fixpoint_facts: usize,
}

/// Run `readers` reader threads against a [`BeliefServer`] while the
/// writer commits `commits` single-fact batches (alternating assert and
/// retract of a fresh `data` fact, either feeding the top-level rules or
/// flipping a cover story, so every commit re-propagates through the
/// server's incremental engine).
///
/// Each reader is pinned at one of the declared clearance levels and
/// loops `refresh()` + one goal against its pinned snapshot, recording
/// the wall time of each iteration. Readers answer from copy-on-write
/// generation handles and never take the server mutex, so their latency
/// should be independent of the writer's commit work — `reader_p99_us`
/// is the number the snapshot-isolation claim rides on.
fn run_concurrent_churn(readers: usize, commits: usize) -> ConcurrentChurnResult {
    let spec = MultiLogSpec {
        depth: 3,
        facts: 600,
        rules: 8,
        use_cau: true,
        seed: 11,
    };
    let db = parse_database(&synthetic_multilog(&spec)).expect("synthetic multilog parses");
    let levels: Vec<String> = (0..spec.depth).map(|i| format!("l{i}")).collect();
    let top = levels.last().expect("depth >= 1").clone();
    let server = Arc::new(BeliefServer::new(db, EngineOptions::default()));

    // Pay the materialization (and every level's open) up front so the
    // timed region measures steady-state serving, not engine
    // construction.
    for level in &levels {
        server.open_reader(level).expect("warm-up reader opens");
    }

    let stop = Arc::new(AtomicBool::new(false));
    // Query windows as (start_us, end_us) offsets from a shared clock, so
    // tail latencies can be attributed against commit-publish instants.
    let mut windows: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut publishes: Vec<f64> = Vec::with_capacity(commits);
    let mut writer_wall_ms = 0.0;
    let mut strata_recomputed = 0usize;
    let mut commit_engines_max = 0usize;
    let mut detached_cells_max = 0usize;
    let mut join_probes_max = 0u64;
    let mut reader_plans_compiled = 0u64;
    let mut reader_plan_hits = 0u64;
    let mut fixpoint_facts = 0usize;
    let clock = Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for r in 0..readers {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            // Distinct clearance levels: reader r pins level r mod depth.
            let level = levels[r % levels.len()].clone();
            let goal = if level == top {
                // The top level sees the rule heads.
                "l2[derived(k0 : b -C-> V)] << cau".to_owned()
            } else {
                format!("{level}[data(k0 : a -C-> V)] << opt")
            };
            handles.push(scope.spawn(move || {
                let mut session = server.open_reader(&level).expect("reader opens");
                let mut walls: Vec<(f64, f64)> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let start = clock.elapsed().as_secs_f64() * 1e6;
                    session.refresh();
                    session.query_text(&goal).expect("reader goal evaluates");
                    walls.push((start, clock.elapsed().as_secs_f64() * 1e6));
                }
                (walls, session.prepared_stats())
            }));
        }

        // Writer churn on the main thread, in single-fact pairs. Even
        // pairs assert and retract an l1 `data` cell on k0, which the top
        // level's cautious rules consult — so those commits do real
        // re-derivation work in the shared engine before publishing. Odd
        // pairs flip a cover story: an l1 cell on `flip`, a key whose
        // cells are all l0-classified, beats those cells at l1 and l2
        // (new `beaten_h` facts) until it is retracted, so those commits
        // maintain the negation strata too. The top level's cautious
        // answer for `flip` must change with every such commit.
        let mut top_reader = server.open_reader(&top).expect("top reader opens");
        let flip = (0..spec.facts)
            .find(|k| {
                let cells = top_reader
                    .query_text(&format!("L[data(k{k} : a -C-> V)]"))
                    .expect("key probe evaluates");
                !cells.is_empty() && cells.iter().all(|a| a["C"] == Term::sym("l0"))
            })
            .expect("some key has only l0-classified cells");
        let flip_goal = format!("{top}[data(k{flip} : a -C-> V)] << cau");
        let covered = top_reader
            .query_text(&flip_goal)
            .expect("flip goal evaluates");
        let mut seen = covered.clone();
        let writer = server.open_writer().expect("single writer opens");
        let start = Instant::now();
        let mut writer = writer;
        for c in 0..commits {
            let flipping = c % 4 >= 2;
            let key = if flipping { flip } else { 0 };
            let fact = format!("l1[data(k{key} : a -l1-> churn{}) ].", c / 2);
            let clause = parse_clause(&fact).expect("churn fact parses").remove(0);
            let Head::M(m) = clause.head else {
                unreachable!("churn fact is an m-fact");
            };
            let update = if c % 2 == 0 {
                EdbUpdate::Assert(m)
            } else {
                EdbUpdate::Retract(m)
            };
            let summary = writer.commit(&[update]).expect("churn commit applies");
            strata_recomputed += summary
                .levels
                .values()
                .map(|s| s.strata_recomputed)
                .sum::<usize>();
            commit_engines_max = commit_engines_max.max(summary.levels.len());
            detached_cells_max = summary
                .levels
                .values()
                .map(|s| s.detached_cells)
                .fold(detached_cells_max, usize::max);
            join_probes_max = summary
                .levels
                .values()
                .map(|s| s.join_probes)
                .fold(join_probes_max, u64::max);
            publishes.push(clock.elapsed().as_secs_f64() * 1e6);
            if flipping {
                top_reader.refresh();
                let now = top_reader
                    .query_text(&flip_goal)
                    .expect("flip goal evaluates");
                // The retract restores exactly the cover stories.
                assert!(
                    now != seen && (now == covered) == (c % 2 == 1),
                    "cover-story flip at commit {c}: `{flip_goal}` answered {now:?} after {seen:?}"
                );
                seen = now;
            }
        }
        writer_wall_ms = start.elapsed().as_secs_f64() * 1e3;
        top_reader.refresh();
        fixpoint_facts = top_reader.snapshot().database().fact_count();
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            let (walls, stats) = handle.join().expect("reader thread joins");
            windows.push(walls);
            reader_plans_compiled += stats.compiled;
            reader_plan_hits += stats.hits;
        }
    });

    let mut all: Vec<(f64, f64, f64)> = windows
        .into_iter()
        .flatten()
        .map(|(s, e)| (e - s, s, e))
        .collect();
    all.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
    assert!(!all.is_empty(), "readers completed at least one query");
    let pct = |p: f64| all[((all.len() - 1) as f64 * p) as usize].0;
    let spans_publish = |&(_, s, e): &(f64, f64, f64)| publishes.iter().any(|&p| s <= p && p <= e);
    let max = all[all.len() - 1];
    let tail = &all[((all.len() - 1) as f64 * 0.99) as usize..];
    let tail_hits = tail.iter().filter(|w| spans_publish(w)).count();
    ConcurrentChurnResult {
        readers,
        commits,
        queries: all.len(),
        reader_p50_us: pct(0.50),
        reader_p90_us: pct(0.90),
        reader_p99_us: pct(0.99),
        reader_p999_us: pct(0.999),
        reader_max_us: max.0,
        max_spans_publish: spans_publish(&max),
        tail_publish_overlap_pct: tail_hits as f64 / tail.len() as f64 * 100.0,
        commits_per_sec: commits as f64 / (writer_wall_ms / 1e3),
        writer_wall_ms,
        final_epoch: server.epoch(),
        strata_recomputed,
        commit_engines_max,
        detached_cells_max,
        join_probes_max,
        reader_plans_compiled,
        reader_plan_hits,
        fixpoint_facts,
    }
}

/// The synthetic MultiLog database of the `reduction` workload, which
/// the lint, flow-analysis and demand-pruning measurements share.
const REDUCTION_SPEC: MultiLogSpec = MultiLogSpec {
    depth: 4,
    facts: 1500,
    rules: 12,
    use_cau: true,
    seed: 7,
};

/// Time the MultiLog lint (`multilog lint`, whose clearance-free errors
/// are the load's refusals) on the synthetic MultiLog source the
/// reduction workload uses, parse included, and report its median wall
/// time in milliseconds: `lint_source_ms`, and `lint_source_pct` of the
/// tc_chain evaluation wall time in `main` (both ungated).
fn lint_wall_ms(src: &str, repeat: usize) -> f64 {
    let mut walls: Vec<f64> = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        let start = Instant::now();
        let report = multilog_core::lint_source(src).expect("workload parses");
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        assert!(
            !report.has_errors(),
            "the reduction workload must lint without errors: {}",
            report.summary()
        );
    }
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// Time the lattice-flow abstract interpretation (the `analyze` /
/// `--deny flow` preflight) on the synthetic MultiLog database the
/// reduction workload uses, reporting its best wall time in
/// milliseconds. Compared against tc_chain evaluation in `main`: the
/// flow preflight must stay under 5 % of tc_chain. The minimum (not the
/// median) is the estimator because the gate bounds the *intrinsic*
/// preflight cost and each run is only a few hundred microseconds:
/// scheduler preemption and frequency ramps only ever inflate a sample,
/// and a median over so short a window flaps with them.
fn analyze_wall_ms(db: &multilog_core::MultiLogDb, repeat: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeat {
        let start = Instant::now();
        let report = multilog_core::analyze_db(db);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        assert!(
            report.lattice().is_some(),
            "synthetic workload has a lattice"
        );
    }
    best
}

/// Measure a low-clearance point belief query over a level-skewed
/// MultiLog database two ways: demand-driven as-is, and demand-driven
/// with `flow_prune` dropping the statically-invisible rules (the
/// top-level rule heads and the cautious machinery for every level
/// above the clearance) before the magic-sets rewrite. Answers must be
/// identical; returns both results, the plain/pruned wall ratio, the
/// number of rules the flow bounds removed from the demand cone, and the
/// magic plans the two engines compiled.
fn run_demand_pruned(repeat: usize) -> (WorkloadResult, WorkloadResult, f64, usize, u64) {
    // The reduction spec, level-skewed by construction: every `derived`
    // rule lives at the top level l3, so at clearance l0 the flow
    // bounds prune all of them plus the l1/l2/l3 belief machinery.
    let spec = REDUCTION_SPEC;
    let db = parse_database(&synthetic_multilog(&spec)).expect("synthetic multilog parses");
    let goal = multilog_core::parse_goal("l0[data(k0 : a -C-> V)]").expect("goal parses");
    let pruned_options = EngineOptions {
        flow_prune: true,
        ..EngineOptions::default()
    };
    // Engines are constructed outside the timed region on both sides:
    // the deferred constructor does no evaluation, and the flow
    // analysis is a construction-time cost already covered by
    // `analyze_preflight_ms`.
    let plain_engine = ReducedEngine::with_options_deferred(&db, "l0", EngineOptions::default())
        .expect("synthetic db reduces");
    let pruned_engine = ReducedEngine::with_options_deferred(&db, "l0", pruned_options)
        .expect("synthetic db reduces");
    let mut best_plain: Option<WorkloadResult> = None;
    let mut best_pruned: Option<WorkloadResult> = None;
    let mut pruned_rules = 0usize;
    for _ in 0..repeat {
        for (slot, engine) in [(0, &plain_engine), (1, &pruned_engine)] {
            let start = Instant::now();
            let (answers, stats) = engine
                .solve_demand_with_stats(&goal)
                .expect("goal evaluates");
            let wall = start.elapsed();
            assert!(!answers.is_empty(), "k0 data exists at l0");
            let demand = stats.demand.expect("demand runs record stats");
            let best = if slot == 0 {
                assert_eq!(demand.pruned_rules, 0, "no pruning without the option");
                &mut best_plain
            } else {
                assert!(demand.pruned_rules > 0, "skewed workload must prune");
                pruned_rules = demand.pruned_rules;
                &mut best_pruned
            };
            let facts = demand.facts_materialized;
            let result = WorkloadResult {
                name: if slot == 0 {
                    "demand_plain"
                } else {
                    "demand_pruned"
                },
                facts,
                iterations: 1,
                wall_ms: wall.as_secs_f64() * 1e3,
                facts_per_sec: facts as f64 / wall.as_secs_f64(),
            };
            if best.as_ref().is_none_or(|b| result.wall_ms < b.wall_ms) {
                *best = Some(result);
            }
        }
    }
    // Equivalence: the pruned demand cone answers exactly like the
    // unpruned one (checked once outside the timers).
    assert_eq!(
        plain_engine.solve_demand(&goal).expect("goal evaluates"),
        pruned_engine.solve_demand(&goal).expect("goal evaluates"),
        "flow pruning must not change answers"
    );
    let plain = best_plain.expect("repeat >= 1");
    let pruned = best_pruned.expect("repeat >= 1");
    let speedup = plain.wall_ms / pruned.wall_ms;
    let plans = [&plain_engine, &pruned_engine].map(|e| e.demand_prepared_stats().compiled);
    (plain, pruned, speedup, pruned_rules, plans.iter().sum())
}

/// How many derived predicates a top-clearance `<< cau` point goal still
/// evaluates in full because they sit under negation, on `db` (the
/// level-split synthetic reduction): 0 once every cautious `not beaten`
/// is adorned. Answers must equal the materialized fixpoint's.
fn cautious_plain_under_negation(db: &multilog_core::MultiLogDb) -> usize {
    let top = "l3";
    let goal = multilog_core::parse_goal("l3[data(k0 : a -C-> V)] << cau").expect("goal parses");
    let engine = ReducedEngine::with_options_deferred(db, top, EngineOptions::default())
        .expect("synthetic db reduces");
    let (answers, stats) = engine
        .solve_demand_with_stats(&goal)
        .expect("goal evaluates");
    let demand = stats.demand.expect("demand runs record stats");
    assert_eq!(demand.strategy, "magic", "the cautious point goal is bound");
    let full = ReducedEngine::new(db, top).expect("synthetic db reduces");
    assert_eq!(
        answers,
        full.solve(&goal).expect("goal evaluates"),
        "demand answers must match the fixpoint"
    );
    demand.plain_under_negation
}

/// Run the Figure-12 reduction workload `repeat` times (best run), with
/// its fixpoint's rule applications (deterministic: the same on every
/// run and thread count).
fn run_reduction(repeat: usize) -> (WorkloadResult, usize) {
    let spec = REDUCTION_SPEC;
    let src = synthetic_multilog(&spec);
    let db = parse_database(&src).expect("synthetic multilog parses");
    let top = format!("l{}", spec.depth - 1);
    let mut best: Option<WorkloadResult> = None;
    let mut applications = 0;
    for _ in 0..repeat {
        let start = Instant::now();
        let red = ReducedEngine::new(&db, &top).expect("reduction succeeds");
        let wall = start.elapsed();
        applications = red.stats().rule_applications;
        let facts = red.database().fact_count();
        let wall_ms = wall.as_secs_f64() * 1e3;
        let result = WorkloadResult {
            name: "reduction",
            facts,
            iterations: 0,
            wall_ms,
            facts_per_sec: facts as f64 / wall.as_secs_f64(),
        };
        if best.as_ref().is_none_or(|b| result.wall_ms < b.wall_ms) {
            best = Some(result);
        }
    }
    (best.expect("repeat >= 1"), applications)
}

/// Extract `"field": <number>` for the workload named `name` from a
/// previously written report (this binary's own output format).
fn baseline_field(baseline: &str, name: &str, field: &str) -> Option<f64> {
    let obj = baseline.split("{").find(|chunk| {
        chunk.split_once("\"name\"").is_some_and(|(_, rest)| {
            rest.trim_start()
                .trim_start_matches(':')
                .trim_start()
                .starts_with(&format!("\"{name}\""))
        })
    })?;
    let (_, rest) = obj.split_once(&format!("\"{field}\""))?;
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Peak resident set size of this process in megabytes, read from
/// `/proc/self/status` (`VmHWM`). `None` on non-Linux hosts.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Report a command-line error and exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("perf_smoke: {msg}");
    eprintln!("usage: perf_smoke [--out FILE] [--baseline FILE] [--repeat N]");
    std::process::exit(2);
}

fn main() {
    let mut out_path = String::from("BENCH_pr10.json");
    let mut baseline_path: Option<String> = None;
    let mut repeat = 3usize;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--out" => out_path = value(),
            "--baseline" => baseline_path = Some(value()),
            "--repeat" => {
                repeat = match value().parse() {
                    Ok(n) if n >= 1 => n,
                    _ => usage_error("--repeat takes a positive integer"),
                }
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    let baseline = baseline_path.map(|p| {
        std::fs::read_to_string(&p)
            .unwrap_or_else(|e| usage_error(&format!("cannot read baseline {p}: {e}")))
    });

    // tc_chain_guarded re-runs tc_chain with every guard armed (deadline,
    // fact budget, cancellation token) to measure the cost of the checks
    // that now sit inside the join loop.
    let (tc_chain, tc_chain_guarded, guard_overhead_pct) =
        run_guard_overhead(&tc_chain_src(256), repeat.max(40));
    // `lint_source` cost (parse included) relative to evaluation (best
    // run is the smallest denominator, so the percentage is an upper
    // bound).
    let lint_ms = lint_wall_ms(&synthetic_multilog(&REDUCTION_SPEC), repeat.max(9));
    let lint_source_pct = lint_ms / tc_chain.wall_ms * 100.0;
    // update_churn contrasts incremental DRed commits against full
    // recomputation on a 20-commit single-fact delta stream.
    let (churn_inc, churn_rec, churn_speedup, churn_first_ms) = run_update_churn(repeat);
    // point_query contrasts demand-driven (magic-sets) evaluation of a
    // bound goal against answering it from the full fixpoint.
    let (point_full, point_magic, point_speedup) = run_point_query(repeat);
    // Flow-analysis preflight cost relative to evaluation, and the
    // flow-pruned demand cone on a level-skewed point belief query.
    let analyze_db =
        parse_database(&synthetic_multilog(&REDUCTION_SPEC)).expect("synthetic multilog parses");
    let analyze_ms = analyze_wall_ms(&analyze_db, repeat.max(25));
    let analyze_overhead_pct = analyze_ms / tc_chain.wall_ms * 100.0;
    let (
        demand_plain,
        demand_pruned,
        demand_pruned_speedup,
        demand_pruned_rules,
        demand_plans_compiled,
    ) = run_demand_pruned(repeat);
    let cau_plain_under_negation = cautious_plain_under_negation(&analyze_db);
    // social_reach contrasts the native @bfs operator against
    // rule-at-a-time transitive closure on a power-law social graph.
    let (social_op, social_rules, social_speedup) = run_social_reach(repeat);
    // level_dashboard answers per-clearance count aggregates end-to-end
    // through the reduction.
    let (level_dashboard, dashboard_rows) = run_level_dashboard(repeat);
    // dashboard_churn commits single cells under that aggregate.
    let dashboard_churn = run_dashboard_churn();
    // late_open times opening a clearance whose slice must be evaluated.
    let late_open = late_open_ms(repeat);
    // concurrent_churn drives the multi-session belief server: reader
    // threads refresh + query pinned snapshots while the writer commits.
    let churn = run_concurrent_churn(4, 60);
    let point_full_facts = point_full.facts;
    let point_magic_facts = point_magic.facts;
    // tc_chain_xl (~5M derived paths) runs last and only once: the
    // VmHWM read right after it is then this workload's peak, since
    // everything before it stays well under 200 MB resident.
    let tc_chain_xl = run_datalog("tc_chain_xl", &tc_chain_src(3150), 1, |e| e);
    let xl_peak_rss_mb = peak_rss_mb();
    let tc_grid = run_datalog("tc_grid", &tc_grid_src(16), repeat, |e| e);
    let (reduction, reduction_applications) = run_reduction(repeat);
    let results = [
        tc_chain,
        tc_chain_guarded,
        tc_grid,
        reduction,
        churn_inc,
        churn_rec,
        point_full,
        point_magic,
        demand_plain,
        demand_pruned,
        social_op,
        social_rules,
        level_dashboard,
        tc_chain_xl,
    ];

    let mut json = String::from("{\n  \"benchmark\": \"perf_smoke\",\n");
    json.push_str(&format!(
        "  \"guard_overhead_pct\": {guard_overhead_pct:.2},\n"
    ));
    json.push_str(&format!(
        "  \"update_churn_speedup\": {churn_speedup:.2},\n  \"update_churn_first_commit_ms\": {churn_first_ms:.3},\n"
    ));
    json.push_str(&format!(
        "  \"point_query_speedup\": {point_speedup:.2},\n  \"point_query_full_facts\": {point_full_facts},\n  \"point_query_magic_facts\": {point_magic_facts},\n"
    ));
    json.push_str(&format!(
        "  \"lint_source_ms\": {lint_ms:.4},\n  \"lint_source_pct\": {lint_source_pct:.3},\n"
    ));
    json.push_str(&format!(
        "  \"analyze_preflight_ms\": {analyze_ms:.4},\n  \"analyze_overhead_pct\": {analyze_overhead_pct:.3},\n"
    ));
    json.push_str(&format!(
        "  \"demand_pruned_speedup\": {demand_pruned_speedup:.2},\n  \"demand_pruned_rules\": {demand_pruned_rules},\n"
    ));
    json.push_str(&format!(
        "  \"demand_plans_compiled\": {demand_plans_compiled},\n  \"demand_engines\": 2,\n"
    ));
    json.push_str(&format!(
        "  \"demand_cau_plain_under_negation\": {cau_plain_under_negation},\n"
    ));
    json.push_str(&format!(
        "  \"reduction_rule_applications\": {reduction_applications},\n"
    ));
    json.push_str(&format!(
        "  \"social_reach_speedup\": {social_speedup:.2},\n  \"level_dashboard_rows\": {dashboard_rows},\n"
    ));
    json.push_str(&format!(
        "  \"dashboard_churn\": {{\n    \"commits\": {},\n    \"commit_p50_ms\": {:.3},\n    \"strata_recomputed_max\": {}\n  }},\n",
        dashboard_churn.commits, dashboard_churn.commit_p50_ms, dashboard_churn.strata_recomputed_max
    ));
    json.push_str(&format!("  \"late_open_ms\": {late_open:.3},\n"));
    json.push_str("  \"concurrent_churn\": {\n");
    json.push_str(&format!("    \"readers\": {},\n", churn.readers));
    json.push_str(&format!("    \"commits\": {},\n", churn.commits));
    json.push_str(&format!("    \"final_epoch\": {},\n", churn.final_epoch));
    json.push_str(&format!("    \"queries\": {},\n", churn.queries));
    json.push_str(&format!(
        "    \"reader_p50_us\": {:.1},\n",
        churn.reader_p50_us
    ));
    json.push_str(&format!(
        "    \"reader_p90_us\": {:.1},\n",
        churn.reader_p90_us
    ));
    json.push_str(&format!(
        "    \"reader_p99_us\": {:.1},\n",
        churn.reader_p99_us
    ));
    json.push_str(&format!(
        "    \"reader_p999_us\": {:.1},\n",
        churn.reader_p999_us
    ));
    json.push_str(&format!(
        "    \"reader_max_us\": {:.1},\n",
        churn.reader_max_us
    ));
    json.push_str(&format!(
        "    \"max_spans_publish\": {},\n",
        churn.max_spans_publish
    ));
    json.push_str(&format!(
        "    \"tail_publish_overlap_pct\": {:.1},\n",
        churn.tail_publish_overlap_pct
    ));
    json.push_str(&format!(
        "    \"commits_per_sec\": {:.1},\n",
        churn.commits_per_sec
    ));
    json.push_str(&format!(
        "    \"writer_wall_ms\": {:.3},\n",
        churn.writer_wall_ms
    ));
    json.push_str(&format!(
        "    \"strata_recomputed\": {},\n",
        churn.strata_recomputed
    ));
    json.push_str(&format!(
        "    \"commit_engines_max\": {},\n",
        churn.commit_engines_max
    ));
    json.push_str(&format!(
        "    \"detached_cells_max\": {},\n",
        churn.detached_cells_max
    ));
    json.push_str(&format!(
        "    \"join_probes_max\": {},\n",
        churn.join_probes_max
    ));
    json.push_str(&format!(
        "    \"reader_plans_compiled\": {},\n",
        churn.reader_plans_compiled
    ));
    json.push_str(&format!(
        "    \"reader_plan_hits\": {},\n",
        churn.reader_plan_hits
    ));
    json.push_str(&format!(
        "    \"fixpoint_facts\": {}\n",
        churn.fixpoint_facts
    ));
    json.push_str("  },\n");
    if let Some(mb) = xl_peak_rss_mb {
        json.push_str(&format!("  \"tc_chain_xl_peak_rss_mb\": {mb:.1},\n"));
    }
    json.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        json.push_str(&format!("      \"facts\": {},\n", r.facts));
        json.push_str(&format!("      \"iterations\": {},\n", r.iterations));
        json.push_str(&format!("      \"wall_ms\": {:.3},\n", r.wall_ms));
        json.push_str(&format!("      \"facts_per_sec\": {:.1}", r.facts_per_sec));
        if let Some(base) = baseline.as_deref() {
            if let Some(b) = baseline_field(base, r.name, "wall_ms") {
                json.push_str(&format!(",\n      \"baseline_wall_ms\": {b:.3}"));
                json.push_str(&format!(",\n      \"speedup\": {:.2}", b / r.wall_ms));
            }
        }
        json.push_str("\n    }");
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write report");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
