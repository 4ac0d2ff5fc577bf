//! Per-layer metrics: span timings around the public calls, plus the
//! counters those calls return about themselves.
//!
//! The layers are the repository's modules: `parser`, `lint`, `flow` and
//! `reduce` (τ) of `multilog_core`; `eval` (the fixpoint), `query`,
//! `snapshot`, `magic` and `incremental` of `multilog_datalog`; and the
//! belief `server`. `bench` is the client's own work inside an op.

use std::collections::BTreeMap;

use multilog_core::CommitSummary;
use multilog_datalog::{DemandStats, EvalStats};

use crate::stats::{median, tail, tail_label};
use crate::trace::{self_times, span_cost_ns, Span, NO_PARENT};
use crate::Metric;

/// Counters gathered from the stats the public calls return.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Answers returned by the timed loop's `query.solve` calls.
    pub answers: u64,
    /// Number of those calls.
    pub solves: u64,
    /// Demand runs: the clearance index and the run's counters.
    pub demand: Vec<(usize, DemandStats)>,
    /// Full-fixpoint fact count per clearance index, where known.
    pub full_facts: BTreeMap<usize, usize>,
    /// Stats of the workload's top-clearance materialization.
    pub eval: Option<EvalStats>,
    /// Clauses of the reduced program at top clearance.
    pub clauses: Option<usize>,
    /// Commits: wall time of the whole call (ms) and what it reported.
    pub commits: Vec<(f64, CommitSummary)>,
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

/// Op span names of the timed loop; setup and oracle ops are excluded
/// from the layer shares.
const LOOP_OPS: [&str; 4] = ["op.read", "op.commit", "op.goal", "op.run"];

/// Every per-layer metric, the declared ones (`table::PER_LAYER`) and the
/// workload-specific extras.
pub fn per_layer(spans: &[Span], probe: &Probe) -> Vec<Metric> {
    let mut out = Vec::new();
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    };
    let mut timed = |metric: &str, span: &str, scale: f64, unit: &'static str, always: bool| {
        let d = durations(span);
        if always || !d.is_empty() {
            let v = if d.is_empty() {
                0.0
            } else {
                median(&d) / scale
            };
            out.push(Metric::new(metric, v, unit));
        }
    };
    timed("parser.db_ms", "parser.db", MS, "ms", true);
    timed("parser.goal_us", "parser.goal", US, "us", true);
    timed("lint.preflight_ms", "lint.preflight", MS, "ms", true);
    timed("flow.analyze_ms", "flow.analyze", MS, "ms", true);
    timed("reduce.tau_ms", "reduce.tau", MS, "ms", true);
    timed("eval.materialize_ms", "eval.materialize", MS, "ms", true);
    timed("query.solve_us", "query.solve", US, "us", true);
    timed("magic.demand_ms", "magic.demand", MS, "ms", true);
    timed("parser.clause_us", "parser.clause", US, "us", false);
    timed("snapshot.refresh_us", "snapshot.refresh", US, "us", false);
    timed("server.open_level_ms", "server.open_level", MS, "ms", false);
    if let Some((p, v)) = tail(&durations("query.solve")) {
        out.push(Metric::new(
            format!("query.solve_{}_us", tail_label(p)),
            v / US,
            "us",
        ));
    }

    // Self-time shares of the timed loop's ops, per layer.
    let selfs = self_times(spans);
    let mut loop_op = vec![false; spans.len()];
    let mut total = 0u64;
    for (i, s) in spans.iter().enumerate() {
        loop_op[i] = if s.parent == NO_PARENT {
            let is_loop = LOOP_OPS.contains(&s.name);
            if is_loop {
                total += s.duration_ns();
            }
            is_loop
        } else {
            loop_op[s.parent as usize]
        };
    }
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut loop_spans = 0usize;
    for (i, s) in spans.iter().enumerate() {
        if loop_op[i] {
            loop_spans += 1;
            let layer = match s.name.split_once('.') {
                Some(("op", _)) | None => "bench",
                Some((layer, _)) => layer,
            };
            *by_layer.entry(layer).or_default() += selfs[i];
        }
    }
    for layer in [
        "parser",
        "reduce",
        "eval",
        "query",
        "magic",
        "snapshot",
        "server",
        "incremental",
        "bench",
    ] {
        let share = if total == 0 {
            0.0
        } else {
            by_layer.get(layer).copied().unwrap_or(0) as f64 / total as f64 * 100.0
        };
        out.push(Metric::new(format!("{layer}.share_pct"), share, "%"));
    }

    out.push(Metric::new(
        "reduce.clauses",
        probe.clauses.unwrap_or(0) as f64,
        "count",
    ));
    out.extend(eval_metrics(probe.eval.as_ref()));
    if probe.solves > 0 {
        out.push(Metric::new(
            "query.answers_per_read",
            probe.answers as f64 / probe.solves as f64,
            "ratio",
        ));
    }
    out.extend(magic_metrics(probe));
    out.extend(commit_metrics(&probe.commits));
    // Tracing overhead: what recording the loop's spans cost, as a share
    // of the loop's op time.
    let overhead = if total == 0 {
        0.0
    } else {
        loop_spans as f64 * span_cost_ns() / total as f64 * 100.0
    };
    out.push(Metric::new("trace.overhead_pct", overhead, "%"));
    out
}

fn eval_metrics(stats: Option<&EvalStats>) -> Vec<Metric> {
    let default = EvalStats::default();
    let s = stats.unwrap_or(&default);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let probes: u64 = s.per_rule.iter().map(|r| r.join_probes).sum();
    let rule_wall: u64 = s.per_rule.iter().map(|r| r.wall_ns).sum();
    let top_rule = s.per_rule.iter().map(|r| r.wall_ns).max().unwrap_or(0);
    // A stratum is an algorithm (aggregate) stratum when one of its rules
    // calls an `@` operator (folds in its head).
    let strata_of = |pred: fn(&str) -> bool| -> Vec<usize> {
        let mut v: Vec<usize> = s
            .per_rule
            .iter()
            .filter(|r| pred(&r.rule))
            .map(|r| r.stratum)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let is_algo = |rule: &str| rule.contains(":- @") || rule.contains(", @");
    let is_aggregate = |rule: &str| {
        let head = rule.split(":-").next().unwrap_or("");
        ["count(", "sum(", "min(", "max("]
            .iter()
            .any(|f| head.contains(f))
    };
    let stratum_wall: u64 = s.per_stratum.iter().map(|t| t.wall_ns).sum();
    let wall_in = |strata: &[usize]| -> u64 {
        s.per_stratum
            .iter()
            .filter(|t| strata.contains(&t.stratum))
            .map(|t| t.wall_ns)
            .sum()
    };
    let algo = wall_in(&strata_of(is_algo));
    let aggregate = wall_in(&strata_of(is_aggregate));
    let mut out = vec![
        Metric::new("eval.facts", s.facts_added as f64, "count"),
        Metric::new("eval.iterations", s.iterations as f64, "count"),
        Metric::new(
            "eval.probes_per_fact",
            ratio(probes as f64, s.facts_added as f64),
            "ratio",
        ),
        Metric::new(
            "eval.useful_ratio",
            ratio(s.facts_added as f64, s.facts_considered as f64),
            "ratio",
        ),
        Metric::new(
            "eval.top_rule_share",
            ratio(top_rule as f64, rule_wall as f64),
            "ratio",
        ),
        Metric::new(
            "eval.algo_pct",
            ratio(algo as f64, stratum_wall as f64) * 100.0,
            "%",
        ),
        Metric::new(
            "eval.aggregate_pct",
            ratio(aggregate as f64, stratum_wall as f64) * 100.0,
            "%",
        ),
    ];
    if algo > 0 {
        out.push(Metric::new("eval.algo_ms", algo as f64 / MS, "ms"));
    }
    if aggregate > 0 {
        out.push(Metric::new(
            "eval.aggregate_ms",
            aggregate as f64 / MS,
            "ms",
        ));
    }
    out
}

fn magic_metrics(probe: &Probe) -> Vec<Metric> {
    let of = |f: fn(&DemandStats) -> usize| -> f64 {
        let v: Vec<f64> = probe.demand.iter().map(|(_, d)| f(d) as f64).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let fracs: Vec<f64> = probe
        .demand
        .iter()
        .filter_map(|(level, d)| {
            let full = *probe.full_facts.get(level)?;
            (full > 0).then(|| d.facts_materialized as f64 / full as f64)
        })
        .collect();
    vec![
        Metric::new(
            "magic.facts_materialized",
            of(|d| d.facts_materialized),
            "count",
        ),
        Metric::new(
            "magic.materialized_frac",
            if fracs.is_empty() {
                0.0
            } else {
                median(&fracs)
            },
            "ratio",
        ),
        Metric::new("magic.magic_facts", of(|d| d.magic_facts), "count"),
        Metric::new(
            "magic.adorned_predicates",
            of(|d| d.adorned_predicates),
            "count",
        ),
        Metric::new("magic.pruned_rules", of(|d| d.pruned_rules), "count"),
    ]
}

fn commit_metrics(commits: &[(f64, CommitSummary)]) -> Vec<Metric> {
    let level_sum = |s: &CommitSummary| s.levels.values().map(|c| c.wall_ms).sum::<f64>();
    let recomputed = commits
        .iter()
        .filter(|(_, s)| s.levels.values().any(|c| c.strata_recomputed > 0))
        .count();
    let (rederived, removed) = commits
        .iter()
        .flat_map(|(_, s)| s.levels.values())
        .fold((0usize, 0usize), |(r, d), c| {
            (r + c.rederived, d + c.derived_removed)
        });
    let deltas: Vec<f64> = commits
        .iter()
        .map(|(_, s)| {
            s.levels
                .values()
                .map(|c| (c.derived_added + c.derived_removed) as f64)
                .sum()
        })
        .collect();
    let wall: f64 = commits.iter().map(|(w, _)| w).sum();
    let overhead: f64 = commits.iter().map(|(w, s)| w - level_sum(s)).sum();
    let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = vec![
        Metric::new(
            "incremental.recompute_frac",
            frac(recomputed as f64, commits.len() as f64),
            "ratio",
        ),
        Metric::new(
            "incremental.rederive_ratio",
            frac(rederived as f64, (removed + rederived) as f64),
            "ratio",
        ),
        Metric::new(
            "incremental.derived_delta",
            if deltas.is_empty() {
                0.0
            } else {
                median(&deltas)
            },
            "count",
        ),
        Metric::new(
            "server.commit_overhead_pct",
            frac(overhead, wall) * 100.0,
            "%",
        ),
    ];
    if !commits.is_empty() {
        let per = |f: &dyn Fn(&(f64, CommitSummary)) -> f64| -> f64 {
            median(&commits.iter().map(f).collect::<Vec<_>>())
        };
        out.push(Metric::new(
            "incremental.level_commit_ms",
            per(&|(_, s)| level_sum(s)),
            "ms",
        ));
        out.push(Metric::new(
            "incremental.level_commit_max_ms",
            per(&|(_, s)| s.levels.values().map(|c| c.wall_ms).fold(0.0, f64::max)),
            "ms",
        ));
        out.push(Metric::new(
            "server.commit_overhead_ms",
            per(&|(w, s)| w - level_sum(s)),
            "ms",
        ));
    }
    out
}
