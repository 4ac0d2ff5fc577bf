//! The metric table `BENCHMARK.json` declares, compiled in. A test checks
//! that the two agree; `compare` reads the bounds from the JSON file.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in the JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

/// One declared workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

/// The workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "serve_read",
        why: "read-mostly BeliefServer traffic on 4 levels: snapshot queries do the work and \
              commits are rare, so the reader path shows here",
    },
    WorkloadDef {
        name: "serve_write",
        why: "commit-heavy BeliefServer traffic on 8 levels: every commit runs DRed in each \
              level engine, so incremental maintenance shows here",
    },
    WorkloadDef {
        name: "point_demand",
        why: "query --engine red point goals per clearance: the magic rewrite and demand cone \
              do all the work, with no server and no full fixpoint",
    },
    WorkloadDef {
        name: "cold_reduce",
        why: "run --engine red at top clearance above the beaten_h self-join cliff: tau, the \
              join core, @bfs and count strata do the work",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by every workload in the untraced run.
/// The "op" is the workload's unit of work: a read (serve_read), a commit
/// (serve_write), a demand goal (point_demand) or a whole run
/// (cold_reduce).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
];

/// Per-layer metrics, reported by every workload in the traced run.
pub const PER_LAYER: [MetricDef; 35] = [
    layer("parser.db_ms", "ms", Better::Lower),
    layer("parser.goal_us", "us", Better::Lower),
    layer("lint.preflight_ms", "ms", Better::Lower),
    layer("flow.analyze_ms", "ms", Better::Lower),
    layer("reduce.tau_ms", "ms", Better::Lower),
    layer("eval.materialize_ms", "ms", Better::Lower),
    layer("query.solve_us", "us", Better::Lower),
    layer("magic.demand_ms", "ms", Better::Lower),
    layer("parser.share_pct", "%", Better::Lower),
    layer("reduce.share_pct", "%", Better::Lower),
    layer("eval.share_pct", "%", Better::Lower),
    layer("query.share_pct", "%", Better::Lower),
    layer("magic.share_pct", "%", Better::Lower),
    layer("snapshot.share_pct", "%", Better::Lower),
    layer("server.share_pct", "%", Better::Lower),
    layer("incremental.share_pct", "%", Better::Lower),
    layer("bench.share_pct", "%", Better::Lower),
    layer("reduce.clauses", "count", Better::Lower),
    layer("eval.facts", "count", Better::Lower),
    layer("eval.iterations", "count", Better::Lower),
    layer("eval.probes_per_fact", "ratio", Better::Lower),
    layer("eval.useful_ratio", "ratio", Better::Higher),
    layer("eval.top_rule_share", "ratio", Better::Lower),
    layer("eval.algo_pct", "%", Better::Lower),
    layer("eval.aggregate_pct", "%", Better::Lower),
    layer("magic.facts_materialized", "count", Better::Lower),
    layer("magic.materialized_frac", "ratio", Better::Lower),
    layer("magic.magic_facts", "count", Better::Lower),
    layer("magic.adorned_predicates", "count", Better::Lower),
    layer("magic.pruned_rules", "count", Better::Higher),
    layer("incremental.recompute_frac", "ratio", Better::Lower),
    layer("incremental.rederive_ratio", "ratio", Better::Lower),
    layer("incremental.derived_delta", "count", Better::Lower),
    layer("server.commit_overhead_pct", "%", Better::Lower),
    layer("trace.overhead_pct", "%", Better::Lower),
];
