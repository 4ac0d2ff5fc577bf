//! Tests of the benchmark's own machinery: the tail-percentile rule,
//! seed determinism of the generated sources, span self-time arithmetic,
//! the compare verdicts, the metric table against `BENCHMARK.json`, and
//! a tiny-size smoke of every workload with its oracles on.

use belief_bench::compare::{compare, load_bounds, load_run, verdict, Bound, Run, Verdict};
use belief_bench::gen::{agency_db, belief_db, AgencySpec, BeliefSpec};
use belief_bench::json::{self, Value};
use belief_bench::stats::{percentile, quartiles, tail};
use belief_bench::table::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use belief_bench::trace::{self_times, Span, Tracer, NO_PARENT};
use belief_bench::workload::{run, Options, Scale, Workload};
use belief_bench::{find, Metric};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // Below 100 samples even p90 has fewer than ten beyond it.
    assert_eq!(tail(&ramp(99)), None);
    assert_eq!(tail(&[]), None);
    assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
    assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(90.0));
    assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
    assert_eq!(tail(&ramp(9999)).map(|t| t.0), Some(99.0));
    assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
    assert_eq!(tail(&ramp(100_000)).map(|t| t.0), Some(99.99));
    // Order of the input does not matter.
    let mut shuffled = ramp(1000);
    shuffled.reverse();
    assert_eq!(tail(&shuffled), Some((99.0, 990.0)));
    assert_eq!(percentile(&ramp(10), 50.0), 5.0);
}

#[test]
fn quartiles_match_python_statistics() {
    // Reference values from `statistics.quantiles(values, n=4)`.
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
}

#[test]
fn same_seed_same_source_other_seed_other_source() {
    let spec = BeliefSpec {
        depth: 4,
        cells: 400,
        cells_per_key: 4,
        rules: 10,
    };
    let a = belief_db(spec, 7);
    assert_eq!(a.source, belief_db(spec, 7).source);
    assert_ne!(a.source, belief_db(spec, 8).source);
    // Sizes are exact whatever the seed.
    assert_eq!(a.cells.len(), belief_db(spec, 8).cells.len());
    assert_eq!(a.source, a.source_with(&a.cells));

    let agency = AgencySpec {
        belief: spec,
        emp_cells: 100,
        emp_keys: 20,
        staff: 50,
    };
    let b = agency_db(agency, 3);
    assert_eq!(b.source, agency_db(agency, 3).source);
    assert_ne!(b.source, agency_db(agency, 4).source);
    assert_eq!(b.emp_per_level.iter().sum::<usize>(), 100);
}

fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
    Span {
        name: "x.y",
        start_ns,
        end_ns,
        parent,
        op: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_inside_the_span() {
    let spans = [
        span(0, 100, NO_PARENT),
        // Overlapping children count once; the part past the parent's
        // end does not count.
        span(10, 30, 0),
        span(20, 50, 0),
        span(90, 120, 0),
        // A grandchild is its child's business only.
        span(12, 18, 1),
    ];
    assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
}

#[test]
fn tracer_links_parents_ops_and_reported_children() {
    let mut t = Tracer::new(true, 16);
    let op = t.enter("op.read");
    t.time("query.solve", || ());
    t.reported_children("incremental.level_commit", &[0, 0]);
    t.exit(op);
    t.time("op.goal", || ());
    let spans = t.spans();
    assert_eq!(spans.len(), 5);
    assert_eq!(spans[0].parent, NO_PARENT);
    assert!(spans[1..4]
        .iter()
        .all(|s| s.parent == 0 && s.op == spans[0].op));
    assert_ne!(spans[4].op, spans[0].op);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(json::parse(&t.to_json()).is_ok());

    let mut off = Tracer::new(false, 16);
    let id = off.enter("op.read");
    off.exit(id);
    assert!(off.spans().is_empty());
}

fn bound(better: Better) -> Bound {
    Bound {
        name: "m".to_owned(),
        unit: "ms".to_owned(),
        better,
        bound: 0.1,
    }
}

#[test]
fn compare_verdicts_follow_bounds_and_spreads() {
    let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
    let lower = bound(Better::Lower);
    assert_eq!(
        verdict(&lower, &parent, &[120.0, 121.0, 119.0, 120.5, 119.5]),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(&lower, &parent, &[100.2, 100.8, 99.4, 100.1, 99.9]),
        Verdict::Same
    );
    assert_eq!(
        verdict(&lower, &parent, &[90.0, 90.5, 89.0, 90.2, 89.8]),
        Verdict::Improved
    );
    assert_eq!(
        verdict(&lower, &parent, &[60.0, 140.0, 100.0, 70.0, 130.0]),
        Verdict::Unresolved
    );
    // For a throughput, higher is better.
    assert_eq!(
        verdict(
            &bound(Better::Higher),
            &parent,
            &[85.0, 86.0, 84.0, 85.5, 84.5]
        ),
        Verdict::Regressed
    );

    let bounds = load_bounds(&std::fs::read_to_string(benchmark_json()).unwrap()).unwrap();
    let runs = |workload: &str, ms: &[f64]| -> Vec<Run> {
        ms.iter()
            .map(|v| {
                load_run(&format!(
                    "{{\"workload\": \"{workload}\", \"metrics\": \
                     {{\"op_p50_ms\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}"
                ))
                .unwrap()
            })
            .collect()
    };
    let table = compare(
        &bounds,
        &runs("serve_read", &parent),
        &runs("serve_read", &[130.0, 131.0, 129.0]),
    );
    assert!(table.contains("serve_read"), "{table}");
    assert!(table.contains("op_p50_ms"), "{table}");
    assert!(table.contains("regressed"), "{table}");
}

fn benchmark_json() -> String {
    format!("{}/../BENCHMARK.json", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn compiled_table_equals_benchmark_json() {
    let text = std::fs::read_to_string(benchmark_json()).expect("BENCHMARK.json at the repo root");
    let v = json::parse(&text).expect("BENCHMARK.json parses");
    let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_owned();
    assert_eq!(
        v.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS as f64)
    );
    let paths = v.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths, [Value::Str("belief_bench".to_owned())]);

    let workloads = v.get("workloads").and_then(Value::as_array).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(str_of(j, "name"), w.name);
        assert_eq!(str_of(j, "why"), w.why);
        assert!(Workload::from_name(w.name).is_some());
    }
    let check = |key: &str, table: &[belief_bench::table::MetricDef]| {
        let entries = v.get(key).and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), table.len(), "{key}");
        for (j, m) in entries.iter().zip(table) {
            assert_eq!(str_of(j, "name"), m.name, "{key}");
            assert_eq!(str_of(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                j.get("bound").and_then(Value::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
    };
    check("end_to_end", &END_TO_END);
    check("per_layer", &PER_LAYER);
}

/// Per-layer time metrics that every workload exercises.
const LAYER_TIMES: [&str; 8] = [
    "parser.db_ms",
    "parser.goal_us",
    "lint.preflight_ms",
    "flow.analyze_ms",
    "reduce.tau_ms",
    "eval.materialize_ms",
    "query.solve_us",
    "magic.demand_ms",
];

fn smoke(workload: Workload, trace: bool) -> Vec<Metric> {
    let outcome = run(
        workload,
        &Options {
            seed: 5,
            seconds: 0.2,
            trace,
            scale: Scale::Tiny,
        },
    );
    assert!(
        outcome.correct(),
        "{}: {:?}",
        workload.name(),
        outcome.mismatches
    );
    assert_eq!(outcome.failed, 0, "{}", workload.name());
    assert!(outcome.attempted > 0, "{}", workload.name());
    assert_eq!(outcome.tracer.spans().is_empty(), !trace);
    outcome.metrics
}

#[test]
fn every_workload_runs_tiny_with_oracles_and_reports_every_metric() {
    for workload in Workload::ALL {
        let untraced = smoke(workload, false);
        for def in END_TO_END {
            let m = find(&untraced, def.name)
                .unwrap_or_else(|| panic!("{}: no {}", workload.name(), def.name));
            assert!(
                m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
            assert_eq!(m.unit, def.unit);
        }
        let traced = smoke(workload, true);
        for def in PER_LAYER {
            let m = find(&traced, def.name)
                .unwrap_or_else(|| panic!("{}: no {}", workload.name(), def.name));
            assert!(m.value.is_finite(), "{}: {}", workload.name(), m.name);
            assert_eq!(m.unit, def.unit);
        }
        for name in LAYER_TIMES {
            let m = find(&traced, name).unwrap();
            assert!(m.value > 0.0, "{}: {name} not exercised", workload.name());
        }
    }
}
