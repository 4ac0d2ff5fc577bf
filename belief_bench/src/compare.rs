//! `belief_bench compare <runsA…> -- <runsB…>`: the two-sided comparison
//! of saved run reports (the `--out` files), per workload and end-to-end
//! metric, against the bounds `BENCHMARK.json` declares.
//!
//! For each metric it prints both sides' median and quartiles and how
//! often B beat A in the pairs (A₁,B₁), (A₂,B₂), … Verdicts:
//! `regressed` when B's median is worse than A's by more than the bound;
//! `unresolved` when either side's quartile spread is wider than the
//! bound, unless every B run beats every A run; `improved` when B wins at
//! least nine tenths of the pairs and the medians differ by more than A's
//! quartile spread; `same` otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::stats::quartiles;
use crate::table::Better;

/// One saved run: its workload and every metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// A declared end-to-end metric with its bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening, as a share of A's median.
    pub bound: f64,
}

/// Parse a run report written by `--out`.
///
/// # Errors
///
/// Malformed JSON, or a report without `workload` and `metrics`.
pub fn load_run(text: &str) -> Result<Run, String> {
    let v = json::parse(text)?;
    let workload = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("report has no `workload`")?
        .to_owned();
    let Some(Value::Obj(members)) = v.get("metrics") else {
        return Err("report has no `metrics` object".to_owned());
    };
    let metrics = members
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Run { workload, metrics })
}

/// The end-to-end metrics and bounds declared in `BENCHMARK.json`.
///
/// # Errors
///
/// Malformed JSON or a malformed `end_to_end` entry.
pub fn load_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v = json::parse(benchmark_json)?;
    let entries = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` array")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks `{k}`"))
            };
            let better = match field("better")?.as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("bad `better`: {other:?}")),
            };
            Ok(Bound {
                name: field("name")?.as_str().ok_or("bad `name`")?.to_owned(),
                unit: field("unit")?.as_str().ok_or("bad `unit`")?.to_owned(),
                better,
                bound: field("bound")?.as_f64().ok_or("bad `bound`")?,
            })
        })
        .collect()
}

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread is wider than the bound: no conclusion.
    Unresolved,
    /// B is better by the pair-win rule.
    Improved,
    /// Within the bound.
    Same,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
            Verdict::Same => "same",
        }
    }
}

/// Judge B against A for one metric.
pub fn verdict(bound: &Bound, a: &[f64], b: &[f64]) -> Verdict {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    // Positive when `x` is better than `y`.
    let gain = |x: f64, y: f64| match bound.better {
        Better::Lower => y - x,
        Better::Higher => x - y,
    };
    let worse_by = -gain(bm, am) / am.abs();
    if worse_by > bound.bound {
        return Verdict::Regressed;
    }
    let spread = ((a3 - a1) / am.abs()).max((b3 - b1) / bm.abs());
    if spread > bound.bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| gain(y, x) > 0.0));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| gain(y, x) > 0.0).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(bm, am) > a3 - a1 {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

/// The comparison table of runs `a` (parent) against runs `b` (change).
pub fn compare(bounds: &[Bound], a: &[Run], b: &[Run]) -> String {
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<12} {:>5} | {:>30} | {:>30} | {:>7} | verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    for w in workloads {
        let side = |runs: &[Run], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        for bound in bounds {
            let (va, vb) = (side(a, &bound.name), side(b, &bound.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let fmt = |v: &[f64]| {
                let (q1, m, q3) = quartiles(v);
                format!("{m:.4} [{q1:.4}, {q3:.4}]")
            };
            let gain = |x: f64, y: f64| match bound.better {
                Better::Lower => x < y,
                Better::Higher => x > y,
            };
            let wins = va.iter().zip(&vb).filter(|(&x, &y)| gain(y, x)).count();
            let _ = writeln!(
                out,
                "{w:<13} {:<12} {:>5} | {:>30} | {:>30} | {:>3}/{:<3} | {}",
                bound.name,
                bound.unit,
                fmt(&va),
                fmt(&vb),
                wins,
                va.len().min(vb.len()),
                verdict(bound, &va, &vb).as_str()
            );
        }
    }
    out
}
