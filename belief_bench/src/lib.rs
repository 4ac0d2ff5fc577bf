//! `belief_bench`: the end-to-end and per-layer benchmark of the MultiLog
//! belief engine.
//!
//! One invocation runs one workload in its own process, from MultiLog
//! source text generated from a seed ([`gen`]). The load is a single
//! client thread in a closed loop, and every timed call goes through a
//! public function of `multilog_core` or `multilog_datalog`; nothing is
//! instrumented inside the engine. Answers are checked by oracles outside
//! the timers.
//!
//! * [`workload`] — the four workloads and their oracles;
//! * [`trace`] — spans recorded around the public calls in the traced run;
//! * [`layers`] — per-layer metrics derived from the spans and the stats
//!   the calls return;
//! * [`stats`] — medians, tail percentiles and quartiles;
//! * [`table`] — the metric table `BENCHMARK.json` declares;
//! * [`compare`] — the two-sided comparison of saved runs;
//! * [`json`] — the std-only JSON reader `compare` and the tests use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod gen;
pub mod json;
pub mod layers;
pub mod stats;
pub mod table;
pub mod trace;
pub mod workload;

/// One measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, `layer.quantity` for per-layer metrics.
    pub name: String,
    /// The value as measured (never rounded).
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Look a metric up by name.
pub fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
