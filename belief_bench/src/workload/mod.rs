//! The four workloads, the closed loop that drives them, and what they
//! share: setup preflight, op timing, oracles bookkeeping and the
//! end-to-end metrics.
//!
//! Each workload runs in three phases. *Setup* goes from source text to
//! ready to serve, repeated (at least [`SETUP_REPS`] times) for
//! `setup_s`. The *timed loop* is one client thread sending its next op
//! only after the previous one completed. The *oracle* then checks
//! answers, outside every timer.

mod cold;
mod demand;
mod serve;

use std::collections::BTreeMap;
use std::time::Instant;

use multilog_core::{analyze_db, lint_source, MultiLogDb};

use crate::layers::{per_layer, Probe};
use crate::stats::{median, tail, tail_label};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Metric};

/// Setup runs at least this many times, and until [`SETUP_BUDGET_S`] has
/// passed (at most [`SETUP_MAX_REPS`] times); `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Cheap setups repeat until this much time has passed, so their median
/// rests on more samples.
const SETUP_BUDGET_S: f64 = 1.0;

/// Upper limit on setup repetitions.
const SETUP_MAX_REPS: usize = 50;

/// Room preallocated for spans in the traced run.
const SPAN_CAPACITY: usize = 1 << 20;

/// Mismatch messages kept per run.
const MAX_MISMATCHES: usize = 20;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-mostly server traffic on a 4-level lattice.
    ServeRead,
    /// Commit-heavy server traffic on an 8-level lattice.
    ServeWrite,
    /// Demand-driven point goals (`query --engine red`).
    PointDemand,
    /// Cold batch reduction at top clearance (`run --engine red`).
    ColdReduce,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeRead,
        Workload::ServeWrite,
        Workload::PointDemand,
        Workload::ColdReduce,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve_read",
            Workload::ServeWrite => "serve_write",
            Workload::PointDemand => "point_demand",
            Workload::ColdReduce => "cold_reduce",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. The benchmark always runs [`Scale::Full`]; the tests use
/// [`Scale::Tiny`] to smoke every workload in well under a second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// A few dozen cells, for tests.
    Tiny,
}

/// How to run one workload.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed loop, in seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted (warm-up included).
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Oracle mismatches; empty when every answer was right.
    pub mismatches: Vec<String>,
    /// Every metric measured: the end-to-end ones, workload-specific
    /// extras and, when traced, the per-layer ones.
    pub metrics: Vec<Metric>,
    /// The spans of the traced run (empty otherwise).
    pub tracer: Tracer,
}

impl Outcome {
    /// Whether every oracle agreed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Run `workload` under `opts`.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    let mut ctx = Ctx {
        tracer: Tracer::new(opts.trace, SPAN_CAPACITY),
        probe: Probe::default(),
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
        trace_run: opts.trace,
    };
    let measured = match workload {
        Workload::ServeRead => serve::run(&mut ctx, opts, false),
        Workload::ServeWrite => serve::run(&mut ctx, opts, true),
        Workload::PointDemand => demand::run(&mut ctx, opts),
        Workload::ColdReduce => cold::run(&mut ctx, opts),
    };
    let mut metrics = Vec::new();
    match measured {
        Ok(m) => {
            metrics = end_to_end(&m, ctx.attempted, ctx.failed);
            if opts.trace {
                metrics.extend(per_layer(ctx.tracer.spans(), &ctx.probe));
            }
        }
        Err(e) => ctx.mismatch(e),
    }
    Outcome {
        attempted: ctx.attempted,
        failed: ctx.failed,
        mismatches: ctx.mismatches,
        metrics,
        tracer: ctx.tracer,
    }
}

/// Per-run state threaded through a workload.
pub(crate) struct Ctx {
    pub tracer: Tracer,
    pub probe: Probe,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    trace_run: bool,
}

impl Ctx {
    /// Run `f` (one public call) inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.time(name, f)
    }

    /// Run `f` as one op: a root span named `name` around everything
    /// `f` does through the context.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let id = self.tracer.enter(name);
        let out = f(self);
        self.tracer.exit(id);
        out
    }

    /// Record an oracle mismatch.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        if self.mismatches.len() < MAX_MISMATCHES {
            self.mismatches.push(what.into());
        }
    }

    /// Run setup repeatedly (see [`SETUP_REPS`]), timing each run, and
    /// keep the last result (earlier ones are dropped before the next
    /// repetition).
    pub fn setup<T>(
        &mut self,
        mut f: impl FnMut(&mut Ctx) -> Result<T, String>,
    ) -> Result<(T, Vec<f64>), String> {
        let mut times: Vec<f64> = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        while times.len() < SETUP_REPS
            || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS)
        {
            drop(last.take());
            let start = Instant::now();
            let built = self.op("op.setup", &mut f)?;
            times.push(start.elapsed().as_secs_f64());
            last = Some(built);
        }
        Ok((last.expect("SETUP_REPS > 0"), times))
    }

    /// Drive `op` in a closed loop: untimed, untraced warm-up ops until
    /// both `warm.0` seconds and `warm.1` ops have passed, then timed ops
    /// for `seconds` (and at least `min_ops`). `op` returns its kind and
    /// whether it succeeded; only successful ops are timed.
    pub fn closed_loop(
        &mut self,
        warm: (f64, usize),
        seconds: f64,
        min_ops: usize,
        primary: &'static str,
        mut op: impl FnMut(&mut Ctx) -> (&'static str, bool),
    ) -> LoopTimes {
        let mut run_op = |ctx: &mut Ctx| {
            let start = Instant::now();
            let (kind, ok) = op(ctx);
            ctx.attempted += 1;
            if !ok {
                ctx.failed += 1;
            }
            (kind, ok, start.elapsed().as_secs_f64())
        };
        self.tracer.set_enabled(false);
        let warm_start = Instant::now();
        let mut warmed = 0;
        while warmed < warm.1 || warm_start.elapsed().as_secs_f64() < warm.0 {
            run_op(self);
            warmed += 1;
        }
        self.tracer.set_enabled(self.trace_run);
        let mut times = LoopTimes {
            primary,
            ..LoopTimes::default()
        };
        let start = Instant::now();
        let mut done = 0usize;
        while done < min_ops || start.elapsed().as_secs_f64() < seconds {
            let (kind, ok, secs) = run_op(self);
            if ok {
                times.by_kind.entry(kind).or_default().push(secs);
            }
            done += 1;
        }
        times.wall = start.elapsed().as_secs_f64();
        times
    }
}

/// Latencies of the timed loop's successful ops, in seconds, by kind.
#[derive(Debug, Default)]
pub(crate) struct LoopTimes {
    pub primary: &'static str,
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
    pub wall: f64,
}

/// What a workload hands back for the end-to-end metrics.
pub(crate) struct Measured {
    pub setup_s: Vec<f64>,
    pub times: LoopTimes,
    pub peak_rss_mb: f64,
}

/// Peak RSS after the timed loop, before any oracle allocates.
pub(crate) fn rss_now() -> f64 {
    peak_rss_mb().unwrap_or(f64::NAN)
}

/// The parse-independent preflight every workload's setup runs, as the
/// CLI does before serving: the lint pass and the lattice-flow analysis.
pub(crate) fn preflight(ctx: &mut Ctx, src: &str, db: &MultiLogDb) -> Result<(), String> {
    let report = ctx
        .span("lint.preflight", || lint_source(src))
        .map_err(|e| format!("lint: {e}"))?;
    if report.has_errors() {
        return Err(format!(
            "lint refused the generated source: {}",
            report.summary()
        ));
    }
    let flow = ctx.span("flow.analyze", || analyze_db(db));
    std::hint::black_box(flow);
    Ok(())
}

/// Clauses of a reduced program's text.
pub(crate) fn clause_count(program_text: &str) -> Option<usize> {
    multilog_datalog::parse_program(program_text)
        .ok()
        .map(|p| p.clauses().len())
}

/// Metric prefix, unit and scale from seconds for each op kind.
fn kind_unit(kind: &str) -> (&'static str, &'static str, f64) {
    match kind {
        "read" => ("read", "us", 1e6),
        "commit" => ("commit", "ms", 1e3),
        "goal" => ("demand", "ms", 1e3),
        _ => ("run", "s", 1.0),
    }
}

/// The end-to-end metrics, plus each op kind's median, tail and sample
/// count and the failed share.
fn end_to_end(m: &Measured, attempted: u64, failed: u64) -> Vec<Metric> {
    let t = &m.times;
    let primary = t.by_kind.get(t.primary).map_or(&[][..], Vec::as_slice);
    let completed: usize = t.by_kind.values().map(Vec::len).sum();
    let mut out = vec![
        Metric::new("setup_s", median(&m.setup_s), "s"),
        Metric::new("op_p50_ms", median(primary) * 1e3, "ms"),
        Metric::new("ops_per_s", completed as f64 / t.wall, "1/s"),
        Metric::new("peak_rss_mb", m.peak_rss_mb, "MB"),
        Metric::new("setup.samples", m.setup_s.len() as f64, "count"),
    ];
    for (kind, lat) in &t.by_kind {
        let (prefix, unit, scale) = kind_unit(kind);
        out.push(Metric::new(
            format!("{prefix}_p50_{unit}"),
            median(lat) * scale,
            unit,
        ));
        if let Some((p, v)) = tail(lat) {
            out.push(Metric::new(
                format!("{prefix}_{}_{unit}", tail_label(p)),
                v * scale,
                unit,
            ));
        }
        out.push(Metric::new(
            format!("{prefix}.samples"),
            lat.len() as f64,
            "count",
        ));
    }
    out.push(Metric::new(
        "failed_frac",
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        },
        "ratio",
    ));
    out
}
