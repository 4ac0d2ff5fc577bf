//! `belief_bench`: run one workload, or compare saved runs.
//!
//! ```text
//! belief_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!              [--out FILE] [--spans FILE]
//! belief_bench compare [--benchmark BENCHMARK.json] <runsA…> -- <runsB…>
//! ```
//!
//! A run prints every metric as `name value unit`, then, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and the
//! declared metrics: the end-to-end ones untraced, the per-layer ones
//! with `--trace 1`. `--out` saves the full report (every metric) for
//! `compare`; `--spans` saves the traced run's spans. A wrong answer
//! exits 1, a usage error 2.

use std::process::ExitCode;

use belief_bench::compare::{compare, load_bounds, load_run};
use belief_bench::json::{number, quote};
use belief_bench::table::{END_TO_END, PER_LAYER, RUN_SECONDS};
use belief_bench::workload::{run, Options, Outcome, Scale, Workload};
use belief_bench::{find, Metric};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..])
    } else {
        run_workload(&args)
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("belief_bench: {msg}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut out = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer")?,
                );
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds needs a positive number of seconds (at most 3600)")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => out = Some(value()?),
            "--spans" => spans = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
        spans,
    })
}

fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(args)?;
    let outcome = run(
        args.workload,
        &Options {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            scale: Scale::Full,
        },
    );
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, number(m.value), m.unit);
    }
    for m in &outcome.mismatches {
        println!("MISMATCH {m}");
    }
    let declared = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut reported = Vec::with_capacity(declared.len());
    for def in declared {
        match find(&outcome.metrics, def.name) {
            Some(m) => reported.push(m.clone()),
            None if !outcome.correct() => {}
            None => return Err(format!("internal: metric `{}` was not measured", def.name)),
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, report_json(&args, &outcome))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &args.spans {
        std::fs::write(path, outcome.tracer.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&reported)
    );
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn report_json(args: &Args, outcome: &Outcome) -> String {
    let mismatches: Vec<String> = outcome.mismatches.iter().map(|m| quote(m)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"mismatches\": [{}], \"metrics\": {}}}\n",
        quote(args.workload.name()),
        args.seed,
        number(args.seconds),
        args.trace,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        mismatches.join(", "),
        metrics_json(&outcome.metrics)
    )
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let mut benchmark = "BENCHMARK.json".to_owned();
    let mut sides: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => {
                benchmark = it.next().cloned().ok_or("--benchmark needs a path")?;
            }
            "--" if side == 0 => side = 1,
            path => sides[side].push(path.to_owned()),
        }
    }
    if sides.iter().any(Vec::is_empty) {
        return Err("usage: belief_bench compare <runsA…> -- <runsB…>".to_owned());
    }
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let bounds = load_bounds(&read(&benchmark)?).map_err(|e| format!("{benchmark}: {e}"))?;
    let load = |paths: &[String]| -> Result<Vec<_>, String> {
        paths
            .iter()
            .map(|p| load_run(&read(p)?).map_err(|e| format!("{p}: {e}")))
            .collect()
    };
    print!("{}", compare(&bounds, &load(&sides[0])?, &load(&sides[1])?));
    Ok(ExitCode::SUCCESS)
}
