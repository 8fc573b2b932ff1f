//! Command line of the VDX benchmark.
//!
//! ```text
//! vdx-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! vdx-benchmark [all] [--seed N] [--seconds S] [--repeat N] [--vary-seed]
//!               [--trace 0|1] [--quick] [--out FILE]
//! vdx-benchmark compare A.json B.json
//! ```
//!
//! The first form runs one workload in this process and prints, as its last
//! line, the result object `BENCHMARK.json` describes. The second runs every
//! workload, each in a child process of its own, and writes a result file.

use std::process::{Command, ExitCode, Stdio};

use vdx_benchmark::compare::{self, metric_values};
use vdx_benchmark::json::{self, Value};
use vdx_benchmark::report::{median, quartiles, Outcome, END_TO_END, PER_LAYER, RUN_SECONDS};
use vdx_benchmark::run::{out_dir, prepare, run_timed};
use vdx_benchmark::script::{spec, WORKLOADS};
use vdx_benchmark::trace::run_traced;

const QUICK_SECONDS: f64 = 0.5;
const DEFAULT_SEED: u64 = 42;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    vary_seed: bool,
    out: Option<String>,
    /// Hidden: do the first set-up into this directory and exit (the child
    /// half of a timed run).
    prepare: Option<String>,
    positional: Vec<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        vary_seed: false,
        out: None,
        prepare: None,
        positional: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        fn number<T: std::str::FromStr>(name: &str, text: String) -> Result<T, String> {
            text.parse().map_err(|_| format!("bad {name} '{text}'"))
        }
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--repeat" => args.repeat = number("--repeat", value("--repeat")?)?,
            "--out" => args.out = Some(value("--out")?),
            "--prepare" => args.prepare = Some(value("--prepare")?),
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0 or 1)")),
                }
            }
            "--quick" => args.quick = true,
            "--vary-seed" => args.vary_seed = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg),
        }
    }
    if args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) || args.repeat == 0 {
        return Err("--seconds and --repeat must be positive".to_string());
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            RUN_SECONDS
        })
    }
}

/// Run one workload here; print its metrics, its detail line and, last, its
/// result line.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let spec = spec(workload, args.quick).ok_or(format!(
        "unknown workload '{workload}' (one of {})",
        WORKLOADS.join(", ")
    ))?;
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    if let Some(dir) = &args.prepare {
        return prepare(&spec, args.seed, std::path::Path::new(dir))
            .map(|()| true)
            .map_err(|e| format!("{workload}: {e}"));
    }
    let outcome = if args.trace {
        run_traced(&spec, args.seed)
    } else {
        run_timed(&spec, args.seed, args.seconds())
    }
    .map_err(|e| format!("{workload}: {e}"))?;
    for (name, value, unit) in &outcome.metrics {
        println!("{workload} {name} {value} {unit}");
    }
    println!("{}", outcome.detail);
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

/// Run `workload` in a child process and read back its last two lines.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let mut next = || {
        lines
            .next()
            .ok_or(format!("{workload}: no result ({})", output.status))
            .and_then(|line| json::parse(line).map_err(|e| format!("{workload}: {e}")))
    };
    let (result, detail) = (next()?, next()?);
    let defs: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = defs
        .into_iter()
        .map(|(name, unit)| {
            let value = result.get("metrics")?.get(name)?.get("value")?.as_f64()?;
            Some((name, value, unit))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or(format!("{workload}: result lacks a metric"))?;
    let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    Ok(Outcome {
        correct: output.status.success()
            && result.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
        detail,
    })
}

fn run_record(workload: &str, repeat: usize, outcome: &Outcome) -> Value {
    let mut fields = vec![
        ("workload".to_string(), Value::str(workload)),
        ("repeat".to_string(), Value::Num(repeat as f64)),
    ];
    fields.extend(outcome.result_line().fields().iter().cloned());
    fields.push(("detail".to_string(), outcome.detail.clone()));
    Value::Obj(fields)
}

/// Run the whole set `--repeat` times and report medians and quartiles.
fn run_all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut traces = Vec::new();
    let mut ok = true;
    for repeat in 0..args.repeat {
        let seed = args.seed + if args.vary_seed { repeat as u64 } else { 0 };
        let mut digests = Vec::new();
        for workload in WORKLOADS {
            let outcome = run_child(args, workload, seed, false)?;
            let digest = outcome.detail.get("reply_digest").and_then(Value::as_str);
            eprintln!(
                "[{}/{}] {workload} seed {seed}: correct={} failed={}/{} digest={}",
                repeat + 1,
                args.repeat,
                outcome.correct,
                outcome.failed,
                outcome.attempted,
                digest.unwrap_or("-"),
            );
            ok &= outcome.correct;
            digests.push(digest.map(str::to_string));
            runs.push(run_record(workload, repeat, &outcome));
        }
        // Same script through a different topology: same reply bytes.
        if digests[0].is_none() || digests[0] != digests[3] {
            eprintln!("reply digests of explore_warm and cluster_scatter differ");
            ok = false;
        }
    }
    if args.trace {
        for workload in WORKLOADS {
            let outcome = run_child(args, workload, args.seed, true)?;
            ok &= outcome.correct;
            traces.push(run_record(workload, 0, &outcome));
        }
    }
    let results = Value::obj([
        ("quick", Value::Bool(args.quick)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds())),
        ("repeat", Value::Num(args.repeat as f64)),
        ("runs", Value::Arr(runs)),
        ("traces", Value::Arr(traces)),
    ]);

    let mark = if args.quick {
        " (quick: not comparable)"
    } else {
        ""
    };
    println!(
        "end-to-end, median [q1 .. q3] over {} run(s){mark}",
        args.repeat
    );
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let values = metric_values(&results, workload, metric.name);
            let (q1, q3) = quartiles(&values).unwrap_or((values[0], values[0]));
            println!(
                "{workload:<16} {:<22} {:>14.4} [{q1:.4} .. {q3:.4}] {:<6} spread {:.1}% of bound {:.0}%",
                metric.name,
                median(&values),
                metric.unit,
                compare::spread(&values) * 100.0,
                metric.bound * 100.0
            );
        }
    }
    for trace in results.get("traces").map(Value::as_arr).unwrap_or_default() {
        let workload = trace.get("workload").and_then(Value::as_str).unwrap_or("?");
        let layer = |name: &str| trace.get("metrics")?.get(name)?.get("value")?.as_f64();
        println!("per-layer, {workload}{mark}");
        for (name, unit) in PER_LAYER {
            println!(
                "  {name:<38} {:>14.4} {unit}",
                layer(name).unwrap_or(f64::NAN)
            );
        }
        let p50_us = median(&metric_values(&results, workload, "p50_ms")) * 1e3;
        println!(
            "  traced wire p50 / untraced p50      {:>14.4} ratio",
            layer("trace.wire_p50_us").unwrap_or(f64::NAN) / p50_us
        );
    }

    let default_name = if args.quick {
        "results_quick.json"
    } else {
        "results.json"
    };
    let path = args
        .out
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| out_dir().join(default_name));
    std::fs::write(&path, format!("{results}\n")).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("vdx-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    let outcome = match (&args.workload, positional.as_slice()) {
        (Some(workload), []) => run_one(&args, workload),
        (None, [] | ["all"]) => run_all(&args),
        (None, ["compare", a, b]) => compare::load(a).and_then(|a| {
            let (table, within) = compare::compare(&a, &compare::load(b)?);
            print!("{table}");
            Ok(within)
        }),
        _ => Err("usage: [--workload W | all | compare A.json B.json] [options]".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("vdx-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
