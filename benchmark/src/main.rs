//! The repo benchmark.  See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--repeat N]
//! benchmark compare A.json B.json
//! benchmark manifest
//! ```
//!
//! `run --workload W` is one run of one workload in this process; its last
//! line of output is the result as one JSON object.  Without `--workload`,
//! `run` starts every workload in a child process of its own, untraced and
//! traced, prints every metric and writes `benchmark/out/results.json`.

mod compare;
mod count;
mod deploy;
mod hist;
mod json;
mod metrics;
mod ops;
mod run;
mod timed;
mod trace;
mod traced;
mod verify;

use json::Json;
use metrics::RUN_SECONDS;
use ops::WORKLOADS;
use run::{Outcome, RunArgs, OUT_DIR};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--repeat N] | compare A.json B.json | manifest";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_run_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |s: &String| {
            s.parse::<f64>()
                .map_err(|_| format!("{flag}: {s} is not a number"))
        };
        match flag.as_str() {
            "--smoke" => cli.smoke = true,
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| format!("{flag} takes a whole number"))?
            }
            "--repeat" => {
                cli.repeat = value()?
                    .parse()
                    .map_err(|_| format!("{flag} takes a whole number"))?
            }
            "--trace" => cli.trace = number(value()?)? != 0.0,
            "--seconds" => {
                let seconds = number(value()?)?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], not {seconds}"));
                }
                cli.seconds = Some(seconds);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(workload) = &cli.workload {
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; the workloads are {WORKLOADS:?}"
            ));
        }
    }
    Ok(cli)
}

impl Cli {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 1.0 } else { RUN_SECONDS as f64 })
    }
}

/// The result line of the contract: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(outcome: &Outcome) -> Json {
    let metrics = outcome.metrics.iter().map(|m| {
        let metric = Json::object([
            ("value", Json::Num(m.value)),
            ("unit", Json::Str(m.unit.into())),
        ]);
        (m.name.clone(), metric)
    });
    Json::object([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::object(metrics)),
    ])
}

/// One workload in this process.  Exits non-zero on a failed check, a failed
/// op, or a metric that is not a finite number.
fn run_one(cli: &Cli, workload: &str) -> Result<bool, String> {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds(),
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let outcome = run::run(&args).map_err(|e| format!("{workload}: {e}"))?;
    for m in &outcome.metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{workload} failed_share {failed_share} ratio");
    let (clients, degraded) = run::clients(workload);
    let degraded = if degraded { " (degraded)" } else { "" };
    println!("{workload} clients {clients} count{degraded}");
    for note in &outcome.notes {
        eprintln!("{workload}: CHECK FAILED: {note}");
    }
    println!("{}", result_line(&outcome).render());
    Ok(outcome.correct && outcome.failed == 0)
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, each run in a child process of its own (so `rss_peak_mb`
/// and first-touch costs belong to one workload), untraced then traced.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut clean = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let mut groups = Vec::new();
        for (group, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let mut runs: Vec<(String, Vec<Json>)> = Vec::new();
            for _ in 0..cli.repeat {
                let mut child = Command::new(&exe);
                child.args(["run", "--workload", workload, "--trace", trace]);
                child.args([
                    "--seed",
                    &cli.seed.to_string(),
                    "--seconds",
                    &cli.seconds().to_string(),
                ]);
                if cli.smoke {
                    child.arg("--smoke");
                }
                let output = child
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("starting {workload}: {e}"))?;
                clean &= output.status.success();
                let stdout = String::from_utf8_lossy(&output.stdout);
                let mut lines: Vec<&str> = stdout.lines().collect();
                let result = lines.pop().and_then(|last| Json::parse(last).ok());
                lines.iter().for_each(|line| println!("{line}"));
                let Some(result) = result else {
                    return Err(format!("{workload} --trace {trace} printed no result"));
                };
                for (name, metric) in result.get("metrics").map_or(&[][..], Json::entries) {
                    let value = metric.get("value").cloned().unwrap_or(Json::Null);
                    match runs.iter_mut().find(|(n, _)| n == name) {
                        Some((_, values)) => values.push(value),
                        None => runs.push((name.clone(), vec![value])),
                    }
                }
            }
            groups.push((
                group,
                Json::object(runs.into_iter().map(|(n, v)| (n, Json::Array(v)))),
            ));
        }
        let (clients, degraded) = run::clients(workload);
        let mut run = vec![
            ("clients", Json::Num(clients as f64)),
            ("degraded", Json::Bool(degraded)),
        ];
        run.extend(groups);
        workloads.push((workload, Json::object(run)));
    }
    let results = Json::object([
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds())),
        ("customers", Json::Num(run::customers(cli.smoke) as f64)),
        ("smoke", Json::Bool(cli.smoke)),
        ("nproc", Json::Num(cores as f64)),
        (
            "commit",
            Json::Str(tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(tool_output("rustc", &["--version"]))),
        ("workloads", Json::object(workloads)),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let path = format!("{OUT_DIR}/results.json");
    std::fs::write(&path, results.pretty()).map_err(|e| e.to_string())?;
    println!("wrote {path}");
    Ok(clean)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|cli| match &cli.workload {
            Some(workload) => run_one(&cli, workload),
            None => run_all(&cli),
        }),
        Some("compare") if args.len() == 3 => {
            load(&args[1]).and_then(|a| compare::compare(&a, &load(&args[2])?))
        }
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
