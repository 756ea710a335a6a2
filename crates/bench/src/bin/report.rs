//! `report` — regenerates every table and figure of the paper's evaluation
//! and prints them in the same layout.
//!
//! ```text
//! cargo run --release -p bench --bin report -- all
//! cargo run --release -p bench --bin report -- fig12 --customers 500 --reps 10
//! cargo run --release -p bench --bin report -- all --json
//! ```
//!
//! The artifacts are the entries of the figure registry (`bench::FIGURES`:
//! `fig10`, `fig_par`, `fig11`, `fig12`, `fig13`, `fig14`, `fig_writes`,
//! `fig_faults`, `fig_availability`, `fig_partial`, `table1`, `table2`,
//! `table3`, `ablation`, …) plus `all`; this binary knows none of them by
//! name — it runs the selected entries, prints each record through the
//! registry's text rendering and collects the records as the JSON report.
//!
//! `--threads N` runs the fig10 measurements with N region-parallel workers
//! (`fig_par` always sweeps its own 1/2/4/8 axis); `--out PATH` redirects
//! the `--json` report; `--explain` additionally dumps the Q1/Q2 plan
//! trees, baseline vs view-rewritten, showing the Synergy rewrite rule
//! firing inside the planner.
//!
//! With `--json`, the run additionally writes `BENCH_report.json` containing,
//! per figure, both the **simulated** milliseconds of the cost model (the
//! paper's metric) and the **wall-clock** milliseconds this process spent
//! producing the figure (the reproduction's own perf trajectory).

use bench::json::Json;
use bench::{fig10_scales, selected, Context, DEFAULT_CUSTOMERS, DEFAULT_REPS, FIGURES};
use tpcw::micro::MicroBench;

struct Options {
    artifact: String,
    customers: u64,
    reps: u64,
    /// Region-parallel worker count for the fig10 measurements (fig_par
    /// sweeps its own axis regardless).
    threads: usize,
    json: bool,
    /// Dump the Q1/Q2 plan trees (baseline vs view-rewritten).
    explain: bool,
    out: String,
}

const USAGE: &str = "usage: report [ARTIFACT] [--customers N] [--reps N] [--threads N] \
                     [--json] [--out PATH] [--explain]";

/// Parses the command line; the error is the message to print before
/// exiting with status 2.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        artifact: "all".to_string(),
        customers: DEFAULT_CUSTOMERS,
        reps: DEFAULT_REPS,
        threads: 1,
        json: false,
        explain: false,
        out: "BENCH_report.json".to_string(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value\n{USAGE}"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{arg} takes a number, got {text:?}\n{USAGE}"))
        };
        match arg.as_str() {
            "--customers" => options.customers = number(value()?)?,
            "--reps" => options.reps = number(value()?)?,
            "--threads" => options.threads = (number(value()?)? as usize).max(1),
            "--out" => options.out = value()?.clone(),
            "--json" => options.json = true,
            "--explain" => options.explain = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}\n{USAGE}")),
            name if name == "all" || FIGURES.iter().any(|f| f.name == name) => {
                options.artifact = name.to_string()
            }
            name => {
                let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).chain(["all"]).collect();
                return Err(format!(
                    "unknown artifact {name:?}; valid artifacts: {}",
                    valid.join(", ")
                ));
            }
        }
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    println!("== Synergy reproduction report ==");
    println!(
        "scale: {} customers ({} items, {} orders), {} repetitions per measurement, {} thread(s)",
        options.customers,
        options.customers * 10,
        options.customers * 10,
        options.reps,
        options.threads
    );
    println!("all response times are simulated milliseconds (see DESIGN.md §7)\n");

    // The per-figure records in run order.
    let mut figures: Vec<(String, Json)> = Vec::new();
    if options.explain {
        figures.push(("explain".into(), explain_plans(&options)));
    }
    let mut ctx = Context::new(options.customers, options.reps, options.threads);
    for figure in selected(&options.artifact) {
        let record = (figure.run)(&mut ctx);
        println!("{}", figure.render_text(&record, &std::mem::take(&mut ctx.notes)));
        if figure.measured() {
            figures.push((figure.name.into(), record));
        }
    }

    if options.json {
        // Schema 2: adds the top-level `threads` field (the fig10 worker
        // count) so `bench_diff` can insist on like-for-like comparisons.
        let doc = Json::obj([
            ("schema_version", Json::Int(2)),
            ("artifact", Json::str(options.artifact.as_str())),
            ("customers", Json::Int(options.customers as i64)),
            ("reps", Json::Int(options.reps as i64)),
            ("threads", Json::Int(options.threads as i64)),
            ("figures", Json::Obj(figures)),
        ]);
        let path = options.out.as_str();
        std::fs::write(path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// `--explain`: prints and returns the plan trees of the micro queries,
/// baseline vs view-rewritten, at the smallest fig10 scale — the plan shape
/// is scale-independent, so the cheapest deployment suffices to show the
/// view-rewrite rule firing.
fn explain_plans(options: &Options) -> Json {
    let customers = fig10_scales(options.customers)[0];
    let bench = MicroBench::build_with_threads(customers, options.threads)
        .expect("micro benchmark builds");
    println!("--- EXPLAIN: micro-benchmark plan trees (baseline vs view-rewritten) ---");
    let mut queries = Vec::new();
    for index in 0..2 {
        let e = bench.explain(index).expect("plans render");
        println!("{} — join algorithm (base tables):", e.query);
        for line in e.baseline.lines() {
            println!("    {line}");
        }
        println!("{} — Synergy read path (view rewrite as a planner rule):", e.query);
        for line in e.synergy.lines() {
            println!("    {line}");
        }
        queries.push(Json::obj([
            ("query", Json::str(e.query)),
            ("baseline", Json::str(e.baseline)),
            ("synergy", Json::str(e.synergy)),
        ]));
    }
    println!();
    Json::obj([("queries", Json::Arr(queries))])
}
