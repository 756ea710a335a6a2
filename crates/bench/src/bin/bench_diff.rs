//! `bench_diff` — compares a fresh `BENCH_report.json` against a committed
//! one along the figure registry (`bench::FIGURES`) and fails on wall-clock
//! regressions, sim-value drift and broken semantic gates.
//!
//! ```text
//! cargo run --release -p bench --bin bench_diff -- BENCH_report_tiny.json BENCH_report.json
//! ```
//!
//! The summary is printed and, when `$GITHUB_STEP_SUMMARY` is set, appended
//! to it as Markdown.  The process exits non-zero when any gate fails:
//!
//! - **Wall clock** (`bench::figure::diff`): every figure's `wall_ms` both
//!   reports carry (the one wall-clock value of a figure, written by
//!   `Figure::run_timed`) is compared; a series fails when it regresses by
//!   more than [`MAX_RATIO`] **and** more than [`MIN_DELTA_MS`] — the
//!   absolute floor keeps noisy sub-millisecond figures from tripping the
//!   gate on slow runners.  Reports that ran at different thread counts are refused.
//! - **Nothing vanishes**: a figure, wall-clock series or deterministic
//!   value the committed report carries and the fresh one lacks fails.
//! - **Sim identity**: when both reports ran at the same scale and
//!   repetitions, every `sim` and `count` column of every registry table
//!   must be bit-identical to the committed report — seeded RNGs, the
//!   simulated clock and max-merge across workers make them deterministic,
//!   so any drift means a change taxed a path it was supposed to leave
//!   alone.  The series come from the registry: a new column is covered
//!   the moment it is declared.
//! - **`fig_writes`**: the delta path's sim cost per write stays ≤ 1.25×
//!   the committed report's.
//! - **`fig_faults`**: no-fault goodput within 1.25× of the committed
//!   report (the fault hook may not tax the healthy path), goodput at 1%
//!   injected faults ≥ 90% of no-fault under the backoff policy, and the
//!   crash-recovery demonstration reporting zero lost acked-synced writes
//!   and zero views left dirty.
//! - **`fault_matrix`**, per cell (seed × scenario): goodput is positive;
//!   with no faults every op succeeds and nothing is injected; the
//!   crash-heavy cells fire server crashes and the timeout-heavy cells
//!   inject timeouts (a silently disarmed fault plan is itself a failure);
//!   crash-heavy cells fail regions over at RF ≥ 2 and never at RF = 1;
//!   retries absorb the faults (≤ 2% of ops given up); the per-server fault
//!   columns sum to the cluster-wide counters; and the cell's rerun from
//!   the same seed gave bit-identical goodput.
//! - **`fig_availability`**: every RF ≥ 2 row rides through the crash
//!   windows at ≥ 0.7× steady-state goodput with at least one failover and
//!   zero acked-write loss; the RF = 1 row shows replication fully
//!   disarmed (no failovers, no shipped records).
//! - **`fig_partial`**, pinned on the 10%-budget zipf-1.1 cell: hit rate
//!   ≥ 90%, stored view rows and bytes reduced ≥ 10× vs full
//!   materialization, hot-key Q1K p95 ≤ 1.25× the fully-materialized
//!   baseline.  Below 200 customers the zipfian stream touches most of the
//!   key universe, so the thresholds relax to ≥ 85% / ≥ 6× / ≥ 8×.
//!
//! The semantic gates read the fresh report's records through the same
//! accessor the tests use (`Json::num` / `text` / `rows`): a missing value
//! reads NaN and fails its threshold.

use bench::figure::{diff, figure_of};
use bench::json::Json;
use std::fmt::Write as _;

/// A wall-clock series regresses when it grows by more than this factor …
const MAX_RATIO: f64 = 2.0;

/// … and by more than this many milliseconds.
const MIN_DELTA_MS: f64 = 250.0;

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

/// The Markdown summary and the failed gates, collected as the gates run.
#[derive(Default)]
struct Gates {
    summary: String,
    failures: Vec<String>,
}

impl Gates {
    /// Records one gate's reading under its figure; a gate that did not
    /// pass is marked in the summary and fails the run.
    fn check(&mut self, figure: &str, line: String, passed: bool) {
        let marker = if passed { "" } else { " ⚠️" };
        let _ = writeln!(self.summary, "- {figure}: {line}{marker}");
        if !passed {
            self.failures.push(format!("{figure}: {line}"));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <committed-report.json> <fresh-report.json>");
        std::process::exit(2);
    };
    let old = load(old_path);
    let new = load(new_path);
    // Schema 2 reports carry the fig10 worker count; wall-clock deltas are
    // only meaningful like-for-like, so refuse cross-thread-count diffs
    // (schema 1 reports, which predate the field, count as 1 thread).
    let threads_of =
        |doc: &Json| doc.get("threads").and_then(Json::as_f64).unwrap_or(1.0) as u64;
    let (old_threads, new_threads) = (threads_of(&old), threads_of(&new));
    if old_threads != new_threads {
        eprintln!(
            "refusing to diff across thread counts: {old_path} ran at {old_threads} thread(s), \
             {new_path} at {new_threads} — compare like-for-like reports"
        );
        std::process::exit(2);
    }

    let outcome = diff(&old, &new);
    assert!(!outcome.walls.is_empty(), "no comparable wall-clock series found");
    let mut gates = Gates::default();
    let summary = &mut gates.summary;
    let _ = writeln!(summary, "### Bench wall-clock deltas ({old_path} → {new_path})\n");
    let _ = writeln!(summary, "| series | committed (ms) | fresh (ms) | delta | ratio |");
    let _ = writeln!(summary, "|---|---:|---:|---:|---:|");
    for (series, old_ms, new_ms) in &outcome.walls {
        let (delta, ratio) = (new_ms - old_ms, new_ms / old_ms.max(f64::EPSILON));
        let regressed = ratio > MAX_RATIO && delta > MIN_DELTA_MS;
        let marker = if regressed { " ⚠️" } else { "" };
        let _ = writeln!(
            summary,
            "| {series}{marker} | {old_ms:.1} | {new_ms:.1} | {delta:+.1} | {ratio:.2}x |"
        );
        if regressed {
            gates.failures.push(format!("{series} wall clock {old_ms:.1} → {new_ms:.1} ms"));
        }
    }
    let _ = writeln!(
        gates.summary,
        "\nGate: ratio > {MAX_RATIO:.1}x **and** delta > {MIN_DELTA_MS:.0} ms.\n"
    );
    let identity = match outcome.compared {
        Some(n) => format!("{n} deterministic values compared"),
        None => "skipped (reports ran at different scales)".to_string(),
    };
    let drifted = outcome.failures.len();
    gates.check(
        "sim identity",
        format!("{identity}; {drifted} drifted or missing"),
        drifted == 0,
    );
    gates.failures.extend(outcome.failures);
    fig_writes_gates(&old, &new, &mut gates);
    fig_faults_gates(&old, &new, &mut gates);
    fault_matrix_gates(&new, &mut gates);
    fig_availability_gates(&new, &mut gates);
    fig_partial_gates(&new, &mut gates);

    println!("{}", gates.summary);
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut file) = std::fs::OpenOptions::new().append(true).create(true).open(path) {
            let _ = file.write_all(gates.summary.as_bytes());
        }
    }
    if !gates.failures.is_empty() {
        eprintln!("bench regression in:\n  {}", gates.failures.join("\n  "));
        std::process::exit(1);
    }
    println!("no bench regressions beyond the gates.");
}

/// The `fig_partial` gates (see the module doc), on the fresh report.
fn fig_partial_gates(new: &Json, gates: &mut Gates) {
    let Some(fresh) = figure_of(new, "fig_partial") else { return };
    let (min_hit, min_rows_x, min_bytes_x) =
        if fresh.num("customers") >= 200.0 { (0.90, 10.0, 10.0) } else { (0.85, 6.0, 8.0) };
    let cell = fresh
        .rows("rows")
        .iter()
        .find(|r| r.text("budget_label") == "10%" && r.num("zipf_s") == 1.1);
    let Some(cell) = cell else {
        return gates.check("fig_partial", "10%-budget zipf-1.1 cell present".into(), false);
    };
    for (key, threshold, at_least) in [
        ("hit_rate", min_hit, true),
        ("rows_x_vs_full", min_rows_x, true),
        ("bytes_x_vs_full", min_bytes_x, true),
        ("q1k_hot_p95_x_vs_full", 1.25, false),
    ] {
        let value = cell.num(key);
        let (op, passed) =
            if at_least { ("≥", value >= threshold) } else { ("≤", value <= threshold) };
        gates.check(
            "fig_partial",
            format!("10% budget @ zipf 1.1: {key} = {value:.3} (gate {op} {threshold})"),
            passed,
        );
    }
}

/// The `fig_faults` gates (see the module doc) — all on deterministic sim
/// numbers, so no noise floor applies.
fn fig_faults_gates(old: &Json, new: &Json, gates: &mut Gates) {
    let Some(fresh) = figure_of(new, "fig_faults") else { return };
    // One column of the backoff-policy cell at one fault rate of a report.
    let cell = |doc: &Json, rate: f64, key: &str| {
        figure_of(doc, "fig_faults")
            .and_then(|f| {
                f.rows("rows")
                    .iter()
                    .find(|r| r.text("retry") == "backoff" && r.num("fault_rate") == rate)
            })
            .map_or(f64::NAN, |r| r.num(key))
    };
    let fresh_goodput = cell(new, 0.0, "goodput_ops_per_sim_sec");
    let old_goodput = cell(old, 0.0, "goodput_ops_per_sim_sec");
    gates.check(
        "fig_faults",
        format!(
            "no-fault goodput {old_goodput:.1} → {fresh_goodput:.1} ops/sim-s \
             (gate ≥ committed / 1.25)"
        ),
        fresh_goodput * 1.25 >= old_goodput || (old_goodput.is_nan() && !fresh_goodput.is_nan()),
    );
    let ratio = cell(new, 0.01, "goodput_vs_no_fault");
    gates.check(
        "fig_faults",
        format!("goodput at 1% faults with retries {ratio:.3}x no-fault (gate ≥ 0.9x)"),
        ratio >= 0.9,
    );
    let recovery = fresh.get("recovery").unwrap_or(&Json::Null);
    for key in ["lost_acked_synced_writes", "dirty_view_rows_after_recovery"] {
        let count = recovery.num(key);
        gates.check("fig_faults", format!("recovery {key} = {count:.0} (gate = 0)"), count == 0.0);
    }
}

/// The `fault_matrix` gates (see the module doc), per cell of the fresh
/// report.
fn fault_matrix_gates(new: &Json, gates: &mut Gates) {
    let Some(fresh) = figure_of(new, "fault_matrix") else { return };
    // A cell missing from the fresh report fails sim identity's row count.
    for row in fresh.rows("rows") {
        let (scenario, rf) = (row.text("scenario"), row.num("replication_factor"));
        let (ops, failovers) = (row.num("ops"), row.num("failovers"));
        let crashing = scenario.starts_with("crash");
        let unfaulted = row.num("ok_ops") == ops && row.num("injected_op_faults") == 0.0;
        let invariants = [
            ("goodput > 0", row.num("goodput_ops_per_sim_sec") > 0.0),
            ("attributed", row.num("attributed") == 1.0),
            ("reproducible", row.num("reproducible") == 1.0),
            ("no faults without a plan", scenario != "no-faults" || unfaulted),
            ("a server crash fired", !crashing || row.num("server_crashes") > 0.0),
            ("failovers iff replicated", !crashing || (failovers > 0.0) == (rf >= 2.0)),
            ("a timeout fired", scenario != "timeout-heavy" || row.num("timeouts") > 0.0),
            ("giveups <= 2% of ops", row.num("giveups") * 50.0 <= ops),
        ];
        let broken: Vec<&str> =
            invariants.iter().filter(|(_, holds)| !holds).map(|(name, _)| *name).collect();
        gates.check(
            "fault_matrix",
            format!("{scenario} seed {}: broken [{}]", row.text("seed"), broken.join(", ")),
            broken.is_empty(),
        );
    }
}

/// The `fig_availability` gates (see the module doc), per replication
/// factor of the fresh report.
fn fig_availability_gates(new: &Json, gates: &mut Gates) {
    let Some(fresh) = figure_of(new, "fig_availability") else { return };
    let rows = fresh.rows("rows");
    if rows.is_empty() {
        return gates.check("fig_availability", "has rows".into(), false);
    }
    for row in rows {
        let rf = row.num("replication_factor");
        let lost = row.num("acked_writes_lost");
        gates.check(
            "fig_availability",
            format!("rf {rf}: acked writes lost {lost:.0} (gate = 0)"),
            lost == 0.0,
        );
        let (failovers, shipped) = (row.num("failovers"), row.num("records_shipped"));
        if rf <= 1.0 {
            gates.check(
                "fig_availability",
                format!(
                    "rf 1: failovers {failovers:.0}, shipped {shipped:.0} \
                     (gate = 0 — replication disarmed)"
                ),
                failovers == 0.0 && shipped == 0.0,
            );
            continue;
        }
        let ratio = row.num("window_over_steady");
        gates.check(
            "fig_availability",
            format!("rf {rf}: in-window goodput {ratio:.3}x steady (gate ≥ 0.7x)"),
            ratio >= 0.7,
        );
        gates.check(
            "fig_availability",
            format!("rf {rf}: failovers {failovers:.0} (gate ≥ 1)"),
            failovers >= 1.0,
        );
    }
}

/// The `fig_writes` gate (see the module doc): the cost of delta
/// maintenance is a deterministic sim number, so the gate pins it directly
/// instead of only diffing wall clocks.  Any growth beyond slack for
/// intentional cost-model tweaks is a regression.
fn fig_writes_gates(old: &Json, new: &Json, gates: &mut Gates) {
    let delta_cost = |doc: &Json| {
        figure_of(doc, "fig_writes")
            .and_then(|f| f.rows("rows").first())
            .map_or(f64::NAN, |r| r.num("sim_ms_per_write"))
    };
    let (old_cost, new_cost) = (delta_cost(old), delta_cost(new));
    if !old_cost.is_nan() {
        gates.check(
            "fig_writes",
            format!("delta sim ms/write {old_cost:.2} → {new_cost:.2} (gate ≤ 1.25x committed)"),
            new_cost <= old_cost * 1.25,
        );
    }
}
