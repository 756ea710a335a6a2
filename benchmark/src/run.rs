//! One run of one workload: `setup` → `warmup` → `count` → (`traced`) →
//! `timed` → `verify`, and the metrics the phases yield.
//!
//! End-to-end wall-clock metrics come from the untraced `timed` phase, the
//! exactly repeating ones from the single-client `count` pass.  Per-layer
//! metrics come from the `count` pass (counters, read between ops), the
//! `traced` pass (spans and probes) and the `timed` phase's per-statement
//! histograms.

use crate::count::{count_metrics, count_pass, Counters};
use crate::deploy::{deploy, Deployment};
use crate::json::Json;
use crate::metrics::{reported, set, Values};
use crate::ops::{specified_clients, Op, OpGen, Phase, Spec, Via};
use crate::timed::timed_phase;
use crate::trace::Trace;
use crate::traced::traced_pass;
use crate::verify::{check_crash_recovery, check_views};
use query::{Executor, QueryResult};
use std::time::{Duration, Instant};
use synergy::{SynergySystem, TxnError};

/// A full-scale run without tracing repeats the set-up (`setup_s` is the
/// median): at least `SETUPS` times, and while they have taken less than
/// `SETUP_BUDGET_S` up to `MAX_SETUPS` times, so that the quick set-ups,
/// which vary most, are timed most often.
const SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;

/// A client retries a write refused with `LockTimeout` at once, at most this
/// often, inside the op's measured latency.
const LOCK_RETRIES: u32 = 8;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny scale: 40 customers and a few hundred ops.
    pub smoke: bool,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    /// Every check of the `verify` phase passed (its failures are in `notes`).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of [`reported`], in its order.
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Customers of the micro and TPC-W deployments at full and at smoke scale.
pub fn customers(smoke: bool) -> u64 {
    if smoke {
        40
    } else {
        500
    }
}

/// Clients a workload runs with on this box, and whether that is fewer than
/// it specifies (a degraded run: never more threads than cores).
pub fn clients(workload: &str) -> (usize, bool) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let specified = specified_clients(workload);
    (specified.min(cores), cores < specified)
}

/// Sizes of the fixed phases.  Frozen: a later commit is measured on the
/// same lists.
struct Plan {
    /// Ops of the warm-up (under a view budget: at most; it ends once the
    /// budget is 95 % full).
    warmup_ops: usize,
    count_decks: usize,
    traced_decks: usize,
    /// Ops per second and client pre-generated for the `timed` phase, a few
    /// times what the reference box completes.
    rate_cap: f64,
}

fn plan(workload: &str, smoke: bool) -> Plan {
    let (warmup_ops, count_decks, traced_decks, rate_cap) = match workload {
        "tpcw_browse" => (400, 1, 1, 4_000.0),
        "tpcw_order" => (400, 5, 5, 8_000.0),
        "micro_scan" => (22, 2, 3, 400.0),
        _ => (20_000, 200, 20, 10_000.0),
    };
    if smoke {
        Plan {
            warmup_ops: warmup_ops.min(2_000),
            count_decks: 1,
            traced_decks: 1,
            rate_cap,
        }
    } else {
        Plan {
            warmup_ops,
            count_decks,
            traced_decks,
            rate_cap,
        }
    }
}

/// One closed-loop client: a clone of the deployment's handle.
pub(crate) struct Client<'a> {
    pub(crate) spec: &'a Spec,
    pub(crate) system: SynergySystem,
    pub(crate) par2: Executor,
}

impl<'a> Client<'a> {
    pub(crate) fn new(spec: &'a Spec, system: &SynergySystem) -> Client<'a> {
        Client {
            spec,
            system: system.clone(),
            par2: system.executor().clone().with_threads(2),
        }
    }

    fn attempt(&self, op: &Op) -> Result<QueryResult, TxnError> {
        let stmt = &self.spec.stmts[op.stmt];
        match stmt.via {
            Via::Sql => self.system.execute_sql(&stmt.sql, &op.params),
            Via::Statement => self.system.execute(&stmt.ast, &op.params),
            Via::Join => Ok(self.system.executor().execute(&stmt.ast, &op.params)?),
            Via::JoinPar2 => Ok(self.par2.execute(&stmt.ast, &op.params)?),
        }
    }

    /// Issues the op as the client would; returns the reply and the retries.
    pub(crate) fn issue(&self, op: &Op) -> (Result<QueryResult, TxnError>, u32) {
        let mut retries = 0;
        loop {
            match self.attempt(op) {
                Err(TxnError::LockTimeout { .. }) if retries < LOCK_RETRIES => retries += 1,
                reply => return (reply, retries),
            }
        }
    }
}

pub(crate) fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub(crate) fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn regions(system: &SynergySystem) -> u64 {
    system
        .cluster()
        .metrics()
        .tables
        .values()
        .map(|t| t.regions as u64)
        .sum()
}

fn warm_up(client: &Client, args: &RunArgs, plan: &Plan) -> Result<(), String> {
    let mut gen = OpGen::new(client.spec, args.seed, 0, Phase::Warmup);
    let budget = client.system.residency().map(|r| r.budget());
    let decks = plan.warmup_ops.div_ceil(client.spec.deck_len());
    for deck in 0..decks {
        let ops = gen.deck();
        let rest = plan.warmup_ops - deck * ops.len();
        for op in ops.iter().take(rest) {
            if let (Err(e), _) = client.issue(op) {
                return Err(format!(
                    "warm-up {} failed: {e}",
                    client.spec.stmts[op.stmt].name
                ));
            }
        }
        // Under a view budget the warm-up ends once the cache is full.
        let resident = client.system.residency_snapshot().map(|r| r.resident_bytes);
        if let (Some(budget), Some(resident)) = (budget, resident) {
            if resident as f64 >= 0.95 * budget as f64 {
                break;
            }
        }
    }
    Ok(())
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let plan = plan(&args.workload, args.smoke);
    let customers = customers(args.smoke);
    let spec = Spec::by_name(&args.workload, customers)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let (clients, _) = clients(spec.name);
    let mut v = Values::new();
    let mut notes = Vec::new();

    let Deployment { system, setup } = deploy(spec.name, customers).map_err(|e| e.to_string())?;
    let mut setup_s = vec![setup.total_s()];
    let tables = system.cluster().metrics().tables;
    let base_bytes: u64 = system
        .schema()
        .relations
        .iter()
        .filter_map(|r| system.catalog().table_ci(&r.name))
        .filter_map(|def| tables.get(&def.name))
        .map(|t| t.bytes)
        .sum();
    let size = system.database_size_bytes() as f64;
    set(
        &mut v,
        "space_amplification",
        ratio(size, base_bytes as f64),
    );
    let regions_at_setup = regions(&system);
    set(&mut v, "setup.datagen_s", setup.datagen_s);
    set(&mut v, "setup.build_s", setup.build_s);
    set(&mut v, "setup.bulk_load_s", setup.bulk_load_s);
    set(&mut v, "setup.materialize_s", setup.materialize_s);
    set(&mut v, "setup.compact_s", setup.compact_s);
    set(&mut v, "setup.view_rows", setup.view_rows as f64);
    set(&mut v, "setup.view_bytes", setup.view_bytes as f64);
    set(&mut v, "setup.base_bytes", base_bytes as f64);
    set(&mut v, "setup.regions", regions_at_setup as f64);

    let client = Client::new(&spec, &system);
    let mut lap = Instant::now();
    let mut phase_done = |phase: &str| {
        let seconds = lap.elapsed().as_secs_f64();
        println!("{} phase {phase} took {seconds:.2} s", spec.name);
        lap = Instant::now();
    };
    warm_up(&client, args, &plan)?;
    phase_done("warmup");

    let count_ops = OpGen::new(&spec, args.seed, 0, Phase::Count).decks(plan.count_decks);
    let before = Counters::read(&system);
    let mut count = count_pass(&client, &count_ops);
    let after = Counters::read(&system);
    count_metrics(&count, &before, &after, &mut v);
    phase_done("count");
    notes.append(&mut count.mismatches);
    if count.join.iter().all(|sampled| sampled.ops == 0) {
        notes.push("the count pass compared no read against the join algorithm".into());
    }

    // The traced pass follows the count pass at once: both run the same mix
    // on the same state, which is what makes their difference the tracing
    // overhead.  (The timed phase leaves versions and tombstones behind.)
    if args.trace {
        let ops = OpGen::new(&spec, args.seed, 0, Phase::Traced).decks(plan.traced_decks);
        let trace = traced_pass(&client, &ops, count.wall_ns_per_op(), &mut v, &mut notes);
        write_trace(&spec, args, &trace).map_err(|e| format!("writing the span file: {e}"))?;
        phase_done("traced");
    }

    let timed = timed_phase(&spec, &system, clients, args, plan.rate_cap, &mut v);
    set(&mut v, "rss_peak_mb", rss_peak_mib());
    phase_done("timed");
    let single_client_ops_s = ratio(1e9, count.wall_ns_per_op());
    let scaling = ratio(timed.throughput, single_client_ops_s);
    set(&mut v, "synergy.client_scaling_x", scaling);

    let verify_start = Instant::now();
    check_views(&system, "at quiescence", &mut notes);
    // Only a replicated, group-committing deployment (`tpcw_order`) has a
    // crash to survive.  Recovery replays the whole run's log and
    // checkpoints twice (some 7 s), so it is checked where its time is
    // reported: in the traced run.
    if args.trace && system.cluster().replication_enabled() {
        check_crash_recovery(&system, &mut v, &mut notes);
    }
    set(&mut v, "verify_s", verify_start.elapsed().as_secs_f64());
    phase_done("verify");
    set(
        &mut v,
        "query.dirty_fallbacks",
        system.dirty_fallbacks() as f64,
    );
    let split = regions(&system) - regions_at_setup;
    set(&mut v, "store.regions_split", split as f64);

    // Set-up time is the noisiest number here (first-touch page faults make
    // the first set-up of a process the slowest), so a run without tracing
    // sets up several times and reports the median.
    drop(client);
    drop(system);
    if !args.trace && !args.smoke {
        let more = |done: &[f64]| {
            done.len() < SETUPS
                || (done.len() < MAX_SETUPS && done.iter().sum::<f64>() < SETUP_BUDGET_S)
        };
        while more(&setup_s) {
            let extra = deploy(spec.name, customers).map_err(|e| e.to_string())?;
            setup_s.push(extra.setup.total_s());
            if !more(&setup_s) {
                // Freeing the last deployment takes about a second that the
                // process's exit gives back for nothing.
                std::mem::forget(extra);
            }
        }
    }
    set(&mut v, "setup_s", median(&mut setup_s));

    // A metric the workload has no use for (a partial-view counter on a
    // fully materialized deployment) was never set and reads 0.
    let metrics: Vec<Metric> = reported(args.trace)
        .into_iter()
        .map(|(name, unit)| Metric {
            value: v.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect();
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        notes.push(format!("{} is {}", m.name, m.value));
    }
    Ok(Outcome {
        correct: notes.is_empty(),
        attempted: count.ops + timed.ops,
        failed: count.failed + timed.failed,
        metrics,
        notes,
    })
}

/// Where span files and `results.json` go: `out/` beside this package.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn write_trace(spec: &Spec, args: &RunArgs, trace: &Trace) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let file = Json::object([
        ("workload", Json::Str(spec.name.to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("spans", trace.to_json()),
    ]);
    std::fs::write(format!("{OUT_DIR}/{}.trace.json", spec.name), file.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::WORKLOADS;

    /// `run --smoke` in-process: every workload, untraced and traced, reports
    /// every named metric as a finite number, fails no op and passes `verify`.
    #[test]
    fn smoke_runs_report_every_named_metric() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: workload.to_string(),
                    seed: 1,
                    seconds: 0.5,
                    trace,
                    smoke: true,
                };
                let outcome = run(&args).unwrap();
                assert!(
                    outcome.correct,
                    "{workload} trace {trace}: {:?}",
                    outcome.notes
                );
                assert_eq!(outcome.failed, 0, "{workload} trace {trace}");
                assert!(outcome.attempted > 0);
                assert_eq!(outcome.metrics.len(), reported(trace).len());
                for m in &outcome.metrics {
                    assert!(m.value.is_finite(), "{workload} {} is {}", m.name, m.value);
                    // An end-to-end metric is never 0 on any workload.
                    assert!(trace || m.value > 0.0, "{workload} {} is 0", m.name);
                }
            }
        }
    }
}
