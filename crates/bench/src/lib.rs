//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§IX).
//!
//! Each `figNN_*` / `tableN_*` function runs one experiment end to end —
//! building the evaluated systems, loading the scaled TPC-W dataset, running
//! every statement (the comparison matrix's the configured number of
//! repetitions, every other figure's once per point) — and returns the
//! figure's record: ordered values against the figure's static column list
//! (see [`figure`]).  [`FIGURES`] is the registry of all of them; the
//! `report` binary runs and renders its entries, `bench_diff` compares two
//! reports along it, and the tests read records through [`json::Json::num`],
//! [`json::Json::text`] and [`json::Json::rows`].
//!
//! **Adding a figure** is one registry entry: a column list (JSON key,
//! text header, text format, kind), a runner that builds records against
//! it with [`figure::record`], and a [`Figure`] in [`FIGURES`].  The JSON
//! fragment, the text table, `report`'s artifact name and `bench_diff`'s
//! sim-identity series all follow from that entry; the figure's one
//! wall-clock value, `wall_ms`, is added by [`Figure::run_timed`].
//!
//! All response times are **simulated milliseconds** from the shared cost
//! model ([`simclock::CostModel`]); the paper's absolute numbers came from an
//! EC2 cluster, so only the *shape* (orderings, approximate ratios,
//! crossovers) is expected to match.

pub mod figure;
pub mod json;

use figure::Fmt::{Dec, Mib, Percent, Times};
use figure::{column, count, label, object, record, sim, table, Column, Figure, Kind};
use json::Json;
use nosql_store::ops::{Get, Put, Scan};
use nosql_store::{
    Cluster, ClusterConfig, FaultPlan, RetryPolicy, ServerFaultStats, StoreResult, TableSchema,
};
use relational::Value;
use simclock::SimDuration;
use sql::parse_statement;
use std::collections::BTreeMap;
use synergy::LockManager;
use tpcw::micro::MicroBench;
use tpcw::queries::join_queries;
use tpcw::systems::{build_system, EvaluatedSystem, SystemKind};
use tpcw::writes::write_statements;
use tpcw::{TpcwDataset, TpcwScale};

/// Default number of repetitions per comparison-matrix statement (the
/// paper uses 10).
pub const DEFAULT_REPS: u64 = 10;

/// Default database scale for the TPC-W experiments (number of customers).
/// The paper loads 1 M customers on an 8-node EC2 cluster; the default here
/// keeps the full evaluation runnable in minutes on a laptop while keeping
/// the paper's ratios (items = 10×, orders = 10×, 3 lines per order).
pub const DEFAULT_CUSTOMERS: u64 = 500;

/// What a registry entry runs with: the report's scale options, the
/// five-system matrix shared by Figures 12/14 and Tables II/III, and the
/// remarks a run computes for its text rendering.
pub struct Context {
    /// Database scale (number of customers).
    pub customers: u64,
    /// Repetitions per statement of the comparison matrix (the one
    /// measurement whose samples differ from repetition to repetition).
    pub reps: u64,
    /// Region-parallel worker count of the fig10 measurements.
    pub threads: usize,
    /// Remarks of the figure that just ran (the caller drains them).
    pub notes: Vec<String>,
    matrix: Option<ComparisonMatrix>,
}

impl Context {
    /// A context at the given scale, with nothing built yet.
    pub fn new(customers: u64, reps: u64, threads: usize) -> Context {
        Context { customers, reps, threads, notes: Vec::new(), matrix: None }
    }

    /// The comparison matrix at this scale, built on first use.
    pub fn matrix(&mut self) -> &ComparisonMatrix {
        let (customers, reps) = (self.customers, self.reps);
        self.matrix.get_or_insert_with(|| comparison_matrix(customers, reps))
    }
}

/// The customer scales of the Figure 10 sweep (the paper scales ×10 per
/// step; the sweep here is ×4 anchored at a laptop-friendly base).
pub fn fig10_scales(customers: u64) -> [u64; 3] {
    let base = (customers / 4).clamp(25, 250);
    [base, base * 4, base * 16]
}

// ---------------------------------------------------------------------
// Figure 10: micro-benchmark (view scan vs join algorithm)
// ---------------------------------------------------------------------

/// The `k` of the Figure 10 LIMIT companion query.
const FIG10_LIMIT: usize = 50;

/// View scan vs join algorithm, per query per scale.
const FIG10_ROWS: &[Column] = &[
    label("query", "query"),
    count("customers", "customers"),
    sim("view_sim_ms", "view scan (ms)", Dec(1)),
    sim("join_sim_ms", "join algo (ms)", Dec(1)),
    sim("sim_speedup", "speedup", Times(1)),
    count("view_peak_rows_resident", ""),
    count("join_peak_rows_resident", ""),
];

/// Q1 with `LIMIT k` through the view-backed read path: the store rows the
/// scan touches stay at `k` while the database grows.
const FIG10_LIMIT_ROWS: &[Column] = &[
    count("customers", "customers"),
    count("limit", "limit"),
    count("store_rows_scanned", "store rows scanned"),
    count("peak_rows_resident", "peak rows resident"),
    sim("view_sim_ms", "view scan (ms)", Dec(2)),
];

const FIG10: &[Column] = &[
    table("rows", "", FIG10_ROWS),
    table("limit_rows", "Q1 view scan with LIMIT (streaming pushdown)", FIG10_LIMIT_ROWS),
];

/// Runs the §IX-B micro-benchmark for every scale in `customer_scales`,
/// with region-parallel execution at `threads` workers (1 = the serial
/// pipeline; sim figures at 1 thread are byte-identical to earlier report
/// versions), then the LIMIT-bearing micro-query on the same deployment;
/// `limit = 0` skips the companion.  Every point is measured once: reads
/// leave the store as they found it, so its sim figures do not change from
/// one run to the next.
pub fn fig10_micro(customer_scales: &[u64], threads: usize, limit: usize) -> Json {
    let mut rows = Vec::new();
    let mut limit_rows = Vec::new();
    for &customers in customer_scales {
        let bench =
            MicroBench::build_with_threads(customers, threads).expect("micro benchmark builds");
        for (query_index, query) in ["Q1", "Q2"].into_iter().enumerate() {
            let m = bench.measure(query_index).expect("measurement succeeds");
            let (view_ms, join_ms) = (m.view_scan.as_millis_f64(), m.join_algorithm.as_millis_f64());
            rows.push(record(
                FIG10_ROWS,
                vec![
                    query.into(),
                    customers.into(),
                    view_ms.into(),
                    join_ms.into(),
                    (join_ms / view_ms.max(f64::EPSILON)).into(),
                    m.view_peak_rows.into(),
                    m.join_peak_rows.into(),
                ],
            ));
        }
        if limit > 0 {
            let m = bench.measure_limit(limit).expect("limit measurement succeeds");
            limit_rows.push(record(
                FIG10_LIMIT_ROWS,
                vec![
                    customers.into(),
                    limit.into(),
                    m.store_rows_scanned.into(),
                    m.peak_rows_resident.into(),
                    m.view_scan.as_millis_f64().into(),
                ],
            ));
        }
    }
    record(FIG10, vec![rows.into(), limit_rows.into()])
}

// ---------------------------------------------------------------------
// fig_par: region-parallel execution sweep (the --threads axis)
// ---------------------------------------------------------------------

/// The thread counts the fig_par sweep measures.
const FIG_PAR_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Q2 at one thread count through both strategies; `view_sim_x_vs_serial`
/// is the view scan's time at the first axis entry over its time at this
/// one (≥ 1 once the table spans several regions; exactly 1 at
/// `threads = 1`).
const FIG_PAR_ROWS: &[Column] = &[
    count("threads", "threads"),
    count("customers", "customers"),
    sim("view_sim_ms", "view sim (ms)", Dec(1)),
    sim("join_sim_ms", "join sim (ms)", Dec(1)),
    sim("sim_speedup", "", Times(1)),
    sim("view_sim_x_vs_serial", "sim x vs 1t", Times(2)),
];

const FIG_PAR: &[Column] = &[table("rows", "", FIG_PAR_ROWS)];

/// Sweeps the micro-benchmark's Q2 (Customer ⋈ Orders ⋈ Order_line) across
/// `threads_axis`, measuring both strategies once at each width.  The first
/// axis entry is the baseline for `view_sim_x_vs_serial` (callers pass 1
/// first).  Sim figures are deterministic at every width — per-worker clock
/// deltas merge as `max`, independent of OS scheduling.
pub fn fig_par(customers: u64, threads_axis: &[usize]) -> Json {
    let mut rows = Vec::new();
    let mut base_sim = f64::NAN;
    for &threads in threads_axis {
        let bench =
            MicroBench::build_with_threads(customers, threads).expect("micro benchmark builds");
        let m = bench.measure(1).expect("measurement succeeds");
        let (view_ms, join_ms) = (m.view_scan.as_millis_f64(), m.join_algorithm.as_millis_f64());
        if rows.is_empty() {
            base_sim = view_ms;
        }
        rows.push(record(
            FIG_PAR_ROWS,
            vec![
                threads.into(),
                customers.into(),
                view_ms.into(),
                join_ms.into(),
                (join_ms / view_ms.max(f64::EPSILON)).into(),
                (base_sim / view_ms.max(f64::EPSILON)).into(),
            ],
        ));
    }
    record(FIG_PAR, vec![rows.into()])
}

// ---------------------------------------------------------------------
// fig_writes: delta-dataflow view maintenance
// ---------------------------------------------------------------------

/// Updates of the fig_writes maintenance row.
const FIG_WRITES_COUNT: u64 = 20;

/// `writes` updates of Customer rows (the W13 shape) through delta
/// maintenance (incremental propagation through the view's plan IR).
/// `store_rows_scanned_per_write` is the `OpCounters::scanned_rows` delta —
/// constant in the database size, where the scan-based maintenance it
/// replaced read every view row.  `store_puts_per_write` is the
/// `OpCounters::puts` delta: the base row plus one store RPC per (view,
/// region) for each of the mark, apply and unmark phases.
const FIG_WRITES_ROWS: &[Column] = &[
    count("customers", "customers"),
    count("writes", "writes"),
    sim("sim_ms_per_write", "sim ms/write", Dec(2)),
    sim("store_rows_scanned_per_write", "rows scanned/wr", Dec(1)),
    column("store_puts_per_write", "puts/wr", Dec(2), Kind::Count),
    sim("view_rows_touched_per_write", "view rows/wr", Dec(1)),
];

const FIG_WRITES: &[Column] = &[table("rows", "", FIG_WRITES_ROWS)];

/// Runs the write-heavy maintenance figure on the micro-benchmark schema:
/// `writes` W13-shaped Customer updates through delta-dataflow
/// maintenance.  All sim figures are deterministic at `threads = 1`.
pub fn fig_writes(customers: u64, writes: u64, threads: usize) -> Json {
    let update = parse_statement(
        "UPDATE Customer SET c_fname = ?, c_lname = ? WHERE c_id = ?",
    )
    .expect("fig_writes update parses");
    let params = |i: u64, c_id: i64| {
        vec![
            Value::str(format!("First{i}u")),
            Value::str(format!("Last{i}u")),
            Value::Int(c_id),
        ]
    };

    let bench =
        MicroBench::build_with_threads(customers, threads).expect("micro benchmark builds");
    let system = bench.system();
    let clock = system.cluster().clock().clone();
    let ops_before = system.cluster().metrics().ops;
    let touched_before = system.maintenance_stats().view_rows_touched;
    let sim_start = clock.now();
    for i in 0..writes {
        let c_id = (i as i64 % customers.max(1) as i64) + 1;
        system
            .execute(&update, &params(i, c_id))
            .expect("maintenance write succeeds");
    }
    let sim_ms = (clock.now() - sim_start).as_millis_f64();
    let ops = system.cluster().metrics().ops.delta_since(&ops_before);
    let touched = system.maintenance_stats().view_rows_touched - touched_before;
    let per_write = writes.max(1) as f64;
    let rows = vec![record(
        FIG_WRITES_ROWS,
        vec![
            customers.into(),
            writes.into(),
            (sim_ms / per_write).into(),
            (ops.scanned_rows as f64 / per_write).into(),
            (ops.puts as f64 / per_write).into(),
            (touched as f64 / per_write).into(),
        ],
    )];
    record(FIG_WRITES, vec![rows.into()])
}

// ---------------------------------------------------------------------
// fig_faults: fault injection × retry policy — goodput, latency, recovery
// ---------------------------------------------------------------------

/// Injected-fault probabilities of the goodput sweep: the chance a charged
/// op draws a *failing* fault (split evenly between RPC timeouts and
/// transient server errors; slow-region spikes ride along at the same
/// rate).
pub const FIG_FAULTS_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Ops per cell of the fault sweep.
pub const FIG_FAULTS_OPS: u64 = 600;

/// Seed of the sweep's fault and retry RNGs — the determinism contract is
/// that the same seed and fault plan reproduce the same figures exactly.
pub const FIG_FAULTS_SEED: u64 = 0x5EED_FA17;

/// What one run of the store-level fault workload did.
#[derive(Debug, Clone)]
pub struct FaultWorkloadOutcome {
    /// Ops that succeeded (after retries, where enabled).
    pub ok_ops: u64,
    /// Simulated time the workload loop consumed.
    pub sim_elapsed: SimDuration,
    /// 95th-percentile simulated latency of successful ops (ms).
    pub p95_sim_ms: f64,
    /// Injected-fault and retry counters of the run.
    pub stats: nosql_store::FaultStats,
    /// Replication counters of the run (all zero at the default
    /// `replication_factor` of 1).
    pub replication: nosql_store::ReplicationStats,
}

impl FaultWorkloadOutcome {
    /// Successful ops per simulated second.
    pub fn goodput_per_sim_sec(&self) -> f64 {
        self.ok_ops as f64 / self.sim_elapsed.as_millis_f64().max(f64::EPSILON) * 1_000.0
    }
}

/// A cluster holding the store-level workloads' table `t`: 128 preloaded
/// rows, checkpointed.  The preload goes through `bulk_load` (charged but
/// never faulted), so every run starts from identical state.
fn workload_cluster(config: ClusterConfig) -> Cluster {
    let cluster = Cluster::new(config);
    cluster
        .create_table(TableSchema::new("t").with_family("cf"))
        .expect("workload table");
    cluster
        .bulk_load(
            "t",
            (0..128u64).map(|i| Put::new(format!("k{i:04}")).with("cf", "v", vec![b'x'; 64])),
        )
        .expect("preload");
    cluster.checkpoint();
    cluster
}

/// Issues op `i` of the store-level workloads' fixed mix against table `t`:
/// key `k{(i·17) % 128}`, `i % 4` → put / get / put / 8-key range scan,
/// written value `v{i}`.  Returns what an acked put wrote.
fn workload_op(cluster: &Cluster, i: u64) -> StoreResult<Option<(String, Vec<u8>)>> {
    let slot = (i * 17) % 128;
    let key = format!("k{slot:04}");
    match i % 4 {
        0 | 2 => {
            let value = format!("v{i}").into_bytes();
            cluster.put("t", Put::new(key.clone()).with("cf", "v", value.clone()))?;
            Ok(Some((key, value)))
        }
        1 => cluster.get("t", Get::new(key)).map(|_| None),
        _ => {
            let stop = format!("k{:04}", slot + 8);
            cluster.scan("t", Scan::range(key, stop)).map(|_| None)
        }
    }
}

/// Runs the deterministic store-level workload — a fixed mix of puts, gets
/// and short scans over a preloaded table — under the given fault plan and
/// retry policy at replication factor `rf` (1 = the unreplicated
/// deployment every committed fig_faults figure ran on).
pub fn run_fault_workload(
    plan: Option<FaultPlan>,
    retry: Option<RetryPolicy>,
    ops: u64,
    rf: usize,
) -> FaultWorkloadOutcome {
    let cluster = workload_cluster(ClusterConfig {
        fault_plan: plan,
        retry,
        replication_factor: rf,
        ..ClusterConfig::default()
    });

    let clock = cluster.clock().clone();
    let start = clock.now();
    let mut ok_ops = 0u64;
    let mut latencies: Vec<f64> = Vec::with_capacity(ops as usize);
    for i in 0..ops {
        let op_start = clock.now();
        if workload_op(&cluster, i).is_ok() {
            ok_ops += 1;
            latencies.push((clock.now() - op_start).as_millis_f64());
        }
    }
    FaultWorkloadOutcome {
        ok_ops,
        sim_elapsed: clock.now() - start,
        p95_sim_ms: percentile(&mut latencies, 95),
        stats: cluster.fault_stats(),
        replication: cluster.replication_stats(),
    }
}

/// Sorts in place and returns the `pct`-th percentile (0.0 when empty).
fn percentile(samples: &mut [f64], pct: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[(samples.len() * pct / 100).min(samples.len() - 1)]
}

/// One fault rate through one retry policy: "none" (fail on the first
/// fault) or "backoff" (the default capped exponential backoff + jitter).
/// `injected_op_faults` counts failing faults (timeouts + transients +
/// unavailable), `slowdowns` the slow-region spikes an op paid and
/// survived; `goodput_vs_no_fault` is relative to the same policy's
/// no-fault cell.
const FIG_FAULTS_ROWS: &[Column] = &[
    label("retry", "retry"),
    sim("fault_rate", "faults", Percent(1)),
    count("ops", "ops"),
    count("ok_ops", "ok"),
    sim("goodput_ops_per_sim_sec", "goodput/sim-s", Dec(1)),
    sim("p95_sim_ms", "p95 sim ms", Dec(2)),
    count("injected_op_faults", "injected"),
    count("slowdowns", ""),
    count("retries", "retries"),
    count("giveups", "giveups"),
    sim("goodput_vs_no_fault", "vs no-fault", Times(3)),
];

/// The Synergy crash-recovery demonstration: a mid-transaction crash
/// (interrupted after step 5, the worst case — views updated but still
/// marked dirty) followed by `SynergySystem::recover`.  The last two
/// columns must read 0.
const FIG_FAULTS_RECOVERY: &[Column] = &[
    count("interrupted_step", "txn interrupted after step"),
    count("dirty_fallbacks", "dirty-read fallbacks served"),
    sim("recovery_sim_ms", "crash + recover (sim ms)", Dec(1)),
    count("replayed_entries", "WAL records replayed"),
    count("locks_reclaimed", "locks reclaimed"),
    count("view_rows_rolled_forward", "view rows rolled forward"),
    count("lost_acked_synced_writes", "lost acked-synced writes"),
    count("dirty_view_rows_after_recovery", "dirty views left"),
];

const FIG_FAULTS: &[Column] = &[
    table("rows", "", FIG_FAULTS_ROWS),
    object("recovery", "recovery", FIG_FAULTS_RECOVERY),
];

/// Runs the fault figure: the store-level goodput sweep across
/// [`FIG_FAULTS_RATES`] × {no-retry, backoff-retry}, then the Synergy
/// mid-transaction crash-recovery demonstration at `customers` scale.
/// Everything is seeded and single-threaded, so the whole figure is
/// deterministic — the same seed reproduces it byte-identically.
pub fn fig_faults(customers: u64, ops: u64) -> Json {
    let mut rows = Vec::new();
    for (retry_name, retry) in [
        ("none", Some(RetryPolicy::no_retries())),
        ("backoff", Some(RetryPolicy::default())),
    ] {
        let mut no_fault_goodput = f64::NAN;
        for rate in FIG_FAULTS_RATES {
            let plan = (rate > 0.0).then(|| {
                FaultPlan::new(FIG_FAULTS_SEED)
                    .with_timeouts(rate / 2.0)
                    .with_transients(rate / 2.0)
                    .with_slow_regions(rate, SimDuration::from_millis(10))
            });
            let outcome = run_fault_workload(plan, retry.clone(), ops, 1);
            let goodput = outcome.goodput_per_sim_sec();
            if rate == 0.0 {
                no_fault_goodput = goodput;
            }
            rows.push(record(
                FIG_FAULTS_ROWS,
                vec![
                    retry_name.into(),
                    rate.into(),
                    ops.into(),
                    outcome.ok_ops.into(),
                    goodput.into(),
                    outcome.p95_sim_ms.into(),
                    outcome.stats.injected_op_faults().into(),
                    outcome.stats.slowdowns.into(),
                    outcome.stats.retries.into(),
                    outcome.stats.giveups.into(),
                    (goodput / no_fault_goodput.max(f64::EPSILON)).into(),
                ],
            ));
        }
    }
    let recovery = fig_faults_recovery(customers);
    record(FIG_FAULTS, vec![rows.into(), recovery])
}

/// The crash-recovery demonstration half of the figure: interrupt the
/// 6-step update transaction after step 5 (base and views updated, dirty
/// markers still set, lock still held by the dead client), serve a read
/// through graceful degradation, crash the cluster, recover, and verify
/// that no acked-synced write was lost and no view stayed dirty.
fn fig_faults_recovery(customers: u64) -> Json {
    let bench = MicroBench::build(customers).expect("micro benchmark builds");
    let system = bench.system();
    // Bulk loads are volatile until a checkpoint (the memstore-flush
    // durability boundary); everything after it rides the synced WAL.
    system.cluster().checkpoint();

    let update = parse_statement("UPDATE Customer SET c_fname = ?, c_lname = ? WHERE c_id = ?")
        .expect("update parses");
    let probe = &tpcw::micro::micro_queries()[0];

    system.transaction_layer().inject_interrupt_after_step(5);
    system
        .execute(&update, &[Value::str("Faulted"), Value::str("Faulted"), Value::Int(1)])
        .expect_err("interrupted transaction fails");

    // Graceful degradation: the view-rewritten plan keeps hitting dirty
    // markers, so the session falls back to the baseline (view-free) plan.
    let degraded = system.execute(probe, &[]).expect("degraded read succeeds");
    let probe_len = degraded.len();
    let dirty_fallbacks = system.dirty_fallbacks();

    let counts_before: Vec<(String, u64)> = system
        .cluster()
        .list_tables()
        .into_iter()
        .map(|t| {
            let n = system.cluster().row_count(&t).unwrap_or(0);
            (t, n)
        })
        .collect();

    let clock = system.cluster().clock().clone();
    system.cluster().crash();
    let (report, recovery_sim) = clock.measure(|| system.recover());
    let report = report.expect("recovery succeeds");

    // Zero lost acked-synced writes: every table keeps its row count and
    // the interrupted update's base write (acked + synced before the
    // crash) survived replay.
    let mut lost = 0u64;
    for (table, before) in &counts_before {
        let after = system.cluster().row_count(table).unwrap_or(0);
        lost += before.saturating_sub(after);
    }
    let check = parse_statement("SELECT * FROM Customer WHERE c_id = ?").expect("check parses");
    let survived = system
        .execute(&check, &[Value::Int(1)])
        .expect("post-recovery read succeeds");
    if survived.rows.first().and_then(|r| r.get("c_fname"))
        != Some(&Value::str("Faulted"))
    {
        lost += 1;
    }

    // Zero permanently-dirty views, and the healed read path answers the
    // probe without falling back.
    let mut dirty_left = 0u64;
    for view in &system.selection().views {
        let table = view.table_name();
        for row in system
            .cluster()
            .scan(&table, Scan::all())
            .expect("view scan succeeds")
        {
            if row.value(query::FAMILY, query::DIRTY_MARKER) == Some(b"1".as_slice()) {
                dirty_left += 1;
            }
        }
    }
    let healed = system.execute(probe, &[]).expect("healed read succeeds");
    if healed.dirty_fallbacks != 0 || healed.len() != probe_len {
        dirty_left += 1;
    }

    record(
        FIG_FAULTS_RECOVERY,
        vec![
            5u64.into(),
            dirty_fallbacks.into(),
            recovery_sim.as_millis_f64().into(),
            report.cluster.replayed_entries.into(),
            report.locks_reclaimed.into(),
            report.view_rows_rolled_forward.into(),
            lost.into(),
            dirty_left.into(),
        ],
    )
}

// ---------------------------------------------------------------------
// fault_matrix: seeds × fault scenarios through the default retry policy
// ---------------------------------------------------------------------

/// Seeds of the fault matrix; every cell must reproduce bit for bit.
pub const FAULT_MATRIX_SEEDS: [u64; 3] = [0xA11CE, 0xB0B0, 0xC0FFEE];

/// Region-server crashes every ~400 sim ms through the workload window,
/// 50 ms MTTR, plus a trickle of transient errors.
fn crash_heavy(seed: u64) -> Option<FaultPlan> {
    let crashes = (1..=6).map(|i| SimDuration::from_millis(400 * i)).collect();
    let plan = FaultPlan::new(seed).with_transients(0.005);
    Some(plan.with_crashes(crashes, SimDuration::from_millis(50)))
}

/// RPC timeouts and slow-region spikes on one op in twenty each.
fn timeout_heavy(seed: u64) -> Option<FaultPlan> {
    let plan = FaultPlan::new(seed).with_timeouts(0.05);
    Some(plan.with_slow_regions(0.05, SimDuration::from_millis(10)))
}

/// `(scenario, replication factor, the fault plan of a seed)`.
type FaultScenario = (&'static str, usize, fn(u64) -> Option<FaultPlan>);

const FAULT_MATRIX_SCENARIOS: [FaultScenario; 5] = [
    ("no-faults", 1, |_| None),
    ("crash-heavy", 1, crash_heavy),
    ("crash-rf2", 2, crash_heavy),
    ("crash-rf3", 3, crash_heavy),
    ("timeout-heavy", 1, timeout_heavy),
];

/// One seed through one scenario.  `attributed` reads 1 when the per-server
/// fault columns sum to the cluster-wide counters, `reproducible` when a
/// second run of the cell gave bit-identical goodput.
const FAULT_MATRIX_ROWS: &[Column] = &[
    label("scenario", "scenario"),
    label("seed", "seed"),
    count("replication_factor", "rf"),
    count("ops", "ops"),
    count("ok_ops", "ok"),
    sim("goodput_ops_per_sim_sec", "goodput/sim-s", Dec(1)),
    sim("p95_sim_ms", "p95 sim ms", Dec(2)),
    count("injected_op_faults", "injected"),
    count("server_crashes", "crashes"),
    count("timeouts", "timeouts"),
    count("retries", "retries"),
    count("giveups", "giveups"),
    count("failovers", "failovers"),
    count("attributed", "attributed"),
    count("reproducible", "reproducible"),
];

const FAULT_MATRIX: &[Column] = &[table("rows", "", FAULT_MATRIX_ROWS)];

/// Runs the fault matrix: the fig_faults store workload for each of
/// [`FAULT_MATRIX_SEEDS`] × five scenarios (no faults, crash-heavy at RF 1,
/// 2 and 3, timeout-heavy) through the default backoff retry policy, every
/// cell twice.  `bench_diff` gates each row (see its module doc).
pub fn fault_matrix() -> Json {
    let mut rows = Vec::new();
    for (scenario, rf, plan) in FAULT_MATRIX_SCENARIOS {
        for seed in FAULT_MATRIX_SEEDS {
            let cell =
                || run_fault_workload(plan(seed), Some(RetryPolicy::default()), FIG_FAULTS_OPS, rf);
            let (run, again) = (cell(), cell());
            let stats = &run.stats;
            let servers = |of: fn(&ServerFaultStats) -> u64| stats.per_server.iter().map(of).sum();
            let attributed = stats.timeouts == servers(|s| s.timeouts)
                && stats.transient_errors == servers(|s| s.transient_errors)
                && stats.slowdowns == servers(|s| s.slowdowns)
                && stats.unavailable_rejections == servers(|s| s.unavailable_rejections);
            let goodput = run.goodput_per_sim_sec();
            rows.push(record(
                FAULT_MATRIX_ROWS,
                vec![
                    scenario.into(),
                    format!("{seed:#x}").into(),
                    rf.into(),
                    FIG_FAULTS_OPS.into(),
                    run.ok_ops.into(),
                    goodput.into(),
                    run.p95_sim_ms.into(),
                    stats.injected_op_faults().into(),
                    stats.server_crashes.into(),
                    stats.timeouts.into(),
                    stats.retries.into(),
                    stats.giveups.into(),
                    run.replication.failovers.into(),
                    u64::from(attributed).into(),
                    u64::from(again.goodput_per_sim_sec().to_bits() == goodput.to_bits()).into(),
                ],
            ));
        }
    }
    record(FAULT_MATRIX, vec![rows.into()])
}

// ---------------------------------------------------------------------
// fig_availability: replication factor × availability through crash windows
// ---------------------------------------------------------------------

/// Replication factors the availability sweep compares.  RF = 1 is the
/// legacy unreplicated deployment; its figures are byte-identical to every
/// earlier report (the sim-identity gate covers them).
pub const FIG_AVAILABILITY_RFS: [usize; 3] = [1, 2, 3];

/// Ops per replication factor of the availability sweep.
pub const FIG_AVAILABILITY_OPS: u64 = 600;

/// Region servers of the availability deployment — enough that a crash
/// takes out only a slice of the key space.
pub const FIG_AVAILABILITY_SERVERS: usize = 5;

/// Number of scheduled region-server crashes the run rides through.
pub const FIG_AVAILABILITY_CRASHES: usize = 6;

/// Mean time to repair: how long each crashed server stays down (sim ms).
pub const FIG_AVAILABILITY_MTTR_MS: u64 = 50;

/// Seed of the availability sweep's fault RNG (crash times are scheduled,
/// not drawn, but the plan carries a seed like every other).
pub const FIG_AVAILABILITY_SEED: u64 = 0xA7A1_1AB1;

/// The scheduled crash plan: one crash every 400 sim ms, victims rotating
/// round-robin over the servers, each down for the MTTR.
fn fig_availability_plan() -> (FaultPlan, Vec<SimDuration>) {
    let times: Vec<SimDuration> = (1..=FIG_AVAILABILITY_CRASHES)
        .map(|i| SimDuration::from_millis(400 * i as u64))
        .collect();
    let plan = FaultPlan::new(FIG_AVAILABILITY_SEED).with_crashes(
        times.clone(),
        SimDuration::from_millis(FIG_AVAILABILITY_MTTR_MS),
    );
    (plan, times)
}


/// One replication factor's availability measurements.  An op is "in
/// window" when it *started* inside `[crash, crash + MTTR)`; goodput and
/// p95 are over successful ops, per bucket.  `window_over_steady` is the
/// headline: ≈ 1 means crashes are invisible to clients, ≪ 1 means they
/// stall on the MTTR.  `acked_writes_lost` counts acked writes whose value
/// was missing or stale after the run settled — must be 0: with
/// `wal_sync_interval = 1` every acked write is synced, and synced writes
/// survive failovers.
const FIG_AVAILABILITY_ROWS: &[Column] = &[
    count("replication_factor", "rf"),
    count("ops", "ops"),
    count("ok_ops", "ok"),
    count("window_ops", "window"),
    count("window_ok_ops", "window ok"),
    sim("steady_goodput_ops_per_sim_sec", "steady gp/s", Dec(1)),
    sim("window_goodput_ops_per_sim_sec", "window gp/s", Dec(1)),
    sim("window_over_steady", "win/steady", Times(3)),
    sim("steady_p95_sim_ms", "steady p95", Dec(2)),
    sim("window_p95_sim_ms", "window p95", Dec(2)),
    count("acked_writes_lost", "lost"),
    count("failovers", "failover"),
    count("catchup_replays", ""),
    count("records_shipped", "shipped"),
    count("unavailable_rejections", ""),
    count("giveups", ""),
    sim("sim_elapsed_ms", "", Dec(1)),
];

const FIG_AVAILABILITY: &[Column] = &[
    count("crashes", "scheduled crashes"),
    sim("mttr_ms", "MTTR (sim ms)", Dec(0)),
    count("servers", "servers"),
    table("rows", "", FIG_AVAILABILITY_ROWS),
];

/// Runs the fixed availability workload — the fig_faults op mix with
/// `wal_sync_interval = 1` (every acked write synced) over 5 region
/// servers — through the scheduled crash plan at one replication factor,
/// bucketing every op by whether it started inside a crash window.
pub fn run_availability_workload(rf: usize, ops: u64) -> Json {
    let (plan, crash_times) = fig_availability_plan();
    let mttr = SimDuration::from_millis(FIG_AVAILABILITY_MTTR_MS);
    let cluster = workload_cluster(ClusterConfig {
        region_servers: FIG_AVAILABILITY_SERVERS,
        wal_sync_interval: 1,
        replication_factor: rf,
        fault_plan: Some(plan),
        retry: Some(RetryPolicy::default()),
        ..ClusterConfig::default()
    });

    let clock = cluster.clock().clone();
    // Crash times are absolute simulated instants (durations since the
    // epoch); an op is "in window" if it starts inside any [t, t + MTTR).
    let in_window = |at_nanos: u64| {
        crash_times
            .iter()
            .any(|&t| at_nanos >= t.as_nanos() && at_nanos < (t + mttr).as_nanos())
    };

    let start = clock.now();
    let mut ok_ops = 0u64;
    let mut window_ops = 0u64;
    let mut window_ok = 0u64;
    // Latency samples and elapsed time per bucket, plus the last acked
    // value of every key written, for the post-run durability audit.
    let mut steady_lat: Vec<f64> = Vec::new();
    let mut window_lat: Vec<f64> = Vec::new();
    let mut steady_time = SimDuration::ZERO;
    let mut window_time = SimDuration::ZERO;
    let mut last_acked: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for i in 0..ops {
        let op_start = clock.now();
        let started_in_window = in_window(op_start.as_nanos());
        let outcome = workload_op(&cluster, i);
        let elapsed = clock.now() - op_start;
        let ok = outcome.is_ok();
        if let Ok(written) = outcome {
            ok_ops += 1;
            last_acked.extend(written);
        }
        if started_in_window {
            window_ops += 1;
            window_time += elapsed;
            if ok {
                window_ok += 1;
                window_lat.push(elapsed.as_millis_f64());
            }
        } else {
            steady_time += elapsed;
            if ok {
                steady_lat.push(elapsed.as_millis_f64());
            }
        }
    }
    let sim_elapsed = clock.now() - start;

    // Settle: wait out the last crash window so every victim has rejoined,
    // then audit that every acked write is still readable.  (The audit's
    // gets are uncharged for the goodput figures above.)
    let last_window_end = crash_times
        .last()
        .map(|&t| t + mttr)
        .unwrap_or(SimDuration::ZERO);
    let now_nanos = clock.now().as_nanos();
    if now_nanos < last_window_end.as_nanos() {
        clock.charge(SimDuration::from_nanos(
            last_window_end.as_nanos() - now_nanos + 1,
        ));
    }
    let mut lost = 0u64;
    for (key, value) in &last_acked {
        let survived = cluster
            .get("t", Get::new(key.clone()))
            .ok()
            .flatten()
            .and_then(|row| row.value("cf", "v").map(|v| v == &value[..]))
            .unwrap_or(false);
        if !survived {
            lost += 1;
        }
    }

    let goodput = |ok: u64, time: SimDuration| -> f64 {
        ok as f64 / time.as_millis_f64().max(f64::EPSILON) * 1_000.0
    };
    let steady_goodput = goodput(ok_ops - window_ok, steady_time);
    let window_goodput = goodput(window_ok, window_time);
    let stats = cluster.fault_stats();
    let replication = cluster.replication_stats();
    record(
        FIG_AVAILABILITY_ROWS,
        vec![
            rf.into(),
            ops.into(),
            ok_ops.into(),
            window_ops.into(),
            window_ok.into(),
            steady_goodput.into(),
            window_goodput.into(),
            (window_goodput / steady_goodput.max(f64::EPSILON)).into(),
            percentile(&mut steady_lat, 95).into(),
            percentile(&mut window_lat, 95).into(),
            lost.into(),
            replication.failovers.into(),
            replication.catchup_replays.into(),
            replication.records_shipped.into(),
            stats.unavailable_rejections.into(),
            stats.giveups.into(),
            sim_elapsed.as_millis_f64().into(),
        ],
    )
}

/// The availability figure: the same crash schedule at RF ∈ {1, 2, 3}.
/// Without replication a crash makes the victim's regions unavailable for
/// the whole MTTR; with RF ≥ 2 each crash fails over and clients ride
/// through the window at steady-state goodput, losing nothing.
pub fn fig_availability(ops: u64) -> Json {
    let rows: Vec<Json> =
        FIG_AVAILABILITY_RFS.iter().map(|&rf| run_availability_workload(rf, ops)).collect();
    record(
        FIG_AVAILABILITY,
        vec![
            FIG_AVAILABILITY_CRASHES.into(),
            (FIG_AVAILABILITY_MTTR_MS as f64).into(),
            FIG_AVAILABILITY_SERVERS.into(),
            rows.into(),
        ],
    )
}

// ---------------------------------------------------------------------
// fig_partial: partial view materialization under zipfian skew
// ---------------------------------------------------------------------

/// Seed of the fig_partial zipfian key streams (per-cell streams derive
/// from it by XORing in the skew's bit pattern, so every cell of one skew
/// draws the identical key sequence).
pub const FIG_PARTIAL_SEED: u64 = 0x5EED_2A87;

/// The skew axis: zipf exponents from mild to strongly skewed.
pub const FIG_PARTIAL_SKEWS: [f64; 3] = [0.8, 1.1, 1.4];

/// The budget axis: view-byte budgets as fractions of the full
/// materialization footprint.
pub const FIG_PARTIAL_BUDGET_FRACS: [f64; 3] = [0.05, 0.10, 0.25];


/// Simulated Q1K (keyed Customer⋈Orders read) and Q2K (keyed 3-way join
/// read) latency percentiles of one measured window, misses included;
/// `hot` is over hot keys only.
const Q1K_P50: Column = sim("q1k_p50_sim_ms", "Q1K p50", Dec(3));
const Q1K_P95: Column = sim("q1k_p95_sim_ms", "Q1K p95", Dec(3));
const Q1K_HOT_P95: Column = sim("q1k_hot_p95_sim_ms", "Q1K hot p95", Dec(3));
const Q2K_P50: Column = sim("q2k_p50_sim_ms", "", Dec(3));
const Q2K_P95: Column = sim("q2k_p95_sim_ms", "Q2K p95", Dec(3));

/// One fully-materialized baseline (one per skew — the footprint is
/// skew-independent but the latencies draw the same key stream as that
/// skew's partial cells): what `materialize_views` pre-filled (the budget
/// denominator) and the stored `V_*` footprint after the run.
const FIG_PARTIAL_BASELINES: &[Column] = &[
    column("zipf_s", "zipf s", Dec(1), Kind::Label),
    count("materialized_rows", ""),
    count("materialized_bytes", ""),
    count("view_store_rows", "full rows"),
    column("view_store_bytes", "full bytes", Mib, Kind::Count),
    Q1K_P50,
    Q1K_P95,
    Q1K_HOT_P95,
    Q2K_P50,
    Q2K_P95,
];

/// A view table's resident slice, from the cluster's storage metrics.
const FIG_PARTIAL_VIEW_TABLES: &[Column] = &[
    label("table", "view"),
    count("resident_rows", "rows"),
    column("resident_bytes", "size", Mib, Kind::Count),
];

/// One budget × skew cell.  Residency counters (`hits` … `bypasses`) are
/// deltas over the measured window, `resident_*` and `view_store_*` the
/// state at the end of the run; `*_x_vs_full` compare against the
/// same-skew baseline (≥ 1 = reduction for rows and bytes).
const FIG_PARTIAL_ROWS: &[Column] = &[
    column("zipf_s", "zipf s", Dec(1), Kind::Label),
    label("budget_label", "budget"),
    count("budget_bytes", ""),
    count("hits", ""),
    count("misses", ""),
    sim("hit_rate", "hit rate", Percent(1)),
    count("upqueries", "upq"),
    count("evicted_keys", "evict"),
    count("annihilated", "annihil"),
    count("deferred", ""),
    count("bypasses", ""),
    count("resident_keys", ""),
    count("resident_rows", ""),
    count("resident_bytes", ""),
    count("view_store_rows", "rows"),
    count("view_store_bytes", ""),
    sim("rows_x_vs_full", "rows x", Times(1)),
    sim("bytes_x_vs_full", "bytes x", Times(1)),
    Q1K_P50,
    Q1K_P95,
    Q1K_HOT_P95,
    Q2K_P50,
    Q2K_P95,
    sim("q1k_hot_p95_x_vs_full", "hot p95 x", Times(2)),
    table("view_tables", "resident slice per view table", FIG_PARTIAL_VIEW_TABLES),
];

/// `hot_rank`: ranks `1..=hot_rank` count as hot keys.
const FIG_PARTIAL: &[Column] = &[
    count("customers", ""),
    count("order_keys", "key universe (orders)"),
    count("warmup_ops", "warm-up ops per cell"),
    count("measured_ops", "measured ops per cell"),
    count("hot_rank", "hot = rank <="),
    table("baselines", "full materialization", FIG_PARTIAL_BASELINES),
    table("rows", "budget x skew cells", FIG_PARTIAL_ROWS),
];

/// Simulated latencies of one measured window, split by query and by key
/// temperature.
#[derive(Debug, Default)]
struct PartialLatencies {
    q1k: Vec<f64>,
    q1k_hot: Vec<f64>,
    q2k: Vec<f64>,
}

impl PartialLatencies {
    /// Q1K p50, Q1K p95, hot-key Q1K p95, Q2K p50, Q2K p95 — the order of
    /// the latency columns of both fig_partial tables.
    fn percentiles(&mut self) -> [f64; 5] {
        [
            percentile(&mut self.q1k, 50),
            percentile(&mut self.q1k, 95),
            percentile(&mut self.q1k_hot, 95),
            percentile(&mut self.q2k, 50),
            percentile(&mut self.q2k, 95),
        ]
    }
}

/// Runs `ops` operations of the fig_partial mix — 90% Q1K, 2% Q2K, 8%
/// order-total updates, every key drawn from `zipf` — recording simulated
/// latencies of the reads when `record` is given (warm-up passes None).
fn run_partial_mix(
    bench: &MicroBench,
    zipf: &mut tpcw::zipf::Zipf,
    hot_rank: u64,
    ops: u64,
    mut record: Option<&mut PartialLatencies>,
) {
    let queries = tpcw::micro::partial_queries();
    let (q1k, q2k) = (&queries[2], &queries[3]);
    let update = parse_statement("UPDATE Orders SET o_total = ? WHERE o_id = ?")
        .expect("fig_partial update parses");
    let system = bench.system();
    let clock = system.cluster().clock().clone();
    for i in 0..ops {
        let rank = zipf.sample();
        let key = Value::Int(rank as i64);
        match i % 50 {
            7 | 19 | 32 | 44 => {
                system
                    .execute(&update, &[Value::Float(100.0 + (i % 97) as f64), key])
                    .expect("fig_partial write succeeds");
            }
            3 => {
                let (result, sim) =
                    clock.measure(|| system.execute(q2k, std::slice::from_ref(&key)));
                result.expect("fig_partial Q2K succeeds");
                if let Some(latencies) = record.as_deref_mut() {
                    latencies.q2k.push(sim.as_millis_f64());
                }
            }
            _ => {
                let (result, sim) =
                    clock.measure(|| system.execute(q1k, std::slice::from_ref(&key)));
                result.expect("fig_partial Q1K succeeds");
                if let Some(latencies) = record.as_deref_mut() {
                    latencies.q1k.push(sim.as_millis_f64());
                    if rank <= hot_rank {
                        latencies.q1k_hot.push(sim.as_millis_f64());
                    }
                }
            }
        }
    }
}

/// Sums the stored `V_*` tables of a deployment: `(rows, bytes, per-table)`.
/// Compacts first so the figures count live rows, not the tombstones and
/// overwritten versions that demand-fill/evict churn leaves behind.
fn view_store_footprint(bench: &MicroBench) -> (u64, u64, Vec<(String, u64, u64)>) {
    bench.system().cluster().major_compact_all();
    let metrics = bench.system().cluster().metrics();
    let tables = metrics.resident_where(|name| name.starts_with("V_"));
    let rows = tables.iter().map(|(_, r, _)| r).sum();
    let bytes = tables.iter().map(|(_, _, b)| b).sum();
    (rows, bytes, tables)
}

/// Runs the partial-materialization figure at the default skew and budget
/// axes (plus one unbounded-budget cell at s = 1.1): per cell, a partial
/// deployment is demand-filled by the zipfian mix, warmed to its residency
/// steady state, then measured for hit rate, footprint and latency against
/// the same-skew fully-materialized baseline.  Single-threaded and seeded,
/// so every sim number is deterministic.
pub fn fig_partial(customers: u64) -> Json {
    fig_partial_with(customers, &FIG_PARTIAL_SKEWS, &FIG_PARTIAL_BUDGET_FRACS)
}

/// [`fig_partial`] with explicit skew and budget axes (tests shrink both).
pub fn fig_partial_with(customers: u64, skews: &[f64], fracs: &[f64]) -> Json {
    let order_keys = customers * 10;
    let warmup_ops = order_keys * 4;
    let measured_ops = order_keys * 2;
    let hot_rank = (order_keys / 100).max(8);
    let seed_of = |s: f64| FIG_PARTIAL_SEED ^ s.to_bits();
    let mut baselines = Vec::new();
    for &s in skews {
        let bench = MicroBench::build_partial(customers, 1, None)
            .expect("full-materialization baseline builds");
        let mut zipf = tpcw::zipf::Zipf::new(order_keys, s, seed_of(s));
        run_partial_mix(&bench, &mut zipf, hot_rank, warmup_ops, None);
        let mut latencies = PartialLatencies::default();
        run_partial_mix(&bench, &mut zipf, hot_rank, measured_ops, Some(&mut latencies));
        let (view_store_rows, view_store_bytes, _) = view_store_footprint(&bench);
        let mut values: Vec<Json> = vec![
            s.into(),
            bench.materialized().rows.into(),
            bench.materialized().bytes.into(),
            view_store_rows.into(),
            view_store_bytes.into(),
        ];
        values.extend(latencies.percentiles().map(Json::from));
        baselines.push(record(FIG_PARTIAL_BASELINES, values));
    }
    let full_bytes = baselines[0].num("materialized_bytes");

    let mut cells: Vec<(f64, u64, String)> = Vec::new();
    for &s in skews {
        for &frac in fracs {
            let budget = (full_bytes * frac) as u64;
            cells.push((s, budget, format!("{:.0}%", frac * 100.0)));
        }
    }
    // The unbounded cell: no evictions, residency bounded only by demand —
    // the demand-fill half of the design isolated from the budget half.
    let unbounded_s = if skews.contains(&1.1) { 1.1 } else { skews[0] };
    cells.push((unbounded_s, u64::MAX, "unbounded".to_string()));

    let mut rows = Vec::new();
    for (s, budget_bytes, budget_label) in cells {
        let baseline = baselines
            .iter()
            .find(|b| b.num("zipf_s") == s)
            .expect("every cell skew has a baseline");
        let bench = MicroBench::build_partial(customers, 1, Some(budget_bytes))
            .expect("partial deployment builds");
        let mut zipf = tpcw::zipf::Zipf::new(order_keys, s, seed_of(s));
        run_partial_mix(&bench, &mut zipf, hot_rank, warmup_ops, None);
        let before = bench
            .system()
            .residency_snapshot()
            .expect("partial deployment has a residency map");
        let mut latencies = PartialLatencies::default();
        run_partial_mix(&bench, &mut zipf, hot_rank, measured_ops, Some(&mut latencies));
        let after = bench.system().residency_snapshot().expect("residency map");

        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let (view_store_rows, view_store_bytes, view_tables) = view_store_footprint(&bench);
        let percentiles = latencies.percentiles();
        let q1k_hot_p95_sim_ms = percentiles[2];
        let mut values: Vec<Json> = vec![
            s.into(),
            budget_label.into(),
            budget_bytes.into(),
            hits.into(),
            misses.into(),
            (hits as f64 / ((hits + misses) as f64).max(1.0)).into(),
            (after.upqueries - before.upqueries).into(),
            (after.evicted_keys - before.evicted_keys).into(),
            (after.annihilated - before.annihilated).into(),
            (after.deferred - before.deferred).into(),
            (after.bypasses - before.bypasses).into(),
            after.resident_keys.into(),
            after.resident_rows.into(),
            after.resident_bytes.into(),
            view_store_rows.into(),
            view_store_bytes.into(),
            (baseline.num("view_store_rows") / (view_store_rows as f64).max(1.0)).into(),
            (baseline.num("view_store_bytes") / (view_store_bytes as f64).max(1.0)).into(),
        ];
        values.extend(percentiles.map(Json::from));
        values.push(
            (q1k_hot_p95_sim_ms / baseline.num("q1k_hot_p95_sim_ms").max(f64::EPSILON)).into(),
        );
        values.push(
            view_tables
                .into_iter()
                .map(|(table, rows, bytes)| {
                    record(FIG_PARTIAL_VIEW_TABLES, vec![table.into(), rows.into(), bytes.into()])
                })
                .collect::<Vec<Json>>()
                .into(),
        );
        rows.push(record(FIG_PARTIAL_ROWS, values));
    }

    record(
        FIG_PARTIAL,
        vec![
            customers.into(),
            order_keys.into(),
            warmup_ops.into(),
            measured_ops.into(),
            hot_rank.into(),
            baselines.into(),
            rows.into(),
        ],
    )
}

// ---------------------------------------------------------------------
// Figure 11: two-phase row-locking overhead
// ---------------------------------------------------------------------

const FIG11_ROWS: &[Column] = &[count("locks", "locks"), sim("sim_ms", "overhead (ms)", Dec(1))];

const FIG11: &[Column] = &[table("rows", "", FIG11_ROWS)];

/// Measures the overhead of acquiring and releasing `n` row locks through a
/// lock table in the NoSQL store (the paper's §IX-C experiment), once per
/// lock count on a fresh cluster.
pub fn fig11_lock_overhead(lock_counts: &[u64]) -> Json {
    let mut rows = Vec::new();
    for &locks in lock_counts {
        let cluster = Cluster::new(ClusterConfig::default());
        let manager = LockManager::new(cluster.clone());
        manager.create_lock_table("bench").expect("lock table");
        for key in 0..locks {
            manager.ensure_entry("bench", &key.to_string()).expect("entry");
        }
        let clock = cluster.clock().clone();
        let start = clock.now();
        let mut guards = Vec::with_capacity(locks as usize);
        for key in 0..locks {
            guards.push(
                manager
                    .acquire("bench", &key.to_string())
                    .expect("acquire")
                    .expect("uncontended"),
            );
        }
        for guard in guards {
            manager.release(guard).expect("release");
        }
        let sim_ms = (clock.now() - start).as_millis_f64();
        rows.push(record(FIG11_ROWS, vec![locks.into(), sim_ms.into()]));
    }
    record(FIG11, vec![rows.into()])
}

// ---------------------------------------------------------------------
// Figures 12 & 14 and Table II: the five-system TPC-W comparison
// ---------------------------------------------------------------------

/// The full per-statement, per-system measurement matrix.
#[derive(Debug, Clone, Default)]
pub struct ComparisonMatrix {
    /// Statement ids in presentation order (Q1..Q11 then W1..W13).
    pub statements: Vec<String>,
    /// System names in presentation order.
    pub systems: Vec<String>,
    /// `cells[statement][system]` → mean simulated ms over the repetitions
    /// (`None` if the system does not support the statement).
    pub cells: BTreeMap<String, BTreeMap<String, Option<f64>>>,
    /// Total stored bytes per system (for Table III).
    pub database_bytes: BTreeMap<String, u64>,
}

impl ComparisonMatrix {
    /// Mean response time of a statement on a system, if supported.
    pub fn mean_ms(&self, statement: &str, system: &str) -> Option<f64> {
        *self.cells.get(statement)?.get(system)?
    }

    /// Ratio of the two systems' average response times over the statements
    /// matching `filter` that both systems support (the paper's "on average
    /// X times faster" numbers compare the per-system averages).
    pub fn mean_ratio(
        &self,
        numerator: &str,
        denominator: &str,
        filter: impl Fn(&str) -> bool,
    ) -> Option<f64> {
        let mut numerator_total = 0.0;
        let mut denominator_total = 0.0;
        let mut count = 0;
        for statement in self.statements.iter().filter(|s| filter(s)) {
            if let (Some(n), Some(d)) = (
                self.mean_ms(statement, numerator),
                self.mean_ms(statement, denominator),
            ) {
                numerator_total += n;
                denominator_total += d;
                count += 1;
            }
        }
        if count == 0 || denominator_total <= 0.0 {
            None
        } else {
            Some(numerator_total / denominator_total)
        }
    }

    /// Sum of the mean response times of every statement on one system
    /// (Table II), `None` if the system does not support every statement.
    pub fn total_ms(&self, system: &str) -> Option<f64> {
        let mut total = 0.0;
        for statement in &self.statements {
            total += self.mean_ms(statement, system)?;
        }
        Some(total)
    }
}

/// Runs every join query (Fig. 12) and every write statement (Fig. 14) the
/// requested number of repetitions on all five systems and returns the
/// measurement matrix used by Figures 12/14 and Tables II/III.
pub fn comparison_matrix(customers: u64, reps: u64) -> ComparisonMatrix {
    let scale = TpcwScale::new(customers);
    let dataset = TpcwDataset::generate(scale);
    let systems: Vec<Box<dyn EvaluatedSystem>> = SystemKind::all()
        .iter()
        .map(|kind| build_system(*kind, &dataset))
        .collect();

    let mut matrix = ComparisonMatrix {
        systems: systems.iter().map(|s| s.name().to_string()).collect(),
        ..ComparisonMatrix::default()
    };
    for system in &systems {
        matrix
            .database_bytes
            .insert(system.name().to_string(), system.database_size_bytes());
    }

    // Every repetition of one statement on every system, `None` for a
    // system that cannot execute it.
    let mut measure = |id: &str, statement: sql::Statement, params: &dyn Fn(u64) -> Vec<Value>| {
        matrix.statements.push(id.to_string());
        let row = matrix.cells.entry(id.to_string()).or_default();
        for system in &systems {
            let samples: Result<Vec<f64>, String> = (0..reps)
                .map(|rep| Ok(system.execute(&statement, &params(rep))?.elapsed.as_millis_f64()))
                .collect();
            row.insert(system.name().to_string(), samples.ok().map(|s| simclock::mean(&s)));
        }
    };
    // Join queries Q1..Q11, then write statements W1..W13.
    for query in join_queries() {
        measure(query.id, query.statement(), &|rep| query.params(scale, rep));
    }
    for write in write_statements() {
        measure(write.id, write.statement(), &|rep| write.params(scale, rep));
    }
    matrix
}

/// Building the matrix records nothing but its `wall_ms`, reported once
/// under its own key so the figures derived from it are not
/// cross-contaminated.
const COMPARISON_MATRIX: &[Column] = &[];

/// Mean simulated response time per statement per system; `X` (JSON
/// `null`) = statement not supported by that system.
const MATRIX_ROWS: &[Column] = &[
    label("statement", "statement"),
    sim("VoltDB_sim_ms", "VoltDB", Dec(1)),
    sim("Synergy_sim_ms", "Synergy", Dec(1)),
    sim("MVCC-A_sim_ms", "MVCC-A", Dec(1)),
    sim("MVCC-UA_sim_ms", "MVCC-UA", Dec(1)),
    sim("Baseline_sim_ms", "Baseline", Dec(1)),
];

const MATRIX: &[Column] = &[table("rows", "", MATRIX_ROWS)];

/// Figure 12 (`prefix = 'Q'`, the join queries) or Figure 14 (`'W'`, the
/// write statements) of a comparison matrix, noting on `ctx` how many times
/// slower than Synergy the MVCC systems are on average, and Synergy than
/// VoltDB (over the statements both support).
fn matrix_figure(ctx: &mut Context, prefix: char) -> Json {
    let matrix = ctx.matrix();
    let rows: Vec<Json> = matrix
        .statements
        .iter()
        .filter(|s| s.starts_with(prefix))
        .map(|statement| {
            let mut values = vec![Json::from(statement.as_str())];
            values.extend(matrix.systems.iter().map(|s| Json::from(matrix.mean_ms(statement, s))));
            record(MATRIX_ROWS, values)
        })
        .collect();
    let pairs =
        [("MVCC-UA", "Synergy"), ("MVCC-A", "Synergy"), ("Baseline", "Synergy"), ("Synergy", "VoltDB")];
    let notes: Vec<String> = pairs
        .into_iter()
        .filter_map(|(slower, faster)| {
            let ratio = matrix.mean_ratio(slower, faster, |s| s.starts_with(prefix))?;
            Some(format!("  {slower} / {faster} mean ratio = {ratio:.1}x"))
        })
        .collect();
    ctx.notes.extend(notes);
    record(MATRIX, vec![rows.into()])
}

const TABLE2_ROWS: &[Column] =
    &[label("system", "system"), sim("total_sim_ms", "total (sim ms)", Dec(1))];

const TABLE2: &[Column] = &[table("rows", "", TABLE2_ROWS)];

/// Table II: the sum of the mean response times of every TPC-W statement
/// per HBase-backed system (VoltDB does not support every statement).
pub fn table2_totals(matrix: &ComparisonMatrix) -> Json {
    let rows: Vec<Json> = ["Synergy", "MVCC-A", "MVCC-UA", "Baseline"]
        .into_iter()
        .map(|system| record(TABLE2_ROWS, vec![system.into(), matrix.total_ms(system).into()]))
        .collect();
    record(TABLE2, vec![rows.into()])
}

const TABLE3_ROWS: &[Column] = &[
    label("system", "system"),
    column("bytes", "size", Mib, Kind::Count),
    sim("relative_to_baseline", "relative to Baseline", Times(2)),
];

const TABLE3: &[Column] = &[table("rows", "", TABLE3_ROWS)];

/// Table III: total stored bytes per system, and relative to Baseline.
pub fn table3_sizes(matrix: &ComparisonMatrix) -> Json {
    let baseline = *matrix.database_bytes.get("Baseline").unwrap_or(&1).max(&1) as f64;
    let rows: Vec<Json> = ["VoltDB", "Synergy", "MVCC-A", "MVCC-UA", "Baseline"]
        .into_iter()
        .filter_map(|name| {
            let bytes = *matrix.database_bytes.get(name)?;
            Some(record(
                TABLE3_ROWS,
                vec![name.into(), bytes.into(), (bytes as f64 / baseline).into()],
            ))
        })
        .collect();
    record(TABLE3, vec![rows.into()])
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// The same write under a single hierarchical lock vs per-row locks on
/// every touched row.
const ABLATION_ROWS: &[Column] = &[
    count("rows_touched", "rows touched"),
    sim("single_lock_sim_ms", "single lock (ms)", Dec(1)),
    sim("per_row_locks_sim_ms", "per-row locks (ms)", Dec(1)),
];

const ABLATION: &[Column] = &[table("rows", "", ABLATION_ROWS)];

/// Quantifies the benefit of the single hierarchical lock (paper §III-2):
/// lock acquisition/release cost as a function of how many rows a write
/// transaction would otherwise have to lock.
pub fn ablation_lock_granularity(rows_touched: &[u64]) -> Json {
    let mut out = Vec::new();
    for &rows in rows_touched {
        let cluster = Cluster::new(ClusterConfig::default());
        let manager = LockManager::new(cluster.clone());
        manager.create_lock_table("ablation").expect("lock table");
        for key in 0..rows.max(1) {
            manager.ensure_entry("ablation", &key.to_string()).expect("entry");
        }
        let clock = cluster.clock().clone();

        // Single hierarchical lock.
        let start = clock.now();
        let guard = manager.acquire("ablation", "0").expect("acquire").expect("free");
        manager.release(guard).expect("release");
        let single_lock_ms = (clock.now() - start).as_millis_f64();

        // One lock per touched row.
        let start = clock.now();
        let mut guards = Vec::new();
        for key in 0..rows {
            guards.push(
                manager
                    .acquire("ablation", &key.to_string())
                    .expect("acquire")
                    .expect("free"),
            );
        }
        for guard in guards {
            manager.release(guard).expect("release");
        }
        let per_row_locks_ms = (clock.now() - start).as_millis_f64();

        out.push(record(
            ABLATION_ROWS,
            vec![rows.into(), single_lock_ms.into(), per_row_locks_ms.into()],
        ));
    }
    record(ABLATION, vec![out.into()])
}

// ---------------------------------------------------------------------
// Qualitative tables
// ---------------------------------------------------------------------

const TABLE1_ROWS: &[Column] = &[
    label("system", "System"),
    label("scalability", "Scalability"),
    label("expressiveness", "Query expressiveness"),
    label("transactions", "Transaction support"),
    label("disk", "Disk utilization"),
];

const TABLE1: &[Column] = &[table("rows", "", TABLE1_ROWS)];

/// The qualitative comparison of Table I.
pub fn table1_qualitative() -> Json {
    let rows: Vec<Json> = [
        [
            "NoSQL (HBase)",
            "Linear scale out",
            "SQL",
            "ACID, snapshot isolation (MVCC)",
            "Higher than NewSQL",
        ],
        [
            "NewSQL (VoltDB)",
            "Linear scale out",
            "SQL with joins limited to partition keys",
            "ACID, serializable isolation",
            "Lowest",
        ],
        [
            "Synergy",
            "Linear scale out",
            "SQL with views limited to key/foreign-key joins",
            "ACID, read-committed isolation",
            "Highest",
        ],
    ]
    .into_iter()
    .map(|row| record(TABLE1_ROWS, row.map(Json::from).to_vec()))
    .collect();
    record(TABLE1, vec![rows.into()])
}

const FIG13_ROWS: &[Column] = &[
    label("system", "system"),
    label("view_selection", "view selection"),
    label("concurrency_control", "concurrency control"),
];

const FIG13: &[Column] = &[table("rows", "", FIG13_ROWS)];

/// The mechanism matrix of Figure 13.
pub fn fig13_mechanisms() -> Json {
    let rows: Vec<Json> = SystemKind::all()
        .iter()
        .map(|kind| {
            record(
                FIG13_ROWS,
                vec![
                    kind.name().into(),
                    kind.view_mechanism().into(),
                    kind.concurrency_mechanism().into(),
                ],
            )
        })
        .collect();
    record(FIG13, vec![rows.into()])
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// Every figure and table of the evaluation, in report order.  The four
/// figures derived from the comparison matrix follow `comparison_matrix`,
/// which builds it (see [`selected`]).
pub static FIGURES: &[Figure] = &[
    Figure {
        name: "table1",
        title: "Table I: qualitative comparison",
        note: "",
        columns: TABLE1,
        run: |_| table1_qualitative(),
    },
    Figure {
        name: "fig10",
        title: "Figure 10: micro-benchmark, view scan vs join algorithm",
        note: "(paper: view scan 6x / 11.7x faster than the join at 50k customers; store rows \
               scanned must stay at the limit while the database grows)",
        columns: FIG10,
        run: |ctx| fig10_micro(&fig10_scales(ctx.customers), ctx.threads, FIG10_LIMIT),
    },
    Figure {
        name: "fig_par",
        title: "fig_par: region-parallel execution sweep (Q2, deepest micro join)",
        note: "(per-worker sim deltas merge as max; threads=1 equals the serial pipeline)",
        columns: FIG_PAR,
        // At the largest fig10 scale, where the view spans several regions
        // and region-parallelism has shards to use.
        run: |ctx| fig_par(fig10_scales(ctx.customers)[2], &FIG_PAR_THREADS),
    },
    Figure {
        name: "fig11",
        title: "Figure 11: two-phase row locking overhead",
        note: "(paper: 342 / 571 / 2182 ms for 10 / 100 / 1000 locks)",
        columns: FIG11,
        run: |_| fig11_lock_overhead(&[10, 100, 1000]),
    },
    Figure {
        name: "fig13",
        title: "Figure 13: mechanisms per evaluated system",
        note: "",
        columns: FIG13,
        run: |_| fig13_mechanisms(),
    },
    Figure {
        name: "comparison_matrix",
        title: "comparison matrix: the five evaluated systems, built and measured once",
        note: "",
        columns: COMPARISON_MATRIX,
        run: |ctx| {
            ctx.matrix();
            record(COMPARISON_MATRIX, Vec::new())
        },
    },
    Figure {
        name: "fig12",
        title: "Figure 12: TPC-W join query response times",
        note: "(X = statement not supported by that system; paper: 19.5x / 6.2x / 28.2x, and \
               Synergy / VoltDB 11x on the supported queries)",
        columns: MATRIX,
        run: |ctx| matrix_figure(ctx, 'Q'),
    },
    Figure {
        name: "fig14",
        title: "Figure 14: TPC-W write statement response times",
        note: "(paper: 9x / 8.6x / 8.6x, and Synergy / VoltDB 9.4x)",
        columns: MATRIX,
        run: |ctx| matrix_figure(ctx, 'W'),
    },
    Figure {
        name: "table2",
        title: "Table II: sum of response times of all TPC-W statements",
        note: "(paper: Synergy 33.7 s, MVCC-A 77.4 s, MVCC-UA 132.4 s, Baseline 173.4 s; VoltDB \
               excluded)",
        columns: TABLE2,
        run: |ctx| table2_totals(ctx.matrix()),
    },
    Figure {
        name: "table3",
        title: "Table III: database sizes",
        note: "(paper @1M customers: VoltDB 31.8, Synergy 92, MVCC-A 91.8, MVCC-UA 45.7, Baseline \
               43.8 GB)",
        columns: TABLE3,
        run: |ctx| table3_sizes(ctx.matrix()),
    },
    Figure {
        name: "fig_writes",
        title: "fig_writes: delta-dataflow view maintenance",
        note: "(delta probes maintenance indexes: rows scanned per write do not grow with the \
               database)",
        columns: FIG_WRITES,
        run: |ctx| fig_writes(ctx.customers, FIG_WRITES_COUNT, ctx.threads),
    },
    Figure {
        name: "fig_faults",
        title: "fig_faults: injected faults × retry policy, and crash recovery",
        note: "(same seed + same fault plan => byte-identical figures; gates: zero losses, zero \
               dirty views)",
        columns: FIG_FAULTS,
        // The recovery demonstration runs at the smallest fig10 scale —
        // recovery semantics are scale-independent, so the cheapest
        // deployment suffices; the goodput sweep has its own fixed size.
        run: |ctx| fig_faults(fig10_scales(ctx.customers)[0], FIG_FAULTS_OPS),
    },
    Figure {
        name: "fault_matrix",
        title: "fault_matrix: 3 seeds × 5 fault scenarios through the default retry policy",
        note: "(bench_diff gates every cell: its faults fire and are absorbed, RF >= 2 fails over, \
               per-server columns sum to the globals, the rerun is bit-identical)",
        columns: FAULT_MATRIX,
        run: |_| fault_matrix(),
    },
    Figure {
        name: "fig_availability",
        title: "fig_availability: replication factor × availability through crash windows",
        note: "(wal_sync_interval 1: every acked write synced; gates: RF>=2 rides through windows \
               at >=0.7x steady goodput with zero acked-write loss)",
        columns: FIG_AVAILABILITY,
        run: |_| fig_availability(FIG_AVAILABILITY_OPS),
    },
    Figure {
        name: "fig_partial",
        title: "fig_partial: partial view materialization under zipfian skew",
        note: "(mix: 90% Q1K / 2% Q2K / 8% writes; rows x / bytes x = full-materialization \
               footprint over this cell's resident slice)",
        columns: FIG_PARTIAL,
        run: |ctx| fig_partial(ctx.customers),
    },
    Figure {
        name: "ablation",
        title: "Ablation: single hierarchical lock vs per-row locks",
        note: "",
        columns: ABLATION,
        run: |_| ablation_lock_granularity(&[1, 10, 100, 1000]),
    },
];

/// The registry entries artifact name `artifact` runs: the one of that
/// name, or all of them for `"all"`; `comparison_matrix` joins any figure
/// derived from it, so the matrix's wall time is recorded in every report
/// that paid it.
pub fn selected(artifact: &str) -> impl Iterator<Item = &'static Figure> + '_ {
    let derived = ["fig12", "fig14", "table2", "table3"].contains(&artifact);
    FIGURES.iter().filter(move |f| {
        artifact == "all" || f.name == artifact || (derived && f.name == "comparison_matrix")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record of `rows` whose `key` column reads `value`.
    fn find<'a>(rows: &'a [Json], key: &str, value: &str) -> &'a Json {
        rows.iter()
            .find(|r| r.text(key) == value)
            .unwrap_or_else(|| panic!("no record with {key} = {value}"))
    }

    #[test]
    fn fig_availability_replication_rides_through_crash_windows() {
        let output = fig_availability(FIG_AVAILABILITY_OPS);
        let rows = output.rows("rows");
        assert_eq!(rows.len(), FIG_AVAILABILITY_RFS.len());
        for row in rows {
            let rf = row.num("replication_factor");
            assert!(
                row.num("window_ops") > 0.0,
                "rf={rf}: the run never entered a crash window: {row:?}"
            );
            assert_eq!(row.num("acked_writes_lost"), 0.0, "rf={rf}: acked writes lost");
            if rf == 1.0 {
                assert_eq!(row.num("failovers"), 0.0);
                assert_eq!(row.num("records_shipped"), 0.0);
            } else {
                assert!(row.num("failovers") >= 1.0, "rf={rf}: {row:?}");
                assert!(
                    row.num("window_over_steady") >= 0.7,
                    "rf={rf}: in-window goodput collapsed: {row:?}"
                );
            }
        }
        // The headline contrast: replication keeps in-window goodput near
        // steady state, while RF = 1 clients stall on the MTTR.
        let (rf1, rf2) = (&rows[0], &rows[1]);
        assert!(
            rf1.num("window_over_steady") < rf2.num("window_over_steady"),
            "rf1 {rf1:?} vs rf2 {rf2:?}"
        );
        // Determinism: the sweep reproduces itself exactly.
        let again = run_availability_workload(2, FIG_AVAILABILITY_OPS);
        assert_eq!(again.num("ok_ops"), rf2.num("ok_ops"));
        assert_eq!(again.num("sim_elapsed_ms"), rf2.num("sim_elapsed_ms"));
        assert_eq!(again.num("records_shipped"), rf2.num("records_shipped"));
    }

    #[test]
    fn fig11_overhead_grows_with_lock_count() {
        let output = fig11_lock_overhead(&[10, 100]);
        let rows = output.rows("rows");
        assert_eq!(rows.len(), 2);
        assert!(rows[1].num("sim_ms") > rows[0].num("sim_ms") * 5.0);
    }

    #[test]
    fn ablation_shows_single_lock_is_cheaper() {
        let output = ablation_lock_granularity(&[50]);
        let row = &output.rows("rows")[0];
        assert!(row.num("per_row_locks_sim_ms") > row.num("single_lock_sim_ms") * 10.0);
    }

    #[test]
    fn fig10_speedup_is_positive_and_grows_with_join_depth() {
        let output = fig10_micro(&[30], 1, 0);
        let rows = output.rows("rows");
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.num("sim_speedup") > 1.0));
        assert!(rows.iter().all(|r| {
            r.num("view_peak_rows_resident") > 0.0 && r.num("join_peak_rows_resident") > 0.0
        }));
        assert!(output.rows("limit_rows").is_empty());
    }

    #[test]
    fn fig10_limit_scan_rows_are_scale_independent() {
        let output = fig10_micro(&[25, 100], 1, 8);
        let rows = output.rows("limit_rows");
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.num("store_rows_scanned") == 8.0));
    }

    #[test]
    fn fig_par_sweep_is_deterministic_in_sim_and_beats_serial_joins() {
        let output = fig_par(30, &[1, 2, 4]);
        let rows = output.rows("rows");
        assert_eq!(rows.len(), 3);
        assert!((rows[0].num("view_sim_x_vs_serial") - 1.0).abs() < 1e-9);
        // The partitioned join's sim time improves with workers even when
        // the tables are single-region at this tiny scale.
        assert!(rows[2].num("join_sim_ms") < rows[0].num("join_sim_ms"));
        // Re-running the sweep reproduces the sim figures exactly.
        let again = fig_par(30, &[1, 2, 4]);
        for (a, b) in rows.iter().zip(again.rows("rows")) {
            assert_eq!(a.num("view_sim_ms").to_bits(), b.num("view_sim_ms").to_bits());
            assert_eq!(a.num("join_sim_ms").to_bits(), b.num("join_sim_ms").to_bits());
        }
    }

    #[test]
    fn fig_writes_delta_cost_is_flat_in_database_size() {
        let out = fig_writes(40, 8, 1);
        let [delta] = out.rows("rows") else { panic!("one maintenance row") };
        assert!(delta.num("view_rows_touched_per_write") > 0.0);
        // Sim figures are deterministic, and the delta path's cost per
        // write is database-size independent (it probes maintenance
        // indexes instead of scanning views), so at 4x the customers the
        // store rows it reads and its cost are unchanged.
        let larger = fig_writes(160, 4, 1);
        let delta_l = &larger.rows("rows")[0];
        assert_eq!(
            delta_l.num("store_rows_scanned_per_write"),
            delta.num("store_rows_scanned_per_write")
        );
        // The cost is not bit-identical: scanned key bytes grow a little
        // with id widths, and a customer's view rows straddle a region
        // boundary more often in a larger table, each straddle one more
        // store RPC per phase.  Those RPCs stay few — under one more
        // (view, region) pair per write, i.e. three puts, at 4x the
        // customers — and net of them the cost stays flat to well under a
        // percent.
        let m = simclock::CostModel::default();
        let rpc_ms = (m.rpc_latency + m.wal_sync).as_millis_f64();
        let (cost, cost_l) = (delta.num("sim_ms_per_write"), delta_l.num("sim_ms_per_write"));
        let (puts, puts_l) = (delta.num("store_puts_per_write"), delta_l.num("store_puts_per_write"));
        assert!(
            puts_l - puts < 3.0,
            "store RPCs per write must not grow with database size: {puts} vs {puts_l}"
        );
        assert!(
            ((cost_l - puts_l * rpc_ms) - (cost - puts * rpc_ms)).abs() < cost * 1e-3,
            "delta maintenance cost must not grow with database size: \
             {cost} ({puts} puts) vs {cost_l} ({puts_l} puts)"
        );
    }

    #[test]
    fn fig_faults_retries_preserve_goodput_and_recovery_loses_nothing() {
        let out = fig_faults(30, 200);
        let rows = out.rows("rows");
        assert_eq!(rows.len(), FIG_FAULTS_RATES.len() * 2);
        let cell = |retry: &str, rate: f64| {
            rows.iter()
                .find(|r| r.text("retry") == retry && r.num("fault_rate") == rate)
                .unwrap()
        };
        // Faults actually fire at the 1% point, and retries absorb them:
        // goodput stays within 10% of no-fault while no op is given up on.
        let faulted = cell("backoff", 0.01);
        assert!(faulted.num("injected_op_faults") > 0.0);
        assert_eq!(faulted.num("giveups"), 0.0);
        assert_eq!(faulted.num("ok_ops"), faulted.num("ops"));
        assert!(
            faulted.num("goodput_vs_no_fault") > 0.9,
            "1% faults cost more than 10% goodput: {}",
            faulted.num("goodput_vs_no_fault")
        );
        // Without retries the same fault rate loses ops outright.
        let unprotected = cell("none", 0.05);
        assert!(unprotected.num("giveups") > 0.0);
        assert!(unprotected.num("ok_ops") < unprotected.num("ops"));
        // The crash-recovery demonstration: degradation served the read,
        // recovery lost nothing and left no view dirty.
        let recovery = out.get("recovery").unwrap();
        assert!(recovery.num("dirty_fallbacks") >= 1.0);
        assert!(recovery.num("locks_reclaimed") >= 1.0);
        assert!(recovery.num("view_rows_rolled_forward") > 0.0);
        assert_eq!(recovery.num("lost_acked_synced_writes"), 0.0);
        assert_eq!(recovery.num("dirty_view_rows_after_recovery"), 0.0);
        assert!(recovery.num("recovery_sim_ms") > 0.0);
        // Determinism: the same seed reproduces the sweep byte-for-byte.
        let again = fig_faults(30, 200);
        for (a, b) in rows.iter().zip(again.rows("rows")) {
            for key in ["goodput_ops_per_sim_sec", "p95_sim_ms"] {
                assert_eq!(a.num(key).to_bits(), b.num(key).to_bits());
            }
        }
    }

    #[test]
    fn fig_partial_bounds_footprint_and_stays_deterministic() {
        let out = fig_partial_with(20, &[1.2], &[0.10]);
        assert_eq!(out.rows("baselines").len(), 1);
        assert_eq!(out.rows("rows").len(), 2, "one budget cell plus the unbounded cell");
        let full = &out.rows("baselines")[0];
        assert!(full.num("view_store_rows") > 0.0 && full.num("view_store_bytes") > 0.0);

        let cell = find(out.rows("rows"), "budget_label", "10%");
        // The budget binds: the stored view slice is a fraction of full
        // materialization, demand-filled by upqueries and kept under the
        // budget by eviction.
        assert!(cell.num("upqueries") > 0.0);
        assert!(cell.num("evicted_keys") > 0.0, "a 10% budget must evict under zipf");
        assert!(cell.num("bytes_x_vs_full") > 2.0, "bytes_x = {}", cell.num("bytes_x_vs_full"));
        assert!(cell.num("hit_rate") > 0.5, "hit rate = {}", cell.num("hit_rate"));
        assert!(!cell.rows("view_tables").is_empty());
        // Writes to evicted keys are annihilated rather than maintained.
        assert!(cell.num("annihilated") > 0.0);

        // The unbounded cell never evicts and serves the steady state
        // entirely from residency.
        let unbounded = find(out.rows("rows"), "budget_label", "unbounded");
        assert_eq!(unbounded.num("evicted_keys"), 0.0);
        assert!(unbounded.num("hit_rate") >= cell.num("hit_rate"));
        assert!(unbounded.num("view_store_bytes") <= full.num("view_store_bytes"));

        // Same seed, same figures — bit-for-bit.
        let again = fig_partial_with(20, &[1.2], &[0.10]);
        for (a, b) in out.rows("rows").iter().zip(again.rows("rows")) {
            for key in ["hits", "resident_bytes", "q1k_p95_sim_ms", "q2k_p50_sim_ms"] {
                assert_eq!(a.num(key).to_bits(), b.num(key).to_bits(), "{key}");
            }
        }
    }

    #[test]
    fn qualitative_tables_have_expected_shape() {
        assert_eq!(table1_qualitative().rows("rows").len(), 3);
        assert_eq!(fig13_mechanisms().rows("rows").len(), 5);
    }
}
