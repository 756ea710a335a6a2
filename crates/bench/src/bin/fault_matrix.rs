//! `fault_matrix` — the CI fault-injection smoke matrix.
//!
//! ```text
//! cargo run --release -p bench --bin fault_matrix
//! ```
//!
//! Runs the deterministic store-level fault workload across 3 seeds × 5
//! scenarios (no faults, crash-heavy at RF ∈ {1, 2, 3}, timeout-heavy)
//! with the default backoff retry policy, and exits non-zero when any cell
//! violates its invariants:
//!
//! - every scenario's goodput is positive and the workload terminates;
//! - with no faults, every op succeeds and nothing is injected;
//! - crash-heavy cells actually fire server crashes, timeout-heavy cells
//!   actually inject timeouts — a silently disarmed fault plan is itself a
//!   failure;
//! - the RF ≥ 2 crash-heavy cells actually fail regions over (and RF = 1
//!   never does);
//! - retries absorb the faults: at most 2% of ops may be given up on in
//!   the faulted scenarios;
//! - per-server fault attribution always sums to the cluster-wide
//!   counters;
//! - every cell is reproducible: re-running it with the same seed yields
//!   bit-identical goodput (the determinism contract).

use bench::{run_fault_workload, FaultWorkloadOutcome, FIG_FAULTS_OPS};
use nosql_store::{FaultPlan, RetryPolicy};
use simclock::SimDuration;

struct Scenario {
    name: &'static str,
    plan: fn(u64) -> Option<FaultPlan>,
    /// Replication factor of the cell's cluster (1 = legacy unreplicated).
    rf: usize,
}

/// Region-server crashes every ~400 sim ms through the workload window,
/// 50 ms MTTR, plus a trickle of transient errors.
fn crash_heavy(seed: u64) -> Option<FaultPlan> {
    Some(
        FaultPlan::new(seed)
            .with_transients(0.005)
            .with_crashes(
                (1..=6).map(|i| SimDuration::from_millis(400 * i)).collect(),
                SimDuration::from_millis(50),
            ),
    )
}

const SCENARIOS: [Scenario; 5] = [
    Scenario {
        name: "no-faults",
        plan: |_seed| None,
        rf: 1,
    },
    Scenario {
        name: "crash-heavy",
        plan: crash_heavy,
        rf: 1,
    },
    Scenario {
        name: "crash-rf2",
        plan: crash_heavy,
        rf: 2,
    },
    Scenario {
        name: "crash-rf3",
        plan: crash_heavy,
        rf: 3,
    },
    Scenario {
        name: "timeout-heavy",
        plan: |seed| {
            Some(
                FaultPlan::new(seed)
                    .with_timeouts(0.05)
                    .with_slow_regions(0.05, SimDuration::from_millis(10)),
            )
        },
        rf: 1,
    },
];

const SEEDS: [u64; 3] = [0xA11CE, 0xB0B0, 0xC0FFEE];

fn main() {
    let mut failures: Vec<String> = Vec::new();
    println!(
        "{:<14} {:>10} {:>3} {:>6} {:>6} {:>14} {:>10} {:>9} {:>8} {:>8} {:>9}",
        "scenario", "seed", "rf", "ops", "ok", "goodput/sim-s", "p95 sim ms", "injected", "retries", "giveups", "failovers"
    );
    for scenario in &SCENARIOS {
        for seed in SEEDS {
            let retry = Some(RetryPolicy::default());
            let run =
                run_fault_workload((scenario.plan)(seed), retry.clone(), FIG_FAULTS_OPS, scenario.rf);
            println!(
                "{:<14} {:>#10x} {:>3} {:>6} {:>6} {:>14.1} {:>10.2} {:>9} {:>8} {:>8} {:>9}",
                scenario.name,
                seed,
                scenario.rf,
                run.ops,
                run.ok_ops,
                run.goodput_per_sim_sec(),
                run.p95_sim_ms,
                run.stats.injected_op_faults(),
                run.stats.retries,
                run.stats.giveups,
                run.replication.failovers
            );
            check(scenario, seed, &run, &mut failures);
            let again =
                run_fault_workload((scenario.plan)(seed), retry, FIG_FAULTS_OPS, scenario.rf);
            if again.goodput_per_sim_sec().to_bits() != run.goodput_per_sim_sec().to_bits() {
                failures.push(format!(
                    "{} seed {seed:#x}: goodput not reproducible ({} vs {})",
                    scenario.name,
                    run.goodput_per_sim_sec(),
                    again.goodput_per_sim_sec()
                ));
            }
        }
    }
    if failures.is_empty() {
        println!("fault matrix clean: all scenarios within gates, all cells reproducible.");
    } else {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}

fn check(scenario: &Scenario, seed: u64, run: &FaultWorkloadOutcome, failures: &mut Vec<String>) {
    let name = scenario.name;
    let cell = format!("{name} seed {seed:#x}");
    if run.goodput_per_sim_sec() <= 0.0 {
        failures.push(format!("{cell}: goodput not positive"));
    }
    match name {
        "no-faults" => {
            if run.ok_ops != run.ops || run.stats.injected_op_faults() != 0 {
                failures.push(format!("{cell}: faults fired with no plan configured"));
            }
        }
        "crash-heavy" | "crash-rf2" | "crash-rf3" => {
            if run.stats.server_crashes == 0 {
                failures.push(format!("{cell}: no server crash fired"));
            }
            if scenario.rf >= 2 && run.replication.failovers == 0 {
                failures.push(format!("{cell}: rf {} but no failover fired", scenario.rf));
            }
            if scenario.rf == 1 && run.replication.failovers != 0 {
                failures.push(format!("{cell}: failover fired with replication off"));
            }
        }
        "timeout-heavy" => {
            if run.stats.timeouts == 0 {
                failures.push(format!("{cell}: no timeout injected"));
            }
        }
        _ => unreachable!(),
    }
    // Per-server attribution must account for every cluster-wide count.
    let sums = run.stats.per_server.iter().fold((0u64, 0u64, 0u64, 0u64), |acc, s| {
        (
            acc.0 + s.timeouts,
            acc.1 + s.transient_errors,
            acc.2 + s.slowdowns,
            acc.3 + s.unavailable_rejections,
        )
    });
    if sums
        != (
            run.stats.timeouts,
            run.stats.transient_errors,
            run.stats.slowdowns,
            run.stats.unavailable_rejections,
        )
    {
        failures.push(format!("{cell}: per-server fault columns do not sum to the globals"));
    }
    if name != "no-faults" {
        // Retries must absorb the injected faults: ≤ 2% of ops given up.
        if run.stats.giveups * 50 > run.ops {
            failures.push(format!(
                "{cell}: retries absorbed too little ({} giveups of {} ops)",
                run.stats.giveups, run.ops
            ));
        }
    }
}
