//! The benchmark's contract: workloads, metric names, units, directions and
//! bounds.  `BENCHMARK.json` is this module rendered by the `manifest`
//! command, and a unit test holds the committed file to it.

use crate::json::Json;
use std::collections::BTreeMap;

/// How long one run measures when `--seconds` is not given; `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

pub const WORKLOAD_WHY: [(&str, &str); 4] = [
    (
        "tpcw_browse",
        "The paper's target traffic: 95 % reads, zipf-skewed TPC-W SQL text from 2 closed-loop clients over fully materialized views that fit; parse, plan cache, rewrite, view reads and joins do the work.",
    ),
    (
        "tpcw_order",
        "The same layers the other way round: 50 % writes with RF=2 and WAL group commit, so transactions, locks, view maintenance, log shipping and two writers on one table do the work.",
    ),
    (
        "micro_scan",
        "The paper's Figure 10 and anomaly A: one client runs pre-parsed whole-table view scans against the joins they replace, each followed by a fat update; cursor walk, decode, join and top-k do the work.",
    ),
    (
        "micro_partial",
        "The one workload larger than the program's own cache: keyed reads under a view budget of 5 % of the footprint, so residency lookup, upqueries and CLOCK eviction do the work; full scans are bypassed.",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// A count made by the program in the single-client `count` pass: two
    /// runs of one commit at one seed must report the identical value.
    pub repeats_exactly: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    repeats_exactly: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        repeats_exactly,
    }
}

pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", false, 0.25, false),
    e2e("throughput_ops_s", "ops/s", true, 0.25, false),
    e2e("read_p50_us", "us", false, 0.25, false),
    e2e("read_p95_us", "us", false, 0.25, false),
    e2e("write_p50_us", "us", false, 0.25, false),
    e2e("write_p95_us", "us", false, 0.25, false),
    e2e("sim_ms_per_read", "sim-ms", false, 0.20, true),
    e2e("sim_ms_per_write", "sim-ms", false, 0.25, true),
    e2e("view_speedup_wall", "x", true, 0.25, false),
    e2e("view_speedup_sim", "x", true, 0.20, true),
    e2e("space_amplification", "x", false, 0.005, true),
    e2e("rss_peak_mb", "MiB", false, 0.10, false),
];

/// Statements with a `stmt.<name>.p50_us` per-layer metric.
pub const STATEMENTS: [&str; 35] = [
    "Q1",
    "Q2",
    "Q3",
    "Q4",
    "Q5",
    "Q6",
    "Q7",
    "Q8",
    "Q9",
    "Q10",
    "Q11",
    "W1",
    "W2",
    "W3",
    "W4",
    "W5",
    "W6",
    "W7",
    "W8",
    "W9",
    "W10",
    "W11",
    "W12",
    "W13",
    "q1_view",
    "q1_join",
    "q2_view",
    "q2_join",
    "q2_join_par2",
    "topk_view",
    "limit50_view",
    "fat_update",
    "Q1K",
    "Q2K",
    "order_total_update",
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Read off the program's counters in the single-client `count` pass.
    pub repeats_exactly: bool,
}

/// Every per-layer metric, in layer order (outside in).
pub fn per_layer() -> Vec<PerLayer> {
    let fixed: [(&str, &str); 64] = [
        ("setup.datagen_s", "s"),
        ("setup.build_s", "s"),
        ("setup.bulk_load_s", "s"),
        ("setup.materialize_s", "s"),
        ("setup.compact_s", "s"),
        ("setup.view_rows", "count"),
        ("setup.view_bytes", "bytes"),
        ("setup.base_bytes", "bytes"),
        ("setup.regions", "count"),
        ("sql.parse_us", "us"),
        ("sql.parse_share", "ratio"),
        ("query.prepare_hit_us", "us"),
        ("query.compile_us", "us"),
        ("query.plan_cache_hit_rate", "ratio"),
        ("query.rows_examined_per_row", "ratio"),
        ("query.peak_rows_p95", "count"),
        ("query.dirty_fallbacks", "count"),
        ("query.execute_rest_us.point", "us"),
        ("query.execute_rest_us.list", "us"),
        ("query.execute_rest_us.heavy", "us"),
        ("query.decode_us_per_krow", "us"),
        ("query.pipeline_us_per_krow", "us"),
        ("query.join_us_per_krow", "us"),
        ("query.topk_us_per_krow", "us"),
        ("synergy.rewrite_us", "us"),
        ("synergy.view_routed_share", "ratio"),
        ("synergy.plan_write_us", "us"),
        ("synergy.write_us.insert", "us"),
        ("synergy.write_us.update", "us"),
        ("synergy.write_us.delete", "us"),
        ("synergy.lock_pair_us", "us"),
        ("synergy.lock_retry_share", "ratio"),
        ("synergy.view_rows_touched_per_write", "count"),
        ("synergy.deltas_per_write", "count"),
        ("synergy.client_scaling_x", "x"),
        ("synergy.partial_hit_rate", "ratio"),
        ("synergy.upqueries", "count"),
        ("synergy.upquery_us", "us"),
        ("synergy.evicted_keys", "count"),
        ("synergy.annihilated", "count"),
        ("synergy.bypasses", "count"),
        ("synergy.resident_bytes", "bytes"),
        ("store.gets_per_op", "count"),
        ("store.puts_per_write", "count"),
        ("store.cas_per_write", "count"),
        ("store.scans_per_read", "count"),
        ("store.rows_scanned_per_read", "count"),
        ("store.bytes_scanned_per_read", "bytes"),
        ("store.get_us", "us"),
        ("store.put_us", "us"),
        ("store.scan_us_per_krow", "us"),
        ("store.wal_records_per_write", "count"),
        ("store.records_shipped_per_write", "count"),
        ("store.replica_lag", "count"),
        ("store.regions_split", "count"),
        ("store.recover_s", "s"),
        ("store.recover_lost_records", "count"),
        ("sim.ms_per_op.point", "sim-ms"),
        ("sim.ms_per_op.list", "sim-ms"),
        ("sim.ms_per_op.heavy", "sim-ms"),
        ("sim.ms_per_op.insert", "sim-ms"),
        ("sim.ms_per_op.update", "sim-ms"),
        ("sim.ms_per_op.delete", "sim-ms"),
        ("pool.par2_x", "x"),
    ];
    let higher = [
        "query.plan_cache_hit_rate",
        "synergy.view_routed_share",
        "synergy.client_scaling_x",
        "synergy.partial_hit_rate",
        "pool.par2_x",
    ];
    // Everything that is not a wall-clock time, a timed-phase figure or a
    // crash-recovery figure is a count of the single-client pass.
    let measured = [
        "sql.parse_share",
        "query.dirty_fallbacks",
        "synergy.lock_retry_share",
        "synergy.client_scaling_x",
        "store.regions_split",
        "store.recover_lost_records",
        "pool.par2_x",
    ];
    let mut all: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit)| PerLayer {
            name: name.to_string(),
            unit,
            higher_is_better: higher.contains(&name),
            repeats_exactly: !matches!(unit, "s" | "us") && !measured.contains(&name),
        })
        .collect();
    let timing = |name: String, unit| PerLayer {
        name,
        unit,
        higher_is_better: false,
        repeats_exactly: false,
    };
    all.extend(
        STATEMENTS
            .iter()
            .map(|s| timing(format!("stmt.{s}.p50_us"), "us")),
    );
    all.push(timing("trace.overhead_share".to_string(), "ratio"));
    all.push(timing("trace.spans".to_string(), "count"));
    all.push(timing("verify_s".to_string(), "s"));
    all
}

/// The metric values of one run, by name.  A metric the workload has no use
/// for (a partial-view counter on a fully materialized deployment) stays 0.
pub type Values = BTreeMap<String, f64>;

pub fn set(values: &mut Values, name: &str, value: f64) {
    values.insert(name.to_string(), value);
}

/// Name and unit of every metric a run reports, in declared order: the
/// per-layer metrics with tracing on, the end-to-end ones with it off.
pub fn reported(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

/// `BENCHMARK.json`.
pub fn manifest() -> Json {
    let better = |higher: bool| Json::Str(if higher { "higher" } else { "lower" }.to_string());
    Json::object([
        (
            "command",
            Json::Array(COMMAND.iter().map(|s| Json::Str(s.to_string())).collect()),
        ),
        (
            "paths",
            Json::Array(vec![Json::Str("benchmark".to_string())]),
        ),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Array(
                WORKLOAD_WHY
                    .iter()
                    .map(|&(name, why)| {
                        Json::object([
                            ("name", Json::Str(name.into())),
                            ("why", Json::Str(why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::object([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m.higher_is_better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::object([
                            ("name", Json::Str(m.name.clone())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::WORKLOADS;

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest`"
        );
    }

    #[test]
    fn the_manifest_stays_inside_the_contract() {
        let valid_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let valid_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS);
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(layers.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END
            .iter()
            .all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert_eq!(WORKLOADS.map(|w| w), WORKLOAD_WHY.map(|(w, _)| w));
        assert!(WORKLOAD_WHY
            .iter()
            .all(|(_, why)| why.chars().count() <= 200 && !why.contains('\n')));
        assert!(manifest().render().len() < 64 * 1024);
    }
}
