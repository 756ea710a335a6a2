//! Smoke tests for the experiment harness: run the report pipeline's entry
//! points at tiny scale so CI exercises the same code paths as the `report`
//! binary, in seconds instead of minutes.

use bench::figure::{diff, Column, Kind, WALL_MS};
use bench::json::Json;
use bench::{
    ablation_lock_granularity, comparison_matrix, fig10_micro, fig11_lock_overhead,
    fig13_mechanisms, fig_par, table1_qualitative, table3_sizes, Context, FIGURES,
};

#[test]
fn fig10_micro_runs_and_views_beat_joins() {
    let output = fig10_micro(&[25], 1, 0);
    let rows = output.rows("rows");
    assert_eq!(rows.len(), 2, "one row per micro query");
    for row in rows {
        let query = row.text("query");
        assert!(row.num("view_sim_ms") > 0.0, "{query}: view scan measured");
        assert!(row.num("join_sim_ms") > 0.0, "{query}: join measured");
        // The paper's central micro-result: scanning the materialized view is
        // faster than the client-side join at every scale.
        assert!(
            row.num("sim_speedup") > 1.0,
            "{query}: view scan should beat the join (speedup {})",
            row.num("sim_speedup")
        );
    }
}

#[test]
fn fig10_limit_companion_is_o_of_k() {
    let output = fig10_micro(&[25, 50], 1, 10);
    let rows = output.rows("limit_rows");
    assert_eq!(rows.len(), 2);
    for row in rows {
        assert_eq!(row.num("store_rows_scanned"), 10.0, "{} customers", row.num("customers"));
    }
}

#[test]
fn fig10_micro_parallel_sim_times_only_improve() {
    // Answer equivalence across thread counts is asserted row-for-row at
    // the lower layers (query par_exec tests, tpcw micro tests); this
    // checks the harness-level invariant that sim time can only improve
    // under the max-of-workers merge rule.
    let serial = fig10_micro(&[25], 1, 0);
    let parallel = fig10_micro(&[25], 4, 0);
    assert_eq!(serial.rows("rows").len(), parallel.rows("rows").len());
    for (s, p) in serial.rows("rows").iter().zip(parallel.rows("rows")) {
        assert_eq!(s.text("query"), p.text("query"));
        assert!(p.num("view_sim_ms") <= s.num("view_sim_ms") + 1e-9);
        assert!(p.num("join_sim_ms") <= s.num("join_sim_ms") + 1e-9);
    }
}

#[test]
fn fig_par_sweep_runs_at_tiny_scale() {
    let output = fig_par(25, &[1, 2]);
    let rows = output.rows("rows");
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].num("threads"), 1.0);
    assert!(rows.iter().all(|r| r.num("view_sim_ms") > 0.0 && r.num("join_sim_ms") > 0.0));
    assert!(rows[1].num("join_sim_ms") <= rows[0].num("join_sim_ms"));
}

#[test]
fn fig11_lock_overhead_grows_with_lock_count() {
    let output = fig11_lock_overhead(&[1, 8]);
    let rows = output.rows("rows");
    assert_eq!(rows.len(), 2);
    assert!(
        rows[1].num("sim_ms") > rows[0].num("sim_ms"),
        "locking 8 rows must cost more than locking 1 ({} vs {})",
        rows[1].num("sim_ms"),
        rows[0].num("sim_ms")
    );
}

#[test]
fn comparison_matrix_and_table3_at_tiny_scale() {
    // Backs Fig. 12, Fig. 14, Table II and Table III.
    let matrix = comparison_matrix(20, 1);
    assert_eq!(matrix.statements.len(), 24, "11 joins + 13 writes");
    assert!(matrix.systems.len() >= 4, "all evaluated systems present");

    // Table II: every HBase-backed system supports the full statement set.
    for system in ["Synergy", "MVCC-A", "MVCC-UA", "Baseline"] {
        let total = matrix
            .total_ms(system)
            .unwrap_or_else(|| panic!("{system} should support every statement"));
        assert!(total > 0.0);
    }

    // The headline result: Synergy's full benchmark is faster than Baseline's.
    let synergy = matrix.total_ms("Synergy").unwrap();
    let baseline = matrix.total_ms("Baseline").unwrap();
    assert!(
        synergy < baseline,
        "Synergy ({synergy} ms) should beat Baseline ({baseline} ms)"
    );

    // Table III: sizes derive from the same matrix; views cost extra space.
    let sizes = table3_sizes(&matrix);
    assert!(!sizes.rows("rows").is_empty());
    let relative = |name: &str| {
        sizes
            .rows("rows")
            .iter()
            .find(|r| r.text("system") == name)
            .map(|r| r.num("relative_to_baseline"))
            .unwrap_or_else(|| panic!("{name} missing from Table III"))
    };
    assert!((relative("Baseline") - 1.0).abs() < 1e-9);
    assert!(
        relative("Synergy") > 1.0,
        "materialized views must add storage over Baseline"
    );
}

#[test]
fn ablation_single_lock_beats_per_row_locks() {
    let output = ablation_lock_granularity(&[1, 16]);
    let rows = output.rows("rows");
    assert_eq!(rows.len(), 2);
    let many = &rows[1];
    assert!(
        many.num("single_lock_sim_ms") < many.num("per_row_locks_sim_ms"),
        "one hierarchical lock ({} ms) must be cheaper than {} row locks ({} ms)",
        many.num("single_lock_sim_ms"),
        many.num("rows_touched"),
        many.num("per_row_locks_sim_ms")
    );
}

#[test]
fn qualitative_tables_are_populated() {
    assert!(!table1_qualitative().rows("rows").is_empty());
    assert!(!fig13_mechanisms().rows("rows").is_empty());
}

/// Fails unless `record` carries exactly the keys of `columns`, in order,
/// all the way down.
fn assert_conforms(columns: &[Column], record: &Json, path: &str) {
    let Json::Obj(pairs) = record else { panic!("{path}: not a record: {record:?}") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = columns.iter().map(|c| c.key).collect();
    assert_eq!(keys, expected, "{path}: keys differ from the column list");
    for c in columns {
        let at = format!("{path}.{}", c.key);
        match c.kind {
            Kind::Object(inner) => assert_conforms(inner, record.get(c.key).unwrap(), &at),
            Kind::Table(inner) => {
                assert!(matches!(record.get(c.key), Some(Json::Arr(_))), "{at}: not a table");
                for (i, row) in record.rows(c.key).iter().enumerate() {
                    assert_conforms(inner, row, &format!("{at}[{i}]"));
                }
            }
            _ => {}
        }
    }
}

/// Fails unless `record` is a figure's timed record: [`WALL_MS`] first,
/// then exactly the keys of `columns`.
fn assert_timed_conforms(columns: &[Column], record: &Json, name: &str) {
    let Json::Obj(pairs) = record else { panic!("{name}: not a record: {record:?}") };
    assert_eq!(pairs.first().map(|(k, _)| k.as_str()), Some(WALL_MS), "{name}: wall_ms first");
    assert_conforms(columns, &Json::Obj(pairs[1..].to_vec()), name);
}

#[test]
fn cheap_figures_reproduce_the_committed_tiny_report_through_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report_tiny.json");
    let committed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let (customers, reps) = (committed.num("customers") as u64, committed.num("reps") as u64);
    let report = |figures: Vec<(String, Json)>| {
        Json::obj([
            ("customers", Json::from(customers)),
            ("reps", Json::from(reps)),
            ("figures", Json::Obj(figures)),
        ])
    };

    // Registry-wide: every record of the committed report carries its
    // `wall_ms`, then exactly its table's keys, in order.
    let committed_figures = committed.get("figures").unwrap();
    for figure in FIGURES.iter().filter(|f| f.measured()) {
        let record = committed_figures.get(figure.name).unwrap();
        assert_timed_conforms(figure.columns, record, figure.name);
    }

    let cheap =
        ["fig11", "fig_writes", "fig_faults", "fault_matrix", "fig_availability", "ablation"];
    let mut ctx = Context::new(customers, reps, 1);
    let mut fresh = Vec::new();
    let mut pinned = Vec::new();
    for figure in FIGURES.iter().filter(|f| cheap.contains(&f.name)) {
        let record = figure.run_timed(&mut ctx);
        assert_timed_conforms(figure.columns, &record, figure.name);
        let text = figure.render_text(&record, &[]);
        assert!(text.starts_with(&format!("--- {} ---", figure.title)), "{text}");
        fresh.push((figure.name.to_string(), record));
        pinned.push((figure.name.to_string(), committed_figures.get(figure.name).unwrap().clone()));
    }
    assert_eq!(fresh.len(), cheap.len());

    // Every non-wall value equals the committed one, bit for bit.
    let outcome = diff(&report(pinned), &report(fresh));
    assert_eq!(outcome.failures, Vec::<String>::new());
    assert!(outcome.compared.unwrap() > 150, "only {:?} values compared", outcome.compared);
    assert_eq!(outcome.walls.len(), cheap.len(), "one wall_ms series per figure");
}
