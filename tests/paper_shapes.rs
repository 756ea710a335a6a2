//! Workspace-level tests asserting the *shape* of the paper's headline
//! results at laptop scale: who wins, in which direction, and by more than a
//! trivial margin.  Absolute numbers are not asserted (the substrate is a
//! simulator, not the paper's EC2 cluster) — see EXPERIMENTS.md.

use bench::{ablation_lock_granularity, comparison_matrix, fig10_micro, fig11_lock_overhead};

#[test]
fn figure_10_view_scans_beat_joins_and_the_gap_grows_with_depth() {
    let output = fig10_micro(&[40, 160], 1, 0);
    let rows = output.rows("rows");
    for row in rows {
        assert!(
            row.num("sim_speedup") > 1.5,
            "{} at {} customers: view scan must clearly beat the join (got {:.2}x)",
            row.text("query"),
            row.num("customers"),
            row.num("sim_speedup")
        );
    }
    // The three-way join (Q2) benefits more than the two-way join (Q1),
    // as in the paper's 6x vs 11.7x.
    let at_160 = |query: &str| {
        rows.iter()
            .find(|r| r.text("query") == query && r.num("customers") == 160.0)
            .unwrap()
            .num("sim_speedup")
    };
    assert!(at_160("Q2") > at_160("Q1"));
}

#[test]
fn figure_11_locking_overhead_grows_with_lock_count() {
    let output = fig11_lock_overhead(&[10, 100, 1000]);
    let overhead: Vec<f64> = output.rows("rows").iter().map(|r| r.num("sim_ms")).collect();
    assert!(overhead[1] > overhead[0] * 5.0);
    assert!(overhead[2] > overhead[1] * 5.0);
    // 100 locks already cost hundreds of simulated milliseconds — more than
    // any single Synergy write transaction — motivating the single lock.
    assert!(overhead[1] > 500.0);
}

#[test]
fn ablation_single_hierarchical_lock_vs_per_row_locks() {
    let output = ablation_lock_granularity(&[100]);
    let row = &output.rows("rows")[0];
    assert!(row.num("per_row_locks_sim_ms") > row.num("single_lock_sim_ms") * 50.0);
}

#[test]
fn figures_12_14_and_tables_2_3_shapes() {
    // One shared matrix keeps this expensive test to a single system build.
    let matrix = comparison_matrix(60, 2);

    // --- Figure 12 (joins) ---
    // Synergy is faster than every MVCC system on average.
    for other in ["MVCC-A", "MVCC-UA", "Baseline"] {
        let ratio = matrix
            .mean_ratio(other, "Synergy", |s| s.starts_with('Q'))
            .unwrap();
        assert!(ratio > 2.0, "{other} / Synergy joins ratio {ratio:.1} too small");
    }
    // VoltDB is faster than Synergy on the joins it supports, but does not
    // support Q3 / Q7 / Q9 / Q10.
    let synergy_over_voltdb = matrix
        .mean_ratio("Synergy", "VoltDB", |s| s.starts_with('Q'))
        .unwrap();
    assert!(synergy_over_voltdb > 1.0);
    for unsupported in ["Q3", "Q7", "Q9", "Q10"] {
        assert!(matrix.mean_ms(unsupported, "VoltDB").is_none());
    }
    for supported in ["Q1", "Q2", "Q4", "Q5", "Q6", "Q8", "Q11"] {
        assert!(matrix.mean_ms(supported, "VoltDB").is_some());
    }

    // --- Figure 14 (writes) ---
    for other in ["MVCC-A", "MVCC-UA", "Baseline"] {
        let ratio = matrix
            .mean_ratio(other, "Synergy", |s| s.starts_with('W'))
            .unwrap();
        assert!(ratio > 3.0, "{other} / Synergy writes ratio {ratio:.1} too small");
    }
    let synergy_over_voltdb_writes = matrix
        .mean_ratio("Synergy", "VoltDB", |s| s.starts_with('W'))
        .unwrap();
    assert!(synergy_over_voltdb_writes > 2.0);
    // W6 and W11 (shopping cart, not part of any view) are among Synergy's
    // cheapest writes, as the paper observes.
    let w6 = matrix.mean_ms("W6", "Synergy").unwrap();
    let w13 = matrix.mean_ms("W13", "Synergy").unwrap();
    assert!(w13 > w6 * 2.0, "W13 ({w13:.1}) should dwarf W6 ({w6:.1})");

    // --- Table II (sum over all statements, VoltDB excluded) ---
    let synergy_total = matrix.total_ms("Synergy").unwrap();
    let mvcc_a_total = matrix.total_ms("MVCC-A").unwrap();
    let baseline_total = matrix.total_ms("Baseline").unwrap();
    assert!(synergy_total * 3.0 < mvcc_a_total);
    assert!(synergy_total * 3.0 < baseline_total);
    // MVCC-A beats Baseline only once the database is large enough for the
    // join savings to outweigh its extra view-maintenance writes; that
    // ordering is checked at the report's default scale (500 customers) and
    // recorded in EXPERIMENTS.md.  Here (tiny CI scale) we only require that
    // the view maintenance does not blow the total up.
    assert!(mvcc_a_total < baseline_total * 1.3);

    // --- Table III (database sizes) ---
    let size = |name: &str| *matrix.database_bytes.get(name).unwrap();
    assert!(size("Synergy") > size("Baseline"), "views cost storage");
    assert!(size("MVCC-A") > size("Baseline"));
    assert!(size("VoltDB") < size("Baseline"), "no index/view tables in VoltDB");
    assert!(size("MVCC-UA") >= size("Baseline"));
    assert!(size("Synergy") >= size("MVCC-UA"));
}
