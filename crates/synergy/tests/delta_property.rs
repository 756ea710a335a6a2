//! Property tests for delta-dataflow view maintenance: after an arbitrary
//! sequence of inserts, updates and deletes, every selected view's table
//! must equal a full recomputation of its defining join, row for row —
//! at 1 and 4 region-parallel workers.

use nosql_store::{Cluster, ClusterConfig};
use proptest::prelude::*;
use query::ColumnType;
use relational::{company, Row, Value};
use sql::{parse_statement, parse_workload};
use synergy::{SynergyConfig, SynergySystem};

fn company_types(_relation: &str, column: &str) -> Option<ColumnType> {
    matches!(
        column,
        "AID" | "EID" | "E_DNo" | "EHome_AID" | "EOffice_AID" | "DNo" | "DL_DNo" | "PNo" | "P_DNo"
            | "WO_EID" | "WO_PNo" | "Hours" | "DP_EID" | "DPHome_AID" | "Zip"
    )
    .then_some(ColumnType::Int)
}

fn build_system(threads: usize) -> SynergySystem {
    let schema = company::company_schema();
    let workload =
        parse_workload(company::company_workload_sql().iter().map(String::as_str)).unwrap();
    SynergySystem::build(
        Cluster::new(ClusterConfig::default()),
        SynergyConfig::new(schema, workload, company::company_roots(), &company_types)
            .with_threads(threads),
    )
    .unwrap()
}

fn load_minimal(system: &SynergySystem, employees: i64) {
    let addresses: Vec<Row> = (1..=employees)
        .map(|aid| {
            Row::new()
                .with("AID", aid)
                .with("Street", format!("{aid} St"))
                .with("City", "N")
                .with("Zip", 37000 + aid)
        })
        .collect();
    system.bulk_load("Address", &addresses).unwrap();
    system
        .bulk_load("Department", &[Row::new().with("DNo", 1).with("DName", "D1")])
        .unwrap();
    let employee_rows: Vec<Row> = (1..=employees)
        .map(|eid| {
            Row::new()
                .with("EID", eid)
                .with("EName", format!("E{eid}"))
                .with("EHome_AID", eid)
                .with("EOffice_AID", 1)
                .with("E_DNo", 1)
        })
        .collect();
    system.bulk_load("Employee", &employee_rows).unwrap();
    let projects: Vec<Row> = (1..=3i64)
        .map(|pno| Row::new().with("PNo", pno).with("PName", format!("P{pno}")).with("P_DNo", 1))
        .collect();
    system.bulk_load("Project", &projects).unwrap();
    system.materialize_views().unwrap();
}

/// One randomized write: `(op, a, b, val)` drawn by proptest.
type Op = (u8, i64, i64, i64);

fn apply_ops(system: &SynergySystem, ops: &[Op]) {
    for &(op, a, b, val) in ops {
        match op {
            0 => {
                // Insert Works_On (delete first so repeats never collide).
                let _ = system.execute_sql(
                    "DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?",
                    &[Value::Int(a), Value::Int(b)],
                );
                system
                    .execute_sql(
                        "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
                        &[Value::Int(a), Value::Int(b), Value::Int(val)],
                    )
                    .unwrap();
            }
            1 => {
                // Update the last relation of the Employee-Works_On view.
                let _ = system.execute_sql(
                    "UPDATE Works_On SET Hours = ? WHERE WO_EID = ? AND WO_PNo = ?",
                    &[Value::Int(val), Value::Int(a), Value::Int(b)],
                );
            }
            2 => {
                let _ = system.execute_sql(
                    "DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?",
                    &[Value::Int(a), Value::Int(b)],
                );
            }
            3 => {
                // Update a member (non-last) relation: rewrites view rows
                // in place across every view containing Employee.
                let _ = system.execute_sql(
                    "UPDATE Employee SET EName = ? WHERE EID = ?",
                    &[Value::str(format!("E{a}v{val}")), Value::Int(a)],
                );
            }
            _ => {
                // Update a join attribute of Employee (EHome_AID): the
                // delta pairs the before/after images, moving the
                // employee's rows between Address join partners.
                let _ = system.execute_sql(
                    "UPDATE Employee SET EHome_AID = ? WHERE EID = ?",
                    &[Value::Int(b), Value::Int(a)],
                );
            }
        }
    }
}

/// Canonical multiset form of a row set: per-row sorted (column, value)
/// pairs, rows sorted — order- and representation-independent equality.
fn canonical(rows: &[Row]) -> Vec<Vec<(String, String)>> {
    let mut out: Vec<Vec<(String, String)>> = rows
        .iter()
        .map(|r| {
            let mut cols: Vec<(String, String)> =
                r.iter().map(|(k, v)| (k.to_string(), format!("{v:?}"))).collect();
            cols.sort();
            cols
        })
        .collect();
    out.sort();
    out
}

/// Asserts every selected view's table equals a fresh recomputation of its
/// defining join.
fn assert_views_match_recompute(system: &SynergySystem) {
    for view in &system.selection().views.clone() {
        let expected = system.recompute_view_rows(view).unwrap();
        let select = parse_statement(&format!("SELECT * FROM {}", view.table_name())).unwrap();
        let actual = system.executor().execute(&select, &[]).unwrap().rows;
        assert_eq!(
            canonical(&actual),
            canonical(&expected),
            "view {} diverged from its defining join",
            view.display_name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Delta maintenance ≡ full recompute after randomized write
    /// sequences, at 1 and 4 region-parallel workers.
    #[test]
    fn delta_maintenance_equals_recompute(
        ops in proptest::collection::vec((0u8..5, 1i64..4, 1i64..4, 1i64..60), 1..20)
    ) {
        for threads in [1usize, 4] {
            let system = build_system(threads);
            load_minimal(&system, 3);
            apply_ops(&system, &ops);
            assert_views_match_recompute(&system);
        }
    }
}
