//! Focused tests of the view-maintenance mechanism (paper §VII): the
//! applicability tests and the tuple/key construction procedures, exercised
//! directly against a small Company deployment, plus property-based checks
//! that maintenance keeps views equivalent to their defining joins under
//! random write sequences.

use nosql_store::{Cluster, ClusterConfig};
use proptest::prelude::*;
use query::ColumnType;
use relational::{company, Row, Value};
use sql::parse_workload;
use synergy::{SynergyConfig, SynergySystem};

fn company_types(_relation: &str, column: &str) -> Option<ColumnType> {
    matches!(
        column,
        "AID" | "EID" | "E_DNo" | "EHome_AID" | "EOffice_AID" | "DNo" | "DL_DNo" | "PNo" | "P_DNo"
            | "WO_EID" | "WO_PNo" | "Hours" | "DP_EID" | "DPHome_AID" | "Zip"
    )
    .then_some(ColumnType::Int)
}

fn empty_system() -> SynergySystem {
    let schema = company::company_schema();
    let workload =
        parse_workload(company::company_workload_sql().iter().map(String::as_str)).unwrap();
    SynergySystem::build(
        Cluster::new(ClusterConfig::default()),
        SynergyConfig::new(schema, workload, company::company_roots(), &company_types),
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
        .bulk_load(
            "Department",
            &[Row::new().with("DNo", 1).with("DName", "D1")],
        )
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
    system
        .bulk_load(
            "Project",
            &[Row::new().with("PNo", 1).with("PName", "P1").with("P_DNo", 1)],
        )
        .unwrap();
    system.materialize_views().unwrap();
}

/// Counts the rows of the Employee⋈Works_On join evaluated over base tables
/// (ground truth) and through the Synergy read path (view backed).
fn join_counts(system: &SynergySystem) -> (usize, usize) {
    let statement = sql::parse_statement(
        "SELECT * FROM Employee AS e, Works_On AS wo WHERE e.EID = wo.WO_EID",
    )
    .unwrap();
    let via_base = system.executor().execute(&statement, &[]).unwrap().len();
    let via_view = system.execute(&statement, &[]).unwrap().len();
    (via_base, via_view)
}

#[test]
fn insert_with_missing_parent_creates_no_view_row() {
    let system = empty_system();
    load_minimal(&system, 2);
    // Works_On referencing a non-existent employee: foreign keys are not
    // enforced (§IV), so the base insert succeeds but no view tuple can be
    // constructed.
    system
        .execute_sql(
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            &[Value::Int(999), Value::Int(1), Value::Int(10)],
        )
        .unwrap();
    assert_eq!(system.cluster().row_count("Works_On").unwrap(), 1);
    assert_eq!(system.cluster().row_count("V_Employee__Works_On").unwrap(), 0);
}

#[test]
fn view_index_follows_updates_of_the_indexed_attribute() {
    let system = empty_system();
    load_minimal(&system, 2);
    system
        .execute_sql(
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            &[Value::Int(1), Value::Int(1), Value::Int(10)],
        )
        .unwrap();
    // The workload query W3 filters on Hours through the view-index.
    let by_hours = |hours: i64| {
        system
            .execute_sql(
                "SELECT * FROM Employee AS e, Works_On AS wo \
                 WHERE e.EID = wo.WO_EID AND wo.Hours = ?",
                &[Value::Int(hours)],
            )
            .unwrap()
            .len()
    };
    assert_eq!(by_hours(10), 1);
    assert_eq!(by_hours(55), 0);
    system
        .execute_sql(
            "UPDATE Works_On SET Hours = ? WHERE WO_EID = ? AND WO_PNo = ?",
            &[Value::Int(55), Value::Int(1), Value::Int(1)],
        )
        .unwrap();
    assert_eq!(by_hours(10), 0, "stale view-index entry must not match");
    assert_eq!(by_hours(55), 1);
}

#[test]
fn update_of_unreferenced_attribute_keeps_views_untouched_in_size() {
    let system = empty_system();
    load_minimal(&system, 3);
    system
        .execute_sql(
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            &[Value::Int(2), Value::Int(1), Value::Int(8)],
        )
        .unwrap();
    let before = system.cluster().row_count("V_Employee__Works_On").unwrap();
    system
        .execute_sql(
            "UPDATE Employee SET EName = ? WHERE EID = ?",
            &[Value::str("Renamed"), Value::Int(2)],
        )
        .unwrap();
    assert_eq!(
        system.cluster().row_count("V_Employee__Works_On").unwrap(),
        before,
        "updates rewrite view rows in place, never add or remove them"
    );
}

#[test]
fn delete_of_parent_row_leaves_views_of_other_children_intact() {
    let system = empty_system();
    load_minimal(&system, 3);
    for eid in 1..=3 {
        system
            .execute_sql(
                "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
                &[Value::Int(eid), Value::Int(1), Value::Int(10 * eid)],
            )
            .unwrap();
    }
    system
        .execute_sql(
            "DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?",
            &[Value::Int(2), Value::Int(1)],
        )
        .unwrap();
    let (via_base, via_view) = join_counts(&system);
    assert_eq!(via_base, 2);
    assert_eq!(via_view, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant: after an arbitrary sequence of inserts, hour-updates and
    /// deletes on Works_On, the view-backed answer to the Employee⋈Works_On
    /// join equals the base-table answer (the view is exactly the join).
    #[test]
    fn views_stay_equivalent_to_their_defining_join(
        ops in proptest::collection::vec((0u8..3, 1i64..4, 1i64..4, 1i64..60), 1..25)
    ) {
        let system = empty_system();
        load_minimal(&system, 3);
        for (op, eid, pno, hours) in ops {
            match op {
                0 => {
                    // Insert (ignore duplicates by deleting first).
                    let _ = system.execute_sql(
                        "DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?",
                        &[Value::Int(eid), Value::Int(pno)],
                    );
                    system.execute_sql(
                        "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
                        &[Value::Int(eid), Value::Int(pno), Value::Int(hours)],
                    ).unwrap();
                }
                1 => {
                    system.execute_sql(
                        "UPDATE Works_On SET Hours = ? WHERE WO_EID = ? AND WO_PNo = ?",
                        &[Value::Int(hours), Value::Int(eid), Value::Int(pno)],
                    ).unwrap();
                }
                _ => {
                    system.execute_sql(
                        "DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?",
                        &[Value::Int(eid), Value::Int(pno)],
                    ).unwrap();
                }
            }
            let (via_base, via_view) = join_counts(&system);
            prop_assert_eq!(via_base, via_view);
        }
        // No dirty markers may be left behind by any of the updates.
        let raw = system
            .cluster()
            .scan("V_Employee__Works_On", nosql_store::ops::Scan::all())
            .unwrap();
        prop_assert!(raw
            .iter()
            .all(|r| r.value("cf", "_dirty").map(|v| v != b"1").unwrap_or(true)));
    }
}
