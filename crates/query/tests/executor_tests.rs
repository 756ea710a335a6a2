//! End-to-end tests of the SQL skin over the NoSQL store, using the Company
//! example database from the paper.

use nosql_store::{Cluster, ClusterConfig};
use query::{baseline, ColumnType, Executor};
use relational::{company, Row, Value};
use sql::parse_statement;

/// Builds a populated Company database and an executor over it.
fn company_executor() -> Executor {
    let schema = company::company_schema();
    let catalog = baseline::baseline_catalog_with_types(&schema, &|_, column| {
        matches!(
            column,
            "AID" | "EID" | "E_DNo" | "EHome_AID" | "EOffice_AID" | "DNo" | "DL_DNo" | "PNo"
                | "P_DNo" | "WO_EID" | "WO_PNo" | "Hours" | "DP_EID" | "DPHome_AID" | "Zip"
        )
        .then_some(ColumnType::Int)
    });
    let cluster = Cluster::new(ClusterConfig::default());
    baseline::create_tables(&cluster, &catalog).unwrap();
    let exec = Executor::new(cluster, catalog);

    // Addresses 1..=6, Departments 1..=2, Employees 1..=4, Projects 1..=3,
    // Works_On pairs, Dependents.
    for aid in 1..=6i64 {
        exec.bulk_load_rows(
            "Address",
            &[Row::new()
                .with("AID", aid)
                .with("Street", format!("{aid} Main St"))
                .with("City", if aid % 2 == 0 { "Nashville" } else { "Memphis" })
                .with("Zip", 37000 + aid)],
        )
        .unwrap();
    }
    for dno in 1..=2i64 {
        exec.bulk_load_rows(
            "Department",
            &[Row::new().with("DNo", dno).with("DName", format!("Dept{dno}"))],
        )
        .unwrap();
        exec.bulk_load_rows(
            "Department_Location",
            &[Row::new()
                .with("DL_DNo", dno)
                .with("DLocation", format!("Building {dno}"))],
        )
        .unwrap();
    }
    for eid in 1..=4i64 {
        exec.bulk_load_rows(
            "Employee",
            &[Row::new()
                .with("EID", eid)
                .with("EName", format!("Employee{eid}"))
                .with("EHome_AID", eid)
                .with("EOffice_AID", eid + 2)
                .with("E_DNo", if eid <= 2 { 1i64 } else { 2 })],
        )
        .unwrap();
    }
    for pno in 1..=3i64 {
        exec.bulk_load_rows(
            "Project",
            &[Row::new()
                .with("PNo", pno)
                .with("PName", format!("Project{pno}"))
                .with("P_DNo", if pno == 3 { 2i64 } else { 1 })],
        )
        .unwrap();
    }
    let works = [(1i64, 1i64, 10i64), (1, 2, 20), (2, 1, 30), (3, 3, 40), (4, 3, 40)];
    for (eid, pno, hours) in works {
        exec.bulk_load_rows(
            "Works_On",
            &[Row::new()
                .with("WO_EID", eid)
                .with("WO_PNo", pno)
                .with("Hours", hours)],
        )
        .unwrap();
    }
    exec.bulk_load_rows(
        "Dependent",
        &[Row::new()
            .with("DP_EID", 1)
            .with("DPName", "Kid")
            .with("DPHome_AID", 1)],
    )
    .unwrap();
    exec
}

#[test]
fn point_select_by_primary_key() {
    let exec = company_executor();
    let stmt = parse_statement("SELECT * FROM Employee WHERE EID = ?").unwrap();
    let result = exec.execute(&stmt, &[Value::Int(2)]).unwrap();
    assert_eq!(result.len(), 1);
    assert_eq!(result.rows[0].get("EName").unwrap(), &Value::str("Employee2"));
}

#[test]
fn full_scan_and_filters() {
    let exec = company_executor();
    let all = exec.execute_sql("SELECT * FROM Address", &[]).unwrap();
    assert_eq!(all.len(), 6);
    let filtered = exec
        .execute_sql("SELECT * FROM Address WHERE City = 'Nashville'", &[])
        .unwrap();
    assert_eq!(filtered.len(), 3);
    let range = exec
        .execute_sql("SELECT * FROM Works_On WHERE Hours >= 30", &[])
        .unwrap();
    assert_eq!(range.len(), 3);
}

#[test]
fn composite_key_prefix_scan() {
    let exec = company_executor();
    // Only the first key attribute bound: prefix scan over Works_On.
    let result = exec
        .execute_sql("SELECT * FROM Works_On WHERE WO_EID = 1", &[])
        .unwrap();
    assert_eq!(result.len(), 2);
}

#[test]
fn paper_query_w1_employee_home_address_join() {
    let exec = company_executor();
    let stmt = parse_statement(
        "SELECT * FROM Employee as e, Address as a WHERE a.AID = e.EHome_AID AND e.EID = ?",
    )
    .unwrap();
    let result = exec.execute(&stmt, &[Value::Int(3)]).unwrap();
    assert_eq!(result.len(), 1);
    let row = &result.rows[0];
    assert_eq!(row.get("e.EName").unwrap(), &Value::str("Employee3"));
    assert_eq!(row.get("a.AID").unwrap(), &Value::Int(3));
}

#[test]
fn paper_query_w2_three_way_join() {
    let exec = company_executor();
    let stmt = parse_statement(
        "SELECT * FROM Department as d, Employee as e, Works_On as wo \
         WHERE d.DNo = e.E_DNo AND e.EID = wo.WO_EID AND d.DNo = ?",
    )
    .unwrap();
    let result = exec.execute(&stmt, &[Value::Int(1)]).unwrap();
    // Department 1 has employees 1 and 2; employee 1 works on 2 projects,
    // employee 2 on 1 → 3 joined rows.
    assert_eq!(result.len(), 3);
    for row in &result.rows {
        assert_eq!(row.get("d.DName").unwrap(), &Value::str("Dept1"));
    }
}

#[test]
fn paper_query_w3_filter_on_non_key_join() {
    let exec = company_executor();
    let stmt = parse_statement(
        "SELECT * FROM Employee as e, Works_On as wo WHERE e.EID = wo.WO_EID AND wo.Hours = ?",
    )
    .unwrap();
    let result = exec.execute(&stmt, &[Value::Int(40)]).unwrap();
    assert_eq!(result.len(), 2);
}

#[test]
fn self_join_with_different_aliases() {
    let exec = company_executor();
    // Pairs of employees working on the same project.
    let result = exec
        .execute_sql(
            "SELECT * FROM Works_On as w1, Works_On as w2 \
             WHERE w1.WO_PNo = w2.WO_PNo AND w1.WO_EID <> w2.WO_EID",
            &[],
        )
        .unwrap();
    // Project 1: employees 1,2 -> 2 ordered pairs; project 3: employees 3,4 -> 2.
    assert_eq!(result.len(), 4);
}

#[test]
fn aggregates_group_by_order_by_limit() {
    let exec = company_executor();
    let result = exec
        .execute_sql(
            "SELECT wo.WO_EID, SUM(wo.Hours) AS total FROM Works_On as wo \
             GROUP BY wo.WO_EID ORDER BY total DESC LIMIT 2",
            &[],
        )
        .unwrap();
    assert_eq!(result.len(), 2);
    assert_eq!(result.rows[0].get("total").unwrap(), &Value::Int(40));
    let count = exec
        .execute_sql("SELECT COUNT(*) AS n FROM Employee", &[])
        .unwrap();
    assert_eq!(count.rows[0].get("n").unwrap(), &Value::Int(4));
}

#[test]
fn order_by_string_column() {
    let exec = company_executor();
    let result = exec
        .execute_sql("SELECT EName FROM Employee ORDER BY EName DESC", &[])
        .unwrap();
    assert_eq!(result.rows[0].get("EName").unwrap(), &Value::str("Employee4"));
    assert_eq!(result.len(), 4);
}

#[test]
fn index_scan_is_used_for_indexed_column() {
    let exec = company_executor();
    let before = exec.cluster().metrics().ops.clone();
    let result = exec
        .execute_sql("SELECT EID, EName, E_DNo FROM Employee WHERE E_DNo = 1", &[])
        .unwrap();
    assert_eq!(result.len(), 2);
    let delta = exec.cluster().metrics().ops.delta_since(&before);
    // The covered index satisfies the query with a single scan and no
    // full-table read of Employee.
    assert_eq!(delta.scans, 1);
    assert_eq!(delta.scanned_rows, 2);
}

#[test]
fn insert_update_delete_round_trip_with_index_maintenance() {
    let exec = company_executor();
    exec.execute_sql(
        "INSERT INTO Employee (EID, EName, EHome_AID, EOffice_AID, E_DNo) VALUES (?, ?, ?, ?, ?)",
        &[
            Value::Int(9),
            Value::str("NewHire"),
            Value::Int(1),
            Value::Int(2),
            Value::Int(2),
        ],
    )
    .unwrap();
    let by_dept = exec
        .execute_sql("SELECT EID, EName, E_DNo FROM Employee WHERE E_DNo = 2", &[])
        .unwrap();
    assert_eq!(by_dept.len(), 3, "index must reflect the insert");

    exec.execute_sql(
        "UPDATE Employee SET E_DNo = ? WHERE EID = ?",
        &[Value::Int(1), Value::Int(9)],
    )
    .unwrap();
    let moved = exec
        .execute_sql("SELECT EID FROM Employee WHERE E_DNo = 1", &[])
        .unwrap();
    assert_eq!(moved.len(), 3, "index entry must move with the update");
    let old_dept = exec
        .execute_sql("SELECT EID FROM Employee WHERE E_DNo = 2", &[])
        .unwrap();
    assert_eq!(old_dept.len(), 2, "stale index entry must be removed");

    exec.execute_sql("DELETE FROM Employee WHERE EID = ?", &[Value::Int(9)]).unwrap();
    let gone = exec
        .execute_sql("SELECT * FROM Employee WHERE EID = 9", &[])
        .unwrap();
    assert!(gone.is_empty());
    let index_gone = exec
        .execute_sql("SELECT EID FROM Employee WHERE E_DNo = 1", &[])
        .unwrap();
    assert_eq!(index_gone.len(), 2);
}

#[test]
fn update_without_full_key_is_rejected() {
    let exec = company_executor();
    let err = exec
        .execute_sql("UPDATE Works_On SET Hours = ? WHERE WO_EID = ?", &[Value::Int(1), Value::Int(1)])
        .unwrap_err();
    assert!(matches!(err, query::QueryError::IncompleteKey { .. }));
}

#[test]
fn missing_parameter_and_unknown_table_errors() {
    let exec = company_executor();
    assert!(matches!(
        exec.execute_sql("SELECT * FROM Employee WHERE EID = ?", &[]),
        Err(query::QueryError::MissingParameter(0))
    ));
    assert!(matches!(
        exec.execute_sql("SELECT * FROM Nonexistent", &[]),
        Err(query::QueryError::UnknownTable(_))
    ));
    assert!(matches!(
        exec.execute_sql("INSERT INTO Employee (Bogus) VALUES (1)", &[]),
        Err(query::QueryError::UnknownColumn(_))
    ));
}

/// SELECTs naming a column no FROM entry declares — in WHERE (either
/// operand), the select list, an aggregate argument, GROUP BY or ORDER BY,
/// qualified under a missing alias or a wrong table — with the column each
/// refusal names.
const UNKNOWN_COLUMN_SELECTS: [(&str, &str); 10] = [
    ("SELECT * FROM Employee WHERE EIDD = 3", "EIDD"),
    ("SELECT * FROM Employee AS e WHERE e.EIDD = 3", "e.EIDD"),
    ("SELECT * FROM Employee AS e WHERE x.EID = 3", "x.EID"),
    ("SELECT * FROM Employee AS e, Address AS a WHERE a.EID = 3", "a.EID"),
    ("SELECT Bogus FROM Employee WHERE EID = 3", "Bogus"),
    (
        "SELECT * FROM Employee AS e, Works_On AS wo WHERE e.EID = wo.WO_EID AND wo.Hourz = 10",
        "wo.Hourz",
    ),
    ("SELECT * FROM Employee AS e, Works_On AS wo WHERE e.EID = wo.Bogus", "wo.Bogus"),
    ("SELECT SUM(Bogus) FROM Employee", "Bogus"),
    ("SELECT COUNT(*) FROM Employee GROUP BY Bogus", "Bogus"),
    ("SELECT * FROM Employee ORDER BY Bogus LIMIT 3", "Bogus"),
];

#[test]
fn a_select_naming_an_unknown_column_is_refused_before_any_store_op() {
    let session = query::Session::new(company_executor());
    let cluster = session.executor().cluster().clone();
    for (text, column) in UNKNOWN_COLUMN_SELECTS {
        let (ops, now) = (cluster.metrics().ops, cluster.clock().now());
        let one_shot = session.executor().execute_sql(text, &[]).map(drop);
        let prepared = session.prepare(text).map(drop);
        let cached = session.execute_sql(text, &[]).map(drop);
        for refusal in [one_shot, prepared, cached] {
            assert!(
                matches!(&refusal, Err(query::QueryError::UnknownColumn(c)) if c == column),
                "{text}: {refusal:?}"
            );
        }
        assert_eq!(cluster.metrics().ops, ops, "{text} reached the store");
        assert_eq!(cluster.clock().now(), now, "{text} was charged");
    }
}

#[test]
fn order_by_may_name_a_select_list_alias() {
    let exec = company_executor();
    let result = exec
        .execute_sql(
            "SELECT E_DNo, COUNT(*) AS staff FROM Employee GROUP BY E_DNo ORDER BY staff DESC",
            &[],
        )
        .unwrap();
    assert_eq!(result.len(), 2);
    let renamed = exec
        .execute_sql("SELECT EName AS who FROM Employee ORDER BY who DESC LIMIT 1", &[])
        .unwrap();
    assert_eq!(renamed.rows[0].get("who"), Some(&Value::str("Employee4")));
}

#[test]
fn joins_charge_more_simulated_time_than_point_reads() {
    let exec = company_executor();
    let clock = exec.cluster().clock().clone();
    let (_, point) = clock.measure(|| {
        exec.execute_sql("SELECT * FROM Employee WHERE EID = 1", &[]).unwrap()
    });
    let (_, join) = clock.measure(|| {
        exec.execute_sql(
            "SELECT * FROM Employee as e, Works_On as wo WHERE e.EID = wo.WO_EID",
            &[],
        )
        .unwrap()
    });
    assert!(join > point, "join={join} point={point}");
}

#[test]
fn projection_returns_only_requested_columns() {
    let exec = company_executor();
    let result = exec
        .execute_sql("SELECT e.EName FROM Employee as e WHERE e.EID = 1", &[])
        .unwrap();
    assert_eq!(result.rows[0].len(), 1);
    assert!(result.rows[0].get("e.EName").is_some());
}
