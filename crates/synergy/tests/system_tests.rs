//! End-to-end tests of the assembled Synergy system on the paper's Company
//! example database: view materialization, rewritten reads, single-lock
//! write transactions and view maintenance.

mod common;

use nosql_store::{Cluster, ClusterConfig};
use query::{ColumnType, QueryError};
use relational::{company, Relation, Row, Schema, Value};
use sql::parse_workload;
use synergy::{SynergyConfig, SynergySystem, TxnError};

fn company_types(_relation: &str, column: &str) -> Option<ColumnType> {
    matches!(
        column,
        "AID" | "EID" | "E_DNo" | "EHome_AID" | "EOffice_AID" | "DNo" | "DL_DNo" | "PNo" | "P_DNo"
            | "WO_EID" | "WO_PNo" | "Hours" | "DP_EID" | "DPHome_AID" | "Zip"
    )
    .then_some(ColumnType::Int)
}

/// Builds and populates a Synergy deployment of the Company database.
fn build_system() -> SynergySystem {
    build_system_with_budget(None)
}

/// [`build_system`], partially materialized under `budget` bytes of view
/// rows when one is given.
fn build_system_with_budget(budget: Option<u64>) -> SynergySystem {
    let schema = company::company_schema();
    let workload_sql = company::company_workload_sql();
    let workload = parse_workload(workload_sql.iter().map(String::as_str)).unwrap();
    let cluster = Cluster::new(ClusterConfig::default());
    let mut config = SynergyConfig::new(schema, workload, company::company_roots(), &company_types);
    if let Some(budget) = budget {
        config = config.with_view_budget(budget);
    }
    let system = SynergySystem::build(cluster, config).unwrap();

    // Base data: 4 addresses, 2 departments, 3 employees, 2 projects,
    // works_on rows and a dependent.
    let addresses: Vec<Row> = (1..=4i64)
        .map(|aid| {
            Row::new()
                .with("AID", aid)
                .with("Street", format!("{aid} Main St"))
                .with("City", "Nashville")
                .with("Zip", 37200 + aid)
        })
        .collect();
    system.bulk_load("Address", &addresses).unwrap();

    let departments: Vec<Row> = (1..=2i64)
        .map(|dno| Row::new().with("DNo", dno).with("DName", format!("Dept{dno}")))
        .collect();
    system.bulk_load("Department", &departments).unwrap();

    let employees: Vec<Row> = (1..=3i64)
        .map(|eid| {
            Row::new()
                .with("EID", eid)
                .with("EName", format!("Employee{eid}"))
                .with("EHome_AID", eid)
                .with("EOffice_AID", 4)
                .with("E_DNo", if eid == 3 { 2i64 } else { 1 })
        })
        .collect();
    system.bulk_load("Employee", &employees).unwrap();

    let projects: Vec<Row> = (1..=2i64)
        .map(|pno| {
            Row::new()
                .with("PNo", pno)
                .with("PName", format!("Project{pno}"))
                .with("P_DNo", 1)
        })
        .collect();
    system.bulk_load("Project", &projects).unwrap();

    let works_on: Vec<Row> = [(1i64, 1i64, 10i64), (1, 2, 25), (2, 1, 40), (3, 2, 40)]
        .iter()
        .map(|(e, p, h)| {
            Row::new()
                .with("WO_EID", *e)
                .with("WO_PNo", *p)
                .with("Hours", *h)
        })
        .collect();
    system.bulk_load("Works_On", &works_on).unwrap();

    system
        .bulk_load(
            "Dependent",
            &[Row::new()
                .with("DP_EID", 1)
                .with("DPName", "Kid")
                .with("DPHome_AID", 1)],
        )
        .unwrap();

    system.materialize_views().unwrap();
    system
}

#[test]
fn build_creates_views_view_indexes_and_lock_tables() {
    let system = build_system();
    let tables = system.cluster().list_tables();
    assert!(tables.contains(&"V_Address__Employee".to_string()));
    assert!(tables.contains(&"V_Employee__Works_On".to_string()));
    assert!(tables.contains(&"L_Address".to_string()));
    assert!(tables.contains(&"L_Department".to_string()));
    // A view-index on Hours must exist for workload query W3.
    assert!(tables
        .iter()
        .any(|t| t.starts_with("V_Employee__Works_On__by__Hours")));
}

#[test]
fn materialization_populates_views_with_joined_rows() {
    let system = build_system();
    // Address-Employee: one row per employee with a matching home address.
    assert_eq!(system.cluster().row_count("V_Address__Employee").unwrap(), 3);
    // Employee-Works_On: one row per works_on entry.
    assert_eq!(system.cluster().row_count("V_Employee__Works_On").unwrap(), 4);
}

#[test]
fn w1_read_uses_the_view_and_returns_joined_attributes() {
    let system = build_system();
    let result = system
        .execute_sql(
            "SELECT * FROM Employee as e, Address as a WHERE a.AID = e.EHome_AID AND e.EID = ?",
            &[Value::Int(2)],
        )
        .unwrap();
    assert_eq!(result.len(), 1);
    let row = &result.rows[0];
    assert_eq!(row.get("EName").unwrap(), &Value::str("Employee2"));
    assert_eq!(row.get("Street").unwrap(), &Value::str("2 Main St"));
}

#[test]
fn rewritten_reads_touch_fewer_tables_than_baseline_joins() {
    let system = build_system();
    let original = sql::parse_statement(
        "SELECT * FROM Employee as e, Works_On as wo WHERE e.EID = wo.WO_EID AND wo.Hours = ?",
    )
    .unwrap();
    let rewritten = system.rewrite(&original);
    let select = rewritten.as_select().unwrap();
    assert_eq!(select.from.len(), 1);
    assert_eq!(select.from[0].table, "V_Employee__Works_On");
    let result = system.execute(&original, &[Value::Int(40)]).unwrap();
    assert_eq!(result.len(), 2);
}

#[test]
fn view_scan_is_faster_than_join_on_simulated_clock() {
    let system = build_system();
    let clock = system.cluster().clock().clone();
    // Same query answered through the view (Synergy path) vs. forced through
    // base tables (what the Baseline system would do).
    let joined = sql::parse_statement(
        "SELECT * FROM Employee as e, Works_On as wo WHERE e.EID = wo.WO_EID",
    )
    .unwrap();
    let (_, with_view) = clock.measure(|| system.execute(&joined, &[]).unwrap());
    let (_, without_view) =
        clock.measure(|| system.executor().execute(&joined, &[]).unwrap());
    assert!(
        with_view < without_view,
        "view={with_view} join={without_view}"
    );
}

#[test]
fn insert_into_last_relation_maintains_the_view() {
    let system = build_system();
    system
        .execute_sql(
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            &[Value::Int(2), Value::Int(2), Value::Int(15)],
        )
        .unwrap();
    assert_eq!(system.cluster().row_count("V_Employee__Works_On").unwrap(), 5);
    // The new view row carries the joined Employee attributes.
    let result = system
        .execute_sql(
            "SELECT * FROM Employee as e, Works_On as wo \
             WHERE e.EID = wo.WO_EID AND wo.Hours = ?",
            &[Value::Int(15)],
        )
        .unwrap();
    assert_eq!(result.len(), 1);
    assert_eq!(result.rows[0].get("EName").unwrap(), &Value::str("Employee2"));
}

#[test]
fn insert_into_interior_relation_does_not_touch_views() {
    let system = build_system();
    let before = system.cluster().row_count("V_Address__Employee").unwrap();
    system
        .execute_sql(
            "INSERT INTO Address (AID, Street, City, Zip) VALUES (?, ?, ?, ?)",
            &[
                Value::Int(99),
                Value::str("99 New St"),
                Value::str("Memphis"),
                Value::Int(38100),
            ],
        )
        .unwrap();
    assert_eq!(
        system.cluster().row_count("V_Address__Employee").unwrap(),
        before,
        "an Address insert applies to no view because Address is never the last relation"
    );
}

#[test]
fn delete_from_last_relation_removes_view_rows() {
    let system = build_system();
    system
        .execute_sql(
            "DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?",
            &[Value::Int(1), Value::Int(1)],
        )
        .unwrap();
    assert_eq!(system.cluster().row_count("V_Employee__Works_On").unwrap(), 3);
    assert_eq!(system.cluster().row_count("Works_On").unwrap(), 3);
}

#[test]
fn update_of_interior_relation_propagates_to_all_its_view_rows() {
    let system = build_system();
    system
        .execute_sql(
            "UPDATE Employee SET EName = ? WHERE EID = ?",
            &[Value::str("Renamed"), Value::Int(1)],
        )
        .unwrap();
    // Employee 1 appears in two Works_On view rows and one Address view row.
    let via_view = system
        .execute_sql(
            "SELECT * FROM Employee as e, Works_On as wo WHERE e.EID = wo.WO_EID",
            &[],
        )
        .unwrap();
    let renamed = via_view
        .rows
        .iter()
        .filter(|r| r.get("EName") == Some(&Value::str("Renamed")))
        .count();
    assert_eq!(renamed, 2);
    let base = system
        .execute_sql("SELECT * FROM Employee WHERE EID = 1", &[])
        .unwrap();
    assert_eq!(base.rows[0].get("EName").unwrap(), &Value::str("Renamed"));
    // No dirty markers are left behind.
    let raw = system
        .cluster()
        .scan("V_Employee__Works_On", nosql_store::ops::Scan::all())
        .unwrap();
    assert!(raw
        .iter()
        .all(|r| r.value("cf", "_dirty").map(|v| v == b"0").unwrap_or(true)));
}

#[test]
fn write_plans_name_the_single_lock_root_and_affected_views() {
    let system = build_system();
    let insert = sql::parse_statement(
        "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
    )
    .unwrap();
    let plan = system.plan_write(&insert).unwrap();
    assert_eq!(plan.lock_root.as_deref(), Some("Address"));
    assert_eq!(plan.affected_views, vec!["Employee-Works_On".to_string()]);
    assert!(!plan.uses_dirty_marking);

    let update = sql::parse_statement("UPDATE Employee SET EName = ? WHERE EID = ?").unwrap();
    let plan = system.plan_write(&update).unwrap();
    assert!(plan.uses_dirty_marking);
    assert_eq!(plan.affected_views.len(), 2);

    let unlocked = sql::parse_statement(
        "INSERT INTO Department (DNo, DName) VALUES (?, ?)",
    )
    .unwrap();
    let plan = system.plan_write(&unlocked).unwrap();
    assert_eq!(plan.lock_root.as_deref(), Some("Department"));
}

#[test]
fn writes_release_their_lock() {
    let system = build_system();
    system
        .execute_sql(
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            &[Value::Int(3), Value::Int(1), Value::Int(5)],
        )
        .unwrap();
    // Employee 3 has home address 3, so the Address lock for key "3" must be
    // free again after the transaction.
    assert!(!common::lock_held(system.cluster(), "Address", "3").unwrap());
    assert_eq!(system.transaction_layer().wal().len(), 1);
}

#[test]
fn concurrent_writes_to_the_same_root_serialize_correctly() {
    let system = build_system();
    std::thread::scope(|s| {
        for i in 0..4 {
            let system = system.clone();
            s.spawn(move || {
                for j in 0..5 {
                    // All of these rows hang off employee 1 → Address root 1.
                    system
                        .execute_sql(
                            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
                            &[Value::Int(1), Value::Int(100 + i * 10 + j), Value::Int(1)],
                        )
                        .unwrap();
                }
            });
        }
    });
    // 4 original rows + 20 inserted.
    assert_eq!(system.cluster().row_count("Works_On").unwrap(), 24);
    assert_eq!(system.cluster().row_count("V_Employee__Works_On").unwrap(), 24);
    assert!(!common::lock_held(system.cluster(), "Address", "1").unwrap());
}

#[test]
fn reads_concurrent_with_updates_never_observe_dirty_rows() {
    let system = build_system();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = {
            let system = system.clone();
            let stop = &stop;
            s.spawn(move || {
                for i in 0..30 {
                    system
                        .execute_sql(
                            "UPDATE Employee SET EName = ? WHERE EID = ?",
                            &[Value::str(format!("Name{i}")), Value::Int(1)],
                        )
                        .unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            })
        };
        let reader = {
            let system = system.clone();
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let result = system
                        .execute_sql(
                            "SELECT * FROM Employee as e, Works_On as wo \
                             WHERE e.EID = wo.WO_EID",
                            &[],
                        )
                        .unwrap();
                    // Every returned row must be a committed row: the EName is
                    // always one of the values the writer writes atomically.
                    for row in &result.rows {
                        let name = row.get("EName").unwrap().as_str().unwrap().to_string();
                        assert!(
                            name.starts_with("Name") || name.starts_with("Employee"),
                            "unexpected half-written name {name}"
                        );
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    });
}

/// A schema whose foreign keys form a cycle is refused by `build` with an
/// error, not a panic: a self-reference and a two-relation cycle.
#[test]
fn build_refuses_a_cyclic_foreign_key_graph() {
    let emp = Relation::new("Emp")
        .attributes(["id", "boss"])
        .primary_key(["id"])
        .foreign_key("boss", "Emp", "id")
        .build();
    let a = Relation::new("A")
        .attributes(["a_id", "a_b"])
        .primary_key(["a_id"])
        .foreign_key("a_b", "B", "b_id")
        .build();
    let b = Relation::new("B")
        .attributes(["b_id", "b_a"])
        .primary_key(["b_id"])
        .foreign_key("b_a", "A", "a_id")
        .build();
    for (schema, root, query) in [
        (Schema::new().with_relation(emp), "Emp", "SELECT * FROM Emp WHERE id = ?"),
        (Schema::new().with_relation(a).with_relation(b), "A", "SELECT * FROM A WHERE a_id = ?"),
    ] {
        let workload = parse_workload([query]).unwrap();
        let config = SynergyConfig::new(schema, workload, vec![root.to_string()], &|_, _| None);
        let refused = SynergySystem::build(Cluster::new(ClusterConfig::default()), config);
        assert!(
            matches!(&refused, Err(QueryError::Unsupported(m)) if m.contains("circular")),
            "{root}: {:?}",
            refused.err()
        );
    }
}

#[test]
fn database_size_grows_with_views() {
    let system = build_system();
    let total = system.database_size_bytes();
    let metrics = system.cluster().metrics();
    let bytes_where = |pred: fn(&str) -> bool| -> u64 {
        metrics.tables.iter().filter(|(name, _)| pred(name)).map(|(_, t)| t.bytes).sum()
    };
    let views_bytes = bytes_where(|n| n.starts_with("V_"));
    let base_bytes = bytes_where(|n| !n.starts_with("V_") && !n.starts_with("L_"));
    assert!(views_bytes > 0);
    assert!(total >= views_bytes + base_bytes);
}

#[test]
fn unsupported_write_shapes_are_rejected() {
    let system = build_system();
    let err = system
        .execute_sql("UPDATE Works_On SET Hours = ? WHERE WO_EID = ?", &[Value::Int(1), Value::Int(1)])
        .unwrap_err();
    assert!(matches!(err, synergy::TxnError::Unsupported(_)));
}

/// An UPDATE that assigns a key column would write its after-image under
/// the new key and leave the old row in place; binding refuses it.
#[test]
fn an_update_assigning_a_key_column_is_refused() {
    let system = build_system();
    let err = system
        .execute_sql("UPDATE Employee SET EID = ? WHERE EID = ?", &[Value::Int(99), Value::Int(2)])
        .unwrap_err();
    assert!(matches!(err, TxnError::Query(QueryError::Unsupported(_))), "{err:?}");
    assert_eq!(system.cluster().row_count("Employee").unwrap(), 3);
    let moved = system
        .execute_sql("SELECT * FROM Employee WHERE EID = ?", &[Value::Int(99)])
        .unwrap();
    assert_eq!(moved.len(), 0);
}

#[test]
fn txn_error_chains_through_box_dyn_error() {
    // Satellite: TxnError implements std::error::Error with a source chain,
    // so callers can `?` it into Box<dyn Error> and reach the query-layer
    // cause.
    fn run(system: &SynergySystem) -> Result<(), Box<dyn std::error::Error>> {
        system.execute_sql("SELECT * FROM Nonexistent", &[])?;
        Ok(())
    }
    let system = build_system();
    let err = run(&system).unwrap_err();
    assert_eq!(err.to_string(), "unknown table Nonexistent");
    let source = std::error::Error::source(err.as_ref()).expect("TxnError exposes its cause");
    assert_eq!(source.to_string(), "unknown table Nonexistent");
}

#[test]
fn reads_hit_the_plan_cache_and_explain_shows_the_rewrite() {
    let system = build_system();
    let statement = &system.workload()[0].clone();
    let before = system.plan_cache_stats();
    system.execute(statement, &[Value::Int(1)]).unwrap();
    system.execute(statement, &[Value::Int(2)]).unwrap();
    system.execute(statement, &[Value::Int(3)]).unwrap();
    let after = system.plan_cache_stats();
    assert_eq!(after.misses - before.misses, 1, "compiled once");
    assert_eq!(after.hits - before.hits, 2, "repeats served from the cache");

    let explain = system.explain(statement).unwrap();
    assert!(
        explain.starts_with("Rewrite [synergy-view-rewrite]"),
        "view substitution must be visible in the plan:\n{explain}"
    );

    // A leading EXPLAIN in SQL text renders the same tree as plan rows.
    let via_sql = system
        .execute_sql(&format!("EXPLAIN {statement}"), &[])
        .unwrap();
    let first_line = via_sql.rows[0].get("plan").unwrap();
    assert_eq!(first_line.as_str().unwrap(), explain.lines().next().unwrap());
}

/// The session behind [`SynergySystem::session`] plans through the view
/// rewrite rule, so it is a read path: a write sent through it would reach
/// the store with no statement log, no hierarchical lock and no view
/// maintenance.  It refuses to prepare one.
#[test]
fn a_write_through_the_read_session_is_refused_and_touches_nothing() {
    const UPDATE: &str = "UPDATE Employee SET EName = 'x' WHERE EID = 1";
    let system = build_system();
    let session = system.session();
    let before = system.cluster().metrics().ops;
    let refusals = [
        session.execute_sql(UPDATE, &[]).map(drop),
        session.prepare(UPDATE).map(drop),
        session.prepare_uncached(UPDATE).map(drop),
        session.prepare_statement(&sql::parse_statement(UPDATE).unwrap()).map(drop),
    ];
    for refusal in refusals {
        let err = refusal.unwrap_err();
        assert!(
            matches!(&err, QueryError::Unsupported(m) if m.contains("SynergySystem::execute")),
            "{err}"
        );
    }
    assert_eq!(system.cluster().metrics().ops, before, "a refused write reaches the store");
    for view in &system.selection().views {
        let mut stored: Vec<String> = system
            .executor()
            .execute_sql(&format!("SELECT * FROM {}", view.table_name()), &[])
            .unwrap()
            .rows
            .iter()
            .map(|row| format!("{row:?}"))
            .collect();
        let mut joined: Vec<String> = system
            .recompute_view_rows(view)
            .unwrap()
            .iter()
            .map(|row| format!("{row:?}"))
            .collect();
        stored.sort();
        joined.sort();
        assert_eq!(stored, joined, "{} no longer equals its join", view.table_name());
    }

    // Reads still prepare, and EXPLAIN of a write still renders its summary
    // line (nothing is executed).
    session.prepare("SELECT * FROM Department WHERE DNo = ?").unwrap();
    let explained = system.execute_sql(&format!("EXPLAIN {UPDATE}"), &[]).unwrap();
    assert_eq!(
        explained.rows[0].get("plan").unwrap(),
        &Value::str("Update Employee")
    );
}

/// A view-routed read naming a column its relations lack is refused by the
/// binder — fully materialized and under a view budget, where the read
/// would otherwise upquery — with no store op and no charge.  The refusal
/// names the column as the rewritten statement spells it (`View.column`
/// once the view replaced the join).
#[test]
fn a_view_routed_read_naming_an_unknown_column_is_refused_untouched() {
    const W1: &str = "FROM Employee AS e, Address AS a WHERE a.AID = e.EHome_AID AND e.EID = ?";
    let refused = [
        (format!("SELECT e.Bogus {W1}"), "Bogus"),
        (format!("SELECT * {W1} AND a.Zipp = 1"), "Zipp"),
        (format!("SELECT * {W1} ORDER BY a.Bogus"), "Bogus"),
    ];
    for budget in [None, Some(u64::MAX)] {
        let system = build_system_with_budget(budget);
        let routed = sql::parse_statement(&format!("SELECT e.EName {W1}")).unwrap();
        let explain = system.explain(&routed).unwrap();
        assert!(explain.starts_with("Rewrite [synergy-view-rewrite]"), "{explain}");
        for (text, column) in &refused {
            let statement = sql::parse_statement(text).unwrap();
            let cluster = system.cluster();
            let (ops, now) = (cluster.metrics().ops, cluster.clock().now());
            let err = system.execute(&statement, &[Value::Int(1)]).unwrap_err();
            assert!(
                matches!(&err, TxnError::Query(QueryError::UnknownColumn(c)) if c.ends_with(column)),
                "budget {budget:?}, {text}: {err}"
            );
            assert_eq!(cluster.metrics().ops, ops, "budget {budget:?}, {text} reached the store");
            assert_eq!(cluster.clock().now(), now, "budget {budget:?}, {text} was charged");
        }
        let answered = system.execute(&routed, &[Value::Int(1)]).unwrap();
        assert_eq!(answered.rows[0].get("EName"), Some(&Value::str("Employee1")));
    }
}
