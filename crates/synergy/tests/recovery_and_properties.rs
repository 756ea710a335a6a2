//! Failure-injection and property tests for the transaction layer and the
//! candidate-view generation mechanism.

mod common;

use nosql_store::{Cluster, ClusterConfig};
use proptest::prelude::*;
use query::ColumnType;
use relational::{company, Row, Value};
use sql::{parse_statement, parse_workload};
use synergy::viewgen::generate_candidate_views;
use synergy::{RootedTree, SynergyConfig, SynergySystem};

fn company_types(_relation: &str, column: &str) -> Option<ColumnType> {
    matches!(
        column,
        "AID" | "EID" | "E_DNo" | "EHome_AID" | "EOffice_AID" | "DNo" | "DL_DNo" | "PNo" | "P_DNo"
            | "WO_EID" | "WO_PNo" | "Hours" | "DP_EID" | "DPHome_AID" | "Zip"
    )
    .then_some(ColumnType::Int)
}

fn fresh_system() -> SynergySystem {
    let schema = company::company_schema();
    let workload =
        parse_workload(company::company_workload_sql().iter().map(String::as_str)).unwrap();
    let system = SynergySystem::build(
        Cluster::new(ClusterConfig::default()),
        SynergyConfig::new(schema, workload, company::company_roots(), &company_types),
    )
    .unwrap();
    system
        .bulk_load(
            "Address",
            &(1..=4i64)
                .map(|aid| {
                    Row::new()
                        .with("AID", aid)
                        .with("Street", format!("{aid} St"))
                        .with("City", "N")
                        .with("Zip", 37000 + aid)
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
    system
        .bulk_load("Department", &[Row::new().with("DNo", 1).with("DName", "D1")])
        .unwrap();
    system
        .bulk_load(
            "Employee",
            &(1..=4i64)
                .map(|eid| {
                    Row::new()
                        .with("EID", eid)
                        .with("EName", format!("E{eid}"))
                        .with("EHome_AID", eid)
                        .with("EOffice_AID", 1)
                        .with("E_DNo", 1)
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
    system
        .bulk_load(
            "Project",
            &[Row::new().with("PNo", 1).with("PName", "P1").with("P_DNo", 1)],
        )
        .unwrap();
    system.materialize_views().unwrap();
    // Bulk loads are volatile until a checkpoint (the memstore-flush
    // durability boundary): persist the populated state so crash tests
    // recover it.
    system.cluster().checkpoint();
    system
}

// ---------------------------------------------------------------------
// Transaction-layer WAL: durability and slave-failover replay (§VIII)
// ---------------------------------------------------------------------

#[test]
fn every_write_transaction_is_logged_and_synced_before_execution() {
    let system = fresh_system();
    let statements = [
        "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
        "UPDATE Employee SET EName = ? WHERE EID = ?",
        "DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?",
    ];
    let params: [Vec<Value>; 3] = [
        vec![Value::Int(1), Value::Int(1), Value::Int(9)],
        vec![Value::str("Renamed"), Value::Int(2)],
        vec![Value::Int(1), Value::Int(1)],
    ];
    for (sql_text, params) in statements.iter().zip(params.iter()) {
        system.execute_sql(sql_text, params).unwrap();
    }
    let wal = system.transaction_layer().wal();
    assert_eq!(wal.len(), 3);
    assert_eq!(wal.unsynced_len(), 0, "the statement WAL is synced per transaction");
}

#[test]
fn replaying_the_wal_on_a_standby_reproduces_the_same_state() {
    // The Master starts a new slave and replays the failed slave's WAL
    // (§VIII, "Transaction Layer").  We model that by replaying the logged
    // statements onto a standby deployment loaded with the same base data.
    let primary = fresh_system();
    let standby = fresh_system();

    let writes = [
        ("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
         vec![Value::Int(2), Value::Int(1), Value::Int(12)]),
        ("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
         vec![Value::Int(3), Value::Int(1), Value::Int(30)]),
        ("UPDATE Employee SET EName = ? WHERE EID = ?",
         vec![Value::str("Renamed3"), Value::Int(3)]),
        ("DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?",
         vec![Value::Int(2), Value::Int(1)]),
    ];
    for (sql_text, params) in &writes {
        primary.execute_sql(sql_text, params).unwrap();
    }

    // The WAL stores fully-bound statement text in a real deployment; here
    // the parameters are replayed alongside the logged statements.
    let mut replayed = 0;
    primary.transaction_layer().wal().replay(|entry| {
        if let nosql_store::WalOp::Logical { payload } = &entry.op {
            let (_, params) = &writes[replayed];
            standby.execute_sql(payload, params).unwrap();
            replayed += 1;
        }
    });
    assert_eq!(replayed, writes.len());

    // Both deployments must answer the workload identically afterwards.
    let probe = "SELECT * FROM Employee AS e, Works_On AS wo WHERE e.EID = wo.WO_EID";
    let primary_rows = primary.execute_sql(probe, &[]).unwrap().len();
    let standby_rows = standby.execute_sql(probe, &[]).unwrap().len();
    assert_eq!(primary_rows, standby_rows);
    assert_eq!(
        primary.cluster().row_count("V_Employee__Works_On").unwrap(),
        standby.cluster().row_count("V_Employee__Works_On").unwrap()
    );
}

#[test]
fn lock_held_by_a_stalled_writer_blocks_only_that_root_key() {
    let system = fresh_system();
    // Simulate a stalled transaction by grabbing employee 1's root lock
    // (Address root key "1") directly.
    let guard = system.locks().acquire("Address", "1").unwrap().unwrap();

    // A write under a different root key proceeds.
    system
        .execute_sql(
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            &[Value::Int(2), Value::Int(1), Value::Int(5)],
        )
        .unwrap();

    // Reads are never blocked by the hierarchical lock.
    let rows = system
        .execute_sql(
            "SELECT * FROM Employee AS e, Address AS a WHERE a.AID = e.EHome_AID AND e.EID = ?",
            &[Value::Int(1)],
        )
        .unwrap();
    assert_eq!(rows.len(), 1);

    system.locks().release(guard).unwrap();
    // After release, the previously blocked root key accepts writes again.
    system
        .execute_sql(
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            &[Value::Int(1), Value::Int(1), Value::Int(5)],
        )
        .unwrap();
}

// ---------------------------------------------------------------------
// Crash recovery: interrupted update transactions (§VIII-B steps 3–5)
// ---------------------------------------------------------------------

/// The probe joining Employee and Works_On — answered through
/// `V_Employee__Works_On` on the rewritten path.
const JOIN_PROBE: &str = "SELECT * FROM Employee AS e, Works_On AS wo WHERE e.EID = wo.WO_EID";

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

/// Asserts that no view row carries a set dirty marker and that every
/// selected view's table equals a fresh recomputation of its defining join
/// by value — a stale row with the right row count fails.
fn assert_views_match_recompute(system: &SynergySystem, at: &str) {
    for view in system.selection().views.clone() {
        let table = view.table_name();
        for row in system
            .cluster()
            .scan(&table, nosql_store::ops::Scan::all())
            .unwrap()
        {
            assert_ne!(
                row.value(query::FAMILY, query::DIRTY_MARKER),
                Some(b"1".as_slice()),
                "{at}: dirty marker left in {table}"
            );
        }
        let expected = system.recompute_view_rows(&view).unwrap();
        let select = parse_statement(&format!("SELECT * FROM {table}")).unwrap();
        let actual = system.executor().execute(&select, &[]).unwrap().rows;
        assert_eq!(
            canonical(&actual),
            canonical(&expected),
            "{at}: {table} diverges from recompute"
        );
    }
}

/// A crash at *any* point of the marked window (after step 3, mid-step 4,
/// or before step 5's unmark) must recover to consistent views: no view
/// row without its base row, no dirty marker left behind, the lock
/// released, and the view contents equal to a full recompute.
#[test]
fn crash_between_steps_3_and_5_recovers_consistent_views() {
    for step in [3u8, 4, 5] {
        let system = fresh_system();
        system
            .execute_sql(
                "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
                &[Value::Int(2), Value::Int(1), Value::Int(12)],
            )
            .unwrap();

        system.transaction_layer().inject_interrupt_after_step(step);
        let err = system
            .execute_sql(
                "UPDATE Employee SET EName = ? WHERE EID = ?",
                &[Value::str("Crashed"), Value::Int(2)],
            )
            .unwrap_err();
        assert!(
            matches!(err, synergy::TxnError::Interrupted { .. }),
            "step {step}: expected the injected interrupt, got {err}"
        );
        // The dead client's lock is still held (Employee 2's root is its
        // home address row, AID = EHome_AID = 2).
        assert!(common::lock_held(system.cluster(), "Address", "2").unwrap());

        system.cluster().crash();
        let report = system.recover().unwrap();
        assert_eq!(report.locks_reclaimed, 1, "step {step}");
        // The update marks one row in each view containing Employee
        // (V_Address__Employee and V_Employee__Works_On); both base rows
        // survive, so both roll forward.
        assert_eq!(
            report.view_rows_rolled_forward, 2,
            "step {step}: both marked view rows roll forward"
        );
        assert_eq!(report.view_rows_removed, 0, "step {step}");
        assert!(!common::lock_held(system.cluster(), "Address", "2").unwrap());

        // No dirty marker survives anywhere, and every view equals a full
        // recompute from the recovered base tables.
        assert_views_match_recompute(&system, &format!("step {step}"));

        // The rewritten read path works again, fallback-free, and agrees
        // with the baseline plan (rows carry differently-qualified symbols
        // per plan, so compare the projected values).
        let through_views = system.execute_sql(JOIN_PROBE, &[]).unwrap();
        assert_eq!(through_views.dirty_fallbacks, 0, "step {step}");
        let stmt = sql::parse_statement(JOIN_PROBE).unwrap();
        let baseline = system.executor().execute(&stmt, &[]).unwrap();
        assert_eq!(through_views.len(), baseline.len(), "step {step}");
        // Steps 4 and 5 committed the base write before crashing; step 3
        // crashed before it.  Either way view and baseline agree.
        let expected_name = baseline.rows[0].get("EName").unwrap().clone();
        assert_eq!(
            through_views.rows[0].get("EName").unwrap(),
            &expected_name,
            "step {step}"
        );
        if step >= 4 {
            assert_eq!(expected_name, Value::str("Crashed"), "step {step}");
        }

        // The interrupted update can be retried to completion.
        system
            .execute_sql(
                "UPDATE Employee SET EName = ? WHERE EID = ?",
                &[Value::str("Recovered"), Value::Int(2)],
            )
            .unwrap();
    }
}

/// Writes that completed before a crash leave nothing to repair: each one
/// maintained its views inside its own transaction, so after an acked
/// INSERT, UPDATE and DELETE, `crash()` and `recover()`, every view equals
/// its defining join by value, with no row rolled forward or removed.
#[test]
fn acked_writes_survive_a_crash_with_views_equal_to_recompute() {
    let system = fresh_system();
    let writes = [
        (
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            vec![Value::Int(2), Value::Int(1), Value::Int(12)],
        ),
        (
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            vec![Value::Int(3), Value::Int(1), Value::Int(30)],
        ),
        (
            "UPDATE Employee SET EName = ? WHERE EID = ?",
            vec![Value::str("Renamed"), Value::Int(2)],
        ),
        (
            "DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?",
            vec![Value::Int(3), Value::Int(1)],
        ),
    ];
    for (sql_text, params) in &writes {
        let result = system.execute_sql(sql_text, params).unwrap();
        assert_eq!(result.rows_affected, 1, "{sql_text}");
    }
    assert_views_match_recompute(&system, "before the crash");

    system.cluster().crash();
    let report = system.recover().unwrap();
    assert_eq!(report.locks_reclaimed, 0);
    assert_eq!(report.view_rows_rolled_forward, 0);
    assert_eq!(report.view_rows_removed, 0);
    assert_views_match_recompute(&system, "after recovery");

    // The update's new name reached both views containing Employee.
    let renamed = system.execute_sql(JOIN_PROBE, &[]).unwrap();
    assert_eq!(renamed.dirty_fallbacks, 0);
    assert_eq!(renamed.len(), 1);
    assert_eq!(renamed.rows[0].get("EName").unwrap(), &Value::str("Renamed"));
    let home = system
        .execute_sql(
            "SELECT * FROM Employee AS e, Address AS a WHERE a.AID = e.EHome_AID AND e.EID = ?",
            &[Value::Int(2)],
        )
        .unwrap();
    assert_eq!(home.rows[0].get("EName").unwrap(), &Value::str("Renamed"));
}

/// A view left permanently dirty (crash after step 4, before the unmark)
/// degrades reads to the baseline plan instead of failing them; recovery
/// then repairs the view and reads return to the rewritten path.
#[test]
fn permanently_dirty_views_degrade_to_the_baseline_plan() {
    let system = fresh_system();
    system
        .execute_sql(
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            &[Value::Int(2), Value::Int(1), Value::Int(12)],
        )
        .unwrap();
    system.transaction_layer().inject_interrupt_after_step(5);
    system
        .execute_sql(
            "UPDATE Employee SET EName = ? WHERE EID = ?",
            &[Value::str("Crashed"), Value::Int(2)],
        )
        .unwrap_err();

    // The view row is dirty: the rewritten plan exhausts its
    // `query::DIRTY_RETRY_LIMIT` restarts and the read is answered through
    // the baseline plan instead.
    let degraded = system.execute_sql(JOIN_PROBE, &[]).unwrap();
    assert_eq!(degraded.dirty_fallbacks, 1);
    assert_eq!(system.dirty_fallbacks(), 1);
    assert_eq!(degraded.len(), 1);
    // The base write (step 4) committed before the crash: the fallback
    // answer reflects it.
    assert_eq!(
        degraded.rows[0].get("EName").unwrap(),
        &Value::str("Crashed")
    );

    // Recovery repairs the marker; the same statement then runs through the
    // views again with the same logical answer.
    system.cluster().crash();
    let report = system.recover().unwrap();
    assert_eq!(report.view_rows_rolled_forward, 2);
    let healed = system.execute_sql(JOIN_PROBE, &[]).unwrap();
    assert_eq!(healed.dirty_fallbacks, 0);
    assert_eq!(healed.len(), degraded.len());
    assert_eq!(
        healed.rows[0].get("EName").unwrap(),
        &Value::str("Crashed")
    );
    assert_eq!(system.dirty_fallbacks(), 1, "no further fallbacks");
}

// ---------------------------------------------------------------------
// Candidate-view generation: structural invariants for any roots set
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every subset of relations chosen as roots, the generation
    /// mechanism must (1) assign each non-root relation to at most one tree,
    /// (2) produce trees whose edges come from the schema graph, with a
    /// unique path from the root to every node, and (3) never leave a
    /// relation both assigned and reported unassigned.
    #[test]
    fn rooted_trees_are_well_formed_for_any_roots_subset(mask in 0u8..128) {
        let schema = company::company_schema();
        let workload =
            parse_workload(company::company_workload_sql().iter().map(String::as_str)).unwrap();
        let all: Vec<String> = schema.relation_names();
        let roots: Vec<String> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, name)| name.clone())
            .collect();
        let candidates = generate_candidate_views(&schema, &workload, &roots);

        // Every tree's root is one of the requested roots.
        for tree in &candidates.trees {
            prop_assert!(roots.contains(&tree.root));
            // Unique path from the root to every node, and every edge exists
            // in the original schema graph.
            let graph = relational::SchemaGraph::from_schema(&schema);
            for node in tree.nodes() {
                prop_assert!(tree.path_from_root(&node).is_some());
            }
            for edge in &tree.edges {
                prop_assert!(graph
                    .edges_between(&edge.from, &edge.to)
                    .iter()
                    .any(|e| e.fk == edge.fk));
                // No edge points into a root of another tree.
                prop_assert!(!roots.iter().any(|r| r == &edge.to));
            }
        }
        // Each non-root relation belongs to at most one tree, and is either
        // assigned or listed as unassigned (if it is not itself a root).
        for relation in &all {
            let owners = candidates.trees.iter().filter(|t| t.contains(relation)).count();
            if roots.contains(relation) {
                continue;
            }
            prop_assert!(owners <= 1, "{relation} owned by {owners} trees");
            if owners == 0 {
                prop_assert!(candidates.unassigned.contains(relation));
            } else {
                prop_assert!(!candidates.unassigned.contains(relation));
            }
        }
        // Candidate views are always paths of length >= 1 fully inside one tree.
        for view in candidates.trees.iter().flat_map(RootedTree::all_paths) {
            prop_assert!(view.len() >= 2);
            let tree = candidates.tree_containing(view.last_relation()).unwrap();
            for relation in &view.relations {
                prop_assert!(tree.contains(relation));
            }
        }
    }
}
