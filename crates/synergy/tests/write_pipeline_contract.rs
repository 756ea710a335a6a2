//! The step contract of the write pipeline
//! ([`synergy::TransactionLayer::execute_write`], stated in the module docs
//! of `synergy::txn`), held for every write kind in every configuration —
//! the twin of `every_entry_point_obeys_the_pipeline_contract` in the
//! store.

use nosql_store::{Cluster, ClusterConfig, OpCounters};
use query::{ColumnType, QueryError};
use relational::{company, Row, Value};
use sql::parse_workload;
use synergy::{SynergyConfig, SynergySystem, TxnError};

fn company_types(_relation: &str, column: &str) -> Option<ColumnType> {
    matches!(
        column,
        "AID"
            | "EID"
            | "E_DNo"
            | "EHome_AID"
            | "EOffice_AID"
            | "DNo"
            | "DL_DNo"
            | "PNo"
            | "P_DNo"
            | "WO_EID"
            | "WO_PNo"
            | "Hours"
            | "DP_EID"
            | "DPHome_AID"
            | "Zip"
    )
    .then_some(ColumnType::Int)
}

/// The Company deployment: four employees, each living at the address of
/// the same number (so employee `n`'s root lock row is `Address/n`), one
/// department, one project, and employee 2 working on it.
fn deployment(locking: bool) -> SynergySystem {
    let schema = company::company_schema();
    let workload =
        parse_workload(company::company_workload_sql().iter().map(String::as_str)).unwrap();
    let mut config =
        SynergyConfig::new(schema, workload, company::company_roots(), &company_types);
    if !locking {
        config = config.without_hierarchical_locking();
    }
    let system = SynergySystem::build(Cluster::new(ClusterConfig::default()), config).unwrap();
    let rows = |n: i64, row: fn(i64) -> Row| (1..=n).map(row).collect::<Vec<_>>();
    let address = |aid| {
        Row::new()
            .with("AID", aid)
            .with("Street", "S")
            .with("City", "N")
            .with("Zip", 37000 + aid)
    };
    let employee = |eid| {
        Row::new()
            .with("EID", eid)
            .with("EName", format!("E{eid}"))
            .with("EHome_AID", eid)
            .with("EOffice_AID", 1)
            .with("E_DNo", 1)
    };
    system.bulk_load("Address", &rows(4, address)).unwrap();
    system
        .bulk_load(
            "Department",
            &[Row::new().with("DNo", 1).with("DName", "D1")],
        )
        .unwrap();
    system.bulk_load("Employee", &rows(4, employee)).unwrap();
    system
        .bulk_load(
            "Project",
            &[Row::new()
                .with("PNo", 1)
                .with("PName", "P1")
                .with("P_DNo", 1)],
        )
        .unwrap();
    system
        .bulk_load(
            "Works_On",
            &[Row::new()
                .with("WO_EID", 2)
                .with("WO_PNo", 1)
                .with("Hours", 12)],
        )
        .unwrap();
    system.materialize_views().unwrap();
    system
}

const INSERT: &str = "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)";
const UPDATE: &str = "UPDATE Employee SET EName = ? WHERE EID = ?";
const DELETE: &str = "DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?";

/// `[gets, puts, deletes, check_and_puts, scans]` of a counter delta.
fn footprint(ops: &OpCounters) -> [u64; 5] {
    [
        ops.gets,
        ops.puts,
        ops.deletes,
        ops.check_and_puts,
        ops.scans,
    ]
}

/// Whether `Address/key` — the root lock row of employee `key` and of the
/// rows below it — is held (a deployment without locking has no lock table).
fn held(system: &SynergySystem, key: &str) -> bool {
    system.locks().is_held("Address", key).unwrap_or(false)
}

/// View rows currently carrying a set dirty marker, across all views.
fn dirty_view_rows(system: &SynergySystem) -> usize {
    let mut dirty = 0;
    for view in &system.selection().views {
        for row in system
            .cluster()
            .scan(&view.table_name(), nosql_store::ops::Scan::all())
            .unwrap()
        {
            if row.value(query::FAMILY, query::DIRTY_MARKER) == Some(b"1".as_slice()) {
                dirty += 1;
            }
        }
    }
    dirty
}

/// One row of the contract table: a write kind with its statement.
struct Case {
    kind: &'static str,
    sql_text: &'static str,
    /// Parameters naming a present row (an INSERT: a new one).
    hit: Vec<Value>,
    /// Parameters naming an absent key (none for an INSERT).
    miss: Option<Vec<Value>>,
    /// Key of the `Address` lock row above the row `hit` names.
    root_key: &'static str,
    /// `[gets, puts, deletes, check_and_puts, scans]` of the one statement,
    /// as recorded at this pipeline's parent commit, per [`CONFIGURATIONS`].
    pinned: [[u64; 5]; 2],
}

/// Hierarchical locking on, then off.
const CONFIGURATIONS: [bool; 2] = [true, false];

#[test]
fn every_write_kind_obeys_the_pipeline_contract() {
    let cases = [
        Case {
            kind: "insert",
            sql_text: INSERT,
            hit: vec![Value::Int(3), Value::Int(1), Value::Int(7)],
            miss: None,
            root_key: "3",
            pinned: [[2, 4, 0, 2, 0], [1, 4, 0, 0, 0]],
        },
        Case {
            kind: "update",
            sql_text: UPDATE,
            hit: vec![Value::str("Renamed"), Value::Int(2)],
            miss: Some(vec![Value::str("Nobody"), Value::Int(99)]),
            root_key: "2",
            pinned: [[2, 10, 0, 2, 1], [2, 10, 0, 0, 1]],
        },
        Case {
            kind: "delete",
            sql_text: DELETE,
            hit: vec![Value::Int(2), Value::Int(1)],
            miss: Some(vec![Value::Int(99), Value::Int(1)]),
            root_key: "2",
            pinned: [[2, 0, 4, 2, 0], [1, 0, 4, 0, 0]],
        },
    ];

    for Case {
        kind,
        sql_text,
        hit,
        miss,
        root_key,
        pinned,
    } in &cases
    {
        for (locking, expected) in CONFIGURATIONS.into_iter().zip(pinned) {
            let at = format!("{kind}, locking {locking}");
            let system = deployment(locking);

            // An absent key: affected(0) after the one before-image read —
            // no lock, no base write, no view touched.
            if let Some(miss) = miss {
                let (ops, stats) = (system.cluster().metrics().ops, system.maintenance_stats());
                let result = system.execute_sql(sql_text, miss).unwrap();
                let ops = system.cluster().metrics().ops.delta_since(&ops);
                assert_eq!(result.rows_affected, 0, "{at}");
                assert_eq!(
                    footprint(&ops),
                    [1, 0, 0, 0, 0],
                    "{at}: an absent key costs one get"
                );
                assert_eq!(system.maintenance_stats(), stats, "{at}: no view touched");
            }

            // A completed write: the recorded store operations, the lock
            // row free afterwards.
            let before = system.cluster().metrics().ops;
            let result = system.execute_sql(sql_text, hit).unwrap();
            let ops = system.cluster().metrics().ops.delta_since(&before);
            assert_eq!(result.rows_affected, 1, "{at}");
            assert_eq!(
                footprint(&ops),
                *expected,
                "{at}: [gets, puts, deletes, cas, scans]"
            );
            assert!(
                !held(&system, root_key),
                "{at}: lock released after the write"
            );
            assert_eq!(
                dirty_view_rows(&system),
                0,
                "{at}: no marker outlives the write"
            );
        }
    }
}

/// WAL records appended so far, over every region server's log.
fn wal_records(system: &SynergySystem) -> usize {
    (0..ClusterConfig::default().region_servers)
        .map(|server| system.cluster().wal(server).len())
        .sum()
}

/// The micro schema's fat update — one customer's name, 110 view rows (10
/// in `V_Customer__Orders`, 100 in `V_Customer__Orders__Order_line`) —
/// pays per region, not per row: each of the mark, apply and unmark phases
/// is one store put per (view, region) the customer's view rows span, on
/// top of the base put; every row is still logged.  Checked for the
/// customer whose rows span the most regions, one that straddles a region
/// boundary.
#[test]
fn a_fat_update_writes_each_phase_once_per_view_region() {
    let bench = tpcw::micro::MicroBench::build(300).unwrap();
    let system = bench.system();
    let cluster = system.cluster();
    // (view, region) pairs per customer.
    let mut pairs: std::collections::BTreeMap<i64, std::collections::BTreeSet<(String, u64)>> =
        Default::default();
    for view in &system.selection().views {
        let table = view.table_name();
        let def = system.executor().catalog().table_shared(&table).unwrap();
        for stored in cluster.scan(&table, nosql_store::ops::Scan::all()).unwrap() {
            let Some(&Value::Int(c_id)) = def.decode_row(&stored).get("c_id") else {
                panic!("{table}: view row without c_id");
            };
            let (region, _) = cluster.region_epoch_for(&table, &stored.key).unwrap();
            pairs.entry(c_id).or_default().insert((table.clone(), region));
        }
    }
    let (&c_id, spanned) = pairs.iter().max_by_key(|(_, spanned)| spanned.len()).unwrap();
    assert!(spanned.len() > 2, "customer {c_id} straddles a region boundary: {spanned:?}");

    let (ops, records) = (cluster.metrics().ops, wal_records(system));
    let touched = system.maintenance_stats().view_rows_touched;
    let update = "UPDATE Customer SET c_fname = ?, c_lname = ? WHERE c_id = ?";
    let params = [Value::str("Fat"), Value::str("Update"), Value::Int(c_id)];
    assert_eq!(system.execute_sql(update, &params).unwrap().rows_affected, 1);
    let ops = cluster.metrics().ops.delta_since(&ops);
    let pairs = spanned.len() as u64;
    assert_eq!(
        footprint(&ops),
        [1, 3 * pairs + 1, 0, 2, 12],
        "[gets, puts, deletes, cas, scans] over {pairs} (view, region) pairs"
    );
    assert_eq!(system.maintenance_stats().view_rows_touched - touched, 110);
    assert_eq!(wal_records(system) - records, 3 * 110 + 1 + 2, "every row logged");
    assert_eq!(dirty_view_rows(system), 0, "no marker outlives the write");
}

#[test]
fn failed_and_rejected_writes_leave_the_lock_free() {
    for locking in CONFIGURATIONS {
        let at = format!("locking {locking}");
        let system = deployment(locking);

        // Rejected at bind, exactly as on the executor path: an unknown
        // column (INSERT and UPDATE) — nothing read, nothing locked.
        for (sql_text, params) in [
            (
                "INSERT INTO Works_On (WO_EID, WO_PNo, Wage) VALUES (?, ?, ?)",
                vec![Value::Int(3), Value::Int(1), Value::Int(7)],
            ),
            (
                "UPDATE Employee SET Wage = ? WHERE EID = ?",
                vec![Value::Int(7), Value::Int(2)],
            ),
        ] {
            let statement = sql::parse_statement(sql_text).unwrap();
            let before = system.cluster().metrics().ops;
            let through_synergy = system.execute(&statement, &params).unwrap_err();
            assert_eq!(
                system
                    .cluster()
                    .metrics()
                    .ops
                    .delta_since(&before)
                    .total_ops(),
                0,
                "{at}"
            );
            let through_executor = system.executor().execute(&statement, &params).unwrap_err();
            assert!(
                matches!(through_executor, QueryError::UnknownColumn(_)),
                "{through_executor}"
            );
            assert_eq!(
                through_synergy,
                TxnError::Query(through_executor),
                "{at}: {sql_text}"
            );
        }

        // An incomplete key is an unsupported write shape (§IV).
        let err = system
            .execute_sql("DELETE FROM Works_On WHERE WO_EID = ?", &[Value::Int(2)])
            .unwrap_err();
        assert!(matches!(err, TxnError::Unsupported(_)), "{at}: {err}");

        // A write that fails under the lock (the row lacks a key
        // attribute, so the base write is refused) releases it.
        let err = system
            .execute_sql(
                "INSERT INTO Works_On (WO_EID, Hours) VALUES (?, ?)",
                &[Value::Int(3), Value::Int(7)],
            )
            .unwrap_err();
        assert!(
            matches!(err, TxnError::Query(QueryError::IncompleteKey { .. })),
            "{at}: {err}"
        );
        assert!(
            !held(&system, "3"),
            "{at}: lock released after the failed write"
        );
        assert!(!held(&system, "2"), "{at}");
    }
}

#[test]
fn an_interrupt_leaks_the_guard_and_leaves_the_markers() {
    for step in [3u8, 4, 5] {
        for locking in [true, false] {
            let at = format!("step {step}, locking {locking}");
            let system = deployment(locking);
            system.transaction_layer().inject_interrupt_after_step(step);
            let err = system
                .execute_sql(UPDATE, &[Value::str("Crashed"), Value::Int(2)])
                .unwrap_err();
            assert_eq!(err, TxnError::Interrupted { step }, "{at}");
            // The dead client's lock stays held, and the row the update
            // touches in each of the two views containing Employee stays
            // marked: what `recover` reclaims and rolls forward.
            assert_eq!(held(&system, "2"), locking, "{at}: the guard is leaked");
            assert_eq!(dirty_view_rows(&system), 2, "{at}");
            let name = system
                .executor()
                .get_row_by_key("Employee", &Row::new().with("EID", 2))
                .unwrap()
                .unwrap();
            let written = name.get("EName") == Some(&Value::str("Crashed"));
            assert_eq!(written, step >= 4, "{at}: the base write is step 4");

            // The hook is one-shot: the next write completes and releases.
            system
                .execute_sql(UPDATE, &[Value::str("Again"), Value::Int(3)])
                .unwrap();
            assert!(!held(&system, "3"), "{at}");
        }
    }
}
