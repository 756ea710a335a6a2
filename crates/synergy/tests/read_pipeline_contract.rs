//! The step contract of the read pipeline ([`SynergySystem::execute`] on a
//! SELECT, stated in the module docs of `synergy::system`): plan → admit →
//! run → degrade, held for workload and ad-hoc statements, fully
//! materialized and under a view budget, through every outcome — the twin
//! of `write_pipeline_contract.rs`.
//!
//! The store operations and simulated milliseconds of every read are pinned
//! to the values this file recorded at the pipeline's parent commit (three
//! forked read paths): the one pipeline moves no charged operation.

use nosql_store::{Cluster, ClusterConfig};
use query::ColumnType;
use relational::{company, Relation, Row, Schema, Value};
use sql::{parse_statement, parse_workload, Statement};
use synergy::{SynergyConfig, SynergySystem};

fn company_types(_relation: &str, column: &str) -> Option<ColumnType> {
    matches!(
        column,
        "AID" | "EID" | "E_DNo" | "EHome_AID" | "EOffice_AID" | "DNo" | "DL_DNo" | "PNo" | "P_DNo"
            | "WO_EID" | "WO_PNo" | "Hours" | "DP_EID" | "DPHome_AID" | "Zip"
    )
    .then_some(ColumnType::Int)
}

/// The Company deployment: four employees, each living at the address of
/// the same number, one department, two projects, four `Works_On` rows.
/// `budget` switches partial materialization on (never evicting).
fn deployment(budget: bool) -> SynergySystem {
    let workload =
        parse_workload(company::company_workload_sql().iter().map(String::as_str)).unwrap();
    let mut config = SynergyConfig::new(
        company::company_schema(),
        workload,
        company::company_roots(),
        &company_types,
    );
    if budget {
        config = config.with_view_budget(u64::MAX);
    }
    let system = SynergySystem::build(Cluster::new(ClusterConfig::default()), config).unwrap();
    let rows = |n: i64, row: fn(i64) -> Row| (1..=n).map(row).collect::<Vec<_>>();
    let address = |aid| {
        Row::new()
            .with("AID", aid)
            .with("Street", "S")
            .with("City", if aid == 4 { "Memphis" } else { "Nashville" })
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
    let project = |pno| Row::new().with("PNo", pno).with("PName", format!("P{pno}")).with("P_DNo", 1);
    system.bulk_load("Address", &rows(4, address)).unwrap();
    system
        .bulk_load("Department", &[Row::new().with("DNo", 1).with("DName", "D1")])
        .unwrap();
    system.bulk_load("Employee", &rows(4, employee)).unwrap();
    system.bulk_load("Project", &rows(2, project)).unwrap();
    let works_on: Vec<Row> = [(1i64, 1i64, 10i64), (2, 1, 40), (2, 2, 12), (3, 1, 40)]
        .iter()
        .map(|(e, p, h)| Row::new().with("WO_EID", *e).with("WO_PNo", *p).with("Hours", *h))
        .collect();
    system.bulk_load("Works_On", &works_on).unwrap();
    system.materialize_views().unwrap();
    system
}

/// Leaves the view rows of employee 2 permanently dirty: an UPDATE that
/// dies after step 5 (marked, base written, before the unmark).  Under a
/// budget only resident keys carry view rows, so only those are marked.
fn crash_an_update_of_employee_2(system: &SynergySystem) {
    system.transaction_layer().inject_interrupt_after_step(5);
    system
        .execute_sql(
            "UPDATE Employee SET EName = ? WHERE EID = ?",
            &[Value::str("Crashed"), Value::Int(2)],
        )
        .unwrap_err();
}

/// Which way out of the pipeline a read took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Steps 1–3 only: answered from the view tables.
    Served,
    /// Step 2 filled a missing key by an upquery, then step 3 ran.
    Upquery,
    /// Step 2 found a view with no key binding: the view-free plan ran.
    Bypass,
    /// Step 3 exhausted its dirty restarts: step 4 ran the view-free plan.
    Degrade,
}
use Outcome::{Bypass, Degrade, Served, Upquery};

/// Everything one read is held to.
#[derive(Debug, PartialEq)]
struct Read {
    outcome: Outcome,
    /// Plan-cache `(hits, misses)` this read added; each miss adds one entry.
    cache: (u64, u64),
    /// `[gets, puts, deletes, check_and_puts, scans]`, as recorded at the
    /// parent commit.
    ops: [u64; 5],
    /// Simulated milliseconds, as recorded at the parent commit.
    sim_ms: f64,
}

const fn read(outcome: Outcome, cache: (u64, u64), ops: [u64; 5], sim_ms: f64) -> Read {
    Read {
        outcome,
        cache,
        ops,
        sim_ms,
    }
}

/// Executes one read and observes it: outcome from the residency counters
/// and the result's fallback flag, plan-cache and store deltas, sim time;
/// the answer must equal the join algorithm's over the base tables, and no
/// reader pin may outlive the read.
fn observe(system: &SynergySystem, statement: &Statement, params: &[Value], at: &str) -> Read {
    // Rows as sorted bare-named (column, value) lists, themselves sorted:
    // the view path names columns bare, the join path by alias.
    let canonical = |rows: &[Row]| {
        let columns = |row: &Row| {
            let row = row.unqualified();
            let mut columns: Vec<String> = row.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
            columns.sort();
            columns
        };
        let mut rows: Vec<Vec<String>> = rows.iter().map(columns).collect();
        rows.sort();
        rows
    };
    let expected = system.executor().execute(statement, params).unwrap();

    let residency = system.residency_snapshot().unwrap_or_default();
    let cache = system.plan_cache_stats();
    let ops = system.cluster().metrics().ops;
    let clock = system.cluster().clock().clone();
    let (result, sim) = clock.measure(|| system.execute(statement, params));
    let result = result.unwrap_or_else(|e| panic!("{at}: {e}"));
    let ops = system.cluster().metrics().ops.delta_since(&ops);
    let cache_after = system.plan_cache_stats();
    let residency_after = system.residency_snapshot().unwrap_or_default();

    assert_eq!(canonical(&result.rows), canonical(&expected.rows), "{at}: wrong answer");
    if let Some(residency) = system.residency() {
        assert_eq!(residency.pins_held(), 0, "{at}: a pin outlives the read");
    }
    let misses = cache_after.misses - cache.misses;
    assert_eq!(
        (cache_after.entries - cache.entries) as u64,
        misses,
        "{at}: every compile is cached, nothing else is"
    );
    let outcome = match (
        residency_after.upqueries - residency.upqueries,
        residency_after.bypasses - residency.bypasses,
        result.dirty_fallbacks,
    ) {
        (0, 0, 0) => Served,
        (1, 0, 0) => Upquery,
        (0, 1, 0) => Bypass,
        (0, 0, 1) => Degrade,
        other => panic!("{at}: (upqueries, bypasses, fallbacks) = {other:?}"),
    };
    Read {
        outcome,
        cache: (cache_after.hits - cache.hits, misses),
        ops: [ops.gets, ops.puts, ops.deletes, ops.check_and_puts, ops.scans],
        sim_ms: sim.as_millis_f64(),
    }
}

/// W1 of the Company workload: keyed on the leading key of
/// `V_Address__Employee`.
const WORKLOAD_KEYED: &str =
    "SELECT * FROM Employee AS e, Address AS a WHERE a.AID = e.EHome_AID AND e.EID = ?";
/// W3: served by the `Hours` view-index of `V_Employee__Works_On`; binds no
/// leading-key value.
const WORKLOAD_UNKEYED: &str =
    "SELECT * FROM Employee AS e, Works_On AS wo WHERE e.EID = wo.WO_EID AND wo.Hours = ?";
/// Not in the workload: the marking procedure routes them on the fly.
const ADHOC_KEYED: &str = "SELECT e.EName, a.City FROM Employee AS e, Address AS a \
                           WHERE a.AID = e.EHome_AID AND e.EID = ?";
const ADHOC_UNKEYED: &str = "SELECT e.EName, a.City FROM Employee AS e, Address AS a \
                             WHERE a.AID = e.EHome_AID AND a.City = ?";

/// One row of the contract table: a statement under one configuration.
struct Case {
    budget: bool,
    sql_text: &'static str,
    /// The statement's one parameter: the value most reads bind, and a
    /// second one.  For the keyed statements these are two view keys
    /// (employees 2 and 3).
    params: [Value; 2],
    /// The five reads every case runs, in order: the first parameter, the
    /// first again, the second, then — employee 2's view rows left dirty
    /// by a crashed update — the first twice more.
    pinned: [Read; 5],
}

#[test]
fn every_read_obeys_the_pipeline_contract() {
    let cases = [
        // Fully materialized: every read is view-served until the view is
        // left dirty; each statement compiles once, and once more — the
        // view-free plan — at its first degraded read.  (W3 never degrades:
        // the marker sits on view rows, and W3 scans the `Hours` view-index.)
        Case {
            budget: false,
            sql_text: WORKLOAD_KEYED,
            params: [Value::Int(2), Value::Int(3)],
            pinned: [
                read(Served, (0, 1), [1, 0, 0, 0, 0], 1.02025),
                read(Served, (1, 0), [1, 0, 0, 0, 0], 1.02025),
                read(Served, (1, 0), [1, 0, 0, 0, 0], 1.02025),
                read(Degrade, (1, 1), [4098, 0, 0, 0, 1], 4182.130842),
                read(Degrade, (2, 0), [4098, 0, 0, 0, 1], 4182.130842),
            ],
        },
        Case {
            budget: false,
            sql_text: ADHOC_KEYED,
            params: [Value::Int(2), Value::Int(3)],
            pinned: [
                read(Served, (0, 1), [1, 0, 0, 0, 0], 1.02025),
                read(Served, (1, 0), [1, 0, 0, 0, 0], 1.02025),
                read(Served, (1, 0), [1, 0, 0, 0, 0], 1.02025),
                read(Degrade, (1, 1), [4098, 0, 0, 0, 1], 4182.130306),
                read(Degrade, (2, 0), [4098, 0, 0, 0, 1], 4182.130306),
            ],
        },
        Case {
            budget: false,
            sql_text: WORKLOAD_UNKEYED,
            params: [Value::Int(40), Value::Int(12)],
            pinned: [
                read(Served, (0, 1), [0, 0, 0, 0, 1], 2.104596),
                read(Served, (1, 0), [0, 0, 0, 0, 1], 2.104596),
                read(Served, (1, 0), [0, 0, 0, 0, 1], 2.102298),
                read(Served, (1, 0), [0, 0, 0, 0, 1], 2.104606),
                read(Served, (1, 0), [0, 0, 0, 0, 1], 2.104606),
            ],
        },
        Case {
            budget: false,
            sql_text: ADHOC_UNKEYED,
            params: [Value::str("Nashville"), Value::str("Memphis")],
            pinned: [
                read(Served, (0, 1), [0, 0, 0, 0, 1], 2.10757),
                read(Served, (1, 0), [0, 0, 0, 0, 1], 2.10757),
                read(Served, (1, 0), [0, 0, 0, 0, 1], 2.10707),
                read(Degrade, (1, 1), [0, 0, 0, 0, 4099], 8636.265028),
                read(Degrade, (2, 0), [0, 0, 0, 0, 4099], 8636.265028),
            ],
        },
        // Under a view budget a keyed statement's first read of a key is a
        // miss filled by an upquery (two compiles: the statement and the
        // upquery's view-free plan); a miss on a second key compiles
        // nothing.  An unkeyed statement is a bypass every time — its
        // views are never filled, so never dirty — and its view-free plan
        // compiles at the first one only.
        Case {
            budget: true,
            sql_text: WORKLOAD_KEYED,
            params: [Value::Int(2), Value::Int(3)],
            pinned: [
                read(Upquery, (0, 2), [1, 1, 0, 0, 2], 12.344732),
                read(Served, (1, 0), [1, 0, 0, 0, 0], 1.02025),
                read(Upquery, (2, 0), [1, 1, 0, 0, 2], 12.344732),
                read(Degrade, (1, 1), [4098, 0, 0, 0, 1], 4182.130842),
                read(Degrade, (2, 0), [4098, 0, 0, 0, 1], 4182.130842),
            ],
        },
        Case {
            budget: true,
            sql_text: ADHOC_KEYED,
            params: [Value::Int(2), Value::Int(3)],
            pinned: [
                read(Upquery, (0, 2), [1, 1, 0, 0, 2], 12.344732),
                read(Served, (1, 0), [1, 0, 0, 0, 0], 1.02025),
                read(Upquery, (2, 0), [1, 1, 0, 0, 2], 12.344732),
                read(Degrade, (1, 1), [4098, 0, 0, 0, 1], 4182.130306),
                read(Degrade, (2, 0), [4098, 0, 0, 0, 1], 4182.130306),
            ],
        },
        Case {
            budget: true,
            sql_text: WORKLOAD_UNKEYED,
            params: [Value::Int(40), Value::Int(12)],
            pinned: [
                read(Bypass, (0, 2), [0, 0, 0, 0, 2], 4.300676),
                read(Bypass, (2, 0), [0, 0, 0, 0, 2], 4.300676),
                read(Bypass, (2, 0), [0, 0, 0, 0, 2], 4.288426),
                read(Bypass, (2, 0), [0, 0, 0, 0, 2], 4.300686),
                read(Bypass, (2, 0), [0, 0, 0, 0, 2], 4.300686),
            ],
        },
        Case {
            budget: true,
            sql_text: ADHOC_UNKEYED,
            params: [Value::str("Nashville"), Value::str("Memphis")],
            pinned: [
                read(Bypass, (0, 2), [0, 0, 0, 0, 2], 4.312106),
                read(Bypass, (2, 0), [0, 0, 0, 0, 2], 4.312106),
                read(Bypass, (2, 0), [0, 0, 0, 0, 2], 4.287606),
                read(Bypass, (2, 0), [0, 0, 0, 0, 2], 4.312116),
                read(Bypass, (2, 0), [0, 0, 0, 0, 2], 4.312116),
            ],
        },
    ];

    let mut failures = Vec::new();
    for Case {
        budget,
        sql_text,
        params: [first, second],
        pinned,
    } in &cases
    {
        let system = deployment(*budget);
        let statement = parse_statement(sql_text).unwrap();
        let observe = |what: &str, param: &Value| {
            let at = format!("budget {budget}, `{sql_text}`, {what}");
            observe(&system, &statement, std::slice::from_ref(param), &at)
        };
        let mut observed = vec![
            observe("first parameter", first),
            observe("first parameter again", first),
            observe("second parameter", second),
        ];
        crash_an_update_of_employee_2(&system);
        observed.push(observe("first parameter, dirty", first));
        observed.push(observe("first parameter, dirty again", first));
        if observed != *pinned {
            let rows: Vec<String> = observed
                .iter()
                .map(|r| format!("read({:?}, {:?}, {:?}, {:?}),", r.outcome, r.cache, r.ops, r.sim_ms))
                .collect();
            failures.push(format!("budget {budget}, `{sql_text}`:\n{}", rows.join("\n")));
        }
    }
    assert!(
        failures.is_empty(),
        "reads off their pinned contract rows; observed:\n{}",
        failures.join("\n")
    );
}

/// `EXPLAIN` through `execute_sql` renders the plan step 3 runs — the
/// `Rewrite` node on top for a routed statement, under a budget too — and
/// the view-free plan of the same statement carries none.
#[test]
fn explain_shows_the_rewrite_and_the_view_free_plan_has_none() {
    for budget in [false, true] {
        let system = deployment(budget);
        for sql_text in [WORKLOAD_KEYED, WORKLOAD_UNKEYED, ADHOC_KEYED, ADHOC_UNKEYED] {
            let explained = system.execute_sql(&format!("EXPLAIN {sql_text}"), &[]).unwrap();
            let first = explained.rows[0].get("plan").unwrap().as_str().unwrap().to_string();
            assert!(
                first.starts_with("Rewrite [synergy-view-rewrite]"),
                "budget {budget}, `{sql_text}`: {first}"
            );
            let view_free = system.session().select_plan(sql_text, None, false).unwrap();
            assert!(
                !view_free.explain().contains("Rewrite") && !view_free.explain().contains("V_"),
                "budget {budget}, `{sql_text}`:\n{}",
                view_free.explain()
            );
        }
    }
}

/// The TPC-W customer subschema with two two-relation branches under
/// `Customer`, so one statement is routed to two views.
fn two_branch_schema() -> Schema {
    let relation = |name: &str, attributes: &[&str], key: &[&str]| {
        Relation::new(name)
            .attributes(attributes.iter().copied())
            .primary_key(key.iter().copied())
    };
    Schema::new()
        .with_relation(relation("Customer", &["c_id", "c_uname"], &["c_id"]).build())
        .with_relation(
            relation("Orders", &["o_id", "o_c_id"], &["o_id"])
                .foreign_key("o_c_id", "Customer", "c_id")
                .build(),
        )
        .with_relation(
            relation("Order_line", &["ol_o_id", "ol_id", "ol_qty"], &["ol_o_id", "ol_id"])
                .foreign_key("ol_o_id", "Orders", "o_id")
                .build(),
        )
        .with_relation(
            relation("Shopping_cart", &["sc_id", "sc_c_id"], &["sc_id"])
                .foreign_key("sc_c_id", "Customer", "c_id")
                .build(),
        )
        .with_relation(
            relation("Shopping_cart_line", &["scl_sc_id", "scl_id", "scl_qty"], &["scl_sc_id", "scl_id"])
                .foreign_key("scl_sc_id", "Shopping_cart", "sc_id")
                .build(),
        )
}

/// A statement over two views that keys only one of them is a bypass — and
/// when the keyed view comes first, step 2 has already made its key
/// resident and pinned it: the bypass must drop that pin and count once.
#[test]
fn a_bypass_at_the_second_view_releases_the_first_views_pin() {
    let two_views = |key_filter: &str| {
        parse_statement(&format!(
            "SELECT * FROM Customer AS c, Orders AS o, Order_line AS ol, \
             Shopping_cart AS sc, Shopping_cart_line AS scl \
             WHERE c.c_id = o.o_c_id AND o.o_id = ol.ol_o_id \
             AND c.c_id = sc.sc_c_id AND sc.sc_id = scl.scl_sc_id AND {key_filter}"
        ))
        .unwrap()
    };
    let keyed_on_order = two_views("ol.ol_o_id = ?");
    let keyed_on_cart = two_views("scl.scl_sc_id = ?");
    let int = |_: &str, _: &str| Some(ColumnType::Int);
    let config = SynergyConfig::new(
        two_branch_schema(),
        vec![keyed_on_order.clone()],
        vec!["Customer".to_string()],
        &int,
    )
    .with_view_budget(u64::MAX);
    let system = SynergySystem::build(Cluster::new(ClusterConfig::default()), config).unwrap();
    let load = |table: &str, row: Row| system.bulk_load(table, &[row]).unwrap();
    load("Customer", Row::new().with("c_id", 1).with("c_uname", 1));
    load("Orders", Row::new().with("o_id", 1).with("o_c_id", 1));
    load("Shopping_cart", Row::new().with("sc_id", 1).with("sc_c_id", 1));
    load("Order_line", Row::new().with("ol_o_id", 1).with("ol_id", 1).with("ol_qty", 2));
    load("Shopping_cart_line", Row::new().with("scl_sc_id", 1).with("scl_id", 1).with("scl_qty", 2));

    let residency = system.residency().unwrap().clone();
    let mut keys_made_resident = 0;
    for (statement, workload) in [(&keyed_on_order, true), (&keyed_on_cart, false)] {
        let rewritten = system.rewrite(statement);
        let from = &rewritten.as_select().unwrap().from;
        assert!(
            from.len() == 2 && from.iter().all(|t| t.table.starts_with("V_")),
            "workload {workload}: the statement reads two views: {rewritten}"
        );
        let before = residency.snapshot();
        let result = system.execute(statement, &[Value::Int(1)]).unwrap();
        let after = residency.snapshot();
        assert_eq!(result.len(), 1, "workload {workload}: the view-free plan answers");
        assert_eq!(after.bypasses - before.bypasses, 1, "workload {workload}: counted once");
        assert_eq!(residency.pins_held(), 0, "workload {workload}: the bypass leaks a pin");
        keys_made_resident += after.resident_keys - before.resident_keys;
    }
    // Exactly one of the two statements keys the view step 2 meets first.
    assert_eq!(keys_made_resident, 1, "no statement was admitted to its first view");
}
