//! Quickstart: the paper's running Company example, end to end.
//!
//! Builds the Company schema of Figure 2, runs the candidate-view generation
//! mechanism (§V) with roots {Address, Department}, selects views for the
//! three-query workload (§VI), prints the rooted trees / selected views /
//! rewritten queries, then stands up the full Synergy system on the
//! simulated NoSQL cluster and executes a few statements.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use nosql_store::{Cluster, ClusterConfig};
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = company::company_schema();
    let workload_sql = company::company_workload_sql();
    let workload = parse_workload(workload_sql.iter().map(String::as_str))?;

    println!("== Synergy quickstart: the Company database ==\n");
    println!("workload:");
    for (i, sql) in workload_sql.iter().enumerate() {
        println!("  W{}: {sql}", i + 1);
    }

    // Offline pipeline: candidate views → selection → rewriting → tables.
    let cluster = Cluster::new(ClusterConfig::default());
    let system = SynergySystem::build(
        cluster,
        SynergyConfig::new(
            schema,
            workload.clone(),
            company::company_roots(),
            &company_types,
        ),
    )?;

    println!("\nrooted trees (Figure 4b):");
    for tree in &system.candidates().trees {
        println!("  root {}:", tree.root);
        for edge in &tree.edges {
            println!("    {} -> {}  {}", edge.from, edge.to, edge.label());
        }
    }

    println!("\nselected views (§VI-A):");
    for view in &system.selection().views {
        println!("  {}  (stored as {})", view.display_name(), view.table_name());
    }
    println!("\nview-indexes (§VI-C / §VII-C):");
    for index in &system.selection().view_indexes {
        println!(
            "  {} on {:?}{}",
            index.name,
            index.indexed_on,
            if index.for_maintenance { "  [maintenance]" } else { "" }
        );
    }

    println!("\nrewritten workload (§VI-B):");
    for statement in &workload {
        println!("  {}", system.rewrite(statement));
    }

    // Load a tiny database and run the workload.
    system.bulk_load(
        "Address",
        &(1..=3i64)
            .map(|aid| {
                Row::new()
                    .with("AID", aid)
                    .with("Street", format!("{aid} Main St"))
                    .with("City", "Nashville")
                    .with("Zip", 37200 + aid)
            })
            .collect::<Vec<_>>(),
    )?;
    system.bulk_load(
        "Department",
        &[Row::new().with("DNo", 1).with("DName", "Research")],
    )?;
    system.bulk_load(
        "Employee",
        &(1..=3i64)
            .map(|eid| {
                Row::new()
                    .with("EID", eid)
                    .with("EName", format!("Employee{eid}"))
                    .with("EHome_AID", eid)
                    .with("EOffice_AID", 1)
                    .with("E_DNo", 1)
            })
            .collect::<Vec<_>>(),
    )?;
    system.bulk_load(
        "Works_On",
        &[
            Row::new().with("WO_EID", 1).with("WO_PNo", 1).with("Hours", 12),
            Row::new().with("WO_EID", 2).with("WO_PNo", 1).with("Hours", 40),
        ],
    )?;
    system.bulk_load(
        "Project",
        &[Row::new().with("PNo", 1).with("PName", "Synergy").with("P_DNo", 1)],
    )?;
    system.materialize_views()?;

    println!("\nW1 (employee home address) for EID = 2:");
    let result = system.execute(&workload[0], &[Value::Int(2)])?;
    for row in &result.rows {
        println!("  {row}");
    }

    println!("\nEXPLAIN W1 (the plan that read ran: the §VI-B rewrite is a planner rule):");
    for row in &system.execute_sql(&format!("EXPLAIN {}", workload[0]), &[])?.rows {
        println!("  {}", row.get("plan").and_then(Value::as_str).unwrap_or_default());
    }

    println!("\ninserting a Works_On row through the single-lock transaction layer ...");
    let insert =
        sql::parse_statement("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)")?;
    let plan = system.plan_write(&insert)?;
    println!("  plan: lock root = {:?}, affected views = {:?}", plan.lock_root, plan.affected_views);
    system.execute(&insert, &[Value::Int(3), Value::Int(1), Value::Int(25)])?;

    println!("\nW3 (employees working 25 hours):");
    let result = system.execute(&workload[2], &[Value::Int(25)])?;
    for row in &result.rows {
        println!("  {row}");
    }

    println!(
        "\ndatabase size: {} bytes across {} tables; total simulated time charged: {}",
        system.database_size_bytes(),
        system.cluster().list_tables().len(),
        system.cluster().clock().now().as_nanos() as f64 / 1e6
    );
    Ok(())
}
