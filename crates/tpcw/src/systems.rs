//! Harnesses for the five evaluated systems (paper §IX-D2 and Figure 13).
//!
//! | System   | Materialized-view selection      | Concurrency control            |
//! |----------|----------------------------------|--------------------------------|
//! | VoltDB   | none                             | single-threaded partitions     |
//! | Synergy  | schema-aware, workload-driven    | hierarchical single lock       |
//! | MVCC-A   | Synergy's views                  | MVCC (Tephra-like)             |
//! | MVCC-UA  | schema-oblivious advisor views   | MVCC (Tephra-like)             |
//! | Baseline | none                             | MVCC (Tephra-like)             |
//!
//! Every system loads the same [`TpcwDataset`] and measures each statement's
//! response time on its own simulated clock, mirroring how the paper
//! measures request response time at the client.

use crate::datagen::TpcwDataset;
use crate::schema::{tpcw_roots, tpcw_schema, tpcw_types};
use crate::writes::full_workload;
use mvcc::TransactionManager;
use newsql::{NewSqlEngine, PartitionScheme, TableDistribution};
use nosql_store::{Cluster, ClusterConfig};
use relational::{Schema, SchemaGraph, Value};
use simclock::{CostModel, SimClock, SimDuration};
use sql::Statement;
use synergy::advisor::{advise_views, TableStatistics};
use synergy::{CandidateViews, RootedTree, SynergyConfig, SynergySystem};

/// The five evaluated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// VoltDB-class NewSQL engine.
    VoltDb,
    /// The Synergy system (this paper's contribution).
    Synergy,
    /// Synergy's views with MVCC concurrency control instead of locks.
    MvccA,
    /// Advisor (schema-oblivious) views with MVCC concurrency control.
    MvccUa,
    /// Base tables only, MVCC concurrency control.
    Baseline,
}

impl SystemKind {
    /// All five systems, in the order the paper's figures list them.
    pub fn all() -> [SystemKind; 5] {
        [
            SystemKind::VoltDb,
            SystemKind::Synergy,
            SystemKind::MvccA,
            SystemKind::MvccUa,
            SystemKind::Baseline,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::VoltDb => "VoltDB",
            SystemKind::Synergy => "Synergy",
            SystemKind::MvccA => "MVCC-A",
            SystemKind::MvccUa => "MVCC-UA",
            SystemKind::Baseline => "Baseline",
        }
    }

    /// The view-selection mechanism row of the paper's Figure 13.
    pub fn view_mechanism(&self) -> &'static str {
        match self {
            SystemKind::VoltDb | SystemKind::Baseline => "None",
            SystemKind::Synergy | SystemKind::MvccA => "Schema relationships aware",
            SystemKind::MvccUa => "Schema relationships un-aware",
        }
    }

    /// The concurrency-control mechanism row of the paper's Figure 13.
    pub fn concurrency_mechanism(&self) -> &'static str {
        match self {
            SystemKind::VoltDb => "Single threaded partition processing",
            SystemKind::Synergy => "Hierarchical locking",
            SystemKind::MvccA | SystemKind::MvccUa | SystemKind::Baseline => "MVCC",
        }
    }
}

/// The outcome of executing one statement on one system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Number of result rows (0 for writes).
    pub rows: usize,
    /// Simulated response time.
    pub elapsed: SimDuration,
}

/// A system stood up over the TPC-W dataset, ready to execute statements.
pub trait EvaluatedSystem: Send + Sync {
    /// Which of the five systems this is.
    fn kind(&self) -> SystemKind;

    /// Display name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Executes one statement and reports its simulated response time.
    /// `Err` means the system cannot execute the statement (e.g. a join not
    /// supported by VoltDB's partitioning).
    fn execute(&self, statement: &Statement, params: &[Value]) -> Result<ExecOutcome, String>;

    /// Total stored bytes (the paper's Table III).
    fn database_size_bytes(&self) -> u64;
}

/// Builds one of the five systems over a dataset.
pub fn build_system(kind: SystemKind, dataset: &TpcwDataset) -> Box<dyn EvaluatedSystem> {
    match kind {
        SystemKind::VoltDb => Box::new(VoltDbSystem::build(dataset)),
        other => Box::new(HBaseSystem::build(other, dataset)),
    }
}

// ---------------------------------------------------------------------
// HBase-backed systems (Synergy, MVCC-A, MVCC-UA, Baseline)
// ---------------------------------------------------------------------

/// Synergy, MVCC-A, MVCC-UA and Baseline: all run over the NoSQL cluster,
/// differing only in which views exist and which concurrency control wraps
/// each statement.
pub struct HBaseSystem {
    kind: SystemKind,
    system: SynergySystem,
    mvcc: Option<TransactionManager>,
}

impl HBaseSystem {
    /// Builds and populates the system.
    pub fn build(kind: SystemKind, dataset: &TpcwDataset) -> HBaseSystem {
        assert_ne!(kind, SystemKind::VoltDb);
        let schema = tpcw_schema();
        let workload = full_workload();
        let cluster = Cluster::new(ClusterConfig::default());

        let config = match kind {
            SystemKind::Synergy => {
                SynergyConfig::new(schema.clone(), workload, tpcw_roots(), &tpcw_types)
            }
            SystemKind::MvccA => {
                SynergyConfig::new(schema.clone(), workload, tpcw_roots(), &tpcw_types)
                    .without_hierarchical_locking()
            }
            SystemKind::MvccUa => {
                let candidates = advisor_candidates(&schema, &full_workload(), dataset);
                SynergyConfig::new(schema.clone(), workload, Vec::new(), &tpcw_types)
                    .with_candidate_override(candidates)
                    .without_hierarchical_locking()
            }
            SystemKind::Baseline => {
                SynergyConfig::new(schema.clone(), workload, Vec::new(), &tpcw_types)
                    .with_candidate_override(empty_candidates(&schema))
                    .without_hierarchical_locking()
            }
            SystemKind::VoltDb => unreachable!(),
        };

        let system = SynergySystem::build(cluster, config).expect("system builds");
        for table in TpcwDataset::load_order() {
            system
                .bulk_load(table, dataset.rows(table))
                .expect("dataset loads");
        }
        system.materialize_views().expect("views materialize");
        system.cluster().major_compact_all();

        let mvcc = match kind {
            SystemKind::Synergy => None,
            _ => Some(TransactionManager::new(system.cluster().clone())),
        };
        HBaseSystem { kind, system, mvcc }
    }

    /// The underlying Synergy machinery (views, catalog, cluster).
    pub fn inner(&self) -> &SynergySystem {
        &self.system
    }
}

impl EvaluatedSystem for HBaseSystem {
    fn kind(&self) -> SystemKind {
        self.kind
    }

    fn execute(&self, statement: &Statement, params: &[Value]) -> Result<ExecOutcome, String> {
        let clock = self.system.cluster().clock().clone();
        let start = clock.now();
        let before = self.system.cluster().metrics().ops;
        let result = match &self.mvcc {
            None => self
                .system
                .execute(statement, params)
                .map_err(|e| e.to_string())?,
            Some(mvcc) => {
                // Every statement is its own MVCC transaction (Phoenix+Tephra).
                let mut tx = mvcc.begin();
                let result = self
                    .system
                    .execute(statement, params)
                    .map_err(|e| e.to_string())?;
                let delta = self.system.cluster().metrics().ops.delta_since(&before);
                mvcc.charge_version_filtering(delta.scanned_rows + delta.gets);
                if statement.is_write() {
                    let key = params
                        .first()
                        .map(|v| v.encode())
                        .unwrap_or_else(|| "?".to_string());
                    tx.record_write(statement.write_target().unwrap_or_default(), key);
                    mvcc.commit(tx).map_err(|e| e.to_string())?;
                } else {
                    // Read-only transactions skip conflict detection and the
                    // commit-record persistence: they only pay the begin
                    // round trip and per-cell version filtering.
                    mvcc.abort(tx);
                }
                result
            }
        };
        Ok(ExecOutcome {
            rows: result.len(),
            elapsed: clock.now() - start,
        })
    }

    fn database_size_bytes(&self) -> u64 {
        self.system.database_size_bytes()
    }
}

/// Candidate-view override for the Baseline system: no views at all.
fn empty_candidates(schema: &Schema) -> CandidateViews {
    CandidateViews {
        trees: Vec::new(),
        dag: SchemaGraph::from_schema(schema),
        unassigned: schema.relation_names(),
    }
}

/// Candidate-view override for MVCC-UA: the schema-oblivious advisor's
/// views, converted into degenerate rooted trees (one chain per view) so the
/// same selection/rewriting/maintenance machinery can host them.
///
/// Advisor views whose table set does not form a key/foreign-key chain
/// cannot be represented as a single NoSQL table keyed by one relation's
/// primary key and are skipped — the counterpart of the indexed-view
/// restrictions SQL Server's tuning advisor works under.
fn advisor_candidates(
    schema: &Schema,
    workload: &[Statement],
    dataset: &TpcwDataset,
) -> CandidateViews {
    let mut stats = TableStatistics::default();
    let mut total_bytes = 0u64;
    for (table, rows) in &dataset.tables {
        let avg = rows
            .iter()
            .take(64)
            .map(|r| r.byte_size() as u64)
            .sum::<u64>()
            / rows.len().clamp(1, 64) as u64;
        stats.set(table.clone(), rows.len() as u64, avg.max(1));
        total_bytes += rows.len() as u64 * avg.max(1);
    }
    // The advisor is run with a storage budget of 10% of the base database,
    // which reproduces the paper's outcome of MVCC-UA materializing only a
    // small number of views (its database is ~4% larger than Baseline in
    // Table III).
    let budget = total_bytes / 10;
    let advised = advise_views(workload, &stats, budget);

    let graph = SchemaGraph::from_schema(schema);
    let mut trees = Vec::new();
    for view in advised {
        if let Some(edges) = chain_edges(&graph, &view.tables) {
            trees.push(RootedTree {
                root: edges[0].from.clone(),
                edges,
            });
        }
    }
    CandidateViews {
        trees,
        dag: graph,
        unassigned: Vec::new(),
    }
}

/// Orders `tables` into a key/foreign-key chain if one exists, returning the
/// connecting edges.
fn chain_edges(
    graph: &SchemaGraph,
    tables: &[String],
) -> Option<Vec<relational::GraphEdge>> {
    // Topologically order the subset, then require an edge between every
    // consecutive pair.
    let sub_edges: Vec<relational::GraphEdge> = graph
        .edges()
        .iter()
        .filter(|e| tables.contains(&e.from) && tables.contains(&e.to))
        .cloned()
        .collect();
    let sub = SchemaGraph::from_parts(tables.to_vec(), sub_edges);
    let order = sub.topological_order()?;
    let mut edges = Vec::new();
    for pair in order.windows(2) {
        let edge = sub.edges_between(&pair[0], &pair[1]).first().cloned().cloned()?;
        edges.push(edge);
    }
    if edges.len() + 1 == tables.len() {
        Some(edges)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// VoltDB-class system
// ---------------------------------------------------------------------

/// The VoltDB comparison system: three partitioning schemes (the paper uses
/// three because no single scheme supports even half the TPC-W joins), each
/// backed by its own engine and clock.  Reads run on the first scheme that
/// supports them; writes run everywhere but are measured on the primary
/// scheme.
pub struct VoltDbSystem {
    engines: Vec<(NewSqlEngine, SimClock)>,
}

impl VoltDbSystem {
    /// The three partitioning schemes.
    pub fn schemes() -> Vec<PartitionScheme> {
        vec![
            // by customer
            PartitionScheme::default()
                .partitioned("Customer", "c_id")
                .partitioned("Orders", "o_c_id")
                .partitioned("Order_line", "ol_o_id")
                .partitioned("CC_Xacts", "cx_o_id")
                .partitioned("Item", "i_id")
                .partitioned("Address", "addr_id")
                .partitioned("Author", "a_id")
                .partitioned("Shopping_cart", "sc_id")
                .partitioned("Shopping_cart_line", "scl_sc_id")
                .replicated("Country"),
            // by item
            PartitionScheme::default()
                .partitioned("Item", "i_id")
                .partitioned("Order_line", "ol_i_id")
                .partitioned("Shopping_cart_line", "scl_i_id")
                .partitioned("Customer", "c_id")
                .partitioned("Orders", "o_id")
                .partitioned("Address", "addr_id")
                .partitioned("Author", "a_id")
                .partitioned("CC_Xacts", "cx_o_id")
                .partitioned("Shopping_cart", "sc_id")
                .replicated("Country"),
            // by author
            PartitionScheme::default()
                .partitioned("Author", "a_id")
                .partitioned("Item", "i_a_id")
                .partitioned("Orders", "o_id")
                .partitioned("Order_line", "ol_o_id")
                .partitioned("Customer", "c_id")
                .partitioned("Address", "addr_id")
                .partitioned("CC_Xacts", "cx_o_id")
                .partitioned("Shopping_cart", "sc_id")
                .partitioned("Shopping_cart_line", "scl_sc_id")
                .replicated("Country"),
        ]
    }

    /// Builds and populates the three engines (five partitions each, like the
    /// paper's five-node VoltDB cluster).
    pub fn build(dataset: &TpcwDataset) -> VoltDbSystem {
        let schema = tpcw_schema();
        let mut engines = Vec::new();
        for scheme in Self::schemes() {
            let clock = SimClock::new();
            let engine = NewSqlEngine::new(5, clock.clone(), CostModel::default());
            for relation in &schema.relations {
                let distribution = scheme
                    .tables
                    .get(&relation.name)
                    .cloned()
                    .unwrap_or(TableDistribution::Replicated);
                engine.create_table(&relation.name, relation.primary_key.clone(), distribution);
            }
            for table in TpcwDataset::load_order() {
                engine
                    .load_rows(table, dataset.rows(table))
                    .expect("dataset loads into VoltDB engine");
            }
            engines.push((engine, clock));
        }
        VoltDbSystem { engines }
    }
}

impl EvaluatedSystem for VoltDbSystem {
    fn kind(&self) -> SystemKind {
        SystemKind::VoltDb
    }

    fn execute(&self, statement: &Statement, params: &[Value]) -> Result<ExecOutcome, String> {
        match statement {
            Statement::Select(select) => {
                for (engine, clock) in &self.engines {
                    if engine.check_join_supported(select).is_ok() {
                        let start = clock.now();
                        let rows = engine.execute(statement, params).map_err(|e| e.to_string())?;
                        return Ok(ExecOutcome {
                            rows: rows.len(),
                            elapsed: clock.now() - start,
                        });
                    }
                }
                Err("join not supported under any partitioning scheme".to_string())
            }
            _ => {
                // Writes keep every scheme consistent; response time is the
                // primary scheme's.
                let (_, primary_clock) = &self.engines[0];
                let start = primary_clock.now();
                let mut outcome = None;
                for (engine, _) in &self.engines {
                    let rows = engine.execute(statement, params).map_err(|e| e.to_string())?;
                    outcome.get_or_insert(rows.len());
                }
                Ok(ExecOutcome {
                    rows: 0,
                    elapsed: primary_clock.now() - start,
                })
            }
        }
    }

    fn database_size_bytes(&self) -> u64 {
        self.engines[0].0.database_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::TpcwScale;
    use crate::queries::join_queries;
    use crate::writes::write_statements;

    fn small_dataset() -> TpcwDataset {
        TpcwDataset::generate(TpcwScale::new(40))
    }

    #[test]
    fn synergy_selects_views_for_the_tpcw_workload() {
        let dataset = small_dataset();
        let system = HBaseSystem::build(SystemKind::Synergy, &dataset);
        let views: Vec<String> = system
            .inner()
            .selection()
            .views
            .iter()
            .map(|v| v.display_name())
            .collect();
        assert!(!views.is_empty(), "Synergy must select views, got {views:?}");
        // The Customer-Orders join (Q2) and Author-Item join (Q4/Q5/Q6) are
        // prime candidates and must be materialized.
        assert!(views.iter().any(|v| v.contains("Customer") && v.contains("Orders")));
        assert!(views.iter().any(|v| v.contains("Author") && v.contains("Item")));
    }

    #[test]
    fn baseline_has_no_views_and_mvcc_ua_has_few() {
        let dataset = small_dataset();
        let baseline = HBaseSystem::build(SystemKind::Baseline, &dataset);
        assert!(baseline.inner().selection().views.is_empty());
        let ua = HBaseSystem::build(SystemKind::MvccUa, &dataset);
        let synergy = HBaseSystem::build(SystemKind::Synergy, &dataset);
        assert!(
            ua.inner().selection().views.len() < synergy.inner().selection().views.len(),
            "the schema-oblivious advisor must select fewer views than Synergy"
        );
    }

    #[test]
    fn voltdb_rejects_exactly_the_paper_unsupported_queries() {
        let dataset = small_dataset();
        let voltdb = VoltDbSystem::build(&dataset);
        let scale = TpcwScale::new(dataset.customers);
        for query in join_queries() {
            let outcome = voltdb.execute(&query.statement(), &query.params(scale, 1));
            assert_eq!(
                outcome.is_ok(),
                query.supported_on_voltdb,
                "{} support mismatch: {outcome:?}",
                query.id
            );
        }
    }

    #[test]
    fn every_join_query_runs_on_every_hbase_system() {
        let dataset = small_dataset();
        let scale = TpcwScale::new(dataset.customers);
        for kind in [SystemKind::Synergy, SystemKind::Baseline] {
            let system = build_system(kind, &dataset);
            for query in join_queries() {
                let outcome = system
                    .execute(&query.statement(), &query.params(scale, 1))
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", query.id, system.name()));
                assert!(outcome.elapsed > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn every_write_statement_runs_on_every_system() {
        let dataset = small_dataset();
        let scale = TpcwScale::new(dataset.customers);
        for kind in SystemKind::all() {
            let system = build_system(kind, &dataset);
            for write in write_statements() {
                system
                    .execute(&write.statement(), &write.params(scale, 0))
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", write.id, system.name()));
            }
        }
    }

    #[test]
    fn synergy_joins_are_faster_and_writes_cheaper_than_baseline() {
        let dataset = small_dataset();
        let scale = TpcwScale::new(dataset.customers);
        let synergy = build_system(SystemKind::Synergy, &dataset);
        let baseline = build_system(SystemKind::Baseline, &dataset);

        // Q2 (customer's latest order) exercises a materialized view.
        let q2 = &join_queries()[1];
        let s = synergy.execute(&q2.statement(), &q2.params(scale, 1)).unwrap();
        let b = baseline.execute(&q2.statement(), &q2.params(scale, 1)).unwrap();
        assert!(
            s.elapsed < b.elapsed,
            "Synergy {} vs Baseline {}",
            s.elapsed,
            b.elapsed
        );

        // W13 (update customer): Synergy pays lock + view maintenance, the
        // Baseline pays the MVCC overhead — MVCC dominates.
        let w13 = &write_statements()[12];
        let s = synergy.execute(&w13.statement(), &w13.params(scale, 1)).unwrap();
        let b = baseline.execute(&w13.statement(), &w13.params(scale, 1)).unwrap();
        assert!(
            s.elapsed < b.elapsed,
            "Synergy {} vs Baseline {}",
            s.elapsed,
            b.elapsed
        );
    }

    #[test]
    fn database_sizes_follow_table_iii_ordering() {
        let dataset = small_dataset();
        let synergy = build_system(SystemKind::Synergy, &dataset);
        let baseline = build_system(SystemKind::Baseline, &dataset);
        let voltdb = build_system(SystemKind::VoltDb, &dataset);
        let ua = build_system(SystemKind::MvccUa, &dataset);
        assert!(synergy.database_size_bytes() > baseline.database_size_bytes());
        assert!(baseline.database_size_bytes() > voltdb.database_size_bytes());
        assert!(ua.database_size_bytes() >= baseline.database_size_bytes());
        assert!(synergy.database_size_bytes() > ua.database_size_bytes());
    }

    #[test]
    fn figure_13_mechanism_matrix() {
        assert_eq!(SystemKind::Synergy.concurrency_mechanism(), "Hierarchical locking");
        assert_eq!(SystemKind::MvccUa.view_mechanism(), "Schema relationships un-aware");
        assert_eq!(SystemKind::VoltDb.view_mechanism(), "None");
        assert_eq!(SystemKind::Baseline.concurrency_mechanism(), "MVCC");
        assert_eq!(SystemKind::all().len(), 5);
    }
}
