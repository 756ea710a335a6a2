//! The [`Executor`]: configuration and one-shot entry points of the query
//! pipeline.
//!
//! Statement evaluation is an explicit four-phase pipeline:
//!
//! 1. **parse** — SQL text → [`sql::Statement`] ([`sql::parse_statement`]);
//! 2. **bind** — names resolved against the [`Catalog`] to interned
//!    [`Symbol`](relational::Symbol)s, parameters left as slots, a column
//!    no FROM entry declares refused (`crate::bind`);
//! 3. **plan** — rule passes decide predicate placement, access paths,
//!    join order, pushdowns and operator parallelism, each written once onto
//!    the node of the plan tree it concerns (`crate::optimize`,
//!    `crate::plan`), giving the compiled, cacheable [`PhysicalPlan`];
//! 4. **execute** — the executor walks that tree, opening each node as a
//!    pull-based `RowStream` operator that reads its decisions off the node
//!    (`crate::physical`); `EXPLAIN` renders the same tree.
//!
//! [`Executor::execute_sql`] is the thin one-shot wrapper that runs all four
//! phases per call.  [`crate::Session`] amortizes phases 1–3 across
//! executions through its plan cache and prepared statements.
//!
//! The executor mirrors how Phoenix evaluates SQL over HBase: single-table
//! predicates become Gets or range Scans (using covered indexes when one
//! matches), while joins are executed client-side by scanning each
//! participating table and hash-joining the streams.  Every operation's cost
//! is charged through the cluster, and intermediate join rows additionally
//! pay the shuffle/probe costs of [`simclock::CostModel`] — the data-transfer
//! latency the paper identifies as the reason joins are slow in a NoSQL
//! store (§III).

use crate::catalog::{Catalog, TableDef, FAMILY};
use crate::optimize;
use crate::physical::PhysicalPlan;
use crate::result::{QueryError, QueryResult};
use nosql_store::ops::{Get, Scan};
use nosql_store::{Cluster, Name, ParScanCursor, ResultRow};
use relational::{Row, Value, KEY_DELIMITER};
use sql::{SelectStatement, Statement};
use std::sync::{Arc, OnceLock};

/// Reserved column marking a row as dirty during a Synergy view update.
pub const DIRTY_MARKER: &str = "_dirty";

/// Maximum number of times a statement is restarted after observing dirty
/// rows before it fails with [`QueryError::DirtyReadRetriesExhausted`]
/// (Synergy's read path catches that and degrades to the view-free plan).
/// Restarts are cheap (the marked window is a handful of store operations),
/// so the limit is generous; it exists only to turn a livelock — a
/// permanently dirty view left by a crashed transaction — into an error.
pub const DIRTY_RETRY_LIMIT: usize = 4_096;

/// How a single table reference will be accessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Point Get by full primary key.
    KeyGet,
    /// Range scan on a prefix of the row key.
    KeyPrefixScan,
    /// Prefix scan of a covered index table.
    IndexScan {
        /// Name of the index table used.
        index: String,
    },
    /// Bounded scan on the leading key attribute: the alias carries both a
    /// lower (`>` / `>=`) and an upper (`<` / `<=`) filter on `key[0]`, so
    /// the store walk can be clamped to `[lo, hi]` when the encoded bounds
    /// are order-safe (see `physical::range_scan_bounds`); otherwise the
    /// operator degrades to a full walk and the ordinary single-alias
    /// stream filters keep the result exact.  This is the access path of
    /// Synergy upqueries, whose defining plans are parameterized on the
    /// missing view-key range.
    KeyRangeScan,
    /// Full table scan.
    FullScan,
}

/// The label a plan tree renders for the path (`access=…`, `probe(T)=…`).
impl std::fmt::Display for AccessPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessPath::KeyGet => f.write_str("get"),
            AccessPath::KeyPrefixScan => f.write_str("key-prefix"),
            AccessPath::KeyRangeScan => f.write_str("key-range"),
            AccessPath::IndexScan { index } => write!(f, "index:{index}"),
            AccessPath::FullScan => f.write_str("full"),
        }
    }
}

/// What a caller of [`Executor::open_rows`] decides per open beyond the
/// access path.  The default is the path's whole range, every column, on
/// the serial cursor.
#[derive(Debug, Default)]
pub(crate) struct ScanShape {
    /// `(family, qualifier)` projection pushed into the store scan (empty =
    /// all columns; see [`Executor::scan_projection`]).
    pub columns: Vec<(String, String)>,
    /// Row limit pushed into the store scan (0 = none).
    pub limit: usize,
    /// `[start, stop)` key bounds of an [`AccessPath::KeyRangeScan`]; `None`
    /// degrades it to the full walk.
    pub range: Option<(String, String)>,
    /// Modelled region-parallel scan workers (0 or 1 = the serial cursor).
    pub width: usize,
}

/// The stored rows one access path yields, in key order.  A failed store
/// operation travels in-band: the rows before it, then the error once, then
/// the end — a consumer cannot mistake a failure for the end of the range.
pub(crate) enum StoredRows {
    /// The at most one row of a point Get, already fetched.
    Point(Option<ResultRow>),
    /// A (possibly region-parallel) scan cursor, pulled page by page.
    Scan(ParScanCursor),
}

impl Iterator for StoredRows {
    type Item = Result<ResultRow, QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            StoredRows::Point(row) => row.take().map(Ok),
            StoredRows::Scan(cursor) => cursor.try_next().map_err(QueryError::from).transpose(),
        }
    }
}

/// True if a stored row carries the dirty marker (see [`DIRTY_MARKER`]).
/// Every scanned row is probed, so the marker column is addressed by its
/// interned names: pointer compares per cell, no string compares.
pub(crate) fn stored_row_is_dirty(stored: &nosql_store::ResultRow) -> bool {
    let (family, marker) = dirty_marker_names();
    stored.value_interned(family, marker).is_some_and(|v| v == b"1")
}

/// [`FAMILY`] and [`DIRTY_MARKER`] as the store interned them, resolved
/// once: every scanned row is probed for the marker and every view update
/// writes it, so both sides address it by handle, not by string.
pub fn dirty_marker_names() -> (Name, Name) {
    static MARKER: OnceLock<(Name, Name)> = OnceLock::new();
    *MARKER.get_or_init(|| (FAMILY.into(), DIRTY_MARKER.into()))
}

/// Executes SQL statements against a [`Cluster`] using a [`Catalog`].
#[derive(Clone)]
pub struct Executor {
    cluster: Cluster,
    catalog: Arc<Catalog>,
    /// Modelled worker count for full scans, hash joins and top-k.  Read at
    /// plan time only: a compiled plan freezes the width.
    threads: usize,
}

impl Executor {
    /// Creates an executor over `cluster` with the given catalog, which is
    /// fixed for the executor's (and its clones') lifetime.
    pub fn new(cluster: Cluster, catalog: Catalog) -> Self {
        Executor {
            cluster,
            catalog: Arc::new(catalog),
            threads: 1,
        }
    }

    /// Models region-parallel execution with up to `threads` workers: full
    /// table scans run as [`Cluster::par_scan_stream`] sub-ranges charged
    /// as the slowest worker, equi-joins materialize their probe side and
    /// charge its largest chunk, and ORDER BY + LIMIT keeps one bounded heap
    /// per chunk.  The workers are a cost model: the statement still runs
    /// in order on the caller's thread, and spawns none.  `threads <= 1`
    /// keeps the serial pipeline byte-for-byte.  Set by `SynergyConfig::threads` (`fig_par`,
    /// `fig10 --threads`) and by the benchmark's `micro_scan`, which clones
    /// an executor at 2 for `q2_join_par2`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured degree of parallelism (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Parses and executes a SQL string: the one-shot path running all four
    /// pipeline phases per call.  Use [`crate::Session`] to amortize
    /// parse/bind/plan across executions.
    pub fn execute_sql(&self, sql_text: &str, params: &[Value]) -> Result<QueryResult, QueryError> {
        let stmt = sql::parse_statement(sql_text)
            .map_err(|e| QueryError::Unsupported(e.to_string()))?;
        self.execute(&stmt, params)
    }

    /// Executes a parsed statement with positional parameters.
    pub fn execute(&self, stmt: &Statement, params: &[Value]) -> Result<QueryResult, QueryError> {
        match stmt {
            Statement::Select(select) => {
                let plan = self.plan_select(select)?;
                self.execute_plan(&plan, params)
            }
            write => self.execute_write(crate::writes::bind_write(self.catalog(), write, params)?),
        }
    }

    /// Compiles one SELECT into a reusable [`PhysicalPlan`] at this
    /// executor's configuration (bind + optimize; no execution, no
    /// simulated cost).
    pub fn plan_select(&self, select: &SelectStatement) -> Result<PhysicalPlan, QueryError> {
        optimize::bind_and_plan(self, select, None)
    }

    /// Renders the stable plan tree for a statement (the `EXPLAIN` text).
    /// Write statements render as a single summary line.
    pub fn explain_statement(&self, stmt: &Statement) -> Result<String, QueryError> {
        match stmt {
            Statement::Select(select) => Ok(self.plan_select(select)?.explain()),
            Statement::Insert(i) => Ok(format!("Insert {}\n", i.table)),
            Statement::Update(u) => Ok(format!("Update {}\n", u.table)),
            Statement::Delete(d) => Ok(format!("Delete {}\n", d.table)),
        }
    }

    /// The one stored-row reader above the store: every plan source, delta
    /// probe and whole-table read opens its rows here, and nothing else in
    /// the layers above the store opens a scan.  Follows `path` on `def`
    /// under the equality values `eq`; `index` is the index table's
    /// definition when the path is an index scan.  A point Get is fetched
    /// (and charged) now, a scan as its stream is pulled.
    ///
    /// The key-prefix rule lives here: a prefix or index scan binds as many
    /// leading key components as `eq` covers and closes the last bound one
    /// with [`KEY_DELIMITER`], so that `42` does not also match keys
    /// starting with `420`.
    pub(crate) fn open_rows(
        &self,
        def: &TableDef,
        path: &AccessPath,
        index: Option<&TableDef>,
        eq: &Row,
        shape: ScanShape,
    ) -> Result<StoredRows, QueryError> {
        let prefix_scan = |keyed: &TableDef| {
            let n_bound = keyed.key.iter().take_while(|k| eq.contains(k)).count();
            let mut prefix = keyed.encode_key_prefix(eq, n_bound);
            if n_bound < keyed.key.len() {
                prefix.push(KEY_DELIMITER);
            }
            Scan::prefix(prefix)
        };
        let (table, scan) = match path {
            AccessPath::KeyGet => {
                let key = def.encode_row_key(eq);
                return Ok(StoredRows::Point(self.cluster.get(&def.name, Get::new(key))?));
            }
            AccessPath::KeyPrefixScan => (def, prefix_scan(def)),
            AccessPath::IndexScan { index: name } => {
                let index = index.ok_or_else(|| QueryError::UnknownTable(name.clone()))?;
                (index, prefix_scan(index))
            }
            AccessPath::KeyRangeScan | AccessPath::FullScan => match shape.range {
                Some((start, stop)) => (def, Scan::range(start, stop)),
                None => (def, Scan::all()),
            },
        };
        let scan = scan.with_limit(shape.limit).with_columns(shape.columns);
        let cursor = self.cluster.par_scan_stream(&table.name, scan, shape.width)?;
        Ok(StoredRows::Scan(cursor))
    }

    /// Reads and decodes every row of the table `def`, region-parallel scan
    /// at this executor's width.  Fails if any page does —
    /// the whole-table read behind Synergy's view recomputation, which must
    /// never materialize a prefix of a relation as if it were the relation.
    pub fn read_table(&self, def: &TableDef) -> Result<Vec<Row>, QueryError> {
        let shape = ScanShape {
            width: self.threads,
            ..ScanShape::default()
        };
        let rows = self.open_rows(def, &AccessPath::FullScan, None, &Row::new(), shape)?;
        rows.map(|stored| Ok(def.decode_row(&stored?))).collect()
    }

    /// Pushes the statement's column projection into the store scan: only
    /// the masked-in columns, the key columns (never null, so a projected
    /// row is never empty at the store) and the dirty marker are streamed
    /// back.  Empty = no projection (all columns).
    pub(crate) fn scan_projection(
        &self,
        def: &TableDef,
        mask: Option<&[bool]>,
    ) -> Vec<(String, String)> {
        let Some(mask) = mask else {
            return Vec::new();
        };
        let mut columns: Vec<(String, String)> = Vec::new();
        for (i, (name, _)) in def.columns.iter().enumerate() {
            if mask[i] || def.key.iter().any(|k| k == name) {
                columns.push((FAMILY.to_string(), name.clone()));
            }
        }
        columns.push((FAMILY.to_string(), DIRTY_MARKER.to_string()));
        columns
    }
}
