//! Phase 4 of the query pipeline: the **physical plan** and its execution.
//!
//! A [`PhysicalPlan`] is the compiled, cacheable form of one SELECT: every
//! name resolved to interned [`Symbol`]s, every planning decision (access
//! paths, join order, pushdowns, serial-vs-partitioned operators) frozen,
//! and parameters left as slots.  Executing it
//! ([`Executor::execute_plan`]) substitutes fresh parameter values into the
//! condition templates and drives the same pull-based [`RowStream`]
//! operator pipeline the executor has always used: scan → projected decode
//! → filter → hash joins (build side materialized, probe side streamed) →
//! residual filter → aggregate / top-k / take → project.
//!
//! Because the plan only freezes decisions the pre-planner executor made
//! deterministically per statement, executing a plan charges **exactly**
//! the simulated costs of the old single-shot path — pinned by the
//! committed `BENCH_report.json` sim figures.

use crate::bind::{
    eq_filter_row, range_filter_bounds, BoundCondition, BoundOperand, PlannedCondition,
    PlannedOperand,
};
use crate::catalog::TableDef;
use crate::executor::{
    par_batches, stored_row_is_dirty, AccessPath, Executor, ScanShape, StoredRows,
    DIRTY_RETRY_LIMIT,
};
use crate::plan::LogicalPlan;
use crate::result::{QueryError, QueryResult};
use crate::stream::{collect_stream, par_top_k, top_k, Residency, RowStream};
use nosql_store::ops::Get;
use relational::{encode_key, Row, Symbol, Value};
use sql::AggregateFunction;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap}; // lint-allow(determinism): join build tables below are probe-only

/// How the rows of one alias are decoded into relational rows: the output
/// symbols (qualified under the alias for multi-table statements) and the
/// projection mask, resolved once at plan time.
#[derive(Debug, Clone)]
pub(crate) struct DecodeSpec {
    /// Alias-qualified output symbols, indexed by the table's column order
    /// (`None` for single-table statements, which decode bare names).
    pub qual_syms: Option<Vec<Symbol>>,
    /// Projection mask over the table's columns (`None` = decode all).
    pub mask: Option<Vec<bool>>,
}

/// Access details for an [`AccessPath::IndexScan`] alias.
#[derive(Debug, Clone)]
pub(crate) struct IndexAccess {
    /// The index table's definition (shared with the catalog).
    pub def: std::sync::Arc<TableDef>,
    /// True when the index covers every needed column (no base-table
    /// lookups required).
    pub covered: bool,
    /// Decode spec against the index table (used when covered).
    pub decode: DecodeSpec,
}

/// Everything the physical phase needs to open one alias's row stream.
#[derive(Debug, Clone)]
pub(crate) struct AliasAccess {
    /// The chosen access path.
    pub path: AccessPath,
    /// Decode spec against the base table.
    pub decode: DecodeSpec,
    /// Present when `path` is an index scan.
    pub index: Option<IndexAccess>,
}

/// One hash-join step: which alias joins in, on which conditions, with the
/// join-key symbols pre-resolved for both sides.
#[derive(Debug, Clone)]
pub(crate) struct JoinStep {
    /// Index of the newly joined alias (the build side).
    pub alias: usize,
    /// Indices of the equi-join conditions this step enforces.
    pub cond_idxs: Vec<usize>,
    /// Join-key symbols on the probe (already-joined) side.
    pub left_syms: Vec<Symbol>,
    /// Join-key symbols on the build side (alias-qualified).
    pub right_syms: Vec<Symbol>,
    /// True when this join runs hash-partitioned across the pool.
    pub partitioned: bool,
}

/// One resolved select item of an aggregate/GROUP BY output row.
#[derive(Debug, Clone)]
pub(crate) enum ItemPlan {
    Aggregate {
        function: AggregateFunction,
        argument: Option<Symbol>,
        name: Symbol,
    },
    Column {
        lookup: Symbol,
        out: Symbol,
        alias: Option<Symbol>,
    },
    Wildcard,
}

/// The aggregate/GROUP BY sub-plan: grouping symbols (qualified + bare
/// output forms) and the resolved select items.
#[derive(Debug, Clone)]
pub(crate) struct GroupPlan {
    /// `(qualified, bare)` output symbols per GROUP BY column.
    pub group_syms: Vec<(Symbol, Symbol)>,
    /// Resolved select items.
    pub items: Vec<ItemPlan>,
}

/// The compiled form of one SELECT: bound, optimized, parameter slots open.
///
/// Built by the optimizer (see [`crate::Session`] and
/// [`Executor::plan_select`]), executed any number of times with fresh
/// positional parameters via [`Executor::execute_plan`], and rendered as a
/// stable plan tree via [`PhysicalPlan::explain`].
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// `(alias, table definition)` per FROM entry, statement order
    /// (definitions shared with the catalog the plan was compiled from).
    pub(crate) aliases: Vec<(String, std::sync::Arc<TableDef>)>,
    /// Resolved WHERE conjuncts with open parameter slots.
    pub(crate) conditions: Vec<PlannedCondition>,
    /// Per alias: indices of its single-alias filter conditions.
    pub(crate) single_alias: Vec<Vec<usize>>,
    /// Index of the starting (probe-side) alias.
    pub(crate) start: usize,
    /// Hash-join steps in execution order.
    pub(crate) join_steps: Vec<JoinStep>,
    /// Indices of residual conditions evaluated after all joins.
    pub(crate) residual: Vec<usize>,
    /// Per-alias access decisions (same order as `aliases`).
    pub(crate) access: Vec<AliasAccess>,
    /// Row limit pushed into the store scan (0 = none).
    pub(crate) store_limit: usize,
    /// True when a bare LIMIT stops pulling the pipeline early (which keeps
    /// the source and joins on the lazily-pulled serial operators).
    pub(crate) limit_stops_early: bool,
    /// The statement's `LIMIT k`, if any.
    pub(crate) limit: Option<usize>,
    /// The aggregate/GROUP BY sub-plan, when the statement aggregates.
    pub(crate) group: Option<GroupPlan>,
    /// Resolved ORDER BY keys (`(symbol, descending)`).
    pub(crate) order_keys: Vec<(Symbol, bool)>,
    /// Final projection as `(lookup, output)` symbol pairs (`None` =
    /// identity: wildcard or aggregate output).
    pub(crate) project: Option<Vec<(Symbol, Symbol)>>,
    /// Worker count the plan was compiled for (1 = serial pipeline).
    pub(crate) threads: usize,
    /// The logical plan this physical plan was compiled from (EXPLAIN).
    pub(crate) logical: LogicalPlan,
    /// Catalog version at plan time; plan caches treat a mismatch as stale.
    pub(crate) catalog_version: u64,
}

impl PhysicalPlan {
    /// Renders the stable, indented plan tree — the `EXPLAIN` text.
    pub fn explain(&self) -> String {
        self.logical.render()
    }

    /// The logical plan this physical plan was compiled from.
    pub fn logical(&self) -> &LogicalPlan {
        &self.logical
    }

    /// The catalog version this plan was compiled against.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// The worker count the plan was compiled for (1 = serial pipeline).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The table each FROM entry reads, in statement order (after any
    /// rewrite: a view-routed plan lists the view, not its relations).
    pub fn tables(&self) -> impl Iterator<Item = &std::sync::Arc<TableDef>> {
        self.aliases.iter().map(|(_, def)| def)
    }

    /// The value the `alias`-th FROM entry's equality filter on `column`
    /// compares against under `params` — the value that keys its Get or
    /// prefix scan (the last such filter wins, as in the access path).
    /// `None`: no such filter, or its parameter is not supplied.
    pub fn eq_binding(&self, alias: usize, column: &str, params: &[Value]) -> Option<Value> {
        let mut filters = self.single_alias[alias].iter().rev().map(|&i| &self.conditions[i]);
        let filter = filters.find(|c| c.op == sql::Comparison::Eq && c.left.column == column)?;
        match &filter.right {
            PlannedOperand::Literal(value) => Some(value.clone()),
            PlannedOperand::Param(i) => params.get(*i).cloned(),
            PlannedOperand::Column(..) => None,
        }
    }
}

/// Whether an alias stream feeds the pipeline (probe side) or a hash-join
/// build side — the two differ in limit pushdown and parallelism choices.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SourceRole {
    Start,
    Build,
}

/// A hash-join key; the single-condition case (all of TPC-W's joins)
/// carries the value inline instead of allocating a per-row vector.  Keys
/// own their values so the build map can outlive the probe stream's
/// borrows; TPC-W join keys are integers, so the clone is a copy.
#[derive(Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    One(Value),
    Many(Vec<Value>),
}

impl JoinKey {
    /// Extracts the join key of `row`; `None` if any key column is absent.
    fn of(row: &Row, syms: &[Symbol]) -> Option<JoinKey> {
        match syms {
            [sym] => row.get_interned(sym).cloned().map(JoinKey::One),
            _ => syms
                .iter()
                .map(|sym| row.get_interned(sym).cloned())
                .collect::<Option<Vec<Value>>>()
                .map(JoinKey::Many),
        }
    }
}

/// A borrowed decode context: the plan's decode spec applied to one table
/// definition (the executable form of [`DecodeSpec`]), plus whether stored
/// rows are checked for the dirty marker first.
#[derive(Clone, Copy)]
struct DecodeCtx<'a> {
    def: &'a TableDef,
    qual_syms: Option<&'a [Symbol]>,
    mask: Option<&'a [bool]>,
    dirty_protection: bool,
}

impl<'a> DecodeCtx<'a> {
    fn new(def: &'a TableDef, spec: &'a DecodeSpec, dirty_protection: bool) -> Self {
        DecodeCtx {
            def,
            qual_syms: spec.qual_syms.as_deref(),
            mask: spec.mask.as_deref(),
            dirty_protection,
        }
    }

    /// The one adaptor from stored row to relational row, for every scan
    /// stream and point Get of a plan: under dirty protection a row carrying
    /// the dirty marker surfaces as [`QueryError::DirtyRestart`], which
    /// restarts the whole statement (paper §VIII-C); any other row decodes.
    fn read(&self, stored: &nosql_store::ResultRow) -> Result<Row, QueryError> {
        if self.dirty_protection && stored_row_is_dirty(stored) {
            return Err(QueryError::DirtyRestart);
        }
        Ok(match self.qual_syms {
            Some(syms) => self.def.decode_row_qualified(stored, syms, self.mask),
            None => match self.mask {
                Some(mask) => self.def.decode_row_projected(stored, mask),
                None => self.def.decode_row(stored),
            },
        })
    }

    /// The serial scan source: each stored row through [`DecodeCtx::read`]
    /// as it is pulled, a failed page passed on in its place.
    fn stream(self, rows: StoredRows) -> RowStream<'a> {
        Box::new(rows.map(move |stored| self.read(&stored?)))
    }
}

impl Executor {
    /// Executes a compiled plan with positional parameters.  A statement
    /// whose streamed scans observe a dirty marker restarts (the
    /// read-committed protocol of paper §VIII-C), exactly as the one-shot
    /// path always has.
    pub fn execute_plan(
        &self,
        plan: &PhysicalPlan,
        params: &[Value],
    ) -> Result<QueryResult, QueryError> {
        let mut attempts = 0;
        loop {
            match self.run_plan(plan, params) {
                Err(QueryError::DirtyRestart) => {
                    attempts += 1;
                    if attempts > DIRTY_RETRY_LIMIT {
                        return Err(QueryError::DirtyReadRetriesExhausted);
                    }
                    // Give the in-flight update a chance to finish.
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    /// One execution attempt: bind parameters into the condition templates,
    /// then drive the operator pipeline the plan describes.
    fn run_plan(&self, plan: &PhysicalPlan, params: &[Value]) -> Result<QueryResult, QueryError> {
        let bound: Vec<BoundCondition> = plan
            .conditions
            .iter()
            .map(|c| c.bind(params))
            .collect::<Result<_, _>>()?;

        let meter = Residency::default();

        // Source: the start alias's scan/get stream.
        let mut stream = self.alias_stream(plan, plan.start, &bound, SourceRole::Start)?;

        // Hash joins: each step materializes its build side (the newly
        // joined alias) and streams the probe side through it.
        for step in &plan.join_steps {
            let right_stream = self.alias_stream(plan, step.alias, &bound, SourceRole::Build)?;
            let right_rows = collect_stream(right_stream, &meter)?;
            stream = if step.partitioned {
                self.par_hash_join(stream, right_rows, step, &meter, plan.threads)?
            } else {
                self.hash_join_stream(stream, right_rows, step)
            };
        }

        if !plan.residual.is_empty() {
            let residual: Vec<&BoundCondition> =
                plan.residual.iter().map(|&i| &bound[i]).collect();
            stream = Box::new(stream.filter(move |row| match row {
                Ok(row) => residual.iter().all(|c| evaluate_condition(row, c)),
                Err(_) => true,
            }));
        }

        let rows: Vec<Row> = if let Some(group) = &plan.group {
            // Aggregation needs the whole input; ORDER BY + LIMIT then act
            // on the (small) per-group output.
            let input = collect_stream(stream, &meter)?;
            let mut rows = apply_group_and_aggregates(group, input);
            if !plan.order_keys.is_empty() {
                let cmp = order_comparator(&plan.order_keys);
                rows.sort_by(|a, b| cmp(a, b));
            }
            if let Some(limit) = plan.limit {
                rows.truncate(limit);
            }
            rows
        } else if !plan.order_keys.is_empty() {
            let cmp = order_comparator(&plan.order_keys);
            match plan.limit {
                // Per-worker bounded heaps merged at the barrier: each
                // worker selects its chunk's k best, the merge re-selects
                // over the ≤ threads·k survivors.  The width is the plan's
                // frozen decision, so execution always matches what the
                // rendered plan tree documents.
                Some(limit) if plan.threads > 1 => {
                    par_top_k(stream, limit, cmp, &meter, plan.threads)?
                }
                // Bounded top-k heap: k rows resident instead of the full
                // input.
                Some(limit) => top_k(stream, limit, cmp, &meter)?,
                None => {
                    let mut rows = collect_stream(stream, &meter)?;
                    rows.sort_by(|a, b| cmp(a, b));
                    rows
                }
            }
        } else if let Some(limit) = plan.limit {
            // Plain LIMIT: stop pulling the pipeline after `limit` rows.
            // The bound is checked *before* each pull — pulling one row past
            // the limit could fetch (and charge) a whole extra store page.
            let mut rows = Vec::with_capacity(limit.min(1_024));
            while rows.len() < limit {
                let Some(row) = stream.next() else { break };
                rows.push(row?);
                meter.add(1);
            }
            rows
        } else {
            collect_stream(stream, &meter)?
        };

        let rows = project_rows(&plan.project, rows);
        self.cluster()
            .clock()
            .charge(self.cluster().cost_model().client_result_cost(rows.len() as u64));
        Ok(QueryResult::with_rows(rows).with_peak_rows_resident(meter.peak()))
    }

    /// Opens the stream of one alias's rows following the plan's access
    /// decision: the stored rows [`Executor::open_rows`] yields for the path,
    /// mapped through dirty detection and projected decode, filtered by the
    /// alias's single-alias conditions.
    ///
    /// A dirty marker observed anywhere in the stream surfaces as
    /// [`QueryError::DirtyRestart`], which restarts the whole statement; a
    /// failed store operation surfaces as [`QueryError::Store`], which fails
    /// it.  The plan's store-level limit applies only to the start alias; a
    /// bare LIMIT downstream keeps the start source on the serial cursor
    /// (the batch-eager parallel source would forfeit early termination),
    /// while build sides are always fully drained and may parallelize freely.
    fn alias_stream<'a>(
        &'a self,
        plan: &'a PhysicalPlan,
        ai: usize,
        bound: &[BoundCondition],
        role: SourceRole,
    ) -> Result<RowStream<'a>, QueryError> {
        let (_, def) = &plan.aliases[ai];
        let access = &plan.access[ai];
        let eq = eq_filter_row(&plan.conditions, bound, &plan.single_alias[ai]);
        let (store_limit, prefer_serial) = match role {
            SourceRole::Start => (plan.store_limit, plan.limit_stops_early),
            SourceRole::Build => (0, false),
        };
        let ctx = DecodeCtx::new(def, &access.decode, self.dirty_protection());
        let index = access.index.as_ref();
        let open = |shape| self.open_rows(def, &access.path, index.map(|i| &*i.def), &eq, shape);
        // The rows of `ctx`'s table, projected onto what `ctx` decodes.
        let projected = |ctx: &DecodeCtx| ScanShape {
            columns: self.scan_projection(ctx.def, ctx.mask),
            ..ScanShape::default()
        };

        let base: RowStream<'a> = match (&access.path, index) {
            (AccessPath::KeyGet, _) => {
                // Eager: a dirty row restarts the statement before any other
                // alias is opened (and charged).
                let stored = open(ScanShape::default())?.next().transpose()?;
                let row = stored.map(|stored| ctx.read(&stored)).transpose()?;
                Box::new(row.into_iter().map(Ok))
            }
            (AccessPath::IndexScan { .. }, Some(index)) if index.covered => {
                let index_ctx = DecodeCtx::new(&index.def, &index.decode, ctx.dirty_protection);
                index_ctx.stream(open(projected(&index_ctx))?)
            }
            (AccessPath::IndexScan { .. }, Some(index)) => {
                // Stream the index entries and look up each base row by
                // primary key as it is pulled; the index row is decoded
                // bare (it only feeds key encoding).
                let index_ctx = DecodeCtx {
                    def: &index.def,
                    qual_syms: None,
                    mask: None,
                    dirty_protection: ctx.dirty_protection,
                };
                Box::new(
                    open(ScanShape::default())?
                        .map(move |stored| -> Result<Option<Row>, QueryError> {
                            let base_key = ctx.def.encode_row_key(&index_ctx.read(&stored?)?);
                            let base = self.cluster().get(&ctx.def.name, Get::new(base_key))?;
                            base.map(|base| ctx.read(&base)).transpose()
                        })
                        .filter_map(Result::transpose),
                )
            }
            (AccessPath::KeyRangeScan, _) => {
                // The planner froze the *shape* (both-sided range filters
                // on `key[0]`); the concrete `[lo, hi]` envelope comes from
                // the bound parameter values per execution.  When the
                // encoded bounds are order-safe the store walk is clamped
                // to them; otherwise the walk degrades to a full scan —
                // either way the single-alias stream filters below re-check
                // every row, so the clamp is purely a cost optimization.
                let bounds = range_filter_bounds(
                    &plan.conditions,
                    bound,
                    &plan.single_alias[ai],
                    &def.key[0],
                );
                let range = bounds.as_ref().and_then(|(lo, hi)| range_scan_bounds(lo, hi));
                ctx.stream(open(ScanShape { range, ..projected(&ctx) })?)
            }
            // Parallel source: region-partitioned scan workers feeding
            // batch-parallel decode.  Limit-pushed scans stay serial —
            // they touch O(k) rows, below any fan-out's break-even —
            // as do sources a bare LIMIT will stop pulling early.  The
            // width is the plan's frozen decision (`plan.threads`), not
            // the executing executor's configuration.
            (AccessPath::FullScan, _) if plan.threads > 1 && store_limit == 0 && !prefer_serial => {
                let width = plan.threads;
                let rows = open(ScanShape { width, ..projected(&ctx) })?;
                // Decoding a batch past a dirty marker is only wasted
                // work: the whole statement restarts.
                Box::new(par_batches(rows, width, move |stored| ctx.read(&stored)))
            }
            (AccessPath::FullScan, _) => {
                ctx.stream(open(ScanShape { limit: store_limit, ..projected(&ctx) })?)
            }
            // A key-prefix scan (an index scan without its index table's
            // definition is refused by the opener).
            _ => ctx.stream(open(projected(&ctx))?),
        };

        // Apply every single-alias filter (equality and range) on the
        // stream; residual multi-alias conditions are applied after joins.
        if plan.single_alias[ai].is_empty() {
            return Ok(base);
        }
        let conds: Vec<BoundCondition> = plan.single_alias[ai]
            .iter()
            .map(|&i| bound[i].clone())
            .collect();
        Ok(Box::new(base.filter(move |row| match row {
            Ok(row) => conds.iter().all(|c| {
                let left = row.get_interned(&c.left_sym);
                match (&c.right, left) {
                    (BoundOperand::Value(v), Some(l)) => c.op.evaluate(l, v),
                    _ => false,
                }
            }),
            Err(_) => true,
        })))
    }

    /// Client-side hash join: the build side (`right`, the newly joined
    /// alias) is materialized and hashed; the probe side streams through it
    /// row by row, so the intermediate result is never buffered.  Charges
    /// shuffle cost per row on both sides and probe cost per probe —
    /// identical totals to the former materialized join when the stream is
    /// fully consumed, and strictly less when a LIMIT stops it early.
    ///
    /// Both sides are frozen, so every emitted row shares its left and
    /// right halves as `Arc` slices ([`Row::join_concat`]) with the input
    /// rows instead of deep-cloning the entries.
    fn hash_join_stream<'a>(
        &'a self,
        left: RowStream<'a>,
        mut right: Vec<Row>,
        step: &JoinStep,
    ) -> RowStream<'a> {
        let model = self.cluster().cost_model();
        self.cluster()
            .clock()
            .charge(model.shuffle_cost(right.len() as u64));
        for row in &mut right {
            row.freeze();
        }

        if step.cond_idxs.is_empty() {
            // Cross join (rare; only used when the workload really asks for it).
            return Box::new(left.flat_map(move |l| -> Vec<Result<Row, QueryError>> {
                match l {
                    Err(e) => vec![Err(e)],
                    Ok(mut l) => {
                        self.cluster().clock().charge(model.shuffle_cost(1));
                        l.freeze();
                        right.iter().map(|r| Ok(l.join_concat(r))).collect()
                    }
                }
            }));
        }

        let left_syms = step.left_syms.clone();
        let right_syms = &step.right_syms;

        // Build side: hash the right rows on the join attribute values.
        // lint-allow(determinism): probe-only hash table; output order follows `left`, never this map
        let mut build: HashMap<JoinKey, Vec<usize>> = HashMap::with_capacity(right.len());
        for (i, row) in right.iter().enumerate() {
            if let Some(key) = JoinKey::of(row, right_syms) {
                build.entry(key).or_default().push(i);
            }
        }

        Box::new(left.flat_map(move |l| -> Vec<Result<Row, QueryError>> {
            match l {
                Err(e) => vec![Err(e)],
                Ok(mut l) => {
                    self.cluster()
                        .clock()
                        .charge(model.shuffle_cost(1) + model.probe_cost(1));
                    l.freeze();
                    let Some(key) = JoinKey::of(&l, &left_syms) else {
                        return Vec::new();
                    };
                    match build.get(&key) {
                        Some(matches) => matches
                            .iter()
                            .map(|&i| Ok(l.join_concat(&right[i])))
                            .collect(),
                        None => Vec::new(),
                    }
                }
            }
        }))
    }

    /// Partitioned parallel hash join.  The build side is hash-partitioned
    /// into `threads` independent hash tables built concurrently; the probe
    /// side is materialized (metered through `meter`, since the rows really
    /// are resident), chunked contiguously, and each chunk probes the shared
    /// read-only partition tables on its own worker.  Chunk outputs
    /// concatenate in probe order and partition tables preserve build-row
    /// order per key, so the emitted rows are **identical, order included**,
    /// to [`Executor::hash_join_stream`].
    ///
    /// Sim accounting follows the parallel merge rule: the build-side
    /// shuffle charges in full (sum — every row is shipped by some worker),
    /// while the per-probe-row shuffle + probe cost charges for the largest
    /// chunk only (max — workers probe concurrently).
    fn par_hash_join<'a>(
        &'a self,
        left: RowStream<'a>,
        mut right: Vec<Row>,
        step: &JoinStep,
        meter: &Residency,
        threads: usize,
    ) -> Result<RowStream<'a>, QueryError> {
        let model = self.cluster().cost_model();
        self.cluster()
            .clock()
            .charge(model.shuffle_cost(right.len() as u64));
        for row in &mut right {
            row.freeze();
        }

        // Partition pass (serial, O(build), one key extraction per row),
        // then per-partition table builds on the pool.  Indices stay
        // ascending within a partition, so each key's match list keeps
        // build-row order.
        let mut partitions: Vec<Vec<(JoinKey, usize)>> = vec![Vec::new(); threads];
        for (i, row) in right.iter().enumerate() {
            if let Some(key) = JoinKey::of(row, &step.right_syms) {
                partitions[partition_of(&key, threads)].push((key, i));
            }
        }
        // lint-allow(determinism): probe-only hash tables; output order follows `left`, never these maps
        let tables: Vec<HashMap<JoinKey, Vec<usize>>> =
            pool::map(partitions, threads, |entries| {
                let mut table: HashMap<JoinKey, Vec<usize>> = // lint-allow(determinism): probe-only
                    HashMap::with_capacity(entries.len()); // lint-allow(determinism): probe-only
                for (key, i) in entries {
                    table.entry(key).or_default().push(i);
                }
                table
            });

        // Probe side: materialize and meter, then probe chunk-parallel.
        let probe = collect_stream(left, meter)?;
        let ranges = pool::chunk_ranges(probe.len(), threads);
        let largest_chunk = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0) as u64;
        self.cluster()
            .clock()
            .charge(model.shuffle_cost(largest_chunk) + model.probe_cost(largest_chunk));
        let tables_ref = &tables;
        let left_syms_ref = &step.left_syms;
        let right_ref = &right;
        let outputs: Vec<Vec<Row>> = pool::map_chunked(probe, threads, |chunk| {
            let mut out = Vec::new();
            for mut l in chunk {
                l.freeze();
                let Some(key) = JoinKey::of(&l, left_syms_ref) else {
                    continue;
                };
                if let Some(matches) = tables_ref[partition_of(&key, threads)].get(&key) {
                    out.extend(matches.iter().map(|&i| l.join_concat(&right_ref[i])));
                }
            }
            out
        });
        Ok(Box::new(outputs.into_iter().flatten().map(Ok)))
    }
}

// ----------------------------------------------------------------------
// Helpers (free functions so they are easy to unit test)
// ----------------------------------------------------------------------

/// Store-scan bounds `[start, stop)` covering every key whose leading
/// component lies in the inclusive value interval `[lo, hi]`, or `None`
/// when encoded keys do not sort like the values over that interval
/// (integers encode as plain decimal, so unequal digit widths or negative
/// values break lexicographic order).  `stop` appends a byte just above
/// [`KEY_DELIMITER`] so composite keys sharing the `hi` leading component
/// stay inside the window while the next distinct value stays out.
fn range_scan_bounds(lo: &Value, hi: &Value) -> Option<(String, String)> {
    let safe = lo == hi
        || match (lo, hi) {
            (Value::Str(a), Value::Str(b)) => a <= b,
            (Value::Int(a), Value::Int(b)) => {
                *a >= 0 && *b >= *a && decimal_width(*a) == decimal_width(*b)
            }
            _ => false,
        };
    if !safe {
        return None;
    }
    let start = encode_key([lo]);
    let mut stop = encode_key([hi]);
    stop.push(RANGE_STOP_SENTINEL);
    Some((start, stop))
}

/// One code point above [`KEY_DELIMITER`] and below every encodable value
/// byte: appended to an encoded leading component it upper-bounds all of
/// that component's composite keys.
const RANGE_STOP_SENTINEL: char = '\u{2}';

fn decimal_width(v: i64) -> usize {
    v.to_string().len()
}

/// The hash partition a join key belongs to.  `DefaultHasher::new()` is
/// deterministic (fixed keys), so build and probe agree — and repeated runs
/// partition identically, keeping parallel sim figures reproducible.
fn partition_of(key: &JoinKey, parts: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % parts.max(1) as u64) as usize
}

/// Evaluates any bound condition against a joined row (used for residual
/// predicates).  Conditions whose columns are absent evaluate to true so that
/// filters already applied during the per-alias fetch are not re-applied
/// against rows that legitimately dropped reserved columns.
fn evaluate_condition(row: &Row, c: &BoundCondition) -> bool {
    let Some(left) = row.get_interned(&c.left_sym) else {
        return true;
    };
    match &c.right {
        BoundOperand::Value(v) => c.op.evaluate(left, v),
        BoundOperand::Column(sym) => match row.get_interned(sym) {
            Some(r) => c.op.evaluate(left, r),
            None => true,
        },
    }
}

/// Evaluates the aggregate/GROUP BY sub-plan over the joined input rows.
fn apply_group_and_aggregates(plan: &GroupPlan, rows: Vec<Row>) -> Vec<Row> {
    // Group rows by the GROUP BY key (a single group when absent).
    let mut groups: BTreeMap<Vec<Value>, Vec<Row>> = BTreeMap::new();
    for row in rows {
        let key: Vec<Value> = plan
            .group_syms
            .iter()
            .map(|(sym, _)| row.get_interned(sym).cloned().unwrap_or(Value::Null))
            .collect();
        groups.entry(key).or_default().push(row);
    }
    if groups.is_empty() && plan.group_syms.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }

    let mut out = Vec::new();
    for (key, members) in groups {
        let mut row = Row::new();
        for (i, (qualified, bare)) in plan.group_syms.iter().enumerate() {
            row.set_interned(*qualified, key[i].clone());
            row.set_interned(*bare, key[i].clone());
        }
        for item in &plan.items {
            match item {
                ItemPlan::Aggregate {
                    function,
                    argument,
                    name,
                } => {
                    let value = compute_aggregate(*function, argument.as_ref(), &members);
                    row.set_interned(*name, value);
                }
                ItemPlan::Column { lookup, out, alias } => {
                    let value = members
                        .first()
                        .and_then(|m| m.get_interned(lookup))
                        .cloned()
                        .unwrap_or(Value::Null);
                    row.set_interned(*out, value.clone());
                    if let Some(a) = alias {
                        row.set_interned(*a, value);
                    }
                }
                ItemPlan::Wildcard => {
                    if let Some(first) = members.first() {
                        for (sym, v) in first.iter_interned() {
                            row.set_interned(*sym, v.clone());
                        }
                    }
                }
            }
        }
        out.push(row);
    }
    out
}

fn compute_aggregate(
    function: AggregateFunction,
    argument: Option<&Symbol>,
    members: &[Row],
) -> Value {
    let values: Vec<&Value> = match argument {
        None => return Value::Int(members.len() as i64),
        Some(sym) => members
            .iter()
            .filter_map(|m| m.get_interned(sym))
            .filter(|v| !v.is_null())
            .collect(),
    };
    match function {
        AggregateFunction::Count => Value::Int(values.len() as i64),
        AggregateFunction::Sum => {
            let sum: f64 = values.iter().filter_map(|v| v.as_float()).sum();
            if values.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(sum as i64)
            } else {
                Value::Float(sum)
            }
        }
        AggregateFunction::Avg => {
            if values.is_empty() {
                Value::Null
            } else {
                let sum: f64 = values.iter().filter_map(|v| v.as_float()).sum();
                Value::Float(sum / values.len() as f64)
            }
        }
        AggregateFunction::Min => values.iter().min().copied().cloned().unwrap_or(Value::Null),
        AggregateFunction::Max => values.iter().max().copied().cloned().unwrap_or(Value::Null),
    }
}

/// The ORDER BY comparator over the plan's resolved sort keys; shared by
/// the full sort and the bounded top-k operators.
fn order_comparator(keys: &[(Symbol, bool)]) -> impl Fn(&Row, &Row) -> Ordering + Sync {
    let keys = keys.to_vec();
    move |a: &Row, b: &Row| {
        for (sym, descending) in &keys {
            let av = a.get_interned(sym);
            let bv = b.get_interned(sym);
            let ord = match (av, bv) {
                (Some(a), Some(b)) => a.cmp(b),
                (Some(a), None) => a.cmp(&Value::Null),
                (None, Some(b)) => Value::Null.cmp(b),
                (None, None) => Ordering::Equal,
            };
            let ord = if *descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// Applies the plan's final projection (`None` = identity).
fn project_rows(project: &Option<Vec<(Symbol, Symbol)>>, rows: Vec<Row>) -> Vec<Row> {
    let Some(cols) = project else {
        return rows;
    };
    rows.into_iter()
        .map(|row| {
            let mut out = Row::with_capacity(cols.len());
            for (lookup, name) in cols {
                let value = row.get_interned(lookup).cloned().unwrap_or(Value::Null);
                out.set_interned(*name, value);
            }
            out
        })
        .collect()
}
