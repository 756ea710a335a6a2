//! Phase 4 of the query pipeline: the **physical plan** and its execution.
//!
//! A [`PhysicalPlan`] is the compiled, cacheable form of one SELECT: the
//! plan tree (`crate::plan`) with every name resolved to interned
//! [`Symbol`]s and every planning decision frozen on its node, plus the
//! condition templates with parameters left as slots.  Executing it
//! ([`Executor::execute_plan`]) walks that tree: each node opens as a
//! pull-based [`RowStream`] operator reading its decisions off the node —
//! scan → projected decode → filter, hash joins (build side materialized,
//! probe side streamed), residual filter, aggregate / sort / top-k / limit,
//! project.  Nothing is decided during execution, so the tree `EXPLAIN`
//! renders is the tree that runs.
//!
//! Executing a plan charges exactly the simulated costs the executor always
//! has — pinned by the committed `BENCH_report.json` sim figures and the
//! golden-plan suite.

use crate::bind::{check_params, eq_filter_row, range_filter_bounds, PlannedCondition, PlannedOperand};
use crate::catalog::TableDef;
use crate::executor::{
    stored_row_is_dirty, AccessPath, Executor, ScanShape, StoredRows, DIRTY_RETRY_LIMIT,
};
use crate::plan::{DecodeSpec, GroupPlan, ItemPlan, PlanNode, ScanNode, SortKey};
use crate::result::{QueryError, QueryResult};
use crate::stream::{collect_stream, par_top_k, top_k, Residency, RowStream};
use nosql_store::ops::Get;
use relational::{encode_key, Row, Symbol, Value};
use sql::AggregateFunction;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap}; // lint-allow(determinism): join build tables below are probe-only

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
    /// Resolved WHERE conjuncts with open parameter slots; the tree's nodes
    /// refer to them by index.
    pub(crate) conditions: Vec<PlannedCondition>,
    /// The plan tree: what runs, and what `EXPLAIN` renders.
    pub(crate) root: PlanNode,
    /// Catalog version at plan time; plan caches treat a mismatch as stale.
    pub(crate) catalog_version: u64,
}

impl PhysicalPlan {
    /// Renders the stable, indented plan tree — the `EXPLAIN` text.
    pub fn explain(&self) -> String {
        self.root.render(&self.conditions)
    }

    /// The catalog version this plan was compiled against.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
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
        let scan = self.root.scan(&self.aliases.get(alias)?.0)?;
        let mut filters = scan.filter.iter().rev().map(|&i| &self.conditions[i]);
        let filter = filters.find(|c| c.op == sql::Comparison::Eq && c.left.column == column)?;
        filter.constant(params).cloned()
    }
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
/// definition (the executable form of [`DecodeSpec`]).
#[derive(Clone, Copy)]
struct DecodeCtx<'a> {
    def: &'a TableDef,
    qual_syms: Option<&'a [Symbol]>,
    mask: Option<&'a [bool]>,
}

impl<'a> DecodeCtx<'a> {
    fn new(def: &'a TableDef, spec: &'a DecodeSpec) -> Self {
        DecodeCtx {
            def,
            qual_syms: spec.qual_syms.as_deref(),
            mask: spec.mask.as_deref(),
        }
    }

    /// The one adaptor from stored row to relational row, for every scan
    /// stream and point Get of a plan: a row carrying the dirty marker
    /// surfaces as [`QueryError::DirtyRestart`], which restarts the whole
    /// statement (paper §VIII-C); any other row decodes.  Base tables never
    /// carry the marker, so only maintained view rows can restart a read.
    fn read(&self, stored: &nosql_store::ResultRow) -> Result<Row, QueryError> {
        if stored_row_is_dirty(stored) {
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

    /// The scan source, serial or region-parallel alike: each stored row
    /// through [`DecodeCtx::read`] as it is pulled, a failed page passed on
    /// in its place.
    fn stream(self, rows: StoredRows) -> RowStream<'a> {
        Box::new(rows.map(move |stored| self.read(&stored?)))
    }
}

/// One execution's inputs, which every node reads: the plan's condition
/// templates, the parameter values and the statement's residency meter.
#[derive(Clone, Copy)]
struct Run<'a> {
    conditions: &'a [PlannedCondition],
    params: &'a [Value],
    meter: &'a Residency,
}

/// What an opened node yields: rows still streaming, or rows a
/// materializing node (aggregate, sort, top-k) already holds — and has
/// already metered, so its consumer does not meter them again.
enum Rows<'a> {
    Streamed(RowStream<'a>),
    Resident(Vec<Row>),
}

impl<'a> Rows<'a> {
    fn stream(self) -> RowStream<'a> {
        match self {
            Rows::Streamed(stream) => stream,
            Rows::Resident(rows) => Box::new(rows.into_iter().map(Ok)),
        }
    }

    /// The rows, materialized: a stream is drained and metered.
    fn collect(self, meter: &Residency) -> Result<Vec<Row>, QueryError> {
        match self {
            Rows::Streamed(stream) => collect_stream(stream, meter),
            Rows::Resident(rows) => Ok(rows),
        }
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

    /// One execution attempt: check the parameters against the condition
    /// templates, then open the plan tree and drain it.
    fn run_plan(&self, plan: &PhysicalPlan, params: &[Value]) -> Result<QueryResult, QueryError> {
        check_params(&plan.conditions, params)?;
        let meter = Residency::default();
        let run = Run {
            conditions: &plan.conditions,
            params,
            meter: &meter,
        };
        let rows = self.open(&plan.root, run)?.collect(&meter)?;
        self.cluster()
            .clock()
            .charge(self.cluster().cost_model().client_result_cost(rows.len() as u64));
        Ok(QueryResult::with_rows(rows).with_peak_rows_resident(meter.peak()))
    }

    /// Opens one node of the plan tree.  Children open before their parent
    /// starts pulling; a join opens its probe subtree first, then opens and
    /// collects its build side.
    fn open<'a>(&'a self, node: &'a PlanNode, run: Run<'a>) -> Result<Rows<'a>, QueryError> {
        Ok(match node {
            PlanNode::Rewrite { input, .. } => self.open(input, run)?,
            PlanNode::Scan(scan) => Rows::Streamed(self.open_scan(scan, run)?),
            PlanNode::HashJoin {
                probe,
                build,
                probe_keys,
                build_keys,
                partitions,
                ..
            } => {
                let probe = self.open(probe, run)?.stream();
                let build = collect_stream(self.open_scan(build, run)?, run.meter)?;
                Rows::Streamed(self.hash_join(
                    probe,
                    build,
                    probe_keys,
                    build_keys,
                    run.meter,
                    *partitions,
                )?)
            }
            PlanNode::Filter { input, conditions } => {
                let stream = self.open(input, run)?.stream();
                Rows::Streamed(Box::new(stream.filter(move |row| match row {
                    Ok(row) => conditions
                        .iter()
                        .all(|&i| evaluate_condition(row, &run.conditions[i], run.params)),
                    Err(_) => true,
                })))
            }
            PlanNode::Aggregate { input, group } => {
                let input = self.open(input, run)?.collect(run.meter)?;
                Rows::Resident(apply_group_and_aggregates(group, input))
            }
            PlanNode::Sort { input, keys } => {
                let mut rows = self.open(input, run)?.collect(run.meter)?;
                let cmp = order_comparator(keys);
                rows.sort_by(|a, b| cmp(a, b));
                Rows::Resident(rows)
            }
            PlanNode::TopK {
                input,
                k,
                keys,
                width,
            } => {
                let stream = self.open(input, run)?.stream();
                let cmp = order_comparator(keys);
                // One bounded heap per modelled worker's chunk, merged at
                // the end: each selects its chunk's k best, the merge
                // re-selects over the ≤ width·k survivors.  Serially, one
                // heap: k rows resident instead of the full input.
                Rows::Resident(if *width > 1 {
                    par_top_k(stream, *k, cmp, run.meter, *width)?
                } else {
                    top_k(stream, *k, cmp, run.meter)?
                })
            }
            // `take` checks its bound *before* each pull — pulling one row
            // past the limit could fetch (and charge) a whole extra page.
            PlanNode::Limit { input, k } => match self.open(input, run)? {
                Rows::Streamed(stream) => Rows::Streamed(Box::new(stream.take(*k))),
                Rows::Resident(mut rows) => {
                    rows.truncate(*k);
                    Rows::Resident(rows)
                }
            },
            PlanNode::Project { input, columns } => match self.open(input, run)? {
                Rows::Streamed(stream) => {
                    Rows::Streamed(Box::new(stream.map(|row| Ok(project_row(columns, &row?)))))
                }
                Rows::Resident(rows) => {
                    Rows::Resident(rows.iter().map(|row| project_row(columns, row)).collect())
                }
            },
        })
    }

    /// Opens one scan's row stream as its node prescribes: the stored rows
    /// [`Executor::open_rows`] yields for the access path, mapped through
    /// dirty detection and projected decode, filtered by the node's
    /// single-alias conditions.
    ///
    /// A dirty marker observed anywhere in the stream surfaces as
    /// [`QueryError::DirtyRestart`], which restarts the whole statement; a
    /// failed store operation surfaces as [`QueryError::Store`], which fails
    /// it.
    fn open_scan<'a>(&'a self, scan: &'a ScanNode, run: Run<'a>) -> Result<RowStream<'a>, QueryError> {
        let ScanNode {
            def,
            access,
            decode,
            index,
            filter,
            ..
        } = scan;
        let eq = eq_filter_row(run.conditions, run.params, filter);
        let ctx = DecodeCtx::new(def, decode);
        let open = |shape| self.open_rows(def, access, index.as_ref().map(|i| &*i.def), &eq, shape);
        // The rows of `ctx`'s table, projected onto what `ctx` decodes.
        let projected = |ctx: &DecodeCtx| ScanShape {
            columns: self.scan_projection(ctx.def, ctx.mask),
            ..ScanShape::default()
        };

        let base: RowStream<'a> = match (access, index) {
            (AccessPath::KeyGet, _) => {
                // Eager: a dirty row restarts the statement before any other
                // scan is opened (and charged).
                let stored = open(ScanShape::default())?.next().transpose()?;
                let row = stored.map(|stored| ctx.read(&stored)).transpose()?;
                Box::new(row.into_iter().map(Ok))
            }
            (_, Some(index)) if index.covered => {
                let index_ctx = DecodeCtx::new(&index.def, &index.decode);
                index_ctx.stream(open(projected(&index_ctx))?)
            }
            (_, Some(index)) => {
                // Stream the index entries and look up each base row by
                // primary key as it is pulled; the index row is decoded
                // bare (it only feeds key encoding).
                let index_ctx = DecodeCtx {
                    def: &index.def,
                    qual_syms: None,
                    mask: None,
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
            _ => {
                // A key-range scan froze the *shape* (both-sided range
                // filters on `key[0]`); the concrete `[lo, hi]` envelope
                // comes from the parameter values per execution.  When the
                // encoded bounds are order-safe the store walk is clamped to
                // them; otherwise the walk degrades to a full scan — either
                // way the node's filters below re-check every row, so the
                // clamp is purely a cost optimization.
                let range = match access {
                    AccessPath::KeyRangeScan => {
                        range_filter_bounds(run.conditions, run.params, filter, &def.key[0])
                            .and_then(|(lo, hi)| range_scan_bounds(&lo, &hi))
                    }
                    _ => None,
                };
                let shape = ScanShape {
                    range,
                    limit: scan.store_limit,
                    width: scan.width,
                    ..projected(&ctx)
                };
                ctx.stream(open(shape)?)
            }
        };

        // Apply every single-alias filter (equality and range) on the
        // stream; residual multi-alias conditions are applied after joins.
        if filter.is_empty() {
            return Ok(base);
        }
        Ok(Box::new(base.filter(move |row| match row {
            Ok(row) => filter.iter().all(|&i| run.conditions[i].holds(row, run.params)),
            Err(_) => true,
        })))
    }

    /// Client-side hash join: the build side (`right`, the newly joined
    /// alias) is materialized and hashed once; each probe row is looked up
    /// in it, and a key's matches are emitted in build-row order.  Charges
    /// shuffle cost per build row up front.  `partitions` only picks how the
    /// probe side is charged:
    ///
    /// * `1` — the probe side streams through row by row, each row paying
    ///   its shuffle + probe cost as it is pulled, so the intermediate result
    ///   is never buffered and a LIMIT that stops early pays strictly less;
    /// * `> 1` — the modelled partitioned join: the probe side is
    ///   materialized (metered through `meter`, since the rows really
    ///   are resident) and carved into `partitions` contiguous chunks, and
    ///   the per-row shuffle + probe cost is charged once for the largest
    ///   chunk (max — the modelled workers probe concurrently).
    ///
    /// Either way the output rows and their order are the same.  Both sides
    /// are frozen, so every emitted row shares its left and right halves as
    /// `Arc` slices ([`Row::join_concat`]) with the input rows instead of
    /// deep-cloning the entries.
    fn hash_join<'a>(
        &'a self,
        left: RowStream<'a>,
        mut right: Vec<Row>,
        left_syms: &'a [Symbol],
        right_syms: &[Symbol],
        meter: &Residency,
        partitions: usize,
    ) -> Result<RowStream<'a>, QueryError> {
        let model = self.cluster().cost_model();
        self.cluster()
            .clock()
            .charge(model.shuffle_cost(right.len() as u64));
        for row in &mut right {
            row.freeze();
        }

        if left_syms.is_empty() {
            // Cross join (rare; only used when the workload really asks for
            // it, and never partitioned).
            return Ok(Box::new(left.flat_map(move |l| -> Vec<Result<Row, QueryError>> {
                match l {
                    Err(e) => vec![Err(e)],
                    Ok(mut l) => {
                        self.cluster().clock().charge(model.shuffle_cost(1));
                        l.freeze();
                        right.iter().map(|r| Ok(l.join_concat(r))).collect()
                    }
                }
            })));
        }

        // Build side: hash the right rows on the join attribute values.
        // lint-allow(determinism): probe-only hash table; output order follows `left`, never this map
        let mut build: HashMap<JoinKey, Vec<usize>> = HashMap::with_capacity(right.len());
        for (i, row) in right.iter().enumerate() {
            if let Some(key) = JoinKey::of(row, right_syms) {
                build.entry(key).or_default().push(i);
            }
        }

        let (left, per_row) = if partitions > 1 {
            let probe = collect_stream(left, meter)?;
            let ranges = pool::chunk_ranges(probe.len(), partitions);
            let largest_chunk = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0) as u64;
            self.cluster()
                .clock()
                .charge(model.shuffle_cost(largest_chunk) + model.probe_cost(largest_chunk));
            let resident: RowStream<'a> = Box::new(probe.into_iter().map(Ok));
            (resident, None)
        } else {
            (left, Some(model.shuffle_cost(1) + model.probe_cost(1)))
        };
        Ok(Box::new(left.flat_map(move |l| -> Vec<Result<Row, QueryError>> {
            match l {
                Err(e) => vec![Err(e)],
                Ok(mut l) => {
                    if let Some(cost) = per_row {
                        self.cluster().clock().charge(cost);
                    }
                    l.freeze();
                    let Some(key) = JoinKey::of(&l, left_syms) else {
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
        })))
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

/// Evaluates a residual condition against a joined row.  Conditions whose
/// columns are absent evaluate to true so that filters already applied
/// during the per-alias fetch are not re-applied against rows that
/// legitimately dropped reserved columns.
fn evaluate_condition(row: &Row, c: &PlannedCondition, params: &[Value]) -> bool {
    let Some(left) = row.get_interned(&c.left_sym) else {
        return true;
    };
    let right = match &c.right {
        PlannedOperand::Column(_, sym) => row.get_interned(sym),
        _ => c.constant(params),
    };
    right.is_none_or(|right| c.op.evaluate(left, right))
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

/// The ORDER BY comparator over the node's resolved sort keys; shared by
/// the full sort and the bounded top-k operators.
fn order_comparator(keys: &[SortKey]) -> impl Fn(&Row, &Row) -> Ordering + '_ {
    move |a: &Row, b: &Row| {
        for SortKey { column, descending } in keys {
            let av = a.get_interned(column);
            let bv = b.get_interned(column);
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

/// Projects one row onto `(lookup, output)` symbol pairs.
fn project_row(columns: &[(Symbol, Symbol)], row: &Row) -> Row {
    let mut out = Row::with_capacity(columns.len());
    for (lookup, name) in columns {
        let value = row.get_interned(lookup).cloned().unwrap_or(Value::Null);
        out.set_interned(*name, value);
    }
    out
}
