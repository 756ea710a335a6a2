//! The **optimizer**: rule passes that turn a [`BoundSelect`] into a
//! [`PhysicalPlan`] — the plan tree (`crate::plan`) with every decision
//! below written once, here, onto the node it concerns.  The executor reads
//! each decision off its node and `EXPLAIN` renders the same nodes, so
//! nothing is decided during execution and nothing rendered can differ from
//! what runs:
//!
//! 1. **Predicate pushdown** — every single-alias constant predicate is
//!    assigned to its alias's scan stream; equi-join predicates are
//!    consumed by the hash join that enforces them; whatever remains is a
//!    residual filter over joined rows.
//! 2. **Access-path selection** — per alias, from its equality-filter
//!    columns: full-key Get, key-prefix scan, covered/uncovered index
//!    scan, or full scan.
//! 3. **Join order** — the start (probe) alias is the one with the most
//!    selective access path, tie-broken by estimated cardinality from
//!    region stats ([`nosql_store::Cluster::table_stats`], fewer rows
//!    first); each following step joins the first remaining alias connected
//!    by an equi-join condition, with the join-key symbols resolved for
//!    both sides.
//! 4. **Projection pushdown** — the columns each alias must produce are
//!    computed once; the decode mask and the store-level scan projection
//!    derive from it.
//! 5. **Limit pushdown** — a bare single-table `LIMIT k` is pushed into the
//!    store scan; any other bare LIMIT stops pulling the pipeline early
//!    (and pins its sources to the serial streaming operators).
//! 6. **Operator parallelism** — at `threads > 1` modelled workers, full
//!    scans split region-parallel, equi-joins charge their probe side per
//!    partition, and ORDER BY + LIMIT keeps per-worker bounded heaps, unless
//!    a bare LIMIT's early termination forbids it; the width is frozen on
//!    each node.  The workers are a sim-clock cost model: every statement
//!    runs on its caller's thread.
//!
//! Statement-level rewrites (Synergy's materialized-view substitution)
//! happen *before* binding through [`crate::PlanRewriter`] and are recorded
//! on the plan as a `Rewrite` node, so `EXPLAIN` shows the substitution
//! instead of hiding it in a pre-pass.

use crate::bind::{
    self, column_mask, condition_is_single_alias, eq_filter_columns, join_column_for_alias,
    join_column_other_side, join_conditions_between, needed_columns, resolve_col, BoundSelect,
};
use crate::catalog::{Catalog, TableDef};
use crate::executor::{AccessPath, Executor};
use crate::physical::PhysicalPlan;
use crate::plan::{DecodeSpec, GroupPlan, IndexAccess, ItemPlan, PlanNode, ScanNode, SortKey};
use crate::result::QueryError;
use relational::{intern, Symbol};
use sql::{ColumnRef, SelectItem, SelectStatement};

/// A note describing a statement-level rewrite that fired before planning.
#[derive(Debug, Clone)]
pub struct RewriteNote {
    /// Rule identifier (e.g. `synergy-view-rewrite`).
    pub rule: String,
    /// Human-readable description of what was substituted.
    pub note: String,
}

/// Ranks an access path for start-alias selection (lower = more selective).
fn access_rank(path: &AccessPath) -> i32 {
    match path {
        AccessPath::KeyGet => 0,
        AccessPath::IndexScan { .. } => 1,
        AccessPath::KeyPrefixScan | AccessPath::KeyRangeScan => 2,
        AccessPath::FullScan => 3,
    }
}

/// Chooses how one alias will be accessed given the *columns* of its
/// single-alias equality filters plus whether its leading key attribute is
/// range-bounded from both sides (values are irrelevant to the choice,
/// which is what makes plans parameter-independent and cacheable).
fn select_access_path(
    catalog: &Catalog,
    def: &TableDef,
    eq_columns: &[String],
    key_range_bounded: bool,
) -> AccessPath {
    match choose_access(catalog, def, eq_columns, false) {
        // A both-sided range on `key[0]` beats walking the whole table:
        // the upquery shape (`... AND last.lead >= ? AND last.lead <= ?`)
        // plans as a bounded key scan instead of a full scan.
        AccessPath::FullScan if key_range_bounded => AccessPath::KeyRangeScan,
        path => path,
    }
}

/// Chooses the access path for a **delta-probe** lookup: how view
/// maintenance fetches the rows of one join side given equality bindings
/// for the join columns.  Identical to read-path access selection except
/// that maintenance-only indexes (invisible to read planning, see
/// [`Catalog::mark_maintenance_index`]) are eligible — they exist precisely
/// to turn these probes into index scans.
pub fn select_probe_access(catalog: &Catalog, def: &TableDef, eq_columns: &[String]) -> AccessPath {
    choose_access(catalog, def, eq_columns, true)
}

fn choose_access(
    catalog: &Catalog,
    def: &TableDef,
    eq_columns: &[String],
    allow_maintenance: bool,
) -> AccessPath {
    if !eq_columns.is_empty() {
        if def.key_covered_by(eq_columns) {
            return AccessPath::KeyGet;
        }
        if eq_columns.iter().any(|c| c == &def.key[0]) {
            return AccessPath::KeyPrefixScan;
        }
        for index in catalog.indexes_of(&def.name) {
            if !allow_maintenance && catalog.is_maintenance_index(&index.name) {
                continue;
            }
            if eq_columns.iter().any(|c| c == &index.key[0]) {
                return AccessPath::IndexScan {
                    index: index.name.clone(),
                };
            }
        }
    }
    AccessPath::FullScan
}

/// Compiles one bound SELECT into a physical plan at the executor's
/// configuration (thread count, catalog).  `rewrite` records a statement
/// rewrite that already fired, for the plan tree.
pub(crate) fn plan_select(
    executor: &Executor,
    bound: BoundSelect<'_>,
    rewrite: Option<RewriteNote>,
) -> Result<PhysicalPlan, QueryError> {
    let BoundSelect {
        select,
        aliases,
        conditions,
    } = bound;
    let catalog = executor.catalog();
    let threads = executor.threads();
    let n_aliases = aliases.len();
    let single_table = n_aliases == 1;
    let has_group = select.has_aggregates() || !select.group_by.is_empty();
    // A bare LIMIT (no ORDER BY, no aggregation) stops pulling the pipeline
    // lazily after k output rows; parallel sources and the partitioned join
    // work in eager batches and would forfeit that early termination, so
    // such statements stay on the serial streaming operators.
    let limit_stops_early = select.limit.is_some() && select.order_by.is_empty() && !has_group;

    // --- Rule 1: predicate pushdown (classification) -------------------
    // Track which conditions are fully enforced inside the pipeline:
    // every single-alias filter is applied on its alias's stream, and
    // every equi-join condition is enforced exactly by the hash join
    // that consumes it.  Whatever remains (cross-alias `<>`, range
    // predicates over joined columns, ...) is evaluated per joined row.
    let mut consumed = vec![false; conditions.len()];
    let mut single_alias: Vec<Vec<usize>> = vec![Vec::new(); n_aliases];
    for (ai, (alias, def)) in aliases.iter().enumerate() {
        for (i, c) in conditions.iter().enumerate() {
            if condition_is_single_alias(c, alias, def, &select.from) {
                consumed[i] = true;
                single_alias[ai].push(i);
            }
        }
    }

    // --- Rule 2: access-path selection ---------------------------------
    let eq_columns: Vec<Vec<String>> = (0..n_aliases)
        .map(|ai| eq_filter_columns(&conditions, &single_alias[ai]))
        .collect();
    let paths: Vec<AccessPath> = aliases
        .iter()
        .enumerate()
        .map(|(ai, (_, def))| {
            let key_range_bounded =
                bind::range_bounded_column(&conditions, &single_alias[ai], &def.key[0]);
            select_access_path(catalog, def, &eq_columns[ai], key_range_bounded)
        })
        .collect();

    // --- Rule 3: join order --------------------------------------------
    // Start with the alias that has the most selective access path; among
    // equal ranks, prefer the smaller estimated cardinality (region
    // stats), then statement order.  Then repeatedly add an alias
    // connected by a join condition.
    let mut start = 0;
    // Single-table statements have no join-order choice; skip the access
    // ranking and the region-stats walk entirely so the one-shot
    // point-lookup path pays nothing for them.
    if n_aliases > 1 {
        let mut best_rank = i32::MAX;
        let mut best_rows = u64::MAX;
        for (ai, (_, def)) in aliases.iter().enumerate() {
            let rank = access_rank(&paths[ai]);
            let rows = executor
                .cluster()
                .table_stats(&def.name)
                .map(|t| t.rows)
                .unwrap_or(u64::MAX);
            if rank < best_rank || (rank == best_rank && rows < best_rows) {
                best_rank = rank;
                best_rows = rows;
                start = ai;
            }
        }
    }

    // --- Rules 4-6 (sources): one scan node per alias --------------------
    let scan_node = |ai: usize, is_start: bool| -> Result<ScanNode, QueryError> {
        let (alias, def) = &aliases[ai];
        // Rule 4: the decode spec (qualified symbols + projection mask) of
        // a table read under this alias; an index table shares column names
        // with its base table, so the same scheme applies to it.
        let needed = needed_columns(select, alias, def);
        let decode = |table: &TableDef| DecodeSpec {
            qual_syms: (!single_table).then(|| {
                let qualify = |(name, _): &(String, _)| intern::intern(&format!("{alias}.{name}"));
                table.columns.iter().map(qualify).collect()
            }),
            mask: column_mask(table, &needed),
        };
        let index = match &paths[ai] {
            AccessPath::IndexScan { index } => {
                let index_def = catalog
                    .table_shared(index)
                    .ok_or_else(|| QueryError::UnknownTable(index.clone()))?;
                let covered = match &needed {
                    Some(needed) => needed.iter().all(|c| index_def.column_type(c).is_some()),
                    None => def.columns.iter().all(|(c, _)| index_def.column_type(c).is_some()),
                };
                Some(IndexAccess {
                    decode: decode(&index_def),
                    def: index_def,
                    covered,
                })
            }
            _ => None,
        };
        // Rule 5: store-level LIMIT pushdown is safe only when no downstream
        // operator can drop or reorder rows, i.e. a bare single-table
        // `LIMIT k`.  Every other shape still benefits from stream laziness
        // (the source stops being pulled after `k` output rows).
        let store_limit = match select.limit {
            Some(k) if single_table && conditions.is_empty() && limit_stops_early => k,
            _ => 0,
        };
        // Rule 6 (sources): full scans split into modelled workers unless a bare
        // LIMIT will stop pulling this source early (which a pushed store
        // limit implies).  Build sides are always fully drained.
        let parallel = matches!(paths[ai], AccessPath::FullScan)
            && threads > 1
            && !(is_start && limit_stops_early);
        Ok(ScanNode {
            alias: alias.clone(),
            def: def.clone(),
            access: paths[ai].clone(),
            decode: decode(def),
            index,
            filter: single_alias[ai].clone(),
            store_limit,
            width: if parallel { threads } else { 1 },
        })
    };

    let mut node = PlanNode::Scan(Box::new(scan_node(start, true)?));
    let mut remaining: Vec<usize> = (0..n_aliases).collect();
    remaining.retain(|&i| i != start);
    let mut joined_aliases = vec![aliases[start].0.clone()];
    while !remaining.is_empty() {
        // Find a remaining alias connected to what we have joined so far.
        let next_pos = remaining
            .iter()
            .position(|&i| {
                join_conditions_between(&conditions, &aliases[i].0, &joined_aliases)
                    .next()
                    .is_some()
            })
            .unwrap_or(0);
        let idx = remaining.remove(next_pos);
        let alias_name = aliases[idx].0.clone();
        let on: Vec<usize> = join_conditions_between(&conditions, &alias_name, &joined_aliases)
            .map(|(i, _)| i)
            .collect();
        for &i in &on {
            consumed[i] = true;
        }
        // Join-key symbols, resolved once per join instead of one
        // `format!("{alias}.{column}")` per row per condition.
        let build_keys: Vec<Symbol> = on
            .iter()
            .map(|&i| {
                let col = join_column_for_alias(&conditions[i], &alias_name);
                intern::intern(&format!("{alias_name}.{}", col.column))
            })
            .collect();
        let probe_keys: Vec<Symbol> = on
            .iter()
            .map(|&i| resolve_col(join_column_other_side(&conditions[i], &alias_name)))
            .collect();
        joined_aliases.push(alias_name);
        // --- Rule 6 (joins): serial vs hash-partitioned ---------------
        let partitioned = threads > 1 && !limit_stops_early && !on.is_empty();
        node = PlanNode::HashJoin {
            probe: Box::new(node),
            build: Box::new(scan_node(idx, false)?),
            on,
            probe_keys,
            build_keys,
            partitions: if partitioned { threads } else { 1 },
        };
    }

    // Residual conditions: anything not consumed above.
    let residual: Vec<usize> = (0..conditions.len()).filter(|&i| !consumed[i]).collect();
    if !residual.is_empty() {
        node = PlanNode::Filter {
            input: Box::new(node),
            conditions: residual,
        };
    }

    // Aggregation needs the whole input; ORDER BY + LIMIT then act on the
    // (small) per-group output as a sort and a plain limit.  Over streamed
    // rows ORDER BY + LIMIT is a bounded top-k heap (Rule 6: per-worker
    // heaps at `threads`), ORDER BY alone a full sort, and a bare LIMIT
    // stops pulling its input after k rows.
    if has_group {
        node = PlanNode::Aggregate {
            input: Box::new(node),
            group: build_group_plan(select),
        };
    }
    let keys: Vec<SortKey> = select
        .order_by
        .iter()
        .map(|key| SortKey {
            column: resolve_col(order_column(select, &key.column)),
            descending: key.descending,
        })
        .collect();
    match select.limit {
        Some(k) if !has_group && !keys.is_empty() => {
            node = PlanNode::TopK {
                input: Box::new(node),
                k,
                keys,
                width: threads,
            };
        }
        limit => {
            if !keys.is_empty() {
                node = PlanNode::Sort {
                    input: Box::new(node),
                    keys,
                };
            }
            if let Some(k) = limit {
                node = PlanNode::Limit {
                    input: Box::new(node),
                    k,
                };
            }
        }
    }

    if let Some(columns) = build_project(select) {
        node = PlanNode::Project {
            input: Box::new(node),
            columns,
        };
    }
    if let Some(RewriteNote { rule, note }) = rewrite {
        node = PlanNode::Rewrite {
            rule,
            note,
            input: Box::new(node),
        };
    }

    Ok(PhysicalPlan {
        aliases,
        conditions,
        root: node,
    })
}

/// The column an ORDER BY key sorts on: the select-list column itself when
/// the key names that column's output alias (the sort runs below the
/// projection that introduces the alias), else the key as written.
fn order_column<'a>(select: &'a SelectStatement, key: &'a ColumnRef) -> &'a ColumnRef {
    let aliased = select.items.iter().find_map(|item| match item {
        SelectItem::Column {
            column,
            alias: Some(alias),
        } if key.qualifier.is_none() && *alias == key.column => Some(column),
        _ => None,
    });
    aliased.unwrap_or(key)
}

/// Resolves the aggregate/GROUP BY sub-plan (symbols interned once).
fn build_group_plan(select: &SelectStatement) -> GroupPlan {
    let group_syms: Vec<(Symbol, Symbol)> = select
        .group_by
        .iter()
        .map(|c| (resolve_col(c), intern::intern(&c.column)))
        .collect();
    let items: Vec<ItemPlan> = select
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Aggregate {
                function,
                argument,
                alias,
            } => {
                let name = alias.clone().unwrap_or_else(|| match argument {
                    Some(a) => format!("{function}({})", a.qualified_name()),
                    None => format!("{function}(*)"),
                });
                ItemPlan::Aggregate {
                    function: *function,
                    argument: argument.as_ref().map(resolve_col),
                    name: intern::intern(&name),
                }
            }
            SelectItem::Column { column, alias } => ItemPlan::Column {
                lookup: resolve_col(column),
                out: intern::intern(&column.qualified_name()),
                alias: alias.as_deref().map(intern::intern),
            },
            SelectItem::Wildcard => ItemPlan::Wildcard,
        })
        .collect();
    GroupPlan { group_syms, items }
}

/// Resolves the final projection (`None` = identity: wildcard present or
/// aggregate output, which `build_group_plan` already shapes).
fn build_project(select: &SelectStatement) -> Option<Vec<(Symbol, Symbol)>> {
    let wildcard = select.items.iter().any(|i| matches!(i, SelectItem::Wildcard));
    if wildcard || select.has_aggregates() {
        return None;
    }
    Some(
        select
            .items
            .iter()
            .filter_map(|item| {
                let SelectItem::Column { column, alias } = item else {
                    return None;
                };
                let out = match alias {
                    Some(a) => intern::intern(a),
                    None => intern::intern(&column.qualified_name()),
                };
                Some((resolve_col(column), out))
            })
            .collect(),
    )
}

/// Convenience used by `Executor::plan_select` and the session: bind then
/// optimize in one call.
pub(crate) fn bind_and_plan(
    executor: &Executor,
    select: &SelectStatement,
    rewrite: Option<RewriteNote>,
) -> Result<PhysicalPlan, QueryError> {
    let bound = bind::bind_select(executor.catalog(), select)?;
    plan_select(executor, bound, rewrite)
}
