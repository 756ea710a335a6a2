//! The [`Session`]: prepared SELECTs, the plan cache, and `EXPLAIN`.
//!
//! A session is a **read path**: it wraps an [`Executor`] and amortizes
//! the parse → bind → optimize phases of SELECTs across executions, and it
//! refuses to prepare a write (writes run through [`Executor::execute`],
//! or through the session's owner — Synergy's transaction layer, which
//! logs, locks and maintains the views):
//!
//! * [`Session::prepare`] compiles a SELECT once into a
//!   [`PreparedStatement`] whose bound, optimized [`PhysicalPlan`] is
//!   re-executed with fresh positional parameters;
//! * the **plan cache** keys compiled plans by statement text, so
//!   [`Session::execute_sql`] on a repeated statement skips planning
//!   entirely (hit/miss counters are exposed via
//!   [`Session::plan_cache_stats`]).  The executor's catalog is fixed when
//!   it is built, so a cached plan always matches it;
//! * [`Session::explain`] renders the stable plan tree for a statement,
//!   and `execute_sql` understands a leading `EXPLAIN` keyword, returning
//!   the rendering as result rows.
//!
//! Statement-level rewrites plug in through [`PlanRewriter`]: Synergy
//! installs its materialized-view substitution here, which makes the
//! rewrite a visible planner rule (a `Rewrite` node in the plan tree)
//! instead of an opaque pre-pass.  The rule is a **per-lookup switch**
//! ([`Session::select_plan`]): the same session caches a statement's
//! rewritten plan and its rule-skipped ("view-free") plan side by side, in
//! key spaces kept apart by whether the rule was applied.
//!
//! ```
//! use nosql_store::{Cluster, ClusterConfig};
//! use query::{baseline, ColumnType, Executor, Session};
//! use relational::{company, Row, Value};
//!
//! let schema = company::company_schema();
//! let catalog = baseline::baseline_catalog_with_types(&schema, &|_, column| {
//!     (column == "DNo").then_some(ColumnType::Int)
//! });
//! let cluster = Cluster::new(ClusterConfig::default());
//! baseline::create_tables(&cluster, &catalog).unwrap();
//! let exec = Executor::new(cluster, catalog);
//! exec.insert_row("Department", &Row::new().with("DNo", 1).with("DName", "Research")).unwrap();
//!
//! let session = Session::new(exec);
//! let stmt = session.prepare("SELECT * FROM Department WHERE DNo = ?").unwrap();
//! assert_eq!(stmt.execute(&[Value::Int(1)]).unwrap().len(), 1);
//! assert_eq!(stmt.execute(&[Value::Int(2)]).unwrap().len(), 0);
//! // A second prepare of the same text is served from the plan cache.
//! session.prepare("SELECT * FROM Department WHERE DNo = ?").unwrap();
//! assert_eq!(session.plan_cache_stats().hits, 1);
//! ```

use crate::executor::Executor;
use crate::optimize::{self, RewriteNote};
use crate::physical::PhysicalPlan;
use crate::result::{QueryError, QueryResult};
use relational::{intern, Row, Value};
use sql::{SelectStatement, Statement};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Upper bound on cached plans per session.  Statement texts with inlined
/// literals each occupy one entry, so the cache is capped and flushed
/// wholesale when full (prepared-statement workloads parameterize and stay
/// far below this).
const PLAN_CACHE_MAX_ENTRIES: usize = 1_024;

/// A statement-level rewrite rule consulted before planning (e.g. Synergy's
/// materialized-view substitution).  Returning `Some` replaces the
/// statement and records the note as a `Rewrite` node in the plan tree, so
/// `EXPLAIN` shows what fired.
pub trait PlanRewriter: Send + Sync {
    /// Identifier rendered in the plan tree (e.g. `synergy-view-rewrite`).
    fn rule_name(&self) -> &str;

    /// Rewrites one SELECT, or `None` when the rule does not apply.  The
    /// returned string describes the substitution for plan renderings.
    fn rewrite_select(&self, select: &SelectStatement) -> Option<(SelectStatement, String)>;
}

/// Counters describing a session's plan-cache behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled a new plan.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// Shared mutable state of a session (clones share the cache and counters).
#[derive(Default)]
struct SessionState {
    /// Cached plans by statement text, one key space per rewrite switch
    /// position: `[0]` compiled with the rule skipped, `[1]` with it applied.
    cache: Mutex<[BTreeMap<String, Arc<PhysicalPlan>>; 2]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A connection-scoped handle running statements through the planner with
/// a plan cache.  Cloning is cheap and clones share the cache.
#[derive(Clone)]
pub struct Session {
    executor: Executor,
    rewriter: Option<Arc<dyn PlanRewriter>>,
    state: Arc<SessionState>,
}

impl Session {
    /// Creates a session over an executor.
    pub fn new(executor: Executor) -> Session {
        Session {
            executor,
            rewriter: None,
            state: Arc::new(SessionState::default()),
        }
    }

    /// Installs a statement rewriter consulted before planning.
    ///
    /// The session gets a **fresh** plan cache: cached plans are the
    /// product of the rewriter that compiled them, so a session configured
    /// with a different rewriter must not share cache entries (or counters)
    /// with its ancestor — otherwise a clone could serve un-rewritten plans
    /// for rewritten statements or vice versa.  Clones made *after* this
    /// call share the new cache and the same executor, so every plan in it
    /// matches their catalog.
    pub fn with_rewriter(mut self, rewriter: Arc<dyn PlanRewriter>) -> Session {
        self.rewriter = Some(rewriter);
        self.state = Arc::new(SessionState::default());
        self
    }

    /// The underlying executor.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Compiles (or fetches from the plan cache) a prepared SELECT for the
    /// given SQL text.
    pub fn prepare(&self, sql_text: &str) -> Result<PreparedStatement, QueryError> {
        Ok(self.statement(sql_text, self.select_plan(sql_text, None, true)?))
    }

    /// [`Session::prepare`] for an already parsed statement (cache key is
    /// the statement's canonical text).
    pub fn prepare_statement(&self, stmt: &Statement) -> Result<PreparedStatement, QueryError> {
        let sql_text = stmt.to_string();
        Ok(self.statement(&sql_text, self.select_plan(&sql_text, Some(stmt), true)?))
    }

    /// Compiles a statement *without* consulting or populating the plan
    /// cache — the baseline against which prepared execution is measured
    /// (every phase runs, nothing is amortized).
    pub fn prepare_uncached(&self, sql_text: &str) -> Result<PreparedStatement, QueryError> {
        Ok(self.statement(sql_text, self.compile(&parse(sql_text)?, true)?))
    }

    /// The compiled plan of one SELECT through the plan cache, with the
    /// session's rewrite rule applied (`rewrite`) or skipped for this lookup
    /// — the statement planned over exactly the tables it names.  The two
    /// positions cache under disjoint key spaces, so neither can be served
    /// the other's plan.  `parsed` avoids re-parsing `sql_text` on a miss.
    pub fn select_plan(
        &self,
        sql_text: &str,
        parsed: Option<&Statement>,
        rewrite: bool,
    ) -> Result<Arc<PhysicalPlan>, QueryError> {
        let space = usize::from(rewrite);
        if let Some(plan) = self
            .state
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)[space]
            .get(sql_text)
        {
            self.state.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan.clone());
        }
        self.state.misses.fetch_add(1, Ordering::Relaxed);
        let stmt = match parsed {
            Some(stmt) => Cow::Borrowed(stmt),
            None => Cow::Owned(parse(sql_text)?),
        };
        let plan = self.compile(&stmt, rewrite)?;
        let mut cache = self.state.cache.lock().unwrap_or_else(PoisonError::into_inner);
        // Bound the cache: statements with inlined literals produce a
        // distinct text (and entry) per value, so a long-lived session
        // fed ad-hoc SQL would otherwise grow without limit.  When the
        // cap is reached the cache is flushed wholesale — crude but
        // O(1) amortized, and repeated statements simply re-warm.
        if cache.iter().map(BTreeMap::len).sum::<usize>() >= PLAN_CACHE_MAX_ENTRIES {
            *cache = Default::default();
        }
        cache[space].insert(sql_text.to_string(), plan.clone());
        Ok(plan)
    }

    /// Parses and executes a SQL string through the plan cache.  A leading
    /// `EXPLAIN` keyword renders the inner statement's plan tree instead,
    /// one result row per line under the column `plan`.
    pub fn execute_sql(&self, sql_text: &str, params: &[Value]) -> Result<QueryResult, QueryError> {
        if let Some(inner) = sql::strip_explain(sql_text) {
            let text = self.explain(inner)?;
            let plan_sym = intern::intern("plan");
            let rows = text
                .lines()
                .map(|line| {
                    let mut row = Row::with_capacity(1);
                    row.set_interned(plan_sym, Value::str(line));
                    row
                })
                .collect();
            return Ok(QueryResult::with_rows(rows));
        }
        self.prepare(sql_text)?.execute(params)
    }

    /// Executes an already parsed statement through the plan cache.
    pub fn execute_statement(
        &self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<QueryResult, QueryError> {
        self.prepare_statement(stmt)?.execute(params)
    }

    /// Renders the stable plan tree for a SQL string (the `EXPLAIN` text),
    /// including any rewrite rule that fired.
    pub fn explain(&self, sql_text: &str) -> Result<String, QueryError> {
        self.explain_statement(&parse(sql_text)?)
    }

    /// [`Session::explain`] for an already parsed statement (a write renders
    /// its one-line summary on any session: nothing is executed).
    pub fn explain_statement(&self, stmt: &Statement) -> Result<String, QueryError> {
        match stmt {
            Statement::Select(select) => Ok(self.compile_select(select, true)?.explain()),
            write => self.executor.explain_statement(write),
        }
    }

    /// A snapshot of the plan-cache counters (both key spaces together).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let cache = self.state.cache.lock().unwrap_or_else(PoisonError::into_inner);
        PlanCacheStats {
            hits: self.state.hits.load(Ordering::Relaxed),
            misses: self.state.misses.load(Ordering::Relaxed),
            entries: cache.iter().map(BTreeMap::len).sum(),
        }
    }

    fn statement(&self, sql_text: &str, plan: Arc<PhysicalPlan>) -> PreparedStatement {
        PreparedStatement {
            executor: self.executor.clone(),
            sql: sql_text.to_string(),
            plan,
        }
    }

    /// Compiles one SELECT.  A session is a read path — writes run through
    /// [`Executor::execute`] or the session's owner (Synergy: the
    /// transaction layer, which logs, locks and maintains the views) — so
    /// it refuses to prepare a write rather than run it around that owner.
    fn compile(&self, stmt: &Statement, rewrite: bool) -> Result<Arc<PhysicalPlan>, QueryError> {
        match stmt {
            Statement::Select(select) => Ok(Arc::new(self.compile_select(select, rewrite)?)),
            _ => Err(QueryError::Unsupported(
                "a session is a read path: execute writes through `Executor::execute` or the \
                 session's owner (`SynergySystem::execute`)"
                    .into(),
            )),
        }
    }

    /// Runs rewrite (when `rewrite` and the rule applies) + bind + optimize
    /// for one SELECT.
    fn compile_select(
        &self,
        select: &SelectStatement,
        rewrite: bool,
    ) -> Result<PhysicalPlan, QueryError> {
        let rewriter = self.rewriter.as_ref().filter(|_| rewrite);
        let rewritten = rewriter.and_then(|rewriter| {
            let (rewritten, note) = rewriter.rewrite_select(select)?;
            let rule = rewriter.rule_name().to_string();
            Some((rewritten, RewriteNote { rule, note }))
        });
        match rewritten {
            Some((select, note)) => optimize::bind_and_plan(&self.executor, &select, Some(note)),
            None => optimize::bind_and_plan(&self.executor, select, None),
        }
    }
}

/// A SELECT compiled once and executable many times with fresh
/// positional parameters: it holds the bound, optimized [`PhysicalPlan`],
/// and execution binds only the parameter values.
#[derive(Clone)]
pub struct PreparedStatement {
    executor: Executor,
    sql: String,
    plan: Arc<PhysicalPlan>,
}

impl PreparedStatement {
    /// Executes with the given positional parameters.
    pub fn execute(&self, params: &[Value]) -> Result<QueryResult, QueryError> {
        self.executor.execute_plan(&self.plan, params)
    }

    /// The statement text this handle was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The compiled plan (its `explain()` renders the plan tree).
    pub fn plan(&self) -> &Arc<PhysicalPlan> {
        &self.plan
    }
}

fn parse(sql_text: &str) -> Result<Statement, QueryError> {
    sql::parse_statement(sql_text).map_err(|e| QueryError::Unsupported(e.to_string()))
}
