//! The `traced` pass: one client, the count pass's mix again, spans recorded
//! around every call the benchmark makes into a layer, and probes of the
//! stages it cannot intercept (see `trace.rs`).

use crate::metrics::{set, Values};
use crate::ops::{Class, Op, Via};
use crate::run::{ratio, Client};
use crate::trace::{Kind, Trace};
use nosql_store::ops::{Get, Put, Scan};
use nosql_store::{TableSchema, SCAN_PAGE_ROWS};
use sql::Statement;
use synergy::{SynergySystem, TxnError};

/// The store tables a micro-benchmark read walks: the view it is rewritten
/// onto, or the base tables the join algorithm scans.
fn tables_walked(system: &SynergySystem, statement: &Statement, via: Via) -> Vec<String> {
    let walked = if via == Via::Statement {
        system.rewrite(statement)
    } else {
        statement.clone()
    };
    let Some(select) = walked.as_select() else {
        return Vec::new();
    };
    select
        .from
        .iter()
        .filter_map(|t| {
            system
                .catalog()
                .table_ci(&t.table)
                .map(|def| def.name.clone())
        })
        .collect()
}

#[derive(Default, Clone, Copy)]
struct Rest {
    ns: u64,
    ops: u64,
    rows_examined: u64,
}

impl Rest {
    fn add(&mut self, ns: u64, rows_examined: u64) {
        self.ns += ns;
        self.ops += 1;
        self.rows_examined += rows_examined;
    }

    fn us_per_krow(&self) -> f64 {
        ratio(self.ns as f64 / 1e3, self.rows_examined as f64 / 1e3)
    }
}

pub(crate) fn traced_pass(
    client: &Client,
    ops: &[Op],
    untraced_ns_per_op: f64,
    v: &mut Values,
    notes: &mut Vec<String>,
) -> Trace {
    let system = &client.system;
    let cluster = system.cluster();
    let spec = client.spec;
    let mut trace = Trace::with_capacity(ops.len() * 8 + 4096);
    let lock_root = system.candidates().trees.first().map(|t| t.root.clone());

    let mut rest_by_class = [Rest::default(); 6];
    let (mut pipeline, mut join, mut topk) = (Rest::default(), Rest::default(), Rest::default());
    let (mut decoded_rows, mut failed) = (0u64, 0u64);

    for (i, op) in ops.iter().enumerate() {
        let stmt = &spec.stmts[op.stmt];
        let through_session = matches!(stmt.via, Via::Sql | Via::Statement);
        let mut probed_ns = 0;
        let probe = |trace: &mut Trace, name: &'static str, f: &mut dyn FnMut()| {
            let id = trace.begin(name, Kind::Probe, None, Some(i));
            f();
            trace.end(id)
        };
        let mut view_routed = false;
        if stmt.class.is_read() {
            // The probe that disturbs caches most runs first, the one on the
            // op's own path (a plan-cache hit) last.
            probe(&mut trace, "query.compile", &mut || {
                std::hint::black_box(system.session().prepare_uncached(&stmt.sql).is_ok());
            });
            if through_session {
                probe(&mut trace, "synergy.rewrite", &mut || {
                    view_routed = std::hint::black_box(system.rewrite(&stmt.ast)) != stmt.ast;
                });
                probed_ns += probe(&mut trace, "query.prepare_hit", &mut || {
                    std::hint::black_box(system.session().prepare_statement(&stmt.ast).is_ok());
                });
            }
            // A read that binds no key walks its tables whole (the
            // micro-benchmark's scans): walk and decode them bare.
            if op.params.is_empty() {
                // A bare LIMIT is pushed into the store scan; so is the probe's.
                let limit = stmt
                    .ast
                    .as_select()
                    .filter(|s| s.order_by.is_empty())
                    .and_then(|s| s.limit);
                for table in tables_walked(system, &stmt.ast, stmt.via) {
                    let def = system
                        .catalog()
                        .table(&table)
                        .expect("walked table is in the catalog");
                    let scan = limit.map_or(Scan::all(), |n| Scan::all().with_limit(n));
                    let Ok(mut cursor) = cluster.scan_stream(&table, scan) else {
                        continue;
                    };
                    // Page by page, as the executor's pipeline pulls them: a
                    // page is decoded while it is still in cache.
                    loop {
                        let mut page = Vec::new();
                        probed_ns += probe(&mut trace, "store.scan_walk", &mut || {
                            page = cursor.by_ref().take(SCAN_PAGE_ROWS).collect();
                        });
                        if page.is_empty() {
                            break;
                        }
                        probed_ns += probe(&mut trace, "query.decode", &mut || {
                            for stored in &page {
                                std::hint::black_box(def.decode_row(stored));
                            }
                        });
                        decoded_rows += page.len() as u64;
                    }
                }
            }
        } else {
            if let Some(root) = &lock_root {
                probe(&mut trace, "synergy.lock_pair", &mut || {
                    if let Ok(Some(guard)) = system.locks().acquire(root, "benchmark-probe") {
                        std::hint::black_box(system.locks().release(guard).is_ok());
                    }
                });
            }
            probe(&mut trace, "synergy.plan_write", &mut || {
                std::hint::black_box(system.plan_write(&stmt.ast).is_ok());
            });
        }

        let store_before = cluster.metrics().ops;
        let root = trace.begin("op", Kind::Span, None, Some(i));
        let (reply, execute) = match stmt.via {
            Via::Sql => {
                // Exactly what `execute_sql` does: parse, then execute.
                let parse = trace.begin("sql.parse", Kind::Span, Some(root), Some(i));
                let parsed = sql::parse_statement(&stmt.sql);
                trace.end(parse);
                let execute = trace.begin("synergy.execute", Kind::Span, Some(root), Some(i));
                let reply = match parsed {
                    Ok(parsed) => system.execute(&parsed, &op.params),
                    Err(e) => Err(TxnError::Unsupported(e.to_string())),
                };
                (reply, execute)
            }
            Via::Statement => {
                let execute = trace.begin("synergy.execute", Kind::Span, Some(root), Some(i));
                (system.execute(&stmt.ast, &op.params), execute)
            }
            Via::Join | Via::JoinPar2 => {
                let executor = if stmt.via == Via::Join {
                    system.executor()
                } else {
                    &client.par2
                };
                let execute = trace.begin("query.execute", Kind::Span, Some(root), Some(i));
                (
                    executor
                        .execute(&stmt.ast, &op.params)
                        .map_err(TxnError::from),
                    execute,
                )
            }
        };
        let execute_ns = trace.end(execute);
        trace.end(root);
        let store = cluster.metrics().ops.delta_since(&store_before);
        if let Err(e) = reply {
            failed += 1;
            notes.push(format!("traced {} failed: {e}", stmt.name));
            continue;
        }

        // What the probes cannot account for: executor and store time.
        let rest = execute_ns.saturating_sub(probed_ns);
        let examined = store.scanned_rows + store.gets;
        let is_read = stmt.class.is_read();
        rest_by_class[stmt.class as usize].add(if is_read { rest } else { execute_ns }, examined);
        if is_read {
            if view_routed {
                pipeline.add(rest, examined)
            } else {
                join.add(rest, examined)
            }
            if stmt
                .ast
                .as_select()
                .is_some_and(|s| s.limit.is_some() && !s.order_by.is_empty())
            {
                topk.add(rest, examined);
            }
        }
    }

    store_probes(system, &mut trace, v);
    if let Err(e) = trace.check() {
        notes.push(format!("span arithmetic: {e}"));
    }
    if failed > 0 {
        notes.push(format!("{failed} traced ops failed"));
    }

    let (op_ns, op_n) = trace.total("op");
    let parse_ns = trace.total("sql.parse").0;
    set(v, "sql.parse_us", mean_us(&trace, "sql.parse"));
    set(v, "sql.parse_share", ratio(parse_ns as f64, op_ns as f64));
    set(
        v,
        "query.prepare_hit_us",
        mean_us(&trace, "query.prepare_hit"),
    );
    set(v, "query.compile_us", mean_us(&trace, "query.compile"));
    set(v, "synergy.rewrite_us", mean_us(&trace, "synergy.rewrite"));
    set(
        v,
        "synergy.plan_write_us",
        mean_us(&trace, "synergy.plan_write"),
    );
    set(
        v,
        "synergy.lock_pair_us",
        mean_us(&trace, "synergy.lock_pair"),
    );
    for class in Class::ALL {
        let r = &rest_by_class[class as usize];
        let layer = if class.is_read() {
            "query.execute_rest_us"
        } else {
            "synergy.write_us"
        };
        let name = format!("{layer}.{}", class.name());
        set(v, &name, ratio(r.ns as f64 / 1e3, r.ops as f64));
    }
    let decode_us = trace.total("query.decode").0 as f64 / 1e3;
    let decoded_krows = decoded_rows as f64 / 1e3;
    set(
        v,
        "query.decode_us_per_krow",
        ratio(decode_us, decoded_krows),
    );
    set(v, "query.pipeline_us_per_krow", pipeline.us_per_krow());
    set(v, "query.join_us_per_krow", join.us_per_krow());
    set(v, "query.topk_us_per_krow", topk.us_per_krow());

    // The same mix ran untraced in the count pass: the difference per op is
    // what recording spans costs.
    let traced_ns_per_op = ratio(op_ns as f64, op_n as f64);
    let overhead = ratio(traced_ns_per_op, untraced_ns_per_op) - 1.0;
    set(v, "trace.overhead_share", overhead);
    set(v, "trace.spans", trace.spans.len() as f64);
    trace
}

/// Mean duration in µs of the spans called `name`.
fn mean_us(trace: &Trace, name: &str) -> f64 {
    let (total_ns, n) = trace.total(name);
    ratio(total_ns as f64 / 1e3, n as f64)
}

/// One-off probes of the store's own calls: a point get and a scan of the
/// first base table, and puts into a scratch table of the benchmark's own.
fn store_probes(system: &SynergySystem, trace: &mut Trace, v: &mut Values) {
    const PROBES: usize = 200;
    let cluster = system.cluster();
    let Some(table) = system
        .schema()
        .relations
        .first()
        .and_then(|r| system.catalog().table_ci(&r.name))
        .map(|def| def.name.clone())
    else {
        return;
    };

    let mut rows = 0u64;
    let scan = trace.begin("store.scan", Kind::Probe, None, None);
    if let Ok(cursor) = cluster.scan_stream(&table, Scan::all()) {
        for row in cursor {
            std::hint::black_box(&row);
            rows += 1;
        }
    }
    let scan_us = trace.end(scan) as f64 / 1e3;
    set(
        v,
        "store.scan_us_per_krow",
        ratio(scan_us, rows as f64 / 1e3),
    );

    let keys: Vec<Vec<u8>> = cluster
        .scan_stream(&table, Scan::all().with_limit(PROBES))
        .map(|cursor| cursor.map(|row| row.key.to_vec()).collect())
        .unwrap_or_default();
    for key in keys {
        let get = trace.begin("store.get", Kind::Probe, None, None);
        std::hint::black_box(cluster.get(&table, Get::new(key)).is_ok());
        trace.end(get);
    }
    set(v, "store.get_us", mean_us(trace, "store.get"));

    const SCRATCH: &str = "benchmark_scratch";
    let scratch = TableSchema::new(SCRATCH).with_family("cf");
    if cluster.create_table(scratch).is_err() {
        return;
    }
    for i in 0..PROBES {
        let row = Put::new(format!("row{i:06}")).with("cf", "c", "value");
        let put = trace.begin("store.put", Kind::Probe, None, None);
        std::hint::black_box(cluster.put(SCRATCH, row).is_ok());
        trace.end(put);
    }
    set(v, "store.put_us", mean_us(trace, "store.put"));
}
