//! Golden-plan snapshot tests: the `EXPLAIN` rendering for the
//! micro-benchmark query shapes is pinned against committed text under
//! `tests/golden/`, at `threads = 1` and `threads = 4`.
//!
//! What the snapshots prove:
//!
//! * **Q1/Q2 baseline** — the join algorithm plans as left-deep hash joins
//!   over full scans, and at 4 threads every join is hash-**partitioned**
//!   and every full scan fans out region-**parallel**;
//! * **Q1/Q2 Synergy** — the view-rewrite planner rule fires and is
//!   visible as a `Rewrite` node substituting the materialized view for
//!   the base tables;
//! * **LIMIT-50** — a bare LIMIT over the rewritten view pushes the row
//!   limit into the store scan (`store-pushdown`) and pins the source to
//!   the serial cursor even at 4 threads;
//! * **ORDER BY + LIMIT** — plans as a bounded `TopK` (per-worker heaps at
//!   4 threads) under the final projection;
//! * **Best sellers** (TPC-W Q10) — GROUP BY plans as an `Aggregate`
//!   under a full `Sort` and a plain `Limit` (the aggregate output is
//!   small; no top-k heap);
//! * **Residual join / cross join / keyed filter** — a cross-alias
//!   non-equi predicate runs as a `Filter` above the join, two aliases
//!   with no join predicate run as a `CrossJoin`, and single-alias
//!   predicates ride on their `Scan` as `filter=[…]`;
//! * **Delta plans** — the incremental maintenance plans compiled from the
//!   views' defining joins: the Orders side probes its covered maintenance
//!   index (`MI_Orders__o_c_id`), the Order_line side probes by key prefix
//!   (its FK is the leading key column), and parents probe by primary key.
//!
//! Plan text is deterministic by construction (no row counts or timings in
//! the rendering), so these are exact string comparisons.

use query::{Executor, QueryError, QueryResult};
use sql::{parse_statement, Statement};
use tpcw::micro::{micro_queries, MicroBench};
use tpcw::systems::HBaseSystem;
use tpcw::{join_queries, SystemKind, TpcwDataset, TpcwScale};

fn limit50_query() -> Statement {
    parse_statement("SELECT * FROM Customer AS c, Orders AS o WHERE c.c_id = o.o_c_id LIMIT 50")
        .unwrap()
}

fn topk_query() -> Statement {
    parse_statement(
        "SELECT c.c_uname, o.o_total FROM Customer AS c, Orders AS o \
         WHERE c.c_id = o.o_c_id ORDER BY o.o_date DESC, o.o_id DESC LIMIT 10",
    )
    .unwrap()
}

fn residual_join_query() -> Statement {
    parse_statement(
        "SELECT c.c_uname, o.o_id FROM Customer AS c, Orders AS o \
         WHERE c.c_id = o.o_c_id AND o.o_id > c.c_id",
    )
    .unwrap()
}

fn cross_join_query() -> Statement {
    parse_statement(
        "SELECT c.c_uname, o.o_id FROM Customer AS c, Orders AS o \
         WHERE c.c_id = 1 AND o.o_id <= 3",
    )
    .unwrap()
}

fn keyed_filter_query() -> Statement {
    parse_statement("SELECT * FROM Orders WHERE o_id = 7 AND o_total > 100.0").unwrap()
}

/// TPC-W Q10 (best sellers in a subject) and its parameters.
fn bestsellers_query(scale: TpcwScale) -> (Statement, Vec<relational::Value>) {
    let q10 = join_queries().into_iter().find(|q| q.id == "Q10").unwrap();
    (q10.statement(), q10.params(scale, 0))
}

/// A TPC-W deployment without views (the Baseline system) at the smallest
/// scale, whose executor plans Q10 at `threads` workers.
fn tpcw_executor(threads: usize) -> (Executor, TpcwScale) {
    let scale = TpcwScale::new(10);
    let system = HBaseSystem::build(SystemKind::Baseline, &TpcwDataset::generate(scale));
    (
        system.inner().executor().clone().with_threads(threads),
        scale,
    )
}

fn assert_golden(actual: &str, expected: &str, what: &str) {
    assert_eq!(
        actual, expected,
        "golden plan mismatch for {what}\n--- actual ---\n{actual}\n--- expected ---\n{expected}"
    );
}

fn check_at(threads: usize, goldens: &[(&str, &str)]) {
    let bench = MicroBench::build_with_threads(20, threads).expect("micro benchmark builds");
    let system = bench.system();
    let queries = micro_queries();
    for (name, expected) in goldens {
        let actual = match *name {
            "q1_baseline" => system.executor().explain_statement(&queries[0]).unwrap(),
            "q2_baseline" => system.executor().explain_statement(&queries[1]).unwrap(),
            "q1_synergy" => system.explain(&queries[0]).unwrap(),
            "q2_synergy" => system.explain(&queries[1]).unwrap(),
            "limit50_synergy" => system.explain(&limit50_query()).unwrap(),
            "topk_baseline" => system.executor().explain_statement(&topk_query()).unwrap(),
            "residual_join_baseline" => system
                .executor()
                .explain_statement(&residual_join_query())
                .unwrap(),
            "cross_join_baseline" => system
                .executor()
                .explain_statement(&cross_join_query())
                .unwrap(),
            "keyed_filter_baseline" => system
                .executor()
                .explain_statement(&keyed_filter_query())
                .unwrap(),
            "bestsellers_baseline" => {
                let (executor, scale) = tpcw_executor(threads);
                executor
                    .explain_statement(&bestsellers_query(scale).0)
                    .unwrap()
            }
            other => panic!("unknown golden {other}"),
        };
        assert_golden(&actual, expected, &format!("{name} at threads={threads}"));
    }
}

#[test]
fn golden_plans_serial() {
    check_at(
        1,
        &[
            ("q1_baseline", include_str!("golden/q1_baseline_t1.txt")),
            ("q2_baseline", include_str!("golden/q2_baseline_t1.txt")),
            ("q1_synergy", include_str!("golden/q1_synergy_t1.txt")),
            ("q2_synergy", include_str!("golden/q2_synergy_t1.txt")),
            (
                "limit50_synergy",
                include_str!("golden/limit50_synergy_t1.txt"),
            ),
            ("topk_baseline", include_str!("golden/topk_baseline_t1.txt")),
            (
                "residual_join_baseline",
                include_str!("golden/residual_join_baseline_t1.txt"),
            ),
            (
                "cross_join_baseline",
                include_str!("golden/cross_join_baseline_t1.txt"),
            ),
            (
                "keyed_filter_baseline",
                include_str!("golden/keyed_filter_baseline_t1.txt"),
            ),
            (
                "bestsellers_baseline",
                include_str!("golden/bestsellers_baseline_t1.txt"),
            ),
        ],
    );
}

#[test]
fn golden_plans_four_threads() {
    check_at(
        4,
        &[
            ("q1_baseline", include_str!("golden/q1_baseline_t4.txt")),
            ("q2_baseline", include_str!("golden/q2_baseline_t4.txt")),
            ("q1_synergy", include_str!("golden/q1_synergy_t4.txt")),
            ("q2_synergy", include_str!("golden/q2_synergy_t4.txt")),
            (
                "limit50_synergy",
                include_str!("golden/limit50_synergy_t4.txt"),
            ),
            ("topk_baseline", include_str!("golden/topk_baseline_t4.txt")),
            (
                "residual_join_baseline",
                include_str!("golden/residual_join_baseline_t4.txt"),
            ),
            (
                "cross_join_baseline",
                include_str!("golden/cross_join_baseline_t4.txt"),
            ),
            (
                "keyed_filter_baseline",
                include_str!("golden/keyed_filter_baseline_t4.txt"),
            ),
            (
                "bestsellers_baseline",
                include_str!("golden/bestsellers_baseline_t4.txt"),
            ),
        ],
    );
}

/// The view-maintenance delta plans, rendered through
/// `SynergySystem::explain_delta_plan` and pinned as golden text.  The
/// plan shape is thread-count independent (maintenance deltas apply on
/// the write path), so one deployment suffices.
#[test]
fn golden_delta_plans() {
    let bench = MicroBench::build_with_threads(20, 1).expect("micro benchmark builds");
    let system = bench.system();
    for (display, golden) in [
        ("Customer-Orders", include_str!("golden/delta_q1.txt")),
        (
            "Customer-Orders-Order_line",
            include_str!("golden/delta_q2.txt"),
        ),
    ] {
        let view = system
            .selection()
            .views
            .iter()
            .find(|v| v.display_name() == display)
            .expect("micro view selected");
        let actual = system.explain_delta_plan(view).unwrap();
        assert_golden(&actual, golden, &format!("delta plan of {display}"));
    }
}

/// The structural assertions the ISSUE calls out, independent of exact
/// golden text (so the intent survives a rendering change that regenerates
/// the goldens).
#[test]
fn partitioned_join_and_rewrite_appear_where_required() {
    let serial = MicroBench::build_with_threads(20, 1).unwrap();
    let parallel = MicroBench::build_with_threads(20, 4).unwrap();
    let q2 = &micro_queries()[1];

    // EXPLAIN for Q2 shows the Synergy rule substituting the view.
    let rewritten = serial.system().explain(q2).unwrap();
    assert!(rewritten.contains("Rewrite [synergy-view-rewrite]"));
    assert!(rewritten.contains("V_Customer__Orders__Order_line"));

    // threads=4 picks the partitioned join; threads=1 never mentions it.
    let base_serial = serial.system().executor().explain_statement(q2).unwrap();
    let base_parallel = parallel.system().executor().explain_statement(q2).unwrap();
    assert!(!base_serial.contains("partitioned"));
    assert!(base_parallel.contains("partitioned=x4"));

    // The bare-LIMIT shape stays serial at any width (early termination).
    let limited = parallel.system().explain(&limit50_query()).unwrap();
    assert!(limited.contains("store-pushdown"));
    assert!(!limited.contains("parallel"));
}

/// What one golden statement answers and costs: its result rows (count and
/// an FNV-1a digest of their rendering, in order), the store ops it issued
/// as `[gets, scans, scanned_rows]`, its peak rows resident and its
/// simulated nanoseconds.
#[derive(Debug, PartialEq)]
struct Observed {
    rows: usize,
    digest: u64,
    ops: [u64; 3],
    peak: usize,
    sim_ns: u64,
}

fn observe(
    cluster: &nosql_store::Cluster,
    run: impl FnOnce() -> Result<QueryResult, String>,
) -> Observed {
    let before = cluster.metrics().ops;
    let (result, sim) = cluster.clock().measure(run);
    let result = result.expect("golden statement runs");
    let ops = cluster.metrics().ops.delta_since(&before);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for row in &result.rows {
        for byte in format!("{row};").bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Observed {
        rows: result.rows.len(),
        digest,
        ops: [ops.gets, ops.scans, ops.scanned_rows],
        peak: result.peak_rows_resident,
        sim_ns: sim.as_nanos(),
    }
}

/// Every golden statement, executed in a fixed order on a fresh deployment
/// per width, in the order `(name, observed)`.
fn observe_all(threads: usize) -> Vec<(&'static str, Observed)> {
    let bench = MicroBench::build_with_threads(20, threads).expect("micro benchmark builds");
    let system = bench.system();
    let cluster = system.cluster();
    let queries = micro_queries();
    let base = |stmt: &Statement| {
        observe(cluster, || {
            system
                .executor()
                .execute(stmt, &[])
                .map_err(|e| e.to_string())
        })
    };
    let routed = |stmt: &Statement| {
        observe(cluster, || {
            system.execute(stmt, &[]).map_err(|e| e.to_string())
        })
    };
    let mut out = vec![
        ("q1_baseline", base(&queries[0])),
        ("q2_baseline", base(&queries[1])),
        ("q1_synergy", routed(&queries[0])),
        ("q2_synergy", routed(&queries[1])),
        ("limit50_synergy", routed(&limit50_query())),
        ("topk_baseline", base(&topk_query())),
        ("residual_join_baseline", base(&residual_join_query())),
        ("cross_join_baseline", base(&cross_join_query())),
        ("keyed_filter_baseline", base(&keyed_filter_query())),
    ];
    let (executor, scale) = tpcw_executor(threads);
    let (q10, params) = bestsellers_query(scale);
    let bestsellers = observe(executor.cluster(), || {
        executor
            .execute(&q10, &params)
            .map_err(|e: QueryError| e.to_string())
    });
    out.push(("bestsellers_baseline", bestsellers));
    out
}

/// The answers and costs of every golden statement, recorded before the
/// plan tree became the executed tree: a refactor of planning or execution
/// must leave every value equal.
#[test]
fn golden_statements_answer_and_charge_as_pinned() {
    #[rustfmt::skip]
    let pinned: Vec<(&str, usize, Observed)> = vec![
        (
            "q1_baseline",
            1,
            Observed {
                rows: 200,
                digest: 12624016441145288139,
                ops: [0, 2, 220],
                peak: 400,
                sim_ns: 7356472,
            },
        ),
        (
            "q2_baseline",
            1,
            Observed {
                rows: 2000,
                digest: 11619090126116911579,
                ops: [0, 3, 2220],
                peak: 4200,
                sim_ns: 41470524,
            },
        ),
        (
            "q1_synergy",
            1,
            Observed {
                rows: 200,
                digest: 17411300785230661727,
                ops: [0, 1, 200],
                peak: 200,
                sim_ns: 2586808,
            },
        ),
        (
            "q2_synergy",
            1,
            Observed {
                rows: 2000,
                digest: 997928785198340627,
                ops: [0, 1, 2000],
                peak: 2000,
                sim_ns: 8422292,
            },
        ),
        (
            "limit50_synergy",
            1,
            Observed {
                rows: 50,
                digest: 7865761943802888004,
                ops: [0, 1, 50],
                peak: 50,
                sim_ns: 2221922,
            },
        ),
        (
            "topk_baseline",
            1,
            Observed {
                rows: 10,
                digest: 9561572018672741131,
                ops: [0, 2, 220],
                peak: 210,
                sim_ns: 7304252,
            },
        ),
        (
            "residual_join_baseline",
            1,
            Observed {
                rows: 199,
                digest: 977239416776547213,
                ops: [0, 2, 220],
                peak: 399,
                sim_ns: 7320302,
            },
        ),
        (
            "cross_join_baseline",
            1,
            Observed {
                rows: 3,
                digest: 9338402459683217472,
                ops: [1, 1, 200],
                peak: 6,
                sim_ns: 3482718,
            },
        ),
        (
            "keyed_filter_baseline",
            1,
            Observed {
                rows: 1,
                digest: 12002516009037045317,
                ops: [1, 0, 0],
                peak: 1,
                sim_ns: 1020250,
            },
        ),
        (
            "bestsellers_baseline",
            1,
            Observed {
                rows: 11,
                digest: 16953237675580963206,
                ops: [12, 4, 437],
                peak: 459,
                sim_ns: 27397428,
            },
        ),
        (
            "q1_baseline",
            4,
            Observed {
                rows: 200,
                digest: 12624016441145288139,
                ops: [0, 2, 220],
                peak: 420,
                sim_ns: 7123972,
            },
        ),
        (
            "q2_baseline",
            4,
            Observed {
                rows: 2000,
                digest: 11619090126116911579,
                ops: [0, 3, 2220],
                peak: 4420,
                sim_ns: 38913024,
            },
        ),
        (
            "q1_synergy",
            4,
            Observed {
                rows: 200,
                digest: 17411300785230661727,
                ops: [0, 1, 200],
                peak: 200,
                sim_ns: 2586808,
            },
        ),
        (
            "q2_synergy",
            4,
            Observed {
                rows: 2000,
                digest: 997928785198340627,
                ops: [0, 1, 2000],
                peak: 2000,
                sim_ns: 8422292,
            },
        ),
        (
            "limit50_synergy",
            4,
            Observed {
                rows: 50,
                digest: 7865761943802888004,
                ops: [0, 1, 50],
                peak: 50,
                sim_ns: 2221922,
            },
        ),
        (
            "topk_baseline",
            4,
            Observed {
                rows: 10,
                digest: 9561572018672741131,
                ops: [0, 2, 220],
                peak: 420,
                sim_ns: 7071752,
            },
        ),
        (
            "residual_join_baseline",
            4,
            Observed {
                rows: 199,
                digest: 977239416776547213,
                ops: [0, 2, 220],
                peak: 419,
                sim_ns: 7087802,
            },
        ),
        (
            "cross_join_baseline",
            4,
            Observed {
                rows: 3,
                digest: 9338402459683217472,
                ops: [1, 1, 200],
                peak: 6,
                sim_ns: 3482718,
            },
        ),
        (
            "keyed_filter_baseline",
            4,
            Observed {
                rows: 1,
                digest: 12002516009037045317,
                ops: [1, 0, 0],
                peak: 1,
                sim_ns: 1020250,
            },
        ),
        (
            "bestsellers_baseline",
            4,
            Observed {
                rows: 11,
                digest: 16953237675580963206,
                ops: [12, 4, 437],
                peak: 517,
                sim_ns: 26730928,
            },
        ),
    ];
    let mut observed = Vec::new();
    for threads in [1, 4] {
        observed.extend(
            observe_all(threads)
                .into_iter()
                .map(|(name, o)| (name, threads, o)),
        );
    }
    assert_eq!(observed, pinned);
}
