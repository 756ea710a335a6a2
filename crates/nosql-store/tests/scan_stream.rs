//! Property tests for the streaming scan cursor: for arbitrary data sets,
//! key ranges and row limits — including tables that have
//! split into multiple regions — collecting a [`nosql_store::ScanCursor`]
//! must produce exactly what the one-shot `Cluster::scan` returns, and both
//! must agree with an independent `BTreeMap` reference model.

use nosql_store::ops::{Put, Scan};
use nosql_store::{Cluster, ClusterConfig, ResultRow, TableSchema};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn key_str(key: u16) -> String {
    format!("row{key:05}")
}

/// Loads `writes` as individual puts (each gets its own cluster timestamp,
/// so a later write to a key is its newer version) and returns the cluster
/// plus a model mapping each key to its newest value.
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
                // Pad the value so small write sets still trigger splits.
                [Put::new(key_str(*key)).with("cf", "v", vec![*value; 48])],
            )
            .unwrap();
        model.insert(key_str(*key), *value);
    }
    (cluster, model)
}

/// The rows the model predicts for a scan of `[start, stop)` with the given
/// limit (0 = unlimited): per key, its newest version.
fn model_scan(model: &BTreeMap<String, u8>, start: &str, stop: &str, limit: usize) -> Vec<(String, u8)> {
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_stream_collected_equals_scan_and_model(
        writes in proptest::collection::vec((0u16..400, any::<u8>()), 1..120),
        start in 0u16..400,
        len in 0u16..400,
        limit in 0usize..40,
    ) {
        // A small split threshold so larger write sets span several regions.
        let (cluster, model) = build(&writes, 1_500);
        let regions = cluster.metrics().tables["t"].regions;

        let start_key = key_str(start);
        let stop_key = key_str(start.saturating_add(len));
        let scan = Scan::range(start_key.clone(), stop_key.clone()).with_limit(limit);

        let collected = cluster.scan("t", scan.clone()).unwrap();
        let streamed: Vec<ResultRow> = cluster.scan_stream("t", scan).unwrap().collect();
        prop_assert_eq!(&collected, &streamed);

        let expected = model_scan(&model, &start_key, &stop_key, limit);
        prop_assert_eq!(streamed.len(), expected.len(), "regions={}", regions);
        for (row, (key, value)) in streamed.iter().zip(&expected) {
            prop_assert_eq!(&row.key_str(), key);
            prop_assert_eq!(row.value("cf", "v").unwrap()[0], *value);
        }
    }

    #[test]
    fn full_stream_spans_region_splits_in_key_order(
        writes in proptest::collection::vec((0u16..1000, any::<u8>()), 40..160),
    ) {
        let (cluster, model) = build(&writes, 1_000);
        prop_assert!(
            cluster.metrics().tables["t"].regions > 1,
            "write set should force at least one split"
        );
        let streamed: Vec<ResultRow> =
            cluster.scan_stream("t", Scan::all()).unwrap().collect();
        prop_assert_eq!(streamed.len(), model.len(), "one row per distinct key");
        let keys: Vec<String> = streamed.iter().map(ResultRow::key_str).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        prop_assert_eq!(keys, sorted);
    }
}
