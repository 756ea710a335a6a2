//! A logged put must cost the same after 40 000 writes as after none.
//!
//! The write-ahead log is not truncated between checkpoints, and every
//! mutation asks it for the size of the pending group-commit batch under the
//! table's write lock.  When that question was answered by filtering the
//! whole log, write latency was a function of run length (the last 2 000 of
//! 40 000 puts cost 124x the first 2 000 in a release build, 49x in a debug
//! one); with the watermark it is flat.  The puts cycle over 64 rows, so
//! each column also piles up 600 versions: a put above the newest version
//! must stay O(1) as well.  The 3x allowance keeps the test quiet on a busy
//! two-core box in a debug build.

use nosql_store::ops::Put;
use nosql_store::{Cluster, ClusterConfig, TableSchema};
use std::time::{Duration, Instant};

#[test]
fn logged_put_latency_does_not_grow_with_the_log() {
    const PUTS: usize = 40_000;
    const WINDOW: usize = 2_000;
    let cluster = Cluster::new(ClusterConfig::default());
    cluster.create_table(TableSchema::new("t").with_family("cf")).unwrap();
    let puts: Vec<Put> = (0..64)
        .map(|r| Put::new(format!("row{r:02}")).with("cf", "total", "12345.67"))
        .collect();

    let mut first = Duration::ZERO;
    let mut last = Duration::ZERO;
    for i in 0..PUTS {
        let put = puts[i % puts.len()].clone();
        let start = Instant::now();
        cluster.put("t", put).unwrap();
        let took = start.elapsed();
        if i < WINDOW {
            first += took;
        } else if i >= PUTS - WINDOW {
            last += took;
        }
    }
    let logged: usize = (0..ClusterConfig::default().region_servers)
        .map(|server| cluster.wal(server).len())
        .sum();
    assert_eq!(logged, PUTS, "every put is in a log, none truncated");
    assert!(
        last <= first * 3,
        "the last {WINDOW} of {PUTS} logged puts took {last:?}, the first {WINDOW} took {first:?}"
    );
}
