//! Region-parallel scans: the resume-key region walk of [`ScanCursor`],
//! partitioned into modelled workers.
//!
//! [`Cluster::par_scan_stream`] snapshots the table's region boundaries and
//! carves the scan range into up to `threads` **contiguous sub-ranges**, one
//! serial [`ScanCursor`] each — one modelled region-server worker.  The
//! merged cursor drains the workers one after the other, in key-range order,
//! on the caller's thread: because the sub-ranges are disjoint and sorted,
//! concatenation *is* the global key order, and the parallel cursor returns
//! exactly what the serial cursor would.  Each page re-locates its region by
//! resume key, so a worker survives a split that lands between its pages.
//!
//! # Sim accounting
//!
//! The parallelism is a cost model, not OS threads.  Each worker charges its
//! sim costs into a **private** clock that starts at the instant the scan
//! opens on the shared timeline, and at exhaustion (or drop) the deltas
//! merge per the workspace rule: **elapsed = max of workers** charged once
//! into the shared clock ([`simclock::merge_elapsed`]), **cost counters =
//! sum** (workers bump the shared atomic [`crate::OpCounters`] directly).  A
//! worker's clock delta is a function of the pages it fetched alone, so the
//! merge is deterministic; a limited or abandoned scan charges its workers'
//! opens plus the pages it actually read.  `threads <= 1` routes to the
//! serial [`Cluster::scan_stream`] unchanged, so single-threaded figures are
//! byte-identical to the serial pipeline.
//!
//! # Failure contract
//!
//! The same in-band contract as the serial cursor's
//! ([`ParScanCursor::try_next`] is the only pull): a failed page fetch ends
//! the scan, so the merged cursor yields every row before the failed page
//! **in key order** — the earlier sub-ranges whole, then the failing
//! worker's rows — then the error once, then the end.  Later sub-ranges are
//! never read; a worker's retries resume its page, so no row is yielded
//! twice.
//!
//! Faults apply to a parallel scan as to a serial one.  Every worker's clock
//! reads shared-timeline instants, so a fault plan's outage windows and
//! crash schedule are compared against the time the worker would run at.
//! Fault state is shared, too: a worker sees every fault event an
//! earlier-drained worker already fired — a server crash fired at a later
//! instant of worker 1's clock is already down when worker 2 starts at the
//! open instant.

use crate::cell::Bytes;
use crate::cluster::Cluster;
use crate::cursor::ScanCursor;
use crate::error::StoreResult;
use crate::ops::Scan;
use crate::table::ResultRow;
use simclock::{merge_elapsed, WorkerClock};

/// One modelled worker of a parallel scan: a serial cursor over a contiguous
/// sub-range, charging into a private clock.
struct ScanWorker {
    cursor: ScanCursor,
    clock: WorkerClock,
}

/// A region-parallel scan cursor; yields rows in global key order, exactly
/// like the serial [`ScanCursor`] it partitions.
pub struct ParScanCursor {
    inner: ParInner,
}

enum ParInner {
    /// `threads <= 1` or a single-region table: the serial cursor verbatim.
    Serial(Box<ScanCursor>),
    Parallel(ParState),
}

struct ParState {
    /// Handle bound to the shared cluster clock (the merge target).
    cluster: Cluster,
    /// Workers in key-range order.
    workers: Vec<ScanWorker>,
    /// Index of the worker currently being drained.
    current: usize,
    /// Global row limit still unemitted (`usize::MAX` when unlimited).
    remaining: usize,
    /// Worker clocks already merged into the shared clock.
    merged: bool,
}

impl Cluster {
    /// Opens a region-parallel streaming scan over `table` using up to
    /// `threads` workers.  Yields rows in global key order; results are
    /// identical to [`Cluster::scan_stream`].  With `threads <= 1` (or a
    /// table whose regions cannot be partitioned) this *is* the serial
    /// cursor.  See the module docs for the sim-clock merge rules.
    // lint-allow(cost-accounting): reads region boundaries only to partition; each worker's `scan_stream_inner` charges
    pub fn par_scan_stream(
        &self,
        table: &str,
        scan: Scan,
        threads: usize,
    ) -> StoreResult<ParScanCursor> {
        // Candidate split keys: the region start boundaries strictly inside
        // the scan range, snapshotted now.  (A later split only refines a
        // sub-range; each worker's cursor re-locates regions per page.)  A
        // missing table and an inverted range have none, so both reach the
        // serial open below, which reports them.
        let splits: Vec<Bytes> = match (threads > 1).then(|| self.table(table)) {
            Some(Ok(state)) => {
                let regions = state.regions.read();
                let starts = regions.iter().skip(1).map(|r| r.start.clone());
                starts
                    .filter(|s| {
                        (scan.start.is_empty() || s.as_slice() > scan.start.as_slice())
                            && (scan.stop.is_empty() || s.as_slice() < scan.stop.as_slice())
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        let parts = threads.min(splits.len() + 1);
        if parts <= 1 {
            return Ok(ParScanCursor {
                inner: ParInner::Serial(Box::new(self.scan_stream(table, scan)?)),
            });
        }

        // `parts` contiguous sub-ranges: the scan bounds plus `parts - 1`
        // split keys spread evenly across the region boundaries.
        let mut bounds: Vec<Bytes> = Vec::with_capacity(parts + 1);
        bounds.push(scan.start.clone());
        for i in 1..parts {
            bounds.push(splits[i * splits.len() / parts].clone());
        }
        bounds.push(scan.stop.clone());

        let opened_at = self.clock().now();
        let mut workers = Vec::with_capacity(parts);
        for window in bounds.windows(2) {
            let mut sub = scan.clone();
            sub.start = window[0].clone();
            sub.stop = window[1].clone();
            let clock = WorkerClock::starting_at(opened_at);
            let handle = self.with_charge_sink(clock.clock().clone());
            let cursor = handle.scan_stream_inner(table, sub, false)?;
            workers.push(ScanWorker { cursor, clock });
        }
        // One logical scan in the counters, no matter how many workers —
        // and none when an open was refused.
        self.record_scan_open();

        let remaining = if scan.limit == 0 { usize::MAX } else { scan.limit };
        Ok(ParScanCursor {
            inner: ParInner::Parallel(ParState {
                cluster: self.clone(),
                workers,
                current: 0,
                remaining,
                merged: false,
            }),
        })
    }
}

impl ParScanCursor {
    /// Number of scan workers backing this cursor (1 when serial).
    pub fn workers(&self) -> usize {
        match &self.inner {
            ParInner::Serial(_) => 1,
            ParInner::Parallel(state) => state.workers.len(),
        }
    }

    /// The fallible pull — the cursor's only one: the next row in global key
    /// order, `Ok(None)` at the end, or a failed page's error at that page's
    /// position in key order (see the module docs' failure contract).
    pub fn try_next(&mut self) -> StoreResult<Option<ResultRow>> {
        match &mut self.inner {
            ParInner::Serial(cursor) => cursor.try_next(),
            ParInner::Parallel(state) => state.next_row(),
        }
    }
}

impl ParState {
    /// The next row of the worker being drained, moving on to the next
    /// sub-range when it is exhausted.
    fn next_row(&mut self) -> StoreResult<Option<ResultRow>> {
        while self.remaining > 0 {
            let Some(worker) = self.workers.get_mut(self.current) else {
                break;
            };
            match worker.cursor.try_next() {
                Ok(Some(row)) => {
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        self.merge_clocks();
                    }
                    return Ok(Some(row));
                }
                Ok(None) => self.current += 1,
                Err(error) => {
                    // The scan ends here: later sub-ranges' rows would skip
                    // the failed worker's missing ones.
                    self.current = self.workers.len();
                    return Err(error);
                }
            }
        }
        self.merge_clocks();
        Ok(None)
    }

    /// Charges the modelled fan-out's elapsed time — the max of the private
    /// worker clocks — into the shared cluster clock, exactly once.
    fn merge_clocks(&mut self) {
        if self.merged {
            return;
        }
        self.merged = true;
        let elapsed = merge_elapsed(self.workers.iter().map(|w| w.clock.elapsed()));
        self.cluster.charge(elapsed);
    }
}

impl Drop for ParState {
    fn drop(&mut self) {
        // An abandoned cursor still owes the timeline the pages its workers
        // actually read.
        self.merge_clocks();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::error::StoreError;
    use crate::ops::Put;
    use crate::table::TableSchema;
    use simclock::SimDuration;

    fn loaded_cluster(rows: usize) -> Cluster {
        let c = Cluster::new(ClusterConfig {
            region_split_bytes: 2_000,
            ..ClusterConfig::default()
        });
        c.create_table(TableSchema::new("t").with_family("cf")).unwrap();
        c.bulk_load(
            "t",
            (0..rows).map(|i| Put::new(format!("r{i:05}")).with("cf", "v", vec![b'x'; 64])),
        )
        .unwrap();
        c
    }

    /// Drains a cursor through its fallible pull; no fault-free scan fails.
    fn drain(mut cursor: ParScanCursor) -> Vec<ResultRow> {
        std::iter::from_fn(|| cursor.try_next().unwrap()).collect()
    }

    #[test]
    fn parallel_scan_equals_serial_scan() {
        let c = loaded_cluster(2_000);
        let serial: Vec<ResultRow> = c.scan_stream("t", Scan::all()).unwrap().collect();
        for threads in [2, 3, 4, 8] {
            let cursor = c.par_scan_stream("t", Scan::all(), threads).unwrap();
            assert!(cursor.workers() > 1, "table has regions to partition");
            assert_eq!(drain(cursor), serial, "threads={threads}");
        }
    }

    #[test]
    fn threads_one_is_the_serial_cursor_with_identical_charges() {
        let c = loaded_cluster(1_000);
        let (_, serial) = c
            .clock()
            .measure(|| c.scan_stream("t", Scan::all()).unwrap().count());
        let (_, par_one) = c
            .clock()
            .measure(|| drain(c.par_scan_stream("t", Scan::all(), 1).unwrap()).len());
        assert_eq!(serial, par_one, "threads=1 must charge byte-identically");
    }

    #[test]
    fn parallel_sim_time_is_the_worker_max_and_beats_serial() {
        let c = loaded_cluster(3_000);
        let (_, serial) = c
            .clock()
            .measure(|| c.scan_stream("t", Scan::all()).unwrap().count());
        let (_, parallel) = c
            .clock()
            .measure(|| drain(c.par_scan_stream("t", Scan::all(), 4).unwrap()).len());
        assert!(parallel > SimDuration::ZERO);
        assert!(
            parallel < serial,
            "4 workers must merge to less elapsed sim time than the serial walk \
             (parallel={parallel} serial={serial})"
        );
    }

    #[test]
    fn parallel_sim_time_is_deterministic_across_runs() {
        let deltas: Vec<SimDuration> = (0..3)
            .map(|_| {
                let c = loaded_cluster(1_500);
                let (_, elapsed) = c
                    .clock()
                    .measure(|| drain(c.par_scan_stream("t", Scan::all(), 4).unwrap()).len());
                elapsed
            })
            .collect();
        assert_eq!(deltas[0], deltas[1]);
        assert_eq!(deltas[1], deltas[2]);
    }

    /// A limited parallel scan reads only its limit: the first worker's
    /// sub-range holds the 37 rows, and no later worker fetches a page.
    #[test]
    fn limit_is_honoured_globally() {
        let c = loaded_cluster(2_000);
        let before = c.metrics().ops;
        let rows = drain(c.par_scan_stream("t", Scan::all().with_limit(37), 4).unwrap());
        let scanned = c.metrics().ops.delta_since(&before).scanned_rows;
        let serial: Vec<ResultRow> = c
            .scan_stream("t", Scan::all().with_limit(37))
            .unwrap()
            .collect();
        assert_eq!(rows, serial);
        assert_eq!(rows.len(), 37);
        assert_eq!(scanned, 37, "store rows read by a 4-worker scan limited to 37");
    }

    #[test]
    fn one_logical_scan_in_the_counters() {
        let c = loaded_cluster(2_000);
        let before = c.metrics().ops;
        let n = drain(c.par_scan_stream("t", Scan::all(), 4).unwrap()).len();
        let delta = c.metrics().ops.delta_since(&before);
        assert_eq!(delta.scans, 1, "a parallel scan is one logical scan");
        assert_eq!(delta.scanned_rows, n as u64, "row tally sums across workers");
    }

    #[test]
    fn abandoned_parallel_cursor_still_charges_its_pages() {
        let c = loaded_cluster(3_000);
        let before = c.clock().now();
        {
            let mut cursor = c.par_scan_stream("t", Scan::all(), 4).unwrap();
            cursor.try_next().unwrap();
        }
        assert!(c.clock().now() > before, "drop merges the partial worker clocks");
    }

    /// A failure is never an early end: a crash between two pages of a
    /// 4-worker scan surfaces `ClusterDown` in-band, once, after the rows
    /// already fetched in key order; and a crashed cluster refuses the open.
    #[test]
    fn crash_between_rounds_surfaces_cluster_down_not_a_short_stream() {
        let c = loaded_cluster(3_000);
        let serial = c.scan("t", Scan::all()).unwrap();
        let mut cursor = c.par_scan_stream("t", Scan::all(), 4).unwrap();
        assert_eq!(cursor.workers(), 4);
        let mut rows = vec![cursor.try_next().unwrap().unwrap()];
        c.crash();
        let error = loop {
            match cursor.try_next() {
                Ok(Some(row)) => rows.push(row),
                Ok(None) => panic!("a crashed scan ended after {} of 3000 rows", rows.len()),
                Err(error) => break error,
            }
        };
        assert_eq!(error, StoreError::ClusterDown);
        assert!(rows.len() < serial.len(), "pages are pulled on demand");
        assert_eq!(rows, serial[..rows.len()], "the rows before the failure, in key order");
        assert_eq!(cursor.try_next(), Ok(None), "the error is reported once");

        let (clock, scans) = (c.clock().now(), c.metrics().ops.scans);
        assert_eq!(
            c.par_scan_stream("t", Scan::all(), 4).map(drop),
            Err(StoreError::ClusterDown)
        );
        assert_eq!(c.clock().now(), clock, "a refused parallel open charged");
        assert_eq!(c.metrics().ops.scans, scans, "a refused parallel open counted");
    }
}
