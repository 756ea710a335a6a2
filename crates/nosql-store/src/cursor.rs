//! Streaming scan cursors: pull-based iteration over a table's rows.
//!
//! A [`ScanCursor`] walks the regions of a table lazily, fetching one page
//! of rows per region-server visit instead of materializing the whole key
//! range up front.  Row limits, timestamp bounds and column projections are
//! pushed into the region walk, so a consumer that stops after `k` rows
//! only pays for roughly `k` rows of store work — the foundation the query
//! layer's pull-based operator pipeline is built on.
//!
//! Like an HBase scanner, the cursor is **row-atomic but not table-atomic**:
//! each page observes a consistent snapshot of its rows, while writes may
//! land between pages.  Higher layers that need stronger guarantees layer
//! their own protocol on top (the query executor's dirty-marker restarts,
//! the MVCC layer's timestamp bounds).
//!
//! Cost accounting is incremental and sums to exactly what the one-shot
//! [`Cluster::scan`] used to charge for a fully-consumed scan: one
//! scanner-open per region touched, one RPC per `scan_batch_rows` batch and
//! per-row / per-byte streaming costs.  A cursor dropped early simply stops
//! charging, which is the simulated counterpart of the memory/latency win.
//!
//! # Failure contract
//!
//! A scan's failure travels **in-band**: [`ScanCursor::try_next`] yields the
//! rows of every page fetched before the failed one, then the error exactly
//! once, then the end.  A page fetch is retried under the cluster's retry
//! policy before it counts as failed, and a retry resumes the *page* — faults
//! are drawn before any cursor state moves — so no row is ever yielded twice.
//! Opening a scan fails without charging anything when the table is missing
//! or the cluster is crashed.

use crate::cell::Bytes;
use crate::cluster::{Cluster, TableState};
use crate::error::{StoreError, StoreResult};
use crate::ops::Scan;
use crate::region::{Region, RegionId};
use crate::table::{ColKey, ResultRow};
use std::sync::Arc;

/// Rows fetched from the store per cursor page (the client-side buffer one
/// region-server visit fills).  Consumers that stop early scan at most this
/// many rows beyond what they consume.
pub const SCAN_PAGE_ROWS: usize = 256;

/// A lazy, resumable scan over one table.  Produced by
/// [`Cluster::scan_stream`]; yields rows in global key order.
pub struct ScanCursor {
    cluster: Cluster,
    state: Arc<TableState>,
    scan: Scan,
    /// Rows the scan may still return (`usize::MAX` when unlimited).
    remaining: usize,
    /// Key of the last row returned; the next page starts strictly after it.
    resume_after: Option<Bytes>,
    /// The scan's column projection, resolved to interned keys once.
    projection: Option<Vec<ColKey>>,
    page: std::vec::IntoIter<ResultRow>,
    /// Set at the end of the range, at the row limit, and by a page fetch
    /// that failed after exhausting the retry policy.
    exhausted: bool,
    /// Regions already charged a scanner-open (the first is covered by the
    /// open charge at cursor creation).
    opened: Vec<RegionId>,
    rows_streamed: u64,
    batch_rows: u64,
}

impl Cluster {
    /// Opens a streaming scan over `table`.  Charges the scanner-open and
    /// first-batch RPC immediately; per-row, per-byte, per-batch and
    /// additional per-region costs are charged as pages are pulled.
    pub fn scan_stream(&self, table: &str, scan: Scan) -> StoreResult<ScanCursor> {
        self.scan_stream_inner(table, scan, true)
    }

    /// [`Cluster::scan_stream`] with control over the `scans` counter bump:
    /// parallel scan workers pass `record_open = false` so the fan-out
    /// counts as **one** logical scan (recorded by the parallel cursor),
    /// while still charging each worker's scanner-open sim cost.
    pub(crate) fn scan_stream_inner(
        &self,
        table: &str,
        scan: Scan,
        record_open: bool,
    ) -> StoreResult<ScanCursor> {
        if !scan.start.is_empty() && !scan.stop.is_empty() && scan.start > scan.stop {
            return Err(StoreError::InvalidRange);
        }
        let state = self.table(table)?;
        // Only the crashed flag: the fault schedule advances at the first
        // page's `precheck`, whose instant the availability figures pin.
        if self.is_crashed() {
            return Err(StoreError::ClusterDown);
        }
        let model = self.cost_model();
        self.charge(model.scan_open + model.rpc_round_trip());
        if record_open {
            self.record_scan_open();
        }
        let remaining = if scan.limit == 0 { usize::MAX } else { scan.limit };
        let batch_rows = model.scan_batch_rows.max(1);
        let projection = Region::resolve_projection(&scan.columns);
        Ok(ScanCursor {
            cluster: self.clone(),
            state,
            scan,
            remaining,
            resume_after: None,
            projection,
            page: Vec::new().into_iter(),
            exhausted: false,
            opened: Vec::new(),
            rows_streamed: 0,
            batch_rows,
        })
    }
}

impl ScanCursor {
    /// Total rows this cursor has yielded into pages so far.
    pub fn rows_streamed(&self) -> u64 {
        self.rows_streamed
    }

    /// The fallible pull: the next row in key order, `Ok(None)` at the end of
    /// the range, or the error of a page fetch that failed after exhausting
    /// the retry policy — reported once, after which the cursor is at its
    /// end (see the module docs' failure contract).
    pub fn try_next(&mut self) -> StoreResult<Option<ResultRow>> {
        loop {
            if let Some(row) = self.page.next() {
                return Ok(Some(row));
            }
            if self.exhausted {
                return Ok(None);
            }
            self.fetch_page()?;
        }
    }

    /// Returns the remainder of the current page plus, if needed, the next
    /// fetched page; `None` once the cursor is exhausted.  This is the
    /// page-granular pull the region-parallel cursor advances workers by —
    /// between two calls the table may split and the next page re-locates
    /// its region via the resume key.
    pub(crate) fn next_page(&mut self) -> StoreResult<Option<Vec<ResultRow>>> {
        loop {
            let page: Vec<ResultRow> = self.page.by_ref().collect();
            if !page.is_empty() {
                return Ok(Some(page));
            }
            if self.exhausted {
                return Ok(None);
            }
            self.fetch_page()?;
        }
    }

    /// Fetches the next page, retrying injected faults under the cluster's
    /// retry policy.  A fetch that still fails ends the cursor and returns
    /// the error.
    fn fetch_page(&mut self) -> StoreResult<()> {
        // Clone the handle so the retry runtime isn't borrowed from the same
        // `self` the closure mutates.
        let cluster = self.cluster.clone();
        let fetched = cluster.with_retry(|| self.try_fetch_page());
        self.exhausted |= fetched.is_err();
        fetched
    }

    /// One page-fetch attempt under the table's region read lock.  Sets
    /// `exhausted` when the walk reached the end of the range (a short page)
    /// or the row limit.  Faults are injected before any cursor state
    /// changes, so a failed attempt leaves the cursor where it was and a
    /// retry resumes cleanly from the same position.
    fn try_fetch_page(&mut self) -> StoreResult<()> {
        let want = SCAN_PAGE_ROWS.min(self.remaining);
        if want == 0 {
            self.exhausted = true;
            return Ok(());
        }
        self.cluster.precheck()?;
        let mut out: Vec<ResultRow> = Vec::new();
        {
            let regions = self.state.regions.read();
            // Regions are kept in key order, so the ones fully consumed by
            // earlier pages form a prefix: start the walk at the first
            // region whose range can still hold keys past the resume point.
            let first = match &self.resume_after {
                Some(after) => regions.partition_point(|r| {
                    !r.end.is_empty() && r.end.as_slice() <= after.as_slice()
                }),
                None => 0,
            };
            // One fault draw per page, against the server the page's first
            // region-server visit addresses.
            if let Some(region) = regions.get(first) {
                self.cluster.inject_faults(region.server)?;
            }
            for region in regions[first..].iter() {
                if out.len() >= want {
                    break;
                }
                // Skip regions entirely outside the scan range.
                if !self.scan.stop.is_empty()
                    && !region.start.is_empty()
                    && region.start >= self.scan.stop
                {
                    continue;
                }
                if !self.scan.start.is_empty()
                    && !region.end.is_empty()
                    && region.end <= self.scan.start
                {
                    continue;
                }
                if !self.opened.contains(&region.id) {
                    if !self.opened.is_empty() {
                        // The first region's open is charged at creation.
                        let open = self.cluster.cost_model().scan_open;
                        self.cluster.charge(open);
                    }
                    self.opened.push(region.id);
                }
                region.scan_page(
                    &self.scan,
                    self.projection.as_deref(),
                    self.resume_after.as_deref(),
                    want - out.len(),
                    &mut out,
                )?;
            }
        }
        if out.len() < want {
            self.exhausted = true;
        }
        self.remaining -= out.len();
        if self.remaining == 0 {
            self.exhausted = true;
        }
        if let Some(last) = out.last() {
            self.resume_after = Some(last.key.clone());
        }
        let bytes: usize = out.iter().map(ResultRow::byte_size).sum();
        let model = self.cluster.cost_model();
        let mut cost = model.scan_next_row * out.len() as u64
            + simclock::SimDuration::from_nanos(model.scan_byte_ns * bytes as u64);
        // One RPC per `scan_batch_rows` batch: the first batch is charged at
        // creation, each row crossing a batch boundary charges the next.
        for i in 0..out.len() as u64 {
            let row_number = self.rows_streamed + i + 1;
            if row_number > 1 && (row_number - 1).is_multiple_of(self.batch_rows) {
                cost += model.rpc_round_trip();
            }
        }
        self.cluster.charge(cost);
        self.rows_streamed += out.len() as u64;
        self.cluster.record_scan_page(out.len() as u64, bytes as u64);
        self.page = out.into_iter();
        Ok(())
    }
}

/// The infallible view of the cursor: **ends early on a failed page**,
/// dropping the error.  Kept for the `benchmark/` package and the store's own
/// tests, which scan fault-free clusters; everything that must not mistake a
/// failure for the end of the range pulls [`ScanCursor::try_next`].
impl Iterator for ScanCursor {
    type Item = ResultRow;

    fn next(&mut self) -> Option<ResultRow> {
        self.try_next().ok().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::ops::Put;
    use crate::table::TableSchema;

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

    #[test]
    fn cursor_matches_collected_scan() {
        let c = loaded_cluster(600);
        let collected = c.scan("t", Scan::all()).unwrap();
        let streamed: Vec<ResultRow> = c.scan_stream("t", Scan::all()).unwrap().collect();
        assert_eq!(collected, streamed);
        assert_eq!(streamed.len(), 600);
    }

    #[test]
    fn cursor_charges_the_closed_form_scan_cost() {
        // The incremental per-page charges must sum to exactly what the
        // pre-streaming one-shot scan charged:
        //   scan_open * regions + scan_cost(rows, bytes) - scan_open
        // (scan_cost itself includes one scanner-open).
        let c = loaded_cluster(3_000);
        let rows = c.scan("t", Scan::all()).unwrap();
        let bytes: usize = rows.iter().map(ResultRow::byte_size).sum();
        let regions = c.metrics().tables["t"].regions as u64;
        assert!(regions > 1, "split threshold should have produced regions");
        let (_, charged) = c
            .clock()
            .measure(|| c.scan_stream("t", Scan::all()).unwrap().count());
        let model = c.cost_model();
        let expected = model.scan_open * regions
            + model.scan_cost(rows.len() as u64, bytes as u64)
            - model.scan_open;
        assert_eq!(charged, expected);
    }

    #[test]
    fn abandoned_cursor_charges_less_than_a_full_scan() {
        let c = loaded_cluster(3_000);
        let (_, full) = c.clock().measure(|| c.scan("t", Scan::all()).unwrap());
        let (_, partial) = c.clock().measure(|| {
            let mut cursor = c.scan_stream("t", Scan::all()).unwrap();
            for _ in 0..10 {
                cursor.next();
            }
        });
        assert!(partial < full, "partial={partial} full={full}");
    }

    #[test]
    fn limit_bounds_store_rows_scanned() {
        let c = loaded_cluster(3_000);
        let before = c.metrics().ops;
        let rows: Vec<_> = c
            .scan_stream("t", Scan::all().with_limit(7))
            .unwrap()
            .collect();
        assert_eq!(rows.len(), 7);
        let delta = c.metrics().ops.delta_since(&before);
        assert_eq!(delta.scans, 1);
        assert_eq!(delta.scanned_rows, 7);
    }

    #[test]
    fn projection_restricts_returned_cells() {
        let c = Cluster::new(ClusterConfig::default());
        c.create_table(TableSchema::new("t").with_family("cf")).unwrap();
        c.bulk_load(
            "t",
            (0..5).map(|i| {
                Put::new(format!("r{i}"))
                    .with("cf", "a", "1")
                    .with("cf", "b", "2")
            }),
        )
        .unwrap();
        let rows: Vec<_> = c
            .scan_stream("t", Scan::all().column("cf", "b"))
            .unwrap()
            .collect();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(row.cells.len(), 1);
            assert_eq!(&*row.cells[0].qualifier, "b");
        }
    }

    #[test]
    fn a_failed_page_is_an_error_once_never_an_early_end() {
        let c = loaded_cluster(600);
        let mut cursor = c.scan_stream("t", Scan::all()).unwrap();
        let mut rows = vec![cursor.try_next().unwrap().unwrap()];
        c.crash();
        // The page already fetched drains, then the failure, then the end.
        let error = loop {
            match cursor.try_next() {
                Ok(Some(row)) => rows.push(row),
                Ok(None) => panic!("a crashed scan ended after {} of 600 rows", rows.len()),
                Err(error) => break error,
            }
        };
        assert_eq!(rows.len(), SCAN_PAGE_ROWS);
        assert_eq!(error, StoreError::ClusterDown);
        assert_eq!(cursor.try_next(), Ok(None), "the error is reported once");
    }

    #[test]
    fn invalid_range_is_rejected_at_open() {
        let c = loaded_cluster(10);
        assert!(matches!(
            c.scan_stream("t", Scan::range("z", "a")),
            Err(StoreError::InvalidRange)
        ));
    }
}
