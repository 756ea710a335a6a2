//! Streaming operator helpers for the pull-based executor pipeline.
//!
//! The executor evaluates a SELECT as a tree of lazy row iterators
//! ([`RowStream`]): store scans decode rows on demand, filters and joins
//! wrap the upstream iterator, and only the operators that fundamentally
//! need materialization — hash-join build sides, GROUP BY state, ORDER BY
//! buffers — hold rows.  [`Residency`] meters exactly those buffers so the
//! memory footprint of a statement is measured, not asserted, and
//! [`top_k`] keeps the ORDER BY + LIMIT buffer bounded at `k` rows.

use crate::result::QueryError;
use relational::Row;
use std::cell::Cell;
use std::cmp::Ordering;

/// A pull-based stream of decoded rows.  Errors (store failures, dirty-row
/// restarts) flow through the stream and abort the pipeline at the consumer.
pub(crate) type RowStream<'a> = Box<dyn Iterator<Item = Result<Row, QueryError>> + 'a>;

/// Counts the rows the executor holds materialized at once: hash-join build
/// sides, aggregation input, sort / top-k buffers and the emitted result.
/// `peak` is the statement's high-water mark, reported on the query result.
#[derive(Debug, Default)]
pub(crate) struct Residency {
    current: Cell<usize>,
    peak: Cell<usize>,
}

impl Residency {
    /// Records `n` newly materialized rows.
    pub(crate) fn add(&self, n: usize) {
        let current = self.current.get() + n;
        self.current.set(current);
        if current > self.peak.get() {
            self.peak.set(current);
        }
    }

    /// The statement's high-water mark of resident rows.
    pub(crate) fn peak(&self) -> usize {
        self.peak.get()
    }

    /// Records `n` rows leaving the materialized working set (e.g. a
    /// processed batch whose rows were dropped by a bounded heap).  The
    /// peak is unaffected.
    pub(crate) fn remove(&self, n: usize) {
        self.current.set(self.current.get().saturating_sub(n));
    }
}

/// Drains a stream into a vector, metering every collected row.
pub(crate) fn collect_stream(
    stream: RowStream<'_>,
    meter: &Residency,
) -> Result<Vec<Row>, QueryError> {
    let mut out = Vec::new();
    for row in stream {
        out.push(row?);
        meter.add(1);
    }
    Ok(out)
}

/// Bounded ORDER BY + LIMIT: selects the `k` smallest rows under `cmp`
/// (ties resolved arbitrarily, like any top-k heap) and returns them sorted.
///
/// The buffer is a binary max-heap of at most `k` rows with the *worst*
/// retained row at the root, so a `LIMIT k` query holds `k` rows resident
/// instead of the full input — the replacement for sort-then-truncate.
pub(crate) fn top_k(
    stream: RowStream<'_>,
    k: usize,
    cmp: impl Fn(&Row, &Row) -> Ordering,
    meter: &Residency,
) -> Result<Vec<Row>, QueryError> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut heap: Vec<Row> = Vec::with_capacity(k);
    for row in stream {
        let row = row?;
        if heap.len() < k {
            meter.add(1);
        }
        // Below capacity the row is retained; at capacity it evicts the
        // worst retained row (residency stays at k) or is dropped.
        push_bounded(&mut heap, row, k, &cmp);
    }
    heap.sort_by(|a, b| cmp(a, b));
    Ok(heap)
}

/// Modelled-parallel ORDER BY + LIMIT: one bounded heap per worker, merged
/// at the end.  The input streams through in order-preserving **batches** —
/// each batch is split into contiguous chunks, chunk *i* feeding worker
/// *i*'s persistent bounded heap — so residency stays at one batch plus
/// `threads · k` heap rows instead of the whole input.  Rows a worker's heap
/// drops were beaten by `k` retained rows, hence are globally droppable;
/// the final merge re-selects over the ≤ `threads · k` survivors (ties
/// resolved arbitrarily, like any top-k heap).  The heaps are updated in
/// order on the caller's thread; they fix the metered peak and the tie
/// choice, not the wall time.
pub(crate) fn par_top_k(
    mut stream: RowStream<'_>,
    k: usize,
    cmp: impl Fn(&Row, &Row) -> Ordering,
    meter: &Residency,
    threads: usize,
) -> Result<Vec<Row>, QueryError> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let batch_rows = (threads * 1_024).max(k);
    let mut heaps: Vec<Vec<Row>> = Vec::new();
    loop {
        let mut batch: Vec<Row> = Vec::new();
        for row in stream.by_ref().take(batch_rows) {
            batch.push(row?);
        }
        if batch.is_empty() {
            break;
        }
        let collected = batch.len();
        meter.add(collected);
        let retained_before: usize = heaps.iter().map(Vec::len).sum();
        // Pair each chunk with a persistent heap (chunk count can shrink on
        // the final short batch; unpaired heaps just carry over).
        let ranges = pool::chunk_ranges(batch.len(), threads);
        while heaps.len() < ranges.len() {
            heaps.push(Vec::with_capacity(k));
        }
        let mut rows = batch.into_iter();
        for (heap, range) in heaps.iter_mut().zip(&ranges) {
            for row in rows.by_ref().take(range.len()) {
                push_bounded(heap, row, k, &cmp);
            }
        }
        let retained_after: usize = heaps.iter().map(Vec::len).sum();
        // Rows the heaps dropped leave the working set; retained growth stays.
        meter.remove(collected - (retained_after - retained_before));
    }
    let mut heap: Vec<Row> = Vec::with_capacity(k);
    for row in heaps.into_iter().flatten() {
        // Survivors were already metered as retained rows; the merge
        // re-selects among them without materializing anything new.
        push_bounded(&mut heap, row, k, &cmp);
    }
    heap.sort_by(|a, b| cmp(a, b));
    Ok(heap)
}

/// Inserts `row` into a bounded max-at-root heap of capacity `k`, evicting
/// the worst retained row when full (the primitive both [`top_k`] and
/// [`par_top_k`] are built from).
fn push_bounded(heap: &mut Vec<Row>, row: Row, k: usize, cmp: &impl Fn(&Row, &Row) -> Ordering) {
    if heap.len() < k {
        heap.push(row);
        let last = heap.len() - 1;
        sift_up(heap, last, cmp);
    } else if cmp(&row, &heap[0]) == Ordering::Less {
        heap[0] = row;
        sift_down(heap, 0, cmp);
    }
}

fn sift_up(heap: &mut [Row], mut i: usize, cmp: &impl Fn(&Row, &Row) -> Ordering) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if cmp(&heap[i], &heap[parent]) == Ordering::Greater {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [Row], mut i: usize, cmp: &impl Fn(&Row, &Row) -> Ordering) {
    loop {
        let left = 2 * i + 1;
        let right = 2 * i + 2;
        let mut largest = i;
        if left < heap.len() && cmp(&heap[left], &heap[largest]) == Ordering::Greater {
            largest = left;
        }
        if right < heap.len() && cmp(&heap[right], &heap[largest]) == Ordering::Greater {
            largest = right;
        }
        if largest == i {
            break;
        }
        heap.swap(i, largest);
        i = largest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::Value;

    fn rows(values: &[i64]) -> RowStream<'_> {
        Box::new(values.iter().map(|v| Ok(Row::new().with("n", *v))))
    }

    fn by_n(a: &Row, b: &Row) -> Ordering {
        a.get("n").unwrap().cmp(b.get("n").unwrap())
    }

    fn ns(rows: &[Row]) -> Vec<i64> {
        let n = |r: &Row| match r.get("n") {
            Some(Value::Int(n)) => Some(*n),
            _ => None,
        };
        rows.iter().filter_map(n).collect()
    }

    #[test]
    fn top_k_matches_sort_then_truncate() {
        let values = [5i64, 1, 9, 3, 7, 3, 8, 0, 2, 6];
        let meter = Residency::default();
        let top = top_k(rows(&values), 4, by_n, &meter).unwrap();
        assert_eq!(ns(&top), vec![0, 1, 2, 3]);
        assert_eq!(meter.peak(), 4, "buffer bounded at k");
    }

    #[test]
    fn top_k_handles_short_inputs_and_zero() {
        let meter = Residency::default();
        let top = top_k(rows(&[2, 1]), 10, by_n, &meter).unwrap();
        assert_eq!(ns(&top), vec![1, 2]);
        assert!(top_k(rows(&[1, 2]), 0, by_n, &meter).unwrap().is_empty());
    }

    #[test]
    fn residency_tracks_the_peak() {
        let meter = Residency::default();
        meter.add(3);
        meter.add(2);
        assert_eq!(meter.peak(), 5);
        meter.add(1);
        assert_eq!(meter.peak(), 6);
    }

    #[test]
    fn errors_propagate_through_collect_and_top_k() {
        let failing: RowStream<'_> = Box::new(
            [Ok(Row::new().with("n", 1)), Err(QueryError::DirtyRestart)].into_iter(),
        );
        let meter = Residency::default();
        assert!(matches!(
            collect_stream(failing, &meter),
            Err(QueryError::DirtyRestart)
        ));
        let failing: RowStream<'_> = Box::new(
            [Ok(Row::new().with("n", 1)), Err(QueryError::DirtyRestart)].into_iter(),
        );
        assert!(matches!(
            top_k(failing, 5, by_n, &meter),
            Err(QueryError::DirtyRestart)
        ));
    }
}
