//! Allocation-count regression tests for the write and scan paths.
//!
//! A stored row is one flat vector of columns whose newest version —
//! interned names, timestamp, inline value — sits in place, so a put of a
//! short value into an existing column has nothing to allocate, and a
//! scanned row costs its key and its cell vector, not a node, a value and
//! three reference counts per cell.  A written cell is built once, in its
//! `Put`: the cluster's WAL record copies it, so a put through the whole
//! pipeline costs a fixed number of blocks however many cells it carries,
//! and an older version keeps only its timestamp and length.  These tests
//! pin that down with a counting global allocator — blocks allocated and
//! bytes live — which cannot see reference-count traffic, so the size of
//! `Val` (the reason there is none) is asserted beside it.

use nosql_store::ops::{Mutation, Put, Scan};
use nosql_store::{
    Cluster, ClusterConfig, Region, RegionId, RegionServerId, TableSchema, Val, SCAN_PAGE_ROWS,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

struct CountingAllocator;

thread_local! {
    /// Blocks allocated by this thread.  Per thread, because the test
    /// harness runs tests (and prints their results) on other threads while
    /// one is measuring; const-initialized and without a destructor, so the
    /// allocator can touch it at any point of a thread's life.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed (a block freed by
    /// another thread is not subtracted; the measured loops stay on one).
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count_one(grown: isize) {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    add_live(grown);
}

fn add_live(bytes: isize) {
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Blocks the calling thread has allocated so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Net bytes the calling thread holds allocated.
fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// The name interner is process-global: a concurrently running test that
/// interns new column names would grow the count under
/// `repeated_writes_do_not_grow_the_interner`, so every test here runs
/// inside this window.
static MEASUREMENT_WINDOW: Mutex<()> = Mutex::new(());

fn exclusive_window() -> std::sync::MutexGuard<'static, ()> {
    MEASUREMENT_WINDOW
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn schema() -> TableSchema {
    TableSchema::new("t").with_family("cf")
}

fn region() -> Region {
    Region::new(RegionId(1), RegionServerId(0), Vec::new(), Vec::new())
}

/// A put of a short value into an **existing** column allocates nothing in
/// the region: the names are interned, the value is stored inline, the row
/// is found without copying its key.  Rewriting a version in place is
/// exactly zero; a newer version moves the previous one into the column's
/// side vector, whose doubling is the only allocation left.
#[test]
fn put_of_short_values_into_existing_columns_allocates_nothing() {
    let _window = exclusive_window();
    let mut region = region();
    let schema = schema();
    let put = Put::new("row1")
        .with("cf", "col_with_a_long_name", vec![7u8; 16])
        .with("cf", "other", vec![1u8; Val::INLINE_CAP]);
    // Warm up: create the row and its columns, intern the names.
    for ts in 1..=8u64 {
        region.put(&schema, &put, ts).unwrap();
    }

    let before = allocations();
    for _ in 0..100 {
        region.put(&schema, &put, 8).unwrap();
    }
    assert_eq!(allocations() - before, 0, "rewriting the newest version in place");

    let reps = 1_000u64;
    let before = allocations();
    for ts in 100..100 + reps {
        region.put(&schema, &put, ts).unwrap();
    }
    let grown = allocations() - before;
    // 2 columns x log2(1008 / 8) doublings of their side vectors.
    assert!(
        grown <= 16,
        "{reps} newer versions of 2 columns may only grow the side vectors, \
         measured {grown} allocations"
    );
}

/// Draining a scan allocates two blocks per row — its key and its cell
/// vector — plus a per-page constant (the page buffer's growth), however
/// many short-valued cells the rows hold.
#[test]
fn scan_stream_allocates_two_blocks_per_row() {
    assert_eq!(std::mem::size_of::<Val>(), 24);
    let _window = exclusive_window();
    let cluster = Cluster::new(ClusterConfig::default());
    cluster.create_table(TableSchema::new("t").with_family("cf")).unwrap();
    let (rows, columns) = (1_000usize, 16usize);
    for r in 0..rows {
        let mut put = Put::new(format!("row{r:05}"));
        for c in 0..columns {
            put.add("cf", format!("c{c:02}"), format!("value-{r}-{c}"));
        }
        cluster.put("t", put).unwrap();
    }

    let before = allocations();
    let mut cells = 0;
    for row in cluster.scan_stream("t", Scan::all()).unwrap() {
        cells += row.cells.len();
    }
    let spent = allocations() - before;
    assert_eq!(cells, rows * columns);
    let pages = rows.div_ceil(SCAN_PAGE_ROWS) + 1;
    assert!(
        spent <= 2 * rows + 24 * pages,
        "scanning {rows} rows x {columns} short cells in {pages} pages allocated {spent} blocks"
    );
}

/// The former accounting re-materialized every stored cell of the row per
/// mutation, so allocations grew linearly with row width.  They must not:
/// writing one cell of a 1-column row and of a 30-column row costs the same.
#[test]
fn put_allocations_do_not_scale_with_row_width() {
    let _window = exclusive_window();
    let schema = schema();
    let reps = 200u64;

    let measure = |columns: usize| -> f64 {
        let mut region = region();
        for c in 0..columns {
            let put = Put::new("wide").with("cf", format!("col{c:02}"), vec![1u8; 8]);
            region.put(&schema, &put, 1).unwrap();
        }
        let put = Put::new("wide").with("cf", "col00", vec![2u8; 8]);
        for ts in 2..10u64 {
            region.put(&schema, &put, ts).unwrap(); // warm-up
        }
        let before = allocations();
        for ts in 100..100 + reps {
            region.put(&schema, &put, ts).unwrap();
        }
        (allocations() - before) as f64 / reps as f64
    };

    let narrow = measure(1);
    let wide = measure(30);
    assert!(
        wide <= narrow + 2.0,
        "per-put allocations must not grow with the number of existing \
         columns (1 column: {narrow:.1}, 30 columns: {wide:.1})"
    );
}

/// Interning is stable: repeated writes to existing columns must not grow
/// the store's name-interner table.
#[test]
fn repeated_writes_do_not_grow_the_interner() {
    let _window = exclusive_window();
    let mut region = region();
    let schema = schema();
    let put = Put::new("r").with("cf", "stable_col", "v");
    region.put(&schema, &put, 1).unwrap();
    let before = nosql_store::intern::interned_name_count();
    for ts in 2..200u64 {
        region.put(&schema, &put, ts).unwrap();
    }
    assert_eq!(nosql_store::intern::interned_name_count(), before);
}

/// A row of `cells` short cells, written over and over into the same
/// columns.
fn wide_put(row: &str, cells: usize) -> Put {
    let mut put = Put::new(row);
    for c in 0..cells {
        put.add("cf", format!("pipeline_col{c:03}"), [c as u8; 16]);
    }
    put
}

/// Median blocks one call of `write` allocates, over `reps` calls, each
/// handed a fresh input from `build` (built outside the measurement).  The
/// median skips the rare call on which a side vector or the log doubles.
fn median_blocks<T>(reps: usize, mut build: impl FnMut() -> T, mut write: impl FnMut(T)) -> usize {
    let mut spent: Vec<usize> = (0..reps)
        .map(|_| {
            let input = build();
            let before = allocations();
            write(input);
            allocations() - before
        })
        .collect();
    spent.sort_unstable();
    spent[reps / 2]
}

/// Through the whole pipeline — routing, the region, the WAL append and the
/// group-commit sync — a put of K short cells into existing columns
/// allocates a fixed number of blocks, not a number that grows with K: the
/// record copies the put's interned names and inline values instead of
/// building three strings per cell.  The same holds per row of a batch.
#[test]
fn a_put_through_the_cluster_allocates_the_same_blocks_for_any_cell_count() {
    let _window = exclusive_window();
    let cluster = Cluster::new(ClusterConfig::default());
    cluster.create_table(schema()).unwrap();
    let per_put = |cells: usize| {
        let build = || wide_put(&format!("put{cells}"), cells);
        let write = |put| cluster.put("t", put).unwrap();
        (0..8).for_each(|_| write(build())); // warm-up: rows, columns, names
        median_blocks(64, build, write)
    };
    let per_batch = |cells: usize| {
        let build = || -> Vec<Mutation> {
            let row = |r| Mutation::Put(wide_put(&format!("batch{cells}-{r}"), cells));
            (0..4).map(row).collect()
        };
        let write = |rows: Vec<Mutation>| assert_eq!(cluster.batch("t", &rows).unwrap(), 4);
        (0..8).for_each(|_| write(build()));
        median_blocks(64, build, write)
    };
    let (one, many) = (per_put(1), per_put(64));
    assert_eq!(one, many, "a put of 1 cell allocates {one} blocks, of 64 cells {many}");
    assert!(one <= 4, "a one-cell put allocates {one} blocks");
    let (one, many) = (per_batch(1), per_batch(64));
    assert_eq!(one, many, "a 4-row batch of 1-cell rows allocates {one} blocks, of 64-cell rows {many}");
}

/// An older version keeps its timestamp and its length, not its value: a
/// thousand newer versions of a 100-byte value leave the region holding no
/// superseded value bytes, only the column's side vector of
/// `(timestamp, length)` pairs.
#[test]
fn superseded_values_are_freed_when_superseded() {
    let _window = exclusive_window();
    let mut region = region();
    let schema = schema();
    let version = |byte: u8| Put::new("r").with("cf", "v", [byte; 100]);
    region.put(&schema, &version(0), 1).unwrap();
    let before = live_bytes();
    let versions = 1_000u64;
    for ts in 2..2 + versions {
        region.put(&schema, &version(ts as u8), ts).unwrap();
    }
    let grown = live_bytes() - before;
    // The side vector doubles up to 1 024 entries of 16 bytes.
    let side_vector = versions.next_power_of_two() as isize * 16;
    assert!(
        grown <= side_vector,
        "{versions} superseded 100-byte values left {grown} bytes live (side vector: {side_vector})"
    );
}
