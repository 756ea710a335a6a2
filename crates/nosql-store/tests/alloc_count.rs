//! Allocation-count regression tests for the write path.
//!
//! `Region::put` used to clone the family and qualifier `String`s of every
//! cell on every write — even when the column already existed — and then
//! re-walk the whole row (materializing a throwaway `Cell` per stored cell)
//! to recompute the region's byte count.  With interned column keys and
//! incremental accounting, a put into an existing column performs a small,
//! *row-width-independent* number of allocations.  These tests pin that
//! down with a counting global allocator.

use nosql_store::ops::Put;
use nosql_store::{Region, RegionId, RegionServerId, TableSchema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The counter is process-global and the test harness runs tests on
/// parallel threads; measurement windows must not overlap or they count
/// each other's allocations.
static MEASUREMENT_WINDOW: Mutex<()> = Mutex::new(());

fn exclusive_window() -> std::sync::MutexGuard<'static, ()> {
    MEASUREMENT_WINDOW
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn schema() -> TableSchema {
    TableSchema::new("t").with_versioned_family("cf", 8)
}

fn region() -> Region {
    Region::new(RegionId(1), RegionServerId(0), Vec::new(), Vec::new())
}

/// Allocations per put of one cell into an **existing** column must be a
/// small constant: the value bytes, a version-map node, and bookkeeping —
/// not a clone of the column names, and not a re-walk of the row.
#[test]
fn put_into_existing_column_allocates_a_small_constant() {
    let _window = exclusive_window();
    let mut region = region();
    let schema = schema();
    let put = Put::new("row1").with("cf", "col_with_a_long_name", vec![7u8; 16]);
    // Warm up: create the column and intern its names.
    for ts in 1..=8u64 {
        region.put(&schema, &put, ts).unwrap();
    }

    let reps = 100u64;
    let before = allocations();
    for ts in 100..100 + reps {
        region.put(&schema, &put, ts).unwrap();
    }
    let per_put = (allocations() - before) as f64 / reps as f64;
    assert!(
        per_put <= 6.0,
        "a put into an existing column should allocate O(1) blocks \
         (value + version-map node), measured {per_put:.1} per put"
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
    // The interner is process-global too: a concurrently running test that
    // interns new column names would grow the count under this one.
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
