//! Writes mint no names in the store's process-global name interner: the
//! statement WAL tags every record with one constant, and lock rows, dirty
//! markers and catalog rows are written with names resolved once.  A test
//! binary of its own, so no concurrently running test interns names while
//! this one counts them.

use nosql_store::intern::interned_name_count;
use relational::Value;
use tpcw::micro::MicroBench;

const CUSTOMERS: i64 = 20;

/// The `n`-th write of a rotation over the three write kinds: a fat
/// customer update (lock, markers, view rows), an order insert and the
/// delete of that order.
fn write(bench: &MicroBench, n: i64) {
    let system = bench.system();
    let c_id = Value::Int(1 + n % CUSTOMERS);
    let (sql_text, params) = match n % 3 {
        0 => (
            "UPDATE Customer SET c_fname = ? WHERE c_id = ?",
            vec![Value::str(format!("First-{n}")), c_id],
        ),
        1 => (
            "INSERT INTO Orders (o_id, o_c_id, o_date, o_total) VALUES (?, ?, ?, ?)",
            vec![Value::Int(100_000 + n), c_id, Value::str("2017-01-01"), Value::Float(1.5)],
        ),
        _ => ("DELETE FROM Orders WHERE o_id = ?", vec![Value::Int(100_000 + n - 1)]),
    };
    let result = system.execute_sql(sql_text, &params).unwrap();
    assert_eq!(result.rows_affected, 1, "write {n}: {sql_text}");
}

#[test]
fn two_hundred_writes_leave_the_name_interner_unchanged() {
    let bench = MicroBench::build(CUSTOMERS as u64).unwrap();
    // Warm-up: one write of each kind touches every column the rotation
    // writes.
    (0..3).for_each(|n| write(&bench, n));
    let before = interned_name_count();
    (3..203).for_each(|n| write(&bench, n));
    assert_eq!(interned_name_count(), before);
}
