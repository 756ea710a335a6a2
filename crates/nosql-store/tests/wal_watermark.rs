//! The write-ahead log's group-commit watermark against the implementation
//! it replaced: a model that keeps no watermark and answers every question
//! by filtering the whole record vector.  After every step of a random op
//! sequence the two must agree on `unsynced_len`, `unsynced()`, `entries()`,
//! the step's return value and the `replay` order.

use nosql_store::{WalEntry, WalOp, WriteAheadLog};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone)]
enum Step {
    Append,
    AppendRegion(u64),
    Sync,
    SyncTakeNew,
    DropUnsynced,
    /// Truncate before `next_sequence * pct / 100`.
    TruncateBefore(u64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Appends are listed more often than the rest so batches build up
    // between flushes.
    prop_oneof![
        Just(Step::Append),
        Just(Step::Append),
        (0u64..4).prop_map(Step::AppendRegion),
        (0u64..4).prop_map(Step::AppendRegion),
        Just(Step::Sync),
        Just(Step::SyncTakeNew),
        Just(Step::DropUnsynced),
        (0u64..101).prop_map(Step::TruncateBefore),
    ]
}

/// The old implementation: no watermark, every answer a pass over the log.
#[derive(Default)]
struct NaiveLog {
    entries: Vec<WalEntry>,
    next_sequence: u64,
}

impl NaiveLog {
    fn push(&mut self, region: Option<u64>, op: WalOp) -> u64 {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.entries.push(WalEntry { sequence, table: "t".into(), region, op, synced: false });
        sequence
    }

    fn unsynced(&self) -> Vec<WalEntry> {
        self.entries.iter().filter(|e| !e.synced).cloned().collect()
    }

    /// `(sequence, region)` of each newly synced record.
    fn sync_take_new(&mut self) -> Vec<(u64, Option<u64>)> {
        let mut newly = Vec::new();
        for entry in self.entries.iter_mut().filter(|e| !e.synced) {
            entry.synced = true;
            newly.push((entry.sequence, entry.region));
        }
        newly
    }

    fn drop_unsynced(&mut self) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.synced);
        before - self.entries.len()
    }
}

fn op(n: usize) -> WalOp {
    WalOp::Logical { payload: format!("op{n}") }
}

fn check(steps: &[Step]) -> Result<(), TestCaseError> {
    let wal = WriteAheadLog::new();
    let mut model = NaiveLog::default();
    for (n, step) in steps.iter().enumerate() {
        match step {
            Step::Append => {
                prop_assert_eq!(wal.append("t", op(n)), model.push(None, op(n)));
            }
            Step::AppendRegion(region) => {
                prop_assert_eq!(
                    wal.append_region("t", *region, op(n)),
                    model.push(Some(*region), op(n))
                );
            }
            Step::Sync => prop_assert_eq!(wal.sync(), model.sync_take_new().len()),
            Step::SyncTakeNew => prop_assert_eq!(wal.sync_take_new(), model.sync_take_new()),
            Step::DropUnsynced => prop_assert_eq!(wal.drop_unsynced(), model.drop_unsynced()),
            Step::TruncateBefore(pct) => {
                let up_to = model.next_sequence * pct / 100;
                wal.truncate_before(up_to);
                model.entries.retain(|e| e.sequence >= up_to);
            }
        }
        prop_assert_eq!(wal.unsynced_len(), model.unsynced().len(), "after step {}: {:?}", n, step);
        prop_assert_eq!(wal.unsynced(), model.unsynced(), "after step {}: {:?}", n, step);
        prop_assert_eq!(wal.entries(), model.entries.clone(), "after step {}: {:?}", n, step);
        prop_assert_eq!(wal.next_sequence(), model.next_sequence);
        let mut replayed = Vec::new();
        let count = wal.replay(|e| replayed.push(e.sequence));
        let expected: Vec<u64> =
            model.entries.iter().filter(|e| e.synced).map(|e| e.sequence).collect();
        prop_assert_eq!(count, expected.len());
        prop_assert_eq!(replayed, expected, "after step {}: {:?}", n, step);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn watermark_agrees_with_the_full_filter(steps in proptest::collection::vec(step_strategy(), 1..60)) {
        check(&steps)?;
    }
}
