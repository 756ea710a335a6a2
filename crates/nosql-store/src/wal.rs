//! Write-ahead log.
//!
//! Each region server appends every mutation to a WAL before acking it, so a
//! crashed server can be replayed.  Entries carry the **full mutation
//! payload** (a put's cells, a deleted row's key) plus the cell timestamp
//! the mutation was applied at, which is what makes [`Cluster::recover`]
//! (`crate::Cluster::recover`) able to rebuild region state from the log:
//! replaying synced entries in timestamp order over the last durable
//! checkpoint reproduces the exact acked-synced state.
//!
//! # Record payload
//!
//! A put record holds its cells in the form the put and the stored row
//! hold them — interned family and qualifier [`Name`]s and a [`Val`] — so
//! logging a put copies each cell: two pointer-sized names, and a 24-byte
//! inline value or a reference-count bump on a long one.  The record's
//! `table` is an interned [`Name`] too — a copy, not a string per record,
//! and no reference count two writers would bump on one shared cache line.
//! The log is kept until the next
//! checkpoint, so what a record holds is memory every write keeps for the
//! rest of the run.
//!
//! Group commit: [`WriteAheadLog::sync`] makes every appended record durable
//! at once, so a cluster configured with a sync interval > 1 acks writes
//! before they are durable — a crash then loses the unsynced tail
//! ([`WriteAheadLog::drop_unsynced`]), exactly like HBase with deferred log
//! flush.  The Synergy transaction layer (paper §VIII) reuses the same
//! structure for its own statement-level WAL stored in HDFS; this crate
//! therefore exposes [`WriteAheadLog`] publicly.
//!
//! # The group-commit watermark
//!
//! The log is never truncated between checkpoints, and every mutation asks
//! it "how many records are pending?" under the table's write lock, so that
//! question must not cost a pass over the log.  The log therefore keeps a
//! **watermark** `first_unsynced` with one invariant: *every record before
//! the watermark is synced and every record at or after it is not*.  A
//! record is always appended unsynced and a sync marks the whole tail, so
//! the pending batch is always the suffix `entries[first_unsynced..]`:
//! [`WriteAheadLog::unsynced_len`] is its length, and `sync` and
//! `sync_take_new` walk only it.

use crate::{Bytes, Name, Timestamp, Val};
use parking_lot::Mutex;
use std::sync::Arc;

/// The kind of mutation recorded in a WAL entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A put of the listed `(family, qualifier, value)` cells to `row`.
    Put {
        /// Row key written.
        row: Bytes,
        /// The written cells, `(family, qualifier, value)`.
        cells: Vec<(Name, Name, Val)>,
        /// Cell timestamp the put was applied at.
        timestamp: Timestamp,
    },
    /// A delete of the whole of `row`.
    Delete {
        /// Row key deleted.
        row: Bytes,
        /// Logical timestamp the delete was applied at (orders it against
        /// puts during replay).
        timestamp: Timestamp,
    },
    /// An arbitrary logical record appended by a higher layer (the Synergy
    /// transaction manager logs whole SQL statements this way).
    Logical {
        /// Opaque payload.
        payload: String,
    },
}

impl WalOp {
    /// The logical timestamp this mutation was applied at (`None` for
    /// [`WalOp::Logical`] records).  Timestamps are globally unique and
    /// monotone, so sorting entries from several server WALs by timestamp
    /// reconstructs the cluster-wide mutation order during replay.
    pub fn timestamp(&self) -> Option<Timestamp> {
        match self {
            WalOp::Put { timestamp, .. } | WalOp::Delete { timestamp, .. } => Some(*timestamp),
            WalOp::Logical { .. } => None,
        }
    }

    /// Row key the mutation routes by (`None` for [`WalOp::Logical`]).
    pub(crate) fn row(&self) -> Option<&[u8]> {
        match self {
            WalOp::Put { row, .. } | WalOp::Delete { row, .. } => Some(row),
            WalOp::Logical { .. } => None,
        }
    }
}

/// One durable WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// Monotonically increasing sequence number within the log.
    pub sequence: u64,
    /// Table (or logical stream) the record belongs to.
    pub table: Name,
    /// Region the mutation was applied to, when known.  This is the
    /// per-region shipping offset key: replication ships each synced record
    /// to the followers of *this* region, and a rejoining replica replays
    /// the shipped stream from its last acknowledged position.  `None` for
    /// logical records and for records appended before replication existed.
    pub region: Option<u64>,
    /// The recorded mutation.
    pub op: WalOp,
    /// Whether this record has been durably synced.
    pub synced: bool,
}

/// An append-only, thread-safe write-ahead log.
#[derive(Debug, Clone, Default)]
pub struct WriteAheadLog {
    inner: Arc<Mutex<WalInner>>,
}

#[derive(Debug, Default)]
struct WalInner {
    entries: Vec<WalEntry>,
    next_sequence: u64,
    /// Records before this index are synced, the rest are pending (see
    /// the module docs).
    first_unsynced: usize,
}

impl WalInner {
    fn push(&mut self, table: Name, region: Option<u64>, op: WalOp) -> u64 {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.entries.push(WalEntry { sequence, table, region, op, synced: false });
        sequence
    }

    /// The pending records.
    fn pending(&self) -> &[WalEntry] {
        &self.entries[self.first_unsynced..]
    }

    /// Marks the pending records synced, handing each to `newly`.
    fn sync(&mut self, mut newly: impl FnMut(&WalEntry)) -> usize {
        let pending = &mut self.entries[self.first_unsynced..];
        for entry in pending.iter_mut() {
            entry.synced = true;
            newly(entry);
        }
        let synced = pending.len();
        self.first_unsynced = self.entries.len();
        synced
    }
}

impl WriteAheadLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record and returns its sequence number.  The record is not
    /// durable until [`WriteAheadLog::sync`] is called.
    pub fn append(&self, table: impl Into<Name>, op: WalOp) -> u64 {
        self.inner.lock().push(table.into(), None, op)
    }

    /// Appends a record tagged with the region it mutated, so replication
    /// can ship it to that region's followers once it syncs.
    pub fn append_region(&self, table: impl Into<Name>, region: u64, op: WalOp) -> u64 {
        self.inner.lock().push(table.into(), Some(region), op)
    }

    /// Marks every appended record as durable and returns how many records
    /// were newly synced (the group-commit flush).
    pub fn sync(&self) -> usize {
        self.inner.lock().sync(|_| {})
    }

    /// Like [`WriteAheadLog::sync`], but returns the `(sequence, region)` of
    /// each record this flush made durable, in sequence order.  Replication
    /// hooks in here: the newly synced batch is exactly the set of records
    /// the group commit ships to follower replicas, and shipping needs only
    /// their regions.
    pub fn sync_take_new(&self) -> Vec<(u64, Option<u64>)> {
        let mut inner = self.inner.lock();
        let mut newly = Vec::with_capacity(inner.pending().len());
        inner.sync(|entry| newly.push((entry.sequence, entry.region)));
        newly
    }

    /// All records appended so far (synced or not), in order.
    pub fn entries(&self) -> Vec<WalEntry> {
        self.inner.lock().entries.clone()
    }

    /// Number of records that have not yet been marked durable (the pending
    /// group-commit batch).
    pub fn unsynced_len(&self) -> usize {
        self.inner.lock().pending().len()
    }

    /// Drops every record that has not been synced and returns how many
    /// were lost.  This is what a server crash does to acked-but-unsynced
    /// writes under deferred log flush.
    pub fn drop_unsynced(&self) -> usize {
        let mut inner = self.inner.lock();
        let lost = inner.pending().len();
        let synced = inner.first_unsynced;
        inner.entries.truncate(synced);
        lost
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True if no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence number the next appended record will receive.  A
    /// checkpoint that truncates up to this value drops the whole log.
    pub fn next_sequence(&self) -> u64 {
        self.inner.lock().next_sequence
    }

    /// Drops records with `sequence < up_to` (checkpoint truncation).
    pub fn truncate_before(&self, up_to: u64) {
        let mut inner = self.inner.lock();
        inner.entries.retain(|e| e.sequence >= up_to);
        // Pending records may have been among the dropped: re-derive the
        // watermark from what is left.
        inner.first_unsynced =
            inner.entries.iter().position(|e| !e.synced).unwrap_or(inner.entries.len());
    }

    /// Replays synced records in order through `apply`.  Used by the Synergy
    /// transaction-layer master when it takes over a failed slave, and by
    /// cluster recovery.
    pub fn replay(&self, mut apply: impl FnMut(&WalEntry)) -> usize {
        let inner = self.inner.lock();
        let mut replayed = 0;
        for entry in inner.entries.iter().filter(|e| e.synced) {
            apply(entry);
            replayed += 1;
        }
        replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_op(row: &str, ts: Timestamp) -> WalOp {
        WalOp::Put {
            row: row.as_bytes().to_vec(),
            cells: vec![("cf".into(), "v".into(), Val::from(&b"1"[..]))],
            timestamp: ts,
        }
    }

    #[test]
    fn append_assigns_increasing_sequences() {
        let wal = WriteAheadLog::new();
        let a = wal.append(
            "t",
            WalOp::Delete {
                row: b"r".to_vec(),
                timestamp: 1,
            },
        );
        let b = wal.append("t", put_op("r", 2));
        assert!(b > a);
        assert_eq!(wal.len(), 2);
        assert!(!wal.is_empty());
        assert_eq!(wal.entries()[1].op.timestamp(), Some(2));
    }

    #[test]
    fn sync_marks_records_durable() {
        let wal = WriteAheadLog::new();
        wal.append("t", WalOp::Logical { payload: "INSERT ...".into() });
        assert_eq!(wal.unsynced_len(), 1);
        assert_eq!(wal.sync(), 1);
        assert_eq!(wal.unsynced_len(), 0);
        assert_eq!(wal.sync(), 0);
    }

    #[test]
    fn drop_unsynced_loses_only_the_tail() {
        let wal = WriteAheadLog::new();
        wal.append("t", put_op("a", 1));
        wal.sync();
        wal.append("t", put_op("b", 2));
        wal.append("t", put_op("c", 3));
        assert_eq!(wal.drop_unsynced(), 2);
        assert_eq!(wal.len(), 1);
        assert!(wal.entries()[0].synced);
        assert_eq!(wal.drop_unsynced(), 0);
    }

    #[test]
    fn sync_take_new_returns_exactly_the_newly_durable_batch() {
        let wal = WriteAheadLog::new();
        wal.append_region("t", 7, put_op("a", 1));
        wal.sync();
        wal.append_region("t", 7, put_op("b", 2));
        wal.append_region("t", 8, put_op("c", 3));
        let newly = wal.sync_take_new();
        assert_eq!(newly, [(1, Some(7)), (2, Some(8))], "already-synced records are not re-shipped");
        assert!(wal.entries().iter().all(|e| e.synced));
        assert!(wal.sync_take_new().is_empty());
        // Plain appends carry no region tag.
        wal.append("t", WalOp::Logical { payload: "x".into() });
        assert_eq!(wal.sync_take_new(), [(3, None)]);
    }

    #[test]
    fn replay_visits_only_synced_entries_in_order() {
        let wal = WriteAheadLog::new();
        wal.append("t", WalOp::Logical { payload: "a".into() });
        wal.append("t", WalOp::Logical { payload: "b".into() });
        wal.sync();
        wal.append("t", WalOp::Logical { payload: "c".into() });
        let mut seen = Vec::new();
        let replayed = wal.replay(|e| {
            if let WalOp::Logical { payload } = &e.op {
                seen.push(payload.clone());
            }
        });
        assert_eq!(replayed, 2);
        assert_eq!(seen, vec!["a", "b"]);
    }

    #[test]
    fn truncate_drops_checkpointed_prefix() {
        let wal = WriteAheadLog::new();
        for i in 0..5 {
            wal.append("t", WalOp::Logical { payload: format!("{i}") });
        }
        wal.truncate_before(3);
        let remaining: Vec<u64> = wal.entries().iter().map(|e| e.sequence).collect();
        assert_eq!(remaining, vec![3, 4]);
        wal.truncate_before(wal.next_sequence());
        assert!(wal.is_empty());
        // Sequences keep increasing across a truncation.
        assert_eq!(wal.append("t", WalOp::Logical { payload: "z".into() }), 5);
    }
}
