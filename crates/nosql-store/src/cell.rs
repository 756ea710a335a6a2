//! Cells: the smallest unit of data in the store.
//!
//! Following the Bigtable/HBase data model, a cell is addressed by
//! `(row key, column family, column qualifier, timestamp)` and holds an
//! uninterpreted byte value.  Multiple timestamped versions of the same cell
//! coexist until a major compaction; reads see the newest version.
//!
//! # `Val`: values stored in place
//!
//! Most values this store holds are short — encoded integers, decimals,
//! dates, status flags, lock and dirty markers.  [`Val`] keeps a value of up
//! to [`Val::INLINE_CAP`] bytes **inside** its own 24 bytes and only longer
//! ones behind an `Arc<[u8]>`, so storing, reading and dropping a short
//! value touches no allocator and no reference count: a read copies 24
//! bytes out of the row.  The capacity is not a tuning knob; it is what
//! fits beside a length byte and the enum tag in the three words an
//! `Arc<[u8]>` variant needs anyway.
//!
//! A written value is built into its `Val` once, when the cell is added to
//! its [`crate::ops::Put`]; the put's WAL record and the stored row then
//! hold copies of that one `Val` — an inline copy of 24 bytes, or a
//! reference-count bump for a long value — so writing a cell neither
//! re-encodes nor re-allocates its value on the way through the store.

use crate::intern::Name;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Uninterpreted byte string used for row keys, qualifiers and values.
pub type Bytes = Vec<u8>;

/// A logical timestamp attached to each cell version.
///
/// In real HBase this is wall-clock milliseconds; here it is a monotonically
/// increasing sequence number handed out by the cluster, which keeps the
/// simulation deterministic.
pub type Timestamp = u64;

/// A cell value: short values inline, long ones shared (see the module
/// docs).  Dereferences to the value bytes; equality compares bytes.
#[derive(Clone)]
pub struct Val(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; Val::INLINE_CAP] },
    Heap(Arc<[u8]>),
}

impl Val {
    /// Longest value stored in place: 24 bytes minus the tag and the length.
    pub const INLINE_CAP: usize = 22;
}

impl From<&[u8]> for Val {
    fn from(value: &[u8]) -> Val {
        if value.len() <= Val::INLINE_CAP {
            let mut bytes = [0u8; Val::INLINE_CAP];
            bytes[..value.len()].copy_from_slice(value);
            Val(Repr::Inline { len: value.len() as u8, bytes })
        } else {
            Val(Repr::Heap(Arc::from(value)))
        }
    }
}

impl Deref for Val {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(shared) => shared,
        }
    }
}

impl AsRef<[u8]> for Val {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Val {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Val {}

impl fmt::Debug for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One versioned value of one column of one row.
///
/// The family and qualifier are interned [`Name`] handles and the value is a
/// [`Val`]: materializing a cell for a read copies 64 bytes and, for a short
/// value, touches neither the allocator nor a reference count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Column family name.
    pub family: Name,
    /// Column qualifier.
    pub qualifier: Name,
    /// Version timestamp (larger = newer).
    pub timestamp: Timestamp,
    /// The stored value.
    pub value: Val,
}

impl Cell {
    /// Per-cell coordinate overhead modeled after HBase's storage format
    /// (length prefixes + timestamp + type tag).
    pub const PER_CELL_OVERHEAD: usize = 24;

    /// Creates a cell, interning names given as strings; mostly useful in
    /// tests.
    pub fn new(
        family: impl Into<Name>,
        qualifier: impl Into<Name>,
        timestamp: Timestamp,
        value: impl AsRef<[u8]>,
    ) -> Self {
        Cell {
            family: family.into(),
            qualifier: qualifier.into(),
            timestamp,
            value: Val::from(value.as_ref()),
        }
    }

    /// Approximate on-disk footprint of this cell, in bytes.
    ///
    /// HBase stores the full coordinate with every cell;
    /// [`Cell::PER_CELL_OVERHEAD`] models that per-cell key overhead and is
    /// what the storage accounting for the paper's Table III is built on.
    /// This is the *modelled* size (names + value + overhead), independent
    /// of how the process lays the cell out in memory.
    pub fn heap_size(&self) -> usize {
        self.family.len() + self.qualifier.len() + self.value.len() + Self::PER_CELL_OVERHEAD
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}@{}={}",
            self.family,
            self.qualifier,
            self.timestamp,
            String::from_utf8_lossy(&self.value)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_size_counts_all_components() {
        let cell = Cell::new("cf", "name", 7, "alice");
        assert_eq!(cell.heap_size(), 2 + 4 + 5 + 24);
    }

    #[test]
    fn display_is_human_readable() {
        let cell = Cell::new("cf", "name", 7, "alice");
        assert_eq!(cell.to_string(), "cf:name@7=alice");
    }

    #[test]
    fn val_round_trips_on_both_sides_of_the_inline_capacity() {
        assert_eq!(std::mem::size_of::<Val>(), 24);
        for len in [0, 1, Val::INLINE_CAP, Val::INLINE_CAP + 1, 200] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let val = Val::from(&bytes[..]);
            assert_eq!(&*val, &bytes[..], "len {len}");
            assert_eq!(val.clone(), val);
            assert_eq!(
                matches!(val.0, Repr::Inline { .. }),
                len <= Val::INLINE_CAP,
                "len {len}"
            );
        }
        assert_ne!(Val::from(&b"a"[..]), Val::from(&b"b"[..]));
    }
}
