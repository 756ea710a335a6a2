//! Interner for column-family, qualifier and table names.
//!
//! A store holds millions of cells but only a handful of distinct
//! `(family, qualifier)` names (one per declared column), and its WAL holds
//! a record per mutation but one table name per table.  Every name is
//! interned once into a [`Name`]: a `Copy` handle to a leaked `&'static str`.
//! Stored columns, materialized [`crate::Cell`]s and projections carry the
//! handle, so copying a name is a 16-byte copy with no reference count, and
//! name equality is one pointer compare — which is what lets the scan and
//! decode paths address columns by identity instead of comparing strings.
//!
//! **Why leaking is sound here.**  The table never evicts — a handle must
//! stay valid and unique for as long as any row, cell or plan holds it,
//! which is the life of the process — so an interned name is never freed
//! whichever way it is owned, and leaking it gives up nothing.  The
//! universe is bounded by the declared schemas (table and column names, not
//! data): probe-only paths go through [`lookup_name`], which never inserts,
//! so data-derived strings cannot grow the table.

use std::collections::HashSet; // lint-allow(determinism): interner is probe/insert only, never iterated
use std::fmt;
use std::ops::Deref;
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned family, qualifier or table name.
///
/// The only way to obtain one is [`intern_name`] (directly or through the
/// `From` conversions) or [`lookup_name`], so two `Name`s spell the same
/// string iff they point at the same characters: `==` is a pointer compare.  `Ord` follows the string order, so sorted
/// containers of names iterate as a `BTreeMap<String, _>` would.
#[derive(Clone, Copy)]
pub struct Name(&'static str);

impl Name {
    /// The interned characters.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        self.0.cmp(other.0)
    }
}

/// Interning conversions, so builders such as [`crate::ops::Put::add`]
/// take a `&str`, a `String` or an already-resolved `Name` (which passes
/// through without touching the table).
impl From<&str> for Name {
    fn from(name: &str) -> Name {
        intern_name(name)
    }
}

impl From<String> for Name {
    fn from(name: String) -> Name {
        intern_name(&name)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

// lint-allow(determinism): interner is probe/insert only, never iterated
fn table() -> &'static RwLock<HashSet<&'static str>> {
    // lint-allow(determinism): interner is probe/insert only, never iterated
    static TABLE: OnceLock<RwLock<HashSet<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashSet::new())) // lint-allow(determinism): interner is probe/insert only, never iterated
}

/// Interns a family, qualifier or table name, returning its handle.
pub fn intern_name(name: &str) -> Name {
    if let Some(existing) = lookup_name(name) {
        return existing;
    }
    let mut set = table().write().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = set.get(name) {
        return Name(existing);
    }
    let leaked: &'static str = Box::leak(Box::from(name));
    set.insert(leaked);
    Name(leaked)
}

/// Resolves a name without inserting; `None` means the name has never been
/// interned — and therefore no stored column can carry it.  Probe-only
/// paths (conditional reads, deletes of possibly-absent columns) use this
/// so data-derived lookups cannot grow the table.
pub fn lookup_name(name: &str) -> Option<Name> {
    table()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
        .map(|existing| Name(existing))
}

/// Position of the first element of `sorted` satisfying `is_it`, searching
/// from `from` and wrapping around.
///
/// This is how a name-sorted row is walked in step with a name-sorted table
/// (a projection, a schema's columns) using identity compares only: pass
/// the position after the previous hit, and each column of the row is found
/// at the first probe — O(1) per column, O(columns + table) per row —
/// without ever comparing two names' characters to decide which side to
/// advance.  A column the table lacks costs one lap; input in any other
/// order is still answered exactly, only slower.
pub fn position_from<T>(sorted: &[T], from: usize, is_it: impl Fn(&T) -> bool) -> Option<usize> {
    (from..sorted.len())
        .chain(0..from.min(sorted.len()))
        .find(|&at| is_it(&sorted[at]))
}

/// Number of distinct names interned so far (diagnostics and allocation
/// tests: repeated writes to existing columns must not grow this).
// lint-allow(reachability): the interner_stability and alloc_count tests read the interner's size, which no other API exposes
pub fn interned_name_count() -> usize {
    table().read().unwrap_or_else(PoisonError::into_inner).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_storage() {
        let a = intern_name("tst_store_intern_cf");
        let b = intern_name(&String::from("tst_store_intern_cf"));
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_ne!(a, intern_name("tst_store_intern_cg"));
    }

    #[test]
    fn names_order_like_their_strings() {
        // Interned out of order; `Ord` must still follow the characters.
        let z = intern_name("tst_store_ord_z");
        let a = intern_name("tst_store_ord_a");
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        assert_eq!(&*a, "tst_store_ord_a");
    }

    #[test]
    fn position_from_wraps_and_is_exact_in_any_order() {
        let table = [10, 20, 30, 40];
        assert_eq!(position_from(&table, 0, |&x| x == 10), Some(0));
        assert_eq!(position_from(&table, 1, |&x| x == 30), Some(2));
        assert_eq!(position_from(&table, 3, |&x| x == 20), Some(1), "wraps around");
        assert_eq!(position_from(&table, 4, |&x| x == 40), Some(3), "from one past the end");
        assert_eq!(position_from(&table, 2, |&x| x == 99), None);
        assert_eq!(position_from(&[] as &[i32], 0, |_| true), None);
    }

    #[test]
    fn lookup_never_inserts() {
        let before = interned_name_count();
        assert!(lookup_name("tst_store_lookup_never_seen").is_none());
        assert_eq!(interned_name_count(), before);
    }

    #[test]
    fn repeat_interning_does_not_grow_the_table() {
        let _ = intern_name("tst_store_intern_stable");
        let before = interned_name_count();
        for _ in 0..100 {
            let _ = intern_name("tst_store_intern_stable");
        }
        assert_eq!(interned_name_count(), before);
    }
}
