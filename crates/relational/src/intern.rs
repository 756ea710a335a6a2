//! Global attribute-name interner.
//!
//! Every attribute name flowing through the row layer (`"c_id"`,
//! `"c.c_id"`, `"SUM(ol.ol_qty)"`, ...) is interned once into an
//! append-only table and afterwards handled as a [`Symbol`]: a `Copy`
//! handle carrying the integer id of the name, the id of its **bare** form
//! (the suffix after the last `.`), and a `&'static str` to the name's
//! characters (leaked on first sight — the table never evicts, so an
//! interned name is never freed however it is owned).  Equality and
//! hashing are integer compares on the id; suffix matching — the workhorse of
//! [`Row::get`](crate::Row::get) — is an integer compare on `bare_id`
//! instead of a per-lookup `rsplit('.')` scan.
//!
//! The name universe is bounded: names come from relational schemas, query
//! aliases and aggregate labels, all of which are fixed per workload, so the
//! table only grows during warm-up and the interner never evicts.
//! [`lookup`] never inserts, which keeps probe-only paths (e.g. `get` with a
//! name the row cannot contain) allocation-free.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// An interned attribute name.
///
/// Two symbols are equal iff they were interned from the same string; the
/// comparison is a single integer compare.  `Ord` follows the *name's*
/// lexicographic order (not insertion order) so sorted containers of
/// symbols iterate in the same order a `BTreeMap<String, _>` would.
#[derive(Debug, Clone, Copy)]
pub struct Symbol {
    id: u32,
    bare_id: u32,
    name: &'static str,
}

impl Symbol {
    /// The interner id of this name.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The interner id of the bare form of this name (the suffix after the
    /// last `.`; equals [`Symbol::id`] when the name has no qualifier).
    pub fn bare_id(&self) -> u32 {
        self.bare_id
    }

    /// The interned name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The bare form of the name (`"e.EID"` → `"EID"`).
    pub fn bare_name(&self) -> &'static str {
        self.name.rsplit('.').next().unwrap_or(self.name)
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.id == other.id {
            return std::cmp::Ordering::Equal;
        }
        self.name().cmp(other.name())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

struct Inner {
    ids: HashMap<&'static str, u32>,
    /// `id → (name, bare_id)`, append-only.
    entries: Vec<(&'static str, u32)>,
}

fn table() -> &'static RwLock<Inner> {
    static TABLE: OnceLock<RwLock<Inner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Inner {
            ids: HashMap::new(),
            entries: Vec::new(),
        })
    })
}

fn symbol_at(inner: &Inner, id: u32) -> Symbol {
    let (name, bare_id) = inner.entries[id as usize];
    Symbol { id, bare_id, name }
}

/// Interns `name`, inserting it (and its bare form) on first sight.
pub fn intern(name: &str) -> Symbol {
    {
        let inner = table().read().expect("interner lock");
        if let Some(&id) = inner.ids.get(name) {
            return symbol_at(&inner, id);
        }
    }
    let mut inner = table().write().expect("interner lock");
    let id = intern_locked(&mut inner, name);
    symbol_at(&inner, id)
}

fn intern_locked(inner: &mut Inner, name: &str) -> u32 {
    if let Some(&id) = inner.ids.get(name) {
        return id;
    }
    let bare = name.rsplit('.').next().unwrap_or(name);
    // The bare form never itself contains a dot, so this recurses at most
    // once; the qualified name is inserted after it.
    let bare_id = (bare != name).then(|| intern_locked(inner, bare));
    let id = inner.entries.len() as u32;
    let leaked: &'static str = Box::leak(Box::from(name));
    inner.ids.insert(leaked, id);
    inner.entries.push((leaked, bare_id.unwrap_or(id)));
    id
}

/// Resolves `name` without inserting; `None` means the name has never been
/// interned (and therefore cannot appear in any row).
pub fn lookup(name: &str) -> Option<Symbol> {
    let inner = table().read().expect("interner lock");
    inner.ids.get(name).map(|&id| symbol_at(&inner, id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_id_stable() {
        let a = intern("tst_intern.a");
        let b = intern("tst_intern.a");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.name(), "tst_intern.a");
    }

    #[test]
    fn bare_ids_connect_qualified_and_bare_names() {
        let qualified = intern("tst_bare.q.Col");
        // Interning a qualified name interns its bare form too.
        let bare = lookup("Col").expect("bare form interned alongside");
        assert_eq!(qualified.bare_id(), bare.id());
        assert_eq!(bare.bare_id(), bare.id());
        assert_eq!(qualified.bare_name(), "Col");
    }

    #[test]
    fn lookup_never_inserts() {
        // A second miss proves the first inserted nothing (counting the
        // global table would race with tests interning in parallel).
        assert!(lookup("tst_lookup_never_seen_xyz").is_none());
        assert!(lookup("tst_lookup_never_seen_xyz").is_none());
    }

    #[test]
    fn symbol_order_follows_name_order() {
        // Intern out of lexicographic order; Ord must still follow names.
        let z = intern("tst_ord.z");
        let a = intern("tst_ord.a");
        assert!(a < z);
        assert!(z > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
