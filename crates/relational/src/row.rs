//! Named tuples (rows) flowing through the query layers.
//!
//! Attribute names are interned [`Symbol`]s (see [`crate::intern`]), so the
//! hot operations on the read path — exact lookup, suffix matching, alias
//! qualification, join concatenation — are integer compares and `Arc` clones
//! instead of `String` allocation and character-wise comparison.

use crate::intern::{self, Symbol};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

type Entry = (Symbol, Value);

/// A row: an ordered mapping from attribute name to [`Value`].
///
/// Attribute names are stored fully qualified or bare depending on context;
/// [`Row::get`] falls back to suffix matching (`"e.EID"` matches `"EID"`) so
/// join outputs that prefix attributes with their relation alias remain easy
/// to consume.
///
/// # Representation
///
/// A row is a small sorted vector of `(Symbol, Value)` entries (the typical
/// row has ≤ 30 columns) plus any number of **shared segments**: immutable
/// `Arc<[Entry]>` slices contributed by join concatenation, so the rows a
/// hash join emits share their unchanged left/right halves instead of
/// deep-cloning every matched row.  All segments hold pairwise-disjoint
/// attribute sets; iteration merges them in attribute-name order, matching
/// the former `BTreeMap<String, Value>` semantics exactly.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Row {
    /// Owned entries, sorted by attribute name.
    own: Vec<Entry>,
    /// Shared immutable segments, each sorted by attribute name and
    /// attribute-disjoint from `own` and from each other.
    shared: Vec<Arc<[Entry]>>,
}

impl Row {
    /// Creates an empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Creates an empty row with capacity for `n` owned attributes.
    pub fn with_capacity(n: usize) -> Row {
        Row {
            own: Vec::with_capacity(n),
            shared: Vec::new(),
        }
    }

    /// Builds a row from `(attribute, value)` pairs.
    pub fn from_pairs<I, K, V>(pairs: I) -> Row
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<str>,
        V: Into<Value>,
    {
        let mut row = Row::new();
        for (k, v) in pairs {
            row.set(k, v);
        }
        row
    }

    /// Sets an attribute value, replacing any previous value.
    pub fn set(&mut self, attribute: impl AsRef<str>, value: impl Into<Value>) -> &mut Self {
        self.set_interned(intern::intern(attribute.as_ref()), value)
    }

    /// [`Row::set`] with a pre-interned attribute symbol — the fast path for
    /// decoders and the executor, which intern each name once per statement
    /// or table instead of once per row.
    pub fn set_interned(&mut self, sym: Symbol, value: impl Into<Value>) -> &mut Self {
        let value = value.into();
        if let Some(entry) = self.own.iter_mut().find(|e| e.0 == sym) {
            entry.1 = value;
            return self;
        }
        if let Some(i) = self
            .shared
            .iter()
            .position(|seg| seg.iter().any(|e| e.0 == sym))
        {
            // Rare: overwriting an attribute owned by a shared segment.
            // Un-share that segment into `own`, then overwrite.
            let seg = self.shared.remove(i);
            for e in seg.iter() {
                if e.0 != sym {
                    self.insert_own(e.0, e.1.clone());
                }
            }
        }
        self.insert_own(sym, value);
        self
    }

    fn insert_own(&mut self, sym: Symbol, value: Value) {
        match self
            .own
            .binary_search_by(|e| e.0.name().cmp(sym.name()))
        {
            Ok(i) => self.own[i].1 = value,
            Err(i) => self.own.insert(i, (sym, value)),
        }
    }

    /// Appends an attribute that sorts at or after every attribute already
    /// owned (debug-asserted).  Decoders walking store cells in qualifier
    /// order use this to build rows in O(1) per column; appending the same
    /// attribute again overwrites the value.
    pub fn push_sorted(&mut self, sym: Symbol, value: Value) {
        debug_assert!(
            self.shared.is_empty(),
            "push_sorted only applies to fully-owned rows"
        );
        if let Some(last) = self.own.last_mut() {
            debug_assert!(last.0.name() <= sym.name(), "push_sorted out of order");
            if last.0 == sym {
                last.1 = value;
                return;
            }
        }
        self.own.push((sym, value));
    }

    /// Builder-style [`Row::set`].
    pub fn with(mut self, attribute: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.set(attribute, value);
        self
    }

    /// Looks up an attribute, first exactly and then by unqualified suffix.
    ///
    /// The suffix fallback matches attributes whose bare name (the part
    /// after the last `.`) equals the bare name of `attribute`, e.g. asking
    /// for `"EID"` finds `"e.EID"` and vice versa.  When several attributes
    /// share the same bare suffix, the one with the **lexicographically
    /// smallest full name** wins — deterministic, and identical to the
    /// iteration order the previous `BTreeMap` representation searched in.
    pub fn get(&self, attribute: &str) -> Option<&Value> {
        match intern::lookup(attribute) {
            Some(sym) => self.get_interned(&sym),
            None => {
                // Never-interned names cannot match exactly, but their bare
                // form may still suffix-match (e.g. "z.EID" against "e.EID").
                let bare = attribute.rsplit('.').next().unwrap_or(attribute);
                let bare_sym = intern::lookup(bare)?;
                self.get_by_bare(bare_sym.bare_id())
            }
        }
    }

    /// [`Row::get`] with a pre-interned symbol (exact match, then the same
    /// deterministic suffix fallback).
    pub fn get_interned(&self, sym: &Symbol) -> Option<&Value> {
        let id = sym.id();
        if let Some(e) = self.own.iter().find(|e| e.0.id() == id) {
            return Some(&e.1);
        }
        for seg in &self.shared {
            if let Some(e) = seg.iter().find(|e| e.0.id() == id) {
                return Some(&e.1);
            }
        }
        self.get_by_bare(sym.bare_id())
    }

    /// Deterministic suffix match: among entries whose bare id equals
    /// `bare_id`, returns the one with the smallest full attribute name.
    fn get_by_bare(&self, bare_id: u32) -> Option<&Value> {
        let mut best: Option<&Entry> = None;
        for e in self.segments().flat_map(|seg| seg.iter()) {
            if e.0.bare_id() == bare_id {
                match best {
                    Some(b) if b.0.name() <= e.0.name() => {}
                    _ => best = Some(e),
                }
            }
        }
        best.map(|e| &e.1)
    }

    fn segments(&self) -> impl Iterator<Item = &[Entry]> {
        std::iter::once(self.own.as_slice()).chain(self.shared.iter().map(|s| s.as_ref()))
    }

    /// Entries of every segment, merged into attribute-name order.
    fn ordered_entries(&self) -> RowEntries<'_> {
        RowEntries {
            segments: self.segments().collect(),
        }
    }

    /// True if the row has an exact or suffix match for the attribute.
    pub fn contains(&self, attribute: &str) -> bool {
        self.get(attribute).is_some()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.own.len() + self.shared.iter().map(|s| s.len()).sum::<usize>()
    }

    /// True if the row holds no attributes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(attribute, value)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.ordered_entries().map(|e| (e.0.name(), &e.1))
    }

    /// Attribute names in order.
    pub fn attributes(&self) -> impl Iterator<Item = &str> {
        self.ordered_entries().map(|e| e.0.name())
    }

    /// Iterates over `(symbol, value)` pairs in attribute order — the
    /// zero-re-interning counterpart of [`Row::iter`] for callers that copy
    /// attributes into another row.
    pub fn iter_interned(&self) -> impl Iterator<Item = (&Symbol, &Value)> {
        self.ordered_entries().map(|e| (&e.0, &e.1))
    }

    /// Converts the owned entries into a shared segment, making subsequent
    /// [`Row::join_concat`] and [`Clone`] O(segments) instead of O(columns).
    pub fn freeze(&mut self) {
        if !self.own.is_empty() {
            let own = std::mem::take(&mut self.own);
            self.shared.push(own.into());
        }
    }

    /// Concatenates two rows with **disjoint attribute sets** (debug-
    /// asserted), sharing both operands' frozen segments instead of cloning
    /// their entries.  This is how the hash join emits result rows: the
    /// unchanged left and right halves are `Arc` slices shared by every
    /// output row they participate in.
    pub fn join_concat(&self, right: &Row) -> Row {
        debug_assert!(
            self.attributes_disjoint(right),
            "join_concat operands must have disjoint attribute sets"
        );
        let mut own = self.own.clone();
        for e in &right.own {
            own.push(e.clone());
        }
        own.sort_by(|a, b| a.0.name().cmp(b.0.name()));
        Row {
            own,
            shared: self
                .shared
                .iter()
                .chain(right.shared.iter())
                .cloned()
                .collect(),
        }
    }

    /// True if no attribute name appears in both rows.
    pub fn attributes_disjoint(&self, other: &Row) -> bool {
        for e in self.segments().flat_map(|s| s.iter()) {
            let id = e.0.id();
            if other
                .segments()
                .flat_map(|s| s.iter())
                .any(|o| o.0.id() == id)
            {
                return false;
            }
        }
        true
    }

    /// Merges another row into this one, prefixing its attributes with
    /// `prefix.` — used when concatenating join operands.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &Row) {
        for e in other.ordered_entries() {
            let bare = e.0.bare_name();
            self.set(format!("{prefix}.{bare}"), e.1.clone());
        }
    }

    /// Returns a copy whose attribute names are stripped of any qualifier.
    /// When two attributes collapse to the same bare name, the value of the
    /// lexicographically larger qualified name wins (the former `BTreeMap`
    /// insertion order).
    pub fn unqualified(&self) -> Row {
        let mut row = Row::new();
        for e in self.ordered_entries() {
            row.set(e.0.bare_name(), e.1.clone());
        }
        row
    }

    /// Approximate serialized size, used for storage/transfer accounting.
    pub fn byte_size(&self) -> usize {
        self.segments()
            .flat_map(|s| s.iter())
            .map(|e| e.0.name().len() + e.1.byte_size())
            .sum()
    }
}

/// Merge iterator over a row's sorted, attribute-disjoint segments.
struct RowEntries<'a> {
    segments: Vec<&'a [Entry]>,
}

impl<'a> Iterator for RowEntries<'a> {
    type Item = &'a Entry;

    fn next(&mut self) -> Option<&'a Entry> {
        let mut best: Option<usize> = None;
        for (i, seg) in self.segments.iter().enumerate() {
            let Some(head) = seg.first() else { continue };
            match best {
                Some(b) if self.segments[b][0].0.name() <= head.0.name() => {}
                _ => best = Some(i),
            }
        }
        let b = best?;
        let (head, rest) = self.segments[b].split_first()?;
        self.segments[b] = rest;
        Some(head)
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        self.ordered_entries()
            .zip(other.ordered_entries())
            .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
    }
}

impl Eq for Row {}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl<K: AsRef<str>, V: Into<Value>> FromIterator<(K, V)> for Row {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        Row::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_suffix_match() {
        let row = Row::new().with("e.EID", 7).with("EName", "alice");
        assert_eq!(row.get("e.EID").unwrap().as_int(), Some(7));
        assert_eq!(row.get("EID").unwrap().as_int(), Some(7));
        assert_eq!(row.get("e.EName").unwrap().as_str(), Some("alice"));
        assert!(row.get("missing").is_none());
        assert!(row.contains("EName"));
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn merge_prefixed_namespaces_attributes() {
        let left = Row::new().with("EID", 1);
        let right = Row::new().with("AID", 9).with("City", "Nashville");
        let mut joined = Row::new();
        joined.merge_prefixed("e", &left);
        joined.merge_prefixed("a", &right);
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.get("a.City").unwrap().as_str(), Some("Nashville"));
        assert_eq!(joined.get("e.EID").unwrap().as_int(), Some(1));
    }

    #[test]
    fn unqualified_strips_prefixes() {
        let row = Row::new().with("c.C_ID", 1).with("o.O_ID", 2);
        let bare = row.unqualified();
        assert!(bare.contains("C_ID"));
        assert!(bare.contains("O_ID"));
        assert_eq!(bare.len(), 2);
    }

    #[test]
    fn display_and_size() {
        let row = Row::new().with("a", 1).with("b", "xy");
        assert_eq!(row.to_string(), "{a=1, b='xy'}");
        assert_eq!(row.byte_size(), 1 + 8 + 1 + 2);
    }

    #[test]
    fn suffix_match_is_deterministic_smallest_name_first() {
        // Two qualified attributes share the bare suffix "X"; the winner is
        // the lexicographically smallest full name, regardless of insertion
        // order.
        let row = Row::new().with("zz.X", 1).with("aa.X", 2);
        assert_eq!(row.get("X").unwrap().as_int(), Some(2));
        assert_eq!(row.get("other.X").unwrap().as_int(), Some(2));
        // And the same via the reversed insertion order.
        let row = Row::new().with("aa.X", 2).with("zz.X", 1);
        assert_eq!(row.get("X").unwrap().as_int(), Some(2));
    }

    #[test]
    fn join_concat_shares_segments_and_merges_in_order() {
        let mut left = Row::new().with("a.A", 1).with("a.C", 3);
        let mut right = Row::new().with("b.B", 2);
        left.freeze();
        right.freeze();
        let joined = left.join_concat(&right);
        assert_eq!(joined.len(), 3);
        let names: Vec<&str> = joined.attributes().collect();
        assert_eq!(names, vec!["a.A", "a.C", "b.B"]);
        assert_eq!(joined.get("B").unwrap().as_int(), Some(2));
        // Equality must see through the segment structure.
        let flat = Row::new().with("a.A", 1).with("a.C", 3).with("b.B", 2);
        assert_eq!(joined, flat);
        assert_eq!(joined.to_string(), flat.to_string());
    }

    #[test]
    fn set_on_shared_segment_unshares_and_overwrites() {
        let mut row = Row::new().with("a.A", 1).with("a.B", 2);
        row.freeze();
        row.set("a.A", 10);
        assert_eq!(row.get("a.A").unwrap().as_int(), Some(10));
        assert_eq!(row.get("a.B").unwrap().as_int(), Some(2));
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn push_sorted_builds_rows_in_order() {
        let mut row = Row::with_capacity(3);
        for name in ["m.a", "m.b", "m.c"] {
            row.push_sorted(crate::intern::intern(name), Value::Int(1));
        }
        assert_eq!(row.len(), 3);
        assert_eq!(
            row.attributes().collect::<Vec<_>>(),
            vec!["m.a", "m.b", "m.c"]
        );
        // Re-pushing the last attribute overwrites in place.
        row.push_sorted(crate::intern::intern("m.c"), Value::Int(9));
        assert_eq!(row.len(), 3);
        assert_eq!(row.get("m.c").unwrap().as_int(), Some(9));
    }
}
