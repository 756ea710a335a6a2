//! Typed attribute values.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single attribute value.
///
/// The type set covers what TPC-W and the Company example need: integers,
/// decimals (stored as `f64`), strings and NULL.  Values have a total order
/// (NULL sorts first, then numbers, then strings) so they can be used as
/// sort keys and row-key components.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision decimal (prices, discounts, ...).
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float if this is numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True if this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Encodes the value for storage in a NoSQL cell or row key.
    ///
    /// The encoding is human-readable (ints and floats in decimal, strings
    /// verbatim) because HBase row keys in the paper are delimited
    /// concatenations of attribute values.
    pub fn encode(&self) -> String {
        let mut encoded = String::new();
        self.encode_into(&mut encoded);
        encoded
    }

    /// Appends [`Value::encode`]'s text to `out`, so a caller encoding many
    /// values (every cell of a row) can reuse one buffer.
    pub fn encode_into(&self, out: &mut String) {
        use fmt::Write;
        match self {
            Value::Null => {}
            Value::Str(s) => out.push_str(s),
            // A number encodes as it displays; writing to a `String` cannot fail.
            number => write!(out, "{number}").unwrap_or(()),
        }
    }

    /// Decodes a cell back into a value given the original's type as a hint.
    pub fn decode_as(&self, encoded: &str) -> Value {
        match self {
            Value::Null => Value::Null,
            Value::Int(_) => encoded.parse().map(Value::Int).unwrap_or(Value::Null),
            Value::Float(_) => encoded.parse().map(Value::Float).unwrap_or(Value::Null),
            Value::Str(_) => Value::Str(encoded.to_string()),
        }
    }

    /// Approximate serialized size in bytes, for storage accounting.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len(),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Ints and equal-valued floats must hash identically because they
            // compare equal (e.g. joins on Int(3) == Float(3.0)).
            Value::Int(v) => (*v as f64).to_bits().hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn conversions_and_accessors() {
        assert_eq!(Value::from(5i64).as_int(), Some(5));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
    }

    #[test]
    fn ordering_is_total_and_sensible() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Int(2) < Value::Str("a".into()));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert_eq!(Value::Int(3), Value::Float(3.0));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_eq!(hash_of(&Value::str("abc")), hash_of(&Value::str("abc")));
    }

    #[test]
    fn encode_round_trips_with_type_hint() {
        let v = Value::Int(42);
        assert_eq!(v.decode_as(&v.encode()), v);
        let s = Value::str("hello world");
        assert_eq!(s.decode_as(&s.encode()), s);
        let f = Value::Float(1.25);
        assert_eq!(f.decode_as(&f.encode()), f);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("x").to_string(), "'x'");
    }

    proptest! {
        #[test]
        fn int_encode_decode_round_trip(v in any::<i64>()) {
            let value = Value::Int(v);
            prop_assert_eq!(value.decode_as(&value.encode()), value);
        }

        #[test]
        fn ordering_is_antisymmetric(a in any::<i64>(), b in any::<i64>()) {
            let (va, vb) = (Value::Int(a), Value::Int(b));
            prop_assert_eq!(va.cmp(&vb), vb.cmp(&va).reverse());
        }
    }
}
