//! Row-key encoding for the baseline relational → NoSQL transformation.
//!
//! Paper §II-D: "The row key of R′ is a delimited concatenation of the value
//! of attributes in PK(R)."  The same encoding is used for index tables and
//! for the lock tables created per root relation.

use crate::value::Value;

/// Delimiter between key components.  `\u{1}` cannot appear in workload data
/// and sorts below all printable characters, so composite keys keep the same
/// order as their components.
pub const KEY_DELIMITER: char = '\u{1}';

/// Encodes an ordered list of key attribute values into a row key.
pub fn encode_key<'a>(values: impl IntoIterator<Item = &'a Value>) -> String {
    let mut out = String::new();
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(KEY_DELIMITER);
        }
        v.encode_into(&mut out);
    }
    out
}

/// Splits a row key back into its encoded components.
pub fn decode_key(key: &str) -> Vec<String> {
    if key.is_empty() {
        return Vec::new();
    }
    key.split(KEY_DELIMITER).map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_and_composite_keys() {
        assert_eq!(encode_key([&Value::Int(42)]), "42");
        let key = encode_key([&Value::Int(1), &Value::str("a")]);
        assert_eq!(decode_key(&key), vec!["1", "a"]);
        assert!(decode_key("").is_empty());
    }

    #[test]
    fn composite_keys_preserve_component_order() {
        let k1 = encode_key([&Value::Int(1), &Value::Int(9)]);
        let k2 = encode_key([&Value::Int(1), &Value::Int(10)]);
        let k3 = encode_key([&Value::Int(2), &Value::Int(0)]);
        // Lexicographic on encoded strings keeps the (1,*) group before (2,*).
        assert!(k1 < k3);
        assert!(k2 < k3);
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary_string_components(
            parts in proptest::collection::vec("[a-zA-Z0-9_ -]{1,12}", 1..5)
        ) {
            let values: Vec<Value> = parts.iter().map(|p| Value::str(p.clone())).collect();
            let key = encode_key(values.iter());
            prop_assert_eq!(decode_key(&key), parts);
        }
    }
}
