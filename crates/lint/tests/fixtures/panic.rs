//! Fixture: every panic-freedom trigger, plus the exempt forms.
pub fn unwraps(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn expects(x: Option<u8>) -> u8 {
    x.expect("present")
}

pub fn panics() {
    panic!("boom");
}

pub fn unreachable_macro() {
    unreachable!("invariant");
}

pub fn todo_macro() {
    todo!()
}

pub fn unimplemented_macro() {
    unimplemented!()
}

pub fn asserts(x: u8) {
    assert!(x > 0, "positive");
    assert_eq!(x, 1);
    assert_ne!(x, 2);
}

pub fn debug_asserts_are_fine(x: u8) {
    debug_assert!(x > 0);
    debug_assert_eq!(x, 1);
    debug_assert_ne!(x, 2);
}

pub fn suppressed(x: Option<u8>) -> u8 {
    x.unwrap() // lint-allow(panic-freedom): fixture-justified
}

pub fn unwrap_or_is_fine(x: Option<u8>) -> u8 {
    x.unwrap_or(0).min(x.unwrap_or_default()).min(x.unwrap_or_else(|| 1))
}

pub fn free_function_named_unwrap_is_fine() {
    fn unwrap() {}
    unwrap();
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        Some(1u8).unwrap();
        panic!("fine in tests");
    }
}
