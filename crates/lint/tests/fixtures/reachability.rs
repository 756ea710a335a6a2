//! Fixture: library code of a workspace crate, as the reachability rule
//! sees it.  The other files of the rule's test name some of these items.

pub fn dead() {}

pub fn named_only_in_cfg_test() {}

pub fn named_only_in_a_tests_file() {}

pub fn named_only_by_a_pub_use() {}

pub fn named_only_by_itself(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        named_only_by_itself(n - 1)
    }
}

pub fn named_by_the_benchmark() {}

pub fn named_by_an_example() {}

pub fn named_by_a_binary() {}

pub(crate) fn crate_private() {}

pub trait Greet {
    fn trait_method(&self);
}

pub struct S;

impl Greet for S {
    fn trait_method(&self) {}
}

// lint-allow(reachability): the fixture's own test needs it
pub fn kept_by_a_pragma() {}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        super::named_only_in_cfg_test();
    }
}
