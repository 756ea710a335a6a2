//! Non-test lines of code, so "less code" is a number the repo prints.
//!
//! A line counts when it carries at least one token of a library or binary
//! source file (`src/`, not `tests/`, `benches/` or `examples/`) outside
//! every `#[cfg(test)]` region.  Comments and blank lines carry no tokens,
//! so deleting comments or moving code into a test module does not read as
//! a reduction.

use crate::model::{FileKind, FileModel};
use crate::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Crate row of the standalone `benchmark/` package: counted and printed
/// beside the workspace's crates, but not part of [`LocReport::total`].
pub const BENCHMARK: &str = "benchmark";

/// Non-test LOC per crate and per file.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct LocReport {
    /// Crate directory name (`root` for the root package) → non-test LOC.
    pub crates: BTreeMap<String, usize>,
    /// Root-relative path → non-test LOC.
    pub files: BTreeMap<String, usize>,
}

impl LocReport {
    /// Workspace-wide non-test LOC (every crate row but [`BENCHMARK`]).
    pub fn total(&self) -> usize {
        self.crates.iter().filter(|(name, _)| *name != BENCHMARK).map(|(_, lines)| lines).sum()
    }
}

/// Non-test code lines of one parsed file.
fn code_lines(m: &FileModel) -> usize {
    m.tokens
        .iter()
        .enumerate()
        .filter(|(i, _)| !m.in_test_region(*i))
        .map(|(_, t)| t.line)
        .collect::<BTreeSet<usize>>()
        .len()
}

/// Counts non-test LOC over the given sources.
pub fn count(sources: &[SourceFile]) -> LocReport {
    let mut report = LocReport::default();
    for s in sources {
        if !matches!(s.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let lines = code_lines(&FileModel::parse(&s.text));
        *report.crates.entry(s.crate_name.clone()).or_insert(0) += lines;
        report.files.insert(s.rel_path.clone(), lines);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_lines_outside_test_regions_only() {
        let text = "//! docs\n\nuse std::fmt;\n\n/// doc\npub fn f() -> u8 {\n    // comment\n    1 // trailing\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::f(), 1); }\n}\n";
        let file = |crate_name: &str, rel_path: &str, kind| SourceFile {
            crate_name: crate_name.into(),
            rel_path: rel_path.into(),
            kind,
            text: text.into(),
        };
        let report = count(&[
            file("nosql-store", "crates/nosql-store/src/a.rs", FileKind::Lib),
            file("nosql-store", "crates/nosql-store/tests/a.rs", FileKind::Test),
            file("bench", "crates/bench/src/bin/b.rs", FileKind::Bin),
            file(BENCHMARK, "benchmark/src/main.rs", FileKind::Bin),
        ]);
        // `use`, `pub fn`, `1`, `}` — docs, comments, blanks and the test
        // module carry nothing; the integration-test file is not counted.
        assert_eq!(report.crates["nosql-store"], 4);
        assert_eq!(report.crates["bench"], 4);
        // The benchmark package has its row, outside the workspace total.
        assert_eq!(report.crates[BENCHMARK], 4);
        assert_eq!(report.total(), 8);
        assert_eq!(report.files.len(), 3);
        assert_eq!(report.files["crates/nosql-store/src/a.rs"], 4);
        assert_eq!(report.files["crates/bench/src/bin/b.rs"], 4);
    }
}
