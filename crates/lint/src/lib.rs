//! Workspace invariant linter.
//!
//! Five rules, each encoding an invariant this repo's correctness argument
//! already leans on (see README § "Static analysis"):
//!
//! | rule            | invariant |
//! |-----------------|-----------|
//! | `determinism`   | sim-figure crates take time from `SimClock` and iterate ordered containers |
//! | `lock-discipline` | lock acquisition order is acyclic; no guard is held across a thread fan-out |
//! | `cost-accounting` | public `Cluster` ops that touch region state charge the cost model |
//! | `panic-freedom` | store/view/query library code returns errors instead of panicking |
//! | `reachability`  | every `pub fn` of library code is named by some non-test file |
//!
//! The only way to suppress a violation is a per-line
//! `// lint-allow(<rule>): <reason>` pragma (reason mandatory).

pub mod lexer;
pub mod loc;
pub mod locks;
pub mod model;
pub mod report;
pub mod rules;

use model::{FileKind, FileModel};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_LOCKS: &str = "lock-discipline";
pub const RULE_COST: &str = "cost-accounting";
pub const RULE_PANIC: &str = "panic-freedom";
pub const RULE_REACH: &str = "reachability";
/// Meta-rule for malformed pragmas (not itself suppressible).
pub const RULE_PRAGMA: &str = "pragma";

/// Rule slugs a `lint-allow(...)` pragma may name.
pub const KNOWN_RULES: &[&str] = &[RULE_DETERMINISM, RULE_LOCKS, RULE_COST, RULE_PANIC, RULE_REACH];

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    /// Root-relative path, forward slashes.
    pub file: String,
    pub line: usize,
    pub message: String,
    /// Trimmed source line, for the report and the fingerprint.
    pub snippet: String,
    /// Content fingerprint (assigned by the driver): FNV-1a-64 of
    /// `rule|file|snippet|occurrence-index`, stable under line-number
    /// drift — what a report consumer keys a violation by.
    pub fingerprint: String,
}

impl Violation {
    pub fn new(rule: &'static str, file: &str, line: usize, message: String, m: &FileModel) -> Self {
        Violation {
            rule,
            file: file.to_string(),
            line,
            message,
            snippet: m.line_text(line).to_string(),
            fingerprint: String::new(),
        }
    }
}

/// A source file queued for linting.
pub struct SourceFile {
    /// Crate directory name (`nosql-store`, `synergy`, …); the root package
    /// scans as `root`.
    pub crate_name: String,
    /// Path relative to the workspace root.
    pub rel_path: String,
    pub kind: FileKind,
    pub text: String,
}

/// FNV-1a 64-bit, rendered as 16 hex digits.  Stable, dependency-free and
/// good enough for content fingerprints.
pub fn fnv1a64(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Walks the workspace and collects `.rs` sources: every `crates/*` member,
/// the root package and, as crate [`loc::BENCHMARK`], the standalone
/// `benchmark/` package (outside the workspace, read-only to most changes),
/// whose files the rules read as references but never lint.  Shims are
/// excluded (vendored compatibility surface, not part of the invariant
/// story), as is anything under a `fixtures/` directory (linter test inputs
/// violate rules on purpose).
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        collect_crate(root, &dir, &name, &mut out)?;
    }
    collect_crate(root, root, "root", &mut out)?;
    collect_crate(root, &root.join(loc::BENCHMARK), loc::BENCHMARK, &mut out)?;
    Ok(out)
}

fn collect_crate(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    for (sub, default_kind) in [
        ("src", FileKind::Lib),
        ("tests", FileKind::Test),
        ("benches", FileKind::Test),
        ("examples", FileKind::Example),
    ] {
        let base = dir.join(sub);
        if !base.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        walk_rs(&base, &mut files)?;
        files.sort();
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if rel.split('/').any(|seg| seg == "fixtures") {
                continue;
            }
            let kind = if default_kind == FileKind::Lib
                && (rel.contains("/src/bin/") || rel.ends_with("src/main.rs"))
            {
                FileKind::Bin
            } else {
                default_kind
            };
            out.push(SourceFile {
                crate_name: crate_name.to_string(),
                rel_path: rel,
                kind,
                text: std::fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)?.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every rule over the given sources and returns fingerprinted,
/// pragma-filtered violations sorted by (file, line, rule).  Files of crate
/// [`loc::BENCHMARK`] only feed `reachability` its references.
pub fn lint_sources(sources: &[SourceFile]) -> Vec<Violation> {
    let parsed: Vec<FileModel> = sources.iter().map(|s| FileModel::parse(&s.text)).collect();
    let files: Vec<(&SourceFile, &FileModel)> = sources.iter().zip(&parsed).collect();
    let mut models: BTreeMap<&str, &FileModel> = BTreeMap::new();
    let mut raw: Vec<Violation> = Vec::new();
    let mut lock_facts: BTreeMap<&str, Vec<locks::LockFacts>> = BTreeMap::new();

    rules::reachability(&files, &mut raw);
    for &(s, m) in files.iter().filter(|(s, _)| s.crate_name != loc::BENCHMARK) {
        rules::pragma_hygiene(&s.rel_path, m, &mut raw);
        rules::determinism(&s.crate_name, s.kind, &s.rel_path, m, &mut raw);
        rules::cost_accounting(&s.crate_name, s.kind, &s.rel_path, m, &mut raw);
        rules::panic_freedom(&s.crate_name, s.kind, &s.rel_path, m, &mut raw);
        if matches!(s.kind, FileKind::Lib | FileKind::Bin) {
            lock_facts
                .entry(s.crate_name.as_str())
                .or_default()
                .push(locks::extract(&s.rel_path, m));
        }
        models.insert(s.rel_path.as_str(), m);
    }

    for (_crate, facts) in lock_facts {
        for (message, file, line) in locks::analyze_crate(facts) {
            let snippet = models
                .get(file.as_str())
                .map(|m| m.line_text(line).to_string())
                .unwrap_or_default();
            raw.push(Violation {
                rule: RULE_LOCKS,
                file,
                line,
                message,
                snippet,
                fingerprint: String::new(),
            });
        }
    }

    // Inline pragmas suppress everything except pragma hygiene itself.
    raw.retain(|v| {
        v.rule == RULE_PRAGMA
            || !models
                .get(v.file.as_str())
                .is_some_and(|m| m.suppressed(v.rule, v.line))
    });

    raw.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });

    // Fingerprints: identical (rule, file, snippet) triples are
    // disambiguated by occurrence index, in file order.
    let mut seen: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for v in &mut raw {
        let key = (v.rule.to_string(), v.file.clone(), v.snippet.clone());
        let occ = seen.entry(key).or_insert(0);
        v.fingerprint = fnv1a64(&format!("{}|{}|{}|{}", v.rule, v.file, v.snippet, occ));
        *occ += 1;
    }
    raw
}

/// Collects and lints a workspace root: the one run both `cargo run -p
/// lint` and the `workspace_lints_clean` gate make.
pub fn lint_workspace(root: &Path) -> std::io::Result<report::RunReport> {
    let sources = collect_sources(root)?;
    Ok(report::RunReport {
        violations: lint_sources(&sources),
        files_scanned: sources.iter().filter(|s| s.crate_name != loc::BENCHMARK).count(),
        loc: loc::count(&sources),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_distinguish_occurrences_not_lines() {
        let src = "fn a() { x.unwrap(); }\nfn b() { x.unwrap(); }\n";
        let sources = vec![SourceFile {
            crate_name: "synergy".into(),
            rel_path: "crates/synergy/src/lib.rs".into(),
            kind: FileKind::Lib,
            text: src.into(),
        }];
        let v = lint_sources(&sources);
        assert_eq!(v.len(), 2);
        assert_ne!(v[0].fingerprint, v[1].fingerprint, "occurrence index separates twins");

        // Shifting both down a line keeps both fingerprints stable.
        let shifted = format!("// header\n{src}");
        let sources2 = vec![SourceFile {
            crate_name: "synergy".into(),
            rel_path: "crates/synergy/src/lib.rs".into(),
            kind: FileKind::Lib,
            text: shifted,
        }];
        let v2 = lint_sources(&sources2);
        assert_eq!(v[0].fingerprint, v2[0].fingerprint);
        assert_eq!(v[1].fingerprint, v2[1].fingerprint);
    }

    #[test]
    fn pragma_suppresses_and_pragma_errors_survive() {
        let src = "fn a() { x.unwrap(); } // lint-allow(panic-freedom): poison cannot escape here\nfn b() { y.unwrap(); } // lint-allow(panic-freedom)\nfn c() {} // lint-allow(no-such-rule): whatever\n";
        let sources = vec![SourceFile {
            crate_name: "query".into(),
            rel_path: "crates/query/src/lib.rs".into(),
            kind: FileKind::Lib,
            text: src.into(),
        }];
        let v = lint_sources(&sources);
        // Line 1 suppressed; line 2's unwrap fires (reasonless pragma is
        // inert) plus a pragma violation; line 3 is a pragma violation.
        assert!(v.iter().any(|x| x.rule == RULE_PANIC && x.line == 2));
        assert!(!v.iter().any(|x| x.rule == RULE_PANIC && x.line == 1));
        assert_eq!(v.iter().filter(|x| x.rule == RULE_PRAGMA).count(), 2);
    }
}
