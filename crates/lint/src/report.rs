//! Human and JSON renderings of a lint run.  JSON is hand-rolled (the
//! workspace builds offline; the serde shim is for the product crates, not
//! tooling) — the schema is flat enough that escaping strings suffices.

use crate::loc::LocReport;
use crate::Violation;
use std::fmt::Write as _;

/// Everything a run produced, ready to render.
pub struct RunReport {
    /// Violations no `lint-allow` pragma covers.
    pub violations: Vec<Violation>,
    /// Workspace files scanned (the benchmark package's are not).
    pub files_scanned: usize,
    /// Non-test lines of code (informational; never gates).
    pub loc: LocReport,
}

impl RunReport {
    /// Gate verdict: clean means no violation.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Human-readable report (the default `cargo run -p lint` output).
pub fn human(r: &RunReport) -> String {
    let mut s = String::new();
    for v in &r.violations {
        let _ = writeln!(s, "{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        if !v.snippet.is_empty() {
            let _ = writeln!(s, "    | {}", v.snippet);
        }
        let _ = writeln!(s, "    = fingerprint {}", v.fingerprint);
    }
    let _ = writeln!(s, "non-test LOC by crate (code lines outside #[cfg(test)]):");
    for (name, lines) in &r.loc.crates {
        let _ = writeln!(s, "  {name:<14} {lines:>6}");
    }
    let _ = writeln!(s, "  {:<14} {:>6}  (workspace: without benchmark)", "total", r.loc.total());
    let _ = writeln!(s, "non-test LOC by file:");
    for (file, lines) in &r.loc.files {
        let _ = writeln!(s, "  {file:<44} {lines:>6}");
    }
    let mut by_rule: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for v in &r.violations {
        *by_rule.entry(v.rule).or_insert(0) += 1;
    }
    let counts = if by_rule.is_empty() {
        "none".to_string()
    } else {
        by_rule
            .iter()
            .map(|(k, n)| format!("{k}: {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(
        s,
        "lint: {} file(s) scanned, {} violation(s) ({counts})",
        r.files_scanned,
        r.violations.len(),
    );
    let _ = writeln!(s, "lint: {}", if r.clean() { "PASS" } else { "FAIL" });
    s
}

/// JSON report (the CI artifact).
pub fn json(r: &RunReport) -> String {
    let mut s = String::from("{\n  \"schema\": \"synergy-lint/v1\",\n");
    let _ = writeln!(s, "  \"files_scanned\": {},", r.files_scanned);
    let _ = writeln!(s, "  \"pass\": {},", r.clean());
    s.push_str("  \"violations\": [");
    for (i, v) in r.violations.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \
             \"snippet\": {}, \"fingerprint\": {}}}",
            if i == 0 { "" } else { "," },
            esc(v.rule),
            esc(&v.file),
            v.line,
            esc(&v.message),
            esc(&v.snippet),
            esc(&v.fingerprint),
        );
    }
    s.push_str(if r.violations.is_empty() { "],\n" } else { "\n  ],\n" });
    let _ = writeln!(s, "  \"non_test_loc\": {{");
    let _ = writeln!(s, "    \"total\": {},", r.loc.total());
    let _ = writeln!(s, "    \"crates\": {},", loc_object(&r.loc.crates));
    let _ = writeln!(s, "    \"files\": {}", loc_object(&r.loc.files));
    s.push_str("  }\n}\n");
    s
}

/// A flat `{"name": lines, ...}` JSON object.
fn loc_object(counts: &std::collections::BTreeMap<String, usize>) -> String {
    let fields: Vec<String> = counts.iter().map(|(k, n)| format!("{}: {n}", esc(k))).collect();
    format!("{{{}}}", fields.join(", "))
}

/// JSON string escaping.
fn esc(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_reports_pass() {
        let fresh = vec![Violation {
            rule: crate::RULE_PANIC,
            file: "a.rs".into(),
            line: 3,
            message: "say \"no\"".into(),
            snippet: "x.unwrap()\t".into(),
            fingerprint: "00ff".into(),
        }];
        let mut loc = LocReport::default();
        loc.crates.insert("nosql-store".into(), 40);
        loc.crates.insert("lint".into(), 2);
        loc.files.insert("crates/nosql-store/src/a.rs".into(), 40);
        let r = RunReport { violations: fresh, files_scanned: 2, loc };
        let j = json(&r);
        assert!(j.contains("\\\"no\\\""));
        assert!(j.contains("\\t"));
        assert!(j.contains("\"pass\": false"));
        assert!(j.contains("\"total\": 42"));
        assert!(j.contains("\"crates\": {\"lint\": 2, \"nosql-store\": 40}"));
        assert!(j.contains("\"files\": {\"crates/nosql-store/src/a.rs\": 40}"));
        let empty = RunReport { violations: Vec::new(), ..r };
        assert!(json(&empty).contains("\"pass\": true"));
        assert!(human(&empty).contains("PASS"));
        assert!(human(&empty).contains("nosql-store"), "the LOC table is printed");
    }
}
