//! R1 (determinism), R3 (cost-accounting), R4 (panic-freedom) and pragma
//! validation.  R2 (lock-discipline) lives in [`crate::locks`].

use crate::model::{FileKind, FileModel};
use crate::{Violation, RULE_COST, RULE_DETERMINISM, RULE_PANIC, RULE_PRAGMA};

/// Crates whose library code feeds the deterministic sim figures: any
/// wall-clock read, RNG draw or hash-ordered iteration there can drift the
/// 45-value sim-identity gate.
pub const SIM_CRATES: &[&str] = &["simclock", "nosql-store", "synergy", "query", "tpcw"];

/// Crates whose library code must return the retryable `StoreError`
/// taxonomy instead of panicking (fault- and recovery-path discipline).
pub const PANIC_FREE_CRATES: &[&str] = &["nosql-store", "synergy", "query"];

/// Macros R4 treats as panics.
const PANIC_MACROS: &[&str] = &[
    "panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne",
];

/// R1 — determinism: forbid wall-clock reads, ambient RNG and
/// hash-ordered containers in sim-figure-affecting library code.
pub fn determinism(crate_name: &str, kind: FileKind, path: &str, m: &FileModel, out: &mut Vec<Violation>) {
    if kind != FileKind::Lib || !SIM_CRATES.contains(&crate_name) {
        return;
    }
    let mut flagged_lines = std::collections::BTreeSet::new();
    for (i, t) in m.tokens.iter().enumerate() {
        if m.in_test_region(i) {
            continue;
        }
        let msg = if t.is_ident("Instant")
            && m.tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && m.tokens.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            Some("`Instant::now()` reads the wall clock in a sim-figure-affecting crate; use the `SimClock` (or justify a wall-clock companion measurement)".to_string())
        } else if t.is_ident("SystemTime") {
            Some("`SystemTime` is nondeterministic in a sim-figure-affecting crate; sim time comes from `SimClock`".to_string())
        } else if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            Some(format!(
                "`{}` draws ambient randomness in a sim-figure-affecting crate; seed RNGs deterministically",
                t.text
            ))
        } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
            Some(format!(
                "`{}` in a sim-figure-affecting crate: its iteration order is nondeterministic; use `BTreeMap`/`BTreeSet`, or justify lookup-only use",
                t.text
            ))
        } else {
            None
        };
        if let Some(msg) = msg {
            if flagged_lines.insert((t.line, t.text.clone())) {
                out.push(Violation::new(RULE_DETERMINISM, path, t.line, msg, m));
            }
        }
    }
}

/// R3 — cost-accounting: every public `Cluster` method — in whichever
/// library file of `nosql-store` its `impl Cluster` block lives — that
/// touches region state must route through the charged path (`charge` /
/// `cost_model` / `with_retry`) or carry an explicit uncharged pragma
/// (`bulk_load` is the documented precedent: offline population is free).
pub fn cost_accounting(crate_name: &str, kind: FileKind, path: &str, m: &FileModel, out: &mut Vec<Violation>) {
    if kind != FileKind::Lib || crate_name != "nosql-store" {
        return;
    }
    for f in &m.functions {
        if !f.is_pub
            || f.impl_type.as_deref() != Some("Cluster")
            || m.in_test_region(f.body.0)
        {
            continue;
        }
        let body = &m.tokens[f.body.0..=f.body.1];
        // "Touches region state": a `.regions` field access anywhere in the
        // body (covers table region vectors and the replication registry).
        let touches = body
            .windows(2)
            .any(|w| w[0].is_punct('.') && w[1].is_ident("regions"));
        if !touches {
            continue;
        }
        let charges = body.iter().any(|t| {
            t.is_ident("charge") || t.is_ident("cost_model") || t.is_ident("with_retry")
        });
        if !charges {
            out.push(Violation::new(
                RULE_COST,
                path,
                f.line,
                format!(
                    "public `Cluster::{}` touches region state but never reaches the cost \
                     model (`charge`/`cost_model`/`with_retry`); charge the op or add \
                     `// lint-allow(cost-accounting): <reason>`",
                    f.name
                ),
                m,
            ));
        }
    }
}

/// R4 — panic-freedom: no `unwrap` / `expect` / `panic!` family — which
/// includes `assert!` / `assert_eq!` / `assert_ne!`; `debug_assert*` compile
/// out of release builds and stay legal — in library code of the
/// retry-/recovery-path crates; test code exempt.
pub fn panic_freedom(crate_name: &str, kind: FileKind, path: &str, m: &FileModel, out: &mut Vec<Violation>) {
    if kind != FileKind::Lib || !PANIC_FREE_CRATES.contains(&crate_name) {
        return;
    }
    for (i, t) in m.tokens.iter().enumerate() {
        if m.in_test_region(i) {
            continue;
        }
        let next_is = |ch| m.tokens.get(i + 1).is_some_and(|n: &crate::lexer::Token| n.is_punct(ch));
        let msg = if (t.is_ident("unwrap") || t.is_ident("expect"))
            && next_is('(')
            && i > 0
            && m.tokens[i - 1].is_punct('.')
        {
            Some(format!(
                "`.{}()` can panic on a fault path; return the retryable `StoreError`/error \
                 taxonomy (or propagate poison with `unwrap_or_else(PoisonError::into_inner)`)",
                t.text
            ))
        } else if PANIC_MACROS.iter().any(|name| t.is_ident(name)) && next_is('!') {
            Some(format!(
                "`{}!` in library code of a panic-free crate; return an error or justify the \
                 invariant with a pragma",
                t.text
            ))
        } else {
            None
        };
        if let Some(msg) = msg {
            out.push(Violation::new(RULE_PANIC, path, t.line, msg, m));
        }
    }
}

/// Pragma hygiene: unknown rule slugs and missing reasons are violations —
/// a suppression without a justification is worse than none.
pub fn pragma_hygiene(path: &str, m: &FileModel, out: &mut Vec<Violation>) {
    for p in &m.pragmas {
        if !crate::KNOWN_RULES.contains(&p.rule.as_str()) {
            out.push(Violation::new(
                RULE_PRAGMA,
                path,
                p.line,
                format!(
                    "pragma names unknown rule `{}` (known: {})",
                    p.rule,
                    crate::KNOWN_RULES.join(", ")
                ),
                m,
            ));
        } else if p.missing_reason {
            out.push(Violation::new(
                RULE_PRAGMA,
                path,
                p.line,
                format!(
                    "pragma `lint-allow({})` is missing its reason — write \
                     `// lint-allow({}): <why this is sound>`",
                    p.rule, p.rule
                ),
                m,
            ));
        }
    }
}
