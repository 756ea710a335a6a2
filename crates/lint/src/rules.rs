//! R1 (determinism), R3 (cost-accounting), R4 (panic-freedom),
//! R5 (reachability) and pragma validation.  R2 (lock-discipline) lives in
//! [`crate::locks`].

use crate::lexer::TokKind;
use crate::model::{FileKind, FileModel};
use crate::{SourceFile, Violation, RULE_COST, RULE_DETERMINISM, RULE_PANIC, RULE_PRAGMA, RULE_REACH};
use std::collections::BTreeMap;

/// Crates whose library code feeds the deterministic sim figures: any
/// wall-clock read, RNG draw or hash-ordered iteration there can drift the
/// values `bench_diff`'s sim-identity gate pins.  `bench` builds the
/// figures themselves; its `report` and `bench_diff` binaries are exempt.
pub const SIM_CRATES: &[&str] = &["simclock", "nosql-store", "synergy", "query", "tpcw", "bench"];

/// Crates whose library code must return the retryable `StoreError`
/// taxonomy instead of panicking (fault- and recovery-path discipline).
pub const PANIC_FREE_CRATES: &[&str] = &["nosql-store", "synergy", "query"];

/// Macros R4 treats as panics.
const PANIC_MACROS: &[&str] = &[
    "panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne",
];

/// R1 — determinism: forbid wall-clock reads, ambient RNG, hash-ordered
/// containers and thread spawns in sim-figure-affecting library code.  A
/// statement runs on one OS thread; parallel workers are a sim-clock model
/// (`std::thread::yield_now`, which only lets a contending holder progress,
/// stays legal).
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
            Some("`Instant::now()` reads the wall clock in a sim-figure-affecting crate; use the `SimClock`".to_string())
        } else if t.is_ident("SystemTime") {
            Some("`SystemTime` is nondeterministic in a sim-figure-affecting crate; sim time comes from `SimClock`".to_string())
        } else if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            Some(format!(
                "`{}` draws ambient randomness in a sim-figure-affecting crate; seed RNGs deterministically",
                t.text
            ))
        } else if (t.is_ident("spawn") || t.is_ident("scope"))
            && crate::locks::path_prefix_is(&m.tokens, i, "thread")
        {
            Some(format!(
                "`thread::{}` in a sim-figure-affecting crate: a statement runs on one OS thread; model parallel workers on the sim clock (`simclock::WorkerClock`)",
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

/// R5 — reachability: an unrestricted `pub fn` in a workspace crate's
/// library code is dead when no non-test file names it outside its own
/// signature and body.  Library, binary and example files of every crate
/// count as references, and so do the benchmark package's (which is never
/// linted itself); test files, `#[cfg(test)]` regions, `pub use`
/// re-exports and other `fn` definitions do not.  Names match by
/// identifier alone, so a collision (two types' `stats`) keeps an item
/// alive: the rule errs toward keeping code.  `pub(crate)` items are left
/// to rustc's `dead_code`, which already sees them.
pub fn reachability(files: &[(&SourceFile, &FileModel)], out: &mut Vec<Violation>) {
    let masks: Vec<Vec<bool>> = files.iter().map(|(_, m)| use_mask(m)).collect();
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for ((s, m), mask) in files.iter().zip(&masks) {
        if s.kind == FileKind::Test {
            continue;
        }
        for (t, _) in m.tokens.iter().zip(mask).filter(|(_, &is_use)| is_use) {
            *uses.entry(t.text.as_str()).or_insert(0) += 1;
        }
    }
    for ((s, m), mask) in files.iter().zip(&masks) {
        if s.kind != FileKind::Lib || s.crate_name == crate::loc::BENCHMARK {
            continue;
        }
        for f in m.functions.iter().filter(|f| f.is_pub && !m.in_test_region(f.start)) {
            let own = (f.start..=f.body.1)
                .filter(|&i| mask[i] && m.tokens[i].text == f.name)
                .count();
            if uses.get(f.name.as_str()).copied().unwrap_or(0) > own {
                continue;
            }
            out.push(Violation::new(
                RULE_REACH,
                &s.rel_path,
                f.line,
                format!(
                    "`pub fn {}` is named by no non-test file outside its own definition; \
                     delete it, move it into the test that calls it, or add \
                     `// lint-allow(reachability): <the test that needs it>`",
                    f.name
                ),
                m,
            ));
        }
    }
}

/// Per token: does it count as a use of its name?  Identifiers outside
/// `#[cfg(test)]` regions and `pub use` items that are not the name of a
/// `fn` being defined.
fn use_mask(m: &FileModel) -> Vec<bool> {
    let toks = &m.tokens;
    let mut mask: Vec<bool> = toks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            t.kind == TokKind::Ident
                && !(i > 0 && toks[i - 1].is_ident("fn"))
                && !m.in_test_region(i)
        })
        .collect();
    for i in 0..toks.len() {
        if !toks[i].is_ident("pub") {
            continue;
        }
        // `pub use` or `pub(<scope>) use`: blank out through its `;`.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            j = (j..toks.len()).find(|&k| toks[k].is_punct(')')).map_or(toks.len(), |k| k + 1);
        }
        if toks.get(j).is_some_and(|t| t.is_ident("use")) {
            let end = (j..toks.len()).find(|&k| toks[k].is_punct(';')).unwrap_or(toks.len() - 1);
            mask[i..=end].fill(false);
        }
    }
    mask
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
