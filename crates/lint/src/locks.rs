//! R2 — lock discipline.
//!
//! Extracts a static lock-acquisition graph per crate from nested
//! `.lock()` / `.read()` / `.write()` scopes and fails on:
//!
//! * **order cycles** — module A acquires `tables` then `regions`, module B
//!   acquires `regions` then `tables`: a classic ABBA deadlock;
//! * **same-resource re-entry** — a second acquisition of a resource whose
//!   guard is still live in the same function;
//! * **guards bound across a thread fan-out** — holding any guard across a
//!   `scope` or `spawn` of `std::thread` serializes the fan-out at best and
//!   deadlocks it at worst.
//!
//! A *resource* is the final field segment of the receiver chain
//! (`self.inner.replication.lock()` → `replication`); guards bound by `let`
//! live to the end of their block (or an explicit `drop(guard)`), `for` /
//! `match` header temporaries live through the loop/match body, and other
//! temporaries die at the end of their statement — mirroring Rust's actual
//! temporary-lifetime rules closely enough for a linter.
//!
//! Nesting edges are propagated one call level deep: when a function holds
//! a guard and calls another function *of the same crate whose name is
//! defined exactly once* (ambiguous names are skipped — better to miss an
//! edge than invent one), every resource the callee may transitively lock
//! becomes an edge.  Self-edges from call summaries are ignored: the
//! name-based resolution is too coarse to claim re-entry through them.

use crate::lexer::{TokKind, Token};
use crate::model::FileModel;
use std::collections::{BTreeMap, BTreeSet};

/// One lock-nesting edge: `from` held while `to` was acquired.
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
    /// True when derived through a call summary rather than direct nesting.
    pub via_call: bool,
}

/// Per-file facts, merged per crate by the driver.
#[derive(Debug, Default)]
pub struct LockFacts {
    pub edges: Vec<Edge>,
    /// Function name → resources it locks directly (body scope).
    pub fn_locks: BTreeMap<String, BTreeSet<String>>,
    /// Function name → callee names it invokes.
    pub fn_calls: BTreeMap<String, BTreeSet<String>>,
    /// Times each function name is defined (ambiguity filter).
    pub fn_defs: BTreeMap<String, usize>,
    /// Functions that fan out onto threads directly.
    pub fn_fanout: BTreeSet<String>,
    /// Calls made while holding guards: (caller, callee, held, file, line).
    pub guarded_calls: Vec<(String, String, Vec<String>, String, usize)>,
    /// Direct violations found during extraction (re-entry, fan-out).
    pub direct: Vec<(String, usize, String)>,
}

#[derive(Debug, Clone)]
struct Guard {
    resource: String,
    name: Option<String>,
}

/// Extracts lock facts from one file's functions (test regions excluded).
pub fn extract(path: &str, model: &FileModel) -> LockFacts {
    let mut facts = LockFacts::default();
    for f in &model.functions {
        if model.in_test_region(f.body.0) {
            continue;
        }
        *facts.fn_defs.entry(f.name.clone()).or_insert(0) += 1;
        scan_body(path, model, f.name.as_str(), f.body, &mut facts);
    }
    facts
}

fn scan_body(
    path: &str,
    model: &FileModel,
    fn_name: &str,
    body: (usize, usize),
    facts: &mut LockFacts,
) {
    let tokens = &model.tokens;
    // Block stack of let-bound guards; `temps` are statement temporaries.
    let mut frames: Vec<Vec<Guard>> = vec![Vec::new()];
    let mut temps: Vec<Guard> = Vec::new();
    // The most recent control keyword since the last statement boundary —
    // decides whether header temporaries outlive the `{` that follows.
    let mut header: Option<&'static str> = None;
    let mut i = body.0 + 1;
    while i < body.1 {
        let t = &tokens[i];
        if t.is_punct('{') {
            match header {
                // `if` / `while` condition temporaries drop before the block.
                Some("if") | Some("while") => temps.clear(),
                // `for` iterator and `match` scrutinee temporaries live
                // through the body: move them into the new frame.
                Some("for") | Some("match") => {
                    let moved = std::mem::take(&mut temps);
                    frames.push(moved);
                    header = None;
                    i += 1;
                    continue;
                }
                _ => {}
            }
            header = None;
            frames.push(Vec::new());
        } else if t.is_punct('}') {
            frames.pop();
            if frames.is_empty() {
                break;
            }
        } else if t.is_punct(';') {
            temps.clear();
            header = None;
        } else if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "if" | "while" | "for" | "match" => {
                    header = Some(match t.text.as_str() {
                        "if" => "if",
                        "while" => "while",
                        "for" => "for",
                        _ => "match",
                    });
                }
                "drop" if tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) => {
                    if let Some(name_tok) = tokens.get(i + 2) {
                        if name_tok.kind == TokKind::Ident
                            && tokens.get(i + 3).is_some_and(|n| n.is_punct(')'))
                        {
                            let name = &name_tok.text;
                            for frame in &mut frames {
                                frame.retain(|g| g.name.as_deref() != Some(name));
                            }
                            temps.retain(|g| g.name.as_deref() != Some(name));
                        }
                    }
                }
                "lock" | "read" | "write"
                    if tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                        && tokens.get(i + 2).is_some_and(|n| n.is_punct(')'))
                        && i > body.0 + 1
                        && tokens[i - 1].is_punct('.') =>
                {
                    if let Some((resource, recv_start)) = receiver_resource(tokens, i - 2) {
                        let line = t.line;
                        let held: Vec<&Guard> =
                            frames.iter().flatten().chain(temps.iter()).collect();
                        for g in &held {
                            if g.resource == resource {
                                facts.direct.push((
                                    path.to_string(),
                                    line,
                                    format!(
                                        "`{resource}` re-acquired while its own guard is live \
                                         (self-deadlock)"
                                    ),
                                ));
                            } else {
                                facts.edges.push(Edge {
                                    from: g.resource.clone(),
                                    to: resource.clone(),
                                    file: path.to_string(),
                                    line,
                                    via_call: false,
                                });
                            }
                        }
                        facts
                            .fn_locks
                            .entry(fn_name.to_string())
                            .or_default()
                            .insert(resource.clone());
                        let guard = Guard {
                            resource,
                            name: let_binding(tokens, recv_start),
                        };
                        if guard.name.is_some() {
                            frames.last_mut().expect("frame stack non-empty").push(guard);
                        } else {
                            temps.push(guard);
                        }
                        i += 3;
                        continue;
                    }
                }
                _ => {
                    // Fan-out sites: `std::thread`'s `scope` and `spawn`.
                    let fanout = (t.is_ident("scope") || t.is_ident("spawn"))
                        && path_prefix_is(tokens, i, "thread");
                    if fanout {
                        facts.fn_fanout.insert(fn_name.to_string());
                        let held: Vec<String> = frames
                            .iter()
                            .flatten()
                            .chain(temps.iter())
                            .map(|g| g.resource.clone())
                            .collect();
                        if !held.is_empty() {
                            facts.direct.push((
                                path.to_string(),
                                t.line,
                                format!(
                                    "guard(s) [{}] held across a thread fan-out (`{}`)",
                                    held.join(", "),
                                    t.text
                                ),
                            ));
                        }
                    } else if tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                        // Plain call: record for the crate-level summary.
                        facts
                            .fn_calls
                            .entry(fn_name.to_string())
                            .or_default()
                            .insert(t.text.clone());
                        let held: Vec<String> = frames
                            .iter()
                            .flatten()
                            .chain(temps.iter())
                            .map(|g| g.resource.clone())
                            .collect();
                        if !held.is_empty() {
                            facts.guarded_calls.push((
                                fn_name.to_string(),
                                t.text.clone(),
                                held,
                                path.to_string(),
                                t.line,
                            ));
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// Walks the receiver chain backwards from `end` (the token before the
/// `.lock()` dot).  Returns (resource name, index of the chain's first
/// token).  `state.regions` → `regions`; `table()` → `table()`.
fn receiver_resource(tokens: &[Token], end: usize) -> Option<(String, usize)> {
    let mut j = end as isize;
    let mut resource: Option<String> = None;
    let mut start = end;
    loop {
        if j < 0 {
            break;
        }
        let t = &tokens[j as usize];
        if t.is_punct(')') {
            // A call segment: find the matching `(` and the callee ident.
            let mut depth = 0;
            let mut k = j;
            while k >= 0 {
                if tokens[k as usize].is_punct(')') {
                    depth += 1;
                } else if tokens[k as usize].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            if k <= 0 {
                break;
            }
            let callee = &tokens[(k - 1) as usize];
            if callee.kind != TokKind::Ident {
                break;
            }
            if resource.is_none() {
                resource = Some(format!("{}()", callee.text));
            }
            start = (k - 1) as usize;
            j = k - 2;
        } else if t.kind == TokKind::Ident {
            if resource.is_none() {
                resource = Some(t.text.clone());
            }
            start = j as usize;
            j -= 1;
        } else {
            break;
        }
        // Continue only through a `.` path separator.
        if j >= 0 && tokens[j as usize].is_punct('.') {
            j -= 1;
        } else {
            break;
        }
    }
    // `self`-only chains (`self.lock()`) name no resource; skip them.
    resource.filter(|r| r != "self").map(|r| (r, start))
}

/// If the receiver chain starting at `start` is the RHS of `let [mut] g =`,
/// returns the binding name.
fn let_binding(tokens: &[Token], start: usize) -> Option<String> {
    if start < 3 || !tokens[start - 1].is_punct('=') {
        return None;
    }
    let name = &tokens[start - 2];
    if name.kind != TokKind::Ident {
        return None;
    }
    let kw = &tokens[start - 3];
    let is_let = kw.is_ident("let")
        || (kw.is_ident("mut") && start >= 4 && tokens[start - 4].is_ident("let"));
    is_let.then(|| name.text.clone())
}

/// True when the ident at `i` is qualified as `<seg>::ident`.
pub(crate) fn path_prefix_is(tokens: &[Token], i: usize, seg: &str) -> bool {
    i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident(seg)
}

/// Crate-level analysis: merge per-file facts, close call summaries, then
/// report order cycles / fan-out-through-calls.  Returns
/// (message, file, line) triples.
pub fn analyze_crate(all: Vec<LockFacts>) -> Vec<(String, String, usize)> {
    let mut merged = LockFacts::default();
    for f in all {
        merged.edges.extend(f.edges);
        for (k, v) in f.fn_locks {
            merged.fn_locks.entry(k).or_default().extend(v);
        }
        for (k, v) in f.fn_calls {
            merged.fn_calls.entry(k).or_default().extend(v);
        }
        for (k, v) in f.fn_defs {
            *merged.fn_defs.entry(k).or_insert(0) += v;
        }
        merged.fn_fanout.extend(f.fn_fanout);
        merged.guarded_calls.extend(f.guarded_calls);
        merged.direct.extend(f.direct);
    }
    let mut out: Vec<(String, String, usize)> = merged
        .direct
        .iter()
        .map(|(file, line, msg)| (msg.clone(), file.clone(), *line))
        .collect();

    // Transitive may-lock / may-fanout over unambiguous same-crate calls.
    let resolvable =
        |name: &str| merged.fn_defs.get(name).copied().unwrap_or(0) == 1;
    let mut may_lock = merged.fn_locks.clone();
    let mut may_fanout: BTreeSet<String> = merged.fn_fanout.clone();
    loop {
        let mut changed = false;
        for (caller, callees) in &merged.fn_calls {
            for callee in callees.iter().filter(|c| resolvable(c)) {
                let add: Vec<String> = may_lock
                    .get(callee)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default();
                if !add.is_empty() {
                    let set = may_lock.entry(caller.clone()).or_default();
                    for r in add {
                        changed |= set.insert(r);
                    }
                }
                if may_fanout.contains(callee) && may_fanout.insert(caller.clone()) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges and fan-outs reached through calls made under a guard.
    let mut edges = merged.edges;
    for (_, callee, held, file, line) in &merged.guarded_calls {
        if !resolvable(callee) {
            continue;
        }
        if may_fanout.contains(callee) {
            out.push((
                format!(
                    "guard(s) [{}] held across call to `{callee}`, which fans out \
                     onto threads",
                    held.join(", ")
                ),
                file.clone(),
                *line,
            ));
        }
        if let Some(locked) = may_lock.get(callee) {
            for resource in locked {
                for from in held {
                    if from != resource {
                        edges.push(Edge {
                            from: from.clone(),
                            to: resource.clone(),
                            file: file.clone(),
                            line: *line,
                            via_call: true,
                        });
                    }
                }
            }
        }
    }

    // Cycle detection over the resource graph.
    let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut sites: BTreeMap<(&str, &str), (&str, usize)> = BTreeMap::new();
    for e in &edges {
        graph.entry(&e.from).or_default().insert(&e.to);
        sites
            .entry((&e.from, &e.to))
            .or_insert((e.file.as_str(), e.line));
    }
    if let Some(cycle) = find_cycle(&graph) {
        let path = cycle.join(" -> ");
        let mut hops = Vec::new();
        for w in cycle.windows(2) {
            if let Some((file, line)) = sites.get(&(w[0], w[1])) {
                hops.push(format!("{w0}->{w1} at {file}:{line}", w0 = w[0], w1 = w[1]));
            }
        }
        let (file, line) = sites
            .get(&(cycle[0], cycle[1]))
            .copied()
            .unwrap_or(("<unknown>", 0));
        out.push((
            format!(
                "lock-order cycle: {path} (acquire sites: {})",
                hops.join("; ")
            ),
            file.to_string(),
            line,
        ));
    }
    out
}

/// Finds one cycle in the graph, returned as [a, b, …, a].
fn find_cycle<'a>(graph: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Option<Vec<&'a str>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<&str, Color> = graph.keys().map(|&k| (k, Color::White)).collect();
    for targets in graph.values() {
        for &t in targets {
            color.entry(t).or_insert(Color::White);
        }
    }
    fn dfs<'a>(
        node: &'a str,
        graph: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        color: &mut BTreeMap<&'a str, Color>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<&'a str>> {
        color.insert(node, Color::Gray);
        stack.push(node);
        if let Some(nexts) = graph.get(node) {
            for &next in nexts {
                match color.get(next).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        let start = stack.iter().position(|&n| n == next)?;
                        let mut cycle: Vec<&str> = stack[start..].to_vec();
                        cycle.push(next);
                        return Some(cycle);
                    }
                    Color::White => {
                        if let Some(c) = dfs(next, graph, color, stack) {
                            return Some(c);
                        }
                    }
                    Color::Black => {}
                }
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
        None
    }
    let nodes: Vec<&str> = color.keys().copied().collect();
    for node in nodes {
        if color.get(node).copied() == Some(Color::White) {
            let mut stack = Vec::new();
            if let Some(c) = dfs(node, graph, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}
