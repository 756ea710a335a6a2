//! File-level model built on top of the token stream: pragma comments,
//! `#[cfg(test)]` regions, function and `impl` extents.

use crate::lexer::{lex, Lexed, TokKind, Token};

/// How a source file participates in the build — rules scope themselves by
/// this (e.g. panic-freedom exempts test code entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/`.
    Lib,
    /// A binary under `src/bin/` (or `src/main.rs`).
    Bin,
    /// Integration tests (`tests/`), benches and fixtures.
    Test,
    /// Runnable examples under `examples/`.
    Example,
}

/// An inline suppression: `// lint-allow(<rule>): <reason>`.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rule slug the pragma names (one of [`crate::KNOWN_RULES`]).
    pub rule: String,
    /// Mandatory free-text justification.
    pub reason: String,
    /// Line the pragma comment sits on.
    pub line: usize,
    /// Line the pragma suppresses: its own when trailing code, otherwise
    /// the next line bearing any token.
    pub applies_to: usize,
    /// True when the reason was missing (reported as its own violation).
    pub missing_reason: bool,
}

/// A function item (free or associated).
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// Unrestricted `pub` (scoped `pub(crate)` / `pub(super)` counts as
    /// private for the purposes of public-API rules).
    pub is_pub: bool,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword: the item's extent is
    /// `start..=body.1`, signature and body.
    pub start: usize,
    /// Token index range of the body, `{` and `}` inclusive.
    pub body: (usize, usize),
    /// Name of the innermost enclosing `impl` type, if any.
    pub impl_type: Option<String>,
}

/// Lexed + structurally annotated source file.
pub struct FileModel {
    pub tokens: Vec<Token>,
    pub lines: Vec<String>,
    pub pragmas: Vec<Pragma>,
    /// Token-index ranges gated behind `#[cfg(test)]` (inclusive).
    pub test_regions: Vec<(usize, usize)>,
    pub functions: Vec<FnInfo>,
}

impl FileModel {
    pub fn parse(src: &str) -> FileModel {
        let Lexed { tokens, comments } = lex(src);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let pragmas = collect_pragmas(&comments, &tokens);
        let test_regions = find_test_regions(&tokens);
        let impls = find_impls(&tokens);
        let functions = find_functions(&tokens, &impls);
        FileModel { tokens, lines, pragmas, test_regions, functions }
    }

    /// True when token index `i` is inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// True when a pragma for `rule` suppresses a violation on `line`.
    pub fn suppressed(&self, rule: &str, line: usize) -> bool {
        self.pragmas
            .iter()
            .any(|p| p.rule == rule && !p.missing_reason && p.applies_to == line)
    }

    /// Source text of a 1-based line, trimmed (for reports/fingerprints).
    pub fn line_text(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|s| s.trim())
            .unwrap_or("")
    }
}

/// Parses `lint-allow(<rule>): <reason>` comments, resolving the line each
/// one suppresses.
fn collect_pragmas(comments: &[crate::lexer::Comment], tokens: &[Token]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/** */`) describe the grammar; only
        // plain comments carry live pragmas.
        if matches!(c.text.as_bytes().first(), Some(b'/' | b'!' | b'*')) {
            continue;
        }
        let Some(at) = c.text.find("lint-allow(") else { continue };
        let rest = &c.text[at + "lint-allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let rule = rest[..close].trim().to_string();
        let tail = rest[close + 1..].trim_start();
        let (reason, missing_reason) = match tail.strip_prefix(':') {
            Some(r) if !r.trim().is_empty() => (r.trim().to_string(), false),
            _ => (String::new(), true),
        };
        let applies_to = if c.trailing {
            c.line
        } else {
            // First line after the comment that carries any token.
            tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.line)
                .unwrap_or(c.line + 1)
        };
        out.push(Pragma { rule, reason, line: c.line, applies_to, missing_reason });
    }
    out
}

/// Finds `#[cfg(test)]`-gated items (modules or single functions) and
/// returns their token ranges.
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (attr_end, is_test) = scan_attribute(tokens, i + 1);
            if is_test {
                // Skip any further attributes between the cfg and the item.
                let mut j = attr_end + 1;
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    let (e, _) = scan_attribute(tokens, j + 1);
                    j = e + 1;
                }
                if let Some(open) = (j..tokens.len()).find(|&k| tokens[k].is_punct('{')) {
                    let close = match_brace(tokens, open);
                    out.push((i, close));
                    i = close + 1;
                    continue;
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Scans an attribute starting at its `[`; returns (index of `]`, whether it
/// is a `cfg(...)` mentioning `test`).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (i, saw_cfg && saw_test);
            }
        } else if t.is_ident("cfg") {
            saw_cfg = true;
        } else if t.is_ident("test") {
            saw_test = true;
        }
        i += 1;
    }
    (tokens.len().saturating_sub(1), false)
}

/// Index of the `}` matching the `{` at `open`.
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// `impl` extents: (type name, body token range).
fn find_impls(tokens: &[Token]) -> Vec<(String, (usize, usize))> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("impl") {
            // Type name: last plain identifier before the body brace (for
            // `impl Trait for Type`, that is `Type`; generic args skipped).
            let mut name = String::new();
            let mut angle = 0i32;
            let mut j = i + 1;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle = (angle - 1).max(0);
                } else if t.is_punct('{') && angle == 0 {
                    break;
                } else if t.kind == TokKind::Ident && angle == 0 && t.text != "for" && t.text != "where" {
                    name = t.text.clone();
                }
                j += 1;
            }
            if j < tokens.len() {
                let close = match_brace(tokens, j);
                out.push((name, (j, close)));
                i = j + 1; // descend into the impl body for nested items
                continue;
            }
        }
        i += 1;
    }
    out
}

/// All `fn` items with name, visibility, body extent and enclosing impl.
fn find_functions(tokens: &[Token], impls: &[(String, (usize, usize))]) -> Vec<FnInfo> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else { break };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Visibility: walk back over modifiers; plain `pub` immediately in
        // front (not `pub(...)`) makes it public.
        let mut is_pub = false;
        let mut k = i;
        while k > 0 {
            let prev = &tokens[k - 1];
            if prev.is_ident("const")
                || prev.is_ident("unsafe")
                || prev.is_ident("async")
                || prev.is_ident("extern")
                || prev.kind == TokKind::Literal
            {
                k -= 1;
            } else if prev.is_ident("pub") {
                is_pub = true;
                break;
            } else if prev.is_punct(')') {
                // Possibly `pub(crate)` — scoped visibility, not public.
                break;
            } else {
                break;
            }
        }
        // Body: first `{` at zero paren/angle depth after the signature
        // (a `;` first means a trait method declaration — no body).
        let mut paren = 0i32;
        let mut angle = 0i32;
        let mut j = i + 2;
        let mut body = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                paren -= 1;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                // `->` is an arrow, not a generic close.
                if !tokens[j - 1].is_punct('-') {
                    angle = (angle - 1).max(0);
                }
            } else if t.is_punct(';') && paren == 0 {
                break;
            } else if t.is_punct('{') && paren == 0 && angle <= 0 {
                body = Some((j, match_brace(tokens, j)));
                break;
            }
            j += 1;
        }
        let Some(body) = body else {
            i += 2;
            continue;
        };
        let impl_type = impls
            .iter()
            .filter(|(_, (a, b))| *a <= i && i <= *b)
            .min_by_key(|(_, (a, b))| b - a)
            .map(|(n, _)| n.clone());
        out.push(FnInfo {
            name: name_tok.text.clone(),
            is_pub,
            line: tokens[i].line,
            start: i,
            body,
            impl_type,
        });
        i += 2; // keep scanning: nested fns/closures inside the body
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_resolution() {
        let m = FileModel::parse(
            "// lint-allow(determinism): wall-clock companion\nlet t = Instant::now();\nlet x = 1; // lint-allow(panic-freedom): justified\n// lint-allow(cost-accounting)\nfn f() {}\n",
        );
        assert_eq!(m.pragmas.len(), 3);
        assert!(m.suppressed("determinism", 2));
        assert!(m.suppressed("panic-freedom", 3));
        // Reasonless pragma never suppresses.
        assert!(!m.suppressed("cost-accounting", 5));
        assert!(m.pragmas[2].missing_reason);
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let m = FileModel::parse(
            "fn lib_code() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n",
        );
        let unwraps: Vec<usize> = m
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!m.in_test_region(unwraps[0]));
        assert!(m.in_test_region(unwraps[1]));
    }

    #[test]
    fn functions_and_impls() {
        let m = FileModel::parse(
            "impl Cluster {\n    pub fn put(&self) -> Result<(), E> { self.x() }\n    pub(crate) fn charge(&self) {}\n    fn private_helper<T: Fn(u8) -> u8>(f: T) where T: Send { f(1); }\n}\npub fn free() {}\n",
        );
        let put = m.functions.iter().find(|f| f.name == "put").unwrap();
        assert!(put.is_pub);
        assert_eq!(put.impl_type.as_deref(), Some("Cluster"));
        let charge = m.functions.iter().find(|f| f.name == "charge").unwrap();
        assert!(!charge.is_pub, "pub(crate) is not public");
        let helper = m.functions.iter().find(|f| f.name == "private_helper").unwrap();
        assert!(!helper.is_pub);
        let free = m.functions.iter().find(|f| f.name == "free").unwrap();
        assert!(free.is_pub);
        assert_eq!(free.impl_type, None);
    }
}
