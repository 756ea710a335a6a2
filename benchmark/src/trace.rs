//! Spans recorded in memory by the traced run and written out at exit.
//!
//! The benchmark can only time calls it makes itself, so there are two kinds
//! of span.  A `Span` encloses a call that really is part of the op (`op` →
//! `sql.parse`, `synergy.execute`).  A `Probe` times a stage the op runs
//! internally by calling that stage's public function on the same statement
//! immediately *before* the op; probes have no parent, and they never enter
//! self-time arithmetic.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Span,
    Probe,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the op in the traced list (`None` for the one-off store probes).
    pub op: Option<usize>,
    pub kind: Kind,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn with_capacity(spans: usize) -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; the clock is read last, after the bookkeeping.
    pub fn begin(
        &mut self,
        name: &'static str,
        kind: Kind,
        parent: Option<usize>,
        op: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
            kind,
        });
        let id = self.spans.len() - 1;
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes a span (the clock is read first) and returns its duration.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        self.spans[id].ns()
    }

    /// Time covered by each span's children, indexed like `spans`.
    fn children_ns(&self) -> Vec<u64> {
        let mut covered = vec![0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.ns();
            }
        }
        covered
    }

    /// Self time of every span: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let covered = self.children_ns();
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, children)| span.ns().saturating_sub(children))
            .collect()
    }

    /// Span arithmetic: every child lies inside its parent, a parent's
    /// children never sum to more than the parent, and probes stand alone.
    pub fn check(&self) -> Result<(), String> {
        let covered = self.children_ns();
        for (id, span) in self.spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                return Err(format!("span {id} {} ends before it starts", span.name));
            }
            if covered[id] > span.ns() {
                return Err(format!(
                    "children of span {id} {} cover {} ns of its {} ns",
                    span.name,
                    covered[id],
                    span.ns()
                ));
            }
            let Some(parent) = span.parent else { continue };
            let p = self
                .spans
                .get(parent)
                .ok_or_else(|| format!("span {id} {} has no span {parent}", span.name))?;
            if span.kind == Kind::Probe || p.kind == Kind::Probe {
                return Err(format!("probe in the span tree at {id} {}", span.name));
            }
            if span.start_ns < p.start_ns || span.end_ns > p.end_ns || span.op != p.op {
                return Err(format!(
                    "span {id} {} escapes its parent {}",
                    span.name, p.name
                ));
            }
        }
        Ok(())
    }

    /// Sum and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self.self_ns();
        Json::Array(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, own)| {
                    let index = |i: Option<usize>| i.map_or(Json::Null, |i| Json::Num(i as f64));
                    Json::object([
                        ("name", Json::Str(s.name.to_string())),
                        ("kind", Json::Str(format!("{:?}", s.kind).to_lowercase())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(own as f64)),
                        ("parent", index(s.parent)),
                        ("op", index(s.op)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, kind: Kind) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: Some(0),
            kind,
        }
    }

    fn trace(spans: Vec<Span>) -> Trace {
        Trace {
            origin: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_probes_are_excluded() {
        let t = trace(vec![
            span("synergy.rewrite", 0, 40, None, Kind::Probe),
            span("op", 100, 200, None, Kind::Span),
            span("sql.parse", 105, 125, Some(1), Kind::Span),
            span("synergy.execute", 125, 195, Some(1), Kind::Span),
        ]);
        t.check().unwrap();
        assert_eq!(t.self_ns(), vec![40, 10, 20, 70]);
        // The probe ran outside the op and takes nothing from its self time.
        assert_eq!(t.total("op"), (100, 1));
    }

    #[test]
    fn recorded_spans_nest() {
        let mut t = Trace::with_capacity(8);
        let op = t.begin("op", Kind::Span, None, Some(0));
        let child = t.begin("sql.parse", Kind::Span, Some(op), Some(0));
        std::hint::black_box((0..1000).sum::<u64>());
        t.end(child);
        t.end(op);
        t.check().unwrap();
        let own = t.self_ns();
        assert_eq!(own[op] + t.spans[child].ns(), t.spans[op].ns());
    }

    #[test]
    fn check_rejects_broken_trees() {
        let overfull = trace(vec![
            span("op", 0, 100, None, Kind::Span),
            span("a", 0, 60, Some(0), Kind::Span),
            span("b", 40, 100, Some(0), Kind::Span),
        ]);
        assert!(overfull.check().unwrap_err().contains("cover"));
        let escaping = trace(vec![
            span("op", 10, 100, None, Kind::Span),
            span("a", 5, 60, Some(0), Kind::Span),
        ]);
        assert!(escaping.check().unwrap_err().contains("escapes"));
        let probe_child = trace(vec![
            span("op", 0, 100, None, Kind::Span),
            span("p", 10, 20, Some(0), Kind::Probe),
        ]);
        assert!(probe_child.check().unwrap_err().contains("probe"));
    }
}
