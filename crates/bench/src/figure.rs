//! The figure schema: one static column list per table, from which the JSON
//! fragment, the text table and the report diff all derive.
//!
//! A figure is one record against its top-level [`Column`] list; a column
//! is a labelled or measured leaf, a nested table of records, or one nested
//! record, each against a column list of its own.  Runners build records
//! positionally with [`record`]; nothing else knows a figure's keys:
//!
//! - `report` runs a figure through [`Figure::run_timed`], which adds the
//!   run's wall-clock milliseconds as the record's [`WALL_MS`], renders the
//!   record as JSON as it is, and as text through [`Figure::render_text`]
//!   (columns with a header, in their [`Fmt`]);
//! - `bench_diff` walks two reports along the same lists with [`diff`]:
//!   each figure's [`WALL_MS`] is its wall-clock series, every
//!   [`Kind::Sim`] / [`Kind::Count`] leaf is held bit-identical.
//!
//! Every other value a figure records comes from the model: its simulated
//! clock, its counters and its seeds.

use crate::json::Json;
use crate::{Context, FIGURES};
use std::fmt::Write as _;

/// What a column holds, which decides how the report diff treats it.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Identifies the record (a name or a swept input); never compared.
    Label,
    /// A deterministic integer: an input, a row count, a counter.
    Count,
    /// A deterministic float derived from the simulated clock or a seed.
    Sim,
    /// A nested table: an array of records against the given columns.
    Table(&'static [Column]),
    /// One nested record against the given columns.
    Object(&'static [Column]),
}

/// How a leaf renders in the text table.
#[derive(Debug, Clone, Copy)]
pub enum Fmt {
    /// Strings and integers as they are.
    Plain,
    /// Fixed decimals.
    Dec(usize),
    /// A ratio: fixed decimals and a trailing `x`.
    Times(usize),
    /// A fraction shown as a percentage.
    Percent(usize),
    /// A byte count shown in mebibytes.
    Mib,
}

/// One column of a table: the single definition its JSON key, text header,
/// text format and diff treatment come from.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// JSON key.
    pub key: &'static str,
    /// Text header (a table's title for nested kinds); empty = JSON only.
    pub header: &'static str,
    /// Text format of a leaf.
    pub fmt: Fmt,
    /// What the column holds.
    pub kind: Kind,
}

/// A column from its four parts.
pub const fn column(key: &'static str, header: &'static str, fmt: Fmt, kind: Kind) -> Column {
    Column { key, header, fmt, kind }
}

/// A [`Kind::Label`] column.
pub const fn label(key: &'static str, header: &'static str) -> Column {
    column(key, header, Fmt::Plain, Kind::Label)
}

/// A [`Kind::Count`] column.
pub const fn count(key: &'static str, header: &'static str) -> Column {
    column(key, header, Fmt::Plain, Kind::Count)
}

/// A [`Kind::Sim`] column.
pub const fn sim(key: &'static str, header: &'static str, fmt: Fmt) -> Column {
    column(key, header, fmt, Kind::Sim)
}

/// A [`Kind::Table`] column titled `header`.
pub const fn table(key: &'static str, header: &'static str, columns: &'static [Column]) -> Column {
    column(key, header, Fmt::Plain, Kind::Table(columns))
}

/// A [`Kind::Object`] column titled `header`.
pub const fn object(key: &'static str, header: &'static str, columns: &'static [Column]) -> Column {
    column(key, header, Fmt::Plain, Kind::Object(columns))
}

/// Builds one record: `values` in column order, keyed by the column list.
pub fn record(columns: &[Column], values: Vec<Json>) -> Json {
    assert_eq!(columns.len(), values.len(), "one value per column");
    Json::Obj(columns.iter().map(|c| c.key.to_string()).zip(values).collect())
}

impl Column {
    fn is_leaf(&self) -> bool {
        !matches!(self.kind, Kind::Table(_) | Kind::Object(_))
    }

    /// The text of this column's cell in `record`.
    fn cell(&self, record: &Json) -> String {
        let value = record.get(self.key).unwrap_or(&Json::Null);
        let number = value.as_f64().unwrap_or(f64::NAN);
        match (value, self.fmt) {
            (Json::Null, _) => "X".to_string(),
            (Json::Str(text), _) => text.clone(),
            (_, Fmt::Plain) => value.render(),
            (_, Fmt::Dec(d)) => format!("{number:.d$}"),
            (_, Fmt::Times(d)) => format!("{number:.d$}x"),
            (_, Fmt::Percent(d)) => format!("{:.d$}%", number * 100.0),
            (_, Fmt::Mib) => format!("{:.2} MiB", number / (1024.0 * 1024.0)),
        }
    }
}

/// The `header value` pairs of a record's titled leaves, comma-separated.
fn inline(columns: &[Column], record: &Json) -> String {
    let pairs: Vec<String> = columns
        .iter()
        .filter(|c| c.is_leaf() && !c.header.is_empty())
        .map(|c| format!("{} {}", c.header, c.cell(record)))
        .collect();
    pairs.join(", ")
}

/// Writes `rows` as an aligned text table of the titled leaf columns
/// (labels left, numbers right), then every nested table flattened under
/// its parent rows' labels.
fn write_table(out: &mut String, title: &str, columns: &[Column], rows: &[Json]) {
    if !title.is_empty() {
        let _ = writeln!(out, "{title}:");
    }
    let shown: Vec<&Column> =
        columns.iter().filter(|c| c.is_leaf() && !c.header.is_empty()).collect();
    let mut grid: Vec<Vec<String>> = vec![shown.iter().map(|c| c.header.to_string()).collect()];
    grid.extend(rows.iter().map(|row| shown.iter().map(|c| c.cell(row)).collect()));
    let widths: Vec<usize> = (0..shown.len())
        .map(|i| grid.iter().map(|line| line[i].chars().count()).max().unwrap_or(0))
        .collect();
    for line in &grid {
        let mut text = String::new();
        for (i, cell) in line.iter().enumerate() {
            let width = widths[i];
            let _ = match shown[i].kind {
                Kind::Label => write!(text, "{cell:<width$}  "),
                _ => write!(text, "{cell:>width$}  "),
            };
        }
        let _ = writeln!(out, "{}", text.trim_end());
    }
    let labels: Vec<Column> =
        shown.iter().filter(|c| matches!(c.kind, Kind::Label)).map(|c| **c).collect();
    for nested in columns {
        let Kind::Table(inner) = nested.kind else { continue };
        let flat_columns: Vec<Column> = labels.iter().chain(inner).copied().collect();
        let mut flat_rows = Vec::new();
        for row in rows {
            for sub in row.rows(nested.key) {
                let lead = labels.iter().map(|c| row.get(c.key));
                let cells = lead.chain(inner.iter().map(|c| sub.get(c.key)));
                let values = cells.map(|v| v.cloned().unwrap_or(Json::Null)).collect();
                flat_rows.push(record(&flat_columns, values));
            }
        }
        write_table(out, nested.header, &flat_columns, &flat_rows);
    }
}

/// One figure or table of the evaluation: the registry entry everything
/// about it derives from (see [`FIGURES`]).
pub struct Figure {
    /// Artifact name on the `report` command line and key in the report.
    pub name: &'static str,
    /// Text heading.
    pub title: &'static str,
    /// Closing remark of the text rendering (the paper's numbers, gates).
    pub note: &'static str,
    /// Columns of the figure's top-level record.
    pub columns: &'static [Column],
    /// Runs the experiment at the context's scale and returns the figure's
    /// record (built against `columns`); callers go through
    /// [`Figure::run_timed`].
    pub(crate) run: fn(&mut Context) -> Json,
}

/// The key of the wall-clock milliseconds [`Figure::run_timed`] adds to a
/// figure's record.
pub const WALL_MS: &str = "wall_ms";

impl Figure {
    /// Whether the figure is recorded as JSON: everything but a figure of
    /// labels only (the qualitative tables, printed and not recorded).  A
    /// figure without columns (`comparison_matrix`) records its `wall_ms`.
    pub fn measured(&self) -> bool {
        fn labels_only(columns: &[Column]) -> bool {
            columns.iter().all(|c| match c.kind {
                Kind::Label => true,
                Kind::Table(inner) | Kind::Object(inner) => labels_only(inner),
                _ => false,
            })
        }
        self.columns.is_empty() || !labels_only(self.columns)
    }

    /// Runs the figure and adds the wall-clock milliseconds the run took as
    /// the record's first key, [`WALL_MS`] — the report's runtime
    /// trajectory, and the only value of a record not taken from the model.
    pub fn run_timed(&self, ctx: &mut Context) -> Json {
        let start = std::time::Instant::now(); // lint-allow(determinism): the figure timer; no figure value reads it
        let record = (self.run)(ctx);
        let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let Json::Obj(mut pairs) = record else { panic!("{}: a record is an object", self.name) };
        pairs.insert(0, (WALL_MS.to_string(), Json::Num(wall_ms)));
        Json::Obj(pairs)
    }

    /// The text rendering of a record of this figure, `notes` (remarks the
    /// run computed) before the static note.
    pub fn render_text(&self, record: &Json, notes: &[String]) -> String {
        let mut out = format!("--- {} ---\n", self.title);
        let scalars = inline(self.columns, record);
        if !scalars.is_empty() {
            let _ = writeln!(out, "{scalars}");
        }
        for c in self.columns {
            match c.kind {
                Kind::Table(inner) => write_table(&mut out, c.header, inner, record.rows(c.key)),
                Kind::Object(inner) => {
                    let nested = record.get(c.key).unwrap_or(&Json::Null);
                    let _ = writeln!(out, "  {}: {}", c.header, inline(inner, nested));
                }
                _ => {}
            }
        }
        for note in notes.iter().map(String::as_str).chain([self.note]) {
            if !note.is_empty() {
                let _ = writeln!(out, "{note}");
            }
        }
        out
    }
}

/// The record of figure `name` in a report document.
pub fn figure_of<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("figures").and_then(|figures| figures.get(name))
}

/// What [`diff`] found between a committed and a fresh report.
#[derive(Debug, Default)]
pub struct ReportDiff {
    /// `(series, committed ms, fresh ms)` of every figure-level wall-clock
    /// value both reports carry.
    pub walls: Vec<(String, f64, f64)>,
    /// Deterministic values actually compared (`None` when the reports ran
    /// at different scales, where sim values differ legitimately).
    pub compared: Option<usize>,
    /// Everything the committed report pins that the fresh one breaks.
    pub failures: Vec<String>,
}

/// Compares two reports along the registry.  A figure, a wall-clock series
/// or a deterministic value the committed report carries and the fresh one
/// lacks is a failure; at equal scale and repetitions every [`Kind::Sim`]
/// and [`Kind::Count`] value must also be bit-identical.  What only the
/// fresh report carries is new and passes.
pub fn diff(old: &Json, new: &Json) -> ReportDiff {
    let scale = |doc: &Json| (doc.num("customers").to_bits(), doc.num("reps").to_bits());
    let compared = (scale(old) == scale(new)).then_some(0);
    let mut out = ReportDiff { compared, ..Default::default() };
    for figure in FIGURES {
        let Some(committed) = figure_of(old, figure.name) else { continue };
        let Some(fresh) = figure_of(new, figure.name) else {
            out.failures.push(format!("{} (missing from fresh report)", figure.name));
            continue;
        };
        let (before, after) = (committed.num(WALL_MS), fresh.num(WALL_MS));
        let series = format!("{}.{WALL_MS}", figure.name);
        if after.is_nan() && !before.is_nan() {
            out.failures.push(format!("{series} (missing from fresh report)"));
        } else if !before.is_nan() {
            out.walls.push((series, before, after));
        }
        if out.compared.is_some() {
            identity(figure.columns, committed, fresh, figure.name, &mut out);
        }
    }
    out
}

/// Holds every deterministic leaf of `old` to its value in `new`.
fn identity(columns: &[Column], old: &Json, new: &Json, path: &str, out: &mut ReportDiff) {
    for c in columns {
        let at = format!("{path}.{}", c.key);
        let Some(committed) = old.get(c.key) else { continue };
        let fresh = new.get(c.key).unwrap_or(&Json::Null);
        match c.kind {
            Kind::Label => {}
            Kind::Count | Kind::Sim => {
                // `null` in the committed report (an unsupported statement)
                // pins nothing.
                let Some(before) = committed.as_f64() else { continue };
                match fresh.as_f64() {
                    None => out.failures.push(format!("sim identity: {at} {before} → missing")),
                    Some(after) => {
                        out.compared = out.compared.map(|n| n + 1);
                        if after.to_bits() != before.to_bits() {
                            out.failures.push(format!("sim identity: {at} {before} → {after}"));
                        }
                    }
                }
            }
            Kind::Object(inner) => identity(inner, committed, fresh, &at, out),
            Kind::Table(inner) => {
                let (before, after) = (old.rows(c.key), new.rows(c.key));
                if before.len() != after.len() {
                    out.failures.push(format!(
                        "sim identity: {at} row count {} → {}",
                        before.len(),
                        after.len()
                    ));
                    continue;
                }
                for (i, (b, a)) in before.iter().zip(after).enumerate() {
                    identity(inner, b, a, &format!("{at}[{i}]"), out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report holding one `fig11` figure with the given rows.
    fn report(rows: Vec<Json>) -> Json {
        let fig11 = Json::obj([("wall_ms", Json::Num(9.0)), ("rows", Json::Arr(rows))]);
        Json::obj([
            ("customers", Json::Int(40)),
            ("reps", Json::Int(2)),
            ("figures", Json::obj([("fig11", fig11)])),
        ])
    }

    fn row(locks: i64, sim_ms: Option<f64>) -> Json {
        let mut pairs = vec![("locks", Json::Int(locks))];
        pairs.extend(sim_ms.map(|ms| ("sim_ms", Json::Num(ms))));
        Json::obj(pairs)
    }

    #[test]
    fn identical_reports_compare_every_deterministic_leaf_and_no_wall_leaf() {
        let doc = report(vec![row(10, Some(145.0)), row(100, Some(1450.0))]);
        let outcome = diff(&doc, &doc);
        assert_eq!(outcome.failures, Vec::<String>::new());
        assert_eq!(outcome.compared, Some(4), "locks and sim_ms of two rows");
        assert_eq!(outcome.walls, vec![("fig11.wall_ms".to_string(), 9.0, 9.0)]);
    }

    #[test]
    fn a_series_that_disappears_from_the_fresh_report_fails() {
        let committed = report(vec![row(10, Some(145.0)), row(100, Some(1450.0))]);
        // The fresh report dropped (or renamed) `sim_ms`.
        let fresh = report(vec![row(10, None), row(100, None)]);
        let outcome = diff(&committed, &fresh);
        assert_eq!(outcome.compared, Some(2), "only `locks` was there to compare");
        assert_eq!(outcome.failures.len(), 2, "{:?}", outcome.failures);
        assert!(outcome.failures[0].contains("fig11.rows[0].sim_ms"), "{:?}", outcome.failures);

        // A key absent from both sides is not a comparison.
        let outcome = diff(&fresh, &fresh);
        assert_eq!((outcome.compared, outcome.failures.len()), (Some(2), 0));

        // A drifted value, a dropped row, a dropped table, a dropped
        // `wall_ms` and a dropped figure all fail too.
        let drifted = report(vec![row(10, Some(145.5)), row(100, Some(1450.0))]);
        assert_eq!(diff(&committed, &drifted).failures.len(), 1);
        let shorter = report(vec![row(10, Some(145.0))]);
        assert!(diff(&committed, &shorter).failures[0].contains("row count 2 → 1"));
        let no_table = Json::obj([
            ("customers", Json::Int(40)),
            ("reps", Json::Int(2)),
            ("figures", Json::obj([("fig11", Json::obj([("wall_ms", Json::Num(9.0))]))])),
        ]);
        assert!(diff(&committed, &no_table).failures[0].contains("row count 2 → 0"));
        let rows = Json::Arr(vec![row(10, Some(145.0)), row(100, Some(1450.0))]);
        let no_wall = Json::obj([
            ("customers", Json::Int(40)),
            ("reps", Json::Int(2)),
            ("figures", Json::obj([("fig11", Json::obj([("rows", rows)]))])),
        ]);
        assert_eq!(
            diff(&committed, &no_wall).failures,
            vec!["fig11.wall_ms (missing from fresh report)".to_string()]
        );
        let no_figure = Json::obj([
            ("customers", Json::Int(40)),
            ("reps", Json::Int(2)),
            ("figures", Json::Obj(Vec::new())),
        ]);
        assert!(diff(&committed, &no_figure).failures[0].contains("fig11 (missing"));
        // What only the fresh report carries is new, not a failure.
        assert_eq!(diff(&no_figure, &committed).failures, Vec::<String>::new());
    }

    #[test]
    fn reports_at_different_scales_skip_identity_but_keep_wall_series() {
        let committed = report(vec![row(10, Some(145.0))]);
        let Json::Obj(mut pairs) = report(vec![row(10, Some(150.0))]) else { unreachable!() };
        pairs[0].1 = Json::Int(500);
        let outcome = diff(&committed, &Json::Obj(pairs));
        assert_eq!(outcome.compared, None);
        assert_eq!(outcome.failures, Vec::<String>::new());
        assert_eq!(outcome.walls.len(), 1);
    }
}
