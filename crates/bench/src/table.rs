//! The harness's one row schema: a titled table of typed cells, rendered as
//! an aligned text table, as CSV, or as a `BENCH_*.json` document.
//!
//! Each column carries a table header, a JSON key, or both, declared once
//! together with its value (see [`Table::build`]). The table and CSV show
//! the header columns; the JSON document writes the keyed ones.

use std::fmt::Write as _;

/// One typed cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    Uint(u64),
    /// Float: the table and CSV print it at its column's precision, JSON at
    /// full (shortest round-trip) precision, or `null` if it is not finite.
    Float(f64),
    /// Flag: `on`/`off` in the table and CSV, `true`/`false` in JSON.
    Bool(bool),
    /// Text.
    Str(String),
    /// No value: `-` in the table and CSV, `null` in JSON.
    Missing,
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Uint(x)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Uint(x as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Missing, Into::into)
    }
}

/// A column: its table header and/or JSON key, and the float precision
/// the table prints it at (`None`: shortest round-trip).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Column {
    header: Option<&'static str>,
    key: Option<&'static str>,
    prec: Option<usize>,
}

impl Column {
    fn text(&self, v: &Value) -> String {
        match (v, self.prec) {
            (Value::Uint(x), _) => x.to_string(),
            (Value::Float(x), Some(p)) => format!("{x:.p$}"),
            (Value::Float(x), None) => x.to_string(),
            (Value::Bool(b), _) => if *b { "on" } else { "off" }.to_string(),
            (Value::Str(s), _) => s.clone(),
            (Value::Missing, _) => "-".to_string(),
        }
    }
}

/// One row under construction: each call declares a column and its value.
#[derive(Debug, Default)]
pub struct Row {
    columns: Vec<Column>,
    values: Vec<Value>,
}

impl Row {
    fn push(&mut self, column: Column, v: Value) {
        self.columns.push(column);
        self.values.push(v);
    }

    /// A column shown in the table as `header` and written to JSON as `key`.
    pub fn col(&mut self, header: &'static str, key: &'static str, v: impl Into<Value>) {
        self.push(Column { header: Some(header), key: Some(key), prec: None }, v.into());
    }

    /// A float column like [`Row::col`], printed in the table at `prec`
    /// decimals.
    pub fn float(&mut self, header: &'static str, key: &'static str, x: f64, prec: usize) {
        self.push(Column { header: Some(header), key: Some(key), prec: Some(prec) }, x.into());
    }

    /// A column shown in the table only.
    pub fn table(&mut self, header: &'static str, v: impl Into<Value>) {
        self.push(Column { header: Some(header), key: None, prec: None }, v.into());
    }

    /// A column written to JSON only.
    pub fn json(&mut self, key: &'static str, v: impl Into<Value>) {
        self.push(Column { header: None, key: Some(key), prec: None }, v.into());
    }
}

/// A titled table of typed cells.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (experiment id + claim).
    pub title: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// New table with table-only string columns under `headers`.
    pub fn new(title: impl Into<String>, headers: &[&'static str]) -> Self {
        Self {
            title: title.into(),
            columns: headers
                .iter()
                .map(|&h| Column { header: Some(h), key: None, prec: None })
                .collect(),
            rows: Vec::new(),
        }
    }

    /// One row per item: `fill` declares every column of the row with its
    /// value, so the columns are written once and every row agrees on them.
    /// A table with no items has no columns.
    pub fn build<I: IntoIterator>(
        title: impl Into<String>,
        items: I,
        mut fill: impl FnMut(&mut Row, I::Item),
    ) -> Self {
        let mut t = Self { title: title.into(), columns: Vec::new(), rows: Vec::new() };
        for item in items {
            let mut row = Row::default();
            fill(&mut row, item);
            if t.rows.is_empty() {
                t.columns = row.columns;
            } else {
                assert_eq!(t.columns, row.columns, "row schema mismatch");
            }
            t.rows.push(row.values);
        }
        t
    }

    /// Append a row of string cells (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells.into_iter().map(Value::Str).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell (row, column) as the table prints it, for assertions in tests.
    pub fn cell(&self, r: usize, c: usize) -> String {
        self.columns[c].text(&self.rows[r][c])
    }

    /// Find the column index of a header.
    pub fn col(&self, header: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c.header == Some(header))
            .unwrap_or_else(|| panic!("no column {header:?}"))
    }

    /// Header and printed cells of every table column, row by row.
    fn text_rows(&self) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let shown: Vec<usize> =
            (0..self.columns.len()).filter(|&i| self.columns[i].header.is_some()).collect();
        let headers = shown.iter().filter_map(|&i| self.columns[i].header).collect();
        let rows = self
            .rows
            .iter()
            .map(|row| shown.iter().map(|&i| self.columns[i].text(&row[i])).collect())
            .collect();
        (headers, rows)
    }

    /// Render as CSV (machine-readable; `harness --csv <exp>`).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let (headers, rows) = self.text_rows();
        let mut out = String::new();
        let _ = writeln!(out, "{}", headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let (headers, rows) = self.text_rows();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[&str]| {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(&widths) {
                let _ = write!(s, "| {cell:<w$} ");
            }
            s.push('|');
            s
        };
        let _ = writeln!(out, "{}", line(&headers));
        let mut sep = String::new();
        for w in &widths {
            let _ = write!(sep, "|{}", "-".repeat(w + 2));
        }
        sep.push('|');
        let _ = writeln!(out, "{sep}");
        for row in &rows {
            let cells: Vec<&str> = row.iter().map(String::as_str).collect();
            let _ = writeln!(out, "{}", line(&cells));
        }
        out
    }

    /// Render the keyed columns as the `BENCH_<experiment>.json` document:
    /// one object per row, plus the schema version, the host's core count
    /// and the `units` legend.
    pub fn to_json(&self, experiment: &str, units: &[(&str, &str)]) -> String {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let mut out = String::from("{\n  \"experiment\": ");
        json_str(&mut out, experiment);
        let _ = write!(out, ",\n  \"schema\": 2,\n  \"cores\": {cores},\n  \"unit\": {{");
        for (i, (name, unit)) in units.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { ", " });
            json_str(&mut out, name);
            out.push_str(": ");
            json_str(&mut out, unit);
        }
        out.push_str("},\n  \"cells\": [\n");
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            let keyed = self.columns.iter().zip(row).filter_map(|(c, v)| Some((c.key?, v)));
            for (i, (key, v)) in keyed.enumerate() {
                out.push_str(if i == 0 { "" } else { ", " });
                json_str(&mut out, key);
                out.push_str(": ");
                match v {
                    Value::Uint(x) => _ = write!(out, "{x}"),
                    Value::Float(x) if x.is_finite() => _ = write!(out, "{x}"),
                    Value::Float(_) | Value::Missing => out.push_str("null"),
                    Value::Bool(b) => _ = write!(out, "{b}"),
                    Value::Str(s) => json_str(&mut out, s),
                }
            }
            out.push_str(if r + 1 == self.rows.len() { "}\n" } else { "},\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Append `s` as a JSON string literal, escaped per RFC 8259.
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => _ = write!(out, "\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a rate as a percentage.
pub fn pct(num: usize, den: usize) -> String {
    if den == 0 {
        "n/a".into()
    } else {
        format!("{:.0}%", 100.0 * num as f64 / den as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["wide_cell".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| wide_cell | 3"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, t.col("long_header")), "2");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    #[should_panic(expected = "row schema mismatch")]
    fn build_rejects_rows_with_different_columns() {
        Table::build("demo", [false, true], |r, wide| {
            r.col("a", "a", 1u64);
            if wide {
                r.col("b", "b", 2u64);
            }
        });
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    /// Pins all three renderings of one schema: a table-only and a
    /// JSON-only column, a float at table precision, a missing value, a
    /// flag, a string needing escapes, and a NaN.
    #[test]
    fn golden_render_csv_and_json() {
        let rows = [(1u64, 0.125, Some("a\"b\\c\nd"), true), (22, f64::NAN, None, false)];
        let t = Table::build("golden", rows, |r, (n, x, s, on)| {
            r.col("n", "n", n);
            r.table("label", format!("#{n}"));
            r.json("seeds", 3u64);
            r.float("x", "x", x, 2);
            r.col("text", "text", s);
            r.col("on", "on", on);
        });
        assert_eq!(
            t.render(),
            "## golden\n\
             | n  | label | x    | text    | on  |\n\
             |----|-------|------|---------|-----|\n\
             | 1  | #1    | 0.12 | a\"b\\c\nd | on  |\n\
             | 22 | #22   | NaN  | -       | off |\n"
        );
        assert_eq!(
            t.to_csv(),
            "n,label,x,text,on\n\
             1,#1,0.12,\"a\"\"b\\c\nd\",on\n\
             22,#22,NaN,-,off\n"
        );
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(
            t.to_json("eX", &[("x", "a \"unit\"")]),
            format!(
                "{{\n  \"experiment\": \"eX\",\n  \"schema\": 2,\n  \"cores\": {cores},\n  \
                 \"unit\": {{\"x\": \"a \\\"unit\\\"\"}},\n  \"cells\": [\n    \
                 {{\"n\": 1, \"seeds\": 3, \"x\": 0.125, \"text\": \"a\\\"b\\\\c\\nd\", \"on\": true}},\n    \
                 {{\"n\": 22, \"seeds\": 3, \"x\": null, \"text\": null, \"on\": false}}\n  ]\n}}\n"
            )
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut out = String::new();
        json_str(&mut out, "\t\r\u{1}é");
        assert_eq!(out, "\"\\t\\r\\u0001é\"");
    }

    #[test]
    fn helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(pct(1, 4), "25%");
        assert_eq!(pct(0, 0), "n/a");
    }
}
