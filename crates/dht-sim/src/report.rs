//! Fixed-width table, CSV and chart rendering for the `repro` binary:
//! [`Table`], and the [`Layout`]s that show an experiment's cells.

use dht_core::audit::AuditReport;
use dht_core::stats::Summary;

use crate::chart::chart_from_triples;
use crate::experiments::Cell;

/// A simple text table builder with fixed-width columns.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the cell count must match the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Renders as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (comma-separated; cells containing commas are
    /// quoted).
    #[must_use]
    pub fn render_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// A [`Layout::Flat`] column: its header and how it formats a cell.
pub type Column = (&'static str, fn(&Cell) -> String);

/// How one table or chart shows an experiment's cells.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// One value per cell: a row per axis value, a column per label.
    Pivot {
        /// Table title.
        title: &'static str,
        /// Header of the axis column.
        x_header: &'static str,
        /// Formats an axis value.
        x: fn(f64) -> String,
        /// Formats a cell.
        cell: fn(&Cell) -> String,
    },
    /// The cells' audits, pivoted like [`Layout::Pivot`]; left out when
    /// no cell audited.
    Audit {
        /// Table title.
        title: &'static str,
        /// Header of the axis column.
        x_header: &'static str,
        /// Formats an axis value.
        x: fn(f64) -> String,
    },
    /// One row per cell that `rows` keeps, and one column per
    /// `(header, format)` entry.
    Flat {
        /// Table title.
        title: &'static str,
        /// Which cells get a row.
        rows: fn(&Cell) -> bool,
        /// The columns.
        cols: &'static [Column],
    },
    /// A line per label over the axis; shown only with `--chart`.
    Chart {
        /// Chart title.
        title: &'static str,
        /// Formats an axis value.
        x: fn(f64) -> String,
        /// The plotted value of a cell.
        y: fn(&Cell) -> f64,
    },
    /// A table of text, not of measurements.
    Fixed(fn() -> Table),
}

impl Layout {
    /// The layout as `repro` prints it: a table as text or CSV, a chart
    /// when `chart` is set, each followed by an empty line. `None` when
    /// it shows nothing.
    #[must_use]
    pub fn render(&self, cells: &[Cell], csv: bool, chart: bool) -> Option<String> {
        let table = match *self {
            Layout::Pivot {
                title,
                x_header,
                x,
                cell,
            } => {
                let triples: Vec<_> = cells
                    .iter()
                    .map(|c| (x(c.x), c.label.clone(), cell(c)))
                    .collect();
                pivot(title, x_header, &triples)
            }
            Layout::Audit { title, x_header, x } => {
                let triples: Vec<_> = cells
                    .iter()
                    .filter_map(|c| Some((x(c.x), c.label.clone(), audit_cell(Some(c.audit()?)))))
                    .collect();
                if triples.is_empty() {
                    return None;
                }
                pivot(title, x_header, &triples)
            }
            Layout::Flat { title, rows, cols } => {
                let headers: Vec<_> = cols.iter().map(|(h, _)| *h).collect();
                let mut t = Table::new(title, &headers);
                for c in cells.iter().filter(|c| rows(c)) {
                    t.row(cols.iter().map(|(_, format)| format(c)).collect());
                }
                t
            }
            Layout::Chart { .. } if !chart => return None,
            Layout::Chart { title, x, y } => {
                let triples: Vec<_> = cells
                    .iter()
                    .map(|c| (x(c.x), c.label.clone(), y(c)))
                    .collect();
                return Some(format!(
                    "{}\n",
                    chart_from_triples(title, &triples).render()
                ));
            }
            Layout::Fixed(table) => table(),
        };
        Some(if csv {
            format!("{}\n", table.render_csv())
        } else {
            format!("{}\n", table.render())
        })
    }
}

/// Pivots `(x, series, value)` triples into a table with one row per `x`
/// and one column per series, in first-appearance order; a missing pair
/// reads `-`, and of two equal pairs the first is shown.
#[must_use]
pub fn pivot(title: &str, x_header: &str, triples: &[(String, String, String)]) -> Table {
    let mut xs: Vec<String> = Vec::new();
    let mut series: Vec<String> = Vec::new();
    for (x, s, _) in triples {
        if !xs.contains(x) {
            xs.push(x.clone());
        }
        if !series.contains(s) {
            series.push(s.clone());
        }
    }
    let mut headers: Vec<&str> = vec![x_header];
    headers.extend(series.iter().map(String::as_str));
    let mut table = Table::new(title, &headers);
    for x in &xs {
        let mut cells = vec![x.clone()];
        for s in &series {
            let v = triples
                .iter()
                .find(|(tx, ts, _)| tx == x && ts == s)
                .map_or("-".to_string(), |(_, _, v)| v.clone());
            cells.push(v);
        }
        table.row(cells);
    }
    table
}

/// Formats a float with three significant decimals.
#[must_use]
pub fn f(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a [`Summary`] the way the paper reports distributions:
/// `mean (p01, p99)`.
#[must_use]
pub fn mean_p01_p99(s: &Summary) -> String {
    format!("{:.2} ({:.0}, {:.0})", s.mean, s.p01, s.p99)
}

/// Formats an optional [`AuditReport`] as a table cell: `-` when auditing
/// was off, `clean (N)` after `N` clean node checks, or the violation
/// count when the audit flagged anything.
#[must_use]
pub fn audit_cell(report: Option<&AuditReport>) -> String {
    match report {
        None => "-".to_string(),
        Some(r) if r.is_clean() => format!("clean ({})", r.checked_nodes()),
        Some(r) => format!("{} violations", r.violations().len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["x-long-cell".into(), "y".into(), "z".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-header"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a,b".into(), "plain".into()]);
        let csv = t.render_csv();
        assert!(csv.contains("\"a,b\",plain"));
    }

    #[test]
    fn pivot_fills_missing_with_dash() {
        let triples = vec![
            ("1".to_string(), "A".to_string(), "x".to_string()),
            ("2".to_string(), "B".to_string(), "y".to_string()),
        ];
        let s = pivot("t", "k", &triples).render();
        assert!(s.contains('-'), "missing cells dashed:\n{s}");
    }

    #[test]
    fn summary_formatting() {
        let s = Summary::of(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(mean_p01_p99(&s), "2.00 (0, 4)");
    }

    #[test]
    fn audit_cell_formatting() {
        use dht_core::audit::AuditScope;
        assert_eq!(audit_cell(None), "-");
        let mut clean = AuditReport::new("demo", AuditScope::Online);
        clean.note_checked(42);
        assert_eq!(audit_cell(Some(&clean)), "clean (42)");
        let mut bad = AuditReport::new("demo", AuditScope::Online);
        bad.record(1, "demo/broken", "detail".into());
        assert_eq!(audit_cell(Some(&bad)), "1 violations");
    }
}
