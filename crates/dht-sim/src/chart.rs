//! Terminal line charts: renders the figures as figures.
//!
//! A [`Chart`] holds one or more named series sampled at shared x
//! positions and renders them onto a character grid with a y-axis, an
//! x-axis, and a glyph legend — enough to eyeball the shapes (orderings,
//! growth rates, crossovers) the reproduction is about, straight from
//! `repro --chart` output.

/// Glyphs assigned to series in order.
const GLYPHS: [char; 8] = ['o', 'x', '+', '*', '#', '@', '%', '&'];

/// Plot height in rows.
const ROWS: usize = 16;

/// A multi-series line chart.
#[derive(Debug, Clone)]
pub struct Chart {
    title: String,
    x_labels: Vec<String>,
    series: Vec<(String, Vec<Option<f64>>)>,
}

impl Chart {
    /// Creates a chart over the given x positions.
    #[must_use]
    pub fn new(title: &str, x_labels: Vec<String>) -> Self {
        Self {
            title: title.to_string(),
            x_labels,
            series: Vec::new(),
        }
    }

    /// Adds a series; its length must match the x labels (use `None` for
    /// missing points).
    pub fn series(&mut self, name: &str, values: Vec<Option<f64>>) {
        assert_eq!(
            values.len(),
            self.x_labels.len(),
            "series '{name}' length must match the x axis"
        );
        self.series.push((name.to_string(), values));
    }

    /// Renders the chart.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let points: Vec<f64> = self
            .series
            .iter()
            .flat_map(|(_, vs)| vs.iter().flatten().copied())
            .collect();
        if points.is_empty() || self.x_labels.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        let y_max = points.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
        let y_min = 0.0f64; // figures in this suite are all zero-based

        // One column per x position, spaced for readability.
        let col_width = 6usize;
        let width = self.x_labels.len() * col_width;
        let mut grid = vec![vec![' '; width]; ROWS];
        for (si, (_, values)) in self.series.iter().enumerate() {
            let glyph = GLYPHS[si % GLYPHS.len()];
            for (xi, v) in values.iter().enumerate() {
                if let Some(v) = v {
                    let frac = ((v - y_min) / (y_max - y_min)).clamp(0.0, 1.0);
                    let row = ((1.0 - frac) * (ROWS - 1) as f64).round() as usize;
                    let col = xi * col_width + col_width / 2;
                    // Stack overlapping series markers side by side.
                    let mut c = col;
                    while c < width && grid[row][c] != ' ' {
                        c += 1;
                    }
                    if c < width {
                        grid[row][c] = glyph;
                    }
                }
            }
        }
        let label_width = 8;
        for (ri, row) in grid.iter().enumerate() {
            let y_val = y_max * (1.0 - ri as f64 / (ROWS - 1) as f64);
            let label = if ri % 4 == 0 || ri == ROWS - 1 {
                format!("{y_val:>7.1}")
            } else {
                " ".repeat(7)
            };
            out.push_str(&format!("{label} |"));
            out.push_str(&row.iter().collect::<String>());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} +{}\n",
            " ".repeat(label_width - 1),
            "-".repeat(width)
        ));
        // X labels, centred per column.
        out.push_str(&" ".repeat(label_width + 1));
        for l in &self.x_labels {
            let trimmed: String = l.chars().take(col_width - 1).collect();
            out.push_str(&format!("{trimmed:<col_width$}"));
        }
        out.push('\n');
        // Legend.
        for (si, (name, _)) in self.series.iter().enumerate() {
            out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], name));
        }
        out
    }
}

/// Builds a chart from the same `(x, series, value)` triples the table
/// pivots use.
#[must_use]
pub fn chart_from_triples(title: &str, triples: &[(String, String, f64)]) -> Chart {
    let mut xs: Vec<String> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for (x, s, _) in triples {
        if !xs.contains(x) {
            xs.push(x.clone());
        }
        if !names.contains(s) {
            names.push(s.clone());
        }
    }
    let mut chart = Chart::new(title, xs.clone());
    for name in &names {
        let values: Vec<Option<f64>> = xs
            .iter()
            .map(|x| {
                triples
                    .iter()
                    .find(|(tx, ts, _)| tx == x && ts == name)
                    .map(|(_, _, v)| *v)
            })
            .collect();
        chart.series(name, values);
    }
    chart
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_axes_labels_and_legend() {
        let mut c = Chart::new("demo", vec!["1".into(), "2".into(), "4".into()]);
        c.series("up", vec![Some(1.0), Some(2.0), Some(4.0)]);
        c.series("flat", vec![Some(2.0), Some(2.0), Some(2.0)]);
        let s = c.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("o up"));
        assert!(s.contains("x flat"));
        assert!(s.contains('|'));
        assert!(s.contains('+'));
        assert!(s.contains("4.0"), "y max label:\n{s}");
    }

    #[test]
    fn monotone_series_renders_monotone_rows() {
        let mut c = Chart::new("mono", (1..=5).map(|i| i.to_string()).collect());
        c.series(
            "grow",
            vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0), Some(5.0)],
        );
        let s = c.render();
        // The glyph for larger values appears on earlier (higher) lines.
        let lines: Vec<&str> = s.lines().collect();
        let row_of = |col_block: usize| {
            lines
                .iter()
                .position(|l| {
                    l.get(9..).is_some_and(|body| {
                        body.chars()
                            .enumerate()
                            .any(|(i, ch)| ch == 'o' && i / 6 == col_block)
                    })
                })
                .unwrap()
        };
        assert!(row_of(4) < row_of(0), "larger value must be higher");
    }

    #[test]
    fn empty_chart_says_no_data() {
        let c = Chart::new("empty", vec!["a".into()]);
        assert!(c.render().contains("(no data)"));
    }

    #[test]
    fn triples_builder_fills_missing_points() {
        let triples = vec![
            ("1".to_string(), "A".to_string(), 1.0),
            ("2".to_string(), "A".to_string(), 2.0),
            ("2".to_string(), "B".to_string(), 5.0),
        ];
        let chart = chart_from_triples("t", &triples);
        let s = chart.render();
        assert!(s.contains("o A"));
        assert!(s.contains("x B"));
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn mismatched_series_rejected() {
        let mut c = Chart::new("bad", vec!["1".into(), "2".into()]);
        c.series("s", vec![Some(1.0)]);
    }
}
