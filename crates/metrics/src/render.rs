//! Plain-text rendering: CSV, aligned tables, and ASCII charts.
//!
//! The experiment harness regenerates the paper's tables and figures as
//! terminal output; these helpers keep that output consistent and diffable.

use crate::TimeSeries;

/// Builds an aligned plain-text table (also valid Markdown).
///
/// # Examples
///
/// ```
/// use utilbp_metrics::TextTable;
///
/// let mut t = TextTable::new(["Pattern", "CAP-BP", "UTIL-BP"]);
/// t.push_row(["I", "102.87", "97.97"]);
/// let rendered = t.render();
/// assert!(rendered.contains("| Pattern |"));
/// assert!(rendered.contains("97.97"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated to the header width.
    pub fn push_row<I, S>(&mut self, row: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned pipes and a separator row.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&render_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}-|", "-".repeat(w + 2 - 1)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
        }
        out
    }
}

/// Renders one or more series as an ASCII scatter chart, one marker symbol
/// per series, with y-axis labels — enough to eyeball the shape of the
/// paper's figures in a terminal.
///
/// # Examples
///
/// ```
/// use utilbp_core::Tick;
/// use utilbp_metrics::{ascii_chart, TimeSeries};
///
/// let mut s = TimeSeries::new("queue");
/// for k in 0..50 {
///     s.push(Tick::new(k), (k as f64 / 5.0).sin() * 10.0 + 10.0);
/// }
/// let chart = ascii_chart(&[&s], 60, 12);
/// assert!(chart.contains("queue"));
/// ```
pub fn ascii_chart(series: &[&TimeSeries], width: usize, height: usize) -> String {
    const MARKERS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let width = width.max(16);
    let height = height.max(4);

    let mut x_min = f64::INFINITY;
    let mut x_max = f64::NEG_INFINITY;
    let mut y_min = f64::INFINITY;
    let mut y_max = f64::NEG_INFINITY;
    for s in series {
        for (t, v) in s.iter() {
            x_min = x_min.min(t.index() as f64);
            x_max = x_max.max(t.index() as f64);
            y_min = y_min.min(v);
            y_max = y_max.max(v);
        }
    }
    if !x_min.is_finite() {
        return String::from("(no data)\n");
    }
    if (x_max - x_min).abs() < f64::EPSILON {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_max = y_min + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let marker = MARKERS[si % MARKERS.len()];
        for (t, v) in s.iter() {
            let gx = ((t.index() as f64 - x_min) / (x_max - x_min) * (width - 1) as f64).round()
                as usize;
            let gy = ((v - y_min) / (y_max - y_min) * (height - 1) as f64).round() as usize;
            let row = height - 1 - gy.min(height - 1);
            grid[row][gx.min(width - 1)] = marker;
        }
    }

    let label_w = 10;
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let y_here = y_max - (y_max - y_min) * r as f64 / (height - 1) as f64;
        let label = if r == 0 || r == height - 1 || r == (height - 1) / 2 {
            format!("{y_here:>9.1} ")
        } else {
            " ".repeat(label_w)
        };
        out.push_str(&label);
        out.push('|');
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&" ".repeat(label_w));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "{}{:<w$.0}{:>w2$.0}\n",
        " ".repeat(label_w + 1),
        x_min,
        x_max,
        w = width / 2,
        w2 = width - width / 2 - 1,
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "{}{} {}\n",
            " ".repeat(label_w + 1),
            MARKERS[si % MARKERS.len()],
            s.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_core::Tick;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = TextTable::new(["A", "Long header"]);
        t.push_row(["xx", "1"]);
        t.push_row(["y", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| A "));
        assert!(lines[1].starts_with("|--"));
        // All rows have the same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn table_pads_and_truncates_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["only-one"]);
        t.push_row(["1", "2", "3-dropped"]);
        assert_eq!(t.rows.len(), 2);
        let s = t.render();
        assert!(!s.contains("3-dropped"));
    }

    #[test]
    fn chart_handles_empty_and_flat_series() {
        let empty = TimeSeries::new("e");
        assert_eq!(ascii_chart(&[&empty], 40, 8), "(no data)\n");

        let mut flat = TimeSeries::new("flat");
        flat.push(Tick::new(0), 5.0);
        flat.push(Tick::new(10), 5.0);
        let chart = ascii_chart(&[&flat], 40, 8);
        assert!(chart.contains("flat"));
        assert!(chart.contains('*'));
    }

    #[test]
    fn chart_places_extremes_on_opposite_rows() {
        let mut s = TimeSeries::new("ramp");
        for k in 0..=10 {
            s.push(Tick::new(k), k as f64);
        }
        let chart = ascii_chart(&[&s], 40, 10);
        let lines: Vec<&str> = chart.lines().collect();
        // Top row holds the max, bottom data row holds the min.
        assert!(lines[0].contains('*'));
        assert!(lines[9].contains('*'));
    }
}
