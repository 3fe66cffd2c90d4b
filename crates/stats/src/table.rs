//! ASCII tables and CSV export for experiment reports.
//!
//! Every experiment binary prints a paper-style table through [`Table`] and
//! can optionally persist the same rows as CSV.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned ASCII table.
///
/// # Examples
///
/// ```
/// use plurality_stats::Table;
/// let mut t = Table::new("demo", &["n", "rounds"]);
/// t.row(&["1000".into(), "12".into()]);
/// t.row(&["2000".into(), "13".into()]);
/// let s = t.render();
/// assert!(s.contains("rounds"));
/// assert!(s.contains("2000"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "Table::new: headers must be non-empty");
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "Table::row: expected {} cells, got {}",
            self.headers.len(),
            cells.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as right-aligned ASCII text.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:>width$}", h, width = widths[i]);
            if i + 1 < cols {
                line.push_str("  ");
            }
        }
        let _ = writeln!(out, "{line}");
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:>width$}", cell, width = widths[i]);
                if i + 1 < cols {
                    line.push_str("  ");
                }
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Writes the table as CSV (headers + rows) to `path`.
    ///
    /// Cells containing commas, quotes, or newlines are quoted per RFC 4180.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_csv())
    }

    /// Renders the table as a CSV string.
    fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let header_line: Vec<String> = self.headers.iter().map(|h| escape(h)).collect();
        out.push_str(&header_line.join(","));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with a sensible number of digits for tables.
pub fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let ax = x.abs();
    if ax == 0.0 {
        "0".to_string()
    } else if !(1e-3..1e6).contains(&ax) {
        format!("{x:.3e}")
    } else if ax >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("title", &["a", "long_header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "2000".into()]);
        let s = t.render();
        assert!(s.contains("## title"));
        let lines: Vec<&str> = s.lines().collect();
        // All data lines have equal width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "expected 2 cells")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("t", &["x", "note"]);
        t.row(&["1".into(), "plain".into()]);
        t.row(&["2".into(), "has,comma".into()]);
        t.row(&["3".into(), "has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let mut t = Table::new("t", &["x"]);
        t.row(&["42".into()]);
        let path = std::env::temp_dir().join("plurality_stats_table_test.csv");
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x\n42\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn float_formatting_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert_eq!(fmt_f64(123.456), "123.5");
        assert_eq!(fmt_f64(1.5e7), "1.500e7");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(2.5e-5), "2.500e-5");
    }
}
