//! Table rendering, aligned text or CSV: every table the project prints
//! (experiments, `oracle-cli run`'s report, `batch`, `compare`,
//! `topo-info`) is a [`Table`].

use std::fmt;

/// A plain-text table: a title, a header row, and data rows. Columns are
/// sized to their widest cell; the first column is left-aligned, the rest
/// right-aligned (matching the paper's numeric tables).
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[impl AsRef<str>]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as CSV (RFC 4180): header + rows, comma-separated; a cell
    /// holding a comma, a double quote or a line break is quoted, with its
    /// quotes doubled (workload names such as `dc(1,4181)` hold commas).
    pub fn to_csv(&self) -> String {
        let field = |cell: &String| {
            if cell.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.clone()
            }
        };
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(&self.rows) {
            out.push_str(&row.iter().map(field).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        if !self.title.is_empty() {
            writeln!(f, "{}", self.title)?;
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                if i == 0 {
                    write!(f, "{cell:<w$}")?;
                } else {
                    write!(f, "{cell:>w$}")?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Format a float with the paper's two-decimal style.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with one decimal (utilization percentages).
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "x"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t.row(vec!["longer".into(), "12.34".into()]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("longer  12.34"), "got:\n{s}");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn csv_quotes_cells_with_separators() {
        let mut t = Table::new("", &["metric", "value"]);
        t.row(vec!["program".into(), "dc(1,4181)".into()]);
        t.row(vec!["note".into(), "say \"hi\"".into()]);
        t.row(vec!["lines".into(), "a\nb".into()]);
        t.row(vec!["plain".into(), "fib(10)".into()]);
        assert_eq!(
            t.to_csv(),
            "metric,value\nprogram,\"dc(1,4181)\"\nnote,\"say \"\"hi\"\"\"\n\
             lines,\"a\nb\"\nplain,fib(10)\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new("", &["a", "b"]).row(vec!["only".into()]);
    }

    #[test]
    fn float_formats() {
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(f1(99.96), "100.0");
    }
}
