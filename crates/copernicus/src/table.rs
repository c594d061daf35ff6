//! Plain-text table rendering for the figure/table regeneration binaries.

/// A simple aligned text table builder.
///
/// ```
/// use copernicus::table::TextTable;
///
/// let mut t = TextTable::new(&["format", "sigma"]);
/// t.row(&["CSR".to_string(), "1.50".to_string()]);
/// let s = t.render();
/// assert!(s.contains("format"));
/// assert!(s.contains("CSR"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
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

    /// Renders with space-aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(cell, &w)| format!("{cell:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 3 significant decimals for table cells.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float in engineering-friendly form (e.g. throughput).
pub fn eng(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["a", "long_header"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["longer_cell".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("---"));
        // Columns align: "1" and "2" start at the same offset.
        let off1 = lines[2].find('1').unwrap();
        let off2 = lines[3].find('2').unwrap();
        assert_eq!(off1, off2);
    }

    #[test]
    fn len_counts_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        assert!(t.is_empty());
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(eng(2_500_000_000.0), "2.50G");
        assert_eq!(eng(3_200_000.0), "3.20M");
        assert_eq!(eng(1_500.0), "1.50k");
        assert_eq!(eng(12.0), "12.00");
    }
}
