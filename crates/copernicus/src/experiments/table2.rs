//! Table 2 — FPGA resource utilization and dynamic power per format and
//! partition size, plus the §6.4 static-power classes.

use crate::table::TextTable;
use copernicus_hls::{power, resources};
use sparsemat::FormatKind;

/// One row of Table 2 (a format at one partition size).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Table2Row {
    /// Format.
    pub format: FormatKind,
    /// Partition size.
    pub partition_size: usize,
    /// 18-kbit BRAM blocks.
    pub bram_18k: f64,
    /// Flip-flops ×1000.
    pub ff_k: f64,
    /// LUTs ×1000.
    pub lut_k: f64,
    /// Dynamic power in watts.
    pub dynamic_power_w: f64,
    /// Static power in watts (§6.4 gives two design classes).
    pub static_power_w: f64,
}

/// Produces Table 2 for the given partition sizes (the paper's 8/16/32 by
/// default; other sizes are model extrapolations).
pub fn run(partition_sizes: &[usize]) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for format in FormatKind::CHARACTERIZED {
        for &p in partition_sizes {
            let r = resources::estimate(format, p);
            rows.push(Table2Row {
                format,
                partition_size: p,
                bram_18k: r.bram_18k,
                ff_k: r.ff_k,
                lut_k: r.lut_k,
                dynamic_power_w: power::dynamic_power(format, p),
                static_power_w: power::static_power(format),
            });
        }
    }
    rows
}

/// Renders the rows in the paper's layout (one line per format, columns
/// grouped by partition size).
pub fn render(rows: &[Table2Row]) -> String {
    let sizes: Vec<usize> = {
        let mut s: Vec<usize> = rows.iter().map(|r| r.partition_size).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let mut header: Vec<String> = vec!["format".into()];
    for group in ["BRAM_18K", "FF(k)", "LUT(k)", "DynW"] {
        for p in &sizes {
            header.push(format!("{group}@{p}"));
        }
    }
    header.push("StaticW".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = TextTable::new(&header_refs);

    let formats: Vec<FormatKind> = {
        let mut f: Vec<FormatKind> = rows.iter().map(|r| r.format).collect();
        let order = FormatKind::CHARACTERIZED;
        f.sort_by_key(|k| order.iter().position(|o| o == k));
        f.dedup();
        f
    };
    for format in formats {
        // A cell absent from a partial grid renders as "-" instead of
        // aborting the whole table.
        let cell = |p: usize| -> Option<&Table2Row> {
            rows.iter()
                .find(|r| r.format == format && r.partition_size == p)
        };
        let fmt_cell = |p: usize, f: &dyn Fn(&Table2Row) -> String| -> String {
            cell(p).map_or_else(|| "-".to_string(), f)
        };
        let mut row: Vec<String> = vec![format.to_string()];
        for &p in &sizes {
            row.push(fmt_cell(p, &|c| format!("{:.0}", c.bram_18k)));
        }
        for &p in &sizes {
            row.push(fmt_cell(p, &|c| format!("{:.1}", c.ff_k)));
        }
        for &p in &sizes {
            row.push(fmt_cell(p, &|c| format!("{:.1}", c.lut_k)));
        }
        for &p in &sizes {
            row.push(fmt_cell(p, &|c| format!("{:.2}", c.dynamic_power_w)));
        }
        row.push(fmt_cell(sizes[0], &|c| format!("{:.3}", c.static_power_w)));
        t.row(&row);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "Device totals: BRAM_18K {}  FF {}k  LUT {}k\n",
        resources::DEVICE_TOTALS.bram_18k,
        resources::DEVICE_TOTALS.ff_k,
        resources::DEVICE_TOTALS.lut_k
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_reproduce_table2_exactly() {
        let rows = run(&[8, 16, 32]);
        assert_eq!(rows.len(), 8 * 3);
        let lil16 = rows
            .iter()
            .find(|r| r.format == FormatKind::Lil && r.partition_size == 16)
            .unwrap();
        assert_eq!(lil16.bram_18k, 4.0);
        assert_eq!(lil16.ff_k, 5.8);
        assert_eq!(lil16.lut_k, 2.7);
        assert_eq!(lil16.dynamic_power_w, 0.08);
        assert_eq!(lil16.static_power_w, 0.121);
    }

    #[test]
    fn render_has_one_line_per_format_plus_totals() {
        let s = render(&run(&[8, 16, 32]));
        // header + rule + 8 formats + device totals line
        assert_eq!(s.lines().count(), 11);
        assert!(s.contains("DENSE"));
        assert!(s.contains("Device totals"));
    }

    #[test]
    fn works_for_non_paper_sizes_too() {
        let rows = run(&[12, 24]);
        assert_eq!(rows.len(), 16);
        for r in rows {
            assert!(r.bram_18k > 0.0);
        }
    }
}
