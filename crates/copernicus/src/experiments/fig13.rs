//! Fig. 13 — dynamic power broken into (a) logic, (b) BRAM and (c) signal
//! components per format and partition size.

use crate::table::TextTable;
use copernicus_hls::power;
use sparsemat::FormatKind;

/// One stacked bar of Fig. 13.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig13Row {
    /// Format.
    pub format: FormatKind,
    /// Partition size.
    pub partition_size: usize,
    /// Power switched in LUT logic (W).
    pub logic_w: f64,
    /// Power switched in BRAM blocks (W).
    pub bram_w: f64,
    /// Power switched in routed signals (W).
    pub signals_w: f64,
}

/// Produces the Fig.-13 breakdown for the given partition sizes.
pub fn run(partition_sizes: &[usize]) -> Vec<Fig13Row> {
    let mut rows = Vec::new();
    for format in FormatKind::CHARACTERIZED {
        for &p in partition_sizes {
            let b = power::breakdown(format, p);
            rows.push(Fig13Row {
                format,
                partition_size: p,
                logic_w: b.logic_w,
                bram_w: b.bram_w,
                signals_w: b.signals_w,
            });
        }
    }
    rows
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig13Row]) -> String {
    let mut t = TextTable::new(&["format", "p", "logic_W", "bram_W", "signals_W", "total_W"]);
    for r in rows {
        t.row(&[
            r.format.to_string(),
            r.partition_size.to_string(),
            format!("{:.4}", r.logic_w),
            format!("{:.4}", r.bram_w),
            format!("{:.4}", r.signals_w),
            format!("{:.4}", r.logic_w + r.bram_w + r.signals_w),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig13Row> {
        run(&[8, 16, 32])
    }

    #[test]
    fn totals_match_table2_dynamic_power() {
        for r in rows() {
            let total = r.logic_w + r.bram_w + r.signals_w;
            let table2 = power::dynamic_power(r.format, r.partition_size);
            assert!((total - table2).abs() < 1e-12, "{r:?}");
        }
    }

    #[test]
    fn logic_power_never_decreases_sharply_with_partition_size() {
        // §6.4: "the power consumption of logic always increases or stays
        // steady as partition size increases" — allow small model noise for
        // ELL, whose LUT count genuinely shrinks at 32 in Table 2.
        let rows = rows();
        for f in [
            FormatKind::Dense,
            FormatKind::Csr,
            FormatKind::Bcsr,
            FormatKind::Coo,
            FormatKind::Dia,
        ] {
            let at = |p: usize| {
                rows.iter()
                    .find(|r| r.format == f && r.partition_size == p)
                    .unwrap()
                    .logic_w
            };
            assert!(at(32) >= at(8) * 0.9, "{f}: {} -> {}", at(8), at(32));
        }
    }

    #[test]
    fn signals_hold_a_meaningful_share_everywhere() {
        // §6.4: overall dynamic power "more generally follows the same trend
        // as the power consumption of signals" — signals must never vanish
        // from the breakdown.
        for r in rows() {
            let total = r.logic_w + r.bram_w + r.signals_w;
            assert!(r.signals_w >= 0.3 * total, "{r:?}");
        }
    }

    #[test]
    fn covers_formats_times_sizes() {
        assert_eq!(rows().len(), 8 * 3);
    }
}
