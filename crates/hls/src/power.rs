//! Power model (Table 2's dynamic-power columns, Fig. 13's breakdown, and
//! the static-power classes of §6.4).
//!
//! Like the resource model, total dynamic power is a synthesis
//! characteristic anchored on the paper's Vivado reports at partition sizes
//! 8/16/32 (with geometric interpolation elsewhere). The Fig. 13
//! *breakdown* into logic / BRAM / signal components is derived from the
//! resource mix: logic power follows LUT usage, BRAM power follows block
//! count, and signal power — which the paper observes dominates the overall
//! trend — takes the remainder.

use crate::resources::{self, Resources};
use sparsemat::FormatKind;

/// Static power of the designs built around the wider input buffers
/// (dense, CSR, BCSR, LIL, ELL) — §6.4.
pub const STATIC_POWER_HIGH_W: f64 = 0.121;
/// Static power of the CSC / COO / DIA designs — §6.4.
pub const STATIC_POWER_LOW_W: f64 = 0.103;

/// Dynamic-power breakdown in watts (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PowerBreakdown {
    /// Power switched in LUT logic.
    pub logic_w: f64,
    /// Power switched in BRAM blocks.
    pub bram_w: f64,
    /// Power switched in routed signals.
    pub signals_w: f64,
}

impl PowerBreakdown {
    /// Total dynamic power.
    pub fn total_w(&self) -> f64 {
        self.logic_w + self.bram_w + self.signals_w
    }
}

/// Total dynamic power (W) of a format's platform at partition size `p` —
/// Table 2's `DY Power(W)` columns at the paper's sizes, interpolated
/// elsewhere.
pub fn dynamic_power(format: FormatKind, p: usize) -> f64 {
    resources::interpolate(resources::dyn_power_anchor(format), p)
}

/// Static power (W) of a format's design (§6.4 gives two classes).
pub fn static_power(format: FormatKind) -> f64 {
    match format {
        FormatKind::Dense
        | FormatKind::Csr
        | FormatKind::Bcsr
        | FormatKind::Lil
        | FormatKind::Ell => STATIC_POWER_HIGH_W,
        FormatKind::Csc | FormatKind::Coo | FormatKind::Dia => STATIC_POWER_LOW_W,
    }
}

/// Per-BRAM-block dynamic power used to apportion the Fig. 13 breakdown
/// (W per active 18K block, a typical 7-series figure at 250 MHz).
const BRAM_W_PER_BLOCK: f64 = 0.0008;
/// Per-kLUT dynamic power used to apportion the logic share.
const LOGIC_W_PER_KLUT: f64 = 0.004;

/// Splits a format's dynamic power into the Fig.-13 logic / BRAM / signal
/// components, consistent with the Table-2 total.
///
/// The apportioning rule: BRAM and logic each get an activity-weighted
/// share of the total derived from the resource mix; signal power is the
/// remainder — matching §6.4's observation that "the trend of overall
/// dynamic power consumption partially depends on BRAM, but more generally
/// follows the same trend as the power consumption of signals."
pub fn breakdown(format: FormatKind, p: usize) -> PowerBreakdown {
    let total = dynamic_power(format, p);
    let r: Resources = resources::estimate(format, p);
    let bram_raw = r.bram_18k * BRAM_W_PER_BLOCK;
    let logic_raw = r.lut_k * LOGIC_W_PER_KLUT;
    // Cap structural components at 70% of the total so signals always hold
    // a meaningful share.
    let cap = 0.7 * total;
    let scale = if bram_raw + logic_raw > cap {
        cap / (bram_raw + logic_raw)
    } else {
        1.0
    };
    let bram_w = bram_raw * scale;
    let logic_w = logic_raw * scale;
    PowerBreakdown {
        logic_w,
        bram_w,
        signals_w: total - bram_w - logic_w,
    }
}

/// Energy in joules for a run of `seconds` on a format's platform:
/// `(dynamic + static) × time`.
pub fn energy_joules(format: FormatKind, p: usize, seconds: f64) -> f64 {
    (dynamic_power(format, p) + static_power(format)) * seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_power_matches_table2() {
        assert_eq!(dynamic_power(FormatKind::Dense, 16), 0.08);
        assert_eq!(dynamic_power(FormatKind::Dia, 16), 0.12);
        assert_eq!(dynamic_power(FormatKind::Csc, 8), 0.01);
        assert_eq!(dynamic_power(FormatKind::Coo, 32), 0.04);
    }

    #[test]
    fn static_power_classes_match_section_6_4() {
        for kind in [
            FormatKind::Dense,
            FormatKind::Csr,
            FormatKind::Bcsr,
            FormatKind::Lil,
            FormatKind::Ell,
        ] {
            assert_eq!(static_power(kind), STATIC_POWER_HIGH_W, "{kind}");
        }
        for kind in [FormatKind::Csc, FormatKind::Coo, FormatKind::Dia] {
            assert_eq!(static_power(kind), STATIC_POWER_LOW_W, "{kind}");
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        for kind in FormatKind::CHARACTERIZED {
            for p in [8, 16, 32] {
                let b = breakdown(kind, p);
                let total = dynamic_power(kind, p);
                assert!((b.total_w() - total).abs() < 1e-12, "{kind} p={p}");
                assert!(b.logic_w >= 0.0 && b.bram_w >= 0.0 && b.signals_w >= 0.0);
            }
        }
    }

    #[test]
    fn signals_hold_a_meaningful_share() {
        // §6.4: overall dynamic power "more generally follows the same trend
        // as the power consumption of signals" — signals must never vanish.
        for kind in FormatKind::CHARACTERIZED {
            let b = breakdown(kind, 16);
            let total = b.total_w();
            assert!(b.signals_w >= 0.3 * total, "{kind}: {b:?}");
        }
    }

    #[test]
    fn coo_consumes_least_dynamic_power_among_sparse_at_16() {
        // §6.4: "for SuiteSparse matrices, not only does COO consume the
        // least dynamic power..." (CSC's 8×8 point is lower, but at the
        // default 16 COO ties for the minimum among the sparse formats).
        let coo = dynamic_power(FormatKind::Coo, 16);
        for kind in [
            FormatKind::Csr,
            FormatKind::Bcsr,
            FormatKind::Lil,
            FormatKind::Ell,
            FormatKind::Dia,
        ] {
            assert!(coo <= dynamic_power(kind, 16), "{kind}");
        }
    }

    #[test]
    fn energy_combines_dynamic_and_static() {
        let e = energy_joules(FormatKind::Coo, 16, 2.0);
        assert!((e - (0.04 + STATIC_POWER_LOW_W) * 2.0).abs() < 1e-12);
    }
}
