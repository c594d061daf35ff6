//! FPGA resource model (Table 2 of the paper).
//!
//! Resource utilization is a *synthesis* characteristic — the paper reads it
//! from Vivado's reports for the xc7z020, not from workload execution. This
//! module therefore anchors each format's BRAM_18K / FF / LUT figures on the
//! paper's published design points (partition sizes 8, 16, 32 — Table 2)
//! and interpolates geometrically in `log2(p)` between / beyond them so the
//! ablation sweeps can explore non-paper partition sizes with sane
//! structural scaling.
//!
//! At the paper's partition sizes the model reproduces Table 2 exactly by
//! construction; everywhere else it is an extrapolation and is labeled as
//! such in `EXPERIMENTS.md`.

use sparsemat::FormatKind;

/// Resource usage of one format's full platform instance (all of Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Resources {
    /// 18-kbit BRAM blocks.
    pub bram_18k: f64,
    /// Flip-flops, in thousands (Table 2's `FF (×1000)` column).
    pub ff_k: f64,
    /// Look-up tables, in thousands (Table 2's `LUT (×1000)` column).
    pub lut_k: f64,
}

/// Totals available on the xc7z020 (the "Total" row of Table 2).
pub const DEVICE_TOTALS: Resources = Resources {
    bram_18k: 140.0,
    ff_k: 106.4,
    lut_k: 53.2,
};

/// One format's Table-2 anchor row: values at partition sizes 8, 16, 32.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    bram: [f64; 3],
    ff_k: [f64; 3],
    lut_k: [f64; 3],
    /// Dynamic power (W) at partition sizes 8, 16, 32 (Table 2's last
    /// columns) — consumed by [`crate::power`].
    dyn_w: [f64; 3],
}

/// Table 2 of the paper, transcribed: one row per format.
fn anchor(format: FormatKind) -> &'static Anchor {
    match format {
        FormatKind::Dense => &Anchor {
            bram: [8.0, 16.0, 32.0],
            ff_k: [1.5, 1.9, 4.3],
            lut_k: [0.7, 0.7, 1.2],
            dyn_w: [0.02, 0.08, 0.03],
        },
        FormatKind::Csr => &Anchor {
            bram: [2.0, 2.0, 8.0],
            ff_k: [0.7, 0.8, 3.8],
            lut_k: [0.9, 0.9, 1.1],
            dyn_w: [0.04, 0.04, 0.07],
        },
        FormatKind::Bcsr => &Anchor {
            bram: [8.0, 16.0, 32.0],
            ff_k: [1.6, 2.4, 4.4],
            lut_k: [1.2, 1.4, 2.2],
            dyn_w: [0.05, 0.06, 0.06],
        },
        FormatKind::Csc => &Anchor {
            bram: [1.0, 1.0, 9.0],
            ff_k: [0.9, 1.0, 2.7],
            lut_k: [1.0, 1.2, 1.1],
            dyn_w: [0.01, 0.05, 0.03],
        },
        FormatKind::Lil => &Anchor {
            bram: [4.0, 4.0, 6.0],
            ff_k: [2.9, 5.8, 9.1],
            lut_k: [1.6, 2.7, 4.8],
            dyn_w: [0.05, 0.08, 0.07],
        },
        FormatKind::Ell => &Anchor {
            bram: [1.0, 7.0, 9.0],
            ff_k: [2.0, 3.2, 0.9],
            lut_k: [0.9, 1.0, 0.8],
            dyn_w: [0.06, 0.10, 0.06],
        },
        FormatKind::Coo => &Anchor {
            bram: [3.0, 3.0, 8.0],
            ff_k: [1.8, 1.3, 3.2],
            lut_k: [1.2, 2.5, 5.4],
            dyn_w: [0.02, 0.04, 0.04],
        },
        FormatKind::Dia => &Anchor {
            bram: [3.0, 3.0, 11.0],
            ff_k: [2.2, 5.0, 9.2],
            lut_k: [1.5, 2.8, 4.6],
            dyn_w: [0.07, 0.12, 0.05],
        },
    }
}

/// Piecewise-geometric interpolation over the anchors at p = 8, 16, 32 in
/// `log2(p)` space; clamped extrapolation outside [8, 32] scales by the
/// nearest segment's growth rate.
pub(crate) fn interpolate(values: &[f64; 3], p: usize) -> f64 {
    let x = (p.max(1) as f64).log2();
    let xs = [3.0f64, 4.0, 5.0]; // log2 of 8, 16, 32
                                 // Pick the segment to (ex|in)terpolate on.
    let (i, j) = if x <= xs[1] { (0, 1) } else { (1, 2) };
    let (x0, x1) = (xs[i], xs[j]);
    let (y0, y1) = (values[i].max(1e-9), values[j].max(1e-9));
    let t = (x - x0) / (x1 - x0);
    // Geometric interpolation keeps everything positive and scales
    // multiplicatively with p, like array capacities do.
    y0 * (y1 / y0).powf(t)
}

/// Estimates the resources of one format's platform at partition size `p`.
///
/// Exactly Table 2 at `p ∈ {8, 16, 32}`; structural extrapolation
/// elsewhere.
pub fn estimate(format: FormatKind, p: usize) -> Resources {
    let a = anchor(format);
    Resources {
        bram_18k: interpolate(&a.bram, p),
        ff_k: interpolate(&a.ff_k, p),
        lut_k: interpolate(&a.lut_k, p),
    }
}

/// Utilization of the device: each resource as a fraction of
/// [`DEVICE_TOTALS`].
pub fn utilization(r: &Resources) -> Resources {
    Resources {
        bram_18k: r.bram_18k / DEVICE_TOTALS.bram_18k,
        ff_k: r.ff_k / DEVICE_TOTALS.ff_k,
        lut_k: r.lut_k / DEVICE_TOTALS.lut_k,
    }
}

/// The exact Table-2 row for a paper partition size, if `p` is one.
pub fn paper_point(format: FormatKind, p: usize) -> Option<Resources> {
    let idx = match p {
        8 => 0,
        16 => 1,
        32 => 2,
        _ => return None,
    };
    let a = anchor(format);
    Some(Resources {
        bram_18k: a.bram[idx],
        ff_k: a.ff_k[idx],
        lut_k: a.lut_k[idx],
    })
}

pub(crate) fn dyn_power_anchor(format: FormatKind) -> &'static [f64; 3] {
    &anchor(format).dyn_w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_table2_at_paper_points() {
        for kind in FormatKind::CHARACTERIZED {
            let a = anchor(kind);
            for (i, &p) in [8usize, 16, 32].iter().enumerate() {
                let r = estimate(kind, p);
                assert!((r.bram_18k - a.bram[i]).abs() < 1e-9, "{kind} p={p}");
                assert!((r.ff_k - a.ff_k[i]).abs() < 1e-9, "{kind} p={p}");
                assert!((r.lut_k - a.lut_k[i]).abs() < 1e-9, "{kind} p={p}");
            }
        }
    }

    #[test]
    fn dense_and_bcsr_bram_equals_partition_size() {
        // §6.4: "BCSR utilizes the same blocks as the dense implementation
        // does."
        for p in [8, 16, 32] {
            assert_eq!(estimate(FormatKind::Dense, p).bram_18k, p as f64);
            assert_eq!(estimate(FormatKind::Bcsr, p).bram_18k, p as f64);
        }
    }

    #[test]
    fn csr_and_csc_use_fewest_brams_at_16() {
        // §6.4: "CSR and CSC utilized the lowest number of BRAM blocks."
        let csr = estimate(FormatKind::Csr, 16).bram_18k;
        let csc = estimate(FormatKind::Csc, 16).bram_18k;
        for kind in [
            FormatKind::Dense,
            FormatKind::Bcsr,
            FormatKind::Lil,
            FormatKind::Ell,
            FormatKind::Coo,
            FormatKind::Dia,
        ] {
            let other = estimate(kind, 16).bram_18k;
            assert!(csr <= other && csc <= other, "{kind}");
        }
    }

    #[test]
    fn interpolation_is_monotone_between_anchors() {
        let r12 = estimate(FormatKind::Coo, 12);
        let r8 = estimate(FormatKind::Coo, 8);
        let r16 = estimate(FormatKind::Coo, 16);
        assert!(r8.bram_18k <= r12.bram_18k && r12.bram_18k <= r16.bram_18k);
        let r24 = estimate(FormatKind::Coo, 24);
        let r32 = estimate(FormatKind::Coo, 32);
        assert!(r16.bram_18k <= r24.bram_18k && r24.bram_18k <= r32.bram_18k);
    }

    #[test]
    fn extrapolation_beyond_32_keeps_growing_when_segment_grows() {
        let r32 = estimate(FormatKind::Csr, 32);
        let r64 = estimate(FormatKind::Csr, 64);
        assert!(r64.bram_18k > r32.bram_18k);
    }

    #[test]
    fn utilization_is_fraction_of_device() {
        let r = estimate(FormatKind::Dia, 32);
        let u = utilization(&r);
        assert!((u.bram_18k - 11.0 / 140.0).abs() < 1e-9);
        assert!(u.ff_k > 0.0 && u.ff_k < 1.0);
        assert!(u.lut_k > 0.0 && u.lut_k < 1.0);
    }

    #[test]
    fn paper_point_is_exact_and_only_for_paper_sizes() {
        assert_eq!(
            paper_point(FormatKind::Ell, 16).unwrap(),
            Resources {
                bram_18k: 7.0,
                ff_k: 3.2,
                lut_k: 1.0
            }
        );
        assert!(paper_point(FormatKind::Ell, 12).is_none());
    }

    #[test]
    fn ell_small_partitions_trade_bram_for_ff() {
        // §6.4: "in a small partition size, the buffering is automatically
        // implemented using FFs rather than BRAM blocks."
        let r8 = estimate(FormatKind::Ell, 8);
        let r32 = estimate(FormatKind::Ell, 32);
        assert!(r8.bram_18k < r32.bram_18k);
        assert!(r8.ff_k > r32.ff_k);
    }
}
