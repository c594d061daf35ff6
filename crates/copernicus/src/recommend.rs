//! A format-recommendation engine encoding the paper's §8 insights.
//!
//! Given the structural statistics of a workload (partition density, band
//! structure, non-zero-row share) and an optimization goal, recommends a
//! compression format with the paper's rationale attached — the "hints to
//! architects to mindfully choose appropriate sparse formats" the paper
//! promises.

use sparsemat::{Coo, Dia, FormatKind, Matrix, PartitionGrid, SparseError};

/// What the user optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Goal {
    /// Minimize end-to-end latency.
    Latency,
    /// Maximize streaming throughput.
    Throughput,
    /// Minimize dynamic power / energy.
    Power,
    /// Keep memory-read and compute balanced (streaming pipelines).
    Balance,
    /// Maximize useful bytes per transferred byte.
    BandwidthUtilization,
}

/// A recommendation with its paper-derived rationale.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Recommendation {
    /// The recommended format.
    pub format: FormatKind,
    /// A sensible partition size to pair with it.
    pub partition_size: usize,
    /// One-paragraph rationale citing the paper's findings.
    pub rationale: String,
}

/// Structural features the rules dispatch on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Features {
    density: f64,
    /// Fraction of nnz on the main diagonal band of width 64.
    band_fraction: f64,
    /// True when the matrix is (nearly) purely diagonal/banded.
    is_banded: bool,
    nonzero_row_share: f64,
}

fn features(matrix: &Coo<f32>) -> Result<Features, SparseError> {
    let density = matrix.density();
    let dia = Dia::from(matrix);
    let in_band: usize = dia
        .offsets()
        .iter()
        .enumerate()
        .filter(|(_, &d)| d.unsigned_abs() <= 32)
        .map(|(k, _)| dia.diagonal(k).iter().filter(|v| **v != 0.0).count())
        .sum();
    let band_fraction = if matrix.nnz() == 0 {
        0.0
    } else {
        in_band as f64 / matrix.nnz() as f64
    };
    let is_banded = band_fraction > 0.95 && dia.num_diagonals() <= 65;
    let grid = PartitionGrid::new(matrix, 16)?;
    let stats = grid.stats();
    Ok(Features {
        density,
        band_fraction,
        is_banded,
        nonzero_row_share: stats.nonzero_row_share_pct / 100.0,
    })
}

/// Recommends a format for a workload and goal, following §8:
///
/// * generic formats (COO) beat pattern-specific ones on irregular
///   matrices because they match generic hardware;
/// * DIA only pays off for genuinely banded matrices *if* bandwidth
///   utilization is the goal;
/// * BCSR/LIL suit denser matrices when throughput or power matters;
/// * for density > 0.1 (neural-network territory), small partitions and
///   simple formats win.
///
/// # Errors
///
/// Propagates partitioning failures (cannot happen for valid matrices).
pub fn recommend(matrix: &Coo<f32>, goal: Goal) -> Result<Recommendation, SparseError> {
    let f = features(matrix)?;
    let rec = match goal {
        Goal::BandwidthUtilization if f.is_banded => Recommendation {
            format: FormatKind::Dia,
            partition_size: 32,
            rationale: "the matrix is banded and the goal is bandwidth utilization: §8 finds DIA \
                        'near-perfectly utilizes the memory bandwidth and does it better as the \
                        partition size increases' — but pair it with a DIA-aware compute engine, \
                        or the format/hardware mismatch becomes a computation bottleneck"
                .into(),
        },
        Goal::BandwidthUtilization => Recommendation {
            format: FormatKind::Lil,
            partition_size: 32,
            rationale: "for irregular sparsity, §6.3 finds LIL 'a better candidate to cover more \
                        extreme sparseness as well as a wider variety of random matrices' while \
                        offering a better balance ratio at larger partitions than COO and ELL"
                .into(),
        },
        Goal::Latency if f.is_banded => Recommendation {
            format: FormatKind::Ell,
            partition_size: 16,
            rationale: "for structured matrices §6.4 finds 'LIL and ELL are the fastest in terms \
                        of latency and throughput, among which ELL performs better for band \
                        matrices with wider bandwidths and consumes less power'"
                .into(),
        },
        Goal::Latency => Recommendation {
            format: FormatKind::Coo,
            partition_size: 16,
            rationale: "§6.4: 'for SuiteSparse matrices, not only does COO consume the least \
                        dynamic power, but also it is the fastest in terms of total latency'; \
                        §8 adds that a non-specialized format such as COO performs faster than a \
                        specialized one because it matches generic hardware"
                .into(),
        },
        Goal::Throughput => Recommendation {
            format: FormatKind::Bcsr,
            partition_size: if f.density > 0.1 { 8 } else { 16 },
            rationale: "§6.3 finds BCSR, LIL and DIA reach the highest throughput; §6.4: 'if \
                        achieving high throughput at lower power is the goal, BCSR is a better \
                        fit'"
                .into(),
        },
        Goal::Power => Recommendation {
            format: FormatKind::Coo,
            partition_size: 8,
            rationale: "§6.4: COO consumes the least dynamic power on diverse workloads, and the \
                        smallest partition size keeps both BRAM and signal power down (Fig. 13)"
                .into(),
        },
        Goal::Balance => {
            if f.density > 0.1 {
                Recommendation {
                    format: FormatKind::Bcsr,
                    partition_size: 8,
                    rationale: "§6.2 suggests BCSR or LIL for less sparse applications (e.g. \
                                neural-network inference) when memory bandwidth can keep up; §8 \
                                warns that for density > 0.1, partitions beyond 8×8 or at most \
                                16×16 hurt performance"
                        .into(),
                }
            } else {
                Recommendation {
                    format: FormatKind::Coo,
                    partition_size: 16,
                    rationale: "§6.2: 'COO seems to offer a reasonable balance for various \
                                densities as well as the varieties of band matrices'"
                        .into(),
                }
            }
        }
    };
    Ok(rec)
}

/// Measurement-based recommendation: instead of the §8 rules, actually
/// runs the matrix through the platform in every characterized format and
/// picks the best one for the goal. Slower but exact for the configured
/// hardware.
///
/// # Errors
///
/// Propagates platform failures.
pub fn recommend_measured(
    matrix: &Coo<f32>,
    goal: Goal,
    cfg: &copernicus_hls::HwConfig,
) -> Result<Recommendation, crate::CampaignError> {
    let mut session = copernicus_hls::Session::new(cfg.clone())?;
    let mut best: Option<(FormatKind, f64)> = None;
    for format in FormatKind::CHARACTERIZED {
        let r = session
            .run(copernicus_hls::RunRequest::matrix(matrix, format))?
            .report;
        // Higher score = better for the goal.
        let score = match goal {
            Goal::Latency => -(r.total_cycles as f64),
            Goal::Throughput => r.throughput_bytes_per_sec(),
            Goal::Power => {
                -copernicus_hls::power::energy_joules(format, cfg.partition_size, r.total_seconds())
            }
            Goal::Balance => -r.balance_ratio.max(1e-12).ln().abs(),
            Goal::BandwidthUtilization => r.bandwidth_utilization(),
        };
        if best.is_none_or(|(_, s)| score > s) {
            best = Some((format, score));
        }
    }
    let Some((format, score)) = best else {
        return Err(copernicus_hls::PlatformError::Config(
            "no characterized formats to recommend from".to_string(),
        )
        .into());
    };
    Ok(Recommendation {
        format,
        partition_size: cfg.partition_size,
        rationale: format!(
            "measured best of the {} characterized formats for {goal:?} on this matrix              at p={} (score {score:.4e})",
            FormatKind::CHARACTERIZED.len(),
            cfg.partition_size
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use copernicus_workloads::{band, random, seeded_rng};

    fn banded() -> Coo<f32> {
        band::band(128, 4, &mut seeded_rng(0))
    }

    fn irregular() -> Coo<f32> {
        random::uniform_square(128, 0.02, &mut seeded_rng(1))
    }

    fn dense_ish() -> Coo<f32> {
        random::uniform_square(64, 0.3, &mut seeded_rng(2))
    }

    #[test]
    fn banded_plus_bandwidth_goal_gives_dia() {
        let r = recommend(&banded(), Goal::BandwidthUtilization).unwrap();
        assert_eq!(r.format, FormatKind::Dia);
        assert_eq!(r.partition_size, 32);
        assert!(r.rationale.contains("band"));
    }

    #[test]
    fn irregular_bandwidth_goal_gives_lil() {
        let r = recommend(&irregular(), Goal::BandwidthUtilization).unwrap();
        assert_eq!(r.format, FormatKind::Lil);
    }

    #[test]
    fn latency_on_irregular_gives_coo() {
        let r = recommend(&irregular(), Goal::Latency).unwrap();
        assert_eq!(r.format, FormatKind::Coo);
    }

    #[test]
    fn latency_on_banded_gives_ell() {
        let r = recommend(&banded(), Goal::Latency).unwrap();
        assert_eq!(r.format, FormatKind::Ell);
    }

    #[test]
    fn throughput_gives_bcsr_with_density_aware_partition() {
        let r_sparse = recommend(&irregular(), Goal::Throughput).unwrap();
        assert_eq!(r_sparse.format, FormatKind::Bcsr);
        assert_eq!(r_sparse.partition_size, 16);
        let r_dense = recommend(&dense_ish(), Goal::Throughput).unwrap();
        assert_eq!(r_dense.partition_size, 8);
    }

    #[test]
    fn balance_dispatches_on_density() {
        assert_eq!(
            recommend(&irregular(), Goal::Balance).unwrap().format,
            FormatKind::Coo
        );
        assert_eq!(
            recommend(&dense_ish(), Goal::Balance).unwrap().format,
            FormatKind::Bcsr
        );
    }

    #[test]
    fn power_goal_gives_coo_small_partitions() {
        let r = recommend(&irregular(), Goal::Power).unwrap();
        assert_eq!(r.format, FormatKind::Coo);
        assert_eq!(r.partition_size, 8);
    }

    #[test]
    fn measured_recommendation_picks_a_defensible_format() {
        let cfg = copernicus_hls::HwConfig::with_partition_size(16);
        // On a diagonal matrix, DIA must win bandwidth utilization by
        // measurement, matching the rule-based recommendation.
        let diag = banded();
        let rule = recommend(&diag, Goal::BandwidthUtilization).unwrap();
        let measured = recommend_measured(&diag, Goal::BandwidthUtilization, &cfg).unwrap();
        assert_eq!(measured.format, FormatKind::Dia);
        assert_eq!(rule.format, measured.format);
        assert!(measured.rationale.contains("measured"));
    }

    #[test]
    fn measured_latency_winner_beats_csc() {
        let cfg = copernicus_hls::HwConfig::with_partition_size(16);
        let m = irregular();
        let best = recommend_measured(&m, Goal::Latency, &cfg).unwrap();
        assert_ne!(best.format, FormatKind::Csc, "CSC cannot win latency");
    }

    #[test]
    fn rationales_are_non_empty_for_all_goals() {
        for goal in [
            Goal::Latency,
            Goal::Throughput,
            Goal::Power,
            Goal::Balance,
            Goal::BandwidthUtilization,
        ] {
            let r = recommend(&banded(), goal).unwrap();
            assert!(!r.rationale.is_empty(), "{goal:?}");
        }
    }
}
