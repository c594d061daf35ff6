//! Automated verification of the paper's §8 insights against a measurement
//! campaign — the library form of the claim checks the integration tests
//! perform, so any user can ask "do the paper's conclusions hold on *my*
//! workloads / configuration?"

use crate::Measurement;
use copernicus_workloads::WorkloadClass;
use sparsemat::FormatKind;

/// Outcome of checking one paper claim against a campaign.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InsightCheck {
    /// Short identifier of the claim.
    pub id: &'static str,
    /// The claim, quoted/paraphrased from §6/§8.
    pub claim: &'static str,
    /// Whether the campaign supports it.
    pub holds: bool,
    /// The numbers behind the verdict.
    pub evidence: String,
}

fn mean<F>(ms: &[Measurement], filter: F, metric: fn(&Measurement) -> f64) -> Option<f64>
where
    F: Fn(&Measurement) -> bool,
{
    let v: Vec<f64> = ms.iter().filter(|m| filter(m)).map(metric).collect();
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Checks every §8 insight the campaign's coverage allows and returns one
/// [`InsightCheck`] per claim. Claims whose workload class or format is
/// absent from the campaign are skipped.
pub fn verify(ms: &[Measurement]) -> Vec<InsightCheck> {
    let mut out = Vec::new();

    // 1. Memory bandwidth is not always the bottleneck.
    {
        let sparse: Vec<&Measurement> = ms
            .iter()
            .filter(|m| m.format != FormatKind::Dense)
            .collect();
        if !sparse.is_empty() {
            let compute_bound = sparse.iter().filter(|m| m.balance_ratio() < 1.0).count();
            out.push(InsightCheck {
                id: "bandwidth-not-always-bottleneck",
                claim: "Unlike a common belief, the memory bandwidth is not always the \
                        bottleneck (§8)",
                holds: compute_bound * 2 > sparse.len(),
                evidence: format!(
                    "{compute_bound}/{} sparse configurations are compute-bound",
                    sparse.len()
                ),
            });
        }
    }

    // 2. CSR allows a lower-bandwidth memory than dense.
    if let (Some(csr), Some(dense)) = (
        mean(
            ms,
            |m| m.format == FormatKind::Csr,
            |m| m.mem_cycles() as f64,
        ),
        mean(
            ms,
            |m| m.format == FormatKind::Dense,
            |m| m.mem_cycles() as f64,
        ),
    ) {
        out.push(InsightCheck {
            id: "csr-needs-less-bandwidth",
            claim: "When using a format such as CSR, a lower-bandwidth low-cost memory is \
                    sufficient (§8)",
            holds: csr < dense,
            evidence: format!("mean memory cycles: CSR {csr:.0} vs dense {dense:.0}"),
        });
    }

    // 3. Generic COO beats specialized DIA on real-world workloads.
    let suite = |m: &Measurement| m.class == WorkloadClass::SuiteSparse;
    if let (Some(coo_t), Some(dia_t), Some(coo_u), Some(dia_u)) = (
        mean(
            ms,
            |m| suite(m) && m.format == FormatKind::Coo,
            Measurement::total_seconds,
        ),
        mean(
            ms,
            |m| suite(m) && m.format == FormatKind::Dia,
            Measurement::total_seconds,
        ),
        mean(
            ms,
            |m| suite(m) && m.format == FormatKind::Coo,
            Measurement::bandwidth_utilization,
        ),
        mean(
            ms,
            |m| suite(m) && m.format == FormatKind::Dia,
            Measurement::bandwidth_utilization,
        ),
    ) {
        out.push(InsightCheck {
            id: "generic-beats-specialized",
            claim: "A nonspecialized format such as COO performs faster and better utilizes \
                    the memory bandwidth compared to a specialized format such as DIA (§8)",
            holds: coo_t < dia_t && coo_u > dia_u,
            evidence: format!(
                "time COO {coo_t:.2e}s vs DIA {dia_t:.2e}s; utilization COO {coo_u:.3} vs \
                 DIA {dia_u:.3}"
            ),
        });
    }

    // 4. CSC is the computation worst case.
    if let Some(csc) = mean(ms, |m| m.format == FormatKind::Csc, Measurement::sigma) {
        let worst_other = FormatKind::CHARACTERIZED
            .iter()
            .filter(|&&f| f != FormatKind::Csc)
            .filter_map(|&f| mean(ms, |m| m.format == f, Measurement::sigma))
            .fold(0.0f64, f64::max);
        out.push(InsightCheck {
            id: "csc-worst-case",
            claim: "The worst-case scenario of decompression occurs with the CSC format \
                    (§6.1)",
            holds: csc >= worst_other,
            evidence: format!("mean σ: CSC {csc:.2} vs next worst {worst_other:.2}"),
        });
    }

    // 5. DIA near-perfectly utilizes bandwidth on band/diagonal matrices.
    let band = |m: &Measurement| m.class == WorkloadClass::Band;
    if let Some(dia_u) = mean(
        ms,
        |m| band(m) && m.format == FormatKind::Dia,
        Measurement::bandwidth_utilization,
    ) {
        let best_other = FormatKind::CHARACTERIZED
            .iter()
            .filter(|&&f| f != FormatKind::Dia && f != FormatKind::Dense && f != FormatKind::Bcsr)
            .filter_map(|&f| {
                mean(
                    ms,
                    |m| band(m) && m.format == f,
                    Measurement::bandwidth_utilization,
                )
            })
            .fold(0.0f64, f64::max);
        out.push(InsightCheck {
            id: "dia-wins-band-utilization",
            claim: "For structured band matrices, a pattern-specific format such as DIA \
                    near-perfectly utilizes the memory bandwidth (§8)",
            holds: dia_u > best_other,
            evidence: format!(
                "band-class utilization: DIA {dia_u:.3} vs best element-wise generic \
                 {best_other:.3}"
            ),
        });
    }

    out
}

/// Renders the checks as an aligned table.
pub fn render(checks: &[InsightCheck]) -> String {
    let mut t = crate::table::TextTable::new(&["insight", "holds", "evidence"]);
    for c in checks {
        t.row(&[
            c.id.to_string(),
            if c.holds { "yes" } else { "NO" }.to_string(),
            c.evidence.clone(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checks() -> Vec<InsightCheck> {
        verify(crate::testsupport::campaign())
    }

    #[test]
    fn all_five_insights_are_checked_on_a_full_campaign() {
        let ids: Vec<&str> = checks().iter().map(|c| c.id).collect();
        assert_eq!(
            ids,
            vec![
                "bandwidth-not-always-bottleneck",
                "csr-needs-less-bandwidth",
                "generic-beats-specialized",
                "csc-worst-case",
                "dia-wins-band-utilization",
            ]
        );
    }

    #[test]
    fn all_insights_hold_on_the_quick_campaign() {
        for c in checks() {
            assert!(c.holds, "{}: {}", c.id, c.evidence);
        }
    }

    #[test]
    fn evidence_strings_carry_numbers() {
        for c in checks() {
            assert!(
                c.evidence.chars().any(|ch| ch.is_ascii_digit()),
                "{}: {}",
                c.id,
                c.evidence
            );
        }
    }

    #[test]
    fn partial_campaigns_skip_uncovered_claims() {
        // A campaign with only random workloads cannot check the
        // suite/band-specific claims.
        let ms: Vec<Measurement> = crate::testsupport::campaign()
            .iter()
            .filter(|m| m.class == copernicus_workloads::WorkloadClass::Random)
            .cloned()
            .collect();
        let ids: Vec<&str> = verify(&ms).iter().map(|c| c.id).collect();
        assert!(!ids.contains(&"generic-beats-specialized"));
        assert!(!ids.contains(&"dia-wins-band-utilization"));
        assert!(ids.contains(&"csc-worst-case"));
    }

    #[test]
    fn render_marks_verdicts() {
        let s = render(&checks());
        assert!(s.contains("yes"));
        assert!(s.contains("csc-worst-case"));
    }
}
