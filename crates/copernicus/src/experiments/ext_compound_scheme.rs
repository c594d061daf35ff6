//! Beyond-paper extension: compound compression schemes. The paper's
//! formats are *structural* compressors — they drop zeros but ship their
//! index/value streams verbatim. This experiment stacks a second-stage
//! stream codec (RLE, delta+varint, canonical Huffman) on top of each
//! format and asks the paper's own question one level up: when does a
//! cheap-to-decode format (plain ELL) beat an aggressively compressed one
//! (CSR + delta-varint) once the entropy decoder's cycles are charged to
//! the pipeline?

use crate::measure::ExperimentConfig;
use crate::table::{eng, f3, TextTable};
use crate::CampaignError;
use copernicus_hls::CodecKind;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

/// The structural formats compared: the paper's compressed baseline (CSR),
/// the padding-heavy but trivially decodable ELL, and COO as the
/// tuple-stream middle ground.
pub const SCHEME_FORMATS: [FormatKind; 3] = [FormatKind::Csr, FormatKind::Ell, FormatKind::Coo];

/// Every second-stage codec, including `none` (the structural baseline).
pub const SCHEME_CODECS: [CodecKind; 4] = CodecKind::ALL;

/// Partition size for the comparison (the paper's default).
pub const SCHEME_PARTITION: usize = super::DEFAULT_PARTITION;

/// The two scheme workloads: a banded matrix (sorted, small-delta index
/// streams — delta-varint's best case) and a sparse random one.
pub fn scheme_workloads(cfg: &ExperimentConfig) -> [Workload; 2] {
    [
        Workload::Band {
            n: cfg.sweep_dim,
            width: 8,
        },
        Workload::Random {
            n: cfg.sweep_dim,
            density: 0.02,
        },
    ]
}

/// One (workload, codec, format) point of the comparison.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CompoundSchemeRow {
    /// Workload label (`w=<width>` or `d=<density>`).
    pub workload: String,
    /// Second-stage stream codec.
    pub codec: CodecKind,
    /// Structural format.
    pub format: FormatKind,
    /// Decompression overhead σ (now includes entropy-decode cycles).
    pub sigma: f64,
    /// Structural bytes (codec-independent).
    pub total_bytes: u64,
    /// Bytes actually transferred after the second stage.
    pub coded_bytes: u64,
    /// Cycles spent in the second-stage decoder.
    pub entropy_cycles: u64,
    /// End-to-end seconds.
    pub total_seconds: f64,
}

/// Runs the compound-scheme comparison.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<CompoundSchemeRow>, CampaignError> {
    run_on(
        &crate::CampaignRunner::sequential(),
        cfg,
        &mut crate::Instruments::none(),
    )
}

/// Like [`run`], with campaign instruments attached, executed on `runner`. One
/// runner serves all four codec sub-campaigns: the hardware config (codec
/// included) is part of every memo key, so the sub-campaigns never alias each
/// other's cells and the row stream is byte-identical at any job count.
///
/// # Errors
///
/// See [`run`].
pub fn run_on(
    runner: &crate::CampaignRunner,
    cfg: &ExperimentConfig,
    instruments: &mut crate::Instruments<'_>,
) -> Result<Vec<CompoundSchemeRow>, CampaignError> {
    let mut rows = Vec::new();
    for codec in SCHEME_CODECS {
        let mut cfg_codec = cfg.clone();
        cfg_codec.hw.stream_codec = codec;
        let ms = runner.characterize_with(
            &scheme_workloads(cfg),
            &SCHEME_FORMATS,
            &[SCHEME_PARTITION],
            &cfg_codec,
            instruments,
        )?;
        rows.extend(ms.iter().map(|m| CompoundSchemeRow {
            workload: m.workload.clone(),
            codec,
            format: m.format,
            sigma: m.sigma(),
            total_bytes: m.report.total_bytes,
            coded_bytes: m.report.total_coded_bytes,
            entropy_cycles: m.report.total_entropy_cycles,
            total_seconds: m.total_seconds(),
        }));
    }
    Ok(rows)
}

/// The reproducibility manifest for this figure's campaign.
pub fn manifest(cfg: &ExperimentConfig) -> copernicus_telemetry::RunManifest {
    let mut manifest = crate::manifest_for(
        cfg,
        &scheme_workloads(cfg),
        &SCHEME_FORMATS,
        &[SCHEME_PARTITION],
    )
    .with_note("figure=compound_scheme");
    manifest.notes.push(format!(
        "codecs={}",
        SCHEME_CODECS.map(|c| c.to_string()).join(",")
    ));
    manifest
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[CompoundSchemeRow]) -> String {
    let mut t = TextTable::new(&[
        "workload",
        "codec",
        "format",
        "sigma",
        "bytes",
        "coded",
        "saved",
        "entropy_cyc",
        "time_s",
    ]);
    for r in rows {
        let saved = if r.total_bytes == 0 {
            0.0
        } else {
            (r.total_bytes.saturating_sub(r.coded_bytes)) as f64 / r.total_bytes as f64 * 100.0
        };
        t.row(&[
            r.workload.clone(),
            r.codec.to_string(),
            r.format.to_string(),
            f3(r.sigma),
            eng(r.total_bytes as f64),
            eng(r.coded_bytes as f64),
            format!("{saved:.0}%"),
            eng(r.entropy_cycles as f64),
            format!("{:.6}", r.total_seconds),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    fn rows() -> Vec<CompoundSchemeRow> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    fn find(
        rows: &[CompoundSchemeRow],
        band: bool,
        codec: CodecKind,
        format: FormatKind,
    ) -> &CompoundSchemeRow {
        rows.iter()
            .find(|r| {
                r.workload.starts_with(if band { "w=" } else { "d=" })
                    && r.codec == codec
                    && r.format == format
            })
            .unwrap()
    }

    #[test]
    fn covers_every_workload_codec_format_cell() {
        assert_eq!(rows().len(), 2 * SCHEME_CODECS.len() * SCHEME_FORMATS.len());
    }

    #[test]
    fn codec_none_is_the_structural_baseline() {
        for r in rows().iter().filter(|r| r.codec == CodecKind::None) {
            assert_eq!(r.coded_bytes, r.total_bytes, "{r:?}");
            assert_eq!(r.entropy_cycles, 0, "{r:?}");
        }
    }

    #[test]
    fn structural_bytes_are_codec_independent() {
        let rows = rows();
        for base in rows.iter().filter(|r| r.codec == CodecKind::None) {
            for r in rows
                .iter()
                .filter(|r| r.workload == base.workload && r.format == base.format)
            {
                assert_eq!(r.total_bytes, base.total_bytes, "{r:?}");
                assert!(r.coded_bytes <= r.total_bytes, "{r:?}");
            }
        }
    }

    #[test]
    fn delta_varint_compresses_banded_csr_index_streams() {
        // The experiment's headline cell: CSR's sorted small-delta colInx
        // stream on a banded matrix is delta-varint's best case.
        let rows = rows();
        let dv = find(&rows, true, CodecKind::DeltaVarint, FormatKind::Csr);
        assert!(
            dv.coded_bytes < dv.total_bytes,
            "delta-varint should shrink banded CSR: {dv:?}"
        );
        assert!(dv.entropy_cycles > 0, "{dv:?}");
        // And the entropy decoder's cost shows up in σ.
        let none = find(&rows, true, CodecKind::None, FormatKind::Csr);
        assert!(dv.sigma > none.sigma, "{dv:?} vs {none:?}");
    }

    #[test]
    fn plain_ell_never_pays_entropy_cycles_without_a_codec() {
        let rows = rows();
        let ell = find(&rows, true, CodecKind::None, FormatKind::Ell);
        assert_eq!(ell.entropy_cycles, 0);
        // The compound comparison is real: both sides transfer fewer bytes
        // than dense would, but only the codec side pays decoder cycles.
        let dv = find(&rows, true, CodecKind::DeltaVarint, FormatKind::Csr);
        assert!(dv.coded_bytes < ell.total_bytes || dv.entropy_cycles > 0);
    }
}
