//! The CLI-level determinism contract behind `--jobs`: the artifacts a
//! binary emits (measurement JSON, metrics TSV) are byte-identical at any
//! worker count, including when overlapping campaigns share one runner's
//! memoization cache.

use copernicus::{ExperimentConfig, Measurement};
use copernicus_bench::Cli;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

const FORMATS: [FormatKind; 3] = [FormatKind::Csr, FormatKind::Coo, FormatKind::Dia];
const SIZES: [usize; 2] = [8, 16];

fn grid_workloads() -> Vec<Workload> {
    vec![
        Workload::Random {
            n: 48,
            density: 0.05,
        },
        Workload::Band { n: 48, width: 4 },
        Workload::Random {
            n: 64,
            density: 0.02,
        },
    ]
}

fn measurement_bytes(ms: &[Measurement]) -> String {
    serde::json::to_string_pretty(&serde::Serialize::serialize(&ms.to_vec()))
}

/// Runs the grid through the `Cli`-configured runner at `jobs` workers and
/// returns the two emitted artifacts: measurement JSON and metrics TSV.
fn artifacts_at(jobs: usize) -> (String, String) {
    let cli = Cli::parse(["--jobs".to_string(), jobs.to_string()]).unwrap();
    let cfg = ExperimentConfig::quick();
    let runner = cli.runner();
    let mut telemetry = cli.telemetry();
    let ms = runner
        .characterize_with(
            &grid_workloads(),
            &FORMATS,
            &SIZES,
            &cfg,
            &mut telemetry.instruments(),
        )
        .unwrap();
    // A second, overlapping campaign over the same runner — the repro_all
    // pattern where figure grids revisit shared cells. Cache hits must
    // yield the same rows and the same metrics as recomputation would.
    let overlap = runner
        .characterize_with(
            &grid_workloads()[..2],
            &FORMATS[..2],
            &SIZES,
            &cfg,
            &mut telemetry.instruments(),
        )
        .unwrap();
    assert!(runner.cached_cells() > 0);
    let json = format!(
        "{}\n{}",
        measurement_bytes(&ms),
        measurement_bytes(&overlap)
    );
    (json, telemetry.metrics.to_tsv())
}

#[test]
fn emitted_artifacts_are_byte_identical_across_job_counts() {
    let (json1, tsv1) = artifacts_at(1);
    let (json8, tsv8) = artifacts_at(8);
    assert_eq!(
        json1, json8,
        "measurement JSON diverged between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        tsv1, tsv8,
        "metrics TSV diverged between --jobs 1 and --jobs 8"
    );
    let (json4, tsv4) = artifacts_at(4);
    assert_eq!(json1, json4);
    assert_eq!(tsv1, tsv4);
}

/// Renders the compound-scheme campaign (every second-stage codec × the
/// scheme formats) through a `--codec`-aware `Cli` at `jobs` workers.
fn compound_artifacts_at(jobs: usize) -> (String, String) {
    let cli = Cli::parse([
        "--jobs".to_string(),
        jobs.to_string(),
        "--codec".to_string(),
        "delta-varint".to_string(),
    ])
    .unwrap();
    let runner = cli.runner();
    let mut telemetry = cli.telemetry();
    let rows = copernicus::experiments::ext_compound_scheme::run_per_codec(
        &runner,
        &cli.cfg,
        &mut telemetry.instruments(),
    )
    .unwrap();
    let table = copernicus::experiments::ext_compound_scheme::render(&rows);
    (table, telemetry.metrics.to_tsv())
}

#[test]
fn compound_campaign_with_a_codec_is_byte_identical_across_job_counts() {
    let (table1, tsv1) = compound_artifacts_at(1);
    let (table4, tsv4) = compound_artifacts_at(4);
    assert_eq!(
        table1, table4,
        "compound table diverged between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        tsv1, tsv4,
        "compound metrics diverged between --jobs 1 and --jobs 4"
    );
    // The codec actually engaged: its counters reached the registry.
    assert!(
        tsv1.contains("codec.entropy_cycles"),
        "expected codec counters in:\n{tsv1}"
    );
    assert!(tsv1.contains("codec.saved_bytes"), "{tsv1}");
}

/// Renders the compound-scheme campaign on the CPU backend at `jobs`
/// workers — the non-default cost model must honor the same contract.
fn cpu_compound_artifacts_at(jobs: usize) -> (String, String) {
    let cli = Cli::parse([
        "--jobs".to_string(),
        jobs.to_string(),
        "--codec".to_string(),
        "delta-varint".to_string(),
        "--backend".to_string(),
        "cpu".to_string(),
    ])
    .unwrap();
    let runner = cli.runner();
    let mut telemetry = cli.telemetry();
    let rows = copernicus::experiments::ext_compound_scheme::run_per_codec(
        &runner,
        &cli.cfg,
        &mut telemetry.instruments(),
    )
    .unwrap();
    let table = copernicus::experiments::ext_compound_scheme::render(&rows);
    (table, telemetry.metrics.to_tsv())
}

#[test]
fn cpu_backend_campaign_is_byte_identical_across_job_counts() {
    let (table1, tsv1) = cpu_compound_artifacts_at(1);
    let (table4, tsv4) = cpu_compound_artifacts_at(4);
    assert_eq!(
        table1, table4,
        "--backend cpu table diverged between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        tsv1, tsv4,
        "--backend cpu metrics diverged between --jobs 1 and --jobs 4"
    );
    // Sanity: the CPU model really drove the run — its cost surface
    // differs from the HLS default on the same campaign.
    let (hls_table, _) = compound_artifacts_at(1);
    assert_ne!(
        table1, hls_table,
        "cpu and hls backends produced identical compound tables"
    );
}

/// Renders the three-backend split campaign at `jobs` workers.
fn backend_split_artifacts_at(jobs: usize) -> (String, String) {
    let cli = Cli::parse(["--jobs".to_string(), jobs.to_string()]).unwrap();
    let runner = cli.runner();
    let mut telemetry = cli.telemetry();
    let rows = copernicus::experiments::ext_backend_split::run_per_backend(
        &runner,
        &cli.cfg,
        &mut telemetry.instruments(),
    )
    .unwrap();
    let table = copernicus::experiments::ext_backend_split::render(&rows);
    (table, telemetry.metrics.to_tsv())
}

#[test]
fn backend_split_campaign_is_byte_identical_across_job_counts() {
    let (table1, tsv1) = backend_split_artifacts_at(1);
    let (table4, tsv4) = backend_split_artifacts_at(4);
    assert_eq!(
        table1, table4,
        "backend_split table diverged between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        tsv1, tsv4,
        "backend_split metrics diverged between --jobs 1 and --jobs 4"
    );
    // All three cost models are present in the rendered artifact.
    for backend in ["hls", "cpu", "hetero"] {
        assert!(table1.contains(backend), "missing {backend} in:\n{table1}");
    }
}

#[test]
fn cache_hits_reproduce_the_original_rows() {
    let cli = Cli::parse(["--jobs".to_string(), "4".to_string()]).unwrap();
    let cfg = ExperimentConfig::quick();
    let runner = cli.runner();
    let first = runner
        .characterize(&grid_workloads(), &FORMATS, &SIZES, &cfg)
        .unwrap();
    let cells = runner.cached_cells();
    let second = runner
        .characterize(&grid_workloads(), &FORMATS, &SIZES, &cfg)
        .unwrap();
    assert_eq!(first, second);
    assert_eq!(
        runner.cached_cells(),
        cells,
        "a fully-cached rerun must not grow the cache"
    );
}
