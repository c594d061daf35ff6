//! End-to-end fault-tolerance contract at the CLI layer: an interrupted
//! campaign resumed from its checkpoint reproduces the clean run's
//! artifacts byte for byte (at any worker count), `--keep-going` completes
//! the rest of the grid and surfaces the typed failure through the manifest
//! and the exit code, and `--max-retries` absorbs transient faults.

use copernicus::{CampaignError, ExperimentConfig, FailureKind, Measurement};
use copernicus_bench::Cli;
use copernicus_telemetry::RunManifest;
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
    ]
}

fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copernicus-bench-fault-{}-{test}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn measurement_bytes(ms: &[Measurement]) -> String {
    serde::json::to_string_pretty(&serde::Serialize::serialize(&ms.to_vec()))
}

fn cli(args: &[&str]) -> Cli {
    Cli::parse(args.iter().map(|s| (*s).to_string())).expect("flags parse")
}

/// One full grid through a `Cli`-configured runner; returns the emitted
/// measurement JSON and metrics TSV.
fn artifacts(cli: &Cli) -> (String, String) {
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
        .expect("campaign completes");
    (measurement_bytes(&ms), telemetry.metrics.to_tsv())
}

/// The satellite (d) contract: kill a campaign mid-grid with an injected
/// panic, resume from the checkpoint, and byte-compare the artifacts
/// against an uninterrupted run — at the given worker count.
fn resume_reproduces_clean_artifacts_at(jobs: usize) {
    let jobs_s = jobs.to_string();
    let clean_dir = scratch_dir(&format!("clean-{jobs}"));
    let resumed_dir = scratch_dir(&format!("resumed-{jobs}"));

    let clean = cli(&["--jobs", &jobs_s, "--out", clean_dir.to_str().unwrap()]);
    let (clean_json, clean_tsv) = artifacts(&clean);

    // Interrupted run: a panic injected mid-grid aborts the campaign, but
    // every cell completed before the abort is already on disk.
    let dir = resumed_dir.to_str().unwrap();
    let interrupted = cli(&[
        "--jobs",
        &jobs_s,
        "--out",
        dir,
        "--inject-faults",
        "panic:cell=7",
    ]);
    let cfg = ExperimentConfig::quick();
    let runner = interrupted.runner();
    let err = runner
        .characterize(&grid_workloads(), &FORMATS, &SIZES, &cfg)
        .expect_err("the injected panic must abort the campaign");
    match &err {
        CampaignError::Cells { failures, .. } => {
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].kind, FailureKind::Panic);
        }
        other => panic!("expected a cell failure, got {other}"),
    }
    assert!(
        resumed_dir.join("checkpoint.jsonl").exists(),
        "the aborted run must leave its checkpoint behind"
    );

    // Fresh process-equivalent: a new Cli with --resume picks the completed
    // cells back up and the rerun's artifacts match the clean run's bytes.
    let resume = cli(&["--jobs", &jobs_s, "--out", dir, "--resume"]);
    let (resumed_json, resumed_tsv) = artifacts(&resume);
    assert_eq!(
        clean_json, resumed_json,
        "measurement JSON diverged between clean and resumed runs at --jobs {jobs}"
    );
    assert_eq!(
        clean_tsv, resumed_tsv,
        "metrics TSV diverged between clean and resumed runs at --jobs {jobs}"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&resumed_dir);
}

#[test]
fn resume_reproduces_the_clean_artifacts_sequentially() {
    resume_reproduces_clean_artifacts_at(1);
}

#[test]
fn resume_reproduces_the_clean_artifacts_in_parallel() {
    resume_reproduces_clean_artifacts_at(4);
}

#[test]
fn keep_going_completes_the_grid_and_surfaces_the_failure() {
    let dir = scratch_dir("keep-going");
    let manifest_path = dir.join("manifest.json");
    let cli = cli(&[
        "--jobs",
        "2",
        "--keep-going",
        "--max-retries",
        "0",
        "--inject-faults",
        "panic:cell=4",
        "--manifest",
        manifest_path.to_str().unwrap(),
    ]);
    let cfg = ExperimentConfig::quick();
    let runner = cli.runner();
    let mut telemetry = cli.telemetry();

    let workloads = grid_workloads();
    let total = workloads.len() * SIZES.len() * FORMATS.len();
    let outcome = runner
        .run_campaign(
            &workloads,
            &FORMATS,
            &SIZES,
            &cfg,
            &mut telemetry.instruments(),
        )
        .expect("keep-going absorbs the failure");
    assert_eq!(outcome.measurements.len(), total - 1);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].cell, 4);
    assert_eq!(outcome.failures[0].kind, FailureKind::Panic);

    // No poisoned-mutex cascade: the same runner finishes a second pass
    // cleanly (the fault is spent; cached cells fill most of the grid).
    let rerun = runner
        .characterize(&workloads, &FORMATS, &SIZES, &cfg)
        .expect("the runner stays usable after an isolated panic");
    assert_eq!(rerun.len(), total);

    // The failure reaches the manifest and flips the exit code.
    telemetry.record_failures(&outcome.failures);
    let code = telemetry.finish(copernicus::manifest_for(&cfg, &workloads, &FORMATS, &SIZES));
    assert_eq!(code, 1, "a run with failed cells must exit nonzero");
    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest = RunManifest::from_json(&text).expect("manifest parses");
    assert_eq!(manifest.failures.len(), 1);
    assert_eq!(manifest.failures[0].kind, "panic");
    assert_eq!(manifest.failures[0].cell, 4);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_faults_are_retried_through_the_cli_policy() {
    let cli = cli(&[
        "--jobs",
        "1",
        "--max-retries",
        "2",
        "--inject-faults",
        "err:cell=3:count=2",
    ]);
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
        .expect("retries absorb the transient fault");
    assert_eq!(
        ms.len(),
        grid_workloads().len() * SIZES.len() * FORMATS.len()
    );
    let tsv = telemetry.metrics.to_tsv();
    assert!(
        tsv.contains("cell_retries\tcounter\t2"),
        "retry telemetry missing from metrics TSV:\n{tsv}"
    );
}

#[test]
fn repro_all_keep_going_skips_only_the_views_missing_the_failed_cell() {
    // Cell 488 of the shared campaign is the first format of the first
    // random workload at p=16: (20 suite workloads x 3 sizes + 1) x 8
    // formats. Figs. 5 and 10 read that cell; Figs. 4 and 6 do not, and the
    // aggregate figures cover the surviving cells.
    let dir = scratch_dir("repro-all-keep-going");
    let manifest_path = dir.join("manifest.json");
    let out = dir.join("out");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_copernicus-bench"))
        .args([
            "repro_all",
            "--jobs",
            "2",
            "--dim",
            "64",
            "--suite-dim",
            "96",
            "--keep-going",
            "--max-retries",
            "0",
            "--inject-faults",
            "panic:cell=488",
        ])
        .arg("--out")
        .arg(&out)
        .arg("--manifest")
        .arg(&manifest_path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run repro_all");
    assert_eq!(status.code(), Some(1), "a failed cell must exit nonzero");
    for absent in ["fig05", "fig10"] {
        assert!(!out.join(format!("{absent}.tsv")).exists(), "{absent}");
    }
    for written in ["fig04", "fig06", "fig07", "insights"] {
        assert!(out.join(format!("{written}.tsv")).exists(), "{written}");
    }

    let text = std::fs::read_to_string(out.join("measurements.json")).expect("measurements");
    let doc = serde::json::parse(&text).expect("measurements.json parses");
    let len = |key: &str| doc.get(key).and_then(serde::Value::as_seq).map(<[_]>::len);
    assert_eq!(len("measurements"), Some(815));
    assert_eq!(len("failures"), Some(1));
    let manifest = RunManifest::from_json(&std::fs::read_to_string(&manifest_path).unwrap())
        .expect("manifest parses");
    assert_eq!(manifest.failures.len(), 1);
    assert_eq!(manifest.failures[0].cell, 488);

    let _ = std::fs::remove_dir_all(&dir);
}
