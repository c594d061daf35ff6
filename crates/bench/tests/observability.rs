//! End-to-end observability contract at the CLI layer: `progress.jsonl`
//! is valid JSON with a monotone cells-done stream (even across fault
//! retries and checkpoint resume), `profile.json` carries nonzero phase
//! data, and none of the wall-clock artifacts leak into the deterministic
//! ones.

use copernicus::{CampaignError, ExperimentConfig, Measurement};
use copernicus_bench::Cli;
use copernicus_workloads::Workload;
use serde::Value;
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

fn grid_total() -> u64 {
    (grid_workloads().len() * SIZES.len() * FORMATS.len()) as u64
}

fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copernicus-bench-obs-{}-{test}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn cli(args: &[&str]) -> Cli {
    Cli::parse(args.iter().map(|s| (*s).to_string())).expect("flags parse")
}

/// Runs the full grid through a `Cli`-configured runner and finishes the
/// telemetry bundle (which seals `progress.jsonl` and writes
/// `profile.json`). Returns the measurements.
fn run_to_completion(cli: &Cli) -> Vec<Measurement> {
    run_config_to_completion(cli, &ExperimentConfig::quick())
}

/// [`run_to_completion`] under `cfg`.
fn run_config_to_completion(cli: &Cli, cfg: &ExperimentConfig) -> Vec<Measurement> {
    let runner = cli.runner();
    let mut telemetry = cli.telemetry();
    let ms = runner
        .characterize_with(
            &grid_workloads(),
            &FORMATS,
            &SIZES,
            cfg,
            &mut telemetry.instruments(),
        )
        .expect("campaign completes");
    let code = telemetry.finish(copernicus::manifest_for(
        cfg,
        &grid_workloads(),
        &FORMATS,
        &SIZES,
    ));
    assert_eq!(code, 0);
    ms
}

/// The `profile.json` phase histograms written under `dir`.
fn profile_phases(dir: &std::path::Path) -> Vec<(String, Value)> {
    let profile: Value =
        serde::json::parse(&std::fs::read_to_string(dir.join("profile.json")).expect("profile"))
            .expect("profile parses");
    profile
        .get("phases")
        .and_then(Value::as_map)
        .expect("phases")
        .to_vec()
}

/// Parses every `progress.jsonl` line as JSON and checks the stream
/// invariants: `done` is monotone non-decreasing, never exceeds `total`,
/// and exactly the last line is marked `final`.
fn check_stream(path: &std::path::Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("progress.jsonl exists");
    let lines: Vec<Value> = text
        .lines()
        .map(|l| serde::json::parse(l).unwrap_or_else(|e| panic!("invalid JSON line {l:?}: {e:?}")))
        .collect();
    assert!(!lines.is_empty(), "progress stream must not be empty");
    let mut prev_done = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let done = line.get("done").and_then(Value::as_u64).expect("done");
        let total = line.get("total").and_then(Value::as_u64).expect("total");
        assert!(
            done >= prev_done,
            "cells-done went backwards at line {i}: {done} < {prev_done}"
        );
        assert!(done <= total, "done {done} exceeds total {total}");
        let is_last = i + 1 == lines.len();
        assert_eq!(
            line.get("final"),
            Some(&Value::Bool(is_last)),
            "only the last line may be final (line {i})"
        );
        for key in ["cached", "retries", "failures", "elapsed_secs"] {
            assert!(line.get(key).is_some(), "line {i} missing {key:?}");
        }
        prev_done = done;
    }
    lines
}

#[test]
fn progress_stream_is_monotone_across_fault_retries() {
    let dir = scratch_dir("retries");
    let cli = cli(&[
        "--jobs",
        "2",
        "--out",
        dir.to_str().unwrap(),
        "--max-retries",
        "2",
        "--inject-faults",
        "err:cell=3:count=2",
    ]);
    run_to_completion(&cli);

    let lines = check_stream(&dir.join("progress.jsonl"));
    let last = lines.last().expect("non-empty");
    assert_eq!(last.get("done").and_then(Value::as_u64), Some(grid_total()));
    assert_eq!(
        last.get("retries").and_then(Value::as_u64),
        Some(2),
        "both injected faults must surface as retries: {last:?}"
    );
    assert_eq!(last.get("failures").and_then(Value::as_u64), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_stream_restarts_cleanly_on_resume() {
    let dir = scratch_dir("resume");
    let dir_s = dir.to_str().unwrap();

    // Interrupted run: the injected panic aborts mid-grid. Its progress
    // stream ends without a final line being the last word on the run —
    // the reporter still seals the file when the telemetry bundle drops.
    let interrupted = cli(&[
        "--jobs",
        "2",
        "--out",
        dir_s,
        "--inject-faults",
        "panic:cell=7",
    ]);
    let cfg = ExperimentConfig::quick();
    let runner = interrupted.runner();
    let mut telemetry = interrupted.telemetry();
    let err = runner.characterize_with(
        &grid_workloads(),
        &FORMATS,
        &SIZES,
        &cfg,
        &mut telemetry.instruments(),
    );
    assert!(matches!(err, Err(CampaignError::Cells { .. })));
    drop(telemetry);
    let lines = check_stream(&dir.join("progress.jsonl"));
    let interrupted_done = lines
        .last()
        .and_then(|l| l.get("done"))
        .and_then(Value::as_u64)
        .expect("done");
    assert!(interrupted_done < grid_total());
    let checkpointed = std::fs::read_to_string(dir.join("checkpoint.jsonl"))
        .expect("checkpoint written")
        .lines()
        .count() as u64;

    // Resumed run: a fresh reporter truncates the stream, completed cells
    // re-tick instantly as cache hits, and the file is again monotone
    // from zero to a final full-grid line.
    let resume = cli(&["--jobs", "2", "--out", dir_s, "--resume"]);
    run_to_completion(&resume);
    let lines = check_stream(&dir.join("progress.jsonl"));
    let last = lines.last().expect("non-empty");
    assert_eq!(last.get("done").and_then(Value::as_u64), Some(grid_total()));
    assert_eq!(
        last.get("cached").and_then(Value::as_u64),
        Some(checkpointed),
        "resume must replay every checkpointed cell from cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_json_captures_phases_and_workers_without_touching_determinism() {
    let dir1 = scratch_dir("profile-j1");
    let dir4 = scratch_dir("profile-j4");
    let j1 = cli(&["--jobs", "1", "--out", dir1.to_str().unwrap()]);
    let j4 = cli(&["--jobs", "4", "--out", dir4.to_str().unwrap()]);
    let ms1 = run_to_completion(&j1);
    let ms4 = run_to_completion(&j4);
    assert_eq!(ms1, ms4, "worker count must not change the measurements");

    // The deterministic artifacts are byte-identical with profiling on...
    let a = std::fs::read(dir1.join("metrics.tsv")).expect("metrics.tsv");
    let b = std::fs::read(dir4.join("metrics.tsv")).expect("metrics.tsv");
    assert_eq!(a, b, "metrics.tsv diverged between --jobs 1 and --jobs 4");

    // ...while the wall-clock profile carries real data on both sides.
    for (dir, jobs) in [(&dir1, 1u64), (&dir4, 4u64)] {
        let profile: Value = serde::json::parse(
            &std::fs::read_to_string(dir.join("profile.json")).expect("profile"),
        )
        .expect("profile parses");
        let phases = profile_phases(dir);
        for phase in ["generate", "encode", "compute", "cache_lookup"] {
            let count = phases
                .iter()
                .find(|(name, _)| name == phase)
                .and_then(|(_, h)| h.get("count"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            assert!(count > 0, "--jobs {jobs}: phase {phase:?} has no samples");
        }
        let workers = profile
            .get("workers")
            .and_then(Value::as_seq)
            .expect("workers");
        assert_eq!(workers.len(), jobs as usize);
        let cells: u64 = workers
            .iter()
            .map(|w| w.get("cells").and_then(Value::as_u64).unwrap_or(0))
            .sum();
        assert_eq!(cells, grid_total(), "--jobs {jobs}: worker cell accounting");
    }
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

#[test]
fn structural_campaigns_lap_one_pattern_generation_per_matrix() {
    // Verification off: every unit measures its matrix from the matrix's
    // row pattern, which the unit's lookup generates straight from the
    // workload, once, and shares with every partition size. That
    // generation is the `generate` phase, and nothing is partitioned; the
    // measuring itself stays `encode`.
    let dir = scratch_dir("profile-structural");
    let cfg = ExperimentConfig {
        hw: copernicus_hls::HwConfig {
            verify_functional: false,
            ..copernicus_hls::HwConfig::default()
        },
        ..ExperimentConfig::quick()
    };
    run_config_to_completion(&cli(&["--jobs", "1", "--out", dir.to_str().unwrap()]), &cfg);
    let phases = profile_phases(&dir);
    let field = |phase: &str, key: &str| {
        phases
            .iter()
            .find(|(name, _)| name == phase)
            .and_then(|(_, h)| h.get(key).cloned())
            .unwrap_or_else(|| panic!("profile.json has no {phase:?} {key:?}"))
    };
    // One pattern generation per matrix, and no pattern or grid build;
    // one lookup per (workload, p) unit.
    let matrices = grid_workloads().len() as u64;
    let units = matrices * SIZES.len() as u64;
    assert_eq!(field("generate", "count").as_u64(), Some(matrices));
    assert!(phases.iter().all(|(name, _)| name != "partition"));
    assert_eq!(field("cache_lookup", "count").as_u64(), Some(units));
    assert!(field("generate", "sum_secs")
        .as_f64()
        .is_some_and(|s| s > 0.0));
    assert!(field("encode", "count").as_u64().is_some_and(|n| n > 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value of counter `name` in a `metrics.tsv` under `dir`.
fn metrics_counter(dir: &std::path::Path, name: &str) -> u64 {
    let tsv = std::fs::read_to_string(dir.join("metrics.tsv")).expect("metrics.tsv");
    tsv.lines()
        .find_map(|line| {
            let mut cols = line.split('\t');
            (cols.next() == Some(name)).then(|| cols.nth(1).expect("count column"))
        })
        .unwrap_or_else(|| panic!("metrics.tsv has no {name:?}"))
        .parse()
        .expect("counter value")
}

#[test]
fn repro_all_laps_every_generation_and_every_grid_lookup() {
    // Every figure of `repro_all`, Fig. 3's direct cache lookups included,
    // laps what it generates and looks up. The cache is single-flight and
    // no quick-preset matrix exceeds the entry cap, so each generation is
    // exactly one counted miss.
    let dir = scratch_dir("repro-all-laps");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_copernicus-bench"))
        .args([
            "repro_all",
            "--jobs",
            "1",
            "--dim",
            "64",
            "--suite-dim",
            "96",
        ])
        .arg("--out")
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run repro_all");
    assert_eq!(status.code(), Some(0));
    let phases = profile_phases(&dir);
    let count = |phase: &str| {
        phases
            .iter()
            .find(|(name, _)| name == phase)
            .and_then(|(_, h)| h.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(
        count("generate"),
        metrics_counter(&dir, "cache.matrix_misses")
    );
    assert_eq!(
        count("cache_lookup"),
        metrics_counter(&dir, "cache.grid_hits") + metrics_counter(&dir, "cache.grid_misses")
    );

    // One campaign: every dispatched cell is a distinct measurement, and
    // the only grid hits are the campaign's lookups of the grids Fig. 3
    // primed, so no cell is a memo replay.
    let measurements = serde::json::parse(
        &std::fs::read_to_string(dir.join("measurements.json")).expect("measurements"),
    )
    .expect("measurements.json parses");
    let cells = measurements
        .get("measurements")
        .and_then(Value::as_seq)
        .map_or(0, <[_]>::len) as u64;
    assert_eq!(metrics_counter(&dir, "runs"), 816);
    assert_eq!(metrics_counter(&dir, "runs"), cells);
    assert_eq!(metrics_counter(&dir, "cache.grid_hits"), 60);
    assert_eq!(metrics_counter(&dir, "cache.grid_misses"), 102);
    assert_eq!(metrics_counter(&dir, "cache.matrix_hits"), 68);
    assert_eq!(metrics_counter(&dir, "cache.matrix_misses"), 34);
    let progress = check_stream(&dir.join("progress.jsonl"));
    let last = progress.last().expect("non-empty progress stream");
    assert_eq!(last.get("total").and_then(Value::as_u64), Some(816));
    assert_eq!(last.get("cached").and_then(Value::as_u64), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
