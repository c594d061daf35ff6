//! The `perf` command: end-to-end wall-time benchmarking of a bench
//! command (`repro_all` by default, any command via `--cmd`), a labeled
//! performance trajectory, and the CI regression gate.
//!
//! Each repetition spawns the current executable again as
//! `copernicus-bench <cmd> --jobs N` and times it end to end — exactly
//! what a user-facing invocation computes. Two things can follow a run:
//!
//! * `--record LABEL` — appends a labeled [`TrajectoryPoint`] to the
//!   trajectory file (default `BENCH_trajectory.json`), the append-only
//!   history CI regresses against. It is the one artifact `perf` writes.
//! * `--check` — compares this run's best-of-N against the most recent
//!   trajectory point with the same command, scale, job count and hardware
//!   backend, and exits nonzero
//!   when the current best is slower by more than `--threshold-pct`
//!   (default 50%, deliberately generous: shared CI runners jitter tens
//!   of percent, and the gate exists to catch order-of-magnitude
//!   regressions, not noise).
//!
//! Best-of-N is the comparison statistic because it is the least
//! noise-sensitive summary of a wall-clock sample: the minimum converges to
//! the true cost as interference only ever adds time.
//!
//! Two noise controls keep the sample honest: every measurement discards
//! `--warmup` unrecorded child runs first (default 1 — the first run pays
//! for page-cache population and binary loading that later runs do not),
//! and every sample carries its spread (`stddev_secs` and the coefficient
//! of variation `cv = stddev / mean`) so a gate verdict can be read against
//! how noisy the machine actually was. `--check` prints the noise figure
//! alongside the delta.

use serde::Value;

/// One labeled measurement in `BENCH_trajectory.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Human-chosen label for the change being measured (e.g. a PR theme).
    pub label: String,
    /// Benchmarked command (`repro_all` unless `--cmd` chose another).
    /// Points recorded before this field existed parse as `repro_all`.
    pub cmd: String,
    /// `quick` or `paper`.
    pub scale: String,
    /// Worker threads the measured child ran with.
    pub jobs: u64,
    /// Hardware backend the measured child costed on (`hls`, `cpu`,
    /// `hetero`). Points recorded before this field existed parse as `hls`
    /// — the only backend that existed then.
    pub backend: String,
    /// Repetitions in this sample.
    pub iterations: u64,
    /// Every repetition's wall seconds, in run order.
    pub runs_secs: Vec<f64>,
    /// Minimum of `runs_secs` — the gate statistic.
    pub best_secs: f64,
    /// Mean of `runs_secs`.
    pub mean_secs: f64,
    /// Population standard deviation of `runs_secs` (0 for one run).
    pub stddev_secs: f64,
    /// Coefficient of variation (`stddev_secs / mean_secs`) — the sample's
    /// noise figure. Points recorded before these fields existed recompute
    /// both from `runs_secs` on parse.
    pub cv: f64,
}

/// `(population stddev, coefficient of variation)` of a wall-time sample.
pub fn noise_stats(runs: &[f64], mean: f64) -> (f64, f64) {
    if runs.is_empty() {
        return (0.0, 0.0);
    }
    let var = runs.iter().map(|&s| (s - mean) * (s - mean)).sum::<f64>() / runs.len() as f64;
    let stddev = var.sqrt();
    let cv = if mean > 0.0 { stddev / mean } else { 0.0 };
    (stddev, cv)
}

impl TrajectoryPoint {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("label".to_string(), Value::Str(self.label.clone())),
            ("cmd".to_string(), Value::Str(self.cmd.clone())),
            ("scale".to_string(), Value::Str(self.scale.clone())),
            ("jobs".to_string(), Value::UInt(self.jobs)),
            ("backend".to_string(), Value::Str(self.backend.clone())),
            ("iterations".to_string(), Value::UInt(self.iterations)),
            (
                "runs_secs".to_string(),
                Value::Seq(self.runs_secs.iter().map(|&s| Value::Float(s)).collect()),
            ),
            ("best_secs".to_string(), Value::Float(self.best_secs)),
            ("mean_secs".to_string(), Value::Float(self.mean_secs)),
            ("stddev_secs".to_string(), Value::Float(self.stddev_secs)),
            ("cv".to_string(), Value::Float(self.cv)),
        ])
    }

    fn from_value(v: &Value) -> Option<TrajectoryPoint> {
        let runs_secs: Vec<f64> = v
            .get("runs_secs")?
            .as_seq()?
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        let mean_secs = v.get("mean_secs")?.as_f64()?;
        let (stddev_default, cv_default) = noise_stats(&runs_secs, mean_secs);
        Some(TrajectoryPoint {
            label: v.get("label")?.as_str()?.to_string(),
            // Points predate the field: every pre-codec trajectory entry
            // measured `repro_all`, so that is the backward-compatible read.
            cmd: v
                .get("cmd")
                .and_then(Value::as_str)
                .unwrap_or("repro_all")
                .to_string(),
            scale: v.get("scale")?.as_str()?.to_string(),
            jobs: v.get("jobs")?.as_u64()?,
            // Same backward-compatible read: pre-backend points were all
            // costed on the HLS pipeline.
            backend: v
                .get("backend")
                .and_then(Value::as_str)
                .unwrap_or("hls")
                .to_string(),
            iterations: v.get("iterations")?.as_u64()?,
            runs_secs,
            best_secs: v.get("best_secs")?.as_f64()?,
            mean_secs,
            stddev_secs: v
                .get("stddev_secs")
                .and_then(Value::as_f64)
                .unwrap_or(stddev_default),
            cv: v.get("cv").and_then(Value::as_f64).unwrap_or(cv_default),
        })
    }
}

/// Parses a trajectory document (`{"benchmark": ..., "points": [...]}`).
/// Malformed points are skipped — the trajectory is observability, not a
/// correctness artifact.
pub fn parse_trajectory(text: &str) -> Vec<TrajectoryPoint> {
    let Ok(doc) = serde::json::parse(text) else {
        return Vec::new();
    };
    doc.get("points")
        .and_then(Value::as_seq)
        .map(|points| {
            points
                .iter()
                .filter_map(TrajectoryPoint::from_value)
                .collect()
        })
        .unwrap_or_default()
}

/// Renders the trajectory document for `points`.
pub fn render_trajectory(points: &[TrajectoryPoint]) -> String {
    let doc = Value::Map(vec![
        ("benchmark".to_string(), Value::Str("repro_all".to_string())),
        (
            "points".to_string(),
            Value::Seq(points.iter().map(TrajectoryPoint::to_value).collect()),
        ),
    ]);
    format!("{}\n", serde::json::to_string_pretty(&doc))
}

/// The most recent trajectory point comparable to a `(cmd, scale, jobs,
/// backend)` run. Points for other benchmarked commands — or the same
/// command costed on another hardware backend — never gate each other: a
/// CPU-model measurement regressing against an HLS baseline would compare
/// different simulations.
pub fn find_baseline<'a>(
    points: &'a [TrajectoryPoint],
    cmd: &str,
    scale: &str,
    jobs: u64,
    backend: &str,
) -> Option<&'a TrajectoryPoint> {
    points
        .iter()
        .rev()
        .find(|p| p.cmd == cmd && p.scale == scale && p.jobs == jobs && p.backend == backend)
}

/// The regression gate: compares a current best-of-N against a baseline
/// best-of-N under a percentage noise threshold.
///
/// Returns the signed delta in percent (positive = slower than baseline).
///
/// # Errors
///
/// A human-readable failure message when `current_best` exceeds
/// `baseline_best` by more than `threshold_pct` percent (or when the
/// baseline is non-positive, which would make the comparison meaningless).
pub fn regression_gate(
    baseline_best: f64,
    current_best: f64,
    threshold_pct: f64,
) -> Result<f64, String> {
    if baseline_best <= 0.0 || baseline_best.is_nan() {
        return Err(format!(
            "regression gate: baseline best {baseline_best}s is not positive"
        ));
    }
    let delta_pct = (current_best - baseline_best) / baseline_best * 100.0;
    if delta_pct > threshold_pct {
        Err(format!(
            "regression gate FAILED: best {current_best:.3}s is {delta_pct:+.1}% vs baseline {baseline_best:.3}s (threshold {threshold_pct:.0}%)"
        ))
    } else {
        Ok(delta_pct)
    }
}

/// `perf` — see the [module docs](self).
///
/// Flags: `--quick` (default) / `--paper` pick the scale; `--cmd NAME`
/// the bench command to measure (default `repro_all`); `--backend NAME`
/// the hardware backend the child costs on (default `hls`); `--iters N`
/// repetitions (default 3, best-of is reported); `--warmup N` unrecorded
/// warmup runs before the sample (default 1); `--jobs N` worker threads
/// for each child (default 1); `--trajectory FILE` the trajectory path
/// (default `BENCH_trajectory.json`); `--record LABEL` appends this run to
/// the trajectory; `--check` gates against the trajectory;
/// `--threshold-pct X` the gate's noise allowance (default 50).
pub fn perf(args: Vec<String>) -> i32 {
    let mut paper = false;
    let mut cmd = "repro_all".to_string();
    let mut backend = copernicus_hls::BackendKind::Hls;
    let mut iters = 3usize;
    let mut warmup = 1usize;
    let mut jobs = 1usize;
    let mut trajectory_path = std::path::PathBuf::from("BENCH_trajectory.json");
    let mut record: Option<String> = None;
    let mut check = false;
    let mut threshold_pct = 50.0f64;
    let usage = "usage: perf [--quick|--paper] [--cmd NAME] [--backend hls|cpu|hetero] [--iters N] [--warmup N] [--jobs N] [--trajectory FILE] [--record LABEL] [--check] [--threshold-pct X]";
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value\n{usage}"));
        let parsed = match arg.as_str() {
            "--quick" => {
                paper = false;
                Ok(())
            }
            "--paper" => {
                paper = true;
                Ok(())
            }
            "--cmd" => value("--cmd").and_then(|v| {
                if v.is_empty() {
                    return Err("--cmd needs a non-empty command name".to_string());
                }
                cmd = v;
                Ok(())
            }),
            "--backend" => value("--backend").and_then(|v| {
                backend = v.parse().map_err(|e| format!("bad --backend {v:?}: {e}"))?;
                Ok(())
            }),
            "--iters" => value("--iters").and_then(|v| {
                iters = v.parse().map_err(|e| format!("bad --iters {v:?}: {e}"))?;
                if iters == 0 {
                    return Err("--iters must be at least 1".to_string());
                }
                Ok(())
            }),
            "--warmup" => value("--warmup").and_then(|v| {
                warmup = v.parse().map_err(|e| format!("bad --warmup {v:?}: {e}"))?;
                Ok(())
            }),
            "--jobs" => value("--jobs").and_then(|v| {
                jobs = v.parse().map_err(|e| format!("bad --jobs {v:?}: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                Ok(())
            }),
            "--trajectory" => {
                value("--trajectory").map(|v| trajectory_path = std::path::PathBuf::from(v))
            }
            "--record" => value("--record").map(|v| record = Some(v)),
            "--check" => {
                check = true;
                Ok(())
            }
            "--threshold-pct" => value("--threshold-pct").and_then(|v| {
                threshold_pct = v
                    .parse()
                    .map_err(|e| format!("bad --threshold-pct {v:?}: {e}"))?;
                if threshold_pct <= 0.0 {
                    return Err("--threshold-pct must be positive".to_string());
                }
                Ok(())
            }),
            other => Err(format!("unknown flag {other:?}\n{usage}")),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}");
            return 2;
        }
    }

    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot locate the current executable: {e}");
            return 1;
        }
    };
    let scale = if paper { "paper" } else { "quick" };
    let backend = backend.to_string();
    let mut child_args: Vec<String> = vec![cmd.clone(), "--jobs".into(), jobs.to_string()];
    if paper {
        child_args.push("--paper".into());
    }
    // Only non-default backends reach the child's command line, so
    // commands that parse their own flags (and legacy invocations) keep
    // their exact argument vector when measured on the HLS baseline.
    if backend != "hls" {
        child_args.push("--backend".into());
        child_args.push(backend.clone());
    }
    let run_child = |label: String| -> Result<f64, i32> {
        let started = std::time::Instant::now();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perf: {cmd} child exited with {s}");
                return Err(1);
            }
            Err(e) => {
                eprintln!("perf: could not spawn {}: {e}", exe.display());
                return Err(1);
            }
        }
        let secs = started.elapsed().as_secs_f64();
        eprintln!("[perf] {scale} {cmd} [{backend}] --jobs {jobs}, {label}: {secs:.3}s");
        Ok(secs)
    };
    // Unrecorded warmup runs absorb one-time costs (page cache, binary
    // loading) that would otherwise inflate the first measured repetition.
    for i in 0..warmup {
        if let Err(code) = run_child(format!("warmup {}/{warmup} (discarded)", i + 1)) {
            return code;
        }
    }
    let mut runs: Vec<f64> = Vec::with_capacity(iters);
    for i in 0..iters {
        match run_child(format!("run {}/{iters}", i + 1)) {
            Ok(secs) => runs.push(secs),
            Err(code) => return code,
        }
    }
    let best = runs.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = runs.iter().sum::<f64>() / runs.len() as f64;
    let (stddev, cv) = noise_stats(&runs, mean);

    println!(
        "{scale} {cmd} [{backend}] --jobs {jobs}: best {best:.3}s / mean {mean:.3}s ± {stddev:.3}s (cv {:.1}%) over {iters} run(s)",
        cv * 100.0
    );

    let points = match std::fs::read_to_string(&trajectory_path) {
        Ok(text) => parse_trajectory(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            eprintln!("perf: could not read {}: {e}", trajectory_path.display());
            return 1;
        }
    };

    if check {
        match find_baseline(&points, &cmd, scale, jobs as u64, &backend) {
            Some(point) => match regression_gate(point.best_secs, best, threshold_pct) {
                Ok(delta) => println!(
                    "regression gate OK: best {best:.3}s is {delta:+.1}% vs \"{}\" ({:.3}s, threshold {threshold_pct:.0}%; sample noise cv {:.1}%)",
                    point.label,
                    point.best_secs,
                    cv * 100.0
                ),
                Err(msg) => {
                    eprintln!("perf: {msg} (vs trajectory point \"{}\")", point.label);
                    return 1;
                }
            },
            // No comparable history: the first measurement of a new
            // command/scale/jobs combination is its own baseline, so the
            // gate passes vacuously rather than erroring. (Failing here
            // made `--check` unusable until someone hand-recorded a point
            // for every new combination.)
            None => println!(
                "regression gate SKIPPED: no prior {cmd}/{scale}/jobs={jobs}/{backend} point in {} — nothing to compare against; record one with --record LABEL",
                trajectory_path.display()
            ),
        }
    }

    if let Some(label) = record {
        let mut points = points;
        points.push(TrajectoryPoint {
            label,
            cmd,
            scale: scale.to_string(),
            jobs: jobs as u64,
            backend,
            iterations: iters as u64,
            runs_secs: runs,
            best_secs: best,
            mean_secs: mean,
            stddev_secs: stddev,
            cv,
        });
        if let Err(e) =
            copernicus_telemetry::atomic_write(&trajectory_path, render_trajectory(&points))
        {
            eprintln!("perf: could not write {}: {e}", trajectory_path.display());
            return 1;
        }
        println!(
            "recorded trajectory point {} in {}",
            points.len(),
            trajectory_path.display()
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(label: &str, scale: &str, jobs: u64, best: f64) -> TrajectoryPoint {
        let runs = vec![best + 0.02, best, best + 0.05];
        let mean = best + 0.02;
        let (stddev_secs, cv) = noise_stats(&runs, mean);
        TrajectoryPoint {
            label: label.to_string(),
            cmd: "repro_all".to_string(),
            scale: scale.to_string(),
            jobs,
            backend: "hls".to_string(),
            iterations: 3,
            runs_secs: runs,
            best_secs: best,
            mean_secs: mean,
            stddev_secs,
            cv,
        }
    }

    #[test]
    fn trajectory_round_trips_through_json() {
        let points = vec![point("a", "quick", 1, 0.5), point("b", "paper", 4, 30.0)];
        let parsed = parse_trajectory(&render_trajectory(&points));
        assert_eq!(parsed, points);
    }

    #[test]
    fn noise_stats_measure_spread() {
        let (s0, c0) = noise_stats(&[], 0.0);
        assert_eq!((s0, c0), (0.0, 0.0));
        let (s1, c1) = noise_stats(&[2.0], 2.0);
        assert_eq!((s1, c1), (0.0, 0.0));
        // Two runs at 1 and 3: mean 2, population stddev 1, cv 0.5.
        let (s2, c2) = noise_stats(&[1.0, 3.0], 2.0);
        assert!((s2 - 1.0).abs() < 1e-12);
        assert!((c2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn legacy_points_without_noise_fields_recompute_them_on_parse() {
        // A pre-noise-fields trajectory entry: stddev/cv must be derived
        // from runs_secs, not defaulted to zero.
        let text = "{\"points\": [{\"label\": \"old\", \"scale\": \"quick\", \"jobs\": 1, \"iterations\": 2, \"runs_secs\": [1.0, 3.0], \"best_secs\": 1.0, \"mean_secs\": 2.0}]}";
        let parsed = parse_trajectory(text);
        assert_eq!(parsed.len(), 1);
        assert!((parsed[0].stddev_secs - 1.0).abs() < 1e-12);
        assert!((parsed[0].cv - 0.5).abs() < 1e-12);
        // It also predates the backend field: an HLS measurement.
        assert_eq!(parsed[0].backend, "hls");
        // And the derived fields round-trip exactly from then on.
        let rendered = render_trajectory(&parsed);
        assert!(rendered.contains("stddev_secs"));
        assert_eq!(parse_trajectory(&rendered), parsed);
    }

    #[test]
    fn malformed_trajectories_parse_as_empty() {
        assert!(parse_trajectory("").is_empty());
        assert!(parse_trajectory("not json").is_empty());
        assert!(parse_trajectory("{\"points\": 7}").is_empty());
        // A valid wrapper with one broken point keeps the good ones. The
        // surviving point has no "cmd" field (it predates the field) and
        // must parse as a repro_all measurement.
        let text = "{\"points\": [{\"nope\": 1}, {\"label\": \"ok\", \"scale\": \"quick\", \"jobs\": 1, \"iterations\": 1, \"runs_secs\": [1.0], \"best_secs\": 1.0, \"mean_secs\": 1.0}]}";
        let parsed = parse_trajectory(text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].cmd, "repro_all");
        assert_eq!(parsed[0].backend, "hls");
    }

    #[test]
    fn baseline_is_the_latest_matching_point() {
        let mut compound = point("sweep", "quick", 1, 0.3);
        compound.cmd = "compound".to_string();
        let mut cpu = point("cpu-model", "quick", 1, 0.4);
        cpu.backend = "cpu".to_string();
        let points = vec![
            point("old", "quick", 1, 1.0),
            point("paper", "paper", 1, 60.0),
            point("new", "quick", 1, 0.5),
            point("parallel", "quick", 4, 0.2),
            compound,
            cpu,
        ];
        let baseline = find_baseline(&points, "repro_all", "quick", 1, "hls").unwrap();
        assert_eq!(baseline.label, "new");
        assert_eq!(
            find_baseline(&points, "repro_all", "quick", 4, "hls")
                .unwrap()
                .label,
            "parallel"
        );
        // Different commands never gate each other.
        assert_eq!(
            find_baseline(&points, "compound", "quick", 1, "hls")
                .unwrap()
                .label,
            "sweep"
        );
        // Neither do different hardware backends: the cpu point is the
        // cpu baseline, and it never shadows the hls one.
        assert_eq!(
            find_baseline(&points, "repro_all", "quick", 1, "cpu")
                .unwrap()
                .label,
            "cpu-model"
        );
        assert!(find_baseline(&points, "repro_all", "quick", 1, "hetero").is_none());
        assert!(find_baseline(&points, "repro_all", "paper", 8, "hls").is_none());
        assert!(find_baseline(&points, "compound", "paper", 1, "hls").is_none());
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_beyond_it() {
        // 20% slower under a 50% threshold: pass, delta reported.
        let delta = regression_gate(1.0, 1.2, 50.0).unwrap();
        assert!((delta - 20.0).abs() < 1e-9);
        // Faster than baseline: pass with negative delta.
        assert!(regression_gate(1.0, 0.7, 50.0).unwrap() < 0.0);
        // An injected 2x regression trips a 50% gate.
        let err = regression_gate(1.0, 2.0, 50.0).unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        assert!(err.contains("+100.0%"), "{err}");
        // Degenerate baselines are an error, not a pass.
        assert!(regression_gate(0.0, 1.0, 50.0).is_err());
    }
}
