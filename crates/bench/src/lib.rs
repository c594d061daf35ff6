//! Shared plumbing for the figure/table regeneration commands.
//!
//! The `copernicus-bench` binary dispatches its first argument through
//! [`run`] — `copernicus-bench fig05 --tsv` regenerates Fig. 5 as TSV. The
//! drivers themselves live in [`drivers`].
//!
//! Every command accepts the same flags:
//!
//! * `--paper` — paper-scale matrices (8000×8000 sweeps, 4096-row suite
//!   stand-ins). Default is the quick preset (seconds per figure).
//! * `--dim N` — override the sweep matrix dimension.
//! * `--suite-dim N` — override the suite stand-in dimension cap.
//! * `--seed N` — workload generation seed.
//! * `--codec NAME` — second-stage stream codec applied to every transfer
//!   stream (`none`, `rle`, `delta-varint`, `huffman`; default `none`).
//! * `--backend NAME` — hardware backend the encoded streams are costed on
//!   (`hls`, `cpu`, `hetero`; default `hls`, the paper's pipeline).
//! * `--tsv` — print tab-separated values instead of the aligned table.
//! * `--trace FILE` — write a Chrome trace-event JSON of every modeled
//!   pipeline run (open in Perfetto or `chrome://tracing`).
//! * `--manifest FILE` — write a reproducibility manifest (hardware
//!   config, seed, workloads, versions) as JSON.
//! * `--progress` — live progress heartbeat (cells done/total, rate, ETA,
//!   retries, failures) as an in-place stderr status line when stderr is a
//!   terminal. Silent under redirection unless `--force-progress` is given.
//! * `--force-progress` — emit the heartbeat as plain stderr lines even
//!   when stderr is not a terminal (CI logs).
//! * `--jobs N` — worker threads for the measurement grid (default: the
//!   machine's available parallelism). Output is byte-identical at every
//!   job count.
//! * `--tile-jobs N` — worker threads *inside* each modeled run, processing
//!   that run's partitions concurrently. Default: the leftover `--jobs`
//!   budget is split between grid cells and tiles automatically. Output is
//!   byte-identical at every setting.
//! * `--resume` — reload `<out>/checkpoint.jsonl` into the memo cache so an
//!   interrupted campaign continues from where it died (requires `--out`).
//!   Resumed runs emit byte-identical `measurements.json` and metrics TSVs.
//! * `--keep-going` — record failed grid cells (manifest +
//!   `measurements.json`) and keep measuring instead of aborting; the
//!   binary still exits nonzero with a failure summary.
//! * `--max-retries N` — retries granted to transient cell failures
//!   (panics, timeouts), with bounded deterministic backoff. Default 0.
//! * `--inject-faults SPEC` — deterministic fault harness for testing the
//!   recovery paths, e.g. `panic:cell=12,err:cell=40:count=2`.

use copernicus::{
    CampaignError, CampaignPolicy, CampaignRunner, CellFailure, ExperimentConfig, FaultPlan,
    Instruments,
};
use copernicus_telemetry::{
    ChromeTraceWriter, MetricsRegistry, PhaseProfiler, ProgressReporter, RunManifest, StderrMode,
};
use std::sync::Arc;

pub mod drivers;
pub mod perf;
pub mod report;
pub mod serve;
pub mod storm;

pub use drivers::{run, COMMANDS};

/// Parsed command line shared by all regeneration binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The experiment configuration assembled from the flags.
    pub cfg: ExperimentConfig,
    /// Emit TSV instead of aligned text.
    pub tsv: bool,
    /// Additionally render an ASCII chart of the figure.
    pub chart: bool,
    /// When set, also write each emitted artifact as TSV into this
    /// directory.
    pub out_dir: Option<std::path::PathBuf>,
    /// When set, write a Chrome trace of every pipeline run to this file.
    pub trace: Option<std::path::PathBuf>,
    /// When set, write the run manifest (JSON) to this file.
    pub manifest: Option<std::path::PathBuf>,
    /// Enable the live progress heartbeat on stderr (TTY-aware).
    pub progress: bool,
    /// Emit heartbeat lines even when stderr is not a terminal.
    pub force_progress: bool,
    /// Worker threads for the measurement grid.
    pub jobs: usize,
    /// Worker threads inside each modeled run (`None` = split the `--jobs`
    /// budget between cells and tiles automatically).
    pub tile_jobs: Option<usize>,
    /// Reload `<out>/checkpoint.jsonl` before running.
    pub resume: bool,
    /// Record failed cells and keep measuring instead of aborting.
    pub keep_going: bool,
    /// Retries granted to transient cell failures.
    pub max_retries: u32,
    /// Fault-injection spec (validated at parse time), for testing.
    pub inject_faults: Option<String>,
    /// Wall-clock deadline per cell attempt, in seconds (fractional
    /// allowed). Expiry fails the cell with `FailureKind::Timeout`.
    pub cell_timeout: Option<f64>,
}

impl Cli {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage string on unknown flags or malformed values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut cfg = ExperimentConfig::quick();
        let mut tsv = false;
        let mut chart = false;
        let mut out_dir = None;
        let mut trace = None;
        let mut manifest = None;
        let mut progress = false;
        let mut force_progress = false;
        let mut jobs = copernicus::default_jobs();
        let mut tile_jobs = None;
        let mut resume = false;
        let mut keep_going = false;
        let mut max_retries = 0u32;
        let mut inject_faults = None;
        let mut cell_timeout = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper" => cfg = ExperimentConfig::paper(),
                "--tsv" => tsv = true,
                "--chart" => chart = true,
                "--progress" => progress = true,
                "--force-progress" => force_progress = true,
                "--out" => {
                    let v = args.next().ok_or("--out needs a directory")?;
                    out_dir = Some(std::path::PathBuf::from(v));
                }
                "--trace" => {
                    let v = args.next().ok_or("--trace needs a file path")?;
                    trace = Some(std::path::PathBuf::from(v));
                }
                "--manifest" => {
                    let v = args.next().ok_or("--manifest needs a file path")?;
                    manifest = Some(std::path::PathBuf::from(v));
                }
                "--dim" => {
                    let v = args.next().ok_or("--dim needs a value")?;
                    cfg.sweep_dim = v.parse().map_err(|e| format!("bad --dim {v:?}: {e}"))?;
                }
                "--suite-dim" => {
                    let v = args.next().ok_or("--suite-dim needs a value")?;
                    cfg.suite_max_dim = v
                        .parse()
                        .map_err(|e| format!("bad --suite-dim {v:?}: {e}"))?;
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    cfg.seed = v.parse().map_err(|e| format!("bad --seed {v:?}: {e}"))?;
                }
                "--codec" => {
                    let v = args
                        .next()
                        .ok_or("--codec needs one of: none, rle, delta-varint, huffman")?;
                    cfg.hw.stream_codec =
                        v.parse().map_err(|e| format!("bad --codec {v:?}: {e}"))?;
                }
                "--backend" => {
                    let v = args
                        .next()
                        .ok_or("--backend needs one of: hls, cpu, hetero")?;
                    cfg.hw.backend = v.parse().map_err(|e| format!("bad --backend {v:?}: {e}"))?;
                }
                "--jobs" => {
                    let v = args.next().ok_or("--jobs needs a value")?;
                    jobs = v.parse().map_err(|e| format!("bad --jobs {v:?}: {e}"))?;
                    if jobs == 0 {
                        return Err("--jobs must be at least 1".to_string());
                    }
                }
                "--tile-jobs" => {
                    let v = args.next().ok_or("--tile-jobs needs a value")?;
                    let n: usize = v
                        .parse()
                        .map_err(|e| format!("bad --tile-jobs {v:?}: {e}"))?;
                    if n == 0 {
                        return Err("--tile-jobs must be at least 1".to_string());
                    }
                    tile_jobs = Some(n);
                }
                "--resume" => resume = true,
                "--keep-going" => keep_going = true,
                "--max-retries" => {
                    let v = args.next().ok_or("--max-retries needs a value")?;
                    max_retries = v
                        .parse()
                        .map_err(|e| format!("bad --max-retries {v:?}: {e}"))?;
                }
                "--inject-faults" => {
                    let v = args.next().ok_or(
                        "--inject-faults needs a spec like panic:cell=12,err:cell=40:count=2",
                    )?;
                    FaultPlan::parse(&v)?;
                    inject_faults = Some(v);
                }
                "--cell-timeout" => {
                    let v = args.next().ok_or("--cell-timeout needs seconds")?;
                    let secs: f64 = v
                        .parse()
                        .map_err(|e| format!("bad --cell-timeout {v:?}: {e}"))?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err("--cell-timeout must be a non-negative number".to_string());
                    }
                    cell_timeout = Some(secs);
                }
                other => {
                    return Err(format!(
                        "unknown flag {other:?}\nusage: [--paper] [--dim N] [--suite-dim N] [--seed N] [--codec none|rle|delta-varint|huffman] [--backend hls|cpu|hetero] [--jobs N] [--tile-jobs N] [--tsv] [--chart] [--out DIR] [--trace FILE] [--manifest FILE] [--progress] [--force-progress] [--resume] [--keep-going] [--max-retries N] [--inject-faults SPEC] [--cell-timeout SECS]"
                    ));
                }
            }
        }
        if resume && out_dir.is_none() {
            return Err(
                "--resume needs --out (the checkpoint lives under the output directory)"
                    .to_string(),
            );
        }
        Ok(Cli {
            cfg,
            tsv,
            chart,
            out_dir,
            trace,
            manifest,
            progress,
            force_progress,
            jobs,
            tile_jobs,
            resume,
            keep_going,
            max_retries,
            inject_faults,
            cell_timeout,
        })
    }

    /// A [`CampaignRunner`] honoring `--jobs` and the fault-tolerance
    /// flags, to share across every experiment a binary executes so
    /// overlapping grid cells are measured exactly once.
    ///
    /// With `--out` the runner checkpoints every freshly computed cell to
    /// `<out>/checkpoint.jsonl`; with `--resume` an existing checkpoint is
    /// reloaded first (otherwise a stale one is discarded so the file
    /// always describes the current run).
    pub fn runner(&self) -> CampaignRunner {
        let mut policy = CampaignPolicy {
            max_retries: self.max_retries,
            keep_going: self.keep_going,
            cell_timeout: self.cell_timeout.map(std::time::Duration::from_secs_f64),
            ..CampaignPolicy::default()
        };
        if let Some(spec) = &self.inject_faults {
            // Validated at parse time; an unparsable spec arms nothing.
            policy.faults = FaultPlan::parse(spec).ok();
        }
        let mut runner = CampaignRunner::new(self.jobs).with_policy(policy);
        if let Some(tiles) = self.tile_jobs {
            runner = runner.with_tile_jobs(tiles);
        }
        if let Some(dir) = &self.out_dir {
            let path = dir.join("checkpoint.jsonl");
            if self.resume {
                match runner.resume_from(&path) {
                    Ok(0) => {}
                    Ok(n) => eprintln!("resumed {n} cell(s) from {}", path.display()),
                    Err(e) => {
                        eprintln!("warning: could not read checkpoint {}: {e}", path.display())
                    }
                }
            } else {
                let _ = std::fs::remove_file(&path);
            }
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| runner.attach_checkpoint(&path))
            {
                eprintln!("warning: could not open checkpoint {}: {e}", path.display());
            }
        }
        runner
    }

    /// The telemetry bundle requested by the flags; see [`Telemetry`].
    pub fn telemetry(&self) -> Telemetry {
        let stderr = StderrMode::auto(self.progress, self.force_progress);
        // The JSONL stream rides on `--out` alone: machine-readable progress
        // costs nothing and CI consumes it as an artifact.
        let jsonl = self.out_dir.as_ref().map(|dir| {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: could not create {}: {e}", dir.display());
            }
            dir.join("progress.jsonl")
        });
        let reporter = (stderr != StderrMode::Off || jsonl.is_some()).then(|| {
            ProgressReporter::new(
                stderr,
                jsonl.as_deref(),
                std::time::Duration::from_millis(250),
            )
        });
        Telemetry {
            trace_path: self.trace.clone(),
            manifest_path: self.manifest.clone(),
            out_dir: self.out_dir.clone(),
            writer: ChromeTraceWriter::new(),
            metrics: MetricsRegistry::new(),
            failures: Vec::new(),
            reporter,
            profiler: Arc::new(PhaseProfiler::new()),
        }
    }

    /// Parses the process arguments, exiting with the usage message on
    /// error.
    pub fn from_env() -> Cli {
        match Cli::parse(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_quick() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.cfg, ExperimentConfig::quick());
        assert!(!cli.tsv);
    }

    #[test]
    fn paper_flag_switches_preset() {
        let cli = parse(&["--paper"]).unwrap();
        assert_eq!(cli.cfg.sweep_dim, 8000);
    }

    #[test]
    fn overrides_apply_after_preset() {
        let cli = parse(&[
            "--paper", "--dim", "1000", "--seed", "7", "--tsv", "--chart",
        ])
        .unwrap();
        assert_eq!(cli.cfg.sweep_dim, 1000);
        assert_eq!(cli.cfg.seed, 7);
        assert!(cli.tsv);
        assert!(cli.chart);
    }

    #[test]
    fn rejects_unknown_and_malformed_flags() {
        assert!(parse(&["--what"]).is_err());
        assert!(parse(&["--dim"]).is_err());
        assert!(parse(&["--dim", "abc"]).is_err());
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn codec_flag_is_parsed_and_validated() {
        use copernicus_hls::CodecKind;
        assert_eq!(parse(&[]).unwrap().cfg.hw.stream_codec, CodecKind::None);
        for (name, kind) in [
            ("none", CodecKind::None),
            ("rle", CodecKind::Rle),
            ("delta-varint", CodecKind::DeltaVarint),
            ("huffman", CodecKind::Huffman),
        ] {
            let cli = parse(&["--codec", name]).unwrap();
            assert_eq!(cli.cfg.hw.stream_codec, kind, "{name}");
        }
        assert!(parse(&["--codec"]).is_err());
        assert!(parse(&["--codec", "lzma"]).is_err());
    }

    #[test]
    fn backend_flag_is_parsed_and_validated() {
        use copernicus_hls::BackendKind;
        assert_eq!(parse(&[]).unwrap().cfg.hw.backend, BackendKind::Hls);
        for (name, kind) in [
            ("hls", BackendKind::Hls),
            ("cpu", BackendKind::Cpu),
            ("hetero", BackendKind::Hetero),
        ] {
            let cli = parse(&["--backend", name]).unwrap();
            assert_eq!(cli.cfg.hw.backend, kind, "{name}");
        }
        assert!(parse(&["--backend"]).is_err());
        assert!(parse(&["--backend", "gpu"]).is_err());
    }

    #[test]
    fn out_dir_is_parsed() {
        let cli = parse(&["--out", "/tmp/x"]).unwrap();
        assert_eq!(cli.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
    }

    #[test]
    fn telemetry_flags_are_parsed() {
        let cli = parse(&[
            "--trace",
            "/tmp/t.json",
            "--manifest",
            "/tmp/m.json",
            "--progress",
        ])
        .unwrap();
        assert_eq!(
            cli.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert_eq!(
            cli.manifest.as_deref(),
            Some(std::path::Path::new("/tmp/m.json"))
        );
        assert!(cli.progress);
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--manifest"]).is_err());
    }

    #[test]
    fn jobs_flag_is_parsed_and_validated() {
        assert_eq!(parse(&[]).unwrap().jobs, copernicus::default_jobs());
        let cli = parse(&["--jobs", "4"]).unwrap();
        assert_eq!(cli.jobs, 4);
        assert_eq!(cli.runner().jobs(), 4);
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "abc"]).is_err());
    }

    #[test]
    fn tile_jobs_flag_is_parsed_and_validated() {
        assert_eq!(parse(&[]).unwrap().tile_jobs, None);
        let cli = parse(&["--tile-jobs", "4"]).unwrap();
        assert_eq!(cli.tile_jobs, Some(4));
        assert_eq!(cli.runner().tile_jobs(), Some(4));
        assert_eq!(parse(&[]).unwrap().runner().tile_jobs(), None);
        assert!(parse(&["--tile-jobs"]).is_err());
        assert!(parse(&["--tile-jobs", "0"]).is_err());
        assert!(parse(&["--tile-jobs", "x"]).is_err());
    }

    #[test]
    fn fault_tolerance_flags_are_parsed() {
        let cli = parse(&[
            "--out",
            "/tmp/x",
            "--resume",
            "--keep-going",
            "--max-retries",
            "3",
            "--inject-faults",
            "panic:cell=12,err:cell=40:count=2",
        ])
        .unwrap();
        assert!(cli.resume);
        assert!(cli.keep_going);
        assert_eq!(cli.max_retries, 3);
        assert_eq!(
            cli.inject_faults.as_deref(),
            Some("panic:cell=12,err:cell=40:count=2")
        );
        let runner = cli.runner();
        assert!(runner.policy().keep_going);
        assert_eq!(runner.policy().max_retries, 3);
        assert!(runner.policy().faults.is_some());
    }

    #[test]
    fn fault_tolerance_flags_default_off() {
        let cli = parse(&[]).unwrap();
        assert!(!cli.resume);
        assert!(!cli.keep_going);
        assert_eq!(cli.max_retries, 0);
        assert_eq!(cli.inject_faults, None);
    }

    #[test]
    fn resume_requires_out_and_fault_specs_are_validated() {
        assert!(parse(&["--resume"]).is_err());
        assert!(parse(&["--max-retries"]).is_err());
        assert!(parse(&["--max-retries", "x"]).is_err());
        assert!(parse(&["--inject-faults"]).is_err());
        assert!(parse(&["--inject-faults", "explode:cell=1"]).is_err());
    }

    #[test]
    fn telemetry_defaults_to_no_artifacts() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.trace, None);
        assert_eq!(cli.manifest, None);
        assert!(!cli.progress);
    }

    #[test]
    fn sink_is_attached_only_when_tracing() {
        let mut quiet = parse(&[]).unwrap().telemetry();
        let instruments = quiet.instruments();
        assert!(instruments.sink.is_none());
        assert!(instruments.metrics.is_some());

        let mut traced = parse(&["--trace", "/tmp/t.json"]).unwrap().telemetry();
        assert!(traced.instruments().sink.is_some());
    }
}

/// The observability artifacts a binary was asked to produce, bundled so
/// every driver wires them identically:
///
/// ```text
/// let cli = Cli::from_env();
/// let mut telemetry = cli.telemetry();
/// let table = fig05::run_on(&cli.runner(), &cli.cfg, &mut telemetry.instruments())?;
/// telemetry.finish(copernicus::manifest_for(..));
/// ```
///
/// [`Telemetry::finish`] writes the Chrome trace (`--trace`), the run
/// manifest (`--manifest`) and — when `--out` was given — the campaign
/// metrics as `metrics.tsv`, the wall-clock phase/worker profile as
/// `profile.json`, and the final `progress.jsonl` heartbeat line. I/O
/// failures are reported on stderr but never abort the run.
#[derive(Debug)]
pub struct Telemetry {
    trace_path: Option<std::path::PathBuf>,
    manifest_path: Option<std::path::PathBuf>,
    out_dir: Option<std::path::PathBuf>,
    /// The Chrome trace accumulated across every pipeline run.
    pub writer: ChromeTraceWriter,
    /// Campaign-level counters and histograms.
    pub metrics: MetricsRegistry,
    /// Failed grid cells accumulated across every step of the run.
    pub failures: Vec<CellFailure>,
    /// The live progress stream (stderr heartbeat and/or `progress.jsonl`),
    /// when any output is active.
    reporter: Option<ProgressReporter>,
    /// Wall-clock phase/worker profiler, shared with every campaign. Always
    /// armed: recording costs a few `Instant` reads per run, and keeping it
    /// on is what lets CI assert determinism *with* profiling enabled.
    profiler: Arc<PhaseProfiler>,
}

impl Telemetry {
    /// The instruments to thread through `run_on`/`characterize_with`.
    ///
    /// The trace sink is only attached when `--trace` was given, so an
    /// untraced run keeps the zero-cost no-op path through the platform.
    pub fn instruments(&mut self) -> Instruments<'_> {
        let mut instruments = Instruments::none()
            .with_metrics(&self.metrics)
            .with_profiler(Arc::clone(&self.profiler));
        if let Some(reporter) = &self.reporter {
            instruments = instruments.with_progress(reporter);
        }
        if self.trace_path.is_some() {
            instruments = instruments.with_sink(&mut self.writer);
        }
        instruments
    }

    /// The shared wall-clock profiler (for drivers that want to render it).
    pub fn profiler(&self) -> &Arc<PhaseProfiler> {
        &self.profiler
    }

    /// The live progress reporter, when one is active.
    pub fn progress(&self) -> Option<&ProgressReporter> {
        self.reporter.as_ref()
    }

    /// Absorbs the failed cells of one campaign step into the bundle so
    /// they reach the manifest and the end-of-run summary.
    pub fn record_failures(&mut self, failures: &[CellFailure]) {
        self.failures.extend_from_slice(failures);
    }

    /// Reports a failed step on stderr and absorbs its cell failures.
    pub fn record_error(&mut self, step: &str, err: &CampaignError) {
        eprintln!("error: {step}: {err}");
        self.record_failures(err.failures());
    }

    /// Writes every requested artifact and returns the process exit code:
    /// `0` on a fully successful run, `1` when any cell failed (after
    /// printing a failure summary table to stderr). Call once, after the
    /// last run.
    #[must_use = "the exit code carries the run's failure status"]
    pub fn finish(mut self, mut manifest: RunManifest) -> i32 {
        // Stop the heartbeat first: the final progress.jsonl line lands
        // before the other artifacts are written.
        if let Some(reporter) = &mut self.reporter {
            reporter.finish();
        }
        for f in &self.failures {
            manifest.failures.push(f.to_record());
        }
        if let Some(path) = &self.trace_path {
            if let Err(e) = self.writer.save(path) {
                eprintln!("warning: could not write trace {}: {e}", path.display());
            }
        }
        if let Some(path) = &self.manifest_path {
            if let Err(e) = manifest.save(path) {
                eprintln!("warning: could not write manifest {}: {e}", path.display());
            }
        }
        if let Some(dir) = &self.out_dir {
            if !self.metrics.counter_names().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                    copernicus_telemetry::atomic_write(
                        &dir.join("metrics.tsv"),
                        self.metrics.to_tsv(),
                    )
                }) {
                    eprintln!("warning: could not write metrics.tsv: {e}");
                }
            }
            if self.profiler.has_data() {
                if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                    copernicus_telemetry::atomic_write(
                        &dir.join("profile.json"),
                        self.profiler.to_json(),
                    )
                }) {
                    eprintln!("warning: could not write profile.json: {e}");
                }
            }
        }
        if self.failures.is_empty() {
            0
        } else {
            eprintln!("\n{}", failure_summary(&self.failures));
            eprintln!("{} grid cell(s) failed", self.failures.len());
            1
        }
    }
}

/// Renders the end-of-run failure summary as an aligned table.
pub fn failure_summary(failures: &[CellFailure]) -> String {
    let mut t = copernicus::table::TextTable::new(&[
        "cell", "workload", "p", "format", "kind", "retries", "message",
    ]);
    for f in failures {
        t.row(&[
            f.cell.to_string(),
            f.workload.clone(),
            f.partition_size.to_string(),
            f.format.to_string(),
            f.kind.to_string(),
            f.retries.to_string(),
            f.message.clone(),
        ]);
    }
    t.render()
}

/// [`Telemetry::finish`] + process exit, for the tail of a binary's `main`.
pub fn finish_and_exit(telemetry: Telemetry, manifest: RunManifest) -> ! {
    std::process::exit(telemetry.finish(manifest))
}

/// Converts an aligned table produced by the figure drivers into TSV:
/// drops the header rule and collapses the 2+-space column gaps into tabs.
pub fn to_tsv(aligned: &str) -> String {
    let mut out = String::new();
    for (i, line) in aligned.lines().enumerate() {
        if i == 1 && line.chars().all(|c| c == '-') {
            continue;
        }
        let mut cells: Vec<&str> = Vec::new();
        let mut rest = line.trim_end();
        while let Some(pos) = rest.find("  ") {
            cells.push(rest[..pos].trim_end());
            rest = rest[pos..].trim_start();
        }
        if !rest.is_empty() {
            cells.push(rest);
        }
        out.push_str(&cells.join("\t"));
        out.push('\n');
    }
    out
}

/// Prints a driver's output honoring the `--tsv` flag.
pub fn emit(cli: &Cli, aligned: &str) {
    if cli.tsv {
        print!("{}", to_tsv(aligned));
    } else {
        print!("{aligned}");
    }
}

/// Like [`emit`], additionally writing the TSV form to
/// `<out_dir>/<name>.tsv` when `--out` was given. I/O failures are
/// reported on stderr but do not abort the run — the console output is the
/// primary artifact.
pub fn emit_named(cli: &Cli, name: &str, aligned: &str) {
    emit(cli, aligned);
    if let Some(dir) = &cli.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
            copernicus_telemetry::atomic_write(&dir.join(format!("{name}.tsv")), to_tsv(aligned))
        }) {
            eprintln!("warning: could not write {name}.tsv: {e}");
        }
    }
}

#[cfg(test)]
mod tsv_tests {
    use super::*;

    #[test]
    fn to_tsv_drops_rule_and_tabs_columns() {
        let aligned = "a    b\n------\n1    2\n";
        assert_eq!(to_tsv(aligned), "a\tb\n1\t2\n");
    }

    #[test]
    fn to_tsv_keeps_single_spaces_inside_cells() {
        let aligned = "name          kind\n------------------\nFreescale2    Circuit Sim. Matrix\n";
        assert_eq!(
            to_tsv(aligned),
            "name\tkind\nFreescale2\tCircuit Sim. Matrix\n"
        );
    }
}
