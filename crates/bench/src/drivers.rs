//! One driver function per regeneration command, behind a single
//! dispatcher.
//!
//! The flag parsing and telemetry boilerplate every command shares lives
//! here: the multi-call `copernicus-bench` binary dispatches its first
//! argument through [`run`].
//!
//! Four commands parse their own flags instead of [`Cli`] and live in
//! sibling modules: [`crate::perf`] (the hot-path benchmark harness and
//! trajectory regression gate), [`crate::report`] (the offline run-dir
//! summarizer), [`crate::serve`] (the characterization daemon) and
//! [`crate::storm`] (its load generator). All are dispatched here before
//! `Cli::parse`.

use crate::{emit, emit_named, Cli};
use copernicus::experiments as ex;
use copernicus::experiments::Sweep;
use copernicus::plot::{BarChart, ScatterPlot};
use copernicus::table::{eng, f3, TextTable};
use copernicus::{CampaignError, CampaignRunner, Instruments, Measurement};
use copernicus_hls::{EncodeScratch, HwConfig, RunRequest, Session, TileStats};
use copernicus_telemetry::RunManifest;
use copernicus_workloads::Workload;
use sparsemat::{Coo, FormatKind, Matrix, PartitionGrid};

/// Every command [`run`] dispatches, in `--help` order.
pub const COMMANDS: &[&str] = &[
    "repro_all",
    "table1",
    "table2",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "partition_sweep",
    "compound",
    "backend_split",
    "ablation",
    "scaling",
    "explain",
    "perf",
    "report",
    "serve",
    "storm",
];

/// Runs one regeneration command and returns the process exit code.
///
/// `cmd` is matched with `-`/`_` treated as equivalent.
pub fn run(cmd: &str, args: Vec<String>) -> i32 {
    let cmd = cmd.replace('-', "_");
    if cmd == "perf" {
        return crate::perf::perf(args);
    }
    if cmd == "report" {
        return crate::report::report(args);
    }
    if cmd == "serve" {
        return crate::serve::serve(args);
    }
    if cmd == "storm" {
        return crate::storm::storm(args);
    }
    let cli = match Cli::parse(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    // A figure command: the figure's name, sweep, row view and chart.
    macro_rules! figure {
        ($fig:ident) => {
            figure!($fig, |_| {})
        };
        ($fig:ident, $chart:expr) => {
            figure(
                &cli,
                stringify!($fig),
                ex::$fig::sweep(&cli.cfg),
                ex::$fig::rows,
                ex::$fig::render,
                $chart,
            )
        };
    }
    match cmd.as_str() {
        "repro_all" => repro_all(&cli),
        "table1" => {
            emit_named(&cli, "table1", &ex::table1::render());
            0
        }
        "table2" => {
            emit_named(
                &cli,
                "table2",
                &ex::table2::render(&ex::table2::run(&[8, 16, 32])),
            );
            0
        }
        "fig03" => match ex::fig03::run(&cli.cfg) {
            Ok(rows) => {
                emit_named(&cli, "fig03", &ex::fig03::render(&rows));
                0
            }
            Err(e) => {
                eprintln!("fig03 failed: {e}");
                1
            }
        },
        "fig04" => figure!(fig04),
        "fig05" => figure!(fig05, |rows: &[ex::fig05::DensityRow]| {
            let mut densities: Vec<f64> = rows.iter().map(|r| r.density).collect();
            densities.dedup();
            for d in densities {
                let mut c =
                    BarChart::new(&format!("sigma at density {d} (| = dense baseline)"), 48);
                c.reference(1.0);
                for r in rows.iter().filter(|r| r.density == d) {
                    c.bar(r.format.label(), r.sigma);
                }
                println!("\n{}", c.render());
            }
        }),
        "fig06" => figure!(fig06, |rows: &[ex::fig06::WidthRow]| {
            let mut widths: Vec<usize> = rows.iter().map(|r| r.width).collect();
            widths.dedup();
            for w in widths {
                let mut c =
                    BarChart::new(&format!("sigma at band width {w} (| = dense baseline)"), 48);
                c.reference(1.0);
                for r in rows.iter().filter(|r| r.width == w) {
                    c.bar(r.format.label(), r.sigma);
                }
                println!("\n{}", c.render());
            }
        }),
        "fig07" => figure!(fig07),
        "fig08" => figure!(fig08, |rows: &[ex::fig08::Fig08Row]| {
            let mut classes: Vec<_> = rows.iter().map(|r| r.class).collect();
            classes.dedup();
            for class in classes {
                let mut p = ScatterPlot::new(
                    &format!("{class}: memory vs compute cycles (log-log)"),
                    64,
                    20,
                    true,
                );
                for r in rows.iter().filter(|r| r.class == class) {
                    let glyph = r.format.label().chars().next().unwrap_or('?');
                    p.point(r.mem_cycles as f64, r.compute_cycles as f64, glyph);
                }
                println!("\n{}", p.render());
            }
        }),
        "fig09" => figure!(fig09),
        "fig10" => figure!(fig10, |rows: &[ex::fig10::DensityRow]| {
            let mut densities: Vec<f64> = rows.iter().map(|r| r.density).collect();
            densities.dedup();
            for d in densities {
                let mut c = BarChart::new(&format!("bandwidth utilization at density {d}"), 48);
                for r in rows.iter().filter(|r| r.density == d) {
                    c.bar(r.format.label(), r.bandwidth_utilization);
                }
                println!("\n{}", c.render());
            }
        }),
        "fig11" => figure!(fig11),
        "fig12" => figure!(fig12),
        "fig13" => {
            emit_named(
                &cli,
                "fig13",
                &ex::fig13::render(&ex::fig13::run(&[8, 16, 32])),
            );
            0
        }
        "fig14" => figure!(fig14),
        "partition_sweep" => figure(
            &cli,
            "partition_sweep",
            ex::ext_partition_sweep::sweep(&cli.cfg),
            ex::ext_partition_sweep::rows,
            ex::ext_partition_sweep::render,
            |_| {},
        ),
        "compound" => command(
            &cli,
            "compound",
            ex::ext_compound_scheme::manifest(&cli.cfg),
            |runner, instruments| {
                ex::ext_compound_scheme::run_per_codec(runner, &cli.cfg, instruments)
            },
            ex::ext_compound_scheme::render,
            |_| {},
        ),
        "backend_split" => command(
            &cli,
            "backend_split",
            ex::ext_backend_split::manifest(&cli.cfg),
            |runner, instruments| {
                ex::ext_backend_split::run_per_backend(runner, &cli.cfg, instruments)
            },
            ex::ext_backend_split::render,
            |_| {},
        ),
        // These write no files (`ablation` prints several tables, which no
        // one `<out>/<name>.tsv` holds), so an `--out` would go unheeded.
        "ablation" | "scaling" | "explain" if cli.out_dir.is_some() => {
            eprintln!("{cmd} writes no files and takes no --out");
            2
        }
        "ablation" => ablation(&cli),
        "scaling" => scaling(&cli),
        "explain" => explain(&cli),
        other => {
            eprintln!(
                "unknown command {other:?}\nusage: copernicus-bench <command> [flags]\ncommands: {}",
                COMMANDS.join(" ")
            );
            2
        }
    }
}

/// The common shape of the per-figure commands and `partition_sweep`: run
/// the sweep on a fresh runner and read the rows off it with `view`.
fn figure<R>(
    cli: &Cli,
    name: &str,
    sweep: Sweep,
    view: impl FnOnce(&Sweep, &[Measurement]) -> Vec<R>,
    render: impl FnOnce(&[R]) -> String,
    chart: impl FnOnce(&[R]),
) -> i32 {
    let manifest = sweep.manifest(&cli.cfg, &format!("figure={name}"));
    let rows = |runner: &CampaignRunner, instruments: &mut Instruments<'_>| {
        Ok(view(&sweep, &sweep.run_on(runner, &cli.cfg, instruments)?))
    };
    command(cli, name, manifest, rows, render, chart)
}

/// The common shape of the campaign commands: `rows` runs the experiment on
/// a fresh runner; emit the table (also to `<out>/<name>.tsv`), optionally
/// chart it, and write the telemetry.
fn command<R>(
    cli: &Cli,
    name: &str,
    manifest: RunManifest,
    rows: impl FnOnce(&CampaignRunner, &mut Instruments<'_>) -> Result<Vec<R>, CampaignError>,
    render: impl FnOnce(&[R]) -> String,
    chart: impl FnOnce(&[R]),
) -> i32 {
    let mut telemetry = cli.telemetry();
    match rows(&cli.runner(), &mut telemetry.instruments()) {
        Ok(rows) => {
            emit_named(cli, name, &render(&rows));
            if cli.chart {
                chart(&rows);
            }
        }
        Err(e) => telemetry.record_error(name, &e),
    }
    telemetry.finish(manifest)
}

/// `repro_all` — regenerates every table and figure of the paper in one
/// run, printing each with a heading. After Table 1 and Fig 3 it runs one
/// campaign, the shared Fig 7 sweep, and reads every figure off it.
///
/// Fault tolerance: under `--keep-going` a p=16 figure that lost a cell is
/// named on stderr and skipped, and the aggregate figures cover the
/// surviving cells; otherwise the first failure ends the run. Either way
/// failed cells reach the manifest and the process exits nonzero.
fn repro_all(cli: &Cli) -> i32 {
    fn section(title: &str) {
        println!("\n=== {title} ===");
    }

    let mut telemetry = cli.telemetry();
    let cfg = &cli.cfg;
    // Every cell of every campaign figure is a cell of this sweep; it also
    // names the run in the manifest.
    let shared = ex::fig07::sweep(cfg);
    let manifest = || shared.manifest(cfg, "binary=repro_all (trace covers all figures)");
    // One runner for the whole reproduction, so its workload cache
    // generates and tiles each matrix once for Fig 3 and the campaign.
    let runner = cli.runner();
    let started = std::time::Instant::now();

    section("Table 1: SuiteSparse workloads");
    emit_named(cli, "table1", &ex::table1::render());

    section("Fig 3: partition density & locality");
    match ex::fig03::run_on(&runner, cfg, &mut telemetry.instruments()) {
        Ok(rows) => emit_named(cli, "fig03", &ex::fig03::render(&rows)),
        Err(e) => {
            telemetry.record_error("fig03", &e.into());
            if !cli.keep_going {
                return telemetry.finish(manifest());
            }
        }
    }

    // Under --keep-going the campaign finishes the grid and reports its
    // failed cells beside the surviving ones, which the figures below read.
    eprintln!("[repro_all] running the shared full campaign ...");
    let outcome = match runner.run_campaign(
        &shared.workloads,
        &shared.formats,
        &shared.partition_sizes,
        cfg,
        &mut telemetry.instruments(),
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            telemetry.record_error("campaign", &e);
            return telemetry.finish(manifest());
        }
    };
    telemetry.record_failures(&outcome.failures);
    let campaign = outcome.measurements;

    if let Some(dir) = &cli.out_dir {
        // One object holding both halves of the outcome, so a clean run and
        // an interrupted-then-resumed run produce byte-identical files.
        let doc = serde::Value::Map(vec![
            (
                "measurements".to_string(),
                serde::Serialize::serialize(&campaign),
            ),
            (
                "failures".to_string(),
                serde::Serialize::serialize(&telemetry.failures),
            ),
        ]);
        let json = serde::json::to_string_pretty(&doc);
        // Atomic (temp + rename): a kill mid-write must never leave a torn
        // measurements.json for a later resume or report to choke on.
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| copernicus_telemetry::atomic_write(&dir.join("measurements.json"), json))
        {
            eprintln!("warning: could not write measurements.json: {e}");
        }
    }

    // Reads one figure off the campaign. A figure of the shared sweep
    // aggregates whatever cells it holds; a p=16 figure reads its own
    // sweep's cells out of it and is skipped when one is missing.
    macro_rules! view {
        ($fig:ident, shared) => {
            let rows = ex::$fig::rows(&shared, &campaign);
            emit_named(cli, stringify!($fig), &ex::$fig::render(&rows));
        };
        ($fig:ident) => {
            let sweep = ex::$fig::sweep(cfg);
            match sweep.cells_in(&campaign) {
                Ok(ms) => {
                    let rows = ex::$fig::rows(&sweep, &ms);
                    emit_named(cli, stringify!($fig), &ex::$fig::render(&rows));
                }
                Err(missing) => eprintln!("[repro_all] skipping {}: {missing}", stringify!($fig)),
            }
        };
    }
    section("Fig 4: decompression overhead (SuiteSparse, p=16)");
    view!(fig04);
    section("Fig 5: decompression overhead vs density (random, p=16)");
    view!(fig05);
    section("Fig 6: decompression overhead vs band width (p=16)");
    view!(fig06);
    section("Fig 10: bandwidth utilization vs density (p=16)");
    view!(fig10);
    section("Fig 11: bandwidth utilization vs band width (p=16)");
    view!(fig11);
    section("Fig 7: mean decompression overhead per class and partition size");
    view!(fig07, shared);
    section("Fig 8: memory vs compute latency (balance ratio)");
    view!(fig08, shared);
    section("Fig 9: throughput vs latency");
    view!(fig09, shared);
    section("Fig 12: mean bandwidth utilization per class and partition size");
    view!(fig12, shared);

    section("Table 2: FPGA resources & dynamic power");
    emit_named(
        cli,
        "table2",
        &ex::table2::render(&ex::table2::run(&[8, 16, 32])),
    );

    section("Fig 13: dynamic power breakdown");
    emit_named(
        cli,
        "fig13",
        &ex::fig13::render(&ex::fig13::run(&[8, 16, 32])),
    );

    section("Fig 14: normalized six-metric summary");
    view!(fig14, shared);

    section("Section 8 insights, verified against this campaign");
    emit_named(
        cli,
        "insights",
        &copernicus::insights::render(&copernicus::insights::verify(&campaign)),
    );

    eprintln!(
        "[repro_all] done in {:.2}s ({} jobs, {} resumed)",
        started.elapsed().as_secs_f64(),
        runner.jobs(),
        runner.resumed_cells(),
    );
    // One manifest covers the whole reproduction; the trace, metrics and
    // failure records accumulate across Fig 3 and the campaign.
    telemetry.finish(manifest())
}

/// `ablation` — tables over the platform's design knobs: how σ, balance
/// and throughput respond to BRAM latency, memory bus width, ELL engine
/// width, BCSR block size, and partition sizes beyond the paper's 8/16/32.
fn ablation(cli: &Cli) -> i32 {
    fn run_table(
        title: &str,
        cli: &Cli,
        matrix: &Coo<f32>,
        configs: &[(String, HwConfig)],
        formats: &[FormatKind],
    ) {
        println!("\n=== {title} ===");
        let mut t = TextTable::new(&["variant", "format", "sigma", "balance", "throughput"]);
        for (label, hw) in configs {
            let mut session = Session::new(hw.clone()).expect("valid config");
            for &format in formats {
                let r = session
                    .run(RunRequest::matrix(matrix, format))
                    .expect("run")
                    .report;
                t.row(&[
                    label.clone(),
                    format.to_string(),
                    f3(r.sigma()),
                    f3(r.balance_ratio),
                    format!("{}B/s", eng(r.throughput_bytes_per_sec())),
                ]);
            }
        }
        emit(cli, &t.render());
    }

    fn base() -> HwConfig {
        let mut hw = HwConfig::with_partition_size(16);
        hw.verify_functional = false;
        hw
    }

    let dim = cli.cfg.sweep_dim.max(192);
    let random = Workload::Random {
        n: dim,
        density: 0.05,
    }
    .generate(0, cli.cfg.seed);
    let band = Workload::Band { n: dim, width: 16 }.generate(0, cli.cfg.seed);

    // BRAM read latency: CSR pays one offsets read per row, LIL one per
    // emitted row — both should track L_bram; COO barely moves.
    let configs: Vec<(String, HwConfig)> = [1u64, 2, 4]
        .iter()
        .map(|&l| {
            let mut hw = base();
            hw.bram_read_latency = l;
            (format!("L_bram={l}"), hw)
        })
        .collect();
    run_table(
        "BRAM read latency (random d=0.05)",
        cli,
        &random,
        &configs,
        &[FormatKind::Csr, FormatKind::Lil, FormatKind::Coo],
    );

    // Memory bus width: balance ratios scale inversely; compute-bound
    // formats barely change total time.
    let configs: Vec<(String, HwConfig)> = [4usize, 8, 16]
        .iter()
        .map(|&b| {
            let mut hw = base();
            hw.bus_bytes_per_cycle = b;
            (format!("bus={b}B/cyc"), hw)
        })
        .collect();
    run_table(
        "Memory bus width (random d=0.05)",
        cli,
        &random,
        &configs,
        &[FormatKind::Dense, FormatKind::Coo, FormatKind::Csc],
    );

    // ELL engine width: the paper fixes 6; narrower engines shorten the
    // adder tree (lower T_dot), wider ones deepen it.
    let configs: Vec<(String, HwConfig)> = [4usize, 6, 8, 12]
        .iter()
        .map(|&w| {
            let mut hw = base();
            hw.ell_hw_width = w;
            (format!("ell_w={w}"), hw)
        })
        .collect();
    run_table(
        "ELL engine width (band w=16)",
        cli,
        &band,
        &configs,
        &[FormatKind::Ell],
    );

    // BCSR block size: the paper fixes 4x4; bigger blocks transfer more
    // intra-block zeros but touch fewer offsets.
    let configs: Vec<(String, HwConfig)> = [2usize, 4, 8]
        .iter()
        .map(|&blk| {
            let mut hw = base();
            hw.bcsr_block = blk;
            (format!("block={blk}x{blk}"), hw)
        })
        .collect();
    run_table(
        "BCSR block size (random d=0.05)",
        cli,
        &random,
        &configs,
        &[FormatKind::Bcsr],
    );

    // Partition sizes beyond the paper.
    let configs: Vec<(String, HwConfig)> = [8usize, 16, 32, 64]
        .iter()
        .map(|&p| {
            let mut hw = base();
            hw.partition_size = p;
            (format!("p={p}"), hw)
        })
        .collect();
    run_table(
        "Partition size extrapolation (band w=16)",
        cli,
        &band,
        &configs,
        &[FormatKind::Dense, FormatKind::Ell, FormatKind::Dia],
    );
    0
}

/// `scaling` — coarse-grained parallelism sweep (§5.1: "Instances of this
/// architecture can be aggregated"): how each format scales when 1–16
/// compute instances share one memory channel — the quantified version of
/// §8's "the memory bandwidth is not always the bottleneck".
fn scaling(cli: &Cli) -> i32 {
    let dim = cli.cfg.sweep_dim.max(256);
    let matrix = Workload::Random {
        n: dim,
        density: 0.05,
    }
    .generate(0, cli.cfg.seed);
    let mut hw = HwConfig::with_partition_size(16);
    hw.verify_functional = false;

    let mut t = TextTable::new(&[
        "format",
        "lanes",
        "total_cycles",
        "speedup",
        "efficiency",
        "bound",
    ]);
    // Every (format, lanes) point is independent; fan the sweep out over
    // `--jobs` workers and collect rows back in sweep order. Sessions are
    // not shared across threads, so each point runs on its own.
    let points: Vec<(FormatKind, usize)> = FormatKind::CHARACTERIZED
        .into_iter()
        .flat_map(|format| [1usize, 2, 4, 8, 16].map(|lanes| (format, lanes)))
        .collect();
    let rows = copernicus::par_map_ordered(cli.jobs, &points, |_, &(format, lanes)| {
        let mut session = Session::new(hw.clone()).expect("valid config");
        let r = session
            .run(RunRequest::matrix(&matrix, format).with_lanes(lanes))
            .expect("run")
            .parallel
            .expect("a lanes request yields a parallel report");
        [
            format.to_string(),
            lanes.to_string(),
            r.total_cycles.to_string(),
            f3(r.speedup()),
            f3(r.efficiency()),
            if r.is_memory_bound() {
                "memory"
            } else {
                "compute"
            }
            .to_string(),
        ]
    });
    for row in &rows {
        t.row(row);
    }
    emit(cli, &t.render());
    0
}

/// `explain` — the per-format cost of processing one partition of a
/// workload in the §5.2 vocabulary: which cost term dominates and which
/// pipeline stage bounds the run.
fn explain(cli: &Cli) -> i32 {
    let dim = cli.cfg.sweep_dim.max(128);
    let matrix = Workload::Random {
        n: dim,
        density: 0.05,
    }
    .generate(0, cli.cfg.seed);
    let cfg = HwConfig::with_partition_size(16);
    let grid = PartitionGrid::new(&matrix, 16).expect("partitioning");

    // Pick the densest partition — the interesting one.
    let tile = grid
        .partitions()
        .iter()
        .max_by_key(|p| p.nnz())
        .expect("non-empty matrix")
        .coo
        .clone();
    println!(
        "densest 16x16 partition of a {dim}x{dim} random matrix (d=0.05): {} non-zeros, {} non-zero rows\n",
        tile.nnz(),
        tile.nonzero_rows()
    );
    let stats = TileStats::measure(&tile, &cfg, &mut EncodeScratch::new())
        .expect("a generated tile holds no duplicate coordinate or explicit zero");
    for kind in FormatKind::CHARACTERIZED {
        println!("{}", copernicus_hls::explain(&stats, kind, &cfg).render());
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_commands_and_bad_flags_are_usage_errors() {
        assert_eq!(run("not_a_command", vec![]), 2);
        assert_eq!(run("table1", vec!["--what".to_string()]), 2);
        assert_eq!(run("perf", vec!["--what".to_string()]), 2);
        assert_eq!(run("perf", vec!["--iters".to_string(), "0".to_string()]), 2);
        assert_eq!(run("report", vec![]), 2);
        assert_eq!(run("report", vec!["--what".to_string()]), 2);
        for cmd in ["ablation", "scaling", "explain"] {
            let out = vec!["--out".to_string(), "no-such-dir".to_string()];
            assert_eq!(run(cmd, out), 2, "{cmd} must refuse --out");
        }
    }

    #[test]
    fn dashes_and_underscores_are_interchangeable() {
        // `repro-all` must resolve to the same driver as `repro_all`; an
        // unknown name stays unknown under both spellings.
        assert_eq!(run("partition-sweep", vec!["--what".to_string()]), 2);
        assert_eq!(run("no-such-thing", vec![]), 2);
    }

    #[test]
    fn command_list_covers_every_command() {
        for cmd in [
            "repro_all",
            "table1",
            "table2",
            "fig03",
            "fig04",
            "fig05",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "partition_sweep",
            "compound",
            "backend_split",
            "ablation",
            "scaling",
            "explain",
            "perf",
            "report",
            "serve",
            "storm",
        ] {
            assert!(COMMANDS.contains(&cmd), "{cmd} missing from COMMANDS");
        }
    }
}
