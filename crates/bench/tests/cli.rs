//! The `copernicus-bench` entry point as a user runs it: the command is
//! argv[1], and `perf` measures a command by re-executing this same binary
//! with that command in argv[1].

use copernicus_bench::perf::parse_trajectory;
use std::path::Path;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_copernicus-bench");

/// Runs `perf` once on `cmd` with no warmup, recording under `label`.
fn perf_once(trajectory: &Path, cmd: &str, label: &str) -> Option<i32> {
    Command::new(BIN)
        .args(["perf", "--cmd", cmd, "--iters", "1", "--warmup", "0"])
        .arg("--trajectory")
        .arg(trajectory)
        .args(["--record", label])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run perf")
        .code()
}

#[test]
fn perf_re_execs_the_measured_command_and_records_one_point() {
    let dir = std::env::temp_dir().join(format!("copernicus-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trajectory = dir.join("trajectory.json");

    assert_eq!(perf_once(&trajectory, "table1", "t"), Some(0));
    let text = std::fs::read_to_string(&trajectory).expect("trajectory written");
    let points = parse_trajectory(&text);
    assert_eq!(points.len(), 1, "{text}");
    assert_eq!(points[0].cmd, "table1");
    assert_eq!(points[0].label, "t");
    assert_eq!(points[0].runs_secs.len(), 1);

    // The child really runs the named command: an unknown one fails the
    // measurement and records nothing.
    assert_eq!(perf_once(&trajectory, "no_such_cmd", "u"), Some(1));
    let text = std::fs::read_to_string(&trajectory).expect("trajectory kept");
    assert_eq!(parse_trajectory(&text).len(), 1, "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_commands_exit_2() {
    let status = Command::new(BIN)
        .arg("no_such_cmd")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run copernicus-bench");
    assert_eq!(status.code(), Some(2));
}

/// `explain` at the default flags: the densest tile of the 192×192
/// random matrix, explained in every format.
const EXPLAIN_STDOUT: &str = r"densest 16x16 partition of a 192x192 random matrix (d=0.05): 21 non-zeros, 11 non-zero rows

DENSE: compute 96 cycles vs memory 132 cycles -> memory-bound
         0 cycles  rows stream straight to the engine (no decompression)
        96 cycles  16 dot products x 6 cycles on the width-16 engine

CSR: compute 109 cycles vs memory 34 cycles -> compute-bound
        22 cycles  11 non-zero rows x 2-cycle offsets read (Listing 1 line 7)
        21 cycles  21 elements through the pipelined II=1 copy loop
        66 cycles  11 dot products x 6 cycles on the width-16 engine

BCSR: compute 114 cycles vs memory 92 cycles -> compute-bound
         8 cycles  4 non-zero block-rows x 2-cycle offsets read
        10 cycles  10 blocks through the unrolled copy (1 cycle each)
        96 cycles  16 dot products x 6 cycles on the width-16 engine

CSC: compute 402 cycles vs memory 34 cycles -> compute-bound
       336 cycles  16 output rows x 21-tuple rescan (orientation mismatch, Listing 3)
        66 cycles  11 dot products x 6 cycles on the width-16 engine

LIL: compute 112 cycles vs memory 84 cycles -> compute-bound
        44 cycles  11 emitted rows x (parallel column read 2 + min-scan/assign 2)
         2 cycles  end-of-rows marker read (2 cycles)
        66 cycles  11 dot products x 6 cycles on the width-16 engine

ELL: compute 96 cycles vs memory 68 cycles -> compute-bound
        16 cycles  16 rows x 1 cycle (fully unrolled, zero rows not skippable)
        80 cycles  16 dot products x 5 cycles on the width-6 engine

COO: compute 89 cycles vs memory 36 cycles -> compute-bound
         2 cycles  initial tuple fetch (2 cycles)
        21 cycles  21 tuples through the pipelined II=1 scatter
        66 cycles  11 dot products x 6 cycles on the width-16 engine

DIA: compute 292 cycles vs memory 123 cycles -> compute-bound
         2 cycles  initial diagonal fetch (2 cycles)
       224 cycles  16 rows x 14-diagonal II=1 scan (Listing 7)
        66 cycles  11 dot products x 6 cycles on the width-16 engine

";

#[test]
fn explain_prints_the_pinned_breakdown() {
    let out = Command::new(BIN)
        .arg("explain")
        .stderr(Stdio::null())
        .output()
        .expect("run copernicus-bench explain");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), EXPLAIN_STDOUT);
}

#[test]
fn standalone_figures_print_what_repro_all_writes() {
    // `repro_all` reads every campaign figure off its one campaign; each
    // standalone command runs its own sweep. Both must print the same
    // table, and a standalone command's `--out D` must write it to
    // `D/<name>.tsv` as `repro_all` does.
    let dir = std::env::temp_dir().join(format!("copernicus-cli-figures-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flags = ["--jobs", "1", "--dim", "64", "--suite-dim", "96"];
    let status = Command::new(BIN)
        .arg("repro_all")
        .args(flags)
        .arg("--out")
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run repro_all");
    assert_eq!(status.code(), Some(0));
    for fig in [
        "table1", "table2", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
        "fig11", "fig12", "fig13", "fig14",
    ] {
        let own = dir.join("standalone").join(fig);
        let out = Command::new(BIN)
            .arg(fig)
            .args(flags)
            .arg("--tsv")
            .arg("--out")
            .arg(&own)
            .stderr(Stdio::null())
            .output()
            .expect("run a figure");
        assert_eq!(out.status.code(), Some(0), "{fig}");
        let written = std::fs::read_to_string(dir.join(format!("{fig}.tsv"))).expect(fig);
        assert_eq!(String::from_utf8_lossy(&out.stdout), written, "{fig}");
        let own_written = std::fs::read_to_string(own.join(format!("{fig}.tsv")))
            .unwrap_or_else(|e| panic!("{fig} --out wrote no {fig}.tsv: {e}"));
        assert_eq!(own_written, written, "{fig} --out");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
