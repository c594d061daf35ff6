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
