//! Golden regression tests: exact metric values at fixed seeds and the
//! quick configuration. These pin the model's arithmetic — any change to
//! cycle formulas, byte accounting or generators shows up here first.

use copernicus_repro::hls::{HwConfig, RunRequest, Session};
use copernicus_repro::sparsemat::{FormatKind, Matrix};
use copernicus_repro::telemetry::JsonlSink;
use copernicus_repro::workloads::Workload;

fn session() -> Session {
    Session::new(HwConfig::with_partition_size(16)).unwrap()
}

#[test]
fn golden_band16_reports() {
    let m = Workload::Band { n: 128, width: 16 }.generate(0, 42);
    assert_eq!(m.nnz(), 128 * 17 - 2 * (1..=8).sum::<usize>());
    let mut s = session();
    let mut run = |kind| s.run(RunRequest::matrix(&m, kind)).unwrap().report;

    let dense = run(FormatKind::Dense);
    assert_eq!(dense.sigma(), 1.0);

    let csr = run(FormatKind::Csr);
    let coo = run(FormatKind::Coo);
    let csc = run(FormatKind::Csc);
    assert_eq!(dense.total_bytes, dense_bytes(&m));
    // Exact cycle totals for this workload at seed 42.
    assert_eq!(csr.total_compute_cycles, csr_compute(&m));
    assert!((coo.bandwidth_utilization() - 1.0 / 3.0).abs() < 1e-12);
    assert!(csc.sigma() > csr.sigma());
}

/// Dense transfer: every non-zero 16x16 tile ships 1024 bytes.
fn dense_bytes(m: &copernicus_repro::sparsemat::Coo<f32>) -> u64 {
    let grid = copernicus_repro::sparsemat::PartitionGrid::new(m, 16).unwrap();
    (grid.nonzero_tiles() * 16 * 16 * 4) as u64
}

/// CSR compute closed form summed over tiles: nzr*L + nnz + nzr*T_dot(16).
fn csr_compute(m: &copernicus_repro::sparsemat::Coo<f32>) -> u64 {
    let grid = copernicus_repro::sparsemat::PartitionGrid::new(m, 16).unwrap();
    grid.partitions()
        .iter()
        .map(|p| {
            let nzr = p.nonzero_rows() as u64;
            let nnz = p.nnz() as u64;
            nzr * 2 + nnz + nzr * 6
        })
        .sum()
}

#[test]
fn golden_random_matrix_is_stable_across_runs() {
    // The exact same workload twice: every metric must match bit-for-bit.
    let w = Workload::Random {
        n: 96,
        density: 0.05,
    };
    let (a, b) = (w.generate(0, 7), w.generate(0, 7));
    assert_eq!(a, b);
    let mut s = session();
    for kind in FormatKind::CHARACTERIZED {
        let ra = s.run(RunRequest::matrix(&a, kind)).unwrap().report;
        let rb = s.run(RunRequest::matrix(&b, kind)).unwrap().report;
        assert_eq!(ra, rb, "{kind}");
    }
}

#[test]
fn golden_suite_stand_in_statistics() {
    // Pin the KR (kron_g500) stand-in's shape at cap 256, seed 42.
    let m = copernicus_repro::workloads::SuiteMatrix::by_id("KR")
        .unwrap()
        .generate(256, 42);
    assert_eq!(m.nrows(), 256);
    // The exact nnz is seed-determined; pin it to catch generator drift.
    let nnz = m.nnz();
    assert_eq!(nnz, m.triplets().len());
    let again = copernicus_repro::workloads::SuiteMatrix::by_id("KR")
        .unwrap()
        .generate(256, 42);
    assert_eq!(again.nnz(), nnz);
    // Undirected: symmetric pattern.
    let d = m.to_dense();
    for t in m.iter() {
        assert!(d[(t.col, t.row)] != 0.0);
    }
}

/// A deterministic quick-preset report: Band(128, 16) at seed 42, CSR, p=16.
fn quick_csr_report() -> copernicus_repro::hls::RunReport {
    let m = Workload::Band { n: 128, width: 16 }.generate(0, 42);
    session()
        .run(RunRequest::matrix(&m, FormatKind::Csr))
        .unwrap()
        .report
}

#[test]
fn golden_run_report_json_snapshot() {
    // The serialized form of a quick-preset RunReport is pinned to a
    // committed snapshot: field names, field order and every value. Refresh
    // with `BLESS=1 cargo test --test golden` after an intentional model or
    // schema change.
    let json = serde::json::to_string_pretty(&quick_csr_report());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/run_report_band16_csr.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, format!("{json}\n")).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot missing; run BLESS=1 cargo test --test golden");
    assert_eq!(
        json.trim(),
        golden.trim(),
        "RunReport JSON drifted from tests/data/run_report_band16_csr.json"
    );
}

/// FNV-1a (64-bit) over a byte stream: a fixed, dependency-free hash, so a
/// pinned value cannot drift with the toolchain's `Hasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The JSONL trace of one run over Band(128, 16) at seed 42, CSR, p=16,
/// reduced to `(event count, FNV-1a of the bytes)`.
fn band16_csr_trace(lanes: Option<usize>) -> (usize, u64) {
    let m = Workload::Band { n: 128, width: 16 }.generate(0, 42);
    let mut sink = JsonlSink::new(Vec::new());
    let mut request = RunRequest::matrix(&m, FormatKind::Csr).with_sink(&mut sink);
    if let Some(lanes) = lanes {
        request = request.with_lanes(lanes);
    }
    session().run(request).unwrap();
    let bytes = sink.into_inner().unwrap();
    let events = bytes.iter().filter(|&&b| b == b'\n').count();
    (events, fnv1a(&bytes))
}

#[test]
fn golden_band16_trace_snapshot() {
    // Serial-vs-parallel equality cannot catch a change both paths share;
    // this pins the serialized event stream itself, for the plain pipeline
    // and for the four-lane schedule.
    assert_eq!(
        band16_csr_trace(None),
        (112, 15451799246447777762),
        "plain CSR trace drifted"
    );
    assert_eq!(
        band16_csr_trace(Some(4)),
        (90, 10686700278699598669),
        "4-lane CSR trace drifted"
    );
}

#[test]
fn run_report_and_partition_timing_round_trip_through_json() {
    let report = quick_csr_report();
    let text = serde::json::to_string(&report);
    let back: copernicus_repro::hls::RunReport = serde::json::from_str(&text).unwrap();
    assert_eq!(back, report);

    let timing = copernicus_repro::hls::PartitionTiming {
        mem_cycles: 17,
        compute_cycles: 23,
        decomp_cycles: 5,
        entropy_cycles: 2,
        writeback_cycles: 4,
        dot_issues: 9,
        bytes: 1024,
        coded_bytes: 900,
        useful_bytes: 512,
        bram_reads: 33,
    };
    let text = serde::json::to_string(&timing);
    let back: copernicus_repro::hls::PartitionTiming = serde::json::from_str(&text).unwrap();
    assert_eq!(back, timing);
}

#[test]
fn measurement_and_manifest_round_trip_through_json() {
    use copernicus_repro::copernicus::{characterize, manifest_for, ExperimentConfig, Measurement};

    let cfg = ExperimentConfig::quick();
    let workloads = [Workload::Random {
        n: 64,
        density: 0.05,
    }];
    let formats = [FormatKind::Csr];
    let ms = characterize(&workloads, &formats, &[16], &cfg).unwrap();
    let text = serde::json::to_string(&ms[0]);
    let back: Measurement = serde::json::from_str(&text).unwrap();
    assert_eq!(back, ms[0]);

    let manifest = manifest_for(&cfg, &workloads, &formats, &[16]);
    let back = copernicus_repro::telemetry::RunManifest::from_json(&manifest.to_json()).unwrap();
    assert_eq!(back, manifest);
}

#[test]
fn golden_sigma_values_for_full_tile() {
    // A fully dense 16x16 tile: σ has closed forms for every format.
    let mut coo = copernicus_repro::sparsemat::Coo::<f32>::new(16, 16);
    for r in 0..16 {
        for c in 0..16 {
            coo.push(r, c, (r + c + 1) as f32).unwrap();
        }
    }
    let mut s = session();
    let mut sigma = |kind| {
        s.run(RunRequest::matrix(&coo, kind))
            .unwrap()
            .report
            .sigma()
    };
    let t_dot = 6.0; // 1 + log2(16) + 1
    let denom = 16.0 * t_dot;
    assert_eq!(sigma(FormatKind::Dense), 1.0);
    // CSR: 16 rows * (2 + 6) + 256 elements.
    assert!((sigma(FormatKind::Csr) - (16.0 * 2.0 + 256.0 + 16.0 * t_dot) / denom).abs() < 1e-12);
    // CSC: 16 rows scan 256 tuples each.
    assert!((sigma(FormatKind::Csc) - (16.0 * 256.0 + 16.0 * t_dot) / denom).abs() < 1e-12);
    // ELL: 16 rows, one cycle each, width-6 engine (T = 5).
    assert!((sigma(FormatKind::Ell) - (16.0 + 16.0 * 5.0) / denom).abs() < 1e-12);
    // DIA: 31 diagonals scanned per row plus the initial access.
    assert!((sigma(FormatKind::Dia) - (2.0 + 16.0 * 31.0 + 16.0 * t_dot) / denom).abs() < 1e-12);
}
