//! Cross-crate integration: workload generation → partitioning → encoding →
//! decompression → metrics → figure drivers, end to end.

use copernicus_repro::copernicus::{characterize, ExperimentConfig};
use copernicus_repro::hls::{HwConfig, RunRequest, Session};
use copernicus_repro::sparsemat::{FormatKind, Matrix, PartitionGrid};
use copernicus_repro::workloads::Workload;

fn small_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.suite_max_dim = 192;
    cfg.sweep_dim = 96;
    cfg
}

#[test]
fn full_campaign_is_deterministic() {
    let cfg = small_cfg();
    let workloads = [
        Workload::Random {
            n: 96,
            density: 0.05,
        },
        Workload::Band { n: 96, width: 16 },
    ];
    let a = characterize(&workloads, &FormatKind::CHARACTERIZED, &[8, 16], &cfg).unwrap();
    let b = characterize(&workloads, &FormatKind::CHARACTERIZED, &[8, 16], &cfg).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.len(), 2 * 8 * 2);
}

#[test]
fn every_figure_driver_produces_rows_on_one_config() {
    use copernicus_repro::copernicus::experiments as ex;
    let cfg = small_cfg();
    assert_eq!(ex::fig03::run(&cfg).unwrap().len(), 60);
    assert_eq!(ex::fig04::run(&cfg).unwrap().len(), 160);
    assert_eq!(ex::fig05::run(&cfg).unwrap().len(), 64);
    assert_eq!(ex::fig06::run(&cfg).unwrap().len(), 48);
    assert_eq!(ex::fig07::run(&cfg).unwrap().len(), 72);
    assert!(!ex::fig08::run(&cfg).unwrap().is_empty());
    assert_eq!(ex::fig09::run(&cfg).unwrap().len(), 192);
    assert_eq!(ex::fig10::run(&cfg).unwrap().len(), 64);
    assert_eq!(ex::fig11::run(&cfg).unwrap().len(), 48);
    assert_eq!(ex::fig12::run(&cfg).unwrap().len(), 72);
    assert_eq!(ex::fig13::run(&[8, 16, 32]).len(), 24);
    assert_eq!(ex::fig14::run(&cfg).unwrap().len(), 24);
    assert_eq!(ex::table1::run().len(), 20);
    assert_eq!(ex::table2::run(&[8, 16, 32]).len(), 24);
}

#[test]
fn suite_stand_ins_flow_through_the_whole_platform() {
    let mut session = Session::new(HwConfig::with_partition_size(16)).unwrap();
    for suite in copernicus_repro::workloads::SUITE.iter().take(6) {
        let m = suite.generate(256, 1);
        let x: Vec<f32> = (0..m.ncols()).map(|i| (i % 3) as f32).collect();
        let expect = m.spmv(&x).unwrap();
        for kind in [FormatKind::Csr, FormatKind::Coo, FormatKind::Ell] {
            let outcome = session
                .run(RunRequest::matrix(&m, kind).consume_spmv(&x))
                .unwrap();
            assert_eq!(outcome.y.unwrap(), expect, "{} via {kind}", suite.id);
            assert!(outcome.report.total_cycles > 0);
        }
    }
}

#[test]
fn partition_grid_is_shared_consistently_across_formats() {
    // Running from a pre-built grid must agree with running from the matrix.
    let m = Workload::Band { n: 128, width: 4 }.generate(0, 3);
    let mut session = Session::new(HwConfig::with_partition_size(16)).unwrap();
    let grid = PartitionGrid::new(&m, 16).unwrap();
    for kind in FormatKind::CHARACTERIZED {
        let from_grid = session.run(RunRequest::grid(&grid, kind)).unwrap().report;
        let from_matrix = session.run(RunRequest::matrix(&m, kind)).unwrap().report;
        assert_eq!(from_grid, from_matrix, "{kind}");
    }
}

#[test]
fn umbrella_crate_re_exports_work() {
    // The root crate exposes the member crates.
    let coo = copernicus_repro::sparsemat::Coo::<f32>::new(4, 4);
    assert_eq!(coo.nnz(), 0);
    assert_eq!(copernicus_repro::workloads::SUITE.len(), 20);
    let cfg = copernicus_repro::hls::HwConfig::default();
    assert_eq!(cfg.partition_size, 16);
    let _ = copernicus_repro::copernicus::ExperimentConfig::quick();
}
