//! Determinism contract for intra-run partition parallelism: every output a
//! run can produce — reports, traces, SpMV vectors, lane scaling reports —
//! must be byte-identical between a serial run and a `par_tiles(n)` run at
//! any worker count. Timings are closed-form cycle counts reduced back in
//! grid order, so parallelism is purely a host-side speedup.

use copernicus_hls::{HwConfig, PlatformError, RunRequest, Session};
use copernicus_telemetry::{CancelToken, PhaseProfiler, RecordingSink};
use sparsemat::{Coo, FormatKind, Matrix};

/// A multi-partition matrix (48×48 over 16-wide tiles = a 3×3 grid) with
/// diagonals, off-diagonal bands, and a few scattered cells so every grid
/// cell is non-empty and the formats exercise distinct layouts.
fn matrix() -> Coo<f32> {
    let mut coo = Coo::new(48, 48);
    for i in 0..48usize {
        coo.push(i, i, 1.0 + i as f32).unwrap();
        if i + 3 < 48 {
            coo.push(i, i + 3, -0.25 * i as f32).unwrap();
        }
        if i >= 17 {
            coo.push(i, i - 17, 2.0).unwrap();
        }
    }
    coo.push(0, 47, 9.0).unwrap();
    coo.push(47, 0, -9.0).unwrap();
    coo
}

#[test]
fn reports_and_traces_identical_at_any_worker_count() {
    let m = matrix();
    let mut serial = Session::new(HwConfig::default()).unwrap();
    for jobs in [2usize, 3, 8, 64] {
        let mut par = Session::new(HwConfig::default())
            .unwrap()
            .with_tile_jobs(jobs);
        for kind in FormatKind::CHARACTERIZED {
            let mut sink_s = RecordingSink::new();
            let mut sink_p = RecordingSink::new();
            let base = serial
                .run(RunRequest::matrix(&m, kind).with_sink(&mut sink_s))
                .unwrap();
            let tiled = par
                .run(RunRequest::matrix(&m, kind).with_sink(&mut sink_p))
                .unwrap();
            assert_eq!(base, tiled, "{kind} outcome diverged at tile_jobs={jobs}");
            assert_eq!(
                sink_s, sink_p,
                "{kind} trace stream diverged at tile_jobs={jobs}"
            );
        }
    }
}

#[test]
fn spmv_vectors_identical_under_tile_parallelism() {
    let m = matrix();
    let x: Vec<f32> = (0..m.ncols()).map(|i| (i % 7) as f32 - 3.0).collect();
    let mut serial = Session::new(HwConfig::default()).unwrap();
    let mut par = Session::new(HwConfig::default()).unwrap().with_tile_jobs(4);
    for kind in FormatKind::CHARACTERIZED {
        let base = serial
            .run(RunRequest::matrix(&m, kind).consume_spmv(&x))
            .unwrap();
        let tiled = par
            .run(RunRequest::matrix(&m, kind).consume_spmv(&x))
            .unwrap();
        assert_eq!(base.y, tiled.y, "{kind} SpMV result diverged");
        assert_eq!(base.report, tiled.report, "{kind} SpMV report diverged");
    }
}

#[test]
fn lane_scaling_reports_identical_under_tile_parallelism() {
    let m = matrix();
    let mut serial = Session::new(HwConfig::default()).unwrap();
    let mut par = Session::new(HwConfig::default()).unwrap().with_tile_jobs(4);
    for kind in FormatKind::CHARACTERIZED {
        for lanes in [1usize, 2, 4] {
            let mut sink_s = RecordingSink::new();
            let mut sink_p = RecordingSink::new();
            let base = serial
                .run(
                    RunRequest::matrix(&m, kind)
                        .with_lanes(lanes)
                        .with_sink(&mut sink_s),
                )
                .unwrap();
            let tiled = par
                .run(
                    RunRequest::matrix(&m, kind)
                        .with_lanes(lanes)
                        .with_sink(&mut sink_p),
                )
                .unwrap();
            assert_eq!(
                base.parallel, tiled.parallel,
                "{kind} lane report diverged at lanes={lanes}"
            );
            assert_eq!(
                sink_s, sink_p,
                "{kind} lane trace diverged at lanes={lanes}"
            );
        }
    }
}

#[test]
fn cancelled_token_stops_every_run_shape_at_any_worker_count() {
    let m = matrix();
    let x: Vec<f32> = (0..m.ncols()).map(|i| (i % 5) as f32 - 2.0).collect();
    // Plain, SpMV-consuming and four-lane runs of the same matrix.
    let request = |shape: usize| {
        let plain = RunRequest::matrix(&m, FormatKind::Csr);
        match shape {
            0 => plain,
            1 => plain.consume_spmv(&x),
            _ => plain.with_lanes(4),
        }
    };
    let token = CancelToken::new();
    token.cancel();
    for jobs in [1usize, 4] {
        let mut session = Session::new(HwConfig::default())
            .unwrap()
            .with_tile_jobs(jobs)
            .with_cancel(token.clone());
        for shape in 0..3 {
            assert!(
                matches!(session.run(request(shape)), Err(PlatformError::Cancelled)),
                "{:?} was not cancelled at tile_jobs={jobs}",
                request(shape)
            );
        }
        // Detaching the token leaves no trace of the cancelled runs.
        session.set_cancel(None);
        let mut fresh = Session::new(HwConfig::default()).unwrap();
        for shape in 0..3 {
            assert_eq!(
                session.run(request(shape)).unwrap(),
                fresh.run(request(shape)).unwrap(),
                "{:?} diverged after set_cancel(None) at tile_jobs={jobs}",
                request(shape)
            );
        }
    }
}

#[test]
fn per_request_override_wins_and_restores_the_session_setting() {
    let m = matrix();
    let mut session = Session::new(HwConfig::default()).unwrap().with_tile_jobs(3);
    assert_eq!(session.tile_jobs(), 3);
    let base = session
        .run(RunRequest::matrix(&m, FormatKind::Csr))
        .unwrap();
    let overridden = session
        .run(RunRequest::matrix(&m, FormatKind::Csr).par_tiles(7))
        .unwrap();
    assert_eq!(base, overridden);
    // The override is scoped to the one request.
    assert_eq!(session.tile_jobs(), 3);
    // Zero clamps to serial rather than erroring.
    let clamped = session
        .run(RunRequest::matrix(&m, FormatKind::Csr).par_tiles(0))
        .unwrap();
    assert_eq!(base, clamped);
    assert_eq!(session.tile_jobs(), 3);
}

#[test]
fn profiler_attachment_does_not_perturb_parallel_outputs() {
    let m = matrix();
    let mut plain = Session::new(HwConfig::default()).unwrap().with_tile_jobs(4);
    let profiler = std::sync::Arc::new(PhaseProfiler::new());
    let mut profiled = Session::new(HwConfig::default())
        .unwrap()
        .with_tile_jobs(4)
        .with_profiler(profiler);
    for kind in FormatKind::CHARACTERIZED {
        let a = plain.run(RunRequest::matrix(&m, kind)).unwrap();
        let b = profiled.run(RunRequest::matrix(&m, kind)).unwrap();
        assert_eq!(a, b, "{kind} report changed under profiling");
    }
}

#[test]
fn warm_session_reruns_stay_identical() {
    // Scratch pools (worker scratches included) must not leak state between
    // runs: hammer one session across formats and check against a fresh one.
    let m = matrix();
    let mut warm = Session::new(HwConfig::default()).unwrap().with_tile_jobs(4);
    for _ in 0..3 {
        for kind in FormatKind::CHARACTERIZED {
            let mut fresh = Session::new(HwConfig::default()).unwrap();
            let expect = fresh.run(RunRequest::matrix(&m, kind)).unwrap();
            let got = warm.run(RunRequest::matrix(&m, kind)).unwrap();
            assert_eq!(expect, got, "{kind} diverged on a warm session");
        }
    }
}
