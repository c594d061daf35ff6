//! Scientific computation on the accelerator model: a conjugate-gradient
//! Poisson solve (§3.3 of the paper: "systems of linear equations with a
//! large symmetric positive-definite matrix A can be solved by iterative
//! algorithms such as conjugate gradient methods [...] the key sparse
//! kernel is SpMV").
//!
//! Discretizes a 2-D Poisson problem with the 5-point stencil, solves
//! `A·u = b` by CG where each SpMV streams through the modeled datapath,
//! and reports how the format choice changes the accelerator cycles spent.
//!
//! ```sh
//! cargo run --example pde_solver
//! ```

use copernicus_hls::{HwConfig, PlatformError, RunRequest, Session};
use copernicus_workloads::stencil::laplacian_2d;
use sparsemat::ops::{axpy, dot, norm2};
use sparsemat::{Coo, FormatKind, Matrix};

/// Conjugate gradient with the SpMV running on the modeled accelerator.
/// Returns `(solution, iterations, total accelerator cycles)`.
fn conjugate_gradient(
    session: &mut Session,
    a: &Coo<f32>,
    b: &[f32],
    format: FormatKind,
    tol: f64,
    max_iters: usize,
) -> Result<(Vec<f32>, usize, u64), PlatformError> {
    let n = b.len();
    let mut x = vec![0.0f32; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rr = dot(&r, &r);
    let mut cycles = 0u64;
    for k in 0..max_iters {
        if norm2(&r) < tol {
            return Ok((x, k, cycles));
        }
        let outcome = session.run(RunRequest::matrix(a, format).consume_spmv(&p))?;
        let (ap, report) = (outcome.y.unwrap_or_default(), outcome.report);
        cycles += report.total_cycles;
        let alpha = rr / dot(&p, &ap);
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rr_next = dot(&r, &r);
        let beta = rr_next / rr;
        rr = rr_next;
        for (pi, &ri) in p.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
    }
    Ok((x, max_iters, cycles))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 24x24 interior grid -> 576 unknowns; SPD 5-point Laplacian.
    let (nx, ny) = (24, 24);
    let a = laplacian_2d(nx, ny);
    let n = a.nrows();
    println!(
        "Poisson operator: {}x{} grid -> {n} unknowns, {} non-zeros",
        nx,
        ny,
        a.nnz()
    );

    // A smooth source term.
    let b: Vec<f32> = (0..n)
        .map(|i| {
            let (x, y) = (i / ny, i % ny);
            ((x as f32 / nx as f32) * std::f32::consts::PI).sin()
                * ((y as f32 / ny as f32) * std::f32::consts::PI).sin()
        })
        .collect();

    let mut session = Session::new(HwConfig::with_partition_size(16))?;

    println!("\nCG on the accelerator model, per operator format:");
    println!(
        "{:>8} {:>7} {:>14} {:>12}",
        "format", "iters", "cycles", "residual"
    );
    let mut reference: Option<Vec<f32>> = None;
    for format in [
        FormatKind::Csr,
        FormatKind::Dia,
        FormatKind::Coo,
        FormatKind::Bcsr,
    ] {
        let (u, iters, cycles) = conjugate_gradient(&mut session, &a, &b, format, 1e-4, 2000)?;
        // Residual check: ||b - A·u||.
        let au = a.spmv(&u)?;
        let res: Vec<f32> = b.iter().zip(&au).map(|(bi, ai)| bi - ai).collect();
        println!(
            "{:>8} {:>7} {:>14} {:>12.3e}",
            format.to_string(),
            iters,
            cycles,
            norm2(&res)
        );
        // Every format solves the same system to the same answer.
        match &reference {
            None => reference = Some(u),
            Some(r) => assert_eq!(r, &u, "{format} diverged from the reference solve"),
        }
    }

    println!(
        "\nThe 5-point Laplacian is a 5-diagonal band matrix, so DIA's \n\
         per-row diagonal scan stays cheap here. §8 of the paper warns the \n\
         DIA/row-engine mismatch becomes a compute bottleneck as non-zeros \n\
         scatter over many partial diagonals — see `cargo run --release \n\
         -p copernicus-bench -- fig06` for that sweep."
    );
    Ok(())
}
