//! Sparse workloads for the Copernicus characterization (§3 of the paper).
//!
//! Three workload classes drive every figure:
//!
//! * **SuiteSparse stand-ins** ([`suite`]) — the 20 real-world matrices of
//!   Table 1, synthesized at reduced scale with matched structure and
//!   density (see `DESIGN.md` for the substitution rationale). Real
//!   MatrixMarket files can be dropped in through [`mtx`].
//! * **Random matrices** ([`random`]) — uniform sparsity with density swept
//!   from 0.0001 to 0.5 ("the denser random matrices [...] as a
//!   representation for those in machine learning applications").
//! * **Band and diagonal matrices** ([`band`]) — size 8000 with widths 2,
//!   4, 16, 32 and 64, plus the pure diagonal (`k = 1`).
//!
//! The structural generators ([`rmat`], [`stencil`], [`circuit`],
//! [`road`]) back the per-kind SuiteSparse stand-ins, so every generator
//! here is reached through a [`Workload`].
//!
//! All generators are deterministic given a seed, and all values are small
//! non-zero integers cast to `f32` so downstream arithmetic checks are
//! exact.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod band;
pub mod circuit;
pub mod mtx;
pub mod random;
pub mod rmat;
pub mod road;
pub mod spec;
pub mod stencil;
pub mod suite;

pub use spec::{Workload, WorkloadClass};
pub use suite::{SuiteMatrix, SUITE};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG used by every generator: a [`SmallRng`] seeded from a
/// caller-provided seed so each (workload, seed) pair is reproducible.
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Draws a small non-zero integer value in `[-9, 9] \ {0}` as `f32`.
///
/// Keeping values integral keeps every SpMV comparison in the test suite
/// bit-exact; keeping them non-zero keeps `nnz` equal to the number of
/// generated coordinates.
pub fn nonzero_value<R: Rng>(rng: &mut R) -> f32 {
    let v = rng.gen_range(1..=9) as f32;
    if rng.gen_bool(0.5) {
        -v
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a: Vec<u32> = {
            let mut r = seeded_rng(42);
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = seeded_rng(42);
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn nonzero_values_are_nonzero_integers() {
        let mut rng = seeded_rng(7);
        for _ in 0..1000 {
            let v = nonzero_value(&mut rng);
            assert!(v != 0.0);
            assert_eq!(v, v.trunc());
            assert!(v.abs() <= 9.0);
        }
    }
}
