//! Uniformly random sparse matrices (§3.2, first group).
//!
//! "The first group includes randomly generated sparse matrices, the density
//! of which varies from 0.0001 to 0.5."

use crate::nonzero_value;
use rand::Rng;
use sparsemat::Coo;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for cell indices. The set only answers
/// membership, and its keys are uniform random draws, so SipHash's
/// flooding resistance buys nothing; being fixed, it also keeps any
/// iteration over the set the same from run to run.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The set of cells already placed.
type CellSet = HashSet<usize, BuildHasherDefault<CellHasher>>;

/// The density sweep the paper uses for its random-matrix figures
/// (Figs. 5, 10): 0.0001 to 0.5.
pub const PAPER_DENSITIES: [f64; 8] = [0.0001, 0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5];

/// Generates an `nrows × ncols` matrix with `round(density · nrows · ncols)`
/// uniformly placed non-zero entries.
///
/// Placement uses rejection sampling over distinct cells when the target is
/// sparse and a Bernoulli sweep when it is dense, so generation stays
/// `O(nnz)`-ish at both extremes. Entries are pushed in draw order, so the
/// matrix is a pure function of the generator's state.
///
/// # Panics
///
/// Panics if `density` is not within `[0, 1]`.
pub fn uniform<R: Rng>(nrows: usize, ncols: usize, density: f64, rng: &mut R) -> Coo<f32> {
    assert!(
        (0.0..=1.0).contains(&density),
        "density {density} outside [0, 1]"
    );
    let cells = nrows * ncols;
    let target = (density * cells as f64).round() as usize;
    let mut coo = Coo::with_capacity(nrows, ncols, target);
    if cells == 0 || target == 0 {
        return coo;
    }
    if target * 3 < cells {
        // Sparse regime: sample distinct cells.
        let mut used = CellSet::with_capacity_and_hasher(target * 2, Default::default());
        while used.len() < target {
            let cell = rng.gen_range(0..cells);
            if used.insert(cell) {
                coo.push(cell / ncols, cell % ncols, nonzero_value(rng))
                    .expect("cell in range");
            }
        }
    } else {
        // Dense regime: one Bernoulli draw per cell hits the expected count;
        // then top up / trim to the exact target for determinism of nnz.
        let mut placed: Vec<usize> = Vec::with_capacity(target + target / 4);
        for cell in 0..cells {
            if rng.gen_bool(density) {
                placed.push(cell);
            }
        }
        while placed.len() > target {
            let k = rng.gen_range(0..placed.len());
            placed.swap_remove(k);
        }
        if placed.len() < target {
            // The set answers membership only; top-up cells join `placed`
            // in draw order.
            let mut used: CellSet = placed.iter().copied().collect();
            while placed.len() < target {
                let cell = rng.gen_range(0..cells);
                if used.insert(cell) {
                    placed.push(cell);
                }
            }
        }
        for cell in placed {
            coo.push(cell / ncols, cell % ncols, nonzero_value(rng))
                .expect("cell in range");
        }
    }
    coo
}

/// Square convenience wrapper around [`uniform`].
pub fn uniform_square<R: Rng>(n: usize, density: f64, rng: &mut R) -> Coo<f32> {
    uniform(n, n, density, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use sparsemat::Matrix;

    #[test]
    fn hits_exact_target_nnz_in_sparse_regime() {
        let mut rng = seeded_rng(1);
        let m = uniform_square(100, 0.01, &mut rng);
        assert_eq!(m.nnz(), 100);
        assert_eq!((m.nrows(), m.ncols()), (100, 100));
    }

    #[test]
    fn hits_exact_target_nnz_in_dense_regime() {
        let mut rng = seeded_rng(2);
        let m = uniform_square(64, 0.5, &mut rng);
        assert_eq!(m.nnz(), (0.5 * 64.0 * 64.0) as usize);
    }

    #[test]
    fn zero_density_gives_empty_matrix() {
        let mut rng = seeded_rng(3);
        assert_eq!(uniform_square(50, 0.0, &mut rng).nnz(), 0);
    }

    #[test]
    fn full_density_gives_full_matrix() {
        let mut rng = seeded_rng(4);
        let m = uniform_square(16, 1.0, &mut rng);
        assert_eq!(m.nnz(), 256);
    }

    #[test]
    fn rectangular_shapes_work() {
        let mut rng = seeded_rng(5);
        let m = uniform(10, 200, 0.05, &mut rng);
        assert_eq!(m.nnz(), 100);
        assert_eq!((m.nrows(), m.ncols()), (10, 200));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = uniform_square(40, 0.1, &mut seeded_rng(9));
        let b = uniform_square(40, 0.1, &mut seeded_rng(9));
        assert_eq!(a, b);
    }

    #[test]
    fn dense_regime_is_deterministic_in_one_process() {
        // At d = 0.5 the Bernoulli sweep often falls short and the top-up
        // runs; its entries must come out in the same order, with the
        // same values, on every call.
        for seed in 0..8 {
            let a = uniform_square(300, 0.5, &mut seeded_rng(seed));
            let b = uniform_square(300, 0.5, &mut seeded_rng(seed));
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_density() {
        uniform_square(10, 1.5, &mut seeded_rng(0));
    }

    #[test]
    fn paper_densities_span_the_paper_range() {
        assert_eq!(PAPER_DENSITIES.first(), Some(&0.0001));
        assert_eq!(PAPER_DENSITIES.last(), Some(&0.5));
        assert!(PAPER_DENSITIES.windows(2).all(|w| w[0] < w[1]));
    }
}
