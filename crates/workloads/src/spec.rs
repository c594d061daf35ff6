//! Workload specifications — the `(class, parameters)` pairs the
//! characterization sweeps.

use crate::suite::SuiteMatrix;
use crate::{band, random, seeded_rng};
use sparsemat::{Coo, RowPattern};

/// The three workload classes of the paper's evaluation (§6: "SuiteSparse,
/// random, and structured band matrices").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum WorkloadClass {
    /// Real-world matrices from Table 1 (synthesized stand-ins here).
    SuiteSparse,
    /// Uniformly random matrices over the density sweep.
    Random,
    /// Structured band and diagonal matrices.
    Band,
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WorkloadClass::SuiteSparse => "SuiteSparse",
            WorkloadClass::Random => "Random",
            WorkloadClass::Band => "Band",
        })
    }
}

/// One concrete workload: a class plus its generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// A Table-1 matrix (stand-in generated at `max_dim`).
    Suite(&'static SuiteMatrix),
    /// Uniform random `n × n` matrix with the given density.
    Random {
        /// Matrix dimension.
        n: usize,
        /// Target density in `[0, 1]`.
        density: f64,
    },
    /// Band matrix of the given width (`width == 1` is the pure diagonal).
    Band {
        /// Matrix dimension.
        n: usize,
        /// Band width `k` (entries with `|i−j| > k/2` are zero).
        width: usize,
    },
}

impl Workload {
    /// The workload's class.
    pub fn class(&self) -> WorkloadClass {
        match self {
            Workload::Suite(_) => WorkloadClass::SuiteSparse,
            Workload::Random { .. } => WorkloadClass::Random,
            Workload::Band { .. } => WorkloadClass::Band,
        }
    }

    /// Short label used on figure axes (suite ID, density, or width).
    pub fn label(&self) -> String {
        match self {
            Workload::Suite(m) => m.id.to_string(),
            Workload::Random { density, .. } => format!("d={density}"),
            Workload::Band { width, .. } => format!("w={width}"),
        }
    }

    /// Canonical memoization key for the generated matrix:
    /// [`generate`](Workload::generate) is a pure function of
    /// `(spec, max_dim, seed)`, so this key captures every input that
    /// determines the matrix bytes. The `Debug` form is used instead of
    /// [`label`](Workload::label) because labels elide the dimension
    /// (`d=0.5` at two different `n` must not collide).
    pub fn cache_key(&self, max_dim: usize, seed: u64) -> String {
        format!("{self:?}|seed={seed}|cap={max_dim}")
    }

    /// Generates the matrix. `max_dim` caps the dimension of suite
    /// stand-ins; random and band workloads always use their own `n`.
    pub fn generate(&self, max_dim: usize, seed: u64) -> Coo<f32> {
        match *self {
            Workload::Suite(m) => m.generate(max_dim, seed),
            Workload::Random { n, density } => {
                random::uniform_square(n, density, &mut seeded_rng(seed))
            }
            Workload::Band { n, width } => band::band(n, width, &mut seeded_rng(seed)),
        }
    }

    /// The row pattern of the matrix [`generate`](Workload::generate)
    /// makes, for a caller that reads only where the entries are.
    ///
    /// The contract: for every workload, `max_dim` and `seed`,
    /// `self.pattern(max_dim, seed) == RowPattern::new(&self.generate(max_dim, seed))`,
    /// `None` included. Band and random workloads build the pattern
    /// directly, in row-major order, and never make a triplet: a band from
    /// its shape, a random matrix from [`generate`](Workload::generate)'s
    /// own draws. A suite stand-in, capped at `max_dim`, is generated and
    /// its triplets dropped once the pattern is read off them.
    pub fn pattern(&self, max_dim: usize, seed: u64) -> Option<RowPattern> {
        match *self {
            Workload::Suite(m) => RowPattern::new(&m.generate(max_dim, seed)),
            Workload::Random { n, density } => {
                random::uniform_pattern(n, n, density, &mut seeded_rng(seed))
            }
            Workload::Band { n, width } => band::band_pattern(n, width),
        }
    }

    /// All 20 SuiteSparse workloads in Table-1 order.
    pub fn paper_suite() -> Vec<Workload> {
        crate::SUITE.iter().map(Workload::Suite).collect()
    }

    /// The paper's random-density sweep (Figs. 5, 10) at dimension `n`.
    pub fn paper_random_sweep(n: usize) -> Vec<Workload> {
        random::PAPER_DENSITIES
            .iter()
            .map(|&density| Workload::Random { n, density })
            .collect()
    }

    /// The paper's band-width sweep (Figs. 6, 11) at dimension `n`.
    pub fn paper_band_sweep(n: usize) -> Vec<Workload> {
        band::PAPER_WIDTHS
            .iter()
            .map(|&width| Workload::Band { n, width })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::Matrix;

    #[test]
    fn classes_map_correctly() {
        assert_eq!(
            Workload::Suite(&crate::SUITE[0]).class(),
            WorkloadClass::SuiteSparse
        );
        assert_eq!(
            Workload::Random {
                n: 10,
                density: 0.1
            }
            .class(),
            WorkloadClass::Random
        );
        assert_eq!(
            Workload::Band { n: 10, width: 4 }.class(),
            WorkloadClass::Band
        );
    }

    #[test]
    fn sweeps_have_paper_cardinality() {
        assert_eq!(Workload::paper_suite().len(), 20);
        assert_eq!(Workload::paper_random_sweep(100).len(), 8);
        assert_eq!(Workload::paper_band_sweep(100).len(), 6);
    }

    #[test]
    fn generate_respects_parameters() {
        let m = Workload::Random {
            n: 64,
            density: 0.1,
        }
        .generate(0, 1);
        assert_eq!(m.nrows(), 64);
        assert_eq!(m.nnz(), 410, "0.1 * 64^2 rounded");

        let b = Workload::Band { n: 32, width: 4 }.generate(0, 1);
        assert_eq!(b.nnz(), crate::band::band_nnz(32, 4));
    }

    /// `w.pattern(..)`, checked against `RowPattern::new` of the generated
    /// matrix, whose density it must also give to the bit.
    fn pattern_of(w: Workload, max_dim: usize, seed: u64) -> Option<RowPattern> {
        let direct = w.pattern(max_dim, seed);
        let coo = w.generate(max_dim, seed);
        assert_eq!(direct, RowPattern::new(&coo), "{w:?} at cap {max_dim}");
        if let Some(pattern) = &direct {
            assert_eq!(
                pattern.density().to_bits(),
                coo.density().to_bits(),
                "{w:?}"
            );
        }
        direct
    }

    #[test]
    fn a_suite_pattern_is_that_of_its_generated_matrix_in_every_family() {
        let mut families = Vec::new();
        for m in crate::SUITE.iter() {
            let family = std::mem::discriminant(&m.family);
            if !families.contains(&family) {
                families.push(family);
                for cap in [96, 1024] {
                    pattern_of(Workload::Suite(m), cap, 42);
                }
            }
        }
        assert_eq!(families.len(), 7);
    }

    #[test]
    fn band_and_random_patterns_are_those_of_their_generated_matrices() {
        for w in Workload::paper_band_sweep(300)
            .into_iter()
            .chain(Workload::paper_random_sweep(300))
        {
            assert!(pattern_of(w, 0, 7).is_some(), "{w:?}");
        }
        // Row-heavy: no pattern, from either side.
        let sparse = Workload::Random {
            n: 70_000,
            density: 1e-9,
        };
        assert_eq!(pattern_of(sparse, 0, 7), None);
    }

    #[test]
    fn cache_keys_separate_what_labels_collapse() {
        let a = Workload::Random {
            n: 32,
            density: 0.5,
        };
        let b = Workload::Random {
            n: 64,
            density: 0.5,
        };
        assert_eq!(a.label(), b.label());
        assert_ne!(a.cache_key(0, 42), b.cache_key(0, 42));
        assert_ne!(a.cache_key(0, 42), a.cache_key(0, 43));
        assert_ne!(a.cache_key(0, 42), a.cache_key(1, 42));
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(Workload::Suite(&crate::SUITE[9]).label(), "KR");
        assert_eq!(Workload::Random { n: 8, density: 0.5 }.label(), "d=0.5");
        assert_eq!(Workload::Band { n: 8, width: 16 }.label(), "w=16");
    }

    #[test]
    fn display_of_classes() {
        assert_eq!(WorkloadClass::SuiteSparse.to_string(), "SuiteSparse");
        assert_eq!(WorkloadClass::Random.to_string(), "Random");
        assert_eq!(WorkloadClass::Band.to_string(), "Band");
    }
}
