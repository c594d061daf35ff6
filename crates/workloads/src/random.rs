//! Uniformly random sparse matrices (§3.2, first group).
//!
//! "The first group includes randomly generated sparse matrices, the density
//! of which varies from 0.0001 to 0.5."

use crate::nonzero_value;
use rand::Rng;
use sparsemat::{Coo, RowPattern};
use std::collections::{HashMap, HashSet};
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

/// A hash set of cells.
type CellSet = HashSet<usize, BuildHasherDefault<CellHasher>>;

/// A bitset of `cells` bits is used while it holds at most this many bits
/// per cell to place: 16 bytes a cell, against about 20 for a hash set
/// sized for twice the target.
const BITS_PER_TARGET: usize = 128;

/// The cells already placed. Only membership is asked, so a bitset and a
/// set answer alike and the draws, and so the matrix, do not depend on
/// which one is used.
enum Placed {
    /// One bit per cell.
    Bits(Vec<u64>),
    /// The placed cells, where a bitset would dwarf them.
    Set(CellSet),
}

impl Placed {
    /// Membership for placing `target` of `cells` cells: a bitset when it
    /// is no larger than the set would be, otherwise the set.
    fn for_draws(cells: usize, target: usize) -> Self {
        if cells / BITS_PER_TARGET <= target {
            Placed::bits(cells)
        } else {
            Placed::set(target)
        }
    }

    fn bits(cells: usize) -> Self {
        Placed::Bits(vec![0; cells.div_ceil(64)])
    }

    fn set(target: usize) -> Self {
        Placed::Set(CellSet::with_capacity_and_hasher(
            target * 2,
            Default::default(),
        ))
    }

    /// Marks `cell` placed; `true` when it was not yet.
    fn insert(&mut self, cell: usize) -> bool {
        match self {
            Placed::Bits(words) => {
                let (word, bit) = (&mut words[cell / 64], 1u64 << (cell % 64));
                let fresh = *word & bit == 0;
                *word |= bit;
                fresh
            }
            Placed::Set(set) => set.insert(cell),
        }
    }
}

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
/// Panics if `density` is not within `[0, 1]`, or if the matrix has more
/// cells than `usize` can count.
pub fn uniform<R: Rng>(nrows: usize, ncols: usize, density: f64, rng: &mut R) -> Coo<f32> {
    uniform_placed(nrows, ncols, density, rng, Placed::for_draws)
}

/// [`uniform`], with `membership(cells, target)` answering which cells
/// are placed.
fn uniform_placed<R: Rng>(
    nrows: usize,
    ncols: usize,
    density: f64,
    rng: &mut R,
    membership: impl FnOnce(usize, usize) -> Placed,
) -> Coo<f32> {
    let (cells, target) = cells_and_target(nrows, ncols, density);
    let mut coo = Coo::with_capacity(nrows, ncols, target);
    if cells == 0 || target == 0 {
        return coo;
    }
    if target * 3 < cells {
        // Sparse regime: sample distinct cells.
        let mut used = membership(cells, target);
        place_sparse(rng, cells, target, &mut used, |rng, cell| {
            coo.push(cell / ncols, cell % ncols, nonzero_value(rng))
                .expect("cell in range");
        });
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
            // Top-up cells join `placed` in draw order.
            let mut used = membership(cells, target);
            for &cell in &placed {
                used.insert(cell);
            }
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

/// The pattern of [`uniform`]`(nrows, ncols, density, rng)`, from the same
/// draws, with no triplet made: equal to `RowPattern::new` of that matrix.
///
/// In the sparse regime each placed cell's value is still drawn, in turn
/// after the cell, so the cells drawn after it are [`uniform`]'s; the
/// pattern is then read off the placed set in row-major order (the bitset
/// scanned, or the set's cells sorted). In the dense regime the values
/// come after every placement and are not drawn: the Bernoulli sweep marks
/// a bitset, the trim is replayed on it and the top-up marks it, and the
/// bitset is scanned. `None` where [`RowPattern::from_row_major`] declines
/// the shape, which happens only to a matrix with few entries.
///
/// # Panics
///
/// As [`uniform`].
pub fn uniform_pattern<R: Rng>(
    nrows: usize,
    ncols: usize,
    density: f64,
    rng: &mut R,
) -> Option<RowPattern> {
    let (cells, target) = cells_and_target(nrows, ncols, density);
    let placed = if cells == 0 || target == 0 {
        Placed::set(0)
    } else if target * 3 < cells {
        let mut used = Placed::for_draws(cells, target);
        place_sparse(rng, cells, target, &mut used, |rng, _| {
            nonzero_value(rng);
        });
        used
    } else {
        dense_placed(rng, cells, target, density)
    };
    let at = |cell: usize| (cell / ncols, cell % ncols);
    match placed {
        Placed::Bits(words) => {
            RowPattern::from_row_major(nrows, ncols, target, set_bits(&words).map(at))
        }
        Placed::Set(set) => {
            let mut cells: Vec<usize> = set.into_iter().collect();
            cells.sort_unstable();
            RowPattern::from_row_major(nrows, ncols, target, cells.into_iter().map(at))
        }
    }
}

/// The cell count of an `nrows × ncols` matrix and the entries `density`
/// places in it.
///
/// # Panics
///
/// Panics if `density` is not within `[0, 1]`, or if the matrix has more
/// cells than `usize` can count.
fn cells_and_target(nrows: usize, ncols: usize, density: f64) -> (usize, usize) {
    assert!(
        (0.0..=1.0).contains(&density),
        "density {density} outside [0, 1]"
    );
    let cells = nrows
        .checked_mul(ncols)
        .unwrap_or_else(|| panic!("a {nrows}x{ncols} matrix has more cells than usize counts"));
    (cells, (density * cells as f64).round() as usize)
}

/// The sparse regime's draws: distinct cells, drawn until `target` are
/// placed in `used`, each fresh one handed to `place` with the generator
/// to draw its value from.
fn place_sparse<R: Rng>(
    rng: &mut R,
    cells: usize,
    target: usize,
    used: &mut Placed,
    mut place: impl FnMut(&mut R, usize),
) {
    let mut placed = 0;
    while placed < target {
        let cell = rng.gen_range(0..cells);
        if used.insert(cell) {
            placed += 1;
            place(rng, cell);
        }
    }
}

/// The dense regime's placement as a bitset, from [`uniform_placed`]'s
/// draws. Its `placed` list holds the swept cells in ascending order
/// before the trim swap-removes drawn positions from it; here a position
/// no swap has overwritten is found as the n-th set bit of the swept
/// bitset, and the few that have are kept in a map, so the list is never
/// held.
fn dense_placed<R: Rng>(rng: &mut R, cells: usize, target: usize, density: f64) -> Placed {
    let mut words = vec![0u64; cells.div_ceil(64)];
    let mut len = 0;
    for cell in 0..cells {
        if rng.gen_bool(density) {
            words[cell / 64] |= 1 << (cell % 64);
            len += 1;
        }
    }
    if len > target {
        // `before[w]`: the set bits in the words before `w`.
        let before: Vec<usize> = words
            .iter()
            .scan(0, |seen, word| {
                let at = *seen;
                *seen += word.count_ones() as usize;
                Some(at)
            })
            .collect();
        let nth = |i: usize| {
            let w = before.partition_point(|&b| b <= i) - 1;
            let mut word = words[w];
            for _ in before[w]..i {
                word &= word - 1;
            }
            w * 64 + word.trailing_zeros() as usize
        };
        let mut moved: HashMap<usize, usize, BuildHasherDefault<CellHasher>> = HashMap::default();
        let mut removed = Vec::with_capacity(len - target);
        while len > target {
            let k = rng.gen_range(0..len);
            let at = |i: usize| moved.get(&i).copied().unwrap_or_else(|| nth(i));
            removed.push(at(k));
            let last = at(len - 1);
            moved.insert(k, last);
            len -= 1;
        }
        for cell in removed {
            words[cell / 64] &= !(1 << (cell % 64));
        }
    }
    let mut used = Placed::Bits(words);
    while len < target {
        if used.insert(rng.gen_range(0..cells)) {
            len += 1;
        }
    }
    used
}

/// The set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
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
    fn bitset_and_set_membership_give_equal_matrices() {
        // Both regimes, and the dense regime's top-up, at every paper
        // density; rectangular, so row and column are not interchangeable.
        for (i, &density) in PAPER_DENSITIES.iter().enumerate() {
            let seed = 40 + i as u64;
            let by_bits = uniform_placed(120, 150, density, &mut seeded_rng(seed), |c, _| {
                Placed::bits(c)
            });
            let by_set = uniform_placed(120, 150, density, &mut seeded_rng(seed), |_, t| {
                Placed::set(t)
            });
            assert_eq!(by_bits, by_set, "density {density}");
            assert_eq!(by_bits, uniform(120, 150, density, &mut seeded_rng(seed)));
        }
    }

    #[test]
    fn the_bitset_is_used_only_where_it_is_no_larger_than_the_set() {
        // d = 1e-2 at n = 8000: 640,000 draws over 64M cells, an 8 MB bitset.
        assert!(matches!(
            Placed::for_draws(64_000_000, 640_000),
            Placed::Bits(_)
        ));
        // d ≤ 1e-3 keeps the set.
        assert!(matches!(
            Placed::for_draws(64_000_000, 64_000),
            Placed::Set(_)
        ));
        // 2^31 × 2^31 at d = 1e-15: 4,612 draws over 2^62 cells. A bitset
        // would need 2^59 bytes; the set is used, and generation finishes.
        let n = 1usize << 31;
        assert!(matches!(Placed::for_draws(n * n, 4612), Placed::Set(_)));
        let m = uniform_square(n, 1e-15, &mut seeded_rng(6));
        assert_eq!(m.nnz(), 4612);
    }

    #[test]
    #[should_panic(expected = "more cells than usize counts")]
    fn rejects_a_cell_count_past_usize() {
        let n = 1usize << 40;
        uniform_square(n, 1e-30, &mut seeded_rng(0));
    }

    /// `RowPattern::new` of [`uniform`]'s matrix: what [`uniform_pattern`]
    /// must equal.
    fn oracle(nrows: usize, ncols: usize, density: f64, seed: u64) -> Option<RowPattern> {
        RowPattern::new(&uniform(nrows, ncols, density, &mut seeded_rng(seed)))
    }

    #[test]
    fn the_pattern_is_that_of_the_generated_matrix_in_every_regime() {
        // Rectangular, so row and column are not interchangeable. At
        // d = 1e-3 the 90 draws over 90,000 cells keep a set; at d = 1e-2
        // the 900 draws keep a bitset; d ≥ 1/3 sweeps.
        let (nrows, ncols) = (250, 360);
        let cells = nrows * ncols;
        assert!(matches!(Placed::for_draws(cells, 90), Placed::Set(_)));
        assert!(matches!(Placed::for_draws(cells, 900), Placed::Bits(_)));
        for density in [0.0, 1e-3, 1e-2, 0.3, 0.5, 1.0] {
            for seed in 0..3 {
                let direct = uniform_pattern(nrows, ncols, density, &mut seeded_rng(seed));
                assert_eq!(direct, oracle(nrows, ncols, density, seed), "d {density}");
                let target = (density * cells as f64).round() as usize;
                assert_eq!(direct.map(|p| p.nnz()), Some(target), "d {density}");
            }
        }
    }

    #[test]
    fn the_dense_pattern_replays_the_trim_and_the_top_up() {
        // d = 0.5 sweeps 90,000 cells for a target of 45,000; the sweep
        // lands over it for some seeds (trimmed) and under for others
        // (topped up).
        let (n, density, target) = (300, 0.5, 45_000);
        let (mut trimmed, mut topped) = (0, 0);
        for seed in 0..12 {
            let mut rng = seeded_rng(seed);
            let swept = (0..n * n).filter(|_| rng.gen_bool(density)).count();
            trimmed += usize::from(swept > target);
            topped += usize::from(swept < target);
            let direct = uniform_pattern(n, n, density, &mut seeded_rng(seed));
            assert_eq!(direct, oracle(n, n, density, seed), "seed {seed}");
        }
        assert!(
            trimmed > 0 && topped > 0,
            "{trimmed} trimmed, {topped} topped up"
        );
    }

    #[test]
    fn a_row_heavy_matrix_has_no_pattern_either_way() {
        // 5 entries over 70,000 rows: past the rows a pattern allows.
        let direct = uniform_pattern(70_000, 70_000, 1e-9, &mut seeded_rng(4));
        assert_eq!(direct, None);
        assert_eq!(oracle(70_000, 70_000, 1e-9, 4), None);
    }

    #[test]
    fn paper_densities_span_the_paper_range() {
        assert_eq!(PAPER_DENSITIES.first(), Some(&0.0001));
        assert_eq!(PAPER_DENSITIES.last(), Some(&0.5));
        assert!(PAPER_DENSITIES.windows(2).all(|w| w[0] < w[1]));
    }
}
