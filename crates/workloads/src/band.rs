//! Band and diagonal matrices (§3.2, second group).
//!
//! "A band matrix is a sparse matrix, the non-zero entries of which are
//! confined to a diagonal band [...] The width of a band matrix is the
//! number k such that `a[i,j] = 0` if `|i − j| > k/2`. We generate and
//! evaluate band matrices of size 8000 with widths of 2, 4, 16, 32, and 64."

use crate::nonzero_value;
use rand::Rng;
use sparsemat::{Coo, RowPattern};

/// The matrix size the paper's band experiments use.
pub const PAPER_SIZE: usize = 8000;

/// The band widths the paper sweeps in Figs. 6 and 11 (1 = pure diagonal).
pub const PAPER_WIDTHS: [usize; 6] = [1, 2, 4, 16, 32, 64];

/// Generates an `n × n` band matrix of width `k`: every cell with
/// `|i − j| ≤ k/2` holds a non-zero value.
///
/// With `k = 1` this degenerates to the pure diagonal matrix of §3.2
/// ("a type of band matrices consisting of only the main diagonal").
///
/// # Panics
///
/// Panics if `width == 0` (a width-0 band has no cells by the paper's
/// definition, which would make `nnz = 0`; ask for what you mean instead).
pub fn band<R: Rng>(n: usize, width: usize, rng: &mut R) -> Coo<f32> {
    let half = half_width(width);
    let mut coo = Coo::with_capacity(n, n, n * (2 * half + 1));
    for i in 0..n {
        for j in row_span(n, half, i) {
            coo.push(i, j, nonzero_value(rng)).expect("cell in range");
        }
    }
    coo
}

/// The pattern of [`band`]`(n, width, _)`, written row by row: a band's
/// cells do not depend on its values, so no value is drawn and no triplet
/// is made. `None` where [`RowPattern::from_row_major`] declines the
/// shape.
///
/// # Panics
///
/// Panics if `width == 0`, as [`band`] does.
pub fn band_pattern(n: usize, width: usize) -> Option<RowPattern> {
    let half = half_width(width);
    let cells = (0..n).flat_map(|i| row_span(n, half, i).map(move |j| (i, j)));
    RowPattern::from_row_major(n, n, band_nnz(n, width), cells)
}

/// `width / 2`, for a positive band width.
fn half_width(width: usize) -> usize {
    assert!(width > 0, "band width must be positive (1 = diagonal)");
    width / 2
}

/// The columns row `i` of an `n × n` band of half-width `half` fills.
fn row_span(n: usize, half: usize, i: usize) -> std::ops::RangeInclusive<usize> {
    i.saturating_sub(half)..=(i + half).min(n.saturating_sub(1))
}

/// Generates the pure `n × n` diagonal matrix (band width 1).
pub fn diagonal<R: Rng>(n: usize, rng: &mut R) -> Coo<f32> {
    band(n, 1, rng)
}

/// Expected nnz of a full band of width `k` on an `n × n` matrix — used by
/// tests and by the suite registry when matching densities.
pub fn band_nnz(n: usize, width: usize) -> usize {
    let half = width / 2;
    (0..n)
        .map(|i| {
            let span = row_span(n, half, i);
            span.end() - span.start() + 1
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use sparsemat::{Dia, Matrix, Scalar as _};

    #[test]
    fn diagonal_has_exactly_n_entries() {
        let m = diagonal(64, &mut seeded_rng(0));
        assert_eq!(m.nnz(), 64);
        let dia = Dia::from(&m);
        assert!(dia.is_main_diagonal_only());
    }

    #[test]
    fn width_two_is_main_plus_lower_and_upper() {
        // k = 2 → half = 1 → tridiagonal occupancy.
        let m = band(10, 2, &mut seeded_rng(1));
        assert_eq!(m.nnz(), band_nnz(10, 2));
        assert_eq!(m.nnz(), 10 + 9 + 9);
        assert_eq!(Dia::from(&m).offsets(), &[-1, 0, 1]);
    }

    #[test]
    fn entries_respect_the_band_bound() {
        for width in PAPER_WIDTHS {
            let m = band(50, width, &mut seeded_rng(2));
            let half = (width / 2) as isize;
            for t in m.iter() {
                let d = t.col as isize - t.row as isize;
                assert!(d.abs() <= half, "width {width}: offset {d}");
            }
        }
    }

    #[test]
    fn band_fills_every_cell_in_band() {
        let m = band(20, 16, &mut seeded_rng(3));
        assert_eq!(m.nnz(), band_nnz(20, 16));
        let d = m.to_dense();
        for i in 0..20usize {
            for j in 0..20usize {
                let inside = (i as isize - j as isize).unsigned_abs() <= 8;
                assert_eq!(!d[(i, j)].is_zero(), inside, "({i},{j})");
            }
        }
    }

    #[test]
    fn bandwidth_grows_with_width() {
        let widths: Vec<usize> = PAPER_WIDTHS
            .iter()
            .map(|&w| Dia::from(&band(100, w, &mut seeded_rng(4))).bandwidth())
            .collect();
        assert!(widths.windows(2).all(|w| w[0] <= w[1]), "{widths:?}");
    }

    #[test]
    fn the_pattern_is_that_of_the_generated_band() {
        // The diagonal, a tridiagonal, a wide band, and a band wider than
        // the matrix, which fills it.
        for (n, width) in [(40, 1), (40, 2), (200, 64), (20, 100)] {
            let direct = band_pattern(n, width).unwrap();
            let coo = band(n, width, &mut seeded_rng(6));
            assert_eq!(Some(&direct), RowPattern::new(&coo).as_ref(), "{n} {width}");
            assert_eq!(direct.nnz(), band_nnz(n, width));
        }
        assert_eq!(band_pattern(20, 100).unwrap().nnz(), 400);
    }

    #[test]
    #[should_panic(expected = "band width must be positive")]
    fn zero_width_pattern_rejected() {
        band_pattern(8, 0);
    }

    #[test]
    #[should_panic(expected = "band width must be positive")]
    fn zero_width_rejected() {
        band(8, 0, &mut seeded_rng(5));
    }
}
