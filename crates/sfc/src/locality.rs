//! Locality metrics for cell layouts.
//!
//! The paper's §IV-B argues about cache behaviour through the distribution of
//! `|encode(neighbour) − encode(cell)|` for unit moves along each axis: a move
//! whose index delta stays under a cache line (or a few lines) keeps the
//! freshly-loaded field data usable; a large delta forces a reload. This
//! module computes those distributions so the analysis bench can print the
//! paper's 7/8-vs-1/2 argument quantitatively.

use crate::CellLayout;

/// Summary of index deltas produced by unit moves along one axis.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveStats {
    /// Fraction of moves with `|Δicell| == 1`.
    pub unit_fraction: f64,
    /// Fraction of moves with `|Δicell| <= threshold` (see [`axis_move_stats`]).
    pub near_fraction: f64,
    /// Mean `|Δicell|`.
    pub mean_abs_delta: f64,
    /// Maximum `|Δicell|`.
    pub max_abs_delta: usize,
    /// Number of moves sampled.
    pub samples: usize,
}

/// Direction of a unit move on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `ix → ix + 1` (the paper's “vertical” move, Fig. 4 orientation).
    X,
    /// `iy → iy + 1` (the paper's “horizontal” move).
    Y,
}

/// Compute the index-delta statistics for unit moves along `axis`.
///
/// `near_threshold` is the delta (in cells) still considered cache-friendly;
/// with the redundant ρ layout (4 doubles = 32 B per cell) a 64-B line holds
/// 2 cells, so a threshold of 8 covers the paper's L4D stride.
pub fn axis_move_stats(layout: &dyn CellLayout, axis: Axis, near_threshold: usize) -> MoveStats {
    let (ncx, ncy) = (layout.ncx(), layout.ncy());
    let mut samples = 0usize;
    let mut unit = 0usize;
    let mut near = 0usize;
    let mut sum: u128 = 0;
    let mut max = 0usize;
    let (xs, ys) = match axis {
        Axis::X => (ncx - 1, ncy),
        Axis::Y => (ncx, ncy - 1),
    };
    for ix in 0..xs {
        for iy in 0..ys {
            let from = layout.encode(ix, iy);
            let to = match axis {
                Axis::X => layout.encode(ix + 1, iy),
                Axis::Y => layout.encode(ix, iy + 1),
            };
            let d = from.abs_diff(to);
            samples += 1;
            unit += usize::from(d == 1);
            near += usize::from(d <= near_threshold);
            sum += d as u128;
            max = max.max(d);
        }
    }
    MoveStats {
        unit_fraction: unit as f64 / samples as f64,
        near_fraction: near as f64 / samples as f64,
        mean_abs_delta: sum as f64 / samples as f64,
        max_abs_delta: max,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hilbert, RowMajor, L4D};

    #[test]
    fn row_major_y_moves_all_unit() {
        let l = RowMajor::new(128, 128).unwrap();
        let y = axis_move_stats(&l, Axis::Y, 8);
        assert_eq!(y.unit_fraction, 1.0);
        // …and every x move jumps by ncy.
        let x = axis_move_stats(&l, Axis::X, 8);
        assert_eq!(x.unit_fraction, 0.0);
        assert_eq!(x.max_abs_delta, 128);
        assert_eq!(x.mean_abs_delta, 128.0);
    }

    #[test]
    fn l4d_matches_paper_fractions() {
        // §IV-B with SIZE = 8: 7/8 of horizontal (y) moves are unit-stride;
        // all vertical (x) moves jump by exactly 8.
        let l = L4D::new(128, 128, 8).unwrap();
        let y = axis_move_stats(&l, Axis::Y, 8);
        assert!((y.unit_fraction - 7.0 / 8.0).abs() < 0.01);
        let x = axis_move_stats(&l, Axis::X, 8);
        assert_eq!(x.unit_fraction, 0.0);
        assert_eq!(x.max_abs_delta, 8);
        assert_eq!(x.near_fraction, 1.0);
    }

    #[test]
    fn hilbert_has_best_axis_balance() {
        // Hilbert's unit moves are balanced across axes, unlike row-major.
        let h = Hilbert::new(64, 64).unwrap();
        let x = axis_move_stats(&h, Axis::X, 8);
        let y = axis_move_stats(&h, Axis::Y, 8);
        assert!(x.unit_fraction > 0.2);
        assert!(y.unit_fraction > 0.2);
    }

    #[test]
    fn l4d_size_sweep_monotone_x_stride() {
        // Larger SIZE → larger x-move delta (trade-off the bench sweeps).
        for size in [4usize, 8, 16, 32] {
            let l = L4D::new(128, 128, size).unwrap();
            let x = axis_move_stats(&l, Axis::X, size);
            assert_eq!(x.max_abs_delta, size);
        }
    }
}
