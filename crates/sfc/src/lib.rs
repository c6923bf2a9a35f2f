//! # sfc — space-filling-curve cell layouts
//!
//! A PIC code stores per-cell grid quantities (the redundant electric-field and
//! charge-density arrays of Barsamian et al., IPDPSW 2017) in a flat array
//! indexed by a *cell index* `icell`. The bijection `(ix, iy) → icell` decides
//! how spatially-close cells map to memory-close indices, and therefore how
//! many cache misses the interpolation/accumulation loops take once particles
//! drift away from their sorted order.
//!
//! This crate implements the four orderings compared in the paper:
//!
//! * [`RowMajor`] — the canonical C layout `icell = ix * ncy + iy`;
//! * [`ColMajor`] — the Fortran twin, included for completeness and testing;
//! * [`L4D`] — “column-major of row-major” tiling (Chatterjee et al. 1999):
//!   narrow vertical tiles of width `SIZE`, row-major inside, column-major
//!   across tiles;
//! * [`Morton`] — Z-order via dilated integers (Raman & Wise 2008), both the
//!   arithmetic (vectorizable) and the lookup-table variants;
//! * [`Hilbert`] — the Hilbert curve via Skilling's transposition algorithm
//!   (AIP Conf. Proc. 707, 2004).
//!
//! All layouts implement the [`CellLayout`] trait. The crate also provides
//! [`locality`] — the index-distance statistics used in the paper's §IV-B
//! argument for why L4D/Morton beat row-major when particles move in both
//! axes.
//!
//! ## Example
//!
//! ```
//! use sfc::{CellLayout, Morton, RowMajor};
//!
//! let m = Morton::new(8, 8).unwrap();
//! // The Z-order of Fig. 3: cell (1,0) is index 2, cell (1,1) is index 3.
//! assert_eq!(m.encode(1, 0), 2);
//! assert_eq!(m.encode(1, 1), 3);
//! assert_eq!(m.decode(3), (1, 1));
//!
//! let r = RowMajor::new(8, 8).unwrap();
//! assert_eq!(r.encode(1, 0), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dilate;
mod hilbert;
mod l4d;
mod linear;
pub mod locality;
mod morton;
pub mod partition;

pub use dilate::{contract_bits, contract_bits_lut, dilate_bits, dilate_bits_lut};
pub use hilbert::Hilbert;
pub use l4d::L4D;
pub use linear::{ColMajor, RowMajor};
pub use morton::{Morton, MortonLut};

/// Error type for layout construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A grid dimension was zero.
    ZeroDimension,
    /// The layout requires power-of-two dimensions but got something else.
    NotPowerOfTwo {
        /// Offending dimension value.
        dim: usize,
    },
    /// The layout requires a square grid but `ncx != ncy`.
    NotSquare {
        /// Number of cells along x.
        ncx: usize,
        /// Number of cells along y.
        ncy: usize,
    },
    /// The L4D tile size was zero or larger than the grid height.
    BadTileSize {
        /// Offending tile size.
        size: usize,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::ZeroDimension => write!(f, "grid dimensions must be nonzero"),
            LayoutError::NotPowerOfTwo { dim } => {
                write!(f, "layout requires power-of-two dimensions, got {dim}")
            }
            LayoutError::NotSquare { ncx, ncy } => {
                write!(f, "layout requires a square grid, got {ncx} x {ncy}")
            }
            LayoutError::BadTileSize { size } => {
                write!(f, "invalid L4D tile size {size}")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// A bijective mapping between 2-D cell coordinates and a flat cell index.
///
/// Implementations must be bijections from `[0, ncx) × [0, ncy)` onto
/// `[0, ncells())`. (`ncells()` may exceed `ncx*ncy` for layouts that pad,
/// e.g. [`L4D`] with a tile size that does not divide `ncy`; padded indices
/// are never produced by `encode`.)
pub trait CellLayout: Send + Sync {
    /// Number of cells along the x axis.
    fn ncx(&self) -> usize;
    /// Number of cells along the y axis.
    fn ncy(&self) -> usize;

    /// Size of the flat array needed to hold all cells (≥ `ncx * ncy`).
    fn ncells(&self) -> usize {
        self.ncx() * self.ncy()
    }

    /// Map cell coordinates to the flat index.
    ///
    /// # Panics
    /// May panic (debug assertions) if `ix >= ncx()` or `iy >= ncy()`.
    fn encode(&self, ix: usize, iy: usize) -> usize;

    /// Inverse of [`encode`](CellLayout::encode).
    fn decode(&self, icell: usize) -> (usize, usize);

    /// Human-readable layout name (used by the bench harnesses).
    fn name(&self) -> &'static str;

    /// Encode a batch of coordinates. The default loops over [`encode`];
    /// layouts override it when a branch-free form auto-vectorizes.
    fn encode_batch(&self, ix: &[usize], iy: &[usize], out: &mut [usize]) {
        assert_eq!(ix.len(), iy.len());
        assert_eq!(ix.len(), out.len());
        for ((o, &x), &y) in out.iter_mut().zip(ix).zip(iy) {
            *o = self.encode(x, y);
        }
    }
}

/// The orderings studied in the paper, as a plain enum for configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]

pub enum Ordering {
    /// Canonical C row-major order.
    RowMajor,
    /// Column-major order.
    ColMajor,
    /// L4D (“column-major of row-major”) with the given tile size.
    L4D(usize),
    /// Morton / Z / Lebesgue order.
    Morton,
    /// Hilbert order.
    Hilbert,
}

impl Ordering {
    /// All orderings compared in the paper's Table II/III, with the paper's
    /// preferred L4D tile size (`SIZE = 8`).
    pub fn paper_set() -> [Ordering; 4] {
        [
            Ordering::RowMajor,
            Ordering::L4D(8),
            Ordering::Morton,
            Ordering::Hilbert,
        ]
    }

    /// Instantiate a boxed layout for a grid.
    pub fn build(self, ncx: usize, ncy: usize) -> Result<Box<dyn CellLayout>, LayoutError> {
        Ok(match self {
            Ordering::RowMajor => Box::new(RowMajor::new(ncx, ncy)?),
            Ordering::ColMajor => Box::new(ColMajor::new(ncx, ncy)?),
            Ordering::L4D(size) => Box::new(L4D::new(ncx, ncy, size)?),
            Ordering::Morton => Box::new(Morton::new(ncx, ncy)?),
            Ordering::Hilbert => Box::new(Hilbert::new(ncx, ncy)?),
        })
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Ordering::RowMajor => "Row-major",
            Ordering::ColMajor => "Col-major",
            Ordering::L4D(_) => "L4D",
            Ordering::Morton => "Morton",
            Ordering::Hilbert => "Hilbert",
        }
    }
}

impl std::fmt::Display for Ordering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ordering::L4D(s) => write!(f, "L4D(SIZE={s})"),
            other => write!(f, "{}", other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bijection(layout: &dyn CellLayout) {
        let (ncx, ncy) = (layout.ncx(), layout.ncy());
        let mut seen = vec![false; layout.ncells()];
        for ix in 0..ncx {
            for iy in 0..ncy {
                let icell = layout.encode(ix, iy);
                assert!(
                    icell < layout.ncells(),
                    "{}: encode({ix},{iy}) = {icell} out of bounds {}",
                    layout.name(),
                    layout.ncells()
                );
                assert!(
                    !seen[icell],
                    "{}: encode({ix},{iy}) = {icell} collides",
                    layout.name()
                );
                seen[icell] = true;
                assert_eq!(
                    layout.decode(icell),
                    (ix, iy),
                    "{}: decode(encode({ix},{iy})) mismatch",
                    layout.name()
                );
            }
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), ncx * ncy);
    }

    #[test]
    fn all_paper_layouts_are_bijections_128() {
        for ord in Ordering::paper_set() {
            let layout = ord.build(128, 128).unwrap();
            check_bijection(layout.as_ref());
        }
    }

    #[test]
    fn all_paper_layouts_are_bijections_small() {
        for ord in Ordering::paper_set() {
            for &(ncx, ncy) in &[(8usize, 8usize), (16, 16), (32, 32)] {
                let layout = ord.build(ncx, ncy).unwrap();
                check_bijection(layout.as_ref());
            }
        }
    }

    #[test]
    fn rectangular_grids_where_supported() {
        // Row/col-major and L4D support rectangles; Morton requires square
        // power-of-two, Hilbert requires square power-of-two.
        check_bijection(&RowMajor::new(16, 64).unwrap());
        check_bijection(&ColMajor::new(16, 64).unwrap());
        check_bijection(&L4D::new(16, 64, 8).unwrap());
        check_bijection(&Morton::new(16, 64).unwrap());
    }

    #[test]
    fn ordering_display_names() {
        assert_eq!(Ordering::RowMajor.to_string(), "Row-major");
        assert_eq!(Ordering::L4D(8).to_string(), "L4D(SIZE=8)");
        assert_eq!(Ordering::Morton.name(), "Morton");
    }

    #[test]
    fn zero_dimension_rejected() {
        assert_eq!(RowMajor::new(0, 8).unwrap_err(), LayoutError::ZeroDimension);
        assert_eq!(Morton::new(8, 0).unwrap_err(), LayoutError::ZeroDimension);
    }

    #[test]
    fn encode_batch_matches_scalar() {
        let layout = Morton::new(32, 32).unwrap();
        let ix: Vec<usize> = (0..32).flat_map(|x| std::iter::repeat_n(x, 32)).collect();
        let iy: Vec<usize> = (0..32).cycle().take(32 * 32).collect();
        let mut out = vec![0usize; ix.len()];
        layout.encode_batch(&ix, &iy, &mut out);
        for i in 0..ix.len() {
            assert_eq!(out[i], layout.encode(ix[i], iy[i]));
        }
    }
}
