//! Shared by the bit-for-bit oracles of both drivers
//! (`parity_kernel_path.rs`, `integration_species.rs`).

use pic_core::kernels::position;
use pic_core::particles::ParticlesSoA;
use pic_core::sim::AnyLayout;

/// The scalar reference push of a whole store under `layout`.
pub fn scalar_push(layout: &AnyLayout, p: &mut ParticlesSoA, ncx: usize, ncy: usize, scale: f64) {
    let ParticlesSoA {
        icell,
        ix,
        iy,
        dx,
        dy,
        vx,
        vy,
    } = p;
    macro_rules! push {
        ($l:expr) => {
            position::update_positions_branchless_layout(icell, ix, iy, dx, dy, vx, vy, $l, scale)
        };
    }
    match layout {
        AnyLayout::RowMajor(_) => {
            position::update_positions_branchless(icell, ix, iy, dx, dy, vx, vy, ncx, ncy, scale)
        }
        AnyLayout::L4D(l) => push!(l),
        AnyLayout::Morton(l) => push!(l),
        AnyLayout::Hilbert(l) => push!(l),
    }
}
