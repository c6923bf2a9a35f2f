//! Iterative radix-2 Cooley–Tukey FFT, 1-D and 2-D.
//!
//! The PIC grids in the paper are powers of two (128×128, 256×256), so a
//! radix-2 transform covers every configuration the solver sees. Twiddle
//! factors are precomputed once per [`FftPlan`] — the pattern FFTW calls a
//! *plan* — because the Poisson solve runs every time step.

use crate::{Complex64, SpectralError};
use std::ops::Range;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `X_k = Σ x_n e^{−2πi nk/N}` (no normalization).
    Forward,
    /// `x_n = Σ X_k e^{+2πi nk/N}` (normalized by `1/N` in [`FftPlan::inverse`]).
    Inverse,
}

/// A reusable 1-D FFT plan for a fixed power-of-two length.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal permutation.
    rev: Vec<u32>,
    /// Forward twiddles, grouped per butterfly stage: for stage with
    /// half-block `m`, the `m` factors `e^{−2πi j/(2m)}`, j = 0..m, packed
    /// consecutively (stages m = 1, 2, 4, …, n/2).
    twiddles: Vec<Complex64>,
}

impl FftPlan {
    /// Create a plan for length `n` (must be a power of two ≥ 1).
    pub fn new(n: usize) -> Result<Self, SpectralError> {
        if n == 0 || !n.is_power_of_two() {
            return Err(SpectralError::NotPowerOfTwo { len: n });
        }
        let log2n = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for i in 0..n {
            rev[i] = (rev[i >> 1] >> 1) | (((i & 1) as u32) << (log2n.max(1) - 1));
        }
        if log2n == 0 {
            rev[0] = 0;
        }
        // Total twiddle count: 1 + 2 + 4 + … + n/2 = n − 1.
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut m = 1usize;
        while m < n {
            let step = -std::f64::consts::PI / m as f64;
            for j in 0..m {
                twiddles.push(Complex64::cis(step * j as f64));
            }
            m <<= 1;
        }
        Ok(Self { n, rev, twiddles })
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the plan length is 1 (the transform is the identity).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// In-place forward transform (no normalization).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FFT length mismatch");
        self.transform(data, false);
    }

    /// In-place inverse transform, normalized by `1/N`.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FFT length mismatch");
        self.transform(data, true);
        let inv = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }

    fn transform(&self, data: &mut [Complex64], invert: bool) {
        let n = self.n;
        if n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Butterflies, stage by stage, twiddles read off the packed table.
        let mut m = 1usize;
        let mut toff = 0usize;
        while m < n {
            let tw = &self.twiddles[toff..toff + m];
            for block in data.chunks_exact_mut(2 * m) {
                let (lo, hi) = block.split_at_mut(m);
                for ((u, v), &w) in lo.iter_mut().zip(hi).zip(tw) {
                    let w = if invert { w.conj() } else { w };
                    let x = *u;
                    let t = w * *v;
                    *u = x + t;
                    *v = x - t;
                }
            }
            toff += m;
            m <<= 1;
        }
    }

    /// Transform columns `cols` of `data`, `n` rows of `stride` elements,
    /// in place — the column pass of a 2-D transform without a gather. The
    /// bit reversal swaps row slices and every butterfly runs
    /// `a[c] ± w·b[c]` over the row slices `a`, `b` of its two rows, so each
    /// column sees exactly the operations, in exactly the order, of
    /// [`forward`](Self::forward) / [`inverse`](Self::inverse) on that column
    /// gathered into a buffer: the bits are the same.
    pub(crate) fn transform_cols(
        &self,
        data: &mut [Complex64],
        stride: usize,
        cols: Range<usize>,
        dir: Direction,
    ) {
        let n = self.n;
        let invert = dir == Direction::Inverse;
        let span = |r: usize| r * stride + cols.start..r * stride + cols.end;
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                let (lo, hi) = data.split_at_mut(j * stride);
                lo[span(i)].swap_with_slice(&mut hi[cols.clone()]);
            }
        }
        let mut m = 1usize;
        let mut toff = 0usize;
        while m < n {
            let tw = &self.twiddles[toff..toff + m];
            let mut k = 0;
            while k < n {
                for j in 0..m {
                    let w = if invert { tw[j].conj() } else { tw[j] };
                    let (lo, hi) = data.split_at_mut((k + j + m) * stride);
                    let a = &mut lo[span(k + j)];
                    for (u, v) in a.iter_mut().zip(&mut hi[cols.clone()]) {
                        let x = *u;
                        let t = w * *v;
                        *u = x + t;
                        *v = x - t;
                    }
                }
                k += 2 * m;
            }
            toff += m;
            m <<= 1;
        }
        if invert {
            let inv = 1.0 / n as f64;
            for r in 0..n {
                for z in &mut data[span(r)] {
                    *z = z.scale(inv);
                }
            }
        }
    }

    /// Forward transform of real rows, two rows per complex transform.
    ///
    /// `rows` holds whole rows of `len()` elements. On entry the first row
    /// of every pair holds `a + i·b` — the pair's two real rows packed into
    /// one — and the second row's content is ignored; a trailing unpaired
    /// row (an odd row count) holds its real values in `.re`. On return
    /// every row holds its own full spectrum, unpacked from the packed
    /// transform `Z` by Hermitian symmetry:
    /// `X_a[k] = (Z[k] + conj Z[N−k])/2`, `X_b[k] = (Z[k] − conj Z[N−k])/(2i)`.
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `len()`.
    pub fn forward_real_pairs(&self, rows: &mut [Complex64]) {
        let n = self.n;
        assert_eq!(rows.len() % n, 0, "partial row in real row pass");
        let mut pairs = rows.chunks_exact_mut(2 * n);
        for pair in &mut pairs {
            let (za, zb) = pair.split_at_mut(n);
            self.transform(za, false);
            for k in 0..=n / 2 {
                let kk = (n - k) & (n - 1);
                let (z, zc) = (za[k], za[kk]);
                let xa = Complex64::new((z.re + zc.re) * 0.5, (z.im - zc.im) * 0.5);
                let xb = Complex64::new((z.im + zc.im) * 0.5, (zc.re - z.re) * 0.5);
                // Conjugate images first: at k = kk (0 and N/2) the plain
                // value, with its +0 imaginary part, is the one kept.
                za[kk] = xa.conj();
                zb[kk] = xb.conj();
                za[k] = xa;
                zb[k] = xb;
            }
        }
        let lone = pairs.into_remainder();
        if !lone.is_empty() {
            for z in lone.iter_mut() {
                z.im = 0.0;
            }
            self.transform(lone, false);
        }
    }
}

/// An executor for batches of independent whole-row work — the seam
/// through which a thread pool (which lives upstream of this dependency-free
/// crate) parallelizes the passes of
/// [`PoissonSolver2D::solve_e_pooled`](crate::poisson::PoissonSolver2D::solve_e_pooled).
///
/// The contract of [`run_rows`](Self::run_rows): partition `data` into
/// contiguous blocks of whole `row_len`-element rows and invoke
/// `f(first_row, block)` exactly once per block (possibly concurrently),
/// where `first_row` is the global index of the block's first row. Blocks
/// must cover `data` in order and must not overlap. Implementations choose
/// the block count (≤ [`width`](Self::width)); any partition into whole
/// rows yields identical results because `f` treats rows independently.
pub trait RowExecutor {
    /// Maximum useful concurrency (1 for serial executors).
    fn width(&self) -> usize;

    /// Run `f` over a partition of `data` into whole-row blocks.
    ///
    /// # Panics
    /// Implementations may panic when `data.len()` is not a multiple of
    /// `row_len`.
    fn run_rows(
        &self,
        data: &mut [Complex64],
        row_len: usize,
        f: &(dyn Fn(usize, &mut [Complex64]) + Sync),
    );
}

/// The trivial executor: one block, run on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExec;

impl RowExecutor for SerialExec {
    fn width(&self) -> usize {
        1
    }

    fn run_rows(
        &self,
        data: &mut [Complex64],
        row_len: usize,
        f: &(dyn Fn(usize, &mut [Complex64]) + Sync),
    ) {
        assert_eq!(data.len() % row_len.max(1), 0, "partial row in batch");
        if !data.is_empty() {
            f(0, data);
        }
    }
}

/// Column band of every column pass: 32 `Complex64` (512 B, eight cache
/// lines) per row slice, so a band of a 128-row grid is 64 KiB and stays in
/// L2 through every butterfly stage — through the forward transform, the
/// spectral scale and the inverse of the fused column phase
/// ([`PoissonSolver2D::column_phase`](crate::poisson::PoissonSolver2D::column_phase))
/// — and a 128-column grid still splits into four tiles for the workers of
/// a pooled solve. Swept at 8–128 on 128²–512² (serial and 2-wide): 8 and
/// 16 lose up to 1.5× at 512², 64 and 128 leave a 2-wide pool idle at 128²;
/// 32 is within noise of the best everywhere.
pub(crate) const COL_BAND: usize = 32;

/// A reusable 2-D FFT plan (row–column algorithm) for an `nx × ny` grid
/// stored row-major (`data[ix * ny + iy]`).
#[derive(Debug, Clone)]
pub struct Fft2Plan {
    nx: usize,
    ny: usize,
    /// Length-`ny` plan for the row pass.
    row: FftPlan,
    /// Length-`nx` plan for the column pass — `None` on square grids,
    /// where the row plan's twiddle/bit-reversal tables are reused instead
    /// of being built twice.
    col: Option<FftPlan>,
}

impl Fft2Plan {
    /// Create a plan for an `nx × ny` grid (both powers of two).
    pub fn new(nx: usize, ny: usize) -> Result<Self, SpectralError> {
        if nx == 0 || ny == 0 {
            return Err(SpectralError::ZeroDimension);
        }
        Ok(Self {
            nx,
            ny,
            row: FftPlan::new(ny)?,
            col: (nx != ny).then(|| FftPlan::new(nx)).transpose()?,
        })
    }

    /// The length-`ny` 1-D plan used for the row pass.
    pub fn row_plan(&self) -> &FftPlan {
        &self.row
    }

    /// The length-`nx` 1-D plan used for the column pass (the row plan
    /// itself on square grids).
    pub fn col_plan(&self) -> &FftPlan {
        self.col.as_ref().unwrap_or(&self.row)
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// In-place 2-D forward transform: rows, then columns.
    ///
    /// # Panics
    /// Panics if `data.len() != nx * ny`.
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.nx * self.ny, "2-D FFT size mismatch");
        for r in data.chunks_exact_mut(self.ny) {
            self.row.forward(r);
        }
        self.cols(data, Direction::Forward);
    }

    /// In-place 2-D inverse transform (normalized by `1/(nx·ny)`): columns,
    /// then rows — the reversed composition, so each 1-D pass is undone by
    /// its own inverse in reverse order.
    ///
    /// # Panics
    /// Panics if `data.len() != nx * ny`.
    pub fn inverse(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.nx * self.ny, "2-D FFT size mismatch");
        self.cols(data, Direction::Inverse);
        for r in data.chunks_exact_mut(self.ny) {
            self.row.inverse(r);
        }
    }

    /// Transform every column in place, [`COL_BAND`] columns at a time, with
    /// the butterflies on row slices ([`FftPlan::transform_cols`]).
    fn cols(&self, data: &mut [Complex64], dir: Direction) {
        let ny = self.ny;
        for c0 in (0..ny).step_by(COL_BAND) {
            self.col_plan()
                .transform_cols(data, ny, c0..(c0 + COL_BAND).min(ny), dir);
        }
    }
}

/// Naive `O(N²)` DFT, used as the test oracle.
pub fn dft_naive(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let theta = sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
            acc += x * Complex64::cis(theta);
        }
        *o = if matches!(dir, Direction::Inverse) {
            acc / n as f64
        } else {
            acc
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex64> {
        // Tiny xorshift so the tests stay dependency-free and deterministic.
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| Complex64::new(next(), next())).collect()
    }

    #[test]
    fn length_one_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut d = [Complex64::new(3.5, -1.0)];
        plan.forward(&mut d);
        assert_eq!(d[0], Complex64::new(3.5, -1.0));
        plan.inverse(&mut d);
        assert_eq!(d[0], Complex64::new(3.5, -1.0));
    }

    #[test]
    fn matches_naive_dft() {
        for n in [2usize, 4, 8, 16, 64, 256] {
            let plan = FftPlan::new(n).unwrap();
            let sig = rand_signal(n, 42 + n as u64);
            let mut fast = sig.clone();
            plan.forward(&mut fast);
            let slow = dft_naive(&sig, Direction::Forward);
            for k in 0..n {
                assert!(
                    close(fast[k], slow[k], 1e-9 * n as f64),
                    "n={n} k={k}: {:?} vs {:?}",
                    fast[k],
                    slow[k]
                );
            }
        }
    }

    #[test]
    fn roundtrip_restores_signal() {
        for n in [2usize, 8, 128, 1024] {
            let plan = FftPlan::new(n).unwrap();
            let sig = rand_signal(n, 7);
            let mut d = sig.clone();
            plan.forward(&mut d);
            plan.inverse(&mut d);
            for k in 0..n {
                assert!(close(d[k], sig[k], 1e-12), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn parseval() {
        let n = 512;
        let plan = FftPlan::new(n).unwrap();
        let sig = rand_signal(n, 99);
        let time_energy: f64 = sig.iter().map(|z| z.norm_sqr()).sum();
        let mut d = sig;
        plan.forward(&mut d);
        let freq_energy: f64 = d.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = FftPlan::new(n).unwrap();
        let a = rand_signal(n, 1);
        let b = rand_signal(n, 2);
        let mut sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y.scale(2.5)).collect();
        plan.forward(&mut sum);
        let mut fa = a;
        let mut fb = b;
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        for k in 0..n {
            assert!(close(sum[k], fa[k] + fb[k].scale(2.5), 1e-10));
        }
    }

    #[test]
    fn pure_tone_lands_in_single_bin() {
        let n = 128;
        let plan = FftPlan::new(n).unwrap();
        let k0 = 5;
        let mut d: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        plan.forward(&mut d);
        for (k, z) in d.iter().enumerate() {
            if k == k0 {
                assert!((z.re - n as f64).abs() < 1e-9);
                assert!(z.im.abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leak at bin {k}: {z:?}");
            }
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            FftPlan::new(12),
            Err(SpectralError::NotPowerOfTwo { len: 12 })
        ));
        assert!(matches!(
            FftPlan::new(0),
            Err(SpectralError::NotPowerOfTwo { len: 0 })
        ));
    }

    #[test]
    fn fft2_roundtrip() {
        let (nx, ny) = (16, 32);
        let plan = Fft2Plan::new(nx, ny).unwrap();
        let sig = rand_signal(nx * ny, 1234);
        let mut d = sig.clone();
        plan.forward(&mut d);
        plan.inverse(&mut d);
        for k in 0..nx * ny {
            assert!(close(d[k], sig[k], 1e-12));
        }
    }

    #[test]
    fn fft2_separable_tone() {
        // A 2-D plane wave lands in exactly one 2-D bin.
        let (nx, ny) = (8, 8);
        let plan = Fft2Plan::new(nx, ny).unwrap();
        let (kx, ky) = (3usize, 2usize);
        let mut d: Vec<Complex64> = (0..nx * ny)
            .map(|i| {
                let (ix, iy) = (i / ny, i % ny);
                Complex64::cis(
                    2.0 * std::f64::consts::PI
                        * ((kx * ix) as f64 / nx as f64 + (ky * iy) as f64 / ny as f64),
                )
            })
            .collect();
        plan.forward(&mut d);
        for ix in 0..nx {
            for iy in 0..ny {
                let z = d[ix * ny + iy];
                if (ix, iy) == (kx, ky) {
                    assert!((z.re - (nx * ny) as f64).abs() < 1e-8);
                } else {
                    assert!(z.abs() < 1e-8, "leak at ({ix},{iy})");
                }
            }
        }
    }

    #[test]
    fn square_plan_is_shared() {
        let sq = Fft2Plan::new(64, 64).unwrap();
        assert!(
            std::ptr::eq(sq.row_plan(), sq.col_plan()),
            "square grid should reuse one 1-D plan"
        );
        let rect = Fft2Plan::new(32, 64).unwrap();
        assert!(!std::ptr::eq(rect.row_plan(), rect.col_plan()));
        assert_eq!(rect.row_plan().len(), 64);
        assert_eq!(rect.col_plan().len(), 32);
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    const SHAPES: [(usize, usize); 8] = [
        (8, 8),
        (16, 32),
        (64, 16),
        (32, 4),
        (2, 64),
        (1, 8),
        (8, 1),
        (1, 1),
    ];

    #[test]
    fn column_pass_matches_per_column_transforms_bit_for_bit() {
        // The row-slice column pass against the gather → 1-D transform →
        // scatter it replaced, forward (rows, then columns) and inverse
        // (columns, then rows).
        for (nx, ny) in SHAPES {
            let plan = Fft2Plan::new(nx, ny).unwrap();
            let sig = rand_signal(nx * ny, (nx * 100 + ny) as u64);
            let per_column = |d: &mut [Complex64], dir: Direction| {
                let mut col = vec![Complex64::ZERO; nx];
                for iy in 0..ny {
                    for ix in 0..nx {
                        col[ix] = d[ix * ny + iy];
                    }
                    match dir {
                        Direction::Forward => plan.col_plan().forward(&mut col),
                        Direction::Inverse => plan.col_plan().inverse(&mut col),
                    }
                    for ix in 0..nx {
                        d[ix * ny + iy] = col[ix];
                    }
                }
            };
            let mut fwd = sig.clone();
            for r in fwd.chunks_exact_mut(ny) {
                plan.row_plan().forward(r);
            }
            per_column(&mut fwd, Direction::Forward);
            let mut inv = sig.clone();
            per_column(&mut inv, Direction::Inverse);
            for r in inv.chunks_exact_mut(ny) {
                plan.row_plan().inverse(r);
            }

            let mut d = sig.clone();
            plan.forward(&mut d);
            assert_eq!(bits(&d), bits(&fwd), "forward {nx}x{ny}");
            let mut d = sig.clone();
            plan.inverse(&mut d);
            assert_eq!(bits(&d), bits(&inv), "inverse {nx}x{ny}");
        }
    }

    #[test]
    fn real_row_pairs_unpack_to_the_complex_row_spectra() {
        for n in [1usize, 2, 8, 64] {
            let plan = FftPlan::new(n).unwrap();
            for nrows in [1usize, 2, 3, 6] {
                let real: Vec<f64> = rand_signal(n * nrows, (n * 10 + nrows) as u64)
                    .iter()
                    .map(|z| z.re)
                    .collect();
                // Pack: the first row of each pair carries a + i·b; the
                // second row and a lone row's imaginary part hold garbage.
                let mut rows = vec![Complex64::new(7.0, -3.0); n * nrows];
                for (z, s) in rows.chunks_mut(2 * n).zip(real.chunks(2 * n)) {
                    for i in 0..n {
                        z[i].re = s[i];
                        if s.len() == 2 * n {
                            z[i].im = s[n + i];
                        }
                    }
                }
                plan.forward_real_pairs(&mut rows);
                for (r, got) in rows.chunks(n).enumerate() {
                    let mut want: Vec<Complex64> = real[r * n..(r + 1) * n]
                        .iter()
                        .map(|&x| Complex64::from_re(x))
                        .collect();
                    plan.forward(&mut want);
                    for k in 0..n {
                        assert!(
                            close(got[k], want[k], 1e-12),
                            "n={n} rows={nrows} r={r} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fft2_matches_row_column_naive() {
        let (nx, ny) = (4, 8);
        let plan = Fft2Plan::new(nx, ny).unwrap();
        let sig = rand_signal(nx * ny, 5);
        let mut fast = sig.clone();
        plan.forward(&mut fast);
        // Naive row-column.
        let mut slow = sig;
        for r in slow.chunks_exact_mut(ny) {
            let t = dft_naive(r, Direction::Forward);
            r.copy_from_slice(&t);
        }
        let mut col = vec![Complex64::ZERO; nx];
        for iy in 0..ny {
            for ix in 0..nx {
                col[ix] = slow[ix * ny + iy];
            }
            let t = dft_naive(&col, Direction::Forward);
            for ix in 0..nx {
                slow[ix * ny + iy] = t[ix];
            }
        }
        for k in 0..nx * ny {
            assert!(close(fast[k], slow[k], 1e-9));
        }
    }
}
