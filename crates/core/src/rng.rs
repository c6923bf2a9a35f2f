//! Self-contained pseudo-random number generation.
//!
//! The build targets machines with no network access to a crate registry,
//! so the library carries its own small, well-known generators instead of
//! depending on `rand`:
//!
//! * [`splitmix64`] — the stateless 64-bit finalizer of Steele, Lea &
//!   Flood. Used directly for hashing (fault plans, checksum salts) and to
//!   seed the main generator.
//! * [`Rng`] — xoshiro256++ (Blackman & Vigna), a fast, high-quality
//!   general-purpose generator with a 256-bit state, deterministic in its
//!   seed.
//!
//! All floating-point draws use the conventional 53-bit mantissa
//! construction, so sequences are identical on every platform.
//!
//! Normal draws are made [`LANES`] at a time by [`box_muller_lanes`], whose
//! `ln` and `(sin, cos)(2πu)` are fdlibm's polynomials written branch-free
//! in safe Rust (the lane discipline of [`crate::kernels::simd`]), so the
//! loop over a lane block vectorizes instead of calling libm per particle.

/// One step of the splitmix64 sequence starting at `x`; returns the mixed
/// output. Also usable as a 64-bit hash finalizer.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash an arbitrary sequence of 64-bit words down to one word
/// (splitmix64-based chaining). Deterministic and order-sensitive.
pub fn hash_words(seed: u64, words: &[u64]) -> u64 {
    let mut h = splitmix64(seed);
    for &w in words {
        h = splitmix64(h ^ w);
    }
    h
}

use crate::kernels::simd::LANES;

/// xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Seed deterministically via splitmix64 expansion (the seeding scheme
    /// recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(s);
        }
        // An all-zero state is the one invalid seed for xoshiro.
        if state == [0; 4] {
            state = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        Self { state }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`. `hi` must exceed `lo`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi > lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift (unbiased
    /// enough for simulation sampling; exact rejection is not needed here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fair coin flip.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// An exact binomial draw, `Bin(n, p)`: inversion of one uniform by a
    /// search outward from the mode, alternately down and up, with the
    /// mode's probability in Loader's saddle-point form and its neighbours'
    /// from the ratio `f(k+1)/f(k) = (n−k)p / ((k+1)q)`. No approximation
    /// enters, so the draw has the binomial law up to the rounding of the
    /// probabilities; the search takes about `1.6·√(npq)` steps. A uniform
    /// beyond the mass the rounded probabilities cover is drawn again,
    /// which leaves the law unchanged.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        debug_assert!((0.0..=1.0).contains(&p), "probability {p}");
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        if p > 0.5 {
            // 1 − p is exact here (Sterbenz), and keeps the ratios below 1.
            return n - self.binomial(n, 1.0 - p);
        }
        let r = p / (1.0 - p);
        let mode = (((n + 1) as f64 * p) as u64).min(n);
        let f_mode = ln_binomial_pmf(mode, n, p).exp();
        loop {
            let mut u = self.uniform() - f_mode;
            if u < 0.0 {
                return mode;
            }
            let (mut lo, mut hi, mut f_lo, mut f_hi) = (mode, mode, f_mode, f_mode);
            while (lo > 0 && f_lo > 0.0) || (hi < n && f_hi > 0.0) {
                if lo > 0 && f_lo > 0.0 {
                    f_lo *= lo as f64 / ((n - lo + 1) as f64 * r);
                    lo -= 1;
                    u -= f_lo;
                    if u < 0.0 {
                        return lo;
                    }
                }
                if hi < n && f_hi > 0.0 {
                    f_hi *= (n - hi) as f64 * r / (hi + 1) as f64;
                    hi += 1;
                    u -= f_hi;
                    if u < 0.0 {
                        return hi;
                    }
                }
            }
        }
    }
}

/// `ln P(K = k)` for `K ~ Bin(n, p)`, by Loader's saddle-point form
/// ("Fast and accurate computation of binomial probabilities", 2000): the
/// Stirling errors of `n`, `k` and `n − k` and two deviance terms, so no
/// large logarithms cancel and the result is accurate to about 1e-14 at
/// any `n`.
fn ln_binomial_pmf(k: u64, n: u64, p: f64) -> f64 {
    debug_assert!(k <= n && (0.0..=1.0).contains(&p));
    let (kf, nf, q) = (k as f64, n as f64, 1.0 - p);
    if k == 0 {
        return nf * (-p).ln_1p();
    }
    if k == n {
        return nf * p.ln();
    }
    let m = nf - kf;
    let lc = stirling_error(nf)
        - stirling_error(kf)
        - stirling_error(m)
        - deviance(kf, nf * p)
        - deviance(m, nf * q);
    let lf = (2.0 * std::f64::consts::PI).ln() + kf.ln() + (-kf / nf).ln_1p();
    lc - 0.5 * lf
}

/// `ln k! − ln(√(2πk)·(k/e)^k)` for an integer `k ≥ 1`: from `k!` itself
/// up to 15 (exact in `f64`), else the Stirling series to `k⁻⁹`, whose
/// next term is below 1e-16 there.
fn stirling_error(k: f64) -> f64 {
    if k <= 15.0 {
        let factorial: f64 = (2..=k as u64).map(|j| j as f64).product();
        let ln_sqrt_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        return factorial.ln() - (k + 0.5) * k.ln() + k - ln_sqrt_2pi;
    }
    let k2 = k * k;
    let (s0, s1, s2, s3, s4) = (1. / 12., 1. / 360., 1. / 1260., 1. / 1680., 1. / 1188.);
    (s0 - (s1 - (s2 - (s3 - s4 / k2) / k2) / k2) / k2) / k
}

/// The deviance `x·ln(x/m) + m − x`, by its series in `(x − m)/(x + m)`
/// when `x` is near `m`, where the direct form would cancel.
fn deviance(x: f64, m: f64) -> f64 {
    if (x - m).abs() < 0.1 * (x + m) {
        let v = (x - m) / (x + m);
        let mut s = (x - m) * v;
        let mut term = 2.0 * x * v;
        for j in 1..100 {
            term *= v * v;
            let next = s + term / (2 * j + 1) as f64;
            if next == s {
                break;
            }
            s = next;
        }
        return s;
    }
    x * (x / m).ln() + m - x
}

/// 1.5 × 2⁵²: for `|x| < 2⁵¹`, `x + MAGIC` rounds `x` to the nearest
/// integer (ties to even) exactly, and that integer's two's-complement low
/// bits are the low mantissa bits of the sum (as in
/// [`crate::kernels::simd`]).
const MAGIC: f64 = 6_755_399_441_055_744.0;

// fdlibm `e_log.c`: ln 2 split so that `k·LN2_HI` is exact, and the
// minimax coefficients of `R(z) ≈ (ln(1+f) − 2s)/s − …` in `z = s²`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000); // 6.93147180369123816490e-01
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76); // 1.90821492927058770002e-10
const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593); // 6.666666666666735130e-01
const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04); // 3.999999999940941908e-01
const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359); // 2.857142874366239149e-01
const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF); // 2.222219843214978396e-01
const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE); // 1.818357216161805012e-01
const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F); // 1.531383769920937332e-01
const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244); // 1.479819860511658591e-01

/// Natural logarithm of a positive normal `x`: fdlibm's `__ieee754_log`
/// without its branches. `x = 2ᵏ·m` with `m ∈ [√2/2, √2)`, `f = m − 1`,
/// `s = f/(2 + f)`, and `ln x = k·ln 2 + f − s·(f − R)` (or the `f²/2`
/// form fdlibm uses for `m` near 1.4), both computed and one selected per
/// lane. Within 1 ulp of `f64::ln` (`tests::ln_is_within_one_ulp_of_std`).
/// Zero, subnormals, negatives, infinities and NaN are not handled: the
/// one caller clamps its argument to `[ε, 1)`.
#[inline(always)]
pub(crate) fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let hx = bits >> 32;
    let m = hx & 0x000F_FFFF;
    // 0x10_0000 when the mantissa is at least √2 − ε: then halve it
    // (exponent 0x3FE instead of 0x3FF) and count one more power of two.
    let i = (m + 0x9_5F64) & 0x10_0000;
    let f = f64::from_bits(((m | (i ^ 0x3FF0_0000)) << 32) | (bits & 0xFFFF_FFFF)) - 1.0;
    let k = (hx >> 20) as i64 - 1023 + (i >> 20) as i64;
    let s = f / (2.0 + f);
    let dk = k as f64;
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let near_sqrt2 = dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f);
    let elsewhere = dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f);
    if (0x6_147A..=0x6_B851).contains(&m) {
        near_sqrt2
    } else {
        elsewhere
    }
}

// fdlibm `k_sin.c` / `k_cos.c` minimax coefficients on [−π/4, π/4], and
// the reduction constants of `e_rem_pio2.c`: π/2 in a 33-bit head (so
// `n·PIO2_1` is exact for small `n`) plus its tail.
const S1: f64 = f64::from_bits(0xBFC5_5555_5555_5549); // -1.66666666666666324348e-01
const S2: f64 = f64::from_bits(0x3F81_1111_1110_F8A6); // 8.33333333332248946124e-03
const S3: f64 = f64::from_bits(0xBF2A_01A0_19C1_61D5); // -1.98412698298579493134e-04
const S4: f64 = f64::from_bits(0x3EC7_1DE3_57B1_FE7D); // 2.75573137070700676789e-06
const S5: f64 = f64::from_bits(0xBE5A_E5E6_8A2B_9CEB); // -2.50507602534068634195e-08
const S6: f64 = f64::from_bits(0x3DE5_D93A_5ACF_D57C); // 1.58969099521155010221e-10
const C1: f64 = f64::from_bits(0x3FA5_5555_5555_554C); // 4.16666666666666019037e-02
const C2: f64 = f64::from_bits(0xBF56_C16C_16C1_5177); // -1.38888888888741095749e-03
const C3: f64 = f64::from_bits(0x3EFA_01A0_19CB_1590); // 2.48015872894767294178e-05
const C4: f64 = f64::from_bits(0xBE92_7E4F_809C_52AD); // -2.75573143513906633035e-07
const C5: f64 = f64::from_bits(0x3E21_EE9E_BDB4_B1C4); // 2.08757232129817482790e-09
const C6: f64 = f64::from_bits(0xBDA8_FAE9_BE88_38D4); // -1.13596475577881948265e-11
const INV_PIO2: f64 = f64::from_bits(0x3FE4_5F30_6DC9_C883); // 6.36619772367581382433e-01
const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000); // 1.57079632673412561417e+00
const PIO2_1T: f64 = f64::from_bits(0x3DD0_B461_1A62_6331); // 6.07710050650619224932e-11

/// `(sin θ, cos θ)` of `θ = fl(2π·u)` for `u ∈ [0, 1)` — the angle
/// `(2.0 * PI * u).sin_cos()` takes. `θ` is reduced by the nearest
/// multiple `n·π/2` (`n ≤ 4`, so the head `θ − n·PIO2_1` is exact) to a
/// head-and-tail `y₀ + y₁` in `[−π/4, π/4]`, fdlibm's kernels evaluate
/// `sin` and `cos` of it, and `n mod 4` swaps and negates them. No branch,
/// no table: a lane block of these vectorizes.
#[inline(always)]
pub(crate) fn sin_cos_tau(u: f64) -> (f64, f64) {
    let x = std::f64::consts::TAU * u;
    let t = x * INV_PIO2 + MAGIC;
    let q = t.to_bits();
    let n = t - MAGIC;
    let r = x - n * PIO2_1;
    let w = n * PIO2_1T;
    let y0 = r - w;
    let y1 = (r - y0) - w;

    let z = y0 * y0;
    let w = z * z;
    let v = z * y0;
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * S1);
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_hz = 1.0 - hz;
    let cos = one_hz + (((1.0 - one_hz) - hz) + (z * rc - y0 * y1));

    // θ = n·π/2 + y: odd n swaps the pair, n ∈ {2, 3} negates sin and
    // n ∈ {1, 2} negates cos.
    let (s, c) = if q & 1 == 0 { (sin, cos) } else { (cos, sin) };
    let negate = |v: f64, bit: u64| f64::from_bits(v.to_bits() ^ ((bit & 2) << 62));
    (negate(s, q), negate(c, q + 1))
}

/// Standard normal pairs, one per lane: the Box–Muller transform
/// `(r cos θ, r sin θ)` with `r = √(−2 ln max(u₁, ε))` and `θ = 2π·u₂`
/// (the first uniform is clamped away from zero so the logarithm is
/// finite). Each lane's pair is a function of its own two uniforms only,
/// so a particle's value does not depend on the block it shares; against
/// the libm transform the pair moves by at most a few `ε·r`.
#[inline]
pub(crate) fn box_muller_lanes(
    u1: &[f64; LANES],
    u2: &[f64; LANES],
) -> ([f64; LANES], [f64; LANES]) {
    let mut gx = [0.0; LANES];
    let mut gy = [0.0; LANES];
    for l in 0..LANES {
        let r = (-2.0 * ln(u1[l].max(f64::EPSILON))).sqrt();
        let (sin, cos) = sin_cos_tau(u2[l]);
        gx[l] = r * cos;
        gy[l] = r * sin;
    }
    (gx, gy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut r = Rng::seed_from_u64(2);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| r.uniform()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }

    /// Distance from `got` to `want` in units of `want`'s ulp.
    fn ulps(got: f64, want: f64) -> f64 {
        let ulp = f64::from_bits(want.abs().to_bits() + 1) - want.abs();
        (got - want).abs() / ulp
    }

    /// Swept uniforms: every 53-bit draw shape — random, the edges of the
    /// range, powers of two and their neighbours, and the octant edges
    /// k/8 with theirs.
    fn swept_uniforms() -> Vec<f64> {
        let mut r = Rng::seed_from_u64(0x1a9e);
        let mut u: Vec<f64> = (0..200_000).map(|_| r.uniform()).collect();
        let step = 1.0 / (1u64 << 53) as f64;
        u.extend([f64::EPSILON, 1.0 - step, 0.5 - step, 0.5]);
        for e in 1..=53 {
            let p = 0.5f64.powi(e);
            u.extend([p, p + step, (p - step).max(step)]);
        }
        for k in 0..8 {
            let edge = k as f64 / 8.0;
            u.extend([edge, edge + step, (edge - step).max(0.0)]);
        }
        // Small uniforms, where ln is steep: 2⁻⁵² … 2⁻¹⁰ in random steps.
        u.extend((0..20_000).map(|_| (r.uniform() * 1e-3).max(f64::EPSILON)));
        u
    }

    #[test]
    fn ln_is_within_one_ulp_of_std() {
        let mut worst = 0.0f64;
        for u in swept_uniforms().into_iter().filter(|&u| u >= f64::EPSILON) {
            let e = ulps(ln(u), u.ln());
            assert!(
                e <= 1.0,
                "ln({u:e}) = {} vs std {} ({e} ulp)",
                ln(u),
                u.ln()
            );
            worst = worst.max(e);
        }
        // Beyond the unit interval too: the reduction covers every
        // positive normal.
        for x in [1.0, 1.5, 2.0, 3.0, 1e10, 1e300, f64::MIN_POSITIVE] {
            assert!(ulps(ln(x), x.ln()) <= 1.0, "ln({x:e})");
        }
        assert!(worst > 0.0, "the sweep reached rounded results");
        assert_eq!(ln(1.0), 0.0);
    }

    #[test]
    fn sin_cos_tau_is_within_one_ulp_of_std() {
        for u in swept_uniforms() {
            let (s, c) = sin_cos_tau(u);
            let (ws, wc) = (std::f64::consts::TAU * u).sin_cos();
            // Near a zero of sin or cos the ulp of the result shrinks
            // without bound, while the argument carries ε/2 of θ: measure
            // against the larger of the result's ulp and ε/2.
            for (what, got, want) in [("sin", s, ws), ("cos", c, wc)] {
                let err = (got - want).abs();
                let ulp = f64::from_bits(want.abs().to_bits() + 1) - want.abs();
                assert!(
                    err <= ulp.max(f64::EPSILON / 2.0),
                    "{what}(2π·{u:e}) = {got:e} vs std {want:e}"
                );
            }
        }
        // The octant edges, exactly.
        let (s, c) = sin_cos_tau(0.0);
        assert_eq!((s, c), (0.0, 1.0));
        let (s, c) = sin_cos_tau(0.25);
        assert!((s - 1.0).abs() <= f64::EPSILON && c.abs() <= f64::EPSILON);
        let (s, c) = sin_cos_tau(0.5);
        assert!(s.abs() <= f64::EPSILON && (c + 1.0).abs() <= f64::EPSILON);
    }

    #[test]
    fn box_muller_lanes_match_the_libm_transform() {
        let u = swept_uniforms();
        let mut r = Rng::seed_from_u64(0xb0c5);
        // The swept values as u₁ with random u₂, then as u₂ with random
        // u₁; u₁ = 0 takes the clamp to ε.
        let mut pairs: Vec<(f64, f64)> = u.iter().map(|&a| (a, r.uniform())).collect();
        pairs.extend(u.iter().map(|&b| (r.uniform(), b)));
        pairs.push((0.0, 0.3));
        for block in pairs.chunks(LANES) {
            let mut u1 = [0.5; LANES];
            let mut u2 = [0.5; LANES];
            for (l, &(a, b)) in block.iter().enumerate() {
                (u1[l], u2[l]) = (a, b);
            }
            let (gx, gy) = box_muller_lanes(&u1, &u2);
            for l in 0..block.len() {
                let radius = (-2.0 * u1[l].max(f64::EPSILON).ln()).sqrt();
                let (s, c) = (std::f64::consts::TAU * u2[l]).sin_cos();
                let tol = 4.0 * f64::EPSILON * radius;
                assert!((gx[l] - radius * c).abs() <= tol, "u = {:?}", block[l]);
                assert!((gy[l] - radius * s).abs() <= tol, "u = {:?}", block[l]);
            }
        }
    }

    #[test]
    fn box_muller_moments() {
        let mut r = Rng::seed_from_u64(3);
        let n = 100_000;
        let mut draws = Vec::with_capacity(2 * n);
        for _ in 0..n / LANES {
            let u1: [f64; LANES] = std::array::from_fn(|_| r.uniform());
            let u2: [f64; LANES] = std::array::from_fn(|_| r.uniform());
            let (gx, gy) = box_muller_lanes(&u1, &u2);
            draws.extend(gx);
            draws.extend(gy);
        }
        let m = draws.len() as f64;
        let mean = draws.iter().sum::<f64>() / m;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / m;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::seed_from_u64(4);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let k = r.below(8) as usize;
            assert!(k < 8);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut r = Rng::seed_from_u64(5);
        let heads = (0..10_000).filter(|_| r.coin()).count();
        assert!((4700..5300).contains(&heads), "heads {heads}");
    }

    #[test]
    fn hash_words_is_order_sensitive() {
        assert_ne!(hash_words(0, &[1, 2]), hash_words(0, &[2, 1]));
        assert_eq!(hash_words(9, &[1, 2]), hash_words(9, &[1, 2]));
        assert_ne!(hash_words(9, &[1, 2]), hash_words(10, &[1, 2]));
    }
}
