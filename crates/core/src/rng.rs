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

    /// Standard normal via Box–Muller on two uniform draws. The first draw
    /// is clamped away from zero so the logarithm is finite.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(f64::EPSILON);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Two independent standard normals from one Box–Muller draw: the
    /// cosine and the sine half of the same radius and angle. The first
    /// uniform is clamped away from zero as in [`normal`](Self::normal).
    #[inline]
    pub fn normal_pair(&mut self) -> (f64, f64) {
        let u1 = self.uniform().max(f64::EPSILON);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        (r * cos, r * sin)
    }
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

    #[test]
    fn normal_moments() {
        let mut r = Rng::seed_from_u64(3);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
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
