//! The STREAM kernels (McCalpin 1995) — the sustained-bandwidth ceiling the
//! paper compares its particle loops against in Fig. 8.
//!
//! Four canonical kernels over `f64` arrays: copy (`c = a`), scale
//! (`b = s·c`), add (`c = a + b`), triad (`a = b + s·c`). Bandwidth counts
//! bytes read + written per element, as STREAM does (2, 2, 3, 3 × 8 bytes).
//! Parallelism comes from `pic_core::par` scoped threads: each kernel splits
//! its arrays into `threads` contiguous chunks, one per worker.

use std::time::Instant;

/// Result of one kernel run.
#[derive(Debug, Clone, Copy)]
pub struct StreamResult {
    /// Best (max) bandwidth over the repetitions, bytes/second.
    pub best_bytes_per_s: f64,
    /// Mean bandwidth, bytes/second.
    pub mean_bytes_per_s: f64,
}

impl StreamResult {
    /// Best bandwidth in GB/s (decimal).
    pub fn gbs(&self) -> f64 {
        self.best_bytes_per_s / 1e9
    }
}

fn time_kernel(reps: usize, bytes_per_rep: f64, mut f: impl FnMut()) -> StreamResult {
    let mut best = f64::MAX;
    let mut total = 0.0;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
    }
    StreamResult {
        best_bytes_per_s: bytes_per_rep / best,
        mean_bytes_per_s: bytes_per_rep * reps as f64 / total,
    }
}

/// Chunk length that splits `n` elements across `threads` workers.
fn chunk_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1)).max(1)
}

/// STREAM triad `a = b + s·c`, parallel over `threads` workers.
pub fn triad(n: usize, reps: usize, threads: usize) -> StreamResult {
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let s = 3.0f64;
    let len = chunk_len(n, threads);
    let r = time_kernel(reps, (3 * 8 * n) as f64, || {
        let work: Vec<_> = a
            .chunks_mut(len)
            .zip(b.chunks(len).zip(c.chunks(len)))
            .collect();
        crate::par::for_each(work, |(a, (b, c))| {
            for i in 0..a.len() {
                a[i] = b[i] + s * c[i];
            }
        });
    });
    assert_eq!(a[0], 1.5 + 3.0 * 2.5);
    r
}

/// STREAM copy `c = a`.
pub fn copy(n: usize, reps: usize, threads: usize) -> StreamResult {
    let a = vec![1.0f64; n];
    let mut c = vec![0.0f64; n];
    let len = chunk_len(n, threads);
    let r = time_kernel(reps, (2 * 8 * n) as f64, || {
        let work: Vec<_> = c.chunks_mut(len).zip(a.chunks(len)).collect();
        crate::par::for_each(work, |(c, a)| c.copy_from_slice(a));
    });
    assert_eq!(c[0], 1.0);
    r
}

/// STREAM scale `b = s·c`.
pub fn scale(n: usize, reps: usize, threads: usize) -> StreamResult {
    let c = vec![2.0f64; n];
    let mut b = vec![0.0f64; n];
    let s = 0.5f64;
    let len = chunk_len(n, threads);
    let r = time_kernel(reps, (2 * 8 * n) as f64, || {
        let work: Vec<_> = b.chunks_mut(len).zip(c.chunks(len)).collect();
        crate::par::for_each(work, |(b, c)| {
            for i in 0..b.len() {
                b[i] = s * c[i];
            }
        });
    });
    assert_eq!(b[0], 1.0);
    r
}

/// STREAM add `c = a + b`.
pub fn add(n: usize, reps: usize, threads: usize) -> StreamResult {
    let a = vec![1.0f64; n];
    let b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    let len = chunk_len(n, threads);
    let r = time_kernel(reps, (3 * 8 * n) as f64, || {
        let work: Vec<_> = c
            .chunks_mut(len)
            .zip(a.chunks(len).zip(b.chunks(len)))
            .collect();
        crate::par::for_each(work, |(c, (a, b))| {
            for i in 0..c.len() {
                c[i] = a[i] + b[i];
            }
        });
    });
    assert_eq!(c[0], 3.0);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_run_and_report_positive_bandwidth() {
        let n = 1 << 16;
        for r in [copy(n, 3, 2), scale(n, 3, 2), add(n, 3, 2), triad(n, 3, 2)] {
            assert!(r.best_bytes_per_s > 0.0);
            assert!(r.mean_bytes_per_s > 0.0);
            assert!(r.best_bytes_per_s >= r.mean_bytes_per_s * 0.99);
        }
    }
}
