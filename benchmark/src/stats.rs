//! Order statistics over timing samples.

/// Median of `v` (mean of the two middle values for an even count).
/// `0.0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Samples of a run that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Which sample of a block is its tail when the run is cut into `blocks`
/// blocks and one value is reported for all of them: the `rank`-th largest,
/// with `rank − 1` samples beyond it in every block, so that over the run at
/// least [`TAIL_BEYOND`] samples lie beyond the blocks' tails. One block
/// gives the 11th-largest sample of the run, five to nine the third largest
/// of each block, ten or more the second.
pub fn tail_rank(blocks: usize) -> usize {
    TAIL_BEYOND.div_ceil(blocks.max(1)) + 1
}

/// The `rank`-th largest sample of `v` (1 = the maximum) with the percentile
/// it stands for (p99 for the 11th largest of 1000). With fewer than `rank`
/// samples there is no such sample and the smallest is returned at
/// percentile 0, so the value is still defined and never 0.
pub fn tail(v: &[f64], rank: usize) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < rank {
        return (s[0], 0.0);
    }
    let idx = n - rank.max(1);
    (s[idx], 100.0 * idx as f64 / n as f64)
}

/// `x` is over `limit` — or is not a number, which no limit admits.
pub fn exceeds(x: f64, limit: f64) -> bool {
    x.is_nan() || x > limit
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(v, n=4)` uses: the driver judges run-to-run spread
/// with it, so `--sets` does too.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // Python's rule verbatim, extrapolation beyond the sample range included.
    let at = |q: usize| {
        let m = q * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = (m as f64 - 4.0 * j as f64) / 4.0;
        s[j - 1] + delta * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

/// The quiet decile of a run's blocks: the first decile of `v` when lower is
/// better (times), the ninth when higher is (rates), by linear interpolation
/// between order statistics (`numpy.percentile`'s default), which never
/// leaves the sample range. Whatever else runs on the host can only slow a
/// block down, never speed it up, so the decile on the good side reads the
/// program as long as two blocks of a run were undisturbed, where the median
/// needs half of them and the mean all. Not the best block: an extreme is
/// noisier than the order statistics next to it.
pub fn quiet_decile(v: &[f64], lower_is_better: bool) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let p = if lower_is_better { 0.1 } else { 0.9 };
    let at = p * (s.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    s[lo] + (at - lo as f64) * (s[hi] - s[lo])
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn iqr_share(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_exceeds_every_limit() {
        assert!(exceeds(0.3, 0.25));
        assert!(!exceeds(0.25, 0.25));
        assert!(exceeds(f64::NAN, f64::INFINITY));
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_eleventh_largest_of_one_block() {
        assert_eq!(tail_rank(1), 11);
        // 1000 samples 1..=1000: ten samples (991..=1000) lie beyond 990.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (t, pct) = tail(&v, 11);
        assert_eq!(t, 990.0);
        assert!((pct - 98.9).abs() < 1e-9, "{pct}");
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(tail(&r, 11).0, 990.0);
        // 40 samples: the 11th largest of 1..=40 is 30.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v, 11).0, 30.0);
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond_over_the_run() {
        for blocks in 1..=40 {
            let rank = tail_rank(blocks);
            assert!((rank - 1) * blocks >= TAIL_BEYOND, "{blocks}");
            assert!(rank >= 2, "the maximum alone is never the tail");
        }
        assert_eq!((tail_rank(5), tail_rank(9), tail_rank(10)), (3, 3, 2));
        // third largest of a block of 20: two samples beyond it
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v, 3), (18.0, 85.0));
    }

    #[test]
    fn tail_of_short_series_is_defined() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v, 11), (1.0, 0.0));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v, 11).0, 1.0);
        assert_eq!(tail(&[], 11), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_decile_ignores_a_disturbed_majority() {
        // eleven blocks, eight of them slowed by a neighbour: the decile
        // sits on the second-best block
        let ms = [
            8.0, 11.0, 10.5, 12.0, 7.9, 10.8, 11.5, 10.2, 8.1, 12.5, 11.1,
        ];
        assert_eq!(quiet_decile(&ms, true), 8.0);
        let rate: Vec<f64> = ms.iter().map(|x| 1.0 / x).collect();
        assert_eq!(quiet_decile(&rate, false), 1.0 / 8.0);
        // interpolated between the two best of six; never outside the sample
        assert!((quiet_decile(&[5.0, 1.0, 2.0, 3.0, 4.0, 6.0], true) - 1.5).abs() < 1e-12);
        assert_eq!(quiet_decile(&[3.0], true), 3.0);
        assert_eq!(quiet_decile(&[3.0, 2.0], true), 2.1);
        assert_eq!(quiet_decile(&[], true), 0.0);
    }
}
