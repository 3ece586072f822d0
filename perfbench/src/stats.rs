//! Sample statistics: nearest-rank percentiles and the tail rule.
//!
//! A timing is reported as its median and a tail: the highest of p90,
//! p95 and p99 that leaves at least [`MIN_BEYOND`] samples beyond it.

/// Samples a tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles considered, highest first.
pub const TAIL_CANDIDATES: [u32; 3] = [99, 95, 90];

/// 1-based nearest rank of percentile `p` in `n` sorted samples.
fn rank(p: u32, n: usize) -> usize {
    ((p as usize * n).div_ceil(100)).clamp(1, n)
}

/// Samples ranked above percentile `p` in a sample of `n`.
pub fn beyond(p: u32, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest tail percentile that `n` samples support, if any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `samples` (sorted in place). Zero for
/// an empty sample.
pub fn percentile(samples: &mut [f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[rank(p, samples.len()) - 1]
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50)
}

/// Arithmetic mean; zero for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median and tail of `samples` (in arrival order) over `windows`
/// equal consecutive windows: each window's median and its tail at the
/// workload's fixed tail percentile, then the median of each across the
/// windows, so one burst of host noise moves a single window. Warns on
/// stderr when a window's size calls for another tail percentile.
pub fn windowed_median_and_tail(
    samples: &[f64],
    windows: usize,
    tail_p: u32,
    what: &str,
) -> (f64, f64) {
    let size = samples.len() / windows.max(1);
    if size == 0 {
        eprintln!(
            "warning: {what}: {} samples for {windows} windows",
            samples.len()
        );
        return (0.0, 0.0);
    }
    let supported = tail_percentile(size);
    if supported != Some(tail_p) {
        eprintln!(
            "warning: {what}: windows of {size} samples support tail {supported:?}, not p{tail_p}",
        );
    }
    let (mut medians, mut tails): (Vec<f64>, Vec<f64>) = samples
        .chunks_exact(size)
        .map(|w| {
            let mut w = w.to_vec();
            (median(&mut w), percentile(&mut w, tail_p))
        })
        .unzip();
    (median(&mut medians), median(&mut tails))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
                // No higher candidate would also have qualified.
                for q in TAIL_CANDIDATES.into_iter().filter(|&q| q > p) {
                    assert!(beyond(q, n) < MIN_BEYOND, "n={n} q={q}");
                }
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50), 50.0);
        assert_eq!(percentile(&mut v, 90), 90.0);
        assert_eq!(percentile(&mut v, 99), 99.0);
        // Exactly ten samples (91..=100) lie beyond p90 of 100.
        assert_eq!(v.iter().filter(|&&x| x > 90.0).count(), beyond(90, 100));
        assert_eq!(percentile(&mut [], 50), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windows_damp_a_burst() {
        // Three windows of 100; a burst of slow samples in the second.
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[100..130] {
            *x += 1000.0;
        }
        let (p50, tail) = windowed_median_and_tail(&v, 3, 90, "test");
        assert_eq!(p50, 49.0);
        assert_eq!(tail, 89.0);
        // One window is the plain median and tail.
        let (p50, tail) = windowed_median_and_tail(&v[..100], 1, 90, "test");
        assert_eq!((p50, tail), (49.0, 89.0));
    }
}
