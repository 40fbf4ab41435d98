//! Order statistics and span arithmetic used by every reported number.
//!
//! Quantiles are nearest-rank: the reported value is always one of the
//! observed samples, never an interpolation or a bucket bound.

/// Nearest-rank quantile of `samples` for `q` in `[0, 1]`: the smallest
/// observed value with at least `ceil(q * n)` samples at or below it.
/// `None` for an empty sample set.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank_index(sorted.len(), q)])
}

/// Zero-based index of the nearest-rank `q` quantile in a sorted sample of
/// length `n > 0`.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// Number of samples strictly beyond the nearest-rank percentile `p`
/// (in percent) of `n` samples.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, f64::from(p) / 100.0)
}

/// Percentiles the tail metric may name, highest first.
pub const TAIL_LADDER: &[u32] = &[99, 95, 90, 80, 75, 50];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// `min_beyond` of `n` samples beyond it, or `None` if even the median
/// does not.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= min_beyond)
}

/// The smallest sample count at which percentile `p` has `min_beyond`
/// samples beyond it.
pub fn samples_needed(p: u32, min_beyond: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= min_beyond)
        .expect("some n satisfies any p < 100")
}

/// Self time of a span over `[start, end)`: its duration minus the part
/// of that interval covered by at least one child span. Children may
/// overlap each other (parallel work) or stick out of the parent; each
/// instant is subtracted at most once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_never_leaves_the_observed_samples() {
        let samples = [0.134, 0.111, 0.02, 5.0, 0.7];
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = nearest_rank(&samples, q).unwrap();
            assert!(samples.contains(&v), "q={q} gave {v}");
        }
        // One sample: every quantile is that sample.
        assert_eq!(nearest_rank(&[0.111], 0.5), Some(0.111));
        assert_eq!(nearest_rank(&[0.111], 0.99), Some(0.111));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_ranks() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&samples, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&samples, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&samples, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10, 10), None);
        assert_eq!(tail_percentile(20, 10), Some(50));
        assert_eq!(tail_percentile(39, 10), Some(50));
        assert_eq!(tail_percentile(40, 10), Some(75));
        assert_eq!(tail_percentile(50, 10), Some(80));
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(tail_percentile(199, 10), Some(90));
        assert_eq!(tail_percentile(200, 10), Some(95));
        assert_eq!(tail_percentile(1000, 10), Some(99));
        for n in 1..500 {
            if let Some(p) = tail_percentile(n, 10) {
                assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
                assert!(samples_needed(p, 10) <= n);
            }
        }
        assert_eq!(samples_needed(80, 10), 50);
        assert_eq!(samples_needed(75, 10), 40);
        assert_eq!(samples_needed(50, 10), 20);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children (work on two threads) count once.
        assert_eq!(self_time(0, 100, &[(10, 60), (40, 80)]), 30);
        // Nested child inside another child.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // Fully covered parent.
        assert_eq!(self_time(0, 100, &[(0, 100)]), 0);
        // Children outside the parent do not count.
        assert_eq!(self_time(0, 100, &[(100, 200)]), 100);
    }
}
