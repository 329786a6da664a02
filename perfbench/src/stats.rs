//! Exact order statistics over recorded samples.
//!
//! Every timed call is kept as its own sample; percentiles are read off
//! the sorted samples (nearest rank), never off a histogram, so a change
//! of a few per cent shows as a few per cent.

/// Nearest-rank percentile of `samples` (`q` in `0..=1`): the smallest
/// sample with at least `q · n` samples at or below it. `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median as the mean of the two middle samples for an even count, the
/// convention of Python's `statistics.median`. 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Samples strictly above the `q` percentile — how many observations a
/// tail percentile rests on.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    match percentile(samples, q) {
        Some(p) => samples.iter().filter(|&&s| s > p).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of recording does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.99), Some(99.0));
    }

    #[test]
    fn p99_tail_count() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(beyond(&s, 0.99), 10);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
