//! Summary statistics for host timings.

/// The fewest samples that must lie beyond a reported percentile. A p95
/// over four cells is the top sample with nothing behind it; such a
/// number moves with a single outlier and is refused.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples` (the mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let four: Vec<f64> = (1..=4).map(f64::from).collect();
        assert_eq!(percentile(&four, 95.0), None, "p95 over four cells");
        assert_eq!(percentile(&four, 50.0), None);

        // 150 cold submits: p90 sits at rank 135 with 15 samples beyond.
        let cold: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(percentile(&cold, 90.0), Some(135.0));
        assert_eq!(percentile(&cold, 50.0), Some(75.0));
        assert_eq!(percentile(&cold, 94.0), None, "rank 141 leaves 9 beyond");

        // Exactly ten beyond is enough; nine is not.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50.0), Some(10.0));
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let sorted_answer = percentile(&shuffled, 50.0);
        shuffled.sort_by(f64::total_cmp);
        assert_eq!(percentile(&shuffled, 50.0), sorted_answer);
        assert_eq!(sorted_answer, Some(49.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
