//! Summary statistics shared by the simulator's reports and the live
//! driver's summaries.

/// Nearest-rank percentile over an ascending-sorted sample:
/// `percentile(s, 50)` is the median, `percentile(s, 100)` the maximum.
/// `T::default()` (zero) on an empty sample.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: u64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (sorted.len() as u64 * p)
        .div_ceil(100)
        .clamp(1, sorted.len() as u64);
    sorted[rank as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_samples() {
        assert_eq!(percentile::<Duration>(&[], 50), Duration::ZERO);
        assert_eq!(percentile::<i64>(&[], 99), 0);
        let one = [Duration::from_millis(5)];
        assert_eq!(percentile(&one, 1), Duration::from_millis(5));
        assert_eq!(percentile(&one, 100), Duration::from_millis(5));
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 95), Duration::from_millis(95));
        assert_eq!(percentile(&ms, 99), Duration::from_millis(99));
    }
}
