//! Exact order statistics over raw samples.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the smallest
/// sample with at least `p`% of all samples at or below it. Sorts in place.
/// `None` for an empty slice.
pub fn nearest_rank<T: Copy + Ord>(samples: &mut [T], p: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Ratio with a zero denominator reading as zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&mut s, 50.0), Some(50));
        assert_eq!(nearest_rank(&mut s, 99.0), Some(99));
        assert_eq!(nearest_rank(&mut s, 100.0), Some(100));
        let mut few = vec![30u64, 10, 20];
        assert_eq!(nearest_rank(&mut few, 50.0), Some(20));
        assert_eq!(nearest_rank(&mut few, 99.0), Some(30));
        assert_eq!(nearest_rank::<u64>(&mut [], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
