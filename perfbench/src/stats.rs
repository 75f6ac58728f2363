//! Order statistics for timing samples.

/// The highest percentile a report may quote needs at least this many
/// samples strictly above it; with fewer, the value is one or two
/// outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `[0, 1]`) of `xs`, plus how many
/// samples lie strictly above the returned rank. `None` when `xs` is
/// empty.
///
/// Nearest rank means the value is always one of the samples: the
/// `ceil(q·n)`-th smallest. For `q = 0.9` and `n = 100` that is the
/// 90th sample, with exactly 10 samples beyond it.
pub fn percentile(xs: &[f64], q: f64) -> Option<(f64, usize)> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The median (mean of the two middle samples for an even count), or
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_a_hundred_samples_has_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some((90.0, 10)));
        assert!(percentile(&xs, 0.9).unwrap().1 >= MIN_BEYOND);
    }

    #[test]
    fn p90_of_fewer_than_a_hundred_samples_is_flagged() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let (v, beyond) = percentile(&xs, 0.9).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(beyond, 9);
        assert!(beyond < MIN_BEYOND);
        // 120 computed jobs (the serve-mix script) clear the rule.
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9).unwrap().1, 12);
    }

    #[test]
    fn percentile_is_order_independent_and_clamped() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), Some((3.0, 2)));
        assert_eq!(percentile(&xs, 0.0), Some((1.0, 4)));
        assert_eq!(percentile(&xs, 1.0), Some((5.0, 0)));
        assert_eq!(percentile(&xs, 7.0), Some((5.0, 0)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
