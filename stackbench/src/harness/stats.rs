//! Order statistics: quartiles as Python's `statistics.quantiles(n=4)`
//! gives them (the rule the acceptance driver uses), nearest-rank
//! percentiles, and the "highest percentile with ten samples beyond it"
//! picker.

use crate::harness::metrics::Better;

/// A percentile in per-mille (500 = the median), so rank arithmetic is
/// exact.
pub type PerMille = u32;
pub const P50: PerMille = 500;
pub const P90: PerMille = 900;
pub const P99: PerMille = 990;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// First quartile, median and third quartile of `values`, by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)`.
/// Fewer than two values have no spread: all three are the value itself
/// (0 for none).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0): the run-to-run spread every bound is compared with.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The second-best of a run's per-round values — second-lowest for a
/// latency, second-highest for a rate; the best when there are fewer than
/// three. Co-tenants of the machine slow a round down in bursts of seconds
/// and never speed one up, so a run's quiet rounds say what the program
/// itself costs. Measured on ten disturbed `deep-scan` runs, the run-to-run
/// spread of `open_p50_ms` was 0.10 for the median of rounds, 0.08 for
/// their first quartile and 0.05 for their minimum; the second-best keeps
/// that while not trusting a single lucky round.
pub fn quiet(rounds: &[f64], better: Better) -> f64 {
    let mut sorted = rounds.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    match sorted.as_slice() {
        [] => 0.0,
        [best] | [best, _] => *best,
        [_, second, ..] => *second,
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: PerMille) -> usize {
    (n * p as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of an ascending slice (0 for none).
pub fn percentile(sorted: &[u64], p: PerMille) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports(n: usize, p: PerMille) -> bool {
    n - rank(n, p).min(n) >= MIN_BEYOND
}

/// Percentile `p` of an ascending slice, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_percentile(sorted: &[u64], p: PerMille) -> Option<u64> {
    supports(sorted.len(), p).then(|| percentile(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn degenerate_inputs_have_no_spread() {
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(spread(&[7.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn quiet_is_the_second_best_round() {
        // Twelve of fourteen rounds ran half again as slow.
        let mut lat = vec![29.4; 12];
        lat.extend([18.5, 18.4]);
        assert_eq!(quiet(&lat, Better::Lower), 18.5);
        let rate: Vec<f64> = lat.iter().map(|l| 1000.0 / l).collect();
        assert_eq!(quiet(&rate, Better::Higher), 1000.0 / 18.5);
        // One lucky round is not trusted.
        assert_eq!(quiet(&[10.0, 10.1, 4.0, 10.2], Better::Lower), 10.0);
        assert_eq!(quiet(&[10.0, 20.0], Better::Lower), 10.0);
        assert_eq!(quiet(&[10.0, 20.0], Better::Higher), 20.0);
        assert_eq!(quiet(&[], Better::Lower), 0.0);
        assert_eq!(quiet(&[5.0], Better::Higher), 5.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, P50), 50);
        assert_eq!(percentile(&v, P90), 90);
        assert_eq!(percentile(&v, P99), 99);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&[], P50), 0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        // The highest percentile with ten samples beyond it moves up with n.
        let highest = |n| [P50, P90, P99].into_iter().rev().find(|&p| supports(n, p));
        assert_eq!(highest(19), None);
        assert_eq!(highest(20), Some(P50));
        assert_eq!(highest(99), Some(P50));
        assert_eq!(highest(100), Some(P90));
        assert_eq!(highest(999), Some(P90));
        assert_eq!(highest(1000), Some(P99));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(supported_percentile(&v, P99), None);
        assert_eq!(supported_percentile(&v, P90), Some(900));
    }
}
