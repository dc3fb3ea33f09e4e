//! Order statistics the harness reports: medians, the highest percentile
//! a sample can support, and the quartile spread the bounds are set from.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of `values`; 0 for an empty slice.
///
/// Host noise on a shared machine only ever slows a deterministic
/// computation down, and here it does so for seconds at a time, so the
/// fastest repetition is the steady estimate of what the code costs; the
/// median moves with how much of a run the neighbours took.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// Host seconds of a window timed in `parts` parts per repetition
/// (`times` is repetition-major): each part's fastest repetition, summed.
/// A window is then as fast as its parts were ever seen to be, even when
/// no single repetition escaped the noise.
pub fn best_window(times: &[f64], parts: usize) -> f64 {
    let mut fastest = vec![f64::INFINITY; parts];
    for repetition in times.chunks_exact(parts) {
        for (f, t) in fastest.iter_mut().zip(repetition) {
            *f = f.min(*t);
        }
    }
    if times.len() < parts {
        0.0
    } else {
        fastest.iter().sum()
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the conventional tail percentiles (90, 95, 99, 99.9)
/// that still has at least ten of `n` samples beyond it, or `None` when
/// even p90 does not (fewer than 100 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0].into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method the driver uses). Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = ((i * (ld + 1)) / 4).clamp(1, ld - 1);
        // Taken after the clamp, as Python does: at the clamped ends the
        // weight leaves 0..=4 and the quartile extrapolates.
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the spread the
/// regression bounds are derived from.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_window_takes_each_part_from_its_fastest_repetition() {
        assert_eq!(best(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(best(&[]), 0.0);
        // Two repetitions of three parts; no repetition is fastest overall.
        let times = [1.0, 5.0, 2.0, /* rep 2 */ 4.0, 3.0, 2.5];
        assert_eq!(best_window(&times, 3), 1.0 + 3.0 + 2.0);
        assert_eq!(best_window(&[], 3), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 60.0);
        assert_eq!(percentile(&v, 90.0), 108.0);
        assert_eq!(percentile(&v, 100.0), 120.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        // 120 job reports: 12 beyond p90, only 6 beyond p95.
        assert_eq!(highest_supported_percentile(120), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartile_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
