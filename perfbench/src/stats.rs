//! The benchmark's own arithmetic: medians, supported tail percentiles,
//! interpolated time-to-accuracy and failure shares.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail percentiles a record may quote, highest first, in per-mille
/// (so the rank arithmetic stays exact in integers).
const TAIL_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a quoted percentile for it to mean
/// anything.
pub const TAIL_SUPPORT: usize = 10;

/// 1-based nearest rank of per-mille percentile `pm` among `n` samples.
fn nearest_rank(n: usize, pm: usize) -> usize {
    (pm * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest tail percentile with at least [`TAIL_SUPPORT`] of `n`
/// samples beyond its nearest rank, if any: 99.9 needs 10 000 samples, 99
/// needs 1 000, 95 needs 200, 90 needs 100, 75 needs 40.
pub fn supported_percentile(n: usize) -> Option<f64> {
    TAIL_PER_MILLE
        .into_iter()
        .find(|&pm| n > 0 && n - nearest_rank(n, pm) >= TAIL_SUPPORT)
        .map(|pm| pm as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0–100, resolved to per-mille) of `xs`; 0
/// for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pm = (p * 10.0).round() as usize;
    v[nearest_rank(v.len(), pm) - 1]
}

/// The reporting rule for repeated timings: the median, plus the highest
/// percentile that has at least [`TAIL_SUPPORT`] samples beyond it, as
/// `(p, value)`.
pub fn median_and_tail(xs: &[f64]) -> (f64, Option<(f64, f64)>) {
    let tail = supported_percentile(xs.len()).map(|p| (p, percentile(xs, p)));
    (median(xs), tail)
}

/// Seconds until the accuracy series first reaches `target`, with the
/// crossing interpolated linearly between the two epoch ends around it.
/// `points` are `(seconds, accuracy)` at epoch ends in time order. A series
/// that starts at or above the target crosses at its first point; one that
/// never reaches it yields `None`.
pub fn interpolated_tta(points: &[(f64, f64)], target: f64) -> Option<f64> {
    let i = points.iter().position(|&(_, acc)| acc >= target)?;
    if i == 0 {
        return Some(points[0].0);
    }
    let (t0, a0) = points[i - 1];
    let (t1, a1) = points[i];
    Some(t0 + (t1 - t0) * (target - a0) / (a1 - a0))
}

/// Share of attempted operations that failed. An operation is one issued
/// assignment or one correctness check; an assignment fails when it ends
/// in a timeout, an invalid result or a stale result.
pub fn failed_share(
    assigned: u64,
    timeouts: u64,
    invalid: u64,
    stale: u64,
    checks: u64,
    failed_checks: u64,
) -> f64 {
    let attempted = assigned + checks;
    if attempted == 0 {
        return 0.0;
    }
    let failed = (timeouts + invalid + stale).min(assigned) + failed_checks.min(checks);
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tta_interpolates_between_epoch_ends() {
        let pts = [(2.0, 0.2), (4.0, 0.3), (6.0, 0.5)];
        // 0.4 lies halfway between 0.3 (t=4) and 0.5 (t=6).
        let t = interpolated_tta(&pts, 0.4).unwrap();
        assert!((t - 5.0).abs() < 1e-12, "{t}");
        // Exactly on an epoch end.
        assert_eq!(interpolated_tta(&pts, 0.3), Some(4.0));
        // Reached in the first epoch: no earlier point to interpolate from.
        assert_eq!(interpolated_tta(&pts, 0.1), Some(2.0));
    }

    #[test]
    fn tta_never_reached_is_none() {
        let pts = [(2.0, 0.2), (4.0, 0.3), (6.0, 0.35)];
        assert_eq!(interpolated_tta(&pts, 0.4), None);
        assert_eq!(interpolated_tta(&[], 0.4), None);
    }

    #[test]
    fn tta_uses_the_first_crossing_of_a_dipping_series() {
        let pts = [(1.0, 0.1), (2.0, 0.5), (3.0, 0.2), (4.0, 0.6)];
        let t = interpolated_tta(&pts, 0.3).unwrap();
        assert!((t - 1.5).abs() < 1e-12, "{t}");
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(39), None);
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(99), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_and_tail_quotes_the_supported_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (m, tail) = median_and_tail(&xs);
        assert_eq!(m, 50.5);
        assert_eq!(tail, Some((90.0, 90.0)));
        let (m, tail) = median_and_tail(&xs[..20]);
        assert_eq!(m, 10.5);
        assert_eq!(tail, None);
    }

    #[test]
    fn failed_share_counts_assignments_and_checks() {
        // 10 assignments, 2 timeouts, 1 invalid, 1 stale; 5 checks, 1 failed.
        let s = failed_share(10, 2, 1, 1, 5, 1);
        assert!((s - 5.0 / 15.0).abs() < 1e-12, "{s}");
        // A clean run.
        assert_eq!(failed_share(50, 0, 0, 0, 4, 0), 0.0);
        // Nothing attempted.
        assert_eq!(failed_share(0, 0, 0, 0, 0, 0), 0.0);
        // Failures can never exceed what was attempted.
        assert_eq!(failed_share(2, 5, 5, 5, 1, 3), 1.0);
    }
}
