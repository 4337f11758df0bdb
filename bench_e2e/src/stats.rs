//! Percentiles, with the support rule: a percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it; otherwise the
//! highest percentile that has that support is reported instead.

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The percentile actually reported (≤ the one asked for).
    pub q: f64,
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// 1-based nearest rank of quantile `q` over `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of sorted samples (0.0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(q, sorted.len()) - 1]
}

/// Quantile `q` of sorted samples when at least `MIN_BEYOND` samples lie
/// beyond it, else the highest supported quantile (the median when even
/// that lacks support). `None` when there are no samples.
pub fn supported(sorted: &[f64], q: f64) -> Option<Pct> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let mut r = rank(q, n);
    let mut q_used = q;
    if n - r < MIN_BEYOND {
        let highest = n.saturating_sub(MIN_BEYOND).max(rank(0.5, n).min(r));
        if highest < r {
            r = highest;
            q_used = r as f64 / n as f64;
        }
    }
    Some(Pct {
        q: q_used,
        value: sorted[r - 1],
        beyond: n - r,
    })
}

/// Sorts a sample vector for the quantile helpers.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a small set of repeated measurements.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn supported_percentile_is_reported_as_asked() {
        let s = ramp(2000);
        let p = supported(&s, 0.99).unwrap();
        assert_eq!((p.q, p.value, p.beyond), (0.99, 1980.0, 20));
        // Exactly ten beyond is enough.
        let p = supported(&ramp(1000), 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (990.0, 10));
    }

    #[test]
    fn unsupported_percentile_falls_back_to_the_highest_supported() {
        let p = supported(&ramp(500), 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (490.0, 10));
        assert!((p.q - 0.98).abs() < 1e-12);
        // p50 over 500 samples is well supported and untouched.
        let p = supported(&ramp(500), 0.5).unwrap();
        assert_eq!((p.q, p.value, p.beyond), (0.5, 250.0, 250));
    }

    #[test]
    fn tiny_samples_report_the_median() {
        let p = supported(&ramp(8), 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (4.0, 4));
        assert_eq!(supported(&[], 0.5), None);
        assert_eq!(supported(&[3.0], 0.99).unwrap().value, 3.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&ramp(4), 0.5), 2.0);
    }
}
