//! Summary statistics over per-pass and per-image samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0 < p <= 100); NaN for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    v[nearest_rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The arithmetic mean; NaN for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Percentile `p` only when at least [`TAIL_SAMPLES`] samples lie beyond
/// it, so a reported tail is never one or two outliers.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(samples.len().max(1), p);
    (samples.len() >= rank + TAIL_SAMPLES).then(|| percentile(samples, p))
}

/// Fewest samples for which [`tail_percentile`] reports percentile `p`.
pub fn samples_for_tail(p: f64) -> usize {
    (1..)
        .find(|&n| n >= nearest_rank(n, p) + TAIL_SAMPLES)
        .expect("some sample count leaves ten samples beyond any p < 100")
}

/// Geometric mean of positive ratios; NaN for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
