//! Small summary-statistics helpers.

use std::time::Duration;

/// A duration in milliseconds.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The `q`-quantile of `values` (nearest rank); `0.0` when empty.
pub fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The median of `values`; `0.0` when empty.
pub fn median(values: Vec<f64>) -> f64 {
    quantile(values, 0.5)
}

/// The median of some durations, in milliseconds.
pub fn median_ms(durations: impl Iterator<Item = Duration>) -> f64 {
    median(durations.map(ms).collect())
}

/// `numerator / denominator`, or `0.0` when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}
