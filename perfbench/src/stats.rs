//! Order statistics over timing samples.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (the same rule
/// as Python's `statistics.quantiles(method="inclusive")`). `NaN` for an
/// empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99 / p90 / p50 that still has at least ten samples
/// above it, so a tail figure is never read off a handful of points.
pub fn tail(samples: &[f64]) -> f64 {
    let n = samples.len();
    let q = if n >= 1000 {
        0.99
    } else if n >= 100 {
        0.9
    } else {
        0.5
    };
    quantile(samples, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&small), median(&small));
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&big), quantile(&big, 0.99));
    }
}
