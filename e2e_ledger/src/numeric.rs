//! Order statistics over timing samples.

/// Sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); `NaN`
/// for no samples, so a metric that was never measured cannot pass for
/// a number.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between
/// order statistics; `NaN` for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// What a run reports for a series of timings of one repeated
/// operation: the lower quartile. On a shared box other tenants only
/// ever slow an operation down, in bursts of seconds, so a run's
/// faster samples are the ones that say what the program costs (the
/// recordings behind the choice are in `BENCHMARK.md`, *Noise*). A
/// change to the program moves the whole distribution and this
/// quartile with it.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    percentile(xs, 0.25)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// gives them — the rule the benchmark driver applies to run-to-run
/// spread. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (`None` below two
/// samples or for a zero median).
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.9), 1.9);
        assert_eq!(lower_quartile(&[5.0, 1.0, 2.0, 4.0, 3.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
