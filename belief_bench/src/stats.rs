//! Order statistics used by the reports and by `compare`.

/// The median of `values` (mean of the middle pair for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `pct`-th percentile (`0 < pct <= 100`).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_PERCENTILES: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// The tail of a latency sample: the highest of [`TAIL_PERCENTILES`] that
/// has at least ten samples beyond it, as `(percentile, value)`. `None`
/// when even p90 has fewer than ten samples beyond it (under 100
/// samples): no tail is reported below that.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|&p| (p, percentile(values, p)))
}

/// Name suffix of a tail percentile: `p90`, `p99`, `p99.9`, …
pub fn tail_label(pct: f64) -> String {
    format!("p{pct}")
}

/// Quartiles `(q1, median, q3)` computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method);
/// every quartile equals the value for a single sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                // Python clamps the index but not the weight, so small
                // samples extrapolate; match it.
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
