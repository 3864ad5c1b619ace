//! Order statistics and the metric-name grammar shared by every
//! workload.

/// Median of `xs` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three cut points that split `xs` into quartiles, computed like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so figures here match the acceptance arithmetic exactly.
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile, at most `max_pct`, that still has at
/// least [`TAIL_BEYOND`] samples strictly above its nearest-rank
/// position, with its value: `(percentile, value)`. `None` when there
/// are too few samples for any percentile to qualify.
pub fn tail_percentile(xs: &[f64], max_pct: u32) -> Option<(u32, f64)> {
    let v = sorted(xs);
    let n = v.len();
    (1..=max_pct.min(99)).rev().find_map(|p| {
        // Nearest-rank: the smallest rank covering p % of the samples.
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| (p, v[rank - 1]))
    })
}

/// The tail a run reports as `op_p99_ms`: [`tail_percentile`] up to
/// p99, or the maximum (reported as p100) when there are too few
/// samples for any percentile.
pub fn op_tail(xs: &[f64]) -> (u32, f64) {
    tail_percentile(xs, 99).unwrap_or_else(|| (100, xs.iter().copied().fold(0.0, f64::max)))
}

/// `median (q1 .. q3, n samples)` of `xs`, for progress output.
pub fn summary(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some([q1, q2, q3]) => format!("{q2:.4} ({q1:.4} .. {q3:.4}, n={})", xs.len()),
        None => format!("{:.4} (n={})", median(xs), xs.len()),
    }
}

/// True when `name` matches the metric-name grammar `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
