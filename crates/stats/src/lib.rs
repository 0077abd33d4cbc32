//! # zkvmopt-stats
//!
//! The statistics the paper reports: Kendall's τ-b and Pearson's r
//! (Table 2's monotonicity/linearity analysis), plus summary statistics
//! (Table 6) and percent-change helpers used by every figure.

// Untrusted input fails as a value, never a panic: a site that must panic
// carries `#[expect(<lint>, reason = "<the invariant>")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

/// Arithmetic mean. Returns 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median (averages the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-300).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Pearson correlation coefficient. Returns 0 when either side is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let (mx, my) = (mean(xs), mean(ys));
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for i in 0..n {
        let (dx, dy) = (xs[i] - mx, ys[i] - my);
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Kendall's τ-b rank correlation (tie-corrected), O(n²) — fine for the
/// study's per-benchmark sample sizes.
pub fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_x = 0i64;
    let mut ties_y = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let dx = xs[i] - xs[j];
            let dy = ys[i] - ys[j];
            if dx == 0.0 && dy == 0.0 {
                // tied in both: contributes to both tie counts
                ties_x += 1;
                ties_y += 1;
            } else if dx == 0.0 {
                ties_x += 1;
            } else if dy == 0.0 {
                ties_y += 1;
            } else if dx * dy > 0.0 {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - ties_x) as f64) * ((n0 - ties_y) as f64)).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (concordant - discordant) as f64 / denom
}

/// Z-score of `x` against a population with the given `mean` and standard
/// deviation. A degenerate population (`sd == 0`, or non-finite) maps every
/// value to `0.0`, so constant feature dimensions contribute nothing to a
/// normalized distance instead of producing NaN/∞.
pub fn zscore(x: f64, mean: f64, sd: f64) -> f64 {
    if sd == 0.0 || !sd.is_finite() {
        0.0
    } else {
        (x - mean) / sd
    }
}

/// Per-column mean and population standard deviation over `rows` of equal
/// width — the normalization parameters a k-NN predictor fits once per
/// database. Returns `(means, std_devs)`, each `width` long; empty input
/// yields empty vectors.
///
/// # Panics
/// Panics when rows disagree on width.
pub fn column_stats(rows: &[&[f64]]) -> (Vec<f64>, Vec<f64>) {
    let Some(first) = rows.first() else {
        return (Vec::new(), Vec::new());
    };
    let width = first.len();
    let mut means = vec![0.0; width];
    let mut sds = vec![0.0; width];
    for col in 0..width {
        let xs: Vec<f64> = rows
            .iter()
            .map(|r| {
                assert_eq!(r.len(), width, "ragged feature rows");
                r[col]
            })
            .collect();
        means[col] = mean(&xs);
        sds[col] = std_dev(&xs);
    }
    (means, sds)
}

/// Percent change of `new` relative to `old` (positive = increase).
pub fn pct_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    (new - old) / old * 100.0
}

/// Performance gain of `new` over `old` in the paper's convention:
/// positive when `new` is *faster* (smaller time/cycles).
pub fn perf_gain(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    (old - new) / old * 100.0
}

/// Summary block used by Table 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub median: f64,
}

/// Compute min/max/mean/median in one pass.
pub fn summarize(xs: &[f64]) -> Summary {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Summary {
        min: if xs.is_empty() { 0.0 } else { min },
        max: if xs.is_empty() { 0.0 } else { max },
        mean: mean(xs),
        median: median(xs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((std_dev(&xs) - 1.118).abs() < 1e-3);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let inv = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &inv) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[5.0; 4]), 0.0);
    }

    #[test]
    fn kendall_known_values() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((kendall_tau(&xs, &ys) - 1.0).abs() < 1e-12);
        let rev = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&xs, &rev) + 1.0).abs() < 1e-12);
        // One swap: (1,2,4,3,5) vs identity: 9 concordant, 1 discordant.
        let y2 = [1.0, 2.0, 4.0, 3.0, 5.0];
        assert!((kendall_tau(&xs, &y2) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn kendall_is_bounded_and_symmetric() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let ys = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0];
        let t = kendall_tau(&xs, &ys);
        assert!((-1.0..=1.0).contains(&t));
        assert!((kendall_tau(&ys, &xs) - t).abs() < 1e-12);
    }

    #[test]
    fn zscore_normalizes_and_degenerates_to_zero() {
        assert_eq!(zscore(7.0, 5.0, 2.0), 1.0);
        assert_eq!(zscore(3.0, 5.0, 2.0), -1.0);
        assert_eq!(zscore(123.0, 5.0, 0.0), 0.0, "constant column");
        assert_eq!(zscore(1.0, 0.0, f64::NAN), 0.0);
    }

    #[test]
    fn column_stats_fits_per_dimension() {
        let rows: [&[f64]; 2] = [&[1.0, 10.0, 5.0], &[3.0, 30.0, 5.0]];
        let (means, sds) = column_stats(&rows);
        assert_eq!(means, vec![2.0, 20.0, 5.0]);
        assert_eq!(sds, vec![1.0, 10.0, 0.0]);
        let empty: [&[f64]; 0] = [];
        assert_eq!(column_stats(&empty), (Vec::new(), Vec::new()));
    }

    #[test]
    fn percent_helpers() {
        assert_eq!(pct_change(100.0, 110.0), 10.0);
        assert_eq!(perf_gain(100.0, 60.0), 40.0);
        assert_eq!(perf_gain(100.0, 140.0), -40.0);
    }

    #[test]
    fn summary_matches_components() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        let s = summarize(&xs);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
    }
}
