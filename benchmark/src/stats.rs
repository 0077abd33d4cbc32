//! Sample statistics the benchmark reports: nearest-rank percentiles with
//! their sample count, and the median/geomean re-exported from
//! `zkvmopt_stats` so every table in the repo averages the same way.

pub use zkvmopt_stats::{geomean, median};

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it. `p` in `(0, 1]`.
///
/// # Panics
/// Panics on an empty sample — every caller reports a count beside the
/// percentile, and a percentile of nothing is a bug in the caller.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and 95th-percentile latency of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub p95: f64,
}

impl Latency {
    /// Summarize `samples` (any order).
    pub fn of(mut samples: Vec<f64>) -> Latency {
        samples.sort_by(f64::total_cmp);
        Latency {
            p50: percentile(&samples, 0.50),
            p95: percentile(&samples, 0.95),
        }
    }
}

/// 64-bit FNV-1a: the digest printed for op lists and TuneDb bytes, so two
/// runs can be compared by one token.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // Ranks round up: the 95th percentile of 58 samples is the 56th.
        let ys: Vec<f64> = (1..=58).map(f64::from).collect();
        assert_eq!(percentile(&ys, 0.95), 56.0);
    }

    #[test]
    fn latency_sorts_before_ranking() {
        let l = Latency::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((l.p50, l.p95), (3.0, 5.0));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
