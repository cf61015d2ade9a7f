//! Summary statistics: medians, percentiles and the tail rule.

/// Percentiles the tail rule chooses from, lowest first.
const TAIL_CANDIDATES: [(f64, &str); 7] = [
    (0.5, "p50"),
    (0.75, "p75"),
    (0.9, "p90"),
    (0.95, "p95"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
];

/// Samples that must lie beyond a percentile for it to count as the tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 1]`) of sorted data.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank, lower middle) of unsorted data.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 0.5)
}

/// A timing distribution summarised as median plus tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// The highest percentile in [`TAIL_CANDIDATES`] with at least
    /// [`TAIL_MIN_BEYOND`] samples strictly beyond its rank; the
    /// maximum when the samples are too few for any.
    pub tail: f64,
    /// Which percentile `tail` is, e.g. `"p99"` or `"max"`.
    pub tail_label: String,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let chosen = TAIL_CANDIDATES
            .iter()
            .rev()
            .copied()
            .find(|&(p, _)| n - ((p * n as f64).ceil() as usize).min(n) >= TAIL_MIN_BEYOND);
        let (tail, tail_label) = match chosen {
            Some((p, label)) => (percentile_sorted(&sorted, p), label.to_owned()),
            None => (sorted[n - 1], "max".to_owned()),
        };
        Some(Self {
            count: n,
            p50: percentile_sorted(&sorted, 0.5),
            tail,
            tail_label,
        })
    }

    /// `p50 … / p99 … (n samples)` for the report lines.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.3} {unit}, {} {:.3} {unit} ({} samples)",
            self.p50, self.tail_label, self.tail, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        let s = Summary::of(&ramp(1000)).unwrap();
        assert_eq!(s.tail_label, "p99");
        assert_eq!(s.tail, 990.0);
        // 999 samples: p99 leaves only 9 beyond, so p95 is the tail.
        let s = Summary::of(&ramp(999)).unwrap();
        assert_eq!(s.tail_label, "p95");
        // 100 samples: p90 leaves 10.
        let s = Summary::of(&ramp(100)).unwrap();
        assert_eq!((s.tail_label.as_str(), s.tail), ("p90", 90.0));
        // 40 samples: p75 leaves 10.
        assert_eq!(Summary::of(&ramp(40)).unwrap().tail_label, "p75");
    }

    #[test]
    fn too_few_samples_fall_back_to_max() {
        let s = Summary::of(&ramp(19)).unwrap();
        assert_eq!((s.tail_label.as_str(), s.tail), ("max", 19.0));
        assert_eq!(s.p50, 10.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_ignores_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
