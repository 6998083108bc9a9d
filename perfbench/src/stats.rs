//! Order statistics from exact samples.
//!
//! Every timing the benchmark reports is computed here from the full,
//! sorted sample — no bucketing — so a median or tail reads the same
//! value a hand computation over the raw numbers would.

/// Summary of one sample: its size, median, quartiles and tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// See [`tail`].
    pub tail: f64,
    /// Percentile level of `tail`, in percent.
    pub tail_pct: f64,
}

impl Summary {
    /// Summarize `xs`; `None` when empty or when any value is not finite.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() || xs.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let (tail, tail_pct) = tail_sorted(&s);
        Some(Summary {
            n: s.len(),
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            tail,
            tail_pct,
        })
    }
}

/// The `q`-quantile of an ascending sample by linear interpolation
/// between order statistics: position `q * (n - 1)`, so `q = 0.5` is the
/// usual median (mean of the middle two for even `n`).
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    assert!(!s.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, 0.5)
}

/// The highest percentile with at least ten samples beyond it: the
/// 11th-largest value, at level `(n - 10) / n`. A sample of ten or fewer
/// has no such percentile; its maximum is reported at level 100.
pub fn tail_sorted(s: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let n = s.len();
    if n <= BEYOND {
        return (s[n - 1], 100.0);
    }
    (s[n - 1 - BEYOND], 100.0 * (n - BEYOND) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_hand_computed_order_statistics() {
        // Sorted: 1 2 3 4 5 6 7 8 9 (n = 9): median is the 5th value;
        // quartile positions 2.0 and 6.0 are the 3rd and 7th values.
        let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 9);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.q3, 7.0);
        // Even n: median between the middle two; q1 at position 0.75.
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(median(&[10.0, 30.0, 20.0]), 20.0);
    }

    #[test]
    fn tail_has_exactly_ten_samples_beyond_it() {
        // 1..=100: the 11th largest is 90, ten values (91..=100) beyond
        // it, at the 90th percentile.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_pct, 90.0);
        // 1..=1000: 990 at the 99th percentile.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_pct, 99.0);
        // n = 11: the minimum has exactly ten beyond it.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_sorted(&xs), (1.0, 100.0 / 11.0));
        // Too few samples: the maximum, flagged at level 100.
        assert_eq!(tail_sorted(&[3.0, 7.0]), (7.0, 100.0));
    }

    #[test]
    fn ties_and_rejections() {
        let s = Summary::of(&[2.0; 20]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.tail), (2.0, 2.0, 2.0, 2.0));
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }
}
