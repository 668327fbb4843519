//! Median/quartile arithmetic and the regression-bound comparison.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method) —
/// the arithmetic the acceptance driver applies to the same numbers.
///
/// # Panics
///
/// Panics with fewer than two values (Python raises there too).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        // Signed: the clamp can push `j * 4` past `i * m` on tiny inputs.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    cuts
}

/// The median; one value is its own median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Outcome of comparing a change's runs against the parent's runs under a
/// metric's regression bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is no worse than the parent's by more than the
    /// bound.
    Pass,
    /// Worse by more than the bound.
    Fail,
    /// The parent's own spread exceeds the bound, so a difference of that
    /// size cannot be told from noise — unless every run of the change
    /// reads better than every run of the parent, which still passes.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// How much worse `change` is than `parent`, as a share of the parent's
/// median; negative when the change is better.
pub fn worsening(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let (p, c) = (median(parent), median(change));
    match better {
        Better::Lower => (c - p) / p.abs(),
        Better::Higher => (p - c) / p.abs(),
    }
}

/// Applies the regression rule of the choosing-metrics guide (section 6.5).
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(parent) > bound {
        let all_better = match better {
            Better::Lower => max(change) < min(parent),
            Better::Higher => min(change) > max(parent),
        };
        return if all_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(parent, change, better) > bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            [15.0, 40.0, 120.0]
        );
    }

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
    }

    #[test]
    fn bound_comparison_passes_fails_and_stays_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert_eq!(compare(&steady, &same, Better::Lower, 0.10), Verdict::Pass);
        assert_eq!(
            compare(&steady, &slower, Better::Lower, 0.10),
            Verdict::Fail
        );
        // The same numbers are a 15 % *gain* when higher is better.
        assert_eq!(
            compare(&steady, &slower, Better::Higher, 0.10),
            Verdict::Pass
        );
        assert_eq!(
            compare(&slower, &steady, Better::Higher, 0.10),
            Verdict::Fail
        );

        // Parent spread wider than the bound: a 5 % shift is unresolved…
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let shifted = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert!(spread(&noisy) > 0.10);
        assert_eq!(
            compare(&noisy, &shifted, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the parent.
        let clear_win = [50.0, 55.0, 60.0, 52.0, 58.0];
        assert_eq!(
            compare(&noisy, &clear_win, Better::Lower, 0.10),
            Verdict::Pass
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(&[100.0], &[110.0], Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(&[100.0], &[110.0], Better::Higher) + 0.10).abs() < 1e-12);
    }
}
