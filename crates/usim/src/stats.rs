//! Summary statistics.

use serde::{Deserialize, Serialize};

/// Mean, spread and extrema of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator).
    pub std_dev: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Returns the zero summary for empty input.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Self {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Summarizes an iterator of integers (common for byte/µs counts).
    pub fn of_counts<I: IntoIterator<Item = u64>>(values: I) -> Self {
        let collected: Vec<f64> = values.into_iter().map(|v| v as f64).collect();
        Self::of(&collected)
    }

    /// The `p`-quantile (0–1) of a sample by linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(values: &[f64], p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile probability out of range"
        );
        if values.is_empty() {
            return 0.0;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let pos = p * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }

    /// Formats as the paper's `mean(std)` notation.
    pub fn mean_std(&self) -> String {
        format!("{:.2}({:.2})", self.mean, self.std_dev)
    }
}

/// A [`Summary`] built one sample at a time: the streaming counterpart of
/// [`Summary::of`] for inputs too large to collect (spill files, merged
/// shard streams). Means come from an exact running sum (so they match the
/// post-hoc `sum / n` to the last bit); the spread uses Welford's running
/// M2, which stays numerically stable where the naive `Σx² − (Σx)²/n` form
/// loses every digit at large n with small variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingSummary {
    n: u64,
    sum: f64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self {
            n: 0,
            sum: 0.0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl StreamingSummary {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Samples folded in so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Folds another accumulator in, as if its samples had been pushed
    /// here: Chan's parallel combination of Welford M2 values, plus the
    /// exact running sum. This is what lets a parallel spill pass split a
    /// file into disjoint frame ranges, accumulate each independently, and
    /// recombine — the merged moments match a sequential pass over the
    /// same samples to floating-point roundoff.
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The finished [`Summary`] (the zero summary while empty, matching
    /// `Summary::of(&[])`).
    pub fn summary(&self) -> Summary {
        if self.n == 0 {
            return Summary::of(&[]);
        }
        let var = if self.n > 1 {
            (self.m2 / (self.n - 1) as f64).max(0.0)
        } else {
            0.0
        };
        Summary {
            n: self.n as usize,
            mean: self.sum / self.n as f64,
            std_dev: var.sqrt(),
            min: self.min,
            max: self.max,
        }
    }
}

/// Running `u64` totals of record-supplied values (bytes, µs) as every
/// accumulator over a record stream keeps them: [`Overflow::add`] saturates
/// at `u64::MAX` instead of wrapping (or panicking in a debug build) and
/// remembers that it did, so a report over such totals is refused rather
/// than printed wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Overflow {
    saturated: bool,
}

impl Overflow {
    /// `*total += x`, saturating.
    #[inline]
    pub fn add(&mut self, total: &mut u64, x: u64) {
        let (sum, wrapped) = total.overflowing_add(x);
        *total = if wrapped { u64::MAX } else { sum };
        self.saturated |= wrapped;
    }

    /// Folds in the flag of another accumulator.
    pub fn merge(&mut self, other: Overflow) {
        self.saturated |= other.saturated;
    }

    /// `Err` once any total has saturated.
    ///
    /// # Errors
    ///
    /// [`TotalsOverflow`] when a sum passed `u64::MAX`.
    pub fn check(self) -> Result<(), TotalsOverflow> {
        if self.saturated {
            Err(TotalsOverflow)
        } else {
            Ok(())
        }
    }
}

/// A record stream whose byte or µs totals pass `u64::MAX`: its report
/// cannot be computed. Converts to an `InvalidData` I/O error, the kind a
/// corrupt capture raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TotalsOverflow;

impl std::fmt::Display for TotalsOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a byte or µs total of the records exceeds 2^64 - 1")
    }
}

impl std::error::Error for TotalsOverflow {}

impl From<TotalsOverflow> for std::io::Error {
    fn from(e: TotalsOverflow) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_saturates_and_remembers() {
        let (mut of, mut total) = (Overflow::default(), u64::MAX - 1);
        of.add(&mut total, 1);
        assert_eq!((total, of.check()), (u64::MAX, Ok(())));
        of.add(&mut total, 1);
        assert_eq!((total, of.check()), (u64::MAX, Err(TotalsOverflow)));
        let mut clean = Overflow::default();
        clean.merge(of);
        assert!(clean.check().is_err());
    }

    #[test]
    fn empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev with n-1: sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn single_value_has_zero_spread() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn of_counts_converts() {
        let s = Summary::of_counts([1u64, 2, 3]);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(Summary::quantile(&v, 0.0), 1.0);
        assert_eq!(Summary::quantile(&v, 1.0), 5.0);
        assert_eq!(Summary::quantile(&v, 0.5), 3.0);
        assert!((Summary::quantile(&v, 0.25) - 2.0).abs() < 1e-12);
        assert_eq!(Summary::quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn mean_std_format() {
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!(s.mean_std(), "2.00(1.41)");
    }

    #[test]
    fn streaming_summary_matches_batch() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = StreamingSummary::new();
        for &v in &values {
            acc.push(v);
        }
        let streamed = acc.summary();
        let batch = Summary::of(&values);
        assert_eq!(streamed.n, batch.n);
        assert_eq!(acc.count(), values.len() as u64);
        assert!((streamed.mean - batch.mean).abs() < 1e-12);
        assert!((streamed.std_dev - batch.std_dev).abs() < 1e-12);
        assert_eq!(streamed.min, batch.min);
        assert_eq!(streamed.max, batch.max);
    }

    #[test]
    fn merged_streaming_summaries_match_a_single_pass() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.25).collect();
        // Every split point, including the degenerate empty halves.
        for split in [0, 1, 250, 500, 999, 1000] {
            let mut left = StreamingSummary::new();
            let mut right = StreamingSummary::new();
            for &v in &values[..split] {
                left.push(v);
            }
            for &v in &values[split..] {
                right.push(v);
            }
            left.merge(&right);
            let merged = left.summary();
            let mut whole = StreamingSummary::new();
            for &v in &values {
                whole.push(v);
            }
            let sequential = whole.summary();
            assert_eq!(merged.n, sequential.n, "split {split}");
            assert!(
                (merged.mean - sequential.mean).abs() < 1e-9,
                "split {split}"
            );
            assert!(
                (merged.std_dev - sequential.std_dev).abs() < 1e-9,
                "split {split}"
            );
            assert_eq!(merged.min, sequential.min);
            assert_eq!(merged.max, sequential.max);
        }
    }

    #[test]
    fn merging_empties_is_identity() {
        let mut a = StreamingSummary::new();
        a.merge(&StreamingSummary::new());
        assert_eq!(a.summary(), Summary::of(&[]));
        let mut b = StreamingSummary::new();
        b.push(3.0);
        let snapshot = b.summary();
        b.merge(&StreamingSummary::new());
        assert_eq!(b.summary(), snapshot);
        let mut c = StreamingSummary::new();
        c.merge(&b);
        assert_eq!(c.summary(), snapshot);
    }

    #[test]
    fn streaming_summary_empty_and_single() {
        assert_eq!(StreamingSummary::new().summary(), Summary::of(&[]));
        let mut acc = StreamingSummary::new();
        acc.push(42.0);
        let s = acc.summary();
        assert_eq!(s.n, 1);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }
}
