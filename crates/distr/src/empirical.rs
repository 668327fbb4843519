//! Tabular distribution specifications.
//!
//! The GDS lets users "supply the probability density function (PDF) values
//! or CDF values directly" (Section 4.1.1). [`PdfTable`] holds `(x, f(x))`
//! samples and integrates them into a CDF with **Simpson's rule** — the
//! method the paper names — while [`EmpiricalCdf`] holds `(x, F(x))` samples
//! directly and samples by inverse transform.

use crate::guide::{GuideTable, MAX_POINTS};
use crate::{uniform01, DistrError, Distribution};
use rand::RngCore;

/// Relative tolerance for a uniform grid check.
const GRID_TOL: f64 = 1e-9;

/// Refuses a table of more points than a guide table indexes, so every
/// constructed table samples in O(1).
fn fits_guide(len: usize) -> Result<(), DistrError> {
    if len > MAX_POINTS {
        return Err(DistrError::BadTable {
            reason: format!("{len} points exceed the limit of {MAX_POINTS}"),
        });
    }
    Ok(())
}

/// A probability density supplied as a table of `(x, pdf(x))` points.
///
/// Construction integrates the table into a CDF: composite Simpson's rule on
/// uniformly spaced grids with an even number of intervals (with a trapezoid
/// correction for a trailing odd interval), plain trapezoid otherwise. The
/// integrated table is normalized so the final CDF value is exactly one,
/// which mirrors how the GDS "creates CDF tables for the FSC and the USIM".
#[derive(Debug, Clone, PartialEq)]
pub struct PdfTable {
    xs: Vec<f64>,
    pdf: Vec<f64>,
    cdf: Vec<f64>,
    mean: f64,
    variance: f64,
    guide: GuideTable,
}

impl PdfTable {
    /// Builds a density table from `(x, pdf)` points sorted by `x`.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::BadTable`] when fewer than three or more than
    /// `u32::MAX` points are given, when `x` values are not strictly
    /// increasing or negative, when a density value is negative or
    /// non-finite, or when the total integral is not positive.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, DistrError> {
        if points.len() < 3 {
            return Err(DistrError::BadTable {
                reason: format!("need at least 3 points, got {}", points.len()),
            });
        }
        fits_guide(points.len())?;
        for window in points.windows(2) {
            if window[1].0 <= window[0].0 {
                return Err(DistrError::BadTable {
                    reason: "x values must be strictly increasing".into(),
                });
            }
        }
        if points[0].0 < 0.0 {
            return Err(DistrError::BadTable {
                reason: "x values must be non-negative".into(),
            });
        }
        if points.iter().any(|&(_, f)| !f.is_finite() || f < 0.0) {
            return Err(DistrError::BadTable {
                reason: "density values must be finite and non-negative".into(),
            });
        }

        let xs: Vec<f64> = points.iter().map(|&(x, _)| x).collect();
        let pdf: Vec<f64> = points.iter().map(|&(_, f)| f).collect();
        let raw_cdf = integrate_cumulative(&xs, &pdf);
        let total = *raw_cdf.last().expect("at least 3 points");
        if !(total.is_finite() && total > 0.0) {
            return Err(DistrError::BadTable {
                reason: format!("density integrates to {total}, expected > 0"),
            });
        }
        let cdf: Vec<f64> = raw_cdf.iter().map(|c| c / total).collect();
        let norm_pdf: Vec<f64> = pdf.iter().map(|f| f / total).collect();

        // Moments by trapezoid on the normalized density.
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for i in 1..xs.len() {
            let h = xs[i] - xs[i - 1];
            mean += 0.5 * h * (xs[i] * norm_pdf[i] + xs[i - 1] * norm_pdf[i - 1]);
            m2 += 0.5 * h * (xs[i] * xs[i] * norm_pdf[i] + xs[i - 1] * xs[i - 1] * norm_pdf[i - 1]);
        }
        let variance = (m2 - mean * mean).max(0.0);

        let guide = GuideTable::build(&cdf);
        Ok(Self {
            xs,
            pdf: norm_pdf,
            cdf,
            mean,
            variance,
            guide,
        })
    }

    /// The grid of `x` values.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The normalized density values at [`Self::xs`].
    pub fn densities(&self) -> &[f64] {
        &self.pdf
    }

    /// The integrated, normalized CDF values at [`Self::xs`].
    pub fn cumulative(&self) -> &[f64] {
        &self.cdf
    }

    /// Converts this table into an [`EmpiricalCdf`] (the GDS output format).
    pub fn to_empirical_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf {
            xs: self.xs.clone(),
            cdf: self.cdf.clone(),
            // Same CDF grid, so the bucket index transfers verbatim.
            guide: self.guide.clone(),
        }
    }
}

/// Cumulative integral of tabulated `f` over grid `xs`.
///
/// Uses composite Simpson's rule on pairs of uniform intervals (the paper:
/// "Sympson's method for numerical integration is used") and falls back to
/// the trapezoid rule for non-uniform grids or a trailing odd interval.
/// The running prefix at interior odd points is interpolated with the
/// trapezoid rule so the output is monotone and defined at every grid point.
fn integrate_cumulative(xs: &[f64], f: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut out = vec![0.0; n];
    let uniform = {
        let h0 = xs[1] - xs[0];
        xs.windows(2)
            .all(|w| ((w[1] - w[0]) - h0).abs() <= GRID_TOL * h0.abs().max(1.0))
    };
    if uniform {
        let h = xs[1] - xs[0];
        let mut i = 0;
        while i + 2 < n {
            // Simpson over [x_i, x_{i+2}]; trapezoid estimate at the midpoint.
            let simpson = h / 3.0 * (f[i] + 4.0 * f[i + 1] + f[i + 2]);
            let mid = 0.5 * h * (f[i] + f[i + 1]);
            // Keep the running sum monotone even if Simpson < mid numerically.
            let mid = mid.min(simpson).max(0.0);
            out[i + 1] = out[i] + mid;
            out[i + 2] = out[i] + simpson.max(0.0);
            i += 2;
        }
        if i + 1 < n {
            // Trailing odd interval.
            out[i + 1] = out[i] + 0.5 * h * (f[i] + f[i + 1]);
        }
    } else {
        for i in 1..n {
            let h = xs[i] - xs[i - 1];
            out[i] = out[i - 1] + 0.5 * h * (f[i] + f[i - 1]);
        }
    }
    out
}

impl Distribution for PdfTable {
    fn pdf(&self, x: f64) -> f64 {
        interp(&self.xs, &self.pdf, x).unwrap_or(0.0)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.xs[0] {
            0.0
        } else if x >= *self.xs.last().expect("non-empty") {
            1.0
        } else {
            interp(&self.xs, &self.cdf, x).unwrap_or(0.0)
        }
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        inverse_transform_guided(&self.xs, &self.cdf, &self.guide, uniform01(rng))
    }

    fn support_min(&self) -> f64 {
        self.xs[0]
    }

    fn support_max(&self) -> f64 {
        *self.xs.last().expect("non-empty")
    }
}

/// A distribution supplied directly as a table of `(x, F(x))` CDF points.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    xs: Vec<f64>,
    cdf: Vec<f64>,
    guide: GuideTable,
}

impl EmpiricalCdf {
    /// Builds a CDF table from 2 to `u32::MAX` `(x, F(x))` points sorted by
    /// `x`.
    ///
    /// The first CDF value must be `>= 0`, the last is rescaled to exactly 1
    /// if it is within 1% of 1, and the sequence must be non-decreasing.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::BadTable`] on violation of any constraint above.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, DistrError> {
        if points.len() < 2 {
            return Err(DistrError::BadTable {
                reason: format!("need at least 2 points, got {}", points.len()),
            });
        }
        fits_guide(points.len())?;
        // Reject non-finite values first: NaN slips through every ordering
        // comparison below (`NaN < x` and `x <= NaN` are both false) and
        // would then be laundered to 1.0 by the rescaling clamp.
        if points
            .iter()
            .any(|&(x, c)| !x.is_finite() || !c.is_finite())
        {
            return Err(DistrError::BadTable {
                reason: "x and cdf values must be finite".into(),
            });
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(DistrError::BadTable {
                    reason: "x values must be strictly increasing".into(),
                });
            }
            if w[1].1 < w[0].1 {
                return Err(DistrError::BadTable {
                    reason: "cdf values must be non-decreasing".into(),
                });
            }
        }
        if points[0].0 < 0.0 {
            return Err(DistrError::BadTable {
                reason: "x values must be non-negative".into(),
            });
        }
        let first = points[0].1;
        let last = points.last().expect("non-empty").1;
        if !(0.0..=1.0).contains(&first) {
            return Err(DistrError::BadTable {
                reason: format!("first cdf value {first} outside [0, 1]"),
            });
        }
        if (last - 1.0).abs() > 0.01 {
            return Err(DistrError::BadTable {
                reason: format!("last cdf value {last} not within 1% of 1"),
            });
        }
        let xs = points.iter().map(|&(x, _)| x).collect();
        let cdf: Vec<f64> = points.iter().map(|&(_, c)| (c / last).min(1.0)).collect();
        // Re-validate after rescaling: dividing by a `last` below 1 inflates
        // every value, so the table-shape invariants are re-checked on the
        // rescaled sequence rather than assumed from the raw input. With
        // finite inputs this is defense in depth — it documents and enforces
        // the invariant every downstream sampler relies on.
        Self::validate_rescaled(&cdf)?;
        let guide = GuideTable::build(&cdf);
        Ok(Self { xs, cdf, guide })
    }

    /// Checks that a rescaled CDF sequence is within `[0, 1]`, ends at
    /// exactly 1 and is non-decreasing.
    fn validate_rescaled(cdf: &[f64]) -> Result<(), DistrError> {
        let first = cdf[0];
        if !(0.0..=1.0).contains(&first) {
            return Err(DistrError::BadTable {
                reason: format!("rescaled first cdf value {first} outside [0, 1]"),
            });
        }
        let last = *cdf.last().expect("non-empty");
        if last != 1.0 {
            return Err(DistrError::BadTable {
                reason: format!("rescaled last cdf value {last} is not 1"),
            });
        }
        for w in cdf.windows(2) {
            if !(w[1].is_finite() && w[1] >= w[0]) {
                return Err(DistrError::BadTable {
                    reason: format!("rescaled cdf not non-decreasing: {} then {}", w[0], w[1]),
                });
            }
        }
        Ok(())
    }

    /// Builds the empirical CDF of a data sample (the standard step function
    /// evaluated at each order statistic).
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::InsufficientData`] for fewer than 2 samples and
    /// [`DistrError::BadTable`] for more than `u32::MAX` or if any sample is
    /// negative or non-finite.
    pub fn from_samples(data: &[f64]) -> Result<Self, DistrError> {
        if data.len() < 2 {
            return Err(DistrError::InsufficientData {
                needed: 2,
                got: data.len(),
            });
        }
        fits_guide(data.len())?;
        if data.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return Err(DistrError::BadTable {
                reason: "samples must be finite and non-negative".into(),
            });
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len() as f64;
        // Deduplicate x values, keeping the highest CDF at each x.
        let mut xs: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut cdf: Vec<f64> = Vec::with_capacity(sorted.len());
        for (i, &x) in sorted.iter().enumerate() {
            let p = (i + 1) as f64 / n;
            if let Some(last) = xs.last() {
                if (x - last).abs() < f64::EPSILON * x.abs().max(1.0) {
                    *cdf.last_mut().expect("same length") = p;
                    continue;
                }
            }
            xs.push(x);
            cdf.push(p);
        }
        if xs.len() < 2 {
            // All samples identical: widen into a two-point step.
            let x = xs[0];
            let cdf = vec![0.0, 1.0];
            let guide = GuideTable::build(&cdf);
            return Ok(Self {
                xs: vec![x, x + x.abs().max(1.0) * 1e-9],
                cdf,
                guide,
            });
        }
        let guide = GuideTable::build(&cdf);
        Ok(Self { xs, cdf, guide })
    }

    /// The grid of `x` values.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The CDF values at [`Self::xs`].
    pub fn cumulative(&self) -> &[f64] {
        &self.cdf
    }

    /// The quantile function by linear interpolation over the table.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn table_quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        inverse_transform_guided(&self.xs, &self.cdf, &self.guide, p)
    }

    /// The quantile via the unguided binary search: the reference
    /// implementation the guide-table path must match bit for bit. Kept
    /// public for equivalence tests and benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn table_quantile_unguided(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        inverse_transform(&self.xs, &self.cdf, p)
    }
}

impl Distribution for EmpiricalCdf {
    fn pdf(&self, x: f64) -> f64 {
        // Piecewise-constant density induced by the interpolated CDF.
        if x < self.xs[0] || x > *self.xs.last().expect("non-empty") {
            return 0.0;
        }
        match self
            .xs
            .binary_search_by(|v| v.partial_cmp(&x).expect("finite"))
        {
            Ok(i) | Err(i) => {
                let i = i.clamp(1, self.xs.len() - 1);
                let dx = self.xs[i] - self.xs[i - 1];
                let dc = self.cdf[i] - self.cdf[i - 1];
                if dx > 0.0 {
                    dc / dx
                } else {
                    0.0
                }
            }
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.xs[0] {
            if x == self.xs[0] {
                self.cdf[0]
            } else {
                0.0
            }
        } else if x >= *self.xs.last().expect("non-empty") {
            1.0
        } else {
            interp(&self.xs, &self.cdf, x).unwrap_or(0.0)
        }
    }

    fn mean(&self) -> f64 {
        // E[X] from the interpolated CDF: piecewise-linear F means uniform
        // density on each cell; contribution is midpoint × mass.
        let mut mean = self.xs[0] * self.cdf[0];
        for i in 1..self.xs.len() {
            let mass = self.cdf[i] - self.cdf[i - 1];
            mean += mass * 0.5 * (self.xs[i] + self.xs[i - 1]);
        }
        mean
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        // Second moment of a uniform on [a, b] is (a² + ab + b²)/3.
        let mut m2 = self.xs[0] * self.xs[0] * self.cdf[0];
        for i in 1..self.xs.len() {
            let mass = self.cdf[i] - self.cdf[i - 1];
            let (a, b) = (self.xs[i - 1], self.xs[i]);
            m2 += mass * (a * a + a * b + b * b) / 3.0;
        }
        (m2 - m * m).max(0.0)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        inverse_transform_guided(&self.xs, &self.cdf, &self.guide, uniform01(rng))
    }

    fn support_min(&self) -> f64 {
        self.xs[0]
    }

    fn support_max(&self) -> f64 {
        *self.xs.last().expect("non-empty")
    }
}

/// Linear interpolation of `(xs, ys)` at `x`; `None` outside the grid.
fn interp(xs: &[f64], ys: &[f64], x: f64) -> Option<f64> {
    if x < xs[0] || x > *xs.last()? {
        return None;
    }
    let i = match xs.binary_search_by(|v| v.partial_cmp(&x).expect("finite")) {
        Ok(i) => return Some(ys[i]),
        Err(i) => i,
    };
    let (x0, x1) = (xs[i - 1], xs[i]);
    let (y0, y1) = (ys[i - 1], ys[i]);
    Some(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
}

/// Interpolates within the bracket `[hi - 1, hi]`, where `hi` is the first
/// index with `cdf[hi] >= p`. Shared by the guided and unguided transforms
/// so both produce bit-identical variates.
#[inline]
fn bracket_interpolate(xs: &[f64], cdf: &[f64], p: f64, hi: usize) -> f64 {
    let lo = hi - 1;
    let (c0, c1) = (cdf[lo], cdf[hi]);
    if c1 <= c0 {
        return xs[hi];
    }
    xs[lo] + (xs[hi] - xs[lo]) * (p - c0) / (c1 - c0)
}

/// Inverse-transform lookup: smallest `x` with `cdf(x) >= p`, interpolated.
/// O(log n) binary search — the reference path.
pub(crate) fn inverse_transform(xs: &[f64], cdf: &[f64], p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    if p <= cdf[0] {
        return xs[0];
    }
    let last = *cdf.last().expect("non-empty");
    if p >= last {
        return *xs.last().expect("non-empty");
    }
    // Binary search for the first index with cdf >= p.
    let (mut lo, mut hi) = (0usize, cdf.len() - 1);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if cdf[mid] < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    bracket_interpolate(xs, cdf, p, hi)
}

/// Inverse-transform lookup through a [`GuideTable`]: O(1) bucket lookup
/// plus local scan instead of the binary search, bit-identical output.
#[inline]
pub(crate) fn inverse_transform_guided(xs: &[f64], cdf: &[f64], guide: &GuideTable, p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    if p <= cdf[0] {
        return xs[0];
    }
    let last = *cdf.last().expect("non-empty");
    if p >= last {
        return *xs.last().expect("non-empty");
    }
    let hi = guide.first_at_or_above(cdf, p);
    bracket_interpolate(xs, cdf, p, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn uniform_pdf_table(n: usize) -> PdfTable {
        // Uniform density on [0, 10].
        let points: Vec<(f64, f64)> = (0..=n).map(|i| (10.0 * i as f64 / n as f64, 0.1)).collect();
        PdfTable::new(points).unwrap()
    }

    #[test]
    fn rejects_short_and_unsorted_tables() {
        assert!(PdfTable::new(vec![(0.0, 1.0), (1.0, 1.0)]).is_err());
        assert!(PdfTable::new(vec![(0.0, 1.0), (2.0, 1.0), (1.0, 1.0)]).is_err());
        assert!(PdfTable::new(vec![(0.0, 1.0), (1.0, -1.0), (2.0, 1.0)]).is_err());
    }

    #[test]
    fn uniform_table_normalizes() {
        let t = uniform_pdf_table(10);
        assert!((t.cumulative().last().unwrap() - 1.0).abs() < 1e-12);
        assert!((t.cdf(5.0) - 0.5).abs() < 1e-9);
        assert!((t.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn simpson_beats_trapezoid_on_smooth_density() {
        // Quadratic density f(x) = 3x²/1000 on [0, 10]: Simpson is exact.
        let n = 10;
        let points: Vec<(f64, f64)> = (0..=n)
            .map(|i| {
                let x = 10.0 * i as f64 / n as f64;
                (x, 3.0 * x * x / 1000.0)
            })
            .collect();
        let t = PdfTable::new(points).unwrap();
        // CDF at even grid points should match x³/1000 almost exactly.
        assert!((t.cdf(4.0) - 0.064).abs() < 1e-10);
        assert!((t.cdf(8.0) - 0.512).abs() < 1e-10);
    }

    #[test]
    fn non_uniform_grid_falls_back_to_trapezoid() {
        let t = PdfTable::new(vec![(0.0, 0.2), (1.0, 0.2), (4.0, 0.2), (5.0, 0.2)]).unwrap();
        assert!((t.cdf(5.0) - 1.0).abs() < 1e-12);
        assert!((t.cdf(1.0) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotone() {
        let t = uniform_pdf_table(17); // odd interval count exercises the tail case
        let mut prev = 0.0;
        for i in 0..=100 {
            let c = t.cdf(i as f64 * 0.1);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn sampling_matches_table() {
        let t = uniform_pdf_table(20);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let n = 100_000;
        let mean = (0..n).map(|_| t.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn empirical_cdf_validation() {
        assert!(EmpiricalCdf::new(vec![(0.0, 0.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(0.0, 0.5), (1.0, 0.4)]).is_err());
        assert!(EmpiricalCdf::new(vec![(0.0, 0.0), (1.0, 0.8)]).is_err());
        assert!(EmpiricalCdf::new(vec![(0.0, 0.0), (1.0, 1.0)]).is_ok());
    }

    #[test]
    fn empirical_cdf_rejects_non_finite_values() {
        // NaN defeats ordering comparisons and would otherwise be clamped to
        // 1.0 by the rescale (`(NaN / last).min(1.0)` is 1.0).
        assert!(EmpiricalCdf::new(vec![(0.0, 0.0), (1.0, f64::NAN), (2.0, 1.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(0.0, 0.0), (f64::NAN, 0.5), (2.0, 1.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(0.0, 0.0), (1.0, f64::INFINITY)]).is_err());
        assert!(EmpiricalCdf::new(vec![(0.0, 0.0), (f64::INFINITY, 1.0)]).is_err());
    }

    #[test]
    fn empirical_cdf_rescales_last_value_0_995() {
        // Regression: a table whose raw CDF tops out at 0.995 (within the 1%
        // acceptance band) is rescaled by 1/0.995 — every rescaled value must
        // land back inside [0, 1], stay non-decreasing, and end at exactly 1.
        let e =
            EmpiricalCdf::new(vec![(0.0, 0.1), (5.0, 0.5), (10.0, 0.9), (20.0, 0.995)]).unwrap();
        let cdf = e.cumulative();
        assert_eq!(*cdf.last().unwrap(), 1.0);
        assert!((cdf[0] - 0.1 / 0.995).abs() < 1e-15);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(cdf.iter().all(|c| (0.0..=1.0).contains(c)));
        // The rescaled table samples and inverts sanely, guided == unguided.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..256 {
            let x = e.sample(&mut rng);
            assert!((0.0..=20.0).contains(&x));
        }
        for k in 0..=50 {
            let p = k as f64 / 50.0;
            assert_eq!(
                e.table_quantile(p).to_bits(),
                e.table_quantile_unguided(p).to_bits()
            );
        }
        // Just outside the band still fails.
        assert!(EmpiricalCdf::new(vec![(0.0, 0.0), (1.0, 0.98)]).is_err());
    }

    #[test]
    fn empirical_cdf_from_samples_step_function() {
        let e = EmpiricalCdf::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.cdf(4.0), 1.0);
        assert!(e.cdf(1.0) > 0.0);
        assert_eq!(e.cdf(0.5), 0.0);
    }

    #[test]
    fn empirical_cdf_identical_samples() {
        let e = EmpiricalCdf::from_samples(&[7.0, 7.0, 7.0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = e.sample(&mut rng);
        assert!((x - 7.0).abs() < 1e-6);
    }

    #[test]
    fn quantile_round_trip() {
        let e =
            EmpiricalCdf::new(vec![(0.0, 0.0), (10.0, 0.25), (20.0, 0.5), (40.0, 1.0)]).unwrap();
        for &p in &[0.1, 0.25, 0.5, 0.75, 0.99] {
            let x = e.table_quantile(p);
            assert!((e.cdf(x) - p).abs() < 1e-9, "p={p} x={x}");
        }
    }

    #[test]
    fn empirical_mean_of_uniform_grid() {
        // CDF of U[0,100] sampled at 11 points.
        let pts: Vec<(f64, f64)> = (0..=10)
            .map(|i| (i as f64 * 10.0, i as f64 / 10.0))
            .collect();
        let e = EmpiricalCdf::new(pts).unwrap();
        assert!((e.mean() - 50.0).abs() < 1e-9);
        assert!((e.variance() - 100.0 * 100.0 / 12.0).abs() < 1e-6);
    }

    #[test]
    fn pdf_table_round_trips_to_empirical() {
        let t = uniform_pdf_table(10);
        let e = t.to_empirical_cdf();
        assert!((e.cdf(5.0) - 0.5).abs() < 1e-9);
    }
}
