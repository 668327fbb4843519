//! Phase-type exponential mixtures.
//!
//! The paper (Section 5.1) defines the family as
//!
//! ```text
//! f(x) = Σ_{i=1..N} w_i · exp(θ_i, x − s_i),   exp(θ, y) = (1/θ) e^{−y/θ},  y ≥ 0
//! ```
//!
//! where `w_i` are weights summing to one, `θ_i` are scale parameters and
//! `s_i` are offsets. The GDS supports this family because "these can
//! represent any type of distribution" (dense in the space of non-negative
//! distributions).

use crate::{uniform01, DistrError, Distribution};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Tolerance accepted when validating that mixture weights sum to one.
const WEIGHT_SUM_TOL: f64 = 1e-6;

/// One phase of a [`PhaseTypeExp`] mixture: a shifted exponential
/// `s + Exp(θ)` selected with probability `weight`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExpPhase {
    /// Mixing probability of this phase.
    pub weight: f64,
    /// Scale (mean of the unshifted exponential), `θ > 0`.
    pub theta: f64,
    /// Offset `s ≥ 0` added to the exponential variate.
    pub offset: f64,
}

impl ExpPhase {
    /// Creates a phase after validating its parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::BadWeights`] for a non-positive or non-finite
    /// weight, [`DistrError::BadScale`] for `theta <= 0`, and
    /// [`DistrError::BadOffset`] for a negative or non-finite offset.
    pub fn new(weight: f64, theta: f64, offset: f64) -> Result<Self, DistrError> {
        if !(weight.is_finite() && weight > 0.0) {
            return Err(DistrError::BadWeights { sum: weight });
        }
        if !(theta.is_finite() && theta > 0.0) {
            return Err(DistrError::BadScale { value: theta });
        }
        if !(offset.is_finite() && offset >= 0.0) {
            return Err(DistrError::BadOffset { value: offset });
        }
        Ok(Self {
            weight,
            theta,
            offset,
        })
    }

    /// Density of this phase alone (without the mixture weight).
    fn pdf(&self, x: f64) -> f64 {
        let y = x - self.offset;
        if y < 0.0 {
            0.0
        } else {
            (-y / self.theta).exp() / self.theta
        }
    }

    /// CDF of this phase alone.
    fn cdf(&self, x: f64) -> f64 {
        let y = x - self.offset;
        if y < 0.0 {
            0.0
        } else {
            1.0 - (-y / self.theta).exp()
        }
    }
}

/// A phase-type exponential mixture distribution.
///
/// # Example
///
/// ```
/// use uswg_distr::{Distribution, PhaseTypeExp};
///
/// # fn main() -> Result<(), uswg_distr::DistrError> {
/// // Single exponential with mean 22.1 — the top panel of Figure 5.1.
/// let d = PhaseTypeExp::new(vec![(1.0, 22.1, 0.0)])?;
/// assert!((d.mean() - 22.1).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTypeExp {
    phases: Vec<ExpPhase>,
}

impl PhaseTypeExp {
    /// Builds a mixture from `(weight, theta, offset)` triples.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::Empty`] when no phases are supplied,
    /// [`DistrError::BadWeights`] when the weights do not sum to one within
    /// `1e-6`, and the per-phase errors of [`ExpPhase::new`].
    pub fn new(phases: Vec<(f64, f64, f64)>) -> Result<Self, DistrError> {
        let phases = phases
            .into_iter()
            .map(|(w, t, s)| ExpPhase::new(w, t, s))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_phases(phases)
    }

    /// Builds a mixture from already-constructed phases.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::Empty`] when no phases are supplied and
    /// [`DistrError::BadWeights`] when the weights do not sum to one.
    pub(crate) fn from_phases(phases: Vec<ExpPhase>) -> Result<Self, DistrError> {
        if phases.is_empty() {
            return Err(DistrError::Empty);
        }
        let sum: f64 = phases.iter().map(|p| p.weight).sum();
        if (sum - 1.0).abs() > WEIGHT_SUM_TOL {
            return Err(DistrError::BadWeights { sum });
        }
        Ok(Self { phases })
    }

    /// Builds a mixture, rescaling the weights so they sum to one.
    ///
    /// Useful when the weights are relative frequencies (e.g. cluster sizes
    /// from [`crate::fit`]).
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::Empty`] when no phases are supplied or
    /// [`DistrError::BadWeights`] when the weight sum is not positive.
    pub fn new_normalized(phases: Vec<(f64, f64, f64)>) -> Result<Self, DistrError> {
        if phases.is_empty() {
            return Err(DistrError::Empty);
        }
        let sum: f64 = phases.iter().map(|&(w, _, _)| w).sum();
        if !(sum.is_finite() && sum > 0.0) {
            return Err(DistrError::BadWeights { sum });
        }
        Self::new(
            phases
                .into_iter()
                .map(|(w, t, s)| (w / sum, t, s))
                .collect(),
        )
    }

    /// Convenience constructor for a plain exponential with the given mean.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::BadScale`] if `mean <= 0`.
    pub fn exponential(mean: f64) -> Result<Self, DistrError> {
        Self::new(vec![(1.0, mean, 0.0)])
    }

    /// The phases of the mixture.
    pub fn phases(&self) -> &[ExpPhase] {
        &self.phases
    }
}

impl Distribution for PhaseTypeExp {
    fn pdf(&self, x: f64) -> f64 {
        self.phases.iter().map(|p| p.weight * p.pdf(x)).sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        // The weighted sum can exceed 1 by an ulp; clamp to stay a CDF.
        self.phases
            .iter()
            .map(|p| p.weight * p.cdf(x))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    fn mean(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| p.weight * (p.offset + p.theta))
            .sum()
    }

    fn variance(&self) -> f64 {
        // E[X²] of a shifted exponential s + Exp(θ) is s² + 2sθ + 2θ².
        let m = self.mean();
        let m2: f64 = self
            .phases
            .iter()
            .map(|p| {
                p.weight
                    * (p.offset * p.offset + 2.0 * p.offset * p.theta + 2.0 * p.theta * p.theta)
            })
            .sum();
        (m2 - m * m).max(0.0)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u = uniform01(rng);
        let mut chosen = &self.phases[self.phases.len() - 1];
        for p in &self.phases {
            if u < p.weight {
                chosen = p;
                break;
            }
            u -= p.weight;
        }
        // Inverse-transform sample of the shifted exponential. `1 - u` avoids
        // ln(0); uniform01 never returns exactly 1.
        let v = uniform01(rng);
        chosen.offset - chosen.theta * (1.0 - v).ln()
    }

    fn support_min(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| p.offset)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_mean_var(d: &dyn Distribution, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
        (m, v)
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(PhaseTypeExp::new(vec![]), Err(DistrError::Empty));
    }

    #[test]
    fn rejects_bad_weight_sum() {
        let err = PhaseTypeExp::new(vec![(0.4, 1.0, 0.0), (0.4, 2.0, 0.0)]).unwrap_err();
        assert!(matches!(err, DistrError::BadWeights { .. }));
    }

    #[test]
    fn rejects_bad_scale_and_offset() {
        assert!(matches!(
            PhaseTypeExp::new(vec![(1.0, 0.0, 0.0)]),
            Err(DistrError::BadScale { .. })
        ));
        assert!(matches!(
            PhaseTypeExp::new(vec![(1.0, 1.0, -2.0)]),
            Err(DistrError::BadOffset { .. })
        ));
    }

    #[test]
    fn normalized_constructor_rescales() {
        let d = PhaseTypeExp::new_normalized(vec![(2.0, 1.0, 0.0), (6.0, 3.0, 0.0)]).unwrap();
        let w: f64 = d.phases().iter().map(|p| p.weight).sum();
        assert!((w - 1.0).abs() < 1e-12);
        assert!((d.phases()[0].weight - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exponential_moments() {
        let d = PhaseTypeExp::exponential(22.1).unwrap();
        assert!((d.mean() - 22.1).abs() < 1e-12);
        assert!((d.variance() - 22.1 * 22.1).abs() < 1e-9);
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Figure 5.1 bottom panel: three-phase mixture.
        let d = PhaseTypeExp::new(vec![(0.4, 12.7, 0.0), (0.3, 18.2, 18.0), (0.3, 15.0, 40.0)])
            .unwrap();
        // Trapezoidal integral of the pdf over the support.
        let (lo, hi) = (0.0, d.support_max());
        let n = 20_000;
        let h = (hi - lo) / n as f64;
        let mut total = 0.5 * (d.pdf(lo) + d.pdf(hi));
        for i in 1..n {
            total += d.pdf(lo + i as f64 * h);
        }
        total *= h;
        assert!((total - 1.0).abs() < 1e-3, "integral = {total}");
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let d = PhaseTypeExp::new(vec![(0.6, 10.0, 0.0), (0.4, 5.0, 30.0)]).unwrap();
        let mut prev = 0.0;
        for i in 0..500 {
            let x = i as f64 * 0.5;
            let c = d.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn pdf_zero_before_offset() {
        let d = PhaseTypeExp::new(vec![(1.0, 10.0, 25.0)]).unwrap();
        assert_eq!(d.pdf(10.0), 0.0);
        assert_eq!(d.cdf(24.999), 0.0);
        assert_eq!(d.support_min(), 25.0);
    }

    #[test]
    fn sample_moments_match_analytic() {
        let d = PhaseTypeExp::new(vec![(0.4, 12.7, 0.0), (0.6, 18.2, 18.0)]).unwrap();
        let (m, v) = sample_mean_var(&d, 200_000, 42);
        assert!((m - d.mean()).abs() < 0.15, "mean {m} vs {}", d.mean());
        assert!((v - d.variance()).abs() / d.variance() < 0.05);
    }

    #[test]
    fn samples_never_below_support() {
        let d = PhaseTypeExp::new(vec![(0.5, 3.0, 5.0), (0.5, 8.0, 12.0)]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 5.0);
        }
    }

    #[test]
    fn serde_round_trip() {
        let d = PhaseTypeExp::new(vec![(0.4, 12.7, 0.0), (0.6, 18.2, 18.0)]).unwrap();
        let json = serde_json::to_string(&d).unwrap();
        let back: PhaseTypeExp = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
