//! Multi-stage gamma mixtures.
//!
//! The paper (Section 5.1) defines the family as
//!
//! ```text
//! f(x) = Σ_{i=1..N} w_i · g(α_i, θ_i, x − s_i),
//! g(α, θ, y) = y^{α−1} e^{−y/θ} / (Γ(α) θ^α),  0 ≤ y
//! ```
//!
//! The GDS supports this family because "actual file and usage distributions
//! have been shown to be well approximated by multi-stage gamma
//! distributions \[DI86\]".

use crate::special::{ln_gamma, reg_lower_gamma};
use crate::{uniform01, DistrError, Distribution};
use rand::RngCore;
use rand_distr::Distribution as _;
use serde::{Deserialize, Serialize};

/// Tolerance accepted when validating that mixture weights sum to one.
const WEIGHT_SUM_TOL: f64 = 1e-6;

/// One stage of a [`MultiStageGamma`] mixture: a shifted gamma
/// `s + Gamma(α, θ)` selected with probability `weight`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GammaStage {
    /// Mixing probability of this stage.
    pub weight: f64,
    /// Shape parameter `α > 0`.
    pub alpha: f64,
    /// Scale parameter `θ > 0`.
    pub theta: f64,
    /// Offset `s ≥ 0` added to the gamma variate.
    pub offset: f64,
}

impl GammaStage {
    /// Creates a stage after validating its parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::BadWeights`] for a non-positive weight,
    /// [`DistrError::BadShape`] for `alpha <= 0`, [`DistrError::BadScale`]
    /// for `theta <= 0`, and [`DistrError::BadOffset`] for a negative offset.
    pub fn new(weight: f64, alpha: f64, theta: f64, offset: f64) -> Result<Self, DistrError> {
        if !(weight.is_finite() && weight > 0.0) {
            return Err(DistrError::BadWeights { sum: weight });
        }
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(DistrError::BadShape { value: alpha });
        }
        if !(theta.is_finite() && theta > 0.0) {
            return Err(DistrError::BadScale { value: theta });
        }
        if !(offset.is_finite() && offset >= 0.0) {
            return Err(DistrError::BadOffset { value: offset });
        }
        Ok(Self {
            weight,
            alpha,
            theta,
            offset,
        })
    }

    /// Density of this stage alone (without the mixture weight).
    fn pdf(&self, x: f64) -> f64 {
        let y = x - self.offset;
        if y < 0.0 {
            return 0.0;
        }
        if y == 0.0 {
            // Limit at the left edge: finite only for α ≥ 1.
            return if self.alpha > 1.0 {
                0.0
            } else if self.alpha == 1.0 {
                1.0 / self.theta
            } else {
                f64::INFINITY
            };
        }
        let ln_pdf = (self.alpha - 1.0) * y.ln()
            - y / self.theta
            - ln_gamma(self.alpha)
            - self.alpha * self.theta.ln();
        ln_pdf.exp()
    }

    /// CDF of this stage alone.
    fn cdf(&self, x: f64) -> f64 {
        let y = x - self.offset;
        if y <= 0.0 {
            0.0
        } else {
            reg_lower_gamma(self.alpha, y / self.theta)
        }
    }
}

/// A multi-stage gamma mixture distribution.
///
/// # Example
///
/// ```
/// use uswg_distr::{Distribution, MultiStageGamma};
///
/// # fn main() -> Result<(), uswg_distr::DistrError> {
/// // g(1.5, 25.4, x − 12) — the middle panel of Figure 5.2.
/// let d = MultiStageGamma::new(vec![(1.0, 1.5, 25.4, 12.0)])?;
/// assert!((d.mean() - (12.0 + 1.5 * 25.4)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiStageGamma {
    stages: Vec<GammaStage>,
}

impl MultiStageGamma {
    /// Builds a mixture from `(weight, alpha, theta, offset)` tuples.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::Empty`] when no stages are supplied,
    /// [`DistrError::BadWeights`] when the weights do not sum to one within
    /// `1e-6`, and the per-stage errors of [`GammaStage::new`].
    pub fn new(stages: Vec<(f64, f64, f64, f64)>) -> Result<Self, DistrError> {
        let stages = stages
            .into_iter()
            .map(|(w, a, t, s)| GammaStage::new(w, a, t, s))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_stages(stages)
    }

    /// Builds a mixture from already-constructed stages.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::Empty`] when no stages are supplied and
    /// [`DistrError::BadWeights`] when the weights do not sum to one.
    pub(crate) fn from_stages(stages: Vec<GammaStage>) -> Result<Self, DistrError> {
        if stages.is_empty() {
            return Err(DistrError::Empty);
        }
        let sum: f64 = stages.iter().map(|s| s.weight).sum();
        if (sum - 1.0).abs() > WEIGHT_SUM_TOL {
            return Err(DistrError::BadWeights { sum });
        }
        Ok(Self { stages })
    }

    /// Builds a mixture, rescaling the weights so they sum to one.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::Empty`] when no stages are supplied or
    /// [`DistrError::BadWeights`] when the weight sum is not positive.
    pub fn new_normalized(stages: Vec<(f64, f64, f64, f64)>) -> Result<Self, DistrError> {
        if stages.is_empty() {
            return Err(DistrError::Empty);
        }
        let sum: f64 = stages.iter().map(|&(w, _, _, _)| w).sum();
        if !(sum.is_finite() && sum > 0.0) {
            return Err(DistrError::BadWeights { sum });
        }
        Self::new(
            stages
                .into_iter()
                .map(|(w, a, t, s)| (w / sum, a, t, s))
                .collect(),
        )
    }

    /// Convenience constructor for a single-stage gamma.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`GammaStage::new`].
    pub fn single(alpha: f64, theta: f64, offset: f64) -> Result<Self, DistrError> {
        Self::new(vec![(1.0, alpha, theta, offset)])
    }

    /// The stages of the mixture.
    pub fn stages(&self) -> &[GammaStage] {
        &self.stages
    }
}

impl Distribution for MultiStageGamma {
    fn pdf(&self, x: f64) -> f64 {
        self.stages.iter().map(|s| s.weight * s.pdf(x)).sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        // The weighted sum can exceed 1 by an ulp; clamp to stay a CDF.
        self.stages
            .iter()
            .map(|s| s.weight * s.cdf(x))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    fn mean(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.weight * (s.offset + s.alpha * s.theta))
            .sum()
    }

    fn variance(&self) -> f64 {
        // E[X²] of s + Gamma(α, θ): var = αθ², mean = s + αθ.
        let m = self.mean();
        let m2: f64 = self
            .stages
            .iter()
            .map(|s| {
                let mu = s.offset + s.alpha * s.theta;
                s.weight * (s.alpha * s.theta * s.theta + mu * mu)
            })
            .sum();
        (m2 - m * m).max(0.0)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u = uniform01(rng);
        let mut chosen = &self.stages[self.stages.len() - 1];
        for s in &self.stages {
            if u < s.weight {
                chosen = s;
                break;
            }
            u -= s.weight;
        }
        let gamma = rand_distr::Gamma::new(chosen.alpha, chosen.theta)
            .expect("stage parameters validated at construction");
        chosen.offset + gamma.sample(rng)
    }

    fn support_min(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.offset)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty_and_bad_params() {
        assert_eq!(MultiStageGamma::new(vec![]), Err(DistrError::Empty));
        assert!(matches!(
            MultiStageGamma::new(vec![(1.0, 0.0, 1.0, 0.0)]),
            Err(DistrError::BadShape { .. })
        ));
        assert!(matches!(
            MultiStageGamma::new(vec![(1.0, 1.0, -1.0, 0.0)]),
            Err(DistrError::BadScale { .. })
        ));
        assert!(matches!(
            MultiStageGamma::new(vec![(0.9, 1.0, 1.0, 0.0)]),
            Err(DistrError::BadWeights { .. })
        ));
    }

    #[test]
    fn figure_5_2_middle_panel_moments() {
        let d = MultiStageGamma::single(1.5, 25.4, 12.0).unwrap();
        assert!((d.mean() - 50.1).abs() < 1e-9);
        assert!((d.variance() - 1.5 * 25.4 * 25.4).abs() < 1e-9);
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Figure 5.2 bottom panel.
        let d = MultiStageGamma::new(vec![
            (0.7, 1.3, 12.3, 0.0),
            (0.2, 1.5, 12.4, 23.0),
            (0.1, 1.4, 12.3, 41.0),
        ])
        .unwrap();
        let (lo, hi) = (0.0, d.support_max());
        let n = 40_000;
        let h = (hi - lo) / n as f64;
        let mut total = 0.5 * (d.pdf(lo) + d.pdf(hi));
        for i in 1..n {
            total += d.pdf(lo + i as f64 * h);
        }
        total *= h;
        assert!((total - 1.0).abs() < 1e-3, "integral = {total}");
    }

    #[test]
    fn cdf_matches_numeric_integral_of_pdf() {
        let d = MultiStageGamma::new(vec![(0.6, 2.0, 5.0, 0.0), (0.4, 3.0, 4.0, 10.0)]).unwrap();
        let n = 50_000;
        let hi = 60.0;
        let h = hi / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let a = i as f64 * h;
            acc += 0.5 * (d.pdf(a) + d.pdf(a + h)) * h;
            if (i + 1) % 10_000 == 0 {
                let x = (i + 1) as f64 * h;
                assert!(
                    (acc - d.cdf(x)).abs() < 1e-4,
                    "x={x} acc={acc} cdf={}",
                    d.cdf(x)
                );
            }
        }
    }

    #[test]
    fn gamma_shape_one_equals_exponential() {
        let g = MultiStageGamma::single(1.0, 7.0, 0.0).unwrap();
        let e = crate::PhaseTypeExp::exponential(7.0).unwrap();
        for &x in &[0.0, 1.0, 5.0, 20.0] {
            assert!((g.pdf(x) - e.pdf(x)).abs() < 1e-12);
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_moments_match_analytic() {
        let d = MultiStageGamma::new(vec![(0.7, 1.3, 12.3, 0.0), (0.3, 1.5, 12.4, 23.0)]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
        assert!((m - d.mean()).abs() < 0.15, "mean {m} vs {}", d.mean());
        assert!((v - d.variance()).abs() / d.variance() < 0.05);
    }

    #[test]
    fn samples_respect_offset() {
        let d = MultiStageGamma::single(2.0, 3.0, 12.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 12.0);
        }
    }

    #[test]
    fn pdf_edge_behavior_at_offset() {
        // α > 1: density 0 at the offset; α = 1: 1/θ; α < 1: +∞.
        let above = MultiStageGamma::single(2.0, 3.0, 0.0).unwrap();
        assert_eq!(above.pdf(0.0), 0.0);
        let at = MultiStageGamma::single(1.0, 4.0, 0.0).unwrap();
        assert!((at.pdf(0.0) - 0.25).abs() < 1e-12);
        let below = MultiStageGamma::single(0.5, 3.0, 0.0).unwrap();
        assert!(below.pdf(0.0).is_infinite());
    }

    #[test]
    fn serde_round_trip() {
        let d = MultiStageGamma::new(vec![(0.7, 1.3, 12.3, 0.0), (0.3, 1.5, 12.4, 23.0)]).unwrap();
        let json = serde_json::to_string(&d).unwrap();
        let back: MultiStageGamma = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
