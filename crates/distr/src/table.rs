//! CDF tables — the artifact the GDS hands to the FSC and the USIM.
//!
//! "These are used to compute tables of cumulative distribution function
//! (CDF) values for use in random number generation" (Section 4.1). A
//! [`CdfTable`] discretizes any [`Distribution`] onto a fixed grid and
//! samples by inverse transform, exactly like the original tool. The paper
//! also warns (Section 4.2) that the memory for these tables is the product
//! of user types × file types × samples per distribution —
//! [`CdfTable::memory_bytes`] exposes that cost so the trade-off can be
//! measured (see the `cdf_table_resolution` bench).

use crate::empirical::{inverse_transform, inverse_transform_guided};
use crate::guide::{GuideTable, MAX_POINTS};
use crate::{uniform01, DistrError, Distribution};
use rand::RngCore;

/// A discretized CDF used for inverse-transform random variate generation.
///
/// Sampling is O(1): a precomputed [`GuideTable`] replaces the per-draw
/// binary search with an equal-probability bucket lookup, producing
/// bit-identical variates for the same uniform draw (see
/// [`CdfTable::quantile_unguided`] for the reference path).
#[derive(Debug, Clone, PartialEq)]
pub struct CdfTable {
    xs: Vec<f64>,
    cdf: Vec<f64>,
    mean: f64,
    std_dev: f64,
    guide: GuideTable,
}

impl CdfTable {
    /// Tabulates `dist` on `points` uniformly spaced grid points covering
    /// `[support_min, support_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::BadParameter`] if `points < 2` or `points`
    /// exceeds `u32::MAX`, the most a guide table indexes.
    pub fn from_distribution(dist: &dyn Distribution, points: usize) -> Result<Self, DistrError> {
        if !(2..=MAX_POINTS).contains(&points) {
            return Err(DistrError::BadParameter {
                name: "points",
                value: points as f64,
            });
        }
        let lo = dist.support_min();
        let hi = dist.support_max();
        if hi <= lo {
            // Degenerate distribution (e.g. Constant): a two-point step.
            let cdf = vec![1.0, 1.0];
            let guide = GuideTable::build(&cdf);
            return Ok(Self {
                xs: vec![lo, lo],
                cdf,
                mean: dist.mean(),
                std_dev: 0.0,
                guide,
            });
        }
        let mut xs = Vec::with_capacity(points);
        let mut cdf = Vec::with_capacity(points);
        for i in 0..points {
            let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
            xs.push(x);
            cdf.push(dist.cdf(x).clamp(0.0, 1.0));
        }
        // Force monotonicity against numerical noise and pin the last entry.
        for i in 1..cdf.len() {
            if cdf[i] < cdf[i - 1] {
                cdf[i] = cdf[i - 1];
            }
        }
        *cdf.last_mut().expect("points >= 2") = 1.0;
        let guide = GuideTable::build(&cdf);
        Ok(Self {
            xs,
            cdf,
            mean: dist.mean(),
            std_dev: dist.std_dev(),
            guide,
        })
    }

    /// Draws a variate by inverse transform over the table: O(1) guide-table
    /// bucket lookup plus local interpolation.
    pub fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        inverse_transform_guided(&self.xs, &self.cdf, &self.guide, uniform01(rng))
    }

    /// Draws a variate via the unguided O(log n) binary search — the
    /// reference implementation. Public so equivalence tests and benches can
    /// compare the two paths; both produce bit-identical variates for the
    /// same RNG stream.
    pub fn sample_unguided(&self, rng: &mut dyn RngCore) -> f64 {
        inverse_transform(&self.xs, &self.cdf, uniform01(rng))
    }

    /// Draws a variate and rounds it to a non-negative integer count.
    ///
    /// Usage measures like "number of files" are integral; the paper samples
    /// them from continuous fits, so rounding is applied at use sites.
    pub fn sample_count(&self, rng: &mut dyn RngCore) -> u64 {
        self.sample(rng).round().max(0.0) as u64
    }

    /// The quantile function by interpolation over the table.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        inverse_transform_guided(&self.xs, &self.cdf, &self.guide, p)
    }

    /// The quantile via the unguided binary search (reference path; see
    /// [`CdfTable::sample_unguided`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn quantile_unguided(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        inverse_transform(&self.xs, &self.cdf, p)
    }

    /// Mean recorded from the source distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation recorded from the source distribution.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Approximate resident size of the table in bytes.
    ///
    /// This is the quantity the paper flags as a scaling problem in Section
    /// 4.2: total memory is `user types × file types × samples` of this.
    pub fn memory_bytes(&self) -> usize {
        2 * self.xs.len() * std::mem::size_of::<f64>()
    }

    /// The grid of `x` values.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The CDF values at [`Self::xs`].
    pub fn cumulative(&self) -> &[f64] {
        &self.cdf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constant, Exponential, MultiStageGamma, PhaseTypeExp};
    use rand::SeedableRng;

    #[test]
    fn rejects_tiny_tables() {
        let d = Exponential::new(1.0).unwrap();
        assert!(CdfTable::from_distribution(&d, 1).is_err());
    }

    #[test]
    fn table_mean_matches_distribution() {
        let d = Exponential::new(1024.0).unwrap();
        let t = CdfTable::from_distribution(&d, 4096).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let n = 200_000;
        let mean = (0..n).map(|_| t.sample(&mut rng)).sum::<f64>() / n as f64;
        // Tabulation truncates the far tail; allow ~2% bias.
        assert!((mean - 1024.0).abs() / 1024.0 < 0.02, "mean = {mean}");
    }

    #[test]
    fn table_quantiles_match_analytic() {
        let d = PhaseTypeExp::new(vec![(0.4, 12.7, 0.0), (0.6, 18.2, 18.0)]).unwrap();
        let t = CdfTable::from_distribution(&d, 8192).unwrap();
        for &p in &[0.1, 0.5, 0.9] {
            let analytic = d.quantile(p);
            let tabulated = t.quantile(p);
            assert!(
                (analytic - tabulated).abs() < 0.25,
                "p={p}: {analytic} vs {tabulated}"
            );
        }
    }

    #[test]
    fn constant_distribution_degenerates_gracefully() {
        let d = Constant::new(5000.0).unwrap();
        let t = CdfTable::from_distribution(&d, 128).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        assert_eq!(t.sample(&mut rng), 5000.0);
        assert_eq!(t.std_dev(), 0.0);
    }

    #[test]
    fn sample_count_rounds() {
        let d = Constant::new(2.9).unwrap();
        let t = CdfTable::from_distribution(&d, 16).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert_eq!(t.sample_count(&mut rng), 3);
    }

    #[test]
    fn memory_grows_linearly_with_resolution() {
        let d = MultiStageGamma::single(1.5, 25.4, 0.0).unwrap();
        let small = CdfTable::from_distribution(&d, 64).unwrap();
        let big = CdfTable::from_distribution(&d, 6400).unwrap();
        assert_eq!(big.memory_bytes(), 100 * small.memory_bytes());
        assert_eq!(small.len(), 64);
        assert!(!small.is_empty());
    }

    #[test]
    fn resolution_improves_accuracy() {
        let d = MultiStageGamma::new(vec![(0.7, 1.3, 12.3, 0.0), (0.3, 1.5, 12.4, 23.0)]).unwrap();
        let coarse = CdfTable::from_distribution(&d, 8).unwrap();
        let fine = CdfTable::from_distribution(&d, 4096).unwrap();
        let p = 0.5;
        let exact = d.quantile(p);
        let err_coarse = (coarse.quantile(p) - exact).abs();
        let err_fine = (fine.quantile(p) - exact).abs();
        assert!(err_fine <= err_coarse, "{err_fine} vs {err_coarse}");
    }
}
