//! Distribution engine for the user-oriented synthetic workload generator.
//!
//! This crate is the programmatic equivalent of the paper's *Graphic
//! Distribution Specifier* (GDS). It lets callers
//!
//! * describe usage measures with **phase-type exponential** mixtures
//!   ([`PhaseTypeExp`]), **multi-stage gamma** mixtures ([`MultiStageGamma`]),
//!   or direct **tabular** PDF/CDF values ([`DistributionSpec::PdfTable`],
//!   [`EmpiricalCdf`]);
//! * **fit** those families to empirical samples ([`fit`]);
//! * check fits with **goodness-of-fit** statistics ([`gof`]);
//! * produce the **CDF tables** ([`CdfTable`]) consumed by the File System
//!   Creator and the User Simulator for inverse-transform random variate
//!   generation; and
//! * render **ASCII density plots** ([`plot`]), the text-mode stand-in for the
//!   paper's X11 display.
//!
//! # Example
//!
//! ```
//! use uswg_distr::{Distribution, PhaseTypeExp, CdfTable};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), uswg_distr::DistrError> {
//! // f(x) = 0.4 exp(12.7, x) + 0.6 exp(18.2, x - 18)   (paper, Figure 5.1)
//! let d = PhaseTypeExp::new(vec![(0.4, 12.7, 0.0), (0.6, 18.2, 18.0)])?;
//! let table = CdfTable::from_distribution(&d, 512)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let x = table.sample(&mut rng);
//! assert!(x >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod empirical;
mod error;
mod gamma;
mod guide;
mod phase_type;
mod simple;
mod table;

pub mod fit;
pub mod gof;
pub mod plot;
pub mod spec;
pub mod special;

pub use empirical::EmpiricalCdf;
pub(crate) use empirical::PdfTable;
pub use error::DistrError;
pub use gamma::{GammaStage, MultiStageGamma};
pub use guide::GuideTable;
pub use phase_type::{ExpPhase, PhaseTypeExp};
pub use simple::{Constant, Exponential, Uniform};
pub use spec::DistributionSpec;
pub use table::CdfTable;

use rand::RngCore;

/// A continuous, non-negative probability distribution of a usage measure.
///
/// The paper's workload model "allows general distributions for the usage
/// measures"; this trait is the common surface over every supported family.
/// It is object-safe so that heterogeneous distributions can be stored in a
/// single workload specification.
pub trait Distribution: std::fmt::Debug + Send + Sync {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative probability `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Expected value of the distribution.
    fn mean(&self) -> f64;

    /// Variance of the distribution.
    fn variance(&self) -> f64;

    /// Draw one random variate.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Standard deviation of the distribution.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Lower end of the support (the smallest value with non-zero density).
    fn support_min(&self) -> f64 {
        0.0
    }

    /// An upper bound `u` such that `cdf(u) >= 1 - epsilon`.
    ///
    /// Used when tabulating the distribution into a [`CdfTable`]. The default
    /// implementation brackets outward from `mean + 10 * std_dev` and is
    /// adequate for light-tailed distributions.
    fn support_max(&self) -> f64 {
        let mut hi = (self.mean() + 10.0 * self.std_dev()).max(self.support_min() + 1.0);
        for _ in 0..128 {
            if self.cdf(hi) >= 1.0 - 1e-9 {
                return hi;
            }
            hi *= 2.0;
        }
        hi
    }

    /// The quantile function `inf { x : cdf(x) >= p }`, computed by bisection.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile probability out of range"
        );
        let mut lo = self.support_min();
        let mut hi = self.support_max();
        if p <= 0.0 {
            return lo;
        }
        if p >= 1.0 {
            return hi;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo <= 1e-12 * (1.0 + hi.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Draw a uniform variate in `[0, 1)` from a dynamically-typed RNG.
///
/// Uses the top 53 bits of one `u64` draw, the standard way to fill a `f64`
/// mantissa without bias.
pub(crate) fn uniform01(rng: &mut dyn RngCore) -> f64 {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    (rng.next_u64() >> 11) as f64 * SCALE
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform01_is_in_unit_interval() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u = uniform01(&mut rng);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn default_quantile_inverts_cdf() {
        let d = Exponential::new(100.0).unwrap();
        for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-6, "p={p} x={x}");
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let d: Box<dyn Distribution> = Box::new(Exponential::new(1.0).unwrap());
        assert!(d.mean() > 0.0);
    }

    #[test]
    fn support_max_covers_tail() {
        let d = Exponential::new(5000.0).unwrap();
        assert!(d.cdf(d.support_max()) >= 1.0 - 1e-9);
    }
}
