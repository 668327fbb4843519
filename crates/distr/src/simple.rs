//! Elementary distributions used throughout the workload specifications:
//! plain exponential (the paper's default assumption for every usage
//! measure), degenerate constants (zero think time for "extremely heavy I/O"
//! users, Table 5.4) and uniform ranges.

use crate::{uniform01, DistrError, Distribution};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// An exponential distribution with the given mean, optionally shifted.
///
/// The paper assumes every characterizing measure in Tables 5.1 and 5.2 is
/// exponentially distributed, because only mean values were published by the
/// underlying trace studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    mean: f64,
    offset: f64,
}

impl Exponential {
    /// Creates an exponential with the given mean and no offset.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::BadScale`] if `mean` is not strictly positive.
    pub fn new(mean: f64) -> Result<Self, DistrError> {
        Self::with_offset(mean, 0.0)
    }

    /// Creates a shifted exponential: `offset + Exp(mean)`.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::BadScale`] if `mean <= 0` or
    /// [`DistrError::BadOffset`] if `offset` is negative or non-finite.
    pub(crate) fn with_offset(mean: f64, offset: f64) -> Result<Self, DistrError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(DistrError::BadScale { value: mean });
        }
        if !(offset.is_finite() && offset >= 0.0) {
            return Err(DistrError::BadOffset { value: offset });
        }
        Ok(Self { mean, offset })
    }

    /// The offset added to every variate.
    pub fn offset(&self) -> f64 {
        self.offset
    }
}

impl Distribution for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        let y = x - self.offset;
        if y < 0.0 {
            0.0
        } else {
            (-y / self.mean).exp() / self.mean
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        let y = x - self.offset;
        if y < 0.0 {
            0.0
        } else {
            1.0 - (-y / self.mean).exp()
        }
    }

    fn mean(&self) -> f64 {
        self.offset + self.mean
    }

    fn variance(&self) -> f64 {
        self.mean * self.mean
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.offset - self.mean * (1.0 - uniform01(rng)).ln()
    }

    fn support_min(&self) -> f64 {
        self.offset
    }
}

/// A degenerate distribution that always produces `value`.
///
/// Used for the zero think time of "extremely heavy I/O" users (Table 5.4)
/// and for fixed-size experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constant {
    value: f64,
}

impl Constant {
    /// Creates a constant distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::BadParameter`] if `value` is negative or
    /// non-finite (usage measures are non-negative).
    pub fn new(value: f64) -> Result<Self, DistrError> {
        if !(value.is_finite() && value >= 0.0) {
            return Err(DistrError::BadParameter {
                name: "value",
                value,
            });
        }
        Ok(Self { value })
    }

    /// The constant value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Distribution for Constant {
    fn pdf(&self, x: f64) -> f64 {
        // Point mass: density is not a function; report the conventional
        // indicator so plots show a spike at the value.
        if x == self.value {
            f64::INFINITY
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn variance(&self) -> f64 {
        0.0
    }

    fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
        self.value
    }

    fn support_min(&self) -> f64 {
        self.value
    }

    fn support_max(&self) -> f64 {
        self.value
    }
}

/// A continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::BadParameter`] if the bounds are not finite,
    /// `lo` is negative, or `hi <= lo`.
    pub fn new(lo: f64, hi: f64) -> Result<Self, DistrError> {
        if !(lo.is_finite() && lo >= 0.0) {
            return Err(DistrError::BadParameter {
                name: "lo",
                value: lo,
            });
        }
        if !(hi.is_finite() && hi > lo) {
            return Err(DistrError::BadParameter {
                name: "hi",
                value: hi,
            });
        }
        Ok(Self { lo, hi })
    }

    /// Lower bound of the range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the range.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl Distribution for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x >= self.lo && x < self.hi {
            1.0 / (self.hi - self.lo)
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (x - self.lo) / (self.hi - self.lo)
        }
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.lo + (self.hi - self.lo) * uniform01(rng)
    }

    fn support_min(&self) -> f64 {
        self.lo
    }

    fn support_max(&self) -> f64 {
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn exponential_rejects_bad_mean() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-3.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
    }

    #[test]
    fn exponential_moments_and_shift() {
        let d = Exponential::with_offset(1024.0, 10.0).unwrap();
        assert_eq!(d.mean(), 1034.0);
        assert_eq!(d.variance(), 1024.0 * 1024.0);
        assert_eq!(d.support_min(), 10.0);
        assert_eq!(d.cdf(9.0), 0.0);
    }

    #[test]
    fn exponential_median() {
        let d = Exponential::new(5000.0).unwrap();
        let med = d.quantile(0.5);
        assert!((med - 5000.0 * std::f64::consts::LN_2).abs() < 1.0);
    }

    #[test]
    fn constant_is_degenerate() {
        let d = Constant::new(42.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert_eq!(d.sample(&mut rng), 42.0);
        assert_eq!(d.mean(), 42.0);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.cdf(41.9), 0.0);
        assert_eq!(d.cdf(42.0), 1.0);
    }

    #[test]
    fn constant_zero_allowed() {
        // Zero think time for extremely heavy I/O users.
        let d = Constant::new(0.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert_eq!(d.sample(&mut rng), 0.0);
    }

    #[test]
    fn uniform_bounds_and_moments() {
        let d = Uniform::new(128.0, 2048.0).unwrap();
        assert_eq!(d.mean(), 1088.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((128.0..2048.0).contains(&x));
        }
    }

    #[test]
    fn uniform_rejects_inverted_range() {
        assert!(Uniform::new(10.0, 10.0).is_err());
        assert!(Uniform::new(10.0, 5.0).is_err());
    }
}
