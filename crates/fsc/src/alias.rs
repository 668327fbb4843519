//! Walker/Vose alias tables for O(1) categorical draws.
//!
//! The catalog's file-selection path draws one candidate per planned file
//! reference — the innermost random choice of session planning. An alias
//! table answers any weighted categorical draw with one random number and
//! one comparison, replacing the O(n) cumulative linear scan that weighted
//! selection would otherwise need (the same step change guide tables gave
//! the continuous distributions in `uswg-distr`).
//!
//! Determinism contract: [`AliasTable::draw`] consumes exactly **one**
//! `next_u64` per draw, and a table built by [`AliasTable::uniform`] picks
//! exactly the same index as the catalog's historical `u % n` pick from the
//! same PRNG stream (property-tested in `tests/alias_equivalence.rs`). That
//! identity is why a uniformly sealed [`FileCatalog`](crate::FileCatalog)
//! builds no table at all and draws the modulo directly, and why sealing
//! changes no seeded workload by a single byte; only the weighted policies
//! pay for tables.

use crate::FscError;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Scales the top 53 bits of a `u64` into `[0, 1)`.
const U53_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// An O(1) sampler over a fixed finite distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AliasTable {
    /// Acceptance probability of each column, in `[0, 1]`.
    prob: Vec<f64>,
    /// Donor column used when a draw rejects its own column.
    alias: Vec<u32>,
}

/// SplitMix64 finalizer: decorrelates the acceptance fraction from the
/// column index, which both come from the same single `next_u64`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl AliasTable {
    /// Builds a table over `weights` (non-negative, not all zero) by Vose's
    /// stable O(n) construction.
    ///
    /// # Errors
    ///
    /// Returns [`FscError::BadWeights`] for an empty list, a non-finite or
    /// negative weight, or an all-zero sum.
    pub fn new(weights: &[f64]) -> Result<Self, FscError> {
        let n = weights.len();
        if n == 0 || n > u32::MAX as usize {
            return Err(FscError::BadWeights {
                reason: "need between 1 and 2^32 weights",
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(FscError::BadWeights {
                reason: "weights must be finite and non-negative",
            });
        }
        let sum: f64 = weights.iter().sum();
        if sum <= 0.0 {
            return Err(FscError::BadWeights {
                reason: "weights must not all be zero",
            });
        }
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / sum).collect();
        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(&l)) = (small.pop(), large.last()) {
            prob[s] = scaled[s];
            alias[s] = l as u32;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers on either worklist are within rounding of 1.
        for i in small {
            prob[i] = 1.0;
        }
        Ok(Self { prob, alias })
    }

    /// The uniform table over `n` categories. Skips floating-point entirely:
    /// every acceptance probability is exactly 1, so [`AliasTable::draw`]
    /// degenerates to `u % n` — bit-identical to a plain modulo pick.
    ///
    /// # Errors
    ///
    /// Returns [`FscError::BadWeights`] when `n` is zero or over `2^32`.
    pub fn uniform(n: usize) -> Result<Self, FscError> {
        if n == 0 || n > u32::MAX as usize {
            return Err(FscError::BadWeights {
                reason: "need between 1 and 2^32 weights",
            });
        }
        Ok(Self {
            prob: vec![1.0; n],
            alias: (0..n as u32).collect(),
        })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a category index, consuming exactly one `next_u64`.
    #[inline]
    pub fn draw(&self, rng: &mut dyn RngCore) -> usize {
        let u = rng.next_u64();
        let col = (u % self.prob.len() as u64) as usize;
        let p = self.prob[col];
        // Uniform fast path (and the bit-identity guarantee): a certain
        // column never needs the acceptance fraction.
        if p >= 1.0 {
            return col;
        }
        let frac = (splitmix64(u) >> 11) as f64 * U53_SCALE;
        if frac < p {
            col
        } else {
            self.alias[col] as usize
        }
    }
}

/// The O(n) reference draw: one uniform fraction walked through the
/// cumulative weights. This is the distribution an alias table must
/// reproduce — the chi-square and equivalence tests compare against it.
/// Consumes exactly one `next_u64`, like [`AliasTable::draw`].
///
/// # Panics
///
/// Panics on an empty weight list.
pub fn linear_scan_draw(weights: &[f64], rng: &mut dyn RngCore) -> usize {
    assert!(!weights.is_empty(), "cannot draw from zero categories");
    let sum: f64 = weights.iter().sum();
    let target = (rng.next_u64() >> 11) as f64 * U53_SCALE * sum;
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        if target < acc {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_weights() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[1.0, -0.5]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[1.0, f64::NAN]).is_err());
        assert!(AliasTable::uniform(0).is_err());
        let t = AliasTable::new(&[3.0, 1.0]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn zero_weight_categories_are_never_drawn() {
        let t = AliasTable::new(&[1.0, 0.0, 2.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let i = t.draw(&mut rng);
            assert!(i == 0 || i == 2, "drew zero-weight category {i}");
        }
    }

    #[test]
    fn single_category_always_wins() {
        let t = AliasTable::new(&[42.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(t.draw(&mut rng), 0);
        assert_eq!(linear_scan_draw(&[42.0], &mut rng), 0);
    }

    /// Pearson chi-square of observed counts against expected proportions.
    fn chi_square_stat(observed: &[u64], weights: &[f64], draws: u64) -> f64 {
        let sum: f64 = weights.iter().sum();
        observed
            .iter()
            .zip(weights)
            .map(|(&o, &w)| {
                let e = w / sum * draws as f64;
                (o as f64 - e) * (o as f64 - e) / e
            })
            .sum()
    }

    #[test]
    fn alias_draws_match_the_linear_scan_distribution() {
        // Skewed 8-category weights (Table 5.1-like fractions). Both
        // samplers must be consistent with the same expected counts: the
        // chi-square statistic stays under the df=7, α=0.001 critical value
        // (deterministic seeds make this a fixed number, not a flaky bound).
        let weights = [16.7, 9.2, 21.1, 14.6, 2.4, 16.0, 19.1, 0.9];
        let table = AliasTable::new(&weights).unwrap();
        const DRAWS: u64 = 200_000;
        const CHI_CRIT_DF7_P001: f64 = 24.32;

        let mut alias_counts = [0u64; 8];
        let mut rng = StdRng::seed_from_u64(0xA11A5);
        for _ in 0..DRAWS {
            alias_counts[table.draw(&mut rng)] += 1;
        }
        let alias_chi = chi_square_stat(&alias_counts, &weights, DRAWS);
        assert!(
            alias_chi < CHI_CRIT_DF7_P001,
            "alias draws diverge from the weights: chi2 = {alias_chi:.2}"
        );

        let mut scan_counts = [0u64; 8];
        let mut rng = StdRng::seed_from_u64(0x5CA9);
        for _ in 0..DRAWS {
            scan_counts[linear_scan_draw(&weights, &mut rng)] += 1;
        }
        let scan_chi = chi_square_stat(&scan_counts, &weights, DRAWS);
        assert!(
            scan_chi < CHI_CRIT_DF7_P001,
            "linear scan diverges from the weights: chi2 = {scan_chi:.2}"
        );

        // Two-sample check: the samplers agree with each other, not just
        // with the model (chi-square on alias counts vs scan frequencies).
        let scan_freqs: Vec<f64> = scan_counts.iter().map(|&c| c as f64).collect();
        let cross_chi = chi_square_stat(&alias_counts, &scan_freqs, DRAWS);
        assert!(
            cross_chi < 2.0 * CHI_CRIT_DF7_P001,
            "alias and linear-scan samples disagree: chi2 = {cross_chi:.2}"
        );
    }

    #[test]
    fn uniform_draw_is_bit_identical_to_modulo() {
        for n in [1usize, 2, 3, 7, 64, 1000] {
            let t = AliasTable::uniform(n).unwrap();
            let mut a = StdRng::seed_from_u64(99);
            let mut b = StdRng::seed_from_u64(99);
            for _ in 0..500 {
                let via_alias = t.draw(&mut a);
                let via_modulo = (b.next_u64() % n as u64) as usize;
                assert_eq!(via_alias, via_modulo, "n = {n}");
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let t = AliasTable::new(&[1.0, 2.0, 3.0]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: AliasTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
