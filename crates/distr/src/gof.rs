//! Goodness-of-fit statistics.
//!
//! One of the paper's stated criteria is that a workload generator "be
//! amenable to statistical tests of similarity to the real workload"
//! (Section 2.2). This module provides the two classic tests used for that
//! purpose: Kolmogorov–Smirnov and Pearson's chi-square.

use crate::special::{ks_q, reg_upper_gamma};
use crate::{DistrError, Distribution};
use serde::{Deserialize, Serialize};

/// Result of a Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KsTest {
    /// The KS statistic `D = sup_x |F_n(x) − F(x)|`.
    pub statistic: f64,
    /// Asymptotic p-value for the null hypothesis that the data was drawn
    /// from the reference distribution.
    pub p_value: f64,
}

/// Result of a chi-square test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChiSquareTest {
    /// Pearson's `X² = Σ (O_i − E_i)² / E_i`.
    pub statistic: f64,
    /// Degrees of freedom used (`usable bins − 1`, after low-expected-count
    /// bins are merged).
    pub degrees_of_freedom: usize,
    /// Upper-tail p-value from the chi-square distribution.
    pub p_value: f64,
}

/// Computes the one-sample Kolmogorov–Smirnov statistic of `data` against
/// the reference distribution `dist`.
///
/// Tied samples are handled as one block: the empirical CDF jumps by the
/// whole tie weight at the tied value, so the deviation is evaluated just
/// below the block (`F(x) − i/n`) and at its top (`(i + t)/n − F(x)`) —
/// evaluating per-index inside a tie block would understate the jump.
///
/// # Errors
///
/// Returns [`DistrError::InsufficientData`] for an empty sample and
/// [`DistrError::BadTable`] for non-finite samples.
pub fn ks_statistic(data: &[f64], dist: &dyn Distribution) -> Result<KsTest, DistrError> {
    if data.is_empty() {
        return Err(DistrError::InsufficientData { needed: 1, got: 0 });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(DistrError::BadTable {
            reason: "samples must be finite".into(),
        });
    }
    Ok(ks_of_sorted(&sorted(data), dist))
}

/// `data` in ascending order: the one sort every statistic and fitter over
/// it shares. Stable, so equal values (`-0.0` and `0.0`) keep their order.
pub(crate) fn sorted(data: &[f64]) -> Vec<f64> {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    sorted
}

/// [`ks_statistic`] of a non-empty, finite, ascending sample.
pub(crate) fn ks_of_sorted(sorted: &[f64], dist: &dyn Distribution) -> KsTest {
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    let mut i = 0;
    while i < sorted.len() {
        let x = sorted[i];
        let mut j = i + 1;
        while j < sorted.len() && sorted[j] == x {
            j += 1;
        }
        let f = dist.cdf(x);
        let below = i as f64 / n; // empirical CDF just below the tie block
        let at = j as f64 / n; // empirical CDF at (and above) the block
        d = d.max((f - below).abs()).max((at - f).abs());
        i = j;
    }
    let sqrt_n = n.sqrt();
    // Asymptotic p-value with the standard small-sample correction.
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    KsTest {
        statistic: d,
        p_value: ks_q(lambda),
    }
}

/// Computes the two-sample Kolmogorov–Smirnov statistic between samples
/// `a` and `b`: `D = sup_x |F_a(x) − F_b(x)|`, with the asymptotic p-value
/// using the effective size `n_a n_b / (n_a + n_b)`. Ties within and across
/// the samples are handled by evaluating both empirical CDFs only at the
/// top of each distinct-value block.
///
/// # Errors
///
/// Returns [`DistrError::InsufficientData`] when either sample is empty and
/// [`DistrError::BadTable`] for non-finite samples.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<KsTest, DistrError> {
    if a.is_empty() || b.is_empty() {
        return Err(DistrError::InsufficientData {
            needed: 1,
            got: a.len().min(b.len()),
        });
    }
    if a.iter().chain(b).any(|x| !x.is_finite()) {
        return Err(DistrError::BadTable {
            reason: "samples must be finite".into(),
        });
    }
    let (sa, sb) = (sorted(a), sorted(b));
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    while i < sa.len() || j < sb.len() {
        // The next distinct value across both samples.
        let x = match (sa.get(i), sb.get(j)) {
            (Some(&xa), Some(&xb)) => xa.min(xb),
            (Some(&xa), None) => xa,
            (None, Some(&xb)) => xb,
            (None, None) => break,
        };
        while i < sa.len() && sa[i] == x {
            i += 1;
        }
        while j < sb.len() && sb[j] == x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    let ne = na * nb / (na + nb);
    let sqrt_ne = ne.sqrt();
    let lambda = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * d;
    Ok(KsTest {
        statistic: d,
        p_value: ks_q(lambda),
    })
}

/// Computes Pearson's chi-square statistic of `data` against `dist`.
///
/// Bin edges start at the reference quantiles `i/bins`, but — unlike the
/// textbook equal-probability construction — the expected count of each bin
/// is computed from actual CDF differences, so a reference distribution
/// with atoms or flat CDF stretches (where several quantiles coincide) is
/// still binned correctly. Adjacent bins are then merged until every
/// expected count reaches the classic `≥ 5` validity threshold, and the
/// degrees of freedom reflect the merged bin count.
///
/// # Errors
///
/// Returns [`DistrError::BadParameter`] when `bins < 2`,
/// [`DistrError::InsufficientData`] when the sample cannot give every
/// requested bin an expected count of 5, [`DistrError::BadTable`] for
/// non-finite samples or when merging leaves fewer than 2 usable bins
/// (every bin of positive expected mass collapsed together — the reference
/// concentrates its mass too tightly for a chi-square comparison).
pub fn chi_square(
    data: &[f64],
    dist: &dyn Distribution,
    bins: usize,
) -> Result<ChiSquareTest, DistrError> {
    if bins < 2 {
        return Err(DistrError::BadParameter {
            name: "bins",
            value: bins as f64,
        });
    }
    let n = data.len();
    if (n as f64) / (bins as f64) < 5.0 {
        return Err(DistrError::InsufficientData {
            needed: 5 * bins,
            got: n,
        });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(DistrError::BadTable {
            reason: "samples must be finite".into(),
        });
    }
    // Candidate edges at the reference quantiles. Duplicate edges (flat
    // CDF regions, atoms) are collapsed: a duplicate would describe a bin
    // of zero width and zero probability.
    let mut edges: Vec<f64> = Vec::with_capacity(bins - 1);
    for i in 1..bins {
        let q = dist.quantile(i as f64 / bins as f64);
        if edges.last().is_none_or(|&e| q > e) {
            edges.push(q);
        }
    }
    // Observed counts by binary search; expected counts from CDF
    // differences across the same edges (never the flat `n / bins`, which
    // is wrong whenever quantiles collide).
    let mut observed = vec![0u64; edges.len() + 1];
    for &x in data {
        observed[edges.partition_point(|&e| e < x)] += 1;
    }
    let mut expected = Vec::with_capacity(edges.len() + 1);
    let mut prev_cdf = 0.0;
    for &e in &edges {
        let c = dist.cdf(e);
        expected.push((c - prev_cdf).max(0.0) * n as f64);
        prev_cdf = c;
    }
    expected.push((1.0 - prev_cdf).max(0.0) * n as f64);
    // Merge adjacent bins until every expected count is ≥ 5. Zero-expected
    // bins (reference says impossible, data may disagree) merge into a
    // neighbor rather than dividing by zero.
    let mut merged: Vec<(u64, f64)> = Vec::with_capacity(expected.len());
    let mut acc_obs = 0u64;
    let mut acc_exp = 0.0f64;
    for (&o, &e) in observed.iter().zip(&expected) {
        acc_obs += o;
        acc_exp += e;
        if acc_exp >= 5.0 {
            merged.push((acc_obs, acc_exp));
            acc_obs = 0;
            acc_exp = 0.0;
        }
    }
    if acc_exp > 0.0 || acc_obs > 0 {
        // Fold the low-mass tail into the last usable bin.
        if let Some(last) = merged.last_mut() {
            last.0 += acc_obs;
            last.1 += acc_exp;
        }
    }
    if merged.len() < 2 {
        return Err(DistrError::BadTable {
            reason: "fewer than 2 usable bins after merging low-expected-count bins \
                     (reference distribution concentrates its mass too tightly)"
                .into(),
        });
    }
    debug_assert!(merged.iter().all(|&(_, e)| e >= 5.0));
    let statistic: f64 = merged
        .iter()
        .map(|&(o, e)| {
            let d = o as f64 - e;
            d * d / e
        })
        .sum();
    let dof = merged.len() - 1;
    // Upper tail of chi-square(dof): Q(dof/2, x/2).
    let p_value = reg_upper_gamma(dof as f64 / 2.0, statistic / 2.0);
    Ok(ChiSquareTest {
        statistic,
        degrees_of_freedom: dof,
        p_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exponential, PhaseTypeExp};
    use rand::SeedableRng;

    fn draws(d: &dyn Distribution, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn ks_accepts_correct_model() {
        let d = Exponential::new(1024.0).unwrap();
        let data = draws(&d, 5_000, 7);
        let t = ks_statistic(&data, &d).unwrap();
        assert!(t.p_value > 0.01, "p = {}", t.p_value);
        assert!(t.statistic < 0.03);
    }

    #[test]
    fn ks_rejects_wrong_model() {
        let truth = Exponential::new(1024.0).unwrap();
        let wrong = Exponential::new(128.0).unwrap();
        let data = draws(&truth, 5_000, 8);
        let t = ks_statistic(&data, &wrong).unwrap();
        assert!(t.p_value < 1e-6, "p = {}", t.p_value);
    }

    #[test]
    fn ks_distinguishes_mixture_from_single() {
        let truth = PhaseTypeExp::new(vec![(0.5, 10.0, 0.0), (0.5, 10.0, 200.0)]).unwrap();
        let single = Exponential::new(truth.mean()).unwrap();
        let data = draws(&truth, 5_000, 9);
        let against_truth = ks_statistic(&data, &truth).unwrap();
        let against_single = ks_statistic(&data, &single).unwrap();
        assert!(against_truth.statistic < against_single.statistic);
    }

    #[test]
    fn ks_validates_input() {
        let d = Exponential::new(1.0).unwrap();
        assert!(ks_statistic(&[], &d).is_err());
        assert!(ks_statistic(&[f64::NAN], &d).is_err());
    }

    #[test]
    fn chi_square_accepts_correct_model() {
        let d = Exponential::new(50.0).unwrap();
        let data = draws(&d, 10_000, 10);
        let t = chi_square(&data, &d, 20).unwrap();
        assert!(t.p_value > 0.001, "p = {}", t.p_value);
        assert_eq!(t.degrees_of_freedom, 19);
    }

    #[test]
    fn chi_square_rejects_wrong_model() {
        let truth = Exponential::new(50.0).unwrap();
        let wrong = Exponential::new(10.0).unwrap();
        let data = draws(&truth, 10_000, 11);
        let t = chi_square(&data, &wrong, 20).unwrap();
        assert!(t.p_value < 1e-9);
    }

    #[test]
    fn chi_square_validates_input() {
        let d = Exponential::new(1.0).unwrap();
        let data = draws(&d, 30, 12);
        assert!(chi_square(&data, &d, 1).is_err());
        assert!(chi_square(&data, &d, 10).is_err()); // 30/10 = 3 < 5 per bin
        assert!(chi_square(&[f64::NAN; 100], &d, 2).is_err());
    }

    // ---- tied samples ---------------------------------------------------

    #[test]
    fn ks_tied_samples_analytic() {
        // Two samples both at 0.5 against Uniform(0, 1): the empirical CDF
        // jumps from 0 to 1 at 0.5 where F = 0.5, so D = 0.5 exactly.
        let u = crate::Uniform::new(0.0, 1.0).unwrap();
        let t = ks_statistic(&[0.5, 0.5], &u).unwrap();
        assert!((t.statistic - 0.5).abs() < 1e-12, "D = {}", t.statistic);

        // All eight samples tied at 0.25: D = max(F(0.25), 1 - F(0.25)) = 0.75.
        let t = ks_statistic(&[0.25; 8], &u).unwrap();
        assert!((t.statistic - 0.75).abs() < 1e-12, "D = {}", t.statistic);

        // Partial tie block: [0.1, 0.5, 0.5, 0.5, 0.9] (n = 5). At the tie
        // block the ECDF spans 1/5..4/5 around F(0.5) = 0.5, so the largest
        // deviation is |4/5 − 0.5| = 0.3 (the 0.9 sample gives |4/5 − 0.9|
        // below and |1 − 0.9| at, both smaller).
        let t = ks_statistic(&[0.1, 0.5, 0.5, 0.5, 0.9], &u).unwrap();
        assert!((t.statistic - 0.3).abs() < 1e-12, "D = {}", t.statistic);
    }

    #[test]
    fn ks_ties_do_not_change_untied_result() {
        // On tie-free data the block walk must match the classic per-index
        // formula.
        let d = Exponential::new(64.0).unwrap();
        let data = draws(&d, 1_000, 13);
        let t = ks_statistic(&data, &d).unwrap();
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len() as f64;
        let mut expect = 0.0f64;
        for (i, &x) in sorted.iter().enumerate() {
            let f = d.cdf(x);
            expect = expect
                .max((f - i as f64 / n).abs())
                .max(((i + 1) as f64 / n - f).abs());
        }
        assert!((t.statistic - expect).abs() < 1e-15);
    }

    // ---- two-sample KS --------------------------------------------------

    #[test]
    fn ks_two_sample_analytic() {
        // Identical samples: D = 0.
        let t = ks_two_sample(&[1.0, 2.0, 3.0], &[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(t.statistic, 0.0);
        assert!(t.p_value > 0.99);

        // Disjoint samples: D = 1.
        let t = ks_two_sample(&[0.0, 0.0], &[1.0, 1.0]).unwrap();
        assert_eq!(t.statistic, 1.0);

        // [1, 2] vs [1, 3]: the CDFs agree at 1 (both 1/2) and diverge at 2
        // (1 vs 1/2), so D = 1/2 — and ties across samples must not double
        // count.
        let t = ks_two_sample(&[1.0, 2.0], &[1.0, 3.0]).unwrap();
        assert!((t.statistic - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_two_sample_symmetric_and_validated() {
        let a = draws(&Exponential::new(10.0).unwrap(), 400, 14);
        let b = draws(&Exponential::new(12.0).unwrap(), 300, 15);
        let ab = ks_two_sample(&a, &b).unwrap();
        let ba = ks_two_sample(&b, &a).unwrap();
        assert_eq!(ab.statistic, ba.statistic);
        assert_eq!(ab.p_value, ba.p_value);
        assert!(ks_two_sample(&[], &a).is_err());
        assert!(ks_two_sample(&a, &[]).is_err());
        assert!(ks_two_sample(&[1.0, f64::INFINITY], &a).is_err());
    }

    #[test]
    fn ks_two_sample_accepts_same_source_rejects_different() {
        let d = Exponential::new(100.0).unwrap();
        let a = draws(&d, 2_000, 16);
        let b = draws(&d, 2_000, 17);
        let same = ks_two_sample(&a, &b).unwrap();
        assert!(same.p_value > 0.01, "p = {}", same.p_value);
        let c = draws(&Exponential::new(150.0).unwrap(), 2_000, 18);
        let diff = ks_two_sample(&a, &c).unwrap();
        assert!(diff.p_value < 1e-6, "p = {}", diff.p_value);
    }

    // ---- chi-square bin handling ----------------------------------------

    /// Mixture of an atom at 0.5 (weight `atom`) and Uniform(0, 1) for the
    /// rest — a CDF with a vertical jump, which collapses several reference
    /// quantiles onto the same edge.
    #[derive(Debug)]
    struct MidAtom {
        atom: f64,
    }

    impl Distribution for MidAtom {
        fn pdf(&self, _x: f64) -> f64 {
            unreachable!("not needed by gof tests")
        }
        fn cdf(&self, x: f64) -> f64 {
            if x < 0.0 {
                0.0
            } else if x >= 1.0 {
                1.0
            } else {
                let u = (1.0 - self.atom) * x;
                if x >= 0.5 {
                    u + self.atom
                } else {
                    u
                }
            }
        }
        fn mean(&self) -> f64 {
            0.5
        }
        fn variance(&self) -> f64 {
            (1.0 - self.atom) / 12.0
        }
        fn sample(&self, _rng: &mut dyn rand::RngCore) -> f64 {
            unreachable!("not needed by gof tests")
        }
        fn support_max(&self) -> f64 {
            1.0
        }
        fn quantile(&self, p: f64) -> f64 {
            let w = 1.0 - self.atom;
            let lo = 0.5 * w; // CDF just below the atom
            if p <= lo {
                p / w
            } else if p <= lo + self.atom {
                0.5
            } else {
                (p - self.atom) / w
            }
        }
    }

    /// A perfect quantile sample of size `n` from `d`.
    fn quantile_sample(d: &dyn Distribution, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| d.quantile((i as f64 + 0.5) / n as f64))
            .collect()
    }

    #[test]
    fn chi_square_atom_reference_accepts_its_own_sample() {
        // 30% atom at 0.5: quantiles 0.4, 0.5, 0.6 all collapse to x = 0.5.
        // The old flat `n / bins` expected-count rule would assign mass to
        // the duplicate zero-width bins and falsely reject; CDF-difference
        // expected counts must accept a perfect sample of the mixture.
        let d = MidAtom { atom: 0.3 };
        let data = quantile_sample(&d, 100);
        let t = chi_square(&data, &d, 10).unwrap();
        assert!(t.p_value > 0.5, "p = {} (stat {})", t.p_value, t.statistic);
        assert!(t.statistic < 2.0, "stat = {}", t.statistic);
    }

    #[test]
    fn chi_square_merges_low_expected_bins() {
        // n = 60, bins = 10 over the 30% mid-atom mixture: after collapsing
        // the duplicate 0.5 edges, the bin just above the atom expects only
        // 3 samples (< 5), so it must merge with its neighbor — leaving 7
        // usable bins and dof = 6.
        let d = MidAtom { atom: 0.3 };
        let data = quantile_sample(&d, 60);
        let t = chi_square(&data, &d, 10).unwrap();
        assert_eq!(t.degrees_of_freedom, 6);
        assert!(t.p_value > 0.5, "p = {} (stat {})", t.p_value, t.statistic);
    }

    #[test]
    fn chi_square_atom_reference_rejects_wrong_sample() {
        // Merged binning must still have power: a pure uniform sample (no
        // atom) against the 30%-atom reference is strongly rejected.
        let d = MidAtom { atom: 0.3 };
        let uniform = crate::Uniform::new(0.0, 1.0).unwrap();
        let data = quantile_sample(&uniform, 200);
        let t = chi_square(&data, &d, 10).unwrap();
        assert!(t.p_value < 1e-6, "p = {}", t.p_value);
    }

    #[test]
    fn chi_square_degenerate_reference_errors_cleanly() {
        // A constant reference collapses every quantile onto one edge and
        // every expected count into one bin: no valid chi-square comparison
        // exists, so this must be a clean error — never a division by a
        // zero expected count.
        let c = crate::Constant::new(5.0).unwrap();
        let data = vec![5.0; 100];
        match chi_square(&data, &c, 10) {
            Err(DistrError::BadTable { .. }) => {}
            other => panic!("expected BadTable, got {other:?}"),
        }
    }
}
