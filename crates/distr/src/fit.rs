//! Fitting distribution families to empirical data.
//!
//! The GDS lets users "fit a phase-type exponential or multi-stage gamma
//! distribution to an empirical distribution" (Section 4.1.1). This module
//! implements that fitting step: data is partitioned into `k` clusters with a
//! one-dimensional Lloyd iteration, then each cluster is fitted by the method
//! of moments (exponential: mean; gamma: `α = m²/v`, `θ = v/m`) with the
//! cluster minimum as the offset and the cluster fraction as the weight.

use crate::gof::{ks_statistic, KsTest};
use crate::{DistrError, DistributionSpec, MultiStageGamma, PhaseTypeExp};

/// Smallest permitted scale when a cluster degenerates to a point.
const MIN_SCALE: f64 = 1e-9;
/// Gamma shapes are clamped into this range to keep fits sane.
const SHAPE_RANGE: (f64, f64) = (0.05, 500.0);

/// Fits a single exponential to `data` by matching the sample mean.
///
/// # Errors
///
/// Returns [`DistrError::InsufficientData`] for an empty sample and
/// [`DistrError::BadTable`] for negative, non-finite, or overflowing
/// samples (a sum too large for the mean to stay finite).
pub fn fit_exponential(data: &[f64]) -> Result<PhaseTypeExp, DistrError> {
    validate(data, 1)?;
    let mean = finite_mean(data)?;
    PhaseTypeExp::exponential(mean.max(MIN_SCALE))
}

/// Fits a `k`-phase phase-type exponential mixture to `data`.
///
/// # Errors
///
/// Returns [`DistrError::BadParameter`] when `k == 0`,
/// [`DistrError::InsufficientData`] when `data.len() < 2 * k`, and
/// [`DistrError::BadTable`] for invalid samples.
pub fn fit_phase_type(data: &[f64], k: usize) -> Result<PhaseTypeExp, DistrError> {
    validate(data, components_needed(k)?)?;
    let clusters = cluster_1d(data, k);
    let n = data.len() as f64;
    let phases = clusters
        .into_iter()
        .map(|c| {
            if !(c.mean.is_finite() && c.min.is_finite()) {
                return Err(DistrError::BadTable {
                    reason: "cluster mean overflowed (samples too large to average)".into(),
                });
            }
            let offset = c.min;
            let shifted_mean = (c.mean - offset).max(MIN_SCALE);
            Ok((c.count as f64 / n, shifted_mean, offset))
        })
        .collect::<Result<Vec<_>, _>>()?;
    PhaseTypeExp::new_normalized(phases)
}

/// Fits a `k`-stage multi-stage gamma mixture to `data`.
///
/// # Errors
///
/// Returns [`DistrError::BadParameter`] when `k == 0`,
/// [`DistrError::InsufficientData`] when `data.len() < 2 * k`, and
/// [`DistrError::BadTable`] for invalid samples.
pub fn fit_multi_stage_gamma(data: &[f64], k: usize) -> Result<MultiStageGamma, DistrError> {
    validate(data, components_needed(k)?)?;
    let clusters = cluster_1d(data, k);
    let n = data.len() as f64;
    let stages = clusters
        .into_iter()
        .map(|c| {
            if !(c.mean.is_finite() && c.variance.is_finite()) {
                return Err(DistrError::BadTable {
                    reason: "cluster moments overflowed (samples too large to average)".into(),
                });
            }
            // Offset slightly below the cluster minimum so the minimum itself
            // has positive density.
            let offset = (c.min - 0.05 * (c.mean - c.min).max(MIN_SCALE)).max(0.0);
            let m = (c.mean - offset).max(MIN_SCALE);
            let v = c.variance.max(MIN_SCALE * m);
            let alpha = (m * m / v).clamp(SHAPE_RANGE.0, SHAPE_RANGE.1);
            let theta = (m / alpha).max(MIN_SCALE);
            Ok((c.count as f64 / n, alpha, theta, offset))
        })
        .collect::<Result<Vec<_>, _>>()?;
    MultiStageGamma::new_normalized(stages)
}

/// The minimum sample count a `k`-component mixture fit needs (`2k`),
/// rejecting `k == 0` and `k` large enough to overflow the requirement.
fn components_needed(k: usize) -> Result<usize, DistrError> {
    if k == 0 {
        return Err(DistrError::BadParameter {
            name: "k",
            value: 0.0,
        });
    }
    k.checked_mul(2).ok_or(DistrError::BadParameter {
        name: "k",
        value: k as f64,
    })
}

/// The sample mean, rejecting a sum that overflowed to infinity — every
/// individual sample may be finite while their sum is not.
fn finite_mean(data: &[f64]) -> Result<f64, DistrError> {
    let mean = data.iter().sum::<f64>() / data.len() as f64;
    if mean.is_finite() {
        Ok(mean)
    } else {
        Err(DistrError::BadTable {
            reason: "sample mean overflowed (samples too large to average)".into(),
        })
    }
}

/// One candidate family tried by [`fit_best`], with its goodness of fit.
#[derive(Debug, Clone, PartialEq)]
pub struct BestFit {
    /// Short family label: `"constant"`, `"exponential"`, `"phase:K"` or
    /// `"gamma:K"`.
    pub family: String,
    /// The fitted distribution in serializable form.
    pub spec: DistributionSpec,
    /// KS test of the data against the fitted distribution.
    pub ks: KsTest,
}

/// Fits every supported family to `data` — a single exponential,
/// phase-type mixtures with 2..=`max_k` phases and multi-stage gammas with
/// 1..=`max_k` stages — and returns the candidate with the smallest KS
/// statistic. A sample with zero spread short-circuits to the exact
/// [`DistributionSpec::Constant`] point mass (the mixtures cannot represent
/// an atom, and a degenerate measure like an all-zero think time must
/// round-trip as the constant it is).
///
/// Candidates that fail to fit (e.g. too few samples for a large `k`) are
/// skipped; the error surfaces only when *no* family fits.
///
/// # Errors
///
/// Returns [`DistrError::InsufficientData`] for an empty sample,
/// [`DistrError::BadTable`] for invalid samples, and
/// [`DistrError::BadParameter`] when `max_k == 0`.
pub fn fit_best(data: &[f64], max_k: usize) -> Result<BestFit, DistrError> {
    if max_k == 0 {
        return Err(DistrError::BadParameter {
            name: "max_k",
            value: 0.0,
        });
    }
    validate(data, 1)?;
    let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if lo == hi {
        // Zero spread: the point mass is exact; no continuous family is.
        return Ok(BestFit {
            family: "constant".into(),
            spec: DistributionSpec::constant(lo),
            ks: KsTest {
                statistic: 0.0,
                p_value: 1.0,
            },
        });
    }
    let mut best: Option<BestFit> = None;
    let mut consider = |family: String, spec: DistributionSpec| -> Result<(), DistrError> {
        let dist = spec.build()?;
        let ks = ks_statistic(data, dist.as_ref())?;
        if best.as_ref().is_none_or(|b| ks.statistic < b.ks.statistic) {
            best = Some(BestFit { family, spec, ks });
        }
        Ok(())
    };
    match fit_exponential(data) {
        Ok(d) => {
            let p = d.phases()[0];
            consider(
                "exponential".into(),
                DistributionSpec::Exponential {
                    mean: p.theta,
                    offset: p.offset,
                },
            )?;
        }
        Err(e) => return Err(e),
    }
    for k in 2..=max_k {
        if let Ok(d) = fit_phase_type(data, k) {
            let phases = d.phases().iter().map(|p| (p.weight, p.theta, p.offset));
            consider(
                format!("phase:{k}"),
                DistributionSpec::PhaseTypeExp {
                    phases: phases.collect(),
                },
            )?;
        }
    }
    for k in 1..=max_k {
        if let Ok(d) = fit_multi_stage_gamma(data, k) {
            let stages = d
                .stages()
                .iter()
                .map(|s| (s.weight, s.alpha, s.theta, s.offset));
            consider(
                format!("gamma:{k}"),
                DistributionSpec::MultiStageGamma {
                    stages: stages.collect(),
                },
            )?;
        }
    }
    best.ok_or(DistrError::InsufficientData { needed: 1, got: 0 })
}

/// Summary of one cluster produced by [`cluster_1d`].
#[derive(Debug, Clone, Copy)]
struct Cluster {
    count: usize,
    min: f64,
    mean: f64,
    variance: f64,
}

/// One-dimensional Lloyd (k-means) clustering on sorted data.
///
/// Initializes centroids at the `k` quantile midpoints and iterates
/// assignment/update until stable (1-D clusters are always contiguous in the
/// sorted order, so assignment reduces to threshold search).
fn cluster_1d(data: &[f64], k: usize) -> Vec<Cluster> {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len();
    let k = k.min(n);

    // Initial boundaries at equal-count quantiles.
    let mut bounds: Vec<usize> = (1..k).map(|i| i * n / k).collect();

    for _ in 0..64 {
        // Centroids of current segments.
        let mut centroids = Vec::with_capacity(k);
        let mut start = 0;
        for b in bounds.iter().copied().chain(std::iter::once(n)) {
            let seg = &sorted[start..b];
            if seg.is_empty() {
                centroids.push(sorted[start.min(n - 1)]);
            } else {
                centroids.push(seg.iter().sum::<f64>() / seg.len() as f64);
            }
            start = b;
        }
        // New boundaries: midpoint between adjacent centroids.
        let mut new_bounds = Vec::with_capacity(k.saturating_sub(1));
        for w in centroids.windows(2) {
            let cut = 0.5 * (w[0] + w[1]);
            let idx = sorted.partition_point(|&x| x < cut);
            new_bounds.push(idx);
        }
        // Enforce strictly increasing, non-empty segments.
        for i in 0..new_bounds.len() {
            let lo = if i == 0 { 1 } else { new_bounds[i - 1] + 1 };
            let hi = n - (new_bounds.len() - i);
            new_bounds[i] = new_bounds[i].clamp(lo, hi);
        }
        if new_bounds == bounds {
            break;
        }
        bounds = new_bounds;
    }

    let mut clusters = Vec::with_capacity(k);
    let mut start = 0;
    for b in bounds.iter().copied().chain(std::iter::once(n)) {
        let seg = &sorted[start..b];
        if !seg.is_empty() {
            let mean = seg.iter().sum::<f64>() / seg.len() as f64;
            let variance = if seg.len() > 1 {
                seg.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (seg.len() - 1) as f64
            } else {
                0.0
            };
            clusters.push(Cluster {
                count: seg.len(),
                min: seg[0],
                mean,
                variance,
            });
        }
        start = b;
    }
    clusters
}

fn validate(data: &[f64], needed: usize) -> Result<(), DistrError> {
    if data.len() < needed {
        return Err(DistrError::InsufficientData {
            needed,
            got: data.len(),
        });
    }
    if data.iter().any(|x| !x.is_finite() || *x < 0.0) {
        return Err(DistrError::BadTable {
            reason: "samples must be finite and non-negative".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distribution;
    use rand::SeedableRng;

    fn draws(d: &dyn Distribution, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn exponential_fit_recovers_mean() {
        let truth = crate::Exponential::new(5000.0).unwrap();
        let data = draws(&truth, 50_000, 1);
        let fitted = fit_exponential(&data).unwrap();
        assert!((fitted.mean() - 5000.0).abs() / 5000.0 < 0.02);
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(fit_exponential(&[]).is_err());
        assert!(fit_phase_type(&[1.0], 0).is_err());
        assert!(fit_phase_type(&[1.0, 2.0], 4).is_err());
        assert!(fit_exponential(&[1.0, f64::NAN]).is_err());
        assert!(fit_exponential(&[-1.0, 2.0]).is_err());
    }

    /// Every fitter, against every degenerate real-log input shape: the
    /// result is either a clean `DistrError` or a distribution with finite,
    /// usable parameters — never a panic, never NaN.
    #[test]
    fn fitters_survive_degenerate_inputs() {
        let empty: Vec<f64> = vec![];
        let single = vec![7.5];
        let identical = vec![3.0; 64];
        let zeros = vec![0.0; 64];
        let with_nan = vec![1.0, f64::NAN, 2.0];
        let with_inf = vec![1.0, f64::INFINITY];
        let negative = vec![-1.0, 1.0, 2.0];
        let huge = vec![f64::MAX; 8]; // finite samples, overflowing sum
        let cases: [(&str, &[f64]); 8] = [
            ("empty", &empty),
            ("single", &single),
            ("identical", &identical),
            ("zeros", &zeros),
            ("nan", &with_nan),
            ("inf", &with_inf),
            ("negative", &negative),
            ("huge", &huge),
        ];
        for (name, data) in cases {
            match fit_exponential(data) {
                Ok(d) => assert!(d.mean().is_finite(), "exp {name}: NaN/inf mean"),
                Err(e) => drop(e), // clean error is acceptable
            }
            for k in [1usize, 2, 3] {
                match fit_phase_type(data, k) {
                    Ok(d) => {
                        assert!(d.mean().is_finite(), "phase:{k} {name}");
                        for p in d.phases() {
                            assert!(
                                p.weight.is_finite() && p.theta.is_finite() && p.offset.is_finite(),
                                "phase:{k} {name}: non-finite parameter {p:?}"
                            );
                        }
                    }
                    Err(e) => drop(e),
                }
                match fit_multi_stage_gamma(data, k) {
                    Ok(d) => {
                        assert!(d.mean().is_finite(), "gamma:{k} {name}");
                        for s in d.stages() {
                            assert!(
                                s.weight.is_finite()
                                    && s.alpha.is_finite()
                                    && s.theta.is_finite()
                                    && s.offset.is_finite(),
                                "gamma:{k} {name}: non-finite parameter {s:?}"
                            );
                        }
                    }
                    Err(e) => drop(e),
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs_error_cleanly_where_no_fit_exists() {
        // Empty and too-short samples: InsufficientData, not a panic.
        assert!(matches!(
            fit_exponential(&[]),
            Err(DistrError::InsufficientData { .. })
        ));
        assert!(matches!(
            fit_phase_type(&[1.0], 2),
            Err(DistrError::InsufficientData { needed: 4, got: 1 })
        ));
        assert!(matches!(
            fit_multi_stage_gamma(&[1.0, 2.0, 3.0], 2),
            Err(DistrError::InsufficientData { needed: 4, got: 3 })
        ));
        // NaN / inf / negative samples: BadTable.
        for bad in [&[f64::NAN][..], &[f64::INFINITY], &[-0.5, 1.0]] {
            assert!(matches!(
                fit_phase_type(bad, 1),
                Err(DistrError::InsufficientData { .. }) | Err(DistrError::BadTable { .. })
            ));
        }
        // A sum overflowing to infinity from finite samples: clean error.
        let huge = vec![f64::MAX; 4];
        assert!(matches!(
            fit_exponential(&huge),
            Err(DistrError::BadTable { .. })
        ));
        assert!(matches!(
            fit_phase_type(&huge, 2),
            Err(DistrError::BadTable { .. }) | Err(DistrError::BadScale { .. })
        ));
        assert!(matches!(
            fit_multi_stage_gamma(&huge, 2),
            Err(DistrError::BadTable { .. }) | Err(DistrError::BadScale { .. })
        ));
        // k so large that `2 * k` would overflow: BadParameter, not a
        // debug-build panic.
        assert!(matches!(
            fit_phase_type(&[1.0, 2.0], usize::MAX),
            Err(DistrError::BadParameter { name: "k", .. })
        ));
        assert!(matches!(
            fit_multi_stage_gamma(&[1.0, 2.0], usize::MAX / 2 + 1),
            Err(DistrError::BadParameter { name: "k", .. })
        ));
    }

    #[test]
    fn single_sample_and_zeros_fit_cleanly() {
        // One sample is enough for an exponential; the fit degenerates to
        // the sample itself as the mean.
        let d = fit_exponential(&[7.5]).unwrap();
        assert!((d.mean() - 7.5).abs() < 1e-9);
        // All zeros: a clean minimal-scale exponential, not NaN.
        let d = fit_exponential(&[0.0; 32]).unwrap();
        assert!(d.mean().is_finite());
        let d = fit_multi_stage_gamma(&[0.0; 32], 2).unwrap();
        assert!(d.mean().is_finite());
    }

    #[test]
    fn fit_best_selects_reasonable_families() {
        // Constant data short-circuits to the exact point mass.
        let best = fit_best(&[3.0; 50], 3).unwrap();
        assert_eq!(best.family, "constant");
        assert_eq!(best.spec, DistributionSpec::constant(3.0));
        assert_eq!(best.ks.statistic, 0.0);
        // Exponential draws select a 1-ish component family whose KS
        // statistic is small.
        let truth = crate::Exponential::new(1000.0).unwrap();
        let data = draws(&truth, 4_000, 11);
        let best = fit_best(&data, 3).unwrap();
        assert!(best.ks.statistic < 0.05, "{best:?}");
        assert!((best.spec.mean().unwrap() - 1000.0).abs() / 1000.0 < 0.1);
        // A well-separated bimodal mixture is matched far better by the
        // winning candidate than by a single exponential.
        let truth = PhaseTypeExp::new(vec![(0.5, 10.0, 0.0), (0.5, 10.0, 500.0)]).unwrap();
        let data = draws(&truth, 4_000, 12);
        let best = fit_best(&data, 3).unwrap();
        let single = fit_exponential(&data).unwrap();
        let single_ks = crate::gof::ks_statistic(&data, &single).unwrap();
        assert!(
            best.ks.statistic < single_ks.statistic * 0.5,
            "best {} vs single-exp {}",
            best.ks.statistic,
            single_ks.statistic
        );
        // The winner always round-trips through its serializable spec.
        assert!(best.spec.build().is_ok());
    }

    #[test]
    fn fit_best_validates_input() {
        assert!(matches!(
            fit_best(&[], 3),
            Err(DistrError::InsufficientData { .. })
        ));
        assert!(matches!(
            fit_best(&[1.0, 2.0], 0),
            Err(DistrError::BadParameter { name: "max_k", .. })
        ));
        assert!(fit_best(&[1.0, f64::NAN], 3).is_err());
    }

    #[test]
    fn phase_type_fit_recovers_bimodal_mixture() {
        // Well-separated two-phase mixture.
        let truth = PhaseTypeExp::new(vec![(0.5, 5.0, 0.0), (0.5, 5.0, 100.0)]).unwrap();
        let data = draws(&truth, 40_000, 2);
        let fitted = fit_phase_type(&data, 2).unwrap();
        assert!((fitted.mean() - truth.mean()).abs() / truth.mean() < 0.05);
        // The fitted phases should be well separated; the second phase's
        // offset is the cluster minimum, which a stray tail sample from the
        // first mode can pull well below 100, so only require separation.
        let offsets: Vec<f64> = fitted.phases().iter().map(|p| p.offset).collect();
        let spread = offsets.iter().cloned().fold(0.0f64, f64::max)
            - offsets.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 40.0, "offsets = {offsets:?}");
    }

    #[test]
    fn gamma_fit_recovers_shape_roughly() {
        let truth = MultiStageGamma::single(4.0, 10.0, 0.0).unwrap();
        let data = draws(&truth, 40_000, 3);
        let fitted = fit_multi_stage_gamma(&data, 1).unwrap();
        let stage = fitted.stages()[0];
        assert!((fitted.mean() - truth.mean()).abs() / truth.mean() < 0.05);
        assert!(
            stage.alpha > 2.0 && stage.alpha < 8.0,
            "alpha = {}",
            stage.alpha
        );
    }

    #[test]
    fn gamma_mixture_fit_improves_ks_over_single() {
        let truth =
            MultiStageGamma::new(vec![(0.6, 2.0, 5.0, 0.0), (0.4, 3.0, 8.0, 80.0)]).unwrap();
        let data = draws(&truth, 20_000, 4);
        let single = fit_multi_stage_gamma(&data, 1).unwrap();
        let double = fit_multi_stage_gamma(&data, 2).unwrap();
        let ks1 = crate::gof::ks_statistic(&data, &single).unwrap();
        let ks2 = crate::gof::ks_statistic(&data, &double).unwrap();
        assert!(
            ks2.statistic < ks1.statistic,
            "{} vs {}",
            ks2.statistic,
            ks1.statistic
        );
    }

    #[test]
    fn fit_handles_identical_samples() {
        let data = vec![3.0; 100];
        let fitted = fit_phase_type(&data, 2).unwrap();
        assert!((fitted.mean() - 3.0).abs() < 0.1);
    }

    #[test]
    fn cluster_count_never_exceeds_k() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        for k in 1..=5 {
            let c = cluster_1d(&data, k);
            assert!(c.len() <= k);
            assert_eq!(c.iter().map(|c| c.count).sum::<usize>(), 100);
        }
    }

    #[test]
    fn clusters_partition_sorted_data() {
        let data = vec![1.0, 1.1, 1.2, 50.0, 51.0, 52.0, 200.0, 201.0];
        let c = cluster_1d(&data, 3);
        assert_eq!(c.len(), 3);
        assert!(c[0].min < c[1].min && c[1].min < c[2].min);
    }
}
