//! Special functions needed by the distribution families.
//!
//! Implemented from scratch (no external math crate): the log-gamma function
//! via the Lanczos approximation and the regularized incomplete gamma
//! functions via the classic series / continued-fraction split. Accuracy is
//! around 1e-12 relative over the parameter ranges used by workload models,
//! which is far below the statistical noise of any experiment in the paper.

use std::f64::consts::PI;

const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`
/// (values in `(0, 0.5)` are handled through the reflection formula).
///
/// # Panics
///
/// Panics if `x` is zero, negative, or not finite: the distribution families
/// in this crate only require positive arguments.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite() && x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1 − x) = π / sin(πx).
        (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let z = x - 1.0;
        let mut acc = LANCZOS_COEF[0];
        for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
            acc += c / (z + i as f64);
        }
        let t = z + LANCZOS_G + 0.5;
        0.5 * (2.0 * PI).ln() + (z + 0.5) * t.ln() - t + acc.ln()
    }
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// This is the CDF of a Gamma(shape = `a`, scale = 1) random variable. Uses
/// the power series for `x < a + 1` and the Lentz continued fraction for the
/// complement otherwise.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub(crate) fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_lower_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        0.0
    } else if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_continued_fraction(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub(crate) fn reg_upper_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_upper_gamma requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_upper_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        1.0
    } else if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_continued_fraction(a, x)
    }
}

/// Series expansion of `P(a, x)`, converging fast for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut term = sum;
    for _ in 0..1_000 {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    (sum.ln() - x + a * x.ln() - ln_gamma(a)).exp()
}

/// Modified Lentz continued-fraction evaluation of `Q(a, x)` for `x >= a + 1`.
fn gamma_continued_fraction(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..1_000 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (h.ln() - x + a * x.ln() - ln_gamma(a)).exp()
}

/// Asymptotic Kolmogorov–Smirnov tail probability `Q_KS(λ)`.
///
/// `Q_KS(λ) = 2 Σ_{j≥1} (−1)^{j−1} e^{−2 j² λ²}`; used to convert a KS
/// statistic into an approximate p-value. Returns 1 for tiny arguments and 0
/// for very large ones.
pub(crate) fn ks_q(lambda: f64) -> f64 {
    if lambda < 1e-8 {
        return 1.0;
    }
    let mut sign = 1.0;
    let mut sum = 0.0;
    let a = -2.0 * lambda * lambda;
    for j in 1..=100 {
        let term = sign * (a * (j * j) as f64).exp();
        sum += term;
        if term.abs() <= 1e-12 * sum.abs() || term.abs() < 1e-300 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * (1.0 + b.abs()), "{a} !~ {b}");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0_f64;
        for n in 1..15u32 {
            assert_close(ln_gamma(n as f64), fact.ln(), 1e-12);
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(π)
        assert_close(ln_gamma(0.5), PI.sqrt().ln(), 1e-12);
        // Γ(3/2) = sqrt(π)/2
        assert_close(ln_gamma(1.5), (PI.sqrt() / 2.0).ln(), 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.1, 0.7, 1.3, 2.9, 10.5, 42.0] {
            assert_close(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn incomplete_gamma_is_exponential_cdf_for_shape_one() {
        // P(1, x) = 1 − e^{−x}
        for &x in &[0.0, 0.1, 1.0, 3.0, 10.0] {
            assert_close(reg_lower_gamma(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_complementarity() {
        for &a in &[0.3, 1.0, 2.5, 9.0] {
            for &x in &[0.01, 0.5, 1.0, 4.0, 30.0] {
                let p = reg_lower_gamma(a, x);
                let q = reg_upper_gamma(a, x);
                assert_close(p + q, 1.0, 1e-12);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn incomplete_gamma_known_values() {
        // P(2, 2) = 1 - e^{-2}(1 + 2) = 0.59399415...
        assert_close(
            reg_lower_gamma(2.0, 2.0),
            1.0 - (-2.0f64).exp() * 3.0,
            1e-12,
        );
        // P(3, 1) = 1 - e^{-1}(1 + 1 + 0.5)
        assert_close(
            reg_lower_gamma(3.0, 1.0),
            1.0 - (-1.0f64).exp() * 2.5,
            1e-12,
        );
    }

    #[test]
    fn incomplete_gamma_monotone_in_x() {
        let mut prev = 0.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let p = reg_lower_gamma(2.5, x);
            assert!(p >= prev - 1e-15);
            prev = p;
        }
    }

    #[test]
    fn ks_q_limits() {
        assert_close(ks_q(0.0), 1.0, 1e-12);
        assert!(ks_q(3.0) < 1e-6);
        // Known value: Q_KS(1.0) ≈ 0.26999967...
        assert_close(ks_q(1.0), 0.269_999_67, 1e-6);
    }

    #[test]
    fn ks_q_is_monotone_decreasing() {
        let mut prev = 1.0;
        for i in 1..60 {
            let q = ks_q(i as f64 * 0.1);
            assert!(q <= prev + 1e-12);
            prev = q;
        }
    }
}
