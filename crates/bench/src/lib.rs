//! Regenerates the paper's Chapter 5: the library half of the `paper`
//! binary (`src/main.rs`), which holds one row per artefact.
//!
//! | `paper <id>` | regenerates |
//! |---|---|
//! | `fig5_01` | Figure 5.1 — phase-type exponential examples |
//! | `fig5_02` | Figure 5.2 — multi-stage gamma examples |
//! | `fig5_03`–`fig5_05` | usage-distribution histograms (600 sessions) |
//! | `fig5_06`–`fig5_11` | response time/byte vs users per population |
//! | `fig5_12` | response time/byte vs access size |
//! | `table5_1` | Table 5.1 — file characterization by category |
//! | `table5_2` | Table 5.2 — user characterization by category |
//! | `table5_3` | Table 5.3 — access size / response time vs users |
//! | `table5_4` | Table 5.4 — the simulated user types |
//! | `ablation_cache` | client block cache on/off (design-choice ablation) |
//! | `ablation_cdf_resolution` | CDF-table resolution vs accuracy/memory |
//! | `ablation_servers` | distributed-NFS server count vs saturation |
//!
//! Several ids print one after the other; no id, or one not in the table,
//! prints the id list and exits 2. Scale can be reduced for smoke runs with
//! `USWG_SESSIONS` (sessions per user, default 50 — the paper's per-point
//! count) and `USWG_SEED`; a value that is set but does not parse is an
//! error, not the default. Performance is measured elsewhere, by the
//! harness in `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use uswg_core::experiment::SweepPoint;
use uswg_core::{CoreError, WorkloadSpec};

/// The value of environment variable `name`, or `default` when it is unset.
fn env_or<T>(name: &str, default: T) -> Result<T, CoreError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(default),
        Err(e) => Err(CoreError::Spec(format!("{name}: {e}"))),
        Ok(value) => value
            .parse()
            .map_err(|e| CoreError::Spec(format!("{name}={value}: {e}"))),
    }
}

/// The full-scale paper workload: Table 5.1 file system, Table 5.2 usage,
/// `USWG_SESSIONS` sessions per user (default 50; the paper: "each response
/// time is the mean value during 50 login sessions") and `USWG_SEED` as the
/// base RNG seed (default 1991).
///
/// # Errors
///
/// A variable that is set but does not parse, in a message that names it and
/// its value; preset validation errors (none in practice).
pub fn paper_workload() -> Result<WorkloadSpec, CoreError> {
    let mut spec = WorkloadSpec::paper_default()?;
    spec.run.sessions_per_user = env_or("USWG_SESSIONS", 50)?;
    spec.run.seed = env_or("USWG_SEED", 1991)?;
    Ok(spec)
}

/// Estimates the slope of a sweep by least squares, for shape checks.
pub fn slope(points: &[SweepPoint]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.x).sum::<f64>() / n;
    let my = points.iter().map(|p| p.response_per_byte).sum::<f64>() / n;
    let cov: f64 = points
        .iter()
        .map(|p| (p.x - mx) * (p.response_per_byte - my))
        .sum();
    let var: f64 = points.iter().map(|p| (p.x - mx) * (p.x - mx)).sum();
    if var == 0.0 {
        0.0
    } else {
        cov / var
    }
}

/// Paper reference values for Table 5.3: `(users, access size mean, access
/// size std, response mean, response std)`.
pub const PAPER_TABLE_5_3: [(usize, f64, f64, f64, f64); 6] = [
    (1, 946.71, 956.76, 1_284.83, 4_201.52),
    (2, 936.06, 945.16, 1_716.26, 7_026.62),
    (3, 932.80, 946.87, 2_120.99, 13_308.12),
    (4, 956.12, 965.49, 2_447.55, 16_834.38),
    (5, 947.98, 948.53, 2_960.32, 16_197.86),
    (6, 928.66, 935.09, 3_494.30, 30_059.28),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_env() {
        assert_eq!(env_or("USWG_NO_SUCH_VARIABLE", 50u32), Ok(50));
    }

    #[test]
    fn slope_of_line_is_exact() {
        let mk = |x: f64, y: f64| SweepPoint {
            x,
            response_per_byte: y,
            access_size: uswg_core::Summary::of(&[]),
            response: uswg_core::Summary::of(&[]),
            sessions: 0,
        };
        let pts = vec![mk(1.0, 2.0), mk(2.0, 4.0), mk(3.0, 6.0)];
        assert!((slope(&pts) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&pts[..1]), 0.0);
    }

    #[test]
    fn paper_workload_builds() {
        let spec = paper_workload().unwrap();
        assert_eq!(spec.fsc.categories.len(), 9);
    }
}
