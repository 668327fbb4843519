//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every artifact of the paper's Chapter 5 has one binary in `src/bin`:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig5_01` | Figure 5.1 — phase-type exponential examples |
//! | `fig5_02` | Figure 5.2 — multi-stage gamma examples |
//! | `table5_1` | Table 5.1 — file characterization by category |
//! | `table5_2` | Table 5.2 — user characterization by category |
//! | `table5_3` | Table 5.3 — access size / response time vs users |
//! | `table5_4` | Table 5.4 — the simulated user types |
//! | `fig5_03`–`fig5_05` | usage-distribution histograms (600 sessions) |
//! | `fig5_06`–`fig5_11` | response time/byte vs users per population |
//! | `fig5_12` | response time/byte vs access size |
//! | `ablation_cache` | client block cache on/off (design-choice ablation) |
//! | `ablation_cdf_resolution` | CDF-table resolution vs accuracy/memory |
//! | `ablation_servers` | distributed-NFS server count vs saturation |
//!
//! Beyond the paper artifacts, `bench_baseline` writes the committed
//! `BENCH_baseline.json` perf snapshot (schema 3: sampling, DES
//! throughput, scheduler backends, sweep parallelism, sweep memory under
//! a counting allocator, and work-stealing pool scaling).
//!
//! Scale can be reduced for smoke runs with `USWG_SESSIONS` (sessions per
//! user, default 50 — the paper's per-point count) and `USWG_SEED`.

#![warn(missing_docs)]

use uswg_core::experiment::{user_sweep, ModelConfig, Parallelism, SweepPoint};
use uswg_core::{
    CoreError, PopulationSpec, Scheduler, SchedulerBackend, Simulation, Table, WorkloadSpec, World,
};

/// The classic hold-model workout for scheduler benchmarking: every handled
/// event reschedules itself a pseudo-random (LCG) delay ahead, so the
/// pending population stays exactly constant while the queue churns — the
/// pure cost of one pop + one push at a given population, with zero
/// workload logic attached. Shared by the `scheduler_hold` criterion group
/// and the `bench_baseline` snapshot so their numbers measure the same
/// workout.
#[derive(Debug)]
pub struct HoldModel {
    state: u64,
}

impl World for HoldModel {
    type Event = ();
    #[inline]
    fn handle(&mut self, (): (), sched: &mut Scheduler<()>) {
        self.state = lcg(self.state);
        sched.schedule(self.state % 10_000 + 1, ());
    }
}

#[inline]
fn lcg(state: u64) -> u64 {
    state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// A simulation pre-loaded with `pending` hold events at deterministic
/// LCG-jittered offsets, with the queue geometry warmed past its growth
/// phase (one batch already run).
pub fn hold_simulation(backend: SchedulerBackend, pending: usize) -> Simulation<HoldModel> {
    let mut sim = Simulation::with_backend(HoldModel { state: 0x5EED }, backend, pending);
    let mut state = 0x9E37_79B9u64;
    for _ in 0..pending {
        state = lcg(state);
        sim.schedule(state % 10_000, ());
    }
    sim.run_steps(HOLD_BATCH);
    sim
}

/// Events per measured hold batch.
pub const HOLD_BATCH: u64 = 10_000;

/// Sessions per run point (the paper: "each response time is the mean value
/// during 50 login sessions"), overridable via `USWG_SESSIONS`.
pub fn sessions_per_user() -> u32 {
    std::env::var("USWG_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

/// Base RNG seed, overridable via `USWG_SEED`.
pub fn seed() -> u64 {
    std::env::var("USWG_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1991)
}

/// The full-scale paper workload: Table 5.1 file system, Table 5.2 usage.
///
/// # Errors
///
/// Propagates preset validation errors (none in practice).
pub fn paper_workload() -> Result<WorkloadSpec, CoreError> {
    let mut spec = WorkloadSpec::paper_default()?;
    spec.run.sessions_per_user = sessions_per_user();
    spec.run.seed = seed();
    Ok(spec)
}

/// Runs one Figure 5.6–5.11 panel: a 1–6 user sweep of the given population
/// against the default NFS model, printing the series and an ASCII curve.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_user_sweep_figure(
    figure: &str,
    population_label: &str,
    population: PopulationSpec,
) -> Result<Vec<SweepPoint>, CoreError> {
    let spec = paper_workload()?.with_population(population);
    let points = user_sweep(&spec, &ModelConfig::default_nfs(), 1..=6, Parallelism::Auto)?;
    print_user_sweep(figure, population_label, &points);
    Ok(points)
}

/// Prints a user-sweep series as a table plus a bar curve.
pub fn print_user_sweep(figure: &str, label: &str, points: &[SweepPoint]) {
    let mut table = Table::new(vec![
        "users",
        "resp/byte (µs/B)",
        "access size B mean(std)",
        "response µs mean(std)",
        "sessions",
    ])
    .with_title(format!(
        "{figure}: average response time per byte — {label}"
    ));
    for p in points {
        table.row(vec![
            format!("{}", p.x as usize),
            format!("{:.3}", p.response_per_byte),
            p.access_size.mean_std(),
            p.response.mean_std(),
            p.sessions.to_string(),
        ]);
    }
    println!("{}", table.render());
    let series: Vec<(f64, f64)> = points.iter().map(|p| (p.x, p.response_per_byte)).collect();
    println!("{}", uswg_core::plot::plot_histogram(&series, 48));
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
        // Not asserting exact values (the env may be set by a caller), just
        // that parsing yields something positive.
        assert!(sessions_per_user() > 0);
        let _ = seed();
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
