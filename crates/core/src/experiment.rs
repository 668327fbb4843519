//! The Chapter 5 experiment harness: model selection, user sweeps,
//! population-mix sweeps and access-size sweeps.
//!
//! These functions regenerate the paper's measurements: Table 5.3 (response
//! time vs number of users), Figures 5.6–5.11 (response time per byte under
//! different user populations) and Figure 5.12 (response time per byte vs
//! access size). Section 5.3's file-system comparison procedure is the same
//! sweep run once per [`ModelConfig`].

use crate::{presets, CoreError, WorkloadSpec};
use serde::{Deserialize, Serialize};
use uswg_analyze::Summary;
use uswg_netfs::{
    DistributedNfsParams, LocalDiskModel, LocalDiskParams, NfsModel, NfsParams, ServiceModel,
    WholeFileCacheModel, WholeFileCacheParams, ZeroModel,
};
use uswg_sim::ResourcePool;
use uswg_usim::{PopulationSpec, SummarySink};

/// Which file-system timing model to measure (the candidates of the Section
/// 5.3 comparison study).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "model", rename_all = "snake_case")]
pub enum ModelConfig {
    /// No timing model: every call completes the instant it is issued, so
    /// think times alone drive the clock. `uswg run`'s default, and the
    /// usage studies of Figures 5.3–5.5.
    None,
    /// Local-disk file system.
    Local(LocalDiskParams),
    /// NFS-like remote file system.
    Nfs(NfsParams),
    /// AFS-like whole-file caching file system.
    WholeFile(WholeFileCacheParams),
    /// Distributed NFS: several servers behind one shared network (the
    /// Section 4.2 distributed-file-system extension).
    DistributedNfs(DistributedNfsParams),
}

impl ModelConfig {
    /// NFS with default parameters.
    pub fn default_nfs() -> Self {
        ModelConfig::Nfs(NfsParams::default())
    }

    /// Local disk with default parameters.
    pub fn default_local() -> Self {
        ModelConfig::Local(LocalDiskParams::default())
    }

    /// Whole-file caching with default parameters.
    pub fn default_whole_file() -> Self {
        ModelConfig::WholeFile(WholeFileCacheParams::default())
    }

    /// Distributed NFS with `servers` default-timing servers.
    pub fn distributed_nfs(servers: usize) -> Self {
        ModelConfig::DistributedNfs(DistributedNfsParams::with_servers(servers))
    }

    /// Instantiates the model, registering its resources in `pool`.
    pub fn build(&self, pool: &mut ResourcePool) -> Box<dyn ServiceModel> {
        match self {
            ModelConfig::None => Box::new(ZeroModel),
            ModelConfig::Local(p) => Box::new(LocalDiskModel::new(pool, *p)),
            ModelConfig::Nfs(p) => Box::new(NfsModel::new(pool, *p)),
            ModelConfig::WholeFile(p) => Box::new(WholeFileCacheModel::new(pool, *p)),
            ModelConfig::DistributedNfs(p) => Box::new(NfsModel::distributed(pool, *p)),
        }
    }

    /// The model's display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelConfig::None => "none",
            ModelConfig::Local(_) => "local",
            ModelConfig::Nfs(_) => "nfs",
            ModelConfig::WholeFile(_) => "whole-file-cache",
            ModelConfig::DistributedNfs(_) => "distributed-nfs",
        }
    }
}

/// One measured point of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter (number of users, access size, heavy fraction…).
    pub x: f64,
    /// Mean response time per byte over all data calls, µs/byte.
    pub response_per_byte: f64,
    /// Access-size statistics over data calls (Table 5.3 left column).
    pub access_size: Summary,
    /// Response-time statistics over data calls (Table 5.3 right column).
    pub response: Summary,
    /// Sessions simulated at this point.
    pub sessions: usize,
}

/// Reads a sweep point off a run's [`SummarySink`], the one accumulator
/// every report reads. Counts, extrema, means and the per-byte metric are
/// bit-identical to `Summary::of` over the same run's collected log; the
/// standard deviations use a one-pass Welford accumulator (numerically
/// stable at any scale) and agree with the two-pass form to well within
/// 1e-9 relative (property-tested in `tests/sweep_equivalence.rs`).
fn measure(x: f64, sink: &SummarySink) -> SweepPoint {
    SweepPoint {
        x,
        response_per_byte: sink.response_per_byte(),
        access_size: sink.access_size(),
        response: sink.response(),
        sessions: sink.sessions as usize,
    }
}

/// Runs one sweep point, streaming its records into a [`SummarySink`] — no
/// log is ever allocated, so a point costs O(1) memory beyond the
/// simulation itself. The sink comes back too, for callers that pool
/// statistics across points (replication studies merge them).
fn run_point(
    spec: &WorkloadSpec,
    model: &ModelConfig,
    x: f64,
) -> Result<(SweepPoint, SummarySink), CoreError> {
    let (sink, _stats) = spec.run_des(model, SummarySink::new())?;
    Ok((measure(x, &sink), sink))
}

/// How a sweep distributes its points over OS threads.
///
/// Every point of a sweep is an independent simulation seeded from
/// `run.seed` alone, so execution order cannot affect results: the parallel
/// schedule returns points byte-identical to the serial one (guarded by the
/// `parallel_sweeps_match_serial` integration test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One point after another on the calling thread.
    Serial,
    /// One worker per point, as far as the host has cores for them.
    Auto,
    /// This many workers, capped by the pool at the point count and at the
    /// host's cores (oversubscribing CPU-bound points only adds context
    /// switches: ~4% measured on one core). `0` and `1` both mean serial.
    Threads(usize),
}

impl Parallelism {
    /// Workers to *ask* the pool for: the host's core count is the pool's
    /// business alone, and a request granted no helper is the serial loop.
    fn workers(self, points: usize) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => points,
            Parallelism::Threads(n) => n,
        }
    }
}

/// Runs `f` over every input in parallel ([`stealpool::try_map_indexed`],
/// whose contract this is) and returns outputs in input order, identical
/// to the serial loop's. The last point is claimed first: sweeps list
/// their points in ascending cost, so the largest population starts at
/// once instead of becoming the tail every core waits for. A failure
/// cancels the unclaimed points (each can be a full simulation) and the
/// input-order-first error among the points that ran is returned — with
/// one failing point, exactly the error the serial loop reports.
fn fan_out<T, O, F>(inputs: Vec<T>, parallelism: Parallelism, f: F) -> Result<Vec<O>, CoreError>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> Result<O, CoreError> + Sync,
{
    let workers = parallelism.workers(inputs.len());
    stealpool::try_map_indexed(workers, inputs.len(), |i| f(&inputs[i]))
}

/// Sweeps the number of concurrent users (Table 5.3, Figures 5.6–5.11):
/// for each `n`, rebuilds the file system for `n` users and runs the
/// workload's population against `model`. Points fan out under
/// `parallelism` and each streams into a [`SummarySink`].
///
/// # Errors
///
/// Propagates generation and simulation errors.
pub fn user_sweep(
    base: &WorkloadSpec,
    model: &ModelConfig,
    users: impl IntoIterator<Item = usize>,
    parallelism: Parallelism,
) -> Result<Vec<SweepPoint>, CoreError> {
    let points: Vec<usize> = users.into_iter().collect();
    fan_out(points, parallelism, |&n| {
        let mut spec = base.clone();
        spec.run.n_users = n;
        Ok(run_point(&spec, model, n as f64)?.0)
    })
}

/// Sweeps the heavy/light population mix at a fixed user count (the figure
/// family 5.7–5.11 varies the mix across panels).
///
/// # Errors
///
/// Propagates population validation and simulation errors.
pub fn mix_sweep(
    base: &WorkloadSpec,
    model: &ModelConfig,
    heavy_fractions: impl IntoIterator<Item = f64>,
    parallelism: Parallelism,
) -> Result<Vec<SweepPoint>, CoreError> {
    let points: Vec<f64> = heavy_fractions.into_iter().collect();
    fan_out(points, parallelism, |&frac| {
        let spec = base
            .clone()
            .with_population(presets::heavy_light_population(frac)?);
        Ok(run_point(&spec, model, frac)?.0)
    })
}

/// Sweeps the mean access size of file I/O system calls under an extremely
/// heavy I/O user (Figure 5.12: means from 128 to 2048 bytes).
///
/// # Errors
///
/// Propagates population validation and simulation errors.
pub fn access_size_sweep(
    base: &WorkloadSpec,
    model: &ModelConfig,
    mean_sizes: impl IntoIterator<Item = f64>,
    parallelism: Parallelism,
) -> Result<Vec<SweepPoint>, CoreError> {
    let points: Vec<f64> = mean_sizes.into_iter().collect();
    fan_out(points, parallelism, |&mean| {
        let user = presets::user_type_with("extremely heavy I/O", 0.0, mean);
        let spec = base.clone().with_population(PopulationSpec::single(user)?);
        Ok(run_point(&spec, model, mean)?.0)
    })
}

/// Runs the same workload against several candidate models (the Section 5.3
/// file-system comparison procedure) and returns `(model name, point)`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn compare_models(
    base: &WorkloadSpec,
    models: &[ModelConfig],
    parallelism: Parallelism,
) -> Result<Vec<(String, SweepPoint)>, CoreError> {
    fan_out(models.to_vec(), parallelism, |model| {
        Ok((model.name().to_string(), run_point(base, model, 0.0)?.0))
    })
}

/// One replicated run of [`run_des_replicated`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Replicate {
    /// The seed this replicate ran under.
    pub seed: u64,
    /// The measured point (`x` holds the seed as a float for plotting).
    pub point: SweepPoint,
}

/// Replicated-run statistics: a confidence interval over independent seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicationStudy {
    /// Every replicate, in seed order.
    pub replicates: Vec<Replicate>,
    /// Mean response time per byte across replicates, µs/byte.
    pub mean_response_per_byte: f64,
    /// Sample standard deviation across replicates.
    pub std_dev_response_per_byte: f64,
    /// Half-width of the 95% confidence interval on the mean (Student's t).
    pub ci95_half_width: f64,
    /// Access-size statistics pooled over every replicate's data ops: the
    /// parallel reduction of the per-replicate streaming sinks
    /// ([`SummarySink::merge`] in seed order), as if all seeds had fed one
    /// sink.
    pub pooled_access_size: Summary,
    /// Response-time statistics pooled over every replicate's data ops
    /// (same reduction).
    pub pooled_response: Summary,
}

/// Two-sided 95% t quantiles for small degrees of freedom; the normal
/// approximation takes over beyond the table.
fn t_quantile_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else if df <= 40 {
        // Bracketed fallbacks use the smallest df of each bracket, so the
        // interval is conservative (never anti-conservative) and coverage
        // degrades smoothly toward the normal quantile instead of cliffing
        // from 2.042 straight to 1.96 at df = 31.
        2.040
    } else if df <= 60 {
        2.021
    } else if df <= 120 {
        2.000
    } else {
        1.96
    }
}

/// Runs the same workload under each seed (fanned out across cores) and
/// reports the spread: the statistical backing for any response-time
/// claim. Each replicate is completely determined by its seed, so the
/// study is reproducible point for point; the pooled statistics merge the
/// per-seed streaming sinks in seed order, so they too are independent of
/// the parallel schedule.
///
/// # Errors
///
/// Propagates simulation errors; returns [`CoreError::Spec`] for an empty
/// seed list.
pub fn run_des_replicated(
    base: &WorkloadSpec,
    model: &ModelConfig,
    seeds: impl IntoIterator<Item = u64>,
    parallelism: Parallelism,
) -> Result<ReplicationStudy, CoreError> {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    if seeds.is_empty() {
        return Err(CoreError::Spec(
            "replication needs at least one seed".into(),
        ));
    }
    let measured = fan_out(seeds, parallelism, |&seed| {
        let mut spec = base.clone();
        spec.run.seed = seed;
        let (point, sink) = run_point(&spec, model, seed as f64)?;
        Ok((Replicate { seed, point }, sink))
    })?;
    // Parallel reduction: fold the per-seed sinks in input (seed) order, so
    // the pooled aggregates never depend on which worker finished first.
    let mut pooled = SummarySink::new();
    for (_, sink) in &measured {
        pooled.merge(sink);
    }
    let replicates: Vec<Replicate> = measured.into_iter().map(|(r, _)| r).collect();
    let values: Vec<f64> = replicates
        .iter()
        .map(|r| r.point.response_per_byte)
        .collect();
    let summary = Summary::of(&values);
    let ci95_half_width = if summary.n < 2 {
        0.0
    } else {
        t_quantile_95(summary.n - 1) * summary.std_dev / (summary.n as f64).sqrt()
    };
    Ok(ReplicationStudy {
        replicates,
        mean_response_per_byte: summary.mean,
        std_dev_response_per_byte: summary.std_dev,
        ci95_half_width,
        pooled_access_size: pooled.access_size(),
        pooled_response: pooled.response(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::paper_default().unwrap();
        spec.run.sessions_per_user = 2;
        spec.fsc = spec
            .fsc
            .with_files_per_user(8)
            .unwrap()
            .with_shared_files(12)
            .unwrap();
        spec
    }

    #[test]
    fn model_config_builds_each_model() {
        for (config, name) in [
            (ModelConfig::default_local(), "local"),
            (ModelConfig::default_nfs(), "nfs"),
            (ModelConfig::default_whole_file(), "whole-file-cache"),
        ] {
            let mut pool = ResourcePool::new();
            let model = config.build(&mut pool);
            assert_eq!(model.name(), name);
            assert_eq!(config.name(), name);
            assert!(!pool.is_empty());
        }
        // The zero-stage model registers no resource.
        let mut pool = ResourcePool::new();
        assert_eq!(ModelConfig::None.build(&mut pool).name(), "none");
        assert!(pool.is_empty());
    }

    #[test]
    fn model_config_serde_round_trip() {
        for (config, tag) in [
            (ModelConfig::default_nfs(), "nfs"),
            (ModelConfig::None, "none"),
        ] {
            let json = serde_json::to_string(&config).unwrap();
            let back: ModelConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(config, back);
            assert!(json.contains(&format!("\"model\":\"{tag}\"")), "{json}");
        }
        // The tag is known; any other key a variant does not declare is not.
        for (json, ty) in [
            (r#"{"model":"none","servers":2}"#, "ModelConfig"),
            (r#"{"model":"nfs","srevers":2}"#, "NfsParams"),
        ] {
            let err = serde_json::from_str::<ModelConfig>(json)
                .unwrap_err()
                .to_string();
            assert!(err.contains("unknown field") && err.contains(ty), "{err}");
        }
    }

    #[test]
    fn user_sweep_grows_response() {
        let mut spec = quick_spec();
        // Zero think time saturates the server fastest.
        spec.population = PopulationSpec::single(presets::extremely_heavy_user()).unwrap();
        let points = user_sweep(
            &spec,
            &ModelConfig::default_nfs(),
            [1, 3],
            Parallelism::Auto,
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[1].response_per_byte > points[0].response_per_byte);
        assert!(points[0].sessions > 0);
    }

    #[test]
    fn access_size_sweep_amortizes_overhead() {
        let spec = quick_spec();
        let points = access_size_sweep(
            &spec,
            &ModelConfig::default_nfs(),
            [128.0, 2048.0],
            Parallelism::Auto,
        )
        .unwrap();
        assert!(points[0].response_per_byte > points[1].response_per_byte);
        // Measured access sizes track the swept means.
        assert!(points[0].access_size.mean < points[1].access_size.mean);
    }

    #[test]
    fn compare_models_ranks_local_fastest() {
        let spec = quick_spec();
        let results = compare_models(
            &spec,
            &[ModelConfig::default_local(), ModelConfig::default_nfs()],
            Parallelism::Auto,
        )
        .unwrap();
        assert_eq!(results.len(), 2);
        let local = &results[0].1;
        let nfs = &results[1].1;
        assert!(
            local.response_per_byte < nfs.response_per_byte,
            "local {} vs nfs {}",
            local.response_per_byte,
            nfs.response_per_byte
        );
    }

    #[test]
    fn mix_sweep_runs_all_fractions() {
        let spec = quick_spec();
        let points = mix_sweep(
            &spec,
            &ModelConfig::default_local(),
            [0.0, 0.5, 1.0],
            Parallelism::Auto,
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        assert!((points[1].x - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallelism_worker_counts() {
        // What a variant asks the pool for. The pool alone caps the request
        // (at the point count and the host's cores), and its own tests pin
        // that `0` workers, like `1`, is the serial loop on the caller.
        assert_eq!(Parallelism::Serial.workers(10), 1);
        assert_eq!(Parallelism::Threads(0).workers(10), 0);
        assert_eq!(Parallelism::Threads(4).workers(2), 4);
        assert_eq!(Parallelism::Auto.workers(64), 64);
    }

    #[test]
    fn fan_out_preserves_input_order() {
        // The pool-backed slot plumbing itself (forced worker counts,
        // cancellation) is covered by `stealpool::try_map_indexed`'s own
        // tests; this pins the `Parallelism` front door over it.
        let inputs: Vec<usize> = (0..32).collect();
        let serial = fan_out(inputs.clone(), Parallelism::Serial, |&i| Ok(i * 3)).unwrap();
        for workers in [2usize, 4, 8] {
            let pooled = fan_out(
                inputs.clone(),
                Parallelism::Threads(workers),
                |&i| Ok(i * 3),
            )
            .unwrap();
            assert_eq!(serial, pooled, "workers = {workers}");
        }
        assert_eq!(serial[5], 15);
    }

    #[test]
    fn fan_out_surfaces_errors() {
        let result = fan_out(vec![1usize, 2, 3], Parallelism::Threads(3), |&i| {
            if i == 2 {
                Err(CoreError::Spec("boom".into()))
            } else {
                Ok(i)
            }
        });
        assert!(matches!(result, Err(CoreError::Spec(_))));
        // With several failing points, which of them runs first depends on
        // the stolen schedule; the input-order rule applies among those
        // that ran, and the failure still cancels the undispatched tail.
        let inputs: Vec<usize> = (0..64).collect();
        let result = fan_out(inputs, Parallelism::Threads(4), |&i| {
            if i % 7 == 3 {
                Err(CoreError::Spec(format!("boom {i}")))
            } else {
                Ok(i)
            }
        });
        match result {
            Err(CoreError::Spec(msg)) => assert!(msg.starts_with("boom "), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn forced_pool_sweep_matches_serial() {
        // A real simulation through the pool with workers forced past the
        // `Parallelism` core cap: stolen schedules must reproduce the
        // serial points byte for byte even when the host would normally
        // short-circuit.
        let spec = quick_spec();
        let users = [1usize, 2, 3];
        let point = |i: usize| {
            let mut s = spec.clone();
            s.run.n_users = users[i];
            Ok::<_, CoreError>(run_point(&s, &ModelConfig::default_local(), users[i] as f64)?.0)
        };
        let serial = stealpool::try_map_indexed(1, users.len(), point).unwrap();
        let pooled = stealpool::try_map_indexed(3, users.len(), point).unwrap();
        assert_eq!(serial, pooled);
    }

    #[test]
    fn replication_reports_spread() {
        let mut spec = quick_spec();
        spec.run.n_users = 1;
        let study = run_des_replicated(
            &spec,
            &ModelConfig::default_local(),
            [1u64, 2, 3],
            Parallelism::Threads(3),
        )
        .unwrap();
        assert_eq!(study.replicates.len(), 3);
        assert!(study.mean_response_per_byte > 0.0);
        assert!(study.ci95_half_width >= 0.0);
        // Replicates are keyed and ordered by seed.
        let seeds: Vec<u64> = study.replicates.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3]);
        // The pooled statistics merge every replicate's data ops.
        let total_data_ops: usize = study.replicates.iter().map(|r| r.point.access_size.n).sum();
        assert_eq!(study.pooled_access_size.n, total_data_ops);
        assert_eq!(study.pooled_response.n, total_data_ops);
        assert!(study.pooled_response.mean > 0.0);
        // Pooled extrema bound every replicate's extrema.
        for r in &study.replicates {
            assert!(study.pooled_response.min <= r.point.response.min);
            assert!(study.pooled_response.max >= r.point.response.max);
        }
        // Empty seed list is rejected.
        assert!(run_des_replicated(
            &spec,
            &ModelConfig::default_local(),
            [],
            Parallelism::Serial,
        )
        .is_err());
    }

    #[test]
    fn replication_is_seed_deterministic() {
        let spec = quick_spec();
        let a = run_des_replicated(
            &spec,
            &ModelConfig::default_local(),
            [7u64, 8],
            Parallelism::Serial,
        )
        .unwrap();
        let b = run_des_replicated(
            &spec,
            &ModelConfig::default_local(),
            [7u64, 8],
            Parallelism::Threads(2),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn t_quantiles_shrink_toward_normal() {
        assert!(t_quantile_95(1) > t_quantile_95(5));
        assert!(t_quantile_95(5) > t_quantile_95(29));
        // Monotone non-increasing across the table/bracket boundaries: no
        // anti-conservative cliff at df = 31.
        for df in 1..200 {
            assert!(
                t_quantile_95(df + 1) <= t_quantile_95(df),
                "t quantile must not grow with df: df={df}"
            );
        }
        assert_eq!(t_quantile_95(100), 2.000);
        assert_eq!(t_quantile_95(500), 1.96);
    }
}
