//! Property suite for the memory-flat sweeps: every point, streamed into a
//! `SummarySink`, must reproduce the reference implementation — the full
//! `UsageLog` of the same spec aggregated post hoc with `Summary::of` — in
//! every Table 5.3 statistic to 1e-9 relative, across random workload
//! shapes, models, seeds and both scheduler backends. This is the gate that
//! lets sweeps never materialize a log.

use proptest::prelude::*;
use uswg_core::experiment::{run_des_replicated, user_sweep, ModelConfig, Parallelism, SweepPoint};
use uswg_core::{SchedulerBackend, Summary, UsageLog, WorkloadSpec};

fn small_spec(sessions: u32, seed: u64, backend: SchedulerBackend) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.sessions_per_user = sessions;
    spec.run.seed = seed;
    spec.run.scheduler = Some(backend);
    spec.fsc = spec
        .fsc
        .with_files_per_user(8)
        .unwrap()
        .with_shared_files(12)
        .unwrap();
    spec
}

/// Two-pass `Summary::of` over the log's data ops: access sizes, responses.
fn data_summaries(log: &UsageLog) -> (Summary, Summary) {
    let data = log.ops().iter().filter(|o| o.op.is_data() && o.bytes > 0);
    let (sizes, responses): (Vec<f64>, Vec<f64>) =
        data.map(|o| (o.bytes as f64, o.response as f64)).unzip();
    (Summary::of(&sizes), Summary::of(&responses))
}

/// The reference sweep point: collect the run's full log and aggregate it
/// directly — two-pass `Summary::of`, integer sums for the per-byte metric —
/// so the oracle shares no code with the streaming accumulator.
fn reference_point(spec: &WorkloadSpec, model: &ModelConfig, x: f64) -> (SweepPoint, UsageLog) {
    let (log, _) = spec.run_des(model, UsageLog::new()).unwrap();
    let (access_size, response) = data_summaries(&log);
    let micros: u64 = log.ops().iter().map(|o| o.response).sum();
    let bytes: u64 = log
        .ops()
        .iter()
        .filter(|o| o.op.is_data())
        .map(|o| o.bytes)
        .sum();
    let point = SweepPoint {
        x,
        response_per_byte: if bytes == 0 {
            0.0
        } else {
            micros as f64 / bytes as f64
        },
        access_size,
        response,
        sessions: log.sessions().len(),
    };
    (point, log)
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

#[track_caller]
fn assert_points_equivalent(full: &SweepPoint, summary: &SweepPoint) {
    // Counts, extrema, means and the per-byte metric are computed over the
    // identical record stream with the identical accumulation order: exact.
    assert_eq!(full.x, summary.x);
    assert_eq!(full.sessions, summary.sessions);
    assert_eq!(full.access_size.n, summary.access_size.n);
    assert_eq!(full.response.n, summary.response.n);
    assert_eq!(full.response_per_byte, summary.response_per_byte);
    assert_eq!(full.access_size.min, summary.access_size.min);
    assert_eq!(full.access_size.max, summary.access_size.max);
    assert_eq!(full.response.min, summary.response.min);
    assert_eq!(full.response.max, summary.response.max);
    assert!(rel(full.access_size.mean, summary.access_size.mean) < 1e-9);
    assert!(rel(full.response.mean, summary.response.mean) < 1e-9);
    // Standard deviations differ only in accumulation strategy (two-pass
    // vs one-pass sum of squares): 1e-9 relative is the contract.
    assert!(
        rel(full.access_size.std_dev, summary.access_size.std_dev) < 1e-9,
        "access std: {} vs {}",
        full.access_size.std_dev,
        summary.access_size.std_dev
    );
    assert!(
        rel(full.response.std_dev, summary.response.std_dev) < 1e-9,
        "response std: {} vs {}",
        full.response.std_dev,
        summary.response.std_dev
    );
}

/// Pooled statistics: counts and extrema exact; the moments differ from the
/// two-pass form only in accumulation order (per-seed partial sums merged).
#[track_caller]
fn assert_pooled_equivalent(full: &Summary, pooled: &Summary) {
    assert_eq!(full.n, pooled.n);
    assert_eq!(full.min, pooled.min);
    assert_eq!(full.max, pooled.max);
    assert!(rel(full.mean, pooled.mean) < 1e-9);
    assert!(rel(full.std_dev, pooled.std_dev) < 1e-9);
}

const MODELS: [fn() -> ModelConfig; 3] = [
    ModelConfig::default_local,
    ModelConfig::default_nfs,
    ModelConfig::default_whole_file,
];

const BACKENDS: [SchedulerBackend; 2] = [SchedulerBackend::Heap, SchedulerBackend::Calendar];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Tentpole oracle: for any random spec shape, model, seed and
    /// scheduler backend, every point of a user sweep equals the post-hoc
    /// aggregation of that point's full log to 1e-9.
    #[test]
    fn summary_sweep_points_match_full_log(
        sessions in 1u32..4,
        seed in 0u64..1_000_000,
        model_idx in 0usize..3,
        backend_idx in 0usize..2,
        max_users in 1usize..3,
    ) {
        let spec = small_spec(sessions, seed, BACKENDS[backend_idx]);
        let model = MODELS[model_idx]();
        let users: Vec<usize> = (1..=max_users).collect();
        let full: Vec<SweepPoint> = users
            .iter()
            .map(|&n| {
                let mut at_n = spec.clone();
                at_n.run.n_users = n;
                reference_point(&at_n, &model, n as f64).0
            })
            .collect();
        let summary =
            user_sweep(&spec, &model, users.iter().copied(), Parallelism::Serial).unwrap();
        prop_assert_eq!(full.len(), summary.len());
        for (f, s) in full.iter().zip(&summary) {
            assert_points_equivalent(f, s);
        }
    }

    /// Replication studies agree with the reference too — per-replicate
    /// points, and the merged (pooled) statistics against the post-hoc
    /// aggregation of every seed's log concatenated.
    #[test]
    fn replication_modes_agree(
        seed in 0u64..100_000,
        model_idx in 0usize..3,
        backend_idx in 0usize..2,
    ) {
        let spec = small_spec(2, 1, BACKENDS[backend_idx]);
        let model = MODELS[model_idx]();
        let seeds = [seed, seed ^ 0xABCD, seed.wrapping_add(17)];
        let summary = run_des_replicated(&spec, &model, seeds, Parallelism::Serial).unwrap();
        prop_assert_eq!(seeds.len(), summary.replicates.len());
        let mut all_seeds = UsageLog::new();
        let mut per_byte = Vec::new();
        for (&seed, s) in seeds.iter().zip(&summary.replicates) {
            let mut at_seed = spec.clone();
            at_seed.run.seed = seed;
            let (full, log) = reference_point(&at_seed, &model, seed as f64);
            prop_assert_eq!(seed, s.seed);
            assert_points_equivalent(&full, &s.point);
            per_byte.push(full.response_per_byte);
            for op in log.ops() {
                all_seeds.push_op(*op);
            }
        }
        // Pooled reductions: the merged sinks against one two-pass
        // aggregation over every seed's records.
        let (access_size, response) = data_summaries(&all_seeds);
        assert_pooled_equivalent(&access_size, &summary.pooled_access_size);
        assert_pooled_equivalent(&response, &summary.pooled_response);
        prop_assert_eq!(Summary::of(&per_byte).mean, summary.mean_response_per_byte);
    }
}

/// The work-stolen schedule must never change results: serial, 2-worker
/// and 4-worker sweeps are byte-identical point for point (non-proptest
/// because one run already covers the property deterministically).
///
/// On hosts with fewer cores than the requested workers the core cap
/// resolves these to the serial loop, so the comparison is vacuous there;
/// the in-crate `forced_pool_sweep_matches_serial` unit test bypasses the
/// cap and keeps the pooled path covered on every host.
#[test]
fn stolen_schedules_are_byte_identical() {
    let spec = small_spec(2, 42, SchedulerBackend::Heap);
    let model = ModelConfig::default_nfs();
    let users = [1usize, 2, 3, 4, 5];
    let serial = user_sweep(&spec, &model, users, Parallelism::Serial).unwrap();
    for workers in [2usize, 4, 8] {
        let stolen = user_sweep(&spec, &model, users, Parallelism::Threads(workers)).unwrap();
        assert_eq!(serial, stolen, "workers = {workers}");
    }
}

/// Table 5.3's measurement on the paper-default spec — heavy-I/O users
/// against NFS, 3 users × 8 sessions — as one more fixed spec shape.
#[test]
fn summary_sink_matches_post_hoc_aggregation() {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.n_users = 3;
    spec.run.sessions_per_user = 8;
    spec.fsc = spec
        .fsc
        .with_files_per_user(15)
        .unwrap()
        .with_shared_files(25)
        .unwrap();
    let model = ModelConfig::default_nfs();
    let (full, _) = reference_point(&spec, &model, 3.0);
    let streamed = user_sweep(&spec, &model, [3], Parallelism::Serial).unwrap();
    assert_points_equivalent(&full, &streamed[0]);
}
