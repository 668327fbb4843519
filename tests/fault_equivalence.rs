//! Determinism suite for fault injection: the oracle that a faulted run is
//! a **pure function of (spec, seed)**, as the golden suite pins for clean
//! runs.
//!
//! * The per-op fault/spike/backoff draws come from the per-user PRNG, so
//!   they are program-ordered per user.
//! * `FaultSpec::default()` draws **zero** random values, so a spec without
//!   a fault section behaves byte-for-byte as it did before fault injection
//!   existed (the existing golden and equivalence suites double as that
//!   oracle; here we assert the observable half — no retries, no aborts,
//!   zero fault tallies).
//! * Retries and aborts are first-class log outcomes: the streaming
//!   summary's fault tallies must equal a fold of the full log.

use proptest::prelude::*;
use std::num::NonZeroUsize;
use uswg_core::experiment::ModelConfig;
use uswg_core::{
    DesDriver, DesRunStats, FaultSpec, ResourcePool, RetryPolicy, SummarySink, UsageLog,
    WorkloadSpec,
};

/// A small multi-user workload with the given fault spec (full paper
/// population: shared read-write coupling included).
fn fault_spec(users: usize, sessions: u32, faults: FaultSpec) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.n_users = users;
    spec.run.sessions_per_user = sessions;
    spec.run.faults = faults;
    spec.fsc = spec
        .fsc
        .with_files_per_user(8)
        .unwrap()
        .with_shared_files(12)
        .unwrap();
    spec
}

/// An aggressive-but-valid fault mix: ~15% transient faults, ~10% latency
/// spikes, small retry budget so aborts actually happen.
fn heavy_faults() -> FaultSpec {
    FaultSpec {
        fault_ppm: 150_000,
        spike_ppm: 100_000,
        spike_micros: 2_500,
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff_micros: 200,
            max_backoff_micros: 1_600,
        },
    }
}

/// The oracle: the DES driver called directly, one globally contended model.
fn driver_report(spec: &WorkloadSpec, model: &ModelConfig) -> (UsageLog, DesRunStats) {
    let (vfs, catalog) = spec.generate_fs().unwrap();
    let population = spec.compile().unwrap();
    let mut pool = ResourcePool::new();
    let m = model.build(&mut pool);
    DesDriver::new()
        .run_with_sink(
            vfs,
            catalog,
            &population,
            m,
            pool,
            &spec.run,
            UsageLog::new(),
        )
        .unwrap()
}

fn report(spec: &WorkloadSpec, model: &ModelConfig) -> (UsageLog, DesRunStats) {
    spec.run_des(model, UsageLog::new()).unwrap()
}

fn summary(spec: &WorkloadSpec, model: &ModelConfig) -> SummarySink {
    spec.run_des(model, SummarySink::new()).unwrap().0
}

/// With faults enabled, a spec naming one shard replays the driver's run
/// byte for byte: `shards: 1` is accepted and changes nothing.
#[test]
fn faulted_one_shard_is_byte_identical_to_the_unsharded_driver() {
    let mut spec = fault_spec(3, 2, heavy_faults());
    let model = ModelConfig::default_nfs();
    let (exact_log, _) = driver_report(&spec, &model);
    spec.run.shards = NonZeroUsize::new(1);
    let (one_log, _) = report(&spec, &model);
    assert_eq!(
        exact_log.to_json().unwrap(),
        one_log.to_json().unwrap(),
        "faulted shards: 1 must replay the driver's log byte for byte"
    );
    // The faulted run really is faulted — the oracle is not vacuous.
    assert!(
        exact_log.ops().iter().any(|op| op.retries > 0),
        "heavy fault mix must produce retries"
    );
    assert!(
        exact_log.ops().iter().any(|op| op.aborted),
        "max_attempts=2 at 15% fault rate must abort some op"
    );
}

/// A default (disabled) fault spec produces a log with zero fault
/// outcomes and zero fault tallies — the observable half of "byte-identical
/// to pre-fault behavior" (the golden suites pin the bytes themselves).
#[test]
fn default_fault_spec_produces_no_fault_outcomes() {
    let spec = fault_spec(3, 2, FaultSpec::default());
    assert!(!spec.run.faults.enabled());
    let model = ModelConfig::default_nfs();
    let (log, _) = driver_report(&spec, &model);
    assert!(log.ops().iter().all(|op| op.retries == 0 && !op.aborted));
    let summary = summary(&spec, &model);
    assert_eq!(summary.retries, 0);
    assert_eq!(summary.aborted_ops, 0);
    assert_eq!(summary.aborted_bytes, 0);
    assert_eq!(summary.abort_rate(), 0.0);
    assert_eq!(summary.goodput_bytes(), summary.data_bytes);
}

/// The streaming summary's fault tallies equal a fold of the full log —
/// retries and aborts are first-class, not an artifact of one retention
/// mode.
#[test]
fn fault_tallies_agree_between_log_and_summary() {
    let spec = fault_spec(5, 2, heavy_faults());
    let model = ModelConfig::default_nfs();
    let (log, _) = report(&spec, &model);
    let mut replayed = SummarySink::new();
    for op in log.ops() {
        uswg_core::LogSink::record_op(&mut replayed, op);
    }
    let streamed = summary(&spec, &model);
    assert_eq!(replayed.retries, streamed.retries);
    assert_eq!(replayed.aborted_ops, streamed.aborted_ops);
    assert_eq!(replayed.aborted_bytes, streamed.aborted_bytes);
    assert!(streamed.retries > 0, "heavy mix must retry");
    assert!(streamed.aborted_ops > 0, "heavy mix must abort");
    assert!(
        streamed.goodput_bytes() < streamed.data_bytes,
        "aborted data ops must cost goodput"
    );
    let rate = streamed.abort_rate();
    assert!(rate > 0.0 && rate < 1.0, "abort rate {rate}");
}

proptest! {
    // Each case runs several full simulations; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary valid fault specs and seeds: two runs of the same
    /// (spec, seed) are byte-identical.
    #[test]
    fn faulted_runs_are_pure_functions_of_spec_and_seed(
        fault_ppm in 0u32..300_000,
        spike_ppm in 0u32..200_000,
        spike_micros in 0u64..5_000,
        max_attempts in 1u32..4,
        seed in any::<u64>(),
    ) {
        let faults = FaultSpec {
            fault_ppm,
            spike_ppm,
            spike_micros,
            retry: RetryPolicy {
                max_attempts,
                base_backoff_micros: 100,
                max_backoff_micros: 3_200,
            },
        };
        let model = ModelConfig::default_nfs();
        let mut spec = fault_spec(4, 1, faults);
        spec.run.seed = seed;
        let first = report(&spec, &model).0.to_json().unwrap();
        let second = report(&spec, &model).0.to_json().unwrap();
        prop_assert_eq!(&first, &second, "same (spec, seed) must replay");
    }
}
