//! Determinism suite for fault injection: the oracle that a faulted run is
//! a **pure function of (spec, seed, K)** — the same contract the shard
//! suite pins for clean runs, extended to the fault path.
//!
//! * The per-op fault/spike/backoff draws come from the per-user PRNG, so
//!   they are program-ordered per user and therefore partition-invariant:
//!   worker count and scheduler backend never change a byte of the merged
//!   log, faults on or off.
//! * `FaultSpec::default()` draws **zero** random values, so a spec without
//!   a fault section behaves byte-for-byte as it did before fault injection
//!   existed (the existing golden and equivalence suites double as that
//!   oracle; here we assert the observable half — no retries, no aborts,
//!   zero fault tallies).
//! * Retries and aborts are first-class log outcomes: the streaming
//!   summary's fault tallies must equal a fold of the full log, at any K.

use proptest::prelude::*;
use std::num::NonZeroUsize;
use uswg_core::experiment::ModelConfig;
use uswg_core::{
    DesDriver, DesRunStats, FaultSpec, ResourcePool, RetryPolicy, SchedulerBackend, SummarySink,
    UsageLog, WorkloadSpec,
};

fn nz(k: usize) -> NonZeroUsize {
    NonZeroUsize::new(k).expect("positive shard count")
}

/// A small multi-user workload with the given fault spec (full paper
/// population: shared read-write coupling included, since byte-identity
/// claims here are per-K, not cross-K).
fn fault_spec(users: usize, sessions: u32, faults: FaultSpec) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.n_users = users;
    spec.run.sessions_per_user = sessions;
    spec.run.scheduler = Some(SchedulerBackend::Heap);
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

/// The unsharded oracle: one DES instance, one globally contended model.
fn unsharded_report(spec: &WorkloadSpec, model: &ModelConfig) -> (UsageLog, DesRunStats) {
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

fn sharded_report(spec: &WorkloadSpec, model: &ModelConfig, k: usize) -> (UsageLog, DesRunStats) {
    let mut s = spec.clone();
    s.run.shards = Some(nz(k));
    s.run_des(model, UsageLog::new()).unwrap()
}

fn sharded_summary(spec: &WorkloadSpec, model: &ModelConfig, k: usize) -> SummarySink {
    let mut s = spec.clone();
    s.run.shards = Some(nz(k));
    s.run_des(model, SummarySink::new()).unwrap().0
}

/// With faults enabled, K = 1 through the sharded driver still replays the
/// unsharded simulation byte for byte, under both scheduler backends.
#[test]
fn faulted_one_shard_is_byte_identical_to_the_unsharded_driver() {
    for backend in [SchedulerBackend::Heap, SchedulerBackend::Calendar] {
        let mut spec = fault_spec(3, 2, heavy_faults());
        spec.run.scheduler = Some(backend);
        let model = ModelConfig::default_nfs();
        let (exact_log, _) = unsharded_report(&spec, &model);
        let (sharded_log, _) = sharded_report(&spec, &model, 1);
        assert_eq!(
            exact_log.to_json().unwrap(),
            sharded_log.to_json().unwrap(),
            "backend {backend}: faulted K=1 must replay the unsharded log byte for byte"
        );
        // The faulted run really is faulted — the oracle is not vacuous.
        assert!(
            exact_log.ops().iter().any(|op| op.retries > 0),
            "backend {backend}: heavy fault mix must produce retries"
        );
        assert!(
            exact_log.ops().iter().any(|op| op.aborted),
            "backend {backend}: max_attempts=2 at 15% fault rate must abort some op"
        );
    }
}

/// The faulted merged log is a pure function of (spec, seed, K): worker
/// count and scheduler backend never change a byte, exactly as for clean
/// runs — fault, spike and backoff draws ride the per-user streams.
#[test]
fn faulted_merged_log_is_worker_and_backend_invariant() {
    let model = ModelConfig::default_nfs();
    let reference = {
        let spec = fault_spec(6, 2, heavy_faults());
        sharded_report(&spec, &model, 4).0.to_json().unwrap()
    };
    for backend in [SchedulerBackend::Heap, SchedulerBackend::Calendar] {
        for workers in [1usize, 3, 8] {
            let mut spec = fault_spec(6, 2, heavy_faults());
            spec.run.scheduler = Some(backend);
            let population = spec.compile().unwrap();
            let plan = uswg_core::ShardPlan::new(spec.run.n_users, nz(4));
            let envs: Vec<uswg_core::ShardEnv> = (0..plan.active_shards())
                .map(|_| {
                    let (vfs, catalog) = spec.generate_fs().unwrap();
                    let mut pool = ResourcePool::new();
                    let m = model.build(&mut pool);
                    uswg_core::ShardEnv {
                        vfs,
                        catalog,
                        model: m,
                        pool,
                    }
                })
                .collect();
            let (log, _) = uswg_core::ShardedDesDriver::with_workers(workers)
                .run(&population, &spec.run, nz(4), envs, UsageLog::new())
                .unwrap();
            assert_eq!(
                log.to_json().unwrap(),
                reference,
                "workers={workers} backend={backend}"
            );
        }
    }
}

/// A default (disabled) fault spec produces a log with zero fault
/// outcomes and zero fault tallies — the observable half of "byte-identical
/// to pre-fault behavior" (the golden suites pin the bytes themselves).
#[test]
fn default_fault_spec_produces_no_fault_outcomes() {
    let spec = fault_spec(3, 2, FaultSpec::default());
    assert!(!spec.run.faults.enabled());
    let model = ModelConfig::default_nfs();
    let (log, _) = unsharded_report(&spec, &model);
    assert!(log.ops().iter().all(|op| op.retries == 0 && !op.aborted));
    let summary = sharded_summary(&spec, &model, 2);
    assert_eq!(summary.retries, 0);
    assert_eq!(summary.aborted_ops, 0);
    assert_eq!(summary.aborted_bytes, 0);
    assert_eq!(summary.abort_rate(), 0.0);
    assert_eq!(summary.goodput_bytes(), summary.data_bytes);
}

/// The streaming summary's fault tallies equal a fold of the merged full
/// log at every K — retries and aborts are first-class, not an artifact of
/// one retention mode.
#[test]
fn fault_tallies_agree_between_log_and_summary_at_any_k() {
    let spec = fault_spec(5, 2, heavy_faults());
    let model = ModelConfig::default_nfs();
    for k in [1usize, 2, 3] {
        let (log, _) = sharded_report(&spec, &model, k);
        let mut replayed = SummarySink::new();
        for op in log.ops() {
            uswg_core::LogSink::record_op(&mut replayed, op);
        }
        let merged = sharded_summary(&spec, &model, k);
        assert_eq!(replayed.retries, merged.retries, "K={k}");
        assert_eq!(replayed.aborted_ops, merged.aborted_ops, "K={k}");
        assert_eq!(replayed.aborted_bytes, merged.aborted_bytes, "K={k}");
        assert!(merged.retries > 0, "K={k}: heavy mix must retry");
        assert!(merged.aborted_ops > 0, "K={k}: heavy mix must abort");
        assert!(
            merged.goodput_bytes() < merged.data_bytes,
            "K={k}: aborted data ops must cost goodput"
        );
        let rate = merged.abort_rate();
        assert!(rate > 0.0 && rate < 1.0, "K={k}: abort rate {rate}");
    }
}

proptest! {
    // Each case runs several full simulations; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary valid fault specs, seeds and K: two runs of the same
    /// (spec, seed, K) are byte-identical, and the scheduler backend is
    /// never observable in the merged log.
    #[test]
    fn faulted_runs_are_pure_functions_of_spec_seed_and_k(
        fault_ppm in 0u32..300_000,
        spike_ppm in 0u32..200_000,
        spike_micros in 0u64..5_000,
        max_attempts in 1u32..4,
        seed in any::<u64>(),
        k in 1usize..4,
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
        let first = sharded_report(&spec, &model, k).0.to_json().unwrap();
        let second = sharded_report(&spec, &model, k).0.to_json().unwrap();
        prop_assert_eq!(&first, &second, "same (spec, seed, K) must replay");
        spec.run.scheduler = Some(SchedulerBackend::Calendar);
        let calendar = sharded_report(&spec, &model, k).0.to_json().unwrap();
        prop_assert_eq!(&first, &calendar, "backend must be unobservable");
    }
}
