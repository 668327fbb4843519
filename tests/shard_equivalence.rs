//! Determinism-and-equivalence suite for the sharded DES driver: the tests
//! that pin down exactly **what sharding preserves**.
//!
//! * **Exactly**: a one-shard run is byte-identical (serialized
//!   [`UsageLog`]) to the unsharded driver; for any K the merged log is a
//!   pure function of (spec, seed, K) — independent of worker count; and
//!   for workloads whose cross-user coupling is read-only (shared files
//!   never written, device never full) every statistic derived from the
//!   operation streams alone — counts, access sizes, bytes, sessions —
//!   matches the unsharded run to 1e-9.
//! * **Statistically**: response times. Each shard owns a private copy of
//!   the timing model's resources, so K > 1 queues users only behind their
//!   own shard — the documented approximation of one globally contended
//!   model. `shards: None` (or K = 1) remains the exact path.
//!
//! The unsharded oracle is always the raw [`DesDriver`], bypassing
//! `WorkloadSpec::run_des`, so the baseline shares no shard plumbing with
//! the runs it checks.

use proptest::prelude::*;
use std::num::NonZeroUsize;
use uswg_core::experiment::ModelConfig;
use uswg_core::{
    merge_shard_logs, shard_model_seed, DesDriver, DesRunStats, OpRecord, Owner, PopulationSpec,
    ResourcePool, ShardPlan, SummarySink, UsageClass, UsageLog, WorkloadSpec,
};

fn nz(k: usize) -> NonZeroUsize {
    NonZeroUsize::new(k).expect("positive shard count")
}

/// A small but multi-user workload. `shared_read_only` strips the
/// `REG/OTHER/RD-WRT` category from the paper's heavy user: shared
/// read-write files couple users through the file system itself (one
/// user's write moves another user's EOF), which is exactly the coupling
/// sharding severs — so the op-stream-exactness tests run without it,
/// while byte-identity tests keep the full paper workload.
fn base_spec(users: usize, sessions: u32, shared_read_only: bool) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.n_users = users;
    spec.run.sessions_per_user = sessions;
    spec.fsc = spec
        .fsc
        .with_files_per_user(8)
        .unwrap()
        .with_shared_files(12)
        .unwrap();
    if shared_read_only {
        let mut heavy = spec.population.types()[0].0.clone();
        heavy.categories.retain(|usage| {
            !(usage.category.owner == Owner::Other && usage.category.usage == UsageClass::ReadWrite)
        });
        spec.population = PopulationSpec::single(heavy).unwrap();
    }
    spec
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

/// The unsharded oracle's streaming summary (identical record stream to
/// [`unsharded_report`], just folded instead of materialized).
fn unsharded_summary(spec: &WorkloadSpec, model: &ModelConfig) -> SummarySink {
    let (vfs, catalog) = spec.generate_fs().unwrap();
    let population = spec.compile().unwrap();
    let mut pool = ResourcePool::new();
    let m = model.build(&mut pool);
    let (sink, _) = DesDriver::new()
        .run_with_sink(
            vfs,
            catalog,
            &population,
            m,
            pool,
            &spec.run,
            SummarySink::new(),
        )
        .unwrap();
    sink
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

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// K = 1 through the sharded driver replays the unsharded simulation byte
/// for byte: same serialized log, same resource statistics, same event
/// count and duration — with the full paper workload (shared read-write files included; one shard holds the
/// whole population, so no coupling is severed).
#[test]
fn one_shard_is_byte_identical_to_the_unsharded_driver() {
    let spec = base_spec(3, 2, false);
    let model = ModelConfig::default_nfs();
    let (exact_log, exact) = unsharded_report(&spec, &model);
    let (sharded_log, sharded) = sharded_report(&spec, &model, 1);
    assert_eq!(
        exact_log.to_json().unwrap(),
        sharded_log.to_json().unwrap(),
        "K=1 must replay the unsharded log byte for byte"
    );
    assert_eq!(exact.resources, sharded.resources);
    assert_eq!(exact.events, sharded.events);
    assert_eq!(exact.duration, sharded.duration);
    // The streaming summary path agrees bit for bit too (merge of a
    // single sink into an empty one is the identity).
    assert_eq!(
        unsharded_summary(&spec, &model),
        sharded_summary(&spec, &model, 1)
    );
}

/// For K in {2, 4, 7}: every statistic the merged summary derives from the
/// operation streams alone matches the unsharded run to 1e-9 (counts and
/// integer tallies exactly), because per-user streams are seeded by global
/// id and the workload's cross-user coupling is read-only. Response-time
/// statistics are the documented approximation: asserted close (same
/// workload, same service demands, less queueing), not equal.
#[test]
fn merged_summaries_match_unsharded_op_stream_stats() {
    let spec = base_spec(8, 2, true);
    let model = ModelConfig::default_nfs();
    let exact = unsharded_summary(&spec, &model);
    for k in [2usize, 4, 7] {
        let merged = sharded_summary(&spec, &model, k);
        // Integer tallies of the op streams: exact.
        assert_eq!(merged.ops, exact.ops, "K={k}");
        assert_eq!(merged.data_ops, exact.data_ops, "K={k}");
        assert_eq!(merged.data_bytes, exact.data_bytes, "K={k}");
        assert_eq!(merged.sessions, exact.sessions, "K={k}");
        assert_eq!(
            merged.session_bytes_accessed, exact.session_bytes_accessed,
            "K={k}"
        );
        // Float moments of access sizes: 1e-9 (merge order only).
        assert!(
            rel(merged.access_size().mean, exact.access_size().mean) < 1e-9,
            "K={k}: access mean {} vs {}",
            merged.access_size().mean,
            exact.access_size().mean
        );
        assert!(
            rel(merged.access_size().std_dev, exact.access_size().std_dev) < 1e-9,
            "K={k}"
        );
        assert_eq!(merged.access_size().min, exact.access_size().min, "K={k}");
        assert_eq!(merged.access_size().max, exact.access_size().max, "K={k}");
        // Response times: statistically preserved only. Sharding removes
        // cross-shard queueing, so the merged mean must stay in the same
        // regime (between the service floor and the fully contended mean)
        // — a loose, deterministic sanity band, not an equality.
        assert!(merged.response().mean > 0.0, "K={k}");
        assert!(
            merged.response().mean <= exact.response().mean * 1.05,
            "K={k}: sharding must not add contention ({} vs {})",
            merged.response().mean,
            exact.response().mean
        );
        assert!(
            rel(merged.response().mean, exact.response().mean) < 0.5,
            "K={k}: response regime shifted: {} vs {}",
            merged.response().mean,
            exact.response().mean
        );
    }
}

/// The merged full log is a pure function of (spec, seed, K): the worker
/// count never changes a byte. This is the "global sequence rewrite"
/// guarantee — shard results merge in shard-index order by completion time,
/// regardless of which worker finished first.
#[test]
fn merged_log_is_worker_and_backend_invariant() {
    let model = ModelConfig::default_nfs();
    let spec = base_spec(6, 2, false);
    let reference = sharded_report(&spec, &model, 4).0.to_json().unwrap();
    let population = spec.compile().unwrap();
    for workers in [1usize, 2, 3, 8] {
        let plan = ShardPlan::new(spec.run.n_users, nz(4));
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
        assert_eq!(log.to_json().unwrap(), reference, "workers={workers}");
    }
}

/// Full-log and summary retention of the *same sharded run* agree: folding
/// the merged log into a sink reproduces the merged per-shard sinks —
/// counts and integer tallies exactly, float moments to 1e-9 (the two
/// paths accumulate in different orders).
#[test]
fn sharded_full_log_and_summary_modes_agree() {
    let spec = base_spec(5, 2, false);
    let model = ModelConfig::default_nfs();
    for k in [2usize, 3] {
        let (log, _) = sharded_report(&spec, &model, k);
        let mut replayed = SummarySink::new();
        for op in log.ops() {
            uswg_core::LogSink::record_op(&mut replayed, op);
        }
        for session in log.sessions() {
            uswg_core::LogSink::record_session(&mut replayed, session);
        }
        let merged = sharded_summary(&spec, &model, k);
        assert_eq!(replayed.ops, merged.ops, "K={k}");
        assert_eq!(replayed.data_ops, merged.data_ops, "K={k}");
        assert_eq!(replayed.data_bytes, merged.data_bytes, "K={k}");
        assert_eq!(replayed.total_response, merged.total_response, "K={k}");
        assert_eq!(replayed.sessions, merged.sessions, "K={k}");
        assert!(rel(replayed.access_size().mean, merged.access_size().mean) < 1e-9);
        assert!(rel(replayed.response().std_dev, merged.response().std_dev) < 1e-9);
        assert_eq!(replayed.response().min, merged.response().min, "K={k}");
        assert_eq!(replayed.response().max, merged.response().max, "K={k}");
    }
}

/// Sharded runs nest under the existing experiment harness: a sweep with
/// `shards` pinned produces the identical points under serial and stolen
/// schedules (the outer pool) — sharding composes with, rather than
/// disturbs, PR 3's parallelism contracts.
#[test]
fn sharded_sweeps_are_schedule_invariant() {
    use uswg_core::experiment::{user_sweep, Parallelism};
    let mut spec = base_spec(2, 2, false);
    spec.run.shards = Some(nz(2));
    let model = ModelConfig::default_nfs();
    let serial = user_sweep(&spec, &model, [1usize, 2, 3], Parallelism::Serial).unwrap();
    let stolen = user_sweep(&spec, &model, [1usize, 2, 3], Parallelism::Threads(3)).unwrap();
    assert_eq!(serial, stolen);
}

fn op(at: u64, response: u64, user: usize) -> OpRecord {
    OpRecord {
        at,
        user,
        session: 0,
        op: uswg_core::OpKind::Read,
        ino: 1,
        bytes: 8,
        file_size: 64,
        response,
        category: uswg_core::FileCategory::REG_USER_RDONLY,
        retries: 0,
        aborted: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partitioning: every user lands in exactly one shard, the populated
    /// shards are exactly `0..active_shards()`, and membership is a pure
    /// function of the user id and K.
    #[test]
    fn every_user_lands_in_exactly_one_shard(n in 1usize..200, k in 1usize..16) {
        let plan = ShardPlan::new(n, nz(k));
        let mut owner = vec![usize::MAX; n];
        for s in 0..plan.shards() {
            for u in plan.members(s) {
                prop_assert_eq!(owner[u], usize::MAX, "user {} in two shards", u);
                owner[u] = s;
                prop_assert_eq!(plan.shard_of(u), s);
            }
            prop_assert_eq!(plan.members(s).count(), plan.shard_len(s));
        }
        prop_assert!(owner.iter().all(|&s| s != usize::MAX));
        prop_assert!(owner.iter().all(|&s| s < plan.active_shards()));
        // Stability under K: a bigger population never reassigns a user.
        let bigger = ShardPlan::new(n + 7, nz(k));
        for u in 0..n {
            prop_assert_eq!(plan.shard_of(u), bigger.shard_of(u));
        }
    }

    /// Per-shard model seeds are distinct across shards, stable (a pure
    /// function of root seed and shard index — K never enters), and shard
    /// 0 replays the unsharded stream.
    #[test]
    fn shard_seeds_distinct_and_stable(seed in any::<u64>(), a in 0usize..10_000, b in 0usize..10_000) {
        prop_assert_eq!(shard_model_seed(seed, a), shard_model_seed(seed, a));
        if a != b {
            prop_assert_ne!(shard_model_seed(seed, a), shard_model_seed(seed, b));
        }
    }

    /// The k-way merge preserves global `(completion time, shard)` order
    /// and keeps each shard's records as a subsequence — for arbitrary
    /// sorted shard streams, not just ones a simulation happened to emit.
    #[test]
    fn merge_preserves_global_time_order(
        streams in prop::collection::vec(
            prop::collection::vec((0u64..1_000, 0u64..50), 0..20),
            1..6,
        ),
    ) {
        let logs: Vec<UsageLog> = streams
            .iter()
            .enumerate()
            .map(|(shard, pairs)| {
                let mut sorted: Vec<(u64, u64)> = pairs.clone();
                // Shard streams are sorted by completion time, as the DES
                // emits them.
                sorted.sort_by_key(|&(at, response)| at + response);
                let mut log = UsageLog::new();
                for &(at, response) in &sorted {
                    log.push_op(op(at, response, shard));
                }
                log
            })
            .collect();
        let expected_total: usize = logs.iter().map(|l| l.ops().len()).sum();
        let per_shard: Vec<Vec<OpRecord>> =
            logs.iter().map(|l| l.ops().to_vec()).collect();
        let merged = merge_shard_logs(logs);
        prop_assert_eq!(merged.ops().len(), expected_total);
        // Global order: nondecreasing completion time.
        let completion =
            |o: &OpRecord| o.at + o.response;
        for w in merged.ops().windows(2) {
            prop_assert!(completion(&w[0]) <= completion(&w[1]));
        }
        // Within-shard order survives: restricting the merged stream to
        // one shard's records (tagged via `user`) yields that shard's
        // stream verbatim.
        for (shard, original) in per_shard.iter().enumerate() {
            let restricted: Vec<OpRecord> = merged
                .ops()
                .iter()
                .filter(|o| o.user == shard)
                .copied()
                .collect();
            prop_assert_eq!(&restricted, original);
        }
    }
}

proptest! {
    // Real simulations are expensive; a handful of random shapes suffices
    // on top of the deterministic tests above.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Across random small specs: sharded runs are rerun-deterministic,
    /// preserve the session count exactly, and preserve the op-stream
    /// tallies of the read-only-coupled workload against the unsharded
    /// oracle for whatever K the generator picked.
    #[test]
    fn random_specs_preserve_op_streams(
        users in 1usize..6,
        k in 1usize..5,
        seed in 0u64..100_000,
    ) {
        let mut spec = base_spec(users, 1, true);
        spec.run.seed = seed;
        let model = ModelConfig::default_local();
        let exact = unsharded_summary(&spec, &model);
        let merged = sharded_summary(&spec, &model, k);
        prop_assert_eq!(merged.ops, exact.ops);
        prop_assert_eq!(merged.data_ops, exact.data_ops);
        prop_assert_eq!(merged.data_bytes, exact.data_bytes);
        prop_assert_eq!(merged.sessions, exact.sessions);
        // Determinism: the identical sharded run replays bit for bit.
        prop_assert_eq!(merged, sharded_summary(&spec, &model, k));
        let log_a = sharded_report(&spec, &model, k).0.to_json().unwrap();
        let log_b = sharded_report(&spec, &model, k).0.to_json().unwrap();
        prop_assert_eq!(log_a, log_b);
    }
}
