//! Equivalence suite for the **streamed** spill pipeline: the sharded
//! merge every plain sink gets — per-shard spill streams k-way merged
//! frame-by-frame — must be record-for-record identical to the in-memory
//! oracle (a `UsageLog` sink, whose per-shard logs are materialized and
//! merged with `merge_shard_logs`) — under several worker counts and shard
//! counts, and through the `WorkloadSpec` entry point end to end (run →
//! spill file → read back).

use std::num::NonZeroUsize;
use uswg_core::experiment::ModelConfig;
use uswg_core::{
    read_spill_path, LogSink, ResourcePool, ShardEnv, ShardPlan, ShardedDesDriver, SpillSink,
    SummarySink, UsageLog, WorkloadSpec,
};

fn nz(k: usize) -> NonZeroUsize {
    NonZeroUsize::new(k).expect("positive shard count")
}

/// A small multi-user workload (the full paper population — the streamed
/// merge must reproduce the oracle whatever the coupling, since both sides
/// shard identically).
fn base_spec(users: usize, sessions: u32) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.n_users = users;
    spec.run.sessions_per_user = sessions;
    spec.fsc = spec
        .fsc
        .with_files_per_user(8)
        .unwrap()
        .with_shared_files(12)
        .unwrap();
    spec
}

/// A log collector that is *not* an in-memory-mergeable sink: it keeps the
/// `LogSink` defaults, so a sharded run feeds it through the streamed
/// spill merge instead of `UsageLog`'s k-way merge of materialized logs.
#[derive(Default)]
struct Streamed(UsageLog);

impl LogSink for Streamed {
    fn record_op(&mut self, op: &uswg_core::OpRecord) {
        self.0.record_op(op);
    }

    fn record_session(&mut self, session: &uswg_core::SessionRecord) {
        self.0.record_session(session);
    }
}

/// One fresh environment per active shard, all built from the same seeded
/// spec — the same construction `WorkloadSpec::run_des` performs.
fn shard_envs(spec: &WorkloadSpec, model: &ModelConfig, active: usize) -> Vec<ShardEnv> {
    (0..active)
        .map(|_| {
            let (vfs, catalog) = spec.generate_fs().unwrap();
            let mut pool = ResourcePool::new();
            let model = model.build(&mut pool);
            ShardEnv {
                vfs,
                catalog,
                model,
                pool,
            }
        })
        .collect()
}

/// Tentpole pin: for every (workers × K) cell, the streamed
/// spill merge produces byte-for-byte the log the materialize-then-merge
/// oracle produces — so replacing the in-memory path with the O(1)-memory
/// path can never change a result.
#[test]
fn streamed_merge_is_byte_identical_to_the_in_memory_oracle() {
    let model = ModelConfig::default_nfs();
    let spec = base_spec(5, 2);
    for k in [1usize, 2, 3] {
        let plan = ShardPlan::new(spec.run.n_users, nz(k));
        let population = spec.compile().unwrap();
        let (oracle_log, oracle) = ShardedDesDriver::with_workers(1)
            .run(
                &population,
                &spec.run,
                nz(k),
                shard_envs(&spec, &model, plan.active_shards()),
                UsageLog::new(),
            )
            .unwrap();
        for workers in [1usize, 4] {
            let (Streamed(streamed), stats) = ShardedDesDriver::with_workers(workers)
                .run(
                    &population,
                    &spec.run,
                    nz(k),
                    shard_envs(&spec, &model, plan.active_shards()),
                    Streamed::default(),
                )
                .unwrap();
            assert_eq!(
                streamed.to_json().unwrap(),
                oracle_log.to_json().unwrap(),
                "K={k}, workers={workers}: streamed merge must \
                 reproduce merge_shard_logs byte for byte"
            );
            assert_eq!(stats.events, oracle.events, "K={k}");
            assert_eq!(stats.duration, oracle.duration, "K={k}");
            assert_eq!(stats.resources, oracle.resources, "K={k}");
        }
    }
}

/// The streamed path feeds any `LogSink` shape — here the `(summary,
/// spill)` tee `uswg run --spill` uses — and the spill file on disk reads
/// back as exactly the oracle's merged log.
#[test]
fn sharded_spill_file_reads_back_as_the_merged_log() {
    let dir = std::env::temp_dir().join(format!("uswg-spill-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = ModelConfig::default_nfs();
    let spec = base_spec(4, 2);
    let population = spec.compile().unwrap();
    for k in [2usize, 4] {
        let plan = ShardPlan::new(spec.run.n_users, nz(k));
        let (oracle_log, _) = ShardedDesDriver::with_workers(1)
            .run(
                &population,
                &spec.run,
                nz(k),
                shard_envs(&spec, &model, plan.active_shards()),
                UsageLog::new(),
            )
            .unwrap();
        let spill_path = dir.join(format!("k{k}.spill"));
        let sink = (SummarySink::new(), SpillSink::create(&spill_path).unwrap());
        let ((summary, spill), _) = ShardedDesDriver::with_workers(2)
            .run(
                &population,
                &spec.run,
                nz(k),
                shard_envs(&spec, &model, plan.active_shards()),
                sink,
            )
            .unwrap();
        spill.finish().unwrap();
        let from_disk = read_spill_path(&spill_path).unwrap();
        assert_eq!(
            from_disk.to_json().unwrap(),
            oracle_log.to_json().unwrap(),
            "K={k}: spill file must hold the merged log"
        );
        assert_eq!(summary.ops, oracle_log.ops().len() as u64, "K={k}");
        assert_eq!(
            summary.sessions,
            oracle_log.sessions().len() as u64,
            "K={k}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// End to end through the spec entry point (the CLI's code path): a
/// sharded `run_des` streams into a plain sink exactly what it collects
/// into a `UsageLog` — ops first, then sessions, in merged order.
#[test]
fn spec_level_streamed_sink_matches_run_des() {
    let model = ModelConfig::default_nfs();
    for k in [1usize, 3] {
        let mut spec = base_spec(3, 2);
        spec.run.shards = Some(nz(k));
        let (collected, report) = spec.run_des(&model, UsageLog::new()).unwrap();
        let (Streamed(log), stats) = spec.run_des(&model, Streamed::default()).unwrap();
        assert_eq!(
            log.to_json().unwrap(),
            collected.to_json().unwrap(),
            "K={k}: the streamed sink must observe the merged log's contents"
        );
        assert_eq!(stats.events, report.events, "K={k}");
    }
}

/// A sink that records arrival order, to pin the replay shape: every op
/// record strictly before every session record.
#[derive(Default)]
struct OrderProbe {
    ops: u64,
    sessions: u64,
    session_before_op: bool,
}

impl LogSink for OrderProbe {
    fn record_op(&mut self, _: &uswg_core::OpRecord) {
        if self.sessions > 0 {
            self.session_before_op = true;
        }
        self.ops += 1;
    }

    fn record_session(&mut self, _: &uswg_core::SessionRecord) {
        self.sessions += 1;
    }
}

#[test]
fn streamed_replay_emits_all_ops_then_all_sessions() {
    let model = ModelConfig::default_nfs();
    let mut spec = base_spec(3, 2);
    spec.run.shards = Some(nz(2));
    let (probe, _) = spec.run_des(&model, OrderProbe::default()).unwrap();
    assert!(probe.ops > 0 && probe.sessions > 0);
    assert!(
        !probe.session_before_op,
        "the merged replay contract: ops first, then sessions"
    );
}
