//! Equivalence suite for the streaming drive path: feeding the pacer from
//! a concurrent DES producer or a spill capture must be *observably
//! indistinguishable* from the materialized `Vec<OpRecord>` path.
//!
//! The contract has two layers:
//!
//! * **Stream identity** — the channel source yields exactly the op
//!   sequence the materialized log holds, record for record, for any
//!   (spec, seed) — property-tested below. This is the
//!   strong form: the pacer cannot tell which path produced its input.
//! * **Report equality** — at high speedup against an instant loopback
//!   with a queue wide enough to hold the whole stream, every op
//!   completes on both paths, so all `DriveReport` counters and the
//!   latency histogram total must be equal (wall-clock-dependent fields —
//!   `wall_micros`, latency quantiles, `peak_in_flight` — are the only
//!   legitimate divergence).
//!
//! Plus the early-termination satellite: a truncated capture drains what
//! it offered and keeps the conservation identity intact.

use proptest::prelude::*;
use std::sync::Arc;
use uswg_core::experiment::ModelConfig;
use uswg_core::{ChannelSink, CoreError, DesRunStats, OpRecord, UsageLog, WorkloadSpec};
use uswg_drive::{
    drive_stream, ChannelSource, DriveConfig, DriveError, DriveReport, LoopbackConfig, LoopbackVfs,
    SourceError, SpillSource, VecSource,
};
use uswg_usim::SpillSink;

/// A small multi-user workload.
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

/// An instant, fault-free loopback: completion is deterministic, so any
/// counter divergence between paths is a streaming bug, not target noise.
fn loopback() -> Arc<LoopbackVfs> {
    Arc::new(LoopbackVfs::new(LoopbackConfig {
        service_micros: 0,
        fail_ppm: 0,
        ..LoopbackConfig::default()
    }))
}

/// High compression, queue wide enough for the whole stream: nothing is
/// shed or expired, so the counters are exactly comparable.
fn wide_config(queue_cap: usize) -> DriveConfig {
    DriveConfig {
        speedup: 1e6,
        max_in_flight: 4,
        queue_cap: queue_cap.max(1),
        ..DriveConfig::default()
    }
}

/// Runs the DES on a producer thread feeding a `capacity`-record channel —
/// the same spawn the CLI's `drive` command does.
fn spawn_des(
    spec: &WorkloadSpec,
    model: &ModelConfig,
    capacity: usize,
) -> (
    std::sync::mpsc::Receiver<OpRecord>,
    std::thread::JoinHandle<Result<DesRunStats, CoreError>>,
) {
    let (sink, rx) = ChannelSink::bounded(capacity);
    let (spec, model) = (spec.clone(), model.clone());
    let handle = std::thread::spawn(move || spec.run_des(&model, sink).map(|(_, stats)| stats));
    (rx, handle)
}

/// Wraps a live DES producer as a drive source, surfacing its outcome
/// through the finish hook — the same glue the CLI uses.
fn des_source(spec: &WorkloadSpec, model: &ModelConfig, capacity: usize) -> ChannelSource {
    let (rx, handle) = spawn_des(spec, model, capacity);
    ChannelSource::new(rx).on_finish(Box::new(move || match handle.join() {
        Ok(Ok(_stats)) => Ok(()),
        Ok(Err(e)) => Err(SourceError(format!("DES producer: {e}"))),
        Err(_) => Err(SourceError("DES producer thread panicked".into())),
    }))
}

fn assert_reports_equivalent(streamed: &DriveReport, materialized: &DriveReport, label: &str) {
    assert_eq!(streamed.offered, materialized.offered, "{label}: offered");
    assert_eq!(
        streamed.completed, materialized.completed,
        "{label}: completed"
    );
    assert_eq!(streamed.shed, materialized.shed, "{label}: shed");
    assert_eq!(streamed.expired, materialized.expired, "{label}: expired");
    assert_eq!(streamed.aborted, materialized.aborted, "{label}: aborted");
    assert_eq!(streamed.retries, materialized.retries, "{label}: retries");
    assert_eq!(streamed.target, materialized.target, "{label}: target");
    assert_eq!(
        streamed.max_in_flight, materialized.max_in_flight,
        "{label}: max_in_flight"
    );
    assert_eq!(
        streamed.latency.count(),
        materialized.latency.count(),
        "{label}: histogram total"
    );
}

/// The tentpole contract: the streamed drive report equals the Vec-fed
/// report on every counter, and the run really completes everything (the
/// equality is not vacuous).
#[test]
fn streamed_des_drive_matches_materialized_counters() {
    let model = ModelConfig::default_nfs();
    let spec = base_spec(3, 2);
    let ops = spec
        .run_des(&model, UsageLog::new())
        .unwrap()
        .0
        .ops()
        .to_vec();
    let total = ops.len();
    assert!(total > 0, "empty workload");
    let config = wide_config(total);
    let materialized = drive_stream(VecSource::new(ops), loopback(), &config).unwrap();
    let streamed = drive_stream(
        des_source(&spec, &model, config.queue_cap),
        loopback(),
        &config,
    )
    .unwrap();
    assert_reports_equivalent(&streamed, &materialized, "streamed");
    assert_eq!(streamed.completed, total as u64, "all complete");
    assert_eq!(streamed.shed + streamed.expired + streamed.aborted, 0);
}

/// Replaying a capture through `SpillSource` offers exactly the ops the
/// materialized log drive offers.
#[test]
fn spill_capture_drive_matches_materialized_counters() {
    let dir = std::env::temp_dir().join(format!("uswg-drive-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = ModelConfig::default_nfs();
    let spec = base_spec(2, 2);
    let ops = spec
        .run_des(&model, UsageLog::new())
        .unwrap()
        .0
        .ops()
        .to_vec();
    let config = wide_config(ops.len());
    let materialized = drive_stream(VecSource::new(ops), loopback(), &config).unwrap();
    let path = dir.join("capture.bin");
    let (sink, _stats) = spec
        .run_des(&model, SpillSink::create(&path).unwrap())
        .unwrap();
    sink.finish().unwrap();
    let streamed = drive_stream(SpillSource::open(&path).unwrap(), loopback(), &config).unwrap();
    assert_reports_equivalent(&streamed, &materialized, "capture");
    std::fs::remove_dir_all(&dir).ok();
}

/// The early-termination satellite: a truncated capture yields a source
/// error, but everything offered before the cut still drains and the
/// conservation identity holds — the drive-side twin of `analyze
/// --salvage`.
#[test]
fn truncated_capture_drains_and_keeps_the_conservation_identity() {
    let dir = std::env::temp_dir().join(format!("uswg-drive-trunc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = ModelConfig::default_nfs();
    let spec = base_spec(2, 2);
    let path = dir.join("capture.bin");
    // Tiny frames, so a mid-file cut leaves many intact op frames ahead
    // of it (one default-sized frame would swallow the whole small run).
    let sink = SpillSink::with_options(
        std::io::BufWriter::new(std::fs::File::create(&path).unwrap()),
        64,
    )
    .unwrap();
    let (sink, _stats) = spec.run_des(&model, sink).unwrap();
    sink.finish().unwrap();
    let full_ops = spec.run_des(&model, UsageLog::new()).unwrap().0.ops().len() as u64;

    // Cut mid-file (the same fixture recipe the analyze salvage tests
    // use): the frame prefix is intact, the tail is gone.
    let bytes = std::fs::read(&path).unwrap();
    let cut = dir.join("cut.bin");
    std::fs::write(&cut, &bytes[..bytes.len() * 2 / 3]).unwrap();

    let config = wide_config(full_ops as usize);
    let err = drive_stream(SpillSource::open(&cut).unwrap(), loopback(), &config).unwrap_err();
    match err {
        DriveError::Source { message, report } => {
            assert!(message.contains("spill"), "{message}");
            assert!(report.offered > 0, "the intact prefix must replay");
            assert!(report.offered < full_ops, "the cut must lose some ops");
            assert_eq!(
                report.offered,
                report.completed + report.shed + report.expired + report.aborted,
                "conservation must hold over the ops actually offered"
            );
        }
        other => panic!("expected a source error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    // Each case runs two full DES runs; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Stream identity: for random small specs, the channel source yields
    /// exactly the op sequence the materialized log holds — same records,
    /// same order — so every downstream consumer is path-agnostic.
    #[test]
    fn channel_source_yields_the_materialized_op_sequence(
        users in 1usize..=3,
        sessions in 1u32..=2,
        seed in 0u64..1_000,
    ) {
        let mut spec = base_spec(users, sessions);
        spec.run.seed = seed;
        let model = ModelConfig::default_local();
        let expected = spec.run_des(&model, UsageLog::new()).unwrap().0.ops().to_vec();
        // A tiny channel forces real backpressure along the way.
        let (rx, handle) = spawn_des(&spec, &model, 8);
        let got: Vec<_> = rx.iter().collect();
        handle.join().expect("producer panicked").expect("producer failed");
        prop_assert_eq!(got, expected);
    }
}
