//! End-to-end integration: the full GDS → FSC → USIM pipeline through the
//! public `uswg-core` API.

use uswg_core::experiment::ModelConfig;
use uswg_core::{
    metrics, presets, DesDriver, FillPattern, OpKind, PopulationSpec, ResourcePool, Summary,
    SummarySink, UsageLog, WorkloadSpec,
};

/// The run under the zero-stage model, collected.
fn run_none(spec: &WorkloadSpec) -> UsageLog {
    spec.run_des(&ModelConfig::None, UsageLog::new()).unwrap().0
}

fn small_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.sessions_per_user = 4;
    spec.run.n_users = 2;
    spec.fsc = spec
        .fsc
        .with_files_per_user(15)
        .unwrap()
        .with_shared_files(25)
        .unwrap();
    spec
}

#[test]
fn pipeline_produces_consistent_catalog_and_log() {
    let spec = small_spec();
    let (mut vfs, catalog) = spec.generate_fs().unwrap();
    // Once every home is built, catalog entries exist in the file system
    // at their inode numbers.
    for user in 0..spec.run.n_users {
        catalog.build_home(&mut vfs, user).unwrap();
    }
    for (idx, file) in catalog.files().enumerate() {
        let path = catalog.path(idx);
        let md = vfs.resolve(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(md.number(), file.ino);
    }
    // The log's referenced inodes are real.
    let log = run_none(&spec);
    assert!(!log.ops().is_empty());
    assert_eq!(log.sessions().len(), 8);
}

#[test]
fn generated_file_sizes_track_table_5_1() {
    let mut spec = small_spec();
    spec.fsc = presets::table_5_1_fs_spec()
        .unwrap()
        .with_files_per_user(400)
        .unwrap()
        .with_shared_files(400)
        .unwrap()
        .with_fill(FillPattern::Sparse);
    spec.run.n_users = 2;
    let (_, catalog) = spec.generate_fs().unwrap();
    let characterization = catalog.characterize();
    for &(category, mean_size, _pct) in presets::TABLE_5_1.iter() {
        if !category.preexisting() {
            continue; // NEW/TEMP appear only at runtime
        }
        let (count, measured_mean) = characterization[&category];
        assert!(count > 10, "{category}: only {count} files");
        let rel = (measured_mean - mean_size).abs() / mean_size;
        assert!(
            rel < 0.45,
            "{category}: measured {measured_mean:.0} vs spec {mean_size} ({rel:.2})"
        );
    }
}

/// The zero-stage model records a response of exactly zero; NFS does not.
#[test]
fn des_response_times_exceed_direct_zero_baseline() {
    let spec = small_spec();
    let (baseline, _) = spec
        .run_des(&ModelConfig::None, SummarySink::new())
        .unwrap();
    assert_eq!(
        (baseline.total_response, baseline.response().mean),
        (0, 0.0)
    );
    let (sink, _) = spec
        .run_des(&ModelConfig::default_nfs(), SummarySink::new())
        .unwrap();
    let response = sink.response();
    assert!(response.n > 0);
    assert!(
        response.mean > 500.0,
        "NFS data ops are >0.5 ms, got {}",
        response.mean
    );
}

#[test]
fn usage_measures_have_paper_magnitudes() {
    // Table 5.2-driven sessions should produce access-per-byte near the
    // weighted accesses column and file counts in the tens.
    let mut spec = small_spec();
    spec.run.n_users = 4;
    spec.run.sessions_per_user = 50;
    spec.run.record_ops = false;
    spec.fsc = spec.fsc.with_fill(FillPattern::Sparse);
    let log = run_none(&spec);
    let apb = metrics::session_series(&log, metrics::SessionMetric::AccessPerByte);
    let apb_summary = Summary::of(&apb);
    assert!(
        apb_summary.mean > 0.5 && apb_summary.mean < 6.0,
        "access-per-byte mean {:.2} outside the paper's 0-8 range",
        apb_summary.mean
    );
    let files = metrics::session_series(&log, metrics::SessionMetric::FilesReferenced);
    let files_summary = Summary::of(&files);
    assert!(
        files_summary.mean > 3.0 && files_summary.mean < 100.0,
        "files referenced mean {:.1} implausible",
        files_summary.mean
    );
}

#[test]
fn populations_mix_in_des_runs() {
    let mut spec = small_spec();
    spec.run.n_users = 5;
    spec.population = presets::heavy_light_population(0.8).unwrap();
    let (log, _) = spec
        .run_des(&ModelConfig::default_local(), UsageLog::new())
        .unwrap();
    let types: std::collections::HashSet<usize> =
        log.sessions().iter().map(|s| s.user_type).collect();
    assert_eq!(types.len(), 2, "both user types must appear");
    // 4 heavy users, 1 light user.
    let heavy_users: std::collections::HashSet<usize> = log
        .sessions()
        .iter()
        .filter(|s| s.user_type == 0)
        .map(|s| s.user)
        .collect();
    assert_eq!(heavy_users.len(), 4);
}

#[test]
fn temp_usage_class_cleans_up_in_full_pipeline() {
    let mut spec = small_spec();
    spec.population = PopulationSpec::single(presets::heavy_user()).unwrap();
    spec.run.sessions_per_user = 6;
    let (mut vfs, catalog) = spec.generate_fs().unwrap();
    let inodes_before = vfs.statfs().used_inodes;
    let population = spec.compile().unwrap();
    let mut pool = ResourcePool::new();
    let model = ModelConfig::None.build(&mut pool);
    let (log, _) = DesDriver::new()
        .run_on(
            &mut vfs,
            catalog,
            &population,
            model,
            pool,
            &spec.run,
            UsageLog::new(),
        )
        .unwrap();
    let creates = log.ops().iter().filter(|o| o.op == OpKind::Create).count();
    let unlinks = log.ops().iter().filter(|o| o.op == OpKind::Unlink).count();
    assert!(creates >= unlinks);
    // NEW files persist, TEMP files do not; inode growth equals the
    // difference.
    let growth = vfs.statfs().used_inodes - inodes_before;
    assert_eq!(growth, (creates - unlinks) as u64);
}

#[test]
fn run_survives_a_nearly_full_file_system() {
    // Failure injection: a device with almost no block capacity. Writes hit
    // ENOSPC mid-session; the session engine degrades tasks instead of
    // failing the run, and the log stays self-consistent.
    let mut spec = small_spec();
    spec.vfs.max_blocks = 220; // Table 5.1 population barely fits
    spec.vfs.block_size = 8_192;
    spec.fsc = spec.fsc.with_fill(FillPattern::Sparse);
    let run = spec.run_des(&ModelConfig::None, UsageLog::new());
    let (log, _) = run.expect("run must degrade, not fail");
    assert_eq!(log.sessions().len(), 8);
    let session_ops: u64 = log.sessions().iter().map(|s| s.ops).sum();
    assert_eq!(session_ops as usize, log.ops().len());
    // Some writing was attempted; the device cap keeps totals bounded.
    let written: u64 = log.sessions().iter().map(|s| s.bytes_written).sum();
    assert!(written <= 220 * 8_192 * (1 + log.sessions().len() as u64));
}

#[test]
fn run_survives_inode_exhaustion() {
    let mut spec = small_spec();
    spec.vfs.max_inodes = 130; // just above the generated population
    spec.fsc = spec.fsc.with_fill(FillPattern::Sparse);
    let run = spec.run_des(&ModelConfig::None, UsageLog::new());
    let (log, _) = run.expect("inode exhaustion must degrade");
    assert_eq!(log.sessions().len(), 8);
}

#[test]
fn spec_json_survives_and_runs() {
    let spec = small_spec();
    let json = spec.to_json().unwrap();
    let parsed = WorkloadSpec::from_json(&json).unwrap();
    let log = run_none(&parsed);
    assert_eq!(log.sessions().len(), 8);
}

#[test]
fn usage_log_json_round_trip_at_scale() {
    let log = run_none(&small_spec());
    let json = log.to_json().unwrap();
    let back = uswg_core::UsageLog::from_json(&json).unwrap();
    assert_eq!(back.ops().len(), log.ops().len());
    let apb_a = SummarySink::of(&log).response_per_byte();
    let apb_b = SummarySink::of(&back).response_per_byte();
    assert!((apb_a - apb_b).abs() < 1e-12);
}
