//! Property-based integration tests: workload-model invariants that must
//! hold for arbitrary (valid) specifications, not just the paper presets.

use proptest::prelude::*;
use uswg_core::experiment::ModelConfig;
use uswg_core::{
    CategorySpec, CategoryUsage, DistributionSpec, FileCategory, FillPattern, FscSpec,
    PopulationSpec, RunConfig, SummarySink, UsageLog, UserTypeSpec, VfsConfig, WorkloadSpec,
};

/// A small random-but-valid workload spec.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        500.0f64..20_000.0, // mean file size
        0.2f64..4.0,        // access-per-byte
        1.0f64..4.0,        // mean files per session
        128.0f64..4_096.0,  // mean access size
        0.0f64..10_000.0,   // mean think time
        1u64..1_000,        // seed
        1usize..4,          // users
    )
        .prop_map(|(size, apb, files, access, think, seed, users)| {
            let fsc = FscSpec::new(vec![
                CategorySpec::new(
                    FileCategory::REG_USER_RDONLY,
                    0.6,
                    DistributionSpec::exponential(size),
                ),
                CategorySpec::new(
                    FileCategory::REG_OTHER_RDONLY,
                    0.4,
                    DistributionSpec::exponential(size * 2.0),
                ),
            ])
            .expect("valid fractions")
            .with_files_per_user(8)
            .expect("positive")
            .with_shared_files(10)
            .expect("positive")
            .with_fill(FillPattern::Sparse);
            let utype = UserTypeSpec::new(
                "prop user",
                if think < 1.0 {
                    DistributionSpec::constant(0.0)
                } else {
                    DistributionSpec::exponential(think)
                },
                DistributionSpec::exponential(access),
                vec![
                    CategoryUsage::exponential(
                        FileCategory::REG_USER_RDONLY,
                        apb,
                        size,
                        files,
                        1.0,
                    ),
                    CategoryUsage::exponential(FileCategory::REG_USER_TEMP, apb, size, files, 0.5),
                ],
            );
            WorkloadSpec {
                fsc,
                population: PopulationSpec::single(utype).expect("valid population"),
                run: RunConfig {
                    n_users: users,
                    sessions_per_user: 2,
                    seed,
                    record_ops: true,
                    cdf_resolution: 128,
                    ..RunConfig::default()
                },
                vfs: VfsConfig::default(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid spec runs to completion and its log is self-consistent.
    #[test]
    fn any_valid_spec_runs_direct(spec in spec_strategy()) {
        let log = spec.run_direct().expect("run succeeds");
        prop_assert_eq!(
            log.sessions().len(),
            spec.run.n_users * spec.run.sessions_per_user as usize
        );
        // Op-level byte totals equal session-level byte totals.
        let op_bytes: u64 = log
            .ops()
            .iter()
            .filter(|o| o.op.is_data())
            .map(|o| o.bytes)
            .sum();
        let session_bytes: u64 = log.sessions().iter().map(|s| s.bytes_accessed).sum();
        prop_assert_eq!(op_bytes, session_bytes);
        // Session ops equal op records.
        let session_ops: u64 = log.sessions().iter().map(|s| s.ops).sum();
        prop_assert_eq!(session_ops as usize, log.ops().len());
    }

    /// DES runs produce non-negative responses and monotone issue times per
    /// user, under every model.
    #[test]
    fn any_valid_spec_runs_des(spec in spec_strategy(), model_idx in 0usize..3) {
        let model = match model_idx {
            0 => ModelConfig::default_local(),
            1 => ModelConfig::default_nfs(),
            _ => ModelConfig::default_whole_file(),
        };
        let (log, report) = spec.run_des(&model, UsageLog::new()).expect("run succeeds");
        let mut last_at = std::collections::HashMap::new();
        for op in log.ops() {
            let prev = last_at.insert(op.user, op.at).unwrap_or(0);
            prop_assert!(op.at >= prev, "issue times must be monotone per user");
        }
        // Total simulated duration bounds every op's completion.
        for op in log.ops() {
            prop_assert!(op.at + op.response <= report.duration.micros());
        }
    }

    /// The same spec is bit-for-bit reproducible.
    #[test]
    fn runs_are_deterministic(spec in spec_strategy()) {
        let a = spec.run_direct().expect("first run");
        let b = spec.run_direct().expect("second run");
        prop_assert_eq!(a.ops().len(), b.ops().len());
        for (x, y) in a.ops().iter().zip(b.ops()) {
            prop_assert_eq!(x.op, y.op);
            prop_assert_eq!(x.bytes, y.bytes);
            prop_assert_eq!(x.ino, y.ino);
        }
    }

    /// Response-time-per-byte is finite and positive whenever data moved.
    #[test]
    fn response_per_byte_is_sane(spec in spec_strategy()) {
        let (log, _) = spec.run_des(&ModelConfig::default_nfs(), UsageLog::new()).expect("run succeeds");
        let rpb = SummarySink::of(&log).response_per_byte();
        let moved: u64 = log
            .ops()
            .iter()
            .filter(|o| o.op.is_data())
            .map(|o| o.bytes)
            .sum();
        if moved > 0 {
            prop_assert!(rpb.is_finite());
            prop_assert!(rpb > 0.0);
            // An NFS data byte cannot be cheaper than the wire alone.
            prop_assert!(rpb >= 0.1, "rpb {rpb} below physical floor");
        }
    }
}
