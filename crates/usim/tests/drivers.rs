//! End-to-end tests of both USIM drivers on a small Table-5.2-like workload.

use uswg_distr::DistributionSpec;
use uswg_fsc::FillPattern::{self, Sparse};
use uswg_fsc::{CategorySpec, FileCatalog, FileCategory, FileSystemCreator, FileType, FscSpec};
use uswg_netfs::{LocalDiskModel, LocalDiskParams, NfsModel, NfsParams, OpKind, ServiceModel};
use uswg_sim::ResourcePool;
use uswg_usim::{
    CategoryUsage, CompiledPopulation, DesDriver, DesRunStats, DirectDriver, LogSink,
    PopulationSpec, RunConfig, UsageLog, UserTypeSpec,
};
use uswg_vfs::{Vfs, VfsConfig};

fn build_fs(n_users: usize, seed: u64, fill: FillPattern) -> (Vfs, FileCatalog) {
    let spec = FscSpec::new(vec![
        CategorySpec::new(
            FileCategory::DIR_USER_RDONLY,
            0.15,
            DistributionSpec::exponential(714.0),
        ),
        CategorySpec::new(
            FileCategory::REG_USER_RDONLY,
            0.45,
            DistributionSpec::exponential(2608.0),
        ),
        CategorySpec::new(
            FileCategory::REG_USER_RDWRT,
            0.15,
            DistributionSpec::exponential(17431.0),
        ),
        CategorySpec::new(
            FileCategory::REG_OTHER_RDONLY,
            0.25,
            DistributionSpec::exponential(31347.0),
        ),
    ])
    .unwrap()
    .with_files_per_user(12)
    .unwrap()
    .with_shared_files(20)
    .unwrap()
    .with_fill(fill);
    let creator = FileSystemCreator::new(spec);
    let mut vfs = Vfs::new(VfsConfig::default());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let catalog = creator.build(&mut vfs, n_users, &mut rng).unwrap();
    (vfs, catalog)
}

fn population(think_us: f64) -> PopulationSpec {
    let utype = UserTypeSpec::new(
        "test user",
        if think_us == 0.0 {
            DistributionSpec::constant(0.0)
        } else {
            DistributionSpec::exponential(think_us)
        },
        DistributionSpec::exponential(1024.0),
        vec![
            CategoryUsage::exponential(FileCategory::DIR_USER_RDONLY, 3.128, 808.0, 2.9, 0.69),
            CategoryUsage::exponential(FileCategory::REG_USER_RDONLY, 1.42, 2608.0, 3.0, 1.0),
            CategoryUsage::exponential(FileCategory::REG_USER_RDWRT, 3.50, 19860.0, 1.5, 0.46),
            CategoryUsage::exponential(FileCategory::REG_USER_NEW, 2.36, 11438.0, 2.0, 0.40),
            CategoryUsage::exponential(FileCategory::REG_USER_TEMP, 2.00, 9233.0, 2.0, 0.59),
            CategoryUsage::exponential(FileCategory::REG_OTHER_RDONLY, 0.75, 53965.0, 1.5, 0.53),
        ],
    );
    PopulationSpec::single(utype).unwrap()
}

fn compiled(think_us: f64, resolution: usize) -> CompiledPopulation {
    CompiledPopulation::compile(&population(think_us), resolution).unwrap()
}

fn direct(
    vfs: &mut Vfs,
    files: &FileCatalog,
    pop: &CompiledPopulation,
    run: &RunConfig,
) -> UsageLog {
    DirectDriver::new().run(vfs, files, pop, run).unwrap()
}

/// A DES run over `fs` into `sink`, under the NFS model or the local disk's.
fn des<S: LogSink>(
    (vfs, files): (Vfs, FileCatalog),
    pop: &CompiledPopulation,
    run: &RunConfig,
    nfs: bool,
    sink: S,
) -> (S, DesRunStats) {
    let mut pool = ResourcePool::new();
    let model: Box<dyn ServiceModel> = if nfs {
        Box::new(NfsModel::new(&mut pool, NfsParams::default()))
    } else {
        Box::new(LocalDiskModel::new(&mut pool, LocalDiskParams::default()))
    };
    let done = DesDriver::new().run_with_sink(vfs, files, pop, model, pool, run, sink);
    done.unwrap()
}

fn config(users: usize, sessions: u32, seed: u64) -> RunConfig {
    let config = RunConfig::default().with_users(users);
    config.with_sessions(sessions).with_seed(seed)
}

/// Over real blocks and over holes alike. Sessions read through
/// `Vfs::read_discard`: the file system still counts every read and every
/// byte the log says a file read moved (directory reads go through `readdir`).
#[test]
fn direct_driver_produces_sessions_and_ops() {
    for fill in [FillPattern::Pattern, FillPattern::Sparse] {
        let (mut vfs, catalog) = build_fs(2, 1, fill);
        vfs.reset_counters();
        let log = direct(&mut vfs, &catalog, &compiled(0.0, 512), &config(2, 5, 7));

        assert_eq!(log.sessions().len(), 10);
        assert!(!log.ops().is_empty());
        // Session metrics add up against the op stream.
        let total_ops: u64 = log.sessions().iter().map(|s| s.ops).sum();
        assert_eq!(total_ops as usize, log.ops().len());
        let reads = || log.ops().iter().filter(|o| o.op == OpKind::Read);
        let session_reads: u64 = log.sessions().iter().map(|s| s.bytes_read).sum();
        assert_eq!(reads().map(|o| o.bytes).sum::<u64>(), session_reads);
        // And against the file system's own accounting.
        let file_reads = reads().filter(|o| o.category.file_type != FileType::Dir);
        let (count, bytes) = file_reads.fold((0, 0), |(c, b), o| (c + 1, b + o.bytes));
        assert!(count > 100, "{fill:?}");
        let counters = vfs.counters();
        assert_eq!(
            (counters.reads, counters.bytes_read),
            (count, bytes),
            "{fill:?}"
        );
    }
}

#[test]
fn op_stream_respects_logical_constraints() {
    let (mut vfs, catalog) = build_fs(1, 2, Sparse);
    let pop = compiled(0.0, 512);
    let config = config(1, 3, 3);
    let log = direct(&mut vfs, &catalog, &pop, &config);

    // Per (session, ino): open/creat before any read/write; close after.
    // A file may be referenced by several concurrent tasks in one session
    // (catalog selection is with replacement), so track an open *count*.
    use std::collections::HashMap;
    let mut open_count: HashMap<(u32, u64), i64> = HashMap::new();
    for op in log.ops() {
        let key = (op.session, op.ino);
        match op.op {
            OpKind::Open | OpKind::Create => {
                *open_count.entry(key).or_insert(0) += 1;
            }
            OpKind::Read | OpKind::Write | OpKind::Seek => {
                // DIR tasks read via stat+readdir and never open.
                let is_dir = op.category.file_type == uswg_fsc::FileType::Dir;
                if !is_dir {
                    assert!(
                        open_count.get(&key).copied().unwrap_or(0) > 0,
                        "I/O before open: {op:?}"
                    );
                }
            }
            OpKind::Close => {
                let c = open_count.get_mut(&key).expect("close without open");
                assert!(*c > 0, "close without open: {op:?}");
                *c -= 1;
            }
            OpKind::Unlink => {
                // TEMP files unlink only after their own close.
                assert_eq!(
                    open_count.get(&key).copied().unwrap_or(0),
                    0,
                    "unlink before close: {op:?}"
                );
            }
            _ => {}
        }
    }
    // Everything opened was eventually closed.
    assert!(
        open_count.values().all(|&c| c == 0),
        "dangling opens at logout"
    );
}

#[test]
fn temp_files_do_not_accumulate() {
    let (mut vfs, catalog) = build_fs(1, 3, Sparse);
    let before = vfs.statfs().used_inodes;
    let utype = UserTypeSpec::new(
        "temp-only",
        DistributionSpec::constant(0.0),
        DistributionSpec::exponential(1024.0),
        vec![CategoryUsage::exponential(
            FileCategory::REG_USER_TEMP,
            1.0,
            4096.0,
            3.0,
            1.0,
        )],
    );
    let pop = CompiledPopulation::compile(&PopulationSpec::single(utype).unwrap(), 256).unwrap();
    let config = config(1, 10, 11);
    let log = direct(&mut vfs, &catalog, &pop, &config);
    let creates = log.ops().iter().filter(|o| o.op == OpKind::Create).count();
    let unlinks = log.ops().iter().filter(|o| o.op == OpKind::Unlink).count();
    assert!(creates > 0, "temp workload must create files");
    assert_eq!(creates, unlinks, "every temp file is deleted");
    assert_eq!(vfs.statfs().used_inodes, before, "no inode leak");
}

#[test]
fn des_driver_measures_response_times() {
    let (vfs, catalog) = build_fs(2, 4, Sparse);
    let pop = compiled(5000.0, 512);
    let config = config(2, 3, 5);
    let (log, report) = des((vfs, catalog), &pop, &config, true, UsageLog::new());

    assert_eq!(report.model, "nfs");
    assert_eq!(log.sessions().len(), 6);
    assert!(report.events > 0);
    assert!(report.duration.micros() > 0);
    // Remote data ops must cost at least the uncontended NFS path.
    let min_read = log
        .ops()
        .iter()
        .filter(|o| o.op == OpKind::Read && o.bytes > 0)
        .map(|o| o.response)
        .min()
        .expect("some reads happen");
    assert!(
        min_read > 1_000,
        "NFS read under 1 ms is impossible: {min_read}"
    );
    // Resources actually served jobs.
    let disk = report
        .resources
        .iter()
        .find(|(name, _)| name == "nfs.server_disk")
        .expect("disk resource");
    assert!(disk.1.jobs > 0);
}

#[test]
fn des_contention_raises_response_times() {
    let run = |n_users| {
        let (vfs, catalog) = build_fs(n_users, 6, Sparse);
        let pop = compiled(0.0, 512);
        let config = RunConfig {
            n_users,
            sessions_per_user: 4,
            seed: 21,
            record_ops: true,
            cdf_resolution: 512,
            ..RunConfig::default()
        };
        let (log, _) = des((vfs, catalog), &pop, &config, true, UsageLog::new());
        let total: u64 = log.ops().iter().map(|o| o.response).sum();
        total as f64 / log.ops().len() as f64
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four > 1.5 * one,
        "4 zero-think users must contend: {four:.0} vs {one:.0} µs"
    );
}

#[test]
fn des_and_direct_semantics_agree() {
    // The same seed produces the same op stream regardless of driver,
    // because op generation only consumes the per-user RNG.
    let (mut vfs1, catalog1) = build_fs(1, 8, Sparse);
    let pop = compiled(0.0, 512);
    let config = config(1, 2, 9);
    let direct = direct(&mut vfs1, &catalog1, &pop, &config);

    let (vfs2, catalog2) = build_fs(1, 8, Sparse);
    let (des_log, _) = des((vfs2, catalog2), &pop, &config, false, UsageLog::new());

    let seq_direct: Vec<(OpKind, u64)> = direct.ops().iter().map(|o| (o.op, o.bytes)).collect();
    let seq_des: Vec<(OpKind, u64)> = des_log.ops().iter().map(|o| (o.op, o.bytes)).collect();
    assert_eq!(seq_direct, seq_des);
}

#[test]
fn log_round_trips_through_json() {
    let (mut vfs, catalog) = build_fs(1, 10, Sparse);
    let pop = compiled(0.0, 256);
    let config = config(1, 1, 13);
    let log = direct(&mut vfs, &catalog, &pop, &config);
    let json = log.to_json().unwrap();
    let back = uswg_usim::UsageLog::from_json(&json).unwrap();
    assert_eq!(back.ops().len(), log.ops().len());
    assert_eq!(back.sessions().len(), log.sessions().len());
}

#[test]
fn des_driver_honours_a_pre_sealed_weighted_catalog() {
    // A caller who sealed the catalog with a weighted popularity policy
    // must see those weights in the simulated run: the driver seals only
    // *unsealed* catalogs (uniform), it never re-seals over the caller's
    // policy. A heavily skewed Zipf pick stream touches a measurably
    // different set of shared files than the uniform stream.
    let run = |weighted: bool| {
        let (vfs, mut catalog) = build_fs(1, 7, Sparse);
        if weighted {
            catalog.seal_with(uswg_fsc::FilePopularity::Zipf { exponent: 3.0 });
        }
        let pop = compiled(0.0, 256);
        let config = config(1, 6, 9);
        let (log, _) = des((vfs, catalog), &pop, &config, false, UsageLog::new());
        log.ops().iter().map(|o| o.ino).collect::<Vec<u64>>()
    };
    let uniform = run(false);
    let zipf = run(true);
    assert_ne!(
        uniform, zipf,
        "a Zipf-sealed catalog must change which files the run touches"
    );
    // And the weighted run is still deterministic.
    assert_eq!(run(true), run(true));
}

#[test]
fn deterministic_given_seed() {
    let run = |seed| {
        let (mut vfs, catalog) = build_fs(2, 42, Sparse);
        let pop = compiled(0.0, 256);
        let config = config(2, 3, seed);
        let log = direct(&mut vfs, &catalog, &pop, &config);
        log.ops()
            .iter()
            .map(|o| (o.user, o.op, o.bytes, o.ino))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

#[test]
fn record_ops_off_still_counts_sessions() {
    let (mut vfs, catalog) = build_fs(1, 11, Sparse);
    let pop = compiled(0.0, 256);
    let mut config = config(1, 4, 15);
    config.record_ops = false;
    let log = direct(&mut vfs, &catalog, &pop, &config);
    assert!(log.ops().is_empty());
    assert_eq!(log.sessions().len(), 4);
    assert!(log.sessions().iter().any(|s| s.ops > 0));
}

#[test]
fn summary_sink_matches_collected_log() {
    use uswg_usim::SummarySink;

    let config = config(2, 3, 21);
    let pop = compiled(2000.0, 512);

    // Collected path.
    let (vfs, catalog) = build_fs(2, 9, Sparse);
    let (log, report) = des((vfs, catalog), &pop, &config, true, UsageLog::new());

    // Streaming path: same seed, fresh world, SummarySink instead of a log.
    let (vfs, catalog) = build_fs(2, 9, Sparse);
    let (sink, stats) = des((vfs, catalog), &pop, &config, true, SummarySink::new());

    // The record streams are identical, so the streamed aggregates must
    // equal the same aggregates computed from the materialized log.
    assert_eq!(stats.events, report.events);
    assert_eq!(stats.duration, report.duration);
    assert_eq!(sink.ops as usize, log.ops().len());
    assert_eq!(sink.sessions as usize, log.sessions().len());
    let log_total: u64 = log.ops().iter().map(|o| o.response).sum();
    assert_eq!(sink.total_response, log_total);
    let log_data_bytes: u64 = log
        .ops()
        .iter()
        .filter(|o| o.op.is_data() && o.bytes > 0)
        .map(|o| o.bytes)
        .sum();
    assert_eq!(sink.data_bytes, log_data_bytes);
    assert!(sink.response_per_byte() > 0.0);
}

#[test]
fn expected_ops_estimate_is_a_sane_capacity_hint() {
    let pop = compiled(0.0, 256);
    let est = pop.types()[0].expected_ops_per_session();
    assert!(est > 0.0, "estimate must be positive, got {est}");

    // Compare against an actual run: the hint should be the right order of
    // magnitude (it guides Vec pre-sizing, nothing else).
    let (mut vfs, catalog) = build_fs(1, 9, Sparse);
    let config = config(1, 8, 3);
    let log = direct(&mut vfs, &catalog, &pop, &config);
    let actual = log.ops().len() as f64 / 8.0;
    assert!(
        est > actual / 20.0 && est < actual * 20.0,
        "estimate {est} vs actual {actual} ops/session"
    );
}

#[test]
fn spill_sink_through_des_driver_is_lossless() {
    use uswg_usim::{read_spill, SpillSink};

    let config = config(2, 3, 77);
    let pop = compiled(2000.0, 512);

    // Collected path: the in-memory log.
    let (vfs, catalog) = build_fs(2, 9, Sparse);
    let (log, report) = des((vfs, catalog), &pop, &config, true, UsageLog::new());

    // Spilled path: same seed, records stream through the columnar sink
    // into a byte buffer (a stand-in for the on-disk file).
    let (vfs, catalog) = build_fs(2, 9, Sparse);
    let sink = SpillSink::new(Vec::new()).unwrap();
    let (sink, stats) = des((vfs, catalog), &pop, &config, true, sink);
    assert_eq!(stats.events, report.events);

    // Reading the spill back reconstructs the exact log the collected run
    // materialized: the full-fidelity path survives beyond RAM losslessly.
    let bytes = sink.finish().unwrap();
    let spilled = read_spill(bytes.as_slice()).unwrap();
    assert_eq!(spilled.ops().len(), log.ops().len());
    assert_eq!(spilled.sessions().len(), log.sessions().len());
    assert_eq!(
        spilled.to_json().unwrap(),
        log.to_json().unwrap(),
        "spilled stream must reconstruct the identical usage log"
    );
}
