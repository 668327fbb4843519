//! Golden byte-identity suite: committed fixtures pin the **exact bytes**
//! a fixed workload produces — the serialized [`UsageLog`] JSON and the
//! binary spill capture.
//!
//! The fixtures under `tests/golden/` were generated by the pre-arena
//! `DesDriver` (one boxed `UserState` per user), so these tests prove the
//! struct-of-arrays refactor reproduces the historical op stream byte for
//! byte: same records, same order, same spill frames. Unlike the
//! equivalence suites (which compare two live code paths against each
//! other), this suite compares against *history* — a regression both paths
//! share cannot slip through.
//!
//! The fixtures are committed in the **pre-footer** format (record stream
//! and end marker, no index footer): a live capture must reproduce the
//! fixture as a strict byte *prefix*, with the only addition after it the
//! loadable index footer. Decoding the footer-less fixture directly pins
//! that pre-footer files stay readable with unchanged results.
//!
//! A spec naming one shard (`run.shards: 1`) is the same run: it writes
//! the same bytes, at the fixture's frame size and at a small one.
//!
//! After an **intended** stream change, regenerate with:
//!
//! ```text
//! USWG_GOLDEN_REGEN=1 cargo test --test golden_identity
//! ```
//!
//! and commit the updated fixtures together with the change that explains
//! them.

use proptest::prelude::*;
use std::io::Cursor;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use uswg_core::experiment::ModelConfig;
use uswg_core::{
    DesDriver, FaultSpec, FrameIndex, Owner, PopulationSpec, ResourcePool, SpillSink, SummarySink,
    UsageClass, UsageLog, WorkloadSpec,
};
use uswg_usim::{user_rng, Session};

/// Bytes the index footer appends after the end marker: fixed header
/// (8-byte magic + 4-byte count + 4-byte CRC), 29 bytes per frame entry,
/// and the 12-byte trailer.
fn footer_bytes(frames: usize) -> usize {
    (8 + 4 + 4) + 29 * frames + 12
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The pinned workload: small enough to keep the fixtures a few tens of
/// kilobytes, rich enough to cross every lazily-materialized path — multi
/// session (login/logout/relogin), the full paper category mix including
/// shared read-write coupling, and fault injection (retries, spikes,
/// aborts) so the retry state machine is pinned too.
fn golden_spec(shards: Option<NonZeroUsize>) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().expect("paper default builds");
    spec.run.n_users = 6;
    spec.run.sessions_per_user = 3;
    spec.run.seed = 0x60_1D;
    spec.run.shards = shards;
    spec.run.faults = FaultSpec {
        fault_ppm: 120_000,
        spike_ppm: 80_000,
        spike_micros: 900,
        ..FaultSpec::default()
    };
    spec.fsc = spec
        .fsc
        .with_files_per_user(6)
        .expect("files per user")
        .with_shared_files(10)
        .expect("shared files");
    spec
}

/// One captured run: the serialized usage log and the raw spill bytes.
fn capture(shards: Option<NonZeroUsize>) -> (String, Vec<u8>) {
    let spec = golden_spec(shards);
    let model = ModelConfig::default_nfs();
    let log_json = spec
        .run_des(&model, UsageLog::new())
        .expect("run succeeds")
        .0
        .to_json()
        .expect("log serializes");
    let spill_path = std::env::temp_dir().join(format!(
        "uswg-golden-{}-{shards:?}.spill",
        std::process::id()
    ));
    let sink = (
        SummarySink::new(),
        SpillSink::create(&spill_path).expect("spill sink"),
    );
    let ((_, spill_sink), _) = spec.run_des(&model, sink).expect("run succeeds");
    spill_sink.finish().expect("spill seals");
    let bytes = std::fs::read(&spill_path).expect("spill readable");
    let _ = std::fs::remove_file(&spill_path);
    (log_json, bytes)
}

/// The golden spec's capture at `frame_cap` records per frame.
fn small_frame_capture(shards: Option<NonZeroUsize>, frame_cap: usize) -> Vec<u8> {
    let sink = SpillSink::with_options(Vec::new(), frame_cap).expect("spill sink");
    let (sink, _) = golden_spec(shards)
        .run_des(&ModelConfig::default_nfs(), sink)
        .expect("run succeeds");
    sink.finish().expect("spill seals")
}

/// The fixture comparison (or regeneration), with the shard count unset
/// and at 1.
#[test]
fn arena_refactor_replays_the_pre_refactor_bytes() {
    let regen = std::env::var("USWG_GOLDEN_REGEN").is_ok();
    let dir = golden_dir();
    if regen {
        std::fs::create_dir_all(&dir).expect("fixture dir");
    }
    // Eight records per frame: sessions complete between op frames, so a
    // run that reorders its records into all ops, then all sessions,
    // writes different bytes.
    assert_eq!(
        small_frame_capture(None, 8),
        small_frame_capture(NonZeroUsize::new(1), 8),
        "shards: 1 must write the exact run's capture"
    );
    for shards in [None, NonZeroUsize::new(1)] {
        let spill_fixture = dir.join("k1.spill");
        let (log_json, spill_bytes) = capture(shards);
        let index = FrameIndex::load(&mut Cursor::new(&spill_bytes))
            .expect("trailer probe succeeds")
            .expect("a sealed capture carries an index footer");
        let stream_end = spill_bytes.len() - footer_bytes(index.frames());
        if regen {
            // Fixtures stay in the pre-footer format — the capture
            // minus its index footer — so the suite keeps pinning
            // that footer-less files remain readable.
            std::fs::write(&spill_fixture, &spill_bytes[..stream_end])
                .expect("write spill fixture");
        }
        if !spill_fixture.exists() {
            panic!(
                "missing fixture {} — regenerate with USWG_GOLDEN_REGEN=1",
                spill_fixture.display()
            );
        }
        let want_spill = std::fs::read(&spill_fixture).expect("spill fixture readable");
        assert_eq!(
            &spill_bytes[..stream_end],
            &want_spill[..],
            "shards {shards:?}: spill record stream diverged from the \
             committed golden fixture (an op-stream change; if intended, \
             regenerate with USWG_GOLDEN_REGEN=1 and commit the fixtures)"
        );
        assert_eq!(
            spill_bytes.len(),
            want_spill.len() + footer_bytes(index.frames()),
            "shards {shards:?}: the index footer must be the only \
             bytes a live capture adds after the pre-footer stream"
        );
        // The compressed spill *is* the full log (the fixture stays
        // ~115 KB instead of ~1.5 MB of JSON): reconstructing a
        // UsageLog from the fixture and serializing it pins the
        // materialized-log path to the same golden bytes.
        let want_log = uswg_core::read_spill_path(&spill_fixture)
            .expect("fixture decodes")
            .to_json()
            .expect("fixture log serializes");
        assert_eq!(
            log_json, want_log,
            "shards {shards:?}: serialized UsageLog diverged from the \
             committed golden fixture"
        );
    }
}

/// A decoupled spec for the DES-against-oracle op comparison: shared
/// read-write files couple users through the file system (one user's write
/// moves another's EOF), and file-*creating* categories couple them through
/// the global inode allocator (creation order differs between the
/// interleaved DES and the sequential oracle, so created files get different
/// inos) —
/// the comparison runs on the preexisting private/shared categories, which
/// still exercise every materialization path: plan, open, read/write/seek,
/// close, logout.
fn read_only_spec(users: usize, sessions: u32, seed: u64) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().expect("paper default builds");
    spec.run.n_users = users;
    spec.run.sessions_per_user = sessions;
    spec.run.seed = seed;
    spec.fsc = spec
        .fsc
        .with_files_per_user(6)
        .expect("files per user")
        .with_shared_files(10)
        .expect("shared files");
    let mut heavy = spec.population.types()[0].0.clone();
    heavy.categories.retain(|usage| {
        usage.category.preexisting()
            && !(usage.category.owner == Owner::Other
                && usage.category.usage == UsageClass::ReadWrite)
    });
    spec.population = PopulationSpec::single(heavy).expect("population builds");
    spec
}

/// What an op looks like with all timing stripped: the selection-only view
/// that must be identical between the DES and the oracle (and thus
/// unperturbed by lazy session materialization).
type OpShape = (u32, String, u64, u64, u64);

fn op_shapes(log: &uswg_core::UsageLog, user: usize) -> Vec<OpShape> {
    log.ops()
        .iter()
        .filter(|op| op.user == user)
        .map(|op| {
            (
                op.session,
                op.op.to_string(),
                op.ino,
                op.bytes,
                op.file_size,
            )
        })
        .collect()
}

/// The oracle: every user's sessions run back to back, one user after
/// another, with no scheduler and no timing model — the engine's
/// [`Session`] stepped by hand, drawing from each user's own stream at the
/// points the DES draws (think and inter-session gaps included). Returns
/// each user's op shapes.
fn sequential_shapes(spec: &WorkloadSpec) -> Vec<Vec<OpShape>> {
    let (mut vfs, catalog) = spec.generate_fs().expect("fs builds");
    let population = spec.compile().expect("compiles");
    let (n_users, mut path) = (spec.run.n_users, String::new());
    (0..n_users)
        .map(|user| {
            let type_idx = population.type_of(user, n_users);
            let utype = &population.types()[type_idx];
            let mut rng = user_rng(spec.run.seed, user);
            let (mut proc, mut behavior) = (vfs.new_process(), utype.new_behavior());
            let (mut clock, mut shapes) = (0, Vec::new());
            for ordinal in 0..spec.run.sessions_per_user {
                let mut session =
                    Session::plan(user, type_idx, ordinal, clock, utype, &catalog, &mut rng);
                if session.names_home(&catalog) {
                    catalog.build_home(&mut vfs, user).expect("home builds");
                }
                loop {
                    let op =
                        session.next_op(&mut vfs, &mut proc, utype, &catalog, &mut path, &mut rng);
                    let Some(exec) = op.expect("op runs") else {
                        break;
                    };
                    let r = exec.request;
                    shapes.push((ordinal, r.kind.to_string(), r.file.0, r.bytes, r.file_size));
                    clock += utype.sample_think(&mut behavior, &mut rng);
                }
                if ordinal + 1 < spec.run.sessions_per_user {
                    clock += utype.sample_inter_session(clock, &mut rng);
                }
            }
            catalog.drop_home(&mut vfs, user);
            shapes
        })
        .collect()
}

proptest! {
    // Real runs are expensive; a handful of random shapes on top of the
    // exhaustive deterministic fixtures above is the right trade.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lazy session materialization never changes op order: for random
    /// small specs, each user's operation subsequence from the DES driver
    /// (sessions materialized per login, interleaved across users in
    /// simulated time) equals the sequential oracle's (sessions run
    /// back-to-back per user, no scheduler) — op for op, in order.
    #[test]
    fn lazy_sessions_preserve_op_order(
        users in 1usize..6,
        sessions in 1u32..4,
        seed in 0u64..1_000_000,
    ) {
        let spec = read_only_spec(users, sessions, seed);
        let oracle = sequential_shapes(&spec);
        // The raw driver, so the oracle shares no plumbing with `run_des`.
        let (vfs, catalog) = spec.generate_fs().expect("fs builds");
        let population = spec.compile().expect("compiles");
        let mut pool = ResourcePool::new();
        let model = ModelConfig::default_local().build(&mut pool);
        let (des_log, _) = DesDriver::new()
            .run_with_sink(vfs, catalog, &population, model, pool, &spec.run, UsageLog::new())
            .expect("des run");
        prop_assert_eq!(oracle.len(), users);
        for (user, want) in oracle.into_iter().enumerate() {
            prop_assert_eq!(
                op_shapes(&des_log, user),
                want,
                "user {} op stream diverged from the sequential oracle",
                user
            );
        }
    }
}
