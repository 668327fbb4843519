//! Exact cost counters per record: heap allocations, bytes allocated and
//! DES events. Wall time on a shared box swings by more than most single
//! optimisations; these counts repeat exactly, so an allocation or an event
//! added per op fails here. Every count is pinned at its measured value in
//! [`PINNED`], and `BENCH_trajectory.json`'s last row carries the same
//! values (`tests/trajectory.rs` checks them): a change that lowers a count
//! lowers its pin and that row in the same diff.
//!
//! The unit is the marginal cost per record: the paper-default spec at 64
//! users and seed 24301 run at 10 and at 20 sessions per user, the counts
//! differenced, so set-up and every other fixed cost cancel. One test in
//! its own binary: nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use uswg_core::experiment::ModelConfig;
use uswg_core::{
    scan, FitCollector, LogSink, OpRecord, ScanOptions, SessionRecord, SpillSink, UsageLog,
    WorkloadSpec,
};
use uswg_drive::{LoopbackConfig, LoopbackVfs, Target};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and the bytes they request.
/// `realloc` is the trait's default, which goes through `alloc`.
struct Counting;

// SAFETY: both calls are forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and guard no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Every pinned count, in the units its name gives, to three decimals.
/// The loopback's are the VFS's: what is left is a fresh inode's block
/// list, taken when a slot is written after an unlink.
const PINNED: [(&str, f64); 10] = [
    ("nfs_allocs_per_op", 1.026),
    ("nfs_bytes_per_op", 175.181),
    ("nfs_events_per_op", 8.595),
    ("local_allocs_per_op", 1.026),
    ("local_bytes_per_op", 64.943),
    ("local_events_per_op", 3.934),
    ("spill_encode_allocs_per_record", 0.009),
    ("scan_allocs_per_record", 0.0),
    ("fit_collect_allocs_per_record", 0.0),
    ("loopback_allocs_per_op", 0.008),
];

/// `f`'s result, and the allocations and bytes allocated while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [f64; 2]) {
    let before = [ALLOCS.load(Relaxed), BYTES.load(Relaxed)];
    let out = f();
    let after = [ALLOCS.load(Relaxed), BYTES.load(Relaxed)];
    (out, [0, 1].map(|i| (after[i] - before[i]) as f64))
}

/// A sink that counts op records and allocates nothing.
struct OpCount(u64);

impl LogSink for OpCount {
    fn record_op(&mut self, _op: &OpRecord) {
        self.0 += 1;
    }

    fn record_session(&mut self, _session: &SessionRecord) {}
}

/// Every op, then every session of `log`, into `sink`.
fn replay(log: &UsageLog, sink: &mut impl LogSink) {
    log.ops().iter().for_each(|op| sink.record_op(op));
    log.sessions().iter().for_each(|s| sink.record_session(s));
}

/// Each pinned count of a run at `sessions` per user, with the records it
/// is divided by: allocations, bytes and DES events over the op records of
/// an nfs and a local run; allocations of spill encode, `scan` and
/// `FitCollector` over the records of a local-model log; and allocations
/// of a warmed-up loopback target over the log's ops.
fn costs(sessions: u32) -> [(f64, f64); 10] {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    (spec.run.n_users, spec.run.seed, spec.run.sessions_per_user) = (64, 24301, sessions);
    let des = |model| {
        let ((ops, stats), [allocs, bytes]) = counted(|| spec.run_des(&model, OpCount(0)).unwrap());
        [allocs, bytes, stats.events as f64].map(|count| (count, ops.0 as f64))
    };
    let [nfs, local] = [ModelConfig::default_nfs(), ModelConfig::default_local()].map(des);

    let (log, _) = (spec.run_des(&ModelConfig::default_local(), UsageLog::new())).unwrap();
    let capture = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cost_counters.spill");
    let mut sink = SpillSink::create(&capture).unwrap();
    replay(&log, &mut sink);
    sink.finish().unwrap();
    let (_, [encode, _]) = counted(|| {
        let mut sink = SpillSink::new(std::io::sink()).unwrap();
        replay(&log, &mut sink);
        sink.finish().unwrap()
    });
    let (_, [scan, _]) = counted(|| scan::scan_path(&capture, &ScanOptions::default(), false));
    let (_, [fit, _]) = counted(|| {
        let mut fit = FitCollector::new();
        log.sessions().iter().for_each(|s| fit.record_session(s));
        log.ops().iter().for_each(|op| fit.record_op(op));
        fit.finish().unwrap()
    });
    // The second of two passes: the first grows the target's files and
    // buffers to their size.
    let target = LoopbackVfs::new(LoopbackConfig::default());
    let apply = || log.ops().iter().for_each(|op| target.apply(op).unwrap());
    apply();
    let (_, [loopback, _]) = counted(apply);

    let (ops, records) = (log.ops().len(), log.ops().len() + log.sessions().len());
    let consumers = [encode, scan, fit].map(|count| (count, records as f64));
    let [nfs, local, consumers] = [nfs, local, consumers].map(|counts| counts.into_iter());
    let all = nfs
        .chain(local)
        .chain(consumers)
        .chain([(loopback, ops as f64)]);
    all.collect::<Vec<_>>().try_into().unwrap()
}

#[test]
fn costs_per_record_do_not_grow() {
    let [short, long] = [10, 20].map(costs);
    let mut grew = Vec::new();
    for (((name, pinned), short), long) in PINNED.into_iter().zip(short).zip(long) {
        let value = (long.0 - short.0) / (long.1 - short.1);
        println!("{name}: {value:.3} (pinned {pinned:.3})");
        if value > pinned + 0.0005 {
            grew.push(format!("{name} {value:.3} > {pinned:.3}"));
        }
    }
    assert!(grew.is_empty(), "costs grew: {grew:?}");
}
