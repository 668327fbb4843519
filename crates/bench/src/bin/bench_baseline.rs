//! Perf-baseline snapshot: measures the hot paths this repo's performance
//! work targets and writes a machine-readable `BENCH_*.json` (schema 9).
//!
//! Measurements:
//!
//! 1. **Sampling** — guide-table vs binary-search inverse transform, ns per
//!    draw at several table resolutions;
//! 2. **DES throughput** — end-to-end events/sec of a 4-user NFS run;
//! 3. **Scheduler backends** — heap vs calendar-queue hold-model churn at
//!    pending populations from 1k to 1M events (the acceptance bar:
//!    calendar ≥ 2× heap at ≥ 100k pending);
//! 4. **Sweep parallelism** — wall-clock of a `user_sweep`, serial vs
//!    all-cores (best of [`TRIALS`] runs each, so the committed snapshot
//!    reports schedule cost rather than timer noise);
//! 5. **Sweep memory** — peak allocation of the sweep's largest point run
//!    into a `UsageLog` sink vs a `SummarySink` (counting global allocator)
//!    and the bytes each sink retains: the O(users × sessions × ops) log
//!    versus the O(1) streaming sink;
//! 6. **Pool scaling** — the work-stealing pool at 1/2/4 workers against
//!    the serial loop (best-of-[`TRIALS`]; 1 worker short-circuits to the
//!    identical serial code path, so regressions there are pure noise);
//! 7. **Single-run shard scaling** (schema 4) — one multi-user run split
//!    across 1/2/4 shards via `ShardedDesDriver`, against the unsharded
//!    single-instance baseline. One shard replays the exact simulation
//!    (its overhead column is the sharding machinery itself); more shards
//!    scale with cores on multi-core CI (a 1-core container shows ~1×);
//! 8. **Spill codec** (schema 5) — the same record stream written raw (v1)
//!    vs compressed (v2): bytes on disk, the committed size ratio, and
//!    write/read wall-clock (both decodes are asserted lossless against
//!    the source log);
//! 9. **Sharded spill memory** (schema 5) — peak resident allocation of a
//!    full-fidelity `--spill`-style run at 1/2/4 shards through the
//!    streamed k-way merge: the acceptance bar is a *flat* profile in K
//!    (no per-shard logs materialized), with the K = 1 output asserted
//!    record-identical to the unsharded spill;
//! 10. **Fault injection** (schema 6) — the same NFS run clean vs under a
//!     heavy `FaultSpec` (transient faults + latency spikes + retries):
//!     wall-clock overhead of the fault path, plus the retry/abort tallies
//!     and the goodput fraction the faulted run reports. The clean run is
//!     additionally asserted to carry zero fault outcomes, pinning the
//!     "default spec is fault-free" contract into the committed snapshot;
//! 11. **Drive memory** (schema 7) — peak resident allocation of an
//!     open-loop replay of a ≥ 1M-op workload, the old way (materialize
//!     the full log, then drive the `Vec`) vs the streaming way (a live
//!     DES producer feeding the pacer through a bounded channel). The
//!     acceptance bar: the streamed peak is O(queue), not O(run length),
//!     so the ratio must stay ≫ 1;
//! 12. **User-arena memory** (schema 8) — resident bytes/user and users/sec
//!     of the DES driver itself at 1M and 10M users on an idle-heavy
//!     population, against the committed pre-refactor (per-user struct)
//!     measurement. The acceptance bar: ≥ 4× fewer bytes/user at 1M;
//! 13. **Analyze passes** (schema 9) — `uswg analyze` over a ≥ 1M-op
//!     capture: the full sequential stream, an indexed ~5% window (bytes
//!     actually read counted through a `CountingReader` — the O(window)
//!     contract on disk I/O) and an indexed parallel full pass asserted
//!     to reproduce the sequential statistics.
//!
//! Usage: `cargo run --release -p uswg-bench --bin bench_baseline [out.json]`
//! (default output `BENCH_baseline.json` in the current directory). CI runs
//! this as a non-blocking job and uploads the JSON as an artifact, so the
//! perf trajectory of the repo is recorded per commit.

use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use uswg_bench::{hold_simulation, HOLD_BATCH};
use uswg_core::experiment::{user_sweep, ModelConfig, Parallelism};
use uswg_core::{
    read_spill, read_spill_path, CdfTable, ChannelSink, FillPattern, LogSink, MultiStageGamma,
    SchedulerBackend, SpillCodec, SpillSink, SummarySink, UsageLog, WorkloadSpec,
};

/// A [`System`]-backed global allocator that tracks live and peak bytes, so
/// the memory section below measures *actual* allocation, not estimates.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; the atomics only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak bytes allocated above the starting water line while `f` runs.
fn peak_alloc_during(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

/// Timed trials per wall-clock measurement; the minimum is reported.
const TRIALS: usize = 5;

/// Best-of-[`TRIALS`] wall-clock of `f`, in milliseconds.
fn best_ms(mut f: impl FnMut()) -> f64 {
    (0..TRIALS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[derive(Debug, Serialize)]
struct SamplingPoint {
    resolution: usize,
    guided_ns_per_draw: f64,
    binary_search_ns_per_draw: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct DesPoint {
    users: usize,
    sessions_per_user: u32,
    events: u64,
    events_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct SchedulerPoint {
    pending_events: usize,
    heap_ns_per_event: f64,
    calendar_ns_per_event: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct SweepPointTiming {
    points: usize,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
    workers: usize,
}

#[derive(Debug, Serialize)]
struct MemoryPoint {
    points: usize,
    users_per_point_max: usize,
    sessions_per_user: u32,
    /// Peak allocation above baseline of the largest point, `UsageLog` sink.
    fulllog_peak_bytes: usize,
    /// Peak allocation above baseline of the largest point, `SummarySink`.
    summary_peak_bytes: usize,
    /// Bytes the `UsageLog` sink retains for the largest point (the
    /// materialized op + session records).
    fulllog_retained_bytes_per_point: usize,
    /// Bytes a `SummarySink` retains per point (constant regardless of
    /// users × sessions × ops).
    summary_retained_bytes_per_point: usize,
}

#[derive(Debug, Serialize)]
struct PoolPoint {
    /// Worker count requested via `Parallelism::Threads`.
    workers_requested: usize,
    /// Workers actually scheduled (requests are capped at the host's core
    /// count — oversubscribing a CPU-bound sweep only adds switches).
    workers_effective: usize,
    sweep_ms: f64,
    speedup_vs_serial: f64,
}

#[derive(Debug, Serialize)]
struct ShardPoint {
    /// Shard count K requested via `RunConfig::shards`.
    shards: usize,
    /// Shards that actually held users (`min(K, users)`).
    active_shards: usize,
    /// Workers the driver scheduled (one per core, capped at active).
    workers: usize,
    run_ms: f64,
    speedup_vs_unsharded: f64,
}

#[derive(Debug, Serialize)]
struct ShardScaling {
    users: usize,
    sessions_per_user: u32,
    /// The exact single-instance baseline (summary mode, best-of-TRIALS).
    unsharded_ms: f64,
    points: Vec<ShardPoint>,
}

#[derive(Debug, Serialize)]
struct SpillCodecBench {
    /// Op records in the measured stream.
    ops: usize,
    /// Session records in the measured stream.
    sessions: usize,
    /// Bytes of the v1 (fixed-width raw) encoding.
    raw_bytes: usize,
    /// Bytes of the v2 (delta+varint/RLE, CRC-framed) encoding.
    compressed_bytes: usize,
    /// `compressed_bytes / raw_bytes` — the committed size ratio the
    /// acceptance criteria track (< 1 means the codec earns its keep).
    compressed_to_raw_ratio: f64,
    raw_write_ms: f64,
    compressed_write_ms: f64,
    raw_read_ms: f64,
    compressed_read_ms: f64,
}

#[derive(Debug, Serialize)]
struct ShardSpillPoint {
    /// Shard count K of the streamed full-log run.
    shards: usize,
    /// Peak bytes allocated above baseline over the whole run + merge.
    peak_bytes: usize,
}

#[derive(Debug, Serialize)]
struct ShardSpillMemory {
    users: usize,
    sessions_per_user: u32,
    /// Op records the run spills (identical at every K).
    ops: usize,
    /// Peak allocation of the *unsharded* streaming spill run, the
    /// reference water line.
    unsharded_peak_bytes: usize,
    /// Peaks at K = 1/2/4 — the acceptance bar is a flat profile: the
    /// streamed merge never materializes per-shard logs, so the peak is
    /// O(shards × frame), not O(run length).
    points: Vec<ShardSpillPoint>,
}

#[derive(Debug, Serialize)]
struct FaultBench {
    users: usize,
    sessions_per_user: u32,
    /// Per-attempt transient-fault probability of the faulted run, ppm.
    fault_ppm: u32,
    /// Per-op latency-spike probability of the faulted run, ppm.
    spike_ppm: u32,
    /// Attempt budget per op (first try + retries).
    max_attempts: u32,
    /// Wall-clock of the run with the default (disabled) `FaultSpec`.
    clean_ms: f64,
    /// Wall-clock of the same run under the fault spec above.
    faulted_ms: f64,
    /// `faulted_ms / clean_ms` — what the fault machinery costs when it
    /// actually fires (the disabled path is the byte-identity contract,
    /// so its overhead is pinned at zero by test, not measured here).
    overhead: f64,
    /// Retries the faulted run performed.
    retries: u64,
    /// Ops that exhausted their attempt budget.
    aborted_ops: u64,
    abort_rate: f64,
    /// Data bytes successfully moved (aborted ops excluded).
    goodput_bytes: u64,
    /// Data bytes the op stream asked for.
    data_bytes: u64,
}

#[derive(Debug, Serialize)]
struct DriveMemory {
    users: usize,
    sessions_per_user: u32,
    /// Op records in the driven stream (asserted ≥ 1M so the contrast
    /// below can never be measured against a toy run).
    ops: usize,
    /// Bound shared by the producer channel and the pacer queue — the
    /// streamed path's entire resident op budget.
    queue_cap: usize,
    /// Peak allocation of the pre-streaming path: run the DES to a full
    /// in-memory log, copy its ops out, drive the `Vec`. O(run length).
    materialized_peak_bytes: usize,
    /// Peak allocation of `drive_stream` fed by a concurrent DES
    /// producer over a bounded channel. O(queue), flat in run length.
    streamed_peak_bytes: usize,
    /// `materialized / streamed` — the schema-7 acceptance line: the
    /// streaming drive must hold its peak well below the materialized
    /// path's on the same workload.
    materialized_to_streamed_ratio: f64,
}

#[derive(Debug, Serialize)]
struct UserMemoryPoint {
    users: usize,
    /// Peak bytes allocated above the pre-run water line by the DES run
    /// itself: user arenas, scheduler queue and simulation turnover. The
    /// file system, catalog and compiled tables are built *outside* the
    /// measured window — they are O(spec), not O(users), and would only
    /// dilute the per-user figure.
    driver_peak_bytes: usize,
    /// `driver_peak_bytes / users` — the headline "memory diet" figure.
    bytes_per_user: f64,
    wall_ms: f64,
    /// Whole-population throughput: `users / wall_clock` of one run in
    /// which every user completes one login session.
    users_per_sec: f64,
    sessions: u64,
    ops: u64,
}

#[derive(Debug, Serialize)]
struct UserMemory {
    sessions_per_user: u32,
    /// bytes/user of the same 1M-user workload measured on the
    /// pre-refactor driver (PR 7: one `UserState` struct per user, with
    /// its `Process`, `Option<Session>` and retry slots inline), on this
    /// container — the fixed denominator of `reduction_vs_pre_1m`.
    pre_refactor_bytes_per_user_1m: f64,
    /// `pre_refactor_bytes_per_user_1m / bytes_per_user` at 1M users —
    /// the schema-8 acceptance line (must stay ≥ 4).
    reduction_vs_pre_1m: f64,
    points: Vec<UserMemoryPoint>,
}

#[derive(Debug, Serialize)]
struct AnalyzeBench {
    /// Op records in the capture (asserted ≥ 1M by construction).
    ops: usize,
    /// Session records interleaved into the capture.
    sessions: usize,
    /// Frames in the capture, per its index footer.
    frames: usize,
    /// Size of the sealed capture (record stream + footer).
    file_bytes: usize,
    /// Wall-clock of the full sequential streaming pass.
    sequential_ms: f64,
    /// Bytes the sequential pass read — essentially the whole file.
    sequential_bytes_read: u64,
    /// Fraction of the capture's time line the window below covers.
    window_fraction: f64,
    /// Wall-clock of the indexed windowed pass.
    windowed_ms: f64,
    /// Bytes the windowed pass read: the trailer probe, the footer and
    /// only the overlapping frames.
    windowed_bytes_read: u64,
    /// Frames the window selected (of `frames`).
    windowed_frames_decoded: usize,
    /// `windowed / sequential` bytes read — the schema-9 acceptance
    /// line: a ~5% window must stay well under a tenth of the file.
    windowed_to_sequential_byte_ratio: f64,
    /// Workers the parallel full pass requested from the stealpool.
    parallel_jobs: usize,
    /// Wall-clock of the indexed parallel full pass (asserted to match
    /// the sequential statistics before timing).
    parallel_ms: f64,
    /// `sequential_ms / parallel_ms` — scales with cores on multi-core
    /// CI; on a 1-core container the fan-out is pure overhead, so < 1×
    /// there is expected, not a regression.
    parallel_speedup: f64,
}

#[derive(Debug, Serialize)]
struct Baseline {
    schema: u32,
    sampling: Vec<SamplingPoint>,
    des: DesPoint,
    scheduler: Vec<SchedulerPoint>,
    sweep: SweepPointTiming,
    memory: MemoryPoint,
    pool: Vec<PoolPoint>,
    shard: ShardScaling,
    spill: SpillCodecBench,
    shard_spill: ShardSpillMemory,
    faults: FaultBench,
    drive_memory: DriveMemory,
    user_memory: UserMemory,
    analyze: AnalyzeBench,
}

/// Times `f` over enough iterations to fill ~200 ms; returns ns/iter.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // Warm up + calibrate.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 50 || iters >= 1 << 28 {
            return elapsed.as_secs_f64() * 1e9 / iters as f64;
        }
        iters = iters.saturating_mul(8);
    }
}

fn measure_sampling() -> Vec<SamplingPoint> {
    use rand::SeedableRng;
    let gamma = MultiStageGamma::new(vec![
        (0.7, 1.3, 12.3, 0.0),
        (0.2, 1.5, 12.4, 23.0),
        (0.1, 1.4, 12.3, 41.0),
    ])
    .expect("valid mixture");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    [256usize, 1_024, 4_096, 16_384]
        .into_iter()
        .map(|resolution| {
            let table = CdfTable::from_distribution(&gamma, resolution).expect("tabulates");
            let guided = time_ns(|| {
                black_box(table.sample(&mut rng));
            });
            let binary = time_ns(|| {
                black_box(table.sample_unguided(&mut rng));
            });
            SamplingPoint {
                resolution,
                guided_ns_per_draw: guided,
                binary_search_ns_per_draw: binary,
                speedup: binary / guided,
            }
        })
        .collect()
}

fn bench_spec(users: usize, sessions: u32) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().expect("paper defaults build");
    spec.run.n_users = users;
    spec.run.sessions_per_user = sessions;
    spec.fsc = spec
        .fsc
        .with_files_per_user(15)
        .expect("positive")
        .with_shared_files(30)
        .expect("positive")
        .with_fill(FillPattern::Sparse);
    spec
}

fn measure_des() -> DesPoint {
    let spec = bench_spec(4, 4);
    let model = ModelConfig::default_nfs();
    let run = || {
        spec.run_des(&model, UsageLog::new())
            .expect("runs")
            .1
            .events
    };
    let events = run();
    let ns_per_run = time_ns(|| {
        black_box(run());
    });
    DesPoint {
        users: 4,
        sessions_per_user: 4,
        events,
        events_per_sec: events as f64 / (ns_per_run / 1e9),
    }
}

/// Per-event cost of the shared [`uswg_bench::HoldModel`] workout (the same
/// one the `scheduler_hold` criterion group measures).
fn hold_ns_per_event(backend: SchedulerBackend, pending: usize) -> f64 {
    let mut sim = hold_simulation(backend, pending);
    time_ns(|| {
        black_box(sim.run_steps(HOLD_BATCH));
    }) / HOLD_BATCH as f64
}

fn measure_scheduler() -> Vec<SchedulerPoint> {
    [1_000usize, 10_000, 100_000, 1_000_000]
        .into_iter()
        .map(|pending| {
            let heap = hold_ns_per_event(SchedulerBackend::Heap, pending);
            let calendar = hold_ns_per_event(SchedulerBackend::Calendar, pending);
            SchedulerPoint {
                pending_events: pending,
                heap_ns_per_event: heap,
                calendar_ns_per_event: calendar,
                speedup: heap / calendar,
            }
        })
        .collect()
}

const SWEEP_USERS: [usize; 4] = [1, 2, 3, 4];

fn run_sweep(
    spec: &WorkloadSpec,
    parallelism: Parallelism,
) -> Vec<uswg_core::experiment::SweepPoint> {
    user_sweep(spec, &ModelConfig::default_nfs(), SWEEP_USERS, parallelism).expect("runs")
}

/// Measures sweep parallelism (Auto vs serial) and pool scaling at 1/2/4
/// workers in one pass, sharing the warm run and the serial baseline so
/// the timed serial sweep happens exactly once per snapshot.
fn measure_sweep_and_pool() -> (SweepPointTiming, Vec<PoolPoint>) {
    let spec = bench_spec(1, 6);

    // One untimed pass warms allocators and the page cache; the assertions
    // pin the determinism contract the parallel schedules must keep.
    let warm = run_sweep(&spec, Parallelism::Serial);
    let serial_ms = best_ms(|| {
        let got = run_sweep(&spec, Parallelism::Serial);
        assert_eq!(got, warm, "sweeps must be deterministic");
    });
    let parallel_ms = best_ms(|| {
        let got = run_sweep(&spec, Parallelism::Auto);
        assert_eq!(got, warm, "parallel sweep must reproduce serial");
    });
    let sweep = SweepPointTiming {
        points: SWEEP_USERS.len(),
        serial_ms,
        parallel_ms,
        speedup: serial_ms / parallel_ms,
        workers: Parallelism::Auto.effective_workers(SWEEP_USERS.len()),
    };
    let pool = [1usize, 2, 4]
        .into_iter()
        .map(|workers| {
            let sweep_ms = best_ms(|| {
                let got = run_sweep(&spec, Parallelism::Threads(workers));
                assert_eq!(got, warm, "stolen schedule must reproduce serial");
            });
            PoolPoint {
                workers_requested: workers,
                workers_effective: Parallelism::Threads(workers)
                    .effective_workers(SWEEP_USERS.len()),
                sweep_ms,
                speedup_vs_serial: serial_ms / sweep_ms,
            }
        })
        .collect();
    (sweep, pool)
}

fn measure_memory() -> MemoryPoint {
    let spec = bench_spec(1, 6);
    let model = ModelConfig::default_nfs();
    // A serial sweep peaks at its largest point, so that point is the
    // measurement: once collecting the log, once streaming a summary.
    let mut biggest = spec.clone();
    biggest.run.n_users = *SWEEP_USERS.iter().max().expect("non-empty");
    // Warm so one-time lazy allocations don't count as peaks.
    let (log, _) = biggest.run_des(&model, UsageLog::new()).expect("runs");
    let fulllog_peak_bytes = peak_alloc_during(|| {
        black_box(biggest.run_des(&model, UsageLog::new()).expect("runs"));
    });
    let summary_peak_bytes = peak_alloc_during(|| {
        black_box(biggest.run_des(&model, SummarySink::new()).expect("runs"));
    });
    let fulllog_retained = std::mem::size_of_val(log.ops()) + std::mem::size_of_val(log.sessions());
    MemoryPoint {
        points: SWEEP_USERS.len(),
        users_per_point_max: biggest.run.n_users,
        sessions_per_user: spec.run.sessions_per_user,
        fulllog_peak_bytes,
        summary_peak_bytes,
        fulllog_retained_bytes_per_point: fulllog_retained,
        summary_retained_bytes_per_point: std::mem::size_of::<SummarySink>(),
    }
}

/// Measures one multi-user run (the "one giant point" regime sweeps cannot
/// parallelize) sharded 1/2/4 ways against the unsharded exact path. The
/// K = 1 assertion pins the byte-identity contract while it measures the
/// sharding machinery's overhead; K > 1 sanity-checks only op-stream
/// tallies, since per-shard resource models change response times by
/// design.
fn measure_shards() -> ShardScaling {
    use std::num::NonZeroUsize;
    let spec = bench_spec(8, 3);
    let model = ModelConfig::default_nfs();
    let exact_run = || spec.run_des(&model, SummarySink::new()).expect("runs").0;
    let warm = exact_run();
    let unsharded_ms = best_ms(|| {
        assert_eq!(exact_run(), warm, "summary runs must be deterministic");
    });
    let points = [1usize, 2, 4]
        .into_iter()
        .map(|k| {
            let mut sharded = spec.clone();
            sharded.run.shards = Some(NonZeroUsize::new(k).expect("positive"));
            let plan = uswg_core::ShardPlan::new(spec.run.n_users, sharded.run.shards.unwrap());
            let run_ms = best_ms(|| {
                let (sink, _) = sharded.run_des(&model, SummarySink::new()).expect("runs");
                if k == 1 {
                    assert_eq!(sink, warm, "one shard must replay the exact path");
                } else {
                    // The paper workload has shared read-write files, so op
                    // streams may couple across users; sessions stay exact.
                    assert_eq!(sink.sessions, warm.sessions);
                    assert!(sink.ops > 0);
                }
            });
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            ShardPoint {
                shards: k,
                active_shards: plan.active_shards(),
                workers: cores.min(plan.active_shards()),
                run_ms,
                speedup_vs_unsharded: unsharded_ms / run_ms,
            }
        })
        .collect();
    ShardScaling {
        users: spec.run.n_users,
        sessions_per_user: spec.run.sessions_per_user,
        unsharded_ms,
        points,
    }
}

/// Replays `log` into a spill sink under `codec`, returning the file
/// bytes.
fn spill_encode(log: &UsageLog, codec: SpillCodec) -> Vec<u8> {
    let mut sink = SpillSink::with_codec(Vec::new(), codec).expect("in-memory sink");
    for op in log.ops() {
        sink.record_op(op);
    }
    for s in log.sessions() {
        sink.record_session(s);
    }
    sink.finish().expect("in-memory finish")
}

/// Measures the spill codecs over a real run's record stream: size on
/// disk, encode and decode wall-clock. Both decodes are asserted lossless
/// so the committed ratio can never come from a codec that drops data.
fn measure_spill_codec() -> SpillCodecBench {
    let spec = bench_spec(6, 6);
    let (log, _) = spec
        .run_des(&ModelConfig::default_nfs(), UsageLog::new())
        .expect("runs");
    let raw = spill_encode(&log, SpillCodec::Raw);
    let compressed = spill_encode(&log, SpillCodec::Compressed);
    let source_json = log.to_json().expect("serializes");
    for bytes in [&raw, &compressed] {
        let back = read_spill(bytes.as_slice()).expect("decodes");
        assert_eq!(
            back.to_json().expect("serializes"),
            source_json,
            "spill decode must be lossless"
        );
    }
    let raw_write_ms = best_ms(|| {
        black_box(spill_encode(&log, SpillCodec::Raw));
    });
    let compressed_write_ms = best_ms(|| {
        black_box(spill_encode(&log, SpillCodec::Compressed));
    });
    let raw_read_ms = best_ms(|| {
        black_box(read_spill(raw.as_slice()).expect("decodes"));
    });
    let compressed_read_ms = best_ms(|| {
        black_box(read_spill(compressed.as_slice()).expect("decodes"));
    });
    SpillCodecBench {
        ops: log.ops().len(),
        sessions: log.sessions().len(),
        raw_bytes: raw.len(),
        compressed_bytes: compressed.len(),
        compressed_to_raw_ratio: compressed.len() as f64 / raw.len() as f64,
        raw_write_ms,
        compressed_write_ms,
        raw_read_ms,
        compressed_read_ms,
    }
}

/// Measures resident memory of the full-fidelity spill path as the shard
/// count grows: the streamed k-way merge must keep the peak flat in K
/// (schema-5 acceptance), because no per-shard `UsageLog` is ever
/// materialized. K = 1 is additionally asserted record-identical to the
/// unsharded streaming run.
fn measure_shard_spill_memory() -> ShardSpillMemory {
    use std::num::NonZeroUsize;
    let spec = bench_spec(8, 3);
    let model = ModelConfig::default_nfs();
    let dir = std::env::temp_dir().join(format!("uswg-bench-spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // The unsharded reference, measured through the same file-backed sink
    // the sharded points use.
    let unsharded_path = dir.join("unsharded.spill");
    let exact_spill = || {
        let (sink, _) = spec
            .run_des(
                &model,
                SpillSink::create(&unsharded_path).expect("spill file"),
            )
            .expect("runs");
        sink.finish().expect("seals");
    };
    exact_spill(); // warm
    let unsharded_peak_bytes = peak_alloc_during(exact_spill);
    let reference = read_spill_path(&unsharded_path).expect("reads back");
    let points = [1usize, 2, 4]
        .into_iter()
        .map(|k| {
            let mut sharded = spec.clone();
            sharded.run.shards = Some(NonZeroUsize::new(k).expect("positive"));
            let path = dir.join(format!("k{k}.spill"));
            let run = || {
                let (sink, _) = sharded
                    .run_des(&model, SpillSink::create(&path).expect("spill file"))
                    .expect("runs");
                sink.finish().expect("seals");
            };
            run(); // warm
            let peak_bytes = peak_alloc_during(run);
            if k == 1 {
                assert_eq!(
                    read_spill_path(&path)
                        .expect("reads back")
                        .to_json()
                        .expect("serializes"),
                    reference.to_json().expect("serializes"),
                    "one streamed shard must replay the unsharded capture"
                );
            }
            ShardSpillPoint {
                shards: k,
                peak_bytes,
            }
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    ShardSpillMemory {
        users: spec.run.n_users,
        sessions_per_user: spec.run.sessions_per_user,
        ops: reference.ops().len(),
        unsharded_peak_bytes,
        points,
    }
}

/// Measures the fault-injection path on the NFS preset: the same spec run
/// clean (default `FaultSpec`, asserted to produce zero fault outcomes)
/// and under a heavy fault spec (asserted to produce nonzero retries), so
/// the snapshot records both what faults cost and that the disabled path
/// stays fault-free.
fn measure_faults() -> FaultBench {
    use uswg_core::{FaultSpec, RetryPolicy};
    let spec = bench_spec(6, 4);
    let model = ModelConfig::default_nfs();
    let fault_spec = FaultSpec {
        fault_ppm: 100_000,
        spike_ppm: 50_000,
        spike_micros: 2_000,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 200,
            max_backoff_micros: 3_200,
        },
    };
    let mut faulted = spec.clone();
    faulted.run = faulted.run.with_faults(fault_spec);

    let clean_warm = spec.run_des(&model, SummarySink::new()).expect("runs").0;
    assert_eq!(
        (clean_warm.retries, clean_warm.aborted_ops),
        (0, 0),
        "the default FaultSpec must produce zero fault outcomes"
    );
    let faulted_warm = faulted.run_des(&model, SummarySink::new()).expect("runs").0;
    assert!(
        faulted_warm.retries > 0,
        "a 10% per-attempt fault rate must retry"
    );

    let clean_ms = best_ms(|| {
        let (sink, _) = spec.run_des(&model, SummarySink::new()).expect("runs");
        assert_eq!(sink, clean_warm, "clean runs must be deterministic");
    });
    let faulted_ms = best_ms(|| {
        let (sink, _) = faulted.run_des(&model, SummarySink::new()).expect("runs");
        assert_eq!(sink, faulted_warm, "faulted runs must be deterministic");
    });
    FaultBench {
        users: spec.run.n_users,
        sessions_per_user: spec.run.sessions_per_user,
        fault_ppm: fault_spec.fault_ppm,
        spike_ppm: fault_spec.spike_ppm,
        max_attempts: fault_spec.retry.max_attempts,
        clean_ms,
        faulted_ms,
        overhead: faulted_ms / clean_ms,
        retries: faulted_warm.retries,
        aborted_ops: faulted_warm.aborted_ops,
        abort_rate: faulted_warm.abort_rate(),
        goodput_bytes: faulted_warm.goodput_bytes(),
        data_bytes: faulted_warm.data_bytes,
    }
}

/// Measures the open-loop drive's resident memory on a ≥ 1M-op workload,
/// both ways: the pre-streaming path (materialize the whole DES log, copy
/// the ops into a `Vec`, drive it) against `drive_stream` fed by a live
/// DES producer over a bounded channel. The counting allocator is global,
/// so the producer thread's allocations land in the streamed peak too —
/// what's measured is the whole pipeline, not just the pacer.
fn measure_drive_memory() -> DriveMemory {
    use std::sync::Arc;
    use uswg_drive::{
        drive_stream, ChannelSource, DriveConfig, LoopbackConfig, LoopbackVfs, SourceError,
        VecSource,
    };
    let spec = bench_spec(32, 52);
    let model = ModelConfig::default_nfs();
    let config = DriveConfig {
        speedup: 1e9,
        max_in_flight: 8,
        queue_cap: 1024,
        ..DriveConfig::default()
    };
    let loopback = || Arc::new(LoopbackVfs::new(LoopbackConfig::default()));
    let run_materialized = |spec: &WorkloadSpec| -> usize {
        let ops = spec
            .run_des(&model, UsageLog::new())
            .expect("runs")
            .0
            .ops()
            .to_vec();
        let count = ops.len();
        black_box(drive_stream(VecSource::new(ops), loopback(), &config).expect("drives"));
        count
    };
    let run_streamed = |spec: &WorkloadSpec| {
        let (sink, rx) = ChannelSink::bounded(config.queue_cap);
        let (producer, model) = (spec.clone(), model.clone());
        let handle = std::thread::spawn(move || producer.run_des(&model, sink).map(drop));
        let source = ChannelSource::new(rx).on_finish(Box::new(move || match handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(SourceError(format!("DES producer: {e}"))),
            Err(_) => Err(SourceError("DES producer thread panicked".into())),
        }));
        black_box(drive_stream(source, loopback(), &config).expect("drives"));
    };
    // Warm both paths at a small scale so lazy one-time allocations
    // (thread stacks, rng tables, the loopback VFS) don't count as peaks.
    let small = bench_spec(2, 2);
    run_materialized(&small);
    run_streamed(&small);

    let mut ops = 0;
    let materialized_peak_bytes = peak_alloc_during(|| {
        ops = run_materialized(&spec);
    });
    assert!(
        ops >= 1_000_000,
        "the drive-memory contrast must cover ≥ 1M ops, got {ops}"
    );
    let streamed_peak_bytes = peak_alloc_during(|| run_streamed(&spec));
    DriveMemory {
        users: spec.run.n_users,
        sessions_per_user: spec.run.sessions_per_user,
        ops,
        queue_cap: config.queue_cap,
        materialized_peak_bytes,
        streamed_peak_bytes,
        materialized_to_streamed_ratio: materialized_peak_bytes as f64
            / streamed_peak_bytes.max(1) as f64,
    }
}

/// bytes/user at 1M users measured on the pre-arena driver (PR 7's
/// `Vec<UserState>`: per-user `Process`, `Option<Session>`, retry slots and
/// behaviour machine inline), on this container, same workload and backend
/// as [`measure_user_memory`]'s points. Committed as a constant so the
/// schema-8 reduction line keeps comparing against the historical layout
/// after the old code path is gone.
const PRE_REFACTOR_BYTES_PER_USER_1M: f64 = 470.9;

/// Schema 8: resident bytes/user and users/sec of the DES driver itself at
/// 1M and 10M users. The population is the "idle-heavy" regime the arena
/// diet targets — every category is shared, preexisting and gated to 2% of
/// sessions, so the file system stays O(shared files) while the user
/// arenas carry the full population (this is also how a million-user spec
/// must be written; see `specs/million-user.json`).
fn measure_user_memory() -> UserMemory {
    use uswg_core::{DesDriver, Owner, PopulationSpec, ResourcePool, UsageClass};
    let mut spec = bench_spec(64, 1);
    let mut heavy = spec.population.types()[0].0.clone();
    heavy.categories.retain(|usage| {
        usage.category.preexisting()
            && usage.category.owner == Owner::Other
            && usage.category.usage != UsageClass::ReadWrite
    });
    for usage in &mut heavy.categories {
        usage.pct_users = 0.02;
    }
    spec.population = PopulationSpec::single(heavy).expect("population builds");
    spec.run.record_ops = false;
    // The calendar queue is the documented backend beyond ~100k users; the
    // pre-refactor constant above was measured under the same backend.
    spec.run.scheduler = Some(SchedulerBackend::Calendar);
    let model = ModelConfig::default_local();
    let run_point = |users: usize| -> UserMemoryPoint {
        // Environment built outside the measured window: O(spec) state.
        let (vfs, catalog) = spec.generate_fs().expect("fs builds");
        let population = spec.compile().expect("compiles");
        let mut pool = ResourcePool::new();
        let built = model.build(&mut pool);
        let mut config = spec.run;
        config.n_users = users;
        let mut out = None;
        let start = Instant::now();
        // One trial: at 10M users the run is seconds long, far above timer
        // noise, and the peak is deterministic for a fixed seed.
        let driver_peak_bytes = peak_alloc_during(|| {
            out = Some(
                DesDriver::new()
                    .run_with_sink(
                        vfs,
                        catalog,
                        &population,
                        built,
                        pool,
                        &config,
                        SummarySink::new(),
                    )
                    .expect("runs"),
            );
        });
        let wall = start.elapsed().as_secs_f64();
        let (sink, _) = out.expect("ran");
        UserMemoryPoint {
            users,
            driver_peak_bytes,
            bytes_per_user: driver_peak_bytes as f64 / users as f64,
            wall_ms: wall * 1e3,
            users_per_sec: users as f64 / wall,
            sessions: sink.sessions,
            ops: sink.ops,
        }
    };
    // Warm the allocator and lazy tables off a small population first.
    let _ = run_point(10_000);
    let points = vec![run_point(1_000_000), run_point(10_000_000)];
    let bytes_per_user_1m = points[0].bytes_per_user;
    UserMemory {
        sessions_per_user: spec.run.sessions_per_user,
        pre_refactor_bytes_per_user_1m: PRE_REFACTOR_BYTES_PER_USER_1M,
        reduction_vs_pre_1m: PRE_REFACTOR_BYTES_PER_USER_1M / bytes_per_user_1m,
        points,
    }
}

/// Builds a ≥ 1M-op capture straight through the spill sink — strictly
/// increasing completion times, mixed op kinds, fault outcomes and
/// interleaved sessions: the index-friendly shape a long DES run spills,
/// without paying for a 1M-op simulation inside the bench.
fn analyze_capture(ops: u64) -> Vec<u8> {
    use uswg_core::{FileCategory, OpKind, OpRecord, SessionRecord};
    let mut sink = SpillSink::new(Vec::new()).expect("in-memory sink");
    for i in 0..ops {
        sink.record_op(&OpRecord {
            at: i,
            user: (i % 1024) as usize,
            session: (i % 13) as u32,
            op: OpKind::ALL[(i % 8) as usize],
            ino: i % 4096,
            bytes: (i * 37) % 8192,
            file_size: 1 << 20,
            response: (i * 13) % 900 + 1,
            category: FileCategory::REG_USER_RDONLY,
            retries: u32::from(i.is_multiple_of(97)),
            aborted: i.is_multiple_of(1009),
        });
        if i.is_multiple_of(1000) {
            sink.record_session(&SessionRecord {
                user: (i % 1024) as usize,
                user_type: (i % 3) as usize,
                session: (i / 1000) as u32,
                start: i.saturating_sub(1000),
                end: i,
                ops: 1000,
                files_referenced: 5,
                file_bytes_referenced: 1 << 22,
                bytes_accessed: i,
                bytes_read: i / 2,
                bytes_written: i.div_ceil(2),
                total_response: i * 3,
            });
        }
    }
    sink.finish().expect("seals")
}

/// Schema 9: the three `uswg analyze` regimes over the same ≥ 1M-op
/// capture — full sequential stream, indexed ~5% window (bytes read
/// counted through [`CountingReader`]) and indexed parallel full pass.
/// The parallel statistics are asserted equal to the sequential pass
/// before anything is timed, so the committed speedup can never come
/// from a merge that drops records.
fn measure_analyze() -> AnalyzeBench {
    use std::io::Cursor;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use uswg_core::{
        metrics::StreamLogStats, scan::scan_indexed, CountingReader, FrameIndex, ScanOptions,
        SpillReader, SpillRecord,
    };

    const OPS: u64 = 1 << 20;
    let bytes = analyze_capture(OPS);
    let index = FrameIndex::load(&mut Cursor::new(&bytes))
        .expect("trailer probe succeeds")
        .expect("sealed captures carry an index footer");
    let sequential = |counter: &Arc<AtomicU64>| -> StreamLogStats {
        let mut stats = StreamLogStats::new();
        let reader = SpillReader::new(CountingReader::new(
            Cursor::new(&bytes),
            Arc::clone(counter),
        ))
        .expect("opens");
        for record in reader {
            match record.expect("decodes") {
                SpillRecord::Op(op) => stats.record_op(&op),
                SpillRecord::Session(s) => stats.record_session(&s),
            }
        }
        stats
    };
    let seq_counter = Arc::new(AtomicU64::new(0));
    let full = sequential(&seq_counter);
    let sequential_bytes_read = seq_counter.load(Ordering::Relaxed);
    let sequential_ms = best_ms(|| {
        black_box(sequential(&Arc::new(AtomicU64::new(0))));
    });

    // A ~5% window in the middle of the [0, OPS) µs time line.
    let (since, until) = (OPS * 45 / 100, OPS * 50 / 100);
    let win_opts = ScanOptions {
        since: Some(since),
        until: Some(until),
        ..ScanOptions::default()
    };
    let windowed_scan = |counter: &Arc<AtomicU64>| {
        scan_indexed(&index, &win_opts, || {
            SpillReader::new(CountingReader::new(
                Cursor::new(&bytes),
                Arc::clone(counter),
            ))
        })
        .expect("windowed scan")
    };
    let win_counter = Arc::new(AtomicU64::new(0));
    let windowed = windowed_scan(&win_counter);
    let windowed_bytes_read = win_counter.load(Ordering::Relaxed);
    assert!(
        windowed_bytes_read * 10 < sequential_bytes_read,
        "a ~5% window must read well under a tenth of the file \
         ({windowed_bytes_read} of {sequential_bytes_read} bytes)"
    );
    let windowed_ms = best_ms(|| {
        black_box(windowed_scan(&Arc::new(AtomicU64::new(0))));
    });

    let parallel_jobs = 4;
    let par_opts = ScanOptions {
        jobs: parallel_jobs,
        ..ScanOptions::default()
    };
    let parallel_scan =
        || scan_indexed(&index, &par_opts, || SpillReader::new(Cursor::new(&bytes)));
    let parallel = parallel_scan().expect("parallel scan");
    assert_eq!(parallel.stats.ops, full.ops);
    assert_eq!(parallel.stats.sessions, full.sessions);
    assert_eq!(parallel.stats.data_bytes, full.data_bytes);
    assert!(
        (parallel.stats.response_per_byte() - full.response_per_byte()).abs() < 1e-9,
        "parallel analyze must reproduce the sequential statistics"
    );
    let parallel_ms = best_ms(|| {
        black_box(parallel_scan().expect("parallel scan"));
    });

    AnalyzeBench {
        ops: OPS as usize,
        sessions: full.sessions as usize,
        frames: index.frames(),
        file_bytes: bytes.len(),
        sequential_ms,
        sequential_bytes_read,
        window_fraction: (until - since) as f64 / OPS as f64,
        windowed_ms,
        windowed_bytes_read,
        windowed_frames_decoded: windowed.frames_decoded,
        windowed_to_sequential_byte_ratio: windowed_bytes_read as f64
            / sequential_bytes_read as f64,
        parallel_jobs,
        parallel_ms,
        parallel_speedup: sequential_ms / parallel_ms,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());

    eprintln!("measuring sampling paths...");
    let sampling = measure_sampling();
    eprintln!("measuring DES throughput...");
    let des = measure_des();
    eprintln!("measuring scheduler backends...");
    let scheduler = measure_scheduler();
    eprintln!("measuring sweep parallelism + pool scaling...");
    let (sweep, pool) = measure_sweep_and_pool();
    eprintln!("measuring sweep memory...");
    let memory = measure_memory();
    eprintln!("measuring single-run shard scaling...");
    let shard = measure_shards();
    eprintln!("measuring spill codecs...");
    let spill = measure_spill_codec();
    eprintln!("measuring sharded spill memory...");
    let shard_spill = measure_shard_spill_memory();
    eprintln!("measuring fault-injection overhead...");
    let faults = measure_faults();
    eprintln!("measuring drive memory (streamed vs materialized)...");
    let drive_memory = measure_drive_memory();
    eprintln!("measuring user-arena memory (1M/10M users)...");
    let user_memory = measure_user_memory();
    eprintln!("measuring analyze passes (sequential vs windowed vs parallel)...");
    let analyze = measure_analyze();

    let baseline = Baseline {
        schema: 9,
        sampling,
        des,
        scheduler,
        sweep,
        memory,
        pool,
        shard,
        spill,
        shard_spill,
        faults,
        drive_memory,
        user_memory,
        analyze,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("serializes");
    std::fs::write(&out_path, &json).expect("snapshot written");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
