//! Open-loop live driver: replay a generated usage log against a real
//! target in scaled wall-clock time.
//!
//! The simulator half of the workspace *predicts* response times from
//! queueing models; this crate *measures* them, by offering the same
//! operation stream to a live [`Target`] (the paper's "drive the real
//! system with the synthetic workload" step). The driver is **open-loop**:
//! arrivals follow the log's timestamps (divided by a speedup factor) and
//! never wait for completions, so an overloaded target sees the offered
//! load a closed loop would throttle away.
//!
//! Overload is therefore the design center, not an edge case:
//!
//! * a **bounded queue** between the pacer and the workers sheds the
//!   *oldest* waiting operation when full (the one most likely to be past
//!   its deadline anyway) and counts every shed — memory never grows with
//!   the backlog;
//! * at most `max_in_flight` operations execute concurrently (the worker
//!   pool size *is* the cap);
//! * every operation carries a **deadline** from its scheduled arrival;
//!   an operation that would start or retry past its deadline is dropped
//!   as expired rather than adding load the client has given up on;
//! * transient target errors retry under the same deterministic
//!   [`RetryPolicy`] (exponential backoff, decorrelated jitter) the
//!   simulator's fault injection uses, and exhaustion aborts the op;
//! * latencies fold into a fixed-size log-bucketed [`LatencyHistogram`]
//!   (~3% relative error), so the percentile report is O(1) memory too.
//!
//! Every offered operation is accounted for exactly once:
//! `offered = completed + shed + expired + aborted`.
//!
//! The pacer pulls from an [`OpSource`] — a fallible stream of timestamped
//! ops — so replay length is decoupled from resident memory: a live DES
//! run feeds it through a bounded channel ([`ChannelSource`]), a spill
//! capture streams one frame at a time ([`SpillSource`]), and an owned
//! `Vec` of ops replays through [`VecSource`] — the materialized reference
//! the streaming sources are tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod histogram;
mod loopback;
mod source;

pub use histogram::LatencyHistogram;
pub use loopback::{LoopbackConfig, LoopbackVfs};
pub use source::{ChannelSource, FinishFn, OpSource, SourceError, SpillSource, VecSource};

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use uswg_usim::{OpRecord, RetryPolicy};

/// A transient failure reported by a [`Target`]. Every target error is
/// treated as retryable; the [`RetryPolicy`] bounds how often.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetError(pub String);

impl std::fmt::Display for TargetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TargetError {}

/// Something a generated workload can be replayed against.
///
/// `apply` executes one operation and blocks for however long the target
/// takes — service time is the target's business, pacing is the driver's.
/// Implementations must be callable from several worker threads at once
/// (`&self`): internal locking decides how much real concurrency the
/// target admits.
pub trait Target: Send + Sync {
    /// Executes one operation against the live system.
    ///
    /// # Errors
    ///
    /// Returns [`TargetError`] for a transient failure; the driver retries
    /// under its [`RetryPolicy`].
    fn apply(&self, op: &OpRecord) -> Result<(), TargetError>;

    /// A short name for reports.
    fn name(&self) -> &'static str {
        "target"
    }
}

/// Errors from the drive layer itself (bad configuration, a failed op source,
/// a refused thread; target errors are retried/aborted per-op, never surfaced here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriveError {
    /// A configuration field is out of range.
    BadConfig(&'static str),
    /// The op source failed mid-run (truncated spill, dead DES producer).
    /// Every op offered before the failure was still drained — completed,
    /// shed, or expired — and the carried report accounts for each one.
    Source {
        /// What the source reported.
        message: String,
        /// The partial report over the ops actually offered.
        report: Box<DriveReport>,
    },
    /// The OS refused the worker thread after `started` of the `wanted`
    /// (`max_in_flight`); nothing was offered and those were joined.
    Spawn {
        /// Workers running when the refusal came.
        started: usize,
        /// Workers asked for.
        wanted: usize,
        /// The OS error, rendered.
        error: String,
    },
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::BadConfig(msg) => write!(f, "bad drive config: {msg}"),
            DriveError::Source { message, report } => write!(
                f,
                "op source failed after {} ops: {message}",
                report.offered
            ),
            DriveError::Spawn {
                started,
                wanted,
                error,
            } => write!(
                f,
                "drive: started {started} of {wanted} workers, then the OS refused a thread: {error}"
            ),
        }
    }
}

impl std::error::Error for DriveError {}

/// How to pace, bound and retry an open-loop replay.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveConfig {
    /// Wall-time compression: an op at simulated time `t` µs is offered at
    /// wall time `t / speedup` µs. 1.0 replays in real time.
    pub speedup: f64,
    /// Maximum concurrently executing operations (= worker pool size).
    pub max_in_flight: usize,
    /// Bounded pacer→worker queue; when full the **oldest** waiting op is
    /// shed (counted in [`DriveReport::shed`]). Memory never exceeds this.
    pub queue_cap: usize,
    /// Per-op deadline in wall µs from the scheduled arrival; an op that
    /// would start or retry past it is counted expired. 0 = no deadline.
    pub deadline_micros: u64,
    /// Backoff schedule for transient target errors (same policy type the
    /// simulator's fault injection uses).
    pub retry: RetryPolicy,
    /// Seeds the per-worker jitter streams.
    pub seed: u64,
}

impl Default for DriveConfig {
    fn default() -> Self {
        Self {
            speedup: 1.0,
            max_in_flight: 4,
            queue_cap: 1024,
            deadline_micros: 0,
            retry: RetryPolicy::default(),
            seed: 0x5EED,
        }
    }
}

impl DriveConfig {
    fn validate(&self) -> Result<(), DriveError> {
        if !(self.speedup.is_finite() && self.speedup > 0.0) {
            return Err(DriveError::BadConfig("speedup must be finite and > 0"));
        }
        if self.max_in_flight == 0 {
            return Err(DriveError::BadConfig("max_in_flight must be at least 1"));
        }
        if self.queue_cap == 0 {
            return Err(DriveError::BadConfig("queue_cap must be at least 1"));
        }
        if self.retry.max_attempts == 0 {
            return Err(DriveError::BadConfig(
                "retry.max_attempts must be at least 1",
            ));
        }
        Ok(())
    }
}

/// What happened to an offered operation stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriveReport {
    /// Target name the stream was offered to.
    pub target: &'static str,
    /// Operations offered (every op the source yielded).
    pub offered: u64,
    /// Operations that completed successfully.
    pub completed: u64,
    /// Operations shed from the full queue (oldest-first).
    pub shed: u64,
    /// Operations dropped because their deadline passed before they could
    /// start (or retry).
    pub expired: u64,
    /// Operations that exhausted their retry budget.
    pub aborted: u64,
    /// Transiently failed attempts that were retried.
    pub retries: u64,
    /// Highest observed concurrent executions (≤ `max_in_flight`).
    pub peak_in_flight: usize,
    /// The configured in-flight cap, for the report.
    pub max_in_flight: usize,
    /// Wall-clock duration of the replay in µs.
    pub wall_micros: u64,
    /// Queue-wait + service latency of **completed** ops, µs.
    pub latency: LatencyHistogram,
}

impl DriveReport {
    /// Completed operations per wall second (goodput).
    pub fn goodput_ops_per_sec(&self) -> f64 {
        if self.wall_micros == 0 {
            return 0.0;
        }
        self.completed as f64 * 1e6 / self.wall_micros as f64
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut text = format!(
            "drive report (target {}): offered {} | completed {} | shed {} | \
             expired {} | aborted {}\n",
            self.target, self.offered, self.completed, self.shed, self.expired, self.aborted
        );
        let _ = writeln!(
            text,
            "retries {} | peak in-flight {}/{} | wall {:.3} s | goodput {:.1} ops/s",
            self.retries,
            self.peak_in_flight,
            self.max_in_flight,
            self.wall_micros as f64 / 1e6,
            self.goodput_ops_per_sec(),
        );
        let _ = writeln!(
            text,
            "latency µs (queue+service, completed ops): p50 {} | p90 {} | p99 {} | max {}",
            self.latency.quantile(0.50),
            self.latency.quantile(0.90),
            self.latency.quantile(0.99),
            self.latency.max(),
        );
        text
    }
}

/// One queued operation: the record plus its scheduled arrival instant.
struct Job {
    scheduled: Instant,
    op: OpRecord,
}

struct QueueState {
    jobs: VecDeque<Job>,
    done: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    ready: Condvar,
    shed: AtomicU64,
    in_flight: AtomicUsize,
    peak: AtomicUsize,
}

/// Per-worker tallies, merged after join.
#[derive(Default)]
struct WorkerStats {
    completed: u64,
    expired: u64,
    aborted: u64,
    retries: u64,
    latency: LatencyHistogram,
}

/// Fractional bits used to hold the speedup divisor in fixed point.
const SPEEDUP_FRAC_BITS: u32 = 32;

/// `at / speedup` in wall µs, computed in 128-bit fixed point.
///
/// The obvious `(at as f64 / speedup) as u64` loses integer precision
/// above 2^53 µs (an `f64` mantissa is 53 bits) and its cast saturates
/// silently; here the division is exact for any `at` when the 32.32
/// divisor represents the speedup exactly (all integral speedups up to
/// 2^21 do), and the result saturates at `u64::MAX` explicitly.
fn scaled_arrival_micros(at: u64, speedup: f64) -> u64 {
    // validate() guarantees speedup is finite and > 0; clamp the rounded
    // divisor to one ulp so a denormal speedup never divides by zero.
    let divisor = (speedup * (1u64 << SPEEDUP_FRAC_BITS) as f64).round();
    let divisor = if divisor >= u128::MAX as f64 {
        u128::MAX
    } else {
        (divisor as u128).max(1)
    };
    let scaled = ((at as u128) << SPEEDUP_FRAC_BITS) / divisor;
    u64::try_from(scaled).unwrap_or(u64::MAX)
}

/// Replays a streaming [`OpSource`] against `target` under `config`.
///
/// The pacer pulls one op at a time, so resident memory is bounded by the
/// queue (plus whatever the source buffers), never by the stream length.
/// The wall clock anchors at the *first* op, so a slow-starting producer
/// (a DES warming up its file system) does not count as lateness; an op
/// whose scaled arrival has already passed is offered immediately.
///
/// # Errors
///
/// Returns [`DriveError::BadConfig`] for out-of-range configuration and
/// [`DriveError::Spawn`] when the OS grants fewer threads than
/// `max_in_flight`. When the source fails mid-run the already-queued ops
/// still drain and the partial report comes back inside
/// [`DriveError::Source`], with the conservation identity intact over the
/// ops actually offered.
pub fn drive_stream<S: OpSource>(
    mut source: S,
    target: Arc<dyn Target>,
    config: &DriveConfig,
) -> Result<DriveReport, DriveError> {
    config.validate()?;
    let shared = Arc::new(Shared {
        queue: Mutex::new(QueueState {
            jobs: VecDeque::with_capacity(config.queue_cap.min(4096)),
            done: false,
        }),
        ready: Condvar::new(),
        shed: AtomicU64::new(0),
        in_flight: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    });

    let mut workers = Vec::new();
    for i in 0..config.max_in_flight {
        let (shared_w, target) = (Arc::clone(&shared), Arc::clone(&target));
        let retry = config.retry;
        let deadline = config.deadline_micros;
        let mut rng =
            StdRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let spawned = std::thread::Builder::new()
            .spawn(move || worker(&shared_w, &*target, retry, deadline, &mut rng));
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(e) => {
                // Nothing has been offered: release the workers that did
                // start and fail typed instead of running under-provisioned.
                shared.queue.lock().expect("queue poisoned").done = true;
                shared.ready.notify_all();
                for handle in workers {
                    handle.join().expect("drive worker panicked");
                }
                return Err(DriveError::Spawn {
                    started: i,
                    wanted: config.max_in_flight,
                    error: e.to_string(),
                });
            }
        }
    }

    // The pacer: offer each op at its scaled arrival time. A full queue
    // sheds its oldest entry — the pacer itself never blocks on workers,
    // which is what makes the loop open.
    let mut start = Instant::now();
    let mut offered = 0u64;
    let mut source_error: Option<SourceError> = None;
    loop {
        let (at, op) = match source.next_op() {
            Ok(Some(item)) => item,
            Ok(None) => break,
            Err(err) => {
                source_error = Some(err);
                break;
            }
        };
        if offered == 0 {
            start = Instant::now();
        }
        offered += 1;
        let scheduled = start + Duration::from_micros(scaled_arrival_micros(at, config.speedup));
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let mut q = shared.queue.lock().expect("queue poisoned");
        if q.jobs.len() >= config.queue_cap {
            q.jobs.pop_front();
            shared.shed.fetch_add(1, Ordering::Relaxed);
        }
        q.jobs.push_back(Job { scheduled, op });
        drop(q);
        shared.ready.notify_one();
    }
    // Mark the stream done and drain: on a source error this is the early
    // termination path, and the already-queued ops are still completed,
    // shed, or expired — never silently dropped.
    {
        let mut q = shared.queue.lock().expect("queue poisoned");
        q.done = true;
    }
    shared.ready.notify_all();

    let mut totals = WorkerStats::default();
    for handle in workers {
        let stats = handle.join().expect("drive worker panicked");
        totals.completed += stats.completed;
        totals.expired += stats.expired;
        totals.aborted += stats.aborted;
        totals.retries += stats.retries;
        totals.latency.merge(&stats.latency);
    }
    let wall_micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    let report = DriveReport {
        target: target.name(),
        offered,
        completed: totals.completed,
        shed: shared.shed.load(Ordering::Relaxed),
        expired: totals.expired,
        aborted: totals.aborted,
        retries: totals.retries,
        peak_in_flight: shared.peak.load(Ordering::Relaxed),
        max_in_flight: config.max_in_flight,
        wall_micros,
        latency: totals.latency,
    };
    debug_assert_eq!(
        report.offered,
        report.completed + report.shed + report.expired + report.aborted,
        "every offered op is accounted for exactly once"
    );
    match source_error {
        None => Ok(report),
        Some(err) => Err(DriveError::Source {
            message: err.0,
            report: Box::new(report),
        }),
    }
}

fn worker(
    shared: &Shared,
    target: &dyn Target,
    retry: RetryPolicy,
    deadline_micros: u64,
    rng: &mut StdRng,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.done {
                    return stats;
                }
                q = shared.ready.wait(q).expect("queue poisoned");
            }
        };
        let depth = shared.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        shared.peak.fetch_max(depth, Ordering::Relaxed);
        run_job(&job, target, retry, deadline_micros, rng, &mut stats);
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Executes one job: deadline check, attempt, backoff-retry loop.
fn run_job(
    job: &Job,
    target: &dyn Target,
    retry: RetryPolicy,
    deadline_micros: u64,
    rng: &mut StdRng,
    stats: &mut WorkerStats,
) {
    let past_deadline = |at: Instant| {
        deadline_micros > 0 && at >= job.scheduled + Duration::from_micros(deadline_micros)
    };
    if past_deadline(Instant::now()) {
        stats.expired += 1;
        return;
    }
    let mut attempts = 1u32;
    let mut prev_backoff = 0u64;
    loop {
        if target.apply(&job.op).is_ok() {
            stats.completed += 1;
            let waited = Instant::now().saturating_duration_since(job.scheduled);
            stats
                .latency
                .record(waited.as_micros().min(u128::from(u64::MAX)) as u64);
            return;
        }
        if attempts >= retry.max_attempts {
            stats.aborted += 1;
            return;
        }
        let backoff = retry.backoff(prev_backoff, rng);
        // A retry that would land past the deadline is abandoned now: the
        // client has given up, so adding the load anyway only deepens the
        // overload.
        if past_deadline(Instant::now() + Duration::from_micros(backoff)) {
            stats.expired += 1;
            return;
        }
        std::thread::sleep(Duration::from_micros(backoff));
        prev_backoff = backoff;
        attempts += 1;
        stats.retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use uswg_fsc::FileCategory;
    use uswg_netfs::OpKind;

    fn op(at: u64, i: u64) -> OpRecord {
        OpRecord {
            at,
            user: (i % 3) as usize,
            session: 0,
            op: OpKind::ALL[(i % 8) as usize],
            ino: i % 5,
            bytes: 128,
            file_size: 4096,
            response: 0,
            category: FileCategory::REG_USER_RDONLY,
            retries: 0,
            aborted: false,
        }
    }

    /// A target that fails the first `fail_first` calls, then succeeds.
    struct Flaky {
        fail_first: u32,
        calls: AtomicU32,
    }

    impl Target for Flaky {
        fn apply(&self, _op: &OpRecord) -> Result<(), TargetError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) < self.fail_first {
                Err(TargetError("transient".into()))
            } else {
                Ok(())
            }
        }
        fn name(&self) -> &'static str {
            "flaky"
        }
    }

    /// Replays `ops` against a target failing its first `fail_first` calls.
    fn drive_flaky(
        ops: Vec<OpRecord>,
        fail_first: u32,
        config: &DriveConfig,
    ) -> Result<DriveReport, DriveError> {
        let calls = AtomicU32::new(0);
        drive_stream(
            VecSource::new(ops),
            Arc::new(Flaky { fail_first, calls }),
            config,
        )
    }

    #[test]
    fn underloaded_run_completes_everything() {
        let ops: Vec<_> = (0..40).map(|i| op(i * 10, i)).collect();
        let config = DriveConfig {
            speedup: 1000.0,
            max_in_flight: 2,
            queue_cap: 64,
            ..DriveConfig::default()
        };
        let report = drive_flaky(ops, 0, &config).unwrap();
        assert_eq!(report.offered, 40);
        assert_eq!(report.completed, 40);
        assert_eq!(report.shed + report.expired + report.aborted, 0);
        assert!(report.peak_in_flight <= 2);
        assert_eq!(report.latency.count(), 40);
    }

    #[test]
    fn transient_errors_retry_and_then_complete() {
        let ops: Vec<_> = (0..10).map(|i| op(0, i)).collect();
        let config = DriveConfig {
            speedup: 1e6,
            max_in_flight: 1,
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff_micros: 10,
                max_backoff_micros: 50,
            },
            ..DriveConfig::default()
        };
        let report = drive_flaky(ops, 3, &config).unwrap();
        assert_eq!(report.completed, 10);
        assert_eq!(report.retries, 3);
        assert_eq!(report.aborted, 0);
    }

    #[test]
    fn permanent_errors_exhaust_the_budget_and_abort() {
        let ops: Vec<_> = (0..5).map(|i| op(0, i)).collect();
        let config = DriveConfig {
            speedup: 1e6,
            max_in_flight: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_micros: 5,
                max_backoff_micros: 20,
            },
            ..DriveConfig::default()
        };
        let report = drive_flaky(ops, u32::MAX, &config).unwrap();
        assert_eq!(report.aborted, 5);
        assert_eq!(report.completed, 0);
        // 2 retried attempts per op before the budget runs out.
        assert_eq!(report.retries, 10);
    }

    #[test]
    fn bad_configs_are_rejected() {
        let base = DriveConfig::default();
        for config in [
            DriveConfig {
                speedup: 0.0,
                ..base.clone()
            },
            DriveConfig {
                speedup: f64::NAN,
                ..base.clone()
            },
            DriveConfig {
                max_in_flight: 0,
                ..base.clone()
            },
            DriveConfig {
                queue_cap: 0,
                ..base.clone()
            },
            DriveConfig {
                retry: RetryPolicy {
                    max_attempts: 0,
                    ..RetryPolicy::default()
                },
                ..base.clone()
            },
        ] {
            assert!(drive_flaky(Vec::new(), 0, &config).is_err());
        }
    }

    #[test]
    fn empty_stream_reports_cleanly() {
        let report = drive_flaky(Vec::new(), 0, &DriveConfig::default()).unwrap();
        assert_eq!(report.offered, 0);
        let text = report.render();
        assert!(text.contains("offered 0"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn scaled_arrivals_keep_integer_precision() {
        // A far-future arrival the old f64 path rounds away: (1<<60) + 12345
        // has 61 significant bits, so `as f64` collapses it to a multiple
        // of 16 and the replay schedule silently drifts.
        let far = (1u64 << 60) + 12_345;
        assert_eq!(scaled_arrival_micros(far, 1.0), far);
        assert_eq!(scaled_arrival_micros(u64::MAX, 1.0), u64::MAX);
        // Integral speedups divide exactly, at any magnitude.
        assert_eq!(scaled_arrival_micros(1_000_000, 4.0), 250_000);
        assert_eq!(scaled_arrival_micros(far, 2.0), far / 2);
        // Sub-1 speedups stretch time; the result clamps instead of wrapping.
        assert_eq!(scaled_arrival_micros(1_000, 0.5), 2_000);
        assert_eq!(scaled_arrival_micros(u64::MAX, 0.5), u64::MAX);
        // Extreme compression: u64::MAX µs at 1e18x is 18 µs of wall time.
        assert_eq!(scaled_arrival_micros(u64::MAX, 1e18), 18);
        // Degenerate divisors stay safe at both ends.
        assert_eq!(scaled_arrival_micros(u64::MAX, f64::MAX), 0);
        assert_eq!(scaled_arrival_micros(u64::MAX, f64::MIN_POSITIVE), u64::MAX);
        assert_eq!(scaled_arrival_micros(0, 1.0), 0);
    }

    #[test]
    fn far_future_arrivals_drive_cleanly_at_high_speedup() {
        // Timestamps past 2^53 µs (where f64 pacing lost precision) still
        // replay: at 1e15x the whole stream lands within ~18 ms of wall time.
        let ops: Vec<_> = (0..4)
            .map(|i| op((1u64 << 60) + i * 1_000_000_000, i))
            .collect();
        let config = DriveConfig {
            speedup: 1e15,
            max_in_flight: 2,
            ..DriveConfig::default()
        };
        let report = drive_flaky(ops, 0, &config).unwrap();
        assert_eq!(report.completed, 4);
    }

    /// A source that yields `good` ops and then fails, like a spill
    /// capture cut off mid-frame.
    struct FailingSource {
        good: u64,
        yielded: u64,
    }

    impl OpSource for FailingSource {
        fn next_op(&mut self) -> Result<Option<(u64, OpRecord)>, SourceError> {
            if self.yielded < self.good {
                self.yielded += 1;
                Ok(Some((0, op(0, self.yielded))))
            } else {
                Err(SourceError("stream cut".into()))
            }
        }
    }

    #[test]
    fn source_error_drains_queued_ops_and_accounts_for_them() {
        let config = DriveConfig {
            speedup: 1e6,
            max_in_flight: 2,
            ..DriveConfig::default()
        };
        let err = drive_stream(
            FailingSource {
                good: 10,
                yielded: 0,
            },
            Arc::new(Flaky {
                fail_first: 0,
                calls: AtomicU32::new(0),
            }),
            &config,
        )
        .unwrap_err();
        match err {
            DriveError::Source { message, report } => {
                assert_eq!(message, "stream cut");
                assert_eq!(report.offered, 10);
                // The conservation identity holds over the ops actually
                // offered before the failure.
                assert_eq!(
                    report.offered,
                    report.completed + report.shed + report.expired + report.aborted
                );
                assert_eq!(report.completed, 10);
                let text = format!("{}", DriveError::Source { message, report });
                assert!(text.contains("after 10 ops"), "{text}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn source_error_before_any_op_carries_an_empty_report() {
        let err = drive_stream(
            FailingSource {
                good: 0,
                yielded: 0,
            },
            Arc::new(Flaky {
                fail_first: 0,
                calls: AtomicU32::new(0),
            }),
            &DriveConfig::default(),
        )
        .unwrap_err();
        match err {
            DriveError::Source { report, .. } => assert_eq!(report.offered, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn vec_source_yields_sorted_timestamps() {
        let mut source = VecSource::new(vec![op(30, 0), op(10, 1), op(20, 2)]);
        let mut ats = Vec::new();
        while let Some((at, _)) = source.next_op().unwrap() {
            ats.push(at);
        }
        assert_eq!(ats, vec![10, 20, 30]);
        assert!(source.next_op().unwrap().is_none());
    }

    #[test]
    fn channel_source_ends_with_finish_hook() {
        let (tx, rx) = std::sync::mpsc::sync_channel(2);
        let mut source =
            ChannelSource::new(rx).on_finish(Box::new(|| Err(SourceError("producer died".into()))));
        tx.send(op(5, 0)).unwrap();
        drop(tx);
        assert_eq!(source.next_op().unwrap().unwrap().0, 5);
        assert_eq!(
            source.next_op().unwrap_err(),
            SourceError("producer died".into())
        );
        // The hook fires once; afterwards the stream is a clean end.
        assert!(source.next_op().unwrap().is_none());
    }
}
