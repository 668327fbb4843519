//! The overload smoke: offered load an order of magnitude beyond the
//! target's capacity must leave the driver standing — bounded memory
//! (the queue cap *is* the bound), a bounded tail after the last arrival,
//! a nonzero shed count, an in-flight peak at or under the cap, and a
//! percentile report at the end. This is the robustness acceptance test
//! of the open-loop design: a closed loop would simply slow down; the
//! open loop must shed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uswg_drive::{
    drive_stream, DriveConfig, LoopbackConfig, LoopbackVfs, OpSource, SourceError, Target,
    TargetError, VecSource,
};
use uswg_fsc::FileCategory;
use uswg_netfs::OpKind;
use uswg_usim::{OpRecord, RetryPolicy};

fn op(at: u64, i: u64) -> OpRecord {
    OpRecord {
        at,
        user: (i % 5) as usize,
        session: 0,
        op: OpKind::ALL[(i % 8) as usize],
        ino: i % 16,
        bytes: 256,
        file_size: 4096,
        response: 0,
        category: FileCategory::REG_USER_RDONLY,
        retries: 0,
        aborted: false,
    }
}

/// Completions so far, shared by the target that counts them and the
/// source that reads the count as it yields its last op.
type Completions = Arc<AtomicU64>;

/// The loopback target, counting the ops it completes.
struct Counting {
    inner: LoopbackVfs,
    completed: Completions,
}

impl Target for Counting {
    fn apply(&self, op: &OpRecord) -> Result<(), TargetError> {
        self.inner.apply(op)?;
        self.completed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A `VecSource` that notes the completion count when it yields its last
/// op (`left` counts down to it); it looks ahead as the `VecSource` does.
struct LastOpWatch {
    inner: VecSource,
    left: usize,
    completed: Completions,
    completed_at_last: Option<u64>,
}

impl LastOpWatch {
    fn note(&mut self, next: &Result<Option<(u64, OpRecord)>, SourceError>) {
        if let Ok(Some(_)) = next {
            self.left -= 1;
            if self.left == 0 {
                self.completed_at_last = Some(self.completed.load(Ordering::Relaxed));
            }
        }
    }
}

impl OpSource for &mut LastOpWatch {
    fn next_op(&mut self) -> Result<Option<(u64, OpRecord)>, SourceError> {
        let next = self.inner.next_op();
        self.note(&next);
        next
    }

    fn try_next_op(&mut self) -> Option<Result<Option<(u64, OpRecord)>, SourceError>> {
        let next = self.inner.try_next_op()?;
        self.note(&next);
        Some(next)
    }
}

#[test]
fn ten_x_overload_sheds_and_terminates_bounded() {
    // Capacity: 2 workers × 1 op / 1000 µs = 2000 ops/s.
    // Offered: 2000 ops arriving over ~0.1 s of wall time = 20 000 ops/s,
    // i.e. 10× capacity.
    let service_micros = 1_000;
    let max_in_flight = 2;
    let queue_cap = 32;
    let ops: Vec<_> = (0..2_000).map(|i| op(i * 50, i)).collect();
    let config = DriveConfig {
        speedup: 1.0,
        max_in_flight,
        queue_cap,
        deadline_micros: 0,
        retry: RetryPolicy::default(),
        seed: 7,
    };
    let completed = Completions::default();
    let target = Arc::new(Counting {
        inner: LoopbackVfs::new(LoopbackConfig {
            service_micros,
            ..LoopbackConfig::default()
        }),
        completed: Arc::clone(&completed),
    });
    let mut source = LastOpWatch {
        left: ops.len(),
        inner: VecSource::new(ops),
        completed,
        completed_at_last: None,
    };

    let report = drive_stream(&mut source, target, &config).unwrap();

    // Bounded termination: the backlog can never exceed queue_cap, so what
    // completes after the last arrival is at most the queue, the ops in
    // flight and the last op itself — not the backlog an unbounded queue
    // would have built, and not a wall time that depends on the machine.
    let tail = report.completed - source.completed_at_last.expect("the source ran dry");
    assert!(
        tail <= (queue_cap + max_in_flight + 1) as u64,
        "{tail} ops completed after the last arrival: {report:?}"
    );

    // Conservation: every offered op accounted for exactly once.
    assert_eq!(report.offered, 2_000);
    assert_eq!(
        report.offered,
        report.completed + report.shed + report.expired + report.aborted
    );

    // The shed path engaged: at 10× overload the queue must overflow.
    assert!(
        report.shed > 0,
        "10x overload must shed from the bounded queue: {report:?}"
    );
    // And it dominates: most of the excess is shed, not mysteriously lost.
    assert!(
        report.shed > report.offered / 2,
        "at 10x overload the majority of ops shed: {report:?}"
    );

    // The in-flight cap held.
    assert!(
        report.peak_in_flight <= max_in_flight,
        "peak in-flight {} exceeds cap {max_in_flight}",
        report.peak_in_flight
    );
    assert!(report.completed > 0, "workers made progress: {report:?}");

    // The percentile report is produced and self-consistent.
    assert_eq!(report.latency.count(), report.completed);
    let p50 = report.latency.quantile(0.50);
    let p99 = report.latency.quantile(0.99);
    assert!(p50 <= p99 && p99 <= report.latency.max());
    assert!(
        report.latency.max() >= service_micros,
        "a completed op cannot beat its own service time"
    );
    let text = report.render();
    assert!(text.contains("shed"), "{text}");
    assert!(text.contains("p99"), "{text}");
    assert!(text.contains("loopback-vfs"), "{text}");
}

#[test]
fn deadlines_expire_stale_queue_entries() {
    // One slow worker, generous queue, tight deadline: everything that
    // waits behind the head-of-line op expires instead of executing.
    let ops: Vec<_> = (0..50).map(|i| op(0, i)).collect();
    let config = DriveConfig {
        speedup: 1.0,
        max_in_flight: 1,
        queue_cap: 64,
        deadline_micros: 20_000,
        retry: RetryPolicy::default(),
        seed: 7,
    };
    let target = Arc::new(LoopbackVfs::new(LoopbackConfig {
        service_micros: 5_000,
        ..LoopbackConfig::default()
    }));
    let report = drive_stream(VecSource::new(ops), target, &config).unwrap();
    assert_eq!(
        report.offered,
        report.completed + report.shed + report.expired + report.aborted
    );
    assert!(
        report.expired > 0,
        "50 ops × 5 ms service under a 20 ms deadline must expire some: {report:?}"
    );
    assert!(report.completed >= 1, "the head of line completes");
}

#[test]
fn overload_with_faulty_target_still_conserves_ops() {
    // Overload *and* a 20% transient failure rate: retries add load, the
    // accounting identity still holds and nothing hangs.
    let ops: Vec<_> = (0..400).map(|i| op(i * 20, i)).collect();
    let config = DriveConfig {
        speedup: 1.0,
        max_in_flight: 2,
        queue_cap: 16,
        deadline_micros: 0,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 100,
            max_backoff_micros: 800,
        },
        seed: 11,
    };
    let target = Arc::new(LoopbackVfs::new(LoopbackConfig {
        service_micros: 500,
        fail_ppm: 200_000,
        ..LoopbackConfig::default()
    }));
    let report = drive_stream(VecSource::new(ops), target, &config).unwrap();
    assert_eq!(
        report.offered,
        report.completed + report.shed + report.expired + report.aborted
    );
    assert!(report.retries > 0, "20% failures must retry: {report:?}");
    assert!(report.completed > 0);
}
