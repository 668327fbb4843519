//! The overload smoke: offered load an order of magnitude beyond the
//! target's capacity must leave the driver standing — bounded memory
//! (the queue cap *is* the bound), bounded wall time, a nonzero shed
//! count, an in-flight peak at or under the cap, and a percentile report
//! at the end. This is the robustness acceptance test of the open-loop
//! design: a closed loop would simply slow down; the open loop must shed.

use std::sync::Arc;
use std::time::Instant;
use uswg_drive::{drive_stream, DriveConfig, LoopbackConfig, LoopbackVfs, VecSource};
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
    let target = Arc::new(LoopbackVfs::new(LoopbackConfig {
        service_micros,
        ..LoopbackConfig::default()
    }));

    let started = Instant::now();
    let report = drive_stream(VecSource::new(ops), target, &config).unwrap();
    let wall = started.elapsed();

    // Bounded termination: the backlog can never exceed queue_cap, so the
    // tail after the last arrival is at most (queue_cap + in-flight) ops
    // of service time. 10 s is two orders of magnitude of slack over the
    // ~0.13 s this takes; the point is "not proportional to the backlog
    // an unbounded queue would have built".
    assert!(
        wall.as_secs() < 10,
        "overload run must terminate bounded, took {wall:?}"
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
