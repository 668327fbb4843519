//! Criterion: end-to-end discrete-event throughput (events/sec), the
//! heap-vs-calendar scheduler comparison across pending-event populations,
//! and the guide-table vs binary-search sampling comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use std::hint::black_box;
use uswg_bench::{hold_simulation, HOLD_BATCH};
use uswg_core::experiment::ModelConfig;
use uswg_core::{CdfTable, FillPattern, MultiStageGamma, SchedulerBackend, UsageLog, WorkloadSpec};

/// A small but non-trivial DES workload: 4 users × 4 sessions against NFS.
fn des_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.n_users = 4;
    spec.run.sessions_per_user = 4;
    spec.fsc = spec
        .fsc
        .with_files_per_user(15)
        .unwrap()
        .with_shared_files(30)
        .unwrap()
        .with_fill(FillPattern::Sparse);
    spec
}

fn bench_des_events(c: &mut Criterion) {
    let mut spec = des_spec();
    let model = ModelConfig::default_nfs();
    // Count events once; the run is seed-deterministic (and backend-
    // invariant), so every iteration processes exactly this many.
    let events = spec.run_des(&model, UsageLog::new()).unwrap().1.events;

    let mut group = c.benchmark_group("des_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events));
    for backend in [SchedulerBackend::Heap, SchedulerBackend::Calendar] {
        spec.run.scheduler = Some(backend);
        group.bench_with_input(
            BenchmarkId::new("nfs/4users_4sessions", backend.name()),
            &spec,
            |b, spec| b.iter(|| black_box(spec.run_des(&model, UsageLog::new()).unwrap().1.events)),
        );
    }
    group.finish();
}

/// The tentpole comparison on the shared [`uswg_bench::HoldModel`] workout:
/// heap vs calendar at pending populations from 1k to 1M. The acceptance
/// bar is calendar ≥ 2× heap at ≥ 100k pending (`BENCH_baseline.json`
/// records the measured ratios for the same workout).
fn bench_scheduler_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_hold");
    group.sample_size(10);
    group.throughput(Throughput::Elements(HOLD_BATCH));
    for pending in [1_000usize, 10_000, 100_000, 1_000_000] {
        for backend in [SchedulerBackend::Heap, SchedulerBackend::Calendar] {
            let mut sim = hold_simulation(backend, pending);
            group.bench_with_input(
                BenchmarkId::new(backend.name(), pending),
                &pending,
                |b, _| b.iter(|| black_box(sim.run_steps(HOLD_BATCH))),
            );
        }
    }
    group.finish();
}

fn bench_guided_vs_binary(c: &mut Criterion) {
    let gamma = MultiStageGamma::new(vec![
        (0.7, 1.3, 12.3, 0.0),
        (0.2, 1.5, 12.4, 23.0),
        (0.1, 1.4, 12.3, 41.0),
    ])
    .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("inverse_transform");
    for resolution in [256usize, 1_024, 4_096, 16_384] {
        let table = CdfTable::from_distribution(&gamma, resolution).unwrap();
        group.bench_with_input(BenchmarkId::new("guided", resolution), &table, |b, t| {
            b.iter(|| black_box(t.sample(&mut rng)))
        });
        group.bench_with_input(
            BenchmarkId::new("binary_search", resolution),
            &table,
            |b, t| b.iter(|| black_box(t.sample_unguided(&mut rng))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_des_events,
    bench_scheduler_backends,
    bench_guided_vs_binary
);
criterion_main!(benches);
