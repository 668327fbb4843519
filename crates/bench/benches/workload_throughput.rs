//! Criterion: whole-generator throughput — sessions generated per second by
//! the direct driver, and events per second through the discrete-event
//! driver with the NFS model.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use uswg_core::experiment::ModelConfig;
use uswg_core::{FillPattern, RunConfig, UsageLog, WorkloadSpec};

fn quick_spec(users: usize, sessions: u32, seed: u64) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run = RunConfig {
        n_users: users,
        sessions_per_user: sessions,
        seed,
        record_ops: false,
        cdf_resolution: 1024,
        ..RunConfig::default()
    };
    spec.fsc = spec
        .fsc
        .with_files_per_user(20)
        .unwrap()
        .with_shared_files(40)
        .unwrap()
        .with_fill(FillPattern::Sparse);
    spec
}

fn bench_direct(c: &mut Criterion) {
    let mut group = c.benchmark_group("generator");
    group.sample_size(10);
    let mut seed = 0u64;
    group.bench_function("direct_driver/1user_2sessions", |b| {
        b.iter(|| {
            seed += 1;
            black_box(quick_spec(1, 2, seed).run_direct().unwrap())
        })
    });
    group.bench_function("des_driver_nfs/2users_2sessions", |b| {
        b.iter(|| {
            seed += 1;
            black_box(
                quick_spec(2, 2, seed)
                    .run_des(&ModelConfig::default_nfs(), UsageLog::new())
                    .unwrap(),
            )
        })
    });
    group.bench_function("fsc_build/2users", |b| {
        b.iter(|| {
            seed += 1;
            black_box(quick_spec(2, 1, seed).generate_fs().unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_direct);
criterion_main!(benches);
