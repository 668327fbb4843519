//! Integration tests of the Chapter 5 experiment shapes at reduced scale:
//! these are the acceptance criteria of DESIGN.md §4 (who wins, slopes,
//! crossovers), run small enough for CI.

use uswg_core::experiment::{
    access_size_sweep, compare_models, mix_sweep, run_des_replicated, user_sweep, ModelConfig,
    Parallelism,
};
use uswg_core::{presets, FillPattern, NfsParams, PopulationSpec, WorkloadSpec};

fn base_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    // 8 sessions per point: enough samples that the shape assertions below
    // (growth ratios, model orderings) hold with real margin rather than
    // riding the small-sample noise of a particular RNG stream.
    spec.run.sessions_per_user = 8;
    // These tests assert the paper's *contended* queueing shapes (response
    // grows with users because everyone queues behind one server), so they
    // run unsharded; the sharded regime has its own suite
    // (tests/shard_equivalence.rs).
    spec.fsc = spec
        .fsc
        .with_files_per_user(15)
        .unwrap()
        .with_shared_files(30)
        .unwrap()
        .with_fill(FillPattern::Sparse);
    spec
}

#[test]
fn figure_5_6_shape_linear_growth_under_saturation() {
    let spec = base_spec()
        .with_population(PopulationSpec::single(presets::extremely_heavy_user()).unwrap());
    let points = user_sweep(
        &spec,
        &ModelConfig::default_nfs(),
        [1, 2, 4, 6],
        Parallelism::Auto,
    )
    .unwrap();
    let rpb: Vec<f64> = points.iter().map(|p| p.response_per_byte).collect();
    // Strictly increasing.
    for w in rpb.windows(2) {
        assert!(w[1] > w[0], "response/byte must grow with users: {rpb:?}");
    }
    // Roughly linear: 6 users ≥ 3× 1 user under zero think time.
    assert!(
        rpb[3] >= 3.0 * rpb[0],
        "saturation growth too shallow: {rpb:?}"
    );
}

#[test]
fn figures_5_7_to_5_11_shape_think_time_flattens_curves() {
    let heavy_spec = base_spec()
        .with_population(PopulationSpec::single(presets::extremely_heavy_user()).unwrap());
    let light_spec = base_spec().with_population(presets::heavy_light_population(0.0).unwrap());
    let heavy = user_sweep(
        &heavy_spec,
        &ModelConfig::default_nfs(),
        [1, 6],
        Parallelism::Auto,
    )
    .unwrap();
    let light = user_sweep(
        &light_spec,
        &ModelConfig::default_nfs(),
        [1, 6],
        Parallelism::Auto,
    )
    .unwrap();
    let heavy_slope = heavy[1].response_per_byte - heavy[0].response_per_byte;
    let light_slope = light[1].response_per_byte - light[0].response_per_byte;
    assert!(
        light_slope < 0.6 * heavy_slope,
        "think time must flatten the curve: light {light_slope:.2} vs heavy {heavy_slope:.2}"
    );
}

#[test]
fn paper_observation_5000_and_20000_think_times_are_similar() {
    // "a 5000-microsecond think time is not much different from a
    // 20000-microsecond think time" (Section 5.2).
    let heavy = base_spec().with_population(presets::heavy_light_population(1.0).unwrap());
    let light = base_spec().with_population(presets::heavy_light_population(0.0).unwrap());
    let h = user_sweep(&heavy, &ModelConfig::default_nfs(), [4], Parallelism::Auto).unwrap();
    let l = user_sweep(&light, &ModelConfig::default_nfs(), [4], Parallelism::Auto).unwrap();
    let ratio = h[0].response_per_byte / l[0].response_per_byte;
    assert!(
        (0.5..=2.2).contains(&ratio),
        "4-user response/byte should be similar across think times, ratio {ratio:.2}"
    );
}

#[test]
fn figure_5_12_shape_larger_accesses_amortize() {
    let spec = base_spec();
    let points = access_size_sweep(
        &spec,
        &ModelConfig::default_nfs(),
        [128.0, 256.0, 512.0, 1024.0, 2048.0],
        Parallelism::Auto,
    )
    .unwrap();
    let rpb: Vec<f64> = points.iter().map(|p| p.response_per_byte).collect();
    for w in rpb.windows(2) {
        assert!(
            w[1] < w[0],
            "per-byte response must fall with access size: {rpb:?}"
        );
    }
    // Convex and strong: 128 B is several times costlier per byte than 2 KiB.
    assert!(rpb[0] > 3.0 * rpb[4], "amortization too weak: {rpb:?}");
}

#[test]
fn table_5_3_shape_response_grows_and_spreads() {
    let spec = base_spec().with_population(presets::heavy_light_population(1.0).unwrap());
    let points = user_sweep(
        &spec,
        &ModelConfig::default_nfs(),
        [1, 6],
        Parallelism::Auto,
    )
    .unwrap();
    // Mean access size tracks the exp(1024) spec within sampling noise,
    // regardless of user count (paper's access-size column is flat).
    for p in &points {
        assert!(
            (p.access_size.mean - 1024.0).abs() / 1024.0 < 0.25,
            "access size drifted: {}",
            p.access_size.mean
        );
        // Exponential signature: std within a factor ~2 of the mean.
        assert!(p.access_size.std_dev > 0.4 * p.access_size.mean);
    }
    // Response grows in users, with std of the same order as the mean
    // (the paper's huge standard deviations).
    assert!(points[1].response.mean > points[0].response.mean);
    assert!(points[1].response.std_dev > 0.3 * points[1].response.mean);
}

#[test]
fn section_5_3_model_ranking_depends_on_workload() {
    // Sliver readers: touch 5% of large read-only files, working set larger
    // than the whole-file cache. Whole-file caching pays to fetch entire
    // files it barely uses and thrashes; NFS reads only what is asked.
    // (Write-heavy categories are excluded — batched write-back would
    // legitimately favor whole-file caching there, which is the point of
    // the second half of this test.)
    let sliver_cats = vec![
        uswg_core::CategoryUsage::exponential(
            uswg_core::FileCategory::REG_USER_RDONLY,
            0.05,
            2_608.0,
            4.0,
            1.0,
        ),
        uswg_core::CategoryUsage::exponential(
            uswg_core::FileCategory::REG_OTHER_RDONLY,
            0.05,
            53_965.0,
            8.0,
            1.0,
        ),
    ];
    let sliver = uswg_core::UserTypeSpec::new(
        "sliver",
        uswg_core::DistributionSpec::exponential(5_000.0),
        uswg_core::DistributionSpec::exponential(1_024.0),
        sliver_cats,
    );
    let mut spec = base_spec().with_population(PopulationSpec::single(sliver).unwrap());
    spec.fsc = spec
        .fsc
        .with_files_per_user(40)
        .unwrap()
        .with_shared_files(80)
        .unwrap();
    let small_cache = uswg_core::WholeFileCacheParams {
        cache_files: 8,
        ..uswg_core::WholeFileCacheParams::default()
    };
    let results = compare_models(
        &spec,
        &[
            ModelConfig::default_nfs(),
            ModelConfig::WholeFile(small_cache),
        ],
        Parallelism::Auto,
    )
    .unwrap();
    let nfs = results[0].1.response_per_byte;
    let afs = results[1].1.response_per_byte;
    assert!(
        afs > nfs,
        "sliver workload should favor NFS: nfs {nfs:.2} vs whole-file {afs:.2}"
    );

    // Heavy re-reading: whole-file caching wins.
    let mut reread_cats = presets::table_5_2_usages();
    for c in &mut reread_cats {
        c.access_per_byte = 8.0;
    }
    let rereader = uswg_core::UserTypeSpec::new(
        "re-reader",
        uswg_core::DistributionSpec::exponential(5_000.0),
        uswg_core::DistributionSpec::exponential(1_024.0),
        reread_cats,
    );
    let spec = base_spec().with_population(PopulationSpec::single(rereader).unwrap());
    let results = compare_models(
        &spec,
        &[
            ModelConfig::default_nfs(),
            ModelConfig::default_whole_file(),
        ],
        Parallelism::Auto,
    )
    .unwrap();
    let nfs = results[0].1.response_per_byte;
    let afs = results[1].1.response_per_byte;
    assert!(
        afs < nfs,
        "re-read workload should favor whole-file caching: nfs {nfs:.2} vs whole-file {afs:.2}"
    );
}

#[test]
fn distributed_nfs_flattens_the_user_sweep() {
    // Section 4.2's distributed-file-system extension: spreading the files
    // over more servers relieves the disk bottleneck, so the Figure 5.6
    // saturation curve flattens as servers are added.
    let spec = base_spec()
        .with_population(PopulationSpec::single(presets::extremely_heavy_user()).unwrap());
    let one = user_sweep(
        &spec,
        &ModelConfig::distributed_nfs(1),
        [1, 6],
        Parallelism::Auto,
    )
    .unwrap();
    let three = user_sweep(
        &spec,
        &ModelConfig::distributed_nfs(3),
        [1, 6],
        Parallelism::Auto,
    )
    .unwrap();
    let growth_one = one[1].response_per_byte / one[0].response_per_byte;
    let growth_three = three[1].response_per_byte / three[0].response_per_byte;
    assert!(
        growth_three < growth_one,
        "3 servers must flatten saturation: {growth_three:.2} vs {growth_one:.2}"
    );
    // Single-user cost is unchanged (no contention to relieve).
    let rel =
        (one[0].response_per_byte - three[0].response_per_byte).abs() / one[0].response_per_byte;
    assert!(
        rel < 0.15,
        "1-user cost should not depend on server count: {rel:.2}"
    );
}

#[test]
fn random_access_pattern_costs_more_per_byte() {
    // Database-style direct access issues an lseek per data op; per-byte
    // cost rises relative to sequential scans of the same budget.
    let mk = |pattern| {
        let mut cats = presets::table_5_2_usages();
        for c in &mut cats {
            c.access_pattern = pattern;
        }
        let user = uswg_core::UserTypeSpec::new(
            "pattern user",
            uswg_core::DistributionSpec::exponential(5_000.0),
            uswg_core::DistributionSpec::exponential(1_024.0),
            cats,
        );
        base_spec().with_population(PopulationSpec::single(user).unwrap())
    };
    let seq = user_sweep(
        &mk(uswg_core::AccessPattern::Sequential),
        &ModelConfig::default_nfs(),
        [2],
        Parallelism::Auto,
    )
    .unwrap();
    let rnd = user_sweep(
        &mk(uswg_core::AccessPattern::Random),
        &ModelConfig::default_nfs(),
        [2],
        Parallelism::Auto,
    )
    .unwrap();
    assert!(
        rnd[0].response_per_byte > seq[0].response_per_byte,
        "random access must cost more per byte: {:.3} vs {:.3}",
        rnd[0].response_per_byte,
        seq[0].response_per_byte
    );
}

#[test]
fn client_cache_ablation_reduces_response() {
    let spec = base_spec().with_population(presets::heavy_light_population(1.0).unwrap());
    let without = user_sweep(
        &spec,
        &ModelConfig::Nfs(NfsParams::default()),
        [2],
        Parallelism::Auto,
    )
    .unwrap();
    let with = user_sweep(
        &spec,
        &ModelConfig::Nfs(NfsParams::with_cache(4_096)),
        [2],
        Parallelism::Auto,
    )
    .unwrap();
    assert!(
        with[0].response_per_byte < without[0].response_per_byte,
        "client cache must help: {} vs {}",
        with[0].response_per_byte,
        without[0].response_per_byte
    );
}

#[test]
fn local_disk_always_beats_remote_models() {
    let spec = base_spec().with_population(presets::heavy_light_population(1.0).unwrap());
    let results = compare_models(
        &spec,
        &[
            ModelConfig::default_local(),
            ModelConfig::default_nfs(),
            ModelConfig::default_whole_file(),
        ],
        Parallelism::Auto,
    )
    .unwrap();
    let local = results[0].1.response_per_byte;
    for (name, point) in &results[1..] {
        assert!(
            local < point.response_per_byte,
            "local must beat {name}: {local:.2} vs {:.2}",
            point.response_per_byte
        );
    }
}

#[test]
fn parallel_sweeps_match_serial() {
    let spec = base_spec()
        .with_population(PopulationSpec::single(presets::extremely_heavy_user()).unwrap());

    // Every point is independently seeded from run.seed, so fanning points
    // across threads must reproduce the serial results byte for byte.
    let serial = user_sweep(
        &spec,
        &ModelConfig::default_nfs(),
        [1, 2, 3, 4],
        Parallelism::Serial,
    )
    .unwrap();
    let parallel = user_sweep(
        &spec,
        &ModelConfig::default_nfs(),
        [1, 2, 3, 4],
        Parallelism::Threads(4),
    )
    .unwrap();
    assert_eq!(serial, parallel);

    let serial = access_size_sweep(
        &spec,
        &ModelConfig::default_nfs(),
        [128.0, 512.0, 2048.0],
        Parallelism::Serial,
    )
    .unwrap();
    let parallel = access_size_sweep(
        &spec,
        &ModelConfig::default_nfs(),
        [128.0, 512.0, 2048.0],
        Parallelism::Threads(3),
    )
    .unwrap();
    assert_eq!(serial, parallel);

    let serial = mix_sweep(
        &base_spec(),
        &ModelConfig::default_nfs(),
        [0.0, 0.5, 1.0],
        Parallelism::Serial,
    )
    .unwrap();
    let parallel = mix_sweep(
        &base_spec(),
        &ModelConfig::default_nfs(),
        [0.0, 0.5, 1.0],
        Parallelism::Threads(3),
    )
    .unwrap();
    assert_eq!(serial, parallel);

    let models = [ModelConfig::default_local(), ModelConfig::default_nfs()];
    let serial = compare_models(&spec, &models, Parallelism::Serial).unwrap();
    let parallel = compare_models(&spec, &models, Parallelism::Threads(2)).unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn replicated_runs_quantify_seed_spread() {
    let spec = base_spec()
        .with_population(PopulationSpec::single(presets::extremely_heavy_user()).unwrap());
    let study = run_des_replicated(
        &spec,
        &ModelConfig::default_nfs(),
        [101u64, 202, 303, 404],
        Parallelism::Auto,
    )
    .unwrap();
    assert_eq!(study.replicates.len(), 4);
    assert!(study.mean_response_per_byte > 0.0);
    assert!(study.std_dev_response_per_byte >= 0.0);
    // The CI must bracket every reasonable re-estimate of the mean: here
    // just check it is positive and smaller than the mean itself (the
    // response-per-byte spread across seeds is far from degenerate but far
    // from 100% either).
    assert!(study.ci95_half_width > 0.0);
    assert!(study.ci95_half_width < study.mean_response_per_byte);
}
