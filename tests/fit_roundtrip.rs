//! The fit round-trip oracle: `run --spill` a known spec, `fit` the
//! capture into a synthesized spec, run the synthesized spec, and pin
//! that the regenerated workload statistically matches the original —
//! op mix, access sizes, op interarrivals and session lengths all within
//! KS / fraction acceptance bands. This is the paper's whole premise
//! (measure a system, characterize the users, regenerate an equivalent
//! workload), closed as an executable loop.
//!
//! The matrix covers both scheduler backends, unsharded and sharded
//! captures (K ∈ {1, 2}), both spill codecs, and a footer-less capture
//! (no index — the fit collector's streamed fallback), across two
//! distinct source specs. Everything is seeded, so the acceptance bands
//! are deterministic gates, not flaky tolerances.

use std::num::NonZeroUsize;
use std::path::Path;
use uswg_core::experiment::ModelConfig;
use uswg_core::{
    collect_fit, gof, presets, synthesize_spec, FitObservation, OpKind, PopulationSpec,
    ScanOptions, SchedulerBackend, SpillCodec, SpillSink, SynthesisOptions, UsageLog, WorkloadSpec,
};

/// Source spec 1: the paper-default heavy-user population, shrunk to a
/// quick multi-user run.
fn paper_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.n_users = 4;
    spec.run.sessions_per_user = 6;
    spec.fsc = spec
        .fsc
        .with_files_per_user(8)
        .unwrap()
        .with_shared_files(12)
        .unwrap();
    spec
}

/// Source spec 2: a genuinely different workload — a heavy/light mix with
/// different think times and access sizes, and a different seed.
fn mixed_spec() -> WorkloadSpec {
    let mut spec = paper_spec();
    spec.population = presets::heavy_light_population(0.5).unwrap();
    spec.run.seed = 0xFEED_F00D;
    spec
}

/// A distinct population to prove `fit` recovers more than one type.
fn two_type_spec() -> WorkloadSpec {
    let mut spec = paper_spec();
    spec.population = PopulationSpec::new(vec![
        (presets::heavy_user(), 0.5),
        (presets::user_type_with("light", 12_000_000.0, 512.0), 0.5),
    ])
    .unwrap();
    spec.run.n_users = 6;
    spec
}

fn unique_dir(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("uswg-fit-rt-{label}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `spec` under the local-disk model, spilling the full log to
/// `path` with the requested codec (and optionally without the index
/// footer, to force the fit collector's streamed fallback).
fn capture(spec: &WorkloadSpec, path: &Path, codec: SpillCodec, indexed: bool) {
    let sink = SpillSink::create_with(path, codec).unwrap();
    let sink = if indexed { sink } else { sink.without_index() };
    let (sink, _stats) = spec.run_des(&ModelConfig::default_local(), sink).unwrap();
    sink.finish().unwrap();
}

fn observe(path: &Path) -> FitObservation {
    collect_fit(path, &ScanOptions::default())
        .unwrap()
        .observation
}

/// The capture-wide op-mix fractions, aggregated over user types.
fn op_mix(obs: &FitObservation) -> Vec<f64> {
    let mut counts = vec![0u64; OpKind::ALL.len()];
    for t in &obs.types {
        for (c, &n) in counts.iter_mut().zip(t.op_mix.iter()) {
            *c += n;
        }
    }
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "capture has no classified ops");
    counts
        .into_iter()
        .map(|n| n as f64 / total as f64)
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Two-sample KS acceptance: D below `max_d`, and the means within a
/// factor band. Loose enough for a 4-user resample, tight enough that a
/// mis-synthesized spec (wrong family, wrong scale, dropped measure)
/// fails decisively.
fn assert_measure_close(label: &str, a: &[f64], b: &[f64], max_d: f64, ratio: f64) {
    assert!(!a.is_empty() && !b.is_empty(), "{label}: empty sample");
    let ks = gof::ks_two_sample(a, b).unwrap();
    assert!(
        ks.statistic <= max_d,
        "{label}: two-sample KS D = {:.3} > {max_d}",
        ks.statistic
    );
    let (ma, mb) = (mean(a), mean(b));
    assert!(
        ma <= mb * ratio && mb <= ma * ratio,
        "{label}: means {ma:.1} vs {mb:.1} beyond {ratio}x"
    );
}

/// The oracle: capture `spec`, fit it, run the fitted spec, and pin the
/// regenerated capture against the original.
fn roundtrip(
    label: &str,
    spec: &WorkloadSpec,
    scheduler: SchedulerBackend,
    shards: usize,
    codec: SpillCodec,
    indexed: bool,
) {
    let dir = unique_dir(label);
    let source_path = dir.join("source.bin");
    let refit_path = dir.join("refit.bin");

    let mut spec = spec.clone();
    spec.run.scheduler = Some(scheduler);
    spec.run.shards = NonZeroUsize::new(shards);
    capture(&spec, &source_path, codec, indexed);

    let source = observe(&source_path);
    assert_eq!(source.users, spec.run.n_users, "{label}: users observed");
    let fitted = synthesize_spec(&source, &SynthesisOptions::default())
        .unwrap_or_else(|e| panic!("{label}: synthesize failed: {e}"));
    assert_eq!(fitted.spec.run.n_users, spec.run.n_users);
    assert_eq!(
        fitted.spec.run.sessions_per_user,
        spec.run.sessions_per_user
    );

    // The fitted spec runs unsharded on its own seed — the oracle compares
    // workload statistics, not event interleavings.
    capture(&fitted.spec, &refit_path, SpillCodec::Compressed, true);
    let refit = observe(&refit_path);
    assert!(!refit.is_empty(), "{label}: regenerated capture is empty");

    // Op mix: per-kind fraction drift.
    let (mix_a, mix_b) = (op_mix(&source), op_mix(&refit));
    for (kind, (fa, fb)) in OpKind::ALL.iter().zip(mix_a.iter().zip(mix_b.iter())) {
        assert!(
            (fa - fb).abs() <= 0.12,
            "{label}: op-mix fraction for {kind:?} drifted: {fa:.3} vs {fb:.3}"
        );
    }

    // Access sizes, interarrival gaps and session lengths: two-sample KS
    // plus a mean band, concatenated across user types.
    let acc = |obs: &FitObservation| -> Vec<f64> {
        obs.types
            .iter()
            .flat_map(|t| t.access_size.samples().to_vec())
            .collect()
    };
    let gaps = |obs: &FitObservation| -> Vec<f64> {
        obs.types
            .iter()
            .flat_map(|t| t.interarrival.samples().to_vec())
            .collect()
    };
    let lens = |obs: &FitObservation| -> Vec<f64> {
        obs.types
            .iter()
            .flat_map(|t| t.session_length.samples().to_vec())
            .collect()
    };
    assert_measure_close(
        &format!("{label}/access-size"),
        &acc(&source),
        &acc(&refit),
        0.35,
        2.5,
    );
    assert_measure_close(
        &format!("{label}/interarrival"),
        &gaps(&source),
        &gaps(&refit),
        0.45,
        3.0,
    );
    assert_measure_close(
        &format!("{label}/session-length"),
        &lens(&source),
        &lens(&refit),
        0.45,
        3.0,
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn roundtrip_paper_heap_unsharded_compressed() {
    roundtrip(
        "paper-heap-k1-v2",
        &paper_spec(),
        SchedulerBackend::Heap,
        1,
        SpillCodec::Compressed,
        true,
    );
}

#[test]
fn roundtrip_paper_calendar_unsharded_raw() {
    roundtrip(
        "paper-cal-k1-v1",
        &paper_spec(),
        SchedulerBackend::Calendar,
        1,
        SpillCodec::Raw,
        true,
    );
}

#[test]
fn roundtrip_paper_heap_sharded_footerless() {
    // K = 2 sharded capture, no index footer: the fit collector must take
    // its whole-file streamed fallback over the merged shard streams.
    roundtrip(
        "paper-heap-k2-nofooter",
        &paper_spec(),
        SchedulerBackend::Heap,
        2,
        SpillCodec::Compressed,
        false,
    );
}

#[test]
fn roundtrip_mixed_calendar_sharded_compressed() {
    roundtrip(
        "mixed-cal-k2-v2",
        &mixed_spec(),
        SchedulerBackend::Calendar,
        2,
        SpillCodec::Compressed,
        true,
    );
}

#[test]
fn roundtrip_mixed_heap_unsharded_raw_footerless() {
    roundtrip(
        "mixed-heap-k1-v1-nofooter",
        &mixed_spec(),
        SchedulerBackend::Heap,
        1,
        SpillCodec::Raw,
        false,
    );
}

#[test]
fn roundtrip_recovers_two_user_types() {
    let dir = unique_dir("two-types");
    let path = dir.join("source.bin");
    let spec = two_type_spec();
    capture(&spec, &path, SpillCodec::Compressed, true);
    let obs = observe(&path);
    assert_eq!(obs.types.len(), 2, "both user types observed");
    let fitted = synthesize_spec(&obs, &SynthesisOptions::default()).unwrap();
    assert_eq!(fitted.spec.population.types().len(), 2);
    // The population fractions mirror the observed per-type user counts.
    let total: f64 = fitted.spec.population.types().iter().map(|&(_, f)| f).sum();
    assert!((total - 1.0).abs() < 1e-9);
    // And the fitted spec runs.
    let (log, _) = fitted
        .spec
        .run_des(&ModelConfig::default_local(), UsageLog::new())
        .unwrap();
    assert!(!log.sessions().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowed_fit_matches_the_full_pass_on_a_full_window() {
    // A window covering the whole capture must observe exactly what the
    // unwindowed pass observes — the indexed and streamed collectors agree.
    let dir = unique_dir("window-full");
    let path = dir.join("source.bin");
    capture(&paper_spec(), &path, SpillCodec::Compressed, true);
    let full = observe(&path);
    let windowed = collect_fit(
        &path,
        &ScanOptions {
            since: Some(0),
            until: Some(u64::MAX),
            ..ScanOptions::default()
        },
    )
    .unwrap();
    assert_eq!(windowed.observation.ops, full.ops);
    assert_eq!(windowed.observation.sessions, full.sessions);
    assert_eq!(windowed.observation.users, full.users);
    assert!(windowed.frames_total.is_some(), "index footer was used");
    std::fs::remove_dir_all(&dir).ok();
}
