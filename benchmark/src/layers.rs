//! The traced pass: an in-process replica of each workload's command
//! sequence with spans around the calls into every layer, plus a fixed set
//! of layer probes that is the same on every workload.
//!
//! Layer = crate. The replica calls today's public functions in the order
//! the CLI does; a refactor that removes one updates this file in a
//! benchmark-only change.

use crate::trace::{TimedModel, TimedSink, TimedSource, TimedTarget, Tracer};
use crate::workload::{
    check_sessions, expected_sessions, Prepared, ScratchDir, Sizes, Workload, DRIVE_QUEUE_CAP,
    DRIVE_SPEEDUP,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uswg_core::experiment::ModelConfig;
use uswg_core::metrics::StreamLogStats;
use uswg_core::{
    collect_fit, synthesize_spec, CdfTable, DesDriver, DesRunStats, DirectDriver, FrameIndex,
    LogSink, OpRecord, Resource, ResourcePool, ScanOptions, Scheduler, SchedulerBackend, SimTime,
    Simulation, SpillReader, SpillRecord, SpillSink, SummarySink, SynthesisOptions, WorkloadSpec,
    World,
};
use uswg_drive::{
    drive_stream, DriveConfig, DriveReport, LoopbackConfig, LoopbackVfs, OpSource, SpillSource,
    Target,
};

fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// `uswg run --scheduler calendar`'s first step: read and parse the spec
/// file, then apply the flag every DES child is given — the fitted spec
/// names no scheduler, and the harness's own environment is not scrubbed.
fn load_spec(tr: &mut Tracer, path: &Path) -> Result<WorkloadSpec, String> {
    tr.span("core.load_spec", |_| {
        let json = std::fs::read_to_string(path).map_err(err("reading the spec"))?;
        let mut spec = WorkloadSpec::from_json(&json).map_err(err("parsing the spec"))?;
        spec.run.scheduler = Some(SchedulerBackend::Calendar);
        Ok(spec)
    })
}

/// What `WorkloadSpec::run_des_with_sink` does for an unsharded run, one
/// span per layer call, with the model behind a timing decorator. `sink`
/// arrives already decorated; `sink_spans` names its tallies so they fold
/// into children of the `usim.des_run` span.
fn des_run<S: LogSink>(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    model: &ModelConfig,
    sink: S,
    fold_sink: impl FnOnce(&mut Tracer),
) -> Result<(S, DesRunStats), String> {
    let (vfs, catalog) = tr.span("fsc.generate_fs", |tr| {
        let built = spec.generate_fs();
        if let Ok((_, catalog)) = &built {
            tr.items(catalog.len() as u64);
        }
        built.map_err(err("FS generation"))
    })?;
    let population = tr.span("usim.compile", |_| spec.compile().map_err(err("compile")))?;
    let mut pool = ResourcePool::new();
    let stages = tr.tally();
    let model = Box::new(TimedModel {
        inner: model.build(&mut pool),
        tally: stages.clone(),
    });
    tr.span("usim.des_run", |tr| {
        let (sink, stats) = DesDriver::new()
            .run_with_sink(vfs, catalog, &population, model, pool, &spec.run, sink)
            .map_err(err("DES run"))?;
        tr.items(stats.events);
        tr.aggregate("netfs.stages", &stages);
        fold_sink(tr);
        Ok((sink, stats))
    })
}

/// `uswg run --summary`.
fn summary_run(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    model: &ModelConfig,
) -> Result<(SummarySink, DesRunStats), String> {
    let tally = tr.tally();
    let sink = TimedSink {
        inner: SummarySink::new(),
        tally: tally.clone(),
    };
    let (sink, stats) = des_run(tr, spec, model, sink, |tr| {
        tr.aggregate("usim.sink", &tally)
    })?;
    check_sessions(
        "in-process summary run",
        expected_sessions(spec),
        sink.inner.sessions,
    )?;
    Ok((sink.inner, stats))
}

/// `uswg run --spill`: the summary sink teed with the spill sink.
fn capture_run(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    model: &ModelConfig,
    path: &Path,
) -> Result<(SummarySink, DesRunStats), String> {
    let (summary_tally, spill_tally) = (tr.tally(), tr.tally());
    let sink = (
        TimedSink {
            inner: SummarySink::new(),
            tally: summary_tally.clone(),
        },
        TimedSink {
            inner: SpillSink::create(path).map_err(err("creating the capture"))?,
            tally: spill_tally.clone(),
        },
    );
    let ((summary, spill), stats) = des_run(tr, spec, model, sink, |tr| {
        tr.aggregate("usim.sink", &summary_tally);
        tr.aggregate("spill.encode", &spill_tally);
    })?;
    tr.span("spill.finish", |_| spill.inner.finish().map(drop))
        .map_err(err("finishing the capture"))?;
    check_sessions(
        "in-process capture run",
        expected_sessions(spec),
        summary.inner.sessions,
    )?;
    Ok((summary.inner, stats))
}

/// `uswg analyze --json`: the streamed pass into `StreamLogStats`.
fn analyze(tr: &mut Tracer, capture: &Path) -> Result<StreamLogStats, String> {
    tr.span("analyze.scan", |tr| {
        let mut stats = StreamLogStats::new();
        for record in SpillReader::open(capture).map_err(err("opening the capture"))? {
            match record.map_err(err("decoding the capture"))? {
                SpillRecord::Op(op) => stats.record_op(&op),
                SpillRecord::Session(s) => stats.record_session(&s),
            }
        }
        tr.items(stats.ops + stats.sessions);
        Ok(stats)
    })
}

/// `uswg fit <capture> --out <spec>`.
fn fit(tr: &mut Tracer, capture: &Path, out: &Path) -> Result<(), String> {
    let outcome = tr.span("analyze.fit_collect", |_| {
        collect_fit(capture, &ScanOptions::default()).map_err(err("fit collection"))
    })?;
    let synthesized = tr.span("core.synthesize", |_| {
        synthesize_spec(&outcome.observation, &SynthesisOptions::default())
            .map_err(err("spec synthesis"))
    })?;
    let json = synthesized.spec.to_json().map_err(err("fitted spec"))?;
    std::fs::write(out, json).map_err(err("writing the fitted spec"))
}

/// What a traced replay measured beyond the drive report.
struct Replay {
    report: DriveReport,
    /// Wall µs the replay ran past its schedule's end.
    overrun_us: f64,
    /// Summed `Target::apply` time over the workers (0 untraced).
    apply_ns: u64,
}

/// `uswg drive --from-spill`: one worker against the loopback target.
fn replay(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    capture: &Path,
    speedup: f64,
) -> Result<Replay, String> {
    let (source_tally, target_tally) = (tr.tally(), tr.tally());
    let last_arrival_us = Arc::new(AtomicU64::new(0));
    let config = DriveConfig {
        speedup,
        max_in_flight: 1,
        queue_cap: DRIVE_QUEUE_CAP,
        deadline_micros: 0,
        retry: spec.run.faults.retry,
        seed: spec.run.seed,
    };
    let target: Arc<dyn Target> = Arc::new(TimedTarget {
        inner: LoopbackVfs::new(LoopbackConfig {
            seed: spec.run.seed,
            ..LoopbackConfig::default()
        }),
        tally: target_tally.clone(),
    });
    tr.span("drive.replay", |tr| {
        let source = TimedSource {
            inner: SpillSource::open(capture).map_err(err("opening the capture"))?,
            tally: source_tally.clone(),
            last_arrival_us: Arc::clone(&last_arrival_us),
        };
        let report = drive_stream(source, target, &config).map_err(err("drive"))?;
        tr.items(report.completed);
        tr.aggregate("drive.source_next", &source_tally);
        tr.aggregate("drive.target_apply", &target_tally);
        let lost = report.shed + report.expired + report.aborted;
        if report.offered != report.completed + lost {
            return Err(format!("drive accounting does not add up: {report:?}"));
        }
        // The pacer offers an op stamped `at` at wall `at / speedup` past
        // its anchor, so the schedule ends at `last / speedup`.
        let schedule_us = last_arrival_us.load(Ordering::Relaxed) as f64 / speedup;
        Ok(Replay {
            overrun_us: report.wall_micros as f64 - schedule_us,
            apply_ns: target_tally.as_ref().map_or(0, |t| t.busy_ns()),
            report,
        })
    })
}

/// Runs `workload`'s command sequence in-process, every DES run checked
/// for the session count its spec asks for.
pub fn replica(p: &Prepared, scratch: &ScratchDir, tr: &mut Tracer) -> Result<(), String> {
    let model = p.workload.model_config();
    match p.workload {
        Workload::DeepNfs | Workload::WideLocal => tr.span("workload", |tr| {
            let spec = load_spec(tr, &p.spec_path)?;
            summary_run(tr, &spec, &model).map(drop)
        }),
        Workload::CaptureLoop => tr.span("workload", |tr| {
            let capture = scratch.join("capture.bin");
            let fitted = scratch.join("fitted.json");
            tr.span("stage.capture", |tr| {
                let spec = load_spec(tr, &p.spec_path)?;
                capture_run(tr, &spec, &model, &capture)
            })?;
            tr.span("stage.analyze", |tr| analyze(tr, &capture))?;
            tr.span("stage.fit", |tr| fit(tr, &capture, &fitted))?;
            tr.span("stage.rerun", |tr| {
                let spec = load_spec(tr, &fitted)?;
                summary_run(tr, &spec, &model).map(drop)
            })
        }),
        Workload::DriveReplay => {
            let capture = scratch.join("capture.bin");
            let spec = tr.span("setup", |tr| {
                let spec = load_spec(tr, &p.spec_path)?;
                capture_run(tr, &spec, &model, &capture)?;
                Ok::<_, String>(spec)
            })?;
            tr.span("workload", |tr| {
                replay(tr, &spec, &capture, f64::from(DRIVE_SPEEDUP)).map(drop)
            })
        }
    }
}

/// The classic hold-model workout: every handled event reschedules itself
/// a pseudo-random delay ahead, so the pending population stays constant
/// while the queue churns — one pop + one push at a given queue size, no
/// workload logic attached.
struct HoldModel {
    state: u64,
}

fn lcg(state: u64) -> u64 {
    state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

impl World for HoldModel {
    type Event = ();
    fn handle(&mut self, (): (), sched: &mut Scheduler<()>) {
        self.state = lcg(self.state);
        sched.schedule(self.state % 10_000 + 1, ());
    }
}

const HOLD_EVENTS: u64 = 2_000_000;
const SAMPLE_DRAWS: u64 = 4_000_000;
const SERVE_CALLS: u64 = 4_000_000;

fn hold(tr: &mut Tracer, name: &'static str, pending: usize, seed: u64) {
    let mut sim = Simulation::with_backend(
        HoldModel { state: seed | 1 },
        SchedulerBackend::Calendar,
        pending,
    );
    let mut state = seed ^ 0x9E37_79B9;
    for _ in 0..pending {
        state = lcg(state);
        sim.schedule(state % 10_000, ());
    }
    // Past the queue's growth phase before the clock starts.
    sim.run_steps(pending as u64 + 10_000);
    tr.span(name, |tr| {
        tr.items(black_box(sim.run_steps(HOLD_EVENTS)));
    });
}

/// The layer probes: fixed-size workouts of each crate's public functions,
/// the same on every workload, over a small capture made here from `seed`.
/// They give every traced run a number for every layer — including the
/// layers the workload itself never enters.
pub fn probes(
    tr: &mut Tracer,
    init_json: &str,
    seed: u64,
    sizes: &Sizes,
    scratch: &ScratchDir,
) -> Result<ProbeCounts, String> {
    let mut spec = crate::workload::build_spec(Workload::DeepNfs, init_json, seed, sizes)?;
    (spec.run.n_users, spec.run.sessions_per_user) = sizes.probe;
    let model = ModelConfig::default_nfs();
    let mut rng = StdRng::seed_from_u64(seed);

    // distr: the guided CDF-table draw the session planner makes.
    let think_time = spec.population.types()[0]
        .0
        .think_time
        .build()
        .map_err(err("distribution"))?;
    let table = CdfTable::from_distribution(&*think_time, spec.run.cdf_resolution)
        .map_err(err("CDF table"))?;
    tr.span("distr.sample", |tr| {
        for _ in 0..SAMPLE_DRAWS {
            black_box(table.sample(&mut rng));
        }
        tr.items(SAMPLE_DRAWS);
    });

    // sim: the calendar queue at the two run workloads' pending sizes, and
    // a resource queue.
    hold(tr, "sim.hold_small", sizes.deep.0, seed);
    hold(tr, "sim.hold_large", sizes.wide_users, seed);
    let mut resource = Resource::new("probe", 2);
    tr.span("sim.resource_serve", |tr| {
        let mut now = 0u64;
        let mut state = seed;
        for _ in 0..SERVE_CALLS {
            state = lcg(state);
            now += state >> 60;
            black_box(resource.serve(SimTime::from_micros(now), (state >> 40) % 16));
        }
        tr.items(SERVE_CALLS);
    });

    // usim without sim/netfs: planning + VFS execution only.
    let (mut vfs, catalog) = spec.generate_fs().map_err(err("probe FS"))?;
    let population = spec.compile().map_err(err("probe compile"))?;
    tr.span("usim.direct", |tr| {
        let log = DirectDriver::new()
            .run(&mut vfs, &catalog, &population, &spec.run)
            .map_err(err("direct driver"))?;
        tr.items(log.ops().len() as u64);
        Ok::<_, String>(())
    })?;
    drop((vfs, catalog));

    // The pipeline over the probe capture: encode, decode, scan, fit,
    // loopback, source, paced replay, saturated replay.
    let capture = scratch.join("probe.bin");
    tr.span("probe.capture", |tr| {
        capture_run(tr, &spec, &model, &capture)
    })?;
    let bytes = std::fs::metadata(&capture)
        .map_err(err("probe capture"))?
        .len();
    let frames = FrameIndex::load_path(&capture)
        .map_err(err("probe capture index"))?
        .ok_or("the probe capture has no index footer")?
        .frames() as u64;

    let open = || SpillReader::open(&capture).map_err(err("opening the probe capture"));
    tr.span("spill.decode", |tr| {
        let mut records = 0u64;
        for record in open()? {
            black_box(record.map_err(err("decoding the probe capture"))?);
            records += 1;
        }
        tr.items(records);
        Ok::<_, String>(())
    })?;
    // Untimed: the ops themselves, for the loopback probe.
    let ops: Vec<OpRecord> = open()?
        .ops_only()
        .filter_map(|record| match record {
            Ok(SpillRecord::Op(op)) => Some(Ok(op)),
            Ok(SpillRecord::Session(_)) => None,
            Err(e) => Some(Err(format!("decoding the probe capture: {e}"))),
        })
        .collect::<Result<_, _>>()?;
    let scanned = analyze(tr, &capture)?;
    if scanned.ops != ops.len() as u64 {
        return Err(format!(
            "probe capture: the scan saw {} ops, the reader {}",
            scanned.ops,
            ops.len()
        ));
    }
    fit(tr, &capture, &scratch.join("probe-fitted.json"))?;

    let loopback = LoopbackVfs::new(LoopbackConfig {
        seed,
        ..LoopbackConfig::default()
    });
    tr.span("vfs.loopback", |tr| {
        for op in &ops {
            loopback.apply(op).map_err(err("loopback apply"))?;
        }
        tr.items(ops.len() as u64);
        Ok::<_, String>(())
    })?;
    tr.span("drive.source_drain", |tr| {
        let mut source = SpillSource::open(&capture).map_err(err("opening the probe capture"))?;
        let mut drained = 0u64;
        while let Some(op) = source.next_op().map_err(err("probe source"))? {
            black_box(op);
            drained += 1;
        }
        tr.items(drained);
        Ok::<_, String>(())
    })?;

    let paced = tr.span("probe.replay", |tr| {
        replay(tr, &spec, &capture, PROBE_SPEEDUP)
    })?;
    let saturated = tr.span("probe.saturated", |tr| replay(tr, &spec, &capture, 1e6))?;
    Ok(ProbeCounts {
        capture_bytes: bytes,
        capture_ops: ops.len() as u64,
        frames,
        latency_p99_us: paced.report.latency.quantile(0.99),
        latency_p999_us: paced.report.latency.quantile(0.999),
        overrun_us: paced.overrun_us,
        paced_wall_us: paced.report.wall_micros,
        paced_apply_ns: paced.apply_ns,
        saturated_ops_per_s: saturated.report.goodput_ops_per_sec(),
    })
}

/// Offers the probe capture at ≈ 78 k ops/s, about the rate `drive_replay`
/// runs at.
const PROBE_SPEEDUP: f64 = 100.0;

/// What the probes measured that is not a span.
#[derive(Debug)]
pub struct ProbeCounts {
    pub capture_bytes: u64,
    pub capture_ops: u64,
    pub frames: u64,
    pub latency_p99_us: u64,
    pub latency_p999_us: u64,
    pub overrun_us: f64,
    pub paced_wall_us: u64,
    /// Summed `Target::apply` time of the paced replay's one worker.
    pub paced_apply_ns: u64,
    pub saturated_ops_per_s: f64,
}

/// Every per-layer metric, in print order, with its unit. `BENCHMARK.json`
/// lists the same names (a self-test compares the two).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("fsc.generate_fs_ms", "ms"),
    ("fsc.files_created", "count"),
    ("fsc.ns_per_file", "ns"),
    ("fsc.wall_share", "ratio"),
    ("usim.compile_ms", "ms"),
    ("usim.des_run_ms", "ms"),
    ("usim.events", "count"),
    ("usim.op_records", "count"),
    ("usim.host_ns_per_event", "ns"),
    ("usim.sink_ns_per_record", "ns"),
    ("usim.des_self_ms", "ms"),
    ("netfs.stages_calls", "count"),
    ("netfs.stages_ns_per_call", "ns"),
    ("netfs.stages_per_call", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("distr.sample_ns_per_draw", "ns"),
    ("sim.hold_ns_per_event_64", "ns"),
    ("sim.hold_ns_per_event_100k", "ns"),
    ("sim.resource_serve_ns", "ns"),
    ("usim.direct_ns_per_op", "ns"),
    ("spill.encode_ns_per_record", "ns"),
    ("spill.bytes_per_op", "B"),
    ("spill.frames", "count"),
    ("spill.decode_ns_per_record", "ns"),
    ("analyze.scan_ns_per_record", "ns"),
    ("analyze.fit_collect_ms", "ms"),
    ("core.synthesize_ms", "ms"),
    ("vfs.loopback_ns_per_op", "ns"),
    ("drive.source_next_ns_per_op", "ns"),
    ("drive.target_apply_ns_per_op", "ns"),
    ("drive.worker_busy_ratio", "ratio"),
    ("drive.latency_p99_us", "us"),
    ("drive.latency_p999_us", "us"),
    ("drive.overrun_ms", "ms"),
    ("drive.saturated_goodput_kops", "kops/s"),
];

fn per(total_ns: u64, n: u64) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// The per-layer metrics that come from the workload's own spans (first
/// fifteen of [`PER_LAYER`], less the overhead ratio the caller adds).
pub fn workload_metrics(tr: &Tracer, traced_wall_ns: u64) -> Vec<(&'static str, f64)> {
    let ms = |name| tr.total_ns(name) as f64 / 1e6;
    let generate_ns = tr.total_ns("fsc.generate_fs");
    let files = tr.total_items("fsc.generate_fs");
    let des_ns = tr.total_ns("usim.des_run");
    let events = tr.total_items("usim.des_run");
    let stages_calls = tr.total_calls("netfs.stages");
    vec![
        ("fsc.generate_fs_ms", ms("fsc.generate_fs")),
        ("fsc.files_created", files as f64),
        ("fsc.ns_per_file", per(generate_ns, files)),
        ("fsc.wall_share", generate_ns as f64 / traced_wall_ns as f64),
        ("usim.compile_ms", ms("usim.compile")),
        ("usim.des_run_ms", ms("usim.des_run")),
        ("usim.events", events as f64),
        ("usim.op_records", tr.total_items("usim.sink") as f64),
        ("usim.host_ns_per_event", per(des_ns, events)),
        (
            "usim.sink_ns_per_record",
            per(tr.total_ns("usim.sink"), tr.total_items("usim.sink")),
        ),
        ("usim.des_self_ms", tr.self_ns("usim.des_run") as f64 / 1e6),
        ("netfs.stages_calls", stages_calls as f64),
        (
            "netfs.stages_ns_per_call",
            per(tr.total_ns("netfs.stages"), stages_calls),
        ),
        (
            "netfs.stages_per_call",
            per(tr.total_items("netfs.stages"), stages_calls),
        ),
    ]
}

/// The per-layer metrics that come from the probes (the last twenty of
/// [`PER_LAYER`]).
pub fn probe_metrics(tr: &Tracer, counts: &ProbeCounts) -> Vec<(&'static str, f64)> {
    let per_item = |name| per(tr.total_ns(name), tr.total_items(name));
    let ms = |name| tr.total_ns(name) as f64 / 1e6;
    vec![
        ("distr.sample_ns_per_draw", per_item("distr.sample")),
        ("sim.hold_ns_per_event_64", per_item("sim.hold_small")),
        ("sim.hold_ns_per_event_100k", per_item("sim.hold_large")),
        ("sim.resource_serve_ns", per_item("sim.resource_serve")),
        ("usim.direct_ns_per_op", per_item("usim.direct")),
        ("spill.encode_ns_per_record", per_item("spill.encode")),
        (
            "spill.bytes_per_op",
            counts.capture_bytes as f64 / counts.capture_ops.max(1) as f64,
        ),
        ("spill.frames", counts.frames as f64),
        ("spill.decode_ns_per_record", per_item("spill.decode")),
        ("analyze.scan_ns_per_record", per_item("analyze.scan")),
        ("analyze.fit_collect_ms", ms("analyze.fit_collect")),
        ("core.synthesize_ms", ms("core.synthesize")),
        ("vfs.loopback_ns_per_op", per_item("vfs.loopback")),
        (
            "drive.source_next_ns_per_op",
            per_item("drive.source_drain"),
        ),
        (
            "drive.target_apply_ns_per_op",
            per(counts.paced_apply_ns, counts.capture_ops),
        ),
        (
            "drive.worker_busy_ratio",
            counts.paced_apply_ns as f64 / (counts.paced_wall_us.max(1) as f64 * 1e3),
        ),
        ("drive.latency_p99_us", counts.latency_p99_us as f64),
        ("drive.latency_p999_us", counts.latency_p999_us as f64),
        ("drive.overrun_ms", counts.overrun_us / 1e3),
        (
            "drive.saturated_goodput_kops",
            counts.saturated_ops_per_s / 1e3,
        ),
    ]
}

/// Wall clock of `f`, ns.
pub fn wall_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `uswg fit` writes names no scheduler; the replica's re-run
    /// must not take the process default.
    #[test]
    fn the_replica_runs_a_spec_without_a_scheduler_on_the_calendar() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let scratch = ScratchDir::create(&out, "load").unwrap();
        let spec = WorkloadSpec::paper_default().unwrap();
        assert_eq!(spec.run.scheduler, None);
        let path = scratch.join("fitted.json");
        std::fs::write(&path, spec.to_json().unwrap()).unwrap();
        let loaded = load_spec(&mut Tracer::new(false), &path).unwrap();
        assert_eq!(loaded.run.scheduler, Some(SchedulerBackend::Calendar));
    }
}
