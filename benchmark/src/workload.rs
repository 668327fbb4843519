//! The four named workloads: their specs, their set-up, and one measured
//! repetition of each on the shipped `uswg` binary, from outside.

use crate::child::{self, ChildOutcome};
use crate::parse::{self, RunReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use uswg_core::experiment::ModelConfig;
use uswg_core::{
    FillPattern, Owner, PopulationSpec, SchedulerBackend, SpillReader, SpillRecord, UsageClass,
    WorkloadSpec,
};

/// One of the benchmark's workloads. Names are part of the contract:
/// later issues cite them verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DeepNfs,
    WideLocal,
    CaptureLoop,
    DriveReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DeepNfs,
        Workload::WideLocal,
        Workload::CaptureLoop,
        Workload::DriveReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepNfs => "deep_nfs",
            Workload::WideLocal => "wide_local",
            Workload::CaptureLoop => "capture_loop",
            Workload::DriveReplay => "drive_replay",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--model` every DES run of this workload uses.
    pub fn model(self) -> &'static str {
        match self {
            Workload::WideLocal => "local",
            _ => "nfs",
        }
    }

    /// What the CLI builds from [`Self::model`], for the in-process replica.
    pub fn model_config(self) -> ModelConfig {
        match self {
            Workload::WideLocal => ModelConfig::default_local(),
            _ => ModelConfig::default_nfs(),
        }
    }

    /// What the workload's `work_per_s` / `cpu_us_per_unit` count: the
    /// quantity its cost is proportional to, so the metric holds still from
    /// seed to seed. `wide_local` is mostly per-user work (FS generation,
    /// login wave), and 2 % of its users do all the I/O.
    pub fn unit_of_work(self) -> &'static str {
        match self {
            Workload::WideLocal => "users",
            Workload::DriveReplay => "completed ops",
            _ => "DES kernel events",
        }
    }
}

/// Population sizes, `(users, sessions per user)`. One set is shipped; the
/// self-tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub deep: (usize, u32),
    pub wide_users: usize,
    pub capture: (usize, u32),
    pub drive: (usize, u32),
    /// The fixed capture every traced pass runs its layer probes over.
    pub probe: (usize, u32),
}

/// Sized so one repetition takes 1.5–3 s on the 2-core development box:
/// the acceptance driver gives each run about 30 s all told, and a median
/// over several short repetitions is steadier than one long one.
pub const SIZES: Sizes = Sizes {
    deep: (64, 40),
    wide_users: 100_000,
    capture: (64, 16),
    drive: (64, 6),
    probe: (16, 10),
};

/// `uswg drive --speedup`: offers the `drive` capture at ≈ 88 k ops/s, about
/// an eighth of one worker's capacity on the development box. With the
/// queue below, only a stall longer than ≈ 370 ms sheds anything, so shed
/// stays 0 run after run (at 200× and 8192 a 50 ms hiccup shed 1.2 k ops).
pub const DRIVE_SPEEDUP: u32 = 100;
pub const DRIVE_QUEUE_CAP: usize = 32_768;

/// Builds `workload`'s spec from the paper-default spec `uswg init` wrote,
/// overriding only what the workload is about — so spec fields added later
/// ride along untouched. `run.seed` is the harness seed.
pub fn build_spec(
    workload: Workload,
    init_json: &str,
    seed: u64,
    sizes: &Sizes,
) -> Result<WorkloadSpec, String> {
    let mut spec =
        WorkloadSpec::from_json(init_json).map_err(|e| format!("uswg init output: {e}"))?;
    let (users, sessions) = match workload {
        Workload::DeepNfs => sizes.deep,
        Workload::WideLocal => (sizes.wide_users, 1),
        Workload::CaptureLoop => sizes.capture,
        Workload::DriveReplay => sizes.drive,
    };
    spec.run.n_users = users;
    spec.run.sessions_per_user = sessions;
    spec.run.seed = seed;
    spec.run.scheduler = Some(SchedulerBackend::Calendar);
    spec.run.shards = None;
    if workload == Workload::WideLocal {
        // The `specs/million-user.json` shape: one sparse home file per
        // user, room for the inodes, and a population that only reads the
        // shared tree, 2 % of users per category — most logins do nothing,
        // so the run is FS generation plus a wide, shallow event queue.
        // The shared tree grows with the population: with the 120 files of
        // the 1-user default, a handful of sampled file sizes decide how
        // much every reader does and the event count swings ±12 % with the
        // seed; with 12 000 it stays within ±4 %.
        spec.fsc.files_per_user = 1;
        spec.fsc.shared_files = 12_000;
        spec.fsc.fill = FillPattern::Sparse;
        spec.vfs.max_inodes = 8_388_608;
        let types = spec
            .population
            .types()
            .iter()
            .map(|(user_type, share)| {
                let mut user_type = user_type.clone();
                user_type.categories.retain(|c| {
                    c.category.owner == Owner::Other && c.category.usage == UsageClass::ReadOnly
                });
                for c in &mut user_type.categories {
                    c.pct_users = 0.02;
                }
                (user_type, *share)
            })
            .collect();
        spec.population =
            PopulationSpec::new(types).map_err(|e| format!("wide population: {e}"))?;
    }
    Ok(spec)
}

/// A scratch directory under the benchmark's own `out/`, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(out: &Path, label: &str) -> Result<Self, String> {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = out.join(format!("tmp-{}-{label}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: the directory is git-ignored scratch either way.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the program under test and the benchmark's outputs live.
#[derive(Debug, Clone)]
pub struct Env {
    /// The shipped `uswg` binary.
    pub uswg: PathBuf,
    /// `benchmark/out/`.
    pub out: PathBuf,
}

/// What set-up leaves for the repetitions.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    pub dir: ScratchDir,
    pub spec: WorkloadSpec,
    pub spec_path: PathBuf,
    /// What `uswg init` wrote, for building further specs (the probes').
    pub init_json: String,
    /// `drive_replay` only: the capture the replay reads, and the report of
    /// the run that wrote it.
    pub capture: Option<(PathBuf, RunReport)>,
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("scratch paths are UTF-8")
}

/// Checks a run reported the session count its spec asks for.
pub fn check_sessions(what: &str, expected: u64, reported: u64) -> Result<(), String> {
    if expected == reported {
        Ok(())
    } else {
        Err(format!(
            "{what}: expected {expected} sessions (n_users × sessions_per_user), the run reported {reported}"
        ))
    }
}

pub fn expected_sessions(spec: &WorkloadSpec) -> u64 {
    spec.run.n_users as u64 * u64::from(spec.run.sessions_per_user)
}

/// The command line of every DES child. The scheduler is named on it, not
/// only in the spec: the fitted spec `capture_loop` re-runs is written by
/// `uswg fit` with `scheduler: null`, which would fall back to the heap.
fn run_args<'a>(spec_path: &'a Path, model: &'a str, mode: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec!["run", path_arg(spec_path), "--model", model];
    args.extend(["--scheduler", SchedulerBackend::Calendar.name()]);
    args.extend_from_slice(mode);
    args
}

/// `uswg run <spec> --model <m> --scheduler calendar <mode…>`, parsed and
/// session-checked.
fn run_spec(
    env: &Env,
    what: &str,
    spec_path: &Path,
    expected: u64,
    model: &str,
    mode: &[&str],
) -> Result<(ChildOutcome, RunReport), String> {
    let outcome = child::run(&env.uswg, &run_args(spec_path, model, mode))?;
    let report = parse::run_report(&outcome.stdout)?;
    check_sessions(what, expected, report.sessions)?;
    Ok((outcome, report))
}

/// The harness work before the timed region: write the workload's spec from
/// `uswg init` output, smoke-run it at 1 user × 1 session so a spec the
/// program rejects fails here and not inside a repetition, and for
/// `drive_replay` generate the capture to replay.
pub fn set_up(workload: Workload, seed: u64, sizes: &Sizes, env: &Env) -> Result<Prepared, String> {
    let dir = ScratchDir::create(&env.out, workload.name())?;
    let init_path = dir.join("init.json");
    child::run(&env.uswg, &["init", path_arg(&init_path)])?;
    let init_json = std::fs::read_to_string(&init_path)
        .map_err(|e| format!("reading {}: {e}", init_path.display()))?;
    let spec = build_spec(workload, &init_json, seed, sizes)?;
    let spec_path = dir.join("spec.json");
    write(&spec_path, &spec.to_json().map_err(|e| e.to_string())?)?;

    let mut smoke = spec.clone();
    smoke.run.n_users = 1;
    smoke.run.sessions_per_user = 1;
    let smoke_path = dir.join("smoke.json");
    write(&smoke_path, &smoke.to_json().map_err(|e| e.to_string())?)?;
    run_spec(
        env,
        "smoke run",
        &smoke_path,
        1,
        workload.model(),
        &["--summary"],
    )?;

    let capture = if workload == Workload::DriveReplay {
        let path = dir.join("capture.bin");
        let (_, report) = run_spec(
            env,
            "drive capture",
            &spec_path,
            expected_sessions(&spec),
            workload.model(),
            &["--spill", path_arg(&path)],
        )?;
        Some((path, report))
    } else {
        None
    };
    Ok(Prepared {
        workload,
        dir,
        spec,
        spec_path,
        init_json,
        capture,
    })
}

/// Simulated statistics of one repetition. A run is a pure function of spec
/// and seed, so every repetition of a workload must produce the same one,
/// and a speed-only change to the program must leave it as it was.
pub type Fingerprint = BTreeMap<String, u64>;

fn fingerprint_run(print: &mut Fingerprint, stage: &str, report: &RunReport) {
    for (key, value) in [
        ("events", report.events),
        ("simulated_us", report.simulated_us),
        ("data_ops", report.data_ops),
        ("sessions", report.sessions),
    ] {
        print.insert(format!("{stage}.{key}"), value);
    }
}

/// One measured repetition of a workload's whole command sequence.
#[derive(Debug)]
pub struct Rep {
    /// Summed wall clock of the sequence's children, program set-up
    /// included: users pay FS generation on every run.
    pub wall_s: f64,
    /// Summed user + system CPU of the children.
    pub cpu_s: f64,
    /// Largest peak RSS among the children.
    pub peak_rss_mb: f64,
    /// Units of work done (see [`Workload::unit_of_work`]).
    pub units: u64,
    /// Operations the program attempted / failed, for the result line.
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: Fingerprint,
    /// `wall_s` and the metrics only this workload has (stage walls,
    /// latencies…): `(name, unit, value)`.
    pub extras: Vec<(&'static str, &'static str, f64)>,
}

#[derive(Default)]
struct Cost {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

impl Cost {
    fn add(&mut self, child: &ChildOutcome) {
        self.wall_s += child.wall_s;
        self.cpu_s += child.cpu_s;
        self.peak_rss_mb = self.peak_rss_mb.max(child.peak_rss_mb);
    }
}

pub fn rep(p: &Prepared, env: &Env) -> Result<Rep, String> {
    let mut cost = Cost::default();
    let mut fingerprint = Fingerprint::new();
    let mut extras = Vec::new();
    let expected = expected_sessions(&p.spec);
    let model = p.workload.model();
    let (units, attempted, failed);

    match p.workload {
        Workload::DeepNfs | Workload::WideLocal => {
            let (child, report) =
                run_spec(env, "run", &p.spec_path, expected, model, &["--summary"])?;
            cost.add(&child);
            fingerprint_run(&mut fingerprint, "run", &report);
            // Faults are off in every spec, so the DES aborts nothing; a
            // run that fails at all fails the whole benchmark run instead.
            units = match p.workload {
                Workload::WideLocal => report.sessions,
                _ => report.events,
            };
            (attempted, failed) = (report.data_ops, 0);
        }
        Workload::CaptureLoop => {
            let capture_path = p.dir.join("capture.bin");
            let fitted_path = p.dir.join("fitted.json");

            let (capture, captured) = run_spec(
                env,
                "capture",
                &p.spec_path,
                expected,
                model,
                &["--spill", path_arg(&capture_path)],
            )?;
            let analyze = child::run(&env.uswg, &["analyze", path_arg(&capture_path), "--json"])?;
            let fit = child::run(
                &env.uswg,
                &[
                    "fit",
                    path_arg(&capture_path),
                    "--out",
                    path_arg(&fitted_path),
                ],
            )?;
            // The fitted spec carries its own population size.
            let fitted = std::fs::read_to_string(&fitted_path)
                .map_err(|e| format!("reading the fitted spec: {e}"))
                .and_then(|json| {
                    WorkloadSpec::from_json(&json).map_err(|e| format!("fitted spec: {e}"))
                })?;
            let (rerun, regenerated) = run_spec(
                env,
                "re-run of the fitted spec",
                &fitted_path,
                expected_sessions(&fitted),
                model,
                &["--summary"],
            )?;

            let spilled = captured
                .spilled_ops
                .ok_or("run --spill did not report its op count")?;
            let analyzed = parse::analyze_report(&analyze.stdout)?;
            if analyzed.ops != spilled || analyzed.sessions != captured.sessions {
                return Err(format!(
                    "analyze saw {} ops / {} sessions, run --spill reported {spilled} / {}",
                    analyzed.ops, analyzed.sessions, captured.sessions
                ));
            }
            let capture_bytes = std::fs::metadata(&capture_path)
                .map_err(|e| format!("capture file: {e}"))?
                .len();

            for child in [&capture, &analyze, &fit, &rerun] {
                cost.add(child);
            }
            fingerprint_run(&mut fingerprint, "capture", &captured);
            fingerprint.insert("capture.ops".into(), spilled);
            fingerprint.insert("capture.bytes".into(), capture_bytes);
            fingerprint_run(&mut fingerprint, "rerun", &regenerated);
            extras.extend([
                ("capture_s", "s", capture.wall_s),
                ("analyze_s", "s", analyze.wall_s),
                ("fit_s", "s", fit.wall_s),
                ("rerun_s", "s", rerun.wall_s),
                (
                    "capture_bytes_per_op",
                    "B/op",
                    capture_bytes as f64 / spilled as f64,
                ),
            ]);
            units = captured.events + regenerated.events;
            (attempted, failed) = (spilled, analyzed.aborted_ops);
        }
        Workload::DriveReplay => {
            let (capture_path, captured) = p.capture.as_ref().expect("set-up made the capture");
            let speedup = DRIVE_SPEEDUP.to_string();
            let queue_cap = DRIVE_QUEUE_CAP.to_string();
            let child = child::run(
                &env.uswg,
                &[
                    "drive",
                    path_arg(&p.spec_path),
                    "--from-spill",
                    path_arg(capture_path),
                    "--speedup",
                    &speedup,
                    "--max-in-flight",
                    "1",
                    "--queue-cap",
                    &queue_cap,
                ],
            )?;
            let report = parse::drive_report(&child.stdout)?;
            let lost = report.shed + report.expired + report.aborted;
            if report.offered != report.completed + lost {
                return Err(format!("drive accounting does not add up: {report:?}"));
            }
            if Some(report.offered) != captured.spilled_ops {
                return Err(format!(
                    "drive offered {} ops, the capture holds {:?}",
                    report.offered, captured.spilled_ops
                ));
            }
            cost.add(&child);
            fingerprint_run(&mut fingerprint, "capture", captured);
            fingerprint.insert("drive.offered".into(), report.offered);
            extras.extend([
                ("latency_p50_us", "us", report.p50_us as f64),
                ("latency_p99_us", "us", report.p99_us as f64),
            ]);
            (units, attempted, failed) = (report.completed, report.offered, lost);
        }
    }
    extras.insert(0, ("wall_s", "s", cost.wall_s));
    Ok(Rep {
        wall_s: cost.wall_s,
        cpu_s: cost.cpu_s,
        peak_rss_mb: cost.peak_rss_mb,
        units,
        attempted,
        failed,
        fingerprint,
        extras,
    })
}

/// Op and session records in a capture, by reading it with `SpillReader` —
/// the third witness beside `run --spill`'s report and `analyze`'s.
pub fn count_capture(path: &Path) -> Result<(u64, u64), String> {
    let reader = SpillReader::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let (mut ops, mut sessions) = (0, 0);
    for record in reader {
        match record.map_err(|e| format!("decoding {}: {e}", path.display()))? {
            SpillRecord::Op(_) => ops += 1,
            SpillRecord::Session(_) => sessions += 1,
        }
    }
    Ok((ops, sessions))
}

/// The capture a finished workload left behind and the `(ops, sessions)`
/// its run reported, if the workload makes one.
pub fn capture_of(p: &Prepared, rep: &Rep) -> Option<(PathBuf, (u64, u64))> {
    match p.workload {
        Workload::CaptureLoop => Some((
            p.dir.join("capture.bin"),
            (
                rep.fingerprint["capture.ops"],
                rep.fingerprint["capture.sessions"],
            ),
        )),
        Workload::DriveReplay => {
            let (path, report) = p.capture.as_ref()?;
            Some((path.clone(), (report.spilled_ops?, report.sessions)))
        }
        _ => None,
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Small enough for a debug-speed self-test, large enough to have
    /// several sessions per user and several users.
    pub const TINY: Sizes = Sizes {
        deep: (3, 2),
        wide_users: 40,
        capture: (3, 2),
        drive: (2, 1),
        probe: (2, 1),
    };

    fn init_json() -> String {
        WorkloadSpec::paper_default().unwrap().to_json().unwrap()
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("deep-nfs"), None);
    }

    #[test]
    fn specs_carry_the_seed_and_only_the_named_overrides() {
        let default = WorkloadSpec::paper_default().unwrap();
        let deep = build_spec(Workload::DeepNfs, &init_json(), 77, &SIZES).unwrap();
        assert_eq!(deep.run.seed, 77);
        assert_eq!((deep.run.n_users, deep.run.sessions_per_user), SIZES.deep);
        assert_eq!(deep.run.scheduler, Some(SchedulerBackend::Calendar));
        assert_eq!(deep.run.shards, None);
        assert_eq!(
            (&deep.fsc, &deep.population, &deep.vfs),
            (&default.fsc, &default.population, &default.vfs)
        );

        let wide = build_spec(Workload::WideLocal, &init_json(), 78, &SIZES).unwrap();
        assert_eq!(wide.run.seed, 78);
        assert_eq!(
            (wide.run.n_users, wide.run.sessions_per_user),
            (SIZES.wide_users, 1)
        );
        assert_eq!(
            (wide.fsc.files_per_user, wide.fsc.fill),
            (1, FillPattern::Sparse)
        );
        let categories = &wide.population.types()[0].0.categories;
        assert_eq!(categories.len(), 3, "Dir/Reg/Notes × Other × ReadOnly");
        assert!(categories.iter().all(|c| c.pct_users == 0.02));
        wide.compile()
            .expect("the reduced population still compiles");
    }

    /// Every DES child, the fitted re-run included, is told its scheduler.
    #[test]
    fn every_des_child_is_given_the_calendar_scheduler() {
        let args = run_args(Path::new("fitted.json"), "nfs", &["--summary"]);
        assert_eq!(
            args,
            [
                "run",
                "fitted.json",
                "--model",
                "nfs",
                "--scheduler",
                "calendar",
                "--summary"
            ]
        );
    }

    #[test]
    fn a_wrong_session_count_is_an_error() {
        assert!(check_sessions("run", 2560, 2560).is_ok());
        let err = check_sessions("run", 2560, 2559).unwrap_err();
        assert!(
            err.contains("expected 2560") && err.contains("2559"),
            "{err}"
        );
    }

    #[test]
    fn scratch_dirs_are_distinct_and_removed_on_drop() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let (a, b) = (
            ScratchDir::create(&out, "x").unwrap(),
            ScratchDir::create(&out, "x").unwrap(),
        );
        let (pa, pb) = (a.join(""), b.join(""));
        assert_ne!(pa, pb);
        assert!(pa.is_dir() && pb.is_dir());
        drop((a, b));
        assert!(!pa.exists() && !pb.exists());
    }
}
