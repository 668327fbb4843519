//! Library half of the `uswg` command-line tool: argument parsing and the
//! subcommand implementations, separated from `main` so they are testable.
//!
//! Subcommands (the workflow of the paper's Figure 4.1, without the X11
//! session):
//!
//! * `uswg init <spec.json>` — write the paper-default workload spec for
//!   editing (the "specify distributions" step);
//! * `uswg run <spec.json> [--model M] [--out log.json]` — build the file
//!   system, simulate the users (under no timing model unless `--model`
//!   names one), print the summary tables;
//! * `uswg fit <data.txt> --family exp|phase:K|gamma:K` — fit a
//!   distribution family to one-number-per-line data and report fit
//!   quality (the GDS fitting step);
//! * `uswg fit <run.bin> [--out spec.json]` — close the loop: stream a
//!   spill capture through the fit collector, model every usage measure
//!   with the best family by KS distance, and emit a complete runnable
//!   workload spec (the paper's measure → characterize → regenerate
//!   cycle);
//! * `uswg analyze <run.bin>` — the Usage Analyzer over a spill file:
//!   stream the binary log through the `uswg_analyze` machinery (op mix,
//!   access-size/response summaries, per-user-type breakdown) without ever
//!   reconstructing a `UsageLog` in memory;
//! * `uswg sweep <spec.json> --model M --users 1,2,4…` — run a Chapter 5
//!   sweep (users, mix or access size) across cores, memory-flat by
//!   default;
//! * `uswg replicate <spec.json> --model M --seeds …` — rerun the same
//!   workload under independent seeds and report the 95% CI;
//! * `uswg drive <spec.json> --model M` — stream the workload open-loop
//!   against a live in-process target in scaled wall time (bounded queue,
//!   shed-oldest, deadlines, retries), fed by a concurrent DES producer
//!   or, with `--from-spill`, by a previous capture;
//! * `uswg tables` — print the built-in Table 5.1/5.2/5.4 presets.
//!
//! The crate is a shell — it parses, dispatches and renders; every decision
//! about a workload or a capture belongs to the library crates. `command`
//! holds [`Command`] and the usage text, `parse` the flag grammar, and one
//! module per subcommand family runs and renders it: `run` (init, run,
//! tables), `experiment` (sweep, replicate), `capture` (analyze, fit) and
//! `drive`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capture;
mod command;
mod drive;
mod experiment;
mod parse;
mod run;

pub use command::{Command, Family, SeedSpec, SweepAxis, USAGE};
pub use parse::{parse_args, parse_family, parse_model};

use serde::Serialize;
use uswg_core::metrics::OpKindSummary;
use uswg_core::{CoreError, DistrError, Table, WorkloadSpec};

/// Errors produced by the CLI layer.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// Problem reading or writing a file (the message names the file).
    Io(std::io::Error),
    /// Workload-generator error.
    Core(CoreError),
    /// Distribution-engine error.
    Distr(DistrError),
    /// Live-driver error.
    Drive(uswg_drive::DriveError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Distr(e) => write!(f, "{e}"),
            CliError::Drive(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::Core(e)
    }
}
impl From<DistrError> for CliError {
    fn from(e: DistrError) -> Self {
        CliError::Distr(e)
    }
}
impl From<uswg_drive::DriveError> for CliError {
    fn from(e: uswg_drive::DriveError) -> Self {
        CliError::Drive(e)
    }
}

/// Turns an I/O error into a [`CliError::Io`] that names the file it is
/// about. There is no `From<io::Error>`: every file the CLI touches goes
/// through here, so no such error reaches the user without its path.
fn at(path: &str) -> impl Fn(std::io::Error) -> CliError + '_ {
    move |e| CliError::Io(std::io::Error::new(e.kind(), format!("{path}: {e}")))
}

/// Exit status of a successful command (everything is fine).
pub const EXIT_OK: i32 = 0;
/// Exit status of `analyze --salvage` over a truncated file: the report
/// covers the intact prefix only. (Hard failures exit 2 via `main`.)
pub const EXIT_SALVAGED: i32 = 3;

/// What a subcommand produces: the text to print and the exit status.
type Outcome = Result<(String, i32), CliError>;

fn ok(text: String) -> Outcome {
    Ok((text, EXIT_OK))
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Propagates I/O, parsing and simulation errors.
pub fn execute(command: Command) -> Result<String, CliError> {
    execute_with_status(command).map(|(text, _)| text)
}

/// Executes a parsed command, returning the text to print and the exit
/// status (`EXIT_OK`, or `EXIT_SALVAGED` for a salvaged analysis).
///
/// # Errors
///
/// Propagates I/O, parsing and simulation errors.
pub fn execute_with_status(command: Command) -> Result<(String, i32), CliError> {
    command.validate()?;
    match command {
        Command::Help => ok(USAGE.to_string()),
        Command::Tables => ok(run::tables()),
        Command::Init { path } => run::init(&path),
        Command::Run { .. } => run::run(command),
        Command::Sweep { .. } => experiment::sweep(command),
        Command::Replicate { .. } => experiment::replicate(command),
        Command::Fit { .. } => capture::fit(command),
        Command::Analyze { .. } => capture::analyze(command),
        Command::Drive { .. } => drive::drive(command),
    }
}

/// Reads the workload spec at `path`.
fn load_spec(path: &str) -> Result<WorkloadSpec, CliError> {
    Ok(WorkloadSpec::from_json(
        &std::fs::read_to_string(path).map_err(at(path))?,
    )?)
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(at(path))
}

/// A `--json` report: pretty-printed, newline-terminated.
fn json_report<T: Serialize>(report: &T) -> Result<String, CliError> {
    let mut text = serde_json::to_string_pretty(report).map_err(CoreError::from)?;
    text.push('\n');
    Ok(text)
}

/// The per-system-call table of `run` and `analyze`.
fn op_table(rows: Vec<OpKindSummary>) -> String {
    let mut table = Table::new(vec![
        "system call",
        "count",
        "access size (B)",
        "response (µs)",
    ])
    .with_title("Per-system-call summary");
    for row in rows {
        table.row(vec![
            row.kind.to_string(),
            row.count.to_string(),
            row.access_size.mean_std(),
            row.response.mean_std(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;
    use std::num::NonZeroUsize;
    use uswg_core::experiment::ModelConfig;
    use uswg_core::{Distribution, LogSink, SpillSink, UsageLog};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_help_and_tables() {
        assert_eq!(parse_args(argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(Vec::new()).unwrap(), Command::Help);
        assert_eq!(parse_args(argv("tables")).unwrap(), Command::Tables);
    }

    #[test]
    fn parses_run_variants() {
        let cmd = parse_args(argv("run spec.json --model nfs --out log.json")).unwrap();
        match cmd {
            Command::Run {
                path,
                model,
                out,
                spill,
                users,
                summary,
            } => {
                assert_eq!(path, "spec.json");
                assert_eq!(model.name(), "nfs");
                assert_eq!(out.as_deref(), Some("log.json"));
                assert_eq!(spill, None);
                assert_eq!(users, None);
                assert!(!summary);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(argv("run spec.json --model nfs --summary --users 1000000")).unwrap();
        match cmd {
            Command::Run { users, summary, .. } => {
                assert_eq!(users, NonZeroUsize::new(1_000_000));
                assert!(summary);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(argv("run spec.json --model nfs --spill log.bin")).unwrap();
        match cmd {
            Command::Run { spill, .. } => assert_eq!(spill.as_deref(), Some("log.bin")),
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(argv("run spec.json")).unwrap();
        assert!(matches!(
            cmd,
            Command::Run {
                model: ModelConfig::None,
                ..
            }
        ));
        let none = parse_args(argv("run spec.json --model none")).unwrap();
        assert_eq!(none, cmd);
        let cmd = parse_args(argv("run spec.json --model distributed:3")).unwrap();
        match cmd {
            Command::Run { model: m, .. } => assert_eq!(m.name(), "distributed-nfs"),
            other => panic!("{other:?}"),
        }
        let with = parse_args(argv("run spec.json --model nfs --scheduler calendar")).unwrap();
        assert_eq!(with, parse_args(argv("run spec.json --model nfs")).unwrap());
        let with = parse_args(argv("run spec.json --model nfs --shards 1")).unwrap();
        assert_eq!(with, parse_args(argv("run spec.json --model nfs")).unwrap());
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse_args(argv("run")).is_err());
        assert!(parse_args(argv("run spec.json --model warp-drive")).is_err());
        assert!(parse_args(argv("run spec.json --scheduler splay")).is_err());
        let heap = parse_args(argv("run spec.json --scheduler heap"));
        assert!(matches!(heap, Err(CliError::Usage(msg)) if msg.contains("removed")));
        assert!(parse_args(argv("run spec.json --scheduler")).is_err());
        assert!(parse_args(argv("run spec.json --bogus")).is_err());
        assert!(parse_args(argv("frobnicate")).is_err());
        // Fit flag validation: values must parse, the window must be
        // non-empty, and sampling every 0th frame is meaningless.
        assert!(parse_args(argv("fit data.txt --family")).is_err());
        assert!(parse_args(argv("fit data.txt --bogus")).is_err());
        assert!(parse_args(argv("fit cap.bin --sample 0")).is_err());
        assert!(parse_args(argv("fit cap.bin --since ten")).is_err());
        assert!(parse_args(argv("fit cap.bin --since 10 --until 5")).is_err());
        assert!(parse_args(argv("fit cap.bin --out")).is_err());
        // Analyze needs a path and rejects flags it doesn't know.
        assert!(parse_args(argv("analyze")).is_err());
        assert!(parse_args(argv("analyze run.bin --frobnicate")).is_err());
        assert!(parse_model("distributed:0").is_err());
        assert!(parse_model("distributed:65536").is_ok());
        assert!(parse_model("distributed:65537").is_err());
        assert!(parse_family("phase:0").is_err());
        assert!(parse_family("phase:99").is_err());
        assert!(parse_family("cauchy").is_err());
        // The direct driver is gone: the refusal names what replaced it.
        let direct = parse_args(argv("run spec.json --direct"));
        assert!(matches!(direct, Err(CliError::Usage(msg)) if msg.contains("--model none")));
        // Every run streams, so --spill and --summary need no model; a
        // summary keeps no log for --out/--spill to write.
        assert!(parse_args(argv("run spec.json --spill log.bin")).is_ok());
        assert!(parse_args(argv("run spec.json --summary")).is_ok());
        assert!(parse_args(argv("run spec.json --model nfs --summary --out log.json")).is_err());
        assert!(parse_args(argv("run spec.json --model nfs --summary --spill log.bin")).is_err());
        // The population override must be a positive count.
        assert!(parse_args(argv("run spec.json --users 0")).is_err());
        assert!(parse_args(argv("run spec.json --users many")).is_err());
        assert!(parse_args(argv("run spec.json --users")).is_err());
        // A shard count must be a count, and above 1 it is refused.
        assert!(parse_args(argv("sweep spec.json --model nfs --users 1 --shards 2")).is_err());
        assert!(parse_args(argv("run spec.json --model nfs --shards 0")).is_err());
        assert!(parse_args(argv("run spec.json --model nfs --shards lots")).is_err());
        // Sweep needs a model and exactly one axis.
        assert!(parse_args(argv("sweep spec.json --users 1,2")).is_err());
        assert!(parse_args(argv("sweep spec.json --model nfs")).is_err());
        assert!(parse_args(argv("sweep spec.json --model nfs --users 1 --mix 0.5")).is_err());
        assert!(parse_args(argv("sweep spec.json --model nfs --users banana")).is_err());
        assert!(parse_args(argv("sweep spec.json --model nfs --mix nan")).is_err());
        assert!(parse_args(argv("sweep spec.json --model nfs --mix -0.5,1.5")).is_err());
        // The retention switch is gone: every point streams into a summary.
        assert!(parse_args(argv(
            "sweep spec.json --model nfs --users 1,2 --mode summary"
        ))
        .is_err());
        assert!(parse_args(argv("sweep spec.json --model nfs --users 1,2 --jobs 0")).is_err());
        // Replicate seed plumbing.
        assert!(parse_args(argv("replicate spec.json")).is_err());
        assert!(parse_args(argv("replicate spec.json --model nfs --replicates 0")).is_err());
        // Absurd counts are rejected at parse time, before SeedSpec would
        // materialize the seed vector.
        assert!(parse_args(argv(
            "replicate spec.json --model nfs --replicates 18446744073709551615"
        ))
        .is_err());
        assert!(parse_args(argv(
            "replicate spec.json --model nfs --seeds 1 --replicates 2"
        ))
        .is_err());
        let repeated = parse_args(argv("replicate spec.json --model nfs --seeds 7,8,7"));
        assert!(matches!(repeated, Err(CliError::Usage(msg)) if msg.contains("lists 7 twice")));
    }

    #[test]
    fn parses_sweep_and_replicate() {
        let cmd = parse_args(argv(
            "sweep spec.json --model nfs --users 1,2,4 --jobs 2 --shards 1",
        ))
        .unwrap();
        match cmd {
            Command::Sweep {
                path,
                model,
                axis,
                jobs,
            } => {
                assert_eq!(path, "spec.json");
                assert_eq!(model.name(), "nfs");
                assert_eq!(axis, SweepAxis::Users(vec![1, 2, 4]));
                assert_eq!(jobs, Some(2));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(argv("sweep spec.json --model local --mix 0,0.5,1")).unwrap();
        match cmd {
            Command::Sweep { axis, .. } => {
                assert_eq!(axis, SweepAxis::Mix(vec![0.0, 0.5, 1.0]));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(argv("sweep spec.json --model local --sizes 128,2048")).unwrap();
        assert!(matches!(
            cmd,
            Command::Sweep {
                axis: SweepAxis::Sizes(_),
                ..
            }
        ));
        let cmd = parse_args(argv("replicate spec.json --model nfs --seeds 7,8,9")).unwrap();
        match cmd {
            Command::Replicate { seeds, .. } => {
                assert_eq!(seeds, SeedSpec::List(vec![7, 8, 9]));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(argv("replicate spec.json --model nfs --replicates 3")).unwrap();
        match cmd {
            Command::Replicate { seeds, .. } => {
                assert_eq!(seeds, SeedSpec::Count(3));
                assert_eq!(seeds.resolve(100), vec![100, 101, 102]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_analyze() {
        assert_eq!(
            parse_args(argv("analyze run.bin")).unwrap(),
            Command::Analyze {
                path: "run.bin".into(),
                json: false,
                by_type: false,
                salvage: false,
                since: None,
                until: None,
                sample: None,
            }
        );
        assert_eq!(
            parse_args(argv(
                "analyze run.bin --json --by-type --salvage --since 100 \
                 --until 900 --sample 10"
            ))
            .unwrap(),
            Command::Analyze {
                path: "run.bin".into(),
                json: true,
                by_type: true,
                salvage: true,
                since: Some(100),
                until: Some(900),
                sample: Some(10),
            }
        );
        // Windowed flags validate their values.
        assert!(parse_args(argv("analyze run.bin --since")).is_err());
        assert!(parse_args(argv("analyze run.bin --since later")).is_err());
        assert!(parse_args(argv("analyze run.bin --sample 0")).is_err());
        assert!(parse_args(argv("analyze run.bin --jobs 2")).is_err());
        assert!(parse_args(argv("analyze run.bin --since 10 --until 5")).is_err());
    }

    #[test]
    fn parses_drive() {
        let cmd = parse_args(argv(
            "drive spec.json --model nfs --speedup 100 --max-in-flight 8 \
             --queue-cap 64 --deadline-us 5000 --service-us 200 --fail-ppm 1000",
        ))
        .unwrap();
        match cmd {
            Command::Drive {
                path,
                model,
                from_spill,
                speedup,
                max_in_flight,
                queue_cap,
                deadline_micros,
                service_micros,
                fail_ppm,
            } => {
                assert_eq!(path, "spec.json");
                assert_eq!(model.unwrap().name(), "nfs");
                assert_eq!(from_spill, None);
                assert_eq!(speedup, 100.0);
                assert_eq!(max_in_flight, 8);
                assert_eq!(queue_cap, 64);
                assert_eq!(deadline_micros, 5000);
                assert_eq!(service_micros, 200);
                assert_eq!(fail_ppm, 1000);
            }
            other => panic!("{other:?}"),
        }
        // Defaults.
        let cmd = parse_args(argv("drive spec.json --model local")).unwrap();
        match cmd {
            Command::Drive {
                speedup,
                max_in_flight,
                queue_cap,
                deadline_micros,
                ..
            } => {
                assert_eq!(speedup, 1.0);
                assert_eq!(max_in_flight, 4);
                assert_eq!(queue_cap, 1024);
                assert_eq!(deadline_micros, 0);
            }
            other => panic!("{other:?}"),
        }
        // A capture replay needs no model.
        let cmd = parse_args(argv("drive spec.json --from-spill cap.bin")).unwrap();
        match cmd {
            Command::Drive {
                model, from_spill, ..
            } => {
                assert_eq!(model, None);
                assert_eq!(from_spill.as_deref(), Some("cap.bin"));
            }
            other => panic!("{other:?}"),
        }
        // Rejections.
        assert!(parse_args(argv("drive")).is_err());
        assert!(parse_args(argv("drive spec.json")).is_err());
        // A capture already fixes the op stream — a model is contradictory.
        assert!(parse_args(argv("drive spec.json --model nfs --from-spill cap.bin")).is_err());
        assert!(parse_args(argv("drive spec.json --model nfs --speedup 0")).is_err());
        assert!(parse_args(argv("drive spec.json --model nfs --speedup nan")).is_err());
        assert!(parse_args(argv("drive spec.json --model nfs --max-in-flight 0")).is_err());
        assert!(parse_args(argv("drive spec.json --model nfs --queue-cap 0")).is_err());
        assert!(parse_args(argv("drive spec.json --model nfs --fail-ppm 2000000")).is_err());
        assert!(parse_args(argv("drive spec.json --model nfs --warp 9")).is_err());
    }

    #[test]
    fn parses_families() {
        assert_eq!(parse_family("exp").unwrap(), Family::Exponential);
        assert_eq!(parse_family("phase:3").unwrap(), Family::PhaseType(3));
        assert_eq!(parse_family("gamma:2").unwrap(), Family::Gamma(2));
    }

    #[test]
    fn parses_fit() {
        // Text-data form: a family, nothing else.
        assert_eq!(
            parse_args(argv("fit data.txt --family exp")).unwrap(),
            Command::Fit {
                path: "data.txt".into(),
                family: Some(Family::Exponential),
                out: None,
                json: false,
                since: None,
                until: None,
                sample: None,
            }
        );
        // Capture form: no family needed at parse time (the file's magic
        // decides at execution), window and output flags accepted.
        assert_eq!(
            parse_args(argv(
                "fit cap.bin --out spec.json --json --since 100 --until 900 --sample 4"
            ))
            .unwrap(),
            Command::Fit {
                path: "cap.bin".into(),
                family: None,
                out: Some("spec.json".into()),
                json: true,
                since: Some(100),
                until: Some(900),
                sample: Some(4),
            }
        );
    }

    /// A temp directory unique to this test *invocation*: pid alone is not
    /// enough (every test of one run shares it), so a process-wide
    /// monotonic counter disambiguates tests that use the same label —
    /// and repeated helpers within one test.
    fn unique_test_dir(label: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("uswg-cli-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `uswg <args>` in-process: the printed text and exit status.
    fn cli(args: &str) -> Outcome {
        parse_args(argv(args)).and_then(execute_with_status)
    }

    /// The text of a `uswg <args>` that must exit 0.
    fn cli_ok(args: &str) -> String {
        let (text, status) = cli(args).unwrap_or_else(|e| panic!("{args}: {e}"));
        assert_eq!(status, EXIT_OK, "{args}: {text}");
        text
    }

    /// `dir/name` as a command-line operand.
    fn arg(dir: &std::path::Path, name: &str) -> String {
        dir.join(name).display().to_string()
    }

    /// The paper-default spec at two sessions per user over a small file
    /// system, edited by `edit` and written to `dir/spec.json`.
    fn small_spec(dir: &std::path::Path, edit: impl FnOnce(&mut WorkloadSpec)) -> WorkloadSpec {
        let mut spec = WorkloadSpec::paper_default().unwrap();
        spec.run.sessions_per_user = 2;
        spec.fsc = spec
            .fsc
            .with_files_per_user(8)
            .unwrap()
            .with_shared_files(10)
            .unwrap();
        edit(&mut spec);
        std::fs::write(dir.join("spec.json"), spec.to_json().unwrap()).unwrap();
        spec
    }

    #[test]
    fn help_and_tables_render() {
        let help = execute(Command::Help).unwrap();
        assert!(help.contains("uswg run"));
        let tables = execute(Command::Tables).unwrap();
        assert!(tables.contains("Table 5.1"));
        assert!(tables.contains("REG/USER/TEMP"));
        assert!(tables.contains("extremely heavy I/O"));
    }

    #[test]
    fn init_run_fit_round_trip() {
        let dir = unique_test_dir("test");
        let (spec, log_path) = (arg(&dir, "spec.json"), dir.join("log.json"));
        assert!(cli_ok(&format!("init {spec}")).contains("wrote"));

        // init wrote the paper default; shrink it so the test is fast
        let written = WorkloadSpec::from_json(&std::fs::read_to_string(&spec).unwrap()).unwrap();
        assert_eq!(written.run, WorkloadSpec::paper_default().unwrap().run);
        small_spec(&dir, |_| {});

        // run (no model) with log output: every response is zero
        let out = cli_ok(&format!("run {spec} --out {}", log_path.display()));
        assert!(out.contains("model none"));
        assert!(out.contains("Per-system-call summary"));
        assert!(out.contains("sessions: 2"));
        let log = UsageLog::from_json(&std::fs::read_to_string(&log_path).unwrap()).unwrap();
        assert!(!log.ops().is_empty());
        assert!(log.ops().iter().all(|op| op.response == 0));

        // run (modelled)
        let out = cli_ok(&format!("run {spec} --model local"));
        assert!(out.contains("response time per byte"));

        // summary mode with a population override: O(1)-memory headline run.
        let out = cli_ok(&format!("run {spec} --model local --users 3 --summary"));
        // 3 users × 2 sessions each: the override reached the DES.
        assert!(out.contains("model local"));
        assert!(out.contains("sessions: 6"));

        // fit
        let data = arg(&dir, "data.txt");
        let mut body = String::from("# exponential-ish data\n");
        let truth = uswg_core::Exponential::new(500.0).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        for _ in 0..500 {
            let _ = writeln!(body, "{:.3}", truth.sample(&mut rng));
        }
        std::fs::write(&data, body).unwrap();
        assert!(cli_ok(&format!("fit {data} --family exp")).contains("KS D ="));

        // A text data file without --family is caught at execution, with
        // the capture-only flags rejected for the same reason.
        let err = cli(&format!("fit {data}"));
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("--family")));
        let err = cli(&format!("fit {data} --json"));
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("not one")));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_replicate_and_spill_smoke() {
        let dir = unique_test_dir("exp-test");
        let spec = small_spec(&dir, |_| {});
        let (spec_arg, spill_arg) = (arg(&dir, "spec.json"), arg(&dir, "log.bin"));

        // sweep: one table per axis.
        let out = cli_ok(&format!(
            "sweep {spec_arg} --model nfs --users 1,2 --jobs 1"
        ));
        assert!(out.contains("Sweep — model nfs"), "{out}");
        let out = cli_ok(&format!("sweep {spec_arg} --model local --mix 0,1"));
        assert!(out.contains("Sweep — model local"), "{out}");
        assert!(out.contains("heavy frac"), "{out}");

        // replicate: per-seed rows plus the CI and pooled lines.
        let out = cli_ok(&format!(
            "replicate {spec_arg} --model local --seeds 5,6 --jobs 1"
        ));
        assert!(out.contains("Replication study — model local"), "{out}");
        assert!(out.contains("95% CI"), "{out}");
        assert!(out.contains("pooled over all seeds"), "{out}");

        // run --spill: streams the log to disk; reading it back gives the
        // exact log an in-memory run would have produced.
        let out = cli_ok(&format!("run {spec_arg} --model local --spill {spill_arg}"));
        assert!(out.contains("binary log spilled"), "{out}");
        let spilled = uswg_core::read_spill_path(&spill_arg).unwrap();
        let (log, _) = spec
            .run_des(&ModelConfig::default_local(), UsageLog::new())
            .unwrap();
        assert_eq!(
            spilled.to_json().unwrap(),
            log.to_json().unwrap(),
            "spilled log must be byte-identical to the in-memory log"
        );

        // analyze: the run → spill → analyze pipeline, text shape.
        let out = cli_ok(&format!("analyze {spill_arg}"));
        assert!(out.contains("Per-system-call summary"), "{out}");
        assert!(out.contains("v2 compressed"), "{out}");
        assert!(out.contains("response time per byte"), "{out}");
        assert!(!out.contains("Per-user-type"), "breakdown is opt-in: {out}");
        // Fault-free spill files never print the fault line — the text
        // report stays exactly what it was before fault injection existed.
        assert!(!out.contains("faults:"), "{out}");
        // --by-type adds the breakdown table.
        let out = cli_ok(&format!("analyze {spill_arg} --by-type"));
        assert!(out.contains("Per-user-type summary"), "{out}");
        // --json emits a parseable report whose counts match the log.
        let parsed =
            serde_json::parse_value(&cli_ok(&format!("analyze {spill_arg} --json"))).unwrap();
        assert_eq!(json_u64(&parsed, "ops"), log.ops().len() as u64);
        assert_eq!(json_u64(&parsed, "sessions"), 2);
        assert!(parsed
            .get("op_mix")
            .and_then(serde::Value::as_seq)
            .is_some());
        assert_eq!(parsed.get("user_types"), Some(&serde::Value::Null));

        // Corrupt input surfaces as an error (a nonzero exit in main).
        let corrupt = arg(&dir, "corrupt.bin");
        std::fs::write(&corrupt, b"NOTSPILLNOTDATA").unwrap();
        assert!(
            cli(&format!("analyze {corrupt}")).is_err(),
            "corrupt spill input must fail"
        );
        // A truncated (unsealed) file fails too — no partial silent output.
        let bytes = std::fs::read(&spill_arg).unwrap();
        std::fs::write(&corrupt, &bytes[..bytes.len() - 9]).unwrap();
        assert!(
            cli(&format!("analyze {corrupt}")).is_err(),
            "truncated spill input must fail"
        );

        // --shards 1 changes nothing; --shards 4 is refused with its reason.
        let run = format!("run {spec_arg} --model local");
        assert_eq!(cli_ok(&run), cli_ok(&format!("{run} --shards 1")));
        let refused = cli(&format!("{run} --shards 4")).unwrap_err();
        assert!(
            refused.to_string().contains("own copy of the servers"),
            "{refused}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salvage_reports_truncated_files_and_rejects_corrupt_ones() {
        let dir = unique_test_dir("salvage");
        // A *faulted* spec, so the analysis also exercises the fault
        // reporting path end to end.
        small_spec(&dir, |spec| {
            spec.run.faults = uswg_core::FaultSpec {
                fault_ppm: 200_000,
                spike_ppm: 0,
                spike_micros: 0,
                retry: uswg_core::RetryPolicy {
                    max_attempts: 2,
                    base_backoff_micros: 100,
                    max_backoff_micros: 800,
                },
            };
        });
        let (spec_arg, spill_arg) = (arg(&dir, "spec.json"), arg(&dir, "log.bin"));
        cli_ok(&format!("run {spec_arg} --model local --spill {spill_arg}"));

        // Intact file: clean exit, and the fault outcomes are reported.
        let out = cli_ok(&format!("analyze {spill_arg}"));
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("retries"), "{out}");
        assert!(out.contains("abort rate"), "{out}");
        assert!(!out.contains("warning"), "{out}");
        // The JSON report carries the same tallies plus the salvage flag.
        let parsed =
            serde_json::parse_value(&cli_ok(&format!("analyze {spill_arg} --json"))).unwrap();
        assert_eq!(parsed.get("salvaged"), Some(&serde::Value::Bool(false)));
        assert!(json_u64(&parsed, "retries") > 0);

        // Truncated file, no --salvage: hard failure (exit 2 via main).
        let bytes = std::fs::read(&spill_arg).unwrap();
        let cut = arg(&dir, "cut.bin");
        std::fs::write(&cut, &bytes[..bytes.len() * 2 / 3]).unwrap();
        assert!(cli(&format!("analyze {cut}")).is_err());

        // Truncated file with --salvage: the intact prefix is reported,
        // with a warning and the salvaged exit status.
        let (out, status) = cli(&format!("analyze {cut} --salvage")).unwrap();
        assert_eq!(status, EXIT_SALVAGED);
        assert!(out.contains("warning: spill file is truncated"), "{out}");
        assert!(out.contains("Per-system-call summary"), "{out}");
        // JSON mode flags the salvage instead of the warning line.
        let (out, status) = cli(&format!("analyze {cut} --salvage --json")).unwrap();
        assert_eq!(status, EXIT_SALVAGED);
        let parsed = serde_json::parse_value(&out).unwrap();
        assert_eq!(parsed.get("salvaged"), Some(&serde::Value::Bool(true)));

        // Corruption is NOT salvageable: an invalid frame tag right after
        // the magic fails closed even under --salvage.
        let mut corrupt = bytes.clone();
        corrupt[8] = 0xEE;
        let corrupt_arg = arg(&dir, "corrupt.bin");
        std::fs::write(&corrupt_arg, &corrupt).unwrap();
        let err = cli(&format!("analyze {corrupt_arg} --salvage"));
        assert!(
            err.is_err(),
            "corrupt frames must fail closed under salvage"
        );

        // Trailing garbage after a valid end marker is corruption too —
        // the frames are fine, but the file has been tampered with or
        // damaged in exactly the region the index footer occupies. Fail
        // closed, salvage or not.
        let mut tampered = bytes.clone();
        tampered.push(0x5A);
        let tampered_arg = arg(&dir, "tampered.bin");
        std::fs::write(&tampered_arg, &tampered).unwrap();
        assert!(cli(&format!("analyze {tampered_arg}")).is_err());
        assert!(cli(&format!("analyze {tampered_arg} --salvage")).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pulls a u64 field out of a parsed `analyze --json` report.
    fn json_u64(parsed: &serde::Value, key: &str) -> u64 {
        match parsed.get(key) {
            Some(serde::Value::U64(n)) => *n,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn windowed_analyze_uses_the_index() {
        let dir = unique_test_dir("window");
        let arg = arg(&dir, "timed.bin");
        // A capture with a known time line: op i completes at i*10 µs, at
        // a small frame cap so the file holds many seekable frames.
        let file = std::fs::File::create(&arg).unwrap();
        let mut sink = SpillSink::with_options(file, 64).unwrap();
        for i in 0..2000u64 {
            sink.record_op(&uswg_core::OpRecord {
                at: i * 10,
                user: (i % 11) as usize,
                session: (i % 3) as u32,
                op: uswg_core::OpKind::ALL[(i % 8) as usize],
                ino: i % 17,
                bytes: (i * 31) % 2048,
                file_size: 4096,
                response: (i * 7) % 500 + 1,
                category: uswg_core::FileCategory::REG_USER_RDONLY,
                retries: 0,
                aborted: false,
            });
        }
        sink.finish().unwrap();
        let json = |flags: &str| {
            serde_json::parse_value(&cli_ok(&format!("analyze {arg} --json {flags}"))).unwrap()
        };

        // Full sequential pass, for reference.
        let full = json("");
        assert_eq!(json_u64(&full, "ops"), 2000);
        assert_eq!(full.get("indexed"), Some(&serde::Value::Bool(false)));

        // A time window over [5000, 7000] µs holds ops 500..=700 and, via
        // the index, decodes only the overlapping frames.
        let windowed = json("--since 5000 --until 7000");
        assert_eq!(json_u64(&windowed, "ops"), 201);
        assert_eq!(windowed.get("indexed"), Some(&serde::Value::Bool(true)));
        let decoded = json_u64(&windowed, "frames_decoded");
        let total = json_u64(&windowed, "frames_total");
        assert_eq!(total, 2000 / 64 + 1);
        assert!(decoded <= 5, "{decoded} frames for a 201-op window");
        // Text mode names the coverage.
        let out = cli_ok(&format!("analyze {arg} --since 5000 --until 7000"));
        assert!(out.contains("frame index: decoded"), "{out}");

        // Sampling decodes every k-th frame.
        let sampled = json("--sample 4");
        assert_eq!(
            json_u64(&sampled, "frames_decoded"),
            (total as usize).div_ceil(4) as u64
        );

        // A cut inside the index footer: windowed flags fall back to the
        // streamed pass; --salvage reports *exact* totals (the record
        // stream is complete) with the footer warning, never an error.
        let bytes = std::fs::read(&arg).unwrap();
        let cut = dir.join("footer-cut.bin").display().to_string();
        std::fs::write(&cut, &bytes[..bytes.len() - 5]).unwrap();
        let (out, status) = cli(&format!(
            "analyze {cut} --salvage --since 5000 --until 7000"
        ))
        .unwrap();
        assert_eq!(status, EXIT_SALVAGED);
        assert!(out.contains("no index footer"), "{out}");
        assert!(out.contains("index footer is truncated"), "{out}");
        assert!(out.contains("totals are exact"), "{out}");
        assert!(out.contains(": 201 ops"), "{out}");
        // Same cut without --salvage is still an error…
        assert!(cli(&format!("analyze {cut}")).is_err());
        // …and a JSON salvage of the whole cut file carries every record.
        let (out, status) = cli(&format!("analyze {cut} --salvage --json")).unwrap();
        assert_eq!(status, EXIT_SALVAGED);
        let parsed = serde_json::parse_value(&out).unwrap();
        assert_eq!(json_u64(&parsed, "ops"), 2000);
        assert_eq!(parsed.get("salvaged"), Some(&serde::Value::Bool(true)));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fit_synthesizes_a_runnable_spec_from_a_capture() {
        let dir = unique_test_dir("fitspill");
        small_spec(&dir, |spec| {
            spec.run.n_users = 3;
            spec.run.sessions_per_user = 3;
        });
        let spec_arg = arg(&dir, "spec.json");
        let (spill_arg, fitted_arg) = (arg(&dir, "cap.bin"), arg(&dir, "fitted.json"));
        cli_ok(&format!("run {spec_arg} --model local --spill {spill_arg}"));

        // Text mode: per-measure fit table plus the written spec.
        let out = cli_ok(&format!("fit {spill_arg} --out {fitted_arg}"));
        assert!(out.contains("Fitted distributions"), "{out}");
        assert!(out.contains("fitted spec written to"), "{out}");
        assert!(out.contains("3 users"), "{out}");

        // The emitted spec parses, validates, and actually runs.
        let fitted =
            WorkloadSpec::from_json(&std::fs::read_to_string(&fitted_arg).unwrap()).unwrap();
        assert_eq!(fitted.run.n_users, 3);
        assert_eq!(fitted.run.sessions_per_user, 3);
        let (log, _) = fitted
            .run_des(&ModelConfig::default_local(), UsageLog::new())
            .unwrap();
        assert!(!log.ops().is_empty());

        // JSON mode embeds the spec and the observation counts.
        let parsed = serde_json::parse_value(&cli_ok(&format!("fit {spill_arg} --json"))).unwrap();
        assert_eq!(json_u64(&parsed, "users"), 3);
        assert!(json_u64(&parsed, "ops") > 0);
        assert!(parsed.get("spec").is_some());
        assert!(parsed
            .get("fits")
            .and_then(serde::Value::as_seq)
            .is_some_and(|fits| !fits.is_empty()));

        // A capture fits every measure itself: --family contradicts it.
        let err = cli(&format!("fit {spill_arg} --family exp"));
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("drop --family")));

        // A window past the end of the capture selects nothing — a clear
        // error, not a degenerate spec; analyze agrees.
        for command in ["fit", "analyze"] {
            let err = cli(&format!("{command} {spill_arg} --since 99999999999"));
            assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("selects no records")));
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drive_loopback_smoke() {
        let dir = unique_test_dir("drive");
        small_spec(&dir, |_| {});
        // Replay heavily compressed (every op arrives ~immediately) against
        // a slow loopback with a tiny queue: completes fast, sheds hard.
        let out = cli_ok(&format!(
            "drive {} --model local --speedup 1000000 --max-in-flight 2 \
             --queue-cap 8 --service-us 300",
            arg(&dir, "spec.json")
        ));
        assert!(out.contains("replaying open-loop"), "{out}");
        assert!(out.contains("drive report (target loopback-vfs)"), "{out}");
        assert!(out.contains("shed"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("peak in-flight"), "{out}");
        // The streaming producer's run stats make it into the report.
        assert!(out.contains("generated stream:"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drive_from_spill_replays_and_salvages_truncation() {
        let dir = unique_test_dir("fromspill");
        let spec = small_spec(&dir, |_| {});
        let (spec_arg, spill_arg) = (arg(&dir, "spec.json"), arg(&dir, "cap.bin"));

        // Capture a run, then replay the capture without a model.
        cli_ok(&format!("run {spec_arg} --model local --spill {spill_arg}"));
        let expected_ops = spec
            .run_des(&ModelConfig::default_local(), UsageLog::new())
            .unwrap()
            .0
            .ops()
            .len();
        let replay = |capture: &str| {
            cli(&format!(
                "drive {spec_arg} --from-spill {capture} --speedup 1000000"
            ))
        };
        let out = cli_ok(&format!(
            "drive {spec_arg} --from-spill {spill_arg} --speedup 1000000"
        ));
        assert!(out.contains("streaming capture"), "{out}");
        assert!(out.contains(&format!("offered {expected_ops}")), "{out}");
        assert!(!out.contains("warning"), "{out}");

        // A truncated capture drains what it has, warns, and exits 3 —
        // the drive-side twin of `analyze --salvage`.
        let bytes = std::fs::read(&spill_arg).unwrap();
        let cut = arg(&dir, "cut.bin");
        std::fs::write(&cut, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let (out, status) = replay(&cut).unwrap();
        assert_eq!(status, EXIT_SALVAGED);
        assert!(out.contains("warning: op source ended early"), "{out}");
        assert!(out.contains("drive report"), "{out}");

        // A file that is not a spill capture at all is a hard error.
        let bogus = arg(&dir, "bogus.bin");
        std::fs::write(&bogus, b"NOTASPILLFILE").unwrap();
        assert!(replay(&bogus).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }
}
