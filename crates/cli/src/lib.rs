//! Library half of the `uswg` command-line tool: argument parsing and the
//! subcommand implementations, separated from `main` so they are testable.
//!
//! Subcommands (the workflow of the paper's Figure 4.1, without the X11
//! session):
//!
//! * `uswg init <spec.json>` — write the paper-default workload spec for
//!   editing (the "specify distributions" step);
//! * `uswg run <spec.json> [--model M] [--direct] [--out log.json]` — build
//!   the file system, simulate the users, print the summary tables;
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

#![warn(missing_docs)]

use serde::Serialize;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use uswg_core::experiment::{
    access_size_sweep, mix_sweep, run_des_replicated, user_sweep, ModelConfig, Parallelism,
    SweepPoint,
};
use uswg_core::{
    collect_fit, fit, gof, metrics, plot, presets, scan, synthesize_spec, ChannelSink, CoreError,
    DistrError, Distribution, FrameIndex, LogSink, MeasureFit, NfsParams, ScanOptions,
    SchedulerBackend, SpillCodec, SpillReader, SpillRecord, SpillSink, Summary, SummarySink,
    SynthesisOptions, Table, UsageLog, WorkloadSpec,
};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `init <path>`: write the default spec.
    Init {
        /// Destination path for the JSON spec.
        path: String,
    },
    /// `run <path>`: execute a workload spec.
    Run {
        /// Path of the JSON spec.
        path: String,
        /// Timing model (None = direct driver).
        model: Option<ModelConfig>,
        /// Optional path to write the usage log JSON.
        out: Option<String>,
        /// Event-queue backend override (None = the spec's choice, which
        /// itself defaults to the calendar).
        scheduler: Option<SchedulerBackend>,
        /// Optional path to stream the binary columnar log to during the
        /// run (full fidelity, O(1) resident memory; requires a model).
        spill: Option<String>,
        /// Shard the single run across this many independent DES
        /// instances (None = the spec's choice, which itself defaults to
        /// the exact unsharded path).
        shards: Option<NonZeroUsize>,
        /// Override the spec's population size (the scale knob for smoke
        /// runs; applied before the file system is generated).
        users: Option<NonZeroUsize>,
        /// Stream into the O(1) summary sink and print only the headline
        /// numbers — no usage log is materialized (requires a model).
        summary: bool,
    },
    /// `sweep <path>`: run one of the Chapter 5 sweeps.
    Sweep {
        /// Path of the JSON spec.
        path: String,
        /// Timing model to measure.
        model: ModelConfig,
        /// The swept axis and its points.
        axis: SweepAxis,
        /// Worker threads (None = one per core).
        jobs: Option<usize>,
        /// Event-queue backend override.
        scheduler: Option<SchedulerBackend>,
        /// Per-point shard-count override (see `run`'s `shards`).
        shards: Option<NonZeroUsize>,
    },
    /// `replicate <path>`: rerun one workload under several seeds.
    Replicate {
        /// Path of the JSON spec.
        path: String,
        /// Timing model to measure.
        model: ModelConfig,
        /// The seeds to run.
        seeds: SeedSpec,
        /// Worker threads (None = one per core).
        jobs: Option<usize>,
        /// Event-queue backend override.
        scheduler: Option<SchedulerBackend>,
        /// Per-replicate shard-count override (see `run`'s `shards`).
        shards: Option<NonZeroUsize>,
    },
    /// `fit <path>`: fit a family to a data file, or a whole workload
    /// spec to a spill capture (distinguished by the file's magic).
    Fit {
        /// Path of the data file (one non-negative number per line) or of
        /// a binary spill capture (v1 or v2, written by `run --spill`).
        path: String,
        /// Family spec: `exp`, `phase:K` or `gamma:K` (text data only —
        /// a capture fits every measure and picks families itself).
        family: Option<Family>,
        /// Write the fitted runnable spec JSON here (captures only).
        out: Option<String>,
        /// Emit a machine-readable JSON report, spec embedded (captures
        /// only).
        json: bool,
        /// Keep records completing at or after this time, µs (captures
        /// only; uses the index footer when present, as `analyze`).
        since: Option<u64>,
        /// Keep records completing at or before this time, µs.
        until: Option<u64>,
        /// Decode every k-th selected frame (a cheap estimate).
        sample: Option<u64>,
    },
    /// `analyze <path>`: stream a spill file through the Usage Analyzer.
    Analyze {
        /// Path of the binary spill file (v1 or v2).
        path: String,
        /// Emit a machine-readable JSON report instead of tables.
        json: bool,
        /// Include the per-user-type session breakdown.
        by_type: bool,
        /// Accept a *truncated* file and report over the intact prefix
        /// (with a warning and exit status 3). Corrupt frames still fail
        /// closed — salvage trusts checksummed frames only.
        salvage: bool,
        /// Keep records completing at or after this time, µs. With an
        /// index footer present, only overlapping frames are decoded.
        since: Option<u64>,
        /// Keep records completing at or before this time, µs.
        until: Option<u64>,
        /// Decode every k-th selected frame (requires an index footer to
        /// skip; thins a huge capture into a cheap estimate).
        sample: Option<u64>,
        /// Fan disjoint frame ranges across this many stealpool workers.
        jobs: Option<usize>,
    },
    /// `drive <path>`: stream the workload's op stream — from a live DES
    /// run on a producer thread, or from a spill capture — open-loop
    /// against the in-process loopback target in scaled wall time.
    Drive {
        /// Path of the JSON spec.
        path: String,
        /// Timing model whose DES run feeds the pacer (required unless
        /// `from_spill` replays a capture instead).
        model: Option<ModelConfig>,
        /// Replay a `uswg run --spill` capture (either codec) instead of
        /// running the DES; the spec still supplies retry policy and seed.
        from_spill: Option<String>,
        /// Wall-time compression factor (simulated µs per wall µs).
        speedup: f64,
        /// Maximum concurrently executing operations.
        max_in_flight: usize,
        /// Bounded pacer→worker queue capacity (shed-oldest when full).
        queue_cap: usize,
        /// Per-op deadline in wall µs from scheduled arrival (0 = none).
        deadline_micros: u64,
        /// Loopback target service time per op, µs (the capacity knob).
        service_micros: u64,
        /// Loopback transient-failure rate, parts per million.
        fail_ppm: u32,
    },
    /// `tables`: print the paper presets.
    Tables,
    /// `help`: print usage.
    Help,
}

/// How a `replicate` command names its seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedSpec {
    /// An explicit `--seeds` list, run verbatim.
    List(Vec<u64>),
    /// `--replicates N`: N consecutive seeds counting up from the spec's
    /// base seed (resolved when the spec is loaded).
    Count(u64),
}

impl SeedSpec {
    /// The concrete seed list for a spec whose base seed is `base`.
    fn resolve(&self, base: u64) -> Vec<u64> {
        match self {
            SeedSpec::List(seeds) => seeds.clone(),
            SeedSpec::Count(n) => (0..*n).map(|k| base.wrapping_add(k)).collect(),
        }
    }
}

/// The swept axis of a `sweep` command.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Concurrent users (Table 5.3, Figures 5.6–5.11).
    Users(Vec<usize>),
    /// Heavy-user fraction of the population (Figures 5.7–5.11 panels).
    Mix(Vec<f64>),
    /// Mean access size in bytes (Figure 5.12).
    Sizes(Vec<f64>),
}

/// A distribution family selector for `fit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Single exponential.
    Exponential,
    /// Phase-type exponential with K phases.
    PhaseType(usize),
    /// Multi-stage gamma with K stages.
    Gamma(usize),
}

/// Errors produced by the CLI layer.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// Problem reading or writing a file.
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

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
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

/// The usage banner.
pub const USAGE: &str = "\
uswg — user-oriented synthetic workload generator

USAGE:
  uswg init <spec.json>                 write the paper-default workload spec
  uswg run <spec.json> [OPTIONS]        execute a workload spec
      --model <M>      timing model: nfs | nfs-cached | local | whole-file |
                       distributed:<servers>   (default: direct driver, no model)
      --out <log.json> write the usage log as JSON
      --spill <p.bin>  stream the log to a compressed binary columnar file
                       during the run (full fidelity, O(1) resident memory;
                       model runs only — inspect it with uswg analyze)
      --scheduler <S>  event-queue backend: heap | calendar (default: the
                       spec's choice, else calendar; both give byte-identical
                       results, calendar is faster at every measured size)
      --shards <K>     split this one run into K independent DES instances
                       across cores and merge deterministically (model runs
                       only; K=1 replays the exact path byte for byte, K>1
                       approximates resource contention per shard; with
                       --spill the per-shard streams spill to disk and k-way
                       merge frame-by-frame — memory stays flat in K)
      --users <N>      override the spec's population size before the file
                       system is generated (scale knob for smoke runs)
      --summary        stream into the O(1) summary sink and print only the
                       headline numbers — no usage log is kept, so memory
                       stays flat at any population (model runs only;
                       conflicts with --out/--spill)
  uswg sweep <spec.json> --model <M> <AXIS> [OPTIONS]
                                        run a Chapter 5 sweep across cores
      <AXIS> = --users 1,2,4,8 | --mix 0,0.5,1 | --sizes 128,512,2048
      --jobs <N>       worker threads (default: one per core)
      --scheduler <S>  event-queue backend override
      --shards <K>     shard every point's run K ways (as for run)
  uswg replicate <spec.json> --model <M> [OPTIONS]
                                        rerun under independent seeds, report 95% CI
      --seeds 1,2,3    explicit seed list
      --replicates <N> N seeds counting up from the spec's seed (default 5)
      --jobs/--scheduler/--shards  as for sweep
  uswg drive <spec.json> --model <M> [OPTIONS]
                                        stream the workload open-loop against
                                        the in-process loopback target in
                                        scaled wall time; the DES runs on a
                                        producer thread and feeds the pacer
                                        through a bounded channel, so memory
                                        stays O(queue) however long the run
      --from-spill <F> replay a run --spill capture (either codec) instead
                       of running the DES — no --model needed; a truncated
                       capture drains what it has, warns, exit status 3
      --speedup <X>    wall-time compression (simulated µs per wall µs,
                       default 1: real time)
      --max-in-flight <N>  concurrent-operation cap / worker count (default 4)
      --queue-cap <N>  bounded arrival queue; oldest waiting op is shed when
                       full, so memory never grows with the backlog
                       (default 1024)
      --deadline-us <D>  per-op deadline from scheduled arrival (0 = none)
      --service-us <S> loopback service time per op — the capacity knob
      --fail-ppm <P>   loopback transient-failure rate (per million); failed
                       attempts retry under the spec's fault retry policy
  uswg fit <data.txt> --family <F>      fit a family to one-number-per-line data
      <F> = exp | phase:<K> | gamma:<K>
  uswg fit <run.bin> [OPTIONS]          fit a complete workload spec from a
                                        spill capture (written by run --spill):
                                        per-user-type think times, access
                                        sizes, session gaps and per-category
                                        usage are each modeled by the best
                                        family by KS distance, and the file
                                        system is sized from the observed
                                        inode footprint — the result is a
                                        runnable spec closing the measure →
                                        characterize → regenerate loop
      --out <spec.json> write the fitted spec (runnable with uswg run)
      --json           machine-readable report with the spec embedded
      --since <µs>     keep records completing at or after this time
      --until <µs>     keep records completing at or before this time
      --sample <k>     decode every k-th selected frame (an estimate);
                       windowed flags seek via the index footer when the
                       capture has one, exactly as analyze
  uswg analyze <run.bin> [OPTIONS]      analyze a spill file (written by
                                        run --spill) without loading it into
                                        memory: op mix, access-size and
                                        response summaries
      --json           machine-readable JSON report instead of tables
      --by-type        add the per-user-type session breakdown
      --salvage        accept a truncated file: report over the intact
                       prefix with a warning, exit status 3 (corrupt
                       frames still fail closed, exit status 2); a file
                       whose only damage is a truncated index footer
                       reports exact totals from the streamed pass
      --since <µs>     keep records completing at or after this time
      --until <µs>     keep records completing at or before this time
      --sample <k>     decode every k-th selected frame (an estimate)
      --jobs <N>       fan frame ranges across N workers and merge
                       (indexed files; results match the sequential pass)
                       With an index footer (written by default since
                       schema 9), --since/--until/--sample/--jobs decode
                       only the overlapping frames — O(window), not
                       O(file); unindexed files fall back to a streamed
                       pass with the same record filter
  uswg tables                           print the Table 5.1/5.2/5.4 presets
  uswg help                             this message
";

/// Parses a model name into a configuration.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown names or bad server counts.
pub fn parse_model(name: &str) -> Result<ModelConfig, CliError> {
    if let Some(rest) = name.strip_prefix("distributed:") {
        let servers: usize = rest
            .parse()
            .map_err(|_| CliError::Usage(format!("bad server count `{rest}`")))?;
        if servers == 0 {
            return Err(CliError::Usage("server count must be positive".into()));
        }
        return Ok(ModelConfig::distributed_nfs(servers));
    }
    match name {
        "nfs" => Ok(ModelConfig::default_nfs()),
        "nfs-cached" => Ok(ModelConfig::Nfs(NfsParams::with_cache(8_192))),
        "local" => Ok(ModelConfig::default_local()),
        "whole-file" => Ok(ModelConfig::default_whole_file()),
        other => Err(CliError::Usage(format!(
            "unknown model `{other}` (expected nfs, nfs-cached, local, whole-file, distributed:<n>)"
        ))),
    }
}

/// Parses a scheduler-backend name.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown backends.
pub fn parse_scheduler(name: &str) -> Result<SchedulerBackend, CliError> {
    SchedulerBackend::parse(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown scheduler `{name}` (expected heap, calendar)"
        ))
    })
}

/// Parses a shard count (a positive integer).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for zero or non-numeric counts.
pub fn parse_shards(value: &str) -> Result<NonZeroUsize, CliError> {
    value
        .parse::<NonZeroUsize>()
        .map_err(|_| CliError::Usage(format!("bad shard count `{value}` (expected 1, 2, ...)")))
}

/// Parses a comma-separated list of values.
fn parse_list<T: std::str::FromStr>(what: &str, raw: &str) -> Result<Vec<T>, CliError> {
    let values: Result<Vec<T>, _> = raw.split(',').map(|v| v.trim().parse::<T>()).collect();
    match values {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(CliError::Usage(format!("bad {what} list `{raw}`"))),
    }
}

/// The `Parallelism` a `--jobs` flag selects.
fn parallelism_from_jobs(jobs: Option<usize>) -> Result<Parallelism, CliError> {
    match jobs {
        None => Ok(Parallelism::Auto),
        Some(0) => Err(CliError::Usage("--jobs must be at least 1".into())),
        Some(1) => Ok(Parallelism::Serial),
        Some(n) => Ok(Parallelism::Threads(n)),
    }
}

/// Largest accepted `--replicates` value: every seed becomes one full
/// simulation, so anything past this is a typo, and the bound keeps
/// `SeedSpec::resolve` from materializing an absurd seed vector.
const MAX_REPLICATES: u64 = 1_000_000;

/// Iterates an argument tail as `--flag value` pairs. Every flag of the
/// experiment subcommands takes exactly one value, so a trailing flag
/// yields an error for its missing value.
struct FlagPairs<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> FlagPairs<'a> {
    fn over(args: &'a [String]) -> Self {
        Self { args, i: 0 }
    }
}

impl<'a> Iterator for FlagPairs<'a> {
    type Item = (&'a str, Result<&'a str, CliError>);

    fn next(&mut self) -> Option<Self::Item> {
        let flag = self.args.get(self.i)?;
        let value = self
            .args
            .get(self.i + 1)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")));
        self.i += 2;
        Some((flag.as_str(), value))
    }
}

/// The flags `sweep` and `replicate` share, parsed once so the two
/// subcommands cannot drift apart in syntax or error wording.
#[derive(Debug, Default)]
struct ExperimentFlags {
    model: Option<ModelConfig>,
    jobs: Option<usize>,
    scheduler: Option<SchedulerBackend>,
    shards: Option<NonZeroUsize>,
}

impl ExperimentFlags {
    /// Consumes a shared flag; returns `Ok(false)` for flags the caller
    /// owns (axes, seeds).
    fn try_consume(&mut self, flag: &str, value: &str) -> Result<bool, CliError> {
        match flag {
            "--model" => self.model = Some(parse_model(value)?),
            "--jobs" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad job count `{value}`")))?;
                parallelism_from_jobs(Some(n))?; // reject 0 at parse time
                self.jobs = Some(n);
            }
            "--scheduler" => self.scheduler = Some(parse_scheduler(value)?),
            "--shards" => self.shards = Some(parse_shards(value)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn require_model(&self, command: &str) -> Result<ModelConfig, CliError> {
        self.model
            .clone()
            .ok_or_else(|| CliError::Usage(format!("{command} requires --model")))
    }
}

/// Parses a family selector.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown families or bad phase counts.
pub fn parse_family(name: &str) -> Result<Family, CliError> {
    if name == "exp" {
        return Ok(Family::Exponential);
    }
    for (prefix, ctor) in [
        ("phase:", Family::PhaseType as fn(usize) -> Family),
        ("gamma:", Family::Gamma as fn(usize) -> Family),
    ] {
        if let Some(rest) = name.strip_prefix(prefix) {
            let k: usize = rest
                .parse()
                .map_err(|_| CliError::Usage(format!("bad component count `{rest}`")))?;
            if k == 0 || k > 16 {
                return Err(CliError::Usage("component count must be 1-16".into()));
            }
            return Ok(ctor(k));
        }
    }
    Err(CliError::Usage(format!(
        "unknown family `{name}` (expected exp, phase:<K>, gamma:<K>)"
    )))
}

/// Parses a full argument list (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed command lines.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let args: Vec<String> = args.into_iter().collect();
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "tables" => Ok(Command::Tables),
        "init" => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("init needs a destination path".into()))?;
            Ok(Command::Init { path: path.clone() })
        }
        "fit" => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("fit needs a data file or spill capture".into()))?
                .clone();
            let mut family = None;
            let mut out = None;
            let mut json = false;
            let mut since = None;
            let mut until = None;
            let mut sample = None;
            let mut i = 2;
            while i < args.len() {
                let flag = args[i].as_str();
                match flag {
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    "--family" => {
                        let v = args
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage("--family needs a value".into()))?;
                        family = Some(parse_family(v)?);
                        i += 2;
                    }
                    "--out" => {
                        let v = args
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage("--out needs a path".into()))?;
                        out = Some(v.clone());
                        i += 2;
                    }
                    "--since" | "--until" | "--sample" => {
                        let value = args
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
                        let parsed: u64 = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad {flag} value `{value}`")))?;
                        match flag {
                            "--since" => since = Some(parsed),
                            "--until" => until = Some(parsed),
                            _ => {
                                if parsed == 0 {
                                    return Err(CliError::Usage(
                                        "--sample must be at least 1".into(),
                                    ));
                                }
                                sample = Some(parsed);
                            }
                        }
                        i += 2;
                    }
                    other => {
                        return Err(CliError::Usage(format!("unknown flag `{other}`")));
                    }
                }
            }
            if let (Some(s), Some(u)) = (since, until) {
                if s > u {
                    return Err(CliError::Usage(format!(
                        "--since {s} is after --until {u}: empty window"
                    )));
                }
            }
            Ok(Command::Fit {
                path,
                family,
                out,
                json,
                since,
                until,
                sample,
            })
        }
        "analyze" => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("analyze needs a spill file".into()))?
                .clone();
            let mut json = false;
            let mut by_type = false;
            let mut salvage = false;
            let mut since = None;
            let mut until = None;
            let mut sample = None;
            let mut jobs = None;
            let mut i = 2;
            while i < args.len() {
                let flag = args[i].as_str();
                match flag {
                    "--json" => json = true,
                    "--by-type" => by_type = true,
                    "--salvage" => salvage = true,
                    "--since" | "--until" | "--sample" | "--jobs" => {
                        i += 1;
                        let value = args
                            .get(i)
                            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
                        let parsed: u64 = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad {flag} value `{value}`")))?;
                        match flag {
                            "--since" => since = Some(parsed),
                            "--until" => until = Some(parsed),
                            "--sample" => {
                                if parsed == 0 {
                                    return Err(CliError::Usage(
                                        "--sample must be at least 1".into(),
                                    ));
                                }
                                sample = Some(parsed);
                            }
                            _ => {
                                if parsed == 0 {
                                    return Err(CliError::Usage(
                                        "--jobs must be at least 1".into(),
                                    ));
                                }
                                jobs = Some(parsed as usize);
                            }
                        }
                    }
                    other => {
                        return Err(CliError::Usage(format!("unknown flag `{other}`")));
                    }
                }
                i += 1;
            }
            if let (Some(s), Some(u)) = (since, until) {
                if s > u {
                    return Err(CliError::Usage(format!(
                        "--since {s} is after --until {u}: empty window"
                    )));
                }
            }
            Ok(Command::Analyze {
                path,
                json,
                by_type,
                salvage,
                since,
                until,
                sample,
                jobs,
            })
        }
        "drive" => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("drive needs a spec file".into()))?
                .clone();
            let mut model = None;
            let mut from_spill = None;
            let mut speedup = 1.0f64;
            let mut max_in_flight = 4usize;
            let mut queue_cap = 1024usize;
            let mut deadline_micros = 0u64;
            let mut service_micros = 0u64;
            let mut fail_ppm = 0u32;
            fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
                value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad {flag} value `{value}`")))
            }
            for (flag, value) in FlagPairs::over(&args[2..]) {
                let value = value?;
                match flag {
                    "--model" => model = Some(parse_model(value)?),
                    "--from-spill" => from_spill = Some(value.to_string()),
                    "--speedup" => {
                        speedup = parse_num(flag, value)?;
                        if !(speedup > 0.0 && f64::is_finite(speedup)) {
                            return Err(CliError::Usage(
                                "--speedup must be finite and positive".into(),
                            ));
                        }
                    }
                    "--max-in-flight" => {
                        max_in_flight = parse_num(flag, value)?;
                        if max_in_flight == 0 {
                            return Err(CliError::Usage(
                                "--max-in-flight must be at least 1".into(),
                            ));
                        }
                    }
                    "--queue-cap" => {
                        queue_cap = parse_num(flag, value)?;
                        if queue_cap == 0 {
                            return Err(CliError::Usage("--queue-cap must be at least 1".into()));
                        }
                    }
                    "--deadline-us" => deadline_micros = parse_num(flag, value)?,
                    "--service-us" => service_micros = parse_num(flag, value)?,
                    "--fail-ppm" => {
                        fail_ppm = parse_num(flag, value)?;
                        if fail_ppm > 1_000_000 {
                            return Err(CliError::Usage(
                                "--fail-ppm is a parts-per-million rate (0..=1000000)".into(),
                            ));
                        }
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            match (&model, &from_spill) {
                (None, None) => {
                    return Err(CliError::Usage(
                        "drive requires --model (or --from-spill to replay a capture)".into(),
                    ));
                }
                (Some(_), Some(_)) => {
                    return Err(CliError::Usage(
                        "--from-spill replays a capture; drop --model".into(),
                    ));
                }
                _ => {}
            }
            Ok(Command::Drive {
                path,
                model,
                from_spill,
                speedup,
                max_in_flight,
                queue_cap,
                deadline_micros,
                service_micros,
                fail_ppm,
            })
        }
        "run" => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("run needs a spec file".into()))?
                .clone();
            let mut model = None;
            let mut out = None;
            let mut scheduler = None;
            let mut spill = None;
            let mut shards = None;
            let mut users = None;
            let mut summary = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--model" => {
                        let v = args
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage("--model needs a value".into()))?;
                        model = Some(parse_model(v)?);
                        i += 2;
                    }
                    "--direct" => {
                        model = None;
                        i += 1;
                    }
                    "--out" => {
                        let v = args
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage("--out needs a path".into()))?;
                        out = Some(v.clone());
                        i += 2;
                    }
                    "--spill" => {
                        let v = args
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage("--spill needs a path".into()))?;
                        spill = Some(v.clone());
                        i += 2;
                    }
                    "--scheduler" => {
                        let v = args
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage("--scheduler needs a value".into()))?;
                        scheduler = Some(parse_scheduler(v)?);
                        i += 2;
                    }
                    "--shards" => {
                        let v = args
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage("--shards needs a value".into()))?;
                        shards = Some(parse_shards(v)?);
                        i += 2;
                    }
                    "--users" => {
                        let v = args
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage("--users needs a count".into()))?;
                        users = Some(v.parse::<NonZeroUsize>().map_err(|_| {
                            CliError::Usage(format!("--users needs a positive count, got `{v}`"))
                        })?);
                        i += 2;
                    }
                    "--summary" => {
                        summary = true;
                        i += 1;
                    }
                    other => {
                        return Err(CliError::Usage(format!("unknown flag `{other}`")));
                    }
                }
            }
            if spill.is_some() && model.is_none() {
                return Err(CliError::Usage(
                    "--spill needs a timing model (the direct driver does not stream)".into(),
                ));
            }
            if shards.is_some() && model.is_none() {
                return Err(CliError::Usage(
                    "--shards needs a timing model (the direct driver is single-instance)".into(),
                ));
            }
            if summary && model.is_none() {
                return Err(CliError::Usage(
                    "--summary needs a timing model (the direct driver materializes its log)"
                        .into(),
                ));
            }
            if summary && (out.is_some() || spill.is_some()) {
                return Err(CliError::Usage(
                    "--summary keeps no log, so --out/--spill have nothing to write".into(),
                ));
            }
            Ok(Command::Run {
                path,
                model,
                out,
                scheduler,
                spill,
                shards,
                users,
                summary,
            })
        }
        "sweep" => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("sweep needs a spec file".into()))?
                .clone();
            let mut common = ExperimentFlags::default();
            let mut axis = None;
            let set_axis = |a: SweepAxis, axis: &mut Option<SweepAxis>| {
                if axis.is_some() {
                    return Err(CliError::Usage(
                        "sweep takes exactly one of --users, --mix, --sizes".into(),
                    ));
                }
                *axis = Some(a);
                Ok(())
            };
            for (flag, value) in FlagPairs::over(&args[2..]) {
                let (flag, value) = (flag, value?);
                if common.try_consume(flag, value)? {
                    continue;
                }
                match flag {
                    "--users" => {
                        set_axis(SweepAxis::Users(parse_list("user", value)?), &mut axis)?;
                    }
                    "--mix" => set_axis(SweepAxis::Mix(parse_list("mix", value)?), &mut axis)?,
                    "--sizes" => {
                        set_axis(SweepAxis::Sizes(parse_list("size", value)?), &mut axis)?;
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            let model = common.require_model("sweep")?;
            let axis = axis.ok_or_else(|| {
                CliError::Usage("sweep needs an axis: --users, --mix or --sizes".into())
            })?;
            Ok(Command::Sweep {
                path,
                model,
                axis,
                jobs: common.jobs,
                scheduler: common.scheduler,
                shards: common.shards,
            })
        }
        "replicate" => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("replicate needs a spec file".into()))?
                .clone();
            let mut common = ExperimentFlags::default();
            let mut seeds: Option<Vec<u64>> = None;
            let mut replicates: Option<u64> = None;
            for (flag, value) in FlagPairs::over(&args[2..]) {
                let (flag, value) = (flag, value?);
                if common.try_consume(flag, value)? {
                    continue;
                }
                match flag {
                    "--seeds" => seeds = Some(parse_list("seed", value)?),
                    "--replicates" => {
                        let n: u64 = value.parse().map_err(|_| {
                            CliError::Usage(format!("bad replicate count `{value}`"))
                        })?;
                        if n == 0 {
                            return Err(CliError::Usage("--replicates must be at least 1".into()));
                        }
                        if n > MAX_REPLICATES {
                            return Err(CliError::Usage(format!(
                                "--replicates is capped at {MAX_REPLICATES}"
                            )));
                        }
                        replicates = Some(n);
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            let model = common.require_model("replicate")?;
            if seeds.is_some() && replicates.is_some() {
                return Err(CliError::Usage(
                    "pass --seeds or --replicates, not both".into(),
                ));
            }
            let seeds = match (seeds, replicates) {
                (Some(list), _) => SeedSpec::List(list),
                (None, Some(n)) => SeedSpec::Count(n),
                (None, None) => SeedSpec::Count(5),
            };
            Ok(Command::Replicate {
                path,
                model,
                seeds,
                jobs: common.jobs,
                scheduler: common.scheduler,
                shards: common.shards,
            })
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Exit status of a successful command (everything is fine).
pub const EXIT_OK: i32 = 0;
/// Exit status of `analyze --salvage` over a truncated file: the report
/// covers the intact prefix only. (Hard failures exit 2 via `main`.)
pub const EXIT_SALVAGED: i32 = 3;

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
    run_command(command)
}

fn ok(text: String) -> Result<(String, i32), CliError> {
    Ok((text, EXIT_OK))
}

fn run_command(command: Command) -> Result<(String, i32), CliError> {
    match command {
        Command::Help => ok(USAGE.to_string()),
        Command::Tables => ok(render_tables()),
        Command::Init { path } => {
            let spec = WorkloadSpec::paper_default()?;
            std::fs::write(&path, spec.to_json()?)?;
            ok(format!(
                "wrote the paper-default workload spec to {path}\n\
                 edit it, then: uswg run {path} --model nfs\n"
            ))
        }
        Command::Run {
            path,
            model,
            out,
            scheduler,
            spill,
            shards,
            users,
            summary: summary_only,
        } => {
            let mut spec = WorkloadSpec::from_json(&std::fs::read_to_string(&path)?)?;
            if let Some(backend) = scheduler {
                spec.run.scheduler = Some(backend);
            }
            if let Some(k) = shards {
                spec.run.shards = Some(k);
            }
            if let Some(n) = users {
                // Applied before the file system is generated, so the run is a
                // full-fidelity rescale of the spec, not a truncation of its log.
                spec.run.n_users = n.get();
            }
            // parse_args enforces the flag combinations too, but Command is a
            // public type — keep execute total over hand-built values.
            if summary_only && (out.is_some() || spill.is_some()) {
                return Err(CliError::Usage(
                    "--summary keeps no log, so --out/--spill have nothing to write".into(),
                ));
            }
            let Some(m) = &model else {
                if summary_only || spill.is_some() {
                    return Err(CliError::Usage(
                        "--summary/--spill need a timing model (the direct driver \
                         materializes its log and does not stream)"
                            .into(),
                    ));
                }
                let log = spec.run_direct()?;
                let mut text = "direct driver (no timing model)\n".to_string();
                text.push_str(&render_op_table(&log));
                let _ = writeln!(text, "sessions: {}", log.sessions().len());
                if let Some(out_path) = out {
                    std::fs::write(&out_path, log.to_json().map_err(CoreError::from)?)?;
                    let _ = writeln!(text, "usage log written to {out_path}");
                }
                return ok(text);
            };
            // One run, three sinks. A summary sink always keeps the headline
            // numbers for the console; what rides beside it is the mode:
            // nothing (--summary: O(1) memory, the million-user smoke path),
            // a spill file (--spill: full fidelity on disk, still O(1)
            // resident), or the collected log (default).
            let (summary, stats, log) = match &spill {
                Some(spill_path) => {
                    let sink = (SummarySink::new(), SpillSink::create(spill_path)?);
                    let ((summary, spill_sink), stats) = spec.run_des(m, sink)?;
                    spill_sink.finish()?;
                    (summary, stats, None)
                }
                None if summary_only => {
                    let (summary, stats) = spec.run_des(m, SummarySink::new())?;
                    (summary, stats, None)
                }
                None => {
                    let ((summary, log), stats) =
                        spec.run_des(m, (SummarySink::new(), UsageLog::new()))?;
                    (summary, stats, Some(log))
                }
            };
            let mut text = format!(
                "model {} | {} events | {} simulated\n",
                stats.model, stats.events, stats.duration
            );
            if let Some(log) = &log {
                text.push_str(&render_op_table(log));
            }
            if let (Some(_), Some(k)) = (&spill, spec.run.shards) {
                // Sharded capture stays memory-flat: each shard spills to
                // its own temporary stream and the streams k-way merge
                // frame-by-frame into the output file.
                let _ = writeln!(
                    text,
                    "sharded run ({k} shard(s)): per-shard spill streams merged \
                     frame-by-frame, O(1) resident memory"
                );
            }
            text.push_str(&render_summary_sink(&summary));
            if let Some(spill_path) = &spill {
                let _ = writeln!(
                    text,
                    "binary log spilled to {spill_path} ({} ops, {} sessions)",
                    summary.ops, summary.sessions
                );
            }
            if let Some(out_path) = out {
                // Without a collected log the JSON form is reconstructed from
                // the spill file, so even that path never holds the log *and*
                // the run in memory at once.
                let log = match log {
                    Some(log) => log,
                    None => uswg_core::read_spill_path(
                        spill.as_ref().expect("no collected log means --spill"),
                    )?,
                };
                std::fs::write(&out_path, log.to_json().map_err(CoreError::from)?)?;
                let _ = writeln!(text, "usage log written to {out_path}");
            }
            ok(text)
        }
        Command::Sweep {
            path,
            model,
            axis,
            jobs,
            scheduler,
            shards,
        } => {
            let mut spec = WorkloadSpec::from_json(&std::fs::read_to_string(&path)?)?;
            if let Some(backend) = scheduler {
                spec.run.scheduler = Some(backend);
            }
            if let Some(k) = shards {
                spec.run.shards = Some(k);
            }
            // No jobs × shards clamp here: sweep workers and nested shard
            // workers lease threads from stealpool's one global budget, so
            // any request composes to at most the host's cores.
            let parallelism = parallelism_from_jobs(jobs)?;
            let (x_label, points) = match &axis {
                SweepAxis::Users(users) => (
                    "users",
                    user_sweep(&spec, &model, users.iter().copied(), parallelism)?,
                ),
                SweepAxis::Mix(fractions) => (
                    "heavy frac",
                    mix_sweep(&spec, &model, fractions.iter().copied(), parallelism)?,
                ),
                SweepAxis::Sizes(sizes) => (
                    "mean size",
                    access_size_sweep(&spec, &model, sizes.iter().copied(), parallelism)?,
                ),
            };
            ok(render_sweep(&model, x_label, &points))
        }
        Command::Replicate {
            path,
            model,
            seeds,
            jobs,
            scheduler,
            shards,
        } => {
            let mut spec = WorkloadSpec::from_json(&std::fs::read_to_string(&path)?)?;
            if let Some(backend) = scheduler {
                spec.run.scheduler = Some(backend);
            }
            if let Some(k) = shards {
                spec.run.shards = Some(k);
            }
            let parallelism = parallelism_from_jobs(jobs)?;
            let seeds = seeds.resolve(spec.run.seed);
            let study = run_des_replicated(&spec, &model, seeds, parallelism)?;
            ok(render_replication(&model, &study))
        }
        Command::Fit {
            path,
            family,
            out,
            json,
            since,
            until,
            sample,
        } => {
            if is_spill_file(&path)? {
                if family.is_some() {
                    return Err(CliError::Usage(
                        "--family selects a family for text data; a spill capture fits \
                         every measure and picks families itself (drop --family)"
                            .into(),
                    ));
                }
                return fit_spill(&path, out.as_deref(), json, since, until, sample);
            }
            if out.is_some() || json || since.is_some() || until.is_some() || sample.is_some() {
                return Err(CliError::Usage(format!(
                    "--out/--json/--since/--until/--sample fit a spec from a spill capture, \
                     but {path} is not one (no spill magic)"
                )));
            }
            let family = family.ok_or_else(|| {
                CliError::Usage(
                    "fit on a text data file requires --family (spill captures fit every \
                     measure automatically)"
                        .into(),
                )
            })?;
            let data = read_data(&path)?;
            fit_report(&data, family).and_then(ok)
        }
        Command::Analyze {
            path,
            json,
            by_type,
            salvage,
            since,
            until,
            sample,
            jobs,
        } => {
            let opts = ScanOptions {
                since,
                until,
                sample,
                jobs: jobs.unwrap_or(1),
            };
            // `--jobs` alone parallelizes a full pass; only these flags
            // actually drop records, so only they can make a selection
            // empty.
            let filtered = since.is_some() || until.is_some() || sample.is_some();
            let windowed = filtered || jobs.is_some();
            // Any windowed/parallel flag tries the index footer first. A
            // present-but-malformed footer fails closed (`load_path` errors
            // — the trailer promised an index that lied); an absent or
            // truncated one returns `None` and the pass falls back to
            // streaming every frame through the same record filter.
            let index = if windowed {
                FrameIndex::load_path(&path)?
            } else {
                None
            };
            if let Some(index) = index {
                let codec = SpillReader::open(&path)?.codec();
                let outcome = scan::scan_indexed(&index, &opts, || SpillReader::open(&path))?;
                if filtered && outcome.stats.ops == 0 && outcome.stats.sessions == 0 {
                    return Err(CliError::Usage(format!(
                        "the requested window selects no records in {path} \
                         (widen --since/--until or drop --sample)"
                    )));
                }
                let coverage = Coverage::Indexed {
                    decoded: outcome.frames_decoded as u64,
                    total: outcome.frames_total as u64,
                };
                let text = if json {
                    render_analyze_json(&outcome.stats, codec, by_type, false, &coverage)?
                } else {
                    render_analyze_text(&path, &outcome.stats, codec, by_type, &coverage)
                };
                return ok(text);
            }
            // The streamed pass: every record flows through the aggregator
            // frame-by-frame — no UsageLog, no O(run length) memory, any
            // file the format can hold.
            let mut reader = SpillReader::open(&path)?;
            let codec = reader.codec();
            let mut stats = metrics::StreamLogStats::new();
            let mut truncated = false;
            for record in reader.by_ref() {
                match record {
                    Ok(record) => {
                        if opts.record_in_window(&record) {
                            match record {
                                SpillRecord::Op(op) => stats.record_op(&op),
                                SpillRecord::Session(s) => stats.record_session(&s),
                            }
                        }
                    }
                    // Salvage accepts *truncation* only: every record
                    // already yielded came from an intact (v2: checksummed)
                    // frame, so the prefix is trustworthy. Corruption
                    // (InvalidData) means a frame lied — fail closed, and
                    // that includes garbage after a valid end marker.
                    Err(e) if salvage && e.kind() == std::io::ErrorKind::UnexpectedEof => {
                        truncated = true;
                        break;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if filtered && stats.ops == 0 && stats.sessions == 0 {
                return Err(CliError::Usage(format!(
                    "the requested window selects no records in {path} \
                     (widen --since/--until or drop --sample)"
                )));
            }
            // A cut inside the index footer leaves the record stream
            // complete (the end marker validated) — exact totals, unlike a
            // mid-stream cut where they are a lower bound.
            let footer_only = truncated && reader.stream_complete();
            let coverage = if windowed {
                Coverage::Filtered
            } else {
                Coverage::Full
            };
            let mut text = if json {
                render_analyze_json(&stats, codec, by_type, truncated, &coverage)?
            } else {
                render_analyze_text(&path, &stats, codec, by_type, &coverage)
            };
            if truncated {
                if !json {
                    if footer_only {
                        let _ = writeln!(
                            text,
                            "warning: index footer is truncated — report streamed from \
                             the complete record stream; totals are exact"
                        );
                    } else {
                        let _ = writeln!(
                            text,
                            "warning: spill file is truncated — salvaged {} ops and {} \
                             sessions from the intact frame prefix; totals are a lower bound",
                            stats.ops, stats.sessions
                        );
                    }
                }
                return Ok((text, EXIT_SALVAGED));
            }
            ok(text)
        }
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
            // Stream the op source into the pacer — a live DES run on a
            // producer thread, or a spill capture — so resident memory is
            // bounded by the drive queue, never by the run length.
            let spec = WorkloadSpec::from_json(&std::fs::read_to_string(&path)?)?;
            let config = uswg_drive::DriveConfig {
                speedup,
                max_in_flight,
                queue_cap,
                deadline_micros,
                // The same deterministic policy the simulator's fault
                // injection uses, straight from the spec.
                retry: spec.run.faults.retry,
                seed: spec.run.seed,
            };
            let target = Arc::new(uswg_drive::LoopbackVfs::new(uswg_drive::LoopbackConfig {
                service_micros,
                fail_ppm,
                seed: spec.run.seed,
                ..uswg_drive::LoopbackConfig::default()
            }));
            let mut text;
            // Stats from the DES producer, filled in by the finish hook
            // once the channel closes (None on the capture path).
            let producer_stats = Arc::new(Mutex::new(None));
            let outcome = match &from_spill {
                Some(capture) => {
                    text = format!(
                        "streaming capture {capture} | replaying open-loop at {speedup}x: \
                         max in-flight {max_in_flight}, queue cap {queue_cap} (shed-oldest)\n",
                    );
                    let source = uswg_drive::SpillSource::open(capture)?;
                    uswg_drive::drive_stream(source, target, &config)
                }
                None => {
                    let model = model.expect("parse_args requires a model without --from-spill");
                    text = format!(
                        "streaming DES ops (model {}) through a {queue_cap}-record channel | \
                         replaying open-loop at {speedup}x: max in-flight {max_in_flight}, \
                         queue cap {queue_cap} (shed-oldest)\n",
                        model.name(),
                    );
                    // Channel capacity = queue capacity: the producer
                    // blocks once the pacer falls a queue behind, so the
                    // two sides hold O(queue) records between them.
                    let (sink, rx) = ChannelSink::bounded(queue_cap);
                    let producer = spec.clone();
                    // The sink drops with the producer's return, which is what
                    // closes the channel and ends the pacer's stream.
                    let handle = std::thread::spawn(move || {
                        producer.run_des(&model, sink).map(|(_sink, stats)| stats)
                    });
                    let stats_slot = Arc::clone(&producer_stats);
                    let source = uswg_drive::ChannelSource::new(rx).on_finish(Box::new(
                        move || match handle.join() {
                            Ok(Ok(stats)) => {
                                *stats_slot.lock().expect("stats poisoned") = Some(stats);
                                Ok(())
                            }
                            Ok(Err(e)) => {
                                Err(uswg_drive::SourceError(format!("DES producer: {e}")))
                            }
                            Err(_) => Err(uswg_drive::SourceError(
                                "DES producer thread panicked".into(),
                            )),
                        },
                    ));
                    uswg_drive::drive_stream(source, target, &config)
                }
            };
            if let Some(stats) = producer_stats.lock().expect("stats poisoned").take() {
                let _ = writeln!(
                    text,
                    "generated stream: {} simulated, {} kernel events (model {})",
                    stats.duration, stats.events, stats.model,
                );
            }
            match outcome {
                Ok(drive_report) => {
                    text.push_str(&drive_report.render());
                    ok(text)
                }
                Err(uswg_drive::DriveError::Source { message, report }) => {
                    // Same salvage convention as `analyze`: report what
                    // drained, warn, and exit 3 instead of failing dry.
                    text.push_str(&report.render());
                    let _ = writeln!(
                        text,
                        "warning: op source ended early ({message}); the report covers \
                         the {} ops offered before the failure",
                        report.offered
                    );
                    Ok((text, EXIT_SALVAGED))
                }
                Err(e) => Err(e.into()),
            }
        }
    }
}

/// The human-readable name of a spill codec.
fn codec_name(codec: SpillCodec) -> &'static str {
    match codec {
        SpillCodec::Raw => "v1 raw",
        SpillCodec::Compressed => "v2 compressed",
    }
}

/// How much of the file an analyze pass decoded, for the report.
#[derive(Debug, Clone, Copy)]
enum Coverage {
    /// Streamed every frame, no filter — the classic full pass, whose
    /// report stays byte-identical to pre-index releases.
    Full,
    /// Streamed every frame but filtered records to the window (the file
    /// carries no usable index footer).
    Filtered,
    /// Seeked via the index footer and decoded only the selected frames.
    Indexed { decoded: u64, total: u64 },
}

fn render_analyze_text(
    path: &str,
    stats: &metrics::StreamLogStats,
    codec: SpillCodec,
    by_type: bool,
    coverage: &Coverage,
) -> String {
    let mut text = format!(
        "spill file {path} ({}): {} ops, {} sessions\n",
        codec_name(codec),
        stats.ops,
        stats.sessions
    );
    match coverage {
        Coverage::Full => {}
        Coverage::Filtered => {
            text.push_str("no index footer — streamed every frame, filtered to the window\n");
        }
        Coverage::Indexed { decoded, total } => {
            let _ = writeln!(text, "frame index: decoded {decoded} of {total} frames");
        }
    }
    let mut table = Table::new(vec![
        "system call",
        "count",
        "access size (B)",
        "response (µs)",
    ])
    .with_title("Per-system-call summary");
    for row in stats.op_kind_summaries() {
        table.row(vec![
            row.kind.to_string(),
            row.count.to_string(),
            row.access_size.mean_std(),
            row.response.mean_std(),
        ]);
    }
    text.push_str(&table.render());
    let (sizes, responses) = stats.data_op_summary();
    let _ = writeln!(
        text,
        "data ops: {} | access size {} B | response {} µs",
        sizes.n,
        sizes.mean_std(),
        responses.mean_std()
    );
    let _ = writeln!(
        text,
        "response time per byte: {:.3} µs/B | sessions: {}",
        stats.response_per_byte(),
        stats.sessions
    );
    // Fault outcomes print only when present, so fault-free reports stay
    // byte-identical to what they were before fault injection existed.
    if stats.retries > 0 || stats.aborted_ops > 0 {
        let _ = writeln!(
            text,
            "faults: {} retries | {} aborted ops ({:.2}% abort rate) | \
             goodput {} of {} data bytes",
            stats.retries,
            stats.aborted_ops,
            stats.abort_rate() * 100.0,
            stats.goodput_bytes(),
            stats.data_bytes
        );
    }
    if by_type {
        let mut table = Table::new(vec![
            "user type",
            "sessions",
            "ops",
            "bytes accessed",
            "resp/byte (µs/B)",
        ])
        .with_title("Per-user-type summary");
        for (type_idx, t) in stats.user_types() {
            table.row(vec![
                type_idx.to_string(),
                t.sessions.to_string(),
                t.ops.to_string(),
                t.bytes_accessed.to_string(),
                format!("{:.3}", t.response_per_byte()),
            ]);
        }
        text.push_str(&table.render());
    }
    text
}

/// The JSON shape of one `analyze` report row per op kind.
#[derive(Debug, Serialize)]
struct OpMixRow {
    op: String,
    count: usize,
    access_size: Summary,
    response: Summary,
}

/// The JSON shape of one per-user-type row.
#[derive(Debug, Serialize)]
struct UserTypeRow {
    user_type: usize,
    sessions: u64,
    ops: u64,
    bytes_accessed: u64,
    total_response_us: u64,
    response_per_byte: f64,
}

/// The machine-readable `analyze --json` report.
#[derive(Debug, Serialize)]
struct AnalyzeReport {
    format: String,
    ops: u64,
    sessions: u64,
    response_per_byte: f64,
    /// Transiently failed attempts that were retried (0 for fault-free
    /// runs and for spill files written before fault injection existed).
    retries: u64,
    /// Operations that exhausted their retry budget.
    aborted_ops: u64,
    /// Aborted ops / all ops.
    abort_rate: f64,
    /// Data bytes excluding aborted transfers (vs `data_bytes` offered).
    goodput_bytes: u64,
    /// Data bytes offered, aborted transfers included.
    data_bytes: u64,
    /// True when `--salvage` accepted a truncated file: every count is a
    /// lower bound over the intact frame prefix (exact if only the index
    /// footer was cut — the record stream itself validated).
    salvaged: bool,
    /// True when the pass seeked via the index footer instead of
    /// streaming the whole file.
    indexed: bool,
    /// Frames decoded (`null` for a full streamed pass).
    frames_decoded: Option<u64>,
    /// Frames in the file per the index (`null` when unindexed).
    frames_total: Option<u64>,
    data_access_size: Summary,
    data_response: Summary,
    op_mix: Vec<OpMixRow>,
    /// `null` unless `--by-type` was passed (the vendored serde derive has
    /// no `skip_serializing_if`).
    user_types: Option<Vec<UserTypeRow>>,
}

fn render_analyze_json(
    stats: &metrics::StreamLogStats,
    codec: SpillCodec,
    by_type: bool,
    salvaged: bool,
    coverage: &Coverage,
) -> Result<String, CliError> {
    let (data_access_size, data_response) = stats.data_op_summary();
    let (indexed, frames_decoded, frames_total) = match coverage {
        Coverage::Full | Coverage::Filtered => (false, None, None),
        Coverage::Indexed { decoded, total } => (true, Some(*decoded), Some(*total)),
    };
    let report = AnalyzeReport {
        format: codec_name(codec).to_string(),
        ops: stats.ops,
        sessions: stats.sessions,
        response_per_byte: stats.response_per_byte(),
        retries: stats.retries,
        aborted_ops: stats.aborted_ops,
        abort_rate: stats.abort_rate(),
        goodput_bytes: stats.goodput_bytes(),
        data_bytes: stats.data_bytes,
        salvaged,
        indexed,
        frames_decoded,
        frames_total,
        data_access_size,
        data_response,
        op_mix: stats
            .op_kind_summaries()
            .into_iter()
            .map(|row| OpMixRow {
                op: row.kind.to_string(),
                count: row.count,
                access_size: row.access_size,
                response: row.response,
            })
            .collect(),
        user_types: by_type.then(|| {
            stats
                .user_types()
                .iter()
                .map(|(&user_type, t)| UserTypeRow {
                    user_type,
                    sessions: t.sessions,
                    ops: t.ops,
                    bytes_accessed: t.bytes_accessed,
                    total_response_us: t.total_response_us,
                    response_per_byte: t.response_per_byte(),
                })
                .collect()
        }),
    };
    let mut text = serde_json::to_string_pretty(&report).map_err(CoreError::from)?;
    text.push('\n');
    Ok(text)
}

fn render_sweep(model: &ModelConfig, x_label: &str, points: &[SweepPoint]) -> String {
    let mut table = Table::new(vec![
        x_label,
        "resp/byte (µs/B)",
        "access size (B)",
        "response (µs)",
        "sessions",
    ])
    .with_title(format!("Sweep — model {}", model.name()));
    for p in points {
        table.row(vec![
            format!("{}", p.x),
            format!("{:.3}", p.response_per_byte),
            p.access_size.mean_std(),
            p.response.mean_std(),
            p.sessions.to_string(),
        ]);
    }
    table.render()
}

fn render_summary_sink(sink: &SummarySink) -> String {
    let (access_size, response) = (sink.access_size(), sink.response());
    let mut text = String::new();
    let _ = writeln!(
        text,
        "data ops: {} | access size {:.1} ± {:.1} B | response {:.1} ± {:.1} µs",
        sink.data_ops, access_size.mean, access_size.std_dev, response.mean, response.std_dev,
    );
    let _ = writeln!(
        text,
        "response time per byte: {:.3} µs/B | sessions: {}",
        sink.response_per_byte(),
        sink.sessions
    );
    text
}

fn render_replication(
    model: &ModelConfig,
    study: &uswg_core::experiment::ReplicationStudy,
) -> String {
    let mut table = Table::new(vec!["seed", "resp/byte (µs/B)", "data ops", "sessions"])
        .with_title(format!("Replication study — model {}", model.name()));
    for r in &study.replicates {
        table.row(vec![
            r.seed.to_string(),
            format!("{:.3}", r.point.response_per_byte),
            r.point.response.n.to_string(),
            r.point.sessions.to_string(),
        ]);
    }
    let mut text = table.render();
    let _ = writeln!(
        text,
        "mean response/byte: {:.3} ± {:.3} µs/B (95% CI half-width {:.3}, {} seeds)",
        study.mean_response_per_byte,
        study.std_dev_response_per_byte,
        study.ci95_half_width,
        study.replicates.len(),
    );
    let _ = writeln!(
        text,
        "pooled over all seeds: access size {} B | response {} µs",
        study.pooled_access_size.mean_std(),
        study.pooled_response.mean_std(),
    );
    text
}

fn read_data(path: &str) -> Result<Vec<f64>, CliError> {
    let raw = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for (lineno, line) in raw.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v: f64 = line.parse().map_err(|_| {
            CliError::Usage(format!("{path}:{}: not a number: `{line}`", lineno + 1))
        })?;
        out.push(v);
    }
    if out.len() < 2 {
        return Err(CliError::Usage(format!(
            "{path}: need at least 2 data points"
        )));
    }
    Ok(out)
}

fn fit_report(data: &[f64], family: Family) -> Result<String, CliError> {
    let dist: Box<dyn Distribution> = match family {
        Family::Exponential => Box::new(fit::fit_exponential(data)?),
        Family::PhaseType(k) => Box::new(fit::fit_phase_type(data, k)?),
        Family::Gamma(k) => Box::new(fit::fit_multi_stage_gamma(data, k)?),
    };
    let ks = gof::ks_statistic(data, &*dist)?;
    let mut text = format!(
        "fitted {family:?}: mean {:.3}, std {:.3}\nKS D = {:.4} (p = {:.4})\n",
        dist.mean(),
        dist.std_dev(),
        ks.statistic,
        ks.p_value
    );
    if data.len() >= 100 {
        let chi = gof::chi_square(data, &*dist, 20)?;
        let _ = writeln!(
            text,
            "chi-square = {:.1} ({} dof, p = {:.4})",
            chi.statistic, chi.degrees_of_freedom, chi.p_value
        );
    }
    let hi = dist.quantile(0.999);
    text.push_str(&plot::plot_pdf(&*dist, dist.support_min(), hi, 64, 10));
    Ok(text)
}

/// Whether `path` starts with the spill magic (`USWGSPL1`/`USWGSPL2`) —
/// how `fit` tells a binary capture from a text data file. A file too
/// short to hold the magic is not a capture.
fn is_spill_file(path: &str) -> Result<bool, CliError> {
    use std::io::Read as _;
    let mut magic = [0u8; 7];
    match std::fs::File::open(path)?.read_exact(&mut magic) {
        Ok(()) => Ok(&magic == b"USWGSPL"),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e.into()),
    }
}

/// The machine-readable `fit <capture> --json` report.
#[derive(Debug, Serialize)]
struct FitSpillReport {
    /// Op records classified to a user type.
    ops: u64,
    /// Op records whose user completed no session in the window.
    ops_unclassified: u64,
    sessions: u64,
    users: u64,
    user_types: u64,
    /// Frames decoded per pass (`null` for a full streamed pass).
    frames_decoded: Option<u64>,
    /// Frames in the file per the index (`null` when unindexed).
    frames_total: Option<u64>,
    /// Per-measure model choices, in emission order.
    fits: Vec<MeasureFit>,
    /// Every fallback taken where the capture was too thin to fit.
    warnings: Vec<String>,
    /// The complete runnable spec.
    spec: WorkloadSpec,
}

/// `fit` over a spill capture: stream it through the fit collector
/// (windowed via the index footer exactly as `analyze`), model every
/// measure, and emit the synthesized runnable spec.
fn fit_spill(
    path: &str,
    out: Option<&str>,
    json: bool,
    since: Option<u64>,
    until: Option<u64>,
    sample: Option<u64>,
) -> Result<(String, i32), CliError> {
    let opts = ScanOptions {
        since,
        until,
        sample,
        jobs: 1,
    };
    let outcome = collect_fit(path, &opts)?;
    if outcome.observation.is_empty() {
        return Err(CliError::Usage(format!(
            "the requested window selects no records in {path} — nothing to fit \
             (widen --since/--until or drop --sample)"
        )));
    }
    let synthesized = synthesize_spec(&outcome.observation, &SynthesisOptions::default())?;
    let spec_json = synthesized.spec.to_json()?;
    if let Some(out_path) = out {
        std::fs::write(out_path, &spec_json)?;
    }
    let obs = &outcome.observation;
    if json {
        let report = FitSpillReport {
            ops: obs.ops,
            ops_unclassified: obs.ops_unclassified,
            sessions: obs.sessions,
            users: obs.users as u64,
            user_types: obs.types.len() as u64,
            frames_decoded: outcome.frames_decoded.map(|n| n as u64),
            frames_total: outcome.frames_total.map(|n| n as u64),
            fits: synthesized.fits,
            warnings: synthesized.warnings,
            spec: synthesized.spec,
        };
        let mut text = serde_json::to_string_pretty(&report).map_err(CoreError::from)?;
        text.push('\n');
        return ok(text);
    }
    let mut text = format!(
        "fit of spill capture {path}: {} ops over {} sessions, {} users, {} user type(s)\n",
        obs.ops,
        obs.sessions,
        obs.users,
        obs.types.len()
    );
    if let (Some(decoded), Some(total)) = (outcome.frames_decoded, outcome.frames_total) {
        let _ = writeln!(text, "frame index: decoded {decoded} of {total} frames");
    }
    let mut table = Table::new(vec!["measure", "family", "samples", "KS D", "p"])
        .with_title("Fitted distributions");
    for f in &synthesized.fits {
        let (d, p) = match &f.ks {
            Some(ks) => (format!("{:.4}", ks.statistic), format!("{:.4}", ks.p_value)),
            None => ("-".into(), "-".into()),
        };
        table.row(vec![
            f.measure.clone(),
            f.family.clone(),
            format!("{}/{}", f.fitted, f.seen),
            d,
            p,
        ]);
    }
    text.push_str(&table.render());
    for w in &synthesized.warnings {
        let _ = writeln!(text, "warning: {w}");
    }
    match out {
        Some(out_path) => {
            let _ = writeln!(
                text,
                "fitted spec written to {out_path} — run it with: uswg run {out_path} --model nfs"
            );
        }
        None => {
            text.push_str("pass --out <spec.json> to write the runnable spec\n");
        }
    }
    ok(text)
}

fn render_op_table(log: &UsageLog) -> String {
    let mut table = Table::new(vec![
        "system call",
        "count",
        "access size (B)",
        "response (µs)",
    ])
    .with_title("Per-system-call summary");
    for row in metrics::op_kind_summaries(log) {
        table.row(vec![
            row.kind.to_string(),
            row.count.to_string(),
            row.access_size.mean_std(),
            row.response.mean_std(),
        ]);
    }
    table.render()
}

fn render_tables() -> String {
    let mut text = String::new();
    let mut t1 = Table::new(vec!["category", "mean size (B)", "% of files"])
        .with_title("Table 5.1: file characterization");
    for &(cat, size, pct) in presets::TABLE_5_1.iter() {
        t1.row(vec![
            cat.to_string(),
            format!("{size:.0}"),
            format!("{pct:.1}"),
        ]);
    }
    text.push_str(&t1.render());
    text.push('\n');
    let mut t2 = Table::new(vec![
        "category",
        "accesses/byte",
        "file size",
        "files",
        "% users",
    ])
    .with_title("Table 5.2: user characterization");
    for &(cat, apb, size, files, pct) in presets::TABLE_5_2.iter() {
        t2.row(vec![
            cat.to_string(),
            format!("{apb:.3}"),
            format!("{size:.0}"),
            format!("{files:.1}"),
            format!("{pct:.0}"),
        ]);
    }
    text.push_str(&t2.render());
    text.push('\n');
    let mut t4 = Table::new(vec!["user type", "think time (µs)"])
        .with_title("Table 5.4: simulated user types");
    for (name, think) in [
        ("extremely heavy I/O", presets::THINK_EXTREMELY_HEAVY),
        ("heavy I/O", presets::THINK_HEAVY),
        ("light I/O", presets::THINK_LIGHT),
    ] {
        t4.row(vec![name.to_string(), format!("{think:.0}")]);
    }
    text.push_str(&t4.render());
    text
}

#[cfg(test)]
mod tests {
    use super::*;

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
                scheduler,
                spill,
                shards,
                users,
                summary,
            } => {
                assert_eq!(path, "spec.json");
                assert_eq!(model.unwrap().name(), "nfs");
                assert_eq!(out.as_deref(), Some("log.json"));
                assert_eq!(scheduler, None);
                assert_eq!(spill, None);
                assert_eq!(shards, None);
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
        let cmd = parse_args(argv("run spec.json --model nfs --shards 4")).unwrap();
        match cmd {
            Command::Run { shards, .. } => {
                assert_eq!(shards, Some(NonZeroUsize::new(4).unwrap()));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(argv("run spec.json --model nfs --spill log.bin")).unwrap();
        match cmd {
            Command::Run { spill, .. } => assert_eq!(spill.as_deref(), Some("log.bin")),
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(argv("run spec.json --direct")).unwrap();
        assert!(matches!(cmd, Command::Run { model: None, .. }));
        let cmd = parse_args(argv("run spec.json --model distributed:3")).unwrap();
        match cmd {
            Command::Run { model: Some(m), .. } => assert_eq!(m.name(), "distributed-nfs"),
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(argv("run spec.json --scheduler calendar")).unwrap();
        match cmd {
            Command::Run { scheduler, .. } => {
                assert_eq!(scheduler, Some(SchedulerBackend::Calendar));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse_args(argv("run")).is_err());
        assert!(parse_args(argv("run spec.json --model warp-drive")).is_err());
        assert!(parse_args(argv("run spec.json --scheduler splay")).is_err());
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
        assert!(parse_family("phase:0").is_err());
        assert!(parse_family("phase:99").is_err());
        assert!(parse_family("cauchy").is_err());
        // The spill path needs a timing model to stream from.
        assert!(parse_args(argv("run spec.json --spill log.bin")).is_err());
        assert!(parse_args(argv("run spec.json --direct --spill log.bin")).is_err());
        // Summary mode streams through the DES, so it also needs a model,
        // and it keeps no log for --out/--spill to write.
        assert!(parse_args(argv("run spec.json --summary")).is_err());
        assert!(parse_args(argv("run spec.json --model nfs --summary --out log.json")).is_err());
        assert!(parse_args(argv("run spec.json --model nfs --summary --spill log.bin")).is_err());
        // The population override must be a positive count.
        assert!(parse_args(argv("run spec.json --users 0")).is_err());
        assert!(parse_args(argv("run spec.json --users many")).is_err());
        assert!(parse_args(argv("run spec.json --users")).is_err());
        // Sharding is a DES-driver feature: no model, no shards; and the
        // count must be a positive integer.
        assert!(parse_args(argv("run spec.json --shards 2")).is_err());
        assert!(parse_args(argv("run spec.json --model nfs --shards 0")).is_err());
        assert!(parse_args(argv("run spec.json --model nfs --shards lots")).is_err());
        assert!(parse_args(argv("sweep spec.json --model nfs --users 1 --shards 0")).is_err());
        // Sweep needs a model and exactly one axis.
        assert!(parse_args(argv("sweep spec.json --users 1,2")).is_err());
        assert!(parse_args(argv("sweep spec.json --model nfs")).is_err());
        assert!(parse_args(argv("sweep spec.json --model nfs --users 1 --mix 0.5")).is_err());
        assert!(parse_args(argv("sweep spec.json --model nfs --users banana")).is_err());
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
    }

    #[test]
    fn parses_sweep_and_replicate() {
        let cmd = parse_args(argv(
            "sweep spec.json --model nfs --users 1,2,4 --jobs 2 --scheduler calendar --shards 2",
        ))
        .unwrap();
        match cmd {
            Command::Sweep {
                path,
                model,
                axis,
                jobs,
                scheduler,
                shards,
            } => {
                assert_eq!(path, "spec.json");
                assert_eq!(model.name(), "nfs");
                assert_eq!(axis, SweepAxis::Users(vec![1, 2, 4]));
                assert_eq!(jobs, Some(2));
                assert_eq!(scheduler, Some(SchedulerBackend::Calendar));
                assert_eq!(shards, Some(NonZeroUsize::new(2).unwrap()));
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
                jobs: None,
            }
        );
        assert_eq!(
            parse_args(argv(
                "analyze run.bin --json --by-type --salvage --since 100 \
                 --until 900 --sample 10 --jobs 4"
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
                jobs: Some(4),
            }
        );
        // Windowed flags validate their values.
        assert!(parse_args(argv("analyze run.bin --since")).is_err());
        assert!(parse_args(argv("analyze run.bin --since later")).is_err());
        assert!(parse_args(argv("analyze run.bin --sample 0")).is_err());
        assert!(parse_args(argv("analyze run.bin --jobs 0")).is_err());
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
        let spec_path = dir.join("spec.json");
        let log_path = dir.join("log.json");

        // init
        let msg = execute(Command::Init {
            path: spec_path.to_string_lossy().into(),
        })
        .unwrap();
        assert!(msg.contains("wrote"));

        // shrink the spec so the test is fast
        let mut spec =
            WorkloadSpec::from_json(&std::fs::read_to_string(&spec_path).unwrap()).unwrap();
        spec.run.sessions_per_user = 2;
        spec.fsc = spec
            .fsc
            .with_files_per_user(8)
            .unwrap()
            .with_shared_files(10)
            .unwrap();
        std::fs::write(&spec_path, spec.to_json().unwrap()).unwrap();

        // run (direct) with log output
        let out = execute(Command::Run {
            path: spec_path.to_string_lossy().into(),
            model: None,
            out: Some(log_path.to_string_lossy().into()),
            scheduler: None,
            spill: None,
            shards: None,
            users: None,
            summary: false,
        })
        .unwrap();
        assert!(out.contains("Per-system-call summary"));
        assert!(out.contains("sessions: 2"));
        let log = UsageLog::from_json(&std::fs::read_to_string(&log_path).unwrap()).unwrap();
        assert!(!log.ops().is_empty());

        // run (modelled), once per scheduler backend: same spec, same seed,
        // so the rendered summaries must be identical text.
        let run_with = |scheduler| {
            execute(Command::Run {
                path: spec_path.to_string_lossy().into(),
                model: Some(ModelConfig::default_local()),
                out: None,
                scheduler,
                spill: None,
                shards: None,
                users: None,
                summary: false,
            })
            .unwrap()
        };
        let out = run_with(Some(SchedulerBackend::Heap));
        assert!(out.contains("response time per byte"));
        assert_eq!(out, run_with(Some(SchedulerBackend::Calendar)));

        // summary mode with a population override: O(1)-memory headline run.
        let out = execute(Command::Run {
            path: spec_path.to_string_lossy().into(),
            model: Some(ModelConfig::default_local()),
            out: None,
            scheduler: None,
            spill: None,
            shards: None,
            users: NonZeroUsize::new(3),
            summary: true,
        })
        .unwrap();
        // 3 users × 2 sessions each: the override reached the DES.
        assert!(out.contains("model local"));
        assert!(out.contains("sessions: 6"));

        // fit
        let data_path = dir.join("data.txt");
        let mut body = String::from("# exponential-ish data\n");
        let truth = uswg_core::Exponential::new(500.0).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        for _ in 0..500 {
            let _ = writeln!(body, "{:.3}", truth.sample(&mut rng));
        }
        std::fs::write(&data_path, body).unwrap();
        let out = execute(Command::Fit {
            path: data_path.to_string_lossy().into(),
            family: Some(Family::Exponential),
            out: None,
            json: false,
            since: None,
            until: None,
            sample: None,
        })
        .unwrap();
        assert!(out.contains("KS D ="));

        // A text data file without --family is caught at execution, with
        // the capture-only flags rejected for the same reason.
        let data_arg: String = data_path.to_string_lossy().into();
        let err = execute(parse_args(argv(&format!("fit {data_arg}"))).unwrap());
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("--family")));
        let err = execute(parse_args(argv(&format!("fit {data_arg} --json"))).unwrap());
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("not one")));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_replicate_and_spill_smoke() {
        let dir = unique_test_dir("exp-test");
        let spec_path = dir.join("spec.json");
        let spill_path = dir.join("log.bin");

        let mut spec = WorkloadSpec::paper_default().unwrap();
        spec.run.sessions_per_user = 2;
        spec.fsc = spec
            .fsc
            .with_files_per_user(8)
            .unwrap()
            .with_shared_files(10)
            .unwrap();
        std::fs::write(&spec_path, spec.to_json().unwrap()).unwrap();
        let spec_arg: String = spec_path.to_string_lossy().into();

        // sweep: one table per axis.
        let out = execute(
            parse_args(argv(&format!(
                "sweep {spec_arg} --model nfs --users 1,2 --jobs 1"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("Sweep — model nfs"), "{out}");
        let out = execute(
            parse_args(argv(&format!("sweep {spec_arg} --model local --mix 0,1"))).unwrap(),
        )
        .unwrap();
        assert!(out.contains("Sweep — model local"), "{out}");
        assert!(out.contains("heavy frac"), "{out}");

        // replicate: per-seed rows plus the CI and pooled lines.
        let out = execute(
            parse_args(argv(&format!(
                "replicate {spec_arg} --model local --seeds 5,6 --jobs 1"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("Replication study — model local"), "{out}");
        assert!(out.contains("95% CI"), "{out}");
        assert!(out.contains("pooled over all seeds"), "{out}");

        // run --spill: streams the log to disk; reading it back gives the
        // exact log an in-memory run would have produced.
        let out = execute(
            parse_args(argv(&format!(
                "run {spec_arg} --model local --spill {}",
                spill_path.to_string_lossy()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("binary log spilled"), "{out}");
        let spilled = uswg_core::read_spill_path(&spill_path).unwrap();
        let (log, _) = spec
            .run_des(&ModelConfig::default_local(), UsageLog::new())
            .unwrap();
        assert_eq!(
            spilled.to_json().unwrap(),
            log.to_json().unwrap(),
            "spilled log must be byte-identical to the in-memory log"
        );

        // analyze: the run → spill → analyze pipeline, text shape.
        let spill_arg: String = spill_path.to_string_lossy().into();
        let out = execute(parse_args(argv(&format!("analyze {spill_arg}"))).unwrap()).unwrap();
        assert!(out.contains("Per-system-call summary"), "{out}");
        assert!(out.contains("v2 compressed"), "{out}");
        assert!(out.contains("response time per byte"), "{out}");
        assert!(!out.contains("Per-user-type"), "breakdown is opt-in: {out}");
        // --by-type adds the breakdown table.
        let out =
            execute(parse_args(argv(&format!("analyze {spill_arg} --by-type"))).unwrap()).unwrap();
        assert!(out.contains("Per-user-type summary"), "{out}");
        // --json emits a parseable report whose counts match the log.
        let out =
            execute(parse_args(argv(&format!("analyze {spill_arg} --json"))).unwrap()).unwrap();
        let parsed = serde_json::parse_value(&out).unwrap();
        assert_eq!(
            parsed.get("ops"),
            Some(&serde::Value::U64(log.ops().len() as u64))
        );
        assert_eq!(parsed.get("sessions"), Some(&serde::Value::U64(2)));
        assert!(parsed
            .get("op_mix")
            .and_then(serde::Value::as_seq)
            .is_some());
        assert_eq!(parsed.get("user_types"), Some(&serde::Value::Null));

        // Corrupt input surfaces as an error (a nonzero exit in main).
        let corrupt_path = dir.join("corrupt.bin");
        std::fs::write(&corrupt_path, b"NOTSPILLNOTDATA").unwrap();
        let err = execute(
            parse_args(argv(&format!("analyze {}", corrupt_path.to_string_lossy()))).unwrap(),
        );
        assert!(err.is_err(), "corrupt spill input must fail");
        // A truncated (unsealed) file fails too — no partial silent output.
        let bytes = std::fs::read(&spill_path).unwrap();
        std::fs::write(&corrupt_path, &bytes[..bytes.len() - 9]).unwrap();
        let err = execute(
            parse_args(argv(&format!("analyze {}", corrupt_path.to_string_lossy()))).unwrap(),
        );
        assert!(err.is_err(), "truncated spill input must fail");

        // Fault-free spill files never print the fault line — the text
        // report stays exactly what it was before fault injection existed.
        let out = execute(parse_args(argv(&format!("analyze {spill_arg}"))).unwrap()).unwrap();
        assert!(!out.contains("faults:"), "{out}");

        // run --shards 1 routes through the sharded driver but replays the
        // exact path: the rendered summary is identical text. A larger K
        // still runs (this spec has one user, so 4 shards collapse to 1
        // active shard and the output stays identical too).
        let run_sharded = |flags: &str| {
            execute(parse_args(argv(&format!("run {spec_arg} --model local{flags}"))).unwrap())
                .unwrap()
        };
        let unsharded = run_sharded("");
        assert_eq!(unsharded, run_sharded(" --shards 1"));
        assert_eq!(unsharded, run_sharded(" --shards 4"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salvage_reports_truncated_files_and_rejects_corrupt_ones() {
        let dir = unique_test_dir("salvage");
        let spec_path = dir.join("spec.json");
        let spill_path = dir.join("log.bin");

        // A *faulted* spec, so the analysis also exercises the fault
        // reporting path end to end.
        let mut spec = WorkloadSpec::paper_default().unwrap();
        spec.run.sessions_per_user = 2;
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
        spec.fsc = spec
            .fsc
            .with_files_per_user(8)
            .unwrap()
            .with_shared_files(10)
            .unwrap();
        std::fs::write(&spec_path, spec.to_json().unwrap()).unwrap();
        execute(
            parse_args(argv(&format!(
                "run {} --model local --spill {}",
                spec_path.to_string_lossy(),
                spill_path.to_string_lossy()
            )))
            .unwrap(),
        )
        .unwrap();
        let spill_arg: String = spill_path.to_string_lossy().into();

        // Intact file: clean exit, and the fault outcomes are reported.
        let (out, status) =
            execute_with_status(parse_args(argv(&format!("analyze {spill_arg}"))).unwrap())
                .unwrap();
        assert_eq!(status, EXIT_OK);
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("retries"), "{out}");
        assert!(out.contains("abort rate"), "{out}");
        assert!(!out.contains("warning"), "{out}");
        // The JSON report carries the same tallies plus the salvage flag.
        let (out, _) =
            execute_with_status(parse_args(argv(&format!("analyze {spill_arg} --json"))).unwrap())
                .unwrap();
        let parsed = serde_json::parse_value(&out).unwrap();
        assert_eq!(parsed.get("salvaged"), Some(&serde::Value::Bool(false)));
        assert!(matches!(parsed.get("retries"), Some(serde::Value::U64(n)) if *n > 0));

        // Truncated file, no --salvage: hard failure (exit 2 via main).
        let bytes = std::fs::read(&spill_path).unwrap();
        let cut_path = dir.join("cut.bin");
        std::fs::write(&cut_path, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let cut_arg: String = cut_path.to_string_lossy().into();
        assert!(execute(parse_args(argv(&format!("analyze {cut_arg}"))).unwrap()).is_err());

        // Truncated file with --salvage: the intact prefix is reported,
        // with a warning and the salvaged exit status.
        let (out, status) =
            execute_with_status(parse_args(argv(&format!("analyze {cut_arg} --salvage"))).unwrap())
                .unwrap();
        assert_eq!(status, EXIT_SALVAGED);
        assert!(out.contains("warning: spill file is truncated"), "{out}");
        assert!(out.contains("Per-system-call summary"), "{out}");
        // JSON mode flags the salvage instead of the warning line.
        let (out, status) = execute_with_status(
            parse_args(argv(&format!("analyze {cut_arg} --salvage --json"))).unwrap(),
        )
        .unwrap();
        assert_eq!(status, EXIT_SALVAGED);
        let parsed = serde_json::parse_value(&out).unwrap();
        assert_eq!(parsed.get("salvaged"), Some(&serde::Value::Bool(true)));

        // Corruption is NOT salvageable: an invalid frame tag right after
        // the magic fails closed even under --salvage.
        let mut corrupt = bytes.clone();
        corrupt[8] = 0xEE;
        let corrupt_path = dir.join("corrupt.bin");
        std::fs::write(&corrupt_path, &corrupt).unwrap();
        let err = execute_with_status(
            parse_args(argv(&format!(
                "analyze {} --salvage",
                corrupt_path.to_string_lossy()
            )))
            .unwrap(),
        );
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
        let tampered_path = dir.join("tampered.bin");
        std::fs::write(&tampered_path, &tampered).unwrap();
        let tampered_arg: String = tampered_path.to_string_lossy().into();
        assert!(execute(parse_args(argv(&format!("analyze {tampered_arg}"))).unwrap()).is_err());
        assert!(execute_with_status(
            parse_args(argv(&format!("analyze {tampered_arg} --salvage"))).unwrap()
        )
        .is_err());

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
    fn windowed_and_parallel_analyze_use_the_index() {
        let dir = unique_test_dir("window");
        let spill_path = dir.join("timed.bin");
        // A capture with a known time line: op i completes at i*10 µs, at
        // a small frame cap so the file holds many seekable frames.
        let mut sink = SpillSink::with_options(
            std::fs::File::create(&spill_path).unwrap(),
            SpillCodec::Compressed,
            64,
        )
        .unwrap();
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
        let arg: String = spill_path.to_string_lossy().into();

        // Full sequential pass, for reference.
        let (full, status) =
            execute_with_status(parse_args(argv(&format!("analyze {arg} --json"))).unwrap())
                .unwrap();
        assert_eq!(status, EXIT_OK);
        let full = serde_json::parse_value(&full).unwrap();
        assert_eq!(json_u64(&full, "ops"), 2000);
        assert_eq!(full.get("indexed"), Some(&serde::Value::Bool(false)));

        // A time window over [5000, 7000] µs holds ops 500..=700 and, via
        // the index, decodes only the overlapping frames.
        let (out, status) = execute_with_status(
            parse_args(argv(&format!(
                "analyze {arg} --json --since 5000 --until 7000"
            )))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(status, EXIT_OK);
        let windowed = serde_json::parse_value(&out).unwrap();
        assert_eq!(json_u64(&windowed, "ops"), 201);
        assert_eq!(windowed.get("indexed"), Some(&serde::Value::Bool(true)));
        let decoded = json_u64(&windowed, "frames_decoded");
        let total = json_u64(&windowed, "frames_total");
        assert_eq!(total, 2000 / 64 + 1);
        assert!(decoded <= 5, "{decoded} frames for a 201-op window");
        // Text mode names the coverage.
        let (out, _) = execute_with_status(
            parse_args(argv(&format!("analyze {arg} --since 5000 --until 7000"))).unwrap(),
        )
        .unwrap();
        assert!(out.contains("frame index: decoded"), "{out}");

        // Parallel analyze matches the sequential pass: counters exactly,
        // derived floats within 1e-9.
        let (out, status) = execute_with_status(
            parse_args(argv(&format!("analyze {arg} --json --jobs 4"))).unwrap(),
        )
        .unwrap();
        assert_eq!(status, EXIT_OK);
        let parallel = serde_json::parse_value(&out).unwrap();
        for key in ["ops", "sessions", "data_bytes", "goodput_bytes"] {
            assert_eq!(json_u64(&parallel, key), json_u64(&full, key), "{key}");
        }
        let (p, f) = match (
            parallel.get("response_per_byte"),
            full.get("response_per_byte"),
        ) {
            (Some(serde::Value::F64(p)), Some(serde::Value::F64(f))) => (*p, *f),
            other => panic!("{other:?}"),
        };
        assert!((p - f).abs() < 1e-9);
        assert_eq!(json_u64(&parallel, "frames_decoded"), total);

        // Sampling decodes every k-th frame.
        let (out, _) = execute_with_status(
            parse_args(argv(&format!("analyze {arg} --json --sample 4"))).unwrap(),
        )
        .unwrap();
        let sampled = serde_json::parse_value(&out).unwrap();
        assert_eq!(
            json_u64(&sampled, "frames_decoded"),
            (total as usize).div_ceil(4) as u64
        );

        // A cut inside the index footer: windowed flags fall back to the
        // streamed pass; --salvage reports *exact* totals (the record
        // stream is complete) with the footer warning, never an error.
        let bytes = std::fs::read(&spill_path).unwrap();
        let cut_path = dir.join("footer-cut.bin");
        std::fs::write(&cut_path, &bytes[..bytes.len() - 5]).unwrap();
        let cut_arg: String = cut_path.to_string_lossy().into();
        let (out, status) = execute_with_status(
            parse_args(argv(&format!(
                "analyze {cut_arg} --salvage --since 5000 --until 7000"
            )))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(status, EXIT_SALVAGED);
        assert!(out.contains("no index footer"), "{out}");
        assert!(out.contains("index footer is truncated"), "{out}");
        assert!(out.contains("totals are exact"), "{out}");
        assert!(out.contains(": 201 ops"), "{out}");
        // Same cut without --salvage is still an error…
        assert!(execute(parse_args(argv(&format!("analyze {cut_arg}"))).unwrap()).is_err());
        // …and a JSON salvage of the whole cut file carries every record.
        let (out, status) = execute_with_status(
            parse_args(argv(&format!("analyze {cut_arg} --salvage --json"))).unwrap(),
        )
        .unwrap();
        assert_eq!(status, EXIT_SALVAGED);
        let parsed = serde_json::parse_value(&out).unwrap();
        assert_eq!(json_u64(&parsed, "ops"), 2000);
        assert_eq!(parsed.get("salvaged"), Some(&serde::Value::Bool(true)));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fit_synthesizes_a_runnable_spec_from_a_capture() {
        let dir = unique_test_dir("fitspill");
        let spec_path = dir.join("spec.json");
        let spill_path = dir.join("cap.bin");
        let fitted_path = dir.join("fitted.json");

        let mut spec = WorkloadSpec::paper_default().unwrap();
        spec.run.n_users = 3;
        spec.run.sessions_per_user = 3;
        spec.fsc = spec
            .fsc
            .with_files_per_user(8)
            .unwrap()
            .with_shared_files(10)
            .unwrap();
        std::fs::write(&spec_path, spec.to_json().unwrap()).unwrap();
        let spec_arg: String = spec_path.to_string_lossy().into();
        let spill_arg: String = spill_path.to_string_lossy().into();
        let fitted_arg: String = fitted_path.to_string_lossy().into();
        execute(
            parse_args(argv(&format!(
                "run {spec_arg} --model local --spill {spill_arg}"
            )))
            .unwrap(),
        )
        .unwrap();

        // Text mode: per-measure fit table plus the written spec.
        let (out, status) = execute_with_status(
            parse_args(argv(&format!("fit {spill_arg} --out {fitted_arg}"))).unwrap(),
        )
        .unwrap();
        assert_eq!(status, EXIT_OK);
        assert!(out.contains("Fitted distributions"), "{out}");
        assert!(out.contains("fitted spec written to"), "{out}");
        assert!(out.contains("3 users"), "{out}");

        // The emitted spec parses, validates, and actually runs.
        let fitted =
            WorkloadSpec::from_json(&std::fs::read_to_string(&fitted_path).unwrap()).unwrap();
        assert_eq!(fitted.run.n_users, 3);
        assert_eq!(fitted.run.sessions_per_user, 3);
        let (log, _) = fitted
            .run_des(&ModelConfig::default_local(), UsageLog::new())
            .unwrap();
        assert!(!log.ops().is_empty());

        // JSON mode embeds the spec and the observation counts.
        let (out, _) =
            execute_with_status(parse_args(argv(&format!("fit {spill_arg} --json"))).unwrap())
                .unwrap();
        let parsed = serde_json::parse_value(&out).unwrap();
        assert_eq!(json_u64(&parsed, "users"), 3);
        assert!(json_u64(&parsed, "ops") > 0);
        assert!(parsed.get("spec").is_some());
        assert!(parsed
            .get("fits")
            .and_then(serde::Value::as_seq)
            .is_some_and(|fits| !fits.is_empty()));

        // A capture fits every measure itself: --family contradicts it.
        let err = execute(parse_args(argv(&format!("fit {spill_arg} --family exp"))).unwrap());
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("drop --family")));

        // A window past the end of the capture selects nothing — a clear
        // error, not a degenerate spec; analyze agrees.
        let err =
            execute(parse_args(argv(&format!("fit {spill_arg} --since 99999999999"))).unwrap());
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("selects no records")));
        let err =
            execute(parse_args(argv(&format!("analyze {spill_arg} --since 99999999999"))).unwrap());
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("selects no records")));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drive_loopback_smoke() {
        let dir = unique_test_dir("drive");
        let spec_path = dir.join("spec.json");
        let mut spec = WorkloadSpec::paper_default().unwrap();
        spec.run.sessions_per_user = 2;
        spec.fsc = spec
            .fsc
            .with_files_per_user(8)
            .unwrap()
            .with_shared_files(10)
            .unwrap();
        std::fs::write(&spec_path, spec.to_json().unwrap()).unwrap();

        // Replay heavily compressed (every op arrives ~immediately) against
        // a slow loopback with a tiny queue: completes fast, sheds hard.
        let (out, status) = execute_with_status(
            parse_args(argv(&format!(
                "drive {} --model local --speedup 1000000 --max-in-flight 2 \
                 --queue-cap 8 --service-us 300",
                spec_path.to_string_lossy()
            )))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(status, EXIT_OK);
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
        let spec_path = dir.join("spec.json");
        let spill_path = dir.join("cap.bin");
        let mut spec = WorkloadSpec::paper_default().unwrap();
        spec.run.sessions_per_user = 2;
        spec.fsc = spec
            .fsc
            .with_files_per_user(8)
            .unwrap()
            .with_shared_files(10)
            .unwrap();
        std::fs::write(&spec_path, spec.to_json().unwrap()).unwrap();
        let spec_arg: String = spec_path.to_string_lossy().into();
        let spill_arg: String = spill_path.to_string_lossy().into();

        // Capture a run, then replay the capture without a model.
        execute(
            parse_args(argv(&format!(
                "run {spec_arg} --model local --spill {spill_arg}"
            )))
            .unwrap(),
        )
        .unwrap();
        let expected_ops = spec
            .run_des(&ModelConfig::default_local(), UsageLog::new())
            .unwrap()
            .0
            .ops()
            .len();
        let (out, status) = execute_with_status(
            parse_args(argv(&format!(
                "drive {spec_arg} --from-spill {spill_arg} --speedup 1000000"
            )))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(status, EXIT_OK);
        assert!(out.contains("streaming capture"), "{out}");
        assert!(out.contains(&format!("offered {expected_ops}")), "{out}");
        assert!(!out.contains("warning"), "{out}");

        // A truncated capture drains what it has, warns, and exits 3 —
        // the drive-side twin of `analyze --salvage`.
        let bytes = std::fs::read(&spill_path).unwrap();
        let cut_path = dir.join("cut.bin");
        std::fs::write(&cut_path, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let (out, status) = execute_with_status(
            parse_args(argv(&format!(
                "drive {spec_arg} --from-spill {} --speedup 1000000",
                cut_path.to_string_lossy()
            )))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(status, EXIT_SALVAGED);
        assert!(out.contains("warning: op source ended early"), "{out}");
        assert!(out.contains("drive report"), "{out}");

        // A file that is not a spill capture at all is a hard error.
        let bogus = dir.join("bogus.bin");
        std::fs::write(&bogus, b"NOTASPILLFILE").unwrap();
        assert!(execute(
            parse_args(argv(&format!(
                "drive {spec_arg} --from-spill {}",
                bogus.to_string_lossy()
            )))
            .unwrap()
        )
        .is_err());

        std::fs::remove_dir_all(&dir).ok();
    }
}
