//! What a command line parses into — [`Command`] and the small types its
//! fields use — and the usage banner that documents it.

use crate::CliError;
use std::num::NonZeroUsize;
use uswg_core::experiment::ModelConfig;

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
        /// Optional path to stream the binary columnar log to during the
        /// run (full fidelity, O(1) resident memory; requires a model).
        spill: Option<String>,
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
        /// Worker threads (None = one per point, as cores allow).
        jobs: Option<usize>,
    },
    /// `replicate <path>`: rerun one workload under several seeds.
    Replicate {
        /// Path of the JSON spec.
        path: String,
        /// Timing model to measure.
        model: ModelConfig,
        /// The seeds to run.
        seeds: SeedSpec,
        /// Worker threads (None = one per seed, as cores allow).
        jobs: Option<usize>,
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
        /// Fan disjoint frame ranges across this many pool workers.
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

impl Command {
    /// Refuses the flag combinations no run can honour. `parse_args` ends
    /// with this and `execute` starts with it — `Command` is a public type,
    /// so a hand-built value gets the same answer as a typed one.
    pub(crate) fn validate(&self) -> Result<(), CliError> {
        let refusal = match self {
            Command::Run {
                model,
                out,
                spill,
                summary,
                ..
            } => {
                if model.is_none() && spill.is_some() {
                    Some("--spill needs a timing model (the direct driver does not stream)")
                } else if model.is_none() && *summary {
                    Some("--summary needs a timing model (the direct driver materializes its log)")
                } else if *summary && (out.is_some() || spill.is_some()) {
                    Some("--summary keeps no log, so --out/--spill have nothing to write")
                } else {
                    None
                }
            }
            Command::Drive {
                model, from_spill, ..
            } => match (model, from_spill) {
                (None, None) => {
                    Some("drive requires --model (or --from-spill to replay a capture)")
                }
                (Some(_), Some(_)) => Some("--from-spill replays a capture; drop --model"),
                _ => None,
            },
            Command::Replicate { seeds, .. } => return seeds.check_distinct(),
            _ => None,
        };
        refusal.map_or(Ok(()), |msg| Err(CliError::Usage(msg.into())))
    }
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
    /// A seed listed twice is one run counted as two samples: the interval
    /// would shrink on no new information. (A `Count` cannot collide.)
    fn check_distinct(&self) -> Result<(), CliError> {
        let mut seen = std::collections::HashSet::new();
        if let SeedSpec::List(seeds) = self {
            if let Some(seed) = seeds.iter().find(|&&seed| !seen.insert(seed)) {
                return Err(CliError::Usage(format!("--seeds lists {seed} twice")));
            }
        }
        Ok(())
    }

    pub(crate) fn resolve(&self, base: u64) -> Vec<u64> {
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

/// The usage banner.
pub const USAGE: &str = "\
uswg — user-oriented synthetic workload generator

USAGE:
  uswg init <spec.json>                 write the paper-default workload spec
  uswg run <spec.json> [OPTIONS]        execute a workload spec
      --model <M>      timing model: nfs | nfs-cached | local | whole-file |
                       distributed:<servers>   (default: direct driver, no model)
      --direct         the direct driver after all: drops an earlier --model
      --out <log.json> write the usage log as JSON
      --spill <p.bin>  stream the log to a compressed binary columnar file
                       during the run (full fidelity, O(1) resident memory;
                       model runs only — inspect it with uswg analyze)
      --scheduler calendar  accepted and ignored: the calendar queue is the
                       only event queue (`heap` is an error)
      --shards 1       accepted and ignored: a run is one simulation (K > 1
                       was removed, since each shard had its own servers)
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
      --shards 1       accepted and ignored (as for run)
  uswg replicate <spec.json> --model <M> [OPTIONS]
                                        rerun under independent seeds, report 95% CI
      --seeds 1,2,3    explicit seed list
      --replicates <N> N seeds counting up from the spec's seed (default 5)
      --jobs/--shards  as for sweep
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
