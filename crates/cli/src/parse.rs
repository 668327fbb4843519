//! The command-line grammar: `uswg <subcommand> [operand] [--flag [value]]…`,
//! walked by one cursor ([`Flags`]) for every subcommand.

use crate::command::{Command, Family, SeedSpec, SweepAxis};
use crate::CliError;
use std::num::NonZeroUsize;
use std::str::FromStr;
use uswg_core::experiment::ModelConfig;
use uswg_core::{NfsParams, UsimError};

/// The grammar, one row per subcommand: its name, then every flag it
/// accepts. The cursor vets each token against the row, and a unit test
/// holds the usage text to it.
const FLAGS: [&str; 6] = [
    "run --model --direct --out --spill --scheduler --shards --users --summary",
    "sweep --model --users --mix --sizes --jobs --shards",
    "replicate --model --seeds --replicates --jobs --shards",
    "drive --model --from-spill --speedup --max-in-flight --queue-cap --deadline-us \
     --service-us --fail-ppm",
    "fit --family --out --json --since --until --sample",
    "analyze --json --by-type --salvage --since --until --sample --jobs",
];

/// A cursor over one subcommand's flags. `next_flag` steps to the next
/// `--flag`; the value methods consume what follows the flag it returned.
struct Flags<'a> {
    known: &'static str,
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// The next flag, vetted against the subcommand's row of [`FLAGS`].
    fn next_flag(&mut self) -> Result<Option<&'a str>, CliError> {
        let Some(flag) = self.rest.next() else {
            return Ok(None);
        };
        self.flag = flag;
        if self.known.split(' ').any(|known| known == flag) {
            Ok(Some(flag))
        } else {
            Err(self.unknown())
        }
    }

    fn unknown(&self) -> CliError {
        CliError::Usage(format!("unknown flag `{}`", self.flag))
    }

    /// The current flag's value, verbatim.
    fn value(&mut self) -> Result<&'a str, CliError> {
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{} needs a value", self.flag)))
    }

    /// The current flag's value, parsed.
    fn parsed<T: FromStr>(&mut self) -> Result<T, CliError> {
        let value = self.value()?;
        value
            .parse()
            .map_err(|_| CliError::Usage(format!("bad {} value `{value}`", self.flag)))
    }

    /// The current flag's value as a count of at least 1.
    fn positive<T: FromStr + Default + PartialEq>(&mut self) -> Result<T, CliError> {
        let count = self.parsed::<T>()?;
        if count == T::default() {
            return Err(CliError::Usage(format!("{} must be at least 1", self.flag)));
        }
        Ok(count)
    }

    /// The current flag's value as a non-empty comma-separated list.
    fn list<T: FromStr>(&mut self) -> Result<Vec<T>, CliError> {
        let raw = self.value()?;
        let values: Result<Vec<T>, _> = raw.split(',').map(|v| v.trim().parse::<T>()).collect();
        values.map_err(|_| CliError::Usage(format!("bad {} list `{raw}`", self.flag)))
    }
}

/// The most servers `distributed:<n>` accepts. Each costs about 0.5 KB
/// (36 MB at this bound); far past it, resource registration runs the
/// process out of memory.
const MAX_SERVERS: usize = 65_536;

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
        if servers > MAX_SERVERS {
            return Err(CliError::Usage(format!(
                "server count {servers} exceeds the limit of {MAX_SERVERS}"
            )));
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

/// Checks `run --scheduler`'s value. The calendar queue is the only event
/// queue, so `calendar` is accepted and changes nothing.
fn check_scheduler(name: &str) -> Result<(), CliError> {
    match name {
        "calendar" => Ok(()),
        "heap" => Err(CliError::Usage(
            "--scheduler heap was removed: the calendar queue is the only event queue".into(),
        )),
        other => Err(CliError::Usage(format!(
            "unknown scheduler `{other}` (expected calendar)"
        ))),
    }
}

/// Checks a `--shards` value. A run is one simulation, so `1` is accepted
/// and changes nothing; a larger count is refused with the spec's reason.
fn check_shards(value: &str) -> Result<(), CliError> {
    match value.parse::<NonZeroUsize>() {
        Ok(k) if k.get() == 1 => Ok(()),
        Ok(k) => Err(CliError::Usage(format!(
            "--shards {k}: {}",
            UsimError::ShardsRetired { shards: k.get() }
        ))),
        Err(_) => Err(CliError::Usage(format!(
            "bad shard count `{value}` (expected 1)"
        ))),
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

/// Largest accepted `--replicates` value: every seed becomes one full
/// simulation, so anything past this is a typo, and the bound keeps
/// `SeedSpec::resolve` from materializing an absurd seed vector.
const MAX_REPLICATES: u64 = 1_000_000;

/// What the flags of one command line said, before the subcommand picks
/// out its own. A flag is parsed where it is met, so it has one syntax
/// wherever [`FLAGS`] accepts it (`--users` alone means two things: `run`'s
/// population, `sweep`'s axis).
#[derive(Debug, Default)]
struct Parsed {
    model: Option<ModelConfig>,
    out: Option<String>,
    spill: Option<String>,
    from_spill: Option<String>,
    users: Option<NonZeroUsize>,
    jobs: Option<usize>,
    axis: Option<SweepAxis>,
    seeds: Option<Vec<u64>>,
    replicates: Option<u64>,
    speedup: Option<f64>,
    max_in_flight: Option<usize>,
    queue_cap: Option<usize>,
    deadline_micros: Option<u64>,
    service_micros: Option<u64>,
    fail_ppm: Option<u32>,
    family: Option<Family>,
    since: Option<u64>,
    until: Option<u64>,
    sample: Option<u64>,
    summary: bool,
    json: bool,
    by_type: bool,
    salvage: bool,
}

impl Parsed {
    fn set_axis(&mut self, axis: SweepAxis) -> Result<(), CliError> {
        match self.axis.replace(axis) {
            None => Ok(()),
            Some(_) => Err(CliError::Usage(
                "sweep takes exactly one of --users, --mix, --sizes".into(),
            )),
        }
    }

    fn require_model(&self, command: &str) -> Result<ModelConfig, CliError> {
        self.model
            .clone()
            .ok_or_else(|| CliError::Usage(format!("{command} requires --model")))
    }
}

/// Parses `<subcommand> <operand> [flags…]` into the operand and what the
/// flags said. `needs` names the operand for the error when it is missing
/// or is itself a `--flag`.
fn parse_flags(args: &[String], needs: &str) -> Result<(String, Parsed), CliError> {
    let subcommand = args[0].as_str();
    let operand = args
        .get(1)
        .filter(|arg| !arg.starts_with("--"))
        .ok_or_else(|| CliError::Usage(format!("{subcommand} needs {needs}")))?;
    let mut flags = Flags {
        known: FLAGS
            .iter()
            .find_map(|row| row.strip_prefix(subcommand)?.strip_prefix(' '))
            .unwrap_or(""),
        rest: args[2..].iter(),
        flag: "",
    };
    let mut p = Parsed::default();
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--model" => p.model = Some(parse_model(flags.value()?)?),
            "--direct" => p.model = None,
            "--out" => p.out = Some(flags.value()?.to_string()),
            "--spill" => p.spill = Some(flags.value()?.to_string()),
            "--from-spill" => p.from_spill = Some(flags.value()?.to_string()),
            "--scheduler" => check_scheduler(flags.value()?)?,
            "--shards" => check_shards(flags.value()?)?,
            "--users" if subcommand == "sweep" => p.set_axis(SweepAxis::Users(flags.list()?))?,
            "--users" => p.users = Some(flags.parsed()?),
            "--mix" => {
                let mix: Vec<f64> = flags.list()?;
                // NaN is in no range, so it is refused here too.
                if let Some(bad) = mix.iter().find(|f| !(0.0..=1.0).contains(*f)) {
                    return Err(CliError::Usage(format!("--mix {bad} is not in [0, 1]")));
                }
                p.set_axis(SweepAxis::Mix(mix))?;
            }
            "--sizes" => p.set_axis(SweepAxis::Sizes(flags.list()?))?,
            "--jobs" => p.jobs = Some(flags.positive()?),
            "--seeds" => p.seeds = Some(flags.list()?),
            "--replicates" => {
                let n: u64 = flags.positive()?;
                if n > MAX_REPLICATES {
                    return Err(CliError::Usage(format!(
                        "--replicates is capped at {MAX_REPLICATES}"
                    )));
                }
                p.replicates = Some(n);
            }
            "--speedup" => {
                let speedup: f64 = flags.parsed()?;
                if !(speedup > 0.0 && speedup.is_finite()) {
                    return Err(CliError::Usage(
                        "--speedup must be finite and positive".into(),
                    ));
                }
                p.speedup = Some(speedup);
            }
            "--max-in-flight" => p.max_in_flight = Some(flags.positive()?),
            "--queue-cap" => p.queue_cap = Some(flags.positive()?),
            "--deadline-us" => p.deadline_micros = Some(flags.parsed()?),
            "--service-us" => p.service_micros = Some(flags.parsed()?),
            "--fail-ppm" => {
                let ppm: u32 = flags.parsed()?;
                if ppm > 1_000_000 {
                    return Err(CliError::Usage(
                        "--fail-ppm is a parts-per-million rate (0..=1000000)".into(),
                    ));
                }
                p.fail_ppm = Some(ppm);
            }
            "--family" => p.family = Some(parse_family(flags.value()?)?),
            "--since" => p.since = Some(flags.parsed()?),
            "--until" => p.until = Some(flags.parsed()?),
            "--sample" => p.sample = Some(flags.positive()?),
            "--summary" => p.summary = true,
            "--json" => p.json = true,
            "--by-type" => p.by_type = true,
            "--salvage" => p.salvage = true,
            _ => return Err(flags.unknown()),
        }
    }
    match (p.since, p.until) {
        (Some(s), Some(u)) if s > u => Err(CliError::Usage(format!(
            "--since {s} is after --until {u}: empty window"
        ))),
        _ => Ok((operand.clone(), p)),
    }
}

/// Parses a full argument list (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed command lines.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let args: Vec<String> = args.into_iter().collect();
    let Some(subcommand) = args.first() else {
        return Ok(Command::Help);
    };
    if subcommand == "help" || args.iter().any(|arg| arg == "--help" || arg == "-h") {
        return Ok(Command::Help);
    }
    let spec_file = "a spec file";
    let command = match subcommand.as_str() {
        "tables" => Command::Tables,
        "init" => Command::Init {
            path: parse_flags(&args, "a destination path")?.0,
        },
        "run" => {
            let (path, p) = parse_flags(&args, spec_file)?;
            Command::Run {
                path,
                model: p.model,
                out: p.out,
                spill: p.spill,
                users: p.users,
                summary: p.summary,
            }
        }
        "sweep" => {
            let (path, p) = parse_flags(&args, spec_file)?;
            Command::Sweep {
                path,
                model: p.require_model("sweep")?,
                axis: p.axis.ok_or_else(|| {
                    CliError::Usage("sweep needs an axis: --users, --mix or --sizes".into())
                })?,
                jobs: p.jobs,
            }
        }
        "replicate" => {
            let (path, p) = parse_flags(&args, spec_file)?;
            let model = p.require_model("replicate")?;
            let seeds = match (p.seeds, p.replicates) {
                (Some(_), Some(_)) => {
                    return Err(CliError::Usage(
                        "pass --seeds or --replicates, not both".into(),
                    ));
                }
                (Some(list), None) => SeedSpec::List(list),
                (None, count) => SeedSpec::Count(count.unwrap_or(5)),
            };
            Command::Replicate {
                path,
                model,
                seeds,
                jobs: p.jobs,
            }
        }
        "drive" => {
            let (path, p) = parse_flags(&args, spec_file)?;
            Command::Drive {
                path,
                model: p.model,
                from_spill: p.from_spill,
                speedup: p.speedup.unwrap_or(1.0),
                max_in_flight: p.max_in_flight.unwrap_or(4),
                queue_cap: p.queue_cap.unwrap_or(1024),
                deadline_micros: p.deadline_micros.unwrap_or(0),
                service_micros: p.service_micros.unwrap_or(0),
                fail_ppm: p.fail_ppm.unwrap_or(0),
            }
        }
        "fit" => {
            let (path, p) = parse_flags(&args, "a data file or spill capture")?;
            Command::Fit {
                path,
                family: p.family,
                out: p.out,
                json: p.json,
                since: p.since,
                until: p.until,
                sample: p.sample,
            }
        }
        "analyze" => {
            let (path, p) = parse_flags(&args, "a spill file")?;
            Command::Analyze {
                path,
                json: p.json,
                by_type: p.by_type,
                salvage: p.salvage,
                since: p.since,
                until: p.until,
                sample: p.sample,
                jobs: p.jobs,
            }
        }
        other => return Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    command.validate()?;
    Ok(command)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::USAGE;
    use std::collections::BTreeSet;

    /// The flags the usage text *defines* for `subcommand`: every `--token`
    /// on its `uswg <subcommand>` synopsis lines, the token that opens an
    /// option line beneath them (six-space indent; `--a/--b` opens with
    /// both), and every `--token` of a `<NAME> = …` line. Deeper-indented
    /// prose, and prose after an option's name, only mentions flags.
    fn usage_flags(subcommand: &str) -> BTreeSet<&'static str> {
        let mut flags = BTreeSet::new();
        let mut inside = false;
        for line in USAGE.lines() {
            let defining: Vec<&str> = if let Some(synopsis) = line.strip_prefix("  uswg ") {
                inside = synopsis.split(' ').next() == Some(subcommand);
                synopsis.split(' ').collect()
            } else if line.starts_with("      --") {
                line.trim_start()
                    .split(' ')
                    .next()
                    .unwrap()
                    .split('/')
                    .collect()
            } else if line.starts_with("      <") {
                line.split(' ').collect()
            } else {
                continue;
            };
            if inside {
                flags.extend(defining.into_iter().filter(|token| token.starts_with("--")));
            }
        }
        flags
    }

    #[test]
    fn the_usage_text_and_the_parser_know_the_same_flags() {
        for row in FLAGS {
            let (subcommand, accepted) = row.split_once(' ').unwrap();
            let accepted: BTreeSet<&str> = accepted.split(' ').collect();
            assert_eq!(usage_flags(subcommand), accepted, "uswg {subcommand}");
            // Every row entry has an arm behind it: the parser may want a
            // better value than `1` (or none), but it knows the flag.
            for flag in accepted {
                let line = [subcommand, "operand", flag, "1"].map(String::from);
                if let Err(e) = parse_args(line) {
                    let unknown = format!("unknown flag `{flag}`");
                    assert!(!e.to_string().contains(&unknown), "{subcommand}: {e}");
                }
            }
        }
    }
}
