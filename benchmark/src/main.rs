//! The uswg benchmark harness. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [--seed N]
//!     every workload, untraced then traced; writes benchmark/out/results.json
//! … -- --workload W --seed N --seconds S --trace 0|1
//!     one run, as the acceptance driver makes it; last stdout line is JSON
//! … -- --aa
//!     two complete sets on the same build, compared under the bounds
//! ```

mod aa;
mod child;
mod contract;
mod layers;
mod parse;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use contract::Contract;
use report::{obj, text, write_out, Json};
use run::{EndToEnd, Traced, END_TO_END};
use serde::Value;
use stats::{median, quartiles};
use std::path::{Path, PathBuf};
use workload::{Env, Workload, SIZES};

/// The seed the benchmark was developed on; claims are confirmed on one
/// other.
const DEVELOPMENT_SEED: u64 = 24301;

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    aa: bool,
}

const USAGE: &str =
    "usage: uswg-benchmark [--workload deep_nfs|wide_local|capture_loop|drive_replay] \
[--seed N] [--seconds S] [--trace 0|1] | --aa [--seed N] [--seconds S]";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--aa" {
            parsed.aa = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => parsed.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.aa && (parsed.trace || parsed.workload.is_some()) {
        return Err("--aa compares untraced runs of every workload".into());
    }
    Ok(parsed)
}

/// Builds the program under test with its own workspace's settings and
/// returns where the binary landed. Cargo's fingerprints make this a no-op
/// when `target/release/uswg` is already newer than every source file, and
/// a rebuild when it is not — so a stale binary is never measured.
fn build_uswg(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = child::hermetic(Path::new(&cargo))
        .args(["build", "--release", "--offline", "-p", "uswg-cli"])
        .current_dir(root)
        // Keep stdout for the result line.
        .stdout(std::io::stderr())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building uswg-cli failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let binary = root.join(target).join("release").join("uswg");
    if !binary.is_file() {
        return Err(format!("cargo built no {}", binary.display()));
    }
    Ok(binary)
}

/// One metric of a run: its result, then the quartiles of its series.
fn print_series((name, unit, values): &run::Series, result: f64) {
    let [q1, median, q3] = quartiles(values);
    println!(
        "  {name:<24} {result:>14.6} {unit:<6} [q1 {q1:.6} | median {median:.6} | q3 {q3:.6}] n={}",
        values.len()
    );
}

fn print_end_to_end(workload: Workload, seed: u64, e2e: &EndToEnd) {
    println!(
        "{} (seed {seed}) — end to end, tracing off; unit of work: {}",
        workload.name(),
        workload.unit_of_work()
    );
    for (series, (_, result)) in e2e.series.iter().zip(e2e.values()) {
        print_series(series, result);
    }
    for series in &e2e.extras {
        print_series(series, median(&series.2));
    }
    println!(
        "  attempted {} | failed {} | fingerprint {:?}",
        e2e.attempted, e2e.failed, e2e.fingerprint
    );
}

fn print_traced(workload: Workload, seed: u64, traced: &Traced) {
    println!(
        "{} (seed {seed}) — per layer, traced in-process pass",
        workload.name()
    );
    for ((name, value), (_, unit)) in traced.metrics.iter().zip(layers::PER_LAYER) {
        println!("  {name:<30} {value:>16.4} {unit}");
    }
    for (untraced, traced) in &traced.pairs {
        println!("  in-process wall: untraced {untraced:.3} s | traced {traced:.3} s");
    }
    println!(
        "  {:<24} {:>10} {:>10} {:>10}",
        "span", "total ms", "self ms", "calls"
    );
    for (name, total, own, calls) in report::span_table(traced.workload_trace.spans()) {
        println!(
            "  {name:<24} {:>10.2} {:>10.2} {calls:>10}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

/// The result line the acceptance driver reads: last on stdout.
fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
    units: &[(&str, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .zip(units)
        .map(|((name, value), (_, unit))| {
            (
                *name,
                obj([("value", Value::F64(*value)), ("unit", text(*unit))]),
            )
        })
        .collect::<Vec<_>>();
    serde_json::to_string(&Json(obj([
        ("correct", Value::Bool(true)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", obj(metrics)),
    ])))
    .expect("a value tree always renders")
}

fn write_trace(env: &Env, workload: Workload, seed: u64, traced: &Traced) -> Result<(), String> {
    write_out(
        env,
        &format!("trace-{}.json", workload.name()),
        obj([
            ("workload", text(workload.name())),
            ("seed", Value::U64(seed)),
            ("spans", report::spans_json(traced.workload_trace.spans())),
            ("probes", report::spans_json(traced.probe_trace.spans())),
        ]),
    )
}

/// Every workload, untraced then traced; writes `out/results.json` and
/// compares fingerprints with the recorded baseline.
fn run_all(seed: u64, seconds: f64, root: &Path, env: &Env) -> Result<(), String> {
    let baseline = std::fs::read_to_string(root.join("benchmark/baseline.json"))
        .ok()
        .and_then(|json| serde_json::parse_value(&json).ok());
    // Every untraced run before any traced one: Linux folds the spawning
    // process's own peak RSS into a child's `ru_maxrss`, and the in-process
    // traced passes make this process as large as the program.
    let mut untraced = Vec::new();
    for workload in Workload::ALL {
        let e2e = run::end_to_end(workload, seed, seconds, &SIZES, env)?;
        print_end_to_end(workload, seed, &e2e);
        let recorded = baseline
            .as_ref()
            .and_then(|b| report::recorded_fingerprint(b, workload, seed));
        if let Some(recorded) = recorded.filter(|r| *r != e2e.fingerprint) {
            println!(
                "  simulated statistics changed: recorded {recorded:?} — a speed-only change \
                 must leave them identical"
            );
        }
        untraced.push(e2e);
    }
    let mut workloads = Vec::new();
    for (workload, e2e) in Workload::ALL.into_iter().zip(&untraced) {
        let traced = run::traced(workload, seed, seconds, &SIZES, env)?;
        print_traced(workload, seed, &traced);
        write_trace(env, workload, seed, &traced)?;
        workloads.push((workload.name(), report::workload_json(e2e, &traced)));
    }
    write_out(
        env,
        "results.json",
        obj([
            ("seed", Value::U64(seed)),
            ("run_seconds", Value::F64(seconds)),
            ("host", report::host_json(root)),
            ("workloads", obj(workloads)),
        ]),
    )
}

/// Runs the mode `args` asks for; `Ok(false)` is an `--aa` that did not pass.
fn run_mode(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root: ./crates/cli/Cargo.toml is not here".into());
    }
    let contract = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))
        .and_then(|json| Contract::parse(&json))?;
    let env = Env {
        uswg: build_uswg(&root)?,
        out: root.join("benchmark/out"),
    };
    std::fs::create_dir_all(&env.out)
        .map_err(|e| format!("creating {}: {e}", env.out.display()))?;
    let seed = args.seed.unwrap_or(DEVELOPMENT_SEED);
    let seconds = args.seconds.unwrap_or(contract.run_seconds);

    if args.aa {
        return aa::run(seed, seconds, &contract, &env);
    }
    let Some(workload) = args.workload else {
        run_all(seed, seconds, &root, &env)?;
        return Ok(true);
    };
    if args.trace {
        let traced = run::traced(workload, seed, seconds, &SIZES, &env)?;
        print_traced(workload, seed, &traced);
        write_trace(&env, workload, seed, &traced)?;
        println!(
            "{}",
            result_line(traced.attempted, 0, &traced.metrics, &layers::PER_LAYER)
        );
    } else {
        let e2e = run::end_to_end(workload, seed, seconds, &SIZES, &env)?;
        print_end_to_end(workload, seed, &e2e);
        println!(
            "{}",
            result_line(e2e.attempted, e2e.failed, &e2e.values(), &END_TO_END)
        );
    }
    Ok(true)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("uswg-benchmark: {message}\n{USAGE}");
        std::process::exit(2);
    });
    match run_mode(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("uswg-benchmark: {message}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::tests::TINY;

    /// The program under test, built once for the tests that run it.
    fn env() -> &'static Env {
        static ENV: std::sync::OnceLock<Env> = std::sync::OnceLock::new();
        ENV.get_or_init(|| {
            let root = Path::new(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .expect("the repository root");
            let out = root.join("benchmark/out");
            std::fs::create_dir_all(&out).unwrap();
            Env {
                uswg: build_uswg(root).expect("uswg-cli builds"),
                out,
            }
        })
    }

    #[test]
    fn the_seed_reaches_the_program_and_decides_the_fingerprint() {
        let fingerprint = |seed| {
            let p = workload::set_up(Workload::DeepNfs, seed, &TINY, env()).unwrap();
            assert_eq!(p.spec.run.seed, seed);
            workload::rep(&p, env()).unwrap().fingerprint
        };
        let (a, again, b) = (fingerprint(1), fingerprint(1), fingerprint(2));
        assert_eq!(a, again, "a run is a pure function of spec and seed");
        assert_ne!(a, b, "another seed is another workload");
        assert_eq!(a["run.sessions"], 6);
    }

    /// Every workload end to end and traced, at sizes small enough for a
    /// debug build: all output checks pass and every metric has a value.
    #[test]
    fn every_workload_runs_checked_at_tiny_sizes() {
        for workload in Workload::ALL {
            let e2e = run::end_to_end(workload, 5, 0.01, &TINY, env()).unwrap();
            assert_eq!(e2e.failed, 0);
            assert!(e2e.attempted > 0);
            for (name, value) in e2e.values() {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{} {name} = {value}",
                    workload.name()
                );
            }
            let traced = run::traced(workload, 5, 0.01, &TINY, env()).unwrap();
            let names: Vec<_> = traced.metrics.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, layers::PER_LAYER.map(|(name, _)| name));
            for (name, value) in &traced.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", workload.name());
            }
            // The run workloads never enter the capture or drive layers.
            let has = |prefix: &str| {
                traced
                    .workload_trace
                    .spans()
                    .iter()
                    .any(|s| s.name.starts_with(prefix))
            };
            let pipeline = has("spill.") || has("analyze.") || has("drive.");
            assert_eq!(
                pipeline,
                matches!(workload, Workload::CaptureLoop | Workload::DriveReplay),
                "{}",
                workload.name()
            );
        }
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse_args(argv(
            "--workload wide_local --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload, Some(Workload::WideLocal));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(12.0), true)
        );
        assert!(parse_args(argv("--workload nope")).is_err());
        assert!(parse_args(argv("--trace 2")).is_err());
        assert!(parse_args(argv("--seconds 0")).is_err());
        assert!(parse_args(argv("--aa --trace 1")).is_err());
        assert!(parse_args(argv("--aa --workload deep_nfs")).is_err());
        assert!(parse_args(argv("--aa --seed 3")).is_ok());
        assert!(parse_args(argv("--seed")).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            10,
            0,
            &[("work_per_s", 1.25), ("cpu_us_per_unit", 0.5)],
            &END_TO_END[..2],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"work_per_s":{"value":1.25,"unit":"1/s"},"cpu_us_per_unit":{"value":0.5,"unit":"us"}}}"#
        );
    }
}
