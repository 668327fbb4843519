//! The shipped `uswg` binary, spawned as a child process: the contracts
//! that only hold (or only break) at the process boundary — what the
//! environment may and may not change, and that the three `run` modes are
//! one simulation seen through three sinks.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use uswg_core::WorkloadSpec;

/// A fresh scratch directory under cargo's per-target test tmpdir.
fn scratch(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("uswg-binary-{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a small 8-user spec (so `--shards 4` has four active shards).
fn write_spec(dir: &Path) -> String {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.n_users = 8;
    spec.run.sessions_per_user = 2;
    spec.fsc = spec
        .fsc
        .with_files_per_user(8)
        .unwrap()
        .with_shared_files(10)
        .unwrap();
    let path = dir.join("spec.json");
    std::fs::write(&path, spec.to_json().unwrap()).unwrap();
    path.to_string_lossy().into()
}

/// The shard-count and scheduler variables the library used to read, each
/// with a malformed value. Spelled in halves so a grep for the names over
/// the tree lists live readers only — and there are none.
const STALE_ENV: [(&str, &str); 2] = [
    (concat!("USWG_", "SHARDS"), "abc"),
    (concat!("USWG_", "SCHEDULER"), "fifo"),
];

/// Runs `uswg <args>` with the [`STALE_ENV`] names scrubbed and `env` set.
fn uswg(args: &str, env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uswg"))
        .args(args.split_whitespace())
        .env_remove(STALE_ENV[0].0)
        .env_remove(STALE_ENV[1].0)
        .envs(env.iter().copied())
        .output()
        .expect("uswg spawns")
}

fn stdout_of(out: &Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what}: exit {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// The library used to read the [`STALE_ENV`] variables and panic on a
/// malformed value (exit 101 from inside the run, or from a pool helper
/// thread under `sweep --jobs 2`). A run is now a function of the spec and
/// the flags alone: stale values in the environment change nothing.
#[test]
fn stale_uswg_environment_variables_change_nothing() {
    let dir = scratch("env");
    let spec = write_spec(&dir);
    for args in [
        format!("run {spec} --model local --summary"),
        format!("sweep {spec} --model local --users 1,2,3 --jobs 2"),
    ] {
        let clean = stdout_of(&uswg(&args, &[]), &args);
        let with_stale = stdout_of(&uswg(&args, &STALE_ENV), &args);
        assert_eq!(clean, with_stale, "{args}");
        assert!(!clean.is_empty(), "{args}");
    }
}

/// Sweep, shard and frame-range workers share one thread budget, and the
/// width asked for — past the cores, past the tasks — changes no printed byte.
#[test]
fn nested_fan_outs_print_the_same_bytes_at_any_width() {
    let dir = scratch("widths");
    let (spec, capture) = (write_spec(&dir), dir.join("run.bin").display().to_string());
    let out = |args: String| stdout_of(&uswg(&args, &[]), &args);
    out(format!("run {spec} --model nfs --spill {capture}"));
    let sweep = format!("sweep {spec} --model local --users 1,2,3,4 --shards 2");
    let analyze = format!("analyze {capture}");
    // 64 workers for four points; 100000 for a capture of five frames.
    for (command, widths) in [(sweep, [1, 2, 64]), (analyze, [1, 3, 100_000])] {
        let [one, some, many] = widths.map(|jobs| out(format!("{command} --jobs {jobs}")));
        assert!(one.lines().count() > 4, "{one}");
        assert_eq!((&one, &one), (&some, &many), "{command}");
    }
}

/// The headline lines of a `uswg run` report.
fn headline(report: &str) -> Vec<&str> {
    let lines: Vec<&str> = report
        .lines()
        .filter(|l| l.starts_with("data ops:") || l.starts_with("response time per byte:"))
        .collect();
    assert_eq!(lines.len(), 2, "{report}");
    lines
}

/// Default, `--summary` and `--spill` are one `run_des` call with three
/// sinks, so for one spec and seed they print the same numbers.
#[test]
fn run_modes_print_the_same_headline_numbers() {
    let dir = scratch("modes");
    let spec = write_spec(&dir);
    let spill = dir.join("run.bin");
    for shards in ["", " --shards 2"] {
        let default = stdout_of(
            &uswg(&format!("run {spec} --model nfs{shards}"), &[]),
            "default",
        );
        let summary = stdout_of(
            &uswg(&format!("run {spec} --model nfs --summary{shards}"), &[]),
            "--summary",
        );
        let spilled = stdout_of(
            &uswg(
                &format!("run {spec} --model nfs --spill {}{shards}", spill.display()),
                &[],
            ),
            "--spill",
        );
        assert_eq!(headline(&default), headline(&summary), "shards `{shards}`");
        assert_eq!(headline(&default), headline(&spilled), "shards `{shards}`");
        // Same simulation, too: the `model … | N events | T simulated` line.
        assert_eq!(default.lines().next(), summary.lines().next());
        assert_eq!(default.lines().next(), spilled.lines().next());
    }
}

/// Sharded summaries fold per-shard sinks in memory — on `run --summary`
/// exactly as in sweeps — so they work with no usable temporary directory.
/// A sharded `--spill` does need one (per-shard streams merge from disk)
/// and reports its absence as a typed error, not a panic.
#[test]
fn sharded_summaries_need_no_temporary_directory() {
    let dir = scratch("tmpdir");
    let spec = write_spec(&dir);
    let blocker = dir.join("not-a-directory");
    std::fs::write(&blocker, b"").unwrap();
    let below_a_file = blocker.join("x");
    let tmpdir = [("TMPDIR", below_a_file.to_str().unwrap())];

    let args = format!("run {spec} --model local --summary --shards 4");
    let unusable = stdout_of(&uswg(&args, &tmpdir), &args);
    assert_eq!(unusable, stdout_of(&uswg(&args, &[]), &args));

    let args = format!("sweep {spec} --model local --users 4,8 --shards 4");
    stdout_of(&uswg(&args, &tmpdir), &args);

    let args = format!(
        "run {spec} --model local --shards 4 --spill {}",
        dir.join("run.bin").display()
    );
    let out = uswg(&args, &tmpdir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("spill:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A population that cannot fit in `vfs.max_inodes` is refused up front,
/// with a message that names the field, the demand and the limit — not a
/// bare ENOSPC after 65 k inodes have been built.
#[test]
fn a_population_too_big_for_max_inodes_is_refused_by_name() {
    let dir = scratch("inodes");
    let spec_path = write_spec(&dir);
    let spec = WorkloadSpec::from_json(&std::fs::read_to_string(&spec_path).unwrap()).unwrap();
    assert_eq!(spec.vfs.max_inodes, 65_536, "the default the message names");
    // The demand is linear in the population: measure it at one and two
    // users on real builds, extrapolate to 100 000.
    let used = |n_users| {
        let mut spec = spec.clone();
        spec.run.n_users = n_users;
        spec.generate_fs().unwrap().0.statfs().used_inodes
    };
    let demand = (used(1) - 1) + 99_999 * (used(2) - used(1));

    let args = format!("run {spec_path} --model local --summary --users 100000");
    let out = uswg(&args, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    for part in ["vfs.max_inodes", &demand.to_string(), "65536"] {
        assert!(stderr.contains(part), "no {part:?} in: {stderr}");
    }
    assert!(!stderr.contains("ENOSPC"), "{stderr}");
}

/// `--help` or `-h` anywhere on the line asks for the usage text (banner on
/// stdout, exit 0) instead of being taken for an operand; and a failure
/// names what was wrong — the file, the missing operand, the flag.
#[test]
fn help_is_never_an_operand_and_errors_name_their_cause() {
    for subcommand in [
        "init",
        "run",
        "sweep",
        "replicate",
        "drive",
        "fit",
        "analyze",
        "tables",
    ] {
        for args in [format!("{subcommand} --help"), format!("{subcommand} x -h")] {
            let text = stdout_of(&uswg(&args, &[]), &args);
            assert!(text.starts_with("uswg — user-oriented"), "{args}: {text}");
        }
    }
    for (args, cause) in [
        ("run missing.json", "missing.json: No such file"),
        ("analyze --json", "analyze needs a spill file"),
        (
            "sweep s.json --model nfs --users 1 --summary",
            "unknown flag `--summary`",
        ),
    ] {
        let out = uswg(args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(cause), "{args}: {stderr}");
    }
}

/// `--max-in-flight` beyond the threads the OS grants is a typed error, not
/// a panic from `thread::spawn` (status 101 here, 134 under a task limit).
/// The address-space ceiling is the idiom CI's million-user step uses, so it
/// binds as root too: 2 MiB stacks run out after ~100 threads; eight fit.
#[test]
fn more_workers_than_the_os_grants_is_a_typed_error() {
    let dir = scratch("spawn");
    let (spec, capture) = (write_spec(&dir), dir.join("run.bin").display().to_string());
    let args = format!("run {spec} --model nfs --spill {capture}");
    stdout_of(&uswg(&args, &[]), &args);
    let limited = |max_in_flight: &str| {
        let script = "ulimit -v 262144; exec \"$0\" drive \"$@\" --speedup 1000000 --max-in-flight";
        let mut sh = Command::new("sh");
        sh.args(["-c", &format!("{script} {max_in_flight}")]);
        sh.args([env!("CARGO_BIN_EXE_uswg"), &spec, "--from-spill", &capture]);
        sh.output().expect("sh spawns")
    };

    let out = limited("4096");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "{:?}", out.stdout);
    assert!(stderr.starts_with("uswg: drive: started "), "{stderr}");
    assert!(
        stderr.contains(" of 4096 workers") && !stderr.contains("panicked"),
        "{stderr}"
    );

    // Under the same ceiling a pool that fits still accounts for every op:
    // offered = completed + shed + expired + aborted, the line's five counts.
    let report = stdout_of(&limited("8"), "--max-in-flight 8");
    let line = report.lines().find(|l| l.starts_with("drive report"));
    let words = line.expect("a report line").split(' ');
    let n: Vec<u64> = words.filter_map(|w| w.parse().ok()).collect();
    assert!(
        n.len() == 5 && n[0] > 0 && n[0] == n[1..].iter().sum(),
        "{report}"
    );
}

/// Two reads of 2^63 bytes and 2^63 µs: every byte and µs total passes
/// `u64::MAX`. Such a capture used to print `data_bytes 0` (release) or
/// panic on the wrapping add (debug); `analyze` and `fit` now refuse it
/// with one typed line, exit 2, nothing on stdout.
#[test]
fn a_capture_whose_totals_overflow_is_refused() {
    use uswg_core::{FileCategory, LogSink, OpKind, OpRecord, SessionRecord, SpillSink};
    let capture = scratch("overflow").join("huge.bin");
    let mut sink = SpillSink::create(&capture).unwrap();
    for at in [1, 2] {
        sink.record_op(&OpRecord {
            at,
            user: 0,
            session: 0,
            op: OpKind::Read,
            ino: 1,
            bytes: 1 << 63,
            file_size: 1 << 63,
            response: 1 << 63,
            category: FileCategory::REG_USER_RDONLY,
            retries: 0,
            aborted: false,
        });
    }
    sink.record_session(&SessionRecord {
        end: 3,
        ..SessionRecord::default()
    });
    sink.finish().unwrap();
    for (command, flags) in [("analyze", ""), ("analyze", "--json --jobs 2"), ("fit", "")] {
        let args = format!("{command} {} {flags}", capture.display());
        let out = uswg(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args}: {:?}", out.stdout);
        assert_eq!(stderr.lines().count(), 1, "{args}: {stderr}");
        assert!(stderr.contains("exceeds 2^64 - 1"), "{args}: {stderr}");
    }
}
