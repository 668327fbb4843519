//! The shipped `uswg` binary, spawned as a child process: the contracts
//! that only hold (or only break) at the process boundary — what the
//! environment may and may not change, and that the three `run` modes are
//! one simulation seen through three sinks.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use uswg_core::{DistributionSpec, PopulationSpec, UserTypeSpec, WorkloadSpec};

/// A fresh scratch directory under cargo's per-target test tmpdir.
fn scratch(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("uswg-binary-{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a small 8-user spec.
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

/// The retired shard-count and scheduler variables the library used to
/// read, each with a malformed value. Spelled in halves so a grep for the
/// names over the tree lists live readers only — and there are none.
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

/// Sweep and frame-range workers share one thread budget, and the
/// width asked for — past the cores, past the tasks — changes no printed byte.
#[test]
fn nested_fan_outs_print_the_same_bytes_at_any_width() {
    let dir = scratch("widths");
    let (spec, capture) = (write_spec(&dir), dir.join("run.bin").display().to_string());
    let out = |args: String| stdout_of(&uswg(&args, &[]), &args);
    out(format!("run {spec} --model nfs --spill {capture}"));
    let sweep = format!("sweep {spec} --model local --users 1,2,3,4");
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
    let default = stdout_of(&uswg(&format!("run {spec} --model nfs"), &[]), "default");
    let summary = stdout_of(
        &uswg(&format!("run {spec} --model nfs --summary"), &[]),
        "--summary",
    );
    let spilled = stdout_of(
        &uswg(
            &format!("run {spec} --model nfs --spill {}", spill.display()),
            &[],
        ),
        "--spill",
    );
    assert_eq!(headline(&default), headline(&summary));
    assert_eq!(headline(&default), headline(&spilled));
    // Same simulation, too: the `model … | N events | T simulated` line.
    assert_eq!(default.lines().next(), summary.lines().next());
    assert_eq!(default.lines().next(), spilled.lines().next());
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

/// A `vfs` section no file system can be built on is refused in one line
/// that names the field, not a panic inside the file system.
#[test]
fn an_unbuildable_vfs_geometry_is_refused_by_name() {
    let dir = scratch("geometry");
    let spec = WorkloadSpec::from_json(&std::fs::read_to_string(write_spec(&dir)).unwrap());
    let mut bad = [spec.clone().unwrap(), spec.unwrap()];
    bad[0].vfs.block_size = 16;
    bad[1].vfs.max_inodes = 0;
    for (field, bad) in ["vfs.block_size", "vfs.max_inodes"].into_iter().zip(bad) {
        let path = dir.join("bad.json");
        std::fs::write(&path, bad.to_json().unwrap()).unwrap();
        let out = uswg(
            &format!("run {} --model nfs --summary", path.display()),
            &[],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(out.stdout.is_empty(), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains(field), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
}

/// Simulated time saturates, so a delay past the clock's limit used to pin
/// it there: every later response read 0 and the run exited 0 with a
/// 18446744073709.551 s report. Now it is one line of error, exit 2,
/// from a latency spike and from a think time alike.
#[test]
fn a_run_whose_clock_overflows_is_refused() {
    let dir = scratch("clock");
    let mut spike = WorkloadSpec::paper_default().unwrap();
    (spike.run.n_users, spike.run.sessions_per_user) = (2, 2);
    let mut think = spike.clone();
    spike.run.faults.spike_ppm = 1_000_000;
    spike.run.faults.spike_micros = 9_000_000_000_000_000_000;
    let types = think.population.types().iter().cloned();
    think.population = PopulationSpec::new(
        types
            .map(|(t, share)| {
                (
                    UserTypeSpec {
                        think_time: DistributionSpec::exponential(1e19),
                        ..t
                    },
                    share,
                )
            })
            .collect(),
    )
    .unwrap();
    for (name, spec) in [("spike", spike), ("think", think)] {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, spec.to_json().unwrap()).unwrap();
        let args = format!("run {} --model nfs --summary", path.display());
        let out = uswg(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args}: {stderr}");
        assert!(stderr.contains("clock overflow"), "{args}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args}: {stderr}");
    }
}

/// A server count or a CDF resolution past its bound used to size an
/// allocation: `distributed:18446744073709551615` panicked with `capacity
/// overflow` (exit 101), `distributed:100000000000` and a resolution of
/// 10^12 aborted allocating (134). Now each is refused in one line that
/// names the bound, exit 2, one past the bound as far past it.
#[test]
fn a_server_count_or_cdf_resolution_past_its_bound_is_refused() {
    let dir = scratch("bounds");
    let spec_path = write_spec(&dir);
    let spec = WorkloadSpec::from_json(&std::fs::read_to_string(&spec_path).unwrap()).unwrap();
    let mut runs = Vec::new();
    for servers in ["18446744073709551615", "100000000000", "65537"] {
        runs.push(format!(
            "run {spec_path} --model distributed:{servers} --summary"
        ));
    }
    for resolution in [1_000_000_000_000, 65_537] {
        let mut spec = spec.clone();
        spec.run.cdf_resolution = resolution;
        let path = dir.join(format!("cdf-{resolution}.json"));
        std::fs::write(&path, spec.to_json().unwrap()).unwrap();
        runs.push(format!("run {} --model nfs --summary", path.display()));
    }
    for args in runs {
        let out = uswg(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
        let naming = stderr.lines().filter(|l| l.contains("limit of 65536"));
        assert_eq!(naming.count(), 1, "{args}: {stderr}");
    }
}

/// There is one event queue. `run --scheduler calendar` still parses and
/// changes nothing; `heap`, on the command line or in a spec, is refused
/// by name, and `sweep` no longer takes the flag at all.
#[test]
fn the_removed_heap_scheduler_is_refused() {
    let dir = scratch("scheduler");
    let spec = write_spec(&dir);
    let json = std::fs::read_to_string(&spec).unwrap();
    let pinned = json.replace("\"scheduler\": null", "\"scheduler\": \"heap\"");
    assert_ne!(pinned, json, "the spec names no scheduler to pin");
    let heap_spec = dir.join("heap.json");
    std::fs::write(&heap_spec, pinned).unwrap();
    for (args, cause) in [
        (format!("run {spec} --scheduler heap"), "heap was removed"),
        (
            format!("run {} --model local", heap_spec.display()),
            "unknown SchedulerBackend variant `heap`",
        ),
        (
            format!("sweep {spec} --model local --users 1 --scheduler calendar"),
            "unknown flag `--scheduler`",
        ),
    ] {
        let out = uswg(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args}: {stderr}");
        assert!(stderr.contains(cause), "{args}: {stderr}");
    }
    let run = format!("run {spec} --model local");
    let plain = stdout_of(&uswg(&run, &[]), &run);
    let flagged = format!("{run} --scheduler calendar");
    assert_eq!(stdout_of(&uswg(&flagged, &[]), &flagged), plain);
}

/// A run is one simulation. A shard count of 1, as `--shards 1` or as the
/// spec's `run.shards`, parses and changes nothing; a larger one, on the
/// command line of `run`, `sweep` or `replicate` or in a spec, is refused
/// in one line that says why.
#[test]
fn shard_counts_above_one_are_refused() {
    let dir = scratch("shards");
    let spec = write_spec(&dir);
    let json = std::fs::read_to_string(&spec).unwrap();
    let pinned = |k: &str| {
        let pinned = json.replace("\"shards\": null", &format!("\"shards\": {k}"));
        assert_ne!(pinned, json, "the spec names no shard count to pin");
        let path = dir.join(format!("shards-{k}.json"));
        std::fs::write(&path, pinned).unwrap();
        path.display().to_string()
    };
    let (one, four) = (pinned("1"), pinned("4"));
    for args in [
        format!("run {spec} --model local --shards 2"),
        format!("sweep {spec} --model local --users 1 --shards 2"),
        format!("replicate {spec} --model local --shards 2"),
        format!("run {four} --model local"),
    ] {
        let out = uswg(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args}: {stderr}");
        assert!(
            stderr.contains("each of the") && stderr.contains("own copy of the servers"),
            "{args}: {stderr}"
        );
    }
    let spill = dir.join("run.bin").display().to_string();
    let run = |spec: &str, flags: &str| {
        let args = format!("run {spec} --model local --spill {spill}{flags}");
        (
            stdout_of(&uswg(&args, &[]), &args),
            std::fs::read(&spill).unwrap(),
        )
    };
    let plain = run(&spec, "");
    assert_eq!(run(&spec, " --shards 1"), plain);
    assert_eq!(run(&one, ""), plain);
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

/// Sixty million files on two users: one home's inodes alone are 2.2 GB.
/// The build reserves that from the plan before it creates anything, so a
/// ceiling it cannot fit under is one typed line and exit 2 at once, where
/// the inode table used to double its way there for ten seconds and abort
/// (134).
#[test]
fn a_population_the_memory_limit_cannot_hold_is_refused_up_front() {
    let mut spec = WorkloadSpec::paper_default().unwrap();
    spec.run.n_users = 2;
    spec.run.sessions_per_user = 1;
    spec.fsc = (spec.fsc.with_files_per_user(30_000_000).unwrap())
        .with_fill(uswg_core::FillPattern::Sparse);
    spec.vfs.max_inodes = usize::MAX;
    let path = scratch("reserve").join("huge.json");
    std::fs::write(&path, spec.to_json().unwrap()).unwrap();
    let mut sh = Command::new("sh");
    sh.args([
        "-c",
        "ulimit -v 2097152; exec \"$0\" run \"$1\" --model local --summary",
    ]);
    let out = sh.args([env!("CARGO_BIN_EXE_uswg"), path.to_str().unwrap()]);
    let out = out.output().expect("sh spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "{:?}", out.stdout);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("cannot reserve 2160000216 bytes for the inodes of a home"),
        "{stderr}"
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

/// `drive` on a spec the simulator refuses used to start the pacer, let
/// the producer thread fail and exit 3 with a salvaged report over 0 ops.
/// It now checks the spec first, live or from a capture: exit 2 and the
/// line `run` prints.
#[test]
fn drive_refuses_the_specs_run_refuses() {
    let dir = scratch("drive-refused");
    let json = std::fs::read_to_string(write_spec(&dir)).unwrap();
    for (field, value) in [
        ("\"shards\": null", "\"shards\": 4"),
        ("\"n_users\": 8", "\"n_users\": 0"),
    ] {
        let bad = json.replace(field, value);
        assert_ne!(bad, json, "the spec names no {field}");
        let path = dir.join("bad.json");
        std::fs::write(&path, bad).unwrap();
        let spec = path.display();
        let run = uswg(&format!("run {spec} --model nfs"), &[]);
        assert_eq!(run.status.code(), Some(2), "{value}");
        let capture = dir.join("none.bin");
        for args in [
            format!("drive {spec} --model nfs"),
            format!("drive {spec} --from-spill {}", capture.display()),
        ] {
            let out = uswg(&args, &[]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
            assert!(out.stdout.is_empty(), "{args}: {stderr}");
            assert_eq!(out.stderr, run.stderr, "{args}: {stderr}");
        }
    }
}

/// Captures are written as v2 only; the v1 capture committed beside the
/// golden fixtures still reads, and `analyze` says which format it is.
#[test]
fn analyze_reads_a_v1_capture() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/v1.spill");
    let out = stdout_of(&uswg(&format!("analyze {fixture}"), &[]), "analyze");
    let head = format!("spill file {fixture} (v1 raw): 40 ops, 6 sessions\n");
    assert!(out.starts_with(&head), "{out}");
}
