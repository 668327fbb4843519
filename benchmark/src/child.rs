//! Hermetic child processes, measured from outside: wall clock plus the
//! kernel's own accounting (`wait4` rusage) for CPU time and peak RSS.

use std::ffi::OsStr;
use std::io::Read;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Environment variables the program reads behind the spec's back (in
/// `sim`, `usim`, `core` and `cli`); scrubbed so a run depends on its spec
/// and flags alone.
const SCRUBBED_ENV: [&str; 2] = ["USWG_SCHEDULER", "USWG_SHARDS"];

/// What one finished child cost.
#[derive(Debug)]
pub struct ChildOutcome {
    pub stdout: String,
    pub wall_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// `ru_maxrss`. Linux carries the high-water mark across `execve`, so
    /// this is never below the spawning process's own peak (3.4 MB for the
    /// harness while it only spawns; far more once it has run a traced
    /// pass in-process, which is why untraced runs always come first).
    pub peak_rss_mb: f64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which
/// only the first (`ru_maxrss`, KiB) is read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// A `Command` for `program` with the hidden-configuration variables
/// scrubbed and stdin closed.
pub fn hermetic(program: &Path) -> Command {
    let mut command = Command::new(program);
    for name in SCRUBBED_ENV {
        command.env_remove(name);
    }
    command.stdin(Stdio::null());
    command
}

/// Runs `program args…` to completion — one child at a time, stderr passed
/// through — and returns its stdout and cost.
///
/// # Errors
///
/// A spawn failure, a signal death or a non-zero exit status, each named
/// with the command line.
pub fn run<S: AsRef<OsStr>>(program: &Path, args: &[S]) -> Result<ChildOutcome, String> {
    let line = || {
        let args: Vec<_> = args
            .iter()
            .map(|a| a.as_ref().to_string_lossy().into_owned())
            .collect();
        format!("{} {}", program.display(), args.join(" "))
    };
    let start = Instant::now();
    let mut child = hermetic(program)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start `{}`: {e}", line()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);

    let pid = c_int::try_from(child.id()).expect("a pid fits in c_int");
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed and
        // laid out as wait4(2) expects on 64-bit Linux; `pid` is our own
        // un-reaped child, which `std` never waits on (the `Child` is only
        // dropped, and dropping neither waits nor kills).
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 on `{}`: {err}", line()));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    read.map_err(|e| format!("reading stdout of `{}`: {e}", line()))?;

    // WIFEXITED / WEXITSTATUS.
    if status & 0x7f != 0 {
        return Err(format!("`{}` died on signal {}", line(), status & 0x7f));
    }
    let code = (status >> 8) & 0xff;
    if code != 0 {
        return Err(format!("`{}` exited with status {code}", line()));
    }
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Ok(ChildOutcome {
        stdout,
        wall_s,
        cpu_s: seconds(&usage.ru_utime) + seconds(&usage.ru_stime),
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_child_and_captures_its_stdout() {
        let out = run(Path::new("/bin/sh"), &["-c", "echo hello"]).unwrap();
        assert_eq!(out.stdout, "hello\n");
        assert!(out.wall_s > 0.0);
        assert!(out.peak_rss_mb > 0.0, "ru_maxrss was read");
    }

    #[test]
    fn a_non_zero_exit_is_an_error_naming_the_status() {
        let err = run(Path::new("/bin/sh"), &["-c", "exit 3"]).unwrap_err();
        assert!(err.contains("status 3"), "{err}");
    }

    #[test]
    fn hidden_configuration_is_scrubbed_from_the_child() {
        // Read back from the command, not the process environment, which
        // parallel tests share.
        let command = hermetic(Path::new("/bin/sh"));
        let removed: Vec<_> = command
            .get_envs()
            .filter(|(_, value)| value.is_none())
            .map(|(name, _)| name.to_string_lossy().into_owned())
            .collect();
        assert_eq!(removed, ["USWG_SCHEDULER", "USWG_SHARDS"]);
    }
}
