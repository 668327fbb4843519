//! The in-process loopback target: the workspace's own UNIX-like
//! in-memory file system (`uswg-vfs`) behind the [`Target`] trait.
//!
//! It exists for two reasons: an end-to-end `uswg drive` that works on any
//! machine with no external system to set up, and a *controllable*
//! capacity knob for overload tests — `service_micros` sets how long each
//! operation holds a worker, so offered-load ≫ capacity is a config
//! choice, not a hardware accident. A `fail_ppm` knob injects transient
//! errors to exercise the driver's retry path the same way `FaultSpec`
//! exercises the simulator's.
//!
//! Once its descriptor table has grown, a successful op allocates nothing
//! past the file's block list: the slot's path is formatted on the stack,
//! and every call runs in one kept [`Process`]. A write is
//! [`Vfs::write_file`] — a truncating create, writes of the op's length and
//! a close — and a read opens the file, reads its whole size and closes
//! it; the file system holds sizes and block indices, never bytes.

use crate::{Target, TargetError};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Duration;
use uswg_netfs::OpKind;
use uswg_usim::OpRecord;
use uswg_vfs::{FsError, OpenFlags, Process, Vfs, VfsConfig};

/// Parts-per-million scale for the injected failure rate.
const PPM: u64 = 1_000_000;
/// Cap on a single replayed write, so a log with pathological sizes cannot
/// make the loopback allocate unboundedly.
const MAX_IO_BYTES: u64 = 64 * 1024;

/// Configuration of the [`LoopbackVfs`] target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopbackConfig {
    /// Synthetic service time per operation in µs (holds a worker, not the
    /// file-system lock, so `max_in_flight` workers really overlap).
    pub service_micros: u64,
    /// Injected transient-failure rate in parts per million.
    pub fail_ppm: u32,
    /// Distinct files the replay maps inode numbers onto (bounds the
    /// loopback's memory).
    pub working_set: u64,
    /// Seed for the failure-injection stream.
    pub seed: u64,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        Self {
            service_micros: 0,
            fail_ppm: 0,
            working_set: 64,
            seed: 0x10BB,
        }
    }
}

/// An in-process [`Target`] over the workspace VFS.
#[derive(Debug)]
pub struct LoopbackVfs {
    config: LoopbackConfig,
    fs: Mutex<Fs>,
    rng: Mutex<StdRng>,
}

/// The file system and the process every op runs in, under one lock.
#[derive(Debug)]
struct Fs {
    vfs: Vfs,
    /// Opens every file; between ops its descriptor table is empty.
    proc: Process,
}

impl LoopbackVfs {
    /// Builds the target with a fresh in-memory file system.
    pub fn new(config: LoopbackConfig) -> Self {
        Self::on(Vfs::new(VfsConfig::default()), config)
    }

    /// The target over `vfs`, a fresh file system.
    fn on(mut vfs: Vfs, config: LoopbackConfig) -> Self {
        vfs.mkdir("/drive").expect("fresh vfs accepts /drive");
        let proc = vfs.new_process();
        Self {
            config: LoopbackConfig {
                working_set: config.working_set.max(1),
                ..config
            },
            fs: Mutex::new(Fs { vfs, proc }),
            rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
        }
    }
}

/// Writes `/drive/f{slot}` into `buf` — 8 bytes of prefix and at most 20
/// digits — and returns it.
fn slot_path(slot: u64, buf: &mut [u8; 28]) -> &str {
    let mut rest = &mut buf[..];
    write!(rest, "/drive/f{slot}").expect("28 bytes hold any slot's path");
    let len = 28 - rest.len();
    std::str::from_utf8(&buf[..len]).expect("the path is ASCII")
}

impl Fs {
    /// One replayed op on slot `path`: the file-system calls of its kind.
    fn apply(&mut self, kind: OpKind, path: &str, bytes: u64) -> Result<(), FsError> {
        let (vfs, proc) = (&mut self.vfs, &mut self.proc);
        match kind {
            OpKind::Write | OpKind::Create => {
                vfs.write_file(proc, path, bytes.min(MAX_IO_BYTES) as usize)
            }
            OpKind::Read => {
                if !vfs.exists(path) {
                    vfs.write_file(proc, path, 0)?;
                }
                let fd = vfs.open(proc, path, OpenFlags::read_only())?;
                vfs.read(proc, fd, usize::MAX)?;
                vfs.close(proc, fd)
            }
            OpKind::Stat => {
                if !vfs.exists(path) {
                    vfs.write_file(proc, path, 0)?;
                }
                vfs.stat(path).map(drop)
            }
            OpKind::Unlink => {
                if vfs.exists(path) {
                    vfs.unlink(path)
                } else {
                    Ok(())
                }
            }
            // Open/Close/Seek are per-process cursor motion; the replay keeps
            // no cursor across ops, so they only touch the namespace.
            OpKind::Open | OpKind::Close | OpKind::Seek => {
                let _ = vfs.exists(path);
                Ok(())
            }
            // OpKind is non_exhaustive: treat future kinds as metadata.
            _ => Ok(()),
        }
    }
}

impl Target for LoopbackVfs {
    fn apply(&self, op: &OpRecord) -> Result<(), TargetError> {
        // Service time first, outside every lock: this is the capacity
        // knob, and it must consume worker-time, not serialize the target.
        if self.config.service_micros > 0 {
            std::thread::sleep(Duration::from_micros(self.config.service_micros));
        }
        if self.config.fail_ppm > 0 {
            let draw = self.rng.lock().expect("rng poisoned").next_u64() % PPM;
            if draw < u64::from(self.config.fail_ppm) {
                return Err(TargetError("injected transient fault".into()));
            }
        }
        let mut path = [0; 28];
        let path = slot_path(op.ino % self.config.working_set, &mut path);
        let mut fs = self.fs.lock().expect("vfs poisoned");
        let outcome = fs.apply(op.op, path, op.bytes);
        if outcome.is_err() {
            // A failed call may leave its descriptor open; a fresh process
            // per op would take it along when dropped, and the kept one goes
            // the same way.
            fs.proc = fs.vfs.new_process();
        }
        outcome.map_err(TargetError::from)
    }

    fn name(&self) -> &'static str {
        "loopback-vfs"
    }
}

impl From<uswg_vfs::FsError> for TargetError {
    fn from(e: uswg_vfs::FsError) -> Self {
        TargetError(format!("vfs: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uswg_fsc::FileCategory;

    fn op(kind: OpKind, ino: u64, bytes: u64) -> OpRecord {
        OpRecord {
            at: 0,
            user: 0,
            session: 0,
            op: kind,
            ino,
            bytes,
            file_size: bytes,
            response: 0,
            category: FileCategory::REG_USER_RDONLY,
            retries: 0,
            aborted: false,
        }
    }

    #[test]
    fn applies_every_op_kind() {
        let target = LoopbackVfs::new(LoopbackConfig::default());
        for kind in OpKind::ALL {
            for ino in 0..4 {
                target.apply(&op(kind, ino, 512)).unwrap();
            }
        }
    }

    #[test]
    fn slot_paths_fit_any_slot() {
        for slot in [0, 7, 10, 4_096, u64::MAX] {
            assert_eq!(slot_path(slot, &mut [0; 28]), format!("/drive/f{slot}"));
        }
    }

    #[test]
    fn oversized_writes_are_capped() {
        let target = LoopbackVfs::new(LoopbackConfig::default());
        target.apply(&op(OpKind::Write, 1, u64::MAX)).unwrap();
    }

    #[test]
    fn working_set_bounds_distinct_files() {
        let target = LoopbackVfs::new(LoopbackConfig {
            working_set: 3,
            ..LoopbackConfig::default()
        });
        for ino in 0..100 {
            target.apply(&op(OpKind::Create, ino, 16)).unwrap();
        }
        let mut fs = target.fs.lock().unwrap();
        let entries = fs.vfs.readdir("/drive").unwrap();
        assert_eq!(entries.len(), 3);
    }

    /// The reference: each op kind through `Vfs`'s by-path calls, with a
    /// fresh path and process per op.
    fn path_calls(fs: &mut Vfs, working_set: u64, op: &OpRecord) -> Result<(), TargetError> {
        let path = format!("/drive/f{}", op.ino % working_set);
        let mut proc = fs.new_process();
        let outcome = match op.op {
            OpKind::Write | OpKind::Create => {
                fs.write_file(&mut proc, &path, op.bytes.min(MAX_IO_BYTES) as usize)
            }
            OpKind::Read => {
                if !fs.exists(&path) {
                    fs.write_file(&mut proc, &path, 0)?;
                }
                let fd = fs.open(&mut proc, &path, OpenFlags::read_only())?;
                let size = fs.fstat(&proc, fd)?.size as usize;
                assert_eq!(fs.read(&mut proc, fd, size + 1), Ok(size));
                fs.close(&mut proc, fd)
            }
            OpKind::Stat => {
                if !fs.exists(&path) {
                    fs.write_file(&mut proc, &path, 0)?;
                }
                fs.stat(&path).map(drop)
            }
            OpKind::Unlink if fs.exists(&path) => fs.unlink(&path),
            OpKind::Open | OpKind::Close | OpKind::Seek => {
                let _ = fs.exists(&path);
                Ok(())
            }
            _ => Ok(()),
        };
        outcome.map_err(TargetError::from)
    }

    #[test]
    fn apply_matches_the_path_calls_it_replaced() {
        // The default geometry, and one of 12 blocks where a second large
        // write runs out of space mid-file and leaves its descriptor open:
        // four such leaks fill a process's table.
        let small = VfsConfig {
            max_blocks: 12,
            max_fds_per_process: 4,
            ..VfsConfig::default()
        };
        let config = LoopbackConfig {
            working_set: 6,
            ..LoopbackConfig::default()
        };
        let mut errors = 0;
        for (seed, geometry) in (0..8).zip([VfsConfig::default(), small].into_iter().cycle()) {
            let target = LoopbackVfs::on(Vfs::new(geometry), config);
            let mut reference = Vfs::new(geometry);
            reference.mkdir("/drive").unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..300 {
                let kind = OpKind::ALL[(rng.next_u64() % 8) as usize];
                // Slots past the working set wrap; sizes past the cap clip.
                let ino = rng.next_u64() % 20;
                let bytes = match rng.next_u64() % 4 {
                    0 => 0,
                    1 => rng.next_u64() % 10_000,
                    2 => MAX_IO_BYTES + rng.next_u64() % MAX_IO_BYTES,
                    _ => u64::MAX,
                };
                let op = op(kind, ino, bytes);
                let got = target.apply(&op);
                assert_eq!(
                    got,
                    path_calls(&mut reference, 6, &op),
                    "seed {seed} step {step}"
                );
                errors += u32::from(got.is_err());
                let fs = &mut target.fs.lock().unwrap().vfs;
                for slot in 0..6 {
                    let path = format!("/drive/f{slot}");
                    let (got, want) = (fs.stat(&path), reference.stat(&path));
                    assert_eq!(got, want, "seed {seed} step {step} slot {slot}");
                    if let Ok(md) = got {
                        assert_eq!(fs.block_indices(md.ino), reference.block_indices(md.ino));
                    }
                }
                assert_eq!(fs.statfs(), reference.statfs(), "seed {seed} step {step}");
                assert_eq!(fs.block_stats(), reference.block_stats());
            }
        }
        assert!(errors > 0, "the small geometry runs out of space");
    }

    #[test]
    fn fail_ppm_injects_transient_errors() {
        let target = LoopbackVfs::new(LoopbackConfig {
            fail_ppm: 500_000,
            ..LoopbackConfig::default()
        });
        let results: Vec<bool> = (0..200)
            .map(|i| target.apply(&op(OpKind::Read, i, 64)).is_ok())
            .collect();
        let failures = results.iter().filter(|ok| !**ok).count();
        assert!(
            (40..=160).contains(&failures),
            "~50% failure rate expected, saw {failures}/200"
        );
    }
}
