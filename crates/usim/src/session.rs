//! The login-session engine: operation/file/amount selection under the
//! model's logical constraints.
//!
//! A session is planned at login: for each file category the user's type
//! says how likely the category is to be touched, how many files are
//! referenced and how much of each file is accessed (`access-per-byte ×
//! file size`). The op stream then interleaves the per-file state machines
//! in random order — the paper's independence assumption "subject to obvious
//! logical constraints; for example, an open must precede any read or write"
//! (Section 3.1.4) — with strictly sequential access within each file
//! (Section 4.2), wrapping with an explicit `lseek` when a pass completes.

use crate::compile::{uniform01, CompiledUserType};
use crate::log::SessionRecord;
use crate::spec::AccessPattern;
use crate::UsimError;
use rand::RngCore;
use std::fmt::Write as _;
use uswg_fsc::{FileCatalog, FileCategory, FileSystemCreator, FileType, UsageClass};
use uswg_netfs::{FileId, OpKind, OpRequest};
use uswg_vfs::{Fd, FsError, OpenFlags, Process, SeekFrom, Vfs};

/// Upper bound on a single access, bytes (guards the exponential tail).
pub const MAX_ACCESS_BYTES: u64 = 262_144;

/// Safety margin on per-task operation counts, so a pathological sample
/// cannot loop forever.
const OP_GUARD_SLACK: u64 = 64;

/// One executed system call, ready for timing and logging.
#[derive(Debug, Clone, Copy)]
pub struct ExecutedOp {
    /// The call as the timing model sees it.
    pub request: OpRequest,
    /// The category of the file it named.
    pub category: FileCategory,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Closed,
    Io,
    Unlink,
    Finished,
}

/// Where a task's file lives, compactly. The path *string* is a pure
/// function of this value, so it is rendered on demand (at open/stat/
/// unlink/readdir time) into the one buffer the driver keeps, instead of
/// stored: a materialized `String` costs ~50–80 heap bytes per task, and
/// with tens of thousands of sessions concurrently logged in under
/// contention, per-task strings were one of the largest hot-memory line
/// items.
#[derive(Debug, Clone, Copy)]
enum TaskPath {
    /// Preexisting file or directory: index into the [`FileCatalog`],
    /// which renders its path.
    Catalog(u32),
    /// Scratch file this session creates: the path is
    /// `scratch_dir(user)/s<ordinal>_c<ci>_f<k>` by construction.
    Scratch { ci: u16, k: u32 },
}

/// Per-file state machine.
#[derive(Debug)]
struct Task {
    category: FileCategory,
    location: TaskPath,
    ino: u64,
    /// Logical size of the file (target size for created files).
    file_size: u64,
    /// Total bytes of I/O this task performs.
    budget: u64,
    done: u64,
    cursor: u64,
    written: u64,
    fd: Option<Fd>,
    phase: Phase,
    is_dir: bool,
    creates: bool,
    unlink_after: bool,
    ops_issued: u64,
    pattern: AccessPattern,
    /// Random-pattern bookkeeping: the next data op must be preceded by a
    /// seek to a randomly chosen offset.
    needs_random_seek: bool,
}

impl Task {
    /// A metadata call on this task's file, ready for timing and logging.
    fn meta(&self, user: usize, kind: OpKind) -> ExecutedOp {
        ExecutedOp {
            request: OpRequest::metadata(user, kind, FileId(self.ino), self.file_size),
            category: self.category,
        }
    }

    /// A data call that moved `n` bytes at `offset` of this task's file.
    fn data(&self, user: usize, kind: OpKind, offset: u64, n: u64) -> ExecutedOp {
        ExecutedOp {
            request: OpRequest::data(user, kind, FileId(self.ino), offset, n, self.file_size),
            category: self.category,
        }
    }

    /// Renders the task's path (see [`TaskPath`]) into `out`, replacing
    /// what it held, and returns it.
    fn write_path<'p>(
        &self,
        user: usize,
        ordinal: u32,
        catalog: &FileCatalog,
        out: &'p mut String,
    ) -> &'p str {
        match self.location {
            TaskPath::Catalog(idx) => catalog.write_path(idx as usize, out),
            TaskPath::Scratch { ci, k } => {
                out.clear();
                FileSystemCreator::push_scratch_dir(out, user);
                write!(out, "/s{ordinal:05}_c{ci:02}_f{k:03}").expect("String write");
            }
        }
        out
    }
}

/// One login session of one user.
#[derive(Debug)]
pub struct Session {
    /// The session's record as it grows: who and `start` from login, the
    /// totals as calls execute (`total_response` is the driver's to add),
    /// `end` and `bytes_accessed` at logout ([`Session::finish`]).
    pub record: SessionRecord,
    tasks: Vec<Task>,
    /// Indices of unfinished tasks (packed `u32` like every per-task id).
    live: Vec<u32>,
}

impl Session {
    /// Plans a session logging in at `start`: categories, files and budgets.
    pub fn plan(
        user: usize,
        user_type: usize,
        session: u32,
        start: u64,
        utype: &CompiledUserType,
        catalog: &FileCatalog,
        rng: &mut dyn RngCore,
    ) -> Self {
        let mut tasks = Vec::new();
        for (ci, usage) in utype.categories.iter().enumerate() {
            if uniform01(rng) >= usage.pct_users {
                continue;
            }
            let n_files = usage.files.sample_count(rng);
            for k in 0..n_files {
                let preexisting = usage.category.preexisting();
                let (location, ino, file_size) = if preexisting {
                    match catalog.pick(user, usage.category, rng) {
                        Some(idx) => {
                            let f = catalog.file(idx);
                            let idx = u32::try_from(idx).expect("a catalog index fits u32");
                            (TaskPath::Catalog(idx), f.ino, f.size)
                        }
                        None => continue, // nothing of this category exists
                    }
                } else {
                    let size = usage.file_size.sample_count(rng);
                    let location = TaskPath::Scratch {
                        ci: u16::try_from(ci).expect("compile caps the categories"),
                        k: k as u32,
                    };
                    (location, 0, size)
                };
                let accessed = (usage.access_per_byte * file_size as f64).round() as u64;
                let budget = if preexisting {
                    accessed
                } else {
                    // Created files are written in full at least once.
                    accessed.max(file_size)
                };
                tasks.push(Task {
                    category: usage.category,
                    location,
                    ino,
                    file_size,
                    budget,
                    done: 0,
                    cursor: 0,
                    written: 0,
                    fd: None,
                    phase: Phase::Closed,
                    is_dir: usage.category.file_type == FileType::Dir,
                    creates: !preexisting,
                    unlink_after: usage.category.usage == UsageClass::Temp,
                    ops_issued: 0,
                    pattern: usage.access_pattern,
                    needs_random_seek: usage.access_pattern == AccessPattern::Random,
                });
            }
        }
        // Sessions stay resident for their whole (possibly long, contended)
        // lifetime: return the plan at exactly its size, not the push-loop's
        // doubled capacity.
        tasks.shrink_to_fit();
        let live = (0..tasks.len() as u32).collect();
        let record = SessionRecord {
            user,
            user_type,
            session,
            start,
            ..SessionRecord::default()
        };
        Self {
            record,
            tasks,
            live,
        }
    }

    /// Whether the session names a path in its user's home: one of the
    /// user's catalog files, or a scratch file.
    pub fn names_home(&self, catalog: &FileCatalog) -> bool {
        self.tasks.iter().any(|task| match task.location {
            TaskPath::Catalog(idx) => catalog.in_home(idx as usize),
            TaskPath::Scratch { .. } => true,
        })
    }

    /// Logs out at `end`: the finished record.
    pub fn finish(mut self, end: u64) -> SessionRecord {
        self.record.end = end;
        self.record.bytes_accessed = self.record.bytes_read + self.record.bytes_written;
        self.record
    }

    /// Selects and executes the next system call against `vfs`, rendering
    /// the path it names into `path`.
    ///
    /// Returns `Ok(None)` when the session has logged out (no tasks left).
    ///
    /// # Errors
    ///
    /// Propagates unexpected file-system errors; `ENOSPC`/`EFBIG` during
    /// writes degrade the task gracefully instead of failing the run.
    pub fn next_op(
        &mut self,
        vfs: &mut Vfs,
        proc: &mut Process,
        utype: &CompiledUserType,
        catalog: &FileCatalog,
        path: &mut String,
        rng: &mut dyn RngCore,
    ) -> Result<Option<ExecutedOp>, UsimError> {
        loop {
            if self.live.is_empty() {
                return Ok(None);
            }
            // Random selection among unfinished files (the independence
            // assumption of Section 3.1.4).
            let slot = (rng.next_u64() % self.live.len() as u64) as usize;
            let tidx = self.live[slot] as usize;

            // Runaway guard: a task that somehow exceeds its op budget (every
            // data op moves at least one byte, plus bookkeeping calls) is
            // force-finished rather than looping forever.
            let task = &mut self.tasks[tidx];
            if task.ops_issued > task.budget + OP_GUARD_SLACK {
                task.done = task.budget;
            }

            if let Some(exec) = self.step_task(tidx, vfs, proc, utype, catalog, path, rng)? {
                self.tasks[tidx].ops_issued += 1;
                self.record.ops += 1;
                return Ok(Some(exec));
            }
            // Prune, then loop on: pick another task.
            self.live.swap_remove(slot);
        }
    }

    /// Steps one task: the system call it executed, or `None` when it is
    /// finished or could not run (missing file, fd pressure, full device).
    #[allow(clippy::too_many_arguments)]
    fn step_task(
        &mut self,
        tidx: usize,
        vfs: &mut Vfs,
        proc: &mut Process,
        utype: &CompiledUserType,
        catalog: &FileCatalog,
        path: &mut String,
        rng: &mut dyn RngCore,
    ) -> Result<Option<ExecutedOp>, UsimError> {
        let (user, ordinal) = (self.record.user, self.record.session);
        let task = &mut self.tasks[tidx];
        match task.phase {
            Phase::Closed => {
                let path = task.write_path(user, ordinal, catalog, path);
                let kind = if task.is_dir {
                    // Directories are walked via stat + readdir.
                    match vfs.stat(path) {
                        Ok(md) => task.ino = md.ino.number(),
                        Err(FsError::NotFound) => return Ok(None),
                        Err(e) => return Err(e.into()),
                    }
                    OpKind::Stat
                } else {
                    // What may go wrong without failing the run, besides fd
                    // pressure: a full device on create, a vanished file.
                    let (flags, kind, excused) = if task.creates {
                        let flags = OpenFlags::read_write_create();
                        (flags, OpKind::Create, FsError::NoSpace)
                    } else if task.category.usage == UsageClass::ReadWrite {
                        (OpenFlags::read_write(), OpKind::Open, FsError::NotFound)
                    } else {
                        (OpenFlags::read_only(), OpKind::Open, FsError::NotFound)
                    };
                    let fd = match vfs.open(proc, path, flags) {
                        Ok(fd) => fd,
                        Err(e) if e == excused || e == FsError::TooManyOpenFiles => {
                            return Ok(None);
                        }
                        Err(e) => return Err(e.into()),
                    };
                    task.fd = Some(fd);
                    task.ino = vfs.fstat(proc, fd)?.ino.number();
                    kind
                };
                task.phase = Phase::Io;
                self.record.files_referenced += 1;
                self.record.file_bytes_referenced += task.file_size;
                return Ok(Some(task.meta(user, kind)));
            }
            // Finished with the data: close (files) or finish (dirs).
            Phase::Io if task.done >= task.budget => {
                if task.is_dir {
                    task.phase = Phase::Finished;
                    return Ok(None);
                }
                let fd = task.fd.take().expect("file task in Io phase has fd");
                vfs.close(proc, fd)?;
                task.phase = if task.unlink_after {
                    Phase::Unlink
                } else {
                    Phase::Finished
                };
                return Ok(Some(task.meta(user, OpKind::Close)));
            }
            Phase::Unlink => {
                match vfs.unlink(task.write_path(user, ordinal, catalog, path)) {
                    Ok(()) | Err(FsError::NotFound) => {}
                    Err(e) => return Err(e.into()),
                }
                task.phase = Phase::Finished;
                return Ok(Some(task.meta(user, OpKind::Unlink)));
            }
            Phase::Finished => return Ok(None),
            // A data call (or the seek before one): the rest of the function.
            Phase::Io => {}
        }

        let want_write = match task.category.usage {
            UsageClass::ReadOnly => false,
            UsageClass::New | UsageClass::Temp => task.written < task.file_size,
            UsageClass::ReadWrite => {
                if task.creates {
                    task.written < task.file_size
                } else {
                    rng.next_u64().is_multiple_of(2)
                }
            }
        } && !task.is_dir;

        // In the create-fill stage, even random-pattern files are written
        // sequentially (a file must exist before records can be addressed).
        let filling = task.creates && task.written < task.file_size;

        // Random (direct) access: precede each data op with a seek to a
        // uniformly random offset — the database-style behaviour Section
        // 4.2 contrasts with the sequential default.
        if task.pattern == AccessPattern::Random
            && !task.is_dir
            && !filling
            && task.file_size > 0
            && task.needs_random_seek
        {
            let fd = task.fd.expect("Io phase has fd");
            let target = rng.next_u64() % task.file_size;
            vfs.lseek(proc, fd, SeekFrom::Start(target))?;
            task.cursor = target;
            task.needs_random_seek = false;
            return Ok(Some(task.meta(user, OpKind::Seek)));
        }

        // Sequential constraint: wrap to the start with an explicit lseek
        // when the cursor passes the end of the file.
        if !task.is_dir && task.file_size > 0 && task.cursor >= task.file_size {
            let fd = task.fd.expect("Io phase has fd");
            vfs.lseek(proc, fd, SeekFrom::Start(0))?;
            task.cursor = 0;
            return Ok(Some(task.meta(user, OpKind::Seek)));
        }

        let mut access = utype
            .access_size
            .sample_count(rng)
            .clamp(1, MAX_ACCESS_BYTES);
        access = access.min(task.budget - task.done);
        let offset = task.cursor;
        if task.pattern == AccessPattern::Random && !filling {
            // The data op consumes this position; the next one seeks anew.
            task.needs_random_seek = true;
            // Keep the access within the file so reads return data
            // (task.cursor < file_size holds after a random seek).
            if !task.is_dir && task.file_size > task.cursor {
                access = access.min(task.file_size - task.cursor).max(1);
            }
        }

        if task.is_dir {
            // Directory data is consumed through readdir; the nominal bytes
            // drive the timing model.
            match vfs.readdir(task.write_path(user, ordinal, catalog, path)) {
                Ok(_) => {}
                Err(FsError::NotFound | FsError::NotADirectory) => {
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
            }
            task.done += access;
            task.cursor += access;
            self.record.bytes_read += access;
            return Ok(Some(task.data(user, OpKind::Read, offset, access)));
        }

        let fd = task.fd.expect("Io phase has fd");
        if want_write {
            // During the fill phase, do not write past the target size.
            if task.written < task.file_size {
                access = access.min(task.file_size - task.written).max(1);
            }
            let n = match vfs.write(proc, fd, access as usize) {
                Ok(n) => n as u64,
                Err(FsError::NoSpace | FsError::FileTooLarge) => {
                    // Device full: stop writing, degrade to finishing early.
                    task.done = task.budget;
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
            };
            task.cursor += n;
            task.written += n;
            task.done += n;
            self.record.bytes_written += n;
            Ok(Some(task.data(user, OpKind::Write, offset, n)))
        } else {
            let n = vfs.read(proc, fd, access as usize)? as u64;
            if n == 0 {
                // EOF. An empty file has nothing to give: finish the task;
                // otherwise wrap on the next selection.
                if task.file_size == 0 || task.written == 0 && task.creates {
                    task.done = task.budget;
                } else {
                    task.cursor = task.file_size;
                }
            } else {
                task.cursor += n;
                task.done += n;
                self.record.bytes_read += n;
            }
            Ok(Some(task.data(user, OpKind::Read, offset, n)))
        }
    }
}
