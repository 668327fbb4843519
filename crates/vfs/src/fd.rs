//! File descriptors, open flags and per-process descriptor tables.

use crate::inode::Ino;
use serde::{Deserialize, Serialize};

/// A file descriptor, valid within the [`Process`] that opened it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fd(pub(crate) u32);

impl Fd {
    /// The raw descriptor number.
    pub fn number(self) -> u32 {
        self.0
    }
}

/// Open mode flags, the subset of `open(2)` the workload model generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if it does not exist.
    pub create: bool,
    /// Truncate to zero length on open (requires `write`).
    pub truncate: bool,
    /// Position every write at end-of-file.
    pub append: bool,
    /// With `create`: fail if the file already exists (`O_EXCL`).
    pub exclusive: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn read_only() -> Self {
        Self {
            read: true,
            write: false,
            create: false,
            truncate: false,
            append: false,
            exclusive: false,
        }
    }

    /// `O_WRONLY | O_CREAT | O_TRUNC` — the classic `creat(2)`.
    pub fn create_write() -> Self {
        Self {
            read: false,
            write: true,
            create: true,
            truncate: true,
            append: false,
            exclusive: false,
        }
    }

    /// `O_RDWR`.
    pub fn read_write() -> Self {
        Self {
            read: true,
            write: true,
            create: false,
            truncate: false,
            append: false,
            exclusive: false,
        }
    }

    /// `O_RDWR | O_CREAT`.
    pub fn read_write_create() -> Self {
        Self {
            read: true,
            write: true,
            create: true,
            truncate: false,
            append: false,
            exclusive: false,
        }
    }

    /// `O_WRONLY | O_APPEND`.
    pub fn append_only() -> Self {
        Self {
            read: false,
            write: true,
            create: false,
            truncate: false,
            append: true,
            exclusive: false,
        }
    }

    /// Builder-style setter for `exclusive`.
    pub fn with_exclusive(mut self) -> Self {
        self.exclusive = true;
        self
    }
}

/// One open-file description: inode, cursor and access mode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenFile {
    pub ino: Ino,
    pub offset: u64,
    pub flags: OpenFlags,
}

/// Whence argument of `lseek`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeekFrom {
    /// Absolute offset from the start of the file.
    Start(u64),
    /// Signed offset from the current position.
    Current(i64),
    /// Signed offset from the end of the file.
    End(i64),
}

/// A simulated process: its open-file table.
///
/// Create one per virtual user with [`crate::Vfs::new_process`]. Descriptors
/// are process-local, exactly like UNIX.
#[derive(Debug)]
pub struct Process {
    pub(crate) files: Vec<Option<OpenFile>>,
    pub(crate) max_fds: usize,
}

impl Process {
    pub(crate) fn new(max_fds: usize) -> Self {
        Self {
            files: Vec::new(),
            max_fds,
        }
    }

    pub(crate) fn insert(&mut self, open: OpenFile) -> Option<Fd> {
        // Lowest-numbered free slot, like UNIX.
        for (i, slot) in self.files.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(open);
                return Some(Fd(i as u32));
            }
        }
        if self.files.len() >= self.max_fds {
            return None;
        }
        self.files.push(Some(open));
        Some(Fd(self.files.len() as u32 - 1))
    }

    pub(crate) fn get(&self, fd: Fd) -> Option<&OpenFile> {
        self.files.get(fd.0 as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, fd: Fd) -> Option<&mut OpenFile> {
        self.files.get_mut(fd.0 as usize)?.as_mut()
    }

    pub(crate) fn remove(&mut self, fd: Fd) -> Option<OpenFile> {
        self.files.get_mut(fd.0 as usize)?.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_file() -> OpenFile {
        OpenFile {
            ino: Ino(1),
            offset: 0,
            flags: OpenFlags::read_only(),
        }
    }

    #[test]
    fn lowest_free_slot_reused() {
        let mut p = Process::new(16);
        let a = p.insert(open_file()).unwrap();
        let b = p.insert(open_file()).unwrap();
        assert_eq!((a.number(), b.number()), (0, 1));
        p.remove(a).unwrap();
        let c = p.insert(open_file()).unwrap();
        assert_eq!(c.number(), 0, "lowest free descriptor is reused");
        assert_eq!(p.insert(open_file()), Some(Fd(2)));
    }

    #[test]
    fn fd_limit_enforced() {
        let mut p = Process::new(2);
        p.insert(open_file()).unwrap();
        p.insert(open_file()).unwrap();
        assert!(p.insert(open_file()).is_none());
    }

    #[test]
    fn bad_fd_lookups_fail() {
        let mut p = Process::new(4);
        assert!(p.get(Fd(0)).is_none());
        assert!(p.get_mut(Fd(3)).is_none());
        assert!(p.remove(Fd(9)).is_none());
    }

    #[test]
    fn flag_presets() {
        assert!(OpenFlags::read_only().read);
        assert!(!OpenFlags::read_only().write);
        let cw = OpenFlags::create_write();
        assert!(cw.write && cw.create && cw.truncate && !cw.read);
        let rw = OpenFlags::read_write();
        assert!(rw.read && rw.write && !rw.create);
        assert!(OpenFlags::append_only().append);
        assert!(OpenFlags::create_write().with_exclusive().exclusive);
    }
}
