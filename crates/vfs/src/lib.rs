//! An in-memory UNIX-like file system with a system-call level API.
//!
//! The paper models file I/O "at the kernel level (or system call level in
//! UNIX systems)" and, when driving a real machine, "a new file system is
//! created to which file I/O is directed" so existing files are never
//! touched (Section 4.1). This crate is that new file system: a from-scratch
//! implementation with inodes, a directory tree, a block allocator, per-
//! process file-descriptor tables and errno-style errors. The User Simulator
//! executes its generated operation stream against this API.
//!
//! The implementation favours faithful UNIX semantics over raw speed:
//! unlinked-but-open files stay readable until the last close (the paper's
//! `TEMP` usage class relies on this), `lseek` past EOF creates holes, and
//! directory entries are kept in sorted order as `readdir` output. What the
//! workload measures is usage, never content, so a file is its size and the
//! blocks it holds: [`Vfs::read`] and [`Vfs::write`] take a length, and data
//! blocks are allocated, counted and freed as on a disk while none holds a
//! byte. A file lists the indices of its blocks, so a hole costs nothing and
//! a block at a far offset one entry.
//!
//! A file system that holds many owners' objects, few in use at once,
//! reserves each owner's run of inode numbers and data blocks up front
//! ([`Vfs::reserve_homes`]), builds a home's objects at their numbers when
//! it is needed ([`Vfs::place`]) and drops them when it no longer is
//! ([`Vfs::retire`], [`Vfs::drop_home`]); the reservation counts as used
//! throughout, so every number handed out and every count reads as if
//! every home stood from the start.
//!
//! Paths are resolved from `/` on every call. A caller that creates many
//! objects in a directory it already holds (the File System Creator) uses
//! the by-handle calls instead — [`Vfs::mkdir_at`], [`Vfs::ensure_dir_at`],
//! [`Vfs::open_at`], [`Vfs::ftruncate`] — which take the directory's
//! [`Ino`] and one component name; the by-path `mkdir` and `open` create
//! through the same body.
//!
//! # Example
//!
//! ```
//! use uswg_vfs::{OpenFlags, Vfs};
//!
//! # fn main() -> Result<(), uswg_vfs::FsError> {
//! let mut fs = Vfs::new(uswg_vfs::VfsConfig::default());
//! let mut proc = fs.new_process();
//! fs.mkdir("/home")?;
//! let fd = fs.open(&mut proc, "/home/notes.txt", OpenFlags::create_write())?;
//! assert_eq!(fs.write(&mut proc, fd, 5)?, 5);
//! fs.close(&mut proc, fd)?;
//! let fd = fs.open(&mut proc, "/home/notes.txt", OpenFlags::read_only())?;
//! assert_eq!(fs.read(&mut proc, fd, 4096)?, 5);
//! assert_eq!(fs.stat("/home/notes.txt")?.size, 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod error;
mod fd;
mod home;
mod inode;
mod path;
mod vfs;

pub use block::BlockStats;
pub use error::{ConfigError, FsError};
pub use fd::{Fd, OpenFlags, Process, SeekFrom};
pub use inode::{FileKind, Ino, Metadata};
pub use vfs::{DirEntry, FsStats, OpCounters, Vfs, VfsConfig};
