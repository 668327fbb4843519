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
//! `TEMP` usage class relies on this), `lseek` past EOF creates holes that
//! read back as zeros, and directory entries are kept in sorted order as
//! `readdir` output.
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
//! fs.write(&mut proc, fd, b"hello")?;
//! fs.close(&mut proc, fd)?;
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
mod inode;
mod path;
mod vfs;

pub use block::BlockStats;
pub use error::FsError;
pub use fd::{Fd, OpenFlags, Process, SeekFrom};
pub use inode::{FileKind, Ino, Metadata};
pub use vfs::{DirEntry, FsStats, OpCounters, Vfs, VfsConfig};
