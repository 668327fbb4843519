//! Inodes and file metadata.
//!
//! An inode is one slot of the file system's inode table and the slot index
//! is its number, so the number is not stored again inside. What the object
//! holds lives in the inode too ([`Content`]): a file's block list or a
//! directory's entries, keyed by `Box<str>` — 16 bytes a name, so a B-tree
//! leaf (a whole directory of up to 11 entries) is 280 bytes. There is no
//! side table of directories to probe or keep in step.

use crate::block::BlockId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ino(pub(crate) u64);

impl Ino {
    /// The raw inode number.
    pub fn number(self) -> u64 {
        self.0
    }
}

/// What kind of object an inode describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FileKind {
    /// A regular file with data blocks.
    Regular,
    /// A directory with named entries.
    Directory,
}

/// What an inode holds besides its attributes; the variant is its kind.
#[derive(Debug, Clone)]
pub(crate) enum Content {
    /// Data blocks; `None` entries are holes that read as zeros.
    Regular(Vec<Option<BlockId>>),
    /// Named entries, in name order.
    Directory(BTreeMap<Box<str>, Ino>),
}

/// The in-memory inode.
#[derive(Debug, Clone)]
pub(crate) struct Inode {
    /// Logical file size in bytes (directories: entry count).
    pub size: u64,
    /// Number of directory entries referencing this inode.
    pub nlink: u32,
    /// Number of open descriptors referencing this inode.
    pub open_count: u32,
    /// Owner id recorded at creation (workload-level classification).
    pub uid: u32,
    pub content: Content,
    /// Last access time, microseconds of the file-system clock.
    pub atime: u64,
    /// Last modification time.
    pub mtime: u64,
    /// Inode change time.
    pub ctime: u64,
}

impl Inode {
    /// An empty object of `kind`. A directory starts at two links: its
    /// name in the parent and its own `.`.
    pub(crate) fn new(kind: FileKind, uid: u32, now: u64) -> Self {
        let (nlink, content) = match kind {
            FileKind::Regular => (1, Content::Regular(Vec::new())),
            FileKind::Directory => (2, Content::Directory(BTreeMap::new())),
        };
        Self {
            size: 0,
            nlink,
            open_count: 0,
            uid,
            content,
            atime: now,
            mtime: now,
            ctime: now,
        }
    }

    pub(crate) fn kind(&self) -> FileKind {
        match self.content {
            Content::Regular(_) => FileKind::Regular,
            Content::Directory(_) => FileKind::Directory,
        }
    }

    /// The data blocks; a directory has none.
    pub(crate) fn blocks(&self) -> &[Option<BlockId>] {
        match &self.content {
            Content::Regular(blocks) => blocks,
            Content::Directory(_) => &[],
        }
    }

    /// The block list of a regular file: descriptors and `truncate` reach
    /// nothing else, and a live inode never changes kind.
    pub(crate) fn blocks_mut(&mut self) -> &mut Vec<Option<BlockId>> {
        match &mut self.content {
            Content::Regular(blocks) => blocks,
            Content::Directory(_) => unreachable!("data access to a directory"),
        }
    }

    /// The `stat` snapshot of the inode in slot `ino`.
    pub(crate) fn metadata(&self, ino: Ino, block_size: usize) -> Metadata {
        Metadata {
            ino,
            kind: self.kind(),
            size: self.size,
            nlink: self.nlink,
            uid: self.uid,
            blocks: self.blocks().iter().flatten().count() as u64,
            block_size: block_size as u32,
            atime: self.atime,
            mtime: self.mtime,
            ctime: self.ctime,
        }
    }
}

/// The result of `stat`/`fstat`: a snapshot of an inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metadata {
    /// Inode number.
    pub ino: Ino,
    /// Object kind.
    pub kind: FileKind,
    /// Logical size in bytes.
    pub size: u64,
    /// Link count.
    pub nlink: u32,
    /// Owner id.
    pub uid: u32,
    /// Number of allocated data blocks (holes excluded).
    pub blocks: u64,
    /// Block size of the containing file system.
    pub block_size: u32,
    /// Last access time (µs).
    pub atime: u64,
    /// Last modification time (µs).
    pub mtime: u64,
    /// Inode change time (µs).
    pub ctime: u64,
}

impl Metadata {
    /// Whether this is a directory.
    pub fn is_dir(&self) -> bool {
        self.kind == FileKind::Directory
    }

    /// Whether this is a regular file.
    pub fn is_file(&self) -> bool {
        self.kind == FileKind::Regular
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_snapshot() {
        let mut inode = Inode::new(FileKind::Regular, 42, 1_000);
        inode.size = 100;
        *inode.blocks_mut() = vec![None, None];
        let md = inode.metadata(Ino(7), 4096);
        assert_eq!(md.ino.number(), 7);
        assert!(md.is_file());
        assert!(!md.is_dir());
        assert_eq!(md.size, 100);
        assert_eq!(md.blocks, 0, "holes are not allocated blocks");
        assert_eq!(md.uid, 42);
        assert_eq!(md.atime, 1_000);
    }
}
