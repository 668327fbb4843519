//! Inodes and file metadata.
//!
//! An inode is one slot of the file system's inode table and the slot index
//! is its number, so the number is not stored again inside. What the object
//! holds lives in the inode too ([`Content`]): the indices of the blocks a
//! file holds, or a directory's [`Entries`]. There is no side table of
//! directories to probe or keep in step.
//!
//! Entries are sized for the population the File System Creator builds: most
//! directories are homes of a few entries, a few (`/u`, `/tmp`) hold one per
//! user. Up to [`SMALL`] entries are a sorted vector with no spare slot — a
//! three-entry home is one 96-byte block, where a B-tree allocates an
//! 11-entry leaf — and a directory that grows past that becomes a B-tree for
//! good. A name of up to 22 bytes lives inside its entry ([`Name`]), so an
//! entry costs no heap block of its own.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
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
    /// The indices of the data blocks the file holds, ascending; an index
    /// not listed is a hole. A block at a far offset costs one entry.
    Regular(Vec<u64>),
    /// Named entries, in name order.
    Directory(Entries),
}

/// Longest name an entry holds in place; a longer one is boxed.
const INLINE: usize = 22;

/// A directory entry's name, 24 bytes: up to [`INLINE`] bytes held in the
/// entry, longer names in a `Box<str>`. Names compare bytewise, which is
/// `str`'s order.
#[derive(Debug, Clone)]
pub(crate) enum Name {
    /// The first `.0` bytes of `.1`.
    Inline(u8, [u8; INLINE]),
    Boxed(Box<str>),
}

impl Name {
    fn new(name: &str) -> Self {
        if name.len() > INLINE {
            return Name::Boxed(name.into());
        }
        let mut bytes = [0; INLINE];
        bytes[..name.len()].copy_from_slice(name.as_bytes());
        Name::Inline(name.len() as u8, bytes)
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Name::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Name::Boxed(name) => name.as_bytes(),
        }
    }

    pub(crate) fn as_str(&self) -> &str {
        match self {
            Name::Inline(..) => std::str::from_utf8(self.as_bytes()).expect("built from a str"),
            Name::Boxed(name) => name,
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// Lookups take the name's bytes: same order, and no UTF-8 check.
impl Borrow<[u8]> for Name {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// Most entries a directory keeps in a sorted vector.
const SMALL: usize = 32;

/// A directory's entries, in name order. At most [`SMALL`] of them are a
/// sorted vector that grows one slot at a time, so it holds no spare slot
/// past the most entries it ever had; the entry after that promotes the
/// directory to a B-tree, which it stays. Inserting into the vector moves
/// the entries behind the new one, at most `SMALL`; a directory of one
/// entry per user would move billions.
#[derive(Debug, Clone)]
pub(crate) enum Entries {
    Small(Vec<(Name, Ino)>),
    Large(BTreeMap<Name, Ino>),
}

impl Entries {
    fn search(entries: &[(Name, Ino)], name: &str) -> Result<usize, usize> {
        entries.binary_search_by(|(entry, _)| entry.as_bytes().cmp(name.as_bytes()))
    }

    /// The inode entry `name` references.
    pub(crate) fn get(&self, name: &str) -> Option<Ino> {
        match self {
            Entries::Small(entries) => Self::search(entries, name).ok().map(|at| entries[at].1),
            Entries::Large(entries) => entries.get(name.as_bytes()).copied(),
        }
    }

    /// Points entry `name` at `ino`, adding the entry if it is missing.
    pub(crate) fn insert(&mut self, name: &str, ino: Ino) {
        match self {
            Entries::Small(entries) => match Self::search(entries, name) {
                Ok(at) => entries[at].1 = ino,
                Err(_) if entries.len() == SMALL => {
                    let mut large: BTreeMap<Name, Ino> =
                        std::mem::take(entries).into_iter().collect();
                    large.insert(Name::new(name), ino);
                    *self = Entries::Large(large);
                }
                Err(at) => {
                    entries.reserve_exact(1);
                    entries.insert(at, (Name::new(name), ino));
                }
            },
            Entries::Large(entries) => {
                entries.insert(Name::new(name), ino);
            }
        }
    }

    /// Removes entry `name`, returning the inode it referenced.
    pub(crate) fn remove(&mut self, name: &str) -> Option<Ino> {
        match self {
            Entries::Small(entries) => Self::search(entries, name)
                .ok()
                .map(|at| entries.remove(at).1),
            Entries::Large(entries) => entries.remove(name.as_bytes()),
        }
    }

    /// Every entry, in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Name, Ino)> {
        let (small, large) = match self {
            Entries::Small(entries) => (Some(entries.iter()), None),
            Entries::Large(entries) => (None, Some(entries.iter())),
        };
        let small = small.into_iter().flatten().map(|(name, ino)| (name, *ino));
        small.chain(large.into_iter().flatten().map(|(name, ino)| (name, *ino)))
    }
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
    pub content: Content,
}

impl Inode {
    /// An empty object of `kind`. A directory starts at two links: its
    /// name in the parent and its own `.`.
    pub(crate) fn new(kind: FileKind) -> Self {
        let (nlink, content) = match kind {
            FileKind::Regular => (1, Content::Regular(Vec::new())),
            FileKind::Directory => (2, Content::Directory(Entries::Small(Vec::new()))),
        };
        Self {
            size: 0,
            nlink,
            open_count: 0,
            content,
        }
    }

    pub(crate) fn kind(&self) -> FileKind {
        match self.content {
            Content::Regular(_) => FileKind::Regular,
            Content::Directory(_) => FileKind::Directory,
        }
    }

    /// The indices of the data blocks held; a directory holds none.
    pub(crate) fn blocks(&self) -> &[u64] {
        match &self.content {
            Content::Regular(blocks) => blocks,
            Content::Directory(_) => &[],
        }
    }

    /// The block indices of a regular file: descriptors and `truncate`
    /// reach nothing else, and a live inode never changes kind.
    pub(crate) fn blocks_mut(&mut self) -> &mut Vec<u64> {
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
            blocks: self.blocks().len() as u64,
            block_size: block_size as u32,
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
    /// Number of allocated data blocks (holes excluded).
    pub blocks: u64,
    /// Block size of the containing file system.
    pub block_size: u32,
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
        let mut inode = Inode::new(FileKind::Regular);
        inode.size = 100;
        *inode.blocks_mut() = vec![1];
        let md = inode.metadata(Ino(7), 4096);
        assert_eq!(md.ino.number(), 7);
        assert!(md.is_file());
        assert!(!md.is_dir());
        assert_eq!(md.size, 100);
        assert_eq!(md.blocks, 1, "the hole at block 0 is not allocated");
    }

    #[test]
    fn names_entries_and_inodes_stay_small() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        assert_eq!(std::mem::size_of::<Option<Inode>>(), 48);
        for name in [
            "",
            "a",
            &"x".repeat(INLINE),
            &"y".repeat(INLINE + 1),
            "日本",
        ] {
            assert_eq!(Name::new(name).as_str(), name);
            assert_eq!(
                matches!(Name::new(name), Name::Inline(..)),
                name.len() <= INLINE
            );
        }
    }

    #[test]
    fn a_directory_is_promoted_once_past_small_and_keeps_name_order() {
        let mut entries = Entries::Small(Vec::new());
        let names: Vec<String> = (0..=SMALL).rev().map(|i| format!("{i:02}")).collect();
        for (ino, name) in names.iter().enumerate() {
            entries.insert(name, Ino(ino as u64));
            let small = matches!(&entries, Entries::Small(v) if v.len() == v.capacity());
            assert_eq!(small, ino < SMALL, "exact-size vector up to SMALL entries");
        }
        for name in &names[1..] {
            assert!(entries.remove(name).is_some());
        }
        assert!(matches!(entries, Entries::Large(_)), "never demoted");
        let left: Vec<_> = entries
            .iter()
            .map(|(name, ino)| (name.as_str(), ino))
            .collect();
        assert_eq!(left, [(names[0].as_str(), Ino(0))]);
    }
}
