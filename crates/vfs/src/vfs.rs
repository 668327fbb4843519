//! The file system proper: superblock, inode table, directory tree and the
//! system-call API.

use crate::block::{BlockStats, BlockStore};
use crate::fd::{Fd, OpenFile, OpenFlags, Process, SeekFrom};
use crate::home::{Homes, Slot};
use crate::inode::{Content, Entries, FileKind, Ino, Inode, Metadata};
use crate::path::{check_name, components, plain, plain_parent, split_parent};
use crate::{ConfigError, FsError};
use serde::{Deserialize, Serialize};
use std::collections::TryReserveError;

/// Geometry and limits of a [`Vfs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VfsConfig {
    /// Data block size in bytes.
    pub block_size: usize,
    /// Maximum number of data blocks (total capacity).
    pub max_blocks: usize,
    /// Maximum number of inodes.
    pub max_inodes: usize,
    /// Maximum open descriptors per process.
    pub max_fds_per_process: usize,
    /// Maximum size of a single file in bytes.
    pub max_file_size: u64,
}

impl Default for VfsConfig {
    /// 8 KiB blocks (the classic BSD FFS size), 1 GiB capacity, 64 Ki inodes.
    fn default() -> Self {
        Self {
            block_size: 8192,
            max_blocks: 131_072,
            max_inodes: 65_536,
            max_fds_per_process: 256,
            max_file_size: 256 * 1024 * 1024,
        }
    }
}

impl VfsConfig {
    /// Checks that a [`Vfs`] can be built on this geometry: blocks of 64
    /// bytes up to `u32::MAX` (the width `stat` and `statfs` report), and an
    /// inode for the root directory.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first field out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let (field, value, expected) = if !(64..=u32::MAX as usize).contains(&self.block_size) {
            ("vfs.block_size", self.block_size, "64 to 4294967295 bytes")
        } else if self.max_inodes == 0 {
            ("vfs.max_inodes", 0, "at least 1, for the root directory")
        } else {
            return Ok(());
        };
        Err(ConfigError {
            field,
            value,
            expected,
        })
    }
}

/// One `readdir` entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Entry name within its directory.
    pub name: String,
    /// Inode the entry references.
    pub ino: Ino,
    /// Kind of the referenced object.
    pub kind: FileKind,
}

/// `statfs`-style snapshot of the file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FsStats {
    /// Block size in bytes.
    pub block_size: u32,
    /// Total data blocks.
    pub total_blocks: u64,
    /// Free data blocks.
    pub free_blocks: u64,
    /// Inodes in use.
    pub used_inodes: u64,
    /// Total inodes.
    pub total_inodes: u64,
}

/// Cumulative system-call counters, used for workload characterization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounters {
    /// `open` calls (including `creat`).
    pub opens: u64,
    /// `close` calls.
    pub closes: u64,
    /// `read` calls.
    pub reads: u64,
    /// `write` calls.
    pub writes: u64,
    /// `lseek` calls.
    pub seeks: u64,
    /// `stat`/`fstat` calls.
    pub stats: u64,
    /// `unlink` calls.
    pub unlinks: u64,
    /// `mkdir` calls.
    pub mkdirs: u64,
    /// `rmdir` calls.
    pub rmdirs: u64,
    /// `readdir` calls.
    pub readdirs: u64,
    /// `rename` calls.
    pub renames: u64,
    /// `truncate` calls.
    pub truncates: u64,
    /// Bytes returned by `read`.
    pub bytes_read: u64,
    /// Bytes accepted by `write`.
    pub bytes_written: u64,
}

impl OpCounters {
    /// Total system calls recorded.
    pub fn total_calls(&self) -> u64 {
        self.opens
            + self.closes
            + self.reads
            + self.writes
            + self.seeks
            + self.stats
            + self.unlinks
            + self.mkdirs
            + self.rmdirs
            + self.readdirs
            + self.renames
            + self.truncates
    }
}

/// The in-memory UNIX-like file system. See the [crate docs](crate) for an
/// example.
#[derive(Debug)]
pub struct Vfs {
    config: VfsConfig,
    clock: u64,
    /// Every inode outside the homes' runs, by dense index.
    inodes: Vec<Option<Inode>>,
    /// Freed dense indices.
    free_inodes: Vec<usize>,
    /// Live dense inodes, retired ones, and every number of every home.
    used: usize,
    homes: Homes,
    store: BlockStore,
    counters: OpCounters,
    root: Ino,
}

impl Vfs {
    /// Creates an empty file system containing only the root directory;
    /// panics on a `config` that fails [`VfsConfig::validate`].
    pub fn new(config: VfsConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut fs = Self {
            config,
            clock: 0,
            inodes: Vec::new(),
            free_inodes: Vec::new(),
            used: 0,
            homes: Homes::default(),
            store: BlockStore::new(config.block_size, config.max_blocks),
            counters: OpCounters::default(),
            root: Ino(0),
        };
        fs.root = fs
            .alloc_inode(FileKind::Directory)
            .expect("fresh fs has inode space");
        fs
    }

    /// Creates a new simulated process with an empty descriptor table.
    pub fn new_process(&self) -> Process {
        Process::new(self.config.max_fds_per_process)
    }

    /// The root directory inode.
    pub fn root(&self) -> Ino {
        self.root
    }

    /// The configured geometry.
    pub fn config(&self) -> &VfsConfig {
        &self.config
    }

    /// Sets the file-system clock (microseconds); timestamps of subsequent
    /// operations use this value. The User Simulator drives it from the
    /// simulation clock.
    pub fn set_clock(&mut self, micros: u64) {
        self.clock = micros;
    }

    /// The current file-system clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Cumulative system-call counters.
    pub fn counters(&self) -> OpCounters {
        self.counters
    }

    /// Resets the system-call counters.
    pub fn reset_counters(&mut self) {
        self.counters = OpCounters::default();
    }

    /// Block-allocation statistics.
    pub fn block_stats(&self) -> BlockStats {
        self.store.stats()
    }

    /// `statfs`: capacity snapshot.
    pub fn statfs(&self) -> FsStats {
        FsStats {
            block_size: self.config.block_size as u32,
            total_blocks: self.config.max_blocks as u64,
            free_blocks: self.store.free_blocks(),
            used_inodes: self.used as u64,
            total_inodes: self.config.max_inodes as u64,
        }
    }

    // ------------------------------------------------------------------
    // Inode plumbing
    // ------------------------------------------------------------------

    fn alloc_inode(&mut self, kind: FileKind) -> Result<Ino, FsError> {
        if self.used >= self.config.max_inodes {
            return Err(FsError::NoSpace);
        }
        self.used += 1;
        let node = Some(Inode::new(kind, self.clock));
        let idx = match self.free_inodes.pop() {
            Some(idx) => {
                self.inodes[idx] = node;
                idx
            }
            None => {
                self.inodes.push(node);
                self.inodes.len() - 1
            }
        };
        Ok(Ino(self.homes.number(idx)))
    }

    /// Bytes of one slot of the inode table.
    pub const INODE_BYTES: usize = std::mem::size_of::<Option<Inode>>();

    /// Makes room in the inode table for `inodes` more live inodes, with no
    /// slack: a caller that knows its demand before it creates anything
    /// (the File System Creator) has the table sized once, to that demand.
    /// Creation past it, during a run, grows the table by doubling.
    ///
    /// # Errors
    ///
    /// The allocator's, when the table cannot grow that far; the table is
    /// then as it was.
    pub fn try_reserve_inodes(&mut self, inodes: usize) -> Result<(), TryReserveError> {
        let more = inodes.saturating_sub(self.free_inodes.len());
        self.inodes.try_reserve_exact(more)
    }

    /// Length of the inode table: every inode number handed out or
    /// reserved so far is below it, and `n` more inodes get numbers below
    /// `inode_slots() + n` unless freed numbers are handed out again.
    pub fn inode_slots(&self) -> usize {
        self.inodes.len() + self.homes.span() as usize
    }

    /// Freed inode numbers that the next creations take again.
    pub fn freed_inodes(&self) -> usize {
        self.free_inodes.len()
    }

    /// The slot of inode `ino`: `None` past the table and in a home that
    /// is not built.
    fn slot_mut(&mut self, ino: Ino) -> Option<&mut Option<Inode>> {
        slot_in(&mut self.inodes, &mut self.homes, ino)
    }

    /// The live inode `ino`, and the block store beside it.
    fn node_and_store(&mut self, ino: Ino) -> (&mut Inode, &mut BlockStore) {
        let node = slot_in(&mut self.inodes, &mut self.homes, ino).and_then(Option::as_mut);
        (node.expect("reference to freed inode"), &mut self.store)
    }

    /// The live inode `ino`, if there is one.
    fn node(&self, ino: Ino) -> Option<&Inode> {
        match self.homes.slot(ino.0) {
            Slot::Dense(idx) => self.inodes.get(idx)?.as_ref(),
            Slot::Home(home, at) => self.homes.get(home, at),
        }
    }

    fn inode(&self, ino: Ino) -> &Inode {
        self.node(ino).expect("reference to freed inode")
    }

    fn inode_mut(&mut self, ino: Ino) -> &mut Inode {
        self.node_and_store(ino).0
    }

    /// The entries of `ino` if it is a live directory of this file system:
    /// `None` for a regular file, a freed slot, or a number past the table
    /// (a handle kept across an `rmdir`, or taken from another `Vfs`).
    fn dir(&self, ino: Ino) -> Option<&Entries> {
        match &self.node(ino)?.content {
            Content::Directory(entries) => Some(entries),
            Content::Regular(_) => None,
        }
    }

    /// The entries of `ino`, which the caller has checked with [`Self::dir`].
    fn dir_mut(&mut self, ino: Ino) -> &mut Entries {
        match &mut self.inode_mut(ino).content {
            Content::Directory(entries) => entries,
            Content::Regular(_) => unreachable!("checked to be a directory"),
        }
    }

    /// Frees an inode and its data blocks. A home's number stays its own.
    fn free_inode(&mut self, ino: Ino) {
        let node = (self.slot_mut(ino).and_then(Option::take)).expect("double free of inode");
        self.store.free(node.blocks().len() as u64);
        if let Slot::Dense(idx) = self.homes.slot(ino.0) {
            self.free_inodes.push(idx);
            self.used -= 1;
        }
    }

    fn drop_link(&mut self, ino: Ino) {
        let clock = self.clock;
        let node = self.inode_mut(ino);
        node.nlink = node.nlink.saturating_sub(1);
        node.ctime = clock;
        if node.nlink == 0 && node.open_count == 0 {
            self.free_inode(ino);
        }
    }

    // ------------------------------------------------------------------
    // Path resolution
    // ------------------------------------------------------------------

    /// Resolves a path to an inode.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] for missing components, [`FsError::NotADirectory`]
    /// when a non-final component is a file, plus path-syntax errors.
    pub fn resolve(&self, path: &str) -> Result<Ino, FsError> {
        match plain(path) {
            Some(comps) => self.walk(comps),
            None => self.walk(components(path)?),
        }
    }

    /// Steps from the root through each of `comps`.
    fn walk<'p>(&self, comps: impl IntoIterator<Item = &'p str>) -> Result<Ino, FsError> {
        comps.into_iter().try_fold(self.root, |cur, comp| {
            let dir = self.dir(cur).ok_or(FsError::NotADirectory)?;
            dir.get(comp).ok_or(FsError::NotFound)
        })
    }

    /// Resolves the parent directory of `path`, returning `(dir_ino, name)`.
    fn resolve_parent<'p>(&self, path: &'p str) -> Result<(Ino, &'p str), FsError> {
        let (parent, name) = match plain_parent(path) {
            Some((comps, name)) => (self.walk(comps)?, name),
            None => {
                let (comps, name) = split_parent(path)?;
                (self.walk(comps)?, name)
            }
        };
        self.dir(parent).ok_or(FsError::NotADirectory)?;
        Ok((parent, name))
    }

    /// Whether a path currently resolves to an object.
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    // ------------------------------------------------------------------
    // Directory calls
    // ------------------------------------------------------------------

    /// `mkdir(2)`: creates a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] if the name is taken, [`FsError::NoSpace`]
    /// when out of inodes, plus resolution errors for the parent.
    pub fn mkdir(&mut self, path: &str) -> Result<(), FsError> {
        self.counters.mkdirs += 1;
        let (parent, name) = self.resolve_parent(path)?;
        self.create_at(parent, name, FileKind::Directory)
            .map(|_| ())
    }

    /// Creates every missing directory along `path` (like `mkdir -p`), in
    /// one walk from the root.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] if an existing component is a file, plus
    /// allocation errors.
    pub fn mkdir_all(&mut self, path: &str) -> Result<(), FsError> {
        let mut cur = self.root;
        for comp in components(path)? {
            cur = self.ensure_dir_at(cur, comp)?;
        }
        Ok(())
    }

    /// `rmdir(2)`: removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::DirectoryNotEmpty`] if it has entries, [`FsError::Busy`]
    /// for the root, [`FsError::NotADirectory`] for files.
    pub fn rmdir(&mut self, path: &str) -> Result<(), FsError> {
        self.counters.rmdirs += 1;
        let ino = self.resolve(path)?;
        if ino == self.root {
            return Err(FsError::Busy);
        }
        let entries = self.dir(ino).ok_or(FsError::NotADirectory)?;
        if !entries.is_empty() {
            return Err(FsError::DirectoryNotEmpty);
        }
        let (parent, name) = self.resolve_parent(path)?;
        self.dir_mut(parent).remove(name);
        let clock = self.clock;
        let p = self.inode_mut(parent);
        p.nlink -= 1;
        p.mtime = clock;
        p.size = p.size.saturating_sub(1);
        // Directories have nlink 2 when empty; force the free.
        self.inode_mut(ino).nlink = 0;
        self.free_inode(ino);
        Ok(())
    }

    /// `readdir`: lists a directory in name order.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] when `path` is a file, plus resolution
    /// errors.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<DirEntry>, FsError> {
        self.counters.readdirs += 1;
        let ino = self.resolve(path)?;
        let entries = self.dir(ino).ok_or(FsError::NotADirectory)?;
        let out = entries
            .iter()
            .map(|(name, child)| DirEntry {
                name: name.as_str().into(),
                ino: child,
                kind: self.inode(child).kind(),
            })
            .collect();
        let clock = self.clock;
        self.inode_mut(ino).atime = clock;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // File calls
    // ------------------------------------------------------------------

    /// `open(2)`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] without `create`, [`FsError::AlreadyExists`]
    /// with `exclusive`, [`FsError::IsADirectory`] when opening a directory
    /// for writing, [`FsError::TooManyOpenFiles`] when the process table is
    /// full, [`FsError::InvalidArgument`] for flags with neither read nor
    /// write access.
    pub fn open(
        &mut self,
        proc: &mut Process,
        path: &str,
        flags: OpenFlags,
    ) -> Result<Fd, FsError> {
        self.counters.opens += 1;
        if !flags.read && !flags.write {
            return Err(FsError::InvalidArgument);
        }
        let ino = match self.resolve(path) {
            Ok(ino) => {
                if flags.create && flags.exclusive {
                    return Err(FsError::AlreadyExists);
                }
                ino
            }
            Err(FsError::NotFound) if flags.create => {
                let (parent, name) = self.resolve_parent(path)?;
                self.create_at(parent, name, FileKind::Regular)?
            }
            Err(e) => return Err(e),
        };
        self.open_inode(proc, ino, flags)
    }

    /// `creat(2)`: shorthand for `open` with create+write+truncate.
    ///
    /// # Errors
    ///
    /// Same as [`Vfs::open`].
    pub fn creat(&mut self, proc: &mut Process, path: &str) -> Result<Fd, FsError> {
        self.open(proc, path, OpenFlags::create_write())
    }

    /// `close(2)`.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] for an unknown descriptor.
    pub fn close(&mut self, proc: &mut Process, fd: Fd) -> Result<(), FsError> {
        self.counters.closes += 1;
        let open = proc.remove(fd).ok_or(FsError::BadFd)?;
        let node = self.inode_mut(open.ino);
        node.open_count = node.open_count.saturating_sub(1);
        if node.nlink == 0 && node.open_count == 0 {
            self.free_inode(open.ino);
        }
        Ok(())
    }

    /// `read(2)` of up to `len` bytes at the descriptor's cursor. Returns
    /// the number of bytes read, 0 at end-of-file; no byte is copied.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] / [`FsError::BadAccessMode`] for bad descriptors.
    pub fn read(&mut self, proc: &mut Process, fd: Fd, len: usize) -> Result<usize, FsError> {
        self.counters.reads += 1;
        let open = proc.get_mut(fd).ok_or(FsError::BadFd)?;
        if !open.flags.read {
            return Err(FsError::BadAccessMode);
        }
        let clock = self.clock;
        let node = self.inode_mut(open.ino);
        node.atime = clock;
        let left = node.size.saturating_sub(open.offset);
        let n = usize::try_from(left).map_or(len, |left| len.min(left));
        open.offset += n as u64;
        self.counters.bytes_read += n as u64;
        Ok(n)
    }

    /// `write(2)` of `len` bytes at the descriptor's cursor (or at EOF with
    /// append mode): every block the range touches is allocated, and no
    /// byte is stored. Returns the number of bytes written, which is short
    /// if the device fills mid-write: the write stops at the first block it
    /// cannot allocate.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] / [`FsError::BadAccessMode`] for bad descriptors,
    /// [`FsError::NoSpace`] when nothing could be written,
    /// [`FsError::FileTooLarge`] beyond the maximum file size.
    pub fn write(&mut self, proc: &mut Process, fd: Fd, len: usize) -> Result<usize, FsError> {
        self.counters.writes += 1;
        let open = proc.get_mut(fd).ok_or(FsError::BadFd)?;
        if !open.flags.write {
            return Err(FsError::BadAccessMode);
        }
        let ino = open.ino;
        let offset = if open.flags.append {
            self.inode(ino).size
        } else {
            open.offset
        };
        if offset.saturating_add(len as u64) > self.config.max_file_size {
            return Err(FsError::FileTooLarge);
        }
        let (bs, clock) = (self.config.block_size as u64, self.clock);
        // The inode is looked up once for the whole write.
        let (node, store) = self.node_and_store(ino);
        // Blocks `first..end` hold the range; those the file lacks are
        // allocated in order, up to the first that does not fit.
        let first = offset / bs;
        let end = if len == 0 {
            first
        } else {
            (offset + len as u64).div_ceil(bs)
        };
        let blocks = node.blocks_mut();
        let (mut at, mut done) = (blocks.partition_point(|&b| b < first), len);
        for block in first..end {
            if blocks.get(at) != Some(&block) {
                if let Err(e) = store.alloc() {
                    if block == first {
                        return Err(e);
                    }
                    // The device filled mid-write: a short write, up to the
                    // block that did not fit.
                    done = (block * bs - offset) as usize;
                    break;
                }
                blocks.insert(at, block);
            }
            at += 1;
        }
        node.size = node.size.max(offset + done as u64);
        node.mtime = clock;
        node.ctime = clock;
        open.offset = offset + done as u64;
        self.counters.bytes_written += done as u64;
        Ok(done)
    }

    /// `lseek(2)`: repositions the cursor; returns the new offset.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] for unknown descriptors,
    /// [`FsError::InvalidArgument`] for seeks before the start of the file.
    pub fn lseek(&mut self, proc: &mut Process, fd: Fd, pos: SeekFrom) -> Result<u64, FsError> {
        self.counters.seeks += 1;
        let open = proc.get_mut(fd).ok_or(FsError::BadFd)?;
        let size = self.inode(open.ino).size;
        let new = match pos {
            SeekFrom::Start(o) => o as i128,
            SeekFrom::Current(d) => open.offset as i128 + d as i128,
            SeekFrom::End(d) => size as i128 + d as i128,
        };
        if new < 0 || new > u64::MAX as i128 {
            return Err(FsError::InvalidArgument);
        }
        open.offset = new as u64;
        Ok(open.offset)
    }

    /// `stat(2)`.
    ///
    /// # Errors
    ///
    /// Resolution errors for `path`.
    pub fn stat(&mut self, path: &str) -> Result<Metadata, FsError> {
        self.counters.stats += 1;
        let ino = self.resolve(path)?;
        Ok(self.inode(ino).metadata(ino, self.config.block_size))
    }

    /// `fstat(2)`.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] for unknown descriptors.
    pub fn fstat(&mut self, proc: &Process, fd: Fd) -> Result<Metadata, FsError> {
        self.counters.stats += 1;
        let ino = proc.get(fd).ok_or(FsError::BadFd)?.ino;
        Ok(self.inode(ino).metadata(ino, self.config.block_size))
    }

    /// `unlink(2)`: removes a file name. Data is freed when the last open
    /// descriptor closes.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories (use [`Vfs::rmdir`]), plus
    /// resolution errors.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        self.counters.unlinks += 1;
        let ino = self.resolve(path)?;
        if self.dir(ino).is_some() {
            return Err(FsError::IsADirectory);
        }
        let (parent, name) = self.resolve_parent(path)?;
        self.dir_mut(parent).remove(name).ok_or(FsError::NotFound)?;
        let clock = self.clock;
        let p = self.inode_mut(parent);
        p.mtime = clock;
        p.size = p.size.saturating_sub(1);
        self.drop_link(ino);
        Ok(())
    }

    /// `rename(2)`: moves `old` to `new`, replacing an existing file at
    /// `new` (but never a directory).
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] when `new` names an existing directory,
    /// [`FsError::InvalidArgument`] when moving a directory into its own
    /// subtree, plus resolution errors.
    pub fn rename(&mut self, old: &str, new: &str) -> Result<(), FsError> {
        self.counters.renames += 1;
        let ino = self.resolve(old)?;
        if ino == self.root {
            return Err(FsError::Busy);
        }
        let (old_parent, old_name) = self.resolve_parent(old)?;
        let (new_parent, new_name) = self.resolve_parent(new)?;
        if old_parent == new_parent && old_name == new_name {
            return Ok(());
        }
        let is_dir = self.dir(ino).is_some();
        if is_dir && self.is_same_or_descendant(ino, new_parent) {
            return Err(FsError::InvalidArgument);
        }
        // Handle an existing target.
        let new_entries = self.dir(new_parent).expect("parent checked");
        if let Some(target) = new_entries.get(new_name) {
            if self.dir(target).is_some() {
                return Err(FsError::IsADirectory);
            }
            // Without link(2) the target is `ino` only if the names alias,
            // and the old name goes below.
            if target != ino {
                self.dir_mut(new_parent).remove(new_name);
                let p = self.inode_mut(new_parent);
                p.size = p.size.saturating_sub(1);
                self.drop_link(target);
            }
        }
        self.dir_mut(old_parent).remove(old_name);
        self.dir_mut(new_parent).insert(new_name, ino);
        let clock = self.clock;
        if old_parent != new_parent {
            if is_dir {
                self.inode_mut(old_parent).nlink -= 1;
                self.inode_mut(new_parent).nlink += 1;
            }
            self.inode_mut(old_parent).size = self.inode(old_parent).size.saturating_sub(1);
            self.inode_mut(new_parent).size += 1;
        }
        self.inode_mut(old_parent).mtime = clock;
        self.inode_mut(new_parent).mtime = clock;
        self.inode_mut(ino).ctime = clock;
        Ok(())
    }

    /// `truncate(2)`: sets the file length, freeing or holing blocks.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories,
    /// [`FsError::FileTooLarge`] beyond the maximum file size, plus
    /// resolution errors.
    pub fn truncate(&mut self, path: &str, len: u64) -> Result<(), FsError> {
        self.counters.truncates += 1;
        let ino = self.resolve(path)?;
        self.set_len(ino, len)
    }

    /// Writes a whole file of `len` bytes by path in `proc`, creating or
    /// replacing it: creat, write until done, close.
    ///
    /// # Errors
    ///
    /// Same as the underlying calls. A call that fails after the creat
    /// leaves its descriptor open in `proc`.
    pub fn write_file(
        &mut self,
        proc: &mut Process,
        path: &str,
        len: usize,
    ) -> Result<(), FsError> {
        let fd = self.creat(proc, path)?;
        let mut done = 0;
        while done < len {
            done += self.write(proc, fd, len - done)?;
        }
        self.close(proc, fd)
    }

    /// The indices of the data blocks regular file `ino` holds, ascending;
    /// empty for a directory or a number with no live inode. No counter
    /// moves.
    pub fn block_indices(&self, ino: Ino) -> &[u64] {
        self.node(ino).map_or(&[], Inode::blocks)
    }

    // ------------------------------------------------------------------
    // By-handle calls: a directory inode plus one component name, in the
    // style of `mkdirat(2)` / `openat(2)`. A bulk builder that holds its
    // directory pays one map lookup per object instead of a walk from `/`.
    // ------------------------------------------------------------------

    /// `mkdirat(2)`: creates directory `name` inside directory `parent` and
    /// returns its inode.
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidArgument`] / [`FsError::NameTooLong`] unless `name`
    /// is a single component, [`FsError::NotADirectory`] unless `parent` is
    /// a live directory, [`FsError::AlreadyExists`] if the name is taken,
    /// [`FsError::NoSpace`] when out of inodes.
    pub fn mkdir_at(&mut self, parent: Ino, name: &str) -> Result<Ino, FsError> {
        self.counters.mkdirs += 1;
        self.create_at(parent, name, FileKind::Directory)
    }

    /// One step of `mkdir -p`: the inode of directory `name` inside
    /// `parent`, created if it is missing.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] when `name` exists and is a file, plus the
    /// errors of [`Vfs::mkdir_at`] other than `AlreadyExists`.
    pub fn ensure_dir_at(&mut self, parent: Ino, name: &str) -> Result<Ino, FsError> {
        match self.dir(parent).ok_or(FsError::NotADirectory)?.get(name) {
            Some(ino) if self.dir(ino).is_some() => Ok(ino),
            Some(_) => Err(FsError::NotADirectory),
            None => self.mkdir_at(parent, name),
        }
    }

    /// `openat(2)`: opens `name` inside directory `parent`, creating a
    /// regular file there when `flags.create` is set and it is missing.
    ///
    /// # Errors
    ///
    /// The name and parent errors of [`Vfs::mkdir_at`], then the same as
    /// [`Vfs::open`].
    pub fn open_at(
        &mut self,
        proc: &mut Process,
        parent: Ino,
        name: &str,
        flags: OpenFlags,
    ) -> Result<Fd, FsError> {
        self.counters.opens += 1;
        if !flags.read && !flags.write {
            return Err(FsError::InvalidArgument);
        }
        check_name(name)?;
        let ino = match self.dir(parent).ok_or(FsError::NotADirectory)?.get(name) {
            Some(_) if flags.create && flags.exclusive => return Err(FsError::AlreadyExists),
            Some(ino) => ino,
            None if flags.create => self.create_at(parent, name, FileKind::Regular)?,
            None => return Err(FsError::NotFound),
        };
        self.open_inode(proc, ino, flags)
    }

    /// `ftruncate(2)`: sets the length of the file open on `fd`.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] for unknown descriptors,
    /// [`FsError::BadAccessMode`] unless it is open for writing,
    /// [`FsError::FileTooLarge`] beyond the maximum file size.
    pub fn ftruncate(&mut self, proc: &Process, fd: Fd, len: u64) -> Result<(), FsError> {
        self.counters.truncates += 1;
        let open = proc.get(fd).ok_or(FsError::BadFd)?;
        if !open.flags.write {
            return Err(FsError::BadAccessMode);
        }
        self.set_len(open.ino, len)
    }

    // ------------------------------------------------------------------
    // Homes: runs of inode numbers reserved at once, their objects built
    // and dropped later by number (see `home.rs`).
    // ------------------------------------------------------------------

    /// Reserves `homes` runs of `per_home` inode numbers each, starting at
    /// the next number the table hands out, and `blocks` data blocks for
    /// the files they will hold. Every reserved number and block counts as
    /// used from now on — in `statfs`, in [`BlockStats`] (as allocations)
    /// and against the limits — so a file system whose homes are built
    /// later reads as if they stood from the start. Objects created later
    /// get the numbers after the runs. Returns the first number of home 0;
    /// home `h` starts `h × per_home` above it.
    ///
    /// # Errors
    ///
    /// [`FsError::Busy`] when the table has freed numbers or homes already
    /// (the runs must follow the last number handed out),
    /// [`FsError::NoSpace`] when the inodes or blocks left are fewer, or
    /// the table of homes cannot be allocated. Nothing is reserved then.
    pub fn reserve_homes(
        &mut self,
        homes: usize,
        per_home: u64,
        blocks: u64,
    ) -> Result<Ino, FsError> {
        if !self.free_inodes.is_empty() || self.homes.len() > 0 {
            return Err(FsError::Busy);
        }
        let numbers = (per_home.checked_mul(homes as u64)).ok_or(FsError::NoSpace)?;
        let left = self.config.max_inodes - self.used;
        if numbers > left as u64 || blocks > self.store.free_blocks() {
            return Err(FsError::NoSpace);
        }
        let first = self.inodes.len() as u64;
        self.homes = Homes::reserve(first, per_home, homes, self.clock).ok_or(FsError::NoSpace)?;
        self.store.reserve(blocks)?;
        self.used += numbers as usize;
        Ok(Ino(first))
    }

    /// Whether home `home` is built: it has a page, so objects placed in
    /// it are live.
    pub fn home_built(&self, home: usize) -> bool {
        self.homes.built(home)
    }

    /// Builds object `number`, one of a home's reserved numbers, as `name`
    /// inside directory `parent`, the way the build that reserved it would
    /// have created it: an empty directory, or a regular file of `size`
    /// bytes that holds its blocks out of the reservation when `filled`
    /// and is a hole otherwise. Every time it sets — its own, and the
    /// parent's modification time — is the clock the homes were reserved
    /// at, and no counter moves.
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidArgument`] unless `number` is a reserved number
    /// with no object, plus the name and parent errors of
    /// [`Vfs::mkdir_at`], [`FsError::FileTooLarge`] past the maximum file
    /// size, and [`FsError::NoSpace`] when the reservation is out of
    /// blocks.
    pub fn place(
        &mut self,
        parent: Ino,
        name: &str,
        number: u64,
        kind: FileKind,
        size: u64,
        filled: bool,
    ) -> Result<Ino, FsError> {
        check_name(name)?;
        let Slot::Home(home, at) = self.homes.slot(number) else {
            return Err(FsError::InvalidArgument);
        };
        if self.homes.get(home, at).is_some() {
            return Err(FsError::InvalidArgument);
        }
        if self
            .dir(parent)
            .ok_or(FsError::NotADirectory)?
            .get(name)
            .is_some()
        {
            return Err(FsError::AlreadyExists);
        }
        let clock = self.homes.clock;
        let mut node = Inode::new(kind, clock);
        if kind == FileKind::Regular {
            if size > self.config.max_file_size {
                return Err(FsError::FileTooLarge);
            }
            let blocks = if filled {
                size.div_ceil(self.config.block_size as u64)
            } else {
                0
            };
            self.store.take_reserved(blocks)?;
            // The list a write from offset 0 leaves, spare room included:
            // grown a block at a time.
            let list = node.blocks_mut();
            (0..blocks).for_each(|block| list.push(block));
            node.size = size;
        }
        *self.homes.build(home, at) = Some(node);
        let ino = Ino(number);
        self.dir_mut(parent).insert(name, ino);
        let p = self.inode_mut(parent);
        p.nlink += u32::from(kind == FileKind::Directory);
        p.mtime = clock;
        p.size += 1;
        Ok(ino)
    }

    /// Unlinks `name` from directory `parent` and retires the object, and
    /// everything below it if it is a directory, the way a home is
    /// dropped: a retired inode's number stays used and is not handed out
    /// again, its data blocks go back to the reservation, and no time or
    /// counter moves. Returns whether there was such an entry.
    pub fn retire(&mut self, parent: Ino, name: &str) -> bool {
        let Some(ino) = self.dir(parent).and_then(|entries| entries.get(name)) else {
            return false;
        };
        let is_dir = self.dir(ino).is_some();
        self.dir_mut(parent).remove(name);
        let p = self.inode_mut(parent);
        p.nlink -= u32::from(is_dir);
        p.size = p.size.saturating_sub(1);
        self.retire_tree(ino);
        true
    }

    fn retire_tree(&mut self, ino: Ino) {
        let Some(node) = self.slot_mut(ino).and_then(Option::take) else {
            return;
        };
        match node.content {
            Content::Regular(blocks) => self.store.retire(blocks.len() as u64),
            Content::Directory(entries) => entries.iter().for_each(|(_, child)| {
                self.retire_tree(child);
            }),
        }
    }

    /// Drops home `home`'s page once its objects are retired
    /// ([`Vfs::retire`]); an object still in it is retired with it, though
    /// an entry that names it elsewhere is not removed.
    pub fn drop_home(&mut self, home: usize) {
        let page = self.homes.drop_page(home).unwrap_or_default();
        for node in page.iter().flatten() {
            self.store.retire(node.blocks().len() as u64);
        }
    }

    /// Number of homes reserved.
    pub fn homes(&self) -> usize {
        self.homes.len()
    }

    /// Entries of directory `dir`; 0 for anything else. No counter moves.
    pub fn entry_count(&self, dir: Ino) -> u64 {
        self.dir(dir).map_or(0, |_| self.inode(dir).size)
    }

    /// The one creation body behind `mkdir`, `open(create)` and their
    /// by-handle forms: links a fresh inode of `kind` into `parent` as
    /// `name`.
    fn create_at(&mut self, parent: Ino, name: &str, kind: FileKind) -> Result<Ino, FsError> {
        check_name(name)?;
        let siblings = self.dir(parent).ok_or(FsError::NotADirectory)?;
        if siblings.get(name).is_some() {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.alloc_inode(kind)?;
        self.dir_mut(parent).insert(name, ino);
        let clock = self.clock;
        let p = self.inode_mut(parent);
        p.nlink += u32::from(kind == FileKind::Directory);
        p.mtime = clock;
        p.size += 1;
        Ok(ino)
    }

    /// The tail of every open: access checks on the resolved inode, then a
    /// descriptor in `proc`.
    fn open_inode(
        &mut self,
        proc: &mut Process,
        ino: Ino,
        flags: OpenFlags,
    ) -> Result<Fd, FsError> {
        // Reading a directory through read(2) is not supported either.
        if self.dir(ino).is_some() {
            return Err(FsError::IsADirectory);
        }
        if flags.truncate {
            self.truncate_inode(ino, 0);
        }
        let open = OpenFile {
            ino,
            offset: 0,
            flags,
        };
        let fd = proc.insert(open).ok_or(FsError::TooManyOpenFiles)?;
        let clock = self.clock;
        let node = self.inode_mut(ino);
        node.open_count += 1;
        node.atime = clock;
        Ok(fd)
    }

    /// The body of `truncate` and `ftruncate`.
    fn set_len(&mut self, ino: Ino, len: u64) -> Result<(), FsError> {
        if self.dir(ino).is_some() {
            return Err(FsError::IsADirectory);
        }
        if len > self.config.max_file_size {
            return Err(FsError::FileTooLarge);
        }
        self.truncate_inode(ino, len);
        let clock = self.clock;
        let node = self.inode_mut(ino);
        node.mtime = clock;
        node.ctime = clock;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data plumbing
    // ------------------------------------------------------------------

    fn truncate_inode(&mut self, ino: Ino, len: u64) {
        let keep = len.div_ceil(self.config.block_size as u64);
        let (node, store) = self.node_and_store(ino);
        let blocks = node.blocks_mut();
        let cut = blocks.partition_point(|&b| b < keep);
        store.free((blocks.len() - cut) as u64);
        // The list keeps its capacity, so truncating allocates nothing.
        blocks.truncate(cut);
        node.size = len;
    }

    /// Whether `candidate` is `dir` itself or lives anywhere below it.
    fn is_same_or_descendant(&self, dir: Ino, candidate: Ino) -> bool {
        dir == candidate
            || self.dir(dir).is_some_and(|entries| {
                entries
                    .iter()
                    .any(|(_, child)| self.is_same_or_descendant(child, candidate))
            })
    }
}

/// [`Vfs::slot_mut`] over the two tables alone, so that the block store can
/// be borrowed beside the slot.
fn slot_in<'v>(
    inodes: &'v mut [Option<Inode>],
    homes: &'v mut Homes,
    ino: Ino,
) -> Option<&'v mut Option<Inode>> {
    match homes.slot(ino.0) {
        Slot::Dense(idx) => inodes.get_mut(idx),
        Slot::Home(home, at) => homes.get_mut(home, at),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Vfs {
        Vfs::new(VfsConfig::default())
    }

    fn small_fs() -> Vfs {
        Vfs::new(VfsConfig {
            block_size: 128,
            max_blocks: 8,
            max_inodes: 16,
            max_fds_per_process: 4,
            max_file_size: 4096,
        })
    }

    /// [`Vfs::write_file`] in a process of its own.
    fn put(f: &mut Vfs, path: &str, len: usize) -> Result<(), FsError> {
        let mut p = f.new_process();
        f.write_file(&mut p, path, len)
    }

    /// Bytes a read-only descriptor on `path` reads from the start.
    fn read_all(f: &mut Vfs, path: &str) -> Result<usize, FsError> {
        let mut p = f.new_process();
        let fd = f.open(&mut p, path, OpenFlags::read_only())?;
        f.read(&mut p, fd, usize::MAX)
    }

    #[test]
    fn fresh_fs_has_empty_root() {
        let mut f = fs();
        assert_eq!(f.readdir("/").unwrap(), vec![]);
        assert!(f.exists("/"));
        let st = f.statfs();
        assert_eq!(st.used_inodes, 1);
        assert_eq!(st.free_blocks, st.total_blocks);
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut f = fs();
        let mut p = f.new_process();
        let fd = f.creat(&mut p, "/a.txt").unwrap();
        assert_eq!(f.write(&mut p, fd, 11).unwrap(), 11);
        f.close(&mut p, fd).unwrap();
        assert_eq!(read_all(&mut f, "/a.txt"), Ok(11));
        let md = f.stat("/a.txt").unwrap();
        assert_eq!((md.size, md.blocks), (11, 1));
        assert_eq!(f.block_indices(md.ino), [0]);
    }

    #[test]
    fn multi_block_files() {
        let mut f = small_fs(); // 128-byte blocks
        put(&mut f, "/big", 600).unwrap();
        assert_eq!(read_all(&mut f, "/big"), Ok(600));
        let md = f.stat("/big").unwrap();
        assert_eq!(md.blocks, 5); // ceil(600/128)
        assert_eq!(f.block_indices(md.ino), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn sequential_reads_advance_cursor() {
        let mut f = fs();
        put(&mut f, "/seq", 10).unwrap();
        let mut p = f.new_process();
        let fd = f.open(&mut p, "/seq", OpenFlags::read_only()).unwrap();
        assert_eq!(f.read(&mut p, fd, 4).unwrap(), 4);
        assert_eq!(f.read(&mut p, fd, 4).unwrap(), 4);
        assert_eq!(f.lseek(&mut p, fd, SeekFrom::Current(0)), Ok(8));
        assert_eq!(f.read(&mut p, fd, 4).unwrap(), 2);
        assert_eq!(f.read(&mut p, fd, 4).unwrap(), 0, "EOF");
        assert_eq!(f.lseek(&mut p, fd, SeekFrom::Current(0)), Ok(10));
        f.close(&mut p, fd).unwrap();
    }

    #[test]
    fn lseek_moves_cursor_and_creates_holes() {
        let mut f = fs();
        let mut p = f.new_process();
        let fd = f.creat(&mut p, "/holey").unwrap();
        f.write(&mut p, fd, 4).unwrap();
        f.lseek(&mut p, fd, SeekFrom::Start(100_000)).unwrap();
        f.write(&mut p, fd, 4).unwrap();
        f.close(&mut p, fd).unwrap();
        assert_eq!(read_all(&mut f, "/holey"), Ok(100_004));
        // Only the two touched blocks are allocated; the hole costs nothing.
        let md = f.stat("/holey").unwrap();
        assert_eq!(md.blocks, 2);
        assert_eq!(f.block_indices(md.ino), [0, 100_000 / 8192]);
    }

    #[test]
    fn lseek_variants() {
        let mut f = fs();
        put(&mut f, "/s", 10).unwrap();
        let mut p = f.new_process();
        let fd = f.open(&mut p, "/s", OpenFlags::read_only()).unwrap();
        assert_eq!(f.lseek(&mut p, fd, SeekFrom::End(-3)).unwrap(), 7);
        assert_eq!(f.lseek(&mut p, fd, SeekFrom::Current(2)).unwrap(), 9);
        assert_eq!(
            f.lseek(&mut p, fd, SeekFrom::Current(-100)),
            Err(FsError::InvalidArgument)
        );
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let mut f = fs();
        put(&mut f, "/log", 4).unwrap();
        let mut p = f.new_process();
        let fd = f.open(&mut p, "/log", OpenFlags::append_only()).unwrap();
        f.lseek(&mut p, fd, SeekFrom::Start(1)).unwrap();
        f.write(&mut p, fd, 4).unwrap();
        assert_eq!(f.lseek(&mut p, fd, SeekFrom::Current(0)), Ok(8));
        f.close(&mut p, fd).unwrap();
        assert_eq!(f.stat("/log").unwrap().size, 8);
    }

    #[test]
    fn open_flags_validated() {
        let mut f = fs();
        let mut p = f.new_process();
        let none = OpenFlags {
            read: false,
            ..OpenFlags::read_only()
        };
        assert_eq!(f.open(&mut p, "/x", none), Err(FsError::InvalidArgument));
        assert_eq!(
            f.open(&mut p, "/missing", OpenFlags::read_only()),
            Err(FsError::NotFound)
        );
        put(&mut f, "/x", 2).unwrap();
        let fd = f.open(&mut p, "/x", OpenFlags::read_only()).unwrap();
        assert_eq!(f.write(&mut p, fd, 2), Err(FsError::BadAccessMode));
        let wfd = f.open(&mut p, "/x", OpenFlags::create_write()).unwrap();
        assert_eq!(f.read(&mut p, wfd, 1), Err(FsError::BadAccessMode));
    }

    #[test]
    fn exclusive_create() {
        let mut f = fs();
        let mut p = f.new_process();
        let flags = OpenFlags::create_write().with_exclusive();
        let fd = f.open(&mut p, "/once", flags).unwrap();
        f.close(&mut p, fd).unwrap();
        assert_eq!(f.open(&mut p, "/once", flags), Err(FsError::AlreadyExists));
    }

    #[test]
    fn truncate_on_open_clears_data() {
        let mut f = fs();
        put(&mut f, "/t", 9_000).unwrap();
        put(&mut f, "/t", 3).unwrap(); // creat truncates
        let md = f.stat("/t").unwrap();
        assert_eq!((md.size, md.blocks), (3, 1));
        assert_eq!(f.block_stats().total_frees, 2);
    }

    #[test]
    fn directories_nest_and_list() {
        let mut f = fs();
        f.mkdir("/a").unwrap();
        f.mkdir("/a/b").unwrap();
        put(&mut f, "/a/b/f1", 1).unwrap();
        put(&mut f, "/a/b/f2", 1).unwrap();
        let names: Vec<String> = f
            .readdir("/a/b")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["f1", "f2"]);
        assert!(f.stat("/a/b").unwrap().is_dir());
        assert_eq!(f.stat("/a").unwrap().nlink, 3); // ., .., b
    }

    #[test]
    fn mkdir_all_builds_chains() {
        let mut f = fs();
        f.mkdir_all("/u/kao/projects").unwrap();
        assert!(f.exists("/u/kao/projects"));
        // Idempotent.
        f.mkdir_all("/u/kao/projects").unwrap();
        // File in the way.
        put(&mut f, "/u/file", 1).unwrap();
        assert!(f.mkdir_all("/u/file/sub").is_err());
    }

    #[test]
    fn mkdir_errors() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        assert_eq!(f.mkdir("/d"), Err(FsError::AlreadyExists));
        assert_eq!(f.mkdir("/missing/child"), Err(FsError::NotFound));
        assert_eq!(f.mkdir("/"), Err(FsError::InvalidArgument));
    }

    #[test]
    fn rmdir_semantics() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        put(&mut f, "/d/f", 1).unwrap();
        assert_eq!(f.rmdir("/d"), Err(FsError::DirectoryNotEmpty));
        f.unlink("/d/f").unwrap();
        f.rmdir("/d").unwrap();
        assert!(!f.exists("/d"));
        assert_eq!(f.rmdir("/"), Err(FsError::Busy));
        put(&mut f, "/f", 1).unwrap();
        assert_eq!(f.rmdir("/f"), Err(FsError::NotADirectory));
    }

    #[test]
    fn unlink_frees_space() {
        let mut f = small_fs();
        put(&mut f, "/a", 256).unwrap(); // 2 blocks
        let before = f.statfs().free_blocks;
        f.unlink("/a").unwrap();
        assert_eq!(f.statfs().free_blocks, before + 2);
        assert_eq!(f.unlink("/a"), Err(FsError::NotFound));
        f.mkdir("/d").unwrap();
        assert_eq!(f.unlink("/d"), Err(FsError::IsADirectory));
    }

    #[test]
    fn unlinked_open_file_remains_readable() {
        // The TEMP usage class: creat, write, unlink, keep reading.
        let mut f = fs();
        let mut p = f.new_process();
        let fd = f
            .open(&mut p, "/tmp1", OpenFlags::read_write_create())
            .unwrap();
        f.write(&mut p, fd, 7).unwrap();
        f.unlink("/tmp1").unwrap();
        assert!(!f.exists("/tmp1"));
        f.lseek(&mut p, fd, SeekFrom::Start(0)).unwrap();
        assert_eq!(f.read(&mut p, fd, 100), Ok(7), "the data is retained");
        let md = f.fstat(&p, fd).unwrap();
        assert_eq!((md.size, md.nlink, md.blocks), (7, 0, 1));
        f.close(&mut p, fd).unwrap();
        // Now the data is gone.
        assert_eq!(f.block_stats().allocated, 0);
        assert_eq!(f.block_indices(md.ino), [0u64; 0]);
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut f = fs();
        f.mkdir("/a").unwrap();
        f.mkdir("/b").unwrap();
        put(&mut f, "/a/f", 7).unwrap();
        let moved = f.stat("/a/f").unwrap();
        f.rename("/a/f", "/b/g").unwrap();
        assert!(!f.exists("/a/f"));
        assert_eq!(f.stat("/b/g").unwrap().ino, moved.ino);
        // Replace existing file, whose blocks are freed.
        put(&mut f, "/b/h", 3).unwrap();
        f.rename("/b/g", "/b/h").unwrap();
        assert_eq!(f.stat("/b/h").unwrap(), moved);
        assert_eq!(f.block_stats().allocated, 1);
        // Renaming onto a directory fails.
        put(&mut f, "/x", 1).unwrap();
        assert_eq!(f.rename("/x", "/a"), Err(FsError::IsADirectory));
    }

    #[test]
    fn rename_directory_updates_links() {
        let mut f = fs();
        f.mkdir("/a").unwrap();
        f.mkdir("/b").unwrap();
        f.mkdir("/a/sub").unwrap();
        let a_links = f.stat("/a").unwrap().nlink;
        f.rename("/a/sub", "/b/sub").unwrap();
        assert_eq!(f.stat("/a").unwrap().nlink, a_links - 1);
        assert!(f.exists("/b/sub"));
    }

    #[test]
    fn rename_into_own_subtree_rejected() {
        let mut f = fs();
        f.mkdir_all("/d/inner").unwrap();
        assert_eq!(f.rename("/d", "/d/inner/d2"), Err(FsError::InvalidArgument));
        assert_eq!(f.rename("/", "/d/root"), Err(FsError::Busy));
    }

    #[test]
    fn rename_to_same_path_is_noop() {
        let mut f = fs();
        put(&mut f, "/same", 1).unwrap();
        let before = f.stat("/same").unwrap();
        f.rename("/same", "/same").unwrap();
        assert_eq!(f.stat("/same"), Ok(before));
    }

    #[test]
    fn truncate_shrinks_and_grows() {
        let mut f = small_fs();
        put(&mut f, "/t", 300).unwrap();
        f.truncate("/t", 100).unwrap();
        let md = f.stat("/t").unwrap();
        assert_eq!((md.size, md.blocks), (100, 1));
        // Grow back: the new tail is a hole, not the freed blocks.
        f.truncate("/t", 300).unwrap();
        let md = f.stat("/t").unwrap();
        assert_eq!((md.size, md.blocks), (300, 1));
        assert_eq!(read_all(&mut f, "/t"), Ok(300));
        assert_eq!(f.block_stats().total_frees, 2);
    }

    #[test]
    fn no_space_behaviour() {
        let mut f = small_fs(); // 8 blocks of 128 B
        let mut p = f.new_process();
        let fd = f.creat(&mut p, "/fill").unwrap();
        f.lseek(&mut p, fd, SeekFrom::Start(100)).unwrap();
        // 8 * 128 = 1024 bytes fit; the rest doesn't.
        let n = f.write(&mut p, fd, 2048).unwrap();
        assert_eq!(n, 924, "short write at device full");
        assert_eq!(f.write(&mut p, fd, 10), Err(FsError::NoSpace));
        assert_eq!(f.lseek(&mut p, fd, SeekFrom::Current(0)), Ok(1024));
        f.close(&mut p, fd).unwrap();
        f.unlink("/fill").unwrap();
        assert_eq!(f.statfs().free_blocks, 8);
    }

    #[test]
    fn max_file_size_enforced() {
        let mut f = small_fs(); // max_file_size 4096
        let mut p = f.new_process();
        let fd = f.creat(&mut p, "/cap").unwrap();
        f.lseek(&mut p, fd, SeekFrom::Start(4090)).unwrap();
        assert_eq!(f.write(&mut p, fd, 100), Err(FsError::FileTooLarge));
        assert_eq!(f.truncate("/cap", 1 << 32), Err(FsError::FileTooLarge));
    }

    #[test]
    fn inode_exhaustion() {
        let mut f = small_fs(); // 16 inodes, 1 used by root
        for i in 0..15 {
            put(&mut f, &format!("/f{i}"), 0).unwrap();
        }
        assert_eq!(put(&mut f, "/one-too-many", 0), Err(FsError::NoSpace));
        f.unlink("/f0").unwrap();
        put(&mut f, "/now-fits", 0).unwrap();
    }

    #[test]
    fn fd_exhaustion() {
        let mut f = small_fs(); // 4 fds per process
        let mut p = f.new_process();
        // Each whole-file write closes the descriptor it opened.
        for i in 0..8 {
            f.write_file(&mut p, &format!("/f{}", i % 4), 1).unwrap();
        }
        let mut fds = Vec::new();
        for i in 0..4 {
            fds.push(
                f.open(&mut p, &format!("/f{i}"), OpenFlags::read_only())
                    .unwrap(),
            );
        }
        assert_eq!(
            f.open(&mut p, "/f0", OpenFlags::read_only()),
            Err(FsError::TooManyOpenFiles)
        );
        f.close(&mut p, fds[0]).unwrap();
        assert!(f.open(&mut p, "/f0", OpenFlags::read_only()).is_ok());
    }

    #[test]
    fn opening_directory_for_io_fails() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        let mut p = f.new_process();
        assert_eq!(
            f.open(&mut p, "/d", OpenFlags::read_only()),
            Err(FsError::IsADirectory)
        );
        assert_eq!(
            f.open(&mut p, "/d", OpenFlags::create_write()),
            Err(FsError::IsADirectory)
        );
    }

    #[test]
    fn path_traversal_through_file_fails() {
        let mut f = fs();
        put(&mut f, "/notdir", 1).unwrap();
        assert_eq!(f.stat("/notdir/child"), Err(FsError::NotADirectory));
        assert_eq!(f.resolve("/notdir/child"), Err(FsError::NotADirectory));
    }

    #[test]
    fn timestamps_track_clock() {
        let mut f = fs();
        f.set_clock(1_000);
        put(&mut f, "/ts", 2).unwrap();
        let created = f.stat("/ts").unwrap();
        assert_eq!(created.mtime, 1_000);
        f.set_clock(2_000);
        let mut p = f.new_process();
        let fd = f.open(&mut p, "/ts", OpenFlags::read_only()).unwrap();
        f.read(&mut p, fd, 2).unwrap();
        f.close(&mut p, fd).unwrap();
        let after_read = f.stat("/ts").unwrap();
        assert_eq!(after_read.atime, 2_000);
        assert_eq!(after_read.mtime, 1_000, "read must not touch mtime");
        assert_eq!(f.clock(), 2_000);
    }

    #[test]
    fn counters_track_operations() {
        let mut f = fs();
        let mut p = f.new_process();
        let fd = f.creat(&mut p, "/c").unwrap();
        f.write(&mut p, fd, 5).unwrap();
        f.lseek(&mut p, fd, SeekFrom::Start(0)).unwrap();
        f.close(&mut p, fd).unwrap();
        let fd = f.open(&mut p, "/c", OpenFlags::read_only()).unwrap();
        f.read(&mut p, fd, 9).unwrap();
        f.close(&mut p, fd).unwrap();
        f.stat("/c").unwrap();
        f.unlink("/c").unwrap();
        let c = f.counters();
        assert_eq!(c.opens, 2);
        assert_eq!(c.closes, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.reads, 1);
        assert_eq!(c.seeks, 1);
        assert_eq!(c.stats, 1);
        assert_eq!(c.unlinks, 1);
        assert_eq!(c.bytes_written, 5);
        assert_eq!(c.bytes_read, 5);
        assert_eq!(c.total_calls(), 9);
        f.reset_counters();
        assert_eq!(f.counters().total_calls(), 0);
    }

    #[test]
    fn dot_and_dotdot_resolution() {
        let mut f = fs();
        f.mkdir_all("/a/b").unwrap();
        put(&mut f, "/a/b/f", 1).unwrap();
        assert!(f.exists("/a/./b/../b/f"));
        assert!(f.exists("/../a/b/f"));
    }

    #[test]
    fn by_handle_calls_create_what_the_path_calls_would() {
        let mut by_path = fs();
        by_path.set_clock(5);
        by_path.mkdir("/d").unwrap();
        put(&mut by_path, "/d/f", 0).unwrap();
        by_path.truncate("/d/f", 300).unwrap();

        let mut by_handle = fs();
        by_handle.set_clock(5);
        let root = by_handle.root();
        let d = by_handle.mkdir_at(root, "d").unwrap();
        assert_eq!(by_handle.ensure_dir_at(root, "d"), Ok(d), "steps into it");
        let mut p = by_handle.new_process();
        let fd = by_handle
            .open_at(&mut p, d, "f", OpenFlags::create_write())
            .unwrap();
        by_handle.ftruncate(&p, fd, 300).unwrap();
        by_handle.close(&mut p, fd).unwrap();

        assert_eq!(by_handle.resolve("/d"), Ok(d));
        for path in ["/", "/d", "/d/f"] {
            assert_eq!(by_handle.stat(path), by_path.stat(path), "{path}");
        }
        assert_eq!(by_handle.statfs(), by_path.statfs());
        // Opening the same name again finds the file instead of creating it.
        let fd = by_handle
            .open_at(&mut p, d, "f", OpenFlags::read_only())
            .unwrap();
        assert_eq!(by_handle.fstat(&p, fd).unwrap().size, 300);
    }

    #[test]
    fn by_handle_calls_reject_bad_names() {
        let mut f = fs();
        let root = f.root();
        let mut p = f.new_process();
        let long = "x".repeat(256);
        for (name, err) in [
            ("", FsError::InvalidArgument),
            (".", FsError::InvalidArgument),
            ("..", FsError::InvalidArgument),
            ("a/b", FsError::InvalidArgument),
            (long.as_str(), FsError::NameTooLong),
        ] {
            assert_eq!(f.mkdir_at(root, name), Err(err), "{name:?}");
            assert_eq!(f.ensure_dir_at(root, name), Err(err), "{name:?}");
            assert_eq!(
                f.open_at(&mut p, root, name, OpenFlags::create_write()),
                Err(err),
                "{name:?}"
            );
        }
        assert_eq!(f.statfs().used_inodes, 1, "nothing was created");
    }

    #[test]
    fn by_handle_calls_reject_bad_parents_and_taken_names() {
        let mut f = fs();
        let root = f.root();
        let mut p = f.new_process();
        put(&mut f, "/file", 1).unwrap();
        let file = f.resolve("/file").unwrap();
        let gone = f.mkdir_at(root, "gone").unwrap();
        f.rmdir("/gone").unwrap();
        assert_eq!(f.readdir("/gone"), Err(FsError::NotFound));
        // A handle indexes the inode table: one from a larger file system
        // lies past the end of this one's.
        let mut larger = fs();
        larger.mkdir_all("/a/b/c/d/e/f").unwrap();
        let foreign = larger.resolve("/a/b/c/d/e/f").unwrap();
        for parent in [file, gone, foreign, Ino(1 << 40)] {
            assert_eq!(f.mkdir_at(parent, "d"), Err(FsError::NotADirectory));
            assert_eq!(f.ensure_dir_at(parent, "d"), Err(FsError::NotADirectory));
            assert_eq!(
                f.open_at(&mut p, parent, "f", OpenFlags::create_write()),
                Err(FsError::NotADirectory)
            );
        }
        // The freed slot comes back as a regular file: still no directory.
        put(&mut f, "/reuse", 1).unwrap();
        assert_eq!(f.resolve("/reuse"), Ok(gone), "the slot was reused");
        assert_eq!(f.ensure_dir_at(gone, "d"), Err(FsError::NotADirectory));
        assert_eq!(f.readdir("/reuse"), Err(FsError::NotADirectory));

        f.mkdir_at(root, "dir").unwrap();
        assert_eq!(f.mkdir_at(root, "dir"), Err(FsError::AlreadyExists));
        assert_eq!(f.mkdir_at(root, "file"), Err(FsError::AlreadyExists));
        assert_eq!(f.ensure_dir_at(root, "file"), Err(FsError::NotADirectory));
        let exclusive = OpenFlags::create_write().with_exclusive();
        assert_eq!(
            f.open_at(&mut p, root, "file", exclusive),
            Err(FsError::AlreadyExists)
        );
        assert_eq!(
            f.open_at(&mut p, root, "dir", OpenFlags::create_write()),
            Err(FsError::IsADirectory)
        );
        assert_eq!(
            f.open_at(&mut p, root, "missing", OpenFlags::read_only()),
            Err(FsError::NotFound)
        );
    }

    #[test]
    fn by_handle_calls_respect_the_limits() {
        let mut f = small_fs(); // 16 inodes, max_file_size 4096
        let root = f.root();
        let mut p = f.new_process();
        let fd = f
            .open_at(&mut p, root, "cap", OpenFlags::create_write())
            .unwrap();
        assert_eq!(f.ftruncate(&p, fd, 4097), Err(FsError::FileTooLarge));
        f.ftruncate(&p, fd, 4096).unwrap();
        f.close(&mut p, fd).unwrap();
        assert_eq!(f.ftruncate(&p, fd, 0), Err(FsError::BadFd));
        let fd = f
            .open_at(&mut p, root, "cap", OpenFlags::read_only())
            .unwrap();
        assert_eq!(f.ftruncate(&p, fd, 0), Err(FsError::BadAccessMode));

        for i in 0..14 {
            f.mkdir_at(root, &format!("d{i}")).unwrap();
        }
        assert_eq!(f.mkdir_at(root, "one-too-many"), Err(FsError::NoSpace));
        assert_eq!(f.ensure_dir_at(root, "one-too-many"), Err(FsError::NoSpace));
        assert_eq!(
            f.open_at(&mut p, root, "one-too-many", OpenFlags::create_write()),
            Err(FsError::NoSpace)
        );
        assert_eq!(f.ensure_dir_at(root, "d3"), f.resolve("/d3"));
    }

    #[test]
    fn two_processes_have_independent_cursors() {
        let mut f = fs();
        put(&mut f, "/shared", 6).unwrap();
        let mut p1 = f.new_process();
        let mut p2 = f.new_process();
        let fd1 = f.open(&mut p1, "/shared", OpenFlags::read_only()).unwrap();
        let fd2 = f.open(&mut p2, "/shared", OpenFlags::read_only()).unwrap();
        assert_eq!(f.read(&mut p1, fd1, 3), Ok(3));
        assert_eq!(f.read(&mut p2, fd2, 9), Ok(6));
        assert_eq!(f.read(&mut p1, fd1, 9), Ok(3));
        assert_eq!(f.lseek(&mut p1, fd1, SeekFrom::Current(0)), Ok(6));
    }
}
