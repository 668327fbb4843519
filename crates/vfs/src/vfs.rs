//! The file system proper: superblock, inode table, directory tree and the
//! system-call API.

use crate::block::{BlockStats, BlockStore};
use crate::fd::{Fd, OpenFile, OpenFlags, Process, SeekFrom};
use crate::inode::{Content, FileKind, Ino, Inode, Metadata};
use crate::path::{check_name, components, split_parent};
use crate::FsError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    /// `read` / `read_discard` calls.
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
    /// Bytes returned by `read` / `read_discard`.
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
    inodes: Vec<Option<Inode>>,
    free_inodes: Vec<usize>,
    store: BlockStore,
    counters: OpCounters,
    root: Ino,
}

impl Vfs {
    /// Creates an empty file system containing only the root directory.
    pub fn new(config: VfsConfig) -> Self {
        let mut fs = Self {
            config,
            clock: 0,
            inodes: Vec::new(),
            free_inodes: Vec::new(),
            store: BlockStore::new(config.block_size, config.max_blocks),
            counters: OpCounters::default(),
            root: Ino(0),
        };
        fs.root = fs
            .alloc_inode(FileKind::Directory, 0)
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
            used_inodes: self.used_inodes() as u64,
            total_inodes: self.config.max_inodes as u64,
        }
    }

    // ------------------------------------------------------------------
    // Inode plumbing
    // ------------------------------------------------------------------

    fn alloc_inode(&mut self, kind: FileKind, uid: u32) -> Result<Ino, FsError> {
        // Every `None` slot is on the free list exactly once, so the used
        // count is a subtraction — scanning the table here would make bulk
        // creation (the FSC populating millions of inodes) quadratic.
        let used = self.used_inodes();
        if used >= self.config.max_inodes {
            return Err(FsError::NoSpace);
        }
        let node = Some(Inode::new(kind, uid, self.clock));
        if let Some(slot) = self.free_inodes.pop() {
            self.inodes[slot] = node;
            return Ok(Ino(slot as u64));
        }
        self.inodes.push(node);
        Ok(Ino(self.inodes.len() as u64 - 1))
    }

    /// Live inode count in O(1): allocated slots minus the free list.
    fn used_inodes(&self) -> usize {
        self.inodes.len() - self.free_inodes.len()
    }

    fn inode(&self, ino: Ino) -> &Inode {
        self.inodes[ino.0 as usize]
            .as_ref()
            .expect("reference to freed inode")
    }

    fn inode_mut(&mut self, ino: Ino) -> &mut Inode {
        self.inodes[ino.0 as usize]
            .as_mut()
            .expect("reference to freed inode")
    }

    /// The entries of `ino` if it is a live directory of this file system:
    /// `None` for a regular file, a freed slot, or a number past the table
    /// (a handle kept across an `rmdir`, or taken from another `Vfs`).
    fn dir(&self, ino: Ino) -> Option<&BTreeMap<Box<str>, Ino>> {
        match &self.inodes.get(ino.0 as usize)?.as_ref()?.content {
            Content::Directory(entries) => Some(entries),
            Content::Regular(_) => None,
        }
    }

    /// The entries of `ino`, which the caller has checked with [`Self::dir`].
    fn dir_mut(&mut self, ino: Ino) -> &mut BTreeMap<Box<str>, Ino> {
        match &mut self.inode_mut(ino).content {
            Content::Directory(entries) => entries,
            Content::Regular(_) => unreachable!("checked to be a directory"),
        }
    }

    /// Frees an inode and its data blocks.
    fn free_inode(&mut self, ino: Ino) {
        let node = self.inodes[ino.0 as usize]
            .take()
            .expect("double free of inode");
        for block in node.blocks().iter().flatten() {
            self.store.free(*block);
        }
        self.free_inodes.push(ino.0 as usize);
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
        self.walk(components(path)?)
    }

    /// Steps from the root through each of `comps`.
    fn walk<'p>(&self, comps: impl IntoIterator<Item = &'p str>) -> Result<Ino, FsError> {
        comps.into_iter().try_fold(self.root, |cur, comp| {
            let dir = self.dir(cur).ok_or(FsError::NotADirectory)?;
            dir.get(comp).copied().ok_or(FsError::NotFound)
        })
    }

    /// Resolves the parent directory of `path`, returning `(dir_ino, name)`.
    fn resolve_parent<'p>(&self, path: &'p str) -> Result<(Ino, &'p str), FsError> {
        let (parent_comps, name) = split_parent(path)?;
        let parent = self.walk(parent_comps)?;
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
            .map(|(name, &child)| DirEntry {
                name: name.as_ref().into(),
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

    /// `read(2)`: reads up to `buf.len()` bytes at the descriptor's cursor.
    /// Returns the number of bytes read; 0 at end-of-file.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] / [`FsError::BadAccessMode`] for bad descriptors.
    pub fn read(&mut self, proc: &mut Process, fd: Fd, buf: &mut [u8]) -> Result<usize, FsError> {
        self.read_impl(proc, fd, buf.len(), Some(buf))
    }

    /// `read(2)` for a caller that will not look at the bytes: every check
    /// and every effect of [`Vfs::read`] with a `len`-byte buffer — return
    /// value, cursor, `atime`, counters — and nothing is copied.
    ///
    /// # Errors
    ///
    /// Same as [`Vfs::read`].
    pub fn read_discard(
        &mut self,
        proc: &mut Process,
        fd: Fd,
        len: usize,
    ) -> Result<usize, FsError> {
        self.read_impl(proc, fd, len, None)
    }

    /// The body of `read` and `read_discard`: the one place that decides how
    /// many bytes a read returns. `buf`, when given, is `len` bytes long.
    fn read_impl(
        &mut self,
        proc: &mut Process,
        fd: Fd,
        len: usize,
        buf: Option<&mut [u8]>,
    ) -> Result<usize, FsError> {
        self.counters.reads += 1;
        let open = proc.get_mut(fd).ok_or(FsError::BadFd)?;
        if !open.flags.read {
            return Err(FsError::BadAccessMode);
        }
        let (ino, offset) = (open.ino, open.offset);
        let left = self.inode(ino).size.saturating_sub(offset);
        let n = usize::try_from(left).map_or(len, |left| len.min(left));
        if let Some(buf) = buf {
            self.read_at(ino, offset, &mut buf[..n]);
        }
        open.offset += n as u64;
        let clock = self.clock;
        self.inode_mut(ino).atime = clock;
        self.counters.bytes_read += n as u64;
        Ok(n)
    }

    /// `write(2)`: writes `data` at the descriptor's cursor (or at EOF with
    /// append mode). Returns the number of bytes written, which may be short
    /// if the device fills mid-write.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] / [`FsError::BadAccessMode`] for bad descriptors,
    /// [`FsError::NoSpace`] when nothing could be written,
    /// [`FsError::FileTooLarge`] beyond the maximum file size.
    pub fn write(&mut self, proc: &mut Process, fd: Fd, data: &[u8]) -> Result<usize, FsError> {
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
        if offset.saturating_add(data.len() as u64) > self.config.max_file_size {
            return Err(FsError::FileTooLarge);
        }
        let n = self.write_at(ino, offset, data)?;
        let open = proc.get_mut(fd).expect("still open");
        open.offset = offset + n as u64;
        let clock = self.clock;
        let node = self.inode_mut(ino);
        node.mtime = clock;
        node.ctime = clock;
        self.counters.bytes_written += n as u64;
        Ok(n)
    }

    /// `lseek(2)`: repositions the cursor; returns the new offset.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] for unknown descriptors,
    /// [`FsError::InvalidArgument`] for seeks before the start of the file.
    pub fn lseek(&mut self, proc: &mut Process, fd: Fd, pos: SeekFrom) -> Result<u64, FsError> {
        self.counters.seeks += 1;
        let size = {
            let open = proc.get(fd).ok_or(FsError::BadFd)?;
            self.inode(open.ino).size
        };
        let open = proc.get_mut(fd).ok_or(FsError::BadFd)?;
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
        if let Some(&target) = new_entries.get(new_name) {
            if self.dir(target).is_some() {
                return Err(FsError::IsADirectory);
            }
            if target == ino {
                // Hard-link aliasing cannot happen (no link(2)); same-file
                // rename to a different parent entry: remove old name below.
            } else {
                self.dir_mut(new_parent).remove(new_name);
                self.drop_link(target);
            }
        }
        self.dir_mut(old_parent).remove(old_name);
        self.dir_mut(new_parent).insert(new_name.into(), ino);
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

    /// Reads a whole file by path (a convenience wrapper over
    /// open/read/close, used by tests and examples).
    ///
    /// # Errors
    ///
    /// Same as the underlying calls.
    pub fn read_file(&mut self, path: &str) -> Result<Vec<u8>, FsError> {
        let mut proc = self.new_process();
        let fd = self.open(&mut proc, path, OpenFlags::read_only())?;
        let size = self.fstat(&proc, fd)?.size as usize;
        let mut buf = vec![0u8; size];
        let mut done = 0;
        while done < size {
            let n = self.read(&mut proc, fd, &mut buf[done..])?;
            if n == 0 {
                break;
            }
            done += n;
        }
        self.close(&mut proc, fd)?;
        buf.truncate(done);
        Ok(buf)
    }

    /// Writes a whole file by path, creating or replacing it (a convenience
    /// wrapper over creat/write/close).
    ///
    /// # Errors
    ///
    /// Same as the underlying calls.
    pub fn write_file(&mut self, path: &str, data: &[u8]) -> Result<(), FsError> {
        let mut proc = self.new_process();
        let fd = self.creat(&mut proc, path)?;
        let mut done = 0;
        while done < data.len() {
            let n = self.write(&mut proc, fd, &data[done..])?;
            done += n;
        }
        self.close(&mut proc, fd)
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
            Some(&ino) if self.dir(ino).is_some() => Ok(ino),
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
            Some(&ino) => ino,
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

    /// The one creation body behind `mkdir`, `open(create)` and their
    /// by-handle forms: links a fresh inode of `kind` into `parent` as
    /// `name`.
    fn create_at(&mut self, parent: Ino, name: &str, kind: FileKind) -> Result<Ino, FsError> {
        check_name(name)?;
        let siblings = self.dir(parent).ok_or(FsError::NotADirectory)?;
        if siblings.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.alloc_inode(kind, 0)?;
        self.dir_mut(parent).insert(name.into(), ino);
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
            self.truncate_inode(ino, 0)?;
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
        self.truncate_inode(ino, len)?;
        let clock = self.clock;
        let node = self.inode_mut(ino);
        node.mtime = clock;
        node.ctime = clock;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data plumbing
    // ------------------------------------------------------------------

    /// Copies `buf.len()` bytes at `offset` out of the file; the caller
    /// (`read_impl`) has already clipped the range to the file's size.
    fn read_at(&self, ino: Ino, offset: u64, buf: &mut [u8]) {
        let node = self.inode(ino);
        let n = buf.len();
        let bs = self.config.block_size as u64;
        let mut done = 0usize;
        while done < n {
            let pos = offset + done as u64;
            let block_idx = (pos / bs) as usize;
            let in_block = (pos % bs) as usize;
            let chunk = (n - done).min(bs as usize - in_block);
            match node.blocks().get(block_idx).copied().flatten() {
                Some(id) => {
                    let data = self.store.data(id);
                    buf[done..done + chunk].copy_from_slice(&data[in_block..in_block + chunk]);
                }
                None => {
                    // Hole: zeros.
                    buf[done..done + chunk].fill(0);
                }
            }
            done += chunk;
        }
    }

    fn write_at(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        let bs = self.config.block_size as u64;
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let block_idx = (pos / bs) as usize;
            let in_block = (pos % bs) as usize;
            let chunk = (data.len() - done).min(bs as usize - in_block);
            // Ensure the block exists.
            if self.inode(ino).blocks().len() <= block_idx {
                self.inode_mut(ino).blocks_mut().resize(block_idx + 1, None);
            }
            if self.inode(ino).blocks()[block_idx].is_none() {
                match self.store.alloc() {
                    Ok(id) => self.inode_mut(ino).blocks_mut()[block_idx] = Some(id),
                    Err(e) => {
                        return if done > 0 {
                            self.bump_size(ino, offset + done as u64);
                            Ok(done)
                        } else {
                            Err(e)
                        };
                    }
                }
            }
            let id = self.inode(ino).blocks()[block_idx].expect("just ensured");
            let block = self.store.data_mut(id);
            block[in_block..in_block + chunk].copy_from_slice(&data[done..done + chunk]);
            done += chunk;
        }
        self.bump_size(ino, offset + done as u64);
        Ok(done)
    }

    fn bump_size(&mut self, ino: Ino, end: u64) {
        let node = self.inode_mut(ino);
        if end > node.size {
            node.size = end;
        }
    }

    fn truncate_inode(&mut self, ino: Ino, len: u64) -> Result<(), FsError> {
        let bs = self.config.block_size as u64;
        let keep_blocks = (len.div_ceil(bs)) as usize;
        let freed: Vec<_> = {
            let blocks = self.inode_mut(ino).blocks_mut();
            if blocks.len() > keep_blocks {
                blocks.drain(keep_blocks..).flatten().collect()
            } else {
                Vec::new()
            }
        };
        for id in freed {
            self.store.free(id);
        }
        // Zero the tail of the boundary block so re-extension reads zeros.
        let node_size = self.inode(ino).size;
        if len < node_size && !len.is_multiple_of(bs) {
            if let Some(Some(id)) = self.inode(ino).blocks().get(keep_blocks - 1).copied() {
                let from = (len % bs) as usize;
                self.store.data_mut(id)[from..].fill(0);
            }
        }
        self.inode_mut(ino).size = len;
        Ok(())
    }

    /// Whether `candidate` is `dir` itself or lives anywhere below it.
    fn is_same_or_descendant(&self, dir: Ino, candidate: Ino) -> bool {
        if dir == candidate {
            return true;
        }
        let Some(entries) = self.dir(dir) else {
            return false;
        };
        entries
            .values()
            .any(|&child| self.is_same_or_descendant(child, candidate))
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
        assert_eq!(f.write(&mut p, fd, b"hello world").unwrap(), 11);
        f.close(&mut p, fd).unwrap();
        assert_eq!(f.read_file("/a.txt").unwrap(), b"hello world");
        assert_eq!(f.stat("/a.txt").unwrap().size, 11);
    }

    #[test]
    fn multi_block_files() {
        let mut f = small_fs(); // 128-byte blocks
        let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        f.write_file("/big", &data).unwrap();
        assert_eq!(f.read_file("/big").unwrap(), data);
        assert_eq!(f.stat("/big").unwrap().blocks, 5); // ceil(600/128)
    }

    #[test]
    fn sequential_reads_advance_cursor() {
        let mut f = fs();
        f.write_file("/seq", b"abcdefghij").unwrap();
        let mut p = f.new_process();
        let fd = f.open(&mut p, "/seq", OpenFlags::read_only()).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(f.read(&mut p, fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"abcd");
        assert_eq!(f.read(&mut p, fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"efgh");
        assert_eq!(f.read(&mut p, fd, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ij");
        assert_eq!(f.read(&mut p, fd, &mut buf).unwrap(), 0, "EOF");
        f.close(&mut p, fd).unwrap();
    }

    #[test]
    fn lseek_moves_cursor_and_creates_holes() {
        let mut f = fs();
        let mut p = f.new_process();
        let fd = f.creat(&mut p, "/holey").unwrap();
        f.write(&mut p, fd, b"head").unwrap();
        f.lseek(&mut p, fd, SeekFrom::Start(100_000)).unwrap();
        f.write(&mut p, fd, b"tail").unwrap();
        f.close(&mut p, fd).unwrap();
        let data = f.read_file("/holey").unwrap();
        assert_eq!(data.len(), 100_004);
        assert_eq!(&data[..4], b"head");
        assert!(data[4..100_000].iter().all(|&b| b == 0));
        assert_eq!(&data[100_000..], b"tail");
        // Only the two touched blocks are allocated; the hole costs nothing.
        let md = f.stat("/holey").unwrap();
        assert_eq!(md.blocks, 2);
        assert!(md.blocks < md.size / u64::from(md.block_size) + 1);
    }

    #[test]
    fn lseek_variants() {
        let mut f = fs();
        f.write_file("/s", b"0123456789").unwrap();
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
        f.write_file("/log", b"one\n").unwrap();
        let mut p = f.new_process();
        let fd = f.open(&mut p, "/log", OpenFlags::append_only()).unwrap();
        f.write(&mut p, fd, b"two\n").unwrap();
        f.close(&mut p, fd).unwrap();
        assert_eq!(f.read_file("/log").unwrap(), b"one\ntwo\n");
    }

    #[test]
    fn open_flags_validated() {
        let mut f = fs();
        let mut p = f.new_process();
        let none = OpenFlags {
            read: false,
            write: false,
            create: false,
            truncate: false,
            append: false,
            exclusive: false,
        };
        assert_eq!(f.open(&mut p, "/x", none), Err(FsError::InvalidArgument));
        assert_eq!(
            f.open(&mut p, "/missing", OpenFlags::read_only()),
            Err(FsError::NotFound)
        );
        f.write_file("/x", b"..").unwrap();
        let fd = f.open(&mut p, "/x", OpenFlags::read_only()).unwrap();
        assert_eq!(f.write(&mut p, fd, b"no"), Err(FsError::BadAccessMode));
        let mut buf = [0u8; 1];
        let wfd = f.open(&mut p, "/x", OpenFlags::create_write()).unwrap();
        assert_eq!(f.read(&mut p, wfd, &mut buf), Err(FsError::BadAccessMode));
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
        f.write_file("/t", b"old contents").unwrap();
        f.write_file("/t", b"new").unwrap(); // creat truncates
        assert_eq!(f.read_file("/t").unwrap(), b"new");
    }

    #[test]
    fn directories_nest_and_list() {
        let mut f = fs();
        f.mkdir("/a").unwrap();
        f.mkdir("/a/b").unwrap();
        f.write_file("/a/b/f1", b"1").unwrap();
        f.write_file("/a/b/f2", b"2").unwrap();
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
        f.write_file("/u/file", b"x").unwrap();
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
        f.write_file("/d/f", b"x").unwrap();
        assert_eq!(f.rmdir("/d"), Err(FsError::DirectoryNotEmpty));
        f.unlink("/d/f").unwrap();
        f.rmdir("/d").unwrap();
        assert!(!f.exists("/d"));
        assert_eq!(f.rmdir("/"), Err(FsError::Busy));
        f.write_file("/f", b"x").unwrap();
        assert_eq!(f.rmdir("/f"), Err(FsError::NotADirectory));
    }

    #[test]
    fn unlink_frees_space() {
        let mut f = small_fs();
        f.write_file("/a", &[1u8; 256]).unwrap(); // 2 blocks
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
        let fd = f.creat(&mut p, "/tmp1").unwrap();
        f.write(&mut p, fd, b"scratch").unwrap();
        f.unlink("/tmp1").unwrap();
        assert!(!f.exists("/tmp1"));
        f.lseek(&mut p, fd, SeekFrom::Start(0)).unwrap();
        // fd was write-only (creat); fstat still works and data is retained.
        assert_eq!(f.fstat(&p, fd).unwrap().size, 7);
        let allocated_before = f.block_stats().allocated;
        assert!(allocated_before > 0);
        f.close(&mut p, fd).unwrap();
        // Now the data is gone.
        assert_eq!(f.block_stats().allocated, 0);
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut f = fs();
        f.mkdir("/a").unwrap();
        f.mkdir("/b").unwrap();
        f.write_file("/a/f", b"payload").unwrap();
        f.rename("/a/f", "/b/g").unwrap();
        assert!(!f.exists("/a/f"));
        assert_eq!(f.read_file("/b/g").unwrap(), b"payload");
        // Replace existing file.
        f.write_file("/b/h", b"old").unwrap();
        f.rename("/b/g", "/b/h").unwrap();
        assert_eq!(f.read_file("/b/h").unwrap(), b"payload");
        // Renaming onto a directory fails.
        f.write_file("/x", b"x").unwrap();
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
        f.write_file("/same", b"x").unwrap();
        f.rename("/same", "/same").unwrap();
        assert_eq!(f.read_file("/same").unwrap(), b"x");
    }

    #[test]
    fn truncate_shrinks_and_grows() {
        let mut f = small_fs();
        f.write_file("/t", &[7u8; 300]).unwrap();
        f.truncate("/t", 100).unwrap();
        assert_eq!(f.stat("/t").unwrap().size, 100);
        let data = f.read_file("/t").unwrap();
        assert!(data.iter().all(|&b| b == 7));
        // Grow back: the new tail must be zeros, not stale data.
        f.truncate("/t", 300).unwrap();
        let data = f.read_file("/t").unwrap();
        assert_eq!(data.len(), 300);
        assert!(data[..100].iter().all(|&b| b == 7));
        assert!(data[100..].iter().all(|&b| b == 0), "stale data leaked");
    }

    #[test]
    fn no_space_behaviour() {
        let mut f = small_fs(); // 8 blocks of 128 B
        let mut p = f.new_process();
        let fd = f.creat(&mut p, "/fill").unwrap();
        // 8 * 128 = 1024 bytes fit; the rest doesn't.
        let n = f.write(&mut p, fd, &[1u8; 2048]).unwrap();
        assert_eq!(n, 1024, "short write at device full");
        assert_eq!(f.write(&mut p, fd, &[1u8; 10]), Err(FsError::NoSpace));
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
        assert_eq!(f.write(&mut p, fd, &[0u8; 100]), Err(FsError::FileTooLarge));
        assert_eq!(f.truncate("/cap", 1 << 32), Err(FsError::FileTooLarge));
    }

    #[test]
    fn inode_exhaustion() {
        let mut f = small_fs(); // 16 inodes, 1 used by root
        for i in 0..15 {
            f.write_file(&format!("/f{i}"), b"").unwrap();
        }
        assert_eq!(f.write_file("/one-too-many", b""), Err(FsError::NoSpace));
        f.unlink("/f0").unwrap();
        f.write_file("/now-fits", b"").unwrap();
    }

    #[test]
    fn fd_exhaustion() {
        let mut f = small_fs(); // 4 fds per process
        let mut p = f.new_process();
        for i in 0..4 {
            f.write_file(&format!("/f{i}"), b"x").unwrap();
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
        f.write_file("/notdir", b"x").unwrap();
        assert_eq!(f.stat("/notdir/child"), Err(FsError::NotADirectory));
        assert_eq!(f.resolve("/notdir/child"), Err(FsError::NotADirectory));
    }

    #[test]
    fn timestamps_track_clock() {
        let mut f = fs();
        f.set_clock(1_000);
        f.write_file("/ts", b"v1").unwrap();
        let created = f.stat("/ts").unwrap();
        assert_eq!(created.mtime, 1_000);
        f.set_clock(2_000);
        let mut p = f.new_process();
        let fd = f.open(&mut p, "/ts", OpenFlags::read_only()).unwrap();
        let mut b = [0u8; 2];
        f.read(&mut p, fd, &mut b).unwrap();
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
        f.write(&mut p, fd, b"12345").unwrap();
        f.lseek(&mut p, fd, SeekFrom::Start(0)).unwrap();
        f.close(&mut p, fd).unwrap();
        let fd = f.open(&mut p, "/c", OpenFlags::read_only()).unwrap();
        let mut buf = [0u8; 5];
        f.read(&mut p, fd, &mut buf).unwrap();
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
        f.write_file("/a/b/f", b"x").unwrap();
        assert!(f.exists("/a/./b/../b/f"));
        assert!(f.exists("/../a/b/f"));
    }

    #[test]
    fn by_handle_calls_create_what_the_path_calls_would() {
        let mut by_path = fs();
        by_path.set_clock(5);
        by_path.mkdir("/d").unwrap();
        by_path.write_file("/d/f", b"").unwrap();
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
        f.write_file("/file", b"x").unwrap();
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
        f.write_file("/reuse", b"x").unwrap();
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
        f.write_file("/shared", b"abcdef").unwrap();
        let mut p1 = f.new_process();
        let mut p2 = f.new_process();
        let fd1 = f.open(&mut p1, "/shared", OpenFlags::read_only()).unwrap();
        let fd2 = f.open(&mut p2, "/shared", OpenFlags::read_only()).unwrap();
        let mut b1 = [0u8; 3];
        let mut b2 = [0u8; 6];
        f.read(&mut p1, fd1, &mut b1).unwrap();
        f.read(&mut p2, fd2, &mut b2).unwrap();
        assert_eq!(&b1, b"abc");
        assert_eq!(&b2, b"abcdef");
    }
}
