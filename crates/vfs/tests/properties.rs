//! Property-based tests: the file system is exercised with random operation
//! sequences and checked against simple models — a map from path to size
//! and held blocks, an arithmetic model of every call on a small device —
//! plus standalone invariants like space accounting.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use uswg_vfs::{
    BlockStats, Fd, FileKind, FsError, Ino, Metadata, OpCounters, OpenFlags, Process, SeekFrom,
    Vfs, VfsConfig,
};

/// Random workload operations applied both to the Vfs and to the model.
#[derive(Debug, Clone)]
enum Op {
    WriteFile { name: u8, len: u16 },
    AppendFile { name: u8, len: u16 },
    ReadFile { name: u8 },
    Unlink { name: u8 },
    Truncate { name: u8, len: u16 },
    Stat { name: u8 },
    Rename { from: u8, to: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12, 0u16..20_000).prop_map(|(name, len)| Op::WriteFile { name, len }),
        (0u8..12, 0u16..10_000).prop_map(|(name, len)| Op::AppendFile { name, len }),
        (0u8..12).prop_map(|name| Op::ReadFile { name }),
        (0u8..12).prop_map(|name| Op::Unlink { name }),
        (0u8..12, any::<u16>()).prop_map(|(name, len)| Op::Truncate { name, len }),
        (0u8..12).prop_map(|name| Op::Stat { name }),
        (0u8..12, 0u8..12).prop_map(|(from, to)| Op::Rename { from, to }),
    ]
}

fn path(name: u8) -> String {
    format!("/w/f{name}")
}

/// Distinct names a directory script draws from: more than a directory
/// holds before it is promoted from a vector to a B-tree.
const POOL: usize = 64;

/// `POOL` entry names of 1 to 40 bytes, ASCII and two-, three- and
/// four-byte characters, on both sides of the 22 bytes an entry holds in
/// place. A name's first letter and its length tell it apart.
fn names() -> Vec<String> {
    const CHARS: [&str; 4] = ["a", "é", "日", "🦀"];
    (0..POOL)
        .map(|i| {
            let bytes = 1 + i * 13 % 40;
            let mut name = char::from(b'a' + (i % 26) as u8).to_string();
            for c in CHARS.iter().cycle().skip(i) {
                if name.len() == bytes {
                    break;
                }
                name.push_str(if name.len() + c.len() <= bytes {
                    c
                } else {
                    "a"
                });
            }
            name
        })
        .collect()
}

/// One step of a directory script, on one name of `/d`.
#[derive(Debug, Clone, Copy)]
enum DirOp {
    Create,
    Mkdir,
    Unlink,
    Rmdir,
    /// A new file in `/o` renamed onto the name.
    RenameIn,
    /// The entry renamed to `/o`, then removed there.
    RenameOut,
    /// The entry renamed to another name of the pool.
    RenameWithin(usize),
    Lookup,
}

/// What step `what` does: a growing script mostly adds entries, a
/// shrinking one mostly removes them.
fn dir_op(what: u8, shrinking: bool, other: usize) -> DirOp {
    use DirOp::*;
    const GROW: [DirOp; 8] = [
        Create, Create, Create, Create, Mkdir, Mkdir, RenameIn, Unlink,
    ];
    const SHRINK: [DirOp; 8] = [
        Unlink, Unlink, Rmdir, Rmdir, RenameOut, RenameOut, RenameOut, Create,
    ];
    match what {
        0..=7 if shrinking => SHRINK[usize::from(what)],
        0..=7 => GROW[usize::from(what)],
        8 => RenameWithin(other),
        9 if shrinking => RenameOut,
        _ => Lookup,
    }
}

/// The small device the arithmetic model runs on: 64-byte blocks, 24 of
/// them, 8 inodes (the root's among them), 8 descriptors and 1,000-byte
/// files, so writes come up short at `NoSpace`, fail at `FileTooLarge`, and
/// creates run out of inodes.
const SMALL: VfsConfig = VfsConfig {
    block_size: 64,
    max_blocks: 24,
    max_inodes: 8,
    max_fds_per_process: 8,
    max_file_size: 1_000,
};

/// One regular file of the model; `times` are access, modification and
/// change time.
#[derive(Debug, Clone, Default)]
struct File {
    size: u64,
    blocks: BTreeSet<u64>,
    nlink: u32,
    open: u32,
    times: [u64; 3],
}

/// One open descriptor of the model: its file, cursor and flags.
type Desc = (u64, u64, OpenFlags);

/// What `fstat` says of a regular file on the small device: inode number,
/// size, links, blocks and times.
type Stat = (u64, u64, u32, u64, [u64; 3]);

fn stat_of(md: Metadata) -> Stat {
    assert_eq!((md.kind, md.block_size), (FileKind::Regular, 64));
    let times = [md.atime, md.mtime, md.ctime];
    (md.ino.number(), md.size, md.nlink, md.blocks, times)
}

/// The file system as arithmetic: sizes, block-index sets, link and open
/// counts, a descriptor table, the counters. Every call's result comes from
/// the numbers alone, written the way the system-call manual reads.
#[derive(Debug, Default)]
struct Model {
    files: BTreeMap<u64, File>,
    names: BTreeMap<String, u64>,
    fds: Vec<Option<Desc>>,
    /// Freed inode numbers, the last freed taken first.
    freed: Vec<u64>,
    clock: u64,
    counters: OpCounters,
    blocks: BlockStats,
}

impl Model {
    fn desc(&self, fd: u32) -> Result<Desc, FsError> {
        let desc = self.fds.get(fd as usize).copied().flatten();
        desc.ok_or(FsError::BadFd)
    }

    fn file(&mut self, ino: u64) -> &mut File {
        self.files.get_mut(&ino).expect("live file")
    }

    /// Drops the blocks of `ino` at and past index `keep`.
    fn cut(&mut self, ino: u64, keep: u64) {
        let freed = self.file(ino).blocks.split_off(&keep).len() as u64;
        self.blocks.allocated -= freed;
        self.blocks.total_frees += freed;
    }

    /// Frees `ino` once no name and no descriptor holds it.
    fn settle(&mut self, ino: u64) {
        if (self.files[&ino].nlink, self.files[&ino].open) == (0, 0) {
            self.cut(ino, 0);
            self.files.remove(&ino);
            self.freed.push(ino);
        }
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<u32, FsError> {
        self.counters.opens += 1;
        let ino = match self.names.get(path) {
            Some(&ino) => ino,
            None if !flags.create => return Err(FsError::NotFound),
            None if 1 + self.files.len() >= SMALL.max_inodes => return Err(FsError::NoSpace),
            None => {
                // Every number handed out is live or freed, the root's too.
                let ino = self.freed.pop().unwrap_or(1 + self.files.len() as u64);
                let file = File {
                    nlink: 1,
                    times: [self.clock; 3],
                    ..File::default()
                };
                self.files.insert(ino, file);
                self.names.insert(path.to_string(), ino);
                ino
            }
        };
        if flags.truncate {
            self.cut(ino, 0);
            self.file(ino).size = 0;
        }
        let slot = self.fds.iter().position(Option::is_none);
        let slot = slot.unwrap_or(self.fds.len());
        if slot == SMALL.max_fds_per_process {
            return Err(FsError::TooManyOpenFiles);
        }
        self.fds.resize(self.fds.len().max(slot + 1), None);
        self.fds[slot] = Some((ino, 0, flags));
        let clock = self.clock;
        let file = self.file(ino);
        file.open += 1;
        file.times[0] = clock;
        Ok(slot as u32)
    }

    /// A write of `len` bytes takes the blocks its range lacks in order,
    /// as many as are free; it ends where the first block that did not fit
    /// begins, and fails if that is where it starts.
    fn write(&mut self, fd: u32, len: u64) -> Result<u64, FsError> {
        self.counters.writes += 1;
        let (ino, cursor, flags) = self.desc(fd)?;
        if !flags.write {
            return Err(FsError::BadAccessMode);
        }
        let bs = SMALL.block_size as u64;
        let offset = if flags.append {
            self.files[&ino].size
        } else {
            cursor
        };
        if offset + len > SMALL.max_file_size {
            return Err(FsError::FileTooLarge);
        }
        let range = offset / bs..(offset + len).div_ceil(bs);
        let held = &self.files[&ino].blocks;
        let lacking: Vec<u64> = range.filter(|b| len > 0 && !held.contains(b)).collect();
        let free = (SMALL.max_blocks as u64 - self.blocks.allocated) as usize;
        let n = match lacking.get(free) {
            None => len,
            Some(&stop) if stop * bs <= offset => return Err(FsError::NoSpace),
            Some(&stop) => stop * bs - offset,
        };
        let taken = &lacking[..free.min(lacking.len())];
        self.blocks.allocated += taken.len() as u64;
        self.blocks.total_allocations += taken.len() as u64;
        let clock = self.clock;
        let file = self.file(ino);
        file.blocks.extend(taken);
        file.size = file.size.max(offset + n);
        file.times[1..].fill(clock);
        self.fds[fd as usize] = Some((ino, offset + n, flags));
        self.counters.bytes_written += n;
        Ok(n)
    }

    fn read(&mut self, fd: u32, len: u64) -> Result<u64, FsError> {
        self.counters.reads += 1;
        let (ino, cursor, flags) = self.desc(fd)?;
        if !flags.read {
            return Err(FsError::BadAccessMode);
        }
        let clock = self.clock;
        let file = self.file(ino);
        file.times[0] = clock;
        let n = len.min(file.size.saturating_sub(cursor));
        self.fds[fd as usize] = Some((ino, cursor + n, flags));
        self.counters.bytes_read += n;
        Ok(n)
    }

    fn seek(&mut self, fd: u32, to: u64) -> Result<u64, FsError> {
        self.counters.seeks += 1;
        let (ino, _, flags) = self.desc(fd)?;
        self.fds[fd as usize] = Some((ino, to, flags));
        Ok(to)
    }

    fn truncate(&mut self, path: &str, len: u64) -> Result<(), FsError> {
        self.counters.truncates += 1;
        let ino = *self.names.get(path).ok_or(FsError::NotFound)?;
        if len > SMALL.max_file_size {
            return Err(FsError::FileTooLarge);
        }
        self.cut(ino, len.div_ceil(SMALL.block_size as u64));
        let clock = self.clock;
        let file = self.file(ino);
        file.size = len;
        file.times[1..].fill(clock);
        Ok(())
    }

    fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        self.counters.unlinks += 1;
        let ino = self.names.remove(path).ok_or(FsError::NotFound)?;
        let clock = self.clock;
        let file = self.file(ino);
        file.nlink -= 1;
        file.times[2] = clock;
        self.settle(ino);
        Ok(())
    }

    fn close(&mut self, fd: u32) -> Result<(), FsError> {
        self.counters.closes += 1;
        let (ino, _, _) = self.desc(fd)?;
        self.fds[fd as usize] = None;
        self.file(ino).open -= 1;
        self.settle(ino);
        Ok(())
    }

    fn fstat(&mut self, fd: u32) -> Result<Stat, FsError> {
        self.counters.stats += 1;
        let (ino, _, _) = self.desc(fd)?;
        let File {
            size,
            ref blocks,
            nlink,
            times,
            ..
        } = self.files[&ino];
        Ok((ino, size, nlink, blocks.len() as u64, times))
    }
}

/// Flags of an open step: read-write creating, appending, truncating
/// write-only, or read-only.
fn open_flags(what: u8) -> OpenFlags {
    match what {
        0 => OpenFlags::read_write_create(),
        1 => OpenFlags {
            append: true,
            ..OpenFlags::read_write_create()
        },
        2 => OpenFlags::create_write(),
        _ => OpenFlags::read_only(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Vfs agrees with a map from path to size and held block indices
    /// under random whole-file operations: a write holds the blocks under
    /// its range, a truncation drops those past the new size, and a read
    /// returns the size.
    #[test]
    fn vfs_matches_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut fs = Vfs::new(VfsConfig::default());
        let bs = fs.config().block_size as u64;
        fs.mkdir("/w").unwrap();
        let mut proc = fs.new_process();
        let mut model: HashMap<String, (u64, BTreeSet<u64>)> = HashMap::new();
        let under = |from: u64, to: u64| from / bs..to.div_ceil(bs).max(from / bs);

        for op in ops {
            match op {
                Op::WriteFile { name, len } => {
                    fs.write_file(&mut proc, &path(name), len.into()).unwrap();
                    let len = u64::from(len);
                    model.insert(path(name), (len, under(0, len).collect()));
                }
                Op::AppendFile { name, len } => {
                    let p = path(name);
                    let opened = fs.open(&mut proc, &p, OpenFlags::append_only());
                    if let Some((size, blocks)) = model.get_mut(&p) {
                        let fd = opened.unwrap();
                        fs.lseek(&mut proc, fd, SeekFrom::Start(0)).unwrap();
                        prop_assert_eq!(fs.write(&mut proc, fd, len.into()), Ok(len.into()));
                        fs.close(&mut proc, fd).unwrap();
                        if len > 0 {
                            blocks.extend(under(*size, *size + u64::from(len)));
                        }
                        *size += u64::from(len);
                    } else {
                        prop_assert_eq!(opened, Err(FsError::NotFound));
                    }
                }
                Op::ReadFile { name } => {
                    let p = path(name);
                    let read = fs.open(&mut proc, &p, OpenFlags::read_only()).and_then(|fd| {
                        let n = fs.read(&mut proc, fd, usize::MAX);
                        fs.close(&mut proc, fd).unwrap();
                        n
                    });
                    match model.get(&p) {
                        Some(&(size, _)) => prop_assert_eq!(read, Ok(size as usize)),
                        None => prop_assert_eq!(read, Err(FsError::NotFound)),
                    }
                }
                Op::Unlink { name } => {
                    let p = path(name);
                    if model.remove(&p).is_some() {
                        fs.unlink(&p).unwrap();
                    } else {
                        prop_assert_eq!(fs.unlink(&p), Err(FsError::NotFound));
                    }
                }
                Op::Truncate { name, len } => {
                    let p = path(name);
                    if let Some((size, blocks)) = model.get_mut(&p) {
                        fs.truncate(&p, len.into()).unwrap();
                        *size = len.into();
                        blocks.retain(|&b| b < size.div_ceil(bs));
                    } else {
                        prop_assert!(fs.truncate(&p, len.into()).is_err());
                    }
                }
                Op::Stat { name } => {
                    let p = path(name);
                    match model.get(&p) {
                        Some((size, blocks)) => {
                            let md = fs.stat(&p).unwrap();
                            prop_assert_eq!((md.size, md.blocks), (*size, blocks.len() as u64));
                            prop_assert!(md.is_file());
                        }
                        None => prop_assert!(fs.stat(&p).is_err()),
                    }
                }
                Op::Rename { from, to } => {
                    let (pf, pt) = (path(from), path(to));
                    if model.contains_key(&pf) {
                        fs.rename(&pf, &pt).unwrap();
                        let v = model.remove(&pf).unwrap();
                        model.insert(pt, v);
                    } else {
                        prop_assert!(fs.rename(&pf, &pt).is_err());
                    }
                }
            }
        }

        // Final sweep: every model file matches in size and blocks; the
        // directory lists exactly the model's keys; no block is held but
        // theirs.
        let mut listed: Vec<String> = fs.readdir("/w").unwrap().into_iter().map(|e| format!("/w/{}", e.name)).collect();
        listed.sort();
        let mut expected: Vec<String> = model.keys().cloned().collect();
        expected.sort();
        prop_assert_eq!(listed, expected);
        for (p, (size, blocks)) in &model {
            let md = fs.stat(p).unwrap();
            prop_assert_eq!(md.size, *size);
            let held: Vec<u64> = blocks.iter().copied().collect();
            prop_assert_eq!(fs.block_indices(md.ino), &held[..]);
        }
        let held: usize = model.values().map(|(_, blocks)| blocks.len()).sum();
        prop_assert_eq!(fs.block_stats().allocated, held as u64);
    }

    /// One directory under a random script of creates, mkdirs, unlinks,
    /// rmdirs, renames in, out and within, and lookups, checked against a
    /// map from name to inode after every step: what each call returns,
    /// `readdir` in name order with every inode and kind, the directory's
    /// size and links, and the live inode count. A script grows the
    /// directory past the vector-to-B-tree promotion, then shrinks it.
    #[test]
    fn a_directory_matches_a_name_map(
        grow in prop::collection::vec((0u8..11, 0..POOL, 0..POOL), 80..200),
        shrink in prop::collection::vec((0u8..11, 0..POOL, 0..POOL), 80..240),
    ) {
        let names = names();
        let mut fs = Vfs::new(VfsConfig::default());
        fs.mkdir("/d").unwrap();
        fs.mkdir("/o").unwrap();
        let mut proc = fs.new_process();
        let (mut model, mut dirs) = (BTreeMap::<String, _>::new(), BTreeSet::new());
        let steps = grow.iter().map(|s| (s, false)).chain(shrink.iter().map(|s| (s, true)));
        for (&(what, name, other), shrinking) in steps {
            let (name, path) = (&names[name], format!("/d/{}", names[name]));
            let op = dir_op(what, shrinking, other);
            let (present, is_dir) = (model.contains_key(name), dirs.contains(name));
            let expected = match op {
                _ if !present && !matches!(op, DirOp::Create | DirOp::Mkdir | DirOp::RenameIn) => {
                    Err(FsError::NotFound)
                }
                DirOp::Create | DirOp::Mkdir if present => Err(FsError::AlreadyExists),
                DirOp::Unlink | DirOp::RenameIn if is_dir => Err(FsError::IsADirectory),
                DirOp::Rmdir if !is_dir => Err(FsError::NotADirectory),
                DirOp::RenameWithin(to) if dirs.contains(&names[to]) && names[to] != *name => {
                    Err(FsError::IsADirectory)
                }
                _ => Ok(()),
            };
            let result = match op {
                DirOp::Create => {
                    let created = fs.open(&mut proc, &path, OpenFlags::create_write().with_exclusive());
                    created.map(|fd| fs.close(&mut proc, fd).unwrap())
                }
                DirOp::Mkdir => fs.mkdir(&path),
                DirOp::Unlink => fs.unlink(&path),
                DirOp::Rmdir => fs.rmdir(&path),
                DirOp::RenameIn => {
                    fs.write_file(&mut proc, "/o/in", 1).unwrap();
                    let ino = fs.resolve("/o/in").unwrap();
                    let renamed = fs.rename("/o/in", &path);
                    match renamed {
                        Ok(()) => drop((model.insert(name.clone(), ino), dirs.remove(name))),
                        Err(_) => fs.unlink("/o/in").unwrap(),
                    }
                    renamed
                }
                DirOp::RenameOut => {
                    let out = format!("/o/{name}");
                    let renamed = fs.rename(&path, &out);
                    if renamed.is_ok() {
                        if is_dir { fs.rmdir(&out) } else { fs.unlink(&out) }.unwrap();
                    }
                    renamed
                }
                DirOp::RenameWithin(to) => {
                    let renamed = fs.rename(&path, &format!("/d/{}", names[to]));
                    if renamed.is_ok() && names[to] != *name {
                        let ino = model.remove(name).unwrap();
                        model.insert(names[to].clone(), ino);
                        if dirs.remove(name) {
                            dirs.insert(names[to].clone());
                        }
                    }
                    renamed
                }
                DirOp::Lookup => fs.resolve(&path).map(|ino| {
                    assert_eq!(model.get(name), Some(&ino), "{name}");
                }),
            };
            prop_assert_eq!(result, expected, "{:?} {}", op, name);
            if result.is_ok() {
                match op {
                    DirOp::Create | DirOp::Mkdir => {
                        model.insert(name.clone(), fs.resolve(&path).unwrap());
                        if matches!(op, DirOp::Mkdir) {
                            dirs.insert(name.clone());
                        }
                    }
                    DirOp::Unlink | DirOp::Rmdir | DirOp::RenameOut => {
                        model.remove(name);
                        dirs.remove(name);
                    }
                    _ => {}
                }
            }

            let listed: Vec<_> = fs.readdir("/d").unwrap().into_iter()
                .map(|e| (e.name, e.ino, e.kind == FileKind::Directory))
                .collect();
            let expected: Vec<_> = model.iter()
                .map(|(name, &ino)| (name.clone(), ino, dirs.contains(name)))
                .collect();
            prop_assert_eq!(listed, expected);
            let md = fs.stat("/d").unwrap();
            prop_assert_eq!((md.size, md.nlink as usize), (model.len() as u64, 2 + dirs.len()));
            prop_assert_eq!(fs.statfs().used_inodes, 3 + model.len() as u64);
        }
    }

    /// Blocks never leak: after unlinking everything, allocation returns to
    /// zero regardless of the operation sequence.
    #[test]
    fn space_is_reclaimed(sizes in prop::collection::vec(0usize..100_000, 1..20)) {
        let mut fs = Vfs::new(VfsConfig::default());
        let mut proc = fs.new_process();
        for (i, size) in sizes.iter().enumerate() {
            fs.write_file(&mut proc, &format!("/f{i}"), *size).unwrap();
        }
        prop_assert!(fs.block_stats().allocated > 0 || sizes.iter().all(|&s| s == 0));
        for i in 0..sizes.len() {
            fs.unlink(&format!("/f{i}")).unwrap();
        }
        prop_assert_eq!(fs.block_stats().allocated, 0);
        let st = fs.statfs();
        prop_assert_eq!(st.free_blocks, st.total_blocks);
    }

    /// Every call against the arithmetic model, on the small device: a
    /// random script of opens (creating, appending, truncating, read-only),
    /// writes, reads, seeks (past EOF too), truncations up and down (holes),
    /// unlinks (of open files too) and closes, over three names and every
    /// descriptor handed out, closed ones included. After every step the
    /// call's result, every cursor and `fstat`, each live file's block
    /// indices, the counters, `block_stats` and `statfs` are the model's.
    #[test]
    fn calls_match_an_arithmetic_model(steps in prop::collection::vec((0u8..13, any::<u16>()), 1..240)) {
        script(steps);
    }

    /// `read` of a length (once `read_discard`) is a byte read minus the
    /// bytes: over holes, truncations, cursors past EOF, a second read-only
    /// cursor, a write-only and a closed descriptor, and a clock that moves
    /// on its own steps, every read is the model's `read(2)`.
    #[test]
    fn read_discard_is_read_minus_the_bytes(steps in prop::collection::vec((0u8..6, 0usize..6, any::<u16>()), 1..80)) {
        let mut fs = Vfs::new(SMALL);
        let mut proc = fs.new_process();
        let (mut model, mut fds) = (Model::default(), Vec::new());
        // Read-write descriptors on /f0, /f1 and /f2, a second (read-only)
        // cursor on /f0, a write-only one on /f1 and a closed one on /f2.
        for open in [(0, 0), (0, 1), (0, 2), (3, 0), (2, 1), (3, 2)] {
            step(&mut fs, &mut proc, &mut model, &mut fds, 0, open, None);
        }
        let last = Some(fds[5]);
        step(&mut fs, &mut proc, &mut model, &mut fds, 0, (10, 0), last);
        let mut clock = 0;
        for (tick, (what, fd, arg)) in steps.into_iter().enumerate() {
            if what == 3 {
                clock = 7 * tick as u64;
                continue;
            }
            // A write, a truncation, a seek, or (two in six) a read.
            let (what, fd) = ([4, 8, 7, 0, 6, 6][usize::from(what)], Some(fds[fd]));
            step(&mut fs, &mut proc, &mut model, &mut fds, clock, (what, arg), fd);
        }
    }

    /// `write` of a length (once `write_zeros`) is a byte write minus the
    /// bytes: a script that starts with `/f0` open, two steps in nine a
    /// write, rewrites held blocks, cuts through them, and comes up short at
    /// `NoSpace` and fails at `FileTooLarge`, each write as the model's.
    #[test]
    fn write_zeros_is_write_minus_the_bytes(steps in prop::collection::vec((0u8..9, any::<u16>()), 1..80)) {
        let steps = steps.into_iter().map(|(what, arg)| ([0, 1, 4, 5, 7, 8, 6, 9, 10][usize::from(what)], arg));
        script(std::iter::once((0, 0)).chain(steps));
    }
}

/// Runs a script of `step`s on the small device, the clock at ten times the
/// step's number; a step's argument also picks its descriptor among those
/// handed out.
fn script(steps: impl IntoIterator<Item = (u8, u16)>) {
    let mut fs = Vfs::new(SMALL);
    let mut proc = fs.new_process();
    let (mut model, mut fds) = (Model::default(), Vec::new());
    for (tick, (what, arg)) in steps.into_iter().enumerate() {
        let fd = fds.get(usize::from(arg) % fds.len().max(1)).copied();
        let (fs, proc, model) = (&mut fs, &mut proc, &mut model);
        step(fs, proc, model, &mut fds, 10 * tick as u64, (what, arg), fd);
    }
}

/// Makes step `what` on the Vfs and on the model with both clocks at
/// `clock`, asserts they return the same, then runs `check`. Steps 0 to 3
/// open `/f{arg % 3}` with `open_flags(what)`, 4 and 5 write `arg % 700`
/// bytes, 6 reads as many, 7 seeks to `arg % 1_200`, 8 truncates the name
/// to that, 9 unlinks it, and the rest close; a step on `fd` when there is
/// none is skipped. An opened descriptor joins `fds`.
fn step(
    fs: &mut Vfs,
    proc: &mut Process,
    model: &mut Model,
    fds: &mut Vec<Fd>,
    clock: u64,
    (what, arg): (u8, u16),
    fd: Option<Fd>,
) {
    fs.set_clock(clock);
    model.clock = clock;
    let path = format!("/f{}", arg % 3);
    let (len, at) = (u64::from(arg) % 700, u64::from(arg) % 1_200);
    let got: Result<u64, FsError> = match (what, fd) {
        (0..=3, _) => fs.open(proc, &path, open_flags(what)).map(|fd| {
            fds.push(fd);
            fd.number().into()
        }),
        (4 | 5, Some(fd)) => fs.write(proc, fd, len as usize).map(|n| n as u64),
        (6, Some(fd)) => fs.read(proc, fd, len as usize).map(|n| n as u64),
        (7, Some(fd)) => fs.lseek(proc, fd, SeekFrom::Start(at)),
        (8, _) => fs.truncate(&path, at).map(|()| 0),
        (9, _) => fs.unlink(&path).map(|()| 0),
        (_, Some(fd)) => fs.close(proc, fd).map(|()| 0),
        (_, None) => return,
    };
    let fd = fd.map_or(0, |fd| fd.number());
    let want = match what {
        0..=3 => model.open(&path, open_flags(what)).map(u64::from),
        4 | 5 => model.write(fd, len),
        6 => model.read(fd, len),
        7 => model.seek(fd, at),
        8 => model.truncate(&path, at).map(|()| 0),
        9 => model.unlink(&path).map(|()| 0),
        _ => model.close(fd).map(|()| 0),
    };
    prop_assert_eq!(got, want, "step {} {}", what, arg);
    check(fs, proc, model, fds);
}

/// Every cursor and `fstat` of `fds`, each live file's block indices, the
/// counters, `block_stats` and `statfs`, against the model.
fn check(fs: &mut Vfs, proc: &mut Process, model: &mut Model, fds: &[Fd]) {
    // A live file is named or open, so these find every one.
    let mut live: BTreeMap<u64, Ino> = BTreeMap::new();
    for &fd in fds {
        let cursor = model.desc(fd.number()).map(|(_, cursor, _)| cursor);
        model.counters.seeks += 1;
        let got = fs.lseek(proc, fd, SeekFrom::Current(0));
        prop_assert_eq!(got, cursor, "cursor of {fd:?}");
        let md = fs.fstat(proc, fd);
        live.extend(md.iter().map(|md| (md.ino.number(), md.ino)));
        let want = model.fstat(fd.number());
        prop_assert_eq!(md.map(stat_of), want, "fstat of {fd:?}");
    }
    for path in model.names.keys() {
        let ino = fs.resolve(path).unwrap();
        live.insert(ino.number(), ino);
    }
    prop_assert_eq!(live.len(), model.files.len());
    for (&ino, file) in &model.files {
        let held: Vec<u64> = file.blocks.iter().copied().collect();
        prop_assert_eq!(fs.block_indices(live[&ino]), &held[..], "blocks of {}", ino);
    }
    prop_assert_eq!(fs.counters(), model.counters);
    prop_assert_eq!(fs.block_stats(), model.blocks);
    let st = fs.statfs();
    let free = SMALL.max_blocks as u64 - model.blocks.allocated;
    prop_assert_eq!(
        (st.free_blocks, st.used_inodes),
        (free, 1 + model.files.len() as u64)
    );
}
