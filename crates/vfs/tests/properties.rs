//! Property-based tests: the file system is exercised with random operation
//! sequences and checked against a simple in-memory model (a map from path
//! to byte vector), plus standalone invariants like space accounting.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use uswg_vfs::{FileKind, FsError, OpenFlags, SeekFrom, Vfs, VfsConfig};

/// Random workload operations applied both to the Vfs and to the model.
#[derive(Debug, Clone)]
enum Op {
    WriteFile { name: u8, payload: Vec<u8> },
    AppendFile { name: u8, payload: Vec<u8> },
    ReadFile { name: u8 },
    Unlink { name: u8 },
    Truncate { name: u8, len: u16 },
    Stat { name: u8 },
    Rename { from: u8, to: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12, prop::collection::vec(any::<u8>(), 0..600))
            .prop_map(|(name, payload)| Op::WriteFile { name, payload }),
        (0u8..12, prop::collection::vec(any::<u8>(), 0..300))
            .prop_map(|(name, payload)| Op::AppendFile { name, payload }),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Vfs agrees byte-for-byte with a trivial map model under random
    /// whole-file operations.
    #[test]
    fn vfs_matches_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut fs = Vfs::new(VfsConfig::default());
        fs.mkdir("/w").unwrap();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();

        for op in ops {
            match op {
                Op::WriteFile { name, payload } => {
                    fs.write_file(&path(name), &payload).unwrap();
                    model.insert(path(name), payload);
                }
                Op::AppendFile { name, payload } => {
                    let p = path(name);
                    if model.contains_key(&p) {
                        let mut proc = fs.new_process();
                        let fd = fs.open(&mut proc, &p, OpenFlags::append_only()).unwrap();
                        fs.write(&mut proc, fd, &payload).unwrap();
                        fs.close(&mut proc, fd).unwrap();
                        model.get_mut(&p).unwrap().extend_from_slice(&payload);
                    } else {
                        let mut proc = fs.new_process();
                        prop_assert_eq!(
                            fs.open(&mut proc, &p, OpenFlags::append_only()),
                            Err(FsError::NotFound)
                        );
                    }
                }
                Op::ReadFile { name } => {
                    let p = path(name);
                    match model.get(&p) {
                        Some(expect) => prop_assert_eq!(&fs.read_file(&p).unwrap(), expect),
                        None => prop_assert!(fs.read_file(&p).is_err()),
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
                    if let Some(content) = model.get_mut(&p) {
                        fs.truncate(&p, len as u64).unwrap();
                        content.resize(len as usize, 0);
                    } else {
                        prop_assert!(fs.truncate(&p, len as u64).is_err());
                    }
                }
                Op::Stat { name } => {
                    let p = path(name);
                    match model.get(&p) {
                        Some(content) => {
                            let md = fs.stat(&p).unwrap();
                            prop_assert_eq!(md.size, content.len() as u64);
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

        // Final sweep: every model file matches; the directory lists exactly
        // the model's keys.
        let mut listed: Vec<String> = fs.readdir("/w").unwrap().into_iter().map(|e| format!("/w/{}", e.name)).collect();
        listed.sort();
        let mut expected: Vec<String> = model.keys().cloned().collect();
        expected.sort();
        prop_assert_eq!(listed, expected);
        for (p, content) in &model {
            prop_assert_eq!(&fs.read_file(p).unwrap(), content);
        }
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
                    let mut proc = fs.new_process();
                    let created = fs.open(&mut proc, &path, OpenFlags::create_write().with_exclusive());
                    created.map(|fd| fs.close(&mut proc, fd).unwrap())
                }
                DirOp::Mkdir => fs.mkdir(&path),
                DirOp::Unlink => fs.unlink(&path),
                DirOp::Rmdir => fs.rmdir(&path),
                DirOp::RenameIn => {
                    fs.write_file("/o/in", b"x").unwrap();
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
        for (i, size) in sizes.iter().enumerate() {
            let payload = vec![0xA5u8; *size];
            fs.write_file(&format!("/f{i}"), &payload).unwrap();
        }
        prop_assert!(fs.block_stats().allocated > 0 || sizes.iter().all(|&s| s == 0));
        for i in 0..sizes.len() {
            fs.unlink(&format!("/f{i}")).unwrap();
        }
        prop_assert_eq!(fs.block_stats().allocated, 0);
        let st = fs.statfs();
        prop_assert_eq!(st.free_blocks, st.total_blocks);
    }

    /// Sequential chunked reads reassemble exactly what one write stored,
    /// for arbitrary chunk sizes.
    #[test]
    fn chunked_reads_reassemble(payload in prop::collection::vec(any::<u8>(), 1..40_000), chunk in 1usize..5_000) {
        let mut fs = Vfs::new(VfsConfig::default());
        fs.write_file("/data", &payload).unwrap();
        let mut proc = fs.new_process();
        let fd = fs.open(&mut proc, "/data", OpenFlags::read_only()).unwrap();
        let mut out = Vec::new();
        let mut buf = vec![0u8; chunk];
        loop {
            let n = fs.read(&mut proc, fd, &mut buf).unwrap();
            if n == 0 { break; }
            out.extend_from_slice(&buf[..n]);
        }
        fs.close(&mut proc, fd).unwrap();
        prop_assert_eq!(out, payload);
    }

    /// Writing at random offsets then reading back behaves like a sparse
    /// byte array, whether a segment is written as bytes or as zeros.
    #[test]
    fn random_offset_writes(segments in prop::collection::vec((0u32..200_000, prop::collection::vec(any::<u8>(), 1..500), any::<bool>()), 1..10)) {
        let mut fs = Vfs::new(VfsConfig::default());
        let mut proc = fs.new_process();
        let fd = fs.creat(&mut proc, "/sparse").unwrap();
        let mut model: Vec<u8> = Vec::new();
        for (offset, data, zeros) in &segments {
            let offset = *offset as usize;
            fs.lseek(&mut proc, fd, SeekFrom::Start(offset as u64)).unwrap();
            if model.len() < offset + data.len() {
                model.resize(offset + data.len(), 0);
            }
            let written = &mut model[offset..offset + data.len()];
            if *zeros {
                fs.write_zeros(&mut proc, fd, data.len()).unwrap();
                written.fill(0);
            } else {
                fs.write(&mut proc, fd, data).unwrap();
                written.copy_from_slice(data);
            }
        }
        fs.close(&mut proc, fd).unwrap();
        prop_assert_eq!(fs.read_file("/sparse").unwrap(), model);
    }

    /// `read_discard` is `read` minus the bytes: over files with holes,
    /// truncations up and down, cursors past EOF, a write-only and a closed
    /// descriptor, it returns what `read` returns and leaves the cursor, the
    /// inode and the counters where `read` leaves them. A step is (what to
    /// do, on which descriptor, a length or offset).
    #[test]
    fn read_discard_is_read_minus_the_bytes(steps in prop::collection::vec((0u8..6, 0usize..6, any::<u16>()), 1..80)) {
        // Three files: a read-write descriptor on each, a second (read-only)
        // cursor on the first, a write-only and a closed one.
        let open_all = |fs: &mut Vfs| {
            let mut proc = fs.new_process();
            let mut open = |f: u8, flags| fs.open(&mut proc, &format!("/f{f}"), flags).unwrap();
            let mut fds: Vec<_> = (0..3).map(|f| open(f, OpenFlags::read_write_create())).collect();
            fds.extend([open(0, OpenFlags::read_only()), open(1, OpenFlags::create_write())]);
            fds.push(open(2, OpenFlags::read_only()));
            fs.close(&mut proc, fds[5]).unwrap();
            (proc, fds)
        };
        let (mut copying, mut discarding) = (Vfs::new(VfsConfig::default()), Vfs::new(VfsConfig::default()));
        let (mut proc_c, fds) = open_all(&mut copying);
        let (mut proc_d, _) = open_all(&mut discarding);

        let mut buf = vec![0xC3u8; 9_000];
        for (tick, (what, fd, arg)) in steps.into_iter().enumerate() {
            let (fd, len) = (fds[fd], arg as usize % buf.len());
            if what >= 4 {
                // A read, the one call that differs.
                prop_assert_eq!(
                    copying.read(&mut proc_c, fd, &mut buf[..len]),
                    discarding.read_discard(&mut proc_d, fd, len)
                );
                continue;
            }
            for (fs, proc) in [(&mut copying, &mut proc_c), (&mut discarding, &mut proc_d)] {
                match what {
                    0 => drop(fs.write(proc, fd, &buf[..len % 3_000])),
                    1 => fs.truncate(&format!("/f{}", arg % 3), (arg / 3).into()).unwrap(),
                    2 => drop(fs.lseek(proc, fd, SeekFrom::Start(arg.into()))),
                    _ => fs.set_clock(7 * tick as u64),
                }
            }
        }

        for &fd in &fds {
            prop_assert_eq!(
                copying.lseek(&mut proc_c, fd, SeekFrom::Current(0)),
                discarding.lseek(&mut proc_d, fd, SeekFrom::Current(0))
            );
        }
        for f in 0..3 {
            // Size, blocks, atime, mtime and the rest, field by field.
            prop_assert_eq!(copying.stat(&format!("/f{f}")), discarding.stat(&format!("/f{f}")));
        }
        prop_assert_eq!(copying.counters(), discarding.counters());
    }

    /// `write_zeros` is `write` minus the bytes: one random script on two file
    /// systems, one writing a buffer of zeros, the other calling
    /// `write_zeros`, on a geometry small enough that writes come up short at
    /// `NoSpace` and fail at `FileTooLarge`. Both also write the same non-zero
    /// bytes, so zeros land on blocks holding data and truncation cuts through
    /// them. After every step they agree on the result, every cursor and
    /// `fstat`, the counters, `block_stats` and `statfs`; a read, on the bytes.
    #[test]
    fn write_zeros_is_write_minus_the_bytes(steps in prop::collection::vec((0u8..9, any::<u16>()), 1..80)) {
        let config = VfsConfig {
            block_size: 64,
            max_blocks: 24,
            max_inodes: 8,
            max_fds_per_process: 8,
            max_file_size: 1_000,
        };
        let (mut copying, mut zeroing) = (Vfs::new(config), Vfs::new(config));
        let (mut proc_c, mut proc_z) = (copying.new_process(), zeroing.new_process());
        let create = OpenFlags::read_write_create();
        let mut fds = vec![copying.open(&mut proc_c, "/f0", create).unwrap()];
        zeroing.open(&mut proc_z, "/f0", create).unwrap();
        for (what, arg) in steps {
            let (path, len) = (format!("/f{}", arg % 3), usize::from(arg) % 700);
            let fd = fds[usize::from(arg) % fds.len()];
            let (mut results, mut bytes, mut opened) = (Vec::new(), Vec::new(), None);
            for (fs, proc, zeros) in [(&mut copying, &mut proc_c, false), (&mut zeroing, &mut proc_z, true)] {
                let n = |n: usize| n as u64;
                results.push(match what {
                    // An open, of a file that may be new, in append mode or not.
                    0 | 1 => fs.open(proc, &path, OpenFlags { append: what == 1, ..create }).map(|fd| {
                        opened = Some(fd);
                        fd.number().into()
                    }),
                    2 if zeros => fs.write_zeros(proc, fd, len).map(n),
                    2 => fs.write(proc, fd, &[0; 700][..len]).map(n),
                    3 => fs.write(proc, fd, &[arg as u8 | 1; 700][..len]).map(n),
                    4 => fs.lseek(proc, fd, SeekFrom::Start(u64::from(arg) % 1_200)),
                    5 => fs.truncate(&path, u64::from(arg) % 1_100).map(|()| 0),
                    6 => {
                        let mut buf = vec![0xEE; len];
                        let read = fs.read(proc, fd, &mut buf);
                        buf.truncate(*read.as_ref().unwrap_or(&0));
                        bytes.push(buf);
                        read.map(n)
                    }
                    7 => fs.unlink(&path).map(|()| 0),
                    _ => fs.close(proc, fd).map(|()| 0),
                });
            }
            prop_assert_eq!(results[0], results[1], "step {} {}", what, arg);
            prop_assert_eq!(bytes.first(), bytes.last());
            fds.extend(opened);
            for &fd in &fds {
                prop_assert_eq!(
                    copying.lseek(&mut proc_c, fd, SeekFrom::Current(0)),
                    zeroing.lseek(&mut proc_z, fd, SeekFrom::Current(0))
                );
                prop_assert_eq!(copying.fstat(&proc_c, fd), zeroing.fstat(&proc_z, fd));
            }
            prop_assert_eq!(copying.counters(), zeroing.counters());
            prop_assert_eq!(copying.block_stats(), zeroing.block_stats());
            prop_assert_eq!(copying.statfs(), zeroing.statfs());
        }
    }
}
