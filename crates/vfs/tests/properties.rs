//! Property-based tests: the file system is exercised with random operation
//! sequences and checked against a simple in-memory model (a map from path
//! to byte vector), plus standalone invariants like space accounting.

use proptest::prelude::*;
use std::collections::HashMap;
use uswg_vfs::{FsError, OpenFlags, SeekFrom, Vfs, VfsConfig};

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
    /// byte array.
    #[test]
    fn random_offset_writes(segments in prop::collection::vec((0u32..200_000, prop::collection::vec(any::<u8>(), 1..500)), 1..10)) {
        let mut fs = Vfs::new(VfsConfig::default());
        let mut proc = fs.new_process();
        let fd = fs.creat(&mut proc, "/sparse").unwrap();
        let mut model: Vec<u8> = Vec::new();
        for (offset, data) in &segments {
            let offset = *offset as usize;
            fs.lseek(&mut proc, fd, SeekFrom::Start(offset as u64)).unwrap();
            fs.write(&mut proc, fd, data).unwrap();
            if model.len() < offset + data.len() {
                model.resize(offset + data.len(), 0);
            }
            model[offset..offset + data.len()].copy_from_slice(data);
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
}
